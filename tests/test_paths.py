"""Path generation, drifts, and the splittable RNG."""

import io
from fractions import Fraction

import numpy as np
import pytest

import fracdim as fd
from fracdim.errors import DomainError
from fracdim.rng import stream

from oracles import staircase_exact_level

N_SEEDS = 4096


def test_stream_is_deterministic_and_split():
    a = stream(7, 3).standard_normal(5)
    b = stream(7, 3).standard_normal(5)
    c = stream(7, 4).standard_normal(5)
    d = stream(8, 3).standard_normal(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_generate_bm_deterministic():
    grid = fd.TimeGrid.uniform(65)
    p1 = fd.generate_bm(grid, 2, 42)
    p2 = fd.generate_bm(grid, 2, 42)
    assert np.array_equal(p1.bm_values, p2.bm_values)
    assert not np.array_equal(p1.bm_values, fd.generate_bm(grid, 2, 43).bm_values)


def test_generate_bm_starts_at_origin():
    grid = fd.TimeGrid.custom([0.0])
    p = fd.generate_bm(grid, 3, 999)
    assert np.array_equal(p.bm_values, np.zeros((1, 3)))


def test_generate_bm_nonzero_start_has_spread():
    grid = fd.TimeGrid.custom([0.25, 0.75])
    vals = np.array([fd.generate_bm(grid, 1, s).bm_values[0, 0] for s in range(512)])
    assert abs(vals.var(ddof=1) - 0.25) < 0.07


def test_empty_grid_error():
    with pytest.raises(DomainError) as ei:
        fd.TimeGrid.custom([])
    assert ei.value.code == "empty-grid"


def test_grid_validation():
    with pytest.raises(ValueError):
        fd.TimeGrid.custom([0.0, 0.5, 0.5])
    with pytest.raises(ValueError):
        fd.TimeGrid.custom([0.0, 1.5])


def test_bm_mean_over_seeds():
    # 3-sigma/sqrt(N) CLT bound on the sample mean of B(1)
    grid = fd.TimeGrid.custom([0.0, 1.0])
    vals = np.array([fd.generate_bm(grid, 1, s).bm_values[-1, 0] for s in range(N_SEEDS)])
    assert abs(vals.mean()) <= 3.0 / np.sqrt(N_SEEDS)


def test_gaussian_marginals_and_increment_independence():
    grid = fd.TimeGrid.custom([0.0, 0.5, 1.0])
    half = np.empty(N_SEEDS)
    one = np.empty(N_SEEDS)
    for s in range(N_SEEDS):
        b = fd.generate_bm(grid, 1, s).bm_values[:, 0]
        half[s], one[s] = b[1], b[2]
    z = half / np.sqrt(0.5)
    assert abs(z.mean()) <= 3.0 / np.sqrt(N_SEEDS)
    assert abs(z.var(ddof=1) - 1.0) <= 0.1
    rho = np.corrcoef(half, one - half)[0, 1]
    assert abs(rho) <= 3.0 / np.sqrt(N_SEEDS)


def test_levy_base_level():
    p = fd.levy_construct(0, 1, 5)
    assert np.array_equal(p.grid.times, [0.0, 1.0])
    assert p.bm_values[0, 0] == 0.0
    one = np.array([fd.levy_construct(0, 1, s).bm_values[1, 0] for s in range(N_SEEDS)])
    assert abs(one.var(ddof=1) - 1.0) <= 0.12


def test_levy_refinement_preserves_coarse_values():
    for depth in (0, 1, 4):
        coarse = fd.levy_construct(depth, 2, 77)
        fine = fd.levy_construct(depth + 1, 2, 77)
        assert np.array_equal(coarse.bm_values, fine.bm_values[::2])


def test_levy_depth10_midpoint_variance():
    # chi-square window for the sample variance of B(1/2), frozen after a
    # calibration run; Var = 1/2
    vals = np.array([fd.levy_construct(10, 1, s).bm_values[512, 0] for s in range(N_SEEDS)])
    assert 0.44 <= vals.var(ddof=1) <= 0.56


def test_levy_and_increments_agree_in_law():
    grid = fd.TimeGrid.dyadic(4)
    inc_half = np.empty(N_SEEDS)
    inc_one = np.empty(N_SEEDS)
    lev_half = np.empty(N_SEEDS)
    lev_one = np.empty(N_SEEDS)
    for s in range(N_SEEDS):
        b = fd.generate_bm(grid, 1, s).bm_values[:, 0]
        inc_half[s], inc_one[s] = b[8], b[16]
        lv = fd.levy_construct(4, 1, s).bm_values[:, 0]
        lev_half[s], lev_one[s] = lv[8], lv[16]
    for vals in (inc_one, lev_one):
        assert 0.88 <= vals.var(ddof=1) <= 1.12
    for vals in (inc_half, lev_half):
        assert 0.44 <= vals.var(ddof=1) <= 0.56


def test_levy_grid_cap():
    with pytest.raises(DomainError) as ei:
        fd.levy_construct(8, 1, 0, max_points=100)
    assert ei.value.code == "grid-too-large"


# ---------------------------------------------------------------------------
# drifts


def test_zero_and_linear_drift():
    assert np.array_equal(fd.eval_drift(fd.DriftSpec.zero(2), 0.3), [0.0, 0.0])
    assert fd.eval_drift(fd.DriftSpec.linear([2.0]), 0.25)[0] == 0.5


def test_drift_time_range():
    with pytest.raises(DomainError) as ei:
        fd.eval_drift(fd.DriftSpec.zero(), 1.5)
    assert ei.value.code == "time-out-of-range"


def test_staircase_point_value():
    # tent(16/32) = 1/2, floor(4 * 1/2) = 2, 2 * 16^(-3/4) = 0.25
    assert fd.eval_drift(fd.DriftSpec.psi_n(16), 1 / 32)[0] == 0.25


def test_staircase_n4_constant_matches_exact_oracle():
    spec = fd.DriftSpec.psi_n(4)
    ts = np.arange(0, 2**12 + 1) / 2**12
    vals = fd.eval_drift(spec, ts)[:, 0]
    assert np.all(vals == 4.0**-0.75)
    for t in (Fraction(0), Fraction(1, 8), Fraction(3, 7), Fraction(1, 2), Fraction(1)):
        assert staircase_exact_level(4, t) == 1


def test_staircase_matches_exact_oracle_on_dyadics():
    for n in (16, 64, 256):
        spec = fd.DriftSpec.psi_n(n)
        ts = np.arange(0, 2**10 + 1) / 2**10
        vals = fd.eval_drift(spec, ts)[:, 0]
        levels = np.round(vals / float(n) ** -0.75).astype(int)
        for i in range(0, ts.size, 37):
            assert levels[i] == staircase_exact_level(n, Fraction(int(ts[i] * 2**10), 2**10))


def test_psi16_value_range():
    vals = fd.eval_drift(fd.DriftSpec.psi_n(16), np.linspace(0, 1, 65))[:, 0]
    assert set(np.unique(vals)) == {0.25, 0.375}


def test_drift_right_continuity_all_variants():
    br, vv = fd.staircase_steps(16)
    table = fd.DriftSpec.table(br[:-1], vv)
    specs = [
        fd.DriftSpec.zero(1),
        fd.DriftSpec.linear([3.0]),
        fd.DriftSpec.psi_n(16),
        fd.DriftSpec.lacunary([16, 64, 256]),
        table,
    ]
    # mesh includes every jump point of the finest staircase plus midpoints
    jumps = np.arange(0, 256) / 256.0
    mesh = np.unique(np.concatenate([jumps, jumps + 1 / 512.0, [0.9999]]))
    for spec in specs:
        base = fd.eval_drift(spec, mesh)
        for h in (2.0**-20, 2.0**-24):
            stepped = fd.eval_drift(spec, mesh + h)
            if spec.variant == "linear":
                assert np.allclose(stepped, base, atol=4 * h)
            else:
                assert np.array_equal(stepped, base)


def test_apply_drift_zero_identity_and_linear_inverse():
    grid = fd.TimeGrid.uniform(33)
    p = fd.generate_bm(grid, 1, 3)
    pz = fd.apply_drift(p, fd.DriftSpec.zero(1))
    assert np.array_equal(pz.combined, p.bm_values)
    plus = fd.apply_drift(p, fd.DriftSpec.linear([2.5]))
    minus = fd.eval_drift(fd.DriftSpec.linear([-2.5]), grid.times)
    assert np.allclose(plus.drift_values + minus, 0.0, atol=1e-15)


def test_apply_drift_dim_mismatch():
    grid = fd.TimeGrid.uniform(9)
    p = fd.generate_bm(grid, 2, 0)
    with pytest.raises(DomainError) as ei:
        fd.apply_drift(p, fd.DriftSpec.psi_n(16))
    assert ei.value.code == "dim-mismatch"


def test_lacunary_schedule_validation():
    with pytest.raises(ValueError):
        fd.DriftSpec.lacunary([64, 64, 256])
    with pytest.raises(ValueError):
        fd.DriftSpec.lacunary([64, 16])
    with pytest.raises(ValueError):
        fd.DriftSpec.lacunary([16, 64], truncation=5)


def test_lacunary_drift_is_sum_of_staircases():
    spec = fd.DriftSpec.lacunary([64, 256, 1024], truncation=2)
    ts = np.linspace(0, 1, 257)
    want = (fd.eval_drift(fd.DriftSpec.psi_n(64), ts)
            + fd.eval_drift(fd.DriftSpec.psi_n(256), ts))
    assert np.array_equal(fd.eval_drift(spec, ts), want)


def test_table_right_continuous_lookup():
    spec = fd.DriftSpec.table([0.0, 0.5], [[1.0], [2.0]])
    assert fd.eval_drift(spec, 0.49)[0] == 1.0
    assert fd.eval_drift(spec, 0.5)[0] == 2.0
    assert fd.eval_drift(spec, 1.0)[0] == 2.0


def test_sample_path_csv_roundtrip():
    grid = fd.TimeGrid.uniform(17)
    p = fd.apply_drift(fd.generate_bm(grid, 2, 11), fd.DriftSpec.linear([1.0, -2.0]))
    buf = io.StringIO()
    fd.write_path_csv(p, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == "t,b_1,b_2,f_1,f_2"
    back = fd.read_path_csv(io.StringIO(text))
    assert np.array_equal(back.bm_values, p.bm_values)
    assert np.array_equal(back.drift_values, p.drift_values)
    assert np.array_equal(back.grid.times, p.grid.times)


def test_drift_specs_compare_by_value():
    assert fd.DriftSpec.linear([1.0, 2.0]) == fd.DriftSpec.linear([1.0, 2.0])
    assert fd.DriftSpec.linear([1.0, 2.0]) != fd.DriftSpec.linear([1.0, 2.5])
    assert fd.DriftSpec.linear([1.0, 2.0]) != fd.DriftSpec.linear([1.0, 2.0, 0.0])
    assert fd.DriftSpec.linear([1.0]) != fd.DriftSpec.zero(1)
    br, vv = fd.staircase_steps(16)
    table = fd.DriftSpec.table(br[:-1], vv)
    assert table == fd.DriftSpec.table(br[:-1].copy(), vv.copy())
    assert table != fd.DriftSpec.table(br[:-1], vv + 1.0)
    assert table != fd.DriftSpec.table(br[:-1], np.column_stack([vv, vv]))
    assert fd.DriftSpec.psi_n(16) == fd.DriftSpec.psi_n(16) != fd.DriftSpec.psi_n(32)
    assert fd.DriftSpec.zero(1) != "zero"
