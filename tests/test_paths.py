"""Path generation, drifts, and the splittable RNG."""

import io
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import fracdim as fd
from fracdim.errors import DomainError
from fracdim.rng import stream

from oracles import rowwise_path_csv, staircase_exact_level

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
    grid = fd.TimeGrid([0.0])
    p = fd.generate_bm(grid, 3, 999)
    assert np.array_equal(p.bm_values, np.zeros((1, 3)))


def test_generate_bm_nonzero_start_has_spread():
    grid = fd.TimeGrid([0.25, 0.75])
    vals = np.array([fd.generate_bm(grid, 1, s).bm_values[0, 0] for s in range(512)])
    assert abs(vals.var(ddof=1) - 0.25) < 0.07


@pytest.mark.parametrize("grid", [fd.TimeGrid.uniform(4097), fd.TimeGrid.uniform(3),
                                  fd.inverse_power_grid(2.0, 1000), fd.TimeGrid([0.25, 0.75])],
                         ids=["uniform", "uniform-3", "power", "late-start"])
@pytest.mark.parametrize("d", [1, 2])
def test_generate_bm_is_the_cumulative_sum_of_scaled_draws(grid, d):
    # the draws, scaled and summed in place, give the formula's bits
    t = grid.times
    z = stream(11, 0).standard_normal((t.size, d))
    want = np.cumsum(np.sqrt(np.diff(t, prepend=0.0))[:, None] * z, axis=0)
    path = fd.generate_bm(grid, d, 11)
    assert path.bm_values.tobytes() == want.tobytes()
    assert not path.drift_values.any()


def test_generate_bm_attaches_given_drift_values():
    grid = fd.TimeGrid.uniform(33)
    drift = fd.eval_drift(fd.DriftSpec.psi_n(16), grid.times)
    drift.flags.writeable = False
    path = fd.generate_bm(grid, 1, 5, drift)
    assert path.drift_values is drift
    assert path.bm_values.tobytes() == fd.generate_bm(grid, 1, 5).bm_values.tobytes()
    assert path.combined is path.combined
    assert path.combined.tobytes() == (path.bm_values + drift).tobytes()


def test_empty_grid_error():
    with pytest.raises(DomainError) as ei:
        fd.TimeGrid([])
    assert ei.value.code == "empty-grid"


def test_times_of_another_shape_are_a_bad_shape():
    # a wrong array shape is its own fault, as for point clouds; [] stays an
    # empty grid (test_empty_grid_error)
    for times in ([[0.0, 0.5], [0.75, 1.0]], [[0.5]], np.zeros((3, 1, 1))):
        with pytest.raises(DomainError) as ei:
            fd.TimeGrid(times)
        assert ei.value.code == "bad-shape"


def test_grid_validation():
    with pytest.raises(ValueError):
        fd.TimeGrid([0.0, 0.5, 0.5])
    with pytest.raises(ValueError):
        fd.TimeGrid([0.0, 1.5])
    # a one-point grid skips the increasing check, so NaN once made a grid
    for times in ([np.nan], [0.0, np.nan], [np.nan, 0.5]):
        with pytest.raises(ValueError):
            fd.TimeGrid(np.array(times))


def test_a_time_grid_leaves_the_callers_times_writeable():
    # the grid keeps a read-only copy, so a later write to the caller's
    # array neither raises nor shows in the grid
    times = np.linspace(0.0, 1.0, 9)
    grid = fd.TimeGrid(times)
    times[1] = 0.05
    assert grid.times[1] == 0.125 and not grid.times.flags.writeable


def test_a_sample_path_leaves_the_callers_values_writeable():
    grid = fd.TimeGrid.uniform(5)
    bm, drift = np.zeros((5, 2)), np.ones((5, 2))
    path = fd.SamplePath(grid, 2, bm, drift, 0, "file")
    bm[0, 0] = drift[0, 0] = 7.0
    assert path.bm_values[0, 0] == 0.0 and path.drift_values[0, 0] == 1.0
    assert not (path.bm_values.flags.writeable or path.drift_values.flags.writeable)
    # read-only values, such as another path's, are kept without a copy
    again = fd.SamplePath(grid, 2, path.bm_values, path.drift_values, 1, "file")
    assert again.bm_values is path.bm_values and again.drift_values is path.drift_values


def test_bm_mean_over_seeds():
    # 3-sigma/sqrt(N) CLT bound on the sample mean of B(1)
    grid = fd.TimeGrid([0.0, 1.0])
    vals = np.array([fd.generate_bm(grid, 1, s).bm_values[-1, 0] for s in range(N_SEEDS)])
    assert abs(vals.mean()) <= 3.0 / np.sqrt(N_SEEDS)


def test_gaussian_marginals_and_increment_independence():
    grid = fd.TimeGrid([0.0, 0.5, 1.0])
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


def test_dyadic_grid_is_the_uniform_grid():
    for level in range(0, 13):
        dyadic = fd.TimeGrid.dyadic(level).times
        assert dyadic.tobytes() == fd.TimeGrid.uniform(2**level + 1).times.tobytes()
    with pytest.raises(ValueError):
        fd.TimeGrid.dyadic(-1)


def test_levy_depth_refused_before_forming_two_to_the_depth():
    # 2^(10^9) would be a 125 MB integer
    tracemalloc.start()
    try:
        with pytest.raises(DomainError) as ei:
            fd.levy_construct(10**9, 1, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ei.value.code == "grid-too-large"
    assert peak < 1 << 20


def test_levy_grid_cap():
    # depth 24 gives 2^24 + 1 points, one over the cap; refused before allocating
    tracemalloc.start()
    try:
        with pytest.raises(DomainError) as ei:
            fd.levy_construct(24, 1, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ei.value.code == "grid-too-large"
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# drifts


def test_zero_and_linear_drift():
    assert np.array_equal(fd.eval_drift(fd.DriftSpec.zero(2), 0.3), [0.0, 0.0])
    assert fd.eval_drift(fd.DriftSpec.linear([2.0]), 0.25)[0] == 0.5


def test_drift_time_range():
    with pytest.raises(DomainError) as ei:
        fd.eval_drift(fd.DriftSpec.zero(), 1.5)
    assert ei.value.code == "time-out-of-range"
    # NaN passed both range comparisons: a table drift read it as its last
    # value, formula drifts returned NaN
    for spec in (fd.DriftSpec.table([0, 0.5], [1, 2]), fd.DriftSpec.zero(),
                 fd.DriftSpec.linear([1.0]), fd.DriftSpec.psi_n(16)):
        for t in (math.nan, np.array([0.25, np.nan])):
            with pytest.raises(DomainError) as ei:
                fd.eval_drift(spec, t)
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
    # the truncation of a schedule is checked by the schedule alone
    for truncation in (-1, 3, 5):
        with pytest.raises(ValueError) as ei:
            fd.LacunarySchedule.custom([16, 64]).drift(truncation)
        assert f"truncation={truncation}" in str(ei.value)


def test_lacunary_drift_is_sum_of_staircases():
    spec = fd.LacunarySchedule.custom([64, 256, 1024]).drift(2)
    assert (spec.variant, spec.dim, spec.schedule) == ("lacunary_sum", 1, (64, 256))
    ts = np.linspace(0, 1, 257)
    want = (fd.eval_drift(fd.DriftSpec.psi_n(64), ts)
            + fd.eval_drift(fd.DriftSpec.psi_n(256), ts))
    assert np.array_equal(fd.eval_drift(spec, ts), want)


def test_psi_n_is_the_one_term_staircase_sum():
    ts = np.linspace(0.0, 1.0, 2**16 + 1)
    for n in (1, 4, 16, 64, 1024, 4096):
        spec = fd.DriftSpec.psi_n(n)
        assert (spec.variant, spec.dim, spec.schedule) == ("lacunary_sum", 1, (n,))
        vals = fd.eval_drift(spec, ts)
        # the same bits as the bare staircase: no value is -0.0
        assert vals.tobytes() == fd.paths._staircase(n, ts)[:, None].tobytes()


def test_staircase_frequency_bounds():
    with pytest.raises(ValueError):
        fd.DriftSpec.psi_n(0)
    with pytest.raises(DomainError) as ei:
        fd.DriftSpec.psi_n(fd.paths.MAX_STAIRCASE_N + 1)
    assert ei.value.code == "schedule-not-simulable"


@pytest.mark.parametrize("mu", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_drift_parameters_are_refused(mu):
    with pytest.raises(ValueError):
        fd.DriftSpec.linear([1.0, mu])
    with pytest.raises(ValueError):
        fd.DriftSpec.table([0.0, 0.5], [[1.0], [mu]])
    with pytest.raises(ValueError):
        fd.DriftSpec.table([0.0, mu], [[1.0], [2.0]])


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


EDGE_VALUES = (-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               -1.7976931348623157e308)


def _edge_path(n: int, d: int, seed: int) -> fd.SamplePath:
    """Finite values of every magnitude, with the edge values at the first
    row, at both sides of each block boundary and at the last row."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((2, n, d)) * 10.0 ** rng.integers(-300, 300, (2, n, d))
    rows = [r for r in (0, 4094, 4095, 4096, 4097, n - 1) if r < n]
    for k, r in enumerate(rows):
        values[k % 2, r] = np.resize(np.roll(EDGE_VALUES, k), d)
    times = np.linspace(0.0, 1.0, n)
    times[0] = -0.0
    return fd.SamplePath(fd.TimeGrid(times), d, values[0], values[1], seed, "file")


@pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 8193])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_write_path_csv_matches_rowwise_oracle(n, d):
    path = _edge_path(n, d, seed=10 * n + d)
    text, expected = io.StringIO(), io.StringIO()
    fd.write_path_csv(path, text)
    rowwise_path_csv(path, expected)
    assert text.getvalue() == expected.getvalue()
    back = fd.read_path_csv(io.StringIO(text.getvalue()))
    assert back.grid.times.tobytes() == path.grid.times.tobytes()
    assert back.bm_values.tobytes() == path.bm_values.tobytes()
    assert back.drift_values.tobytes() == path.drift_values.tobytes()

    nonfinite = np.array(path.bm_values)
    nonfinite[[0, -1]] = np.resize([np.nan, np.inf, -np.inf], d)
    path = fd.SamplePath(path.grid, d, nonfinite, -nonfinite, path.seed, "file")
    text, expected = io.StringIO(), io.StringIO()
    fd.write_path_csv(path, text)
    rowwise_path_csv(path, expected)
    assert text.getvalue() == expected.getvalue()


class _CharCount:
    """A text sink that keeps only the number of characters written."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)


def test_write_path_csv_formats_blockwise_in_bounded_memory():
    path = fd.apply_drift(fd.levy_construct(16, 1, 0), fd.DriftSpec.linear([0.5]))
    sink = _CharCount()
    tracemalloc.start()
    try:
        fd.write_path_csv(path, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # formatting all 2^16 + 1 rows in one call holds about 13 MiB
    assert peak < 2 << 20
    expected = io.StringIO()
    rowwise_path_csv(path, expected)
    assert sink.chars == len(expected.getvalue())


def test_drift_spec_hash_copies_no_table():
    # a staircase of 2^21 steps: hashing its knots as a tuple took 144 MB
    breaks, values = fd.staircase_steps(4**7)
    table = fd.DriftSpec.table(breaks[:-1], values)
    assert values.size == 2**21
    tracemalloc.start()
    try:
        hash(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("refused, error, code", [
    pytest.param(lambda: fd.TimeGrid.uniform(0), DomainError, "empty-grid",
                 id="empty-uniform-grid"),
    pytest.param(lambda: fd.DriftSpec.table([0.0, 0.5], [1.0]), ValueError, None,
                 id="table-lengths-differ"),
    pytest.param(lambda: fd.DriftSpec.table([0.0, 0.5, 0.5], [1.0, 2.0, 3.0]), ValueError, None,
                 id="table-times-not-increasing"),
    pytest.param(lambda: fd.SamplePath(fd.TimeGrid.uniform(3), 1, np.zeros((2, 1)),
                                       np.zeros((3, 1)), 0, "file"), ValueError, None,
                 id="path-values-of-the-wrong-shape"),
])
def test_malformed_grids_drifts_and_paths_are_refused(refused, error, code):
    with pytest.raises(error) as ei:
        refused()
    assert type(ei.value) is error and getattr(ei.value, "code", None) == code
