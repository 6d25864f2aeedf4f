"""Closed-form constructions: power grids, covering bounds, staircase
structure, and tail envelopes."""

import math
import tracemalloc

import numpy as np
import pytest

import fracdim as fd
from fracdim import constructions
from fracdim.errors import DomainError
from fracdim.metrics import PointCloud
from fracdim.paths import MAX_GRID_POINTS

from oracles import inverse_power_cell_count


def test_inverse_power_grid_small():
    g = fd.inverse_power_grid(1.0, 4)
    assert np.allclose(g.times, [0.0, 0.25, 1 / 3, 0.5, 1.0])
    g2 = fd.inverse_power_grid(2.0, 2)
    assert np.allclose(g2.times, [0.0, 0.25, 1.0])


def test_inverse_power_grid_refuses_more_points_than_the_cap():
    # n_max = cap gives cap + 1 points with the origin
    tracemalloc.start()
    try:
        with pytest.raises(DomainError) as ei:
            fd.inverse_power_grid(1.0, MAX_GRID_POINTS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ei.value.code == "grid-too-large"
    assert peak < 1 << 20


def test_inverse_power_grid_counts_match_integer_oracle():
    n_max = 2**20
    g = fd.inverse_power_grid(1.0, n_max)
    c = PointCloud.from_points(g.times[:, None])
    for j in (8, 12, 16, 20):
        assert fd.box_count(c, 2.0**-j) == inverse_power_cell_count(j, n_max)


def test_inverse_power_grid_dimension_near_half():
    g = fd.inverse_power_grid(1.0, 2**20)
    c = PointCloud.from_points(g.times[:, None])
    est = fd.estimate_dimension(fd.scale_sweep(c, "box", 6, 18))
    assert 0.45 <= est.ls_slope <= 0.55


def test_inverse_power_grid_analytic_count_within_factor_4():
    # resolvable points ~ eps^id(-1/(1+beta)) plus the accumulation head
    beta = 1.0
    g = fd.inverse_power_grid(beta, 2**16)
    c = PointCloud.from_points(g.times[:, None])
    for j in range(4, 17):
        eps = 2.0**-j
        analytic = math.floor(eps ** (-1.0 / (1.0 + beta)))
        measured = fd.box_count(c, eps)
        assert analytic / 4 <= measured <= analytic * 4


def test_holder_cover_bound_examples():
    assert fd.holder_cover_bound(1.0, 0.5, 1.0, 0.01) == 65
    assert fd.holder_cover_bound(1.0, 0.5, 1.0, 0.1) == 14
    eps = 0.1
    k = math.ceil(eps ** (-1.0 / (0.5 * 1.0 + 1.0)))
    assert fd.holder_cover_bound(0.0, 0.5, 1.0, eps) == k


def test_holder_bound_dominates_measured_covering():
    # g(x) = x^gamma is exactly gamma-Hoelder with constant 1
    n_max = 2**16
    g = fd.inverse_power_grid(1.0, n_max)
    for gamma in (0.45, 0.5):
        img = PointCloud.from_points((g.times**gamma)[:, None])
        for j in range(2, 17):
            eps = 2.0**-j
            assert fd.box_count(img, eps) <= fd.holder_cover_bound(1.0, gamma, 1.0, eps)


def test_theoretical_image_bound_values():
    assert fd.theoretical_image_bound(0.0, 1) == 0.0
    assert fd.theoretical_image_bound(0.0, 5) == 0.0
    assert fd.theoretical_image_bound(1.0, 1) == 1.0
    assert abs(fd.theoretical_image_bound(0.5, 1) - 2 / 3) < 1e-15
    assert abs(fd.theoretical_image_bound(0.7, 3) - 1.4) < 1e-15
    # steep-grid proxy: beta=8 gives alpha=1/9 and a 0.2 target
    assert abs(fd.theoretical_image_bound(1 / 9, 1) - 0.2) < 1e-15


def test_theoretical_image_bound_monotone_and_endpoints():
    grid = np.linspace(0.0, 1.0, 101)
    for d in (1, 2, 3):
        vals = [fd.theoretical_image_bound(a, d) for a in grid]
        assert np.all(np.diff(vals) > 0)
        fixed = [a for a in grid if abs(fd.theoretical_image_bound(a, d) - a) < 1e-12]
        assert fixed == ([0.0, 1.0] if d == 1 else [0.0])


def test_psi_graph_count_formula_examples():
    n = 2**8
    assert fd.psi_graph_count_formula(n, float(n) ** -0.75) == n**1.25
    assert fd.psi_graph_count_formula(n, 2.0**-4) == 64.0
    # both branch expressions meet at the regime boundary
    eps_star = float(n) ** -0.75
    assert math.isclose(math.sqrt(n) / eps_star, float(n) ** -0.25 / eps_star**2)


def test_psi_graph_count_formula_below_the_jump_size_counts_the_jumps():
    # eps < n^-3/4: sqrt(n) / eps boxes
    assert fd.psi_graph_count_formula(2**8, 0.001) == 16 / 0.001 == 16000.0
    assert fd.psi_graph_count_formula(2**8, 2.0**-7) == 2.0**11


def test_psi_graph_count_formula_regime_guard():
    with pytest.raises(DomainError) as ei:
        fd.psi_graph_count_formula(2**8, 2.0**-13)
    assert ei.value.code == "scale-out-of-regime"
    with pytest.raises(DomainError):
        fd.psi_graph_count_formula(2**8, 1.0)


def test_psi_formula_vs_exact_count_within_factor_8():
    for n in (2**8, 2**10, 2**12):
        eps = float(n) ** -0.75
        breaks, values = fd.staircase_steps(n)
        measured = fd.step_graph_box_count(breaks, values, eps)
        predicted = n**1.25
        assert predicted / 8 <= measured <= predicted * 8


def test_lacunary_tail_bound_desk():
    sched = fd.LacunarySchedule.desk()
    got = fd.lacunary_tail_bound(sched, 3)
    # geometric series: 4^(-6/4) / (1 - 4^(-1/4))
    want = 4.0**-1.5 / (1.0 - 4.0**-0.25)
    assert abs(got - want) < 1e-12


def test_lacunary_tail_bound_paper_and_custom():
    assert fd.lacunary_tail_bound(fd.LacunarySchedule.paper(), 1) <= 0.002
    # n_k = 2^(6^k) leaves the doubles: the tail is 0, not an overflow
    assert fd.lacunary_tail_bound(fd.LacunarySchedule.paper(), 10**9) == 0.0
    sched = fd.LacunarySchedule.custom([16, 64, 256])
    assert fd.lacunary_tail_bound(sched, 3) == 0.0
    assert fd.lacunary_tail_bound(sched, 2) == 256.0**-0.25
    for truncation in (-1, 4):  # the same check as the schedule's drift
        with pytest.raises(ValueError, match=f"truncation={truncation}"):
            fd.lacunary_tail_bound(sched, truncation)


def test_lacunary_tail_bound_sums_every_term_of_a_long_custom_schedule():
    # 100002 terms whose envelope sums to about 7497: finite, so no cap applies
    got = fd.lacunary_tail_bound(fd.LacunarySchedule.custom(range(1, 100003)), 0)
    want = math.fsum(n**-0.25 for n in range(1, 100003))
    assert abs(got - want) < 1e-9 * want and 7497 < got < 7498


def test_schedule_presets_and_parse():
    desk = fd.LacunarySchedule.desk()
    assert desk.frequencies(3) == (64, 256, 1024)
    paper = fd.LacunarySchedule.paper()
    assert paper.log2_frequency(1) == 6.0
    assert paper.log2_frequency(2) == 36.0
    assert constructions.parse_schedule("desk").preset == "desk"
    assert constructions.parse_schedule("custom(4,16)").frequencies_list == (4, 16)
    with pytest.raises(ValueError):
        constructions.parse_schedule("nope")


def test_paper_schedule_not_simulable():
    with pytest.raises(DomainError) as ei:
        fd.LacunarySchedule.paper().drift(2)
    assert ei.value.code == "schedule-not-simulable"
    # one-term truncation is fine: 2^6 = 64
    assert fd.LacunarySchedule.paper().drift(1).schedule == (64,)


def test_staircase_steps_reconstruct_eval():
    for n in (16, 64):
        breaks, values = fd.staircase_steps(n)
        ts = np.linspace(0, 1, 4097)
        idx = np.clip(np.searchsorted(breaks, ts, side="right") - 1, 0, values.size - 1)
        direct = fd.eval_drift(fd.DriftSpec.psi_n(n), ts)[:, 0]
        assert np.array_equal(values[idx], direct)


def test_staircase_steps_need_square():
    with pytest.raises(ValueError):
        fd.staircase_steps(48)


def test_lacunary_steps_sum():
    freqs = (16, 64)
    breaks, values = fd.lacunary_steps(freqs)
    ts = breaks[:-1]
    want = sum(fd.eval_drift(fd.DriftSpec.psi_n(n), ts)[:, 0] for n in freqs)
    assert np.array_equal(values, want)
    b0, v0 = fd.lacunary_steps(())
    assert np.array_equal(b0, [0.0, 1.0]) and np.array_equal(v0, [0.0])


@pytest.mark.parametrize("refused, error, code", [
    pytest.param(lambda: fd.LacunarySchedule.custom([16, 16]), ValueError, None,
                 id="custom-schedule-not-increasing"),
    pytest.param(lambda: fd.LacunarySchedule.desk().log2_frequency(0), ValueError, None,
                 id="schedule-index-0"),
    pytest.param(lambda: fd.LacunarySchedule.custom([16, 64]).log2_frequency(3), IndexError, None,
                 id="past-the-end-of-a-custom-schedule"),
    pytest.param(lambda: fd.inverse_power_grid(0.0, 4), ValueError, None, id="power-beta-0"),
    pytest.param(lambda: fd.inverse_power_grid(1.0, 0), ValueError, None, id="power-n-max-0"),
    pytest.param(lambda: fd.holder_cover_bound(1.0, 0.0, 1.0, 0.01), ValueError, None,
                 id="holder-gamma-0"),
    pytest.param(lambda: fd.holder_cover_bound(1.0, 1.5, 1.0, 0.01), ValueError, None,
                 id="holder-gamma-above-1"),
    pytest.param(lambda: fd.theoretical_image_bound(0.5, 0), ValueError, None,
                 id="image-bound-d-0"),
])
def test_malformed_schedules_grids_and_bounds_are_refused(refused, error, code):
    with pytest.raises(error) as ei:
        refused()
    assert type(ei.value) is error and getattr(ei.value, "code", None) == code
