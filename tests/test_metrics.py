"""Counting operations: exact examples, brute-force cross-checks, and the
randomized property suites (1000 instances each, fixed seeds)."""

import io
import json

import numpy as np
import pytest

import fracdim as fd
from fracdim.errors import DomainError
from fracdim.metrics import (
    PointCloud,
    boxes_per_center,
    neighbor_collision_counts,
    packing_indices,
    packing_per_box,
)

from oracles import (
    all_maximal_separated_subsets,
    brute_box_count,
    brute_max_packing,
    brute_neighbor_counts,
    pairwise_separated,
    union_interval_length,
)

N_INSTANCES = 1000


def cloud(arr):
    return PointCloud.from_points(np.asarray(arr, dtype=float))


def random_cloud(rng, max_n=60):
    m = int(rng.integers(1, 4))
    n = int(rng.integers(1, max_n))
    scale = rng.uniform(0.3, 4.0)
    return PointCloud.from_points(rng.uniform(-1.0, 1.0, (n, m)) * scale)


# ---------------------------------------------------------------------------
# packing


def test_packing_examples():
    c = cloud([[0.0], [0.5], [1.0]])
    assert fd.packing_number(c, 0.2) == 3
    assert fd.packing_number(c, 0.3) == 2
    assert np.array_equal(packing_indices(c, 0.3), [0, 2])
    assert fd.packing_number(cloud(np.zeros((100, 1))), 0.05) == 1


def test_packing_errors():
    c = cloud([[0.0]])
    with pytest.raises(DomainError) as ei:
        fd.packing_number(c, 0.0)
    assert ei.value.code == "bad-scale"
    with pytest.raises(DomainError) as ei:
        PointCloud.from_points(np.zeros((0, 2)))
    assert ei.value.code == "empty-cloud"


def test_packing_properties_random():
    rng = np.random.default_rng(2024)
    for _ in range(N_INSTANCES):
        c = random_cloud(rng)
        eps = float(rng.uniform(0.02, 0.5))
        idx = packing_indices(c, eps)
        kept = c.points[idx]
        assert pairwise_separated(kept, eps)
        # maximality: every point is within strict 2*eps of a kept center
        d2 = ((c.points[:, None, :] - kept[None, :, :]) ** 2).sum(axis=2)
        assert np.all(np.sqrt(d2.min(axis=1)) < 2 * eps)


def test_packing_lower_bounds_true_maximum():
    rng = np.random.default_rng(7)
    for _ in range(200):
        m = int(rng.integers(1, 3))
        n = int(rng.integers(1, 9))
        pts = rng.uniform(0, 1, (n, m))
        eps = float(rng.uniform(0.05, 0.4))
        greedy = fd.packing_number(cloud(pts), eps)
        assert greedy <= brute_max_packing(pts, eps)


# ---------------------------------------------------------------------------
# boxes


def test_box_examples():
    assert fd.box_count(cloud([[0.05], [0.15], [0.95]]), 0.1) == 3
    assert fd.box_count(cloud([[0.33, -0.2]]), 0.07) == 1
    # half-open cells: 0.09 stays in cell 0, 0.11 goes to cell 1
    assert fd.box_count(cloud([[0.0, 0.0], [0.09, 0.09], [0.11, 0.0]]), 0.1) == 2


def test_box_boundary_goes_up():
    assert fd.box_count(cloud([[0.2], [0.2 - 1e-12]]), 0.1) == 2


def test_box_count_on_a_grid_too_large_to_pack():
    # about 2^40 cells per axis: the cell tuples cannot be packed into int64 keys
    pts = [[0.0, 0.0, 0.0], [1e6, 1e6, 1e6]]
    assert fd.box_count(cloud(pts), 2.0**-20) == 2
    assert fd.box_count(cloud(pts + [[1e6, 0.0, 1e6]]), 2.0**-20) == 3


def test_box_count_of_cells_beyond_int64():
    # floor(x / eps) of 2^62 and more is counted as distinct float floors
    for pts in ([[0.0], [1e300]], [[-1e18], [1e18]], [[1e18, 0.0], [1e18, 1.0], [1e18, 0.0]]):
        assert fd.box_count(cloud(pts), 2.0**-4) == brute_box_count(pts, 2.0**-4) == 2
    # x / eps itself overflows
    with pytest.raises(DomainError) as ei:
        fd.box_count(cloud([[0.0], [1e308]]), 2.0**-4)
    assert ei.value.code == "non-finite-cell"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_points_are_rejected(bad):
    pts = [[0.0, 0.0], [0.5, bad]]
    for call in (lambda: PointCloud.from_points(pts),
                 lambda: fd.good_point_thinning(pts, 0.1),
                 lambda: neighbor_collision_counts(pts, 0.1)):
        with pytest.raises(DomainError) as ei:
            call()
        assert ei.value.code == "non-finite-point"


def test_box_packing_sandwich_random():
    rng = np.random.default_rng(99)
    for _ in range(N_INSTANCES):
        c = random_cloud(rng)
        eps = float(rng.uniform(0.02, 0.5))
        pack = fd.packing_number(c, eps)
        assert fd.box_count(c, 2 * eps) <= boxes_per_center(c.dim) * pack
        assert pack <= packing_per_box(c.dim) * fd.box_count(c, eps)


# ---------------------------------------------------------------------------
# oscillation


def test_oscillation_examples():
    assert fd.graph_box_count_oscillation(np.full(5, 1.7), 2) == 4
    x = np.linspace(0, 1, 9)
    assert fd.graph_box_count_oscillation(x, 3) == 8
    assert fd.graph_box_count_oscillation(2 * x, 3) == 16


def test_oscillation_grid_validation():
    with pytest.raises(DomainError) as ei:
        fd.graph_box_count_oscillation(np.zeros(6), 2)
    assert ei.value.code == "not-dyadic-grid"
    with pytest.raises(DomainError):
        fd.graph_box_count_oscillation(np.zeros(5), 3)


def _random_piecewise_linear(rng, j=10):
    knots = int(rng.integers(2, 9))
    kx = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0, 1, knots)]))
    ky = rng.uniform(-1, 1, kx.size) * rng.uniform(0.2, 3.0)
    ts = np.linspace(0, 1, 2**j + 1)
    return ts, np.interp(ts, kx, ky)


def test_oscillation_sandwich_random():
    # box_count of the sampled graph within [sum/c, 2*c*sum], c = 2
    rng = np.random.default_rng(12345)
    c_const = 2.0
    for _ in range(N_INSTANCES):
        n = int(rng.integers(3, 7))
        ts, vals = _random_piecewise_linear(rng)
        omega = fd.graph_box_count_oscillation(vals, n)
        boxes = fd.box_count(cloud(np.column_stack([ts, vals])), 2.0**-n)
        assert omega / c_const <= boxes <= 2.0 * omega * c_const


def test_oscillation_two_sided_bound_random():
    # termwise: O(f+g) <= O(f)+O(g); O(f+g) >= O(g)-O(f) when that is >= 1
    from fracdim.kernels import oscillation_counts

    rng = np.random.default_rng(4242)
    for _ in range(N_INSTANCES):
        n = int(rng.integers(2, 6))
        _, f = _random_piecewise_linear(rng, j=8)
        _, g = _random_piecewise_linear(rng, j=8)
        of = oscillation_counts(f, n)
        og = oscillation_counts(g, n)
        ofg = oscillation_counts(f + g, n)
        assert np.all(ofg <= of + og)
        lower = og - of
        mask = lower >= 1
        assert np.all(ofg[mask] >= lower[mask])


# ---------------------------------------------------------------------------
# sausage volumes


def test_sausage_examples():
    assert abs(fd.sausage_volume(cloud([[0.0]]), 1.0, 64) - 2.0) <= 2 / 64
    assert abs(fd.sausage_volume(cloud([[0.0], [3.0]]), 1.0, 64) - 4.0) <= 4 / 64
    assert abs(fd.sausage_volume(cloud([[0.0], [1.0]]), 1.0, 64) - 3.0) <= 4 / 64


def test_sausage_dimension_guard():
    with pytest.raises(DomainError) as ei:
        fd.sausage_volume(cloud(np.zeros((2, 4))), 0.5, 4)
    assert ei.value.code == "dimension-unsupported"


def test_sausage_rejects_a_cell_that_is_not_positive_and_finite():
    for cell in (0.0, -0.1, float("nan"), float("inf")):
        with pytest.raises(DomainError) as ei:
            fd.sausage_volume(cloud([[0.0], [1.0]]), 0.5, cell=cell)
        assert ei.value.code == "bad-scale"


def test_sausage_matches_exact_union_length_1d():
    rng = np.random.default_rng(31337)
    for _ in range(100):
        n = int(rng.integers(1, 12))
        centers = rng.uniform(-2, 2, n)
        r = float(rng.uniform(0.05, 0.8))
        q = 64
        vol = fd.sausage_volume(cloud(centers[:, None]), r, q)
        exact = union_interval_length(centers, r)
        assert abs(vol - exact) <= 2 * n * (r / q)


def test_sausage_monotone_in_radius_on_shared_grid():
    rng = np.random.default_rng(555)
    for _ in range(N_INSTANCES):
        c = random_cloud(rng, max_n=25)
        if c.dim > 3:
            continue
        r1 = float(rng.uniform(0.05, 0.3))
        r2 = r1 + float(rng.uniform(0.01, 0.3))
        h = r1 / 4
        v1 = fd.sausage_volume(c, r1, cell=h)
        v2 = fd.sausage_volume(c, r2, cell=h)
        assert v1 <= v2


def test_sausage_subadditive_over_splits():
    rng = np.random.default_rng(777)
    for _ in range(N_INSTANCES):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(2, 30))
        pts = rng.uniform(-1, 1, (n, m)) * rng.uniform(0.5, 3)
        r = float(rng.uniform(0.05, 0.5))
        k = int(rng.integers(1, n))
        whole = fd.sausage_volume(cloud(pts), r, 4)
        part1 = fd.sausage_volume(cloud(pts[:k]), r, 4)
        part2 = fd.sausage_volume(cloud(pts[k:]), r, 4)
        assert whole <= part1 + part2 + 1e-12


# ---------------------------------------------------------------------------
# thinning


def test_thinning_examples():
    spread = np.arange(5, dtype=float)[:, None]  # pairwise >= 2*eps for eps=0.5
    assert np.array_equal(fd.good_point_thinning(spread, 0.5, threshold=1), np.arange(5))
    same = np.zeros((5, 1))
    assert np.array_equal(fd.good_point_thinning(same, 0.1, threshold=10), [0])
    y = np.array([[0.0], [0.1], [0.5], [0.6], [2.0]])
    assert np.array_equal(neighbor_collision_counts(y, 0.1), [1, 1, 1, 1, 0])
    sel = fd.good_point_thinning(y, 0.1, threshold=2)
    assert np.array_equal(sel, [0, 2, 4])
    # the selection is one of the maximal separated subsets
    assert tuple(sel) in all_maximal_separated_subsets(y, 0.1)


def test_thinning_errors():
    with pytest.raises(DomainError) as ei:
        fd.good_point_thinning(np.zeros((3, 1)), -1.0)
    assert ei.value.code == "bad-scale"


def test_collision_counts_match_brute_force():
    rng = np.random.default_rng(13)
    for _ in range(300):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 40))
        pts = rng.uniform(-1, 1, (n, m))
        eps = float(rng.uniform(0.02, 0.5))
        got = neighbor_collision_counts(pts, eps)
        assert np.array_equal(got, brute_neighbor_counts(pts, 2 * eps))


def test_thinning_separation_and_size_guarantee():
    rng = np.random.default_rng(99999)
    for _ in range(500):
        m = int(rng.integers(1, 3))
        n = int(rng.integers(2, 60))
        pts = rng.uniform(0, 1, (n, m))
        eps = float(rng.uniform(0.02, 0.3))
        thr = float(rng.uniform(0.5, 20))
        sel = fd.good_point_thinning(pts, eps, threshold=thr)
        assert pairwise_separated(pts[sel], eps)
        n_good = int((neighbor_collision_counts(pts, eps) < thr).sum())
        assert sel.size >= n_good / (thr + 1)


def test_thinning_equals_greedy_when_all_points_good():
    # with an above-envelope threshold every point is good and the scan is
    # exactly the greedy packing scan
    rng = np.random.default_rng(424242)
    for _ in range(N_INSTANCES):
        c = random_cloud(rng)
        eps = float(rng.uniform(0.02, 0.4))
        thr = float(neighbor_collision_counts(c.points, eps).max()) + 1.0
        sel = fd.good_point_thinning(c.points, eps, threshold=thr)
        assert sel.size == fd.packing_number(c, eps)
        assert np.array_equal(sel, packing_indices(c, eps))


# ---------------------------------------------------------------------------
# sweeps and estimation


def test_scale_sweep_full_interval():
    pts = (np.arange(2**20) / 2**20)[:, None]
    series = fd.scale_sweep(PointCloud.from_points(pts), "box", 2, 6)
    assert np.array_equal(series.values, [4, 8, 16, 32, 64])
    assert np.all(np.diff(series.epsilons) < 0)


def test_scale_sweep_single_point():
    series = fd.scale_sweep(cloud([[0.3, 0.4]]), "box", 2, 6)
    assert np.all(series.values == 1)
    est = fd.estimate_dimension(series)
    assert est.ls_slope == 0.0 and est.lower == 0.0 and est.upper == 0.0


def test_scale_sweep_bm_graph_near_three_halves():
    grid = fd.TimeGrid.uniform(2**18 + 1)
    p = fd.generate_bm(grid, 1, 3)
    series = fd.scale_sweep(
        PointCloud.from_points(np.column_stack([grid.times, p.bm_values[:, 0]])), "box", 4, 10
    )
    ratios = series.values / 2.0 ** (1.5 * np.arange(4, 11))
    assert np.all(ratios < 4.0) and np.all(ratios > 0.25)


def test_estimate_dimension_exact_power_law():
    s = fd.ScaleSeries("box", 2.0 ** -np.arange(4, 7), np.array([16.0, 32.0, 64.0]))
    e = fd.estimate_dimension(s)
    assert e.lower == 1.0 and e.upper == 1.0
    assert abs(e.ls_slope - 1.0) < 1e-12 and e.residual < 1e-12
    s2 = fd.ScaleSeries("box", 2.0 ** -np.arange(4, 7), np.array([256.0, 1024.0, 4096.0]))
    assert abs(fd.estimate_dimension(s2).ls_slope - 2.0) < 1e-12


def test_estimate_dimension_mixed_series():
    s = fd.ScaleSeries("box", 2.0 ** -np.arange(4, 7), np.array([16.0, 45.0, 90.0]))
    e = fd.estimate_dimension(s)
    assert e.lower == 1.0
    assert abs(e.upper - np.log2(45 / 16)) < 1e-12
    assert e.lower <= e.ls_slope <= e.upper


def test_estimate_dimension_window_too_small():
    s = fd.ScaleSeries("box", 2.0 ** -np.arange(4, 7), np.array([16.0, 32.0, 64.0]))
    with pytest.raises(DomainError) as ei:
        fd.estimate_dimension(s, window=(4, 5))
    assert ei.value.code == "window-too-small"


def test_estimate_dimension_ls_between_extremes_random():
    rng = np.random.default_rng(31415)
    for _ in range(N_INSTANCES):
        k = int(rng.integers(3, 10))
        eps = 2.0 ** -np.arange(2, 2 + k).astype(float)
        vals = np.cumprod(np.concatenate([[8.0], rng.uniform(1.1, 4.0, k - 1)]))
        e = fd.estimate_dimension(fd.ScaleSeries("sausage_volume", eps, vals, {"ambient_dim": 0}))
        assert e.lower - 1e-12 <= e.ls_slope <= e.upper + 1e-12


def test_estimate_dimension_sausage_shift():
    # volumes shrinking like eps^(m - dim) with m=2, dim=1.5
    eps = 2.0 ** -np.arange(3, 9).astype(float)
    vals = eps**0.5
    series = fd.ScaleSeries("sausage_volume", eps, vals, {"ambient_dim": 2})
    e = fd.estimate_dimension(series)
    assert abs(e.ls_slope - 1.5) < 1e-12


def test_scale_series_validation_and_csv():
    with pytest.raises(ValueError):
        fd.ScaleSeries("box", np.array([0.25, 0.5]), np.array([4.0, 2.0]))
    with pytest.raises(ValueError):
        fd.ScaleSeries("box", np.array([0.5, 0.25]), np.array([4.5, 9.0]))
    s = fd.ScaleSeries("box", np.array([0.25, 0.125]), np.array([4.0, 8.0]))
    buf = io.StringIO()
    s.write_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "j,epsilon,value,kind"
    assert lines[1] == "2,0.25,4,box"


def test_dimension_estimate_json_fields():
    s = fd.ScaleSeries("box", 2.0 ** -np.arange(4, 8), np.array([16.0, 32.0, 64.0, 128.0]))
    d = json.loads(fd.estimate_dimension(s).to_json())
    assert set(d) == {"lower", "upper", "ls_slope", "residual", "window", "local_slopes"}
    assert d["window"] == [4, 7]


# ---------------------------------------------------------------------------
# exact step-graph counter


def test_step_graph_box_count_plain():
    # one segment strictly inside a box row: spans columns 0..2
    assert fd.step_graph_box_count([0.01, 0.55], [0.13], 0.2) == 3


def test_step_graph_box_count_lattice_contacts():
    # value exactly on a lattice line counts both rows; endpoints exactly on
    # column boundaries touch the adjacent columns
    assert fd.step_graph_box_count([0.0, 0.5], [0.2], 0.2) == 4 * 2
    assert fd.step_graph_box_count([0.0, 0.4], [0.1], 0.2) == 4


def test_step_graph_matches_box_count_off_lattice():
    # away from lattice alignment, the closed-box count of a dense sampling
    # equals the half-open count (no boundary contacts)
    rng = np.random.default_rng(8)
    lattice = np.arange(0.05, 0.95, 0.01)
    for _ in range(50):
        k = int(rng.integers(1, 8))
        # jitter exceeds the 2^-12 sample spacing so every column a segment
        # touches also carries one of its samples
        inner = np.sort(rng.choice(lattice, k, replace=False)) + rng.uniform(4e-4, 9e-4, k)
        breaks = np.concatenate([[0.0012], inner, [0.9988]])
        vals = rng.uniform(0.03, 0.97, k + 1) + 0.001234
        eps = 0.125
        ts = np.linspace(0, 1, 2**12 + 1)
        keep = (ts >= breaks[0]) & (ts <= breaks[-1])
        ts = ts[keep]
        idx = np.clip(np.searchsorted(breaks, ts, side="right") - 1, 0, k)
        sampled = cloud(np.column_stack([ts, vals[idx]]))
        assert fd.step_graph_box_count(breaks, vals, eps) == fd.box_count(sampled, eps)
