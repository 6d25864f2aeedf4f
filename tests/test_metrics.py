"""Counting operations: exact examples, brute-force cross-checks, and the
randomized property suites (1000 instances each, fixed seeds)."""

import io
import json
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import fracdim as fd
from fracdim import kernels
from fracdim.errors import DomainError
from fracdim.metrics import (
    PointCloud,
    bm_graph_cloud,
    bm_image_cloud,
    boxes_per_center,
    drift_graph_cloud,
    drift_image_cloud,
    packing_indices,
    packing_per_box,
)

from oracles import (
    all_maximal_separated_subsets,
    brute_box_count,
    brute_closed_step_boxes,
    brute_max_packing,
    brute_neighbor_counts,
    brute_oscillation_counts,
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
                 lambda: fd.good_point_thinning(pts, 0.1)):
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


def test_oscillation_counts_below_2_63_are_exact():
    # the counts are integers, exact below 2^63 (6e18 + 1 is no double); at
    # n = 2, two columns of 1.2e19 once wrapped to INT64_MIN each and
    # cancelled out, for a count of 2
    vals = np.array([0, 3e18, 0, 3e18, 0, 0, 0, 0, 0])
    assert fd.graph_box_count_oscillation(vals, 0) == 3 * 10**18
    assert fd.graph_box_count_oscillation(vals, 1) == 6 * 10**18 + 1
    with pytest.raises(DomainError) as ei:
        fd.graph_box_count_oscillation(vals, 2)
    assert ei.value.code == "cell-grid-too-large"
    # a span past the largest double is refused, with no overflow warning
    with pytest.raises(DomainError) as ei:
        fd.graph_box_count_oscillation([1e308, -1e308, 0, 0, 0], 1)
    assert ei.value.code == "cell-grid-too-large"


def test_an_oscillation_sweep_refuses_a_total_past_int64():
    # each of the 2^j columns counts about 3e16 rows: 7.68e18 at j = 8, past
    # 2^62 and exact, and 1.536e19 at j = 9, which int64 cannot hold
    path = fd.apply_drift(fd.generate_bm(fd.TimeGrid.uniform(1025), 1, 1),
                          fd.DriftSpec.linear([3e16]))
    values = path.combined[:, 0]
    exact = sum(brute_oscillation_counts(values, 8))
    assert 2**62 < exact < 2**63
    assert fd.graph_box_count_oscillation(values, 8) == exact
    series = fd.scale_sweep(fd.graph_cloud(path), "oscillation", 3, 8)
    assert series.values[-1] == float(exact)
    assert sum(brute_oscillation_counts(values, 9)) >= 2**63
    with pytest.raises(DomainError) as ei:
        fd.scale_sweep(fd.graph_cloud(path), "oscillation", 3, 9)
    assert ei.value.code == "cell-grid-too-large" and ei.value.detail.startswith("j = 9: ")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_oscillation_of_a_value_that_is_not_finite_is_refused(bad):
    # a NaN once cast to INT64_MIN: a count of -9223372036854775807
    with pytest.raises(DomainError) as ei:
        fd.graph_box_count_oscillation([0, bad, 0, 0, 0], 1)
    assert ei.value.code == "non-finite-point"


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


def test_sausage_with_no_marked_cell_is_zero_whatever_the_cell():
    # the nearest cell centre is 5e199 away; the cell area would overflow
    assert fd.sausage_volume(cloud([[0.1, 0.2]]), 1.0, cell=1e200) == 0.0


def test_sausage_volume_past_the_largest_double_is_refused():
    # r * r is a normal double, but the cell volume (r / 4)^3 is not
    with pytest.raises(DomainError) as ei:
        fd.sausage_volume(cloud(np.zeros((3, 3))), 1e120)
    assert ei.value.code == "bad-scale"
    assert "1e+120" in str(ei.value) and "2.5e+119" in str(ei.value)


def test_sausage_volume_that_underflows_to_zero_is_refused():
    # 280 cells are marked (r * r is a normal double), but (r / 4)^3 is 0.0
    assert kernels.sausage_occupied_count(np.zeros((1, 3)), 1e-150, 2.5e-151) == 280
    with pytest.raises(DomainError) as ei:
        fd.sausage_volume(cloud(np.zeros((1, 3))), 1e-150)
    assert ei.value.code == "bad-scale"
    assert "1e-150" in str(ei.value) and "2.5e-151" in str(ei.value)


def test_sausage_sweep_to_a_subnormal_volume_is_refused():
    # at j = 342 the volume is about 6e-309, below the smallest normal double;
    # j = 339 still has a normal one
    assert fd.scale_sweep(cloud(np.zeros((2, 3))), "sausage_volume", 336, 339).values.min() > 0
    with pytest.raises(DomainError) as ei:
        fd.scale_sweep(cloud(np.zeros((2, 3))), "sausage_volume", 340, 343)
    assert ei.value.code == "bad-scale"


def test_sausage_volume_from_a_subnormal_cell_volume_is_refused():
    # 1003402 cells are marked and their volume would be a normal double,
    # but the cell volume 3.3e-105^3 is subnormal: count times it read
    # 3.605925767348035e-308, 1.4e-11 off the exact 3.6059257674e-308
    cell = 3.3e-105
    pts = np.random.default_rng(0).uniform(0, 200 * cell, (4000, 3))
    assert kernels.sausage_occupied_count(pts, 1.32e-104, cell) == 1003402
    with pytest.raises(DomainError) as ei:
        fd.sausage_volume(cloud(pts), 1.32e-104, cell=cell)
    assert ei.value.code == "bad-scale"
    assert "3.3e-105" in str(ei.value)


@pytest.mark.usefixtures("checked_union")
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


@pytest.mark.parametrize("entry", [PointCloud.from_points,
                                   lambda a: fd.good_point_thinning(a, 0.1)])
def test_clouds_leave_the_callers_array_writeable(entry):
    points = np.random.default_rng(0).random((50, 2))
    entry(points)
    points[0, 0] = 1.0
    assert points[0, 0] == 1.0


def test_a_cloud_keeps_its_points_apart_from_the_callers():
    points = np.random.default_rng(0).random((50, 2))
    c = PointCloud.from_points(points)
    points[0, 0] = 2.0
    assert not any(np.shares_memory(col, points) for col in c.columns)
    assert c.points[0, 0] < 1.0 and not c.points.flags.writeable
    assert c.columns[0][0] < 1.0 and not any(col.flags.writeable for col in c.columns)
    # read-only values, such as a path's, are kept without a copy, as views
    # of their columns
    path = fd.generate_bm(fd.TimeGrid.uniform(9), 2, 0)
    kept = PointCloud.from_points(path.bm_values)
    assert all(np.shares_memory(col, path.bm_values) for col in kept.columns)


def test_a_graph_cloud_shares_the_grid_times_and_the_value_columns():
    grid = fd.TimeGrid.uniform(257)
    path = fd.apply_drift(fd.generate_bm(grid, 2, 4), fd.DriftSpec.linear([1.0, -1.0]))
    for build, values in ((bm_graph_cloud, path.bm_values),
                          (drift_graph_cloud, path.drift_values),
                          (fd.graph_cloud, path.combined)):
        cloud = build(path)
        assert cloud.columns[0] is grid.times
        assert all(np.shares_memory(col, values) for col in cloud.columns[1:])
        assert cloud.bounds == tuple((col.min(), col.max()) for col in cloud.columns)
        # ``points`` is a fresh read-only stack of the columns on each read,
        # which the cloud does not keep
        assert np.array_equal(cloud.points, np.hstack([grid.times[:, None], values]))
        assert not cloud.points.flags.writeable and cloud.points is not cloud.points
        assert not np.shares_memory(cloud.points, values)
        assert set(vars(cloud)) == {"columns", "bounds"}
    # the image and the graph of the sum share one array of noise plus drift
    image, graph = fd.image_cloud(path), fd.graph_cloud(path)
    assert all(np.shares_memory(col, path.combined) for col in image.columns)
    assert all(np.shares_memory(col, path.combined) for col in graph.columns[1:])
    assert np.array_equal(image.points, path.combined) and image.points is not path.combined
    assert set(vars(image)) == {"columns", "bounds"}


def test_clouds_of_a_callers_path_freeze_none_of_its_arrays():
    rng = np.random.default_rng(1)
    times, noise, drift = np.linspace(0.0, 1.0, 65), rng.random((65, 2)), rng.random((65, 2))
    path = fd.SamplePath(fd.TimeGrid(times), 2, noise, drift, 0, "file")
    builders = (fd.image_cloud, fd.graph_cloud, bm_image_cloud, bm_graph_cloud,
                drift_image_cloud, drift_graph_cloud)
    counts = [fd.scale_sweep(build(path), "box", 1, 4).values.tolist() for build in builders]
    for arr in (times, noise, drift):
        assert arr.flags.writeable
        arr[:] = 0.5
    assert counts == [fd.scale_sweep(build(path), "box", 1, 4).values.tolist()
                      for build in builders]


def test_thinning_examples():
    spread = np.arange(5, dtype=float)[:, None]  # pairwise >= 2*eps for eps=0.5
    assert np.array_equal(fd.good_point_thinning(spread, 0.5, threshold=1), np.arange(5))
    same = np.zeros((5, 1))
    assert np.array_equal(fd.good_point_thinning(same, 0.1, threshold=10), [0])
    y = np.array([[0.0], [0.1], [0.5], [0.6], [2.0]])
    assert np.array_equal(kernels.neighbor_counts(y, 2 * 0.1), [1, 1, 1, 1, 0])
    sel = fd.good_point_thinning(y, 0.1, threshold=2)
    assert np.array_equal(sel, [0, 2, 4])
    # the selection is one of the maximal separated subsets
    assert tuple(sel) in all_maximal_separated_subsets(y, 0.1)


def test_thinning_errors():
    with pytest.raises(DomainError) as ei:
        fd.good_point_thinning(np.zeros((3, 1)), -1.0)
    assert ei.value.code == "bad-scale"


def test_thinning_refuses_an_empty_cloud():
    for empty in ([], [[]], np.zeros((0, 2))):
        with pytest.raises(DomainError) as ei:
            fd.good_point_thinning(empty, 0.1)
        assert ei.value.code == "empty-cloud"


def test_points_of_more_than_two_dimensions_are_a_bad_shape():
    for call in (PointCloud.from_points,
                 lambda pts: fd.good_point_thinning(pts, 0.1)):
        for pts in (np.zeros((2, 2, 2)), np.zeros((0, 2, 2)), [[[0.0]]]):
            with pytest.raises(DomainError) as ei:
                call(pts)
            assert ei.value.code == "bad-shape"
            assert str(np.shape(pts)) in str(ei.value)
        # no rows or no columns is still an empty cloud
        for pts in ([], np.zeros((0, 3)), np.zeros((3, 0))):
            with pytest.raises(DomainError) as ei:
                call(pts)
            assert ei.value.code == "empty-cloud"


def test_default_thinning_threshold_refuses_eps_of_one_or_more():
    # 2 * ln(1/eps)^(d+1) is 0 at eps = 1 and meaningless beyond: at eps = 2
    # it read 0.96 in 1-D and -0.67 in 2-D
    for pts, eps in (([[0.0], [0.5]], 1.0), ([[0.0], [0.5]], 2.0),
                     ([[0.0, 0.0], [0.5, 0.0]], 2.0), ([[0.0]], math.inf)):
        with pytest.raises(DomainError) as ei:
            fd.good_point_thinning(pts, eps)
        assert ei.value.code == "bad-scale"
        assert repr(eps) in str(ei.value) and "eps < 1" in str(ei.value)
    # a threshold given works at any eps
    assert fd.good_point_thinning([[0.0], [0.5]], 1.0, threshold=2).tolist() == [0]
    assert fd.good_point_thinning([[0.0], [0.5]], 2.0, threshold=1).tolist() == []
    assert fd.good_point_thinning([[0.0, 0.0], [5.0, 0.0]], 2.0, threshold=0.5).tolist() == [0, 1]
    # below 1 the default holds: 2 * ln(10)^2 = 10.6
    assert fd.good_point_thinning([[0.0], [0.5]], 0.1).tolist() == [0, 1]


def test_default_thinning_threshold_past_the_largest_double_is_infinite():
    # 2 * ln(1024)^401 overflows: every count is below it, so both
    # coincident points are good and the first is selected
    assert fd.good_point_thinning(np.zeros((2, 400)), 2.0**-10).tolist() == [0]


def test_default_thinning_threshold_that_underflows_is_a_bad_scale():
    # ln(1/eps) is 2.2e-16 here, and its 41st power underflows to 0
    eps = 1 - 2.0**-52
    with pytest.raises(DomainError) as ei:
        fd.good_point_thinning(np.zeros((2, 40)), eps)
    assert ei.value.code == "bad-scale"
    assert repr(eps) in str(ei.value) and "40-D" in str(ei.value)


def test_collision_counts_match_brute_force():
    rng = np.random.default_rng(13)
    for _ in range(300):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 40))
        pts = rng.uniform(-1, 1, (n, m))
        eps = float(rng.uniform(0.02, 0.5))
        got = kernels.neighbor_counts(pts, 2 * eps)
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
        n_good = int((kernels.neighbor_counts(pts, 2 * eps) < thr).sum())
        assert sel.size >= n_good / (thr + 1)


def test_thinning_equals_greedy_when_all_points_good():
    # with an above-envelope threshold every point is good and the scan is
    # exactly the greedy packing scan
    rng = np.random.default_rng(424242)
    for _ in range(N_INSTANCES):
        c = random_cloud(rng)
        eps = float(rng.uniform(0.02, 0.4))
        thr = float(kernels.neighbor_counts(c.points, 2 * eps).max()) + 1.0
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


@pytest.mark.parametrize("j_min, j_max", [(-1100, 0), (-1024, 0), (0, 1075)])
def test_scale_sweep_window_beyond_the_doubles_is_bad_scale(j_min, j_max):
    with pytest.raises(DomainError) as ei:
        fd.scale_sweep(cloud([[0.3, 0.4]]), "box", j_min, j_max)
    assert ei.value.code == "bad-scale"
    # the coarsest window that is still valid sweeps without a warning
    assert np.all(fd.scale_sweep(cloud([[0.3, 0.4]]), "box", -1023, -1020).values == 1)


def test_a_box_sweep_refuses_cells_for_more_or_fewer_scales():
    c = cloud([[0.3], [0.6]])
    assert np.array_equal(fd.scale_sweep(c, "box", 2, 4, cells=[None] * 3).values, [2, 2, 2])
    for cells in ([None] * 2, [None] * 4):
        with pytest.raises(ValueError, match="zip"):
            fd.scale_sweep(c, "box", 2, 4, cells=cells)


def test_a_sweep_error_names_its_scale():
    # in 3-D, r/cell = 1000 asks for over MAX_SAUSAGE_ROWS rows of cells a point
    solid = cloud([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
    with pytest.raises(DomainError) as ei:
        fd.scale_sweep(solid, "sausage_volume", 3, 6, refine=1000)
    assert ei.value.code == "sausage-too-fine"
    assert ei.value.detail.startswith("j = 3: r/cell = 1000 in 3-D: ")
    with pytest.raises(ValueError) as ei:
        fd.scale_sweep(solid, "sausage_volume", 3, 6, refine=1)
    assert type(ei.value) is ValueError and str(ei.value) == "j = 3: refine must be >= 2"
    # errors raised before any scale keep their text: the window, and the
    # oscillation's premise
    with pytest.raises(ValueError) as ei:
        fd.scale_sweep(solid, "box", 6, 3)
    assert str(ei.value) == "scales [6, 3] need j_min < j_max"
    with pytest.raises(DomainError) as ei:
        fd.scale_sweep(solid, "oscillation", 3, 6)
    assert ei.value.detail == "oscillation needs a 1-D graph cloud"


def _bad_scale(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as ei:
            call()
    return ei.value.code == "bad-scale"


def test_distance_tests_refuse_a_radius_whose_square_is_not_a_normal_double():
    # (2 * 2^-540)^2 underflows to 0: the duplicate pair would be 0 apart
    # and not closer than 0, so the packing (3) broke the sandwich with
    # box_count (1)
    c = cloud([[0.0], [0.0], [1e-170]])
    assert fd.box_count(c, 2.0**-540) == 1
    assert _bad_scale(lambda: fd.packing_number(c, 2.0**-540))
    # j = 538: the square of 2^-537 is subnormal
    assert _bad_scale(lambda: fd.scale_sweep(c, "packing", 530, 545))
    assert _bad_scale(lambda: fd.scale_sweep(c, "packing", 538, 540))
    assert _bad_scale(lambda: fd.good_point_thinning([[0.0], [0.0], [1.0]], 2.0**-540, 1.0))
    # a point and r = 4 cells mark 8 cells, unless r * r underflows
    one = np.zeros((1, 1))
    assert _bad_scale(lambda: kernels.sausage_occupied_count(one, 4 * 2.0**-540, 2.0**-540))
    # 2 * 2^1023 overflows, and so would the squared distance 1e400
    assert _bad_scale(lambda: fd.packing_number(cloud([[0.0], [1e200]]), 2.0**1023))
    # j = 500 keeps a normal square
    assert fd.packing_number(c, 2.0**-500) == 1
    assert np.array_equal(fd.scale_sweep(c, "packing", 498, 501).values, [1, 1, 1, 1])
    assert kernels.neighbor_counts(np.asarray([[0.0], [0.0], [1.0]]),
                                   2 * 2.0**-500).tolist() == [1, 1, 0]
    for j in (20, 500):
        assert kernels.sausage_occupied_count(one, 4 * 2.0**-j, 2.0**-j) == 8


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
    # eps = 1 is j = 0, written without the sign of -log2(1) = -0.0
    buf = io.StringIO()
    fd.ScaleSeries("box", np.array([1.0, 0.5]), np.array([3.0, 7.0])).write_csv(buf)
    assert buf.getvalue().splitlines()[1:] == ["0,1,3,box", "1,0.5,7,box"]


_BAD_SCALES = "scales must be positive, finite and strictly decreasing"
_BAD_VALUES = "measurements must be positive and finite"


@pytest.mark.parametrize("kind, eps, values, message", [
    # once written as -inf,inf,1,box, with a bare OverflowError on estimating
    ("box", [np.inf, 1, 0.5], [1, 2, 4], _BAD_SCALES),
    ("box", [1, np.nan, 0.25], [1, 2, 4], _BAD_SCALES),
    # once estimated with ls_slope = nan
    ("sausage_volume", [1, 0.5, 0.25], [np.inf, 1, 2], _BAD_VALUES),
    # once refused as no integer count
    ("box", [1, 0.5, 0.25], [np.nan, 2, 4], _BAD_VALUES),
    ("volume", [1, 0.5, 0.25], [1, 2, 4], "unknown series kind 'volume'"),
])
def test_a_series_refuses_what_is_not_finite_and_unknown_kinds(kind, eps, values, message):
    with pytest.raises(ValueError) as ei:
        fd.ScaleSeries(kind, np.array(eps, dtype=float), np.array(values, dtype=float),
                       {"ambient_dim": 2})
    assert type(ei.value) is ValueError and str(ei.value) == message


@pytest.mark.parametrize("refused, error, code", [
    pytest.param(lambda: fd.ScaleSeries("box", np.array([0.5, 0.25]), np.array([4.0])),
                 ValueError, None, id="series-lengths-differ"),
    pytest.param(lambda: fd.ScaleSeries("box", np.array([0.5, 0.25]), np.array([0.0, 4.0])),
                 ValueError, None, id="series-value-not-positive"),
    pytest.param(lambda: fd.sausage_volume(cloud([[0.5]]), 0.25, refine=1), ValueError, None,
                 id="sausage-refine-below-2"),
    pytest.param(lambda: fd.good_point_thinning([[0.0], [1.0]], 0.25, threshold=0), ValueError,
                 None, id="thinning-threshold-not-positive"),
    pytest.param(lambda: fd.scale_sweep(cloud([[0.5]]), "volume", 2, 6), ValueError, None,
                 id="sweep-of-an-unknown-kind"),
    pytest.param(lambda: fd.scale_sweep(cloud([[0.5]]), "oscillation", 2, 6), DomainError,
                 "not-dyadic-grid", id="oscillation-of-a-cloud-not-2-d"),
    pytest.param(lambda: fd.estimate_dimension(fd.ScaleSeries(
        "sausage_volume", 2.0 ** -np.arange(4, 7), np.array([0.5, 0.25, 0.125]))), ValueError,
        None, id="sausage-series-without-ambient-dim"),
])
def test_malformed_series_and_counts_are_refused(refused, error, code):
    with pytest.raises(error) as ei:
        refused()
    assert type(ei.value) is error and getattr(ei.value, "code", None) == code


def test_dimension_estimate_json_fields():
    s = fd.ScaleSeries("box", 2.0 ** -np.arange(4, 8), np.array([16.0, 32.0, 64.0, 128.0]))
    d = json.loads(fd.estimate_dimension(s).to_json())
    assert set(d) == {"lower", "upper", "ls_slope", "residual", "window", "local_slopes"}
    assert d["window"] == [4, 7]


# ---------------------------------------------------------------------------
# exact step-graph counter


@pytest.mark.usefixtures("checked_union")
def test_step_graph_box_count_plain():
    # one segment strictly inside a box row: spans columns 0..2
    assert fd.step_graph_box_count([0.01, 0.55], [0.13], 0.2) == 3


def test_step_graph_box_count_of_no_steps_is_zero():
    assert fd.step_graph_box_count([0.5], [], 0.2) == 0


@pytest.mark.usefixtures("checked_union")
def test_step_graph_box_count_lattice_contacts():
    # value exactly on a lattice line counts both rows; endpoints exactly on
    # column boundaries touch the adjacent columns
    assert fd.step_graph_box_count([0.0, 0.5], [0.2], 0.2) == 4 * 2
    assert fd.step_graph_box_count([0.0, 0.4], [0.1], 0.2) == 4


@pytest.mark.usefixtures("checked_union")
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


@pytest.mark.usefixtures("checked_union")
def test_step_graph_box_count_matches_closed_box_oracle():
    # rows 2^31 and 0 of neighbouring columns are distinct boxes: 12 + 12
    e = 2.0**-32
    assert fd.step_graph_box_count([0, 4 * e, 8 * e], [0.5, 0.0], e) == 24
    assert len(brute_closed_step_boxes([0, 4 * e, 8 * e], [0.5, 0.0], e)) == 24
    rng = np.random.default_rng(11)
    seen = set()
    for _ in range(400):
        eps = float(rng.choice([2.0**-32, 0.125, 0.2, 1 / 3]))
        # large cell indices only at dyadic scales, where ends stay exact
        big = eps in (2.0**-32, 0.125)
        col0 = int(rng.choice([0, -9, 2**31 - 4, 2**33] if big else [0, -9]))
        row0 = int(rng.choice([0, -6, 2**31 - 2, -2**31 - 1] if big else [0, -6]))
        k = int(rng.integers(1, 6))

        def frac(size):
            # on a lattice line, on a quarter line or anywhere in the cell
            return np.where(rng.random(size) < 0.6, rng.integers(0, 4, size) / 4,
                            rng.uniform(0, 1, size))

        cols = col0 + np.sort(rng.integers(0, 12, k + 1) + frac(k + 1))
        rows = row0 + rng.integers(-3, 4, k) + frac(k)
        breaks, values = cols * eps, rows * eps
        expected = len(brute_closed_step_boxes(breaks, values, eps))
        assert fd.step_graph_box_count(breaks, values, eps) == expected
        seen |= {"contact"} if np.any(rows == np.round(rows)) else set()
        seen |= {"negative"} if np.any(rows < 0) else set()
        seen |= {"row >= 2^31"} if np.any(rows >= 2**31) else set()
    assert seen == {"contact", "negative", "row >= 2^31"}


@pytest.mark.usefixtures("checked_union")
def test_step_graph_box_count_cost_does_not_grow_with_one_over_eps():
    breaks, values = fd.staircase_steps(256)
    for j in (22, 40):
        tracemalloc.start()
        try:
            started = time.perf_counter()
            count = fd.step_graph_box_count(breaks, values, 2.0**-j)
            elapsed = time.perf_counter() - started
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the graph spans 2^j columns
        assert count > 2**j
        assert elapsed < 1.0 and peak < 4 << 20


@pytest.mark.parametrize("breaks, values, eps, code", [
    # breaks / eps overflows to infinity
    ([0.0, 1.0], [0.5], 5e-324, "non-finite-cell"),
    ([0.0, np.nan], [0.5], 0.1, "non-finite-cell"),
    ([0.0, 1.0], [np.inf], 0.1, "non-finite-cell"),
    ([0.0, 1.0], [0.5], 2.0**-62, "cell-grid-too-large"),
    # two rows of keys 2^61 + 4 wide reach 2^62
    ([0.0, 2.0**61], [1.0], 1.0, "cell-grid-too-large"),
])
def test_step_graph_box_count_refuses_grids_it_cannot_index(breaks, values, eps, code):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as ei:
            fd.step_graph_box_count(breaks, values, eps)
    assert ei.value.code == code


def test_step_graph_box_count_refuses_decreasing_breaks():
    # a segment running backwards inside one column is no step graph
    with pytest.raises(ValueError, match="non-decreasing breaks"):
        fd.step_graph_box_count([0.55, 0.5], [0.1], 0.1)


def test_step_graph_box_count_staircase_refuses_the_smallest_scale():
    tracemalloc.start()
    try:
        with pytest.raises(DomainError) as ei:
            fd.step_graph_box_count(*fd.staircase_steps(256), 5e-324)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ei.value.code == "non-finite-cell"
    assert peak < 1 << 20
