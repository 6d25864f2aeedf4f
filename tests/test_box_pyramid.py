"""Box sweeps (``scale_sweep(..., "box", ...)``, which halve the packed keys
of the distinct cells of each scale for the next coarser one) against the
brute-force box oracle and against ``box_count`` of a fresh cloud at every
scale, exactly."""

import numpy as np
import pytest

import fracdim as fd
from fracdim import kernels
from fracdim.metrics import PointCloud

from oracles import brute_box_cells, brute_box_count, decode_box_keys


def _check_sweep(pts, j_min, j_max):
    """The sweep's counts equal the oracle's and those of ``box_count`` from
    the points at every scale; returns them."""
    swept = fd.scale_sweep(PointCloud.from_points(pts), "box", j_min, j_max)
    swept = swept.values.astype(int).tolist()
    scales = [2.0**-j for j in range(j_min, j_max + 1)]
    assert swept == [brute_box_count(pts, eps) for eps in scales]
    assert swept == [fd.box_count(PointCloud.from_points(pts), eps) for eps in scales]
    return swept


def _random_cloud(rng):
    """1-3-D points of both signs, with exact duplicates and points on
    dyadic lattice lines."""
    m = int(rng.integers(1, 4))
    n = int(rng.integers(1, 80))
    pts = rng.uniform(-1, 1, (n, m)) * rng.uniform(0.1, 20.0)
    if n > 4:
        pts[1] = pts[0]
        pts[2] = np.round(pts[2] * 16) / 16
        pts[3] = -pts[2]
    return pts


def test_random_clouds_match_oracle():
    rng = np.random.default_rng(21)
    for _ in range(150):
        j_min = int(rng.integers(-4, 6))
        _check_sweep(_random_cloud(rng), j_min, j_min + int(rng.integers(1, 9)))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_points_on_lattice_lines(m):
    # every coordinate k * 2^-6 is on a box boundary at every j <= 6, and
    # goes to the box above it
    rng = np.random.default_rng(m)
    pts = rng.integers(-200, 200, (300, m)) / 64.0
    _check_sweep(pts, 0, 6)
    _check_sweep(pts, 3, 9)


def test_single_point():
    for pts in ([[0.3, -0.4]], [[-1.0]], [[0.0, 0.0, 0.0]]):
        assert _check_sweep(np.array(pts), -2, 5) == [1] * 8


def test_scales_at_and_above_one():
    rng = np.random.default_rng(22)
    pts = rng.uniform(-40, 40, (200, 2))
    _check_sweep(pts, -5, 0)
    _check_sweep(pts, -1, 2)
    # above eps = 1, x / eps of the least subnormal rounds to zero: -5e-324 / 2
    # is -0.0, in box 0 beside 5e-324, while -5e-324 / 1 is in box -1
    tiny = np.array([[-5e-324], [5e-324], [0.0]])
    assert _check_sweep(tiny, -2, 1) == [1, 1, 2, 2]


def test_two_scales():
    rng = np.random.default_rng(23)
    for j in (-3, 0, 4, 10):
        _check_sweep(_random_cloud(rng), j, j + 1)


def test_grid_too_large_to_pack_at_the_finest_scale_only():
    # about 2^40 cells of side 2^-20 per axis: the finest levels need 3 * 42
    # key bits and are counted from the points; from j = 0 up, 1e6 cells per
    # axis fit into 3 * 21 bits
    rng = np.random.default_rng(24)
    pts = np.concatenate([[[0.0, 0.0, 0.0], [1e6, 1e6, 1e6], [1e6, 0.0, 1e6]],
                          rng.uniform(0, 1e6, (40, 3))])
    assert kernels.box_keys(pts, 2.0**-20) is None
    assert kernels.box_keys(pts, 1.0) is not None
    _check_sweep(pts, -3, 20)


def test_cells_beyond_int64():
    # cells of 2^62 and more are float floors, counted from the points at
    # each scale until the cells fit into keys
    pts = np.array([[-1e18], [1e18], [1e300], [1e300], [3.0], [-1e300]])
    assert _check_sweep(pts, -8, 6)[-1] == 5
    assert _check_sweep(pts[:2], 0, 4) == [2] * 5


def test_each_scale_halves_the_distinct_cells_of_the_one_before(monkeypatch):
    # a sweep floors and sorts the keys of all n points at the finest scale
    # once, and then halves only the distinct keys of the scale before; each
    # scale's keys are sorted, distinct, and decode to the oracle's cells,
    # negative cells included
    sizes, found = [], []
    box_keys, coarser_keys = kernels.box_keys, kernels.coarser_keys

    def finest(points, eps):
        sizes.append(len(points))
        found.append(box_keys(points, eps))
        return found[-1]

    def halving(keys, layout):
        sizes.append(len(keys))
        found.append(coarser_keys(keys, layout))
        return found[-1]

    monkeypatch.setattr(kernels, "box_keys", finest)
    monkeypatch.setattr(kernels, "coarser_keys", halving)
    rng = np.random.default_rng(25)
    pts = rng.uniform(-1, 1, (2000, 2))
    counts = fd.scale_sweep(PointCloud.from_points(pts), "box", 2, 8).values.astype(int)
    assert sizes == [2000] + counts[:0:-1].tolist()
    for j, (keys, layout) in zip(range(8, 1, -1), found):
        assert keys.tolist() == sorted(set(keys.tolist()))
        cells = decode_box_keys(keys, layout)
        assert len(cells) == len(keys) and set(cells) == brute_box_cells(pts, 2.0**-j)
