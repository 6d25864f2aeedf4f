"""Every kernel against an independent brute-force oracle (``oracles.py``),
exactly, on random 1-3-D inputs with duplicate points and on dyadic lattices
whose pairs sit exactly at the separation radius."""

import numpy as np
import pytest

import oracles
from fracdim import kernels


def _random_points(rng, n_max=120):
    m = int(rng.integers(1, 4))
    n = int(rng.integers(1, n_max))
    pts = rng.uniform(-1, 1, (n, m)) * rng.uniform(0.2, 5.0)
    # inject exact duplicates and near-boundary repeats
    if n > 4:
        pts[1] = pts[0]
        pts[3] = pts[2] + 2.0 * 0.1  # exactly on a keep/reject tie for eps=0.1 in 1-D
    return pts


def _lattice(m, side=6):
    """Points k/4 for k in [-side/2, side/2)^m, in a shuffled but fixed order."""
    axes = [np.arange(-side // 2, side // 2) / 4.0] * m
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, m)
    return grid[np.random.default_rng(m).permutation(len(grid))]


def test_active_backend_is_numpy():
    assert kernels.active_backend() == "numpy"


def test_greedy_pack_matches_oracle():
    rng = np.random.default_rng(1)
    for _ in range(150):
        pts = _random_points(rng)
        eps = float(rng.choice([0.1, rng.uniform(0.01, 0.5)]))
        assert np.array_equal(kernels.greedy_pack_mask(pts, eps),
                              oracles.brute_greedy_packing(pts, eps))


def test_neighbor_counts_match_oracle():
    rng = np.random.default_rng(2)
    for _ in range(150):
        pts = _random_points(rng)
        radius = float(rng.uniform(0.02, 1.0))
        assert np.array_equal(kernels.neighbor_counts(pts, radius),
                              oracles.brute_neighbor_counts(pts, radius))


def test_thin_select_matches_oracle():
    rng = np.random.default_rng(3)
    for _ in range(150):
        pts = _random_points(rng)
        radius = float(rng.uniform(0.02, 1.0))
        good = rng.random(len(pts)) < 0.7
        assert np.array_equal(kernels.thin_select_mask(pts, radius, good),
                              oracles.brute_greedy_thinning(pts, radius, good))


def test_greedy_pack_is_thinning_with_every_point_eligible():
    rng = np.random.default_rng(8)
    for _ in range(100):
        pts = _random_points(rng)
        eps = float(rng.uniform(0.01, 0.5))
        assert np.array_equal(kernels.greedy_pack_mask(pts, eps),
                              kernels.thin_select_mask(pts, 2 * eps, np.ones(len(pts), bool)))


def test_sausage_occupancy_matches_oracle():
    rng = np.random.default_rng(4)
    for _ in range(60):
        pts = _random_points(rng, n_max=30)
        spread = float(np.ptp(pts, axis=0).max()) or 1.0
        r = spread * float(rng.uniform(0.25, 0.5))
        cell = r / int(rng.integers(2, 4))
        assert kernels.sausage_occupied_count(pts, r, cell) == \
            oracles.brute_sausage_count(pts, r, cell)


def test_oscillation_matches_oracle():
    rng = np.random.default_rng(5)
    for _ in range(150):
        j = int(rng.integers(2, 10))
        n = int(rng.integers(0, j + 1))
        vals = rng.standard_normal(2**j + 1).cumsum()
        # dyadic walks: 2^n * (max - min) is often an exact integer, and
        # flat columns have no oscillation at all
        walk = rng.integers(-1, 2, 2**j + 1).cumsum() / 8.0
        for v in (vals, walk):
            assert kernels.oscillation_counts(v, n).tolist() == \
                oracles.brute_oscillation_counts(v, n)


def test_distinct_cell_count_matches_oracle():
    rng = np.random.default_rng(6)
    for _ in range(150):
        cells = rng.integers(-50, 50, (int(rng.integers(1, 400)), int(rng.integers(1, 4))))
        assert kernels.distinct_cell_count(cells) == oracles.brute_distinct_rows(cells)


def test_distinct_cell_count_beyond_packable_grid():
    # widths of about 2^40 per axis: packed keys would need 2^120
    far = 1 << 40
    cells = np.array([[0, 0, 0], [far, far, far], [0, 0, 0], [far, 0, far]])
    assert kernels.distinct_cell_count(cells) == oracles.brute_distinct_rows(cells) == 3


@pytest.mark.parametrize("m", [1, 2, 3])
def test_dyadic_lattice_ties_are_separated(m):
    # lattice spacing 1/4 = 2*eps exactly: d2 == sep2 for every neighbour pair
    pts = _lattice(m)
    eps = 1 / 8
    assert kernels.greedy_pack_mask(pts, eps).all()
    assert np.array_equal(kernels.greedy_pack_mask(pts, eps),
                          oracles.brute_greedy_packing(pts, eps))
    good = np.arange(len(pts)) % 3 != 0
    assert np.array_equal(kernels.thin_select_mask(pts, 2 * eps, good), good)
    assert not kernels.neighbor_counts(pts, 2 * eps).any()
    # at radius 1/2 (or 3/4) the pairs 1/2 (or 3/4) apart along an axis sit
    # exactly on the radius and are not neighbours
    for radius in (0.5, 0.75):
        assert np.array_equal(kernels.neighbor_counts(pts, radius),
                              oracles.brute_neighbor_counts(pts, radius))
        good = np.ones(len(pts), bool)
        assert np.array_equal(kernels.thin_select_mask(pts, radius, good),
                              oracles.brute_greedy_thinning(pts, radius, good))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_dyadic_lattice_sausage_ties_are_marked(m):
    # points k/2 + 1/8 on the centers of every other cell of side 1/4, with
    # r = 1/4: the centers of the axis neighbour cells sit at exactly
    # d2 == r*r and are marked
    pts = 2 * _lattice(m, side=4) + 0.125
    count = kernels.sausage_occupied_count(pts, 0.25, 0.25)
    assert count == oracles.brute_sausage_count(pts, 0.25, 0.25)
    # 4^m points, each marking its own cell and its 2m axis neighbours
    assert count == 4**m + m * 5 * 4 ** (m - 1)
