"""Every kernel against an independent brute-force oracle (``oracles.py``),
exactly, on random 1-3-D inputs with duplicate points and on dyadic lattices
whose pairs sit exactly at the separation radius."""

import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

import oracles
from fracdim import kernels
from fracdim.errors import DomainError


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


def _sausage_inputs(rng):
    """(points, r, cell) triples for the sausage oracle tests.

    * random 1-3-D clouds with cell r/2 or r/3;
    * for each q in 2..16, a random cloud and a 1-D cloud with cell r/q;
    * for each q, points on cell centres with r = q cells.  With cells of
      side 1/8, every centre q cells away along an axis (or a 3-4-5 or
      5-12-13 diagonal) sits exactly at d2 == r*r, and the sqrt estimate of
      a run end lands on it.  With cells of side 1/10, which binary floats
      round, d2 lands within rounding of r*r, and the estimate of a run end
      is often one cell off.
    """
    for _ in range(60):
        pts = _random_points(rng, n_max=30)
        spread = float(np.ptp(pts, axis=0).max()) or 1.0
        r = spread * float(rng.uniform(0.25, 0.5))
        yield pts, r, r / int(rng.integers(2, 4))
    for q in range(2, 17):
        pts = _random_points(rng, n_max=30)
        line = rng.uniform(-2, 2, (int(rng.integers(1, 30)), 1))
        for cloud in (pts, line):
            spread = float(np.ptp(cloud, axis=0).max()) or 1.0
            r = spread * float(rng.uniform(0.1, 0.5))
            yield cloud, r, r / q
        for side in (8, 10):
            m = int(rng.integers(1, 4))
            centres = (rng.integers(-2 * q, 2 * q, (int(rng.integers(1, 12)), m)) + 0.5) / side
            yield centres, q / side, 1 / side


def test_sausage_occupancy_matches_oracle():
    rng = np.random.default_rng(4)
    for pts, r, cell in _sausage_inputs(rng):
        assert kernels.sausage_occupied_count(pts, r, cell) == \
            oracles.brute_sausage_count(pts, r, cell)
    # a point on a cell corner with r half a cell: the nearest centres are
    # sqrt(1/2) away, so no cell is marked
    assert kernels.sausage_occupied_count(np.zeros((1, 2)), 0.5, 1.0) == 0


def test_sausage_in_small_chunks_with_merges_matches_oracle(monkeypatch):
    # one or a few points a chunk, and the runs merged every few dozen
    monkeypatch.setattr(kernels, "_SAUSAGE_CHUNK", 40)
    monkeypatch.setattr(kernels, "_SAUSAGE_MERGE", 30)
    rng = np.random.default_rng(12)
    for pts, r, cell in itertools.islice(_sausage_inputs(rng), 0, None, 3):
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


def test_scans_on_a_grid_too_large_to_pack():
    # about 2^40 cells of side 2^-20 per axis: the cell tuples cannot be packed
    far = np.array([[0.0, 0.0, 0.0], [1e6, 1e6, 1e6]])
    assert kernels.greedy_pack_mask(far, 2.0**-20).tolist() == [True, True]
    assert kernels.neighbor_counts(far, 2.0**-20).tolist() == [0, 0]
    assert kernels.thin_select_mask(far, 2.0**-20, np.array([True, True])).tolist() == [True, True]


# Per ambient dimension, a cluster spacing that puts the grid of every radius
# used below past the 2^62 packable keys.  In 1-D that needs cell indices
# near the int64 limit, so the random inputs are 2-D and 3-D.
_FAR = {2: 1e10, 3: 1e7}


def _far_clusters(rng, radius):
    """Clusters of points a few radii wide around far-apart centres, with
    exact duplicates, on a grid too large to pack."""
    m = int(rng.integers(2, 4))
    centres = rng.integers(-3, 4, (int(rng.integers(2, 5)), m)) * _FAR[m]
    centres[:2] = [[-3 * _FAR[m]] * m, [3 * _FAR[m]] * m]
    n = int(rng.integers(3, 60))
    which = rng.integers(0, len(centres), n)
    which[:3] = [0, 0, 1]
    pts = centres[which] + rng.uniform(-3, 3, (n, m)) * radius
    pts[1] = pts[0]
    with pytest.raises(DomainError):
        kernels.pack_cells(kernels.cell_indices(pts, radius))
    return pts


def test_scans_on_far_apart_clusters_match_oracles():
    rng = np.random.default_rng(9)
    for _ in range(60):
        radius = float(rng.uniform(0.02, 1.0))
        pts = _far_clusters(rng, radius)
        good = rng.random(len(pts)) < 0.7
        assert np.array_equal(kernels.greedy_pack_mask(pts, radius / 2),
                              oracles.brute_greedy_packing(pts, radius / 2))
        assert np.array_equal(kernels.neighbor_counts(pts, radius),
                              oracles.brute_neighbor_counts(pts, radius))
        assert np.array_equal(kernels.thin_select_mask(pts, radius, good),
                              oracles.brute_greedy_thinning(pts, radius, good))


def _split_clusters(rng, radius):
    """Four clusters of points about six radii wide, with exact duplicates,
    around corners of a far-apart square or cube."""
    m = int(rng.integers(2, 4))
    corners = np.array(list(itertools.product((-3, 3), repeat=m)))
    centres = corners[rng.permutation(len(corners))[:4]] * _FAR[m]
    clusters = []
    for centre in centres:
        c = centre + rng.uniform(-3, 3, (int(rng.integers(4, 16)), m)) * radius
        c[1] = c[0]
        c[2:4] = centre + np.array([[2.9], [-2.9]]) * radius
        clusters.append(c)
    return clusters


# Key limits, per ambient dimension, that one cluster of ``_split_clusters``
# stays below and four clusters pass even compacted: with cells of side
# ``radius`` for the scans (a cluster is at most 7 cells wide, four at least
# 6 + 2 + 6 on two axes) and of side ``radius / 2`` for the sausage (at most
# 13 + 2 * 3 margin, at least 12 + 7 + 12 + 6 on two axes)
_SCAN_LIMIT = {2: 128, 3: 512}
_SAUSAGE_LIMIT = {2: 1024, 3: 1 << 14}


def test_scans_on_clusters_split_into_groups_match_oracles(monkeypatch):
    cuts = []
    halves = kernels._halves

    def recording(*args):
        cuts.append(args)
        return halves(*args)

    monkeypatch.setattr(kernels, "_halves", recording)
    rng = np.random.default_rng(13)
    for _ in range(30):
        radius = float(rng.uniform(0.02, 1.0))
        clusters = _split_clusters(rng, radius)
        pts = np.concatenate(clusters)
        m = pts.shape[1]
        good = rng.random(len(pts)) < 0.7
        monkeypatch.setattr(kernels, "_KEY_LIMIT", _SCAN_LIMIT[m])
        before = len(cuts)
        assert np.array_equal(kernels.greedy_pack_mask(pts, radius / 2),
                              oracles.brute_greedy_packing(pts, radius / 2))
        assert np.array_equal(kernels.neighbor_counts(pts, radius),
                              oracles.brute_neighbor_counts(pts, radius))
        assert np.array_equal(kernels.thin_select_mask(pts, radius, good),
                              oracles.brute_greedy_thinning(pts, radius, good))
        assert len(cuts) - before >= 3
        monkeypatch.setattr(kernels, "_KEY_LIMIT", _SAUSAGE_LIMIT[m])
        before = len(cuts)
        assert kernels.sausage_occupied_count(pts, radius, radius / 2) == \
            sum(oracles.brute_sausage_count(c, radius, radius / 2) for c in clusters)
        assert len(cuts) > before


def test_scans_on_cells_beyond_int64_match_oracles():
    # cells of 2^62 and more stay float floors, which the compaction turns
    # into small int64 offsets; the sausage refuses them
    for pts in ([[0.0], [1e300], [1e300], [-1e18], [1e18], [-1e300]],
                [[0.0, 1e300], [0.01, 1e300], [-1e18, 0.0], [1e18, 0.05], [1e18, 0.0]]):
        pts = np.array(pts)
        assert np.array_equal(kernels.greedy_pack_mask(pts, 2.0**-4),
                              oracles.brute_greedy_packing(pts, 2.0**-4))
        assert np.array_equal(kernels.neighbor_counts(pts, 0.125),
                              oracles.brute_neighbor_counts(pts, 0.125))
        good = np.arange(len(pts)) % 2 == 0
        assert np.array_equal(kernels.thin_select_mask(pts, 0.125, good),
                              oracles.brute_greedy_thinning(pts, 0.125, good))
        with pytest.raises(DomainError) as ei:
            kernels.sausage_occupied_count(pts, 0.125, 2.0**-5)
        assert ei.value.code == "cell-grid-too-large"


def test_sausage_past_the_compacted_grid():
    # 240000 points, each alone in a window of 7 cells per axis, on a grid of
    # 2^41 cells per axis: even compacted, 7 * 240000 cells per axis cannot be
    # packed, and the grid is cut into groups.  Every point sits on a cell
    # centre, so each one marks as many cells as the first; the clusters are
    # counted by the oracle.
    rng = np.random.default_rng(14)
    cell = 2.0**-21
    r = 2 * cell
    lone = (rng.integers(0, 1 << 41, (240_000, 3)) + 0.5) * cell
    with pytest.raises(DomainError):
        kernels.pack_cells(kernels._compact(kernels.cell_indices(lone, cell), 6), 3)
    clusters = [c + rng.uniform(-4, 4, (int(rng.integers(2, 8)), 3)) * cell
                for c in ([0.0, 0.0, 0.0], [1e6, 0.0, 1e6], [0.5e6, 1e6, 0.0])]
    per_point = oracles.brute_sausage_count(lone[:1], r, cell)
    assert kernels.sausage_occupied_count(np.concatenate([lone] + clusters), r, cell) == \
        len(lone) * per_point + sum(oracles.brute_sausage_count(c, r, cell) for c in clusters)


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


def test_sausage_on_a_grid_too_large_to_pack():
    # about 2^42 cells of side 2^-22 per axis: the cell tuples cannot be packed
    far = np.array([[0.0, 0.0, 0.0], [1e6, 1e6, 1e6]])
    one = kernels.sausage_occupied_count(far[:1], 2.0**-20, 2.0**-22)
    assert kernels.sausage_occupied_count(far, 2.0**-20, 2.0**-22) == 2 * one
    # clusters far apart on a grid too large to pack add up, cluster by cluster
    rng = np.random.default_rng(10)
    for m, spacing in _FAR.items():
        centres = np.array([[-3.0] * m, [3.0] * m, [3.0] + [-3.0] * (m - 1)]) * spacing
        clusters = [c + rng.uniform(-1, 1, (int(rng.integers(1, 20)), m)) for c in centres]
        r = float(rng.uniform(0.2, 0.5))
        pts = np.concatenate(clusters)
        with pytest.raises(DomainError):
            kernels.pack_cells(kernels.cell_indices(pts, r / 4))
        assert kernels.sausage_occupied_count(pts, r, r / 4) == \
            sum(kernels.sausage_occupied_count(c, r, r / 4) for c in clusters)


def test_sausage_too_fine_raises_before_allocating():
    tracemalloc.start()
    try:
        started = time.perf_counter()
        with pytest.raises(DomainError) as ei:
            # 2 * 10^6 + 5 rows of cells a point
            kernels.sausage_occupied_count(np.zeros((3, 2)), 1.0, 1e-6)
        elapsed = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ei.value.code == "sausage-too-fine"
    assert elapsed < 1.0 and peak < 1 << 20
    # refine = 64 stays within the cap in every supported dimension
    for m in (1, 2, 3):
        count = kernels.sausage_occupied_count(np.zeros((1, m)), 1.0, 1 / 64)
        ball = math.pi ** (m / 2) / math.gamma(m / 2 + 1)
        assert abs(count / 64**m - ball) < 0.03 * ball
