"""Every kernel against an independent brute-force oracle (``oracles.py``),
exactly, on random 1-3-D inputs with duplicate points and on dyadic lattices
whose pairs sit exactly at the separation radius."""

import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

import fracdim as fd
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


# (radius, q): the pair (0, 0), q is close, d2 < radius * radius, though
# sqrt(d2) rounds to radius or above
_CLOSE_BY_THE_SQUARE = (
    (0.14270128027469312, (-0.11706617693999215, 0.08160371075319411)),
    (0.752861025903752, (-0.14297094706411576, 0.7391610329423757)),
    (0.5970116079232411, (-0.037851480243401465, 0.5958104777850731)))


def test_neighbor_counts_match_oracle():
    rng = np.random.default_rng(2)
    for _ in range(150):
        pts = _random_points(rng)
        radius = float(rng.uniform(0.02, 1.0))
        assert np.array_equal(kernels.neighbor_counts(pts, radius),
                              oracles.brute_neighbor_counts(pts, radius))
    for radius, q in _CLOSE_BY_THE_SQUARE:
        pts = np.array([(0.0, 0.0), q])
        assert kernels.neighbor_counts(pts, radius).tolist() == [1, 1]
        assert np.array_equal(kernels.neighbor_counts(pts, radius),
                              oracles.brute_neighbor_counts(pts, radius))


def _recording_chunks(monkeypatch):
    """``(points, pairs)`` of each chunk that ``neighbor_counts`` tests."""
    chunks = []
    close_mask = kernels._close_mask

    def recording(cols, s, lo, sizes, rad2):
        chunks.append((sizes.size, int(sizes.sum())))
        return close_mask(cols, s, lo, sizes, rad2)

    monkeypatch.setattr(kernels, "_close_mask", recording)
    return chunks


@pytest.mark.parametrize("budget", [1, 7, 40])
def test_neighbor_counts_in_small_chunks_match_oracle(monkeypatch, budget):
    # chunks end mid-range, and a point with more candidates than the budget
    # is a chunk alone
    chunks = _recording_chunks(monkeypatch)
    monkeypatch.setattr(kernels, "_PAIR_CHUNK", budget)
    rng = np.random.default_rng(2)
    for _ in range(150):
        pts = _random_points(rng)
        radius = float(rng.uniform(0.02, 1.0))
        assert np.array_equal(kernels.neighbor_counts(pts, radius),
                              oracles.brute_neighbor_counts(pts, radius))
    assert all(pairs <= budget or points == 1 for points, pairs in chunks)
    assert any(points == 1 and pairs > budget for points, pairs in chunks)
    if budget > 1:
        assert any(points > 1 and pairs > 1 for points, pairs in chunks)


def test_neighbor_counts_in_chunks_dropping_binned_axes_match_oracle(monkeypatch):
    # 1-8-D clouds whose grids lose binned axes, so a point's candidates
    # span several cells of the axes not binned, over small pair budgets
    chunks = _recording_chunks(monkeypatch)
    dropped = []
    pack_cells = kernels.pack_cells

    def recording(cells, margin=0):
        packed = pack_cells(cells, margin)
        # the scans pack a list of cell columns, or a compacted (n, k) array
        dropped.append(len(kernels._columns(cells)) < min(m, 3))
        return packed

    monkeypatch.setattr(kernels, "pack_cells", recording)
    rng = np.random.default_rng(20)
    for _ in range(150):
        m, n = int(rng.integers(1, 9)), int(rng.integers(1, 80))
        pts = rng.uniform(-1, 1, (n, m)) * rng.uniform(0.2, 5.0)
        if n > 2:
            pts[1] = pts[0]
        monkeypatch.setattr(kernels, "_KEY_LIMIT", int(rng.choice([128, 1024])))
        monkeypatch.setattr(kernels, "_PAIR_CHUNK", int(rng.choice([1, 7, 40, 1 << 15, 1 << 18])))
        radius = float(rng.uniform(0.02, 1.0))
        assert np.array_equal(kernels.neighbor_counts(pts, radius),
                              oracles.brute_neighbor_counts(pts, radius))
    assert sum(dropped) > 50 and len(chunks) > 1000


def _pairs_tested(monkeypatch, pts, radius):
    """``neighbor_counts(pts, radius)`` with what it searched and tested:
    ``(counts, full, tested)``, where ``full`` is the set of unordered
    candidate pairs of the full neighbourhoods, as (position, position) in
    ``order`` with the lower position first, and ``tested`` lists each pair
    ``_close_mask`` tested, as (the point's position, its candidate's)."""
    found, tested = [], []
    neighbourhoods, close_mask = kernels._neighbourhoods, kernels._close_mask

    def searching(cols, radius):
        found.append(neighbourhoods(cols, radius))
        return found[-1]

    def testing(cols, s, lo, sizes, rad2):
        pos, close = close_mask(cols, s, lo, sizes, rad2)
        tested.extend(zip(np.repeat(np.arange(s, s + sizes.size), sizes).tolist(), pos.tolist()))
        return pos, close

    with monkeypatch.context() as patch:
        patch.setattr(kernels, "_neighbourhoods", searching)
        patch.setattr(kernels, "_close_mask", testing)
        counts = kernels.neighbor_counts(pts, radius)
    (order, rank, ranges, _), = found
    full = set()
    for p, i in enumerate(order):
        c = rank[i]
        for q in itertools.chain.from_iterable(range(lo[c], hi[c]) for lo, hi in ranges):
            if q != p:
                full.add((min(p, q), max(p, q)))
    return counts, full, tested


def _hp_values():
    """The points of an image with coordinates of 1e30: cells of 2^62 and
    more, so the scans compact the grid."""
    return np.array([[0.0], [0.1], [0.35], [0.6], [1e30], [-1e30], [1e30], [3.5], [-2.25]])


@pytest.mark.parametrize("budget", [7, 1 << 15])
def test_half_neighbourhoods_test_each_pair_once(monkeypatch, budget):
    # every unordered candidate pair of the full neighbourhoods is tested
    # exactly once, from its end earlier in key order, and no point is
    # tested with itself; the counts credit both ends.  1-3-D clouds, all
    # points in one cell, a 7-D cloud binned on 3 axes and a compacted grid
    monkeypatch.setattr(kernels, "_PAIR_CHUNK", budget)
    compacted = []
    compact = kernels._compact

    def compacting(cells, near):
        compacted.append(len(cells))
        return compact(cells, near)

    monkeypatch.setattr(kernels, "_compact", compacting)
    rng = np.random.default_rng(35)
    cases = [(rng.uniform(0, 1, (n, m)), float(rng.uniform(0.05, 0.4)))
             for m in (1, 2, 3) for n in (1, 2, 60, 200)]
    cases += [(np.full((30, 2), 0.25), 0.5)]
    cloud = rng.uniform(-1, 1, (150, 7)) * [4, 0.1, 3, 0.1, 0.1, 2, 0.1]
    cases += [(cloud, radius) for radius in (0.3, 0.8)]
    cases += [(_hp_values(), 2 * 2.0**-j) for j in range(1, 7)]
    tested_pairs = 0
    for pts, radius in cases:
        counts, full, tested = _pairs_tested(monkeypatch, pts, radius)
        # each from its earlier end, so never a point with itself
        assert all(p < q for p, q in tested)
        assert len(tested) == len(set(tested)) and set(tested) == full
        assert np.array_equal(counts, oracles.brute_neighbor_counts(pts, radius))
        tested_pairs += len(tested)
    assert compacted and tested_pairs > 10000
    # the 7-D cloud is binned on its three widest axes: 9 rows a cell
    assert len(kernels._neighbourhoods(kernels._columns(cloud), 0.3)[2]) == 9


@pytest.mark.parametrize("bulk", [0, math.inf])
def test_far_end_credits_cross_many_chunk_windows(monkeypatch, bulk):
    # about 35 candidates a point in a budget of 64 pairs: the far end of a
    # close pair is credited in a chunk that does not hold it, one window of
    # positions a chunk
    chunks = _recording_chunks(monkeypatch)
    monkeypatch.setattr(kernels, "_PAIR_CHUNK", 64)
    monkeypatch.setattr(kernels, "_BULK_CANDIDATES", bulk)
    rng = np.random.default_rng(36)
    pts = rng.uniform(0, 1, (900, 2))
    pts[1] = pts[0]
    good = rng.random(len(pts)) < 0.7
    for radius in (0.05, 0.1):
        assert np.array_equal(kernels.neighbor_counts(pts, radius),
                              oracles.brute_neighbor_counts(pts, radius))
        assert np.array_equal(kernels.greedy_pack_mask(pts, radius / 2),
                              oracles.brute_greedy_packing(pts, radius / 2))
        assert np.array_equal(kernels.thin_select_mask(pts, radius, good),
                              oracles.brute_greedy_thinning(pts, radius, good))
    assert all(pairs <= 64 or points == 1 for points, pairs in chunks)
    assert len(chunks) > 500


def test_neighbor_counts_sum_d2_in_axis_order():
    # pairs placed at distance radius in random directions: for about one in
    # twenty, d2 summed in another axis order lands on the other side of
    # radius * radius
    rng = np.random.default_rng(19)
    radius = 0.3
    u = rng.standard_normal((1000, 3))
    u /= np.sqrt((u * u).sum(axis=1))[:, None]
    p = rng.uniform(-1, 1, (1000, 3))
    pts = np.concatenate([p, p + radius * u])

    def close(axes, rows):
        d2 = np.zeros((len(rows), len(pts)))
        for a in axes:
            diff = rows[:, a, None] - pts[:, a]
            d2 += diff * diff
        return d2 < radius * radius

    expected = np.concatenate([close(range(3), pts[s:s + 500]).sum(axis=1)
                               for s in range(0, len(pts), 500)]) - 1
    reversed_order = np.concatenate([close((2, 1, 0), pts[s:s + 500]).sum(axis=1)
                                     for s in range(0, len(pts), 500)]) - 1
    assert (expected != reversed_order).sum() > 50
    assert np.array_equal(kernels.neighbor_counts(pts, radius), expected)


def test_neighbor_counts_of_coincident_points_in_flat_memory():
    # 3000 points in one cell: 9e6 candidate pairs in one range, tested a
    # pair budget at a time
    pts = np.full((3000, 2), 0.25)
    tracemalloc.start()
    try:
        started = time.perf_counter()
        counts = kernels.neighbor_counts(pts, 0.5)
        elapsed = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.tolist() == [2999] * 3000
    assert elapsed < 3.0 and peak < 16 << 20


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


@pytest.mark.usefixtures("checked_union")
def test_sausage_occupancy_matches_oracle():
    rng = np.random.default_rng(4)
    for pts, r, cell in _sausage_inputs(rng):
        assert kernels.sausage_occupied_count(pts, r, cell) == \
            oracles.brute_sausage_count(pts, r, cell)
    # a point on a cell corner with r half a cell: the nearest centres are
    # sqrt(1/2) away, so no cell is marked
    assert kernels.sausage_occupied_count(np.zeros((1, 2)), 0.5, 1.0) == 0


def test_sausage_runs_match_the_row_oracle():
    # each (point, row) run is exactly the marked cells of that row, and no
    # row with a marked cell lacks a run: a run too long in one row could
    # hide under another point's run in the whole count
    rng = np.random.default_rng(4)
    for pts, r, cell in _sausage_inputs(rng):
        reach = int(np.ceil(r / cell)) + 1
        steps = np.arange(-reach, reach + 1, dtype=np.int64)
        # int64 cells, as the sausage casts them after its 2^52 check
        base = kernels.cell_indices(pts, cell).astype(np.int64)
        point, row, lo, hi = kernels._row_runs(pts, base, steps, cell, r * r)
        cells = base[point, -1]
        runs = dict(zip(zip(point.tolist(), row.tolist()),
                        zip((cells + lo).tolist(), (cells + hi).tolist())))
        assert len(runs) == point.size
        offsets = np.array(list(itertools.product(steps, repeat=pts.shape[1] - 1)))
        for p in range(len(pts)):
            for w, off in enumerate(offsets):
                marked = oracles.brute_row_cells(pts[p], base[p, :-1] + off, r, cell)
                if marked.size:
                    first, last = runs.pop((p, w))
                    assert marked.tolist() == list(range(first, last + 1))
        assert not runs


def _union_inputs(rng):
    """(start, end) int64 runs with ``start <= end``: none, single cells,
    already disjoint, touching (one ends at ``start - 1`` of the next),
    nested, duplicated and random ones, in shuffled order."""
    yield np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    yield np.array([7]), np.array([7])
    yield np.array([-5, 0, 9]), np.array([-2, 4, 9])
    yield np.array([0, 3, 4, 8]), np.array([2, 3, 7, 8])
    yield np.array([0, 2, 3, 2]), np.array([10, 8, 3, 8])
    for _ in range(300):
        n = int(rng.integers(1, 40))
        start = rng.integers(-30, 30, n)
        end = start + rng.choice([0, 0, 1, 3, 12], n)
        if n > 3:
            start[1], end[1] = start[0], end[0]  # a duplicate
            start[2], end[2] = end[0] + 1, end[0] + int(rng.integers(0, 4))  # touching
            start[3], end[3] = start[0] + 1, max(start[0] + 1, end[0] - 1)  # nested
        perm = rng.permutation(n)
        yield start[perm], end[perm]


def test_union_matches_the_cell_set_of_its_runs():
    rng = np.random.default_rng(41)
    for start, end in _union_inputs(rng):
        cells = {c for s, e in zip(start.tolist(), end.tolist()) for c in range(s, e + 1)}
        got_start, got_end = kernels._union(start, end)
        assert got_start.dtype == got_end.dtype == np.int64
        # sorted, non-empty, and no two touch: the canonical runs of the set
        assert (got_start <= got_end).all()
        assert (got_start[1:] > got_end[:-1] + 1).all()
        assert {c for s, e in zip(got_start.tolist(), got_end.tolist())
                for c in range(s, e + 1)} == cells
    # empty runs (start == end + 1) are within the premise: the cells and
    # their number stay those of the non-empty runs
    start, end = np.array([0, 5, 7, 3, 20]), np.array([4, 4, 9, 2, 19])
    got_start, got_end = kernels._union(start, end)
    assert {c for s, e in zip(got_start.tolist(), got_end.tolist())
            for c in range(s, e + 1)} == set(range(0, 5)) | set(range(7, 10))
    assert int((got_end - got_start).sum()) + got_start.size == 8


def _record_sausage_chunks(monkeypatch):
    """``(points, chunks)`` of each uncut sausage piece counted, with one
    ``[points, rows, carried]`` entry a chunk: ``_row_runs`` gets the
    chunk's points and rows, and ``_union`` the runs carried from earlier
    chunks ahead of the chunk's own."""
    pieces = []
    group_count, row_runs, union = kernels._group_count, kernels._row_runs, kernels._union

    def counting(pts, base, index, cells, clip, *args):
        assert not clip
        pieces.append((index.size, []))
        return group_count(pts, base, index, cells, clip, *args)

    def runs(pts, base, steps, cell, r2):
        found = row_runs(pts, base, steps, cell, r2)
        pieces[-1][1].append([len(pts), steps.size ** (pts.shape[1] - 1), found[0].size])
        return found

    def merging(start, end):
        chunk = pieces[-1][1][-1]
        chunk[2] = start.size - chunk[2]
        return union(start, end)

    monkeypatch.setattr(kernels, "_group_count", counting)
    monkeypatch.setattr(kernels, "_row_runs", runs)
    monkeypatch.setattr(kernels, "_union", merging)
    return pieces


@pytest.mark.usefixtures("checked_union")
def test_sausage_in_small_chunks_with_merges_matches_oracle(monkeypatch):
    # one or a few points a chunk, each merged into the runs kept at the scan
    # front as soon as it is built
    pieces = _record_sausage_chunks(monkeypatch)
    monkeypatch.setattr(kernels, "_PAIR_CHUNK", 40)
    rng = np.random.default_rng(12)
    for pts, r, cell in itertools.islice(_sausage_inputs(rng), 0, None, 3):
        assert kernels.sausage_occupied_count(pts, r, cell) == \
            oracles.brute_sausage_count(pts, r, cell)
    chunks = [chunk for _, piece in pieces for chunk in piece]
    assert sum(points == 1 for points, _, _ in chunks) > 50
    assert any(points > 1 for points, _, _ in chunks)


@pytest.mark.usefixtures("checked_union")
@pytest.mark.parametrize("budget", [1, 40])
def test_sausage_chunks_grow_to_the_runs_they_carry(monkeypatch, budget):
    # a chunk takes the budget's points, or more while the runs carried from
    # earlier chunks outnumber the budget: it scans at least as many (point,
    # row) pairs as the runs it carries, or all the pairs left
    pieces = _record_sausage_chunks(monkeypatch)
    monkeypatch.setattr(kernels, "_PAIR_CHUNK", budget)
    rng = np.random.default_rng(33)
    for pts, r, cell in itertools.islice(_sausage_inputs(rng), 1, None, 2):
        assert kernels.sausage_occupied_count(pts, r, cell) == \
            oracles.brute_sausage_count(pts, r, cell)
    grown = 0
    for left, chunks in pieces:
        for points, rows, carried in chunks:
            assert points * rows >= min(carried, left * rows)
            assert points == min(left, max(1, budget // rows, -(-carried // rows)))
            grown += points > max(1, budget // rows)
            left -= points
        assert left == 0
    assert grown > 10


def test_sausage_of_a_graph_in_bounded_memory(monkeypatch):
    # 2^14 + 1 points, 11 rows a point: chunks of 2^18 (point, row) pairs
    # held about 16 MiB, which the allocator handed back after each call
    path = fd.apply_drift(fd.generate_bm(fd.TimeGrid.uniform((1 << 14) + 1), 1, 1),
                          fd.DriftSpec.psi_n(64))
    pts = np.column_stack(fd.graph_cloud(path).columns)
    r = 2.0**-8
    tracemalloc.start()
    try:
        count = kernels.sausage_occupied_count(pts, r, r / 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    # chunking does not change the count
    monkeypatch.setattr(kernels, "_PAIR_CHUNK", 1 << 18)
    assert count == kernels.sausage_occupied_count(pts, r, r / 4)


def _record_sausage_cuts(monkeypatch, cuts):
    """Append to ``cuts`` the range of each sausage piece counted that was
    cut from a larger one."""
    group_count = kernels._group_count

    def recording(pts, base, index, cells, clip, *args):
        if clip:
            cuts.append(clip)
        return group_count(pts, base, index, cells, clip, *args)

    monkeypatch.setattr(kernels, "_group_count", recording)


def _wide_sausage_inputs(rng):
    """(points, r, cell) triples of 20-60 points in 1-3-D spread over 8 to
    24 radii a side, with cell r/2 or r/3: grids many pieces wide."""
    for _ in range(12):
        m, n = int(rng.integers(1, 4)), int(rng.integers(20, 60))
        r = float(rng.uniform(0.05, 0.5))
        pts = rng.uniform(0, float(rng.uniform(8, 24)) * r, (n, m))
        pts[1] = pts[0]
        yield pts, r, r / int(rng.integers(2, 4))


@pytest.mark.usefixtures("checked_union")
def test_sausage_cut_into_pieces_matches_oracle(monkeypatch):
    # key limits so low that grids are cut into many pieces; the fields of a
    # piece at most 2 * reach cells wide on every axis take at most
    # bit_length(4 * reach + 1) bits each, so the cuts end at every limit
    # here.  A few points a chunk, each merged into the scan front.
    cuts = []
    _record_sausage_cuts(monkeypatch, cuts)
    monkeypatch.setattr(kernels, "_PAIR_CHUNK", 40)
    rng = np.random.default_rng(21)
    cut_inputs = 0
    for pts, r, cell in itertools.chain(_sausage_inputs(rng), _wide_sausage_inputs(rng)):
        expected = oracles.brute_sausage_count(pts, r, cell)
        reach = int(np.ceil(r / cell)) + 1
        piece_bits = pts.shape[1] * (4 * reach + 1).bit_length()
        for scale in (1, 4, 64):
            monkeypatch.setattr(kernels, "_KEY_LIMIT", scale << piece_bits)
            before = len(cuts)
            assert kernels.sausage_occupied_count(pts, r, cell) == expected
            cut_inputs += len(cuts) > before
    assert cut_inputs > 20


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


def test_cell_indices_are_float_floors_at_every_magnitude():
    # small, negative, signed-zero and huge coordinates all give float64
    # floors, exact integers that name their cells
    pts = np.array([[0.3, -0.3], [-0.0, 0.0], [-2.5, 7.0], [2.0**62, -2.0**62],
                    [1e300, -1e300], [2.0**70 + 2.0**18, 5.0]])
    cells = kernels.cell_indices(pts, 0.25)
    assert cells.dtype == np.float64 and cells.shape == pts.shape
    # so does each point alone, whatever the magnitude of the others
    for row, point in zip(cells, pts):
        alone = kernels.cell_indices(point[None, :], 0.25)
        assert alone.dtype == np.float64 and alone.tobytes() == row.tobytes()
    assert cells.tolist() == [[1.0, -2.0], [0.0, 0.0], [-10.0, 28.0], [2.0**64, -2.0**64],
                              [4e300, -4e300], [2.0**72 + 2.0**20, 20.0]]
    # -0.0 and 0.0 floor to one cell
    signed = kernels.cell_indices(np.array([[-0.0], [0.0], [2.0**63]]), 1.0)
    assert kernels.distinct_cell_count(signed) == 2


def test_cell_indices_refuse_non_finite_floors():
    # a NaN or infinite coordinate, or an x / width that overflows
    for pts, width in (([[0.0], [np.nan]], 1.0), ([[np.inf, 0.0]], 1.0),
                       ([[-np.inf, 0.0]], 0.5), ([[1e300, 0.0]], 1e-300)):
        with pytest.raises(DomainError) as ei:
            kernels.cell_indices(np.array(pts), width)
        assert ei.value.code == "non-finite-cell"


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


def _rows(cells) -> list:
    return [tuple(c) for c in np.asarray(cells).tolist()]


def test_pack_cells_keys_decode_to_the_cells_and_their_neighbours():
    # int64 cells and float floors, as an array or as columns, with margins
    # 0-3: the keys decode to the cells, sort like the cell tuples with the
    # last axis most significant, and a key plus o << shift_a decodes to the
    # cell o cells off on axis a for every |o| <= margin
    rng = np.random.default_rng(27)
    for _ in range(100):
        m, n, margin = int(rng.integers(1, 5)), int(rng.integers(1, 40)), int(rng.integers(0, 4))
        width = int(rng.choice([1, 2, 50, 5000]))
        cells = rng.integers(-2**40, 2**40, m) + rng.integers(0, width, (n, m))
        floors = cells.astype(np.float64)
        for given in (cells, floors, [floors[:, a] for a in range(m)]):
            keys, layout = kernels.pack_cells(given, margin)
            assert oracles.decode_box_keys(keys, layout) == _rows(cells)
            assert _rows(cells[np.argsort(keys, kind="stable")]) == \
                sorted(_rows(cells), key=lambda c: c[::-1])
            for a, shift in enumerate(layout.shifts):
                for o in range(-margin, margin + 1):
                    moved = cells.copy()
                    moved[:, a] += o
                    assert oracles.decode_box_keys(keys.astype(object) + (o << shift), layout) == \
                        _rows(moved)


def test_pack_cells_word_and_limits(monkeypatch):
    # fields of 32 bits in all take a uint32 key, of 33 a uint64 one; a margin
    # widens each field by 2 * margin
    for cells, margin, dtype in (([[0, 0], [2**16 - 2, 2**16 - 2]], 0, np.uint32),
                                 ([[0, 0], [2**16 - 1, 2**16 - 2]], 0, np.uint64),
                                 ([[0], [2**32 - 4]], 1, np.uint32),
                                 ([[0], [2**32 - 3]], 1, np.uint64)):
        keys, layout = kernels.pack_cells(np.array(cells), margin)
        assert keys.dtype == dtype
        assert oracles.decode_box_keys(keys, layout) == _rows(cells)
    # floors of 2^62 or more in magnitude, or not finite, are refused; those
    # just below pack
    below = 2.0**62 - 512
    keys, layout = kernels.pack_cells([np.array([-below, below])])
    assert oracles.decode_box_keys(keys, layout) == [(-int(below),), (int(below),)]
    for col in ([0.0, 2.0**62], [-2.0**62, 0.0], [0.0, np.nan], [-np.inf, 0.0]):
        with pytest.raises(DomainError) as ei:
            kernels.pack_cells([np.array(col)])
        assert ei.value.code == "cell-grid-too-large"
    # fields of 63 bits in all pack, and one bit more is refused, at the
    # shipped key limit and at a lowered one
    for limit_bits in (63, 10):
        monkeypatch.setattr(kernels, "_KEY_LIMIT", 1 << limit_bits)
        # a span of 2^b - 2 takes b bits: the rest of the limit on axis 0
        bits = [limit_bits - 2 * (limit_bits // 3)] + [limit_bits // 3] * 2
        fits = np.array([[0, 0, 0], [(1 << b) - 2 for b in bits]])
        keys, layout = kernels.pack_cells(fits)
        assert oracles.decode_box_keys(keys, layout) == _rows(fits)
        fits[1, 0] += 1
        with pytest.raises(DomainError) as ei:
            kernels.pack_cells(fits)
        assert ei.value.code == "cell-grid-too-large"


def _key_bits(cells) -> tuple:
    """Key bits the cells need (a field of bit_length(span + 1) per axis),
    their largest magnitude and their widest span."""
    spans = [max(c) - min(c) for c in zip(*cells)]
    return (sum((s + 1).bit_length() for s in spans), max(abs(x) for c in cells for x in c),
            max(spans))


def test_box_keys_halved_scale_by_scale_match_the_oracle():
    # uint32, uint64 and unpackable grids (float floors, or fields over 63
    # bits); odd and negative minima, whose halving needs the carry; spans of
    # up to 2^100 cells, so over 2^53 in the uint64 keys
    rng = np.random.default_rng(26)
    seen, odd_negative, wide = set(), 0, 0
    for _ in range(400):
        m, n = int(rng.integers(1, 4)), int(rng.integers(1, 60))
        pts = rng.uniform(-1, 1, (n, m)) * 2.0 ** int(rng.integers(-4, 30))
        pts += rng.uniform(-1, 1, m) * 2.0 ** int(rng.integers(-4, 30))
        if n > 2:
            pts[1] = pts[0]
            pts[2] = np.round(pts[2])
        j = int(rng.integers(0, 70))
        bits, biggest, span = _key_bits(oracles.brute_box_cells(pts, 2.0**-j))
        found = kernels.box_keys(pts, 2.0**-j)
        if bits > 63 or biggest >= 2**62:
            assert found is None
            seen.add(None)
            continue
        keys, layout = found
        assert keys.dtype == (np.uint32 if bits <= 32 else np.uint64)
        seen.add(keys.dtype.name)
        wide += span > 2**53
        for level in range(min(j, 10) + 1):
            if level:
                odd_negative += any(lo < 0 and lo % 2 for lo in layout.mins)
                keys, layout = kernels.coarser_keys(keys, layout)
            eps = 2.0 ** (level - j)
            assert len(keys) == oracles.brute_box_count(pts, eps)
            assert keys.tolist() == sorted(set(keys.tolist()))
            assert set(oracles.decode_box_keys(keys, layout)) == oracles.brute_box_cells(pts, eps)
    assert seen == {"uint32", "uint64", None} and odd_negative > 50 and wide > 5


def test_scans_on_a_grid_too_large_to_pack():
    # about 2^40 cells of side 2^-20 per axis: the cell tuples cannot be packed
    far = np.array([[0.0, 0.0, 0.0], [1e6, 1e6, 1e6]])
    assert kernels.greedy_pack_mask(far, 2.0**-20).tolist() == [True, True]
    assert kernels.neighbor_counts(far, 2.0**-20).tolist() == [0, 0]
    assert kernels.thin_select_mask(far, 2.0**-20, np.array([True, True])).tolist() == [True, True]


# Per ambient dimension, a cluster spacing that puts the grid of every radius
# used below past the 63 bits of a packed key.  In 1-D that needs cell indices
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
# stays below and four clusters pass even compacted.  A field takes
# bit_length(span + 2 * margin + 1) bits: with cells of side ``radius`` for
# the scans (margin 1; a cluster spans at most 6 cells, 4 bits an axis, and
# four at least 6 + 2 + 6, 5 bits, on two axes) and of side ``radius / 2``
# for the sausage (margin 3; at most 12 cells, 5 bits, and at least 12 + 7 +
# 12, 6 bits, on two axes)
_SCAN_LIMIT = {2: 1 << 8, 3: 1 << 12}
_SAUSAGE_LIMIT = {2: 1 << 10, 3: 1 << 15}


@pytest.mark.usefixtures("checked_union")
def test_scans_on_clusters_split_into_groups_match_oracles(monkeypatch):
    cuts = []
    _record_sausage_cuts(monkeypatch, cuts)
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
        # the scans drop binned axes and never cut
        assert len(cuts) == before
        monkeypatch.setattr(kernels, "_KEY_LIMIT", _SAUSAGE_LIMIT[m])
        before = len(cuts)
        assert kernels.sausage_occupied_count(pts, radius, radius / 2) == \
            sum(oracles.brute_sausage_count(c, radius, radius / 2) for c in clusters)
        assert len(cuts) > before


def test_scans_on_cells_beyond_int64_match_oracles():
    # cells of 2^62 and more do not pack, and the compaction turns their
    # float floors into small int64 offsets; the sausage refuses cells from
    # 2^52 on
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


def _scans_match_oracles(pts, radius, good):
    assert np.array_equal(kernels.greedy_pack_mask(pts, radius / 2),
                          oracles.brute_greedy_packing(pts, radius / 2))
    assert np.array_equal(kernels.neighbor_counts(pts, radius),
                          oracles.brute_neighbor_counts(pts, radius))
    assert np.array_equal(kernels.thin_select_mask(pts, radius, good),
                          oracles.brute_greedy_thinning(pts, radius, good))


def test_scans_on_a_7d_diagonal_match_oracles():
    # cells 0..511 on each of 7 axes: 2^63 keys, and even compacted no gap
    # to cut at; every other point is moved off the diagonal to a neighbour
    # of the one before
    rng = np.random.default_rng(15)
    diagonal = np.repeat(np.arange(512.0)[:, None], 7, axis=1)
    moved = diagonal.copy()
    moved[1::2] = moved[0::2] + rng.uniform(-0.4, 0.4, (256, 7))
    for pts in (diagonal, moved):
        _scans_match_oracles(pts, 1.0, rng.random(len(pts)) < 0.7)


def test_scans_dropping_binned_axes_match_oracles(monkeypatch):
    # 1-8-D clouds on key limits so low that even the compacted grid of the
    # widest three axes often does not pack, and axes are dropped; a limit
    # over 2 * n keeps one compacted axis packable
    packed_axes = []
    pack_cells = kernels.pack_cells

    def recording(cells, margin=0):
        packed = pack_cells(cells, margin)
        packed_axes.append((len(kernels._columns(cells)), min(pts.shape[1], 3)))
        return packed

    monkeypatch.setattr(kernels, "pack_cells", recording)
    rng = np.random.default_rng(16)
    for _ in range(200):
        m, n = int(rng.integers(1, 9)), int(rng.integers(1, 60))
        pts = rng.uniform(-1, 1, (n, m)) * rng.uniform(0.2, 5.0)
        if n > 2:
            pts[1] = pts[0]
        monkeypatch.setattr(kernels, "_KEY_LIMIT", int(rng.choice([128, 1024, 1 << 14])))
        radius = float(rng.uniform(0.02, 1.0))
        _scans_match_oracles(pts, radius, rng.random(n) < 0.7)
    dropped = [k for k, binned in packed_axes if k < binned]
    assert len(dropped) > 100 and dropped.count(1) > 20


def test_scans_bin_the_widest_axes():
    # (0, 0, 0, x): binning the leading three axes would put every point in
    # one cell; binning the widest gives each point a few candidates
    x = np.random.default_rng(17).uniform(0, 100, 400)
    pts = np.zeros((400, 4))
    pts[:, 3] = x
    order, rank, ranges, sizes = kernels._neighbourhoods(kernels._columns(pts), 0.5)
    assert sizes.max() < 20 and len(ranges) == 9
    # the half neighbourhoods, the own row after each point and the rows
    # after it, hold each pair of distinct points once
    at = np.empty(400, dtype=np.intp)
    at[order] = np.arange(400)
    half = ranges[4][1][rank] - (at + 1) + sum(hi[rank] - lo[rank] for lo, hi in ranges[5:])
    assert half.min() >= 0 and half.sum() * 2 == sizes[rank].sum() - 400
    _scans_match_oracles(pts, 0.5, np.arange(400) % 3 != 0)


def _binned_axes(cells, limit):
    """The axes the scans bin points on, by their rule: the ``_BIN_AXES``
    widest spans of float floor cells (the lower axis first on a tie), then,
    while even the compacted cells of those axes need keys past ``limit``,
    less the narrowest (the lower axis on a tie).  A compacted axis is
    ``sum(min(gap, 2))`` over its distinct cells wide, and packs with a
    margin of 1 into ``bit_length(width + 3)`` bits."""
    span = [c.max() - c.min() for c in cells]
    axes = sorted(sorted(range(len(cells)), key=lambda a: -span[a])[:kernels._BIN_AXES])

    def bits(a):
        coords = sorted({int(c) for c in cells[a]})
        return (sum(min(y - x, 2) for x, y in zip(coords, coords[1:])) + 3).bit_length()

    while 1 << sum(bits(a) for a in axes) > limit:
        axes.remove(min(axes, key=lambda a: (span[a], a)))
    return axes


def _neighbourhood_inputs(rng):
    """(points, radius) with many points a cell, all points in one cell,
    every point in a cell of its own, and cells of 2^62 or more."""
    for _ in range(20):
        m, radius = int(rng.integers(1, 5)), float(rng.uniform(0.05, 1.0))
        yield rng.uniform(0, 4 * radius, (int(rng.integers(20, 150)), m)), radius
        yield rng.uniform(0, radius, (int(rng.integers(1, 40)), m)), radius
        side = int(rng.integers(2, 6))
        lattice = np.array(list(itertools.product(range(side), repeat=min(m, 3))), dtype=float)
        pts = (lattice[rng.permutation(len(lattice))] + rng.uniform(0, 1, lattice.shape)) * radius
        yield pts, radius
    huge = np.array([[0.0, 1e300], [0.01, 1e300], [-1e300, 0.0], [1e18, 0.05], [1e18, 0.0],
                     [1e300, 0.0], [1e300, 0.1], [-1e18, 0.2]])
    for radius in (2.0**-4, 0.125):
        yield huge, radius
        yield huge[:, :1], radius


def _neighbourhoods_match_their_cells(pts, radius, seen):
    cols = kernels._columns(pts)
    order, rank, ranges, sizes = kernels._neighbourhoods(cols, radius)
    n = len(pts)
    assert sorted(order.tolist()) == list(range(n))
    # the points of a cell share its rank, and the ranks follow the cells
    # in order
    assert np.all(np.diff(rank[order]) >= 0) and rank[order][0] == 0
    cells = [kernels.cell_indices(col, radius) for col in cols]
    axes = _binned_axes(cells, kernels._KEY_LIMIT)
    assert len(ranges) == 3 ** (len(axes) - 1)
    # exact integer cells, as a floor of 2^62 or more has no int64
    exact = [np.array([int(c) for c in cells[a]], dtype=object) for a in axes]
    near = np.ones((n, n), dtype=bool)
    for c in exact:
        near &= np.abs(c[:, None] - c[None, :]) <= 1
    at = np.empty(n, dtype=np.intp)
    at[order] = np.arange(n)
    for i in range(n):
        c = rank[i]
        found = np.concatenate([order[lo[c]:hi[c]] for lo, hi in ranges])
        assert sizes[c] == found.size
        assert sorted(found.tolist()) == np.flatnonzero(near[i]).tolist()
        # the rows come in key order, the own row in the middle
        row_bounds = [b[c] for lo, hi in ranges for b in (lo, hi)]
        assert row_bounds == sorted(row_bounds)
        lo, hi = ranges[len(ranges) // 2]
        assert lo[c] <= at[i] < hi[c]
    distinct = len({tuple(int(c[i]) for c in exact) for i in range(n)})
    seen.add("one cell" if distinct == 1 else "distinct" if distinct == n else "crowded")
    seen |= {"huge"} if max(abs(int(c)) for col in exact for c in col) >= 2**62 else set()
    seen.add("binned" if len(axes) == min(pts.shape[1], kernels._BIN_AXES) else "dropped")


def test_neighbourhoods_are_the_points_of_the_neighbour_cells(monkeypatch):
    # each point's candidates are exactly the points whose cells are within
    # one of its own on every binned axis: none missing, none extra, none
    # twice.  The scans' oracles would not see extra candidates.
    rng = np.random.default_rng(42)
    seen = set()
    for pts, radius in _neighbourhood_inputs(rng):
        _neighbourhoods_match_their_cells(pts, radius, seen)
    # key limits so low that binned axes are dropped
    for _ in range(120):
        m, n = int(rng.integers(1, 9)), int(rng.integers(1, 60))
        pts = rng.uniform(-1, 1, (n, m)) * rng.uniform(0.2, 5.0)
        monkeypatch.setattr(kernels, "_KEY_LIMIT", int(rng.choice([128, 1024, 1 << 14])))
        _neighbourhoods_match_their_cells(pts, float(rng.uniform(0.02, 1.0)), seen)
    assert seen == {"crowded", "one cell", "distinct", "huge", "binned", "dropped"}


def test_scans_of_candidates_far_apart_on_an_axis_not_binned():
    # axis 3 is not binned; the first two points share a cell of the other
    # three and are 1e160 apart on it, so their d2 overflows to inf, which
    # is not close (and warns nothing)
    pts = np.array([[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.05, 1e160], [1e170, 1e170, 1e170, 0.0],
                    [1e170, 1e170, 1e170, 0.01], [-1e170, 1e18, 0.0, 0.0]])
    _scans_match_oracles(pts, 0.125, np.arange(len(pts)) % 2 == 0)


def test_scans_of_an_8d_walk_in_flat_memory():
    # 3^7 ranges a point and the cuts of the whole grid took 17 s and 200 MiB
    walk = np.random.default_rng(18).standard_normal((4096, 8)).cumsum(axis=0) / 64
    eps = 2.0**-5
    tracemalloc.start()
    try:
        started = time.perf_counter()
        kept = kernels.greedy_pack_mask(walk, eps)
        elapsed = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 3.0 and peak < 16 << 20
    # the greedy scan, checked against every kept point: a point is kept iff
    # no earlier kept point is closer than 2 * eps, d2 summed in axis order
    centres = np.flatnonzero(kept)
    for s in range(0, len(walk), 512):
        d2 = np.zeros((min(512, len(walk) - s), centres.size))
        for a in range(walk.shape[1]):
            diff = walk[s:s + 512, a, None] - walk[centres, a]
            d2 += diff * diff
        earlier = centres < np.arange(s, s + len(d2))[:, None]
        assert np.array_equal(kept[s:s + 512], ~np.any((d2 < (2 * eps) ** 2) & earlier, axis=1))


def _record_scans(monkeypatch):
    """``{"scans": n, "bulk": [undecided, ...]}``: the number of greedy scans
    run, and for each that resolved in bulk rounds, the number of points it
    left to the scan."""
    seen = {"scans": 0, "bulk": []}
    greedy_scan, bulk_rounds = kernels._greedy_scan, kernels._bulk_rounds

    def scan(*args):
        seen["scans"] += 1
        return greedy_scan(*args)

    def rounds(*args):
        todo = bulk_rounds(*args)
        seen["bulk"].append(todo.size)
        return todo

    monkeypatch.setattr(kernels, "_greedy_scan", scan)
    monkeypatch.setattr(kernels, "_bulk_rounds", rounds)
    return seen


_SCAN_ORACLE_TESTS = (
    test_greedy_pack_matches_oracle, test_thin_select_matches_oracle,
    test_greedy_pack_is_thinning_with_every_point_eligible,
    test_scans_on_a_grid_too_large_to_pack, test_scans_on_far_apart_clusters_match_oracles,
    test_scans_on_clusters_split_into_groups_match_oracles,
    test_scans_on_cells_beyond_int64_match_oracles, test_scans_on_a_7d_diagonal_match_oracles,
    test_scans_dropping_binned_axes_match_oracles, test_scans_bin_the_widest_axes,
    test_scans_of_candidates_far_apart_on_an_axis_not_binned,
    test_scans_of_an_8d_walk_in_flat_memory)


def _in_form(points, form):
    """The points of an ``(n, m)`` array as the scans may take them: the
    array, or a list of contiguous columns."""
    if form == "array":
        return points
    return [col.copy() for col in np.ascontiguousarray(points).T]


def _given_in_form(monkeypatch, form):
    """Every public scan fed its points in ``form``."""
    for name in ("greedy_pack_mask", "thin_select_mask", "neighbor_counts"):
        scan = getattr(kernels, name)
        monkeypatch.setattr(kernels, name, lambda points, *args, scan=scan:
                            scan(_in_form(points, form), *args))


@pytest.mark.parametrize("bulk, rounds, form", [
    *(pytest.param(bulk, rounds, "array", id=f"{bulk}-{rounds}")
      for bulk, rounds in ((32, 32), (0, 32), (math.inf, 32), (math.inf, 0), (math.inf, 1))),
    pytest.param(32, 32, "columns", id="32-32-columns")])
def test_scans_match_oracles_on_every_branch(monkeypatch, bulk, rounds, form):
    # the shipped crossover, every scan in stored order, every scan in bulk,
    # and bulk scans that hand every point, or all but those of one round,
    # on to the scan; their masks and counts all equal the one oracle's.
    # The points come as an array, and once as a list of contiguous
    # columns: a list of the array's strided columns is what the scans make
    # of the array, and no line of the kernels past ``kernels._columns``
    # reads the layout, so the other forms executed no other line
    monkeypatch.setattr(kernels, "_BULK_CANDIDATES", bulk)
    monkeypatch.setattr(kernels, "_MAX_ROUNDS", rounds)
    _given_in_form(monkeypatch, form)
    seen = _record_scans(monkeypatch)
    for test in _SCAN_ORACLE_TESTS:
        # a test's one argument, if any, is its own monkeypatch
        with pytest.MonkeyPatch.context() as patch:
            test(*[patch][:test.__code__.co_argcount])
    scans, handed = seen["scans"], seen["bulk"]
    if bulk == 0:
        assert scans > 1000 and not handed
    elif bulk == math.inf:
        assert len(handed) == scans > 1000
    else:
        assert len(handed) > 50 and scans - len(handed) > 50
    if bulk == math.inf:
        assert (sum(n > 0 for n in handed) > 100) == (rounds < 32)


def test_scan_of_a_chain_hands_off_after_the_round_cap(monkeypatch):
    # points 0.9 * radius apart: about 3.4 candidates a point, so the scan
    # resolves in bulk, but each round decides about one point; after
    # _MAX_ROUNDS the scan finishes the rest instead of 16385 rounds
    seen = _record_scans(monkeypatch)
    chain = 0.9 * np.arange(16385.0)[:, None]
    started = time.perf_counter()
    kept = kernels.greedy_pack_mask(chain, 0.5)
    elapsed = time.perf_counter() - started
    assert np.array_equal(kept, np.arange(16385) % 2 == 0)
    assert seen["bulk"] and seen["bulk"][0] > 16000
    assert elapsed < 1.0


@pytest.mark.parametrize("bulk", [0, math.inf])
@pytest.mark.parametrize("shape", [(40,), (60,), (50, 1), (), (0,)])
def test_thinning_refuses_a_good_mask_of_another_shape(monkeypatch, bulk, shape):
    monkeypatch.setattr(kernels, "_BULK_CANDIDATES", bulk)
    seen = _record_scans(monkeypatch)
    pts = np.random.default_rng(22).uniform(0, 1, (50, 2))
    with pytest.raises(DomainError) as ei:
        kernels.thin_select_mask(pts, 0.1, np.ones(shape, dtype=bool))
    assert ei.value.code == "bad-shape"
    # refused before the scan of the good points
    assert seen["scans"] == 0


def _thinning_inputs(rng):
    """(points, radius, good): random clouds with coincident points, dyadic
    lattices whose neighbours sit exactly at the radius, each with a random,
    an all-good and a no-good mask."""
    for _ in range(40):
        pts = _random_points(rng)
        pts[-1] = pts[0]
        radius = float(rng.uniform(0.02, 1.0))
        for good in (rng.random(len(pts)) < 0.6, np.ones(len(pts), bool), np.zeros(len(pts), bool)):
            yield pts, radius, good
    for m in (1, 2, 3):
        pts = np.concatenate([_lattice(m), _lattice(m)[:5]])
        for radius in (0.25, 0.5):
            for good in (np.arange(len(pts)) % 3 != 0, np.ones(len(pts), bool),
                         np.zeros(len(pts), bool)):
                yield pts, radius, good


@pytest.mark.parametrize("bulk", [0, math.inf])
def test_thinning_is_packing_of_the_good_points(monkeypatch, bulk):
    # a good point is selected iff no earlier selected point is within the
    # radius, and only good points are selected: the points that are not
    # good never matter, so thinning is the greedy scan of the good points
    # alone, scattered back
    monkeypatch.setattr(kernels, "_BULK_CANDIDATES", bulk)
    rng = np.random.default_rng(23)
    ties = 0
    for pts, radius, good in _thinning_inputs(rng):
        alone = np.zeros(len(pts), dtype=bool)
        alone[good] = oracles.brute_greedy_thinning(pts[good], radius, [True] * int(good.sum()))
        got = kernels.thin_select_mask(pts, radius, good)
        assert np.array_equal(got, alone)
        assert np.array_equal(got[good], kernels.greedy_pack_mask(pts[good], radius / 2))
        assert np.array_equal(got, oracles.brute_greedy_thinning(pts, radius, good))
        ties += bool(np.any(oracles.brute_neighbor_counts(pts, np.nextafter(radius, np.inf))
                            > oracles.brute_neighbor_counts(pts, radius)))
    assert ties > 5


@pytest.mark.parametrize("bulk", [0, math.inf])
def test_scans_do_not_depend_on_the_order_within_a_cell(monkeypatch, bulk):
    # _neighbourhoods sorts the keys with no stable sort, so the points of a
    # cell may come in any order; masks and counts must not move
    monkeypatch.setattr(kernels, "_BULK_CANDIDATES", bulk)
    rng = np.random.default_rng(24)
    cases = list(_thinning_inputs(rng)) + [(np.full((40, 2), 0.25), 0.5, np.arange(40) % 2 == 0)]

    def scans(pts, radius, good):
        return (kernels.greedy_pack_mask(pts, radius / 2), kernels.thin_select_mask(pts, radius, good),
                kernels.neighbor_counts(pts, radius))

    before = [scans(*case) for case in cases]
    neighbourhoods, changed = kernels._neighbourhoods, []

    def reversed_cells(cols, radius):
        # each cell's points, order[first:last + 1], listed last to first
        order, rank, ranges, sizes = neighbourhoods(cols, radius)
        cell = rank[order]
        first = np.searchsorted(cell, cell, side="left")
        last = np.searchsorted(cell, cell, side="right") - 1
        flipped = order[first + last - np.arange(order.size)]
        changed.append(not np.array_equal(flipped, order))
        return flipped, rank, ranges, sizes

    monkeypatch.setattr(kernels, "_neighbourhoods", reversed_cells)
    for case, want in zip(cases, before):
        for got, expected in zip(scans(*case), want):
            assert np.array_equal(got, expected)
    assert sum(changed) > 100


@pytest.mark.parametrize("bulk", [0, math.inf])
def test_scans_of_no_points_are_empty(monkeypatch, bulk):
    monkeypatch.setattr(kernels, "_BULK_CANDIDATES", bulk)
    none = np.zeros((0, 2))
    for got, dtype in ((kernels.greedy_pack_mask(none, 0.1), bool),
                       (kernels.neighbor_counts(none, 0.1), np.int64),
                       (kernels.thin_select_mask(none, 0.1, np.zeros(0, dtype=bool)), bool)):
        assert got.shape == (0,) and got.dtype == dtype


@pytest.mark.usefixtures("checked_union")
def test_sausage_past_the_compacted_grid():
    # 320000 points, each alone in a window of 7 cells per axis, on a grid of
    # 2^41 cells per axis: even compacted, 7 * 320000 cells per axis need 3 *
    # 22 key bits, and the grid is cut into pieces.  Every point sits on a cell
    # centre, so each one marks as many cells as the first; the clusters are
    # counted by the oracle.
    rng = np.random.default_rng(14)
    cell = 2.0**-21
    r = 2 * cell
    lone = (rng.integers(0, 1 << 41, (320_000, 3)) + 0.5) * cell
    with pytest.raises(DomainError):
        kernels.pack_cells(kernels._compact(kernels.cell_indices(lone, cell), 6), 3)
    clusters = [c + rng.uniform(-4, 4, (int(rng.integers(2, 8)), 3)) * cell
                for c in ([0.0, 0.0, 0.0], [1e6, 0.0, 1e6], [0.5e6, 1e6, 0.0])]
    per_point = oracles.brute_sausage_count(lone[:1], r, cell)
    assert kernels.sausage_occupied_count(np.concatenate([lone] + clusters), r, cell) == \
        len(lone) * per_point + sum(oracles.brute_sausage_count(c, r, cell) for c in clusters)


@pytest.mark.usefixtures("checked_union")
def test_sausage_of_a_chain_with_no_gap_to_cut_at():
    # 220000 points 10 cells apart on the diagonal of a cube 2.2e6 cells
    # wide: the grid needs 3 * 22 key bits, and compacting keeps every gap of
    # 10 = 2 * reach.  The balls of radius 4 are disjoint, so the count is
    # 220000 times that of one.
    pts = (10 * np.arange(220_000)[:, None] + 0.5) * np.ones(3)
    started = time.perf_counter()
    count = kernels.sausage_occupied_count(pts, 4.0, 1.0)
    assert time.perf_counter() - started < 10.0
    assert count == 220_000 * oracles.brute_sausage_count(pts[:1], 4.0, 1.0)


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


@pytest.mark.usefixtures("checked_union")
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


@pytest.mark.usefixtures("checked_union")
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


def test_sausage_of_no_points_counts_zero():
    assert kernels.sausage_occupied_count(np.zeros((0, 2)), 1.0, 0.25) == 0


@pytest.mark.parametrize("cell", [-0.25, 0.0, float("nan"), float("inf")])
def test_sausage_refuses_a_cell_that_is_not_positive_and_finite(cell):
    with pytest.raises(DomainError) as ei:
        kernels.sausage_occupied_count(np.zeros((2, 2)), 1.0, cell)
    assert ei.value.code == "bad-scale"


def test_sausage_near_2_52_by_hand():
    # r = 1, cell = 1: a point at x marks the two cells whose centres are
    # x - 0.5 and x + 0.5; with 0.25 on the other axis, those two in each of
    # the lines of cells centred at -0.5 and 0.5.  The oracle shares the
    # float centres, so the counts are given here.
    x = 2.0**52 - 10
    assert kernels.sausage_occupied_count(np.array([[x]]), 1.0, 1.0) == 2
    assert kernels.sausage_occupied_count(np.array([[-x]]), 1.0, 1.0) == 2
    assert kernels.sausage_occupied_count(np.array([[x, 0.25]]), 1.0, 1.0) == 4
    assert kernels.sausage_occupied_count(np.array([[0.25, x]]), 1.0, 1.0) == 4


@pytest.mark.parametrize("pts", [[[2.0**52 - 1]], [[2.0**52 + 3]], [[-2.0**52 - 3]],
                                 [[2.0**52 + 3, 0.25]], [[0.25, 2.0**52 + 3]]])
def test_sausage_refuses_cells_whose_centres_are_not_doubles(pts):
    # from 2^52 on, a centre c + 0.5 is not a double: it rounds to an
    # integer, and a point at 2^52 + 3 counted 4 cells in 1-D and 0 in 2-D
    with pytest.raises(DomainError) as ei:
        kernels.sausage_occupied_count(np.array(pts), 1.0, 1.0)
    assert ei.value.code == "cell-grid-too-large"


def test_sausage_of_a_cell_too_small_for_a_finite_ratio():
    # r / cell overflows to inf: refused as too fine, not rounded to an int
    with pytest.raises(DomainError) as ei:
        fd.sausage_volume(fd.PointCloud.from_points(np.zeros((3, 2))), 1.0, cell=5e-324)
    assert ei.value.code == "sausage-too-fine"
