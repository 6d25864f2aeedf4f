"""Hot counting kernels, one numpy implementation per measure.

Distance convention, shared by every kernel that compares two points: the
squared distance is accumulated axis by axis in axis order,
``d2 = (x_0 - y_0)**2 + (x_1 - y_1)**2 + ...``, and compared with
``radius * radius``.  Packing, thinning and neighbour counts treat a pair as
close iff ``d2 < radius * radius`` (strict, so a pair at exactly the radius
is separated); the sausage marks a cell iff ``d2 <= r * r``.  Candidate
pairs come from an origin-anchored grid of side ``radius``: a point is only
compared with the points of its ``3**m`` neighbour cells.

Greedy packing and thinning are one scan (``_greedy_scan``): visit points in
stored order and keep each eligible one that no earlier kept point is close
to.

The sausage count is a scanline (``sausage_occupied_count``): for each point
and each row of cells in the first ``m - 1`` axes, the marked cells along the
last axis form one run, estimated with ``sqrt`` and made exact by the
``d2 <= r * r`` test at both ends; the count is the size of the union of the
runs.  Its work is ``(2 * reach + 1)^(m - 1)`` rows a point, not the
``(2 * reach + 1)^m`` cells of the window around it.
"""

import itertools

import numpy as np

from .errors import DomainError


# A sausage point scans (2 * reach + 1)^(m - 1) rows of cells; more than this
# many (in 1-D, cells in its one row) is refused.  refine = 64 in 3-D needs
# 131^2 = 17161.
MAX_SAUSAGE_ROWS = 1 << 16
# (point, row) pairs scanned at once, and runs collected before a merge: the
# sausage's memory is bounded whatever the number of points
_SAUSAGE_CHUNK = 1 << 18
_SAUSAGE_MERGE = 1 << 20


def active_backend() -> str:
    """Name of the kernel implementation, recorded in benchmark run records."""
    return "numpy"


# ---------------------------------------------------------------------------
# grids


def cell_indices(points: np.ndarray, width: float) -> np.ndarray:
    """Integer grid cell per point: floor(x / width), origin-anchored."""
    return np.floor(points / width).astype(np.int64)


def pack_cells(cells: np.ndarray, margin: int = 0):
    """Map integer cell tuples to scalar int64 keys.

    Returns ``(keys, mins, widths, strides)`` where a cell ``c`` has key
    ``sum((c - mins) * strides)``.  ``margin`` widens the addressable range on
    each side so that neighbour probes stay collision-free.  Raises
    ``DomainError("cell-grid-too-large")`` when the keys would reach 2^62.
    """
    mins = cells.min(axis=0) - margin
    widths = cells.max(axis=0) + margin - mins + 1
    if int(np.prod(widths.astype(object))) >= (1 << 62):
        raise DomainError("cell-grid-too-large", f"grid widths {widths.tolist()}")
    strides = np.ones_like(widths)
    for a in range(1, len(widths)):
        strides[a] = strides[a - 1] * widths[a - 1]
    keys = (cells - mins) @ strides
    return keys, mins, widths, strides


def _pack_sparse(cells: np.ndarray, near: int, margin: int = 0):
    """``pack_cells(cells, margin)``, compacting a grid too large to pack.

    The compaction re-ranks each axis's distinct coordinates in place, with
    steps of ``min(gap, near + 1)``: differences up to ``near`` are kept and
    larger ones stay larger than ``near``, so cells ``near`` or fewer apart on
    every axis keep their offsets, and each width is at most
    ``(near + 1) * n + 2 * margin``.
    """
    try:
        return pack_cells(cells, margin)
    except DomainError:
        for a in range(cells.shape[1]):
            coords, inverse = np.unique(cells[:, a], return_inverse=True)
            ranks = np.concatenate([[0], np.cumsum(np.minimum(np.diff(coords), near + 1))])
            cells[:, a] = ranks[inverse]
        return pack_cells(cells, margin)


def _neighbourhoods(pts: np.ndarray, radius: float):
    """Points binned by cell of side ``radius``, with each point's neighbour
    cells as ranges of the binned order.

    Returns ``(order, ranges, sizes)``: ``order`` lists point indices sorted
    by cell key, ``ranges`` holds one ``(lo, hi)`` pair of arrays per row of
    neighbour cells, and point ``i`` has the candidates
    ``order[lo[i]:hi[i]]`` over all rows; ``sizes[i]`` is their number, at
    least 1 since it counts ``i`` itself.  Axis 0 has stride 1, so the three
    neighbour cells of a row along axis 0 hold consecutive keys and need one
    range; cells outside the occupied grid are never addressed.

    A grid too large to pack is first compacted (``_pack_sparse``), which
    keeps exactly which cells are neighbours.
    """
    cells = cell_indices(pts, radius)
    keys, mins, widths, strides = _pack_sparse(cells, near=1)
    cells -= mins
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    first = np.maximum(cells[:, 0] - 1, 0)
    last = np.minimum(cells[:, 0] + 1, widths[0] - 1)
    ranges = []
    sizes = np.zeros(len(pts), dtype=np.int64)
    for off in itertools.product((-1, 0, 1), repeat=cells.shape[1] - 1):
        row = cells[:, 1:] + np.array(off, dtype=np.int64)
        valid = np.all((row >= 0) & (row < widths[1:]), axis=1)
        base = row @ strides[1:]
        lo = np.searchsorted(sorted_keys, base + first, side="left")
        hi = np.where(valid, np.searchsorted(sorted_keys, base + last, side="right"), lo)
        sizes += hi - lo
        ranges.append((lo, hi))
    return order, ranges, sizes


def _close(pts: np.ndarray, i: int, order, ranges, rad2: float):
    """Candidates of point ``i`` and the mask of those with ``d2 < rad2``."""
    js = np.concatenate([order[lo[i]:hi[i]] for lo, hi in ranges])
    d2 = np.zeros(js.size)
    for a in range(pts.shape[1]):
        diff = pts[i, a] - pts[js, a]
        d2 += diff * diff
    return js, d2 < rad2


def _greedy_scan(points: np.ndarray, radius: float, eligible: np.ndarray) -> np.ndarray:
    """Keep-mask of the greedy scan: in stored order, keep each eligible point
    that no earlier kept point is closer to than ``radius``."""
    pts = np.ascontiguousarray(points, dtype=np.float64)
    order, ranges, sizes = _neighbourhoods(pts, radius)
    rad2 = radius * radius
    removed = ~np.asarray(eligible, dtype=bool)
    kept = np.zeros(len(pts), dtype=bool)
    for i in range(len(pts)):
        if removed[i]:
            continue
        kept[i] = True
        if sizes[i] > 1:
            js, close = _close(pts, i, order, ranges, rad2)
            removed[js[close]] = True
    return kept


# ---------------------------------------------------------------------------
# public kernels


def greedy_pack_mask(points: np.ndarray, eps: float) -> np.ndarray:
    """Greedy maximal 2*eps-separated subset, scanning points in stored order.

    Returns a boolean keep-mask.  A point is kept iff its Euclidean distance
    to every previously kept point is >= 2*eps.
    """
    return _greedy_scan(points, 2.0 * eps, np.ones(len(points), dtype=bool))


def thin_select_mask(points: np.ndarray, radius: float, good: np.ndarray) -> np.ndarray:
    """Scan good indices in order; select survivors, removing strict-<radius
    neighbours (good or not) of each selection."""
    return _greedy_scan(points, radius, good)


def neighbor_counts(points: np.ndarray, radius: float) -> np.ndarray:
    """Per-point count of other points at strict Euclidean distance < radius."""
    pts = np.ascontiguousarray(points, dtype=np.float64)
    order, ranges, sizes = _neighbourhoods(pts, radius)
    rad2 = radius * radius
    out = np.zeros(len(pts), dtype=np.int64)
    for i in range(len(pts)):
        if sizes[i] > 1:
            js, close = _close(pts, i, order, ranges, rad2)
            out[i] = np.count_nonzero(close & (js != i))
    return out


def sausage_occupied_count(points: np.ndarray, r: float, cell: float) -> int:
    """Number of origin-anchored grid cells of side ``cell`` whose center lies
    within Euclidean distance ``r`` of some point.

    Only cells within ``reach = ceil(r / cell) + 1`` cells of a point's own
    cell on every axis are tested.  The count is a scanline: for each point
    and each row of cells in the first ``m - 1`` axes, the marked cells along
    the last axis form one run (see ``_row_runs``), and the count is the size
    of the union of all runs.  The runs are taken on packed cell keys, in
    which the last axis has stride 1 and each row owns a key range wider than
    any run in it: sorting the keys sorts by (row, start), and the running
    max of run ends never carries from one row into the next.  A grid too
    large to pack is compacted first (``_pack_sparse``).

    Raises ``DomainError("sausage-too-fine")`` when a point would scan more
    than ``MAX_SAUSAGE_ROWS`` rows (in 1-D, more cells in its one row).
    """
    pts = np.ascontiguousarray(points, dtype=np.float64)
    n, m = pts.shape
    reach = int(np.ceil(r / cell)) + 1
    width = 2 * reach + 1
    if width ** max(m - 1, 1) > MAX_SAUSAGE_ROWS:
        unit = "cells" if m == 1 else "rows of cells"
        raise DomainError("sausage-too-fine",
                          f"r/cell = {r / cell:g} in {m}-D: over {MAX_SAUSAGE_ROWS} {unit} a point")
    base = cell_indices(pts, cell)
    # keys of the (possibly compacted) cells, last axis first so that it has
    # stride 1; the distance tests use the true cells in ``base``
    keys, _, _, strides = _pack_sparse(base[:, ::-1].copy(), near=2 * reach, margin=reach)
    steps = np.arange(-reach, reach + 1, dtype=np.int64)
    row_keys = np.zeros(1, dtype=np.int64)
    for a in range(m - 1):
        row_keys = (row_keys[:, None] + steps * strides[m - 1 - a]).ravel()
    chunk = max(1, _SAUSAGE_CHUNK // row_keys.size)
    starts, ends = [], []
    pending = 0
    for s in range(0, n, chunk):
        point, row, lo, hi = _row_runs(pts[s:s + chunk], base[s:s + chunk], steps, cell, r * r)
        start = keys[s + point] + row_keys[row] + (lo - base[s + point, -1])
        starts.append(start)
        ends.append(start + (hi - lo))
        pending += start.size
        if pending > _SAUSAGE_MERGE:
            merged = _union(np.concatenate(starts), np.concatenate(ends))
            starts, ends = [merged[0]], [merged[1]]
            pending = merged[0].size
    start, end = _union(np.concatenate(starts), np.concatenate(ends))
    return int((end - start).sum()) + start.size


def _row_runs(pts: np.ndarray, base: np.ndarray, steps: np.ndarray, cell: float, r2: float):
    """The marked cells of each (point, row) pair, as runs along the last axis.

    Rows are the cells ``base[:, :-1] + offset`` for offsets in ``steps`` on
    each of the first ``m - 1`` axes, numbered in row-major offset order.
    The partial ``d2`` of a row sums the axis terms in axis order, as the full
    ``d2`` does, so adding the last axis term gives the full ``d2`` bit for
    bit, and a row whose partial already exceeds ``r2`` is dropped.  Along
    the last axis, ``d2 <= r2`` holds on one run of cells: every float
    operation in it is monotone in the distance from the point.  The run is
    estimated with ``sqrt(r2 - partial)``; each end is then widened while
    the next cell out is marked and narrowed while it is not marked, which
    is exact whenever the estimate is at most one cell off.  Cells stay
    within ``steps`` of ``base`` on the last axis too.

    Returns ``(point, row, lo, hi)`` for the pairs with a non-empty run.
    """
    k, m = pts.shape
    partial = np.zeros((k, 1))
    for a in range(m - 1):
        diff = pts[:, a, None] - ((base[:, a, None] + steps) + 0.5) * cell
        partial = (partial[:, :, None] + (diff * diff)[:, None, :]).reshape(k, -1)
    point, row = np.nonzero(partial <= r2)
    partial = partial[point, row]
    x, b = pts[point, -1], base[point, -1]
    first, last = b + steps[0], b + steps[-1]
    half = np.sqrt(r2 - partial)
    lo = np.clip(np.ceil((x - half) / cell - 0.5), first, last).astype(np.int64)
    hi = np.clip(np.floor((x + half) / cell - 0.5), first, last).astype(np.int64)

    def marked(c, i):
        diff = x[i] - (c + 0.5) * cell
        return partial[i] + diff * diff <= r2

    for end, step, edge in ((lo, -1, first), (hi, 1, last)):
        _walk(end, step, lambda i: (end[i] != edge[i]) & marked(end[i] + step, i))
    for end, step in ((lo, 1), (hi, -1)):
        _walk(end, step, lambda i: (lo[i] <= hi[i]) & ~marked(end[i], i))
    keep = lo <= hi
    return point[keep], row[keep], lo[keep], hi[keep]


def _walk(end: np.ndarray, step: int, move) -> None:
    """Add ``step`` to ``end[i]`` while ``move(i)`` holds, for each ``i``."""
    i = np.flatnonzero(move(np.arange(end.size)))
    while i.size:
        end[i] += step
        i = i[move(i)]


def _union(start: np.ndarray, end: np.ndarray):
    """Disjoint runs ``[start, end]`` whose union is that of the given runs."""
    order = np.argsort(start)
    start, end = start[order], end[order]
    reached = np.maximum.accumulate(end)
    new_run = np.ones(start.size, dtype=bool)
    new_run[1:] = start[1:] > reached[:-1] + 1
    first = np.flatnonzero(new_run)
    return start[first], np.maximum.reduceat(end, first)


def oscillation_counts(values: np.ndarray, n: int) -> np.ndarray:
    """Column counts max(1, ceil(2^n * (max - min))) over the 2^n closed
    dyadic intervals, from values sampled on a uniform grid over [0, 1]."""
    vals = np.ascontiguousarray(values, dtype=np.float64)
    n_cols = 1 << n
    step = (vals.size - 1) // n_cols
    body = vals[:-1].reshape(n_cols, step)
    right = vals[step::step]
    mx = np.maximum(body.max(axis=1), right)
    mn = np.minimum(body.min(axis=1), right)
    w = np.ceil(float(n_cols) * (mx - mn))
    return np.maximum(w, 1.0).astype(np.int64)


def distinct_cell_count(cells: np.ndarray) -> int:
    """Number of distinct integer cell tuples (rows).

    Rows are packed into scalar keys for one fast ``np.unique``; a grid too
    large to pack is counted row-wise instead.
    """
    cells = np.ascontiguousarray(cells, dtype=np.int64)
    try:
        keys = pack_cells(cells)[0]
    except DomainError:
        return int(np.unique(cells, axis=0).shape[0])
    return int(np.unique(keys).size)
