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

Box counts de-duplicate cells (``distinct_cells``), and a sweep over the
scales ``eps, 2 * eps, 4 * eps, ...`` de-duplicates the cells of the points
only at the finest scale: each coarser scale takes the distinct cells of the
one before, halved (``coarser_cells``), which is exact because ``x / eps``
and ``x / (2 * eps)`` differ by an exact factor 2 and ``floor(floor(y) / 2)
== floor(y / 2)``.

Cells are int64 below ``2^62`` in magnitude and float floors beyond: box
counting de-duplicates those row-wise, the scans compact them (see
``_packed_groups``), and the sausage refuses them.  A grid too large to
pack into int64 keys is compacted, and cut into groups that cannot interact
when even that is too large.
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
# cell indices at least this large in magnitude stay float floors
_CELL_LIMIT = 2.0 ** 62
# packed cell keys stay below this
_KEY_LIMIT = 1 << 62


def active_backend() -> str:
    """Name of the kernel implementation, recorded in benchmark run records."""
    return "numpy"


# ---------------------------------------------------------------------------
# grids


def cell_indices(points: np.ndarray, width: float) -> np.ndarray:
    """Grid cell per point: floor(x / width), origin-anchored.

    The cells are int64 when every floor is below ``2^62`` in magnitude, and
    otherwise the float floors themselves (see ``_as_cells``).
    """
    # an overflow gives an infinite floor, which _as_cells refuses
    with np.errstate(over="ignore"):
        return _as_cells(np.floor(points / width))


def _as_cells(floors: np.ndarray) -> np.ndarray:
    """Float floors as int64 cells, or kept as floats when one of them is
    ``2^62`` or more in magnitude.

    Float floors are exact integers, so kept floats still name the cells
    exactly; box counting de-duplicates them row-wise, and the compaction in
    ``_compact`` turns them into small int64 offsets.  Below ``2^62``,
    cell differences, widths and margins stay within int64.  Raises
    ``DomainError("non-finite-cell")`` for a NaN or infinite floor: a
    coordinate that is not finite, or an ``x / width`` that overflows.
    """
    lo, hi = floors.min(initial=0.0), floors.max(initial=0.0)
    if -_CELL_LIMIT < lo and hi < _CELL_LIMIT:
        return floors.astype(np.int64)
    # NaN fails both comparisons above and is caught here
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise DomainError("non-finite-cell", "floor(x / width) is not finite")
    return floors


def pack_cells(cells: np.ndarray, margin: int = 0):
    """Map integer cell tuples to scalar int64 keys.

    Returns ``(keys, mins, widths, strides)`` where a cell ``c`` has key
    ``sum((c - mins) * strides)``.  ``margin`` widens the addressable range on
    each side so that neighbour probes stay collision-free.  Raises
    ``DomainError("cell-grid-too-large")`` when the keys would reach 2^62, or
    when the cells are float floors (``cell_indices`` beyond int64).
    """
    if cells.dtype.kind == "f":
        raise DomainError("cell-grid-too-large", "cell indices of 2^62 or more")
    # column by column: axis-0 reductions and an int64 matmul over a
    # C-ordered (n, m) array are several times slower
    cols = [cells[:, a] for a in range(cells.shape[1])]
    mins = np.array([c.min() for c in cols]) - margin
    # Python ints: a width of 2^63 or more must not wrap
    maxs = np.array([int(c.max()) for c in cols], dtype=object)
    widths = maxs + (margin + 1) - mins.astype(object)
    if np.prod(widths) >= _KEY_LIMIT:
        raise DomainError("cell-grid-too-large", f"grid widths {widths.tolist()}")
    widths = widths.astype(np.int64)
    strides = np.ones_like(widths)
    keys = cols[0] - mins[0]
    for a in range(1, len(cols)):
        strides[a] = strides[a - 1] * widths[a - 1]
        keys += (cols[a] - mins[a]) * strides[a]
    return keys, mins, widths, strides


def _packed_groups(cells: np.ndarray, near: int, margin: int = 0):
    """Split the rows of ``cells`` into groups whose grids pack, and pack each.

    Yields ``(index, cells, keys, mins, widths, strides)`` per group: its row
    indices, its int64 cells, and ``pack_cells`` of those with ``margin``.
    Cells of different groups are more than ``near`` apart on some axis.
    Usually the whole array is one group with its own cells.  A grid too
    large to pack is compacted (``_compact``), which keeps which cells are
    ``near`` or fewer apart on every axis; a compacted grid still too large
    is cut in two at a gap of more than ``near`` on some axis, as close to
    the middle of the rows as the gaps allow, and each part is packed the
    same way.  Raises ``DomainError("cell-grid-too-large")`` only for a part
    with no such gap on any axis.
    """
    parts = [(np.arange(len(cells)), cells)]
    while parts:
        index, part = parts.pop()
        try:
            packed = pack_cells(part, margin)
        except DomainError:
            part = _compact(part, near)
            try:
                packed = pack_cells(part, margin)
            except DomainError:
                parts += _halves(index, part, near)
                continue
        yield (index, part) + packed


def _compact(cells: np.ndarray, near: int) -> np.ndarray:
    """Each axis's distinct coordinates re-ranked with steps of ``min(gap,
    near + 1)``: differences up to ``near`` are kept and larger ones stay
    larger than ``near``, and each width is at most ``(near + 1) * n``.
    Float floors become int64 here: a difference up to ``near + 1`` of two
    of them is computed exactly, and a larger one rounds to at least that.
    """
    out = np.empty(cells.shape, dtype=np.int64)
    for a in range(cells.shape[1]):
        coords, inverse = np.unique(cells[:, a], return_inverse=True)
        ranks = np.concatenate([[0], np.cumsum(np.minimum(np.diff(coords), near + 1))])
        out[:, a] = ranks.astype(np.int64)[inverse]
    return out


def _halves(index: np.ndarray, cells: np.ndarray, near: int) -> list:
    """``(index, cells)`` of the two parts of a cut at a gap of more than
    ``near`` on one axis, the cut with the most even parts over all axes."""
    n = len(cells)
    best = None
    for a in range(cells.shape[1]):
        col = np.sort(cells[:, a])
        after = np.flatnonzero(np.diff(col) > near) + 1
        if after.size:
            k = after[np.argmin(np.abs(2 * after - n))]
            if best is None or abs(2 * k - n) < best[0]:
                best = (abs(2 * k - n), a, col[k - 1])
    if best is None:
        raise DomainError("cell-grid-too-large", f"{n} cells with no gap over {near} to cut at")
    _, a, cut = best
    low = cells[:, a] <= cut
    return [(index[low], cells[low]), (index[~low], cells[~low])]


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

    A grid too large to pack is compacted or split into groups first
    (``_packed_groups``), which keeps exactly which cells are neighbours;
    each group takes its own stretch of ``order``.
    """
    n, m = pts.shape
    offsets = list(itertools.product((-1, 0, 1), repeat=m - 1))
    order = np.empty(n, dtype=np.int64)
    lo = np.empty((len(offsets), n), dtype=np.int64)
    hi = np.empty((len(offsets), n), dtype=np.int64)
    done = 0
    for index, cells, keys, mins, widths, strides in _packed_groups(cell_indices(pts, radius), 1):
        cells = cells - mins
        sub = np.argsort(keys, kind="stable")
        order[done:done + len(index)] = index[sub]
        sorted_keys = keys[sub]
        first = np.maximum(cells[:, 0] - 1, 0)
        last = np.minimum(cells[:, 0] + 1, widths[0] - 1)
        for r, off in enumerate(offsets):
            row = cells[:, 1:] + np.array(off, dtype=np.int64)
            valid = np.all((row >= 0) & (row < widths[1:]), axis=1)
            base = row @ strides[1:]
            start = np.searchsorted(sorted_keys, base + first, side="left")
            stop = np.where(valid, np.searchsorted(sorted_keys, base + last, side="right"), start)
            lo[r, index] = start + done
            hi[r, index] = stop + done
        done += len(index)
    return order, list(zip(lo, hi)), (hi - lo).sum(axis=0)


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
    large to pack is compacted or split into groups first
    (``_packed_groups``), whose counts add up.

    Raises ``DomainError("sausage-too-fine")`` when a point would scan more
    than ``MAX_SAUSAGE_ROWS`` rows (in 1-D, more cells in its one row), and
    ``DomainError("cell-grid-too-large")`` for cells of ``2^62`` or more,
    whose centres float arithmetic cannot tell apart.
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
    if base.dtype.kind == "f":
        raise DomainError("cell-grid-too-large", "cell indices of 2^62 or more")
    steps = np.arange(-reach, reach + 1, dtype=np.int64)
    count = 0
    # keys of the (possibly compacted) cells, last axis first so that it has
    # stride 1; the distance tests use the true cells in ``base``.  The
    # windows of points in different groups share no cell.
    for index, _, keys, _, _, strides in _packed_groups(base[:, ::-1], 2 * reach, reach):
        count += _group_count(pts, base, index, keys, strides, steps, cell, r * r)
    return count


def _group_count(pts, base, index, keys, strides, steps, cell: float, r2: float) -> int:
    """The sausage count of the points ``index`` of one group of
    ``_packed_groups``, ``keys`` and ``strides`` packing their cells with the
    last axis first.

    Points go in key order, so the runs of every later point start at or
    above ``key - reach * sum(strides)`` of the next one: at each merge, the
    runs that end below that are counted and dropped, and only the runs near
    the scan front are kept.
    """
    m = pts.shape[1]
    sub = np.argsort(keys)
    keys, index = keys[sub], index[sub]
    pts, base = pts[index], base[index]
    row_keys = np.zeros(1, dtype=np.int64)
    for a in range(m - 1):
        row_keys = (row_keys[:, None] + steps * strides[m - 1 - a]).ravel()
    span = int(steps[-1]) * int(strides.sum())
    chunk = max(1, _SAUSAGE_CHUNK // row_keys.size)
    starts, ends = [], []
    pending = count = 0
    for s in range(0, len(pts), chunk):
        point, row, lo, hi = _row_runs(pts[s:s + chunk], base[s:s + chunk], steps, cell, r2)
        start = keys[s + point] + row_keys[row] + (lo - base[s + point, -1])
        starts.append(start)
        ends.append(start + (hi - lo))
        pending += start.size
        if pending > _SAUSAGE_MERGE:
            start, end = _union(np.concatenate(starts), np.concatenate(ends))
            done = end < keys[min(s + chunk, len(keys) - 1)] - span
            count += int((end[done] - start[done]).sum()) + int(done.sum())
            starts, ends = [start[~done]], [end[~done]]
            pending = starts[0].size
    start, end = _union(np.concatenate(starts), np.concatenate(ends))
    return count + int((end - start).sum()) + start.size


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
    """Number of distinct integer cell tuples (rows)."""
    return len(distinct_cells(np.asarray(cells)))


def distinct_cells(cells: np.ndarray) -> np.ndarray:
    """The distinct rows of a cell array.

    Rows are packed into scalar keys for one sort and unpacked again; a grid
    too large to pack, or float floors, are de-duplicated row-wise instead.
    """
    try:
        keys, mins, widths, _ = pack_cells(cells)
    except DomainError:
        return np.unique(cells, axis=0)
    # sort and mask: several times faster than np.unique on int64 keys
    keys = np.sort(keys)
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    rows = np.empty((keys.size, cells.shape[1]), dtype=np.int64)
    for a in range(cells.shape[1]):
        keys, rows[:, a] = np.divmod(keys, widths[a])
    return rows + mins


def coarser_cells(cells: np.ndarray) -> np.ndarray:
    """The cells of a grid twice as coarse: ``floor(c / 2)`` per axis.

    numpy's ``>>`` on int64 is floor division, negative cells included; float
    floors (cells of ``2^62`` or more) halve exactly as floats and become
    int64 once they fit.
    """
    if cells.dtype.kind == "f":
        return _as_cells(np.floor(cells / 2))
    return cells >> 1
