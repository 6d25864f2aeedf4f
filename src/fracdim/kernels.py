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
"""

import itertools

import numpy as np

from .errors import DomainError


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
    """
    cells = cell_indices(pts, radius)
    keys, mins, widths, strides = pack_cells(cells)
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
    within Euclidean distance ``r`` of some point."""
    pts = np.ascontiguousarray(points, dtype=np.float64)
    n, m = pts.shape
    reach = int(np.ceil(r / cell)) + 1
    base = cell_indices(pts, cell)
    _, mins, _, strides = pack_cells(base, margin=reach)
    r2 = r * r
    grids = np.meshgrid(*([np.arange(-reach, reach + 1)] * m), indexing="ij")
    offsets = np.stack([g.ravel() for g in grids], axis=1).astype(np.int64)
    chunks = []
    pending = 0
    for off in offsets:
        ca = base + off
        d2 = np.zeros(n)
        for a in range(m):
            center = (ca[:, a] + 0.5) * cell
            diff = pts[:, a] - center
            d2 += diff * diff
        hit = d2 <= r2
        if not np.any(hit):
            continue
        keys = (ca[hit] - mins) @ strides
        chunks.append(keys)
        pending += keys.size
        if pending > 4_000_000:
            chunks = [np.unique(np.concatenate(chunks))]
            pending = chunks[0].size
    if not chunks:
        return 0
    return int(np.unique(np.concatenate(chunks)).size)


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
