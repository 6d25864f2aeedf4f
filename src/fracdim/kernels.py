"""Hot counting kernels, one numpy implementation per measure.

Distance convention, shared by every kernel that compares two points: the
squared distance is accumulated axis by axis in axis order,
``d2 = (x_0 - y_0)**2 + (x_1 - y_1)**2 + ...``, and compared with
``radius * radius``.  Packing, thinning and neighbour counts treat a pair as
close iff ``d2 < radius * radius`` (strict, so a pair at exactly the radius
is separated); the sausage marks a cell iff ``d2 <= r * r``.  A radius whose
square is not a positive, normal, finite double is refused (``_square``).
Candidate pairs come from an origin-anchored grid of side ``radius``: a
point is only compared with the points of its neighbour cells on at most
three axes (``_neighbourhoods``).

Greedy packing and thinning selection are one greedy scan
(``_greedy_scan``): in stored order, keep each eligible point that no earlier
kept point is close to.  Where the candidates total at most
``_BULK_CANDIDATES`` a point, the scan is resolved in bulk rounds over the
earlier close pairs (``_bulk_rounds``): an undecided point with a kept
earlier neighbour is removed, and one whose earlier neighbours are all
removed is kept.  The rounds needed are the longest chain of such
neighbours, so after ``_MAX_ROUNDS`` the points still undecided go, in
stored order, to the scan loop, which visits every point when the
candidates are denser.  Both give the same mask.  Neighbour counts do not
depend on any order.  They and the pairs of the rounds come from one pass
over the candidate pairs (``_close_chunks``), chunked by a pair budget
(``_PAIR_CHUNK``); a count subtracts the self pair of each point.

The sausage count is a scanline (``sausage_occupied_count``): for each point
and each row of cells in the first ``m - 1`` axes, the marked cells along the
last axis form one run, estimated with ``sqrt`` and made exact by the
``d2 <= r * r`` test at both ends; the count is the size of the union of the
runs.  Its work is ``(2 * reach + 1)^(m - 1)`` rows a point, not the
``(2 * reach + 1)^m`` cells of the window around it.  The points go in key
order, in chunks of ``_PAIR_CHUNK`` (point, row) pairs, whose runs are built
row by row on whole arrays (``_row_runs``): the partial ``d2`` of every
(row, point) pair is one array, the end tests run on all runs at once, and
only the few ends that move are walked on by index.  Each chunk is merged at
once into the runs kept at the scan front (``_group_count``).

Every grid is keyed one way (``pack_cells``): axis ``a`` gets a bit field
of ``bit_length(max_a - min_a + 2 * margin + 1)`` bits holding ``c_a - min_a
+ margin``, axis 0 lowest, and the fields are concatenated into one
``uint32`` or ``uint64`` key below ``_KEY_LIMIT``.  Keys sort like cell
tuples with the last axis most significant, and within the margin a cell's
neighbour is its key plus a constant ``sum(o_a << shift_a)``: the scans pack
with a margin of 1, so each row of neighbour cells is the keys ``base - 1 ..
base + 1``, and the sausage with a margin of ``reach``, so its rows have the
strides ``1 << shift``.  Keys are filled into one array a chunk of points at
a time, column by column, through reused float and int64 buffers; given
coordinate columns and a width, the chunk floors the points itself, and the
least and greatest cells are the floors of each column's bounds, as
``floor(x / w)`` is monotone.  Box counts keep the occupied cells as sorted
distinct keys (``box_keys``, margin 0), packed from a cloud's columns with
no temporary the size of the cloud.  A sweep over the scales ``eps, 2 *
eps, 4 * eps, ...`` floors the points only at the finest scale: each coarser
scale halves the keys of the one before into one new array (``coarser_keys``
adds the carries into it, then shifts and masks it in place), then sorts it
and drops adjacent duplicates.  This is exact: ``x / eps`` and ``x
/ (2 * eps)`` differ by an exact factor 2, so ``floor(x / (2 * eps)) ==
floor(floor(x / eps) / 2)``, and with ``u = c - min``, ``floor((u + min) /
2) == ((u + (min & 1)) >> 1) + (min >> 1)``; the field has room for the
carried ``u + 1``.  Keys are never unpacked into cell rows.

A cell is a float floor ``floor(x / w)`` (``cell_indices``), an exact
integer at every magnitude; cells become integers only in ``pack_cells``,
in ``_compact`` and in the sausage.  ``pack_cells`` refuses cells of
``2^62`` or more in magnitude, as it refuses fields of more than 63 bits.
Box counting counts such grids from the float floors of the points
(``distinct_cell_count``); the scans compact them, and the sausage refuses
cells from ``2^52`` on, whose centres are not doubles.  The scans bin the
points on the ``_BIN_AXES`` axes of widest span: a grid too large to pack is
compacted, and loses its narrowest binned axis while even that is too large,
so the scans never cut and never refuse a grid.  The sausage packs every
axis; its grid, when too large, is compacted once and cut anywhere into
pieces that count their own cells (``sausage_occupied_count``).
"""

import itertools
import sys
from typing import NamedTuple

import numpy as np

from .errors import DomainError


# A sausage point scans (2 * reach + 1)^(m - 1) rows of cells; more than this
# many (in 1-D, cells in its one row) is refused.  refine = 64 in 3-D needs
# 131^2 = 17161.
MAX_SAUSAGE_ROWS = 1 << 16
# the one work budget: candidate pairs a neighbour count or a bulk scan tests
# at once, or (point, row) pairs the sausage scans and merges at once; memory
# is bounded by this, or by one point's candidates in one range or its rows.
# pack_cells also takes _PAIR_CHUNK // 8 points a chunk, so its float buffer
# is _PAIR_CHUNK bytes: changing the budget changes the box-sweep chunk too
_PAIR_CHUNK = 1 << 18
# a greedy scan resolves in bulk rounds when its candidates total at most
# this many a point, which also bounds the memory of its pairs; bulk won at
# 3-23 candidates a point and tied or lost from about 43 up
_BULK_CANDIDATES = 32
# bulk rounds before the scan finishes the points still undecided: a chain
# of close points needs a round a point
_MAX_ROUNDS = 32
# pack_cells refuses cells at least this large in magnitude
_CELL_LIMIT = 2.0 ** 62
# packed cell keys stay below this
_KEY_LIMIT = 1 << 63
# the scans bin points on this many axes at most, the widest: 3^(k - 1)
# ranges a point, whatever the dimension
_BIN_AXES = 3


def active_backend() -> str:
    """Name of the kernel implementation, recorded in benchmark run records."""
    return "numpy"


# ---------------------------------------------------------------------------
# grids


def cell_indices(points: np.ndarray, width: float) -> np.ndarray:
    """Grid cell per point: the float floors ``floor(x / width)``,
    origin-anchored.

    A float floor is an exact integer at every magnitude, so it names its
    cell exactly.  Raises ``DomainError("non-finite-cell")`` for a NaN or
    infinite floor: a coordinate that is not finite, or an ``x / width``
    that overflows.
    """
    # an overflow gives an infinite floor, which is refused below
    with np.errstate(over="ignore"):
        floors = np.floor(points / width)
    if not np.isfinite(floors).all():
        raise DomainError("non-finite-cell", "floor(x / width) is not finite")
    return floors


class KeyLayout(NamedTuple):
    """Where each axis sits in a packed cell key: the cell of axis ``a`` is
    ``mins[a]`` plus the bits of the key from ``shifts[a]`` up to the next
    field."""

    mins: tuple  # Python ints
    shifts: tuple  # axis 0 at bit 0


def pack_cells(cells, margin: int = 0, width: float | None = None, bounds=None):
    """Cell tuples as scalar keys of bit fields: ``(keys, layout)``.

    ``cells`` is an ``(n, m)`` array or a list of ``m`` columns of cells
    (float floors, or int64 in the sausage), or, given a ``width``, of
    coordinates whose cells are ``floor(x / width)`` as in
    ``cell_indices``.  ``bounds``, if known, is each column's (min, max);
    with a width, their floors are the least and greatest cells, as
    ``floor(x / width)`` is monotone in ``x``.

    Axis ``a`` gets a field of ``bit_length(max_a - min_a + 2 * margin + 1)``
    bits holding ``c_a - min_a + margin``, axis 0 lowest, so
    ``layout.mins[a]`` is ``min_a - margin``, keys sort like cell tuples
    with the last axis most significant, and the cell ``o_a`` cells off on
    each axis, ``|o_a| <= margin``, has the key plus ``sum(o_a <<
    shift_a)``.  Keys are ``uint32`` when the fields total at most 32 bits,
    and ``uint64`` otherwise.  Raises ``DomainError("cell-grid-too-large")``
    when a cell is ``2^62`` or more in magnitude or not finite, or when the
    keys would pass ``_KEY_LIMIT``.

    Keys are filled column by column in chunks of ``_PAIR_CHUNK // 8``
    points, whose float buffer takes ``_PAIR_CHUNK`` bytes: a chunk is
    divided and floored in it, cast to int64 (exact below ``2^62``), offset
    there (exact for every field, where a float offset of 53 bits or more
    would round) and cast into the key word.
    """
    if isinstance(cells, np.ndarray):
        # column by column: axis-0 reductions over a C-ordered (n, m) array
        # are several times slower
        cells = [cells[:, a] for a in range(cells.shape[1])]
    if bounds is None:
        bounds = [(col.min(), col.max()) for col in cells]
    mins, bits = [], []
    for lo, hi in bounds:
        if width is not None:
            # an overflow gives an infinite floor, which is refused below
            with np.errstate(over="ignore"):
                lo, hi = np.floor(np.float64(lo) / width), np.floor(np.float64(hi) / width)
        # NaN fails both comparisons
        if not (-_CELL_LIMIT < lo and hi < _CELL_LIMIT):
            raise DomainError("cell-grid-too-large", "cell indices of 2^62 or more")
        mins.append(int(lo) - margin)
        bits.append((int(hi) + margin + 1 - mins[-1]).bit_length())
    if 1 << sum(bits) > _KEY_LIMIT:
        raise DomainError("cell-grid-too-large", f"key fields of {bits} bits")
    shifts = tuple(itertools.accumulate(bits[:-1], initial=0))
    dtype = np.uint32 if sum(bits) <= 32 else np.uint64
    n = len(cells[0])
    size = min(n, max(1, _PAIR_CHUNK // 8))
    keys, word = np.empty(n, dtype=dtype), np.empty(size, dtype=dtype)
    floats, wide = np.empty(size), np.empty(size, dtype=np.int64)
    for s in range(0, n, size):
        out = keys[s:s + size]
        f, w, i = floats[:out.size], word[:out.size], wide[:out.size]
        for col, lo, shift in zip(cells, mins, shifts):
            field = col[s:s + size]
            if width is not None:
                field = np.floor(np.divide(field, width, out=f), out=f)
            i[...] = field
            np.subtract(i, lo, out=i)
            if shift == 0:
                out[...] = i
            else:
                w[...] = i
                w <<= dtype(shift)
                out |= w
    return keys, KeyLayout(tuple(mins), shifts)


def _compact(cells: np.ndarray, near: int) -> np.ndarray:
    """Each axis's distinct coordinates re-ranked with steps of ``min(gap,
    near + 1)``: differences up to ``near`` are kept and larger ones stay
    larger than ``near``, and each width is at most ``(near + 1) * n``.
    Cells, float floors at any magnitude, become int64 ranks here: a
    difference up to ``near + 1`` of two floors is computed exactly, and a
    larger one rounds to at least that.
    """
    out = np.empty(cells.shape, dtype=np.int64)
    for a in range(cells.shape[1]):
        coords, inverse = np.unique(cells[:, a], return_inverse=True)
        ranks = np.concatenate([[0], np.cumsum(np.minimum(np.diff(coords), near + 1))])
        out[:, a] = ranks.astype(np.int64)[inverse]
    return out


def _neighbourhoods(pts: np.ndarray, radius: float):
    """Points binned by cell of side ``radius`` on at most ``_BIN_AXES``
    axes, those of widest span in cells, taken in axis order.

    Returns ``(order, ranges, sizes)``: ``order`` lists point indices sorted
    by cell key, and point ``i`` has the candidates ``order[lo[i]:hi[i]]``
    over the at most 9 ``(lo, hi)`` pairs of ``ranges``, one per row of
    neighbour cells; ``sizes[i]`` is their number, at least 1 since it
    counts ``i``.  The cells pack with a margin of 1 (``pack_cells``), so a
    row is the keys ``base - 1 .. base + 1`` for ``base`` the point's key
    plus a constant offset.  A grid too large to pack is compacted, and
    while even that is too large the narrowest binned axis is dropped; one
    compacted axis is at most ``2 * n`` wide.  Either way the candidates
    include every point closer than ``radius``, and ``_close`` tests every
    axis.
    """
    cells = cell_indices(pts, radius)
    span = cells.max(axis=0) - cells.min(axis=0)
    axes = np.sort(np.argsort(-span, kind="stable")[:_BIN_AXES])
    cells = cells[:, axes]
    try:
        keys, layout = pack_cells(cells, 1)
    except DomainError:
        cells = _compact(cells, 1)
        while True:
            try:
                keys, layout = pack_cells(cells, 1)
                break
            except DomainError:
                drop = np.argmin(span[axes])
                axes, cells = np.delete(axes, drop), np.delete(cells, drop, axis=1)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    # every field holds at least 1, so the row keys from the lowest corner
    # of the neighbourhood up never wrap; sorted needles search faster, and
    # their ends go back to the points through ``order``
    corner = sorted_keys - sum(1 << shift for shift in layout.shifts)
    ranges = []
    for off in itertools.product((0, 1, 2), repeat=len(layout.shifts) - 1):
        row = corner + sum(o << shift for o, shift in zip(off, layout.shifts[1:]))
        lo, hi = np.empty_like(order), np.empty_like(order)
        lo[order] = np.searchsorted(sorted_keys, row, side="left")
        row += 2
        hi[order] = np.searchsorted(sorted_keys, row, side="right")
        ranges.append((lo, hi))
    return order, ranges, sum(hi - lo for lo, hi in ranges)


def _close(pts: np.ndarray, i: int, order, ranges, rad2: float):
    """Candidates of point ``i`` and the mask of those with ``d2 < rad2``,
    for the greedy scan."""
    js = np.concatenate([order[lo[i]:hi[i]] for lo, hi in ranges])
    d2 = np.zeros(js.size)
    for a in range(pts.shape[1]):
        diff = pts[i, a] - pts[js, a]
        d2 += diff * diff
    return js, d2 < rad2


def _square(radius: float) -> float:
    """``radius * radius``, which the distance tests compare ``d2`` with.

    Raises ``DomainError("bad-scale")`` unless it is a positive, normal,
    finite double: a square that underflows to a subnormal or zero, or
    overflows, would mark the wrong pairs and cells.
    """
    square = float(radius) * float(radius)
    if not sys.float_info.min <= square <= sys.float_info.max:
        raise DomainError("bad-scale", f"radius {radius!r} squares to {square!r}, "
                          "not a positive normal finite double")
    return square


def _greedy_scan(points: np.ndarray, radius: float, eligible: np.ndarray) -> np.ndarray:
    """Keep-mask of the greedy scan: in stored order, keep each eligible point
    that no earlier kept point is closer to than ``radius``.

    Where the candidates total at most ``_BULK_CANDIDATES`` a point, most
    points are decided in bulk rounds (``_bulk_rounds``) and the scan visits
    only those still undecided; otherwise it visits every point.  Raises
    ``DomainError("bad-shape")`` unless ``eligible`` has shape ``(n,)``.
    """
    rad2 = _square(radius)
    pts = np.ascontiguousarray(points, dtype=np.float64)
    n = len(pts)
    eligible = np.asarray(eligible, dtype=bool)
    if eligible.shape != (n,):
        raise DomainError("bad-shape", f"eligible mask of shape {eligible.shape} for {n} points")
    kept = np.zeros(n, dtype=bool)
    if n == 0:
        return kept
    order, ranges, sizes = _neighbourhoods(pts, radius)
    removed = ~eligible
    todo = range(n)
    if sizes.sum() <= _BULK_CANDIDATES * n:
        todo = _bulk_rounds(pts, order, ranges, rad2, kept, removed).tolist()
    # a candidate far off on an axis that is not binned may square to inf,
    # which is not close
    with np.errstate(over="ignore"):
        for i in todo:
            if removed[i]:
                continue
            kept[i] = True
            if sizes[i] > 1:
                js, close = _close(pts, i, order, ranges, rad2)
                removed[js[close]] = True
    return kept


def _bulk_rounds(pts, order, ranges, rad2: float, kept: np.ndarray, removed: np.ndarray):
    """Decide the greedy scan in rounds over its earlier close pairs, in place.

    The pairs are ``(j, i)`` with ``j < i``, ``d2 < rad2`` and neither point
    ``removed`` on entry (the ineligible ones).  In each round, an undecided
    point with a kept earlier neighbour is removed, and one whose earlier
    neighbours are all removed is kept: both are the scan's own choices.
    Before each round, the pairs whose source is removed or whose target is
    decided are dropped.  The rounds needed are the longest chain of
    undecided earlier neighbours, short where the pairs are sparse but up to
    ``n`` on a chain of close points; so after ``_MAX_ROUNDS`` the kept
    points remove their neighbours, and the points still undecided are
    returned, in index order, for the scan to finish.
    """
    src, dst = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for s, sizes, pos, close in _close_chunks(pts, order, ranges, rad2):
        at = np.flatnonzero(close)
        i = np.repeat(order[s:s + sizes.size], sizes)[at]
        j = order[pos[at]]
        pair = (j < i) & ~removed[i] & ~removed[j]
        src.append(j[pair])
        dst.append(i[pair])
    src, dst = np.concatenate(src), np.concatenate(dst)
    undecided = ~removed
    for _ in range(_MAX_ROUNDS):
        if not undecided.any():
            break
        live = ~removed[src] & undecided[dst]
        src, dst = src[live], dst[live]
        hit = kept[src]
        removed[dst[hit]] = True
        waiting = np.zeros(len(pts), dtype=bool)
        waiting[dst[~hit]] = True
        kept |= undecided & ~removed & ~waiting
        undecided &= waiting & ~removed
    removed[dst[kept[src]]] = True
    return np.flatnonzero(undecided)


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
    """Per-point count of other points at strict Euclidean distance < radius.

    One bulk pass over the candidate pairs (``_close_chunks``), with no
    scan: the counts do not depend on any order.  The close pairs of each
    point are summed; every point is its own candidate in exactly one range,
    at ``d2 = 0 < rad2``, so 1 is subtracted at the end.  Coincident points
    with different indices count each other.
    """
    rad2 = _square(radius)
    pts = np.ascontiguousarray(points, dtype=np.float64)
    counts = np.zeros(len(pts), dtype=np.int64)
    if len(pts) == 0:
        return counts
    order, ranges, _ = _neighbourhoods(pts, radius)
    for s, sizes, _, close in _close_chunks(pts, order, ranges, rad2):
        hits = np.empty(close.size + 1, dtype=np.int64)
        hits[0] = 0
        np.cumsum(close, out=hits[1:])
        ends = np.cumsum(sizes)
        counts[s:s + sizes.size] += hits[ends] - hits[ends - sizes]
    out = np.empty_like(counts)
    out[order] = counts - 1
    return out


def _close_chunks(pts: np.ndarray, order, ranges, rad2: float):
    """The candidate pairs of ``_neighbourhoods``, tested a chunk at a time.

    The columns are gathered once in ``order``, so the candidates of a range
    are contiguous.  For each range, runs of consecutive points in ``order``
    whose candidates total at most ``_PAIR_CHUNK`` (or one point alone, whose
    candidates exceed it) are tested at once (``_close_mask``).  Yields
    ``(s, sizes, pos, close)``: the points at ``s, s + 1, ...`` of ``order``
    have ``sizes`` candidates each, at the positions ``pos`` of ``order``,
    concatenated, and ``close`` marks those with ``d2 < rad2``.
    """
    cols = [pts[order, a] for a in range(pts.shape[1])]
    for lo, hi in ranges:
        lo = lo[order]
        sizes = hi[order] - lo
        ends = np.cumsum(sizes)
        s = 0
        while s < len(pts):
            base = int(ends[s - 1]) if s else 0
            e = max(s + 1, int(np.searchsorted(ends, base + _PAIR_CHUNK, side="right")))
            if ends[e - 1] > base:
                yield s, sizes[s:e], *_close_mask(cols, s, lo[s:e], sizes[s:e], rad2)
            s = e


def _close_mask(cols: list, s: int, lo: np.ndarray, sizes: np.ndarray, rad2: float):
    """For the points ``s, s + 1, ...`` of the gathered columns ``cols``, the
    positions ``pos`` of their candidates ``lo[k]:lo[k] + sizes[k]``,
    concatenated, and the mask of those with ``d2 < rad2``, ``d2`` summed
    axis by axis in axis order."""
    starts = np.cumsum(sizes) - sizes
    total = int(starts[-1] + sizes[-1])
    pos = np.repeat(lo - starts, sizes)
    pos += np.arange(total)
    d2 = None
    # a candidate far off on an axis that is not binned may square to inf,
    # which is not close
    with np.errstate(over="ignore"):
        for col in cols:
            diff = np.repeat(col[s:s + sizes.size], sizes)
            diff -= col[pos]
            diff *= diff
            if d2 is None:
                d2 = diff
            else:
                d2 += diff
    return pos, d2 < rad2


def sausage_occupied_count(points: np.ndarray, r: float, cell: float) -> int:
    """Number of origin-anchored grid cells of side ``cell`` whose center lies
    within Euclidean distance ``r`` of some point.

    Only cells within ``reach = ceil(r / cell) + 1`` cells of a point's own
    cell on every axis are tested.  The count is a scanline: for each point
    and each row of cells in the first ``m - 1`` axes, the marked cells along
    the last axis form one run (see ``_row_runs``), and the count is the size
    of the union of all runs, merged after every chunk (``_group_count``).
    The runs are taken on packed cell keys, in which the last axis has
    stride 1 and each row owns a key range wider than any run in it: sorting
    the keys sorts by (row, start), and the running max of run ends never
    carries from one row into the next.  A grid too large to pack is
    compacted once, then cut anywhere into pieces that each count the marked
    cells in their ranges, and whose counts add up.

    No points count 0.  Raises ``DomainError("bad-scale")`` when ``r * r`` is
    not a positive, normal, finite double (``_square``) or ``cell`` is not
    positive and finite, ``DomainError("sausage-too-fine")`` when a point
    would scan more than ``MAX_SAUSAGE_ROWS`` rows (in 1-D, more cells in its
    one row), and ``DomainError("cell-grid-too-large")`` when a cell within
    ``reach`` of a point is ``2^52`` or more in magnitude: its centre is not a
    double.
    """
    r2 = _square(r)
    if not 0 < cell < np.inf:
        raise DomainError("bad-scale", f"cell must be positive and finite, got {cell!r}")
    pts = np.ascontiguousarray(points, dtype=np.float64)
    n, m = pts.shape
    if n == 0:
        return 0
    ratio = r / cell
    # a ratio past the cap, inf or NaN is refused below before ceil rounds it
    reach = int(np.ceil(ratio)) + 1 if ratio < MAX_SAUSAGE_ROWS else MAX_SAUSAGE_ROWS
    width = 2 * reach + 1
    if width ** max(m - 1, 1) > MAX_SAUSAGE_ROWS:
        unit = "cells" if m == 1 else "rows of cells"
        raise DomainError("sausage-too-fine",
                          f"r/cell = {ratio:g} in {m}-D: over {MAX_SAUSAGE_ROWS} {unit} a point")
    base = cell_indices(pts, cell)
    # every cell scanned has a centre c + 0.5 that is a double; below 2^52
    # the cast is exact, and the runs, cuts and keys stay integers from here
    if base.min() - reach < -2 ** 52 or base.max() + reach >= 2 ** 52:
        raise DomainError("cell-grid-too-large", f"cells of side {cell!r} scanned reach 2^52")
    base = base.astype(np.int64)
    steps = np.arange(-reach, reach + 1, dtype=np.int64)
    count = 0
    compacted = False
    # a piece: point indices, their cells with the last axis first (stride 1
    # in the keys) and the half-open ranges {axis: (lo, hi)} it was cut to
    pieces = [(np.arange(n), base[:, ::-1], {})]
    while pieces:
        index, cells, clip = pieces.pop()
        try:
            keys, layout = pack_cells(cells, reach)
        except DomainError:
            if not compacted:
                # points that mark a common cell are at most 2 * reach apart
                compacted = True
                pieces.append((index, _compact(cells, 2 * reach), clip))
                continue
            # Cut at c, the middle of the widest span: only points below c +
            # reach mark cells below c, and only those from c - reach up the
            # rest.  Cuts end: both sides are narrower while the span is over
            # 2 * reach, and a piece no wider packs, as its fields take at
            # most bit_length(4 * reach + 1) bits each and MAX_SAUSAGE_ROWS
            # caps (2*reach+1)^(m-1), so they total at most 34 bits.
            a = int(np.argmax(cells.max(axis=0) - cells.min(axis=0)))
            col = cells[:, a]
            first, last = int(col.min()), int(col.max())
            c = (first + last + 1) // 2
            lo, hi = clip.get(a, (first - reach, last + reach + 1))
            for side, cut in ((col < c + reach, (lo, c)), (col >= c - reach, (c, hi))):
                pieces.append((index[side], cells[side], {**clip, a: cut}))
            continue
        count += _group_count(pts, base, index, cells, clip, keys, layout, steps, cell, r2)
    return count


def _group_count(pts, base, index, cells, clip, keys, layout, steps, cell: float, r2: float) -> int:
    """The sausage count of one piece: the marked cells within ``clip`` of the
    points ``index``, whose ``cells`` pack into ``keys`` and ``layout``.  On
    the stride-1 axis (the last, first in ``cells``) run ends are clipped, and
    on a row axis (point, row) pairs outside are dropped.  Points go in key
    order, in chunks of ``_PAIR_CHUNK`` (point, row) pairs, and each chunk's
    runs are merged at once with the disjoint runs kept from earlier ones.
    The runs of every later point start at or above ``key - reach *
    sum(strides)`` of the next one, so the merged runs that end below that
    are counted and dropped.  This needs key order only between chunks:
    within one, the runs come row by row, and ``_union`` sorts them.
    """
    m, width = pts.shape[1], steps.size
    sub = np.argsort(keys)
    # int64: the row offsets added below are signed
    keys, index = keys[sub].astype(np.int64), index[sub]
    strides = [1 << shift for shift in layout.shifts]
    pts, base = pts[index], base[index]
    cuts = {a: (cells[sub, a], lo, hi) for a, (lo, hi) in clip.items()}
    row_keys = np.zeros(1, dtype=np.int64)
    for a in range(m - 1):
        row_keys = (row_keys[:, None] + steps * strides[m - 1 - a]).ravel()
    span = int(steps[-1]) * sum(strides)
    chunk = max(1, _PAIR_CHUNK // row_keys.size)
    start = end = np.empty(0, dtype=np.int64)
    count = 0
    for s in range(0, len(pts), chunk):
        point, row, lo, hi = _row_runs(pts[s:s + chunk], base[s:s + chunk], steps, cell, r2)
        point += s
        for a, (at, first, stop) in cuts.items():
            at = at[point]
            if a == 0:
                lo, hi = np.maximum(lo, first - at), np.minimum(hi, stop - 1 - at)
                keep = lo <= hi
            else:
                at += steps[row // width ** (a - 1) % width]  # the row's cell on axis a
                keep = (first <= at) & (at < stop)
            point, row, lo, hi = point[keep], row[keep], lo[keep], hi[keep]
        row_start = keys[point] + row_keys[row]
        start, end = _union(np.concatenate([start, row_start + lo]),
                            np.concatenate([end, row_start + hi]))
        done = end < keys[min(s + chunk, len(keys) - 1)] - span
        count += int((end[done] - start[done]).sum()) + int(done.sum())
        start, end = start[~done], end[~done]
    return count + int((end - start).sum()) + start.size


def _row_runs(pts: np.ndarray, base: np.ndarray, steps: np.ndarray, cell: float, r2: float):
    """The marked cells of each (point, row) pair, as runs along the last axis.

    Rows are the cells ``base[:, :-1] + offset`` for offsets in ``steps`` on
    each of the first ``m - 1`` axes, numbered in row-major offset order.
    The partial ``d2`` of a row sums the axis terms in axis order, as the full
    ``d2`` does, so adding the last axis term gives the full ``d2`` bit for
    bit, and a row whose partial exceeds ``r2`` (or overflows to inf) is
    dropped.  The partials are kept rows by points, so the pairs come out row
    by row, in one ``nonzero`` and one boolean compress.  Along the last
    axis, ``d2 <= r2`` holds on one run of cells: every float operation in
    it is monotone in the distance from the point.  The run is estimated
    with ``sqrt(r2 - partial)``; each end is then widened while the next
    cell out is marked and narrowed while it is not marked, which is exact
    whenever the estimate is at most one cell off.  The first widen and
    narrow tests of each end run on the whole arrays; only the few ends that
    move are walked on, by index.  Ends stay within ``steps`` of ``base`` on
    the last axis too.  They are kept as integer-valued float offsets from
    the point's cell ``b``: the centre ``((b + offset) + 0.5) * cell`` is the
    same double as from the int64 cell for the cells below ``2^52`` that
    ``sausage_occupied_count`` allows, and a walk ends at a fixed offset
    whatever the cell.

    Returns ``(point, row, lo, hi)`` for the pairs with a non-empty run, row
    by row, with ``lo`` and ``hi`` the int64 offsets of its ends from
    ``base[point, -1]``.
    """
    k, m = pts.shape
    # a far-off row or cell may square to inf, which is not marked
    with np.errstate(over="ignore"):
        partial = np.zeros((1, k))
        for a in range(m - 1):
            diff = pts[:, a] - ((base[:, a] + steps[:, None]) + 0.5) * cell
            partial = (partial[:, None, :] + (diff * diff)[None, :, :]).reshape(-1, k)
        close = partial <= r2
        row, point = np.nonzero(close)
        partial = partial[close]
        x, b = pts[:, -1][point], base[:, -1].astype(np.float64)[point]
        half = np.sqrt(r2 - partial)
        lo = np.ceil((x - half) / cell - 0.5)
        hi = np.floor((x + half) / cell - 0.5)
        for end in (lo, hi):
            end -= b
            np.clip(end, steps[0], steps[-1], out=end)

        def marked(off, i=...):
            diff = x[i] - ((b[i] + off) + 0.5) * cell
            return partial[i] + diff * diff <= r2

        for end, step, edge in ((lo, -1, steps[0]), (hi, 1, steps[-1])):
            i = np.flatnonzero((end != edge) & marked(end + step))
            while i.size:
                end[i] += step
                i = i[(end[i] != edge) & marked(end[i] + step, i)]
        for end, step in ((lo, 1), (hi, -1)):
            i = np.flatnonzero((lo <= hi) & ~marked(end))
            while i.size:
                end[i] += step
                i = i[(lo[i] <= hi[i]) & ~marked(end[i], i)]
    keep = lo <= hi
    return point[keep], row[keep], lo[keep].astype(np.int64), hi[keep].astype(np.int64)


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
    """Number of distinct cell tuples (rows) of float floors, at any
    magnitude; ``-0.0`` and ``0.0`` are one cell."""
    return len(np.unique(np.asarray(cells), axis=0))


def box_keys(points, eps: float, bounds=None):
    """The occupied cells ``floor(x / eps)`` of the points as sorted distinct
    packed keys: ``(keys, layout)`` of ``pack_cells``.

    ``points`` is an ``(n, m)`` array or a list of ``m`` coordinate columns,
    and ``bounds``, if known, each column's (min, max).  The floors are
    those of ``cell_indices``, bit for bit, taken a chunk at a time by
    ``pack_cells``.  A field of ``bit_length(max_a - min_a + 1)`` bits holds
    ``c_a - min_a`` and has room for ``c_a - min_a + 1``, which
    ``coarser_keys`` needs.  Returns ``None`` when ``pack_cells`` refuses the
    floors: one is ``2^62`` or more in magnitude or not finite, or the fields
    need more than 63 bits.
    """
    try:
        keys, layout = pack_cells(points, 0, eps, bounds)
    except DomainError:
        return None
    return _sorted_distinct(keys), layout


def coarser_keys(keys: np.ndarray, layout: KeyLayout):
    """The keys of the grid twice as coarse: ``(keys, layout)``, sorted and
    distinct, from those of ``box_keys`` or of an earlier call.

    A field holds ``u = c - min``, and ``floor(c / 2) == ((u + (min & 1)) >>
    1) + (min >> 1)``.  So adding the carry ``min & 1`` at each field's start
    and shifting the whole key right by one halves every field at once; the
    bit that each field shifts into the top of the one below is masked off,
    and the minima are halved.  A field of ``b`` bits holds ``u + 1 < 2^b``
    (``pack_cells``), so the carried ``u + 1`` fits, and the halved ``u``
    has ``u + 1 <= 2^(b - 1)``, so it fits again at the next halving.
    """
    word = keys.dtype.type
    carry = sum((lo & 1) << shift for lo, shift in zip(layout.mins, layout.shifts))
    below = sum(1 << (shift - 1) for shift in layout.shifts[1:])
    halved = keys + word(carry)
    halved >>= word(1)
    halved &= ~word(below)
    return (_sorted_distinct(halved),
            KeyLayout(tuple(lo >> 1 for lo in layout.mins), layout.shifts))


def _sorted_distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of ``keys``, sorted; ``keys`` is sorted in place.

    Sort and mask: several times faster than ``np.unique``, and
    ``np.compress`` is several times faster than boolean indexing.
    """
    keys.sort()
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return np.compress(first, keys)
