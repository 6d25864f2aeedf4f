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
three axes (``_neighbourhoods``).  The rows of neighbour cells are searched
once per occupied cell, among the distinct sorted keys, and a point reads
the ranges of its cell through the cell's rank.  The keys are sorted with
no stable sort, so the points of a cell come in no set order: no scan
output depends on that order.

Points come as an ``(n, m)`` array or as a sequence of their ``m``
coordinate columns, the layout of a ``PointCloud``; one helper
(``_columns``) turns either into the list of columns.  The scans and key
packing work on that list, column by column: each column is floored into
its cells and gathered in grid order, and no ``(n, m)`` copy is made.  Only
the sausage takes an ``(n, m)`` array.

Greedy packing is one greedy scan (``_greedy_scan``): in stored order, keep
each point that no earlier kept point is close to.  Thinning selection is
the same scan of its good points alone, scattered back: a good point is
selected iff no earlier selected point is close to it, and only good points
are selected, so the others never matter.  Where the candidates total at
most ``_BULK_CANDIDATES`` a point, the scan is resolved in bulk rounds over
the earlier close pairs (``_bulk_rounds``): an undecided point with a kept
earlier neighbour is removed, and one whose earlier neighbours are all
removed is kept.  The rounds needed are the longest chain of such
neighbours, so after ``_MAX_ROUNDS`` the points still undecided go to the
stored-order step, where every point starts undecided when the candidates
are denser.  That step marks the decided points in a ``bytearray`` and
skips to the next undecided one with ``bytearray.find``, so it visits only
the points it keeps; each one reads its cell's ranges through
``memoryview``s and marks its close candidates decided.  Both give the same
mask.  Neighbour counts do not depend on any order.  They and the pairs of
the rounds come from one pass over the candidate pairs (``_close_chunks``),
chunked by the work budget (``_PAIR_CHUNK`` pairs), that reads half
neighbourhoods: each unordered pair is tested once, from its end earlier in
the key-sorted order, and no point with itself.  ``d2`` is the same bits
from either end, as ``(x - y)**2 == (y - x)**2`` and the axes are summed in
one order, so the counts credit both ends of each close pair.

The sausage count is a scanline (``sausage_occupied_count``): for each point
and each row of cells in the first ``m - 1`` axes, the marked cells along the
last axis form one run, estimated with ``sqrt`` and made exact by the
``d2 <= r * r`` test at both ends; the count is the size of the union of the
runs.  Its work is ``(2 * reach + 1)^(m - 1)`` rows a point, not the
``(2 * reach + 1)^m`` cells of the window around it.  The points go in key
order, in chunks of ``_PAIR_CHUNK`` (point, row) pairs, or of as many pairs
as the runs carried at the scan front when those are more, whose runs are
built row by row on whole arrays (``_row_runs``): the partial ``d2`` of
every (row, point) pair is one array, the end tests run on all runs at once,
and only the few ends that move are walked on by index.  Each chunk is
merged at once into the runs kept at the scan front (``_group_count``); the
merge sorts the starts and the ends apart, with no ``argsort`` and no gather
(``_union``).

Every grid is keyed one way (``pack_cells``): axis ``a`` gets a bit field
of ``bit_length(max_a - min_a + 2 * margin + 1)`` bits holding ``c_a - min_a
+ margin``, axis 0 lowest, and the fields are concatenated into one
``uint32`` or ``uint64`` key below ``_KEY_LIMIT``.  Keys sort like cell
tuples with the last axis most significant, and within the margin a cell's
neighbour is its key plus a constant ``sum(o_a << shift_a)``: the scans pack
with a margin of 1, so each row of neighbour cells is the keys ``base - 1 ..
base + 1``, and the sausage with a margin of ``reach``, so its rows have the
strides ``1 << shift``.  Keys are filled into one array ``_PAIR_CHUNK``
points at a time, column by column, through reused float and int64
buffers; given coordinate columns and a width, the chunk floors the points
itself, and the least and greatest cells are the floors of each column's
bounds, as ``floor(x / w)`` is monotone.  Box counts keep the occupied
cells as sorted distinct keys (``box_keys``, margin 0), packed from a
cloud's columns with no temporary the size of the cloud.  A sweep over the
scales ``eps, 2 * eps, 4 * eps, ...`` is one pure pyramid (``box_pyramid``),
which floors the points only at the finest scale: each coarser scale halves
the keys of the one before into one new array (``coarser_keys`` adds the
carries into it, then shifts and masks it in place), then sorts it and
drops adjacent duplicates.  This is exact: ``x / eps`` and ``x / (2 *
eps)`` differ by an exact factor 2, so ``floor(x / (2 * eps)) ==
floor(floor(x / eps) / 2)``, and with ``u = c - min``, ``floor((u + min)
/ 2) == ((u + (min & 1)) >> 1) + (min >> 1)``; the field has room for the
carried ``u + 1``.  Keys are never unpacked into cell rows.  The cells of
an image are those of its graph with the time axis, the lowest field,
dropped: the graph's sorted keys shifted right past that field stay
sorted, so dropping the adjacent repeats gives the image's cells with no
sort: the same cells, in the graph's key word (``drop_first_axis``).  Only
``pack_cells`` picks the key word; halved and projected keys keep it.

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
import math
import sys
from typing import NamedTuple

import numpy as np

from .errors import DomainError


# A sausage point scans (2 * reach + 1)^(m - 1) rows of cells; more than this
# many (in 1-D, cells in its one row) is refused.  refine = 64 in 3-D needs
# 131^2 = 17161.
MAX_SAUSAGE_ROWS = 1 << 16
# the one work budget, in elements: candidate pairs a neighbour count or a
# bulk scan tests at once, (point, row) pairs the sausage scans and merges at
# once, or points pack_cells floors and packs at once.  Memory is bounded by
# this, or by one point's candidates in one range or its rows, or by the runs
# a sausage chunk carries.  At 2^18, a sausage call held about 16 MiB of
# chunk arrays, which the allocator gave back to the system on return, so
# each scale faulted them in again; at 2^15 it holds about 5 MiB.
_PAIR_CHUNK = 1 << 15
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


def _columns(points) -> list:
    """The columns of an ``(n, m)`` array, or the ``m`` columns of a sequence
    of them, as a list.  The kernels work column by column: axis-0
    reductions over a C-ordered ``(n, m)`` array are several times slower."""
    if isinstance(points, np.ndarray):
        return [points[:, a] for a in range(points.shape[1])]
    return list(points)


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
    field, or up to the top of the key for the last axis."""

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

    Keys are filled column by column in chunks of ``_PAIR_CHUNK`` points,
    through reused float, int64 and key-word buffers of that size: a chunk
    is divided and floored in the float buffer, cast to int64 (exact below
    ``2^62``), offset there (exact for every field, where a float offset of
    53 bits or more would round) and cast into the key word.
    """
    cells = _columns(cells)
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
    size = min(n, _PAIR_CHUNK)
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


def _neighbourhoods(cols: list, radius: float):
    """Points, given as their coordinate columns, binned by cell of side
    ``radius`` on at most ``_BIN_AXES`` axes, those of widest span in cells,
    taken in axis order.

    Returns ``(order, rank, ranges, sizes)``: ``order`` lists point indices
    sorted by cell key, in no order within a cell, and ``rank[i]`` is the
    rank of point ``i``'s cell among the occupied cells.  Cell ``c`` has the
    candidates ``order[lo[c]:hi[c]]`` over the at most 9 ``(lo, hi)`` pairs
    of ``ranges``, one per row of neighbour cells, and ``sizes[c]`` is their
    number, at least 1 since it counts the cell's own points.  The cells
    pack with a margin of 1 (``pack_cells``), so a row is the keys ``base -
    1 .. base + 1`` for ``base`` the cell's key plus a constant offset; the
    rows are searched once per occupied cell, among the distinct sorted
    keys.  They are listed in key order, the offsets on the most significant
    axis varying slowest, so the own row is the middle one.  Axis 0's field
    has at least 2 bits, so every key of a later row is above every key of
    the own row, and the neighbour relation is symmetric: ``_close_chunks``
    reads the own row and the later ones only.  A grid too large to pack is
    compacted, and while even that is too large the narrowest binned axis is
    dropped; one compacted axis is at most ``2 * n`` wide.  Either way the
    candidates include every point closer than ``radius``, the neighbour
    relation stays symmetric, and the distance tests test every axis.
    """
    cells = [cell_indices(col, radius) for col in cols]
    span = np.array([c.max() - c.min() for c in cells])
    axes = np.sort(np.argsort(-span, kind="stable")[:_BIN_AXES])
    cells = [cells[a] for a in axes]
    try:
        keys, layout = pack_cells(cells, 1)
    except DomainError:
        cells = _compact(np.column_stack(cells), 1)
        while True:
            try:
                keys, layout = pack_cells(cells, 1)
                break
            except DomainError:
                drop = np.argmin(span[axes])
                axes, cells = np.delete(axes, drop), np.delete(cells, drop, axis=1)
    # no scan output depends on the order of the points within a cell
    order = np.argsort(keys)
    sorted_keys = keys[order]
    # the occupied cells, each searched once: cell c holds the points
    # order[bounds[c]:bounds[c + 1]]
    new_cell = _firsts(sorted_keys)
    bounds = np.append(np.flatnonzero(new_cell), sorted_keys.size)
    cell_keys = sorted_keys[bounds[:-1]]
    rank = np.empty_like(order)
    rank[order] = np.cumsum(new_cell) - 1
    # every field holds at least 1, so the row keys from the lowest corner
    # of the neighbourhood up never wrap
    corner = cell_keys - sum(1 << shift for shift in layout.shifts)
    ranges = []
    # the rows in key order: offsets on the most significant axis vary slowest
    for off in itertools.product((0, 1, 2), repeat=len(layout.shifts) - 1):
        row = corner + sum(o << shift for o, shift in zip(off, layout.shifts[:0:-1]))
        lo = bounds[np.searchsorted(cell_keys, row, side="left")]
        row += 2
        hi = bounds[np.searchsorted(cell_keys, row, side="right")]
        ranges.append((lo, hi))
    return order, rank, ranges, sum(hi - lo for lo, hi in ranges)


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


def _greedy_scan(points, radius: float) -> np.ndarray:
    """Keep-mask of the greedy scan: in stored order, keep each point that no
    earlier kept point is closer to than ``radius``.

    Where the candidates total at most ``_BULK_CANDIDATES`` a point, most
    points are decided first in bulk rounds (``_bulk_rounds``); otherwise
    every point starts undecided.  The stored-order step then visits only
    the undecided points: a ``bytearray`` marks the points kept or removed,
    and ``find`` skips to the next unmarked one, which is kept.  A kept
    point reads its cell's ranges through ``memoryview``s, with no numpy
    scalar, and marks its candidates closer than ``radius`` removed; the
    points skipped are not read.
    """
    rad2 = _square(radius)
    cols = _columns(points)
    n = len(cols[0])
    kept = np.zeros(n, dtype=bool)
    if n == 0:
        return kept
    order, rank, ranges, sizes = _neighbourhoods(cols, radius)
    # decided[j] = 1 marks a point j kept or removed before the scan reaches
    # it; marked is its numpy view
    decided = bytearray(n)
    marked = np.frombuffer(decided, dtype=bool)
    if sizes[rank].sum() <= _BULK_CANDIDATES * n:
        marked[:] = True
        marked[_bulk_rounds(cols, order, rank, ranges, rad2, kept)] = False
    rank, sizes = memoryview(rank), memoryview(sizes)
    rows = [(memoryview(lo), memoryview(hi)) for lo, hi in ranges]
    # numpy compares an array with a 0-d array faster than with a float
    rad2 = np.array(rad2)
    i = decided.find(0)
    # a candidate far off on an axis that is not binned may square to inf,
    # which is not close
    with np.errstate(over="ignore"):
        while i >= 0:
            kept[i] = True
            c = rank[i]
            if sizes[c] > 1:
                js = np.concatenate([order[lo[c]:hi[c]] for lo, hi in rows])
                diff = cols[0][js] - cols[0][i]
                d2 = diff * diff
                for col in cols[1:]:
                    diff = col[js] - col[i]
                    d2 += diff * diff
                marked[js[d2 < rad2]] = True
            i = decided.find(0, i + 1)
    return kept


def _bulk_rounds(cols: list, order, rank, ranges, rad2: float, kept: np.ndarray) -> np.ndarray:
    """Decide the greedy scan in rounds over its earlier close pairs.

    The pairs are ``(j, i)`` with ``j < i`` and ``d2 < rad2``: each close
    pair comes once from ``_close_chunks``, and is taken as ``(min, max)``
    of its indices.  In each round, an undecided point with a kept earlier
    neighbour is removed, and one whose earlier neighbours are all removed
    is kept: both are the scan's own choices.  Before each round, the pairs
    whose source is removed or whose target is decided are dropped.  The
    rounds act on sets, so the order of the pairs does not matter.  The
    rounds needed are the longest chain of undecided earlier neighbours,
    short where the pairs are sparse but up to ``n`` on a chain of close
    points; so after ``_MAX_ROUNDS`` the kept points remove their
    neighbours.  Sets ``kept`` in place and returns the points still
    undecided, in index order, for the scan to finish.
    """
    src, dst = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for s, sizes, pos, close in _close_chunks(cols, order, rank, ranges, rad2):
        at = np.flatnonzero(close)
        i = np.repeat(order[s:s + sizes.size], sizes)[at]
        j = order[pos[at]]
        src.append(np.minimum(i, j))
        dst.append(np.maximum(i, j))
    src, dst = np.concatenate(src), np.concatenate(dst)
    removed = np.zeros(order.size, dtype=bool)
    undecided = np.ones(order.size, dtype=bool)
    for _ in range(_MAX_ROUNDS):
        if not undecided.any():
            break
        live = ~removed[src] & undecided[dst]
        src, dst = src[live], dst[live]
        hit = kept[src]
        removed[dst[hit]] = True
        waiting = np.zeros(order.size, dtype=bool)
        waiting[dst[~hit]] = True
        kept |= undecided & ~removed & ~waiting
        undecided &= waiting & ~removed
    removed[dst[kept[src]]] = True
    return np.flatnonzero(undecided & ~removed)


# ---------------------------------------------------------------------------
# public kernels


def greedy_pack_mask(points, eps: float) -> np.ndarray:
    """Greedy maximal 2*eps-separated subset, scanning points in stored order.

    ``points`` is an ``(n, m)`` array or a sequence of ``m`` float64
    coordinate columns, as for every scan.  Returns a boolean keep-mask.  A
    point is kept iff its Euclidean distance to every previously kept point
    is >= 2*eps.
    """
    return _greedy_scan(points, 2.0 * eps)


def thin_select_mask(points, radius: float, good: np.ndarray) -> np.ndarray:
    """Scan good indices in order; select survivors, removing strict-<radius
    neighbours (good or not) of each selection.

    A good point is selected iff no earlier selected point is closer than
    ``radius``, and only good points are ever selected, so the points that
    are not good never matter: the mask is the greedy scan of the good
    points alone (``_greedy_scan``), scattered back.  Raises
    ``DomainError("bad-shape")`` unless ``good`` has shape ``(n,)``.
    """
    cols = _columns(points)
    n = len(cols[0])
    good = np.asarray(good, dtype=bool)
    if good.shape != (n,):
        raise DomainError("bad-shape", f"good mask of shape {good.shape} for {n} points")
    selected = np.zeros(n, dtype=bool)
    selected[good] = _greedy_scan([col[good] for col in cols], radius)
    return selected


def neighbor_counts(points, radius: float) -> np.ndarray:
    """Per-point count of other points at strict Euclidean distance < radius.

    One bulk pass over the candidate pairs (``_close_chunks``), with no
    scan: the counts do not depend on any order.  Each close pair is tested
    once and credits both ends, each chunk with two ``np.bincount`` calls:
    one over the chunk's own points, and one over the window of positions
    that its close candidates span, for the far ends.  No point is its own
    candidate.  Coincident points with different indices count each other.
    """
    rad2 = _square(radius)
    cols = _columns(points)
    counts = np.zeros(len(cols[0]), dtype=np.int64)
    if counts.size == 0:
        return counts
    order, rank, ranges, _ = _neighbourhoods(cols, radius)
    for s, sizes, pos, close in _close_chunks(cols, order, rank, ranges, rad2):
        at = np.flatnonzero(close)
        if at.size:
            near = np.repeat(np.arange(sizes.size), sizes)[at]
            counts[s:s + sizes.size] += np.bincount(near, minlength=sizes.size)
            far = pos[at]
            first = far.min()
            far -= first
            credit = np.bincount(far)
            counts[first:first + credit.size] += credit
    out = np.empty_like(counts)
    out[order] = counts
    return out


def _close_chunks(cols: list, order, rank, ranges, rad2: float):
    """The candidate pairs of ``_neighbourhoods``, each unordered pair tested
    once, a chunk at a time.

    A point reads half its neighbourhood: the rows after its own cell's row
    in key order, and in its own row only the points after itself in
    ``order``, its cell's later points and the next cell.  So a pair is
    tested from its end earlier in ``order``, and no point with itself.  The
    columns are gathered once in ``order``, so the candidates of a range are
    contiguous, and each range, kept by cell, is gathered by the rank of
    each point's cell in ``order``; the own row starts at each point's
    position plus 1.  For each range, runs of consecutive points in
    ``order`` whose candidates total at most ``_PAIR_CHUNK`` (or one point
    alone, whose candidates exceed it) are tested at once (``_close_mask``).
    Yields ``(s, sizes, pos, close)``: the points at ``s, s + 1, ...`` of
    ``order`` have ``sizes`` candidates each, at the positions ``pos`` of
    ``order``, concatenated, and ``close`` marks those with ``d2 < rad2``.
    """
    cols = [col[order] for col in cols]
    rank = rank[order]
    # the own row, in the middle, and the rows after it
    for k, (lo, hi) in enumerate(ranges[len(ranges) // 2:]):
        lo = lo[rank] if k else np.arange(1, order.size + 1)
        sizes = hi[rank] - lo
        ends = np.cumsum(sizes)
        s = 0
        while s < order.size:
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
    stride 1, so each run is a range of keys, each cell has its own key, and
    the count is the number of keys in the union of the ranges.  A grid too
    large to pack is compacted once, then cut anywhere into pieces that each
    count the marked cells in their ranges, and whose counts add up.

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
    order, and each chunk's runs are merged at once with the disjoint runs
    kept from earlier ones.  A chunk takes ``_PAIR_CHUNK`` (point, row)
    pairs, or, while more runs are carried, as many pairs as those runs:
    each merge sorts the starts and the ends of the carried runs again with
    the new ones, so a chunk much smaller than them would re-sort them for
    little new work.  The runs of every later point start at or above ``key
    - reach * sum(strides)`` of the next one, so the merged runs that end
    below that are counted and dropped.  This needs key order only between
    chunks: within one, the runs come row by row, and ``_union`` sorts them.
    Every run passed to ``_union`` has ``lo <= hi``, as it requires.
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
    start = end = np.empty(0, dtype=np.int64)
    count = 0
    s = 0
    while s < len(pts):
        # a chunk scans at least as many pairs as the runs it carries
        e = s + max(1, _PAIR_CHUNK // row_keys.size, -(-start.size // row_keys.size))
        point, row, lo, hi = _row_runs(pts[s:e], base[s:e], steps, cell, r2)
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
        done = end < keys[min(e, len(keys) - 1)] - span
        count += int((end[done] - start[done]).sum()) + int(done.sum())
        start, end = start[~done], end[~done]
        s = e
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
    """Disjoint runs ``[start, end]`` whose union is that of the given runs,
    each of which must have ``start <= end + 1``.

    The starts and the ends are sorted apart.  Under that premise the
    ``k``-th start is at most the ``k``-th end plus 1, and a cell ``x`` is
    covered iff ``#{start <= x} > #{end < x}``; so a run begins at each
    ``start[k] > end[k - 1] + 1`` and ends at the end just before the next
    one begins.  Given runs with ``start <= end``, the runs returned are
    the maximal ones: sorted, non-empty, and no two touch.
    """
    start, end = np.sort(start), np.sort(end)
    # cut[k] is true where a run begins at k and so one ends at k - 1
    cut = np.ones(start.size + 1, dtype=bool)
    np.greater(start[1:], end[:-1] + 1, out=cut[1:-1])
    return np.compress(cut[:-1], start), np.compress(cut[1:], end)


def oscillation_counts(values: np.ndarray, n: int) -> np.ndarray:
    """Column counts max(1, ceil(2^n * (max - min))) over the 2^n closed
    dyadic intervals, from values sampled on a uniform grid over [0, 1].
    Every count is exact: before any cast, a value that is not finite
    raises ``DomainError("non-finite-point")`` and a count of 2^63 or more
    ``DomainError("cell-grid-too-large")``."""
    vals = np.ascontiguousarray(values, dtype=np.float64)
    n_cols = 1 << n
    step = (vals.size - 1) // n_cols
    body = vals[:-1].reshape(n_cols, step)
    right = vals[step::step]
    mx = np.maximum(body.max(axis=1), right)
    mn = np.minimum(body.min(axis=1), right)
    if not (np.isfinite(mx).all() and np.isfinite(mn).all()):
        raise DomainError("non-finite-point", "sampled values must be finite")
    with np.errstate(over="ignore"):  # a count past the doubles is inf, refused below
        w = np.ceil(float(n_cols) * (mx - mn))
    if w.max() >= 2.0**63:
        raise DomainError("cell-grid-too-large", "a column oscillation count of 2^63 or more")
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
    keys.sort()
    return _distinct(keys), layout


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
    halved.sort()
    return _distinct(halved), layout._replace(mins=tuple(lo >> 1 for lo in layout.mins))


def box_pyramid(points, j_min: int, j_max: int, bounds=None):
    """The occupied cells of the points at the scales ``eps = 2^-j`` for ``j
    = j_max, j_max - 1, ..., j_min``, finest first: for each scale the
    ``(keys, layout)`` of ``box_keys``, or ``None`` where it refuses them.

    ``points`` and ``bounds`` are as in ``box_keys``.  The finest scale, any
    scale above 1 and any scale after a refused one are packed from the
    points (``box_keys``); every other scale halves the keys of the one
    before (``coarser_keys``), with the same cells: ``x / eps`` is ``x / (eps
    / 2)`` halved exactly in binary floating point, and ``floor(floor(y) /
    2) == floor(y / 2)``.  Above 1, ``x / eps`` of a tiny ``x`` could round
    to zero, so such scales start from the points.  A sweep thus floors and
    sorts all the points once and then ever fewer keys, never unpacking them
    into cell rows (after Liebovitch & Toth, Phys. Lett. A 141, 1989).
    Between yields it holds one scale's keys.
    """
    boxes = None
    for j in range(j_max, j_min - 1, -1):
        if boxes is None or j < 0:
            boxes = box_keys(points, math.ldexp(1.0, -j), bounds)
        else:
            boxes = coarser_keys(*boxes)
        yield boxes


def drop_first_axis(keys: np.ndarray, layout: KeyLayout):
    """The cells of sorted distinct keys of two or more axes with axis 0
    dropped: ``(keys, layout)``, sorted and distinct, with no sort.

    Axis 0 is the lowest field, so shifting every key right by
    ``shifts[1]`` drops it and keeps the keys sorted: equal cells are
    adjacent, and one compare and one ``np.compress`` drop the repeats.  The
    layout is ``mins[1:]`` with the shifts moved down by ``shifts[1]``, and
    the keys stay in the word of their graph's keys.  So the keys of
    ``box_keys`` of the points without their axis 0 come out in value, with
    the same layout, as do those of the same halvings of both
    (``coarser_keys``): each halving acts on each field alone.
    """
    shift = layout.shifts[1]
    projected = _distinct(keys >> keys.dtype.type(shift))
    return projected, KeyLayout(layout.mins[1:], tuple(s - shift for s in layout.shifts[1:]))


def _firsts(keys: np.ndarray) -> np.ndarray:
    """The mask of the first of each run of equal sorted ``keys``: one
    compare of adjacent keys."""
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return first


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of sorted ``keys``: one compare of adjacent keys
    (``_firsts``) and one ``np.compress``.  Sorting and this are several
    times faster than ``np.unique``, and ``np.compress`` is several times
    faster than boolean indexing."""
    return np.compress(_firsts(keys), keys)
