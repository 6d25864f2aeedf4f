"""Counting measures over point clouds and dimension estimation.

Four families of scale measurements are supported: occupied-box counts
(origin-anchored half-open cubes), greedy packing numbers (maximal
2*eps-separated subsets), sausage volumes (grid estimate of the volume of the
union of r-balls), and per-column oscillation counts for graphs of sampled
1-D functions.  ``estimate_dimension`` turns any of these scale series into
lower/upper/least-squares slope estimates in log2 space.

A ``PointCloud`` holds only its coordinate columns, a graph's shared with
its path and an image's views of its array, and every count reads them: box
counts floor and pack them a chunk at a time, packing and thinning scan
them as they are, and the sausage takes a stack of them made for each call.
A box sweep counts one pure pyramid of packed keys (``kernels.box_pyramid``),
or cells it is given: an image's, projected from its graph's pyramid.

Conventions fixed here for reproducibility:

* boxes are half-open ``[k*eps, (k+1)*eps)`` anchored at the origin; values
  exactly on a boundary go to the higher-index cell.  A box sweep counts from
  the finest scale to the coarsest, and each scale halves the packed keys of
  the distinct cells of the one before (see ``kernels.box_pyramid``), with
  the same counts as from the points;
* packing is greedy maximal (scan order), which preserves dimension exponents
  although it can undercount the true maximum by a constant factor;
* sausage grids are anchored at the origin with cells of side r/q, so volume
  monotonicity in r and subadditivity over cloud splits hold exactly when the
  cell size is shared.
"""

import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import kernels
from .errors import DomainError, prefixed
from .paths import SamplePath, frozen, read_only


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class PointCloud:
    """Finite set of points in R^m with finite coordinates, held as its m
    coordinate columns and the (min, max) of each, and nothing else: a
    graph's columns are the grid's times and the path's values, and an
    image's are views of the columns of its ``(n, m)`` array.  Every kernel
    reads the columns.
    """

    columns: tuple  # m read-only float64 arrays of n coordinates
    bounds: tuple  # (min, max) of each column

    @staticmethod
    def from_points(points) -> "PointCloud":
        """The points of an ``(n, m)`` array as a cloud whose columns are
        views of the array's, made read-only float64; one point may be given
        as a flat ``(m,)`` array.  An array the caller can still write to is
        copied first (``paths.read_only``).

        Raises ``DomainError("bad-shape")`` for an array of more than two
        dimensions, ``DomainError("empty-cloud")`` for one with no rows or
        no columns, and ``DomainError("non-finite-point")`` for a NaN or
        infinite coordinate.
        """
        pts = np.atleast_2d(read_only(points))
        if pts.ndim > 2:
            raise DomainError("bad-shape", f"points of shape {pts.shape}: need (n, m)")
        if pts.size == 0:
            raise DomainError("empty-cloud", "point cloud must be non-empty")
        return PointCloud._of_columns(list(pts.T))

    @staticmethod
    def _of_columns(columns: list) -> "PointCloud":
        """The cloud of read-only float64 columns of one length; a NaN or
        infinity shows in a column's minimum or maximum."""
        bounds = tuple((col.min(), col.max()) for col in columns)
        _check_finite(np.array(bounds))
        return PointCloud(tuple(columns), bounds)

    @property
    def dim(self) -> int:
        return len(self.columns)

    @property
    def points(self) -> np.ndarray:
        """A read-only ``(n, m)`` stack of the columns, built afresh on each
        read and not kept; the package itself never reads it."""
        return frozen(np.column_stack(self.columns))

    def __len__(self) -> int:
        return int(self.columns[0].size)


def image_cloud(path: SamplePath) -> PointCloud:
    """Values of bm+drift as a cloud in R^d."""
    return PointCloud.from_points(path.combined)


def _graph(path: SamplePath, values: np.ndarray) -> PointCloud:
    """(t, values) pairs as a cloud in R^(1+d), sharing the path's arrays."""
    return PointCloud._of_columns([path.grid.times, *values.T])


def graph_cloud(path: SamplePath) -> PointCloud:
    """(t, bm+drift) pairs as a cloud in R^(1+d)."""
    return _graph(path, path.combined)


def bm_image_cloud(path: SamplePath) -> PointCloud:
    return PointCloud.from_points(path.bm_values)


def bm_graph_cloud(path: SamplePath) -> PointCloud:
    return _graph(path, path.bm_values)


def drift_image_cloud(path: SamplePath) -> PointCloud:
    return PointCloud.from_points(path.drift_values)


def drift_graph_cloud(path: SamplePath) -> PointCloud:
    return _graph(path, path.drift_values)


@dataclass(frozen=True)
class ScaleSeries:
    """(scale, measurement) pairs for one counting method.

    Scales are strictly decreasing positive reals; box/packing/oscillation
    values are integer counts >= 1, sausage values positive volumes.
    """

    kind: str  # box | packing | sausage_volume | oscillation
    epsilons: np.ndarray
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        eps = np.asarray(self.epsilons, dtype=np.float64)
        val = np.asarray(self.values, dtype=np.float64)
        if eps.size != val.size or eps.size == 0:
            raise ValueError("epsilons and values must be matching non-empty arrays")
        if np.any(eps <= 0) or (eps.size > 1 and not np.all(np.diff(eps) < 0)):
            raise ValueError("scales must be positive and strictly decreasing")
        if np.any(val <= 0):
            raise ValueError("measurements must be positive")
        if self.kind in ("box", "packing", "oscillation") and not np.all(val == np.round(val)):
            raise ValueError(f"{self.kind} values must be integer counts")
        object.__setattr__(self, "epsilons", eps)
        object.__setattr__(self, "values", val)

    def write_csv(self, fh) -> None:
        fh.write("j,epsilon,value,kind\n")
        for e, v in zip(self.epsilons, self.values):
            j = 0.0 - math.log2(e)  # 0, not -0, at eps = 1
            fh.write(f"{j:.17g},{e:.17g},{v:.17g},{self.kind}\n")


@dataclass(frozen=True)
class DimensionEstimate:
    """Scaling-exponent estimate from a scale series.

    ``local_slopes`` are the two-point slopes of log2(value) against
    j = log2(1/eps) between consecutive scales; ``lower``/``upper`` are their
    min/max over the window (finite-scale stand-ins for liminf/limsup) and
    ``ls_slope`` the least-squares slope, which always lies between them.
    """

    lower: float
    upper: float
    ls_slope: float
    local_slopes: tuple
    residual: float
    window: tuple

    def to_dict(self) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "ls_slope": self.ls_slope,
            "residual": self.residual,
            "window": list(self.window),
            "local_slopes": list(self.local_slopes),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# counting operations


def _check_scale(eps: float) -> None:
    if not eps > 0:
        raise DomainError("bad-scale", f"scale must be positive, got {eps}")


def _check_finite(pts: np.ndarray) -> None:
    if not np.isfinite(pts).all():
        raise DomainError("non-finite-point", "point coordinates must be finite")


def _dyadic_level(samples: int) -> int:
    """J of the 2^J + 1 samples of a full uniform dyadic grid; any other
    count is refused."""
    n_steps = samples - 1
    if n_steps < 1 or (n_steps & (n_steps - 1)) != 0:
        raise DomainError("not-dyadic-grid", f"need 2^J+1 samples, got {samples}")
    return n_steps.bit_length() - 1


def _check_sausage_dim(m: int) -> None:
    if m > 3:
        raise DomainError("dimension-unsupported", "sausage volumes computed for m <= 3 only")


def packing_indices(cloud: PointCloud, eps: float) -> np.ndarray:
    """Indices of the greedy maximal 2*eps-separated subset (scan order)."""
    _check_scale(eps)
    mask = kernels.greedy_pack_mask(cloud.columns, float(eps))
    return np.nonzero(mask)[0]


def packing_number(cloud: PointCloud, eps: float) -> int:
    """Size of the greedy maximal 2*eps-separated subset.

    Kept centers carry pairwise-disjoint eps-balls; the result is a lower
    bound on the true maximum packing number and an upper bound on the
    covering number at radius 2*eps.
    """
    return int(packing_indices(cloud, eps).size)


def box_count(cloud: PointCloud, eps: float, cells=None) -> int:
    """Occupied half-open cells [k*eps,(k+1)*eps)^m, anchored at the origin.

    ``cells``, when known, are the cloud's occupied cells at ``eps`` as the
    sorted distinct packed keys and layout of ``kernels.box_pyramid`` (a
    scale of the cloud's own pyramid, or of its graph's projected onto it
    by ``kernels.drop_first_axis``), and the count is their number.
    Otherwise the cells are packed from the cloud's columns
    (``kernels.box_keys``).  Cells too large for the keys (of 2^62 or more,
    or fields over 63 bits) are counted as distinct rows of the float floors
    of the points (``kernels.distinct_cell_count``), floored from a stack of
    the columns that the cloud does not keep.
    """
    _check_scale(eps)
    eps = float(eps)
    if cells is None:
        cells = kernels.box_keys(cloud.columns, eps, cloud.bounds)
    if cells is None:
        floors = kernels.cell_indices(np.column_stack(cloud.columns), eps)
        return kernels.distinct_cell_count(floors)
    return len(cells[0])


def graph_box_count_oscillation(values, n: int) -> int:
    """Column-wise oscillation proxy for the box count of a sampled graph.

    ``values`` must sample a function on the full uniform dyadic grid over
    [0,1] (2^J intervals, 2^J+1 points).  Returns
    sum_k max(1, ceil(2^n * (max - min over the k-th closed dyadic interval)))
    over the 2^n columns, a constant-factor proxy for the number of
    eps=2^-n boxes meeting the graph.  The floor at 1 keeps empty columns
    counted, since a column always meets the graph.
    """
    vals = np.asarray(values, dtype=np.float64).ravel()
    big_j = _dyadic_level(vals.size)
    if not 0 <= n <= big_j:
        raise DomainError("not-dyadic-grid", f"column level {n} exceeds sample level {big_j}")
    return int(kernels.oscillation_counts(vals, int(n)).sum())


def sausage_volume(cloud: PointCloud, r: float, refine: int = 4, cell: float | None = None) -> float:
    """Grid estimate of the volume of the union of r-balls around the cloud.

    Cells of side r/refine (override with ``cell`` to share a grid between
    radii) are marked when their center lies within distance r of some point;
    the volume is the marked count times the cell volume.  Converges to the
    true union-of-balls volume as refine grows.  Supported for ambient
    dimension m <= 3; the cost explodes beyond that.  No marked cell is a
    volume of 0.0, whatever the cell.  A cell that is not positive and finite,
    marked cells whose volume is not a positive normal finite double (it
    underflows to a subnormal or zero, or overflows), or a cell volume
    ``cell**m`` that is subnormal and not exact, whose lost bits a normal
    volume would keep, raises ``DomainError("bad-scale")``; a cell so small
    against r that a point would scan more than ``kernels.MAX_SAUSAGE_ROWS``
    rows of cells raises ``DomainError("sausage-too-fine")``, and cells
    scanned of ``2^52`` or more in magnitude raise
    ``DomainError("cell-grid-too-large")``.
    """
    _check_scale(r)
    if refine < 2:
        raise ValueError("refine must be >= 2")
    _check_sausage_dim(cloud.dim)
    h = float(r) / refine if cell is None else float(cell)
    # the sausage takes an (n, m) array: a stack that the cloud does not keep
    count = kernels.sausage_occupied_count(np.column_stack(cloud.columns), float(r), h)
    if count == 0:
        return 0.0
    try:
        unit = h**cloud.dim
    except OverflowError:
        unit = math.inf
    volume = count * unit
    # a subnormal cell volume carries fewer than 53 bits: unless exact, its
    # rounding error is far above that of a normal double
    lost = unit < sys.float_info.min and Fraction(unit) != Fraction(h) ** cloud.dim
    if lost or not sys.float_info.min <= volume <= sys.float_info.max:
        raise DomainError("bad-scale", f"sausage volume at r = {float(r)!r} with cells of side "
                          f"{h!r} is {volume!r}, from cells of volume {unit!r}: not a positive "
                          "normal finite double, or from a subnormal cell volume that lost bits")
    return volume


def step_graph_box_count(breaks, values, eps: float) -> int:
    """Exact count of closed lattice boxes of side eps meeting a step graph.

    The closure of the graph is the union of the closed segments
    [breaks[i], breaks[i+1]] x {values[i]}.  In units of eps, the closed box
    [k, k+1] meets [x, y] iff ``ceil(x) - 1 <= k <= floor(y)``, so a segment
    at value v meets rows ``ceil(v) - 1 .. floor(v)``, two when v is on a
    lattice line.  An end or value within ``1e-9 * max(1, |q|)`` of a lattice
    line lies on it.  Each (segment, row) is one run of columns and the count
    is the size of their union, so the cost grows with the number of steps,
    not with 1/eps.  Raises ``DomainError("non-finite-cell")`` for a break or
    value over eps that is not finite and ``DomainError("cell-grid-too-large")``
    for cells of 2^62 or more.
    """
    _check_scale(eps)
    b = np.asarray(breaks, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64).ravel()
    if b.size != v.size + 1 or np.any(b[1:] < b[:-1]):
        raise ValueError("need len(values) + 1 non-decreasing breaks")
    if not v.size:
        return 0
    with np.errstate(over="ignore"):
        q = np.stack([b[:-1], b[1:], v]) / eps
    if not np.isfinite(q).all():
        raise DomainError("non-finite-cell", "breaks / eps or values / eps is not finite")
    if np.any(np.abs(q) >= 2.0**62):
        raise DomainError("cell-grid-too-large", "cell indices of 2^62 or more")
    r = np.round(q)
    q = np.where(np.abs(q - r) <= 1e-9 * np.maximum(1.0, np.abs(q)), r, q)
    below, above = np.ceil(q).astype(np.int64) - 1, np.floor(q).astype(np.int64)
    two = below[2] < above[2]
    seg = np.concatenate([np.arange(v.size), np.flatnonzero(two)])
    rows, rank = np.unique(np.concatenate([above[2], below[2][two]]), return_inverse=True)
    # two spare cells a row keep runs of different rows from touching
    origin = below[0].min()
    width = int(above[1].max()) - int(origin) + 3
    if rows.size * width >= 1 << 62:
        raise DomainError("cell-grid-too-large", f"{rows.size} rows of {width} cells")
    offset = rank * width - origin
    start, end = kernels._union(offset + below[0][seg], offset + above[1][seg])
    return int((end - start).sum()) + start.size


def good_point_thinning(values, epsilon: float, threshold: float | None = None) -> np.ndarray:
    """Thin a list of points to a 2*eps-separated subset via collision counts.

    Computes N_i = #{j != i : |y_i - y_j| < 2*eps}, marks i good when
    N_i < threshold, then scans good indices in order, selecting each
    not-yet-removed one and removing every point within strict 2*eps of it.
    The selection is pairwise >= 2*eps separated and has size at least
    (#good)/(threshold + 1).

    Default threshold is 2 * ln(1/eps)^(d+1) (a computable stand-in for the
    collision-count envelope that motivates the procedure); override freely.
    The default is defined for eps < 1 only: without a threshold, eps >= 1
    raises ``DomainError("bad-scale")``, as does a default that underflows
    to 0; one past the largest double is ``inf``, so every point is good.

    ``values`` is an ``(n, d)`` array, taken as ``PointCloud.from_points``
    takes it; the counts and the scan read the cloud's columns.
    """
    _check_scale(epsilon)
    cloud = PointCloud.from_points(values)
    if threshold is None:
        if not epsilon < 1:
            raise DomainError("bad-scale", f"eps = {epsilon!r}: the default threshold "
                              "2 * ln(1/eps)^(d+1) needs eps < 1; pass a threshold")
        try:
            threshold = 2.0 * math.log(1.0 / epsilon) ** (cloud.dim + 1)
        except OverflowError:
            threshold = math.inf
        if threshold == 0:
            raise DomainError("bad-scale", f"eps = {epsilon!r}: the default threshold 2 * "
                              f"ln(1/eps)^(d+1) underflows to 0 in {cloud.dim}-D; pass a threshold")
    if not threshold > 0:
        raise ValueError("threshold must be positive")
    radius = 2.0 * float(epsilon)
    counts = kernels.neighbor_counts(cloud.columns, radius)
    good = counts < threshold
    mask = kernels.thin_select_mask(cloud.columns, radius, good)
    return np.nonzero(mask)[0]


# ---------------------------------------------------------------------------
# sweeps and estimation


# 2^-j is a positive finite double exactly for these j: 2^1023 is the largest
# power of two below overflow and 2^-1074 the smallest subnormal
SWEEP_J_RANGE = (-1023, 1074)


def check_sweep_window(j_min: int, j_max: int) -> None:
    """Refuse a sweep window ``[j_min, j_max]`` unless ``j_min < j_max`` and
    both lie in ``SWEEP_J_RANGE``; outside it some ``2^-j`` is not a positive
    finite double, which raises ``DomainError("bad-scale")``."""
    if j_min >= j_max:
        raise ValueError(f"scales [{j_min}, {j_max}] need j_min < j_max")
    if j_min < SWEEP_J_RANGE[0] or j_max > SWEEP_J_RANGE[1]:
        raise DomainError("bad-scale", f"scales [{j_min}, {j_max}] must lie in "
                          f"{list(SWEEP_J_RANGE)}, where every 2^-j is a positive finite double")


def scale_sweep(cloud: PointCloud, kind: str, j_min: int, j_max: int,
                refine: int = 4, *, cells=None) -> ScaleSeries:
    """Evaluate one counting method at the dyadic scales eps = 2^-j.

    For ``oscillation`` the cloud must be the graph of a 1-D function sampled
    on the full uniform dyadic grid; its second column is used as the sampled
    values.  The window must pass ``check_sweep_window``.  A box sweep
    counts each scale's ``cells`` (see ``box_count``), finest first, one per
    scale and ``None`` where unknown; by default, the cloud's own
    ``kernels.box_pyramid``.  A ``ValueError`` raised while it counts the
    scale j gains ``"j = <j>: "`` before its message, and a ``DomainError``
    keeps its code.  Those raised before any scale keep their text: the
    window, an unknown kind, and the premises that no scale breaks, the
    sausage's ambient dimension and the oscillation's grid.
    """
    check_sweep_window(j_min, j_max)
    js = np.arange(j_min, j_max + 1)
    eps = 2.0 ** -js.astype(np.float64)
    order = js
    if kind == "box":
        if cells is None:
            cells = kernels.box_pyramid(cloud.columns, j_min, j_max, cloud.bounds)
        order = js[::-1]  # finest first, as the cells come
        counts = (box_count(cloud, e, cells=c) for e, c in zip(eps[::-1], cells, strict=True))
    elif kind == "packing":
        counts = (packing_number(cloud, e) for e in eps)
    elif kind == "sausage_volume":
        _check_sausage_dim(cloud.dim)
        counts = (sausage_volume(cloud, e, refine=refine) for e in eps)
    elif kind == "oscillation":
        values = _uniform_graph_values(cloud)
        counts = (graph_box_count_oscillation(values, int(j)) for j in js)
    else:
        raise ValueError(f"unknown series kind {kind!r}")
    by_scale = {}
    for j in order:
        try:
            by_scale[j] = next(counts)
        except ValueError as exc:
            raise prefixed(exc, f"j = {j}: ") from exc
    next(counts, None)  # none is left, but zip's strict check refuses more cells than scales
    vals = np.asarray([by_scale[j] for j in js], dtype=np.float64)
    return ScaleSeries(kind, eps, vals, {"ambient_dim": cloud.dim})


def _uniform_graph_values(cloud: PointCloud) -> np.ndarray:
    if cloud.dim != 2:
        raise DomainError("not-dyadic-grid", "oscillation needs a 1-D graph cloud")
    _dyadic_level(len(cloud))
    times, values = cloud.columns
    if not np.array_equal(times, np.linspace(0.0, 1.0, len(cloud))):
        raise DomainError("not-dyadic-grid", "oscillation needs the full uniform dyadic grid")
    return values


def estimate_dimension(series: ScaleSeries, window: tuple | None = None) -> DimensionEstimate:
    """Slope summary of log2(value) against j = log2(1/eps).

    ``window = (j_min, j_max)`` restricts to scales inside the window
    (default: whole series).  For sausage-volume series every slope is
    shifted by the ambient dimension m (volumes scale like eps^(m - dim)),
    taken from the series metadata.
    """
    js = -np.log2(series.epsilons)
    if window is None:
        window = (int(round(js[0])), int(round(js[-1])))
    j_lo, j_hi = window
    sel = (js >= j_lo - 1e-9) & (js <= j_hi + 1e-9)
    if int(sel.sum()) < 3:
        raise DomainError("window-too-small", "need at least 3 scales inside the window")
    x = js[sel]
    y = np.log2(series.values[sel])
    local = np.diff(y) / np.diff(x)
    ls, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (ls * x + intercept)) ** 2)))
    shift = 0.0
    if series.kind == "sausage_volume":
        m = series.meta.get("ambient_dim")
        if m is None:
            raise ValueError("sausage series needs the ambient dimension")
        shift = float(m)
    local = local + shift
    return DimensionEstimate(
        lower=float(local.min()),
        upper=float(local.max()),
        ls_slope=float(ls + shift),
        local_slopes=tuple(float(s) for s in local),
        residual=resid,
        window=(int(j_lo), int(j_hi)),
    )


# ---------------------------------------------------------------------------
# lattice-geometry constants for the packing/box sandwich
#
# packing_number(eps) <= PACKING_PER_BOX(m) * box_count(eps): a half-open
# eps-cube splits into k^m subcubes of diameter < 2*eps once k > sqrt(m)/2,
# and each subcube holds at most one 2*eps-separated center.
#
# box_count(2*eps) <= BOXES_PER_CENTER(m) * packing_number(eps): greedy
# maximality puts every point within < 2*eps of a kept center, so each
# occupied 2*eps-box lies inside a ball of radius 2*eps*(1 + sqrt(m)) around
# some center, and a box grid meets such a ball in a bounded number of cells.


def packing_per_box(m: int) -> int:
    return (int(math.floor(math.sqrt(m) / 2.0)) + 1) ** m


def boxes_per_center(m: int) -> int:
    return (2 * int(math.ceil(1.0 + math.sqrt(m))) + 1) ** m
