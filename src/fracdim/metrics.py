"""Counting measures over point clouds and dimension estimation.

Four families of scale measurements are supported: occupied-box counts
(origin-anchored half-open cubes), greedy packing numbers (maximal
2*eps-separated subsets), sausage volumes (grid estimate of the volume of the
union of r-balls), and per-column oscillation counts for graphs of sampled
1-D functions.  ``estimate_dimension`` turns any of these scale series into
lower/upper/least-squares slope estimates in log2 space.

Conventions fixed here for reproducibility:

* boxes are half-open ``[k*eps, (k+1)*eps)`` anchored at the origin; values
  exactly on a boundary go to the higher-index cell.  A box sweep counts from
  the finest scale to the coarsest, and each scale halves the distinct cells
  of the one before (see ``box_count``), with the same counts as from the
  points;
* packing is greedy maximal (scan order), which preserves dimension exponents
  although it can undercount the true maximum by a constant factor;
* sausage grids are anchored at the origin with cells of side r/q, so volume
  monotonicity in r and subadditivity over cloud splits hold exactly when the
  cell size is shared.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import DomainError
from .paths import SamplePath


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class PointCloud:
    """Finite set of points in R^m with its exact bounding box."""

    points: np.ndarray  # (n, m) float64
    dim: int
    bbox_min: np.ndarray
    bbox_max: np.ndarray
    # (eps, distinct cells) of the last box count, see ``box_count``
    _boxes: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @staticmethod
    def from_points(points) -> "PointCloud":
        pts = np.ascontiguousarray(np.atleast_2d(np.asarray(points, dtype=np.float64)))
        if pts.ndim != 2 or pts.size == 0:
            raise DomainError("empty-cloud", "point cloud must be non-empty")
        # column by column, an order of magnitude faster than axis-0
        # reductions of an (n, m) array; a NaN or infinity shows in the box
        lo = np.array([col.min() for col in pts.T])
        hi = np.array([col.max() for col in pts.T])
        _check_finite(np.concatenate([lo, hi]))
        pts.flags.writeable = False
        return PointCloud(pts, pts.shape[1], lo, hi)

    def __len__(self) -> int:
        return int(self.points.shape[0])


def image_cloud(path: SamplePath) -> PointCloud:
    """Values of bm+drift as a cloud in R^d."""
    return PointCloud.from_points(path.combined)


def graph_cloud(path: SamplePath) -> PointCloud:
    """(t, bm+drift) pairs as a cloud in R^(1+d)."""
    return PointCloud.from_points(np.hstack([path.grid.times[:, None], path.combined]))


def bm_image_cloud(path: SamplePath) -> PointCloud:
    return PointCloud.from_points(path.bm_values)


def bm_graph_cloud(path: SamplePath) -> PointCloud:
    return PointCloud.from_points(np.hstack([path.grid.times[:, None], path.bm_values]))


def drift_image_cloud(path: SamplePath) -> PointCloud:
    return PointCloud.from_points(path.drift_values)


def drift_graph_cloud(path: SamplePath) -> PointCloud:
    return PointCloud.from_points(np.hstack([path.grid.times[:, None], path.drift_values]))


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
            j = -math.log2(e)
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


def packing_indices(cloud: PointCloud, eps: float) -> np.ndarray:
    """Indices of the greedy maximal 2*eps-separated subset (scan order)."""
    _check_scale(eps)
    mask = kernels.greedy_pack_mask(cloud.points, float(eps))
    return np.nonzero(mask)[0]


def packing_number(cloud: PointCloud, eps: float) -> int:
    """Size of the greedy maximal 2*eps-separated subset.

    Kept centers carry pairwise-disjoint eps-balls; the result is a lower
    bound on the true maximum packing number and an upper bound on the
    covering number at radius 2*eps.
    """
    return int(packing_indices(cloud, eps).size)


def box_count(cloud: PointCloud, eps: float) -> int:
    """Occupied half-open cells [k*eps,(k+1)*eps)^m, anchored at the origin.

    The cloud keeps the distinct cells of its last box count.  When that
    count was at ``eps / 2`` and ``eps <= 1``, the cells are those halved
    (``kernels.coarser_cells``), not the cells of every point, so a sweep
    from the finest scale to the coarsest de-duplicates all points once and
    then ever fewer cells (after Liebovitch & Toth, Phys. Lett. A 141, 1989).
    The count is the same bit for bit: ``x / eps`` is ``x / (eps / 2)``
    halved exactly in binary floating point, and ``floor(floor(y) / 2) ==
    floor(y / 2)``.  Above 1, ``x / eps`` of a tiny ``x`` could round to
    zero, so such scales start from the points.
    """
    _check_scale(eps)
    eps = float(eps)
    finer = cloud._boxes
    if finer is not None and eps == 2.0 * finer[0] and eps <= 1.0:
        cells = kernels.coarser_cells(finer[1])
    else:
        cells = kernels.cell_indices(cloud.points, eps)
    cells = kernels.distinct_cells(cells)
    object.__setattr__(cloud, "_boxes", (eps, cells))
    return len(cells)


def graph_box_count_oscillation(values, n: int | None = None) -> int:
    """Column-wise oscillation proxy for the box count of a sampled graph.

    ``values`` must sample a function on the full uniform dyadic grid over
    [0,1] (2^J intervals, 2^J+1 points).  Returns
    sum_k max(1, ceil(2^n * (max - min over the k-th closed dyadic interval)))
    over the 2^n columns, a constant-factor proxy for the number of
    eps=2^-n boxes meeting the graph.  The floor at 1 keeps empty columns
    counted, since a column always meets the graph.
    """
    vals = np.asarray(values, dtype=np.float64).ravel()
    n_steps = vals.size - 1
    if n_steps < 1 or (n_steps & (n_steps - 1)) != 0:
        raise DomainError("not-dyadic-grid", f"need 2^J+1 samples, got {vals.size}")
    big_j = n_steps.bit_length() - 1
    if n is None:
        n = big_j
    if not 0 <= n <= big_j:
        raise DomainError("not-dyadic-grid", f"column level {n} exceeds sample level {big_j}")
    return int(kernels.oscillation_counts(vals, int(n)).sum())


def sausage_volume(cloud: PointCloud, r: float, refine: int = 4, cell: float | None = None) -> float:
    """Grid estimate of the volume of the union of r-balls around the cloud.

    Cells of side r/refine (override with ``cell`` to share a grid between
    radii) are marked when their center lies within distance r of some point;
    the volume is the marked count times the cell volume.  Converges to the
    true union-of-balls volume as refine grows.  Supported for ambient
    dimension m <= 3; the cost explodes beyond that.  A cell that is not
    positive and finite raises ``DomainError("bad-scale")``, and one so small
    against r that a point would scan more than ``kernels.MAX_SAUSAGE_ROWS``
    rows of cells raises ``DomainError("sausage-too-fine")``.
    """
    _check_scale(r)
    if refine < 2:
        raise ValueError("refine must be >= 2")
    if cloud.dim > 3:
        raise DomainError("dimension-unsupported", "sausage volumes computed for m <= 3 only")
    h = float(r) / refine if cell is None else float(cell)
    if not 0 < h < math.inf:
        raise DomainError("bad-scale", f"cell must be positive and finite, got {h}")
    count = kernels.sausage_occupied_count(cloud.points, float(r), h)
    return count * h**cloud.dim


def step_graph_box_count(breaks, values, eps: float) -> int:
    """Exact count of closed lattice boxes of side eps meeting a step graph.

    The graph is of the right-continuous step function taking ``values[i]``
    on [breaks[i], breaks[i+1]); its closure is the union of the closed
    horizontal segments [breaks[i], breaks[i+1]] x {values[i]}.  A box is
    counted whenever it intersects that closure, so a segment sitting exactly
    on a lattice line touches the boxes on both sides.  Boundary contact is
    detected within 1e-9 relative tolerance, which is exact for
    lattice-aligned inputs such as staircase graphs at their natural scales.
    """
    _check_scale(eps)
    b = np.asarray(breaks, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64).ravel()
    if b.size != v.size + 1:
        raise ValueError("need len(breaks) == len(values) + 1")
    qa, qb, qv = b[:-1] / eps, b[1:] / eps, v / eps
    k_min, _ = _snap_floor(qa, touch_down=True)
    k_max, _ = _snap_floor(qb, touch_down=False)
    row_hi, on_line = _snap_floor(qv, touch_down=False)
    counts = k_max - k_min + 1
    seg = np.repeat(np.arange(v.size), counts)
    offsets = np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)
    cols = k_min[seg] + offsets
    rows = row_hi[seg]
    keys = cols * (1 << 31) + rows
    touch = on_line[seg]
    extra = cols[touch] * (1 << 31) + (rows[touch] - 1)
    return int(np.unique(np.concatenate([keys, extra])).size)


def _snap_floor(q: np.ndarray, touch_down: bool):
    """floor(q) with near-integer q treated as exact lattice contact.

    Returns the adjusted floor and the contact mask.  ``touch_down`` shifts
    boundary hits one box lower (the left end of a closed interval starting
    on a lattice line still touches the box to its left).
    """
    r = np.round(q)
    near = np.abs(q - r) <= 1e-9 * np.maximum(1.0, np.abs(q))
    fl = np.floor(q).astype(np.int64)
    snapped = r.astype(np.int64) - (1 if touch_down else 0)
    return np.where(near, snapped, fl), near


def good_point_thinning(values, epsilon: float, threshold: float | None = None) -> np.ndarray:
    """Thin a list of points to a 2*eps-separated subset via collision counts.

    Computes N_i = #{j != i : |y_i - y_j| < 2*eps}, marks i good when
    N_i < threshold, then scans good indices in order, selecting each
    not-yet-removed one and removing every point within strict 2*eps of it.
    The selection is pairwise >= 2*eps separated and has size at least
    (#good)/(threshold + 1).

    Default threshold is 2 * ln(1/eps)^(d+1) (a computable stand-in for the
    collision-count envelope that motivates the procedure); override freely.
    """
    _check_scale(epsilon)
    pts = np.atleast_2d(np.asarray(values, dtype=np.float64))
    _check_finite(pts)
    if threshold is None:
        threshold = 2.0 * math.log(1.0 / epsilon) ** (pts.shape[1] + 1)
    if not threshold > 0:
        raise ValueError("threshold must be positive")
    radius = 2.0 * float(epsilon)
    counts = kernels.neighbor_counts(pts, radius)
    good = counts < threshold
    mask = kernels.thin_select_mask(pts, radius, good)
    return np.nonzero(mask)[0]


def neighbor_collision_counts(values, epsilon: float) -> np.ndarray:
    """N_i = #{j != i : |y_i - y_j| < 2*eps} for each point."""
    _check_scale(epsilon)
    pts = np.atleast_2d(np.asarray(values, dtype=np.float64))
    _check_finite(pts)
    return kernels.neighbor_counts(pts, 2.0 * float(epsilon))


# ---------------------------------------------------------------------------
# sweeps and estimation


def scale_sweep(cloud: PointCloud, kind: str, j_min: int, j_max: int,
                refine: int = 4, meta: dict | None = None) -> ScaleSeries:
    """Evaluate one counting method at the dyadic scales eps = 2^-j.

    For ``oscillation`` the cloud must be the graph of a 1-D function sampled
    on the full uniform dyadic grid; its second column is used as the sampled
    values.
    """
    if j_min >= j_max:
        raise ValueError("need j_min < j_max")
    js = np.arange(j_min, j_max + 1)
    eps = 2.0 ** -js.astype(np.float64)
    if kind == "box":
        # finest first, so that each scale halves the cells of the one before
        vals = [box_count(cloud, e) for e in eps[::-1]][::-1]
    elif kind == "packing":
        vals = [packing_number(cloud, e) for e in eps]
    elif kind == "sausage_volume":
        vals = [sausage_volume(cloud, e, refine=refine) for e in eps]
    elif kind == "oscillation":
        vals = [graph_box_count_oscillation(_uniform_graph_values(cloud), int(j)) for j in js]
    else:
        raise ValueError(f"unknown series kind {kind!r}")
    info = {"ambient_dim": cloud.dim, "n_points": len(cloud)}
    if meta:
        info.update(meta)
    return ScaleSeries(kind, eps, np.asarray(vals, dtype=np.float64), info)


def _uniform_graph_values(cloud: PointCloud) -> np.ndarray:
    if cloud.dim != 2:
        raise DomainError("not-dyadic-grid", "oscillation needs a 1-D graph cloud")
    t = cloud.points[:, 0]
    n = t.size - 1
    if n < 1 or (n & (n - 1)) != 0 or not np.array_equal(t, np.linspace(0.0, 1.0, t.size)):
        raise DomainError("not-dyadic-grid", "oscillation needs the full uniform dyadic grid")
    return cloud.points[:, 1]


def estimate_dimension(series: ScaleSeries, window: tuple | None = None,
                       ambient_dim: int | None = None) -> DimensionEstimate:
    """Slope summary of log2(value) against j = log2(1/eps).

    ``window = (j_min, j_max)`` restricts to scales inside the window
    (default: whole series).  For sausage-volume series every slope is
    shifted by the ambient dimension m (volumes scale like eps^(m - dim)),
    taken from the series metadata unless passed explicitly.
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
        m = ambient_dim if ambient_dim is not None else series.meta.get("ambient_dim")
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
