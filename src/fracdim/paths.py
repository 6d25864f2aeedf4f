"""Sample-path generation: Brownian motion on arbitrary time grids plus
cadlag drifts.

Two generators are provided: plain Gaussian increments on any grid, and
midpoint-displacement refinement on dyadic grids (level-k refinement adds an
independent Gaussian of variance 2^-(k+1) at each new midpoint).  Drifts are
declarative ``DriftSpec`` values evaluated pointwise; step-like drifts take
their right-limit value at every jump, which makes evaluation a single
well-defined right-continuous function.
"""

import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import DomainError
from .rng import stream

MAX_GRID_POINTS = 1 << 24
# sample values (points x d) that one path array may hold
MAX_PATH_VALUES = 4 * MAX_GRID_POINTS

# staircase frequencies above this lose integer resolution in float64 grids
MAX_STAIRCASE_N = 1 << 24


# ---------------------------------------------------------------------------
# read-only arrays


def read_only(values) -> np.ndarray:
    """``values`` as a read-only C-contiguous float64 array, for the fields
    of the frozen types, leaving the flags of an array handed in as they
    are.  A read-only array is kept and one converted afresh is frozen; a
    writeable array handed in, or a writeable view of one, is copied, so
    that later writes to it do not show."""
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.flags.writeable and (arr is values or arr.base is not None):
        arr = arr.copy()
    arr.flags.writeable = False
    return arr


def frozen(arr: np.ndarray) -> np.ndarray:
    """``arr``, which the package built and no caller holds, made read-only
    in place, so that ``read_only`` keeps it without a copy."""
    arr.flags.writeable = False
    return arr


# ---------------------------------------------------------------------------
# time grids


@dataclass(frozen=True)
class TimeGrid:
    """Finite, strictly increasing sample times inside [0, 1]."""

    times: np.ndarray

    def __post_init__(self):
        t = read_only(self.times)
        if t.size == 0:
            raise DomainError("empty-grid", "a time grid needs at least one point")
        if t.ndim != 1:
            raise DomainError("bad-shape", f"times of shape {t.shape}, not one-dimensional")
        if t.size > 1 and not np.all(np.diff(t) > 0):
            raise ValueError("grid times must be strictly increasing")
        if not (t[0] >= 0.0 and t[-1] <= 1.0):  # NaN is refused too
            raise ValueError("grid times must lie in [0, 1]")
        object.__setattr__(self, "times", t)

    def __len__(self) -> int:
        return int(self.times.size)

    @staticmethod
    def uniform(n_points: int) -> "TimeGrid":
        if n_points < 1:
            raise DomainError("empty-grid", "n_points must be >= 1")
        if n_points > MAX_GRID_POINTS:
            raise DomainError("grid-too-large", f"{n_points} points exceed cap {MAX_GRID_POINTS}")
        return TimeGrid(frozen(np.linspace(0.0, 1.0, n_points)))

    @staticmethod
    def dyadic(level: int) -> "TimeGrid":
        """The uniform grid of 2^level + 1 points."""
        if level < 0:
            raise ValueError("level must be >= 0")
        if level >= (MAX_GRID_POINTS - 1).bit_length():  # checked before forming 2^level
            raise DomainError("grid-too-large", f"2^{level}+1 points exceed cap {MAX_GRID_POINTS}")
        return TimeGrid.uniform((1 << level) + 1)


def check_path_shape(n_points: int, d: int) -> None:
    """Refuse ``d < 1``, or a path of ``n_points`` x ``d`` values above the cap."""
    if d < 1:
        raise ValueError(f"d={d}; need d >= 1")
    if n_points * d > MAX_PATH_VALUES:
        raise DomainError("grid-too-large",
                          f"{n_points} points x d={d} exceed cap {MAX_PATH_VALUES} path values")


# ---------------------------------------------------------------------------
# drifts


@dataclass(frozen=True, eq=False)
class DriftSpec:
    """Declarative description of a cadlag drift f: [0,1] -> R^d.

    Variants: ``zero``, ``linear`` (finite slope mu), ``lacunary_sum`` (the
    sum of the staircases of a strictly increasing frequency ``schedule``;
    ``psi_n(n)`` is its one-term case), ``table`` (right-continuous step
    function through finite knots).

    A spec compares and hashes by identity: nothing keys or compares specs
    by value (the experiment memo keys a drift by its config entry), so no
    comparison walks a table's knots.
    """

    variant: str
    dim: int = 1
    mu: np.ndarray | None = None
    schedule: tuple[int, ...] | None = None
    table_times: np.ndarray | None = None
    table_values: np.ndarray | None = None

    @staticmethod
    def zero(d: int = 1) -> "DriftSpec":
        return DriftSpec("zero", dim=d)

    @staticmethod
    def linear(mu) -> "DriftSpec":
        mu = np.atleast_1d(np.asarray(mu, dtype=np.float64))
        if not np.all(np.isfinite(mu)):
            raise ValueError(f"linear drift slope {mu.tolist()} must be finite")
        return DriftSpec("linear", dim=mu.size, mu=mu)

    @staticmethod
    def psi_n(n: int) -> "DriftSpec":
        return DriftSpec.lacunary([n])

    @staticmethod
    def lacunary(schedule) -> "DriftSpec":
        sched = tuple(int(n) for n in schedule)
        if any(b <= a for a, b in zip(sched, sched[1:])) or any(n < 1 for n in sched):
            raise ValueError("frequency schedule must be strictly increasing positive integers")
        if any(n > MAX_STAIRCASE_N for n in sched):
            raise DomainError(
                "schedule-not-simulable",
                f"frequencies above {MAX_STAIRCASE_N} cannot be evaluated on float grids",
            )
        return DriftSpec("lacunary_sum", dim=1, schedule=sched)

    @staticmethod
    def table(times, values) -> "DriftSpec":
        t = np.asarray(times, dtype=np.float64)
        v = np.asarray(values, dtype=np.float64)
        if v.ndim == 1:
            v = v[:, None]
        if t.ndim != 1 or t.size != v.shape[0] or t.size == 0:
            raise ValueError("table needs matching non-empty times and values")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise ValueError("table times and values must be finite")
        if not np.all(np.diff(t) > 0):
            raise ValueError("table times must be strictly increasing")
        if t[0] != 0.0:
            raise ValueError("table must start at t=0 to cover [0, 1]")
        return DriftSpec("table", dim=v.shape[1], table_times=t, table_values=v)

    @property
    def is_zero(self) -> bool:
        return self.variant == "zero"

    @property
    def is_continuous(self) -> bool:
        """True when the drift has no jumps (zero, linear, or constant table)."""
        if self.variant in ("zero", "linear"):
            return True
        if self.variant == "table":
            return bool(np.all(self.table_values == self.table_values[0]))
        return False


def _staircase(n: int, x: np.ndarray) -> np.ndarray:
    """Sawtooth staircase n^(-3/4) * floor(sqrt(n) * tent(n x)) with the
    right-limit value at every jump.

    ``tent`` has period 1 and equals max(x, 1-x) on [0, 1].  Where the
    pre-floor ramp sits exactly on an integer and is decreasing to the right,
    the floor is lowered by one so the returned value is the right limit.
    The exact-integer test is floating-point equality; it is exact whenever
    n is a perfect square and x is dyadic, which covers every preset used
    here.
    """
    # the formula above, operation for operation, in two n-sized buffers
    # rather than a temporary an operation, which would be faulted in
    # afresh each time a drift is evaluated
    fr = x * n
    u = np.floor(fr)
    fr -= u  # frac(n x)
    np.maximum(fr, np.subtract(1.0, fr, out=u), out=u)  # tent(n x)
    u *= np.sqrt(float(n))
    lower = fr < 0.5  # on a descending ramp
    v = np.floor(u, out=fr)  # frac(n x) is not read again
    lower &= u == v  # ... at an integer: take the right limit, one below
    v -= lower
    v *= float(n) ** -0.75
    return v


def eval_drift(spec: DriftSpec, t) -> np.ndarray:
    """Evaluate a drift at time(s) t in [0, 1].

    Scalar t gives shape (d,); an array of shape (k,) gives (k, d).  Step
    variants return the right-limit value at jumps.  A staircase sum adds its
    terms to a zero start, so ``psi_n(n)`` gives the bare staircase bit for bit.
    A time outside [0, 1], or NaN, raises ``DomainError("time-out-of-range")``.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=np.float64))
    scalar = np.ndim(t) == 0
    if t_arr.size and not (t_arr.min() >= 0.0 and t_arr.max() <= 1.0):  # NaN is refused too
        raise DomainError("time-out-of-range", "drift defined on [0, 1] only")

    if spec.variant == "zero":
        out = np.zeros((t_arr.size, spec.dim))
    elif spec.variant == "linear":
        out = t_arr[:, None] * spec.mu[None, :]
    elif spec.variant == "lacunary_sum":
        acc = np.zeros(t_arr.size)
        for n_k in spec.schedule:
            acc += _staircase(n_k, t_arr)
        out = acc[:, None]
    elif spec.variant == "table":
        idx = np.searchsorted(spec.table_times, t_arr, side="right") - 1
        out = spec.table_values[idx]
    else:  # pragma: no cover
        raise ValueError(f"unknown drift variant {spec.variant!r}")
    return out[0] if scalar else out


# ---------------------------------------------------------------------------
# sample paths


@dataclass(frozen=True)
class SamplePath:
    """Times plus R^d values of the noise, the drift, and their sum."""

    grid: TimeGrid
    dim: int
    bm_values: np.ndarray      # (len(grid), dim)
    drift_values: np.ndarray   # (len(grid), dim)
    seed: int
    method: str                # increments | levy | file

    def __post_init__(self):
        n = len(self.grid)
        for name in ("bm_values", "drift_values"):
            arr = read_only(getattr(self, name))
            if arr.shape != (n, self.dim):
                raise ValueError(f"{name} must have shape ({n}, {self.dim})")
            object.__setattr__(self, name, arr)

    @cached_property
    def combined(self) -> np.ndarray:
        """Noise plus drift, summed once, for the image and graph of the sum."""
        return frozen(self.bm_values + self.drift_values)


def generate_bm(grid: TimeGrid, d: int, seed: int, drift_values=None) -> SamplePath:
    """Brownian path on the grid from independent Gaussian increments.

    Per coordinate, increments over consecutive grid times have variance
    equal to the time difference; the first value is drawn with variance
    equal to the first grid time (exactly zero when the grid starts at 0).
    Deterministic given (grid, d, seed); the draws are scaled and summed in
    place.  ``drift_values`` are the path's drift, zeros when omitted.
    """
    check_path_shape(len(grid), d)
    t = grid.times
    scale = np.empty_like(t)  # the time steps from 0, then their roots
    scale[0] = t[0]
    np.subtract(t[1:], t[:-1], out=scale[1:])
    np.sqrt(scale, out=scale)
    values = np.empty((scale.size, d))
    stream(seed, 0).standard_normal(out=values)
    values *= scale[:, None]
    np.cumsum(values, axis=0, out=values)
    if drift_values is None:
        drift_values = frozen(np.zeros_like(values))
    return SamplePath(grid, d, frozen(values), drift_values, int(seed), "increments")


def levy_construct(depth: int, d: int, seed: int) -> SamplePath:
    """Brownian path on the dyadic grid of 2^depth intervals by midpoint
    displacement.

    Level k draws from its own random stream, so refining the same seed to a
    larger depth leaves all coarser dyadic values unchanged.
    """
    grid = TimeGrid.dyadic(depth)
    check_path_shape(len(grid), d)
    n_intervals = len(grid) - 1
    values = np.zeros((n_intervals + 1, d))
    values[-1] = stream(seed, 0).standard_normal(d)
    for k in range(1, depth + 1):
        step = n_intervals >> k
        mids = np.arange(step, n_intervals, 2 * step)
        z = stream(seed, k).standard_normal((mids.size, d))
        values[mids] = 0.5 * (values[mids - step] + values[mids + step]) + np.sqrt(2.0 ** -(k + 1)) * z
    return SamplePath(grid, d, frozen(values), frozen(np.zeros_like(values)), int(seed), "levy")


def drift_on_grid(spec: DriftSpec, grid: TimeGrid, d: int) -> np.ndarray:
    """The read-only ``(len(grid), d)`` values of the drift at the grid's
    times; a drift of another dimension than ``d`` but zero is a
    ``dim-mismatch``."""
    if spec.variant != "zero" and spec.dim != d:
        raise DomainError("dim-mismatch", f"drift dim {spec.dim} vs path dim {d}")
    if spec.variant == "zero":
        return frozen(np.zeros((len(grid), d)))
    return frozen(eval_drift(spec, grid.times))


def apply_drift(path: SamplePath, spec: DriftSpec) -> SamplePath:
    """Fill a path's drift values by evaluating the drift on its grid."""
    return replace(path, drift_values=drift_on_grid(spec, path.grid, path.dim))


# ---------------------------------------------------------------------------
# CSV serialization: header t,b_1..b_d,f_1..f_d, 17 significant digits


# rows formatted by one ``%`` call: one call per row costs most of a write,
# one call per file holds the whole file's text in memory at once
CSV_BLOCK_ROWS = 4096


def _csv_header(d: int) -> str:
    """``t,b_1..b_d,f_1..f_d``"""
    names = [f"b_{i}" for i in range(1, d + 1)] + [f"f_{i}" for i in range(1, d + 1)]
    return ",".join(["t"] + names)


def write_path_csv(path: SamplePath, fh) -> None:
    fh.write(_csv_header(path.dim) + "\n")
    row = ",".join(["%.17g"] * (1 + 2 * path.dim)) + "\n"
    times = path.grid.times
    for start in range(0, len(times), CSV_BLOCK_ROWS):
        rows = slice(start, start + CSV_BLOCK_ROWS)
        block = np.hstack([times[rows, None], path.bm_values[rows], path.drift_values[rows]])
        fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def read_path_csv(fh) -> SamplePath:
    """Read a CSV of ``write_path_csv``.

    Refuses, with a ``ValueError``, a header other than ``t,b_1..b_d,f_1..f_d``
    for some ``d >= 1``, rows whose value count differs from the header's,
    and a file with no rows.
    """
    header = fh.readline().strip()
    n_cols = header.count(",") + 1
    d = (n_cols - 1) // 2
    if d < 1 or header != _csv_header(d):
        raise ValueError(f"not a sample-path CSV: header {header!r} is not t,b_1..b_d,f_1..f_d")
    with warnings.catch_warnings():
        # a file without rows is refused below, not warned about
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    if rows.shape[0] == 0:
        raise ValueError(f"sample-path CSV has the header {header!r} but no rows")
    if rows.shape[1] != n_cols:
        raise ValueError(f"sample-path CSV rows have {rows.shape[1]} values; "
                         f"the header {header!r} names {n_cols}")
    grid = TimeGrid(rows[:, 0])
    return SamplePath(grid, d, rows[:, 1:1 + d], rows[:, 1 + d:], 0, "file")
