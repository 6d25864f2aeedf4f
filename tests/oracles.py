"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately naive (subset enumeration, exact rational
arithmetic, O(n^2) scans) and shares no code with the kernels and metrics it
checks.  The greedy, neighbour and sausage brute forces remember their
answers, since several tests ask them the same questions (``_memoised``).
"""

import functools
import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np


def _d2(p, q) -> float:
    """Squared distance summed axis by axis in axis order, in Python floats."""
    total = 0.0
    for a in range(len(p)):
        diff = p[a] - q[a]
        total += diff * diff
    return total


def _memoised(oracle):
    """``oracle`` computing each answer once: answers are kept under the
    dtype, shape and bytes of every argument, and an array answer is handed
    out as a copy."""
    answers = {}

    @functools.wraps(oracle)
    def memoised(*args):
        arrays = [np.asarray(a) for a in args]
        assert all(a.dtype != object for a in arrays), "no bytes to key an object array by"
        key = tuple((a.dtype.str, a.shape, a.tobytes()) for a in arrays)
        if key not in answers:
            answers[key] = oracle(*args)
        answer = answers[key]
        return answer.copy() if isinstance(answer, np.ndarray) else answer

    return memoised


def pairwise_separated(points: np.ndarray, eps: float) -> bool:
    """All pairwise Euclidean distances >= 2*eps."""
    n = len(points)
    for i in range(n):
        for j in range(i + 1, n):
            if float(np.sqrt(((points[i] - points[j]) ** 2).sum())) < 2.0 * eps:
                return False
    return True


def brute_max_packing(points: np.ndarray, eps: float) -> int:
    """Exact maximum size of a 2*eps-separated subset, by enumeration.

    Exponential; keep to <= 12 points.
    """
    pts = np.atleast_2d(points)
    n = len(pts)
    assert n <= 12, "oracle is exponential"
    for size in range(n, 0, -1):
        for idx in combinations(range(n), size):
            if pairwise_separated(pts[list(idx)], eps):
                return size
    return 0


def all_maximal_separated_subsets(points: np.ndarray, eps: float) -> list:
    """Every inclusion-maximal 2*eps-separated subset, as index tuples."""
    pts = np.atleast_2d(points)
    n = len(pts)
    assert n <= 12, "oracle is exponential"
    separated = []
    for size in range(n + 1):
        for idx in combinations(range(n), size):
            if pairwise_separated(pts[list(idx)], eps):
                separated.append(frozenset(idx))
    maximal = [s for s in separated if not any(s < t for t in separated)]
    return sorted(tuple(sorted(s)) for s in maximal)


@_memoised
def brute_neighbor_counts(points: np.ndarray, radius: float) -> np.ndarray:
    """N_i = #{j != i : |y_i - y_j| < radius} by direct O(n^2) scan."""
    pts = np.atleast_2d(points).tolist()
    out = np.zeros(len(pts), dtype=np.int64)
    for i, p in enumerate(pts):
        out[i] = sum(1 for j, q in enumerate(pts) if i != j and math.sqrt(_d2(p, q)) < radius)
    return out


def inverse_power_cell_count(j: int, n_max: int) -> int:
    """Occupied eps=2^-j cells of {0} U {1/n : n <= n_max}, in exact integers.

    floor((1/n) / 2^-j) == 2^j // n whenever 2^j/n is not within one float ulp
    of an integer, and exactly when n divides 2^j; both hold for every n here.
    """
    cells = {0}
    for n in range(1, n_max + 1):
        cells.add((1 << j) // n)
    return len(cells)


def staircase_exact_level(n: int, x) -> int:
    """Integer staircase level floor(sqrt(n)*tent(n x)) with the right-limit
    adjustment, via exact rationals (n must be a perfect square)."""
    xq = Fraction(x) if not isinstance(x, Fraction) else x
    s = int(np.sqrt(n))
    assert s * s == n
    y = n * xq
    fr = y - (y.numerator // y.denominator)
    phi = max(fr, 1 - fr)
    u = s * phi
    v = u.numerator // u.denominator
    if fr < Fraction(1, 2) and u == v:
        v -= 1
    return int(v)


def union_interval_length(centers, r: float) -> float:
    """Exact length of a union of 1-D intervals [c - r, c + r]."""
    ivs = sorted((float(c) - r, float(c) + r) for c in np.asarray(centers).ravel())
    total = 0.0
    cur_lo, cur_hi = ivs[0]
    for lo, hi in ivs[1:]:
        if lo > cur_hi:
            total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    return total + (cur_hi - cur_lo)


@_memoised
def brute_greedy_thinning(points: np.ndarray, radius: float, good) -> np.ndarray:
    """Keep-mask of the greedy scan: in stored order, keep each good point
    whose squared distance to every earlier kept point is >= radius*radius."""
    pts = np.atleast_2d(points).tolist()
    rad2 = radius * radius
    kept = []
    for i, p in enumerate(pts):
        if good[i] and all(_d2(p, pts[k]) >= rad2 for k in kept):
            kept.append(i)
    mask = np.zeros(len(pts), dtype=bool)
    mask[kept] = True
    return mask


@_memoised
def brute_greedy_packing(points: np.ndarray, eps: float) -> np.ndarray:
    """Keep-mask of the greedy 2*eps-packing: the greedy scan with every point
    eligible."""
    return brute_greedy_thinning(points, 2.0 * eps, [True] * len(points))


@_memoised
def brute_sausage_count(points: np.ndarray, r: float, cell: float) -> int:
    """Cells ``k*cell + [0, cell)^m`` whose center lies within ``r`` of a point
    (axis-ordered ``d2 <= r*r``), testing every cell of the cloud's widened
    bounding box against every point."""
    pts = np.atleast_2d(points)
    lo = np.floor((pts.min(axis=0) - r) / cell).astype(int) - 1
    hi = np.floor((pts.max(axis=0) + r) / cell).astype(int) + 1
    cells = np.array(list(product(*(range(a, b + 1) for a, b in zip(lo, hi)))))
    centers = (cells + 0.5) * cell
    marked = np.zeros(len(cells), dtype=bool)
    for p in pts:
        d2 = np.zeros(len(cells))
        for a in range(len(p)):
            diff = p[a] - centers[:, a]
            d2 += diff * diff
        marked |= d2 <= r * r
    return int(marked.sum())


def brute_row_cells(point, row, r: float, cell: float) -> np.ndarray:
    """Cells ``k`` along the last axis whose cell ``(*row, k)`` has its center
    within ``r`` of ``point`` (axis-ordered ``d2 <= r*r``), where ``row``
    holds the cells on the other axes, testing every ``k`` of the point's
    widened interval ``[x - r, x + r]``."""
    x = float(point[-1])
    ks = np.arange(math.floor((x - r) / cell) - 1, math.floor((x + r) / cell) + 2)
    d2 = np.zeros(ks.size)
    for p, c in zip(point[:-1], row):
        diff = p - (c + 0.5) * cell
        d2 += diff * diff
    diff = x - (ks + 0.5) * cell
    d2 += diff * diff
    return ks[d2 <= r * r]


def brute_oscillation_counts(values, n: int) -> list:
    """max(1, ceil(2^n * (max - min))) over each closed dyadic column of a
    uniformly sampled function, by a plain loop."""
    vals = [float(v) for v in values]
    cols = 1 << n
    step = (len(vals) - 1) // cols
    out = []
    for k in range(cols):
        seg = vals[k * step:(k + 1) * step + 1]
        out.append(max(1, math.ceil(cols * (max(seg) - min(seg)))))
    return out


def brute_distinct_rows(cells) -> int:
    """Number of distinct rows of an integer array."""
    return len(set(map(tuple, np.atleast_2d(cells).tolist())))


def brute_box_cells(points, eps: float) -> set:
    """Occupied half-open boxes ``[k*eps, (k+1)*eps)^m``: the distinct tuples
    of ``math.floor(x / eps)``, in Python floats and unbounded integers."""
    return {tuple(math.floor(x / eps) for x in p) for p in np.atleast_2d(points).tolist()}


def brute_box_count(points, eps: float) -> int:
    """Number of occupied half-open boxes of side ``eps``."""
    return len(brute_box_cells(points, eps))


def decode_box_keys(keys, layout) -> list:
    """The cell tuples of packed box keys, in key order, in Python ints: axis
    ``a`` is ``layout.mins[a]`` plus the key's bits from ``layout.shifts[a]``
    up to the next axis's field (all the bits above, for the last axis)."""
    mins, shifts = layout.mins, layout.shifts
    ends = list(shifts[1:]) + [None]
    cells = []
    for key in np.asarray(keys).tolist():
        cells.append(tuple(lo + ((key >> start) if end is None
                                 else (key >> start) & ((1 << (end - start)) - 1))
                           for lo, start, end in zip(mins, shifts, ends)))
    return cells


def brute_closed_step_boxes(breaks, values, eps: float) -> set:
    """The closed boxes ``[k, k+1] x [l, l+1]`` (units of eps) meeting some
    segment ``[breaks[i], breaks[i+1]] x {values[i]}``, as ``(k, l)`` pairs.

    Each end and value is taken in exact rationals and moved onto the nearest
    lattice line when within ``1e-9 * max(1, |q|)`` of it; then every box
    near the segment is tested for contact, in Python ints.
    """
    unit = Fraction(eps)
    tol = Fraction(1e-9)

    def snapped(x):
        q = Fraction(x) / unit
        line = round(q)
        return Fraction(line) if abs(q - line) <= tol * max(1, abs(q)) else q

    boxes = set()
    for a, b, v in zip(breaks[:-1], breaks[1:], values):
        a, b, v = snapped(a), snapped(b), snapped(v)
        for k in range(math.floor(a) - 1, math.floor(b) + 2):
            for l in range(math.floor(v) - 1, math.floor(v) + 2):
                if k <= b and a <= k + 1 and l <= v <= l + 1:
                    boxes.add((k, l))
    return boxes


def rowwise_path_csv(path, fh) -> None:
    """A sample-path CSV written one row per ``write`` call, each value by
    its own ``f"{x:.17g}"``."""
    d = path.dim
    header = "t," + ",".join(f"b_{i}" for i in range(1, d + 1))
    header += "," + ",".join(f"f_{i}" for i in range(1, d + 1))
    fh.write(header + "\n")
    for t, b, f in zip(path.grid.times, path.bm_values, path.drift_values):
        row = [f"{t:.17g}"] + [f"{x:.17g}" for x in b] + [f"{x:.17g}" for x in f]
        fh.write(",".join(row) + "\n")
