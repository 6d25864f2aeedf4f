"""Analytic constructions: staircase drifts, lacunary schedules, convergent
power grids, and closed-form covering bounds.

The staircase of frequency n is piecewise constant on intervals of length
n^(-3/2); summing staircases over a rapidly increasing frequency schedule
gives a cadlag function whose graph is expensive to cover at some scales and
cheap at others.  The closed-form pieces here (tail envelopes, covering
bounds, two-regime box-count orders) are exact formulas; empirical
counterparts live in :mod:`fracdim.metrics`.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .paths import MAX_GRID_POINTS, DriftSpec, TimeGrid, _staircase, frozen

# ---------------------------------------------------------------------------
# frequency schedules


@dataclass(frozen=True)
class LacunarySchedule:
    """Strictly increasing staircase frequency schedule n_1 < n_2 < ...

    Presets: ``desk`` (n_k = 4^(k+2), computable on float grids) and
    ``paper`` (n_k = 2^(6^k), usable only by the closed-form operations --
    its second frequency already needs 2^36 sample resolution).  Custom
    schedules are finite explicit lists.
    """

    preset: str  # desk | paper | custom
    frequencies_list: tuple[int, ...] | None = None

    @staticmethod
    def desk() -> "LacunarySchedule":
        return LacunarySchedule("desk")

    @staticmethod
    def paper() -> "LacunarySchedule":
        return LacunarySchedule("paper")

    @staticmethod
    def custom(frequencies) -> "LacunarySchedule":
        freqs = tuple(int(n) for n in frequencies)
        if any(b <= a for a, b in zip(freqs, freqs[1:])) or any(n < 1 for n in freqs):
            raise ValueError("schedule must be strictly increasing positive integers")
        return LacunarySchedule("custom", freqs)

    def log2_frequency(self, k: int) -> float:
        """log2(n_k) for 1-based k; avoids forming astronomically large n_k."""
        if k < 1:
            raise ValueError("schedule index is 1-based")
        if self.preset == "desk":
            # 2 * (k + 2) is past the largest double from k + 2 = 2^1023 on
            return 2.0 * (k + 2) if k + 2 < 2**1023 else math.inf
        if self.preset == "paper":
            # 6^k is past the largest double from k = 397 on
            return float(6**k) if k < 397 else math.inf
        if k > len(self.frequencies_list):
            raise IndexError("past the end of a finite custom schedule")
        return math.log2(self.frequencies_list[k - 1])

    def length(self) -> int | None:
        """Number of terms, or None for the infinite presets."""
        return len(self.frequencies_list) if self.preset == "custom" else None

    def check_truncation(self, count: int) -> None:
        """Refuse a truncation below 0 or past the end of a custom schedule."""
        top = math.inf if self.length() is None else self.length()
        if not 0 <= count <= top:
            raise ValueError(f"truncation={count}; need 0 <= truncation <= {top}")

    def frequencies(self, count: int) -> tuple[int, ...]:
        """The first ``count`` frequencies as integers."""
        self.check_truncation(count)
        if self.preset == "custom":
            return self.frequencies_list[:count]
        return tuple(int(round(2.0 ** self.log2_frequency(k))) for k in range(1, count + 1))

    def drift(self, truncation: int) -> DriftSpec:
        """The sum of the first ``truncation`` staircases, if float grids can hold it."""
        try:
            return DriftSpec.lacunary(self.frequencies(truncation))
        except (DomainError, OverflowError) as exc:
            raise DomainError(
                "schedule-not-simulable",
                f"{self.preset} schedule truncated at {truncation} has frequencies "
                "beyond float-grid resolution; only the closed-form operations apply",
            ) from exc


def parse_schedule(token: str) -> LacunarySchedule:
    if token == "desk":
        return LacunarySchedule.desk()
    if token == "paper":
        return LacunarySchedule.paper()
    if token.startswith("custom(") and token.endswith(")"):
        return LacunarySchedule.custom(int(x) for x in token[7:-1].split(","))
    raise ValueError(f"unknown schedule {token!r}")


def lacunary_tail_bound(schedule: LacunarySchedule, truncation: int) -> float:
    """Certified upper bound sum_{k > K} n_k^(-1/4) on the discarded tail sup.

    Each staircase is bounded by n^(-3/4) * sqrt(n) = n^(-1/4), so this
    envelope dominates the sup of the dropped terms.  Summation stops at the
    end of a custom schedule or once terms vanish against the sum; the
    presets are geometric (``desk``) or underflow to 0 by k = 5 (``paper``),
    so every schedule's sum ends.
    """
    schedule.check_truncation(truncation)
    total = 0.0
    k = truncation + 1
    length = schedule.length()
    while length is None or k <= length:
        term = 2.0 ** (-schedule.log2_frequency(k) / 4.0)
        total += term
        if term == 0.0 or term < 1e-18 * total:
            break
        k += 1
    return total


# ---------------------------------------------------------------------------
# convergent power grids {n^-beta} U {0}


def inverse_power_grid(beta: float, n_max: int) -> TimeGrid:
    """The grid {0} U {n^-beta : 1 <= n <= n_max}, sorted ascending.

    Its box dimension is 1/(1+beta): gaps scale like the points themselves,
    so the count of resolvable points at scale eps grows like
    eps^(-1/(1+beta)).
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_max + 1 > MAX_GRID_POINTS:
        raise DomainError("grid-too-large", f"{n_max + 1} points exceed cap {MAX_GRID_POINTS}")
    pts = np.arange(1, n_max + 1, dtype=np.float64) ** (-float(beta))
    return TimeGrid(frozen(np.concatenate([[0.0], pts[::-1]])))


# ---------------------------------------------------------------------------
# closed-form bounds


def holder_cover_bound(L: float, gamma: float, beta: float, epsilon: float) -> int:
    """Covering-number bound for the image of a gamma-Hoelder function (with
    constant L) over the grid {n^-beta} U {0}:
    ceil(2 L k^(-gamma beta) / eps) + k with k = ceil(eps^(-1/(gamma beta + 1))).

    The first term covers the accumulation head near 0, the second grants one
    ball to each of the k isolated tail points.
    """
    if not 0 <= L < math.inf:
        raise ValueError(f"L must be finite and >= 0, got {L}")
    if not 0 < gamma <= 1:
        raise ValueError("gamma must lie in (0, 1]")
    if not 0 < beta < math.inf:
        raise ValueError(f"beta must be positive and finite, got {beta}")
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    gb = gamma * beta
    try:
        k = math.ceil(epsilon ** (-1.0 / (gb + 1.0)))
        return int(math.ceil(2.0 * L * k**-gb / epsilon)) + int(k)
    except OverflowError:
        raise ValueError(f"the bound overflows a double at L={L}, gamma={gamma}, "
                         f"beta={beta}, epsilon={epsilon}") from None


def theoretical_image_bound(alpha: float, d: int) -> float:
    """Lower bound on the image dimension of a Brownian path over a set of
    dimension alpha: 2*alpha/(alpha+1) in one ambient dimension, 2*alpha in
    two or more."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if d < 1:
        raise ValueError("d must be >= 1")
    return 2.0 * alpha / (alpha + 1.0) if d == 1 else 2.0 * alpha


def psi_jump_size(n: int) -> float:
    """Jump size n^(-3/4) of the frequency-n staircase, where the two
    branches of ``psi_graph_count_formula`` meet.  An ``n`` that rounds past
    the largest double raises ``DomainError("frequency-too-large")``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    try:
        return float(n) ** -0.75
    except OverflowError:
        raise DomainError("frequency-too-large", "n is too large for a double") from None


def psi_graph_count_formula(n: int, epsilon: float) -> float:
    """Order-of-magnitude box count for the graph of the frequency-n
    staircase, with implied constant 1.

    Below the jump size n^(-3/4), columns are dominated by the jump heights:
    order sqrt(n)/eps boxes.  At or above it, each column needs
    oscillation/eps boxes: order n^(-1/4)/eps^2.  The two branches agree, at
    n^(5/4), when eps = n^(-3/4).  Valid for eps strictly between the step
    width n^(-3/2) and 1.  A count past the largest double raises
    ``DomainError("count-too-large")``.
    """
    jump = psi_jump_size(n)
    if not float(n) ** -1.5 < epsilon < 1.0:
        raise DomainError("scale-out-of-regime", f"need eps in (n^-1.5, 1), got {epsilon}")
    # divide by eps twice: eps**2 underflows to 0 from about n = 2^716 on
    count = (math.sqrt(float(n)) / epsilon if epsilon < jump
             else float(n) ** -0.25 / epsilon / epsilon)
    if count == math.inf:
        raise DomainError("count-too-large", f"the count at eps = {epsilon!r} overflows")
    return count


# ---------------------------------------------------------------------------
# exact step structure of staircase sums


def staircase_steps(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Breakpoints and right-limit values of the frequency-n staircase.

    The function is constant on [b_i, b_(i+1)) with the returned value; the
    breakpoints are all multiples of n^(-3/2), which requires n to be a
    perfect square so that the ramp crosses integers on a regular grid.
    """
    s = math.isqrt(max(int(n), 0))
    if n < 1 or s * s != n:
        raise ValueError("step structure needs a positive perfect-square frequency")
    n_steps = n * s  # n^(3/2)
    if n_steps >= MAX_GRID_POINTS:
        raise DomainError("grid-too-large", f"frequency {n} has {n_steps} steps; "
                          f"cap {MAX_GRID_POINTS} breakpoints")
    breaks = np.arange(n_steps + 1, dtype=np.float64) / n_steps
    values = _staircase(n, breaks[:-1])
    return breaks, values


def lacunary_steps(frequencies) -> tuple[np.ndarray, np.ndarray]:
    """Merged breakpoints and values of the staircase sum over ``frequencies``."""
    freqs = tuple(int(x) for x in frequencies)
    if not freqs:
        return np.array([0.0, 1.0]), np.array([0.0])
    all_breaks = [staircase_steps(n)[0] for n in freqs]
    breaks = np.unique(np.concatenate(all_breaks))
    values = np.zeros(breaks.size - 1)
    for n in freqs:
        values += _staircase(n, breaks[:-1])
    return breaks, values
