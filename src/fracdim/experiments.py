"""Seeded experiments that replay the package's headline claims at desk scale.

An experiment sweeps seeds x scales for one drift/grid/dimension setup,
estimates the dimension of up to six objects (image and graph of the noise,
the drift, and their sum), aggregates across seeds by median and
interquartile range, and applies registered pass/fail checks.  Medians are
used because slope estimates at coarse scales are heavy-tailed; every
tolerance lives in the shipped config file, never in the check code.

Each object depends on part of the config only: the noise on the grid (set,
points), d and seed, the drift on the grid, d and drift, the sum on both,
and each estimate also on the sweep (scales, methods, refine).
``seed_estimates`` keeps every object's estimates in one memo under exactly
those inputs, and ``_measure`` alone decides what a seed lacks: it skips
each object whose key the memo holds, or that has none.  So the grid and
the drift's values are built once per (set, points, d, drift), from the grid
alone.  The memo keys each input as its entry writes it (``_setup_key``),
so a lookup reads no drift's knots, and two spellings of one input, such
as ``power:1`` and ``power:1.0``, are measured apart, to the same bytes.
This is exact: a sweep of the same cloud gives the same bytes, so every
estimate equals the one computed from scratch.

The seeds share nothing but the grid and the drift, so an experiment fills
the memo on two threads before it reads it in seed order: the calling
thread and the worker of a one-thread pool take jobs from one list, the
drift's and one per seed for its noise and sum (``_prefill``).  numpy
releases the GIL in the draws, sums, sorts and packing that take most of
the time, and the bytes are those of a serial run, as is the error of a
failing seed.

Each kind (bm, drift, sum) is measured as a graph and an image, and
``_measure``, which builds both, passes them to ``_estimates`` as the pair
(graph, image) with their kind, so the graph is swept first.  The image is
its graph with the time axis dropped, so the image's box sweep counts the
graph's box pyramid projected onto it: a seed floors, packs and sorts the
points of its graphs only.  No object's role is read from its name.  A
sweep that fails raises its error prefixed with
``"<object> by <method>: "``, and with ``"seed <seed>: "`` before that,
keeping its code.

The methods and their series kinds are ``metrics.METHOD_KINDS``.  A
method runs on the objects it can measure (``_method_applies``): those
whose clouds pass its ``metrics.check_premise``, the rule that
``scale_sweep`` and ``fracdim dims`` enforce, and, for the column
oscillation, graphs only, and the drift's and the sum's graphs only when
the drift is continuous.  In a column where the path jumps, the
oscillation counts every row between the two plateaus, which the cadlag
graph does not meet.

The claims registry ``CLAIMS`` is a table with one check per claim id:
constancy, thm13-image, thm15-graph, thm16-equality, cor14-bound,
example-53, example-74-directional.  A check reads its medians by the
claim's method, the config's first, through ``_medians``.  ``run_claims``
shares one memo between the claims of one call, so ``experiment --name
all`` measures each object once per distinct set of inputs: example-53
and example-74-directional share every object, thm15-graph reuses
constancy's, and thm16-equality measures no noise of its own, since
constancy's first eight seeds share its grid, d and sweep.
"""

import importlib.resources
import json
import math
import sys
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from . import kernels
from .constructions import (
    inverse_power_grid,
    lacunary_tail_bound,
    parse_schedule,
    staircase_steps,
    theoretical_image_bound,
)
from .errors import DomainError, prefixed
from .metrics import (
    METHOD_KINDS,
    PointCloud,
    bm_graph_cloud,
    bm_image_cloud,
    check_dimension_sweep,
    check_premise,
    drift_graph_cloud,
    drift_image_cloud,
    estimate_dimension,
    graph_cloud,
    image_cloud,
    scale_sweep,
)
# ``apply_drift`` is not called here, but the perfbench tracer wraps it
# where ``experiments`` and ``cli`` look it up
from .paths import (
    DriftSpec,
    TimeGrid,
    apply_drift,
    check_path_shape,
    drift_on_grid,
    generate_bm,
)

# ---------------------------------------------------------------------------
# drift / grid mini-grammar (shared by the CLI and the config file)


def parse_drift_string(text: str, d: int = 1) -> DriftSpec:
    """Parse ``zero | linear:<mu> | psi_n:<n> | lacunary:<preset>:<K> |
    table:<file>`` into a DriftSpec; a table's file is everything after
    ``table:``, colons included."""
    parts = text.split(":")
    head = parts[0]
    try:
        if head == "zero" and len(parts) == 1:
            return DriftSpec.zero(d)
        if head == "linear" and len(parts) == 2:
            mu = [float(x) for x in parts[1].split(",")]
            return DriftSpec.linear(mu)
        if head == "psi_n" and len(parts) == 2:
            return DriftSpec.psi_n(int(parts[1]))
        if head == "lacunary" and len(parts) == 3:
            schedule = parse_schedule(parts[1])
            return schedule.drift(int(parts[2]))
        if head == "table" and len(parts) > 1:
            data = np.loadtxt(text[len("table:"):], delimiter=",", ndmin=2)
            return DriftSpec.table(data[:, 0], data[:, 1:])
    except DomainError:
        raise
    except (ValueError, OSError) as exc:
        raise ValueError(f"bad drift spec {text!r}: {exc}") from exc
    raise ValueError(f"bad drift spec {text!r}: unknown form {head!r}")


def _integer(name: str, value) -> int:
    """``value`` if it is an int (not a bool), else a ValueError naming it."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _finite(value) -> bool:
    """Whether ``value`` is an int or float (not a bool) within the finite doubles."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def drift_from_config(spec, d: int) -> DriftSpec:
    """Drift from a grammar string, or from a ``staircase_table`` object with
    the keys ``kind``, ``n`` and, optionally, ``d``, which must be the
    experiment's ``d``."""
    if isinstance(spec, str):
        return parse_drift_string(spec, d)
    if not (isinstance(spec, dict) and spec.get("kind") == "staircase_table"
            and set(spec) <= {"kind", "n", "d"}):
        raise ValueError(f"unknown drift config {spec!r}")
    if _integer("staircase_table d", spec.get("d", d)) != d:
        raise ValueError(f"staircase_table drift with d={spec['d']} in a d={d} experiment")
    breaks, values = staircase_steps(_integer("staircase_table n", spec.get("n")))
    cols = np.zeros((values.size, d))
    cols[:, 0] = values
    return DriftSpec.table(breaks[:-1], cols)


def parse_set_string(text: str) -> tuple[str, dict]:
    """Parse a set token: uniform | power:<beta>, with beta positive and
    finite.  ``points`` sizes either."""
    parts = text.split(":") if isinstance(text, str) else [None]
    if parts[0] == "uniform" and len(parts) == 1:
        return "uniform", {}
    if parts[0] == "power" and len(parts) == 2:
        try:
            beta = float(parts[1])
        except ValueError:
            beta = math.nan
        if math.isfinite(beta) and beta > 0:
            return "power_set", {"beta": beta}
        raise ValueError(f"bad set {text!r}; power:<beta> needs a positive finite beta")
    raise ValueError(f"bad set {text!r}; need uniform | power:<beta>")


def build_grid(token: str, points: int) -> TimeGrid:
    """The grid of the set ``token`` with ``points`` points."""
    kind, params = parse_set_string(token)
    if kind == "uniform":
        return TimeGrid.uniform(points)
    return inverse_power_grid(params["beta"], points - 1)


# ---------------------------------------------------------------------------
# configuration


def _check_entry(entry, allowed: tuple, required: tuple) -> None:
    """Refuse a non-object entry, a key not in ``allowed`` or a missing one."""
    if not isinstance(entry, dict):
        raise ValueError(f"an experiment entry must be an object, got {entry!r}")
    unknown = sorted(set(entry) - set(allowed))
    if unknown:
        raise ValueError(f"unknown config keys {unknown}; allowed: {list(allowed)}")
    missing = [key for key in required if key not in entry]
    if missing:
        raise ValueError(f"missing config keys {missing}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment byte for byte.

    Every field but ``name`` and ``drift_spec`` is the entry key of that
    name, as the entry gives it, with the default an entry that leaves the
    key out gets; ``drift_spec`` is derived from ``drift``.  The window and
    ``refine`` must pass ``metrics.check_dimension_sweep`` for the methods,
    so a window of fewer than three scales, or a sausage ``refine`` too fine
    at every scale, is refused before any seed runs.  ``to_dict``
    gives the init fields as they are, tuples included, but ``set`` as its
    parsed ``{"kind": ..., **params}`` block.
    """

    name: str
    seeds: tuple
    points: int
    scales: tuple  # (j_min, j_max)
    drift: object = "zero"
    set: str = "uniform"
    d: int = 1
    methods: tuple = ("box",)
    refine: int = 4
    target: tuple | None = None  # (claimed value, tolerance)
    drift_spec: DriftSpec = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("seeds", "scales", "methods", "target"):  # JSON lists
            if isinstance(getattr(self, name), list):
                object.__setattr__(self, name, tuple(getattr(self, name)))
        if not (isinstance(self.seeds, tuple) and self.seeds):
            raise ValueError(f"seeds must be a non-empty list, got {self.seeds!r}")
        for name, value in [("d", self.d), ("points", self.points), ("refine", self.refine),
                            *(("each seed", seed) for seed in self.seeds)]:
            _integer(name, value)
        if len(set(self.seeds)) < len(self.seeds):
            raise ValueError(f"seeds must not repeat, got {list(self.seeds)!r}")
        if not (isinstance(self.scales, tuple) and len(self.scales) == 2
                and all(isinstance(j, int) and not isinstance(j, bool) for j in self.scales)):
            raise ValueError(f"scales must be two integers [j_min, j_max], got {self.scales!r}")
        if not (isinstance(self.methods, tuple) and self.methods):
            raise ValueError(f"methods must be a non-empty list, got {self.methods!r}")
        bad = [m for m in self.methods if not isinstance(m, str) or m not in METHOD_KINDS]
        if bad:
            raise ValueError(f"unknown methods {bad}")
        j_min, j_max = self.scales
        check_dimension_sweep(j_min, j_max, self.refine, self.methods)
        check_path_shape(self.points, self.d)
        parse_set_string(self.set)
        if self.points < 2 ** (j_max + 2):
            raise ValueError(
                f"points={self.points} under-resolves j_max={j_max}; need >= 2^{j_max + 2}"
            )
        if self.target is not None and not (
                isinstance(self.target, tuple) and len(self.target) == 2
                and all(map(_finite, self.target))):
            raise ValueError(f"target must be two numbers [value, tolerance], each finite, "
                             f"got {self.target!r}")
        object.__setattr__(self, "drift_spec", drift_from_config(self.drift, self.d))

    def to_dict(self) -> dict:
        kind, params = parse_set_string(self.set)
        return {**{f.name: getattr(self, f.name) for f in fields(self) if f.init},
                "set": {"kind": kind, **params}}


# the keys of an experiment entry, those it needs, and the keys of an example entry
_ENTRY_FIELDS = [f for f in fields(ExperimentConfig) if f.init and f.name != "name"]
_ENTRY_KEYS = tuple(f.name for f in _ENTRY_FIELDS)
_REQUIRED_KEYS = tuple(f.name for f in _ENTRY_FIELDS if f.default is MISSING)
_EXAMPLE_KEYS = ("schedule", "truncation", "points", "scales", "seeds", "target")


@dataclass(frozen=True)
class ExperimentReport:
    """One experiment's config block, per-seed estimates, aggregates and
    verdicts; ``to_dict`` gives the fields as they are, and ``json`` writes
    their tuples as arrays."""

    config: dict
    per_seed: tuple
    aggregates: dict
    verdicts: tuple

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def median(self, obj: str, method: str) -> float:
        """The median of ``obj`` by ``method``; ``not-measured`` if there is none."""
        if method not in self.aggregates.get(obj, {}):
            raise DomainError("not-measured", f"{obj} by {method}")
        return self.aggregates[obj][method]["median"]

    @property
    def objects(self) -> list:
        return sorted(self.aggregates.keys())


# ---------------------------------------------------------------------------
# running


def _method_applies(method: str, kind: str, is_graph: bool, cloud: PointCloud,
                    cfg: ExperimentConfig) -> bool:
    try:
        check_premise(METHOD_KINDS[method], cloud)
    except DomainError:
        return False
    # a column where the path jumps counts the rows between its plateaus,
    # which the cadlag graph does not meet
    return method != "oscillation" or (is_graph and (kind == "bm" or cfg.drift_spec.is_continuous))


def _estimates(cfg: ExperimentConfig, kind: str, graph: PointCloud, image: PointCloud) -> dict:
    """``{object: {method: estimate}}`` for every method that applies, for
    the graph and the image of one kind (``graph_<kind>``, ``image_<kind>``).

    The graph is swept first, as ``_measure`` passes it first.  Its box
    sweep counts its pyramid (``kernels.box_pyramid``), and each scale's
    keys are projected onto the image as they go by
    (``kernels.drop_first_axis``): the image is the graph with its time
    axis dropped, so its occupied boxes are the projections of the graph's.
    The image's box sweep counts those, and its own cells at a scale where
    the graph's were refused.  Only the projections outlive the graph's
    sweep.
    """
    j_min, j_max = cfg.scales
    projected = []

    def graph_cells():
        projected.clear()
        for boxes in kernels.box_pyramid(graph.columns, j_min, j_max, graph.bounds):
            projected.append(boxes and kernels.drop_first_axis(*boxes))
            yield boxes

    ests = {}
    for obj, cloud, cells in ((f"graph_{kind}", graph, graph_cells),
                              (f"image_{kind}", image, lambda: iter(projected))):
        ests[obj] = {}
        for method in cfg.methods:
            if _method_applies(method, kind, cloud is graph, cloud, cfg):
                known = {"cells": cells()} if method == "box" else {}
                try:
                    ests[obj][method] = estimate_dimension(scale_sweep(
                        cloud, METHOD_KINDS[method], j_min, j_max, refine=cfg.refine, **known))
                except ValueError as exc:
                    raise prefixed(exc, f"{obj} by {method}: ") from exc
    return ests


def _setup_key(cfg: ExperimentConfig) -> tuple:
    """The memo key of the grid and the drift's values: ((set, points, d),
    drift), each as the entry writes it, with a ``staircase_table`` drift
    as its JSON text with sorted keys."""
    drift = cfg.drift if isinstance(cfg.drift, str) else json.dumps(cfg.drift, sort_keys=True)
    return (cfg.set, cfg.points, cfg.d), drift


def _memo_keys(cfg: ExperimentConfig, seed) -> dict:
    """The memo key of each object's estimates for ``seed``, under the
    inputs it depends on, with the sweep as (scales, methods, refine): the
    noise's under (grid, d, sweep, seed), the drift's under (grid, d,
    drift, sweep) and the sum's under both.  A zero drift has no drift or
    sum."""
    setup = _setup_key(cfg)
    sweep = (cfg.scales, cfg.methods, cfg.refine)
    keys = {"bm": ("bm", setup[0], sweep, seed)}
    if not cfg.drift_spec.is_zero:
        keys.update(drift=("drift", setup, sweep), sum=("sum", setup, sweep, seed))
    return keys


# The grid and the drift's values on it: all of a path that the drift's
# clouds read, so the drift is measured on it with no noise drawn.
_Setup = namedtuple("_Setup", "grid drift_values")


def _setup(cfg: ExperimentConfig, memo: dict) -> _Setup:
    """The grid of ``cfg`` and its drift's values, built from the grid alone
    once per (grid, d, drift) and kept in ``memo``."""
    key = _setup_key(cfg)
    if key not in memo:
        grid = build_grid(cfg.set, cfg.points)
        memo[key] = _Setup(grid, drift_on_grid(cfg.drift_spec, grid, cfg.d))
    return memo[key]


def _measure(cfg: ExperimentConfig, seed: int, memo: dict, objs: tuple) -> None:
    """Measure those of the objects ``objs`` (of bm, drift and sum, in that
    order) of ``seed`` that ``memo`` lacks, and store each one's estimates
    in it.  An object whose memo key is held is skipped, as is one with no
    key: a zero drift's drift and sum (``_memo_keys``).  Each object's graph
    and image are built here and passed to ``_estimates`` with its kind,
    the graph first.

    The drift is measured on the setup alone.  The noise is drawn only if
    bm or sum is left, with the setup's drift values attached, and the path
    is dropped once the sum's clouds are built: they hold only the path's
    noise plus drift and the grid's times, so the sum's sweeps hold one
    array of the path's size, not two.
    """
    keys = _memo_keys(cfg, seed)
    objs = [obj for obj in objs if obj in keys and keys[obj] not in memo]
    setup = _setup(cfg, memo)
    path = (generate_bm(setup.grid, cfg.d, seed, setup.drift_values)
            if {"bm", "sum"} & set(objs) else None)
    builders = {"bm": (bm_graph_cloud, bm_image_cloud), "sum": (graph_cloud, image_cloud),
                "drift": (drift_graph_cloud, drift_image_cloud)}
    for kind in objs:
        source = setup if kind == "drift" else path
        graph, image = (build(source) for build in builders[kind])
        if kind == "sum":
            path = source = None  # the noise is no longer needed
        memo[keys[kind]] = _estimates(cfg, kind, graph, image)


def seed_estimates(cfg: ExperimentConfig, seed: int, memo: dict) -> dict:
    """All requested estimates for one seed; pure in (cfg, seed).

    ``memo`` keeps the estimates of each object under the inputs it depends
    on (``_memo_keys``), and the grid and the drift's values under (grid,
    d, drift) (``_setup_key``).  This hands every object to ``_measure``,
    which measures those the memo lacks and stores them in it.
    ``run_experiment`` fills the memo for all its seeds on two threads
    (``_prefill``) before it calls this once per seed, in seed order, so
    there every call finds them, unless a seed's job failed: then this call
    measures that seed again and raises its error.
    """
    _measure(cfg, seed, memo, ("bm", "drift", "sum"))
    return {name: dict(per) for key in _memo_keys(cfg, seed).values()
            for name, per in memo[key].items()}


def _prefill(cfg: ExperimentConfig, memo: dict) -> None:
    """Fill ``memo`` with the estimates that the seeds of ``cfg`` lack, on
    the calling thread and one worker thread.

    The setup is built first, on the calling thread.  Then both threads take
    jobs from one list iterator: the drift's, and ``("bm", "sum")`` for each
    seed, so no two threads write one memo key; ``_measure`` skips what the
    memo holds.  numpy releases the GIL in the draws, sums and sorts that
    take most of the time.  A job that raises a ``ValueError`` leaves its
    objects out of the memo; the caller's in-order loop measures them again
    and raises the error there, for the first failing seed in seed order, as
    a serial run would.  Any other exception ends the thread it arose on,
    which first drains the iterator, so the other thread starts no further
    job; it is raised here once the worker has ended (the worker's by its
    future), and the worker never outlives the call.
    """
    try:
        _setup(cfg, memo)
    except ValueError:
        return  # raised again at the first seed
    pending = iter([(cfg.seeds[0], ("drift",)), *((seed, ("bm", "sum")) for seed in cfg.seeds)])

    def work():
        try:
            for seed, objs in pending:
                try:
                    _measure(cfg, seed, memo, objs)
                except ValueError:
                    pass  # measured again, and raised, by the in-order loop
        finally:
            for _ in pending:  # the other thread starts no further job
                pass

    # The caller stays one of the two workers.  ``Executor.map`` over a
    # two-thread pool, the caller idle, keeps the bytes and the error order,
    # but on ``perfbench/run.py --workload claims`` (3 pairs, seeds
    # 3001-3003) it raised ``peak_rss_mb`` from 62.5-63.7 to 71.4-71.5 MB,
    # past that metric's 10% bound, and ``wall_s`` was no better.
    with ThreadPoolExecutor(1) as pool:
        worker = pool.submit(work)
        work()
    worker.result()


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run seeds x methods x objects and aggregate; deterministic in cfg."""
    return _run_experiment(cfg, {})


def _run_experiment(cfg: ExperimentConfig, memo: dict) -> ExperimentReport:
    """``run_experiment`` reading and filling the estimate memo of
    ``seed_estimates``."""
    _prefill(cfg, memo)
    per_seed = []
    slopes: dict = {}
    for seed in cfg.seeds:
        try:
            ests = seed_estimates(cfg, seed, memo)
        except ValueError as exc:
            raise prefixed(exc, f"seed {seed}: ") from exc
        block = {"seed": seed, "estimates": {}}
        for obj, per in ests.items():
            block["estimates"][obj] = {m: e.to_dict() for m, e in per.items()}
            for m, e in per.items():
                slopes.setdefault(obj, {}).setdefault(m, []).append(e.ls_slope)
        per_seed.append(block)
    aggregates = {
        obj: {
            m: {
                "median": float(np.median(v)),
                "iqr": float(np.percentile(v, 75) - np.percentile(v, 25)),
            }
            for m, v in per.items()
        }
        for obj, per in slopes.items()
    }
    return ExperimentReport(cfg.to_dict(), tuple(per_seed), aggregates, ())


# ---------------------------------------------------------------------------
# checks


def _verdict(claim: str, passed: bool, margin: float, detail: str) -> dict:
    return {"claim": claim, "pass": bool(passed), "margin": float(margin), "detail": detail}


def _medians(cfg: ExperimentConfig, report: ExperimentReport, role: str, *kinds: str) -> list:
    """The median of ``<role>_<kind>`` for each of ``kinds``, in order, by
    the claim's method, the config's first; ``not-measured`` at the first
    that has none."""
    return [report.median(f"{role}_{kind}", cfg.methods[0]) for kind in kinds]


def check_constancy(cfg: ExperimentConfig, report: ExperimentReport, iqr_tol: float) -> dict:
    """Cross-seed constancy: the IQR of ls_slope stays below the tolerance
    for every measured object."""
    iqrs = [agg["iqr"] for per in report.aggregates.values() for agg in per.values()]
    if not iqrs:
        raise DomainError("not-measured", f"any object by {', '.join(cfg.methods)}")
    worst = max(iqrs)
    return _verdict("constancy", worst <= iqr_tol, worst,
                    f"max ls_slope IQR {worst:.4f} across objects (tolerance {iqr_tol})")


def _inequality(cfg: ExperimentConfig, report: ExperimentReport, claim: str, prefix: str,
                slack: float) -> dict:
    if cfg.drift_spec.is_zero:
        return _verdict(claim, True, 0.0, "zero drift: inequality collapses to equality")
    med_sum, med_bm, med_drift = _medians(cfg, report, prefix, "sum", "bm", "drift")
    margin = med_sum - max(med_bm, med_drift)
    return _verdict(claim, margin >= -slack, margin, f"median {prefix}(sum)={med_sum:.4f} vs "
                    f"max(bm={med_bm:.4f}, drift={med_drift:.4f}), slack {slack}")


def check_image_inequality(cfg: ExperimentConfig, report: ExperimentReport, slack: float) -> dict:
    """Adding a drift cannot shrink the image dimension (up to the slack)."""
    return _inequality(cfg, report, "thm13-image", "image", slack)


def check_graph_inequality(cfg: ExperimentConfig, report: ExperimentReport, slack: float) -> dict:
    """Adding a drift cannot shrink the graph dimension (up to the slack)."""
    return _inequality(cfg, report, "thm15-graph", "graph", slack)


def check_graph_equality_continuous(cfg: ExperimentConfig, report: ExperimentReport,
                                    tol: float) -> dict:
    """For continuous drifts over the full interval in 1-D, the graph
    dimension of the sum matches the larger component dimension."""
    if cfg.drift_spec.is_zero:
        return _verdict("thm16-equality", True, 0.0, "zero drift: trivial equality")
    med_sum, med_bm, med_drift = _medians(cfg, report, "graph", "sum", "bm", "drift")
    diff = abs(med_sum - max(med_bm, med_drift))
    return _verdict("thm16-equality", diff <= tol, diff,
                    f"|median graph(sum) - max components| = {diff:.4f} (tolerance {tol})")


def check_corollary_bound(cfg: ExperimentConfig, report: ExperimentReport, below: float,
                          above: float) -> dict:
    """Image dimension of the noise over the power grid {n^-beta} sits in the
    window around 2*alpha/(alpha+1) with alpha = 1/(1+beta)."""
    alpha = 1.0 / (1.0 + parse_set_string(cfg.set)[1]["beta"])
    target = theoretical_image_bound(alpha, 1)
    [med] = _medians(cfg, report, "image", "bm")
    margin = med - target
    return _verdict("cor14-bound", -below <= margin <= above, margin, f"median image(bm)={med:.4f} "
                    f"vs target {target:.4f} (window -{below}/+{above})")


def check_example_53(cfg: ExperimentConfig, report: ExperimentReport) -> dict:
    """Measured graph dimension of the truncated staircase sum is within the
    tolerance of the analytic target, both frozen in the config's target."""
    target, tol = (float(x) for x in cfg.target)
    [med] = _medians(cfg, report, "graph", "drift")
    margin = med - target
    return _verdict("example-53", abs(margin) <= tol, margin, f"median graph(drift)={med:.4f} "
                    f"vs analytic target {target:.4f} (tolerance {tol})")


def check_example_74(cfg: ExperimentConfig, report: ExperimentReport, min_gap: float) -> dict:
    """Directional version of the jump-interpolation effect: the graph of
    noise+staircase beats the staircase graph by at least min_gap."""
    med_sum, med_drift = _medians(cfg, report, "graph", "sum", "drift")
    margin = med_sum - med_drift
    return _verdict("example-74-directional", margin >= min_gap, margin, f"median graph(sum)="
                    f"{med_sum:.4f} vs graph(drift)={med_drift:.4f} (min gap {min_gap})")


def _requires(claim: str, cfg: ExperimentConfig) -> None:
    """Refuse a config whose claim's check could not judge it: the premises
    of the claim, checked before any of its seeds runs."""
    if claim == "constancy" and len(cfg.seeds) < 8:
        raise DomainError("insufficient-seeds", "constancy needs >= 8 seeds")
    if claim == "thm16-equality":
        if not cfg.drift_spec.is_continuous:
            raise DomainError("drift-not-continuous", f"{cfg.drift!r} has jumps")
        if cfg.set != "uniform" or cfg.d != 1:
            raise DomainError("equality-needs-uniform-d1", "equality check needs d=1 over [0, 1]")
    if claim == "cor14-bound":
        if parse_set_string(cfg.set)[0] != "power_set":
            raise DomainError("not-power-grid", "corollary check needs a power_set grid")
        if cfg.d != 1:
            raise DomainError("corollary-needs-d1", "the 2a/(a+1) branch applies to d=1 only")
    if claim == "example-53" and cfg.target is None:
        raise ValueError("missing target [value, tolerance]")


# ---------------------------------------------------------------------------
# claims registry


def default_config() -> dict:
    """The shipped defaults, read from the package's data file."""
    ref = importlib.resources.files("fracdim").joinpath("data/default_config.json")
    return json.loads(ref.read_text(encoding="utf-8"))


def load_config(path: str | None = None) -> dict:
    """The shipped defaults, or the config object in the JSON file ``path``."""
    if path is None:
        return default_config()
    with open(path, encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError(f"config {path} must hold a JSON object, got {config!r}")
    return config


def _claim_config(claim: str, entry: dict) -> ExperimentConfig:
    """Experiment of one claim's config entry.

    An example entry names a lacunary schedule and its truncation; it runs
    as the experiment ``example`` with the drift ``lacunary:<schedule>:<K>``
    over the uniform grid in one dimension.
    """
    if not isinstance(entry, dict) or "schedule" not in entry:
        _check_entry(entry, _ENTRY_KEYS, _REQUIRED_KEYS)
        return ExperimentConfig(claim, **entry)
    _check_entry(entry, _EXAMPLE_KEYS, ("truncation", "points", "scales", "seeds"))
    truncation = _integer("truncation", entry["truncation"])
    rest = {k: v for k, v in entry.items() if k not in ("schedule", "truncation")}
    return ExperimentConfig("example", drift=f"lacunary:{entry['schedule']}:{truncation}", **rest)


# One row per claim: (check, tolerance keys), called as
# check(cfg, report, *tolerances) on the claim's config and report.
CLAIMS = {
    "constancy": (check_constancy, ("constancy_iqr",)),
    "thm13-image": (check_image_inequality, ("inequality_slack",)),
    "thm15-graph": (check_graph_inequality, ("inequality_slack",)),
    "thm16-equality": (check_graph_equality_continuous, ("equality_tol",)),
    "cor14-bound": (check_corollary_bound, ("corollary_below", "corollary_above")),
    "example-53": (check_example_53, ()),
    "example-74-directional": (check_example_74, ("example74_min_gap",)),
}

CLAIM_IDS = tuple(CLAIMS)


def run_claims(names, config: dict | None = None) -> dict:
    """Run registered claims and return ``{claim: report with its verdict}``.

    Every named claim's config, tolerances and premises (``_requires``) are
    checked before any experiment runs.  The claims of one call share the
    estimate memo of ``seed_estimates``, so each object is measured once per
    distinct set of the inputs it depends on.  A ``ValueError`` gains the
    claim (and, when a seed failed, the seed) before its message; a
    ``DomainError`` keeps its code.
    """
    cfg_all = config if config is not None else default_config()
    tol, entries = cfg_all.get("tolerances", {}), cfg_all.get("experiments")
    for key, value in (("tolerances", tol), ("experiments", entries)):
        if not isinstance(value, dict):
            raise ValueError(f"config key {key!r} must be an object, got {value!r}")
    plans, memo, reports = {}, {}, {}
    try:
        for claim in names:
            if claim not in CLAIMS:
                raise KeyError(f"unknown claim {claim!r}; valid ids: {', '.join(CLAIM_IDS)}")
            if claim not in entries:
                raise ValueError("no entry under config key 'experiments'")
            check, keys = CLAIMS[claim]
            exp_cfg = entries[claim]
            exp = _claim_config(claim, exp_cfg)
            _requires(claim, exp)
            plans[claim] = (exp_cfg, exp, check, [_tolerance(tol, key) for key in keys])
        for claim, (exp_cfg, exp, check, values) in plans.items():
            report = _run_experiment(exp, memo)
            if "schedule" in exp_cfg:
                report.config["tail_bound"] = lacunary_tail_bound(
                    parse_schedule(exp_cfg["schedule"]), exp_cfg["truncation"])
            reports[claim] = replace(report, verdicts=(check(exp, report, *values),))
    except ValueError as exc:  # ``claim`` is the claim that raised
        raise prefixed(exc, f"claim {claim!r}: ") from exc
    return reports


def _tolerance(tol: dict, key: str) -> float:
    """The tolerance ``key``, which must be present and a finite number."""
    value = tol.get(key)
    if not _finite(value):
        raise ValueError(f"tolerance {key!r} must be a finite number, got {value!r}"
                         if key in tol else f"missing tolerance {key!r}")
    return float(value)


def run_claim(claim: str, config: dict | None = None) -> ExperimentReport:
    """Run one registered claim and return its report with its verdict."""
    return run_claims([claim], config)[claim]
