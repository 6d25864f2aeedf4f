"""Seeded experiments that replay the package's headline claims at desk scale.

An experiment sweeps seeds x scales for one drift/grid/dimension setup,
estimates the dimension of up to six objects (image and graph of the noise,
the drift, and their sum), aggregates across seeds by median and
interquartile range, and applies registered pass/fail checks.  Medians are
used because slope estimates at coarse scales are heavy-tailed; every
tolerance lives in the shipped config file, never in the check code.

Registered claim ids: constancy, thm13-image, thm15-graph, thm16-equality,
cor14-bound, example-53, example-74-directional.
"""

import importlib.resources
import json
import os
from dataclasses import dataclass

import numpy as np

from .constructions import (
    LacunarySchedule,
    inverse_power_grid,
    lacunary_tail_bound,
    parse_schedule,
    staircase_steps,
    theoretical_image_bound,
)
from .errors import DomainError
from .metrics import (
    PointCloud,
    bm_graph_cloud,
    bm_image_cloud,
    drift_graph_cloud,
    drift_image_cloud,
    estimate_dimension,
    graph_cloud,
    image_cloud,
    scale_sweep,
)
from .paths import DriftSpec, TimeGrid, apply_drift, generate_bm

CLAIM_IDS = (
    "constancy",
    "thm13-image",
    "thm15-graph",
    "thm16-equality",
    "cor14-bound",
    "example-53",
    "example-74-directional",
)

_METHOD_KINDS = {
    "box": "box",
    "packing": "packing",
    "sausage": "sausage_volume",
    "oscillation": "oscillation",
}


# ---------------------------------------------------------------------------
# drift / grid mini-grammar (shared by the CLI and the config file)


def parse_drift_string(text: str, d: int = 1) -> DriftSpec:
    """Parse ``zero | linear:<mu> | psi_n:<n> | lacunary:<preset>:<K> |
    table:<file>`` into a DriftSpec."""
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
        if head == "table" and len(parts) == 2:
            data = np.loadtxt(parts[1], delimiter=",", ndmin=2)
            return DriftSpec.table(data[:, 0], data[:, 1:])
    except DomainError:
        raise
    except (ValueError, OSError) as exc:
        raise ValueError(f"bad drift spec {text!r}: {exc}") from exc
    raise ValueError(f"bad drift spec {text!r}: unknown form {head!r}")


def drift_from_config(spec, d: int) -> DriftSpec:
    """Drift from a config entry: a grammar string or a structured object."""
    if isinstance(spec, str):
        return parse_drift_string(spec, d)
    kind = spec.get("kind")
    if kind == "staircase_table":
        breaks, values = staircase_steps(int(spec["n"]))
        cols = np.zeros((values.size, int(spec.get("d", d))))
        cols[:, 0] = values
        return DriftSpec.table(breaks[:-1], cols)
    raise ValueError(f"unknown drift config {spec!r}")


def parse_set_string(text: str) -> tuple[str, dict]:
    """Parse a grid descriptor token: uniform | power:<beta> | dyadic:<level>."""
    parts = text.split(":")
    if parts[0] == "uniform" and len(parts) == 1:
        return "uniform", {}
    if parts[0] == "power" and len(parts) == 2:
        return "power_set", {"beta": float(parts[1])}
    if parts[0] == "dyadic" and len(parts) == 2:
        return "dyadic", {"level": int(parts[1])}
    raise ValueError(f"bad set descriptor {text!r}")


def build_grid(set_kind: str, params: dict, points: int) -> TimeGrid:
    if set_kind == "uniform":
        return TimeGrid.uniform(points)
    if set_kind == "power_set":
        return inverse_power_grid(params["beta"], points - 1)
    if set_kind == "dyadic":
        return TimeGrid.dyadic(params["level"])
    raise ValueError(f"unknown set kind {set_kind!r}")


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment byte for byte."""

    name: str
    drift: DriftSpec
    drift_config: object  # grammar string or structured dict, echoed in reports
    set_kind: str
    set_params: tuple
    d: int
    seeds: tuple
    points: int
    scales: tuple  # (j_min, j_max)
    methods: tuple
    refine: int = 4
    target: tuple | None = None  # (claimed value, tolerance)

    def __post_init__(self):
        if len(self.seeds) == 0:
            raise ValueError("need at least one seed")
        j_min, j_max = self.scales
        if j_min >= j_max:
            raise ValueError("scales must satisfy j_min < j_max")
        if self.points < (1 << (j_max + 2)):
            raise ValueError(
                f"points={self.points} under-resolves j_max={j_max}; need >= 2^{j_max + 2}"
            )
        bad = [m for m in self.methods if m not in _METHOD_KINDS]
        if bad:
            raise ValueError(f"unknown methods {bad}")

    @staticmethod
    def from_dict(name: str, cfg: dict) -> "ExperimentConfig":
        set_kind, set_params = parse_set_string(cfg.get("set", "uniform"))
        d = int(cfg.get("d", 1))
        drift_cfg = cfg.get("drift", "zero")
        return ExperimentConfig(
            name=name,
            drift=drift_from_config(drift_cfg, d),
            drift_config=drift_cfg,
            set_kind=set_kind,
            set_params=tuple(sorted(set_params.items())),
            d=d,
            seeds=tuple(int(s) for s in cfg["seeds"]),
            points=int(cfg["points"]),
            scales=(int(cfg["scales"][0]), int(cfg["scales"][1])),
            methods=tuple(cfg.get("methods", ["box"])),
            refine=int(cfg.get("refine", 4)),
            target=tuple(cfg["target"]) if cfg.get("target") is not None else None,
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "drift": self.drift_config,
            "set": {"kind": self.set_kind, **dict(self.set_params)},
            "d": self.d,
            "seeds": list(self.seeds),
            "points": self.points,
            "scales": list(self.scales),
            "methods": list(self.methods),
            "refine": self.refine,
            "target": list(self.target) if self.target else None,
        }


@dataclass(frozen=True)
class ExperimentReport:
    config: dict
    per_seed: tuple
    aggregates: dict
    verdicts: tuple

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "per_seed": list(self.per_seed),
            "aggregates": self.aggregates,
            "verdicts": list(self.verdicts),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def with_verdicts(self, verdicts) -> "ExperimentReport":
        return ExperimentReport(self.config, self.per_seed, self.aggregates, tuple(verdicts))

    def median(self, obj: str, method: str) -> float:
        return self.aggregates[obj][method]["median"]

    def iqr(self, obj: str, method: str) -> float:
        return self.aggregates[obj][method]["iqr"]

    @property
    def objects(self) -> list:
        return sorted(self.aggregates.keys())


# ---------------------------------------------------------------------------
# running


def _object_clouds(path, drift: DriftSpec) -> dict:
    clouds = {"image_bm": bm_image_cloud(path), "graph_bm": bm_graph_cloud(path)}
    if not drift.is_zero:
        clouds["image_drift"] = drift_image_cloud(path)
        clouds["graph_drift"] = drift_graph_cloud(path)
        clouds["image_sum"] = image_cloud(path)
        clouds["graph_sum"] = graph_cloud(path)
    return clouds


def _method_applies(method: str, obj: str, cloud: PointCloud, cfg: ExperimentConfig) -> bool:
    if method == "sausage":
        return cloud.dim <= 3
    if method == "oscillation":
        uniform_dyadic = (
            cfg.set_kind == "uniform" and (cfg.points - 1) & (cfg.points - 2) == 0
        )
        return obj.startswith("graph") and cloud.dim == 2 and uniform_dyadic
    return True


def seed_estimates(cfg: ExperimentConfig, seed: int) -> dict:
    """All requested estimates for one seed; pure in (cfg, seed)."""
    grid = build_grid(cfg.set_kind, dict(cfg.set_params), cfg.points)
    path = apply_drift(generate_bm(grid, cfg.d, seed), cfg.drift)
    j_min, j_max = cfg.scales
    out = {}
    for obj, cloud in _object_clouds(path, cfg.drift).items():
        per = {}
        for method in cfg.methods:
            if not _method_applies(method, obj, cloud, cfg):
                continue
            series = scale_sweep(cloud, _METHOD_KINDS[method], j_min, j_max, refine=cfg.refine)
            per[method] = estimate_dimension(series)
        out[obj] = per
    return out


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run seeds x methods x objects and aggregate; deterministic in cfg."""
    per_seed = []
    slopes: dict = {}
    for seed in cfg.seeds:
        try:
            ests = seed_estimates(cfg, seed)
        except DomainError as exc:
            raise DomainError(exc.code, f"seed {seed}: {exc.detail}") from exc
        except Exception as exc:
            raise RuntimeError(f"experiment {cfg.name!r} failed at seed={seed}: {exc}") from exc
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


def _primary_method(report: ExperimentReport) -> str:
    return report.config["methods"][0]


def check_constancy(report: ExperimentReport, iqr_tol: float) -> dict:
    """Cross-seed constancy: the IQR of ls_slope stays below the tolerance
    for every measured object."""
    if len(report.config["seeds"]) < 8:
        raise DomainError("insufficient-seeds", "constancy needs >= 8 seeds")
    worst = 0.0
    for obj in report.objects:
        for m, agg in report.aggregates[obj].items():
            worst = max(worst, agg["iqr"])
    return _verdict(
        "constancy",
        worst <= iqr_tol,
        worst,
        f"max ls_slope IQR {worst:.4f} across objects (tolerance {iqr_tol})",
    )


def _inequality(report: ExperimentReport, claim: str, prefix: str, slack: float) -> dict:
    method = _primary_method(report)
    if f"{prefix}_sum" not in report.aggregates:
        return _verdict(claim, True, 0.0, "zero drift: inequality collapses to equality")
    med_sum = report.median(f"{prefix}_sum", method)
    med_bm = report.median(f"{prefix}_bm", method)
    med_drift = report.median(f"{prefix}_drift", method)
    margin = med_sum - max(med_bm, med_drift)
    return _verdict(
        claim,
        margin >= -slack,
        margin,
        f"median {prefix}(sum)={med_sum:.4f} vs max(bm={med_bm:.4f}, drift={med_drift:.4f}), slack {slack}",
    )


def check_image_inequality(report: ExperimentReport, slack: float) -> dict:
    """Adding a drift cannot shrink the image dimension (up to the slack)."""
    return _inequality(report, "thm13-image", "image", slack)


def check_graph_inequality(report: ExperimentReport, slack: float) -> dict:
    """Adding a drift cannot shrink the graph dimension (up to the slack)."""
    return _inequality(report, "thm15-graph", "graph", slack)


def check_graph_equality_continuous(report: ExperimentReport, tol: float) -> dict:
    """For continuous drifts over the full interval in 1-D, the graph
    dimension of the sum matches the larger component dimension."""
    drift_cfg = report.config["drift"]
    drift = drift_from_config(drift_cfg, report.config["d"])
    if not drift.is_continuous:
        raise DomainError("drift-not-continuous", f"{drift_cfg!r} has jumps")
    if report.config["set"]["kind"] != "uniform" or report.config["d"] != 1:
        raise DomainError("drift-not-continuous", "equality check needs d=1 over [0, 1]")
    method = _primary_method(report)
    if "graph_sum" not in report.aggregates:
        return _verdict("thm16-equality", True, 0.0, "zero drift: trivial equality")
    med_sum = report.median("graph_sum", method)
    med_bm = report.median("graph_bm", method)
    med_drift = report.median("graph_drift", method)
    diff = abs(med_sum - max(med_bm, med_drift))
    return _verdict(
        "thm16-equality",
        diff <= tol,
        diff,
        f"|median graph(sum) - max components| = {diff:.4f} (tolerance {tol})",
    )


def check_corollary_bound(report: ExperimentReport, beta: float,
                          below: float, above: float) -> dict:
    """Image dimension of the noise over the power grid sits in the window
    around 2*alpha/(alpha+1) with alpha = 1/(1+beta)."""
    if report.config["set"]["kind"] != "power_set":
        raise DomainError("not-power-grid", "corollary check needs a power_set grid")
    if report.config["d"] != 1:
        raise DomainError("corollary-needs-d1", "the 2a/(a+1) branch applies to d=1 only")
    alpha = 1.0 / (1.0 + beta)
    target = theoretical_image_bound(alpha, 1)
    method = _primary_method(report)
    med = report.median("image_bm", method)
    margin = med - target
    return _verdict(
        "cor14-bound",
        -below <= margin <= above,
        margin,
        f"median image(bm)={med:.4f} vs target {target:.4f} (window -{below}/+{above})",
    )


def check_example_53(report: ExperimentReport, tol: float) -> dict:
    """Measured graph dimension of the truncated staircase sum is within tol
    of the analytic target frozen in the config."""
    if report.config["target"] is None:
        raise ValueError("example-53 needs a (target, tolerance) in the config")
    target = float(report.config["target"][0])
    method = _primary_method(report)
    med = report.median("graph_drift", method)
    margin = med - target
    return _verdict(
        "example-53",
        abs(margin) <= tol,
        margin,
        f"median graph(drift)={med:.4f} vs analytic target {target:.4f} (tolerance {tol})",
    )


def check_example_74(report: ExperimentReport, min_gap: float) -> dict:
    """Directional version of the jump-interpolation effect: the graph of
    noise+staircase beats the staircase graph by at least min_gap."""
    method = _primary_method(report)
    med_sum = report.median("graph_sum", method)
    med_drift = report.median("graph_drift", method)
    margin = med_sum - med_drift
    return _verdict(
        "example-74-directional",
        margin >= min_gap,
        margin,
        f"median graph(sum)={med_sum:.4f} vs graph(drift)={med_drift:.4f} (min gap {min_gap})",
    )


def run_example_experiment(schedule: LacunarySchedule, truncation: int, seeds,
                           scales: tuple, points: int,
                           target: tuple, min_gap: float) -> ExperimentReport:
    """Run the lacunary-staircase experiment and attach both example verdicts.

    The report metadata records the certified tail envelope of the dropped
    schedule terms.  Only simulable schedules are accepted; the symbolic
    preset raises ``schedule-not-simulable``.
    """
    drift = schedule.drift(truncation)
    cfg = ExperimentConfig(
        name="example",
        drift=drift,
        drift_config=f"lacunary:{schedule.preset}:{truncation}",
        set_kind="uniform",
        set_params=(),
        d=1,
        seeds=tuple(seeds),
        points=points,
        scales=scales,
        methods=("box",),
        target=tuple(target),
    )
    report = run_experiment(cfg)
    report.config["tail_bound"] = lacunary_tail_bound(schedule, truncation)
    verdicts = [
        check_example_53(report, float(target[1])),
        check_example_74(report, min_gap),
    ]
    return report.with_verdicts(verdicts)


# ---------------------------------------------------------------------------
# claims registry


def default_config() -> dict:
    """Shipped defaults, overridable via FRACDIM_CONFIG or an explicit path."""
    env_path = os.environ.get("FRACDIM_CONFIG")
    if env_path:
        with open(env_path, encoding="utf-8") as fh:
            return json.load(fh)
    ref = importlib.resources.files("fracdim").joinpath("data/default_config.json")
    return json.loads(ref.read_text(encoding="utf-8"))


def load_config(path: str | None = None) -> dict:
    if path is None:
        return default_config()
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_claim(claim: str, config: dict | None = None) -> ExperimentReport:
    """Run one registered claim and return its report with verdicts.

    A ``DomainError`` keeps its code and gains the claim (and, when a seed
    failed, the seed) in its detail.
    """
    if claim not in CLAIM_IDS:
        raise KeyError(f"unknown claim {claim!r}; valid ids: {', '.join(CLAIM_IDS)}")
    cfg_all = config if config is not None else default_config()
    try:
        return _claim_report(claim, cfg_all)
    except DomainError as exc:
        raise DomainError(exc.code, f"claim {claim!r}: {exc.detail}") from exc


def _claim_report(claim: str, cfg_all: dict) -> ExperimentReport:
    tol = cfg_all["tolerances"]
    exp_cfg = cfg_all["experiments"][claim]

    if claim in ("example-53", "example-74-directional"):
        schedule = parse_schedule(exp_cfg["schedule"])
        report = run_example_experiment(
            schedule,
            int(exp_cfg["truncation"]),
            exp_cfg["seeds"],
            (int(exp_cfg["scales"][0]), int(exp_cfg["scales"][1])),
            int(exp_cfg["points"]),
            tuple(exp_cfg["target"]),
            float(tol["example74_min_gap"]),
        )
        wanted = [v for v in report.verdicts if v["claim"] == claim]
        return report.with_verdicts(wanted)

    cfg = ExperimentConfig.from_dict(claim, exp_cfg)
    report = run_experiment(cfg)
    if claim == "constancy":
        verdict = check_constancy(report, float(tol["constancy_iqr"]))
    elif claim == "thm13-image":
        verdict = check_image_inequality(report, float(tol["inequality_slack"]))
    elif claim == "thm15-graph":
        verdict = check_graph_inequality(report, float(tol["inequality_slack"]))
    elif claim == "thm16-equality":
        verdict = check_graph_equality_continuous(report, float(tol["equality_tol"]))
    else:  # cor14-bound
        verdict = check_corollary_bound(
            report,
            float(exp_cfg["beta"]),
            float(tol["corollary_below"]),
            float(tol["corollary_above"]),
        )
    return report.with_verdicts([verdict])
