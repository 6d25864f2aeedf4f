"""Experiment orchestration: structure, determinism, checks, registry."""

import hashlib
import itertools
import json
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

import fracdim as fd
from fracdim import cli, experiments, kernels
from fracdim.constructions import parse_schedule
from fracdim.errors import DomainError
from fracdim.experiments import (
    ExperimentConfig,
    ExperimentReport,
    check_constancy,
    check_corollary_bound,
    check_example_53,
    check_example_74,
    check_graph_equality_continuous,
    check_graph_inequality,
    check_image_inequality,
    parse_drift_string,
    parse_set_string,
    run_claim,
    run_claims,
    run_experiment,
)
from fracdim.metrics import (
    METHOD_KINDS,
    PointCloud,
    bm_graph_cloud,
    bm_image_cloud,
    drift_graph_cloud,
    drift_image_cloud,
    graph_cloud,
    image_cloud,
    packing_indices,
    packing_number,
)


def small_config(**kw):
    base = dict(name="t", seeds=(1,), points=2**9 + 1, scales=(3, 7))
    base.update(kw)
    return ExperimentConfig(**base)


def synthetic(slopes_by_obj, **kw):
    """``(cfg, report)``: a config with 8 seeds, changed by ``kw``, and a report
    whose box aggregates are the median and IQR of the given slopes."""
    cfg = small_config(**{"seeds": tuple(range(8)), **kw})
    aggregates = {obj: {"box": {
        "median": float(np.median(slopes)),
        "iqr": float(np.percentile(slopes, 75) - np.percentile(slopes, 25)),
    }} for obj, slopes in slopes_by_obj.items()}
    return cfg, ExperimentReport(cfg.to_dict(), (), aggregates, ())


# ---------------------------------------------------------------------------
# structure and determinism


def test_zero_drift_report_has_only_noise_objects():
    report = run_experiment(small_config())
    assert report.objects == ["graph_bm", "image_bm"]
    assert len(report.per_seed) == 1


def test_nonzero_drift_report_has_six_objects():
    cfg = small_config(drift="psi_n:16")
    report = run_experiment(cfg)
    assert report.objects == [
        "graph_bm", "graph_drift", "graph_sum", "image_bm", "image_drift", "image_sum",
    ]


def test_report_byte_identical_reruns():
    cfg = small_config(drift="linear:2.0", seeds=(3, 4))
    a = run_experiment(cfg).to_json()
    b = run_experiment(cfg).to_json()
    assert a == b


def test_per_seed_blocks_match_single_seed_runs():
    cfg2 = small_config(seeds=(5, 9))
    both = run_experiment(cfg2)
    one = run_experiment(small_config(seeds=(5,)))
    other = run_experiment(small_config(seeds=(9,)))
    assert both.per_seed[0] == one.per_seed[0]
    assert both.per_seed[1] == other.per_seed[0]


def test_seed_order_independence():
    fwd = run_experiment(small_config(seeds=(1, 2, 3)))
    rev = run_experiment(small_config(seeds=(3, 2, 1)))
    by_seed_f = {b["seed"]: b for b in fwd.per_seed}
    by_seed_r = {b["seed"]: b for b in rev.per_seed}
    assert by_seed_f == by_seed_r
    assert fwd.aggregates == rev.aggregates


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(seeds=())
    with pytest.raises(ValueError):
        small_config(points=2**8)  # under-resolves j_max=7
    with pytest.raises(ValueError):
        small_config(methods=("magic",))
    with pytest.raises(ValueError, match=r"^refine=1; need refine >= 2$"):
        small_config(methods=("sausage",), refine=1)
    with pytest.raises(DomainError, match="window-too-small"):
        small_config(scales=(6, 7))
    with pytest.raises(ValueError, match="must lie in"):
        small_config(scales=(-2000, 7))
    with pytest.raises(ValueError, match="must lie in"):
        small_config(scales=(3, 10**12))
    with pytest.raises(ValueError, match="d must be an integer"):
        small_config(d=1.5)
    # scales above 1 need no resolution at all; they are coarse, not invalid
    assert small_config(scales=(-10, -5), points=3).scales == (-10, -5)


def test_config_measures_the_drift_it_reports(monkeypatch):
    cfg = small_config(drift="psi_n:16")
    spec = cfg.drift_spec
    assert (spec.variant, spec.dim, spec.schedule) == ("lacunary_sum", 1, (16,))
    measured = []
    real = experiments.drift_graph_cloud
    monkeypatch.setattr(experiments, "drift_graph_cloud",
                        lambda path: measured.append(path.drift_values) or real(path))
    report = run_experiment(cfg)
    assert report.config["drift"] == "psi_n:16"
    grid = experiments.build_grid(cfg.set, cfg.points)
    reported = parse_drift_string(report.config["drift"], report.config["d"])
    assert len(measured) == 1
    assert np.array_equal(measured[0], fd.eval_drift(reported, grid.times))
    # the drift has one source: no second drift argument exists
    with pytest.raises(TypeError):
        small_config(drift="zero", drift_config="psi_n:16")
    with pytest.raises(TypeError):
        small_config(drift_spec=fd.DriftSpec.psi_n(16))


def test_config_refuses_a_repeated_seed(monkeypatch):
    with pytest.raises(ValueError, match=r"seeds must not repeat, got \[1, 2, 1\]"):
        small_config(seeds=(1, 2, 1))
    # eight copies of one seed are one seed: constancy would read an IQR of 0
    config = golden_config()
    config["experiments"]["constancy"]["seeds"] = [1] * 8
    for err in refused_before_running(monkeypatch, "constancy", config):
        assert not isinstance(err, DomainError)
        assert str(err) == "claim 'constancy': seeds must not repeat, got [1, 1, 1, 1, 1, 1, 1, 1]"


@pytest.mark.parametrize("target", [
    [1.1, True], [True, 0.15], [float("nan"), 0.15], [1.1, float("nan")],
    [1.1, float("inf")], [float("-inf"), 0.15], [1.1, 10**400],
])
def test_config_refuses_a_target_that_is_not_two_finite_numbers(monkeypatch, target):
    with pytest.raises(ValueError, match="target must be two numbers"):
        small_config(target=target)
    # an infinite tolerance would pass example-53 on any measurement
    config = golden_config()
    config["experiments"]["example-53"]["target"] = target
    for err in refused_before_running(monkeypatch, "example-53", config):
        assert str(err).startswith("claim 'example-53': target must be two numbers")


def test_oscillation_method_runs_on_uniform_graphs():
    cfg = small_config(methods=("box", "oscillation"))
    report = run_experiment(cfg)
    assert set(report.aggregates["graph_bm"]) == {"box", "oscillation"}
    assert set(report.aggregates["image_bm"]) == {"box"}


@pytest.mark.parametrize("drift, oscillated", [
    ("psi_n:16", {"graph_bm"}),  # a drift with jumps
    ("linear:1.0", {"graph_bm", "graph_drift", "graph_sum"}),
])
def test_oscillation_runs_only_on_graphs_without_jumps(drift, oscillated):
    report = run_experiment(small_config(drift=drift, methods=("box", "oscillation")))
    assert {obj for obj, per in report.aggregates.items() if "oscillation" in per} == oscillated
    assert all("box" in per for per in report.aggregates.values())


def test_an_experiment_entry_that_is_no_object_is_refused():
    config = {"tolerances": dict(TOLERANCES), "experiments": {"constancy": [1, 2]}}
    with pytest.raises(ValueError) as ei:
        run_claims(["constancy"], config)
    assert type(ei.value) is ValueError
    assert str(ei.value) == "claim 'constancy': an experiment entry must be an object, got [1, 2]"


def test_a_failing_sweep_names_its_object_and_method(tmp_path, capsys):
    # a 2-D path's graph is 3-D, where r/cell = 1000 asks for over
    # MAX_SAUSAGE_ROWS rows of cells a point
    cfg = small_config(d=2, methods=("sausage",), refine=1000)
    with pytest.raises(DomainError) as ei:
        run_experiment(cfg)
    assert ei.value.code == "sausage-too-fine"
    assert ei.value.detail.startswith("seed 1: graph_bm by sausage: j = 3: r/cell = 1000 in 3-D: ")
    entry = {key: value for key, value in cfg.to_dict().items() if key != "name"}
    entry.update(set="uniform", seeds=list(range(1, 9)))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"tolerances": dict(TOLERANCES),
                                "experiments": {"constancy": entry}}))
    assert cli.main(["experiment", "--name", "constancy", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: sausage-too-fine: claim 'constancy': seed 1: graph_bm by "
                          "sausage: j = 3: r/cell = 1000 in 3-D: ")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("d, measured", [
    (1, {"graph_bm": {"box", "sausage"}, "image_bm": {"box", "sausage"}}),
    (2, {"graph_bm": {"box", "sausage"}, "image_bm": {"box", "sausage"}}),
    # the graph of a 3-D path is 4-D, past the sausage's 3
    (3, {"graph_bm": {"box"}, "image_bm": {"box", "sausage"}}),
])
def test_sausage_method_measures_objects_of_at_most_three_dimensions(d, measured):
    report = run_experiment(small_config(d=d, methods=("box", "sausage")))
    assert {obj: set(per) for obj, per in report.aggregates.items()} == measured


def _clouds(cfg: ExperimentConfig, seed: int) -> dict:
    """The clouds of the objects of one seed of ``cfg``, as an experiment
    measures them: the noise's, and the drift's and the sum's unless the
    drift is zero."""
    path = fd.apply_drift(fd.generate_bm(experiments.build_grid(cfg.set, cfg.points), cfg.d,
                                         seed), cfg.drift_spec)
    clouds = {"image_bm": bm_image_cloud(path), "graph_bm": bm_graph_cloud(path)}
    if not cfg.drift_spec.is_zero:
        clouds.update(image_drift=drift_image_cloud(path), graph_drift=drift_graph_cloud(path),
                      image_sum=image_cloud(path), graph_sum=graph_cloud(path))
    return clouds


@pytest.mark.parametrize("grid", ["uniform", "power:0.5", "power:1", "power:2"])
def test_a_method_applies_exactly_where_its_claim_rules_and_premise_hold(grid):
    # on every small grid, dimension and kind of drift: an experiment runs a
    # method on exactly the objects that the claim-level rules allow (the
    # oscillation on graphs only, and on the drift's and the sum's only for a
    # continuous drift) and whose sweep passes its premise.  An error that
    # scale_sweep raises at a scale names it; one raised before the first
    # scale is the premise's.
    seen = set()
    for points, d, drift in itertools.product((1, 2, 3, 5, 9, 17), (1, 2, 3, 4),
                                              ("zero", "linear", "psi_n:4")):
        if (points == 1 and grid != "uniform") or (drift == "psi_n:4" and d > 1):
            continue  # a power grid has 2 points or more, and psi_n is 1-D
        j_max = points.bit_length() - 3  # the finest scale of ``points`` samples
        cfg = small_config(set=grid, points=points, d=d, scales=(j_max - 2, j_max),
                           drift=f"linear:{','.join(['0.5'] * d)}" if drift == "linear" else drift,
                           methods=tuple(METHOD_KINDS))
        for (obj, cloud), (method, kind) in itertools.product(_clouds(cfg, 1).items(),
                                                              METHOD_KINDS.items()):
            role, of = obj.split("_")
            claim = method != "oscillation" or (role == "graph" and (
                of == "bm" or cfg.drift_spec.is_continuous))
            try:
                fd.scale_sweep(cloud, kind, *cfg.scales)
                premise = True
            except ValueError as exc:
                premise = "j = " in str(exc)
            applies = experiments._method_applies(method, of, role == "graph", cloud, cfg)
            assert applies == (claim and premise), (points, d, drift, obj, method)
            seen.add((method, applies))
    assert seen == {(m, True) for m in METHOD_KINDS} | {("sausage", False), ("oscillation", False)}


def test_a_method_listed_twice_measures_what_it_measured_first():
    # each box sweep of a graph packs its own pyramid and projects it onto
    # the image afresh, so a second box sweep, after a packing one, counts
    # the same boxes as the first
    methods = ("box", "packing", "box")
    twice = run_experiment(small_config(drift="psi_n:16", seeds=(1, 2), methods=methods))
    once = run_experiment(small_config(drift="psi_n:16", seeds=(1, 2), methods=methods[:2]))
    assert len(twice.aggregates) == 6
    assert twice.aggregates == once.aggregates and twice.per_seed == once.per_seed


def test_an_experiment_on_one_sample_skips_the_oscillation():
    # one sample is no 2^J + 1 grid: the oscillation once failed the seed
    # with not-dyadic-grid instead of measuring nothing
    report = run_experiment(small_config(points=1, scales=(-4, -2),
                                         methods=("box", "oscillation")))
    assert {obj: set(per) for obj, per in report.aggregates.items()} == \
        {"graph_bm": {"box"}, "image_bm": {"box"}}


@pytest.mark.parametrize("grid, points, level", [
    ("uniform", 2, 0), ("power:2", 2, 0), ("uniform", 3, 1), ("power:1", 3, 1),
])
def test_a_grid_is_judged_by_its_times_not_its_set(grid, points, level):
    # these grids are 0, 1 and 0, 1/2, 1 whichever set named them, so each
    # is oscillated, and fails at the first scale past its samples' level
    cfg = small_config(set=grid, points=points, scales=(-3, -1), methods=("box", "oscillation"))
    with pytest.raises(DomainError) as ei:
        run_experiment(cfg)
    assert ei.value.code == "not-dyadic-grid"
    assert ei.value.detail == (f"seed 1: graph_bm by oscillation: j = -3: column level -3 "
                               f"exceeds sample level {level}")


# ---------------------------------------------------------------------------
# checks on synthetic reports


def test_check_constancy_duplicated_seed_passes():
    v = check_constancy(*synthetic({"graph_bm": [1.3] * 8}), 0.05)
    assert v["pass"] and v["margin"] == 0.0


def test_check_constancy_split_slopes_fails():
    v = check_constancy(*synthetic({"graph_bm": [1.0] * 4 + [1.5] * 4}), 0.05)
    assert not v["pass"]
    assert abs(v["margin"] - 0.5) < 1e-12


def test_check_inequalities_zero_drift_trivial():
    cfg, rep = synthetic({"image_bm": [1.0] * 8, "graph_bm": [1.5] * 8})
    assert check_image_inequality(cfg, rep, 0.1)["pass"]
    assert check_graph_inequality(cfg, rep, 0.1)["pass"]


def test_checks_refuse_estimates_they_did_not_get():
    # a drifted report whose methods measured only the graphs
    cfg, rep = synthetic({"graph_bm": [1.5] * 8, "graph_drift": [1.0] * 8,
                          "graph_sum": [1.5] * 8}, drift="psi_n:16")
    with pytest.raises(DomainError) as ei:
        check_image_inequality(cfg, rep, 0.1)
    assert ei.value.code == "not-measured" and ei.value.detail == "image_sum by box"
    with pytest.raises(DomainError) as ei:
        rep.median("graph_bm", "oscillation")
    assert ei.value.code == "not-measured" and ei.value.detail == "graph_bm by oscillation"
    cfg, rep = synthetic({})
    with pytest.raises(DomainError) as ei:
        check_constancy(cfg, rep, 0.05)
    assert ei.value.code == "not-measured"


def test_check_inequality_detects_violation():
    cfg, rep = synthetic({
        "image_bm": [1.0] * 8, "image_drift": [0.6] * 8, "image_sum": [0.8] * 8,
        "graph_bm": [1.5] * 8, "graph_drift": [1.0] * 8, "graph_sum": [1.3] * 8,
    }, drift="psi_n:16")
    v = check_image_inequality(cfg, rep, 0.1)
    assert not v["pass"] and abs(v["margin"] + 0.2) < 1e-12
    v2 = check_graph_inequality(cfg, rep, 0.1)
    assert not v2["pass"] and abs(v2["margin"] + 0.2) < 1e-12
    # widening the tolerance never flips pass -> fail
    assert check_image_inequality(cfg, rep, 0.25)["pass"]
    assert check_graph_inequality(cfg, rep, 0.21)["pass"]


def test_check_equality_continuous_passes():
    v = check_graph_equality_continuous(*synthetic(
        {"graph_bm": [1.5] * 8, "graph_drift": [1.0] * 8, "graph_sum": [1.52] * 8},
        drift="linear:5.0",
    ), 0.1)
    assert v["pass"] and abs(v["margin"] - 0.02) < 1e-12


def test_check_equality_zero_drift_trivial():
    v = check_graph_equality_continuous(*synthetic({"graph_bm": [1.5] * 8}), 0.1)
    assert v["pass"] and v["margin"] == 0.0


def test_run_claim_thm16_equality_default_passes():
    report = fd.run_claim("thm16-equality")
    verdict = report.verdicts[0]
    assert verdict["claim"] == "thm16-equality"
    assert verdict["pass"]


def test_check_corollary_window():
    v = check_corollary_bound(*synthetic({"image_bm": [0.64] * 8}, set="power:1"), 0.1, 0.15)
    assert v["pass"]
    low = synthetic({"image_bm": [0.40] * 8}, set="power:1")
    assert not check_corollary_bound(*low, 0.1, 0.15)["pass"]


def test_check_corollary_reads_beta_from_the_set():
    # beta = 3 gives alpha = 1/4 and the target 2a/(a+1) = 0.4, which the
    # median 0.64 misses; beta = 1 gives the target 2/3, which it meets
    steep = synthetic({"image_bm": [0.64] * 8}, set="power:3")
    v = check_corollary_bound(*steep, 0.1, 0.15)
    assert not v["pass"] and abs(v["margin"] - 0.24) < 1e-12
    assert "target 0.4000" in v["detail"]


# ---------------------------------------------------------------------------
# the lacunary example experiment


TOLERANCES = {
    "constancy_iqr": 0.05, "inequality_slack": 0.10, "equality_tol": 0.10,
    "corollary_below": 0.10, "corollary_above": 0.15, "example74_min_gap": 0.03,
}


def example_config(schedule, truncation, seeds, scales, points, target, **more):
    """Claims config whose two example claims share one lacunary experiment;
    ``more`` adds further claim entries."""
    entry = {"schedule": schedule, "truncation": truncation, "seeds": list(seeds),
             "scales": list(scales), "points": points, "target": list(target)}
    experiments_cfg = {"example-53": entry, "example-74-directional": dict(entry), **more}
    return {"tolerances": dict(TOLERANCES), "experiments": experiments_cfg}


def test_example_experiment_rejects_paper_schedule():
    config = example_config("paper", 3, (1,), (3, 7), 2**9 + 1, (1.0, 0.2))
    with pytest.raises(DomainError) as ei:
        run_claim("example-53", config)
    assert ei.value.code == "schedule-not-simulable"


def test_example_experiment_zero_truncation():
    # truncation 0 means no drift terms: graph(drift) is a flat segment
    config = example_config("desk", 0, (1, 2), (4, 10), 2**14 + 1, (1.0, 0.2))
    reports = run_claims(["example-53", "example-74-directional"], config)
    report = reports["example-53"]
    med_drift = report.median("graph_drift", "box")
    med_sum = report.median("graph_sum", "box")
    assert abs(med_drift - 1.0) < 0.1
    assert med_sum > med_drift + 0.03
    by_claim = {v["claim"]: v for r in reports.values() for v in r.verdicts}
    assert by_claim["example-53"]["pass"]
    assert by_claim["example-74-directional"]["pass"]
    assert report.config["tail_bound"] == fd.lacunary_tail_bound(fd.LacunarySchedule.desk(), 0)


def test_example_report_echoes_a_drift_that_parses_back():
    config = example_config("custom(16,64)", 2, (1,), (3, 7), 2**9 + 1, (1.0, 5.0))
    report = run_claim("example-53", config)
    assert report.config["drift"] == "lacunary:custom(16,64):2"
    echoed = parse_drift_string(report.config["drift"])
    built = parse_schedule("custom(16,64)").drift(2)
    assert [(s.variant, s.dim, s.schedule) for s in (echoed, built)] == [
        ("lacunary_sum", 1, (16, 64))] * 2
    desk = run_claim("example-53", example_config("desk", 3, (1,), (3, 7), 2**9 + 1, (1.0, 5.0)))
    assert desk.config["drift"] == "lacunary:desk:3"


def shared_run_config():
    """Both example claims on one experiment, and constancy with thm15-graph
    and thm16-equality on the first half of its seeds, all at toy size;
    thm16-equality has a drift of its own, and every claim has constancy's
    grid, d and sweep, so its noise too."""
    noise = {"drift": "psi_n:16", "set": "uniform", "d": 1, "points": 2**9 + 1,
             "scales": [3, 7], "seeds": list(range(1, 9)), "methods": ["box"]}
    return example_config("custom(16,64)", 2, (3, 4), (3, 7), 2**9 + 1, (1.0, 5.0),
                          constancy=noise, **{"thm15-graph": dict(noise, seeds=[1, 2, 3, 4]),
                                              "thm16-equality": dict(noise, drift="linear:5.0",
                                                                     seeds=[1, 2, 3, 4])})


SHARED_CLAIMS = ("constancy", "thm15-graph", "thm16-equality", "example-53",
                 "example-74-directional")


def test_run_claims_matches_per_claim_runs():
    config = shared_run_config()
    together = run_claims(SHARED_CLAIMS, config)
    assert list(together) == list(SHARED_CLAIMS)
    for claim in SHARED_CLAIMS:
        assert together[claim].to_json() == run_claim(claim, config).to_json()
        assert [v["claim"] for v in together[claim].verdicts] == [claim]


def recorded(monkeypatch) -> dict:
    """Lists that running experiments fill in: ``measured`` an (experiment,
    seed, kind) triple for each object kind (bm, drift or sum) whose image
    and graph ``_estimates`` measures, the seed being that of the
    ``_measure`` call it runs in on its thread, ``swept`` the cloud digest
    and the arguments of each scale sweep, ``grids`` the arguments of each
    ``build_grid``, ``noises`` the seed of each ``generate_bm``,
    ``drifted`` whether it was given drift values, and ``seeds`` the
    (experiment, seed) of each ``seed_estimates`` call.  Seeds are measured
    on two threads, so the order of ``measured``, ``swept`` and ``noises``
    within one experiment is that of thread timing."""
    seen = {"measured": [], "swept": [], "grids": [], "noises": [], "drifted": [], "seeds": []}
    real = {name: getattr(experiments, name) for name in
            ("seed_estimates", "_measure", "_estimates", "scale_sweep", "build_grid",
             "generate_bm")}
    job = threading.local()

    def seed_estimates(cfg, seed, memo):
        seen["seeds"].append((cfg.name, seed))
        return real["seed_estimates"](cfg, seed, memo)

    def measure(cfg, seed, memo, objs):
        job.seed = (cfg.name, seed)
        try:
            return real["_measure"](cfg, seed, memo, objs)
        finally:
            del job.seed

    def estimates(cfg, kind, graph, image):
        assert graph.dim == image.dim + 1
        seen["measured"].append((*job.seed, kind))
        return real["_estimates"](cfg, kind, graph, image)

    def sweep(cloud, *args, **kwargs):
        digest = hashlib.sha256(cloud.points.tobytes()).hexdigest()
        seen["swept"].append((digest, args, tuple(sorted(kwargs.items()))))
        return real["scale_sweep"](cloud, *args, **kwargs)

    def build_grid(*args):
        seen["grids"].append(args)
        return real["build_grid"](*args)

    def generate_bm(grid, d, seed, *drift_values):
        seen["noises"].append(seed)
        seen["drifted"].append(bool(drift_values))
        return real["generate_bm"](grid, d, seed, *drift_values)

    for name, wrapper in (("seed_estimates", seed_estimates), ("_measure", measure),
                          ("_estimates", estimates), ("scale_sweep", sweep),
                          ("build_grid", build_grid), ("generate_bm", generate_bm)):
        monkeypatch.setattr(experiments, name, wrapper)
    return seen


def in_claim_order(measured) -> list:
    """``measured`` sorted within each experiment, whose order is that of
    thread timing, with the experiments kept in the order they ran."""
    runs = list(dict.fromkeys(m[0] for m in measured))
    return sorted(measured, key=lambda m: (runs.index(m[0]), m[1:]))


def test_run_claims_measures_each_object_once_per_distinct_inputs(monkeypatch):
    seen = recorded(monkeypatch)
    # constancy measures all it needs; thm15-graph reuses 4 of its seeds,
    # thm16-equality and the examples its noise, and the examples share a drift
    once = [("constancy", 1, "bm"), ("constancy", 1, "drift"), ("constancy", 1, "sum"),
            *(("constancy", s, kind) for s in range(2, 9) for kind in ("bm", "sum")),
            ("thm16-equality", 1, "drift"), *(("thm16-equality", s, "sum") for s in range(1, 5)),
            ("example", 3, "drift"), ("example", 3, "sum"), ("example", 4, "sum")]
    for _ in range(2):  # nothing is cached across calls
        for values in seen.values():
            values.clear()
        run_claims(SHARED_CLAIMS, shared_run_config())
        # each experiment's seeds end before the next experiment starts
        assert [m[0] for m in seen["measured"]] == [m[0] for m in once]
        assert in_claim_order(seen["measured"]) == once
        assert not [m for m in seen["measured"] if m[0] == "thm16-equality" and m[2] == "bm"]
        # one box sweep of the image and one of the graph per object, each of
        # a cloud no other sweep sees
        assert len(seen["swept"]) == 2 * len(once) == len(set(seen["swept"]))
        # one grid per (set, points, d, drift): psi_n:16, linear:5.0, the examples' drift
        assert seen["grids"] == [("uniform", 2**9 + 1)] * 3
        # a noise for each seed with an object to measure: none for thm15-graph
        assert sorted(seen["noises"]) == sorted([*range(1, 9), 1, 2, 3, 4, 3, 4])
        # still one seed_estimates call per (claim, seed), in seed order
        assert seen["seeds"] == [*(("constancy", s) for s in range(1, 9)),
                                 *(("thm15-graph", s) for s in range(1, 5)),
                                 *(("thm16-equality", s) for s in range(1, 5)),
                                 ("example", 3), ("example", 4), ("example", 3), ("example", 4)]


def test_grid_and_drift_values_are_built_once_per_distinct_setup(monkeypatch):
    seen = recorded(monkeypatch)
    apart = shared_run_config()
    apart["experiments"]["thm15-graph"]["seeds"] = [9, 10]
    narrower = shared_run_config()
    narrower["experiments"]["thm15-graph"]["scales"] = [3, 6]
    targets = shared_run_config()
    targets["experiments"]["example-74-directional"]["target"] = [2.0, 1.0]
    tabled = shared_run_config()
    tabled["experiments"]["constancy"]["drift"] = {"kind": "staircase_table", "n": 16}
    tabled["experiments"]["thm15-graph"].update(drift={"n": 16, "kind": "staircase_table"},
                                                seeds=[9, 10])
    drifted = small_config(drift="psi_n:16", seeds=(1, 2, 3))
    constancy = [("constancy", 1, "bm"), ("constancy", 1, "drift"), ("constancy", 1, "sum"),
                 *(("constancy", s, kind) for s in range(2, 9) for kind in ("bm", "sum"))]
    for _ in range(2):  # nothing is cached across calls
        for runs, measured in [
            # thm15-graph's new seeds reuse constancy's grid, drift values and drift
            (lambda: run_claims(["constancy", "thm15-graph"], apart),
             constancy + [("thm15-graph", s, kind) for s in (9, 10) for kind in ("bm", "sum")]),
            # so do they when each entry writes one staircase_table drift,
            # its keys in another order
            (lambda: run_claims(["constancy", "thm15-graph"], tabled),
             constancy + [("thm15-graph", s, kind) for s in (9, 10) for kind in ("bm", "sum")]),
            # another sweep of the same grid and drift measures every object again
            (lambda: run_claims(["constancy", "thm15-graph"], narrower),
             constancy + [("thm15-graph", 1, "bm"), ("thm15-graph", 1, "drift"),
                          ("thm15-graph", 1, "sum"),
                          *(("thm15-graph", s, kind) for s in (2, 3, 4) for kind in ("bm", "sum"))]),
            # the target is no input of any object
            (lambda: run_claims(["example-53", "example-74-directional"], targets),
             [("example", 3, "bm"), ("example", 3, "drift"), ("example", 3, "sum"),
              ("example", 4, "bm"), ("example", 4, "sum")]),
            (lambda: run_experiment(drifted),
             [("t", 1, "bm"), ("t", 1, "drift"), ("t", 1, "sum"),
              ("t", 2, "bm"), ("t", 2, "sum"), ("t", 3, "bm"), ("t", 3, "sum")]),
        ]:
            for values in seen.values():
                values.clear()
            runs()
            assert in_claim_order(seen["measured"]) == measured
            assert seen["grids"] == [("uniform", 2**9 + 1)]
            started = dict.fromkeys((name, seed) for name, seed, _ in measured)
            assert sorted(seen["noises"]) == sorted(seed for _, seed in started)
            # the drift's values are built from the grid alone, so no noise
            # comes with a zero drift: every one gets the memo's drift values
            assert seen["drifted"] == [True] * len(started)
            assert len(seen["swept"]) == 2 * len(measured) == len(set(seen["swept"]))


@pytest.mark.parametrize("tolerance, word", [
    (None, "missing tolerance 'example74_min_gap'"),
    ("0.03", "tolerance 'example74_min_gap' must be a finite number"),
    (True, "tolerance 'example74_min_gap' must be a finite number"),
    (float("nan"), "tolerance 'example74_min_gap' must be a finite number"),
    (10**400, "tolerance 'example74_min_gap' must be a finite number"),
])
def test_run_claims_reads_tolerances_before_running(monkeypatch, tolerance, word):
    seen = recorded(monkeypatch)
    config = shared_run_config()
    del config["tolerances"]["example74_min_gap"]
    if tolerance is not None:
        config["tolerances"]["example74_min_gap"] = tolerance
    with pytest.raises(ValueError) as ei:
        run_claims(SHARED_CLAIMS, config)
    assert str(ei.value).startswith(f"claim 'example-74-directional': {word}")
    assert not any(seen.values())


def refused_before_running(monkeypatch, claim, config) -> list:
    """The errors of ``run_claims`` on ``claim`` alone and on every claim id
    with ``claim`` last, as ``--name all`` would run it after all the others;
    neither run may build a grid, measure an object or start a seed."""
    seen = recorded(monkeypatch)
    errors = []
    for names in ([claim], [c for c in fd.CLAIM_IDS if c != claim] + [claim]):
        with pytest.raises(ValueError) as ei:
            run_claims(names, config)
        errors.append(ei.value)
    assert not any(seen.values())
    return errors


@pytest.mark.parametrize("target", [None, "absent"])
def test_run_claims_reads_the_example_53_target_before_running(monkeypatch, target):
    config = golden_config()
    entry = config["experiments"]["example-53"]
    del entry["target"]
    if target is None:
        entry["target"] = None
    for err in refused_before_running(monkeypatch, "example-53", config):
        assert not isinstance(err, DomainError)
        assert str(err) == "claim 'example-53': missing target [value, tolerance]"


def test_check_constancy_needs_eight_seeds(monkeypatch):
    config = golden_config()
    config["experiments"]["constancy"]["seeds"] = list(range(1, 8))
    for err in refused_before_running(monkeypatch, "constancy", config):
        assert err.code == "insufficient-seeds"
        assert err.detail == "claim 'constancy': constancy needs >= 8 seeds"


def test_check_equality_guards_discontinuous_drift(monkeypatch):
    for drift in ("psi_n:16", {"kind": "staircase_table", "n": 16}):
        config = golden_config()
        config["experiments"]["thm16-equality"]["drift"] = drift
        for err in refused_before_running(monkeypatch, "thm16-equality", config):
            assert err.code == "drift-not-continuous"
            assert err.detail == f"claim 'thm16-equality': {drift!r} has jumps"


@pytest.mark.parametrize("grid, d, drift", [
    ("power:1", 1, "linear:5.0"),
    ("power:1", 1, "zero"),
    ("uniform", 2, "linear:1.0,2.0"),
])
def test_check_equality_guards_the_set_and_dimension(monkeypatch, grid, d, drift):
    config = golden_config()
    config["experiments"]["thm16-equality"].update(set=grid, d=d, drift=drift)
    for err in refused_before_running(monkeypatch, "thm16-equality", config):
        assert err.code == "equality-needs-uniform-d1"
        assert err.detail.startswith("claim 'thm16-equality': ")


def test_check_corollary_guards(monkeypatch):
    for fields, code in (({"d": 2}, "corollary-needs-d1"), ({"set": "uniform"}, "not-power-grid")):
        config = golden_config()
        config["experiments"]["cor14-bound"].update(fields)
        for err in refused_before_running(monkeypatch, "cor14-bound", config):
            assert err.code == code and err.detail.startswith("claim 'cor14-bound': ")


def test_drift_objects_are_swept_once_per_experiment(monkeypatch):
    swept = []
    real = experiments.scale_sweep

    def counting(cloud, *args, **kwargs):
        swept.append(cloud.points.tobytes())
        return real(cloud, *args, **kwargs)

    monkeypatch.setattr(experiments, "scale_sweep", counting)
    run_experiment(small_config(drift="psi_n:16", seeds=(1, 2, 3)))
    # image and graph of the drift once, then noise and sum for each seed
    assert len(swept) == 2 + 3 * 4
    assert len(set(swept)) == len(swept)


def scratch_estimates(cfg, seed) -> dict:
    """One seed's estimates with nothing shared: the grid, the path with its
    drift applied and every object's sweep, built from the public functions."""
    grid = experiments.build_grid(cfg.set, cfg.points)
    path = fd.apply_drift(fd.generate_bm(grid, cfg.d, seed), cfg.drift_spec)
    clouds = {"image_bm": bm_image_cloud(path), "graph_bm": bm_graph_cloud(path)}
    if not cfg.drift_spec.is_zero:
        clouds.update(image_drift=drift_image_cloud(path), graph_drift=drift_graph_cloud(path),
                      image_sum=image_cloud(path), graph_sum=graph_cloud(path))
    return {
        obj: {m: fd.estimate_dimension(fd.scale_sweep(
            cloud, METHOD_KINDS[m], *cfg.scales, refine=cfg.refine)).to_dict()
            for m in cfg.methods if experiments._method_applies(
                m, obj.split("_")[1], obj.startswith("graph"), cloud, cfg)}
        for obj, cloud in clouds.items()
    }


@pytest.mark.parametrize("cfg", [
    small_config(drift="psi_n:16", seeds=(1, 2), methods=("box", "oscillation")),
    small_config(drift="linear:1.0,-2.0", set="power:1", d=2, seeds=(3, 4),
                 methods=("box", "packing")),
    small_config(seeds=(5, 6)),
])
def test_seed_estimates_with_the_shared_part_equal_those_from_scratch(cfg):
    # one memo for the seeds of cfg, of the same setup without its drift and
    # of two sweeps that differ in refine alone, in both orders: whatever the
    # memo already holds, the bytes are the same
    variants = [cfg, replace(cfg, drift="zero"),
                *(replace(cfg, methods=("sausage",), refine=refine) for refine in (2, 3))]
    for order in (variants, variants[::-1]):
        memo: dict = {}
        for each in order:
            for seed in each.seeds:
                ests = experiments.seed_estimates(each, seed, memo)
                as_dicts = {obj: {m: e.to_dict() for m, e in per.items()}
                            for obj, per in ests.items()}
                assert as_dicts == scratch_estimates(each, seed)


def golden_config() -> dict:
    """Every claim at toy size: 2 seeds each (constancy needs 8), at most
    2^14 + 1 points; thm15-graph shares constancy's setup."""
    uniform = {"drift": "psi_n:64", "set": "uniform", "d": 1, "points": 2**14 + 1,
               "scales": [5, 11], "seeds": list(range(1, 9)), "methods": ["box"]}
    power = {"set": "power:1", "d": 1, "points": 2**12 + 1, "scales": [4, 10],
             "seeds": [1, 2], "methods": ["box"]}
    example = {"schedule": "desk", "truncation": 3, "points": 2**14 + 1, "scales": [4, 12],
               "seeds": [1, 2], "target": [1.1097, 0.15]}
    return {"tolerances": dict(TOLERANCES), "experiments": {
        "constancy": uniform,
        "thm13-image": dict(power, drift={"kind": "staircase_table", "n": 64, "d": 2}, d=2),
        "thm15-graph": dict(uniform, seeds=[1, 2]),
        "thm16-equality": dict(uniform, drift="linear:5.0", seeds=[1, 2]),
        "cor14-bound": dict(power, drift="zero"),
        "example-53": example,
        "example-74-directional": dict(example),
    }}


# sha256 of each claim's report JSON under ``golden_config``, recorded before
# the seed-free part of an experiment was shared between its seeds
GOLDEN_DIGESTS = {
    "constancy": "f4f42894466361fabce7138748d82ba14961192c71ca12dbe489fdfb07face05",
    "thm13-image": "e323a1783037e4e0554dfda0c92c7310d2973d76704fec5160e15d5551ad692e",
    "thm15-graph": "a0416cac701df4c5bf031f54b36539eee1c66286bd291b487668fb399ed099b3",
    "thm16-equality": "9549e0c3d96a848ab27e09ccc84b7d0be97b00b561e7973d2389453a7617e829",
    "cor14-bound": "de93babd7c3a507e9e08f3f8e0db9dd4ac570c14c008ec2ad23430c36f95763c",
    "example-53": "9b3e054e2152055841c86d3037a3f459dca3118f74afb8c5813221ec07292e03",
    "example-74-directional":
        "7381e7e5fbd13e901fd17211097498ae0c3ec87247a1c70fed880a24db9f2010",
}


def golden_digests() -> dict:
    reports = run_claims(fd.CLAIM_IDS, golden_config())
    return {claim: hashlib.sha256(report.to_json().encode()).hexdigest()
            for claim, report in reports.items()}


def test_claim_reports_keep_their_bytes():
    assert golden_digests() == GOLDEN_DIGESTS


def test_claim_reports_keep_their_bytes_when_threads_switch_often():
    # seeds are measured on two threads; switching between them every
    # microsecond tries other interleavings than the default 5 ms does
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        digests = golden_digests()
    finally:
        sys.setswitchinterval(interval)
    assert digests == GOLDEN_DIGESTS


def noise_failing_on(monkeypatch, fail):
    """Make ``generate_bm`` call ``fail(seed)`` first, which may raise."""
    real = experiments.generate_bm

    def generate_bm(grid, d, seed, *drift_values):
        fail(seed)
        return real(grid, d, seed, *drift_values)

    monkeypatch.setattr(experiments, "generate_bm", generate_bm)


def test_measure_skips_the_objects_the_memo_holds_or_that_have_no_key(monkeypatch):
    drifted, zero = small_config(drift="psi_n:16"), small_config()
    memo = {}
    experiments._measure(drifted, 1, memo, ("bm", "drift", "sum"))
    experiments._measure(zero, 1, memo, ("bm",))
    held = dict(memo)
    spied = []
    monkeypatch.setattr(experiments, "generate_bm", lambda *args: spied.append("noise"))
    monkeypatch.setattr(experiments, "_estimates", lambda *args: spied.append("estimates"))
    experiments._measure(drifted, 1, memo, ("bm", "drift", "sum"))
    # a zero drift's drift and sum have no memo key
    experiments._measure(zero, 1, memo, ("bm", "drift", "sum"))
    assert spied == []
    assert len(memo) == len(held) and all(memo[key] is value for key, value in held.items())


def test_the_first_failing_seed_in_seed_order_is_reported(monkeypatch, capsys, tmp_path):
    def fail(seed):
        if seed == 7:
            time.sleep(0.05)  # so that seed 8 most likely fails first
        if seed in (7, 8):
            raise DomainError("bad-noise", f"no noise for seed {seed}")

    noise_failing_on(monkeypatch, fail)
    small = {"drift": "psi_n:16", "points": 2**9 + 1, "scales": [3, 7],
             "seeds": list(range(5, 13))}
    config = {"tolerances": dict(TOLERANCES), "experiments": {"constancy": small}}
    before = threading.active_count()
    for _ in range(3):
        with pytest.raises(DomainError) as ei:
            run_claims(["constancy"], config)
        assert ei.value.code == "bad-noise"
        assert ei.value.detail == "claim 'constancy': seed 7: no noise for seed 7"
        assert threading.active_count() == before
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert cli.main(["experiment", "--name", "constancy", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: bad-noise: claim 'constancy': seed 7: no noise for seed 7\n")
    assert threading.active_count() == before


@pytest.mark.parametrize("failing", ["worker", "caller"])
def test_an_error_that_is_no_value_error_reaches_the_caller(monkeypatch, failing):
    # each thread waits in its first seed until the other one has started
    # one, so that both have a job whichever starts first
    started = [threading.Event(), threading.Event()]

    def fail(seed):
        caller = threading.current_thread() is threading.main_thread()
        started[caller].set()
        assert started[not caller].wait(10)
        if (failing == "caller") == caller:
            raise RuntimeError(f"{failing} failed at seed {seed}")

    noise_failing_on(monkeypatch, fail)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"^{failing} failed at seed "):
        run_experiment(small_config(seeds=tuple(range(1, 9))))
    assert threading.active_count() == before


def test_run_claims_keeps_different_custom_schedules_apart():
    config = example_config("custom(16,64)", 2, (1, 2), (3, 7), 2**9 + 1, (1.0, 5.0))
    config["experiments"]["example-74-directional"]["schedule"] = "custom(16,256)"
    together = run_claims(["example-53", "example-74-directional"], config)
    assert together["example-53"].config["drift"] == "lacunary:custom(16,64):2"
    assert together["example-74-directional"].config["drift"] == "lacunary:custom(16,256):2"
    for claim, report in together.items():
        assert report.to_json() == run_claim(claim, config).to_json()


def test_check_example_53_reads_its_tolerance_from_the_target():
    v = check_example_53(*synthetic({"graph_drift": [1.1] * 8}, target=(1.0, 0.15)))
    assert v["pass"] and abs(v["margin"] - 0.1) < 1e-12 and "tolerance 0.15" in v["detail"]
    assert not check_example_53(*synthetic({"graph_drift": [1.1] * 8}, target=(1.0, 0.05)))["pass"]


def test_example_74_margin_monotone():
    cfg, rep = synthetic({"graph_drift": [1.1] * 8, "graph_sum": [1.15] * 8})
    assert check_example_74(cfg, rep, 0.03)["pass"]
    assert not check_example_74(cfg, rep, 0.10)["pass"]


def test_thinning_packing_transfer_in_experiment_flow():
    # a packing of the drift graph thins to a packing of the noisy graph of
    # guaranteed size, and never beats the greedy packing of the same cloud
    grid = fd.TimeGrid.uniform(2**13 + 1)
    drift = fd.LacunarySchedule.desk().drift(3)
    eps = 2.0**-8
    for seed in (1, 2, 3, 4):
        path = fd.apply_drift(fd.generate_bm(grid, 1, seed), drift)
        centers = packing_indices(drift_graph_cloud(path), eps)
        noisy = graph_cloud(path).points[centers]
        threshold = 2.0 * np.log(1 / eps) ** (noisy.shape[1] + 1)
        counts = kernels.neighbor_counts(noisy, 2 * eps)
        selected = fd.good_point_thinning(noisy, eps)
        n_good = int((counts < threshold).sum())
        assert selected.size >= n_good / (threshold + 1)
        assert selected.size <= packing_number(PointCloud.from_points(noisy), eps)


# ---------------------------------------------------------------------------
# registry


def test_run_claim_unknown_id():
    with pytest.raises(KeyError) as ei:
        fd.run_claim("bogus")
    msg = str(ei.value)
    for cid in fd.CLAIM_IDS:
        assert cid in msg


def test_parse_drift_string_round_trip():
    assert parse_drift_string("zero", 2).dim == 2
    assert np.array_equal(parse_drift_string("linear:1.5,-2", 2).mu, [1.5, -2.0])
    spec = parse_drift_string("psi_n:64", 1)
    assert (spec.variant, spec.dim, spec.schedule) == ("lacunary_sum", 1, (64,))
    spec = parse_drift_string("lacunary:desk:2", 1)
    assert spec.schedule == (64, 256)
    with pytest.raises(ValueError):
        parse_drift_string("wobble:3", 1)
    with pytest.raises(ValueError):
        parse_drift_string("linear:abc", 1)


def test_parse_set_string():
    assert parse_set_string("uniform") == ("uniform", {})
    assert parse_set_string("power:1.5") == ("power_set", {"beta": 1.5})
    # a dyadic grid is ``uniform`` with 2^L + 1 points; there is no dyadic token
    for text in ("grid:9", "dyadic:4", "power", "power:1:2", 5, None):
        with pytest.raises(ValueError, match="bad set"):
            parse_set_string(text)
    # the parser is beta's only check, for the config and the CLI alike
    for text in ("power:0", "power:-1", "power:nan", "power:inf", "power:abc"):
        with pytest.raises(ValueError, match="positive finite beta"):
            parse_set_string(text)
        with pytest.raises(ValueError, match="positive finite beta"):
            small_config(set=text)
    assert small_config(set="power:1.5").to_dict()["set"] == {"kind": "power_set", "beta": 1.5}
