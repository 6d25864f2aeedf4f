"""The benchmark's workloads, driven through fracdim's public functions only.

Each workload is built from ``(seed, smoke)`` in its constructor (the
benchmark's set-up) and then runs whole passes with ``run_pass()``.  A pass
returns ``(digests, invariants)``: ``digests`` maps an output name to the
sha256 of that output, and ``invariants`` maps a check name to whether it
held.  The runner compares the digests against the recorded references and
between passes.

``ticks`` names the fracdim functions, as ``(module, attribute)`` where the
workload's callers look them up, at whose return a timed pass may be cut
into segments, each scaled by the host-speed calibrations on either side of
it (see ``hostspeed.py``).  They are called often enough to cut a pass into
segments of about half a second.

``point_scales`` is the logical work of one pass: the sum over every counting
sweep of (cloud points x scales counted).  It is fixed by the workload's
definition, so a change that skips redundant work shows as more throughput.

Why these three workloads:

* ``claims``: ``fracdim experiment --name all`` at the shipped default
  config, with every seed list but cor14-bound's cut to its first half so
  that a pass fits the benchmark's time budget.  Cloud building, box
  counting and ``experiments`` do nearly all the work; packing, sausage and
  thinning do none.  thm15-graph still shares its config and seeds with
  constancy, and example-53 with example-74-directional, so deduplicating
  runs shows here.
* ``methods``: the non-box kernels (packing, sausage in its point-bound and
  offset-loop-bound regimes, thinning, oscillation) on generated inputs.
  Box counting and ``experiments`` do no work here.
* ``cli-roundtrip``: in-process ``cli.main`` calls.  Only this workload
  writes and reads sample-path CSVs, and it runs box sweeps one at a time on
  a single cloud.
"""

import contextlib
import hashlib
import io
import json
import os

import numpy as np

import fracdim as fd
from fracdim import cli, experiments, kernels, metrics

# Seed lists of the claims are shifted by this much per benchmark seed, so
# that distinct benchmark seeds never share a (claim, seed) run.
CLAIM_SEED_STRIDE = 1000

# The cheapest claim: a smoke-size claims pass runs it alone, at the same
# config, so its digest still matches the full-size reference.
SMOKE_CLAIMS = ("cor14-bound",)


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def series_digest(series) -> str:
    return sha256(series.epsilons.tobytes() + series.values.tobytes())


# Claims that keep their whole seed list.  The cor14-bound verdict is a
# window on the median estimate over its seeds: with the first 4 of its 8
# seeds the median left the window at 3 of 200 benchmark seeds tried (17, 74
# and 166), with all 8 at none of them, and the claim costs under a second.
FULL_SEED_CLAIMS = ("cor14-bound",)


def claims_config(seed: int) -> dict:
    """Copy of the shipped config with every seed list but those of
    ``FULL_SEED_CLAIMS`` cut to its first half (constancy keeps the 8 it
    needs) and shifted by the benchmark seed."""
    config = json.loads(json.dumps(experiments.default_config()))
    shift = CLAIM_SEED_STRIDE * int(seed)
    for name, exp in config["experiments"].items():
        seeds = exp["seeds"]
        if name not in FULL_SEED_CLAIMS:
            seeds = seeds[:len(seeds) // 2]
        exp["seeds"] = [s + shift for s in seeds]
    return config


def claim_point_scales(exp: dict) -> int:
    """Points x scales box-counted by one claim: every seed builds two
    clouds (image and graph of the noise), or six when the drift is not
    zero, and sweeps each over the claim's scale window."""
    drift = exp.get("drift", "lacunary")
    clouds = 2 if drift == "zero" else 6
    j_min, j_max = exp["scales"]
    return len(exp["seeds"]) * clouds * (j_max - j_min + 1) * int(exp["points"])


class Claims:
    name = "claims"
    ticks = ((experiments, "seed_estimates"),)

    def __init__(self, seed: int, smoke: bool = False, scratch=None):
        self.config = claims_config(seed)
        self.claims = SMOKE_CLAIMS if smoke else experiments.CLAIM_IDS
        exps = self.config["experiments"]
        self.point_scales = sum(claim_point_scales(exps[c]) for c in self.claims)

    def run_pass(self):
        digests, invariants = {}, {}
        for claim in self.claims:
            report = experiments.run_claim(claim, config=self.config)
            digests[claim] = sha256(report.to_json())
            invariants[f"{claim}.verdicts_pass"] = bool(report.verdicts) and all(
                v["pass"] for v in report.verdicts)
        return digests, invariants


def small_sausage_inputs(rng, count: int):
    """Clouds of 2-29 points in 1-3-D with a radius r each, as in the sausage
    property tests.  The sizes and dimensions cycle in a fixed order, since
    they set the cost of a call, so that every seed does the same work."""
    out = []
    for i in range(count):
        m = 1 + i % 3
        n = 2 + (11 * i) % 28
        pts = rng.uniform(-1.0, 1.0, (n, m)) * rng.uniform(0.5, 3.0)
        out.append((fd.PointCloud.from_points(pts), float(rng.uniform(0.05, 0.5))))
    return out


class Methods:
    name = "methods"
    ticks = tuple((kernels, fn) for fn in (
        "greedy_pack_mask", "sausage_occupied_count", "oscillation_counts", "thin_select_mask"))

    def __init__(self, seed: int, smoke: bool = False, scratch=None):
        rng = np.random.default_rng([int(seed), 7])
        level = 8 if smoke else 14
        graph_path = fd.apply_drift(
            fd.generate_bm(fd.TimeGrid.uniform((1 << level) + 1), 1, int(seed)),
            fd.DriftSpec.psi_n(64))
        self.graph = fd.graph_cloud(graph_path)
        self.image = fd.image_cloud(
            fd.generate_bm(fd.TimeGrid.uniform((1 << level) + 1), 2, int(seed) + 1))
        thin_level = 7 if smoke else 12
        self.thin_points = fd.image_cloud(
            fd.generate_bm(fd.TimeGrid.uniform((1 << thin_level) + 1), 2, int(seed) + 2)).points
        self.thin_js = (5, 6, 7, 8)
        self.small = small_sausage_inputs(rng, 4 if smoke else 40)
        top = level if smoke else 11
        # (label, cloud, kind, j_min, j_max); packing and sausage reach j = 11
        # on the graph so that every per-scale kernel timing is exercised.
        self.sweeps = (
            ("graph.packing", self.graph, "packing", 4, top),
            ("graph.sausage", self.graph, "sausage_volume", 4, top),
            ("graph.oscillation", self.graph, "oscillation", 4, level),
            ("image.packing", self.image, "packing", 4, min(8, level)),
            ("image.sausage", self.image, "sausage_volume", 4, min(8, level)),
        )
        self.point_scales = (
            sum(len(c) * (hi - lo + 1) for _, c, _, lo, hi in self.sweeps)
            + len(self.thin_points) * len(self.thin_js)
            + sum(2 * len(c) for c, _ in self.small))

    def run_pass(self):
        digests = {}
        for label, cloud, kind, j_min, j_max in self.sweeps:
            digests[label] = series_digest(metrics.scale_sweep(cloud, kind, j_min, j_max))
        for j in self.thin_js:
            sel = metrics.good_point_thinning(self.thin_points, 2.0 ** -j)
            digests[f"thinning.j{j}"] = sha256(np.asarray(sel, dtype=np.int64).tobytes())
        volumes = []
        for cloud, r in self.small:
            cell = r / 4
            volumes.append(metrics.sausage_volume(cloud, r, cell=cell))
            volumes.append(metrics.sausage_volume(cloud, 2.5 * r, cell=cell))
        vols = np.asarray(volumes, dtype=np.float64)
        digests["small.sausage"] = sha256(vols.tobytes())
        # the shared cell makes the volume monotone in the radius
        invariants = {"small.sausage.monotone": bool(np.all(vols[0::2] <= vols[1::2]))}
        return digests, invariants


class CliRoundtrip:
    name = "cli-roundtrip"
    ticks = ((cli, "main"),)

    def __init__(self, seed: int, smoke: bool = False, scratch=None):
        if scratch is None:
            raise ValueError("cli-roundtrip needs a scratch directory")
        self.scratch = str(scratch)
        self.passes = 0
        # 2^16 + 1 points keep a pass under a second, so one run holds dozens
        # of passes
        depth, points, scales, direct = (
            (10, 2**10 + 1, "4:8", "5:8") if smoke else (16, 2**16 + 1, "4:12", "5:11"))
        seed = str(int(seed))
        self.simulate = ["simulate", "--levy-depth", str(depth), "--drift", "lacunary:desk:3",
                         "--seed", seed, "--out"]
        self.dims = {
            "csv.graph.box": ["--object", "graph", "--method", "box", "--scales", scales],
            "csv.graph.oscillation": ["--object", "graph", "--method", "oscillation",
                                      "--scales", scales],
            "csv.image.box": ["--object", "image", "--method", "box", "--scales", scales],
            "direct.graph.box": ["--points", str(points), "--drift", "psi_n:64",
                                 "--seed", seed, "--scales", direct],
        }

        def n_scales(text):
            lo, hi = (int(x) for x in text.split(":"))
            return hi - lo + 1

        self.point_scales = points * (3 * n_scales(scales) + n_scales(direct))

    def run_pass(self):
        # Each pass writes a new file and deletes it at the end, as a user's
        # simulate/dims/clean-up round trip would; rewriting one file would
        # add the file system's flush-on-truncate to every pass.
        csv = os.path.join(self.scratch, f"path-{self.passes}.csv")
        self.passes += 1
        digests, invariants = {}, {}
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            invariants["simulate.exit0"] = cli.main(self.simulate + [csv]) == 0
        for label, flags in self.dims.items():
            argv = ["dims"] + (["--input", csv] if label.startswith("csv.") else []) + flags
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            invariants[f"{label}.exit0"] = code == 0
            lines = out.getvalue().splitlines()
            # the JSON config block echoes the input path, so only the series
            # CSV and the estimate block are digested
            digests[f"{label}.series"] = sha256("\n".join(lines[:-1]))
            payload = json.loads(lines[-1]) if lines else {}
            digests[f"{label}.estimate"] = sha256(
                json.dumps(payload.get("estimate"), sort_keys=True))
        os.remove(csv)
        return digests, invariants


WORKLOADS = {w.name: w for w in (Claims, Methods, CliRoundtrip)}
