"""Which fracdim functions the traced run wraps, and the per-layer metrics
computed from their spans.

Every function is wrapped under the name its caller looks up: ``experiments``
and ``cli`` import their helpers by name, ``metrics`` calls ``kernels.<fn>``
through the module, and ``kernels`` calls its own helpers as globals.
Counts (points in, probes, bytes) are taken from the arguments and results
at the same boundaries.

``kernels.cell_indices`` and ``kernels.pack_cells`` are the grid set-up of
box counting, but packing, sausage, thinning and the neighbour counts call
them too.  They are recorded only inside ``metrics.box_count``, so their
metrics measure box counting alone, and the grid set-up of the other kernels
stays in those kernels' own self time.
"""

import json
import math
import os
from pathlib import Path

import numpy as np

from fracdim import cli, experiments, kernels, metrics

from spans import inherited, self_times

CLOUD_BUILDERS = ("image_cloud", "graph_cloud", "bm_image_cloud", "bm_graph_cloud",
                  "drift_image_cloud", "drift_graph_cloud")

PER_SCALE_KERNELS = ("distinct_cell_count", "greedy_pack_mask",
                     "sausage_occupied_count", "oscillation_counts")
PER_SCALE_JS = (5, 8, 11)
ROOT = Path(__file__).resolve().parent.parent


def _scale_j(eps):
    j = -math.log2(float(eps))
    return int(j) if j == int(j) else None


def _observe_box(attrs, args, kwargs, result):
    attrs["j"] = _scale_j(args[1])
    attrs["points_in"] = len(args[0])


def _observe_pack(attrs, args, kwargs, result):
    attrs["j"] = _scale_j(args[1])
    attrs["n"] = len(args[0])
    attrs["kept"] = int(np.count_nonzero(result))


def _observe_sausage(attrs, args, kwargs, result):
    points, r, cell = args[0], args[1], args[2]
    reach = int(np.ceil(r / cell)) + 1
    n, m = np.shape(points)
    attrs["j"] = _scale_j(r)
    attrs["probes"] = n * (2 * reach + 1) ** m
    attrs["hits"] = int(result)


def _observe_thin(attrs, args, kwargs, result):
    attrs["n"] = len(args[0])
    attrs["selected"] = int(np.count_nonzero(result))


def _observe_oscillation(attrs, args, kwargs, result):
    attrs["j"] = int(args[1])


def _observe_cloud(attrs, args, kwargs, result):
    n, m = result.points.shape
    attrs["bytes_built"] = n * m * 8


def _observe_write(attrs, args, kwargs, result):
    fh = args[1]
    fh.flush()
    attrs["bytes"] = os.fstat(fh.fileno()).st_size


def _observe_read(attrs, args, kwargs, result):
    attrs["bytes"] = os.fstat(args[0].fileno()).st_size


def targets():
    """``(module, attr, span name, observe, under)`` for every wrapped
    function; a target with ``under`` set records spans only inside a span
    of that name."""
    out = [
        (cli, "main", "cli.main", None),
        (experiments, "run_claim", "experiments.run_claim", None),
        (experiments, "seed_estimates", "experiments.seed_estimates", None),
        (experiments, "inverse_power_grid", "constructions.inverse_power_grid", None),
        (metrics, "box_count", "metrics.box_count", _observe_box),
        (metrics, "scale_sweep", "metrics.scale_sweep", None),
        (kernels, "distinct_cell_count", "kernels.distinct_cell_count", None),
        (kernels, "greedy_pack_mask", "kernels.greedy_pack_mask", _observe_pack),
        (kernels, "sausage_occupied_count", "kernels.sausage_occupied_count",
         _observe_sausage),
        (kernels, "neighbor_counts", "kernels.neighbor_counts", None),
        (kernels, "thin_select_mask", "kernels.thin_select_mask", _observe_thin),
        (kernels, "oscillation_counts", "kernels.oscillation_counts", _observe_oscillation),
        (cli, "levy_construct", "paths.levy_construct", None),
        (cli, "write_path_csv", "paths.write_path_csv", _observe_write),
        (cli, "read_path_csv", "paths.read_path_csv", _observe_read),
    ]
    for module in (experiments, cli):
        out += [
            (module, "scale_sweep", "metrics.scale_sweep", None),
            (module, "estimate_dimension", "metrics.estimate_dimension", None),
            (module, "generate_bm", "paths.generate_bm", None),
            (module, "apply_drift", "paths.apply_drift", None),
        ]
    for module in (experiments, cli):
        out += [(module, name, "metrics.clouds", _observe_cloud)
                for name in CLOUD_BUILDERS if hasattr(module, name)]
    return [target + (None,) for target in out] + [
        (kernels, "cell_indices", "kernels.cell_indices", None, "metrics.box_count"),
        (kernels, "pack_cells", "kernels.pack_cells", None, "metrics.box_count"),
    ]


# (name, unit) of the per-layer metrics of BENCHMARK.json; the traced run
# reports each as a per-pass mean
METRICS = [(m["name"], m["unit"]) for m in
           json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]


def layer_metrics(spans, n_passes: int) -> dict:
    """Per-pass means of every per-layer metric except ``trace.overhead_s``,
    which the runner fills in.  A function that was never called reads 0."""
    selfs = self_times(spans)
    js = inherited(spans, "j")
    sums: dict = {}

    def add(key, value):
        sums[key] = sums.get(key, 0) + value

    for span, self_s, j in zip(spans, selfs, js):
        add(f"{span.name}.calls", 1)
        add(f"{span.name}.self_s", self_s)
        for key, value in span.attrs.items():
            if key != "j":
                add(f"{span.name}.{key}", value)
        if j in PER_SCALE_JS:
            add(f"{span.name}.j{j}_s", span.end - span.start)
    sums["trace.spans"] = len(spans)

    def ratio(num, den):
        return sums.get(num, 0) / sums[den] if sums.get(den) else 0.0

    sums["kernels.greedy_pack_mask.kept_frac"] = ratio(
        "kernels.greedy_pack_mask.kept", "kernels.greedy_pack_mask.n")
    sums["kernels.sausage_occupied_count.hit_frac"] = ratio(
        "kernels.sausage_occupied_count.hits", "kernels.sausage_occupied_count.probes")
    sums["kernels.thin_select_mask.selected_frac"] = ratio(
        "kernels.thin_select_mask.selected", "kernels.thin_select_mask.n")
    fractions = {"kept_frac", "hit_frac", "selected_frac"}
    out = {}
    for name, unit in METRICS:
        if name == "trace.overhead_s":
            continue
        value = sums.get(name, 0)
        if name.rsplit(".", 1)[1] not in fractions:
            value = value / n_passes
        out[name] = {"value": value, "unit": unit}
    return out
