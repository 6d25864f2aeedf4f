"""fracdim benchmark: end-to-end and per-layer metrics of three workloads.

One run measures one workload in its own single-threaded process, as a
closed loop with one client: a pass starts only after the previous one ends,
and a pass starts only if a pass as long as the median one so far would end
within ``--seconds`` (at least one pass runs, so a claims or methods run
lasts one whole pass).  Every pass checks its outputs.  The
last line of stdout is the result JSON.

    python3 perfbench/run.py --workload claims --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --all            # every workload, one table
    python3 perfbench/run.py --all --trace 1  # per-layer metrics + overhead

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s`` (median
of several fresh processes that import fracdim, load the config and build
the inputs), ``wall_s`` (median pass time), ``point_scales_per_s`` (logical
points x scales of a pass over ``wall_s``) and ``peak_rss_mb``.  The error
rate (failed over attempted output checks) is printed with them.  The times
are in reference seconds (see ``hostspeed.py``): each half-second segment
of a pass is bracketed by host-speed calibrations and scaled to a fixed
calibration time, and so is the set-up phase as a whole, so that the drift
of a shared host's speed does not swamp them.  The raw median times are printed beside
them and kept in the run record.  With ``--trace 1`` passes alternate untraced and traced,
the metrics are the per-layer ones of the traced passes (raw seconds), and
``trace.overhead_s`` is the median of each traced pass time minus that of
the untraced pass before it, in reference seconds.  It is printed as
unresolved when fewer than three pairs ran or it is smaller than the
quartile spread of the untraced passes.

Run records go to ``.bench_out/`` at the repository root; ``compare.py``
compares two sets of them.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference.json"
# BLAS and OpenMP pools, pinned to one thread before numpy loads; child
# processes inherit the setting.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 15
WORKLOAD_NAMES = ("claims", "methods", "cli-roundtrip")
# (name, unit) of the end-to-end metrics of BENCHMARK.json; the error rate is
# printed with them but carried in the result as ``failed``/``attempted``
END_TO_END = [(m["name"], m["unit"]) for m in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
PRINTED = END_TO_END + [("error_rate", "ratio")]


def import_fracdim():
    """Import fracdim from this checkout's sources, or exit with an error."""
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import fracdim
    except ImportError as exc:
        sys.exit(f"cannot import fracdim from {ROOT / 'src'}: {exc}")
    if not Path(fracdim.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"fracdim imported from {fracdim.__file__}, not from {ROOT / 'src'}")
    return fracdim


def git_commit():
    """Commit of the checkout from ``.git`` without running git, or None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(fd) -> dict:
    import numpy as np

    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "cores": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "backend": fd.active_backend(),
        "commit": git_commit(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


class Checks:
    """Output checks of every pass: invariants, and digests against the
    recorded reference or, at a seed without one, against the first pass."""

    def __init__(self, reference):
        self.expected = reference
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, pass_no, digests, invariants):
        for name, ok in invariants.items():
            self._count(pass_no, name, ok)
        if self.first is None:
            self.first = digests
        if self.expected is None:
            self.expected = digests
            return
        for name, digest in digests.items():
            self._count(pass_no, name, self.expected.get(name) == digest)

    def fail(self, pass_no, name):
        self._count(pass_no, name, False)

    def _count(self, pass_no, name, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"pass {pass_no}: {name}")


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh process until its set-up is done."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1]) - t0


def make_scratch() -> str:
    OUT.mkdir(exist_ok=True)
    return tempfile.mkdtemp(prefix="scratch-", dir=OUT)


def run_setup_probe(args) -> int:
    import_fracdim()
    from workloads import WORKLOADS

    scratch = make_scratch()
    try:
        WORKLOADS[args.workload](args.seed, scratch=scratch)
        print(repr(time.time()))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def run_workload(args) -> int:
    fd = import_fracdim()
    from hostspeed import REF_S, Clock, calibration_s
    from workloads import WORKLOADS

    # A set-up process is too short to scale on its own against the two
    # calibrations beside it (their own jitter would dominate), so the
    # median set-up time is scaled by the median calibration of the phase.
    setup_raw, calibrations = [], [calibration_s()]
    for _ in range(SETUP_PROBES):
        setup_raw.append(setup_probe(args.workload, args.seed))
        calibrations.append(calibration_s())
    setup_s = statistics.median(setup_raw) * REF_S / statistics.median(calibrations)
    clock = Clock()
    reference = None
    if REFERENCE.exists():
        refs = json.loads(REFERENCE.read_text())
        reference = refs.get(args.workload, {}).get(str(args.seed))
    scratch = make_scratch()
    tracer = None
    try:
        workload = WORKLOADS[args.workload](args.seed, scratch=scratch)
        if args.trace:
            from layers import layer_metrics, targets
            from spans import Tracer

            tracer = Tracer(args.workload)
        checks = Checks(reference)
        # reference seconds of each pass, and raw seconds of the untraced ones
        walls, traced_walls, raw_walls = [], [], []
        pass_ends = []
        start = time.perf_counter()
        pass_no = 0
        while True:
            traced = tracer is not None and pass_no % 2 == 1
            try:
                if traced:
                    # no cuts inside a traced pass, so that no calibration
                    # falls inside a span
                    tracer.pass_no = pass_no
                    with tracer.installed(targets()), clock.timing():
                        digests, invariants = workload.run_pass()
                else:
                    with clock.timing(workload.ticks):
                        digests, invariants = workload.run_pass()
            except Exception:
                traceback.print_exc()
                checks.fail(pass_no, "pass raised")
                break
            raw, scaled = clock.raw, clock.scaled
            if traced:
                traced_walls.append(scaled)
            else:
                walls.append(scaled)
                raw_walls.append(raw)
            checks.record(pass_no, digests, invariants)
            pass_no += 1
            # stop when a pass (with its calibrations) as long as the median
            # one would end after the deadline, so a run never overshoots
            # --seconds by a whole pass
            pass_ends.append(time.perf_counter() - start)
            lengths = [b - a for a, b in zip([0.0] + pass_ends, pass_ends)]
            ends_at = pass_ends[-1] + statistics.median(lengths)
            if ends_at > args.seconds and (tracer is None or traced_walls):
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if not walls or (tracer is not None and not traced_walls):
        print("no complete pass", file=sys.stderr)
        return 1

    wall_s = statistics.median(walls)
    summary = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "point_scales_per_s": workload.point_scales / wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "error_rate": checks.failed / checks.attempted,
    }
    overhead_resolved = None
    if tracer is None:
        metrics = {name: {"value": summary[name], "unit": unit} for name, unit in END_TO_END}
    else:
        metrics = layer_metrics(tracer.spans, len(traced_walls))
        # each traced pass against the untraced pass just before it
        overhead = statistics.median(t - u for u, t in zip(walls, traced_walls))
        q = quartiles(walls)
        overhead_resolved = len(traced_walls) >= 3 and abs(overhead) > q[2] - q[0]
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    correct = checks.failed == 0
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": provenance(fd),
        "point_scales": workload.point_scales, "passes": len(walls),
        "wall_s_quartiles": quartiles(walls), "walls": walls, "raw_walls": raw_walls,
        "traced_walls": traced_walls, "overhead_resolved": overhead_resolved,
        "setup_raw": setup_raw, "setup_calibrations": calibrations, "summary": summary,
        "attempted": checks.attempted, "failed": checks.failed,
        "failures": checks.failures, "digests": checks.first, "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    (OUT / f"run-{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if tracer is not None:
        tracer.write_jsonl(OUT / f"spans-{stem}.jsonl")

    print("# provenance " + json.dumps(record["provenance"], sort_keys=True))
    q = record["wall_s_quartiles"]
    print(f"# {args.workload}: {len(walls)} untraced passes, wall_s quartiles "
          f"{q[0]:.4f} / {q[1]:.4f} / {q[2]:.4f} s, {workload.point_scales} point-scales a pass")
    print(f"# raw (unscaled) medians: wall {statistics.median(raw_walls):.4f} s, "
          f"set-up {statistics.median(setup_raw):.4f} s")
    for name, unit in PRINTED:
        print(f"# {name} = {summary[name]:.6g} {unit}")
    if tracer is not None:
        for name, m in metrics.items():
            note = ""
            if name == "trace.overhead_s" and not overhead_resolved:
                note = " (unresolved: under 3 pass pairs, or within the untraced quartile spread)"
            print(f"# {name} = {m['value']:.6g} {m['unit']}{note}")
    for failure in checks.failures:
        print(f"# FAILED {failure}")
    print(json.dumps({"correct": correct, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process; one table of their metrics."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            status = 1
        for line in lines[:-1]:
            print(line)
        if lines:
            result = json.loads(lines[-1])
            print(f"# {name}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}")
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if args.all:
        return run_all(args)
    if args.workload is None:
        ap.error("give --workload or --all")
    if args.setup_probe:
        return run_setup_probe(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
