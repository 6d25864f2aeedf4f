"""Compare the untraced run records of two commits, metric by metric.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds ``run-*.json`` records written by ``run.py`` (its
``.bench_out/``).  For every workload and end-to-end metric of
``BENCHMARK.json`` it prints both medians and quartiles, the change relative
to the base median (positive is worse), and whether it stays within the
metric's bound; a base whose own quartile spread exceeds the bound reads
"unresolved".  Runs at the same seed must have identical output digests.
It refuses (exit 2) to compare runs whose backend or core count differ.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    runs = [json.loads(p.read_text()) for p in sorted(Path(directory).glob("run-*.json"))]
    return [r for r in runs if r["trace"] == 0]


def spread(values):
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return q, (q[2] - q[0]) / q[1] if q[1] else 0.0


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = load(argv[0]), load(argv[1])
    if not base or not change:
        print("no untraced run records found", file=sys.stderr)
        return 2
    machines = {(r["provenance"]["backend"], r["provenance"]["cores"]) for r in base + change}
    if len(machines) > 1:
        print(f"refusing to compare runs of different backends or cores: {sorted(machines)}",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    status = 0
    digests = {}
    for r in base + change:
        seen = digests.setdefault((r["workload"], r["seed"]), r["digests"])
        if seen != r["digests"]:
            print(f"DIGESTS DIFFER: {r['workload']} seed {r['seed']}")
            status = 1
    for workload in sorted({r["workload"] for r in base + change}):
        b = [r for r in base if r["workload"] == workload]
        c = [r for r in change if r["workload"] == workload]
        print(f"{workload}: {len(b)} base runs, {len(c)} change runs")
        if not b or not c:
            continue
        for m in bench["end_to_end"]:
            bv = [r["metrics"][m["name"]]["value"] for r in b]
            cv = [r["metrics"][m["name"]]["value"] for r in c]
            (bq, b_spread), (cq, _) = spread(bv), spread(cv)
            worse = (cq[1] - bq[1]) / bq[1] * (1 if m["better"] == "lower" else -1)
            if b_spread > m["bound"]:
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict = "WORSE"
                status = 1
            else:
                verdict = "within bound"
            print(f"  {m['name']:20s} base {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}]  "
                  f"change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}] {m['unit']}  "
                  f"worse by {worse:+.1%} (bound {m['bound']:.0%}): {verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
