"""Record the reference output digests of the full-size workloads.

    python3 perfbench/record.py --seeds 0 1 2 --workloads methods cli-roundtrip

Before recording, packing and neighbour counts on a small cloud are checked
against the brute-force oracles in ``tests/oracles.py``.  A workload whose
invariants fail at a seed is not recorded there.  Digests already in
``reference.json`` are kept unless the same (workload, seed) is recorded
again.
"""

import argparse
import importlib.util
import json
import os
import shutil
import sys

import run


def load_oracles():
    spec = importlib.util.spec_from_file_location("oracles", run.ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _require(ok, message):
    if not ok:
        raise RuntimeError(message)


def oracle_cross_check(seed: int) -> None:
    """Raise RuntimeError unless greedy packing and neighbour counts on a
    200-point 2-D Brownian image agree with the O(n^2) oracles."""
    import numpy as np

    import fracdim as fd
    from fracdim import kernels

    oracles = load_oracles()
    pts = fd.image_cloud(fd.generate_bm(fd.TimeGrid.uniform(200), 2, seed)).points
    for j in (3, 5, 7):
        eps = 2.0 ** -j
        kept = pts[kernels.greedy_pack_mask(pts, eps)]
        _require(oracles.pairwise_separated(kept, eps), f"packing not separated at j={j}")
        d2 = ((pts[:, None, :] - kept[None, :, :]) ** 2).sum(axis=2)
        _require(np.all(np.sqrt(d2.min(axis=1)) < 2 * eps), f"packing not maximal at j={j}")
        got = kernels.neighbor_counts(pts, 2 * eps)
        want = oracles.brute_neighbor_counts(pts, 2 * eps)
        _require(np.array_equal(got, want), f"neighbour counts differ at j={j}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--workloads", nargs="+", choices=run.WORKLOAD_NAMES,
                    default=list(run.WORKLOAD_NAMES))
    args = ap.parse_args(argv)
    for var in run.THREAD_VARS:
        os.environ[var] = "1"
    run.import_fracdim()
    from workloads import WORKLOADS

    for seed in args.seeds:
        oracle_cross_check(seed)
    refs = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.exists() else {}
    status = 0
    for name in args.workloads:
        for seed in args.seeds:
            scratch = run.make_scratch()
            try:
                digests, invariants = WORKLOADS[name](seed, scratch=scratch).run_pass()
            finally:
                shutil.rmtree(scratch, ignore_errors=True)
            bad = sorted(k for k, ok in invariants.items() if not ok)
            if bad:
                print(f"{name} seed {seed}: not recorded, failed {bad}", file=sys.stderr)
                status = 1
                continue
            refs.setdefault(name, {})[str(seed)] = digests
            run.REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
            print(f"{name} seed {seed}: recorded {len(digests)} digests", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
