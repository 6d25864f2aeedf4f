"""Command-line front end.

Subcommands: ``simulate`` (emit a sample-path CSV), ``dims`` (scale series
plus dimension estimate for one object/method), ``bounds`` (closed-form
values), ``experiment`` (registered claim experiments).  Exit codes: 0
success, 1 failed verdict, 2 usage/config error, including a file that
cannot be read or written.  JSON payloads embed the effective
configuration; CSV payloads keep their fixed schema, with the configuration
echoed on stderr.
"""

import argparse
import json
import sys

from .constructions import (
    holder_cover_bound,
    lacunary_tail_bound,
    parse_schedule,
    psi_graph_count_formula,
    psi_jump_size,
    theoretical_image_bound,
)
from .errors import DomainError
from .experiments import (
    _METHOD_KINDS,
    CLAIM_IDS,
    build_grid,
    load_config,
    parse_drift_string,
    run_claims,
)
from .metrics import estimate_dimension, graph_cloud, image_cloud, scale_sweep
from .paths import apply_drift, generate_bm, levy_construct, read_path_csv, write_path_csv


def _echo_config(cfg: dict) -> None:
    print(json.dumps({"config": cfg}, sort_keys=True), file=sys.stderr)


def _build_path(args):
    drift = parse_drift_string(args.drift, args.d)
    if args.levy_depth is not None:
        path = levy_construct(args.levy_depth, args.d, args.seed)
    else:
        path = generate_bm(build_grid(args.set, args.points), args.d, args.seed)
    return apply_drift(path, drift)


def _add_generation_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--points", type=int, default=1025, help="grid points (uniform/power sets)")
    p.add_argument("--levy-depth", type=int, default=None, help="midpoint-displacement depth")
    p.add_argument("--d", type=int, default=1, help="ambient dimension")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--drift", default="zero",
                   help="zero | linear:<mu> | psi_n:<n> | lacunary:<preset>:<K> | table:<file>")
    p.add_argument("--set", default="uniform", help="uniform | power:<beta>")


def cmd_simulate(args) -> int:
    path = _build_path(args)
    _echo_config({
        "command": "simulate", "points": len(path.grid), "d": path.dim,
        "seed": path.seed, "drift": args.drift, "set": args.set, "method": path.method,
    })
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            write_path_csv(path, fh)
    else:
        write_path_csv(path, sys.stdout)
    return 0


def _parse_scales(text: str) -> tuple:
    """``(jmin, jmax)`` of a ``--scales jmin:jmax`` flag."""
    try:
        j_min, j_max = (int(x) for x in text.split(":"))
    except ValueError:
        raise ValueError(f"--scales must be jmin:jmax with two integers, got {text!r}") from None
    return j_min, j_max


def _parse_eps(text: str, n: int) -> float:
    """The scale of a ``bounds psi-count --eps auto | <float>`` flag."""
    if text == "auto":
        return psi_jump_size(n)
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"--eps must be auto | <float>, got {text!r}") from None


def cmd_dims(args) -> int:
    if args.input:
        with open(args.input, encoding="utf-8") as fh:
            path = read_path_csv(fh)
    else:
        path = _build_path(args)
    cloud = image_cloud(path) if args.object == "image" else graph_cloud(path)
    j_min, j_max = _parse_scales(args.scales)
    series = scale_sweep(cloud, _METHOD_KINDS[args.method], j_min, j_max, refine=args.refine)
    estimate = estimate_dimension(series)
    config = {
        "command": "dims", "object": args.object, "method": args.method,
        "scales": [j_min, j_max], "input": args.input, "seed": path.seed,
        "drift": args.drift, "set": args.set, "d": path.dim, "points": len(path.grid),
        "refine": args.refine,
    }
    payload = json.dumps({"config": config, "estimate": estimate.to_dict()}, sort_keys=True)
    if args.out:
        with open(args.out + ".csv", "w", encoding="utf-8") as fh:
            series.write_csv(fh)
        with open(args.out + ".json", "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    else:
        series.write_csv(sys.stdout)
        print(payload)
    return 0


def cmd_bounds(args) -> int:
    if args.formula == "image":
        value = theoretical_image_bound(args.alpha, args.d)
        params = {"alpha": args.alpha, "d": args.d}
    elif args.formula == "holder":
        value = holder_cover_bound(args.L, args.gamma, args.beta, args.eps)
        params = {"L": args.L, "gamma": args.gamma, "beta": args.beta, "eps": args.eps}
    elif args.formula == "psi-count":
        eps = _parse_eps(args.eps, args.n)
        value = psi_graph_count_formula(args.n, eps)
        params = {"n": args.n, "eps": eps}
    else:  # tail
        schedule = parse_schedule(args.schedule)
        value = lacunary_tail_bound(schedule, args.truncation)
        params = {"schedule": args.schedule, "truncation": args.truncation}
    print(json.dumps({"formula": args.formula, "params": params, "value": value}, sort_keys=True))
    return 0


def cmd_experiment(args) -> int:
    config = load_config(args.config)
    names = list(CLAIM_IDS) if args.name == "all" else [args.name]
    reports = {name: report.to_dict() for name, report in run_claims(names, config).items()}
    all_pass = True
    for report in reports.values():
        for verdict in report["verdicts"]:
            all_pass &= verdict["pass"]
            status = "PASS" if verdict["pass"] else "FAIL"
            print(f"{status} {verdict['claim']}: margin={verdict['margin']:.4f} "
                  f"({verdict['detail']})", file=sys.stderr)
    payload = reports[names[0]] if len(names) == 1 else reports
    text = json.dumps(payload, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if all_pass else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fracdim",
                                     description="Box-dimension experiments for noisy paths")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a sample path CSV")
    _add_generation_flags(p_sim)
    p_sim.add_argument("--out", default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_dims = sub.add_parser("dims", help="scale series and dimension estimate")
    _add_generation_flags(p_dims)
    p_dims.add_argument("--input", default=None, help="sample-path CSV to analyse")
    p_dims.add_argument("--object", choices=["image", "graph"], default="graph")
    p_dims.add_argument("--method", choices=list(_METHOD_KINDS), default="box")
    p_dims.add_argument("--scales", default="4:10", help="jmin:jmax for eps = 2^-j")
    p_dims.add_argument("--refine", type=int, default=4, help="sausage grid refinement")
    p_dims.add_argument("--out", default=None, help="prefix for .csv/.json outputs")
    p_dims.set_defaults(func=cmd_dims)

    p_bounds = sub.add_parser("bounds", help="closed-form bound values")
    bsub = p_bounds.add_subparsers(dest="formula", required=True)
    b_img = bsub.add_parser("image")
    b_img.add_argument("--alpha", type=float, required=True)
    b_img.add_argument("--d", type=int, default=1)
    b_hold = bsub.add_parser("holder")
    b_hold.add_argument("--L", type=float, required=True)
    b_hold.add_argument("--gamma", type=float, required=True)
    b_hold.add_argument("--beta", type=float, required=True)
    b_hold.add_argument("--eps", type=float, required=True)
    b_psi = bsub.add_parser("psi-count")
    b_psi.add_argument("--n", type=int, required=True)
    b_psi.add_argument("--eps", default="auto")
    b_tail = bsub.add_parser("tail")
    b_tail.add_argument("--schedule", default="desk")
    b_tail.add_argument("--truncation", type=int, required=True)
    p_bounds.set_defaults(func=cmd_bounds)

    p_exp = sub.add_parser("experiment", help="run registered claim experiments")
    p_exp.add_argument("--name", required=True, help="claim id or 'all'")
    p_exp.add_argument("--config", default=None, help="config JSON overriding the defaults")
    p_exp.add_argument("--out", default=None)
    p_exp.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
