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
import contextlib
import json
import os
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
    CLAIM_IDS,
    build_grid,
    load_config,
    parse_drift_string,
    run_claims,
)
from .metrics import (METHOD_KINDS, check_sweep_window, estimate_dimension, graph_cloud,
                      image_cloud, scale_sweep)
from .paths import apply_drift, generate_bm, levy_construct, read_path_csv, write_path_csv


def _echo_config(cfg: dict) -> None:
    print(json.dumps({"config": cfg}, sort_keys=True), file=sys.stderr)


@contextlib.contextmanager
def _output(target: str | None):
    """The stream a command writes to: stdout, or a temporary file beside
    ``target`` that replaces it when the command returns and is deleted when
    it raises.  A target that cannot be written fails before any work."""
    if not target:
        yield sys.stdout
        return
    if os.path.isdir(target):
        raise OSError(f"cannot write {target!r}: Is a directory")
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, "x", encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write {target!r}: {exc.strerror}") from None
    try:
        with fh:
            yield fh
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _build_path(args):
    drift = parse_drift_string(args.drift, args.d)
    if args.levy_depth is not None:
        path = levy_construct(args.levy_depth, args.d, args.seed)
    else:
        path = generate_bm(build_grid(args.set, args.points), args.d, args.seed)
    return apply_drift(path, drift)


# the flags that make a path, shared by ``simulate`` and ``dims``
_GENERATION = argparse.ArgumentParser(add_help=False)
_GENERATION.add_argument("--points", type=int, default=1025,
                         help="grid points (uniform/power sets)")
_GENERATION.add_argument("--levy-depth", type=int, default=None, help="midpoint-displacement depth")
_GENERATION.add_argument("--d", type=int, default=1, help="ambient dimension")
_GENERATION.add_argument("--seed", type=int, default=0)
_GENERATION.add_argument("--drift", default="zero", help="zero | linear:<mu> | psi_n:<n> | "
                         "lacunary:<preset>:<K> | table:<file>")
_GENERATION.add_argument("--set", default="uniform", help="uniform | power:<beta>")


def _refuse_unused(args) -> None:
    """Refuse, before any work, the generation flags given a non-default
    value that the command would ignore: every one beside ``dims --input``,
    and ``--points`` and ``--set`` beside ``--levy-depth``."""
    defaults = vars(_GENERATION.parse_args([]))
    if getattr(args, "input", None):
        unused, why = defaults, "--input reads the path from its CSV"
    elif args.levy_depth is not None:
        unused, why = ("points", "set"), "--levy-depth builds its own dyadic grid"
    else:
        return
    given = [f"--{dest.replace('_', '-')}" for dest in unused
             if getattr(args, dest) != defaults[dest]]
    if given:
        raise ValueError(f"{why}; drop {', '.join(given)}")


def cmd_simulate(args) -> int:
    _refuse_unused(args)
    with _output(args.out) as out:
        path = _build_path(args)
        _echo_config({
            "command": "simulate", "points": len(path.grid), "d": path.dim,
            "seed": path.seed, "drift": args.drift, "set": args.set, "method": path.method,
        })
        write_path_csv(path, out)
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
    j_min, j_max = _parse_scales(args.scales)
    check_sweep_window(j_min, j_max)
    _refuse_unused(args)
    prefix = args.out
    with _output(prefix and prefix + ".csv") as csv_out, \
            _output(prefix and prefix + ".json") as json_out:
        if args.input:
            with open(args.input, encoding="utf-8") as fh:
                path = read_path_csv(fh)
        else:
            path = _build_path(args)
        cloud = image_cloud(path) if args.object == "image" else graph_cloud(path)
        series = scale_sweep(cloud, METHOD_KINDS[args.method], j_min, j_max, refine=args.refine)
        estimate = estimate_dimension(series)
        # a CSV records neither the seed, the drift nor the set of its path
        made = (dict(seed=None, drift=None, set=None) if args.input
                else dict(seed=path.seed, drift=args.drift, set=args.set))
        config = {
            "command": "dims", "object": args.object, "method": args.method,
            "scales": [j_min, j_max], "input": args.input, **made, "d": path.dim,
            "points": len(path.grid), "refine": args.refine,
        }
        series.write_csv(csv_out)
        print(json.dumps({"config": config, "estimate": estimate.to_dict()}, sort_keys=True),
              file=json_out)
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
    with _output(args.out) as out:
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
        print(json.dumps(payload, sort_keys=True), file=out)
    return 0 if all_pass else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fracdim",
                                     description="Box-dimension experiments for noisy paths")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", parents=[_GENERATION], help="generate a sample path CSV")
    p_sim.add_argument("--out", default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_dims = sub.add_parser("dims", parents=[_GENERATION],
                            help="scale series and dimension estimate")
    p_dims.add_argument("--input", default=None, help="sample-path CSV to analyse")
    p_dims.add_argument("--object", choices=["image", "graph"], default="graph")
    p_dims.add_argument("--method", choices=list(METHOD_KINDS), default="box")
    p_dims.add_argument("--scales", default="4:10",
                        help="jmin:jmax for eps = 2^-j, each j in [-1023, 1074]; write a "
                             "negative jmin as --scales=-2:3, since a separate -2:3 reads "
                             "as a flag")
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
        # str() of a KeyError is the repr of its message, quotes and all
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
