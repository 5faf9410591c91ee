"""Command-line front end: generate instances, run solvers, verify comparisons.

Exit codes: 0 on success (and a true verdict for ``verify``), 1 on an
internal error or failed invariant, 2 on a precondition failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .errors import (
    Assumption2Error,
    L1LabError,
    PreconditionError,
    StartSearchError,
)
from .operators import classify_point
from .problems import (
    gen_zmatrix_quadratic,
    lasso_build,
    load_problem,
    load_xy_csv,
    save_problem,
)
from .solvers import SolverConfig, run
from .verification import find_subsolution, find_supersolution, run_comparison

_DESCENT_TOL = 1e-12


def _build_parser():
    """The parser and its subcommand parsers by name. Each flag's default,
    type and choices are stated here once; --config values are checked
    against them in main."""
    parser = argparse.ArgumentParser(
        prog="l1lab",
        description="l1-regularized optimization lab: gd, ccd, and ccm with a comparison harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    config_help = "JSON object whose keys are flag names, supplying defaults for them"

    gen = sub.add_parser("gen", help="generate a problem file")
    gen.add_argument("--kind", choices=("zmatrix", "lasso"), default="zmatrix")
    gen.add_argument("--dim", type=int, default=5)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--density", type=float, default=0.5)
    gen.add_argument("--csv", help="CSV of rows x_1..x_d,y for --kind lasso")
    gen.add_argument("--lam", "--lambda", dest="lam", type=float, default=0.1)
    gen.add_argument("--out", default="problem.json")
    gen.add_argument("--config", help=config_help)
    gen.set_defaults(func=cmd_gen)

    runp = sub.add_parser("run", help="run one or all algorithms and write traces")
    runp.add_argument("--problem")
    runp.add_argument("--alg", choices=("gd", "ccd", "ccm", "all"), default="all")
    runp.add_argument("--iters", type=int, default=100)
    runp.add_argument("--start", choices=("zero", "super", "sub"),
                      help="zero (the default), or a super- or subsolution found from --seed")
    runp.add_argument("--x0", help="comma-separated start vector, instead of --start")
    runp.add_argument("--seed", type=int, default=0, help="seed for the start search")
    runp.add_argument("--stop-residual", type=float, default=0.0)
    runp.add_argument("--record-inner", action="store_true")
    runp.add_argument("--out-dir", default=".")
    runp.add_argument("--prefix", default="trace_")
    runp.add_argument("--config", help=config_help)
    runp.set_defaults(func=cmd_run)

    ver = sub.add_parser("verify", help="three-way comparison harness")
    ver.add_argument("--problem")
    ver.add_argument("--dim", type=int, help="generate an instance instead")
    ver.add_argument("--density", type=float, help="of the generated instance (--dim)")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--start", choices=("super", "sub"), default="super")
    ver.add_argument("--iters", type=int, default=100)
    ver.add_argument("--tol", type=float, default=1e-8)
    ver.add_argument("--report", help="path for the report JSON")
    ver.add_argument("--summary", help="path for the summary CSV")
    ver.add_argument("--config", help=config_help)
    ver.set_defaults(func=cmd_verify)

    cls = sub.add_parser("classify", help="classify a point on a problem")
    cls.add_argument("--problem")
    cls.add_argument("--point", help="comma-separated coordinates")
    cls.add_argument("--tol", type=float, default=1e-10)
    cls.add_argument("--config", help=config_help)
    cls.set_defaults(func=cmd_classify)

    return parser, sub.choices


# What a --config value must be for a flag of each type (None: a string).
_CONFIG_TYPES = {
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)),
    None: ("a string", lambda v: isinstance(v, str)),
}


def _config_defaults(command, path):
    """The values of the JSON object in ``path`` for the flags of the
    ``command`` parser, each checked as that flag checks its argument.

    Keys with no flag and null values are left out. ValueError names the
    first field whose value the flag would not take.
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("--config must contain a JSON object")
    flags = {a.dest: a for a in command._actions if a.dest not in ("help", "config")}
    defaults = {}
    for name, value in data.items():
        flag = flags.get(name)
        if flag is None or value is None:
            continue
        if flag.nargs == 0:  # a switch
            what, ok = "true or false", isinstance(value, bool)
        else:
            what, test = _CONFIG_TYPES[flag.type]
            ok = test(value)
        if ok and flag.choices is not None and value not in flag.choices:
            what, ok = "one of " + ", ".join(map(json.dumps, flag.choices)), False
        if not ok:
            raise ValueError(f"--config field {name!r} must be {what}, got {json.dumps(value)}")
        # The flag's type reads the number's text, as it reads an argument.
        defaults[name] = value if flag.type is None else flag.type(str(value))
    return defaults


def _parse_point(text, dim=None):
    vals = [float(tok) for tok in str(text).split(",") if tok.strip()]
    v = np.asarray(vals, dtype=float)
    if dim is not None and v.shape[0] != dim:
        raise PreconditionError(f"point has {v.shape[0]} coordinates, expected {dim}")
    return v


def _start(p, mode, seed):
    """The zero vector, or a super- or subsolution found from ``seed``."""
    if mode == "zero":
        return np.zeros(p.dim)
    find = find_supersolution if mode == "super" else find_subsolution
    return find(p, seed=seed)


def cmd_gen(args) -> int:
    if args.kind == "zmatrix":
        p = gen_zmatrix_quadratic(args.dim, seed=args.seed, density=args.density)
    else:
        if args.csv is None:
            raise PreconditionError("--kind lasso needs --csv")
        X, Y = load_xy_csv(args.csv)
        p = lasso_build(X, Y, args.lam)
    save_problem(p, args.out)
    ok, offenders = p.smooth.isotonicity_certificate()
    verdict = "PASS" if ok else f"FAIL ({len(offenders)} positive off-diagonal pairs)"
    print(f"wrote {args.out} (dim={p.dim}, lambda={p.lam:.17g}, L={p.lipschitz:.17g})")
    print(f"isotonicity check: {verdict}")
    return 0


def cmd_run(args) -> int:
    if args.problem is None:
        raise PreconditionError("run needs --problem")
    if args.x0 is not None and args.start is not None:
        raise PreconditionError("run takes --x0 or --start, not both")
    p = load_problem(args.problem)
    x0 = (_parse_point(args.x0, p.dim) if args.x0 is not None
          else _start(p, args.start or "zero", args.seed))
    cfg = SolverConfig(max_outer_iters=args.iters, stop_residual=args.stop_residual,
                       record_inner=args.record_inner, record_tau=True)
    out_dir = Path(args.out_dir)
    algs = ("gd", "ccd", "ccm") if args.alg == "all" else (args.alg,)
    all_descent = True
    for name in algs:
        trace = run(name, p, x0, cfg)
        out_dir.mkdir(parents=True, exist_ok=True)  # only once there is a trace to write
        csv_path = out_dir / f"{args.prefix}{name}.csv"
        trace.write_csv(csv_path)
        trace.write_json(out_dir / f"{args.prefix}{name}.json")
        held = trace.descent_ok(_DESCENT_TOL)
        all_descent = all_descent and held
        print(
            f"{name}: {len(trace.iterates) - 1} iterations, "
            f"final F={trace.f_values[-1]:.17g}, residual={trace.residuals[-1]:.3e}, "
            f"descent={'ok' if held else 'VIOLATED'} -> {csv_path}"
        )
    return 0 if all_descent else 1


def cmd_verify(args) -> int:
    if args.problem is not None:
        if args.dim is not None:
            raise PreconditionError("verify takes --problem or --dim, not both")
        if args.density is not None:
            raise PreconditionError("verify takes --density with --dim, not with --problem")
        p = load_problem(args.problem)
    elif args.dim is not None:
        density = {} if args.density is None else {"density": args.density}
        p = gen_zmatrix_quadratic(args.dim, seed=args.seed, **density)
    else:
        raise PreconditionError("verify needs --problem or --dim")
    x0 = _start(p, args.start, args.seed)
    report = run_comparison(p, x0, K=args.iters, tol=args.tol)
    if args.report is not None:
        report.write_json(args.report)
    if args.summary is not None:
        report.write_summary_csv(args.summary)
    print(
        f"start={report.start.kind.value}, K={args.iters}, "
        f"F*={report.reference.f_star:.17g} ({report.reference.method})"
    )
    print(f"verdict: {'PASS' if report.verdict else 'FAIL'}")
    return 0 if report.verdict else 1


def cmd_classify(args) -> int:
    if args.problem is None or args.point is None:
        raise PreconditionError("classify needs --problem and --point")
    p = load_problem(args.problem)
    cls = classify_point(p, _parse_point(args.point, p.dim), args.tol)
    print(
        json.dumps(
            {"kind": cls.kind.value, "slack": cls.slack.tolist(), "tol": cls.tol},
            indent=2,
        )
    )
    return 0


def main(argv=None) -> int:
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            command = commands[args.command]
            command.set_defaults(**_config_defaults(command, args.config))
            args = parser.parse_args(argv)  # flags on the command line still win
        return args.func(args)
    except (PreconditionError, Assumption2Error, StartSearchError) as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return 2
    except (L1LabError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
