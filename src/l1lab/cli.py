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
from .operators import check_isotonicity_quadratic, classify_point
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
    parser = argparse.ArgumentParser(
        prog="l1lab",
        description="l1-regularized optimization lab: gd, ccd, and ccm with a comparison harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a problem file")
    gen.add_argument("--kind", choices=("zmatrix", "lasso"), default="zmatrix")
    gen.add_argument("--dim", type=int, default=None)
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--density", type=float, default=None)
    gen.add_argument("--csv", default=None, help="CSV of rows x_1..x_d,y for --kind lasso")
    gen.add_argument("--lam", "--lambda", dest="lam", type=float, default=None)
    gen.add_argument("--out", default=None)
    gen.add_argument("--config", default=None, help="JSON file with defaults for any flag")
    gen.set_defaults(func=cmd_gen)

    runp = sub.add_parser("run", help="run one or all algorithms and write traces")
    runp.add_argument("--problem", default=None)
    runp.add_argument("--alg", choices=("gd", "ccd", "ccm", "all"), default=None)
    runp.add_argument("--iters", type=int, default=None)
    runp.add_argument("--start", choices=("zero", "super", "sub"), default=None)
    runp.add_argument("--x0", default=None, help="comma-separated start vector")
    runp.add_argument("--seed", type=int, default=None, help="seed for the start search")
    runp.add_argument("--stop-residual", type=float, default=None)
    runp.add_argument("--record-inner", action="store_true")
    runp.add_argument("--out-dir", default=None)
    runp.add_argument("--prefix", default=None)
    runp.add_argument("--config", default=None)
    runp.set_defaults(func=cmd_run)

    ver = sub.add_parser("verify", help="three-way comparison harness")
    ver.add_argument("--problem", default=None)
    ver.add_argument("--dim", type=int, default=None, help="generate an instance instead")
    ver.add_argument("--density", type=float, default=None)
    ver.add_argument("--seed", type=int, default=None)
    ver.add_argument("--start", choices=("super", "sub"), default=None)
    ver.add_argument("--iters", type=int, default=None)
    ver.add_argument("--tol", type=float, default=None)
    ver.add_argument("--report", default=None, help="path for the report JSON")
    ver.add_argument("--summary", default=None, help="path for the summary CSV")
    ver.add_argument("--config", default=None)
    ver.set_defaults(func=cmd_verify)

    cls = sub.add_parser("classify", help="classify a point on a problem")
    cls.add_argument("--problem", default=None)
    cls.add_argument("--point", default=None, help="comma-separated coordinates")
    cls.add_argument("--tol", type=float, default=None)
    cls.add_argument("--config", default=None)
    cls.set_defaults(func=cmd_classify)

    return parser


def _load_config(args):
    if getattr(args, "config", None) is None:
        return {}
    with open(args.config, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("--config must contain a JSON object")
    return data


def _opt(args, config, name, default=None):
    val = getattr(args, name, None)
    if val is None or val is False:
        val = config.get(name, val)
    return default if val is None else val


def _parse_point(text, dim=None):
    vals = [float(tok) for tok in str(text).split(",") if tok.strip()]
    v = np.asarray(vals, dtype=float)
    if dim is not None and v.shape[0] != dim:
        raise PreconditionError(f"point has {v.shape[0]} coordinates, expected {dim}")
    return v


def cmd_gen(args) -> int:
    config = _load_config(args)
    kind = _opt(args, config, "kind", "zmatrix")
    out = _opt(args, config, "out", "problem.json")
    if kind == "zmatrix":
        dim = int(_opt(args, config, "dim", 5))
        seed = int(_opt(args, config, "seed", 0))
        density = float(_opt(args, config, "density", 0.5))
        p = gen_zmatrix_quadratic(dim, seed=seed, density=density)
    else:
        csv_path = _opt(args, config, "csv")
        if csv_path is None:
            raise PreconditionError("--kind lasso needs --csv")
        lam = float(_opt(args, config, "lam", 0.1))
        X, Y = load_xy_csv(csv_path)
        p = lasso_build(X, Y, lam)
    save_problem(p, out)
    ok, offenders = check_isotonicity_quadratic(p.smooth.A)
    verdict = "PASS" if ok else f"FAIL ({len(offenders)} positive off-diagonal pairs)"
    print(f"wrote {out} (dim={p.dim}, lambda={p.lam:.17g}, L={p.lipschitz:.17g})")
    print(f"isotonicity check: {verdict}")
    return 0


def _resolve_start(p, args, config):
    x0_text = _opt(args, config, "x0")
    if x0_text is not None:
        return _parse_point(x0_text, p.dim)
    mode = _opt(args, config, "start", "zero")
    seed = int(_opt(args, config, "seed", 0))
    if mode == "zero":
        return np.zeros(p.dim)
    if mode == "super":
        return find_supersolution(p, seed=seed)
    return find_subsolution(p, seed=seed)


def cmd_run(args) -> int:
    config = _load_config(args)
    problem_path = _opt(args, config, "problem")
    if problem_path is None:
        raise PreconditionError("run needs --problem")
    p = load_problem(problem_path)
    alg = _opt(args, config, "alg", "all")
    iters = int(_opt(args, config, "iters", 100))
    stop = float(_opt(args, config, "stop_residual", 0.0))
    record_inner = bool(_opt(args, config, "record_inner", False))
    out_dir = Path(_opt(args, config, "out_dir", "."))
    prefix = _opt(args, config, "prefix", "trace_")
    out_dir.mkdir(parents=True, exist_ok=True)

    x0 = _resolve_start(p, args, config)
    cfg = SolverConfig(max_outer_iters=iters, stop_residual=stop, record_inner=record_inner)
    algs = ("gd", "ccd", "ccm") if alg == "all" else (alg,)
    all_descent = True
    for name in algs:
        trace = run(name, p, x0, cfg)
        csv_path = out_dir / f"{prefix}{name}.csv"
        trace.write_csv(csv_path)
        trace.write_json(out_dir / f"{prefix}{name}.json")
        held = trace.descent_ok(_DESCENT_TOL)
        all_descent = all_descent and held
        print(
            f"{name}: {len(trace.iterates) - 1} iterations, "
            f"final F={trace.f_values[-1]:.17g}, residual={trace.residuals[-1]:.3e}, "
            f"descent={'ok' if held else 'VIOLATED'} -> {csv_path}"
        )
    return 0 if all_descent else 1


def cmd_verify(args) -> int:
    config = _load_config(args)
    problem_path = _opt(args, config, "problem")
    seed = int(_opt(args, config, "seed", 0))
    if problem_path is not None:
        p = load_problem(problem_path)
    else:
        dim = _opt(args, config, "dim")
        if dim is None:
            raise PreconditionError("verify needs --problem or --dim")
        density = float(_opt(args, config, "density", 0.5))
        p = gen_zmatrix_quadratic(int(dim), seed=seed, density=density)
    certificate = p.smooth.isotonicity_certificate()
    if certificate is not None and not certificate[0]:
        print(
            f"isotonicity precondition failed: {len(certificate[1])} positive "
            "off-diagonal pairs",
            file=sys.stderr,
        )
        return 2
    mode = _opt(args, config, "start", "super")
    iters = int(_opt(args, config, "iters", 100))
    tol = float(_opt(args, config, "tol", 1e-8))
    x0 = find_supersolution(p, seed=seed) if mode == "super" else find_subsolution(p, seed=seed)
    report = run_comparison(p, x0, K=iters, tol=tol)
    report_path = _opt(args, config, "report")
    if report_path is not None:
        report.write_json(report_path)
    summary_path = _opt(args, config, "summary")
    if summary_path is not None:
        report.write_summary_csv(summary_path)
    print(
        f"start={report.start.kind.value}, K={iters}, "
        f"F*={report.reference.f_star:.17g} ({report.reference.method})"
    )
    print(f"verdict: {'PASS' if report.verdict else 'FAIL'}")
    return 0 if report.verdict else 1


def cmd_classify(args) -> int:
    config = _load_config(args)
    problem_path = _opt(args, config, "problem")
    point = _opt(args, config, "point")
    if problem_path is None or point is None:
        raise PreconditionError("classify needs --problem and --point")
    p = load_problem(problem_path)
    tol = float(_opt(args, config, "tol", 1e-10))
    cls = classify_point(p, _parse_point(point, p.dim), tol)
    print(
        json.dumps(
            {"kind": cls.kind.value, "slack": cls.slack.tolist(), "tol": cls.tol},
            indent=2,
        )
    )
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
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
