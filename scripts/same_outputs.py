#!/usr/bin/env python3
"""Compare the CLI outputs of a git revision with those of the working tree.

    python3 scripts/same_outputs.py <rev>

Extracts <rev> with ``git archive`` into a temporary directory, runs a
fixed set of ``l1lab`` commands with each source tree, each set in its own
empty directory, and compares every output byte for byte: the stdout,
stderr and exit status of each command and every file it wrote (problem
files, reports, summaries, trace CSV and JSON). Each file that differs,
or exists on one side only, is printed. The exit status is 1 when any
does, 0 when none does, and 2 when <rev> cannot be extracted.

This is a check for changes that mean to keep every output: a deliberate
change of an output format makes it report differences.
"""

from __future__ import annotations

import filecmp
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# (name, arguments of `l1lab`), run in this order in one directory.
COMMANDS = (
    ("gen_d10", ["gen", "--dim", "10", "--seed", "4", "--out", "zmat10.json"]),
    ("gen_d60", ["gen", "--dim", "60", "--seed", "2", "--out", "zmat60.json"]),
    ("run_d10", ["run", "--problem", "zmat10.json", "--alg", "all", "--record-inner",
                 "--iters", "50", "--start", "super", "--seed", "4", "--prefix", "d10_"]),
    ("run_d60", ["run", "--problem", "zmat60.json", "--alg", "all", "--record-inner",
                 "--iters", "40", "--start", "sub", "--seed", "2", "--prefix", "d60_"]),
    # Large traces, inner sweeps and a large problem file: numbers the
    # compiled renderer writes, at size.
    ("gen_d300", ["gen", "--dim", "300", "--seed", "6", "--out", "zmat300.json"]),
    ("run_d300", ["run", "--problem", "zmat300.json", "--alg", "all", "--record-inner",
                  "--iters", "20", "--start", "sub", "--seed", "6", "--prefix", "d300_"]),
    ("run_logistic", ["run", "--problem", "logistic.json", "--alg", "all", "--iters", "50",
                      "--prefix", "logistic_"]),
    # The start search's numpy ladder on a loss without an affine gradient,
    # one grad per rung: no ray or fallback gives the supersolution, so
    # super exits 2; sub finds a start and writes three traces.
    ("run_logistic_super", ["run", "--problem", "logistic.json", "--alg", "all",
                            "--iters", "20", "--start", "super", "--seed", "3",
                            "--prefix", "logistic_super_"]),
    ("run_logistic_sub", ["run", "--problem", "logistic.json", "--alg", "all",
                          "--iters", "20", "--start", "sub", "--seed", "3",
                          "--prefix", "logistic_sub_"]),
    # A stop rule makes run() measure each iterate as it is made, not all
    # of them after the loop.
    ("run_d10_stop", ["run", "--problem", "zmat10.json", "--alg", "all", "--record-inner",
                      "--iters", "5000", "--stop-residual", "1e-8", "--start", "sub",
                      "--seed", "4", "--prefix", "d10_stop_"]),
    ("run_logistic_stop", ["run", "--problem", "logistic.json", "--alg", "all",
                           "--iters", "5000", "--stop-residual", "1e-8",
                           "--prefix", "logistic_stop_"]),
    ("verify_d12_super", ["verify", "--dim", "12", "--seed", "3", "--iters", "100",
                          "--start", "super", "--report", "d12_super_report.json",
                          "--summary", "d12_super_summary.csv"]),
    ("verify_d12_sub", ["verify", "--dim", "12", "--seed", "3", "--iters", "100",
                        "--start", "sub", "--report", "d12_sub_report.json",
                        "--summary", "d12_sub_summary.csv"]),
    # K = 600: a report whose per_iteration is written in two pieces.
    ("verify_d6_k600", ["verify", "--dim", "6", "--seed", "7", "--iters", "600",
                        "--report", "d6_k600_report.json", "--summary", "d6_k600_summary.csv"]),
    # A mid-size quadratic reference solve, checked byte for byte.
    ("verify_d60", ["verify", "--problem", "zmat60.json", "--iters", "40",
                    "--report", "d60_report.json", "--summary", "d60_summary.csv"]),
    ("verify_d300", ["verify", "--dim", "300", "--iters", "20", "--report", "d300_report.json",
                     "--summary", "d300_summary.csv"]),
    # Large enough that the compiled quadratic sweep carries the run.
    ("verify_d300_sub", ["verify", "--dim", "300", "--seed", "5", "--iters", "30",
                         "--start", "sub", "--report", "d300_sub_report.json",
                         "--summary", "d300_sub_summary.csv"]),
    # Logistic data have no exact isotonicity certificate, so these take
    # the sampled check.
    ("verify_logistic1d_super", ["verify", "--problem", "logistic1d.json", "--iters", "60",
                                 "--start", "super", "--report", "logistic1d_super_report.json",
                                 "--summary", "logistic1d_super_summary.csv"]),
    ("verify_logistic1d_sub", ["verify", "--problem", "logistic1d.json", "--iters", "60",
                               "--start", "sub", "--report", "logistic1d_sub_report.json",
                               "--summary", "logistic1d_sub_summary.csv"]),
    # A step constant far below the true L: each run fails with exit status
    # 1 naming the first non-finite objective value, with and without a
    # stop rule.
    ("run_diverging_gd", ["run", "--problem", "diverging.json", "--alg", "gd",
                          "--prefix", "diverging_gd_"]),
    ("run_diverging_gd_stop", ["run", "--problem", "diverging.json", "--alg", "gd",
                               "--stop-residual", "1e-300", "--prefix", "diverging_gd_stop_"]),
    ("run_diverging_ccd", ["run", "--problem", "diverging.json", "--alg", "ccd",
                           "--prefix", "diverging_ccd_"]),
    ("run_diverging_ccd_stop", ["run", "--problem", "diverging.json", "--alg", "ccd",
                                "--stop-residual", "1e-300", "--prefix", "diverging_ccd_stop_"]),
    # Iterates near 1e153, where |F| passes 1e307 and its rounding is larger
    # than any absolute descent tolerance: without a stop rule one compiled
    # call makes each gd and ccd run (ccm keeps the numpy steps, as run
    # records tau). Both commands exit 0 (descent=ok).
    ("run_overflow", ["run", "--problem", "overflow.json", "--alg", "all", "--iters", "150",
                      "--prefix", "overflow_"]),
    ("run_overflow_stop", ["run", "--problem", "overflow.json", "--alg", "all",
                           "--iters", "150", "--stop-residual", "1e-300",
                           "--prefix", "overflow_stop_"]),
    ("classify_d10", ["classify", "--problem", "zmat10.json", "--tol", "1e-9",
                      "--point", "1,0.5,0,0,2,0,0,0,0.25,1"]),
    # A hand-written problem file (HANDWRITTEN): the number reader's edge
    # cases, in the file and in the outputs.
    ("classify_handwritten", ["classify", "--problem", "handwritten.json",
                              "--point", "0.5,-1E-1,0"]),
    ("verify_handwritten", ["verify", "--problem", "handwritten.json", "--iters", "40",
                            "--report", "handwritten_report.json",
                            "--summary", "handwritten_summary.csv"]),
    ("gen_lasso", ["gen", "--kind", "lasso", "--csv", "lasso.csv", "--lambda", "0.05",
                   "--out", "lasso.json"]),
    # Settings from a config file (VERIFY_CONFIG), one of them overridden
    # by a flag on the command line.
    ("verify_config", ["verify", "--config", "verify_config.json", "--iters", "60"]),
)

# Every kind of --config key: typed values, a null, a key with no flag,
# and one (iters) that the command line overrides.
VERIFY_CONFIG = {"dim": 8, "seed": 5, "density": 0.3, "start": "sub", "iters": 500,
                 "tol": 1e-9, "problem": None, "unused": 1,
                 "report": "config_report.json", "summary": "config_summary.csv"}

# A 2x2 quadratic whose step constant L is far below its true Lipschitz
# constant 3, so gd and ccd diverge.
DIVERGING = {"kind": "quadratic", "A": [[2.0, -1.0], [-1.0, 2.0]], "b": [0.5, -0.3],
             "lambda": 0.1, "L": 0.001}

# A 2x2 quadratic with minimizer x* = 4e153 (1, 1), where F = -1.6e307;
# L is estimated on load.
NEAR_OVERFLOW = {"kind": "quadratic", "A": [[2.0, -1.0], [-1.0, 2.0]],
                 "b": [-4e153, -4e153], "lambda": 0.0}


# A 3x3 quadratic with an order-preserving A, as a person might write it,
# with tabs and CRLF line ends. A, which the C reader reads, has integer
# tokens (-0 among them, which reads as +0.0) and e and E exponents; b has
# a token of more than 19 digits and one out of the C reader's exact
# range, so json's scanner reads it. L is estimated on load.
HANDWRITTEN = (b'{\r\n\t"kind": "quadratic",\r\n\t"A": [\r\n'
               b'\t\t[2, -0.5, -0],\r\n'
               b'\t\t[-5e-1,\t3E0, -1e-1],\r\n'
               b'\t\t[0, -0.1, 4.0E+0]\r\n\t],\r\n'
               b'\t"b": [1.000000000000000000000001, -2.5E+0, 7.5e-31],\r\n'
               b'\t"lambda": 1e-1\r\n}\r\n')


def logistic_problem_json(n=200, d=20, lam=0.02, seed=0):
    """A dense l1-logistic problem, by default n=200, d=20, as a problem file."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    w = np.zeros(d)
    w[rng.choice(d, size=max(1, d // 5), replace=False)] = rng.standard_normal(max(1, d // 5))
    Y = np.where(X @ w >= 0.0, 1.0, -1.0)
    Y[rng.random(n) < 0.1] *= -1.0
    return json.dumps({"kind": "logistic", "X": X.tolist(), "Y": Y.tolist(), "lambda": lam})


def lasso_csv(n=40, d=6, seed=2):
    """Rows x_1..x_d,y under a header, every number written with repr."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    Y = X @ rng.standard_normal(d) + 0.1 * rng.standard_normal(n)
    header = ",".join([f"x_{j + 1}" for j in range(d)] + ["y"])
    rows = [",".join(map(repr, [*map(float, x), float(y)])) for x, y in zip(X, Y)]
    return "\n".join([header, *rows]) + "\n"


def extract(rev, dest):
    """Write the tree of ``rev`` into ``dest``; the repository is only read."""
    data = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                          check=True, capture_output=True).stdout
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, **safe)


def run_all(src, out):
    """Run COMMANDS with the package under ``src``, writing into ``out``."""
    out.mkdir()
    (out / "logistic.json").write_text(logistic_problem_json(), encoding="utf-8")
    (out / "logistic1d.json").write_text(logistic_problem_json(n=50, d=1, lam=0.05, seed=1),
                                         encoding="utf-8")
    (out / "diverging.json").write_text(json.dumps(DIVERGING), encoding="utf-8")
    (out / "overflow.json").write_text(json.dumps(NEAR_OVERFLOW), encoding="utf-8")
    (out / "lasso.csv").write_text(lasso_csv(), encoding="utf-8")
    (out / "verify_config.json").write_text(json.dumps(VERIFY_CONFIG), encoding="utf-8")
    (out / "handwritten.json").write_bytes(HANDWRITTEN)
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    for name, args in COMMANDS:
        done = subprocess.run([sys.executable, "-m", "l1lab.cli", *args],
                              cwd=out, env=env, capture_output=True)
        (out / f"{name}.stdout").write_bytes(done.stdout)
        (out / f"{name}.stderr").write_bytes(done.stderr)
        (out / f"{name}.status").write_text(f"{done.returncode}\n", encoding="utf-8")


def differing(a, b):
    names = sorted({p.name for p in a.iterdir()} | {p.name for p in b.iterdir()})
    return [n for n in names
            if not ((a / n).is_file() and (b / n).is_file()
                    and filecmp.cmp(a / n, b / n, shallow=False))], len(names)


def main(argv):
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python3 scripts/same_outputs.py <rev>", file=sys.stderr)
        return 2
    rev = argv[0]
    with tempfile.TemporaryDirectory(prefix="l1lab-same-outputs-") as tmp:
        tmp = Path(tmp)
        try:
            extract(rev, tmp / "rev")
        except subprocess.CalledProcessError as exc:
            print(f"cannot extract {rev}: {exc.stderr.decode(errors='replace').strip()}",
                  file=sys.stderr)
            return 2
        run_all(tmp / "rev" / "src", tmp / "out_rev")
        run_all(ROOT / "src", tmp / "out_tree")
        bad, total = differing(tmp / "out_rev", tmp / "out_tree")
    for name in bad:
        print(f"differs: {name}")
    print(f"{len(bad)} of {total} outputs differ between {rev} and the working tree")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
