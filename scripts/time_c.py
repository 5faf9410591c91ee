#!/usr/bin/env python3
"""Time the compiled library of a git revision against the working tree's.

    python3 scripts/time_c.py <rev> [--reps N]

Builds src/l1lab/_qsweep.c of <rev> and of the working tree, each with the
working tree's flags (_qsweep.FLAGS), into two temporary libraries, loads
both into this one process and times them in turn, the order alternating
from one repetition to the next:

- ``qblock``, the K iterations of a run with each next product A w formed
  through numpy's own dgemv, in one call as run() makes them without a
  stop rule, for ccd and gd at d=11, K=200 and for ccd and ccm at d=300
  and d=500, K=50;
- ``render_floats`` on the 51 x 500 iterates of a K=50 ccd run, in both
  spellings (repr and '%.17g');
- ``parse_floats`` on the X block of a dense logistic problem file,
  n=2000, d=50, as save_problem writes it;
- ``qextremes`` on the stacked iterates and gradients of gd, ccd and ccm
  runs: 3 x 201 rows at d=12 (a verify_small comparison, K=200) and
  3 x 51 rows at d=500 (K=50);
- ``qrays`` on the 21 rays of a start search at d=500 whose rays all
  fail, so that each call walks all 21.

Both sources must define every function of the working tree's ABI
(``_qsweep.PROTOTYPES``) with the same parameter list, except that
``qextremes`` and ``qrays`` (OPTIONAL) may be missing from <rev>, a
revision from before they were added; their cases are then left out.
Each library is loaded by ``_qsweep._open``, with the prototypes the
package declares for the functions it has. Without numpy's dgemv
(_qsweep.dgemv() is None) the ``qblock`` and ``qrays`` cases are left out.

First it prints which build of the sweep's row update each library runs
on this CPU (``qaxpy(-1, ...)``: the baseline or the AVX2 twin). Each line
then gives the median time per call of each library over the repetitions
and their ratio. A change of code layout in the C file can move the sweep
by tens of percent and still show as only a few percent of an end-to-end
run, so C changes are timed here first. The two libraries must give
bitwise-equal outputs on every call timed.

The exit status is 1 when the outputs differ, 2 when <rev> has no
_qsweep.c, a library cannot be built or loaded, or a function that both
sources define takes other arguments in <rev> than in the working tree,
or <rev> lacks a function that is not OPTIONAL; 0 otherwise.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from l1lab import (SolverConfig, _qsweep, find_supersolution, gen_zmatrix_quadratic,  # noqa: E402
                   logistic_problem, run, save_problem)
from l1lab.verification import _LADDER  # noqa: E402

C_PATH = "src/l1lab/_qsweep.c"

# The exports that <rev> may lack: its cases are then left out.
OPTIONAL = frozenset({"qextremes", "qrays"})


def prototype(source: str, name: str) -> str:
    """The parameter list of the C function ``name`` in ``source``, spaces collapsed."""
    match = re.search(rf"\b{name}\s*\(([^)]*)\)\s*{{", source)
    return " ".join(match.group(1).split()) if match else ""


class Library:
    """One build of _qsweep.c, loaded as the package loads its own."""

    def __init__(self, label: str, source: str, directory: Path, functions):
        self.label = label
        c_file = directory / f"{label}.c"
        c_file.write_text(source, encoding="utf-8")
        so = directory / f"{label}.so"
        done = subprocess.run(["cc", *_qsweep.FLAGS, "-o", str(so), str(c_file)],
                              capture_output=True, text=True)
        if done.returncode != 0:
            raise RuntimeError(f"cannot build {label}: {done.stderr.strip()}")
        self.lib = _qsweep._open(so, functions)  # with the prototypes the package declares
        if self.lib is None:
            raise RuntimeError(f"cannot load {label}")
        probe = np.zeros(1)
        self.row_update = ("baseline", "avx2")[self.lib.qaxpy(-1, 0, 0.0, probe.ctypes.data,
                                                              probe.ctypes.data)]

    def render(self, block: np.ndarray, repr_: bool, sep: bytes):
        """(text, holes) of render_floats on ``block``, its rows joined by ``sep`` too."""
        n = block.size
        out = ctypes.create_string_buffer(n * (24 + len(sep)) + 64)
        holes = (ctypes.c_long * (2 * n + 1))()
        data = block.tobytes()
        size = self.lib.render_floats(n, data, repr_, sep, len(sep), block.shape[-1], sep,
                                      len(sep), out, holes)
        return ctypes.string_at(out, size), holes[:1 + 2 * holes[0]]

    def parse(self, text: bytes, start: int):
        """(end, info, values) of parse_floats on the array at ``start``."""
        cap = (len(text) - start) // 2 + 1
        out, info = np.empty(cap), (ctypes.c_long * 3)()
        end = self.lib.parse_floats(text, len(text), start, cap, out.ctypes.data, info)
        return end, info[:], out[:info[1] * max(info[2], 1)].tobytes()


class BlockCase:
    """K iterations of one algorithm on a quadratic of dimension d, from
    W[0] = x0 and P[0] = A x0, into row buffers W and P."""

    def __init__(self, alg: str, d: int, K: int, dgemv):
        p = gen_zmatrix_quadratic(d, seed=1)
        self.A, self.b = p.smooth.affine_gradient()
        self.d, self.K, self.lam, self.L, self.dgemv = d, K, p.lam, p.lipschitz, dgemv
        self.steps = {"gd": None, "ccd": np.full(d, p.lipschitz),
                      "ccm": np.ascontiguousarray(self.A.diagonal())}[alg]
        self.state = np.empty(d)
        self.W, self.P = np.empty((K + 1, d)), np.empty((K + 1, d))
        self.W[0] = find_supersolution(p, seed=1)
        self.P[0] = self.A @ self.W[0]

    def __call__(self, lib: Library) -> bytes:
        A, W, P, d = self.A, self.W, self.P, self.d
        a_at, b_at, state_at = A.ctypes.data, self.b.ctypes.data, self.state.ctypes.data
        steps = None if self.steps is None else self.steps.ctypes.data
        lib.lib.qblock(self.dgemv, d, a_at, b_at, steps, self.lam, self.L, state_at,
                       W.ctypes.data, P.ctypes.data, 0, self.K)
        return W.tobytes() + P.tobytes()


def run_stacks(d: int, K: int):
    """(X, G): the iterates and gradients of gd, ccd and ccm runs of K
    iterations from a supersolution, stacked as run_comparison stacks them."""
    p = gen_zmatrix_quadratic(d, seed=1)
    x0 = find_supersolution(p, seed=1)
    traces = [run(alg, p, x0, SolverConfig(max_outer_iters=K)) for alg in ("gd", "ccd", "ccm")]
    X = np.stack([t.iterates for t in traces]).reshape(-1, d)
    G = np.stack([t.gradients for t in traces]).reshape(-1, d)
    return p.lam, X, G


class ExtremesCase:
    """qextremes on the rows of X and G."""

    def __init__(self, d: int, K: int):
        self.lam, self.X, self.G = run_stacks(d, K)
        self.out = np.empty((3, len(self.X)))

    def __call__(self, lib: Library) -> bytes:
        (m, d), out = self.X.shape, self.out
        lib.lib.qextremes(m, d, self.X.ctypes.data, self.G.ctypes.data, self.lam,
                          out[0].ctypes.data, out[1].ctypes.data, out[2].ctypes.data)
        return out.tobytes()


class RaysCase:
    """qrays over the 21 rays of a supersolution search, from ray 0."""

    def __init__(self, d: int, dgemv):
        p = gen_zmatrix_quadratic(d, seed=d)
        self.A, self.b = p.smooth.affine_gradient()
        self.d, self.lam, self.dgemv = d, p.lam, dgemv
        self.U = np.empty((21, d))
        self.U[0] = 1.0
        np.random.default_rng(d).random(out=self.U[1:])
        self.a = np.empty(d)

    def __call__(self, lib: Library):
        hit = lib.lib.qrays(self.dgemv, self.d, self.A.ctypes.data, self.b.ctypes.data,
                            self.lam, 1e-10, 1.0, len(_LADDER), _LADDER.ctypes.data,
                            self.U.ctypes.data, 0, len(self.U), self.a.ctypes.data)
        return hit, self.a.tobytes()


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("rev")
    parser.add_argument("--reps", type=int, default=15, help="repetitions (default 15)")
    args = parser.parse_args(argv)
    if shutil.which("cc") is None:
        print("no cc on PATH", file=sys.stderr)
        return 2
    shown = subprocess.run(["git", "-C", str(ROOT), "show", f"{args.rev}:{C_PATH}"],
                           capture_output=True, text=True)
    if shown.returncode != 0:
        print(f"cannot read {C_PATH} of {args.rev}: {shown.stderr.strip()}", file=sys.stderr)
        return 2
    sources = {args.rev: shown.stdout, "tree": (ROOT / C_PATH).read_text(encoding="utf-8")}
    shared = []
    for name in _qsweep.PROTOTYPES:
        if not prototype(shown.stdout, name) and name in OPTIONAL:
            print(f"{args.rev} has no {name}: its cases are left out", file=sys.stderr)
        elif len({prototype(s, name) for s in sources.values()}) != 1:
            print(f"{name} of {args.rev} is missing or takes other arguments than the "
                  "working tree's", file=sys.stderr)
            return 2
        else:
            shared.append(name)

    with tempfile.TemporaryDirectory(prefix="l1lab-time-c-") as tmp:
        try:
            libs = [Library(label, source, Path(tmp), shared)
                    for label, source in zip(("rev", "tree"), sources.values())]
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 2

        cases = {}  # name -> (calls per timing, call of a library, its comparable output)
        dgemv = _qsweep.dgemv()
        if dgemv is None:
            print("numpy's dgemv cannot be had: the qblock and qrays cases are left out",
                  file=sys.stderr)
        if "qextremes" in shared:
            for d, K, calls in ((12, 200, 200), (500, 50, 20)):
                extremes_case = ExtremesCase(d, K)
                cases[f"qextremes 3x{K + 1}x{d}"] = (calls, extremes_case, extremes_case)
        if "qrays" in shared and dgemv is not None:
            rays_case = RaysCase(500, dgemv)
            cases["qrays 21 rays d=500"] = (5, rays_case, rays_case)
        if dgemv is not None:
            for alg, d, K, calls in (("ccd", 11, 200, 50), ("gd", 11, 200, 50),
                                     ("ccd", 300, 50, 4), ("ccd", 500, 50, 2),
                                     ("ccm", 300, 50, 4), ("ccm", 500, 50, 2)):
                block_case = BlockCase(alg, d, K, dgemv)
                cases[f"qblock {alg} d={d} K={K}"] = (calls, block_case, block_case)
        p = gen_zmatrix_quadratic(500, seed=1)
        block = run("ccd", p, find_supersolution(p, seed=1), SolverConfig(max_outer_iters=50)) \
            .iterates
        for spelling, repr_ in (("repr", True), ("%.17g", False)):
            def render(lib, repr_=repr_):
                return lib.render(block, repr_, b",")

            cases[f"render_floats 51x500 {spelling}"] = (20, render, render)

        rng = np.random.default_rng(1)
        X = rng.standard_normal((2000, 50))
        q = logistic_problem(X, np.where(X[:, 0] >= 0.0, 1.0, -1.0), 0.01, 1.0)
        save_problem(q, Path(tmp, "logistic.json"))
        problem_text = Path(tmp, "logistic.json").read_bytes()
        x_start = problem_text.index(b"[")  # X, the first array of the file

        def parse(lib):
            return lib.parse(problem_text, x_start)

        cases["parse_floats 2000x50 X"] = (5, parse, parse)

        differ = [name for name, (_, _, output) in cases.items()
                  if output(libs[0]) != output(libs[1])]
        for name in differ:
            print(f"differs: {name}")

        for label, lib in zip((args.rev, "tree"), libs):
            print(f"row update of {label}: {lib.row_update}")
        print(f"{'case':<28} {args.rev + ' us':>12} {'tree us':>12} {'tree/rev':>9}")
        for name, (calls, call, _) in cases.items():
            times = {lib.label: [] for lib in libs}
            for rep in range(args.reps):
                for lib in libs if rep % 2 == 0 else libs[::-1]:
                    start = perf_counter()
                    for _ in range(calls):
                        call(lib)
                    times[lib.label].append((perf_counter() - start) / calls * 1e6)
            old, new = (statistics.median(times[label]) for label in ("rev", "tree"))
            print(f"{name:<28} {old:>12.1f} {new:>12.1f} {new / old:>9.3f}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
