"""Exact symmetries of the comparison, checked at zero tolerance.

Negation is exact in floating point, and so is scaling by a power of two
short of overflow and subnormals. Two transformed instances therefore give
runs that follow bit for bit from the original's:

* mirror: (A, -b, lam, L) from -x0 negates every iterate and x*, keeps
  every F, every flag and the verdict, and swaps super- and subsolution;
* scaling: (2^m A, 2^m b, 2^m lam, 2^m L) from x0 keeps every iterate and
  x*, and multiplies every F by 2^m;
* scaling the point: (A, 2^m b, 2^m lam, L) from 2^m x0 multiplies every
  iterate and x* by 2^m and every F by 2^(2m).

The first two run through run_comparison on both kernels, from both
starts, and on drawn instances and exponents m. The mirror also runs
through ``l1lab verify``, whose start search mirrors too, comparing the
files it writes. The third runs through run() and reference_minimizer on
all 50 acceptance instances, where it holds at m = -20. At m = 20 the
iterates still relate, but the reference solve stops at absolute
tolerances (a residual of 1e-12 to stop, 1e-10 to accept), which do not
scale with x*: what it gives there is pinned as measured.
"""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from l1lab import (
    Kind,
    ReferenceSolveError,
    SolverConfig,
    find_subsolution,
    find_supersolution,
    quadratic_problem,
    reference_minimizer,
    run,
    run_comparison,
    save_problem,
)
from l1lab.cli import main as cli_main
from l1lab.operators import KIND_BY_CODE
from l1lab.verification import PREDICATES
from tests.conftest import acceptance_instance

K = 200
SEEDS = (0, 7, 13, 26, 44)

# At m = 20, the instances whose scaled reference solve raises within 3000
# sweeps (its final residual stays above 1e-10), and those whose scaled x*
# is bitwise 2^m x*.
POINT_SCALED_RAISES = (0, 6, 15, 28, 40, 43, 46)
POINT_SCALED_X_STAR = (2, 3, 8, 19, 22, 24, 25, 30, 33, 38, 39, 41, 45, 47)

# Each kind's mirror image: super- and subsolution swap, the others stay.
MIRROR = {Kind.SUPERSOLUTION: Kind.SUBSOLUTION, Kind.SUBSOLUTION: Kind.SUPERSOLUTION}
MIRROR_CODE = np.array([KIND_BY_CODE.index(MIRROR.get(kind, kind)) for kind in KIND_BY_CODE],
                       dtype=np.int8)


def start(p, seed, side):
    return (find_supersolution if side == "super" else find_subsolution)(p, seed=seed)


def transformed(A, b, lam, L):
    q = quadratic_problem(A, b, lam, lipschitz=L)
    assert q.lipschitz == L
    return q


@pytest.mark.parametrize("m", [-20, 20])
def test_scaled_point_scales_the_iterates_and_x_star(kernel, m):
    # max_sweeps=3000: an instance whose reference solve cannot meet its
    # absolute tolerances would sweep for the default 10**6.
    s, cfg = 2.0 ** m, SolverConfig(max_outer_iters=50)
    raises, x_star = [], []
    for seed in range(50):
        p = acceptance_instance(seed)
        q = transformed(p.smooth.A, s * p.smooth.b, s * p.lam, p.lipschitz)
        for x0 in (find_supersolution(p, seed=seed), find_subsolution(p, seed=seed)):
            for alg in ("gd", "ccd", "ccm"):
                want, got = run(alg, p, x0, cfg), run(alg, q, s * x0, cfg)
                assert got.iterates.tobytes() == (s * want.iterates).tobytes(), (seed, alg)
                assert np.array(got.f_values).tobytes() == \
                    (s * s * np.array(want.f_values)).tobytes(), (seed, alg)
        want = reference_minimizer(p)
        try:
            got = reference_minimizer(q, max_sweeps=3000)
        except ReferenceSolveError:
            raises.append(seed)
            continue
        if got.x_star.tobytes() == (s * want.x_star).tobytes():
            x_star.append(seed)
            assert got.f_star == s * s * want.f_star, seed
    print(f"\nm = {m}: all 100 runs relate; the reference solve raises on {len(raises)} of 50 "
          f"instances, and x* relates on {len(x_star)} of the other {50 - len(raises)}")
    if m < 0:
        assert not raises and len(x_star) == 50
    else:
        assert tuple(raises) == POINT_SCALED_RAISES
        assert tuple(x_star) == POINT_SCALED_X_STAR


@pytest.mark.parametrize("side", ["super", "sub"])
@pytest.mark.parametrize("seed", SEEDS)
def test_mirrored_instance_negates_the_run(kernel, seed, side):
    p = acceptance_instance(seed)
    x0 = start(p, seed, side)
    want = run_comparison(p, x0, K)
    q = transformed(p.smooth.A, -p.smooth.b, p.lam, p.lipschitz)
    got = run_comparison(q, -x0, K)

    assert got.start.kind is MIRROR[want.start.kind]
    assert got.f_values.tobytes() == want.f_values.tobytes()
    for name in PREDICATES:
        assert np.array_equal(got.flags[name], want.flags[name]), name
    assert got.verdict == want.verdict
    assert np.array_equal(got.kinds, MIRROR_CODE[want.kinds])
    # ccd's and ccm's dead zone writes +0.0 on either side, so the
    # negation holds up to the sign of zero.
    for alg, trace in want.traces.items():
        assert np.array_equal(got.traces[alg].iterates, -trace.iterates), alg
    assert np.array_equal(got.reference.x_star, -want.reference.x_star)


@pytest.mark.parametrize("m", [-20, 20])
@pytest.mark.parametrize("side", ["super", "sub"])
@pytest.mark.parametrize("seed", SEEDS)
def test_scaled_instance_keeps_the_iterates(kernel, seed, side, m):
    p = acceptance_instance(seed)
    x0 = start(p, seed, side)
    want = run_comparison(p, x0, K)
    s = 2.0 ** m
    q = transformed(s * p.smooth.A, s * p.smooth.b, s * p.lam, s * p.lipschitz)
    got = run_comparison(q, x0, K)

    for alg, trace in want.traces.items():
        assert got.traces[alg].iterates.tobytes() == trace.iterates.tobytes(), alg
    assert got.reference.x_star.tobytes() == want.reference.x_star.tobytes()
    assert got.f_values.tobytes() == (s * want.f_values).tobytes()


def verify_files(tmp_path, name, p, side, seed, capsys):
    """``l1lab verify`` on p from its ``side`` start: the exit status, the
    F*= part of its output, the summary CSV's bytes and the report JSON."""
    problem, report, summary = (tmp_path / f"{name}.{ext}" for ext in ("json", "report", "csv"))
    save_problem(p, problem)
    code = cli_main(["verify", "--problem", str(problem), "--start", side, "--seed", str(seed),
                     "--report", str(report), "--summary", str(summary)])
    f_star = re.search(r"F\*=.*", capsys.readouterr().out)[0]
    return code, f_star, summary.read_bytes(), json.loads(report.read_text())


@pytest.mark.parametrize("seed", [0, 3, 7, 11, 20, 33, 48])
def test_verify_on_the_mirrored_instance_mirrors_the_files(tmp_path, capsys, seed):
    p = acceptance_instance(seed)
    q = transformed(p.smooth.A, -p.smooth.b, p.lam, p.lipschitz)
    code, f_star, summary, want = verify_files(tmp_path, "p", p, "super", seed, capsys)
    got_code, got_f_star, got_summary, got = verify_files(tmp_path, "q", q, "sub", seed, capsys)

    assert (code, got_code) == (0, 0)
    assert got_summary == summary and got_f_star == f_star
    names = {kind.value: MIRROR.get(kind, kind).value for kind in KIND_BY_CODE}
    assert got["start_kind"] == names[want["start_kind"]]
    for record in want["per_iteration"]:
        record["classes"] = [names[c] for c in record["classes"]]
    # As numbers: the dead zone writes +0.0 on both sides.
    x_star = got["reference"].pop("x_star")
    assert x_star == [-v for v in want["reference"].pop("x_star")]
    want["start_kind"] = got["start_kind"]
    assert got == want


@settings(derandomize=True, max_examples=25, deadline=None)
@given(seed=st.integers(0, 49), side=st.sampled_from(["super", "sub"]),
       m=st.one_of(st.integers(-40, -1), st.integers(1, 40)))
def test_drawn_instances_keep_the_mirror_and_the_scaling(seed, side, m):
    # report_only: the start's classification tolerance tol (1 + |x0|_inf)
    # does not scale with the slack, so for m <= -25 it can call the start
    # exact on the scaled instance, and the precondition would refuse it.
    p = acceptance_instance(seed)
    x0 = start(p, seed, side)
    want = run_comparison(p, x0, 30, report_only=True)
    A, b, lam, L = p.smooth.A, p.smooth.b, p.lam, p.lipschitz

    mirror = run_comparison(transformed(A, -b, lam, L), -x0, 30, report_only=True)
    for alg, trace in want.traces.items():
        assert np.array_equal(mirror.traces[alg].iterates, -trace.iterates), alg
    assert np.array_equal(mirror.reference.x_star, -want.reference.x_star)
    assert mirror.f_values.tobytes() == want.f_values.tobytes()
    for name in PREDICATES:
        assert np.array_equal(mirror.flags[name], want.flags[name]), name

    s = 2.0 ** m
    scaled = run_comparison(transformed(s * A, s * b, s * lam, s * L), x0, 30, report_only=True)
    for alg, trace in want.traces.items():
        assert scaled.traces[alg].iterates.tobytes() == trace.iterates.tobytes(), alg
    assert scaled.reference.x_star.tobytes() == want.reference.x_star.tobytes()
    assert scaled.f_values.tobytes() == (s * want.f_values).tobytes()
