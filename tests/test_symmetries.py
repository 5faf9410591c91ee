"""Exact symmetries of the comparison, checked at zero tolerance.

Negation is exact in floating point, and so is scaling by a power of two
short of overflow and subnormals. Two transformed instances therefore give
runs that follow bit for bit from the original's:

* mirror: (A, -b, lam, L) from -x0 negates every iterate and x*, keeps
  every F, every flag and the verdict, and swaps super- and subsolution;
* scaling: (2^m A, 2^m b, 2^m lam, 2^m L) from x0 keeps every iterate and
  x*, and multiplies every F by 2^m.

Each relation runs through run_comparison on both kernels, from both
starts. The relation (A, 2^m b, 2^m lam) from 2^m x0 is not checked: the
reference solve's absolute stopping tolerances break it at m = 20.
"""

import numpy as np
import pytest

from l1lab import (
    Kind,
    find_subsolution,
    find_supersolution,
    gen_zmatrix_quadratic,
    quadratic_problem,
    run_comparison,
)
from l1lab.operators import KIND_BY_CODE
from l1lab.verification import PREDICATES

K = 200
SEEDS = (0, 7, 13, 26, 44)

# Each kind's mirror image: super- and subsolution swap, the others stay.
MIRROR = {Kind.SUPERSOLUTION: Kind.SUBSOLUTION, Kind.SUBSOLUTION: Kind.SUPERSOLUTION}
MIRROR_CODE = np.array([KIND_BY_CODE.index(MIRROR.get(kind, kind)) for kind in KIND_BY_CODE],
                       dtype=np.int8)


def instance(seed):
    """The acceptance suite's instance of ``seed``."""
    d = 2 + (seed % 19)
    return gen_zmatrix_quadratic(d, seed=seed, density=(0.1, 0.3, 0.5, 0.7, 0.9)[seed % 5])


def start(p, seed, side):
    return (find_supersolution if side == "super" else find_subsolution)(p, seed=seed)


def transformed(A, b, lam, L):
    q = quadratic_problem(A, b, lam, lipschitz=L)
    assert q.lipschitz == L
    return q


@pytest.mark.parametrize("side", ["super", "sub"])
@pytest.mark.parametrize("seed", SEEDS)
def test_mirrored_instance_negates_the_run(kernel, seed, side):
    p = instance(seed)
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
    p = instance(seed)
    x0 = start(p, seed, side)
    want = run_comparison(p, x0, K)
    s = 2.0 ** m
    q = transformed(s * p.smooth.A, s * p.smooth.b, s * p.lam, s * p.lipschitz)
    got = run_comparison(q, x0, K)

    for alg, trace in want.traces.items():
        assert got.traces[alg].iterates.tobytes() == trace.iterates.tobytes(), alg
    assert got.reference.x_star.tobytes() == want.reference.x_star.tobytes()
    assert got.f_values.tobytes() == (s * want.f_values).tobytes()
