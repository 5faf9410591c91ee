"""The start search against a plain rung-by-rung reference.

find_supersolution/find_subsolution classify the 41 rungs of a ray in one
kind_codes call (the numpy path), with the gradients t (A u) + b from one
product A u for a quadratic and one grad per rung otherwise; or, for a
quadratic with the compiled library, in one qray call per ray that leaves
each rung at its first coordinate of the wrong kind (the compiled path).
The reference below is the search as it reads in its documentation: one
classify_point per candidate, in order, the first hit wins. Both paths
must return its bytes.
"""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from l1lab import (
    Kind,
    StartSearchError,
    _qsweep,
    classify_point,
    find_subsolution,
    find_supersolution,
    gen_zmatrix_quadratic,
    logistic_problem,
    quadratic_problem,
    verification,
)
from l1lab.operators import KIND_BY_CODE, kind_codes

LADDER = [2.0 ** i for i in range(41)]
DENSITIES = (0.1, 0.3, 0.5, 0.7, 0.9)


def reference_search(p, seed, want, tol):
    """(start, where it was found) or (None, "none") when the search fails."""
    sign = 1.0 if want is Kind.SUPERSOLUTION else -1.0

    def hit(x):
        return classify_point(p, x, tol).kind is want

    ones = sign * np.ones(p.dim)
    for t in LADDER:
        if hit(t * ones):
            return t * ones, "ones"
    rng = np.random.default_rng(seed)
    for _ in range(20):
        u = sign * rng.random(p.dim)
        for t in LADDER:
            if hit(t * u):
                return t * u, "random"
    x = p.smooth.start_fallback(sign)
    if x is not None and hit(x):
        return x, "fallback"
    return None, "none"


def zmatrix_instances():
    for i in range(190):
        yield gen_zmatrix_quadratic(1 + i % 20, seed=i, density=DENSITIES[i % 5]), i
    for i, d in enumerate((60, 75, 90, 105, 120)):
        yield gen_zmatrix_quadratic(d, seed=1000 + i, density=DENSITIES[i]), i


def small_logistic(seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((12, 3))
    Y = np.where(rng.random(12) < 0.5, -1.0, 1.0)
    return logistic_problem(X, Y, lam=0.05)


@pytest.fixture
def searched(kernel, monkeypatch):
    """search(f, p, **kw): f(p, **kw), checking that it took the path under test.

    The numpy path classifies each ray with kind_codes; the compiled
    path, taken for quadratics only, never does.
    """
    calls = []

    def counted(*args):
        calls.append(args)
        return kind_codes(*args)

    monkeypatch.setattr(verification, "kind_codes", counted)

    def search(f, p, **kw):
        calls.clear()
        try:
            return f(p, **kw)
        finally:
            compiled = kernel == "compiled" and p.smooth.affine_gradient() is not None
            assert bool(calls) != compiled, (kernel, p.dim)

    return search


def check_same_start(searched, p, seed, tol=1e-10):
    found = []
    for want, search in ((Kind.SUPERSOLUTION, find_supersolution),
                         (Kind.SUBSOLUTION, find_subsolution)):
        ref, where = reference_search(p, seed, want, tol)
        if ref is None:
            with pytest.raises(StartSearchError):
                searched(search, p, seed=seed, tol=tol)
        else:
            x = searched(search, p, seed=seed, tol=tol)
            assert x.shape == ref.shape and x.tobytes() == ref.tobytes(), (p.dim, seed, want)
        found.append(where)
    return found


def test_start_search_matches_reference_on_zmatrix_instances(searched):
    found = []
    for p, seed in zmatrix_instances():
        found += check_same_start(searched, p, seed)
    # Every stage of the search is reached, the fallback included.
    assert {"ones", "random", "fallback"} <= set(found)


def test_start_search_matches_reference_at_other_tolerances_and_on_logistic_data(searched):
    for i in range(20):
        p = gen_zmatrix_quadratic(2 + i % 7, seed=500 + i, density=0.5)
        for tol in (0.0, 1e-3, 0.5):
            check_same_start(searched, p, i, tol)
    for seed in range(4):
        check_same_start(searched, small_logistic(seed), seed)


@pytest.mark.parametrize("d", [300, 500])
def test_start_search_matches_reference_at_large_d(searched, d):
    # No ray of these instances hits: each start classifies all 21 rays,
    # then takes the fallback solve.
    p = gen_zmatrix_quadratic(d, seed=d)
    assert check_same_start(searched, p, d) == ["fallback", "fallback"]


def test_start_search_paths_agree_where_the_ray_products_overflow(searched, monkeypatch):
    # c * 2^35 is finite and c * 2^36 overflows, so the top rungs of every ray
    # have t * (A u) = +-inf and an infinite gradient and slack. Both paths
    # take t * (A u) + b; the rung-by-rung reference takes A (t u), whose
    # infinite products sum to NaN, so it is not used.
    c = 1.6e308 / 2.0 ** 35
    problems = [quadratic_problem(c * np.array(A), b, lam=0.1) for A, b in (
        ([[2.0, -1.0], [-1.0, 2.0]], [-1.7e308, -1.7e308]),  # super at rung 36, g = inf
        ([[2.0, -1.0], [-1.0, 2.0]], [1.7e308, 1.7e308]),  # sub at rung 36, g = -inf
        ([[1.0, -2.0], [-2.0, 5.0]], [0.0, 0.0]),  # rays with g = -inf and inf
        ([[5.0, -2.0], [-2.0, 1.0]], [0.0, 0.0]),
    )]

    def outcome(search, p, seed, checked=True):
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                x = searched(search, p, seed=seed) if checked else search(p, seed=seed)
            except StartSearchError:
                return None
        return x.tobytes()

    for i, p in enumerate(problems):
        for search in (find_supersolution, find_subsolution):
            got = outcome(search, p, i)
            with monkeypatch.context() as m:
                m.setattr(_qsweep, "load", lambda: None)
                want = outcome(search, p, i, checked=False)
            assert got == want, (i, search.__name__)
    # A start is returned only when classify_point confirms its kind. On
    # instances 0 and 1 the ray hit at 2^36 does not classify (A (t u) sums
    # infinite products to NaN) and the fallback solve is not finite, so
    # the search fails there.
    for i, p in enumerate(problems):
        for search, want in ((find_supersolution, Kind.SUPERSOLUTION),
                             (find_subsolution, Kind.SUBSOLUTION)):
            found = outcome(search, p, i)
            if found is not None:
                with np.errstate(over="ignore", invalid="ignore"):
                    assert classify_point(p, np.frombuffer(found), 1e-10).kind is want, i
    assert outcome(find_supersolution, problems[0], 0) is None
    assert outcome(find_subsolution, problems[1], 1) is None


def test_start_search_paths_warn_alike_where_the_ray_products_overflow(monkeypatch):
    # The ladder warns nothing on either path; what warns is classify_point's
    # confirmation of a candidate, the same on both.
    if _qsweep.load() is None:
        pytest.skip("the compiled library cannot be built here")
    c = 1.6e308 / 2.0 ** 35
    p = quadratic_problem(c * np.array([[2.0, -1.0], [-1.0, 2.0]]), [-1.7e308, -1.7e308],
                          lam=0.1)

    def warned():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(StartSearchError):
                find_supersolution(p, seed=0)
        return [(w.category, str(w.message)) for w in caught]

    compiled = warned()
    monkeypatch.setattr(_qsweep, "load", lambda: None)
    assert compiled and warned() == compiled


def test_qray_is_the_batched_classification_of_each_rung():
    # qray on its own, against kind_codes of the rungs t * u with the
    # gradients t * a + b: random signs, zeros, infinities and NaNs in u, a
    # and b (which no finite quadratic makes), at several lam and tol. p is a
    # stand-in with the dim and lam that kind_codes reads, as ProblemSpec
    # rejects the infinite lam that qray is still checked at.
    lib = _qsweep.load()
    if lib is None:
        pytest.skip("the compiled library cannot be built here")
    rng = np.random.default_rng(0)
    ts = np.array(LADDER)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300])
    hits = set()
    for trial in range(3000):
        u, a, b = rng.standard_normal((3, 4)) * 10.0 ** rng.integers(-3, 4, (3, 4))
        for v in (u, a, b):
            mask = rng.random(4) < 0.1
            v[mask] = rng.choice(special, mask.sum())
        lam = float(rng.choice([0.0, 0.5, 3.0, np.inf]))
        tol = float(rng.choice([0.0, 1e-3, 0.5, np.inf]))
        p = SimpleNamespace(dim=4, lam=lam)
        with np.errstate(all="ignore"):
            points = np.multiply.outer(ts, u)
            grads = np.multiply.outer(ts, a) + b
            codes = kind_codes(p, points, grads, tol).tolist()
        for sign, want in ((1.0, Kind.SUPERSOLUTION), (-1.0, Kind.SUBSOLUTION)):
            first = next((r for r, c in enumerate(codes) if KIND_BY_CODE[c] is want), -1)
            got = lib.qray(4, len(ts), ts.ctypes.data, u.ctypes.data, a.ctypes.data,
                           b.ctypes.data, lam, tol, sign)
            assert got == first, (trial, u, a, b, lam, tol, want)
            hits.add(first >= 0)
    assert hits == {True, False}


@pytest.mark.parametrize("d", [5, 33, 128, 500])
def test_affine_ladder_rows_are_bitwise_grad_at_each_rung(d):
    # The numpy path's gradients along a ray: with a = A u formed once, the
    # rows t a + b of every power-of-two rung t are bitwise grad(t u), also
    # for the blocked BLAS products of larger matrices.
    smooth = gen_zmatrix_quadratic(d, seed=d).smooth
    A, b = smooth.affine_gradient()
    ladder = verification._LADDER
    assert ladder.tolist() == LADDER
    rng = np.random.default_rng(d)
    a = np.empty(d)
    for u in (np.ones(d), -np.ones(d), rng.random(d), -rng.random(d), rng.standard_normal(d)):
        np.matmul(A, u, out=a)
        rows = np.multiply.outer(ladder, a) + b
        for t, row in zip(ladder, rows):
            assert row.tobytes() == smooth.grad(t * u).tobytes(), (d, t)
