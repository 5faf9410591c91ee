"""The start search against a plain rung-by-rung reference.

find_supersolution/find_subsolution take 21 rays, the all-ones direction
and 20 seeded random ones (one 20 x d draw), and classify the 41 rungs of
a ray in one kind_codes call (the numpy path), with the gradients
t (A u) + b from one product A u for a quadratic and one grad per rung
otherwise; or, for a quadratic whose steps run in C (the compiled library
and numpy's dgemv), walk the rays in one qrays call, which forms each A u
by dgemv and leaves each rung at its first coordinate of the wrong kind
(the compiled path). A hit that classify_point does not confirm sends
either path on to the next ray. The reference below is the search as it
reads in its documentation: one classify_point per candidate, in order,
the first hit wins. Both paths must return its bytes.
"""

import ctypes
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
from tests.conftest import acceptance_instance

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
    # The acceptance suite's instances (seeds 0-49) and the benchmark's
    # verify_small mix (50-149), each searched with its own seed.
    for seed in range(150):
        yield acceptance_instance(seed), seed


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


def test_a_rejected_hit_resumes_the_search_at_the_next_ray(searched, monkeypatch):
    # The all-ones ray's products overflow at its hit, rung 2^37: t * (A u)
    # + b classifies as a subsolution, but A (t u) sums infinite products
    # to NaN, so classify_point rejects the candidate and the search goes
    # on to the seeded rays, where a hit is confirmed. Both paths take the
    # same candidates in the same order.
    c = 1.6e308 / 2.0 ** 35 * 0.3738466956991606
    p = quadratic_problem(c * np.array([[2.0, -0.7571983028406913], [-0.7571983028406913, 2.0]]),
                          [1.0694838576175056e+308, 1.5761627402153746e+308], lam=0.1)
    confirmations = []

    def counted(p, x, tol=1e-10):
        confirmations.append(x.tobytes())
        return classify_point(p, x, tol)

    monkeypatch.setattr(verification, "classify_point", counted)

    def candidates(seed):
        confirmations.clear()
        with np.errstate(over="ignore", invalid="ignore"):
            x = searched(find_subsolution, p, seed=seed)
        return x, list(confirmations)

    for seed, rejected in ((15, 1), (1, 2), (3, 4)):
        x, tried = candidates(seed)
        assert tried[0] == (-2.0 ** 37 * np.ones(2)).tobytes(), seed
        assert len(tried) == rejected + 1 and tried[-1] == x.tobytes(), seed
        rays = -np.random.default_rng(seed).random((20, 2))
        assert any((x / row == x[0] / row[0]).all() for row in rays), seed
        with np.errstate(over="ignore", invalid="ignore"):
            assert classify_point(p, x, 1e-10).kind is Kind.SUBSOLUTION
        with monkeypatch.context() as m:
            m.setattr(_qsweep, "load", lambda: None)
            confirmations.clear()
            with np.errstate(over="ignore", invalid="ignore"):
                assert find_subsolution(p, seed=seed).tobytes() == x.tobytes()
            assert confirmations == tried, seed


def test_qrays_is_the_batched_classification_of_each_rung():
    # qrays on its own, against kind_codes of the rungs t * u of each ray
    # with the gradients t * a + b: random signs, zeros, infinities and NaNs
    # in u, a and b (which no finite quadratic makes), at several lam and
    # tol. Each of 3000 trials draws its own b, lam and tol and three rays,
    # and walks each ray alone and all three; the first 500 trials walk
    # every span r0..r1 too. The products a come from a stand-in dgemv,
    # which also checks that it is called as numpy's matmul calls it, once
    # per ray walked, in order. p is a stand-in with the dim and lam that
    # kind_codes reads, as ProblemSpec rejects the infinite lam that qrays
    # is still checked at.
    lib = _qsweep.load()
    if lib is None:
        pytest.skip("the compiled library cannot be built here")
    rng = np.random.default_rng(0)
    ts = np.array(LADDER)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300])
    d, nu = 4, 3
    A, scratch = np.zeros((d, d)), np.empty(d)
    hits = set()
    every_span = [(r0, r1) for r0 in range(nu + 1) for r1 in range(r0, nu + 1)]
    some_spans = [(r, r + 1) for r in range(nu)] + [(0, nu)]
    for trial in range(3000):
        U, products = (rng.standard_normal((nu, d)) * 10.0 ** rng.integers(-3, 4, (nu, d))
                       for _ in range(2))
        b = rng.standard_normal(d) * 10.0 ** rng.integers(-3, 4, d)
        for v in (U, products, b):
            mask = rng.random(v.shape) < 0.1
            v[mask] = rng.choice(special, mask.sum())
        lam = float(rng.choice([0.0, 0.5, 3.0, np.inf]))
        tol = float(rng.choice([0.0, 1e-3, 0.5, np.inf]))
        p = SimpleNamespace(dim=d, lam=lam)
        walked = []

        def dgemv(order, trans, m, n, alpha, a_at, lda, x_at, incx, beta, y_at, incy):
            r = (x_at - U.ctypes.data) // (8 * d)
            assert (order, trans, m, n, alpha, a_at, lda, x_at, incx, beta, y_at, incy) == (
                102, 112, d, d, 1.0, A.ctypes.data, d, U[r].ctypes.data, 1, 0.0,
                scratch.ctypes.data, 1)
            walked.append(r)
            ctypes.memmove(y_at, products[r].ctypes.data, 8 * d)

        callback = _qsweep.DGEMV(dgemv)

        with np.errstate(all="ignore"):
            codes = [kind_codes(p, np.multiply.outer(ts, u), np.multiply.outer(ts, a) + b,
                                tol).tolist() for u, a in zip(U, products)]
        for sign, want in ((1.0, Kind.SUPERSOLUTION), (-1.0, Kind.SUBSOLUTION)):
            for r0, r1 in every_span if trial < 500 else some_spans:
                first = next((r * len(ts) + k for r in range(r0, r1)
                              for k, c in enumerate(codes[r]) if KIND_BY_CODE[c] is want), -1)
                walked.clear()
                got = lib.qrays(callback, d, A.ctypes.data, b.ctypes.data, lam,
                                tol, sign, len(ts), ts.ctypes.data, U.ctypes.data, r0, r1,
                                scratch.ctypes.data)
                assert got == first, (trial, r0, r1, want)
                assert walked == list(range(r0, r1 if got < 0 else got // len(ts) + 1))
                hits.add(got >= 0)
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
