"""The batched start search against a plain rung-by-rung reference.

find_supersolution/find_subsolution classify the 41 rungs of a ray from
one ray_grads and one batched classification. The reference below is the
search as it reads in its documentation: one classify_point per candidate,
in order, the first hit wins. Both must return the same bytes.
"""

import numpy as np
import pytest

from l1lab import (
    Kind,
    StartSearchError,
    classify_point,
    find_subsolution,
    find_supersolution,
    gen_zmatrix_quadratic,
    logistic_problem,
)

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


def check_same_start(p, seed, tol=1e-10):
    found = []
    for want, search in ((Kind.SUPERSOLUTION, find_supersolution),
                         (Kind.SUBSOLUTION, find_subsolution)):
        ref, where = reference_search(p, seed, want, tol)
        if ref is None:
            with pytest.raises(StartSearchError):
                search(p, seed=seed, tol=tol)
        else:
            x = search(p, seed=seed, tol=tol)
            assert x.shape == ref.shape and x.tobytes() == ref.tobytes(), (p.dim, seed, want)
        found.append(where)
    return found


def test_start_search_matches_rung_by_rung_reference_on_zmatrix_instances():
    found = []
    for p, seed in zmatrix_instances():
        found += check_same_start(p, seed)
    # Every stage of the search is reached, the fallback included.
    assert {"ones", "random", "fallback"} <= set(found)


def test_start_search_matches_reference_at_other_tolerances_and_on_logistic_data():
    for i in range(20):
        p = gen_zmatrix_quadratic(2 + i % 7, seed=500 + i, density=0.5)
        for tol in (0.0, 1e-3, 0.5):
            check_same_start(p, i, tol)
    for seed in range(4):
        check_same_start(small_logistic(seed), seed)
