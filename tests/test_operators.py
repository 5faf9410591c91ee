import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from l1lab import (
    Kind,
    PreconditionError,
    check_isotonicity_quadratic,
    check_isotonicity_sampled,
    classify_point,
    classify_scale_sweep,
    gen_zmatrix_quadratic,
    logistic_problem,
    optimality_residual,
    prox_gradient_map,
    quadratic_problem,
    scalar_shrink,
    shrink_tau_curve,
    vector_shrink,
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------------
# shrinkage
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "a,tau,expected",
    [(2.0, 1.0, 1.0), (0.5, 1.0, 0.0), (-2.0, 1.0, -1.0), (1.0, 1.0, 0.0), (-1.0, 1.0, 0.0)],
)
def test_scalar_shrink_cases(a, tau, expected):
    assert scalar_shrink(a, tau) == expected


def test_scalar_shrink_rejects_nonpositive_tau():
    with pytest.raises(ValueError):
        scalar_shrink(1.0, 0.0)
    with pytest.raises(ValueError):
        vector_shrink([1.0], -1.0)


def test_vector_shrink_componentwise():
    np.testing.assert_allclose(vector_shrink([2.0, 0.5, -2.0], 1.0), [1.0, 0.0, -1.0])
    np.testing.assert_allclose(vector_shrink([0.0, 0.0], 0.3), [0.0, 0.0])
    hi = vector_shrink([1.0, 2.0], 0.7)
    lo = vector_shrink([0.0, 1.0], 0.7)
    assert np.all(hi >= lo)


@given(finite, finite, st.sampled_from([0.1, 1.0, 10.0]))
@settings(max_examples=300)
def test_shrink_isotone(a, b, tau):
    hi, lo = max(a, b), min(a, b)
    assert scalar_shrink(hi, tau) >= scalar_shrink(lo, tau)


@given(finite, finite, st.sampled_from([0.1, 1.0, 10.0]))
@settings(max_examples=300)
def test_shrink_nonexpansive(a, b, tau):
    gap = abs(scalar_shrink(a, tau) - scalar_shrink(b, tau))
    assert gap <= abs(a - b) + 1e-9 * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# prox-gradient map and residual
# ---------------------------------------------------------------------------

def test_prox_gradient_map_unregularized(scalar_quad):
    p = quadratic_problem([[1.0]], [0.0], lam=0.0, lipschitz=1.0)
    assert prox_gradient_map(p, [3.0])[0] == 0.0


def test_prox_gradient_map_shifted(shifted_scalar_quad):
    assert prox_gradient_map(shifted_scalar_quad, [0.0])[0] == 3.0
    assert prox_gradient_map(shifted_scalar_quad, [3.0])[0] == 3.0  # fixed point


def test_optimality_residual_examples(scalar_quad):
    assert optimality_residual(scalar_quad, [0.0]) == 0.0
    assert optimality_residual(scalar_quad, [3.0]) == 3.0


def test_optimality_residual_at_lasso_minimizer():
    from l1lab import lasso_build

    p = lasso_build([[1.0], [1.0]], [1.0, 1.0], 0.5)
    assert optimality_residual(p, [0.5]) <= 1e-12


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_point_examples(scalar_quad):
    assert classify_point(scalar_quad, [3.0]).kind is Kind.SUPERSOLUTION
    assert classify_point(scalar_quad, [3.0]).slack[0] == pytest.approx(3.0)
    assert classify_point(scalar_quad, [0.0]).kind is Kind.EXACT
    assert classify_point(scalar_quad, [-3.0]).kind is Kind.SUBSOLUTION


def test_classify_point_neither():
    # f(x) = ||x - (1, 1)||^2 / 2, slack signs differ at (2, -2)
    p = quadratic_problem(np.eye(2), [-1.0, -1.0], lam=0.1, lipschitz=1.0)
    cls = classify_point(p, [2.0, -2.0])
    assert cls.kind is Kind.NEITHER
    assert cls.slack[0] > 0.0 > cls.slack[1]


def test_classify_scale_sweep_supersolution(scalar_quad):
    taus = [0.1, 1.0, scalar_quad.lipschitz, 10.0]
    kinds = [c.kind for c in classify_scale_sweep(scalar_quad, [3.0], taus)]
    assert all(k is Kind.SUPERSOLUTION for k in kinds)


def test_classify_scale_sweep_exact(scalar_quad):
    kinds = [c.kind for c in classify_scale_sweep(scalar_quad, [0.0], [0.1, 1.0, 10.0])]
    assert all(k is Kind.EXACT for k in kinds)


def test_classify_scale_sweep_neither_reports_without_guarantee():
    p = quadratic_problem(np.eye(2), [-1.0, -1.0], lam=0.1, lipschitz=1.0)
    sweep = classify_scale_sweep(p, [2.0, -2.0], np.logspace(-2, 2, 9))
    assert sweep[4].kind is Kind.NEITHER  # tau = 1 entry
    assert len(sweep) == 9


@pytest.mark.parametrize("seed", range(5))
def test_scale_invariance_on_generated_instances(seed):
    from l1lab import find_subsolution, find_supersolution

    p = gen_zmatrix_quadratic(4 + seed, seed=seed)
    taus = np.logspace(-2, 2, 9)
    for x, want in (
        (find_supersolution(p, seed=seed), Kind.SUPERSOLUTION),
        (find_subsolution(p, seed=seed), Kind.SUBSOLUTION),
    ):
        kinds = [c.kind for c in classify_scale_sweep(p, x, taus)]
        assert all(k is want for k in kinds)


# ---------------------------------------------------------------------------
# the tau curve
# ---------------------------------------------------------------------------

def test_shrink_tau_curve_supersolution_values(scalar_quad):
    curve = shrink_tau_curve(scalar_quad, [3.0], 0, [1.0, 3.0])
    np.testing.assert_allclose(curve, [0.0, 5.0 / 3.0])
    assert curve[1] >= curve[0] - 1e-12


def test_shrink_tau_curve_exact_is_constant(scalar_quad):
    curve = shrink_tau_curve(scalar_quad, [0.0], 0, np.logspace(-2, 2, 7))
    np.testing.assert_allclose(curve, 0.0, atol=1e-15)


def test_shrink_tau_curve_subsolution_mirror(scalar_quad):
    curve = shrink_tau_curve(scalar_quad, [-3.0], 0, [1.0, 3.0])
    np.testing.assert_allclose(curve, [0.0, -5.0 / 3.0])
    assert curve[1] <= curve[0] + 1e-12


def test_shrink_tau_curve_rejects_neither():
    p = quadratic_problem(np.eye(2), [-1.0, -1.0], lam=0.1, lipschitz=1.0)
    with pytest.raises(PreconditionError):
        shrink_tau_curve(p, [2.0, -2.0], 0, [1.0, 2.0])


@pytest.mark.parametrize("seed", range(4))
def test_tau_curve_monotone_on_generated_instances(seed):
    from l1lab import find_supersolution

    p = gen_zmatrix_quadratic(5, seed=seed)
    x = find_supersolution(p, seed=seed)
    taus = np.logspace(-2, 2, 9)
    for j in range(p.dim):
        curve = shrink_tau_curve(p, x, j, taus)
        assert np.all(np.diff(curve) >= -1e-12)


# ---------------------------------------------------------------------------
# isotonicity checks
# ---------------------------------------------------------------------------

def test_check_isotonicity_quadratic_cases():
    ok, offenders = check_isotonicity_quadratic([[2.0, -1.0], [-1.0, 2.0]])
    assert ok and not offenders
    ok, offenders = check_isotonicity_quadratic([[2.0, 1.0], [1.0, 2.0]])
    assert not ok and offenders == [(0, 1)]
    ok, offenders = check_isotonicity_quadratic(np.eye(3))
    assert ok and not offenders


def test_check_isotonicity_quadratic_matches_pairwise_loop():
    def loop(A, tol):
        return [(i, j) for i in range(len(A)) for j in range(i + 1, len(A))
                if A[i, j] > tol or A[j, i] > tol]

    rng = np.random.default_rng(2)
    for trial in range(120):
        d = int(rng.integers(1, 30))
        A = rng.standard_normal((d, d)) - 0.8 * rng.random()
        if trial % 2:
            A = 0.5 * (A + A.T)
        if trial % 3 == 0:
            A[rng.random((d, d)) < 0.1] = np.nan
        tol = (0.0, 1e-12, 0.5)[trial % 3]
        ok, offenders = check_isotonicity_quadratic(A, tol)
        want = loop(A, tol)
        assert offenders == want and ok == (not want)
        assert all(type(i) is int and type(j) is int for i, j in offenders)


def test_check_isotonicity_sampled_zmatrix_clean():
    p = gen_zmatrix_quadratic(5, seed=1)
    report = check_isotonicity_sampled(p, samples=1000, seed=0)
    assert report.ok and report.samples == 1000


def test_check_isotonicity_sampled_finds_violation():
    p = quadratic_problem([[2.0, 1.0], [1.0, 2.0]], [0.0, 0.0], lam=0.1, lipschitz=3.0)
    report = check_isotonicity_sampled(p, samples=1000, seed=0)
    assert not report.ok
    assert len(report.violations) >= 1


def test_check_isotonicity_sampled_scalar_convex():
    p = logistic_problem([[1.0], [2.0]], [1.0, -1.0], lam=0.1)
    report = check_isotonicity_sampled(p, samples=500, seed=3)
    assert report.ok


def test_exact_kind_agrees_with_residual():
    from l1lab import reference_minimizer

    for seed in (0, 5):
        p = gen_zmatrix_quadratic(4, seed=seed)
        x_star = reference_minimizer(p).x_star
        tol = 1e-8
        assert classify_point(p, x_star, tol).kind is Kind.EXACT
        assert optimality_residual(p, x_star) <= tol


def test_prox_gradient_map_isotone_on_ordered_pairs():
    p = gen_zmatrix_quadratic(5, seed=4)
    rng = np.random.default_rng(0)
    for _ in range(200):
        y = rng.standard_normal(5)
        x = y + rng.uniform(0.0, 1.0, 5) * (rng.random(5) < 0.5)
        assert np.all(prox_gradient_map(p, x) >= prox_gradient_map(p, y) - 1e-10)
