import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from l1lab import (
    Kind,
    PreconditionError,
    check_isotonicity_quadratic,
    DimensionMismatchError,
    check_isotonicity_sampled,
    classify_point,
    classify_scale_sweep,
    f_grad,
    gen_zmatrix_quadratic,
    logistic_problem,
    optimality_residual,
    prox_gradient_map,
    quadratic_problem,
    scalar_shrink,
    shrink_tau_curve,
    vector_shrink,
)
from l1lab import _qsweep
from l1lab.operators import (KIND_BY_CODE, _classification_slack, extreme_codes, kind_codes,
                             prox_gradient_image, row_extremes)
from tests.conftest import NOT_COUNTS

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


def _validation_cases():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((30, 4))
    Y = np.where(rng.random(30) < 0.5, -1.0, 1.0)
    return [gen_zmatrix_quadratic(4, seed=2), logistic_problem(X, Y, lam=0.05)]


@pytest.mark.parametrize("p", _validation_cases(), ids=["quadratic", "logistic"])
def test_prox_gradient_map_validates_once_and_keeps_its_values(p):
    # The map validates x itself and then asks the smooth part for the
    # gradient; bad input still raises, and good input gives bitwise the
    # values of the validating f_grad path.
    with pytest.raises(DimensionMismatchError):
        prox_gradient_map(p, np.zeros(p.dim + 1))
    with pytest.raises(DimensionMismatchError):
        prox_gradient_map(p, np.zeros((p.dim, 1)))
    with pytest.raises(ValueError):
        prox_gradient_map(p, np.full(p.dim, np.nan))
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.standard_normal(p.dim) * 3.0
        want = prox_gradient_image(p, x, f_grad(p, x))
        got = prox_gradient_map(p, list(x))
        assert np.array_equal(got, want)


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


def reference_kind(slack, tol):
    # The rule as three np.all tests over a row of slack.
    if np.all(np.abs(slack) <= tol):
        return Kind.EXACT
    if np.all(slack >= -tol):
        return Kind.SUPERSOLUTION
    if np.all(slack <= tol):
        return Kind.SUBSOLUTION
    return Kind.NEITHER


def kinds_of(p, points, grads, tol):
    """kind_codes of each row as Kind members."""
    return [KIND_BY_CODE[c] for c in kind_codes(p, points, grads, tol).tolist()]


def test_kind_codes_match_classify_point_row_by_row():
    rng = np.random.default_rng(7)
    seen = set()
    for seed in range(12):
        p = gen_zmatrix_quadratic(1 + seed, seed=seed)
        d = p.dim
        # Points at many scales and signs, so that every kind occurs.
        pts = np.array([s * rng.choice([-1.0, 1.0]) * rng.random(d) ** k
                        for s in (1e-9, 1e-3, 0.1, 1.0, 10.0, 1e3) for k in (0, 1, 3)]
                       + [rng.standard_normal(d) for _ in range(6)])
        grads = np.array([f_grad(p, x) for x in pts])
        tols = rng.choice([0.0, 1e-10, 1e-3, 0.1, 1.0, 10.0], size=len(pts))
        kinds = kinds_of(p, pts, grads, tols)
        assert kinds == [classify_point(p, x, t).kind for x, t in zip(pts, tols)]
        assert kinds_of(p, pts, grads, 1e-3) == [
            classify_point(p, x, 1e-3).kind for x in pts]
        seen.update(kinds)
    assert seen == set(Kind)


def test_kind_codes_on_the_tolerance_boundary():
    # With lam = 10 and grad f(x) = x, every |x_j| <= 1 lies in the flat
    # part of the shrinkage, so the slack is x itself, bit for bit.
    p = quadratic_problem(np.eye(3), np.zeros(3), lam=10.0, lipschitz=1.0)
    rows, tols, want = [], [], []
    for t in (0.0, 1e-10, 0.25, 0.5):
        up = np.nextafter(t, 1.0)
        for row, kind in (([t, -t, 0.0], Kind.EXACT),
                          ([up, -t, 0.0], Kind.SUPERSOLUTION),
                          ([t, -up, 0.0], Kind.SUBSOLUTION),
                          ([up, -up, t], Kind.NEITHER)):
            rows.append(row)
            tols.append(t)
            want.append(kind)
    pts = np.array(rows)
    tols = np.array(tols)
    assert [classify_point(p, x, t).kind for x, t in zip(pts, tols)] == want
    assert kinds_of(p, pts, pts, tols) == want
    # Each row's own tolerance decides: shifting them by one row changes kinds.
    assert kinds_of(p, pts, pts, np.roll(tols, 4)) != want


def test_kind_codes_nan_slack_is_neither():
    p = quadratic_problem(np.eye(3), np.zeros(3), lam=10.0, lipschitz=1.0)
    nan = float("nan")
    # A NaN coordinate of x lands in the slack as NaN; a NaN gradient entry
    # leaves the slack at x.
    pts = np.array([[nan, 0.0, 0.0], [0.0, nan, 1.0], [1.0, 1.0, nan], [0.5, 0.0, 0.0],
                    [0.5, 0.0, 0.0], [-0.5, 0.0, 0.0]])
    grads = pts.copy()
    grads[3:, 1] = nan
    tols = np.array([1.0, 1.0, 1e-3, 1e-3, 1.0, 1e-3])
    kinds = kinds_of(p, pts, grads, tols)
    assert kinds == [reference_kind(slack, t) for slack, t in zip(pts, tols)]
    assert kinds == [Kind.NEITHER] * 3 + [Kind.SUPERSOLUTION, Kind.EXACT, Kind.SUBSOLUTION]


# Entries that stress each branch of the slack and of the extremes: NaN,
# infinities, signed zeros, subnormals and huge values.
SPECIAL = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 2.0e-310, -2.0e-310,
                    1e300, -1e300, 0.5, -0.5])


def special_blocks(rng, d, m=40):
    """(points, grads): random rows with special entries, an all-NaN row,
    a row whose slack is all signed zeros and one of subnormals."""
    points, grads = (rng.standard_normal((m, d)) * 10.0 ** rng.integers(-3, 4, (m, d))
                     for _ in range(2))
    for v in (points, grads):
        mask = rng.random(v.shape) < 0.25
        v[mask] = rng.choice(SPECIAL, mask.sum())
    points[0] = np.nan
    points[1], grads[1] = rng.choice([0.0, -0.0], d), 0.0
    points[2], grads[2] = rng.choice([5e-324, -5e-324, 2.0e-310], d), 0.0
    return points, grads


def numpy_extremes(p, points, grads):
    slack = _classification_slack(points, grads, p.lam, 1.0)
    return slack.min(axis=1), slack.max(axis=1), np.abs(points).max(axis=1)


@pytest.mark.parametrize("d", [1, 2, 5, 17])
def test_compiled_row_extremes_are_numpys(d):
    # qextremes against the numpy min and max of the slack and of |x|: the
    # same values, NaN where numpy's is NaN; the norms bitwise (|x| has no
    # signed zero), lo and hi up to the sign of a zero extreme, which numpy's
    # own reductions choose by their order. The codes are bitwise.
    if _qsweep.load() is None:
        pytest.skip("the compiled library cannot be built here")
    rng = np.random.default_rng(d)
    for lam in (0.0, 2.0e-310, 0.5, 3.0):
        p = quadratic_problem(np.eye(d), np.zeros(d), lam=lam, lipschitz=1.0)
        for trial in range(5):
            points, grads = special_blocks(rng, d)
            with np.errstate(all="ignore"):
                want = numpy_extremes(p, points, grads)
                got = row_extremes(p, points, grads)
            for g, w in zip(got, want):
                assert g.shape == w.shape and np.array_equal(g, w, equal_nan=True), (lam, trial)
            assert np.isnan(got[0][0]) and np.isnan(got[1][0]) and np.isnan(got[2][0])
            finite_norms = ~np.isnan(want[2])
            assert got[2][finite_norms].tobytes() == want[2][finite_norms].tobytes()
            for tol in (0.0, 5e-324, 1e-10, 0.5, np.inf, rng.random(len(points))):
                assert (extreme_codes(*got[:2], tol).tobytes()
                        == extreme_codes(*want[:2], tol).tobytes()), (lam, trial)


def test_kind_codes_are_the_same_with_and_without_the_library(kernel):
    # kind_codes on either path against the rule applied to each slack row.
    rng = np.random.default_rng(3)
    seen = set()
    for d in (1, 3, 8):
        p = quadratic_problem(np.eye(d), np.zeros(d), lam=0.25, lipschitz=1.0)
        points, grads = special_blocks(rng, d, m=200)
        tols = rng.choice([0.0, 1e-3, 0.5, 10.0], len(points))
        with np.errstate(all="ignore"):
            slack = _classification_slack(points, grads, p.lam, 1.0)
            kinds = kinds_of(p, points, grads, tols)
            assert kinds == [reference_kind(row, t) for row, t in zip(slack, tols)]
            # A strided view takes the same path to the same codes.
            wide = np.repeat(points, 2, axis=1)[:, ::2]
            assert kinds_of(p, wide, grads, tols) == kinds
        seen.update(kinds)
    assert seen == set(Kind)


def test_kind_codes_rejects_mismatched_stacks():
    p = gen_zmatrix_quadratic(3, seed=1)
    with pytest.raises(DimensionMismatchError):
        kind_codes(p, np.zeros((2, 3)), np.zeros((3, 3)), 1e-10)
    with pytest.raises(DimensionMismatchError):
        kind_codes(p, np.zeros((2, 4)), np.zeros((2, 4)), 1e-10)


def test_classify_point_rejects_nan_and_negative_tol(scalar_quad):
    for tol in (float("nan"), -1e-12):
        with pytest.raises(ValueError, match="tol must be nonnegative"):
            classify_point(scalar_quad, [1.0], tol)
        with pytest.raises(ValueError, match="tol must be nonnegative"):
            kind_codes(scalar_quad, [[1.0]], [[1.0]], [tol])


def test_classify_scale_sweep_rejects_nan_and_negative_tol(scalar_quad):
    for tol in (float("nan"), -1e-12):
        with pytest.raises(ValueError, match="tol must be nonnegative"):
            classify_scale_sweep(scalar_quad, [1.0], [0.5, 1.0], tol)


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
    # A diagonal above tol offends nowhere; an entry above tol on either side
    # of the diagonal names its upper-triangle pair, once, in row-major order.
    A = np.diag([3.0, 2.0, 5.0, 1.0])
    A[2, 0], A[1, 3], A[0, 1], A[1, 0], A[3, 2] = 0.5, 1e-3, 0.2, 0.2, -4.0
    ok, offenders = check_isotonicity_quadratic(A, tol=1e-4)
    assert not ok and offenders == [(0, 1), (0, 2), (1, 3)]
    ok, offenders = check_isotonicity_quadratic(A, tol=0.5)
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
    ok, violations = check_isotonicity_sampled(p, samples=1000, seed=0)
    assert ok and violations == []


def test_check_isotonicity_sampled_finds_violation():
    p = quadratic_problem([[2.0, 1.0], [1.0, 2.0]], [0.0, 0.0], lam=0.1, lipschitz=3.0)
    ok, violations = check_isotonicity_sampled(p, samples=1000, seed=0)
    assert not ok
    assert len(violations) >= 1


def test_check_isotonicity_sampled_scalar_convex():
    p = logistic_problem([[1.0], [2.0]], [1.0, -1.0], lam=0.1)
    ok, _ = check_isotonicity_sampled(p, samples=500, seed=3)
    assert ok


@pytest.mark.parametrize("samples", NOT_COUNTS)
def test_check_isotonicity_sampled_rejects_samples_that_are_not_an_integer_at_least_1(samples):
    # NaN used to pass `samples < 1` and reach range(), which raised
    # TypeError; True ran one sample.
    p = gen_zmatrix_quadratic(3, seed=1)
    with pytest.raises(ValueError, match=f"samples must be an integer >= 1, got {samples!r}"):
        check_isotonicity_sampled(p, samples=samples)


@pytest.mark.parametrize("tol", [float("nan"), -1e-12])
def test_check_isotonicity_sampled_rejects_nan_and_negative_tol(tol):
    # gaps < -nan is never true: a NaN tol would pass without comparing anything.
    p = quadratic_problem([[2.0, 1.0], [1.0, 2.0]], [0.0, 0.0], lam=0.1, lipschitz=3.0)
    with pytest.raises(ValueError, match="tol must be nonnegative"):
        check_isotonicity_sampled(p, samples=10, tol=tol)


@pytest.mark.parametrize("taus", [[float("nan")], [1.0, float("nan")], [0.0], [2.0, -1.0]])
def test_classify_scale_sweep_rejects_nan_and_nonpositive_tau(scalar_quad, taus):
    with pytest.raises(ValueError, match="every tau must be positive"):
        classify_scale_sweep(scalar_quad, [3.0], taus)


@pytest.mark.parametrize("taus", [[1.0, float("nan"), 2.0], [0.0], [1.0, -2.0]])
def test_shrink_tau_curve_rejects_nan_and_nonpositive_tau(scalar_quad, taus):
    # x = 3 is a supersolution, so only the tau grid is at fault.
    assert classify_point(scalar_quad, [3.0]).kind is Kind.SUPERSOLUTION
    with pytest.raises(ValueError, match="every tau must be positive"):
        shrink_tau_curve(scalar_quad, [3.0], 0, taus)


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
