import json
import math
import re
import warnings

import numpy as np
import pytest

from l1lab import (
    Assumption2Error,
    ComparisonReport,
    IterationRecord,
    Kind,
    PreconditionError,
    ReferenceSolveError,
    SolverConfig,
    check_objective_ordering,
    classify_point,
    classify_scale_sweep,
    find_subsolution,
    find_supersolution,
    gen_zmatrix_quadratic,
    lasso_build,
    logistic_problem,
    objective,
    optimality_residual,
    quadratic_problem,
    rate_check,
    reference_minimizer,
    run,
    run_comparison,
    shrink_tau_curve,
)
from l1lab._jsonlayout import _RECORD_CHUNK
from l1lab.operators import prox_gradient_image
from l1lab.solvers import CoordinateKernel
from tests.conftest import NOT_COUNTS, acceptance_instance, monotone_and_bracket

NEG_CONTROL = dict(A=[[2.0, 1.0], [1.0, 2.0]], b=[-1.0, -1.0], lam=0.1)


def neg_control_problem():
    return quadratic_problem(NEG_CONTROL["A"], NEG_CONTROL["b"], NEG_CONTROL["lam"], lipschitz=3.0)


# ---------------------------------------------------------------------------
# classified starts
# ---------------------------------------------------------------------------

def test_find_supersolution_shifted_quadratic():
    # f(x) = ||x - (1, 2)||^2 / 2; any point above the shift works
    p = quadratic_problem(np.eye(2), [-1.0, -2.0], lam=0.3, lipschitz=1.0)
    assert classify_point(p, [2.0, 3.0]).kind is Kind.SUPERSOLUTION
    x = find_supersolution(p, seed=0)
    assert classify_point(p, x).kind is Kind.SUPERSOLUTION


def test_find_supersolution_scalar(scalar_quad):
    x = find_supersolution(scalar_quad, seed=1)
    assert x[0] >= 0.0
    assert classify_point(scalar_quad, x).kind is Kind.SUPERSOLUTION


@pytest.mark.parametrize("seed", [3, 10, 25])
def test_find_supersolution_generated_instance(seed):
    p = gen_zmatrix_quadratic(5, seed=seed)
    x = find_supersolution(p, seed=seed)
    assert classify_point(p, x).kind is Kind.SUPERSOLUTION


def test_find_subsolution_mirrors(scalar_quad):
    p = quadratic_problem(np.eye(2), [1.0, 2.0], lam=0.3, lipschitz=1.0)
    assert classify_point(p, [-2.0, -3.0]).kind is Kind.SUBSOLUTION
    x = find_subsolution(p, seed=0)
    assert classify_point(p, x).kind is Kind.SUBSOLUTION
    y = find_subsolution(scalar_quad, seed=0)
    assert classify_point(scalar_quad, y).kind is Kind.SUBSOLUTION
    g = gen_zmatrix_quadratic(5, seed=3)
    z = find_subsolution(g, seed=3)
    assert classify_point(g, z).kind is Kind.SUBSOLUTION


def test_start_search_rejects_nan_and_negative_tol():
    p = gen_zmatrix_quadratic(5, seed=3)
    for tol in (float("nan"), -1e-12):
        for search in (find_supersolution, find_subsolution):
            with pytest.raises(ValueError, match="tol must be nonnegative"):
                search(p, seed=3, tol=tol)


def test_start_search_rejects_an_array_tol():
    # One tolerance per rung (41 values) or any other array is not a tol.
    p = gen_zmatrix_quadratic(5, seed=3)
    for tol in (np.full(41, 1e-3), [1e-3, 1e-3], np.array([1e-3])):
        for search in (find_supersolution, find_subsolution):
            with pytest.raises(ValueError, match="tol must be one value"):
                search(p, seed=3, tol=tol)
    assert find_supersolution(p, seed=3, tol=np.float64(1e-3)).tobytes() \
        == find_supersolution(p, seed=3, tol=1e-3).tobytes()


# Each function that documents one tol, called with the tol under test.
ONE_TOL = {
    "classify_point": lambda p, x, tol: classify_point(p, x, tol),
    "classify_scale_sweep": lambda p, x, tol: classify_scale_sweep(p, x, [0.5, 1.0], tol),
    "shrink_tau_curve": lambda p, x, tol: shrink_tau_curve(p, x, 0, [0.5, 1.0], tol),
    "check_objective_ordering": lambda p, x, tol: check_objective_ordering(p, x, x, tol),
    "run_comparison": lambda p, x, tol: run_comparison(p, x, 3, tol),
}


@pytest.mark.parametrize("name", sorted(ONE_TOL))
def test_the_one_tol_functions_reject_an_array_tol(name):
    # Each documents one tol: an array or a list is rejected with the start
    # search's message, before any work, and so are NaN and a negative tol.
    # A numpy scalar is one value.
    p = gen_zmatrix_quadratic(4, seed=3)
    x = find_supersolution(p, seed=3)
    for tol in (np.array([10.0, 0.0, 0.0, 0.0]), [1e-8] * 4, np.array([1e-8])):
        with pytest.raises(ValueError, match="tol must be one value, got an array of shape"):
            ONE_TOL[name](p, x, tol)
    for tol in (float("nan"), -1e-12, np.float64(-1e-12)):
        with pytest.raises(ValueError, match="tol must be nonnegative"):
            ONE_TOL[name](p, x, tol)
    ONE_TOL[name](p, x, np.float64(1e-8))


def test_find_supersolution_rejects_non_isotone_instance():
    with pytest.raises(PreconditionError):
        find_supersolution(neg_control_problem(), seed=0)


# ---------------------------------------------------------------------------
# reference minimizer
# ---------------------------------------------------------------------------

def test_reference_minimizer_scalar(scalar_quad):
    ref = reference_minimizer(scalar_quad)
    assert ref.x_star[0] == 0.0
    assert ref.f_star == 0.0
    assert ref.residual <= 1e-10


def test_reference_minimizer_lasso_example():
    p = lasso_build([[1.0], [1.0]], [1.0, 1.0], 0.5)
    ref = reference_minimizer(p)
    assert ref.x_star[0] == pytest.approx(0.5, abs=1e-10)


def test_reference_minimizer_matches_linear_solve():
    p = quadratic_problem([[2.0, -1.0], [-1.0, 2.0]], [-1.0, -1.0], lam=0.0, lipschitz=3.1)
    ref = reference_minimizer(p)
    oracle = np.linalg.solve(np.array([[2.0, -1.0], [-1.0, 2.0]]), [1.0, 1.0])
    np.testing.assert_allclose(ref.x_star, oracle, atol=1e-10)
    np.testing.assert_allclose(ref.x_star, [1.0, 1.0], atol=1e-10)


def test_reference_minimizer_logistic():
    p = logistic_problem([[1.0], [1.0]], [1.0, 1.0], lam=0.1)
    ref = reference_minimizer(p)
    assert ref.residual <= 1e-10
    assert ref.x_star[0] == pytest.approx(np.log(9.0), abs=1e-8)


def sweeps_then_polish(p, stop_residual=1e-12, max_sweeps=10 ** 6):
    """The plain reference solve: sweep from 0 to stop_residual, then polish once.

    Returns (x, residual, method) as reference_minimizer's x_star, residual
    and method, or raises ReferenceSolveError as it does.
    """
    try:
        method, kernel = "ccm", CoordinateKernel(p, "ccm")
    except Assumption2Error:
        method, kernel = "ccd", CoordinateKernel(p, "ccd")
    x = np.zeros(p.dim)
    for _ in range(max_sweeps):
        image = prox_gradient_image(p, x, p.smooth.grad(x))
        best_res = float(np.max(np.abs(x - image)))
        if best_res <= stop_residual:
            break
        nxt = kernel.sweep(x.copy())
        if np.array_equal(nxt, x):
            break
        x = nxt
    else:
        best_res = optimality_residual(p, x)
    cand = p.smooth.active_set_solution(x, p.lam)
    if cand is not None:
        cand_res = optimality_residual(p, cand)
        if cand_res < best_res:
            x, best_res = cand, cand_res
            method += "+active-set"
    if best_res > 1e-10:
        raise ReferenceSolveError(f"stalled at residual {best_res:.3e}")
    return x, best_res, method


def test_reference_minimizer_is_bitwise_the_plain_solve_on_quadratics():
    # Stopping at the first certified polish keeps every quadratic F* to the
    # bit: the polish is the exact solve on the support that the sweeps to
    # 1e-12 would have reached.
    cases = [acceptance_instance(seed) for seed in range(150)]
    cases.append(gen_zmatrix_quadratic(300, seed=1))
    methods = []
    for p in cases:
        ref = reference_minimizer(p)
        x, _, method = sweeps_then_polish(p)
        assert ref.x_star.tobytes() == x.tobytes(), p.dim
        assert ref.f_star == objective(p, x)
        assert ref.method == method
        assert ref.residual <= 1e-12
        methods.append(method)
    # Most instances take the polish (138 of 151 when written); the rest,
    # such as x* = 0 or sweeps that reach a residual of exactly 0, keep x.
    assert methods.count("ccm+active-set") > 120


def logistic_cases():
    # Like the benchmark's solve_logistic data: Gaussian X, n = 2000, d = 50,
    # labels of a planted sparse w with 10% flipped, lam = 0.01.
    for seed in (1, 2):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((2000, 50))
        w = np.zeros(50)
        w[rng.choice(50, size=10, replace=False)] = rng.standard_normal(10)
        Y = np.where(X @ w >= 0.0, 1.0, -1.0)
        Y[rng.random(2000) < 0.1] *= -1.0
        yield logistic_problem(X, Y, lam=0.01)
    yield logistic_problem([[1.0], [2.0], [-0.5]], [1.0, 1.0, -1.0], lam=0.1)


def test_reference_minimizer_agrees_with_the_plain_solve_on_logistic_data():
    for p in logistic_cases():
        ref = reference_minimizer(p)
        x, _, _ = sweeps_then_polish(p)
        f_plain = objective(p, x)
        assert abs(ref.f_star - f_plain) <= 1e-12 * abs(f_plain)
        assert ref.residual <= 1e-12
        assert ref.residual == optimality_residual(p, ref.x_star)
        assert ref.method == "ccm+active-set"


def test_reference_minimizer_sweeps_ccd_where_a_diagonal_entry_is_zero(kernel):
    # A_33 = 0 rules ccm out (Assumption 2), so the reference sweeps ccd
    # with the step L; |b_3| < lam keeps x*_3 at 0.
    p = quadratic_problem([[2.0, -1.0, 0.0], [-1.0, 2.0, 0.0], [0.0, 0.0, 0.0]],
                          [-1.0, 0.5, 0.05], lam=0.1)
    with pytest.raises(Assumption2Error):
        CoordinateKernel(p, "ccm")
    ref = reference_minimizer(p)
    assert ref.method == "ccd+active-set"
    assert ref.residual <= 1e-10
    np.testing.assert_allclose(ref.x_star, [0.45, 0.0, 0.0], atol=1e-12)
    x, _, method = sweeps_then_polish(p)
    assert ref.x_star.tobytes() == x.tobytes() and ref.method == method


def test_reference_minimizer_sweeps_ccm_on_a_zero_logistic_column(kernel):
    # g' is 0 along an all-zero column, so ccm's 1-D solve leaves that
    # coordinate at 0 and the other coordinates converge as usual.
    X = [[1.0, 0.0, 0.5], [2.0, 0.0, -1.0], [-0.5, 0.0, 1.0], [0.3, 0.0, 2.0]]
    p = logistic_problem(X, [1.0, 1.0, -1.0, 1.0], lam=0.05)
    ref = reference_minimizer(p)
    assert ref.method == "ccm+active-set"
    assert ref.residual <= 1e-10
    assert ref.x_star[1] == 0.0
    x, _, method = sweeps_then_polish(p)
    assert method == ref.method
    f_plain = objective(p, x)
    assert abs(ref.f_star - f_plain) <= 1e-12 * abs(f_plain)


def test_reference_minimizer_stops_at_a_numerical_fixed_point_of_the_sweeps(
        kernel, monkeypatch):
    # Scaled by 1e4, this instance's sweeps reach a point that one more ccm
    # sweep leaves unchanged while its residual is still above 1e-12; the
    # solve stops there and keeps the polish of that point.
    base = gen_zmatrix_quadratic(7, seed=43, density=0.7)
    p = quadratic_problem(base.smooth.A, 1e4 * base.smooth.b, 1e4 * base.lam,
                          lipschitz=base.lipschitz)
    unchanged = []
    if kernel == "numpy":
        sweep = CoordinateKernel.sweep

        def counted(self, w, *args):
            before = w.copy()
            out = sweep(self, w, *args)
            unchanged.append(out.tobytes() == before.tobytes())
            return out

        monkeypatch.setattr(CoordinateKernel, "sweep", counted)
    ref = reference_minimizer(p)
    if kernel == "numpy":
        assert unchanged[-1] and not any(unchanged[:-1])
    assert ref.method == "ccm+active-set"
    assert 1e-12 < ref.residual <= 2e-12
    x, _, method = sweeps_then_polish(p)
    assert ref.x_star.tobytes() == x.tobytes() and ref.method == method


@pytest.mark.parametrize("max_sweeps", [-1, 2.5, 3.0, "5", float("nan")])
def test_reference_minimizer_rejects_a_max_sweeps_that_is_not_an_integer_at_least_0(max_sweeps):
    # Before this check -1 raised UnboundLocalError and 2.5 a bare TypeError.
    p = gen_zmatrix_quadratic(5, seed=1)
    with pytest.raises(ValueError, match="max_sweeps must be an integer >= 0"):
        reference_minimizer(p, max_sweeps=max_sweeps)


@pytest.mark.parametrize("max_sweeps", [True, False, np.bool_(True)])
def test_reference_minimizer_rejects_a_bool_max_sweeps(max_sweeps):
    # bool is an int, so True used to pass as one sweep and False as none.
    p = gen_zmatrix_quadratic(5, seed=1)
    with pytest.raises(ValueError, match="max_sweeps must be an integer >= 0"):
        reference_minimizer(p, max_sweeps=max_sweeps)


def test_reference_solve_stops_at_the_first_non_finite_residual(kernel):
    # The ccm sweeps toward x* = (1e308, 1e308) overflow within a few
    # sweeps, and the exact solve on the support overflows too, so the
    # polish gives None. The solve ends at the first non-finite residual,
    # names its sweep and warns nothing.
    p = quadratic_problem([[2.0, -1.0], [-1.0, 2.0]], [-1e308, -1e308], 0.0)
    assert p.smooth.active_set_solution(np.zeros(2), 0.0) is None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ReferenceSolveError) as exc:
            reference_minimizer(p)
    found = re.fullmatch(r"reference solve reached a non-finite residual after (\d+) ccm "
                         r"iterations", str(exc.value))
    assert found and int(found[1]) <= 5, str(exc.value)


def test_reference_minimizer_takes_zero_and_numpy_integer_max_sweeps():
    # 0 is a budget like any other: no sweep, so this start is no solution.
    p = gen_zmatrix_quadratic(5, seed=1)
    with pytest.raises(ReferenceSolveError, match="after 0 ccm iterations"):
        reference_minimizer(p, max_sweeps=0)
    want = reference_minimizer(p)
    assert reference_minimizer(p, max_sweeps=np.int64(200)).x_star.tobytes() \
        == want.x_star.tobytes()


def test_reference_solve_error_names_the_iterations_and_the_residual(monkeypatch):
    # Outside isotonicity and badly conditioned (A = 0.01 I + 0.99 11^T), 300
    # ccm sweeps stay far from the 1e-10 the oracle needs, and the sign
    # pattern keeps changing.
    d = 100
    p = quadratic_problem(0.01 * np.eye(d) + 0.99 * np.ones((d, d)),
                          np.random.default_rng(100).uniform(-1.0, 1.0, d), lam=0.01)
    with pytest.raises(ReferenceSolveError) as plain:
        sweeps_then_polish(p, max_sweeps=300)
    calls = []
    polish = type(p.smooth).active_set_solution

    def counted(self, x, lam):
        calls.append(np.sign(x).tobytes())
        return polish(self, x, lam)

    monkeypatch.setattr(type(p.smooth), "active_set_solution", counted)
    with pytest.raises(ReferenceSolveError) as exc:
        reference_minimizer(p, max_sweeps=300)
    # The same best residual as the plain solve, which polishes only once.
    residual = str(plain.value).split()[-1]
    assert str(exc.value) == (f"reference solve stalled at residual {residual} (> 1e-10) "
                              "after 300 ccm iterations")
    # The polish attempts stay few: in the loop at most one per pattern, and
    # after n failures only on a pattern that held 2**n sweeps, so at most 9
    # in 300 sweeps (2**0 + ... + 2**8 > 300); then one past the sweeps.
    assert len(set(calls[:-1])) == len(calls) - 1
    assert len(calls) - 1 <= 9


# ---------------------------------------------------------------------------
# rate check and objective ordering
# ---------------------------------------------------------------------------

def test_rate_check_one_step_convergence():
    p = quadratic_problem([[1.0]], [0.0], lam=0.0, lipschitz=1.0)
    trace = run("gd", p, [1.0], SolverConfig(max_outer_iters=5))
    ref = reference_minimizer(p)
    flags = rate_check(trace, ref, [1.0], p.lipschitz)
    assert flags == [True] * 5
    assert trace.f_values[1] <= 0.5  # explicit k = 1 bound


def test_rate_check_at_minimizer_is_trivially_true():
    p = lasso_build([[1.0], [1.0]], [1.0, 1.0], 0.5)
    ref = reference_minimizer(p)
    trace = run("gd", p, ref.x_star, SolverConfig(max_outer_iters=10))
    assert all(rate_check(trace, ref, ref.x_star, p.lipschitz))


def test_check_objective_ordering_examples(scalar_quad):
    assert check_objective_ordering(scalar_quad, [1.0], [2.0])
    assert objective(scalar_quad, [1.0]) == 1.5
    assert objective(scalar_quad, [2.0]) == 4.0
    assert check_objective_ordering(scalar_quad, [1.0], [1.0])
    # The mirror: the subsolution -1 below -2.
    assert classify_point(scalar_quad, [-1.0]).kind is Kind.SUBSOLUTION
    assert check_objective_ordering(scalar_quad, [-1.0], [-2.0])


def test_check_objective_ordering_preconditions():
    p = quadratic_problem(np.eye(2), [-1.0, -1.0], lam=0.1, lipschitz=1.0)
    with pytest.raises(PreconditionError):
        check_objective_ordering(p, [2.0, -2.0], [3.0, 3.0])  # neither point
    scalar = quadratic_problem([[1.0]], [0.0], 1.0, 1.0)
    with pytest.raises(PreconditionError, match="need y <= x componentwise"):
        check_objective_ordering(scalar, [3.0], [1.0])
    with pytest.raises(PreconditionError, match="need y >= x componentwise"):
        check_objective_ordering(scalar, [-3.0], [-1.0])


def test_check_objective_ordering_randomized():
    count = 0
    for seed in range(10):
        p = gen_zmatrix_quadratic(2 + seed % 4, seed=seed)
        y = find_supersolution(p, seed=seed)
        rng = np.random.default_rng(seed + 500)
        for _ in range(50):
            x = y + rng.uniform(0.0, 1.0, p.dim)
            assert check_objective_ordering(p, y, x)
            count += 1
    assert count == 500


# ---------------------------------------------------------------------------
# the comparison harness
# ---------------------------------------------------------------------------

def test_run_comparison_scalar_is_trivially_true(shifted_scalar_quad):
    x0 = find_supersolution(shifted_scalar_quad, seed=0)
    report = run_comparison(shifted_scalar_quad, x0, K=10)
    assert report.verdict
    assert report.start.kind is Kind.SUPERSOLUTION
    # gd and ccd coincide at d = 1
    for rec in report.records:
        assert rec.f_ccd == rec.f_gd


def test_run_comparison_diagonal_instance():
    p = quadratic_problem(np.diag([1.0, 2.0]), [-1.0, -2.0], lam=0.1, lipschitz=2.0)
    x0 = find_supersolution(p, seed=0)
    report = run_comparison(p, x0, K=25)
    assert report.verdict
    gd, ccd = report.traces["gd"], report.traces["ccd"]
    for xa, xb in zip(gd.iterates, ccd.iterates):
        np.testing.assert_allclose(xa, xb, atol=1e-15)
    # ccm is weakly ahead in objective
    for rec in report.records:
        assert rec.f_ccm <= rec.f_ccd + 1e-12


def test_run_comparison_main_instance():
    p = gen_zmatrix_quadratic(10, seed=3)
    x0 = find_supersolution(p, seed=3)
    report = run_comparison(p, x0, K=100, tol=1e-8)
    assert report.verdict
    assert report.isotonicity_ok
    assert len(report.records) == 101


def test_run_comparison_subsolution_mirror():
    p = gen_zmatrix_quadratic(5, seed=12)
    x0 = find_subsolution(p, seed=12)
    report = run_comparison(p, x0, K=60, tol=1e-8)
    assert report.verdict
    assert report.start.kind is Kind.SUBSOLUTION
    # dominance is reversed: gd below ccd below ccm
    k = 1
    xk = report.traces["gd"].iterates[k]
    zk = report.traces["ccm"].iterates[k]
    assert np.all(zk >= xk - 1e-8)


def test_run_comparison_logistic_scalar():
    p = logistic_problem([[1.0], [2.0]], [1.0, 1.0], lam=0.1)
    x0 = find_supersolution(p, seed=1)
    report = run_comparison(p, x0, K=20)
    assert report.verdict


def test_run_comparison_rejects_unclassified_start():
    p = quadratic_problem(np.eye(2), [-1.0, -1.0], lam=0.1, lipschitz=1.0)
    with pytest.raises(PreconditionError):
        run_comparison(p, [2.0, -2.0], K=5)


def test_run_comparison_rejects_nan_and_negative_tol():
    p = gen_zmatrix_quadratic(5, seed=3)
    x0 = find_supersolution(p, seed=3)
    for tol in (float("nan"), -1e-12):
        with pytest.raises(ValueError, match="tol must be nonnegative"):
            run_comparison(p, x0, K=5, tol=tol)


@pytest.mark.parametrize("K", NOT_COUNTS)
def test_run_comparison_rejects_a_K_that_is_not_an_integer_at_least_1(K):
    # 2.5, NaN and True used to pass `K < 1` and fail later, in
    # SolverConfig, with an error about max_outer_iters.
    p = gen_zmatrix_quadratic(3, seed=1)
    x0 = find_supersolution(p, seed=1)
    with pytest.raises(ValueError, match=f"K must be an integer >= 1, got {K!r}"):
        run_comparison(p, x0, K)


def test_run_comparison_takes_a_numpy_integer_K():
    p = gen_zmatrix_quadratic(3, seed=1)
    x0 = find_supersolution(p, seed=1)
    got, want = run_comparison(p, x0, np.int64(5)), run_comparison(p, x0, 5)
    assert got.f_values.tobytes() == want.f_values.tobytes() and got.verdict


@pytest.mark.parametrize("case,tol", [
    (case, tol) for case in ("zmatrix_super", "zmatrix_sub", "far_super") for tol in (1e-8, 1e-3, 0.1)
] + [("logistic", 1e-8)])
def test_run_comparison_classes_are_classify_point_of_each_iterate(case, tol):
    if case == "logistic":
        p = logistic_problem([[1.0], [2.0], [-0.5]], [1.0, 1.0, -1.0], lam=0.1)
        x0 = find_supersolution(p, seed=1)
    elif case == "far_super":
        # A start far above the minimizer: the iterates' sup norms, and so
        # their tolerances, shrink by orders of magnitude along the run.
        p = gen_zmatrix_quadratic(8, seed=25)
        x0 = 2.0 ** 30 * np.ones(8)
    else:
        p = gen_zmatrix_quadratic(8, seed=21)
        x0 = find_subsolution(p, seed=21) if case == "zmatrix_sub" else find_supersolution(p, 21)
    report = run_comparison(p, x0, K=120, tol=tol)
    traces = [report.traces[alg] for alg in ("gd", "ccd", "ccm")]
    kinds = set()
    for r in report.records:
        want = tuple(
            classify_point(p, t.iterates[r.k], tol * (1.0 + np.max(np.abs(t.iterates[r.k])))).kind
            for t in traces
        )
        assert r.classes == want, r.k
        kinds.update(want)
    assert report.verdict
    # Both the start's kind and EXACT occur, so a tolerance or gradient taken
    # from the wrong row would show.
    assert kinds == {report.start.kind, Kind.EXACT}


def test_run_comparison_negative_control_refuses():
    p = neg_control_problem()
    assert classify_point(p, [1.0, 1.0]).kind is Kind.SUPERSOLUTION
    with pytest.raises(PreconditionError):
        run_comparison(p, [1.0, 1.0], K=5)


def test_run_comparison_negative_control_report_only():
    # Reported, not asserted: from either start the iterates leave the
    # predicted order at k = 1, while the rate bound still holds.
    p = neg_control_problem()
    for x0, kind in (([1.0, 1.0], Kind.SUPERSOLUTION), ([-1.0, -1.0], Kind.SUBSOLUTION)):
        report = run_comparison(p, x0, K=5, report_only=True)
        assert not report.isotonicity_ok
        assert report.start.kind is kind
        assert [r.k for r in report.records] == list(range(6))
        assert report.records[0].all_ok
        for r in report.records[1:]:
            assert not r.dominance_ok, r.k
            assert not r.f_order_ok, r.k
            assert not r.persistence_ok, r.k
            assert r.rate_ok, r.k
        assert report.verdict is False


def test_monotone_iterates_and_the_bracket_of_x_star_fail_on_the_negative_control():
    # Outside isotonicity ccd and ccm overshoot x* from either start: by
    # iterate 3 each has stepped against the predicted direction and
    # crossed x*.
    p = neg_control_problem()
    for x0, sign in (([1.0, 1.0], 1.0), ([-1.0, -1.0], -1.0)):
        report = run_comparison(p, x0, K=5, report_only=True)
        for alg in ("ccd", "ccm"):
            monotone, bracket = monotone_and_bracket(report.traces[alg].iterates,
                                                     report.reference.x_star, sign)
            assert not monotone[:3].all(), (x0, alg)
            assert not bracket[:4].all(), (x0, alg)


def reference_records(p, report, x0, tol):
    """The verdicts of ``report`` made one iteration and one iterate at a time.

    A plain reference for run_comparison's array verdicts, given the same
    traces, reference solution and start: classify_point on each iterate,
    and the rate flag as the conjunction of rate_check on each trace.
    """
    traces = [report.traces[alg] for alg in ("gd", "ccd", "ccm")]
    ref = report.reference
    base = p.lipschitz * float(np.sum((ref.x_star - np.asarray(x0, dtype=float)) ** 2)) / 2.0
    rate = [all(flags) for flags in zip(*(rate_check(t, ref, x0, p.lipschitz) for t in traces))]
    from_above = report.start.kind is not Kind.SUBSOLUTION
    records = []
    for k in range(len(traces[0].iterates)):
        xk, yk, zk = (t.iterates[k] for t in traces)
        norms = [float(np.max(np.abs(w))) for w in (xk, yk, zk)]
        gap = tol * (1.0 + max(norms))
        if from_above:
            dominance = bool(np.all(zk <= yk + gap) and np.all(yk <= xk + gap))
        else:
            dominance = bool(np.all(zk >= yk - gap) and np.all(yk >= xk - gap))
        f_gd, f_ccd, f_ccm = (t.f_values[k] for t in traces)
        f_gap = tol * (1.0 + abs(f_gd))
        classes = tuple(
            classify_point(p, w, tol * (1.0 + n)).kind for w, n in zip((xk, yk, zk), norms)
        )
        records.append(IterationRecord(
            k=k,
            f_gd=f_gd,
            f_ccd=f_ccd,
            f_ccm=f_ccm,
            bound=math.inf if k == 0 else ref.f_star + base / k,
            dominance_ok=dominance,
            f_order_ok=(f_ccm <= f_ccd + f_gap) and (f_ccd <= f_gd + f_gap),
            rate_ok=True if k == 0 else rate[k - 1],
            classes=classes,
            persistence_ok=all(c is report.start.kind or c is Kind.EXACT for c in classes),
        ))
    return records


def assert_records_match_reference(p, report, x0, tol):
    assert report.records == reference_records(p, report, x0, tol)
    for r in report.records:
        # Python scalars, as json.dump and `is True` checks need.
        assert type(r.k) is int
        assert {type(v) for v in (r.f_gd, r.f_ccd, r.f_ccm, r.bound)} == {float}
        assert {type(v) for v in (r.dominance_ok, r.f_order_ok, r.rate_ok,
                                  r.persistence_ok)} == {bool}
        assert type(r.classes) is tuple


def differential_cases():
    # Ten instances of the acceptance mix (d = 2 + seed % 19, density by
    # seed % 5), spread over its dimensions and densities, from both starts.
    for seed in (11 * i % 50 for i in range(10)):
        p = acceptance_instance(seed)
        yield f"mix{seed}-super", p, find_supersolution(p, seed=seed), 200, 1e-8
        yield f"mix{seed}-sub", p, find_subsolution(p, seed=seed), 200, 1e-8
    yield "far_super", gen_zmatrix_quadratic(8, seed=25), 2.0 ** 30 * np.ones(8), 120, 1e-8
    p = logistic_problem([[1.0], [2.0], [-0.5]], [1.0, 1.0, -1.0], lam=0.1)
    yield "logistic-super", p, find_supersolution(p, seed=1), 60, 1e-8
    yield "logistic-sub", p, find_subsolution(p, seed=1), 60, 1e-8
    # Negative controls, where the dominance, F-order and persistence
    # flags are False; at tol = 0.2 some dominance flags hold only by the
    # gap from the largest sup norm of the three iterates.
    yield "neg-super", neg_control_problem(), [1.0, 1.0], 5, 1e-8
    yield "neg-sub", neg_control_problem(), [-1.0, -1.0], 5, 1e-8
    yield "neg-sub-loose", neg_control_problem(), [-1.0, -1.0], 5, 0.2


def test_run_comparison_verdicts_match_the_per_iteration_reference():
    flags = set()
    for label, p, x0, K, tol in differential_cases():
        report = run_comparison(p, x0, K=K, tol=tol, report_only=label.startswith("neg"))
        assert len(report.records) == K + 1, label
        assert_records_match_reference(p, report, x0, tol)
        flags.update((r.dominance_ok, r.f_order_ok, r.persistence_ok) for r in report.records)
    assert {(True, True, True), (False, False, False)} <= flags


def test_rate_bound_is_checked_for_ccm():
    # Outside isotonicity (every off-diagonal of A is +0.3), cyclic ccm can
    # converge more slowly than gd: it goes over the L ||x* - x0||^2 / (2k)
    # bound from k = 33 while gd stays far below it.
    d = 200
    p = quadratic_problem(0.7 * np.eye(d) + 0.3 * np.ones((d, d)),
                          np.random.default_rng(200).uniform(-1.0, 1.0, d), lam=0.01)
    x0 = 10.0 * np.ones(d)
    report = run_comparison(p, x0, K=40, report_only=True)
    assert [r.k for r in report.records if not r.rate_ok] == list(range(33, 41))
    assert all(rate_check(report.traces["gd"], report.reference, x0, p.lipschitz))
    assert not all(rate_check(report.traces["ccm"], report.reference, x0, p.lipschitz))
    assert report.verdict is False
    assert_records_match_reference(p, report, x0, 1e-8)


def test_report_serialization(tmp_path):
    p = gen_zmatrix_quadratic(4, seed=5)
    x0 = find_supersolution(p, seed=5)
    report = run_comparison(p, x0, K=8)
    jpath, cpath = tmp_path / "report.json", tmp_path / "summary.csv"
    report.write_json(jpath)
    report.write_summary_csv(cpath)
    data = json.loads(jpath.read_text())
    assert data["verdict"] is True
    assert data["start_kind"] == "supersolution"
    assert len(data["per_iteration"]) == 9
    assert data["per_iteration"][0]["bound"] is None
    lines = cpath.read_text().strip().splitlines()
    assert lines[0] == "k,F_gd,F_ccd,F_ccm,bound,dominance_ok"
    assert len(lines) == 10


def plain_write_json(report, path):
    # The plain writer: the whole report as one dict through json.dump.
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_json_dict(), fh, indent=2)
        fh.write("\n")


def plain_write_summary_csv(report, path):
    # The plain writer: one f-string per value.
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("k,F_gd,F_ccd,F_ccm,bound,dominance_ok\n")
        for r in report.records:
            fh.write(f"{r.k},{r.f_gd:.17g},{r.f_ccd:.17g},{r.f_ccm:.17g},"
                     f"{r.bound:.17g},{int(r.dominance_ok)}\n")


def test_report_writers_match_plain_reference_byte_for_byte(tmp_path, renderer, monkeypatch):
    # Reports as `l1lab verify` makes them, from both starts; the negative
    # control, whose predicates fail; and K = 600, whose per_iteration is
    # written in two pieces of _RECORD_CHUNK records.
    p = gen_zmatrix_quadratic(40, seed=3)
    small = gen_zmatrix_quadratic(5, seed=8)
    cases = [(p, find(p, seed=3), 60, False) for find in (find_supersolution, find_subsolution)]
    cases += [(neg_control_problem(), [1.0, 1.0], 5, True),
              (small, find_supersolution(small, 8), 600, False)]
    reports = [run_comparison(q, x0, K=K, report_only=only) for q, x0, K, only in cases]
    assert _RECORD_CHUNK < 601 <= 2 * _RECORD_CHUNK
    # The writers and the verdict read the columns, not the records.
    with monkeypatch.context() as m:
        m.setattr(ComparisonReport, "records", property(lambda _: pytest.fail("records read")))
        assert [r.verdict for r in reports] == [True, True, False, True]
        for i, report in enumerate(reports):
            report.write_json(tmp_path / f"{i}.report.json")
            report.write_summary_csv(tmp_path / f"{i}.summary.csv")
    assert reports[0].records[0].bound == math.inf
    for i, ((q, x0, _, _), report) in enumerate(zip(cases, reports)):
        assert_records_match_reference(q, report, x0, 1e-8)
        for plain, name in ((plain_write_json, "report.json"),
                            (plain_write_summary_csv, "summary.csv")):
            got, want = tmp_path / f"{i}.{name}", tmp_path / f"{i}.plain.{name}"
            plain(report, want)
            assert got.read_bytes() == want.read_bytes(), (i, name)
