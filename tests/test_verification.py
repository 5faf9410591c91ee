import json

import numpy as np
import pytest

from l1lab import (
    Kind,
    PreconditionError,
    SolverConfig,
    check_objective_ordering,
    classify_point,
    find_subsolution,
    find_supersolution,
    gen_zmatrix_quadratic,
    lasso_build,
    logistic_problem,
    objective,
    quadratic_problem,
    rate_check,
    reference_minimizer,
    run,
    run_comparison,
)

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


def test_check_objective_ordering_preconditions():
    p = quadratic_problem(np.eye(2), [-1.0, -1.0], lam=0.1, lipschitz=1.0)
    with pytest.raises(PreconditionError):
        check_objective_ordering(p, [2.0, -2.0], [3.0, 3.0])  # neither point
    with pytest.raises(PreconditionError):
        check_objective_ordering(quadratic_problem([[1.0]], [0.0], 1.0, 1.0), [3.0], [1.0])


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
    p = neg_control_problem()
    report = run_comparison(p, [1.0, 1.0], K=5, report_only=True)
    assert not report.isotonicity_ok
    assert len(report.records) == 6  # reported, not asserted


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
