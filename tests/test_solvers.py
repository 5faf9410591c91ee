import json
import warnings

import numpy as np
import pytest

import l1lab.solvers
from l1lab import (
    Assumption2Error,
    NonFiniteIterateError,
    PreconditionError,
    SolverConfig,
    UnboundedBelowError,
    gen_zmatrix_quadratic,
    logistic_problem,
    objective,
    optimality_residual,
    prox_gradient_map,
    quadratic_problem,
    run,
    secant_tau,
    solve_1d_prox,
)
from l1lab.solvers import CoordinateKernel
from tests.conftest import grid_refine_minimum


def soft(a, t):
    if a > t:
        return a - t
    if a < -t:
        return a + t
    return 0.0


# ---------------------------------------------------------------------------
# gd
# ---------------------------------------------------------------------------

def test_gd_step_examples(shifted_scalar_quad):
    assert prox_gradient_map(shifted_scalar_quad, [0.0])[0] == 3.0
    assert prox_gradient_map(shifted_scalar_quad, [3.0])[0] == 3.0


def test_gd_step_unregularized_is_plain_gradient_step():
    p = quadratic_problem([[1.0]], [0.0], lam=0.0, lipschitz=1.0)
    assert prox_gradient_map(p, [1.0])[0] == 0.0


def test_gd_computes_one_prox_gradient_image_per_iterate(monkeypatch):
    # The image at x_k gives both the residual max|x_k - T(x_k)| and x_{k+1}.
    p = gen_zmatrix_quadratic(6, seed=4)
    x0 = np.linspace(-2.0, 2.0, 6)
    calls = []

    def counted(q, x):
        calls.append(1)
        return prox_gradient_map(q, x)

    monkeypatch.setattr(l1lab.solvers, "prox_gradient_map", counted)
    K = 25
    trace = run("gd", p, x0, SolverConfig(max_outer_iters=K))
    assert len(calls) == K + 1
    x = x0
    for k in range(K + 1):
        np.testing.assert_array_equal(trace.iterates[k], x)
        assert trace.f_values[k] == objective(p, x)
        assert trace.residuals[k] == optimality_residual(p, x)
        x = prox_gradient_map(p, x)


# ---------------------------------------------------------------------------
# ccd
# ---------------------------------------------------------------------------

def test_ccd_sweep_equals_gd_step_on_separable_problem():
    p = quadratic_problem(np.diag([1.0, 1.0]), [-1.0, -2.0], lam=0.0, lipschitz=1.0)
    swept = CoordinateKernel(p, "ccd").sweep(np.array([0.0, 0.0]))
    np.testing.assert_allclose(swept, [1.0, 2.0])
    np.testing.assert_allclose(prox_gradient_map(p, [0.0, 0.0]), swept)


def test_ccd_sweep_equals_gd_step_for_one_dimension(shifted_scalar_quad):
    swept = CoordinateKernel(shifted_scalar_quad, "ccd").sweep(np.array([0.0]))
    np.testing.assert_array_equal(swept, prox_gradient_map(shifted_scalar_quad, [0.0]))


def test_ccd_sweep_uses_refreshed_gradient():
    # hand-rolled scalar oracle for one in-place sweep
    p = quadratic_problem([[2.0, -1.0], [-1.0, 2.0]], [-1.0, -1.0], lam=0.1, lipschitz=3.0)
    L, lam = 3.0, 0.1
    y1 = soft(1.0 - (2.0 * 1.0 - 1.0 * 1.0 - 1.0) / L, lam / L)
    y2 = soft(1.0 - (-1.0 * y1 + 2.0 * 1.0 - 1.0) / L, lam / L)
    swept = CoordinateKernel(p, "ccd").sweep(np.array([1.0, 1.0]))
    np.testing.assert_allclose(swept, [y1, y2], rtol=0, atol=1e-15)
    # differs from the simultaneous update
    assert not np.allclose(swept, prox_gradient_map(p, [1.0, 1.0]))


def test_ccd_sweep_records_inner_iterates():
    p = quadratic_problem([[2.0, -1.0], [-1.0, 2.0]], [-1.0, -1.0], lam=0.1, lipschitz=3.0)
    inner = []
    swept = CoordinateKernel(p, "ccd").sweep(np.array([1.0, 1.0]), inner=inner)
    assert len(inner) == 3
    np.testing.assert_array_equal(inner[0], [1.0, 1.0])
    np.testing.assert_array_equal(inner[-1], swept)
    assert inner[1][1] == 1.0  # second coordinate untouched after first update


# ---------------------------------------------------------------------------
# ccm
# ---------------------------------------------------------------------------

def test_ccm_sweep_scalar_solves_exactly(shifted_scalar_quad):
    for start in (-7.0, 0.0, 11.0):
        z = CoordinateKernel(shifted_scalar_quad, "ccm").sweep(np.array([start]))
        assert z[0] == 3.0


def test_ccm_sweep_separable_reaches_minimizer():
    p = quadratic_problem(np.diag([2.0, 4.0]), [-2.0, -4.0], lam=0.0, lipschitz=4.0)
    z = CoordinateKernel(p, "ccm").sweep(np.array([0.0, 0.0]))
    np.testing.assert_allclose(z, [1.0, 1.0])


def test_ccm_sweep_logistic_matches_grid_oracle():
    p = logistic_problem([[1.0], [1.0]], [1.0, 1.0], lam=0.1)
    taus = []
    z = CoordinateKernel(p, "ccm").sweep(np.array([0.0]), 0, taus)
    oracle = grid_refine_minimum(lambda a: objective(p, [a]), -5.0, 5.0, levels=4)
    assert z[0] == pytest.approx(oracle, abs=1e-6)
    assert len(taus) == 1


def test_ccm_sweep_rejects_zero_diagonal():
    p = quadratic_problem([[0.0]], [0.0], lam=0.1, lipschitz=1.0)
    with pytest.raises(Assumption2Error):
        CoordinateKernel(p, "ccm").sweep(np.array([1.0]))


def test_ccm_matches_1d_prox_on_random_coordinate_problems():
    rng = np.random.default_rng(12)
    for _ in range(200):
        a = rng.uniform(0.1, 10.0)
        r = rng.uniform(-10.0, 10.0)
        lam = rng.uniform(0.0, 2.0)
        z = rng.uniform(-3.0, 3.0)
        closed = soft(z - (a * z + r) / a, lam / a)
        numeric = solve_1d_prox(lambda t: a * t + r, lam)
        assert abs(closed - numeric) <= 1e-10


# ---------------------------------------------------------------------------
# 1-D prox minimizer
# ---------------------------------------------------------------------------

def test_solve_1d_prox_three_cases():
    assert solve_1d_prox(lambda a: a - 4, 1.0) == pytest.approx(3.0, abs=1e-11)
    assert solve_1d_prox(lambda a: a, 1.0) == 0.0
    assert solve_1d_prox(lambda a: a + 4, 1.0) == pytest.approx(-3.0, abs=1e-11)


def test_solve_1d_prox_unbounded_below():
    with pytest.raises(UnboundedBelowError):
        solve_1d_prox(lambda a: -2.0, 1.0)


# ---------------------------------------------------------------------------
# secant threshold diagnostic
# ---------------------------------------------------------------------------

def test_secant_tau_equals_curvature_for_quadratic():
    g_deriv = lambda a: 2.5 * a + 1.7
    assert secant_tau(g_deriv, 0.3, -0.9) == pytest.approx(2.5, abs=1e-12)
    assert secant_tau(lambda a: a, 3.0, 1.0) == 1.0


def test_secant_tau_rejects_trivial_update():
    with pytest.raises(PreconditionError):
        secant_tau(lambda a: a, 1.0, 1.0)


def test_ccm_tau_records_satisfy_shrink_representation():
    p = logistic_problem([[1.0], [2.0], [-1.0]], [1.0, 1.0, -1.0], lam=0.05)
    taus = []
    CoordinateKernel(p, "ccm").sweep(np.array([2.0]), 0, taus)
    assert taus, "expected a non-trivial update"
    for rec in taus:
        assert 0.0 < rec.tau <= p.lipschitz * (1.0 + 1e-8)
        rebuilt = soft(rec.z_old - rec.grad_old / rec.tau, p.lam / rec.tau)
        assert abs(rebuilt - rec.z_new) <= 1e-8


def test_ccm_quadratic_tau_is_diagonal_entry():
    p = gen_zmatrix_quadratic(4, seed=6)
    taus = []
    CoordinateKernel(p, "ccm").sweep(np.ones(4) * 2.0, 0, taus)
    for rec in taus:
        assert rec.tau == p.smooth.A[rec.j, rec.j]


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_run_gd_scalar_iterates():
    p = quadratic_problem([[1.0]], [0.0], lam=0.0, lipschitz=1.0)
    trace = run("gd", p, [1.0], SolverConfig(max_outer_iters=5))
    got = [x[0] for x in trace.iterates]
    assert got == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    assert trace.f_values[0] == 0.5 and trace.f_values[1] == 0.0


def test_run_ccm_separable_converges_in_one_sweep():
    p = quadratic_problem(np.diag([2.0, 4.0]), [-2.0, -4.0], lam=0.0, lipschitz=4.0)
    trace = run("ccm", p, [0.0, 0.0], SolverConfig(max_outer_iters=3))
    np.testing.assert_allclose(trace.iterates[1], [1.0, 1.0])
    assert trace.residuals[1] <= 1e-12


def test_run_descent_on_generated_instance():
    from l1lab import find_supersolution

    p = gen_zmatrix_quadratic(5, seed=8)
    x0 = find_supersolution(p, seed=8)
    for alg in ("gd", "ccd", "ccm"):
        trace = run(alg, p, x0, SolverConfig(max_outer_iters=40))
        assert trace.descent_ok(1e-12)
        assert len(trace.f_values) == len(trace.iterates) == 41


def test_run_stop_residual_stops_early():
    p = quadratic_problem([[1.0]], [-4.0], lam=1.0, lipschitz=1.0)
    trace = run("gd", p, [0.0], SolverConfig(max_outer_iters=50, stop_residual=1e-6))
    assert len(trace.iterates) < 51
    assert trace.residuals[-1] <= 1e-6


def test_run_detects_non_finite_iterates():
    p = quadratic_problem([[1.0]], [-1.0], lam=0.0, lipschitz=1e-300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteIterateError) as exc:
            run("gd", p, [0.0], SolverConfig(max_outer_iters=5))
    assert exc.value.iteration >= 1

    # A step constant far below the true L makes gd and ccd diverge: the
    # error names the first iteration whose iterate, F or residual is not
    # finite, and no overflow warning escapes.
    p = quadratic_problem([[2.0, -1.0], [-1.0, 2.0]], [0.5, -0.3], lam=0.1, lipschitz=1e-3)
    for alg in ("gd", "ccd"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteIterateError) as exc:
                run(alg, p, [0.0, 0.0], SolverConfig(max_outer_iters=400))
            k = exc.value.iteration
            assert 1 <= k < 400 and f"iteration {k}" in str(exc.value)
            before = run(alg, p, [0.0, 0.0], SolverConfig(max_outer_iters=k - 1))
        assert np.isfinite(before.f_values).all() and np.isfinite(before.residuals).all()


def test_run_rejects_unknown_algorithm():
    p = quadratic_problem([[1.0]], [0.0], lam=0.0, lipschitz=1.0)
    with pytest.raises(ValueError):
        run("newton", p, [0.0])


def test_d1_gd_and_ccd_produce_identical_sequences():
    rng = np.random.default_rng(21)
    for _ in range(10):
        a = rng.uniform(0.5, 4.0)
        b = rng.uniform(-2.0, 2.0)
        lam = rng.uniform(0.0, 1.0)
        p = quadratic_problem([[a]], [b], lam=lam, lipschitz=a)
        x0 = [rng.uniform(-3.0, 3.0)]
        cfg = SolverConfig(max_outer_iters=15)
        ta = run("gd", p, x0, cfg)
        tb = run("ccd", p, x0, cfg)
        for xa, xb in zip(ta.iterates, tb.iterates):
            np.testing.assert_array_equal(xa, xb)


def test_diagonal_gd_and_ccd_coincide_sweep_for_step():
    p = quadratic_problem(np.diag([1.0, 2.0, 0.5]), [-1.0, 1.0, 0.2], lam=0.3, lipschitz=2.0)
    cfg = SolverConfig(max_outer_iters=12)
    ta = run("gd", p, [2.0, -2.0, 1.0], cfg)
    tb = run("ccd", p, [2.0, -2.0, 1.0], cfg)
    for xa, xb in zip(ta.iterates, tb.iterates):
        np.testing.assert_allclose(xa, xb, atol=1e-15)


# ---------------------------------------------------------------------------
# trace serialization
# ---------------------------------------------------------------------------

def test_trace_csv_and_json(tmp_path):
    p = quadratic_problem(np.diag([1.0, 2.0]), [-1.0, -2.0], lam=0.1, lipschitz=2.0)
    trace = run("ccm", p, [1.0, 1.0], SolverConfig(max_outer_iters=4, record_inner=True))
    csv_path = tmp_path / "trace.csv"
    trace.write_csv(csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "k,F,residual,x_1,x_2"
    assert len(lines) == len(trace.iterates) + 1

    json_path = tmp_path / "trace.json"
    trace.write_json(json_path)
    data = json.loads(json_path.read_text())
    assert data["algorithm"] == "ccm"
    np.testing.assert_allclose(data["iterates"][2], trace.iterates[2])
    assert len(data["inner"]) == len(trace.iterates) - 1
    assert all(len(sweep) == p.dim + 1 for sweep in data["inner"])
    assert data["tau_log"] is not None


def test_trace_csv_deterministic(tmp_path):
    p = gen_zmatrix_quadratic(3, seed=5)
    a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
    run("ccd", p, np.ones(3), SolverConfig(max_outer_iters=7)).write_csv(a_path)
    run("ccd", p, np.ones(3), SolverConfig(max_outer_iters=7)).write_csv(b_path)
    assert a_path.read_bytes() == b_path.read_bytes()
