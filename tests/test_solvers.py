import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from l1lab import (
    Assumption2Error,
    ConvergenceError,
    NonFiniteIterateError,
    SolverConfig,
    UnboundedBelowError,
    ccm_tau_log,
    f_grad,
    gen_zmatrix_quadratic,
    inner_iterates,
    logistic_problem,
    objective,
    optimality_residual,
    prox_gradient_map,
    quadratic_problem,
    run,
    save_problem,
    solve_1d_prox,
)
from l1lab import _qsweep
from l1lab.cli import main
from l1lab.solvers import CoordinateKernel, TauRecord, Trace, compiled_step
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


class CountedMatrix(np.ndarray):
    """A view of a matrix that appends to ``rows`` the number of points of
    every product it takes part in as the first operand of np.matmul."""

    rows = None

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul and inputs[0] is self:
            other = np.asarray(inputs[1])
            self.rows.append(1 if other.ndim == 1 else math.prod(other.shape[:-2]))
        inputs = tuple(x.view(np.ndarray) if isinstance(x, CountedMatrix) else x
                       for x in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)


def count_products(p):
    """Count the products of p's quadratic matrix, as a list of points per product."""
    A = p.smooth.A.view(CountedMatrix)
    A.rows = []
    object.__setattr__(p.smooth, "A", A)
    return A.rows


def count_blocks(m):
    """Record (k0, k1) of every qblock call, its last two arguments: it
    makes rows k0 + 1..k1 and the product of each."""
    lib = _qsweep.load()
    original, blocks = lib.qblock, []

    def counted(*args):
        blocks.append(args[-2:])
        return original(*args)

    m.setattr(lib, "qblock", counted)
    return blocks


def rows_made(blocks):
    """The rows the qblock calls made, in call order."""
    return [k for k0, k1 in blocks for k in range(k0 + 1, k1 + 1)]


def count_numpy_steps(m, p, alg):
    """Record a 1 for every numpy step of ccd or ccm on p (a CoordinateKernel
    sweep) and every numpy measurement of gd (a values_and_grads call
    without products). gd steps to the image of its last measurement, so
    a numpy gd run makes one step fewer than it measures rows."""
    if alg == "gd":
        cls, name = type(p.smooth), "values_and_grads"
    else:
        cls, name = CoordinateKernel, "sweep"
    original, steps = getattr(cls, name), []

    def counted(*args):
        if alg != "gd" or len(args) == 2:
            steps.append(1)
        return original(*args)

    m.setattr(cls, name, counted)
    return steps


def test_gd_takes_one_gradient_per_iterate(monkeypatch, kernel):
    # On the numpy path each iterate x_k is measured by its own one-row
    # values_and_grads call, which gives F, the gradient, the image T(x_k)
    # and the residual, and gd steps to that image: one product A x per
    # iterate and no grad call. On the compiled path each iterate's product
    # A x_k is formed once, and both the step and one values_and_grads call
    # of all the iterates take it: np.matmul forms x_0's, and one qblock
    # call makes x_1..x_K with their products.
    p = gen_zmatrix_quadratic(6, seed=4)
    x0 = np.linspace(-2.0, 2.0, 6)
    calls = []
    cls = type(p.smooth)
    products = count_products(p)

    def counted(name):
        original = getattr(cls, name)

        def wrapper(self, *args):
            calls.append((name, len(args)))
            return original(self, *args)

        m.setattr(cls, name, wrapper)

    K = 25
    with monkeypatch.context() as m:
        for name in ("value", "grad", "values_and_grads"):
            counted(name)
        blocks = count_blocks(m) if kernel == "compiled" else []
        trace = run("gd", p, x0, SolverConfig(max_outer_iters=K))
    if kernel == "numpy":
        assert calls == [("values_and_grads", 1)] * (K + 1)
        assert products == [1] * (K + 1)
    else:
        assert calls == [("values_and_grads", 2)]
        assert products == [1]
        assert blocks == [(0, K)]
    x = x0
    for k in range(K + 1):
        assert trace.iterates[k].tobytes() == x.tobytes()
        assert trace.f_values[k] == objective(p, x)
        assert trace.residuals[k] == optimality_residual(p, x)
        x = prox_gradient_map(p, x)


@pytest.mark.parametrize("alg", ["ccd", "ccm"])
def test_a_quadratic_sweep_forms_one_product_per_iterate(alg, kernel, monkeypatch):
    # The numpy path takes the gradient at the start of each sweep and again
    # for the measurement of each iterate, with and without a stop rule; the
    # compiled path forms each product once: the start's by np.matmul and
    # every later one in the qblock call that makes its row, all rows in one
    # call without a stop rule and one per call with one.
    K = 25
    p = gen_zmatrix_quadratic(6, seed=4)
    products = count_products(p)
    for stop in (0.0, NEVER_STOPS):
        products.clear()
        with monkeypatch.context() as m:
            blocks = count_blocks(m) if kernel == "compiled" else []
            run(alg, p, np.linspace(-2.0, 2.0, 6), SolverConfig(max_outer_iters=K,
                                                                 stop_residual=stop))
        if kernel == "numpy":
            assert products == [1, 1] * K + [1]
        else:
            assert products == [1]
            assert rows_made(blocks) == list(range(1, K + 1))
            assert len(blocks) == (1 if stop == 0.0 else K)


@pytest.mark.parametrize("alg", ["gd", "ccd", "ccm"])
def test_a_run_without_a_stop_rule_measures_once_on_the_compiled_path(alg, kernel, monkeypatch):
    # A compiled run makes its K rows in one qblock call and measures all
    # K + 1 in one values_and_grads call; the numpy path measures each row
    # before it makes the next.
    K, p = 200, gen_zmatrix_quadratic(8, seed=3)
    sizes = []
    original = type(p.smooth).values_and_grads

    def counted(self, W, *args):
        sizes.append(len(W))
        return original(self, W, *args)

    with monkeypatch.context() as m:
        m.setattr(type(p.smooth), "values_and_grads", counted)
        blocks = count_blocks(m) if kernel == "compiled" else []
        run(alg, p, np.linspace(2.0, -1.0, p.dim), SolverConfig(max_outer_iters=K))
    if kernel == "compiled":
        assert sizes == [K + 1]
        assert blocks == [(0, K)]
    else:
        assert sizes == [1] * (K + 1)


def test_l1lab_run_of_ccm_on_a_quadratic_makes_its_rows_in_one_qblock_call(
        tmp_path, monkeypatch):
    # The trace file's tau log is derived from the iterates after the run,
    # so the ccm run takes the compiled steps as every other run does.
    if _qsweep.load() is None:
        pytest.skip("the compiled steps cannot be built here")
    K, prob = 30, tmp_path / "p.json"
    save_problem(gen_zmatrix_quadratic(8, seed=3), prob)
    with monkeypatch.context() as m:
        blocks = count_blocks(m)
        assert main(["run", "--problem", str(prob), "--alg", "ccm", "--iters", str(K),
                     "--start", "super", "--out-dir", str(tmp_path)]) == 0
    assert blocks == [(0, K)]
    data = json.loads((tmp_path / "trace_ccm.json").read_text())
    assert len(data["iterates"]) == K + 1 and data["tau_log"]


@pytest.mark.parametrize("alg", ["gd", "ccd", "ccm"])
def test_trace_gradients_are_f_grad_of_each_iterate(alg):
    rng = np.random.default_rng(3)
    X = rng.standard_normal((40, 5))
    logistic = logistic_problem(X, np.where(rng.random(40) < 0.5, -1.0, 1.0), lam=0.05)
    for p in (gen_zmatrix_quadratic(7, seed=2), logistic):
        trace = run(alg, p, np.linspace(-1.0, 2.0, p.dim), SolverConfig(max_outer_iters=15))
        assert len(trace.gradients) == len(trace.iterates) == 16
        for x, g in zip(trace.iterates, trace.gradients):
            assert g.tobytes() == f_grad(p, x).tobytes()


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
    trace = run("ccd", p, [1.0, 1.0], SolverConfig(max_outer_iters=1))
    inner = inner_iterates(trace.iterates)[0]
    assert len(inner) == 3
    np.testing.assert_array_equal(inner[0], [1.0, 1.0])
    np.testing.assert_array_equal(inner[-1], trace.iterates[1])
    assert inner[1][1] == 1.0  # second coordinate untouched after first update


def replay_quadratic_ccd(p, x0, K):
    """The within-sweep points of K ccd sweeps, one coordinate step at a time."""
    A, b = p.smooth.A, p.smooth.b
    w, sweeps = np.array(x0, dtype=float), []
    for _ in range(K):
        points = [w.copy()]
        for j in range(p.dim):
            w[j] = soft(w[j] - (A[j] @ w + b[j]) / p.lipschitz, p.lam / p.lipschitz)
            points.append(w.copy())
        sweeps.append(points)
    return np.array(sweeps)


@pytest.mark.parametrize("alg", ["ccd", "ccm"])
def test_inner_iterates_are_the_sweeps_coordinate_steps(alg):
    # inner_iterates derives the within-sweep points from the iterates: one
    # sweep changes each coordinate once, in order.
    K = 12
    for p in (gen_zmatrix_quadratic(7, seed=5), small_logistic_problem()):
        d, x0 = p.dim, np.linspace(-1.0, 2.0, p.dim)
        for stop in (0.0, NEVER_STOPS):
            W = run(alg, p, x0, SolverConfig(max_outer_iters=K, stop_residual=stop)).iterates
            inner = inner_iterates(W)
            assert inner.shape == (len(W) - 1, d + 1, d) == (K, d + 1, d)
            for k, sweep in enumerate(inner):
                assert sweep[0].tobytes() == W[k].tobytes()
                assert sweep[d].tobytes() == W[k + 1].tobytes()
                for j in range(d):
                    moved = np.flatnonzero(sweep[j + 1] != sweep[j])
                    assert set(moved.tolist()) <= {j}
            if alg == "ccd" and p.smooth.kind == "quadratic":
                np.testing.assert_allclose(inner, replay_quadratic_ccd(p, x0, K),
                                           rtol=1e-12, atol=0.0)
    # run() itself leaves both diagnostics unset.
    for alg in ("gd", "ccd", "ccm"):
        trace = run(alg, p, x0, SolverConfig(max_outer_iters=K))
        assert trace.inner is None and trace.tau_log is None


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


@pytest.mark.parametrize("lam", [float("nan"), -1.0])
def test_solve_1d_prox_rejects_nan_and_negative_lam(lam):
    with pytest.raises(ValueError, match="lam must be nonnegative"):
        solve_1d_prox(lambda a: a - 4, lam)


def test_solve_1d_prox_unbounded_below():
    with pytest.raises(UnboundedBelowError):
        solve_1d_prox(lambda a: -2.0, 1.0)


# ---------------------------------------------------------------------------
# ccm's implicit shrinkage threshold (TauRecord)
# ---------------------------------------------------------------------------

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


def test_a_non_finite_iterate_is_named_before_its_objective_value():
    # ccd's second coordinate step overflows from a finite iterate 0 whose
    # F and residual are finite; iterate 1's F is not finite either (its l1
    # term is inf, or NaN at lam = 0), and the iterate is named.
    for lam in (0.1, 0.0):
        p = quadratic_problem([[2.0, -1.0], [-1.0, 2.0]], [0.5, -0.3], lam=lam,
                              lipschitz=1e-300)
        for stop in (0.0, NEVER_STOPS):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NonFiniteIterateError) as exc:
                    run("ccd", p, [0.0, 0.0], SolverConfig(max_outer_iters=5, stop_residual=stop))
            assert exc.value.iteration == 1
            assert str(exc.value) == "ccd produced a non-finite iterate at iteration 1"


def test_a_sweep_error_comes_after_the_fault_of_its_start(monkeypatch):
    # ccd diverges from the low-L case above, and its F first overflows at
    # iteration 26. A sweep that raises when it is handed a non-finite row
    # stands for a sweep that fails there (a 1-D solve that finds no root):
    # the error names the first bad iteration, not the sweep's failure.
    p = quadratic_problem([[2.0, -1.0], [-1.0, 2.0]], [0.5, -0.3], lam=0.1, lipschitz=1e-3)
    monkeypatch.setattr(_qsweep, "load", lambda: None)
    original = CoordinateKernel.sweep

    def sweep(self, w, *args):
        if not np.isfinite(w).all():
            raise ConvergenceError("sweep from a non-finite row")
        return original(self, w, *args)

    monkeypatch.setattr(CoordinateKernel, "sweep", sweep)
    for stop in (0.0, NEVER_STOPS):
        with pytest.raises(NonFiniteIterateError) as exc:
            run("ccd", p, [0.0, 0.0], SolverConfig(max_outer_iters=400, stop_residual=stop))
        assert (exc.value.iteration, str(exc.value)) == (
            26, "ccd produced a non-finite objective value at iteration 26")


def test_diverging_run_without_a_stop_rule_stops_at_its_fault(monkeypatch, kernel):
    # The low-L case above: F overflows at iteration 45. On the numpy path
    # a budget of 10**6 iterations raises the same fault: each row is
    # measured before the next is made, so gd makes exactly 45 steps (it
    # measures rows 0..45, one values_and_grads call each). At L = 0.25 F
    # overflows at iteration 149, and gd makes 149 steps. On the compiled
    # path one qblock call makes all K rows, stepping on through the inf
    # and NaN rows past the fault, and the one measurement after it names
    # the same fault.
    for lipschitz, fault in ((1e-3, 45), (0.25, 149)):
        p = quadratic_problem([[2.0, -1.0], [-1.0, 2.0]], [0.5, -0.3], lam=0.1,
                              lipschitz=lipschitz)
        for K in (400, 10 ** 6) if kernel == "numpy" else (400,):
            with monkeypatch.context() as m:
                if kernel == "numpy":
                    measured = count_numpy_steps(m, p, "gd")
                else:
                    blocks = count_blocks(m)
                with pytest.raises(NonFiniteIterateError) as exc:
                    run("gd", p, [0.0, 0.0], SolverConfig(max_outer_iters=K))
            assert (exc.value.iteration, str(exc.value)) == (
                fault, f"gd produced a non-finite objective value at iteration {fault}")
            if kernel == "numpy":
                # gd steps to each measured image but the faulty one's.
                assert len(measured) - 1 == fault
            else:
                assert blocks == [(0, K)]


@pytest.mark.parametrize("alg", ["gd", "ccd", "ccm"])
def test_a_run_near_overflow_is_one_compiled_call_with_the_numpy_bits(alg, monkeypatch):
    # x* = c (1, 1), and F stays at least -c^2 = -1.6e307 along the run from
    # 0, finite, while its term b . x comes within a factor of ten of
    # DBL_MAX. One qblock call makes the whole run, with the bits of the
    # numpy path.
    c, K = 4e153, 150
    p = quadratic_problem([[2.0, -1.0], [-1.0, 2.0]], [-c, -c], lam=0.0)
    if compiled_step(p, alg) is None:
        pytest.skip("the compiled steps cannot be had here")
    cfg = SolverConfig(max_outer_iters=K)
    with monkeypatch.context() as m:
        blocks, steps = count_blocks(m), count_numpy_steps(m, p, alg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compiled = run(alg, p, [0.0, 0.0], cfg)
    assert blocks == [(0, K)]
    assert steps == []
    assert np.isfinite(compiled.f_values).all()
    with monkeypatch.context() as m:
        m.setattr(_qsweep, "load", lambda: None)
        plain = run(alg, p, [0.0, 0.0], cfg)
    for name in ("iterates", "gradients", "f_values", "residuals"):
        got, want = getattr(compiled, name), getattr(plain, name)
        assert np.array(got).tobytes() == np.array(want).tobytes(), name


# A stop rule that cannot fire: no residual below is exactly zero.
NEVER_STOPS = 1e-300


def small_logistic_problem():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((60, 6))
    return logistic_problem(X, np.where(X @ rng.standard_normal(6) >= 0.0, 1.0, -1.0), 0.03)


@pytest.mark.parametrize("alg", ["gd", "ccd", "ccm"])
def test_stop_rule_path_measures_iterates_bitwise_like_fixed_path(alg):
    # Without a stop rule a compiled run measures all iterates in one pass
    # after the loop; every other run measures each iterate as it is made.
    K = 30
    for p in (gen_zmatrix_quadratic(9, seed=1), small_logistic_problem()):
        x0 = np.linspace(-1.5, 2.0, p.dim)
        fixed = run(alg, p, x0, SolverConfig(max_outer_iters=K))
        stopped = run(alg, p, x0, SolverConfig(max_outer_iters=K, stop_residual=NEVER_STOPS))
        assert len(stopped.iterates) == K + 1
        for name in ("iterates", "gradients"):
            got, want = getattr(stopped, name), getattr(fixed, name)
            assert got.shape == want.shape == (K + 1, p.dim)
            assert got.tobytes() == want.tobytes(), name
        for name in ("f_values", "residuals"):
            got, want = getattr(stopped, name), getattr(fixed, name)
            assert np.array(got).tobytes() == np.array(want).tobytes(), name
        # Both are the plain one-point formulas.
        for x, F, r in zip(fixed.iterates, fixed.f_values, fixed.residuals):
            assert F == objective(p, x) and r == optimality_residual(p, x)


def overflow_cases():
    """(alg, problem, x0, K, iteration, what) of runs that leave the floats."""
    # Overflowing steps: the test_run_detects_non_finite_iterates cases.
    tiny_L = quadratic_problem([[1.0]], [-1.0], lam=0.0, lipschitz=1e-300)
    yield "gd", tiny_L, [0.0], 5, None, None
    low_L = quadratic_problem([[2.0, -1.0], [-1.0, 2.0]], [0.5, -0.3], lam=0.1, lipschitz=1e-3)
    for alg in ("gd", "ccd"):
        yield alg, low_L, [0.0, 0.0], 400, None, None
    # F(x0) overflows while its gradient and image stay finite.
    unit = quadratic_problem([[1.0]], [0.0], lam=0.0, lipschitz=1.0)
    for alg in ("gd", "ccd", "ccm"):
        yield alg, unit, [1e155], 5, 0, "objective value"
    # F(x0) overflows in the logistic margins: the 1-D solve of the sweep from
    # x0 finds no root, and the fault at x0 is named first.
    margins = logistic_problem(np.array([[1.0], [2.0]]), np.array([1.0, -1.0]), 0.1)
    yield "ccm", margins, [1e308], 5, 0, "objective value"
    # F(x0) is finite but g / L, and so the image and the residual, are not;
    # gd's iterate 1 is not finite either, and the residual at 0 comes first.
    yield "gd", tiny_L, [1e10], 5, 0, "residual"


def test_both_paths_raise_the_same_non_finite_fault():
    for alg, p, x0, K, iteration, what in overflow_cases():
        errors = []
        for stop in (0.0, NEVER_STOPS):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NonFiniteIterateError) as exc:
                    run(alg, p, x0, SolverConfig(max_outer_iters=K, stop_residual=stop))
            errors.append((exc.value.iteration, str(exc.value)))
        assert errors[0] == errors[1], (alg, errors)
        if what is not None:
            assert errors[0] == (iteration, f"{alg} produced a non-finite {what} "
                                            f"at iteration {iteration}")


@pytest.mark.parametrize("alg", ["gd", "ccd", "ccm"])
def test_stop_rule_met_at_x0_gives_a_one_iterate_trace(alg):
    for p in (gen_zmatrix_quadratic(6, seed=2), small_logistic_problem()):
        x0 = np.linspace(-1.0, 1.5, p.dim)
        trace = run(alg, p, x0, SolverConfig(max_outer_iters=20, stop_residual=1e300))
        assert trace.iterates.shape == trace.gradients.shape == (1, p.dim)
        assert trace.iterates[0].tobytes() == x0.tobytes()
        assert trace.gradients[0].tobytes() == f_grad(p, x0).tobytes()
        assert trace.f_values == [objective(p, x0)]
        assert trace.residuals == [optimality_residual(p, x0)]


@pytest.mark.parametrize("alg", ["gd", "ccd", "ccm"])
def test_stop_rule_run_allocates_the_rows_it_uses_not_max_outer_iters(alg):
    # 10**12 rows could not be allocated: the iterate buffer grows with the run.
    p = quadratic_problem([[1.0]], [-4.0], lam=1.0, lipschitz=1.0)
    trace = run(alg, p, [0.0], SolverConfig(max_outer_iters=10 ** 12, stop_residual=1e-6))
    assert len(trace.iterates) < 10 and trace.residuals[-1] <= 1e-6
    buffer = trace.iterates if trace.iterates.base is None else trace.iterates.base
    assert buffer.nbytes <= 2 ** 16


@pytest.mark.parametrize("alg", ["gd", "ccd"])
def test_a_run_without_a_stop_rule_allocates_its_rows_before_its_first_step(alg, kernel,
                                                                            monkeypatch):
    # Without a stop rule the buffers hold all K + 1 rows from the start, on
    # both paths: 10**15 rows of d = 2 cannot be allocated, so the run fails
    # before any step, not at the fault (iteration 45 for gd) of this
    # diverging instance.
    p = quadratic_problem([[2.0, -1.0], [-1.0, 2.0]], [0.5, -0.3], lam=0.1, lipschitz=1e-3)
    with monkeypatch.context() as m:
        steps = count_blocks(m) if kernel == "compiled" else count_numpy_steps(m, p, alg)
        with pytest.raises(MemoryError):
            run(alg, p, [0.0, 0.0], SolverConfig(max_outer_iters=10 ** 15))
    assert steps == []


@pytest.mark.parametrize("alg", ["gd", "ccd", "ccm"])
def test_both_schedules_agree_after_the_iterate_buffer_grows(alg):
    # Without a stop rule the buffer holds all K + 1 rows from the start;
    # with one it doubles as it fills, and 200 iterations take it past its
    # first rows twice.
    K, p = 200, gen_zmatrix_quadratic(5, seed=6)
    x0 = np.linspace(2.0, -1.0, p.dim)
    fixed = run(alg, p, x0, SolverConfig(max_outer_iters=K))
    stopped = run(alg, p, x0, SolverConfig(max_outer_iters=K, stop_residual=NEVER_STOPS))
    for trace in (fixed, stopped):
        assert trace.iterates.shape == trace.gradients.shape == (K + 1, p.dim)
    for name in ("iterates", "gradients", "f_values", "residuals"):
        got, want = getattr(stopped, name), getattr(fixed, name)
        assert np.array(got).tobytes() == np.array(want).tobytes(), name
    for k in (0, 63, 64, 127, 128, K):
        x = fixed.iterates[k]
        assert fixed.f_values[k] == objective(p, x)
        assert fixed.residuals[k] == optimality_residual(p, x)


def test_descent_ok_takes_its_tolerance_relative_to_a_large_objective_value():
    # Near overflow (x* = 4e153 (1, 1), F* = -1.6e307) rounding alone makes
    # F rise by up to about 5e291, that is 3.1e-16 |F|: far past an
    # absolute 1e-12, well inside 1e-12 max(1, |F|).
    c = 4e153
    p = quadratic_problem([[2.0, -1.0], [-1.0, 2.0]], [-c, -c], lam=0.0)
    for alg in ("gd", "ccd", "ccm"):
        trace = run(alg, p, [0.0, 0.0], SolverConfig(max_outer_iters=150))
        assert np.diff(trace.f_values).max() > 1e-12, alg
        assert trace.descent_ok(1e-12), alg
    # The tolerance is absolute where |F| <= 1 and relative above.
    for F, held in (([0.5, 0.5 + 0.9e-12], True), ([0.5, 0.5 + 1.1e-12], False),
                    ([-1e300, -1e300 * (1.0 - 0.9e-12)], True),
                    ([-1e300, -1e300 * (1.0 - 1.1e-12)], False)):
        assert Trace("gd", [[0.0]] * 2, F, [0.0] * 2).descent_ok(1e-12) is held, F


def test_run_rejects_unknown_algorithm():
    p = quadratic_problem([[1.0]], [0.0], lam=0.0, lipschitz=1.0)
    with pytest.raises(ValueError):
        run("newton", p, [0.0])


def test_solver_config_rejects_a_nan_stop_residual():
    # stop > 0 is False for NaN, so run() would make all K iterations.
    with pytest.raises(ValueError, match="stop_residual must be nonnegative"):
        SolverConfig(stop_residual=float("nan"))
    with pytest.raises(ValueError, match="stop_residual must be nonnegative"):
        SolverConfig(stop_residual=-1e-9)


@pytest.mark.parametrize("iters", [2.5, float("nan"), 3.0, "5", 0, -2])
def test_solver_config_rejects_a_max_outer_iters_that_is_not_a_positive_integer(iters):
    with pytest.raises(ValueError, match="max_outer_iters must be an integer >= 1"):
        SolverConfig(max_outer_iters=iters)


@pytest.mark.parametrize("iters", [True, False, np.bool_(True)])
def test_solver_config_rejects_a_bool_max_outer_iters(iters):
    # bool is an int, so True used to pass as one iteration.
    with pytest.raises(ValueError, match="max_outer_iters must be an integer >= 1"):
        SolverConfig(max_outer_iters=iters)


def test_solver_config_takes_numpy_integers():
    p = quadratic_problem([[1.0]], [0.0], lam=0.0, lipschitz=1.0)
    trace = run("ccd", p, [1.0], SolverConfig(max_outer_iters=np.int64(3)))
    assert len(trace.f_values) == 4


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

def diagnosed(alg, p, x0, K, record_inner=False):
    """run() for K iterations with the diagnostics `l1lab run` writes: the
    inner iterates of ccd and ccm when record_inner, and ccm's tau log."""
    trace = run(alg, p, x0, SolverConfig(max_outer_iters=K))
    if record_inner and alg != "gd":
        trace.inner = inner_iterates(trace.iterates)
    if alg == "ccm":
        trace.tau_log = ccm_tau_log(p, trace.iterates)
    return trace


def test_trace_csv_and_json(tmp_path):
    p = quadratic_problem(np.diag([1.0, 2.0]), [-1.0, -2.0], lam=0.1, lipschitz=2.0)
    trace = diagnosed("ccm", p, [1.0, 1.0], 4, record_inner=True)
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
    for run_name in ("a", "b"):
        trace = diagnosed("ccm", p, np.ones(3), 7, record_inner=True)
        trace.write_csv(tmp_path / f"{run_name}.csv")
        trace.write_json(tmp_path / f"{run_name}.json")
    for ext in ("csv", "json"):
        assert (tmp_path / f"a.{ext}").read_bytes() == (tmp_path / f"b.{ext}").read_bytes()


def reference_write_csv(trace, path):
    # The plain writer: one f-string per value.
    d = len(trace.iterates[0])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("k,F,residual," + ",".join(f"x_{i + 1}" for i in range(d)) + "\n")
        for k, (x, F, r) in enumerate(zip(trace.iterates, trace.f_values, trace.residuals)):
            cells = [str(k), f"{F:.17g}", f"{r:.17g}"] + [f"{v:.17g}" for v in x]
            fh.write(",".join(cells) + "\n")


def reference_write_json(trace, path):
    # The plain writer: the whole trace as one dict through json.dump.
    data = {
        "algorithm": trace.algorithm,
        "iterates": [x.tolist() for x in trace.iterates],
        "f_values": list(trace.f_values),
        "residuals": list(trace.residuals),
        "inner": None
        if trace.inner is None
        else [[y.tolist() for y in sweep] for sweep in trace.inner],
        "tau_log": None if trace.tau_log is None else [dataclasses.asdict(t) for t in trace.tau_log],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def _special_trace():
    # Tokens the encoders spell out differently from repr, plus the extremes.
    special = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, 0.1, -2.5]
    rows = [np.array(special), np.array(special[::-1])]
    taus = [TauRecord(k, k % 3, *(special[(k + i) % len(special)] for i in range(4)))
            for k in range(1025)]
    return Trace("ccm", rows, special[:2], special[2:4], inner=[rows, [], rows[:1]],
                 tau_log=taus)


def _trace_cases():
    zmat = gen_zmatrix_quadratic(20, seed=7)
    rng = np.random.default_rng(11)
    X = rng.standard_normal((200, 20))
    Y = np.where(X @ rng.standard_normal(20) >= 0.0, 1.0, -1.0)
    logistic = logistic_problem(X, Y, 0.02)
    scalar = quadratic_problem([[2.0]], [-1.0], lam=0.1, lipschitz=2.0)
    for alg in ("gd", "ccd", "ccm"):
        for record_inner in (False, True):
            # 60 ccm sweeps over 20 coordinates log more than two 512-record chunks.
            yield (f"zmat-{alg}-{record_inner}",
                   diagnosed(alg, zmat, 3.0 * np.ones(20), 60, record_inner))
        yield f"logistic-{alg}", diagnosed(alg, logistic, np.zeros(20), 15)
        yield f"d1-{alg}", diagnosed(alg, scalar, [4.0], 5, record_inner=True)
    yield "empty", Trace("ccd", [np.ones(2)], [1.0], [0.0], inner=[], tau_log=[])
    yield "special", _special_trace()


def test_trace_writers_match_plain_reference_byte_for_byte(tmp_path, renderer):
    cases = list(_trace_cases())
    solved = dict(cases[:-2])  # the runs, not the hand-built traces
    assert len(solved["zmat-ccm-False"].tau_log) > 1024 and solved["logistic-ccm"].tau_log
    for name, trace in cases:
        for write, reference, ext in ((Trace.write_csv, reference_write_csv, "csv"),
                                      (Trace.write_json, reference_write_json, "json")):
            got, want = tmp_path / f"{name}.{ext}", tmp_path / f"{name}.ref.{ext}"
            write(trace, got)
            reference(trace, want)
            assert got.read_bytes() == want.read_bytes(), f"{name}.{ext}"
