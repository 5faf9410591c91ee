"""The contract every smooth loss meets, checked on one instance of each.

QuadraticForm and LogisticData answer the same questions for the solvers
and the verification harness (see SmoothLoss in l1lab.problems); a new
loss is added by adding it to LOSSES.
"""

import json

import numpy as np
import pytest

from l1lab import (
    LogisticData,
    ProblemSpec,
    SolverConfig,
    estimate_lipschitz,
    f_grad,
    gen_zmatrix_quadratic,
    logistic_problem,
    optimality_residual,
    reference_minimizer,
    run,
)
from l1lab.problems import SmoothLoss, problem_from_dict, problem_to_dict


def small_logistic():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((8, 4))
    Y = np.where(rng.random(8) < 0.5, -1.0, 1.0)
    return logistic_problem(X, Y, lam=0.1)


LOSSES = {
    "zmatrix_quadratic": lambda: gen_zmatrix_quadratic(5, seed=11),
    "logistic": small_logistic,
}


@pytest.fixture(params=sorted(LOSSES))
def problem(request):
    return LOSSES[request.param]()


def points(p, count, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(p.dim) for _ in range(count)]


def test_grad_matches_central_differences_of_value(problem):
    smooth, h = problem.smooth, 1e-6
    for x in points(problem, 10):
        g = smooth.grad(x)
        fd = np.array([
            (smooth.value(x + h * e) - smooth.value(x - h * e)) / (2.0 * h)
            for e in np.eye(problem.dim)
        ])
        assert np.max(np.abs(fd - g)) <= 1e-5 * (1.0 + np.max(np.abs(g)))


def test_sweep_state_gives_the_gradient_entrywise(problem):
    smooth = problem.smooth
    rows, deriv = smooth.coordinate_rows()
    for x in points(problem, 10, seed=1):
        g = f_grad(problem, x)
        state = smooth.sweep_state(x)
        for j in range(problem.dim):
            partial = state[j] if deriv is None else deriv(j, state)
            assert partial == pytest.approx(g[j], abs=1e-14)
            # Moving coordinate j by delta moves the state by delta * rows[j].
            y = x.copy()
            y[j] += 0.37
            np.testing.assert_allclose(state + 0.37 * rows[j], smooth.sweep_state(y),
                                       rtol=0, atol=1e-13)


def test_exact_steps_are_coordinate_curvatures(problem):
    steps = problem.smooth.exact_steps()
    if steps is None:
        return  # ccm solves this loss's coordinate restrictions numerically
    h = 1e-4
    for x in points(problem, 3, seed=2):
        for j, s in enumerate(steps):
            e = np.zeros(problem.dim)
            e[j] = h
            curv = (f_grad(problem, x + e)[j] - f_grad(problem, x - e)[j]) / (2.0 * h)
            assert s == pytest.approx(curv, rel=1e-9)


def test_active_set_solution_polishes_and_refuses_a_sign_flip(problem):
    # reference_minimizer trusts a polished point only after checking its
    # residual, but a polish that works must reach it from near x*.
    smooth, lam = problem.smooth, problem.lam
    x_star = reference_minimizer(problem).x_star
    assert np.count_nonzero(x_star) >= 1
    rng = np.random.default_rng(7)
    for scale in (1e-6, 1e-3, 1e-2):
        near = x_star * (1.0 + scale * rng.standard_normal(problem.dim))
        cand = smooth.active_set_solution(near, lam)
        assert cand is not None and optimality_residual(problem, cand) <= 1e-12
        np.testing.assert_array_equal(np.sign(cand), np.sign(x_star))
    # On the support of x* with every sign flipped, the minimizer of
    # f + lam * <sign, .> leaves those signs.
    assert smooth.active_set_solution(-x_star, lam) is None


def test_to_dict_round_trips_bit_for_bit(problem):
    smooth = problem.smooth
    text = json.dumps(problem_to_dict(problem))
    back = problem_from_dict(json.loads(text))
    assert type(back.smooth) is type(smooth)
    assert (back.lam, back.lipschitz, back.dim) == (problem.lam, problem.lipschitz, problem.dim)
    again = type(smooth).from_dict(json.loads(text))
    for copy in (back.smooth, again):
        for name, value in smooth.to_dict().items():
            if name != "kind":
                assert getattr(copy, name).tobytes() == getattr(smooth, name).tobytes()
    assert json.dumps(problem_to_dict(back)) == text


def test_estimate_lipschitz_bounds_gradient_difference_quotients(problem):
    L = estimate_lipschitz(problem.smooth)
    xs, ys = points(problem, 100, seed=3), points(problem, 100, seed=4)
    worst = max(
        np.linalg.norm(f_grad(problem, x) - f_grad(problem, y)) / np.linalg.norm(x - y)
        for x, y in zip(xs, ys)
    )
    assert 0.0 < worst <= L * (1.0 + 1e-12)


@pytest.mark.parametrize("kind", ["quadratic", "logistic"])
@pytest.mark.parametrize("d", [2, 33, 128, 500])
def test_values_and_grads_rows_are_bitwise_value_and_grad(kind, d):
    # run() measures a whole run's iterates with one values_and_grads call,
    # so each row must carry the bits of the one-point oracle.
    rng = np.random.default_rng(d)
    if kind == "quadratic":
        smooth = gen_zmatrix_quadratic(d, seed=d).smooth
    else:
        n = 2 * d + 1
        smooth = LogisticData(rng.standard_normal((n, d)),
                              np.where(rng.random(n) < 0.5, -1.0, 1.0))
    W = rng.standard_normal((21, d)) * rng.uniform(0.01, 100.0, size=(21, 1))
    for block in (W, W[:1]):
        values, G = smooth.values_and_grads(block)
        assert values.shape == (len(block),) and G.shape == block.shape
        for w, value, g in zip(block, values, G):
            assert value == smooth.value(w.copy())
            assert g.tobytes() == smooth.grad(w.copy()).tobytes()


@pytest.mark.parametrize("d", [2, 33, 128, 500])
def test_affine_gradient_products_give_the_bits_of_values_and_grads(d):
    # When the loss has an affine gradient, run() forms each iterate's
    # product np.matmul(A, w) once and hands the products to
    # values_and_grads. Logistic data have none.
    assert small_logistic().smooth.affine_gradient() is None
    smooth = gen_zmatrix_quadratic(d, seed=d).smooth
    A, b = smooth.affine_gradient()
    rng = np.random.default_rng(d)
    W = rng.standard_normal((21, d)) * rng.uniform(0.01, 100.0, size=(21, 1))
    P = np.empty_like(W)
    for w, row in zip(W, P):
        np.matmul(A, w, out=row)
        assert (row + b).tobytes() == smooth.grad(w.copy()).tobytes()
    for block, products in ((W, P), (W[3:4], P[3:4])):
        values, G = smooth.values_and_grads(block, products)
        want_values, want_G = smooth.values_and_grads(block)
        assert values.tobytes() == want_values.tobytes() and G.tobytes() == want_G.tobytes()


class DelegatingLoss(SmoothLoss):
    """A loss l1lab does not name anywhere: every hook answers as a wrapped loss."""

    def __init__(self, inner):
        self.inner = inner

    @property
    def dim(self):
        return self.inner.dim


for _hook in ("value", "grad", "values_and_grads", "lipschitz_matrix", "sweep_state",
              "coordinate_rows", "exact_steps", "affine_gradient", "isotonicity_certificate",
              "start_fallback", "active_set_solution"):
    setattr(DelegatingLoss, _hook,
            lambda self, *args, _hook=_hook: getattr(self.inner, _hook)(*args))


@pytest.mark.parametrize("alg", ["gd", "ccd", "ccm"])
def test_a_new_loss_runs_like_the_loss_it_wraps(alg):
    # ProblemSpec takes any SmoothLoss, and the solvers ask it only the
    # SmoothLoss questions: a loss that answers them as a quadratic does
    # gives that quadratic's traces bit for bit.
    q = gen_zmatrix_quadratic(7, seed=3)
    loss = DelegatingLoss(q.smooth)
    wrapped = ProblemSpec(loss, q.lam, estimate_lipschitz(loss))
    assert wrapped.dim == q.dim and wrapped.lipschitz == q.lipschitz
    x0 = np.linspace(-1.0, 2.0, q.dim)
    for stop in (0.0, 1e-9):
        cfg = SolverConfig(max_outer_iters=40, stop_residual=stop, record_inner=True)
        want, got = run(alg, q, x0, cfg), run(alg, wrapped, x0, cfg)
        for name in ("iterates", "gradients"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        for name in ("f_values", "residuals", "inner"):
            got_list, want_list = getattr(got, name), getattr(want, name)
            assert np.array(got_list).tobytes() == np.array(want_list).tobytes(), name
