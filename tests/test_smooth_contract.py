"""The contract every smooth loss meets, checked on one instance of each.

QuadraticForm and LogisticData answer the same questions for the solvers
and the verification harness (see SmoothLoss in l1lab.problems); a new
loss is added by adding it to LOSSES.
"""

import json

import numpy as np
import pytest

from l1lab import (
    estimate_lipschitz,
    f_grad,
    gen_zmatrix_quadratic,
    logistic_problem,
)
from l1lab.problems import problem_from_dict, problem_to_dict


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


def test_to_dict_round_trips_bit_for_bit(problem):
    smooth = problem.smooth
    text = json.dumps(problem_to_dict(problem))
    back = problem_from_dict(json.loads(text))
    assert type(back.smooth) is type(smooth)
    assert (back.lam, back.lipschitz, back.dim) == (problem.lam, problem.lipschitz, problem.dim)
    again = type(smooth).from_dict(json.loads(json.dumps(smooth.to_dict())))
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
