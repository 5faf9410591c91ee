import numpy as np
import pytest

from l1lab import _qsweep, gen_zmatrix_quadratic, quadratic_problem
from l1lab.operators import prox_gradient_image

# Values that no count argument takes: a fraction, NaN, a bool (an int to
# Python, but no count) and zero, below every count's least value of 1.
NOT_COUNTS = [2.5, float("nan"), True, 0]


@pytest.fixture(params=["compiled", "python"])
def renderer(request, monkeypatch):
    """The number renderer under test: the compiled one, or Python's own formatting."""
    if request.param == "python":
        monkeypatch.setattr(_qsweep, "load", lambda: None)
    elif _qsweep.load() is None:
        pytest.skip("the compiled renderer cannot be built here")
    return request.param


@pytest.fixture(params=["compiled", "numpy"])
def kernel(request, monkeypatch):
    """The quadratic steps under test: the C loops, or the numpy loops they replace."""
    if request.param == "numpy":
        monkeypatch.setattr(_qsweep, "load", lambda: None)
    elif _qsweep.load() is None:
        pytest.skip("the compiled steps cannot be built here")
    return request.param


def acceptance_instance(seed):
    """The acceptance suite's instance of ``seed``: seeds 0-49 are the
    suite's own, and 50 * s + i the benchmark's verify_small mix of seed s."""
    return gen_zmatrix_quadratic(2 + seed % 19, seed=seed,
                                 density=(0.1, 0.3, 0.5, 0.7, 0.9)[seed % 5])


@pytest.fixture
def scalar_quad():
    """1-D problem f(x) = x^2 / 2 with lam = 1 and unit step constant."""
    return quadratic_problem([[1.0]], [0.0], lam=1.0, lipschitz=1.0)


@pytest.fixture
def shifted_scalar_quad():
    """1-D problem f(x) = (x - 4)^2 / 2 with lam = 1 and unit step constant."""
    return quadratic_problem([[1.0]], [-4.0], lam=1.0, lipschitz=1.0)


def grid_refine_minimum(F, lo, hi, levels=3, points=2001):
    """Brute-force minimizer of a 1-D function by nested grid refinement."""
    for _ in range(levels):
        xs = np.linspace(lo, hi, points)
        vals = np.array([F(x) for x in xs])
        i = int(np.argmin(vals))
        span = (hi - lo) / (points - 1)
        lo, hi = xs[i] - span, xs[i] + span
    return 0.5 * (lo + hi)


def monotone_and_bracket(W, x_star, sign, tol=1e-8):
    """Flags of two predicates on the iterates W (row k is w_k) of a run
    from a supersolution (sign = 1): row k of the first is
    w_{k+1} <= w_k + gap_k, row k of the second x* <= w_k + gap_k, with
    gap_k = tol (1 + |w_k|_inf). From a subsolution (sign = -1) both are
    mirrored: w_{k+1} >= w_k - gap_k and x* >= w_k - gap_k."""
    V = sign * np.asarray(W)
    gap = tol * (1.0 + np.abs(V).max(axis=1, keepdims=True))
    return V[1:] <= V[:-1] + gap[:-1], sign * np.asarray(x_star) <= V + gap


def ccm_update_margins(p, W, tol=1e-8):
    """Entry (k, j): how far coordinate j, right after ccm's update j of
    sweep k, is from minimizing F along e_j, over tol (1 + |w_{k+1}|_inf).
    A ccm run on the quadratic p gives entries at most 1.

    The point z right after update j of sweep k agrees with w_{k+1} in
    coordinates <= j and with w_k in the others, so its gradient at j is
    coordinate j of tril(A) w_{k+1} + triu(A, 1) w_k + b (the Gauss-Seidel
    splitting), and z_j is coordinate j of w_{k+1}. The residual
    |z_j - soft(z_j - g_j / A_jj, lam / A_jj)| is 0 exactly when z_j
    minimizes F along e_j. Judged from the iterates alone, it does not
    depend on how a kernel computed them."""
    A, b = p.smooth.A, p.smooth.b
    W = np.asarray(W)
    Z = W[1:]
    G = Z @ np.tril(A).T + W[:-1] @ np.triu(A, 1).T + b
    a = A.diagonal()
    u = Z - G / a
    residual = np.abs(Z - np.sign(u) * np.maximum(np.abs(u) - p.lam / a, 0.0))
    return residual / (tol * (1.0 + np.abs(Z).max(axis=1, keepdims=True)))


def ccd_update_margins(p, W, tol=1e-8):
    """Entry (k, j): how far coordinate j, right after ccd's update j of
    sweep k, is from the prox step of that coordinate from the point y
    before the update, over tol (1 + |w_{k+1}|_inf). A ccd run on the
    quadratic p gives entries at most 1.

    y agrees with w_{k+1} in coordinates < j and with w_k in the others,
    so its gradient at j is coordinate j of tril(A, -1) w_{k+1} + triu(A)
    w_k + b, and y_j is coordinate j of w_k. The residual is
    |z_j - soft(y_j - g_j / L, lam / L)|, with z_j coordinate j of w_{k+1}.
    Like ccm_update_margins, it is judged from the iterates alone."""
    A, b, L = p.smooth.A, p.smooth.b, p.lipschitz
    W = np.asarray(W)
    Y, Z = W[:-1], W[1:]
    G = Z @ np.tril(A, -1).T + Y @ np.triu(A).T + b
    u = Y - G / L
    residual = np.abs(Z - np.sign(u) * np.maximum(np.abs(u) - p.lam / L, 0.0))
    return residual / (tol * (1.0 + np.abs(Z).max(axis=1, keepdims=True)))


def gd_step_flags(p, trace):
    """Flag k: whether row k + 1 of a gd trace's iterates is bitwise
    prox_gradient_image(p, w_k, g_k), with g_k the trace's gradient at w_k,
    as a correct gd run's is on either kernel."""
    W = np.asarray(trace.iterates)
    images = prox_gradient_image(p, W[:-1], np.asarray(trace.gradients)[:-1])
    return (images.view(np.uint64) == W[1:].view(np.uint64)).all(axis=1)
