"""The incremental coordinate kernel against a plain reference sweep, and
the bracketed-secant 1-D solver.

The reference sweeps below recompute every coordinate gradient from
scratch (a row product for quadratics, the full X @ w for logistic data)
and minimize logistic coordinate restrictions by plain bisection, as the
package did before it kept running state.
"""

import numpy as np
import pytest

from l1lab import (
    QuadraticForm,
    SolverConfig,
    gen_zmatrix_quadratic,
    logistic_problem,
    run,
    solve_1d_prox,
)

SWEEPS = 20
RTOL = 1e-12
TRIVIAL_RTOL = 1e-13  # the solver's relative threshold for recording a ccm update


def soft(a, t):
    if a > t:
        return a - t
    if a < -t:
        return a + t
    return 0.0


def expit(t):
    return 0.5 * (1.0 + np.tanh(0.5 * t))


def logistic_data(seed, n=200, d=20, lam=0.02):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    w = np.zeros(d)
    support = rng.choice(d, size=d // 4, replace=False)
    w[support] = 2.0 * rng.standard_normal(support.size)
    Y = np.where(X @ w >= 0.0, 1.0, -1.0)
    flip = rng.random(n) < 0.1
    Y[flip] = -Y[flip]
    return logistic_problem(X, Y, lam)


def grad_coord(p, w, j):
    if isinstance(p.smooth, QuadraticForm):
        return float(p.smooth.A[j] @ w + p.smooth.b[j])
    X, Y = p.smooth.X, p.smooth.Y
    return float(-(X[:, j] @ (Y * expit(-(Y * (X @ w))))) / p.smooth.n)


def restriction_deriv(p, w, j):
    X, Y = p.smooth.X, p.smooth.Y
    c = Y * X[:, j]
    m0 = Y * (X @ w) - w[j] * c
    return lambda a: float(-(c @ expit(-(m0 + a * c))) / p.smooth.n)


def bisection_prox(g_deriv, lam, tol, max_iters=200):
    def root(q):
        lo, hi, step = 0.0, None, 1.0
        for _ in range(60):
            if q(step) >= 0.0:
                hi = step
                break
            lo, step = step, 2.0 * step
        assert hi is not None
        for _ in range(max_iters):
            if hi - lo <= tol:
                return 0.5 * (lo + hi)
            mid = 0.5 * (lo + hi)
            if q(mid) >= 0.0:
                hi = mid
            else:
                lo = mid
        raise AssertionError("bisection did not converge")

    d0 = g_deriv(0.0)
    if abs(d0) <= lam:
        return 0.0
    if d0 < -lam:
        return root(lambda a: g_deriv(a) + lam)
    return -root(lambda a: -g_deriv(-a) + lam)


def reference_run(alg, p, x0, sweeps, tol):
    """Plain sweeps; returns the iterates and {(k, j): |update|} of the non-trivial ones."""
    w = np.array(x0, dtype=float)
    iterates, updates = [w.copy()], {}
    for k in range(sweeps):
        for j in range(p.dim):
            z_old = float(w[j])
            if alg == "ccd":
                step = p.lipschitz
                z_new = soft(z_old - grad_coord(p, w, j) / step, p.lam / step)
            elif isinstance(p.smooth, QuadraticForm):
                step = p.smooth.A[j, j]
                z_new = soft(z_old - grad_coord(p, w, j) / step, p.lam / step)
            else:
                z_new = bisection_prox(restriction_deriv(p, w, j), p.lam, tol)
            if abs(z_new - z_old) > TRIVIAL_RTOL * (1.0 + abs(z_old)):
                updates[(k, j)] = abs(z_new - z_old)
            w[j] = z_new
        iterates.append(w.copy())
    return iterates, updates


def assert_same_run(p, alg, x0, atol_of_ref, resolved=0.0):
    """Kernel and reference agree on every iterate and on the (k, j) of
    every non-trivial ccm update larger than ``resolved``."""
    cfg = SolverConfig(max_outer_iters=SWEEPS)
    trace = run(alg, p, x0, cfg)
    ref, updates = reference_run(alg, p, x0, SWEEPS, cfg.inner_1d_tol)
    assert len(trace.iterates) == len(ref)
    for k, (got, want) in enumerate(zip(trace.iterates, ref)):
        err = float(np.max(np.abs(got - want)))
        assert err <= atol_of_ref(want), (alg, k, err)
    if alg == "ccm":
        logged = {(t.k, t.j): abs(t.z_new - t.z_old) for t in trace.tau_log}
        assert list(logged) == sorted(logged)
        for mine, other in ((logged, updates), (updates, logged)):
            assert {key for key, size in mine.items() if size > resolved} <= set(other)


def relative(want):
    return RTOL * float(np.max(np.abs(want)))


@pytest.mark.parametrize("alg", ["ccd", "ccm"])
def test_kernel_matches_reference_sweep_on_quadratics(alg):
    rng = np.random.default_rng(7)
    for seed in range(12):
        d = int(rng.integers(2, 51))
        p = gen_zmatrix_quadratic(d, seed=seed, density=(0.2, 0.5, 0.9)[seed % 3])
        x0 = rng.uniform(-3.0, 3.0, size=d)
        assert_same_run(p, alg, x0, relative)


def test_kernel_matches_reference_sweep_on_logistic_ccd():
    for seed in range(4):
        p = logistic_data(seed)
        x0 = np.random.default_rng(seed).uniform(-1.0, 1.0, size=p.dim)
        assert_same_run(p, "ccd", x0, relative)


def test_kernel_matches_reference_sweep_on_logistic_ccm():
    # Both inner solvers resolve each coordinate root only to a bracket of
    # width inner_1d_tol, so the iterates may differ by a few of those. Once
    # the sweeps have converged to that width, updates of that size are
    # inner-solver noise in either run, so only larger ones must match.
    tol = SolverConfig().inner_1d_tol
    for seed in range(4):
        p = logistic_data(seed)
        x0 = np.random.default_rng(seed).uniform(-1.0, 1.0, size=p.dim)
        assert_same_run(p, "ccm", x0, lambda want: 10.0 * tol, resolved=10.0 * tol)


# ---------------------------------------------------------------------------
# The bracketed-secant 1-D solver
# ---------------------------------------------------------------------------

class Counted:
    """g' wrapper that records every point it is evaluated at."""

    def __init__(self, g_deriv):
        self.g_deriv = g_deriv
        self.points = []

    def __call__(self, a):
        self.points.append(a)
        return self.g_deriv(a)

    def inner_steps(self):
        # Strip g'(0) and the doubling points +-1, +-2, +-4, ... that
        # bracket the root; what is left are the secant steps.
        rest = self.points[1:]
        step = 1.0
        while rest and abs(rest[0]) == step:
            rest, step = rest[1:], 2.0 * step
        return len(rest)


def assert_certified_root(g_deriv, lam, tol, a):
    if a == 0.0:
        assert abs(g_deriv(0.0)) <= lam
        return
    shift = lam if a > 0.0 else -lam
    below, above = g_deriv(a - 0.5 * tol) + shift, g_deriv(a + 0.5 * tol) + shift
    assert below <= 0.0 <= above, (a, below, above)


def logistic_restrictions():
    rng = np.random.default_rng(3)
    for seed in range(6):
        p = logistic_data(seed)
        w = rng.uniform(-1.0, 1.0, size=p.dim)
        for j in range(p.dim):
            yield restriction_deriv(p, w, j), p.lam


def quadratic_restrictions():
    rng = np.random.default_rng(12)
    for _ in range(200):
        a = rng.uniform(0.1, 10.0)
        r = rng.uniform(-10.0, 10.0)
        yield (lambda t, a=a, r=r: a * t + r), rng.uniform(0.0, 2.0)


def test_solve_1d_prox_brackets_root_within_tol():
    tol = 1e-12
    cases = list(logistic_restrictions()) + list(quadratic_restrictions())
    nonzero = 0
    for g_deriv, lam in cases:
        a = solve_1d_prox(g_deriv, lam, tol)
        assert_certified_root(g_deriv, lam, tol, a)
        nonzero += a != 0.0
    assert nonzero > len(cases) // 2


def test_solve_1d_prox_derivative_calls_per_solve():
    # Bisection from the doubling bracket needed about 40 calls per solve.
    counts = []
    for g_deriv, lam in logistic_restrictions():
        counted = Counted(g_deriv)
        solve_1d_prox(counted, lam)
        counts.append(len(counted.points))
    assert max(counts) <= 12


def test_solve_1d_prox_linear_derivative_takes_two_steps():
    for g_deriv, lam in quadratic_restrictions():
        counted = Counted(g_deriv)
        solve_1d_prox(counted, lam)
        assert counted.inner_steps() <= 2


def test_logistic_ccm_tau_log_holds_only_resolved_updates():
    # An update from the 1-D solve no larger than inner_1d_tol is
    # root-bracket noise, and its secant slope says nothing about tau.
    cfg = SolverConfig(max_outer_iters=40)
    for seed in range(4):
        p = logistic_data(seed)
        x0 = np.random.default_rng(seed).uniform(-1.0, 1.0, size=p.dim)
        tau_log = run("ccm", p, x0, cfg).tau_log
        assert tau_log
        for t in tau_log:
            assert abs(t.z_new - t.z_old) > cfg.inner_1d_tol, t
            assert 0.0 < t.tau <= p.lipschitz * (1.0 + 1e-8), t
