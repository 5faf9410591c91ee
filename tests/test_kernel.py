"""The incremental coordinate kernel against a plain reference sweep, the
compiled quadratic sweep and each build of its row update against numpy,
and the bracketed-secant 1-D solver.

The reference sweeps below recompute every coordinate gradient from
scratch (a row product for quadratics, the full X @ w for logistic data)
and minimize logistic coordinate restrictions by plain bisection, as the
package did before it kept running state.
"""

import dataclasses
import gc
import platform
import sys

import numpy as np
import pytest

from l1lab import (
    NonFiniteIterateError,
    QuadraticForm,
    SolverConfig,
    find_subsolution,
    find_supersolution,
    gen_zmatrix_quadratic,
    logistic_problem,
    ccm_tau_log,
    quadratic_problem,
    reference_minimizer,
    run,
    solve_1d_prox,
)
from l1lab import _qsweep, solvers
from l1lab.operators import _soft
from l1lab.solvers import INNER_1D_TOL, CoordinateKernel, TauRecord, _shrink, compiled_step
from tests.conftest import acceptance_instance

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
    every non-trivial ccm update larger than ``resolved``, the updates
    logged by ccm_tau_log from the run's iterates."""
    trace = run(alg, p, x0, SolverConfig(max_outer_iters=SWEEPS))
    ref, updates = reference_run(alg, p, x0, SWEEPS, INNER_1D_TOL)
    assert len(trace.iterates) == len(ref)
    for k, (got, want) in enumerate(zip(trace.iterates, ref)):
        err = float(np.max(np.abs(got - want)))
        assert err <= atol_of_ref(want), (alg, k, err)
    if alg == "ccm":
        logged = {(t.k, t.j): abs(t.z_new - t.z_old) for t in ccm_tau_log(p, trace.iterates)}
        assert list(logged) == sorted(logged)
        for mine, other in ((logged, updates), (updates, logged)):
            assert {key for key, size in mine.items() if size > resolved} <= set(other)


def relative(want):
    return RTOL * float(np.max(np.abs(want)))


def same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("alg", ["ccd", "ccm"])
def test_kernel_sweep_never_loads_the_compiled_library(alg, monkeypatch):
    # CoordinateKernel is the numpy reference of the compiled step: it
    # sweeps a quadratic without asking for the library at all.
    def refuse():
        raise AssertionError("the reference kernel asked for the compiled library")

    monkeypatch.setattr(_qsweep, "load", refuse)
    for seed in range(4):
        p = gen_zmatrix_quadratic(6 + seed, seed=seed)
        x0 = np.random.default_rng(seed).uniform(-3.0, 3.0, size=p.dim)
        kernel = CoordinateKernel(p, alg)
        w = x0.copy()
        for k in range(SWEEPS):
            kernel.sweep(w, k)
        want = reference_run(alg, p, x0, SWEEPS, INNER_1D_TOL)[0][-1]
        assert float(np.max(np.abs(w - want))) <= relative(want), (alg, seed)


@pytest.mark.parametrize("alg", ["ccd", "ccm"])
def test_kernel_matches_reference_sweep_on_quadratics(alg, kernel):
    rng = np.random.default_rng(7)
    for seed in range(12):
        d = int(rng.integers(2, 51))
        p = gen_zmatrix_quadratic(d, seed=seed, density=(0.2, 0.5, 0.9)[seed % 3])
        assert (compiled_step(p, alg) is not None) == (kernel == "compiled")
        x0 = rng.uniform(-3.0, 3.0, size=d)
        assert_same_run(p, alg, x0, relative)


# ---------------------------------------------------------------------------
# The compiled quadratic sweep: bitwise the numpy one
# ---------------------------------------------------------------------------

@pytest.fixture
def both_kernels(monkeypatch):
    """Call f() with the compiled sweep, then with the numpy one; return both results."""
    if _qsweep.load() is None:
        pytest.skip("the compiled sweep cannot be built here")

    def call(f):
        compiled = f()
        with monkeypatch.context() as m:
            m.setattr(_qsweep, "load", lambda: None)
            return compiled, f()

    return call


def assert_same_traces(both_kernels, p, x0, K, algs=("ccd", "ccm"), stops=(0.0,)):
    for alg in algs:
        assert compiled_step(p, alg) is not None
        for stop in stops:
            cfg = SolverConfig(max_outer_iters=K, stop_residual=stop)
            compiled, numpy_ = both_kernels(lambda: run(alg, p, x0, cfg))
            for name in ("iterates", "f_values", "residuals", "gradients"):
                assert same_bits(getattr(compiled, name), getattr(numpy_, name)), \
                    (alg, stop, name)


def assert_same_reference(both_kernels, p):
    compiled, numpy_ = both_kernels(lambda: reference_minimizer(p))
    assert same_bits(compiled.x_star, numpy_.x_star)
    assert same_bits(compiled.f_star, numpy_.f_star)
    assert compiled.method == numpy_.method


def test_compiled_sweep_is_bitwise_the_numpy_sweep_on_the_acceptance_family(both_kernels):
    for seed in range(50):
        # The acceptance suite's instances and starts.
        p = acceptance_instance(seed)
        for x0 in (find_supersolution(p, seed=seed), find_subsolution(p, seed=seed)):
            assert_same_traces(both_kernels, p, x0, 200)
        assert_same_reference(both_kernels, p)


def tau_bits(records):
    """The bytes of TauRecords, every field as a float64."""
    return np.array([dataclasses.astuple(t) for t in records], dtype=np.float64).tobytes()


def test_ccm_tau_log_is_bitwise_the_same_from_compiled_and_numpy_runs(both_kernels):
    # A numpy ccm sweep from row k gives row k + 1 bitwise whichever kernel
    # made the rows, so the records derived from a compiled run are those
    # of the numpy run to the bit, grad_old included.
    for seed, d in ((1, 7), (2, 16), (3, 30)):
        p = gen_zmatrix_quadratic(d, seed=seed)
        assert compiled_step(p, "ccm") is not None
        x0 = np.random.default_rng(seed).uniform(-3.0, 3.0, d)
        for stop in (0.0, 1e-9):
            cfg = SolverConfig(max_outer_iters=80, stop_residual=stop)
            compiled, numpy_ = both_kernels(
                lambda: ccm_tau_log(p, run("ccm", p, x0, cfg).iterates))
            assert compiled and tau_bits(compiled) == tau_bits(numpy_), (seed, stop)


def test_ccm_tau_log_rejects_iterates_that_are_not_a_ccm_run():
    # A ccd sweep steps by L, not by A_jj: a ccm sweep from a ccd run's
    # first iterate does not give its second.
    p = gen_zmatrix_quadratic(6, seed=2)
    x0 = np.linspace(-2.0, 2.0, p.dim)
    ccd = run("ccd", p, x0, SolverConfig(max_outer_iters=5))
    with pytest.raises(ValueError, match="from iterate 0 does not give iterate 1"):
        ccm_tau_log(p, ccd.iterates)
    assert ccm_tau_log(p, ccd.iterates[:1]) == []


@pytest.mark.parametrize("d", [300, 500])
def test_compiled_sweep_is_bitwise_the_numpy_sweep_at_large_d(both_kernels, d):
    p = gen_zmatrix_quadratic(d, seed=d)
    assert_same_traces(both_kernels, p, np.random.default_rng(d).uniform(-3.0, 3.0, d), 50)
    assert_same_reference(both_kernels, p)


def test_compiled_sweep_is_bitwise_the_numpy_sweep_at_lam_zero(both_kernels):
    for seed in range(4):
        q = gen_zmatrix_quadratic(8 + seed, seed=seed).smooth
        p = quadratic_problem(q.A, q.b, lam=0.0)
        assert_same_traces(both_kernels, p, np.full(p.dim, 2.0), 100)
        assert_same_reference(both_kernels, p)


def test_compiled_sweep_diverges_as_the_numpy_sweep_does(both_kernels):
    # A step constant far below the true L: ccd's iterates overflow, and
    # both kernels name the same first non-finite value.
    p = quadratic_problem([[2.0, -1.0], [-1.0, 2.0]], [0.5, -0.3], lam=0.1, lipschitz=1e-3)

    def fault():
        with pytest.raises(NonFiniteIterateError) as exc:
            run("ccd", p, [0.0, 0.0], SolverConfig(max_outer_iters=400))
        return exc.value.iteration, str(exc.value)

    compiled, numpy_ = both_kernels(fault)
    assert compiled == numpy_
    assert compiled[0] == 26


# gd's compiled step: bitwise the numpy step, with and without a stop rule.
GD = {"algs": ("gd",), "stops": (0.0, 1e-9)}


def test_compiled_gd_step_is_bitwise_the_numpy_step_on_the_acceptance_family(both_kernels):
    for seed in range(50):
        p = acceptance_instance(seed)
        for x0 in (find_supersolution(p, seed=seed), find_subsolution(p, seed=seed)):
            assert_same_traces(both_kernels, p, x0, 200, **GD)


@pytest.mark.parametrize("d", [300, 500])
def test_compiled_gd_step_is_bitwise_the_numpy_step_at_large_d(both_kernels, d):
    p = gen_zmatrix_quadratic(d, seed=d)
    assert_same_traces(both_kernels, p, np.random.default_rng(d).uniform(-3.0, 3.0, d), 50,
                       **GD)


def test_compiled_gd_step_is_bitwise_the_numpy_step_at_lam_zero(both_kernels):
    for seed in range(4):
        q = gen_zmatrix_quadratic(8 + seed, seed=seed).smooth
        p = quadratic_problem(q.A, q.b, lam=0.0)
        assert_same_traces(both_kernels, p, np.full(p.dim, 2.0), 100, **GD)


def test_compiled_gd_diverges_as_the_numpy_gd_does(both_kernels):
    p = quadratic_problem([[2.0, -1.0], [-1.0, 2.0]], [0.5, -0.3], lam=0.1, lipschitz=1e-3)
    for stop in (0.0, 1e-300):
        def fault():
            with pytest.raises(NonFiniteIterateError) as exc:
                run("gd", p, [0.0, 0.0], SolverConfig(max_outer_iters=400, stop_residual=stop))
            return exc.value.iteration, str(exc.value)

        compiled, numpy_ = both_kernels(fault)
        assert compiled == numpy_
        assert compiled[0] == 45


def step_rows(step, p, x0, K, k0=None):
    """Rows 0..K of iterates from x0 and their products A w: one
    step(W, P, k, k + 1) call per row, or, with k0, one-row calls up to row
    k0 and one block call for the rest."""
    W, P = np.empty((K + 1, p.dim)), np.empty((K + 1, p.dim))
    W[0] = x0
    np.matmul(p.smooth.A, W[0], out=P[0])
    for k in range(K if k0 is None else k0):
        step(W, P, k, k + 1)
    if k0 is not None:
        step(W, P, k0, K)
    return W, P


def numpy_gd_step(p):
    """numpy gd's step as a step(W, P, k0, k1): each row the measured image of
    the row before (measure_rows without products)."""
    def step(W, P, k0, k1):
        for k in range(k0, k1):
            W[k + 1] = solvers.measure_rows(p, W, None, k, k + 1)[3][0]
    return step


@pytest.mark.parametrize("alg", ["gd", "ccd", "ccm"])
def test_a_block_step_call_is_bitwise_one_row_calls_on_either_kernel(alg):
    # Both kernels take step(W, P, k0, k1). A block from k0 > 0 gives the
    # bits of one-row calls, on each kernel, and the two kernels the same
    # bits (numpy gd steps to its measured image). The compiled step was
    # made from a problem that is gone by the time it runs: it holds the
    # arrays whose addresses it passes on.
    K, k0 = 9, 3
    p = gen_zmatrix_quadratic(12, seed=5)
    step = compiled_step(gen_zmatrix_quadratic(12, seed=5), alg)
    if step is None:
        pytest.skip("the compiled steps cannot be had here")
    gc.collect()
    litter = [np.full(n, np.nan) for n in (12 * 12, 12) * 8]  # reuses freed memory
    x0 = np.random.default_rng(5).uniform(-3.0, 3.0, p.dim)
    want, products = step_rows(step, p, x0, K)
    W, P = step_rows(step, p, x0, K, k0)
    assert same_bits(W, want) and same_bits(P, products)
    if alg == "gd":
        assert same_bits(step_rows(numpy_gd_step(p), p, x0, K)[0], want)
    else:
        kernel = CoordinateKernel(p, alg)
        for rows in (step_rows(kernel.step, p, x0, K), step_rows(kernel.step, p, x0, K, k0)):
            assert same_bits(rows[0], want)
    assert all(np.isnan(a).all() for a in litter)


# ---------------------------------------------------------------------------
# The block entry: each next product through numpy's own dgemv
# ---------------------------------------------------------------------------

MATMUL_DIMS = [*range(1, 71), 100, 128, 255, 300, 500, 777, 1000]


def test_resolved_dgemv_is_bitwise_np_matmul():
    # Random products, products with zeros of both signs among the entries,
    # an all -0.0 vector and one with infinities: the resolved function,
    # called as numpy's matmul calls it, gives matmul's bits.
    # The resolver needs no compiled library.
    dgemv = _qsweep.dgemv()
    if dgemv is None:
        pytest.skip("numpy's dgemv cannot be had here")
    rng = np.random.default_rng(20)
    for d in MATMUL_DIMS:
        A = rng.standard_normal((d, d))
        A[rng.random((d, d)) < 0.3] = 0.0
        xs = [rng.standard_normal(d), np.where(rng.random(d) < 0.5, -0.0, rng.uniform(-4, 4, d)),
              np.full(d, -0.0), np.where(np.arange(d) % 3 == 0, np.inf, rng.standard_normal(d))]
        for i, x in enumerate(xs):
            y = np.full(d, np.nan)
            dgemv(102, 112, d, d, 1.0, A.ctypes.data, d, x.ctypes.data, 1, 0.0,
                  y.ctypes.data, 1)
            with np.errstate(invalid="ignore"):
                assert same_bits(y, np.matmul(A, x)), (d, i)


def test_without_numpy_dgemv_runs_take_the_numpy_steps(monkeypatch):
    # With the library but no usable dgemv nothing steps in C, and every
    # run has the bits of the numpy kernel.
    p = gen_zmatrix_quadratic(9, seed=3)
    x0 = np.linspace(-2.0, 2.0, 9)
    cfg = SolverConfig(max_outer_iters=70)
    algs = ("gd", "ccd", "ccm")
    with monkeypatch.context() as m:
        m.setattr(_qsweep, "load", lambda: None)
        want = {alg: run(alg, p, x0, cfg) for alg in algs}
        want_ref = reference_minimizer(p)
    monkeypatch.setattr(_qsweep, "dgemv", lambda: None)
    for alg in algs:
        assert compiled_step(p, alg) is None
        got = run(alg, p, x0, cfg)
        for name in ("iterates", "f_values", "residuals", "gradients"):
            assert same_bits(getattr(got, name), getattr(want[alg], name)), (alg, name)
    assert same_bits(reference_minimizer(p).x_star, want_ref.x_star)


@pytest.mark.parametrize("K", [63, 64, 65, 128, 129])
def test_block_boundaries_are_bitwise_the_numpy_steps(both_kernels, K):
    # Without a stop rule the row buffer holds all K + 1 rows from the
    # start: the numpy steps measure each row before they make the next,
    # and the compiled steps make all rows in one call. With a stop rule
    # the buffer grows at 64, 128 and 256 rows, each row is its own call
    # and block, and 1e-9 stops some runs early.
    for seed, d in ((1, 7), (2, 16)):
        p = gen_zmatrix_quadratic(d, seed=seed)
        x0 = np.random.default_rng(seed).uniform(-3.0, 3.0, d)
        assert_same_traces(both_kernels, p, x0, K, algs=("gd", "ccd", "ccm"),
                           stops=(0.0, 1e-300, 1e-9))


def gd_row(x, ax, b, L, lam):
    """The compiled gd step on float64 arrays, one qblock row from W[0] = x
    and P[0] = ax: W[1] = _soft(x - (ax + b) / L, lam / L)."""
    d = len(x)
    W, P = np.empty((2, d)), np.empty((2, d))
    W[0], P[0] = x, ax
    A, state = np.zeros((d, d)), np.empty(d)  # A only forms P[1]
    _qsweep.load().qblock(_qsweep.dgemv(), d, A.ctypes.data, b.ctypes.data, None, lam, L,
                          state.ctypes.data, W.ctypes.data, P.ctypes.data, 0, 1)
    return W[1]


def test_compiled_gd_image_is_the_numpy_image_on_edge_values():
    # +-0, +-inf, NaN of both signs, |v| == tau, both dead zones (the
    # negative one gives -0.0), the extremes, tau = 0 and tau = inf, with
    # lam = tau * L, so that qblock's threshold lam / L is tau * L / L. A
    # NaN need only be NaN; every other value must have the numpy bits.
    if _qsweep.load() is None or _qsweep.dgemv() is None:
        pytest.skip("the compiled step cannot be built here")
    nan = float("nan")
    edges = [0.0, -0.0, np.inf, -np.inf, nan, -nan, 0.25, -0.25, 0.5, -0.5, 1.0, -1.0, 3.0,
             -3.0, 5e-324, -5e-324, 1e308, -1e308]
    x, ax, b = (np.ascontiguousarray(a.ravel())
                for a in np.meshgrid(edges, edges, [0.0, -0.0, 0.75, -np.inf], indexing="ij"))
    with np.errstate(over="ignore", invalid="ignore"):
        for L in (1.0, 2.0, 1e-3):
            for tau in (0.0, 0.5, 1.0, np.inf):
                want = _soft(x - (ax + b) / L, tau * L / L)
                got = gd_row(x, ax, b, L, tau * L)
                nans = np.isnan(want)
                assert np.array_equal(np.isnan(got), nans), (L, tau)
                assert got[~nans].tobytes() == want[~nans].tobytes(), (L, tau)
    # The cases by name: with ax = b = 0 and L = 1, v is x itself (repr
    # spells every NaN "nan").
    zero = np.zeros(1)
    for v, tau, want in ((-0.25, 0.5, "-0.0"), (0.25, 0.5, "0.0"), (-0.5, 0.5, "-0.0"),
                         (0.5, 0.5, "0.0"), (-0.0, 0.0, "0.0"), (-0.0, 0.5, "0.0"),
                         (-3.0, 0.5, "-2.5"), (-np.inf, 0.5, "-inf"), (np.inf, np.inf, "nan"),
                         (-nan, 0.5, "nan")):
        assert repr(float(gd_row(np.array([v]), zero, zero, 1.0, tau)[0])) == want, (v, tau)


# ---------------------------------------------------------------------------
# The sweep's row update: every variant bitwise state + delta * row
# ---------------------------------------------------------------------------

ROW_UPDATES = {0: "baseline", 1: "avx2"}
ROW_EDGES = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
             1e-310, 1e308, -1e308, 1.0, -1.0]


def row_update_values(rng, n):
    """n doubles of many magnitudes, about a third of them from ROW_EDGES."""
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    edge = rng.random(n) < 0.35
    values[edge] = rng.choice(ROW_EDGES, int(edge.sum()))
    return values


@pytest.mark.parametrize("variant", sorted(ROW_UPDATES))
def test_every_row_update_variant_is_bitwise_state_plus_delta_times_row(variant):
    # Lengths 0-70 (every tail of the four-wide loop), a row and a state
    # at offsets of 0-3 doubles into their buffers, so at every 8-byte
    # residue modulo 32 bytes (a row of A with odd d starts at an
    # 8-byte-only offset), values with NaN, +-inf,
    # -0.0, subnormals and products that overflow or underflow. Every
    # entry must have numpy's bits (a NaN need only be NaN: which operand's
    # payload a NaN keeps is not part of the contract), and no entry past
    # the d-th may change.
    lib = _qsweep.load()
    if lib is None:
        pytest.skip("the compiled sweep cannot be built here")
    probe = np.zeros(1)
    if lib.qaxpy(variant, 0, 1.0, probe.ctypes.data, probe.ctypes.data) != variant:
        pytest.skip(f"this CPU cannot run the {ROW_UPDATES[variant]} row update")
    rng = np.random.default_rng(21)
    deltas = [0.75, -3.0, 1e300, -1e-300, 5e-324, np.inf, -np.inf, np.nan, -0.0]
    row_buf, state_buf = np.empty(80), np.empty(80)
    for d in range(71):
        for offset in range(4):
            row = row_buf[offset:offset + d]
            row[:] = row_update_values(rng, d)
            for delta in deltas:
                state_buf[:] = row_update_values(rng, state_buf.size)
                before = state_buf.copy()
                state = state_buf[3 - offset:3 - offset + d]
                with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                    want = state + delta * row
                assert lib.qaxpy(variant, d, delta, row.ctypes.data, state.ctypes.data) \
                    == variant
                nans = np.isnan(want)
                case = (d, offset, delta)
                assert np.array_equal(np.isnan(state), nans), case
                assert state[~nans].tobytes() == want[~nans].tobytes(), case
                end = 3 - offset + d
                assert state_buf[end:].tobytes() == before[end:].tobytes(), case
                assert state_buf[:3 - offset].tobytes() == before[:3 - offset].tobytes(), case


def test_the_chosen_row_update_is_avx2_where_the_cpu_has_it():
    # qblock chooses the AVX2 twin on an x86-64 CPU with AVX2
    # (which /proc/cpuinfo lists only where the kernel enables its state);
    # a variant the library does not have runs nothing.
    if not (sys.platform.startswith("linux") and platform.machine() == "x86_64"):
        pytest.skip("the check reads the CPU flags of Linux on x86-64")
    with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
        flags = next((line.split(":", 1)[1].split() for line in cpuinfo
                      if line.startswith("flags")), [])
    if "avx2" not in flags:
        pytest.skip("this CPU has no AVX2")
    lib = _qsweep.load()
    if lib is None:
        pytest.skip("the compiled sweep cannot be built here")
    row, state = np.ones(3), np.ones(3)
    assert lib.qaxpy(-1, 3, 2.0, row.ctypes.data, state.ctypes.data) == 1
    assert state.tolist() == [3.0, 3.0, 3.0]
    assert lib.qaxpy(2, 3, 2.0, row.ctypes.data, state.ctypes.data) == -1
    assert state.tolist() == [3.0, 3.0, 3.0]


def test_kernel_matches_reference_sweep_on_logistic_ccd():
    for seed in range(4):
        p = logistic_data(seed)
        x0 = np.random.default_rng(seed).uniform(-1.0, 1.0, size=p.dim)
        assert_same_run(p, "ccd", x0, relative)


def test_kernel_matches_reference_sweep_on_logistic_ccm():
    # Both inner solvers resolve each coordinate root only to a bracket of
    # width INNER_1D_TOL, so the iterates may differ by a few of those. Once
    # the sweeps have converged to that width, updates of that size are
    # inner-solver noise in either run, so only larger ones must match.
    for seed in range(4):
        p = logistic_data(seed)
        x0 = np.random.default_rng(seed).uniform(-1.0, 1.0, size=p.dim)
        assert_same_run(p, "ccm", x0, lambda want: 10.0 * INNER_1D_TOL,
                        resolved=10.0 * INNER_1D_TOL)


# ---------------------------------------------------------------------------
# The logistic link: one tanh per sweep state, bitwise a fresh one per read
# ---------------------------------------------------------------------------

def uncached_sweep(p, alg, w, k=0, taus=None):
    """A ccd or ccm sweep of logistic data by CoordinateKernel's arithmetic,
    with a fresh np.tanh at every partial derivative and, for every 1-D
    solve, the state without coordinate j built from the state."""
    X, Y, n, lam, L = p.smooth.X, p.smooth.Y, p.smooth.n, p.lam, p.lipschitz
    floor = INNER_1D_TOL if alg == "ccm" else 0.0
    rows = np.ascontiguousarray((X * (0.5 * Y)[:, None]).T)
    row_sums = rows.sum(axis=1).tolist()

    def deriv(j, h):
        return (float(rows[j] @ np.tanh(h)) - row_sums[j]) / n

    state = 0.5 * (Y * (X @ w))
    for j in range(p.dim):
        z_old, c = float(w[j]), rows[j]
        if alg == "ccm":
            h0 = state - z_old * c

            def g_deriv(a, j=j, c=c, h0=h0):
                return deriv(j, c * a + h0)

            z_new = solve_1d_prox(g_deriv, lam)
        else:
            gj = deriv(j, state)
            z_new = _shrink(z_old - gj / L, lam / L)
        delta = z_new - z_old
        if delta != 0.0:
            state += delta * c
            size = abs(delta) if taus is not None else 0.0
            if size > floor and size > TRIVIAL_RTOL * (1.0 + abs(z_old)):
                tau = L
                if alg == "ccm":
                    gj = g_deriv(z_old)
                    tau = (g_deriv(z_new) - gj) / delta
                taus.append(TauRecord(k, j, z_old, z_new, gj, tau))
        w[j] = z_new
    return w


def solve_logistic_shaped(seed, n=2000, d=50, lam=0.01):
    """Dense data like the solve_logistic benchmark's: Gaussian X, labels
    sign(X w) of a planted w with d/5 nonzeros, 10% of them flipped."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    w = np.zeros(d)
    support = rng.choice(d, size=d // 5, replace=False)
    w[support] = rng.standard_normal(support.size)
    Y = np.where(X @ w >= 0.0, 1.0, -1.0)
    flip = rng.random(n) < 0.1
    Y[flip] = -Y[flip]
    return logistic_problem(X, Y, lam)


def zero_column_at_lam_zero():
    # Coordinate 2 never moves from 0, its row is all zero, and every
    # point of its 1-D solve is the state itself.
    p = logistic_data(5, n=60, d=6)
    X = p.smooth.X.copy()
    X[:, 2] = 0.0
    return logistic_problem(X, p.smooth.Y, 0.0)


def signed_zero_start(d):
    x0 = np.random.default_rng(d).uniform(-1.0, 1.0, size=d)
    x0[::3] = -0.0
    return x0


LINK_CASES = {
    **{f"logistic_data_{seed}": (lambda seed=seed: logistic_data(seed),
                                 lambda p, seed=seed: np.random.default_rng(seed)
                                 .uniform(-1.0, 1.0, size=p.dim))
       for seed in range(4)},
    "solve_logistic_shaped_from_zero": (lambda: solve_logistic_shaped(1),
                                        lambda p: np.zeros(p.dim)),
    "zero_column_at_lam_zero": (zero_column_at_lam_zero, lambda p: np.zeros(p.dim)),
    "signed_zero_start": (lambda: logistic_data(6), lambda p: signed_zero_start(p.dim)),
}


@pytest.mark.parametrize("case", sorted(LINK_CASES))
def test_kernel_sweeps_are_bitwise_a_fresh_tanh_per_derivative(case):
    make, start = LINK_CASES[case]
    p = make()
    x0 = start(p)
    if case == "solve_logistic_shaped_from_zero":
        assert np.signbit(p.smooth.sweep_state(x0)).any()  # the state holds -0.0
    for alg, log in (("ccd", False), ("ccm", False), ("ccm", True)):
        kernel = CoordinateKernel(p, alg)
        got, want = x0.copy(), x0.copy()
        got_taus, want_taus = ([], []) if log else (None, None)
        for k in range(SWEEPS):
            kernel.sweep(got, k, got_taus)
            uncached_sweep(p, alg, want, k, want_taus)
            assert got.tobytes() == want.tobytes(), (alg, log, k)
        if log:
            assert got_taus, case
            assert tau_bits(got_taus) == tau_bits(want_taus), case


class CountedTanh:
    """np.tanh with a count of its calls."""

    def __init__(self):
        self.calls = 0
        self.tanh = np.tanh

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.tanh(*args, **kwargs)


@pytest.fixture
def counted_tanh(monkeypatch):
    counted = CountedTanh()
    monkeypatch.setattr(np, "tanh", counted)
    return counted


def test_ccd_sweep_evaluates_tanh_once_per_state_it_reads(counted_tanh):
    # Each derivative is read at the sweep's first state or at the state
    # after a move, so a sweep evaluates tanh once, plus once per moved
    # coordinate that another coordinate follows.
    for case in ("logistic_data_0", "solve_logistic_shaped_from_zero", "signed_zero_start"):
        make, start = LINK_CASES[case]
        p = make()
        kernel, w = CoordinateKernel(p, "ccd"), start(p)
        zero_to_zero = 0
        for k in range(SWEEPS):
            before = w.copy()
            counted_tanh.calls = 0
            kernel.sweep(w)
            moved = w != before
            assert counted_tanh.calls == 1 + int(moved[:-1].sum()), (case, k)
            zero_to_zero += int(((before == 0.0) & ~moved).sum())
        assert zero_to_zero > 0, case


def test_ccm_coordinate_that_stays_at_zero_evaluates_no_tanh(counted_tanh, monkeypatch):
    # A ccm coordinate that is 0 before and after its update reads g'(0)
    # at the state. When the coordinate before it stayed at 0 too, that
    # state's tanh is already made, so the update evaluates none; any other
    # update evaluates tanh at every point of its 1-D solve but g'(0).
    per_coordinate = []
    real_solve = solvers.solve_1d_prox

    def solve(g_deriv, lam):
        calls = counted_tanh.calls
        z = real_solve(g_deriv, lam)
        per_coordinate.append(counted_tanh.calls - calls)
        return z

    monkeypatch.setattr(solvers, "solve_1d_prox", solve)
    p = solve_logistic_shaped(2)
    kernel, w = CoordinateKernel(p, "ccm"), np.zeros(p.dim)
    stayed = 0
    for k in range(SWEEPS):
        before = w.copy()
        per_coordinate.clear()
        kernel.sweep(w)
        still = (before == 0.0) & (w == 0.0)
        for j in range(1, p.dim):
            if still[j] and still[j - 1]:
                assert per_coordinate[j] == 0, (k, j)
                stayed += 1
    assert stayed > 0


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
    cases = list(logistic_restrictions()) + list(quadratic_restrictions())
    nonzero = 0
    for g_deriv, lam in cases:
        a = solve_1d_prox(g_deriv, lam)
        assert_certified_root(g_deriv, lam, INNER_1D_TOL, a)
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


@pytest.mark.xfail(strict=True, reason=(
    "solve_1d_prox resolves a root to the absolute width INNER_1D_TOL, so once "
    "X -> s X moves the minimizer to x*/s below that width, every ccm coordinate "
    "lands on a bracket midpoint such as +-2.5e-13 and F rises"))
def test_ccm_descends_on_logistic_data_scaled_by_1e20():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((50, 4))
    Y = np.where(rng.random(50) < 0.5, -1.0, 1.0)
    p = logistic_problem(X * 1e20, Y, 0.01)
    trace = run("ccm", p, np.zeros(4), SolverConfig(max_outer_iters=SWEEPS))
    assert trace.descent_ok()


def test_logistic_ccm_tau_log_holds_only_resolved_updates():
    # An update from the 1-D solve no larger than INNER_1D_TOL is
    # root-bracket noise, and its secant slope says nothing about tau.
    cfg = SolverConfig(max_outer_iters=40)
    for seed in range(4):
        p = logistic_data(seed)
        x0 = np.random.default_rng(seed).uniform(-1.0, 1.0, size=p.dim)
        tau_log = ccm_tau_log(p, run("ccm", p, x0, cfg).iterates)
        assert tau_log
        for t in tau_log:
            assert abs(t.z_new - t.z_old) > INNER_1D_TOL, t
            assert 0.0 < t.tau <= p.lipschitz * (1.0 + 1e-8), t
