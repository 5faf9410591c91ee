"""The three iterative algorithms with per-iteration trace recording.

All three methods share the descent property: the recorded objective
values are nonincreasing. One iteration of the coordinate methods means
one full sweep over all d coordinates, so the outer iteration counter is
comparable across algorithms.

  gd   - full proximal-gradient step with the global constant L
  ccd  - cyclic per-coordinate proximal steps with refreshed gradients
  ccm  - cyclic exact per-coordinate minimization of F
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import partial
from itertools import chain
from operator import attrgetter

import numpy as np

from ._jsonlayout import json_records, json_value, render, render_pieces
from .errors import ConvergenceError, NonFiniteIterateError, UnboundedBelowError
from .operators import prox_gradient_image
from .problems import ProblemSpec, as_vector, check_count

# Coordinate updates smaller than this (relative) are treated as trivial,
# so no shrinkage-threshold diagnostic is recorded for them. An update from
# the 1-D solve must also exceed INNER_1D_TOL, the width to which that
# solve resolves its root; a smaller one is root-bracket noise.
_TRIVIAL_RTOL = 1e-13

# Bracket width to which solve_1d_prox resolves a coordinate root, and the
# secant steps it may take to get there.
INNER_1D_TOL = 1e-12
_INNER_1D_MAX_ITERS = 200

_ALGORITHMS = ("gd", "ccd", "ccm")

# With a stop rule, the rows run() allocates for iterates at first; the
# buffer doubles as it fills. Without one, it holds all K + 1 rows from
# the start.
_FIRST_ROWS = 64


@dataclass(frozen=True)
class SolverConfig:
    """Outer-loop budget and stopping rule.

    stop_residual is a sup-norm fixed-point residual threshold; the
    default 0 disables early stopping so exactly max_outer_iters
    iterations run.
    """

    max_outer_iters: int = 100
    stop_residual: float = 0.0

    def __post_init__(self):
        check_count(self.max_outer_iters, "max_outer_iters", 1)
        if not self.stop_residual >= 0.0:  # NaN fails this test too
            raise ValueError(f"stop_residual must be nonnegative, got {self.stop_residual}")


@dataclass(frozen=True)
class TauRecord:
    """Implicit shrinkage threshold of one non-trivial exact coordinate update."""

    k: int
    j: int
    z_old: float
    z_new: float
    grad_old: float
    tau: float


@dataclass
class Trace:
    """Record of one solver run: iterates, objective values, residuals.

    run() gives ``iterates`` as an (n, d) array whose row k is iterate k,
    the first n rows of its iterate buffer; the writers also take a list
    of rows. f_values[k] is the full objective F at iterate k,
    residuals[k] the fixed-point residual.
    ``inner`` and ``tau_log`` are diagnostics that run() leaves None; a
    caller derives them from the iterates and sets them before writing:
    inner_iterates() gives the within-sweep iterates of ccd and ccm, and
    ccm_tau_log() the per-update threshold records of ccm. ``gradients``
    is an (n, d) array whose row k is grad f at iterate k, bitwise
    f_grad's; it is kept in memory for classifying the iterates and is
    not written to files.
    """

    algorithm: str
    iterates: np.ndarray | list
    f_values: list
    residuals: list
    inner: np.ndarray | list | None = None
    tau_log: list | None = None
    gradients: np.ndarray | list | None = None

    def descent_ok(self, tol: float = 1e-12) -> bool:
        """Whether F[k + 1] <= F[k] + tol * max(1, |F[k]|) at every k: tol
        is absolute where |F| <= 1 and relative above, so that the rounding
        of F at large |F| is not read as an ascent."""
        F = np.asarray(self.f_values)
        return bool(np.all(F[1:] <= F[:-1] + tol * np.maximum(1.0, np.abs(F[:-1]))))

    def write_csv(self, path) -> None:
        """Write the trace as CSV, every float as f"{v:.17g}" spells it.

        The rows [k, F, residual, x...] are one '%.17g' block (which spells
        float(k) as f"{k}" does), streamed as whole rows, at most 8192
        values per call.
        """
        d = len(self.iterates[0])
        rows = np.column_stack([np.arange(len(self.f_values)), self.f_values, self.residuals,
                                self.iterates])
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("k,F,residual," + ",".join(f"x_{i + 1}" for i in range(d)) + "\n")
            fh.writelines(render_pieces(rows, "%.17g", ",", "\n"))
            fh.write("\n")

    def write_json(self, path) -> None:
        """Write the trace as ``json.dump(..., indent=2)`` plus a newline would.

        The file is streamed: the iterates and each inner sweep as whole
        rows, at most 8192 values per call, and tau_log _RECORD_CHUNK records
        at a time (see json_value), so the whole text is never held in memory.
        """
        data = {"algorithm": self.algorithm, "iterates": self.iterates,
                "f_values": np.asarray(self.f_values), "residuals": np.asarray(self.residuals),
                "inner": self.inner,
                "tau_log": None if self.tau_log is None else partial(_json_tau_log, self.tau_log)}
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(json_value(data))
            fh.write("\n")


_TAU_FIELDS = tuple(f.name for f in fields(TauRecord))
_TAU_FLOATS = len(_TAU_FIELDS) - 2
_tau_floats = attrgetter(*_TAU_FIELDS[2:])


def _json_tau_log(records: list, ind: int):
    """Yield the text of a tau_log list: the float fields of each piece of
    records (all but the int fields k and j) from one render() call."""
    def columns(start, stop):
        part = records[start:stop]
        values = np.fromiter(chain.from_iterable(map(_tau_floats, part)), np.float64)
        floats = render(values, "json", " ").split(" ")
        # A record's k and j (str() spells an int as json.dumps does), then its floats.
        return ([t.k for t in part], [t.j for t in part],
                *(floats[i::_TAU_FLOATS] for i in range(_TAU_FLOATS)))

    return json_records(_TAU_FIELDS, len(records), columns, ind)


def _c_array(a, shape) -> bool:
    """Whether C code may take ``a`` as a float64 array of ``shape`` by its address."""
    return (isinstance(a, np.ndarray) and a.dtype == np.float64 and a.shape == shape
            and a.flags.c_contiguous and a.flags.aligned)


def _shrink(v, t):
    # Scalar soft threshold. A NaN fails both comparisons and falls through
    # to the last branch, so a diverging sweep still ends non-finite.
    if v > t:
        return v - t
    if v >= -t:
        return 0.0
    return v + t


class CoordinateKernel:
    """Cyclic coordinate sweeps of ccd or ccm on one problem.

    The per-solve parts come from the smooth part and are built once: the
    per-coordinate step (L for ccd; for ccm the closed-form curvature, such
    as a quadratic's A_jj, or a numerical 1-D solve when the loss has none)
    and the rows, link and partial derivative of the running state. Each
    sweep computes its state once, the gradient A w + b of a quadratic or
    the half margins Y * (X @ w) / 2 of logistic data, and then updates it
    after every coordinate that moves (state += delta * rows[j]). A
    coordinate thus costs O(d) or O(n), and rounding drift in the state
    lasts at most one sweep. The link of a state (tanh for logistic data)
    is evaluated at most once, when a derivative is first read there, so a
    ccd coordinate that does not move costs one dot product, as does g'(0)
    in ccm's 1-D solve from 0 (see sweep). Its step(W, P, k0, k1) is the
    numpy reference of the compiled step (compiled_step), with its call.
    """

    def __init__(self, p: ProblemSpec, alg: str):
        self.p = p
        self.rows, self.link, self.deriv = p.smooth.coordinate_rows()
        exact = p.smooth.exact_steps() if alg == "ccm" else None
        self.solve_1d = alg == "ccm" and exact is None
        self.steps = [p.lipschitz] * p.dim if exact is None else exact
        self.tau_floor = INNER_1D_TOL if self.solve_1d else 0.0
        # Scratch of a state's length for delta * rows[j] and the 1-D
        # solve's points, the state without coordinate j (1-D solve), and
        # the link of the state.
        n = np.shape(self.rows)[1]
        self._buf = np.empty(n)
        self._h0 = np.empty(n) if self.solve_1d else None
        self._t = None if self.link is None else np.empty(n)

    def sweep(self, w: np.ndarray, k: int = 0, taus: list | None = None) -> np.ndarray:
        """Update every coordinate of w in place, in order; return w.

        Each coordinate changes once, so the point after j steps is the
        returned w on coordinates < j and the given w on the rest. Appends
        to ``taus``, when given, a TauRecord (sweep index k) per non-trivial
        update.

        The link of the state is evaluated when a derivative is first read
        at a state, and reused until a coordinate moves. In ccm's 1-D solve
        from z_old = 0 (or -0), without ``taus``, the live state stands in
        for the state without coordinate j, state - z_old * rows[j], and
        g'(0) reads the state's link: the two states, and so each point
        rows[j] * a + state of the solve, differ at most in the sign of a
        zero entry. tanh keeps that sign, so a derivative can differ only
        in the sign of a zero, which no test of solve_1d_prox tells apart.
        The tau log reads g' after the state has moved, so with ``taus``
        the state without coordinate j is a copy.
        """
        state = self.p.smooth.sweep_state(w)
        lam, rows, link, deriv = self.p.lam, self.rows, self.link, self.deriv
        floor, buf, t = self.tau_floor, self._buf, self._t
        current = False  # whether t holds link(state)

        def at_state(j):
            # The partial derivative j at the state.
            nonlocal current
            if not current:
                link(state, out=t)
                current = True
            return deriv(j, t)

        for j, s in enumerate(self.steps):
            z_old = float(w[j])
            c = rows[j]
            if self.solve_1d:
                live = z_old == 0.0 and taus is None
                h0 = state if live else self._h0
                if not live:
                    np.multiply(z_old, c, out=h0)
                    np.subtract(state, h0, out=h0)

                def g_deriv(a):
                    if live and a == 0.0:
                        return at_state(j)
                    np.multiply(c, a, out=buf)
                    np.add(buf, h0, out=buf)
                    return deriv(j, link(buf, out=buf))

                z_new = solve_1d_prox(g_deriv, lam)
            else:
                gj = float(state[j]) if deriv is None else at_state(j)
                z_new = _shrink(z_old - gj / s, lam / s)
            delta = z_new - z_old
            if delta != 0.0:
                np.multiply(delta, c, out=buf)
                state += buf
                current = False
                # Size 0 when not logging; floor > 0 only for a 1-D solve.
                size = abs(delta) if taus is not None else 0.0
                if size > floor and size > _TRIVIAL_RTOL * (1.0 + abs(z_old)):
                    # For a closed-form step the implicit threshold is the
                    # curvature itself, independent of the update.
                    tau = s
                    if self.solve_1d:
                        gj = g_deriv(z_old)
                        tau = (g_deriv(z_new) - gj) / delta
                    taus.append(TauRecord(k, j, z_old, z_new, gj, tau))
            w[j] = z_new
        return w

    def step(self, W: np.ndarray, P, k0: int, k1: int) -> None:
        """Make rows k0 + 1..k1 of W, row k + 1 the sweep of a copy of row
        k; P, the compiled step's products, is not read."""
        for k in range(k0, k1):
            W[k + 1] = W[k]
            self.sweep(W[k + 1])


def _positive_branch_root(q, q0):
    # q is nondecreasing with q(0) = q0 < 0. Bracket the root by doubling,
    # then shrink the bracket by Illinois-modified regula falsi: the secant
    # point of the bracket, with the value at an end that survives two steps
    # in a row halved. Each point lies at least INNER_1D_TOL/2 inside the
    # bracket, so once a point lands next to the root the following one
    # closes it.
    lo, q_lo, hi, step = 0.0, q0, None, 1.0
    for _ in range(60):
        q_step = q(step)
        if q_step >= 0.0:
            hi, q_hi = step, q_step
            break
        lo, q_lo = step, q_step
        step *= 2.0
    if hi is None:
        raise UnboundedBelowError(
            "no sign change within 60 doublings; the 1-D objective appears unbounded below"
        )
    h = 0.5 * INNER_1D_TOL
    side = 0
    for _ in range(_INNER_1D_MAX_ITERS):
        if hi - lo <= INNER_1D_TOL:
            return 0.5 * (lo + hi)
        a = lo - q_lo * (hi - lo) / (q_hi - q_lo)
        a = min(max(a, lo + h), hi - h)
        q_a = q(a)
        if q_a >= 0.0:
            hi, q_hi = a, q_a
            if side > 0:
                q_lo *= 0.5
            side = 1
        else:
            lo, q_lo = a, q_a
            if side < 0:
                q_hi *= 0.5
            side = -1
    raise ConvergenceError(
        f"bracketed secant did not reach width {INNER_1D_TOL:.3e} in {_INNER_1D_MAX_ITERS} "
        f"iterations (bracket [{lo:.17g}, {hi:.17g}])"
    )


def solve_1d_prox(g_deriv, lam) -> float:
    """Minimize g(a) + lam * |a| for a strictly convex differentiable g.

    Only the derivative g' is needed. Dispatch on g'(0): inside
    [-lam, lam] the minimizer is 0; otherwise the minimizer has a known
    sign and solves g'(a) + lam = 0 (positive side) or g'(a) - lam = 0
    (negative side). A doubling bracket certifies the root, and
    Illinois-modified regula falsi narrows it to width at most
    INNER_1D_TOL; the midpoint is returned.
    """
    if not lam >= 0.0:
        raise ValueError("lam must be nonnegative")
    d0 = float(g_deriv(0.0))
    if abs(d0) <= lam:
        return 0.0
    if d0 < -lam:
        return _positive_branch_root(lambda a: float(g_deriv(a)) + lam, d0 + lam)
    return -_positive_branch_root(lambda a: -float(g_deriv(-a)) + lam, lam - d0)


def compiled_affine(p: ProblemSpec):
    """(lib, A, b) when p's smooth part has an affine gradient, (A, b) from
    affine_gradient(), that C code may take by address and the compiled
    library loads; None otherwise."""
    affine = p.smooth.affine_gradient()
    if affine is None or not (_c_array(affine[0], (p.dim, p.dim))
                              and _c_array(affine[1], (p.dim,))):
        return None
    from . import _qsweep  # imported, and built, only when C code is wanted

    lib = _qsweep.load()
    return None if lib is None else (lib, *affine)


def compiled_step(p: ProblemSpec, alg: str):
    """step(W, P, k0, k1) when alg's iterations on p run in C; None
    when compiled_affine(p) is None or numpy's dgemv cannot be had
    (_qsweep.dgemv()).

    W and P are C-contiguous float64 arrays of rows of length d, the
    iterates and their products, with P[k0] = np.matmul(A, W[k0]) for
    (A, b) = p.smooth.affine_gradient(). One call (qblock, on the
    addresses of W and P) makes, for k0 <= k < k1, W[k + 1], bitwise the
    numpy step from W[k] (gd's prox-gradient image, or
    CoordinateKernel.step), and then P[k + 1], bitwise np.matmul(A,
    W[k + 1]), by the BLAS function numpy's matmul calls. The step holds
    A, b, its steps and its state buffer. For ccm it calls exact_steps(),
    which may raise Assumption2Error.
    """
    compiled = compiled_affine(p)
    if compiled is None:
        return None
    from . import _qsweep

    dgemv = _qsweep.dgemv()
    if dgemv is None:
        return None
    lib, A, b = compiled
    d, L = p.dim, p.lipschitz
    steps = (None if alg == "gd" else
             np.array(p.smooth.exact_steps() if alg == "ccm" else [L] * d, dtype=np.float64))
    state = np.empty(d)
    block = partial(lib.qblock, dgemv, d, A.ctypes.data, b.ctypes.data,
                    None if steps is None else steps.ctypes.data, p.lam, L, state.ctypes.data)

    def step(W, P, k0, k1):
        block(W.ctypes.data, P.ctypes.data, k0, k1)

    step.buffers = A, b, steps, state  # the arrays whose addresses block holds
    return step


def measure_rows(p: ProblemSpec, W: np.ndarray, P, k0: int, k1: int):
    """(G, F, R, images) of rows k0..k1-1 of the iterates W: gradients
    from one values_and_grads call (row i bitwise grad(W[i])), F and the
    residuals max |x - image| as objective() and optimality_residual()
    give them, and prox-gradient images. P holds the rows' products A w
    when the steps run in C (compiled_step), else None."""
    B = W[k0:k1]
    values, G = (p.smooth.values_and_grads(B) if P is None
                 else p.smooth.values_and_grads(B, P[k0:k1]))
    images = prox_gradient_image(p, B, G)
    return G, values + p.lam * np.abs(B).sum(axis=1), np.abs(B - images).max(axis=1), images


def run(algorithm: str, p: ProblemSpec, x0, cfg: SolverConfig | None = None) -> Trace:
    """Run one algorithm from x0 and record a full trace.

    Iterations stop after cfg.max_outer_iters, or earlier when the
    fixed-point residual drops to cfg.stop_residual (if positive). Raises
    NonFiniteIterateError, naming the iteration, at the first iterate,
    objective value or residual that is not finite; at one iteration the
    iterate is named before F, and F before the residual.

    One loop only makes the iterates, rows of a buffer: a step(W, P, k0,
    k1) call, compiled_step's or CoordinateKernel.step, makes rows k0 +
    1..k1, and numpy gd steps to its measured image. measure() takes the
    rows not yet measured as one block (measure_rows) and checks that
    they are finite. Except in a compiled run without a stop rule, each
    row is measured before the next is made, so a diverging run stops at
    its first fault, before any error of a later sweep. Without a stop
    rule the buffer holds all K + 1 rows from the start; with one it
    doubles as it fills.

    When compiled_step(p, alg) is not None, the iterations run in C, and
    each iterate's product A w is formed once, into row k of a buffer P
    the size of W: np.matmul for the start, and for every later iterate
    the BLAS call that np.matmul makes, inside the step call. The steps
    and the measurement take these products. With a stop rule one step
    call makes one row; without one, one call makes all K rows, measured
    in one block after the loop, which names the same fault. Logistic
    data and a run without the library or numpy's dgemv keep the numpy
    steps, with the same bits. The trace's inner and tau_log are None;
    inner_iterates() and ccm_tau_log() derive them from its iterates.
    """
    alg = str(algorithm).lower()
    if alg not in _ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {_ALGORITHMS}")
    cfg = cfg if cfg is not None else SolverConfig()
    K, stop, d = cfg.max_outer_iters, cfg.stop_residual, p.dim
    step = compiled_step(p, alg)
    compiled = step is not None
    if not compiled and alg != "gd":
        step = CoordinateKernel(p, alg).step
    # A compiled run without a stop rule makes its K rows in one step call.
    one_call = compiled and stop == 0.0
    W = np.empty((K + 1 if stop == 0.0 else min(K + 1, _FIRST_ROWS), d))
    W[0] = as_vector(x0, d)
    P = np.empty_like(W) if compiled else None  # P[i] = np.matmul(A, W[i])
    blocks = []  # (G, F, R) of each measured block of rows, in order
    measured = 0  # rows of W measured so far

    def measure(n):
        # Measure rows measured..n-1 of W as one block and raise its first
        # fault: the first bad row, its iterate named before F and F before
        # the residual. Return the last row's image and residual.
        nonlocal measured
        if n == measured:
            return
        G, F, R, images = measure_rows(p, W, P, measured, n)
        ok = np.isfinite(F) & np.isfinite(R)
        if not ok.all():
            # A non-finite iterate makes F non-finite too (its l1 term is
            # inf, or NaN at lam = 0), so the first bad row is found here.
            k = measured + int(ok.argmin())
            what = ("iterate" if not np.isfinite(W[k]).all() else
                    "objective value" if not np.isfinite(F[k - measured]) else "residual")
            raise NonFiniteIterateError(
                f"{alg} produced a non-finite {what} at iteration {k}", iteration=k
            )
        blocks.append((G, F, R))
        measured = n
        return images[-1], R[-1]

    # Overflow shows up as a non-finite value checked here, not as a warning.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if compiled:
            np.matmul(p.smooth.affine_gradient()[0], W[0], out=P[0])
        n = K + 1  # iterates in the trace
        k = 1  # the next row to make
        while k <= K:
            if not one_call:
                image, r = measure(k)
                # Without a stop rule an exact fixed point still makes K rows.
                if stop > 0.0 and r <= stop:
                    n = k
                    break
            if k == len(W):  # only a stop-rule run fills its buffer
                W = np.concatenate((W, np.empty((min(k, K + 1 - k), d))))
                if compiled:
                    P = np.concatenate((P, np.empty_like(W[k:])))
            last = K if one_call else k  # the last row made in this pass
            if step is None:
                W[k] = image
            else:
                step(W, P, k - 1, last)
            k = last + 1
        measure(n)

    G, F, R = map(np.concatenate, zip(*blocks))
    return Trace(
        algorithm=alg,
        iterates=W[:n],
        f_values=F.tolist(),
        residuals=R.tolist(),
        gradients=G,
    )


def inner_iterates(iterates) -> np.ndarray:
    """The within-sweep iterates of a ccd or ccm run with the given (n, d)
    iterates: an (n - 1, d + 1, d) array whose [k, j] is the point after j
    coordinate steps of the sweep from iterate k ([k, 0] is iterate k,
    [k, d] iterate k + 1).

    Sweep k changes each coordinate once, in order: after j steps it is at
    iterate k + 1 on coordinates < j and at iterate k on the rest.
    """
    W = np.asarray(iterates, dtype=np.float64)
    d = W.shape[1]
    return np.where(np.tri(d + 1, d, -1, dtype=bool), W[1:, None, :], W[:-1, None, :])


def ccm_tau_log(p: ProblemSpec, iterates) -> list:
    """The TauRecords of a ccm run on p with the given iterates: sweep a
    copy of each row k but the last with CoordinateKernel(p, "ccm"),
    logging every non-trivial update with sweep index k.

    A numpy sweep from row k gives row k + 1 bitwise, whichever kernel made
    the rows, so the records are those of the run itself. Raises ValueError
    when a sweep does not give the next row bitwise (the iterates are not
    a ccm run on p, for example a ccd run's).
    """
    W = np.asarray(iterates, dtype=np.float64)
    kernel = CoordinateKernel(p, "ccm")
    taus = []
    # As in run(), overflow shows up in the rows, not as a warning.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(len(W) - 1):
            if kernel.sweep(W[k].copy(), k, taus).tobytes() != W[k + 1].tobytes():
                raise ValueError(f"a ccm sweep from iterate {k} does not give iterate {k + 1}; "
                                 "these are not the iterates of a ccm run on this problem")
    return taus
