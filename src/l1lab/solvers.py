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

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    NonFiniteIterateError,
    PreconditionError,
    UnboundedBelowError,
)
from .operators import prox_gradient_map
from .problems import ProblemSpec, as_vector, objective

# Coordinate updates smaller than this (relative) are treated as trivial,
# so no shrinkage-threshold diagnostic is recorded for them. An update from
# the 1-D solve must also exceed inner_1d_tol, the width to which that
# solve resolves its root; a smaller one is root-bracket noise.
_TRIVIAL_RTOL = 1e-13

_ALGORITHMS = ("gd", "ccd", "ccm")


@dataclass(frozen=True)
class SolverConfig:
    """Outer-loop budget, stopping rule, and 1-D inner-solver tolerances.

    stop_residual is a sup-norm fixed-point residual threshold; the
    default 0 disables early stopping so exactly max_outer_iters
    iterations run.
    """

    max_outer_iters: int = 100
    stop_residual: float = 0.0
    record_inner: bool = False
    inner_1d_tol: float = 1e-12
    inner_1d_max_iters: int = 200

    def __post_init__(self):
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be at least 1")
        if self.stop_residual < 0.0:
            raise ValueError("stop_residual must be nonnegative")
        if not self.inner_1d_tol > 0.0:
            raise ValueError("inner_1d_tol must be positive")
        if self.inner_1d_max_iters < 1:
            raise ValueError("inner_1d_max_iters must be at least 1")


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

    f_values[k] is the full objective F at iterate k, residuals[k] the
    fixed-point residual. ``inner`` optionally holds the within-sweep
    iterates (j = 0..d per sweep) for the coordinate methods, and
    ``tau_log`` the per-update threshold diagnostics of ccm.
    """

    algorithm: str
    iterates: list
    f_values: list
    residuals: list
    inner: list | None = None
    tau_log: list | None = None

    def descent_ok(self, tol: float = 1e-12) -> bool:
        vals = self.f_values
        return all(vals[k + 1] <= vals[k] + tol for k in range(len(vals) - 1))

    def write_csv(self, path) -> None:
        d = len(self.iterates[0])
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("k,F,residual," + ",".join(f"x_{i + 1}" for i in range(d)) + "\n")
            for k, (x, F, r) in enumerate(zip(self.iterates, self.f_values, self.residuals)):
                cells = [str(k), f"{F:.17g}", f"{r:.17g}"] + [f"{v:.17g}" for v in x]
                fh.write(",".join(cells) + "\n")

    def to_json_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "iterates": [x.tolist() for x in self.iterates],
            "f_values": list(self.f_values),
            "residuals": list(self.residuals),
            "inner": None
            if self.inner is None
            else [[y.tolist() for y in sweep] for sweep in self.inner],
            "tau_log": None if self.tau_log is None else [asdict(t) for t in self.tau_log],
        }

    def write_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")


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
    and the rows and partial derivative of the running state. Each sweep
    computes its state once, the gradient A w + b of a quadratic or the half
    margins Y * (X @ w) / 2 of logistic data, and then updates it after
    every coordinate (state += delta * rows[j]). A coordinate thus costs
    O(d) or O(n), and rounding drift in the state lasts at most one sweep.
    """

    def __init__(self, p: ProblemSpec, alg: str, cfg: SolverConfig | None = None):
        self.p = p
        self.cfg = cfg if cfg is not None else SolverConfig()
        self.rows, self.deriv = p.smooth.coordinate_rows()
        exact = p.smooth.exact_steps() if alg == "ccm" else None
        self.solve_1d = alg == "ccm" and exact is None
        self.steps = [p.lipschitz] * p.dim if exact is None else exact
        self.tau_floor = self.cfg.inner_1d_tol if self.solve_1d else 0.0

    def sweep(self, w: np.ndarray, k: int = 0, taus: list | None = None,
              inner: list | None = None) -> np.ndarray:
        """Update every coordinate of w in place, in order; return w.

        Appends to ``taus`` a TauRecord (sweep index k) per non-trivial
        update, and to ``inner`` the within-sweep iterates j = 0..d, when
        those lists are given.
        """
        lam, rows, deriv, floor = self.p.lam, self.rows, self.deriv, self.tau_floor
        state = self.p.smooth.sweep_state(w)
        if self.solve_1d:
            buf = np.empty_like(state)
        if inner is not None:
            inner.append(w.copy())
        for j, s in enumerate(self.steps):
            z_old = float(w[j])
            c = rows[j]
            if self.solve_1d:
                h0 = state - z_old * c

                def g_deriv(a):
                    np.multiply(c, a, out=buf)
                    np.add(buf, h0, out=buf)
                    return deriv(j, buf)

                z_new = solve_1d_prox(g_deriv, lam, self.cfg.inner_1d_tol,
                                      self.cfg.inner_1d_max_iters)
            else:
                gj = float(state[j]) if deriv is None else deriv(j, state)
                z_new = _shrink(z_old - gj / s, lam / s)
            delta = z_new - z_old
            if delta != 0.0:
                state += delta * c
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
            if inner is not None:
                inner.append(w.copy())
        return w


def _positive_branch_root(q, q0, tol, max_iters):
    # q is nondecreasing with q(0) = q0 < 0. Bracket the root by doubling,
    # then shrink the bracket by Illinois-modified regula falsi: the secant
    # point of the bracket, with the value at an end that survives two steps
    # in a row halved. Each point lies at least tol/2 inside the bracket, so
    # once a point lands next to the root the following one closes it.
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
    h = 0.5 * tol
    side = 0
    for _ in range(max_iters):
        if hi - lo <= tol:
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
        f"bracketed secant did not reach width {tol:.3e} in {max_iters} iterations "
        f"(bracket [{lo:.17g}, {hi:.17g}])"
    )


def solve_1d_prox(g_deriv, lam, tol: float = 1e-12, max_iters: int = 200) -> float:
    """Minimize g(a) + lam * |a| for a strictly convex differentiable g.

    Only the derivative g' is needed. Dispatch on g'(0): inside
    [-lam, lam] the minimizer is 0; otherwise the minimizer has a known
    sign and solves g'(a) + lam = 0 (positive side) or g'(a) - lam = 0
    (negative side). A doubling bracket certifies the root, and
    Illinois-modified regula falsi narrows it to width at most tol; the
    midpoint is returned.
    """
    if lam < 0.0:
        raise ValueError("lam must be nonnegative")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    d0 = float(g_deriv(0.0))
    if abs(d0) <= lam:
        return 0.0
    if d0 < -lam:
        return _positive_branch_root(lambda a: float(g_deriv(a)) + lam, d0 + lam, tol, max_iters)
    return -_positive_branch_root(
        lambda a: -float(g_deriv(-a)) + lam, lam - d0, tol, max_iters
    )


def secant_tau(g_deriv, z_old: float, z_new: float) -> float:
    """Secant slope of g' across a coordinate update.

    For an exact-minimization update this slope is the implicit shrinkage
    threshold: z_new = S_{lam/tau}(z_old - g'(z_old)/tau). It lies in
    (0, L] for strictly convex g with L-Lipschitz derivative, and equals
    the curvature exactly when g is quadratic.
    """
    if z_new == z_old:
        raise PreconditionError("secant slope is undefined for a trivial update")
    return (float(g_deriv(z_new)) - float(g_deriv(z_old))) / (z_new - z_old)


def run(algorithm: str, p: ProblemSpec, x0, cfg: SolverConfig | None = None) -> Trace:
    """Run one algorithm from x0 and record a full trace.

    Iterations stop after cfg.max_outer_iters, or earlier when the
    fixed-point residual drops to cfg.stop_residual (if positive). Raises
    NonFiniteIterateError, naming the iteration, at the first iterate,
    objective value or residual that is not finite.
    """
    alg = str(algorithm).lower()
    if alg not in _ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {_ALGORITHMS}")
    cfg = cfg if cfg is not None else SolverConfig()
    x = as_vector(x0, p.dim).copy()
    kernel = None if alg == "gd" else CoordinateKernel(p, alg, cfg)
    record_inner = cfg.record_inner and kernel is not None
    inner = [] if record_inner else None
    tau_log = [] if alg == "ccm" else None
    iterates, f_values, residuals = [], [], []

    # Overflow shows up as a non-finite value checked below, not as a warning.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(cfg.max_outer_iters + 1):
            if k > 0:
                if cfg.stop_residual > 0.0 and residuals[-1] <= cfg.stop_residual:
                    break
                if kernel is None:
                    x = image
                else:
                    sweep_inner = [] if record_inner else None
                    x = kernel.sweep(x.copy(), k - 1, tau_log, sweep_inner)
                    if record_inner:
                        inner.append(sweep_inner)
            bad = None
            if not np.isfinite(x).all():
                bad = "iterate"
            else:
                # One prox-gradient image per iterate gives the residual
                # and, for gd, the next iterate.
                F, image = objective(p, x), prox_gradient_map(p, x)
                r = float(np.max(np.abs(x - image)))
                if not math.isfinite(F):
                    bad = "objective value"
                elif not math.isfinite(r):
                    bad = "residual"
            if bad is not None:
                raise NonFiniteIterateError(
                    f"{alg} produced a non-finite {bad} at iteration {k}", iteration=k
                )
            iterates.append(x)
            f_values.append(F)
            residuals.append(r)

    return Trace(
        algorithm=alg,
        iterates=iterates,
        f_values=f_values,
        residuals=residuals,
        inner=inner,
        tau_log=tau_log,
    )
