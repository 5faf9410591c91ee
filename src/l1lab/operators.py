"""Shrinkage operators, the prox-gradient map, and point classification.

Vector inequalities are componentwise throughout. A point x is called a
supersolution when x >= S_lam(x - grad f(x)) and a subsolution when the
reverse inequality holds; equality on every coordinate characterizes
minimizers of F.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
# check_isotonicity_quadratic lives next to QuadraticForm, whose exact
# isotonicity certificate it is; it is re-exported here with the sampled check.
from .problems import ProblemSpec, as_vector, check_isotonicity_quadratic, f_grad  # noqa: F401

_DEFAULT_CLASS_TOL = 1e-10
_SAMPLED_TOL = 1e-10


def _soft(v, tau):
    # Piecewise-exact soft threshold; tau == 0 gives the identity.
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


def scalar_shrink(a: float, tau: float) -> float:
    """Scalar shrinkage: a - tau above tau, a + tau below -tau, else 0.

    Values with |a| == tau map to 0 (the flat interval is closed).
    """
    if not tau > 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    return float(_soft(float(a), tau))


def vector_shrink(x, tau: float) -> np.ndarray:
    """Componentwise scalar shrinkage with a common threshold."""
    if not tau > 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    return _soft(as_vector(x), tau)


def prox_gradient_map(p: ProblemSpec, x) -> np.ndarray:
    """One full proximal-gradient step S_{lam/L}(x - grad f(x) / L).

    Fixed points of this map are exactly the minimizers of F.
    """
    x = as_vector(x, p.dim)
    return _soft(x - f_grad(p, x) / p.lipschitz, p.lam / p.lipschitz)


def optimality_residual(p: ProblemSpec, x) -> float:
    """Sup-norm distance between x and its proximal-gradient image."""
    x = as_vector(x, p.dim)
    return float(np.max(np.abs(x - prox_gradient_map(p, x))))


class Kind(enum.Enum):
    SUPERSOLUTION = "supersolution"
    SUBSOLUTION = "subsolution"
    EXACT = "exact"
    NEITHER = "neither"


@dataclass(frozen=True, eq=False)
class Classification:
    """Result of classifying a point: kind plus the per-coordinate slack."""

    kind: Kind
    slack: np.ndarray
    tol: float


def _classification_slack(x, g, lam, tau):
    """Slack x - S_{lam/tau}(x - g/tau), evaluated branch by branch.

    The branch-resolved formulas ((g + lam)/tau, x, (g - lam)/tau) avoid
    the cancellation that the literal subtraction suffers for small tau.
    """
    u = x - g / tau
    thr = lam / tau
    slack = x.copy()
    upper = u > thr
    lower = u < -thr
    slack[upper] = (g[upper] + lam) / tau
    slack[lower] = (g[lower] - lam) / tau
    return slack


def _kind_from_slack(slack, tol):
    if np.all(np.abs(slack) <= tol):
        return Kind.EXACT
    if np.all(slack >= -tol):
        return Kind.SUPERSOLUTION
    if np.all(slack <= tol):
        return Kind.SUBSOLUTION
    return Kind.NEITHER


def classify_point(p: ProblemSpec, x, tol: float = _DEFAULT_CLASS_TOL) -> Classification:
    """Classify x as super/subsolution, exact minimizer, or neither."""
    if tol < 0.0:
        raise ValueError("tol must be nonnegative")
    x = as_vector(x, p.dim)
    slack = _classification_slack(x, f_grad(p, x), p.lam, 1.0)
    return Classification(_kind_from_slack(slack, tol), slack, tol)


def classify_scale_sweep(p: ProblemSpec, x, taus, tol: float = _DEFAULT_CLASS_TOL):
    """Classify x with threshold lam/tau and step grad/tau for each tau.

    A point that is a super- or subsolution keeps its kind at every tau;
    the sweep exists to check that scale invariance empirically.
    """
    x = as_vector(x, p.dim)
    taus = [float(t) for t in taus]
    if any(t <= 0.0 for t in taus):
        raise ValueError("every tau must be positive")
    g = f_grad(p, x)
    out = []
    for t in taus:
        slack = _classification_slack(x, g, p.lam, t)
        out.append(Classification(_kind_from_slack(slack, tol), slack, tol))
    return out


def shrink_tau_curve(p: ProblemSpec, x, j: int, taus, tol: float = _DEFAULT_CLASS_TOL):
    """Values of tau -> S_{lam/tau}(x_j - [grad f(x)]_j / tau) on a tau grid.

    Requires x to classify as a super- or subsolution (exact points give a
    constant curve); for supersolutions the curve is nondecreasing in tau,
    for subsolutions nonincreasing.
    """
    x = as_vector(x, p.dim)
    if not 0 <= j < p.dim:
        raise IndexError(f"coordinate index {j} out of range for dimension {p.dim}")
    taus = np.asarray([float(t) for t in taus], dtype=float)
    if np.any(taus <= 0.0):
        raise ValueError("every tau must be positive")
    cls = classify_point(p, x, tol)
    if cls.kind is Kind.NEITHER:
        raise PreconditionError(
            "shrink_tau_curve requires a super- or subsolution; point classifies as neither"
        )
    gj = float(f_grad(p, x)[j])
    return _soft(float(x[j]) - gj / taus, p.lam / taus)


@dataclass(frozen=True)
class IsotonicityReport:
    """Monte-Carlo evidence about order preservation of x - grad f(x)/L."""

    samples: int
    tol: float
    violations: tuple

    @property
    def ok(self):
        return not self.violations


def check_isotonicity_sampled(
    p: ProblemSpec, samples: int = 1000, seed: int = 0, tol: float = _SAMPLED_TOL
) -> IsotonicityReport:
    """Probe ordered pairs x >= y for order preservation of x - grad f(x)/L.

    Perturbations zero out roughly half of the coordinates so that partial
    orders are probed, not just the strict cone. Finding no violation is
    evidence, not proof.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    rng = np.random.default_rng(seed)
    violations = []
    for s in range(samples):
        y = rng.standard_normal(p.dim) * 2.0
        delta = rng.uniform(0.0, 2.0, size=p.dim)
        keep = rng.random(p.dim) >= 0.5
        x = y + delta * keep
        tx = x - f_grad(p, x) / p.lipschitz
        ty = y - f_grad(p, y) / p.lipschitz
        gaps = tx - ty
        for j in np.nonzero(gaps < -tol)[0]:
            violations.append((s, int(j), float(gaps[j])))
    return IsotonicityReport(samples=samples, tol=tol, violations=tuple(violations))
