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

from .errors import DimensionMismatchError, PreconditionError
# check_isotonicity_quadratic lives next to QuadraticForm, whose exact
# isotonicity certificate it is; it is re-exported here with the sampled check.
from .problems import ProblemSpec, as_vector, check_isotonicity_quadratic  # noqa: F401

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
    return prox_gradient_image(p, x, p.smooth.grad(x))


def prox_gradient_image(p: ProblemSpec, x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The prox-gradient image of x from its gradient g = grad f(x), in hand."""
    return _soft(x - g / p.lipschitz, p.lam / p.lipschitz)


def optimality_residual(p: ProblemSpec, x) -> float:
    """Sup-norm distance between x and its proximal-gradient image."""
    x = as_vector(x, p.dim)
    return float(np.max(np.abs(x - prox_gradient_image(p, x, p.smooth.grad(x)))))


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
    # A NaN u fails both tests and keeps x.
    return np.where(u > thr, (g + lam) / tau, np.where(u < -thr, (g - lam) / tau, x))


def check_tolerance(tol):
    """Raise ValueError unless tol (one value or an array) is nonnegative; NaN fails."""
    if not (np.asarray(tol) >= 0.0).all():
        raise ValueError(f"tol must be nonnegative, got {tol}")


def check_scalar_tolerance(tol):
    """Raise ValueError unless tol is one nonnegative value (not an array or
    a list); NaN fails."""
    if np.ndim(tol) != 0:
        raise ValueError(f"tol must be one value, got an array of shape {np.shape(tol)}")
    if not tol >= 0.0:  # one comparison: np.all costs more than the rest of the check
        raise ValueError(f"tol must be nonnegative, got {tol}")


# The kind of each code: KIND_BY_CODE[2 * (every s >= -tol) + (every s <= tol)].
KIND_BY_CODE = (Kind.NEITHER, Kind.SUBSOLUTION, Kind.SUPERSOLUTION, Kind.EXACT)


def _kind_codes(slack, tol):
    """int8 code (see KIND_BY_CODE) of each row of a slack stack, from the
    row's extremes.

    EXACT when every |s| <= tol, else SUPERSOLUTION when every s >= -tol,
    else SUBSOLUTION when every s <= tol, else NEITHER. tol is one value or
    one per row. A NaN makes both extremes NaN, so its row is NEITHER.
    """
    codes = 2 * (slack.min(axis=1) >= -tol).astype(np.int8)
    codes += slack.max(axis=1) <= tol
    return codes


def kind_codes(p: ProblemSpec, points, grads, tol) -> np.ndarray:
    """The int8 code (see KIND_BY_CODE) of each row of ``points``, from its
    gradient in the same row of ``grads``, in one pass over the stack.

    ``tol`` is one tolerance or one per row. Row i gets the code of the
    kind that classify_point(p, points[i], tol[i]) gives, without a
    gradient call.
    """
    tol = np.asarray(tol, dtype=float)
    check_tolerance(tol)
    points = np.asarray(points, dtype=float)
    grads = np.asarray(grads, dtype=float)
    if points.ndim != 2 or points.shape[1] != p.dim or grads.shape != points.shape:
        raise DimensionMismatchError(
            f"points {points.shape} and grads {grads.shape} must both be m x {p.dim}"
        )
    return _kind_codes(_classification_slack(points, grads, p.lam, 1.0), tol)


def classify_point(p: ProblemSpec, x, tol: float = _DEFAULT_CLASS_TOL) -> Classification:
    """Classify x as super/subsolution, exact minimizer, or neither."""
    check_scalar_tolerance(tol)
    x = as_vector(x, p.dim)
    slack = _classification_slack(x, p.smooth.grad(x), p.lam, 1.0)
    return Classification(KIND_BY_CODE[_kind_codes(slack[None], tol)[0]], slack, tol)


def classify_scale_sweep(p: ProblemSpec, x, taus, tol: float = _DEFAULT_CLASS_TOL):
    """Classify x with threshold lam/tau and step grad/tau for each tau.

    A point that is a super- or subsolution keeps its kind at every tau;
    the sweep exists to check that scale invariance empirically.
    """
    check_scalar_tolerance(tol)
    x = as_vector(x, p.dim)
    taus = [float(t) for t in taus]
    if any(t <= 0.0 for t in taus):
        raise ValueError("every tau must be positive")
    g = p.smooth.grad(x)
    slacks = [_classification_slack(x, g, p.lam, t) for t in taus]
    codes = _kind_codes(np.array(slacks).reshape(len(taus), p.dim), tol)
    kinds = [KIND_BY_CODE[c] for c in codes.tolist()]
    return [Classification(k, s, tol) for k, s in zip(kinds, slacks)]


def shrink_tau_curve(p: ProblemSpec, x, j: int, taus, tol: float = _DEFAULT_CLASS_TOL):
    """Values of tau -> S_{lam/tau}(x_j - [grad f(x)]_j / tau) on a tau grid.

    Requires x to classify as a super- or subsolution (exact points give a
    constant curve); for supersolutions the curve is nondecreasing in tau,
    for subsolutions nonincreasing.
    """
    check_scalar_tolerance(tol)
    x = as_vector(x, p.dim)
    if not 0 <= j < p.dim:
        raise IndexError(f"coordinate index {j} out of range for dimension {p.dim}")
    taus = np.asarray([float(t) for t in taus], dtype=float)
    if np.any(taus <= 0.0):
        raise ValueError("every tau must be positive")
    g = p.smooth.grad(x)
    if kind_codes(p, x[None], g[None], tol)[0] == KIND_BY_CODE.index(Kind.NEITHER):
        raise PreconditionError(
            "shrink_tau_curve requires a super- or subsolution; point classifies as neither"
        )
    gj = float(g[j])
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
        tx = x - p.smooth.grad(x) / p.lipschitz
        ty = y - p.smooth.grad(y) / p.lipschitz
        gaps = tx - ty
        for j in np.nonzero(gaps < -tol)[0]:
            violations.append((s, int(j), float(gaps[j])))
    return IsotonicityReport(samples=samples, tol=tol, violations=tuple(violations))
