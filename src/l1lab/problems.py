"""Problem data, smooth-loss oracles, Lipschitz estimation, and instance builders.

The objective throughout the package is

    F(x) = f(x) + lam * ||x||_1

where the smooth convex part f is either a quadratic form

    f(x) = 0.5 * <A x, x> + <b, x>

or a logistic-regression loss

    f(x) = (1/n) * sum_i log(1 + exp(-Y_i <X_i, x>)),   Y_i in {-1, +1}.

Problems are immutable once constructed and safe to share between
concurrently running solvers; every function here is a pure function of
its inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Union

import numpy as np

from .errors import Assumption2Error, DimensionMismatchError, PowerIterationError

# Construction-time tolerances and the power-iteration policy.
_PSD_RTOL = 1e-9
_OFFDIAG_TOL = 1e-14
_L_INFLATION = 1.0 + 1e-8
_L_FLOOR = 1e-12
_POWER_RTOL = 1e-10
_POWER_MAX_ITERS = 10_000
_POWER_SEED = 42


def as_vector(x, dim=None, name="x"):
    """Validate and return a finite 1-D float vector, optionally of length dim."""
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise DimensionMismatchError(f"{name} must be one-dimensional, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise DimensionMismatchError(f"{name} has length {v.shape[0]}, expected {dim}")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} contains non-finite entries")
    return v


def _expit(t):
    # Numerically stable logistic sigmoid.
    return 0.5 * (1.0 + np.tanh(0.5 * t))


def check_isotonicity_quadratic(A, tol: float = _OFFDIAG_TOL):
    """True plus an empty list when all off-diagonal entries are <= tol.

    For a quadratic smooth part this is exactly the condition under which
    x -> x - grad f(x)/L preserves the componentwise order. Offending
    upper-triangle index pairs are returned alongside the verdict.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"A must be square, got shape {A.shape}")
    offenders = [
        (i, j)
        for i in range(A.shape[0])
        for j in range(i + 1, A.shape[1])
        if A[i, j] > tol or A[j, i] > tol
    ]
    return (not offenders), offenders


class SmoothLoss:
    """What the solvers and the verification harness ask of a smooth part f.

    Subclasses are frozen dataclasses whose fields are the arrays of their
    problem files, in file order, and whose class attribute ``kind`` tags
    those files. Each provides value(x) and grad(x) at a validated vector
    x; power_operator(), a (matvec, divisor) pair such that L is the
    dominant eigenvalue of matvec over divisor; strictly_convex_coordinates();
    and for the coordinate kernel sweep_state(w), the running state of a
    sweep at w, and coordinate_rows(), a (rows, deriv) pair: after
    coordinate j moves by delta the state grows by delta * rows[j], and
    deriv(j, state) is the partial derivative j, or deriv is None when that
    is state[j] itself. The hooks below return None where a loss has no
    such answer.
    """

    kind = None

    def exact_steps(self):
        """Closed-form ccm curvature of each coordinate; None: a 1-D solve."""
        return None

    def isotonicity_certificate(self):
        """Exact (ok, offenders) for order preservation of x - grad f(x)/L;
        None: only sampled evidence."""
        return None

    def start_fallback(self, sign):
        """Last-resort super- (sign > 0) or subsolution candidate."""
        return None

    def active_set_solution(self, x, lam):
        """Direct minimizer of F on the support of x, to polish x."""
        return None

    def to_dict(self):
        arrays = {f.name: getattr(self, f.name).tolist() for f in fields(self)}
        return {"kind": self.kind, **arrays}

    @classmethod
    def from_dict(cls, data):
        return cls(*(data[f.name] for f in fields(cls)))


@dataclass(frozen=True, eq=False)
class QuadraticForm(SmoothLoss):
    """Smooth part f(x) = 0.5 * <A x, x> + <b, x>.

    A is symmetrized on construction and must be positive semidefinite:
    a Cholesky factorization of A + _PSD_RTOL * ||A||_inf * I must exist,
    at every dimension.
    """

    A: np.ndarray
    b: np.ndarray
    kind = "quadratic"

    def __post_init__(self):
        A = np.array(self.A, dtype=float)
        b = np.array(self.b, dtype=float).reshape(-1)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise DimensionMismatchError(f"A must be a square matrix, got shape {A.shape}")
        if b.shape[0] != A.shape[0]:
            raise DimensionMismatchError(
                f"b has length {b.shape[0]}, expected {A.shape[0]}"
            )
        if not (np.isfinite(A).all() and np.isfinite(b).all()):
            raise ValueError("A and b must have finite entries")
        A = 0.5 * (A + A.T)
        # The max row sum bounds every |eigenvalue|, so the shift is at least
        # _PSD_RTOL times the spectral radius, and A passes iff its smallest
        # eigenvalue exceeds -shift (up to rounding in the factorization).
        shift = _PSD_RTOL * float(np.abs(A).sum(axis=1).max())
        if shift > 0.0:
            try:
                np.linalg.cholesky(A + shift * np.eye(A.shape[0]))
            except np.linalg.LinAlgError:
                raise ValueError(
                    f"A is not positive semidefinite (A + {shift:.6e} I has no Cholesky factor)"
                ) from None
        A.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def dim(self):
        return self.A.shape[0]

    def value(self, x):
        return float(0.5 * x @ (self.A @ x) + self.b @ x)

    def grad(self, x):
        return self.A @ x + self.b

    def power_operator(self):
        A = self.A
        return (lambda v: A @ v), 1.0

    sweep_state = grad  # the running state is the gradient itself

    def coordinate_rows(self):
        return self.A, None

    def exact_steps(self):
        diag = self.A.diagonal()
        bad = np.nonzero(diag <= 0.0)[0]
        if bad.size:
            raise Assumption2Error(
                f"exact coordinate minimization needs strictly positive diagonal "
                f"entries; A_jj <= 0 at coordinates {bad.tolist()}"
            )
        return diag.tolist()

    def strictly_convex_coordinates(self):
        return bool(np.all(self.A.diagonal() > 0.0))

    def isotonicity_certificate(self):
        return check_isotonicity_quadratic(self.A)

    def start_fallback(self, sign):
        # For an order-preserving quadratic, A has nonnegative inverse, so
        # solving for a positive (negative) gradient target yields a point
        # on the wanted side.
        target = np.maximum(-self.b, 1.0) if sign > 0 else np.minimum(-self.b, -1.0)
        try:
            return np.linalg.solve(self.A, target)
        except np.linalg.LinAlgError:
            return None

    def active_set_solution(self, x, lam):
        A, b, d = self.A, self.b, self.dim
        if lam == 0.0:
            on = np.ones(d, dtype=bool)
            rhs = -b
        else:
            on = x != 0.0
            if not on.any():
                return np.zeros(d)
            rhs = -(b[on] + lam * np.sign(x[on]))
        try:
            sol = np.linalg.solve(A[np.ix_(on, on)], rhs)
        except np.linalg.LinAlgError:
            return None
        if lam > 0.0 and np.any(np.sign(sol) * np.sign(x[on]) < 0.0):
            return None
        cand = np.zeros(d)
        cand[on] = sol
        return cand


@dataclass(frozen=True, eq=False)
class LogisticData(SmoothLoss):
    """Design matrix X (n x d) and labels Y in {-1, +1} behind a logistic loss.

    The coordinate-sweep state is the half margins h = Y * (X @ w) / 2;
    the rows are the halved label-scaled columns c_j / 2 = Y * X[:, j] / 2,
    and the partial derivative j is sum_i c_ij (tanh(h_i) - 1) / (2 n), one
    tanh per evaluation.
    """

    X: np.ndarray
    Y: np.ndarray
    kind = "logistic"

    def __post_init__(self):
        X = np.array(self.X, dtype=float)
        Y = np.array(self.Y, dtype=float).reshape(-1)
        if X.ndim != 2:
            raise DimensionMismatchError(f"X must be two-dimensional, got shape {X.shape}")
        if X.shape[0] < 1 or X.shape[1] < 1:
            raise DimensionMismatchError("X needs at least one row and one column")
        if Y.shape[0] != X.shape[0]:
            raise DimensionMismatchError(
                f"Y has length {Y.shape[0]}, expected {X.shape[0]}"
            )
        if not np.isfinite(X).all():
            raise ValueError("X must have finite entries")
        if not np.isin(Y, (-1.0, 1.0)).all():
            raise ValueError("every label must be -1 or +1")
        X.setflags(write=False)
        Y.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)

    @property
    def dim(self):
        return self.X.shape[1]

    @property
    def n(self):
        return self.X.shape[0]

    def value(self, x):
        m = self.Y * (self.X @ x)
        return float(np.logaddexp(0.0, -m).mean())

    def grad(self, x):
        X, Y = self.X, self.Y
        m = Y * (X @ x)
        return -(X.T @ (Y * _expit(-m))) / self.n

    def power_operator(self):
        # sigma_max(X)^2 / (4 n)
        X = self.X
        return (lambda v: X.T @ (X @ v)), 4.0 * self.n

    def sweep_state(self, w):
        return 0.5 * (self.Y * (self.X @ w))

    def coordinate_rows(self):
        # Built per call, not cached here: the d x n copy belongs to one solve.
        rows = np.ascontiguousarray((self.X * (0.5 * self.Y)[:, None]).T)
        row_sums = rows.sum(axis=1).tolist()
        n, buf = self.n, np.empty(self.n)

        def deriv(j, h):
            np.tanh(h, out=buf)
            return (float(rows[j] @ buf) - row_sums[j]) / n

        return rows, deriv

    def strictly_convex_coordinates(self):
        # A nonzero column makes the coordinate restriction strictly convex.
        return bool(np.all(np.linalg.norm(self.X, axis=0) > 0.0))


Smooth = Union[QuadraticForm, LogisticData]
_KINDS = {cls.kind: cls for cls in (QuadraticForm, LogisticData)}


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """One l1-regularized problem: smooth part, l1 weight lam, step constant L."""

    smooth: Smooth
    lam: float
    lipschitz: float
    dim: int

    def __post_init__(self):
        if not isinstance(self.smooth, (QuadraticForm, LogisticData)):
            raise TypeError("smooth must be a QuadraticForm or LogisticData")
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "lipschitz", float(self.lipschitz))
        object.__setattr__(self, "dim", int(self.dim))
        if self.lam < 0.0:
            raise ValueError(f"lam must be nonnegative, got {self.lam}")
        if not self.lipschitz > 0.0:
            raise ValueError(f"lipschitz must be positive, got {self.lipschitz}")
        if self.dim != self.smooth.dim:
            raise DimensionMismatchError(
                f"dim {self.dim} does not match smooth part dimension {self.smooth.dim}"
            )


# ---------------------------------------------------------------------------
# Smooth-loss oracles
# ---------------------------------------------------------------------------

def f_value(p: ProblemSpec, x) -> float:
    """Value of the smooth part f at x (the l1 term is not included)."""
    return p.smooth.value(as_vector(x, p.dim))


def f_grad(p: ProblemSpec, x) -> np.ndarray:
    """Exact gradient of the smooth part at x."""
    return p.smooth.grad(as_vector(x, p.dim))


def objective(p: ProblemSpec, x) -> float:
    """Full objective F(x) = f(x) + lam * ||x||_1."""
    x = as_vector(x, p.dim)
    return f_value(p, x) + p.lam * float(np.abs(x).sum())


# ---------------------------------------------------------------------------
# Lipschitz-constant estimation
# ---------------------------------------------------------------------------

def _power_sweep(matvec, v, rtol, max_iters):
    """Run power iteration from start v; return (rayleigh estimate, converged)."""
    prev = None
    for _ in range(max_iters):
        w = matvec(v)
        cur = float(v @ w)
        nrm = float(np.linalg.norm(w))
        if nrm == 0.0:
            return 0.0, True
        v = w / nrm
        if prev is not None and abs(cur - prev) <= rtol * max(abs(cur), 1e-30):
            return cur, True
        prev = cur
    return (prev if prev is not None else 0.0), False


def _dominant_eigenvalue(matvec, d, rtol=_POWER_RTOL, max_iters=_POWER_MAX_ITERS):
    """Largest-magnitude eigenvalue of a symmetric operator by power iteration.

    Runs from the normalized all-ones vector and from one seeded random
    start; the all-ones start alone can be exactly orthogonal to the
    dominant eigenspace (e.g. [[2,-1],[-1,2]]).
    """
    rng = np.random.default_rng(_POWER_SEED)
    starts = [np.ones(d) / np.sqrt(d)]
    v = rng.standard_normal(d)
    nrm = float(np.linalg.norm(v))
    if nrm > 0.0:
        starts.append(v / nrm)
    best = 0.0
    for v0 in starts:
        est, converged = _power_sweep(matvec, v0, rtol, max_iters)
        best = max(best, abs(est))
        if not converged:
            raise PowerIterationError(
                f"power iteration did not converge within {max_iters} iterations "
                f"(best estimate {best:.6e})",
                best_estimate=best,
            )
    return best


def _perron_value(N):
    """Largest eigenvalue of a symmetric entrywise-nonnegative matrix.

    Shifting by the max row sum makes the target eigenvalue dominant, which
    keeps power iteration from stalling on +/- paired spectra of bipartite
    sparsity patterns.
    """
    shift = float(np.abs(N).sum(axis=1).max())
    if shift == 0.0:
        return 0.0
    est = _dominant_eigenvalue(lambda v: N @ v + shift * v, N.shape[0])
    return max(est - shift, 0.0)


def estimate_lipschitz(smooth: Smooth) -> float:
    """Gradient-Lipschitz constant of a smooth part, slightly inflated.

    Quadratic: largest eigenvalue of A. Logistic: sigma_max(X)^2 / (4 n).
    The result is multiplied by 1 + 1e-8 so the constant stays a valid
    upper bound despite estimation rounding.
    """
    if not isinstance(smooth, SmoothLoss):
        raise TypeError("smooth must be a QuadraticForm or LogisticData")
    matvec, divisor = smooth.power_operator()
    est = _dominant_eigenvalue(matvec, smooth.dim) / divisor
    return max(est * _L_INFLATION, _L_FLOOR)


# ---------------------------------------------------------------------------
# Builders and generators
# ---------------------------------------------------------------------------

def _problem(smooth, lam, lipschitz) -> ProblemSpec:
    L = estimate_lipschitz(smooth) if lipschitz is None else float(lipschitz)
    return ProblemSpec(smooth, float(lam), L, smooth.dim)


def quadratic_problem(A, b, lam, lipschitz=None) -> ProblemSpec:
    """Build a quadratic problem; L is estimated when not supplied."""
    return _problem(QuadraticForm(A, b), lam, lipschitz)


def logistic_problem(X, Y, lam, lipschitz=None) -> ProblemSpec:
    """Build a logistic-regression problem; L is estimated when not supplied."""
    return _problem(LogisticData(X, Y), lam, lipschitz)


def lasso_build(X, Y, lam) -> ProblemSpec:
    """Reduce an averaged least-squares problem with l1 penalty to quadratic form.

    The data loss is ||X x - Y||^2 / (2 n), so A = X^T X / n and
    b = -X^T Y / n (the constant ||Y||^2 / (2 n) is dropped).
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
        raise DimensionMismatchError(f"X must be a nonempty 2-D matrix, got shape {X.shape}")
    Y = as_vector(Y, X.shape[0], name="Y")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    n = X.shape[0]
    A = X.T @ X / n
    b = -(X.T @ Y) / n
    return quadratic_problem(A, b, lam)


def gen_zmatrix_quadratic(d, seed, density=0.5) -> ProblemSpec:
    """Random quadratic instance whose Hessian has nonpositive off-diagonals.

    Draws a symmetric nonnegative N with zero diagonal (each off-diagonal
    pair is nonzero with probability ``density``, magnitudes uniform in
    [0, 1]) and sets A = c I - N with c = 1.1 * rho(N) + 0.1, which keeps A
    positive definite with a margin and every diagonal entry strictly
    positive. b is uniform in [-1, 1]^d and lam uniform in [0.01, 0.5].
    Deterministic for a given seed.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    mag = rng.uniform(0.0, 1.0, size=(d, d))
    mask = rng.random(size=(d, d)) < density
    upper = np.triu(mag * mask, k=1)
    N = upper + upper.T
    b = rng.uniform(-1.0, 1.0, size=d)
    lam = float(rng.uniform(0.01, 0.5))
    c = 1.1 * _perron_value(N) + 0.1
    A = c * np.eye(d) - N
    return quadratic_problem(A, b, lam)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def problem_to_dict(p: ProblemSpec) -> dict:
    return {**p.smooth.to_dict(), "lambda": p.lam, "L": p.lipschitz, "dim": p.dim}


def problem_from_dict(data: dict) -> ProblemSpec:
    kind = data.get("kind")
    lam = data.get("lambda")
    if lam is None:
        raise ValueError("problem file is missing 'lambda'")
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown problem kind {kind!r}")
    p = _problem(cls.from_dict(data), lam, data.get("L"))
    if "dim" in data and int(data["dim"]) != p.dim:
        raise DimensionMismatchError(
            f"declared dim {data['dim']} does not match data dimension {p.dim}"
        )
    return p


def save_problem(p: ProblemSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(problem_to_dict(p), fh, indent=2)
        fh.write("\n")


def load_problem(path) -> ProblemSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return problem_from_dict(json.load(fh))


def load_xy_csv(path):
    """Read a dense CSV of rows [x_1, ..., x_d, y]; a header row is optional.

    Returns (X, Y) with X of shape (n, d) and Y of length n.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"{path} is empty")
    start = 0
    try:
        [float(tok) for tok in lines[0].split(",")]
    except ValueError:
        start = 1
    rows = [[float(tok) for tok in ln.split(",")] for ln in lines[start:]]
    if not rows:
        raise ValueError(f"{path} has a header but no data rows")
    width = len(rows[0])
    if width < 2 or any(len(r) != width for r in rows):
        raise ValueError("each CSV row needs the same length of at least 2 columns")
    data = np.asarray(rows, dtype=float)
    return data[:, :-1], data[:, -1]
