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

import math
from dataclasses import dataclass, fields

import numpy as np

from ._jsonlayout import json_value, loads
from .errors import (
    Assumption2Error,
    DataOverflowError,
    DimensionMismatchError,
    LipschitzCertificateError,
)

# Construction-time tolerances.
_PSD_RTOL = 1e-9
_OFFDIAG_TOL = 1e-14
_L_INFLATION = 1.0 + 1e-8
_L_FLOOR = 1e-12

# Newton's method of the logistic support polish stops after a step that
# moves no entry by more than _NEWTON_STEP_RTOL * (1 + the iterate's sup
# norm), or after _NEWTON_MAX_ITERS steps.
_NEWTON_MAX_ITERS = 50
_NEWTON_STEP_RTOL = 1e-12


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


def _has_shifted_cholesky(M, shift):
    """Whether M + shift * I has a Cholesky factor; shifts M's diagonal in place.

    Only the lower triangle of M is read, so M must be symmetric.
    """
    M.flat[:: M.shape[0] + 1] += shift
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return False
    return True


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
    big = A > tol
    np.fill_diagonal(big, False)
    if not big.any():
        return True, []
    # np.nonzero walks the upper triangle in row-major order.
    rows, cols = np.nonzero(np.triu(big | big.T, k=1))
    offenders = list(zip(rows.tolist(), cols.tolist()))
    return (not offenders), offenders


class SmoothLoss:
    """What the solvers and the verification harness ask of a smooth part f.

    Subclasses are frozen dataclasses whose fields are the arrays of their
    problem files, in file order, and whose class attribute ``kind`` tags
    those files. Each provides dim, the number of coordinates; value(x)
    and grad(x) at a validated vector x; values_and_grads(W), whose row i
    is bitwise (value(W[i]), grad(W[i])) for a stack W of points (stacked
    np.matmul shapes give each row the BLAS call of the one-point
    product; one matrix product over all rows, such as W @ A, would
    round differently); lipschitz_matrix(), the dense symmetric matrix
    whose largest eigenvalue is the gradient's Lipschitz constant; and for
    the coordinate kernel sweep_state(w), the running state of a sweep at
    w, and coordinate_rows(), a (rows, deriv) pair: after coordinate j
    moves by delta the state grows by delta * rows[j], and deriv(j, state)
    is the partial derivative j, or deriv is None when that is state[j]
    itself. The hooks below return None where a loss has no such answer.
    """

    kind = None

    def exact_steps(self):
        """Closed-form ccm curvature of each coordinate; None: a 1-D solve.
        Raises Assumption2Error where a coordinate has no ccm step."""
        return None

    def affine_gradient(self):
        """(A, b), float64 arrays with grad(x) bitwise np.matmul(A, x) + b,
        when the loss's values_and_grads(W, AW) also takes the products
        AW[i] = np.matmul(A, W[i]) and then computes none; None otherwise.
        run() then forms each iterate's product once, for its step and its
        measurement: in C, by the dgemv numpy's matmul calls, in the same
        call as the step that makes the iterate (compiled_step)."""
        return None

    def isotonicity_certificate(self):
        """Exact (ok, offenders) for order preservation of x - grad f(x)/L;
        None: only sampled evidence."""
        return None

    def start_fallback(self, sign):
        """Last-resort super- (sign > 0) or subsolution candidate."""
        return None

    def active_set_solution(self, x, lam):
        """Minimizer of f + lam * <sign(x), .> on the support of x (all
        coordinates when lam is 0), to polish x; None when it flips a sign
        of x or cannot be computed (a non-finite result included)."""
        return None

    def to_dict(self):
        """The loss's fields of a problem file, in file order, as its own arrays."""
        return {"kind": self.kind, **{f.name: getattr(self, f.name) for f in fields(self)}}

    @classmethod
    def from_dict(cls, data):
        for f in fields(cls):
            if f.name not in data:
                raise ValueError(f"problem file is missing {f.name!r}")
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
        # The max row sum bounds every |eigenvalue|, so the shift is at least
        # _PSD_RTOL times the spectral radius, and A passes iff its smallest
        # eigenvalue exceeds -shift (up to rounding in the factorization).
        # An overflow in either step leaves the shift infinite.
        with np.errstate(over="ignore"):
            A += A.T  # numpy buffers the overlapping operand
            A *= 0.5
            M = np.abs(A)
            shift = _PSD_RTOL * float(M.sum(axis=1).max())
        if not math.isfinite(shift):
            what = "the row sums of |A| overflow" if np.isfinite(A).all() else "A + A^T overflows"
            raise DataOverflowError(f"{what} float64; rescale A")
        np.copyto(M, A)  # |A|'s buffer, reused for the factorization
        if shift > 0.0 and not _has_shifted_cholesky(M, shift):
            raise ValueError(
                f"A is not positive semidefinite (A + {shift:.6e} I has no Cholesky factor)"
            )
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

    def values_and_grads(self, W, AW=None):
        AW = np.matmul(self.A, W[:, :, None]) if AW is None else AW[:, :, None]
        values = np.matmul((0.5 * W)[:, None, :], AW) + np.matmul(W[:, None, :], self.b[:, None])
        return values[:, 0, 0], AW[:, :, 0] + self.b

    def affine_gradient(self):
        return self.A, self.b

    def lipschitz_matrix(self):
        return self.A

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
        if not np.isfinite(sol).all():
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
        m = self.Y * (self.X @ x)
        return -(self.X.T @ (self.Y * _expit(-m))) / self.n

    def values_and_grads(self, W):
        M = self.Y * np.matmul(self.X, W[:, :, None])[:, :, 0]
        S = self.Y * _expit(-M)
        G = -np.matmul(self.X.T, S[:, :, None])[:, :, 0] / self.n
        return np.logaddexp(0.0, -M).mean(axis=1), G

    def lipschitz_matrix(self):
        # sigma_max(X)^2 / (4 n), from the smaller of the two Gram matrices.
        X = self.X
        gram = X.T @ X if X.shape[0] >= X.shape[1] else X @ X.T
        gram /= 4.0 * self.n
        return gram

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

    def active_set_solution(self, x, lam):
        # Newton's method from x on the support; the Hessian of f there is
        # X_S^T diag(s (1 - s)) X_S / n with s = expit(-margins).
        on = np.ones(self.dim, dtype=bool) if lam == 0.0 else x != 0.0
        if not on.any():
            return np.zeros(self.dim)
        XS, Y, n = self.X[:, on], self.Y, self.n
        sign = np.sign(x[on])
        z = x[on]
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(_NEWTON_MAX_ITERS):
                s = _expit(-(Y * (XS @ z)))
                g = lam * sign - (XS.T @ (Y * s)) / n
                try:
                    step = np.linalg.solve((XS.T * (s * (1.0 - s))) @ XS / n, g)
                except np.linalg.LinAlgError:
                    return None
                z = z - step
                if not np.isfinite(z).all():
                    return None
                if np.abs(step).max() <= _NEWTON_STEP_RTOL * (1.0 + np.abs(z).max()):
                    break
        if lam > 0.0 and np.any(np.sign(z) * sign < 0.0):
            return None
        cand = np.zeros(self.dim)
        cand[on] = z
        return cand


_KINDS = {cls.kind: cls for cls in (QuadraticForm, LogisticData)}
# The fields of a problem file that hold the data arrays of some kind.
_DATA_FIELDS = frozenset(f.name for cls in _KINDS.values() for f in fields(cls))


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """One l1-regularized problem: smooth part, l1 weight lam, step constant L."""

    smooth: SmoothLoss
    lam: float
    lipschitz: float

    def __post_init__(self):
        if not isinstance(self.smooth, SmoothLoss):
            raise TypeError("smooth must be a SmoothLoss")
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "lipschitz", float(self.lipschitz))
        # NaN fails these tests too; with L = inf no prox step would move.
        if not (self.lam >= 0.0 and math.isfinite(self.lam)):
            raise ValueError(f"lam must be nonnegative and finite, got {self.lam}")
        if not (self.lipschitz > 0.0 and math.isfinite(self.lipschitz)):
            raise ValueError(f"lipschitz must be positive and finite, got {self.lipschitz}")

    @property
    def dim(self) -> int:
        return self.smooth.dim


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
    return p.smooth.value(x) + p.lam * float(np.abs(x).sum())


# ---------------------------------------------------------------------------
# Lipschitz-constant estimation
# ---------------------------------------------------------------------------

def estimate_lipschitz(smooth: SmoothLoss) -> float:
    """Certified gradient-Lipschitz constant of a smooth part, slightly inflated.

    Quadratic: largest eigenvalue of A. Logistic: sigma_max(X)^2 / (4 n).
    With H = smooth.lipschitz_matrix(), the top eigenvalue of H from one
    dense eigensolve is multiplied by 1 + 1e-8, and the result L is
    certified by a Cholesky factorization of L I - H, which exists only
    when L exceeds every eigenvalue of H (up to rounding in the
    factorization, far below the 1e-8 margin). Raises
    LipschitzCertificateError when the factorization fails, and
    DataOverflowError when H or L overflows float64.
    """
    if not isinstance(smooth, SmoothLoss):
        raise TypeError("smooth must be a SmoothLoss")
    with np.errstate(over="ignore"):
        H = smooth.lipschitz_matrix()
        top = float(np.linalg.eigvalsh(H)[-1]) if np.isfinite(H).all() else math.inf
        L = max(top * _L_INFLATION, _L_FLOOR)
    if not math.isfinite(L):
        raise DataOverflowError(
            f"the {smooth.kind} loss's Lipschitz matrix or its top eigenvalue "
            "overflows float64; rescale the data"
        )
    M = np.negative(H)
    if not _has_shifted_cholesky(M, L):
        # M is now L I - H; its smallest eigenvalue is L minus the top of H.
        shortfall = -float(np.linalg.eigvalsh(M)[0])
        raise LipschitzCertificateError(L, L + shortfall, shortfall)
    return L


# ---------------------------------------------------------------------------
# Builders and generators
# ---------------------------------------------------------------------------

def _problem(smooth, lam, lipschitz) -> ProblemSpec:
    L = estimate_lipschitz(smooth) if lipschitz is None else float(lipschitz)
    return ProblemSpec(smooth, float(lam), L)


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
    [0, 1]) and sets A = c I - N with c = 1.1 * rho(N) + 0.1, rho(N) the
    largest eigenvalue of N. So the smallest eigenvalue of A is
    c - rho(N) = 0.1 * rho(N) + 0.1 >= 0.1, and every diagonal entry is
    strictly positive. b is uniform in [-1, 1]^d and lam uniform in [0.01, 0.5].
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
    rho = max(float(np.linalg.eigvalsh(N)[-1]), 0.0)
    # A = c I - N in N's buffer; 0.0 - N keeps its zeros positive.
    A = np.subtract(0.0, N, out=N)
    A.flat[:: d + 1] = 1.1 * rho + 0.1
    return quadratic_problem(A, b, lam)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def _problem_fields(p: ProblemSpec) -> dict:
    # A problem file's fields in file order, the data as the loss's own arrays.
    return {**p.smooth.to_dict(), "lambda": p.lam, "L": p.lipschitz, "dim": p.dim}


def problem_to_dict(p: ProblemSpec) -> dict:
    return {k: v.tolist() if isinstance(v, np.ndarray) else v
            for k, v in _problem_fields(p).items()}


def _check_field(data, field, types, what):
    # A scalar field must hold a JSON value of its type; a bool is not a number.
    value = data[field]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ValueError(f"problem field {field!r} must be {what}, got {value!r}")


def problem_from_dict(data: dict) -> ProblemSpec:
    if not isinstance(data, dict):
        raise ValueError("problem file must contain a JSON object")
    kind = data.get("kind")
    lam = data.get("lambda")
    if lam is None:
        raise ValueError("problem file is missing 'lambda'")
    _check_field(data, "lambda", (int, float), "a number")
    if data.get("L") is not None:
        _check_field(data, "L", (int, float), "a number or null")
    if "dim" in data:
        _check_field(data, "dim", int, "an integer")
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown problem kind {kind!r}")
    p = _problem(cls.from_dict(data), lam, data.get("L"))
    if "dim" in data and data["dim"] != p.dim:
        raise DimensionMismatchError(
            f"declared dim {data['dim']} does not match data dimension {p.dim}"
        )
    return p


def save_problem(p: ProblemSpec, path) -> None:
    """Write p as ``json.dump(problem_to_dict(p), fh, indent=2)`` plus a newline would.

    The data are rendered from the arrays as whole rows, at most 8192 values
    per call; the nested lists of problem_to_dict, about three times the
    size of the arrays, are never built.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json_value(_problem_fields(p)))
        fh.write("\n")


def load_problem(path) -> ProblemSpec:
    """The problem of ``problem_from_dict(json.load(fh))`` for the file
    opened as ``open(path, encoding="utf-8")``, with the same exceptions.

    The data arrays are read from the file's bytes by _jsonlayout.loads,
    in C where it can, to the bits np.array gives of json.load's lists.
    """
    with open(path, "rb") as fh:
        return problem_from_dict(loads(fh.read(), _DATA_FIELDS))


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
