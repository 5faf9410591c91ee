"""Exception types shared across the package."""


class L1LabError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(L1LabError, ValueError):
    """A vector or matrix has the wrong shape for the requested operation."""


class PowerIterationError(L1LabError, RuntimeError):
    """Power iteration failed to converge within its iteration budget.

    Kept only for compatibility with code that catches it: l1lab computes
    the step constant by a dense eigensolve and no longer raises it.
    """

    def __init__(self, message, best_estimate):
        super().__init__(message)
        self.best_estimate = best_estimate


class DataOverflowError(L1LabError, ValueError):
    """Finite input data are too large: a quantity derived from them overflows float64."""


class LipschitzCertificateError(L1LabError, RuntimeError):
    """A computed step constant L failed its certificate L >= lambda_max.

    ``lipschitz`` is L, ``lambda_max`` the top eigenvalue it falls short
    of, and ``shortfall`` their difference lambda_max - L.
    """

    def __init__(self, lipschitz, lambda_max, shortfall):
        super().__init__(
            f"L = {lipschitz:.17g} is below the top eigenvalue "
            f"lambda_max = {lambda_max:.17g} by {shortfall:.6e}: "
            f"L I - H has no Cholesky factor"
        )
        self.lipschitz = lipschitz
        self.lambda_max = lambda_max
        self.shortfall = shortfall


class Assumption2Error(L1LabError, ValueError):
    """A coordinate restriction of the smooth part is not strictly convex."""


class PreconditionError(L1LabError, ValueError):
    """A documented precondition of an operation does not hold."""


class UnboundedBelowError(L1LabError, RuntimeError):
    """One-dimensional minimization could not bracket a minimizer."""


class ConvergenceError(L1LabError, RuntimeError):
    """An iterative routine exhausted its budget before reaching tolerance."""


class NonFiniteIterateError(L1LabError, RuntimeError):
    """A solver produced a NaN or Inf iterate."""

    def __init__(self, message, iteration):
        super().__init__(message)
        self.iteration = iteration


class ReferenceSolveError(L1LabError, RuntimeError):
    """The reference minimizer failed to reach the required residual."""


class StartSearchError(L1LabError, RuntimeError):
    """No supersolution or subsolution start could be found."""
