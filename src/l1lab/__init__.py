"""l1lab: gd, ccd, and ccm for l1-regularized smooth convex problems.

The package provides problem builders and oracles, shrinkage operators
and point classification, the three solvers with trace recording, and a
harness that empirically checks the dominance, objective-ordering, and
O(1/k) rate predictions of the three-way comparison.
"""

from .errors import (
    Assumption2Error,
    ConvergenceError,
    DataOverflowError,
    DimensionMismatchError,
    L1LabError,
    LipschitzCertificateError,
    NonFiniteIterateError,
    PowerIterationError,
    PreconditionError,
    ReferenceSolveError,
    StartSearchError,
    UnboundedBelowError,
)
from .operators import (
    Classification,
    Kind,
    check_isotonicity_quadratic,
    check_isotonicity_sampled,
    classify_point,
    classify_scale_sweep,
    optimality_residual,
    prox_gradient_map,
    scalar_shrink,
    shrink_tau_curve,
    vector_shrink,
)
from .problems import (
    LogisticData,
    ProblemSpec,
    QuadraticForm,
    estimate_lipschitz,
    f_grad,
    f_value,
    gen_zmatrix_quadratic,
    lasso_build,
    load_problem,
    load_xy_csv,
    logistic_problem,
    objective,
    quadratic_problem,
    save_problem,
)
from .solvers import (
    SolverConfig,
    TauRecord,
    Trace,
    ccm_tau_log,
    inner_iterates,
    run,
    solve_1d_prox,
)
from .verification import (
    ComparisonReport,
    IterationRecord,
    ReferenceSolution,
    check_objective_ordering,
    find_subsolution,
    find_supersolution,
    rate_check,
    reference_minimizer,
    run_comparison,
)

__version__ = "0.1.0"

# The public API: the names that the README, the command line and the tests
# use. Every other name imported above stays importable from l1lab.
__all__ = [
    "Assumption2Error",
    "DataOverflowError",
    "DimensionMismatchError",
    "Kind",
    "L1LabError",
    "LipschitzCertificateError",
    "LogisticData",
    "NonFiniteIterateError",
    "PreconditionError",
    "QuadraticForm",
    "ReferenceSolveError",
    "SolverConfig",
    "StartSearchError",
    "UnboundedBelowError",
    "ccm_tau_log",
    "check_isotonicity_quadratic",
    "check_isotonicity_sampled",
    "check_objective_ordering",
    "classify_point",
    "classify_scale_sweep",
    "estimate_lipschitz",
    "f_grad",
    "f_value",
    "find_subsolution",
    "find_supersolution",
    "gen_zmatrix_quadratic",
    "inner_iterates",
    "lasso_build",
    "load_problem",
    "load_xy_csv",
    "logistic_problem",
    "objective",
    "optimality_residual",
    "prox_gradient_map",
    "quadratic_problem",
    "rate_check",
    "reference_minimizer",
    "run",
    "run_comparison",
    "save_problem",
    "scalar_shrink",
    "shrink_tau_curve",
    "solve_1d_prox",
    "vector_shrink",
]
