"""Empirical certification harness for the three-way solver comparison.

Starting the three algorithms from a common supersolution, the exact-
arithmetic theory predicts, at every outer iteration k,

  * componentwise dominance  z(k) <= y(k) <= x(k)  (ccm, ccd, gd),
  * objective ordering       F(z(k)) <= F(y(k)) <= F(x(k)),
  * the sublinear bound      F(x(k)) <= F* + L ||x* - x0||^2 / (2 k),
  * preservation of the supersolution property along every sequence,

with mirrored inequalities from a subsolution. These hold under two
hypotheses: x - grad f(x)/L preserves the componentwise order, and the
start is classified. The harness runs the three solvers, checks each
prediction per iteration within floating-point tolerances, and reports.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError, ReferenceSolveError, StartSearchError
from .operators import (
    Kind,
    check_isotonicity_sampled,
    classify_point,
    optimality_residual,
    prox_gradient_map,
)
from .problems import ProblemSpec, as_vector, objective
from .solvers import CoordinateKernel, SolverConfig, run

_RATE_RTOL = 1e-9
_REFERENCE_RESIDUAL = 1e-10


def _inf_norm(v):
    return float(np.max(np.abs(v))) if len(v) else 0.0


# ---------------------------------------------------------------------------
# Classified starting points
# ---------------------------------------------------------------------------

_LADDER = [2.0 ** i for i in range(41)]


def _search_start(p, seed, want, tol):
    certificate = p.smooth.isotonicity_certificate()
    if certificate is not None and not certificate[0]:
        raise PreconditionError(
            f"isotonicity precondition failed: {len(certificate[1])} positive "
            "off-diagonal pairs"
        )
    d = p.dim
    sign = 1.0 if want is Kind.SUPERSOLUTION else -1.0

    def hit(x):
        return classify_point(p, x, tol).kind is want

    ones = sign * np.ones(d)
    for t in _LADDER:
        if hit(t * ones):
            return t * ones
    rng = np.random.default_rng(seed)
    for _ in range(20):
        u = sign * rng.random(d)
        for t in _LADDER:
            if hit(t * u):
                return t * u
    x = p.smooth.start_fallback(sign)
    if x is not None and hit(x):
        return x
    raise StartSearchError(
        f"no {want.value} found; consider regenerating the instance"
    )


def find_supersolution(p: ProblemSpec, seed: int = 0, tol: float = 1e-10) -> np.ndarray:
    """Deterministically search for a point that classifies as a supersolution.

    Tries scaled all-ones points, then seeded random positive directions,
    and finally the smooth part's own fallback (for quadratics a
    gradient-target linear solve). An instance with an exact isotonicity
    certificate (quadratics: the off-diagonal test) must pass it first.
    """
    return _search_start(p, seed, Kind.SUPERSOLUTION, tol)


def find_subsolution(p: ProblemSpec, seed: int = 0, tol: float = 1e-10) -> np.ndarray:
    """Mirror of find_supersolution using negative directions."""
    return _search_start(p, seed, Kind.SUBSOLUTION, tol)


# ---------------------------------------------------------------------------
# Reference minimizer
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ReferenceSolution:
    """High-precision minimizer used as the oracle for rate checks."""

    x_star: np.ndarray
    f_star: float
    residual: float
    method: str


def reference_minimizer(
    p: ProblemSpec, stop_residual: float = 1e-12, max_sweeps: int = 10 ** 6
) -> ReferenceSolution:
    """Solve p to high precision for use as the F* oracle.

    Runs exact coordinate minimization when every coordinate restriction
    is verifiably strictly convex, otherwise proximal-gradient steps. When
    the smooth part offers a direct solve on the recovered support (the
    quadratic active-set solve), the result is cross-checked against it and
    the better of the two is kept. Raises when the final residual exceeds
    1e-10.
    """
    use_ccm = p.smooth.strictly_convex_coordinates()
    method = "ccm" if use_ccm else "gd"
    kernel = CoordinateKernel(p, "ccm") if use_ccm else None
    x = np.zeros(p.dim)
    for _ in range(max_sweeps):
        # One prox-gradient image per point: its residual and the gd step.
        image = prox_gradient_map(p, x)
        if _inf_norm(x - image) <= stop_residual:
            break
        nxt = kernel.sweep(x.copy()) if use_ccm else image
        if np.array_equal(nxt, x):
            break  # numerical fixed point of the sweep map
        x = nxt
    best_res = optimality_residual(p, x)
    cand = p.smooth.active_set_solution(x, p.lam)
    if cand is not None:
        cand_res = optimality_residual(p, cand)
        if cand_res < best_res:
            x, best_res = cand, cand_res
            method += "+active-set"
    if best_res > _REFERENCE_RESIDUAL:
        raise ReferenceSolveError(
            f"reference solve stalled at residual {best_res:.3e} (> {_REFERENCE_RESIDUAL})"
        )
    x = np.array(x)
    x.setflags(write=False)
    return ReferenceSolution(
        x_star=x, f_star=objective(p, x), residual=best_res, method=method
    )


# ---------------------------------------------------------------------------
# Per-iteration checks and the comparison report
# ---------------------------------------------------------------------------

def rate_check(trace, ref: ReferenceSolution, x0, L: float, rtol: float = _RATE_RTOL):
    """Per-iteration flags for F(x(k)) - F* <= L ||x* - x0||^2 / (2k), k >= 1."""
    x0 = as_vector(x0)
    base = L * float(np.sum((ref.x_star - x0) ** 2)) / 2.0
    slack = rtol * (1.0 + abs(ref.f_star))
    return [
        trace.f_values[k] - ref.f_star <= base / k + slack
        for k in range(1, len(trace.f_values))
    ]


def check_objective_ordering(p: ProblemSpec, y, x, tol: float = 1e-10) -> bool:
    """Check F(y) <= F(x) for a supersolution y <= x (or the subsolution mirror).

    This is the standalone objective-ordering property behind the F-chain,
    tested independently of any solver run.
    """
    y = as_vector(y, p.dim)
    x = as_vector(x, p.dim)
    cls = classify_point(p, y, tol)
    gap = tol * (1.0 + max(_inf_norm(x), _inf_norm(y)))
    if cls.kind is Kind.SUPERSOLUTION:
        if not np.all(y <= x + gap):
            raise PreconditionError("need y <= x componentwise for a supersolution y")
    elif cls.kind is Kind.SUBSOLUTION:
        if not np.all(y >= x - gap):
            raise PreconditionError("need y >= x componentwise for a subsolution y")
    elif cls.kind is not Kind.EXACT:
        raise PreconditionError("y must classify as a super- or subsolution")
    return objective(p, y) <= objective(p, x) + tol * (1.0 + abs(objective(p, x)))


@dataclass(frozen=True)
class IterationRecord:
    """Per-iteration verdicts of a three-way comparison run."""

    k: int
    f_gd: float
    f_ccd: float
    f_ccm: float
    bound: float
    dominance_ok: bool
    f_order_ok: bool
    rate_ok: bool
    classes: tuple
    persistence_ok: bool

    @property
    def all_ok(self):
        return self.dominance_ok and self.f_order_ok and self.rate_ok and self.persistence_ok


@dataclass(eq=False)
class ComparisonReport:
    """Outcome of one three-way run from a common classified start."""

    start: object
    dominance_tol: float
    rate_rtol: float
    isotonicity_ok: bool
    reference: ReferenceSolution
    records: list
    traces: dict = field(repr=False, default_factory=dict)

    @property
    def verdict(self):
        return all(r.all_ok for r in self.records)

    def to_json_dict(self) -> dict:
        return {
            "start_kind": self.start.kind.value,
            "dominance_tol": self.dominance_tol,
            "rate_rtol": self.rate_rtol,
            "isotonicity_ok": self.isotonicity_ok,
            "verdict": self.verdict,
            "reference": {
                "x_star": self.reference.x_star.tolist(),
                "f_star": self.reference.f_star,
                "residual": self.reference.residual,
                "method": self.reference.method,
            },
            "per_iteration": [
                {
                    "k": r.k,
                    "f_gd": r.f_gd,
                    "f_ccd": r.f_ccd,
                    "f_ccm": r.f_ccm,
                    "bound": None if math.isinf(r.bound) else r.bound,
                    "dominance_ok": r.dominance_ok,
                    "f_order_ok": r.f_order_ok,
                    "rate_ok": r.rate_ok,
                    "classes": [c.value for c in r.classes],
                    "persistence_ok": r.persistence_ok,
                }
                for r in self.records
            ],
        }

    def write_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")

    def write_summary_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("k,F_gd,F_ccd,F_ccm,bound,dominance_ok\n")
            for r in self.records:
                fh.write(
                    f"{r.k},{r.f_gd:.17g},{r.f_ccd:.17g},{r.f_ccm:.17g},"
                    f"{r.bound:.17g},{int(r.dominance_ok)}\n"
                )


def run_comparison(
    p: ProblemSpec,
    x0,
    K: int,
    tol: float = 1e-8,
    report_only: bool = False,
    isotonicity_samples: int = 1000,
    seed: int = 0,
) -> ComparisonReport:
    """Run gd, ccd, and ccm for K iterations from x0 and check every prediction.

    Preconditions (skipped when report_only is set, in which case the
    outcome is merely reported): x0 classifies as a super- or subsolution,
    and the instance passes the isotonicity check (the smooth part's exact
    certificate, such as the off-diagonal test for quadratics, or a seeded
    sampled check when it has none).

    Comparison tolerances are ``tol`` scaled by 1 + the sup norm of the
    iterates involved (or 1 + |F| for objective comparisons); the rate
    bound uses the fixed relative slack of rate_check.
    """
    if K < 1:
        raise ValueError("K must be at least 1")
    x0 = as_vector(x0, p.dim)
    certificate = p.smooth.isotonicity_certificate()
    if certificate is not None:
        iso_ok = certificate[0]
    else:
        iso_ok = check_isotonicity_sampled(p, isotonicity_samples, seed).ok
    start = classify_point(p, x0, tol * (1.0 + _inf_norm(x0)))
    if not report_only:
        if not iso_ok:
            raise PreconditionError(
                "isotonicity precondition failed: the comparison hypotheses do not hold"
            )
        if start.kind not in (Kind.SUPERSOLUTION, Kind.SUBSOLUTION):
            raise PreconditionError(
                f"start point classifies as {start.kind.value}; "
                "a super- or subsolution is required"
            )
    from_above = start.kind is not Kind.SUBSOLUTION

    cfg = SolverConfig(max_outer_iters=K, stop_residual=0.0)
    traces = {alg: run(alg, p, x0, cfg) for alg in ("gd", "ccd", "ccm")}
    ref = reference_minimizer(p)
    rate_flags = rate_check(traces["gd"], ref, x0, p.lipschitz)
    base = p.lipschitz * float(np.sum((ref.x_star - x0) ** 2)) / 2.0

    records = []
    for k in range(K + 1):
        xk = traces["gd"].iterates[k]
        yk = traces["ccd"].iterates[k]
        zk = traces["ccm"].iterates[k]
        gap = tol * (1.0 + max(_inf_norm(xk), _inf_norm(yk), _inf_norm(zk)))
        if from_above:
            dominance = bool(np.all(zk <= yk + gap) and np.all(yk <= xk + gap))
        else:
            dominance = bool(np.all(zk >= yk - gap) and np.all(yk >= xk - gap))
        f_gd = traces["gd"].f_values[k]
        f_ccd = traces["ccd"].f_values[k]
        f_ccm = traces["ccm"].f_values[k]
        f_gap = tol * (1.0 + abs(f_gd))
        f_order = (f_ccm <= f_ccd + f_gap) and (f_ccd <= f_gd + f_gap)
        classes = tuple(
            classify_point(p, w, tol * (1.0 + _inf_norm(w))).kind for w in (xk, yk, zk)
        )
        # Exact points satisfy both defining inequalities, so convergence
        # does not break persistence of the starting kind.
        persistence = all(c is start.kind or c is Kind.EXACT for c in classes)
        records.append(
            IterationRecord(
                k=k,
                f_gd=f_gd,
                f_ccd=f_ccd,
                f_ccm=f_ccm,
                bound=math.inf if k == 0 else ref.f_star + base / k,
                dominance_ok=dominance,
                f_order_ok=f_order,
                rate_ok=True if k == 0 else rate_flags[k - 1],
                classes=classes,
                persistence_ok=persistence,
            )
        )

    return ComparisonReport(
        start=start,
        dominance_tol=tol,
        rate_rtol=_RATE_RTOL,
        isotonicity_ok=iso_ok,
        reference=ref,
        records=records,
        traces=traces,
    )
