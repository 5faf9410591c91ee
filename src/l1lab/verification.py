"""Empirical certification harness for the three-way solver comparison.

Starting the three algorithms from a common supersolution, the exact-
arithmetic theory predicts, at every outer iteration k,

  * componentwise dominance  z(k) <= y(k) <= x(k)  (ccm, ccd, gd),
  * objective ordering       F(z(k)) <= F(y(k)) <= F(x(k)),
  * the sublinear bound      F(w(k)) <= F* + L ||x* - x0||^2 / (2 k)
                             for each of w = x, y, z,
  * preservation of the supersolution property along every sequence,

with mirrored inequalities from a subsolution. These hold under two
hypotheses: x - grad f(x)/L preserves the componentwise order, and the
start is classified. The harness runs the three solvers, stacks their
traces, checks each prediction at every iteration with one array
expression within floating-point tolerances, and reports.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from functools import partial

import numpy as np

from ._jsonlayout import json_records, json_value, render, render_pieces
from .errors import Assumption2Error, PreconditionError, ReferenceSolveError, StartSearchError
from .operators import (
    KIND_BY_CODE,
    Kind,
    check_isotonicity_sampled,
    check_scalar_tolerance,
    classify_point,
    kind_codes,
    optimality_residual,
)
from .problems import ProblemSpec, as_vector, check_count, objective
from .solvers import (_ALGORITHMS, CoordinateKernel, SolverConfig, compiled_affine,
                      compiled_step, measure_rows, run)

_RATE_RTOL = 1e-9
_REFERENCE_RESIDUAL = 1e-10
# Residual at which the reference solve stops: its sweeps, or a polished point.
_REFERENCE_STOP = 1e-12


def _inf_norm(v):
    return float(np.max(np.abs(v))) if len(v) else 0.0


# ---------------------------------------------------------------------------
# Classified starting points
# ---------------------------------------------------------------------------

# Powers of two, so that for an affine gradient A x + b each rung's
# t (A u) + b is bitwise grad(t u): scaling by a power of two is exact (short
# of overflow and subnormals), so every product and partial sum of A (t u)
# is t times that of A u.
_LADDER = np.array([2.0 ** i for i in range(41)])


def _search_start(p, seed, want, tol):
    check_scalar_tolerance(tol)
    certificate = p.smooth.isotonicity_certificate()
    if certificate is not None and not certificate[0]:
        raise PreconditionError(
            f"isotonicity precondition failed: {len(certificate[1])} positive "
            "off-diagonal pairs"
        )
    d = p.dim
    sign = 1.0 if want is Kind.SUPERSOLUTION else -1.0
    code = KIND_BY_CODE.index(want)
    u = np.empty(d)  # the direction of the ray under test
    a = np.empty(d)  # its product A u, when the gradient is affine
    affine = p.smooth.affine_gradient()
    compiled = compiled_affine(p)
    if compiled is not None:
        lib, _, b = compiled
        ray = partial(lib.qray, d, len(_LADDER), _LADDER.ctypes.data, u.ctypes.data,
                      a.ctypes.data, b.ctypes.data, p.lam, float(tol), sign)

    def first_hit():
        # The first rung of the ray t * u of the wanted kind: in C, the rungs
        # in order, each left at its first coordinate of the wrong kind;
        # otherwise every rung at once, the first of the wanted code winning.
        # The ladder warns nothing where its top rungs overflow: a candidate
        # warns only in classify_point's confirmation.
        with np.errstate(over="ignore", invalid="ignore"):
            if affine is not None:
                np.matmul(affine[0], u, out=a)
            if compiled is not None:
                r = ray()
            else:
                grads = (np.multiply.outer(_LADDER, a) + affine[1] if affine is not None
                         else [p.smooth.grad(t * u) for t in _LADDER])
                hits = np.flatnonzero(
                    kind_codes(p, np.multiply.outer(_LADDER, u), grads, tol) == code)
                r = hits[0] if hits.size else -1
        return None if r < 0 else _LADDER[r] * u

    def candidates():
        # The first hit of the all-ones ray, of each seeded ray, then the fallback.
        u.fill(sign)
        yield first_hit()
        rng = np.random.default_rng(seed)
        for _ in range(20):
            rng.random(out=u)
            np.multiply(u, sign, out=u)
            yield first_hit()
        yield p.smooth.start_fallback(sign)

    # A ray's rungs take the gradient t (A u) + b, which is grad(t u) only
    # while nothing overflows, so each candidate is confirmed on its own.
    for x in candidates():
        if x is not None and np.isfinite(x).all() and classify_point(p, x, tol).kind is want:
            return x
    raise StartSearchError(
        f"no {want.value} found; consider regenerating the instance"
    )


def find_supersolution(p: ProblemSpec, seed: int = 0, tol: float = 1e-10) -> np.ndarray:
    """Deterministically search for a point that classifies as a supersolution.

    Tries scaled all-ones points, then seeded random positive directions,
    and finally the smooth part's own fallback (for quadratics a
    gradient-target linear solve), and returns the first finite candidate
    that classify_point confirms; StartSearchError when none is. An
    instance with an exact isotonicity certificate (quadratics: the
    off-diagonal test) must pass it first.
    tol is one nonnegative value; anything else raises ValueError. With the
    compiled library, a quadratic's rays are classified in C (qray in
    _qsweep.c), with the same result as the numpy classification.
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


def reference_minimizer(p: ProblemSpec, max_sweeps: int = 10 ** 6) -> ReferenceSolution:
    """Solve p to high precision for use as the F* oracle.

    Sweeps as run() steps ccm, or ccd when the ccm step raises
    Assumption2Error (a quadratic diagonal entry <= 0), from 0 until the
    residual is at most 1e-12 or max_sweeps sweeps are done. It sweeps
    and measures a two-row buffer as run() does its rows: step(W, P, 0, 1)
    of compiled_step(p, method) or CoordinateKernel, and measure_rows.
    Once the sign pattern of an iterate equals the previous one, the smooth
    part's support polish (the exact solve on the support for quadratics,
    Newton's method for logistic data) is tried, at most once per pattern;
    a polished point whose residual is at most 1e-12 is returned at once.
    After n failed attempts the next waits until a pattern has held for
    2**n sweeps, so the attempts stay few when the pattern keeps changing.
    Past the sweeps the polish is tried once more, and the better of the
    two points is kept. Raises ReferenceSolveError when the final residual
    exceeds 1e-10 or at the first residual that is not finite (the sweeps
    overflowed), and ValueError when max_sweeps is not an integer >= 0 (a
    bool is not).
    """
    check_count(max_sweeps, "max_sweeps", 0)
    try:
        method, kernel = "ccm", CoordinateKernel(p, "ccm")
    except Assumption2Error:
        method, kernel = "ccd", CoordinateKernel(p, "ccd")
    step = compiled_step(p, method)
    # Row 0 holds x and, when the sweeps run in C, P[0] its product A x; a
    # sweep writes row 1.
    W, P = np.zeros((2, p.dim)), None
    x = W[0]
    if step is None:
        step = kernel.step
    else:
        P = np.zeros((2, p.dim))
        np.matmul(p.smooth.affine_gradient()[0], x, out=P[0])

    def polish(x):
        # The support polish of x and its residual; an infinite one if none.
        cand = p.smooth.active_set_solution(x, p.lam)
        return cand, math.inf if cand is None else optimality_residual(p, cand)

    pattern, held, tried = None, 0, set()
    # Overflow shows up as a non-finite residual checked here, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for sweeps in range(max_sweeps + 1):
            best_res = float(measure_rows(p, W, P, 0, 1)[2][0])
            if not math.isfinite(best_res):
                raise ReferenceSolveError(
                    f"reference solve reached a non-finite residual after {sweeps} {method} "
                    "iterations"
                )
            if best_res <= _REFERENCE_STOP or sweeps == max_sweeps:
                break
            last, pattern = pattern, np.sign(x).astype(np.int8).tobytes()
            held = held + 1 if pattern == last else 0
            if held >= 2 ** len(tried) and pattern not in tried:
                tried.add(pattern)
                cand, cand_res = polish(x)
                if cand_res <= _REFERENCE_STOP:
                    return _solution(p, cand, cand_res, method + "+active-set")
            step(W, P, 0, 1)
            if np.array_equal(W[1], x):
                break  # numerical fixed point of the sweep map
            W[0] = W[1]
            if P is not None:
                P[0] = P[1]
        label = method
        cand, cand_res = polish(x)
    if cand_res < best_res:
        x, best_res, label = cand, cand_res, method + "+active-set"
    if best_res > _REFERENCE_RESIDUAL:
        raise ReferenceSolveError(
            f"reference solve stalled at residual {best_res:.3e} (> {_REFERENCE_RESIDUAL}) "
            f"after {sweeps} {method} iterations"
        )
    return _solution(p, x, best_res, label)


def _solution(p, x, residual, method):
    x = np.array(x)
    x.setflags(write=False)
    return ReferenceSolution(x, objective(p, x), residual, method)


# ---------------------------------------------------------------------------
# Per-iteration checks and the comparison report
# ---------------------------------------------------------------------------

def _rate_flags(f_values, ref: ReferenceSolution, x0, L: float):
    """F(k) - F* <= L ||x* - x0||^2 / (2k) + slack for k >= 1, along the last axis.

    Returns the flags and the bound's headroom L ||x* - x0||^2 / (2k) for
    k = 1..K; column k - 1 belongs to iteration k of every row.
    """
    f = np.asarray(f_values, dtype=float)[..., 1:]
    base = L * float(np.sum((ref.x_star - as_vector(x0)) ** 2)) / 2.0
    headroom = base / np.arange(1, f.shape[-1] + 1)
    return f - ref.f_star <= headroom + _RATE_RTOL * (1.0 + abs(ref.f_star)), headroom


def rate_check(trace, ref: ReferenceSolution, x0, L: float):
    """Per-iteration flags for F(x(k)) - F* <= L ||x* - x0||^2 / (2k), k >= 1."""
    return _rate_flags(trace.f_values, ref, x0, L)[0].tolist()


def check_objective_ordering(p: ProblemSpec, y, x, tol: float = 1e-10) -> bool:
    """Check F(y) <= F(x) for a supersolution y <= x (or the subsolution mirror).

    This is the standalone objective-ordering property behind the F-chain,
    tested independently of any solver run.
    """
    check_scalar_tolerance(tol)
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
    fx = objective(p, x)
    return objective(p, y) <= fx + tol * (1.0 + abs(fx))


@dataclass(frozen=True)
class IterationRecord:
    """Per-iteration verdicts of a three-way comparison run: the fields
    named *_ok are PREDICATES, in order. bound is F* + L ||x* - x0||^2 / (2k)
    (infinite at k = 0), and rate_ok holds when gd, ccd and ccm all meet
    it within the rate slack.
    """

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
        return all(getattr(self, name) for name in PREDICATES)


@dataclass(eq=False)
class ComparisonReport:
    """Outcome of one three-way run from a common classified start: flags
    maps each name in PREDICATES to its bool column over k = 0..K, and
    f_values and kinds have rows gd, ccd and ccm. kinds holds int8 codes,
    KIND_BY_CODE[c] the Kind of code c. records views the columns as one
    IterationRecord per k, the only place besides the JSON writer where
    the codes become Kind members."""

    start: object
    dominance_tol: float
    rate_rtol: float
    isotonicity_ok: bool
    reference: ReferenceSolution
    f_values: np.ndarray
    bound: np.ndarray
    kinds: np.ndarray
    flags: dict
    traces: dict = field(repr=False, default_factory=dict)

    @property
    def verdict(self):
        return all(column.all() for column in self.flags.values())

    @property
    def records(self):
        """The columns as one IterationRecord per k, with Python scalars."""
        kinds = [[KIND_BY_CODE[c] for c in row] for row in self.kinds.tolist()]
        columns = {"k": range(len(self.bound)), "bound": self.bound.tolist(),
                   "classes": zip(*kinds), **dict(zip(_F_FIELDS, self.f_values.tolist())),
                   **{name: column.tolist() for name, column in self.flags.items()}}
        return list(map(IterationRecord, *(columns[name] for name in _RECORD_FIELDS)))

    def _json_head(self) -> dict:
        # to_json_dict() but per_iteration, with x_star as its array.
        return {
            "start_kind": self.start.kind.value,
            "dominance_tol": self.dominance_tol,
            "rate_rtol": self.rate_rtol,
            "isotonicity_ok": self.isotonicity_ok,
            "verdict": self.verdict,
            "reference": {
                "x_star": np.asarray(self.reference.x_star),
                "f_star": self.reference.f_star,
                "residual": self.reference.residual,
                "method": self.reference.method,
            },
        }

    def to_json_dict(self) -> dict:
        data = self._json_head()
        data["reference"]["x_star"] = data["reference"]["x_star"].tolist()
        data["per_iteration"] = [{**asdict(r), "bound": None if math.isinf(r.bound) else r.bound,
                                  "classes": [c.value for c in r.classes]} for r in self.records]
        return data

    def _json_per_iteration(self, ind: int):
        # The text of to_json_dict()["per_iteration"] from one record
        # template, the floats of each piece of the columns from one render().
        def columns(start, stop):
            part = slice(start, stop)
            rows = render(np.vstack([self.f_values[:, part], self.bound[part]]), "json", " ", "\n")
            *f_rows, bound = map(str.split, rows.split("\n"))
            kinds = list(zip(*self.kinds[:, part].tolist()))
            spelled = {cs: "".join(json_value([KIND_BY_CODE[c].value for c in cs], ind + 4))
                       for cs in set(kinds)}
            texts = {"k": range(start, stop), **dict(zip(_F_FIELDS, f_rows)),
                     "bound": ["null" if inf else text for inf, text
                               in zip(np.isinf(self.bound[part]).tolist(), bound)],
                     "classes": [spelled[cs] for cs in kinds],
                     **{name: ["true" if v else "false" for v in column[part].tolist()]
                        for name, column in self.flags.items()}}
            return [texts[name] for name in _RECORD_FIELDS]

        return json_records(_RECORD_FIELDS, len(self.bound), columns, ind)

    def write_json(self, path) -> None:
        """Write ``json.dump(self.to_json_dict(), fh, indent=2)`` plus a newline.

        The text is streamed piece by piece (see json_value), with x_star
        rendered from its array and per_iteration from one record template.
        """
        data = {**self._json_head(), "per_iteration": self._json_per_iteration}
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(json_value(data))
            fh.write("\n")

    def write_summary_csv(self, path) -> None:
        """Write one row per iteration, every float as f"{v:.17g}" spells it.

        The rows [k, F_gd, F_ccd, F_ccm, bound, dominance_ok] are one
        '%.17g' block, which spells float(k) as f"{k}" does and 1.0 and 0.0
        as int(dominance_ok) does.
        """
        rows = np.column_stack([np.arange(len(self.bound)), *self.f_values, self.bound,
                                self.flags["dominance_ok"]])
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("k,F_gd,F_ccd,F_ccm,bound,dominance_ok\n")
            fh.writelines(render_pieces(rows, "%.17g", ",", "\n"))
            fh.write("\n")


_RECORD_FIELDS = tuple(f.name for f in fields(IterationRecord))
PREDICATES = tuple(name for name in _RECORD_FIELDS if name.endswith("_ok"))
_F_FIELDS = tuple(f"f_{alg}" for alg in _ALGORITHMS)


def run_comparison(
    p: ProblemSpec,
    x0,
    K: int,
    tol: float = 1e-8,
    report_only: bool = False,
) -> ComparisonReport:
    """Run gd, ccd, and ccm for K iterations from x0 and check every prediction.

    Preconditions (skipped when report_only is set, in which case the
    outcome is merely reported): x0 classifies as a super- or subsolution,
    and the instance passes the isotonicity check (the smooth part's exact
    certificate, such as the off-diagonal test for quadratics, or
    check_isotonicity_sampled with its default samples and seed when it
    has none).

    Comparison tolerances are ``tol`` scaled by 1 + the sup norm of the
    iterates involved (or 1 + |F| for objective comparisons). The rate
    bound is checked for gd, ccd and ccm with the fixed relative slack of
    rate_check, and rate_ok holds when all three meet it.
    """
    check_count(K, "K", 1)
    check_scalar_tolerance(tol)
    x0 = as_vector(x0, p.dim)
    iso_ok = (p.smooth.isotonicity_certificate() or check_isotonicity_sampled(p))[0]
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
    traces = {alg: run(alg, p, x0, cfg) for alg in _ALGORITHMS}
    ref = reference_minimizer(p)

    # Rows gd, ccd, ccm; stop_residual = 0 gives each trace K + 1 iterates.
    W = np.stack([t.iterates for t in traces.values()])
    G = np.stack([t.gradients for t in traces.values()])
    F = np.array([t.f_values for t in traces.values()])
    row_norms = np.abs(W).max(axis=2)
    gap = tol * (1.0 + row_norms.max(axis=0))[:, None]
    # From a supersolution ccm <= ccd <= gd, each row at most the row before
    # it plus gap. Negation is exact, so -w <= -v + gap holds exactly when
    # w >= v - gap, the mirror order.
    signed = W if from_above else -W
    # Each iterate against tol scaled by 1 + its own sup norm, from the
    # gradient run() kept.
    kinds = kind_codes(p, W.reshape(-1, p.dim), G.reshape(-1, p.dim),
                       tol * (1.0 + row_norms.ravel())).reshape(len(traces), K + 1)
    rate_flags, headroom = _rate_flags(F, ref, x0, p.lipschitz)
    flags = {
        "dominance_ok": (signed[1:] <= signed[:-1] + gap).all(axis=(0, 2)),
        "f_order_ok": (F[1:] <= F[:-1] + tol * (1.0 + np.abs(F[0]))).all(axis=0),
        "rate_ok": np.concatenate(([True], rate_flags.all(axis=0))),
        # Exact points satisfy both defining inequalities, so convergence
        # does not break persistence of the starting kind.
        "persistence_ok": ((kinds == KIND_BY_CODE.index(start.kind))
                           | (kinds == KIND_BY_CODE.index(Kind.EXACT))).all(axis=0),
    }

    return ComparisonReport(
        start=start,
        dominance_tol=tol,
        rate_rtol=_RATE_RTOL,
        isotonicity_ok=iso_ok,
        reference=ref,
        f_values=F,
        # k = 0 has no bound: the rate predicate starts at k = 1.
        bound=np.concatenate(([math.inf], ref.f_star + headroom)),
        kinds=kinds,
        flags=flags,
        traces=traces,
    )
