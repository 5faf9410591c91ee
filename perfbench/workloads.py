"""The benchmark's three workloads and the checks on their outputs.

Every workload is closed-loop: one caller runs its jobs one after the
other in a single process. A workload's ``setup`` builds its instances
from the workload seed; a job is one timed call sequence into l1lab plus
an untimed check of what it returned and wrote.

Calls go through module attributes (``verification.run_comparison``, not
a name imported once), so the tracer's rebinding sees them.

Instance seeds follow a fixed scheme chosen before any seed was tried.
When ``estimate_lipschitz`` raises ``PowerIterationError`` on an instance,
the slot takes the next seed of its sequence, so the job mix stays the same
size. Such a build is not a failed operation: l1lab reports that its power
iteration did not converge instead of returning a wrong constant. It is
counted in ``Setup.build_failures``, and so in ``fail_share`` and
``problems.estimate_lipschitz.failures``. The operations counted in
``attempted`` and ``failed`` are the jobs and the set-up steps whose output
is checked (``Setup.checked``).
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from clock import Steps
from l1lab import operators, problems, solvers, verification
from l1lab.errors import PowerIterationError, PreconditionError

# Retry stride for a slot whose instance fails to build. A multiple of
# 19 * 5, so a verify_small retry keeps the slot's dimension and density.
_RETRY_STRIDE = 95 * 10_000
_MAX_BUILD_TRIES = 20
_DENSITIES = (0.1, 0.3, 0.5, 0.7, 0.9)
_GAP_RTOL = 1e-9
_DESCENT_TOL = 1e-12


@dataclass
class Job:
    """One unit of work and the check of its outputs.

    ``run(steps)`` does the work, timing each of its steps with
    ``steps.step(label)`` (see clock.py), and returns a payload; the steps
    together make up the job. Labels starting with ``solve_`` are also
    reported on their own. ``check(payload)`` returns a list of what is wrong.
    """

    run: object
    check: object


@dataclass
class Setup:
    jobs: list = field(default_factory=list)
    builds: int = 0
    build_failures: int = 0
    checked: int = 0
    errors: list = field(default_factory=list)


class Context:
    """Where a workload writes its files, and how its set-up is timed and traced."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.steps = Steps()
        self.tracer = None

    def span(self, name):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def path(self, name):
        return os.path.join(self.workdir, name)


def _build(ctx, setup, seeds, make):
    """Instance from the first seed in ``seeds`` whose build succeeds."""
    for s in seeds:
        setup.builds += 1
        try:
            with ctx.steps.step(f"build {setup.builds}"), ctx.span("problems.build"):
                return make(s), s
        except PowerIterationError:
            setup.build_failures += 1
    return None, None


def _retries(s):
    return (s + r * _RETRY_STRIDE for r in range(_MAX_BUILD_TRIES))


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _check_trace_files(trace, csv_path, json_path, label):
    """The written CSV and JSON hold exactly the trace's values."""
    errors = []
    n, d = len(trace.f_values), len(trace.iterates[0])
    rows = _read_csv(csv_path)
    if len(rows) != n + 1 or any(len(r) != d + 3 for r in rows[1:]):
        errors.append(f"{label}: CSV has the wrong shape")
    elif [float(r[1]) for r in rows[1:]] != list(trace.f_values):
        errors.append(f"{label}: CSV objective column differs from the trace")
    data = _read_json(json_path)
    if data["f_values"] != list(trace.f_values) or len(data["iterates"]) != n:
        errors.append(f"{label}: JSON differs from the trace")
    elif data["iterates"][-1] != trace.iterates[-1].tolist():
        errors.append(f"{label}: JSON final iterate differs from the trace")
    return errors


def _check_report(report, want_kind, label):
    errors = []
    if report.start.kind is not want_kind:
        errors.append(f"{label}: start classifies as {report.start.kind.value}")
    if not report.verdict:
        bad = [r.k for r in report.records if not r.all_ok]
        errors.append(f"{label}: verdict false at k={bad[:5]}")
    return errors


def _check_report_files(report, json_path, summary_path, label):
    errors = []
    data = _read_json(json_path)
    if (data["verdict"] is not report.verdict
            or data["reference"]["f_star"] != report.reference.f_star):
        errors.append(f"{label}: report JSON differs from the report")
    if len(data["per_iteration"]) != len(report.records):
        errors.append(f"{label}: report JSON has the wrong number of iterations")
    rows = _read_csv(summary_path)
    if len(rows) != len(report.records) + 1:
        errors.append(f"{label}: summary CSV has the wrong number of rows")
    elif [float(r[1]) for r in rows[1:]] != [r.f_gd for r in report.records]:
        errors.append(f"{label}: summary CSV differs from the report")
    return errors


class _Outputs:
    """Checks a job's files: read back in full once, then compared byte for byte.

    Later passes must write exactly the bytes of the first, which also
    checks that output is deterministic, at a fraction of the cost of
    parsing every pass.
    """

    def __init__(self):
        self._digests = None

    def check(self, paths, read_back):
        digests = {}
        for path in paths:
            with open(path, "rb") as fh:
                digests[path] = hashlib.sha1(fh.read()).digest()
        if self._digests is None:
            self._digests = digests
            return read_back()
        return [f"{os.path.basename(p)} differs from the first pass"
                for p in paths if digests[p] != self._digests[p]]


_WANT = {"super": operators.Kind.SUPERSOLUTION, "sub": operators.Kind.SUBSOLUTION}


def _find_start(p, seed, start):
    if start == "super":
        return verification.find_supersolution(p, seed=seed)
    return verification.find_subsolution(p, seed=seed)


# ---------------------------------------------------------------------------
# verify_small: the acceptance-suite mix
# ---------------------------------------------------------------------------

def setup_verify_small(seed, size, ctx):
    setup = Setup()
    for i in range(size["instances"]):
        p, s = _build(
            ctx, setup, _retries(seed * size["instances"] + i),
            lambda s: problems.gen_zmatrix_quadratic(
                2 + s % 19, seed=s, density=_DENSITIES[s % 5]),
        )
        if p is None:
            continue
        for start in ("super", "sub"):
            setup.jobs.append(_verify_small_job(p, s, start, size["K"]))
    return setup


def _verify_small_job(p, s, start, K):
    def run(steps):
        with steps.step("job"):
            x0 = _find_start(p, s, start)
            return verification.run_comparison(p, x0, K=K, tol=1e-8)

    def check(report):
        return _check_report(report, _WANT[start], f"d={p.dim} seed={s} {start}")

    return Job(run, check)


# ---------------------------------------------------------------------------
# verify_large: `l1lab verify --report --summary` plus trace files, d x d work
# ---------------------------------------------------------------------------

def setup_verify_large(seed, size, ctx):
    setup = Setup()
    for i in range(size["slots"]):
        instances = []
        for d in size["dims"]:
            p, s = _build(
                ctx, setup, _retries(seed * size["slots"] + i),
                lambda s, d=d: problems.gen_zmatrix_quadratic(d, seed=s, density=0.5),
            )
            if p is not None:
                instances.append((p, s))
        if instances:
            # Starts alternate between slots: twice the instances for the
            # same work as running both starts on each.
            start = ("super", "sub")[i % 2]
            setup.jobs.append(_verify_large_job(instances, start, size["K"], ctx, i))
    return setup


def _verify_call(p, s, start, K, prefix, steps):
    """What `l1lab verify` does for one start, then each solver's trace written."""
    with steps.step(prefix + "start"):
        ok, offenders = operators.check_isotonicity_quadratic(p.smooth.A)
        if not ok:
            raise PreconditionError(f"{len(offenders)} positive off-diagonal pairs")
        x0 = _find_start(p, s, start)
    with steps.step(prefix + "compare"):
        report = verification.run_comparison(p, x0, K=K, tol=1e-8)
    with steps.step(prefix + "report"):
        report.write_json(prefix + "report.json")
        report.write_summary_csv(prefix + "summary.csv")
    for alg, trace in report.traces.items():
        with steps.step(prefix + alg):
            trace.write_csv(f"{prefix}{alg}.csv")
            trace.write_json(f"{prefix}{alg}.json")
    return report


def _verify_large_job(instances, start, K, ctx, slot):
    calls = [(p, s, ctx.path(f"large{slot}_d{p.dim}_")) for p, s in instances]
    outputs = _Outputs()
    paths = [prefix + name for _, _, prefix in calls
             for name in ("report.json", "summary.csv", "gd.csv", "gd.json", "ccd.csv",
                          "ccd.json", "ccm.csv", "ccm.json")]

    def run(steps):
        return [_verify_call(p, s, start, K, prefix, steps) for p, s, prefix in calls]

    def check(reports):
        errors = []
        for (p, s, _), report in zip(calls, reports):
            errors += _check_report(report, _WANT[start], f"d={p.dim} seed={s} {start}")

        def read_back():
            errors = []
            for (p, s, prefix), report in zip(calls, reports):
                label = f"d={p.dim} seed={s} {start}"
                errors += _check_report_files(
                    report, prefix + "report.json", prefix + "summary.csv", label)
                for alg, trace in report.traces.items():
                    errors += _check_trace_files(
                        trace, f"{prefix}{alg}.csv", f"{prefix}{alg}.json", f"{label} {alg}")
            return errors

        return errors + outputs.check(paths, read_back)

    return Job(run, check)


# ---------------------------------------------------------------------------
# solve_logistic: `l1lab run --alg all --stop-residual 1e-8` on dense data
# ---------------------------------------------------------------------------

def _logistic_data(seed, slot, attempt, n, d):
    rng = np.random.default_rng((seed, slot, attempt))
    X = rng.standard_normal((n, d))
    w = np.zeros(d)
    support = rng.choice(d, size=max(1, d // 5), replace=False)
    w[support] = rng.standard_normal(support.size)
    Y = np.where(X @ w >= 0.0, 1.0, -1.0)
    flip = rng.random(n) < 0.1
    Y[flip] = -Y[flip]
    return X, Y


def setup_solve_logistic(seed, size, ctx):
    setup = Setup()
    n, d, lam = size["n"], size["d"], size["lam"]
    for i in range(size["slots"]):
        p, _ = _build(
            ctx, setup, range(_MAX_BUILD_TRIES),
            lambda a: problems.logistic_problem(*_logistic_data(seed, i, a, n, d), lam),
        )
        if p is None:
            continue
        path = ctx.path(f"logistic{i}.json")
        with ctx.steps.step(f"json {i}"):
            problems.save_problem(p, path)
            loaded = problems.load_problem(path)
        setup.checked += 1
        same = (
            np.array_equal(loaded.smooth.X, p.smooth.X)
            and np.array_equal(loaded.smooth.Y, p.smooth.Y)
            and (loaded.lam, loaded.lipschitz) == (p.lam, p.lipschitz)
        )
        if not same:
            setup.errors.append(f"slot {i}: problem JSON does not load back unchanged")
        setup.jobs.append(_solve_job(loaded, size, ctx.path(f"logistic{i}_")))
    return setup


def _solve_job(p, size, prefix):
    cfg = solvers.SolverConfig(max_outer_iters=size["cap"], stop_residual=size["stop"])
    x0 = np.zeros(p.dim)
    outputs = _Outputs()
    paths = [f"{prefix}{alg}.{ext}" for alg in ("gd", "ccd", "ccm") for ext in ("csv", "json")]

    def run(steps):
        traces = {}
        for alg in ("gd", "ccd", "ccm"):
            with steps.step(f"solve_{alg}_ms"):
                trace = solvers.run(alg, p, x0, cfg)
            with steps.step(f"write_{alg}"):
                trace.write_csv(f"{prefix}{alg}.csv")
                trace.write_json(f"{prefix}{alg}.json")
                traces[alg] = (trace, trace.descent_ok(_DESCENT_TOL))
        with steps.step("solve_ref_ms"):
            ref = verification.reference_minimizer(p)
        return traces, ref

    def check(payload):
        traces, ref = payload
        errors = []
        gap_tol = _GAP_RTOL * (1.0 + abs(ref.f_star))
        for alg, (trace, descent) in traces.items():
            label = f"{alg} on {p.smooth.n}x{p.dim}"
            if not descent:
                errors.append(f"{label}: objective increased")
            if trace.residuals[-1] > size["stop"]:
                errors.append(f"{label}: residual {trace.residuals[-1]:.3e} after the cap")
            gap = trace.f_values[-1] - ref.f_star
            if abs(gap) > gap_tol:
                errors.append(f"{label}: gap to F* {gap:.3e} exceeds {gap_tol:.3e}")

        def read_back():
            return [e for alg, (trace, _) in traces.items()
                    for e in _check_trace_files(
                        trace, f"{prefix}{alg}.csv", f"{prefix}{alg}.json", alg)]

        return errors + outputs.check(paths, read_back)

    return Job(run, check)


# name -> (set-up function, full size, tiny size for the self-check)
WORKLOADS = {
    "verify_small": (
        setup_verify_small,
        {"instances": 50, "K": 200},
        {"instances": 3, "K": 20},
    ),
    "verify_large": (
        setup_verify_large,
        {"slots": 6, "dims": (300, 500), "K": 50},
        {"slots": 2, "dims": (12, 20), "K": 5},
    ),
    "solve_logistic": (
        setup_solve_logistic,
        {"slots": 10, "n": 2000, "d": 50, "lam": 0.01, "stop": 1e-8, "cap": 20_000},
        {"slots": 1, "n": 100, "d": 5, "lam": 0.01, "stop": 1e-8, "cap": 20_000},
    ),
}
