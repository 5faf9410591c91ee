"""Per-layer tracing of l1lab from outside the package.

Nothing under ``src/`` is changed. ``Tracer.install`` rebinds, in every
layer module, the names that module looks up at call time (for example
``l1lab.verification.run`` or ``l1lab.operators.as_vector``) to timed
wrappers, and ``Tracer.uninstall`` puts the originals back. Each call
records one span: name, start, end and the index of the enclosing span.
Spans are kept in flat arrays and reduced at job boundaries to per-name
call counts, inclusive time and self time (duration minus the time of
direct children), so memory stays bounded however many calls a job makes.

The wrapper's own bookkeeping (about a microsecond a call) lands in the
self time of the caller; ``bench.trace_overhead_share`` reports its total.
"""

from __future__ import annotations

import importlib
import os
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("problems", "operators", "solvers", "verification", "cli")


def _add(counters, name, amount):
    counters[name] = counters.get(name, 0) + amount


def _count_iterations(counters, args, result):
    alg, p = args[0], args[1]
    sweeps = len(result.iterates) - 1
    _add(counters, f"solvers.iters.{alg}", sweeps)
    _add(counters, f"solvers.coord_updates.{alg}", sweeps * p.dim)


def _trace_bytes(counters, args, result):
    _add(counters, "solvers.trace_bytes", os.path.getsize(args[1]))


def _report_bytes(counters, args, result):
    _add(counters, "verification.report_bytes", os.path.getsize(args[1]))


# (span name, owner of the original, attribute, observer). The owner is a
# layer module or a class in one; for a module-level function every layer
# module that binds the same function object is rebound too. A span name
# may be a callable of the call's positional arguments.
WRAPS = (
    ("problems.as_vector", "problems", "as_vector", None),
    ("problems.f_grad", "problems", "f_grad", None),
    ("problems.f_grad_coord", "problems", "f_grad_coord", None),
    ("problems.objective", "problems", "objective", None),
    ("problems.estimate_lipschitz", "problems", "estimate_lipschitz", None),
    ("problems.load_problem", "problems", "load_problem", None),
    ("operators.classify_point", "operators", "classify_point", None),
    ("operators.optimality_residual", "operators", "optimality_residual", None),
    ("operators.prox_gradient_map", "operators", "prox_gradient_map", None),
    ("operators.check_isotonicity_quadratic", "operators", "check_isotonicity_quadratic", None),
    (lambda args: f"solvers.run.{args[0]}", "solvers", "run", _count_iterations),
    ("solvers.solve_1d_prox", "solvers", "solve_1d_prox", None),
    ("solvers.trace_write.csv", "solvers.Trace", "write_csv", _trace_bytes),
    ("solvers.trace_write.json", "solvers.Trace", "write_json", _trace_bytes),
    ("verification.find_start", "verification", "find_supersolution", None),
    ("verification.find_start", "verification", "find_subsolution", None),
    ("verification.reference_minimizer", "verification", "reference_minimizer", None),
    ("verification.run_comparison", "verification", "run_comparison", None),
    ("verification.report_write.json", "verification.ComparisonReport", "write_json",
     _report_bytes),
    ("verification.report_write.summary", "verification.ComparisonReport", "write_summary_csv",
     _report_bytes),
)


class Aggregate:
    """Per-name call counts, inclusive seconds and self seconds, plus counters."""

    def __init__(self):
        self.calls = {}
        self.total = {}
        self.self_time = {}
        self.counters = {}

    def add(self, name, calls, total, self_time):
        self.calls[name] = self.calls.get(name, 0) + calls
        self.total[name] = self.total.get(name, 0.0) + total
        self.self_time[name] = self.self_time.get(name, 0.0) + self_time

    def count(self, name):
        return self.calls.get(name, 0)


class Tracer:
    """Span recorder with install/uninstall of the wrappers in ``WRAPS``."""

    def __init__(self):
        self._ids = {}
        self._names = []
        self._name_id = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = []
        self._saved = []
        self.counters = {}
        self.absent = []

    def _id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def _open(self, nid):
        idx = len(self._end)
        self._name_id.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(perf_counter())
        return idx

    def _close(self, idx):
        self._end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        """Span opened by benchmark code around a call into a layer."""
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrapper(self, fn, name, observe):
        tracer = self
        fixed = None if callable(name) else self._id(name)
        counters = self.counters

        def traced(*args, **kwargs):
            nid = fixed if fixed is not None else tracer._id(name(args))
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if observe is not None:
                observe(counters, args, result)
            return result

        return traced

    def install(self):
        """Rebind every wrapped name; names l1lab no longer has go to ``absent``."""
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"l1lab.{layer}")
            except ImportError:
                continue
        self.absent = []
        for name, owner_path, attr, observe in WRAPS:
            module_name, _, class_name = owner_path.partition(".")
            owner = modules.get(module_name)
            if owner is not None and class_name:
                owner = getattr(owner, class_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{owner_path}.{attr}")
                continue
            wrapper = self._wrapper(original, name, observe)
            targets = [owner] if class_name else list(modules.values())
            for target in targets:
                if target.__dict__.get(attr) is original:
                    self._saved.append((target, attr, original))
                    setattr(target, attr, wrapper)

    def uninstall(self):
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def drain(self, into):
        """Reduce the recorded spans into ``into`` (an Aggregate) and forget them."""
        if self._stack:
            raise RuntimeError("cannot drain while spans are open")
        for key, value in self.counters.items():
            _add(into.counters, key, value)
        self.counters.clear()
        n = len(self._end)
        if n == 0:
            return
        nid = np.frombuffer(self._name_id, dtype=np.intc)
        parent = np.frombuffer(self._parent, dtype=np.intc)
        dur = np.frombuffer(self._end) - np.frombuffer(self._start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        k = len(self._names)
        calls = np.bincount(nid, minlength=k)
        total = np.bincount(nid, weights=dur, minlength=k)
        own = np.bincount(nid, weights=dur - child, minlength=k)
        for i, name in enumerate(self._names):
            if calls[i]:
                into.add(name, int(calls[i]), float(total[i]), float(own[i]))
        del nid, parent  # numpy views block resizing the arrays they read
        for buf in (self._name_id, self._parent, self._start, self._end):
            del buf[:]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(setup, jobs, n_jobs, overhead_share):
    """Per-layer metrics from a traced set-up and ``n_jobs`` traced jobs.

    Returns {name: (value, unit)}. The unit says how a value is normalised:
    ``calls/job`` and ``ms/job`` per job; ``us``, ``ms``, ``iters`` and
    ``B`` per call (per written trace or report for the I/O figures);
    the ``problems`` set-up figures per complete set-up. A layer a
    workload never calls reads 0.
    """
    c = jobs.counters
    out = {}

    def total(name):
        return jobs.total.get(name, 0.0)

    def calls(name):
        out[f"{name}.calls"] = (_ratio(jobs.count(name), n_jobs), "calls/job")

    def self_ms(name):
        out[f"{name}.self_ms"] = (1e3 * _ratio(jobs.self_time.get(name, 0.0), n_jobs), "ms/job")

    def us(name):
        out[f"{name}.us"] = (1e6 * _ratio(total(name), jobs.count(name)), "us")

    def ms(label, name):
        out[label] = (1e3 * _ratio(total(name), jobs.count(name)), "ms")

    calls("problems.as_vector")
    self_ms("problems.as_vector")
    for name in ("problems.f_grad", "problems.f_grad_coord", "problems.objective"):
        calls(name)
        us(name)
    out["problems.build_ms"] = (1e3 * setup.total.get("problems.build", 0.0), "ms")
    out["problems.estimate_lipschitz_ms"] = (
        1e3 * setup.total.get("problems.estimate_lipschitz", 0.0), "ms")
    out["problems.estimate_lipschitz.failures"] = (
        setup.counters.get("problems.power_iteration_failures", 0), "count")
    out["problems.load_problem_ms"] = (1e3 * setup.total.get("problems.load_problem", 0.0), "ms")

    calls("operators.classify_point")
    self_ms("operators.classify_point")
    calls("operators.optimality_residual")
    calls("operators.prox_gradient_map")
    us("operators.prox_gradient_map")
    ms("operators.check_isotonicity_quadratic_ms", "operators.check_isotonicity_quadratic")

    for alg in ("gd", "ccd", "ccm"):
        ms(f"solvers.run.{alg}_ms", f"solvers.run.{alg}")
    for alg in ("ccd", "ccm"):
        out[f"solvers.coord_update.{alg}_us"] = (
            1e6 * _ratio(total(f"solvers.run.{alg}"), c.get(f"solvers.coord_updates.{alg}", 0)),
            "us")
    for alg in ("gd", "ccd", "ccm"):
        out[f"solvers.iters.{alg}"] = (
            _ratio(c.get(f"solvers.iters.{alg}", 0), jobs.count(f"solvers.run.{alg}")), "iters")
    calls("solvers.solve_1d_prox")
    us("solvers.solve_1d_prox")
    traces = jobs.count("solvers.trace_write.csv")
    out["solvers.trace_write_ms"] = (
        1e3 * _ratio(total("solvers.trace_write.csv") + total("solvers.trace_write.json"), traces),
        "ms")
    out["solvers.trace_bytes"] = (_ratio(c.get("solvers.trace_bytes", 0), traces), "B")

    ms("verification.find_start_ms", "verification.find_start")
    calls("verification.find_start")
    ms("verification.reference_minimizer_ms", "verification.reference_minimizer")
    self_ms("verification.run_comparison")
    reports = jobs.count("verification.report_write.json")
    out["verification.report_write_ms"] = (
        1e3 * _ratio(total("verification.report_write.json")
                     + total("verification.report_write.summary"), reports),
        "ms")
    out["verification.report_bytes"] = (
        _ratio(c.get("verification.report_bytes", 0), reports), "B")

    out["bench.trace_overhead_share"] = (overhead_share, "share")
    return out
