"""Planted solver faults: which predicates of run_comparison catch each one.

Each fault is a CoordinateKernel subclass that run() builds in place of the
kernel, on the numpy path (the compiled library off). reference_minimizer
keeps the unfaulted class that verification imported, so F* and x* stay
right. Every run is report_only: a fault shows as failing predicates, not as
a raised precondition. The control (no fault) must pass every run; each
fault's passing runs, and its count of failing runs per predicate, are
pinned. A run that a fault passes is one the comparison cannot tell from a
correct solver's, so the pass-through counts are the yardstick for new
predicates.

Run with ``pytest tests/test_planted_faults.py -s`` to see the table.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from l1lab import (
    _qsweep,
    find_subsolution,
    find_supersolution,
    gen_zmatrix_quadratic,
    run_comparison,
    solvers,
)

K = 30
SEEDS = range(20)
PREDICATES = ("dominance_ok", "f_order_ok", "rate_ok", "persistence_ok")


def instance(seed):
    """The acceptance suite's instance of ``seed``."""
    d = 2 + (seed % 19)
    return gen_zmatrix_quadratic(d, seed=seed, density=(0.1, 0.3, 0.5, 0.7, 0.9)[seed % 5])


def scale_steps(factor):
    def plant(kernel):
        kernel.steps = [factor * s for s in kernel.steps]
    return plant


def skip_last_coordinate(kernel):
    kernel.steps = kernel.steps[:-1]


def threshold_lam(kernel):
    # The sweep thresholds at lam / L; a lam scaled by L makes that lam.
    p = kernel.p
    kernel.p = SimpleNamespace(smooth=p.smooth, lam=p.lam * p.lipschitz)


def stale_gradient(kernel):
    # Zero rows leave the sweep's state, the gradient at the sweep's start,
    # as it is: every coordinate steps from it (Jacobi-style).
    kernel.rows = np.zeros_like(kernel.rows)


RUNS = 2 * len(SEEDS)  # run 2 s is seed s's supersolution start, run 2 s + 1 its subsolution

# name: (the algorithm faulted, the plant, the runs whose verdict passes,
# the failing runs of each of PREDICATES).
FAULTS = {
    "none": (None, None, tuple(range(RUNS)), (0, 0, 0, 0)),
    "ccd step L/2": ("ccd", scale_steps(0.5), (), (40, 40, 4, 40)),
    "ccd skips its last coordinate": ("ccd", skip_last_coordinate, (), (40, 40, 24, 0)),
    "ccd threshold lam, not lam/L": ("ccd", threshold_lam, (), (40, 39, 3, 37)),
    "ccm step 0.8 A_jj": ("ccm", scale_steps(0.8), (), (4, 4, 0, 40)),
    "ccm step 1.05 A_jj": ("ccm", scale_steps(1.05), tuple(range(4, RUNS)), (4, 4, 0, 0)),
    "ccm from the sweep-start gradient": ("ccm", stale_gradient,
                                          (0, 1, 2, 3, 4, 5, 11, 13, 20, 21, 30, 38),
                                          (28, 6, 0, 0)),
}


@pytest.fixture(scope="module")
def starts():
    """(instance, start) of every run, in run order."""
    out = []
    for seed in SEEDS:
        p = instance(seed)
        out += [(p, find_supersolution(p, seed=seed)), (p, find_subsolution(p, seed=seed))]
    return out


def faulted_reports(starts, monkeypatch, alg, plant):
    """The report of every run, with ``plant`` applied to every ``alg``
    kernel that run() builds."""

    class Faulty(solvers.CoordinateKernel):
        def __init__(self, p, kernel_alg):
            super().__init__(p, kernel_alg)
            if kernel_alg == alg:
                plant(self)

    with monkeypatch.context() as m:
        m.setattr(_qsweep, "load", lambda: None)
        m.setattr(solvers, "CoordinateKernel", Faulty)
        return [run_comparison(p, x0, K=K, report_only=True) for p, x0 in starts]


@pytest.mark.parametrize("fault", FAULTS)
def test_planted_fault_fails_where_measured(starts, monkeypatch, fault):
    alg, plant, passing, failing = FAULTS[fault]
    reports = faulted_reports(starts, monkeypatch, alg, plant)
    got_passing = tuple(i for i, r in enumerate(reports) if r.verdict)
    got_failing = tuple(sum(not getattr(r, name).all() for r in reports) for name in PREDICATES)
    print(f"\n{fault}: passes {len(got_passing)} of {RUNS} runs; failing runs "
          + ", ".join(f"{name} {n}" for name, n in zip(PREDICATES, got_failing)))
    assert got_passing == passing and got_failing == failing, fault
