"""Planted solver faults: which predicates of run_comparison catch each one.

Each fault is a CoordinateKernel subclass that run() builds in place of the
kernel, on the numpy path (the compiled library off). reference_minimizer
keeps the unfaulted class that verification imported, so F* and x* stay
right. Every run is report_only: a fault shows as failing predicates, not as
a raised precondition. The control (no fault) must pass every run; each
fault's passing runs, and its count of failing runs per predicate, are
pinned. A run that a fault passes is one the comparison cannot tell from a
correct solver's, so the pass-through counts are the yardstick for new
predicates. The runs that also pass the test-level check of ccm's updates
(ccm_update_margins) are pinned too: only the Jacobi-style ccm's runs 0-3
get through both, and their iterates are bitwise those of correct ccm.
The runs whose ccd trace fails the test-level check of ccd's updates
(ccd_update_margins) are pinned as well: every run of each ccd fault, and
none of the others.

Run with ``pytest tests/test_planted_faults.py -s`` to see the table.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from l1lab import (
    _qsweep,
    find_subsolution,
    find_supersolution,
    run_comparison,
    solvers,
)
from l1lab.verification import PREDICATES
from tests.conftest import acceptance_instance, ccd_update_margins, ccm_update_margins

K = 30
SEEDS = range(20)


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
# the failing runs of each of PREDICATES, the runs that pass the verdict
# and ccm_update_margins, the count of runs that fail ccd_update_margins).
FAULTS = {
    "none": (None, None, tuple(range(RUNS)), (0, 0, 0, 0), tuple(range(RUNS)), 0),
    "ccd step L/2": ("ccd", scale_steps(0.5), (), (40, 40, 4, 40), (), RUNS),
    "ccd skips its last coordinate": ("ccd", skip_last_coordinate, (), (40, 40, 24, 0), (),
                                      RUNS),
    "ccd threshold lam, not lam/L": ("ccd", threshold_lam, (), (40, 39, 3, 37), (), RUNS),
    "ccm step 0.8 A_jj": ("ccm", scale_steps(0.8), (), (4, 4, 0, 40), (), 0),
    "ccm step 1.05 A_jj": ("ccm", scale_steps(1.05), tuple(range(4, RUNS)), (4, 4, 0, 0), (),
                           0),
    "ccm from the sweep-start gradient": ("ccm", stale_gradient,
                                          (0, 1, 2, 3, 4, 5, 11, 13, 20, 21, 30, 38),
                                          (28, 6, 0, 0), (0, 1, 2, 3), 0),
}


@pytest.fixture(scope="module")
def starts():
    """(instance, start) of every run, in run order."""
    out = []
    for seed in SEEDS:
        p = acceptance_instance(seed)
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
    alg, plant, passing, failing, checked, ccd_failing = FAULTS[fault]
    reports = faulted_reports(starts, monkeypatch, alg, plant)
    got_passing = tuple(i for i, r in enumerate(reports) if r.verdict)
    got_failing = tuple(sum(not r.flags[name].all() for r in reports) for name in PREDICATES)
    got_checked = tuple(i for i in got_passing
                        if ccm_update_margins(starts[i][0], reports[i].traces["ccm"].iterates)
                        .max() <= 1.0)
    got_ccd_failing = sum(ccd_update_margins(p, r.traces["ccd"].iterates).max() > 1.0
                          for (p, _), r in zip(starts, reports))
    print(f"\n{fault}: passes {len(got_passing)} of {RUNS} runs; failing runs "
          + ", ".join(f"{name} {n}" for name, n in zip(PREDICATES, got_failing))
          + f"; passes the ccm update check too: {len(got_checked)}"
          + f"; fails the ccd update check: {got_ccd_failing}")
    assert got_passing == passing and got_failing == failing, fault
    assert got_checked == checked, fault
    assert got_ccd_failing == ccd_failing, fault
