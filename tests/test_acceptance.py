"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import numpy as np
import pytest

from l1lab import (
    Kind,
    ccm_tau_log,
    classify_point,
    classify_scale_sweep,
    check_isotonicity_quadratic,
    f_grad,
    f_value,
    find_subsolution,
    find_supersolution,
    lasso_build,
    logistic_problem,
    objective,
    quadratic_problem,
    run,
    run_comparison,
    save_problem,
    shrink_tau_curve,
    solve_1d_prox,
    SolverConfig,
)
from l1lab.cli import main as cli_main
from tests.conftest import (acceptance_instance, ccd_update_margins, ccm_update_margins,
                            gd_step_flags, monotone_and_bracket)

K_SUITE = 200
DOM_TOL = 1e-8
RATE_RTOL = 1e-9
TAU_GRID = np.logspace(-2.0, 2.0, 9)


def _report(label, ok):
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion failed: {label}"


@pytest.fixture(scope="module")
def suite():
    """50 order-preserving instances with comparison runs from both start kinds."""
    out = []
    for seed in range(50):
        p = acceptance_instance(seed)
        sup = find_supersolution(p, seed=seed)
        sub = find_subsolution(p, seed=seed)
        out.append(
            (
                p,
                run_comparison(p, sup, K=K_SUITE, tol=DOM_TOL),
                run_comparison(p, sub, K=K_SUITE, tol=DOM_TOL),
            )
        )
    return out


def test_acceptance_1_dominance(suite):
    ok = True
    for _, rep_super, rep_sub in suite:
        ok = ok and rep_super.start.kind is Kind.SUPERSOLUTION
        ok = ok and rep_sub.start.kind is Kind.SUBSOLUTION
        ok = ok and all(r.dominance_ok for r in rep_super.records)
        ok = ok and all(r.dominance_ok for r in rep_sub.records)
    _report("1 (componentwise dominance, both start kinds, 50 instances)", ok)


def test_acceptance_2_f_ordering_and_rate(suite):
    ok = True
    for p, rep_super, rep_sub in suite:
        for rep in (rep_super, rep_sub):
            ref = rep.reference
            ok = ok and ref.residual <= 1e-10
            x0 = rep.traces["gd"].iterates[0]
            base = p.lipschitz * float(np.sum((ref.x_star - x0) ** 2)) / 2.0
            slack = RATE_RTOL * (1.0 + abs(ref.f_star))
            for r in rep.records[1:]:
                chain = (
                    r.f_ccm <= r.f_ccd + slack
                    and r.f_ccd <= r.f_gd + slack
                    and r.f_gd <= ref.f_star + base / r.k + slack
                )
                ok = ok and chain
    _report("2 (objective ordering and the 1/k bound)", ok)


def test_acceptance_3_persistence_and_descent(suite):
    ok = True
    for _, rep_super, rep_sub in suite:
        for rep in (rep_super, rep_sub):
            ok = ok and all(r.persistence_ok for r in rep.records)
            ok = ok and all(t.descent_ok(1e-12) for t in rep.traces.values())
    _report("3 (classification persistence and descent)", ok)


# ---------------------------------------------------------------------------
# scale invariance and threshold monotonicity
# ---------------------------------------------------------------------------

def _robust_above(x, g, lam):
    """Coordinates safely away from branch boundaries for a supersolution.

    The exclusion margins are defined purely from the tau = 1 data; the
    behavior across the tau grid is what the test then verifies.
    """
    for xj, gj in zip(x, g):
        if xj == 0.0:
            if abs(gj) > lam - 1e-8:
                return False
        elif xj > 0.0:
            if xj < 1e-6 or gj + lam < 1e-4:
                return False
        else:
            if gj - lam < 1e-4:
                return False
    return True


def _is_robust(p, x, kind):
    g = f_grad(p, x)
    if kind is Kind.SUPERSOLUTION:
        return _robust_above(x, g, p.lam)
    return _robust_above(-x, -g, p.lam)


def _classified_points(suite):
    points = []
    for idx, (p, rep_super, rep_sub) in enumerate(suite[:20]):
        candidates = [rep_super.traces["gd"].iterates[0], rep_sub.traces["gd"].iterates[0]]
        for rep in (rep_super, rep_sub):
            candidates.extend(rep.traces["gd"].iterates[1:9])
            candidates.append(rep.traces["ccd"].iterates[1])
            candidates.append(rep.traces["ccm"].iterates[1])
        # Top up with random gradient-target solves: for an order-preserving
        # quadratic, A has nonnegative inverse, so a positive (negative)
        # gradient target lands on the wanted side with clear margins.
        rng = np.random.default_rng(3000 + idx)
        A, b = p.smooth.A, p.smooth.b
        for _ in range(20):
            u = rng.uniform(0.5, 4.0, p.dim)
            candidates.append(np.linalg.solve(A, np.maximum(-b, u)))
            candidates.append(np.linalg.solve(A, np.minimum(-b, -u)))
        kept = 0
        for x in candidates:
            kind = classify_point(p, x, 1e-12).kind
            if kind not in (Kind.SUPERSOLUTION, Kind.SUBSOLUTION):
                continue
            if not _is_robust(p, x, kind):
                continue
            points.append((p, x, kind))
            kept += 1
            if kept == 10:
                break
    return points


def test_acceptance_4_scale_invariance_and_tau_monotonicity(suite):
    points = _classified_points(suite)
    ok = len(points) == 200
    for p, x, kind in points:
        sweep = classify_scale_sweep(p, x, TAU_GRID, tol=1e-12)
        ok = ok and all(c.kind is kind for c in sweep)
        for j in range(p.dim):
            curve = shrink_tau_curve(p, x, j, TAU_GRID, tol=1e-12)
            diffs = np.diff(curve)
            if kind is Kind.SUPERSOLUTION:
                ok = ok and bool(np.all(diffs >= -1e-12))
            else:
                ok = ok and bool(np.all(diffs <= 1e-12))
    _report(f"4 (kind kept across tau grid and monotone curves, {len(points)} points)", ok)


def test_acceptance_5_update_threshold_diagnostics(suite):
    def soft(a, t):
        if a > t:
            return a - t
        if a < -t:
            return a + t
        return 0.0

    ok = True
    total = 0
    for p, rep_super, rep_sub in suite:
        lam, L, A = p.lam, p.lipschitz, p.smooth.A
        for rep in (rep_super, rep_sub):
            # The comparison keeps no records; its ccm iterates give them.
            for rec in ccm_tau_log(p, rep.traces["ccm"].iterates):
                total += 1
                ok = ok and 0.0 < rec.tau <= L * (1.0 + 1e-8)
                ok = ok and abs(rec.tau - A[rec.j, rec.j]) <= 1e-12
                rebuilt = soft(rec.z_old - rec.grad_old / rec.tau, lam / rec.tau)
                ok = ok and abs(rebuilt - rec.z_new) <= 1e-8
    ok = ok and total > 0
    _report(f"5 (threshold diagnostics over {total} non-trivial updates)", ok)


# ---------------------------------------------------------------------------
# oracle equivalence
# ---------------------------------------------------------------------------

def _grid_minimizer_2d(F, radius):
    lo = np.array([-radius, -radius])
    hi = np.array([radius, radius])
    pts = 241
    for _ in range(4):
        xs = np.linspace(lo[0], hi[0], pts)
        ys = np.linspace(lo[1], hi[1], pts)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        vals = F(gx, gy)
        i, j = np.unravel_index(np.argmin(vals), vals.shape)
        span = np.array([xs[1] - xs[0], ys[1] - ys[0]])
        best = np.array([xs[i], ys[j]])
        lo, hi = best - span, best + span
    return best


def _grid_minimizer_1d(F, radius):
    lo, hi = -radius, radius
    pts = 4001
    for _ in range(4):
        xs = np.linspace(lo, hi, pts)
        vals = F(xs)
        i = int(np.argmin(vals))
        span = xs[1] - xs[0]
        lo, hi = xs[i] - span, xs[i] + span
    return xs[i]


def test_acceptance_6_oracle_equivalence():
    def soft(a, t):
        if a > t:
            return a - t
        if a < -t:
            return a + t
        return 0.0

    rng = np.random.default_rng(0)
    ok = True
    for _ in range(1000):
        a = rng.uniform(0.1, 10.0)
        r = rng.uniform(-10.0, 10.0)
        lam = rng.uniform(0.0, 2.0)
        z = rng.uniform(-3.0, 3.0)
        closed = soft(z - (a * z + r) / a, lam / a)
        numeric = solve_1d_prox(lambda t: a * t + r, lam)
        ok = ok and abs(closed - numeric) <= 1e-10

    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        d = 1 + (seed % 2)
        n = 3 + (seed % 4)
        X = rng.standard_normal((n, d))
        Y = rng.standard_normal(n) * 2.0
        lam = rng.uniform(0.05, 0.5)
        p = lasso_build(X, Y, lam)
        A, b = p.smooth.A, p.smooth.b
        radius = 1.0 + 2.0 * max(1.0, float(np.max(np.abs(np.linalg.pinv(X) @ Y))))
        if d == 1:
            oracle = np.array(
                [_grid_minimizer_1d(lambda t: 0.5 * A[0, 0] * t**2 + b[0] * t + lam * np.abs(t), radius)]
            )
        else:
            def F2(gx, gy):
                return (
                    0.5 * (A[0, 0] * gx**2 + 2.0 * A[0, 1] * gx * gy + A[1, 1] * gy**2)
                    + b[0] * gx
                    + b[1] * gy
                    + lam * (np.abs(gx) + np.abs(gy))
                )

            oracle = _grid_minimizer_2d(F2, radius)
        cfg = SolverConfig(max_outer_iters=50_000, stop_residual=1e-11)
        for alg in ("gd", "ccd", "ccm"):
            limit = run(alg, p, np.zeros(d), cfg).iterates[-1]
            ok = ok and bool(np.all(np.abs(limit - oracle) <= 1e-4))
    _report("6 (closed form vs 1-D solver; solver limits vs grid search)", ok)


def test_acceptance_7_logistic_gradient_checks():
    ok = True
    for seed in range(5):
        rng = np.random.default_rng(2000 + seed)
        n = 5 + int(rng.integers(0, 26))
        d = 1 + int(rng.integers(0, 6))
        X = rng.standard_normal((n, d))
        Y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        p = logistic_problem(X, Y, lam=0.0)
        for _ in range(20):
            x = rng.standard_normal(d)
            g = f_grad(p, x)
            fd = np.zeros(d)
            for j in range(d):
                e = np.zeros(d)
                e[j] = 1e-6
                fd[j] = (f_value(p, x + e) - f_value(p, x - e)) / 2e-6
            ok = ok and np.max(np.abs(fd - g)) <= 1e-5 * (1.0 + np.max(np.abs(g)))
    _report("7 (logistic gradient vs central differences)", ok)


def test_acceptance_8_negative_control(tmp_path):
    ok, offenders = check_isotonicity_quadratic([[2.0, 1.0], [1.0, 2.0]])
    flag = (not ok) and offenders == [(0, 1)]
    prob = tmp_path / "neg.json"
    save_problem(
        quadratic_problem([[2.0, 1.0], [1.0, 2.0]], [-1.0, -1.0], lam=0.1, lipschitz=3.0),
        prob,
    )
    code = cli_main(["verify", "--problem", str(prob), "--iters", "10"])
    flag = flag and code == 2
    _report("8 (negative control rejected with exit code 2)", flag)


def test_acceptance_9_monotone_iterates_and_a_bracket_of_x_star(suite):
    # From a supersolution the iterates of gd, ccd and ccm fall toward x*
    # and stay above it; from a subsolution they rise and stay below. So
    # the two runs trap x* without a reference solve.
    entries, failures = 0, []
    for seed, (_, rep_super, rep_sub) in enumerate(suite):
        for sign, rep in ((1.0, rep_super), (-1.0, rep_sub)):
            for alg, trace in rep.traces.items():
                flags = monotone_and_bracket(trace.iterates, rep.reference.x_star, sign, DOM_TOL)
                entries += sum(f.size for f in flags)
                failed = [int((~f).sum()) for f in flags]
                if any(failed):
                    failures.append((seed, rep.start.kind.value, alg, *failed))
    for seed, kind, alg, rises, crossings in failures:
        print(f"  seed {seed}, {kind} start, {alg}: {rises} rising and {crossings} crossing entries")
    _report(f"9 (monotone iterates and a bracket of x*, {entries} entries)", not failures)


def test_acceptance_10_each_ccm_update_minimizes_F_along_its_coordinate(suite):
    # The four predicates compare the runs with each other and with F*;
    # this checks that the run called ccm is ccm: after its update j of
    # sweep k, coordinate j minimizes F along e_j, to DOM_TOL (1 + |z|_inf).
    worst, failures = 0.0, []
    for seed, (p, rep_super, rep_sub) in enumerate(suite):
        for rep in (rep_super, rep_sub):
            margin = float(ccm_update_margins(p, rep.traces["ccm"].iterates, DOM_TOL).max())
            worst = max(worst, margin)
            if margin > 1.0:
                failures.append((seed, rep.start.kind.value, margin))
    for seed, kind, margin in failures:
        print(f"  seed {seed}, {kind} start: worst residual {margin:.3g} of the tolerance")
    _report(f"10 (each ccm update minimizes F along its coordinate; worst {worst:.2g} "
            "of the tolerance)", not failures)


def test_acceptance_11_each_gd_and_ccd_update_is_its_step(suite):
    # As criterion 10 does for ccm: every gd row is bitwise the prox-gradient
    # image of the row before, from its recorded gradient, and after ccd's
    # update j of sweep k, coordinate j is the prox step of that coordinate
    # from the point before it, to DOM_TOL (1 + |z|_inf).
    worst, failures = 0.0, []
    for seed, (p, rep_super, rep_sub) in enumerate(suite):
        for rep in (rep_super, rep_sub):
            gd_rows = int((~gd_step_flags(p, rep.traces["gd"])).sum())
            margin = float(ccd_update_margins(p, rep.traces["ccd"].iterates, DOM_TOL).max())
            worst = max(worst, margin)
            if gd_rows or margin > 1.0:
                failures.append((seed, rep.start.kind.value, gd_rows, margin))
    for seed, kind, gd_rows, margin in failures:
        print(f"  seed {seed}, {kind} start: {gd_rows} gd rows not bitwise the step; "
              f"ccd's worst residual {margin:.3g} of the tolerance")
    _report(f"11 (each gd row is bitwise its step, each ccd update its prox step; ccd's worst "
            f"{worst:.2g} of the tolerance)", not failures)
