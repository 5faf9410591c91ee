import json
import math

import numpy as np
import pytest

from l1lab import (
    DataOverflowError,
    DimensionMismatchError,
    LipschitzCertificateError,
    LogisticData,
    ProblemSpec,
    QuadraticForm,
    check_isotonicity_quadratic,
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
from l1lab.problems import problem_to_dict
from tests.conftest import NOT_COUNTS

INFL = 1.0 + 1e-8


def central_diff_grad(p, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (f_value(p, x + e) - f_value(p, x - e)) / (2.0 * h)
    return g


# ---------------------------------------------------------------------------
# smooth-loss oracles
# ---------------------------------------------------------------------------

def test_f_value_quadratic_at_origin():
    p = quadratic_problem(np.eye(2), [0.0, 0.0], lam=0.0, lipschitz=1.0)
    assert f_value(p, [0.0, 0.0]) == 0.0


def test_f_value_quadratic_direct():
    p = quadratic_problem([[1.0]], [-4.0], lam=0.0, lipschitz=1.0)
    assert f_value(p, [4.0]) == pytest.approx(0.5 * 16 - 16, abs=1e-14)


def test_f_value_logistic_at_origin():
    p = logistic_problem([[1.0]], [1.0], lam=0.0, lipschitz=1.0)
    assert f_value(p, [0.0]) == pytest.approx(np.log(2.0), abs=1e-12)


def test_f_grad_quadratic_is_b_at_origin():
    p = quadratic_problem(np.eye(2), [1.0, 2.0], lam=0.0, lipschitz=1.0)
    np.testing.assert_allclose(f_grad(p, [0.0, 0.0]), [1.0, 2.0])


def test_f_grad_quadratic_matrix_vector():
    p = quadratic_problem([[2.0, -1.0], [-1.0, 2.0]], [0.0, 0.0], lam=0.0, lipschitz=3.0)
    np.testing.assert_allclose(f_grad(p, [1.0, 1.0]), [1.0, 1.0])


def test_f_grad_logistic_matches_finite_differences():
    p = logistic_problem([[1.0]], [1.0], lam=0.0, lipschitz=1.0)
    g = f_grad(p, [0.0])
    assert g[0] == pytest.approx(-0.5, abs=1e-12)
    fd = central_diff_grad(p, [0.0])
    assert abs(fd[0] - g[0]) <= 1e-8


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gradient_consistency_quadratic(seed):
    rng = np.random.default_rng(seed)
    p = gen_zmatrix_quadratic(4, seed=seed)
    for _ in range(20):
        x = rng.standard_normal(4)
        g = f_grad(p, x)
        fd = central_diff_grad(p, x)
        assert np.max(np.abs(fd - g)) <= 1e-5 * (1.0 + np.max(np.abs(g)))


@pytest.mark.parametrize("seed", [3, 4])
def test_gradient_consistency_logistic(seed):
    rng = np.random.default_rng(seed)
    n, d = 12, 3
    X = rng.standard_normal((n, d))
    Y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    p = logistic_problem(X, Y, lam=0.0)
    for _ in range(20):
        x = rng.standard_normal(d)
        g = f_grad(p, x)
        fd = central_diff_grad(p, x)
        assert np.max(np.abs(fd - g)) <= 1e-5 * (1.0 + np.max(np.abs(g)))


def test_dimension_mismatch_raises():
    p = quadratic_problem(np.eye(2), [0.0, 0.0], lam=0.0, lipschitz=1.0)
    with pytest.raises(DimensionMismatchError):
        f_value(p, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        f_grad(p, [np.nan, 0.0])


# ---------------------------------------------------------------------------
# Lipschitz estimation
# ---------------------------------------------------------------------------

def test_estimate_lipschitz_diagonal():
    L = estimate_lipschitz(QuadraticForm(np.diag([1.0, 3.0]), np.zeros(2)))
    assert L == pytest.approx(3.0 * INFL, rel=1e-9)


def test_estimate_lipschitz_identity():
    L = estimate_lipschitz(QuadraticForm(np.eye(5), np.zeros(5)))
    assert L == pytest.approx(1.0 * INFL, rel=1e-12)


def test_estimate_lipschitz_ones_start_trap():
    # the all-ones vector is an eigenvector of the smaller eigenvalue here
    L = estimate_lipschitz(QuadraticForm([[2.0, -1.0], [-1.0, 2.0]], np.zeros(2)))
    assert L == pytest.approx(3.0 * INFL, rel=1e-9)


def test_estimate_lipschitz_rejects_what_is_not_a_smooth_loss():
    with pytest.raises(TypeError, match="must be a SmoothLoss"):
        estimate_lipschitz(np.eye(2))


def test_estimate_lipschitz_logistic():
    smooth = LogisticData([[2.0]], [1.0])
    L = estimate_lipschitz(smooth)
    assert L == pytest.approx(1.0 * INFL, rel=1e-9)
    # definition check on random pairs
    p = logistic_problem([[2.0]], [1.0], lam=0.0)
    rng = np.random.default_rng(0)
    for _ in range(100):
        x, y = rng.standard_normal(1), rng.standard_normal(1)
        lhs = np.linalg.norm(f_grad(p, x) - f_grad(p, y))
        assert lhs <= p.lipschitz * np.linalg.norm(x - y) + 1e-15


@pytest.mark.parametrize("seed", range(6))
def test_lipschitz_validity_random_instances(seed):
    p = gen_zmatrix_quadratic(2 + seed, seed=seed, density=0.6)
    rng = np.random.default_rng(seed + 100)
    for _ in range(100):
        x = rng.standard_normal(p.dim) * 3.0
        y = rng.standard_normal(p.dim) * 3.0
        lhs = np.linalg.norm(f_grad(p, x) - f_grad(p, y))
        assert lhs <= p.lipschitz * np.linalg.norm(x - y) * (1.0 + 1e-12)


def _random_logistic(n, d, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    Y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    return logistic_problem(X, Y, lam=0.01)


def _hessian_bound(s):
    """The matrix whose top eigenvalue L must reach, built here from the data."""
    if isinstance(s, QuadraticForm):
        return s.A
    return s.X.T @ s.X / (4.0 * s.n)  # d x d, whichever Gram side the code used


_CERTIFIED_CASES = (
    [("zmatrix", d, seed) for d in (60, 120, 300, 500) for seed in range(4)]
    + [("logistic", n, d) for n, d in ((200, 20), (2000, 50), (20, 200), (50, 50))]
)


@pytest.mark.parametrize("case", _CERTIFIED_CASES, ids=lambda c: "-".join(map(str, c)))
def test_lipschitz_is_certified_above_the_top_eigenvalue(case):
    # The top of a Z-matrix spectrum is crowded at d >= 120, where an
    # iterative estimate stops short of lambda_max; logistic data take
    # either Gram side (n > d and n < d).
    kind, a, b = case
    p = gen_zmatrix_quadratic(a, seed=b) if kind == "zmatrix" else _random_logistic(a, b, seed=a + b)
    H = _hessian_bound(p.smooth)
    assert p.lipschitz >= np.linalg.eigvalsh(H)[-1]
    np.linalg.cholesky(p.lipschitz * np.eye(p.dim) - H)  # raises when L I - H is not PD


@pytest.mark.parametrize("smooth", [
    gen_zmatrix_quadratic(20, seed=0).smooth,
    _random_logistic(15, 40, seed=1).smooth,
], ids=["quadratic", "logistic"])
def test_short_lipschitz_raises_with_its_shortfall(monkeypatch, smooth):
    eigvalsh = np.linalg.eigvalsh
    top = float(eigvalsh(_hessian_bound(smooth))[-1])
    # An eigensolve that reports every eigenvalue 1e-6 too low (relative).
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda H: eigvalsh(H) * (1.0 - 1e-6))
    with pytest.raises(LipschitzCertificateError) as exc:
        estimate_lipschitz(smooth)
    err = exc.value
    assert err.lipschitz == pytest.approx(top * (1.0 - 1e-6) * INFL, rel=1e-12)
    assert err.shortfall == pytest.approx(top - err.lipschitz, rel=1e-3)
    assert err.lambda_max == pytest.approx(top, rel=1e-12)
    assert f"{err.shortfall:.6e}" in str(err)


def test_logistic_lipschitz_matrix_overflow_raises_a_typed_error():
    # Finite data whose X^T X overflows: the step constant cannot be computed,
    # and no overflow warning escapes (tier-1 turns warnings into errors).
    smooth = LogisticData([[1e300, 1.0], [2.0, 1e-300], [3.0, 1.0]], [1.0, -1.0, 1.0])
    with pytest.raises(DataOverflowError, match="logistic loss's Lipschitz matrix"):
        estimate_lipschitz(smooth)
    with pytest.raises(DataOverflowError):
        logistic_problem(smooth.X, smooth.Y, lam=0.1)


def test_quadratic_symmetrization_overflow_raises_a_typed_error():
    with pytest.raises(DataOverflowError, match=r"A \+ A\^T overflows"):
        quadratic_problem([[1e308, 0.0], [0.0, 1e308]], [0.0, 0.0], 0.1)
    # A + A^T is finite here, but the row sums of |A| behind the PSD check are not.
    with pytest.raises(DataOverflowError, match=r"row sums of \|A\| overflow"):
        QuadraticForm(np.full((3, 3), 8e307), np.zeros(3))


@pytest.mark.parametrize("d", [1, 2, 5, 20, 60, 120, 300, 500])
def test_generator_keeps_its_eigenvalue_margin(d):
    # c - rho(N) = 0.1 * rho(N) + 0.1, so every eigenvalue of A is >= 0.1.
    for seed in range(3):
        A = gen_zmatrix_quadratic(d, seed=seed).smooth.A
        assert np.linalg.eigvalsh(A)[0] >= 0.1


# ---------------------------------------------------------------------------
# builders and generators
# ---------------------------------------------------------------------------

def test_lasso_build_one_dimensional(grid=None):
    X = np.array([[1.0], [1.0]])
    Y = np.array([1.0, 1.0])
    p = lasso_build(X, Y, 0.5)
    np.testing.assert_allclose(p.smooth.A, [[1.0]])
    np.testing.assert_allclose(p.smooth.b, [-1.0])
    # brute-force oracle for the minimizer of F
    xs = np.arange(-3.0, 3.0 + 1e-5, 1e-5)
    vals = 0.5 * xs**2 - xs + 0.5 * np.abs(xs)
    xstar = xs[int(np.argmin(vals))]
    assert xstar == pytest.approx(0.5, abs=1e-5)
    assert objective(p, [0.5]) <= objective(p, [xstar]) + 1e-12


def test_lasso_build_zero_response():
    p = lasso_build(np.eye(2), np.zeros(2), 0.3)
    np.testing.assert_allclose(p.smooth.A, np.eye(2) / 2.0)
    np.testing.assert_allclose(p.smooth.b, np.zeros(2))
    assert objective(p, [0.0, 0.0]) == 0.0


def test_lasso_build_unregularized_normal_equations():
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    Y = np.array([2.0, 2.0])
    p = lasso_build(X, Y, 0.0)
    xstar = np.linalg.solve(p.smooth.A, -p.smooth.b)
    np.testing.assert_allclose(xstar, [2.0, 2.0], atol=1e-12)


def test_lasso_build_rejects_empty():
    with pytest.raises(DimensionMismatchError):
        lasso_build(np.zeros((0, 2)), np.zeros(0), 0.1)


def test_quadratic_form_rejects_empty():
    with pytest.raises(DimensionMismatchError, match="nonempty"):
        QuadraticForm(np.zeros((0, 0)), np.zeros(0))


def test_gen_zmatrix_scalar():
    p = gen_zmatrix_quadratic(1, seed=5)
    assert p.smooth.A.shape == (1, 1)
    assert p.smooth.A[0, 0] == pytest.approx(0.1)


@pytest.mark.parametrize("d", NOT_COUNTS)
def test_gen_zmatrix_rejects_a_d_that_is_not_an_integer_at_least_1(d):
    # 2.5 used to reach numpy, which raised TypeError.
    with pytest.raises(ValueError, match=f"d must be an integer >= 1, got {d!r}"):
        gen_zmatrix_quadratic(d, seed=0)


def test_gen_zmatrix_passes_checker():
    p = gen_zmatrix_quadratic(5, seed=7)
    ok, offenders = check_isotonicity_quadratic(p.smooth.A)
    assert ok and not offenders


def test_gen_zmatrix_zero_density_is_diagonal():
    p = gen_zmatrix_quadratic(6, seed=2, density=0.0)
    off = p.smooth.A - np.diag(p.smooth.A.diagonal())
    assert np.all(off == 0.0)


@pytest.mark.parametrize("seed", range(8))
def test_gen_zmatrix_contract(seed):
    p = gen_zmatrix_quadratic(2 + (seed % 5), seed=seed, density=0.2 * (seed % 5))
    ok, _ = check_isotonicity_quadratic(p.smooth.A)
    assert ok
    assert p.smooth.A.diagonal().min() > 0.0
    assert np.linalg.eigvalsh(p.smooth.A)[0] > 0.0
    assert 0.01 <= p.lam <= 0.5


def test_gen_zmatrix_deterministic():
    a = gen_zmatrix_quadratic(7, seed=9, density=0.4)
    bb = gen_zmatrix_quadratic(7, seed=9, density=0.4)
    np.testing.assert_array_equal(a.smooth.A, bb.smooth.A)
    np.testing.assert_array_equal(a.smooth.b, bb.smooth.b)
    assert a.lam == bb.lam and a.lipschitz == bb.lipschitz


def test_quadratic_form_symmetrizes_and_checks_psd():
    q = QuadraticForm([[1.0, 2e-13], [0.0, 1.0]], [0.0, 0.0])
    assert q.A[0, 1] == q.A[1, 0]
    with pytest.raises(ValueError):
        QuadraticForm([[1.0, 2.0], [2.0, 1.0]], [0.0, 0.0])  # eigenvalues -1, 3


def test_quadratic_form_checks_psd_at_every_dimension():
    d = 201  # the eigenvalue check used to be skipped above d = 200
    A = np.eye(d)
    A[0, 1] = A[1, 0] = 2.0  # eigenvalues -1 and 3 in the leading block
    with pytest.raises(ValueError):
        QuadraticForm(A, np.zeros(d))
    # Rounding-size negative eigenvalues, singular and zero matrices pass.
    v = np.linspace(-1.0, 1.0, d)
    QuadraticForm(np.outer(v, v), np.zeros(d))
    QuadraticForm(np.diag(np.r_[np.ones(d - 1), -1e-12]), np.zeros(d))
    QuadraticForm(np.zeros((d, d)), np.zeros(d))
    with pytest.raises(ValueError):
        QuadraticForm(np.diag(np.r_[np.ones(d - 1), -1e-6]), np.zeros(d))


def test_logistic_data_validates_labels():
    with pytest.raises(ValueError):
        LogisticData([[1.0]], [0.5])


def test_problem_spec_validates_parameters():
    with pytest.raises(ValueError):
        quadratic_problem(np.eye(2), np.zeros(2), lam=-0.1, lipschitz=1.0)
    with pytest.raises(ValueError):
        quadratic_problem(np.eye(2), np.zeros(2), lam=0.1, lipschitz=0.0)


def test_problem_spec_rejects_a_nan_lambda():
    # A NaN threshold fails both branch tests of the classification, which
    # would call every point a supersolution.
    nan = float("nan")
    with pytest.raises(ValueError, match="lam must be nonnegative"):
        quadratic_problem(np.eye(2), [1.0, -1.0], lam=nan)
    smooth = quadratic_problem(np.eye(2), [1.0, -1.0], lam=0.1).smooth
    with pytest.raises(ValueError, match="lam must be nonnegative"):
        ProblemSpec(smooth, nan, 1.0)


def test_problem_spec_rejects_an_infinite_lambda_or_lipschitz():
    # Every prox step divides by L: with L = inf no solver and no reference
    # sweep would move, and a residual at 0 would read 0.
    smooth = quadratic_problem(np.eye(2), [1.0, -1.0], lam=0.1).smooth
    for inf in (math.inf, -math.inf):
        with pytest.raises(ValueError, match="lam must be nonnegative and finite"):
            ProblemSpec(smooth, inf, 1.0)
        with pytest.raises(ValueError, match="lipschitz must be positive and finite"):
            ProblemSpec(smooth, 0.1, inf)
        with pytest.raises(ValueError, match="lipschitz must be positive and finite"):
            quadratic_problem(np.eye(2), [1.0, -1.0], lam=0.1, lipschitz=inf)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def test_problem_json_roundtrip_quadratic(tmp_path):
    p = gen_zmatrix_quadratic(4, seed=3)
    path = tmp_path / "prob.json"
    save_problem(p, path)
    q = load_problem(path)
    np.testing.assert_allclose(q.smooth.A, p.smooth.A)
    np.testing.assert_allclose(q.smooth.b, p.smooth.b)
    assert q.lam == p.lam and q.lipschitz == p.lipschitz and q.dim == p.dim


def test_problem_json_roundtrip_logistic(tmp_path):
    p = logistic_problem([[1.0, 0.5], [-0.5, 2.0]], [1.0, -1.0], lam=0.2)
    path = tmp_path / "prob.json"
    save_problem(p, path)
    q = load_problem(path)
    assert not isinstance(q.smooth, QuadraticForm)
    np.testing.assert_allclose(q.smooth.X, p.smooth.X)
    assert q.lipschitz == p.lipschitz


def test_save_problem_writes_the_bytes_of_json_dump_indent_2(tmp_path, renderer):
    # The writer renders numbers itself and lays them out itself; the file
    # loads back bit for bit.
    rng = np.random.default_rng(4)
    X = rng.standard_normal((30, 3)) * np.array([1e-300, 1.0, 1e300])
    cases = [gen_zmatrix_quadratic(d, seed=d) for d in (1, 2, 9)]
    cases += [logistic_problem(X, np.where(rng.random(30) < 0.5, -1.0, 1.0), 0.0, 1.0),
              quadratic_problem([[1.0]], [-0.0], lam=0.1, lipschitz=1.0)]
    for i, p in enumerate(cases):
        got, want = tmp_path / f"{i}.json", tmp_path / f"{i}.ref.json"
        save_problem(p, got)
        with open(want, "w", encoding="utf-8") as fh:
            json.dump(problem_to_dict(p), fh, indent=2)
            fh.write("\n")
        assert got.read_bytes() == want.read_bytes(), i
        back = problem_to_dict(load_problem(got))
        for key, value in problem_to_dict(p).items():
            assert np.asarray(back[key]).tobytes() == np.asarray(value).tobytes(), (i, key)


def test_problem_json_estimates_missing_L(tmp_path):
    path = tmp_path / "prob.json"
    with open(path, "w") as fh:
        json.dump({"kind": "quadratic", "A": [[2.0]], "b": [0.0], "lambda": 0.1}, fh)
    p = load_problem(path)
    assert p.lipschitz == pytest.approx(2.0 * INFL, rel=1e-9)


def test_load_xy_csv_with_and_without_header(tmp_path):
    body = "1.0,2.0,0.5\n-1.0,0.0,1.5\n"
    bare = tmp_path / "bare.csv"
    bare.write_text(body)
    headed = tmp_path / "headed.csv"
    headed.write_text("x_1,x_2,y\n" + body)
    for path in (bare, headed):
        X, Y = load_xy_csv(path)
        np.testing.assert_allclose(X, [[1.0, 2.0], [-1.0, 0.0]])
        np.testing.assert_allclose(Y, [0.5, 1.5])


def test_public_names_resolve_and_the_rest_stay_importable():
    import l1lab

    assert len(set(l1lab.__all__)) == len(l1lab.__all__)
    for name in l1lab.__all__:
        assert getattr(l1lab, name) is not None
    # Names outside __all__ are still bound on the package.
    from l1lab import ComparisonReport, PowerIterationError, ProblemSpec, Trace  # noqa: F401
