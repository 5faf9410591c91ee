import json

import numpy as np
import pytest

from l1lab import (
    DimensionMismatchError,
    LogisticData,
    PowerIterationError,
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
from l1lab.problems import _dominant_eigenvalue

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


def test_power_iteration_budget_error():
    A = np.diag([1.0, 3.0])
    with pytest.raises(PowerIterationError) as exc:
        _dominant_eigenvalue(lambda v: A @ v, 2, max_iters=1)
    assert exc.value.best_estimate > 0.0


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


def test_gen_zmatrix_scalar():
    p = gen_zmatrix_quadratic(1, seed=5)
    assert p.smooth.A.shape == (1, 1)
    assert p.smooth.A[0, 0] == pytest.approx(0.1)


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
