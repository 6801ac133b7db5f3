import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spde_ergo.spectral import (
    basis_matrix,
    eigenvalue,
    eigenvalues,
    geometric_decay_sum,
    grid_nodes,
    resolvent_factors,
)


def project(values, n):
    """Galerkin coefficients (1/(Q+1)) sum_q values[q] e_k(xi_q), k <= n."""
    return basis_matrix(n, len(values)).T @ values / (len(values) + 1)


def test_eigenvalue_matches_pi_squared():
    assert eigenvalue(1) == pytest.approx(math.pi**2, rel=1e-15)
    assert eigenvalue(2) == pytest.approx(4 * math.pi**2, rel=1e-15)
    assert eigenvalue(10) == pytest.approx(100 * math.pi**2, rel=1e-15)


def test_eigenvalue_monotone():
    vals = [eigenvalue(k) for k in range(1, 102)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_eigenvalue_rejects_zero():
    with pytest.raises(ValueError):
        eigenvalue(0)


def test_basis_eval_values():
    # Q = 5 puts nodes at 1/6 (row 0) and 1/2 (row 2)
    mat = basis_matrix(3, 5)
    assert mat[2, 0] == pytest.approx(math.sqrt(2), rel=1e-15)
    assert mat[2, 1] == pytest.approx(0.0, abs=1e-15)
    assert mat[0, 2] == pytest.approx(math.sqrt(2), rel=1e-15)


def test_basis_eval_rejects_boundary():
    # the basis is only evaluated at interior nodes, never at 0 or 1
    for q in (1, 2, 7, 64):
        xi = grid_nodes(q)
        assert np.all((xi > 0.0) & (xi < 1.0))
    for n, q in ((0, 4), (4, 0)):
        with pytest.raises(ValueError):
            basis_matrix(n, q)


def test_basis_orthonormal_quadrature():
    # continuous inner products via fine quadrature
    xi = np.linspace(0, 1, 20001)[1:-1]
    w = xi[1] - xi[0]
    for m in range(1, 4):
        for n in range(1, 4):
            em = math.sqrt(2) * np.sin(m * np.pi * xi)
            en = math.sqrt(2) * np.sin(n * np.pi * xi)
            ip = float(np.sum(em * en) * w)
            assert ip == pytest.approx(1.0 if m == n else 0.0, abs=1e-6)


def test_synthesize_single_mode():
    grid = basis_matrix(3, 3) @ np.array([1.0, 0.0, 0.0])
    expected = math.sqrt(2) * np.sin(np.pi * np.array([0.25, 0.5, 0.75]))
    np.testing.assert_allclose(grid, expected, rtol=1e-15)
    np.testing.assert_allclose(grid, [1.0, math.sqrt(2), 1.0], rtol=1e-15)


def test_synthesize_zero():
    assert np.all(basis_matrix(5, 8) @ np.zeros(5) == 0)


def test_analyze_single_mode_exact():
    grid = basis_matrix(4, 16) @ np.array([1.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(project(grid, 4), [1, 0, 0, 0], atol=1e-12)


def test_analyze_mode_above_truncation_is_invisible():
    xi = grid_nodes(16)
    grid = np.sin(5 * np.pi * xi)
    np.testing.assert_allclose(project(grid, 4), 0.0, atol=1e-12)


@given(st.integers(1, 16), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_parseval_roundtrip(n, seed):
    rng = np.random.default_rng(seed)
    q = n + int(rng.integers(0, 3 * n + 5))
    c = rng.standard_normal(n)
    mat = basis_matrix(n, q)
    back = mat.T @ (mat @ c) / (q + 1)
    np.testing.assert_allclose(back, c, atol=1e-12)


def test_resolvent_values():
    out = np.array([1.0, 0.0]) * resolvent_factors(2, 0.05)
    assert out[0] == pytest.approx(1 / (1 + 0.05 * math.pi**2), rel=1e-15)
    assert out[0] == pytest.approx(0.66957, abs=1e-5)
    assert out[1] == 0.0


def test_resolvent_contraction():
    rng = np.random.default_rng(7)
    tau = 0.05
    bound = 1 / (1 + tau * math.pi**2)
    for _ in range(1000):
        c = rng.standard_normal(10)
        out = c * resolvent_factors(10, tau)
        assert np.linalg.norm(out) <= bound * np.linalg.norm(c) + 1e-14


def test_resolvent_small_tau_is_near_identity():
    c = np.array([1.0, -2.0, 0.5])
    out = c * resolvent_factors(3, 1e-14)
    np.testing.assert_allclose(out, c, rtol=1e-10)


def test_geometric_decay_sum_single_term():
    lam, tau = math.pi**2, 0.05
    assert geometric_decay_sum(lam, tau, 1) == pytest.approx(
        (1 + tau * lam) ** -2, rel=1e-14)
    assert geometric_decay_sum(lam, tau, 1) == pytest.approx(0.44833, abs=1e-5)


def test_geometric_decay_sum_limit_vs_brute_force():
    lam, tau = math.pi**2, 0.05
    r = (1 + tau * lam) ** -2
    brute = float(np.sum(r ** np.arange(1, 10**6 + 1)))
    limit = geometric_decay_sum(lam, tau, math.inf)
    assert limit == pytest.approx(1 / (tau * lam * (2 + tau * lam)), rel=1e-15)
    assert limit == pytest.approx(brute, abs=1e-12)
    assert limit == pytest.approx(0.81269, abs=1e-5)


@given(st.floats(0.1, 5000.0), st.floats(0.001, 0.99), st.integers(1, 1000))
@settings(max_examples=100, deadline=None)
def test_geometric_decay_sum_matches_loop(lam, tau, j):
    r = (1 + tau * lam) ** -2
    brute = float(np.sum(r ** np.arange(1, j + 1)))
    assert geometric_decay_sum(lam, tau, j) == pytest.approx(brute, rel=1e-12)


def test_geometric_decay_sum_monotone_in_j_and_bounded():
    lam, tau = 4 * math.pi**2, 0.05
    limit = geometric_decay_sum(lam, tau, math.inf)
    prev = 0.0
    # strict ordering only while r^(2j) is resolvable in double precision
    for j in (1, 2, 3, 4, 6, 8):
        val = geometric_decay_sum(lam, tau, j)
        assert val > prev
        assert val < limit
        prev = val
    assert geometric_decay_sum(lam, tau, 500) <= limit


def test_basis_matrix_cached_readonly():
    mat = basis_matrix(4, 16)
    assert mat.shape == (16, 4)
