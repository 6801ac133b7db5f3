"""Dirichlet sine eigenbasis on (0,1): eigenvalues, basis matrix, norms, resolvent.

States live in the span of the first N eigenvectors of the Dirichlet
Laplacian, e_k(xi) = sqrt(2) sin(k pi xi) with eigenvalue lambda_k = (k pi)^2,
as plain arrays of coefficients. Physical-space evaluation uses the uniform
interior grid xi_q = q/(Q+1), q = 1..Q: with E = basis_matrix(N, Q) the point
values of c are E @ c and the projection of values v is E.T @ v / (Q+1),
which discrete sine orthogonality makes exact for any function whose sine
bandwidth is at most Q.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "eigenvalue",
    "eigenvalues",
    "basis_matrix",
    "grid_nodes",
    "sobolev_norm",
    "resolvent_factors",
    "geometric_decay_sum",
]


def eigenvalue(k: int) -> float:
    """Eigenvalue lambda_k = (k pi)^2 of the negative Dirichlet Laplacian on (0,1)."""
    if k < 1:
        raise ValueError(f"mode index must be >= 1, got {k}")
    return (k * math.pi) ** 2


def eigenvalues(n_modes: int) -> np.ndarray:
    """First n_modes eigenvalues as an array."""
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    k = np.arange(1, n_modes + 1)
    return (k * math.pi) ** 2


def grid_nodes(q_nodes: int) -> np.ndarray:
    """Interior nodes xi_q = q/(Q+1), q = 1..Q."""
    if q_nodes < 1:
        raise ValueError(f"q_nodes must be >= 1, got {q_nodes}")
    return np.arange(1, q_nodes + 1) / (q_nodes + 1)


def basis_matrix(n_modes: int, q_nodes: int) -> np.ndarray:
    """(Q x N) matrix E with E[q,k] = e_{k+1}(xi_{q+1})."""
    if n_modes < 1 or q_nodes < 1:
        raise ValueError("n_modes and q_nodes must be >= 1")
    k = np.arange(1, n_modes + 1)
    return math.sqrt(2.0) * np.sin(np.pi * np.outer(grid_nodes(q_nodes), k))


def sobolev_norm(c, beta: float) -> float:
    """Fractional Sobolev norm (sum_k lambda_k^beta c_k^2)^(1/2); beta=0 is L2."""
    arr = np.asarray(c, dtype=float)
    lam = eigenvalues(arr.size)
    return float(np.sqrt(np.sum(lam**beta * arr**2)))


def resolvent_factors(n_modes: int, tau: float) -> np.ndarray:
    """Diagonal 1/(1 + tau*lambda_k) of the resolvent (I - tau*Laplacian_N)^(-1)."""
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    return 1.0 / (1.0 + tau * eigenvalues(n_modes))


def geometric_decay_sum(lam: float, tau: float, j) -> float:
    """Sum_{i=0}^{j-1} (1 + tau*lam)^(-2(j-i)) in closed form.

    With r = 1/(1 + tau*lam) the sum equals r^2 (1 - r^(2j)) / (1 - r^2).
    Pass j = math.inf for the limit 1/(tau*lam*(2 + tau*lam)).
    """
    if lam <= 0 or tau <= 0:
        raise ValueError("lam and tau must be positive")
    limit = 1.0 / (tau * lam * (2.0 + tau * lam))
    if j == math.inf:
        return limit
    j = int(j)
    if j < 1:
        raise ValueError(f"j must be >= 1 or infinite, got {j}")
    r2 = 1.0 / (1.0 + tau * lam) ** 2
    return limit * (1.0 - r2**j)
