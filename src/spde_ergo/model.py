"""Drift/diffusion coefficient models and their Galerkin-level operators.

A model bundles the scalar drift f, its derivative f', the scalar diffusion
g, and the structural constants the scheme reads: one-sided Lipschitz
rate K1, coercivity rate K2 and growth exponent q.  GalerkinOperators
lifts f and g pointwise; its Galerkin projections evaluate coefficient
rows on a dealiased quadrature grid with spectral.basis_matrix, apply the
scalar function and project back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .spectral import basis_matrix, eigenvalue

__all__ = [
    "ModelConstants",
    "CoefficientModel",
    "StepConstraintResult",
    "allen_cahn_model",
    "paper_diffusion",
    "constant_diffusion",
    "heat_model",
    "validate_step_constraint",
    "default_quadrature",
    "drift_quadrature",
    "GalerkinOperators",
]

ScalarFn = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ModelConstants:
    """Structural constants of the drift that the scheme reads.

    K1: one-sided Lipschitz rate, (f(a)-f(b))(a-b) <= K1 (a-b)^2
    K2: coercivity rate, f(a) a <= K2 a^2 + C for some C
    q: growth exponent, |f(a)| <= C (|a|^q + 1) for some C
    """

    K1: float
    K2: float
    q: float = 1.0

    def __post_init__(self):
        if self.q < 1:
            raise ValueError(f"growth exponent q must be >= 1, got {self.q}")


@dataclass(frozen=True)
class CoefficientModel:
    """Scalar drift f, its derivative f', scalar diffusion g, plus constants.

    All three callables must accept and return numpy arrays elementwise.
    """

    drift: ScalarFn
    drift_deriv: ScalarFn
    diffusion: ScalarFn
    constants: ModelConstants


def paper_diffusion() -> ScalarFn:
    """g(x) = 2 + sin(x^2); bounded in [1, 3] and never zero."""
    return lambda x: 2.0 + np.sin(np.asarray(x, dtype=float) ** 2)


def constant_diffusion(value: float) -> ScalarFn:
    return lambda x: np.full_like(np.asarray(x, dtype=float), value)


def allen_cahn_model(epsilon: float, diffusion: ScalarFn | None = None) -> CoefficientModel:
    """Double-well model f(x) = eps^-2 (x - x^3), by default with paper_diffusion.

    Constants: K1 = eps^-2, K2 = -1 and q = 3.
    """
    try:
        inv2 = epsilon**-2
    except (OverflowError, ZeroDivisionError):  # eps**-2 overflows, or eps is 0
        inv2 = math.inf
    if not (epsilon > 0 and 0.0 < inv2 < math.inf):
        raise ValueError(
            f"epsilon must be positive with finite, nonzero eps**-2, got {epsilon}")
    return CoefficientModel(
        drift=lambda x: inv2 * (x - x * x * x),
        drift_deriv=lambda x: inv2 * (1.0 - 3.0 * x**2),
        diffusion=paper_diffusion() if diffusion is None else diffusion,
        constants=ModelConstants(K1=inv2, K2=-1.0, q=3.0),
    )


def heat_model(diffusion: ScalarFn) -> CoefficientModel:
    """Zero drift with the given diffusion (the linear test equation)."""
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    constants = ModelConstants(K1=0.0, K2=0.0)
    return CoefficientModel(drift=zero, drift_deriv=zero,
                            diffusion=diffusion, constants=constants)


@dataclass(frozen=True)
class StepConstraintResult:
    """Outcome of the step-size admissibility check."""

    ok: bool
    c0: float
    messages: tuple[str, ...]


def validate_step_constraint(constants: ModelConstants, tau: float) -> StepConstraintResult:
    """Check (K1 - lambda_1) tau < 1 and K2 < lambda_1; reports C0 = 1 - (K1 - lambda_1) tau."""
    lam1 = eigenvalue(1)
    c0 = 1.0 - (constants.K1 - lam1) * tau
    msgs = []
    if not 0.0 < tau < 1.0:
        msgs.append(f"tau must lie in (0, 1), got {tau}")
    if c0 <= 0.0:
        msgs.append(
            f"(K1 - lambda_1) tau = {(constants.K1 - lam1) * tau:.6g} >= 1: "
            "implicit step is not strictly monotone"
        )
    if constants.K2 >= lam1:
        msgs.append(f"K2 = {constants.K2:.6g} >= lambda_1 = {lam1:.6g}: no Lyapunov contraction")
    return StepConstraintResult(ok=not msgs, c0=c0, messages=tuple(msgs))


def default_quadrature(n_modes: int, constants: ModelConstants) -> int:
    """Noise quadrature size for Galerkin dimension N: max((d + 1) N, 2N + 1).

    Two aliasing floors: a degree-d drift (d = ceil(q)) of a bandwidth-N
    state, paired with a test mode, has sine bandwidth (d + 1) N; the noise
    increment pairs a state mode with one of the N noise modes, bandwidth
    2N, and Q is kept above it.
    """
    return max((math.ceil(constants.q) + 1) * n_modes, 2 * n_modes + 1)


def drift_quadrature(n_modes: int, constants: ModelConstants) -> int:
    """Smallest Q >= 2N at which P_N F and its Jacobian are exact: on Q nodes
    mode m aliases to 2(Q + 1) - m, so the modes m <= dN of a degree-d drift
    land above N once 2(Q + 1) > (d + 1) N. Q = 2N for the cubic."""
    return max((math.ceil(constants.q) + 1) * n_modes // 2, 2 * n_modes)


class GalerkinOperators:
    """Galerkin projections of the Nemytskii operators, acting on rows.

    Each operator takes a (P, N) array whose rows are independent
    coefficient vectors, lifts them to the Q interior quadrature nodes,
    applies f or g pointwise and projects back with weight 1/(Q+1).
    A single coefficient vector is a one-row array. The drift of a degree-d
    polynomial f is exact from Q = drift_quadrature on; the scheme projects
    g, which is not polynomial, on default_quadrature. Q must reach the
    noise floor 2N, below which even a constant coefficient aliases.
    """

    def __init__(self, model: CoefficientModel, n_modes: int, q_nodes: int):
        floor = 2 * n_modes
        if q_nodes < floor:
            raise ValueError(f"Q={q_nodes} below noise quadrature floor {floor}")
        self.model = model
        self.n = n_modes
        self.basis = basis_matrix(n_modes, q_nodes)
        self.weight = 1.0 / (q_nodes + 1)

    def drift(self, x: np.ndarray) -> np.ndarray:
        """Rows of P_N F(x)."""
        return self.model.drift(x @ self.basis.T) @ self.basis * self.weight

    def noise(self, x: np.ndarray, dbeta: np.ndarray) -> np.ndarray:
        """Rows of P_N G(x) dW for the (P, N) noise-mode increments dbeta."""
        gu = self.model.diffusion(x @ self.basis.T)
        return (gu * (dbeta @ self.basis.T)) @ self.basis * self.weight
