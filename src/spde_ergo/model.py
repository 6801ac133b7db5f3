"""Drift/diffusion coefficient models and their Galerkin-level operators.

A model bundles the scalar drift f, its derivative f', the scalar diffusion
g, and the structural constants: one-sided Lipschitz rate K1, coercivity
pair (K2, K3), growth pair (K4, K5) with exponent q, and the diffusion
bound K6.  The Nemytskii operators lift f and g pointwise; their Galerkin
projections are computed by synthesize / pointwise-apply / analyze on a
dealiased quadrature grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .spectral import SpectralCoeffs, _coeff_array, basis_matrix, eigenvalue

__all__ = [
    "ModelConstants",
    "CoefficientModel",
    "StepConstraintResult",
    "NondegeneracyResult",
    "allen_cahn_model",
    "paper_diffusion",
    "constant_diffusion",
    "zero_model",
    "heat_model",
    "validate_step_constraint",
    "drift_quadrature_floor",
    "noise_quadrature_floor",
    "default_quadrature",
    "GalerkinOperators",
    "nemytskii_drift",
    "nemytskii_jacobian",
    "noise_matrix",
    "validate_nondegeneracy",
]

ScalarFn = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ModelConstants:
    """Structural constants of the drift/diffusion pair.

    K1: one-sided Lipschitz rate, (f(a)-f(b))(a-b) <= K1 (a-b)^2
    K2, K3: coercivity, f(a) a <= K2 a^2 + K3
    K4, K5, q: growth, |f(a)| <= K4 |a|^q + K5
    K6: diffusion bound, 0 < |g| <= K6
    """

    K1: float
    K2: float
    K3: float
    K4: float
    K5: float
    K6: float
    q: float = 1.0

    def __post_init__(self):
        if self.q < 1:
            raise ValueError(f"growth exponent q must be >= 1, got {self.q}")
        for name in ("K4", "K5", "K6"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")

    def check_sampled(self, drift: ScalarFn, diffusion: ScalarFn,
                      radius: float = 10.0, n_samples: int = 201) -> list[str]:
        """Check the four structural inequalities on a deterministic grid.

        Returns a list of violation messages (empty if all hold).
        """
        xi = np.linspace(-radius, radius, n_samples)
        f = np.asarray(drift(xi), dtype=float)
        g = np.asarray(diffusion(xi), dtype=float)
        tol = 1e-9 * (1.0 + np.abs(f).max())
        msgs = []
        diff_f = f[:, None] - f[None, :]
        diff_x = xi[:, None] - xi[None, :]
        if np.max(diff_f * diff_x - self.K1 * diff_x**2) > tol:
            msgs.append("one-sided Lipschitz bound K1 violated on sample grid")
        if np.max(f * xi - self.K2 * xi**2 - self.K3) > tol:
            msgs.append("coercivity bound (K2, K3) violated on sample grid")
        if np.max(np.abs(f) - self.K4 * np.abs(xi) ** self.q - self.K5) > tol:
            msgs.append("growth bound (K4, K5, q) violated on sample grid")
        if np.max(np.abs(g)) > self.K6 + 1e-12:
            msgs.append("diffusion bound K6 violated on sample grid")
        if np.min(np.abs(g)) <= 0.0:
            msgs.append("diffusion vanishes on sample grid")
        return msgs


@dataclass(frozen=True)
class CoefficientModel:
    """Scalar drift f, its derivative f', scalar diffusion g, plus constants.

    All three callables must accept and return numpy arrays elementwise.
    """

    drift: ScalarFn
    drift_deriv: ScalarFn
    diffusion: ScalarFn
    constants: ModelConstants

    def check_derivative(self, radius: float = 10.0, n_samples: int = 201,
                         h: float = 1e-5) -> float:
        """Max normalized mismatch between drift_deriv and central differences."""
        xi = np.linspace(-radius, radius, n_samples)
        fd = (self.drift(xi + h) - self.drift(xi - h)) / (2 * h)
        fp = self.drift_deriv(xi)
        return float(np.max(np.abs(fp - fd) / (1.0 + np.abs(fp))))


def paper_diffusion() -> ScalarFn:
    """g(x) = 2 + sin(x^2); bounded in [1, 3] and never zero."""
    return lambda x: 2.0 + np.sin(np.asarray(x, dtype=float) ** 2)


def constant_diffusion(value: float) -> ScalarFn:
    return lambda x: np.full_like(np.asarray(x, dtype=float), value)


def allen_cahn_model(epsilon: float, diffusion: ScalarFn | None = None,
                     K6: float | None = None) -> CoefficientModel:
    """Double-well model f(x) = eps^-2 (x - x^3) with a bounded diffusion.

    Constants: K1 = eps^-2, K4 = 2 eps^-2, K5 = eps^-2, q = 3, and the
    coercivity pair K2 = -1, K3 = (eps^-2 + 1)^2 / (4 eps^-2), which is the
    maximum of eps^-2 (a^2 - a^4) + a^2 over a.
    """
    try:
        inv2 = epsilon**-2
        K3 = (inv2 + 1.0) ** 2 / (4.0 * inv2)
    except (OverflowError, ZeroDivisionError):  # eps**-2 overflows or is 0
        K3 = math.inf
    if not (epsilon > 0 and K3 < math.inf):
        raise ValueError(
            f"epsilon must be positive with finite eps**-2 and K3, got {epsilon}")
    if diffusion is None:
        diffusion = paper_diffusion()
        K6 = 3.0 if K6 is None else K6
    elif K6 is None:
        raise ValueError("K6 must be supplied with a custom diffusion")
    constants = ModelConstants(
        K1=inv2,
        K2=-1.0,
        K3=K3,
        K4=2.0 * inv2,
        K5=inv2,
        K6=K6,
        q=3.0,
    )
    return CoefficientModel(
        drift=lambda x: inv2 * (x - x * x * x),
        drift_deriv=lambda x: inv2 * (1.0 - 3.0 * x**2),
        diffusion=diffusion,
        constants=constants,
    )


def heat_model(diffusion: ScalarFn, K6: float) -> CoefficientModel:
    """Zero drift with the given diffusion (the linear test equation)."""
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    constants = ModelConstants(K1=0.0, K2=0.0, K3=0.0, K4=0.0, K5=0.0, K6=K6)
    return CoefficientModel(drift=zero, drift_deriv=zero,
                            diffusion=diffusion, constants=constants)


def zero_model() -> CoefficientModel:
    """Zero drift and zero diffusion (pure deterministic heat flow)."""
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    constants = ModelConstants(K1=0.0, K2=0.0, K3=0.0, K4=0.0, K5=0.0, K6=0.0)
    return CoefficientModel(drift=zero, drift_deriv=zero,
                            diffusion=zero, constants=constants)


@dataclass(frozen=True)
class StepConstraintResult:
    """Outcome of the step-size admissibility check."""

    ok: bool
    c0: float
    messages: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


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


def drift_quadrature_floor(n_modes: int, constants: ModelConstants) -> int:
    """Smallest Q resolving products of the drift's polynomial degree.

    A degree-d polynomial of a bandwidth-N state, paired with a test mode,
    has sine bandwidth (d + 1) N.
    """
    return (math.ceil(constants.q) + 1) * n_modes


def noise_quadrature_floor(n_modes: int, noise_modes: int) -> int:
    return n_modes + noise_modes


def default_quadrature(n_modes: int, noise_modes: int, constants: ModelConstants) -> int:
    return max(drift_quadrature_floor(n_modes, constants),
               noise_quadrature_floor(n_modes, noise_modes) + 1)


class GalerkinOperators:
    """Galerkin projections of the Nemytskii operators, acting on rows.

    Each operator takes a (P, N) array whose rows are independent
    coefficient vectors, lifts them to the Q interior quadrature nodes,
    applies f, f' or g pointwise and projects back with weight 1/(Q+1).
    The scheme steps with these definitions, and nemytskii_drift,
    nemytskii_jacobian, noise_matrix and multiplicative_increment evaluate
    them on a single row. Q must reach the noise floor N + N_w, below which
    even a constant coefficient aliases.
    """

    def __init__(self, model: CoefficientModel, n_modes: int, noise_modes: int,
                 q_nodes: int):
        floor = noise_quadrature_floor(n_modes, noise_modes)
        if q_nodes < floor:
            raise ValueError(f"Q={q_nodes} below noise quadrature floor {floor}")
        self.model = model
        self.n = n_modes
        self.basis = basis_matrix(n_modes, q_nodes)
        self.basis_w = basis_matrix(noise_modes, q_nodes)
        self.weight = 1.0 / (q_nodes + 1)
        # (Q x N^2) table of e_n(xi_q) e_m(xi_q) / (Q+1): assembling every
        # row's Jacobian is then a single matrix product.
        b = self.basis
        self._products = ((b[:, :, None] * b[:, None, :]).reshape(q_nodes, -1)
                          * self.weight)

    def drift(self, x: np.ndarray) -> np.ndarray:
        """Rows of P_N F(x)."""
        return self.model.drift(x @ self.basis.T) @ self.basis * self.weight

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        """(P, N, N) stack of the symmetric Jacobians of drift at each row."""
        fp = self.model.drift_deriv(x @ self.basis.T)
        return (fp @ self._products).reshape(len(x), self.n, self.n)

    def noise(self, x: np.ndarray, dbeta: np.ndarray) -> np.ndarray:
        """Rows of P_N G(x) dW for the (P, N_w) noise-mode increments dbeta."""
        gu = self.model.diffusion(x @ self.basis.T)
        return (gu * (dbeta @ self.basis_w.T)) @ self.basis * self.weight


def _drift_operators(arr: np.ndarray, model: CoefficientModel,
                     q_nodes: int) -> GalerkinOperators:
    n = arr.size
    floor = drift_quadrature_floor(n, model.constants)
    if q_nodes < floor:
        raise ValueError(f"Q={q_nodes} below dealiasing floor {floor} for N={n}")
    return GalerkinOperators(model, n, n, q_nodes)


def nemytskii_drift(c, model: CoefficientModel, q_nodes: int) -> SpectralCoeffs:
    """Galerkin projection of the drift Nemytskii operator, P_N F(x).

    Exact for polynomial f of degree d when Q >= (d + 1) N.
    """
    arr = _coeff_array(c)
    return SpectralCoeffs(_drift_operators(arr, model, q_nodes).drift(arr[None])[0])


def nemytskii_jacobian(c, model: CoefficientModel, q_nodes: int) -> np.ndarray:
    """Jacobian of nemytskii_drift wrt the coefficients; symmetric N x N."""
    arr = _coeff_array(c)
    return _drift_operators(arr, model, q_nodes).jacobian(arr[None])[0]


def noise_matrix(c, model: CoefficientModel, noise_modes: int, q_nodes: int) -> np.ndarray:
    """Projected multiplicative-noise matrix M with M[n,m] = <e_n, g(x) e_m>.

    Columns index the N_w retained noise modes; rows the N state modes.
    Quadrature with Q >= N + N_w is exact whenever g(x(.)) is constant.
    """
    arr = _coeff_array(c)
    ops = GalerkinOperators(model, arr.size, noise_modes, q_nodes)
    # Column m is the increment of the unit noise vector e_m.
    rows = np.broadcast_to(arr, (noise_modes, arr.size))
    return ops.noise(rows, np.eye(noise_modes)).T


@dataclass(frozen=True)
class NondegeneracyResult:
    ok: bool
    min_abs_diffusion: float

    def __bool__(self) -> bool:
        return self.ok


def validate_nondegeneracy(c, model: CoefficientModel, q_nodes: int) -> NondegeneracyResult:
    """Check min_q |g(x(xi_q))| > 0 on the quadrature grid."""
    arr = _coeff_array(c)
    mat = basis_matrix(arr.size, max(q_nodes, arr.size))
    gu = model.diffusion(mat @ arr)
    m = float(np.min(np.abs(gu)))
    return NondegeneracyResult(ok=m > 0.0, min_abs_diffusion=m)
