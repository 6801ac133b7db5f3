"""Drift-implicit Euler spectral-Galerkin time stepping.

One step advances the chain X by solving the strictly monotone implicit
equation

    (I + tau*Lambda) X' - tau * P_N F(X') = X + P_N G(X) dW

with damped Newton iteration, and advances the coupled stochastic
convolution W by one resolvent application of (W + noise).  The transform
Y = X - W then satisfies a pathwise (random) PDE recursion whose residual
is exposed as a consistency diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .model import (
    CoefficientModel,
    GalerkinOperators,
    default_quadrature,
    validate_step_constraint,
)
from .noise import NoiseStream, PhiloxBlockSource, gaussian_increments
from .spectral import SpectralCoeffs, _coeff_array, eigenvalues, resolvent_apply

__all__ = [
    "SchemeParams",
    "PathState",
    "StepDiagnostics",
    "PathResult",
    "NonConvergenceError",
    "SingularLinearSolveError",
    "implicit_solve",
    "dieg_step",
    "convolution_update",
    "random_pde_residual",
    "run_path",
    "run_paths_vectorized",
]


class NonConvergenceError(RuntimeError):
    """Newton iteration failed to reach the residual tolerance."""

    def __init__(self, residual: float, iterations: int, step: int | None = None,
                 path: int | None = None):
        self.residual = residual
        self.iterations = iterations
        self.step = step
        self.path = path
        where = [f"path {path}"] if path is not None else []
        if step is not None:
            where.append(f"step {step}")
        at = f" at {', '.join(where)}" if where else ""
        super().__init__(
            f"Newton failed{at}: residual {residual:.3e} after {iterations} iterations"
        )


class SingularLinearSolveError(RuntimeError):
    """Newton linear system singular; usually a violated step constraint."""


@dataclass(frozen=True)
class SchemeParams:
    """Everything fixing one DIEG discretization.

    quadrature=None resolves to the model's dealiasing floor at run time;
    noise_modes=None matches the Galerkin resolution N.
    """

    n_modes: int
    tau: float
    noise_modes: int | None = None
    quadrature: int | None = None
    newton_tol: float = 1e-10
    newton_max_iter: int = 50

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValueError(f"n_modes must be >= 1, got {self.n_modes}")
        if not 0.0 < self.tau < 1.0:
            raise ValueError(f"tau must lie in (0, 1), got {self.tau}")
        if self.noise_modes is not None and self.noise_modes < 1:
            raise ValueError("noise_modes must be >= 1")
        if not 0 < self.newton_tol < math.inf or self.newton_max_iter < 1:
            raise ValueError(
                "newton_tol must be finite and positive, newton_max_iter >= 1")

    def resolved_noise_modes(self) -> int:
        return self.noise_modes if self.noise_modes is not None else self.n_modes

    def resolved_quadrature(self, model: CoefficientModel) -> int:
        floor = default_quadrature(self.n_modes, self.resolved_noise_modes(),
                                   model.constants)
        if self.quadrature is None:
            return floor
        if self.quadrature < floor:
            raise ValueError(
                f"quadrature Q={self.quadrature} below dealiasing floor {floor}"
            )
        return self.quadrature

    def validate(self, model: CoefficientModel) -> None:
        result = validate_step_constraint(model.constants, self.tau)
        if not result.ok:
            raise ValueError("; ".join(result.messages))


@dataclass
class PathState:
    """Coupled pair (X_j, W_j) with the path's noise stream.

    The convolution w starts at zero (its defining sum is empty at j = 0).
    """

    x: np.ndarray
    w: np.ndarray
    step: int
    stream: NoiseStream

    def __post_init__(self):
        self.x = _coeff_array(self.x)
        self.w = _coeff_array(self.w)
        if self.x.shape != self.w.shape:
            raise ValueError("x and w must share n_modes")
        if self.step < 0:
            raise ValueError("step must be nonnegative")

    @classmethod
    def initial(cls, x0, stream: NoiseStream) -> "PathState":
        arr = _coeff_array(x0)
        return cls(x=arr, w=np.zeros_like(arr), step=0, stream=stream)


@dataclass(frozen=True)
class StepDiagnostics:
    newton_iters: int
    final_residual: float
    c0: float


@dataclass
class PathResult:
    """Per-path outcome: final state plus solver diagnostics summary."""

    state: PathState
    n_steps_done: int
    max_newton_iters: int = 0
    max_residual: float = 0.0
    error: Exception | None = None


class _Workspace(GalerkinOperators):
    """Precomputed quantities for stepping (P, N) rows of independent paths.

    The rows never interact, so one path stepped alone equals its row in a
    batch up to floating-point reduction order.
    """

    def __init__(self, params: SchemeParams, model: CoefficientModel):
        params.validate(model)
        self.n_w = params.resolved_noise_modes()
        super().__init__(model, params.n_modes, self.n_w,
                         params.resolved_quadrature(model))
        self.tau = params.tau
        lam = eigenvalues(self.n)
        self.one_plus = 1.0 + self.tau * lam
        self.res_factors = 1.0 / self.one_plus
        self.c0 = 1.0 - (model.constants.K1 - lam[0]) * self.tau
        self.tol = params.newton_tol
        self.max_iter = params.newton_max_iter

    def residual(self, x: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        return self.one_plus * x - self.tau * self.drift(x) - rhs

    def newton_matrix(self, x: np.ndarray) -> np.ndarray:
        a = self.jacobian(x)
        a *= -self.tau
        a.reshape(len(x), -1)[:, ::self.n + 1] += self.one_plus
        return a

    def newton(self, rhs: np.ndarray, guess: np.ndarray, step: int | None = None,
               first_path: int | None = None) -> tuple[np.ndarray, int, float]:
        """Solve every row of F_hat(x) = rhs by damped Newton iteration.

        Returns (x, iterations, largest final residual norm). A failure
        names the first failing row as path first_path + row.
        """
        def failure(rows, residuals, iterations):
            row = int(np.flatnonzero(rows)[0])
            path = None if first_path is None else first_path + row
            return NonConvergenceError(float(residuals[row]), iterations,
                                       step=step, path=path)

        x = guess.copy()
        res = self.residual(x, rhs)
        rnorm = _row_norms(res)
        iters = 0
        while True:
            # A NaN residual compares false, so it stays active.
            active = ~(rnorm <= self.tol)
            n_active = np.count_nonzero(active)
            if not n_active:
                break
            if iters >= self.max_iter:
                raise failure(active, rnorm, iters)
            every = n_active == len(active)
            if every:
                x_act, res_act, rhs_act, rn_act = x, res, rhs, rnorm
            else:
                x_act, res_act = x[active], res[active]
                rhs_act, rn_act = rhs[active], rnorm[active]
            try:
                delta = np.linalg.solve(self.newton_matrix(x_act),
                                        -res_act[:, :, None])[:, :, 0]
            except np.linalg.LinAlgError as exc:
                raise SingularLinearSolveError(
                    "singular Newton system; check (K1 - lambda_1) tau < 1"
                ) from exc
            # Damped update: halve each row's step until its residual decreases.
            scale = np.ones(n_active)
            x_try = x_act + delta
            for _ in range(40):
                res_try = self.residual(x_try, rhs_act)
                rn_try = _row_norms(res_try)
                stuck = ~(rn_try < rn_act)
                if not np.count_nonzero(stuck):
                    break
                scale[stuck] *= 0.5
                x_try = x_act + scale[:, None] * delta
            else:
                failed = np.zeros_like(active)
                failed[active] = stuck
                raise failure(failed, rnorm, iters + 1)
            if every:
                x, res, rnorm = x_try, res_try, rn_try
            else:
                x[active] = x_try
                res[active] = res_try
                rnorm[active] = rn_try
            iters += 1
        return x, iters, float(rnorm.max())

    def advance(self, x: np.ndarray, w: np.ndarray, dbeta: np.ndarray, step: int,
                first_path: int) -> tuple[np.ndarray, np.ndarray, int, float]:
        """One DIEG step of every row; chain and convolution share the noise."""
        noise = self.noise(x, dbeta)
        x_new, iters, res = self.newton(x + noise, x, step, first_path)
        return x_new, self.res_factors * (w + noise), iters, res


def _row_norms(a: np.ndarray) -> np.ndarray:
    # np.linalg.norm(a, axis=1) without its per-call overhead; same rounding.
    return np.sqrt(np.add.reduce(a * a, axis=1))


def implicit_solve(rhs, params: SchemeParams, model: CoefficientModel,
                   guess=None) -> tuple[SpectralCoeffs, StepDiagnostics]:
    """Solve F_hat(x) = rhs, F_hat(x) = (I + tau*Lambda) x - tau P_N F(x).

    The solution is unique whenever (K1 - lambda_1) tau < 1 (strict
    monotonicity of F_hat).
    """
    ws = _Workspace(params, model)
    rhs_arr = _coeff_array(rhs)
    guess_arr = rhs_arr if guess is None else _coeff_array(guess)
    x, iters, res = ws.newton(rhs_arr[None], guess_arr[None])
    return SpectralCoeffs(x[0]), StepDiagnostics(newton_iters=iters,
                                                 final_residual=res, c0=ws.c0)


def dieg_step(state: PathState, params: SchemeParams,
              model: CoefficientModel) -> tuple[PathState, StepDiagnostics]:
    """Advance one DIEG step; chain and convolution consume the same increments."""
    ws = _Workspace(params, model)
    dbeta = gaussian_increments(state.stream, ws.n_w, ws.tau)
    x, w, iters, res = ws.advance(state.x[None], state.w[None], dbeta[None],
                                  state.step, state.stream.path_index)
    new_state = PathState(x=x[0], w=w[0], step=state.step + 1,
                          stream=state.stream)
    return new_state, StepDiagnostics(newton_iters=iters, final_residual=res,
                                      c0=ws.c0)


def convolution_update(w, noise, params: SchemeParams) -> SpectralCoeffs:
    """One recursion of the discrete stochastic convolution: S_{N,tau} (w + noise)."""
    w_arr = _coeff_array(w)
    noise_arr = _coeff_array(noise)
    if w_arr.shape != noise_arr.shape:
        raise ValueError("w and noise must share n_modes")
    return resolvent_apply(w_arr + noise_arr, params.tau)


def random_pde_residual(traj_x: Sequence, traj_w: Sequence,
                        params: SchemeParams, model: CoefficientModel) -> np.ndarray:
    """Residuals of the transformed recursion with Y = X - W.

    For each step j returns || (I + tau*Lambda) Y_{j+1} - Y_j
    - tau P_N F(X_{j+1}) ||; the transform is algebraically exact, so the
    values are bounded by a small multiple of the Newton tolerance.
    """
    if len(traj_x) != len(traj_w):
        raise ValueError("trajectories must have equal length")
    if len(traj_x) < 2:
        return np.zeros(0)
    ws = _Workspace(params, model)
    x = np.array([_coeff_array(c) for c in traj_x])
    y = x - np.array([_coeff_array(c) for c in traj_w])
    return np.linalg.norm(
        ws.one_plus * y[1:] - y[:-1] - ws.tau * ws.drift(x[1:]), axis=1)


Observer = Callable[[int, np.ndarray, np.ndarray], None]


def run_paths_vectorized(x0, n_steps: int, params: SchemeParams,
                         model: CoefficientModel, master_seed: int,
                         n_paths: int,
                         observers: Sequence[Observer] = (),
                         first_path_index: int = 0,
                         first_step: int = 0) -> tuple[int, float]:
    """Advance n_paths independent paths in lockstep.

    Observers are called as observer(step, X, W) with (n_paths, N) arrays
    whose row p corresponds to path index first_path_index + p; step counts
    from 0 at x0. Step j draws the noise block (first_step + j) of each
    path, so the result is a pure function of (master_seed, config)
    regardless of batching. A Newton failure raises NonConvergenceError
    naming the (path, step) of the first failing row.

    Returns (max Newton iterations over steps, max final residual).
    """
    if n_steps < 0 or n_paths < 1:
        raise ValueError("n_steps must be >= 0 and n_paths >= 1")
    ws = _Workspace(params, model)
    x0_arr = _coeff_array(x0)
    if x0_arr.ndim == 1:
        x = np.tile(x0_arr, (n_paths, 1))
    else:
        x = x0_arr.copy()
        if x.shape != (n_paths, ws.n):
            raise ValueError(f"x0 must have shape ({n_paths}, {ws.n})")
    if x.shape[1] != ws.n:
        raise ValueError(f"x0 has {x.shape[1]} modes, scheme expects {ws.n}")
    w = np.zeros_like(x)
    source = PhiloxBlockSource(master_seed)
    sqrt_tau = math.sqrt(ws.tau)
    for obs in observers:
        obs(0, x, w)
    max_iters = 0
    max_res = 0.0
    for j in range(n_steps):
        dbeta = sqrt_tau * source.normals(first_path_index, n_paths,
                                          first_step + j, ws.n_w)
        x, w, iters, res = ws.advance(x, w, dbeta, j, first_path_index)
        max_iters = max(max_iters, iters)
        max_res = max(max_res, res)
        for obs in observers:
            obs(j + 1, x, w)
    return max_iters, max_res


def run_path(x0, n_steps: int, params: SchemeParams, model: CoefficientModel,
             stream: NoiseStream, observers: Sequence[Observer] = ()) -> PathResult:
    """Iterate the scheme n_steps times from x0 with the given stream.

    A one-path run of run_paths_vectorized that starts at the stream's
    step counter and advances it. Observers are called as observer(step, x,
    w) with 1-D arrays for every step including the initial one; they
    accumulate functionals and norms in-stream so full trajectories need
    not be materialized. On failure the state of the last completed step
    is returned with the error attached; the solver maxima then stay 0.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    start = stream.step_counter
    last = [0, None, None]

    def track(step, x, w):
        last[:] = step, x[0], w[0]
        for obs in observers:
            obs(step, x[0], w[0])

    error = None
    max_iters, max_res = 0, 0.0
    try:
        max_iters, max_res = run_paths_vectorized(
            x0, n_steps, params, model, stream.master_seed, 1,
            observers=(track,), first_path_index=stream.path_index,
            first_step=start)
    except (NonConvergenceError, SingularLinearSolveError) as exc:
        error = exc
    steps_done, x, w = last
    # A failed step has already drawn its noise block.
    stream.step_counter = start + steps_done + (error is not None)
    return PathResult(state=PathState(x=x, w=w, step=steps_done, stream=stream),
                      n_steps_done=steps_done, max_newton_iters=max_iters,
                      max_residual=max_res, error=error)
