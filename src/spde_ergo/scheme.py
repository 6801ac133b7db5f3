"""Drift-implicit Euler spectral-Galerkin time stepping.

One step advances the chain X by solving the strictly monotone implicit
equation

    (I + tau*Lambda) X' - tau * P_N F(X') = X + P_N G(X) dW

by resolvent fixed-point sweeps, then damped Newton iteration for the rows
the sweeps leave unconverged, and advances the coupled stochastic
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
from .noise import NoiseStream, PhiloxBlockSource
from .spectral import eigenvalues, resolvent_factors

__all__ = [
    "SchemeParams",
    "NonConvergenceError",
    "SingularLinearSolveError",
    "implicit_solve",
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
        super().__init__(f"Newton failed{_at(step, path)}: residual {residual:.3e}"
                         f" after {iterations} iterations")

    def __reduce__(self):
        return type(self), (self.residual, self.iterations, self.step, self.path)


class SingularLinearSolveError(RuntimeError):
    """Newton linear system singular; usually a violated step constraint."""

    def __init__(self, step: int | None = None, path: int | None = None):
        self.step = step
        self.path = path
        super().__init__(f"singular Newton system{_at(step, path)};"
                         " check (K1 - lambda_1) tau < 1")

    def __reduce__(self):
        return type(self), (self.step, self.path)


def _at(step: int | None, path: int | None) -> str:
    """' at path p, step s' for the parts that are known."""
    where = [f"path {path}"] if path is not None else []
    if step is not None:
        where.append(f"step {step}")
    return f" at {', '.join(where)}" if where else ""


@dataclass(frozen=True)
class SchemeParams:
    """Everything fixing one DIEG discretization.

    N is the one resolution: the noise has N modes and the quadrature is
    the model's dealiasing floor, default_quadrature(N, constants).
    """

    n_modes: int
    tau: float
    newton_tol: float = 1e-10

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValueError(f"n_modes must be >= 1, got {self.n_modes}")
        if not 0.0 < self.tau < 1.0:
            raise ValueError(f"tau must lie in (0, 1), got {self.tau}")
        if not 0 < self.newton_tol < math.inf:
            raise ValueError(
                f"newton_tol must be finite and positive, got {self.newton_tol}")

    def validate(self, model: CoefficientModel) -> None:
        result = validate_step_constraint(model.constants, self.tau)
        if not result.ok:
            raise ValueError("; ".join(result.messages))


class _Workspace(GalerkinOperators):
    """Precomputed quantities for stepping (P, N) rows of independent paths.

    The rows never interact, so one path stepped alone equals its row in a
    batch up to floating-point reduction order.
    """

    def __init__(self, params: SchemeParams, model: CoefficientModel):
        params.validate(model)
        super().__init__(model, params.n_modes,
                         default_quadrature(params.n_modes, model.constants))
        self.tau = params.tau
        self.one_plus = 1.0 + self.tau * eigenvalues(self.n)
        self.res_factors = resolvent_factors(self.n, self.tau)
        self.tol = params.newton_tol
        # The spare last row of the product table holds vec(diag(1 + tau
        # Lambda)), so newton_matrix is one product with [-tau f'(u), 1].
        self._products[-1, ::self.n + 1] = self.one_plus
        # The sweeps take tau P_N F(x) as model.drift(x @ basis.T) @ _tau_proj,
        # two passes fewer than tau * drift(x); residual keeps drift's own
        # rounding, which Newton's round-off floor is judged against.
        self._tau_proj = self.basis * (self.tau * self.weight)

    def residual(self, x: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        return self.one_plus * x - self.tau * self.drift(x) - rhs

    def newton_matrix(self, x: np.ndarray) -> np.ndarray:
        """(P, N, N) stack of diag(1 + tau Lambda) - tau J(x) at each row."""
        q = len(self._products) - 1
        coef = np.empty((len(x), q + 1))
        np.multiply(self.model.drift_deriv(x @ self.basis.T), -self.tau,
                    out=coef[:, :q])
        coef[:, q] = 1.0
        return (coef @ self._products).reshape(len(x), self.n, self.n)

    def _sweep(self, rhs: np.ndarray,
               guess: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each row's best of up to _SWEEPS resolvent fixed-point sweeps.

        A sweep maps x to (I + tau Lambda)^-1 s, s = rhs + tau P_N F(x), the
        linearly implicit Euler predictor of x; the same s gives x's
        residual (I + tau Lambda) x - s. A row sweeps on while its residual
        is above tol and each sweep cuts it to at most _SWEEP_RATIO of the
        last. A stopped row is frozen: from a large state the map diverges.
        Returns each row's best iterate, its residual and the residual's
        norm.
        """
        drift, lift, proj = self.model.drift, self.basis.T, self._tau_proj
        tol_sq, ratio_sq = self.tol * self.tol, _SWEEP_RATIO * _SWEEP_RATIO
        x = guess
        s = rhs + drift(x @ lift) @ proj
        res = self.one_plus * x - s
        sq = np.add.reduce(res * res, axis=1)
        best, best_res, best_sq = x.copy(), res, sq
        # A NaN residual compares false, so its row never sweeps.
        sweeping = sq > tol_sq
        live = sweeping[:, None]  # a view, so it follows sweeping
        for _ in range(_SWEEPS):
            n_sweeping = np.count_nonzero(sweeping)
            if not n_sweeping:
                break
            x = self.res_factors * s
            if n_sweeping < len(x):
                # A frozen row stays at its best iterate, whose drift is known.
                x = np.where(live, x, best)
            s = rhs + drift(x @ lift) @ proj
            res = self.one_plus * x - s
            prev, sq = sq, np.add.reduce(res * res, axis=1)
            better = sq < best_sq
            if np.count_nonzero(better) == len(x):
                best, best_res, best_sq = x, res, sq
            else:
                best_sq = np.where(better, sq, best_sq)
                np.copyto(best, x, where=better[:, None])
                np.copyto(best_res, res, where=better[:, None])
            sweeping &= (sq <= ratio_sq * prev) & (sq > tol_sq)
        return best, best_res, np.sqrt(best_sq)

    def newton(self, rhs: np.ndarray, guess: np.ndarray, step: int | None = None,
               first_path: int | None = None) -> tuple[np.ndarray, int, float]:
        """Solve every row of F_hat(x) = rhs: sweeps, then damped Newton.

        Returns (x, iterations, largest final residual norm). A failure
        names the first failing row as path first_path + row.
        """
        def first(rows):
            row = int(np.flatnonzero(rows)[0])
            return row, None if first_path is None else first_path + row

        def failure(rows, residuals, iterations):
            row, path = first(rows)
            return NonConvergenceError(float(residuals[row]), iterations,
                                       step=step, path=path)

        x, res, rnorm = self._sweep(rhs, guess)
        at_floor = np.zeros(len(x), dtype=bool)
        iters = 0
        while True:
            # A NaN residual compares false, so it stays active.
            active = ~(rnorm <= self.tol) & ~at_floor
            n_active = np.count_nonzero(active)
            if not n_active:
                break
            if iters >= _MAX_ITER:
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
                # slogdet flags the same exact zero pivot of the LU as solve.
                sign, _ = np.linalg.slogdet(self.newton_matrix(x_act))
                singular = np.zeros_like(active)
                singular[active] = sign == 0
                _, path = first(singular if singular.any() else active)
                raise SingularLinearSolveError(step, path) from exc
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
                # Out of halvings. A row whose residual is already at the
                # round-off floor of its own terms has converged (Kelley 2003,
                # stagnation); any other stuck row has failed. An overflowed
                # row's floor is inf too, so only a finite residual counts.
                floor = _FLOOR_EPS * np.finfo(float).eps * (
                    _row_norms(self.one_plus * x_act) + _row_norms(rhs_act)
                    + self.tau * _row_norms(self.drift(x_act)))
                failed = np.zeros_like(active)
                failed[active] = stuck & ~((rn_act <= floor) & np.isfinite(rn_act))
                if failed.any():
                    raise failure(failed, rnorm, iters + 1)
                at_floor[active] = stuck
                x_try[stuck], res_try[stuck] = x_act[stuck], res_act[stuck]
                rn_try[stuck] = rn_act[stuck]
            if every:
                x, res, rnorm = x_try, res_try, rn_try
            else:
                x[active] = x_try
                res[active] = res_try
                rnorm[active] = rn_try
            iters += 1
        return x, iters, float(rnorm.max())


# Newton iterations before a row that is still above tol has failed. F_hat
# is strictly monotone, so the cap only guards; the worst step of a
# 1500-run boundary fuzz (eps down to 0.185, amplitude up to 20) took 13.
_MAX_ITER = 50

# A residual within this many machine epsilons times the scale of its terms
# is round-off; the stalled residual measured 1.2 to 1.7 of them, N = 1..40.
_FLOOR_EPS = 8.0

# Resolvent sweeps before Newton, and the factor by which a sweep must cut a
# row's residual for the row to go on. At eps = 0.5, tau = 0.05 a sweep cuts
# it about tenfold: 4 sweeps take the rows Newton solves per path-step from
# 2.87 to 1.57 (N = 10, 200 paths) and the engine time down 23 % (N = 10,
# 500 paths) and 47 % (N = 40, 100 paths), while a one-path run, where each
# numpy call costs more than its arithmetic, stays as fast. A fifth sweep
# gains 5-10 % more on batches and costs a one-path run about as much.
# Ratios from 0.3 to 0.9 perform alike at eps >= 0.2.
_SWEEPS = 4
_SWEEP_RATIO = 0.8


def _row_norms(a: np.ndarray) -> np.ndarray:
    # np.linalg.norm(a, axis=1) without its per-call overhead; same rounding.
    return np.sqrt(np.add.reduce(a * a, axis=1))


def implicit_solve(rhs, params: SchemeParams, model: CoefficientModel,
                   guess=None) -> tuple[np.ndarray, int, float]:
    """Solve F_hat(x) = rhs, F_hat(x) = (I + tau*Lambda) x - tau P_N F(x).

    The solution is unique whenever (K1 - lambda_1) tau < 1 (strict
    monotonicity of F_hat). Returns (x, Newton iterations, final residual).
    """
    rhs_arr = np.asarray(rhs, dtype=float)
    guess_arr = rhs_arr if guess is None else np.asarray(guess, dtype=float)
    x, iters, res = _Workspace(params, model).newton(rhs_arr[None], guess_arr[None])
    return x[0], iters, res


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
    x = np.asarray(traj_x, dtype=float)
    y = x - np.asarray(traj_w, dtype=float)
    return _row_norms(ws.one_plus * y[1:] - y[:-1] - ws.tau * ws.drift(x[1:]))


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
    x0_arr = np.asarray(x0, dtype=float)
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
                                          first_step + j, ws.n)
        # One DIEG step of every row; chain and convolution share the noise.
        noise = ws.noise(x, dbeta)
        x, iters, res = ws.newton(x + noise, x, j, first_path_index)
        w = ws.res_factors * (w + noise)
        max_iters = max(max_iters, iters)
        max_res = max(max_res, res)
        for obs in observers:
            obs(j + 1, x, w)
    return max_iters, max_res


def run_path(x0, n_steps: int, params: SchemeParams, model: CoefficientModel,
             stream: NoiseStream, observers: Sequence[Observer] = ()) -> tuple[int, float]:
    """Iterate the scheme n_steps times from x0 on one path's noise.

    A one-row run_paths_vectorized call for path stream.path_index, starting
    at noise block stream.step_counter. Observers are called as
    observer(step, x, w) with 1-D arrays for every step including the
    initial one, and failures raise as in the engine.

    Returns (max Newton iterations over steps, max final residual).
    """
    def row(step, x, w):
        for obs in observers:
            obs(step, x[0], w[0])

    return run_paths_vectorized(x0, n_steps, params, model, stream.master_seed, 1,
                                observers=(row,), first_path_index=stream.path_index,
                                first_step=stream.step_counter)
