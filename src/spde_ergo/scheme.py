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

import contextlib
import ctypes
import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .model import (
    CoefficientModel,
    GalerkinOperators,
    default_quadrature,
    drift_quadrature,
    validate_step_constraint,
)
from .noise import NoiseStream, PhiloxBlockSource
from .spectral import eigenvalues, resolvent_factors

__all__ = [
    "SchemeParams",
    "NonConvergenceError",
    "SingularLinearSolveError",
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

    N is the one resolution: the noise has N modes, the drift is projected
    on drift_quadrature nodes and the noise on default_quadrature.
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
        n = params.n_modes
        super().__init__(model, n, drift_quadrature(n, model.constants))
        # No grid projects the non-polynomial g exactly; it keeps the finer one.
        self.noise = GalerkinOperators(model, n, default_quadrature(n, model.constants)).noise
        self.tau = params.tau
        self.one_plus = 1.0 + self.tau * eigenvalues(self.n)
        self.res_factors = resolvent_factors(self.n, self.tau)
        self.tol = params.newton_tol
        # ((Q+1) x N^2) table: row q < Q is e_n(xi_q) e_m(xi_q) / (Q+1) and
        # the last row is vec(diag(1 + tau Lambda)), so jacobian is one
        # product with f'(u) and newton_matrix one with [-tau f'(u), 1].
        b, q = self.basis, len(self.basis)
        self._products = np.zeros((q + 1, self.n * self.n))
        np.multiply((b[:, :, None] * b[:, None, :]).reshape(q, -1),
                    self.weight, out=self._products[:-1])
        self._products[-1, ::self.n + 1] = self.one_plus
        self.k = k = min(n, _LOW_MODES)  # a split Newton step's low block
        self._low_products = self._products.reshape(q + 1, n, n)[:, :k, :k].reshape(q + 1, -1)
        # The sweeps take tau P_N F(x) as model.drift(x @ basis.T) @ _tau_proj,
        # two passes fewer than tau * drift(x); residual keeps drift's own
        # rounding, which Newton's round-off floor is judged against.
        self._tau_proj = self.basis * (self.tau * self.weight)
        self._tau_mean = np.full(q, self.tau * self.weight)  # divisor's grid mean

    def residual(self, x: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        return self.one_plus * x - self.tau * self.drift(x) - rhs

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        """(P, N, N) stack of the symmetric Jacobians of P_N F at each row."""
        fp = self.model.drift_deriv(x @ self.basis.T)
        return (fp @ self._products[:-1]).reshape(len(x), self.n, self.n)

    def newton_matrix(self, x: np.ndarray, k: int | None = None,
                      fp: np.ndarray | None = None) -> np.ndarray:
        """(P, k, k) stack of the leading k x k block of
        diag(1 + tau Lambda) - tau J(x) at each row; k is N or self.k, and
        fp is f'(u) on the grid at the rows of x if the caller has it."""
        k = k or self.n
        q = len(self._products) - 1
        coef = np.empty((len(x), q + 1))
        if fp is None:
            fp = self.model.drift_deriv(x @ self.basis.T)
        np.multiply(fp, -self.tau, out=coef[:, :q])
        coef[:, q] = 1.0
        table = self._products if k == self.n else self._low_products
        return (coef @ table).reshape(len(x), k, k)

    def newton_apply(self, fp: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Rows of (1 + tau Lambda) v - tau P_N[f'(u) v], fp = f'(u) on the
        grid: newton_matrix(x) @ v without the matrix, for two lifts."""
        return self.one_plus * v - (fp * (v @ self.basis.T)) @ self._tau_proj

    def divisor(self, u: np.ndarray) -> np.ndarray:
        """Rows of d = 1 + tau Lambda - tau <f'(u)> for the rows of the lift
        u, <f'(u)> the grid mean of f': the Newton matrix's diagonal were f'
        constant. f' <= K1 keeps d >= C0 = 1 - (K1 - lambda_1) tau > 0."""
        mean = self.model.drift_deriv(u) @ self._tau_mean
        return self.one_plus - mean[:, None]

    def _sweep(self, rhs: np.ndarray,
               guess: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Up to _SWEEPS mean-field resolvent sweeps of every row.

        A sweep maps x to x - res / d, res = (I + tau Lambda) x - s the
        residual of x, s = rhs + tau P_N F(x) and d the divisor at x, one
        lift u of x giving all three. Each row carries one state (x, u, res,
        and the squared norm of res), which a sweep's candidate replaces only
        if it lowers that norm: from a large state the map diverges. A row
        sweeps on while its candidate was kept and left it above tol. Returns
        each row's x, its residual and the residual's norm; x is guess
        itself if no row swept.
        """
        drift, lift, proj = self.model.drift, self.basis.T, self._tau_proj
        tol_sq = self.tol * self.tol
        x = guess
        u = x @ lift
        res = self.one_plus * x - (rhs + drift(u) @ proj)
        # np.linalg.norm's own sum, so the norm returned is its residual's.
        sq = np.add.reduce(res * res, axis=1)
        # A NaN norm compares false, so its row never sweeps and a NaN
        # candidate is never kept.
        sweeping = sq > tol_sq
        for _ in range(_SWEEPS):
            if not np.count_nonzero(sweeping):
                break
            x_new = x - res / self.divisor(u)
            u_new = x_new @ lift
            res_new = self.one_plus * x_new - (rhs + drift(u_new) @ proj)
            sq_new = np.add.reduce(res_new * res_new, axis=1)
            keep = sweeping & (sq_new < sq)
            sweeping = keep & (sq_new > tol_sq)
            if np.count_nonzero(keep) < len(x):
                stay = ~keep[:, None]
                for new, cur in ((x_new, x), (u_new, u), (res_new, res)):
                    np.copyto(new, cur, where=stay)
                sq_new = np.where(keep, sq_new, sq)
            x, u, res, sq = x_new, u_new, res_new, sq_new
        return x, res, np.sqrt(sq)

    def newton(self, rhs: np.ndarray, guess: np.ndarray, step: int | None = None,
               paths: np.ndarray | None = None) -> tuple[np.ndarray, int, float]:
        """Solve every row of F_hat(x) = rhs: sweeps, then damped Newton.

        Each Newton step is one descent on one f'(u): the plain N x N solve,
        or a split step, one block Gauss-Seidel pass on the Newton system
        (two-grid Newton: Xu, SIAM J. Numer. Anal. 33, 1996) that divides the
        high modes of the residual by diag(1 + tau Lambda), solves the low
        k x k block against the residual of that guess, and corrects the high
        modes once against newton_apply. Rows take split steps when k < N;
        a row whose split step leaves over _SPLIT_RATIO of its residual, or
        whose line search runs dry, takes full steps from then on.
        Returns (x, iterations, largest final residual norm); guess is never
        written. A failure names the first failing row as path paths[row].
        """
        def path(row):
            return None if paths is None else int(paths[row])

        def failure(row, iterations):
            return NonConvergenceError(float(rnorm[row]), iterations,
                                       step=step, path=path(row))

        def solve(rows, mats, b):
            # -b solved against the k x k blocks mats, k = len(b[0]).
            try:
                return np.linalg.solve(mats, -b[:, :, None])[:, :, 0]
            except np.linalg.LinAlgError as exc:
                # slogdet flags the same exact zero pivot of the LU as solve.
                row = rows[np.argmax(np.linalg.slogdet(mats)[0] == 0)]
                raise SingularLinearSolveError(step, path(row)) from exc

        def descent(rows, x, res, k):
            # The Newton step of the batch rows `rows` at x, residual res: the
            # plain solve at k = N, else the block Gauss-Seidel pass.
            fp = self.model.drift_deriv(x @ self.basis.T)
            mats = self.newton_matrix(x, k, fp)
            if k == self.n:
                return solve(rows, mats, res)
            d = np.zeros_like(x)
            d[:, k:] = res[:, k:] / -self.one_plus[k:]
            lin = res + self.newton_apply(fp, d)
            d[:, :k] = solve(rows, mats, lin[:, :k])
            lin = res + self.newton_apply(fp, d)
            d[:, k:] -= lin[:, k:] / self.one_plus[k:]
            return d

        x, res, rnorm = self._sweep(rhs, guess)
        if x is guess:  # the rows below are updated in place
            x = guess.copy()
        at_floor = np.zeros(len(x), dtype=bool)
        full = np.full(len(x), self.k == self.n)  # rows on full N x N steps
        iters = 0
        while True:
            # A NaN residual compares false, so it stays active.
            act = np.flatnonzero(~(rnorm <= self.tol) & ~at_floor)
            if not len(act):
                break
            if iters >= _MAX_ITER:
                raise failure(act[0], iters)
            x_act, res_act, rhs_act, rn_act = x[act], res[act], rhs[act], rnorm[act]
            on_full = full[act]
            n_full = np.count_nonzero(on_full)
            if n_full in (0, len(act)):
                delta = descent(act, x_act, res_act, self.n if n_full else self.k)
            else:
                delta = np.empty_like(x_act)
                for rows, k in ((~on_full, self.k), (on_full, self.n)):
                    delta[rows] = descent(act[rows], x_act[rows], res_act[rows], k)
            # Damped update: halve each row's step until its residual decreases.
            scale = np.ones(len(act))
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
                ok = (rn_act <= floor) & np.isfinite(rn_act)
                # A split row that runs dry takes the full step next.
                failed = act[stuck & ~ok & on_full]
                if len(failed):
                    raise failure(failed[0], iters + 1)
                at_floor[act] = stuck & ok
                x_try[stuck], res_try[stuck] = x_act[stuck], res_act[stuck]
                rn_try[stuck] = rn_act[stuck]
            full[act] |= ~(rn_try <= _SPLIT_RATIO * rn_act)
            x[act], res[act], rnorm[act] = x_try, res_try, rn_try
            iters += 1
        return x, iters, float(rnorm.max())


# Newton iterations before a row that is still above tol has failed. F_hat
# is strictly monotone, so the cap only guards. In four 1500-run boundary
# fuzzes (tau in [0.002, 0.05], C0 >= 0.02, amplitude <= 20, N <= 40) the
# worst step took 16-17, and the one-step probe's worst row 13 (full
# Newton: 12), 33 below the cap.
_MAX_ITER = 50

# A residual within this many machine epsilons times the scale of its terms
# is round-off; the stalled residual measured 1.2 to 1.7 of them, N = 1..40.
_FLOOR_EPS = 8.0

# Mean-field sweeps before Newton. On engine states a sweep cuts the
# median residual about 25-fold at eps = 0.5 (the plain resolvent sweep
# x -> x - res / (1 + tau Lambda): 10-fold) and 1.6-fold at eps = 0.185.
# On mix_plus, 200 paths, 30 steps, eps = 0.5, 5 such sweeps take the rows
# Newton solves per path-step to 1.05 at N = 10 (4 plain sweeps: 1.57) and
# the worst step's Newton iterations to 3 (5); at N = 20 and 40 the split
# step then solves 1.14-1.15 rows, worst step 3. A sixth sweep ends rows
# inside the sweeps at about tol, above Newton's final residuals.
_SWEEPS = 5

# Modes whose block of the Newton matrix a split step solves exactly; past
# them tau lambda_n >= 60 (tau = 0.05) dominates. With the high-mode
# correction, blocks of 6 to 16 modes step 100 rows at N = 40 in 26-28 ms,
# full Newton in 49 ms (16 steps, 2-core Xeon, one BLAS thread, min of 5);
# 10 keeps N <= 10, the paper preset, on full Newton.
_LOW_MODES = 10

# A split step must cut a row's residual to this share or the row takes full
# steps. At eps = 0.05, tau = 0.0025 (tau lambda_11 = 3), 100 mix_plus paths,
# N = 20 and 40, the worst step took 28-30 Newton iterations at 0.5 and 9 at
# 0.1 (0.15: 11). 0.1 also sends more rows to full steps: at eps = 0.1,
# tau = 0.01, N = 40, 0.51 per path-step (0.5: 0.12), and 10-16 % slower.
# Without the fallback 14 of the one-step probe's 30 cases stall.
_SPLIT_RATIO = 0.1


def _row_norms(a: np.ndarray) -> np.ndarray:
    # np.linalg.norm(a, axis=1) to round-off; at 1500 rows the einsum takes
    # a third of the time of np.add.reduce(a * a, axis=1).
    return np.sqrt(np.einsum("ij,ij->i", a, a))


@functools.cache
def _openblas_threads():
    """OpenBLAS's (get, set) thread-count calls as numpy's own library links
    them, or None if numpy's BLAS is another library."""
    lib = ctypes.CDLL((getattr(np, "_core", None) or np.core)._multiarray_umath.__file__)
    # The names in numpy's wheels, then in a system OpenBLAS.
    for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads"):
        get, set_threads = (getattr(lib, name.format(op), None) for op in ("get", "set"))
        if get is not None and set_threads is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            return get, set_threads


@contextlib.contextmanager
def _one_blas_thread():
    """Hold OpenBLAS at one thread meanwhile: at a 2-core host's default count
    200 paths at N = 20 stepped 7x slower, and W processes oversubscribe it."""
    get, set_threads = _openblas_threads() or (lambda: 0, lambda threads: None)
    old = get()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(old)


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

    x0 is one state, one per path, (n_paths, N), or one per copy and path,
    (copies, n_paths, N): each copy of a path is a row of its own driven by
    the path's noise, which is drawn once per step for all its copies.
    Observers are called as observer(step, X, W) with arrays of x0's shape
    ((n_paths, N) for one state) whose path p is path first_path_index + p;
    step counts from 0 at x0. Step j draws the noise block (first_step + j)
    of each path, so the result is a pure function of (master_seed, config)
    regardless of batching. A Newton failure raises NonConvergenceError
    naming the (path, step) of the first failing row. OpenBLAS is held at
    one thread while the paths step.

    Returns (max Newton iterations over steps, max final residual).
    """
    if n_steps < 0 or n_paths < 1:
        raise ValueError("n_steps must be >= 0 and n_paths >= 1")
    ws = _Workspace(params, model)
    shape = np.shape(x0) if np.ndim(x0) > 1 else (n_paths, *np.shape(x0))
    if shape[-1] != ws.n:
        raise ValueError(f"x0 has {shape[-1]} modes, scheme expects {ws.n}")
    if len(shape) not in (2, 3) or shape[-2] != n_paths:
        raise ValueError(f"x0 must have shape ([copies,] {n_paths}, {ws.n})")
    # The copies' rows stacked, copy-major; the noise acts on the (copies,
    # n_paths, N) view, broadcasting each path's increments over its copies.
    x = np.array(np.broadcast_to(x0, shape), dtype=float).reshape(-1, ws.n)
    paths = first_path_index + np.arange(len(x)) % n_paths
    w = np.zeros_like(x)
    source = PhiloxBlockSource(master_seed)
    sqrt_tau = math.sqrt(ws.tau)
    max_iters = 0
    max_res = 0.0
    with _one_blas_thread():
        for obs in observers:
            obs(0, x.reshape(shape), w.reshape(shape))
        for j in range(n_steps):
            dbeta = sqrt_tau * source.normals(first_path_index, n_paths,
                                              first_step + j, ws.n)
            # One DIEG step of every row; chain and convolution share the noise.
            noise = ws.noise(x.reshape(-1, n_paths, ws.n), dbeta).reshape(x.shape)
            x, iters, res = ws.newton(x + noise, x, j, paths)
            w = ws.res_factors * (w + noise)
            max_iters = max(max_iters, iters)
            max_res = max(max_res, res)
            for obs in observers:
                obs(j + 1, x.reshape(shape), w.reshape(shape))
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
