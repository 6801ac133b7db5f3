import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spde_ergo import scheme
from spde_ergo.ergodic import initial_datum
from spde_ergo.model import (
    GalerkinOperators,
    allen_cahn_model,
    constant_diffusion,
    drift_quadrature,
    heat_model,
    validate_step_constraint,
)
from spde_ergo.noise import NoiseStream
from spde_ergo.scheme import (
    NonConvergenceError,
    SchemeParams,
    SingularLinearSolveError,
    _Workspace,
    random_pde_residual,
    run_path,
    run_paths_vectorized,
)
from spde_ergo.spectral import eigenvalues, geometric_decay_sum, resolvent_factors

TAU = 0.05
PARAMS = SchemeParams(n_modes=10, tau=TAU)
AC = allen_cahn_model(0.5)
ZERO = heat_model(constant_diffusion(0.0))  # zero drift and diffusion


def resolvent(c):
    """S_{N,tau} c = (I - tau*Laplacian_N)^(-1) c."""
    return c * resolvent_factors(c.size, TAU)


def drift_ops(params, model):
    """The drift on the engine's grid, whose rounding Newton's floor judges."""
    return GalerkinOperators(model, params.n_modes,
                             drift_quadrature(params.n_modes, model.constants))


def hat_f(x, params, model):
    lam = eigenvalues(x.size)
    return ((1 + params.tau * lam) * x
            - params.tau * drift_ops(params, model).drift(x[None])[0])


def solve_one(rhs, params, model, guess=None):
    """The engine's solve of F_hat(x) = rhs on one row, from guess (default
    rhs): returns (x, Newton iterations, final residual norm)."""
    start = rhs if guess is None else guess
    x, iters, res = _Workspace(params, model).newton(rhs[None], start[None])
    return x[0], iters, res


def run_states(x0, n_steps, params, model, stream):
    """Every (x, w) a run_path run passes its observers, in step order."""
    seen = []

    def rec(step, x, w):
        assert step == len(seen)
        seen.append((x.copy(), w.copy()))

    run_path(x0, n_steps, params, model, stream, observers=(rec,))
    return seen


def test_params_validation():
    with pytest.raises(ValueError):
        SchemeParams(n_modes=0, tau=TAU)
    with pytest.raises(ValueError):
        SchemeParams(n_modes=4, tau=1.5)
    for tol in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            SchemeParams(n_modes=4, tau=TAU, newton_tol=tol)
    # stiff drift violates the monotonicity step constraint
    stiff = allen_cahn_model(0.1)
    with pytest.raises(ValueError):
        SchemeParams(n_modes=4, tau=TAU).validate(stiff)


def test_implicit_solve_linear_case_is_resolvent():
    m = ZERO
    rng = np.random.default_rng(0)
    rhs = rng.standard_normal(6)
    p = SchemeParams(n_modes=6, tau=TAU)
    sol, iters, _ = solve_one(rhs, p, m)
    np.testing.assert_allclose(sol, resolvent(rhs), atol=1e-13)
    assert iters <= 2


def test_implicit_solve_residual_below_tolerance():
    rng = np.random.default_rng(1)
    rhs = rng.standard_normal(10)
    sol, _, residual = solve_one(rhs, PARAMS, AC)
    assert residual <= PARAMS.newton_tol
    res = hat_f(sol, PARAMS, AC) - rhs
    assert np.linalg.norm(res) <= PARAMS.newton_tol


def test_implicit_solve_1d_against_bisection():
    # N=1 scalar equation (1 + tau*lam1) x - tau (4x - 6x^3) = r
    p = SchemeParams(n_modes=1, tau=TAU)
    lam1 = math.pi**2

    def scalar_eq(x, r):
        return (1 + TAU * lam1) * x - TAU * (4 * x - 6 * x**3) - r

    rng = np.random.default_rng(2)
    for _ in range(10):
        r = float(rng.uniform(-5, 5))
        lo, hi = -10.0, 10.0
        assert scalar_eq(lo, r) < 0 < scalar_eq(hi, r)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if scalar_eq(mid, r) < 0:
                lo = mid
            else:
                hi = mid
        oracle = 0.5 * (lo + hi)
        sol, _, _ = solve_one(np.array([r]), p, AC)
        assert sol[0] == pytest.approx(oracle, abs=1e-9)


def test_newton_stalled_at_round_off_floor_is_converged():
    # rhs of 1e6: the residual bottoms out at 4.8e-10 > newton_tol, the
    # round-off floor of terms of size 1e8, and the line search runs dry
    rhs = np.full(10, 1e6)
    sol, iters, residual = solve_one(rhs, PARAMS, AC)
    assert iters < scheme._MAX_ITER
    assert PARAMS.newton_tol < residual <= 1e-9
    res = hat_f(sol, PARAMS, AC) - rhs
    assert np.linalg.norm(res) == pytest.approx(residual, rel=1e-12)
    # in a noiseless engine step the stalled row is accepted while the
    # other row converges
    g0 = allen_cahn_model(0.5, diffusion=constant_diffusion(0.0))
    seen = []
    run_paths_vectorized(np.stack([rhs, np.ones(10)]), 1, PARAMS, g0, 0, 2,
                         observers=(lambda step, x, w: seen.append(x.copy()),))
    np.testing.assert_allclose(seen[1][0], sol, rtol=1e-12)
    assert np.linalg.norm(hat_f(seen[1][1], PARAMS, g0) - 1.0) <= PARAMS.newton_tol


def test_newton_stuck_above_floor_still_fails():
    # f' of the wrong sign and size makes every Newton step an ascent
    # direction, so the line search runs dry far above the round-off floor;
    # the drift -200u stops the resolvent sweeps at their first sweep
    m = replace(heat_model(constant_diffusion(0.0)), drift=lambda u: -200.0 * u,
                drift_deriv=lambda u: np.full_like(u, 2000.0))
    x0 = np.zeros((2, 10))
    x0[1] = 0.5
    with pytest.raises(NonConvergenceError) as exc:
        run_paths_vectorized(x0, 3, PARAMS, m, 1, 2, first_path_index=3)
    assert (exc.value.path, exc.value.step) == (4, 0)
    assert exc.value.residual > 1e-3
    assert "path 4, step 0" in str(exc.value)


def test_failing_copy_names_its_path():
    # x0 of shape (copies, paths, N): copy 1 of path 4 fails as path 4 alone
    m = replace(heat_model(constant_diffusion(0.0)), drift=lambda u: -200.0 * u,
                drift_deriv=lambda u: np.full_like(u, 2000.0))
    x0 = np.zeros((2, 2, 10))
    x0[1, 1] = 0.5
    with pytest.raises(NonConvergenceError) as exc:
        run_paths_vectorized(x0, 3, PARAMS, m, 1, 2, first_path_index=3)
    assert (exc.value.path, exc.value.step) == (4, 0)


def test_copies_step_on_their_path_noise():
    # each copy of a (copies, paths, N) run is the run of its own initial
    # datum, on the same noise blocks
    x0 = np.array([initial_datum(name, 10) for name in ("sine", "mix_plus", "mix_minus")])
    seen = []
    run_paths_vectorized(np.broadcast_to(x0[:, None], (3, 4, 10)), 20, PARAMS, AC, 9, 4,
                         observers=(lambda step, x, w: seen.append((x.copy(), w.copy())),),
                         first_path_index=2)
    assert seen[0][0].shape == (3, 4, 10)
    for c in range(3):
        alone = []
        run_paths_vectorized(x0[c], 20, PARAMS, AC, 9, 4,
                             observers=(lambda step, x, w: alone.append((x.copy(), w.copy())),),
                             first_path_index=2)
        for (x, w), (xa, wa) in zip(seen, alone):
            np.testing.assert_allclose(x[c], xa, rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(w[c], wa, rtol=1e-12, atol=1e-14)
    with pytest.raises(ValueError, match="shape"):
        run_paths_vectorized(np.zeros((3, 5, 10)), 1, PARAMS, AC, 9, 4)


@pytest.mark.parametrize("n", [1, 4, 40])
def test_newton_matrix_matches_jacobian_oracle(n):
    # the one-product Newton matrix is diag(1 + tau (k pi)^2) - tau J(x), J
    # the Jacobian of P_N F from f' = 4 (1 - 3 u^2) projected on 8N nodes
    ws = _Workspace(SchemeParams(n_modes=n, tau=TAU), AC)
    x = np.random.default_rng(n).standard_normal((3, n))
    q = 8 * n
    k = np.arange(1, n + 1)
    e = math.sqrt(2.0) * np.sin(math.pi * np.outer(np.arange(1, q + 1) / (q + 1), k))
    fp = 4.0 * (1.0 - 3.0 * (x @ e.T) ** 2)
    jac = np.einsum("pi,in,im->pnm", fp, e, e) / (q + 1)
    want = np.diag(1.0 + TAU * (k * math.pi) ** 2) - TAU * jac
    mats = ws.newton_matrix(x)
    np.testing.assert_array_equal(mats, mats.transpose(0, 2, 1))
    np.testing.assert_allclose(mats, want, rtol=0, atol=1e-13 * np.abs(want).max())


@pytest.mark.parametrize("n", [1, 12, 40])
def test_newton_apply_matches_newton_matrix(n):
    # the matrix-free operator of the split step is newton_matrix(x) @ v, and
    # the low block built from a given f'(u) is the leading block
    ws = _Workspace(SchemeParams(n_modes=n, tau=TAU), AC)
    x, v = np.random.default_rng(n).standard_normal((2, 3, n))
    fp = AC.drift_deriv(x @ ws.basis.T)
    mats = ws.newton_matrix(x)
    np.testing.assert_allclose(ws.newton_apply(fp, v), (mats @ v[:, :, None])[:, :, 0],
                               rtol=1e-12)
    np.testing.assert_allclose(ws.newton_matrix(x, ws.k, fp), mats[:, :ws.k, :ws.k],
                               rtol=1e-12, atol=1e-14)


def test_implicit_solve_unique_from_random_starts():
    rng = np.random.default_rng(3)
    for _ in range(10):
        rhs = rng.standard_normal(10)
        a, _, _ = solve_one(rhs, PARAMS, AC, guess=rng.standard_normal(10) * 3)
        b, _, _ = solve_one(rhs, PARAMS, AC, guess=rng.standard_normal(10) * 3)
        assert np.max(np.abs(a - b)) <= 1e-8


def test_strict_monotonicity_and_expansion_bound():
    # <x-y, F_hat(x)-F_hat(y)> >= C0 ||x-y||^2 and the norm lower bound
    rng = np.random.default_rng(4)
    c0 = 1 - (AC.constants.K1 - math.pi**2) * TAU
    for _ in range(1000):
        x = rng.standard_normal(10)
        y = rng.standard_normal(10)
        d = x - y
        df = hat_f(x, PARAMS, AC) - hat_f(y, PARAMS, AC)
        nd2 = float(d @ d)
        assert float(d @ df) >= c0 * nd2 - 1e-8
        assert np.linalg.norm(df) >= c0 * math.sqrt(nd2) - 1e-8


def test_hat_f_directional_derivative_matches_fd():
    rng = np.random.default_rng(5)
    ws = _Workspace(PARAMS, AC)
    for _ in range(5):
        x = rng.standard_normal(10)
        v = rng.standard_normal(10)
        v /= np.linalg.norm(v)
        jac_dir = ws.newton_matrix(x[None])[0] @ v
        h = 1e-6
        fd = (hat_f(x + h * v, PARAMS, AC) - hat_f(x - h * v, PARAMS, AC)) / (2 * h)
        np.testing.assert_allclose(fd, jac_dir,
                                   atol=1e-6 * (1 + np.max(np.abs(jac_dir))))


def test_dieg_step_deterministic_heat():
    # g = 0, f = 0: pure resolvent contraction, convolution stays zero
    m = ZERO
    p = SchemeParams(n_modes=4, tau=TAU)
    x0 = np.array([1.0, -0.5, 0.2, 0.1])
    states = run_states(x0, 1, p, m, NoiseStream(0))
    assert len(states) == 2
    x1, w1 = states[1]
    np.testing.assert_allclose(x1, resolvent(x0), atol=1e-13)
    np.testing.assert_allclose(w1, 0.0, atol=1e-15)


def test_dieg_step_noiseless_allen_cahn_repeatable():
    g0 = allen_cahn_model(0.5, diffusion=constant_diffusion(0.0))
    x0 = np.full(10, 0.3)
    runs = []
    for _ in range(2):
        # 20 chained one-step runs; step j reads noise block j
        x = x0
        for j in range(20):
            x = run_states(x, 1, PARAMS, g0, NoiseStream(9, step_counter=j))[1][0]
        runs.append(x)
    np.testing.assert_array_equal(runs[0], runs[1])


def test_dieg_step_defining_equation_residual():
    x_old = np.full(10, 0.5)
    x1, w1 = run_states(x_old, 1, PARAMS, AC, NoiseStream(11))[1]
    noise = w1 / (1 / (1 + TAU * eigenvalues(10))) - 0.0  # W1 = S*noise
    residual = hat_f(x1, PARAMS, AC) - x_old - noise
    assert np.linalg.norm(residual) <= 10 * PARAMS.newton_tol


# The convolution update is W' = S_{N,tau} (W + noise).
def test_convolution_update_single_step():
    noise = np.array([1.0, 2.0, -1.0])
    w1 = resolvent(np.zeros(3) + noise)
    np.testing.assert_allclose(w1, noise / (1 + TAU * eigenvalues(3)), rtol=1e-15)


def test_convolution_zero_noise_stays_zero():
    w = np.zeros(3)
    for _ in range(10):
        w = resolvent(w + np.zeros(3))
    np.testing.assert_array_equal(w, 0.0)


def test_convolution_recursion_equals_direct_sum():
    # after j steps the recursive w equals sum_i S^(j-i) noise_i
    rng = np.random.default_rng(6)
    factors = 1 / (1 + TAU * eigenvalues(5))
    noises = [rng.standard_normal(5) for _ in range(30)]
    w = np.zeros(5)
    for noise in noises:
        w = resolvent(w + noise)
    j = len(noises)
    direct = sum(factors ** (j - i) * noises[i] for i in range(j))
    np.testing.assert_allclose(w, direct, atol=1e-10)


def test_convolution_variance_matches_geometric_sum():
    # g = 1, f = 0: Var(W_{j,n}) = tau * geometric_decay_sum(lam_n, tau, j)
    m = heat_model(constant_diffusion(1.0))
    p = SchemeParams(n_modes=5, tau=TAU)
    n_paths, j_target = 10**4, 40
    collected = {}

    def grab(step, x, w):
        if step == j_target:
            collected["w"] = w.copy()

    run_paths_vectorized(np.zeros(5), j_target, p, m, 123, n_paths,
                         observers=(grab,))
    emp_var = collected["w"].var(axis=0)
    lam = eigenvalues(5)
    target = TAU * np.array([geometric_decay_sum(l, TAU, j_target) for l in lam])
    np.testing.assert_allclose(emp_var, target, rtol=0.10)


def test_random_pde_residual_deterministic_case():
    g0 = allen_cahn_model(0.5, diffusion=constant_diffusion(0.0))
    traj_x, traj_w = [], []

    def rec(step, x, w):
        traj_x.append(x.copy())
        traj_w.append(w.copy())

    run_path(np.full(10, 0.4), 50, PARAMS, g0, NoiseStream(1), observers=(rec,))
    res = random_pde_residual(traj_x, traj_w, PARAMS, g0)
    assert np.max(res) <= PARAMS.newton_tol * 1.01


def test_random_pde_residual_linear_case_vanishes():
    # f = 0: both recursions are linear and cancel exactly
    m = heat_model(constant_diffusion(1.0))
    p = SchemeParams(n_modes=6, tau=TAU)
    traj_x, traj_w = [], []

    def rec(step, x, w):
        traj_x.append(x.copy())
        traj_w.append(w.copy())

    run_path(np.ones(6), 50, p, m, NoiseStream(2), observers=(rec,))
    res = random_pde_residual(traj_x, traj_w, p, m)
    assert np.max(res) <= 1e-12


def test_random_pde_residual_full_model():
    traj_x, traj_w = [], []

    def rec(step, x, w):
        traj_x.append(x.copy())
        traj_w.append(w.copy())

    run_path(np.full(10, 0.3), 200, PARAMS, AC, NoiseStream(3), observers=(rec,))
    res = random_pde_residual(traj_x, traj_w, PARAMS, AC)
    assert np.max(res) <= 10 * PARAMS.newton_tol


def test_random_pde_residual_rejects_mismatch():
    with pytest.raises(ValueError):
        random_pde_residual([np.zeros(3)], [], PARAMS, AC)


def test_run_path_zero_steps():
    assert run_path(np.ones(10), 0, PARAMS, AC, NoiseStream(4)) == (0, 0.0)
    (x, w), = run_states(np.ones(10), 0, PARAMS, AC, NoiseStream(4))
    np.testing.assert_array_equal(x, np.ones(10))
    np.testing.assert_array_equal(w, 0.0)


def test_run_path_diagonal_decay_exact():
    # g = 0, f = 0, x0 = e1: x at step j is (1 + tau*lam1)^(-j) e1
    m = ZERO
    p = SchemeParams(n_modes=4, tau=TAU)
    x0 = np.array([1.0, 0.0, 0.0, 0.0])
    seen = {}

    def rec(step, x, w):
        seen[step] = x[0]

    run_path(x0, 20, p, m, NoiseStream(5), observers=(rec,))
    lam1 = math.pi**2
    for j in (1, 5, 20):
        assert seen[j] == pytest.approx((1 + TAU * lam1) ** (-j), rel=1e-12)


def test_run_path_identical_seeds_bitwise():
    outs = [np.array(run_states(np.full(10, 0.2), 40, PARAMS, AC,
                                NoiseStream(6, path_index=2)))
            for _ in range(2)]
    np.testing.assert_array_equal(outs[0], outs[1])


def test_run_path_nonconvergence_keeps_partial_records():
    # unit noise on a linear drift that is NaN above 0.4: this path's state
    # first crosses 0.4 at step 8, whose solve then stalls at the edge
    m = replace(heat_model(constant_diffusion(1.0)),
                drift=lambda u: np.where(u > 0.4, np.nan, -u),
                drift_deriv=lambda u: -np.ones_like(u))
    seen = []
    with pytest.raises(NonConvergenceError) as exc:
        run_path(np.zeros(10), 40, PARAMS, m, NoiseStream(7, path_index=3),
                 observers=(lambda step, x, w: seen.append(step),))
    assert exc.value.path == 3
    assert 0 < exc.value.step < 40
    assert f"path 3, step {exc.value.step}" in str(exc.value)
    # the observers saw x0 and every step completed before the failing one
    assert seen == list(range(exc.value.step + 1))


def test_sweeps_cut_newton_rows_below_two(monkeypatch):
    # rows solved per path-step on a 200-path run: 1.046 after 5 mean-field
    # sweeps (8: 0.439); sweeps that divide by 1 + tau Lambda alone left 1.266
    solve, rows = np.linalg.solve, []

    def counting_solve(a, b):
        rows.append(len(a))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    run_paths_vectorized(initial_datum("mix_plus", 10), 30, PARAMS, AC, 2024, 200)
    assert sum(rows) / (200 * 30) <= 1.1


@pytest.mark.parametrize("n", [20, 40])
def test_split_newton_cuts_rows_to_near_one(monkeypatch, n):
    # the run above past the low block: the split step's block Gauss-Seidel
    # pass solves 1.145 (N = 20) and 1.153 (N = 40) rows per path-step (8
    # sweeps: 0.505 and 0.511); dividing the high modes by diag(1 + tau
    # Lambda) alone solved 1.82-1.84, and sweeps that divide by 1 + tau
    # Lambda alone left 1.380 and 1.379
    solve, rows = np.linalg.solve, []

    def counting_solve(a, b):
        rows.append(len(a))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    run_paths_vectorized(initial_datum("mix_plus", n), 30, SchemeParams(n, TAU), AC,
                         2024, 200)
    assert sum(rows) / (200 * 30) <= 1.2


def test_split_newton_keeps_engine_rows_on_the_low_block(monkeypatch):
    # the run above at N = 40: every Newton step solves only the 10 x 10 low
    # block; with the high modes divided by 1 in place of diag(1 + tau
    # Lambda) and no correction, 1.5 rows per path-step fell back to 40
    solve, sizes = np.linalg.solve, set()

    def counting_solve(a, b):
        sizes.add(a.shape[-1])
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    run_paths_vectorized(initial_datum("mix_plus", 40), 30, SchemeParams(40, TAU), AC,
                         2024, 200)
    assert sizes == {10}


def test_sweep_converged_rows_match_newton_only_solve(monkeypatch):
    # engine states whose right-hand side moved by 1e-7 (half the rows) or
    # 2: most of the first rows converge in the sweeps, the others need
    # Newton; the closest leaves the sweeps at 1.2e-4 (at 1: 8.3e-9, and one
    # of them converges in 7 sweeps that go on below tol, two in 8)
    states = []
    run_paths_vectorized(initial_datum("mix_plus", 10), 10, PARAMS, AC, 5, 40,
                         observers=(lambda step, x, w: states.append(x.copy()),))
    ws = _Workspace(PARAMS, AC)
    guess = states[-1]
    size = np.repeat([1e-7, 2.0], 20)[:, None]
    rhs = ws.residual(guess, 0.0) + size * np.random.default_rng(8).standard_normal(guess.shape)
    assert np.linalg.norm(ws.residual(guess, rhs), axis=1).min() > PARAMS.newton_tol
    swept, _, _, rnorm = ws._sweep(rhs, guess)
    done = rnorm <= PARAMS.newton_tol
    assert done[:20].sum() >= 15 and not done[20:].any()
    x, _, residual = ws.newton(rhs, guess)
    assert residual <= PARAMS.newton_tol
    np.testing.assert_array_equal(x[done], swept[done])
    monkeypatch.setattr(scheme, "_SWEEPS", 1)
    newton_only, _, _ = ws.newton(rhs, guess)
    np.testing.assert_allclose(x, newton_only, rtol=0, atol=1e-9)
    # a row sweeps on below tol while its sweeps lower the residual: given
    # 20 sweeps the first rows end at round-off (sweeps that stop at tol
    # leave them at 2e-12 to 9e-11)
    monkeypatch.setattr(scheme, "_SWEEPS", 20)
    assert ws._sweep(rhs, guess)[3][:20].max() <= 1e-14


@pytest.mark.parametrize("n", [10, 20, 40])
def test_sweep_never_raises_a_residual(monkeypatch, n):
    # from amplitude 5 and 20 the map overshoots on some rows, and the last
    # row's residual overflows: a sweep that raises a row's residual norm is
    # never kept, so no row leaves the sweeps above its guess's norm; the
    # mean-field divisor cuts 145-148 rows of the 150 finite ones (sweeps
    # that divide by 1 + tau Lambda alone: only the 50 of amplitude 1)
    ws = _Workspace(SchemeParams(n, TAU), AC)
    rng = np.random.default_rng(n)
    guess = np.concatenate([a * rng.uniform(-1.0, 1.0, (50, n)) for a in (1.0, 5.0, 20.0)])
    rhs = rng.uniform(-1.0, 1.0, guess.shape) / np.arange(1, n + 1)
    rhs[-1] = 1e200
    sweeps, before = scheme._SWEEPS, guess.copy()
    with np.errstate(all="ignore"):
        _, _, _, rnorm = ws._sweep(rhs, guess)
        monkeypatch.setattr(scheme, "_SWEEPS", 0)
        start, _, _, start_norm = ws._sweep(rhs, guess)
    assert start is guess and start_norm[-1] == math.inf
    assert (rnorm <= start_norm).all()
    assert (rnorm < start_norm).sum() >= 140
    # newton never writes the guess, also without sweeps, when it starts
    # from the guess itself
    for n_sweeps in (sweeps, 0):
        monkeypatch.setattr(scheme, "_SWEEPS", n_sweeps)
        assert ws.newton(rhs[:-1], guess[:-1])[2] <= ws.tol
        np.testing.assert_array_equal(guess, before)


@pytest.mark.parametrize("n", [1, 6, 20])
def test_residual_matches_independent_oracle(n):
    # F_hat(x) - rhs from (n pi)^2 and the drift projected on 8N nodes, at
    # random states of amplitude 2; the convolution steps with res_factors
    # and the residual with one_plus, so the two must be reciprocal
    p = SchemeParams(n_modes=n, tau=TAU)
    ws = _Workspace(p, AC)
    rng = np.random.default_rng(n)
    x = rng.uniform(-2.0, 2.0, (20, n))
    rhs = rng.standard_normal((20, n))
    q = 8 * n
    k = np.arange(1, n + 1)
    e = math.sqrt(2.0) * np.sin(math.pi * np.outer(np.arange(1, q + 1) / (q + 1), k))
    u = x @ e.T
    tau_drift = TAU * (4.0 * (u - u**3)) @ e / (q + 1)
    lam_x = (1.0 + TAU * (k * math.pi) ** 2) * x
    want = lam_x - tau_drift - rhs
    scale = np.abs(lam_x).max() + np.abs(tau_drift).max() + np.abs(rhs).max()
    np.testing.assert_allclose(ws.residual(x, rhs), want, rtol=0, atol=1e-13 * scale)
    np.testing.assert_allclose(ws.res_factors * ws.one_plus, 1.0, rtol=0, atol=4e-16)
    # the sweeps hand Newton the residual of the state they hand over
    best, _, res, rnorm = ws._sweep(rhs, x)
    np.testing.assert_allclose(res, ws.residual(best, rhs), rtol=0, atol=1e-13 * scale)
    np.testing.assert_array_equal(rnorm, np.linalg.norm(res, axis=1))


def test_solve_forms_one_residual(monkeypatch):
    # without sweeps every row enters Newton from its guess: the residual the
    # sweeps hand on, and every one the line search judges, is ws.residual
    # and (I + tau Lambda) x - tau P_N F(x) - rhs bit for bit, with
    # np.linalg.norm's norm; a residual formed as drift(u) @ _tau_proj is
    # bit-equal to it on 2 of 1000 such rows
    monkeypatch.setattr(scheme, "_SWEEPS", 0)
    ws, drift = _Workspace(PARAMS, AC), drift_ops(PARAMS, AC).drift
    rng = np.random.default_rng(12)
    guess = rng.uniform(-2.0, 2.0, (200, 10))
    rhs = rng.standard_normal(guess.shape)
    x, _, res, rnorm = ws._sweep(rhs, guess)
    assert x is guess
    np.testing.assert_array_equal(res, ws.residual(guess, rhs))
    seen, residual = [], _Workspace._residual

    def spy(self, x, rhs):
        out = residual(self, x, rhs)
        seen.append([a.copy() for a in (x, rhs, *out)])  # newton writes them
        return out

    monkeypatch.setattr(_Workspace, "_residual", spy)
    ws.newton(rhs, guess)
    assert len(seen) > 2
    for x, b, u, res, rnorm in seen:
        np.testing.assert_array_equal(res, ws.one_plus * x - TAU * drift(x) - b)
        np.testing.assert_array_equal(u, x @ ws.basis.T)
        np.testing.assert_array_equal(rnorm, np.linalg.norm(res, axis=1))


@pytest.mark.parametrize("eps", [0.5, 0.185])
def test_sweep_divisor_is_at_least_c0(eps):
    # d = 1 + tau Lambda - tau <f'(u)> >= C0 = 1 - (K1 - lambda_1) tau, since
    # f' <= K1, at random states of amplitude up to 20
    model = allen_cahn_model(eps)
    c0 = validate_step_constraint(model.constants, TAU).c0
    for n in (1, 10, 40):
        ws = _Workspace(SchemeParams(n, TAU), model)
        rng = np.random.default_rng(n)
        for amplitude in (0.01, 1.0, 5.0, 20.0):
            x = amplitude * rng.uniform(-1.0, 1.0, (200, n))
            d = ws.divisor(x @ ws.basis.T)
            assert d.shape == x.shape
            assert d.min() >= c0
    # with no drift the sweep divides by 1 + tau Lambda, as the resolvent does
    heat = _Workspace(PARAMS, heat_model(constant_diffusion(1.0)))
    x = np.random.default_rng(3).uniform(-20.0, 20.0, (50, 10))
    np.testing.assert_array_equal(heat.divisor(x @ heat.basis.T),
                                  np.broadcast_to(1.0 + TAU * eigenvalues(10), x.shape))


@pytest.mark.parametrize("n", [20, 40])
@pytest.mark.parametrize("eps, tau", [(0.5, TAU), (0.25, TAU), (0.185, TAU), (0.1, 0.01),
                                      (0.05, 0.0025)],
                         ids=["0.5", "0.25", "0.185", "0.1-0.01", "0.05-0.0025"])
def test_split_newton_converges_from_large_states(monkeypatch, eps, tau, n):
    # one step of 200 rows with right-hand sides of amplitude 1, 5 and 20
    # and 1/n decay: past the 10 low modes the split step stalls on some
    # rows (without the full-step fallback the 6 amplitude-20 cases of 18 at
    # tau = 0.05 fail, and 8 of the 12 at tau = 0.01 and 0.0025, where
    # tau lambda_11 is 12 and 3), and every row must still converge, to the
    # full Newton solution: both are within tol of F_hat's root, and F_hat
    # is strongly monotone with C0. A split row that keeps over a tenth of
    # its residual goes to full steps, so the split solve takes at most 3
    # iterations more than full Newton: the largest gap is 2 (8 against 6
    # at eps = 0.05, tau = 0.0025, amplitude 1). With the fallback at half
    # the residual, 8 of the 30 cases took 9 to 22 more: 28 against 9 and
    # 34 against 12 at eps = 0.1, tau = 0.01, N = 20, amplitudes 5 and 20
    params, model = SchemeParams(n_modes=n, tau=tau), allen_cahn_model(eps)
    c0 = 1.0 - (model.constants.K1 - math.pi**2) * tau
    ws = _Workspace(params, model)
    assert ws.k == 10
    monkeypatch.setattr(scheme, "_LOW_MODES", n)
    full = _Workspace(params, model)
    for amplitude in (1.0, 5.0, 20.0):
        rhs = (amplitude * np.random.default_rng(7).uniform(-1.0, 1.0, (200, n))
               / np.arange(1, n + 1))
        x, iters, residual = ws.newton(rhs, rhs)
        assert iters < scheme._MAX_ITER and residual <= params.newton_tol
        x_full, full_iters, _ = full.newton(rhs, rhs)
        assert iters <= full_iters + 3
        gap = np.linalg.norm(x - x_full, axis=1)
        assert gap.max() <= 2.0 * params.newton_tol / c0


def edge_epsilon(tau):
    """The smallest Allen-Cahn eps at step tau with C0 >= 0.02."""
    return (math.pi**2 + 0.98 / tau) ** -0.5


@given(st.floats(0.002, TAU), st.floats(0.0, 1.0), st.integers(1, 40), st.floats(0.0, 20.0),
       st.integers(1, 4), st.integers(1, 5), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_boundary_fuzz_converges_or_names_its_failure(tau, eps_share, n, amplitude, n_paths,
                                                      n_steps, seed):
    # near the step-constraint edge (C0 down to 0.02) at steps from 0.002 to
    # 0.05 and from large states, a run converges or raises naming its
    # (step, path), warning-free; eps runs from the edge of its tau to 1
    eps = edge_epsilon(tau) + eps_share * (1.0 - edge_epsilon(tau))
    params = SchemeParams(n_modes=n, tau=tau)
    x0 = amplitude * np.random.default_rng(seed).uniform(-1.0, 1.0, (n_paths, n))
    seen = []

    def finite(step, x, w):
        assert np.isfinite(x).all() and np.isfinite(w).all()
        seen.append(step)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            _, worst = run_paths_vectorized(x0, n_steps, params, allen_cahn_model(eps),
                                            seed, n_paths, observers=(finite,),
                                            first_path_index=3)
        except (NonConvergenceError, SingularLinearSolveError) as exc:
            assert 0 <= exc.step < n_steps and 3 <= exc.path < 3 + n_paths
            assert seen == list(range(exc.step + 1))
        else:
            assert worst <= params.newton_tol
            assert seen == list(range(n_steps + 1))


def test_vectorized_matches_per_path():
    # row k of a 4-path run equals a 1-path run of path k
    x0 = np.full(10, 0.3)

    def final(n_paths, first_path_index=0):
        out = {}

        def grab(step, x, w):
            if step == 60:
                out["x"], out["w"] = x.copy(), w.copy()

        run_paths_vectorized(x0, 60, PARAMS, AC, 42, n_paths, observers=(grab,),
                             first_path_index=first_path_index)
        return out["x"], out["w"]

    batch_x, batch_w = final(4)
    for k in range(4):
        x, w = final(1, first_path_index=k)
        np.testing.assert_allclose(batch_x[k], x[0], atol=1e-11)
        np.testing.assert_allclose(batch_w[k], w[0], atol=1e-11)


def test_run_path_is_one_row_of_engine_run():
    # path 3 from noise block 5 is row 0 of a batch run from the same address
    x0 = np.full(10, 0.3)
    states = run_states(x0, 12, PARAMS, AC,
                        NoiseStream(42, path_index=3, step_counter=5))
    assert len(states) == 13
    rows = []
    run_paths_vectorized(x0, 12, PARAMS, AC, 42, 3, first_path_index=3,
                         first_step=5,
                         observers=(lambda step, x, w: rows.append((x[0], w[0])),))
    for (x, w), (x_row, w_row) in zip(states, rows):
        assert x.shape == w.shape == (10,)
        np.testing.assert_allclose(x, x_row, atol=1e-11)
        np.testing.assert_allclose(w, w_row, atol=1e-11)


def test_nan_residual_is_never_converged():
    # zero noise; the drift is NaN wherever the state exceeds 0.5
    m = replace(heat_model(constant_diffusion(0.0)),
                drift=lambda u: np.where(u > 0.5, np.nan, -u),
                drift_deriv=lambda u: -np.ones_like(u))
    x0 = np.zeros((2, 10))
    x0[1, 0] = 1.0
    with pytest.raises(NonConvergenceError) as exc:
        run_paths_vectorized(x0, 5, PARAMS, m, 1, 2, first_path_index=3)
    assert exc.value.path == 4
    assert exc.value.step == 0
    assert "path 4, step 0" in str(exc.value)
    seen = []
    with pytest.raises(NonConvergenceError) as exc:
        run_path(x0[1], 5, PARAMS, m, NoiseStream(1),
                 observers=(lambda step, x, w: seen.append((step, x.copy())),))
    assert (exc.value.path, exc.value.step) == (0, 0)
    (step, x), = seen
    assert step == 0
    np.testing.assert_array_equal(x, x0[1])


def test_newton_out_of_iterations_names_its_path():
    # a Newton matrix 100 times too large cuts the residual by about 1 % per
    # iteration, so the budget runs out far above the tolerance; the row at
    # 0 is solved already
    m = replace(heat_model(constant_diffusion(0.0)), drift=lambda u: -200.0 * u,
                drift_deriv=lambda u: np.full_like(u, -20000.0))
    x0 = np.zeros((2, 10))
    x0[1] = 0.5
    with pytest.raises(NonConvergenceError) as exc:
        run_paths_vectorized(x0, 3, PARAMS, m, 1, 2, first_path_index=3)
    assert (exc.value.path, exc.value.step) == (4, 0)
    assert exc.value.iterations == scheme._MAX_ITER
    assert exc.value.residual > 1e-2
    assert (f"path 4, step 0: residual {exc.value.residual:.3e} after"
            f" {scheme._MAX_ITER} iterations") in str(exc.value)


def test_overflowed_residual_is_never_at_the_floor():
    # noise of size 1e200 overflows the residual's squared norm to inf, and
    # the round-off floor of such a row is inf too
    m = allen_cahn_model(0.5, diffusion=constant_diffusion(1e200))
    p = SchemeParams(n_modes=6, tau=TAU)
    with np.errstate(all="ignore"), pytest.raises(NonConvergenceError) as exc:
        run_paths_vectorized(np.zeros(6), 3, p, m, 11, 1, first_path_index=2)
    assert (exc.value.path, exc.value.step) == (2, 0)
    assert exc.value.residual == math.inf


def test_singular_newton_system_names_its_path(monkeypatch):
    newton_matrix, sizes = _Workspace.newton_matrix, []

    def singular_row_1(self, x, *k):
        mats = newton_matrix(self, x, *k)
        mats[1] = 0.0
        sizes.append(mats.shape[-1])
        return mats

    monkeypatch.setattr(_Workspace, "newton_matrix", singular_row_1)
    # from states this large the sweeps diverge, so every row reaches Newton;
    # at N = 40 the zeroed matrix is the 10 x 10 low block of a split step
    for n in (10, 40):
        with pytest.raises(SingularLinearSolveError) as exc:
            run_paths_vectorized(np.full((3, n), 5.0), 5, SchemeParams(n, TAU), AC, 1, 3,
                                 first_path_index=4)
        assert (exc.value.step, exc.value.path) == (0, 5)
        assert "singular Newton system at path 5, step 0" in str(exc.value)
    assert sizes == [10, 10]  # N = 10: the full matrix; N = 40: the low block


def test_coupled_pair_shares_increments():
    # with f = 0 the chain equals x-homogeneous part plus the convolution
    m = heat_model(constant_diffusion(1.0))
    p = SchemeParams(n_modes=5, tau=TAU)
    x0 = np.array([1.0, 0.5, -0.2, 0.1, 0.0])
    x, w = run_states(x0, 30, p, m, NoiseStream(8))[30]
    factors = 1 / (1 + TAU * eigenvalues(5))
    homogeneous = factors**30 * x0
    np.testing.assert_allclose(x, homogeneous + w, atol=1e-12)


def test_spatial_convergence_on_shared_noise():
    # A noise block's first N values do not depend on how many are drawn, so
    # runs at N and 2N from one seed share one Brownian path, and the mean
    # of ||X^N - X^2N||^2 is a pathwise truncation error. It is about the
    # stationary variance of the modes N < n <= 2N that the coarse run drops:
    # tau E[g^2] T(N), T(N) = sum 1/((1 + tau lam_n)^2 - 1) over those modes.
    # Hence 1 <= error / (tau T(N)) <= 9 for 1 <= g <= 3, and each doubling
    # of N divides the error by T(N) / T(2N) (6.4, 7.2, 7.6; 8 as N grows).
    n_paths = 200
    finals = {}
    for n in (5, 10, 20, 40, 80):
        run_paths_vectorized(initial_datum("sine", n), 20,
                             SchemeParams(n_modes=n, tau=TAU), AC, 2024, n_paths,
                             observers=(lambda step, x, w: finals.update({n: x.copy()}),))
    lam = eigenvalues(160)
    per_mode = TAU / ((1.0 + TAU * lam) ** 2 - 1.0)
    err, rel, theory = {}, {}, {}
    for n in (5, 10, 20, 40):
        diff = finals[2 * n].copy()
        diff[:, :n] -= finals[n]
        sq = np.sum(diff**2, axis=1)
        err[n] = sq.mean()
        rel[n] = sq.std(ddof=1) / math.sqrt(n_paths) / err[n]
        theory[n] = per_mode[n:2 * n].sum()
        assert 1.0 <= err[n] / theory[n] <= 9.0, (n, err[n] / theory[n])
    for n in (5, 10, 20):
        ratio, want = err[n] / err[2 * n], theory[n] / theory[2 * n]
        tol = 3.0 * math.hypot(rel[n], rel[2 * n])
        assert abs(ratio / want - 1.0) <= tol, (n, ratio, want)
