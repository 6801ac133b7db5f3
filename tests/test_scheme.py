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
    default_quadrature,
    heat_model,
)
from spde_ergo.noise import NoiseStream
from spde_ergo.scheme import (
    NonConvergenceError,
    SchemeParams,
    SingularLinearSolveError,
    _Workspace,
    implicit_solve,
    random_pde_residual,
    run_path,
    run_paths_vectorized,
)
from spde_ergo.spectral import eigenvalues, geometric_decay_sum, resolvent_factors

TAU = 0.05
PARAMS = SchemeParams(n_modes=10, tau=TAU)
AC = allen_cahn_model(0.5)
ZERO = heat_model(constant_diffusion(0.0), 0.0)  # zero drift and diffusion


def resolvent(c):
    """S_{N,tau} c = (I - tau*Laplacian_N)^(-1) c."""
    return c * resolvent_factors(c.size, TAU)


def drift_ops(params, model):
    return GalerkinOperators(model, params.n_modes,
                             default_quadrature(params.n_modes, model.constants))


def hat_f(x, params, model):
    lam = eigenvalues(x.size)
    return ((1 + params.tau * lam) * x
            - params.tau * drift_ops(params, model).drift(x[None])[0])


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
    sol, iters, _ = implicit_solve(rhs, p, m)
    np.testing.assert_allclose(sol, resolvent(rhs), atol=1e-13)
    assert iters <= 2


def test_implicit_solve_residual_below_tolerance():
    rng = np.random.default_rng(1)
    rhs = rng.standard_normal(10)
    sol, _, residual = implicit_solve(rhs, PARAMS, AC)
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
        sol, _, _ = implicit_solve(np.array([r]), p, AC)
        assert sol[0] == pytest.approx(oracle, abs=1e-9)


def test_newton_stalled_at_round_off_floor_is_converged():
    # rhs of 1e6: the residual bottoms out at 4.8e-10 > newton_tol, the
    # round-off floor of terms of size 1e8, and the line search runs dry
    rhs = np.full(10, 1e6)
    sol, iters, residual = implicit_solve(rhs, PARAMS, AC)
    assert iters < scheme._MAX_ITER
    assert PARAMS.newton_tol < residual <= 1e-9
    res = hat_f(sol, PARAMS, AC) - rhs
    assert np.linalg.norm(res) == pytest.approx(residual, rel=1e-12)
    # in a noiseless engine step the stalled row is accepted while the
    # other row converges
    g0 = allen_cahn_model(0.5, diffusion=constant_diffusion(0.0), K6=0.0)
    seen = []
    run_paths_vectorized(np.stack([rhs, np.ones(10)]), 1, PARAMS, g0, 0, 2,
                         observers=(lambda step, x, w: seen.append(x.copy()),))
    np.testing.assert_allclose(seen[1][0], sol, rtol=1e-12)
    assert np.linalg.norm(hat_f(seen[1][1], PARAMS, g0) - 1.0) <= PARAMS.newton_tol


def test_newton_stuck_above_floor_still_fails():
    # f' of the wrong sign and size makes every Newton step an ascent
    # direction, so the line search runs dry far above the round-off floor;
    # the drift -200u stops the resolvent sweeps at their first sweep
    m = replace(heat_model(constant_diffusion(0.0), 0.0), drift=lambda u: -200.0 * u,
                drift_deriv=lambda u: np.full_like(u, 2000.0))
    x0 = np.zeros((2, 10))
    x0[1] = 0.5
    with pytest.raises(NonConvergenceError) as exc:
        run_paths_vectorized(x0, 3, PARAMS, m, 1, 2, first_path_index=3)
    assert (exc.value.path, exc.value.step) == (4, 0)
    assert exc.value.residual > 1e-3
    assert "path 4, step 0" in str(exc.value)


@pytest.mark.parametrize("n", [1, 4, 40])
def test_newton_matrix_matches_jacobian_oracle(n):
    # the one-product Newton matrix is diag(1 + tau*Lambda) - tau J(x), and
    # filling the table's spare row leaves the Jacobian as it was
    p = SchemeParams(n_modes=n, tau=TAU)
    ws = _Workspace(p, AC)
    x = np.random.default_rng(n).standard_normal((3, n))
    jac = ws.jacobian(x)
    np.testing.assert_array_equal(jac, drift_ops(p, AC).jacobian(x))
    np.testing.assert_allclose(jac, jac.transpose(0, 2, 1), atol=1e-12)
    want = np.diag(1 + TAU * eigenvalues(n)) - TAU * jac
    np.testing.assert_allclose(ws.newton_matrix(x), want, rtol=1e-12)


def test_implicit_solve_unique_from_random_starts():
    rng = np.random.default_rng(3)
    for _ in range(10):
        rhs = rng.standard_normal(10)
        a, _, _ = implicit_solve(rhs, PARAMS, AC, guess=rng.standard_normal(10) * 3)
        b, _, _ = implicit_solve(rhs, PARAMS, AC, guess=rng.standard_normal(10) * 3)
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
    ops = drift_ops(PARAMS, AC)
    lam = eigenvalues(10)
    for _ in range(5):
        x = rng.standard_normal(10)
        v = rng.standard_normal(10)
        v /= np.linalg.norm(v)
        jac_dir = (1 + TAU * lam) * v - TAU * ops.jacobian(x[None])[0] @ v
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
    g0 = allen_cahn_model(0.5, diffusion=constant_diffusion(0.0), K6=0.0)
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
    m = heat_model(constant_diffusion(1.0), 1.0)
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
    g0 = allen_cahn_model(0.5, diffusion=constant_diffusion(0.0), K6=0.0)
    traj_x, traj_w = [], []

    def rec(step, x, w):
        traj_x.append(x.copy())
        traj_w.append(w.copy())

    run_path(np.full(10, 0.4), 50, PARAMS, g0, NoiseStream(1), observers=(rec,))
    res = random_pde_residual(traj_x, traj_w, PARAMS, g0)
    assert np.max(res) <= PARAMS.newton_tol * 1.01


def test_random_pde_residual_linear_case_vanishes():
    # f = 0: both recursions are linear and cancel exactly
    m = heat_model(constant_diffusion(1.0), 1.0)
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
    m = replace(heat_model(constant_diffusion(1.0), 1.0),
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


def test_predictor_start_cuts_newton_rows(monkeypatch):
    # rows solved per path-step on a 200-path run: 3.81 when every row
    # starts from its old state, 2.87 from the safeguarded predictor
    solve, rows = np.linalg.solve, []

    def counting_solve(a, b):
        rows.append(len(a))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    run_paths_vectorized(initial_datum("mix_plus", 10), 30, PARAMS, AC, 2024, 200)
    assert sum(rows) / (200 * 30) <= 3.0


def test_sweeps_cut_newton_rows_below_two(monkeypatch):
    # rows solved per path-step on the 200-path run above: 2.87 from the
    # predictor start alone, 1.57 after the resolvent sweeps
    solve, rows = np.linalg.solve, []

    def counting_solve(a, b):
        rows.append(len(a))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    run_paths_vectorized(initial_datum("mix_plus", 10), 30, PARAMS, AC, 2024, 200)
    assert sum(rows) / (200 * 30) <= 2.0


def test_sweep_converged_rows_match_newton_only_solve(monkeypatch):
    # engine states whose right-hand side moved by 1e-7 (half the rows) or
    # 1e-1: most of the first rows converge in the sweeps, the others need
    # Newton
    states = []
    run_paths_vectorized(initial_datum("mix_plus", 10), 10, PARAMS, AC, 5, 40,
                         observers=(lambda step, x, w: states.append(x.copy()),))
    ws = _Workspace(PARAMS, AC)
    guess = states[-1]
    size = np.repeat([1e-7, 1e-1], 20)[:, None]
    rhs = ws.residual(guess, 0.0) + size * np.random.default_rng(8).standard_normal(guess.shape)
    assert np.linalg.norm(ws.residual(guess, rhs), axis=1).min() > PARAMS.newton_tol
    swept, _, rnorm = ws._sweep(rhs, guess)
    done = rnorm <= PARAMS.newton_tol
    assert done[:20].sum() >= 15 and not done[20:].any()
    x, _, residual = ws.newton(rhs, guess)
    assert residual <= PARAMS.newton_tol
    np.testing.assert_array_equal(x[done], swept[done])
    monkeypatch.setattr(scheme, "_SWEEPS", 1)
    newton_only, _, _ = ws.newton(rhs, guess)
    np.testing.assert_allclose(x, newton_only, rtol=0, atol=1e-9)


@pytest.mark.parametrize("n", [1, 6, 20])
def test_residual_matches_independent_oracle(n):
    # F_hat(x) - rhs from (n pi)^2 and the drift projected on 8N nodes, at
    # random states of amplitude 2; the sweeps step with res_factors and
    # judge with one_plus, so the two must be reciprocal
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
    best, res, rnorm = ws._sweep(rhs, x)
    np.testing.assert_allclose(res, ws.residual(best, rhs), rtol=0, atol=1e-13 * scale)
    np.testing.assert_array_equal(rnorm, np.linalg.norm(res, axis=1))


@given(st.floats(0.185, 1.0), st.integers(1, 20), st.floats(0.0, 20.0),
       st.integers(1, 4), st.integers(1, 5), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_boundary_fuzz_converges_or_names_its_failure(eps, n, amplitude, n_paths,
                                                      n_steps, seed):
    # near the step-constraint edge (eps = 0.185: C0 = 0.033) and from large
    # states, a run converges or raises naming its (step, path), warning-free
    params = SchemeParams(n_modes=n, tau=TAU)
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
    m = replace(heat_model(constant_diffusion(0.0), 0.0),
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
    m = replace(heat_model(constant_diffusion(0.0), 0.0), drift=lambda u: -200.0 * u,
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
    m = allen_cahn_model(0.5, diffusion=constant_diffusion(1e200), K6=1e200)
    p = SchemeParams(n_modes=6, tau=TAU)
    with np.errstate(all="ignore"), pytest.raises(NonConvergenceError) as exc:
        run_paths_vectorized(np.zeros(6), 3, p, m, 11, 1, first_path_index=2)
    assert (exc.value.path, exc.value.step) == (2, 0)
    assert exc.value.residual == math.inf


def test_singular_newton_system_names_its_path(monkeypatch):
    newton_matrix = _Workspace.newton_matrix

    def singular_row_1(self, x):
        mats = newton_matrix(self, x)
        mats[1] = 0.0
        return mats

    monkeypatch.setattr(_Workspace, "newton_matrix", singular_row_1)
    # from states this large the sweeps diverge, so every row reaches Newton
    with pytest.raises(SingularLinearSolveError) as exc:
        run_paths_vectorized(np.full((3, 10), 5.0), 5, PARAMS, AC, 1, 3,
                             first_path_index=4)
    assert (exc.value.step, exc.value.path) == (0, 5)
    assert "singular Newton system at path 5, step 0" in str(exc.value)


def test_coupled_pair_shares_increments():
    # with f = 0 the chain equals x-homogeneous part plus the convolution
    m = heat_model(constant_diffusion(1.0), 1.0)
    p = SchemeParams(n_modes=5, tau=TAU)
    x0 = np.array([1.0, 0.5, -0.2, 0.1, 0.0])
    x, w = run_states(x0, 30, p, m, NoiseStream(8))[30]
    factors = 1 / (1 + TAU * eigenvalues(5))
    homogeneous = factors**30 * x0
    np.testing.assert_allclose(x, homogeneous + w, atol=1e-12)
