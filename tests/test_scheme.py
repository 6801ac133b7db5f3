import math
from dataclasses import replace

import numpy as np
import pytest

from spde_ergo.model import (
    allen_cahn_model,
    constant_diffusion,
    heat_model,
    nemytskii_drift,
    zero_model,
)
from spde_ergo.noise import NoiseStream
from spde_ergo.scheme import (
    NonConvergenceError,
    PathState,
    SchemeParams,
    convolution_update,
    dieg_step,
    implicit_solve,
    random_pde_residual,
    run_path,
    run_paths_vectorized,
)
from spde_ergo.spectral import eigenvalues, geometric_decay_sum, resolvent_apply

TAU = 0.05
PARAMS = SchemeParams(n_modes=10, tau=TAU)
AC = allen_cahn_model(0.5)


def hat_f(x, params, model):
    lam = eigenvalues(x.size)
    q = params.resolved_quadrature(model)
    return ((1 + params.tau * lam) * x
            - params.tau * nemytskii_drift(x, model, q).coeffs)


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
    m = zero_model()
    rng = np.random.default_rng(0)
    rhs = rng.standard_normal(6)
    p = SchemeParams(n_modes=6, tau=TAU)
    sol, diag = implicit_solve(rhs, p, m)
    np.testing.assert_allclose(sol.coeffs, resolvent_apply(rhs, TAU).coeffs,
                               atol=1e-13)
    assert diag.newton_iters <= 2


def test_implicit_solve_residual_below_tolerance():
    rng = np.random.default_rng(1)
    rhs = rng.standard_normal(10)
    sol, diag = implicit_solve(rhs, PARAMS, AC)
    assert diag.final_residual <= PARAMS.newton_tol
    res = hat_f(sol.coeffs, PARAMS, AC) - rhs
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
        sol, _ = implicit_solve(np.array([r]), p, AC)
        assert sol.coeffs[0] == pytest.approx(oracle, abs=1e-9)


def test_implicit_solve_unique_from_random_starts():
    rng = np.random.default_rng(3)
    for _ in range(10):
        rhs = rng.standard_normal(10)
        a, _ = implicit_solve(rhs, PARAMS, AC, guess=rng.standard_normal(10) * 3)
        b, _ = implicit_solve(rhs, PARAMS, AC, guess=rng.standard_normal(10) * 3)
        assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-8


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
    from spde_ergo.model import nemytskii_jacobian

    rng = np.random.default_rng(5)
    q = PARAMS.resolved_quadrature(AC)
    lam = eigenvalues(10)
    for _ in range(5):
        x = rng.standard_normal(10)
        v = rng.standard_normal(10)
        v /= np.linalg.norm(v)
        jac_dir = (1 + TAU * lam) * v - TAU * nemytskii_jacobian(x, AC, q) @ v
        h = 1e-6
        fd = (hat_f(x + h * v, PARAMS, AC) - hat_f(x - h * v, PARAMS, AC)) / (2 * h)
        np.testing.assert_allclose(fd, jac_dir,
                                   atol=1e-6 * (1 + np.max(np.abs(jac_dir))))


def test_dieg_step_deterministic_heat():
    # g = 0, f = 0: pure resolvent contraction, convolution stays zero
    m = zero_model()
    p = SchemeParams(n_modes=4, tau=TAU)
    x0 = np.array([1.0, -0.5, 0.2, 0.1])
    state = PathState.initial(x0, NoiseStream(0))
    new_state, _ = dieg_step(state, p, m)
    np.testing.assert_allclose(new_state.x, resolvent_apply(x0, TAU).coeffs,
                               atol=1e-13)
    np.testing.assert_allclose(new_state.w, 0.0, atol=1e-15)
    assert new_state.step == 1


def test_dieg_step_noiseless_allen_cahn_repeatable():
    g0 = allen_cahn_model(0.5, diffusion=constant_diffusion(0.0), K6=0.0)
    x0 = np.full(10, 0.3)
    runs = []
    for _ in range(2):
        state = PathState.initial(x0, NoiseStream(9))
        for _ in range(20):
            state, _ = dieg_step(state, PARAMS, g0)
        runs.append(state.x.copy())
    np.testing.assert_array_equal(runs[0], runs[1])


def test_dieg_step_defining_equation_residual():
    state = PathState.initial(np.full(10, 0.5), NoiseStream(11))
    x_old = state.x.copy()
    new_state, _ = dieg_step(state, PARAMS, AC)
    noise = new_state.w / (1 / (1 + TAU * eigenvalues(10))) - 0.0  # W1 = S*noise
    residual = hat_f(new_state.x, PARAMS, AC) - x_old - noise
    assert np.linalg.norm(residual) <= 10 * PARAMS.newton_tol


def test_convolution_update_single_step():
    p = SchemeParams(n_modes=3, tau=TAU)
    noise = np.array([1.0, 2.0, -1.0])
    w1 = convolution_update(np.zeros(3), noise, p).coeffs
    np.testing.assert_allclose(w1, resolvent_apply(noise, TAU).coeffs, rtol=1e-15)


def test_convolution_zero_noise_stays_zero():
    p = SchemeParams(n_modes=3, tau=TAU)
    w = np.zeros(3)
    for _ in range(10):
        w = convolution_update(w, np.zeros(3), p).coeffs
    np.testing.assert_array_equal(w, 0.0)


def test_convolution_recursion_equals_direct_sum():
    # after j steps the recursive w equals sum_i S^(j-i) noise_i
    p = SchemeParams(n_modes=5, tau=TAU)
    rng = np.random.default_rng(6)
    factors = 1 / (1 + TAU * eigenvalues(5))
    noises = [rng.standard_normal(5) for _ in range(30)]
    w = np.zeros(5)
    for noise in noises:
        w = convolution_update(w, noise, p).coeffs
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
    res = run_path(np.ones(10), 0, PARAMS, AC, NoiseStream(4))
    assert res.n_steps_done == 0
    np.testing.assert_array_equal(res.state.x, np.ones(10))


def test_run_path_diagonal_decay_exact():
    # g = 0, f = 0, x0 = e1: x at step j is (1 + tau*lam1)^(-j) e1
    m = zero_model()
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
    outs = []
    for _ in range(2):
        res = run_path(np.full(10, 0.2), 40, PARAMS, AC, NoiseStream(6, path_index=2))
        outs.append((res.state.x.copy(), res.state.w.copy()))
    np.testing.assert_array_equal(outs[0][0], outs[1][0])
    np.testing.assert_array_equal(outs[0][1], outs[1][1])


def test_run_path_nonconvergence_keeps_partial_records():
    p = SchemeParams(n_modes=10, tau=TAU, newton_tol=1e-10, newton_max_iter=1)
    stream = NoiseStream(7)
    res = run_path(np.full(10, 2.0), 10, p, AC, stream)
    assert res.error is not None
    assert res.n_steps_done < 10
    assert res.state.step == res.n_steps_done
    # the failed step drew its noise block
    assert stream.step_counter == res.n_steps_done + 1


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


def test_run_path_matches_chained_dieg_steps():
    x0 = np.full(10, 0.3)
    stream = NoiseStream(42, path_index=3, step_counter=5)
    seen = []
    res = run_path(x0, 12, PARAMS, AC, stream,
                   observers=(lambda step, x, w: seen.append((step, x.shape)),))
    assert stream.step_counter == 17
    assert seen == [(j, (10,)) for j in range(13)]
    state = PathState.initial(x0, NoiseStream(42, path_index=3, step_counter=5))
    for _ in range(12):
        state, _ = dieg_step(state, PARAMS, AC)
    assert state.stream.step_counter == 17
    assert res.n_steps_done == state.step == 12
    np.testing.assert_allclose(res.state.x, state.x, atol=1e-11)
    np.testing.assert_allclose(res.state.w, state.w, atol=1e-11)


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
    res = run_path(x0[1], 5, PARAMS, m, NoiseStream(1))
    assert isinstance(res.error, NonConvergenceError)
    assert res.n_steps_done == 0
    np.testing.assert_array_equal(res.state.x, x0[1])


def test_coupled_pair_shares_increments():
    # with f = 0 the chain equals x-homogeneous part plus the convolution
    m = heat_model(constant_diffusion(1.0), 1.0)
    p = SchemeParams(n_modes=5, tau=TAU)
    x0 = np.array([1.0, 0.5, -0.2, 0.1, 0.0])
    res = run_path(x0, 30, p, m, NoiseStream(8))
    factors = 1 / (1 + TAU * eigenvalues(5))
    homogeneous = factors**30 * x0
    np.testing.assert_allclose(res.state.x, homogeneous + res.state.w, atol=1e-12)
