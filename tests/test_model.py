import math

import numpy as np
import pytest

from spde_ergo.model import (
    allen_cahn_model,
    constant_diffusion,
    default_quadrature,
    heat_model,
    nemytskii_drift,
    nemytskii_jacobian,
    noise_matrix,
    paper_diffusion,
    validate_nondegeneracy,
    validate_step_constraint,
    zero_model,
)
from spde_ergo.spectral import basis_matrix, synthesize

EPS = 0.5
LAM1 = math.pi**2


@pytest.fixture(scope="module")
def ac_model():
    return allen_cahn_model(EPS)


def test_allen_cahn_drift_values(ac_model):
    f = ac_model.drift
    assert f(np.array(0.0)) == 0.0
    assert f(np.array(1.0)) == 0.0
    assert f(np.array(2.0)) == pytest.approx(-24.0)


def test_allen_cahn_constants(ac_model):
    k = ac_model.constants
    assert k.K1 == pytest.approx(4.0)
    assert k.K4 == pytest.approx(8.0)
    assert k.K5 == pytest.approx(4.0)
    assert k.q == 3.0
    assert k.K2 == -1.0
    assert k.K3 == pytest.approx(25 / 16)


def test_allen_cahn_coercivity_constant_is_tight(ac_model):
    # K3 = max over a of eps^-2 (a^2 - a^4) + a^2 when K2 = -1
    a = np.linspace(-10, 10, 100001)
    lhs = ac_model.drift(a) * a
    rhs = -(a**2) + ac_model.constants.K3
    assert np.max(lhs - rhs) <= 1e-9
    # tight: attained within grid resolution
    assert np.max(lhs - rhs) >= -1e-3


def test_allen_cahn_sampled_constants_pass(ac_model):
    assert ac_model.constants.check_sampled(ac_model.drift, ac_model.diffusion) == []


def test_allen_cahn_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        allen_cahn_model(0.0)
    with pytest.raises(ValueError):
        allen_cahn_model(-1.0)
    # eps**-2 underflows to 0, is NaN, or K3 = (eps**-2 + 1)**2 / ... overflows
    for eps in (math.inf, 1e200, math.nan, 1e-100):
        with pytest.raises(ValueError):
            allen_cahn_model(eps)


def test_drift_derivative_matches_finite_differences(ac_model):
    assert ac_model.check_derivative() <= 1e-6


def test_paper_diffusion_values():
    g = paper_diffusion()
    assert g(np.array(0.0)) == pytest.approx(2.0)
    assert g(np.array(math.sqrt(math.pi / 2))) == pytest.approx(3.0)
    xs = np.linspace(-50, 50, 10**4)
    vals = g(xs)
    assert np.all(np.abs(vals) <= 3.0)
    assert np.all(vals >= 1.0)


def test_step_constraint_paper_settings():
    k = allen_cahn_model(EPS).constants
    result = validate_step_constraint(k, 0.05)
    assert result.ok
    assert result.c0 == pytest.approx(1 - (4 - LAM1) * 0.05, rel=1e-12)
    assert result.c0 == pytest.approx(1.2935, abs=1e-4)


def test_step_constraint_rejects_stiff_drift():
    k = allen_cahn_model(0.1).constants  # K1 = 100
    result = validate_step_constraint(k, 0.05)
    assert not result.ok
    assert any("monotone" in m for m in result.messages)


def test_step_constraint_rejects_large_k2():
    from spde_ergo.model import ModelConstants

    k = ModelConstants(K1=0.0, K2=LAM1, K3=0.0, K4=0.0, K5=0.0, K6=1.0)
    assert not validate_step_constraint(k, 0.05).ok


def test_nemytskii_drift_zero():
    m = zero_model()
    out = nemytskii_drift(np.array([0.3, -0.2, 0.1]), m, 12).coeffs
    np.testing.assert_allclose(out, 0.0, atol=1e-15)


@pytest.mark.parametrize("a", [0.3, 1.0, -0.8])
def test_nemytskii_drift_single_mode_cubic(ac_model, a):
    # P_N f(a e_1) for f = 4(u - u^3): mode1 = 4a - 6a^3, mode3 = 2a^3
    # from int sin^4(pi x) dx = 3/8 and int sin^3(pi x) sin(3 pi x) dx = -1/8
    c = np.array([a, 0.0, 0.0, 0.0])
    out = nemytskii_drift(c, ac_model, 16).coeffs
    expected = np.array([4 * a - 6 * a**3, 0.0, 2 * a**3, 0.0])
    np.testing.assert_allclose(out, expected, atol=1e-10)


def test_nemytskii_drift_quadrature_floor_enforced(ac_model):
    with pytest.raises(ValueError):
        nemytskii_drift(np.zeros(4), ac_model, 15)  # floor is (3+1)*4 = 16


def test_nemytskii_drift_exact_at_floor(ac_model):
    # dealiased quadrature is exact for the cubic: Q = 4N matches Q >> N
    rng = np.random.default_rng(5)
    c = rng.standard_normal(6)
    coarse = nemytskii_drift(c, ac_model, 24).coeffs
    fine = nemytskii_drift(c, ac_model, 600).coeffs
    np.testing.assert_allclose(coarse, fine, atol=1e-12)


def test_jacobian_linear_drift_is_identity_multiple():
    from spde_ergo.model import CoefficientModel, ModelConstants

    alpha = 1.7
    m = CoefficientModel(
        drift=lambda x: alpha * x,
        drift_deriv=lambda x: np.full_like(x, alpha),
        diffusion=constant_diffusion(1.0),
        constants=ModelConstants(K1=alpha, K2=alpha, K3=0.0, K4=alpha, K5=0.0,
                                 K6=1.0, q=1.0),
    )
    jac = nemytskii_jacobian(np.array([0.2, -0.4, 0.1]), m, 12)
    np.testing.assert_allclose(jac, alpha * np.eye(3), atol=1e-12)


def test_jacobian_at_origin(ac_model):
    jac = nemytskii_jacobian(np.zeros(5), ac_model, 20)
    np.testing.assert_allclose(jac, 4.0 * np.eye(5), atol=1e-12)


def test_jacobian_symmetric_and_matches_finite_differences(ac_model):
    rng = np.random.default_rng(11)
    q = 32
    for _ in range(5):
        c = rng.standard_normal(8)
        jac = nemytskii_jacobian(c, ac_model, q)
        np.testing.assert_allclose(jac, jac.T, atol=1e-12)
        h = 1e-6
        scale = np.max(np.abs(jac)) + 1.0
        for m_ in range(8):
            e = np.zeros(8)
            e[m_] = h
            fd = (nemytskii_drift(c + e, ac_model, q).coeffs
                  - nemytskii_drift(c - e, ac_model, q).coeffs) / (2 * h)
            np.testing.assert_allclose(fd, jac[:, m_], atol=1e-6 * scale)


def test_noise_matrix_constant_g_at_rest(ac_model):
    # x = 0 with the paper diffusion: g(0) = 2, so M = 2 I on shared modes
    mat = noise_matrix(np.zeros(4), ac_model, 6, 16)
    expected = np.zeros((4, 6))
    expected[:4, :4] = 2.0 * np.eye(4)
    np.testing.assert_allclose(mat, expected, atol=1e-12)


def test_noise_matrix_zero_g():
    mat = noise_matrix(np.ones(3), zero_model(), 3, 8)
    np.testing.assert_allclose(mat, 0.0, atol=1e-15)


def test_noise_matrix_symmetry(ac_model):
    rng = np.random.default_rng(2)
    c = rng.standard_normal(5)
    mat = noise_matrix(c, ac_model, 5, 32)
    np.testing.assert_allclose(mat, mat.T, atol=1e-12)


def test_noise_matrix_floor_enforced(ac_model):
    with pytest.raises(ValueError):
        noise_matrix(np.zeros(4), ac_model, 6, 9)


def test_nondegeneracy_paper_diffusion(ac_model):
    rng = np.random.default_rng(9)
    res = validate_nondegeneracy(rng.standard_normal(6), ac_model, 64)
    assert res.ok
    assert res.min_abs_diffusion >= 1.0


def test_nondegeneracy_zero_diffusion():
    assert not validate_nondegeneracy(np.ones(3), zero_model(), 16)


def test_nondegeneracy_sign_changing_diffusion():
    from spde_ergo.model import CoefficientModel, ModelConstants

    m = CoefficientModel(
        drift=lambda x: np.zeros_like(x),
        drift_deriv=lambda x: np.zeros_like(x),
        diffusion=lambda x: x,  # vanishes wherever the state does
        constants=ModelConstants(K1=0, K2=0, K3=0, K4=0, K5=0, K6=10.0),
    )
    res = validate_nondegeneracy(np.zeros(2), m, 15)
    assert not res.ok
    assert res.min_abs_diffusion == 0.0


def _quad_inner(u_vals, v_vals, q):
    return float(np.sum(u_vals * v_vals)) / (q + 1)


def test_monotonicity_transfer(ac_model):
    # <x - y, P_N F(x) - P_N F(y)> <= K1 ||x - y||^2 at the Galerkin level
    rng = np.random.default_rng(21)
    n, q = 6, default_quadrature(6, 6, ac_model.constants)
    k1 = ac_model.constants.K1
    for _ in range(1000):
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        d = x - y
        lhs = float(d @ (nemytskii_drift(x, ac_model, q).coeffs
                         - nemytskii_drift(y, ac_model, q).coeffs))
        assert lhs <= k1 * float(d @ d) + 1e-8


def test_coercivity_transfer(ac_model):
    rng = np.random.default_rng(22)
    n, q = 6, default_quadrature(6, 6, ac_model.constants)
    k = ac_model.constants
    for _ in range(1000):
        x = rng.standard_normal(n)
        lhs = float(x @ nemytskii_drift(x, ac_model, q).coeffs)
        assert lhs <= k.K2 * float(x @ x) + k.K3 + 1e-8


def test_heat_model_is_linear():
    m = heat_model(constant_diffusion(1.0), 1.0)
    out = nemytskii_drift(np.array([1.0, 2.0]), m, 8).coeffs
    np.testing.assert_allclose(out, 0.0)
    assert validate_step_constraint(m.constants, 0.5).ok
