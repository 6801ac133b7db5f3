import math

import numpy as np
import pytest

from spde_ergo.model import (
    GalerkinOperators,
    allen_cahn_model,
    constant_diffusion,
    default_quadrature,
    drift_quadrature,
    heat_model,
    paper_diffusion,
    validate_step_constraint,
)
from spde_ergo.scheme import SchemeParams, _Workspace

EPS = 0.5
LAM1 = math.pi**2


@pytest.fixture(scope="module")
def ac_model():
    return allen_cahn_model(EPS)


def drift(c, model, q):
    """P_N F(c) for one coefficient vector: a one-row GalerkinOperators call."""
    return GalerkinOperators(model, c.size, q).drift(c[None])[0]


def jacobian(c, model):
    """P_N F's Jacobian at c, as the engine assembles it at its quadrature."""
    params = SchemeParams(n_modes=c.size, tau=0.05)
    return _Workspace(params, model).jacobian(c[None])[0]


def noise_matrix(c, model, q):
    """M[n, m] = <e_n, g(x) e_m>: column m is the increment of unit noise e_m."""
    ops = GalerkinOperators(model, c.size, q)
    return ops.noise(np.tile(c, (c.size, 1)), np.eye(c.size)).T


def paper_bounds(eps):
    """The paper's Allen-Cahn constants (K3, K4, K5, K6) that the scheme does
    not read: f(a) a <= K2 a^2 + K3 with K3 the maximum of
    eps^-2 (a^2 - a^4) + a^2, |f(a)| <= K4 |a|^q + K5, and |g| <= K6 for
    paper_diffusion."""
    inv2 = eps**-2
    return (inv2 + 1.0) ** 2 / (4.0 * inv2), 2.0 * inv2, inv2, 3.0


def check_sampled(constants, bounds, drift, diffusion):
    """Violations of the four structural inequalities on a deterministic grid;
    bounds is (K3, K4, K5, K6) as paper_bounds returns it."""
    K3, K4, K5, K6 = bounds
    xi = np.linspace(-10.0, 10.0, 201)
    f = np.asarray(drift(xi), dtype=float)
    g = np.asarray(diffusion(xi), dtype=float)
    tol = 1e-9 * (1.0 + np.abs(f).max())
    msgs = []
    diff_f = f[:, None] - f[None, :]
    diff_x = xi[:, None] - xi[None, :]
    if np.max(diff_f * diff_x - constants.K1 * diff_x**2) > tol:
        msgs.append("one-sided Lipschitz bound K1 violated on sample grid")
    if np.max(f * xi - constants.K2 * xi**2 - K3) > tol:
        msgs.append("coercivity bound (K2, K3) violated on sample grid")
    if np.max(np.abs(f) - K4 * np.abs(xi) ** constants.q - K5) > tol:
        msgs.append("growth bound (K4, K5, q) violated on sample grid")
    if np.max(np.abs(g)) > K6 + 1e-12:
        msgs.append("diffusion bound K6 violated on sample grid")
    if np.min(np.abs(g)) <= 0.0:
        msgs.append("diffusion vanishes on sample grid")
    return msgs


def check_derivative(model):
    """Max normalized mismatch between drift_deriv and central differences."""
    xi, h = np.linspace(-10.0, 10.0, 201), 1e-5
    fd = (model.drift(xi + h) - model.drift(xi - h)) / (2 * h)
    fp = model.drift_deriv(xi)
    return float(np.max(np.abs(fp - fd) / (1.0 + np.abs(fp))))


def test_allen_cahn_drift_values(ac_model):
    f = ac_model.drift
    assert f(np.array(0.0)) == 0.0
    assert f(np.array(1.0)) == 0.0
    assert f(np.array(2.0)) == pytest.approx(-24.0)


def test_allen_cahn_constants(ac_model):
    k = ac_model.constants
    assert k.K1 == pytest.approx(4.0)
    assert k.q == 3.0
    assert k.K2 == -1.0
    assert paper_bounds(EPS) == pytest.approx((25 / 16, 8.0, 4.0, 3.0))


def test_allen_cahn_coercivity_constant_is_tight(ac_model):
    # K3 = max over a of eps^-2 (a^2 - a^4) + a^2 when K2 = -1
    a = np.linspace(-10, 10, 100001)
    lhs = ac_model.drift(a) * a
    rhs = -(a**2) + paper_bounds(EPS)[0]
    assert np.max(lhs - rhs) <= 1e-9
    # tight: attained within grid resolution
    assert np.max(lhs - rhs) >= -1e-3


def test_allen_cahn_sampled_constants_pass(ac_model):
    assert check_sampled(ac_model.constants, paper_bounds(EPS), ac_model.drift,
                         ac_model.diffusion) == []


@pytest.mark.parametrize("g", [lambda x: np.zeros_like(x), lambda x: x],
                         ids=["zero", "sign-changing"])
def test_check_sampled_flags_vanishing_diffusion(ac_model, g):
    msgs = check_sampled(ac_model.constants, paper_bounds(EPS), ac_model.drift, g)
    assert "diffusion vanishes on sample grid" in msgs


def test_allen_cahn_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        allen_cahn_model(0.0)
    with pytest.raises(ValueError):
        allen_cahn_model(-1.0)
    # eps**-2 underflows to 0 or is NaN
    for eps in (math.inf, 1e200, math.nan):
        with pytest.raises(ValueError):
            allen_cahn_model(eps)
    # eps**-2 = 1e200 is finite; the step constraint refuses the stiff drift
    assert not validate_step_constraint(allen_cahn_model(1e-100).constants, 0.05).ok


def test_drift_derivative_matches_finite_differences(ac_model):
    assert check_derivative(ac_model) <= 1e-6


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

    k = ModelConstants(K1=0.0, K2=LAM1)
    assert not validate_step_constraint(k, 0.05).ok


def test_nemytskii_drift_zero():
    m = heat_model(constant_diffusion(0.0))
    out = drift(np.array([0.3, -0.2, 0.1]), m, 12)
    np.testing.assert_allclose(out, 0.0, atol=1e-15)


@pytest.mark.parametrize("a", [0.3, 1.0, -0.8])
def test_nemytskii_drift_single_mode_cubic(ac_model, a):
    # P_N f(a e_1) for f = 4(u - u^3): mode1 = 4a - 6a^3, mode3 = 2a^3
    # from int sin^4(pi x) dx = 3/8 and int sin^3(pi x) sin(3 pi x) dx = -1/8
    c = np.array([a, 0.0, 0.0, 0.0])
    out = drift(c, ac_model, 16)
    expected = np.array([4 * a - 6 * a**3, 0.0, 2 * a**3, 0.0])
    np.testing.assert_allclose(out, expected, atol=1e-10)


def test_nemytskii_drift_quadrature_floor_enforced(ac_model):
    # the drift floor (3+1)*4 = 16 is above the noise floor 2*4 + 1 = 9
    assert default_quadrature(4, ac_model.constants) == 16


def test_drift_quadrature_is_the_exact_floor(ac_model):
    # the engine's drift grid: 2N nodes for the cubic, where the projection
    # matches an 8N + 3 oracle; a quintic needs 3N and aliases at 3N - 1
    from spde_ergo.model import CoefficientModel, ModelConstants

    assert drift_quadrature(4, ac_model.constants) == 8
    rng = np.random.default_rng(6)
    for n in (1, 6, 20, 40):
        c = rng.uniform(-2.0, 2.0, n)
        exact = drift(c, ac_model, 8 * n + 3)
        np.testing.assert_allclose(drift(c, ac_model, 2 * n), exact, rtol=0,
                                   atol=1e-13 * np.abs(exact).max())
    quintic = CoefficientModel(drift=lambda u: u**5, drift_deriv=lambda u: 5 * u**4,
                               diffusion=constant_diffusion(1.0),
                               constants=ModelConstants(K1=0.0, K2=0.0, q=5.0))
    c = rng.uniform(-1.0, 1.0, 6)
    exact = drift(c, quintic, 8 * 6 + 3)
    assert drift_quadrature(6, quintic.constants) == 18
    np.testing.assert_allclose(drift(c, quintic, 18), exact, rtol=0, atol=1e-13)
    assert np.abs(drift(c, quintic, 17) - exact).max() > 1e-6


def test_nemytskii_drift_exact_at_floor(ac_model):
    # dealiased quadrature is exact for the cubic: Q = 4N matches Q >> N
    rng = np.random.default_rng(5)
    c = rng.standard_normal(6)
    coarse = drift(c, ac_model, 24)
    fine = drift(c, ac_model, 600)
    np.testing.assert_allclose(coarse, fine, atol=1e-12)


def test_jacobian_linear_drift_is_identity_multiple():
    from spde_ergo.model import CoefficientModel, ModelConstants

    alpha = 1.7
    m = CoefficientModel(
        drift=lambda x: alpha * x,
        drift_deriv=lambda x: np.full_like(x, alpha),
        diffusion=constant_diffusion(1.0),
        constants=ModelConstants(K1=alpha, K2=alpha, q=1.0),
    )
    jac = jacobian(np.array([0.2, -0.4, 0.1]), m)
    np.testing.assert_allclose(jac, alpha * np.eye(3), atol=1e-12)


def test_jacobian_at_origin(ac_model):
    jac = jacobian(np.zeros(5), ac_model)
    np.testing.assert_allclose(jac, 4.0 * np.eye(5), atol=1e-12)


def test_jacobian_symmetric_and_matches_finite_differences(ac_model):
    rng = np.random.default_rng(11)
    q = default_quadrature(8, ac_model.constants)
    for _ in range(5):
        c = rng.standard_normal(8)
        jac = jacobian(c, ac_model)
        np.testing.assert_allclose(jac, jac.T, atol=1e-12)
        h = 1e-6
        scale = np.max(np.abs(jac)) + 1.0
        for m_ in range(8):
            e = np.zeros(8)
            e[m_] = h
            fd = (drift(c + e, ac_model, q) - drift(c - e, ac_model, q)) / (2 * h)
            np.testing.assert_allclose(fd, jac[:, m_], atol=1e-6 * scale)


def test_noise_matrix_constant_g_at_rest(ac_model):
    # x = 0 with the paper diffusion: g(0) = 2, so M = 2 I
    mat = noise_matrix(np.zeros(4), ac_model, 16)
    np.testing.assert_allclose(mat, 2.0 * np.eye(4), atol=1e-12)


def test_noise_matrix_zero_g():
    mat = noise_matrix(np.ones(3), heat_model(constant_diffusion(0.0)), 8)
    np.testing.assert_allclose(mat, 0.0, atol=1e-15)


def test_noise_matrix_symmetry(ac_model):
    rng = np.random.default_rng(2)
    c = rng.standard_normal(5)
    mat = noise_matrix(c, ac_model, 32)
    np.testing.assert_allclose(mat, mat.T, atol=1e-12)


def test_noise_matrix_floor_enforced(ac_model):
    with pytest.raises(ValueError, match="noise quadrature floor 8"):
        GalerkinOperators(ac_model, 4, 7)


def test_monotonicity_transfer(ac_model):
    # <x - y, P_N F(x) - P_N F(y)> <= K1 ||x - y||^2 at the Galerkin level
    rng = np.random.default_rng(21)
    n, q = 6, default_quadrature(6, ac_model.constants)
    k1 = ac_model.constants.K1
    for _ in range(1000):
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        d = x - y
        lhs = float(d @ (drift(x, ac_model, q) - drift(y, ac_model, q)))
        assert lhs <= k1 * float(d @ d) + 1e-8


def test_coercivity_transfer(ac_model):
    rng = np.random.default_rng(22)
    n, q = 6, default_quadrature(6, ac_model.constants)
    k2, k3 = ac_model.constants.K2, paper_bounds(EPS)[0]
    for _ in range(1000):
        x = rng.standard_normal(n)
        lhs = float(x @ drift(x, ac_model, q))
        assert lhs <= k2 * float(x @ x) + k3 + 1e-8


def test_heat_model_is_linear():
    m = heat_model(constant_diffusion(1.0))
    out = drift(np.array([1.0, 2.0]), m, 8)
    np.testing.assert_allclose(out, 0.0)
    assert validate_step_constraint(m.constants, 0.5).ok
