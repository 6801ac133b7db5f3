import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from spde_ergo.model import GalerkinOperators, allen_cahn_model
from spde_ergo.noise import NoiseStream, PhiloxBlockSource

TAU = 0.05


def test_same_block_queried_twice_is_identical():
    a = NoiseStream(42, path_index=3, step_counter=17).block(10)
    b = NoiseStream(42, path_index=3, step_counter=17).block(10)
    np.testing.assert_array_equal(a, b)


def test_stream_block_is_one_row_of_source():
    src = PhiloxBlockSource(123)
    for path, step in [(0, 0), (7, 3), (999, 12345)]:
        block = NoiseStream(123, path_index=path, step_counter=step).block(8)
        np.testing.assert_array_equal(block, src.normals(path, 1, step, 8)[0])


def test_block_does_not_depend_on_batching():
    src = PhiloxBlockSource(5)
    batch = src.normals(3, 6, 11, 10)
    assert batch.shape == (6, 10)
    for k in range(6):
        np.testing.assert_array_equal(batch[k], src.normals(3 + k, 1, 11, 10)[0])


def test_block_prefix_does_not_depend_on_length():
    src = PhiloxBlockSource(5)
    np.testing.assert_array_equal(src.normals(2, 3, 9, 40)[:, :10],
                                  src.normals(2, 3, 9, 10))


def test_block_follows_documented_counter_layout():
    # Normals 4b..4b+3 of block (path, step): Box-Muller on the Philox words
    # at counter (path, b, step, 0), built here from a fresh generator.
    seed, path, step = 31, 4, 6
    expected = []
    for b in range(3):
        before = path + (b << 64) + (step << 128) - 1
        words = [(before >> (64 * i)) & (2**64 - 1) for i in range(4)]
        raw = np.random.Philox(key=seed, counter=words).random_raw(4)
        u = (raw >> np.uint64(11)) * 2.0**-53
        for first, second in (u[:2], u[2:]):
            radius = math.sqrt(-2.0 * math.log(1.0 - first))
            angle = 2.0 * math.pi * second
            expected += [radius * math.cos(angle), radius * math.sin(angle)]
    got = PhiloxBlockSource(seed).normals(path, 1, step, 12)[0]
    np.testing.assert_allclose(got, expected, rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("seed, path, step, golden", [
    (2024, 0, 0, [1.0757750976086236, -1.3741599464254954, 1.7880170710537655,
                  -1.5719570853859834, -2.1932227060137155, 1.0179879007347783]),
    (7, 1234, 5, [-0.7726233430141164, -0.23780163611650848, 0.7702877804557016]),
    (99, 3, 2**32 + 7, [0.7468104287020587, -0.3964330715321884,
                        -0.395228147500663, 0.4368395593340847,
                        1.4217862674680564]),
])
def test_golden_blocks(seed, path, step, golden):
    # Pins the stream: every CSV a run writes changes if these do.
    got = NoiseStream(seed, path_index=path, step_counter=step).block(len(golden))
    np.testing.assert_allclose(got, golden, rtol=1e-13, atol=0)


def test_distinct_seeds_differ():
    a = NoiseStream(1).block(6)
    b = NoiseStream(2).block(6)
    assert not np.array_equal(a, b)


def test_increment_distribution_mean_and_variance():
    # 1e5 draws of mode 1: CLT bound on the mean, chi-square band on variance
    src = PhiloxBlockSource(2024)
    n = 10**5
    draws = np.array([src.normals(0, 1, j, 1)[0, 0] for j in range(n)]) * math.sqrt(TAU)
    assert abs(draws.mean()) <= 4 * math.sqrt(TAU / n)
    assert 0.045 <= draws.var() <= 0.055


def test_independence_across_paths():
    src = PhiloxBlockSource(77)
    n = 10**5
    a = np.array([src.normals(0, 1, j, 1)[0, 0] for j in range(n)])
    b = np.array([src.normals(1, 1, j, 1)[0, 0] for j in range(n)])
    corr = float(np.corrcoef(a, b)[0, 1])
    assert abs(corr) <= 4 / math.sqrt(n)


def multiplicative_increment(x, model, dbeta, q):
    """P_N G(x) dW = M(x) dbeta for one step: a one-row GalerkinOperators call."""
    ops = GalerkinOperators(model, x.size, q)
    return ops.noise(x[None], dbeta[None])[0]


def test_multiplicative_increment_m_equals_2i_case():
    # x = 0 with the paper diffusion has g(0) = 2, so the output is 2*dbeta
    m = allen_cahn_model(0.5)
    dbeta = np.array([0.3, -0.1, 0.7, 0.2])
    out = multiplicative_increment(np.zeros(4), m, dbeta, 16)
    np.testing.assert_allclose(out, 2 * dbeta, atol=1e-12)


def test_multiplicative_increment_zero():
    m = allen_cahn_model(0.5)
    out = multiplicative_increment(np.ones(3), m, np.zeros(3), 12)
    np.testing.assert_allclose(out, 0.0, atol=1e-15)


def test_multiplicative_increment_linear():
    m = allen_cahn_model(0.5)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(4)
    d1 = rng.standard_normal(4)
    d2 = rng.standard_normal(4)
    a, b = 1.3, -0.4
    combined = multiplicative_increment(x, m, a * d1 + b * d2, 16)
    split = (a * multiplicative_increment(x, m, d1, 16)
             + b * multiplicative_increment(x, m, d2, 16))
    np.testing.assert_allclose(combined, split, atol=1e-12)


def test_multiplicative_increment_rejects_bad_shape():
    # increments of 2 noise modes cannot drive an operator built for 3
    ops = GalerkinOperators(allen_cahn_model(0.5), 3, 12)
    with pytest.raises(ValueError):
        ops.noise(np.ones((1, 3)), np.ones((2, 2)))


def test_conditional_covariance_matches_closed_form():
    # empirical covariance of M(x) dbeta over many draws ~ tau * M M^T
    m = allen_cahn_model(0.5)
    rng = np.random.default_rng(31)
    x = rng.standard_normal(4) * 0.5
    q = 16
    # column k of M is the increment of the unit noise vector e_k
    mat = GalerkinOperators(m, 4, q).noise(np.tile(x, (4, 1)), np.eye(4)).T
    target = TAU * mat @ mat.T
    n_draws = 10**4
    draws = rng.standard_normal((n_draws, 4)) * math.sqrt(TAU)
    outs = draws @ mat.T
    emp = outs.T @ outs / n_draws
    err = np.linalg.norm(emp - target, 2) / np.linalg.norm(target, 2)
    assert err <= 0.10


def test_stream_validation():
    with pytest.raises(ValueError):
        NoiseStream(-1)
    with pytest.raises(ValueError):
        NoiseStream(2**64)
    with pytest.raises(ValueError):
        NoiseStream(0, path_index=-1)
    with pytest.raises(ValueError):
        NoiseStream(0, step_counter=-1)
    # a stream is an address; nothing advances it
    with pytest.raises(FrozenInstanceError):
        NoiseStream(0).step_counter = 1
