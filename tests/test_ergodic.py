import math
from dataclasses import replace

import numpy as np
import pytest

from spde_ergo.ergodic import (
    FUNCTIONAL_TAGS,
    EnsembleConfig,
    MomentSeries,
    agreement_check,
    convolution_moment_report,
    functional_eval,
    initial_datum,
    lyapunov_rate,
    lyapunov_series,
    run_ensemble,
)
from spde_ergo.model import (
    allen_cahn_model,
    constant_diffusion,
    heat_model,
    zero_model,
)
from spde_ergo.noise import NoiseStream
from spde_ergo.scheme import SchemeParams, run_path
from spde_ergo.spectral import eigenvalues, geometric_decay_sum

TAU = 0.05


def linear_cfg(**kw):
    base = dict(
        params=SchemeParams(n_modes=10, tau=TAU),
        model=heat_model(constant_diffusion(1.0), 1.0),
        initial="sine",
        n_paths=8,
        n_steps=100,
        master_seed=404,
    )
    base.update(kw)
    return EnsembleConfig(**base)


def test_functional_eval_at_zero():
    z = np.zeros(4)
    assert functional_eval("exp_neg_norm_sq", z) == 1.0
    assert functional_eval("sin_norm_sq", z) == 0.0
    assert functional_eval("norm_sq", z) == 0.0


def test_functional_eval_unit_mode():
    c = np.array([1.0, 0.0])
    assert functional_eval("norm_sq", c) == 1.0
    assert functional_eval("exp_neg_norm_sq", c) == pytest.approx(math.exp(-1))


def test_functional_eval_sine_initial():
    c = initial_datum("sine", 10)
    assert functional_eval("norm_sq", c) == pytest.approx(0.5, rel=1e-14)


def test_functional_eval_rejects_unknown():
    with pytest.raises(ValueError):
        functional_eval("nope", np.zeros(2))


def test_initial_data():
    sine = initial_datum("sine", 10)
    assert sine[0] == pytest.approx(1 / math.sqrt(2), rel=1e-15)
    assert np.all(sine[1:] == 0)
    plus = initial_datum("mix_plus", 10)
    assert float(plus @ plus) == pytest.approx(5.0, rel=1e-14)
    minus = initial_datum("mix_minus", 10)
    np.testing.assert_array_equal(minus, -plus)
    with pytest.raises(ValueError):
        initial_datum("unknown", 10)


def test_initial_data_truncation_warns():
    with pytest.warns(UserWarning):
        c = initial_datum("mix_plus", 4)
    assert c.shape == (4,)


def test_config_validation():
    with pytest.raises(ValueError):
        linear_cfg(burn_in=100)  # burn_in must be < n_steps
    with pytest.raises(ValueError):
        linear_cfg(moment_betas=(0.5,))
    with pytest.raises(ValueError):
        linear_cfg(functionals=("nope",))
    with pytest.raises(ValueError):
        linear_cfg(n_paths=0)


def test_ensemble_rejects_inadmissible_step():
    # eps = 0.1 gives K1 = 100, so (K1 - lambda_1) tau > 1 at tau = 0.05
    with pytest.raises(ValueError, match="monotone"):
        run_ensemble(linear_cfg(model=allen_cahn_model(0.1)))


def test_deterministic_ensemble_matches_direct_computation():
    # g = 0, f = 0: time average of ||x||^2 equals the resolvent power sums
    m = zero_model()
    factors = 1 / (1 + TAU * eigenvalues(10))
    x0 = initial_datum("sine", 10)
    direct = [float(np.sum((factors**j * x0) ** 2)) for j in range(1, 51)]
    running = np.cumsum(direct) / np.arange(1, 51)
    # Five paths split into uneven halves of 2 and 3; all paths agree, so
    # every stderr is exactly zero.
    for n_paths in (2, 5):
        res = run_ensemble(linear_cfg(model=m, n_paths=n_paths, n_steps=50))
        np.testing.assert_allclose(res.time_averages["norm_sq"].values, running,
                                   atol=1e-12)
        assert np.all(res.time_averages["norm_sq"].stderrs == 0.0)
        assert np.all(res.x_moment.stderrs == 0.0)


def test_deterministic_series_strictly_decreasing():
    res = run_ensemble(linear_cfg(model=zero_model(), n_paths=1, n_steps=60))
    vals = res.x_moment.values
    # strictly decreasing until the values hit the Newton-tolerance floor
    assert np.all(np.diff(vals[:25]) < 0)
    assert np.all(vals[25:] <= vals[24])


def test_single_path_single_step_matches_dieg_step():
    cfg = linear_cfg(model=allen_cahn_model(0.5), n_paths=1, n_steps=1)
    res = run_ensemble(cfg)
    norm_sq = {}
    run_path(initial_datum("sine", 10), 1, cfg.params, cfg.model,
             NoiseStream(cfg.master_seed, path_index=0),
             observers=(lambda step, x, w: norm_sq.setdefault(step, float(x @ x)),))
    assert res.time_averages["norm_sq"].final == pytest.approx(norm_sq[1], rel=1e-12)
    assert res.x_moment.values[1] == pytest.approx(norm_sq[1], rel=1e-12)


@pytest.mark.parametrize("burn_in", [0, 7])
@pytest.mark.parametrize("tag", FUNCTIONAL_TAGS)
def test_running_average_recomputation(tag, burn_in):
    # each running average is the plain mean of phi over steps burn_in+1..j,
    # recomputed path by path
    cfg = linear_cfg(model=allen_cahn_model(0.5), n_paths=5, n_steps=40,
                     burn_in=burn_in)
    res = run_ensemble(cfg)
    phi = np.empty((cfg.n_paths, cfg.n_steps + 1))
    for p in range(cfg.n_paths):

        def rec(step, x, w, row=phi[p]):
            row[step] = functional_eval(tag, x)

        run_path(initial_datum("sine", 10), cfg.n_steps, cfg.params,
                 cfg.model, NoiseStream(cfg.master_seed, path_index=p),
                 observers=(rec,))
    logged = phi[:, burn_in + 1:]
    running = np.cumsum(logged, axis=1) / np.arange(1, logged.shape[1] + 1)
    avg = res.time_averages[tag]
    assert avg.steps[0] == burn_in + 1
    np.testing.assert_array_equal(avg.steps,
                                  np.arange(burn_in + 1, cfg.n_steps + 1))
    np.testing.assert_allclose(avg.values, running.mean(axis=0),
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(res.per_path_finals[tag], logged.mean(axis=1),
                               rtol=0, atol=1e-12)


def test_stderr_matches_two_pass_computation():
    cfg = linear_cfg(n_paths=12, n_steps=30)
    res = run_ensemble(cfg)
    finals = res.per_path_finals["norm_sq"]
    expected = float(np.std(finals, ddof=1) / math.sqrt(len(finals)))
    assert res.time_averages["norm_sq"].final_stderr == pytest.approx(
        expected, rel=1e-13)
    assert res.time_averages["norm_sq"].final == pytest.approx(
        float(np.mean(finals)), rel=1e-12)


def test_stderr_survives_a_large_mean():
    # Weak noise on a deterministic decay: the variance across paths is
    # ~1e-14 of the squared mean, so mean(v**2) - mean(v)**2 keeps almost
    # none of its digits.
    cfg = linear_cfg(model=heat_model(constant_diffusion(1e-7), 1e-7),
                     initial="mix_plus", n_paths=12, n_steps=30)
    res = run_ensemble(cfg)
    finals = res.per_path_finals["norm_sq"]
    expected = float(np.std(finals, ddof=1) / math.sqrt(len(finals)))
    assert res.time_averages["norm_sq"].final_stderr == pytest.approx(
        expected, rel=1e-13)


def test_ensemble_bitwise_deterministic():
    cfg = linear_cfg(model=allen_cahn_model(0.5), n_paths=4, n_steps=30)
    a = run_ensemble(cfg)
    b = run_ensemble(cfg)
    np.testing.assert_array_equal(a.time_averages["norm_sq"].values,
                                  b.time_averages["norm_sq"].values)
    np.testing.assert_array_equal(a.x_moment.values, b.x_moment.values)
    np.testing.assert_array_equal(a.w_moments[0.25].values,
                                  b.w_moments[0.25].values)


def test_seed_invariance_of_statistics():
    # disjoint seeds agree within combined error bars
    cfg_a = linear_cfg(n_paths=60, n_steps=400, master_seed=1, burn_in=100)
    cfg_b = linear_cfg(n_paths=60, n_steps=400, master_seed=10**9, burn_in=100)
    ra = run_ensemble(cfg_a).time_averages["norm_sq"]
    rb = run_ensemble(cfg_b).time_averages["norm_sq"]
    combined = math.hypot(ra.final_stderr, rb.final_stderr)
    assert abs(ra.final - rb.final) <= 4 * combined


def test_linear_stationary_oracle_small_scale():
    # long-run time average of ||x||^2 -> sum_n 1/(lam_n (2 + tau lam_n))
    cfg = linear_cfg(n_paths=100, n_steps=4000, burn_in=500, master_seed=55,
                     functionals=("norm_sq",), moment_betas=(0.0,))
    res = run_ensemble(cfg)
    lam = eigenvalues(10)
    ref = float(np.sum(1.0 / (lam * (2 + TAU * lam))))
    assert res.time_averages["norm_sq"].final == pytest.approx(ref, rel=0.05)


def test_w_moment_limit_matches_geometric_sum():
    # g = 1, f = 0, beta = 0: sup_j E||W_j||^2 -> sum_n tau * limit_n
    cfg = linear_cfg(n_paths=400, n_steps=300, moment_betas=(0.0,),
                     master_seed=77)
    res = run_ensemble(cfg)
    lam = eigenvalues(10)
    target = float(np.sum([TAU * geometric_decay_sum(l, TAU, math.inf)
                           for l in lam]))
    series = res.w_moments[0.0]
    tail_mean = float(np.mean(series.values[-50:]))
    tail_err = float(np.mean(series.stderrs[-50:]))
    assert abs(tail_mean - target) <= 3 * tail_err + 0.02 * target


def test_lyapunov_reference_gamma():
    m = allen_cahn_model(0.5)
    gamma = lyapunov_rate(m, TAU)
    lam1 = math.pi**2
    rate = 1.9 * lam1 + 2.0  # eps_aux = 0.1, K2 = -1
    assert gamma == pytest.approx(rate / (1 + rate * TAU), rel=1e-12)
    assert gamma > 0


def test_lyapunov_series_exact_linear_decay():
    # g = 0, f = 0: E||X_j||^2 decays at rate 2 ln(1 + tau lam1)/tau at least
    cfg = linear_cfg(model=zero_model(), n_paths=1, n_steps=80)
    res = run_ensemble(cfg)
    x0_ns = 0.5
    gamma_exact = 2 * math.log(1 + TAU * math.pi**2) / TAU
    report = lyapunov_series(res.x_moment, gamma_exact * 0.999, x0_ns, TAU)
    assert report.bounded
    assert report.decayed_below_initial
    assert report.passed
    assert report.empirical_envelope <= 1e-12


def test_lyapunov_series_zero_trajectory():
    cfg = linear_cfg(model=zero_model(), n_paths=1, n_steps=20,
                     initial="sine")
    res = run_ensemble(cfg)
    # rescale: feed a zero series directly
    zero = MomentSeries(steps=res.x_moment.steps,
                        values=np.zeros_like(res.x_moment.values),
                        stderrs=np.zeros_like(res.x_moment.stderrs))
    report = lyapunov_series(zero, 1.0, 0.0, TAU)
    assert report.max_after_burn_in == 0.0
    assert report.bounded


def test_lyapunov_report_fails_without_decay():
    growing = MomentSeries(np.arange(8), np.linspace(1.0, 2.0, 8), np.zeros(8))
    report = lyapunov_series(growing, 1.0, 0.5, TAU)
    assert report.bounded and not report.decayed_below_initial
    assert not report.passed


def test_convolution_report_zero_noise():
    cfg = linear_cfg(model=zero_model(), n_paths=2, n_steps=40,
                     moment_betas=(0.0, 0.4))
    res = run_ensemble(cfg)
    report = convolution_moment_report(
        {(10, b): res.w_moments[b] for b in (0.0, 0.4)})
    assert all(v == 0.0 for v in report.sup_by_key.values())


def test_convolution_report_structure():
    series = {
        (10, 0.4): MomentSeries(np.arange(8), np.linspace(0, 1, 8), np.zeros(8)),
        (40, 0.4): MomentSeries(np.arange(8), np.linspace(0, 1.1, 8), np.zeros(8)),
    }
    report = convolution_moment_report(series)
    assert report.p == 2
    assert report.sup_by_key[(40, 0.4)] == pytest.approx(1.1)
    assert report.n_ratio_by_beta[0.4] == pytest.approx(1.1)


def _fake_results(finals_by_initial, stderr=0.001):
    results = {}
    cfg0 = linear_cfg(model=allen_cahn_model(0.5), n_paths=4, n_steps=10)
    base = run_ensemble(cfg0)
    for initial, finals in finals_by_initial.items():
        tas = {}
        for tag, value in finals.items():
            steps = np.array([10])
            tas[tag] = type(base.time_averages[tag])(
                steps=steps, values=np.array([value]),
                stderrs=np.array([stderr]))
        res = replace(base)
        res = type(base)(config=replace(base.config, initial=initial),
                         time_averages=tas, x_moment=base.x_moment,
                         w_moments=base.w_moments,
                         max_newton_iters=0, max_residual=0.0)
        results[initial] = res
    return results


def test_agreement_identical_reports_pass():
    finals = {tag: 0.5 for tag in ("exp_neg_norm_sq", "sin_norm_sq", "norm_sq")}
    results = _fake_results({"sine": finals, "mix_plus": dict(finals)})
    verdict = agreement_check(results)
    assert verdict.all_passed
    assert all(v == 0.0 for v in verdict.max_diff.values())


def test_agreement_large_shift_fails():
    a = {tag: 0.5 for tag in ("exp_neg_norm_sq", "sin_norm_sq", "norm_sq")}
    b = {tag: 0.5 + 10 * 0.001 + 0.02 for tag in a}  # 10 stderr + abs_tol away
    verdict = agreement_check(_fake_results({"sine": a, "mix_plus": b}))
    assert not verdict.all_passed


def test_agreement_rejects_single_report():
    finals = {tag: 0.5 for tag in ("exp_neg_norm_sq", "sin_norm_sq", "norm_sq")}
    with pytest.raises(ValueError):
        agreement_check(_fake_results({"sine": finals}))


def test_agreement_rejects_mismatched_configs():
    finals = {tag: 0.5 for tag in ("exp_neg_norm_sq", "sin_norm_sq", "norm_sq")}
    results = _fake_results({"sine": finals, "mix_plus": dict(finals)})
    bad_cfg = replace(results["mix_plus"].config, n_steps=99, burn_in=0)
    results["mix_plus"] = type(results["mix_plus"])(
        config=bad_cfg,
        time_averages=results["mix_plus"].time_averages,
        x_moment=results["mix_plus"].x_moment,
        w_moments=results["mix_plus"].w_moments,
        max_newton_iters=0, max_residual=0.0)
    with pytest.raises(ValueError):
        agreement_check(results)
