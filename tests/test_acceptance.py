"""End-to-end acceptance suite.

Each test covers one acceptance criterion (AC-1 .. AC-7) at the stated
tolerance and prints a single pass/fail line. The desk-scale ensembles
(200 paths, 2000 steps) are shared across criteria through module-scoped
fixtures, so the whole suite runs in a few minutes.
"""

import math

import numpy as np
import pytest

from spde_ergo.cli import main as cli_main
from spde_ergo.ergodic import (
    EnsembleConfig,
    agreement_check,
    initial_datum,
    run_ensemble,
)
from spde_ergo.model import allen_cahn_model, constant_diffusion, heat_model
from spde_ergo.noise import NoiseStream
from spde_ergo.scheme import SchemeParams, random_pde_residual, run_path
from spde_ergo.selftest import run_selftest
from spde_ergo.spectral import eigenvalues

TAU = 0.05
SEED = 2024
DESK_PATHS = 200
DESK_STEPS = 2000

DESK_CONFIG_TEXT = """\
model.name = allen_cahn
model.epsilon = 0.5
model.diffusion = paper
scheme.n_modes = 10
scheme.tau = 0.05
run.steps = 2000
run.paths = 200
run.seed = 2024
run.initials = sine, mix_plus, mix_minus
"""


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def desk_results():
    """The desk-scale ensembles for all three initial data (shared)."""
    model = allen_cahn_model(0.5)
    results = {}
    for initial in ("sine", "mix_plus", "mix_minus"):
        cfg = EnsembleConfig(
            params=SchemeParams(n_modes=10, tau=TAU),
            model=model,
            initial=initial,
            n_paths=DESK_PATHS,
            n_steps=DESK_STEPS,
            master_seed=SEED,
        )
        results[initial] = run_ensemble(cfg)
    return results


def test_ac1_linear_stationary_oracle():
    # f = 0, g = 1: long-run time average of ||x||^2 has the closed form
    # sum_{n<=10} 1/(lam_n (2 + tau lam_n)), from the per-mode stationary
    # variance tau / ((1 + tau lam)^2 - 1).
    lam = eigenvalues(10)
    reference = float(np.sum(1.0 / (lam * (2.0 + TAU * lam))))
    assert reference == pytest.approx(0.049997010661903256, rel=1e-14)

    cfg = EnsembleConfig(
        params=SchemeParams(n_modes=10, tau=TAU),
        model=heat_model(constant_diffusion(1.0)),
        initial="sine",
        n_paths=100,
        n_steps=20000,
        master_seed=SEED,
        functionals=("norm_sq",),
        moment_betas=(0.0,),
        burn_in=500,
    )
    measured = run_ensemble(cfg).time_averages["norm_sq"].final
    rel_err = abs(measured - reference) / reference
    report("AC-1", rel_err <= 0.05,
           f"time avg {measured:.6f} vs {reference:.6f}, rel err {rel_err:.4f}")
    assert rel_err <= 0.05


def test_ac2_cross_initial_agreement(desk_results):
    verdict = agreement_check(desk_results, abs_tol=0.01, rel_tol_norm_sq=0.02)
    detail = "; ".join(
        f"{tag}: diff {verdict.max_diff[tag]:.5f} <= "
        f"max(3x{verdict.pooled_stderr[tag]:.5f}, {verdict.tolerance[tag]:.5f})"
        for tag in verdict.max_diff)
    report("AC-2", verdict.all_passed, detail)
    assert verdict.all_passed


def test_ac3_lyapunov_boundedness(desk_results):
    series = desk_results["mix_plus"].x_moment
    early = float(np.max(series.values[(series.steps >= 0) & (series.steps <= 10)]))
    late = float(np.max(series.values[(series.steps >= 1000)
                                      & (series.steps <= 2000)]))
    bounded = late <= early

    # last-half means agree across initials within 3 combined stderrs
    half = DESK_STEPS // 2
    stats = {}
    for initial, res in desk_results.items():
        m = res.x_moment
        sel = m.steps >= half
        stats[initial] = (float(np.mean(m.values[sel])),
                          float(np.mean(m.stderrs[sel])))
    agree = True
    worst = 0.0
    names = list(stats)
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            (ma, ea), (mb, eb) = stats[names[i]], stats[names[j]]
            gap = abs(ma - mb) / (3.0 * math.hypot(ea, eb))
            worst = max(worst, gap)
            agree = agree and gap <= 1.0
    ok = bounded and agree
    report("AC-3", ok,
           f"max over [1000,2000] {late:.4f} <= max over [0,10] {early:.4f}; "
           f"worst cross-initial gap {worst:.2f} of 3 stderr")
    assert bounded
    assert agree


def test_ac4_convolution_moment_uniformity():
    model = allen_cahn_model(0.5)
    series = {}
    for n in (10, 20, 40):
        cfg = EnsembleConfig(
            params=SchemeParams(n_modes=n, tau=TAU),
            model=model,
            initial="sine",
            n_paths=DESK_PATHS,
            n_steps=DESK_STEPS,
            master_seed=SEED,
            functionals=("norm_sq",),
            moment_betas=(0.4,),
        )
        series[n] = run_ensemble(cfg).w_moments[0.4]

    # (a) no growth in j: last-quarter mean <= 1.1 x second-quarter + 2 stderr
    no_growth = True
    trend_detail = []
    for n, s in series.items():
        m = len(s.values)
        second = float(np.mean(s.values[m // 4: m // 2]))
        last = float(np.mean(s.values[3 * m // 4:]))
        err = float(np.mean(s.stderrs[3 * m // 4:]))
        ok = last <= 1.1 * second + 2.0 * err
        no_growth = no_growth and ok
        trend_detail.append(f"N={n}: {last:.4f} vs 1.1x{second:.4f}+2x{err:.4f}")

    # (b) uniformity in N: sup at N=40 <= 1.25 x sup at N=10 + 2 stderr
    sup10 = series[10].sup()
    i40 = int(np.argmax(series[40].values))
    sup40 = float(series[40].values[i40])
    err40 = float(series[40].stderrs[i40])
    uniform = sup40 <= 1.25 * sup10 + 2.0 * err40

    ok = no_growth and uniform
    report("AC-4", ok,
           f"{'; '.join(trend_detail)}; sup N=40 {sup40:.4f} vs "
           f"1.25 x sup N=10 {sup10:.4f} + 2x{err40:.4f}")
    assert no_growth
    assert uniform


def test_ac5_exact_math_suites():
    results = run_selftest()
    ok = all(r.passed for r in results)
    report("AC-5", ok, "; ".join(f"{r.name} {'ok' if r.passed else 'FAIL'}"
                                 for r in results))
    assert ok, [r.name for r in results if not r.passed]


def test_ac6_random_pde_residual():
    model = allen_cahn_model(0.5)
    params = SchemeParams(n_modes=10, tau=TAU)
    traj_x, traj_w = [], []

    def recorder(step, x, w):
        traj_x.append(x.copy())
        traj_w.append(w.copy())

    run_path(initial_datum("mix_plus", 10), DESK_STEPS, params,
             model, NoiseStream(SEED, path_index=0), observers=(recorder,))
    residuals = random_pde_residual(traj_x, traj_w, params, model)
    worst = float(np.max(residuals))
    bound = 10.0 * params.newton_tol
    report("AC-6", worst <= bound, f"max residual {worst:.3e} <= {bound:.1e}")
    assert worst <= bound


def test_ac7_byte_identical_replay(tmp_path):
    cfg_path = tmp_path / "desk.cfg"
    cfg_path.write_text(DESK_CONFIG_TEXT, encoding="utf-8")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    rc_a = cli_main(["ergodic", "--config", str(cfg_path), "--output", str(out_a)])
    rc_b = cli_main(["ergodic", "--config", str(cfg_path), "--output", str(out_b)])
    assert rc_a == 0 and rc_b == 0
    bytes_a = (out_a / "time_averages.csv").read_bytes()
    bytes_b = (out_b / "time_averages.csv").read_bytes()
    identical = bytes_a == bytes_b
    report("AC-7", identical,
           f"time_averages.csv {len(bytes_a)} bytes, replay "
           f"{'identical' if identical else 'DIFFERS'}")
    assert identical
