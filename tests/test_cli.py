import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

from spde_ergo import run_ensemble, scheme, selftest
from spde_ergo.cli import (
    PAPER_PRESET,
    SEED_ENV_VAR,
    _SCHEMA,
    ConfigError,
    RunConfig,
    main,
    parse_config,
    serialize_config,
)
from spde_ergo.ergodic import initial_datum
from spde_ergo.noise import NoiseStream
from spde_ergo.scheme import random_pde_residual, run_path

TINY = """\
model.name = allen_cahn
model.epsilon = 0.5
model.diffusion = paper
scheme.n_modes = 6
scheme.tau = 0.05
run.steps = 20
run.paths = 4
run.seed = 11
run.initials = sine, mix_minus
"""

SINGLE_INITIAL = TINY.replace("sine, mix_minus", "sine")

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def write_cfg(tmp_path, text=TINY, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_parse_minimal_config():
    cfg = parse_config(TINY)
    assert cfg.n_modes == 6
    assert cfg.tau == 0.05
    assert cfg.steps == 20
    assert cfg.paths == 4
    assert cfg.seed == 11
    assert cfg.initials == ("sine", "mix_minus")
    # untouched fields keep their defaults
    assert cfg.newton_tol == 1e-10
    assert cfg.moment_betas == (0.0, 0.25, 0.4)


def test_serialize_parse_round_trip():
    cfg = parse_config(TINY)
    assert parse_config(serialize_config(cfg)) == cfg
    full = replace(cfg, n_sweep=(6, 12), burn_in=5)
    assert parse_config(serialize_config(full)) == full


def test_paper_preset_parses():
    cfg = parse_config(PAPER_PRESET)
    assert cfg.paths == 1000
    assert cfg.steps == 2000
    assert cfg.seed == 2024
    assert cfg.n_modes == 10
    assert cfg.initials == ("sine", "mix_plus", "mix_minus")
    assert cfg.directory == "out_paper"


@pytest.mark.parametrize("name", ["desk.cfg", "paper.cfg"])
def test_shipped_configs_parse(name):
    cfg = parse_config((CONFIGS / name).read_text(encoding="utf-8"))
    assert cfg.initials == ("sine", "mix_plus", "mix_minus")


def test_paper_cfg_matches_preset():
    # configs/paper.cfg and PAPER_PRESET are two copies of one preset.
    text = (CONFIGS / "paper.cfg").read_text(encoding="utf-8")
    assert parse_config(text) == parse_config(PAPER_PRESET)


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(TINY + "scheme.bogus = 3\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config(TINY + "scheme.tau = 0.01\n")


def test_bad_value_reports_line_number():
    text = TINY.replace("scheme.tau = 0.05", "scheme.tau = fast")
    with pytest.raises(ConfigError, match="line 5"):
        parse_config(text)


def test_tau_out_of_range_rejected():
    with pytest.raises(ConfigError, match=r"tau must lie in \(0, 1\)"):
        parse_config(TINY.replace("tau = 0.05", "tau = 1.5"))


def test_step_constraint_enforced_at_parse_time():
    # epsilon = 0.1 gives K1 = 100, so tau = 0.05 violates (K1 - lam1) tau < 1
    with pytest.raises(ConfigError, match="monotone"):
        parse_config(TINY.replace("epsilon = 0.5", "epsilon = 0.1"))


def test_empty_document_lists_all_required_keys():
    with pytest.raises(ConfigError) as exc:
        parse_config("# nothing here\n")
    text = str(exc.value)
    for key in ("model.name", "scheme.n_modes", "scheme.tau",
                "run.steps", "run.paths", "run.seed"):
        assert key in text


def test_errors_are_collected_not_first_only():
    bad = "scheme.tau = nope\nmystery = 1\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(bad)
    assert len(exc.value.messages) >= 3  # parse error, unknown key, missing keys


@pytest.mark.parametrize("extra, message", [
    ("scheme.newton_tol = 0", "scheme.newton_tol"),
    ("scheme.newton_tol = nan", "scheme.newton_tol"),
    ("scheme.newton_tol = inf", "scheme.newton_tol"),
    # N fixes the noise modes and the quadrature; neither is a key.
    ("scheme.noise_modes = 10", "unknown key"),
    ("scheme.quadrature = 64", "unknown key"),
])
def test_bad_scheme_value_rejected_before_any_run(tmp_path, capsys, extra, message):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, TINY + extra + "\n")
    assert main(["convolution", "--config", cfg, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    # TINY has 9 lines, so the first extra key is set on line 10
    assert "config error" in err and f"line 10: {message}" in err
    assert not out.exists()


@pytest.mark.parametrize("epsilon", ["inf", "1e200", "nan"])
def test_degenerate_epsilon_rejected_before_any_run(tmp_path, capsys, epsilon):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, TINY.replace("epsilon = 0.5", f"epsilon = {epsilon}"))
    assert main(["ergodic", "--config", cfg, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "line 2: model.epsilon" in err
    assert not out.exists()


@pytest.mark.parametrize("old, new, key", [
    ("diffusion = paper", "diffusion = constant:abc", "model.diffusion"),
    ("diffusion = paper", "diffusion = brownian", "model.diffusion"),
    ("diffusion = paper", "diffusion = constant:nan", "line 3: model.diffusion"),
    ("diffusion = paper", "diffusion = constant:inf", "line 3: model.diffusion"),
    ("name = allen_cahn", "name = burgers", "model.name"),
], ids=["constant-abc", "unknown-diffusion", "constant-nan", "constant-inf",
        "unknown-name"])
def test_bad_model_spec_names_its_key(tmp_path, capsys, old, new, key):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, TINY.replace(old, new))
    assert main(["ergodic", "--config", cfg, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and key in err
    assert not out.exists()


@pytest.mark.parametrize("command, text, key", [
    ("ergodic", TINY.replace("sine, mix_minus", "sine, sine"), "run.initials"),
    ("ergodic", TINY.replace("sine, mix_minus", ""), "run.initials"),
    ("ergodic", TINY + "run.functionals =\n", "run.functionals"),
    ("ergodic", TINY + "run.functionals = norm_sq, norm_sq\n", "run.functionals"),
    ("convolution", TINY + "run.moment_betas =\n", "run.moment_betas"),
    ("convolution", TINY + "run.moment_betas = 0.25, 0.25\n", "run.moment_betas"),
    ("convolution", TINY + "scheme.n_sweep = 6, 6\n", "scheme.n_sweep"),
    ("convolution", TINY + "scheme.n_sweep = ,\n", "scheme.n_sweep"),
], ids=["initials-repeated", "initials-empty", "functionals-empty",
        "functionals-repeated", "betas-empty", "betas-repeated",
        "n_sweep-repeated", "n_sweep-empty"])
def test_empty_or_repeated_list_rejected_before_any_run(tmp_path, capsys, command,
                                                        text, key):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, text)
    assert main([command, "--config", cfg, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and key in err
    assert not out.exists()


def test_heat_model_ignores_epsilon(tmp_path):
    # Only the Allen-Cahn drift reads epsilon.
    text = SINGLE_INITIAL.replace("name = allen_cahn", "name = heat").replace(
        "epsilon = 0.5", "epsilon = -1")
    out = tmp_path / "out"
    assert main(["ergodic", "--config", write_cfg(tmp_path, text),
                 "--output", str(out)]) == 0
    assert (out / "summary.json").exists()


OVERFLOWING = TINY.replace("diffusion = paper", "diffusion = constant:1e200")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_failed_sweep_leg_names_its_n(tmp_path, capsys):
    # noise of size 1e200 overflows the first step of every leg
    text = OVERFLOWING + "scheme.n_sweep = 6, 12\n"
    out = tmp_path / "out"
    assert main(["convolution", "--config", write_cfg(tmp_path, text),
                 "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err and "initial 'sine', N = 6:" in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command", ["convolution", "simulate", "ergodic"])
def test_overflowing_noise_fails_without_writing_nan(tmp_path, capsys, command):
    # an overflowed residual is inf and so is its round-off floor; the run
    # must fail naming the step, not accept the row and write NaN moments
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, OVERFLOWING + "scheme.n_sweep = 6, 12\n")
    assert main([command, "--config", cfg, "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert "Newton failed at path 0, step 0: residual inf" in err
    written = [p.read_text(encoding="utf-8") for p in out.rglob("*") if p.is_file()]
    assert not any("nan" in text.lower() for text in written)


def test_unknown_initial_rejected():
    with pytest.raises(ConfigError, match="line 9: run.initials: unknown initial"):
        parse_config(TINY.replace("sine, mix_minus", "cosine"))


def test_semantic_errors_name_key_and_line():
    text = (TINY.replace("run.steps = 20", "run.steps = 0")
            + "run.functionals = norm_sq, cosh\nrun.moment_betas = 0, 0.5\n")
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert exc.value.messages == [
        "line 6: run.steps must be >= 1",
        # run.burn_in is left at its default, so it has no line
        "run.burn_in must satisfy 0 <= burn_in < steps",
        "line 10: run.functionals: unknown functional 'cosh'",
        "line 11: run.moment_betas entries must lie in [0, 1/2), got 0.5",
    ]


def test_constant_diffusion_spec():
    cfg = parse_config(TINY.replace("diffusion = paper", "diffusion = constant:0.5"))
    g, k6 = cfg.build_diffusion()
    assert k6 == 0.5
    import numpy as np

    assert g(np.array(3.0)) == 0.5


def test_seed_env_override(monkeypatch):
    cfg = parse_config(TINY)
    assert cfg.effective_seed() == 11
    monkeypatch.setenv(SEED_ENV_VAR, "777")
    assert cfg.effective_seed() == 777


@pytest.mark.parametrize("value", ["-5", "abc", str(2**64)])
def test_bad_seed_env_rejected_at_load_time(tmp_path, monkeypatch, capsys, value):
    monkeypatch.setenv(SEED_ENV_VAR, value)
    out = tmp_path / "out"
    assert main(["ergodic", "--config", write_cfg(tmp_path), "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and SEED_ENV_VAR in err
    assert not out.exists()


def test_cmd_ergodic_outputs(tmp_path):
    out = tmp_path / "out"
    rc = main(["ergodic", "--config", write_cfg(tmp_path), "--output", str(out)])
    assert rc == 0
    csv = (out / "time_averages.csv").read_text().splitlines()
    assert csv[0] == "step,t,functional,initial,running_avg,stderr"
    # 20 recorded steps x 3 functionals x 2 initials
    assert len(csv) == 1 + 20 * 3 * 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seed"] == 11
    assert set(summary["finals"]) == {"sine", "mix_minus"}
    assert "all_passed" in summary["agreement"]


def test_cmd_ergodic_single_initial_skips_agreement(tmp_path):
    out = tmp_path / "out"
    rc = main(["ergodic", "--config", write_cfg(tmp_path, SINGLE_INITIAL),
               "--output", str(out)])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["agreement"] == {"status": "single-initial, skipped"}


def test_cmd_ergodic_replay_is_byte_identical(tmp_path):
    cfg_path = write_cfg(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["ergodic", "--config", cfg_path, "--output", str(out_a)]) == 0
    assert main(["ergodic", "--config", cfg_path, "--output", str(out_b)]) == 0
    assert ((out_a / "time_averages.csv").read_bytes()
            == (out_b / "time_averages.csv").read_bytes())


# Last data row of each CSV that the four run commands write on TINY.
GOLDEN_LAST_ROWS = {
    "ergodic/time_averages.csv":
        "20,1,sin_norm_sq,sine,0.30874872567180217,0.045100425364427134",
    "lyapunov/moments_sine.csv":
        "x_norm_sq,6,0,20,1,0.3436728826765944,0.17836243259015944",
    "lyapunov/moments_mix_minus.csv":
        "x_norm_sq,6,0,20,1,0.34359293480393138,0.17825404476927206",
    "convolution/moments.csv":
        "w_sobolev_sq,6,0.40000000000000002,20,1,1.1893754705985253,0.64248781846275382",
    "simulate/trajectory.csv":
        "20,1,6,-0.0088174626059032805,-0.0079899490174023865",
    "simulate/residuals.csv": "20,1.6110213222030815e-14",
}


def test_outputs_match_golden_values(tmp_path):
    """Pin the (seed, config) -> output contract across changes to the code.

    Numbers are compared with rtol 1e-10, not bit for bit: the BLAS
    reduction order can move the last bits (5.8e-12 relative has been seen
    on a stderr column). The random-PDE residual sits at round-off, so only
    its scale is pinned.
    """
    cfg = write_cfg(tmp_path)
    for command in ("ergodic", "lyapunov", "convolution", "simulate"):
        assert main([command, "--config", cfg, "--output",
                     str(tmp_path / command)]) == 0
    for name, golden in GOLDEN_LAST_ROWS.items():
        got = (tmp_path / name).read_text().splitlines()[-1].split(",")
        want = golden.split(",")
        assert len(got) == len(want), name
        for g, w in zip(got, want):
            try:
                w_num = float(w)
            except ValueError:
                assert g == w, name
                continue
            tol = 1e-13 if name.endswith("residuals.csv") else 0.0
            assert float(g) == pytest.approx(w_num, rel=1e-10, abs=tol), name


@pytest.mark.parametrize("command", ["ergodic", "lyapunov", "convolution"])
def test_summary_reports_worst_newton_over_ensembles(tmp_path, command):
    text = TINY + "scheme.n_sweep = 6, 12\n"
    out = tmp_path / "out"
    assert main([command, "--config", write_cfg(tmp_path, text),
                 "--output", str(out)]) == 0
    cfg = parse_config(text)
    model = cfg.build_model()
    if command == "convolution":
        ensembles = [cfg.ensemble_config("sine", model, n_modes=n) for n in (6, 12)]
    else:
        ensembles = [cfg.ensemble_config(i, model) for i in cfg.initials]
    results = [run_ensemble(e) for e in ensembles]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["newton"] == {
        "max_iters": max(r.max_newton_iters for r in results),
        "max_residual": max(r.max_residual for r in results)}
    assert 1 <= summary["newton"]["max_iters"] < scheme._MAX_ITER
    assert 0 < summary["newton"]["max_residual"] <= cfg.newton_tol


def test_cmd_lyapunov_outputs(tmp_path):
    out = tmp_path / "out"
    rc = main(["lyapunov", "--config", write_cfg(tmp_path), "--output", str(out)])
    assert rc == 0
    for initial in ("sine", "mix_minus"):
        lines = (out / f"moments_{initial}.csv").read_text().splitlines()
        assert lines[0] == "series,N,beta,step,t,mean,stderr"
        assert len(lines) == 1 + 21  # steps 0..20
        assert lines[1].startswith("x_norm_sq,6,0,0,0,")
    summary = json.loads((out / "summary.json").read_text())
    assert summary["gamma"] > 0
    assert all(r["passed"] for r in summary["reports"].values())


def test_cmd_convolution_sweep(tmp_path):
    text = TINY + "scheme.n_sweep = 6, 12\nrun.moment_betas = 0, 0.4\n"
    out = tmp_path / "out"
    rc = main(["convolution", "--config", write_cfg(tmp_path, text),
               "--output", str(out)])
    assert rc == 0
    lines = (out / "moments.csv").read_text().splitlines()
    assert lines[0] == "series,N,beta,step,t,mean,stderr"
    assert len(lines) == 1 + 2 * 2 * 21  # two N, two betas, steps 0..20
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary["uniformity"]["n_ratio"]) == {"beta=0", "beta=0.40000000000000002"}


def test_cmd_convolution_names_its_initial(tmp_path):
    # convolution runs the first listed initial datum and says which
    text = TINY.replace("sine, mix_minus", "mix_minus, sine")
    out = tmp_path / "out"
    assert main(["convolution", "--config", write_cfg(tmp_path, text),
                 "--output", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["initial"] == "mix_minus"


def test_cmd_simulate_outputs(tmp_path):
    out = tmp_path / "out"
    rc = main(["simulate", "--config", write_cfg(tmp_path), "--output", str(out)])
    assert rc == 0
    traj = (out / "trajectory.csv").read_text().splitlines()
    assert traj[0] == "step,t,mode,x_coeff,w_coeff"
    assert len(traj) == 1 + 21 * 6  # steps 0..20, 6 modes
    res = (out / "residuals.csv").read_text().splitlines()
    assert res[0] == "step,residual"
    assert len(res) == 1 + 20
    summary = json.loads((out / "summary.json").read_text())
    assert summary["max_residual"] <= 10 * 1e-10


def test_cmd_simulate_rows_equal_a_direct_run_path_recording(tmp_path):
    out = tmp_path / "out"
    assert main(["simulate", "--config", write_cfg(tmp_path), "--output", str(out)]) == 0
    cfg = parse_config(TINY)
    model, params = cfg.build_model(), cfg.build_params()
    traj_x, traj_w = [], []

    def rec(step, x, w):
        traj_x.append(x.copy())
        traj_w.append(w.copy())

    run_path(initial_datum(cfg.initials[0], cfg.n_modes), cfg.steps, params, model,
             NoiseStream(cfg.effective_seed()), observers=(rec,))

    def data_rows(name):
        lines = (out / name).read_text().splitlines()[1:]
        return [tuple(float(v) for v in line.split(",")) for line in lines]

    # .17g text reads back as the exact double, so the rows compare exactly.
    assert data_rows("trajectory.csv") == [
        (step, step * cfg.tau, mode + 1, x[mode], w[mode])
        for step, (x, w) in enumerate(zip(traj_x, traj_w))
        for mode in range(cfg.n_modes)]
    residuals = random_pde_residual(traj_x, traj_w, params, model)
    assert data_rows("residuals.csv") == [(j + 1, r) for j, r in enumerate(residuals)]


@pytest.mark.parametrize("sweep", ["scheme.n_sweep = 6, 12\n", ""],
                         ids=["sweep", "single-n"])
def test_zero_noise_convolution_reports_null_ratios(tmp_path, sweep):
    # W stays 0, so every trend and N ratio has a zero denominator
    text = TINY.replace("diffusion = paper", "diffusion = zero") + sweep
    out = tmp_path / "out"
    assert main(["convolution", "--config", write_cfg(tmp_path, text),
                 "--output", str(out)]) == 0

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    uniformity = json.loads((out / "summary.json").read_text(),
                            parse_constant=reject)["uniformity"]
    assert uniformity["trend_ratio"]
    assert all(v is None for v in uniformity["trend_ratio"].values())
    assert all(v is None for v in uniformity["n_ratio"].values())
    assert bool(uniformity["n_ratio"]) == bool(sweep)


def test_exit_code_config_error(tmp_path, capsys):
    bad = write_cfg(tmp_path, "model.name = allen_cahn\n")
    assert main(["ergodic", "--config", bad]) == 1
    assert "config error" in capsys.readouterr().err


def test_exit_code_missing_file():
    assert main(["ergodic", "--config", "/nonexistent/path.cfg"]) == 1


def test_paper_and_config_are_exclusive(tmp_path):
    assert main(["ergodic", "--paper", "--config", write_cfg(tmp_path)]) == 1


def test_selftest_command(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "all suites passed" in out
    assert "FAIL" not in out


def test_selftest_reports_a_raising_suite_and_runs_the_rest(monkeypatch, capsys):
    def boom(rng):
        raise RuntimeError("boom")

    suites = list(selftest._SUITES)
    suites[1] = (suites[1][0], boom)
    monkeypatch.setattr(selftest, "_SUITES", tuple(suites))
    assert main(["selftest"]) == 3
    out = capsys.readouterr().out
    assert f"FAIL  {suites[1][0]}: RuntimeError: boom" in out
    assert out.count("PASS") == len(suites) - 1
    assert "FAILURES detected" in out


def test_readme_key_table_lists_every_schema_key():
    # The key table runs from its "| key |" header to the first blank line;
    # a combined row such as `run.steps` / `run.paths` counts each key, and
    # each key is listed once.
    readme = (CONFIGS.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("| key |", 1)[1].split("\n\n", 1)[0]
    documented = [key for line in table.splitlines()[2:]
                  for key in re.findall(r"`(\w+\.\w+)`", line.split("|")[1])]
    assert sorted(documented) == sorted(_SCHEMA)


def test_default_config_is_valid():
    cfg = parse_config(serialize_config(RunConfig()))
    assert cfg == RunConfig()
