import json
from dataclasses import replace
from pathlib import Path

import pytest

from spde_ergo.cli import (
    PAPER_PRESET,
    SEED_ENV_VAR,
    ConfigError,
    RunConfig,
    main,
    parse_config,
    serialize_config,
)

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
    full = replace(cfg, noise_modes=4, quadrature=64, n_sweep=(6, 12),
                   burn_in=5)
    assert parse_config(serialize_config(full)) == full


def test_paper_preset_parses():
    cfg = parse_config(PAPER_PRESET)
    assert cfg.paths == 1000
    assert cfg.steps == 2000
    assert cfg.seed == 2024
    assert cfg.n_modes == 10
    assert cfg.initials == ("sine", "mix_plus", "mix_minus")
    assert cfg.directory == "out_paper"


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
    ("scheme.noise_modes = 0", "scheme.noise_modes"),
    ("scheme.newton_tol = 0", "scheme.newton_tol"),
    ("scheme.newton_tol = nan", "scheme.newton_tol"),
    ("scheme.newton_tol = inf", "scheme.newton_tol"),
    ("scheme.newton_max_iter = 0", "scheme.newton_max_iter"),
    # Q = 50 clears the N = 10 floor but not the N = 20 one.
    ("scheme.quadrature = 50\nscheme.n_sweep = 10, 20", "scheme.quadrature for N = 20"),
])
def test_bad_scheme_value_rejected_before_any_run(tmp_path, capsys, extra, message):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, TINY + extra + "\n")
    assert main(["convolution", "--config", cfg, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert not out.exists()


@pytest.mark.parametrize("epsilon", ["inf", "1e200", "nan"])
def test_degenerate_epsilon_rejected_before_any_run(tmp_path, capsys, epsilon):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, TINY.replace("epsilon = 0.5", f"epsilon = {epsilon}"))
    assert main(["ergodic", "--config", cfg, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "epsilon" in err
    assert not out.exists()


def test_unknown_initial_rejected():
    with pytest.raises(ConfigError, match="unknown initial"):
        parse_config(TINY.replace("sine, mix_minus", "cosine"))


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


def test_default_config_is_valid():
    cfg = parse_config(serialize_config(RunConfig()))
    assert cfg == RunConfig()
