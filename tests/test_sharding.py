"""Ensembles run as two fixed path halves over the available cores.

The layout never depends on the worker count, so every output must be the
same for one process and for two.
"""

import json
import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import spde_ergo
from spde_ergo import ergodic
from spde_ergo.cli import main
from spde_ergo.ergodic import (
    EnsembleConfig,
    EnsembleError,
    _FUNCTIONALS,
    run_ensemble,
    run_ensembles,
)
from spde_ergo.model import allen_cahn_model
from spde_ergo.scheme import (
    NonConvergenceError,
    SchemeParams,
    SingularLinearSolveError,
    run_paths_vectorized,
)

SRC = str(Path(spde_ergo.__file__).resolve().parents[1])

# Five paths, so the halves are uneven: [0, 2) and [2, 5).
CONFIG = """\
model.name = allen_cahn
model.epsilon = 0.5
model.diffusion = paper
scheme.n_modes = 6
scheme.tau = 0.05
run.steps = 20
run.paths = 5
run.seed = 11
run.initials = sine, mix_minus
scheme.n_sweep = 6, 12
"""

# The failing sweep leg of test_cli.test_failed_sweep_leg_names_its_n: noise
# of size 1e200 overflows the first step of every leg.
FAILING = CONFIG.replace("run.paths = 5", "run.paths = 4").replace(
    "diffusion = paper", "diffusion = constant:1e200")


def ensemble_cfg(**kw):
    base = dict(params=SchemeParams(n_modes=10, tau=0.05),
                model=allen_cahn_model(0.5), initial="mix_plus",
                n_paths=7, n_steps=15, master_seed=99)
    base.update(kw)
    return EnsembleConfig(**base)


def run_cli(tmp_path, monkeypatch, capsys, workers, command, text):
    monkeypatch.setattr(ergodic, "_cpu_count", lambda: workers)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / f"{command}-{workers}"
    rc = main([command, "--config", str(cfg), "--output", str(out)])
    return rc, out, capsys.readouterr().err


def test_numerical_errors_survive_pickle():
    exc = NonConvergenceError(1.0, 5, step=3, path=7)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is NonConvergenceError
    assert (back.residual, back.iterations, back.step, back.path) == (1.0, 5, 3, 7)
    assert str(back) == str(exc)
    wrapped = EnsembleError("initial 'sine', N = 6", exc)
    back = pickle.loads(pickle.dumps(wrapped))
    assert type(back) is EnsembleError
    assert back.label == "initial 'sine', N = 6"
    assert isinstance(back.cause, NonConvergenceError)
    assert (back.cause.step, back.cause.path) == (3, 7)
    assert str(back) == str(wrapped)
    singular = SingularLinearSolveError(step=2, path=4)
    back = pickle.loads(pickle.dumps(singular))
    assert type(back) is SingularLinearSolveError
    assert (back.step, back.path) == (2, 4)
    assert str(back) == str(singular)


@pytest.mark.parametrize("command", ["ergodic", "lyapunov", "convolution"])
def test_outputs_do_not_depend_on_worker_count(tmp_path, monkeypatch, capsys, command):
    outs = []
    for workers in (1, 2):
        rc, out, _ = run_cli(tmp_path, monkeypatch, capsys, workers, command, CONFIG)
        assert rc == 0
        outs.append(out)
    one, two = outs
    csvs = sorted(p.name for p in one.glob("*.csv"))
    assert csvs and csvs == sorted(p.name for p in two.glob("*.csv"))
    for name in csvs:
        assert (one / name).read_bytes() == (two / name).read_bytes(), name
    summaries = []
    for out in outs:
        summary = json.loads((out / "summary.json").read_text())
        del summary["wall_clock_seconds"]
        summaries.append(summary)
    assert summaries[0] == summaries[1]


def test_failure_message_does_not_depend_on_worker_count(tmp_path, monkeypatch, capsys):
    errs = []
    for workers in (1, 2):
        rc, _, err = run_cli(tmp_path, monkeypatch, capsys, workers, "convolution",
                             FAILING)
        assert rc == 2
        errs.append(err)
    assert "numerical failure" in errs[0] and "initial 'sine', N = 6:" in errs[0]
    assert errs[0] == errs[1]


def test_halves_merge_to_the_one_batch_statistics():
    # The Chan merge of the halves reproduces one batch of all paths.
    cfg = ensemble_cfg()
    x_ns = []
    run_paths_vectorized(cfg.initial_coeffs(), cfg.n_steps, cfg.params, cfg.model,
                         cfg.master_seed, cfg.n_paths,
                         observers=(lambda step, x, w: x_ns.append((x * x).sum(axis=1)),))
    x_ns = np.array(x_ns)
    res = run_ensemble(cfg)
    np.testing.assert_allclose(res.x_moment.values, x_ns.mean(axis=1), rtol=1e-14)
    np.testing.assert_allclose(
        res.x_moment.stderrs, x_ns.std(axis=1, ddof=1) / np.sqrt(cfg.n_paths),
        rtol=1e-12, atol=1e-16)
    avg = np.cumsum(_FUNCTIONALS["norm_sq"](x_ns[1:]), axis=0)[-1] / cfg.n_steps
    np.testing.assert_allclose(res.per_path_finals["norm_sq"], avg, rtol=1e-14)


def test_run_ensembles_equals_one_call_per_config():
    cfgs = [ensemble_cfg(initial=i, n_paths=p, params=SchemeParams(n, 0.05))
            for i, p, n in (("sine", 1, 4), ("mix_minus", 6, 8), ("mix_plus", 3, 12))]
    for a, b in zip(run_ensembles(cfgs), [run_ensemble(c) for c in cfgs]):
        assert a.config == b.config
        np.testing.assert_array_equal(a.x_moment.values, b.x_moment.values)
        np.testing.assert_array_equal(a.x_moment.stderrs, b.x_moment.stderrs)
        for tag in a.per_path_finals:
            np.testing.assert_array_equal(a.per_path_finals[tag],
                                          b.per_path_finals[tag])
        assert len(a.per_path_finals["norm_sq"]) == a.config.n_paths


@pytest.mark.parametrize("workers", [1, 2])
def test_first_failure_in_config_order_at_smallest_step_and_path(monkeypatch, workers):
    # Keyed by (initial, first path of the half); the halves are [0, 3), [3, 7).
    failures = {("mix_plus", 0): NonConvergenceError(1.0, 3, step=4, path=1),
                ("mix_plus", 3): NonConvergenceError(1.0, 3, step=2, path=5),
                ("mix_minus", 0): NonConvergenceError(1.0, 3, step=10, path=1),
                ("mix_minus", 3): SingularLinearSolveError(step=2, path=5)}
    run_half = ergodic._run_half

    def failing(half):
        return failures.get((half.cfg.initial, half.first)) or run_half(half)

    monkeypatch.setattr(ergodic, "_run_half", failing)
    monkeypatch.setattr(ergodic, "_cpu_count", lambda: workers)
    cfgs = [ensemble_cfg(initial="mix_plus"), ensemble_cfg(initial="mix_minus")]
    with pytest.raises(EnsembleError) as exc:
        run_ensembles(cfgs)
    assert exc.value.label == "initial 'mix_plus', N = 10"
    assert (exc.value.cause.step, exc.value.cause.path) == (2, 5)
    # The singular system at step 2 comes before the non-convergence at step
    # 10, as in one batch of all paths, though it lies in the later half.
    with pytest.raises(EnsembleError, match="initial 'mix_minus', N = 10: singular"
                       " Newton system at path 5, step 2"):
        run_ensembles(cfgs[1:])


def test_blas_held_at_one_thread_and_restored(monkeypatch):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    calls = ergodic._openblas_threads()
    if calls is None:
        assert "openblas" not in blas, f"no OpenBLAS thread calls found ({blas})"
        pytest.skip(f"numpy's BLAS is {blas}, not OpenBLAS")
    get, set_threads = calls
    old = get()
    set_threads(2)
    try:
        with ergodic._one_blas_thread():
            assert get() == 1
        assert get() == 2
        # run_ensembles holds it in-process too, so every W computes alike.
        seen, run_half = [], ergodic._run_half
        monkeypatch.setattr(ergodic, "_run_half",
                            lambda half: seen.append(get()) or run_half(half))
        monkeypatch.setattr(ergodic, "_cpu_count", lambda: 1)
        run_ensemble(ensemble_cfg(n_steps=2))
        assert seen == [1, 1]
        assert get() == 2
    finally:
        set_threads(old)


def test_dead_worker_fails_loudly(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG.replace("sine, mix_minus", "sine"), encoding="utf-8")
    script = textwrap.dedent("""\
        import os, sys
        from spde_ergo import cli, ergodic

        parent, run_half = os.getpid(), ergodic._run_half

        def dying(half):
            if os.getpid() != parent:
                os._exit(1)
            return run_half(half)

        ergodic._run_half = dying
        ergodic._cpu_count = lambda: 2
        sys.exit(cli.main(sys.argv[1:]))
        """)
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run(
        [sys.executable, "-c", script, "ergodic", "--config", str(cfg),
         "--output", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode != 0
    assert "ensemble run failed (initial 'sine', N = 6:" in proc.stderr


def test_cli_import_leaves_process_pools_unloaded():
    script = ("import sys, spde_ergo.cli\n"
              "print(sorted({'multiprocessing', 'concurrent.futures.process'}"
              " & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60, env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
