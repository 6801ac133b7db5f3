"""Ensembles run over the available cores: a lone group as two fixed path
halves, each group of a multi-group call whole.

The units never depend on the worker count, so every output must be the
same for one process and for two.
"""

import json
import os
import pickle
import subprocess
import sys
import textwrap
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import spde_ergo
from spde_ergo import ergodic, scheme
from spde_ergo.cli import main
from spde_ergo.ergodic import (
    EnsembleConfig,
    EnsembleError,
    _FUNCTIONALS,
    run_ensemble,
    run_ensembles,
)
from spde_ergo.model import allen_cahn_model, constant_diffusion, heat_model
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


# Runs the CLI at a pinned worker count: python -c FRESH_CLI <workers> <args>.
FRESH_CLI = textwrap.dedent("""\
    import sys
    from spde_ergo import cli, ergodic

    ergodic._cpu_count = lambda: int(sys.argv[1])
    sys.exit(cli.main(sys.argv[2:]))
    """)


def run_fresh(tmp_path, workers, command, text):
    """Run a command in a fresh interpreter, where no test harness captures
    warnings, and return the finished process."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text, encoding="utf-8")
    return subprocess.run(
        [sys.executable, "-c", FRESH_CLI, str(workers), command, "--config", str(cfg),
         "--output", str(tmp_path / f"{command}-{workers}")],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": SRC})


def test_failure_message_does_not_depend_on_worker_count(tmp_path):
    # Without a harness capturing NumPy's warnings, stderr is the one
    # failure line, whatever the worker count.
    for command in ("convolution", "simulate"):
        errs = []
        for workers in (1, 2):
            proc = run_fresh(tmp_path, workers, command, FAILING)
            assert proc.returncode == 2, proc.stderr
            assert proc.stderr.startswith("numerical failure: "), proc.stderr
            assert proc.stderr.count("\n") == 1, proc.stderr
            errs.append(proc.stderr)
        assert errs[0] == errs[1]
        if command == "convolution":
            assert "initial 'sine', N = 6:" in errs[0]


@pytest.mark.parametrize("command", ["ergodic", "lyapunov"])
def test_truncated_datum_prints_one_warning_line(tmp_path, command):
    # CONFIG runs mix_minus at N = 6; its truncation warning is one plain
    # line, without the library's file name and source line.
    for workers in (1, 2):
        proc = run_fresh(tmp_path, workers, command, CONFIG)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "warning: initial datum mix_minus truncated to 6 modes\n"


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
    # Each path's running time average after steps 1..n, one row per n.
    avg = (np.cumsum(_FUNCTIONALS["norm_sq"](x_ns[1:]), axis=0)
           / np.arange(1, cfg.n_steps + 1)[:, None])
    series = res.time_averages["norm_sq"]
    np.testing.assert_allclose(series.values, avg.mean(axis=1), rtol=1e-14)
    np.testing.assert_allclose(
        series.stderrs, avg.std(axis=1, ddof=1) / np.sqrt(cfg.n_paths), rtol=1e-14)


def test_run_ensembles_equals_one_call_per_config():
    # three groups run whole, each config alone in two halves: equal to
    # round-off, as for a coupled group
    cfgs = [ensemble_cfg(initial=i, n_paths=p, params=SchemeParams(n, 0.05))
            for i, p, n in (("sine", 1, 4), ("mix_minus", 6, 8), ("mix_plus", 3, 12))]
    for a, b in zip(run_ensembles(cfgs), [run_ensemble(c) for c in cfgs]):
        assert a.config == b.config
        np.testing.assert_allclose(a.x_moment.values, b.x_moment.values, rtol=1e-12)
        np.testing.assert_allclose(a.x_moment.stderrs, b.x_moment.stderrs,
                                   rtol=1e-12, atol=1e-16)
        for tag, series in a.time_averages.items():
            np.testing.assert_allclose(series.values, b.time_averages[tag].values,
                                       rtol=1e-12)
            np.testing.assert_allclose(series.stderrs, b.time_averages[tag].stderrs,
                                       rtol=1e-12, atol=1e-16)


def test_sweep_runs_whole_groups_dealt_by_cost(monkeypatch):
    # three groups (one per N) run whole, longest first to the least-loaded
    # process: N = 40 alone, N = 20 and 10 together at W = 2, one process
    # each with more cores; a lone group still runs as two halves, half 0 here
    dealt, run_forked = [], ergodic._run_forked

    def recording(units, shares):
        dealt.append([[(units[h].cfgs[0].params.n_modes, units[h].first, units[h].stop)
                       for h in share] for share in shares])
        return run_forked(units, shares)

    monkeypatch.setattr(ergodic, "_run_forked", recording)
    model = allen_cahn_model(0.5)
    sweep = [ensemble_cfg(model=model, params=SchemeParams(n, 0.05), n_steps=2)
             for n in (10, 20, 40)]
    for workers in (1, 2, 4):
        monkeypatch.setattr(ergodic, "_cpu_count", lambda: workers)
        run_ensembles(sweep)
    run_ensembles(sweep[:1])
    assert dealt == [[[(40, 0, 7), (20, 0, 7), (10, 0, 7)]],
                     [[(40, 0, 7)], [(20, 0, 7), (10, 0, 7)]],
                     [[(40, 0, 7)], [(20, 0, 7)], [(10, 0, 7)]],
                     [[(10, 0, 3)], [(10, 3, 7)]]]


def test_coupled_group_equals_one_call_per_config():
    # the three initial data run as one coupled batch per half
    cfgs = [ensemble_cfg(initial=i) for i in ("sine", "mix_plus", "mix_minus")]
    coupled, alone = run_ensembles(cfgs), [run_ensemble(c) for c in cfgs]
    for a, b in zip(coupled, alone):
        assert a.config == b.config
        pairs = [(a.x_moment, b.x_moment)]
        pairs += [(a.w_moments[beta], b.w_moments[beta]) for beta in a.w_moments]
        pairs += [(a.time_averages[tag], b.time_averages[tag]) for tag in a.time_averages]
        for sa, sb in pairs:
            np.testing.assert_array_equal(sa.steps, sb.steps)
            np.testing.assert_allclose(sa.values, sb.values, rtol=1e-12, atol=0)
            np.testing.assert_allclose(sa.stderrs, sb.stderrs, rtol=1e-12, atol=1e-16)
    # each ensemble of the group reports the group's Newton maxima
    assert max(r.max_newton_iters for r in alone) == coupled[0].max_newton_iters
    assert max(r.max_residual for r in alone) == pytest.approx(coupled[0].max_residual,
                                                               rel=1e-4)


@pytest.mark.parametrize("workers", [1, 2])
def test_failing_coupled_half_reports_each_config_alone(monkeypatch, workers):
    # A state below -2 makes the drift NaN: mix_minus (min -6.3) fails at
    # step 0, sine (max 1) later, once the noise takes it there. The coupled
    # batch stops at step 0; sine must still report its own failure.
    monkeypatch.setattr(ergodic, "_cpu_count", lambda: workers)
    model = replace(heat_model(constant_diffusion(3.0)),
                    drift=lambda u: np.where(u < -2.0, np.nan, -u),
                    drift_deriv=lambda u: -np.ones_like(u))
    cfgs = [ensemble_cfg(initial=i, model=model, n_steps=40) for i in ("sine", "mix_minus")]
    causes = []
    for order in (cfgs, cfgs[::-1]):
        with pytest.raises(EnsembleError) as coupled:
            run_ensembles(order)
        with pytest.raises(EnsembleError) as alone:
            run_ensemble(order[0])
        assert str(coupled.value) == str(alone.value)
        assert coupled.value.label == alone.value.label
        causes.append(coupled.value.cause)
    sine, mix_minus = causes
    assert mix_minus.step == 0 < sine.step


@pytest.mark.parametrize("workers", [1, 2])
def test_first_failure_in_config_order_at_smallest_step_and_path(monkeypatch, workers):
    # Keyed by (initial, first path of the half); the halves are [0, 3), [3, 7).
    # A coupled batch raises the failure of its first failing config, and
    # each config run alone raises its own.
    failures = {("mix_plus", 0): NonConvergenceError(1.0, 3, step=4, path=1),
                ("mix_plus", 3): NonConvergenceError(1.0, 3, step=2, path=5),
                ("mix_minus", 0): NonConvergenceError(1.0, 3, step=10, path=1),
                ("mix_minus", 3): SingularLinearSolveError(step=2, path=5)}
    run_batch = ergodic._run_batch

    def failing(half):
        for cfg in half.cfgs:
            if (cfg.initial, half.first) in failures:
                raise failures[cfg.initial, half.first]
        return run_batch(half)

    monkeypatch.setattr(ergodic, "_run_batch", failing)
    monkeypatch.setattr(ergodic, "_cpu_count", lambda: workers)
    model = allen_cahn_model(0.5)  # one model, so the two form one coupled group
    cfgs = [ensemble_cfg(initial="mix_plus", model=model),
            ensemble_cfg(initial="mix_minus", model=model)]
    with pytest.raises(EnsembleError) as exc:
        run_ensembles(cfgs)
    assert exc.value.label == "initial 'mix_plus', N = 10"
    assert (exc.value.cause.step, exc.value.cause.path) == (2, 5)
    # The singular system at step 2 comes before the non-convergence at step
    # 10, as in one batch of all paths, though it lies in the later half.
    with pytest.raises(EnsembleError, match="initial 'mix_minus', N = 10: singular"
                       " Newton system at path 5, step 2"):
        run_ensembles(cfgs[1:])


def test_blas_held_at_one_thread_and_restored():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    calls = scheme._openblas_threads()
    if calls is None:
        assert "openblas" not in blas, f"no OpenBLAS thread calls found ({blas})"
        pytest.skip(f"numpy's BLAS is {blas}, not OpenBLAS")
    get, set_threads = calls
    old = get()
    set_threads(2)
    try:
        with scheme._one_blas_thread():
            assert get() == 1
        assert get() == 2
        # The engine holds it for every caller, so every W computes alike.
        cfg, seen = ensemble_cfg(n_steps=2), []
        run_paths_vectorized(cfg.initial_coeffs(), 2, cfg.params, cfg.model, 1, 3,
                             observers=(lambda step, x, w: seen.append(get()),))
        assert seen == [1, 1, 1]
        assert get() == 2
    finally:
        set_threads(old)


def test_core_of_binds_only_when_the_workers_take_every_core():
    assert ergodic._core_of(0, 2, {3, 5}) == {3}
    assert ergodic._core_of(1, 2, {3, 5}) == {5}
    assert ergodic._core_of(2, 3, {3, 5}) == {3}
    assert ergodic._core_of(0, 2, {0, 1, 2}) is None


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs CPU affinity calls and two cores")
def test_each_process_runs_on_its_own_core_and_the_mask_comes_back(tmp_path, monkeypatch):
    mask = os.sched_getaffinity(0)
    two = set(sorted(mask)[:2])
    seen, run_half = tmp_path / "cores", ergodic._run_half

    def recording(half):
        with open(seen, "a", encoding="utf-8") as fh:
            fh.write(f"{half.first} {sorted(os.sched_getaffinity(0))}\n")
        return run_half(half)

    monkeypatch.setattr(ergodic, "_run_half", recording)
    os.sched_setaffinity(0, two)
    try:
        run_ensembles([ensemble_cfg()])
        assert os.sched_getaffinity(0) == two
    finally:
        os.sched_setaffinity(0, mask)
    cores = sorted(seen.read_text(encoding="utf-8").splitlines())
    assert cores == [f"0 {sorted(two)[:1]}", f"3 {sorted(two)[1:]}"]


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


@pytest.mark.parametrize("workers", [1, 2])
def test_exception_in_a_half_is_raised_whatever_the_worker_count(monkeypatch, workers):
    # the second half, [3, 7), runs in the forked child at W = 2
    run_half = ergodic._run_half

    def buggy(half):
        if half.first:
            raise KeyError("bug in a half")
        return run_half(half)

    monkeypatch.setattr(ergodic, "_run_half", buggy)
    monkeypatch.setattr(ergodic, "_cpu_count", lambda: workers)
    with pytest.raises(KeyError, match="bug in a half"):
        run_ensembles([ensemble_cfg()])


def test_parent_failure_leaves_no_child(monkeypatch):
    parent, run_half = os.getpid(), ergodic._run_half

    def failing_here(half):
        if os.getpid() == parent:
            raise RuntimeError("parent failed")
        time.sleep(60)  # the child is still running when the parent raises
        return run_half(half)

    monkeypatch.setattr(ergodic, "_run_half", failing_here)
    monkeypatch.setattr(ergodic, "_cpu_count", lambda: 2)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="parent failed"):
        run_ensembles([ensemble_cfg()])
    assert time.monotonic() - start < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_cli_import_leaves_process_pools_unloaded(tmp_path):
    # neither importing the CLI nor a W = 2 run loads a process pool
    pools = "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))\n"
    script = "import sys, spde_ergo.cli\n" + pools
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60, env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG.replace("sine, mix_minus", "sine"), encoding="utf-8")
    run = FRESH_CLI.replace("sys.exit(cli.main(sys.argv[2:]))",
                            "assert cli.main(sys.argv[2:]) == 0\n" + pools)
    proc = subprocess.run([sys.executable, "-c", run, "2", "ergodic", "--config", str(cfg),
                           "--output", str(tmp_path / "out")], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
