"""Tests of the benchmark itself: tracing, output checks, compare verdicts.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

from spde_ergo import cli  # noqa: E402

import compare  # noqa: E402
from tracing import ROOT as ROOT_SPAN, Tracer, instrumented, layer_metrics, span_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Small versions of the workloads, so each run takes well under a second.
SMALL = {
    "ergodic-paper": dict(paths=12, steps=6),
    "convolution-sweep": dict(paths=6, steps=3),
    "simulate-path": dict(steps=60),
}
SEED = 11
COUNT_METRICS = ("scheme.solve_rows", "scheme.solve_flops_computed",
                 "scheme.newton_iters_per_step",
                 "scheme.residual_evals_per_newton_iter",
                 "scheme.active_path_fraction", "noise.draw_calls", "model.points")


def small(name):
    return dataclasses.replace(WORKLOADS[name], **SMALL[name])


def run(workload, out_dir: Path, tracer=None):
    cfg = out_dir.parent / f"{out_dir.name}.cfg"
    cfg.write_text(workload.config_text(SEED), encoding="utf-8")
    args = [workload.command, "--config", str(cfg), "--output", str(out_dir)]
    if tracer is None:
        return cli.main(args)
    with instrumented(tracer):
        return cli.main(args)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_counts_repeat_exactly(tmp_path, name):
    counts, layers = [], []
    for side in ("a", "b"):
        tracer = Tracer()
        assert run(small(name), tmp_path / side, tracer) == 0
        counts.append(dict(tracer.counts))
        layers.append({k: layer_metrics(tracer)[k] for k in COUNT_METRICS})
    assert counts[0] == counts[1]
    assert layers[0] == layers[1]
    assert counts[0]["engine_solve_calls"] > 0
    assert counts[0]["noise.draw.calls"] > 0


@pytest.mark.parametrize("name", sorted(SMALL))
def test_tracing_does_not_change_results(tmp_path, name):
    assert run(small(name), tmp_path / "plain") == 0
    assert run(small(name), tmp_path / "traced", Tracer()) == 0
    for f in (tmp_path / "plain").iterdir():
        if f.name == "summary.json":
            a = json.loads(f.read_text())
            b = json.loads((tmp_path / "traced" / f.name).read_text())
            a.pop("wall_clock_seconds")
            b.pop("wall_clock_seconds")
            assert a == b
        else:
            assert f.read_bytes() == (tmp_path / "traced" / f.name).read_bytes()


@pytest.mark.parametrize("name", sorted(SMALL))
def test_self_times_partition_the_root_span(tmp_path, name):
    tracer = Tracer()
    assert run(small(name), tmp_path / "out", tracer) == 0
    times = span_times(tracer.spans)
    # A child's time never exceeds its parent's span.
    assert all(self_t >= -1e-9 for _, _, self_t in times)
    for name_, start, end, parent in tracer.spans:
        if parent >= 0:
            p = tracer.spans[parent]
            assert p[1] <= start <= end <= p[2]
    root = [dur for n, dur, _ in times if n == ROOT_SPAN]
    assert len(root) == 1
    m = layer_metrics(tracer)
    own = (m["cli.self_s"] + m["ergodic.self_s"] + m["ergodic.observer_s"]
           + m["scheme.self_s"] + m["scheme.solve_s"] + m["noise.draw_s"]
           + m["model.drift_s"] + m["model.drift_deriv_s"] + m["model.diffusion_s"])
    assert own == pytest.approx(root[0], rel=1e-9)


def test_instrumentation_is_undone(tmp_path):
    import numpy as np

    before = (cli.main, np.linalg.solve, cli.RunConfig.build_model)
    run(small("simulate-path"), tmp_path / "out", Tracer())
    assert (cli.main, np.linalg.solve, cli.RunConfig.build_model) == before


@pytest.mark.parametrize("name", sorted(SMALL))
def test_checks_accept_good_outputs(tmp_path, name):
    w = small(name)
    assert run(w, tmp_path / "out") == 0
    problems, stderr = w.check(tmp_path / "out")
    assert problems == []
    assert stderr > 0


def test_check_rejects_short_trajectory(tmp_path):
    w = small("simulate-path")
    out = tmp_path / "out"
    assert run(w, out) == 0
    lines = (out / "trajectory.csv").read_text().splitlines(keepends=True)
    (out / "trajectory.csv").write_text("".join(lines[:-1]))
    problems, _ = w.check(out)
    assert any("rows" in p for p in problems)


def test_check_rejects_failed_agreement(tmp_path):
    w = small("ergodic-paper")
    out = tmp_path / "out"
    assert run(w, out) == 0
    summary = json.loads((out / "summary.json").read_text())
    summary["agreement"]["all_passed"] = False
    (out / "summary.json").write_text(json.dumps(summary))
    problems, _ = w.check(out)
    assert any("agreement" in p for p in problems)


@pytest.mark.parametrize("parent, change, higher, bound, expected", [
    ([10, 11, 10.5, 10.2, 10.8] * 2, [8, 8.1, 8.2, 7.9, 8] * 2, False, 0.1, "improved"),
    ([10, 11, 10.5, 10.2, 10.8] * 2, [13, 13.5, 13.2, 12.9, 13] * 2, False, 0.1, "worse"),
    ([10, 11, 10.5, 10.2, 10.8] * 2, [10.4, 10.6, 10.5, 10.3, 10.7] * 2, False, 0.1,
     "unchanged"),
    ([5, 15, 8, 12, 10] * 2, [9, 11, 10, 10.5, 9.5] * 2, False, 0.1, "unresolved"),
    ([100, 101, 102] * 4, [120, 121, 122] * 4, True, None, "improved"),
])
def test_compare_verdicts(parent, change, higher, bound, expected):
    assert compare.verdict(parent, change, higher, bound)[0] == expected


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "simulate-path",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
