"""spde-ergo benchmark: one workload, closed loop, fresh interpreter per run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload ergodic-paper --seed 2024 \
        --seconds 60 --trace 0 [--save DIR]

One client starts each workload run only after the previous one finished,
for ``--seconds`` seconds. Every run is a fresh interpreter (child.py) that
calls ``spde_ergo.cli.main`` on a config generated from the seed, with the
BLAS thread count pinned to 1. The outputs of every run are checked. With
``--trace 0`` the last line of stdout holds the end-to-end metrics; with
``--trace 1`` untraced and traced runs alternate and it holds the per-layer
metrics. The line before it holds the machine and run facts. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import TARGET_STDERR, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BLAS_THREADS = 1
# Set-up-only children after each untraced workload run. One set-up
# sample is ~0.1 s and swings by +-25 % from one child to the next, so
# its median needs many more samples than the workload runs give.
SETUP_PROBES = 2
# Every child must end by then, so the whole run ends within 180 s.
DEADLINE_S = 160.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--save", type=Path,
                   help="directory to write the full result record into")
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**40:
        p.error("--seed must lie in [0, 2**40)")
    return args


def run_seed(seed: int, index: int) -> int:
    """run.seed of the index-th workload run of a benchmark run."""
    return seed * 1000 + index


def machine_facts() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SPDE_ERGO_SEED", None)  # it would override run.seed
    # Set-up is timed with warm bytecode, cached inside the checkout.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONPYCACHEPREFIX=str(BENCH_DIR / ".work" / "pycache"),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
        OMP_NUM_THREADS=str(BLAS_THREADS),
        MKL_NUM_THREADS=str(BLAS_THREADS),
    )
    return env


class Runner:
    """Starts child interpreters one at a time and collects their records."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.env = child_env()
        self.deadline = deadline
        self.count = 0
        self.timed_out = False

    def child(self, config: Path, *extra: str) -> dict:
        """Record of one child; raises RuntimeError if it did not finish."""
        self.count += 1
        result = self.work / f"child-{self.count}.json"
        log = self.work / f"child-{self.count}.log"
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(result),
               str(config), *extra]
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(log, "wb") as fh:
            proc = subprocess.Popen(cmd, cwd=self.work, env=self.env,
                                    stdout=fh, stderr=subprocess.STDOUT)
            try:
                code = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.timed_out = True
                raise RuntimeError(f"child timed out after {timeout:.0f} s")
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if code != 0 or not result.exists():
            tail = log.read_text(errors="replace")[-2000:]
            raise RuntimeError(f"child exited with {code}: {tail}")
        return json.loads(result.read_text())


def workload_run(runner: Runner, workload, seed: int, index: int,
                 traced: bool) -> dict:
    """One checked workload run; 'problems' lists what went wrong."""
    tag = f"{index}-{'t' if traced else 'u'}"
    config = runner.work / f"run-{tag}.cfg"
    config.write_text(workload.config_text(run_seed(seed, index)), encoding="utf-8")
    out_dir = runner.work / f"out-{tag}"
    sample = {"index": index, "traced": traced, "problems": []}
    try:
        rec = runner.child(config, workload.command, str(out_dir),
                           *(["--trace"] if traced else []))
    except RuntimeError as exc:
        sample["problems"].append(str(exc))
        return sample
    sample.update(rec)
    if not Path(rec["spde_ergo_file"]).resolve().is_relative_to(ROOT / "src"):
        sample["problems"].append(f"imported {rec['spde_ergo_file']}, not the checkout")
    if rec["rc"] != 0:
        sample["problems"].append(f"cli.main returned {rec['rc']}")
    else:
        try:
            problems, stderr = workload.check(out_dir)
        except (OSError, ValueError, KeyError) as exc:
            problems, stderr = [f"unreadable output: {exc!r}"], None
        sample["problems"].extend(problems)
        sample["stderr"] = stderr
        sample["output_bytes"] = sum(f.stat().st_size for f in out_dir.iterdir())
    shutil.rmtree(out_dir, ignore_errors=True)
    return sample


def measure(args, work: Path) -> tuple[list[float], list[dict]]:
    workload = WORKLOADS[args.workload]
    start = time.monotonic()
    runner = Runner(work, start + DEADLINE_S)
    setup_cfg = work / "setup.cfg"
    setup_cfg.write_text(workload.config_text(run_seed(args.seed, 0)),
                         encoding="utf-8")
    runner.child(setup_cfg)  # warm-up: fills the bytecode cache

    setups: list[float] = []
    samples: list[dict] = []
    durations: list[float] = []
    loop_start = time.monotonic()
    index = 0
    while True:
        t0 = time.monotonic()
        if args.trace:
            # Alternate which side of the pair runs first.
            order = (False, True) if index % 2 == 0 else (True, False)
        else:
            order = (False,)
        for traced in order:
            samples.append(workload_run(runner, workload, args.seed, index, traced))
        if not args.trace:
            setups += [runner.child(setup_cfg)["setup_s"] for _ in range(SETUP_PROBES)]
        durations.append(time.monotonic() - t0)
        index += 1
        now = time.monotonic()
        if (runner.timed_out
                or now - loop_start + statistics.median(durations) > args.seconds
                or now - start + 2 * max(durations) > DEADLINE_S):
            break
    return setups, samples


def end_to_end(workload, setups: list[float], ok: list[dict],
               attempted: int, failed: int) -> dict:
    wall = statistics.median(s["wall_s"] for s in ok)
    # The runs' seeds differ, so together they form one ensemble of
    # len(ok) x paths; its variance is the mean of the runs' variances.
    var = statistics.fmean(s["stderr"] ** 2 for s in ok)
    return {
        "wall_s": wall,
        "path_steps_per_s": workload.path_steps / wall,
        "setup_s": statistics.median(setups + [s["setup_s"] for s in ok]),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in ok),
        "time_to_stderr_s": wall * var / TARGET_STDERR**2,
        "ok_ops_share": (attempted - failed) / attempted,
    }


def per_layer(ok: list[dict]) -> dict:
    traced = [s for s in ok if s["traced"]]
    plain = [s for s in ok if not s["traced"]]
    values = {name: statistics.median(s["layers"][name] for s in traced)
              for name in traced[0]["layers"]}
    values["cli.output_bytes"] = statistics.median(s["output_bytes"] for s in traced)
    values["trace_overhead_share"] = (
        statistics.median(s["wall_s"] for s in traced)
        / statistics.median(s["wall_s"] for s in plain) - 1.0)
    return values


def with_units(values: dict, spec: list[dict]) -> dict:
    """Metrics in BENCHMARK.json order, with the units it declares."""
    if set(values) != {m["name"] for m in spec}:
        raise RuntimeError(f"metrics {sorted(values)} differ from BENCHMARK.json")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def main(argv=None) -> int:
    args = parse_args(argv)
    # Let `finally` blocks stop the running child on SIGTERM too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "spde_ergo" / "__init__.py").is_file():
        print(f"error: no spde_ergo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    facts = machine_facts()
    facts.update(started_unix=time.time(), workload=args.workload,
                 seed=args.seed, seconds=args.seconds,
                 trace=args.trace, steps=workload.steps, paths=workload.paths,
                 load_avg_1min_before=os.getloadavg()[0])
    work = BENCH_DIR / ".work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setups, samples = measure(args, work)
    except RuntimeError as exc:
        print(f"error: set-up probe failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    facts["load_avg_1min_after"] = os.getloadavg()[0]

    failed = sum(1 for s in samples if s["problems"])
    ok = [s for s in samples if not s["problems"]]
    attempted = len(samples)
    for s in samples:
        for problem in s["problems"]:
            print(f"run {s['index']} failed: {problem}", file=sys.stderr)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    needs = {True, False} if args.trace else {False}
    if not needs <= {s["traced"] for s in ok}:
        metrics = {}
    elif args.trace:
        metrics = with_units(per_layer(ok), spec["per_layer"])
    else:
        metrics = with_units(end_to_end(workload, setups, ok, attempted, failed),
                             spec["end_to_end"])
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    if args.save:
        args.save.mkdir(parents=True, exist_ok=True)
        stamp = time.strftime("%Y%m%dT%H%M%S")
        record = {"facts": facts, "setup_samples": setups, "samples": samples,
                  "result": result}
        path = args.save / f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}-{os.getpid()}.json"
        path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({"facts": facts}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
