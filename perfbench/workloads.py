"""The benchmark's workloads: config generation and output checks.

Each workload is one ``spde-ergo`` subcommand on a generated config. The
checks read only the files the subcommand writes and never compare against
golden trajectories, so they keep holding when the noise stream changes.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

# Standard error that ``time_to_stderr_s`` projects to.
TARGET_STDERR = 1e-3
# Steps per batch for the batch-means standard error of a single path.
BATCH_STEPS = 20
NEWTON_TOL = 1e-10
N_MODES = 10

_MODEL = f"""\
model.name = allen_cahn
model.epsilon = 0.5
model.diffusion = paper
scheme.n_modes = {N_MODES}
scheme.tau = 0.05
scheme.newton_tol = {NEWTON_TOL}
"""


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    paths: int
    steps: int
    ensembles: int
    body: str

    def config_text(self, seed: int) -> str:
        return (_MODEL + self.body
                + f"run.steps = {self.steps}\nrun.paths = {self.paths}\n"
                + f"run.seed = {seed}\n")

    @property
    def path_steps(self) -> int:
        return self.paths * self.steps * self.ensembles

    def check(self, out_dir: Path) -> tuple[list[str], float]:
        """Problems found in the outputs, and the run's standard error."""
        return _CHECKS[self.name](self, out_dir)


WORKLOADS = {
    w.name: w
    for w in (
        # The paper preset (1000 paths, three initials) cut to few steps.
        Workload("ergodic-paper", "ergodic", paths=1000, steps=30, ensembles=3,
                 body="run.initials = sine, mix_plus, mix_minus\n"
                      "run.functionals = exp_neg_norm_sq, sin_norm_sq, norm_sq\n"
                      "run.moment_betas = 0, 0.25, 0.4\n"),
        # The AC-4 sweep; the N = 40 leg dominates.
        Workload("convolution-sweep", "convolution", paths=200, steps=16,
                 ensembles=3,
                 body="scheme.n_sweep = 10, 20, 40\n"
                      "run.initials = sine\nrun.functionals = norm_sq\n"
                      "run.moment_betas = 0.4\n"),
        # One long path on the per-path engine; write-heavy.
        Workload("simulate-path", "simulate", paths=1, steps=6000, ensembles=1,
                 body="run.initials = mix_plus\n"),
    )
}


def _check_ergodic(w: Workload, out_dir: Path) -> tuple[list[str], float]:
    summary = json.loads((out_dir / "summary.json").read_text())
    problems = []
    if summary["agreement"].get("all_passed") is not True:
        problems.append(f"agreement failed: {summary['agreement']}")
    finals = [v for per_initial in summary["finals"].values()
              for v in per_initial.values()]
    if len(finals) != 9:
        problems.append(f"expected 9 finals, found {len(finals)}")
    if not all(math.isfinite(v["value"]) and math.isfinite(v["stderr"])
               for v in finals):
        problems.append("non-finite final time average")
    stderr = max((v["stderr"] for v in finals), default=math.nan)
    return problems, stderr


def _check_convolution(w: Workload, out_dir: Path) -> tuple[list[str], float]:
    # AC-4 (b): sup_j at N = 40 <= 1.25 x sup_j at N = 10 + 2 stderr.
    means: dict[int, list[float]] = {}
    errs: dict[int, list[float]] = {}
    with open(out_dir / "moments.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            n = int(row["N"])
            means.setdefault(n, []).append(float(row["mean"]))
            errs.setdefault(n, []).append(float(row["stderr"]))
    problems = []
    if sorted(means) != [10, 20, 40]:
        return [f"moments.csv holds N = {sorted(means)}"], math.nan
    for n in means:
        if len(means[n]) != w.steps + 1:
            problems.append(f"N={n}: {len(means[n])} rows, want {w.steps + 1}")
    i40 = max(range(len(means[40])), key=means[40].__getitem__)
    sup40, err40 = means[40][i40], errs[40][i40]
    sup10 = max(means[10])
    if not sup40 <= 1.25 * sup10 + 2.0 * err40:
        problems.append(f"N-uniformity: sup N=40 {sup40} > "
                        f"1.25 x {sup10} + 2 x {err40}")
    # W starts at 0 and is stationary after a few steps; averaging over the
    # second half steadies the estimate.
    half = (w.steps + 1) // 2
    stderr = max(math.sqrt(sum(e * e for e in errs[n][half:]) / len(errs[n][half:]))
                 for n in means)
    return problems, stderr


def _check_simulate(w: Workload, out_dir: Path) -> tuple[list[str], float]:
    summary = json.loads((out_dir / "summary.json").read_text())
    problems = []
    bound = 10.0 * NEWTON_TOL  # AC-6
    if not summary["max_residual"] <= bound:
        problems.append(f"max residual {summary['max_residual']} > {bound}")
    norm_sq = [0.0] * (w.steps + 1)
    rows = 0
    with open(out_dir / "trajectory.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            norm_sq[int(row["step"])] += float(row["x_coeff"]) ** 2
            rows += 1
    if rows != (w.steps + 1) * N_MODES:
        problems.append(f"trajectory.csv has {rows} rows, "
                        f"want {(w.steps + 1) * N_MODES}")
    return problems, batch_means_stderr(norm_sq[1:], BATCH_STEPS)


def batch_means_stderr(series: list[float], batch: int) -> float:
    """Standard error of a time average by non-overlapping batch means."""
    k = len(series) // batch
    if k < 2:
        return math.nan
    means = [sum(series[i * batch:(i + 1) * batch]) / batch for i in range(k)]
    mu = sum(means) / k
    var = sum((m - mu) ** 2 for m in means) / (k - 1)
    return math.sqrt(var / k)


_CHECKS = {
    "ergodic-paper": _check_ergodic,
    "convolution-sweep": _check_convolution,
    "simulate-path": _check_simulate,
}
