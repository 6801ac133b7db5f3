"""Monte Carlo ensemble runner and long-time diagnostics.

Three diagnostics are accumulated in-stream over independent paths:

* ergodic running time averages (1/(n P)) sum_{i<=n} sum_k phi(X_i^k) of the
  test functionals exp(-||.||^2), sin ||.||^2, ||.||^2, with cross-initial
  agreement checking;
* the Lyapunov second moment E||X_j||^2 against its exponential envelope;
* fractional Sobolev moments E||W_j||_beta^2 of the discrete stochastic
  convolution, swept over N for the uniformity check.

Ensembles that differ in the initial datum only run as one coupled group,
path p of each on path p's noise. A call with one group runs its P paths as
min(P, 2) fixed halves, [0, P//2) and [P//2, P); a call with two or more
groups (the N-sweep) runs each group whole. These work units depend on the
configs only. Each unit keeps per-step (mean, M2) rows of each ensemble,
whose units merge in ascending path order by the pairwise update of Chan,
Golub & LeVeque (1979). run_ensembles deals the units, longest group first,
to the least-loaded of W = min(cores in the CPU affinity mask, units)
processes, forking W - 1 workers (none with one core, e.g. under
``taskset -c 0``, or off Linux), each bound to a core of its own when they
take every core of the mask. Results are a pure function of
(master_seed, config) and do not depend on W.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .model import CoefficientModel
from .scheme import (
    NonConvergenceError,
    SchemeParams,
    SingularLinearSolveError,
    run_paths_vectorized,
)
from .spectral import eigenvalue, eigenvalues

__all__ = [
    "FUNCTIONAL_TAGS",
    "INITIAL_DATA_IDS",
    "initial_datum",
    "MomentSeries",
    "EnsembleConfig",
    "EnsembleResult",
    "EnsembleError",
    "run_ensemble",
    "run_ensembles",
    "LYAPUNOV_EPSILON_AUX",
    "lyapunov_rate",
    "LyapunovReport",
    "lyapunov_series",
    "ConvolutionMomentReport",
    "convolution_moment_report",
    "AgreementResult",
    "agreement_check",
]

_FUNCTIONALS = {
    "exp_neg_norm_sq": lambda ns: np.exp(-ns),
    "sin_norm_sq": np.sin,
    "norm_sq": lambda ns: ns,
}

FUNCTIONAL_TAGS = tuple(_FUNCTIONALS)

INITIAL_DATA_IDS = ("sine", "mix_plus", "mix_minus")


def initial_datum(name: str, n_modes: int) -> np.ndarray:
    """The experiment's initial data in coefficient form.

    sine:      sin(pi xi)                -> c = (1/sqrt(2), 0, ...)
    mix_plus:  sum_{k<=10} sin(k pi xi)  -> c_k = 1/sqrt(2), k <= min(10, N)
    mix_minus: -mix_plus
    """
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    c = np.zeros(n_modes)
    amp = 1.0 / math.sqrt(2.0)
    if name == "sine":
        c[0] = amp
    elif name in ("mix_plus", "mix_minus"):
        if n_modes < 10:
            import warnings

            warnings.warn(f"initial datum {name} truncated to {n_modes} modes")
        c[: min(10, n_modes)] = amp if name == "mix_plus" else -amp
    else:
        raise ValueError(f"unknown initial datum {name!r}")
    return c


@dataclass(frozen=True)
class MomentSeries:
    """Ensemble mean and standard error of one scalar quantity per step.

    For a running time average, values[i] is the mean over paths of the
    per-path time average up to steps[i], and stderrs[i] the across-path
    standard error of those per-path averages.
    """

    steps: np.ndarray
    values: np.ndarray
    stderrs: np.ndarray

    def __post_init__(self):
        if not (len(self.steps) == len(self.values) == len(self.stderrs)):
            raise ValueError("steps, values, stderrs must have equal length")
        if np.any(self.stderrs < 0):
            raise ValueError("stderrs must be nonnegative")

    def sup(self) -> float:
        return float(np.max(self.values))

    @property
    def final(self) -> float:
        return float(self.values[-1])

    @property
    def final_stderr(self) -> float:
        return float(self.stderrs[-1])


@dataclass(frozen=True)
class EnsembleConfig:
    params: SchemeParams
    model: CoefficientModel
    initial: str
    n_paths: int
    n_steps: int
    master_seed: int
    functionals: tuple[str, ...] = FUNCTIONAL_TAGS
    moment_betas: tuple[float, ...] = (0.0, 0.25, 0.4)
    burn_in: int = 0

    def __post_init__(self):
        if self.n_paths < 1 or self.n_steps < 1:
            raise ValueError("n_paths and n_steps must be >= 1")
        if not 0 <= self.burn_in < self.n_steps:
            raise ValueError("burn_in must satisfy 0 <= burn_in < n_steps")
        for tag in self.functionals:
            if tag not in FUNCTIONAL_TAGS:
                raise ValueError(f"unknown functional tag {tag!r}")
        for beta in self.moment_betas:
            if not 0.0 <= beta < 0.5:
                raise ValueError(f"moment beta must lie in [0, 1/2), got {beta}")

    def initial_coeffs(self) -> np.ndarray:
        return initial_datum(self.initial, self.params.n_modes)

    def compatible_with(self, other: "EnsembleConfig") -> bool:
        """True if the two configs differ at most in the initial datum."""
        return replace(self, initial="_") == replace(other, initial="_")


class EnsembleError(RuntimeError):
    """The ensemble run failed; names the run (initial datum and N) and its cause."""

    def __init__(self, label: str, cause: Exception):
        self.label, self.cause = label, cause
        super().__init__(f"ensemble run failed ({label}: {cause})")

    def __reduce__(self):
        return type(self), (self.label, self.cause)


@dataclass
class EnsembleResult:
    """All diagnostics of one ensemble run; the Newton maxima are those of
    the coupled group it ran in."""

    config: EnsembleConfig
    time_averages: dict[str, MomentSeries]
    x_moment: MomentSeries
    w_moments: dict[float, MomentSeries]
    max_newton_iters: int
    max_residual: float


# A lone group's P paths run as min(P, N_HALVES) contiguous halves,
# [0, P//2) and [P//2, P), whatever the number of worker processes; in a
# call with two or more groups each group runs whole.
N_HALVES = 2


@dataclass
class _UnitStats:
    """Statistics of one unit: per-step ensemble mean and centred sum of
    squares of each statistic row over its n paths, Newton maxima."""

    mean: np.ndarray
    m2: np.ndarray
    n: int
    max_iters: int
    max_res: float


@dataclass(frozen=True)
class _Unit:
    """Paths [first, stop) of the compatible ensembles cfgs, started from
    the rows of x0, one per config: a half of a group, or a whole group."""

    cfgs: tuple[EnsembleConfig, ...]
    x0: np.ndarray
    first: int
    stop: int

    def cost(self, whole: bool = False) -> int:
        """Rows x steps x N of this unit, or of its whole group."""
        cfg = self.cfgs[0]
        n_paths = cfg.n_paths if whole else self.stop - self.first
        return len(self.cfgs) * n_paths * cfg.n_steps * cfg.params.n_modes


def _label(cfg: EnsembleConfig) -> str:
    return f"initial {cfg.initial!r}, N = {cfg.params.n_modes}"


def _run_batch(unit: _Unit) -> list[_UnitStats]:
    """Run paths [first, stop) of every ensemble of unit as one coupled
    batch, each path's copies on the path's noise; one result per config."""
    cfg = unit.cfgs[0]  # the configs differ in the initial datum only
    params, model = cfg.params, cfg.model
    n_steps, burn_in, n_paths = cfg.n_steps, cfg.burn_in, unit.stop - unit.first
    lam = eigenvalues(params.n_modes)
    lam_pows = [lam**beta for beta in cfg.moment_betas]
    phis = [_FUNCTIONALS[tag] for tag in cfg.functionals]

    # One row per statistic, one column per (copy, path): ||X||^2, then
    # ||W||_beta^2 per beta, then each running time average after burn-in.
    first_avg = 1 + len(lam_pows)
    block = np.empty((first_avg + len(phis), len(unit.cfgs), n_paths))
    phi_cum = np.zeros((len(phis), len(unit.cfgs), n_paths))
    # Each copy's ensemble mean and centred sum of squares of each row, step
    # by step; centring before squaring keeps the variance free of cancellation.
    mean = np.zeros((len(unit.cfgs), len(block), n_steps + 1))
    m2 = np.zeros_like(mean)

    def observer(step, x, w):
        block[0] = (x * x).sum(axis=2)
        ww = w * w
        for r, lam_pow in enumerate(lam_pows, start=1):
            block[r] = ww @ lam_pow
        n_rows = first_avg
        if step > burn_in:
            for cum, phi in zip(phi_cum, phis):
                cum += phi(block[0])
            block[first_avg:] = phi_cum / (step - burn_in)
            n_rows = len(block)
        rows = block[:n_rows]
        mu = rows.mean(axis=2)
        # The rounded mean of equal values can miss their value, and the
        # merge would then read a spread where all paths agree; clamped into
        # [min, max] it is exact.
        np.clip(mu, rows.min(axis=2), rows.max(axis=2), out=mu)
        d = rows - mu[:, :, None]
        mean[:, :n_rows, step] = mu.T
        m2[:, :n_rows, step] = np.einsum("icj,icj->ci", d, d)

    x0 = np.broadcast_to(unit.x0[:, None], (len(unit.cfgs), n_paths, params.n_modes))
    max_iters, max_res = run_paths_vectorized(
        x0, n_steps, params, model, cfg.master_seed, n_paths,
        observers=(observer,), first_path_index=unit.first)
    return [_UnitStats(mu, sq, n_paths, max_iters, max_res) for mu, sq in zip(mean, m2)]


def _run_half(unit: _Unit) -> list[_UnitStats | NonConvergenceError | SingularLinearSolveError]:
    """One result per config of unit, a Newton failure returned. A failing
    coupled batch runs again one config at a time, so that each config
    reports the failure it has alone."""
    try:
        return _run_batch(unit)
    except (NonConvergenceError, SingularLinearSolveError) as exc:
        if len(unit.cfgs) == 1:
            return [exc]
        return [_run_half(replace(unit, cfgs=(cfg,), x0=unit.x0[i:i + 1]))[0]
                for i, cfg in enumerate(unit.cfgs)]


def _merge(cfg: EnsembleConfig, units: list[_UnitStats]) -> EnsembleResult:
    """One ensemble's result from its units, merged in ascending path order
    by the pairwise update of Chan, Golub & LeVeque (1979)."""
    mean, m2, count = units[0].mean, units[0].m2, units[0].n
    for h in units[1:]:
        n = count + h.n
        delta = h.mean - mean
        mean = mean + delta * (h.n / n)
        m2 = m2 + h.m2 + delta * delta * (count * h.n / n)
        count = n

    steps = np.arange(cfg.n_steps + 1)
    # A single path has m2 = 0 and reads a zero stderr.
    stderr = np.sqrt(m2 / (max(count - 1, 1) * count))

    def series(row: int, start: int = 0) -> MomentSeries:
        return MomentSeries(steps[start:], mean[row, start:], stderr[row, start:])

    first_avg = 1 + len(cfg.moment_betas)
    return EnsembleResult(
        config=cfg,
        time_averages={tag: series(first_avg + i, cfg.burn_in + 1)
                       for i, tag in enumerate(cfg.functionals)},
        x_moment=series(0),
        w_moments={beta: series(r)
                   for r, beta in enumerate(cfg.moment_betas, start=1)},
        max_newton_iters=max(h.max_iters for h in units),
        max_residual=max(h.max_res for h in units),
    )


def _cpu_count() -> int:
    """Cores this process may run on: its CPU affinity mask; 1 off Linux."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def _core_of(worker: int, n_workers: int, mask: set[int]) -> set[int] | None:
    """The one core process worker of n_workers is bound to, or None.

    Left to itself, the scheduler was seen to keep a fresh fork on its
    parent's core for a whole 0.2-0.4 s run while the other core idled, in
    most fresh-interpreter runs on a 2-core VM: the run then took 1.5-2
    times as long. So when the W processes take every core of the affinity
    mask, worker k is bound to the mask's core k mod (its size). With spare
    cores the scheduler keeps the choice.
    """
    cores = sorted(mask)
    return {cores[worker % len(cores)]} if n_workers >= len(cores) else None


def _run_forked(units: list[_Unit], shares: list[list[int]]) -> dict:
    """Run share 0 here and every other share in a forked child process.

    Fork, not spawn: models hold lambdas and do not pickle; no other thread
    runs here at the fork. Each process may be bound to a core of its own
    while it runs its share (see _core_of); this process gets its
    affinity mask back before it returns. A child pickles its results, or
    the exception it raised (raised again here, as at W = 1), into a pipe
    and leaves by os._exit; one that sends nothing raises EnsembleError for
    its first ensemble. If this process raises, every child is killed and
    reaped first.
    """
    children = []
    mask = (os.sched_getaffinity(0)
            if len(shares) > 1 and hasattr(os, "sched_setaffinity") else None)
    try:
        for worker, share in enumerate(shares[1:], start=1):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child
                try:
                    if mask and (core := _core_of(worker, len(shares), mask)):
                        os.sched_setaffinity(0, core)
                    with os.fdopen(write, "wb") as pipe:
                        try:
                            pickle.dump([_run_half(units[h]) for h in share], pipe)
                        except Exception as exc:
                            pickle.dump(exc, pipe)
                finally:
                    os._exit(0)
            os.close(write)
            children.append((pid, os.fdopen(read, "rb"), share))
        if mask and (core := _core_of(0, len(shares), mask)):
            os.sched_setaffinity(0, core)
        out = {h: _run_half(units[h]) for h in shares[0]}
        while children:
            pid, pipe, share = children[0]
            with pipe:
                payload = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[0]
            if not payload:
                raise EnsembleError(_label(units[min(share)].cfgs[0]), ChildProcessError(
                    f"worker exited with status {code} and sent nothing"))
            results = pickle.loads(payload)
            if isinstance(results, Exception):
                raise results
            out.update(zip(share, results))
        return out
    finally:
        for pid, pipe, _ in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()
        if mask:
            os.sched_setaffinity(0, mask)


def run_ensembles(cfgs: Sequence[EnsembleConfig]) -> list[EnsembleResult]:
    """Run independent ensembles of DIEG paths and reduce their diagnostics.

    The configs that are compatible_with each other run as one coupled
    group, each path's copies on the path's noise. A lone group runs as
    N_HALVES fixed halves of its paths; with two or more groups each group
    runs whole, one batch of all its paths. These units are dealt to
    W = min(cores in the affinity mask, units) processes, this one and
    W - 1 forked workers: longest group first (cost rows x steps x N),
    each unit to the least-loaded process, a group's units in path order.
    Which units exist depends on the configs only, and each ensemble's
    units merge in ascending path order, so the results are a pure
    function of the configs, whatever W.
    A failure raises EnsembleError for the first failing ensemble in config
    order, caused by its Newton failure at the smallest (step, path); a
    worker that dies raises it for the first ensemble of its share.
    """
    groups: list[list[int]] = []
    for i, cfg in enumerate(cfgs):
        cfg.params.validate(cfg.model)  # a bad config raises before any fork
        group = next((g for g in groups if cfgs[g[0]].compatible_with(cfg)), None)
        if group is None:
            groups.append([i])
        else:
            group.append(i)
    units, where = [], {}
    for group in groups:
        head = cfgs[group[0]]
        x0 = np.array([cfgs[i].initial_coeffs() for i in group])
        k = 1 if len(groups) > 1 else min(head.n_paths, N_HALVES)
        cuts = [j * head.n_paths // k for j in range(k + 1)]
        for c, i in enumerate(group):
            where[i] = [(h, c) for h in range(len(units), len(units) + k)]
        units += [_Unit(tuple(cfgs[i] for i in group), x0, a, b)
                  for a, b in zip(cuts, cuts[1:])]
    n_workers = max(1, min(_cpu_count(), len(units)))
    shares, load = [[] for _ in range(n_workers)], [0] * n_workers
    # The sort is stable, so a group's units keep their path order.
    for h in sorted(range(len(units)), key=lambda h: -units[h].cost(whole=True)):
        s = load.index(min(load))
        shares[s].append(h)
        load[s] += units[h].cost()
    out = _run_forked(units, shares)

    results = []
    for i, cfg in enumerate(cfgs):
        stats = [out[h][c] for h, c in where[i]]
        errors = [s for s in stats if isinstance(s, Exception)]
        if errors:
            exc = min(errors, key=lambda e: (e.step, e.path))
            raise EnsembleError(_label(cfg), exc) from exc
        results.append(_merge(cfg, stats))
    return results


def run_ensemble(cfg: EnsembleConfig) -> EnsembleResult:
    """Run n_paths independent DIEG paths and reduce their diagnostics.

    The one-config call of run_ensembles, so its paths run as N_HALVES
    halves: streams derive from (master_seed, path index) and the halves
    merge in ascending path order, so the result is a pure function of cfg.
    """
    return run_ensembles([cfg])[0]


# Slack eps_aux in the second-moment contraction estimate behind lyapunov_rate.
LYAPUNOV_EPSILON_AUX = 0.1


def lyapunov_rate(model: CoefficientModel, tau: float) -> float:
    """Decay rate gamma from the second-moment contraction estimate.

    gamma = r / (1 + r tau) with r = (2 - eps_aux) lambda_1 - 2 K2, positive
    whenever K2 < lambda_1 and eps_aux is small.
    """
    rate = (2.0 - LYAPUNOV_EPSILON_AUX) * eigenvalue(1) - 2.0 * model.constants.K2
    if rate <= 0:
        raise ValueError("K2 >= lambda_1: no Lyapunov contraction rate")
    return rate / (1.0 + rate * tau)


@dataclass(frozen=True)
class LyapunovReport:
    """Boundedness/decay summary of an E||X_j||^2 series."""

    x0_norm_sq: float
    max_after_burn_in: float
    decayed_below_initial: bool
    empirical_envelope: float  # max_j [mean_j - exp(-gamma t_j) x0_norm_sq]
    bounded: bool

    @property
    def passed(self) -> bool:
        return self.bounded and self.decayed_below_initial


def lyapunov_series(m: MomentSeries, gamma: float, x0_norm_sq: float,
                    tau: float, burn_in_steps: int = 0) -> LyapunovReport:
    """Compare an E||X_j||^2 series against its exponential Lyapunov envelope."""
    t = m.steps * tau
    envelope = m.values - np.exp(-gamma * t) * x0_norm_sq
    after = m.values[m.steps >= burn_in_steps]
    max_after = float(np.max(after)) if after.size else float("nan")
    tail = m.values[m.steps >= m.steps[-1] // 2]
    return LyapunovReport(
        x0_norm_sq=x0_norm_sq,
        max_after_burn_in=max_after,
        decayed_below_initial=bool(np.min(tail) <= x0_norm_sq or x0_norm_sq == 0.0),
        empirical_envelope=float(np.max(envelope)),
        bounded=bool(np.isfinite(max_after)),
    )


@dataclass(frozen=True)
class ConvolutionMomentReport:
    """Uniformity summary of E||W_j||_beta^p series across (N, beta)."""

    p = 2  # moment order: the series hold squared norms
    sup_by_key: dict[tuple[int, float], float]
    trend_ratio_by_key: dict[tuple[int, float], float | None]
    n_ratio_by_beta: dict[float, float | None]


def convolution_moment_report(series_by_key: dict[tuple[int, float], MomentSeries]
                              ) -> ConvolutionMomentReport:
    """Report sup over j, the j-growth trend, and the across-N sup ratio.

    Each series must hold ensemble means of ||W_j||_beta^2. The trend ratio
    compares the last-quarter mean to the second-quarter mean; the N ratio
    compares sup_j at the largest N to the smallest N for each beta, probing
    the claimed uniformity in both j and N. A ratio with a zero denominator,
    as for a noiseless W, is None.
    """
    sup_by_key = {}
    trend_by_key = {}
    for key, series in series_by_key.items():
        vals = series.values
        sup_by_key[key] = series.sup()
        m = len(vals)
        second = vals[m // 4 : m // 2]
        last = vals[3 * m // 4 :]
        denom = float(np.mean(second)) if second.size else float("nan")
        trend_by_key[key] = float(np.mean(last)) / denom if denom else None
    n_ratio = {}
    betas = {beta for (_, beta) in series_by_key}
    for beta in betas:
        ns = sorted(n for (n, b) in series_by_key if b == beta)
        if len(ns) >= 2:
            low = sup_by_key[(ns[0], beta)]
            n_ratio[beta] = sup_by_key[(ns[-1], beta)] / low if low else None
    return ConvolutionMomentReport(sup_by_key=sup_by_key,
                                   trend_ratio_by_key=trend_by_key,
                                   n_ratio_by_beta=n_ratio)


@dataclass(frozen=True)
class AgreementResult:
    """Cross-initial agreement of final time averages, per functional."""

    max_diff: dict[str, float]
    pooled_stderr: dict[str, float]
    tolerance: dict[str, float]
    passed: dict[str, bool]

    @property
    def all_passed(self) -> bool:
        return all(self.passed.values())


def agreement_check(results: dict[str, EnsembleResult],
                    abs_tol: float = 0.01,
                    rel_tol_norm_sq: float = 0.02) -> AgreementResult:
    """Compare final time averages across initial data.

    Pass iff, for each functional, the max pairwise difference of final
    averages, largest minus smallest, is within max(3 x pooled stderr of
    those two, tolerance), where the tolerance is abs_tol for the bounded
    functionals and rel_tol_norm_sq relative for the unbounded norm_sq. On
    ties the first initial datum holding the largest (smallest) final wins.
    """
    if len(results) < 2:
        raise ValueError("agreement_check needs at least two initial data")
    items = list(results.values())
    first = items[0].config
    for r in items[1:]:
        if not first.compatible_with(r.config):
            raise ValueError("ensemble configs differ beyond the initial datum")
    max_diff, pooled, tols, passed = {}, {}, {}, {}
    for tag in first.functionals:
        finals = [r.time_averages[tag].final for r in items]
        errs = [r.time_averages[tag].final_stderr for r in items]
        hi, lo = int(np.argmax(finals)), int(np.argmin(finals))
        if tag == "norm_sq":
            tol = rel_tol_norm_sq * float(np.mean(np.abs(finals)))
        else:
            tol = abs_tol
        max_diff[tag] = finals[hi] - finals[lo]
        pooled[tag] = math.hypot(errs[hi], errs[lo])
        tols[tag] = tol
        passed[tag] = max_diff[tag] <= max(3.0 * pooled[tag], tol)
    return AgreementResult(max_diff=max_diff, pooled_stderr=pooled,
                           tolerance=tols, passed=passed)
