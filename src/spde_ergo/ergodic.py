"""Monte Carlo ensemble runner and long-time diagnostics.

Three diagnostics are accumulated in-stream over independent paths:

* ergodic running time averages (1/(n P)) sum_{i<=n} sum_k phi(X_i^k) of the
  test functionals exp(-||.||^2), sin ||.||^2, ||.||^2, with cross-initial
  agreement checking;
* the Lyapunov second moment E||X_j||^2 against its exponential envelope;
* fractional Sobolev moments E||W_j||_beta^2 of the discrete stochastic
  convolution, swept over N for the uniformity check.

Each ensemble's P paths run as min(P, 2) fixed contiguous halves,
[0, P//2) and [P//2, P), a layout that depends on the config only. Each
half keeps per-step (mean, M2) rows and per-path running sums; the halves
merge in ascending path order by the pairwise update of Chan, Golub &
LeVeque (1979). run_ensembles spreads the halves of all its ensembles over
W = min(cores in the CPU affinity mask, halves) processes, forking W - 1
workers (none with one core, e.g. under ``taskset -c 0``, or off Linux).
Results are a pure function of (master_seed, config) and do not depend on W.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass, field, replace
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
    "functional_eval",
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


def functional_eval(tag: str, c) -> float:
    """Evaluate a test functional of the L2 norm (via Parseval) at c."""
    if tag not in _FUNCTIONALS:
        raise ValueError(f"unknown functional tag {tag!r}")
    arr = np.asarray(c, dtype=float)
    return float(_FUNCTIONALS[tag](float(arr @ arr)))


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
    """All diagnostics of one ensemble run."""

    config: EnsembleConfig
    time_averages: dict[str, MomentSeries]
    x_moment: MomentSeries
    w_moments: dict[float, MomentSeries]
    max_newton_iters: int
    max_residual: float
    per_path_finals: dict[str, np.ndarray] = field(default_factory=dict)


# Every ensemble's P paths run as min(P, N_HALVES) contiguous halves,
# [0, P//2) and [P//2, P), whatever the number of worker processes.
N_HALVES = 2


@dataclass
class _HalfStats:
    """Statistics of one half: per-step ensemble mean and centred sum of
    squares of each statistic row, per-path running-average sums, Newton maxima."""

    mean: np.ndarray
    m2: np.ndarray
    phi_cum: np.ndarray
    max_iters: int
    max_res: float


@dataclass(frozen=True)
class _Half:
    """Paths [first, stop) of the ensemble cfg, started from x0."""

    cfg: EnsembleConfig
    x0: np.ndarray
    first: int
    stop: int


def _label(cfg: EnsembleConfig) -> str:
    return f"initial {cfg.initial!r}, N = {cfg.params.n_modes}"


def _run_half(half: _Half) -> _HalfStats | NonConvergenceError | SingularLinearSolveError:
    """Run paths [first, stop) of an ensemble; a Newton failure is returned."""
    cfg = half.cfg
    params, model = cfg.params, cfg.model
    n_steps, burn_in, n_paths = cfg.n_steps, cfg.burn_in, half.stop - half.first
    lam = eigenvalues(params.n_modes)
    lam_pows = [lam**beta for beta in cfg.moment_betas]
    phis = [_FUNCTIONALS[tag] for tag in cfg.functionals]

    # One row per statistic and one column per path: ||X||^2, then
    # ||W||_beta^2 per beta, then each running time average after burn-in.
    first_avg = 1 + len(lam_pows)
    block = np.empty((first_avg + len(phis), n_paths))
    phi_cum = np.zeros((len(phis), n_paths))
    # Ensemble mean and centred sum of squares of each row, step by step;
    # centring before squaring keeps the variance free of cancellation.
    mean = np.zeros((len(block), n_steps + 1))
    m2 = np.zeros_like(mean)

    def observer(step, x, w):
        block[0] = (x * x).sum(axis=1)
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
        mu = rows.mean(axis=1)
        # The rounded mean of equal values can miss their value, and the
        # merge would then read a spread where all paths agree; clamped into
        # [min, max] it is exact.
        np.clip(mu, rows.min(axis=1), rows.max(axis=1), out=mu)
        d = rows - mu[:, None]
        mean[:n_rows, step] = mu
        m2[:n_rows, step] = np.einsum("ij,ij->i", d, d)

    try:
        max_iters, max_res = run_paths_vectorized(
            half.x0, n_steps, params, model, cfg.master_seed, n_paths,
            observers=(observer,), first_path_index=half.first)
    except (NonConvergenceError, SingularLinearSolveError) as exc:
        return exc
    return _HalfStats(mean, m2, phi_cum, max_iters, max_res)


def _merge(cfg: EnsembleConfig, halves: list[_HalfStats]) -> EnsembleResult:
    """One ensemble's result from its halves, merged in ascending path order
    by the pairwise update of Chan, Golub & LeVeque (1979)."""
    mean, m2, count = halves[0].mean, halves[0].m2, halves[0].phi_cum.shape[1]
    for h in halves[1:]:
        n_b = h.phi_cum.shape[1]
        n = count + n_b
        delta = h.mean - mean
        mean = mean + delta * (n_b / n)
        m2 = m2 + h.m2 + delta * delta * (count * n_b / n)
        count = n
    phi_cum = np.concatenate([h.phi_cum for h in halves], axis=1)

    n_steps, burn_in = cfg.n_steps, cfg.burn_in
    steps = np.arange(n_steps + 1)
    # A single path has m2 = 0 and reads a zero stderr.
    stderr = np.sqrt(m2 / (max(count - 1, 1) * count))

    def series(row: int, start: int = 0) -> MomentSeries:
        return MomentSeries(steps[start:], mean[row, start:], stderr[row, start:])

    first_avg = 1 + len(cfg.moment_betas)
    return EnsembleResult(
        config=cfg,
        time_averages={tag: series(first_avg + i, burn_in + 1)
                       for i, tag in enumerate(cfg.functionals)},
        x_moment=series(0),
        w_moments={beta: series(r)
                   for r, beta in enumerate(cfg.moment_betas, start=1)},
        max_newton_iters=max(h.max_iters for h in halves),
        max_residual=max(h.max_res for h in halves),
        per_path_finals=dict(zip(cfg.functionals,
                                 phi_cum / (n_steps - burn_in))),
    )


def _cpu_count() -> int:
    """Cores this process may run on: its CPU affinity mask; 1 off Linux."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


# The halves a forked worker runs; set by _adopt in the worker only.
_WORKER_HALVES: list[_Half] = []


def _adopt(halves: list[_Half]) -> None:
    global _WORKER_HALVES
    _WORKER_HALVES = halves


def _run_worker_share(share: list[int]) -> list:
    return [_run_half(_WORKER_HALVES[h]) for h in share]


def _openblas_threads():
    """OpenBLAS's (get, set) thread-count calls as numpy's own library links
    them, or None if numpy's BLAS is another library."""
    import ctypes

    core = getattr(np, "_core", None) or np.core
    lib = ctypes.CDLL(core._multiarray_umath.__file__)
    # The names in numpy's wheels, then in a system OpenBLAS.
    for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads"):
        get = getattr(lib, name.format("get"), None)
        set_threads = getattr(lib, name.format("set"), None)
        if get is not None and set_threads is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            return get, set_threads
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Hold OpenBLAS, the BLAS of numpy's wheels, at one thread meanwhile.

    W processes on W cores each running OpenBLAS's own threads oversubscribe
    the cores: on a 2-core host at the default BLAS thread count, two
    processes at the paper shape ran about twice as slow as one (see
    BENCH_sharding.json). Forked workers inherit the setting, and it holds
    for every W, so every W computes under the same BLAS setting. Other
    BLAS libraries are left as they are.
    """
    calls = _openblas_threads()
    if calls is None:
        yield
        return
    get, set_threads = calls
    old = get()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(old)


def _run_forked(halves: list[_Half], shares: list[list[int]]) -> dict:
    """Run share 0 here and every other share in a forked worker process.

    Fork, not spawn: the configs reach the workers through it, because
    models hold lambdas and do not pickle; only share indices, statistics
    and errors are pickled. This process runs no other thread at the fork:
    OpenBLAS's fork handler stops its threads first, and the pool starts its
    manager thread after forking its workers.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    with ProcessPoolExecutor(
            len(shares) - 1, mp_context=multiprocessing.get_context("fork"),
            initializer=_adopt, initargs=(halves,)) as pool:
        futures = [pool.submit(_run_worker_share, share) for share in shares[1:]]
        out = {h: _run_half(halves[h]) for h in shares[0]}
        for share, future in zip(shares[1:], futures):
            try:
                out.update(zip(share, future.result()))
            except BrokenProcessPool as exc:
                raise EnsembleError(_label(halves[min(share)].cfg), exc) from exc
    return out


def run_ensembles(cfgs: Sequence[EnsembleConfig]) -> list[EnsembleResult]:
    """Run independent ensembles of DIEG paths and reduce their diagnostics.

    Each ensemble runs as N_HALVES fixed halves of its paths. The halves,
    in config order, are dealt round-robin to
    W = min(cores in the affinity mask, halves) processes: this one and
    W - 1 forked workers, all with OpenBLAS at one thread. Each ensemble's
    halves merge in ascending path order, so the results are a pure
    function of the configs, whatever W. A failure raises EnsembleError for
    the first failing ensemble in config order, caused by its Newton
    failure at the smallest (step, path); a worker that dies raises it for
    the first ensemble of its share.
    """
    halves, spans = [], []
    for cfg in cfgs:
        cfg.params.validate(cfg.model)  # a bad config raises before any fork
        x0 = cfg.initial_coeffs()
        k = min(cfg.n_paths, N_HALVES)
        cuts = [j * cfg.n_paths // k for j in range(k + 1)]
        spans.append(range(len(halves), len(halves) + k))
        halves += [_Half(cfg, x0, a, b) for a, b in zip(cuts, cuts[1:])]
    n_workers = max(1, min(_cpu_count(), len(halves)))
    shares = [list(range(s, len(halves), n_workers)) for s in range(n_workers)]
    with _one_blas_thread():
        out = ({h: _run_half(halves[h]) for h in shares[0]} if n_workers == 1
               else _run_forked(halves, shares))

    results = []
    for cfg, span in zip(cfgs, spans):
        stats = [out[h] for h in span]
        errors = [s for s in stats if isinstance(s, Exception)]
        if errors:
            exc = min(errors, key=lambda e: (e.step, e.path))
            raise EnsembleError(_label(cfg), exc) from exc
        results.append(_merge(cfg, stats))
    return results


def run_ensemble(cfg: EnsembleConfig) -> EnsembleResult:
    """Run n_paths independent DIEG paths and reduce their diagnostics.

    The one-config call of run_ensembles: streams derive from
    (master_seed, path index) and the halves merge in ascending path order,
    so the result is a pure function of cfg.
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
    trend_ratio_by_key: dict[tuple[int, float], float]
    n_ratio_by_beta: dict[float, float]


def convolution_moment_report(series_by_key: dict[tuple[int, float], MomentSeries]
                              ) -> ConvolutionMomentReport:
    """Report sup over j, the j-growth trend, and the across-N sup ratio.

    Each series must hold ensemble means of ||W_j||_beta^2. The trend ratio
    compares the last-quarter mean to the second-quarter mean; the N ratio
    compares sup_j at the largest N to the smallest N for each beta, probing
    the claimed uniformity in both j and N.
    """
    sup_by_key = {}
    trend_by_key = {}
    for key, series in series_by_key.items():
        vals = series.values
        sup_by_key[key] = float(np.max(vals))
        m = len(vals)
        second = vals[m // 4 : m // 2]
        last = vals[3 * m // 4 :]
        denom = float(np.mean(second)) if second.size else float("nan")
        trend_by_key[key] = float(np.mean(last)) / denom if denom else float("inf")
    n_ratio = {}
    betas = {beta for (_, beta) in series_by_key}
    for beta in betas:
        ns = sorted(n for (n, b) in series_by_key if b == beta)
        if len(ns) >= 2:
            n_ratio[beta] = sup_by_key[(ns[-1], beta)] / sup_by_key[(ns[0], beta)]
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
    averages is within max(3 x pooled stderr, tolerance), where the
    tolerance is abs_tol for the bounded functionals and rel_tol_norm_sq
    relative for the unbounded norm_sq.
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
        best_diff, best_pool = 0.0, 0.0
        for i in range(len(finals)):
            for j in range(i + 1, len(finals)):
                d = abs(finals[i] - finals[j])
                if d >= best_diff:
                    best_diff = d
                    best_pool = math.hypot(errs[i], errs[j])
        if tag == "norm_sq":
            tol = rel_tol_norm_sq * float(np.mean(np.abs(finals)))
        else:
            tol = abs_tol
        max_diff[tag] = best_diff
        pooled[tag] = best_pool
        tols[tag] = tol
        passed[tag] = best_diff <= max(3.0 * best_pool, tol)
    return AgreementResult(max_diff=max_diff, pooled_stderr=pooled,
                           tolerance=tols, passed=passed)
