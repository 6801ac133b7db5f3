"""Monte Carlo ensemble runner and long-time diagnostics.

Three diagnostics are accumulated in-stream over independent paths:

* ergodic running time averages (1/(n P)) sum_{i<=n} sum_k phi(X_i^k) of the
  test functionals exp(-||.||^2), sin ||.||^2, ||.||^2, with cross-initial
  agreement checking;
* the Lyapunov second moment E||X_j||^2 against its exponential envelope;
* fractional Sobolev moments E||W_j||_beta^2 of the discrete stochastic
  convolution, swept over N for the uniformity check.

Paths are reduced in ascending path-index order, so results are
deterministic for a fixed (master_seed, config).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .model import CoefficientModel
from .scheme import (
    NonConvergenceError,
    SchemeParams,
    SingularLinearSolveError,
    run_paths_vectorized,
)
from .spectral import SpectralCoeffs, _coeff_array, eigenvalue, eigenvalues

__all__ = [
    "FUNCTIONAL_TAGS",
    "INITIAL_DATA_IDS",
    "functional_eval",
    "initial_datum",
    "MomentSeries",
    "RunningAverage",
    "EnsembleConfig",
    "EnsembleResult",
    "EnsembleError",
    "run_ensemble",
    "LyapunovReference",
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
    arr = _coeff_array(c)
    return float(_FUNCTIONALS[tag](float(arr @ arr)))


def initial_datum(name: str, n_modes: int) -> SpectralCoeffs:
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
    return SpectralCoeffs(c)


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


RunningAverage = MomentSeries


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

    def initial_coeffs(self) -> SpectralCoeffs:
        return initial_datum(self.initial, self.params.n_modes)

    def compatible_with(self, other: "EnsembleConfig") -> bool:
        """True if the two configs differ at most in the initial datum."""
        return replace(self, initial="_") == replace(other, initial="_")


class EnsembleError(RuntimeError):
    """The ensemble run failed; carries the underlying failures."""

    def __init__(self, failures: list[tuple[object, Exception]]):
        self.failures = failures
        lines = ", ".join(f"{label}: {e}" for label, e in failures[:5])
        super().__init__(f"ensemble run failed ({lines})")


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


def run_ensemble(cfg: EnsembleConfig) -> EnsembleResult:
    """Run n_paths independent DIEG paths and reduce their diagnostics.

    Streams derive from (master_seed, path index); the reduction runs in
    ascending path order, so the result is a pure function of cfg.
    """
    params, model = cfg.params, cfg.model
    params.validate(model)
    n_steps, burn_in, n_paths = cfg.n_steps, cfg.burn_in, cfg.n_paths
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
        for r in range(n_rows):
            v = block[r]
            mu = mean[r, step] = v.mean()
            d = v - mu
            m2[r, step] = d @ d

    try:
        max_iters, max_res = run_paths_vectorized(
            cfg.initial_coeffs().coeffs, n_steps, params, model,
            cfg.master_seed, n_paths, observers=(observer,))
    except (NonConvergenceError, SingularLinearSolveError) as exc:
        raise EnsembleError([(f"initial {cfg.initial!r}", exc)]) from exc

    steps = np.arange(n_steps + 1)
    # A single path has m2 = 0 and reads a zero stderr.
    stderr = np.sqrt(m2 / (max(n_paths - 1, 1) * n_paths))

    def series(row: int, start: int = 0) -> MomentSeries:
        return MomentSeries(steps[start:], mean[row, start:], stderr[row, start:])

    return EnsembleResult(
        config=cfg,
        time_averages={tag: series(first_avg + i, burn_in + 1)
                       for i, tag in enumerate(cfg.functionals)},
        x_moment=series(0),
        w_moments={beta: series(r)
                   for r, beta in enumerate(cfg.moment_betas, start=1)},
        max_newton_iters=max_iters,
        max_residual=max_res,
        per_path_finals=dict(zip(cfg.functionals,
                                 phi_cum / (n_steps - burn_in))),
    )


@dataclass(frozen=True)
class LyapunovReference:
    """Decay rate gamma from the second-moment contraction estimate.

    gamma = ((2 - eps_aux) lambda_1 - 2 K2) / (1 + ((2 - eps_aux) lambda_1
    - 2 K2) tau), positive whenever K2 < lambda_1 and eps_aux is small.
    """

    gamma: float
    epsilon_aux: float = 0.1

    @classmethod
    def from_model(cls, model: CoefficientModel, tau: float,
                   epsilon_aux: float = 0.1) -> "LyapunovReference":
        lam1 = eigenvalue(1)
        rate = (2.0 - epsilon_aux) * lam1 - 2.0 * model.constants.K2
        if rate <= 0:
            raise ValueError("K2 >= lambda_1: no Lyapunov contraction rate")
        return cls(gamma=rate / (1.0 + rate * tau), epsilon_aux=epsilon_aux)


@dataclass(frozen=True)
class LyapunovReport:
    """Boundedness/decay summary of an E||X_j||^2 series."""

    gamma: float
    x0_norm_sq: float
    max_after_burn_in: float
    decayed_below_initial: bool
    empirical_envelope: float  # max_j [mean_j - exp(-gamma t_j) x0_norm_sq]
    bounded: bool


def lyapunov_series(m: MomentSeries, ref: LyapunovReference, x0_norm_sq: float,
                    tau: float, burn_in_steps: int = 0) -> LyapunovReport:
    """Compare an E||X_j||^2 series against its exponential Lyapunov envelope."""
    t = m.steps * tau
    envelope = m.values - np.exp(-ref.gamma * t) * x0_norm_sq
    after = m.values[m.steps >= burn_in_steps]
    max_after = float(np.max(after)) if after.size else float("nan")
    tail = m.values[m.steps >= m.steps[-1] // 2]
    return LyapunovReport(
        gamma=ref.gamma,
        x0_norm_sq=x0_norm_sq,
        max_after_burn_in=max_after,
        decayed_below_initial=bool(np.min(tail) <= x0_norm_sq or x0_norm_sq == 0.0),
        empirical_envelope=float(np.max(envelope)),
        bounded=bool(np.isfinite(max_after)),
    )


@dataclass(frozen=True)
class ConvolutionMomentReport:
    """Uniformity summary of E||W_j||_beta^p series across (N, beta)."""

    p: int
    sup_by_key: dict[tuple[int, float], float]
    trend_ratio_by_key: dict[tuple[int, float], float]
    n_ratio_by_beta: dict[float, float]


def convolution_moment_report(series_by_key: dict[tuple[int, float], MomentSeries],
                              p: int = 2) -> ConvolutionMomentReport:
    """Report sup over j, the j-growth trend, and the across-N sup ratio.

    Each series must already hold ensemble means of ||W_j||_beta^p at the
    stated p. The trend ratio compares the last-quarter mean to the
    second-quarter mean; the N ratio compares sup_j at the largest N to the
    smallest N for each beta, probing the claimed uniformity in both j and N.
    """
    if p < 2 or p % 2 != 0:
        raise ValueError("p must be an even integer >= 2")
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
    return ConvolutionMomentReport(p=p, sup_by_key=sup_by_key,
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
