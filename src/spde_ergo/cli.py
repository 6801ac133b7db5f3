"""Command-line interface: config parsing, experiment subcommands, outputs.

Config files are line-oriented ``section.key = value`` text with ``#``
comments; sections are model, scheme, run, output. Unknown keys are
rejected. All numeric CSV output uses 17-significant-digit formatting so a
replay with the same config is byte-identical.

Exit codes: 0 success, 1 validation error, 2 numerical failure,
3 acceptance verdict failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
import warnings
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .ergodic import (
    FUNCTIONAL_TAGS,
    INITIAL_DATA_IDS,
    EnsembleConfig,
    EnsembleError,
    MomentSeries,
    agreement_check,
    convolution_moment_report,
    initial_datum,
    lyapunov_rate,
    lyapunov_series,
    run_ensemble,  # unused here; perfbench/tracing.py wraps cli.run_ensemble
    run_ensembles,
)
from .model import (
    CoefficientModel,
    allen_cahn_model,
    constant_diffusion,
    heat_model,
    paper_diffusion,
    validate_step_constraint,
)
from .noise import NoiseStream
from .scheme import (
    NonConvergenceError,
    SchemeParams,
    SingularLinearSolveError,
    random_pde_residual,
    run_path,
)
from .selftest import run_selftest

__all__ = ["ConfigError", "RunConfig", "parse_config", "main"]

SEED_ENV_VAR = "SPDE_ERGO_SEED"



class ConfigError(ValueError):
    """Invalid config document; carries every violated constraint."""

    def __init__(self, messages):
        self.messages = list(messages)
        super().__init__("\n".join(self.messages))


@dataclass(frozen=True)
class RunConfig:
    """Fully validated experiment configuration."""

    model_name: str = "allen_cahn"
    epsilon: float = 0.5
    diffusion: str = "paper"
    n_modes: int = 10
    tau: float = 0.05
    newton_tol: float = SchemeParams.newton_tol
    n_sweep: tuple[int, ...] | None = None
    steps: int = 2000
    paths: int = 200
    seed: int = 2024
    burn_in: int = EnsembleConfig.burn_in
    initials: tuple[str, ...] = INITIAL_DATA_IDS
    functionals: tuple[str, ...] = EnsembleConfig.functionals
    moment_betas: tuple[float, ...] = EnsembleConfig.moment_betas
    directory: str = "out"

    def build_diffusion(self):
        if self.diffusion == "paper":
            return paper_diffusion()
        if self.diffusion == "zero":
            return constant_diffusion(0.0)
        kind, _, value = self.diffusion.partition(":")
        if kind == "constant":
            try:
                level = float(value)
            except ValueError:
                level = math.nan
            if math.isfinite(level):
                return constant_diffusion(level)
        raise ConfigError([f"model.diffusion must be paper, zero or "
                           f"constant:<number>, got {self.diffusion!r}"])

    def build_model(self) -> CoefficientModel:
        g = self.build_diffusion()
        if self.model_name == "allen_cahn":
            try:
                return allen_cahn_model(self.epsilon, diffusion=g)
            except ValueError as exc:
                raise ConfigError([f"model.epsilon: {exc}"]) from exc
        if self.model_name == "heat":
            return heat_model(g)
        raise ConfigError([f"model.name must be allen_cahn or heat, "
                           f"got {self.model_name!r}"])

    def build_params(self, n_modes: int | None = None) -> SchemeParams:
        return SchemeParams(
            n_modes=self.n_modes if n_modes is None else n_modes,
            tau=self.tau,
            newton_tol=self.newton_tol,
        )

    def effective_seed(self) -> int:
        env = os.environ.get(SEED_ENV_VAR)
        if not env:
            return self.seed
        try:
            seed = int(env)
        except ValueError:
            seed = None
        if seed is None or not 0 <= seed < 2**64:
            raise ConfigError([f"{SEED_ENV_VAR}={env!r} is not an integer in [0, 2**64)"])
        return seed

    def ensemble_config(self, initial: str, model: CoefficientModel,
                        n_modes: int | None = None) -> EnsembleConfig:
        return EnsembleConfig(
            params=self.build_params(n_modes),
            model=model,
            initial=initial,
            n_paths=self.paths,
            n_steps=self.steps,
            master_seed=self.effective_seed(),
            functionals=self.functionals,
            moment_betas=self.moment_betas,
            burn_in=self.burn_in,
        )


# The published Allen-Cahn ergodicity experiment: the defaults at 1000 paths.
PAPER = replace(RunConfig(), paths=1000, directory="out_paper")


# section.key -> (attribute, parser); parser raises ValueError on bad input.
def _parse_list(item_parser):
    def parse(s):
        items = tuple(item_parser(part.strip()) for part in s.split(",") if part.strip())
        if not items or len(set(items)) < len(items):
            raise ValueError("expected at least one entry, each listed once")
        return items

    return parse


_SCHEMA = {
    "model.name": ("model_name", str),
    "model.epsilon": ("epsilon", float),
    "model.diffusion": ("diffusion", str),
    "scheme.n_modes": ("n_modes", int),
    "scheme.tau": ("tau", float),
    "scheme.newton_tol": ("newton_tol", float),
    "scheme.n_sweep": ("n_sweep", _parse_list(int)),
    "run.steps": ("steps", int),
    "run.paths": ("paths", int),
    "run.seed": ("seed", int),
    "run.burn_in": ("burn_in", int),
    "run.initials": ("initials", _parse_list(str)),
    "run.functionals": ("functionals", _parse_list(str)),
    "run.moment_betas": ("moment_betas", _parse_list(float)),
    "output.directory": ("directory", str),
}

_REQUIRED_KEYS = ("model.name", "scheme.n_modes", "scheme.tau",
                  "run.steps", "run.paths", "run.seed")


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a config document.

    Every violated constraint is collected and reported at once, each with
    the line of the key it names; a key left at its default has no line.
    """
    errors: list[str] = []
    fields: dict[str, object] = {}
    lines: dict[str, int] = {}  # key -> line it is set on
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'section.key = value'")
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SCHEMA:
            errors.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in lines:
            errors.append(f"line {lineno}: duplicate key {key!r}")
            continue
        lines[key] = lineno
        attr, parser = _SCHEMA[key]
        try:
            fields[attr] = parser(value)
        except ValueError as exc:
            errors.append(f"line {lineno}: cannot parse value {value!r} for {key}: {exc}")
    for key in _REQUIRED_KEYS:
        if key not in lines:
            errors.append(f"missing required key {key}")
    if errors:
        raise ConfigError(errors)
    cfg = RunConfig(**fields)
    for msg in _validate_semantics(cfg):
        key = msg.split(" ", 1)[0].rstrip(":")
        errors.append(f"line {lines[key]}: {msg}" if key in lines else msg)
    if errors:
        raise ConfigError(errors)
    return cfg


def _validate_semantics(cfg: RunConfig) -> list[str]:
    """Every violated constraint; each message starts with the key it names."""
    errors = []
    if not 0.0 < cfg.tau < 1.0:
        errors.append(f"scheme.tau must lie in (0, 1), got {cfg.tau}")
    if cfg.n_modes < 1:
        errors.append("scheme.n_modes must be >= 1")
    for key, value in (("run.steps", cfg.steps), ("run.paths", cfg.paths)):
        if value < 1:
            errors.append(f"{key} must be >= 1")
    if not 0 <= cfg.burn_in < cfg.steps:
        errors.append("run.burn_in must satisfy 0 <= burn_in < steps")
    if cfg.seed < 0 or cfg.seed >= 2**64:
        errors.append("run.seed must fit in 64 unsigned bits")
    for initial in cfg.initials:
        if initial not in INITIAL_DATA_IDS:
            errors.append(f"run.initials: unknown initial datum {initial!r}")
    for tag in cfg.functionals:
        if tag not in FUNCTIONAL_TAGS:
            errors.append(f"run.functionals: unknown functional {tag!r}")
    for beta in cfg.moment_betas:
        if not 0.0 <= beta < 0.5:
            errors.append(f"run.moment_betas entries must lie in [0, 1/2), got {beta}")
    if cfg.n_sweep is not None and any(n < 1 for n in cfg.n_sweep):
        errors.append("scheme.n_sweep entries must be >= 1")
    if not 0 < cfg.newton_tol < math.inf:
        errors.append(
            f"scheme.newton_tol must be finite and positive, got {cfg.newton_tol}")
    # The model checks its own keys (epsilon, diffusion); step-size
    # admissibility needs its constants and an otherwise clean config.
    try:
        model = cfg.build_model()
    except ConfigError as exc:
        errors.extend(exc.messages)
    if errors:
        return errors
    result = validate_step_constraint(model.constants, cfg.tau)
    errors.extend(f"scheme.tau: {msg}" for msg in result.messages)
    return errors


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(path: Path, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _write_summary(out_dir: Path, cfg: RunConfig, t0: float, **sections) -> None:
    """Write summary.json: the fixed fields, the wall clock since t0, sections."""
    seed = cfg.effective_seed()
    summary = {
        "artifact_version": __version__,
        "config": {**asdict(cfg), "effective_seed": seed},
        "seed": seed,
        "wall_clock_seconds": round(time.monotonic() - t0, 3),
        **sections,
    }
    with open(out_dir / "summary.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _newton_summary(results) -> dict:
    """Worst Newton iteration count and final residual over ensemble results."""
    results = list(results)
    return {"max_iters": max(r.max_newton_iters for r in results),
            "max_residual": max(r.max_residual for r in results)}


def _series_rows(series: MomentSeries, tau: float):
    """(step, t, value, stderr) text of each entry of a series."""
    for step, value, stderr in zip(series.steps, series.values, series.stderrs):
        step = int(step)
        yield str(step), _fmt(step * tau), _fmt(value), _fmt(stderr)


def cmd_ergodic(cfg: RunConfig, out_dir: Path) -> int:
    """Run the time-average experiment for every configured initial datum."""
    t0 = time.monotonic()
    model = cfg.build_model()
    results = dict(zip(cfg.initials, run_ensembles(
        [cfg.ensemble_config(initial, model) for initial in cfg.initials])))
    rows = [(step, t, tag, initial, value, stderr)
            for initial, res in results.items()
            for tag, series in res.time_averages.items()
            for step, t, value, stderr in _series_rows(series, cfg.tau)]
    rows.sort(key=lambda r: (int(r[0]), r[2], r[3]))
    _write_csv(out_dir / "time_averages.csv",
               "step,t,functional,initial,running_avg,stderr", rows)

    finals = {initial: {tag: {"value": series.final, "stderr": series.final_stderr}
                        for tag, series in res.time_averages.items()}
              for initial, res in results.items()}
    agreement, exit_code = {"status": "single-initial, skipped"}, 0
    if len(cfg.initials) >= 2:
        verdict = agreement_check(results)
        agreement = {**asdict(verdict), "all_passed": verdict.all_passed}
        exit_code = 0 if verdict.all_passed else 3
    _write_summary(out_dir, cfg, t0, finals=finals, agreement=agreement,
                   newton=_newton_summary(results.values()))
    return exit_code


def _moment_rows(series: MomentSeries, name: str, n_modes: int, beta: float,
                 tau: float):
    head = (name, str(n_modes), _fmt(beta))
    return (head + row for row in _series_rows(series, tau))


def cmd_lyapunov(cfg: RunConfig, out_dir: Path) -> int:
    """Second-moment series per initial datum with the Lyapunov verdict."""
    t0 = time.monotonic()
    model = cfg.build_model()
    gamma = lyapunov_rate(model, cfg.tau)
    results = run_ensembles(
        [cfg.ensemble_config(initial, model) for initial in cfg.initials])
    reports = {}
    for initial, res in zip(cfg.initials, results):
        _write_csv(out_dir / f"moments_{initial}.csv",
                   "series,N,beta,step,t,mean,stderr",
                   _moment_rows(res.x_moment, "x_norm_sq", cfg.n_modes, 0.0,
                                cfg.tau))
        x0_ns = float(np.sum(initial_datum(initial, cfg.n_modes) ** 2))
        report = lyapunov_series(res.x_moment, gamma, x0_ns, cfg.tau,
                                 burn_in_steps=cfg.burn_in)
        reports[initial] = {**asdict(report), "passed": report.passed}
    _write_summary(out_dir, cfg, t0, gamma=gamma, reports=reports,
                   newton=_newton_summary(results))
    return 0 if all(r["passed"] for r in reports.values()) else 3


def cmd_convolution(cfg: RunConfig, out_dir: Path) -> int:
    """Sobolev moments of the stochastic convolution, swept over N."""
    t0 = time.monotonic()
    model = cfg.build_model()
    sweep = sorted(cfg.n_sweep if cfg.n_sweep else (cfg.n_modes,))
    initial = cfg.initials[0]
    results = run_ensembles(
        [cfg.ensemble_config(initial, model, n_modes=n) for n in sweep])
    rows, series_by_key = [], {}
    for n, res in zip(sweep, results):
        for beta in cfg.moment_betas:
            series = res.w_moments[beta]
            series_by_key[(n, beta)] = series
            rows.extend(_moment_rows(series, "w_sobolev_sq", n, beta, cfg.tau))
    _write_csv(out_dir / "moments.csv", "series,N,beta,step,t,mean,stderr", rows)
    report = convolution_moment_report(series_by_key)
    _write_summary(out_dir, cfg, t0, initial=initial, uniformity={
        "p": report.p,
        "sup": {f"N={n},beta={_fmt(b)}": v
                for (n, b), v in report.sup_by_key.items()},
        "trend_ratio": {f"N={n},beta={_fmt(b)}": v
                        for (n, b), v in report.trend_ratio_by_key.items()},
        "n_ratio": {f"beta={_fmt(b)}": v
                    for b, v in report.n_ratio_by_beta.items()},
    }, newton=_newton_summary(results))
    return 0


def cmd_simulate(cfg: RunConfig, out_dir: Path) -> int:
    """Dump one full trajectory plus its random-PDE residuals (debugging)."""
    t0 = time.monotonic()
    model = cfg.build_model()
    params = cfg.build_params()
    initial = cfg.initials[0]
    x0 = initial_datum(initial, cfg.n_modes)
    traj_x = np.empty((cfg.steps + 1, cfg.n_modes))
    traj_w = np.empty_like(traj_x)

    def recorder(step, x, w):
        traj_x[step], traj_w[step] = x, w

    max_iters, _ = run_path(x0, cfg.steps, params, model,
                            NoiseStream(cfg.effective_seed()), observers=(recorder,))

    modes = [str(mode + 1) for mode in range(cfg.n_modes)]
    _write_csv(out_dir / "trajectory.csv", "step,t,mode,x_coeff,w_coeff",
               ((str(step), _fmt(step * cfg.tau), mode, _fmt(xv), _fmt(wv))
                for step, (x, w) in enumerate(zip(traj_x, traj_w))
                for mode, xv, wv in zip(modes, x, w)))

    residuals = random_pde_residual(traj_x, traj_w, params, model)
    _write_csv(out_dir / "residuals.csv", "step,residual",
               ((str(j + 1), _fmt(r)) for j, r in enumerate(residuals)))

    _write_summary(out_dir, cfg, t0, initial=initial, max_newton_iters=max_iters,
                   max_residual=float(np.max(residuals)) if residuals.size else 0.0)
    return 0


def cmd_selftest() -> int:
    """Run the fast invariant suites and print one verdict per suite."""
    results = run_selftest()
    all_ok = True
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status}  {res.name}: {res.detail}")
        all_ok = all_ok and res.passed
    print("selftest:", "all suites passed" if all_ok else "FAILURES detected")
    return 0 if all_ok else 3


def _load_config(args) -> RunConfig:
    if getattr(args, "paper", False):
        if args.config is not None:
            raise ConfigError(["--paper and --config are mutually exclusive"])
        return PAPER
    if args.config is None:
        return RunConfig()
    return parse_config(Path(args.config).read_text(encoding="utf-8"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spde-ergo",
        description=("Drift-implicit Euler spectral-Galerkin simulator for 1D "
                     "monotone SPDEs with multiplicative white noise"),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_command(name, help_text, paper=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="path to a section.key = value config file")
        p.add_argument("--output", help="override the output directory")
        if paper:
            p.add_argument("--paper", action="store_true",
                           help="use the built-in full-scale preset (1000 paths)")
        return p

    add_run_command("ergodic", "time averages across initial data", paper=True)
    add_run_command("lyapunov", "second-moment boundedness series")
    add_run_command("convolution", "stochastic-convolution Sobolev moments")
    add_run_command("simulate", "single-path trajectory dump with residuals")
    sub.add_parser("selftest", help="run the fast invariant suites")
    return parser


_COMMANDS = {
    "ergodic": cmd_ergodic,
    "lyapunov": cmd_lyapunov,
    "convolution": cmd_convolution,
    "simulate": cmd_simulate,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "selftest":
        return cmd_selftest()
    try:
        cfg = _load_config(args)
        cfg.effective_seed()  # reject a bad seed override before any work
        out_dir = Path(args.output) if args.output else Path(cfg.directory)
        out_dir.mkdir(parents=True, exist_ok=True)
        # The engine names a non-finite row's (path, step) itself; NumPy's
        # warnings would add lines, once per forked worker that sees them.
        # A library warning prints as one line, without its source line.
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.showwarning = lambda msg, *_: print(f"warning: {msg}", file=sys.stderr)
            return _COMMANDS[args.command](cfg, out_dir)
    except ConfigError as exc:
        print(f"config error:\n{exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (EnsembleError, NonConvergenceError, SingularLinearSolveError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
