"""Outside-in tracing of spde_ergo through its public seams.

``instrumented(tracer)`` replaces, for the duration of a ``with`` block, the
module attributes through which the layers call each other with wrappers
that record a span per call: name, start, end and parent. Spans stay in
memory; ``layer_metrics`` reduces them to per-layer self times and counts.
Nothing in ``spde_ergo`` is edited, and the wrappers only time and count,
so a traced run computes the same numbers as an untraced one.

Layers and the seams that open their spans:

* ``cli``: ``cli.main`` (the root span of a run).
* ``ergodic``: the ergodic functions ``cli`` calls (``run_ensemble``,
  ``agreement_check``, ``convolution_moment_report``, ``initial_datum``),
  and the observer callbacks the engine makes.
* ``scheme``: the engines (``run_paths_vectorized`` as ``run_ensemble``
  calls it, ``run_path`` as ``cli`` calls it), ``random_pde_residual``, and
  ``numpy.linalg.solve``.
* ``noise``: ``PhiloxBlockSource.normals`` and ``NoiseStream.block``.
* ``model``: the ``CoefficientModel`` callables built by
  ``RunConfig.build_model``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from collections import defaultdict

import numpy as np

from spde_ergo import cli, ergodic, noise

# Span names; every span is one of these, so layer self times partition
# the root span.
ROOT = "cli.main"
ENSEMBLE = "ergodic.run_ensemble"
ERGODIC = "ergodic.call"
OBSERVER = "ergodic.observer"
ENGINE = "scheme.engine"
RESIDUAL = "scheme.random_pde_residual"
SOLVE = "scheme.solve"
DRAW = "noise.draw"
MODEL = ("model.drift", "model.drift_deriv", "model.diffusion")


class Tracer:
    """Span store and counters for one run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._engine_paths: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """fn wrapped in a span; count(args) runs before the call."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if count is not None:
                count(args)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def engine(self, fn, paths_of):
        """Wrap an engine; its observers get spans of their own."""
        counts, engine_paths = self.counts, self._engine_paths
        inner = self.wrap(ENGINE, fn)

        def traced(*args, observers=(), **kwargs):
            counts["engine_steps"] += args[1]
            engine_paths.append(paths_of(args))
            try:
                return inner(*args, observers=tuple(
                    self.wrap(OBSERVER, obs) for obs in observers), **kwargs)
            finally:
                engine_paths.pop()

        return traced

    def _count_solve(self, args):
        a = args[0]
        rows = a.shape[0] if a.ndim == 3 else 1
        n = a.shape[-1]
        c = self.counts
        c["solve_rows"] += rows
        c["solve_flops"] += rows * (2 * n**3 // 3 + 2 * n * n)
        if self._engine_paths:
            c["engine_solve_calls"] += 1
            c["solve_capacity"] += self._engine_paths[-1]

    def _count_points(self, name, size=lambda args: np.size(args[0])):
        counts, engine_paths = self.counts, self._engine_paths

        def count(args):
            counts[name + ".points"] += size(args)
            counts[name + ".calls"] += 1
            if engine_paths:
                counts[name + ".engine_calls"] += 1

        return count

    def instrument_model(self, model):
        fields = {}
        for name in MODEL:
            attr = name.split(".", 1)[1]
            fields[attr] = self.wrap(name, getattr(model, attr),
                                     self._count_points(name))
        return dataclasses.replace(model, **fields)


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Install the tracer's wrappers on spde_ergo's seams; undo on exit."""
    build_model = cli.RunConfig.build_model
    # Both draw methods take the number of normals as their last argument.
    draws = tracer._count_points(DRAW, lambda args: args[-1])
    patches = [
        (cli, "main", tracer.wrap(ROOT, cli.main)),
        (cli, "run_ensemble", tracer.wrap(ENSEMBLE, cli.run_ensemble)),
        (cli, "agreement_check", tracer.wrap(ERGODIC, cli.agreement_check)),
        (cli, "convolution_moment_report",
         tracer.wrap(ERGODIC, cli.convolution_moment_report)),
        (cli, "initial_datum", tracer.wrap(ERGODIC, cli.initial_datum)),
        (cli, "random_pde_residual",
         tracer.wrap(RESIDUAL, cli.random_pde_residual)),
        (cli, "run_path", tracer.engine(cli.run_path, lambda args: 1)),
        (ergodic, "run_paths_vectorized",
         tracer.engine(ergodic.run_paths_vectorized, lambda args: args[5])),
        (np.linalg, "solve",
         tracer.wrap(SOLVE, np.linalg.solve, tracer._count_solve)),
        (noise.PhiloxBlockSource, "normals",
         tracer.wrap(DRAW, noise.PhiloxBlockSource.normals, draws)),
        (noise.NoiseStream, "block",
         tracer.wrap(DRAW, noise.NoiseStream.block, draws)),
        (cli.RunConfig, "build_model",
         lambda cfg: tracer.instrument_model(build_model(cfg))),
    ]
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
    try:
        for obj, attr, new in patches:
            setattr(obj, attr, new)
        yield tracer
    finally:
        for obj, attr, old in saved:
            setattr(obj, attr, old)


def span_times(spans: list[list]) -> list[tuple[str, float, float]]:
    """(name, duration, self time) per span; self = duration - children."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(name, end - start, end - start - child[i])
            for i, (name, start, end, parent) in enumerate(spans)]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced run (see README.md for definitions)."""
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for name, dur, self_t in span_times(tracer.spans):
        total[name] += dur
        own[name] += self_t
    c = tracer.counts
    iters = c["engine_solve_calls"]
    draw_calls = c[DRAW + ".calls"]
    drift_points = c["model.drift.points"]
    return {
        "cli.self_s": own[ROOT],
        "ergodic.run_ensemble_s": total[ENSEMBLE],
        "ergodic.observer_s": total[OBSERVER],
        "ergodic.self_s": own[ENSEMBLE] + own[ERGODIC],
        "scheme.engine_s": total[ENGINE],
        "scheme.self_s": own[ENGINE] + own[RESIDUAL],
        "scheme.solve_s": total[SOLVE],
        "scheme.solve_rows": c["solve_rows"],
        "scheme.solve_flops_computed": c["solve_flops"],
        "scheme.newton_iters_per_step": iters / max(c["engine_steps"], 1),
        "scheme.residual_evals_per_newton_iter":
            c["model.drift.engine_calls"] / max(iters, 1),
        "scheme.active_path_fraction":
            c["solve_rows"] / max(c["solve_capacity"], 1),
        "noise.draw_s": total[DRAW],
        "noise.draw_calls": draw_calls,
        "noise.draw_us_per_call": 1e6 * total[DRAW] / max(draw_calls, 1),
        "model.drift_s": total["model.drift"],
        "model.drift_deriv_s": total["model.drift_deriv"],
        "model.diffusion_s": total["model.diffusion"],
        "model.points": sum(c[name + ".points"] for name in MODEL),
        "model.drift_ns_per_point": 1e9 * total["model.drift"] / max(drift_points, 1),
    }
