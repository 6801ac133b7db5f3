"""Reproducible per-path Gaussian increment streams.

Increments are counter-based (Salmon et al., SC'11): block (path, step) is a
pure function of (master_seed, path, step), whatever the batching. Normals
4b..4b+3 of it come from Philox, keyed on the seed, at counter (path, b,
step, 0), so its first n values do not depend on how many are drawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NoiseStream",
    "PhiloxBlockSource",
]


class PhiloxBlockSource:
    """The (path, step) noise blocks of one seeded family.

    Keeps one Philox bit generator and moves its counter with advance(),
    which is cheaper than constructing one per draw. Not safe to share
    across threads; each worker should own its own source.
    """

    def __init__(self, master_seed: int):
        if not 0 <= master_seed < 2**64:
            raise ValueError("master_seed must fit in 64 unsigned bits")
        self.master_seed = master_seed
        self._bitgen = np.random.Philox(key=master_seed)
        self._uniform = np.random.Generator(self._bitgen).random
        self._at = 0  # counter value of the bit generator

    def normals(self, first_path: int, n_paths: int, step: int,
                n_values: int) -> np.ndarray:
        """(n_paths, n_values) normals; row p is block (first_path + p, step).

        Lane block b is one draw, with the paths contiguous in counter word 0.
        """
        # u[b, p, k] holds the (radius, angle) uniforms of Box-Muller pair k.
        u = np.empty((-(-n_values // 4), n_paths, 2, 2))
        for b in range(len(u)):
            # Philox steps its counter before it computes the next words.
            start = first_path + (b << 64) + (step << 128) - 1
            self._bitgen.advance((start - self._at) % 2**256)
            self._uniform(out=u[b])
            self._at = start + n_paths
        radius = np.sqrt(-2.0 * np.log(1.0 - u[..., 0]))  # 1 - u lies in (0, 1]
        z = radius * np.exp(2j * math.pi * u[..., 1])
        return z.view(float).transpose(1, 0, 2).reshape(n_paths, -1)[:, :n_values]


@dataclass(frozen=True)
class NoiseStream:
    """Address (path_index, step_counter) of a noise block in a seeded family.

    scheme.run_path starts a path here: step j draws block step_counter + j.
    """

    master_seed: int
    path_index: int = 0
    step_counter: int = 0

    def __post_init__(self):
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must fit in 64 unsigned bits")
        if self.path_index < 0 or self.step_counter < 0:
            raise ValueError("path_index and step_counter must be nonnegative")

    def block(self, n_values: int) -> np.ndarray:
        """Standard normals of the block at this (path, step)."""
        return PhiloxBlockSource(self.master_seed).normals(
            self.path_index, 1, self.step_counter, n_values)[0]
