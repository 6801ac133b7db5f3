"""Reproducible per-path Gaussian increment streams.

Increments are counter-based: the block of N_w standard normals for a given
(master_seed, path_index, step_counter) is a pure function of those values,
generated from a Philox bit stream keyed on the seed with the (path, step)
pair placed in the counter. Any worker may therefore generate any (path,
step) increment independently and reproducibly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import CoefficientModel, GalerkinOperators
from .spectral import SpectralCoeffs, _coeff_array

__all__ = [
    "NoiseStream",
    "PhiloxBlockSource",
    "gaussian_increments",
    "multiplicative_increment",
]


class PhiloxBlockSource:
    """Fast repeated access to the (path, step) blocks of one seeded family.

    Produces exactly the same values as NoiseStream.block by resetting a
    private Philox bit stream to the (path, step) counter before each draw,
    which avoids per-call generator construction. Not safe to share across
    threads; each worker should own its own source.
    """

    def __init__(self, master_seed: int):
        if not 0 <= master_seed < 2**64:
            raise ValueError("master_seed must fit in 64 unsigned bits")
        self.master_seed = master_seed
        self._bitgen = np.random.Philox(key=master_seed)
        self._gen = np.random.Generator(self._bitgen)
        self._state = self._bitgen.state
        self._state["buffer_pos"] = 4
        self._state["has_uint32"] = 0
        self._state["uinteger"] = 0
        self._counter = self._state["state"]["counter"]

    def normals(self, path_index: int, step: int, n_values: int) -> np.ndarray:
        """Standard normals of block (path_index, step)."""
        self._counter[2] = step
        self._counter[3] = path_index
        self._bitgen.state = self._state
        return self._gen.standard_normal(n_values)


@dataclass
class NoiseStream:
    """Position (path_index, step_counter) in a seeded family of streams."""

    master_seed: int
    path_index: int = 0
    step_counter: int = 0

    def __post_init__(self):
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must fit in 64 unsigned bits")
        if self.path_index < 0 or self.step_counter < 0:
            raise ValueError("path_index and step_counter must be nonnegative")

    def block(self, n_values: int) -> np.ndarray:
        """Standard normals for the current (path, step); does not advance."""
        bg = np.random.Philox(
            key=self.master_seed,
            counter=[0, 0, self.step_counter, self.path_index],
        )
        return np.random.Generator(bg).standard_normal(n_values)


def gaussian_increments(stream: NoiseStream, noise_modes: int, tau: float) -> np.ndarray:
    """Draw (db_1, ..., db_{N_w}) i.i.d. Normal(0, tau) and advance the stream."""
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if noise_modes < 1:
        raise ValueError(f"noise_modes must be >= 1, got {noise_modes}")
    draws = stream.block(noise_modes) * math.sqrt(tau)
    stream.step_counter += 1
    return draws


def multiplicative_increment(c, model: CoefficientModel, dbeta: np.ndarray,
                             q_nodes: int) -> SpectralCoeffs:
    """Noise increment P_N G(x) dW = M(x) dbeta for one step."""
    arr = _coeff_array(c)
    dbeta = np.asarray(dbeta, dtype=float)
    if dbeta.ndim != 1:
        raise ValueError("dbeta must be a 1D increment vector")
    ops = GalerkinOperators(model, arr.size, dbeta.size, q_nodes)
    return SpectralCoeffs(ops.noise(arr[None], dbeta[None])[0])
