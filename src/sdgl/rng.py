"""Deterministic random streams.

Backed by numpy's Philox counter-based bit generator: identical seed plus an
identical call sequence reproduces the stream bit-for-bit, on any platform.
"""

from __future__ import annotations

import numpy as np


class RngState:
    """Seeded random source for initialization and dropout masks."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.Philox(self.seed))

    def random(self, shape=None) -> np.ndarray:
        return self._gen.random(shape)

    def normal(self, shape=None, std: float = 1.0) -> np.ndarray:
        return self._gen.normal(0.0, std, shape)

    def uniform(self, low: float, high: float, shape=None) -> np.ndarray:
        return self._gen.uniform(low, high, shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def spawn(self, key: int) -> "RngState":
        """Independent substream, reproducible from (seed, key)."""
        return RngState((self.seed * 0x9E3779B97F4A7C15 + key + 1) % (2**63))

    def get_state(self) -> dict:
        return self._gen.bit_generator.state

    def set_state(self, state: dict) -> None:
        self._gen.bit_generator.state = state
