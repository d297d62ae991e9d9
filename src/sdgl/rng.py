"""Deterministic random streams.

Backed by numpy's Philox counter-based bit generator: identical seed plus an
identical call sequence reproduces the stream bit-for-bit, on any platform.
``RngState`` adds only ``seed`` and ``substream``; a copy or pickle of one is
numpy's, a plain ``Generator`` that continues the same stream.
"""

from __future__ import annotations

import numpy as np


class RngState(np.random.Generator):
    """Seeded numpy ``Generator`` on ``Philox(seed)``: initialization, dropout masks, batch order."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        super().__init__(np.random.Philox(self.seed))

    def substream(self, key: int) -> "RngState":
        """Independent substream, reproducible from (seed, key)."""
        return RngState((self.seed * 0x9E3779B97F4A7C15 + key + 1) % (2**63))
