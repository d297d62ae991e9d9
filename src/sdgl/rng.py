"""Deterministic random streams.

Backed by numpy's Philox counter-based bit generator: identical seed plus an
identical call sequence reproduces the stream bit-for-bit, on any platform.
``RngState`` adds ``seed``, ``substream`` and dropout keep masks; a copy or
pickle of one is numpy's, a plain ``Generator`` that continues the same
stream.

A keep mask is ``u < keep_prob`` over the stream's next uniforms, in stream
order (``keep_mask``), so it is the serial ``random(shape) < keep_prob`` bit
for bit. It is drawn CHUNK uniforms at a time into one reused 64 KB buffer,
keeping only the booleans, one byte per entry, so no float64 array of the
mask's size is formed. Philox fills do not depend on how a draw is split
(``random(7)`` then ``random(13)`` equals ``random(23)``), so the chunks give
the same bits as one draw.
"""

from __future__ import annotations

import math

import numpy as np

CHUNK = 8192  # uniforms per fill: a 64 KB float64 buffer


def _fill_keep(gen: np.random.Generator, keep: np.ndarray, keep_prob: float) -> None:
    """Fill the flat boolean ``keep`` with u < keep_prob over gen's next
    ``keep.size`` uniforms, in stream order, CHUNK at a time."""
    buf = np.empty(min(CHUNK, keep.size))
    for lo in range(0, keep.size, CHUNK):
        u = buf[: min(CHUNK, keep.size - lo)]
        gen.random(out=u)
        np.less(u, keep_prob, out=keep[lo : lo + u.size])


class RngState(np.random.Generator):
    """Seeded numpy ``Generator`` on ``Philox(seed)``: initialization, dropout masks, batch order."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        super().__init__(np.random.Philox(self.seed))

    def substream(self, key: int) -> "RngState":
        """Independent substream, reproducible from (seed, key)."""
        return RngState((self.seed * 0x9E3779B97F4A7C15 + key + 1) % (2**63))

    def keep_mask(self, shape: tuple[int, ...], keep_prob: float) -> np.ndarray:
        """``self.random(shape) < keep_prob``, bit for bit."""
        keep = np.empty(math.prod(shape), dtype=bool)
        _fill_keep(self, keep, keep_prob)
        return keep.reshape(shape)
