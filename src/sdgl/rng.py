"""Deterministic random streams.

Backed by numpy's Philox counter-based bit generator: identical seed plus an
identical call sequence reproduces the stream bit-for-bit, on any platform.
``RngState`` adds ``seed``, ``substream`` and dropout keep masks drawn ahead;
a copy or pickle of one is numpy's, a plain ``Generator`` that continues the
same stream and holds no masks.

A keep mask is ``u < keep_prob`` over the stream's next uniforms, in stream
order (``keep_mask``). ``draw_ahead`` starts one thread that draws the next
``count`` entries of such masks into a boolean FIFO while the calling thread
does other work; ``wait`` joins it, so no thread outlives the draw. A draw of
fewer than AHEAD_MIN entries is not worth the thread and starts nothing; any
larger one starts it, on any host. ``keep_mask`` takes its entries from the
FIFO first and draws any rest inline. ``train`` draws the next step's masks
this way while the current step runs backward, and waits right after. Philox
fills do not depend on how a draw is split (``random(7)`` then ``random(13)``
equals ``random(23)``), so the masks are those a serial ``random(shape) <
keep_prob`` per mask gives, bit for bit. Both threads draw CHUNK uniforms at
a time into one reused 64 KB buffer and keep only the booleans, one byte per
entry, so no float64 array of a mask's size is formed. numpy releases the
GIL for each fill, so the drawing thread runs beside the caller's numpy work.
"""

from __future__ import annotations

import math
import threading

import numpy as np

CHUNK = 8192  # uniforms per fill: a 64 KB float64 buffer
# the least draw ahead that starts a thread: below it, the thread costs the
# caller more than the draw (see ``draw_ahead``)
AHEAD_MIN = 16 * CHUNK


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
        self._ahead: np.ndarray | None = None  # the FIFO: masks drawn ahead, flat
        self._read = 0  # entries of the FIFO taken
        self._ahead_keep = 1.0  # the keep probability they were drawn at
        self._before: dict | None = None  # the bit generator's state before the draw
        self._drawing: threading.Thread | None = None  # the draw in flight
        self._error: BaseException | None = None  # what the draw raised

    def substream(self, key: int) -> "RngState":
        """Independent substream, reproducible from (seed, key)."""
        return RngState((self.seed * 0x9E3779B97F4A7C15 + key + 1) % (2**63))

    def draw_ahead(self, count: int, keep_prob: float) -> None:
        """Start a thread drawing the next ``count`` keep-mask entries at
        ``keep_prob``. Nothing may draw from this stream until ``wait``
        returns. If the thread cannot start, nothing is drawn and the error
        propagates.

        A count below AHEAD_MIN (16 chunks, about 1 ms of Philox) starts
        nothing, and ``keep_mask`` draws those masks inline. Once a process
        has run a second thread, glibc's malloc takes its arena lock on every
        call, and each GIL handoff to the drawing thread wakes a sleeping
        one: at N = 10, B = 64 (25,600 entries a step, 0.2 ms of draws) that
        cost more than the draw, and training read 1.5% fewer windows/s. A
        larger count starts the thread on any host: confined to one CPU, a
        run at N = 100, B = 32 was no slower with the thread than without."""
        if count < AHEAD_MIN:
            return
        if self._ahead is not None or self._drawing is not None:
            raise RuntimeError("draw_ahead: the masks drawn ahead before are not all taken")
        before = self.bit_generator.state
        ahead = np.empty(count, dtype=bool)

        def fill():
            try:
                _fill_keep(self, ahead, keep_prob)
            except BaseException as exc:  # raised by ``wait``, in the thread that waits
                self._error = exc

        drawing = threading.Thread(target=fill, name="sdgl-keep-masks")
        drawing.start()  # a start that raises leaves nothing drawn or held
        self._ahead, self._read, self._ahead_keep = ahead, 0, keep_prob
        self._before, self._drawing = before, drawing

    def wait(self) -> None:
        """Join the draw ahead. If it failed, drop what it drew, leave the
        stream where it stood before it, and raise its error."""
        if self._drawing is None:
            return
        self._drawing.join()
        self._drawing, error, self._error = None, self._error, None
        if error is not None:
            self.discard()
            raise error

    def discard(self) -> None:
        """Drop the masks drawn ahead and not taken: the stream then stands just
        past the last entry taken, where serial draws would have left it."""
        self.wait()
        if self._ahead is None:
            return
        taken = self._read
        self.bit_generator.state = self._before
        self._ahead = self._before = None
        _fill_keep(self, np.empty(taken, dtype=bool), self._ahead_keep)

    def keep_mask(self, shape: tuple[int, ...], keep_prob: float) -> np.ndarray:
        """``self.random(shape) < keep_prob``, bit for bit: its first entries
        are taken from the masks drawn ahead, the rest drawn now."""
        self.wait()
        size = math.prod(shape)
        taken = np.empty(0, dtype=bool)
        if self._ahead is not None:
            if keep_prob != self._ahead_keep:
                raise ValueError(f"keep_mask: masks were drawn ahead at keep probability "
                                 f"{self._ahead_keep}, not {keep_prob}")
            lo = self._read
            self._read = min(lo + size, self._ahead.size)
            taken = self._ahead[lo : self._read]
            if self._read == self._ahead.size:
                self._ahead = self._before = None
        if taken.size == size:
            return taken.reshape(shape)
        keep = np.empty(size, dtype=bool)
        keep[: taken.size] = taken
        _fill_keep(self, keep[taken.size :], keep_prob)
        return keep.reshape(shape)
