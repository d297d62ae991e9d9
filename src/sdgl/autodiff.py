"""Reverse-mode automatic differentiation over dense float64 arrays.

A ``Tape`` records primitive operations in execution order during a forward
pass; ``Tape.backward`` replays it once in reverse, accumulating gradients
into every tensor that requires them. All math is float64 so that central
finite differences are a meaningful oracle (see ``grad_check``).

What the tape keeps: a tensor's gradient lives in a slot apart from its
data, and ``Tensor.grad`` reads and writes that slot. A primitive that runs
under an active tape with an input that requires a gradient records one node:
its output's slot, the slots of its inputs and a backward closure. The closure
holds the slot of each input that needs a gradient and exactly the arrays its
rule reads: the other operand of ``mul``, ``divide``, ``matmul``,
``conv1d_dilated``, ``channel_map``, ``channel_map_concat`` (each part, as
it is) and ``propagate``, the output of ``tanh``, ``sigmoid`` and
``row_softmax``, the masks of ``relu`` and ``dropout`` (one byte per entry),
``layer_norm``'s normalized input. It never holds a ``Tensor``. So an
activation no rule reads, such as the output of ``add``, ``scale``,
``reshape``, ``narrow`` or ``concat``, is freed as soon as the forward pass
drops it, and the rest is freed as ``backward`` releases each node. With no
active tape, no closure and no slot is built.

A node whose output got no gradient, because nothing the loss reads consumed
it, runs no rule: its inputs would only get zeros. When the pass ends, each
input slot that such a node would have fed and that still has no gradient
gets zeros of its shape. So every input of a recorded op that requires a
gradient ends the pass with a ``.grad``, and where a live path also reaches
it, that gradient is exactly the live one. A caller that knows which of its
ops nothing reads can skip them outright while no tape records
(``tape_active``): ``SDGLModel.forward`` does so for the last layer's graph
branches and residual.

Each rule is written once. An op that other primitives express is a composite
with no rule of its own: ``sub`` is ``add`` of ``scale(b, -1)``, ``scale`` is
``mul`` by a constant, ``mean_all`` is ``scale`` of ``reduce_sum``,
``layer_norm`` applies its gain and bias with ``mul`` and ``add``, and
``channel_map`` is the one-tap case of ``conv1d_dilated``'s rule. A one-tap
map reads a list of channel blocks, weight columns [lo, lo + c) against the
block of c channels at lo; a multi-tap convolution reads one input. Some keep
their own rule: the masks of ``relu`` and ``dropout`` take one byte per entry
where ``mul`` would keep eight, ``propagate``'s folded matrix gradient forms
no (B, C, N, N) temporary, ``channel_map_concat`` (the convolution rule on the
parts of a channel concatenation, one block each) forms no (B, sum C, T, N)
concatenation, so the mix-hop selection map keeps each hop once, and
``layer_norm``, ``row_softmax`` and ``divide`` need ops the engine lacks (an
axis mean, ``exp``, a reciprocal).

Feature maps are time-major, (B, C, T, N): time is axis 2 and the nodes are
the last axis. So the steps a convolution tap reads are one contiguous run
per channel, and the tap of a contiguous map is a view. ``conv1d_dilated``
may keep only every stride-th output step: its taps then read every
stride-th input step, a strided view that the forward pass gathers and the
weight gradient copies, and the input gradient adds each tap's product into a
strided view of itself. ``narrow`` takes a step for the matching slice of
the input. ``propagate`` reads
each (channel, step) as a row of N node values: its forward pass is
rows @ p^T, one GEMM over all B*C*T rows for a shared p and one per sample
otherwise, and its backward pass is g_rows @ p and g_rows^T @ x_rows. No
axis is moved and nothing is copied. At the train_wide shapes of commit
abf3c64, which measured this (B = 32, C = 16, T = 13, N = 100; a 2-vCPU Xeon
VM, numpy 2.4.6, OpenBLAS 0.3.31 on 1 thread), this layout took
``propagate``'s forward plus backward from about 33 to 22 ms
with a shared matrix and from 31 to 23 ms with one per sample, and the 7-tap
convolution's backward from 37 to 26 ms (medians of 25 calls, interleaved in
one process). Under ``tracemalloc`` one training step at those shapes peaked
at 112.2 MB, against 120.0 MB before the layout switch and the in-place
accumulation below.

Each pass of the convolution has two forms: one product of rows, or work per
tap. The rows form covers a one-tap map at stride 1 (every ``channel_map`` and
``channel_map_concat``, and a ``conv1d_dilated`` of a (C_out, C_in, 1) weight
at stride 1), and a k-tap convolution whose one output step reads all k input
steps (the last gated layer), a channel map of its C_in*k rows (im2col). It
reads w's (C_out, c*k) column block of each part, taps reversed, against the
part's (B, c*k, t_out*N) rows, with no tap offsets, gather, zero fill or
strided add: one product per part in each pass, the forward pass's first
writing the output and each later one adding into it. From one input channel
(the first residual, which reads the raw series through the folded start map)
that product is a broadcast multiply. At one window this took a (1, 16, 7, 10)
``channel_map`` from 9.2 to 6.7 us and a three-part ``channel_map_concat`` from
20.7 to 14.1 us (its shape checks make one pass). On the last gated layer it
took the backward pass from 0.81 to 0.49 ms at train_small's (64, 16, 7, 10)
and from 2.8 to 1.3 ms at train_wide's (32, 16, 7, 100). Every other
convolution, one tap at stride > 1 too, takes the tap form. Its weight gradient
of one input channel (the folded first layer) is one product on its k taps
gathered in step order: 0.25 to 0.11 ms at (64, 1, 19, 10) and 2.2 to 0.6 ms at
(32, 1, 19, 100), both at stride 2. Otherwise the forward pass copies a batch
chunk's k taps, one strided view (``_taps``), into one buffer for one matmul
with K = k*C_in, in place of k matmuls and k-1 accumulating passes, and the
input and weight gradients take one matmul per tap. The one copy took the
folded first layer's one-window forward pass, on the transposed window, from
15.2 to 9.0 us, where a slice per tap was copied. A gathered backward was no
faster, and a gathered weight gradient of a 16-channel block was slower: 2.3 ->
2.8 ms at (64, 16, 19, 10), stride 2, the middle of three layers on 30-step
windows (interleaved medians of 25 calls). The one-window figures here are
best-of-7 timeit runs on a 2-vCPU host with one BLAS thread.

``layer_norm`` and ``row_softmax`` take row sums as a product with a ones
vector and row dot products with ``einsum``, never ``np.var`` or a last-axis
mean, and normalize in place: ``np.var`` over (32, 100, 100) took 1.0 ms,
where the centered rows' dot with themselves took 0.17 ms.

Backward adds a gradient in place only into a buffer it owns: one that this
backward pass allocated for that one slot and that nothing else references.
A rule hands on the array it has just computed as fresh (``mul``,
``divide``, ``matmul``, ``relu``, ``tanh``, ``sigmoid``, ``row_softmax``,
``layer_norm``, ``dropout``, ``reduce_sum``, the convolution, ``propagate``),
and a slot with no gradient yet keeps it as its own. The incoming gradient
or a view of it (``add``, ``transpose``, ``reshape``, ``concat``) is never
fresh, so a slot that holds one, or a gradient of an earlier pass, gets a new
sum. ``narrow`` adds into its slice of the input's owned buffer, so the two
halves of the gated layer's split fill one buffer. Ownership ends when
``backward`` returns, and assigning ``Tensor.grad`` clears it: a later pass
never changes a ``.grad`` array the caller kept or assigned.

Primitives check nothing for non-finite values, and every rule passes NaN
on (``relu`` is ``max(a, 0)``, not a mask that would zero it), so a NaN
anywhere the forecast reads reaches the loss, and ``train`` raises
``DivergenceError`` there. An infinite weight can still vanish where ``tanh``
or ``sigmoid`` saturates, and a NaN that only a skipped node reads reaches no
gradient (no 0 * NaN is formed), so ``train`` also checks the whole state at
the end of each epoch and names the tensor.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "ShapeError",
    "TapeError",
    "grad_check",
    "add",
    "sub",
    "mul",
    "divide",
    "scale",
    "matmul",
    "transpose",
    "relu",
    "tanh",
    "sigmoid",
    "row_softmax",
    "layer_norm",
    "dropout",
    "concat",
    "reduce_sum",
    "mean_all",
    "reshape",
    "narrow",
    "conv1d_dilated",
    "channel_map",
    "channel_map_concat",
    "propagate",
]


class ShapeError(ValueError):
    """Input shapes do not conform to a primitive's rule."""


class TapeError(RuntimeError):
    """Tape misuse: backward on a consumed tape, non-scalar loss, etc."""


class _Slot:
    """Where one tensor's gradient accumulates; backward closures hold this.
    ``owner`` is the backward pass that owns ``grad`` (0 for none); ``shape``
    is the tensor's, for the zeros of a slot that only skipped nodes feed."""

    __slots__ = ("grad", "owner", "shape")

    def __init__(self, shape: tuple[int, ...]):
        self.grad: np.ndarray | None = None
        self.owner = 0
        self.shape = shape


_F64 = np.dtype(np.float64)


class Tensor:
    """A shaped float64 array with an optional gradient slot.

    A native float64 ``np.ndarray`` is kept as it is, not copied or viewed:
    ``Tensor(a).data is a``. Anything else (a list, a scalar, another dtype or
    byte order, an ndarray subclass) becomes ``np.asarray(data, dtype=np.float64)``.
    """

    __slots__ = ("data", "requires_grad", "_slot")

    def __init__(self, data, requires_grad: bool = False):
        # np.asarray would return such an array itself too, at several times the cost
        self.data = (data if type(data) is np.ndarray and data.dtype is _F64
                     else np.asarray(data, dtype=np.float64))
        self.requires_grad = bool(requires_grad)
        self._slot: _Slot | None = None

    @property
    def grad(self) -> np.ndarray | None:
        return None if self._slot is None else self._slot.grad

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        if self._slot is None:
            self._slot = _Slot(self.data.shape)
        self._slot.grad, self._slot.owner = value, 0

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of executed primitives, consumable exactly once."""

    def __init__(self):
        # (output's gradient slot, the input slots its rule adds into, backward closure)
        self._nodes: list[tuple[_Slot, tuple[_Slot | None, ...], Callable]] = []
        self._consumed = False

    def __enter__(self) -> "Tape":
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise TapeError("a tape is already active")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc) -> None:
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(tensor) into .grad for the whole tape.

        The tape releases each node once its gradient has been passed on, so
        the arrays its rule kept and the gradients the caller does not hold
        are freed during backward rather than when the tape is dropped. A
        node whose output got no gradient runs no rule. When the pass ends,
        each input slot such a node would have fed that still has no gradient
        gets zeros of its shape, so every input that requires a gradient gets
        one. A NaN in a skipped node's saved operands therefore reaches no
        gradient, where 0 * NaN would have.
        """
        global _GENERATION
        if self._consumed:
            raise TapeError("tape already consumed by a previous backward()")
        if loss.data.size != 1:
            raise TapeError(f"loss must be scalar, got shape {loss.shape}")
        self._consumed = True
        _GENERATION += 1  # what earlier passes owned is read-only from here on
        loss.grad = np.ones_like(loss.data)
        skipped = []
        while self._nodes:
            slot, inputs, backward_fn = self._nodes.pop()
            if slot.grad is None:
                skipped += inputs
            else:
                backward_fn(slot.grad)
        for s in skipped:
            if s is not None and s.grad is None:
                s.grad = np.zeros(s.shape)


_ACTIVE_TAPE: Tape | None = None
_GENERATION = 0  # number of the latest backward pass


def tape_active() -> bool:
    """Whether a ``Tape`` is recording: ``SDGLModel.forward`` runs the ops
    nothing downstream reads only then, so ``backward`` zero-fills their
    parameters' gradients."""
    return _ACTIVE_TAPE is not None


def _recording(*inputs: Tensor) -> bool:
    """Whether a primitive on ``inputs`` goes on the tape: one is active and
    some input requires a gradient. Primitives build their closure only then."""
    if _ACTIVE_TAPE is not None:
        for t in inputs:
            if t.requires_grad:
                return True
    return False


def _slot(t: Tensor) -> _Slot | None:
    """The slot a rule accumulates ``t``'s gradient into; None if t needs none."""
    if not t.requires_grad:
        return None
    if t._slot is None:
        t._slot = _Slot(t.data.shape)
    return t._slot


def _record(out: Tensor, backward_fn: Callable, *input_slots: _Slot | None) -> None:
    """Put ``out``'s node on the tape; ``input_slots`` are the slots its rule
    adds into (None for an input that needs no gradient)."""
    out.requires_grad = True
    out._slot = _Slot(out.data.shape)
    _ACTIVE_TAPE._nodes.append((out._slot, input_slots, backward_fn))


def _accum(slot: _Slot | None, g: np.ndarray, fresh: bool = False) -> None:
    """Add g to a slot's gradient: in place into a buffer the slot owns, else
    as a new sum that it owns. ``fresh``: the rule has just computed g and
    nothing else holds it, so an empty slot may own it (module docstring)."""
    if slot is None:
        return
    if slot.grad is None:
        slot.grad = g
        slot.owner = _GENERATION if fresh else 0
    elif slot.owner == _GENERATION:
        slot.grad += g
    else:
        slot.grad = slot.grad + g
        slot.owner = _GENERATION


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the original operand shape."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


# Each primitive computes its output and, only when recording, takes the
# slots of its inputs and the arrays its rule reads. A product's rule reads
# each operand only for the other one's gradient, so it keeps an operand only
# when the other one needs a gradient.


# --- elementwise ------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data)
    if _recording(a, b):
        ga, gb, a_shape, b_shape = _slot(a), _slot(b), a.shape, b.shape

        def backward(g):
            _accum(ga, _unbroadcast(g, a_shape))
            _accum(gb, _unbroadcast(g, b_shape))

        _record(out, backward, ga, gb)
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    return add(a, scale(b, -1.0))


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data)
    if _recording(a, b):
        ga, gb, a_shape, b_shape = _slot(a), _slot(b), a.shape, b.shape
        a_data, b_data = (a.data if gb else None), (b.data if ga else None)

        def backward(g):
            if ga:
                _accum(ga, _unbroadcast(g * b_data, a_shape), True)
            if gb:
                _accum(gb, _unbroadcast(g * a_data, b_shape), True)

        _record(out, backward, ga, gb)
    return out


def divide(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data / b.data)
    if _recording(a, b):
        ga, gb, a_shape, b_shape = _slot(a), _slot(b), a.shape, b.shape
        a_data, b_data = (a.data if gb else None), b.data

        def backward(g):
            if ga:
                _accum(ga, _unbroadcast(g / b_data, a_shape), True)
            if gb:
                _accum(gb, _unbroadcast(-g * a_data / (b_data * b_data), b_shape), True)

        _record(out, backward, ga, gb)
    return out


def scale(a: Tensor, s: float) -> Tensor:
    return mul(a, Tensor(s))


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0.0))  # NaN stays NaN
    if _recording(a):
        ga, mask = _slot(a), a.data > 0
        _record(out, lambda g: _accum(ga, g * mask, True), ga)
    return out


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    out = Tensor(y)
    if _recording(a):
        ga = _slot(a)
        _record(out, lambda g: _accum(ga, g * (1.0 - y * y), True), ga)
    return out


def sigmoid(a: Tensor) -> Tensor:
    # 1 / (1 + e) for a >= 0 and e / (1 + e) below, e = exp(-|a|) <= 1: exp
    # never overflows, and both branches share the one division
    e = np.abs(a.data)
    np.negative(e, out=e)
    np.exp(e, out=e)
    y = np.maximum(e, a.data >= 0)  # the numerator, as e <= 1; NaN stays NaN
    e += 1.0
    y /= e
    out = Tensor(y)
    if _recording(a):
        ga = _slot(a)
        _record(out, lambda g: _accum(ga, g * y * (1.0 - y), True), ga)
    return out


# --- linear algebra ---------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 2 or b.data.ndim < 2 or a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} @ {b.shape}")
    out = Tensor(np.matmul(a.data, b.data))
    if _recording(a, b):
        ga, gb, a_shape, b_shape = _slot(a), _slot(b), a.shape, b.shape
        a_data, b_data = (a.data if gb else None), (b.data if ga else None)

        def backward(g):
            if ga:
                _accum(ga, _unbroadcast(np.matmul(g, np.swapaxes(b_data, -1, -2)), a_shape), True)
            if gb:
                _accum(gb, _unbroadcast(np.matmul(np.swapaxes(a_data, -1, -2), g), b_shape), True)

        _record(out, backward, ga, gb)
    return out


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    if a.data.ndim < 2:
        raise ShapeError(f"transpose: need rank >= 2, got shape {a.shape}")
    out = Tensor(np.swapaxes(a.data, -1, -2))
    if _recording(a):
        ga = _slot(a)
        _record(out, lambda g: _accum(ga, np.swapaxes(g, -1, -2)), ga)
    return out


# --- normalization ----------------------------------------------------------


# read-only ones vectors by length, for _row_sums: allocating one took 1.0 of
# the 3.6 us a (1, 10, 8) row centering took
_ONES: dict[int, np.ndarray] = {}


def _row_sums(a: np.ndarray) -> np.ndarray:
    """Sums over the last axis, keeping it: a product with a ones vector, where
    numpy's last-axis mean took 1.5 times as long (25 against 14 us at (64, 10,
    10), 169 against 113 us at (32, 100, 100))."""
    ones = _ONES.get(a.shape[-1])
    if ones is None:
        ones = _ONES[a.shape[-1]] = np.ones(a.shape[-1])
        ones.flags.writeable = False
    return (a @ ones)[..., None]


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-by-row dot products over the last axis, keeping it."""
    return np.einsum("...i,...i->...", a, b)[..., None]


def row_softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis; rows sum to one, entries stay positive."""
    y = a.data - a.data.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= _row_sums(y)
    out = Tensor(y)
    if _recording(a):
        ga = _slot(a)

        def backward(g):
            d = g - _row_dots(g, y)
            d *= y
            _accum(ga, d, True)

        _record(out, backward, ga)
    return out


def layer_norm(a: Tensor, gain: Tensor | None = None, bias: Tensor | None = None) -> Tensor:
    """Normalize over the last axis; optional learnable per-feature affine.

    The variance is floored at eps^2 (eps = 1e-5). A row whose variance
    reaches the floor maps to zero mean and unit variance, up to rounding; a
    row below it is divided by eps, not by its spread, and gets no variance
    gradient. So a constant row maps to its deviation from its computed mean
    over eps. That is exactly zero only where the mean rounds back to the
    row's value, as it does for an all-zero row; otherwise it is of order 1e-10
    of the value (ten 3.7s map to 4.4e-11 with numpy's mean, to zero with this
    one).
    """
    floor = 1e-5 * 1e-5
    n = a.data.shape[-1]
    xhat = a.data - _row_sums(a.data) / n
    var = _row_dots(xhat, xhat) / n
    inv = 1.0 / np.sqrt(np.maximum(var, floor))
    xhat *= inv
    y = Tensor(xhat)
    if _recording(a):
        ga, guarded = _slot(a), var <= floor

        def backward(g):
            m2 = _row_dots(g, xhat) / n
            # guarded rows treat the scale as constant: no variance gradient
            m2[guarded] = 0.0
            out = g - _row_sums(g) / n
            out -= xhat * m2
            out *= inv
            _accum(ga, out, True)

        _record(y, backward, ga)
    if gain is not None:
        y = mul(y, gain)
    if bias is not None:
        y = add(y, bias)
    return y


def dropout(a: Tensor, keep_prob: float, rng) -> Tensor:
    """Inverted dropout: keeps each entry with probability ``keep_prob``, drawn
    from ``rng``, and scales what it keeps by 1/keep_prob. At keep 1 it draws
    no mask and returns ``a``. Callers apply it only in training.

    The mask is ``rng.keep_mask``, drawn in the call: ``rng.random(a.shape)
    < keep_prob`` bit for bit, so a fresh ``RngState`` of the same seed gives
    the same mask."""
    if not 0.0 < keep_prob <= 1.0:
        raise ShapeError(f"dropout: keep probability must be in (0, 1], got {keep_prob}")
    if keep_prob == 1.0:
        return a
    # a one-byte mask and one scale keep the tape small; a * keep * inv is
    # bit for bit a * (keep / keep_prob)
    keep = rng.keep_mask(a.shape, keep_prob)
    inv = 1.0 / keep_prob
    out = Tensor(a.data * keep * inv)
    if _recording(a):
        ga = _slot(a)
        _record(out, lambda g: _accum(ga, g * keep * inv, True), ga)
    return out


# --- shape manipulation -----------------------------------------------------


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    if not parts:
        raise ShapeError("concat: empty input list")
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    if _recording(*parts):
        slots = [_slot(p) for p in parts]
        # each part's index into the output, so backward slices g directly
        pieces, hi = [], 0
        for p in parts:
            lo, hi = hi, hi + p.data.shape[axis]
            idx = [slice(None)] * out.data.ndim
            idx[axis] = slice(lo, hi)
            pieces.append(tuple(idx))

        def backward(g):
            for slot, idx in zip(slots, pieces):
                _accum(slot, g[idx])

        _record(out, backward, *slots)
    return out


def reduce_sum(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))
    if _recording(a):
        ga, a_shape = _slot(a), a.shape

        def backward(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            _accum(ga, np.broadcast_to(g, a_shape).copy(), True)

        _record(out, backward, ga)
    return out


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size
    return scale(reduce_sum(a), 1.0 / n)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    out = Tensor(a.data.reshape(shape))
    if _recording(a):
        ga, a_shape = _slot(a), a.shape
        _record(out, lambda g: _accum(ga, g.reshape(a_shape)), ga)
    return out


def narrow(a: Tensor, axis: int, start: int, length: int, step: int = 1) -> Tensor:
    """``length`` entries along one axis, from ``start`` every ``step``-th one."""
    if length < 1 or step < 1:
        raise ShapeError(f"narrow: need length >= 1 and step >= 1, got {length} and {step}")
    stop = start + step * (length - 1) + 1
    if start < 0 or stop > a.data.shape[axis]:
        raise ShapeError(
            f"narrow: slice [{start}, {stop}) out of range for axis "
            f"{axis} of shape {a.shape}"
        )
    # the axes after ``axis`` need no entry of their own
    idx = (slice(None),) * (axis % a.data.ndim) + (slice(start, stop, step),)
    out = Tensor(a.data[idx])
    if _recording(a):
        ga, a_shape = _slot(a), a.shape

        def backward(g):
            # the slices of one input fill one buffer of this pass
            if ga.owner != _GENERATION:
                _accum(ga, np.zeros(a_shape), True)
            ga.grad[idx] += g

        _record(out, backward, ga)
    return out


# --- structured primitives --------------------------------------------------


def _taps(x: np.ndarray, dilation: int, k: int, t_out: int, stride: int) -> np.ndarray:
    """The (B, k, C, t_out, N) view of a (B, C, T, N) array whose [:, s] is tap s
    of a k-tap convolution: steps d*(k-1-s) + stride*[0, t_out).

    One view with a negative tap stride, so one copy gathers all k taps, where
    a slice per tap took 5.7 us at (1, 1, 19, 10) and this 1.0 us. It views x
    where x is contiguous, writeable where x is (the input gradient adds each
    tap into one), and a contiguous copy of x otherwise: as_strided, which
    views any strides, took 3.7 us by itself.
    """
    x = np.ascontiguousarray(x)
    b, c, _, n = x.shape
    sb, sc, st, sn = x.strides
    return np.ndarray((b, k, c, t_out, n), x.dtype, x, dilation * (k - 1) * st,
                      (sb, -dilation * st, sc, stride * st, sn))


# Bytes of the gathered-tap buffer of one batch chunk in the convolution's
# forward pass. A whole-batch buffer (37 MB at train_wide's shapes) goes past
# the 32 MB mmap threshold that ``model.retain_freed_heap`` sets, and there the
# convolution got slower than per tap (16.7 -> 20.6 ms).
_GATHER_BYTES = 1 << 20


def _conv(parts: Sequence[Tensor], w: Tensor, dilation: int, bias: Tensor | None,
          stride: int = 1) -> Tensor:
    """The rule of the convolutions, on the channel concatenation of ``parts``.

    One product of rows per part where the output's steps read the input's
    in blocks of k (one tap at stride 1, or k taps for one output step), work
    per tap otherwise. Weight columns [lo, lo + c) read the part with c
    channels that starts at channel lo of the concatenation, which is never
    formed. A (C_out, C_in) w is read as one tap; only such a one-tap map
    passes more than one part. The output keeps every ``stride``-th step.
    """
    w_data = w.data
    b, _, t_in, n = parts[0].data.shape
    c_out, c_in = w_data.shape[0], w_data.shape[1]
    k = 1 if w_data.ndim == 2 else w_data.shape[2]
    t_out = (t_in - dilation * (k - 1) - 1) // stride + 1
    rows_form = t_out * k == t_in and (k == 1 or t_out == 1)
    if rows_form:
        # each part's (b, c*k, t_out*n) rows meet w's (C_out, c*k) column block
        # in one product; the first part's product is the output, each later one
        # adds into it. Where one output step reads all k input steps, w is read
        # with its taps reversed, so that tap s meets step k-1-s
        w_read = (w_data if w_data.ndim == 2 else w_data[:, :, 0] if k == 1
                  else w_data[:, :, ::-1].reshape(c_out, -1))
        blocks, acc, hi = [], None, 0
        for part in parts:
            x = part.data
            lo, hi = hi, hi + x.shape[1] * k
            blocks.append((lo, hi, x.shape))
            rows = x.reshape(b, hi - lo, t_out * n)
            # a K = 1 product: the broadcast is the same single multiply
            w_blk = w_read[:, lo:hi]
            y = w_blk * rows if hi - lo == 1 else w_blk @ rows
            if acc is None:
                acc = y
            else:
                acc += y
    else:
        x = parts[0].data
        # Copy the k tap slices of a chunk of m samples into one
        # (m, k*C_in, t_out*N) buffer and run one matmul with the
        # (C_out, k*C_in) weight into the chunk's output rows. The buffer and
        # the output share one allocation, the buffer first, freed together:
        # as two arrays the heap placed them so that peak RSS rose by up to
        # 2 MB on some seeds (train_small 67.0 -> 69.1 MB).
        m = max(1, min(b, _GATHER_BYTES // (8 * k * c_in * t_out * n)))
        size = m * k * c_in * t_out * n
        block = np.empty(size + b * c_out * t_out * n)
        gathered = block[:size].reshape(m, k, c_in, t_out, n)
        acc = block[size:].reshape(b, c_out, t_out * n)
        w_read = w_data
        w_flat = w_data.transpose(0, 2, 1).reshape(c_out, k * c_in)
        taps = _taps(x, dilation, k, t_out, stride)
        for start in range(0, b, m):
            rows = min(m, b - start)
            gathered[:rows] = taps[start : start + rows]
            np.matmul(w_flat, gathered[:rows].reshape(rows, k * c_in, t_out * n),
                      out=acc[start : start + rows])
    if bias is not None:
        acc += bias.data.reshape(1, -1, 1)
    out = Tensor(acc.reshape(b, c_out, t_out, n))
    inputs = (*parts, w) if bias is None else (*parts, w, bias)
    if _recording(*inputs):
        gxs, gw, w_shape = [_slot(p) for p in parts], _slot(w), w.shape
        gbias = None if bias is None else _slot(bias)
        # each part is re-read in backward, so a strided part is not kept as a copy
        x_datas = [p.data if gw else None for p in parts]
        # the weight as the forward pass read it, kept for the input gradients
        w_read = w_read if any(gxs) else None

        def backward(g):
            g = g.reshape(b, c_out, t_out * n)
            if rows_form:
                for (lo, hi, x_shape), gx in zip(blocks, gxs):
                    if gx:
                        _accum(gx, (w_read[:, lo:hi].T @ g).reshape(x_shape), True)
                if gw:
                    dw = np.empty((c_out, c_in * k))
                    for (lo, hi, _), x in zip(blocks, x_datas):
                        rows = x.reshape(b, hi - lo, t_out * n)
                        dw[:, lo:hi] = (g @ rows.transpose(0, 2, 1)).sum(axis=0)
                    if k > 1:  # back in w's layout, taps in their order
                        dw = np.ascontiguousarray(dw.reshape(w_shape)[:, :, ::-1])
                    _accum(gw, dw.reshape(w_shape), True)
            else:
                (gx,), (x,) = gxs, x_datas
                if gx:
                    dx = np.zeros((b, c_in, t_in, n))
                    dx_taps = _taps(dx, dilation, k, t_out, stride)
                    for s in range(k):
                        dx_taps[:, s] += (w_read[:, :, s].T @ g).reshape(b, c_in, t_out, n)
                    _accum(gx, dx, True)
                if gw:
                    dw = np.empty((c_out, c_in, k))
                    x_taps = _taps(x, dilation, k, t_out, stride)
                    if c_in == 1:
                        # one product on the channel's k taps in step order
                        rows = x_taps[:, ::-1, 0].reshape(b, k, t_out * n)
                        dw[:, :, ::-1] = (g @ rows.transpose(0, 2, 1)).sum(
                            axis=0).reshape(c_out, c_in, k)
                    else:
                        for s in range(k):
                            x_tap = x_taps[:, s].reshape(b, c_in, t_out * n)
                            dw[:, :, s] = (g @ x_tap.transpose(0, 2, 1)).sum(axis=0)
                    _accum(gw, dw, True)
            if gbias:
                _accum(gbias, g.sum(axis=(0, 2)), True)

        _record(out, backward, *gxs, gw, gbias)
    return out


def conv1d_dilated(x: Tensor, w: Tensor, dilation: int, stride: int = 1) -> Tensor:
    """Dilated 1-D convolution along the time axis (axis 2).

    x: (B, C_in, T, N), w: (C_out, C_in, k). Causal by truncation: the full
    output keeps only steps with a full set of taps, out(t) = sum_s w(s)
    x(t - d*s), so its time length shrinks to T - d*(k-1). Of those steps the
    result keeps the first and every ``stride``-th one after it.
    """
    if x.data.ndim != 4 or w.data.ndim != 3 or x.data.shape[1] != w.data.shape[1]:
        raise ShapeError(f"conv1d_dilated: incompatible shapes {x.shape}, {w.shape}")
    if dilation < 1 or stride < 1:
        raise ShapeError(
            f"conv1d_dilated: need dilation >= 1 and stride >= 1, got {dilation} and {stride}")
    t_in, k = x.data.shape[2], w.data.shape[2]
    if t_in - dilation * (k - 1) < 1:
        raise ShapeError(
            f"conv1d_dilated: time axis {t_in} shorter than required minimum "
            f"{dilation * (k - 1) + 1} (axis 2 of {x.shape}; kernel {k}, dilation {dilation})"
        )
    return _conv([x], w, dilation, None, stride)


def channel_map(x: Tensor, w: Tensor, bias: Tensor | None = None) -> Tensor:
    """1x1 convolution over the channel axis of (B, C, T, N): a one-tap conv1d_dilated."""
    if x.data.ndim != 4 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[1]:
        raise ShapeError(f"channel_map: incompatible shapes {x.shape}, {w.shape}")
    return _conv([x], w, 1, bias)


def channel_map_concat(parts: Sequence[Tensor], w: Tensor, bias: Tensor | None = None) -> Tensor:
    """``channel_map(concat(parts, axis=1), w, bias)``, without forming the concatenation.

    Each part is (B, C_i, T, N) with the same B, T and N; w is (C_out, sum C_i).
    """
    shapes = [p.data.shape for p in parts]
    # one pass: each part is (B, C_i, T, N) like the first, and the C_i add up
    channels = 0
    for s in shapes:
        if len(s) != 4 or s[0] != shapes[0][0] or s[2:] != shapes[0][2:]:
            channels = -1
            break
        channels += s[1]
    if not shapes or w.data.ndim != 2 or channels != w.data.shape[1]:
        raise ShapeError(f"channel_map_concat: incompatible shapes {shapes}, {w.shape}")
    return _conv(parts, w, 1, bias)


def propagate(x: Tensor, p: Tensor) -> Tensor:
    """Apply a transition matrix along the node axis of (B, C, T, N), the last one.

    p is either (N, N), shared across the batch, or (B, N, N) with one matrix
    per sample. The product is rows @ p^T over x's rows of N node values.
    """
    x_shape = x.data.shape
    b, n = x_shape[0], x_shape[-1]
    # the ndarray methods, not np.swapaxes: at one window a call costs microseconds
    if p.data.ndim == 2:
        if p.data.shape != (n, n):
            raise ShapeError(f"propagate: matrix {p.shape} does not match node axis {n}")
        rows, p_t = (-1, n), p.data.T
    elif p.data.ndim == 3:
        if p.data.shape[1:] != (n, n) or p.data.shape[0] != b:
            raise ShapeError(f"propagate: batch matrix {p.shape} does not match {x.shape}")
        rows, p_t = (b, -1, n), p.data.transpose(0, 2, 1)
    else:
        raise ShapeError(f"propagate: matrix rank must be 2 or 3, got shape {p.shape}")
    out = Tensor((x.data.reshape(rows) @ p_t).reshape(x_shape))
    if _recording(x, p):
        gx, gp = _slot(x), _slot(p)
        x_data, p_data = (x.data if gp else None), (p.data if gx else None)

        def backward(g):
            g_rows = g.reshape(rows)
            if gx:
                _accum(gx, (g_rows @ p_data).reshape(x_shape), True)
            if gp:
                _accum(gp, g_rows.swapaxes(-1, -2) @ x_data.reshape(rows), True)

        _record(out, backward, gx, gp)
    return out


# --- verification -----------------------------------------------------------


class GradCheckReport:
    def __init__(self, max_rel_err: float, tol: float, worst_index: tuple):
        self.max_rel_err = max_rel_err
        self.tol = tol
        self.worst_index = worst_index
        self.passed = max_rel_err < tol

    def __repr__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"GradCheckReport({status}, max_rel_err={self.max_rel_err:.3e}, "
            f"tol={self.tol:.1e}, worst={self.worst_index})"
        )


def grad_check(
    f: Callable[[Tensor], Tensor],
    x: Tensor,
    h: float = 1e-5,
    tol: float = 1e-4,
    sample: int | None = None,
    rng: np.random.Generator | None = None,
) -> GradCheckReport:
    """Compare tape gradients of scalar f(x) against central finite differences.

    Operates on x in place, so x may be a live model parameter with f running
    a full forward pass. With ``sample`` set, only that many randomly chosen
    entries of x are perturbed (the analytic gradient is computed in full).
    """
    saved_flag, saved_grad = x.requires_grad, x.grad
    x.requires_grad = True
    x.grad = None
    t = Tape()
    with t:
        y = f(x)
    if y.data.size != 1:
        x.requires_grad, x.grad = saved_flag, saved_grad
        raise TapeError(f"grad_check: f must return a scalar, got shape {y.shape}")
    t.backward(y)
    analytic = np.zeros_like(x.data) if x.grad is None else x.grad.copy()
    x.requires_grad, x.grad = saved_flag, saved_grad

    flat = x.data.reshape(-1)
    n = flat.size
    if sample is not None and sample < n:
        perm = rng.permutation(n) if rng is not None else np.random.default_rng(0).permutation(n)
        indices = perm[:sample]
    else:
        indices = np.arange(n)

    max_rel = 0.0
    worst = ()
    a_flat = analytic.reshape(-1)
    for i in indices:
        orig = flat[i]
        flat[i] = orig + h
        hi = f(x).item()
        flat[i] = orig - h
        lo = f(x).item()
        flat[i] = orig
        numeric = (hi - lo) / (2.0 * h)
        denom = max(abs(numeric), abs(a_flat[i]), 1e-8)
        rel = abs(numeric - a_flat[i]) / denom
        if rel > max_rel:
            max_rel = rel
            worst = np.unravel_index(i, x.shape)
    return GradCheckReport(max_rel, tol, worst)
