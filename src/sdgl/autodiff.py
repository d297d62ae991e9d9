"""Reverse-mode automatic differentiation over dense float64 arrays.

A ``Tape`` records primitive operations in execution order during a forward
pass; ``Tape.backward`` replays it once in reverse, accumulating gradients
into every tensor that requires them. All math is float64 so that central
finite differences are a meaningful oracle (see ``grad_check``).

What the tape keeps: a tensor's gradient lives in a slot apart from its
data, and ``Tensor.grad`` reads and writes that slot. A primitive that runs
under an active tape with an input that requires a gradient records one node:
its output's slot, the output's shape and a backward closure. The closure
holds the slot of each input that needs a gradient and exactly the arrays its
rule reads: the other operand of ``mul``, ``divide``, ``matmul``,
``conv1d_dilated``, ``channel_map`` and ``propagate``, the output of
``tanh``, ``sigmoid`` and ``row_softmax``, the masks of ``relu`` and
``dropout`` (one byte per entry), ``layer_norm``'s normalized input. It never
holds a ``Tensor``. So an activation no rule reads, such as the output of
``add``, ``scale``, ``reshape``, ``narrow`` or ``concat``, is freed as soon as
the forward pass drops it, and the rest is freed as ``backward`` releases each
node. With no active tape, no closure and no slot is built.

Each gradient is written once: ``sub`` is ``add`` of ``scale(b, -1)``,
``mean_all`` is ``scale`` of ``reduce_sum``, and ``layer_norm`` applies its
gain and bias with ``mul`` and ``add``. Primitives do not check operands for
non-finite values; ``train`` raises ``DivergenceError`` on a non-finite loss
and ``build_static_graph`` raises ``NumericError`` on non-finite embeddings.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "ShapeError",
    "NumericError",
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
    "propagate",
]


class ShapeError(ValueError):
    """Input shapes do not conform to a primitive's rule."""


class NumericError(ArithmeticError):
    """Non-finite values reached a step that cannot use them."""


class TapeError(RuntimeError):
    """Tape misuse: backward on a consumed tape, non-scalar loss, etc."""


class _Slot:
    """Where one tensor's gradient accumulates; backward closures hold this."""

    __slots__ = ("grad",)

    def __init__(self):
        self.grad: np.ndarray | None = None


class Tensor:
    """A shaped float64 array with an optional gradient slot."""

    __slots__ = ("data", "requires_grad", "_slot")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self._slot: _Slot | None = None

    @property
    def grad(self) -> np.ndarray | None:
        return None if self._slot is None else self._slot.grad

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        if self._slot is None:
            self._slot = _Slot()
        self._slot.grad = value

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
        # (output's gradient slot, output's shape, backward closure)
        self._nodes: list[tuple[_Slot, tuple[int, ...], Callable]] = []
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
        node whose output got no gradient passes on zeros.
        """
        if self._consumed:
            raise TapeError("tape already consumed by a previous backward()")
        if loss.data.size != 1:
            raise TapeError(f"loss must be scalar, got shape {loss.shape}")
        self._consumed = True
        loss.grad = np.ones_like(loss.data)
        while self._nodes:
            slot, shape, backward_fn = self._nodes.pop()
            g = slot.grad
            backward_fn(np.zeros(shape) if g is None else g)


_ACTIVE_TAPE: Tape | None = None


def _recording(*inputs: Tensor) -> bool:
    """Whether a primitive on ``inputs`` goes on the tape: one is active and
    some input requires a gradient. Primitives build their closure only then."""
    return _ACTIVE_TAPE is not None and any(t.requires_grad for t in inputs)


def _slot(t: Tensor) -> _Slot | None:
    """The slot a rule accumulates ``t``'s gradient into; None if t needs none."""
    if not t.requires_grad:
        return None
    if t._slot is None:
        t._slot = _Slot()
    return t._slot


def _record(out: Tensor, backward_fn: Callable) -> None:
    out.requires_grad = True
    out._slot = _Slot()
    _ACTIVE_TAPE._nodes.append((out._slot, out.data.shape, backward_fn))


def _accum(slot: _Slot | None, g: np.ndarray) -> None:
    if slot is not None:
        slot.grad = g if slot.grad is None else slot.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the original operand shape."""
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

        _record(out, backward)
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
                _accum(ga, _unbroadcast(g * b_data, a_shape))
            if gb:
                _accum(gb, _unbroadcast(g * a_data, b_shape))

        _record(out, backward)
    return out


def divide(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data / b.data)
    if _recording(a, b):
        ga, gb, a_shape, b_shape = _slot(a), _slot(b), a.shape, b.shape
        a_data, b_data = (a.data if gb else None), b.data

        def backward(g):
            if ga:
                _accum(ga, _unbroadcast(g / b_data, a_shape))
            if gb:
                _accum(gb, _unbroadcast(-g * a_data / (b_data * b_data), b_shape))

        _record(out, backward)
    return out


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    out = Tensor(a.data * s)
    if _recording(a):
        ga = _slot(a)
        _record(out, lambda g: _accum(ga, g * s))
    return out


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    out = Tensor(np.where(mask, a.data, 0.0))
    if _recording(a):
        ga = _slot(a)
        _record(out, lambda g: _accum(ga, g * mask))
    return out


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    out = Tensor(y)
    if _recording(a):
        ga = _slot(a)
        _record(out, lambda g: _accum(ga, g * (1.0 - y * y)))
    return out


def sigmoid(a: Tensor) -> Tensor:
    # piecewise form avoids exp overflow for large negative inputs
    pos = a.data >= 0
    e = np.exp(np.where(pos, -a.data, a.data))
    y = np.where(pos, 1.0 / (1.0 + e), e / (1.0 + e))
    out = Tensor(y)
    if _recording(a):
        ga = _slot(a)
        _record(out, lambda g: _accum(ga, g * y * (1.0 - y)))
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
                _accum(ga, _unbroadcast(np.matmul(g, np.swapaxes(b_data, -1, -2)), a_shape))
            if gb:
                _accum(gb, _unbroadcast(np.matmul(np.swapaxes(a_data, -1, -2), g), b_shape))

        _record(out, backward)
    return out


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    if a.data.ndim < 2:
        raise ShapeError(f"transpose: need rank >= 2, got shape {a.shape}")
    out = Tensor(np.swapaxes(a.data, -1, -2))
    if _recording(a):
        ga = _slot(a)
        _record(out, lambda g: _accum(ga, np.swapaxes(g, -1, -2)))
    return out


# --- normalization ----------------------------------------------------------


def row_softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis; rows sum to one, entries stay positive."""
    z = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(y)
    if _recording(a):
        ga = _slot(a)

        def backward(g):
            dot = (g * y).sum(axis=-1, keepdims=True)
            _accum(ga, y * (g - dot))

        _record(out, backward)
    return out


def layer_norm(a: Tensor, gain: Tensor | None = None, bias: Tensor | None = None) -> Tensor:
    """Normalize over the last axis; optional learnable per-feature affine.

    The variance is floored at eps^2 (eps = 1e-5) so output rows have exactly
    unit variance whenever the input row varies at all, while a constant (or
    all-zero) row maps to zero instead of dividing by zero.
    """
    floor = 1e-5 * 1e-5
    mu = a.data.mean(axis=-1, keepdims=True)
    var = a.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(np.maximum(var, floor))
    xhat = (a.data - mu) * inv
    y = Tensor(xhat)
    if _recording(a):
        ga, guarded = _slot(a), var <= floor

        def backward(g):
            m1 = g.mean(axis=-1, keepdims=True)
            m2 = (g * xhat).mean(axis=-1, keepdims=True)
            # guarded rows treat the scale as constant: no variance gradient
            m2 = np.where(guarded, 0.0, m2)
            _accum(ga, inv * (g - m1 - xhat * m2))

        _record(y, backward)
    if gain is not None:
        y = mul(y, gain)
    if bias is not None:
        y = add(y, bias)
    return y


def dropout(a: Tensor, keep_prob: float, rng, training: bool) -> Tensor:
    """Inverted dropout: scaled by 1/keep at train time, identity in eval."""
    if not 0.0 < keep_prob <= 1.0:
        raise ShapeError(f"dropout: keep probability must be in (0, 1], got {keep_prob}")
    if not training or keep_prob == 1.0:
        return a
    # a one-byte mask and one scale keep the tape small; a * keep * inv is
    # bit for bit a * (keep / keep_prob)
    keep = rng.random(a.shape) < keep_prob
    inv = 1.0 / keep_prob
    out = Tensor(a.data * keep * inv)
    if _recording(a):
        ga = _slot(a)
        _record(out, lambda g: _accum(ga, g * keep * inv))
    return out


# --- shape manipulation -----------------------------------------------------


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    if not parts:
        raise ShapeError("concat: empty input list")
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    if _recording(*parts):
        slots = [_slot(p) for p in parts]
        splits = np.cumsum([p.data.shape[axis] for p in parts])[:-1]

        def backward(g):
            for slot, piece in zip(slots, np.split(g, splits, axis=axis)):
                _accum(slot, piece)

        _record(out, backward)
    return out


def reduce_sum(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))
    if _recording(a):
        ga, a_shape = _slot(a), a.shape

        def backward(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            _accum(ga, np.broadcast_to(g, a_shape).copy())

        _record(out, backward)
    return out


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size
    return scale(reduce_sum(a), 1.0 / n)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    out = Tensor(a.data.reshape(shape))
    if _recording(a):
        ga, a_shape = _slot(a), a.shape
        _record(out, lambda g: _accum(ga, g.reshape(a_shape)))
    return out


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along one axis."""
    if start < 0 or start + length > a.data.shape[axis]:
        raise ShapeError(
            f"narrow: slice [{start}, {start + length}) out of range for axis "
            f"{axis} of shape {a.shape}"
        )
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    out = Tensor(a.data[idx])
    if _recording(a):
        ga, a_shape = _slot(a), a.shape

        def backward(g):
            full = np.zeros(a_shape)
            full[idx] = g
            _accum(ga, full)

        _record(out, backward)
    return out


# --- structured primitives --------------------------------------------------


def _tap(x: np.ndarray, offset: int, t_out: int) -> np.ndarray:
    """Positions offset + [0, t_out) of a (B, C, N, T) array as (B, C, N*t_out)."""
    b, c, n, _ = x.shape
    return x[..., offset : offset + t_out].reshape(b, c, n * t_out)


def conv1d_dilated(x: Tensor, w: Tensor, dilation: int) -> Tensor:
    """Dilated 1-D convolution along the trailing (time) axis.

    x: (B, C_in, N, T), w: (C_out, C_in, k). Causal by truncation: the output
    keeps only positions with a full set of taps, out(t) = sum_s w(s) x(t - d*s),
    so the time length shrinks to T - d*(k-1).
    """
    if x.data.ndim != 4 or w.data.ndim != 3 or x.data.shape[1] != w.data.shape[1]:
        raise ShapeError(f"conv1d_dilated: incompatible shapes {x.shape}, {w.shape}")
    b, c_in, n, t_in = x.data.shape
    c_out, _, k = w.data.shape
    t_out = t_in - dilation * (k - 1)
    if t_out < 1:
        raise ShapeError(
            f"conv1d_dilated: time axis {t_in} shorter than required minimum "
            f"{dilation * (k - 1) + 1} (kernel {k}, dilation {dilation})"
        )
    # Tap s reads input positions offset + [0, t_out), offset = d*(k-1-s); it
    # is one (C_out, C_in) matmul on that slice, flattened to (B, C_in, N*t_out).
    offsets = [dilation * (k - 1 - s) for s in range(k)]
    acc = w.data[:, :, 0] @ _tap(x.data, offsets[0], t_out)
    for s in range(1, k):
        acc += w.data[:, :, s] @ _tap(x.data, offsets[s], t_out)
    out = Tensor(acc.reshape(b, c_out, n, t_out))
    if _recording(x, w):
        gx, gw = _slot(x), _slot(w)
        x_data, w_data = (x.data if gw else None), (w.data if gx else None)

        def backward(g):
            g = g.reshape(b, c_out, n * t_out)
            if gx:
                dx = np.zeros((b, c_in, n, t_in))
                for s, off in enumerate(offsets):
                    dx[..., off : off + t_out] += (w_data[:, :, s].T @ g).reshape(b, c_in, n, t_out)
                _accum(gx, dx)
            if gw:
                dw = np.empty((c_out, c_in, k))
                for s, off in enumerate(offsets):
                    dw[:, :, s] = (g @ _tap(x_data, off, t_out).transpose(0, 2, 1)).sum(axis=0)
                _accum(gw, dw)

        _record(out, backward)
    return out


def channel_map(x: Tensor, w: Tensor, bias: Tensor | None = None) -> Tensor:
    """1x1 convolution: linear map over the channel axis of (B, C, N, T)."""
    if x.data.ndim != 4 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[1]:
        raise ShapeError(f"channel_map: incompatible shapes {x.shape}, {w.shape}")
    b, c_in, n, t = x.data.shape
    c_out = w.data.shape[0]
    y = w.data @ x.data.reshape(b, c_in, n * t)
    if bias is not None:
        y += bias.data.reshape(1, -1, 1)
    out = Tensor(y.reshape(b, c_out, n, t))
    inputs = (x, w) if bias is None else (x, w, bias)
    if _recording(*inputs):
        gx, gw = _slot(x), _slot(w)
        gbias = None if bias is None else _slot(bias)
        x_data, w_data = (x.data if gw else None), (w.data if gx else None)

        def backward(g):
            g = g.reshape(b, c_out, n * t)
            if gx:
                _accum(gx, (w_data.T @ g).reshape(b, c_in, n, t))
            if gw:
                # re-flattened here, so a strided x is not kept as a copy on the tape
                x3 = x_data.reshape(b, c_in, n * t)
                _accum(gw, (g @ x3.transpose(0, 2, 1)).sum(axis=0))
            if gbias:
                _accum(gbias, g.sum(axis=(0, 2)))

        _record(out, backward)
    return out


def _node_rows(a: np.ndarray, p_shape: tuple[int, ...]) -> np.ndarray:
    """(B, C, N, T) with the node axis first, the rest flattened behind it:
    (N, B*C*T) for a shared p, (B, N, C*T) for one p per sample."""
    return np.moveaxis(a, 2, len(p_shape) - 2).reshape(p_shape[:-1] + (-1,))


def propagate(x: Tensor, p: Tensor) -> Tensor:
    """Apply a transition matrix along the node axis of (B, C, N, T).

    p is either (N, N), shared across the batch, or (B, N, N) with one matrix
    per sample.
    """
    n = x.data.shape[2]
    if p.data.ndim == 2:
        if p.data.shape != (n, n):
            raise ShapeError(f"propagate: matrix {p.shape} does not match node axis {n}")
        pb = p.data
    elif p.data.ndim == 3:
        if p.data.shape[1:] != (n, n) or p.data.shape[0] != x.data.shape[0]:
            raise ShapeError(f"propagate: batch matrix {p.shape} does not match {x.shape}")
        pb = p.data[:, None]  # (B, 1, N, N): one matrix per sample, shared by channels
    else:
        raise ShapeError(f"propagate: matrix rank must be 2 or 3, got shape {p.shape}")
    out = Tensor(pb @ x.data)
    if _recording(x, p):
        gx, gp, p_shape = _slot(x), _slot(p), p.shape
        x_data, p_data = (x.data if gp else None), (pb if gx else None)

        def backward(g):
            if gx:
                _accum(gx, np.swapaxes(p_data, -1, -2) @ g)
            if gp:
                # g @ x^T summed over batch and channel (shared p) or over channel
                # (per-sample p). The summed axes join time in the inner dimension
                # of one matmul, so no (B, C, N, N) intermediate is formed.
                _accum(gp, _node_rows(g, p_shape) @ np.swapaxes(_node_rows(x_data, p_shape), -1, -2))

        _record(out, backward)
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
