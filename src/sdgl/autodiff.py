"""Reverse-mode automatic differentiation over dense float64 arrays.

A ``Tape`` records primitive operations in execution order during a forward
pass; ``Tape.backward`` replays it once in reverse, accumulating gradients
into every tensor that requires them. All math is float64 so that central
finite differences are a meaningful oracle (see ``grad_check``).

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
    "absolute",
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


class Tensor:
    """A shaped float64 array with an optional gradient slot."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

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
        self._nodes: list[tuple[Tensor, Callable]] = []
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
        activations and gradients the caller does not hold are freed during
        backward rather than when the tape is dropped.
        """
        if self._consumed:
            raise TapeError("tape already consumed by a previous backward()")
        if loss.data.size != 1:
            raise TapeError(f"loss must be scalar, got shape {loss.shape}")
        self._consumed = True
        loss.grad = np.ones_like(loss.data)
        while self._nodes:
            out, backward_fn = self._nodes.pop()
            g = out.grad
            if g is None:
                g = np.zeros_like(out.data)
            backward_fn(g)


_ACTIVE_TAPE: Tape | None = None


def _record(out: Tensor, inputs: tuple[Tensor, ...], backward_fn: Callable) -> Tensor:
    if _ACTIVE_TAPE is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        _ACTIVE_TAPE._nodes.append((out, backward_fn))
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    if t.requires_grad:
        t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the original operand shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


# --- elementwise ------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data)

    def backward(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(g, b.shape))

    return _record(out, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    return add(a, scale(b, -1.0))


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data)

    def backward(g):
        _accum(a, _unbroadcast(g * b.data, a.shape))
        _accum(b, _unbroadcast(g * a.data, b.shape))

    return _record(out, (a, b), backward)


def divide(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data / b.data)

    def backward(g):
        _accum(a, _unbroadcast(g / b.data, a.shape))
        _accum(b, _unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return _record(out, (a, b), backward)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    out = Tensor(a.data * s)
    return _record(out, (a,), lambda g: _accum(a, g * s))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    out = Tensor(np.where(mask, a.data, 0.0))
    return _record(out, (a,), lambda g: _accum(a, g * mask))


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    out = Tensor(y)
    return _record(out, (a,), lambda g: _accum(a, g * (1.0 - y * y)))


def sigmoid(a: Tensor) -> Tensor:
    # piecewise form avoids exp overflow for large negative inputs
    pos = a.data >= 0
    e = np.exp(np.where(pos, -a.data, a.data))
    y = np.where(pos, 1.0 / (1.0 + e), e / (1.0 + e))
    out = Tensor(y)
    return _record(out, (a,), lambda g: _accum(a, g * y * (1.0 - y)))


def absolute(a: Tensor) -> Tensor:
    out = Tensor(np.abs(a.data))
    sign = np.sign(a.data)
    return _record(out, (a,), lambda g: _accum(a, g * sign))


# --- linear algebra ---------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 2 or b.data.ndim < 2 or a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} @ {b.shape}")
    out = Tensor(np.matmul(a.data, b.data))

    def backward(g):
        _accum(a, _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape))
        _accum(b, _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape))

    return _record(out, (a, b), backward)


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    if a.data.ndim < 2:
        raise ShapeError(f"transpose: need rank >= 2, got shape {a.shape}")
    out = Tensor(np.swapaxes(a.data, -1, -2))
    return _record(out, (a,), lambda g: _accum(a, np.swapaxes(g, -1, -2)))


# --- normalization ----------------------------------------------------------


def row_softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis; rows sum to one, entries stay positive."""
    z = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(y)

    def backward(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        _accum(a, y * (g - dot))

    return _record(out, (a,), backward)


def layer_norm(
    a: Tensor,
    gain: Tensor | None = None,
    bias: Tensor | None = None,
    eps: float = 1e-5,
) -> Tensor:
    """Normalize over the last axis; optional learnable per-feature affine.

    The variance is floored at eps^2 so output rows have exactly unit
    variance whenever the input row varies at all, while a constant (or
    all-zero) row maps to zero instead of dividing by zero.
    """
    mu = a.data.mean(axis=-1, keepdims=True)
    var = a.data.var(axis=-1, keepdims=True)
    guarded = var <= eps * eps
    inv = 1.0 / np.sqrt(np.maximum(var, eps * eps))
    xhat = (a.data - mu) * inv

    def backward(g):
        m1 = g.mean(axis=-1, keepdims=True)
        m2 = (g * xhat).mean(axis=-1, keepdims=True)
        # guarded rows treat the scale as constant: no variance gradient
        m2 = np.where(guarded, 0.0, m2)
        _accum(a, inv * (g - m1 - xhat * m2))

    y = _record(Tensor(xhat), (a,), backward)
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
    mask = (rng.random(a.shape) < keep_prob) / keep_prob
    out = Tensor(a.data * mask)
    return _record(out, (a,), lambda g: _accum(a, g * mask))


# --- shape manipulation -----------------------------------------------------


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    if not parts:
        raise ShapeError("concat: empty input list")
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    sizes = [p.data.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        for p, piece in zip(parts, np.split(g, splits, axis=axis)):
            _accum(p, piece)

    return _record(out, tuple(parts), backward)


def reduce_sum(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, a.shape).copy())

    return _record(out, (a,), backward)


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size
    return scale(reduce_sum(a), 1.0 / n)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    out = Tensor(a.data.reshape(shape))
    return _record(out, (a,), lambda g: _accum(a, g.reshape(a.shape)))


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

    def backward(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        _accum(a, full)

    return _record(out, (a,), backward)


# --- structured primitives --------------------------------------------------


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

    def tap_input(s: int) -> np.ndarray:
        return x.data[..., offsets[s] : offsets[s] + t_out].reshape(b, c_in, n * t_out)

    acc = w.data[:, :, 0] @ tap_input(0)
    for s in range(1, k):
        acc += w.data[:, :, s] @ tap_input(s)
    out = Tensor(acc.reshape(b, c_out, n, t_out))

    def backward(g):
        g = g.reshape(b, c_out, n * t_out)
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            for s, off in enumerate(offsets):
                gx[..., off : off + t_out] += (w.data[:, :, s].T @ g).reshape(b, c_in, n, t_out)
            _accum(x, gx)
        if w.requires_grad:
            gw = np.empty_like(w.data)
            for s in range(k):
                gw[:, :, s] = (g @ tap_input(s).transpose(0, 2, 1)).sum(axis=0)
            _accum(w, gw)

    return _record(out, (x, w), backward)


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

    def backward(g):
        g = g.reshape(b, c_out, n * t)
        if x.requires_grad:
            _accum(x, (w.data.T @ g).reshape(x.shape))
        if w.requires_grad:
            # re-flattened here, so a strided x is not kept as a copy on the tape
            x3 = x.data.reshape(b, c_in, n * t)
            _accum(w, (g @ x3.transpose(0, 2, 1)).sum(axis=0))
        if bias is not None and bias.requires_grad:
            _accum(bias, g.sum(axis=(0, 2)))

    return _record(out, inputs, backward)


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

    def backward(g):
        if x.requires_grad:
            _accum(x, np.swapaxes(pb, -1, -2) @ g)
        if p.requires_grad:
            # g @ x^T summed over batch and channel (shared p) or over channel
            # (per-sample p). The summed axes join time in the inner dimension
            # of one matmul, so no (B, C, N, N) intermediate is formed.
            def node_rows(a):
                return np.moveaxis(a, 2, p.data.ndim - 2).reshape(p.shape[:-1] + (-1,))

            _accum(p, node_rows(g) @ np.swapaxes(node_rows(x.data), -1, -2))

    return _record(out, (x, p), backward)


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
