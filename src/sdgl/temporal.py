"""Gated dilated-inception temporal convolution.

Each layer runs four parallel dilated convolutions (kernel sizes 2, 3, 6, 7),
truncates all branches to the longest kernel's output length and concatenates
them along the channel axis. Two independent filter banks are combined as
tanh(a) * sigmoid(b). Dilation grows geometrically with depth at rate q.

A k-tap branch truncated to the 7-tap output length equals a 7-tap kernel
whose taps s >= k are zero. So the forward pass zero-pads every branch's
kernel to 7 taps and stacks the branches of both banks into one
(2*C_out, C_in, 7) weight: a gated layer is a single ``conv1d_dilated``. The
padding is built on the tape from the per-kernel filters, so gradients land
on those filters and the padded taps have no trainable slot.

A layer may read a one-channel input through a map x -> w x + b (the
model's start map, w (C_in, 1), b (C_in,)) that is never formed: nothing
nonlinear lies between the map and the convolution, so the layer convolves x
with W'[o, 0, s] = sum_c W[o, c, s] w[c] and adds sum_{c, s} W[o, c, s] b[c]
to its bias. The convolution keeps only steps with a full set of taps, so
every kept step gets the whole bias term, and the result is the unfolded one
up to rounding. The fold is built on the tape from the weights alone, so
gradients reach w, b and the filters. The model's input needs no gradient,
so the convolution then runs no input-gradient pass, and its forward product
sums over 7 taps where it summed over 7 * C_in.

The packed weight and bias, fold included, depend on the parameters alone:
``GatedTemporalLayer.packed`` derives them, and a caller that holds them
(``SDGLModel``, which keeps them between untaped passes) hands them to the
layer's call.

A stack need not compute every step. ``step_plan`` gives, for each feature
map of a stack, the evenly spaced steps ending at its last one that the
forecast reads; a gated layer then runs at its dilation counted in its
input's kept steps and keeps every stride-th output step.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .params import weight, zeros
from .rng import RngState
from .static_graph import ConfigError

KERNEL_SIZES = (2, 3, 6, 7)
MAX_KERNEL = max(KERNEL_SIZES)


def receptive_field(c: int, q: float, k: int) -> int:
    """The paper's closed form 1 + (c-1)(q^k - 1)/(q - 1), a k-layer stack's receptive field.

    Only at integer q is it the bound of the stack built: ``ModelConfig`` checks the
    floored dilations, so at c = 7 and 3 layers it reads 30 where the stack needs
    25 at q = 1.5, and 60 where it needs 55 at q = 2.5.
    """
    if q <= 1:
        raise ConfigError(f"dilation growth rate must exceed 1, got {q}")
    if c < 2 or k < 1:
        raise ConfigError(f"need kernel >= 2 and layers >= 1, got c={c}, k={k}")
    return int(round(1 + (c - 1) * (q**k - 1) / (q - 1)))


def layer_dilation(q: float, layer_index: int) -> int:
    """Dilation of layer j (1-based): q^(j-1), floored, at least 1."""
    return max(1, int(q ** (layer_index - 1)))


def step_plan(dilations: Sequence[int]) -> list[tuple[int, int]]:
    """(stride, count) of the steps each feature map of a layer stack keeps.

    Entry 0 is the stack's input, entry j the output of layer j (dilation
    ``dilations[j-1]``). A map keeps ``count`` steps spaced ``stride`` apart,
    the last of them its last step: the smallest such run that holds every
    step the forecast reads. The forecast reads the last step of each layer's
    output. Layer j reads its input at the steps of its own output and at
    those plus d, 2d, .. 6d before them (a 7-tap kernel of dilation d), and
    the residual reads the input at the output's steps, so the run of the
    input has stride gcd(stride, d). The last output keeps one step; it gets
    its input's stride, so its layer runs at stride 1.
    """
    plan = [(dilations[-1], 1)]
    for d in reversed(dilations):
        stride, count = plan[0]
        inner = d if count == 1 else math.gcd(stride, d)
        plan.insert(0, (inner, (stride * (count - 1) + (MAX_KERNEL - 1) * d) // inner + 1))
    return plan


def _pad_taps(f: Tensor) -> Tensor:
    """Extend a (C, C_in, k) kernel with zero taps s = k .. MAX_KERNEL-1."""
    missing = MAX_KERNEL - f.shape[2]
    if not missing:
        return f
    return ad.concat([f, Tensor(np.zeros(f.shape[:2] + (missing,)))], axis=2)


def _packed(banks: Sequence[DilatedInception], in_w: Tensor | None = None,
            in_b: Tensor | None = None) -> tuple[Tensor, Tensor]:
    """All branches of all banks as one 7-tap weight, and their bias as (1, C, 1, 1).

    Output channels follow bank order, then kernel order within a bank. With
    ``in_w`` and ``in_b`` the weight and bias read ``channel_map(x, in_w, in_b)``
    in place of x (see the module docstring). They depend on the parameters
    alone, not on the input.
    """
    w = ad.concat([_pad_taps(f) for bank in banks for f in bank.filters], axis=0)
    bias = ad.concat([bank.bias for bank in banks], axis=0)
    if in_w is not None:
        # (2C, C) tap sums @ (C, 1) b, then the (1, C) row w^T against every (C, 7) slice of W
        folded_b = ad.matmul(ad.reduce_sum(w, axis=2), ad.reshape(in_b, (-1, 1)))
        bias = ad.add(bias, ad.reshape(folded_b, (-1,)))
        w = ad.matmul(ad.transpose(in_w), w)
    return w, ad.reshape(bias, (1, -1, 1, 1))


def _packed_inception(x: Tensor, w: Tensor, bias: Tensor, dilation: int,
                      stride: int) -> Tensor:
    """The one convolution of ``_packed``'s weight, plus its bias."""
    return ad.add(ad.conv1d_dilated(x, w, dilation, stride), bias)


class DilatedInception:
    """Four parallel dilated convolutions with an even channel split.

    The per-kernel filters ``f2 .. f7`` are the parameters; the forward pass
    packs them, zero-padded to 7 taps, into one convolution weight.
    """

    def __init__(self, c_in: int, c_out: int, dilation: int, rng: RngState):
        self.dilation = dilation
        split = c_out // len(KERNEL_SIZES)
        self.filters = [
            weight(rng, c_in * k, (split, c_in, k)) for k in KERNEL_SIZES
        ]
        self.bias = zeros((c_out,))

    def parameters(self) -> dict[str, Tensor]:
        out = {f"f{k}": f for k, f in zip(KERNEL_SIZES, self.filters)}
        out["bias"] = self.bias
        return out

    def min_length(self) -> int:
        return self.dilation * (MAX_KERNEL - 1) + 1

    def __call__(self, x: Tensor) -> Tensor:
        """x: (B, C_in, T, N) -> (B, C_out, T - dilation*(7-1), N)."""
        return _packed_inception(x, *_packed([self]), self.dilation, 1)


class GatedTemporalLayer:
    """tanh/sigmoid-gated pair of dilated inception banks."""

    def __init__(self, c_in: int, c_out: int, dilation: int, rng: RngState):
        self.filter_bank = DilatedInception(c_in, c_out, dilation, rng)
        self.gate_bank = DilatedInception(c_in, c_out, dilation, rng)

    def parameters(self) -> dict[str, Tensor]:
        out = {}
        for name, t in self.filter_bank.parameters().items():
            out[f"filter.{name}"] = t
        for name, t in self.gate_bank.parameters().items():
            out[f"gate.{name}"] = t
        return out

    def packed(self, in_w: Tensor | None = None,
               in_b: Tensor | None = None) -> tuple[Tensor, Tensor]:
        """Both banks' packed weight and bias, reading ``channel_map(x, in_w,
        in_b)`` when ``in_w`` and ``in_b`` are given: what ``__call__`` convolves."""
        return _packed([self.filter_bank, self.gate_bank], in_w, in_b)

    def __call__(self, x: Tensor, dilation: int | None = None, stride: int = 1,
                 packed: tuple[Tensor, Tensor] | None = None) -> Tensor:
        """x: (B, C_in, T, N) -> (B, C_out, T_out, N), as ``conv1d_dilated`` with
        the banks' dilation unless ``dilation`` is given, keeping every
        ``stride``-th step.

        ``packed`` is ``self.packed()``, derived here when not given. Given
        ``self.packed(in_w, in_b)``, x is (B, 1, T, N) and the layer reads
        ``channel_map(x, in_w, in_b)`` without forming it.
        """
        if dilation is None:
            dilation = self.filter_bank.dilation
        w, bias = self.packed() if packed is None else packed
        both = _packed_inception(x, w, bias, dilation, stride)
        c = self.filter_bank.bias.shape[0]
        return ad.mul(ad.tanh(ad.narrow(both, 1, 0, c)), ad.sigmoid(ad.narrow(both, 1, c, c)))
