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
"""

from __future__ import annotations

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
    """Receptive field of a k-layer stack with max kernel c and growth q."""
    if q <= 1:
        raise ConfigError(f"dilation growth rate must exceed 1, got {q}")
    if c < 2 or k < 1:
        raise ConfigError(f"need kernel >= 2 and layers >= 1, got c={c}, k={k}")
    return int(round(1 + (c - 1) * (q**k - 1) / (q - 1)))


def layer_dilation(q: float, layer_index: int) -> int:
    """Dilation of layer j (1-based): q^(j-1), floored, at least 1."""
    return max(1, int(q ** (layer_index - 1)))


def _pad_taps(f: Tensor) -> Tensor:
    """Extend a (C, C_in, k) kernel with zero taps s = k .. MAX_KERNEL-1."""
    missing = MAX_KERNEL - f.shape[2]
    if not missing:
        return f
    return ad.concat([f, Tensor(np.zeros(f.shape[:2] + (missing,)))], axis=2)


def _packed_inception(x: Tensor, banks: Sequence[DilatedInception]) -> Tensor:
    """All branches of all banks as one 7-tap convolution plus their biases.

    Output channels follow bank order, then kernel order within a bank.
    """
    first = banks[0]
    if x.shape[3] < first.min_length():
        raise ad.ShapeError(
            f"dilated inception needs time length >= {first.min_length()}, got {x.shape[3]}"
        )
    w = ad.concat([_pad_taps(f) for bank in banks for f in bank.filters], axis=0)
    bias = ad.concat([bank.bias for bank in banks], axis=0)
    y = ad.conv1d_dilated(x, w, first.dilation)
    return ad.add(y, ad.reshape(bias, (1, -1, 1, 1)))


class DilatedInception:
    """Four parallel dilated convolutions with an even channel split.

    The per-kernel filters ``f2 .. f7`` are the parameters; the forward pass
    packs them, zero-padded to 7 taps, into one convolution weight.
    """

    def __init__(self, c_in: int, c_out: int, dilation: int, rng: RngState):
        if c_out % len(KERNEL_SIZES) != 0:
            raise ConfigError(f"out-channels must be divisible by 4, got {c_out}")
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
        """x: (B, C_in, N, T) -> (B, C_out, N, T - dilation*(7-1))."""
        return _packed_inception(x, [self])


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

    def __call__(self, x: Tensor) -> Tensor:
        both = _packed_inception(x, [self.filter_bank, self.gate_bank])
        c = self.filter_bank.bias.shape[0]
        return ad.mul(ad.tanh(ad.narrow(both, 1, 0, c)), ad.sigmoid(ad.narrow(both, 1, c, c)))
