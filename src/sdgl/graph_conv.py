"""Diffusion-style graph convolution with decoupled information selection.

Features are propagated s steps along the row-normalized transition matrix;
a 1x1 selection map over the channel concatenation of the hop outputs and the
untouched input picks what to keep, so each node can always fall back on its
own signal. The map reads each hop where it is (``channel_map_concat``): no
stacked copy is formed, in the forward pass or on the tape.

``mix_hop`` takes the transition matrix: ``SDGLModel.forward`` hands it the
learned graphs as built, row softmaxes whose rows sum to 1, which normalizing
again would change only by rounding. ``__call__`` normalizes a raw adjacency.

Selection commutes with propagation: W_k P^k x = P^k W_k x for the (C, C)
block W_k of ``w_select`` that reads hop k, as W_k mixes channels and P nodes.
So ``hop_maps`` forms each z_k = W_k x with one channel map per column block,
once for any number of graphs (``SDGLModel.forward``'s shared span), and
``horner`` sums P^k z_k over that list as z_0 + P(z_1 + P(z_2 + ... + P z_d)).

Both orders stay, each where it is cheaper (2-vCPU host, one BLAS thread).
Per-window passes keep ``mix_hop``, propagate then select: select-first adds
allocating adds and tape nodes, and at N = 10, B = 64 it took the forward pass
from 10.32 to 11.09 ms and 159 to 187 tape nodes. A shared span keeps
``hop_maps`` + ``horner``, select then propagate: running ``mix_hop`` per
window there made a batch of 128 consecutive windows at N = 10 13-15% slower.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .params import weight, zeros
from .rng import RngState


class DegenerateGraphError(ValueError):
    """Adjacency has a zero row and cannot be row-normalized."""


def transition_matrix(a: Tensor) -> Tensor:
    """P = A / rowsum(A); the identity for already row-stochastic input."""
    row_sums = ad.reduce_sum(a, axis=-1, keepdims=True)
    if np.any(row_sums.data <= 0):
        raise DegenerateGraphError("adjacency has a row with nonpositive sum")
    return ad.divide(a, row_sums)


class MixHopConv:
    """Multi-hop propagation followed by a channel selection map."""

    def __init__(self, channels: int, depth: int, rng: RngState):
        self.depth = depth
        self.w_select = weight(rng, channels * (depth + 1), (channels, channels * (depth + 1)))
        self.bias = zeros((channels,))

    def parameters(self) -> dict[str, Tensor]:
        return {"w_select": self.w_select, "bias": self.bias}

    def __call__(self, x: Tensor, adj: Tensor) -> Tensor:
        """x: (B, C, T, N); adj: (N, N) shared or (B, N, N) per sample."""
        return self.mix_hop(x, transition_matrix(adj))

    def mix_hop(self, x: Tensor, p: Tensor) -> Tensor:
        """x: (B, C, T, N); p: the transition matrix, (N, N) or (B, N, N)."""
        hops = []
        cur = x
        for _ in range(self.depth):
            cur = ad.propagate(cur, p)
            hops.append(cur)
        return ad.channel_map_concat(hops + [x], self.w_select, self.bias)

    def hop_maps(self, x: Tensor) -> tuple[Tensor, list[Tensor]]:
        """(z_0 + bias, [z_1, ..., z_d]), z_k = W_k x: one channel map per
        column block W_k of ``w_select``, the block ``mix_hop`` applies to hop k."""
        c, d = self.bias.shape[0], self.depth
        z_0 = ad.channel_map(x, ad.narrow(self.w_select, 1, c * d, c), self.bias)
        return z_0, [ad.channel_map(x, ad.narrow(self.w_select, 1, c * k, c)) for k in range(d)]

    def horner(self, hops: list[Tensor], p: Tensor) -> Tensor:
        """P(z_1 + P(z_2 + ... + P z_d)) of ``hop_maps``' list, so that
        mix_hop(x, p) = z_0 + bias + horner(hops, p)."""
        acc = ad.propagate(hops[-1], p)
        for z in reversed(hops[:-1]):
            acc = ad.propagate(ad.add(z, acc), p)
        return acc
