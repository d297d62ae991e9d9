"""Diffusion-style graph convolution with decoupled information selection.

Features are propagated s steps along the row-normalized transition matrix;
the hop outputs plus the untouched input are concatenated over channels and a
1x1 selection map picks what to keep, so each node can always fall back on
its own signal.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .params import weight, zeros
from .rng import RngState
from .static_graph import AdjacencyMatrix


class DegenerateGraphError(ValueError):
    """Adjacency has a zero row and cannot be row-normalized."""


def transition_matrix(a: Tensor | AdjacencyMatrix) -> Tensor:
    """P = A / rowsum(A); the identity for already row-stochastic input."""
    t = a.values if isinstance(a, AdjacencyMatrix) else a
    row_sums = ad.reduce_sum(t, axis=-1, keepdims=True)
    if np.any(row_sums.data <= 0):
        raise DegenerateGraphError("adjacency has a row with nonpositive sum")
    return ad.divide(t, row_sums)


class MixHopConv:
    """Multi-hop propagation followed by a channel selection map."""

    def __init__(self, channels: int, depth: int, rng: RngState):
        if depth < 1:
            raise ValueError(f"propagation depth must be >= 1, got {depth}")
        self.depth = depth
        self.w_select = weight(rng, channels * (depth + 1), (channels, channels * (depth + 1)))
        self.bias = zeros((channels,))

    def parameters(self) -> dict[str, Tensor]:
        return {"w_select": self.w_select, "bias": self.bias}

    def __call__(self, x: Tensor, adj: Tensor | AdjacencyMatrix) -> Tensor:
        """x: (B, C, N, T); adj: (N, N) shared or (B, N, N) per sample."""
        p = transition_matrix(adj)
        hops = []
        cur = x
        for _ in range(self.depth):
            cur = ad.propagate(cur, p)
            hops.append(cur)
        stacked = ad.concat(hops + [x], axis=1)
        return ad.channel_map(stacked, self.w_select, self.bias)

