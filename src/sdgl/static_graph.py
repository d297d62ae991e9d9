"""Static graph learning: adjacency from node embeddings plus regularization.

The static adjacency is softmax(relu(M M^T)) over rows, recomputed from the
current embeddings on every forward pass. A smoothness + sparsity penalty
steers what the embeddings learn; the dynamic embedding dictionary shadows
the static one through a momentum rule and never sees gradient updates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .params import embedding
from .rng import RngState


class ConfigError(ValueError):
    """A hyperparameter is outside its documented range."""


@dataclass
class AdjacencyMatrix:
    """N x N nonnegative row-stochastic dependency matrix."""

    values: Tensor
    kind: str  # "static" | "dynamic"

    def validate(self) -> None:
        data = self.values.data
        rows = data.sum(axis=-1)
        if not np.all(data > 0):
            raise ValueError(f"{self.kind} adjacency has non-positive entries")
        if not np.allclose(rows, 1.0, atol=1e-9):
            raise ValueError(f"{self.kind} adjacency rows do not sum to 1")


@dataclass
class NodeEmbeddings:
    """Learnable static dictionary and its momentum-tracked dynamic shadow."""

    m_static: Tensor
    m_dynamic: Tensor
    momentum: float

    @classmethod
    def initialize(cls, n_nodes: int, dim: int, momentum: float, rng: RngState) -> "NodeEmbeddings":
        if not 0.0 <= momentum < 1.0:
            raise ConfigError(f"momentum must lie in [0, 1), got {momentum}")
        m_s = embedding(rng, (n_nodes, dim))
        m_d = Tensor(m_s.data.copy())  # never trained by gradient descent
        return cls(m_static=m_s, m_dynamic=m_d, momentum=momentum)


def build_static_graph(m_s: Tensor) -> AdjacencyMatrix:
    """Row-stochastic adjacency inferred from pairwise embedding similarity."""
    if not np.all(np.isfinite(m_s.data)):
        raise ad.NumericError("build_static_graph: non-finite embeddings")
    logits = ad.relu(ad.matmul(m_s, ad.transpose(m_s)))
    return AdjacencyMatrix(values=ad.row_softmax(logits), kind="static")


def graph_regularization_loss(x: Tensor, adj: AdjacencyMatrix | Tensor, gamma: float) -> Tensor:
    """Smoothness + sparsity penalty, averaged over the batch.

    x: (B, N, h) normalized windows. Per sample the smoothness term is
    sum_ij ||x_i - x_j||^2 * A_ij, expanded as s_i + s_j - 2 x_i . x_j with
    s the squared row norms; gamma weights the Frobenius penalty on A.
    """
    a = adj.values if isinstance(adj, AdjacencyMatrix) else adj
    if x.shape[1] != a.shape[-1]:
        raise ad.ShapeError(
            f"graph_regularization_loss: {x.shape[1]} nodes in X vs adjacency {a.shape}"
        )
    if gamma < 0:
        raise ConfigError(f"gamma must be nonnegative, got {gamma}")
    b, n, _ = x.shape
    gram = ad.matmul(x, ad.transpose(x))  # (B, N, N)
    sq = ad.reduce_sum(ad.mul(x, x), axis=-1)  # (B, N)
    pair = ad.sub(
        ad.add(ad.reshape(sq, (b, n, 1)), ad.reshape(sq, (b, 1, n))),
        ad.scale(gram, 2.0),
    )
    smooth = ad.scale(ad.reduce_sum(ad.mul(pair, a)), 1.0 / b)
    frob = ad.reduce_sum(ad.mul(a, a))
    return ad.add(smooth, ad.scale(frob, gamma))


def momentum_update(emb: NodeEmbeddings) -> None:
    """M_d <- p*M_d + (1-p)*M_s, outside the tape: no gradient flows here."""
    p = emb.momentum
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"momentum must lie in [0, 1), got {p}")
    emb.m_dynamic.data = p * emb.m_dynamic.data + (1.0 - p) * emb.m_static.data
