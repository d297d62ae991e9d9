"""Static graph learning: adjacency from node embeddings plus regularization.

The static adjacency is softmax(relu(M M^T)) over rows, recomputed from the
current embeddings on every forward pass. A smoothness + sparsity penalty
steers what the embeddings learn; the dynamic embedding dictionary shadows
the static one through a momentum rule and never sees gradient updates.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass
class NodeEmbeddings:
    """Learnable static dictionary and its momentum-tracked dynamic shadow."""

    m_static: Tensor
    m_dynamic: Tensor
    momentum: float

    @classmethod
    def initialize(cls, n_nodes: int, dim: int, momentum: float, rng: RngState) -> "NodeEmbeddings":
        m_s = embedding(rng, (n_nodes, dim))
        m_d = Tensor(m_s.data.copy())  # never trained by gradient descent
        return cls(m_static=m_s, m_dynamic=m_d, momentum=momentum)


def build_static_graph(m_s: Tensor) -> AdjacencyMatrix:
    """Row-stochastic adjacency inferred from pairwise embedding similarity."""
    logits = ad.relu(ad.matmul(m_s, ad.transpose(m_s)))
    return AdjacencyMatrix(values=ad.row_softmax(logits), kind="static")


def graph_regularization_loss(x: Tensor, a: Tensor, gamma: float) -> Tensor:
    """Smoothness + sparsity penalty, averaged over the batch.

    x: (B, N, h) normalized windows; a: one (N, N) adjacency shared by the
    batch. Per sample the smoothness term is sum_ij ||x_i - x_j||^2 * A_ij,
    expanded as s_i + s_j - 2 x_i . x_j with s the squared row norms; gamma
    weights the Frobenius penalty on A. Because A is shared, the batch is
    summed first: with the windows laid out as (B*h, N) rows, sum_b X_b X_b^T
    is one (N, N) product and sum_b s is one column sum, so no (B, N, N)
    array is formed or kept for backward.
    """
    if x.data.ndim != 3 or a.shape != (x.shape[1], x.shape[1]):
        raise ad.ShapeError(
            f"graph_regularization_loss: expected (B, N, h) windows and an (N, N) "
            f"adjacency, got {x.shape} and {a.shape}"
        )
    b, n, h = x.shape
    rows = ad.reshape(ad.transpose(x), (b * h, n))
    gram = ad.matmul(ad.transpose(rows), rows)  # (N, N), summed over the batch
    sq = ad.reduce_sum(ad.mul(rows, rows), axis=0)  # (N,)
    pair = ad.sub(
        ad.add(ad.reshape(sq, (n, 1)), ad.reshape(sq, (1, n))),
        ad.scale(gram, 2.0),
    )
    smooth = ad.scale(ad.reduce_sum(ad.mul(pair, a)), 1.0 / b)
    frob = ad.reduce_sum(ad.mul(a, a))
    return ad.add(smooth, ad.scale(frob, gamma))


def momentum_update(emb: NodeEmbeddings) -> None:
    """M_d <- p*M_d + (1-p)*M_s in place, outside the tape: no gradient flows here.

    ``ModelConfig.validate`` keeps p in [0, 1); it is not checked again here.
    """
    emb.m_dynamic.data *= emb.momentum
    emb.m_dynamic.data += (1.0 - emb.momentum) * emb.m_static.data
