"""Dynamic graph learning: one adjacency per input window.

Pipeline per window: gate-fuse the window with the static embeddings, build a
multi-head scaled dot-product correlation matrix, refine it with a Gram-matrix
skip connection and a row-wise MLP, then add the momentum embeddings' logits
as inductive bias before the final relu + row softmax.
"""

from __future__ import annotations

import math

from . import autodiff as ad
from .autodiff import Tensor
from .params import weight, zeros, ones
from .rng import RngState
from .static_graph import AdjacencyMatrix, NodeEmbeddings


class InformationFusion:
    """Gated fusion of the input window with the static embeddings."""

    def __init__(self, window: int, dim: int, rng: RngState):
        self.w_in = weight(rng, window, (window, dim))
        self.b_in = zeros((dim,))
        self.w_r = weight(rng, dim, (dim, dim))
        self.u_r = weight(rng, dim, (dim, dim))
        self.w_z = weight(rng, dim, (dim, dim))
        self.u_z = weight(rng, dim, (dim, dim))
        self.w_h = weight(rng, dim, (dim, dim))
        self.u_h = weight(rng, dim, (dim, dim))
        # bias escape hatches for the gates; unit tests pin them to force
        # the gate fully open or closed
        self.b_r = zeros((dim,))
        self.b_z = zeros((dim,))

    def parameters(self) -> dict[str, Tensor]:
        return {
            "w_in": self.w_in, "b_in": self.b_in,
            "w_r": self.w_r, "u_r": self.u_r, "b_r": self.b_r,
            "w_z": self.w_z, "u_z": self.u_z, "b_z": self.b_z,
            "w_h": self.w_h, "u_h": self.u_h,
        }

    def project(self, x: Tensor) -> Tensor:
        """Linear map of each node's window onto the embedding dimension."""
        return ad.add(ad.matmul(x, self.w_in), self.b_in)

    def __call__(self, x: Tensor, m_s: Tensor) -> Tensor:
        """x: (B, N, h) or (N, h); returns h_T with trailing dims (N, d)."""
        x_t = self.project(x)
        r = ad.sigmoid(ad.add(ad.add(ad.matmul(m_s, self.w_r), ad.matmul(x_t, self.u_r)), self.b_r))
        z = ad.sigmoid(ad.add(ad.add(ad.matmul(m_s, self.w_z), ad.matmul(x_t, self.u_z)), self.b_z))
        h_cand = ad.tanh(ad.add(ad.matmul(x_t, self.w_h), ad.mul(r, ad.matmul(m_s, self.u_h))))
        one_minus_z = ad.sub(Tensor(1.0), z)
        return ad.add(ad.mul(one_minus_z, m_s), ad.mul(z, h_cand))


class AdjacencyHeads:
    """Multi-head scaled dot-product correlation with refinement MLP."""

    def __init__(
        self,
        n_nodes: int,
        dim: int,
        head_dim: int,
        n_heads: int,
        dropout_keep: float,
        rng: RngState,
    ):
        self.n_heads = n_heads
        self.head_dim = head_dim
        self.dropout_keep = dropout_keep
        self.ln_gain = ones((dim,))
        self.ln_bias = zeros((dim,))
        self.w_q = [weight(rng, dim, (dim, head_dim)) for _ in range(n_heads)]
        self.w_k = [weight(rng, dim, (dim, head_dim)) for _ in range(n_heads)]
        self.head_mix = [Tensor(1.0, requires_grad=True) for _ in range(n_heads)]
        self.w_res = weight(rng, dim, (dim, head_dim))
        self.w_1 = weight(rng, n_nodes, (n_nodes, n_nodes))
        self.b_1 = zeros((n_nodes,))
        self.w_2 = weight(rng, n_nodes, (n_nodes, n_nodes))
        self.b_2 = zeros((n_nodes,))

    def parameters(self) -> dict[str, Tensor]:
        out = {"ln_gain": self.ln_gain, "ln_bias": self.ln_bias, "w_res": self.w_res,
               "w_1": self.w_1, "b_1": self.b_1, "w_2": self.w_2, "b_2": self.b_2}
        for i in range(self.n_heads):
            out[f"w_q{i}"] = self.w_q[i]
            out[f"w_k{i}"] = self.w_k[i]
            out[f"head_mix{i}"] = self.head_mix[i]
        return out

    def correlate(self, h_t: Tensor, rng: RngState, training: bool) -> Tensor:
        """Sum of per-head dropout(Q K^T / sqrt(d_k)) scaled by mixing weights."""
        h_norm = ad.layer_norm(h_t, self.ln_gain, self.ln_bias)
        inv_sqrt = 1.0 / math.sqrt(self.head_dim)
        total: Tensor | None = None
        for i in range(self.n_heads):
            q = ad.matmul(h_norm, self.w_q[i])
            k = ad.matmul(h_norm, self.w_k[i])
            adj = ad.scale(ad.matmul(q, ad.transpose(k)), inv_sqrt)
            adj = ad.dropout(adj, self.dropout_keep, rng, training)
            head = ad.mul(adj, self.head_mix[i])
            total = head if total is None else ad.add(total, head)
        return total

    def refine(self, r_t: Tensor, h_t: Tensor) -> Tensor:
        """Skip connection against the residual Gram matrix, then row MLP."""
        e_r = ad.matmul(h_t, self.w_res)
        skip = ad.layer_norm(ad.matmul(e_r, ad.transpose(e_r)))
        s_t = ad.add(ad.layer_norm(r_t), skip)
        hidden = ad.relu(ad.add(ad.matmul(s_t, self.w_1), self.b_1))
        return ad.add(ad.matmul(hidden, self.w_2), self.b_2)


def apply_inductive_bias(s_hat: Tensor, m_d: Tensor) -> AdjacencyMatrix:
    """Anchor the refined logits to the momentum embeddings' structure."""
    anchor = ad.layer_norm(ad.matmul(m_d, ad.transpose(m_d)))
    logits = ad.relu(ad.add(anchor, s_hat))
    return AdjacencyMatrix(values=ad.row_softmax(logits), kind="dynamic")


class DynamicGraphLearner:
    """Full per-window dynamic adjacency pipeline.

    ``mode`` selects the fusion pathway: "full" (gated fusion), "no_ifm"
    (projected input goes straight to the correlation heads) or "ifm_plus"
    (fusion replaced by M_s + X_T).
    """

    def __init__(
        self,
        n_nodes: int,
        window: int,
        dim: int,
        head_dim: int,
        n_heads: int,
        dropout_keep: float,
        rng: RngState,
        mode: str = "full",
    ):
        if mode not in ("full", "no_ifm", "ifm_plus"):
            raise ValueError(f"unknown fusion mode {mode!r}")
        self.mode = mode
        self.fusion = InformationFusion(window, dim, rng)
        self.heads = AdjacencyHeads(n_nodes, dim, head_dim, n_heads, dropout_keep, rng)

    def parameters(self) -> dict[str, Tensor]:
        out = {}
        for name, t in self.fusion.parameters().items():
            out[f"fusion.{name}"] = t
        for name, t in self.heads.parameters().items():
            out[f"heads.{name}"] = t
        return out

    def fuse(self, x: Tensor, m_s: Tensor) -> Tensor:
        if self.mode == "no_ifm":
            return self.fusion.project(x)
        if self.mode == "ifm_plus":
            return ad.add(m_s, self.fusion.project(x))
        return self.fusion(x, m_s)

    def __call__(self, x: Tensor, emb: NodeEmbeddings, rng: RngState, training: bool) -> AdjacencyMatrix:
        """x: (B, N, h) windows; returns a batch of dynamic adjacencies."""
        h_t = self.fuse(x, emb.m_static)
        r_t = self.heads.correlate(h_t, rng, training)
        s_hat = self.heads.refine(r_t, h_t)
        return apply_inductive_bias(s_hat, emb.m_dynamic)
