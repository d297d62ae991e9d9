"""Dynamic graph learning: one adjacency per input window.

Pipeline per window: gate-fuse the window with the static embeddings, build a
multi-head scaled dot-product correlation matrix, refine it with a Gram-matrix
skip connection and a row-wise MLP, then add the momentum embeddings' logits
as inductive bias before the final relu + row softmax.

Each head's (d, d_k) query weight carries its mixing weight and 1/sqrt(d_k),
W'_q,i = (mix_i/sqrt(d_k)) W_q,i, formed once per call and read by both paths:
the scalar's gradient then reads only that weight, and the tape holds no
per-window array for it. Out of training the heads collapse: their sum is one
bilinear form of the normalized features, H A H^T with the (d, d)
A = sum_i W'_q,i W_k,i^T, formed as one product of the heads' weights side by
side, concat_i(W'_q,i) concat_i(W_k,i)^T, so a window runs two products, not
three per head.
In training each head is dropout((H W'_q,i)(H W_k,i)^T) on its own, as a mask
drops entries of each head's product; at keep probability 1 dropout draws no
mask and returns its input. So a training pass of B windows draws one (B, N, N)
mask per head, in head order, from the stream it is given.

What reads no window is derived by one function each: the gates' M_s W_r,
M_s W_z and M_s U_h (``InformationFusion.static_terms``), the scaled query
weights (``AdjacencyHeads.scaled_queries``), the head form
(``AdjacencyHeads.head_form``) and the anchor LN(M_d M_d^T)
(``inductive_anchor``). ``DynamicGraphLearner.terms`` gathers them as
``LearnerTerms``. The fusion, the heads and the bias take them as arguments
and derive none; only the learner's own call derives them when not given them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import autodiff as ad
from .autodiff import Tensor
from .params import weight, zeros, ones
from .rng import RngState
from .static_graph import AdjacencyMatrix, ConfigError, NodeEmbeddings


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

    def static_terms(self, m_s: Tensor) -> tuple[Tensor, Tensor, Tensor]:
        """(M_s W_r, M_s W_z, M_s U_h): the gates' terms that read no window."""
        return ad.matmul(m_s, self.w_r), ad.matmul(m_s, self.w_z), ad.matmul(m_s, self.u_h)

    def __call__(self, x: Tensor, m_s: Tensor, gates: tuple[Tensor, Tensor, Tensor]) -> Tensor:
        """x: (B, N, h) or (N, h); returns h_T with trailing dims (N, d).

        ``gates`` is ``static_terms(m_s)``.
        """
        s_r, s_z, s_h = gates
        x_t = self.project(x)
        r = ad.sigmoid(ad.add(ad.add(s_r, ad.matmul(x_t, self.u_r)), self.b_r))
        z = ad.sigmoid(ad.add(ad.add(s_z, ad.matmul(x_t, self.u_z)), self.b_z))
        h_cand = ad.tanh(ad.add(ad.matmul(x_t, self.w_h), ad.mul(r, s_h)))
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

    def scaled_queries(self) -> list[Tensor]:
        """Each head's W'_q,i = (mix_i/sqrt(d_k)) W_q,i."""
        inv_sqrt = 1.0 / math.sqrt(self.head_dim)
        return [ad.mul(w, ad.scale(mix, inv_sqrt)) for w, mix in zip(self.w_q, self.head_mix)]

    def head_form(self, w_q: list[Tensor]) -> Tensor:
        """The collapsed heads' (d, d) A = concat_i(W'_q,i) concat_i(W_k,i)^T,
        from the scaled query weights ``w_q``."""
        return ad.matmul(ad.concat(w_q, axis=1), ad.transpose(ad.concat(self.w_k, axis=1)))

    def correlate(self, h_t: Tensor, rng: RngState, training: bool,
                  w_q: list[Tensor], form: Tensor) -> Tensor:
        """Sum over heads of dropout((H W'_q,i)(H W_k,i)^T), H the normalized h_t.

        W'_q,i is the scaled query weight. Dropout runs only in training, on
        each head's product; out of training the heads collapse into one
        bilinear form with no dropout (module docstring). ``w_q`` is
        ``scaled_queries()`` and ``form`` is ``head_form(w_q)``: training
        reads ``w_q``, and a pass out of training reads ``form``.
        """
        h_norm = ad.layer_norm(h_t, self.ln_gain, self.ln_bias)
        if not training:
            return ad.matmul(ad.matmul(h_norm, form), ad.transpose(h_norm))
        total: Tensor | None = None
        for w_q_i, w_k in zip(w_q, self.w_k):
            q, k = ad.matmul(h_norm, w_q_i), ad.matmul(h_norm, w_k)
            head = ad.dropout(ad.matmul(q, ad.transpose(k)), self.dropout_keep, rng)
            total = head if total is None else ad.add(total, head)
        return total

    def refine(self, r_t: Tensor, h_t: Tensor) -> Tensor:
        """Skip connection against the residual Gram matrix, then row MLP."""
        e_r = ad.matmul(h_t, self.w_res)
        skip = ad.layer_norm(ad.matmul(e_r, ad.transpose(e_r)))
        s_t = ad.add(ad.layer_norm(r_t), skip)
        hidden = ad.relu(ad.add(ad.matmul(s_t, self.w_1), self.b_1))
        return ad.add(ad.matmul(hidden, self.w_2), self.b_2)


def inductive_anchor(m_d: Tensor) -> Tensor:
    """LN(M_d M_d^T), the momentum embeddings' structure."""
    return ad.layer_norm(ad.matmul(m_d, ad.transpose(m_d)))


def apply_inductive_bias(s_hat: Tensor, anchor: Tensor) -> AdjacencyMatrix:
    """Anchor the refined logits to the momentum embeddings' structure, the
    ``anchor`` ``inductive_anchor(M_d)``."""
    logits = ad.relu(ad.add(anchor, s_hat))
    return AdjacencyMatrix(values=ad.row_softmax(logits), kind="dynamic")


@dataclass
class LearnerTerms:
    """What a learner's pass reads that depends on its parameters and the
    embeddings alone, not on the windows."""

    gates: tuple[Tensor, Tensor, Tensor] | None  # fusion.static_terms(M_s); gated fusion only
    w_q: list[Tensor]  # heads.scaled_queries()
    form: Tensor  # heads.head_form(w_q)
    anchor: Tensor  # inductive_anchor(M_d)


class DynamicGraphLearner:
    """Full per-window dynamic adjacency pipeline.

    ``mode`` selects the fusion pathway: "full" (gated fusion), "no_ifm"
    (projected input goes straight to the correlation heads) or "ifm_plus"
    (fusion replaced by M_s + X_T); any other raises ``ConfigError``.
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
        mode: str,
    ):
        if mode not in ("full", "no_ifm", "ifm_plus"):
            raise ConfigError(f"dynamic graph learner mode must be 'full', 'no_ifm' or "
                              f"'ifm_plus', got {mode!r}")
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

    def terms(self, emb: NodeEmbeddings) -> LearnerTerms:
        """The ``LearnerTerms`` of ``emb``."""
        gates = self.fusion.static_terms(emb.m_static) if self.mode == "full" else None
        w_q = self.heads.scaled_queries()
        return LearnerTerms(gates, w_q, self.heads.head_form(w_q),
                            inductive_anchor(emb.m_dynamic))

    def fuse(self, x: Tensor, m_s: Tensor,
             gates: tuple[Tensor, Tensor, Tensor] | None) -> Tensor:
        """h_T of the mode's pathway; only gated fusion reads ``gates``."""
        if self.mode == "no_ifm":
            return self.fusion.project(x)
        if self.mode == "ifm_plus":
            return ad.add(m_s, self.fusion.project(x))
        return self.fusion(x, m_s, gates)

    def __call__(self, x: Tensor, emb: NodeEmbeddings, rng: RngState, training: bool,
                 terms: LearnerTerms | None = None) -> AdjacencyMatrix:
        """x: (B, N, h) windows; returns a batch of dynamic adjacencies.

        ``terms`` is ``self.terms(emb)`` where the caller already holds it.
        """
        if terms is None:
            terms = self.terms(emb)
        h_t = self.fuse(x, emb.m_static, terms.gates)
        r_t = self.heads.correlate(h_t, rng, training, terms.w_q, terms.form)
        s_hat = self.heads.refine(r_t, h_t)
        return apply_inductive_bias(s_hat, terms.anchor)
