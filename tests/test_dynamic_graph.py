import tracemalloc

import numpy as np
import pytest

from sdgl import autodiff as ad
from sdgl.autodiff import Tape, Tensor, grad_check
from sdgl.dynamic_graph import (
    AdjacencyHeads,
    DynamicGraphLearner,
    InformationFusion,
    apply_inductive_bias,
    inductive_anchor,
)
from sdgl.rng import RngState
from sdgl.static_graph import ConfigError, NodeEmbeddings


def np_layer_norm(x, gain=None, bias=None, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    y = (x - mu) / np.sqrt(np.maximum(var, eps * eps))
    if gain is not None:
        y = y * gain
    if bias is not None:
        y = y + bias
    return y


def np_softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


# the inner functions with the terms the model derives for them


def fuse(fusion, x, m_s):
    return fusion(x, m_s, fusion.static_terms(m_s))


def correlate(heads, h_t, rng, training):
    w_q = heads.scaled_queries()
    return heads.correlate(h_t, rng, training, w_q, heads.head_form(w_q))


def bias(s_hat, m_d):
    return apply_inductive_bias(s_hat, inductive_anchor(m_d))


class TestInformationFusion:
    def make(self, n=4, h=5, d=3, seed=0):
        return InformationFusion(h, d, RngState(seed))

    def test_closed_gate_returns_static_embeddings(self):
        fusion = self.make()
        fusion.b_z.data = np.full_like(fusion.b_z.data, -1e4)  # z -> 0
        m_s = Tensor(np.random.default_rng(1).normal(size=(4, 3)))
        x = Tensor(np.random.default_rng(2).normal(size=(4, 5)))
        out = fuse(fusion, x, m_s)
        np.testing.assert_allclose(out.data, m_s.data, atol=1e-12)

    def test_open_gate_pure_dynamic_path(self):
        fusion = self.make(seed=3)
        fusion.b_z.data = np.full_like(fusion.b_z.data, 1e4)  # z -> 1
        fusion.b_r.data = np.full_like(fusion.b_r.data, -1e4)  # r -> 0
        m_s = Tensor(np.random.default_rng(1).normal(size=(4, 3)))
        x = Tensor(np.random.default_rng(2).normal(size=(4, 5)))
        out = fuse(fusion, x, m_s)
        x_t = x.data @ fusion.w_in.data + fusion.b_in.data
        np.testing.assert_allclose(out.data, np.tanh(x_t @ fusion.w_h.data), atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_primitive_composition(self, seed):
        fusion = self.make(seed=seed)
        rng = np.random.default_rng(seed + 50)
        m_s = rng.normal(size=(4, 3))
        x = rng.normal(size=(4, 5))
        got = fuse(fusion, Tensor(x), Tensor(m_s)).data
        # independent recomposition from raw numpy
        x_t = x @ fusion.w_in.data + fusion.b_in.data
        r = sigmoid(m_s @ fusion.w_r.data + x_t @ fusion.u_r.data)
        z = sigmoid(m_s @ fusion.w_z.data + x_t @ fusion.u_z.data)
        h_cand = np.tanh(x_t @ fusion.w_h.data + r * (m_s @ fusion.u_h.data))
        want = (1 - z) * m_s + z * h_cand
        np.testing.assert_allclose(got, want, atol=1e-12)


class TestAdjacencyHeads:
    def make(self, n=4, d=3, dk=3, heads=2, seed=0, keep=1.0):
        return AdjacencyHeads(n, d, dk, heads, keep, RngState(seed))

    def test_orthonormal_rows_give_scaled_identity(self):
        # h_t rows chosen zero-mean orthonormal; the layer norm's gain is set
        # to 1/sqrt(d) so the normalized rows stay orthonormal
        d, n = 5, 4
        heads = self.make(n=n, d=d, dk=d, heads=1, seed=1)
        basis, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(d, d)))
        rows = basis.T[:n]
        rows = rows - rows.mean(axis=1, keepdims=True)
        rows, _ = np.linalg.qr(rows.T)
        rows = rows.T[:n]
        # re-orthonormalize inside the zero-mean subspace
        centered = rows - rows.mean(axis=1, keepdims=True)
        q, _ = np.linalg.qr(centered.T)
        h_rows = q.T[:n]
        heads.ln_gain.data = np.full(d, 1.0 / np.sqrt(d))
        heads.w_q[0].data = np.eye(d)
        heads.w_k[0].data = np.eye(d)
        heads.head_mix[0].data = np.asarray(0.7)
        got = correlate(heads, Tensor(h_rows), None, training=False).data
        np.testing.assert_allclose(got, 0.7 * np.eye(n) / np.sqrt(d), atol=1e-6)

    def test_zero_mixing_weights_zero_matrix(self):
        heads = self.make(seed=2)
        for w in heads.head_mix:
            w.data = np.asarray(0.0)
        out = correlate(heads, Tensor(np.random.default_rng(3).normal(size=(4, 3))), None, False)
        np.testing.assert_array_equal(out.data, np.zeros((4, 4)))

    @pytest.mark.parametrize("seed", range(5))
    def test_correlate_matches_loop_oracle(self, seed):
        heads = self.make(n=3, d=4, dk=2, heads=2, seed=seed)
        h_t = np.random.default_rng(seed + 9).normal(size=(3, 4))
        got = correlate(heads, Tensor(h_t), None, training=False).data
        h_norm = np_layer_norm(h_t, heads.ln_gain.data, heads.ln_bias.data)
        want = np.zeros((3, 3))
        for i in range(2):
            q = h_norm @ heads.w_q[i].data
            k = h_norm @ heads.w_k[i].data
            want += float(heads.head_mix[i].data) * (q @ k.T) / np.sqrt(2)
        np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("heads, d, dk", [(1, 4, 4), (2, 4, 2), (4, 8, 2), (4, 6, 5)])
    @pytest.mark.parametrize("training", [False, True])
    def test_collapsed_heads_match_loop_oracle(self, heads, d, dk, training):
        # out of training the heads sum to one (d, d) form; in training each head runs
        # on its own, and at keep 1 dropout draws no mask, so no RngState is needed
        layer = self.make(n=5, d=d, dk=dk, heads=heads, seed=heads + d)
        rng = np.random.default_rng(dk)
        for mix in layer.head_mix:
            mix.data = np.asarray(rng.normal())
        h_t = rng.normal(size=(3, 5, d))
        got = correlate(layer, Tensor(h_t), None, training).data
        h_norm = np_layer_norm(h_t, layer.ln_gain.data, layer.ln_bias.data)
        want = sum(float(mix.data) * (h_norm @ w_q.data) @ (h_norm @ w_k.data).transpose(0, 2, 1)
                   for w_q, w_k, mix in zip(layer.w_q, layer.w_k, layer.head_mix)) / np.sqrt(dk)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_correlate_gradients_with_dropout(self):
        # a fresh RngState per evaluation draws the same masks, head by head,
        # so every finite difference sees the dropout the tape saw
        heads = self.make(n=4, d=3, dk=2, heads=2, seed=11, keep=0.7)
        rng = np.random.default_rng(12)
        h_t = Tensor(rng.normal(size=(2, 4, 3)))
        c = Tensor(rng.normal(size=(2, 4, 4)))

        def f(_):
            return ad.reduce_sum(ad.mul(correlate(heads, h_t, RngState(5), training=True), c))

        for i in range(heads.n_heads):
            for p in (heads.head_mix[i], heads.w_q[i], heads.w_k[i]):
                assert grad_check(f, p, tol=1e-5).passed

    def test_tape_keeps_no_window_matrix_for_head_mix(self):
        # Scaling the (d, d_k) query weight leaves only that weight for the mixing
        # weight's gradient; scaling each head's (B, N, N) product would keep that
        # product. With dropout each head keeps a one-byte mask per entry.
        b, n = 8, 60
        heads = self.make(n=n, d=4, dk=2, heads=2, seed=13, keep=0.9)
        h_t = Tensor(np.random.default_rng(14).normal(size=(b, n, 4)))
        tape = Tape()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with tape:
                out = correlate(heads, h_t, RngState(0), training=True)
            del out
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < b * n * n * 8, held

    def test_zeroed_mlp_yields_zero(self):
        heads = self.make(seed=4)
        for t in (heads.w_1, heads.b_1, heads.w_2, heads.b_2):
            t.data = np.zeros_like(t.data)
        rng = np.random.default_rng(5)
        out = heads.refine(Tensor(rng.normal(size=(4, 4))), Tensor(rng.normal(size=(4, 3))))
        np.testing.assert_array_equal(out.data, np.zeros((4, 4)))

    def test_zero_correlation_leaves_residual_norm(self):
        heads = self.make(seed=6)
        h_t = np.random.default_rng(7).normal(size=(4, 3))
        out = heads.refine(Tensor(np.zeros((4, 4))), Tensor(h_t)).data
        e_r = h_t @ heads.w_res.data
        s_t = np_layer_norm(np.zeros((4, 4))) + np_layer_norm(e_r @ e_r.T)
        want = np.maximum(0, s_t @ heads.w_1.data + heads.b_1.data) @ heads.w_2.data + heads.b_2.data
        np.testing.assert_allclose(out, want, atol=1e-12)
        # a fully-zero row normalizes to zero
        np.testing.assert_array_equal(np_layer_norm(np.zeros((1, 4))), np.zeros((1, 4)))

    @pytest.mark.parametrize("seed", range(5))
    def test_refine_matches_composition(self, seed):
        heads = self.make(seed=seed)
        rng = np.random.default_rng(seed + 20)
        r_t = rng.normal(size=(4, 4))
        h_t = rng.normal(size=(4, 3))
        got = heads.refine(Tensor(r_t), Tensor(h_t)).data
        e_r = h_t @ heads.w_res.data
        s_t = np_layer_norm(r_t) + np_layer_norm(e_r @ e_r.T)
        want = np.maximum(0, s_t @ heads.w_1.data + heads.b_1.data) @ heads.w_2.data + heads.b_2.data
        np.testing.assert_allclose(got, want, atol=1e-12)


class TestInductiveBias:
    def test_zero_everything_gives_uniform(self):
        adj = bias(Tensor(np.zeros((4, 4))), Tensor(np.zeros((4, 2))))
        np.testing.assert_allclose(adj.values.data, 0.25, atol=1e-15)

    def test_bias_only_pathway(self):
        m_d = np.random.default_rng(0).normal(size=(4, 3))
        adj = bias(Tensor(np.zeros((4, 4))), Tensor(m_d))
        want = np_softmax(np.maximum(0, np_layer_norm(m_d @ m_d.T)))
        np.testing.assert_allclose(adj.values.data, want, atol=1e-12)

    def test_large_spike_saturates_row(self):
        m_d = np.random.default_rng(1).normal(size=(4, 3))
        s = np.zeros((4, 4))
        s[1, 2] = 50.0
        adj = bias(Tensor(s), Tensor(m_d))
        assert adj.values.data[1, 2] > 0.999


class TestDynamicGraphPipeline:
    def make(self, n=4, h=5, d=4, seed=0, mode="full"):
        learner = DynamicGraphLearner(n, h, d, head_dim=2, n_heads=2,
                                      dropout_keep=1.0, rng=RngState(seed), mode=mode)
        emb = NodeEmbeddings.initialize(n, d, 0.9, RngState(seed + 1))
        return learner, emb

    def test_identical_windows_identical_graphs(self):
        learner, emb = self.make()
        x = np.random.default_rng(2).normal(size=(4, 5))
        batch = Tensor(np.stack([x, x]))
        adj = learner(batch, emb, RngState(0), training=False)
        np.testing.assert_array_equal(adj.values.data[0], adj.values.data[1])

    def test_perturbed_window_changes_graph(self):
        learner, emb = self.make(seed=3)
        x = np.random.default_rng(4).normal(size=(4, 5))
        x2 = x.copy()
        x2[0, 0] += 1.0
        adj = learner(Tensor(np.stack([x, x2])), emb, RngState(0), training=False)
        diff = np.linalg.norm(adj.values.data[0] - adj.values.data[1])
        assert diff > 0

    def test_batch_of_row_stochastic_matrices(self):
        learner, emb = self.make(seed=5)
        batch = Tensor(np.random.default_rng(6).normal(size=(3, 4, 5)))
        adj = learner(batch, emb, RngState(0), training=False)
        a = adj.values.data
        assert a.shape == (3, 4, 4)
        assert np.all(a > 0) and np.allclose(a.sum(axis=-1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("seed", range(3))
    def test_full_pipeline_matches_composition(self, seed):
        learner, emb = self.make(seed=seed)
        x = np.random.default_rng(seed + 30).normal(size=(4, 5))
        got = learner(Tensor(x[None]), emb, RngState(0), training=False).values.data[0]

        fusion = learner.fusion
        heads = learner.heads
        x_t = x @ fusion.w_in.data + fusion.b_in.data
        m_s = emb.m_static.data
        r = sigmoid(m_s @ fusion.w_r.data + x_t @ fusion.u_r.data)
        z = sigmoid(m_s @ fusion.w_z.data + x_t @ fusion.u_z.data)
        h_t = (1 - z) * m_s + z * np.tanh(x_t @ fusion.w_h.data + r * (m_s @ fusion.u_h.data))
        h_norm = np_layer_norm(h_t, heads.ln_gain.data, heads.ln_bias.data)
        r_t = np.zeros((4, 4))
        for i in range(heads.n_heads):
            q = h_norm @ heads.w_q[i].data
            k = h_norm @ heads.w_k[i].data
            r_t += float(heads.head_mix[i].data) * (q @ k.T) / np.sqrt(heads.head_dim)
        e_r = h_t @ heads.w_res.data
        s_t = np_layer_norm(r_t) + np_layer_norm(e_r @ e_r.T)
        s_hat = np.maximum(0, s_t @ heads.w_1.data + heads.b_1.data) @ heads.w_2.data + heads.b_2.data
        m_d = emb.m_dynamic.data
        want = np_softmax(np.maximum(0, np_layer_norm(m_d @ m_d.T) + s_hat))
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_eval_pass_leaves_the_dropout_stream_untouched(self):
        learner = DynamicGraphLearner(4, 5, 4, head_dim=2, n_heads=2, dropout_keep=0.9,
                                      rng=RngState(0), mode="full")
        emb = NodeEmbeddings.initialize(4, 4, 0.9, RngState(1))
        x = Tensor(np.random.default_rng(2).normal(size=(3, 4, 5)))
        # the next draw tells whether a pass drew a mask: a training pass does
        draws = []
        for training in (False, True):
            rng = RngState(7)
            learner(x, emb, rng, training=training)
            draws.append(rng.random())
        assert draws[0] == RngState(7).random() != draws[1]

    def test_an_unknown_mode_fails_by_name(self):
        with pytest.raises(ConfigError, match="'full', 'no_ifm' or 'ifm_plus', got 'ful'"):
            self.make(mode="ful")

    def test_no_ifm_uses_projected_input(self):
        learner, emb = self.make(seed=7, mode="no_ifm")
        x = Tensor(np.random.default_rng(8).normal(size=(1, 4, 5)))
        h_t = learner.fuse(x, emb.m_static, learner.terms(emb).gates)
        want = x.data @ learner.fusion.w_in.data + learner.fusion.b_in.data
        np.testing.assert_allclose(h_t.data, want, atol=1e-14)

    def test_ifm_plus_is_sum(self):
        learner, emb = self.make(seed=9, mode="ifm_plus")
        x = Tensor(np.random.default_rng(10).normal(size=(1, 4, 5)))
        h_t = learner.fuse(x, emb.m_static, learner.terms(emb).gates)
        want = emb.m_static.data + (x.data @ learner.fusion.w_in.data + learner.fusion.b_in.data)
        np.testing.assert_allclose(h_t.data, want, atol=1e-14)
