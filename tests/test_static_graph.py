import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdgl import autodiff as ad
from sdgl.autodiff import Tape, Tensor, grad_check
from sdgl.rng import RngState
from sdgl.static_graph import (
    NodeEmbeddings,
    build_static_graph,
    graph_regularization_loss,
    momentum_update,
)


def brute_force_reg_loss(x, a, gamma):
    """Literal double loop over node pairs, the independent oracle."""
    b = x.shape[0]
    total = 0.0
    for s in range(b):
        for i in range(x.shape[1]):
            for j in range(x.shape[1]):
                total += ((x[s, i] - x[s, j]) ** 2).sum() * a[i, j]
    return total / b + gamma * (a**2).sum()


class TestBuildStaticGraph:
    def test_zero_embeddings_give_uniform(self):
        adj = build_static_graph(Tensor(np.zeros((4, 3))))
        np.testing.assert_allclose(adj.values.data, 0.25, atol=1e-15)

    def test_scaled_identity_embeddings_self_attend(self):
        adj = build_static_graph(Tensor(10.0 * np.eye(3)))
        assert np.all(np.diag(adj.values.data) > 0.99)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_embeddings_row_stochastic(self, seed):
        m = Tensor(np.random.default_rng(seed).normal(size=(5, 3)))
        adj = build_static_graph(m)
        np.testing.assert_allclose(adj.values.data.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(adj.values.data > 0)

    def test_nonfinite_embeddings_give_a_nonfinite_graph(self):
        # no check of its own: the NaN reaches the loss, where train stops
        m = np.random.default_rng(0).normal(size=(3, 2))
        m[1, 0] = np.nan
        with np.errstate(invalid="ignore"):
            adj = build_static_graph(Tensor(m))
        assert not np.isfinite(adj.values.data).all()

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_adjacency_invariants_hold_for_arbitrary_embeddings(self, seed):
        m = Tensor(np.random.default_rng(seed).normal(size=(6, 4)) * 3.0)
        a = build_static_graph(m).values.data
        assert np.all(a > 0) and np.allclose(a.sum(axis=-1), 1.0, atol=1e-9)


class TestRegularizationLoss:
    def test_identical_series_uniform_graph(self):
        # smoothness vanishes; ||uniform||_F^2 == 1 exactly
        x = Tensor(np.tile(np.arange(3.0), (2, 4, 1)))
        a = Tensor(np.full((4, 4), 0.25))
        loss = graph_regularization_loss(x, a, gamma=0.7)
        assert loss.item() == pytest.approx(0.7, abs=1e-12)

    def test_zero_matrix_zero_loss(self):
        x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 4)))
        loss = graph_regularization_loss(x, Tensor(np.zeros((3, 3))), gamma=0.0)
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(3, 3, 2))
        a = rng.random((3, 3))
        got = graph_regularization_loss(Tensor(x), Tensor(a), gamma=0.3).item()
        assert got == pytest.approx(brute_force_reg_loss(x, a, 0.3), abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(4, 5, 6)))
        adj = build_static_graph(Tensor(rng.normal(size=(5, 3))))
        assert graph_regularization_loss(x, adj.values, gamma=0.1).item() >= 0

    @pytest.mark.parametrize("seed", range(5))
    def test_permutation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, 6, 4))
        a = rng.random((6, 6))
        perm = rng.permutation(6)
        base = graph_regularization_loss(Tensor(x), Tensor(a), gamma=0.0).item()
        permuted = graph_regularization_loss(
            Tensor(x[:, perm]), Tensor(a[np.ix_(perm, perm)]), gamma=0.0
        ).item()
        assert permuted == pytest.approx(base, abs=1e-10)

    def test_gradient_wrt_embeddings(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(2, 4, 5)))
        m = Tensor(rng.normal(size=(4, 3)))

        def f(z):
            return graph_regularization_loss(x, build_static_graph(z).values, gamma=0.2)

        assert grad_check(f, m, tol=1e-4).passed

    def test_node_count_mismatch(self):
        with pytest.raises(ad.ShapeError):
            graph_regularization_loss(
                Tensor(np.zeros((1, 3, 2))), Tensor(np.zeros((4, 4))), gamma=0.0
            )

    @pytest.mark.parametrize("x_shape, a_shape", [
        ((2, 3, 2), (2, 3, 3)),  # the batch-summed form needs one adjacency for all windows
        ((3, 3), (3, 3)),  # one window of 3 nodes and 3 steps, without its batch axis
        ((1, 4, 2), (3, 4)),
    ], ids=["per-window-adjacency", "2-D-x", "non-square-adjacency"])
    def test_needs_windows_and_one_square_adjacency(self, x_shape, a_shape):
        with pytest.raises(ad.ShapeError):
            graph_regularization_loss(Tensor(np.zeros(x_shape)), Tensor(np.zeros(a_shape)), gamma=0.0)

    def test_tape_keeps_no_per_window_pair_matrix(self):
        # A's gradient reads the pair matrix. Summed over the batch first, it
        # is one (N, N) array; per window it would be a (B, N, N) one, twice
        # the bound at B = 8.
        b, n = 8, 60
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(b, n, 5)))
        a = Tensor(rng.random((n, n)), requires_grad=True)
        tape = Tape()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with tape:
                loss = graph_regularization_loss(x, a, gamma=0.1)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 4 * n * n * 8, held
        tape.backward(loss)
        assert a.grad.shape == (n, n)


class TestMomentumUpdate:
    def make(self, p, seed=0):
        emb = NodeEmbeddings.initialize(4, 3, p, RngState(seed))
        return emb

    def test_zero_momentum_copies(self):
        emb = self.make(0.0)
        emb.m_dynamic.data = np.zeros_like(emb.m_dynamic.data)
        momentum_update(emb)
        np.testing.assert_array_equal(emb.m_dynamic.data, emb.m_static.data)

    def test_scalar_substitution(self):
        emb = self.make(0.9)
        emb.m_dynamic.data = np.zeros_like(emb.m_dynamic.data)
        emb.m_static.data = np.ones_like(emb.m_static.data)
        momentum_update(emb)
        np.testing.assert_allclose(emb.m_dynamic.data, 0.1)

    def test_geometric_decay_to_50_steps(self):
        emb = self.make(0.9, seed=5)
        emb.m_dynamic.data = emb.m_static.data + 2.0
        gap0 = np.abs(emb.m_dynamic.data - emb.m_static.data).max()
        for n in range(1, 51):
            momentum_update(emb)
            gap = np.abs(emb.m_dynamic.data - emb.m_static.data).max()
            assert gap <= 0.9**n * gap0 + 1e-12

    def test_no_gradient_through_update(self):
        emb = self.make(0.5)
        t = Tape()
        with t:
            loss = ad.reduce_sum(ad.mul(emb.m_static, emb.m_static))
        momentum_update(emb)  # outside any recording, by construction
        t.backward(loss)
        assert emb.m_dynamic.grad is None
