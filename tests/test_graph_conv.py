import numpy as np
import pytest

from sdgl import autodiff as ad
from sdgl.autodiff import Tensor, grad_check
from sdgl.graph_conv import DegenerateGraphError, MixHopConv, transition_matrix
from sdgl.rng import RngState
from sdgl.static_graph import AdjacencyMatrix


class TestTransitionMatrix:
    def test_row_stochastic_input_unchanged(self):
        a = np.random.default_rng(0).random((5, 5))
        a /= a.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(transition_matrix(Tensor(a)).data, a, atol=1e-15)

    def test_hand_worked_example(self):
        a = np.array([[1.0, 3.0], [0.5, 0.5]])
        want = np.array([[0.25, 0.75], [0.5, 0.5]])
        np.testing.assert_allclose(transition_matrix(Tensor(a)).data, want, atol=1e-15)

    def test_zero_row_rejected(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(DegenerateGraphError):
            transition_matrix(Tensor(a))

    def test_accepts_adjacency_wrapper(self):
        vals = Tensor(np.full((3, 3), 1.0 / 3))
        p = transition_matrix(AdjacencyMatrix(vals, kind="static"))
        np.testing.assert_allclose(p.data, 1.0 / 3, atol=1e-15)

    def test_batched_rows_normalized_independently(self):
        a = np.random.default_rng(1).random((4, 3, 3)) + 0.1
        p = transition_matrix(Tensor(a)).data
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-12)


class TestMixHopConv:
    def make(self, channels=3, depth=2, seed=0):
        return MixHopConv(channels, depth, RngState(seed))

    def test_depth_must_be_positive(self):
        with pytest.raises(ValueError):
            MixHopConv(4, 0, RngState(0))

    def test_output_shape_preserved(self):
        conv = self.make()
        x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 4, 6)))
        a = Tensor(np.full((4, 4), 0.25))
        assert conv(x, a).shape == (2, 3, 4, 6)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_matrix_power_oracle(self, seed):
        conv = self.make(depth=3, seed=seed)
        rng = np.random.default_rng(seed + 10)
        x = rng.normal(size=(2, 3, 4, 5))
        a = rng.random((4, 4)) + 0.05
        p = a / a.sum(axis=1, keepdims=True)
        got = conv(Tensor(x), Tensor(a)).data
        hops = [np.einsum("nm,bcmt->bcnt", np.linalg.matrix_power(p, s), x) for s in (1, 2, 3)]
        stacked = np.concatenate(hops + [x], axis=1)
        want = np.einsum("oc,bcnt->bont", conv.w_select.data, stacked)
        want += conv.bias.data.reshape(1, -1, 1, 1)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_constant_signal_stays_constant_before_selection(self):
        # every hop of a row-stochastic propagation preserves a constant
        # node signal, so the output is constant across nodes too
        conv = self.make(seed=2)
        x = np.broadcast_to(
            np.random.default_rng(3).normal(size=(1, 3, 1, 4)), (1, 3, 5, 4)
        ).copy()
        a = np.random.default_rng(4).random((5, 5)) + 0.1
        out = conv(Tensor(x), Tensor(a)).data
        np.testing.assert_allclose(out - out[:, :, :1], 0.0, atol=1e-12)

    def test_per_sample_adjacency_isolated(self):
        # changing sample 1's graph must not touch sample 0's output
        conv = self.make(seed=5)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 3, 4, 5))
        a = rng.random((2, 4, 4)) + 0.1
        base = conv(Tensor(x), Tensor(a)).data
        a2 = a.copy()
        a2[1] = rng.random((4, 4)) + 0.1
        alt = conv(Tensor(x), Tensor(a2)).data
        np.testing.assert_array_equal(base[0], alt[0])
        assert np.abs(base[1] - alt[1]).max() > 0

    @pytest.mark.parametrize("seed", range(3))
    def test_node_permutation_equivariance(self, seed):
        conv = self.make(seed=seed)
        rng = np.random.default_rng(seed + 30)
        x = rng.normal(size=(1, 3, 6, 4))
        a = rng.random((6, 6)) + 0.1
        perm = rng.permutation(6)
        base = conv(Tensor(x), Tensor(a)).data
        permuted = conv(Tensor(x[:, :, perm]), Tensor(a[np.ix_(perm, perm)])).data
        np.testing.assert_allclose(permuted, base[:, :, perm], atol=1e-12)

    def test_gradients(self):
        conv = self.make(seed=7)
        x = Tensor(np.random.default_rng(8).normal(size=(1, 3, 4, 4)))
        a = Tensor(np.random.default_rng(9).random((4, 4)) + 0.1)

        def f(_):
            out = conv(x, a)
            return ad.reduce_sum(ad.mul(out, out))

        for name, p in conv.parameters().items():
            assert grad_check(f, p, tol=1e-4).passed, name
        assert grad_check(lambda z: (lambda o: ad.reduce_sum(ad.mul(o, o)))(conv(z, a)), x, tol=1e-4).passed
        assert grad_check(lambda z: (lambda o: ad.reduce_sum(ad.mul(o, o)))(conv(x, z)), a, tol=1e-4).passed
