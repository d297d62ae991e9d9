import tracemalloc

import numpy as np
import pytest

from sdgl import autodiff as ad
from sdgl.autodiff import Tape, Tensor, grad_check
from sdgl.graph_conv import DegenerateGraphError, MixHopConv, transition_matrix
from sdgl.model import _windows
from sdgl.rng import RngState
from test_autodiff import swap_tn


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

    def test_batched_rows_normalized_independently(self):
        a = np.random.default_rng(1).random((4, 3, 3)) + 0.1
        p = transition_matrix(Tensor(a)).data
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-12)


class TestMixHopConv:
    def make(self, channels=3, depth=2, seed=0):
        return MixHopConv(channels, depth, RngState(seed))

    def test_output_shape_preserved(self):
        conv = self.make()
        x = Tensor(swap_tn(np.random.default_rng(0).normal(size=(2, 3, 4, 6))))
        a = Tensor(np.full((4, 4), 0.25))
        assert conv(x, a).shape == (2, 3, 6, 4)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_matrix_power_oracle(self, seed):
        conv = self.make(depth=3, seed=seed)
        rng = np.random.default_rng(seed + 10)
        x = rng.normal(size=(2, 3, 4, 5))
        a = rng.random((4, 4)) + 0.05
        p = a / a.sum(axis=1, keepdims=True)
        got = swap_tn(conv(Tensor(swap_tn(x)), Tensor(a)).data)
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
        out = swap_tn(conv(Tensor(swap_tn(x)), Tensor(a)).data)
        np.testing.assert_allclose(out - out[:, :, :1], 0.0, atol=1e-12)

    def test_per_sample_adjacency_isolated(self):
        # changing sample 1's graph must not touch sample 0's output
        conv = self.make(seed=5)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 3, 4, 5))
        a = rng.random((2, 4, 4)) + 0.1
        base = swap_tn(conv(Tensor(swap_tn(x)), Tensor(a)).data)
        a2 = a.copy()
        a2[1] = rng.random((4, 4)) + 0.1
        alt = swap_tn(conv(Tensor(swap_tn(x)), Tensor(a2)).data)
        np.testing.assert_array_equal(base[0], alt[0])
        assert np.abs(base[1] - alt[1]).max() > 0

    @pytest.mark.parametrize("seed", range(3))
    def test_node_permutation_equivariance(self, seed):
        conv = self.make(seed=seed)
        rng = np.random.default_rng(seed + 30)
        x = rng.normal(size=(1, 3, 6, 4))
        a = rng.random((6, 6)) + 0.1
        perm = rng.permutation(6)
        base = swap_tn(conv(Tensor(swap_tn(x)), Tensor(a)).data)
        permuted = swap_tn(conv(Tensor(swap_tn(x[:, :, perm])), Tensor(a[np.ix_(perm, perm)])).data)
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

    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("per_sample", [False, True])
    def test_horner_of_the_hop_maps_is_mix_hop(self, depth, per_sample):
        # W_k P^k x = P^k W_k x, so z_0 + bias + P(z_1 + P(z_2 + ...)) is the mix-hop
        conv = self.make(channels=4, depth=depth, seed=depth)
        rng = np.random.default_rng(depth + 20)
        conv.bias.data = rng.normal(size=4)
        x = Tensor(rng.normal(size=(3, 4, 5, 6)))
        a = rng.random((3, 6, 6) if per_sample else (6, 6)) + 0.1
        p = Tensor(a / a.sum(axis=-1, keepdims=True))
        z_0, hops = conv.hop_maps(x)
        assert [z.shape for z in [z_0, *hops]] == [x.shape] * (depth + 1)
        got = ad.add(z_0, conv.horner(hops, p)).data
        np.testing.assert_allclose(got, conv.mix_hop(x, p).data, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("step", [1, 2])
    def test_windowed_hop_maps_of_a_span_are_those_of_its_windows(self, step):
        # a per-step channel map gives a span step the same value whichever window reads it
        conv = self.make(channels=3, depth=2, seed=4)
        b, count = 5, 4
        span = np.random.default_rng(step).normal(size=(1, 3, b + step * (count - 1), 6))
        windows = np.stack([span[0][:, i + step * np.arange(count)] for i in range(b)])
        (z_0, hops), (w_0, w_hops) = conv.hop_maps(Tensor(span)), conv.hop_maps(Tensor(windows))
        for got, want in zip([z_0, *hops], [w_0, *w_hops]):
            np.testing.assert_allclose(_windows(got, b, count, step).data, want.data,
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("depth", [2, 3])
    @pytest.mark.parametrize("per_sample", [False, True])
    def test_forward_keeps_no_stacked_copy(self, depth, per_sample):
        # Under a tape the forward pass leaves the depth hops (the selection
        # map's weight gradient reads them and x) and the output: (depth+1)|x|,
        # plus the transition matrix. A (B, (depth+1)C, T, N) stack of the
        # hops and x, kept for that gradient, would make it (2 depth + 1)|x|.
        conv = self.make(channels=16, depth=depth, seed=depth)
        rng = np.random.default_rng(depth)
        x = Tensor(swap_tn(rng.normal(size=(8, 16, 50, 13))), requires_grad=True)
        adj = Tensor(rng.random((8, 50, 50) if per_sample else (50, 50)) + 0.1,
                     requires_grad=True)
        tape = Tape()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with tape:
                out = conv(x, adj)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert out.shape == x.shape
        assert grown <= (depth + 1) * x.data.nbytes + 2 * adj.data.nbytes + 64 * 1024
