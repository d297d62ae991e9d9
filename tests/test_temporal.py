import numpy as np
import pytest

from sdgl import autodiff as ad
from sdgl.autodiff import Tensor, grad_check
from sdgl.rng import RngState
from sdgl.static_graph import ConfigError
from sdgl.temporal import (
    KERNEL_SIZES,
    MAX_KERNEL,
    DilatedInception,
    GatedTemporalLayer,
    layer_dilation,
    receptive_field,
)


def conv_loop_oracle(x, w, d):
    """Literal translation of out(t) = sum_s w(s) x(t - d*s)."""
    b, c_in, n, t_in = x.shape
    c_out, _, k = w.shape
    t_out = t_in - d * (k - 1)
    out = np.zeros((b, c_out, n, t_out))
    for j in range(t_out):
        t = j + d * (k - 1)
        for s in range(k):
            out[:, :, :, j] += np.einsum("oi,bin->bon", w[:, :, s], x[:, :, :, t - d * s])
    return out


def bank_oracle(bank, x):
    """Per-branch loop oracle of a DilatedInception: each branch trimmed to the
    7-tap output length, concatenated over channels, plus the bias."""
    t_out = x.shape[3] - bank.dilation * (MAX_KERNEL - 1)
    parts = []
    for f in bank.filters:
        y = conv_loop_oracle(x, f.data, bank.dilation)
        parts.append(y[:, :, :, y.shape[3] - t_out :])
    return np.concatenate(parts, axis=1) + bank.bias.data.reshape(1, -1, 1, 1)


class TestReceptiveField:
    @pytest.mark.parametrize("k,want", [(1, 7), (2, 19), (3, 43)])
    def test_doubling_dilation_max_kernel(self, k, want):
        assert receptive_field(7, 2.0, k) == want

    def test_geometric_sum_against_direct_accumulation(self):
        # accumulate layer spans one at a time instead of the closed form
        for q in (1.5, 2.0, 3.0):
            for k in range(1, 6):
                span = 1
                for j in range(1, k + 1):
                    span += (MAX_KERNEL - 1) * q ** (j - 1)
                assert receptive_field(MAX_KERNEL, q, k) == int(round(span))

    def test_growth_rate_must_exceed_one(self):
        with pytest.raises(ConfigError):
            receptive_field(7, 1.0, 2)
        with pytest.raises(ConfigError):
            receptive_field(7, 0.5, 2)

    def test_degenerate_sizes_rejected(self):
        with pytest.raises(ConfigError):
            receptive_field(1, 2.0, 2)
        with pytest.raises(ConfigError):
            receptive_field(7, 2.0, 0)

    def test_layer_dilation_schedule(self):
        assert [layer_dilation(2.0, j) for j in (1, 2, 3, 4)] == [1, 2, 4, 8]
        assert layer_dilation(1.5, 2) == 1  # floors, never below one


class TestDilatedInception:
    def make(self, c_in=2, c_out=8, d=1, seed=0):
        return DilatedInception(c_in, c_out, d, RngState(seed))

    def test_channels_divisible_by_four(self):
        with pytest.raises(ConfigError):
            DilatedInception(2, 6, 1, RngState(0))

    @pytest.mark.parametrize("d", [1, 2])
    def test_output_length_tracks_longest_kernel(self, d):
        layer = self.make(d=d)
        t_in = 32
        out = layer(Tensor(np.random.default_rng(0).normal(size=(2, 2, 3, t_in))))
        assert out.shape == (2, 8, 3, t_in - d * (MAX_KERNEL - 1))

    def test_too_short_input_rejected(self):
        layer = self.make(d=3)
        with pytest.raises(ad.ShapeError, match="time length"):
            layer(Tensor(np.zeros((1, 2, 2, layer.min_length() - 1))))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_branch_loop_oracle(self, seed):
        layer = self.make(d=2, seed=seed)
        x = np.random.default_rng(seed + 40).normal(size=(2, 2, 3, 20))
        got = layer(Tensor(x)).data
        t_out = 20 - 2 * (MAX_KERNEL - 1)
        parts = []
        for k, f in zip(KERNEL_SIZES, layer.filters):
            y = conv_loop_oracle(x, f.data, 2)
            parts.append(y[:, :, :, y.shape[3] - t_out :])
        want = np.concatenate(parts, axis=1) + layer.bias.data.reshape(1, -1, 1, 1)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_branches_align_on_final_step(self):
        # a unit impulse at the last input step reaches every branch's final
        # output position through tap s=0 only
        layer = self.make(c_in=1, d=1, seed=3)
        layer.bias.data[:] = 0.0
        x = np.zeros((1, 1, 1, 16))
        x[0, 0, 0, -1] = 1.0
        out = layer(Tensor(x)).data[0, :, 0, -1]
        want = np.concatenate([f.data[:, 0, 0] for f in layer.filters])
        np.testing.assert_allclose(out, want, atol=1e-14)

    def test_impulse_outside_window_is_invisible(self):
        layer = self.make(c_in=1, d=2, seed=4)
        t_in = 40
        base = np.zeros((1, 1, 1, t_in))
        bumped = base.copy()
        # last output step looks back 2*(7-1)=12 steps; earlier ones are unseen by it
        bumped[0, 0, 0, 0] = 5.0
        a = layer(Tensor(base)).data[:, :, :, -1]
        b = layer(Tensor(bumped)).data[:, :, :, -1]
        np.testing.assert_array_equal(a, b)


class TestGatedTemporalLayer:
    def make(self, seed=0, d=1):
        return GatedTemporalLayer(2, 8, d, RngState(seed))

    def test_saturated_closed_gate_silences_output(self):
        layer = self.make(seed=1)
        layer.gate_bank.bias.data[:] = -1e4
        out = layer(Tensor(np.random.default_rng(2).normal(size=(1, 2, 3, 16))))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_saturated_open_gate_passes_tanh(self):
        layer = self.make(seed=3)
        layer.gate_bank.bias.data[:] = 1e4
        x = Tensor(np.random.default_rng(4).normal(size=(1, 2, 3, 16)))
        got = layer(x).data
        want = np.tanh(layer.filter_bank(x).data)
        np.testing.assert_allclose(got, want, atol=1e-8)

    def test_output_bounded_by_one(self):
        layer = self.make(seed=5)
        x = Tensor(np.random.default_rng(6).normal(size=(2, 2, 4, 20)) * 10)
        assert np.all(np.abs(layer(x).data) < 1.0)

    def test_two_layer_stack_empirical_receptive_field(self):
        # layers at dilation 1 and 2 should see exactly rf(7, 2, 2) = 19 steps
        rf = receptive_field(MAX_KERNEL, 2.0, 2)
        assert rf == 19
        l1 = self.make(seed=7, d=1)
        l2 = GatedTemporalLayer(8, 8, 2, RngState(8))
        t_in = rf + 4
        rng = np.random.default_rng(9)
        base = rng.normal(size=(1, 2, 1, t_in))

        def last_step(x):
            return l2(l1(Tensor(x))).data[0, :, 0, -1]

        ref = last_step(base)
        inside = base.copy()
        inside[0, :, 0, t_in - rf] += 1.0  # oldest step still inside the field
        assert np.abs(last_step(inside) - ref).max() > 0
        outside = base.copy()
        outside[0, :, 0, t_in - rf - 1] += 1.0  # one step too old
        np.testing.assert_array_equal(last_step(outside), ref)

    @pytest.mark.parametrize("seed", range(3))
    def test_stack_gradient(self, seed):
        l1 = GatedTemporalLayer(2, 4, 1, RngState(seed))
        l2 = GatedTemporalLayer(4, 4, 2, RngState(seed + 10))
        x = Tensor(np.random.default_rng(seed + 20).normal(size=(1, 2, 2, 20)))

        def f(z):
            return ad.mean_all(ad.mul(l2(l1(z)), l2(l1(z))))

        assert grad_check(f, x, h=1e-5, tol=1e-4).passed
        loss = lambda _: f(x)
        for name, p in {**l1.parameters(), **{"2." + k: v for k, v in l2.parameters().items()}}.items():
            rep = grad_check(loss, p, h=1e-4, tol=1e-3, sample=6, rng=RngState(seed))
            assert rep.passed, (name, rep)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("seed", range(3))
    def test_fused_layer_matches_per_bank_oracle(self, d, seed):
        layer = GatedTemporalLayer(3, 8, d, RngState(seed))
        rng = np.random.default_rng(seed + 30)
        layer.filter_bank.bias.data[:] = rng.normal(size=8)
        layer.gate_bank.bias.data[:] = rng.normal(size=8)
        x = rng.normal(size=(2, 3, 4, 21))
        got = layer(Tensor(x)).data
        a = bank_oracle(layer.filter_bank, x)
        b = bank_oracle(layer.gate_bank, x)
        want = np.tanh(a) / (1.0 + np.exp(-b))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("name", ["filter.f2", "gate.f6"])
    def test_gradient_through_packed_weight(self, name):
        layer = GatedTemporalLayer(2, 8, 2, RngState(11))
        x = Tensor(np.random.default_rng(12).normal(size=(2, 2, 3, 16)))
        probe = Tensor(np.random.default_rng(13).normal(size=(2, 8, 3, 4)))

        def loss(_):
            return ad.reduce_sum(ad.mul(layer(x), probe))

        rep = grad_check(loss, layer.parameters()[name], h=1e-5, tol=1e-6)
        assert rep.passed, rep

    def test_per_kernel_gradients_keep_their_shape(self):
        layer = GatedTemporalLayer(3, 8, 1, RngState(14))
        x = Tensor(np.random.default_rng(15).normal(size=(2, 3, 2, 12)))
        params = layer.parameters()
        t = ad.Tape()
        with t:
            loss = ad.mean_all(layer(x))
        t.backward(loss)
        for bank in ("filter", "gate"):
            for k in KERNEL_SIZES:
                p = params[f"{bank}.f{k}"]
                assert p.shape == (2, 3, k)
                assert p.grad.shape == (2, 3, k), (bank, k)
                assert np.all(p.grad != 0.0)
