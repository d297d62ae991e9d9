import weakref

import numpy as np
import pytest

from sdgl import autodiff as ad
from sdgl.autodiff import Tape, Tensor, grad_check
from sdgl.rng import RngState


def rand(shape, seed=0):
    return Tensor(np.random.default_rng(seed).normal(size=shape))


def rand_p(shape, seed=0):
    return Tensor(np.random.default_rng(seed).normal(size=shape), requires_grad=True)


class TestForwardValues:
    def test_matmul_identity(self):
        m = rand((3, 5), seed=1)
        out = ad.matmul(Tensor(np.eye(3)), m)
        np.testing.assert_array_equal(out.data, m.data)

    def test_row_softmax_uniform(self):
        out = ad.row_softmax(Tensor([[0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[1 / 3] * 3], atol=1e-15)

    def test_relu_definition(self):
        out = ad.relu(Tensor([[-2.0, 5.0]]))
        np.testing.assert_array_equal(out.data, [[0.0, 5.0]])

    def test_shape_error_names_primitive(self):
        with pytest.raises(ad.ShapeError, match="matmul"):
            ad.matmul(rand((2, 3)), rand((2, 3)))
        with pytest.raises(ad.ShapeError, match="matmul"):  # backward needs rank >= 2
            ad.matmul(rand((3,)), rand((3, 2)))


class TestBackward:
    def test_square_sum(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        t = Tape()
        with t:
            loss = ad.reduce_sum(ad.mul(x, x))
        t.backward(loss)
        np.testing.assert_allclose(x.grad, [2.0, 4.0])

    def test_backward_releases_consumed_intermediates(self):
        x = Tensor(np.linspace(-1.0, 1.0, 5), requires_grad=True)
        t = Tape()
        with t:
            h = ad.tanh(x)
            loss = ad.reduce_sum(ad.mul(h, h))
        alive = weakref.ref(h.data)
        del h
        t.backward(loss)
        assert alive() is None
        th = np.tanh(x.data)
        np.testing.assert_allclose(x.grad, 2 * th * (1 - th**2), rtol=1e-14)

    def test_matmul_sum_grad_is_ones_bt(self):
        # d/dA sum(A @ B) = ones @ B^T; frozen from the finite-difference oracle
        a = rand_p((3, 4), seed=2)
        b = rand_p((4, 5), seed=3)
        t = Tape()
        with t:
            loss = ad.reduce_sum(ad.matmul(a, b))
        t.backward(loss)
        expected = np.ones((3, 5)) @ b.data.T
        np.testing.assert_allclose(a.grad, expected, rtol=1e-12)
        rep = grad_check(lambda z: ad.reduce_sum(ad.matmul(z, Tensor(b.data))), Tensor(a.data))
        assert rep.passed, rep

    def test_layer_norm_matches_finite_differences(self):
        # plain sum of a normalized row is constant, so its gradient vanishes
        x = rand((4, 6), seed=4)
        t = Tape()
        x.requires_grad = True
        with t:
            loss = ad.reduce_sum(ad.layer_norm(x))
        t.backward(loss)
        np.testing.assert_allclose(x.grad, 0.0, atol=1e-12)
        w = Tensor(np.random.default_rng(5).normal(size=(4, 6)))
        rep = grad_check(lambda z: ad.reduce_sum(ad.mul(ad.layer_norm(z), w)), Tensor(x.data), tol=1e-4)
        assert rep.passed, rep

    @pytest.mark.parametrize("seed", range(5))
    def test_layer_norm_affine_gradients(self, seed):
        rng = np.random.default_rng(seed)
        x, gain, bias = (Tensor(rng.normal(size=s)) for s in ((4, 6), (6,), (6,)))
        w = Tensor(rng.normal(size=(4, 6)))

        def loss(z_x, z_gain, z_bias):
            return ad.reduce_sum(ad.mul(ad.layer_norm(z_x, z_gain, z_bias), w))

        assert grad_check(lambda z: loss(z, gain, bias), x).passed
        assert grad_check(lambda z: loss(x, z, bias), gain).passed
        assert grad_check(lambda z: loss(x, gain, z), bias).passed

    def test_non_scalar_loss_rejected(self):
        x = rand_p((2, 2))
        t = Tape()
        with t:
            y = ad.mul(x, x)
        with pytest.raises(ad.TapeError, match="scalar"):
            t.backward(y)

    def test_consumed_tape_rejected(self):
        x = rand_p((2,))
        t = Tape()
        with t:
            y = ad.reduce_sum(x)
        t.backward(y)
        with pytest.raises(ad.TapeError, match="consumed"):
            t.backward(y)

    def test_gradient_accumulates_on_reuse(self):
        x = Tensor([3.0], requires_grad=True)
        t = Tape()
        with t:
            loss = ad.reduce_sum(ad.add(ad.mul(x, x), x))
        t.backward(loss)
        np.testing.assert_allclose(x.grad, [7.0])


# Inputs are kept clear of 0, where absolute has its kink; the others are
# smooth everywhere.
PRIMITIVE_LOSSES = {
    "matmul": lambda x: ad.reduce_sum(ad.mul(ad.matmul(x, Tensor(np.linspace(-1, 1, 20).reshape(5, 4))), ad.matmul(x, Tensor(np.linspace(2, 3, 20).reshape(5, 4))))),
    "transpose": lambda x: ad.reduce_sum(ad.mul(ad.transpose(x), ad.transpose(x))),
    "add": lambda x: ad.reduce_sum(ad.add(x, ad.mul(x, x))),
    "sub": lambda x: ad.reduce_sum(ad.sub(ad.mul(x, x), x)),
    "mul": lambda x: ad.reduce_sum(ad.mul(x, ad.mul(x, x))),
    "divide": lambda x: ad.reduce_sum(ad.divide(x, Tensor(np.full(x.shape, 2.5)))),
    "scale": lambda x: ad.reduce_sum(ad.scale(x, -1.7)),
    "tanh": lambda x: ad.reduce_sum(ad.tanh(x)),
    "sigmoid": lambda x: ad.reduce_sum(ad.sigmoid(x)),
    "absolute": lambda x: ad.reduce_sum(ad.mul(ad.absolute(x), x)),
    "row_softmax": lambda x: ad.reduce_sum(ad.mul(ad.row_softmax(x), Tensor(np.arange(x.size, dtype=float).reshape(x.shape)))),
    "layer_norm": lambda x: ad.reduce_sum(ad.mul(ad.layer_norm(x), Tensor(np.arange(x.size, dtype=float).reshape(x.shape)))),
    "concat": lambda x: ad.reduce_sum(ad.mul(ad.concat([x, x], axis=0), Tensor(np.arange(2 * x.size, dtype=float).reshape((x.shape[0] * 2,) + x.shape[1:])))),
    "narrow": lambda x: ad.reduce_sum(ad.mul(ad.narrow(x, 1, 1, 2), ad.narrow(x, 1, 0, 2))),
    "reshape": lambda x: ad.reduce_sum(ad.mul(ad.reshape(x, (-1,)), ad.reshape(x, (-1,)))),
    "mean_all": lambda x: ad.mean_all(ad.mul(x, x)),
}


@pytest.mark.parametrize("name", sorted(PRIMITIVE_LOSSES))
@pytest.mark.parametrize("seed", range(20))
def test_primitive_gradients(name, seed):
    x = rand((4, 5), seed=seed)
    x.data[np.abs(x.data) < 1e-3] += 0.01  # keep clear of the kink
    rep = grad_check(PRIMITIVE_LOSSES[name], x, h=1e-5, tol=1e-4)
    assert rep.passed, f"{name}: {rep}"


@pytest.mark.parametrize("seed", range(20))
def test_relu_gradient_away_from_kink(seed):
    x = rand((4, 5), seed=seed)
    x.data[np.abs(x.data) < 1e-3] += 0.01  # keep clear of the kink
    rep = grad_check(lambda z: ad.reduce_sum(ad.mul(ad.relu(z), z)), x, tol=1e-4)
    assert rep.passed, rep


@pytest.mark.parametrize("seed", range(20))
def test_conv1d_dilated_gradient(seed):
    x = rand((2, 3, 2, 12), seed=seed)
    w = Tensor(np.random.default_rng(seed + 100).normal(size=(4, 3, 3)))
    assert grad_check(lambda z: ad.reduce_sum(ad.mul(ad.conv1d_dilated(z, w, 2), ad.conv1d_dilated(z, w, 2))), x).passed
    assert grad_check(lambda z: ad.reduce_sum(ad.mul(ad.conv1d_dilated(x, z, 2), ad.conv1d_dilated(x, z, 2))), w).passed


@pytest.mark.parametrize("seed", range(20))
def test_channel_map_and_propagate_gradients(seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(2, 3, 4, 5)))
    w = Tensor(rng.normal(size=(6, 3)))
    b = Tensor(rng.normal(size=(6,)))
    assert grad_check(lambda z: ad.reduce_sum(ad.mul(ad.channel_map(z, w, b), ad.channel_map(z, w, b))), x).passed
    assert grad_check(lambda z: ad.reduce_sum(ad.mul(ad.channel_map(x, z, b), ad.channel_map(x, z, b))), w).passed
    p = Tensor(rng.normal(size=(4, 4)))
    assert grad_check(lambda z: ad.reduce_sum(ad.mul(ad.propagate(z, p), ad.propagate(z, p))), x).passed
    assert grad_check(lambda z: ad.reduce_sum(ad.mul(ad.propagate(x, z), ad.propagate(x, z))), p).passed
    pb = Tensor(rng.normal(size=(2, 4, 4)))
    assert grad_check(lambda z: ad.reduce_sum(ad.mul(ad.propagate(x, z), ad.propagate(x, z))), pb).passed


@pytest.mark.parametrize("seed", range(5))
def test_dropout_gradient_through_mask(seed):
    x = rand((6, 6), seed=seed)
    rng_seed = 77
    def f(z):
        return ad.reduce_sum(ad.mul(ad.dropout(z, 0.8, RngState(rng_seed), training=True), z))
    assert grad_check(f, x, tol=1e-4).passed


class TestInvariants:
    @pytest.mark.parametrize("seed", range(10))
    def test_row_softmax_rows(self, seed):
        x = rand((7, 9), seed=seed)
        y = ad.row_softmax(ad.scale(x, 10.0))
        np.testing.assert_allclose(y.data.sum(axis=-1), 1.0, atol=1e-12)
        assert np.all(y.data > 0)

    @pytest.mark.parametrize("seed", range(10))
    def test_layer_norm_moments(self, seed):
        x = rand((5, 16), seed=seed)
        y = ad.layer_norm(x)
        np.testing.assert_allclose(y.data.mean(axis=-1), 0.0, atol=1e-10)
        np.testing.assert_allclose(y.data.var(axis=-1), 1.0, atol=1e-8)

    def test_dropout_identity_cases(self):
        x = rand((4, 4), seed=1)
        rng = RngState(0)
        np.testing.assert_array_equal(ad.dropout(x, 1.0, rng, training=True).data, x.data)
        np.testing.assert_array_equal(ad.dropout(x, 0.3, rng, training=False).data, x.data)

    def test_dropout_rejects_bad_keep(self):
        with pytest.raises(ad.ShapeError):
            ad.dropout(rand((2, 2)), 0.0, RngState(0), training=True)

    def test_rng_replay_bit_identical(self):
        a = RngState(42).normal((100,))
        b = RngState(42).normal((100,))
        np.testing.assert_array_equal(a, b)

    def test_grad_check_linear_function_near_zero(self):
        rep = grad_check(lambda z: ad.reduce_sum(z), rand((3, 3), seed=5))
        assert rep.max_rel_err <= 1e-10


# Einsum oracles for the structured primitives, independent of the matmul
# layouts that autodiff uses.


def conv_oracle(x, w, d):
    k = w.shape[2]
    t_out = x.shape[3] - d * (k - 1)
    out = 0.0
    for s in range(k):
        off = d * (k - 1 - s)
        out = out + np.einsum("oi,bint->bont", w[:, :, s], x[:, :, :, off : off + t_out])
    return out


def conv_vjp_oracle(x, w, d, g):
    k = w.shape[2]
    t_out = g.shape[3]
    gx, gw = np.zeros_like(x), np.zeros_like(w)
    for s in range(k):
        off = d * (k - 1 - s)
        gx[:, :, :, off : off + t_out] += np.einsum("oi,bont->bint", w[:, :, s], g)
        gw[:, :, s] = np.einsum("bont,bint->oi", g, x[:, :, :, off : off + t_out])
    return gx, gw


def channel_map_oracle(x, w, b):
    y = np.einsum("oi,bint->bont", w, x)
    return y if b is None else y + b.reshape(1, -1, 1, 1)


def channel_map_vjp_oracle(x, w, g):
    return (np.einsum("oi,bont->bint", w, g), np.einsum("bont,bint->oi", g, x),
            g.sum(axis=(0, 2, 3)))


def propagate_oracle(x, p):
    if p.ndim == 2:
        return np.einsum("ij,bcjt->bcit", p, x)
    return np.einsum("bij,bcjt->bcit", p, x)


def propagate_vjp_oracle(x, p, g):
    if p.ndim == 2:
        return np.einsum("ij,bcit->bcjt", p, g), np.einsum("bcit,bcjt->ij", g, x)
    return np.einsum("bij,bcit->bcjt", p, g), np.einsum("bcit,bcjt->bij", g, x)


def vjp(fn, inputs, g):
    """Forward value of fn(*inputs) and the gradients of sum(fn * g)."""
    for t in inputs:
        t.requires_grad, t.grad = True, None
    tape = Tape()
    with tape:
        out = fn(*inputs)
        loss = ad.reduce_sum(ad.mul(out, Tensor(g)))
    tape.backward(loss)
    return out.data, [t.grad for t in inputs]


def assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


class TestStructuredOracles:
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("seed", range(3))
    def test_conv1d_dilated(self, d, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(3, 4, 5, 17)))
        w = Tensor(rng.normal(size=(6, 4, 3)))
        g = rng.normal(size=(3, 6, 5, 17 - d * 2))
        y, (gx, gw) = vjp(lambda a, b: ad.conv1d_dilated(a, b, d), [x, w], g)
        assert_close(y, conv_oracle(x.data, w.data, d))
        want_gx, want_gw = conv_vjp_oracle(x.data, w.data, d, g)
        assert_close(gx, want_gx)
        assert_close(gw, want_gw)

    @pytest.mark.parametrize("with_bias", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    def test_channel_map(self, with_bias, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(3, 4, 5, 6)))
        w = Tensor(rng.normal(size=(7, 4)))
        inputs = [x, w] + ([Tensor(rng.normal(size=(7,)))] if with_bias else [])
        g = rng.normal(size=(3, 7, 5, 6))
        y, grads = vjp(ad.channel_map, inputs, g)
        bias = inputs[2].data if with_bias else None
        assert_close(y, channel_map_oracle(x.data, w.data, bias))
        want = channel_map_vjp_oracle(x.data, w.data, g)
        for got, expected in zip(grads, want):
            assert_close(got, expected)

    def test_channel_map_strided_input(self):
        # model.forward feeds the residual map a narrow view of the hidden state
        rng = np.random.default_rng(5)
        hidden = Tensor(rng.normal(size=(2, 4, 3, 9)))
        w = Tensor(rng.normal(size=(5, 4)))
        g = rng.normal(size=(2, 5, 3, 4))

        def f(h, m):
            view = ad.narrow(h, 3, 5, 4)
            assert not view.data.flags.c_contiguous
            return ad.channel_map(view, m)

        y, (gh, gw) = vjp(f, [hidden, w], g)
        view = hidden.data[:, :, :, 5:]
        assert_close(y, channel_map_oracle(view, w.data, None))
        want_gv, want_gw, _ = channel_map_vjp_oracle(view, w.data, g)
        want_gh = np.zeros_like(hidden.data)
        want_gh[:, :, :, 5:] = want_gv
        assert_close(gh, want_gh)
        assert_close(gw, want_gw)

    @pytest.mark.parametrize("per_sample", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    def test_propagate(self, per_sample, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(3, 4, 6, 5)))
        p = Tensor(rng.normal(size=(3, 6, 6) if per_sample else (6, 6)))
        g = rng.normal(size=x.shape)
        y, (gx, gp) = vjp(ad.propagate, [x, p], g)
        assert_close(y, propagate_oracle(x.data, p.data))
        want_gx, want_gp = propagate_vjp_oracle(x.data, p.data, g)
        assert_close(gx, want_gx)
        assert_close(gp, want_gp)

    def test_shape_errors_unchanged(self):
        with pytest.raises(ad.ShapeError, match="conv1d_dilated: time axis 5"):
            ad.conv1d_dilated(rand((1, 2, 3, 5)), rand((2, 2, 4)), 2)
        with pytest.raises(ad.ShapeError, match="channel_map: incompatible"):
            ad.channel_map(rand((1, 2, 3, 5)), rand((2, 3)))
        with pytest.raises(ad.ShapeError, match="propagate: batch matrix"):
            ad.propagate(rand((2, 2, 3, 5)), rand((3, 3, 3)))
