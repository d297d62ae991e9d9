import copy
import pickle
import threading
import warnings
import tracemalloc
import weakref

import numpy as np
import pytest

from sdgl import autodiff as ad
from sdgl.autodiff import Tape, Tensor, grad_check
from sdgl.rng import CHUNK, RngState


def rand(shape, seed=0):
    return Tensor(np.random.default_rng(seed).normal(size=shape))


def rand_p(shape, seed=0):
    return Tensor(np.random.default_rng(seed).normal(size=shape), requires_grad=True)


def swap_tn(a):
    """(B, C, N, T) <-> (B, C, T, N), contiguous: the feature maps are
    time-major, and the oracles and fixtures of these tests are node-major."""
    return np.ascontiguousarray(np.swapaxes(a, 2, 3))


def sigmoid_two_branch(a):
    pos = a >= 0
    e = np.exp(np.where(pos, -a, a))
    return np.where(pos, 1.0 / (1.0 + e), e / (1.0 + e))


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
        # NaN passes on, so a diverged input reaches the loss check
        with np.errstate(invalid="ignore"):
            special = ad.relu(Tensor([np.nan, -0.0, np.inf, -np.inf])).data
        assert np.isnan(special[0])
        assert special[1] == 0.0 and not np.signbit(special[1])
        np.testing.assert_array_equal(special[2:], [np.inf, 0.0])
        a = np.random.default_rng(5).normal(scale=10.0, size=500)
        a[:4] = [0.0, -0.0, 1e-310, -1e-310]
        want = np.where(a > 0, a, 0.0)
        np.testing.assert_array_equal(ad.relu(Tensor(a)).data.view(np.int64), want.view(np.int64))

    def test_sigmoid_bit_identical_to_the_two_branch_form(self):
        tiny = np.finfo(np.float64).smallest_subnormal
        special = [0.0, -0.0, 710.0, -710.0, np.inf, -np.inf, np.nan, tiny, -tiny,
                   1e-310, -1e-310, 36.8, -36.8, 745.2, -745.2]
        a = np.concatenate([special, np.random.default_rng(4).normal(scale=20.0, size=500)])
        # exp(-710) is subnormal and sets the underflow flag in both forms, so
        # underflow stays at numpy's default "ignore"
        with np.errstate(all="raise", under="ignore"):
            y = ad.sigmoid(Tensor(a)).data
            want = sigmoid_two_branch(a)
        nan = np.isnan(a)
        assert np.isnan(y[nan]).all()
        np.testing.assert_array_equal(y[~nan].view(np.int64), want[~nan].view(np.int64))

    def test_shape_error_names_primitive(self):
        with pytest.raises(ad.ShapeError, match="matmul"):
            ad.matmul(rand((2, 3)), rand((2, 3)))
        with pytest.raises(ad.ShapeError, match="matmul"):  # backward needs rank >= 2
            ad.matmul(rand((3,)), rand((3, 2)))


class TestTensorWrapping:
    @pytest.mark.parametrize("view", [lambda a: a, lambda a: a[:, ::2]],
                             ids=["contiguous", "strided"])
    def test_float64_array_is_kept(self, view):
        a = view(np.random.default_rng(0).normal(size=(4, 6)))
        assert Tensor(a).data is a

    @staticmethod
    def matrix():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PendingDeprecationWarning)
            return np.matrix([[1.0, 2.0], [3.0, 4.5]])

    @pytest.mark.parametrize("make", [
        lambda: [1.0, 2.5, -3.0], lambda: 7, lambda: np.arange(5, dtype=np.float32) / 3,
        lambda: np.linspace(-1.0, 1.0, 6).astype(">f8"), matrix],
        ids=["list", "int", "float32", "big-endian float64", "matrix"])
    def test_anything_else_becomes_a_native_float64_array(self, make):
        value = make()
        data, want = Tensor(value).data, np.asarray(value, dtype=np.float64)
        assert type(data) is np.ndarray and data.dtype == np.float64 and data.dtype.isnative
        assert data.shape == want.shape
        np.testing.assert_array_equal(data, want)


class TestOneTapForm:
    """A one-tap map is the plain product of each part's (B, C_i, T*N) rows
    with its weight columns [lo, hi), summed block by block in part order,
    plus the bias: bit for bit, a one-channel block's broadcast multiply too."""

    @staticmethod
    def products(parts, w, bias=None):
        b, _, t, n = parts[0].shape
        acc, lo = None, 0
        for x in parts:
            c = x.shape[1]
            y = w[:, lo:lo + c] @ x.reshape(b, c, -1)
            acc = y if acc is None else acc + y
            lo += c
        if bias is not None:
            acc = acc + bias.reshape(1, -1, 1)
        return acc.reshape(b, -1, t, n)

    @pytest.mark.parametrize("with_bias", [False, True], ids=["no bias", "bias"])
    def test_channel_map(self, with_bias):
        x, w, bias = rand((3, 5, 4, 6), 1), rand((7, 5), 2), rand((7,), 3)
        got = ad.channel_map(x, w, bias if with_bias else None).data
        want = self.products([x.data], w.data, bias.data if with_bias else None)
        np.testing.assert_array_equal(got, want)

    def test_channel_map_concat_over_16_16_and_1_channels(self):
        parts = [rand((2, c, 3, 4), seed) for c, seed in ((16, 4), (16, 5), (1, 6))]
        w, bias = rand((8, 33), 7), rand((8,), 8)
        got = ad.channel_map_concat(parts, w, bias).data
        np.testing.assert_array_equal(got, self.products([p.data for p in parts], w.data,
                                                         bias.data))

    def test_one_tap_convolution_at_stride_2(self):
        # a (C_out, C_in, 1) weight reads every second step; the dilation does not matter
        x, w = rand((2, 3, 7, 5), 9), rand((6, 3, 1), 10)
        got = ad.conv1d_dilated(x, w, 2, stride=2).data
        assert got.shape == (2, 6, 4, 5)
        np.testing.assert_array_equal(got, self.products([x.data[:, :, ::2]], w.data[:, :, 0]))


class TestAllTapsRowsForm:
    """A k-tap convolution whose one output step reads all k input steps is
    the product of its weight, taps reversed, with x's (B, C_in*k, N) rows:
    the forward pass, the input gradient and the weight gradient, bit for bit."""

    @pytest.mark.parametrize("k", [2, 3, 7])
    @pytest.mark.parametrize("c_in", [1, 4])
    def test_one_output_step(self, k, c_in):
        b, c_out, n = 3, 5, 4
        rng = np.random.default_rng(10 * k + c_in)
        x, w = Tensor(rng.normal(size=(b, c_in, k, n))), Tensor(rng.normal(size=(c_out, c_in, k)))
        g = rng.normal(size=(b, c_out, 1, n))
        y, (gx, gw) = vjp(lambda a, m: ad.conv1d_dilated(a, m, 1), [x, w], g)
        w_rows, rows = w.data[:, :, ::-1].reshape(c_out, -1), x.data.reshape(b, -1, n)
        g_rows = g.reshape(b, c_out, n)
        np.testing.assert_array_equal(y, (w_rows @ rows).reshape(b, c_out, 1, n))
        np.testing.assert_array_equal(gx, (w_rows.T @ g_rows).reshape(b, c_in, k, n))
        dw = (g_rows @ rows.transpose(0, 2, 1)).sum(axis=0)
        np.testing.assert_array_equal(gw, dw.reshape(c_out, c_in, k)[:, :, ::-1])
        assert gw.flags.c_contiguous


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

    @pytest.mark.parametrize("shape", [(7,), (3, 5, 7), (2, 10, 10)])
    def test_layer_norm_matches_finite_differences_at_any_rank(self, shape):
        rng = np.random.default_rng(len(shape))
        w = Tensor(rng.normal(size=shape))
        rep = grad_check(lambda z: ad.reduce_sum(ad.mul(ad.layer_norm(z), w)),
                         Tensor(rng.normal(scale=3.0, size=shape) + 2.0), tol=1e-6)
        assert rep.passed, rep

    def test_layer_norm_row_under_the_floor_gets_no_variance_gradient(self):
        # row 0 varies by about 1e-7, a variance under the 1e-10 floor: it is
        # divided by eps = 1e-5 and its gradient is g minus its mean, over eps
        rng = np.random.default_rng(6)
        x = rng.normal(size=(3, 8))
        x[0] = 3.7 + 1e-7 * rng.normal(size=8)
        x[1] = 0.0
        g = rng.normal(size=(3, 8))
        y, (gx,) = vjp(ad.layer_norm, [Tensor(x)], g)
        assert_close(y[0], (x[0] - x[0].mean()) / 1e-5)
        np.testing.assert_array_equal(y[1], 0.0)
        for row in (0, 1):
            assert_close(gx[row], (g[row] - g[row].mean()) / 1e-5)
        xhat = (x[2] - x[2].mean()) / x[2].std()
        assert_close(gx[2], (g[2] - g[2].mean() - xhat * (g[2] * xhat).mean()) / x[2].std())

    def test_layer_norm_passes_nan_on(self):
        x = np.random.default_rng(7).normal(size=(3, 5))
        x[1, 2] = np.nan
        y, (gx,) = vjp(ad.layer_norm, [Tensor(x)], np.ones((3, 5)))
        assert np.isnan(y[1]).all() and np.isnan(gx[1]).all()
        assert np.isfinite(y[[0, 2]]).all() and np.isfinite(gx[[0, 2]]).all()

    def test_row_softmax_of_huge_logits_warns_nothing(self):
        # pyproject.toml makes a RuntimeWarning (overflow, invalid value) a test error
        a = np.array([[1e300, -1e300, 0.0], [-1e300, -1e300, 1e300], [1e300, 1e300, -1e300]])
        g = np.random.default_rng(8).normal(size=a.shape)
        y, (ga,) = vjp(ad.row_softmax, [Tensor(a)], g)
        np.testing.assert_array_equal(y, [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.5, 0.5, 0.0]])
        np.testing.assert_array_equal(ga[:2], 0.0)
        assert_close(ga[2], [(g[2, 0] - g[2, 1]) / 4, (g[2, 1] - g[2, 0]) / 4, 0.0])

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

    def test_tape_active_only_while_a_tape_records(self):
        assert not ad.tape_active()
        t = Tape()
        with t:
            assert ad.tape_active()
        assert not ad.tape_active()
        with pytest.raises(ValueError):
            with Tape():
                assert ad.tape_active()
                raise ValueError
        assert not ad.tape_active()

    def test_gradient_accumulates_on_reuse(self):
        x = Tensor([3.0], requires_grad=True)
        t = Tape()
        with t:
            loss = ad.reduce_sum(ad.add(ad.mul(x, x), x))
        t.backward(loss)
        np.testing.assert_allclose(x.grad, [7.0])


def abs_by_sign(x):
    """|x| as ``hybrid_loss`` computes it: x times its sign, held constant."""
    return ad.mul(x, Tensor(np.sign(x.data)))


def squared_sum(y):
    return ad.reduce_sum(ad.mul(y, y))


ONE_TAP_W = Tensor(np.linspace(-1, 2, 12).reshape(3, 4, 1))
ONE_TAP_X = Tensor(np.linspace(-2, 1, 120).reshape(2, 5, 3, 4))
CONCAT_X = Tensor(np.linspace(-2, 1, 30).reshape(2, 3, 1, 5))
STRIDED_W = Tensor(np.linspace(-1, 2, 18).reshape(3, 2, 3))
STRIDED_X = Tensor(np.linspace(-2, 1, 270).reshape(2, 5, 9, 3))

# Inputs are kept clear of 0, where |x| has its kink; the others are smooth
# everywhere.
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
    "absolute": lambda x: ad.reduce_sum(ad.mul(abs_by_sign(x), x)),
    "row_softmax": lambda x: ad.reduce_sum(ad.mul(ad.row_softmax(x), Tensor(np.arange(x.size, dtype=float).reshape(x.shape)))),
    "layer_norm": lambda x: ad.reduce_sum(ad.mul(ad.layer_norm(x), Tensor(np.arange(x.size, dtype=float).reshape(x.shape)))),
    "concat": lambda x: ad.reduce_sum(ad.mul(ad.concat([x, x], axis=0), Tensor(np.arange(2 * x.size, dtype=float).reshape((x.shape[0] * 2,) + x.shape[1:])))),
    "narrow": lambda x: ad.reduce_sum(ad.mul(ad.narrow(x, 1, 1, 2), ad.narrow(x, 1, 0, 2))),
    "narrow stepped": lambda x: ad.reduce_sum(ad.mul(ad.narrow(x, 1, 0, 2, 2),
                                                     ad.narrow(x, 1, 1, 2, 3))),
    "reshape": lambda x: ad.reduce_sum(ad.mul(ad.reshape(x, (-1,)), ad.reshape(x, (-1,)))),
    "mean_all": lambda x: ad.mean_all(ad.mul(x, x)),
    # the one-tap convolution channel_map runs, through x and through the weight
    "conv1d_dilated one tap": lambda x: squared_sum(
        ad.conv1d_dilated(ad.reshape(x, (1, 4, 1, 5)), ONE_TAP_W, 2)),
    "conv1d_dilated one-tap weight": lambda x: squared_sum(
        ad.conv1d_dilated(ONE_TAP_X, ad.reshape(x, (4, 5, 1)), 2)),
    # a strided convolution, through x and through the weight
    "conv1d_dilated strided": lambda x: squared_sum(
        ad.conv1d_dilated(ad.reshape(x, (1, 2, 5, 2)), STRIDED_W, 1, 2)),
    "conv1d_dilated strided weight": lambda x: squared_sum(
        ad.conv1d_dilated(STRIDED_X, ad.reshape(x, (2, 5, 2)), 2, 3)),
    # the mix-hop selection map, through its middle part and through its weight
    "channel_map_concat part": lambda x: squared_sum(ad.channel_map_concat(
        [CONCAT_X, ad.reshape(x, (2, 2, 1, 5)), ad.narrow(CONCAT_X, 1, 0, 1)],
        Tensor(np.linspace(-1, 1, 18).reshape(3, 6)))),
    "channel_map_concat weight": lambda x: squared_sum(
        ad.channel_map_concat([CONCAT_X, ad.narrow(CONCAT_X, 1, 1, 2)], x)),
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
    x = Tensor(swap_tn(rand((2, 3, 2, 12), seed=seed).data))
    w = Tensor(np.random.default_rng(seed + 100).normal(size=(4, 3, 3)))
    assert grad_check(lambda z: ad.reduce_sum(ad.mul(ad.conv1d_dilated(z, w, 2), ad.conv1d_dilated(z, w, 2))), x).passed
    assert grad_check(lambda z: ad.reduce_sum(ad.mul(ad.conv1d_dilated(x, z, 2), ad.conv1d_dilated(x, z, 2))), w).passed


@pytest.mark.parametrize("seed", range(20))
def test_channel_map_and_propagate_gradients(seed):
    rng = np.random.default_rng(seed)
    x = Tensor(swap_tn(rng.normal(size=(2, 3, 4, 5))))
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
        return ad.reduce_sum(ad.mul(ad.dropout(z, 0.8, RngState(rng_seed)), z))
    assert grad_check(f, x, tol=1e-4).passed


def spy_on_thread_starts(monkeypatch) -> list:
    """The names of the threads started from here on, in order."""
    started, start = [], threading.Thread.start

    def recording(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording)
    return started


class TestKeepMasks:
    """``RngState.keep_mask`` is the serial ``random(shape) < keep_prob``, bit for bit."""

    def test_philox_fills_do_not_depend_on_the_split(self):
        rng, ref = RngState(9), RngState(9)
        parts = [rng.random(7), rng.random(13), rng.random(3)]
        np.testing.assert_array_equal(np.concatenate(parts), ref.random(23))

    @pytest.mark.parametrize("shapes", [
        [(3, 5)],
        [(2, 7, 7), (1, 7, 7), (4, 3, 3), (5,)],
        [(CHUNK + 5,), (CHUNK + 5,)],  # each crossing a chunk
        [(CHUNK + 3,), (2, CHUNK + 1)],
        [(0,)],  # an empty mask draws nothing
        [(3, 0), (4,)],
    ], ids=["one", "several", "chunks", "more-chunks", "empty", "empty-then-one"])
    def test_keep_masks_are_the_serial_ones(self, shapes):
        rng, ref = RngState(11), RngState(11)
        for shape in shapes:
            np.testing.assert_array_equal(rng.keep_mask(shape, 0.7), ref.random(shape) < 0.7)
        # and the stream stands where the serial draws leave it
        np.testing.assert_array_equal(rng.random(8), ref.random(8))

    def test_a_fresh_stream_draws_inline(self, monkeypatch):
        # the learner passes its stream as it is: the mask is drawn in the
        # call, and no thread draws
        started = spy_on_thread_starts(monkeypatch)
        rng = RngState(6)
        x = rand((2, CHUNK + 9), seed=2)
        want = x.data * (RngState(6).random(x.shape) < 0.9) * (1.0 / 0.9)
        np.testing.assert_array_equal(ad.dropout(x, 0.9, rng).data, want)
        assert started == []

    def test_dropout_takes_its_mask_from_keep_mask(self):
        x = rand((3, 6, 6), seed=4)
        rng, ref = RngState(5), RngState(5)
        want = x.data * ref.keep_mask(x.shape, 0.8) * (1.0 / 0.8)
        np.testing.assert_array_equal(ad.dropout(x, 0.8, rng).data, want)
        np.testing.assert_array_equal(rng.random(8), ref.random(8))

    def test_a_mask_is_an_array_of_its_own(self):
        # a later draw leaves an earlier mask as it was
        rng = RngState(7)
        first = rng.keep_mask((5, CHUNK + 1), 0.9)
        kept = first.copy()
        second = rng.keep_mask((5, CHUNK + 1), 0.9)
        assert first.dtype == bool and first.shape == (5, CHUNK + 1)
        assert not np.shares_memory(first, second)
        np.testing.assert_array_equal(first, kept)

    def test_no_float64_array_of_the_masks_size_is_formed(self):
        shape = (8, 4 * CHUNK)  # 256 KB of booleans, 2 MB as float64
        rng = RngState(8)
        rng.keep_mask((CHUNK,), 0.9)  # numpy's first-call allocations
        tracemalloc.start()
        try:
            keep = rng.keep_mask(shape, 0.9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < keep.nbytes + 2 * CHUNK * 8, peak

    def test_a_copy_continues_the_stream_of_masks(self):
        # a copy is a plain Generator: its serial draw is the next mask
        rng = RngState(10)
        rng.keep_mask((50,), 0.9)
        twin = copy.deepcopy(rng)
        np.testing.assert_array_equal(rng.keep_mask((4, 25), 0.9), twin.random((4, 25)) < 0.9)


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
        np.testing.assert_array_equal(ad.dropout(x, 1.0, RngState(0)).data, x.data)

    def test_dropout_rejects_bad_keep(self):
        with pytest.raises(ad.ShapeError):
            ad.dropout(rand((2, 2)), 0.0, RngState(0))

    def test_rng_replay_bit_identical(self):
        a = RngState(42).normal(size=(100,))
        b = RngState(42).normal(size=(100,))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("seed", [0, 42, 2**62 + 7])
    def test_rng_is_a_philox_generator(self, seed):
        rng, ref = RngState(seed), np.random.Generator(np.random.Philox(seed))
        assert isinstance(rng, np.random.Generator) and rng.seed == seed
        np.testing.assert_array_equal(rng.random((3, 4)), ref.random((3, 4)))
        np.testing.assert_array_equal(rng.normal(0.0, 0.5, 7), ref.normal(0.0, 0.5, 7))
        np.testing.assert_array_equal(rng.uniform(-1.0, 2.0, (2, 5)), ref.uniform(-1.0, 2.0, (2, 5)))
        np.testing.assert_array_equal(rng.permutation(9), ref.permutation(9))

    @pytest.mark.parametrize("seed,key", [(0, 1), (7, 2), (2**62 + 7, 1)])
    def test_rng_substream_seed(self, seed, key):
        sub = RngState(seed).substream(key)
        want = (seed * 0x9E3779B97F4A7C15 + key + 1) % 2**63
        assert isinstance(sub, RngState) and sub.seed == want
        np.testing.assert_array_equal(sub.random(8), RngState(want).random(8))

    @pytest.mark.parametrize("duplicate", [lambda r: pickle.loads(pickle.dumps(r)),
                                           copy.deepcopy, copy.copy],
                             ids=["pickle", "deepcopy", "copy"])
    def test_rng_copy_continues_stream(self, duplicate):
        # a copy is numpy's plain Generator; it draws on from the stream's current position
        rng, ref = RngState(3), RngState(3)
        rng.random(5)
        ref.random(5)
        dup = duplicate(rng)
        assert isinstance(dup, np.random.Generator)
        np.testing.assert_array_equal(dup.random(8), ref.random(8))

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
        y, (gx, gw) = vjp(lambda a, b: ad.conv1d_dilated(a, b, d), [Tensor(swap_tn(x.data)), w],
                          swap_tn(g))
        assert_close(swap_tn(y), conv_oracle(x.data, w.data, d))
        want_gx, want_gw = conv_vjp_oracle(x.data, w.data, d, g)
        assert_close(swap_tn(gx), want_gx)
        assert_close(gw, want_gw)

    @pytest.mark.parametrize("per_chunk", [1, 2, 3])
    @pytest.mark.parametrize("d, t_in", [(1, 17), (2, 17), (2, 5), (1, 3)])
    @pytest.mark.parametrize("narrowed", [False, True])
    def test_conv1d_dilated_in_batch_chunks(self, monkeypatch, per_chunk, d, t_in, narrowed):
        # the forward gathers the taps of per_chunk samples at a time: 5 samples
        # in chunks of 1, of 2 (the last has one) and of 3; (2, 5) gives t_out = 1;
        # (1, 3) reads all k = 3 steps for its one output step, which is one
        # product against the input as (B, C_in*k, N) and needs no gather
        c_in, n, k, b = 4, 3, 3, 5
        t_out = t_in - d * (k - 1)
        monkeypatch.setattr(ad, "_GATHER_BYTES", per_chunk * 8 * k * c_in * n * t_out)
        rng = np.random.default_rng(per_chunk)
        lead = 2 if narrowed else 0
        hidden = Tensor(rng.normal(size=(b, c_in, n, lead + t_in)))
        w = Tensor(rng.normal(size=(6, c_in, k)))
        g = rng.normal(size=(b, 6, n, t_out))

        def f(h, m):
            x = ad.narrow(h, 2, lead, t_in) if narrowed else h
            return ad.conv1d_dilated(x, m, d)

        y, (gh, gw) = vjp(f, [Tensor(swap_tn(hidden.data)), w], swap_tn(g))
        x = hidden.data[..., lead:]
        assert_close(swap_tn(y), conv_oracle(x, w.data, d))
        want_gx, want_gw = conv_vjp_oracle(x, w.data, d, g)
        want_gh = np.zeros_like(hidden.data)
        want_gh[..., lead:] = want_gx
        assert_close(swap_tn(gh), want_gh)
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

    @pytest.mark.parametrize("strided", [False, True])
    def test_channel_map_is_one_tap_conv1d_dilated(self, strided):
        # bit for bit: both run one convolution rule, channel_map with one tap
        rng = np.random.default_rng(8)
        hidden, w, b = rng.normal(size=(3, 4, 5, 9)), rng.normal(size=(6, 4)), rng.normal(size=(6,))
        g = rng.normal(size=(3, 6, 5, 6 if strided else 9))

        def view(h):
            if not strided:
                return h
            v = ad.narrow(h, 3, 3, 6)
            assert not v.data.flags.c_contiguous
            return v

        y, (gh, gw, gb) = vjp(lambda h, m, c: ad.channel_map(view(h), m, c),
                              [Tensor(hidden), Tensor(w), Tensor(b)], g)
        y_conv, (gh_conv, gw_conv) = vjp(lambda h, m: ad.conv1d_dilated(view(h), m, 1),
                                         [Tensor(hidden), Tensor(w[:, :, None])], g)
        np.testing.assert_array_equal(y, y_conv + b.reshape(1, -1, 1, 1))
        np.testing.assert_array_equal(gh, gh_conv)
        assert gw.shape == w.shape
        np.testing.assert_array_equal(gw, gw_conv[:, :, 0])
        assert_close(gb, g.sum(axis=(0, 2, 3)))

    def test_channel_map_one_input_channel(self):
        # the first residual, with the start map folded in: a (C, 1) weight runs
        # as a broadcast multiply, bit for bit the K = 1 matmul
        rng = np.random.default_rng(9)
        x, w, b = rng.normal(size=(3, 1, 5, 7)), rng.normal(size=(6, 1)), rng.normal(size=(6,))
        y = ad.channel_map(Tensor(x), Tensor(w), Tensor(b)).data
        want = w @ x.reshape(3, 1, 35) + b.reshape(1, -1, 1)
        np.testing.assert_array_equal(y, want.reshape(3, 6, 5, 7))
        g = Tensor(rng.normal(size=(3, 6, 5, 7)))
        args = [Tensor(x), Tensor(w), Tensor(b)]
        for i in range(3):
            def f(z):
                inputs = args[:i] + [z] + args[i + 1:]
                return ad.reduce_sum(ad.mul(ad.channel_map(*inputs), g))

            report = grad_check(f, Tensor(args[i].data.copy()))
            assert report.passed, (i, report)

    @pytest.mark.parametrize("widths", [(4,), (3, 1), (2, 1, 3)])
    @pytest.mark.parametrize("with_bias", [False, True])
    @pytest.mark.parametrize("strided", [False, True])
    def test_channel_map_concat_is_channel_map_of_concat(self, widths, with_bias, strided):
        # the mix-hop selection map; the first part may be a narrowed view
        rng = np.random.default_rng(len(widths))
        lead = 3 if strided else 0
        hidden = rng.normal(size=(3, widths[0], 5, lead + 6))
        rest = [rng.normal(size=(3, c, 5, 6)) for c in widths[1:]]
        w, b = rng.normal(size=(7, sum(widths))), rng.normal(size=(7,))
        g = rng.normal(size=(3, 7, 5, 6))

        def run(select):
            inputs = [Tensor(a) for a in (hidden, *rest, w, *([b] if with_bias else []))]

            def f(h, *others):
                first = ad.narrow(h, 3, lead, 6) if strided else h
                return select([first, *others[:len(rest)]], *others[len(rest):])

            return vjp(f, inputs, g)

        y, grads = run(ad.channel_map_concat)
        want_y, want_grads = run(lambda parts, *wb: ad.channel_map(ad.concat(parts, axis=1), *wb))
        assert_close(y, want_y)
        assert len(grads) == len(want_grads)
        for got, want in zip(grads, want_grads):
            assert_close(got, want)

    @pytest.mark.parametrize("shapes, w_shape", [
        ([], (2, 0)),
        ([(1, 2, 3, 5), (1, 2, 3, 4)], (2, 4)),  # time lengths differ
        ([(1, 2, 3, 5), (2, 2, 3, 5)], (2, 4)),  # batch sizes differ
        ([(1, 2, 3, 5), (1, 2, 4, 5)], (2, 4)),  # node counts differ
        ([(1, 2, 3, 5), (1, 2, 3, 5)], (2, 5)),  # 4 channels against 5 weight columns
        ([(1, 2, 3), (1, 2, 3)], (2, 4)),
        ([(1, 2, 3, 5)], (2, 2, 1)),
    ])
    def test_channel_map_concat_shape_errors(self, shapes, w_shape):
        with pytest.raises(ad.ShapeError, match="channel_map_concat: incompatible shapes"):
            ad.channel_map_concat([rand(s) for s in shapes], rand(w_shape))

    @pytest.mark.parametrize("per_sample", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    def test_propagate(self, per_sample, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(3, 4, 6, 5)))
        p = Tensor(rng.normal(size=(3, 6, 6) if per_sample else (6, 6)))
        g = rng.normal(size=x.shape)
        y, (gx, gp) = vjp(ad.propagate, [Tensor(swap_tn(x.data)), p], swap_tn(g))
        assert_close(swap_tn(y), propagate_oracle(x.data, p.data))
        want_gx, want_gp = propagate_vjp_oracle(x.data, p.data, g)
        assert_close(swap_tn(gx), want_gx)
        assert_close(gp, want_gp)

    @pytest.mark.parametrize("k, d, stride", [(3, 1, 2), (3, 2, 3), (7, 1, 2), (7, 2, 4),
                                              (2, 3, 5), (1, 2, 3)])
    @pytest.mark.parametrize("per_chunk", [1, 2, 5])
    def test_strided_conv1d_dilated_keeps_every_stride_th_step(self, monkeypatch, k, d,
                                                               stride, per_chunk):
        # the forward gathers strided taps per chunk of samples, backward adds
        # each tap's product into a strided view of dx and reads strided taps for dw
        b, c_in, t_in, n = 5, 4, 19, 3
        t_full = t_in - d * (k - 1)
        t_out = (t_full - 1) // stride + 1
        monkeypatch.setattr(ad, "_GATHER_BYTES", per_chunk * 8 * k * c_in * n * t_out)
        rng = np.random.default_rng(10 * k + stride)
        x, w = rng.normal(size=(b, c_in, t_in, n)), rng.normal(size=(6, c_in, k))
        g = rng.normal(size=(b, 6, t_out, n))
        g_full = np.zeros((b, 6, t_full, n))
        g_full[:, :, ::stride] = g
        y, (gx, gw) = vjp(lambda a, m: ad.conv1d_dilated(a, m, d, stride),
                          [Tensor(x), Tensor(w)], g)
        want_y, (want_gx, want_gw) = vjp(lambda a, m: ad.conv1d_dilated(a, m, d),
                                         [Tensor(x), Tensor(w)], g_full)
        assert y.shape == (b, 6, t_out, n)
        assert_close(y, want_y[:, :, ::stride])
        assert_close(gx, want_gx)
        assert_close(gw, want_gw)

    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("narrowed", [False, True])
    def test_one_channel_conv1d_dilated_at_each_stride(self, stride, d, narrowed):
        # the folded first layer: one input channel, 7 taps, every stride-th step
        # kept; its weight gradient is one product on the taps as (B, 7, t_out*N)
        # rows in step order
        b, k, t_in, n = 5, 7, 19 + 2 * d, 3
        t_full = t_in - d * (k - 1)
        rng = np.random.default_rng(d)
        lead = 2 if narrowed else 0
        hidden, w = rng.normal(size=(b, 1, n, lead + t_in)), rng.normal(size=(6, 1, k))
        g = rng.normal(size=(b, 6, n, (t_full - 1) // stride + 1))

        def f(h, m):
            x = ad.narrow(h, 2, lead, t_in) if narrowed else h
            return ad.conv1d_dilated(x, m, d, stride)

        y, (gh, gw) = vjp(f, [Tensor(swap_tn(hidden)), Tensor(w)], swap_tn(g))
        x = hidden[..., lead:]
        assert_close(swap_tn(y), conv_oracle(x, w, d)[..., ::stride])
        g_full = np.zeros((b, 6, n, t_full))
        g_full[..., ::stride] = g
        want_gx, want_gw = conv_vjp_oracle(x, w, d, g_full)
        want_gh = np.zeros_like(hidden)
        want_gh[..., lead:] = want_gx
        assert_close(swap_tn(gh), want_gh)
        assert_close(gw, want_gw)

    @pytest.mark.parametrize("axis, start, length, step", [
        (0, 1, 2, 2), (1, 0, 3, 3), (1, 2, 4, 2), (2, 4, 1, 5), (2, 0, 6, 1)])
    def test_stepped_narrow_is_a_numpy_slice(self, axis, start, length, step):
        a = rand((5, 9, 6))
        idx = [slice(None)] * 3
        idx[axis] = slice(start, start + step * (length - 1) + 1, step)
        idx = tuple(idx)
        g = np.random.default_rng(1).normal(size=a.data[idx].shape)
        y, (ga,) = vjp(lambda t: ad.narrow(t, axis, start, length, step), [a], g)
        np.testing.assert_array_equal(y, a.data[idx])
        assert y.shape[axis] == length
        want = np.zeros_like(a.data)
        want[idx] = g
        np.testing.assert_array_equal(ga, want)

    @pytest.mark.parametrize("call, message", [
        (lambda: ad.conv1d_dilated(rand((1, 2, 9, 3)), rand((2, 2, 3)), 0),
         r"conv1d_dilated: need dilation >= 1 and stride >= 1, got 0 and 1"),
        (lambda: ad.conv1d_dilated(rand((1, 2, 9, 3)), rand((2, 2, 3)), -2),
         r"conv1d_dilated: need dilation >= 1 and stride >= 1, got -2 and 1"),
        (lambda: ad.conv1d_dilated(rand((1, 2, 9, 3)), rand((2, 2, 3)), 1, 0),
         r"conv1d_dilated: need dilation >= 1 and stride >= 1, got 1 and 0"),
        (lambda: ad.narrow(rand((3, 4)), 1, 2, -1),
         r"narrow: need length >= 1 and step >= 1, got -1 and 1"),
        (lambda: ad.narrow(rand((3, 4)), 1, 2, 0),
         r"narrow: need length >= 1 and step >= 1, got 0 and 1"),
        (lambda: ad.narrow(rand((3, 4)), 1, 0, 2, 0),
         r"narrow: need length >= 1 and step >= 1, got 2 and 0"),
        (lambda: ad.narrow(rand((3, 4)), 1, 1, 2, 3),
         r"narrow: slice \[1, 5\) out of range for axis 1"),
    ], ids=["dilation 0", "negative dilation", "stride 0", "negative length", "length 0",
            "step 0", "step past the end"])
    def test_bad_dilation_stride_length_or_step_is_named(self, call, message):
        with pytest.raises(ad.ShapeError, match=message):
            call()

    def test_shape_errors_unchanged(self):
        with pytest.raises(ad.ShapeError, match="conv1d_dilated: time axis 5"):
            ad.conv1d_dilated(rand((1, 2, 5, 3)), rand((2, 2, 4)), 2)
        with pytest.raises(ad.ShapeError, match="channel_map: incompatible"):
            ad.channel_map(rand((1, 2, 3, 5)), rand((2, 3)))
        with pytest.raises(ad.ShapeError, match="propagate: batch matrix"):
            ad.propagate(rand((2, 2, 5, 3)), rand((3, 3, 3)))


# primitive -> (call on the inputs, input shapes, indices of the inputs whose
# arrays its backward rule does not read). Fixed operands are constants that
# need no gradient, so the other operand's array is not read either.
FIXED = np.random.default_rng(11)
RETENTION_CASES = {
    "add": (ad.add, [(3, 4), (4,)], (0, 1)),
    "sub": (ad.sub, [(3, 4), (3, 4)], (0, 1)),
    "mul by a fixed operand": (lambda a: ad.mul(a, Tensor(FIXED.normal(size=(3, 4)))),
                               [(3, 4)], (0,)),
    "divide by a fixed operand": (lambda a: ad.divide(a, Tensor(FIXED.uniform(1, 2, (3, 4)))),
                                  [(3, 4)], (0,)),
    "scale": (lambda a: ad.scale(a, -2.0), [(3, 4)], (0,)),
    "matmul by a fixed operand": (lambda a: ad.matmul(a, Tensor(FIXED.normal(size=(4, 2)))),
                                  [(3, 4)], (0,)),
    "transpose": (ad.transpose, [(2, 3, 4)], (0,)),
    "relu": (ad.relu, [(3, 4)], (0,)),
    "tanh": (ad.tanh, [(3, 4)], (0,)),
    "sigmoid": (ad.sigmoid, [(3, 4)], (0,)),
    "absolute": (abs_by_sign, [(3, 4)], (0,)),
    "row_softmax": (ad.row_softmax, [(3, 4)], (0,)),
    # the gain's gradient reads the normalized input, the input's reads the gain
    "layer_norm": (ad.layer_norm, [(3, 4), (4,), (4,)], (0, 2)),
    "dropout": (lambda a: ad.dropout(a, 0.5, RngState(0)), [(3, 4)], (0,)),
    "concat": (lambda a, b: ad.concat([a, b], axis=1), [(3, 4), (3, 2)], (0, 1)),
    "reduce_sum": (lambda a: ad.reduce_sum(a, axis=0), [(3, 4)], (0,)),
    "mean_all": (ad.mean_all, [(3, 4)], (0,)),
    "reshape": (lambda a: ad.reshape(a, (4, 3)), [(3, 4)], (0,)),
    "narrow": (lambda a: ad.narrow(a, 1, 1, 2), [(3, 4)], (0,)),
    "narrow stepped": (lambda a: ad.narrow(a, 1, 0, 2, 3), [(3, 4)], (0,)),
    "conv1d_dilated with a fixed kernel": (
        lambda x: ad.conv1d_dilated(x, Tensor(FIXED.normal(size=(5, 3, 3))), 2),
        [(2, 3, 9, 4)], (0,)),
    "conv1d_dilated strided with a fixed kernel": (
        lambda x: ad.conv1d_dilated(x, Tensor(FIXED.normal(size=(5, 3, 3))), 2, 2),
        [(2, 3, 9, 4)], (0,)),
    "channel_map": (ad.channel_map, [(2, 3, 4, 5), (6, 3), (6,)], (2,)),
    "channel_map with a fixed weight": (
        lambda x: ad.channel_map(x, Tensor(FIXED.normal(size=(6, 3)))), [(2, 3, 4, 5)], (0,)),
    # with a trained weight, each part is read for the weight's gradient
    "channel_map_concat": (lambda a, b, w, c: ad.channel_map_concat([a, b], w, c),
                           [(2, 3, 4, 5), (2, 2, 4, 5), (6, 5), (6,)], (3,)),
    "channel_map_concat with a fixed weight": (
        lambda a, b: ad.channel_map_concat([a, b], Tensor(FIXED.normal(size=(6, 5)))),
        [(2, 3, 4, 5), (2, 2, 4, 5)], (0, 1)),
    "propagate with a fixed matrix": (
        lambda x: ad.propagate(x, Tensor(FIXED.uniform(size=(4, 4)))), [(2, 3, 5, 4)], (0,)),
}


class TestTapeRetention:
    @pytest.mark.parametrize("case", sorted(RETENTION_CASES))
    def test_unread_input_is_freed_before_backward(self, case):
        fn, shapes, unread = RETENTION_CASES[case]
        leaves = [rand_p(shape, seed=i) for i, shape in enumerate(shapes)]
        t = Tape()
        with t:
            # each input is a recorded intermediate that owns a fresh array
            inputs = [ad.scale(leaf, 1.0) for leaf in leaves]
            arrays = [weakref.ref(x.data) for x in inputs]
            out = fn(*inputs)
            loss = ad.reduce_sum(ad.mul(out, Tensor(np.random.default_rng(1).normal(size=out.shape))))
            del inputs, out
        for i in unread:
            assert arrays[i]() is None, f"{case}: input {i} is still alive"
        t.backward(loss)
        for leaf in leaves:
            assert leaf.grad.shape == leaf.shape and np.isfinite(leaf.grad).all()

    @pytest.mark.parametrize("per_sample", [False, True], ids=["shared", "per-sample"])
    def test_propagate_forms_no_node_row_copies(self, per_sample):
        # nodes are the last axis, so the rule reads x and g as rows where they
        # are: its backward allocates the two gradients and nothing of x's size
        # besides. Moving the node axis first took two more copies, 3|x| in all.
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(8, 16, 13, 50)), requires_grad=True)
        p = Tensor(rng.random((8, 50, 50) if per_sample else (50, 50)), requires_grad=True)
        g = rng.normal(size=x.shape)
        tape = Tape()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with tape:
                out = ad.propagate(x, p)
            del out  # the tape keeps no activation of its own
            [(_, _, backward)] = tape._nodes
            backward(g)
            grown = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert x.grad.shape == x.shape and p.grad.shape == p.shape
        assert grown <= 1.5 * x.data.nbytes + 2 * p.data.nbytes + 64 * 1024, grown

    def test_grad_is_shared_with_the_tape(self):
        # .grad reads the slot the tape fills, also for an intermediate
        x = rand_p((3,))
        t = Tape()
        with t:
            h = ad.scale(x, 2.0)
            loss = ad.reduce_sum(ad.mul(h, h))
        t.backward(loss)
        np.testing.assert_array_equal(h.grad, 2 * h.data)
        np.testing.assert_array_equal(x.grad, 4 * h.data)
        x.grad = None
        assert x.grad is None


class TestInPlaceAccumulation:
    """A backward pass adds into a gradient in place only where it allocated
    the buffer for that slot alone."""

    @staticmethod
    def backward(build, *leaves):
        tape = Tape()
        with tape:
            loss = build(*leaves)
        tape.backward(loss)

    @staticmethod
    def two_uses(x):
        # two contributions to x's slot in one pass
        return ad.reduce_sum(ad.add(ad.tanh(x), ad.mul(x, x)))

    def test_kept_grad_is_not_changed_by_a_later_backward(self):
        x = rand_p((3, 4))
        self.backward(self.two_uses, x)
        kept = x.grad
        first = kept.copy()
        # no zero_grad: the second pass accumulates onto the first
        self.backward(self.two_uses, x)
        np.testing.assert_array_equal(kept, first)
        np.testing.assert_allclose(x.grad, 2 * first, rtol=1e-12)

    def test_assigned_grad_is_not_mutated(self):
        x = rand_p((3, 4))
        self.backward(self.two_uses, x)
        once = x.grad.copy()
        start = np.full((3, 4), 0.5)
        x.grad = start
        self.backward(self.two_uses, x)
        np.testing.assert_array_equal(start, 0.5)
        np.testing.assert_allclose(x.grad, once + 0.5, rtol=1e-12)

    def test_add_shares_one_gradient_between_two_inputs(self):
        # add hands the same view of g to a and b; both get another
        # contribution after it, and the sum's own gradient stays as it was
        a, b = rand_p((3, 4), seed=1), rand_p((3, 4), seed=2)
        c1, c2, c3 = (np.random.default_rng(s).normal(size=(3, 4)) for s in (3, 4, 5))
        kept = {}

        def build(a, b):
            # recorded before the add, so their rules run after its rule
            ua = ad.mul(a, Tensor(c2))
            ub = ad.mul(ad.mul(b, Tensor(c3)), Tensor(2.0))
            s = ad.add(a, b)
            kept["s"] = s
            return ad.reduce_sum(ad.add(ad.add(ad.mul(s, Tensor(c1)), ua), ub))

        self.backward(build, a, b)
        # the copy-based sums each gradient is made of
        assert_close(kept["s"].grad, c1)
        assert_close(a.grad, c1 + c2)
        assert_close(b.grad, c1 + c3 * 2.0)

    @pytest.mark.parametrize("before", [None, "fresh", "view"])
    def test_narrow_pair_fills_one_buffer(self, before):
        # the gated layer's tanh / sigmoid split of one (B, 2C, T, N) map;
        # x may already hold a gradient of this pass, its own or a view
        x, other = rand_p((2, 6, 3, 4)), rand_p((2, 6, 3, 4), seed=1)
        c = np.random.default_rng(9).normal(size=x.shape)
        halves = {}

        def build(x, other):
            lo, hi = ad.narrow(x, 1, 0, 3), ad.narrow(x, 1, 3, 3)
            halves.update(lo=lo, hi=hi)
            loss = ad.reduce_sum(ad.mul(ad.tanh(lo), ad.sigmoid(hi)))
            # recorded after the narrows, so its rule runs before theirs
            if before == "fresh":
                loss = ad.add(loss, ad.reduce_sum(ad.mul(x, Tensor(c))))
            elif before == "view":  # x and other get one view of the same g
                loss = ad.add(loss, ad.reduce_sum(ad.add(x, other)))
            return loss

        self.backward(build, x, other)
        want = np.concatenate([halves["lo"].grad, halves["hi"].grad], axis=1)
        if before == "fresh":
            want = want + c
        elif before == "view":
            want = want + 1.0
        assert_close(x.grad, want)
        if before == "view":
            np.testing.assert_array_equal(other.grad, 1.0)
        assert not np.shares_memory(x.grad, halves["lo"].grad)
        assert not np.shares_memory(x.grad, halves["hi"].grad)

    def test_square_is_twice_x(self):
        x = rand_p((3, 4))
        self.backward(lambda z: ad.reduce_sum(ad.mul(z, z)), x)
        np.testing.assert_array_equal(x.grad, 2 * x.data)


def spy_rules(monkeypatch) -> list[int]:
    """Wrap the rule of every node recorded from here on; returns the list of
    ids of the outputs whose rule ran."""
    ran = []
    record = ad._record

    def spy(out, rule, *input_slots):
        key = id(out)

        def spied(g):
            ran.append(key)
            rule(g)

        record(out, spied, *input_slots)

    monkeypatch.setattr(ad, "_record", spy)
    return ran


class TestSkippedNodes:
    """A node whose output got no gradient runs no rule, and the inputs it
    would have fed end the pass with zeros."""

    def test_unread_output_runs_no_rule(self, monkeypatch):
        ran = spy_rules(monkeypatch)
        x = rand_p((3, 4))
        t = Tape()
        with t:
            dead = ad.tanh(x)
            live = ad.mul(x, x)
            loss = ad.reduce_sum(live)
        t.backward(loss)
        assert id(dead) not in ran
        assert id(live) in ran and id(loss) in ran
        assert dead.grad is None

    def test_inputs_of_a_skipped_node_get_zeros(self, monkeypatch):
        ran = spy_rules(monkeypatch)
        x, w = rand_p((3, 4)), rand_p((4, 2), seed=1)
        t = Tape()
        with t:
            h = ad.scale(w, 2.0)  # an intermediate the caller holds
            dead = ad.matmul(x, h)
            loss = ad.reduce_sum(ad.mul(x, x))
        t.backward(loss)
        # h's own node got no gradient either, so it ran no rule
        assert id(dead) not in ran and id(h) not in ran
        for tns in (w, h):
            assert tns.grad.shape == tns.shape and tns.grad.dtype == np.float64
            np.testing.assert_array_equal(tns.grad, np.zeros(tns.shape))
        np.testing.assert_array_equal(x.grad, 2 * x.data)

    @pytest.mark.parametrize("other", ["finite", "nan"])
    def test_leaf_on_a_dead_and_a_live_path_gets_the_live_gradient(self, other):
        # the dead path is recorded before and after the live one; a NaN operand
        # of a skipped rule reaches no gradient, where 0 * NaN would have
        c = np.random.default_rng(4).normal(size=(3, 4))
        if other == "nan":
            c[:] = np.nan

        def grad(with_dead):
            x = rand_p((3, 4))
            t = Tape()
            with t:
                if with_dead:
                    ad.mul(ad.tanh(x), Tensor(c))
                live = ad.sigmoid(x)
                if with_dead:
                    ad.add(ad.mul(x, Tensor(c)), live)
                loss = ad.reduce_sum(ad.mul(live, live))
            t.backward(loss)
            return x.grad

        want = grad(False)
        assert np.isfinite(want).all()
        np.testing.assert_array_equal(grad(True), want)

    def test_leaf_reached_through_no_node_keeps_no_grad(self):
        x, unused, untaped = rand_p((3,)), rand_p((2,), seed=1), rand_p((2,), seed=2)
        ad.tanh(untaped)  # no tape is active: nothing is recorded
        t = Tape()
        with t:
            loss = ad.reduce_sum(ad.mul(x, x))
        t.backward(loss)
        assert unused.grad is None and untaped.grad is None
