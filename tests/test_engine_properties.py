"""Property tests of the engine primitives over random shapes.

Each property is checked against an independent reference: a loop over
output positions for conv2d and nearest upsampling, an `np.pad` column
builder for `_im2col`, `x.mean` / `x.var` for training-mode batchnorm, a
loop over channels for the batchnorm backward, and one `_bn_forward` per
probe for a grouped probe stack.  Example generation is derandomized, so
every run checks the same cases.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cbnet import (
    BatchNormParams,
    ConvParams,
    Tensor4,
    batchnorm,
    batchnorm_backward,
    conv2d,
    conv2d_backward,
    upsample_nearest,
    upsample_nearest_backward,
)
from cbnet.engine import BN_MOMENTUM, _bn_forward, _im2col

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def conv_cases(draw):
    """(x, params) with n in 1..4, h, w in 2..9, k in {1, 3}, stride in
    {1, 2} and pad in {0, 1}, the window fitting the padded input."""
    n = draw(st.integers(1, 4))
    c_in, c_out = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    h, w = draw(st.integers(2, 9)), draw(st.integers(2, 9))
    k = draw(st.sampled_from([1, 3]))
    stride, pad = draw(st.sampled_from([1, 2])), draw(st.sampled_from([0, 1]))
    assume(h + 2 * pad >= k and w + 2 * pad >= k)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.standard_normal((n, c_in, h, w))
    p = ConvParams(rng.standard_normal((c_out, c_in, k, k)), rng.standard_normal(c_out),
                   stride=stride, pad=pad)
    return x, p


def _padded(x, pad):
    return np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))


def _windows(x, p):
    """(i, j, rows, cols) of every output position, row-major."""
    k, s = p.kernel, p.stride
    oh = (x.shape[2] + 2 * p.pad - k) // s + 1
    ow = (x.shape[3] + 2 * p.pad - k) // s + 1
    return [(i, j, slice(i * s, i * s + k), slice(j * s, j * s + k))
            for i in range(oh) for j in range(ow)]


def conv_oracle(x, p):
    """Forward output, an output gradient g, and the (input, weight, bias)
    gradients for g, computed one output position at a time."""
    w, xp = p.weight.data, _padded(x, p.pad)
    windows = _windows(x, p)
    oh, ow = windows[-1][0] + 1, windows[-1][1] + 1
    y = np.zeros((x.shape[0], p.c_out, oh, ow))
    for i, j, rows, cols in windows:
        y[:, :, i, j] = np.tensordot(xp[:, :, rows, cols], w, axes=([1, 2, 3], [1, 2, 3]))
    y += p.bias[None, :, None, None]
    g = np.cos(np.arange(y.size, dtype=np.float64)).reshape(y.shape)
    gxp, gw = np.zeros_like(xp), np.zeros_like(w)
    for i, j, rows, cols in windows:
        gxp[:, :, rows, cols] += np.tensordot(g[:, :, i, j], w, axes=([1], [0]))
        gw += np.tensordot(g[:, :, i, j], xp[:, :, rows, cols], axes=([0], [0]))
    h, wd = x.shape[2:]
    gx = gxp[:, :, p.pad:p.pad + h, p.pad:p.pad + wd]
    return y, g, (gx, gw, g.sum(axis=(0, 2, 3)))


@PROPERTY
@given(conv_cases())
def test_conv2d_matches_loop_oracle(case):
    x, p = case
    want_y, g, want_grads = conv_oracle(x, p)
    y = conv2d(Tensor4(x), p).data
    np.testing.assert_allclose(y, want_y, rtol=0, atol=1e-12)
    for got, want in zip(conv2d_backward(Tensor4(x), p, g), want_grads):
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@PROPERTY
@given(conv_cases())
def test_im2col_equals_np_pad_reference(case):
    x, p = case
    k, s, pad = p.kernel, p.stride, p.pad
    xp = _padded(x, pad)
    windows = _windows(x, p)
    oh, ow = windows[-1][0] + 1, windows[-1][1] + 1
    want = np.empty((x.shape[0], x.shape[1], k, k, oh, ow))
    for i in range(k):
        for j in range(k):
            want[:, :, i, j] = xp[:, :, i:i + s * oh:s, j:j + s * ow:s]
    cols, got_oh, got_ow = _im2col(x, k, s, pad)
    assert (got_oh, got_ow) == (oh, ow)
    assert np.array_equal(cols, want.reshape(x.shape[0], -1, oh * ow))


@PROPERTY
@given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 9), st.integers(1, 9),
       st.integers(0, 2 ** 32 - 1))
def test_training_batchnorm_equals_mean_var_reference(n, c, h, w, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, c, h, w)) * rng.uniform(0.1, 10.0) + rng.uniform(-5.0, 5.0)
    gamma, beta = rng.uniform(0.5, 1.5, c), rng.standard_normal(c)
    mean0, var0 = rng.standard_normal(c), rng.uniform(0.5, 2.0, c)
    p = BatchNormParams(gamma, beta, mean0.copy(), var0.copy(), mode="training")
    y = batchnorm(Tensor4(x), p).data

    mu, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
    istd = 1.0 / np.sqrt(var + p.epsilon)
    xhat = (x - mu[None, :, None, None]) * istd[None, :, None, None]
    want = gamma[None, :, None, None] * xhat + beta[None, :, None, None]
    assert np.array_equal(y, want)
    want_mean = mean0 * BN_MOMENTUM
    want_mean += (1.0 - BN_MOMENTUM) * mu
    want_var = var0 * BN_MOMENTUM
    want_var += (1.0 - BN_MOMENTUM) * var
    assert np.array_equal(p.running_mean, want_mean)
    assert np.array_equal(p.running_var, want_var)


def _bn_case(rng, n, c, h, w, mode):
    x = rng.standard_normal((n, c, h, w)) * rng.uniform(0.1, 10.0) + rng.uniform(-5.0, 5.0)
    p = BatchNormParams(rng.uniform(0.5, 1.5, c), rng.standard_normal(c),
                        rng.standard_normal(c), rng.uniform(0.5, 2.0, c), mode=mode)
    return x, p


@PROPERTY
@given(st.integers(1, 5), st.integers(1, 3), st.integers(1, 3), st.integers(1, 5),
       st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
def test_grouped_training_batchnorm_equals_one_call_per_group(groups, n, c, h, w, seed):
    rng = np.random.default_rng(seed)
    x, p = _bn_case(rng, groups * n, c, h, w, "training")
    mean0, var0 = p.running_mean.copy(), p.running_var.copy()
    y, (mu, istd, xhat) = _bn_forward(x, p, group=n)
    assert np.array_equal(p.running_mean, mean0) and np.array_equal(p.running_var, var0)
    for g in range(groups):
        rows = slice(g * n, (g + 1) * n)
        want_y, (want_mu, want_istd, want_xhat) = _bn_forward(x[rows], p)
        assert np.array_equal(y[rows], want_y)
        assert np.array_equal(xhat[rows], want_xhat)
        # a plain batch is one run: its statistics have a single row
        assert np.array_equal(mu[g], want_mu[0]) and np.array_equal(istd[g], want_istd[0])


@PROPERTY
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 4), st.integers(1, 4),
       st.integers(1, 3), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_upsample_matches_loop_oracle(n, c, h, w, fh, fw, seed):
    rng = np.random.default_rng(seed)
    x = Tensor4(rng.standard_normal((n, c, h, w)))
    g = rng.standard_normal((n, c, h * fh, w * fw))
    want_y, want_gx = np.empty_like(g), np.zeros_like(x.data)
    for i in range(h * fh):
        for j in range(w * fw):
            want_y[:, :, i, j] = x.data[:, :, i // fh, j // fw]
            want_gx[:, :, i // fh, j // fw] += g[:, :, i, j]
    assert np.array_equal(upsample_nearest(x, (h * fh, w * fw)).data, want_y)
    gx = upsample_nearest_backward(x, g)
    assert gx.shape == x.dims
    np.testing.assert_allclose(gx, want_gx, rtol=0, atol=1e-12)


def bn_backward_oracle(x, p, g):
    """(input, gamma, beta) gradients of batchnorm, one channel at a time,
    from the textbook closed form of the normalization's derivative."""
    gx = np.empty_like(x)
    gg, gb = np.empty(p.channels), np.empty(p.channels)
    for ch in range(p.channels):
        xs, gs = x[:, ch], g[:, ch]
        if p.mode == "training":
            m = xs.size
            mu, var = xs.mean(), xs.var()
        else:
            mu, var = p.running_mean[ch], p.running_var[ch]
        istd = 1.0 / np.sqrt(var + p.epsilon)
        xhat = (xs - mu) * istd
        gxhat = gs * p.gamma[ch]
        if p.mode == "training":
            gx[:, ch] = istd / m * (m * gxhat - gxhat.sum() - xhat * (gxhat * xhat).sum())
        else:
            gx[:, ch] = gxhat * istd
        gg[ch], gb[ch] = (gs * xhat).sum(), gs.sum()
    return gx, gg, gb


@PROPERTY
@given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 5), st.integers(1, 5),
       st.sampled_from(["training", "inference"]), st.integers(0, 2 ** 32 - 1))
def test_batchnorm_backward_matches_loop_oracle(n, c, h, w, mode, seed):
    rng = np.random.default_rng(seed)
    x, p = _bn_case(rng, n, c, h, w, mode)
    g = rng.standard_normal(x.shape)
    for got, want in zip(batchnorm_backward(Tensor4(x), p, g), bn_backward_oracle(x, p, g)):
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)
