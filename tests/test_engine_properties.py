"""Property tests of the engine primitives over random shapes.

Each property is checked against an independent reference: a loop over
output positions for conv2d and nearest upsampling, `helpers.im2col_oracle`
(one slice copy per window offset) for `_im2col`, `helpers.col2im_oracle`
(a padded buffer, cropped) for the conv input gradient, `x.mean` / `x.var`
for training-mode batchnorm, `(x - mean) / std * gamma + beta` for
inference-mode batchnorm, a loop over channels and
`helpers.bn_training_backward_oracle` (one fresh array per term) for the
batchnorm backward, one `_bn_forward` per probe for a grouped probe stack,
and copies taken before the call for what batchnorm must never write.
Example generation is derandomized, so every run checks the same cases.
"""

import numpy as np
import pytest
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
from cbnet.engine import BN_EPS, BN_MOMENTUM, BatchNormLayer, _bn_backward, _bn_forward, _im2col
from helpers import bn_training_backward_oracle, col2im_oracle, im2col_oracle

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


@st.composite
def im2col_cases(draw):
    """(x, k, stride, pad) with n in {1, 2, 3, 64}, c in 1..4, k in {1, 3},
    h, w in k..9, stride in {1, 2} and pad in {0, 1}; odd sizes leave
    trailing rows and columns that no window reaches."""
    k = draw(st.sampled_from([1, 3]))
    n, c = draw(st.sampled_from([1, 2, 3, 64])), draw(st.integers(1, 4))
    h, w = draw(st.integers(k, 9)), draw(st.integers(k, 9))
    stride, pad = draw(st.sampled_from([1, 2])), draw(st.sampled_from([0, 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return rng.standard_normal((n, c, h, w)), k, stride, pad


@PROPERTY
@given(im2col_cases())
def test_im2col_equals_np_pad_reference(case):
    x, k, stride, pad = case
    want, want_hw = im2col_oracle(x, k, stride, pad)
    cols, *hw = _im2col(x, k, stride, pad)
    assert tuple(hw) == want_hw
    assert np.array_equal(cols, want)


@pytest.mark.parametrize("k, stride", [(1, 1), (3, 1), (3, 2)])
def test_im2col_whole_window_equals_oracle(k, stride):
    # one window covers the unpadded map: a single output position
    x = np.random.default_rng(k + stride).standard_normal((3, 2, k, k))
    cols, oh, ow = _im2col(x, k, stride, 0)
    assert (oh, ow) == (1, 1)
    assert np.array_equal(cols, im2col_oracle(x, k, stride, 0)[0])


def test_im2col_1x1_columns_alias_the_input():
    x = np.random.default_rng(1).standard_normal((2, 3, 5, 4))
    cols, oh, ow = _im2col(x, 1, 1, 0)
    assert (oh, ow) == (5, 4) and np.shares_memory(cols, x)
    assert np.array_equal(cols, im2col_oracle(x, 1, 1, 0)[0])


@pytest.mark.parametrize("view", [lambda a: a[:, :, ::2], lambda a: a.transpose(0, 1, 3, 2)],
                         ids=["row-strided", "transposed"])
def test_im2col_rejects_a_non_contiguous_input(view):
    x = view(np.random.default_rng(2).standard_normal((2, 3, 9, 7)))
    assert not x.flags.c_contiguous
    with pytest.raises(ValueError):
        _im2col(x, 3, 1, 0)
    # padding copies x into a fresh array first, so any layout gives its columns
    assert np.array_equal(_im2col(x, 3, 2, 1)[0], im2col_oracle(x, 3, 2, 1)[0])


@st.composite
def col2im_cases(draw):
    """(x, params, output gradient) with n in {1, 2, 3, 64}, c in 1..4,
    k in {1, 3}, stride in {1, 2}, pad in {0, 1} and h, w from 1 (where the
    window fits the padded map) to 9: odd sizes leave rows and columns
    that no window reaches, and a padded 3x3 window over a 1- or 2-pixel
    side has whole tap rows or columns in the padding."""
    k = draw(st.sampled_from([1, 3]))
    n, c = draw(st.sampled_from([1, 2, 3, 64])), draw(st.integers(1, 4))
    stride, pad = draw(st.sampled_from([1, 2])), draw(st.sampled_from([0, 1]))
    h, w = draw(st.integers(max(1, k - 2 * pad), 9)), draw(st.integers(max(1, k - 2 * pad), 9))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return _col2im_case(rng, n, c, h, w, k, stride, pad)


def _col2im_case(rng, n, c, h, w, k, stride, pad):
    c_out = int(rng.integers(1, 4))
    p = ConvParams(rng.standard_normal((c_out, c, k, k)), rng.standard_normal(c_out),
                   stride=stride, pad=pad)
    oh, ow = (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1
    return rng.standard_normal((n, c, h, w)), p, rng.standard_normal((n, c_out, oh, ow))


def _check_col2im(x, p, g):
    n, c, h, w = x.shape
    k, (oh, ow) = p.kernel, g.shape[2:]
    gcols = np.matmul(p.weight.data.reshape(p.c_out, -1).T, g.reshape(n, p.c_out, oh * ow))
    want = col2im_oracle(gcols.reshape(n, c, k, k, oh, ow), x.shape, p.stride, p.pad)
    grad_in = conv2d_backward(Tensor4(x), p, g)[0]
    assert grad_in.shape == x.shape and grad_in.flags.c_contiguous
    assert np.array_equal(grad_in, want)
    assert grad_in.tobytes() == want.tobytes()  # signed zeros too


@PROPERTY
@given(col2im_cases())
def test_conv_input_gradient_equals_padded_col2im_oracle(case):
    _check_col2im(*case)


@pytest.mark.parametrize("h, w, stride", [(1, 1, 1), (1, 1, 2), (1, 4, 1), (2, 2, 2),
                                          (2, 5, 2), (4, 3, 2)])
def test_conv_input_gradient_where_whole_taps_fall_in_the_padding(h, w, stride):
    # a 3x3 window at pad 1: on a 1-pixel side taps 0 and 2 read only padding,
    # at stride 2 on a 2-pixel side tap 2 does, and a 4-pixel side at stride
    # 2 ends in a row that tap 2 reaches and no other
    rng = np.random.default_rng(h * 10 + w + stride)
    _check_col2im(*_col2im_case(rng, 3, 2, h, w, 3, stride, 1))


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
    istd = 1.0 / np.sqrt(var + BN_EPS)
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
       st.integers(1, 5), st.sampled_from(["training", "inference"]),
       st.integers(0, 2 ** 32 - 1))
def test_grouped_batchnorm_in_either_mode_equals_one_training_call_per_group(
        groups, n, c, h, w, mode, seed):
    rng = np.random.default_rng(seed)
    x, p = _bn_case(rng, groups * n, c, h, w, mode)
    mean0, var0 = p.running_mean.copy(), p.running_var.copy()
    y, (mu, istd, xhat) = _bn_forward(x, p, group=n)
    assert np.array_equal(p.running_mean, mean0) and np.array_equal(p.running_var, var0)
    p.mode = "training"
    for g in range(groups):
        rows = slice(g * n, (g + 1) * n)
        want_y, (want_mu, want_istd, want_xhat) = _bn_forward(x[rows], p)
        assert np.array_equal(y[rows], want_y)
        assert np.array_equal(xhat[rows], want_xhat)
        # a plain batch is one run: its statistics have a single row
        assert np.array_equal(mu[g], want_mu[0]) and np.array_equal(istd[g], want_istd[0])


@PROPERTY
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(1, 4),
       st.integers(1, 4), st.sampled_from(["training", "inference"]), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_batchnorm_writes_neither_its_input_nor_its_recorded_xhat(groups, n, c, h, w, mode,
                                                                   stacked, seed):
    # guards the in-place steps: xhat is the centred input scaled in place, and
    # the output starts as xhat * gamma, then takes beta in place
    rng = np.random.default_rng(seed)
    x, p = _bn_case(rng, groups * n, c, h, w, mode)
    group = n if stacked else None
    x0 = x.copy()
    _bn_forward(x, p, group)
    assert np.array_equal(x, x0)

    inp = Tensor4(x)
    inp.group = group
    layer = BatchNormLayer(p)
    y, ctx = layer.forward(inp)
    assert np.array_equal(inp.data, x0)
    normalized = mode == "training" or stacked  # a grouped input is normalized in either mode
    xhat = ctx[1][2] if normalized else inp.data
    recorded = xhat.copy()
    if not normalized:  # no normalized copy is recorded, only x and the statistics
        assert ctx[0] is inp and ctx[1][2] is None
    else:  # only a normalized forward is rerun: arr itself, then a copied stack of it
        for _, arr, _ in p.learnables():
            for variants in (arr[None], np.repeat(arr[None], 2, axis=0)):
                assert all(np.array_equal(row, y.data)
                           for row in layer.rerun(ctx, arr, variants))
    if not stacked:  # a probe stack is only ever rerun
        layer.backward(ctx, rng.standard_normal(x.shape))
    assert np.array_equal(xhat, recorded)
    assert np.array_equal(inp.data, x0)


@PROPERTY
@given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 5), st.integers(1, 5),
       st.integers(0, 2 ** 32 - 1))
def test_inference_batchnorm_is_one_scale_and_shift(n, c, h, w, seed):
    rng = np.random.default_rng(seed)
    x, p = _bn_case(rng, n, c, h, w, "inference")
    y, _ = BatchNormLayer(p).forward(Tensor4(x))
    istd = 1.0 / np.sqrt(p.running_var + BN_EPS)
    s = p.gamma * istd
    t = p.beta - p.running_mean * s
    assert np.array_equal(y.data, x * s[None, :, None, None] + t[None, :, None, None])
    # the normalize-then-affine form, up to rounding of the largest term
    want = ((x - p.running_mean[None, :, None, None]) * istd[None, :, None, None]
            * p.gamma[None, :, None, None] + p.beta[None, :, None, None])
    big = np.abs(x).max() * np.abs(s).max() + np.abs(t).max()
    np.testing.assert_allclose(y.data, want, rtol=1e-14, atol=1e-14 * big)


@PROPERTY
@given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 5), st.integers(1, 5),
       st.integers(0, 2 ** 32 - 1))
def test_inference_batchnorm_at_init_values_is_the_normalize_then_affine_form(n, c, h, w, seed):
    # gamma 1, beta 0, mean 0, var 1, as every net is built: no rounding moves
    x = np.random.default_rng(seed).standard_normal((n, c, h, w))
    x.flat[0] = -0.0
    p = BatchNormParams(np.ones(c), np.zeros(c), np.zeros(c), np.ones(c))
    istd = (1.0 / np.sqrt(p.running_var + BN_EPS))[None, :, None, None]
    want = ((x - p.running_mean[None, :, None, None]) * istd * p.gamma[None, :, None, None]
            + p.beta[None, :, None, None])
    assert batchnorm(Tensor4(x), p).data.tobytes() == want.tobytes()


def _check_bn_training_backward(x, p, rng):
    layer = BatchNormLayer(p)
    inp = Tensor4(x)
    _, ctx = layer.forward(inp)
    g = rng.standard_normal(x.shape)
    saved = [a.copy() for a in (x, g, ctx[1][2])]
    want = bn_training_backward_oracle(x, p, g, ctx[1])
    for got in (_bn_backward(x, p, g, ctx[1]), batchnorm_backward(inp, p, g)):
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
    # AddLayer hands one gradient array to both its inputs: no backward writes it
    layer.backward(ctx, g)
    for a, before in zip((x, g, ctx[1][2]), saved):
        assert np.array_equal(a, before)


@PROPERTY
@given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 5), st.integers(1, 5),
       st.integers(0, 2 ** 32 - 1))
def test_training_batchnorm_backward_equals_term_by_term_oracle(n, c, h, w, seed):
    rng = np.random.default_rng(seed)
    x, p = _bn_case(rng, n, c, h, w, "training")
    _check_bn_training_backward(x, p, rng)


@pytest.mark.parametrize("c, hw", [(8, 32), (16, 16), (32, 8), (64, 4), (128, 2)])
def test_training_batchnorm_backward_on_train_step_shapes(c, hw):
    # the batch-4 batchnorm inputs of the default spec's five stages
    rng = np.random.default_rng(c)
    x, p = _bn_case(rng, 4, c, hw, hw, "training")
    _check_bn_training_backward(x, p, rng)


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
        istd = 1.0 / np.sqrt(var + BN_EPS)
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
