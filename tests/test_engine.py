import numpy as np
import pytest

from cbnet import (
    BatchNormParams,
    ConfigError,
    ConvParams,
    ShapeError,
    Tensor4,
    add,
    batchnorm,
    batchnorm_backward,
    conv2d,
    conv2d_backward,
    global_avg_pool,
    global_avg_pool_backward,
    gradcheck,
    maxpool2,
    maxpool2_backward,
    relu,
    relu_backward,
    upsample_nearest,
    upsample_nearest_backward,
)
from cbnet.engine import BN_MOMENTUM


def t4(values):
    return Tensor4(np.asarray(values, dtype=np.float64))


# -- conv ------------------------------------------------------------------


def test_conv_1x1_scaling():
    x = t4([[[[1.0, 2.0], [3.0, 4.0]]]])
    p = ConvParams(np.full((1, 1, 1, 1), 2.0), [0.0])
    y = conv2d(x, p)
    assert np.array_equal(y.data, [[[[2.0, 4.0], [6.0, 8.0]]]])


def test_conv_3x3_summation():
    x = Tensor4(np.ones((1, 1, 3, 3)))
    p = ConvParams(np.ones((1, 1, 3, 3)), [0.0])
    y = conv2d(x, p)
    assert y.dims == (1, 1, 1, 1)
    assert y.data[0, 0, 0, 0] == 9.0


def test_conv_identity_kernel():
    rng = np.random.default_rng(0)
    x = Tensor4(rng.standard_normal((2, 1, 5, 5)))
    p = ConvParams(np.ones((1, 1, 1, 1)), [0.0])
    assert np.array_equal(conv2d(x, p).data, x.data)


def test_conv_channel_mismatch_names_both_shapes():
    x = Tensor4(np.zeros((1, 2, 4, 4)))
    p = ConvParams(np.zeros((3, 4, 1, 1)), np.zeros(3))
    with pytest.raises(ShapeError) as err:
        conv2d(x, p)
    assert "(1, 2, 4, 4)" in str(err.value) and "(3, 4, 1, 1)" in str(err.value)


def test_conv_kernel_must_fit():
    x = Tensor4(np.zeros((1, 1, 2, 2)))
    p = ConvParams(np.zeros((1, 1, 3, 3)), [0.0])
    with pytest.raises(ShapeError):
        conv2d(x, p)


@pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1)])
def test_conv_gradients_match_finite_differences(stride, pad):
    rng = np.random.default_rng(42)
    x = Tensor4(rng.standard_normal((2, 3, 8, 8)))
    p = ConvParams(rng.standard_normal((4, 3, 3, 3)) * 0.3,
                   rng.standard_normal(4) * 0.1, stride=stride, pad=pad)
    probe = rng.standard_normal(conv2d(x, p).dims)

    def loss_fn():
        return float((conv2d(x, p).data * probe).sum())

    gx, gw, gb = conv2d_backward(x, p, probe)
    err = gradcheck(loss_fn, [(x.data, gx), (p.weight.data, gw), (p.bias, gb)])
    assert err < 1e-4


def test_conv_rejects_bad_kernel_size():
    with pytest.raises(ConfigError):
        ConvParams(np.zeros((1, 1, 2, 2)), [0.0])


# -- batchnorm ---------------------------------------------------------------


def _bn(c, **kw):
    return BatchNormParams(np.ones(c), np.zeros(c), np.zeros(c), np.ones(c), **kw)


def test_bn_inference_identity():
    # identity up to the fixed epsilon: x / sqrt(1 + 1e-5)
    rng = np.random.default_rng(1)
    x = Tensor4(rng.standard_normal((2, 3, 4, 4)))
    assert np.allclose(batchnorm(x, _bn(3)).data, x.data, rtol=1e-5, atol=0.0)


def test_bn_inference_constant_input_gives_beta():
    means = np.array([1.5, -2.0])
    p = BatchNormParams(np.ones(2), [0.25, -0.75], means, np.ones(2))
    x = Tensor4(np.broadcast_to(means[None, :, None, None], (1, 2, 3, 3)).copy())
    y = batchnorm(x, p)
    assert np.allclose(y.data[:, 0], 0.25) and np.allclose(y.data[:, 1], -0.75)


def test_bn_training_normalizes_batch():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((4, 2, 4, 4)) * 2.0
    p = _bn(2, mode="training")
    y = batchnorm(Tensor4(x), p)
    # gamma=1, beta=0 so the output is the pre-affine normalized activation
    mean = y.data.mean(axis=(0, 2, 3))
    var = y.data.var(axis=(0, 2, 3))
    assert np.all(np.abs(mean) < 1e-6)
    assert np.all(np.abs(var - 1.0) < 1e-5)


def test_bn_training_updates_running_stats():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((4, 2, 4, 4)) + 3.0
    p = _bn(2, mode="training")
    batchnorm(Tensor4(x), p)
    want_mean = BN_MOMENTUM * 0.0 + (1 - BN_MOMENTUM) * x.mean(axis=(0, 2, 3))
    want_var = BN_MOMENTUM * 1.0 + (1 - BN_MOMENTUM) * x.var(axis=(0, 2, 3))
    assert np.allclose(p.running_mean, want_mean)
    assert np.allclose(p.running_var, want_var)


@pytest.mark.parametrize("mode", ["training", "inference"])
def test_bn_gradients_match_finite_differences(mode):
    rng = np.random.default_rng(9)
    x = Tensor4(rng.standard_normal((4, 3, 4, 4)) * 2.0)
    p = BatchNormParams(rng.uniform(0.5, 1.5, 3), rng.standard_normal(3) * 0.2,
                        rng.standard_normal(3) * 0.3, rng.uniform(0.5, 2.0, 3),
                        mode=mode)
    probe = rng.standard_normal(x.dims)

    def loss_fn():
        return float((batchnorm(x, p).data * probe).sum())

    gx, gg, gb = batchnorm_backward(x, p, probe)
    err = gradcheck(loss_fn, [(x.data, gx), (p.gamma, gg), (p.beta, gb)])
    assert err < 1e-4


def test_bn_rejects_negative_running_var():
    with pytest.raises(ConfigError):
        BatchNormParams(np.ones(2), np.zeros(2), np.zeros(2), [-0.1, 1.0])


def test_bn_rejects_channel_mismatch():
    x = Tensor4(np.zeros((1, 3, 2, 2)))
    with pytest.raises(ShapeError):
        batchnorm(x, _bn(2))


# -- relu / add / maxpool / upsample -------------------------------------------


def test_relu_clamps_negatives():
    y = relu(t4([[[[-1.0, 0.0, 2.0, 5.0]]]]))
    assert np.array_equal(y.data, [[[[0.0, 0.0, 2.0, 5.0]]]])


def test_add_zero_is_identity():
    rng = np.random.default_rng(2)
    x = Tensor4(rng.standard_normal((2, 3, 4, 4)))
    assert np.array_equal(add(x, Tensor4(np.zeros(x.dims))).data, x.data)


def test_add_commutes_bit_exactly():
    rng = np.random.default_rng(3)
    a = Tensor4(rng.standard_normal((2, 3, 4, 4)))
    b = Tensor4(rng.standard_normal((2, 3, 4, 4)))
    assert np.array_equal(add(a, b).data, add(b, a).data)


def test_add_left_fold_is_reproducible():
    rng = np.random.default_rng(4)
    terms = [Tensor4(rng.standard_normal((1, 2, 3, 3))) for _ in range(5)]

    def fold():
        acc = terms[0]
        for t in terms[1:]:
            acc = add(acc, t)
        return acc.data

    assert np.array_equal(fold(), fold())


def test_add_shape_mismatch():
    with pytest.raises(ShapeError):
        add(Tensor4(np.zeros((1, 1, 2, 2))), Tensor4(np.zeros((1, 1, 4, 4))))


def test_maxpool_window_and_backward_routing():
    x = t4([[[[1.0, 2.0], [3.0, 4.0]]]])
    y = maxpool2(x)
    assert np.array_equal(y.data, [[[[4.0]]]])
    gx = maxpool2_backward(x, np.ones((1, 1, 1, 1)))
    assert np.array_equal(gx, [[[[0.0, 0.0], [0.0, 1.0]]]])


def test_maxpool_tie_goes_to_first_row_major():
    x = Tensor4(np.zeros((1, 1, 2, 2)) + 7.0)
    gx = maxpool2_backward(x, np.full((1, 1, 1, 1), 5.0))
    assert np.array_equal(gx, [[[[5.0, 0.0], [0.0, 0.0]]]])


def test_maxpool_needs_even_dims():
    with pytest.raises(ShapeError):
        maxpool2(Tensor4(np.zeros((1, 1, 3, 4))))


def test_maxpool_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    x = Tensor4(rng.standard_normal((2, 3, 4, 4)))
    probe = rng.standard_normal((2, 3, 2, 2))

    def loss_fn():
        return float((maxpool2(x).data * probe).sum())

    err = gradcheck(loss_fn, [(x.data, maxpool2_backward(x, probe))])
    assert err < 1e-4


def test_upsample_factor_one_is_identity():
    rng = np.random.default_rng(12)
    x = Tensor4(rng.standard_normal((1, 2, 3, 3)))
    assert np.array_equal(upsample_nearest(x, (3, 3)).data, x.data)


def test_upsample_replicates_nearest():
    x = t4([[[[1.0, 2.0], [3.0, 4.0]]]])
    y = upsample_nearest(x, (4, 4))
    want = [[[[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]]]]
    assert np.array_equal(y.data, np.asarray(want, dtype=np.float64))


def test_upsample_backward_counts_replicas():
    x = Tensor4(np.zeros((1, 1, 2, 2)))
    gx = upsample_nearest_backward(x, np.ones((1, 1, 4, 4)))
    assert np.array_equal(gx, np.full((1, 1, 2, 2), 4.0))


def test_upsample_compose_two_twos_equals_four():
    rng = np.random.default_rng(13)
    x = Tensor4(rng.standard_normal((1, 2, 2, 2)))
    twice = upsample_nearest(upsample_nearest(x, (4, 4)), (8, 8))
    assert np.array_equal(twice.data, upsample_nearest(x, (8, 8)).data)


def test_upsample_rejects_non_integer_factor():
    x = Tensor4(np.zeros((1, 1, 2, 2)))
    with pytest.raises(ShapeError):
        upsample_nearest(x, (3, 3))
    with pytest.raises(ShapeError):
        upsample_nearest(x, (1, 1))


def test_upsample_gradients_match_finite_differences():
    rng = np.random.default_rng(14)
    x = Tensor4(rng.standard_normal((2, 3, 4, 4)))
    probe = rng.standard_normal((2, 3, 8, 8))

    def loss_fn():
        return float((upsample_nearest(x, (8, 8)).data * probe).sum())

    err = gradcheck(loss_fn, [(x.data, upsample_nearest_backward(x, probe))])
    assert err < 1e-4


def test_relu_gradients_match_finite_differences():
    rng = np.random.default_rng(15)
    x = Tensor4(rng.standard_normal((2, 3, 4, 4)))
    probe = rng.standard_normal(x.dims)

    def loss_fn():
        return float((relu(x).data * probe).sum())

    assert gradcheck(loss_fn, [(x.data, relu_backward(x, probe))]) < 1e-4


def test_gap_gradients_match_finite_differences():
    rng = np.random.default_rng(16)
    x = Tensor4(rng.standard_normal((2, 3, 4, 4)))
    probe = rng.standard_normal((2, 3, 1, 1))

    def loss_fn():
        return float((global_avg_pool(x).data * probe).sum())

    assert gradcheck(loss_fn, [(x.data, global_avg_pool_backward(x, probe))]) < 1e-4


# -- gradcheck itself ------------------------------------------------------------


def test_gradcheck_single_conv_is_tight():
    rng = np.random.default_rng(17)
    x = Tensor4(rng.standard_normal((2, 3, 8, 8)))
    p = ConvParams(rng.standard_normal((2, 3, 1, 1)), rng.standard_normal(2))
    probe = rng.standard_normal((2, 2, 8, 8))

    def loss_fn():
        return float((conv2d(x, p).data * probe).sum())

    gx, gw, gb = conv2d_backward(x, p, probe)
    err = gradcheck(loss_fn, [(x.data, gx), (p.weight.data, gw), (p.bias, gb)])
    assert err < 1e-6


def test_gradcheck_zero_checks_is_zero():
    assert gradcheck(lambda: 1.0, []) == 0.0


def test_gradcheck_reports_non_finite_loss_as_failure():
    arr = np.array([1.0])

    def loss_fn():
        return float("nan")

    assert gradcheck(loss_fn, [(arr, np.zeros(1))]) == float("inf")


def test_gradcheck_restores_the_probed_element_when_loss_fn_raises():
    arr = np.arange(4.0)
    calls = []

    def loss_fn():
        calls.append(arr.copy())
        if len(calls) == 3:  # the +step probe of element 1
            raise RuntimeError("loss failed")
        return float(arr.sum())

    with pytest.raises(RuntimeError, match="loss failed"):
        gradcheck(loss_fn, [(arr, np.ones(4))])
    assert calls[2][1] != 1.0
    assert np.array_equal(arr, np.arange(4.0))


def test_tensor4_requires_four_dims():
    with pytest.raises(ShapeError):
        Tensor4(np.zeros((2, 3)))
