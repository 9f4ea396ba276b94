import ctypes
import os
import subprocess
import sys

import numpy as np
import pytest

import helpers
from cbnet import (
    BatchNormParams,
    CBNetConfig,
    ConfigError,
    ConvParams,
    ShapeError,
    Tape,
    Tensor4,
    add,
    batchnorm,
    batchnorm_backward,
    build_cbnet,
    cbnet_forward,
    conv2d,
    conv2d_backward,
    global_avg_pool,
    global_avg_pool_backward,
    gradcheck,
    maxpool2,
    maxpool2_backward,
    relu,
    relu_backward,
    set_mode,
    upsample_nearest,
    upsample_nearest_backward,
)
from cbnet.engine import (
    _FD_STEP,
    _MAX_PROBE_WORKERS,
    _PROBE_CHUNK,
    BN_MOMENTUM,
    BatchNormLayer,
    Conv2dLayer,
    _probe_workers,
    _usable_cpus,
    _worst_error,
)


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


def test_relu_passes_no_gradient_at_exactly_zero():
    # relu is not differentiable at 0; the convention is the left derivative, 0
    x = t4([[[[-1.0, 0.0, -0.0, 2.0]]]])
    assert np.array_equal(relu_backward(x, np.full(x.dims, 3.0)), [[[[0.0, 0.0, 0.0, 3.0]]]])


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


def _recording_probes(arr, nan_at=None):
    """A loss_fn that records (index, value) of the one element of arr that
    differs from its original, and returns NaN while element nan_at does."""
    orig = arr.copy()
    probed = []

    def loss_fn():
        (i,), = np.nonzero(arr != orig)
        probed.append((int(i), float(arr[i])))
        return float("nan") if i == nan_at else float(arr @ arr)

    return loss_fn, probed


def test_gradcheck_probes_each_element_up_then_down_in_order():
    arr = np.random.default_rng(5).standard_normal(70)  # three chunks of 32
    assert arr.size > 2 * _PROBE_CHUNK
    orig = arr.copy()
    loss_fn, probed = _recording_probes(arr)
    assert gradcheck(loss_fn, [(arr, 2.0 * arr)]) < 1e-6
    assert probed == [(i, float(orig[i] + d)) for i in range(70) for d in (_FD_STEP, -_FD_STEP)]
    assert arr.tobytes() == orig.tobytes()


def test_gradcheck_stops_after_the_chunk_holding_a_non_finite_loss():
    arr = np.random.default_rng(5).standard_normal(70)
    orig = arr.copy()
    loss_fn, probed = _recording_probes(arr, nan_at=40)
    assert gradcheck(loss_fn, [(arr, 2.0 * arr)]) == float("inf")
    assert arr.tobytes() == orig.tobytes()
    stop = (40 // _PROBE_CHUNK + 1) * _PROBE_CHUNK  # the end of element 40's chunk
    assert stop < 70
    assert [i for i, _ in probed] == [i for i in range(stop) for _ in (0, 1)]


def test_gradcheck_scores_a_non_finite_analytic_gradient_as_inf():
    a = np.array([1.0, 2.0])
    assert gradcheck(lambda: float(a @ a), [(a, np.array([np.nan, np.nan]))]) == float("inf")
    for bad in (np.nan, np.inf, -np.inf):  # one bad element among right ones
        assert gradcheck(lambda: float(a @ a), [(a, np.array([2.0, bad]))]) == float("inf")
    assert gradcheck(lambda: float(a @ a), [(a, 2.0 * a)]) < 1e-6


# -- the chunks of one check spread over processes ---------------------------------


def test_usable_cpus_are_the_cpus_this_process_may_use(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert _usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
    assert _usable_cpus() == (os.cpu_count() or 1)


@pytest.mark.parametrize("cpus, chunks, want", [
    (1, 100, 1), (2, 100, 2), (3, 100, 3), (3, 2, 2), (2, 1, 1), (8, 0, 1),
    (10**9, 10**9, _MAX_PROBE_WORKERS), (_MAX_PROBE_WORKERS + 1, 3, 3),
])
def test_probe_workers_are_the_cpus_capped_by_the_chunks_and_a_constant(cpus, chunks, want):
    assert 2 <= _MAX_PROBE_WORKERS <= 8  # a large host never starts many processes
    assert _probe_workers(cpus, chunks) == want


def _logged_losses(log, nan_at=(), fail_at=None):
    """A losses callback over arr @ arr that appends "<pid> <first element>"
    to the file `log` per call, returns NaN for the probes of an element
    in nan_at and raises on the chunk that starts at element fail_at."""
    def losses(arr, probes):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {probes[0][0]}\n")
        if probes[0][0] == fail_at:
            raise RuntimeError(f"chunk from element {fail_at}")
        out = []
        for i, v in probes:
            orig, arr.flat[i] = arr.flat[i], v
            out.append(np.nan if i in nan_at else float(arr @ arr))
            arr.flat[i] = orig
        return out

    return losses


def _chunks_by_process(log):
    """{pid: first elements of the chunks it probed, in order}"""
    found = {}
    for line in log.read_text().splitlines():
        pid, first = map(int, line.split())
        found.setdefault(pid, []).append(first)
    return found


@pytest.mark.parametrize("cpus, stripes", [
    (1, [[0, 1, 2]]),
    (2, [[0, 2], [1, 3]]),
    (3, [[0, 3], [1, 4], [2]]),
])
def test_each_worker_stops_after_its_own_first_non_finite_chunk(tmp_path, cpus, stripes):
    arr = np.random.default_rng(5).standard_normal(6 * _PROBE_CHUNK)
    orig = arr.copy()
    log = tmp_path / "probes.log"
    nan_at = {2 * _PROBE_CHUNK + 5, 3 * _PROBE_CHUNK + 7}  # in chunks 2 and 3
    assert _worst_error([(arr, 2.0 * arr)], _logged_losses(log, nan_at), cpus) == float("inf")
    helpers.assert_no_child_left()
    assert arr.tobytes() == orig.tobytes()
    chunks = _chunks_by_process(log)
    assert chunks.pop(os.getpid()) == [c * _PROBE_CHUNK for c in stripes[0]]
    assert sorted(chunks.values()) == [[c * _PROBE_CHUNK for c in s] for s in stripes[1:]]


@pytest.mark.parametrize("cpus", [2, 3])
def test_a_check_spread_over_workers_gives_the_serial_error(tmp_path, cpus):
    arr = np.random.default_rng(6).standard_normal(5 * _PROBE_CHUNK + 3)
    want = _worst_error([(arr, 2.0 * arr)], _logged_losses(tmp_path / "serial.log"))
    log = tmp_path / "split.log"
    assert _worst_error([(arr, 2.0 * arr)], _logged_losses(log), cpus) == want
    helpers.assert_no_child_left()
    assert len(_chunks_by_process(log)) == cpus
    assert sorted(sum(_chunks_by_process(log).values(), [])) == \
        list(range(0, arr.size, _PROBE_CHUNK))


def test_a_worker_failure_is_raised_in_the_caller(tmp_path):
    arr = np.random.default_rng(7).standard_normal(4 * _PROBE_CHUNK)
    orig = arr.copy()
    log = tmp_path / "probes.log"
    with pytest.raises(RuntimeError, match=f"^chunk from element {_PROBE_CHUNK}$"):
        _worst_error([(arr, 2.0 * arr)], _logged_losses(log, fail_at=_PROBE_CHUNK), 2)
    helpers.assert_no_child_left()
    assert arr.tobytes() == orig.tobytes()
    chunks = _chunks_by_process(log)
    assert chunks.pop(os.getpid()) == [0, 2 * _PROBE_CHUNK]  # the caller's stripe ran on
    assert list(chunks.values()) == [[_PROBE_CHUNK]]


def test_a_worker_that_sends_no_result_is_reported_in_the_caller():
    arr = np.random.default_rng(9).standard_normal(4 * _PROBE_CHUNK)
    orig = arr.copy()
    caller = os.getpid()

    def losses(arr, probes):
        if os.getpid() != caller:
            os._exit(0)  # the worker ends before it writes its stripe's result
        return [float(arr @ arr)] * len(probes)

    with pytest.raises(RuntimeError, match=r"^gradient check worker \d+ sent no result$"):
        _worst_error([(arr, 2.0 * arr)], losses, 2)
    helpers.assert_no_child_left()
    assert arr.tobytes() == orig.tobytes()


def test_a_refused_fork_runs_that_stripe_in_the_caller(tmp_path, monkeypatch):
    arr = np.random.default_rng(8).standard_normal(10 * _PROBE_CHUNK)
    want = _worst_error([(arr, 2.0 * arr)], _logged_losses(tmp_path / "serial.log"))
    forks = []

    def refuse():
        forks.append(None)
        raise OSError("fork refused")

    monkeypatch.setattr(os, "fork", refuse)
    log = tmp_path / "probes.log"
    assert _worst_error([(arr, 2.0 * arr)], _logged_losses(log), 10**9) == want
    assert len(forks) == _MAX_PROBE_WORKERS - 1
    assert _chunks_by_process(log) == {
        os.getpid(): [c * _PROBE_CHUNK for w in range(_MAX_PROBE_WORKERS)
                      for c in range(w, 10, _MAX_PROBE_WORKERS)]}
    monkeypatch.delattr(os, "fork")  # a platform without fork runs serially
    assert _worst_error([(arr, 2.0 * arr)], _logged_losses(tmp_path / "nofork.log"), 4) == want


def test_tensor4_requires_four_dims():
    with pytest.raises(ShapeError):
        Tensor4(np.zeros((2, 3)))


# -- a layer's rerun from its recorded context --------------------------------


def _check_variant_reruns(layer, x, moves):
    """rerun from one recorded forward: arr itself gives the recorded y, and
    row j of a stack of b in {2, 5} variants of each learnable equals
    forward with variant j written into arr, after `moves` shifts every
    learnable, so the rerun must read the others' current values too.  No
    rerun writes arr, a running statistic or the recorded ctx."""
    rng = np.random.default_rng(14)
    p = layer.params
    y, ctx = layer.forward(x)
    x_in, saved = ctx
    recorded = [x_in.data, *(() if saved is None else saved if isinstance(saved, tuple)
                             else (saved,))]
    for _, arr, _ in p.learnables():
        assert np.array_equal(layer.rerun(ctx, arr, arr[None]), y.data[None])
    for (_, arr, _), move in zip(p.learnables(), moves):
        arr += move
    stats = [getattr(p, name) for name in ("running_mean", "running_var") if hasattr(p, name)]
    for name, arr, _ in p.learnables():
        stacks = [arr + rng.uniform(-0.5, 0.5, (b, *arr.shape)) for b in (2, 5)]
        before = [a.copy() for a in (arr, *stats, *recorded)]
        got = [layer.rerun(ctx, arr, variants) for variants in stacks]
        assert all(np.array_equal(a, b) for a, b in zip((arr, *stats, *recorded), before)), name
        for variants, rows in zip(stacks, got):
            assert rows.shape == (len(variants), *y.dims)
            for j, variant in enumerate(variants):
                arr[...] = variant
                assert np.array_equal(rows[j], layer.forward(x)[0].data), (name, j)
                arr[...] = before[0]


@pytest.mark.parametrize("k, stride, pad", [(3, 1, 1), (3, 2, 1), (1, 1, 0)],
                         ids=["3x3", "3x3-stride-2", "1x1"])
def test_conv_rerun_equals_forward_with_the_current_params(k, stride, pad):
    rng = np.random.default_rng(12)
    x = Tensor4(rng.standard_normal((2, 3, 6, 6)))
    layer = Conv2dLayer(ConvParams(rng.standard_normal((4, 3, k, k)), rng.standard_normal(4),
                                   stride=stride, pad=pad))
    weight_move = np.zeros_like(layer.params.weight.data)
    weight_move.flat[5] = 0.25
    _check_variant_reruns(layer, x, (weight_move, np.array([0.0, -0.5, 0.0, 0.0])))


def test_bn_rerun_equals_forward_with_the_current_params():
    # only a training forward is rerun: replay's one caller checks in training mode
    rng = np.random.default_rng(13)
    x = Tensor4(rng.standard_normal((2, 3, 4, 4)) * 2.0 + 1.0)
    layer = BatchNormLayer(BatchNormParams(
        rng.uniform(0.5, 1.5, 3), rng.standard_normal(3), rng.standard_normal(3),
        rng.uniform(0.5, 2.0, 3), mode="training"))
    _check_variant_reruns(layer, x, (np.array([0.25, 0.0, 0.0]), np.array([0.0, 0.0, -0.5])))


def test_bn_rerun_of_an_inference_record_is_refused_naming_the_mode():
    rng = np.random.default_rng(13)
    layer = BatchNormLayer(_bn(3))
    _, ctx = layer.forward(Tensor4(rng.standard_normal((2, 3, 4, 4))))
    for _, arr, _ in layer.params.learnables():
        with pytest.raises(RuntimeError, match="recorded in inference mode"):
            layer.rerun(ctx, arr, arr[None])


# -- conv columns in sample blocks ----------------------------------------------


def _bits_in_blocks(monkeypatch, budgets, run):
    """run()'s arrays under each `_COLS_BYTES` budget, as bytes."""
    out = []
    for budget in budgets:
        monkeypatch.setattr("cbnet.engine._COLS_BYTES", budget)
        out.append([a.tobytes() for a in run()])
    return out


@pytest.mark.parametrize("k, stride, pad", [(k, s, p) for k in (1, 3) for s in (1, 2)
                                            for p in (0, 1)])
def test_conv_columns_in_any_sample_blocks_keep_every_bit(monkeypatch, k, stride, pad):
    # blocks of one sample, of two plus a remainder, and the whole batch
    rng = np.random.default_rng(16)
    c, hw = 3, 7
    p = ConvParams(rng.standard_normal((4, c, k, k)), rng.standard_normal(4),
                   stride=stride, pad=pad)
    o = (hw + 2 * pad - k) // stride + 1
    budgets = (1, 2 * c * k * k * o * o * 8, 1 << 62)
    for n in (1, 3, 5):
        x = Tensor4(rng.standard_normal((n, c, hw, hw)))
        g = rng.standard_normal((n, 4, o, o))
        got = _bits_in_blocks(monkeypatch, budgets,
                              lambda: (conv2d(x, p).data, *conv2d_backward(x, p, g)))
        assert got[1] == got[0] and got[2] == got[0]
        # and each sample's output and input gradient are its own, as when it runs alone
        y, gx = conv2d(x, p).data, conv2d_backward(x, p, g)[0]
        for i in range(n):
            one = Tensor4(x.data[i:i + 1])
            assert conv2d(one, p).data.tobytes() == y[i:i + 1].tobytes()
            assert conv2d_backward(one, p, g[i:i + 1])[0].tobytes() == gx[i:i + 1].tobytes()


def test_a_full_size_pyramid_and_its_gradients_keep_every_bit_in_any_sample_blocks(
        monkeypatch):
    cfg = CBNetConfig(num_backbones=2)
    image = Tensor4(np.random.default_rng(17).uniform(0.0, 1.0, (3, 3, *cfg.spec.image_size)))
    stem = build_cbnet(cfg, 18).backbones[0].stem.conv.params
    h, w = cfg.spec.image_size
    stem_bytes = stem.c_in * stem.kernel ** 2 * h * w * 8  # the stem keeps the image size
    # the stem in blocks of 2 + 1 at the middle budget, every conv per sample at 1
    budgets = (1, 2 * stem_bytes, 1 << 62)

    def forward_only():
        return [lvl.data for lvl in cbnet_forward(build_cbnet(cfg, 18), image).levels]

    def forward_and_backward():
        net = build_cbnet(cfg, 18)
        rng = np.random.default_rng(19)
        with set_mode(net, "training"):
            tape = Tape()
            pyramid = net.forward(image, tape)
        tape.backward([(lvl, rng.standard_normal(lvl.dims)) for lvl in pyramid.levels])
        return ([lvl.data for lvl in pyramid.levels] + [tape.grads[image]]
                + [grad for _, _, grad in net.unique_learnables()])

    for run in (forward_only, forward_and_backward):
        got = _bits_in_blocks(monkeypatch, budgets, run)
        assert got[1] == got[0] and got[2] == got[0], run.__name__


# -- gradient storage -----------------------------------------------------------

# Builds a full-size K=2 accelerated ahlc task in a fresh process (after a
# TOY_SPEC build that loads every import), runs the forward-only entry points
# on it, then prints how many pages of its gradient arrays are resident and
# how many they span, counted with mincore.  A fresh process, because in a
# long one later builds reuse heap pages that are already resident.
_GRAD_PAGES_SCRIPT = """
import ctypes, mmap
import numpy as np
from cbnet import (CBNetConfig, TOY_SPEC, WithHead, apply_state, build_cbnet,
                   cbnet_forward, evaluate, flop_count)
from cbnet.task import build_task

build_cbnet(CBNetConfig(num_backbones=2, spec=TOY_SPEC), 0)
net, head, dataset = build_task(CBNetConfig(num_backbones=2, accelerated=True), 0, 4)
model = WithHead(net, head)
apply_state(net, {name: arr.copy() for name, arr in model.state()}, head=head)
evaluate(net, head, dataset)
cbnet_forward(net, dataset[0].image)
flop_count(net, (1, 3, 64, 64))

libc = ctypes.CDLL(None, use_errno=True)
libc.mincore.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.POINTER(ctypes.c_ubyte))
libc.mincore.restype = ctypes.c_int
page = mmap.PAGESIZE
resident = total = 0
for _, _, grad in model.unique_learnables():
    start = grad.ctypes.data // page * page
    pages = -(-(grad.ctypes.data + grad.nbytes - start) // page)
    vec = (ctypes.c_ubyte * pages)()
    if libc.mincore(start, pages * page, vec) != 0:
        raise OSError(ctypes.get_errno(), "mincore failed")
    resident += sum(v & 1 for v in vec)
    total += pages
print(resident, total)
"""


def test_forward_only_passes_leave_gradient_pages_unbacked():
    """A model that only evaluates, draws or counts FLOPs never writes its
    gradient arrays, so most of their pages stay unbacked zero pages."""
    if not os.path.isdir("/proc/self") or not hasattr(ctypes.CDLL(None), "mincore"):
        pytest.skip("needs mincore and /proc")
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", _GRAD_PAGES_SCRIPT], capture_output=True,
                         text=True, env=env, timeout=300, check=True).stdout
    resident, total = map(int, out.split())
    assert total > 1000
    assert resident <= total // 4, f"{resident} of {total} gradient pages resident"
