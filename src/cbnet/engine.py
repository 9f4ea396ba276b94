"""Dense 4-d tensor primitives with hand-written backward passes.

Everything runs in float64 and is deterministic: the same parameters and
inputs produce bit-identical results on every run.  There is no general
autograd; networks are static and record their op sequence on a `Tape`
during the forward pass, which is then walked in reverse for backprop.
Tensors are plain values with no shared mutable state, so independent
passes on disjoint model copies can run in parallel.  Inference-mode
passes on one model may run concurrently too, each on its own tape: they
only read the parameters and running statistics.  Training-mode passes on
one model may not, since each folds its batch statistics into the running
estimates.
"""

from __future__ import annotations

import os
import pickle

import numpy as np

BN_MOMENTUM = 0.9
BN_EPS = 1e-5
_FD_STEP = 1e-5  # central-difference step of the gradient checks
_PROBE_CHUNK = 32  # elements a gradient check probes per `losses` call, two probes each
_VARIANT_BYTES = 256 * 1024  # most bytes of one rerun's copies of a probed array
_MAX_PROBE_WORKERS = 4  # most processes one gradient check runs its chunks in
_COLS_BYTES = 1024 * 1024  # most bytes of one conv block's im2col or col2im columns


class ShapeError(ValueError):
    """Tensor dimensions do not match what an operation requires."""


class ConfigError(ValueError):
    """A parameter container or network configuration is invalid."""


def is_int(value):
    """The one rule for a count or size argument: an int or a numpy
    integer, never a bool (which Python counts as an int)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def as_int(value, what, error=ConfigError):
    """value as an int, or `error` naming `what` when `is_int` rejects it."""
    if not is_int(value):
        raise error(f"{what}: expected an integer, got {value!r}")
    return int(value)


def _check_finite(kind, named):
    for name, v in named:
        if not np.isfinite(v).all():
            raise ConfigError(f"{kind} {name} holds NaN or inf")


class Tensor4:
    """A (n, c, h, w) float64 array: a plain value that carries no gradient.

    `group` is None except on a tensor `Tape.replay` passes to a layer,
    where it is one probe's batch size: batchnorm then normalizes each run
    of `group` samples on its own, in either mode, and folds nothing.
    """

    __slots__ = ("data", "group")

    def __init__(self, data, group=None):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 4:
            raise ShapeError(f"Tensor4 needs 4 dims, got shape {arr.shape}")
        self.data = np.ascontiguousarray(arr)
        self.group = group

    @property
    def dims(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor4(dims={self.dims})"


class ConvParams:
    """Weights of a 2-d cross-correlation: weight (c_out, c_in, k, k), bias (c_out,).

    Kernels are square and either 1x1 or 3x3.  `weight_grad` and `bias_grad`
    are allocated once, so shared parameters keep stable storage, but as
    `np.zeros`: their pages are backed only once a backward writes them.
    """

    def __init__(self, weight, bias, stride=1, pad=0):
        self.weight = Tensor4(weight)
        c_out, c_in, kh, kw = self.weight.dims
        if kh != kw or kh not in (1, 3):
            raise ConfigError(f"conv kernel must be square 1x1 or 3x3, got {kh}x{kw}")
        bias = np.ascontiguousarray(np.asarray(bias, dtype=np.float64))
        if bias.shape != (c_out,):
            raise ShapeError(f"bias shape {bias.shape} does not match c_out={c_out}")
        stride, pad = as_int(stride, "ConvParams stride"), as_int(pad, "ConvParams pad")
        if stride < 1 or pad < 0:
            raise ConfigError(f"invalid stride={stride} pad={pad}")
        _check_finite("conv", (("weight", self.weight.data), ("bias", bias)))
        self.bias = bias
        self.weight_grad = np.zeros(self.weight.dims)
        self.bias_grad = np.zeros(bias.shape)
        self.stride = stride
        self.pad = pad

    def learnables(self):
        """(name, value, grad) of each learned array, the one list of them."""
        return ("weight", self.weight.data, self.weight_grad), ("bias", self.bias, self.bias_grad)

    @property
    def c_out(self):
        return self.weight.dims[0]

    @property
    def c_in(self):
        return self.weight.dims[1]

    @property
    def kernel(self):
        return self.weight.dims[2]


class BatchNormParams:
    """Per-channel normalization state.

    In "training" mode the batch statistics normalize the input and are
    folded into the running estimates with momentum 0.9; in "inference"
    mode the running estimates are used and nothing is mutated.
    """

    def __init__(self, gamma, beta, running_mean, running_var, mode="inference"):
        gamma = np.ascontiguousarray(np.asarray(gamma, dtype=np.float64))
        beta = np.ascontiguousarray(np.asarray(beta, dtype=np.float64))
        running_mean = np.ascontiguousarray(np.asarray(running_mean, dtype=np.float64))
        running_var = np.ascontiguousarray(np.asarray(running_var, dtype=np.float64))
        c = gamma.shape[0]
        for name, v in (("beta", beta), ("running_mean", running_mean),
                        ("running_var", running_var)):
            if v.shape != (c,):
                raise ShapeError(f"batchnorm {name} shape {v.shape} != gamma shape {(c,)}")
        _check_finite("batchnorm", (("gamma", gamma), ("beta", beta),
                                    ("running_mean", running_mean), ("running_var", running_var)))
        if np.any(running_var < 0.0):
            raise ConfigError("batchnorm running_var has negative entries")
        if mode not in ("training", "inference"):
            raise ConfigError(f"batchnorm mode must be training|inference, got {mode!r}")
        self.gamma = gamma
        self.beta = beta
        self.running_mean = running_mean
        self.running_var = running_var
        self.mode = mode
        self.gamma_grad = np.zeros(gamma.shape)
        self.beta_grad = np.zeros(beta.shape)

    def learnables(self):
        """(name, value, grad) of each learned array, the one list of them."""
        return ("gamma", self.gamma, self.gamma_grad), ("beta", self.beta, self.beta_grad)

    @property
    def channels(self):
        return self.gamma.shape[0]


# ---------------------------------------------------------------------------
# convolution


def _conv_out_hw(h, w, k, stride, pad):
    # floor semantics: trailing rows/cols that no window reaches are ignored
    ph, pw = h + 2 * pad - k, w + 2 * pad - k
    if ph < 0 or pw < 0:
        raise ShapeError(
            f"conv2d: window k={k} stride={stride} pad={pad} does not fit input {h}x{w}")
    return ph // stride + 1, pw // stride + 1


def _im2col(x, k, stride, pad, fold=False):
    """The (n, c·k·k, oh·ow) columns of x for a k×k window at `stride` and
    `pad`, or with `fold` its batch-folded (c·k·k, n·oh·ow) columns, with
    (oh, ow).

    x must be C-contiguous: every caller passes a `Tensor4`'s data, a
    `_sample_blocks` slice of one (whole samples, so still contiguous) or a
    fresh padded array.  The windows are one strided view of the padded
    input, built over its buffer, which rejects a non-contiguous x or a
    window past the buffer's end with `ValueError`; one reshape then copies
    them into columns.  Where that reshape needs no copy (a 1x1 stride-1
    conv without padding, or a window that covers the whole unpadded map)
    the columns alias x: the tape never mutates a recorded input.
    """
    n, c, h, w = x.shape
    oh, ow = _conv_out_hw(h, w, k, stride, pad)
    xp = x
    if pad:
        xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=np.float64)
        xp[:, :, pad:pad + h, pad:pad + w] = x
    sn, sc, sh, sw = xp.strides
    windows = np.ndarray((n, c, k, k, oh, ow), np.float64, xp, 0,
                         (sn, sc, sh, sw, stride * sh, stride * sw))
    if fold:
        return windows.transpose(1, 2, 3, 0, 4, 5).reshape(c * k * k, n * oh * ow), oh, ow
    return windows.reshape(n, c * k * k, oh * ow), oh, ow


def _sample_blocks(n, sample_bytes):
    """Slices of whole samples that cover range(n) in order, each of
    max(1, _COLS_BYTES // sample_bytes) samples but the last, which holds
    the rest: the blocks a conv builds its columns in, sample_bytes being
    one sample's columns.  A whole batch that fits the budget is one block."""
    b = max(1, _COLS_BYTES // sample_bytes)
    return [slice(lo, min(lo + b, n)) for lo in range(0, n, b)]


def _conv_check(x, p):
    if x.shape[1] != p.c_in:
        raise ShapeError(
            f"conv2d: input shape {x.shape} does not match weight shape {p.weight.dims}")


def _conv_forward(x, p):
    """The (n, c_out, oh, ow) conv output: one gemm per sample, run as one
    stacked gemm per `_sample_blocks` block over that block's columns, which
    are freed before the next block's are built.  A sample's gemm does not
    depend on its block, so neither do its bits."""
    _conv_check(x, p)
    n, c, h, w = x.shape
    k = p.kernel
    oh, ow = _conv_out_hw(h, w, k, p.stride, p.pad)
    w2 = p.weight.data.reshape(p.c_out, -1)
    y = np.empty((n, p.c_out, oh * ow))
    for blk in _sample_blocks(n, c * k * k * oh * ow * 8):
        np.matmul(w2, _im2col(x[blk], k, p.stride, p.pad)[0], out=y[blk])
    y += p.bias[:, None]
    return y.reshape(n, p.c_out, oh, ow)


def _conv_backward(x, p, grad_out):
    """Gradients w.r.t. (input, weight, bias).  x's columns are rebuilt here,
    batch-folded, for the weight gradient's one gemm over every sample, and
    freed before the input gradient: its per-sample gemms and col2im run per
    `_sample_blocks` block, so only one block's gradient columns are held."""
    n, c, h, w = x.shape
    k, s, pad = p.kernel, p.stride, p.pad
    oh, ow = grad_out.shape[2], grad_out.shape[3]
    g2 = np.ascontiguousarray(grad_out.reshape(n, p.c_out, oh * ow))
    grad_bias = g2.sum(axis=(0, 2))
    cols, _, _ = _im2col(x, k, s, pad, fold=True)
    g_fold = g2.transpose(1, 0, 2).reshape(p.c_out, n * oh * ow)
    grad_weight = np.matmul(g_fold, cols.T).reshape(p.weight.dims)
    del cols, g_fold
    w2t = p.weight.data.reshape(p.c_out, -1).T
    # col2im into the unpadded map: each tap adds only the output positions
    # whose input pixel lies inside it, taps in (i, j) order
    taps_h, taps_w = list(_taps(k, s, pad, oh, h)), list(_taps(k, s, pad, ow, w))
    grad_in = np.zeros((n, c, h, w), dtype=np.float64)
    for blk in _sample_blocks(n, c * k * k * oh * ow * 8):
        g6 = np.matmul(w2t, g2[blk]).reshape(-1, c, k, k, oh, ow)
        gi = grad_in[blk]
        for i, oy, iy in taps_h:
            for j, ox, ix in taps_w:
                gi[:, :, iy, ix] += g6[:, :, i, j, oy, ox]
    return grad_in, grad_weight, grad_bias


def _taps(k, s, pad, o, size):
    """(tap, output slice, input slice) along one axis for each tap that
    reaches the unpadded map: output position q reads input i + s·q − pad."""
    for i in range(k):
        lo = max(0, -((i - pad) // s))
        hi = min(o, (size - 1 + pad - i) // s + 1)
        if hi > lo:
            yield i, slice(lo, hi), slice(i + s * lo - pad, i + s * (hi - 1) - pad + 1, s)


def conv2d(x: Tensor4, p: ConvParams) -> Tensor4:
    """Cross-correlate x with p.weight and add p.bias."""
    return Tensor4(_conv_forward(x.data, p))


def conv2d_backward(x: Tensor4, p: ConvParams, grad_out):
    """Gradients of conv2d w.r.t. (input, weight, bias) given the output gradient."""
    _conv_check(x.data, p)
    return _conv_backward(x.data, p, np.asarray(grad_out, dtype=np.float64))


# ---------------------------------------------------------------------------
# batch normalization


def _bn_check(x, p):
    if x.shape[1] != p.channels:
        raise ShapeError(
            f"batchnorm: input shape {x.shape} does not match {p.channels} channels")


def _bn_normalize(x, p, group=None):
    """(mean, 1/std, normalized x, variance) of x taken as runs of `group`
    consecutive samples, all of x being one run when None: the run's biased
    batch statistics whatever p's mode, one row per run, shape (runs, c).

    The statistics are sum / m and the mean of the squared centred input,
    which is what np.mean and np.var compute, bit for bit, while centring x
    only once.  x is never written: the normalized x is the fresh centred
    array, scaled in place.  Callers record it, so nothing may write into
    it once it is returned.
    """
    _bn_check(x, p)
    n, c, h, w = x.shape
    xg = x.reshape(-1 if group else 1, group or n, c, h, w)
    m = xg.shape[1] * h * w
    mu = xg.sum(axis=(1, 3, 4)) / m
    xc = xg - mu[:, None, :, None, None]
    var = (xc * xc).sum(axis=(1, 3, 4)) / m
    istd = 1.0 / np.sqrt(var + BN_EPS)
    xc *= istd[:, None, :, None, None]
    return mu, istd, xc.reshape(x.shape), var


def _bn_forward(x, p, group=None):
    """Batchnorm of x and the cache its backward reads: (mu, istd, xhat) in
    training mode or for a grouped input (replay's, `group` set), which is
    normalized group by group and never folds into the running statistics,
    and `_bn_running(p)`, (mean, istd, None), in inference mode, which
    records the statistics it used but no normalized copy."""
    if p.mode == "inference" and group is None:
        cache = _bn_running(p)
        return _bn_scale_shift(x, p, *cache[:2]), cache
    mu, istd, xhat, var = _bn_normalize(x, p, group)
    if group is None:
        p.running_mean *= BN_MOMENTUM
        p.running_mean += (1.0 - BN_MOMENTUM) * mu[0]
        p.running_var *= BN_MOMENTUM
        p.running_var += (1.0 - BN_MOMENTUM) * var[0]
    return _bn_affine(xhat, p.gamma, p.beta), (mu, istd, xhat)


def _bn_running(p):
    """The inference cache (mean, istd, None): a copy of p's running mean and
    1/std of its running variance, the statistics an inference step uses."""
    return p.running_mean.copy(), 1.0 / np.sqrt(p.running_var + BN_EPS), None


def _bn_scale_shift(x, p, mean, istd):
    """Inference batchnorm as one per-channel linear map, x·s + t with
    s = gamma·istd and t = beta − mean·s, in a fresh array; x is never
    written.  (Adding t in place was no faster in an eval pass and left the
    process ~3 MB more peak RSS.)"""
    _bn_check(x, p)
    scale = p.gamma * istd
    shift = p.beta - mean * scale
    return x * scale[None, :, None, None] + shift[None, :, None, None]


def _bn_affine(xhat, gamma, beta):
    """gamma * xhat + beta in a fresh array; xhat is never written.  gamma
    and beta are (c,), or a (b, c) stack of both that gives (b, *xhat.shape)."""
    y = xhat * gamma[..., None, :, None, None]
    y += beta[..., None, :, None, None]
    return y


def _bn_backward(x, p, grad_out, cache):
    """Gradients w.r.t. (input, gamma, beta) of one unstacked batch (a
    single run) in the mode its forward ran in, told by the cache, never by
    p.mode: a training forward's (mu, istd, xhat) takes the batch-statistics
    formula, and an inference forward's (mean, istd, None) the one on the
    running estimates it recorded, from which xhat is rebuilt, so running
    statistics moved since then change nothing.  grad_out is never written."""
    mu, istd, xhat = cache
    training = xhat is not None
    if training:
        (mu,), (istd,) = mu, istd
    else:
        _bn_check(x, p)
        xhat = (x - mu[None, :, None, None]) * istd[None, :, None, None]
    grad_gamma = (grad_out * xhat).sum(axis=(0, 2, 3))
    grad_beta = grad_out.sum(axis=(0, 2, 3))
    gxhat = grad_out * p.gamma[None, :, None, None]
    grad_in = gxhat  # gxhat and xc are fresh, so the sum is built in place
    if training:
        n, _, h, w = x.shape
        m = float(n * h * w)
        xc = x - mu[None, :, None, None]
        gvar = (gxhat * xc).sum(axis=(0, 2, 3)) * (-0.5) * istd ** 3
        gmu = -(gxhat.sum(axis=(0, 2, 3))) * istd \
            + gvar * (-2.0 / m) * xc.sum(axis=(0, 2, 3))
        grad_in *= istd[None, :, None, None]
        xc *= gvar[None, :, None, None] * (2.0 / m)
        grad_in += xc
        grad_in += gmu[None, :, None, None] / m
    else:
        grad_in *= istd[None, :, None, None]
    return grad_in, grad_gamma, grad_beta


def batchnorm(x: Tensor4, p: BatchNormParams) -> Tensor4:
    """Normalize x per channel; training mode also updates the running stats."""
    y, _ = _bn_forward(x.data, p)
    return Tensor4(y)


def batchnorm_backward(x: Tensor4, p: BatchNormParams, grad_out):
    """Gradients of batchnorm w.r.t. (input, gamma, beta) in p's current mode."""
    cache = _bn_normalize(x.data, p)[:3] if p.mode == "training" else _bn_running(p)
    return _bn_backward(x.data, p, np.asarray(grad_out, dtype=np.float64), cache)


# ---------------------------------------------------------------------------
# pointwise / pooling / resize


def relu(x: Tensor4) -> Tensor4:
    return Tensor4(np.maximum(x.data, 0.0))


def relu_backward(x: Tensor4, grad_out):
    return grad_out * (x.data > 0.0)


def add(a: Tensor4, b: Tensor4) -> Tensor4:
    if a.dims != b.dims:
        raise ShapeError(f"add: shapes {a.dims} and {b.dims} differ")
    return Tensor4(a.data + b.data)


def _pool_windows(x):
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2 needs even spatial dims, got {h}x{w}")
    win = x.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
    return win.reshape(n, c, h // 2, w // 2, 4)


def maxpool2(x: Tensor4) -> Tensor4:
    """2x2 stride-2 max pooling."""
    return Tensor4(_pool_windows(x.data).max(axis=-1))


def maxpool2_backward(x: Tensor4, grad_out):
    # gradient goes to the first (row-major) maximal element of each window
    n, c, h, w = x.dims
    win = _pool_windows(x.data)
    idx = win.argmax(axis=-1)
    gwin = np.zeros_like(win)
    np.put_along_axis(gwin, idx[..., None], np.asarray(grad_out)[..., None], axis=-1)
    gx = gwin.reshape(n, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5)
    return np.ascontiguousarray(gx.reshape(n, c, h, w))


def _upsample_factors(in_hw, target_hw):
    (h, w), (th, tw) = in_hw, target_hw
    if th < h or tw < w or th % h or tw % w:
        raise ShapeError(
            f"upsample_nearest: target {th}x{tw} is not an integer multiple of {h}x{w}")
    return th // h, tw // w


def upsample_nearest(x: Tensor4, target_hw) -> Tensor4:
    """Nearest-neighbor resize to target_hw (integer scale factors only)."""
    fh, fw = _upsample_factors(x.dims[2:], tuple(target_hw))
    y = np.repeat(np.repeat(x.data, fh, axis=2), fw, axis=3)
    return Tensor4(y)


def upsample_nearest_backward(x: Tensor4, grad_out):
    n, c, h, w = x.dims
    g = np.asarray(grad_out)
    fh, fw = _upsample_factors((h, w), g.shape[2:])
    return g.reshape(n, c, h, fh, w, fw).sum(axis=(3, 5))


def global_avg_pool(x: Tensor4) -> Tensor4:
    """Mean over the spatial dims, keeping (n, c, 1, 1)."""
    return Tensor4(x.data.mean(axis=(2, 3), keepdims=True))


def global_avg_pool_backward(x: Tensor4, grad_out):
    n, c, h, w = x.dims
    return np.broadcast_to(np.asarray(grad_out) / (h * w), (n, c, h, w)).copy()


# ---------------------------------------------------------------------------
# tape layers: stateless wrappers whose forward returns (output, ctx) and
# whose backward maps the output gradient back to input gradients while
# adding parameter gradients into the parameter set's *_grad arrays.


class Conv2dLayer:
    def __init__(self, params: ConvParams):
        self.params = params

    def forward(self, x):
        return Tensor4(_conv_forward(x.data, self.params)), (x, None)

    def rerun(self, ctx, arr, variants):
        """forward's output arrays on its recorded input, (b, *y.dims), one
        per variant of arr (the weight or the bias) in the (b, *arr.shape)
        `variants`, from the recorded input's columns, built once per call.
        Each is the forward's own gemm, so bit for bit the output of the
        forward with that variant written into arr."""
        x, _ = ctx
        p = self.params
        cols, oh, ow = _im2col(x.data, p.kernel, p.stride, p.pad)
        if arr is p.bias:  # the recorded weight's one gemm, b biases added
            y = np.matmul(p.weight.data.reshape(p.c_out, -1), cols) + variants[:, None, :, None]
        else:
            y = np.matmul(variants.reshape(len(variants), 1, p.c_out, -1), cols)
            y += p.bias[:, None]
        return y.reshape(len(variants), x.dims[0], p.c_out, oh, ow)

    def backward(self, ctx, grad_out):
        x, _ = ctx
        grad_in, gw, gb = _conv_backward(x.data, self.params, grad_out)
        self.params.weight_grad += gw
        self.params.bias_grad += gb
        return (grad_in,)


class BatchNormLayer:
    def __init__(self, params: BatchNormParams):
        self.params = params

    def forward(self, x):
        y, cache = _bn_forward(x.data, self.params, x.group)
        return Tensor4(y), (x, cache)

    def rerun(self, ctx, arr, variants):
        """forward's output arrays on its recorded input, (b, *y.dims), one
        per variant of arr (gamma or beta) in the (b, c) `variants`, from the
        normalized input a training forward recorded, so with the statistics
        it used; no running statistic moves.  An inference forward records
        no normalized input, so its step raises `RuntimeError`."""
        if ctx[1][2] is None:
            raise RuntimeError("batchnorm rerun: the step was recorded in inference mode, "
                               "which keeps no normalized input")
        p = self.params
        gamma = variants if arr is p.gamma else np.broadcast_to(p.gamma, variants.shape)
        beta = variants if arr is p.beta else np.broadcast_to(p.beta, variants.shape)
        return _bn_affine(ctx[1][2], gamma, beta)

    def backward(self, ctx, grad_out):
        x, cache = ctx
        grad_in, gg, gb = _bn_backward(x.data, self.params, grad_out, cache)
        self.params.gamma_grad += gg
        self.params.beta_grad += gb
        return (grad_in,)


class ReLULayer:
    def forward(self, x):
        return relu(x), x

    def backward(self, ctx, grad_out):
        return (relu_backward(ctx, grad_out),)


class AddLayer:
    def forward(self, a, b):
        return add(a, b), None

    def backward(self, ctx, grad_out):
        return grad_out, grad_out


class UpsampleLayer:
    def __init__(self, target_hw):
        self.target_hw = tuple(target_hw)

    def forward(self, x):
        return upsample_nearest(x, self.target_hw), x

    def backward(self, ctx, grad_out):
        return (upsample_nearest_backward(ctx, grad_out),)


class GlobalAvgPoolLayer:
    def forward(self, x):
        return global_avg_pool(x), x

    def backward(self, ctx, grad_out):
        return (global_avg_pool_backward(ctx, grad_out),)


RELU = ReLULayer()
ADD = AddLayer()
GAP = GlobalAvgPoolLayer()


class Tape:
    """Execution record of one forward pass over a static network.

    `run` executes a layer and remembers (layer, inputs, output, ctx).
    `backward(seeds)` walks the record in exact reverse from (tensor,
    gradient) pairs, so fan-out sums are bit-reproducible.  It adds
    parameter gradients into the parameter sets' `*_grad` arrays; others
    live only in the walk, which leaves `grads` mapping each input of the
    pass (a tensor no step produced) to its gradient.  Each batchnorm step
    is differentiated in the mode its forward ran in and with the
    statistics it used, which its record holds (an inference step a copy
    of the running mean and its 1/std), so a backward may run after the
    `set_mode` block that scoped the forward has ended, or after a training
    forward has moved the running statistics.

    A conv step keeps its input, never its im2col columns: the forward
    builds them in blocks of whole samples under `_COLS_BYTES`
    (`_sample_blocks`), each freed after its block's gemm, and the backward
    and `replay` rebuild them.
    A forward-only pass clears `recording` right after `Tape()`: `run`
    then executes each layer exactly as before but keeps no step, so every
    activation is freed as soon as nothing else holds it.  Such a tape
    can be neither backpropagated nor replayed.
    """

    def __init__(self):
        self.steps = []
        self.recording = True
        self.grads = {}
        self._index = (0, {}, {}, False)

    def run(self, layer, *xs) -> Tensor4:
        y, ctx = layer.forward(*xs)
        if self.recording:
            self.steps.append((layer, xs, y, ctx))
        return y

    def replay(self, arr, probes, keep):
        """Re-run the steps that depend on arr for a stack of P probes,
        probe p setting arr.flat[i] = v for (i, v) = probes[p].

        An input tensor of the pass that holds arr (the image) starts as a
        stack of its P perturbed copies.  A reader of arr, a step whose
        layer's params hold it, reruns from its recorded context
        (`layer.rerun`: a conv builds its columns once per call, a batchnorm
        reads the normalized input its training forward recorded) when its
        inputs are the recorded ones and b = min(P, _VARIANT_BYTES //
        arr.nbytes) is at least 2, for sub-stacks of b probes, each a copy
        of arr with its probe's element set; arr is never written.
        Otherwise it runs `forward` once per probe, on the probe's n-sample
        slice of its inputs, with the probe written into arr and restored,
        so a large arr is never copied.  When neither a tensor nor any
        step's params hold arr, the layers that read it hide their params
        (a wrapping layer may), so every step counts as a reader and runs
        `forward` per probe.  A step that reads a stacked output runs once
        on the stack, its unchanged operands repeated P times.  Other steps
        keep their recorded outputs, and when no input tensor holds arr the
        walk starts at the first reader.

        Every tensor passed to a `forward` has `group` n, so batchnorm
        normalizes each probe's samples on their own with their batch
        statistics and folds nothing: a replay reads no batchnorm mode and
        no running statistic.  It raises `RuntimeError` on a tape that
        recorded nothing, or that holds a `BatchNormLayer` step recorded in
        inference mode, which a grouped forward does not reproduce (a layer
        that wraps one goes unchecked).

        Returns {recorded output: stacked output} for the outputs in
        `keep`; any other stacked output is dropped after its last reader.
        The steps are indexed once per tape length: the last step that
        reads or makes each tensor, the steps whose params hold each array
        (by id; the steps keep the arrays alive), and whether a
        `BatchNormLayer` step was recorded in inference mode.
        """
        if not self.recording:
            raise RuntimeError("replay on a tape that recorded nothing "
                               "(its recording flag is off)")
        if self._index[0] != len(self.steps):
            last, holders, inference = {}, {}, False
            for s, (layer, xs, y, ctx) in enumerate(self.steps):
                for t in (*xs, y):
                    last[t] = s
                # an inference forward records no normalized input
                inference |= isinstance(layer, BatchNormLayer) and ctx[1][2] is None
                params = getattr(layer, "params", None)
                for _, value, _ in params.learnables() if params is not None else ():
                    holders.setdefault(id(value), set()).add(s)
            self._index = (len(self.steps), last, holders, inference)
        _, last, holders, inference = self._index
        if inference:
            raise RuntimeError("replay: a batchnorm step was recorded in inference mode")
        keep = set(keep)
        P = len(probes)
        stacked = {}
        for t in last:
            if t.data is arr:
                stacked[t] = Tensor4(_probe_copies(arr, probes).reshape(-1, *arr.shape[1:]),
                                     len(arr))
        held = holders.get(id(arr), ())
        readers = held or (() if stacked else range(len(self.steps)))
        # with no stacked input, nothing before the first reader changes
        first = 0 if stacked else min(readers, default=0)

        def probe_input(t, p):  # the recorded t, or probe p's slice of its stack
            n, st = len(t.data), stacked.get(t)
            return Tensor4(t.data if st is None else st.data[p * n:(p + 1) * n], n)

        for s in range(first, len(self.steps)):
            layer, xs, y, ctx = self.steps[s]
            is_stacked = any(x in stacked for x in xs)
            if s in readers:
                out = np.empty((P, *y.dims))
                b = min(P, _VARIANT_BYTES // arr.nbytes)
                if s in held and not is_stacked and b >= 2:
                    for lo in range(0, P, b):
                        out[lo:lo + b] = layer.rerun(
                            ctx, arr, _probe_copies(arr, probes[lo:lo + b]))
                else:
                    for p, (i, v) in enumerate(probes):
                        orig, arr.flat[i] = arr.flat[i], v
                        try:
                            out[p] = layer.forward(*(probe_input(x, p) for x in xs))[0].data
                        finally:
                            arr.flat[i] = orig
                out = Tensor4(out.reshape(-1, *y.dims[1:]))
            elif is_stacked:
                out, _ = layer.forward(*(
                    stacked[x] if x in stacked else Tensor4(np.tile(x.data, (P, 1, 1, 1)),
                                                            len(x.data))
                    for x in xs))
            else:
                continue
            out.group = len(y.data)
            stacked[y] = out
            for t in (*xs, y):
                if last[t] == s and t not in keep:
                    stacked.pop(t, None)
        return stacked

    def backward(self, seeds):
        if not self.recording:
            raise RuntimeError("backward on a tape that recorded nothing "
                               "(its recording flag is off)")
        grads = {}

        def add(t, g):  # never +=: g may be a seed or feed two inputs (AddLayer)
            grads[t] = grads[t] + g if t in grads else g

        for t, g in seeds:
            add(t, np.broadcast_to(g, t.dims))
        for layer, xs, y, ctx in reversed(self.steps):
            if y in grads:
                for x, gx in zip(xs, layer.backward(ctx, grads.pop(y))):
                    add(x, gx)
        self.grads = grads


def _probe_copies(arr, probes):
    """(len(probes), *arr.shape): a copy of arr per (i, v) probe, with its
    element i set to v."""
    index, values = zip(*probes)
    copies = np.repeat(arr[None], len(probes), axis=0)
    copies.reshape(len(probes), -1)[range(len(probes)), index] = values
    return copies


def _usable_cpus():
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _probe_workers(cpus, chunks):
    """How many processes a gradient check of `chunks` chunks runs in on
    `cpus` CPUs: one per CPU, at most one per chunk, at most
    _MAX_PROBE_WORKERS, at least one."""
    return max(1, min(cpus, chunks, _MAX_PROBE_WORKERS))


def _worst_error(checks, losses, cpus=1):
    """The probe, score and stop loop of both gradient checks.

    checks holds (array, analytic gradient) pairs.  Each array is probed in
    element order, _PROBE_CHUNK elements per losses(arr, probes) call, which
    returns the loss for each (i, v) probe, arr.flat[i] set to v, and leaves
    arr as it found it; element i's probes are its value +_FD_STEP, then
    -_FD_STEP.  Returns the worst relative error, with a unit floor so
    near-zero gradients compare absolutely: 0.0 for no checks, inf after
    the first chunk that holds a non-finite analytic element or probe loss.

    The chunks, in check order, are dealt to W = `_probe_workers(cpus,
    chunks)` stripes: worker w takes chunks w, w+W, ... in order and stops
    after its first chunk that scores inf.  The calling process runs stripe
    0, and a forked child each other stripe (or the caller, if the fork
    fails).  A child sends its stripe's worst error, or the exception it
    raised, back through a pipe and leaves by `os._exit`; every pipe is
    read and every child reaped before this returns or raises.  The result
    is the max over the stripes, so it does not depend on W.  A side effect
    of `losses` in a child is lost with the child, so a caller whose
    `losses` has one it needs passes cpus=1, which forks nothing.
    """
    chunks = [(arr, flat, range(start, min(start + _PROBE_CHUNK, arr.size)))
              for arr, analytic in checks
              for flat in [np.asarray(analytic, dtype=np.float64).reshape(-1)]
              for start in range(0, arr.size, _PROBE_CHUNK)]
    w = _probe_workers(cpus if hasattr(os, "fork") else 1, len(chunks))

    def stripe(k):
        worst = 0.0
        for arr, flat, elems in chunks[k::w]:
            values = np.asarray(losses(arr, [(i, v) for i in elems for v in (
                arr.flat[i] + _FD_STEP, arr.flat[i] - _FD_STEP)]))
            a = flat[elems]
            if not (np.isfinite(values).all() and np.isfinite(a).all()):
                return float("inf")
            numeric = (values[0::2] - values[1::2]) / (2.0 * _FD_STEP)
            err = abs(a - numeric) / np.maximum(np.maximum(abs(a), abs(numeric)), 1.0)
            worst = float(max(worst, *err))
        return worst

    local, children = [0], []
    try:
        for k in range(1, w):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                local.append(k)
                continue
            if pid == 0:
                _run_stripe_in_child(stripe, k, write)
            os.close(write)
            children.append((pid, read))
        results = [stripe(k) for k in local]
    finally:
        sent = []
        for pid, read in children:
            try:
                with os.fdopen(read, "rb") as pipe:
                    sent.append(pipe.read())
            finally:
                os.waitpid(pid, 0)
    for (pid, _), data in zip(children, sent):
        try:
            result = pickle.loads(data)  # bytes a child of this call wrote
        except (EOFError, pickle.UnpicklingError):
            raise RuntimeError(f"gradient check worker {pid} sent no result") from None
        if isinstance(result, BaseException):
            raise result
        results.append(result)
    return max(results)


def _run_stripe_in_child(stripe, k, write):
    """Write stripe(k), or what it raised, pickled to the fd `write`, then
    end this forked process without returning into the caller's stack."""
    try:
        try:
            result = stripe(k)
        except BaseException as exc:  # sent to the parent, which raises it
            result = exc
        with os.fdopen(write, "wb") as pipe:
            pickle.dump(result, pipe)
    finally:
        os._exit(0)


def gradcheck(loss_fn, checks):
    """Worst disagreement between analytic gradients and central differences:
    `_worst_error` of checks, (array, analytic gradient) pairs, calling
    loss_fn() once per probe to re-evaluate the scalar loss from the checked
    arrays' current contents.  A non-finite probe loss yields inf once the
    rest of its chunk is probed; if loss_fn raises, the probed element is
    restored.  Every probe runs in the calling process: loss_fn is the
    caller's code and may have side effects, such as a training batchnorm
    folding its running statistics, which a forked worker would drop."""
    def losses(arr, probes):
        out = []
        for i, v in probes:
            orig, arr.flat[i] = arr.flat[i], v
            try:
                out.append(loss_fn())
            finally:
                arr.flat[i] = orig
        return out

    return _worst_error(checks, losses)
