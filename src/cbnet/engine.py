"""Dense 4-d tensor primitives with hand-written backward passes.

Everything runs in float64 and is deterministic: the same parameters and
inputs produce bit-identical results on every run.  There is no general
autograd; networks are static and record their op sequence on a `Tape`
during the forward pass, which is then walked in reverse for backprop.
Tensors are plain values with no shared mutable state, so independent
passes on disjoint model copies can run in parallel.
"""

from __future__ import annotations

import numpy as np

BN_MOMENTUM = 0.9
BN_EPS = 1e-5
_FD_STEP = 1e-5  # central-difference step of the gradient checks


class ShapeError(ValueError):
    """Tensor dimensions do not match what an operation requires."""


class ConfigError(ValueError):
    """A parameter container or network configuration is invalid."""


class Tensor4:
    """A (n, c, h, w) float64 array: a plain value that carries no gradient.

    `group` is None except on a stack of probes built by `Tape.replay`,
    where it is the batch size of one probe: training batchnorm then
    normalizes each run of `group` samples on its own.
    """

    __slots__ = ("data", "group")

    def __init__(self, data):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 4:
            raise ShapeError(f"Tensor4 needs 4 dims, got shape {arr.shape}")
        self.data = np.ascontiguousarray(arr)
        self.group = None

    @property
    def dims(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor4(dims={self.dims})"


class ConvParams:
    """Weights of a 2-d cross-correlation: weight (c_out, c_in, k, k), bias (c_out,).

    Kernels are square and either 1x1 or 3x3; `weight_grad` and `bias_grad`
    are allocated eagerly so shared parameters keep stable storage.
    """

    def __init__(self, weight, bias, stride=1, pad=0):
        self.weight = Tensor4(weight)
        c_out, c_in, kh, kw = self.weight.dims
        if kh != kw or kh not in (1, 3):
            raise ConfigError(f"conv kernel must be square 1x1 or 3x3, got {kh}x{kw}")
        bias = np.ascontiguousarray(np.asarray(bias, dtype=np.float64))
        if bias.shape != (c_out,):
            raise ShapeError(f"bias shape {bias.shape} does not match c_out={c_out}")
        if int(stride) < 1 or int(pad) < 0:
            raise ConfigError(f"invalid stride={stride} pad={pad}")
        self.bias = bias
        self.weight_grad = np.zeros_like(self.weight.data)
        self.bias_grad = np.zeros_like(bias)
        self.stride = int(stride)
        self.pad = int(pad)

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
        if np.any(running_var < 0.0):
            raise ConfigError("batchnorm running_var has negative entries")
        if mode not in ("training", "inference"):
            raise ConfigError(f"batchnorm mode must be training|inference, got {mode!r}")
        self.gamma = gamma
        self.beta = beta
        self.running_mean = running_mean
        self.running_var = running_var
        self.mode = mode
        self.gamma_grad = np.zeros_like(gamma)
        self.beta_grad = np.zeros_like(beta)

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


def _im2col(x, k, stride, pad):
    n, c, h, w = x.shape
    oh, ow = _conv_out_hw(h, w, k, stride, pad)
    if k == 1 and stride == 1 and pad == 0:
        # the input is its own column matrix; the tape never mutates a
        # recorded input, so the columns may alias it
        return x.reshape(n, c, h * w), oh, ow
    xp = x
    if pad:
        xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=np.float64)
        xp[:, :, pad:pad + h, pad:pad + w] = x
    cols = np.empty((n, c, k, k, oh, ow), dtype=np.float64)
    for i in range(k):
        for j in range(k):
            cols[:, :, i, j] = xp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride]
    return cols.reshape(n, c * k * k, oh * ow), oh, ow


def _conv_check(x, p):
    if x.shape[1] != p.c_in:
        raise ShapeError(
            f"conv2d: input shape {x.shape} does not match weight shape {p.weight.dims}")


def _conv_forward(x, p):
    _conv_check(x, p)
    n = x.shape[0]
    cols, oh, ow = _im2col(x, p.kernel, p.stride, p.pad)
    y = np.matmul(p.weight.data.reshape(p.c_out, -1), cols)
    y += p.bias[:, None]
    return y.reshape(n, p.c_out, oh, ow), cols


def _conv_backward(x, p, grad_out, cols):
    """Gradients w.r.t. (input, weight, bias); cols are x's columns."""
    n, c, h, w = x.shape
    k, s, pad = p.kernel, p.stride, p.pad
    oh, ow = grad_out.shape[2], grad_out.shape[3]
    g2 = np.ascontiguousarray(grad_out.reshape(n, p.c_out, oh * ow))
    grad_bias = g2.sum(axis=(0, 2))
    grad_weight = np.einsum("nof,nkf->ok", g2, cols, optimize=True).reshape(p.weight.dims)
    gcols = np.matmul(p.weight.data.reshape(p.c_out, -1).T, g2)
    g6 = gcols.reshape(n, c, k, k, oh, ow)
    gxp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=np.float64)
    for i in range(k):
        for j in range(k):
            gxp[:, :, i:i + s * oh:s, j:j + s * ow:s] += g6[:, :, i, j]
    grad_in = gxp[:, :, pad:pad + h, pad:pad + w] if pad else gxp
    return np.ascontiguousarray(grad_in), grad_weight, grad_bias


def conv2d(x: Tensor4, p: ConvParams) -> Tensor4:
    """Cross-correlate x with p.weight and add p.bias."""
    y, _ = _conv_forward(x.data, p)
    return Tensor4(y)


def conv2d_backward(x: Tensor4, p: ConvParams, grad_out):
    """Gradients of conv2d w.r.t. (input, weight, bias) given the output gradient."""
    _conv_check(x.data, p)
    cols, _, _ = _im2col(x.data, p.kernel, p.stride, p.pad)
    return _conv_backward(x.data, p, np.asarray(grad_out, dtype=np.float64), cols)


# ---------------------------------------------------------------------------
# batch normalization


def _bn_check(x, p):
    if x.shape[1] != p.channels:
        raise ShapeError(
            f"batchnorm: input shape {x.shape} does not match {p.channels} channels")


def _bn_normalize(x, p, group=None):
    """(mean, variance, 1/std, normalized x) of x taken as runs of `group`
    consecutive samples, all of x being one run when None.

    Each statistic has one row per run, shape (runs, c): the run's biased
    batch statistics in training mode, the running estimates in every row
    in inference mode.  The batch statistics are sum / m and the mean of
    the squared centred input, which is what np.mean and np.var compute,
    bit for bit, while centring x only once.  Nothing is mutated.
    """
    _bn_check(x, p)
    n, c, h, w = x.shape
    xg = x.reshape(-1 if group else 1, group or n, c, h, w)
    if p.mode == "training":
        m = xg.shape[1] * h * w
        mu = xg.sum(axis=(1, 3, 4)) / m
        xc = xg - mu[:, None, :, None, None]
        var = (xc * xc).sum(axis=(1, 3, 4)) / m
    else:
        mu = np.broadcast_to(p.running_mean, (len(xg), c))
        var = np.broadcast_to(p.running_var, (len(xg), c))
        xc = xg - mu[:, None, :, None, None]
    istd = 1.0 / np.sqrt(var + BN_EPS)
    return mu, var, istd, (xc * istd[:, None, :, None, None]).reshape(x.shape)


def _bn_forward(x, p, group=None):
    """Batchnorm of x; a probe stack (`group` set) is normalized group by
    group and never folds into the running statistics."""
    mu, var, istd, xhat = _bn_normalize(x, p, group)
    if p.mode == "training" and group is None:
        p.running_mean *= BN_MOMENTUM
        p.running_mean += (1.0 - BN_MOMENTUM) * mu[0]
        p.running_var *= BN_MOMENTUM
        p.running_var += (1.0 - BN_MOMENTUM) * var[0]
    y = p.gamma[None, :, None, None] * xhat + p.beta[None, :, None, None]
    return y, (mu, istd, xhat)


def _bn_backward(x, p, grad_out, cache):
    """Gradients w.r.t. (input, gamma, beta) of one unstacked batch (a
    single run), from the (mu, istd, xhat) that `_bn_normalize` gave it."""
    (mu,), (istd,), xhat = cache
    grad_gamma = (grad_out * xhat).sum(axis=(0, 2, 3))
    grad_beta = grad_out.sum(axis=(0, 2, 3))
    gxhat = grad_out * p.gamma[None, :, None, None]
    if p.mode == "training":
        n, _, h, w = x.shape
        m = float(n * h * w)
        xc = x - mu[None, :, None, None]
        gvar = (gxhat * xc).sum(axis=(0, 2, 3)) * (-0.5) * istd ** 3
        gmu = -(gxhat.sum(axis=(0, 2, 3))) * istd \
            + gvar * (-2.0 / m) * xc.sum(axis=(0, 2, 3))
        grad_in = (gxhat * istd[None, :, None, None]
                   + gvar[None, :, None, None] * (2.0 / m) * xc
                   + gmu[None, :, None, None] / m)
    else:
        grad_in = gxhat * istd[None, :, None, None]
    return grad_in, grad_gamma, grad_beta


def batchnorm(x: Tensor4, p: BatchNormParams) -> Tensor4:
    """Normalize x per channel; training mode also updates the running stats."""
    y, _ = _bn_forward(x.data, p)
    return Tensor4(y)


def batchnorm_backward(x: Tensor4, p: BatchNormParams, grad_out):
    """Gradients of batchnorm w.r.t. (input, gamma, beta)."""
    mu, _, istd, xhat = _bn_normalize(x.data, p)
    return _bn_backward(x.data, p, np.asarray(grad_out, dtype=np.float64), (mu, istd, xhat))


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
        y, cols = _conv_forward(x.data, self.params)
        return Tensor4(y), (x, cols)

    def backward(self, ctx, grad_out):
        x, cols = ctx
        grad_in, gw, gb = _conv_backward(x.data, self.params, grad_out, cols)
        self.params.weight_grad += gw
        self.params.bias_grad += gb
        return (grad_in,)


class BatchNormLayer:
    def __init__(self, params: BatchNormParams):
        self.params = params

    def forward(self, x):
        y, cache = _bn_forward(x.data, self.params, x.group)
        return Tensor4(y), (x, cache)

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
    pass (a tensor no step produced) to its gradient.

    A forward-only pass clears `recording` right after `Tape()`: `run`
    then executes each layer exactly as before but keeps no step, so every
    activation and im2col buffer is freed as soon as nothing else holds it.
    Such a tape cannot be backpropagated.
    """

    def __init__(self):
        self.steps = []
        self.recording = True
        self.grads = {}

    def run(self, layer, *xs) -> Tensor4:
        y, ctx = layer.forward(*xs)
        if self.recording:
            self.steps.append((layer, xs, y, ctx))
        return y

    def replay(self, arr, probes, readers, keep):
        """Re-run the steps that depend on arr for a stack of P probes,
        probe p setting arr.flat[i] = v for (i, v) = probes[p].

        A step in `readers` (the steps that read arr) runs once per probe
        on that probe's n-sample slice of its inputs, and its outputs are
        stacked into P*n samples.  A later step that reads a stacked output
        runs once on the stack, its unchanged operands repeated P times;
        the stack's `group` is n, so training batchnorm normalizes each
        probe on its own.  Other steps keep their recorded outputs.

        Returns {recorded output: stacked output} for the outputs in
        `keep`; any other stacked output is dropped after its last reader.
        """
        last = {}
        for s, (_, xs, y, _) in enumerate(self.steps):
            for t in (*xs, y):
                last[t] = s
        keep = set(keep)
        stacked = {}

        def probe_slice(t, p):
            st = stacked.get(t)
            if st is None:
                return t
            n = len(t.data)
            return Tensor4(st.data[p * n:(p + 1) * n])

        for s, (layer, xs, y, _) in enumerate(self.steps):
            if s in readers:
                outs = []
                for p, (i, v) in enumerate(probes):
                    orig = arr.flat[i]
                    arr.flat[i] = v
                    try:
                        out, _ = layer.forward(*(probe_slice(x, p) for x in xs))
                    finally:
                        arr.flat[i] = orig
                    outs.append(out.data)
                out = Tensor4(np.concatenate(outs))
            elif any(x in stacked for x in xs):
                out, _ = layer.forward(*(
                    stacked[x] if x in stacked else Tensor4(np.tile(x.data, (len(probes), 1, 1, 1)))
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


def _central_error(analytic, up, down):
    """Relative error of a central difference against the analytic value,
    with a unit absolute floor so near-zero gradients compare absolutely;
    inf when either probe loss is non-finite."""
    if not (np.isfinite(up) and np.isfinite(down)):
        return float("inf")
    numeric = (up - down) / (2.0 * _FD_STEP)
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1.0)


def gradcheck(loss_fn, checks):
    """Worst disagreement between analytic gradients and central differences.

    loss_fn() re-evaluates the scalar loss from the checked arrays' current
    contents; checks is a sequence of (array, analytic_gradient) pairs, each
    array perturbed element by element, _FD_STEP either way.  The error is
    `_central_error`'s.
    Zero checks give 0.0 by convention; a non-finite probe loss yields inf
    instead of raising.  If loss_fn raises, the probed element is restored.
    """
    worst = 0.0
    for arr, analytic in checks:
        flat = np.asarray(analytic, dtype=np.float64).reshape(-1)
        for i in range(arr.size):
            orig = arr.flat[i]
            try:
                arr.flat[i] = orig + _FD_STEP
                up = loss_fn()
                arr.flat[i] = orig - _FD_STEP
                down = loss_fn()
            finally:
                arr.flat[i] = orig
            rel = _central_error(flat[i], up, down)
            if rel == float("inf"):
                return rel
            if rel > worst:
                worst = float(rel)
    return worst
