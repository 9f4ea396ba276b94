"""Independent oracles shared by the test modules.

Everything here recomputes expectations from first principles (closed-form
counting, straight-line evaluation of the composition rules) without going
through the graph machinery under test.
"""

import os

import numpy as np
import pytest

from cbnet import (
    CBNetConfig,
    CompositeStyle,
    Tape,
    Tensor4,
    add,
    batchnorm,
    cbnet_forward,
    conv2d,
    gradcheck,
    relu,
    set_mode,
    upsample_nearest,
)


def assert_no_child_left():
    """No child process of this one is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# -- config space ------------------------------------------------------------


def config_sweep(spec):
    """Every config at `spec`: K in 1..3 x style x sharing, and accelerated
    where it is defined (K = 2)."""
    for k in (1, 2, 3):
        for style in CompositeStyle:
            for share in (False, True):
                for accelerated in ((False, True) if k == 2 else (False,)):
                    yield CBNetConfig(num_backbones=k, style=style, share_weights=share,
                                      accelerated=accelerated, spec=spec)


def cfg_id(cfg):
    return (f"{cfg.num_backbones}-{cfg.style.value}"
            f"{'-shared' if cfg.share_weights else ''}"
            f"{'-accelerated' if cfg.accelerated else ''}")


# -- parameter counting ------------------------------------------------------


def conv_params_oracle(c_in, c_out, k):
    return c_out * c_in * k * k + c_out


def bn_params_oracle(c):
    return 2 * c


def backbone_params_oracle(spec, first_stage=1):
    total = 0
    if first_stage == 1:
        total += conv_params_oracle(spec.in_channels, spec.stem_channels, 3)
        total += bn_params_oracle(spec.stem_channels)
    for l in range(first_stage, spec.num_stages + 1):
        c_in = spec.stem_channels if l == 1 else spec.stage_channels[l - 2]
        c = spec.stage_channels[l - 1]
        total += conv_params_oracle(c_in, c, 3) + bn_params_oracle(c)
        total += 2 * (conv_params_oracle(c, c, 3) + bn_params_oracle(c))
    return total


def connection_pairs_oracle(cfg):
    """(receiver stage l, source stage i) pairs per receiving backbone,
    derived straight from the composition rules; slc pairs are direct
    additions.  The accelerated assistant runs only stages 3..L, after the
    lead's stage 2, so it links only those stages."""
    L = cfg.spec.num_stages
    lmin = 3 if cfg.accelerated else 2
    if cfg.style is CompositeStyle.AHLC:
        return [(l, l) for l in range(lmin, L + 1)]
    if cfg.style is CompositeStyle.ALLC:
        return [(l, l + 1) for l in range(lmin, L)]
    if cfg.style is CompositeStyle.DHLC:
        return [(l, i) for l in range(lmin, L + 1) for i in range(l, L + 1)]
    first_source = 3 if cfg.accelerated else 1
    return [(l, l - 1) for l in range(lmin, L + 1) if l - 1 >= first_source]


def connection_params_oracle(cfg):
    if cfg.style is CompositeStyle.SLC:
        return 0
    total = 0
    receivers = cfg.num_backbones - 1
    for l, i in connection_pairs_oracle(cfg):
        c_src = cfg.spec.stage_channels[i - 1]
        c_dst = cfg.spec.stage_channels[l - 2]
        total += conv_params_oracle(c_src, c_dst, 1) + bn_params_oracle(c_dst)
    return receivers * total


# -- FLOP counting -------------------------------------------------------------


def flops_oracle(cfg, n):
    """FLOPs of one forward at batch n, in closed form from the spec and the
    composition rules: a conv counts 2*c_in*k^2 per output element, every
    other op (batchnorm, relu, add, upsample) one per output element."""
    spec = cfg.spec
    L = spec.num_stages
    h, w = spec.image_size

    def hw(l):
        return (h // 2 ** l) * (w // 2 ** l)

    def channels(l):
        return spec.stem_channels if l == 0 else spec.stage_channels[l - 1]

    def stage(l):
        c_in, c = channels(l - 1), channels(l)
        return 2 * 9 * c_in * c * hw(l) + 2 * (2 * 9 * c * c * hw(l)) + 7 * c * hw(l)

    stem = 2 * 9 * spec.in_channels * spec.stem_channels * h * w + 2 * spec.stem_channels * h * w
    full = stem + sum(stage(l) for l in range(1, L + 1))
    if cfg.accelerated:
        total = full + sum(stage(l) for l in range(3, L + 1))
    else:
        total = cfg.num_backbones * full
    for l, i in connection_pairs_oracle(cfg):
        c_dst, c_src = channels(l - 1), channels(i)
        link = c_dst * hw(l - 1)  # the add into stage l's input
        if cfg.style is not CompositeStyle.SLC:
            link += 2 * c_src * c_dst * hw(i) + c_dst * hw(i) + c_dst * hw(l - 1)
        total += (cfg.num_backbones - 1) * link
    return n * total


# -- im2col and col2im ---------------------------------------------------------


def im2col_oracle(x, k, stride, pad):
    """The (n, c·k·k, oh·ow) columns of x and (oh, ow), one strided slice
    copy of the `np.pad`-ded input per window offset (i, j)."""
    n, c, h, w = x.shape
    oh, ow = (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols = np.empty((n, c, k, k, oh, ow))
    for i in range(k):
        for j in range(k):
            cols[:, :, i, j] = xp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride]
    return cols.reshape(n, c * k * k, oh * ow), (oh, ow)


def col2im_oracle(g6, x_shape, stride, pad):
    """The input gradient from the per-tap column gradients g6, shaped
    (n, c, k, k, oh, ow): each tap (i, j) in turn is added into a zeroed
    padded buffer, then the padding is cropped off by a copy."""
    n, c, h, w = x_shape
    k, oh, ow = g6.shape[2], g6.shape[4], g6.shape[5]
    gxp = np.zeros((n, c, h + 2 * pad, w + 2 * pad))
    for i in range(k):
        for j in range(k):
            gxp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += g6[:, :, i, j]
    return np.ascontiguousarray(gxp[:, :, pad:pad + h, pad:pad + w])


# -- batchnorm backward --------------------------------------------------------


def bn_training_backward_oracle(x, p, grad_out, cache):
    """Training batchnorm's (input, gamma, beta) gradients from the
    (mu, istd, xhat) cache of its forward, each term of the input gradient
    in a fresh array and summed left to right."""
    (mu,), (istd,), xhat = cache
    grad_gamma = (grad_out * xhat).sum(axis=(0, 2, 3))
    grad_beta = grad_out.sum(axis=(0, 2, 3))
    gxhat = grad_out * p.gamma[None, :, None, None]
    n, _, h, w = x.shape
    m = float(n * h * w)
    xc = x - mu[None, :, None, None]
    gvar = (gxhat * xc).sum(axis=(0, 2, 3)) * (-0.5) * istd ** 3
    gmu = -(gxhat.sum(axis=(0, 2, 3))) * istd + gvar * (-2.0 / m) * xc.sum(axis=(0, 2, 3))
    grad_in = (gxhat * istd[None, :, None, None]
               + gvar[None, :, None, None] * (2.0 / m) * xc
               + gmu[None, :, None, None] / m)
    return grad_in, grad_gamma, grad_beta


# -- straight-line network evaluation -----------------------------------------


def eval_stem(stem, x):
    return relu(batchnorm(conv2d(x, stem.conv.params), stem.bn.params))


def eval_stage(stage, x):
    a = relu(batchnorm(conv2d(x, stage.down.params), stage.down_bn.params))
    h = relu(batchnorm(conv2d(a, stage.conv1.params), stage.bn1.params))
    h = batchnorm(conv2d(h, stage.conv2.params), stage.bn2.params)
    return relu(add(h, a))


def eval_connection(conn, x):
    y = batchnorm(conv2d(x, conn.conv.params), conn.bn.params)
    return upsample_nearest(y, conn.target_hw)


def backbone_oracle(bb, image):
    """Plain chain x^l = F^l(x^{l-1}) without the tape."""
    x = eval_stem(bb.stem, image)
    outs = []
    for l in range(1, bb.spec.num_stages + 1):
        x = eval_stage(bb.stage(l), x)
        outs.append(x)
    return [o.data for o in outs]


def _composite_input(net, k, l, inp, prev):
    """Add the previous backbone's contributions to the stage-l input of
    backbone k; prev maps stage -> output and lacks the stages it skipped."""
    L = net.config.spec.num_stages
    style = net.config.style
    if style is CompositeStyle.AHLC:
        sources = [(l, (k, l))]
    elif style is CompositeStyle.SLC:
        sources = [(l - 1, None)]
    elif style is CompositeStyle.ALLC:
        sources = [(l + 1, (k, l))] if l < L else []
    else:
        sources = [(i, (k, l, i)) for i in range(l, L + 1)]
    for i, key in sources:
        if i in prev:
            src = prev[i]
            inp = add(inp, src if key is None else eval_connection(net.connections[key], src))
    return inp


def pyramid_oracle(net, image):
    """Straight-line evaluation of the composition rules for every style,
    plain and accelerated; returns the lead stage outputs for stages 2..L
    as arrays."""
    cfg = net.config
    L = cfg.spec.num_stages
    if cfg.accelerated:
        asst, lead = net.backbones
        x1 = eval_stage(lead.stage(1), eval_stem(lead.stem, image))
        x2 = eval_stage(lead.stage(2), x1)
        prev, a = {}, x2
        for l in range(3, L + 1):
            a = prev[l] = eval_stage(asst.stage(l), a)
        outs = {1: x1, 2: x2}
        for l in range(3, L + 1):
            outs[l] = eval_stage(lead.stage(l), _composite_input(net, 2, l, outs[l - 1], prev))
        return [outs[l].data for l in range(2, L + 1)]
    prev = None
    for k in range(1, cfg.num_backbones + 1):
        bb = net.backbones[k - 1]
        x = eval_stem(bb.stem, image)
        outs = {}
        for l in range(1, L + 1):
            inp = x if l == 1 else outs[l - 1]
            if k >= 2 and l >= 2:
                inp = _composite_input(net, k, l, inp, prev)
            outs[l] = eval_stage(bb.stage(l), inp)
        prev = outs
    return [prev[l].data for l in range(2, L + 1)]


# -- whole-model gradient check -------------------------------------------------


def model_gradcheck_reference(net, image, loss_seed=0):
    """`model_gradcheck` as a full fresh forward per probe: the same loss
    projection, the same checked arrays in the same order, one gradcheck."""
    snapshot = [(p, p.running_mean.copy(), p.running_var.copy()) for p in net.bn_params()]
    rng = np.random.default_rng(loss_seed)

    def loss_fn():
        pyr = cbnet_forward(net, image)
        return float(sum((c * lvl.data).sum() for c, lvl in zip(coeffs, pyr.levels)))

    with set_mode(net, "training"):
        probe = cbnet_forward(net, image)
        coeffs = [rng.standard_normal(lvl.dims) for lvl in probe.levels]
        try:
            for _, _, grad in net.unique_learnables():
                grad[:] = 0.0
            tape = Tape()
            pyramid = net.forward(image, tape)
            tape.backward(list(zip(pyramid.levels, coeffs)))
            checks = [(value, grad.copy()) for _, value, grad in net.unique_learnables()]
            checks.append((image.data, tape.grads[image]))
            return gradcheck(loss_fn, checks)
        finally:
            for _, _, grad in net.unique_learnables():
                grad[:] = 0.0
            for p, mean, var in snapshot:
                p.running_mean[:] = mean
                p.running_var[:] = var


# -- misc ----------------------------------------------------------------------


def read_pgm(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    assert blob.startswith(b"P5\n"), "not a binary PGM"
    rest = blob[3:]
    dims, rest = rest.split(b"\n", 1)
    w, h = (int(t) for t in dims.split())
    maxval, payload = rest.split(b"\n", 1)
    assert maxval == b"255"
    assert len(payload) == w * h
    return w, h, np.frombuffer(payload, dtype=np.uint8).reshape(h, w)


def random_image(spec, seed):
    rng = np.random.default_rng(seed)
    return Tensor4(rng.uniform(0.0, 1.0, size=(1, spec.in_channels) + tuple(spec.image_size)))
