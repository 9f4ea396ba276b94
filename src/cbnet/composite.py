"""Composite backbone assembly.

K identically-specced backbones run left to right; each stage of backbone
k >= 2 receives, besides its own previous stage, features from the
previous backbone routed through learned composite connections (1x1 conv
+ batchnorm + nearest resize).  Which stages are linked is set by the
composite style:

    ahlc  stage l gets the previous backbone's stage l        (one g per l)
    slc   stage l gets the previous backbone's stage l-1, added directly
    allc  stage l gets the previous backbone's stage l+1      (absent at l=L)
    dhlc  stage l gets every previous-backbone stage i >= l   (one g per (l, i))

That rule lives in one place, the link table: one (k, l, i) triple per
term, in forward order, meaning "stage l of backbone k adds the previous
backbone's stage-i output".  `CBNet` builds it from its config; the
forward pass, the build and the key lists read it, and the FLOP count is
summed over the ops that forward runs.

Only the last backbone's stage outputs (stages 2..L) are exposed as the
feature pyramid.  Weight sharing points every backbone at one parameter
store while composite connections stay per-connection; the accelerated
variant (two backbones) drops the assistant's stem and first two stages
and feeds its stage 3 from the lead's stage-2 output, so its table links
lead stages 3..L to assistant stages 3..L only.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from . import engine
from .backbone import (
    Backbone,
    BackboneSpec,
    Module,
    _init_bn,
    _init_conv,
    _learnables,
    build_backbone,
)
from .engine import (
    ADD,
    BatchNormLayer,
    ConfigError,
    Conv2dLayer,
    ShapeError,
    Tape,
    Tensor4,
    UpsampleLayer,
)


class CompositeStyle(enum.Enum):
    AHLC = "ahlc"
    SLC = "slc"
    ALLC = "allc"
    DHLC = "dhlc"


@dataclass(frozen=True)
class CBNetConfig:
    num_backbones: int = 2
    style: CompositeStyle = CompositeStyle.AHLC
    share_weights: bool = False
    accelerated: bool = False
    spec: BackboneSpec = field(default_factory=BackboneSpec)

    def __post_init__(self):
        if self.num_backbones < 1:
            raise ConfigError(f"need at least one backbone, got {self.num_backbones}")
        if self.accelerated:
            if self.num_backbones != 2:
                raise ConfigError("accelerated variant requires exactly 2 backbones")
            if self.spec.num_stages < 3:
                raise ConfigError("accelerated variant needs at least 3 stages")


class CompositeConnection(Module):
    """g(.): 1x1 channel-reducing conv + batchnorm + nearest resize to the
    spatial size of the tensor the result is added to."""

    def __init__(self, conv, bn, target_hw):
        if conv.kernel != 1:
            raise ConfigError("composite connection conv must be 1x1")
        if bn.channels != conv.c_out:
            raise ShapeError(
                f"composite bn channels {bn.channels} != conv c_out {conv.c_out}")
        self.conv = Conv2dLayer(conv)
        self.bn = BatchNormLayer(bn)
        self.upsample = UpsampleLayer(target_hw)
        self.target_hw = tuple(target_hw)

    def run(self, tape, source):
        x = tape.run(self.conv, source)
        x = tape.run(self.bn, x)
        return tape.run(self.upsample, x)

    def children(self):
        return [("conv", self.conv), ("bn", self.bn)]


@dataclass
class FeaturePyramid:
    """Lead backbone stage outputs for stages 2..L."""

    levels: list

    def level(self, l) -> Tensor4:
        return self.levels[l - 2]

    @property
    def last(self) -> Tensor4:
        return self.levels[-1]


# previous-backbone source stages of receiving stage l, before dropping absent ones
_SOURCES = {
    CompositeStyle.AHLC: lambda l, L: [l],
    CompositeStyle.SLC: lambda l, L: [l - 1],
    CompositeStyle.ALLC: lambda l, L: [l + 1],
    CompositeStyle.DHLC: lambda l, L: range(l, L + 1),
}


def _links(cfg: CBNetConfig):
    """The link table: (k, l, i) triples in forward order.

    Stage 1 takes no links, and a source past stage L is absent (allc at
    l = L).  The accelerated assistant runs only stages 3..L, and only
    after the lead's stage 2, so its links feed lead stages 3..L from
    assistant stages 3..L.
    """
    L = cfg.spec.num_stages
    first = 3 if cfg.accelerated else 1
    return [(k, l, i) for k in range(2, cfg.num_backbones + 1)
            for l in range(max(2, first), L + 1)
            for i in _SOURCES[cfg.style](l, L) if first <= i <= L]


def _connection_key(cfg, link):
    return link if cfg.style is CompositeStyle.DHLC else link[:2]


def connection_keys(cfg: CBNetConfig):
    """Learned composite-connection keys in build order: (k, l) for ahlc/allc,
    (k, l, i) for dhlc, nothing for slc (it adds directly)."""
    if cfg.style is CompositeStyle.SLC:
        return []
    return [_connection_key(cfg, link) for link in _links(cfg)]


def direct_add_keys(cfg: CBNetConfig):
    """(k, l) pairs where slc adds the previous backbone's stage l-1 directly."""
    if cfg.style is not CompositeStyle.SLC:
        return []
    return [link[:2] for link in _links(cfg)]


class CBNet(Module):
    def __init__(self, config: CBNetConfig, backbones, connections):
        self.config = config
        self.backbones = list(backbones)
        self.connections = dict(connections)
        self.links = _links(config)

    @property
    def lead(self) -> Backbone:
        return self.backbones[-1]

    def forward(self, image: Tensor4, tape: Tape) -> FeaturePyramid:
        spec = self.config.spec
        spec.check_image(image)
        L = spec.num_stages
        if self.config.accelerated:
            # lead stem and stages 1-2, then the assistant's stages 3..L from
            # the lead's stage-2 output, then the lead's stages 3..L
            x = self.lead.stem.run(tape, image)
            outs = self._run_stages(tape, 2, x, range(1, 3), {})
            assistant = self._run_stages(tape, 1, outs[2], range(3, L + 1), {})
            outs.update(self._run_stages(tape, 2, outs[2], range(3, L + 1), assistant))
        else:
            outs = {}
            for k, bb in enumerate(self.backbones, 1):
                outs = self._run_stages(tape, k, bb.stem.run(tape, image), range(1, L + 1), outs)
        return FeaturePyramid([outs[l] for l in range(2, L + 1)])

    def _run_stages(self, tape, k, x, stages, prev):
        """Chain `stages` of backbone k from input x, adding each stage's links
        from prev (stage -> previous-backbone output); returns stage -> output."""
        bb = self.backbones[k - 1]
        direct = self.config.style is CompositeStyle.SLC
        outs = {}
        for l in stages:
            for link in self.links:
                if link[0] == k and link[1] == l:
                    src = prev[link[2]]
                    if not direct:
                        src = self.connections[_connection_key(self.config, link)].run(tape, src)
                    x = tape.run(ADD, x, src)
            x = outs[l] = bb.stage(l).run(tape, x)
        return outs

    def children(self):
        return [(f"b{k}", bb) for k, bb in enumerate(self.backbones, 1)] + [
            ("g." + ".".join(str(part) for part in key), conn)
            for key, conn in self.connections.items()]


class WithHead(Module):
    """A net and its head, trained, saved and loaded together; `state()` is
    the `cbnet train` weight file, the net's tensors, then the head's as
    "head.*"."""

    def __init__(self, net, head):
        self.net, self.head = net, head

    def children(self):
        return self.net.children() + [("head", self.head)]


def build_cbnet(cfg: CBNetConfig, seed: int) -> CBNet:
    """Assemble K backbones plus the style's composite connections.

    Weight sharing builds one backbone and points every slot at it (the
    accelerated assistant shares the lead's stage objects); connections get
    independent parameters either way.
    """
    rng = np.random.default_rng(seed)
    bseeds = [int(s) for s in rng.integers(0, 2 ** 63 - 1, size=cfg.num_backbones)]
    spec = cfg.spec
    if cfg.accelerated:
        if cfg.share_weights:
            lead = build_backbone(spec, bseeds[-1])
            asst = Backbone(spec, None, lead.stages[2:], first_stage=3)
        else:
            asst = build_backbone(spec, bseeds[0], first_stage=3)
            lead = build_backbone(spec, bseeds[-1])
        backbones = [asst, lead]
    elif cfg.share_weights:
        backbones = [build_backbone(spec, bseeds[0])] * cfg.num_backbones
    else:
        backbones = [build_backbone(spec, s) for s in bseeds]

    connections = {}
    for link in _links(cfg):
        k, l, i = link
        c_src = backbones[k - 2].stage(i).conv2.params.c_out
        c_dst = backbones[k - 1].stage(l - 1).conv2.params.c_out
        if cfg.style is CompositeStyle.SLC:
            # direct addition: the source must match the receiving stage input
            if c_src != c_dst:
                raise ShapeError(f"slc add at (k={k}, l={l}): {c_src} vs {c_dst} channels")
            continue
        conv = _init_conv(rng, c_src, c_dst, 1, stride=1, pad=0)
        connections[_connection_key(cfg, link)] = CompositeConnection(
            conv, _init_bn(c_dst), spec.stage_hw(l - 1))
    return CBNet(cfg, backbones, connections)


def cbnet_forward(net: CBNet, image: Tensor4) -> FeaturePyramid:
    """Forward-only pass; returns the lead feature pyramid.

    The tape records nothing, so only the pyramid and the stage outputs
    later stages still read stay alive.  The outputs are bit-identical to
    a recording `net.forward`: the same layers run in the same order.
    """
    tape = Tape()
    tape.recording = False
    return net.forward(image, tape)


def set_mode(net: CBNet, mode: str):
    """Flip every batchnorm in the model between training and inference."""
    if mode not in ("training", "inference"):
        raise ConfigError(f"unknown mode {mode!r}")
    for p in net.bn_params():
        p.mode = mode


def force_zero_composites(net: CBNet):
    """Make every composite contribution exactly zero (test/diagnostic mode).

    The modules zeroed are the learned connections, plus under slc (which
    has none) the assistant backbones, whose stage outputs then become 0.
    In each, every tensor but gamma becomes 0 and running_var 1, and every
    batchnorm goes to inference mode.
    """
    modules = list(net.connections.values())
    if net.config.style is CompositeStyle.SLC and net.config.num_backbones > 1:
        if net.config.share_weights:
            raise ConfigError("cannot zero slc assistants under weight sharing")
        modules += net.backbones[:-1]
    for module in modules:
        for name, value in module.state():
            if not name.endswith(".gamma"):
                value[:] = 1.0 if name.endswith(".running_var") else 0.0
        for p in module.bn_params():
            p.mode = "inference"


# -- accounting ----------------------------------------------------------------


def param_count(model) -> int:
    """Learned parameters in unique storage (shared arrays counted once).

    Works for any Module: a CBNet, a Backbone, a Head.
    """
    return sum(value.size for _, value, _ in model.unique_learnables())


def flop_count(net: CBNet, input_dims) -> int:
    """Multiply-add accounting of one forward pass at the given input dims.

    The count is summed over the ops that `net.forward` runs on one zero
    sample of dims (1, *input_dims[1:]): a conv counts 2*c_in*k^2 per
    output element, and every other op (batchnorm, relu, add, upsample)
    one per output element.  Every op scales with the batch, so the total
    is that sum times n = input_dims[0].  Dims the spec does not accept
    raise ShapeError.  Batchnorm runs in inference mode, and every mode is
    restored afterwards, so no running statistic moves.
    """
    n = int(input_dims[0])
    image = Tensor4(np.zeros((1, *input_dims[1:])))
    old_modes = [(p, p.mode) for p in net.bn_params()]
    set_mode(net, "inference")
    try:
        # the class's forward on an engine.Tape: a tracer may replace this
        # module's `Tape` and the instance's `forward`, and must not see this pass
        tape = engine.Tape()
        type(net).forward(net, image, tape)
    finally:
        for p, mode in old_modes:
            p.mode = mode
    total = 0
    for layer, _, y, _ in tape.steps:
        size = y.data.size
        if isinstance(layer, Conv2dLayer):
            p = layer.params
            size *= 2 * p.c_in * p.kernel * p.kernel
        total += size
    return n * total


# -- weight application ---------------------------------------------------------


def state_dict(net: CBNet):
    """Ordered name -> array mapping of all weights and running stats."""
    return dict(net.state())


def apply_state(net: CBNet, named, head=None):
    """Copy a loaded CBNW mapping into the model, in place.

    A single-backbone file (names starting with "stem.") is replicated
    into every backbone, emulating initialization from a pretrained single
    backbone; connections keep their current values.  Any other file must
    cover the net, and the head too when `head` is given and the file has
    "head.*" entries.  Without `head` those entries are ignored; any other
    name the model lacks is rejected, and so are differing copies of one
    shared array.  All of this is checked before anything is copied, so a
    mismatched file leaves the model untouched.
    """
    if any(name.startswith("stem.") for name in named):
        targets = [pair for bb in net.backbones for pair in bb.state()]
    elif head is not None and any(name.startswith("head.") for name in named):
        targets = list(WithHead(net, head).state())
    else:
        targets = list(net.state())
    held = {name for name, _ in targets}
    for name in named:
        if name not in held and (head is not None or not name.startswith("head.")):
            raise WeightsMismatch(f"tensor {name!r} does not exist in this model")
    first = {}  # id(array) -> first name; a shared array has one per backbone
    for name, dest in targets:
        if name not in named:
            raise WeightsMismatch(f"file lacks model tensor {name!r}")
        if dest.shape != named[name].shape:
            raise WeightsMismatch(
                f"tensor {name!r}: file shape {named[name].shape} != model shape {dest.shape}")
        other = first.setdefault(id(dest), name)
        if other != name and not np.array_equal(named[other], named[name]):
            raise WeightsMismatch(f"tensors {other!r} and {name!r} share one array "
                                  "in this model but differ in the file")
    for name, dest in targets:
        dest[:] = named[name]


class WeightsMismatch(ValueError):
    """Loaded tensors do not line up with the model being filled."""


# -- verification ----------------------------------------------------------------


_PROBE_CHUNK = 32  # elements probed per stacked replay, two probes each


def _readers(steps, arr):
    """Indices of the steps that read arr, as an input tensor or through
    their layer's parameters; every step when none is known to (a wrapping
    layer may hide its parameters)."""
    found = set()
    for s, (layer, xs, _, _) in enumerate(steps):
        params = getattr(layer, "params", None)
        if any(x.data is arr for x in xs) or (
                params is not None and any(v is arr for _, v, _ in _learnables(params))):
            found.add(s)
    return found or set(range(len(steps)))


def model_gradcheck(net: CBNet, image: Tensor4, loss_seed=0) -> float:
    """Finite-difference check of the whole model.

    The scalar under test is a fixed random projection of all pyramid
    levels; every unique learned parameter and the input image are
    perturbed.  Batchnorm runs in training mode (the path the trainer
    uses).  The recorded forward folds its batch statistics into the
    running stats, so they are snapshotted and restored; probe stacks never
    touch them.

    Probes (+step, then -step, per element) replay the recorded tape
    as one stack of up to _PROBE_CHUNK elements (`Tape.replay`).  Ops that
    do not depend on the perturbed array keep their recorded outputs,
    which is exactly what a fresh forward would compute, since
    training-mode batchnorm outputs do not depend on the running stats.
    The check stops after the first chunk with a non-finite probe loss.
    """
    snapshot = [(p, p.running_mean.copy(), p.running_var.copy()) for p in net.bn_params()]
    old_modes = [(p, p.mode) for p in net.bn_params()]
    set_mode(net, "training")
    rng = np.random.default_rng(loss_seed)
    try:
        for _, _, grad in net.unique_learnables():
            grad[:] = 0.0
        tape = Tape()
        pyramid = net.forward(image, tape)
        coeffs = [rng.standard_normal(lvl.dims) for lvl in pyramid.levels]
        tape.backward(list(zip(pyramid.levels, coeffs)))
        checks = [(value, grad.copy()) for _, value, grad in net.unique_learnables()]
        checks.append((image.data, tape.grads[image]))
        recorded = [(c * lvl.data).sum() for c, lvl in zip(coeffs, pyramid.levels)]

        worst = 0.0
        for arr, analytic in checks:
            readers = _readers(tape.steps, arr)
            flat = analytic.reshape(-1)
            for start in range(0, arr.size, _PROBE_CHUNK):
                elems = range(start, min(start + _PROBE_CHUNK, arr.size))
                probes = [(i, v) for i in elems
                          for v in (arr.flat[i] + engine._FD_STEP, arr.flat[i] - engine._FD_STEP)]
                stacked = tape.replay(arr, probes, readers, pyramid.levels)
                # per probe, the same sums as a fresh forward's projection
                terms = [(c.reshape(-1) * stacked[lvl].data.reshape(len(probes), -1)).sum(axis=1)
                         if lvl in stacked else term
                         for c, lvl, term in zip(coeffs, pyramid.levels, recorded)]
                losses = np.broadcast_to(sum(terms), len(probes))
                for j, i in enumerate(elems):
                    err = engine._central_error(flat[i], losses[2 * j], losses[2 * j + 1])
                    if err == float("inf"):
                        return err
                    if err > worst:
                        worst = float(err)
        return worst
    finally:
        for _, _, grad in net.unique_learnables():
            grad[:] = 0.0
        for p, mean, var in snapshot:
            p.running_mean[:] = mean
            p.running_var[:] = var
        for p, mode in old_modes:
            p.mode = mode
