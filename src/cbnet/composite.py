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

That rule lives in one place, the stage-run table: (k, l, src, links) per
stage run in forward order, src the run that feeds it (None: the stem) and
each link a (source run, connection key) pair, the key None where slc adds
directly.  The forward pass is one loop over it; the build and keys read it.

Only the last backbone's stage outputs (stages 2..L) are exposed as the
feature pyramid.  Weight sharing points every backbone at one parameter
store while composite connections stay per-connection; the accelerated
variant (two backbones) drops the assistant's stem and first two stages,
so its table feeds the assistant's stage 3 from the lead's stage 2.
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
    as_int,
)


class CompositeStyle(enum.Enum):
    AHLC = "ahlc"
    SLC = "slc"
    ALLC = "allc"
    DHLC = "dhlc"


_ACCELERATED_FIRST = 3  # the accelerated assistant's first stage


@dataclass(frozen=True)
class CBNetConfig:
    num_backbones: int = 2
    style: CompositeStyle = CompositeStyle.AHLC
    share_weights: bool = False
    accelerated: bool = False
    spec: BackboneSpec = field(default_factory=BackboneSpec)

    def __post_init__(self):
        as_int(self.num_backbones, "CBNetConfig.num_backbones")
        for name, kinds, what in (("style", CompositeStyle, "a CompositeStyle"),
                                  ("share_weights", (bool, np.bool_), "a bool"),
                                  ("accelerated", (bool, np.bool_), "a bool"),
                                  ("spec", BackboneSpec, "a BackboneSpec")):
            value = getattr(self, name)
            if not isinstance(value, kinds):
                raise ConfigError(f"CBNetConfig.{name}: expected {what}, got {value!r}")
        if self.num_backbones < 1:
            raise ConfigError(f"need at least one backbone, got {self.num_backbones}")
        if self.accelerated:
            if self.num_backbones != 2:
                raise ConfigError("accelerated variant requires exactly 2 backbones")
            if self.spec.num_stages < _ACCELERATED_FIRST:
                raise ConfigError(f"accelerated variant needs at least {_ACCELERATED_FIRST} stages")


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


# (source stage i, connection key) links of receiving stage l of backbone k,
# before dropping absent sources; a None key adds the source directly
_LINKS = {
    CompositeStyle.AHLC: lambda k, l, L: [(l, (k, l))],
    CompositeStyle.SLC: lambda k, l, L: [(l - 1, None)],
    CompositeStyle.ALLC: lambda k, l, L: [(l + 1, (k, l))],
    CompositeStyle.DHLC: lambda k, l, L: [(i, (k, l, i)) for i in range(l, L + 1)],
}


def _stage_runs(cfg: CBNetConfig):
    """The stage-run table: (k, l, src, links) in forward order, a run being
    a (k, l) pair: "take run src's output (the stem's when src is None), add
    each (source run, key) link's output through connection `key`, or directly
    when key is None, then run stage l of backbone k".  A stage takes its own
    previous one, but the accelerated assistant's stage 3 takes the lead's
    stage 2.  Stage 1 takes no links, and a source the previous backbone does
    not run is absent (allc at l = L; below stage 3 when accelerated)."""
    K, L = cfg.num_backbones, cfg.spec.num_stages
    first = _ACCELERATED_FIRST if cfg.accelerated else 1
    runs = [(K, l, (K, l - 1) if l > 1 else None, ()) for l in range(1, first)]
    for k in range(1, K + 1):
        for l in range(first, L + 1):
            links = _LINKS[cfg.style](k, l, L) if k > 1 and l > 1 else ()
            links = tuple(((k - 1, i), key) for i, key in links if first <= i <= L)
            runs.append((k, l, (k if l > first else K, l - 1) if l > 1 else None, links))
    return runs


def _first_stages(cfg: CBNetConfig):
    """Backbone k's first stage, at index k - 1: the stage of its first run."""
    runs = _stage_runs(cfg)
    return [min(l for j, l, _, _ in runs if j == k) for k in range(1, cfg.num_backbones + 1)]


def _connection_shapes(cfg: CBNetConfig):
    """{key: (c_in, c_out, target_hw)} of each learned connection, in build
    order: a 1x1 conv from source stage i's channels to those of stage
    l - 1, the receiving stage's input, resized to that input's size."""
    spec = cfg.spec
    return {key: (spec.stage_out_channels(i), spec.stage_out_channels(l - 1),
                  spec.stage_hw(l - 1))
            for _, l, _, links in _stage_runs(cfg) for (_, i), key in links if key is not None}


def _connection_name(key):
    return "g." + ".".join(str(part) for part in key)


def connection_keys(cfg: CBNetConfig):
    """Learned composite-connection keys in build order: (k, l) for ahlc/allc,
    (k, l, i) for dhlc, nothing for slc (it adds directly)."""
    return list(_connection_shapes(cfg))


def direct_add_keys(cfg: CBNetConfig):
    """(k, l) pairs where slc adds the previous backbone's stage l-1 directly."""
    return [(k, l) for k, l, _, links in _stage_runs(cfg) for _, key in links if key is None]


class CBNet(Module):
    def __init__(self, config: CBNetConfig, backbones, connections):
        self.config = config
        self.backbones = list(backbones)
        self.connections = dict(connections)
        if len(self.backbones) != config.num_backbones:
            raise ConfigError(f"the config has {config.num_backbones} backbones, "
                              f"got {len(self.backbones)}")
        for k, (bb, first) in enumerate(zip(self.backbones, _first_stages(config)), 1):
            if bb.spec != config.spec:
                raise ConfigError(f"backbone b{k} has spec {bb.spec}, not the config's {config.spec}")
            if bb.first_stage != first:
                raise ConfigError(f"backbone b{k} starts at stage {bb.first_stage}, "
                                  f"not at the stage-run table's stage {first}")
        shapes = _connection_shapes(config)
        if set(self.connections) != set(shapes):
            raise ConfigError("connection keys do not match the config's composite links")
        for key, want in shapes.items():
            conn = self.connections[key]
            got = (conn.conv.params.c_in, conn.conv.params.c_out, conn.target_hw)
            if got != want:
                raise ConfigError(f"connection {_connection_name(key)} has (c_in, c_out, "
                                  f"target_hw) {got}, not the stage-run table's {want}")
        self._runs = _stage_runs(config)

    def forward(self, image: Tensor4, tape: Tape) -> FeaturePyramid:
        self.config.spec.check_image(image)
        outs = {}  # (k, l) -> stage output
        for k, l, src, links in self._runs:
            bb = self.backbones[k - 1]
            if src is None:  # backbones before k - 1 have fed every stage they feed
                outs = {run: y for run, y in outs.items() if run[0] >= k - 1}
            x = bb.stem.run(tape, image) if src is None else outs[src]
            for source, key in links:
                y = outs[source]
                x = tape.run(ADD, x, y if key is None else self.connections[key].run(tape, y))
            x = outs[k, l] = bb.stage(l).run(tape, x)  # frees the stage's input sum
        K, L = self.config.num_backbones, self.config.spec.num_stages
        return FeaturePyramid([outs[K, l] for l in range(2, L + 1)])

    def children(self):
        return [(f"b{k}", bb) for k, bb in enumerate(self.backbones, 1)] + [
            (_connection_name(key), conn) for key, conn in self.connections.items()]


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
    rng = np.random.default_rng(as_int(seed, "build_cbnet seed"))
    bseeds = [int(s) for s in rng.integers(0, 2 ** 63 - 1, size=cfg.num_backbones)]
    spec = cfg.spec
    firsts = _first_stages(cfg)
    if cfg.share_weights:
        # the first full backbone's seed (the lead's when accelerated), so the
        # shared weights are the ones that backbone has in the unshared net
        full = build_backbone(spec, bseeds[firsts.index(1)])
        backbones = [full if f == 1 else Backbone(spec, None, full.stages[f - 1:], f)
                     for f in firsts]
    else:
        backbones = [build_backbone(spec, s, f) for s, f in zip(bseeds, firsts)]

    connections = {}
    for key, (c_in, c_out, target_hw) in _connection_shapes(cfg).items():
        conv = _init_conv(rng, c_in, c_out, 1, stride=1, pad=0)
        connections[key] = CompositeConnection(conv, _init_bn(c_out), target_hw)
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


class set_mode:
    """Flip every batchnorm in a model between training and inference at
    the call.  `with set_mode(net, mode):` also gives each batchnorm its
    previous mode back when the block ends or raises."""

    def __init__(self, net: Module, mode: str):
        if mode not in ("training", "inference"):
            raise ConfigError(f"unknown mode {mode!r}")
        self._old = [(p, p.mode) for p in net.bn_params()]
        for p, _ in self._old:
            p.mode = mode

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for p, mode in self._old:
            p.mode = mode


def force_zero_composites(net: CBNet):
    """Make every composite contribution exactly zero (test/diagnostic mode).

    The modules zeroed are the learned connections, plus, where the
    stage-run table adds a source directly (slc), the assistant backbones,
    whose stage outputs then become 0; under weight sharing that would zero
    the lead too, so it raises.  In each module, every tensor but gamma
    becomes 0 and running_var 1, and every batchnorm goes to inference mode.
    """
    modules = list(net.connections.values())
    if direct_add_keys(net.config):
        if net.config.share_weights:
            raise ConfigError("cannot zero slc assistants under weight sharing")
        modules += net.backbones[:-1]
    for module in modules:
        for name, value in module.state():
            if not name.endswith(".gamma"):
                value[:] = 1.0 if name.endswith(".running_var") else 0.0
        set_mode(module, "inference")


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
    is that sum times n = input_dims[0].  A batch size that is not an
    integer of at least 1, or dims the spec does not accept, raise
    ShapeError.  Batchnorm runs in inference mode, scoped by `set_mode`,
    so no running statistic moves.
    """
    n = as_int(input_dims[0], "flop_count batch size", ShapeError)
    if n < 1:
        raise ShapeError(f"input dims {tuple(input_dims)} need a batch size of at least 1")
    image = Tensor4(np.zeros((1, *input_dims[1:])))
    with set_mode(net, "inference"):
        # the class's forward on an engine.Tape: a tracer may replace this
        # module's `Tape` and the instance's `forward`, and must not see this pass
        tape = engine.Tape()
        type(net).forward(net, image, tape)
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
    shared array, a NaN or inf, and a negative batchnorm `running_var`.
    All of this is checked before anything is copied, so a rejected file
    leaves the model untouched.
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
        if not np.isfinite(named[name]).all():
            raise ConfigError(f"tensor {name!r} holds NaN or inf")
        if name.endswith(".running_var") and np.any(named[name] < 0.0):
            raise ConfigError(f"tensor {name!r}: batchnorm running_var has negative entries")
        other = first.setdefault(id(dest), name)
        if other != name and not np.array_equal(named[other], named[name]):
            raise WeightsMismatch(f"tensors {other!r} and {name!r} share one array "
                                  "in this model but differ in the file")
    for name, dest in targets:
        dest[:] = named[name]


class WeightsMismatch(ValueError):
    """Loaded tensors do not line up with the model being filled."""


# -- verification ----------------------------------------------------------------


def model_gradcheck(net: CBNet, image: Tensor4, loss_seed=0) -> float:
    """Finite-difference check of the whole model.

    The scalar under test is a fixed random projection of all pyramid
    levels; every unique learned parameter and the input image are
    perturbed.  Batchnorm runs in training mode (the path the trainer
    uses), scoped by `set_mode`.  The recorded forward folds its batch
    statistics into the running stats, and so does a shared layer's
    per-probe forward, and the backward pass overwrites every gradient,
    so the running stats and the gradients are snapshotted and restored.

    The probes, the error and the stop rule are `engine._worst_error`'s,
    as in `engine.gradcheck`: inf after the first chunk with a non-finite
    analytic element or probe loss.  Its chunks are spread over forked
    workers, up to one per usable CPU: what a worker's replays change (a
    shared layer's folded statistics) is lost with it, and this check
    restores that anyway.  Each chunk's probes replay the recorded tape
    as one stack (`Tape.replay`, which finds the steps that read the
    probed array): the stem runs once on a stack of perturbed images, and
    a conv or batchnorm that reads a probed parameter reruns from its
    recorded input (a conv builds its columns once per rerun) or its
    recorded normalized input, once per sub-stack of probes
    whose copies of the array fit `engine._VARIANT_BYTES` (one probe at a
    time, written into the array itself, when one copy does not).  Its
    forward runs per probe only if it hides its params, when every step
    counts as a reader, or is shared and an earlier reader stacked its
    input.  Ops that do not depend on the perturbed array keep their
    recorded outputs, which is exactly what a fresh forward would compute,
    since training-mode batchnorm outputs do not depend on the running
    stats.
    """
    snapshot = [(a, a.copy()) for p in net.bn_params() for a in (p.running_mean, p.running_var)]
    snapshot += [(grad, grad.copy()) for _, _, grad in net.unique_learnables()]
    rng = np.random.default_rng(as_int(loss_seed, "model_gradcheck loss_seed"))
    with set_mode(net, "training"):
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

            def losses(arr, probes):
                stacked = tape.replay(arr, probes, pyramid.levels)
                # per probe, the same sums as a fresh forward's projection
                terms = [(c.reshape(-1) * stacked[lvl].data.reshape(len(probes), -1))
                         .sum(axis=1) if lvl in stacked else term
                         for c, lvl, term in zip(coeffs, pyramid.levels, recorded)]
                return np.broadcast_to(sum(terms), len(probes))

            return engine._worst_error(checks, losses, engine._usable_cpus())
        finally:
            for arr, saved in snapshot:
                arr[:] = saved
