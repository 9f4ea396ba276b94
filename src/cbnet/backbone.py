"""Staged convolutional backbone: a stem plus L stride-2 stages.

Stage l halves the spatial dims of stage l-1, so stage l of an image of
side S produces a (stage_channels[l-1], S/2**l, S/2**l) map.  Parameters
are addressed by hierarchical names ("stem.conv.weight",
"stage3.bn1.gamma", ...) used for serialization, counting and sharing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .engine import (
    BatchNormLayer,
    BatchNormParams,
    ConfigError,
    Conv2dLayer,
    ConvParams,
    RELU,
    ADD,
    ShapeError,
    Tape,
    Tensor4,
)


@dataclass(frozen=True)
class BackboneSpec:
    num_stages: int = 5
    stem_channels: int = 8
    stage_channels: tuple = (8, 16, 32, 64, 128)
    image_size: tuple = (64, 64)
    in_channels: ClassVar[int] = 3  # images are RGB

    def __post_init__(self):
        object.__setattr__(self, "stage_channels", tuple(int(c) for c in self.stage_channels))
        object.__setattr__(self, "image_size", tuple(int(s) for s in self.image_size))
        if self.num_stages < 2:
            raise ConfigError(f"need at least 2 stages, got {self.num_stages}")
        if len(self.stage_channels) != self.num_stages:
            raise ConfigError(
                f"stage_channels has {len(self.stage_channels)} entries for "
                f"{self.num_stages} stages")
        if any(c < 1 for c in self.stage_channels) or self.stem_channels < 1:
            raise ConfigError("channel counts must be positive")
        h, w = self.image_size
        div = 2 ** self.num_stages
        if h % div or w % div:
            raise ConfigError(
                f"image size {h}x{w} not divisible by 2^{self.num_stages}")

    def stage_in_channels(self, l):
        return self.stem_channels if l == 1 else self.stage_channels[l - 2]

    def stage_out_channels(self, l):
        return self.stage_channels[l - 1]

    def stage_hw(self, l):
        h, w = self.image_size
        return h >> l, w >> l

    def check_image(self, image: Tensor4):
        _, c, h, w = image.dims
        if c != self.in_channels or (h, w) != self.image_size:
            raise ShapeError(
                f"image dims {image.dims} do not match spec "
                f"({self.in_channels}, {self.image_size})")


TOY_SPEC = BackboneSpec(num_stages=3, stem_channels=4, stage_channels=(4, 8, 8),
                        image_size=(16, 16))


def _learnables(p):
    if isinstance(p, ConvParams):
        return (("weight", p.weight.data, p.weight_grad), ("bias", p.bias, p.bias_grad))
    return (("gamma", p.gamma, p.gamma_grad), ("beta", p.beta, p.beta_grad))


class Module:
    """A named tree whose leaves are conv and batchnorm layers.

    Subclasses list their (name, child) pairs in `children()`, a child being
    a layer or another Module.  Every parameter walk derives from that one
    list, so the dotted names ("b2.stage3.bn1.gamma") and the weight-file
    order are fixed in one place.
    """

    def children(self):
        raise NotImplementedError

    def _blocks(self, prefix=""):
        """One [(dotted name, params), ...] list per module that owns layers."""
        own = []
        for name, child in self.children():
            if isinstance(child, Module):
                yield from child._blocks(f"{prefix}{name}.")
            else:
                own.append((prefix + name, child.params))
        if own:
            yield own

    def learnables(self):
        """Every (name, value, grad) triple; under sharing the same arrays
        appear once per namespace."""
        for block in self._blocks():
            for name, p in block:
                for field, value, grad in _learnables(p):
                    yield f"{name}.{field}", value, grad

    def unique_learnables(self):
        seen = set()
        for name, value, grad in self.learnables():
            if id(value) not in seen:
                seen.add(id(value))
                yield name, value, grad

    def state(self):
        """(name, array) pairs of everything a weight file holds: in each
        block the learnables first, then the batchnorm running stats."""
        for block in self._blocks():
            for name, p in block:
                for field, value, _ in _learnables(p):
                    yield f"{name}.{field}", value
            for name, p in block:
                if isinstance(p, BatchNormParams):
                    yield f"{name}.running_mean", p.running_mean
                    yield f"{name}.running_var", p.running_var

    def bn_params(self):
        """Every batchnorm parameter set, shared ones once."""
        seen = set()
        for block in self._blocks():
            for _, p in block:
                if isinstance(p, BatchNormParams) and id(p) not in seen:
                    seen.add(id(p))
                    yield p


class Stem(Module):
    """3x3 stride-1 conv + batchnorm + relu; keeps the input spatial size."""

    def __init__(self, conv: ConvParams, bn: BatchNormParams):
        self.conv = Conv2dLayer(conv)
        self.bn = BatchNormLayer(bn)

    def run(self, tape: Tape, x: Tensor4) -> Tensor4:
        x = tape.run(self.conv, x)
        x = tape.run(self.bn, x)
        return tape.run(RELU, x)

    def children(self):
        return [("conv", self.conv), ("bn", self.bn)]


class Stage(Module):
    """One stride-2 downsample conv followed by a two-conv residual block."""

    def __init__(self, down, down_bn, conv1, bn1, conv2, bn2):
        self.down = Conv2dLayer(down)
        self.down_bn = BatchNormLayer(down_bn)
        self.conv1 = Conv2dLayer(conv1)
        self.bn1 = BatchNormLayer(bn1)
        self.conv2 = Conv2dLayer(conv2)
        self.bn2 = BatchNormLayer(bn2)

    def run(self, tape: Tape, x: Tensor4) -> Tensor4:
        x = tape.run(self.down, x)
        x = tape.run(self.down_bn, x)
        x = tape.run(RELU, x)
        h = tape.run(self.conv1, x)
        h = tape.run(self.bn1, h)
        h = tape.run(RELU, h)
        h = tape.run(self.conv2, h)
        h = tape.run(self.bn2, h)
        h = tape.run(ADD, h, x)
        return tape.run(RELU, h)

    def children(self):
        return [("down.conv", self.down), ("down.bn", self.down_bn),
                ("conv1", self.conv1), ("bn1", self.bn1),
                ("conv2", self.conv2), ("bn2", self.bn2)]


class Backbone(Module):
    """Stem plus stages first_stage..L.  A truncated instance (first_stage > 1)
    has no stem and is only usable inside a composite network that feeds it."""

    def __init__(self, spec: BackboneSpec, stem, stages, first_stage=1):
        self.spec = spec
        self.stem = stem
        self.stages = list(stages)
        self.first_stage = first_stage
        expected = spec.num_stages - first_stage + 1
        if len(self.stages) != expected:
            raise ConfigError(
                f"backbone needs {expected} stages from stage {first_stage}, "
                f"got {len(self.stages)}")
        if (stem is None) != (first_stage > 1):
            raise ConfigError("stem must be present exactly when first_stage == 1")

    def stage(self, l) -> Stage:
        return self.stages[l - self.first_stage]

    def stage_numbers(self):
        return range(self.first_stage, self.spec.num_stages + 1)

    def forward(self, image: Tensor4, tape: Tape):
        """Chain the stem and every stage; returns all stage outputs x^1..x^L."""
        if self.first_stage != 1:
            raise ConfigError("truncated backbone cannot run from an image")
        self.spec.check_image(image)
        x = self.stem.run(tape, image)
        outs = []
        for l in self.stage_numbers():
            x = self.stage(l).run(tape, x)
            outs.append(x)
        return outs

    def children(self):
        stem = [("stem", self.stem)] if self.stem is not None else []
        return stem + [(f"stage{l}", self.stage(l)) for l in self.stage_numbers()]


def _init_conv(rng, c_in, c_out, k, stride, pad):
    fan_in = c_in * k * k
    fan_out = c_out * k * k
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    weight = rng.uniform(-bound, bound, size=(c_out, c_in, k, k))
    return ConvParams(weight, np.zeros(c_out), stride=stride, pad=pad)


def _init_bn(c):
    return BatchNormParams(np.ones(c), np.zeros(c), np.zeros(c), np.ones(c))


def _build_stage(rng, c_in, c_out):
    return Stage(
        _init_conv(rng, c_in, c_out, 3, stride=2, pad=1), _init_bn(c_out),
        _init_conv(rng, c_out, c_out, 3, stride=1, pad=1), _init_bn(c_out),
        _init_conv(rng, c_out, c_out, 3, stride=1, pad=1), _init_bn(c_out),
    )


def build_backbone(spec: BackboneSpec, seed: int, first_stage: int = 1) -> Backbone:
    """Deterministic build: conv weights are fan-scaled uniform draws from the
    seed, biases zero, batchnorm at gamma=1 beta=0 with running stats (0, 1)."""
    if first_stage < 1 or first_stage > spec.num_stages:
        raise ConfigError(f"first_stage {first_stage} out of range")
    rng = np.random.default_rng(seed)
    stem = None
    if first_stage == 1:
        stem = Stem(_init_conv(rng, spec.in_channels, spec.stem_channels, 3, 1, 1),
                    _init_bn(spec.stem_channels))
    stages = [_build_stage(rng, spec.stage_in_channels(l), spec.stage_out_channels(l))
              for l in range(first_stage, spec.num_stages + 1)]
    return Backbone(spec, stem, stages, first_stage)


def backbone_forward(b: Backbone, image: Tensor4):
    """Plain forward-only pass on a tape that records nothing; returns the
    list of stage outputs."""
    tape = Tape()
    tape.recording = False
    return b.forward(image, tape)
