"""Constructor and argument checks that no other test reaches: each case
calls one entry point with one bad value and expects the named error."""

import dataclasses
import os

import numpy as np
import pytest

from cbnet import (
    Backbone,
    BackboneSpec,
    BatchNormParams,
    CBNet,
    CBNetConfig,
    CompositeConnection,
    CompositeStyle,
    ConfigError,
    ConvParams,
    ShapeError,
    TOY_SPEC,
    Tensor4,
    build_backbone,
    build_cbnet,
    build_head,
    evaluate,
    flop_count,
    force_zero_composites,
    gen_dataset,
    loss_and_grads,
    model_gradcheck,
    set_mode,
    train,
    write_pgm,
)
from cbnet.task import build_task, render_sample, sub_seed


def _conv(c_out=2, c_in=2, k=1, bias=None, **kw):
    return ConvParams(np.zeros((c_out, c_in, k, k)),
                      np.zeros(c_out) if bias is None else bias, **kw)


def _bn(c=2, beta=None, **kw):
    return BatchNormParams(np.ones(c), np.zeros(c) if beta is None else beta,
                           np.zeros(c), np.ones(c), **kw)


def _task():
    """A one-backbone net, its head and one 24x24 sample."""
    return build_task(CBNetConfig(num_backbones=1, spec=BackboneSpec(
        num_stages=2, stem_channels=2, stage_channels=(2, 2), image_size=(24, 24))), 0, 1)


def _toy_net():
    return build_cbnet(CBNetConfig(num_backbones=2, spec=TOY_SPEC), 0)


def _net_from(cfg, **built):
    """CBNet(cfg, ...) with the backbones of a net built from cfg with the
    fields in `built` replaced, and cfg's own connections."""
    backbones = build_cbnet(dataclasses.replace(cfg, **built), 0).backbones
    return CBNet(cfg, backbones, build_cbnet(cfg, 0).connections)


CASES = {
    "backbone stage count": (
        lambda: Backbone(TOY_SPEC, None, [], first_stage=3),
        ConfigError, "backbone needs 1 stages from stage 3, got 0"),
    "backbone stage 1 without a stem": (
        lambda: Backbone(TOY_SPEC, None, build_backbone(TOY_SPEC, 0).stages),
        ConfigError, "stem must be present exactly when first_stage == 1"),
    "build_backbone first stage 0": (
        lambda: build_backbone(TOY_SPEC, 0, first_stage=0),
        ConfigError, "first_stage 0 out of range"),
    "build_backbone first stage past L": (
        lambda: build_backbone(TOY_SPEC, 0, first_stage=4),
        ConfigError, "first_stage 4 out of range"),
    "connection bn channels": (
        lambda: CompositeConnection(_conv(c_out=4), _bn(5), (4, 4)),
        ShapeError, "composite bn channels 5 != conv c_out 4"),
    "net connections": (
        lambda: CBNet(CBNetConfig(num_backbones=2, spec=TOY_SPEC),
                      build_cbnet(CBNetConfig(num_backbones=2, spec=TOY_SPEC), 0).backbones, {}),
        ConfigError, "connection keys do not match the config's composite links"),
    "net connections built for other stage channels": (
        lambda: CBNet(CBNetConfig(num_backbones=2, spec=TOY_SPEC), _toy_net().backbones,
                      build_cbnet(CBNetConfig(num_backbones=2, spec=dataclasses.replace(
                          TOY_SPEC, stage_channels=(4, 16, 16))), 0).connections),
        ConfigError, "connection g.2.2 has (c_in, c_out, target_hw) (16, 4, (8, 8)), "
                     "not the stage-run table's (8, 4, (8, 8))"),
    "net of 3 backbones under K=2": (
        lambda: _net_from(CBNetConfig(num_backbones=2, spec=TOY_SPEC), num_backbones=3),
        ConfigError, "the config has 2 backbones, got 3"),
    "net of 1 backbone under K=2": (
        lambda: _net_from(CBNetConfig(num_backbones=2, spec=TOY_SPEC), num_backbones=1),
        ConfigError, "the config has 2 backbones, got 1"),
    "net of a full assistant under accelerated": (
        lambda: _net_from(CBNetConfig(num_backbones=2, accelerated=True, spec=TOY_SPEC),
                          accelerated=False),
        ConfigError, "backbone b1 starts at stage 1, not at the stage-run table's stage 3"),
    "net of a truncated assistant under plain": (
        lambda: _net_from(CBNetConfig(num_backbones=2, spec=TOY_SPEC), accelerated=True),
        ConfigError, "backbone b1 starts at stage 3, not at the stage-run table's stage 1"),
    "net of TOY_SPEC backbones under the default spec": (
        lambda: _net_from(CBNetConfig(num_backbones=2), spec=TOY_SPEC),
        ConfigError, f"backbone b1 has spec {TOY_SPEC}, not the config's {BackboneSpec()}"),
    "config style not a CompositeStyle": (
        lambda: CBNetConfig(style="ahlc", spec=TOY_SPEC),
        ConfigError, "CBNetConfig.style: expected a CompositeStyle, got 'ahlc'"),
    "config backbone count a float": (
        lambda: CBNetConfig(num_backbones=2.5, spec=TOY_SPEC),
        ConfigError, "CBNetConfig.num_backbones: expected an integer, got 2.5"),
    "config backbone count a bool": (
        lambda: CBNetConfig(num_backbones=True, spec=TOY_SPEC),
        ConfigError, "CBNetConfig.num_backbones: expected an integer, got True"),
    "config share_weights a string": (
        lambda: CBNetConfig(share_weights="no", spec=TOY_SPEC),
        ConfigError, "CBNetConfig.share_weights: expected a bool, got 'no'"),
    "config accelerated a string": (
        lambda: CBNetConfig(accelerated="no", spec=TOY_SPEC),
        ConfigError, "CBNetConfig.accelerated: expected a bool, got 'no'"),
    "config accelerated an int": (
        lambda: CBNetConfig(accelerated=1, spec=TOY_SPEC),
        ConfigError, "CBNetConfig.accelerated: expected a bool, got 1"),
    "config spec not a BackboneSpec": (
        lambda: CBNetConfig(spec=(3, 4)),
        ConfigError, "CBNetConfig.spec: expected a BackboneSpec, got (3, 4)"),
    "spec stage channel a float": (
        lambda: BackboneSpec(stage_channels=(8.7, 16, 32, 64, 128)),
        ConfigError, "BackboneSpec.stage_channels: expected positive integers, got (8.7,"),
    "spec image size a float": (
        lambda: BackboneSpec(image_size=(64.9, 64)),
        ConfigError, "BackboneSpec.image_size: expected positive integers, got (64.9, 64)"),
    "spec stem channels a float": (
        lambda: BackboneSpec(stem_channels=2.5),
        ConfigError, "BackboneSpec.stem_channels: expected positive integers, got 2.5"),
    "spec stage count a float": (
        lambda: BackboneSpec(num_stages=5.0),
        ConfigError, "BackboneSpec.num_stages: expected positive integers, got 5.0"),
    "spec stem channels a bool": (
        lambda: BackboneSpec(stem_channels=True),
        ConfigError, "BackboneSpec.stem_channels: expected positive integers, got True"),
    "spec image size zero": (
        lambda: BackboneSpec(image_size=(0, 0)),
        ConfigError, "BackboneSpec.image_size: expected positive integers, got (0, 0)"),
    "spec image size a scalar": (
        lambda: BackboneSpec(image_size=64),
        ConfigError, "BackboneSpec.image_size: expected a sequence of positive integers, got 64"),
    "spec stage channels a scalar": (
        lambda: BackboneSpec(num_stages=1, stage_channels=8),
        ConfigError,
        "BackboneSpec.stage_channels: expected a sequence of positive integers, got 8"),
    "spec stage count a sequence": (
        lambda: BackboneSpec(num_stages=(5,)),
        ConfigError, "BackboneSpec.num_stages: expected one positive integer, got (5,)"),
    "spec image size of 3 entries": (
        lambda: BackboneSpec(image_size=(64, 64, 64)),
        ConfigError, "image_size must have 2 entries, got (64, 64, 64)"),
    "set_mode mode": (
        lambda: set_mode(build_cbnet(CBNetConfig(num_backbones=1, spec=TOY_SPEC), 0), "eval"),
        ConfigError, "unknown mode 'eval'"),
    "zero shared slc assistants": (
        lambda: force_zero_composites(build_cbnet(CBNetConfig(
            num_backbones=2, style=CompositeStyle.SLC, share_weights=True, spec=TOY_SPEC), 0)),
        ConfigError, "cannot zero slc assistants under weight sharing"),
    "conv bias shape": (
        lambda: _conv(bias=np.zeros(3)),
        ShapeError, "bias shape (3,) does not match c_out=2"),
    "conv stride": (
        lambda: _conv(stride=0),
        ConfigError, "invalid stride=0 pad=0"),
    "conv pad": (
        lambda: _conv(pad=-1),
        ConfigError, "invalid stride=1 pad=-1"),
    "conv stride a float": (
        lambda: _conv(stride=1.5),
        ConfigError, "ConvParams stride: expected an integer, got 1.5"),
    "conv pad a float": (
        lambda: _conv(pad=0.7),
        ConfigError, "ConvParams pad: expected an integer, got 0.7"),
    "conv weight NaN": (
        lambda: ConvParams(np.full((2, 2, 3, 3), np.nan), np.zeros(2)),
        ConfigError, "conv weight holds NaN or inf"),
    "conv bias inf": (
        lambda: _conv(bias=np.array([0.0, -np.inf])),
        ConfigError, "conv bias holds NaN or inf"),
    "flop_count batch a float": (
        lambda: flop_count(_toy_net(), (2.5, 3, 16, 16)),
        ShapeError, "flop_count batch size: expected an integer, got 2.5"),
    "flop_count batch a bool": (
        lambda: flop_count(_toy_net(), (True, 3, 16, 16)),
        ShapeError, "flop_count batch size: expected an integer, got True"),
    "render_sample image size a float": (
        lambda: render_sample(0, image_size=32.9),
        ConfigError, "render_sample image_size: expected an integer, got 32.9"),
    "gen_dataset image size a float": (
        lambda: gen_dataset(0, 2, image_size=32.9),
        ConfigError, "render_sample image_size: expected an integer, got 32.9"),
    "gen_dataset size a float": (
        lambda: gen_dataset(0, 2.5),
        ConfigError, "gen_dataset n: expected an integer, got 2.5"),
    "evaluate chunk a float": (
        lambda: evaluate(*_task(), chunk=2.5),
        ConfigError, "evaluate chunk: expected an integer, got 2.5"),
    "evaluate chunk a bool": (
        lambda: evaluate(*_task(), chunk=True),
        ConfigError, "evaluate chunk: expected an integer, got True"),
    "train steps a float": (
        lambda: train(*_task(), steps=1.5, lr=0.1, seed=0),
        ConfigError, "train steps: expected an integer, got 1.5"),
    "train steps a bool": (
        lambda: train(*_task(), steps=True, lr=0.1, seed=0),
        ConfigError, "train steps: expected an integer, got True"),
    "sub_seed seed a float": (
        lambda: sub_seed(2.7, 0),
        ConfigError, "sub_seed seed: expected an integer, got 2.7"),
    "sub_seed seed a bool": (
        lambda: sub_seed(True, 1),
        ConfigError, "sub_seed seed: expected an integer, got True"),
    "render_sample seed a float": (
        lambda: render_sample(2.5, 32),
        ConfigError, "render_sample seed: expected an integer, got 2.5"),
    "gen_dataset seed a float": (
        lambda: gen_dataset(2.5, 2, 32),
        ConfigError, "gen_dataset seed: expected an integer, got 2.5"),
    "build_backbone seed a float": (
        lambda: build_backbone(TOY_SPEC, 1.5),
        ConfigError, "build_backbone seed: expected an integer, got 1.5"),
    "build_cbnet seed a float": (
        lambda: build_cbnet(CBNetConfig(num_backbones=2, spec=TOY_SPEC), 2.5),
        ConfigError, "build_cbnet seed: expected an integer, got 2.5"),
    "build_cbnet seed a bool": (
        lambda: build_cbnet(CBNetConfig(num_backbones=2, spec=TOY_SPEC), False),
        ConfigError, "build_cbnet seed: expected an integer, got False"),
    "build_head seed a bool": (
        lambda: build_head(TOY_SPEC, True),
        ConfigError, "build_head seed: expected an integer, got True"),
    "train seed a float": (
        lambda: train(*_task(), steps=1, lr=0.1, seed=0.5),
        ConfigError, "train seed: expected an integer, got 0.5"),
    "model_gradcheck loss seed a float": (
        lambda: model_gradcheck(_toy_net(), Tensor4(np.zeros((1, 3, 16, 16))), loss_seed=1.5),
        ConfigError, "model_gradcheck loss_seed: expected an integer, got 1.5"),
    "bn beta shape": (
        lambda: _bn(beta=np.zeros(3)),
        ShapeError, "batchnorm beta shape (3,) != gamma shape (2,)"),
    "bn gamma NaN": (
        lambda: BatchNormParams([1.0, np.nan], np.zeros(2), np.zeros(2), np.ones(2)),
        ConfigError, "batchnorm gamma holds NaN or inf"),
    "bn beta inf": (
        lambda: _bn(beta=np.array([np.inf, 0.0])),
        ConfigError, "batchnorm beta holds NaN or inf"),
    "bn running_mean inf": (
        lambda: BatchNormParams(np.ones(2), np.zeros(2), [0.0, -np.inf], np.ones(2)),
        ConfigError, "batchnorm running_mean holds NaN or inf"),
    # NaN < 0 is False, so the negative-variance check alone lets NaN through
    "bn running_var NaN": (
        lambda: BatchNormParams(np.ones(2), np.zeros(2), np.zeros(2), [np.nan, 1.0]),
        ConfigError, "batchnorm running_var holds NaN or inf"),
    "bn running_var inf": (
        lambda: BatchNormParams(np.ones(2), np.zeros(2), np.zeros(2), [1.0, np.inf]),
        ConfigError, "batchnorm running_var holds NaN or inf"),
    "bn mode": (
        lambda: _bn(mode="eval"),
        ConfigError, "batchnorm mode must be training|inference, got 'eval'"),
    "loss objectness shape": (
        lambda: loss_and_grads(Tensor4(np.zeros((1, 1, 2, 2))), Tensor4(np.zeros((1, 3, 1, 1))),
                               np.zeros((1, 3, 3)), [0]),
        ShapeError, "objectness (1, 2, 2) does not match targets (1, 3, 3)"),
    "loss class logits": (
        lambda: loss_and_grads(Tensor4(np.zeros((1, 1, 2, 2))), Tensor4(np.zeros((1, 2, 1, 1))),
                               np.zeros((1, 2, 2)), [0]),
        ShapeError, "class logits (1, 2) / labels (1,) malformed"),
    "task image not square": (
        lambda: build_task(CBNetConfig(num_backbones=1, spec=BackboneSpec(
            num_stages=2, stem_channels=2, stage_channels=(2, 2), image_size=(24, 32))), 0, 1),
        ConfigError, "the synthetic task needs a square image size"),
    "pgm payload dims": (
        lambda: write_pgm(np.zeros((2, 2, 2)), os.devnull),
        ShapeError, "PGM payload must be 2-d, got shape (2, 2, 2)"),
}


@pytest.mark.parametrize("case", list(CASES))
def test_bad_argument_raises_a_named_error(case):
    call, error, fragment = CASES[case]
    with pytest.raises(error) as info:
        call()
    assert fragment in str(info.value)
