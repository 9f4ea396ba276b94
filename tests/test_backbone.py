import numpy as np
import pytest

import helpers
from cbnet import (
    BackboneSpec,
    ConfigError,
    ShapeError,
    TOY_SPEC,
    Tensor4,
    backbone_forward,
    build_backbone,
    param_count,
)

SMALL = BackboneSpec(num_stages=2, stem_channels=4, stage_channels=(4, 8),
                     image_size=(16, 16))


def state_of(bb):
    return {name: value.copy() for name, value in bb.state()}


def test_build_is_deterministic():
    spec = BackboneSpec()
    a = state_of(build_backbone(spec, 123))
    b = state_of(build_backbone(spec, 123))
    assert a.keys() == b.keys()
    for name in a:
        assert np.array_equal(a[name], b[name]), name


def test_different_seeds_differ():
    spec = BackboneSpec()
    a = state_of(build_backbone(spec, 1))
    b = state_of(build_backbone(spec, 2))
    assert any(not np.array_equal(a[n], b[n]) for n in a)


@pytest.mark.parametrize("spec", [BackboneSpec(), SMALL,
                                  BackboneSpec(num_stages=3, stem_channels=4,
                                               stage_channels=(4, 8, 8),
                                               image_size=(32, 32))])
def test_param_count_matches_counting_oracle(spec):
    bb = build_backbone(spec, 5)
    assert param_count(bb) == helpers.backbone_params_oracle(spec)


def test_forward_shapes_default_spec():
    bb = build_backbone(BackboneSpec(), 0)
    outs = backbone_forward(bb, helpers.random_image(bb.spec, 1))
    assert [o.dims for o in outs] == [
        (1, 8, 32, 32), (1, 16, 16, 16), (1, 32, 8, 8), (1, 64, 4, 4), (1, 128, 2, 2)]


def test_spatial_halving_invariant():
    bb = build_backbone(SMALL, 3)
    outs = backbone_forward(bb, helpers.random_image(SMALL, 2))
    h, w = SMALL.image_size
    prev_hw = (h, w)
    for o in outs:
        assert o.dims[2] * 2 == prev_hw[0] and o.dims[3] * 2 == prev_hw[1]
        prev_hw = o.dims[2:]


def test_forward_matches_straight_line_oracle():
    bb = build_backbone(BackboneSpec(), 17)
    img = helpers.random_image(bb.spec, 18)
    outs = backbone_forward(bb, img)
    want = helpers.backbone_oracle(bb, img)
    for got, expect in zip(outs, want):
        assert np.array_equal(got.data, expect)
        assert np.isfinite(got.data).all()


def test_forward_deterministic():
    bb = build_backbone(SMALL, 4)
    img = helpers.random_image(SMALL, 5)
    a = backbone_forward(bb, img)
    b = backbone_forward(bb, img)
    for x, y in zip(a, b):
        assert np.array_equal(x.data, y.data)


def test_zero_image_gives_zero_outputs():
    bb = build_backbone(SMALL, 6)
    img = Tensor4(np.zeros((1, 3) + SMALL.image_size))
    for o in backbone_forward(bb, img):
        assert np.all(o.data == 0.0)


def test_minimal_two_stage_spec_runs():
    outs = backbone_forward(build_backbone(SMALL, 7), helpers.random_image(SMALL, 8))
    assert len(outs) == 2


def test_image_shape_mismatch_rejected():
    bb = build_backbone(SMALL, 9)
    with pytest.raises(ShapeError):
        backbone_forward(bb, Tensor4(np.zeros((1, 3, 8, 8))))
    with pytest.raises(ShapeError):
        backbone_forward(bb, Tensor4(np.zeros((1, 1) + SMALL.image_size)))


@pytest.mark.parametrize("kwargs", [
    dict(num_stages=1, stage_channels=(4,)),
    dict(stage_channels=(8, 16)),
    dict(image_size=(60, 64)),
    dict(stem_channels=0),
])
def test_invalid_specs_rejected(kwargs):
    with pytest.raises(ConfigError):
        BackboneSpec(**kwargs)


def test_spec_accepts_numpy_integers():
    spec = BackboneSpec(num_stages=np.int64(3), stem_channels=np.int32(4),
                        stage_channels=np.array([4, 8, 8]), image_size=(np.int64(16), 16))
    assert spec == TOY_SPEC
    assert spec.stage_channels == (4, 8, 8) and type(spec.image_size[0]) is int


def test_truncated_backbone_has_no_stem_or_early_stages():
    bb = build_backbone(BackboneSpec(), 10, first_stage=3)
    names = [name for name, _, _ in bb.learnables()]
    assert not any(n.startswith(("stem.", "stage1.", "stage2.")) for n in names)
    assert any(n.startswith("stage3.") for n in names)
    with pytest.raises(ConfigError):
        backbone_forward(bb, helpers.random_image(bb.spec, 11))
