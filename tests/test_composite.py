import hashlib
import itertools
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import cfg_id as _cfg_id
from cbnet import (
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
    Tape,
    Tensor4,
    apply_state,
    backbone_forward,
    build_backbone,
    build_cbnet,
    cbnet_forward,
    connection_keys,
    direct_add_keys,
    flop_count,
    force_zero_composites,
    model_gradcheck,
    param_count,
    save_weights,
    set_mode,
    state_dict,
)
from cbnet import composite, engine
from cbnet.engine import _PROBE_CHUNK

SMALL = BackboneSpec(num_stages=3, stem_channels=4, stage_channels=(4, 8, 8),
                     image_size=(16, 16))
MINI = BackboneSpec(num_stages=2, stem_channels=2, stage_channels=(2, 3),
                    image_size=(8, 8))


def small_cfg(**kw):
    kw.setdefault("spec", SMALL)
    return CBNetConfig(**kw)


def _zero_connection(conn):
    conn.conv.params.weight.data[:] = 0.0
    conn.conv.params.bias[:] = 0.0
    conn.bn.params.beta[:] = 0.0
    conn.bn.params.running_mean[:] = 0.0
    conn.bn.params.running_var[:] = 1.0
    conn.bn.params.mode = "inference"


# -- connection structure ------------------------------------------------------


def test_connection_counts_default_spec():
    spec = BackboneSpec()
    cases = {
        CompositeStyle.AHLC: [(2, l) for l in range(2, 6)],
        CompositeStyle.ALLC: [(2, l) for l in range(2, 5)],
        CompositeStyle.DHLC: [(2, l, i) for l in range(2, 6) for i in range(l, 6)],
        CompositeStyle.SLC: [],
    }
    for style, want in cases.items():
        cfg = CBNetConfig(num_backbones=2, style=style, spec=spec)
        assert connection_keys(cfg) == want
        net = build_cbnet(cfg, 0)
        assert sorted(net.connections) == sorted(want)
    slc = CBNetConfig(num_backbones=2, style=CompositeStyle.SLC, spec=spec)
    assert direct_add_keys(slc) == [(2, l) for l in range(2, 6)]


def test_connection_counts_scale_with_backbones():
    for style, per_pair in [(CompositeStyle.AHLC, 4), (CompositeStyle.ALLC, 3),
                            (CompositeStyle.DHLC, 10), (CompositeStyle.SLC, 0)]:
        cfg = CBNetConfig(num_backbones=3, style=style, spec=BackboneSpec())
        assert len(connection_keys(cfg)) == 2 * per_pair


def test_k1_has_no_connections():
    net = build_cbnet(small_cfg(num_backbones=1), 1)
    assert net.connections == {}
    names = {n for n, _, _ in net.learnables()}
    assert all(n.startswith("b1.") for n in names)


# -- composite connection -------------------------------------------------------


def test_composite_apply_zeroed_gives_zero_of_target_shape():
    conv = ConvParams(np.zeros((8, 16, 1, 1)), np.zeros(8))
    bn = BatchNormParams(np.ones(8), np.zeros(8), np.zeros(8), np.ones(8))
    g = CompositeConnection(conv, bn, (32, 32))
    src = Tensor4(np.random.default_rng(0).standard_normal((1, 16, 16, 16)))
    out = g.run(Tape(), src)
    assert out.dims == (1, 8, 32, 32)
    assert np.all(out.data == 0.0)


def test_composite_apply_shape_contract():
    rng = np.random.default_rng(1)
    conv = ConvParams(rng.standard_normal((8, 16, 1, 1)), rng.standard_normal(8))
    bn = BatchNormParams(np.ones(8), np.zeros(8), np.zeros(8), np.ones(8))
    g = CompositeConnection(conv, bn, (32, 32))
    out = g.run(Tape(), Tensor4(rng.standard_normal((1, 16, 16, 16))))
    assert out.dims == (1, 8, 32, 32)


def test_composite_apply_matches_straight_line_oracle():
    rng = np.random.default_rng(2)
    conv = ConvParams(rng.standard_normal((4, 8, 1, 1)), rng.standard_normal(4))
    bn = BatchNormParams(rng.uniform(0.5, 1.5, 4), rng.standard_normal(4),
                         rng.standard_normal(4) * 0.1, rng.uniform(0.5, 2.0, 4))
    g = CompositeConnection(conv, bn, (8, 8))
    src = Tensor4(rng.standard_normal((2, 8, 4, 4)))
    got = g.run(Tape(), src)
    want = helpers.eval_connection(g, src)
    assert np.array_equal(got.data, want.data)


def test_composite_connection_requires_1x1():
    conv = ConvParams(np.zeros((4, 8, 3, 3)), np.zeros(4))
    bn = BatchNormParams(np.ones(4), np.zeros(4), np.zeros(4), np.ones(4))
    with pytest.raises(ConfigError):
        CompositeConnection(conv, bn, (8, 8))


# -- forward equivalences --------------------------------------------------------


def test_degenerate_k1_is_bit_identical_to_plain_backbone():
    net = build_cbnet(small_cfg(num_backbones=1), 5)
    img = helpers.random_image(SMALL, 6)
    pyramid = cbnet_forward(net, img)
    outs = backbone_forward(net.backbones[0], img)
    assert len(pyramid.levels) == SMALL.num_stages - 1
    for lvl, out in zip(pyramid.levels, outs[1:]):
        assert np.array_equal(lvl.data, out.data)


@pytest.mark.parametrize("style", list(CompositeStyle))
def test_zero_composites_reduce_to_single_backbone(style):
    net = build_cbnet(small_cfg(num_backbones=2, style=style), 7)
    force_zero_composites(net)
    img = helpers.random_image(SMALL, 8)
    pyramid = cbnet_forward(net, img)
    single = build_backbone(SMALL, 1234)
    lead_state = dict(net.backbones[-1].state())
    for name, value in single.state():
        value[:] = lead_state[name]
    outs = backbone_forward(single, img)
    for lvl, out in zip(pyramid.levels, outs[1:]):
        assert np.array_equal(lvl.data, out.data)


@pytest.mark.parametrize("style", list(CompositeStyle))
@pytest.mark.parametrize("k, accelerated, share", [
    pytest.param(2, False, False, id="2"),
    pytest.param(3, False, False, id="3"),
    pytest.param(2, True, False, id="2-accelerated"),
    pytest.param(2, True, True, id="2-accelerated-shared"),
])
def test_forward_matches_equation_oracle(style, k, accelerated, share):
    cfg = small_cfg(num_backbones=k, style=style, accelerated=accelerated,
                    share_weights=share)
    net = build_cbnet(cfg, 40 + k)
    img = helpers.random_image(SMALL, 50 + k)
    pyramid = cbnet_forward(net, img)
    want = helpers.pyramid_oracle(net, img)
    for lvl, expect in zip(pyramid.levels, want):
        assert np.isfinite(lvl.data).all()
        assert np.max(np.abs(lvl.data - expect)) < 1e-9


@pytest.mark.parametrize("style", list(CompositeStyle))
@pytest.mark.parametrize("accelerated", [False, True])
def test_wrong_image_size_names_the_spec(style, accelerated):
    net = build_cbnet(CBNetConfig(num_backbones=2, style=style, accelerated=accelerated,
                                  spec=BackboneSpec()), 0)
    with pytest.raises(ShapeError, match=re.escape("spec (3, (64, 64))")):
        cbnet_forward(net, Tensor4(np.zeros((1, 3, 32, 32))))


def test_dhlc_with_zeroed_higher_links_equals_ahlc():
    cfg = small_cfg(num_backbones=2, style=CompositeStyle.DHLC)
    net = build_cbnet(cfg, 9)
    for (k, l, i), conn in net.connections.items():
        if i > l:
            _zero_connection(conn)
    ahlc = CBNet(
        small_cfg(num_backbones=2, style=CompositeStyle.AHLC),
        net.backbones,
        {(k, l): conn for (k, l, i), conn in net.connections.items() if i == l})
    img = helpers.random_image(SMALL, 10)
    got = cbnet_forward(net, img)
    want = cbnet_forward(ahlc, img)
    for a, b in zip(got.levels, want.levels):
        assert np.array_equal(a.data, b.data)


def test_forward_is_deterministic():
    net = build_cbnet(small_cfg(num_backbones=2, style=CompositeStyle.DHLC), 11)
    img = helpers.random_image(SMALL, 12)
    a = cbnet_forward(net, img)
    b = cbnet_forward(net, img)
    for x, y in zip(a.levels, b.levels):
        assert np.array_equal(x.data, y.data)


# -- weight sharing ---------------------------------------------------------------


def test_sharing_uses_single_storage():
    shared = build_cbnet(small_cfg(num_backbones=2, share_weights=True), 13)
    single = build_backbone(SMALL, 13)
    want_conn = helpers.connection_params_oracle(shared.config)
    assert param_count(shared) == param_count(single) + want_conn
    b1, b2 = shared.backbones
    for (n1, v1, _), (n2, v2, _) in zip(b1.learnables(), b2.learnables()):
        assert n1 == n2 and v1 is v2


def test_sharing_mutation_affects_both_backbones():
    net = build_cbnet(small_cfg(num_backbones=2, share_weights=True), 14)
    img = helpers.random_image(SMALL, 15)
    before = [lvl.data.copy() for lvl in cbnet_forward(net, img).levels]
    # perturb one stage weight through the first backbone's namespace
    name, value, _ = next(iter(net.backbones[0].stage(2).learnables()))
    value += 0.05
    after = cbnet_forward(net, img).levels
    assert any(not np.array_equal(b, a.data) for b, a in zip(before, after))
    # both namespaces resolve to the very same storage
    assert net.backbones[0].stage(2).down.params.weight is \
        net.backbones[1].stage(2).down.params.weight


def test_unshared_backbones_have_independent_storage():
    net = build_cbnet(small_cfg(num_backbones=2), 16)
    w1 = net.backbones[0].stage(2).down.params.weight
    w2 = net.backbones[1].stage(2).down.params.weight
    assert w1 is not w2
    assert not np.array_equal(w1.data, w2.data)


# -- accounting -------------------------------------------------------------------


def test_param_relations_match_counting_oracle():
    spec = BackboneSpec()
    single = helpers.backbone_params_oracle(spec)
    for style in CompositeStyle:
        cfg = CBNetConfig(num_backbones=2, style=style, spec=spec)
        comp = helpers.connection_params_oracle(cfg)
        net = build_cbnet(cfg, 17)
        assert param_count(net) == 2 * single + comp
        shared = build_cbnet(CBNetConfig(num_backbones=2, style=style,
                                         share_weights=True, spec=spec), 17)
        assert param_count(shared) == single + comp


def test_param_and_flop_counts_increase_with_k():
    dims = (1, 3) + SMALL.image_size
    params, flops = [], []
    for k in (1, 2, 3):
        net = build_cbnet(small_cfg(num_backbones=k), 18)
        params.append(param_count(net))
        flops.append(flop_count(net, dims))
    assert params[0] < params[1] < params[2]
    assert flops[0] < flops[1] < flops[2]


def test_flop_ordering_single_accelerated_full():
    spec = BackboneSpec()
    dims = (1, 3) + spec.image_size
    single = flop_count(build_cbnet(CBNetConfig(num_backbones=1, spec=spec), 19), dims)
    accel = flop_count(build_cbnet(CBNetConfig(num_backbones=2, accelerated=True,
                                               spec=spec), 19), dims)
    full = flop_count(build_cbnet(CBNetConfig(num_backbones=2, spec=spec), 19), dims)
    assert single < accel < full


FLOP_SPECS = {
    "toy": TOY_SPEC,
    "default": BackboneSpec(),
    "4-stage-32x48": BackboneSpec(num_stages=4, stem_channels=4, stage_channels=(5, 6, 7, 9),
                                  image_size=(32, 48)),
}


@pytest.mark.parametrize("spec_name", list(FLOP_SPECS))
def test_flop_count_equals_oracle_and_leaves_batchnorm_untouched(spec_name):
    spec = FLOP_SPECS[spec_name]
    rng = np.random.default_rng(20)
    for k, style, share, accelerated in itertools.product(
            (1, 2, 3), CompositeStyle, (False, True), (False, True)):
        if accelerated and k != 2:
            continue
        cfg = CBNetConfig(num_backbones=k, style=style, share_weights=share,
                          accelerated=accelerated, spec=spec)
        net = build_cbnet(cfg, 21)
        for p in net.bn_params():
            p.running_mean[:] = rng.standard_normal(p.channels)
            p.running_var[:] = rng.uniform(0.5, 2.0, p.channels)
        for mode in ("training", "inference"):
            set_mode(net, mode)
            before = [(p, p.mode, p.running_mean.copy(), p.running_var.copy())
                      for p in net.bn_params()]
            for n in (1, 3):
                dims = (n, spec.in_channels) + spec.image_size
                assert flop_count(net, dims) == helpers.flops_oracle(cfg, n), (cfg, n, mode)
            for p, old_mode, mean, var in before:
                assert p.mode == old_mode
                assert np.array_equal(p.running_mean, mean) and np.array_equal(p.running_var, var)


@pytest.mark.parametrize("n", [0, -2])
def test_flop_count_rejects_a_batch_size_below_one(n):
    net = build_cbnet(CBNetConfig(spec=TOY_SPEC), 0)
    with pytest.raises(ShapeError, match="batch size of at least 1"):
        flop_count(net, (n, 3) + TOY_SPEC.image_size)


def test_flop_count_rejects_dims_the_spec_does_not_accept():
    net = build_cbnet(CBNetConfig(), 0)
    with pytest.raises(ShapeError):
        flop_count(net, (1, 3, 32, 32))
    with pytest.raises(ShapeError):
        flop_count(net, (1, 1) + net.config.spec.image_size)


# -- accelerated variant -----------------------------------------------------------


def test_accelerated_structure():
    cfg = CBNetConfig(num_backbones=2, accelerated=True, spec=BackboneSpec())
    net = build_cbnet(cfg, 20)
    asst = net.backbones[0]
    assert asst.stem is None and asst.first_stage == 3
    assert sorted(net.connections) == [(2, 3), (2, 4), (2, 5)]
    img = helpers.random_image(BackboneSpec(), 21)
    pyramid = cbnet_forward(net, img)
    assert [lvl.dims for lvl in pyramid.levels] == [
        (1, 16, 16, 16), (1, 32, 8, 8), (1, 64, 4, 4), (1, 128, 2, 2)]
    for lvl in pyramid.levels:
        assert np.isfinite(lvl.data).all()


def test_accelerated_zero_composites_reduce_to_single():
    cfg = CBNetConfig(num_backbones=2, accelerated=True, spec=BackboneSpec())
    net = build_cbnet(cfg, 22)
    force_zero_composites(net)
    img = helpers.random_image(BackboneSpec(), 23)
    pyramid = cbnet_forward(net, img)
    single = build_backbone(BackboneSpec(), 77)
    lead_state = dict(net.backbones[-1].state())
    for name, value in single.state():
        value[:] = lead_state[name]
    outs = backbone_forward(single, img)
    for lvl, out in zip(pyramid.levels, outs[1:]):
        assert np.array_equal(lvl.data, out.data)


def test_zeroing_shared_accelerated_slc_raises_only_where_it_adds_directly():
    net = build_cbnet(CBNetConfig(num_backbones=2, style=CompositeStyle.SLC,
                                  share_weights=True, accelerated=True, spec=TOY_SPEC), 0)
    assert direct_add_keys(net.config) == [] and not net.connections
    before = [value.copy() for _, value in net.state()]
    force_zero_composites(net)  # nothing reads the assistant: there is nothing to zero
    assert all(np.array_equal(a, value) for a, (_, value) in zip(before, net.state()))
    cfg = CBNetConfig(num_backbones=2, style=CompositeStyle.SLC, share_weights=True,
                      accelerated=True, spec=BackboneSpec(num_stages=5))
    assert direct_add_keys(cfg) == [(2, 4), (2, 5)]
    with pytest.raises(ConfigError, match="cannot zero slc assistants under weight sharing"):
        force_zero_composites(build_cbnet(cfg, 0))


def test_accelerated_requires_two_backbones():
    with pytest.raises(ConfigError):
        CBNetConfig(num_backbones=3, accelerated=True, spec=BackboneSpec())
    with pytest.raises(ConfigError):
        CBNetConfig(num_backbones=2, accelerated=True, spec=MINI)


def test_accelerated_shared_assistant_reuses_lead_stages():
    cfg = CBNetConfig(num_backbones=2, accelerated=True, share_weights=True,
                      spec=BackboneSpec())
    net = build_cbnet(cfg, 24)
    asst, lead = net.backbones
    for l in range(3, 6):
        assert asst.stage(l) is lead.stage(l)


# -- gradient flow ------------------------------------------------------------------


def test_gradients_flow_through_composites_in_tiny_model():
    net = build_cbnet(CBNetConfig(num_backbones=2, style=CompositeStyle.AHLC,
                                  spec=MINI), 25)
    img = helpers.random_image(MINI, 26)
    assert model_gradcheck(net, img) < 1e-3


def test_invalid_k_rejected():
    with pytest.raises(ConfigError):
        CBNetConfig(num_backbones=0, spec=SMALL)


def test_config_accepts_a_numpy_backbone_count():
    cfg = CBNetConfig(num_backbones=np.int64(2), spec=TOY_SPEC)
    assert len(build_cbnet(cfg, 0).backbones) == 2


def test_config_accepts_numpy_bool_flags():
    net = build_cbnet(CBNetConfig(share_weights=np.True_, accelerated=np.True_, spec=TOY_SPEC), 0)
    assert net.backbones[0].first_stage == 3
    assert net.backbones[0].stages[0] is net.backbones[1].stage(3)


# -- config space and weight layout --------------------------------------------------

TINY = BackboneSpec(num_stages=3, stem_channels=2, stage_channels=(2, 3, 3),
                    image_size=(8, 8))


@pytest.mark.parametrize("accelerated", [False, True])
@pytest.mark.parametrize("share", [False, True])
@pytest.mark.parametrize("style", list(CompositeStyle))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_config_sweep_builds_runs_and_round_trips(k, style, share, accelerated):
    try:
        cfg = CBNetConfig(num_backbones=k, style=style, share_weights=share,
                          accelerated=accelerated, spec=TINY)
        net = build_cbnet(cfg, 3)
    except ConfigError:
        assert accelerated and k != 2
        return
    # receivers 2..K in build order, each with the oracle's (l, i) pairs
    links = [(r, l, i) for r in range(2, k + 1) for l, i in helpers.connection_pairs_oracle(cfg)]
    pairs = [(r, l) for r, l, _ in links]
    slc, dhlc = style is CompositeStyle.SLC, style is CompositeStyle.DHLC
    assert connection_keys(cfg) == list(net.connections) == ([] if slc else links if dhlc else pairs)
    assert direct_add_keys(cfg) == (pairs if slc else [])

    img = helpers.random_image(TINY, 4)
    tape = Tape()
    pyramid = net.forward(img, tape)
    tape.backward([(lvl, np.ones(lvl.dims)) for lvl in pyramid.levels])
    assert np.isfinite(tape.grads[img]).all()
    assert all(np.isfinite(g).all() for _, _, g in net.unique_learnables())

    saved = {name: value.copy() for name, value in state_dict(net).items()}
    other = build_cbnet(cfg, 5)
    apply_state(other, saved)
    loaded = state_dict(other)
    assert list(loaded) == list(saved)
    assert all(np.array_equal(loaded[name], saved[name]) for name in saved)


@st.composite
def spec_configs(draw):
    """(cfg, batch): K, style and sharing over a small spec of 2-4 stages
    with 1-4 channels each and side 2^L or 2^(L+1); accelerated only where
    it is defined (K=2, at least 3 stages)."""
    L = draw(st.integers(2, 4))
    side = 2 ** (L + draw(st.integers(0, 1)))
    channels = st.integers(1, 4)
    spec = BackboneSpec(num_stages=L, stem_channels=draw(channels),
                        stage_channels=tuple(draw(channels) for _ in range(L)),
                        image_size=(side, side))
    k = draw(st.integers(1, 3))
    cfg = CBNetConfig(num_backbones=k, style=draw(st.sampled_from(list(CompositeStyle))),
                      share_weights=draw(st.booleans()),
                      accelerated=k == 2 and L >= 3 and draw(st.booleans()), spec=spec)
    return cfg, draw(st.integers(1, 3))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(spec_configs(), st.integers(0, 2 ** 32 - 1))
def test_inference_forward_and_param_count_match_oracles_over_specs(case, seed):
    # the sweep above fixes the spec; this varies it with the config
    cfg, batch = case
    spec = cfg.spec
    net = build_cbnet(cfg, seed)
    rng = np.random.default_rng(seed)
    for name, value in net.state():
        value[:] = (rng.uniform(0.5, 2.0, value.shape) if name.endswith("running_var")
                    else rng.standard_normal(value.shape))
    image = Tensor4(rng.uniform(0.0, 1.0, (batch, spec.in_channels) + spec.image_size))
    pyramid = net.forward(image, Tape())
    want = helpers.pyramid_oracle(net, image)
    assert len(pyramid.levels) == len(want) == spec.num_stages - 1
    assert all(np.array_equal(lvl.data, w) for lvl, w in zip(pyramid.levels, want))

    full = helpers.backbone_params_oracle(spec)
    if cfg.share_weights:
        backbones = full
    elif cfg.accelerated:
        backbones = full + helpers.backbone_params_oracle(spec, first_stage=3)
    else:
        backbones = cfg.num_backbones * full
    assert param_count(net) == backbones + helpers.connection_params_oracle(cfg)


# sha256 of the CBNW file of state_dict(build_cbnet(cfg, 7)) at TOY_SPEC; the
# bytes depend only on the seeded draws and the tensor name order
PINNED_CBNW_SHA256 = [
    (dict(num_backbones=2, style=CompositeStyle.DHLC),
     "cb82da158a41f914d84fcf39c71b40b51e9a2e0c93b15b017cc9adfa61bf07bd"),
    (dict(num_backbones=2, style=CompositeStyle.SLC, accelerated=True),
     "eb8fc73d0ad44638f36d466da4f61871a6b72cc642206983aa7d5d278ec97601"),
    (dict(num_backbones=3, style=CompositeStyle.ALLC, share_weights=True),
     "43d701a62b012946d61acfcfbe1d21398352062bd42857f0e1e3c6fe40eb492b"),
]


@pytest.mark.parametrize("kw, want", PINNED_CBNW_SHA256)
def test_cbnw_layout_is_pinned(tmp_path, kw, want):
    net = build_cbnet(CBNetConfig(spec=TOY_SPEC, **kw), 7)
    path = tmp_path / "w.cbnw"
    save_weights(state_dict(net), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == want


# -- the TOY_SPEC config sweep: step order and stacked probe replay ----------------


def _toy_configs():
    return helpers.config_sweep(TOY_SPEC)


# Under weight sharing, running statistics fold and parameter gradients
# accumulate in tape order, so the order of the forward's steps is pinned.
PINNED_STEP_SHA256 = {
    "1-ahlc": "0167c4e29a83de30",
    "1-ahlc-shared": "0167c4e29a83de30",
    "1-slc": "0167c4e29a83de30",
    "1-slc-shared": "0167c4e29a83de30",
    "1-allc": "0167c4e29a83de30",
    "1-allc-shared": "0167c4e29a83de30",
    "1-dhlc": "0167c4e29a83de30",
    "1-dhlc-shared": "0167c4e29a83de30",
    "2-ahlc": "4c127d81b32f0eaf",
    "2-ahlc-accelerated": "ffcf5545d32d1fe9",
    "2-ahlc-shared": "8e6c1626ca63b922",
    "2-ahlc-shared-accelerated": "4f076915d8f2c704",
    "2-slc": "cdc1536abe87d306",
    "2-slc-accelerated": "27e9a78b29bec120",
    "2-slc-shared": "05727a5b946f3222",
    "2-slc-shared-accelerated": "72841c04613f6176",
    "2-allc": "c68d0d33e6f769d5",
    "2-allc-accelerated": "27e9a78b29bec120",
    "2-allc-shared": "12cea76d42d21c35",
    "2-allc-shared-accelerated": "72841c04613f6176",
    "2-dhlc": "e30d5ef66efa9a2b",
    "2-dhlc-accelerated": "3fe3e90794bc78e7",
    "2-dhlc-shared": "d20cbf021dc21046",
    "2-dhlc-shared-accelerated": "0b5f7bbffe002e1d",
    "3-ahlc": "9ef59471383dfa46",
    "3-ahlc-shared": "e4f77788d0f46270",
    "3-slc": "4f939b3f5e2502cd",
    "3-slc-shared": "859f19d6a92bceab",
    "3-allc": "d0a8f3fd0f0584e9",
    "3-allc-shared": "629850096eb45a07",
    "3-dhlc": "9581dd61950a3720",
    "3-dhlc-shared": "9cd250e25ee0cbfe",
}


def _step_digest(net):
    """sha256 of the recording forward's steps, one line per step: the layer
    class and the dotted name of the parameters it reads ("-" for none)."""
    names = {}
    for name, value, _ in net.learnables():
        names.setdefault(id(value), name.rsplit(".", 1)[0])
    tape = Tape()
    net.forward(helpers.random_image(net.config.spec, 0), tape)
    lines = []
    for layer, _, _, _ in tape.steps:
        p = getattr(layer, "params", None)
        value = p.weight.data if isinstance(p, ConvParams) else getattr(p, "gamma", None)
        lines.append(f"{type(layer).__name__} {names.get(id(value), '-')}\n")
    return hashlib.sha256("".join(lines).encode()).hexdigest()[:16]


@pytest.mark.parametrize("cfg", list(_toy_configs()), ids=_cfg_id)
def test_forward_step_order_is_pinned(cfg):
    assert _step_digest(build_cbnet(cfg, 0)) == PINNED_STEP_SHA256[_cfg_id(cfg)]


def test_readme_library_example_runs():
    """README's one python block, which runs `net.forward` over the stage-run
    table, runs as written."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        blocks = re.findall(r"^```python\n(.*?)^```$", fh.read(), re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def _perturbed_arrays(net, image):
    """The image, a lead last-stage conv weight and conv bias, a composite
    connection weight and BN beta (when there is a connection, else the
    lead's last BN beta) and, under sharing, a shared BN gamma."""
    last = net.backbones[-1].stage(net.config.spec.num_stages)
    arrays = [("image", image.data), ("lead conv", last.conv1.params.weight.data),
              ("lead conv bias", last.conv2.params.bias)]
    if net.connections:
        conn = list(net.connections.values())[-1]
        arrays.append(("connection", conn.conv.params.weight.data))
        arrays.append(("connection beta", conn.bn.params.beta))
    else:
        arrays.append(("lead beta", last.bn2.params.beta))
    if net.config.share_weights:
        arrays.append(("shared gamma", last.bn1.params.gamma))
    return arrays


def _count_runs(monkeypatch, tape):
    """A list that gains one entry per `forward` or `rerun` call of a layer
    on tape: a replay's every-step fallback makes len(tape.steps) per probe."""
    calls = []
    for cls in {type(layer) for layer, _, _, _ in tape.steps}:
        for name in ("forward", "rerun"):
            if hasattr(cls, name):
                monkeypatch.setattr(cls, name, lambda self, *a, run=getattr(cls, name): (
                    calls.append(self) or run(self, *a)))
    return calls


@pytest.mark.parametrize("cfg", list(_toy_configs()), ids=_cfg_id)
def test_replay_from_first_reader_equals_fresh_forward(cfg, monkeypatch):
    net = build_cbnet(cfg, 31)
    image = helpers.random_image(TOY_SPEC, 32)
    set_mode(net, "training")
    for what, arr in _perturbed_arrays(net, image):
        tape = Tape()
        pyramid = net.forward(image, tape)
        # in a 3x3 kernel, flat 4 and size - 5 are centre taps, which every output reads
        a, b = (4, arr.size - 5) if arr.size >= 9 else (0, arr.size - 1)
        probes = [(a, arr.flat[a] + 0.25), (b, arr.flat[b] - 0.5), (a, arr.flat[a] - 0.125)]
        orig = arr.copy()
        with monkeypatch.context() as m:
            calls = _count_runs(m, tape)
            stacked = tape.replay(arr, probes, pyramid.levels)
        # visible params: the replay finds arr's readers, not the every-step fallback
        assert len(calls) < len(tape.steps) * len(probes), what
        assert np.array_equal(arr, orig), what
        n = image.dims[0]
        for p, (i, v) in enumerate(probes):
            arr.flat[i] = v
            expected = [lvl.data for lvl in net.forward(image, Tape()).levels]
            arr[...] = orig
            replayed = [stacked[lvl].data[p * n:(p + 1) * n] if lvl in stacked else lvl.data
                        for lvl in pyramid.levels]
            assert all(np.array_equal(a, b) for a, b in zip(replayed, expected)), (what, p)
            if what != "lead conv bias":  # training batchnorm takes a conv bias back out
                assert not all(np.array_equal(lvl.data, b)
                               for lvl, b in zip(pyramid.levels, expected)), (what, p)


def test_replay_reruns_parameter_readers_from_their_recorded_context(monkeypatch):
    net = build_cbnet(CBNetConfig(num_backbones=2, style=CompositeStyle.DHLC,
                                  spec=TOY_SPEC), 31)
    set_mode(net, "training")
    tape = Tape()
    pyramid = net.forward(helpers.random_image(TOY_SPEC, 32), tape)
    conv = max(s for s, (layer, _, _, _) in enumerate(tape.steps)
               if isinstance(layer, engine.Conv2dLayer))
    bn = min(s for s, (layer, _, _, _) in enumerate(tape.steps)
             if isinstance(layer, engine.BatchNormLayer))
    # the last conv's weight and bias: no conv runs after their reader, so
    # only its reruns build columns; then the first batchnorm's gamma: a
    # training batchnorm reruns without folding its statistics
    conv_p, bn_p = tape.steps[conv][0].params, tape.steps[bn][0].params
    cases = []
    for s, arr in ((conv, conv_p.weight.data), (conv, conv_p.bias), (bn, bn_p.gamma)):
        layer, xs, y, _ = tape.steps[s]
        probes = [(i, arr.flat[i] + d) for i in range(min(arr.size, _PROBE_CHUNK))
                  for d in (1e-5, -1e-5)]
        expected = []
        for i, v in probes:  # a fresh forward of the reader per probe
            orig, arr.flat[i] = arr.flat[i], v
            expected.append(layer.forward(*xs)[0].data)
            arr.flat[i] = orig
        cases.append((arr, probes, y, np.concatenate(expected)))
    stats = [(p.running_mean.copy(), p.running_var.copy()) for p in net.bn_params()]
    im2col = engine._im2col
    calls, reruns = [], []  # each im2col's input; (recorded input, its inputs) per rerun
    monkeypatch.setattr(engine, "_im2col", lambda x, *a: calls.append(x) or im2col(x, *a))
    for cls in (engine.Conv2dLayer, engine.BatchNormLayer):
        def spy(self, ctx, arr, variants, rerun=cls.rerun):
            before = len(calls)
            out = rerun(self, ctx, arr, variants)
            reruns.append((ctx[0].data, calls[before:]))
            return out
        monkeypatch.setattr(cls, "rerun", spy)
    for arr, probes, y, expected in cases:
        calls.clear()
        reruns.clear()
        stacked = tape.replay(arr, probes, [*pyramid.levels, y])
        assert np.array_equal(stacked[y].data, expected)
        assert reruns
        if arr is bn_p.gamma:  # a batchnorm rerun builds no columns
            assert all(built == [] for _, built in reruns)
        else:  # a conv rerun builds them once per call, from its recorded input
            assert len(calls) == len(reruns)
            assert all(len(built) == 1 and built[0] is x for x, built in reruns)
    for p, (mean, var) in zip(net.bn_params(), stats):
        assert np.array_equal(p.running_mean, mean) and np.array_equal(p.running_var, var)


def _lead_parameter_readers():
    """A recorded training forward of a 2-dhlc TOY_SPEC net, and for each
    parameter `_perturbed_arrays` names, (what, arr, the one layer that
    reads it)."""
    net = build_cbnet(CBNetConfig(num_backbones=2, style=CompositeStyle.DHLC,
                                  spec=TOY_SPEC), 31)
    image = helpers.random_image(TOY_SPEC, 32)
    set_mode(net, "training")
    tape = Tape()
    pyramid = net.forward(image, tape)
    cases = []
    for what, arr in _perturbed_arrays(net, image)[1:]:
        (reader,) = [layer for layer, _, _, _ in tape.steps if hasattr(layer, "params") and any(
            value is arr for _, value, _ in layer.params.learnables())]
        cases.append((what, arr, reader))
    return net, image, tape, pyramid, cases


@pytest.mark.parametrize("b", [1, 3, 7, 10])
def test_replay_reruns_a_reader_once_per_sub_stack_the_variant_bound_allows(b, monkeypatch):
    # P = 7 probes in sub-stacks of b = _VARIANT_BYTES // arr.nbytes, capped at P
    net, image, tape, pyramid, cases = _lead_parameter_readers()
    n = image.dims[0]
    for what, arr, reader in cases:
        probes = [(i % arr.size, arr.flat[i % arr.size] + 0.125 * (i + 1)) for i in range(7)]
        orig = arr.copy()
        with monkeypatch.context() as m:
            m.setattr(engine, "_VARIANT_BYTES", b * arr.nbytes)
            calls = _count_runs(m, tape)
            stacked = tape.replay(arr, probes, pyramid.levels)
        assert calls.count(reader) == -(-len(probes) // min(b, len(probes))), what
        assert np.array_equal(arr, orig), what
        for p, (i, v) in enumerate(probes):
            arr.flat[i] = v
            expected = [lvl.data for lvl in net.forward(image, Tape()).levels]
            arr[...] = orig
            replayed = [stacked[lvl].data[p * n:(p + 1) * n] if lvl in stacked else lvl.data
                        for lvl in pyramid.levels]
            assert all(np.array_equal(got, want) for got, want in zip(replayed, expected)), \
                (what, p)


@pytest.mark.parametrize("over", [True, False], ids=["over-the-bound", "under-the-bound"])
def test_replay_variants_are_arr_itself_only_over_the_bound(over, monkeypatch):
    # over the bound, the reader runs `forward` once per probe with the probe
    # written into arr and taken back out; under it, `rerun` gets a copy per
    # probe and arr is never written
    _, _, tape, pyramid, cases = _lead_parameter_readers()
    for what, arr, reader in cases:
        probes = [(0, arr.flat[0] + 0.5), (arr.size - 1, arr.flat[-1] - 0.25)]
        orig = arr.copy()
        seen = []  # arr at each spied call, and under the bound rerun's variants
        name = "forward" if over else "rerun"
        run = getattr(type(reader), name)

        def spy(self, *args):
            if self is reader:
                seen.append((arr.copy(), None if over else args[2].copy(),
                             not over and np.shares_memory(args[2], arr)))
            return run(self, *args)

        monkeypatch.setattr(engine, "_VARIANT_BYTES", arr.nbytes - 1 if over else 2 * arr.nbytes)
        monkeypatch.setattr(type(reader), name, spy)
        tape.replay(arr, probes, pyramid.levels)
        assert np.array_equal(arr, orig), what
        if over:
            assert len(seen) == len(probes), what
            for (at_call, _, _), (i, v) in zip(seen, probes):
                assert at_call.flat[i] == v, what
                at_call.flat[i] = orig.flat[i]
                assert np.array_equal(at_call, orig), what
        else:
            ((at_call, variants, shared),) = seen
            assert not shared and np.array_equal(at_call, orig), what
            for row, (i, v) in zip(variants, probes):
                assert row.flat[i] == v, what
                row.flat[i] = orig.flat[i]
                assert np.array_equal(row, orig), what
        monkeypatch.undo()


@pytest.mark.parametrize("over", [True, False], ids=["over-the-bound", "under-the-bound"])
def test_replay_restores_arr_when_a_reader_raises(over, monkeypatch):
    # over the bound the reader's failing call is a `forward` with a probe
    # written into arr, under it a `rerun` on copies
    _, _, tape, pyramid, cases = _lead_parameter_readers()
    for what, arr, reader in cases:
        probes = [(0, arr.flat[0] + 0.5), (arr.size - 1, arr.flat[-1] - 0.25)]
        orig = arr.copy()
        name = "forward" if over else "rerun"

        def failing(self, *args):
            raise RuntimeError(f"{name} failed")

        monkeypatch.setattr(engine, "_VARIANT_BYTES", arr.nbytes - 1 if over else 2 * arr.nbytes)
        monkeypatch.setattr(type(reader), name, failing)
        with pytest.raises(RuntimeError, match=f"^{name} failed$"):
            tape.replay(arr, probes, pyramid.levels)
        assert np.array_equal(arr, orig), what
        monkeypatch.undo()


GRADCHECK_CONFIGS = [
    dict(num_backbones=2, style=CompositeStyle.DHLC),
    dict(num_backbones=3, style=CompositeStyle.AHLC, share_weights=True),
    dict(num_backbones=2, style=CompositeStyle.ALLC, accelerated=True),
    dict(num_backbones=2, style=CompositeStyle.SLC, accelerated=True, share_weights=True),
]


# three stages, the fewest the accelerated variant accepts, and 1-2 channels keep
# the full-forward reference cheap
NARROW = BackboneSpec(num_stages=3, stem_channels=1, stage_channels=(1, 2, 2),
                      image_size=(8, 8))


@pytest.mark.parametrize("kw", GRADCHECK_CONFIGS,
                         ids=lambda kw: _cfg_id(CBNetConfig(spec=NARROW, **kw)))
def test_model_gradcheck_equals_full_forward_reference(kw):
    cfg = CBNetConfig(spec=NARROW, **kw)
    net = build_cbnet(cfg, 33)
    image = helpers.random_image(NARROW, 34)
    want = helpers.model_gradcheck_reference(net, image, loss_seed=5)
    assert model_gradcheck(net, image, loss_seed=5) == want


def test_model_gradcheck_stops_at_first_non_finite_probe(monkeypatch):
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 1)  # replays counted in this process
    net = build_cbnet(CBNetConfig(num_backbones=2, spec=NARROW), 33)
    _, value, _ = next(iter(net.unique_learnables()))
    value.flat[0] = np.nan
    replayed = []
    replay = Tape.replay
    monkeypatch.setattr(Tape, "replay", lambda tape, arr, probes, keep: (
        replayed.append((arr, len(probes))) or replay(tape, arr, probes, keep)))
    assert model_gradcheck(net, helpers.random_image(NARROW, 34)) == float("inf")
    assert len(replayed) == 1
    assert replayed[0][0] is value
    assert replayed[0][1] == 2 * min(value.size, _PROBE_CHUNK)


def test_model_gradcheck_fails_a_backward_that_yields_nan(monkeypatch):
    net = build_cbnet(CBNetConfig(num_backbones=2, spec=NARROW), 33)
    image = helpers.random_image(NARROW, 34)
    assert np.isfinite(model_gradcheck(net, image, loss_seed=5))
    relu_backward = engine.relu_backward
    monkeypatch.setattr(engine, "relu_backward", lambda x, g: relu_backward(x, g) * np.nan)
    assert model_gradcheck(net, image, loss_seed=5) == float("inf")


def _state_and_grads(net):
    return [(name, v.copy()) for name, v in net.state()] + \
        [(name, g.copy()) for name, _, g in net.unique_learnables()]


def test_each_model_gradcheck_worker_stops_at_its_first_non_finite_chunk(monkeypatch, tmp_path):
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
    net = build_cbnet(CBNetConfig(num_backbones=2, spec=NARROW), 33)
    _, value, _ = next(iter(net.unique_learnables()))
    value.flat[0] = np.nan  # every chunk's probe losses are NaN
    log = tmp_path / "replays.log"
    replay = Tape.replay

    def logged(tape, arr, probes, keep):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {arr is value} {probes[0][0]}\n")
        return replay(tape, arr, probes, keep)

    monkeypatch.setattr(Tape, "replay", logged)
    assert model_gradcheck(net, helpers.random_image(NARROW, 34)) == float("inf")
    helpers.assert_no_child_left()
    lines = [line.split() for line in log.read_text().splitlines()]
    assert len(lines) == 2 and len({pid for pid, _, _ in lines}) == 2  # one replay each
    assert [str(os.getpid()), "True", "0"] in lines  # this process's: chunk 0


TOY_SAMPLE = [CBNetConfig(spec=TOY_SPEC, **kw) for kw in (
    dict(num_backbones=2, style=CompositeStyle.DHLC),
    dict(num_backbones=2, style=CompositeStyle.AHLC, share_weights=True, accelerated=True),
    dict(num_backbones=3, style=CompositeStyle.ALLC, share_weights=True),
)]


@pytest.mark.parametrize(
    "cfg", [CBNetConfig(spec=NARROW, **kw) for kw in GRADCHECK_CONFIGS] + TOY_SAMPLE,
    ids=lambda cfg: f"{cfg.spec.image_size[0]}px-{_cfg_id(cfg)}")
def test_model_gradcheck_does_not_depend_on_the_cpu_count(cfg, monkeypatch):
    got = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(engine, "_usable_cpus", lambda: cpus)
        net = build_cbnet(cfg, 33)
        image = helpers.random_image(cfg.spec, 34)
        got.append((model_gradcheck(net, image, loss_seed=5), _state_and_grads(net),
                    image.data.copy(), [p.mode for p in net.bn_params()]))
        helpers.assert_no_child_left()
    (want, state, image, modes), *split = got
    for err, other, img, other_modes in split:
        assert err == want
        assert all(a == b and np.array_equal(x, y) for (a, x), (b, y) in zip(state, other))
        assert np.array_equal(img, image) and other_modes == modes


@pytest.mark.parametrize("cpus", [1, 2])
def test_model_gradcheck_gives_the_callers_gradients_back(cpus, monkeypatch):
    monkeypatch.setattr(engine, "_usable_cpus", lambda: cpus)
    net = build_cbnet(CBNetConfig(num_backbones=2, style=CompositeStyle.DHLC, spec=NARROW), 33)
    rng = np.random.default_rng(36)
    for _, _, grad in net.unique_learnables():
        grad[:] = rng.standard_normal(grad.shape)
    before = [g.copy() for _, _, g in net.unique_learnables()]
    model_gradcheck(net, helpers.random_image(NARROW, 34), loss_seed=5)
    helpers.assert_no_child_left()
    assert all(np.array_equal(g, b) for (_, _, g), b in zip(net.unique_learnables(), before))


def test_model_gradcheck_raises_a_worker_failure_and_restores_the_net(monkeypatch):
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
    net = build_cbnet(CBNetConfig(num_backbones=2, spec=NARROW), 33)
    before = _state_and_grads(net)
    parent = os.getpid()
    replay = Tape.replay

    def failing(tape, arr, probes, keep):
        if os.getpid() != parent:
            raise RuntimeError("replay failed in a worker")
        return replay(tape, arr, probes, keep)

    monkeypatch.setattr(Tape, "replay", failing)
    with pytest.raises(RuntimeError, match="^replay failed in a worker$"):
        model_gradcheck(net, helpers.random_image(NARROW, 34), loss_seed=5)
    helpers.assert_no_child_left()
    after = _state_and_grads(net)
    assert all(a == b and np.array_equal(x, y) for (a, x), (b, y) in zip(before, after))


class _HiddenParams:
    """Wraps a layer and hides its `params`, as the benchmark's op tracer does."""

    def __init__(self, layer):
        self.layer = layer

    def forward(self, *xs):
        return self.layer.forward(*xs)

    def backward(self, ctx, grad_out):
        return self.layer.backward(ctx, grad_out)


class _WrappingTape(Tape):
    def run(self, layer, *xs):
        return super().run(_HiddenParams(layer), *xs)


@pytest.mark.parametrize("kw", GRADCHECK_CONFIGS,
                         ids=lambda kw: _cfg_id(CBNetConfig(spec=NARROW, **kw)))
def test_model_gradcheck_is_unchanged_when_layers_hide_their_params(kw, monkeypatch):
    net = build_cbnet(CBNetConfig(spec=NARROW, **kw), 33)
    image = helpers.random_image(NARROW, 34)
    want = model_gradcheck(net, image, loss_seed=5)
    monkeypatch.setattr(composite, "Tape", _WrappingTape)
    assert model_gradcheck(net, image, loss_seed=5) == want
    # no step's params hold a hidden array: the every-step fallback
    tape = _WrappingTape()
    net.forward(image, tape)
    _, value, _ = next(iter(net.unique_learnables()))
    probes = [(0, value.flat[0] + d) for d in (1e-5, -1e-5, 2e-5)]
    calls = _count_runs(monkeypatch, tape)
    tape.replay(value, probes, [])
    assert len(calls) == len(tape.steps) * len(probes)


@pytest.mark.parametrize("stand_in", [np.copy, np.zeros_like], ids=["copy", "zeros"])
def test_replay_of_an_array_no_step_holds_leaves_the_outputs_as_recorded(stand_in):
    # every step counts as a reader and runs `forward` per probe; none reruns
    # with the stand-in as its own parameter
    net = build_cbnet(CBNetConfig(num_backbones=2, style=CompositeStyle.AHLC, spec=TOY_SPEC), 1)
    image = helpers.random_image(TOY_SPEC, 0)
    arr = stand_in(net.backbones[0].stem.conv.params.weight.data)
    with set_mode(net, "training"):
        tape = Tape()
        pyramid = net.forward(image, tape)
    probes = [(0, arr.flat[0]), (arr.size - 1, arr.flat[-1])]  # probes that change nothing
    stacked = tape.replay(arr, probes, pyramid.levels)
    assert stacked.keys() == set(pyramid.levels)
    for lvl in pyramid.levels:
        assert np.array_equal(stacked[lvl].data, np.tile(lvl.data, (len(probes), 1, 1, 1)))


def test_replay_reindexes_a_tape_that_grew():
    net = build_cbnet(CBNetConfig(num_backbones=2, style=CompositeStyle.DHLC, spec=NARROW), 33)
    image = helpers.random_image(NARROW, 34)
    rng = np.random.default_rng(35)
    head = engine.Conv2dLayer(ConvParams(rng.standard_normal((3, 2, 1, 1)), np.zeros(3)))
    weight = head.params.weight.data
    cases = [(image.data, [(5, 0.25), (9, -0.5)]), (weight, [(1, 0.5), (4, -0.25)])]
    with set_mode(net, "training"):  # a tape with an inference batchnorm step is refused
        tape = Tape()
        pyramid = net.forward(image, tape)
        fresh = Tape()
        fresh_y = fresh.run(head, net.forward(image, fresh).last)
    tape.replay(image.data, cases[0][1], pyramid.levels)  # indexes the net's steps only
    y = tape.run(head, pyramid.last)
    for arr, probes in cases:
        got, want = tape.replay(arr, probes, [y]), fresh.replay(arr, probes, [fresh_y])
        assert np.array_equal(got[y].data, want[fresh_y].data)


def _shared_gamma_and_weight(net):
    """The lead's last stage's first batchnorm gamma and second conv weight,
    each read by both backbones under sharing."""
    last = net.backbones[-1].stage(net.config.spec.num_stages)
    return last.bn1.params.gamma, last.conv2.params.weight.data


def _two_probes(arr):
    return [(0, arr.flat[0] + 0.25), (1, arr.flat[1] - 0.5)]


def test_replay_after_the_set_mode_block_equals_the_replay_inside_it():
    # a replay reads no batchnorm mode: it normalizes every probe as training does
    net = build_cbnet(CBNetConfig(num_backbones=2, share_weights=True, spec=TOY_SPEC), 31)
    image = helpers.random_image(TOY_SPEC, 32)
    gamma, weight = _shared_gamma_and_weight(net)
    arrays = (weight, gamma, image.data)
    with set_mode(net, "training"):
        tape = Tape()
        pyramid = net.forward(image, tape)
        inside = [tape.replay(arr, _two_probes(arr), pyramid.levels) for arr in arrays]
    assert {p.mode for p in net.bn_params()} == {"inference"}
    for arr, want in zip(arrays, inside):
        got = tape.replay(arr, _two_probes(arr), pyramid.levels)
        assert want and got.keys() == want.keys()
        assert all(np.array_equal(got[lvl].data, want[lvl].data) for lvl in want)


def _bn_stats(net):
    return [a.copy() for p in net.bn_params() for a in (p.running_mean, p.running_var)]


def test_replay_leaves_every_running_statistic_as_it_was():
    # a shared batchnorm whose input an earlier reader stacked runs `forward`
    # per probe, on a grouped slice, which folds nothing
    net = build_cbnet(CBNetConfig(num_backbones=2, share_weights=True, spec=TOY_SPEC), 31)
    image = Tensor4(np.random.default_rng(32).uniform(
        0.0, 1.0, (2, TOY_SPEC.in_channels, *TOY_SPEC.image_size)))
    gamma, weight = _shared_gamma_and_weight(net)
    with set_mode(net, "training"):
        tape = Tape()
        pyramid = net.forward(image, tape)
        before = _bn_stats(net)
        for arr in (weight, gamma, image.data):
            tape.replay(arr, _two_probes(arr), pyramid.levels)
            assert all(np.array_equal(a, b) for a, b in zip(_bn_stats(net), before))


def test_replay_of_an_inference_tape_refuses_to_probe_a_batchnorm_gamma():
    net = build_cbnet(CBNetConfig(num_backbones=2, share_weights=True, spec=TOY_SPEC), 31)
    gamma, _ = _shared_gamma_and_weight(net)
    orig = gamma.copy()
    tape = Tape()
    pyramid = net.forward(helpers.random_image(TOY_SPEC, 32), tape)
    with pytest.raises(RuntimeError, match="recorded in inference mode"):
        tape.replay(gamma, _two_probes(gamma), pyramid.levels)
    assert np.array_equal(gamma, orig)


def _move_running_stats(net):
    """One training forward on another image, which moves every running
    statistic; returns a copy of them from before it."""
    before = [(bn.running_mean.copy(), bn.running_var.copy()) for bn in net.bn_params()]
    with set_mode(net, "training"):
        net.forward(helpers.random_image(TOY_SPEC, 7), Tape())
    assert all(not np.array_equal(m, bn.running_mean)
               for (m, _), bn in zip(before, net.bn_params()))
    return before


def test_replay_refuses_an_inference_tape_before_and_after_its_running_statistics_move():
    net = build_cbnet(CBNetConfig(num_backbones=2, spec=TOY_SPEC), 3)
    image = helpers.random_image(TOY_SPEC, 4)
    tape = Tape()
    pyramid = net.forward(image, tape)
    unchanged = [(0, image.data.flat[0])]  # a probe that changes nothing
    with pytest.raises(RuntimeError, match="batchnorm step was recorded in inference mode"):
        tape.replay(image.data, unchanged, pyramid.levels)
    _move_running_stats(net)
    with pytest.raises(RuntimeError, match="batchnorm step was recorded in inference mode"):
        tape.replay(image.data, unchanged, pyramid.levels)


# -- gradients live only in the backward walk ----------------------------------------


def _seeded_backward(net, tape, image, pyramid):
    """Every unique gradient and the image gradient of one backward from
    fixed random seeds on the pyramid levels, from zeroed gradients."""
    rng = np.random.default_rng(43)
    for _, _, grad in net.unique_learnables():
        grad[:] = 0.0
    tape.backward([(lvl, rng.standard_normal(lvl.dims)) for lvl in pyramid.levels])
    return [grad.copy() for _, _, grad in net.unique_learnables()] + [tape.grads[image]]


@pytest.mark.parametrize("cfg", list(helpers.config_sweep(TOY_SPEC)), ids=helpers.cfg_id)
def test_backward_differentiates_batchnorm_in_the_mode_its_forward_ran_in(cfg):
    net = build_cbnet(cfg, 41)
    image = helpers.random_image(TOY_SPEC, 42)
    with set_mode(net, "training"):
        tape = Tape()
        pyramid = net.forward(image, tape)
        want = _seeded_backward(net, tape, image, pyramid)
    got = _seeded_backward(net, tape, image, pyramid)  # the net is back in inference mode
    assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))
    tape = Tape()
    pyramid = net.forward(image, tape)
    want_inference = _seeded_backward(net, tape, image, pyramid)
    with set_mode(net, "training"):
        got = _seeded_backward(net, tape, image, pyramid)
    assert all(np.array_equal(a, b) for a, b in zip(got, want_inference, strict=True))
    # the two modes' gradients differ, so each comparison can fail
    assert not all(np.array_equal(a, b) for a, b in zip(want, want_inference))


def test_an_inference_tape_is_differentiated_with_the_statistics_its_forward_used():
    net = build_cbnet(CBNetConfig(num_backbones=2, spec=TOY_SPEC), 3)
    image = helpers.random_image(TOY_SPEC, 4)
    tape = Tape()
    pyramid = net.forward(image, tape)
    want = _seeded_backward(net, tape, image, pyramid)
    _move_running_stats(net)
    got = _seeded_backward(net, tape, image, pyramid)
    assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))


def test_second_backward_on_one_tape_equals_the_first():
    net = build_cbnet(CBNetConfig(num_backbones=2, style=CompositeStyle.DHLC,
                                  spec=TOY_SPEC), 41)
    set_mode(net, "training")
    image = helpers.random_image(TOY_SPEC, 42)
    tape = Tape()
    pyramid = net.forward(image, tape)
    rng = np.random.default_rng(43)
    seeds = [rng.standard_normal(lvl.dims) for lvl in pyramid.levels]
    kept = [s.copy() for s in seeds]
    passes = []
    for _ in range(2):
        for _, _, grad in net.unique_learnables():
            grad[:] = 0.0
        tape.backward(list(zip(pyramid.levels, seeds)))
        passes.append([(name, grad.copy()) for name, _, grad in net.unique_learnables()])
    for (name, first), (_, second) in zip(*passes):
        assert np.array_equal(first, second), name
    assert all(np.array_equal(s, k) for s, k in zip(seeds, kept))
    assert list(tape.grads) == [image]


def test_model_gradcheck_after_a_backward_equals_a_check_on_a_fresh_image():
    net = build_cbnet(CBNetConfig(num_backbones=2, spec=TOY_SPEC), 3)
    want = model_gradcheck(net, helpers.random_image(TOY_SPEC, 4), loss_seed=5)
    image = helpers.random_image(TOY_SPEC, 4)
    tape = Tape()
    pyramid = net.forward(image, tape)
    seeds = [np.ones(lvl.dims) for lvl in pyramid.levels]
    tape.backward(list(zip(pyramid.levels, seeds)))
    caller = [t.data.copy() for t in (image, *pyramid.levels)] + [s.copy() for s in seeds]
    assert model_gradcheck(net, image, loss_seed=5) == want
    after = [t.data for t in (image, *pyramid.levels)] + seeds
    assert all(np.array_equal(a, b) for a, b in zip(caller, after))
