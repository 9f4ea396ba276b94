"""Forward-only passes: `cbnet_forward`, `backbone_forward` and `evaluate`
run every layer on a tape that records nothing.

Their outputs must equal a recording forward bit for bit, the tape must
hold no step afterwards, and every op must still go through `Tape.run`
on a tape made by calling the module's `Tape` name, which is how the
benchmark's op tracer sees them.
"""

import numpy as np
import pytest

import helpers
from cbnet import (
    TOY_SPEC,
    BackboneSpec,
    CBNetConfig,
    CompositeStyle,
    Tape,
    backbone_forward,
    build_backbone,
    build_cbnet,
    build_head,
    cbnet_forward,
    composite,
    evaluate,
    gen_dataset,
    set_mode,
    task,
)

# the synthetic task needs images of at least 24 pixels
TASK_SPEC = BackboneSpec(num_stages=3, stem_channels=4, stage_channels=(4, 8, 8),
                         image_size=(32, 32))
CONFIGS = {
    "plain": dict(num_backbones=2, style=CompositeStyle.DHLC),
    "accelerated": dict(num_backbones=2, style=CompositeStyle.AHLC, accelerated=True),
    "shared": dict(num_backbones=3, style=CompositeStyle.SLC, share_weights=True),
    "accelerated-shared": dict(num_backbones=2, style=CompositeStyle.ALLC,
                               accelerated=True, share_weights=True),
}


class CountingTape(Tape):
    """Counts the ops run on it, the way the benchmark tracer's tape sees them."""

    def __init__(self):
        super().__init__()
        self.ops = 0

    def run(self, layer, *xs):
        self.ops += 1
        return super().run(layer, *xs)


class AlwaysRecordingTape(Tape):
    """A tape that ignores requests to stop recording: the reference."""

    recording = property(lambda self: True, lambda self, value: None)


def _counting_factory(monkeypatch, module):
    tapes = []

    def factory():
        tapes.append(CountingTape())
        return tapes[-1]
    monkeypatch.setattr(module, "Tape", factory)
    return tapes


@pytest.mark.parametrize("mode", ["inference", "training"])
@pytest.mark.parametrize("kw", CONFIGS.values(), ids=CONFIGS.keys())
def test_cbnet_forward_equals_recording_forward(kw, mode):
    cfg = CBNetConfig(spec=TOY_SPEC, **kw)
    image = helpers.random_image(TOY_SPEC, 3)
    nets = [build_cbnet(cfg, 2), build_cbnet(cfg, 2)]
    for net in nets:
        set_mode(net, mode)
    got = cbnet_forward(nets[0], image)
    want = nets[1].forward(image, Tape())
    assert all(np.array_equal(a.data, b.data) for a, b in zip(got.levels, want.levels))
    stats = [[(p.running_mean, p.running_var) for p in net.bn_params()] for net in nets]
    assert all(np.array_equal(a, b) for pa, pb in zip(*stats) for a, b in zip(pa, pb))


def test_backbone_forward_equals_recording_forward():
    bb = build_backbone(TOY_SPEC, 4)
    image = helpers.random_image(TOY_SPEC, 5)
    got = backbone_forward(bb, image)
    want = bb.forward(image, Tape())
    assert all(np.array_equal(a.data, b.data) for a, b in zip(got, want))


def test_non_recording_tape_keeps_no_step_and_refuses_backward():
    net = build_cbnet(CBNetConfig(spec=TOY_SPEC, **CONFIGS["plain"]), 6)
    tape = Tape()
    assert tape.recording
    tape.recording = False
    pyramid = net.forward(helpers.random_image(TOY_SPEC, 7), tape)
    assert tape.steps == []
    with pytest.raises(RuntimeError, match="recorded nothing"):
        tape.backward([(pyramid.last, np.ones(pyramid.last.dims))])


@pytest.mark.parametrize("kw", [CONFIGS["plain"], CONFIGS["accelerated"]],
                         ids=["plain", "accelerated"])
def test_evaluate_equals_recording_tape_reference(monkeypatch, kw):
    cfg = CBNetConfig(spec=TASK_SPEC, **kw)
    net, head = build_cbnet(cfg, 8), build_head(cfg.spec, 9)
    data = gen_dataset(10, 7, 32)
    got = evaluate(net, head, data, chunk=3)
    monkeypatch.setattr(task, "Tape", AlwaysRecordingTape)
    assert evaluate(net, head, data, chunk=3) == got


def test_tracer_sees_every_op_of_cbnet_forward(monkeypatch):
    net = build_cbnet(CBNetConfig(spec=TOY_SPEC, **CONFIGS["accelerated"]), 11)
    image = helpers.random_image(TOY_SPEC, 12)
    recorded = Tape()
    net.forward(image, recorded)
    tapes = _counting_factory(monkeypatch, composite)
    cbnet_forward(net, image)
    assert [t.ops for t in tapes] == [len(recorded.steps)]
    assert tapes[0].steps == [] and not tapes[0].recording


def test_tracer_sees_every_op_of_evaluate(monkeypatch):
    cfg = CBNetConfig(spec=TASK_SPEC, **CONFIGS["accelerated"])
    net, head = build_cbnet(cfg, 13), build_head(cfg.spec, 14)
    data = gen_dataset(15, 5, 32)
    recorded = Tape()
    head.forward(recorded, net.forward(data[0].image, recorded))
    tapes = _counting_factory(monkeypatch, task)
    evaluate(net, head, data, chunk=2)
    assert sum(t.ops for t in tapes) == 3 * len(recorded.steps)
    assert all(t.steps == [] and not t.recording for t in tapes)
