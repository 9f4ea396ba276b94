"""Forward-only passes: `cbnet_forward`, `backbone_forward` and `evaluate`
run every layer on a tape that records nothing.

Their outputs must equal a recording forward bit for bit, the tape must
hold no step afterwards, and every op must still go through `Tape.run`
on a tape made by calling the module's `Tape` name, which is how the
benchmark's op tracer sees them.  `evaluate` maps slices of its samples
over a pool of threads; that must change no bit either.
"""

import sys
import threading
import time

import numpy as np
import pytest

import helpers
from cbnet import (
    TOY_SPEC,
    BackboneSpec,
    CBNetConfig,
    CompositeStyle,
    ShapeError,
    Tape,
    Tensor4,
    backbone_forward,
    build_backbone,
    build_cbnet,
    build_head,
    cbnet_forward,
    composite,
    engine,
    evaluate,
    force_zero_composites,
    gen_dataset,
    set_mode,
    task,
    train,
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


def _tracer_counts_of_evaluate(monkeypatch, workers):
    """(ops recorded by one forward of one sample, the tapes evaluate made)
    for 5 samples in chunks of 2 split across `workers` slices."""
    cfg = CBNetConfig(spec=TASK_SPEC, **CONFIGS["accelerated"])
    net, head = build_cbnet(cfg, 13), build_head(cfg.spec, 14)
    data = gen_dataset(15, 5, 32)
    recorded = Tape()
    head.forward(recorded, net.forward(data[0].image, recorded))
    tapes = _counting_factory(monkeypatch, task)
    monkeypatch.setattr(engine, "_usable_cpus", lambda: workers)
    evaluate(net, head, data, chunk=2)
    assert all(t.steps == [] and not t.recording for t in tapes)
    return len(recorded.steps), tapes


def test_tracer_sees_every_op_of_evaluate(monkeypatch):
    steps, tapes = _tracer_counts_of_evaluate(monkeypatch, 1)
    assert sum(t.ops for t in tapes) == 3 * steps


def test_tracer_sees_every_op_of_evaluate_split_across_two_workers(monkeypatch):
    # chunks of 2, 2 and 1 samples split into 2, 2 and 1 one-sample slices
    steps, tapes = _tracer_counts_of_evaluate(monkeypatch, 2)
    assert [t.ops for t in tapes] == [steps] * 5


# -- splitting a batch: the property `evaluate`'s threads rely on ------------------


def _randomized(net, seed):
    """net with every tensor redrawn (running variances in [0.5, 2]), in
    inference mode, so batchnorm's running statistics shape the output."""
    rng = np.random.default_rng(seed)
    for name, value in net.state():
        value[:] = (rng.uniform(0.5, 2.0, value.shape) if name.endswith("running_var")
                    else rng.standard_normal(value.shape))
    set_mode(net, "inference")
    return net


SPLITS = [(0, 3, 7), (0, 1, 7), (0, 2, 4, 7), tuple(range(8))]


@pytest.mark.parametrize("cfg", [*helpers.config_sweep(TOY_SPEC), *helpers.config_sweep(TASK_SPEC)],
                         ids=lambda cfg: f"{cfg.spec.image_size[0]}px-{helpers.cfg_id(cfg)}")
def test_inference_forward_of_a_batch_equals_forwards_of_its_slices(cfg):
    net = _randomized(build_cbnet(cfg, 16), 17)
    rng = np.random.default_rng(18)
    images = rng.uniform(0.0, 1.0, (7, cfg.spec.in_channels) + cfg.spec.image_size)
    whole = cbnet_forward(net, Tensor4(images)).levels
    for bounds in SPLITS:
        parts = [cbnet_forward(net, Tensor4(images[a:b])).levels
                 for a, b in zip(bounds, bounds[1:])]
        for l, level in enumerate(whole):
            assert np.array_equal(level.data, np.concatenate([p[l].data for p in parts])), \
                (bounds, l)


# -- evaluate under splitting ----------------------------------------------------


def _eval_setup(kw=CONFIGS["accelerated"], n=7):
    cfg = CBNetConfig(spec=TASK_SPEC, **kw)
    net = _randomized(build_cbnet(cfg, 19), 20)
    return net, _randomized(build_head(cfg.spec, 21), 22), gen_dataset(23, n, 32)


@pytest.mark.parametrize("kw", CONFIGS.values(), ids=CONFIGS.keys())
def test_evaluate_metrics_do_not_depend_on_workers_or_chunk(monkeypatch, kw):
    net, head, data = _eval_setup(kw)
    got = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(engine, "_usable_cpus", lambda: workers)
        for chunk in (1, 3, 16, len(data)):
            got[workers, chunk] = evaluate(net, head, data, chunk=chunk)
    assert all(m == got[1, len(data)] for m in got.values()), got


@pytest.mark.parametrize("workers", [1, 2, 3, 8])
def test_split_logits_equal_a_serial_forward_bit_for_bit(monkeypatch, workers):
    net, head, data = _eval_setup(n=9)
    tape = Tape()
    objectness, logits = head.forward(tape, net.forward(task._batch(data)[0], tape))
    # the comparison can fail: samples differ in their logits
    assert len({row.tobytes() for row in logits.data}) == len(data)
    monkeypatch.setattr(engine, "_usable_cpus", lambda: workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        got = {chunk: task._logits(net, head, data, chunk) for chunk in (1, 3, 16, len(data))}
    finally:
        sys.setswitchinterval(interval)
    for chunk, (obj, cls) in got.items():
        assert np.array_equal(obj, objectness.data) and np.array_equal(cls, logits.data), chunk


@pytest.mark.parametrize("workers, chunk", [(2, 1), (3, 4), (3, 16), (8, 5)])
def test_evaluate_keeps_at_most_chunk_samples_in_flight(monkeypatch, workers, chunk):
    net, head, data = _eval_setup(n=9)
    batch, forward = task._batch, head.forward
    lock, mine = threading.Lock(), threading.local()
    live, peak = [0], [0]

    def counting_batch(samples):
        with lock:
            live[0] += len(samples)
            peak[0] = max(peak[0], live[0])
        mine.n = len(samples)
        time.sleep(0.005)  # let the other slices start
        return batch(samples)

    def counting_forward(tape, pyramid):
        out = forward(tape, pyramid)
        with lock:
            live[0] -= mine.n
        return out

    monkeypatch.setattr(task, "_batch", counting_batch)
    monkeypatch.setattr(head, "forward", counting_forward)
    monkeypatch.setattr(engine, "_usable_cpus", lambda: workers)
    evaluate(net, head, data, chunk=chunk)
    assert live[0] == 0 and 1 <= peak[0] <= chunk, peak


def _wrong_size(data, *at):
    """data with sample i redrawn at 32 + 4 * (k + 1) pixels for the k-th i in `at`."""
    data = list(data)
    for k, i in enumerate(at):
        data[i] = task.render_sample(100 + i, 32 + 4 * (k + 1))[0]
    return data


@pytest.mark.parametrize("workers, chunk, at", [
    (2, 2, (3,)),        # alone in the second slice of the second chunk
    (4, 4, (3,)),        # alone in the last of four slices
    (3, 3, (1, 2)),      # two failing slices: the first in slice order is raised
])
def test_evaluate_raises_a_slice_error_as_the_serial_path_does(monkeypatch, workers, chunk, at):
    net, head, data = _eval_setup(n=4)
    data = _wrong_size(data, *at)
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 1)
    with pytest.raises(ShapeError) as serial:
        evaluate(net, head, data, chunk=1)
    set_mode(net, "training")
    before = [p.mode for p in net.bn_params()]
    threads = threading.active_count()
    monkeypatch.setattr(engine, "_usable_cpus", lambda: workers)
    with pytest.raises(ShapeError) as split:
        evaluate(net, head, data, chunk=chunk)
    assert str(split.value) == str(serial.value)
    assert [p.mode for p in net.bn_params()] == before
    assert threading.active_count() == threads


def test_a_mixed_size_dataset_raises_one_spec_error_naming_the_sample(monkeypatch):
    net, head, data = _eval_setup(n=6)
    data = _wrong_size(data, 3)  # 36x36 in a 32x32 dataset
    set_mode(net, "training")
    force_zero_composites(net)  # training backbones, inference connections
    before = [p.mode for p in net.bn_params()]
    state = [v.copy() for _, v in net.state()]
    with pytest.raises(ShapeError) as want:
        TASK_SPEC.check_image(data[3].image)
    messages = set()
    with pytest.raises(ShapeError) as err:
        train(net, head, data, steps=2, lr=0.05, seed=0)
    messages.add(str(err.value))
    for workers in (1, 2, 4):
        monkeypatch.setattr(engine, "_usable_cpus", lambda: workers)
        with pytest.raises(ShapeError) as err:
            evaluate(net, head, data)
        messages.add(str(err.value))
        assert [p.mode for p in net.bn_params()] == before
    assert messages == {f"sample 3: {want.value}"}
    assert all(np.array_equal(a, v) for a, (_, v) in zip(state, net.state()))


def test_evaluate_raises_the_first_failing_slice_once_every_thread_is_joined(monkeypatch):
    # images pass the up-front check, so make the slices from sample 2 on fail themselves
    net, head, data = _eval_setup(n=6)
    batch = task._batch

    def failing(samples):
        first = next(i for i, s in enumerate(data) if s is samples[0])
        if first >= 2:
            raise RuntimeError(f"slice from sample {first}")
        return batch(samples)

    monkeypatch.setattr(task, "_batch", failing)
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 3)  # slices from samples 0, 2, 4
    set_mode(net, "training")
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="^slice from sample 2$"):
        evaluate(net, head, data, chunk=6)
    assert all(p.mode == "training" for p in net.bn_params())
    assert threading.active_count() == threads
