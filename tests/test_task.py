import math
import tracemalloc

import numpy as np
import pytest

import helpers
from cbnet import (
    BackboneSpec,
    CBNetConfig,
    CompositeStyle,
    ConfigError,
    ShapeError,
    TOY_SPEC,
    Tensor4,
    TrainingDivergedError,
    WithHead,
    build_cbnet,
    build_head,
    cbnet_forward,
    evaluate,
    flop_count,
    force_zero_composites,
    gen_dataset,
    loss_and_grads,
    model_gradcheck,
    set_mode,
    train,
)
from cbnet.engine import Conv2dLayer, Tape, gradcheck
from cbnet.task import GRID_STRIDE, build_task, metrics_from_predictions, render_sample

SMALL = BackboneSpec(num_stages=2, stem_channels=4, stage_channels=(4, 8),
                     image_size=(16, 16))


# -- dataset -----------------------------------------------------------------


def test_dataset_is_deterministic():
    def arrays(seed):
        return [(s.image.data, s.grid, s.label) for s in gen_dataset(seed, 8)]

    def same(a, b):
        return all(np.array_equal(ia, ib) and np.array_equal(ga, gb) and la == lb
                   for (ia, ga, la), (ib, gb, lb) in zip(a, b))

    assert same(arrays(5), arrays(5))
    assert not same(arrays(5), arrays(6))


def test_dataset_size_and_dims():
    data = gen_dataset(1, 10)
    assert len(data) == 10
    for s in data:
        assert s.image.dims == (1, 3, 64, 64)
        assert s.grid.shape == (16, 16)
        assert s.label in (0, 1, 2)
        assert np.all(s.image.data >= 0.0) and np.all(s.image.data <= 1.0)
        assert set(np.unique(s.grid)) <= {0.0, 1.0}
        assert s.grid.any()


def test_grid_matches_geometric_intersection_oracle():
    for i in range(25):
        sample, (r0, r1, c0, c1) = render_sample(100 + i)
        gh, gw = sample.grid.shape
        for gi in range(gh):
            for gj in range(gw):
                rows = (r0 <= gi * GRID_STRIDE + GRID_STRIDE - 1) and (r1 >= gi * GRID_STRIDE)
                cols = (c0 <= gj * GRID_STRIDE + GRID_STRIDE - 1) and (c1 >= gj * GRID_STRIDE)
                assert sample.grid[gi, gj] == float(rows and cols), (i, gi, gj)


def test_dataset_rejects_bad_sizes():
    with pytest.raises(ConfigError):
        gen_dataset(0, 4, image_size=30)
    with pytest.raises(ConfigError):
        gen_dataset(0, 0)


@pytest.mark.parametrize("size", [16, 20])
def test_dataset_rejects_images_below_minimum(size):
    with pytest.raises(ConfigError, match="minimum 24"):
        gen_dataset(0, 4, image_size=size)
    with pytest.raises(ConfigError, match="minimum 24"):
        render_sample(0, size)


def test_smallest_image_size_draws_every_seed():
    for seed in range(200):
        sample, _ = render_sample(seed, 24)
        assert sample.image.dims == (1, 3, 24, 24)
        assert sample.grid.any()


# -- head and loss ------------------------------------------------------------


def _pyramid(seed=3):
    net = build_cbnet(CBNetConfig(num_backbones=1, spec=SMALL), seed)
    return cbnet_forward(net, helpers.random_image(SMALL, seed + 1))


def test_head_forward_shapes():
    head = build_head(SMALL, 2)
    objectness, logits = head.forward(Tape(), _pyramid())
    assert objectness.dims == (1, 1, 4, 4)
    assert logits.dims == (1, 3, 1, 1)


def test_uniform_logits_give_log2_plus_log3():
    grid = np.zeros((1, 4, 4))
    grid[0, :2] = 1.0
    objectness = Tensor4(np.zeros((1, 1, 4, 4)))
    logits = Tensor4(np.zeros((1, 3, 1, 1)))
    value, _, _ = loss_and_grads(objectness, logits, grid, [1])
    assert abs(value - (math.log(2.0) + math.log(3.0))) < 1e-12


def test_saturated_correct_prediction_has_tiny_loss():
    sample = gen_dataset(9, 1)[0]
    z = np.where(sample.grid > 0, 100.0, -100.0)[None, None]
    logits = np.full((1, 3, 1, 1), -100.0)
    logits[0, sample.label] = 100.0
    value, _, _ = loss_and_grads(Tensor4(z), Tensor4(logits), sample.grid[None],
                                 [sample.label])
    assert value < 1e-3


def test_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(10)
    objectness = Tensor4(rng.standard_normal((2, 1, 4, 4)))
    logits = Tensor4(rng.standard_normal((2, 3, 1, 1)))
    grids = (rng.uniform(size=(2, 4, 4)) < 0.4).astype(np.float64)
    labels = [0, 2]

    def loss_fn():
        value, _, _ = loss_and_grads(objectness, logits, grids, labels)
        return value

    _, gobj, glog = loss_and_grads(objectness, logits, grids, labels)
    err = gradcheck(loss_fn, [(objectness.data, gobj), (logits.data, glog)])
    assert err < 1e-4


def test_loss_is_nonnegative_on_random_inputs():
    rng = np.random.default_rng(11)
    for _ in range(10):
        objectness = Tensor4(rng.standard_normal((1, 1, 4, 4)) * 3)
        logits = Tensor4(rng.standard_normal((1, 3, 1, 1)) * 3)
        grid = (rng.uniform(size=(1, 4, 4)) < 0.5).astype(np.float64)
        value, _, _ = loss_and_grads(objectness, logits, grid, [1])
        assert value >= 0.0


# -- training -----------------------------------------------------------------


def _tiny_setup(seed=42, n=8, k=1, image_size=64, style=CompositeStyle.AHLC):
    spec = BackboneSpec()
    cfg = CBNetConfig(num_backbones=k, style=style, spec=spec)
    net = build_cbnet(cfg, seed)
    head = build_head(spec, seed + 1)
    data = gen_dataset(seed + 2, n, image_size)
    return net, head, data


def test_with_head_appends_the_head_as_head_names_and_counts_shared_arrays_once():
    net = build_cbnet(CBNetConfig(num_backbones=2, share_weights=True, spec=SMALL), 1)
    head = build_head(SMALL, 2)
    joint = WithHead(net, head)
    want = list(net.state()) + [(f"head.{name}", value) for name, value in head.state()]
    assert [(name, id(value)) for name, value in joint.state()] == \
        [(name, id(value)) for name, value in want]
    want = list(net.unique_learnables()) + [
        (f"head.{name}", value, grad) for name, value, grad in head.learnables()]
    assert [(name, id(value), id(grad)) for name, value, grad in joint.unique_learnables()] \
        == [(name, id(value), id(grad)) for name, value, grad in want]


def test_zero_lr_keeps_parameters_bit_identical():
    net, head, data = _tiny_setup()
    before = {n: v.copy() for n, v, _ in net.unique_learnables()}
    before.update({f"head.{n}": v.copy() for n, v, _ in head.learnables()})
    train(net, head, data, steps=3, lr=0.0, seed=0)
    for name, value, _ in net.unique_learnables():
        assert np.array_equal(before[name], value), name
    for name, value, _ in head.learnables():
        assert np.array_equal(before[f"head.{name}"], value), name


def test_training_is_deterministic():
    logs = []
    for _ in range(2):
        net, head, data = _tiny_setup()
        logs.append(train(net, head, data, steps=5, lr=0.01, seed=3).losses)
    assert logs[0] == logs[1]


def test_training_reduces_loss_on_tiny_budget():
    net, head, data = _tiny_setup()
    log = train(net, head, data, steps=30, lr=0.05, seed=4)
    assert len(log.losses) == 30
    assert all(np.isfinite(v) for v in log.losses)
    assert log.losses[-1] < log.losses[0]
    assert set(log.final_metrics) == {"cell_f1", "class_accuracy"}


def test_shared_backbones_stay_identical_under_training():
    spec = BackboneSpec()
    net = build_cbnet(CBNetConfig(num_backbones=2, share_weights=True, spec=spec), 5)
    head = build_head(spec, 6)
    train(net, head, gen_dataset(7, 8), steps=4, lr=0.05, seed=8)
    s1 = dict(net.backbones[0].state())
    for name, value in net.backbones[1].state():
        assert np.array_equal(value, s1[name])


def test_assistant_parameters_receive_gradient():
    net, head, data = _tiny_setup(k=2)
    log = train(net, head, data, steps=4, lr=0.01, seed=9)
    assistant = [name for name in log.grad_seen if name.startswith("b1.")]
    assert assistant
    missing = [n for n in assistant if not log.grad_seen[n]]
    assert not missing, missing


def test_slc_assistant_last_stage_alone_receives_no_gradient():
    # slc feeds the assistant's stage l into the lead's stage l + 1, so
    # b1.stage5 feeds nothing: its 12 arrays must read False, and every other
    # array reads True, which a grad_seen set without looking at the gradient fails
    net, head, data = _tiny_setup(k=2, style=CompositeStyle.SLC)
    log = train(net, head, data, steps=2, lr=0.01, seed=9)
    unseen = [name for name, seen in log.grad_seen.items() if not seen]
    assert unseen == [name for name in log.grad_seen if name.startswith("b1.stage5.")]
    assert len(unseen) == 12


STEP_PEAK_MIB = 45  # the step peaks near 34 MiB, or 61 MiB with every conv's columns kept


def test_a_training_step_keeps_no_conv_columns_on_its_tape():
    # one K=2 dhlc train step at full size, batch 4: numpy's allocations are
    # the same on every machine, so the traced peak is too
    spec = BackboneSpec()
    net = build_cbnet(CBNetConfig(num_backbones=2, style=CompositeStyle.DHLC, spec=spec), 3)
    head = build_head(spec, 4)
    data = gen_dataset(5, 4)
    images = Tensor4(np.concatenate([s.image.data for s in data]))
    with set_mode(net, "training"):
        tracemalloc.start()
        try:
            tape = Tape()
            objectness, logits = head.forward(tape, net.forward(images, tape))
            _, gobj, glog = loss_and_grads(objectness, logits, [s.grid for s in data],
                                           [s.label for s in data])
            convs = [(xs, ctx) for layer, xs, _, ctx in tape.steps
                     if isinstance(layer, Conv2dLayer)]
            tape.backward([(objectness, gobj), (logits, glog)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(convs) == 44  # the model's 42 convs and the head's 2
    assert all(ctx[0] is xs[0] and ctx[1] is None for xs, ctx in convs)
    assert peak < STEP_PEAK_MIB * 2 ** 20, peak / 2 ** 20


def test_train_rejects_negative_steps():
    net, head, data = _tiny_setup(n=2)
    with pytest.raises(ConfigError, match="steps must be >= 0, got -1"):
        train(net, head, data, steps=-1, lr=0.05, seed=0)


@pytest.mark.parametrize("lr", [math.nan, math.inf, -0.05])
def test_train_rejects_non_finite_or_negative_lr(lr):
    net, head, data = _tiny_setup(n=2)
    with pytest.raises(ConfigError, match="learning rate must be finite and >= 0"):
        train(net, head, data, steps=1, lr=lr, seed=0)


def test_train_rejects_empty_dataset_before_touching_modes():
    net, head, _ = _tiny_setup(n=1)
    for p in net.bn_params():
        p.mode = "training"
    with pytest.raises(ConfigError, match="empty dataset"):
        train(net, head, [], steps=1, lr=0.05, seed=0)
    assert all(p.mode == "training" for p in net.bn_params())


ONE_BY_ONE = BackboneSpec(num_stages=5, stem_channels=2, stage_channels=(2, 2, 2, 2, 2),
                         image_size=(32, 32))  # stage 5 is 1x1


def _one_by_one_setup(spec=ONE_BY_ONE, n=5):
    net = build_cbnet(CBNetConfig(num_backbones=1, spec=spec), 3)
    return net, build_head(spec, 4), gen_dataset(2, n, spec.image_size[0])


def test_train_rejects_a_one_sample_batch_on_a_1x1_stage_before_touching_modes():
    # 5 samples in batches of 4: the second step draws the fifth sample alone
    net, head, data = _one_by_one_setup()
    before = [v.copy() for _, v in net.state()]
    for p in net.bn_params():
        p.mode = "training"
    with pytest.raises(ConfigError, match=r"batch of 1 sample; its stage-5 map is 1x1"):
        train(net, head, data, steps=2, lr=0.05, seed=0)
    assert all(p.mode == "training" for p in net.bn_params())
    assert all(np.array_equal(a, v) for a, (_, v) in zip(before, net.state()))
    with pytest.raises(ConfigError, match="batches of 4"):
        train(net, head, data[:1], steps=1, lr=0.05, seed=0)


@pytest.mark.parametrize("spec, n, steps", [
    (ONE_BY_ONE, 5, 1),   # the one-sample batch is never drawn
    (ONE_BY_ONE, 6, 3),   # epochs end on two samples
    (BackboneSpec(num_stages=5, stem_channels=2, stage_channels=(2, 2, 2, 2, 2),
                  image_size=(64, 64)), 5, 2),  # stage 5 is 2x2
])
def test_train_accepts_runs_that_never_normalize_one_value(spec, n, steps):
    net, head, data = _one_by_one_setup(spec, n)
    log = train(net, head, data, steps=steps, lr=0.05, seed=0)
    assert len(log.losses) == steps and all(np.isfinite(log.losses))


# values recorded from the reference run of this exact budget; the loose
# tolerance absorbs BLAS-order differences across machines while still
# catching any change to seeding, batching or gradient math
PINNED_K1_INITIAL = 2.5959597228774096
PINNED_K1_FINAL = 0.10636867787299745


def test_pinned_baseline_regression():
    from cbnet.task import run_training

    _, _, _, log = run_training(CBNetConfig(num_backbones=1), 42, 200, 0.05, 64)
    assert log.losses[-1] < 0.5 * log.losses[0]
    assert abs(log.losses[0] - PINNED_K1_INITIAL) < 0.05 * PINNED_K1_INITIAL
    assert abs(log.losses[-1] - PINNED_K1_FINAL) < 0.05 * PINNED_K1_FINAL


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_divergence_aborts_with_step_index():
    net, head, data = _tiny_setup()
    with pytest.raises(TrainingDivergedError, match="step"):
        train(net, head, data, steps=50, lr=1e9, seed=10)


# -- evaluation ----------------------------------------------------------------


def test_metrics_perfect_predictions():
    grids = np.array([[[1, 0], [0, 1]]], dtype=bool)
    m = metrics_from_predictions(grids, grids, [2], [2])
    assert m == {"cell_f1": 1.0, "class_accuracy": 1.0}


def test_metrics_all_background_has_zero_f1():
    true = np.array([[[1, 1], [0, 0]]], dtype=bool)
    pred = np.zeros_like(true)
    m = metrics_from_predictions(pred, true, [0], [1])
    assert m["cell_f1"] == 0.0
    assert m["class_accuracy"] == 0.0


def test_metrics_with_no_predicted_and_no_true_cell_have_zero_f1():
    # F1 is 0/0 here; the documented convention is 0.0, not a perfect 1.0
    empty = np.zeros((2, 3, 3), dtype=bool)
    m = metrics_from_predictions(empty, empty, [1, 0], [1, 2])
    assert m == {"cell_f1": 0.0, "class_accuracy": 0.5}


def test_metrics_match_confusion_oracle():
    rng = np.random.default_rng(12)
    pred = rng.uniform(size=(6, 5, 5)) < 0.5
    true = rng.uniform(size=(6, 5, 5)) < 0.3
    pred_labels = rng.integers(0, 3, size=6)
    true_labels = rng.integers(0, 3, size=6)
    m = metrics_from_predictions(pred, true, pred_labels, true_labels)
    tp = fp = fn = 0
    for p, t in zip(pred.ravel(), true.ravel()):
        tp += p and t
        fp += p and not t
        fn += (not p) and t
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    want_f1 = (2 * precision * recall / (precision + recall)) if precision + recall else 0.0
    assert abs(m["cell_f1"] - want_f1) < 1e-12
    assert m["class_accuracy"] == np.mean(pred_labels == true_labels)


def test_evaluate_runs_end_to_end_and_rejects_empty():
    net, head, data = _tiny_setup(n=5)
    metrics = evaluate(net, head, data)
    assert 0.0 <= metrics["cell_f1"] <= 1.0
    assert 0.0 <= metrics["class_accuracy"] <= 1.0
    with pytest.raises(ConfigError):
        evaluate(net, head, [])


def test_evaluate_counts_an_objectness_logit_of_exactly_zero_as_not_predicted():
    # a logit of 0 is probability 0.5, which is not above the threshold
    net, head, data = build_task(CBNetConfig(num_backbones=1), 42, 8)
    head.obj.params.weight.data[...] = 0.0
    head.obj.params.bias[...] = 0.0
    assert sum(s.grid.sum() for s in data) > 0
    assert evaluate(net, head, data)["cell_f1"] == 0.0


@pytest.mark.parametrize("chunk", [0, -1])
def test_evaluate_rejects_a_chunk_below_one(chunk):
    net, head, data = _tiny_setup(n=2)
    with pytest.raises(ConfigError, match=f"chunk must be at least 1, got {chunk}"):
        evaluate(net, head, data, chunk=chunk)


# -- batchnorm modes ---------------------------------------------------------------


SCOPE_SPEC = BackboneSpec(num_stages=3, stem_channels=2, stage_channels=(2, 2, 2),
                          image_size=(24, 24))

_DIVERGES = [pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning"),
             pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")]

# name -> (error the pass raises or None, the pass)
_PASSES = {
    "evaluate": (None, lambda net, head, data: evaluate(net, head, data)),
    "train": (None, lambda net, head, data: train(net, head, data, steps=2, lr=0.05, seed=0)),
    "flop_count": (None, lambda net, head, data: flop_count(
        net, (2, 3) + SCOPE_SPEC.image_size)),
    "model_gradcheck": (None, lambda net, head, data: model_gradcheck(
        net, data[0].image, loss_seed=1)),
    "model_gradcheck-rejected-image": (ShapeError, lambda net, head, data: model_gradcheck(
        net, helpers.random_image(TOY_SPEC, 3))),
    "train-diverging": (TrainingDivergedError, lambda net, head, data: train(
        net, head, data, steps=3, lr=1e300, seed=10)),
}


@pytest.mark.parametrize("state", ["training", "inference", "mixed"])
@pytest.mark.parametrize("name", [
    pytest.param(name, marks=_DIVERGES if name == "train-diverging" else ())
    for name in _PASSES])
def test_every_pass_leaves_each_batchnorm_in_its_starting_mode(name, state):
    net = build_cbnet(CBNetConfig(num_backbones=2, spec=SCOPE_SPEC), 11)
    head = build_head(SCOPE_SPEC, 12)
    data = gen_dataset(13, 6, SCOPE_SPEC.image_size[0])
    if state == "mixed":  # training backbones, inference connections
        set_mode(net, "training")
        force_zero_composites(net)
    else:
        set_mode(net, state)
    before = [p.mode for p in net.bn_params()]
    assert len(set(before)) == (2 if state == "mixed" else 1)
    error, run = _PASSES[name]
    if error is None:
        run(net, head, data)
    else:
        with pytest.raises(error):
            run(net, head, data)
    assert [p.mode for p in net.bn_params()] == before
