"""The benchmark's workloads, each a closed loop with one client.

A workload object is one complete set-up: building it is what `setup_s`
times.  `op(tr)` runs one operation (a train step, an eval pass or a
gradcheck call) and returns (items processed, output correct?);
`finish(tr)` is work that ends the run and counts towards throughput;
`checks()` verifies the run's outputs once the clock has stopped.

Seeds fan out as `cbnet train` does: the model uses seed, the head
seed + 1, the dataset seed + 2 and the step order seed + 3.
"""

from __future__ import annotations

import contextlib
import hashlib
import os

import numpy as np

from cbnet import (
    BackboneSpec,
    CBNetConfig,
    CompositeStyle,
    Tape,
    Tensor4,
    apply_state,
    build_cbnet,
    build_head,
    cbnet_forward,
    evaluate,
    gen_dataset,
    heatmap_channel_mean,
    load_weights,
    loss_and_grads,
    model_gradcheck,
    run_training,
    save_weights,
    set_mode,
    state_dict,
)
from cbnet.task import TRAIN_BATCH

DATASET_N = 64
LR = 0.05                 # the `cbnet train` default
EVAL_CHUNK = 16           # the `evaluate` default
GRADCHECK_TOLERANCE = 1e-3
EQUALITY_STEPS = 4        # driven-loop steps replayed through task.train
DIGEST_STEPS = 16         # one epoch: losses hashed into the loss digest
READER_SEED_OFFSET = 4    # eval reader model: a seed outside the fan-out


class NullTracer:
    """Stands in for `optrace.Tracer` when an operation is not traced."""

    _null = contextlib.nullcontext()

    def span(self, name):
        return self._null

    def tape(self):
        return Tape()

    def active(self, nets=(), heads=()):
        return self._null


NULL = NullTracer()


def full_state(net, head):
    """Model plus head tensors, in the order `cbnet train` saves them."""
    named = state_dict(net)
    for name, value in head.state():
        named[f"head.{name}"] = value
    return named


def digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()[:16]


class SGDLoop:
    """`task.train`'s step, driven one step at a time so each can be timed:
    same parameter order, shuffling, batching and update, so the losses are
    bit-identical to `task.train` with the same seeds."""

    def __init__(self, net, head, dataset, lr, seed):
        self.net, self.head, self.dataset, self.lr = net, head, dataset, lr
        self.params = list(net.unique_learnables())
        seen = {id(v) for _, v, _ in self.params}
        self.params += [(f"head.{name}", v, g) for name, v, g in head.learnables()
                        if id(v) not in seen]
        self.rng = np.random.default_rng(seed)
        self.order = []
        set_mode(net, "training")

    def step(self, tr):
        if not self.order:
            self.order = list(self.rng.permutation(len(self.dataset)))
        take = [self.dataset[self.order.pop(0)]
                for _ in range(min(TRAIN_BATCH, len(self.order)))]
        images = Tensor4(np.concatenate([s.image.data for s in take]))
        grids = np.stack([s.grid for s in take])
        labels = [s.label for s in take]
        for _, _, grad in self.params:
            grad[:] = 0.0
        tape = tr.tape()
        pyramid = self.net.forward(images, tape)
        objectness, logits = self.head.forward(tape, pyramid)
        with tr.span("task.loss"):
            value, gobj, glog = loss_and_grads(objectness, logits, grids, labels)
        tape.backward([(objectness, gobj), (logits, glog)])
        with tr.span("task.sgd"):
            for _, value_arr, grad in self.params:
                value_arr -= self.lr * grad
        return value


class TrainDHLC:
    """SGD on a K=2 dhlc model, 64x64, batch 4, batchnorm in training mode;
    the run ends with a CBNW checkpoint save, as `cbnet train` does."""

    name = "train_dhlc"
    aliases = {"items_per_s": ("train_images_per_s", 1.0, "1/s"),
               "op_ms_p50": ("train_step_ms_p50", 1.0, "ms"),
               "op_ms_tail": ("train_step_ms_tail", 1.0, "ms")}
    config = CBNetConfig(num_backbones=2, style=CompositeStyle.DHLC)

    def __init__(self, seed, tr, outdir):
        self.seed = seed
        spec = self.config.spec
        with tr.span("composite.build"):
            self.net = build_cbnet(self.config, seed)
            self.head = build_head(spec, seed + 1)
        with tr.span("task.gen_dataset"):
            dataset = gen_dataset(seed + 2, DATASET_N, spec.image_size[0])
        self.loop = SGDLoop(self.net, self.head, dataset, LR, seed + 3)
        self.losses = []
        self.path = os.path.join(outdir, "train.cbnw")
        self.nets, self.heads = [self.net], [self.head]
        self.checkpoint_bytes = 0

    def warmup(self):
        self.loop.step(NULL)

    def op(self, tr):
        value = self.loop.step(tr)
        self.losses.append(value)
        return TRAIN_BATCH, bool(np.isfinite(value))

    def finish(self, tr):
        set_mode(self.net, "inference")
        with tr.span("weights.save"):
            save_weights(full_state(self.net, self.head), self.path)
        self.checkpoint_bytes = os.path.getsize(self.path)

    def checks(self):
        saved = full_state(self.net, self.head)
        loaded = load_weights(self.path)
        round_trip = list(loaded) == list(saved) and all(
            loaded[k].tobytes() == np.asarray(v, dtype="<f8").tobytes()
            for k, v in saved.items())
        steps = min(EQUALITY_STEPS, len(self.losses))
        log = run_training(self.config, self.seed, steps, LR, DATASET_N)[3]
        same_losses = digest([log.losses]) == digest([self.losses[:steps]])
        return {"checkpoint_round_trip": round_trip,
                "losses_match_task_train": same_losses}

    def detail(self):
        return {"steps": len(self.losses),
                "loss_first": self.losses[0], "loss_last": self.losses[-1],
                "loss_digest": digest([self.losses[:DIGEST_STEPS]]),
                "loss_digest_steps": min(DIGEST_STEPS, len(self.losses))}


class EvalAccel:
    """The `cbnet eval` / `cbnet viz` path on a K=2 accelerated ahlc model:
    load a CBNW checkpoint, apply it, evaluate 64 images in chunks of 16
    and write a heatmap of every pyramid level of one sample."""

    name = "eval_accel"
    aliases = {"items_per_s": ("eval_images_per_s", 1.0, "1/s"),
               "op_ms_p50": ("eval_pass_ms_p50", 1.0, "ms"),
               "op_ms_tail": ("eval_pass_ms_tail", 1.0, "ms")}
    config = CBNetConfig(num_backbones=2, style=CompositeStyle.AHLC, accelerated=True)

    def __init__(self, seed, tr, outdir):
        spec = self.config.spec
        with tr.span("composite.build"):
            writer = build_cbnet(self.config, seed)
            writer_head = build_head(spec, seed + 1)
        with tr.span("composite.build"):
            self.net = build_cbnet(self.config, seed + READER_SEED_OFFSET)
            self.head = build_head(spec, seed + READER_SEED_OFFSET + 1)
        with tr.span("task.gen_dataset"):
            self.dataset = gen_dataset(seed + 2, DATASET_N, spec.image_size[0])
        self.path = os.path.join(outdir, "eval.cbnw")
        with tr.span("weights.save"):
            save_weights(full_state(writer, writer_head), self.path)
        self.checkpoint_bytes = os.path.getsize(self.path)
        self.writer = (writer, writer_head)
        self.maps = [os.path.join(outdir, f"stage{l}.pgm")
                     for l in range(2, spec.num_stages + 1)]
        self.nets, self.heads = [self.net], [self.head]
        self.reference = None

    def warmup(self):
        self.op(NULL)

    def op(self, tr):
        with tr.span("weights.load"):
            named = load_weights(self.path)
        with tr.span("composite.apply_state"):
            apply_state(self.net, named, head=self.head)
        with tr.span("task.evaluate"):
            metrics = evaluate(self.net, self.head, self.dataset, chunk=EVAL_CHUNK)
        pyramid = cbnet_forward(self.net, self.dataset[0].image)
        with tr.span("viz.heatmap"):
            means = [heatmap_channel_mean(pyramid.level(l + 2), path)
                     for l, path in enumerate(self.maps)]
        result = (metrics, digest(means))
        if self.reference is None:
            self.reference = result
        return len(self.dataset), result == self.reference

    def finish(self, tr):
        pass

    def checks(self):
        writer, writer_head = self.writer
        direct = evaluate(writer, writer_head, self.dataset, chunk=EVAL_CHUNK)
        return {"metrics_match_saved_model": direct == self.reference[0]}

    def detail(self):
        return {"eval_metrics": self.reference[0], "heatmap_digest": self.reference[1]}


class GradcheckMicro:
    """`model_gradcheck` on a tiny K=2 dhlc model: thousands of batch-1
    forwards of about 50 ops each, so per-op overhead dominates."""

    name = "gradcheck_micro"
    aliases = {"items_per_s": ("gradcheck_probes_per_s", 1.0, "1/s"),
               "op_ms_p50": ("gradcheck_s", 1e-3, "s")}
    config = CBNetConfig(
        num_backbones=2, style=CompositeStyle.DHLC,
        spec=BackboneSpec(num_stages=2, stem_channels=2, stage_channels=(2, 4),
                          image_size=(8, 8)))

    def __init__(self, seed, tr, outdir):
        spec = self.config.spec
        self.seed = seed
        with tr.span("composite.build"):
            self.net = build_cbnet(self.config, seed)
        rng = np.random.default_rng(seed + 2)
        self.image = Tensor4(rng.uniform(0.0, 1.0, size=(1, spec.in_channels) + spec.image_size))
        self.probes = sum(v.size for _, v, _ in self.net.unique_learnables()) + self.image.data.size
        self.nets, self.heads = [self.net], []
        self.errors = []
        self.checkpoint_bytes = 0

    def warmup(self):
        cbnet_forward(self.net, self.image)

    def op(self, tr):
        err = model_gradcheck(self.net, self.image, loss_seed=self.seed + 1)
        ok = err <= GRADCHECK_TOLERANCE and (not self.errors or err == self.errors[0])
        self.errors.append(err)
        return self.probes, ok

    def finish(self, tr):
        pass

    def checks(self):
        return {}

    def detail(self):
        return {"probes_per_call": self.probes, "max_error": max(self.errors)}


WORKLOADS = {w.name: w for w in (TrainDHLC, EvalAccel, GradcheckMicro)}
