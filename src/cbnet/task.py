"""Synthetic dense-prediction task over the lead feature pyramid.

Each sample is one shape (circle, square or triangle) painted over a noise
background.  Targets are a binary objectness grid at 1/4 image resolution
(one cell per 4x4 pixel block, matching the stage-2 map) marking every
cell the shape's bounding box touches, plus the 3-way shape class.  The
toy head predicts both from the pyramid, trained with mean binary
cross-entropy over cells plus class cross-entropy, unit weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .backbone import BackboneSpec, Module, _init_conv
from .composite import CBNet, CBNetConfig, WithHead, build_cbnet, set_mode
from .engine import ConfigError, Conv2dLayer, GAP, ShapeError, Tape, Tensor4

GRID_STRIDE = 4
# a shape's half-size is drawn from 5..10 and its centre lies at least that
# far inside the border, so a 2 * 10 + 1 pixel side is the least that fits
# every draw; 24 is the smallest multiple of GRID_STRIDE above it
MIN_IMAGE_SIZE = 24
CLASS_NAMES = ("circle", "square", "triangle")
TRAIN_BATCH = 4

# one user-facing seed fans out into fixed roles
NET_SEED, HEAD_SEED, DATA_SEED, SGD_SEED = 0, 1, 2, 3


def sub_seed(seed, role):
    return int(seed) + role


class TrainingDivergedError(RuntimeError):
    """The loss became non-finite during training."""


@dataclass
class SyntheticSample:
    image: Tensor4          # (1, 3, h, w), values in [0, 1]
    grid: np.ndarray        # (h/4, w/4) of {0.0, 1.0}
    label: int              # index into CLASS_NAMES


def render_sample(seed, image_size=64):
    """Deterministically draw one sample; also returns the shape's bounding
    box (r0, r1, c0, c1), inclusive pixel coords, for geometric checking."""
    size = int(image_size)
    if size % GRID_STRIDE:
        raise ConfigError(f"image size {size} not divisible by {GRID_STRIDE}")
    if size < MIN_IMAGE_SIZE:
        raise ConfigError(f"image size {size} is below the minimum {MIN_IMAGE_SIZE}")
    rng = np.random.default_rng(seed)
    image = rng.uniform(0.0, 0.35, size=(3, size, size))
    label = int(rng.integers(0, 3))
    half = int(rng.integers(5, 11))
    cy = int(rng.integers(half, size - half))
    cx = int(rng.integers(half, size - half))
    color = rng.uniform(0.65, 1.0, size=3)

    ys = np.arange(size)[:, None]
    xs = np.arange(size)[None, :]
    if label == 0:
        mask = (ys - cy) ** 2 + (xs - cx) ** 2 <= half * half
    elif label == 1:
        mask = np.maximum(np.abs(ys - cy), np.abs(xs - cx)) <= half
    else:
        # isoceles triangle, apex at the top row of the box
        inside_rows = (ys >= cy - half) & (ys <= cy + half)
        mask = inside_rows & (np.abs(xs - cx) * 2 <= (ys - (cy - half)))
    image[:, mask] = color[:, None]

    bbox = (cy - half, cy + half, cx - half, cx + half)
    grid = np.zeros((size // GRID_STRIDE, size // GRID_STRIDE))
    r0, r1, c0, c1 = bbox
    grid[r0 // GRID_STRIDE:r1 // GRID_STRIDE + 1,
         c0 // GRID_STRIDE:c1 // GRID_STRIDE + 1] = 1.0
    sample = SyntheticSample(Tensor4(image[None]), grid, label)
    return sample, bbox


def gen_dataset(seed, n, image_size=64):
    """n independent samples; sample i is drawn from seed + i."""
    if n < 1:
        raise ConfigError(f"dataset size must be >= 1, got {n}")
    return [render_sample(seed + i, image_size)[0] for i in range(n)]


# -- head and loss ---------------------------------------------------------------


class Head(Module):
    """Objectness: 1x1 conv on the stage-2 map.  Class: global average of the
    last map pushed through a 1x1 conv to 3 logits."""

    def __init__(self, obj_conv, cls_conv):
        self.obj = Conv2dLayer(obj_conv)
        self.cls = Conv2dLayer(cls_conv)

    def forward(self, tape, pyramid):
        objectness = tape.run(self.obj, pyramid.level(2))
        pooled = tape.run(GAP, pyramid.last)
        logits = tape.run(self.cls, pooled)
        return objectness, logits

    def children(self):
        return [("obj", self.obj), ("cls", self.cls)]


def build_head(spec: BackboneSpec, seed) -> Head:
    rng = np.random.default_rng(seed)
    obj = _init_conv(rng, spec.stage_out_channels(2), 1, 1, stride=1, pad=0)
    cls = _init_conv(rng, spec.stage_out_channels(spec.num_stages), 3, 1, stride=1, pad=0)
    return Head(obj, cls)


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def loss_and_grads(objectness: Tensor4, logits: Tensor4, grids, labels):
    """Scalar loss plus gradients w.r.t. both logit tensors.

    Mean binary cross-entropy over all grid cells of the batch plus mean
    class cross-entropy; both terms use numerically stable log-sum forms.
    """
    z = objectness.data[:, 0]
    t = np.asarray(grids, dtype=np.float64)
    if z.shape != t.shape:
        raise ShapeError(f"objectness {z.shape} does not match targets {t.shape}")
    n = z.shape[0]
    cells = float(z.size)
    bce = float((np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))).sum() / cells)

    u = logits.data.reshape(n, -1)
    labels = np.asarray(labels, dtype=np.int64)
    if u.shape[1] != len(CLASS_NAMES) or labels.shape != (n,):
        raise ShapeError(f"class logits {u.shape} / labels {labels.shape} malformed")
    umax = u.max(axis=1, keepdims=True)
    lse = umax[:, 0] + np.log(np.exp(u - umax).sum(axis=1))
    ce = float((lse - u[np.arange(n), labels]).sum() / n)

    grad_obj = ((_sigmoid(z) - t) / cells)[:, None]
    softmax = np.exp(u - lse[:, None])
    softmax[np.arange(n), labels] -= 1.0
    grad_logits = (softmax / n).reshape(logits.dims)
    return bce + ce, grad_obj, grad_logits


# -- training and evaluation -------------------------------------------------------


@dataclass
class TrainLog:
    losses: list
    final_metrics: dict
    grad_seen: dict = field(default_factory=dict)


def _batch(samples):
    images = Tensor4(np.concatenate([s.image.data for s in samples]))
    grids = np.stack([s.grid for s in samples])
    labels = [s.label for s in samples]
    return images, grids, labels


def train(net: CBNet, head: Head, dataset, steps, lr, seed) -> TrainLog:
    """Plain SGD, batch size TRAIN_BATCH, epoch-wise reshuffling from seed.

    Batchnorm runs in training mode for the steps and in inference mode for
    the final metrics, each scoped by `set_mode`, so the caller's modes come
    back.  Aborts on a non-finite loss; rejects up front a run whose
    one-sample batch meets a 1x1 last stage.
    """
    if not dataset:
        raise ConfigError("cannot train on an empty dataset")
    if steps < 0:
        raise ConfigError(f"steps must be >= 0, got {steps}")
    if not 0 <= lr < np.inf:
        raise ConfigError(f"learning rate must be finite and >= 0, got {lr}")
    spec = net.config.spec  # an epoch ends on len(dataset) % TRAIN_BATCH samples
    if (spec.stage_hw(spec.num_stages) == (1, 1) and len(dataset) % TRAIN_BATCH == 1
            and steps > len(dataset) // TRAIN_BATCH):
        raise ConfigError(f"{steps} steps over {len(dataset)} samples in batches of {TRAIN_BATCH} "
                          f"draw a batch of 1 sample; its stage-{spec.num_stages} map is 1x1, "
                          "so batchnorm there would normalize one value per channel")
    params = list(WithHead(net, head).unique_learnables())
    grad_seen = {name: False for name, _, _ in params}

    rng = np.random.default_rng(seed)
    order = []
    losses = []
    with set_mode(net, "training"):
        for step in range(steps):
            if not order:
                order = list(rng.permutation(len(dataset)))
            take = [dataset[order.pop(0)] for _ in range(min(TRAIN_BATCH, len(order)))]
            images, grids, labels = _batch(take)

            for _, _, grad in params:
                grad[:] = 0.0
            tape = Tape()
            pyramid = net.forward(images, tape)
            objectness, logits = head.forward(tape, pyramid)
            value, gobj, glog = loss_and_grads(objectness, logits, grids, labels)
            if not np.isfinite(value):
                raise TrainingDivergedError(f"non-finite loss at step {step}")
            tape.backward([(objectness, gobj), (logits, glog)])

            for name, value_arr, grad in params:
                if not grad_seen[name] and np.any(grad):
                    grad_seen[name] = True
                value_arr -= lr * grad
            losses.append(value)
    metrics = evaluate(net, head, dataset)
    return TrainLog(losses, metrics, grad_seen)


def build_task(cfg: CBNetConfig, seed, dataset_size):
    """Net, head and dataset, each from its role of `seed`."""
    h, w = cfg.spec.image_size
    if h != w:
        raise ConfigError("the synthetic task needs a square image size")
    net = build_cbnet(cfg, sub_seed(seed, NET_SEED))
    head = build_head(cfg.spec, sub_seed(seed, HEAD_SEED))
    dataset = gen_dataset(sub_seed(seed, DATA_SEED), dataset_size, h)
    return net, head, dataset


def run_training(cfg: CBNetConfig, seed, steps, lr, dataset_size):
    """Build everything from one seed and train, the step order drawn from
    the SGD_SEED role.  Returns (net, head, dataset, log)."""
    net, head, dataset = build_task(cfg, seed, dataset_size)
    log = train(net, head, dataset, steps, lr, sub_seed(seed, SGD_SEED))
    return net, head, dataset, log


def metrics_from_predictions(pred_grids, true_grids, pred_labels, true_labels):
    """Micro F1 over all cells (0.0 when degenerate) and top-1 accuracy."""
    p = np.asarray(pred_grids, dtype=bool)
    t = np.asarray(true_grids, dtype=bool)
    tp = int(np.logical_and(p, t).sum())
    fp = int(np.logical_and(p, ~t).sum())
    fn = int(np.logical_and(~p, t).sum())
    denom = 2 * tp + fp + fn
    f1 = 2.0 * tp / denom if denom else 0.0
    hits = sum(int(a == b) for a, b in zip(pred_labels, true_labels))
    return {"cell_f1": f1, "class_accuracy": hits / len(true_labels)}


def evaluate(net: CBNet, head: Head, dataset, chunk=16) -> dict:
    """Inference-mode metrics, the mode scoped by `set_mode`: objectness
    thresholded at probability 0.5 (logit > 0), class by argmax with
    first-index tie-break.  The net and head run on a tape that records
    nothing, so a chunk keeps no activations or im2col buffers beyond the
    ops that still need them."""
    if not dataset:
        raise ConfigError("cannot evaluate on an empty dataset")
    pred_grids, true_grids, pred_labels, true_labels = [], [], [], []
    with set_mode(net, "inference"):
        for start in range(0, len(dataset), chunk):
            part = dataset[start:start + chunk]
            images, grids, labels = _batch(part)
            tape = Tape()
            tape.recording = False
            pyramid = net.forward(images, tape)
            objectness, logits = head.forward(tape, pyramid)
            pred_grids.append(objectness.data[:, 0] > 0.0)
            true_grids.append(np.asarray(grids, dtype=bool))
            pred_labels += list(np.argmax(logits.data.reshape(len(part), -1), axis=1))
            true_labels += labels
    return metrics_from_predictions(
        np.concatenate(pred_grids), np.concatenate(true_grids), pred_labels, true_labels)
