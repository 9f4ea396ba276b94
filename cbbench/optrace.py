"""Outside-in op tracer for the cbnet benchmark.

`TracingTape` is a `cbnet.Tape` that wraps every layer it runs, so each
`layer.forward` and `layer.backward` becomes a timed leaf span.  Every op
is attributed to a unit named after the parameters it reads (`b1.stage3`,
`g.2.4.5`, `head`); a parameter-free op (relu, add, upsample, pooling)
goes to the unit of the op recorded before it on the same tape.  Each op
also carries its analytic FLOPs, counted by the rule `flop_count` uses.

Spans live in flat in-memory columns and are written out once, when the
run ends.  A span has a name, start, end, parent span and the id of the
benchmark step (train step, eval pass or gradcheck call) it belongs to.
"""

from __future__ import annotations

import contextlib
import re
import statistics
from array import array
from time import perf_counter

import numpy as np

from cbnet import composite, task
from cbnet.engine import Tape, Tensor4

# layer class name -> op kind; anything else is traced under its class name
OP_KINDS = {
    "Conv2dLayer": "conv",
    "BatchNormLayer": "bn",
    "ReLULayer": "relu",
    "AddLayer": "add",
    "UpsampleLayer": "upsample",
    "GlobalAvgPoolLayer": "gap",
    "MaxPool2Layer": "maxpool",
}

FORWARD_SPAN = "composite.forward"        # a net forward whose tape is backpropagated
PROBE_SPAN = "composite.probe_forward"    # a net forward nobody backpropagates
_STAGE_UNIT = re.compile(r"b\d+\.stage\d+$")

PER_LAYER_UNITS = {
    "engine.conv_fwd_ms": "ms", "engine.conv_bwd_ms": "ms",
    "engine.bn_fwd_ms": "ms", "engine.bn_bwd_ms": "ms",
    "engine.pointwise_ms": "ms", "engine.upsample_ms": "ms",
    "engine.ops": "count", "engine.tape_bytes": "bytes",
    "engine.conv_fwd_flops": "flop", "engine.conv_fwd_gflops": "GFLOP/s",
    "composite.forward_ms": "ms", "composite.probe_forward_ms": "ms",
    "composite.connections_ms": "ms", "composite.flops": "flop",
    "composite.apply_state_ms": "ms", "composite.build_ms": "ms",
    "backbone.stage_ms": "ms",
    "task.head_ms": "ms", "task.loss_ms": "ms", "task.sgd_ms": "ms",
    "task.evaluate_ms": "ms", "task.gen_dataset_ms": "ms",
    "weights.load_ms": "ms", "weights.save_ms": "ms", "weights.bytes": "bytes",
    "viz.heatmap_ms": "ms",
    "trace.overhead_pct": "%",
}


def unit_of(name):
    """Unit of a learnable's dotted name: 'b1.stage3.conv1.weight' -> 'b1.stage3',
    'g.2.4.5.conv.weight' -> 'g.2.4.5', 'head.obj.weight' -> 'head'."""
    parts = name.split(".")
    if parts[0] == "g":
        return ".".join(parts[:-2])
    if parts[0] == "head":
        return "head"
    return ".".join(parts[:2])


def unit_map(net, *heads):
    """id(parameter array) -> unit name, from `net.learnables()` (plus the
    heads').  Under weight sharing an array keeps its first name."""
    named = [(name, value) for name, value, _ in net.learnables()]
    for head in heads:
        named += [(f"head.{name}", value) for name, value, _ in head.learnables()]
    units = {}
    for name, value in named:
        units.setdefault(id(value), unit_of(name))
    return units


def _key_array(params):
    weight = getattr(params, "weight", None)
    return weight.data if weight is not None else params.gamma


def op_flops(kind, layer, xs, y):
    """FLOPs of one forward op by the `flop_count` rule: conv counts
    2*c_in*k^2 per output element, batchnorm/relu/add one per element,
    upsample its output elements.  Pooling (head only) counts its input."""
    if kind == "conv":
        p = layer.params
        return 2 * p.c_in * p.kernel * p.kernel * y.data.size
    if kind in ("bn", "gap", "maxpool"):
        return xs[0].data.size
    if kind in ("relu", "add", "upsample"):
        return y.data.size
    return 0


def retained_bytes(tape):
    """Bytes of the distinct arrays a tape keeps alive through its steps."""
    seen, total = set(), 0
    todo = []
    for _layer, xs, y, ctx in tape.steps:
        todo.extend(xs)
        todo.append(y)
        todo.append(ctx)
    while todo:
        obj = todo.pop()
        if isinstance(obj, Tensor4):
            obj = obj.data
        if isinstance(obj, np.ndarray):
            if id(obj) not in seen:
                seen.add(id(obj))
                total += obj.nbytes
        elif isinstance(obj, (tuple, list)):
            todo.extend(obj)
    return total


class Tracer:
    """Span store plus the counters the per-layer metrics are built from."""

    def __init__(self):
        self.units = {}            # id(parameter array) -> unit, see unit_map
        self.names, self._name_ids = [], {}
        self.col_name = array("i")
        self.col_start = array("d")
        self.col_end = array("d")
        self.col_parent = array("i")
        self.col_step = array("i")
        self.col_flops = array("q")
        self._open = [-1]
        self.step = -1
        self.tape_bytes = 0
        self.forward_flops = {}    # input dims -> traced FLOPs of one net forward
        self.flop_mismatches = []  # (dims, traced, flop_count)

    # -- spans ---------------------------------------------------------------

    def name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _append(self, nid, start, end, flops=0):
        self.col_name.append(nid)
        self.col_start.append(start)
        self.col_end.append(end)
        self.col_parent.append(self._open[-1])
        self.col_step.append(self.step)
        self.col_flops.append(flops)
        return len(self.col_name) - 1

    @contextlib.contextmanager
    def span(self, name):
        idx = self._append(self.name_id(name), perf_counter(), 0.0)
        self._open.append(idx)
        try:
            yield idx
        finally:
            self._open.pop()
            self.col_end[idx] = perf_counter()

    def leaf(self, nid, start, end, flops):
        self._append(nid, start, end, flops)

    def rename(self, idx, name):
        self.col_name[idx] = self.name_id(name)

    # -- hooks into the library -------------------------------------------------

    def tape(self):
        return TracingTape(self)

    @contextlib.contextmanager
    def active(self, nets=(), heads=()):
        """Trace every tape the library creates, and time each net and head
        forward, for the duration of the block."""
        saved = (composite.Tape, task.Tape)
        composite.Tape = task.Tape = self.tape
        for net in nets:
            net.forward = self._traced_forward(net)
        for head in heads:
            head.forward = self._traced_head(head.forward)
        try:
            yield self
        finally:
            composite.Tape, task.Tape = saved
            for obj in (*nets, *heads):
                del obj.forward

    def _traced_forward(self, net):
        forward = net.forward

        def traced(image, tape):
            flops0 = tape.flops if isinstance(tape, TracingTape) else 0
            with self.span(PROBE_SPAN) as idx:
                pyramid = forward(image, tape)
            if isinstance(tape, TracingTape):
                tape.forward_span = idx
                self._record_forward(net, image.dims, tape, tape.flops - flops0)
            return pyramid
        return traced

    def _record_forward(self, net, dims, tape, flops):
        # tape bytes and FLOPs depend only on the model and the input dims
        if dims in self.forward_flops:
            return
        self.forward_flops[dims] = flops
        self.tape_bytes = max(self.tape_bytes, retained_bytes(tape))
        expected = composite.flop_count(net, dims)
        if flops != expected:
            self.flop_mismatches.append((dims, flops, expected))

    def _traced_head(self, forward):
        def traced(tape, pyramid):
            with self.span("task.head"):
                return forward(tape, pyramid)
        return traced

    # -- output ------------------------------------------------------------------

    def write_spans(self, path, origin):
        """CSV of every span: name, start/end in microseconds since `origin`,
        parent row (-1 at top level) and step id (-1 outside the timed loop)."""
        with open(path, "w") as fh:
            fh.write("name,start_us,end_us,parent,step\n")
            for nid, s, e, p, st in zip(self.col_name, self.col_start, self.col_end,
                                         self.col_parent, self.col_step):
                fh.write(f"{self.names[nid]},{(s - origin) * 1e6:.1f},"
                         f"{(e - origin) * 1e6:.1f},{p},{st}\n")

    def totals(self):
        """name -> (seconds, count, flops) over every span recorded in a step."""
        names = np.frombuffer(self.col_name, dtype=np.int32)
        steps = np.frombuffer(self.col_step, dtype=np.int32)
        dur = np.frombuffer(self.col_end) - np.frombuffer(self.col_start)
        flops = np.frombuffer(self.col_flops, dtype=np.int64)
        keep = steps >= 0
        names, dur, flops = names[keep], dur[keep], flops[keep]
        m = len(self.names)
        secs = np.bincount(names, weights=dur, minlength=m)
        count = np.bincount(names, minlength=m)
        fl = np.zeros(m, dtype=np.int64)
        np.add.at(fl, names, flops)
        return {self.names[i]: (float(secs[i]), int(count[i]), int(fl[i]))
                for i in range(m) if count[i]}

    def setup_durations(self, name):
        """Durations of the spans called `name` recorded outside any step."""
        nid = self._name_ids.get(name)
        return [e - s for n, s, e, st in zip(self.col_name, self.col_start, self.col_end,
                                              self.col_step) if n == nid and st < 0]


class TracingTape(Tape):
    """A Tape whose every op is a timed, attributed, FLOP-counted leaf span."""

    def __init__(self, tracer):
        super().__init__()
        self.tracer = tracer
        self.unit = "input"
        self.flops = 0
        self.forward_span = -1

    def run(self, layer, *xs):
        return super().run(_TimedLayer(self, layer), *xs)

    def backward(self, seeds):
        if self.forward_span >= 0:
            self.tracer.rename(self.forward_span, FORWARD_SPAN)
        with self.tracer.span("engine.backward"):
            super().backward(seeds)


class _TimedLayer:
    __slots__ = ("layer", "tape", "kind", "fwd", "bwd")

    def __init__(self, tape, layer):
        kind = OP_KINDS.get(type(layer).__name__, type(layer).__name__)
        params = getattr(layer, "params", None)
        if params is not None:
            tape.unit = tape.tracer.units.get(id(_key_array(params)), "unknown")
        self.layer, self.tape, self.kind = layer, tape, kind
        self.fwd = tape.tracer.name_id(f"{kind}.fwd {tape.unit}")
        self.bwd = tape.tracer.name_id(f"{kind}.bwd {tape.unit}")

    def forward(self, *xs):
        t0 = perf_counter()
        y, ctx = self.layer.forward(*xs)
        t1 = perf_counter()
        flops = op_flops(self.kind, self.layer, xs, y)
        self.tape.flops += flops
        self.tape.tracer.leaf(self.fwd, t0, t1, flops)
        return y, ctx

    def backward(self, ctx, grad_out):
        t0 = perf_counter()
        grads = self.layer.backward(ctx, grad_out)
        self.tape.tracer.leaf(self.bwd, t0, perf_counter(), 0)
        return grads


def layer_metrics(tracer, n_steps):
    """Per-layer metrics from the recorded spans, per traced step unless
    noted, plus each unit's op time per traced step."""
    totals = tracer.totals()
    per = 1e3 / n_steps
    m = {key: 0.0 for key in (
        "engine.conv_fwd_ms", "engine.conv_bwd_ms", "engine.bn_fwd_ms",
        "engine.bn_bwd_ms", "engine.pointwise_ms", "engine.upsample_ms",
        "composite.connections_ms", "backbone.stage_ms")}
    ops = conv_flops = 0
    units = {}
    for name, (secs, count, flops) in totals.items():
        if " " not in name:
            continue
        op, unit = name.split(" ", 1)
        kind, direction = op.rsplit(".", 1)
        ops += count
        units[unit] = units.get(unit, 0.0) + secs * per
        if kind in ("conv", "bn"):
            m[f"engine.{kind}_{direction}_ms"] += secs * per
        elif kind == "upsample":
            m["engine.upsample_ms"] += secs * per
        else:
            m["engine.pointwise_ms"] += secs * per
        if kind == "conv" and direction == "fwd":
            conv_flops += flops
        if unit.startswith("g."):
            m["composite.connections_ms"] += secs * per
        elif _STAGE_UNIT.match(unit):
            m["backbone.stage_ms"] += secs * per
    conv_secs = m["engine.conv_fwd_ms"] / per
    m["engine.ops"] = ops / n_steps
    m["engine.conv_fwd_flops"] = conv_flops / n_steps
    m["engine.conv_fwd_gflops"] = conv_flops / conv_secs / 1e9 if conv_secs else 0.0
    m["engine.tape_bytes"] = tracer.tape_bytes
    m["composite.flops"] = max(tracer.forward_flops.values(), default=0)
    for span in ("composite.forward", "composite.probe_forward", "composite.apply_state",
                 "task.head", "task.loss", "task.sgd", "task.evaluate", "weights.load",
                 "viz.heatmap"):
        m[f"{span}_ms"] = totals.get(span, (0.0, 0, 0))[0] * per
    # set-up and end-of-run work happens once per build or run, not per step
    for span in ("composite.build", "task.gen_dataset", "weights.save"):
        durations = tracer.setup_durations(span)
        m[f"{span}_ms"] = statistics.median(durations) * 1e3 if durations else 0.0
    return m, dict(sorted(units.items(), key=lambda kv: -kv[1]))
