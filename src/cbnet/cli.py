"""Command-line front end.

Subcommands: summarize, train, eval, gradcheck, flops, viz.  Every command
is deterministic given its flags: rerunning writes byte-identical files.
Exits 0 on success; 2 on argument errors, which include a single flag out
of its range (--k or --n below 1, --steps or --seed below 0, --lr or
--tolerance negative or not finite); 1 on runtime failures, which include
a flag combination the model rejects, a gradcheck error above
tolerance and running out of memory.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .backbone import TOY_SPEC, BackboneSpec
from .composite import (
    CBNetConfig,
    CompositeStyle,
    WithHead,
    apply_state,
    build_cbnet,
    cbnet_forward,
    direct_add_keys,
    flop_count,
    model_gradcheck,
    param_count,
)
from .engine import ConfigError, Tensor4
from .task import (
    DATA_SEED,
    HEAD_SEED,
    NET_SEED,
    SGD_SEED,
    build_task,
    evaluate,
    gen_dataset,
    sub_seed,
    train,
)
from .viz import channel_mean, normalize_gray, write_pgm
from .weights import create_beside, load_weights, save_weights, write_atomic


def _at_least(convert, low):
    """argparse type: `convert(text)`, rejected unless low <= value < inf."""
    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {convert.__name__} value: {text!r}")
        if not low <= value < float("inf"):
            raise argparse.ArgumentTypeError(f"must be finite and >= {low}, got {text!r}")
        return value
    return parse


def _model_flags(p):
    p.add_argument("--k", type=_at_least(int, 1), default=2, help="number of backbones")
    p.add_argument("--style", choices=[s.value for s in CompositeStyle], default="ahlc")
    p.add_argument("--share-weights", action="store_true")
    p.add_argument("--accelerated", action="store_true")
    p.add_argument("--seed", type=_at_least(int, 0), default=0)


def _config(args, spec=None):
    return CBNetConfig(
        num_backbones=args.k,
        style=CompositeStyle(args.style),
        share_weights=args.share_weights,
        accelerated=args.accelerated,
        spec=spec or BackboneSpec(),
    )


def _check_outputs(out, outputs):
    """Create `out`, then refuse each (what, path) output that is the same file as an
    earlier one, or beside which `create_beside` refuses or fails to create a probe.
    The probe is removed at once, and no file that was there before is touched."""
    os.makedirs(out, exist_ok=True)
    reals = [os.path.realpath(path) for _, path in outputs]
    for i, (what, path) in enumerate(outputs):
        try:
            if reals[i] in reals[:i]:
                raise OSError("the same file as another output")
            fd, probe = create_beside(path)
            os.close(fd)
            os.remove(probe)
        except OSError as exc:  # create_beside's refusal starts with the path
            reason = exc.strerror or str(exc).removeprefix(f"{path!r} ")
            raise ConfigError(f"cannot write {what} to {path!r}: {reason}")


def cmd_summarize(args):
    cfg = _config(args)
    net = build_cbnet(cfg, sub_seed(args.seed, NET_SEED))
    print(f"config: k={cfg.num_backbones} style={cfg.style.value} "
          f"share_weights={cfg.share_weights} accelerated={cfg.accelerated}")
    children = net.children()  # the backbones, then the connections
    for name, bb in children[:len(net.backbones)]:
        print(f"backbone {name}: stages {bb.first_stage}..{cfg.spec.num_stages}, "
              f"params {param_count(bb)}")
    print(f"composite connections: {len(net.connections)}")
    comp_total = 0
    for name, conn in children[len(net.backbones):]:
        count = param_count(conn)
        comp_total += count
        th, tw = conn.target_hw
        print(f"  {name}: {conn.conv.params.c_in}ch -> {conn.conv.params.c_out}ch "
              f"target {th}x{tw}, params {count}")
    adds = direct_add_keys(cfg)
    if adds:
        print(f"direct additions: {len(adds)}")
    print(f"composite params: {comp_total}")
    print(f"total params: {param_count(net)}")
    return 0


def cmd_train(args):
    cfg = _config(args)
    csv_path = os.path.join(args.out, "loss.csv")
    weights_out = args.weights_out or os.path.join(args.out, "weights.cbnw")
    _check_outputs(args.out, [("loss table", csv_path), ("weights", weights_out)])
    net, head, dataset = build_task(cfg, args.seed, args.n)
    if args.weights_in:
        apply_state(net, load_weights(args.weights_in), head=head)
    log = train(net, head, dataset, args.steps, args.lr, sub_seed(args.seed, SGD_SEED))
    rows = "".join(f"{i},{value!r}\n" for i, value in enumerate(log.losses))
    write_atomic(csv_path, lambda fh: fh.write(("step,loss\n" + rows).encode("ascii")))
    save_weights(dict(WithHead(net, head).state()), weights_out)
    print(f"wrote {csv_path}")
    print(f"wrote {weights_out}")
    print(f"cell_f1={log.final_metrics['cell_f1']!r} "
          f"class_accuracy={log.final_metrics['class_accuracy']!r}")
    return 0


def cmd_eval(args):
    net, head, dataset = build_task(_config(args), args.seed, args.n)
    if args.weights_in:
        apply_state(net, load_weights(args.weights_in), head=head)
    metrics = evaluate(net, head, dataset)
    print(f"cell_f1={metrics['cell_f1']!r} class_accuracy={metrics['class_accuracy']!r}")
    return 0


def cmd_gradcheck(args):
    spec = TOY_SPEC if args.toy else BackboneSpec()
    if not args.toy:
        print("note: full-size gradcheck probes every parameter and may take "
              "a very long time; consider --toy", file=sys.stderr)
    cfg = _config(args, spec=spec)
    net = build_cbnet(cfg, sub_seed(args.seed, NET_SEED))
    rng = np.random.default_rng(sub_seed(args.seed, DATA_SEED))
    image = Tensor4(rng.uniform(0.0, 1.0, size=(1, spec.in_channels) + spec.image_size))
    err = model_gradcheck(net, image, loss_seed=sub_seed(args.seed, HEAD_SEED))
    print(f"max_rel_error={err!r}")
    return 0 if err <= args.tolerance else 1


def cmd_flops(args):
    cfg = _config(args)
    net = build_cbnet(cfg, sub_seed(args.seed, NET_SEED))
    dims = (1, cfg.spec.in_channels) + cfg.spec.image_size
    print(f"params={param_count(net)}")
    print(f"flops={flop_count(net, dims)}")
    return 0


def cmd_viz(args):
    cfg = _config(args)
    levels = range(2, cfg.spec.num_stages + 1)
    paths = [os.path.join(args.out, f"stage{l}.pgm") for l in levels]
    _check_outputs(args.out, [("heatmap", path) for path in paths])
    net = build_cbnet(cfg, sub_seed(args.seed, NET_SEED))
    if args.weights_in:
        apply_state(net, load_weights(args.weights_in))
    sample = gen_dataset(sub_seed(args.seed, DATA_SEED), 1)[0]
    pyramid = cbnet_forward(net, sample.image)
    # every map is computed, and so checked finite, before the first file is written
    grays = [normalize_gray(channel_mean(pyramid.level(l))) for l in levels]
    for path, gray in zip(paths, grays):
        write_pgm(gray, path)
        print(f"wrote {path}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cbnet",
        description="composite backbone networks: build, profile, train, inspect")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("summarize", help="print the parameter/connection table")
    _model_flags(p)
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("train", help="train on the synthetic task, write weights + loss CSV")
    _model_flags(p)
    p.add_argument("--steps", type=_at_least(int, 0), default=200)
    p.add_argument("--lr", type=_at_least(float, 0.0), default=0.05)
    p.add_argument("--n", type=_at_least(int, 1), default=64, help="dataset size")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--weights-in")
    p.add_argument("--weights-out")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="report cell F1 and class accuracy")
    _model_flags(p)
    p.add_argument("--n", type=_at_least(int, 1), default=64)
    p.add_argument("--weights-in")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference check of the whole model")
    _model_flags(p)
    p.add_argument("--toy", action="store_true", help="use the small 16x16 spec")
    p.add_argument("--tolerance", type=_at_least(float, 0.0), default=1e-3)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("flops", help="print parameter and FLOP totals")
    _model_flags(p)
    p.set_defaults(func=cmd_flops)

    p = sub.add_parser("viz", help="write per-level channel-mean heatmaps (PGM)")
    _model_flags(p)
    p.add_argument("--out", default="out")
    p.add_argument("--weights-in")
    p.set_defaults(func=cmd_viz)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's names the array it could not allocate
        print(f"error: out of memory{': ' if str(exc) else ''}{exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
