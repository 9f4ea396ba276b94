"""Fast self-test of the benchmark, at minimal run length.

    python3 cbbench/selftest.py

Runs every workload for one second, untraced and traced, and checks that
each result line is well formed, correct, and carries every metric that
BENCHMARK.json names, with its unit; that the detail line carries the
workload-specific names; that traced forward FLOPs equal `flop_count` on
all sixteen K=2 configurations; and that the driven train loop's losses
are bit-identical to `task.train`.  Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from run import ROOT, import_cbnet

DETAIL_METRICS = {
    "train_dhlc": {"train_images_per_s": "1/s", "train_step_ms_p50": "ms",
                   "train_step_ms_tail": "ms"},
    "eval_accel": {"eval_images_per_s": "1/s", "eval_pass_ms_p50": "ms",
                   "eval_pass_ms_tail": "ms"},
    "gradcheck_micro": {"gradcheck_s": "s", "gradcheck_probes_per_s": "1/s"},
}
COMMON_DETAIL = {"setup_s": "s", "peak_rss_mb": "MB", "error_rate": "ratio"}
ENV_KEYS = {"python", "numpy", "blas", "blas_version", "blas_threads", "nproc",
            "cpu_model", "git_commit", "seed"}


def run_workload(name, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "cbbench", "run.py"), "--workload", name,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{name} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def check_runs(spec, failures):
    for name in DETAIL_METRICS:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            before = len(failures)
            detail, result = run_workload(name, trace)
            where = f"{name} trace={trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{where}: not correct: {detail['checks']}")
            want = {m["name"]: m["unit"] for m in listed}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                failures.append(f"{where}: metrics {got} != {want}")
            if set(detail["env"]) != ENV_KEYS:
                failures.append(f"{where}: env keys {sorted(detail['env'])}")
            if trace == 0:
                named = {**COMMON_DETAIL, **DETAIL_METRICS[name]}
                got = {k: v["unit"] for k, v in detail["metrics"].items()}
                if got != named:
                    failures.append(f"{where}: detail metrics {got} != {named}")
                tail = [v for k, v in detail["metrics"].items() if k.endswith("_tail")]
                if any("percentile" not in v or "samples" not in v for v in tail):
                    failures.append(f"{where}: tail metric lacks percentile/samples")
            elif not detail["checks"].get("traced_flops_match_flop_count"):
                failures.append(f"{where}: traced FLOPs not checked or not equal")
            print("ok " if len(failures) == before else "BAD", where)


def check_flops(failures):
    import itertools

    import numpy as np
    import optrace
    from cbnet import TOY_SPEC, CBNetConfig, CompositeStyle, Tensor4, build_cbnet, flop_count

    before = len(failures)
    for style, share, accel in itertools.product(CompositeStyle, (False, True), (False, True)):
        cfg = CBNetConfig(num_backbones=2, style=style, share_weights=share,
                          accelerated=accel, spec=TOY_SPEC)
        net = build_cbnet(cfg, 5)
        image = Tensor4(np.random.default_rng(6).uniform(size=(2, 3) + TOY_SPEC.image_size))
        tracer = optrace.Tracer()
        tracer.units = optrace.unit_map(net)
        with tracer.active(nets=[net]):
            net.forward(image, tracer.tape())
        traced = tracer.forward_flops.get(image.dims)
        if traced != flop_count(net, image.dims):
            failures.append(f"flops {cfg.style.value} share={share} accel={accel}: "
                            f"traced {traced} != flop_count {flop_count(net, image.dims)}")
    print("ok " if len(failures) == before else "BAD",
          "traced FLOPs == flop_count on the 16 K=2 configs")


def check_loop_equality(failures):
    import optrace
    from cbnet import CBNetConfig, CompositeStyle, build_cbnet, build_head, gen_dataset, run_training
    from workloads import DATASET_N, LR, NULL, SGDLoop

    steps, seed = 3, 11
    before = len(failures)
    for cfg in (CBNetConfig(num_backbones=2, style=CompositeStyle.DHLC),
                CBNetConfig(num_backbones=2, style=CompositeStyle.AHLC, accelerated=True)):
        net, head = build_cbnet(cfg, seed), build_head(cfg.spec, seed + 1)
        loop = SGDLoop(net, head, gen_dataset(seed + 2, DATASET_N), LR, seed + 3)
        tracer = optrace.Tracer()
        tracer.units = optrace.unit_map(net, head)
        losses = []
        for i in range(steps):
            tr = tracer if i % 2 == 0 else NULL
            with tr.active([net], [head]):
                losses.append(loop.step(tr))
        expected = run_training(cfg, seed, steps, LR, DATASET_N)[3].losses
        if [x.hex() for x in losses] != [x.hex() for x in expected]:
            failures.append(f"loop {cfg.style.value} accel={cfg.accelerated}: "
                            f"{losses} != task.train {expected}")
    print("ok " if len(failures) == before else "BAD", "driven loop losses == task.train")


def main():
    import_cbnet()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if sorted(w["name"] for w in spec["workloads"]) != sorted(DETAIL_METRICS):
        print(f"FAIL BENCHMARK.json workloads {spec['workloads']}")
        return 1
    failures = []
    check_flops(failures)
    check_loop_equality(failures)
    check_runs(spec, failures)
    for f in failures:
        print("FAIL", f)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
