"""cbnet benchmark: one workload, one seed, one closed-loop client.

    python3 cbbench/run.py --workload train_dhlc --seed 1 --seconds 25 --trace 0

Run it from the repository root; it imports `cbnet` from `src/` of the same
tree and refuses to run without it.  Workloads (see workloads.py):

    train_dhlc       SGD steps on a K=2 dhlc model plus a checkpoint save
    eval_accel       load + apply + evaluate + heatmaps, K=2 accelerated ahlc
    gradcheck_micro  model_gradcheck on a tiny K=2 dhlc model

With --trace 0 the operations run untraced and the result line carries the
end-to-end metrics, named alike on every workload:

    setup_s      import, plus the median of SETUP_REPS builds of the model,
                 head and dataset, plus one warm-up operation on a throwaway
                 build (the first operation in a process runs cold; it is
                 counted here and excluded from the timed loop)
    peak_rss_mb  peak resident set of the process
    items_per_s  images per second (train: including the checkpoint save;
                 eval: whole passes), gradcheck probes per second
    op_ms_p50    median train step / eval pass / gradcheck call
    op_ms_tail   the highest of the p99, p90, p75 that has at least ten
                 samples beyond it, else the maximum

The line before the result carries the environment, the checks, the same
numbers under workload-specific names (train_step_ms_p50, gradcheck_s, ...),
the tail percentile and sample count, and the error rate.

With --trace 1 every other operation runs under the op tracer and the
result line carries the per-layer metrics, per traced operation; spans go
to .cbbench-out/spans-<workload>.csv.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".cbbench-out")
SETUP_REPS = 3
TAIL_PERCENTILES = (99, 90, 75)
TAIL_BEYOND = 10


def cap_blas_threads():
    """Keep BLAS threads at or below the CPUs this process may use; must run
    before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))


def import_cbnet():
    """Import cbnet from this tree's src/ and return the seconds it took."""
    if not os.path.isfile(os.path.join(SRC, "cbnet", "__init__.py")):
        sys.exit(f"cbbench: no cbnet package under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import cbnet
    seconds = time.perf_counter() - t0
    if os.path.dirname(os.path.dirname(os.path.abspath(cbnet.__file__))) != SRC:
        sys.exit(f"cbbench: imported cbnet from {cbnet.__file__}, not from {SRC}")
    return seconds


def tail(samples):
    """(value, percentile) of the highest listed percentile with at least
    TAIL_BEYOND samples beyond it; the maximum when none has."""
    n = len(samples)
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= TAIL_BEYOND:
            return statistics.quantiles(samples, n=100, method="inclusive")[p - 1], p
    return max(samples), 100


def blas_threads():
    import ctypes
    import glob

    import numpy
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def git_commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": blas_threads(), "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu,
            "git_commit": git_commit(), "seed": seed}


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    cap_blas_threads()
    import_s = import_cbnet()
    import workloads  # needs cbnet on the path
    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    os.makedirs(OUT, exist_ok=True)
    tmp = os.path.join(OUT, f"tmp-{args.workload}-{os.getpid()}")
    os.makedirs(tmp)
    try:
        detail, result = measure(cls, args, import_s, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


def measure(cls, args, import_s, tmp):
    import optrace
    from workloads import NULL

    tracer = optrace.Tracer() if args.trace else None
    setup_tr = tracer or NULL
    origin = time.perf_counter()

    builds, build_s = [], []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        builds.append(cls(args.seed, setup_tr, tmp))
        build_s.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    builds[0].warmup()
    warmup_s = time.perf_counter() - t0
    work = builds[-1]
    del builds
    if tracer is not None:
        tracer.units = optrace.unit_map(work.nets[0], *work.heads)
    setup_s = import_s + statistics.median(build_s) + warmup_s

    times, traced_times, failed, items = [], [], 0, 0
    start = time.perf_counter()
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 0
        tr = tracer if traced else NULL
        if traced:
            tracer.step = i
        t0 = time.perf_counter()
        with tr.active(work.nets, work.heads), tr.span("step"):
            n, ok = work.op(tr)
        dt = time.perf_counter() - t0
        if traced:
            tracer.step = -1
            traced_times.append(dt)
        else:
            times.append(dt)
        items += n
        failed += not ok
        i += 1
        # a traced run also needs an untraced operation to measure overhead
        if time.perf_counter() - start >= args.seconds and (tracer is None or times):
            break
    work.finish(setup_tr)
    elapsed = time.perf_counter() - start

    checks = work.checks()
    if tracer is not None and tracer.forward_flops:
        checks["traced_flops_match_flop_count"] = not tracer.flop_mismatches
    attempted = i + len(checks)
    failed += sum(not ok for ok in checks.values())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    detail = {"workload": cls.name, "trace": args.trace, "seconds": args.seconds,
              "env": environment(args.seed), "operations": i,
              "checks": checks, "error_rate": failed / attempted}
    detail.update(work.detail())
    if tracer is None:
        p50 = statistics.median(times) * 1e3
        tail_ms, pct = tail([t * 1e3 for t in times])
        metrics = {"setup_s": metric(setup_s, "s"),
                   "peak_rss_mb": metric(peak_rss_mb, "MB"),
                   "items_per_s": metric(items / elapsed, "1/s"),
                   "op_ms_p50": metric(p50, "ms"),
                   "op_ms_tail": metric(tail_ms, "ms")}
        named = {"setup_s": metrics["setup_s"], "peak_rss_mb": metrics["peak_rss_mb"],
                 "error_rate": metric(failed / attempted, "ratio")}
        for key, (name, scale, unit) in cls.aliases.items():
            named[name] = metric(metrics[key]["value"] * scale, unit)
            if key == "op_ms_tail":
                named[name].update(percentile=pct, samples=len(times))
        detail.update(metrics=named, setup={"import_s": import_s, "build_s": build_s,
                                            "warmup_s": warmup_s})
    else:
        layers, units = optrace.layer_metrics(tracer, len(traced_times))
        layers["weights.bytes"] = work.checkpoint_bytes
        layers["trace.overhead_pct"] = 100.0 * (
            statistics.median(traced_times) / statistics.median(times) - 1.0)
        metrics = {name: metric(value, optrace.PER_LAYER_UNITS[name])
                   for name, value in sorted(layers.items())}
        path = os.path.join(OUT, f"spans-{cls.name}.csv")
        tracer.write_spans(path, origin)
        detail.update(units_ms=units, spans=os.path.relpath(path, ROOT),
                      flop_mismatches=tracer.flop_mismatches)

    return detail, {"correct": failed == 0, "attempted": attempted,
                    "failed": failed, "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
