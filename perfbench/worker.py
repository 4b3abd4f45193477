"""One workload in a fresh interpreter: set up, run a closed loop, report.

Started by run.py, never imported by the program.  It prints ``ready`` as
soon as smoothgames is imported and the input pool is written, then times
the reference computation a few times and prints one JSON line: with
``--setup-only`` just those times, otherwise the raw per-item record too.

Closed loop: a single caller starts the next item only after the previous
one returned.  An untraced run makes as many whole passes over the pool as
fit in ``--seconds`` of wall time, so every run times the same mix.  A
traced run makes one pass, running each item untraced and then traced, so
its counts repeat exactly for a seed and the pair gives the tracing
overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from time import perf_counter

import numpy as np

import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REF_PERIOD_S = 0.25     # item seconds between two reference samples
REF_REPS = 150          # about 11 ms on an uncontended core
SETUP_REFS = 5          # reference samples right after set-up
_REF_MATRIX = np.random.default_rng(0).standard_normal((60, 60))
_REF_SQUARE = np.random.default_rng(1).standard_normal((4, 4)) + 4 * np.eye(4)
_REF_VECTOR = np.array([0.1, 0.4, 0.2, 0.3])
_REF_INDEX = np.arange(8)


def reference():
    """Seconds for a fixed computation in the program's own style: a BLAS
    product, then many numpy calls on tiny arrays (elementwise, reductions,
    small LAPACK solves, set operations) between interpreted Python.
    Sampled through a run, it tells how fast the host was running this
    process at the time.  Contention slows code with a wide footprint more
    than a tight loop, so the second loop visits many numpy functions."""
    start = perf_counter()
    acc = 0.0
    for _ in range(REF_REPS):
        acc += float(np.linalg.norm(_REF_MATRIX @ _REF_MATRIX))
        acc += sum(range(200))
        y = np.full(4, 1.0)
        acc += float(np.linalg.norm(_REF_VECTOR - y))
        z = np.exp(_REF_VECTOR - _REF_VECTOR.max())
        acc += float(z.dot(y) / z.sum())
        acc += sum([float(v) for v in _REF_VECTOR])
    for _ in range(REF_REPS // 2):
        q, r = np.linalg.qr(_REF_SQUARE)
        acc += float(np.linalg.solve(_REF_SQUARE, _REF_VECTOR).sum())
        acc += float(r[0, 0]) + float(np.triu(q)[0, 1])
        acc += float(np.isin(_REF_INDEX, _REF_INDEX[1::2]).sum())
        acc += float(np.mean(_REF_VECTOR))
        acc += float(np.flatnonzero(_REF_VECTOR > 0.2).size)
        acc += float(np.hstack([_REF_VECTOR, _REF_VECTOR]).sum())
        acc += float(np.zeros_like(_REF_VECTOR).size)
        acc += float(np.unique(_REF_INDEX[1::2]).size)
    return perf_counter() - start


def import_program():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import smoothgames
    import smoothgames.cli  # noqa: F401  (the in-process CLI entry point)
    return smoothgames


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}}


def _record(outcome, item):
    return {"index": item["index"], "category": item["category"],
            "seconds": outcome.seconds, "ok": outcome.ok, "ops": outcome.ops,
            "failed_ops": outcome.failed_ops, "steps": outcome.steps,
            "errors": dict(outcome.errors)}


def _checked(workload, item, outcome, sg, wrong):
    try:
        workloads.check(workload, item, outcome, sg)
    except workloads.WrongAnswer as err:
        wrong.append(f"item {item['index']}: {err}")


def closed_loop(workload, items, seconds, sg):
    """Whole passes over the pool, one item at a time; another pass starts
    only if, at the mean pass time so far, it ends within ``seconds``.  The
    reference computation runs between items, once per REF_PERIOD_S of
    item time, so its samples spread over the run as the items do."""
    records, wrong, ref_s = [], [], []
    since_ref = REF_PERIOD_S
    start = perf_counter()
    passes = 0
    while not passes or (perf_counter() - start) * (passes + 1) / passes \
            <= seconds:
        for item in items:
            if since_ref >= REF_PERIOD_S:
                ref_s.append(reference())
                since_ref = 0.0
            outcome = workloads.execute(workload, item, sg)
            since_ref += outcome.seconds
            _checked(workload, item, outcome, sg, wrong)
            records.append(_record(outcome, item))
        passes += 1
    return {"items": records, "wrong": wrong, "ref_s": ref_s}


def traced_run(workload, items, sg, spans_path=None):
    """One pass over the pool, each item plain then traced."""
    tracer = tracing.Tracer()
    records, wrong, ref_s = [], [], []
    plain_s = traced_s = 0.0
    for n, item in enumerate(items):
        ref_s.append(reference())
        plain = workloads.execute(workload, item, sg)
        _checked(workload, item, plain, sg, wrong)
        tracer.current_item = n
        tracer.install()
        try:
            traced = workloads.execute(workload, item, sg)
        finally:
            tracer.uninstall()
        _checked(workload, item, traced, sg, wrong)
        if traced.digest != plain.digest:
            wrong.append(f"item {item['index']}: traced output differs")
        plain_s += plain.seconds
        traced_s += traced.seconds
        records.append(_record(traced, item))
    spans = tracer.arrays()
    if spans_path:
        tracer.save(spans_path)
    metrics = tracing.layer_metrics(spans, tracer.verdicts)
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "ratio")
    return {"items": records, "wrong": wrong, "ref_s": ref_s,
            "layers": metrics, "spans": int(len(spans["name"]))}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sg = import_program()
    items = workloads.generate(args.workload, args.seed, args.workdir, sg)
    print("ready", flush=True)
    setup_ref_s = [reference() for _ in range(SETUP_REFS)]
    if args.setup_only:
        print(json.dumps({"setup_ref_s": setup_ref_s}), flush=True)
        return 0

    if args.trace:
        spans_path = os.path.join(args.workdir,
                                  f"spans-{args.workload}-{args.seed}.npz")
        result = traced_run(args.workload, items, sg, spans_path)
    else:
        result = closed_loop(args.workload, items, args.seconds, sg)
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    result["setup_ref_s"] = setup_ref_s
    result["environment"] = environment()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
