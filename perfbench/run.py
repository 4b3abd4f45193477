"""Benchmark runner for smoothgames: sweep, simulate and certify workloads.

    python3 perfbench/run.py --workload {sweep,simulate,certify,all} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Each workload runs in a fresh interpreter
(perfbench/worker.py) with one BLAS/OpenMP thread, as a closed loop with a
single caller.  The benchmark prints a report with every end-to-end metric
by name and unit (setup_s, items_per_s, item_p50_ms, item_tail_ms,
failed_frac, steps_per_s where the workload runs dynamics, peak_rss_mb),
then, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the END_TO_END metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  It exits nonzero on any wrong
answer, and without printing a result if the program cannot be run.  Full
records (per item, errors by class, machine) go to
``.perfbench-work/results/``.

Seeds 1-20 were used while developing the benchmark; seed 1729 is kept
back for re-checking later claims.  Every seed gets a relabelled copy of
the same corpus (see workloads.py), so a run's failure count per pass is
the same for every seed.

Host speed.  On a shared host the speed of one fixed computation drops by a
third or more for anything from a second to minutes, which moves every
wall-clock figure of a 30-second run by as much.  The worker therefore times
a fixed reference computation (worker.reference) between items, once per
quarter second of item time, and right after each set-up.  ``host_factor``
is the mean reference time over REF_NOMINAL_S, its time on an uncontended
core of the machine the benchmark was written on (2-vCPU Intel Xeon,
Python 3.11, numpy 2.4), so it is about 1 there when nothing else runs and
larger when the host is busy.  Every time metric is reported at nominal
host speed: wall seconds divided by the host factor (rates multiplied by
it), so they read as seconds on that machine.  The report prints the wall
figures and the factor beside them.

``items_per_s`` is items completed without error over the summed wall time
of all attempted items, ``steps_per_s`` likewise for dynamics steps,
``item_p50_ms`` the median over the pool of each item's mean time across
the run's passes (the mean, because it weighs fast and slow spells of the
host as the reference samples do), and ``item_tail_ms`` the highest
percentile, over every attempted item, with ten items beyond it.
``setup_s`` is the median, over SETUP_SAMPLES fresh interpreters, of the
time from process start to the first item being ready (import smoothgames,
then generate and write the inputs), each divided by the host factor of
its own interpreter.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from collections import Counter
from time import perf_counter

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 5
REF_NOMINAL_S = 10.6e-3     # worker.reference, uncontended; see above
DEADLINE_S = 170.0          # whole invocation, per workload
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
# The end-to-end metrics of BENCHMARK.json, in the last line with --trace 0.
# item_tail_ms, failed_frac and steps_per_s are reported but not listed
# there: the tail rests on ten items, so one slow spell moves it;
# failed_frac may rightly be 0; certify runs no dynamics steps.
END_TO_END = ("setup_s", "items_per_s", "item_p50_ms", "peak_rss_mb")
STEP_WORKLOADS = ("sweep", "simulate")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _start_worker(args, workload, workdir, deadline, setup_only):
    """Start a worker; return it, its kill timer and its set-up seconds."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **THREAD_ENV)
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    timer = threading.Timer(max(1.0, deadline - perf_counter()), proc.kill)
    timer.start()
    line = proc.stdout.readline()
    ready = perf_counter() - start
    if line.strip() != "ready":
        timer.cancel()
        proc.kill()
        proc.wait()
        raise BenchError(f"{workload} worker failed during set-up")
    return proc, timer, ready


def _finish_worker(proc, timer, workload):
    out = proc.stdout.read()
    code = proc.wait()
    timer.cancel()
    if code != 0 or not out.strip():
        raise BenchError(f"{workload} worker exited with code {code}")
    return json.loads(out.strip().splitlines()[-1])


def tail(times):
    """(value, percentile, items beyond): the highest whole percentile with
    at least ten items above it, by nearest rank."""
    n = len(times)
    ordered = sorted(times)
    if n <= 10:
        return ordered[-1], 100, 0
    pct = (100 * (n - 10)) // n
    rank = max(1, -(-pct * n // 100))
    return ordered[rank - 1], pct, n - rank


def host_factor(ref_s):
    """How much slower than nominal the host ran the reference samples."""
    return statistics.mean(ref_s) / REF_NOMINAL_S


def summarize(workload, raw, setup):
    """Metrics of one run; ``setup`` holds (wall seconds, host factor)."""
    items = raw["items"]
    times = [r["seconds"] for r in items]
    phase = sum(times)
    per_item = {}
    for r in items:
        per_item.setdefault(r["index"], []).append(r["seconds"])
    host = host_factor(raw["ref_s"])
    ok = sum(r["ok"] for r in items)
    ops = sum(r["ops"] for r in items)
    failed_ops = sum(r["failed_ops"] for r in items)
    tail_s, pct, beyond = tail(times)
    errors, by_category = Counter(), {}
    for r in items:
        errors.update(r["errors"])
        if r["errors"]:
            by_category.setdefault(r["category"], Counter()).update(
                r["errors"])
    wall = {
        "setup_s": statistics.median(s for s, _ in setup),
        "items_per_s": ok / phase,
        "item_p50_ms": statistics.median(
            statistics.mean(v) for v in per_item.values()) * 1e3,
        "item_tail_ms": tail_s * 1e3,
    }
    metrics = {
        "setup_s": (statistics.median(s / h for s, h in setup), "s"),
        "items_per_s": (wall["items_per_s"] * host, "1/s"),
        "item_p50_ms": (wall["item_p50_ms"] / host, "ms"),
        "item_tail_ms": (wall["item_tail_ms"] / host, "ms"),
        "failed_frac": (failed_ops / ops, "ratio"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }
    if workload in STEP_WORKLOADS:
        wall["steps_per_s"] = sum(r["steps"] for r in items) / phase
        metrics["steps_per_s"] = (wall["steps_per_s"] * host, "1/s")
    return {"workload": workload, "metrics": metrics, "wall": wall,
            "host_factor": host,
            "tail": {"percentile": pct, "beyond": beyond, "items": len(items)},
            "attempted": ops, "failed": failed_ops, "items": len(items),
            "ok_items": ok, "errors": dict(errors),
            "errors_by_category": {k: dict(v) for k, v in by_category.items()},
            "wrong": raw["wrong"], "setup_samples": setup,
            "environment": raw["environment"], "layers": raw.get("layers"),
            "records": items}


def run_workload(args, workload):
    deadline = perf_counter() + DEADLINE_S
    workdir = os.path.join(ROOT, ".perfbench-work", workload)
    setup = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, timer, ready = _start_worker(args, workload, workdir, deadline,
                                           setup_only=True)
        raw = _finish_worker(proc, timer, workload)
        setup.append((ready, host_factor(raw["setup_ref_s"])))
    proc, timer, ready = _start_worker(args, workload, workdir, deadline,
                                       setup_only=False)
    raw = _finish_worker(proc, timer, workload)
    setup.append((ready, host_factor(raw["setup_ref_s"])))
    return summarize(workload, raw, setup)


def report(summary, args):
    t = summary["tail"]
    lines = [f"workload {summary['workload']}: seed {args.seed}, "
             f"{args.seconds:g} s, trace {args.trace}, closed loop with one "
             f"caller, {summary['items']} items, {summary['ok_items']} "
             f"without error; host factor {summary['host_factor']:.4g}"]
    notes = {name: f"wall {value:.6g}" for name, value in
             summary["wall"].items()}
    notes["setup_s"] += (f", median of {len(summary['setup_samples'])} "
                         f"fresh interpreters")
    notes["item_tail_ms"] += (f", p{t['percentile']}, {t['beyond']} items "
                              f"beyond, n={t['items']}")
    notes["failed_frac"] = (f"{summary['failed']} of {summary['attempted']} "
                            f"operations; {summary['errors'] or 'no errors'}")
    # a traced run's item times include tracing, so it shows layers only
    shown = summary["layers"] or summary["metrics"]
    for name, (value, unit) in shown.items():
        lines.append(f"  {name:<44} {value:>12.6g} {unit:<10} "
                     f"{notes.get(name, '')}")
    for category, errors in sorted(summary["errors_by_category"].items()):
        lines.append(f"  errors in {category}: {errors}")
    for wrong in summary["wrong"]:
        lines.append(f"  WRONG ANSWER {wrong}")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "smoothgames",
                                       "__init__.py")):
        print("error: no smoothgames sources under src/", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        summaries = [run_workload(args, name) for name in names]
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    commit = _git_commit()
    results_dir = os.path.join(ROOT, ".perfbench-work", "results")
    os.makedirs(results_dir, exist_ok=True)
    metrics = {}
    for s in summaries:
        print(report(s, args))
        s.update(seed=args.seed, seconds=args.seconds, trace=args.trace,
                 commit=commit)
        path = os.path.join(results_dir, f"{s['workload']}-seed{args.seed}"
                                         f"-trace{args.trace}.json")
        with open(path, "w") as fh:
            json.dump(s, fh, indent=1, sort_keys=True)
        prefix = "" if len(summaries) == 1 else f"{s['workload']}."
        chosen = (s["layers"].items() if args.trace else
                  ((k, s["metrics"][k]) for k in END_TO_END))
        for name, (value, unit) in chosen:
            metrics[prefix + name] = {"value": value, "unit": unit}
    env = summaries[0]["environment"]
    print(f"machine: {env['nproc']} x {env['cpu']}; Python {env['python']}, "
          f"numpy {env['numpy']}, {env['blas']}, threads {env['threads']}; "
          f"commit {commit}")
    correct = not any(s["wrong"] for s in summaries)
    print(json.dumps({"correct": correct,
                      "attempted": sum(s["attempted"] for s in summaries),
                      "failed": sum(s["failed"] for s in summaries),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
