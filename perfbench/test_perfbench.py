"""Self-tests for the benchmark itself.

    python3 -m pytest perfbench -q
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

sg = worker.import_program()


def _id(name):
    return tracing.SPAN_NAMES.index(name)


def test_self_times_on_a_synthetic_call_tree():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    grad = tracer.wrap(_id("games.gradient"), lambda: None)
    post = tracer.wrap(_id("games.JointStrategy.__post_init__"), lambda: None)

    def respond():
        grad()
        grad()
        post()

    sbr = tracer.wrap(_id("response.smoothed_best_response"), respond)

    def one_step():
        sbr()
        post()

    step = tracer.wrap(_id("dynamics.step"), one_step)

    def fail():
        raise ValueError

    main = tracer.wrap(_id("cli.main"), fail)
    # clock reads: step 0..11 { sbr 1..8 { grad 2..3, grad 4..5, post 6..7 },
    # post 9..10 }, then main 12..13 raising
    step()
    with pytest.raises(ValueError):
        main()

    spans = tracer.arrays()
    own = tracing.self_times(spans["parent"], spans["end"] - spans["start"])
    assert own.tolist() == [3.0, 4.0, 1.0, 1.0, 1.0, 1.0, 1.0]
    m = tracing.layer_metrics(spans, tracer.verdicts)
    assert m["dynamics.step.self_ms"] == (3000.0, "ms")
    assert m["response.smoothed_best_response.self_ms"] == (4000.0, "ms")
    assert m["games.gradient.self_ms"] == (2000.0, "ms")
    assert m["games.gradient.calls"] == (2, "count")
    assert m["cli.main.errors"] == (1, "count")
    assert m["dynamics.step.us_per_step"] == (11e6, "us")
    assert m["games.JointStrategy.validations_per_step"][0] == 2.0


def test_tail_keeps_ten_items_beyond():
    assert run.tail([float(i) for i in range(100)]) == (89.0, 90, 10)
    assert run.tail([float(i) for i in range(11)]) == (0.0, 9, 10)


def test_summary_reports_times_at_nominal_host_speed():
    def item(index, seconds, ok):
        return {"index": index, "category": "c", "seconds": seconds,
                "ok": ok, "ops": 1, "failed_ops": int(not ok), "steps": 0,
                "errors": {} if ok else {"E": 1}}

    raw = {"items": [item(0, 1.0, True), item(1, 3.0, False),
                     item(0, 1.0, True), item(1, 3.0, False)],
           "ref_s": [2 * run.REF_NOMINAL_S] * 3, "wrong": [],
           "peak_rss_mb": 1.0, "environment": {}}
    s = run.summarize("certify", raw, [(0.4, 2.0), (0.6, 2.0), (1.0, 1.0)])
    m = s["metrics"]
    assert s["host_factor"] == pytest.approx(2.0)
    assert m["setup_s"][0] == pytest.approx(0.3)
    assert m["items_per_s"][0] == pytest.approx(2 / 8 * 2.0)
    assert m["item_p50_ms"][0] == pytest.approx(2000.0 / 2.0)
    assert m["failed_frac"] == (0.5, "ratio")
    assert s["wall"]["items_per_s"] == pytest.approx(0.25)


def test_seeds_relabel_one_corpus(tmp_path):
    pools = [workloads.generate("certify", seed, tmp_path / str(seed), sg)
             for seed in (1, 2)]
    for a, b in zip(*pools):
        ga, gb = (sg.load_game(x["game"]) for x in (a, b))
        assert ga.shape == gb.shape
        for ta, tb in zip(ga.payoffs, gb.payoffs):
            # the same payoffs up to a permutation and a constant
            np.testing.assert_allclose(np.sort((ta - ta.mean()).ravel()),
                                       np.sort((tb - tb.mean()).ravel()),
                                       atol=1e-12)


def test_benchmark_json_lists_what_run_reports():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    empty = {k: np.zeros(0, dtype=np.int32) for k in ("name", "parent")}
    empty.update(start=np.zeros(0), end=np.zeros(0),
                 raised=np.zeros(0, dtype=np.int8))
    layers = tracing.layer_metrics(empty, {})
    layers["trace.overhead_frac"] = (0.0, "ratio")
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in layers.items()}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def traced_twice(request, tmp_path_factory):
    workload = request.param
    items = workloads.generate(workload, 1, tmp_path_factory.mktemp(workload),
                               sg)
    count = {"sweep": 1, "simulate": 1, "certify": 5}[workload]
    return [worker.traced_run(workload, items[:count], sg) for _ in range(2)]


def test_traced_and_untraced_outputs_match(traced_twice):
    for result in traced_twice:
        assert result["wrong"] == []


def test_counts_repeat_across_traced_runs(traced_twice):
    first, second = traced_twice

    def counts(result):
        return {k: v for k, v in result["layers"].items()
                if k.endswith(".calls") or k.endswith(".errors")
                or k.startswith("stability.verdict.")}

    assert counts(first) == counts(second)
    assert first["spans"] == second["spans"] > 0
