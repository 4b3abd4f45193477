"""Outside-in spans around the public functions of each smoothgames module.

The tracer rebinds each listed name in every ``smoothgames`` module namespace
that holds the same function object (and patches the class attribute for
methods), so calls between modules are seen as well as calls from the
benchmark.  Spans stay in flat in-memory arrays (name, start, end, parent
span, item id, raised) and are written out when the run ends.  End-to-end
numbers never come from a traced run.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# (module, qualified name, counts errors)
LAYERS = (
    ("games", "gradient", False),
    ("games", "JointStrategy.__post_init__", False),
    ("games", "tangent_basis", False),
    ("regularizers", "reg_value", False),
    ("regularizers", "face_hessian", False),
    ("response", "smoothed_argmax", True),
    ("response", "smoothed_best_response", False),
    ("response", "find_smoothed_equilibrium", True),
    ("response", "homotopy_trace", True),
    ("response", "response_jacobian", False),
    ("dynamics", "step", False),
    ("dynamics", "run", False),
    ("dynamics", "stability_verdict", False),
    ("dynamics", "eta_threshold", False),
    ("dynamics", "sweep", False),
    ("stability", "game_jacobian", False),
    ("stability", "GameJacobian.tangent", False),
    ("stability", "solve_skew_certificate", False),
    ("stability", "interaction_graph", False),
    ("stability", "uniform_stability_check", False),
    ("stability", "pareto_improvement_search", False),
    ("stability", "verify_witness", False),
    ("stability", "weak_pareto_oracle", False),
    ("stability", "strong_nash_oracle", False),
    ("stability", "report_to_dict", False),
    ("cli", "main", True),
)
SPAN_NAMES = tuple(f"{m}.{q}" for m, q, _ in LAYERS)
VERDICTS = ("stable", "unstable_with_witness", "indeterminate")


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.verdicts = Counter()
        self.current_item = -1
        self._stack = [-1]
        self._restore = []

    def wrap(self, name_id, fn):
        clock, stack = self.clock, self._stack
        names, parents, items = self.name, self.parent, self.item
        starts, ends, raised = self.start, self.end, self.raised

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            items.append(self.current_item)
            raised.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()

        return span

    def _verdict_counter(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            report = fn(*args, **kwargs)
            self.verdicts[report.pointwise] += 1
            return report

        return counted

    def install(self):
        """Rebind every listed function across the smoothgames modules."""
        modules = [m for key, m in sys.modules.items()
                   if key == "smoothgames" or key.startswith("smoothgames.")]
        for name_id, (module, qualname, _) in enumerate(LAYERS):
            home = sys.modules[f"smoothgames.{module}"]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                self._rebind(cls, attr, self.wrap(name_id, original))
                continue
            original = getattr(home, qualname)
            wrapped = self.wrap(name_id, original)
            if qualname == "uniform_stability_check":
                wrapped = self._verdict_counter(wrapped)
            for mod in modules:
                if mod.__dict__.get(qualname) is original:
                    self._rebind(mod, qualname, wrapped)

    def _rebind(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def arrays(self):
        return {"name": np.frombuffer(self.name, dtype=np.int32).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "item": np.frombuffer(self.item, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start).copy(),
                "end": np.frombuffer(self.end).copy(),
                "raised": np.frombuffer(self.raised, dtype=np.int8).copy()}

    def save(self, path):
        np.savez(path, names=np.array(SPAN_NAMES), **self.arrays())


def self_times(parent, duration):
    """Span duration minus the time its child spans cover.

    Spans come from one thread's call stack, so the children of a span are
    disjoint intervals inside it and their coverage is their total length.
    """
    child = parent >= 0
    covered = np.bincount(parent[child], weights=duration[child],
                          minlength=len(duration))
    return duration - covered


def layer_metrics(spans, verdicts):
    """Per-layer counts and self times from a span table."""
    name, parent = spans["name"], spans["parent"]
    duration = spans["end"] - spans["start"]
    own = self_times(parent, duration)
    calls = np.bincount(name, minlength=len(LAYERS))
    self_s = np.bincount(name, weights=own, minlength=len(LAYERS))
    errors = np.bincount(name, weights=spans["raised"],
                         minlength=len(LAYERS))
    out = {}
    for i, (span_name, (_, _, counts_errors)) in enumerate(zip(SPAN_NAMES,
                                                               LAYERS)):
        out[f"{span_name}.calls"] = (int(calls[i]), "count")
        out[f"{span_name}.self_ms"] = (float(self_s[i] * 1e3), "ms")
        if counts_errors:
            out[f"{span_name}.errors"] = (int(errors[i]), "count")

    ids = {n: i for i, n in enumerate(SPAN_NAMES)}
    has_parent = parent >= 0
    up = np.maximum(parent, 0)
    parent_name = np.where(has_parent, name[up], -1)

    def nested(child, under):
        return int(np.sum((name == ids[child]) & (parent_name == ids[under])))

    def inside(ancestor):
        """Mask of spans with a span named ``ancestor`` above them."""
        target = name == ids[ancestor]
        mask = np.zeros(len(name), dtype=bool)
        while True:
            grown = has_parent & (target | mask)[up]
            if np.array_equal(grown, mask):
                return mask
            mask = grown

    def per(count, base):
        return count / base if base else 0.0

    steps = int(calls[ids["dynamics.step"]])
    step_s = float(duration[name == ids["dynamics.step"]].sum())
    out["dynamics.step.us_per_step"] = (per(step_s * 1e6, steps), "us")
    validations = (name == ids["games.JointStrategy.__post_init__"]) \
        & inside("dynamics.step")
    out["games.JointStrategy.validations_per_step"] = (
        per(int(validations.sum()), steps), "count/step")
    out["response.find_smoothed_equilibrium.outer_iters"] = (
        per(nested("response.smoothed_best_response",
                   "response.find_smoothed_equilibrium"),
            int(calls[ids["response.find_smoothed_equilibrium"]])),
        "count/call")
    out["response.smoothed_argmax.newton_iters"] = (
        per(nested("games.tangent_basis", "response.smoothed_argmax"),
            int(calls[ids["response.smoothed_argmax"]])), "count/call")
    for verdict in VERDICTS:
        out[f"stability.verdict.{verdict}"] = (verdicts.get(verdict, 0),
                                               "count")
    return out
