"""Seeded inputs, items and output checks for the three benchmark workloads.

Each workload is a pool of items written to disk before the first item runs.
The pool is a fixed corpus of instances drawn once from CORPUS_SEED with the
distributions below, in a fixed cycle of categories.  ``--seed`` draws a
strategically equivalent relabelling of every instance: it permutes each
player's actions (and, with them, points and regularizer parameters) and
adds a constant to each player's payoffs.  Every seed thus gets its own
input files while the program does the same mathematical work, up to
rounding.  Item cost varies by more than tenfold between instances, and
whether the damped equilibrium iteration converges or cycles can change
under a 1% payoff perturbation, so perturbed or freshly drawn instances
would make a run's figures, its failure count included, depend on its seed.
A run makes whole passes over its pool, so a faster program repeats the
same mix rather than reaching other instances.  The program sees only the
generated inputs: game JSON files, regularizer JSON specs, point strings
and API arguments.

Why each workload exists:

sweep
    Phase diagrams of x <- (1 - eta) x + eta Phi_beta(x) with entropy
    regularizers, through the public ``smoothgames.sweep`` API.  The time
    goes to dynamics.run -> step -> smoothed_best_response (softmax) with
    sparse recording, on both the 2-player and the N-player contraction
    paths.  No Newton solve; stability work is one verdict per cell.
simulate
    In-process ``smoothgames simulate --eta auto`` under per-player
    quadratic-entropy regularizers.  Exercises the Newton argmax (2-9 ms per
    response against ~0.1 ms for the softmax), the homotopy solve with Newton
    inner solves, eta_threshold's nine response Jacobians through
    eigen-pseudoinverse face Hessians, and per-step recording and CSV output.
    beta = 1e-3 is ``analyze --solve``'s default and the regime where the
    Newton argmax goes NaN, so those items fail at the seed by design.
certify
    In-process ``smoothgames analyze --at`` uniform-stability reports: skew
    certificates on connected lambda-skew polymatrix games, sampled witnesses
    on general-sum games (plus the grid oracles on small ones), and the
    indeterminate branch (all conditioners and the Pareto search) on
    disconnected skew games.  No dynamics and no solver.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

WORKLOADS = ("sweep", "simulate", "certify")

POOL_SIZE = {"sweep": 9, "simulate": 8, "certify": 20}
CORPUS_SEED = 0
OFFSET = 1.0            # per-player payoff offsets are U(-OFFSET, OFFSET)

BUNDLED = ("matching_pennies", "coordination_2x2", "example_A")
SWEEP_BETAS = (0.3, 0.1, 0.03)
SWEEP_ETAS = (0.001, 0.01, 0.1)
# The CLI default is 2000 steps; 500 keeps dynamics the dominant cost while
# letting one run finish enough items for a tail percentile.
SWEEP_HORIZON = 500
SWEEP_OUTER_TOL = 1e-10
SIM_SHAPES = ((2, 2), (3, 3), (4, 4), (2, 2, 2), (3, 3, 3))
SIM_BETAS = (0.3, 0.1, 0.03, 1e-3)
SIM_HORIZON = 100
CERTIFY_CYCLE = ("skew_connected", "general", "skew_connected", "general",
                 "skew_disconnected")

VERDICT_TOL = 1e-9      # dynamics.CLASSIFICATION_TOL
SIMPLEX_TOL = 1e-9
SKEW_TOL = 1e-8
WITNESS_TOL = 1e-6


class WrongAnswer(Exception):
    """An item returned an output that fails the benchmark's checks."""


@dataclass
class Outcome:
    """What one item did, as seen from outside the program."""

    seconds: float
    ok: bool = True                    # returned without raising / exit 0
    ops: int = 1                       # cells for sweep, else 1
    failed_ops: int = 0
    steps: int = 0                     # averaging-dynamics steps completed
    errors: Counter = field(default_factory=Counter)
    digest: str = ""                   # identifies the output bytes
    result: object = None              # kept for the checks only


# ---------------------------------------------------------------------------
# input generation
#
# ``draw`` is the corpus generator of an item and ``jit`` its seed's
# generator; sizes, categories and numbers come from ``draw`` alone, and
# ``jit`` only picks the relabelling.

class Relabel:
    """A strategically equivalent copy of a game: each player's actions
    permuted, and a constant added to each player's payoffs."""

    def __init__(self, jit, shape):
        self.perms = tuple(jit.permutation(k) for k in shape)
        self.offsets = jit.uniform(-OFFSET, OFFSET, len(shape))

    def game(self, payoffs):
        return [np.asarray(t, dtype=float)[np.ix_(*self.perms)] + c
                for t, c in zip(payoffs, self.offsets)]

    def block(self, player, values):
        return np.asarray(values)[self.perms[player]]


def _log_uniform_int(draw, low, high):
    return int(round(math.exp(draw.uniform(math.log(low), math.log(high)))))


def _write_game(path, payoffs, name):
    data = {"players": len(payoffs), "shape": list(payoffs[0].shape),
            "payoffs": [p.ravel(order="C").tolist() for p in payoffs],
            "name": name}
    with open(path, "w") as fh:
        fh.write(json.dumps(data))


def _random_game(draw, shape):
    return [draw.standard_normal(shape) for _ in shape]


def _polymatrix_skew(draw, dims, edges):
    """Payoffs whose game Jacobian satisfies lam_a J_ab = -lam_b J_ba^T."""
    n = len(dims)
    lam = np.exp(draw.uniform(-1.0, 1.0, n))
    payoffs = [np.zeros(dims) for _ in range(n)]
    for a, b in edges:
        m = draw.standard_normal((dims[a], dims[b]))
        m = m - m.mean(axis=0, keepdims=True)
        m = m - m.mean(axis=1, keepdims=True)
        for p, q, block in ((a, b, m), (b, a, -(lam[a] / lam[b]) * m.T)):
            view = [1] * n
            view[p], view[q] = dims[p], dims[q]
            oriented = block if p < q else block.T
            payoffs[p] = payoffs[p] + oriented.reshape(view)
    return payoffs


def _point_spec(draw, relabel, shape):
    blocks = []
    for n, k in enumerate(shape):
        b = draw.dirichlet(np.ones(k)) + 1e-3
        blocks.append(relabel.block(n, b / b.sum()))
    return ";".join(",".join(repr(float(v)) for v in b) for b in blocks)


def _sweep_item(draw, jit, i, workdir, sg):
    category = ("bundled", "two_player", "three_player")[i % 3]
    if category == "bundled":
        payoffs = sg.bundled_game(BUNDLED[(i // 3) % len(BUNDLED)]).payoffs
    else:
        if category == "two_player":
            shape = (_log_uniform_int(draw, 2, 50),) * 2
        else:
            shape = (int(draw.integers(2, 9)),) * 3
        payoffs = _random_game(draw, shape)
    game = os.path.join(workdir, f"sweep-{i}.json")
    _write_game(game, Relabel(jit, payoffs[0].shape).game(payoffs),
                f"sweep-{i}")
    return {"index": i, "category": category, "game": game}


def _simulate_item(draw, jit, i, workdir, sg):
    shape = SIM_SHAPES[i % len(SIM_SHAPES)]
    beta = SIM_BETAS[i % len(SIM_BETAS)]
    relabel = Relabel(jit, shape)
    game = os.path.join(workdir, f"simulate-{i}.json")
    _write_game(game, relabel.game(_random_game(draw, shape)),
                f"simulate-{i}")
    regs = []
    for n, k in enumerate(shape):
        lam = math.exp(draw.uniform(math.log(0.25), 0))
        diag = relabel.block(n, draw.uniform(1.0, 3.0, k))
        weights = relabel.block(n, draw.dirichlet(np.ones(k)))
        regs.append({"kind": "quadratic_entropy", "lambda": lam,
                     "A": np.diag(diag).tolist(), "w": weights.tolist()})
    output = os.path.join(workdir, "simulate-out.csv")
    argv = ["simulate", game, "--beta", repr(beta), "--eta", "auto",
            "--horizon", str(SIM_HORIZON), "--record-every", "1",
            "--reg", json.dumps(regs), "--output", output]
    return {"index": i, "category": f"beta={beta:g}", "shape": shape,
            "argv": argv, "output": output}


def _certify_item(draw, jit, i, workdir, sg):
    category = CERTIFY_CYCLE[i % len(CERTIFY_CYCLE)]
    cycle = i // len(CERTIFY_CYCLE)
    if category == "skew_connected":
        n = int(draw.integers(3, 7))
        dims = tuple(int(k) for k in draw.integers(2, 6, n))
        edges = {(int(draw.integers(0, j)), j) for j in range(1, n)}
        edges |= {(a, b) for a in range(n) for b in range(a + 1, n)
                  if draw.random() < 0.2}
        payoffs = _polymatrix_skew(draw, dims, sorted(edges))
    elif category == "skew_disconnected":
        n = (4, 6)[cycle % 2]
        dims = tuple(int(k) for k in draw.integers(2, 6, n))
        payoffs = _polymatrix_skew(draw, dims,
                                   [(a, a + 1) for a in range(0, n, 2)])
    else:
        # the two general items of a cycle: one 2-player, one 3-player
        if i % len(CERTIFY_CYCLE) == 1:
            dims = (_log_uniform_int(draw, 2, 50),) * 2
        else:
            dims = (int(draw.integers(2, 9)),) * 3
        payoffs = _random_game(draw, dims)
    relabel = Relabel(jit, dims)
    game = os.path.join(workdir, f"certify-{i}.json")
    _write_game(game, relabel.game(payoffs), f"certify-{i}")
    output = os.path.join(workdir, "certify-out.json")
    argv = ["analyze", game, "--at", _point_spec(draw, relabel, dims),
            "--output", output]
    return {"index": i, "category": category, "game": game, "argv": argv,
            "output": output}


_MAKERS = {"sweep": _sweep_item, "simulate": _simulate_item,
           "certify": _certify_item}


def generate(workload, seed, workdir, sg):
    """Write the workload's input pool for ``seed`` and describe its items."""
    os.makedirs(workdir, exist_ok=True)
    tag = WORKLOADS.index(workload)
    return [_MAKERS[workload](np.random.default_rng([CORPUS_SEED, tag, i]),
                              np.random.default_rng([seed, tag, i]), i,
                              workdir, sg)
            for i in range(POOL_SIZE[workload])]


# ---------------------------------------------------------------------------
# execution

def _call_cli(sg_cli, item):
    """Run one in-process CLI call; failures are returned, not raised."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(item["output"])
    stderr = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stderr(stderr):
            code = sg_cli.main(item["argv"])
        error = None if code == 0 else _exit_class(code, stderr.getvalue())
    except Exception as exc:   # the CLI let it escape: count it, keep going
        error = type(exc).__name__
    seconds = perf_counter() - start
    digest = error
    if error is None:
        with open(item["output"], "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
    return Outcome(seconds=seconds, ok=error is None,
                   failed_ops=int(error is not None),
                   errors=Counter([error] if error else []), digest=digest)


def _exit_class(code, stderr):
    """Error class of a nonzero CLI exit, from its code and message."""
    if code == 3:
        if "stagnated" in stderr:
            return "CyclingError"
        if "inner solver" in stderr:
            return "ConvergenceError.inner"
        return "ConvergenceError"
    return {2: "exit2.input", 4: "ResourceError"}.get(code, f"exit{code}")


def _cells_digest(cells):
    h = hashlib.sha256()
    for c in cells:
        h.update(repr((c.beta, c.eta, c.error, c.final_distance,
                       c.verdict.jacobian_spectral_radius if c.verdict else None,
                       c.verdict.classification if c.verdict else None)).encode())
        if c.equilibrium is not None:
            h.update(c.equilibrium.point.concatenated().tobytes())
    return h.hexdigest()


def execute(workload, item, sg):
    """Run one item through the public API or the in-process CLI.

    Names are looked up on the package at call time, so a traced run sees
    the rebound functions.
    """
    if workload != "sweep":
        outcome = _call_cli(sg.cli, item)
        if workload == "simulate" and not outcome.failed_ops:
            outcome.steps = SIM_HORIZON
        return outcome
    start = perf_counter()
    try:
        game = sg.load_game(item["game"])
        regs = tuple(sg.entropy(k) for k in game.shape)
        cells = sg.sweep(game, SWEEP_BETAS, SWEEP_ETAS, regs,
                         horizon=SWEEP_HORIZON, jobs=1,
                         outer_tol=SWEEP_OUTER_TOL)
    except Exception as exc:   # count it, keep going
        n = len(SWEEP_BETAS) * len(SWEEP_ETAS)
        return Outcome(seconds=perf_counter() - start, ok=False, ops=n,
                       failed_ops=n, errors=Counter([type(exc).__name__]),
                       digest=type(exc).__name__)
    seconds = perf_counter() - start
    errors = Counter(c.error.split(":")[0] for c in cells if c.error)
    ok = sum(c.error is None for c in cells)
    return Outcome(seconds=seconds, ops=len(cells),
                   failed_ops=len(cells) - ok, steps=ok * SWEEP_HORIZON,
                   errors=errors, digest=_cells_digest(cells),
                   result=(game, cells))


# ---------------------------------------------------------------------------
# output checks (independent numpy recomputation where possible)

def _contract(tensor, blocks, keep):
    """Contract ``tensor`` against every block whose axis is not in keep."""
    operands = [tensor, list(range(tensor.ndim))]
    for axis, b in enumerate(blocks):
        if axis not in keep:
            operands += [b, [axis]]
    return np.einsum(*operands, list(keep))


def _softmax(v):
    z = np.exp(v - v.max())
    return z / z.sum()


def _check_sweep(item, outcome):
    game, cells = outcome.result
    grid = [(b, e) for b in SWEEP_BETAS for e in SWEEP_ETAS]
    if [(c.beta, c.eta) for c in cells] != grid:
        raise WrongAnswer("sweep cells are not the requested grid")
    log_k = max(math.log(k) for k in game.shape)
    for c in cells:
        if c.error:
            continue
        eq = c.equilibrium
        x = eq.point.blocks
        grads = [_contract(t, x, (n,)) for n, t in enumerate(game.payoffs)]
        residual = max(np.abs(_softmax(g / c.beta) - b).max()
                       for g, b in zip(grads, x))
        # the recomputation contracts in another order: allow last digits
        if not (eq.residual <= SWEEP_OUTER_TOL
                and residual <= 2 * SWEEP_OUTER_TOL):
            raise WrongAnswer(f"residual {eq.residual:.3e} (recomputed "
                              f"{residual:.3e}) above outer_tol")
        gap = max(g.max() - g @ b for g, b in zip(grads, x))
        if gap > c.beta * log_k + 1e-9:
            raise WrongAnswer(f"nash gap {gap:.3e} above beta log k")
        radius = c.verdict.jacobian_spectral_radius
        label = ("asymptotically_stable" if radius < 1 - VERDICT_TOL else
                 "unstable" if radius > 1 + VERDICT_TOL else "marginal")
        if c.verdict.classification != label:
            raise WrongAnswer(f"verdict {c.verdict.classification} for "
                              f"spectral radius {radius!r}")
        if not math.isfinite(c.final_distance):
            raise WrongAnswer("final distance is not finite")


def _check_simulate(item, outcome):
    with open(item["output"], newline="") as fh:
        rows = list(csv.reader(fh))
    header, rows = rows[0], rows[1:]
    if header[0] != "t" or len(rows) != SIM_HORIZON + 1:
        raise WrongAnswer(f"{len(rows)} trajectory rows, expected "
                          f"{SIM_HORIZON + 1}")
    width = sum(item["shape"])
    for t, row in enumerate(rows):
        if int(row[0]) != t:
            raise WrongAnswer(f"row {t} is labelled t={row[0]}")
        probs = np.array([float(v) for v in row[1:1 + width]])
        start = 0
        for k in item["shape"]:
            block = probs[start:start + k]
            start += k
            if block.min() < 0 or abs(block.sum() - 1.0) > SIMPLEX_TOL:
                raise WrongAnswer(f"row {t} leaves the simplex")


def _check_certify(item, outcome, sg):
    with open(item["output"]) as fh:
        report = json.load(fh)
    game = sg.load_game(item["game"])
    point = sg.JointStrategy(tuple(np.array(b) for b in report["point"]))
    stability = report["stability"]
    verdict = stability["pointwise"]
    if verdict == "stable":
        lam = np.array(stability["certificate"]["lambdas"])
        jac = sg.game_jacobian(game, point).blocks
        worst = max(np.linalg.norm(lam[n] * jac[n][m] + lam[m] * jac[m][n].T)
                    / (1.0 + np.linalg.norm(jac[n][m]))
                    for n in range(len(jac)) for m in range(len(jac)) if n != m)
        if lam.min() <= 0 or worst > SKEW_TOL:
            raise WrongAnswer(f"certificate leaves skew residual {worst:.3e}")
    elif verdict == "unstable_with_witness":
        blocks = [np.array(b).reshape(k, k) for b, k in
                  zip(stability["witness"]["blocks_row_major"], game.shape)]
        real = sg.verify_witness(sg.game_jacobian(game, point), blocks)
        if not real > WITNESS_TOL:
            raise WrongAnswer(f"witness replays to real part {real:.3e}")
    elif verdict != "indeterminate":
        raise WrongAnswer(f"unknown verdict {verdict!r}")
    pareto = report.get("weak_pareto", {})
    if pareto.get("witness") is not None:
        x = point.blocks
        w = [np.array(b) for b in pareto["witness"]]
        for t in game.payoffs:
            if not _contract(t, w, ()) > _contract(t, x, ()):
                raise WrongAnswer("Pareto witness does not improve every "
                                  "player")


def check(workload, item, outcome, sg):
    """Raise WrongAnswer unless a successful item's output is correct."""
    if not outcome.ok:
        return
    if workload == "sweep":
        _check_sweep(item, outcome)
    elif workload == "simulate":
        _check_simulate(item, outcome)
    else:
        _check_certify(item, outcome, sg)
