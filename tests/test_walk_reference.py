"""The damped equilibrium walk against a frozen copy of its earlier loop.

``reference_find_smoothed_equilibrium`` is ``find_smoothed_equilibrium``
as it stood when its step-collapse exit fired only once eta fell below the
residual band (1e-12).  On warm-started beta ladders the current walk must
return the same equilibrium bit for bit, and fail where the reference
fails, with the same error class, best residual and best point, after no
more steps.
"""

import numpy as np
import pytest

import smoothgames as sg
from smoothgames.errors import ConvergenceError, CyclingError
from smoothgames.games import epsilon_nash_gap, uniform_strategy
from smoothgames.response import FlatKernel, SmoothedEquilibrium

from conftest import quadratic_regularizers, random_game

REF_STAGNATION_WINDOW = 500
REF_STAGNATION_FACTOR = 0.99
REF_RESIDUAL_BAND = 1e-12

LADDER = (0.3, 0.1, 0.03, 0.01, 0.003)
SHAPES = ((2, 2), (3, 3), (4, 4), (2, 2, 2), (3, 3, 3))


def reference_find_smoothed_equilibrium(game, cfg, x0=None, outer_tol=1e-10,
                                        max_iter=100_000):
    """The earlier walk, without its argument checks."""
    kernel = FlatKernel(game, cfg)
    x = kernel.flatten(x0 if x0 is not None else uniform_strategy(game.shape),
                       "x0")[None, :]

    eta = 1.0
    prev_residual = np.inf
    best_residual = np.inf
    best_point = x
    marker = np.inf
    stall = 0

    def cycling(message, iterations):
        return CyclingError(message, residual=best_residual,
                            iterations=iterations, beta=cfg.beta,
                            last_point=kernel.strategy(best_point[0]))

    for iteration in range(max_iter):
        y = kernel.respond(x)
        residual = float(np.abs(y - x).max())
        if residual <= outer_tol:
            point = kernel.strategy(x[0])
            return SmoothedEquilibrium(
                point=point, beta=cfg.beta, residual=residual,
                nash_gap=epsilon_nash_gap(game, point))
        if residual < best_residual:
            best_residual = residual
            best_point = x
        if residual < REF_STAGNATION_FACTOR * marker:
            marker = residual
            stall = 0
        else:
            stall += 1
            if stall >= REF_STAGNATION_WINDOW:
                raise cycling(
                    f"residual stagnated near {best_residual:.3e} for "
                    f"{REF_STAGNATION_WINDOW} steps at beta={cfg.beta:g}; the "
                    f"iteration appears to be orbiting rather than "
                    f"converging", iteration)
        # the relative band keeps ulp-level jitter at tiny eta from biasing
        # the halve/grow walk into collapse
        if residual <= prev_residual * (1.0 + REF_RESIDUAL_BAND):
            eta = min(1.0, eta * 1.2)
        else:
            eta = eta / 2
            if eta < REF_RESIDUAL_BAND:
                raise cycling(
                    f"step size collapsed to eta={eta:.3e}, below the "
                    f"residual band {REF_RESIDUAL_BAND:g}, after {iteration} "
                    f"steps at beta={cfg.beta:g}; residual stagnated near "
                    f"{best_residual:.3e}", iteration)
        prev_residual = residual
        x = kernel.mix(x, y, eta)
    raise ConvergenceError(
        f"no fixed point within {max_iter} iterations; best residual "
        f"{best_residual:.3e}", residual=best_residual, iterations=max_iter,
        beta=cfg.beta, last_point=kernel.strategy(best_point[0]))


def _bits(point):
    return point.concatenated().tobytes()


def _outcome(solve, game, cfg, x0):
    """("ok", residual, point bits) or (error class, best residual, best
    point bits, iterations) of one solve."""
    try:
        eq = solve(game, cfg, x0)
    except ConvergenceError as err:
        return (type(err), err.residual.hex(), _bits(err.last_point),
                err.iterations), None
    return ("ok", eq.residual.hex(), _bits(eq.point)), eq.point


def _ladder(seed):
    rng = np.random.default_rng([20, seed])
    shape = SHAPES[seed % len(SHAPES)]
    game = random_game(rng, shape)
    if seed % 2:
        regs = quadratic_regularizers(rng, shape)
    else:
        regs = tuple(sg.entropy(k) for k in shape)
    return game, regs


@pytest.mark.parametrize("seed", range(20))
def test_walk_matches_reference_on_warm_started_ladders(seed):
    game, regs = _ladder(seed)
    warm = {"ref": None, "new": None}
    for beta in LADDER:
        cfg = sg.SmoothedResponseConfig(beta=beta, regularizers=regs)
        ref, ref_point = _outcome(reference_find_smoothed_equilibrium, game,
                                  cfg, warm["ref"])
        new, new_point = _outcome(sg.find_smoothed_equilibrium, game, cfg,
                                  warm["new"])
        if ref[0] == "ok":
            assert new == ref, beta
        else:
            assert new[:3] == ref[:3], beta
            assert new[3] <= ref[3], beta
        if ref_point is not None:
            warm = {"ref": ref_point, "new": new_point}


@pytest.mark.parametrize("seed", range(20))
def test_homotopy_matches_reference_on_the_same_ladders(monkeypatch, seed):
    # the trace down LADDER is the reference walk warm-started rung by rung
    # up to its first failure, which ends the trace with that rung's error
    # and stops it: it takes no more responses than the reference
    calls = []
    respond = FlatKernel.respond
    monkeypatch.setattr(FlatKernel, "respond",
                        lambda self, X: calls.append(1) or respond(self, X))
    game, regs = _ladder(seed)
    cfg = sg.SmoothedResponseConfig(beta=LADDER[0], regularizers=regs)
    solved, warm, failed = [], None, None
    for beta in LADDER:
        try:
            eq = reference_find_smoothed_equilibrium(
                game, sg.SmoothedResponseConfig(beta=beta, regularizers=regs),
                warm)
        except ConvergenceError as err:
            failed = beta, err
            break
        solved.append(eq)
        warm = eq.point
    ref_calls = len(calls)
    calls.clear()
    if failed is None:
        trace = sg.homotopy_trace(game, cfg, LADDER)
        assert [(eq.beta, eq.residual.hex(), _bits(eq.point))
                for eq in trace] == \
            [(eq.beta, eq.residual.hex(), _bits(eq.point)) for eq in solved]
        assert len(calls) == ref_calls
        return
    beta, ref = failed
    with pytest.raises(ConvergenceError) as new:
        sg.homotopy_trace(game, cfg, LADDER)
    assert len(calls) <= ref_calls
    err = new.value
    assert type(err) is type(ref)
    assert err.args[0].startswith(f"homotopy failed at beta={beta:g}: ")
    assert (err.beta, err.residual.hex(), _bits(err.last_point)) == \
        (beta, ref.residual.hex(), _bits(ref.last_point))
    assert err.iterations <= ref.iterations
    assert type(err.__cause__) is type(ref)


def test_reference_ladders_cover_both_outcomes():
    # the ladders above must exercise converging and failing walks, with
    # both regularizer kinds, or the comparison proves little
    seen = set()
    for seed in range(20):
        game, regs = _ladder(seed)
        warm = None
        for beta in LADDER:
            cfg = sg.SmoothedResponseConfig(beta=beta, regularizers=regs)
            outcome, point = _outcome(sg.find_smoothed_equilibrium, game,
                                      cfg, warm)
            seen.add((seed % 2, outcome[0] == "ok"))
            if point is not None:
                warm = point
    assert seen == {(0, True), (0, False), (1, True), (1, False)}


def test_idle_walk_stops_at_the_step_floor(monkeypatch):
    # this walk halves eta to about 1e-12 without ever going under the
    # residual band, so the reference idles out its stagnation window
    calls = []
    respond = FlatKernel.respond
    monkeypatch.setattr(FlatKernel, "respond",
                        lambda self, X: calls.append(1) or respond(self, X))
    game = random_game(np.random.default_rng(24), (3, 3))
    cfg = sg.entropy_config(game, 0.1)
    with pytest.raises(CyclingError, match="for 500 steps") as ref:
        reference_find_smoothed_equilibrium(game, cfg)
    assert len(calls) > 500
    calls.clear()
    with pytest.raises(CyclingError, match="collapsed.*stagnated") as new:
        sg.find_smoothed_equilibrium(game, cfg)
    assert len(calls) <= 100
    assert new.value.iterations == len(calls) - 1
    assert new.value.residual == ref.value.residual
    assert _bits(new.value.last_point) == _bits(ref.value.last_point)
