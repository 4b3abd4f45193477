"""Command-line surface: analyze, equilibrium, simulate, sweep, probe-steepness.

Exit codes: 0 on success (indeterminate verdicts included), 2 on parse or
validation failure, 3 on solver failure, 4 on resource exhaustion.  All
randomness flows through --seed (a non-negative integer, checked before any
work), and identical (inputs, seed) produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .dynamics import (SAMPLE_BALL_RADIUS, DynamicsConfig, eta_threshold, run,
                       stability_verdict, sweep, sweep_to_csv, trace_to_csv,
                       trajectory_to_csv, write_csv)
from .errors import (ConvergenceError, GameError, ParseError, ResourceError,
                     check_count, check_real)
from .games import (JointStrategy, game_jacobian, load_game, pure_strategy,
                    quasi_strict_check, uniform_strategy, utility)
from .regularizers import entropy, regularizer_from_dict
from .response import (SmoothedResponseConfig, homotopy_trace,
                       linear_steepness_probe)
from .stability import (report_to_dict, strong_nash_oracle,
                        uniform_stability_check, weak_pareto_oracle)


# ---------------------------------------------------------------------------
# flag parsing helpers

def _parse_float_list(text: str) -> list:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as err:
        raise ParseError(f"bad numeric list {text!r}: {err}") from err
    if not values:
        raise ParseError(f"empty numeric list {text!r}")
    return values


def _parse_point(spec: str, shape) -> JointStrategy:
    """Parse --at/--x0 values: 'uniform', 'pure:i,j,...', or explicit blocks
    like '0.5,0.5;0.3,0.7' (semicolon-separated players)."""
    if spec == "uniform":
        return uniform_strategy(shape)
    if spec.startswith("pure:"):
        try:
            indices = [int(part) for part in spec[5:].split(",")]
        except ValueError as err:
            raise ParseError(f"bad pure-strategy spec {spec!r}") from err
        if len(indices) != len(shape):
            raise ParseError(
                f"pure spec names {len(indices)} actions for "
                f"{len(shape)} players")
        return pure_strategy(shape, indices)
    parts = spec.split(";")
    if len(parts) != len(shape):
        raise ParseError(
            f"point spec has {len(parts)} blocks for {len(shape)} players")
    # each block's numbers are read, and checked, by JointStrategy
    return JointStrategy(tuple(part.split(",") for part in parts))


def _spec_json(spec: str):
    """The decoded JSON of a regularizer spec."""
    try:
        return json.loads(spec)
    except json.JSONDecodeError as err:
        raise ParseError(f"regularizer spec is not JSON: {err}") from err


def _parse_regularizers(spec: str, shape):
    """'entropy', a JSON spec applied to all players, or a JSON list."""
    if spec == "entropy":
        return tuple(entropy(k) for k in shape)
    data = _spec_json(spec)
    if isinstance(data, dict):
        return tuple(regularizer_from_dict(data, dimension=k) for k in shape)
    if isinstance(data, list):
        if len(data) != len(shape):
            raise ParseError(
                f"{len(data)} regularizer specs for {len(shape)} players")
        return tuple(regularizer_from_dict(d, dimension=k)
                     for d, k in zip(data, shape))
    raise ParseError("regularizer spec must be a JSON object or list")


def _beta_schedule(target: float) -> list:
    """Geometric continuation schedule from 1 down to a positive, finite
    ``target`` (checked first), shrinking by a factor 0.3 per step.  Only
    its last entry is a result; the rungs before it are warm starts (see
    :func:`_solve_at`)."""
    if check_real("--beta", target) >= 1.0:
        return [target]
    schedule = []
    b = 1.0
    while b > target * 1.000001:
        schedule.append(b)
        b *= 0.3
    schedule.append(target)
    return schedule


def _solve_at(game, regs, beta):
    """The smoothed equilibrium at ``beta``, traced along its
    :func:`_beta_schedule`.

    The rungs before the target are traced to the square root of the
    target's tolerance, then the target alone from the last of them to the
    full tolerance, which certifies the result.  A rung's point only starts
    the next rung's walk, which corrects it to its own tolerance, so
    polishing it further buys nothing.  A failure on either trace is
    :func:`homotopy_trace`'s error, naming the beta it failed at.
    """
    schedule = _beta_schedule(beta)
    tol = 1e-10
    x0 = None
    if len(schedule) > 1:
        head = SmoothedResponseConfig(beta=schedule[0], regularizers=regs)
        x0 = homotopy_trace(game, head, schedule[:-1],
                            outer_tol=math.sqrt(tol))[-1].point
    cfg = SmoothedResponseConfig(beta=schedule[-1], regularizers=regs)
    return homotopy_trace(game, cfg, schedule[-1:], x0, outer_tol=tol)[-1]


def _target(path):
    """stdout for a missing path or '-', else the path."""
    return sys.stdout if path in (None, "-") else path


def _emit_json(payload: dict, path):
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as handle:
            handle.write(text)


# ---------------------------------------------------------------------------
# subcommands

def cmd_analyze(args) -> int:
    game = load_game(args.game)
    solve_info = None
    if args.solve:
        final = _solve_at(game, _parse_regularizers(args.reg, game.shape),
                          args.beta)
        point = final.point
        solve_info = {"beta": final.beta, "residual": final.residual,
                      "nash_gap": final.nash_gap}
    else:
        point = _parse_point(args.at, game.shape)

    jac = game_jacobian(game, point)
    report = uniform_stability_check(jac, num_conditioners=args.conditioners,
                                     rng_seed=args.seed)
    quasi = quasi_strict_check(game, point)
    payload = {
        "game": game.name or args.game,
        "point": [b.tolist() for b in point.blocks],
        "utilities": [utility(game, point, n)
                      for n in range(game.num_players)],
        "nash_gap": quasi.gap,
        "quasi_strict": {
            "status": quasi.status,
            "gap": quasi.gap,
            "player": quasi.player,
            "index": quasi.index,
        },
        "stability": report_to_dict(report),
    }
    if solve_info is not None:
        payload["solved"] = solve_info

    try:
        pareto = weak_pareto_oracle(game, point, args.grid_resolution)
    except ResourceError as err:
        payload["weak_pareto"] = {"skipped": str(err)}
    else:
        payload["weak_pareto"] = {
            "optimal": pareto.optimal,
            "resolution": pareto.resolution,
            "witness": ([b.tolist() for b in pareto.witness.blocks]
                        if pareto.witness is not None else None),
            "witness_utilities": (
                [utility(game, pareto.witness, n)
                 for n in range(game.num_players)]
                if pareto.witness is not None else None),
        }
        if game.num_players <= 4:
            strong = strong_nash_oracle(game, point, args.grid_resolution)
            payload["strong_nash"] = {
                "strong_nash": strong.strong_nash,
                "resolution": strong.resolution,
                "improvable_coalitions": [
                    list(v.coalition) for v in strong.verdicts
                    if v.improvable],
            }
    _emit_json(payload, args.output)
    return 0


def cmd_equilibrium(args) -> int:
    game = load_game(args.game)
    regs = _parse_regularizers(args.reg, game.shape)
    schedule = _parse_float_list(args.betas)
    x0 = _parse_point(args.x0, game.shape) if args.x0 else None
    cfg = SmoothedResponseConfig(beta=schedule[0], regularizers=regs)
    trace = homotopy_trace(game, cfg, schedule, x0, outer_tol=args.tol)
    trace_to_csv(trace, _target(args.output))
    return 0


def cmd_simulate(args) -> int:
    game = load_game(args.game)
    regs = _parse_regularizers(args.reg, game.shape)
    response_cfg = SmoothedResponseConfig(beta=args.beta, regularizers=regs)
    x0 = (_parse_point(args.x0, game.shape) if args.x0
          else uniform_strategy(game.shape))

    reference = None
    verdict = None
    try:
        reference = _solve_at(game, regs, args.beta)
    except ConvergenceError:
        if args.eta == "auto":
            raise
        print("note: smoothed equilibrium not found; distance column "
              "will be empty", file=sys.stderr)

    if args.eta == "auto":
        eta = eta_threshold(game, response_cfg, reference, rng_seed=args.seed,
                            radius=SAMPLE_BALL_RADIUS)
        print(f"note: eta=auto resolved to {eta:.17g} (L sampled on an "
              f"inf-norm ball of radius {SAMPLE_BALL_RADIUS:g})",
              file=sys.stderr)
    else:
        try:
            eta = float(args.eta)
        except ValueError as err:
            raise ParseError(f"bad eta {args.eta!r}") from err

    cfg = DynamicsConfig(eta=eta, response=response_cfg, horizon=args.horizon,
                         record_every=args.record_every)
    if reference is not None:
        verdict = stability_verdict(game, cfg, reference)
    trajectory = run(game, cfg, x0, reference=reference)
    trajectory_to_csv(trajectory, _target(args.output), verdict)
    return 0


def cmd_sweep(args) -> int:
    game = load_game(args.game)
    regs = _parse_regularizers(args.reg, game.shape)
    betas = _parse_float_list(args.betas)
    etas = _parse_float_list(args.etas)
    x0 = (_parse_point(args.x0, game.shape) if args.x0
          else uniform_strategy(game.shape))
    cells = sweep(game, betas, etas, regs, x0=x0, horizon=args.horizon)
    sweep_to_csv(cells, _target(args.output))
    return 0


def cmd_probe_steepness(args) -> int:
    if args.spec == "entropy":
        reg = entropy(args.dim)
    else:
        data = _spec_json(args.spec)
        if not isinstance(data, dict):
            raise ParseError("regularizer spec must be a JSON object")
        reg = regularizer_from_dict(data, dimension=args.dim
                                    if data.get("kind") == "entropy" else None)
    betas = _parse_float_list(args.betas)
    rng = np.random.default_rng(args.seed) if args.random_probe else None
    ratios = linear_steepness_probe(reg, args.index, args.eps, betas, rng=rng)
    write_csv(_target(args.output), ["beta", "ratio", "entropy_envelope"],
              ([beta, ratio, np.exp(-args.eps / beta) / beta
                if reg.kind == "entropy" else None]
               for beta, ratio in zip(betas, ratios)))
    return 0


# ---------------------------------------------------------------------------
# argument wiring

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smoothgames",
        description="Smoothed best-response dynamics and stability "
                    "certificates for normal-form games")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0,
                       help="seed for all randomness (default 0)")
        p.add_argument("--output", default=None,
                       help="output file (default: stdout)")

    p = sub.add_parser("analyze",
                       help="stability report at a point or solved "
                            "equilibrium")
    p.add_argument("game", help="game JSON path or bundled name")
    p.add_argument("--at", default="uniform",
                   help="point: uniform, pure:i,j,..., or explicit blocks "
                        "'0.5,0.5;0.3,0.7'")
    p.add_argument("--solve", action="store_true",
                   help="analyze at a solved smoothed equilibrium instead "
                        "of --at")
    p.add_argument("--beta", type=float, default=1e-3,
                   help="final beta for --solve (default 1e-3)")
    p.add_argument("--reg", default="entropy",
                   help="regularizer spec (default entropy)")
    p.add_argument("--grid-resolution", type=int, default=21,
                   dest="grid_resolution",
                   help="oracle lattice points per edge (default 21)")
    p.add_argument("--conditioners", type=int, default=100,
                   help="sampled PD conditioners for witness search")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("equilibrium",
                       help="homotopy trace of smoothed equilibria")
    p.add_argument("game")
    p.add_argument("--betas", default="1,0.3,0.1,0.03,0.01",
                   help="strictly decreasing schedule (default "
                        "1,0.3,0.1,0.03,0.01)")
    p.add_argument("--reg", default="entropy")
    p.add_argument("--x0", default=None, help="starting point spec")
    p.add_argument("--tol", type=float, default=1e-10,
                   help="fixed-point residual target (default 1e-10)")
    common(p)
    p.set_defaults(func=cmd_equilibrium)

    p = sub.add_parser("simulate", help="run the averaging dynamics")
    p.add_argument("game")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--eta", default="auto",
                   help="learning rate, or 'auto' for the measured "
                        "threshold (default auto)")
    p.add_argument("--horizon", type=int, default=1000)
    p.add_argument("--record-every", type=int, default=1,
                   dest="record_every")
    p.add_argument("--x0", default=None)
    p.add_argument("--reg", default="entropy")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="grid of (beta, eta) cells")
    p.add_argument("game")
    p.add_argument("--betas", default="0.3,0.1,0.03")
    p.add_argument("--etas", default="0.001,0.01,0.1")
    p.add_argument("--horizon", type=int, default=2000)
    p.add_argument("--x0", default=None)
    p.add_argument("--reg", default="entropy")
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("probe-steepness",
                       help="measure suboptimal-mass decay of a regularizer")
    p.add_argument("--spec", default="entropy",
                   help="'entropy' or a regularizer JSON spec")
    p.add_argument("--dim", type=int, default=3,
                   help="simplex dimension for entropy specs (default 3)")
    p.add_argument("--index", type=int, default=0,
                   help="probed action index (default 0)")
    p.add_argument("--eps", type=float, default=0.5,
                   help="suboptimality gap of the probed action")
    p.add_argument("--betas", default="0.2,0.1,0.05")
    p.add_argument("--random-probe", action="store_true",
                   dest="random_probe",
                   help="randomize the other payoff entries (seeded)")
    common(p)
    p.set_defaults(func=cmd_probe_steepness)
    return parser


# parsing does not change the parser, so one serves every call
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        check_count("--seed", args.seed)
        return args.func(args)
    except ResourceError as err:
        print(f"error: {err}", file=sys.stderr)
        return 4
    except ConvergenceError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (GameError, FileNotFoundError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
