"""Command-line surface: analyze, equilibrium, simulate, sweep, probe-steepness.

Exit codes: 0 on success (indeterminate verdicts included), 2 on parse or
validation failure, 3 on solver failure, 4 on resource exhaustion.  All
randomness flows through --seed, and identical (inputs, seed) produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .dynamics import (DynamicsConfig, eta_threshold, run, stability_verdict,
                       sweep, sweep_to_csv, trajectory_to_csv)
from .errors import ConvergenceError, GameError, ParseError, ResourceError
from .games import (JointStrategy, epsilon_nash_gap, load_game, pure_strategy,
                    uniform_strategy, utility)
from .regularizers import entropy, regularizer_from_dict
from .response import SmoothedResponseConfig, homotopy_trace
from .stability import (game_jacobian, lattice_size, quasi_strict_check,
                        report_to_dict, strong_nash_oracle,
                        uniform_stability_check, weak_pareto_oracle)

ORACLE_GRID_CAP = 10 ** 6


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
    try:
        blocks = tuple(np.array([float(v) for v in part.split(",")])
                       for part in parts)
    except ValueError as err:
        raise ParseError(f"bad point spec {spec!r}: {err}") from err
    return JointStrategy(blocks)


def _parse_regularizers(spec: str, shape):
    """'entropy', a JSON spec applied to all players, or a JSON list."""
    if spec == "entropy":
        return tuple(entropy(k) for k in shape)
    try:
        data = json.loads(spec)
    except json.JSONDecodeError as err:
        raise ParseError(f"regularizer spec is not JSON: {err}") from err
    if isinstance(data, dict):
        return tuple(regularizer_from_dict(data, dimension=k) for k in shape)
    if isinstance(data, list):
        if len(data) != len(shape):
            raise ParseError(
                f"{len(data)} regularizer specs for {len(shape)} players")
        return tuple(regularizer_from_dict(d, dimension=k)
                     for d, k in zip(data, shape))
    raise ParseError("regularizer spec must be a JSON object or list")


def _beta_schedule(target: float, start=1.0, factor=0.3) -> list:
    """Geometric continuation schedule from ``start`` down to ``target``."""
    if target >= start:
        return [target]
    schedule = []
    b = start
    while b > target * 1.000001:
        schedule.append(b)
        b *= factor
    schedule.append(target)
    return schedule


def _open_output(path):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", newline=""), True


def _emit_json(payload: dict, path):
    handle, owned = _open_output(path)
    try:
        handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    finally:
        if owned:
            handle.close()


# ---------------------------------------------------------------------------
# subcommands

def cmd_analyze(args) -> int:
    game = load_game(args.game)
    solve_info = None
    if args.solve:
        regs = _parse_regularizers(args.reg, game.shape)
        schedule = _beta_schedule(args.beta)
        cfg = SmoothedResponseConfig(beta=schedule[0], regularizers=regs)
        trace = homotopy_trace(game, cfg, schedule)
        final = trace[-1]
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
        "nash_gap": epsilon_nash_gap(game, point),
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

    grid_total = 1
    for k in game.shape:
        grid_total *= lattice_size(k, args.grid_resolution)
    if grid_total <= ORACLE_GRID_CAP:
        pareto = weak_pareto_oracle(game, point, args.grid_resolution)
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
    else:
        payload["weak_pareto"] = {
            "skipped": f"grid of {grid_total} points exceeds the "
                       f"{ORACLE_GRID_CAP} cap"}
    _emit_json(payload, args.output)
    return 0


def cmd_equilibrium(args) -> int:
    game = load_game(args.game)
    regs = _parse_regularizers(args.reg, game.shape)
    schedule = _parse_float_list(args.betas)
    x0 = _parse_point(args.x0, game.shape) if args.x0 else None
    cfg = SmoothedResponseConfig(beta=schedule[0], regularizers=regs)
    trace = homotopy_trace(game, cfg, schedule, x0, outer_tol=args.tol)
    handle, owned = _open_output(args.output)
    try:
        headers = [f"p{n}_{i}" for n, k in enumerate(game.shape)
                   for i in range(k)]
        handle.write(",".join(["beta"] + headers
                              + ["residual", "nash_gap"]) + "\n")
        for eq in trace:
            row = [format(eq.beta, ".17g")]
            row += [format(v, ".17g") for v in eq.point.concatenated()]
            row += [format(eq.residual, ".17g"),
                    format(eq.nash_gap, ".17g")]
            handle.write(",".join(row) + "\n")
    finally:
        if owned:
            handle.close()
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
        schedule = _beta_schedule(args.beta)
        cfg0 = SmoothedResponseConfig(beta=schedule[0], regularizers=regs)
        reference = homotopy_trace(game, cfg0, schedule)[-1]
    except ConvergenceError:
        if args.eta == "auto":
            raise
        print("note: smoothed equilibrium not found; distance column "
              "will be empty", file=sys.stderr)

    if args.eta == "auto":
        eta = eta_threshold(game, response_cfg, reference, rng_seed=args.seed)
        print(f"note: eta=auto resolved to {eta:.17g} "
              f"(L sampled on an inf-norm ball of radius 0.05)",
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
    handle, owned = _open_output(args.output)
    try:
        trajectory_to_csv(trajectory, handle, verdict)
    finally:
        if owned:
            handle.close()
    return 0


def cmd_sweep(args) -> int:
    game = load_game(args.game)
    regs = _parse_regularizers(args.reg, game.shape)
    betas = _parse_float_list(args.betas)
    etas = _parse_float_list(args.etas)
    x0 = (_parse_point(args.x0, game.shape) if args.x0
          else uniform_strategy(game.shape))
    cells = sweep(game, betas, etas, regs, x0=x0, horizon=args.horizon,
                  jobs=args.jobs)
    handle, owned = _open_output(args.output)
    try:
        sweep_to_csv(cells, handle)
    finally:
        if owned:
            handle.close()
    return 0


def cmd_probe_steepness(args) -> int:
    from .regularizers import linear_steepness_probe

    if args.spec == "entropy":
        reg = entropy(args.dim)
    else:
        try:
            data = json.loads(args.spec)
        except json.JSONDecodeError as err:
            raise ParseError(f"regularizer spec is not JSON: {err}") from err
        reg = regularizer_from_dict(data, dimension=args.dim
                                    if data.get("kind") == "entropy" else None)
    betas = _parse_float_list(args.betas)
    rng = np.random.default_rng(args.seed) if args.random_probe else None
    ratios = linear_steepness_probe(reg, args.index, args.eps, betas, rng=rng)
    handle, owned = _open_output(args.output)
    try:
        handle.write("beta,ratio,entropy_envelope\n")
        for beta, ratio in zip(betas, ratios):
            envelope = ""
            if reg.kind == "entropy":
                envelope = format(np.exp(-args.eps / beta) / beta, ".17g")
            handle.write(f"{format(beta, '.17g')},"
                         f"{format(ratio, '.17g')},{envelope}\n")
    finally:
        if owned:
            handle.close()
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
    p.add_argument("--jobs", type=int, default=1)
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
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
