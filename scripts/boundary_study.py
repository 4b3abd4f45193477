#!/usr/bin/env python3
"""Track smoothed equilibria toward a boundary equilibrium as beta shrinks.

The demo game glues matching pennies onto a strictly dominated third column,
so the exact equilibrium mixes on a face of the simplex.  For each beta the
script reports how much probability the smoothed equilibrium leaves outside
the face (scaled by beta) and whether the damped dynamics still contract at
the rate the operator-norm bound promises:

    $ python3 scripts/boundary_study.py --betas 0.3,0.1,0.03,0.01

Passing --game switches to any game with a known quasi-strict equilibrium;
the point is then taken from --x-star.
"""

import argparse
import sys

import numpy as np

import smoothgames as sg
from smoothgames.dynamics import boundary_convergence_check


def default_game():
    t1 = np.array([[1.0, -1.0, 3.0], [-1.0, 1.0, 3.0]])
    game = sg.NormalFormGame((t1, -t1.copy()), name="pennies+dominated")
    x_star = sg.JointStrategy((np.array([0.5, 0.5]),
                               np.array([0.5, 0.5, 0.0])))
    return game, x_star


def parse_point(spec):
    blocks = tuple(np.array([float(v) for v in part.split(",")])
                   for part in spec.split(";"))
    return sg.JointStrategy(blocks)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--game", default=None,
                        help="bundled name or JSON path (default: built-in "
                             "pennies+dominated demo)")
    parser.add_argument("--x-star", dest="x_star", default=None,
                        help="quasi-strict point as '0.5,0.5;0.5,0.5,0'")
    parser.add_argument("--betas", default="0.3,0.1,0.03,0.01")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.game is None:
        game, x_star = default_game()
    else:
        game = sg.load_game(args.game)
        if args.x_star is None:
            print("error: --x-star is required with --game", file=sys.stderr)
            return 2
        x_star = parse_point(args.x_star)

    betas = [float(v) for v in args.betas.split(",")]
    regs = tuple(sg.entropy(k) for k in game.shape)
    report = boundary_convergence_check(game, regs, x_star, betas)

    print(f"game: {game.name or args.game}   shape: {game.shape}")
    print(f"{'beta':>8} {'off-face/beta':>14} {'op norm':>12} "
          f"{'exp(-eta/2)':>12} {'eta':>10} {'holds':>6}")
    for row in report.rows:
        print(f"{row.beta:>8g} {row.suppressed_ratio:>14.3e} "
              f"{row.operator_norm:>12.8f} {row.response_norm_bound:>12.8f} "
              f"{row.eta:>10.2e} {str(row.norm_bound_holds):>6}")
    print(f"off-face mass ratio decreasing: {report.ratios_decreasing}")
    print(f"all operator-norm bounds hold:  {report.all_norm_bounds_hold}")
    return 0 if (report.ratios_decreasing
                 and report.all_norm_bounds_hold) else 1


if __name__ == "__main__":
    sys.exit(main())
