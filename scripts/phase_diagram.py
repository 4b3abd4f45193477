#!/usr/bin/env python3
"""Map the (beta, eta) phase diagram of the averaging dynamics for one game.

For every grid cell the smoothed equilibrium is located by warm-started
continuation, classified through the dynamics Jacobian, and run for a
finite horizon from the uniform point (``sweep``'s default ``x0``); the
cell's distance is where that run ends from its equilibrium.  The full grid
goes to CSV; a compact character map goes to stdout:

    $ python3 scripts/phase_diagram.py matching_pennies --out pennies.csv

    beta \\ eta   0.001   0.005   0.02    0.1
    0.3           +       +       +       -
    0.1           +       +       -       -
    ...

``+`` asymptotically stable, ``-`` unstable, ``~`` marginal, ``!`` solver
failure for that cell.
"""

import argparse
import sys

import numpy as np

import smoothgames as sg


MARKS = {"asymptotically_stable": "+", "unstable": "-", "marginal": "~"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("game", help="bundled game name or JSON path")
    parser.add_argument("--betas", default="0.5,0.3,0.1,0.05,0.02",
                        help="comma-separated smoothing levels")
    parser.add_argument("--etas", default="0.001,0.005,0.02,0.1,0.5",
                        help="comma-separated learning rates")
    parser.add_argument("--horizon", type=int, default=2000)
    parser.add_argument("--out", default=None, help="CSV output path")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    game = sg.load_game(args.game)
    betas = [float(v) for v in args.betas.split(",")]
    etas = [float(v) for v in args.etas.split(",")]
    regs = tuple(sg.entropy(k) for k in game.shape)

    cells = sg.sweep(game, betas, etas, regs, horizon=args.horizon)
    if args.out:
        sg.sweep_to_csv(cells, args.out)
        print(f"wrote {len(cells)} cells to {args.out}", file=sys.stderr)

    header = "beta \\ eta" + "".join(f"{eta:>9g}" for eta in etas)
    print(header)
    grid = np.array([MARKS.get(c.verdict.classification, "?")
                     if c.verdict else "!" for c in cells])
    grid = grid.reshape(len(betas), len(etas))
    for beta, row in zip(betas, grid):
        print(f"{beta:<10g}" + "".join(f"{mark:>9}" for mark in row))

    failures = [c for c in cells if c.error]
    if failures:
        print(f"\n{len(failures)} cells failed:", file=sys.stderr)
        for cell in failures:
            print(f"  beta={cell.beta:g} eta={cell.eta:g}: {cell.error}",
                  file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
