"""Averaging dynamics driven by the smoothed response map.

One step moves x to (1 - eta) x + eta Phi(x).  The module records
trajectories and contraction ratios against a reference equilibrium,
classifies fixed points by the linearized map (1 - eta) I + eta dPhi, and
sweeps (beta, eta) grids the way the stability phase diagrams are produced.
"""

from __future__ import annotations

import contextlib
import csv
import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, GameError
from .games import JointStrategy, NormalFormGame, uniform_strategy
from .response import (FlatKernel, SmoothedEquilibrium,
                       SmoothedResponseConfig, find_smoothed_equilibrium,
                       response_jacobian)
from .stability import perturb_strategy

SAMPLE_BALL_RADIUS = 0.05  # inf-norm radius for Lipschitz sampling
CLASSIFICATION_TOL = 1e-9
DISTANCE_CHUNK = 64  # states held back before their distances are taken


@dataclass(frozen=True)
class DynamicsConfig:
    """Learning rate, response map, horizon, and recording cadence."""

    eta: float
    response: SmoothedResponseConfig
    horizon: int
    record_every: int = 1

    def __post_init__(self):
        if not 0 < self.eta < 1:
            raise ArgumentError(f"eta must lie in (0, 1), got {self.eta}")
        for name in ("horizon", "record_every"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ArgumentError(
                    f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.horizon < 1:
            raise ArgumentError("horizon must be at least 1")
        if self.record_every < 1:
            raise ArgumentError("record_every must be at least 1")


@dataclass(frozen=True)
class Trajectory:
    """Recorded orbit of the averaging dynamics.

    ``points`` holds x(t) for t = 0, record_every, 2*record_every, ...;
    ``final_point`` is x(horizon) regardless of cadence.  ``distances``
    holds ``|x(t) - ref|`` for every step when a reference was supplied.
    """

    config: DynamicsConfig
    points: tuple
    final_point: JointStrategy
    distances: tuple = None

    def ratios(self) -> np.ndarray:
        """Per-step contraction factors; nan where the orbit has arrived."""
        if self.distances is None:
            raise ArgumentError("trajectory was run without a reference")
        d = np.asarray(self.distances)
        out = np.full(len(d) - 1, np.nan)
        nonzero = d[:-1] > 0
        out[nonzero] = d[1:][nonzero] / d[:-1][nonzero]
        return out


def step(game: NormalFormGame, cfg: DynamicsConfig,
         x: JointStrategy) -> JointStrategy:
    """One averaging update, renormalized defensively against drift."""
    kernel = FlatKernel(game, cfg.response)
    x_flat = kernel.flatten(x)[None, :]
    return kernel.strategy(kernel.advance(x_flat, np.full((1, 1), cfg.eta))[0])


def run(game: NormalFormGame, cfg: DynamicsConfig, x0: JointStrategy,
        reference: SmoothedEquilibrium = None) -> Trajectory:
    """Iterate the dynamics for the configured horizon.

    The game, config and start are validated once; the steps run on flat
    vectors, and only recorded points become JointStrategy objects.
    """
    return run_many(game, cfg, (x0,), reference)[0]


def run_many(game: NormalFormGame, cfg: DynamicsConfig, X0,
             reference: SmoothedEquilibrium = None) -> tuple:
    """Iterate the dynamics from each JointStrategy in ``X0`` as one batch.

    Returns one Trajectory per start, in order.  Rows agree with separate
    :func:`run` calls up to rounding (matrix products round differently
    for different row counts).
    """
    kernel = FlatKernel(game, cfg.response)
    starts = [kernel.flatten(x, "x0") for x in X0]
    if not starts:
        raise ArgumentError("at least one start is required")
    return _orbits(kernel, [cfg] * len(starts), np.stack(starts), reference)


def _orbits(kernel, configs, X, reference):
    """Run row i of X under configs[i]; all share horizon and cadence.

    Points become JointStrategy objects only where they are recorded.
    Distances are taken DISTANCE_CHUNK states at a time.
    """
    horizon, every = configs[0].horizon, configs[0].record_every
    eta = np.array([[c.eta] for c in configs])
    ref = (kernel.flatten(reference.point, "reference")
           if reference is not None else None)
    recorded = [X]
    pending = [X]
    distances = []

    def take_distances():
        distances.append(np.linalg.norm(np.stack(pending) - ref, axis=2))
        pending.clear()

    for t in range(1, horizon + 1):
        X = kernel.advance(X, eta)
        if t % every == 0:
            recorded.append(X)
        if ref is not None:
            pending.append(X)
            if len(pending) == DISTANCE_CHUNK:
                take_distances()
    if ref is not None:
        if pending:
            take_distances()
        distances = np.concatenate(distances).T.tolist()
    return tuple(
        Trajectory(config=cfg,
                   points=tuple(kernel.strategy(R[i]) for R in recorded),
                   final_point=kernel.strategy(X[i]),
                   distances=tuple(distances[i]) if ref is not None else None)
        for i, cfg in enumerate(configs))


# ---------------------------------------------------------------------------
# linearized classification

@dataclass(frozen=True)
class StabilityVerdict:
    equilibrium: SmoothedEquilibrium
    jacobian_spectral_radius: float
    jacobian_operator_norm: float
    classification: str  # asymptotically_stable | unstable | marginal


def stability_verdict(game: NormalFormGame, cfg: DynamicsConfig,
                      eq: SmoothedEquilibrium) -> StabilityVerdict:
    """Classify a smoothed equilibrium by the linearized update map.

    The Jacobian (1 - eta) I + eta dPhi is reduced to tangent coordinates
    first; the ambient matrix carries spurious (1 - eta) directions along
    the simplex normals that would pollute both the radius and the norm.
    """
    grad_phi = response_jacobian(game, cfg.response, eq.point, as_tangent=True)
    return _verdict(grad_phi, cfg.eta, eq)


def _verdict(grad_phi, eta, eq) -> StabilityVerdict:
    """Classify from the tangent response Jacobian at the equilibrium."""
    m = (1.0 - eta) * np.eye(grad_phi.shape[0]) + eta * grad_phi
    radius = float(np.abs(np.linalg.eigvals(m)).max(initial=0.0))
    op_norm = float(np.linalg.norm(m, 2)) if m.size else 0.0
    if radius < 1.0 - CLASSIFICATION_TOL:
        label = "asymptotically_stable"
    elif radius > 1.0 + CLASSIFICATION_TOL:
        label = "unstable"
    else:
        label = "marginal"
    return StabilityVerdict(equilibrium=eq, jacobian_spectral_radius=radius,
                            jacobian_operator_norm=op_norm,
                            classification=label)


def measure_response_lipschitz(game: NormalFormGame,
                               cfg: SmoothedResponseConfig,
                               x: JointStrategy) -> float:
    """Operator norm of H^+ J at one point (beta times the response slope)."""
    grad_phi = response_jacobian(game, cfg, x, as_tangent=True)
    if grad_phi.size == 0:
        return 0.0
    return float(cfg.beta * np.linalg.norm(grad_phi, 2))


def eta_threshold(game: NormalFormGame, cfg: SmoothedResponseConfig,
                  eq: SmoothedEquilibrium, num_samples=8, rng_seed=0,
                  radius=SAMPLE_BALL_RADIUS) -> float:
    """Learning-rate threshold beta^2 / (1 + L^2).

    L is the largest measured norm of H^+ J over the equilibrium and
    ``num_samples`` random points from the inf-norm ball of the given
    radius (clipped to the simplex).  The radius is an artifact of the
    measurement, not of the theory, so callers reporting the threshold
    should report the radius with it.
    """
    rng = np.random.default_rng(rng_seed)
    lipschitz = measure_response_lipschitz(game, cfg, eq.point)
    for _ in range(num_samples):
        point = perturb_strategy(eq.point, radius, rng)
        lipschitz = max(lipschitz, measure_response_lipschitz(game, cfg, point))
    return float(cfg.beta ** 2 / (1.0 + lipschitz ** 2))


# ---------------------------------------------------------------------------
# parameter sweeps

@dataclass(frozen=True)
class SweepCell:
    beta: float
    eta: float
    equilibrium: SmoothedEquilibrium = None
    verdict: StabilityVerdict = None
    final_distance: float = None
    error: str = None


def _sweep_beta(task):
    """Every eta cell of one beta; their runs go through the kernel as one
    batch, so a cell's result does not depend on how betas are scheduled."""
    game, response_cfg, etas, x0, horizon, eq = task

    def failed(eta, err):
        return SweepCell(beta=response_cfg.beta, eta=eta, equilibrium=eq,
                         error=f"{type(err).__name__}: {err}")

    cells = [None] * len(etas)
    live = []
    for i, eta in enumerate(etas):
        try:
            live.append((i, DynamicsConfig(eta=eta, response=response_cfg,
                                           horizon=horizon,
                                           record_every=max(1, horizon))))
        except GameError as err:
            cells[i] = failed(eta, err)
    if not live:
        return cells
    try:
        grad_phi = response_jacobian(game, response_cfg, eq.point,
                                     as_tangent=True)
    except GameError as err:
        for i, cfg in live:
            cells[i] = failed(cfg.eta, err)
        return cells
    # the equilibrium solve has already checked the config and x0
    kernel = FlatKernel(game, response_cfg)
    start = kernel.flatten(x0)
    configs = [cfg for _, cfg in live]
    try:
        outcomes = _orbits(kernel, configs,
                           np.tile(start, (len(configs), 1)), eq)
    except GameError:
        # one failing row must not fail the others: rerun rows alone
        outcomes = []
        for cfg in configs:
            try:
                outcomes.append(_orbits(kernel, [cfg], start[None, :], eq)[0])
            except GameError as err:
                outcomes.append(err)
    for (i, cfg), outcome in zip(live, outcomes):
        if isinstance(outcome, GameError):
            cells[i] = failed(cfg.eta, outcome)
        else:
            cells[i] = SweepCell(beta=cfg.response.beta, eta=cfg.eta,
                                 equilibrium=eq,
                                 verdict=_verdict(grad_phi, cfg.eta, eq),
                                 final_distance=outcome.distances[-1])
    return cells


def sweep(game: NormalFormGame, betas, etas, regularizers, x0=None,
          horizon=2000, jobs=1, outer_tol=1e-10):
    """Equilibrium, verdict, and a finite run for every (beta, eta) cell.

    Equilibria are located once per beta by warm-started continuation from
    the largest beta downward.  The runs of all eta cells of one beta then
    go through the dynamics kernel as one batch; with ``jobs`` > 1 whole
    betas are spread over worker processes, so results do not depend on
    ``jobs``.  Cell errors are recorded in the cell, and the sweep
    continues.  The returned grid is row-major in (betas, etas) as given,
    independent of scheduling.
    """
    betas = [float(b) for b in betas]
    etas = [float(e) for e in etas]
    if not betas or not etas:
        raise ArgumentError("betas and etas must be non-empty")
    if x0 is None:
        x0 = uniform_strategy(game.shape)

    solved = {}
    errors = {}
    warm = x0
    for beta in sorted(set(betas), reverse=True):
        try:
            cfg = SmoothedResponseConfig(beta=beta, regularizers=regularizers)
            eq = find_smoothed_equilibrium(game, cfg, warm,
                                           outer_tol=outer_tol)
            solved[beta] = (cfg, eq)
            warm = eq.point
        except GameError as err:
            errors[beta] = f"{type(err).__name__}: {err}"

    tasks = [(game, solved[beta][0], etas, x0, horizon, solved[beta][1])
             for beta in betas if beta not in errors]
    if jobs > 1 and tasks:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            computed = iter(list(pool.map(_sweep_beta, tasks)))
    else:
        computed = map(_sweep_beta, tasks)

    cells = []
    for beta in betas:
        if beta in errors:
            cells.extend(SweepCell(beta=beta, eta=eta, error=errors[beta])
                         for eta in etas)
        else:
            cells.extend(next(computed))
    return tuple(cells)


# ---------------------------------------------------------------------------
# CSV export

def _fmt(value) -> str:
    if value is None:
        return ""
    return format(float(value), ".17g")


def _block_headers(shape) -> list:
    return [f"p{n}_{i}" for n, k in enumerate(shape) for i in range(k)]


@contextlib.contextmanager
def _text_output(target):
    """An open text handle as is, or a path opened for CSV writing."""
    if hasattr(target, "write"):
        yield target
    else:
        with open(target, "w", newline="") as handle:
            yield handle


def trajectory_to_csv(trajectory: Trajectory, target,
                      verdict: StabilityVerdict = None):
    """Write recorded points with distances and the verdict, if available.

    ``target`` is a path or an open text handle (left open).
    """
    shape = trajectory.points[0].shape
    rec = trajectory.config.record_every
    with _text_output(target) as handle:
        writer = csv.writer(handle)
        writer.writerow(["t"] + _block_headers(shape)
                        + ["distance", "spectral_radius", "classification"])
        for idx, point in enumerate(trajectory.points):
            t = idx * rec
            dist = (trajectory.distances[t]
                    if trajectory.distances is not None else None)
            writer.writerow(
                [str(t)] + [_fmt(p) for p in point.concatenated()]
                + [_fmt(dist),
                   _fmt(verdict.jacobian_spectral_radius) if verdict else "",
                   verdict.classification if verdict else ""])


def sweep_to_csv(cells, target):
    """Write one row per sweep cell; failed cells carry their error text.

    ``target`` is a path or an open text handle (left open).
    """
    shape = None
    for cell in cells:
        if cell.equilibrium is not None:
            shape = cell.equilibrium.point.shape
            break
    headers = _block_headers(shape) if shape is not None else []
    with _text_output(target) as handle:
        writer = csv.writer(handle)
        writer.writerow(["beta", "eta"] + headers
                        + ["distance", "spectral_radius", "classification",
                           "error"])
        for cell in cells:
            probs = ([_fmt(p) for p in cell.equilibrium.point.concatenated()]
                     if cell.equilibrium is not None else [""] * len(headers))
            writer.writerow(
                [_fmt(cell.beta), _fmt(cell.eta)] + probs
                + [_fmt(cell.final_distance),
                   _fmt(cell.verdict.jacobian_spectral_radius)
                   if cell.verdict else "",
                   cell.verdict.classification if cell.verdict else "",
                   cell.error or ""])
