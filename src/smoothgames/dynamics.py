"""Averaging dynamics driven by the smoothed response map.

One step moves x to (1 - eta) x + eta Phi(x).  The module records
trajectories and contraction ratios against a reference equilibrium,
classifies fixed points by the linearized map (1 - eta) I + eta dPhi,
checks the boundary predictions at a quasi-strict equilibrium as beta
shrinks, and sweeps (beta, eta) grids the way the stability phase diagrams
are produced.
"""

from __future__ import annotations

import csv
import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import ArgumentError, DomainError, GameError, check_count
from .games import (JointStrategy, NormalFormGame, perturb_strategy,
                    quasi_strict_check, uniform_strategy)
from .response import (FlatKernel, SmoothedEquilibrium,
                       SmoothedResponseConfig, find_smoothed_equilibrium,
                       homotopy_trace, response_jacobian)

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
    return _lipschitz(response_jacobian(game, cfg, x, as_tangent=True),
                      cfg.beta)


def _lipschitz(grad_phi, beta) -> float:
    """Operator norm of H^+ J from the tangent response Jacobian."""
    if grad_phi.size == 0:
        return 0.0
    return float(beta * np.linalg.norm(grad_phi, 2))


def eta_threshold(game: NormalFormGame, cfg: SmoothedResponseConfig,
                  eq: SmoothedEquilibrium, num_samples=8, rng_seed=0,
                  radius=SAMPLE_BALL_RADIUS) -> float:
    """Learning-rate threshold beta^2 / (1 + L^2).

    L is the largest measured norm of H^+ J over the equilibrium and
    ``num_samples`` random points from the inf-norm ball of the given
    radius (clipped to the simplex), all evaluated as one kernel batch.
    The radius is an artifact of the measurement, not of the theory, so
    callers reporting the threshold should report the radius with it.
    """
    check_count("num_samples", num_samples)
    check_count("rng_seed", rng_seed)
    if not 0 < radius < np.inf:
        raise ArgumentError(
            f"radius must be positive and finite, got {radius!r}")
    rng = np.random.default_rng(rng_seed)
    kernel = FlatKernel(game, cfg)
    points = [eq.point] + [perturb_strategy(eq.point, radius, rng)
                           for _ in range(num_samples)]
    X = np.stack([kernel.flatten(p) for p in points])
    lipschitz = max(_lipschitz(grad_phi, cfg.beta)
                    for grad_phi in kernel.tangent_jacobians(X))
    return float(cfg.beta ** 2 / (1.0 + lipschitz ** 2))


# ---------------------------------------------------------------------------
# boundary convergence

@dataclass(frozen=True)
class BoundaryRow:
    beta: float
    suppressed_ratio: float
    response_norm_bound: float
    operator_norm: float
    eta: float
    norm_bound_holds: bool
    residual: float


@dataclass(frozen=True)
class BoundaryReport:
    rows: tuple
    ratios_decreasing: bool
    all_norm_bounds_hold: bool


def _face_distance(x: JointStrategy, supports) -> float:
    """Euclidean distance from x to the affine span of the support faces."""
    total = 0.0
    for b, s in zip(x.blocks, supports):
        s = np.asarray(s, dtype=int)
        outside = np.setdiff1d(np.arange(len(b)), s)
        mass = b[outside]
        total += float(mass @ mass) + mass.sum() ** 2 / len(s)
    return float(np.sqrt(total))


def boundary_convergence_check(game: NormalFormGame, regs, x_star: JointStrategy,
                               beta_schedule, outer_tol=1e-12) -> BoundaryReport:
    """Test the boundary predictions at a quasi-strict equilibrium.

    ``homotopy_trace`` solves the strictly decreasing ``beta_schedule`` from
    a 0.9/0.1 blend of x_star and the uniform point.  At each beta the
    off-support mass is compared to beta (it must shrink), and the operator
    norm of the dynamics Jacobian is checked against exp(-eta/2) with
    eta = beta^2 / (1 + 4 L^2).
    """
    check = quasi_strict_check(game, x_star)
    if check.status != "quasi_strict":
        raise DomainError(f"boundary check needs a quasi-strict point: "
                          f"{check.status}")
    supports = x_star.supports()
    blend = JointStrategy(tuple(
        0.9 * b + 0.1 * np.full(len(b), 1.0 / len(b)) for b in x_star.blocks))
    # a placeholder beta: the trace validates the schedule and solves at
    # each of its betas in turn
    cfg = SmoothedResponseConfig(beta=1.0, regularizers=regs)
    trace = homotopy_trace(game, cfg, beta_schedule, blend,
                           outer_tol=outer_tol, max_iter=200_000)

    rows = []
    prev_ratio = np.inf
    decreasing = True
    all_hold = True
    for eq in trace:
        beta = eq.beta
        # measure at the response image of the solved point: the fixed-point
        # iterate cannot resolve off-face mass below the solver tolerance,
        # while the response map's closed form carries the true asymptotics
        kernel = FlatKernel(game, replace(cfg, beta=beta))
        x = kernel.flatten(eq.point)[None, :]
        grad_phi = kernel.tangent_jacobians(x)[0]
        # a Newton solve here starts from the Jacobian's response to the
        # same point, so it stops at its first residual check
        refined = kernel.strategy(kernel.respond(x)[0])
        ratio = _face_distance(refined, supports) / beta
        if ratio > prev_ratio:
            decreasing = False
        prev_ratio = ratio
        lip = _lipschitz(grad_phi, beta)
        eta = beta ** 2 / (1.0 + 4.0 * lip ** 2)
        op_norm = _verdict(grad_phi, eta, eq).jacobian_operator_norm
        bound = float(np.exp(-eta / 2.0))
        holds = op_norm <= bound
        all_hold = all_hold and holds
        rows.append(BoundaryRow(beta=beta, suppressed_ratio=ratio,
                                response_norm_bound=bound,
                                operator_norm=op_norm, eta=eta,
                                norm_bound_holds=holds, residual=eq.residual))
    return BoundaryReport(rows=tuple(rows), ratios_decreasing=decreasing,
                          all_norm_bounds_hold=all_hold)


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
    # the equilibrium solve has already checked the config and x0
    kernel = FlatKernel(game, response_cfg)
    try:
        grad_phi = kernel.tangent_jacobians(
            kernel.flatten(eq.point)[None, :])[0]
    except GameError as err:
        for i, cfg in live:
            cells[i] = failed(cfg.eta, err)
        return cells
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

def _cell(value) -> str:
    """CSV text of one cell: a number to 17 significant digits, None as an
    empty cell, text as it is."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return format(float(value), ".17g")


def _block_headers(shape) -> list:
    return [f"p{n}_{i}" for n, k in enumerate(shape) for i in range(k)]


def write_csv(target, header, rows):
    """Write a header and rows of cells through one ``csv.writer``, lines
    ending in CRLF; numbers get 17 significant digits and None an empty
    cell.  ``target`` is a path or an open text handle (left open)."""
    if hasattr(target, "write"):
        _write_rows(target, header, rows)
    else:
        with open(target, "w", newline="") as handle:
            _write_rows(handle, header, rows)


def _write_rows(handle, header, rows):
    writer = csv.writer(handle)
    writer.writerow(header)
    writer.writerows([_cell(v) for v in row] for row in rows)


def trajectory_to_csv(trajectory: Trajectory, target,
                      verdict: StabilityVerdict = None):
    """Write recorded points with distances and the verdict, if available.

    ``target`` is a path or an open text handle (left open).
    """
    rec = trajectory.config.record_every
    dists = trajectory.distances
    radius = verdict.jacobian_spectral_radius if verdict else None
    label = verdict.classification if verdict else None
    write_csv(target,
              ["t"] + _block_headers(trajectory.points[0].shape)
              + ["distance", "spectral_radius", "classification"],
              ([str(idx * rec), *point.concatenated(),
                dists[idx * rec] if dists is not None else None, radius, label]
               for idx, point in enumerate(trajectory.points)))


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
    write_csv(target,
              ["beta", "eta"] + headers
              + ["distance", "spectral_radius", "classification", "error"],
              ([cell.beta, cell.eta]
               + (list(cell.equilibrium.point.concatenated())
                  if cell.equilibrium is not None else [None] * len(headers))
               + [cell.final_distance,
                  cell.verdict.jacobian_spectral_radius
                  if cell.verdict else None,
                  cell.verdict.classification if cell.verdict else None,
                  cell.error]
               for cell in cells))


def trace_to_csv(trace, target):
    """Write one row per equilibrium of a homotopy trace: beta, the point,
    its residual and Nash gap.

    ``target`` is a path or an open text handle (left open).
    """
    write_csv(target,
              ["beta"] + _block_headers(trace[0].point.shape)
              + ["residual", "nash_gap"],
              ([eq.beta, *eq.point.concatenated(), eq.residual, eq.nash_gap]
               for eq in trace))
