"""Averaging dynamics driven by the smoothed response map.

One step moves x to (1 - eta) x + eta Phi(x); a batch of runs that a
step leaves unchanged bit for bit takes no further steps, since every
later step would return it too.  The module records trajectories and
contraction ratios against a reference equilibrium, classifies fixed
points by the linearized map (1 - eta) I + eta dPhi, checks the boundary
predictions at a quasi-strict equilibrium as beta shrinks, and sweeps
(beta, eta) grids the way the stability phase diagrams are produced, on
the beta ladder of ``response`` (:class:`response.Ladder`).
"""

from __future__ import annotations

import csv
import numbers
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from .errors import (ArgumentError, DimensionError, DomainError, GameError,
                     check_array, check_count, check_path, check_real,
                     check_sequence, check_type)
from .games import (JointStrategy, NormalFormGame, perturb_strategy,
                    quasi_strict_check, strategy_rows, uniform_strategy)
from .response import (FIXED_CHECK_STRIDE, FlatKernel, Ladder,
                       SmoothedEquilibrium, SmoothedResponseConfig,
                       homotopy_trace, response_jacobian)

SAMPLE_BALL_RADIUS = 0.05  # inf-norm radius for Lipschitz sampling
CLASSIFICATION_TOL = 1e-9
CLASSIFICATIONS = ("asymptotically_stable", "unstable", "marginal")
DISTANCE_CHUNK = 64  # states held back before their distances are taken


@dataclass(frozen=True)
class DynamicsConfig:
    """Learning rate, response map, horizon, and recording cadence."""

    eta: float
    response: SmoothedResponseConfig
    horizon: int
    record_every: int = 1

    def __post_init__(self):
        check_type("response", self.response, SmoothedResponseConfig)
        if check_real("eta", self.eta) >= 1:
            raise ArgumentError(f"eta must lie in (0, 1), got {self.eta}")
        check_count("horizon", self.horizon, positive=True)
        check_count("record_every", self.record_every, positive=True)


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
        d = check_array("trajectory distances", self.distances, (None,))
        if not d.size:
            raise DimensionError("trajectory distances must not be empty")
        out = np.full(len(d) - 1, np.nan)
        nonzero = d[:-1] > 0
        out[nonzero] = d[1:][nonzero] / d[:-1][nonzero]
        return out


def step(game: NormalFormGame, cfg: DynamicsConfig,
         x: JointStrategy) -> JointStrategy:
    """One averaging update, renormalized defensively against drift."""
    kernel = FlatKernel(game, check_type("cfg", cfg, DynamicsConfig).response)
    x_flat = kernel.flatten(x)[None, :]
    return kernel.strategy(kernel.advance(x_flat, cfg.eta)[0])


def run(game: NormalFormGame, cfg: DynamicsConfig, x0: JointStrategy,
        reference: SmoothedEquilibrium = None) -> Trajectory:
    """Iterate the dynamics for the configured horizon.

    The game, config and start are validated once; the steps run on flat
    vectors, and the recorded points are checked once, as one stack.
    """
    return run_many(game, cfg, (x0,), reference)[0]


def run_many(game: NormalFormGame, cfg: DynamicsConfig, X0,
             reference: SmoothedEquilibrium = None) -> tuple:
    """Iterate the dynamics from each JointStrategy in ``X0`` as one batch.

    Returns one Trajectory per start, in order.  Rows agree with separate
    :func:`run` calls up to rounding (matrix products round differently
    for different row counts).  Once a step returns the whole batch bit
    for bit, no further steps are taken; the fixed state is recorded for
    the rest of the horizon, so the result is the same as stepping on.
    """
    kernel = FlatKernel(game, check_type("cfg", cfg, DynamicsConfig).response)
    starts = [kernel.flatten(x, "x0") for x in check_sequence("X0", X0)]
    if not starts:
        raise ArgumentError("at least one start is required")
    ref = (kernel.flatten(_checked_equilibrium("reference", reference).point,
                          "reference") if reference is not None else None)
    return _orbits(kernel, cfg, np.stack(starts), ref)


def _orbits(kernel, cfg, X, ref):
    """Run every row of X under the dynamics config ``cfg``.

    ``ref`` is None or a flat reference point.  The recorded states and
    the final one become JointStrategy objects in one
    :func:`games.strategy_rows` call, which checks them as one stack and
    keeps one read-only copy that every point's blocks view.  Distances
    are taken DISTANCE_CHUNK states at a time.  Every FIXED_CHECK_STRIDE-th
    step compares its result with its input bit for bit (bytes, not values,
    so -0.0 against 0.0 does not count).  Once they agree, the batch is a
    fixed point of ``kernel.advance``: the step is deterministic in X, and
    a Newton argmax warm-started at its own solution returns it at its
    first residual check.  No more steps are taken: the strategies and
    distances of the rest of the horizon are those of the fixed batch.
    """
    horizon, every = cfg.horizon, cfg.record_every
    recorded = [X]
    pending = [X]
    distances = []
    fixed = 0  # the last steps of the horizon, which repeat X

    def take_distances():
        distances.append(np.linalg.norm(np.stack(pending) - ref, axis=2))
        pending.clear()

    for t in range(1, horizon + 1):
        new = kernel.advance(X, cfg.eta)
        if t % FIXED_CHECK_STRIDE == 0 and new.tobytes() == X.tobytes():
            fixed = horizon - t + 1
            break
        X = new
        if t % every == 0:
            recorded.append(X)
        if ref is not None:
            pending.append(X)
            if len(pending) == DISTANCE_CHUNK:
                take_distances()
    if ref is not None:
        if pending:
            take_distances()
        distances = [row + row[-1:] * fixed
                     for row in np.concatenate(distances).T.tolist()]
    # recorded steps among the fixed ones
    tail = horizon // every - (horizon - fixed) // every
    count = len(recorded)
    if recorded[-1] is not X:
        recorded.append(X)
    # rows t * B + i of one checked (T, B, K) stack, the final state last
    strategies = strategy_rows(recorded, kernel.game.shape)
    runs = len(X)
    trajectories = []
    for i in range(runs):
        orbit = strategies[i::runs]
        trajectories.append(Trajectory(
            config=cfg, points=orbit[:count] + orbit[-1:] * tail,
            final_point=orbit[-1],
            distances=tuple(distances[i]) if ref is not None else None))
    return tuple(trajectories)


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
    check_type("cfg", cfg, DynamicsConfig)
    _checked_equilibrium("eq", eq, check_type("game", game,
                                              NormalFormGame).shape)
    grad_phi = response_jacobian(game, cfg.response, eq.point, as_tangent=True)
    return _verdicts(grad_phi, (cfg.eta,), eq)[0]


def _checked_equilibrium(name, eq, shape=None) -> SmoothedEquilibrium:
    """eq, if it is a SmoothedEquilibrium whose point is a strategy (of
    ``shape``, if given), whose beta is positive and finite, and whose
    residual and Nash gap are finite and non-negative; else a GameError
    naming ``name``."""
    point = check_type(f"{name}.point", check_type(
        name, eq, SmoothedEquilibrium).point, JointStrategy)
    if shape is not None and point.shape != shape:
        raise DimensionError(f"{name}.point has shape {point.shape}, "
                             f"expected {shape}")
    check_real(f"{name}.beta", eq.beta)
    check_real(f"{name}.residual", eq.residual, positive=False)
    check_real(f"{name}.nash_gap", eq.nash_gap, positive=False)
    return eq


def _checked_verdict(name, verdict) -> StabilityVerdict:
    """verdict, if it is a StabilityVerdict whose spectral radius and
    operator norm are finite and non-negative and whose classification is
    one of CLASSIFICATIONS; else a GameError naming ``name``."""
    check_type(name, verdict, StabilityVerdict)
    check_real(f"{name}.jacobian_spectral_radius",
               verdict.jacobian_spectral_radius, positive=False)
    check_real(f"{name}.jacobian_operator_norm",
               verdict.jacobian_operator_norm, positive=False)
    label = verdict.classification
    if not (isinstance(label, str) and label in CLASSIFICATIONS):
        raise ArgumentError(f"{name}.classification must be one of "
                            f"{CLASSIFICATIONS}, got {label!r}")
    return verdict


def _verdicts(grad_phi, etas, eq) -> tuple:
    """Classify at each learning rate from the tangent response Jacobian
    dPhi at the equilibrium.  The update map (1 - eta) I + eta dPhi has
    the eigenvalues 1 - eta + eta mu over the spectrum mu of dPhi, which
    is taken once for every eta; the operator norm is taken per eta."""
    spectrum = np.linalg.eigvals(grad_phi)
    verdicts = []
    for eta in etas:
        radius = float(np.abs((1.0 - eta) + eta * spectrum).max(initial=0.0))
        if radius < 1.0 - CLASSIFICATION_TOL:
            label = "asymptotically_stable"
        elif radius > 1.0 + CLASSIFICATION_TOL:
            label = "unstable"
        else:
            label = "marginal"
        verdicts.append(StabilityVerdict(
            equilibrium=eq, jacobian_spectral_radius=radius,
            jacobian_operator_norm=_update_norm(grad_phi, eta),
            classification=label))
    return tuple(verdicts)


def _update_norm(grad_phi, eta) -> float:
    """Operator norm of the update map (1 - eta) I + eta dPhi."""
    if not grad_phi.size:
        return 0.0
    m = (1.0 - eta) * np.eye(grad_phi.shape[0]) + eta * grad_phi
    return float(np.linalg.norm(m, 2))


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
    kernel = FlatKernel(game, cfg)
    _checked_equilibrium("eq", eq, game.shape)
    check_count("num_samples", num_samples)
    check_count("rng_seed", rng_seed)
    check_real("radius", radius)
    rng = np.random.default_rng(rng_seed)
    points = [eq.point] + [perturb_strategy(eq.point, radius, rng)
                           for _ in range(num_samples)]
    X = np.stack([kernel.flatten(p) for p in points])
    lipschitz = max(_lipschitz(grad_phi, cfg.beta)
                    for grad_phi in kernel.tangent_jacobians(X))
    try:
        return float(cfg.beta ** 2 / (1.0 + lipschitz ** 2))
    except OverflowError as err:
        raise DomainError(f"the eta threshold overflows at beta="
                          f"{cfg.beta:g}, L={lipschitz:g}") from err


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

    # measure at the response images of the solved points: the fixed-point
    # iterate cannot resolve off-face mass below the solver tolerance,
    # while the response map's closed form carries the true asymptotics
    kernel = FlatKernel(game, cfg, beta=np.array([[eq.beta] for eq in trace]))
    X = np.stack([eq.point.concatenated() for eq in trace])
    jacobians = kernel.tangent_jacobians(X)
    # a Newton solve here starts from the Jacobians' responses to the same
    # points, so it stops at its first residual check
    refined = kernel.respond(X)
    rows = []
    for eq, grad_phi, y in zip(trace, jacobians, refined):
        eta = eq.beta ** 2 / (1.0 + 4.0 * _lipschitz(grad_phi, eq.beta) ** 2)
        op_norm = _update_norm(grad_phi, eta)
        bound = float(np.exp(-eta / 2.0))
        rows.append(BoundaryRow(
            beta=eq.beta, response_norm_bound=bound, operator_norm=op_norm,
            suppressed_ratio=_face_distance(kernel.strategy(y), supports)
            / eq.beta, eta=eta, norm_bound_holds=op_norm <= bound,
            residual=eq.residual))
    ratios = [row.suppressed_ratio for row in rows]
    return BoundaryReport(
        rows=tuple(rows),
        ratios_decreasing=not any(b > a for a, b in zip(ratios, ratios[1:])),
        all_norm_bounds_hold=all(row.norm_bound_holds for row in rows))


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


def sweep(game: NormalFormGame, betas, etas, regularizers, x0=None,
          horizon=2000, jobs=1, outer_tol=1e-10):
    """Equilibrium, verdict, and a finite run for every (beta, eta) cell.

    Every beta and every cell's dynamics config are checked first; a bad
    beta or eta is recorded as its cells' error, and the sweep continues
    with the others.  One :class:`Ladder` then solves the valid betas from
    the largest down, each warm-started at the last one solved, and runs
    every cell whose beta it has solved in the same batch as the next
    rung's walk: a beta's cells join at ``x0``, each row at its own beta
    and eta, and leave after ``horizon`` steps or once a step returns them
    bit for bit.  A row on which the batch's Newton argmax fails gets its
    own error and leaves the batch, so a failing run fails only its own
    cell, and the other rows step on.  A cell's ``final_distance`` is its
    run's distance to the cell's equilibrium.  The cells of a solved beta
    that ran then take their verdicts off one spectrum of the Jacobian
    :func:`stability_verdict` takes, so they equal its verdicts bit for
    bit; a GameError there is the beta's error.  ``jobs``, ``horizon``,
    ``outer_tol``, the regularizers and ``x0`` are checked before any
    solve; ``jobs`` has no other effect.  The returned grid is row-major
    in (betas, etas) as given.
    """
    check_count("jobs", jobs, positive=True)
    check_count("horizon", horizon, positive=True)
    check_real("outer_tol", outer_tol)
    betas = check_array("betas", betas, (None,), finite=False).tolist()
    etas = check_array("etas", etas, (None,), finite=False).tolist()
    if not betas or not etas:
        raise ArgumentError("betas and etas must be non-empty")
    kernel = FlatKernel(game, SmoothedResponseConfig(
        beta=1.0, regularizers=regularizers))
    if x0 is None:
        x0 = uniform_strategy(game.shape)
    start = kernel.flatten(x0, "x0")

    grid = [(beta, eta) for beta in betas for eta in etas]
    ladder = Ladder(kernel, start, outer_tol, horizon=horizon)
    # beta -> error of its check, solve or Jacobian, and cell index -> its
    # run's final distance or error, filled in here and by the ladder
    errors, outcomes = ladder.errors, ladder.outcomes
    rungs = {}  # valid beta -> (cell index, eta) of each valid cell
    for c, (beta, eta) in enumerate(grid):
        try:
            cells = rungs.setdefault(check_real("beta", beta), [])
        except GameError as err:
            errors[beta] = err
            continue
        try:
            cells.append((c, DynamicsConfig(eta, kernel.cfg, horizon).eta))
        except GameError as err:
            outcomes[c] = err
    ladder.run(sorted(rungs.items(), reverse=True))  # by decreasing beta
    solved = ladder.solved

    verdicts = {}  # cell index -> verdict of a cell that ran
    for beta, eq in solved.items():
        try:  # stability_verdict's Jacobian, taken once for the beta
            grad_phi = response_jacobian(game, replace(kernel.cfg, beta=beta),
                                         eq.point, as_tangent=True)
        except GameError as err:
            errors[beta] = err
            continue
        ran = [c for c, _ in rungs[beta] if isinstance(outcomes[c], float)]
        verdicts.update(zip(ran, _verdicts(
            grad_phi, [grid[c][1] for c in ran], eq)))
    cells = []
    for c, (beta, eta) in enumerate(grid):
        error = errors.get(beta)
        if error is None and not isinstance(outcomes[c], float):
            error = outcomes[c]
        cells.append(SweepCell(
            beta=beta, eta=eta, equilibrium=solved.get(beta),
            verdict=None if error else verdicts[c],
            final_distance=None if error else outcomes[c],
            error=error and f"{type(error).__name__}: {error}"))
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
    with (nullcontext(target) if hasattr(target, "write")
          else open(check_path("target", target), "w", newline="")) as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)


def trajectory_to_csv(trajectory: Trajectory, target,
                      verdict: StabilityVerdict = None):
    """Write recorded points with distances and the verdict, if available.

    ``target`` is a path or an open text handle (left open).
    """
    rec = check_type("trajectory config", check_type(
        "trajectory", trajectory, Trajectory).config,
        DynamicsConfig).record_every
    if verdict is not None:
        _checked_verdict("verdict", verdict)
    radius = verdict.jacobian_spectral_radius if verdict else None
    label = verdict.classification if verdict else None
    points = check_sequence("trajectory points", trajectory.points)
    shape = points[0].shape if points and isinstance(
        points[0], JointStrategy) else ()
    # one pass: the blocks of the points that are strategies of the first
    # one's shape, so any other point, or none, leaves too few
    blocks = [b for x in points
              if isinstance(x, JointStrategy) and x.shape == shape
              for b in x.blocks]
    if not blocks or len(blocks) != len(points) * len(shape):
        raise DimensionError("trajectory points must be strategies of one "
                             "shape")
    dists = trajectory.distances
    if dists is not None and len(check_sequence(
            "trajectory distances", dists)) <= (len(points) - 1) * rec:
        raise DimensionError("trajectory distances end before its points")
    # every point's entries as Python floats, from one (T, K) array
    table = np.concatenate(blocks).reshape(len(points), -1).tolist()
    write_csv(target,
              ["t"] + _block_headers(shape)
              + ["distance", "spectral_radius", "classification"],
              ([str(idx * rec), *row,
                dists[idx * rec] if dists is not None else None, radius, label]
               for idx, row in enumerate(table)))


def sweep_to_csv(cells, target):
    """Write one row per sweep cell; failed cells carry their error text.

    ``target`` is a path or an open text handle (left open).
    """
    cells = check_sequence("cells", cells)
    shape = None  # of the first equilibrium, which every other one shares
    for i, cell in enumerate(cells):
        name = f"cells[{i}]"
        _check_cell(name, cell)
        if cell.equilibrium is not None:
            shape = _checked_equilibrium(f"{name}.equilibrium",
                                         cell.equilibrium, shape).point.shape
        if cell.verdict is not None:
            _checked_verdict(f"{name}.verdict", cell.verdict)
        if cell.final_distance is not None:
            check_real(f"{name}.final_distance", cell.final_distance,
                       positive=False)
    headers = _block_headers(shape or ())
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


def _check_cell(name, cell):
    """A GameError naming ``name`` unless cell is a SweepCell with a real
    beta and eta and an error that is None or text.  A cell without an
    error needs both positive and finite; a failed cell may keep the bad
    value its error text is about."""
    check_type(name, cell, SweepCell)
    if cell.error is None:
        check_real(f"{name}.beta", cell.beta)
        check_real(f"{name}.eta", cell.eta)
        return
    check_type(f"{name}.error", cell.error, str)
    for field, value in (("beta", cell.beta), ("eta", cell.eta)):
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ArgumentError(f"{name}.{field} must be a real number, "
                                f"got {value!r}")


def trace_to_csv(trace, target):
    """Write one row per equilibrium of a homotopy trace: beta, the point,
    its residual and Nash gap.

    ``target`` is a path or an open text handle (left open).
    """
    trace = check_sequence("trace", trace)
    if not trace:
        raise ArgumentError("trace must not be empty")
    shape = None
    for i, eq in enumerate(trace):
        shape = _checked_equilibrium(f"trace[{i}]", eq, shape).point.shape
    write_csv(target,
              ["beta"] + _block_headers(shape)
              + ["residual", "nash_gap"],
              ([eq.beta, *eq.point.concatenated(), eq.residual, eq.nash_gap]
               for eq in trace))
