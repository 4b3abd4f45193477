"""Averaging dynamics driven by the smoothed response map.

One step moves x to (1 - eta) x + eta Phi(x); a batch of runs that a
step leaves unchanged bit for bit takes no further steps, since every
later step would return it too.  The module records trajectories and
contraction ratios against a reference equilibrium, classifies fixed
points by the linearized map (1 - eta) I + eta dPhi, checks the boundary
predictions at a quasi-strict equilibrium as beta shrinks, and sweeps
(beta, eta) grids the way the stability phase diagrams are produced.
"""

from __future__ import annotations

import csv
from contextlib import nullcontext
from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np

from .errors import (ArgumentError, DomainError, GameError, check_array,
                     check_count, check_path, check_real, check_sequence,
                     check_type)
from .games import (JointStrategy, NormalFormGame, perturb_strategy,
                    quasi_strict_check, uniform_strategy)
from .response import (DampedWalk, FlatKernel, SmoothedEquilibrium,
                       SmoothedResponseConfig, find_smoothed_equilibrium,
                       homotopy_trace, response_jacobian)

SAMPLE_BALL_RADIUS = 0.05  # inf-norm radius for Lipschitz sampling
CLASSIFICATION_TOL = 1e-9
DISTANCE_CHUNK = 64  # states held back before their distances are taken
FIXED_CHECK_STRIDE = 8  # steps between tests for an unchanged batch


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
        d = np.asarray(self.distances)
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
    vectors, and only recorded points become JointStrategy objects.
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
    ref = (kernel.flatten(check_type("reference", reference,
                                     SmoothedEquilibrium).point, "reference")
           if reference is not None else None)
    return _orbits(kernel, cfg, np.stack(starts), ref)


def _states(kernel, cfg, X):
    """Yield the batch X after each of the horizon's steps under the
    dynamics config ``cfg``.

    Every FIXED_CHECK_STRIDE-th step compares its result with its input
    bit for bit.  Once they agree, the batch is a fixed point of
    ``kernel.advance``: the step is deterministic in X, and a Newton
    argmax warm-started at its own solution returns it at its first
    residual check.  The same array is then yielded for the remaining
    steps without stepping.  Comparing bytes, not values, keeps -0.0
    against 0.0 from counting as fixed.
    """
    horizon = cfg.horizon
    for t in range(1, horizon + 1):
        new = kernel.advance(X, cfg.eta)
        if t % FIXED_CHECK_STRIDE == 0 and new.tobytes() == X.tobytes():
            yield from repeat(X, horizon - t + 1)
            return
        X = new
        yield X


def _orbits(kernel, cfg, X, ref):
    """Run every row of X under the dynamics config ``cfg``.

    ``ref`` is None or a flat reference point.  Points become
    JointStrategy objects only where they are recorded.  Distances are
    taken DISTANCE_CHUNK states at a time.  Once ``_states`` repeats a
    fixed batch, no more per-step work is done: its strategies and its
    distances are those of the step that reached it, repeated.
    """
    horizon, every = cfg.horizon, cfg.record_every
    recorded = [X]
    pending = [X]
    distances = []
    fixed = 0  # the last steps of the horizon, which repeat X

    def take_distances():
        distances.append(np.linalg.norm(np.stack(pending) - ref, axis=2))
        pending.clear()

    for t, state in enumerate(_states(kernel, cfg, X), 1):
        if state is X:
            fixed = horizon - t + 1
            break
        X = state
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
    finals = [kernel.strategy(row) for row in X]
    return tuple(
        Trajectory(config=cfg,
                   points=tuple(finals[i] if R is X else kernel.strategy(R[i])
                                for R in recorded) + (finals[i],) * tail,
                   final_point=finals[i],
                   distances=tuple(distances[i]) if ref is not None else None)
        for i in range(len(X)))


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
    check_type("eq", eq, SmoothedEquilibrium)
    grad_phi = response_jacobian(game, cfg.response, eq.point, as_tangent=True)
    return _verdicts(grad_phi, (cfg.eta,), eq)[0]


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
    check_type("eq", eq, SmoothedEquilibrium)
    check_count("num_samples", num_samples)
    check_count("rng_seed", rng_seed)
    check_real("radius", radius)
    rng = np.random.default_rng(rng_seed)
    kernel = FlatKernel(game, cfg)
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


def _by_rows(batch, rows):
    """``batch(rows)`` or, if that raises, the outcomes of each row alone;
    a row that fails alone gives its error text instead."""
    try:
        return list(batch(rows))
    except GameError as err:
        if len(rows) == 1:
            return [_error_text(err)]
        # one failing row must not fail the others
        return [out for row in rows for out in _by_rows(batch, [row])]


def _error_text(err) -> str:
    return f"{type(err).__name__}: {err}"


class _Group:
    """The runs of a solved beta's cells in a sweep's ladder batch.

    ``rows`` holds (cell index, dynamics config) pairs and ``ref`` the
    flat equilibrium.  ``span`` is the group's rows of the batch, and None
    until it is in one; ``age`` counts the steps taken since they joined
    it at the sweep's start.
    """

    def __init__(self, rows, ref):
        self.rows = rows
        self.ref = ref
        self.span = None
        self.age = 0


class _Ladder:
    """The equilibria of a sweep's betas, solved by the damped walk from
    the largest beta down, each warm-started at the last one solved, and
    the runs of the solved betas' cells, all stepped as one batch.

    Row 0 of the batch is the current rung's walk (a :class:`DampedWalk`),
    the others the cells of betas already solved.  Each step is one
    :meth:`FlatKernel.respond` for every row; the walk reads its residual
    and eta off its own row, and one :meth:`FlatKernel.mix` at an eta
    column moves all rows.  A beta whose walk converges has all its cells
    join the batch at the start, as one group, when the batch is rebuilt
    for the next rung's walk, which starts from its equilibrium; a beta
    whose walk fails runs no cells.  The batch has no row cap: it holds
    the walk's row and every running cell.  A group leaves after
    ``horizon`` steps, or once a FIXED_CHECK_STRIDE-th step of its own
    returns it bit for bit (see :func:`_states`).  The kernel is built
    afresh only when rows join or leave.

    A :class:`GameError` from the shared respond or mix falls back to
    isolation: the current rung is solved alone by
    :func:`find_smoothed_equilibrium` from its warm start, and each cell
    in the batch is rerun alone, a failing run giving its error text.
    """

    def __init__(self, game, base, start, horizon, outer_tol):
        self.game = game
        self.base = base  # a kernel of the game, for configs and strategies
        self.start = start
        self.horizon = horizon
        self.outer_tol = outer_tol
        self.solved = {}  # beta -> (response config, equilibrium)
        self.errors = {}  # beta -> error text of its solve
        self.outcomes = {}  # cell index -> final distance or error text
        self.groups = []
        self.warm = start[None, :]  # the (1, K) start of the next walk

    def run(self, rungs):
        """Solve every (beta, response config, cell rows) rung, in order of
        decreasing beta, the first from the start, and run the cells of
        each beta solved."""
        rungs = iter(rungs)
        rung = self._next_rung(rungs)  # (beta, config, rows, walk)
        x = self.warm  # the walk's row
        X = kernel = None
        while rung is not None or self.groups:
            if kernel is None:  # rows joined or left
                kernel, X, eta = self._batch(rung, x, X)
            out = None  # the walk's eta, equilibrium or error
            try:
                Y = kernel.respond(X)
                if rung is not None:
                    try:
                        out = rung[3].step(X[:1], Y[:1])
                    except GameError as err:
                        out = err
                    if type(out) is float:
                        eta[0, 0] = out
                new = kernel.mix(X, Y, eta)
            except GameError:
                # a shared call failed: nothing it returned is used
                for g in self.groups:
                    self.outcomes.update((c, self._alone(dyn, g.ref))
                                         for c, dyn in g.rows)
                self.groups = []
                kernel = None
                if rung is not None:
                    try:
                        out = find_smoothed_equilibrium(
                            self.game, rung[1],
                            self.base.strategy(self.warm[0]),
                            outer_tol=self.outer_tol)
                    except GameError as err:
                        out = err
            else:
                if self._age(X, new):
                    kernel = None
                X = new
            if rung is None:
                continue
            if type(out) is float:
                x = X[:1]
            else:
                self._finish(*rung[:3], out)
                rung = self._next_rung(rungs)
                x = self.warm
                kernel = None

    def _next_rung(self, rungs):
        """The next rung with a walk from the warm start, or None."""
        rung = next(rungs, None)
        return None if rung is None else (
            *rung, DampedWalk(self.base, rung[0], self.warm, self.outer_tol))

    def _batch(self, rung, x, X):
        """A kernel, the batch and its eta column: the walk's row x, if a
        rung is being solved, then each group's rows, taken from X, the
        last batch, or at the start for a group that joins now; each
        group's span is set."""
        states, betas, etas = [], [], []
        if rung is not None:
            states.append(x)
            betas.append(rung[0])
            etas.append(1.0)  # the walk sets its own
        for g in self.groups:
            states.append(np.tile(self.start, (len(g.rows), 1))
                          if g.span is None else X[g.span])
            g.span = slice(len(betas), len(betas) + len(g.rows))
            betas += [dyn.response.beta for _, dyn in g.rows]
            etas += [dyn.eta for _, dyn in g.rows]
        kernel = FlatKernel(self.game, self.base.cfg,
                            beta=np.array(betas)[:, None])
        return kernel, np.concatenate(states), np.array(etas)[:, None]

    def _finish(self, beta, cfg, rows, out):
        """Record a rung's equilibrium or error; a solved beta's cells, if
        it has any, become a group that joins at the next rebuild."""
        if not isinstance(out, SmoothedEquilibrium):
            self.errors[beta] = _error_text(out)
            return
        self.solved[beta] = (cfg, out)
        self.warm = out.point.concatenated()[None, :]
        if rows:
            self.groups.append(_Group(rows, self.warm[0]))

    def _age(self, X, new) -> bool:
        """Count the step X -> new for every group; returns whether one
        left, recording its final distances."""
        kept = []
        for g in self.groups:
            g.age += 1
            if g.age == self.horizon or (
                    g.age % FIXED_CHECK_STRIDE == 0
                    and new[g.span].tobytes() == X[g.span].tobytes()):
                self.outcomes.update(zip(
                    (c for c, _ in g.rows),
                    np.linalg.norm(new[g.span] - g.ref, axis=1).tolist()))
            else:
                kept.append(g)
        left = len(kept) < len(self.groups)
        self.groups = kept
        return left

    def _alone(self, dyn, ref):
        """The final distance of one cell's run from the start in a batch
        of its own, or its error text."""
        try:
            for X in _states(FlatKernel(self.game, dyn.response), dyn,
                             self.start[None, :]):
                pass
        except GameError as err:
            return _error_text(err)
        return np.linalg.norm(X - ref, axis=1).tolist()[0]


def sweep(game: NormalFormGame, betas, etas, regularizers, x0=None,
          horizon=2000, jobs=1, outer_tol=1e-10):
    """Equilibrium, verdict, and a finite run for every (beta, eta) cell.

    Every beta's response config and every cell's dynamics config are
    built first; a bad beta or eta is recorded as its cells' error, and
    the sweep continues with the others.  Equilibria are then located once
    per valid beta by the damped walk of :func:`find_smoothed_equilibrium`,
    warm-started from the largest beta downward.  The walk runs as one row
    of the dynamics batch of the cells whose betas it has already solved
    (see :class:`_Ladder`): once its walk converges, all of a beta's cells
    join the batch at ``x0``, each row at its own beta and eta, and leave
    after ``horizon`` steps or once a step returns them bit for bit.  If
    the shared batch raises, each cell in it is rerun alone, so a failing
    run fails only its own cell.  Only each run's final state is kept: a
    cell's ``final_distance`` is its row's distance to the cell's
    equilibrium.  One kernel call at a beta column then takes the tangent
    response Jacobians at all equilibria, and one spectrum per beta gives
    its cells' verdicts.  ``jobs``, ``horizon``, ``outer_tol``, the
    regularizers and ``x0`` are checked before any solve; ``jobs`` has no
    other effect.  The returned grid is row-major in (betas, etas) as
    given.
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
    cells_of = {}  # beta -> indices of its cells in the grid
    for c, (beta, _) in enumerate(grid):
        cells_of.setdefault(beta, []).append(c)
    ladder = _Ladder(game, kernel, start, horizon, outer_tol)
    outcomes, errors = ladder.outcomes, ladder.errors
    rungs = []  # (beta, response config, runnable cell rows)
    for beta, cells in cells_of.items():
        try:
            cfg = replace(kernel.cfg, beta=beta)
        except GameError as err:
            errors[beta] = _error_text(err)
            continue
        rows = []
        for c in cells:
            try:
                rows.append((c, DynamicsConfig(eta=grid[c][1], response=cfg,
                                               horizon=horizon)))
            except GameError as err:
                outcomes[c] = _error_text(err)
        rungs.append((beta, cfg, rows))
    ladder.run(sorted(rungs, key=lambda rung: rung[0], reverse=True))
    solved = ladder.solved

    def jacobians(rungs):
        kernel = FlatKernel(game, solved[rungs[0]][0],
                            beta=np.array(rungs)[:, None])
        return kernel.tangent_jacobians(np.stack(
            [solved[b][1].point.concatenated() for b in rungs]))
    grad_phi = dict(zip(solved, _by_rows(jacobians, list(solved))
                        if solved else ()))
    errors.update((b, g) for b, g in grad_phi.items() if isinstance(g, str))

    verdicts = {}  # cell index -> verdict of a cell that ran
    for beta, (_, eq) in solved.items():
        if beta not in errors:
            ran = [c for c in cells_of[beta]
                   if isinstance(outcomes[c], float)]
            verdicts.update(zip(ran, _verdicts(
                grad_phi[beta], [grid[c][1] for c in ran], eq)))
    cells = []
    for c, (beta, eta) in enumerate(grid):
        eq = solved[beta][1] if beta in solved else None
        error = errors.get(beta)
        if error is None and isinstance(outcomes[c], str):
            error = outcomes[c]
        cells.append(SweepCell(
            beta=beta, eta=eta, equilibrium=eq,
            verdict=None if error else verdicts[c],
            final_distance=None if error else outcomes[c], error=error))
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
    rec = check_type("trajectory", trajectory, Trajectory).config.record_every
    if verdict is not None:
        check_type("verdict", verdict, StabilityVerdict)
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
    cells = [check_type("cells entry", cell, SweepCell)
             for cell in check_sequence("cells", cells)]
    headers = _block_headers(next((c.equilibrium.point.shape for c in cells
                                   if c.equilibrium is not None), ()))
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
