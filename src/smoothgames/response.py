"""Smoothed best responses, their Jacobians, and smoothed equilibria.

The smoothed best response of player n maximizes f_n(y; x_{-n}) - beta h_n(y)
over the simplex.  For the entropic regularizer this is the softmax of the
payoff gradient divided by beta; with a quadratic term the strictly concave
program is solved by damped Newton in log coordinates on the regularizer's
face system.  Smoothed equilibria (fixed points of the joint response map)
are located by a damped fixed-point walk, which only :class:`Ladder` steps:
down a decreasing beta schedule with warm starts, the dynamics of each
solved beta's cells in the same batch.  :func:`find_smoothed_equilibrium`
is a ladder of one rung, :func:`homotopy_trace` one of its schedule, and
``dynamics.sweep`` one with cells.

Hot loops (the solver here, the dynamics in ``dynamics``) run on
:class:`FlatKernel`, which evaluates the response map, its Jacobian and the
incremental update x + eta (Phi(x) - x) for a batch of flat strategy
vectors after validating once; :func:`smoothed_argmax` runs the kernel's
softmax and Newton group on one block, bit for bit.  The kernel groups the
quadratic-entropy blocks by dimension, so each Newton iteration makes one
stacked face solve for every row and player of a group, and it starts each
Newton solve from its previous log-response when the batch has the same
number of rows (a dynamics or solver step moves the point by O(eta), so one
or two iterations then suffice).  Every public function builds its own
kernel, so its results depend on its arguments only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import takewhile

import numpy as np

from .errors import (ArgumentError, ConvergenceError, CyclingError,
                     DimensionError, DomainError, GameError, check_array,
                     check_count, check_index, check_real, check_sequence,
                     check_type)
from .games import (JointStrategy, NormalFormGame, block_diag, block_slices,
                    einsum, epsilon_nash_gap, face_bases, gradient_plan,
                    jacobian_blocks, planned_gradient, uniform_strategy)
from .regularizers import (Regularizer, entropy, entropy_pseudoinverse,
                           face_solve, kkt_frame)

STAGNATION_WINDOW = 500
STAGNATION_FACTOR = 0.99
# relative band within which the solver's residual counts as not grown
RESIDUAL_BAND = 1e-12
# least damping factor of the solver: a walk that halves eta below it has
# stalled, and stops there rather than idle out its stagnation window
STEP_FLOOR = 1e-9
FIXED_CHECK_STRIDE = 8  # steps between tests for an unchanged batch
DISTANCE_CHUNK = 64  # states held back before their distances are taken
OUTER_TOL = 1e-10  # default fixed-point residual target of a solve
MAX_ITER = 100_000  # default most damped-walk steps of a solve


@dataclass(frozen=True)
class SmoothedResponseConfig:
    """Smoothing level and per-player regularizers for the response map.

    A quadratic-entropy block's Newton argmax stops once its projected
    gradient is at most ``inner_tol * max(1, max_i |v_i|)``, v the block's
    payoff gradient, and fails after ``inner_max_iter`` iterations."""

    beta: float
    regularizers: tuple
    inner_tol: float = 1e-12
    inner_max_iter: int = 10_000

    def __post_init__(self):
        object.__setattr__(self, "regularizers",
                           check_sequence("regularizers", self.regularizers))
        check_real("beta", self.beta)
        check_real("inner_tol", self.inner_tol)
        check_count("inner_max_iter", self.inner_max_iter, positive=True)
        if not self.regularizers or not all(
                isinstance(r, Regularizer) for r in self.regularizers):
            raise ArgumentError("regularizers must be a nonempty sequence "
                                "of Regularizer objects")


def entropy_config(shape, beta, **kwargs) -> SmoothedResponseConfig:
    """Entropic-response config for a game or an action-count tuple."""
    if isinstance(shape, NormalFormGame):
        shape = shape.shape
    regs = tuple(entropy(k) for k in check_sequence("shape", shape))
    return SmoothedResponseConfig(beta=beta, regularizers=regs, **kwargs)


@dataclass(frozen=True)
class SmoothedEquilibrium:
    """A certified fixed point of the smoothed response map."""

    point: JointStrategy
    beta: float
    residual: float
    nash_gap: float


# ---------------------------------------------------------------------------
# block-level argmax

def smoothed_argmax(values, reg: Regularizer, beta: float, inner_tol=1e-12,
                    inner_max_iter=10_000) -> np.ndarray:
    """Maximize values . y - beta * h(y) over the simplex.

    The kernel's code on one block, bit for bit: without a quadratic term
    (or with one action) the closed-form :func:`_softmax`, summed by
    ``reduceat`` and flagged by :func:`_beyond_exp_bound` from the largest
    ``|values_i|``; otherwise the Newton argmax of a one-player
    :class:`_NewtonGroup` from the uniform point, in log coordinates until
    the projected-gradient residual drops to ``inner_tol * max(1,
    max_i |values_i|)``.
    """
    v = check_array("values", values,
                    (check_type("reg", reg, Regularizer).dimension,))[None]
    cfg = SmoothedResponseConfig(beta, (reg,), inner_tol, inner_max_iter)
    if not _takes_newton(reg):
        shift = _beyond_exp_bound(np.abs(v).max(), beta, reg.dimension)
        return _softmax(v, beta, lambda f, X: f.reduceat(X, [0], 1), shift)[0]
    group = _NewtonGroup((0,), (slice(0, reg.dimension),), cfg.regularizers)
    return group.respond(v, beta, cfg)[0]


def _takes_newton(reg) -> bool:
    """Whether a block's response is the Newton argmax, not the softmax."""
    return reg.A is not None and reg.dimension > 1


def _softmax(G, beta, totals, shift):
    """The block-wise softmax of ``G / beta``, ``totals(ufunc, X)``
    reducing X over each block back onto the block's columns.

    ``shift`` is a :func:`_beyond_exp_bound` flag: True or False for every
    row, or a column like beta's, some but not all rows set.  A flagged
    row's blocks subtract their largest G before the division, so every
    quotient is at most 0 and one that overflows goes to -inf without a
    warning: a block takes its limit, not NaN.  The other rows divide G as
    it is, so a row's bits depend on its own flag alone."""
    if shift is False:
        Y = G / beta
    else:
        with np.errstate(over="ignore"):
            Y = np.where(shift, G - totals(np.maximum, G), G)
            Y /= beta
    np.exp(Y, out=Y)
    Y /= totals(np.add, Y)
    return Y


def _beyond_exp_bound(top, beta, k):
    """The rows of a softmax of ``G / beta`` over blocks of at most k
    entries, ``|G| <= top``, that must shift (see :func:`_softmax`): where
    an ``exp`` could leave the normal range or a block sum overflow, with
    a factor of two to spare for the rounding of G, ``top / beta`` over
    about 709 - ln k.  False, True, or beta's column of flags."""
    info = np.finfo(float)
    bound = min(-math.log(info.tiny), math.log(info.max / (2 * k)))
    with np.errstate(over="ignore"):
        flags = np.divide(top, beta) > bound
    return (flags if 0 < np.count_nonzero(flags) < flags.size
            else bool(flags.any()))


def _newton_frame(V, lam, C, beta) -> tuple:
    """What a Newton argmax over stacks shaped like V sets up before its
    first iteration and no iterate changes: beta as an array, as a column
    for the gradient and as one for the right-hand sides, and the
    :func:`kkt_frame` whose buffers its face solves fill."""
    beta = np.asarray(beta, dtype=float)
    return (beta, beta[..., None], beta[..., None, None],
            kkt_frame(lam, C, V, V[..., None]))


def _regularizer_terms(U, Y, lam, C, w):
    """The quadratic force ``C (y - w)`` and the regularizer value h(y) at
    the points ``Y = exp(U)``."""
    gap = Y - w
    force = einsum("...ij,...j->...i", C, gap)
    quad_value = 0.5 * np.vecdot(gap, force)
    return force, lam * np.vecdot(Y, U) + quad_value


def _newton_start(U, lam, C, w) -> tuple:
    """The log-responses U evaluated for :func:`_newton_solve`: ``(U, Y,
    force, h)`` with ``Y = exp(U)`` and :func:`_regularizer_terms` there."""
    Y = np.exp(U)
    return (U, Y) + _regularizer_terms(U, Y, lam, C, w)


def _newton_solve(V, lam, C, w, frame, start, inner_tol, inner_max_iter):
    """Damped Newton on u = log y for a stack of argmax problems.

    Row r (over any leading axes) maximizes ``V[r] . y - beta h_r(y)`` with
    ``h_r(y) = lam[r] y . log y + 0.5 (y - w[r])^T C[r] (y - w[r])``; beta,
    lam, C ``(..., k, k)`` and w ``(..., k)`` broadcast against V.
    ``frame`` is a :func:`_newton_frame` of V's shape and ``start`` a
    :func:`_newton_start`; neither depends on V, so a :class:`_NewtonGroup`
    keeps both and only the objective is evaluated at the start.  The step
    du is the :func:`face_solve` of the ambient gradient over beta, one
    stacked solve for all rows per iteration, into the frame's KKT buffers;
    the update is ``y <- normalise(y exp(t du))``, and each row's t
    backtracks on its objective computed from u.  The accepted candidate's
    force, regularizer value and objective carry over to the next iteration,
    so every iterate is evaluated once; while every row is still searching,
    the whole candidate is taken without merging.  A problem is frozen once
    its projected-gradient residual is at most ``inner_tol * max(1,
    max_i |V_i|)``, so inner_tol is relative to its own payoff scale and
    scaling V and beta by s > 0 stops it alike (exactly at inner_tol where
    every ``|V_i| <= 1``).  The loop ends when every problem is frozen, at
    a non-finite residual or after inner_max_iter iterations; no exit
    looks at more than each problem's own residual, so a problem's path
    does not depend on its stack-mates.  Iterates stay on the simplex, and
    a coordinate whose mass underflows keeps a finite log and an exact
    stationarity condition.  Returns the accepted iterate as a start,
    ``(U, Y, force, h)``.  Its error's ``rows`` map each row (over V's
    first axis) with a problem still active, or broken, to the row's own
    error.
    """
    beta, beta_column, beta_rhs, buffers = frame
    lam_column = buffers[3]
    U, Y, force, h = start
    current = np.vecdot(V, Y) - beta * h
    k = V.shape[-1]
    active = np.ones(V.shape[:-1], dtype=bool)
    residual = np.full(active.shape, np.inf)
    tol = inner_tol * np.maximum.reduce(np.abs(V), -1, initial=1.0)
    for iteration in range(inner_max_iter):
        grad = V - beta_column * (lam_column * U + force)
        last_finite = residual
        residual = grad - np.add.reduce(grad, -1, keepdims=True) / k
        residual = np.maximum.reduce(np.abs(residual, out=residual), -1)
        active &= ~(residual <= tol)
        # count_nonzero is the cheapest any() or all() of a small mask
        live = np.count_nonzero(active)
        if not live:
            return U, Y, force, h
        # frozen rows keep their finite residuals, so one maximum tells
        if not math.isfinite(np.maximum.reduce(residual, None)):
            # no later iterate can recover from a non-finite one
            raise _inner_error(
                f"went non-finite at iteration {iteration}; last finite "
                f"residual", iteration, last_finite,
                active & ~np.isfinite(residual), beta, first=True)
        du = face_solve(lam, C, Y, grad[..., None] / beta_rhs,
                        buffers)[..., 0]
        # float plateau near the optimum
        floor = current - 1e-12 * (1.0 + np.abs(current))
        t = None
        searching = active.copy()
        left = live  # rows still searching
        accepted = U, Y, force, h, current
        cand = U + du  # t = 1 on the first trial
        for _ in range(60):
            cand -= np.maximum.reduce(cand, -1, keepdims=True)
            cand -= np.log(np.add.reduce(np.exp(cand), -1, keepdims=True))
            cand_y = np.exp(cand)
            cand_force, cand_h = _regularizer_terms(cand, cand_y, lam, C, w)
            cand_value = np.vecdot(V, cand_y) - beta * cand_h
            if left == searching.size:
                accepted = cand, cand_y, cand_force, cand_h, cand_value
            else:
                rows = searching[..., None]
                accepted = (np.where(rows, cand, accepted[0]),
                            np.where(rows, cand_y, accepted[1]),
                            np.where(rows, cand_force, accepted[2]),
                            np.where(searching, cand_h, accepted[3]),
                            np.where(searching, cand_value, accepted[4]))
            searching &= ~(cand_value >= floor)
            left = np.count_nonzero(searching)
            if not left:
                break
            if t is None:
                t = np.ones(active.shape)
            t[searching] /= 2
            cand = U + t[..., None] * du
        U, Y, force, h, current = accepted
    raise _inner_error(f"hit {inner_max_iter} iterations at residual",
                       inner_max_iter, residual, active, beta)


def _inner_error(what, iterations, residual, mask, beta, first=False):
    """The Newton argmax's error at the worst residual where mask holds
    (the first, with ``first``); its ``rows`` map each row (over mask's
    first axis) where mask holds to the same error over the row's own
    problems."""
    def error(residual, mask, beta, rows=None):
        worst = 0 if first else residual[mask].argmax()
        value = float(residual[mask][worst])
        return ConvergenceError(f"inner solver {what} {value:.3e}",
                                residual=value, iterations=iterations,
                                beta=float(beta[mask][worst]), rows=rows)

    beta = np.broadcast_to(beta, mask.shape)
    hit = np.flatnonzero(mask.any(axis=tuple(range(1, mask.ndim))))
    return error(residual, mask, beta, {
        int(r): error(residual[r], mask[r], beta[r]) for r in hit})


def linear_steepness_probe(r: Regularizer, i: int, eps: float, betas,
                           rng=None):
    """Measure how fast suboptimal mass vanishes relative to beta.

    Solves the smoothed argmax against a payoff vector v whose coordinate i
    trails the best coordinate by exactly eps (the boundary case of the
    suboptimality set), and reports ``x^beta_i / beta`` per beta.  For
    entropy the ratio is bounded by ``exp(-eps/beta) / beta``.  The probe
    needs a second action to trail, so ``r`` must have dimension 2 or more.
    """
    check_index("probe index", i, check_type("r", r, Regularizer).dimension)
    if r.dimension < 2:
        raise ArgumentError("the steepness probe needs a regularizer of "
                            "dimension 2 or more")
    check_real("eps", eps, positive=False)
    k = r.dimension
    if rng is None:
        v = np.zeros(k)
    else:
        v = check_type("rng", rng, np.random.Generator).standard_normal(k)
    others = np.delete(np.arange(k), i)
    v[i] = v[others].max() - eps
    ratios = []
    for beta in check_sequence("betas", betas):
        point = smoothed_argmax(v, r, beta)
        ratios.append(float(point[i]) / float(beta))
    return ratios


# ---------------------------------------------------------------------------
# flat batched kernel

class _NewtonGroup:
    """The quadratic-entropy blocks of one dimension in a
    :class:`FlatKernel`, and what their Newton argmax keeps between
    responses.

    ``lam``, ``curvature`` (``A^T A``) and ``w`` are stacked over
    ``players``, and ``columns`` is a slice where the players' columns
    are contiguous (in a square game, say), else an index array.  The
    solve's :func:`_newton_frame` and its last accepted iterate, evaluated
    (a :func:`_newton_start`), are kept for a batch of as many rows: the
    next response warm-starts from that iterate and evaluates only the
    objective there.  A batch of another size, or a response after a
    failed solve, starts both afresh from the uniform point.
    """

    def __init__(self, players, slices, regularizers):
        self.players = tuple(players)
        columns = np.concatenate([np.arange(slices[n].start, slices[n].stop)
                                  for n in players])
        if np.all(np.diff(columns) == 1):
            columns = slice(int(columns[0]), int(columns[-1]) + 1)
        self.columns = columns
        self.lam = np.array([regularizers[n].lam for n in players])
        self.curvature = np.stack([regularizers[n].curvature
                                   for n in players])
        self.w = np.stack([regularizers[n].w for n in players])
        self.frame = self.start = None

    def respond(self, G, beta, cfg) -> np.ndarray:
        """The Newton argmax of the group's blocks against the gradient
        rows G, as ``(B, columns)`` responses."""
        k = self.curvature.shape[-1]
        V = G[:, self.columns].reshape(len(G), len(self.players), k)
        start, self.start = self.start, None  # none after a failed solve
        if start is None or start[0].shape != V.shape:
            self.frame = _newton_frame(V, self.lam, self.curvature, beta)
            start = _newton_start(np.full(V.shape, -np.log(k)), self.lam,
                                  self.curvature, self.w)
        self.start = _newton_solve(V, self.lam, self.curvature, self.w,
                                   self.frame, start, cfg.inner_tol,
                                   cfg.inner_max_iter)
        return self.start[1].reshape(len(G), -1)


class FlatKernel:
    """Response map, its Jacobian and the incremental update on stacked
    flat joint strategies.

    A batch is a ``(B, sum k)`` array whose rows are concatenated joint
    strategies, player n's block in columns ``slices[n]``.  The game and
    config are checked once, when the kernel is built, and starting points
    once, by :meth:`flatten`; the per-step methods check nothing.

    ``beta`` is ``cfg.beta`` unless given as a ``(B, 1)`` column holding
    each row's smoothing level, which :meth:`respond`, the Newton argmax
    and the Jacobians divide by row by row, as :meth:`mix` takes an eta
    column.  A batch of rows at different betas thus agrees with per-beta
    batches of as many rows.

    Gradients follow one :func:`games.gradient_plan` per player, made when
    the kernel is built, so a row's are :func:`games.gradient`'s bit for
    bit.  A gradient entry is a mean of payoff entries, so ``|G|`` is at
    most the largest ``|payoff|``, from which :func:`_beyond_exp_bound`
    flags, once, the rows that shift their softmax (see :func:`_softmax`).
    Block-wise totals (the softmax's maxima and sums, the renormalisation
    in :meth:`mix`) are one ``reduceat`` and one ``take`` back to the
    block's columns.  No product spans the batch, so every row's
    gradients, response, Jacobians and update are those of the row alone,
    bit for bit, from the same Newton warm starts.

    Quadratic-entropy blocks are grouped by dimension (see
    :class:`_NewtonGroup`); each group keeps its Newton argmax's frame and
    last accepted iterate, evaluated, from one response to the next.
    """

    def __init__(self, game: NormalFormGame, cfg: SmoothedResponseConfig,
                 beta=None):
        check_type("game", game, NormalFormGame)
        dims = tuple(r.dimension for r in check_type(
            "cfg", cfg, SmoothedResponseConfig).regularizers)
        if dims != game.shape:
            raise DimensionError(f"regularizer dimensions {dims} do not "
                                 f"match the game's shape {game.shape}")
        self.game = game
        self.cfg = cfg
        if beta is None:
            beta = cfg.beta
        else:  # a column of smoothing levels, one per row
            check_real("beta", float(np.min(
                check_array("beta", beta, (None, 1)), initial=np.inf)))
        self.beta = beta
        shape = game.shape
        self.slices = block_slices(shape)
        # block-wise reductions over all players at once: reduceat per
        # block, then gathered back to the block's columns
        self._starts = np.array([s.start for s in self.slices])
        self._owner = np.repeat(np.arange(len(shape)), shape)
        by_dimension = {}
        for n, r in enumerate(cfg.regularizers):
            if _takes_newton(r):
                by_dimension.setdefault(r.dimension, []).append(n)
        self._groups = tuple(
            _NewtonGroup(players, self.slices, cfg.regularizers)
            for players in by_dimension.values())
        # whether some block (entropy, or of one action) is not in a group
        self._needs_softmax = (sum(map(len, by_dimension.values()))
                               < len(shape))
        self._plans = tuple(gradient_plan(tensor, n)
                            for n, tensor in enumerate(game.payoffs))
        # a gradient entry is a mean of payoff entries, so |G| is at most
        # the largest |payoff|; max and min copy no tensor
        self._shift = _beyond_exp_bound(
            max(float(max(t.max(), -t.min())) for t in game.payoffs), beta,
            max(shape))

    def flatten(self, x: JointStrategy, what="x") -> np.ndarray:
        """The concatenated vector of ``what``, a strategy of this game's
        shape."""
        if check_type(what, x, JointStrategy).shape != self.game.shape:
            raise DimensionError(
                f"{what} is not a strategy of the game's shape "
                f"{self.game.shape}")
        return x.concatenated()

    def strategy(self, row: np.ndarray) -> JointStrategy:
        """One row as a (validated) joint strategy."""
        return JointStrategy(tuple(row[s] for s in self.slices))

    def gradients(self, X: np.ndarray) -> np.ndarray:
        """Payoff of each pure action against the other blocks of each row."""
        blocks = [X[:, s] for s in self.slices]
        return np.concatenate([planned_gradient(plan, blocks)
                               for plan in self._plans], axis=1)

    def _block_totals(self, ufunc, X):
        return ufunc.reduceat(X, self._starts, 1).take(self._owner, 1)

    def respond(self, X: np.ndarray) -> np.ndarray:
        """The smoothed best response of every row: a block-wise softmax
        for blocks without a quadratic term, the Newton argmax, one stacked
        solve per group and iteration, for the others.  A kernel whose
        groups cover every column computes no softmax.  A failed Newton
        argmax raises its error, whose ``rows`` name the rows it failed
        on."""
        G = self.gradients(X)
        if self._needs_softmax:
            Y = _softmax(G, self.beta, self._block_totals, self._shift)
        else:
            Y = np.empty_like(G)
        # blocks of other regularizers replace their softmax columns
        for group in self._groups:
            Y[:, group.columns] = group.respond(G, self.beta, self.cfg)
        return Y

    def jacobian(self, X: np.ndarray) -> np.ndarray:
        """The response Jacobian at every row, a ``(B, K, K)`` stack over
        the concatenated ambient coordinates (see :func:`response_jacobian`).
        """
        return self._linearize(X)[1]

    def tangent_jacobians(self, X: np.ndarray) -> tuple:
        """The response Jacobian at every row in per-player tangent
        coordinates of the faces of the row's response supports.  Rows
        with the same supports share one basis."""
        Y, J = self._linearize(X)
        bases = {}
        out = []
        for support, j in zip(Y > 0, J):
            key = support.tobytes()
            q = bases.get(key)
            if q is None:
                q = bases[key] = block_diag(face_bases(
                    self.game.shape,
                    [np.flatnonzero(support[s]) for s in self.slices]))
            out.append(q.T @ j @ q)
        return tuple(out)

    def _linearize(self, X):
        """Responses and ambient Jacobians: one :meth:`respond` call, then
        stacked face pseudoinverses times the stacked game Jacobian
        blocks projected on the response supports, over each row's beta.
        A Jacobian that overflows (at a beta so small that 1/beta does) is
        a DomainError naming the least beta."""
        Y = self.respond(X)
        slices = self.slices
        cross = jacobian_blocks(self.game, [X[:, s] for s in slices],
                                [Y[:, s] > 0 for s in slices])
        pinvs = [None if _takes_newton(r) else entropy_pseudoinverse(Y[:, s])
                 for r, s in zip(self.cfg.regularizers, slices)]
        for group in self._groups:
            k = group.curvature.shape[-1]
            y = Y[:, group.columns].reshape(len(X), len(group.players), k)
            pinv = y[..., None] * face_solve(group.lam, group.curvature, y,
                                             np.eye(k))
            for p, n in enumerate(group.players):
                pinvs[n] = pinv[:, p]
        beta = np.asarray(self.beta)[..., None]
        J = np.zeros((len(X), X.shape[1], X.shape[1]))
        with np.errstate(over="ignore"):  # the finite check below raises
            for n, s_n in enumerate(slices):
                for m, s_m in enumerate(slices):
                    if n != m:
                        J[:, s_n, s_m] = pinvs[n] @ cross[n][m] / beta
        if not np.isfinite(J).all():
            raise DomainError(f"the response Jacobian is not finite at beta="
                              f"{np.min(self.beta):g}")
        return Y, J

    def mix(self, X: np.ndarray, Y: np.ndarray, eta) -> np.ndarray:
        """Incremental update X + eta (Y - X); eta is a scalar or a
        ``(B, 1)`` column.  Blocks are renormalized against drift."""
        out = Y - X
        out *= eta
        out += X
        out /= self._block_totals(np.add, out)
        return out

    def advance(self, X: np.ndarray, eta) -> np.ndarray:
        """One step of the incremental dynamics for every row."""
        return self.mix(X, self.respond(X), eta)


def smoothed_best_response(game: NormalFormGame, cfg: SmoothedResponseConfig,
                           x: JointStrategy) -> JointStrategy:
    """Apply the smoothed response map to every player simultaneously."""
    kernel = FlatKernel(game, cfg)
    return kernel.strategy(kernel.respond(kernel.flatten(x)[None, :])[0])


# ---------------------------------------------------------------------------
# response Jacobian

def response_jacobian(game: NormalFormGame, cfg: SmoothedResponseConfig,
                      x: JointStrategy, as_tangent=False) -> np.ndarray:
    """Derivative of the smoothed response map at x.

    Equals (1/beta) H^+ J, with H the block-diagonal of regularizer face
    Hessians at the response point and J the game Jacobian at x projected
    onto the response point's supports.  Returned as a dense matrix over
    the concatenated ambient coordinates, or over per-player tangent
    coordinates with ``as_tangent``.  One row of
    :meth:`FlatKernel.jacobian`.
    """
    kernel = FlatKernel(game, cfg)
    X = kernel.flatten(x)[None, :]
    if as_tangent:
        return kernel.tangent_jacobians(X)[0]
    return kernel.jacobian(X)[0]


# ---------------------------------------------------------------------------
# equilibrium solver

class DampedWalk:
    """The damped walk of a :class:`Ladder`'s rung, one step at a time:
    its damping factor eta, best residual and point, stagnation marker and
    the two stopping rules, for a walk whose row of a kernel batch is moved
    by the ladder, from the ``(1, K)`` row ``x``.

    :meth:`step` takes the walk's row and its response, and returns the
    eta to mix them with, the :class:`SmoothedEquilibrium` at the row, or
    the walk's error, unraised: a :class:`CyclingError` or, at ``max_iter``
    steps, a :class:`ConvergenceError`.  ``kernel`` serves only to build
    strategies of its game, so any kernel of the game will do.
    """

    def __init__(self, kernel, beta, x, outer_tol, max_iter):
        self.kernel = kernel
        self.beta = beta
        self.outer_tol = outer_tol
        self.max_iter = max_iter
        self.iteration = self.stall = 0
        self.eta = 1.0
        self.prev_residual = self.best_residual = self.marker = np.inf
        self.best_point = x

    def _error(self, cls, message, iterations):
        return cls(message, residual=self.best_residual,
                   iterations=iterations, beta=self.beta,
                   last_point=self.kernel.strategy(self.best_point[0]))

    def step(self, x, y):
        residual = float(np.maximum.reduce(np.abs(y - x), None))
        if residual <= self.outer_tol:
            point = self.kernel.strategy(x[0])
            return SmoothedEquilibrium(
                point=point, beta=self.beta, residual=residual,
                nash_gap=epsilon_nash_gap(self.kernel.game, point))
        if residual < self.best_residual:
            self.best_residual = residual
            self.best_point = x
        if residual < STAGNATION_FACTOR * self.marker:
            self.marker = residual
            self.stall = 0
        else:
            self.stall += 1
            if self.stall >= STAGNATION_WINDOW:
                return self._error(
                    CyclingError,
                    f"residual stagnated near {self.best_residual:.3e} for "
                    f"{STAGNATION_WINDOW} steps at beta={self.beta:g}; the "
                    f"iteration appears to be orbiting rather than "
                    f"converging", self.iteration)
        # the relative band keeps ulp-level jitter at tiny eta from biasing
        # the halve/grow walk into collapse
        if residual <= self.prev_residual * (1.0 + RESIDUAL_BAND):
            self.eta = min(1.0, self.eta * 1.2)
        else:
            self.eta = self.eta / 2
            if self.eta < STEP_FLOOR:
                return self._error(
                    CyclingError,
                    f"step size collapsed to eta={self.eta:.3e}, below the "
                    f"step floor {STEP_FLOOR:g}, after {self.iteration} "
                    f"steps at beta={self.beta:g}; residual stagnated near "
                    f"{self.best_residual:.3e}", self.iteration)
        self.prev_residual = residual
        self.iteration += 1
        if self.iteration == self.max_iter:
            # the mixed point would go unused: the walk ends here
            return self._error(
                ConvergenceError,
                f"no fixed point within {self.max_iter} iterations; best "
                f"residual {self.best_residual:.3e}", self.max_iter)
        return self.eta


class RunGroup:
    """Runs of the incremental dynamics x <- x + eta (Phi(x) - x) that
    start and end together: the ``(B, K)`` ``starts``, a ``horizon``, an
    optional flat reference ``ref`` and their rows ``span`` of the batch
    that steps them; in a :class:`Ladder`, the ``(key, eta)`` ``cells`` of
    one ``beta``, whose ``span`` is None until they join its batch.

    :meth:`track` ends the runs after ``horizon`` steps, or at a
    FIXED_CHECK_STRIDE-th step that returns their rows bit for bit (as
    bytes, so -0.0 is not 0.0): the step is deterministic, and a Newton
    argmax warm-started at its own solution returns it at once, so the last
    ``fixed`` steps would repeat the rows and are not taken.  ``X`` ends as
    the final states.  With ``record_every``, ``recorded`` keeps the states
    every ``record_every`` steps and, given ``ref``, ``distances`` each
    row's distance at every step, taken DISTANCE_CHUNK states at a time;
    else ``distances`` holds the final distances only.
    """

    def __init__(self, starts, horizon, ref=None, record_every=None,
                 span=None, beta=None, cells=()):
        self.X, self.horizon, self.ref = starts, horizon, ref
        self.every, self.beta, self.cells = record_every, beta, cells
        self.span, self.age, self.fixed = span, 0, 0
        self.recorded = [starts]
        self.pending = [starts] if record_every and ref is not None else None
        self.distances = []  # chunks of distances until the runs end

    def track(self, X, new) -> bool:
        """Count the step of the batch from X to ``new``; returns whether it
        ended the runs."""
        self.age += 1
        rows = self.span
        if (self.age % FIXED_CHECK_STRIDE == 0
                and new[rows].tobytes() == X[rows].tobytes()):
            self.fixed, new = self.horizon - self.age + 1, X  # ends at X
        elif self.every:
            if self.age % self.every == 0:
                self.recorded.append(new[rows])
            if self.pending is not None:
                if len(self.pending) == DISTANCE_CHUNK:
                    self._take_distances()
                self.pending.append(new[rows])
        if not self.fixed and self.age < self.horizon:
            return False
        self.X = new[rows]
        if self.pending is not None:
            self._take_distances()
            self.distances = [row + row[-1:] * self.fixed for row
                              in np.concatenate(self.distances).T.tolist()]
        elif self.ref is not None:  # the final distances only
            self.distances = np.linalg.norm(self.X - self.ref, axis=1).tolist()
        return True

    def _take_distances(self):
        self.distances.append(np.linalg.norm(
            np.stack(self.pending) - self.ref, axis=2))
        self.pending.clear()


class Ladder:
    """Smoothed equilibria down a ladder of betas by the damped walk, and
    the dynamics runs of the solved betas' cells, stepped as one batch.

    A rung is ``(beta, cells)`` and a cell ``(key, eta)``, a run of
    ``horizon`` steps at that beta from ``start``, a flat strategy.
    :meth:`run` solves the rungs in order, each by a :class:`DampedWalk` of
    at most ``max_iter`` steps from the last equilibrium solved (the first
    from ``start``), as row 0 of a batch whose other rows are the cells of
    the betas already solved.  Each step is one :meth:`FlatKernel.respond`
    for every row; the walk reads its residual and eta off its own row, and
    one :meth:`FlatKernel.mix` at an eta column moves all rows, one row or
    many alike.  A solved beta's cells join at ``start`` as one
    :class:`RunGroup` when the batch is rebuilt for the next walk, and
    leave when it ends their runs.  Each rung, and each join or leave,
    builds a kernel of ``base``'s game and config at the column of the
    rows' betas; ``base`` only validates and flattens.  A
    :class:`ConvergenceError` from the shared respond fails the rows it
    names in ``rows``, each with its own error; the rows left step the
    same point again in a batch rebuilt without them.

    ``solved`` maps each solved beta to its equilibrium, ``errors`` each
    failed one to its error, and ``outcomes`` each cell's key to its run's
    final distance to its equilibrium, or to its error.
    """

    def __init__(self, base, start, outer_tol, max_iter=MAX_ITER, horizon=0):
        self.base = base
        self.start = start
        self.outer_tol = outer_tol
        self.max_iter = max_iter
        self.horizon = horizon
        self.solved, self.errors, self.outcomes = {}, {}, {}
        self.groups = []
        self.warm = start[None, :]  # the (1, K) start of the next walk

    def run(self, rungs):
        """Solve the rungs in order; run the cells of each beta solved."""
        rungs = iter(rungs)
        rung = next(rungs, None)
        x = self.warm  # the walk's row when the batch is rebuilt
        walk = X = kernel = None
        while rung is not None or self.groups:
            if kernel is None:  # a new rung, or rows joined or left
                if rung is not None and walk is None:
                    walk = DampedWalk(self.base, rung[0], x, self.outer_tol,
                                      self.max_iter)
                kernel, X, eta = self._batch(rung, x, X)
            try:
                Y = kernel.respond(X)
            except ConvergenceError as err:
                self._drop(err.rows)
                out = err.rows.get(0) if walk is not None else None
                kernel, x = None, X[:1]
            else:
                # out: the walk's eta, equilibrium or error
                out = walk.step(X[:1], Y[:1]) if walk is not None else None
                if type(out) is float:
                    eta[0, 0] = out
                new = kernel.mix(X, Y, eta)
                if self.groups and self._age(X, new):
                    kernel, x = None, new[:1]
                X = new
            if isinstance(out, (SmoothedEquilibrium, GameError)):
                self._finish(*rung, out)
                rung, walk, kernel = next(rungs, None), None, None
                x = self.warm

    def _batch(self, rung, x, X):
        """A new kernel, the batch and its eta: the walk's row x, if a rung
        is being solved, then each group's rows, taken from X, the last
        batch, or its starts for a group that joins now; each group's span
        is set."""
        states, betas, etas = [], [], []
        if rung is not None:
            states, betas, etas = [x], [rung[0]], [1.0]  # the walk sets eta
        for g in self.groups:
            states.append(g.X if g.span is None else X[g.span])
            g.span = slice(len(betas), len(betas) + len(g.cells))
            betas += [g.beta] * len(g.cells)
            etas += [eta for _, eta in g.cells]
        kernel = FlatKernel(self.base.game, self.base.cfg,
                            beta=np.array(betas)[:, None])
        return kernel, np.concatenate(states), np.array(etas)[:, None]

    def _drop(self, errors):
        """Settle the batch rows in ``errors``, a map from row to error: a
        cell's error becomes its outcome, and its group keeps its other
        cells' rows, as an index array."""
        for g in self.groups:
            rows = range(g.span.start, g.span.stop)
            self.outcomes.update((key, errors[r]) for (key, _), r
                                 in zip(g.cells, rows) if r in errors)
            g.span = np.array([r for r in rows if r not in errors])
            g.cells = [g.cells[r - rows.start] for r in g.span]
        self.groups = [g for g in self.groups if g.cells]

    def _finish(self, beta, cells, out):
        """Record a rung's equilibrium or error; a solved beta's cells, if
        it has any, become a group that joins at the next rebuild."""
        if not isinstance(out, SmoothedEquilibrium):
            self.errors[beta] = out
            return
        self.solved[beta] = out
        self.warm = out.point.concatenated()[None, :]
        if cells:
            self.groups.append(RunGroup(
                np.tile(self.start, (len(cells), 1)), self.horizon,
                self.warm[0], beta=beta, cells=cells))

    def _age(self, X, new) -> bool:
        """Track the step X -> new for every group; returns whether one
        left, recording its final distances."""
        left = [g for g in self.groups if g.track(X, new)]
        for g in left:
            self.outcomes.update(zip((k for k, _ in g.cells), g.distances))
            self.groups.remove(g)
        return bool(left)


def _climb(kernel, betas, x0, outer_tol, max_iter) -> Ladder:
    """A :class:`Ladder` of the kernel's game without cells, run down
    ``betas`` from x0 (the uniform point if None) until a beta fails."""
    check_real("outer_tol", outer_tol)
    check_count("max_iter", max_iter, positive=True)
    x = kernel.flatten(x0 if x0 is not None
                       else uniform_strategy(kernel.game.shape), "x0")
    ladder = Ladder(kernel, x, outer_tol, max_iter)
    ladder.run(takewhile(lambda _: not ladder.errors,
                         ((beta, ()) for beta in betas)))
    return ladder


def find_smoothed_equilibrium(game: NormalFormGame, cfg: SmoothedResponseConfig,
                              x0: JointStrategy = None, outer_tol=OUTER_TOL,
                              max_iter=MAX_ITER) -> SmoothedEquilibrium:
    """Locate a fixed point of the smoothed response map.

    Runs x <- x + eta (Phi(x) - x) with adaptive damping: eta halves
    when the residual grows by more than ``RESIDUAL_BAND``, grows by 1.2x
    (capped at 1) otherwise.  Stops when the sup-norm residual reaches
    outer_tol.  A residual that fails to improve by the stagnation factor
    over a full window raises a cycling error — near instability the
    iteration orbits instead of converging, and smaller beta only sharpens
    that.  So does a halving that takes eta below ``STEP_FLOOR``: a walk
    that shrinks its steps that far has stalled.  Either way the error
    carries the best residual seen and the point it was seen at.  The walk
    is a :class:`Ladder` of one rung.
    """
    ladder = _climb(FlatKernel(game, cfg), (cfg.beta,), x0, outer_tol,
                    max_iter)
    if ladder.errors:
        raise ladder.errors[cfg.beta]
    return ladder.solved[cfg.beta]


def homotopy_trace(game: NormalFormGame, cfg: SmoothedResponseConfig,
                   beta_schedule, x0: JointStrategy = None,
                   outer_tol=OUTER_TOL, max_iter=MAX_ITER):
    """Warm-started equilibrium continuation along a decreasing schedule.

    Returns one SmoothedEquilibrium per beta, from a :class:`Ladder` of the
    schedule's rungs; the first beta that fails ends it with its error.
    Which equilibrium the trace approaches in multi-equilibrium games is
    recorded, never asserted.
    """
    schedule = check_array("beta_schedule", beta_schedule, (None,))
    if not schedule.size or np.any(np.diff(schedule) >= 0):
        raise ArgumentError(
            "beta_schedule must be nonempty and strictly decreasing")
    check_real("last beta_schedule entry", float(schedule[-1]))
    ladder = _climb(FlatKernel(game, cfg), schedule.tolist(), x0, outer_tol,
                    max_iter)
    if ladder.errors:  # the one beta that failed, which ended the trace
        (beta, err), = ladder.errors.items()
        raise type(err)(
            f"homotopy failed at beta={beta:g}: {err.args[0]}",
            residual=err.residual, iterations=err.iterations, beta=beta,
            last_point=err.last_point) from err
    return list(ladder.solved.values())
