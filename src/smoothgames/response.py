"""Smoothed best responses, their Jacobians, and smoothed equilibria.

The smoothed best response of player n maximizes f_n(y; x_{-n}) - beta h_n(y)
over the simplex.  For the entropic regularizer this is the softmax of the
payoff gradient divided by beta; the general regularizer solves the strictly
concave program with a damped Newton method on the tangent space.  Smoothed
equilibria (fixed points of the joint response map) are located by damped
fixed-point iteration with an adaptive damping factor, optionally continued
along a decreasing beta schedule with warm starts.

Hot loops (the solver here, the dynamics in ``dynamics``) run on
:class:`FlatKernel`, which evaluates the response map and the averaging
update for a batch of flat strategy vectors after validating once.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import (ArgumentError, ConvergenceError, CyclingError,
                     DimensionError)
from .games import (JointStrategy, NormalFormGame, epsilon_nash_gap,
                    tangent_basis, uniform_strategy)
from .regularizers import Regularizer, entropy, face_hessian, reg_value
from .stability import game_jacobian

STAGNATION_WINDOW = 500
STAGNATION_FACTOR = 0.99


@dataclass(frozen=True)
class SmoothedResponseConfig:
    """Smoothing level and per-player regularizers for the response map."""

    beta: float
    regularizers: tuple
    inner_tol: float = 1e-12
    inner_max_iter: int = 10_000

    def __post_init__(self):
        object.__setattr__(self, "regularizers", tuple(self.regularizers))
        if not 0 < self.beta < np.inf:
            raise ArgumentError(
                f"beta must be positive and finite, got {self.beta}")
        if not self.inner_tol > 0:
            raise ArgumentError("inner_tol must be positive")
        if not self.regularizers:
            raise ArgumentError("at least one regularizer is required")
        for n, r in enumerate(self.regularizers):
            if not isinstance(r, Regularizer):
                raise ArgumentError(f"entry {n} is not a Regularizer")


def entropy_config(shape, beta, **kwargs) -> SmoothedResponseConfig:
    """Entropic-response config for a game or an action-count tuple."""
    if isinstance(shape, NormalFormGame):
        shape = shape.shape
    regs = tuple(entropy(k) for k in shape)
    return SmoothedResponseConfig(beta=beta, regularizers=regs, **kwargs)


def _check_config(game: NormalFormGame, cfg: SmoothedResponseConfig):
    if len(cfg.regularizers) != game.num_players:
        raise DimensionError(
            f"{len(cfg.regularizers)} regularizers for "
            f"{game.num_players} players")
    for n, (r, k) in enumerate(zip(cfg.regularizers, game.shape)):
        if r.dimension != k:
            raise DimensionError(
                f"regularizer {n} has dimension {r.dimension}, "
                f"player has {k} actions")


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

    Entropy admits the closed-form softmax (max-subtracted before
    exponentiation).  The quadratic-entropy kind runs a damped Newton
    iteration on the tangent space until the projected-gradient residual
    drops to inner_tol.
    """
    v = np.asarray(values, dtype=float)
    if v.shape != (reg.dimension,):
        raise DimensionError(
            f"expected {reg.dimension} values, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ArgumentError("values must be finite")
    if reg.dimension == 1:
        return np.ones(1)
    if reg.kind == "entropy":
        z = v / beta
        z = z - z.max()
        p = np.exp(z)
        return p / p.sum()
    return _newton_argmax(v, reg, beta, inner_tol, inner_max_iter)


ACTIVE_FLOOR = 1e-12  # coordinates below this follow the steep closed form


def _newton_argmax(v, reg, beta, inner_tol, inner_max_iter):
    """Damped projected Newton with an active-set split.

    Coordinates whose mass falls below ACTIVE_FLOOR are steep-dominated:
    their curvature 1/y would make the face Hessian float-singular, so they
    are refreshed through their own stationarity condition instead while
    Newton runs on the remaining (well-conditioned) face.
    """
    k = reg.dimension
    lam = 1.0 if reg.kind == "entropy" else reg.lam
    ata = None if reg.kind == "entropy" else reg.A.T @ reg.A
    y = np.full(k, 1.0 / k)

    def quad_force(point):
        if ata is None:
            return np.zeros(k)
        return ata @ (point - reg.w)

    def objective(point):
        return float(v @ point) - beta * reg_value(reg, point)

    residual = np.inf
    for iteration in range(inner_max_iter):
        grad_amb = v - beta * _reg_gradient_ambient(reg, y)
        centered = grad_amb - grad_amb.mean()
        last_finite = residual
        residual = float(np.abs(centered).max(initial=0.0))
        if residual <= inner_tol:
            return y
        if not np.isfinite(residual):
            # no later iterate can recover from a non-finite one
            raise ConvergenceError(
                f"inner solver went non-finite at iteration {iteration}; "
                f"last finite residual {last_finite:.3e}",
                residual=last_finite, iterations=iteration, beta=beta)
        active = np.flatnonzero(y > ACTIVE_FLOOR)
        if len(active) < k:
            # lam*beta*(log y_i + 1) = v_i - beta*(A^T A (y-w))_i - nu
            nu = float(grad_amb[active].mean())
            frozen = np.setdiff1d(np.arange(k), active)
            log_y = (v[frozen] - beta * quad_force(y)[frozen] - nu) \
                / (lam * beta) - 1.0
            y = y.copy()
            y[frozen] = np.exp(np.clip(log_y, -745.0, 0.0))
            y = y / y.sum()
            active = np.flatnonzero(y > ACTIVE_FLOOR)
            grad_amb = v - beta * _reg_gradient_ambient(reg, y)
        if len(active) >= 2:
            q = tangent_basis(k, active if len(active) < k else None)
            g_t = q.T @ grad_amb
            h_t = beta * lam * (q.T * (1.0 / y)) @ q
            if ata is not None:
                h_t = h_t + beta * (q.T @ ata @ q)
            try:
                step_t = np.linalg.solve(h_t, g_t)
            except np.linalg.LinAlgError:
                ridge = 1e-12 * float(np.trace(h_t)) / h_t.shape[0]
                step_t = np.linalg.solve(h_t + ridge * np.eye(h_t.shape[0]), g_t)
            direction = q @ step_t
            negative = direction < 0
            t_max = np.inf
            if negative.any():
                t_max = float((y[negative] / -direction[negative]).min())
            t = min(1.0, 0.9 * t_max)
            current = objective(y)
            slack = 1e-12 * (1.0 + abs(current))  # float plateau near optimum
            for _ in range(60):
                cand = y + t * direction
                if np.all(cand > 0) and objective(cand) >= current - slack:
                    break
                t /= 2
            y = np.maximum(y + t * direction, 1e-300)
            y = y / y.sum()
    raise ConvergenceError(
        f"inner solver hit {inner_max_iter} iterations at residual "
        f"{residual:.3e}", residual=residual, iterations=inner_max_iter,
        beta=beta)


def _reg_gradient_ambient(reg, y):
    # ambient representative of the regularizer gradient; the tangent
    # projection downstream removes the constant ambiguity
    lam = 1.0 if reg.kind == "entropy" else reg.lam
    grad = lam * (np.log(y) + 1.0)
    if reg.kind == "quadratic_entropy":
        grad = grad + reg.A.T @ (reg.A @ (y - reg.w))
    return grad


# ---------------------------------------------------------------------------
# flat batched kernel

class FlatKernel:
    """Response map and averaging update on stacked flat joint strategies.

    A batch is a ``(B, sum k)`` array whose rows are concatenated joint
    strategies, player n's block in columns ``slices[n]``.  The game and
    config are checked once, when the kernel is built, and starting points
    once, by :meth:`flatten`; the per-step methods check nothing.
    """

    def __init__(self, game: NormalFormGame, cfg: SmoothedResponseConfig):
        _check_config(game, cfg)
        self.game = game
        self.cfg = cfg
        shape = game.shape
        starts = np.concatenate([[0], np.cumsum(shape)[:-1]]).astype(int)
        self.slices = tuple(slice(int(a), int(a) + k)
                            for a, k in zip(starts, shape))
        # block-wise reductions over all players at once: reduceat per
        # block, then broadcast back to the block's columns
        self._starts = starts
        self._owner = np.repeat(np.arange(len(shape)), shape)
        self._newton = tuple(n for n, r in enumerate(cfg.regularizers)
                             if r.kind != "entropy")
        if game.num_players == 2:
            self._p0t = np.ascontiguousarray(game.payoffs[0].T)
        else:
            # einsum re-plans its contraction on every call when asked to
            # optimize, which costs more than the contraction at these sizes
            axes = "".join(chr(ord("a") + n) for n in range(len(shape)))
            self._specs = tuple(
                axes + "," + ",".join("..." + axes[m] for m in range(len(axes))
                                      if m != n) + "->..." + axes[n]
                for n in range(len(axes)))

    def flatten(self, x: JointStrategy, what="strategy") -> np.ndarray:
        """The concatenated vector of a strategy of this game's shape."""
        if x.shape != self.game.shape:
            raise DimensionError(
                f"{what} shape {x.shape} does not match game shape "
                f"{self.game.shape}")
        return x.concatenated()

    def strategy(self, row: np.ndarray) -> JointStrategy:
        """One row as a (validated) joint strategy."""
        return JointStrategy(tuple(row[s] for s in self.slices))

    def gradients(self, X: np.ndarray) -> np.ndarray:
        """Payoff of each pure action against the other blocks of each row."""
        blocks = [X[:, s] for s in self.slices]
        if len(blocks) == 2:
            parts = [blocks[1] @ self._p0t, blocks[0] @ self.game.payoffs[1]]
        else:
            parts = [np.einsum(spec, tensor,
                               *(b for m, b in enumerate(blocks) if m != n),
                               optimize=False)
                     for n, (spec, tensor) in enumerate(zip(
                         self._specs, self.game.payoffs))]
        return np.concatenate(parts, axis=1)

    def _block_totals(self, ufunc, X):
        return ufunc.reduceat(X, self._starts, axis=1)[:, self._owner]

    def respond(self, X: np.ndarray) -> np.ndarray:
        """The smoothed best response of every row: a block-wise softmax
        for entropy, the per-block argmax solver for other regularizers."""
        cfg = self.cfg
        G = self.gradients(X)
        Y = G / cfg.beta
        Y -= self._block_totals(np.maximum, Y)
        np.exp(Y, out=Y)
        Y /= self._block_totals(np.add, Y)
        # blocks of other regularizers replace their softmax columns
        for n in self._newton:
            s = self.slices[n]
            Y[:, s] = [smoothed_argmax(v, cfg.regularizers[n], cfg.beta,
                                       cfg.inner_tol, cfg.inner_max_iter)
                       for v in G[:, s]]
        return Y

    def mix(self, X: np.ndarray, Y: np.ndarray, eta) -> np.ndarray:
        """Averaging update (1 - eta) X + eta Y; eta is a scalar or a
        ``(B, 1)`` column.  Blocks are renormalized against drift."""
        out = (1.0 - eta) * X + eta * Y
        out /= self._block_totals(np.add, out)
        return out

    def advance(self, X: np.ndarray, eta) -> np.ndarray:
        """One step of the averaging dynamics for every row."""
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
    coordinates with ``as_tangent``.
    """
    _check_config(game, cfg)
    y = smoothed_best_response(game, cfg, x)
    supports = y.supports()
    jac = game_jacobian(game, x, supports=supports)
    n_players = game.num_players
    shape = game.shape
    pinvs = [face_hessian(cfg.regularizers[n], y.blocks[n]).pseudoinverse
             for n in range(n_players)]
    rows = []
    for n in range(n_players):
        row = [(pinvs[n] @ jac.blocks[n][m]) / cfg.beta
               for m in range(n_players)]
        rows.append(row)
    dense = np.block(rows)
    if not as_tangent:
        return dense
    bases = [tangent_basis(k, s) for k, s in zip(shape, supports)]
    big_q = np.zeros((sum(shape), sum(b.shape[1] for b in bases)))
    row0, col0 = 0, 0
    for b in bases:
        big_q[row0:row0 + b.shape[0], col0:col0 + b.shape[1]] = b
        row0 += b.shape[0]
        col0 += b.shape[1]
    return big_q.T @ dense @ big_q


# ---------------------------------------------------------------------------
# equilibrium solver

def find_smoothed_equilibrium(game: NormalFormGame, cfg: SmoothedResponseConfig,
                              x0: JointStrategy = None, outer_tol=1e-10,
                              max_iter=100_000) -> SmoothedEquilibrium:
    """Locate a fixed point of the smoothed response map.

    Runs x <- (1 - eta) x + eta Phi(x) with adaptive damping: eta halves
    when the residual grows, grows by 1.2x (capped at 1) when it shrinks.
    Stops when the sup-norm residual reaches outer_tol.  A residual that
    fails to improve by the stagnation factor over a full window raises a
    cycling error — near instability the iteration orbits instead of
    converging, and smaller beta only sharpens that.
    """
    kernel = FlatKernel(game, cfg)
    if not outer_tol > 0:
        raise ArgumentError("outer_tol must be positive")
    x = kernel.flatten(x0 if x0 is not None else uniform_strategy(game.shape),
                       "x0")[None, :]

    eta = 1.0
    prev_residual = np.inf
    best_residual = np.inf
    best_point = x
    marker = np.inf
    stall = 0
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
        if residual < STAGNATION_FACTOR * marker:
            marker = residual
            stall = 0
        else:
            stall += 1
            if stall >= STAGNATION_WINDOW:
                raise CyclingError(
                    f"residual stagnated near {best_residual:.3e} for "
                    f"{STAGNATION_WINDOW} steps at beta={cfg.beta:g}; the "
                    f"iteration appears to be orbiting rather than "
                    f"converging", residual=best_residual,
                    iterations=iteration, beta=cfg.beta,
                    last_point=kernel.strategy(best_point[0]))
        # the relative band keeps ulp-level jitter at tiny eta from biasing
        # the halve/grow walk into collapse
        if residual <= prev_residual * (1.0 + 1e-12):
            eta = min(1.0, eta * 1.2)
        else:
            eta = eta / 2
        prev_residual = residual
        x = kernel.mix(x, y, eta)
    raise ConvergenceError(
        f"no fixed point within {max_iter} iterations; best residual "
        f"{best_residual:.3e}", residual=best_residual, iterations=max_iter,
        beta=cfg.beta, last_point=kernel.strategy(best_point[0]))


def homotopy_trace(game: NormalFormGame, cfg: SmoothedResponseConfig,
                   beta_schedule, x0: JointStrategy = None, outer_tol=1e-10,
                   max_iter=100_000):
    """Warm-started equilibrium continuation along a decreasing schedule.

    Returns one SmoothedEquilibrium per beta.  Which equilibrium the trace
    approaches in multi-equilibrium games is recorded, never asserted.
    """
    schedule = [float(b) for b in beta_schedule]
    if not schedule:
        raise ArgumentError("beta_schedule must be nonempty")
    if any(b <= 0 for b in schedule):
        raise ArgumentError("beta_schedule entries must be positive")
    if any(b2 >= b1 for b1, b2 in zip(schedule, schedule[1:])):
        raise ArgumentError("beta_schedule must be strictly decreasing")
    trace = []
    x = x0
    for beta in schedule:
        cfg_b = dataclasses.replace(cfg, beta=beta)
        try:
            eq = find_smoothed_equilibrium(game, cfg_b, x, outer_tol=outer_tol,
                                           max_iter=max_iter)
        except ConvergenceError as err:
            raise type(err)(
                f"homotopy failed at beta={beta:g}: {err.args[0]}",
                residual=err.residual, iterations=err.iterations, beta=beta,
                last_point=err.last_point) from err
        trace.append(eq)
        x = eq.point
    return trace
