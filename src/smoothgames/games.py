"""N-player normal-form games as dense payoff tensors.

Utilities are multilinear contractions of per-player payoff tensors against
the joint mixed strategy, made here alone: gradients (and utilities, their
dot with the own block) by a :func:`gradient_plan`, at a point or a stack of
points, the cross-derivative blocks of the game Jacobian by one chain of
stacked products per player in :func:`jacobian_blocks`, and the coalition
payoffs of the grid oracles by :func:`contract`, which keeps any set of
players' axes.  All derivative objects (gradients, cross second
derivatives, the game Jacobian) are kept in ambient coordinates; tangent-
space versions are obtained by composing with the centering projection
``I - (1/k) 11^T``, so that one coordinate convention is shared across the
whole package.  Per-player blocks of concatenated vectors and matrices are
laid out by :func:`block_slices` and :func:`block_diag`.  Quasi-strictness
and the reduction of a game to the supports of a quasi-strict equilibrium
are operations on the Nash gap and best responses, so they live here too.
"""

from __future__ import annotations

import json
import string
from dataclasses import dataclass
from importlib import resources

import numpy as np

try:  # what np.einsum calls without optimize, minus its dispatch layers
    from numpy._core.multiarray import c_einsum as einsum
except ImportError:  # a numpy that moved it: np.einsum, same results
    einsum = np.einsum

from .errors import (ArgumentError, DimensionError, DomainError, ParseError,
                     ResourceError, check_array, check_count, check_index,
                     check_path, check_real, check_sequence, check_type)

SIMPLEX_SUM_TOL = 1e-12
TIE_TOL = 1e-9
MAX_TENSOR_ENTRIES = 10 ** 7


# ---------------------------------------------------------------------------
# simplex calculus and block layout helpers

def simplex_point(x, name="x") -> np.ndarray:
    """x as a float vector on the probability simplex: see ``check_array``
    for conversion and shape errors; a NaN or negative entry, or a sum more
    than ``SIMPLEX_SUM_TOL`` from 1 (an infinite one too), is a DomainError.
    """
    x = check_array(name, x, (None,), finite=False)
    if not x.min(initial=0.0) >= 0:  # NaN fails this test too
        raise DomainError(f"{name} has negative or NaN entries")
    if abs(x.sum() - 1.0) > SIMPLEX_SUM_TOL:
        raise DomainError(f"{name} sums to {x.sum():.17g}, not 1")
    return x


def _owned(block) -> np.ndarray:
    """A read-only copy of a checked block, so that no later write to the
    array it came from, or through the block itself, undoes the check."""
    block = block.copy()
    block.setflags(write=False)
    return block


def support_indices(k, support=None, name="support") -> np.ndarray:
    """The actions of a support of a k-action player as an index array
    (all k actions if None): distinct actions, each in ``[0, k)``, else an
    ArgumentError naming ``name``.  A one-dimensional integer array is
    checked in one vectorized pass; anything else, or an array that fails
    that pass, entry by entry, so that the error names the bad entry."""
    check_count("action count", k, positive=True)
    if support is None:
        return np.arange(k)
    if (isinstance(support, np.ndarray) and support.ndim == 1
            and issubclass(support.dtype.type, np.integer)):
        actions = support.astype(int)
        try:  # bincount refuses a negative entry, and grows past k
            counts = np.bincount(actions, minlength=k)
        except ValueError:
            counts = ()
        if len(counts) == k and not np.count_nonzero(counts > 1):
            return actions
    actions = [check_index(f"{name} entry", i, k)
               for i in check_sequence(name, support)]
    if len(set(actions)) < len(actions):
        raise ArgumentError(f"{name} repeats an action: {actions}")
    return np.array(actions, dtype=int)


def centering_projection(k: int) -> np.ndarray:
    """Orthogonal projection of R^k onto the zero-sum tangent space."""
    return face_projection(k, None)


def face_projection(k: int, support) -> np.ndarray:
    """Centering projection onto the tangent space of the face Delta_S (S
    all actions if None); rows and columns outside S are zero."""
    support = support_indices(k, support)
    return _face_projections(np.isin(np.arange(k), support)[None])[0]


def _face_projections(masks) -> np.ndarray:
    """Stacked face projections for a ``(B, k)`` boolean stack of faces;
    an empty face projects to zero."""
    f = masks.astype(float)
    size = np.maximum(f.sum(axis=1), 1.0)[:, None, None]
    return f[:, :, None] * (np.eye(f.shape[1]) - f[:, None, :] / size)


def tangent_basis(k: int, support=None) -> np.ndarray:
    """Orthonormal basis (columns) of the zero-sum subspace of a face.

    With full support this is a k x (k-1) matrix Q with Q^T Q = I and
    1^T Q = 0.  For a face it spans vectors supported on the face that sum
    to zero; a singleton face has an empty basis.
    """
    return _tangent_basis(k, support_indices(k, support))


def face_bases(shape, supports) -> list:
    """Per player of ``shape``, the :func:`tangent_basis` of its face,
    from checked supports (index arrays, as :func:`support_indices`
    returns them).  Players with the same action count and support share
    one read-only basis."""
    shared, bases = {}, []
    for k, s in zip(shape, supports):
        key = (k, s.tobytes())
        if key not in shared:
            shared[key] = _tangent_basis(k, s)
            shared[key].setflags(write=False)
        bases.append(shared[key])
    return bases


def _tangent_basis(k, support) -> np.ndarray:
    """:func:`tangent_basis` on a checked index array of a support."""
    s = len(support)
    if s <= 1:
        return np.zeros((k, 0))
    ones = np.ones((s, 1)) / np.sqrt(s)
    q, _ = np.linalg.qr(np.hstack([ones, np.eye(s)[:, : s - 1]]))
    basis = np.zeros((k, s - 1))
    basis[support, :] = q[:, 1:]
    return basis


def block_slices(dims) -> tuple:
    """Slices of consecutive blocks of the given sizes in a concatenation."""
    slices, start = [], 0
    for d in dims:
        slices.append(slice(start, start + int(d)))
        start += int(d)
    return tuple(slices)


def block_diag(blocks) -> np.ndarray:
    """Block-diagonal matrix of (possibly rectangular, possibly empty) blocks.

    Blocks may carry leading stack axes, which broadcast against each
    other; the result is then one block-diagonal matrix per stack entry.
    """
    rows = block_slices(b.shape[-2] for b in blocks)
    cols = block_slices(b.shape[-1] for b in blocks)
    lead = np.broadcast_shapes(*(b.shape[:-2] for b in blocks))
    out = np.zeros(lead + (rows[-1].stop, cols[-1].stop))
    for r, c, b in zip(rows, cols, blocks):
        out[..., r, c] = b
    return out


# ---------------------------------------------------------------------------
# payoff contractions against strategy blocks (no other module makes one)

def gradient_plan(tensor, n) -> tuple:
    """How :func:`planned_gradient` contracts player n's payoff tensor
    against the other players' blocks.

    Returns ``(tensor, back, front)``: the tensor, C-contiguous and with a
    leading unit axis, then the other players' axes as ``(player, action
    count)`` pairs, the ``back`` ones from the last axis inward and then
    the ``front`` ones from the first axis on.
    """
    shape = tensor.shape
    return (np.ascontiguousarray(tensor)[None],
            tuple((m, shape[m]) for m in range(len(shape) - 1, n, -1)),
            tuple((m, shape[m]) for m in range(n)))


def planned_gradient(plan, blocks) -> np.ndarray:
    """A player's ambient gradient at a stack of points, by its
    :func:`gradient_plan`: ``blocks[m]`` is a ``(B, k_m)`` stack of player
    m's strategies, and the result a ``(B, k_n)`` stack.  Every product is
    a stacked one, one per row, so a row's bits never depend on the stack.
    """
    part, back, front = plan
    for m, k in back:
        part = np.matmul(part.reshape(len(part), -1, k), blocks[m][:, :, None])
    for m, k in front:
        part = np.matmul(blocks[m][:, None, :], part.reshape(len(part), k, -1))
    return part.reshape(len(part), -1)


def contract(tensor, blocks, keep) -> np.ndarray:
    """Contract a payoff tensor against the blocks, which may carry leading
    stack axes, of every player not in ``keep``: the stack axes, then one
    axis per kept player in ``keep``'s order (with every player kept, the
    tensor's axes in that order, which broadcast over any stack).  One
    einsum, for the grid oracles' coalitions; gradients and Jacobian blocks
    take their own row-wise products."""
    others = [p for p in range(tensor.ndim) if p not in keep]
    if not others:
        return np.transpose(tensor, keep)
    axes = string.ascii_letters[:tensor.ndim]
    spec = (axes + "," + ",".join("..." + axes[p] for p in others)
            + "->..." + "".join(axes[p] for p in keep))
    return einsum(spec, tensor, *(blocks[p] for p in others))


# ---------------------------------------------------------------------------
# core types

@dataclass(frozen=True)
class NormalFormGame:
    """An N-player game given by one payoff tensor per player.

    ``payoffs[n]`` has shape ``(k_1, ..., k_N)`` and holds the utility of
    player ``n`` at each pure profile.  All tensors share one shape.
    """

    payoffs: tuple
    name: str = ""

    def __post_init__(self):
        tensors = tuple(check_array(f"tensor {n}", t) for n, t in
                        enumerate(check_sequence("payoffs", self.payoffs)))
        object.__setattr__(self, "payoffs", tensors)
        if not isinstance(self.name, str):
            raise ArgumentError(f"name must be a string, got {self.name!r}")
        if len(tensors) < 2:
            raise DimensionError("a game needs at least two players")
        shape = tensors[0].shape
        if len(shape) != len(tensors):
            raise DimensionError(
                f"{len(tensors)} players but tensors have {len(shape)} axes")
        # k = 1 blocks are degenerate but arise from support reduction at
        # pure equilibria, so only empty action sets are rejected
        if any(k < 1 for k in shape):
            raise DimensionError("every player needs at least one action")
        for n, t in enumerate(tensors):
            if t.shape != shape:
                raise DimensionError(
                    f"tensor {n} has shape {t.shape}, expected {shape}")
        if int(np.prod(shape)) > MAX_TENSOR_ENTRIES:
            raise ResourceError(
                f"tensor shape {tuple(shape)} exceeds "
                f"{MAX_TENSOR_ENTRIES} entries")

    @property
    def num_players(self) -> int:
        return len(self.payoffs)

    @property
    def shape(self) -> tuple:
        return self.payoffs[0].shape


@dataclass(frozen=True)
class JointStrategy:
    """One mixed strategy per player; each block lies on its simplex."""

    blocks: tuple

    def __post_init__(self):
        blocks = tuple(_owned(simplex_point(b, f"block {n}")) for n, b in
                       enumerate(check_sequence("blocks", self.blocks)))
        if not blocks:
            raise DimensionError("a strategy needs at least one player")
        object.__setattr__(self, "blocks", blocks)

    @property
    def shape(self) -> tuple:
        return tuple(len(b) for b in self.blocks)

    @property
    def is_interior(self) -> bool:
        return all(np.all(b > 0) for b in self.blocks)

    def supports(self) -> tuple:
        """Indices with positive probability, per player."""
        return tuple(np.flatnonzero(b > 0) for b in self.blocks)

    def concatenated(self) -> np.ndarray:
        return np.concatenate(self.blocks)


def strategy_rows(stack, shape) -> tuple:
    """The rows of a ``(..., sum k)`` stack of concatenated joint strategies
    of the given shape, in C order over the leading axes, as JointStrategy
    objects checked in one pass.

    A row fails where JointStrategy fails: a NaN or negative entry, or a
    block summing to more than ``SIMPLEX_SUM_TOL`` from 1.  Each block's
    sum is a row-wise reduce over its columns, the same sum as the block's
    own ``sum()``, and the first row that fails is handed to JointStrategy,
    which raises its DomainError.  The stack is copied once and made
    read-only; the strategies' blocks are views of that copy, so no row is
    checked or copied again.
    """
    slices = block_slices(shape)
    width = slices[-1].stop
    stack = np.array(stack, dtype=float)
    if stack.shape[-1:] != (width,):
        raise DimensionError(f"stack has shape {stack.shape}, expected rows "
                             f"of {width} entries")
    stack.setflags(write=False)
    rows = stack.reshape(-1, width)
    bad = np.zeros(len(rows), dtype=bool)
    for s in slices:
        block = rows[:, s]
        bad |= ~(block.min(axis=1, initial=0.0) >= 0)  # NaN fails too
        bad |= np.abs(block.sum(axis=1) - 1.0) > SIMPLEX_SUM_TOL
    for i in np.flatnonzero(bad):  # raises at the first bad row
        JointStrategy(tuple(rows[i, s] for s in slices))
    out = []
    for blocks in zip(*(list(rows[:, s]) for s in slices)):
        x = object.__new__(JointStrategy)
        object.__setattr__(x, "blocks", blocks)
        out.append(x)
    return tuple(out)


def uniform_strategy(shape) -> JointStrategy:
    return JointStrategy(tuple(
        np.full(check_count("action count", k, positive=True), 1.0 / k)
        for k in check_sequence("shape", shape)))


def pure_strategy(shape, indices) -> JointStrategy:
    shape = check_sequence("shape", shape)
    indices = check_sequence("indices", indices)
    if len(indices) != len(shape):
        raise DimensionError("one pure action index per player required")
    blocks = []
    for k, i in zip(shape, indices):
        b = np.zeros(check_count("action count", k, positive=True))
        b[check_index("action index", i, k)] = 1.0
        blocks.append(b)
    return JointStrategy(tuple(blocks))


def replace_block(x: JointStrategy, n: int, block) -> JointStrategy:
    check_index("player", n, len(check_type("x", x, JointStrategy).blocks))
    blocks = list(x.blocks)
    blocks[n] = block
    return JointStrategy(tuple(blocks))


def perturb_strategy(x: JointStrategy, radius: float, rng) -> JointStrategy:
    """Sample a nearby interior point in the inf-ball, clipped to the simplex
    (every coordinate at least 1e-9 before renormalizing)."""
    blocks = []
    for b in x.blocks:
        cand = b + rng.uniform(-radius, radius, size=len(b))
        cand = np.maximum(cand, 1e-9)
        blocks.append(cand / cand.sum())
    return JointStrategy(tuple(blocks))


@dataclass(frozen=True)
class TangentVector:
    """One zero-sum direction per player (a joint tangent vector)."""

    blocks: tuple

    def __post_init__(self):
        blocks = tuple(_owned(check_array(f"block {n}", b, (None,),
                                          finite=False))
                       for n, b in enumerate(check_sequence("blocks",
                                                            self.blocks)))
        if not blocks:
            raise DimensionError("a tangent vector needs at least one player")
        object.__setattr__(self, "blocks", blocks)
        for n, b in enumerate(blocks):
            # relative to the largest entry; a non-finite block gives NaN
            scale = max(1.0, float(np.abs(b).max(initial=0.0)))
            if not abs(float(b.sum())) / scale <= SIMPLEX_SUM_TOL:
                raise DomainError(f"block {n} is not centered (sum {b.sum():.3e})")

    def concatenated(self) -> np.ndarray:
        return np.concatenate(self.blocks)


@dataclass(frozen=True)
class StrategicDecomposition:
    """Split f_n(x) = A_n(x_{-n}) . x_n + b_n(x_{-n}).

    ``linear_part`` and ``offset_part`` accept a full JointStrategy and use
    only the opponent blocks.  The offset is the mean pure-strategy payoff,
    which makes the split unique among strategically equivalent ones.
    """

    player: int
    linear_part: object
    offset_part: object


# ---------------------------------------------------------------------------
# operations

def check_match(game: NormalFormGame, x: JointStrategy, *players, name="x"):
    """game is a game, x (the parameter ``name``) a strategy that fits it,
    and each player an index of one of its players."""
    check_type("game", game, NormalFormGame)
    if check_type(name, x, JointStrategy).shape != game.shape:
        raise DimensionError(
            f"strategy shape {x.shape} does not match game shape {game.shape}")
    for n in players:
        check_index("player", n, game.num_players)


def utility(game: NormalFormGame, x: JointStrategy, n: int) -> float:
    """Expected payoff of player n: its gradient dotted with its block."""
    return float(gradient(game, x, n) @ x.blocks[n])


def gradient(game: NormalFormGame, x: JointStrategy, n: int) -> np.ndarray:
    """Ambient gradient of f_n in block n.

    Entry i is the payoff of the pure action i against ``x_{-n}``; subtract
    its mean for the tangent representation.  By the kernel's plan, so bit
    for bit a ``FlatKernel`` gradient row, in a batch of any size.
    """
    check_match(game, x, n)
    return planned_gradient(gradient_plan(game.payoffs[n], n),
                            [b[None] for b in x.blocks])[0]


def cross_hessian(game: NormalFormGame, x: JointStrategy, n: int, m: int) -> np.ndarray:
    """Tangent-projected second cross-derivative of f_n in blocks (n, m).

    Returns ``Pi_n M Pi_m`` where ``M[i, j] = f_n`` with ``x_n := e_i`` and
    ``x_m := e_j``: block (n, m) of :func:`game_jacobian` on the full
    faces.  The (n, n) block is zero by multilinearity, so ``n == m`` is
    rejected.
    """
    check_match(game, x, n, m)
    if n == m:
        raise ArgumentError("diagonal blocks are zero; use n != m")
    return game_jacobian(game, x, (None,) * game.num_players).blocks[n][m]


def strategic_decompose(game: NormalFormGame, n: int) -> StrategicDecomposition:
    """Decompose f_n into centered linear part and scalar offset."""
    check_index("player", n, check_type("game", game,
                                        NormalFormGame).num_players)

    def linear_part(x: JointStrategy) -> np.ndarray:
        g = gradient(game, x, n)
        return g - g.mean()

    def offset_part(x: JointStrategy) -> float:
        return float(gradient(game, x, n).mean())

    return StrategicDecomposition(player=n, linear_part=linear_part,
                                  offset_part=offset_part)


@dataclass(frozen=True)
class CanonicalForm:
    """A game recentred at a base point with non-strategic parts dropped.

    ``game`` holds payoff tensors centered along each owner's own axis, so
    every utility is purely strategic; ``base_point`` is the origin of the
    tangent coordinates.  Utilities of the canonical form agree with the
    strategic components of the source game up to strategic equivalence.
    """

    game: NormalFormGame
    base_point: JointStrategy

    def utility(self, z: TangentVector, n: int) -> float:
        """Strategic utility at tangent coordinates z (x = base + z): z
        needs one finite block per player, of that player's length."""
        check_index("player", n, self.game.num_players)
        shape = self.game.shape
        if len(check_type("z", z, TangentVector).blocks) != len(shape):
            raise DimensionError(f"z has {len(z.blocks)} blocks, expected "
                                 f"one per player ({len(shape)})")
        blocks = [b + check_array(f"z block {m}", d, (k,))
                  for m, (b, d, k) in enumerate(
                      zip(self.base_point.blocks, z.blocks, shape))]
        plan = gradient_plan(self.game.payoffs[n], n)
        return float(planned_gradient(plan, [b[None] for b in blocks])[0]
                     @ blocks[n])


def to_canonical(game: NormalFormGame, x_star: JointStrategy) -> CanonicalForm:
    """Recenter the game at an interior point and drop non-strategic parts.

    Centering tensor n along its own axis removes exactly the offset
    b_n(x_{-n}); cross derivatives and projected gradients are unchanged.
    """
    check_match(game, x_star, name="x_star")
    if not x_star.is_interior:
        raise DomainError("canonical form needs an interior base point")
    centered = tuple(t - t.mean(axis=n, keepdims=True)
                     for n, t in enumerate(game.payoffs))
    name = f"{game.name}:canonical" if game.name else "canonical"
    return CanonicalForm(game=NormalFormGame(centered, name=name),
                         base_point=x_star)


def best_response_values(game: NormalFormGame, x: JointStrategy, n: int):
    """Best pure-response value and the tie set within 1e-9."""
    return _best_responses(gradient(game, x, n))


def _best_responses(values):
    """The best of a player's pure-action payoffs, and the actions within
    TIE_TOL of it."""
    best = float(values.max())
    return best, np.flatnonzero(values >= best - TIE_TOL)


def epsilon_nash_gap(game: NormalFormGame, x: JointStrategy) -> float:
    """Largest unilateral improvement available to any player.

    The inner maximum over deviations is attained at a vertex by
    multilinearity, so only pure deviations are scanned.
    """
    check_match(game, x)
    return _nash_gap(x, _gradients(game, x))


def _gradients(game, x) -> list:
    """Every player's ambient gradient at x, a strategy that fits game."""
    rows = [b[None] for b in x.blocks]
    return [planned_gradient(gradient_plan(t, n), rows)[0]
            for n, t in enumerate(game.payoffs)]


def _nash_gap(x, values) -> float:
    """The Nash gap at x from every player's gradient there."""
    gap = 0.0
    for v, b in zip(values, x.blocks):
        gap = max(gap, float(v.max()) - float(np.dot(v, b)))
    return gap


# ---------------------------------------------------------------------------
# quasi-strictness and reduction

@dataclass(frozen=True)
class QuasiStrictResult:
    status: str  # "quasi_strict" | "not_quasi_strict" | "not_nash"
    gap: float
    player: int = None
    index: int = None


def quasi_strict_check(game: NormalFormGame, x_star: JointStrategy,
                       gap_tol=1e-9) -> QuasiStrictResult:
    """Check that the support equals the best-response set for every player."""
    check_match(game, x_star, name="x_star")
    check_real("gap_tol", gap_tol, positive=False)
    values = _gradients(game, x_star)
    gap = _nash_gap(x_star, values)
    if gap > gap_tol:
        return QuasiStrictResult(status="not_nash", gap=gap)
    for n in range(game.num_players):
        _, ties = _best_responses(values[n])
        support = set(np.flatnonzero(x_star.blocks[n] > 0).tolist())
        tie_set = set(ties.tolist())
        missing = sorted(tie_set - support)
        if missing:
            return QuasiStrictResult(status="not_quasi_strict", gap=gap,
                                     player=n, index=missing[0])
    return QuasiStrictResult(status="quasi_strict", gap=gap)


def reduce_game(game: NormalFormGame, x_star: JointStrategy):
    """Restrict the game to the supports of a quasi-strict equilibrium.

    Returns (reduced game, index maps); the image of x_star is verified to
    be an interior equilibrium of the reduced game.
    """
    check = quasi_strict_check(game, x_star)
    if check.status != "quasi_strict":
        detail = check.status
        if check.player is not None:
            detail += f" (player {check.player}, action {check.index})"
        raise DomainError(f"reduce_game needs a quasi-strict point: {detail}")
    supports = x_star.supports()
    reduced_tensors = tuple(t[np.ix_(*supports)] for t in game.payoffs)
    name = f"{game.name}:reduced" if game.name else "reduced"
    reduced = NormalFormGame(reduced_tensors, name=name)
    image = restrict_strategy(x_star, supports)
    if not image.is_interior:
        raise DomainError("image of x_star is not interior after reduction")
    if epsilon_nash_gap(reduced, image) > 1e-9:
        raise DomainError("image of x_star is not an equilibrium of the "
                          "reduced game")
    return reduced, supports


def _supports(shape, supports) -> tuple:
    """One index array per player of a game of this shape."""
    supports = check_sequence("supports", supports)
    if len(supports) != len(shape):
        raise DimensionError(
            f"{len(supports)} supports for {len(shape)} players")
    return tuple(support_indices(k, s) for k, s in zip(shape, supports))


def restrict_strategy(x: JointStrategy, supports) -> JointStrategy:
    check_type("x", x, JointStrategy)
    blocks = []
    for b, s in zip(x.blocks, _supports(x.shape, supports)):
        restricted = b[s]
        blocks.append(restricted / restricted.sum())
    return JointStrategy(tuple(blocks))


def embed_strategy(x: JointStrategy, supports, shape) -> JointStrategy:
    check_type("x", x, JointStrategy)
    shape = check_sequence("shape", shape)
    supports = _supports(shape, supports)
    if x.shape != tuple(len(s) for s in supports):
        raise DimensionError(
            f"strategy shape {x.shape} does not match the support sizes")
    blocks = []
    for b, s, k in zip(x.blocks, supports, shape):
        full = np.zeros(k)
        full[s] = b
        blocks.append(full)
    return JointStrategy(tuple(blocks))


# ---------------------------------------------------------------------------
# game Jacobian

@dataclass(frozen=True)
class GameJacobian:
    """Blocks (n, m) = Pi_n D^2_{nm} f_n(x) Pi_m with zero diagonal.

    On boundary points the centering projections are those of the faces of
    supp(x), so the Jacobian acts on the joint tangent space of the face.
    """

    point: JointStrategy
    blocks: tuple
    supports: tuple

    @property
    def num_players(self) -> int:
        return len(self.blocks)

    @property
    def shape(self) -> tuple:
        return tuple(b.shape[0] for b in (row[0] for row in self.blocks))

    def dense(self) -> np.ndarray:
        return np.concatenate([np.concatenate(row, axis=1)
                               for row in self.blocks])

    def tangent_bases(self) -> list:
        """Per player, an orthonormal basis of its face's tangent space.
        Players with the same action count and support share one
        read-only basis (see :func:`face_bases`)."""
        shape = self.point.shape
        return face_bases(shape, [support_indices(k, s)
                                  for k, s in zip(shape, self.supports)])

    def tangent(self):
        """Reduce to face-tangent coordinates, Q^T J Q with Q the block
        diagonal of :meth:`tangent_bases` (as response Jacobians reduce).

        Returns (J_t, bases, dims): J_t acts on the concatenation of
        per-player tangent coordinate blocks of sizes dims, and bases[n]
        maps block n's tangent coordinates back to ambient coordinates.
        """
        bases = self.tangent_bases()
        q = block_diag(bases)
        return q.T @ self.dense() @ q, bases, [b.shape[1] for b in bases]


def game_jacobian(game: NormalFormGame, x: JointStrategy,
                  supports=None) -> GameJacobian:
    """Assemble the game Jacobian at x on the faces of its supports.

    ``supports`` overrides the faces the blocks are projected onto (the
    smoothed-response Jacobian evaluates cross-derivatives at x but on the
    supports of the response point).
    """
    check_match(game, x)
    if supports is None:
        supports = x.supports()
    else:
        supports = _supports(game.shape, supports)
    masks = [np.zeros((1, k), dtype=bool) for k in game.shape]
    for mask, s in zip(masks, supports):
        mask[0, s] = True
    blocks = jacobian_blocks(game, [b[None] for b in x.blocks], masks)
    return GameJacobian(point=x,
                        blocks=tuple(tuple(b[0] for b in row)
                                     for row in blocks),
                        supports=supports)


def jacobian_blocks(game: NormalFormGame, blocks, masks) -> tuple:
    """Game Jacobian blocks at a stack of points, on stacked faces.

    ``blocks[n]`` is a ``(B, k_n)`` stack of player n's strategies and
    ``masks[n]`` a boolean ``(B, k_n)`` stack of the faces to project onto.
    Returns rows of ``(B, k_n, k_m)`` stacks ``Pi_n D^2_{nm} f_n Pi_m``,
    zero for n == m.

    All of player n's blocks come from one chain of stacked products over
    its payoff tensor, with axis n moved in front: the other axes are
    contracted from the last inward, and block (n, m) branches off when
    m is the last axis left, its axes between n and m then contracted
    from the front.  Every product is a stacked one, one per row, so a
    row's bits never depend on the stack; with two players no block
    contracts anything.
    """
    projections = [_face_projections(mask) for mask in masks]
    shape = game.shape
    rows = []
    for n, p_n in enumerate(projections):
        others = [m for m in range(len(shape)) if m != n]
        part = game.payoffs[n].transpose([n] + others)[None]
        # a two-player block is this view itself (a copy would change the
        # bits of the BLAS products that project it); contractions reshape
        # one C-contiguous copy
        if len(others) > 1:
            part = np.ascontiguousarray(part)
        row = [None] * len(shape)
        row[n] = np.zeros(p_n.shape)
        while others:  # part has the axes n, *others
            m = others.pop()
            branch = part
            for p in others:
                branch = np.matmul(blocks[p][:, None, None, :], branch.reshape(
                    len(branch), shape[n], shape[p], -1))
            row[m] = (p_n @ branch.reshape(len(branch), shape[n], shape[m])
                      @ projections[m])
            if others:
                part = np.matmul(part.reshape(len(part), -1, shape[m]),
                                 blocks[m][:, :, None])
        rows.append(tuple(row))
    return tuple(rows)


# ---------------------------------------------------------------------------
# game file format

def game_to_dict(game: NormalFormGame) -> dict:
    check_type("game", game, NormalFormGame)
    return {
        "players": game.num_players,
        "shape": list(game.shape),
        "payoffs": [t.ravel(order="C").tolist() for t in game.payoffs],
        "name": game.name,
    }


def game_from_dict(data: dict) -> NormalFormGame:
    try:
        players = check_count("players", data["players"], positive=True)
        shape = tuple(check_count("action count", k, positive=True)
                      for k in check_sequence("shape", data["shape"]))
        flat = check_sequence("payoffs", data["payoffs"])
        name = str(data.get("name", ""))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed game description: {exc}") from exc
    if len(flat) != players:
        raise ParseError(
            f"expected {players} payoff arrays, found {len(flat)}")
    size = int(np.prod(shape))
    # reject oversized declarations before materializing any tensor
    if size > MAX_TENSOR_ENTRIES:
        raise ResourceError(
            f"tensor shape {shape} exceeds {MAX_TENSOR_ENTRIES} entries")
    try:  # a bad array, or one of the wrong size
        return NormalFormGame(tuple(
            check_array(f"payoff array {n}", entries).reshape(shape)
            for n, entries in enumerate(flat)), name=name)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def save_game(game: NormalFormGame, path):
    data = game_to_dict(game)
    with open(check_path("path", path), "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def load_game(path) -> NormalFormGame:
    """Load a game from a JSON file or from the bundled set by name."""
    try:
        with open(check_path("path", path)) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        bundled = bundled_game_names()
        stem = str(path).removesuffix(".json")
        if stem in bundled:
            return bundled_game(stem)
        raise
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return game_from_dict(data)


def bundled_game_names():
    root = resources.files("smoothgames").joinpath("data")
    return sorted(p.name.removesuffix(".json")
                  for p in root.iterdir() if p.name.endswith(".json"))


def bundled_game(name: str) -> NormalFormGame:
    path = resources.files("smoothgames").joinpath("data", f"{name}.json")
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError:
        raise ArgumentError(
            f"no bundled game {name!r}; available: {bundled_game_names()}")
    return game_from_dict(data)
