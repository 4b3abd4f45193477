"""N-player normal-form games as dense payoff tensors.

Utilities are multilinear contractions of per-player payoff tensors against
the joint mixed strategy.  All derivative objects (gradients, cross second
derivatives) are kept in ambient coordinates; tangent-space versions are
obtained by composing with the centering projection ``I - (1/k) 11^T``, so
that one coordinate convention is shared across the whole package.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import (ArgumentError, DimensionError, DomainError, ParseError,
                     ResourceError)

SIMPLEX_SUM_TOL = 1e-12
TIE_TOL = 1e-9
MAX_TENSOR_ENTRIES = 10 ** 7


# ---------------------------------------------------------------------------
# simplex calculus helpers

def centering_projection(k: int) -> np.ndarray:
    """Orthogonal projection of R^k onto the zero-sum tangent space."""
    return np.eye(k) - np.ones((k, k)) / k


def project_tangent(v: np.ndarray) -> np.ndarray:
    """Center a vector: subtract its mean (the action of the projection)."""
    v = np.asarray(v, dtype=float)
    return v - v.mean()


def face_projection(k: int, support) -> np.ndarray:
    """Centering projection onto the tangent space of the face Delta_S.

    Rows and columns outside the support are zero.
    """
    support = np.asarray(support, dtype=int)
    s = len(support)
    p = np.zeros((k, k))
    if s == 0:
        return p
    p[np.ix_(support, support)] = np.eye(s) - np.ones((s, s)) / s
    return p


def tangent_basis(k: int, support=None) -> np.ndarray:
    """Orthonormal basis (columns) of the zero-sum subspace of a face.

    With full support this is a k x (k-1) matrix Q with Q^T Q = I and
    1^T Q = 0.  For a face it spans vectors supported on the face that sum
    to zero; a singleton face has an empty basis.
    """
    if support is None:
        support = np.arange(k)
    support = np.asarray(support, dtype=int)
    s = len(support)
    if s <= 1:
        return np.zeros((k, 0))
    ones = np.ones((s, 1)) / np.sqrt(s)
    q, _ = np.linalg.qr(np.hstack([ones, np.eye(s)[:, : s - 1]]))
    basis = np.zeros((k, s - 1))
    basis[support, :] = q[:, 1:]
    return basis


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
        tensors = tuple(np.asarray(t, dtype=float) for t in self.payoffs)
        object.__setattr__(self, "payoffs", tensors)
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
            if not np.all(np.isfinite(t)):
                raise ArgumentError(f"tensor {n} has non-finite entries")
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
        blocks = tuple(np.asarray(b, dtype=float) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        for n, b in enumerate(blocks):
            if b.ndim != 1:
                raise DimensionError(f"block {n} is not a vector")
            if not np.all(np.isfinite(b)):
                raise DomainError(f"block {n} has non-finite entries")
            if np.any(b < 0):
                raise DomainError(f"block {n} has negative entries")
            if abs(b.sum() - 1.0) > SIMPLEX_SUM_TOL:
                raise DomainError(
                    f"block {n} sums to {b.sum():.17g}, not 1")

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


def uniform_strategy(shape) -> JointStrategy:
    return JointStrategy(tuple(np.full(k, 1.0 / k) for k in shape))


def pure_strategy(shape, indices) -> JointStrategy:
    if len(indices) != len(shape):
        raise DimensionError("one pure action index per player required")
    blocks = []
    for k, i in zip(shape, indices):
        if not 0 <= i < k:
            raise ArgumentError(f"action index {i} out of range for {k}")
        b = np.zeros(k)
        b[i] = 1.0
        blocks.append(b)
    return JointStrategy(tuple(blocks))


def replace_block(x: JointStrategy, n: int, block) -> JointStrategy:
    blocks = list(x.blocks)
    blocks[n] = block
    return JointStrategy(tuple(blocks))


@dataclass(frozen=True)
class TangentVector:
    """One zero-sum direction per player (a joint tangent vector)."""

    blocks: tuple

    def __post_init__(self):
        blocks = tuple(np.asarray(b, dtype=float) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        for n, b in enumerate(blocks):
            if abs(b.sum()) > SIMPLEX_SUM_TOL * max(1.0, np.abs(b).max(initial=0.0)):
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

def _check_match(game: NormalFormGame, x: JointStrategy):
    if x.shape != game.shape:
        raise DimensionError(
            f"strategy shape {x.shape} does not match game shape {game.shape}")


def _contract_except(tensor: np.ndarray, blocks, keep) -> np.ndarray:
    """Contract all axes except those in ``keep`` (given in ascending order)."""
    out = tensor
    # walk axes from the back so earlier axis numbers stay valid
    for axis in reversed(range(len(blocks))):
        if axis in keep:
            continue
        out = np.tensordot(out, blocks[axis], axes=([axis], [0]))
    return out


def utility(game: NormalFormGame, x: JointStrategy, n: int) -> float:
    """Expected payoff of player n: the full multilinear contraction."""
    _check_match(game, x)
    return float(_contract_except(game.payoffs[n], x.blocks, keep=()))


def gradient(game: NormalFormGame, x: JointStrategy, n: int) -> np.ndarray:
    """Ambient gradient of f_n in block n.

    Entry i is the payoff of the pure action i against ``x_{-n}``; compose
    with :func:`project_tangent` for the tangent representation.
    """
    _check_match(game, x)
    return np.asarray(_contract_except(game.payoffs[n], x.blocks, keep=(n,)))


def cross_hessian(game: NormalFormGame, x: JointStrategy, n: int, m: int) -> np.ndarray:
    """Tangent-projected second cross-derivative of f_n in blocks (n, m).

    Returns ``Pi_n M Pi_m`` where ``M[i, j] = f_n`` with ``x_n := e_i`` and
    ``x_m := e_j``.  The (n, n) block of the game Jacobian is zero by
    multilinearity, so ``n == m`` is rejected.
    """
    _check_match(game, x)
    if n == m:
        raise ArgumentError("diagonal blocks are zero; use n != m")
    raw = _contract_except(game.payoffs[n], x.blocks, keep=(n, m))
    if n > m:
        raw = raw.T  # axes come out in ascending order
    k_n, k_m = game.shape[n], game.shape[m]
    return centering_projection(k_n) @ raw @ centering_projection(k_m)


def strategic_decompose(game: NormalFormGame, n: int) -> StrategicDecomposition:
    """Decompose f_n into centered linear part and scalar offset."""

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
        """Strategic utility at tangent coordinates z (x = base + z)."""
        blocks = tuple(b + d for b, d in zip(self.base_point.blocks, z.blocks))
        return float(_contract_except(self.game.payoffs[n], blocks, keep=()))


def to_canonical(game: NormalFormGame, x_star: JointStrategy) -> CanonicalForm:
    """Recenter the game at an interior point and drop non-strategic parts.

    Centering tensor n along its own axis removes exactly the offset
    b_n(x_{-n}); cross derivatives and projected gradients are unchanged.
    """
    _check_match(game, x_star)
    if not x_star.is_interior:
        raise DomainError("canonical form needs an interior base point")
    centered = tuple(t - t.mean(axis=n, keepdims=True)
                     for n, t in enumerate(game.payoffs))
    name = f"{game.name}:canonical" if game.name else "canonical"
    return CanonicalForm(game=NormalFormGame(centered, name=name),
                         base_point=x_star)


def best_response_values(game: NormalFormGame, x: JointStrategy, n: int):
    """Best pure-response value and the tie set within 1e-9."""
    values = gradient(game, x, n)
    best = float(values.max())
    ties = np.flatnonzero(values >= best - TIE_TOL)
    return best, ties


def epsilon_nash_gap(game: NormalFormGame, x: JointStrategy) -> float:
    """Largest unilateral improvement available to any player.

    The inner maximum over deviations is attained at a vertex by
    multilinearity, so only pure deviations are scanned.
    """
    gap = 0.0
    for n in range(game.num_players):
        values = gradient(game, x, n)
        current = float(np.dot(values, x.blocks[n]))
        gap = max(gap, float(values.max()) - current)
    return gap


# ---------------------------------------------------------------------------
# game file format

def game_to_dict(game: NormalFormGame) -> dict:
    return {
        "players": game.num_players,
        "shape": list(game.shape),
        "payoffs": [t.ravel(order="C").tolist() for t in game.payoffs],
        "name": game.name,
    }


def game_from_dict(data: dict) -> NormalFormGame:
    try:
        players = int(data["players"])
        shape = tuple(int(k) for k in data["shape"])
        flat = data["payoffs"]
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
    tensors = []
    for n, entries in enumerate(flat):
        try:
            arr = np.asarray(entries, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ParseError(f"payoff array {n} is not numeric: {exc}") from exc
        if arr.size != size:
            raise ParseError(
                f"payoff array {n} has {arr.size} entries, expected {size}")
        tensors.append(arr.reshape(shape, order="C"))
    try:
        return NormalFormGame(tuple(tensors), name=name)
    except (DimensionError, ArgumentError) as exc:
        raise ParseError(str(exc)) from exc


def save_game(game: NormalFormGame, path):
    with open(path, "w") as fh:
        json.dump(game_to_dict(game), fh, indent=2)
        fh.write("\n")


def load_game(path) -> NormalFormGame:
    """Load a game from a JSON file or from the bundled set by name."""
    try:
        with open(path) as fh:
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
