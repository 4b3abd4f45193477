"""Uniform-stability certificates and refutations for game Jacobians.

The central object is the game Jacobian J(x): the block matrix of tangent-
projected cross-derivatives with zero diagonal blocks.  An equilibrium is
uniformly stable when H^{-1} J has purely imaginary spectrum for every
positive-definite block-diagonal conditioner H.  That quantifier is not
directly decidable, so the verdict rests on a lambda-skew certificate
(sufficient under connectivity and bi-directionality), with sampled and
constructed counterexample witnesses on the refutation side.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb

import numpy as np

from .errors import ArgumentError, DimensionError, DomainError, ResourceError
from .games import (JointStrategy, NormalFormGame, TangentVector,
                    _contract_except, epsilon_nash_gap, face_projection,
                    pure_strategy, tangent_basis, utility)

EDGE_TOL = 1e-10          # Frobenius threshold for interaction-graph edges
SKEW_RESIDUAL_TOL = 1e-8  # certificate feasibility threshold
KERNEL_ANGLE_TOL = 1e-8   # principal-angle threshold for bi-directionality
WITNESS_REAL_TOL = 1e-6   # |Re eig| needed to refute stability
PD_STRETCH_GUARD = 1e-12


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
        return np.block([[self.blocks[n][m] for m in range(self.num_players)]
                         for n in range(self.num_players)])

    def tangent(self):
        """Reduce to face-tangent coordinates.

        Returns (J_t, bases, dims): J_t acts on the concatenation of
        per-player tangent coordinate blocks of sizes dims, and bases[n]
        maps block n's tangent coordinates back to ambient coordinates.
        """
        shape = self.point.shape
        bases = [tangent_basis(k, s) for k, s in zip(shape, self.supports)]
        dims = [b.shape[1] for b in bases]
        total = sum(dims)
        j_t = np.zeros((total, total))
        offs = np.concatenate([[0], np.cumsum(dims)])
        for n in range(self.num_players):
            for m in range(self.num_players):
                if n == m:
                    continue
                j_t[offs[n]:offs[n + 1], offs[m]:offs[m + 1]] = (
                    bases[n].T @ self.blocks[n][m] @ bases[m])
        return j_t, bases, dims


def game_jacobian(game: NormalFormGame, x: JointStrategy,
                  supports=None) -> GameJacobian:
    """Assemble the game Jacobian at x on the faces of its supports.

    ``supports`` overrides the faces the blocks are projected onto (the
    smoothed-response Jacobian evaluates cross-derivatives at x but on the
    supports of the response point).
    """
    if x.shape != game.shape:
        raise DimensionError(
            f"strategy shape {x.shape} does not match game shape {game.shape}")
    n_players = game.num_players
    if supports is None:
        supports = x.supports()
    else:
        supports = tuple(np.asarray(s, dtype=int) for s in supports)
    projections = [face_projection(k, s) for k, s in zip(game.shape, supports)]
    rows = []
    for n in range(n_players):
        row = []
        for m in range(n_players):
            if n == m:
                row.append(np.zeros((game.shape[n], game.shape[n])))
                continue
            raw = _contract_except(game.payoffs[n], x.blocks, keep=(n, m))
            if n > m:
                raw = raw.T
            row.append(projections[n] @ raw @ projections[m])
        rows.append(tuple(row))
    return GameJacobian(point=x, blocks=tuple(rows), supports=supports)


# ---------------------------------------------------------------------------
# interaction graph

@dataclass(frozen=True)
class InteractionGraph:
    """Edges mark nonzero Jacobian blocks between players."""

    edges: frozenset
    connected: bool
    bidirectional: bool


def _kernel_basis(mat: np.ndarray) -> np.ndarray:
    """Orthonormal basis of ker(mat), SVD cutoff 1e-10 relative."""
    if mat.size == 0:
        return np.eye(mat.shape[1])
    u, s, vh = np.linalg.svd(mat)
    cutoff = 1e-10 * (s.max() if s.size else 0.0)
    rank = int(np.sum(s > cutoff))
    return vh[rank:].T


def _max_principal_angle(b1: np.ndarray, b2: np.ndarray) -> float:
    """Largest principal angle between equal-dimension subspaces.

    Computed through sines (projector differences), which stays accurate
    for the tiny angles the bi-directionality test cares about.
    """
    if b1.shape[1] != b2.shape[1]:
        return np.pi / 2
    if b1.shape[1] == 0:
        return 0.0
    s1 = np.linalg.norm(b2 - b1 @ (b1.T @ b2), 2)
    s2 = np.linalg.norm(b1 - b2 @ (b2.T @ b1), 2)
    return float(np.arcsin(min(1.0, max(s1, s2))))


def interaction_graph(jac: GameJacobian) -> InteractionGraph:
    n_players = jac.num_players
    norms = np.array([[np.linalg.norm(jac.blocks[n][m])
                       for m in range(n_players)] for n in range(n_players)])
    edges = frozenset((n, m) for n in range(n_players)
                      for m in range(n_players)
                      if n != m and norms[n, m] > EDGE_TOL)

    # undirected connectivity over all players
    adjacency = [set() for _ in range(n_players)]
    for n, m in edges:
        adjacency[n].add(m)
        adjacency[m].add(n)
    seen = {0}
    frontier = [0]
    while frontier:
        node = frontier.pop()
        for other in adjacency[node]:
            if other not in seen:
                seen.add(other)
                frontier.append(other)
    connected = len(seen) == n_players

    bidirectional = True
    for n in range(n_players):
        for m in range(n, n_players):
            if (n, m) not in edges and (m, n) not in edges:
                continue
            ker_nm = _kernel_basis(jac.blocks[n][m])
            ker_mn_t = _kernel_basis(jac.blocks[m][n].T)
            if _max_principal_angle(ker_nm, ker_mn_t) > KERNEL_ANGLE_TOL:
                bidirectional = False
    return InteractionGraph(edges=edges, connected=connected,
                            bidirectional=bidirectional)


# ---------------------------------------------------------------------------
# lambda-skew certificate

@dataclass(frozen=True)
class SkewCertificate:
    """Positive scalars lambda witnessing lambda_n J_nm = -lambda_m J_mn^T."""

    lambdas: np.ndarray
    residual: float
    feasible: bool


def solve_skew_certificate(jac: GameJacobian) -> SkewCertificate:
    """Estimate lambda by least squares on edges and tree propagation.

    On each edge the scalar a with J_mn ~ -a J_nm^T is the Frobenius least-
    squares fit; skew-feasibility demands a > 0 (a = lambda_m / lambda_n
    with child n, parent m gives lambda_n = a * lambda_m along tree edges).
    The residual is evaluated over all ordered pairs, so non-tree (cycle)
    edges are checked for consistency as well.
    """
    n_players = jac.num_players
    blocks = jac.blocks
    norms = np.array([[np.linalg.norm(blocks[n][m]) for m in range(n_players)]
                      for n in range(n_players)])

    adjacency = [set() for _ in range(n_players)]
    for n in range(n_players):
        for m in range(n_players):
            if n != m and (norms[n, m] > EDGE_TOL or norms[m, n] > EDGE_TOL):
                adjacency[n].add(m)

    lambdas = np.ones(n_players)
    rejected = False
    assigned = [False] * n_players
    for root in range(n_players):
        if assigned[root]:
            continue
        assigned[root] = True
        lambdas[root] = 1.0
        frontier = [root]
        while frontier:
            parent = frontier.pop()
            for child in sorted(adjacency[parent]):
                if assigned[child]:
                    continue
                assigned[child] = True
                # least-squares a with J_{parent,child} ~ -a J_{child,parent}^T
                num = -np.tensordot(blocks[parent][child],
                                    blocks[child][parent].T, axes=2)
                den = norms[child, parent] ** 2
                if den <= EDGE_TOL ** 2 or norms[parent, child] <= EDGE_TOL:
                    # one-sided edge: no finite ratio exists
                    rejected = True
                    lambdas[child] = lambdas[parent]
                else:
                    a = num / den
                    if a <= 0:
                        rejected = True
                        lambdas[child] = lambdas[parent] * max(abs(a), 1e-12)
                    else:
                        lambdas[child] = lambdas[parent] * a
                frontier.append(child)

    lambdas = lambdas / lambdas[0]
    residual = 0.0
    for n in range(n_players):
        for m in range(n_players):
            if n == m:
                continue
            defect = np.linalg.norm(
                lambdas[n] * blocks[n][m] + lambdas[m] * blocks[m][n].T)
            residual = max(residual, defect / (1.0 + norms[n, m]))
    feasible = bool(not rejected and residual <= SKEW_RESIDUAL_TOL)
    return SkewCertificate(lambdas=lambdas, residual=float(residual),
                           feasible=feasible)


# ---------------------------------------------------------------------------
# pd-stretch and bilinear recovery

def pd_stretch(u, v) -> np.ndarray:
    """Positive-definite H with H v = u, which exists iff u^T v > 0.

    Parallel vectors get a multiple of the identity.  Otherwise a basis of
    span{u, v} is rotated so both coordinate pairs are strictly positive
    and H stretches one into the other on that plane, acting as the
    identity on the complement.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape or u.ndim != 1:
        raise DimensionError("u and v must be vectors of equal length")
    if float(u @ v) <= PD_STRETCH_GUARD:
        raise DomainError("pd-stretch requires u^T v > 0")
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    scaled = (nu / nv) * v
    if np.linalg.norm(u - scaled) <= 1e-12 * nu:
        return (nu / nv) * np.eye(len(u))
    q1 = u / nu
    rest = v - (q1 @ v) * q1
    q2 = rest / np.linalg.norm(rest)
    theta = np.arctan2(v @ q2, v @ q1)  # in (0, pi/2) since u^T v > 0
    phi = (np.pi / 2 - theta) / 2
    b1 = np.cos(phi) * q1 - np.sin(phi) * q2
    b2 = np.sin(phi) * q1 + np.cos(phi) * q2
    alpha = np.array([u @ b1, u @ b2])
    beta = np.array([v @ b1, v @ b2])
    h = (np.eye(len(u))
         + (alpha[0] / beta[0] - 1.0) * np.outer(b1, b1)
         + (alpha[1] / beta[1] - 1.0) * np.outer(b2, b2))
    return h


@dataclass(frozen=True)
class BilinearScaleResult:
    """Either a positive scale with A = lam * B, or a sign refutation."""

    lam: float = None
    refuted: bool = False
    witness: tuple = None  # (x, y, x^T A y, x^T B y)


def bilinear_scale_recovery(A, B, tol=1e-9, rng_seed=0) -> BilinearScaleResult:
    """Recover lam > 0 with A = lam * B, or refute by a sign disagreement.

    Follows the constructive argument: diagonalize A by SVD, read the scale
    off the top singular pair, and probe proportionality of the remaining
    singular values with the combinations (u_i + a_i u_1, v_i - a_i v_1),
    a_i = sqrt(sigma_i / sigma_1), whose A-form vanishes identically.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != B.shape:
        raise DimensionError("A and B must have equal shapes")
    norm_a, norm_b = np.linalg.norm(A), np.linalg.norm(B)
    if norm_b == 0.0:
        if norm_a == 0.0:
            raise ArgumentError("B must be nonzero")
        u, s, vh = np.linalg.svd(A)
        witness = (u[:, 0], vh[0], float(s[0]), 0.0)
        return BilinearScaleResult(refuted=True, witness=witness)
    if norm_a == 0.0:
        # zero A against nonzero B: the B-form changes sign or is nonzero
        witness = _sign_witness_search(A, B, rng_seed)
        return BilinearScaleResult(refuted=True, witness=witness)

    u, s, vh = np.linalg.svd(A)
    v = vh.T
    b_top = float(u[:, 0] @ B @ v[:, 0])
    if b_top > 0:
        lam = float(s[0] / b_top)
        if np.linalg.norm(A - lam * B) <= tol * norm_a and lam > 0:
            return BilinearScaleResult(lam=lam)
    witness = _sign_witness_search(A, B, rng_seed)
    return BilinearScaleResult(refuted=True, witness=witness)


def _strictify(A, B, x, y):
    """Push a (0, nonzero) sign pair into a strict disagreement."""
    a_val, b_val = float(x @ A @ y), float(x @ B @ y)
    target = -np.sign(b_val)
    for vec, side in ((A @ y, "x"), (A.T @ x, "y")):
        gain = float(vec @ vec)
        if gain <= 0:
            continue
        # walk until the A-form has sign opposite to the B-form while the
        # B-form keeps its sign
        if side == "x":
            b_slope = float(vec @ B @ y)
        else:
            b_slope = float(x @ B @ vec)
        t_limit = abs(b_val) / (2 * abs(b_slope)) if b_slope != 0 else np.inf
        t = target * min(t_limit, (abs(b_val) + 1.0)) / max(gain, 1.0)
        if t == 0 or not np.isfinite(t):
            t = target * 1e-3
        cand_x = x + t * vec if side == "x" else x
        cand_y = y + t * vec if side == "y" else y
        ca, cb = float(cand_x @ A @ cand_y), float(cand_x @ B @ cand_y)
        if ca * cb < 0:
            return cand_x, cand_y, ca, cb
    return x, y, a_val, b_val


def _sign_witness_search(A, B, rng_seed):
    """Find (x, y) on which the two bilinear forms disagree in sign."""
    scale_a = max(np.linalg.norm(A), 1e-300)
    scale_b = max(np.linalg.norm(B), 1e-300)

    def disagrees(a_val, b_val):
        sa = 0 if abs(a_val) <= 1e-12 * scale_a else np.sign(a_val)
        sb = 0 if abs(b_val) <= 1e-12 * scale_b else np.sign(b_val)
        return sa != sb

    u, s, vh = np.linalg.svd(A)
    v = vh.T
    d = min(A.shape)
    candidates = []
    # diagonal pairs (negative B-value against nonnegative singular value)
    for i in range(d):
        candidates.append((u[:, i], v[:, i]))
    # proportionality probes with vanishing A-form
    if s[0] > 0:
        for i in range(1, d):
            alpha = np.sqrt(s[i] / s[0])
            for sign in (1.0, -1.0):
                candidates.append((u[:, i] + sign * alpha * u[:, 0],
                                   v[:, i] - sign * alpha * v[:, 0]))
    # off-diagonal singular frame pairs
    for i in range(A.shape[0]):
        for j in range(A.shape[1]):
            if i != j:
                candidates.append((u[:, i], v[:, j]))

    best = None
    for x, y in candidates:
        a_val, b_val = float(x @ A @ y), float(x @ B @ y)
        if disagrees(a_val, b_val):
            if a_val * b_val < 0:
                return x, y, a_val, b_val
            x2, y2, a2, b2 = _strictify(A, B, x, y)
            if disagrees(a2, b2):
                return x2, y2, a2, b2
            best = best or (x, y, a_val, b_val)
    rng = np.random.default_rng(rng_seed)
    for _ in range(10000):
        x = rng.standard_normal(A.shape[0])
        y = rng.standard_normal(A.shape[1])
        a_val, b_val = float(x @ A @ y), float(x @ B @ y)
        if a_val * b_val < 0:
            return x, y, a_val, b_val
    if best is not None:
        return best
    raise ArgumentError("no sign disagreement found; matrices look "
                        "proportional within tolerance")


# ---------------------------------------------------------------------------
# improvement search

def pareto_improvement_search(jac: GameJacobian, num_restarts=20, rng_seed=0,
                              iters=400):
    """Search for a joint tangent direction improving every player at once.

    Maximizes min_n x_n^T (J x)_n over unit-norm tangent blocks by ascent
    on a softmin surrogate with annealed temperature and random restarts.
    A witness (objective > 1e-8) combined with pd_stretch per block yields
    a conditioner under which H^{-1} J has the real eigenvalue 1.  Absence
    of a witness proves nothing.
    """
    j_t, bases, dims = jac.tangent()
    n_players = jac.num_players
    if j_t.size == 0 or min(dims) == 0:
        return None
    offs = np.concatenate([[0], np.cumsum(dims)])
    slices = [slice(offs[n], offs[n + 1]) for n in range(n_players)]
    # a player whose row block vanishes can never strictly improve
    for n in range(n_players):
        if np.linalg.norm(j_t[slices[n], :]) <= EDGE_TOL:
            return None

    rng = np.random.default_rng(rng_seed)

    def normalize(z):
        for sl in slices:
            norm = np.linalg.norm(z[sl])
            if norm == 0:
                z[sl] = rng.standard_normal(sl.stop - sl.start)
                norm = np.linalg.norm(z[sl])
            z[sl] /= norm
        return z

    def objective(z):
        jz = j_t @ z
        return np.array([z[sl] @ jz[sl] for sl in slices])

    best_val, best_z = -np.inf, None
    for _ in range(num_restarts):
        z = normalize(rng.standard_normal(j_t.shape[0]))
        for it in range(iters):
            scores = objective(z)
            val = scores.min()
            if val > best_val:
                best_val, best_z = val, z.copy()
            tau = max(0.01, 1.0 * (0.01 ** (it / max(iters - 1, 1))))
            weights = np.exp(-(scores - scores.min()) / tau)
            weights /= weights.sum()
            w_diag = np.concatenate([np.full(dims[n], weights[n])
                                     for n in range(n_players)])
            grad = w_diag * (j_t @ z) + j_t.T @ (w_diag * z)
            step = 0.5 / (1.0 + it / 50.0)
            z = normalize(z + step * grad)
        scores = objective(z)
        if scores.min() > best_val:
            best_val, best_z = scores.min(), z.copy()
    if best_val <= 1e-8 or best_z is None:
        return None
    blocks = tuple(bases[n] @ best_z[slices[n]] for n in range(n_players))
    return TangentVector(blocks=blocks)


# ---------------------------------------------------------------------------
# uniform stability report

@dataclass(frozen=True)
class UniformStabilityReport:
    """Decision-procedure output for uniform stability at one point."""

    pointwise: str  # "stable" | "unstable_with_witness" | "indeterminate"
    certificate: SkewCertificate
    graph: InteractionGraph
    witness: tuple = None          # per-player ambient conditioner blocks
    witness_real_part: float = None
    max_sampled_real: float = 0.0
    local: object = None

    @property
    def assumptions(self) -> dict:
        return {"connected": self.graph.connected,
                "bidirectional": self.graph.bidirectional}


def _random_pd(dim, rng):
    """Random PD matrix, eigenvalues log-uniform in [1e-2, 1e2]."""
    vals = 10.0 ** rng.uniform(-2.0, 2.0, size=dim)
    gauss = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(gauss)
    q = q * np.sign(np.diag(r))
    return (q * vals) @ q.T


def _max_real_eig(h_blocks, j_t, dims):
    offs = np.concatenate([[0], np.cumsum(dims)])
    h = np.zeros_like(j_t)
    for n, blk in enumerate(h_blocks):
        h[offs[n]:offs[n + 1], offs[n]:offs[n + 1]] = blk
    eigs = np.linalg.eigvals(np.linalg.solve(h, j_t))
    return float(np.abs(eigs.real).max(initial=0.0))


def uniform_stability_check(jac: GameJacobian, num_conditioners=100,
                            rng_seed=0) -> UniformStabilityReport:
    """Certificate-first decision procedure for pointwise uniform stability.

    A feasible lambda-skew certificate on a connected, bi-directional
    interaction graph proves stability.  Otherwise random block-diagonal
    conditioners and a constructed improvement witness look for an
    eigenvalue with nonzero real part; failing both, the status is
    indeterminate (sampling cannot prove a universally quantified spectrum
    condition).
    """
    cert = solve_skew_certificate(jac)
    graph = interaction_graph(jac)
    if cert.feasible and graph.connected and graph.bidirectional:
        return UniformStabilityReport(pointwise="stable", certificate=cert,
                                      graph=graph)

    j_t, bases, dims = jac.tangent()
    rng = np.random.default_rng(rng_seed)
    max_real = 0.0
    if j_t.size > 0 and np.linalg.norm(j_t) > 0:
        for _ in range(num_conditioners):
            h_blocks = [_random_pd(d, rng) for d in dims]
            real = _max_real_eig(h_blocks, j_t, dims)
            max_real = max(max_real, real)
            if real > WITNESS_REAL_TOL:
                witness = tuple(bases[n] @ h_blocks[n] @ bases[n].T
                                for n in range(len(dims)))
                return UniformStabilityReport(
                    pointwise="unstable_with_witness", certificate=cert,
                    graph=graph, witness=witness, witness_real_part=real,
                    max_sampled_real=max_real)

    direction = pareto_improvement_search(jac, rng_seed=rng_seed)
    if direction is not None:
        offs = np.concatenate([[0], np.cumsum(dims)])
        z = np.concatenate([bases[n].T @ direction.blocks[n]
                            for n in range(len(dims))])
        jz = j_t @ z
        h_blocks = []
        try:
            for n in range(len(dims)):
                sl = slice(offs[n], offs[n + 1])
                h_blocks.append(pd_stretch(jz[sl], z[sl]))
        except DomainError:
            h_blocks = None
        if h_blocks is not None:
            real = _max_real_eig(h_blocks, j_t, dims)
            if real > WITNESS_REAL_TOL:
                witness = tuple(bases[n] @ h_blocks[n] @ bases[n].T
                                for n in range(len(dims)))
                return UniformStabilityReport(
                    pointwise="unstable_with_witness", certificate=cert,
                    graph=graph, witness=witness, witness_real_part=real,
                    max_sampled_real=max(max_real, real))

    return UniformStabilityReport(pointwise="indeterminate", certificate=cert,
                                  graph=graph, max_sampled_real=max_real)


def verify_witness(jac: GameJacobian, witness) -> float:
    """Independent soundness check of an instability witness.

    Returns the largest |Re| eigenvalue of H^{-1} J for the block-diagonal
    conditioner; raises if any block is not PD on its tangent space.
    """
    j_t, bases, dims = jac.tangent()
    h_blocks = []
    for n, blk in enumerate(witness):
        reduced = bases[n].T @ np.asarray(blk, dtype=float) @ bases[n]
        if dims[n] and np.linalg.eigvalsh((reduced + reduced.T) / 2).min() <= 0:
            raise ArgumentError(f"witness block {n} is not positive definite")
        h_blocks.append(reduced)
    return _max_real_eig(h_blocks, j_t, dims)


@dataclass(frozen=True)
class LocalStabilityVerdict:
    """Conjunction of pointwise checks over a sampled neighborhood."""

    center: UniformStabilityReport
    sample_verdicts: tuple
    radius: float
    all_stable: bool


def local_uniform_stability(game: NormalFormGame, x: JointStrategy,
                            radius=0.05, num_samples=8,
                            rng_seed=0) -> LocalStabilityVerdict:
    """Check uniform stability at x and at sampled nearby interior points."""
    if not x.is_interior:
        raise DomainError("local check needs an interior center point")
    rng = np.random.default_rng(rng_seed)
    center = uniform_stability_check(game_jacobian(game, x), rng_seed=rng_seed)
    verdicts = []
    for _ in range(num_samples):
        point = perturb_strategy(x, radius, rng)
        report = uniform_stability_check(game_jacobian(game, point),
                                         rng_seed=rng_seed)
        verdicts.append(report.pointwise)
    all_stable = (center.pointwise == "stable"
                  and all(v == "stable" for v in verdicts))
    return LocalStabilityVerdict(center=center,
                                 sample_verdicts=tuple(verdicts),
                                 radius=radius, all_stable=all_stable)


def perturb_strategy(x: JointStrategy, radius: float, rng,
                     floor=1e-9) -> JointStrategy:
    """Sample a nearby interior point in the inf-ball, clipped to the simplex."""
    blocks = []
    for b in x.blocks:
        cand = b + rng.uniform(-radius, radius, size=len(b))
        cand = np.maximum(cand, floor)
        blocks.append(cand / cand.sum())
    return JointStrategy(tuple(blocks))


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
    gap = epsilon_nash_gap(game, x_star)
    if gap > gap_tol:
        return QuasiStrictResult(status="not_nash", gap=gap)
    from .games import TIE_TOL, best_response_values
    for n in range(game.num_players):
        best, ties = best_response_values(game, x_star, n)
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


def restrict_strategy(x: JointStrategy, supports) -> JointStrategy:
    blocks = []
    for b, s in zip(x.blocks, supports):
        restricted = b[np.asarray(s, dtype=int)]
        blocks.append(restricted / restricted.sum())
    return JointStrategy(tuple(blocks))


def embed_strategy(x: JointStrategy, supports, shape) -> JointStrategy:
    blocks = []
    for b, s, k in zip(x.blocks, supports, shape):
        full = np.zeros(k)
        full[np.asarray(s, dtype=int)] = b
        blocks.append(full)
    return JointStrategy(tuple(blocks))


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
                               beta_schedule, eta_rule=None,
                               outer_tol=1e-12) -> BoundaryReport:
    """Test the boundary predictions at a quasi-strict equilibrium.

    For each beta the smoothed equilibrium is found by warm start, the
    off-support mass is compared to beta (it must shrink), and the operator
    norm of the dynamics Jacobian is checked against exp(-eta/2) with
    eta = beta^2 / (1 + 4 L^2) unless an eta_rule overrides it.
    """
    from .dynamics import measure_response_lipschitz
    from .response import (SmoothedResponseConfig, find_smoothed_equilibrium,
                           response_jacobian, smoothed_best_response)

    check = quasi_strict_check(game, x_star)
    if check.status != "quasi_strict":
        raise DomainError(f"boundary check needs a quasi-strict point: "
                          f"{check.status}")
    supports = x_star.supports()
    blend = JointStrategy(tuple(
        0.9 * b + 0.1 * np.full(len(b), 1.0 / len(b)) for b in x_star.blocks))

    rows = []
    warm = blend
    prev_ratio = np.inf
    decreasing = True
    all_hold = True
    for beta in beta_schedule:
        cfg = SmoothedResponseConfig(beta=float(beta), regularizers=tuple(regs))
        eq = find_smoothed_equilibrium(game, cfg, warm, outer_tol=outer_tol,
                                       max_iter=200_000)
        warm = eq.point
        # measure at the response image of the solved point: the fixed-point
        # iterate cannot resolve off-face mass below the solver tolerance,
        # while the response map's closed form carries the true asymptotics
        refined = smoothed_best_response(game, cfg, eq.point)
        ratio = _face_distance(refined, supports) / beta
        if ratio > prev_ratio:
            decreasing = False
        prev_ratio = ratio
        lip = measure_response_lipschitz(game, cfg, eq.point)
        eta = (beta ** 2 / (1.0 + 4.0 * lip ** 2) if eta_rule is None
               else float(eta_rule(beta, lip)))
        grad_phi = response_jacobian(game, cfg, eq.point, as_tangent=True)
        m = (1.0 - eta) * np.eye(grad_phi.shape[0]) + eta * grad_phi
        op_norm = float(np.linalg.norm(m, 2))
        bound = float(np.exp(-eta / 2.0))
        holds = op_norm <= bound
        all_hold = all_hold and holds
        rows.append(BoundaryRow(beta=float(beta), suppressed_ratio=ratio,
                                response_norm_bound=bound,
                                operator_norm=op_norm, eta=eta,
                                norm_bound_holds=holds, residual=eq.residual))
    return BoundaryReport(rows=tuple(rows), ratios_decreasing=decreasing,
                          all_norm_bounds_hold=all_hold)


# ---------------------------------------------------------------------------
# brute-force oracles

def simplex_lattice(k: int, resolution: int) -> np.ndarray:
    """All lattice points with coordinates at multiples of 1/(resolution-1).

    ``resolution`` counts the points along each edge, so resolution 21 steps
    in increments of 0.05.  Vertices are always included.
    """
    if resolution < 2:
        raise ArgumentError("resolution must be at least 2")
    steps = resolution - 1
    combos = itertools.combinations(range(steps + k - 1), k - 1)
    points = np.empty((comb(steps + k - 1, k - 1), k))
    prev = -1
    for row, cut in enumerate(combos):
        bounds = (-1,) + cut + (steps + k - 1,)
        counts = [bounds[i + 1] - bounds[i] - 1 for i in range(k)]
        points[row] = counts
    return points / steps


def lattice_size(k: int, resolution: int) -> int:
    return comb(resolution - 1 + k - 1, k - 1)


@dataclass(frozen=True)
class ParetoOracleResult:
    optimal: bool
    witness: JointStrategy = None
    resolution: int = 21


def _grid_values(game, lattices, fixed=None):
    """Utilities of every lattice profile, one array per player.

    ``fixed`` maps player index -> probability vector, removing that axis
    from the grid.
    """
    fixed = fixed or {}
    out = []
    for n in range(game.num_players):
        t = game.payoffs[n]
        # contract fixed players first (from the back, axes stay valid)
        for axis in reversed(range(game.num_players)):
            if axis in fixed:
                t = np.tensordot(t, fixed[axis], axes=([axis], [0]))
        # now contract each free axis against its lattice: each tensordot
        # consumes the leading axis and appends a lattice index at the end,
        # so the result is indexed by free players in ascending order
        free = [n2 for n2 in range(game.num_players) if n2 not in fixed]
        for n2 in free:
            t = np.tensordot(t, lattices[n2].T, axes=([0], [0]))
        out.append(t)
    return out


def weak_pareto_oracle(game: NormalFormGame, x_star: JointStrategy,
                       grid_resolution=21) -> ParetoOracleResult:
    """Exhaustively search pure profiles and a simplex grid for a joint
    strict improvement."""
    base = [utility(game, x_star, n) for n in range(game.num_players)]
    lattices = [simplex_lattice(k, grid_resolution) for k in game.shape]
    total = int(np.prod([len(l) for l in lattices]))
    if total > 10 ** 6:
        raise ResourceError(
            f"grid of {total} points exceeds the 10^6 cap; lower the "
            f"resolution")
    # pure profiles first: when a dominating cell exists the reported witness
    # stays a vertex (exact, integer-friendly) instead of a lattice point
    better_pure = np.ones(game.shape, dtype=bool)
    for n in range(game.num_players):
        better_pure &= game.payoffs[n] > base[n] + 1e-12
    if better_pure.any():
        flat_index = int(np.argmax(better_pure.ravel(order="C")))
        indices = np.unravel_index(flat_index, game.shape)
        witness = pure_strategy(game.shape, indices)
        return ParetoOracleResult(optimal=False, witness=witness,
                                  resolution=grid_resolution)
    values = _grid_values(game, lattices)
    better = np.ones(values[0].shape, dtype=bool)
    for n in range(game.num_players):
        better &= values[n] > base[n] + 1e-12
    if not better.any():
        return ParetoOracleResult(optimal=True, resolution=grid_resolution)
    flat_index = int(np.argmax(better.ravel(order="C")))
    multi = np.unravel_index(flat_index, better.shape)
    witness = JointStrategy(tuple(lattices[n][multi[n]]
                                  for n in range(game.num_players)))
    return ParetoOracleResult(optimal=False, witness=witness,
                              resolution=grid_resolution)


@dataclass(frozen=True)
class CoalitionVerdict:
    coalition: tuple
    improvable: bool
    witness: JointStrategy = None


@dataclass(frozen=True)
class StrongNashResult:
    strong_nash: bool
    verdicts: tuple
    resolution: int


def strong_nash_oracle(game: NormalFormGame, x_star: JointStrategy,
                       grid_resolution=21) -> StrongNashResult:
    """Grid search for coalition deviations that improve every member."""
    if game.num_players > 4:
        raise ArgumentError("strong Nash oracle supports at most 4 players")
    base = [utility(game, x_star, n) for n in range(game.num_players)]
    players = range(game.num_players)
    verdicts = []
    strong = True
    for size in range(1, game.num_players + 1):
        for coalition in itertools.combinations(players, size):
            lattices = {n: simplex_lattice(game.shape[n], grid_resolution)
                        for n in coalition}
            total = int(np.prod([len(lattices[n]) for n in coalition]))
            if total > 10 ** 6:
                raise ResourceError(
                    f"coalition {coalition} grid of {total} points exceeds "
                    f"the 10^6 cap")
            fixed = {n: x_star.blocks[n] for n in players
                     if n not in coalition}
            values = _grid_values(game, [lattices.get(n) for n in players],
                                  fixed=fixed)
            better = np.ones(values[0].shape, dtype=bool)
            for pos, n in enumerate(coalition):
                better &= values[n] > base[n] + 1e-12
            if better.any():
                flat_index = int(np.argmax(better.ravel(order="C")))
                multi = np.unravel_index(flat_index, better.shape)
                blocks = list(x_star.blocks)
                for pos, n in enumerate(sorted(coalition)):
                    blocks[n] = lattices[n][multi[pos]]
                witness = JointStrategy(tuple(blocks))
                verdicts.append(CoalitionVerdict(coalition=coalition,
                                                 improvable=True,
                                                 witness=witness))
                strong = False
            else:
                verdicts.append(CoalitionVerdict(coalition=coalition,
                                                 improvable=False))
    return StrongNashResult(strong_nash=strong, verdicts=tuple(verdicts),
                            resolution=grid_resolution)


# ---------------------------------------------------------------------------
# serialization

def report_to_dict(report: UniformStabilityReport) -> dict:
    cert = report.certificate
    data = {
        "pointwise": report.pointwise,
        "certificate": {
            "lambdas": cert.lambdas.tolist(),
            "residual": cert.residual,
            "feasible": cert.feasible,
        },
        "assumptions": report.assumptions,
        "interaction_edges": sorted(list(e) for e in report.graph.edges),
        "max_sampled_real_part": report.max_sampled_real,
    }
    if report.witness is not None:
        data["witness"] = {
            "blocks_row_major": [np.asarray(b).ravel(order="C").tolist()
                                 for b in report.witness],
            "real_part": report.witness_real_part,
        }
    if report.local is not None:
        data["local"] = report.local
    return data
