"""Uniform-stability certificates and refutations for game Jacobians.

The central object is the game Jacobian J(x) built in ``games``: the block
matrix of tangent-projected cross-derivatives with zero diagonal blocks.
The module depends on it and on the game alone (``errors`` and ``games``
are its only imports).  An equilibrium is uniformly stable when H^{-1} J
has purely imaginary spectrum for every positive-definite block-diagonal
conditioner H.  That quantifier is not directly decidable, so the verdict
rests on a lambda-skew certificate, one symmetric least-squares fit that
permutes with the players (sufficient on a connected interaction graph,
which a feasible certificate makes bi-directional), with sampled and
constructed counterexample witnesses on the refutation side.  The sampling,
and the constructed witness's ascent, are skipped where bounds on one
S = Lambda J + J^T Lambda, from the certificate's weights, prove them futile.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (ArgumentError, DimensionError, DomainError,
                     ResourceError, check_array, check_count,
                     check_real, check_sequence, check_type)
from .games import (GameJacobian, JointStrategy, NormalFormGame,
                    TangentVector, block_diag, block_slices, check_match,
                    contract, game_jacobian, perturb_strategy,
                    support_indices, utility)

EDGE_TOL = 1e-10          # Frobenius threshold for interaction-graph edges
SKEW_RESIDUAL_TOL = 1e-8  # certificate feasibility threshold
KERNEL_ANGLE_TOL = 1e-8   # principal-angle threshold for bi-directionality
WITNESS_REAL_TOL = 1e-6   # |Re eig| needed to refute stability
PD_STRETCH_GUARD = 1e-12
IMPROVEMENT_TOL = 1e-8    # least min_n z_n^T (J z)_n that counts as improving
GRID_CAP = 10 ** 6        # most lattice profiles an oracle will enumerate
CONDITIONER_CHUNK_CAP = 64  # most sampled conditioners tested in one stack
STRONG_NASH_MAX_PLAYERS = 4  # most players strong_nash_oracle takes
PD_EIG_FLOOR = 1e-2       # least eigenvalue of a sampled conditioner
ASCENT_RESTARTS = 20      # random starts of the Pareto ascent
ASCENT_ITERS = 400        # steps of the Pareto ascent from each start
_POINTWISE = ("stable", "unstable_with_witness", "indeterminate")


# ---------------------------------------------------------------------------
# interaction graph

@dataclass(frozen=True)
class InteractionGraph:
    """Edges mark nonzero Jacobian blocks between players.  Every joined
    pair n, m is ``bidirectional`` when the skew certificate is feasible
    (which makes J_nm and J_mn^T proportional), or when J_nm and J_mn^T
    have the same left and right kernels (see ``_kernels_align``)."""

    edges: frozenset
    connected: bool
    bidirectional: bool


def _kernels_align(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two matrices of one shape have right kernels, and left
    kernels, of the same dimension and a largest principal angle of at
    most KERNEL_ANGLE_TOL.

    One stacked SVD gives all four kernel bases, each cut off at 1e-10 of
    its matrix's largest singular value.  An angle comes from its sine, the
    larger spectral norm of the two projector differences, which stays
    accurate for the tiny angles the bi-directionality test cares about.
    """
    u, s, vh = np.linalg.svd(np.stack([a, b]))
    rank_a, rank_b = np.sum(s > 1e-10 * s.max(axis=1, keepdims=True),
                            axis=1).tolist()
    if rank_a != rank_b:
        return False  # the angle is pi / 2
    for b1, b2 in ((vh[0, rank_a:].T, vh[1, rank_a:].T),
                   (u[0][:, rank_a:], u[1][:, rank_a:])):
        sines = np.linalg.svd(np.stack([b2 - b1 @ (b1.T @ b2),
                                        b1 - b2 @ (b2.T @ b1)]),
                              compute_uv=False)
        if np.arcsin(min(1.0, sines.max(initial=0.0))) > KERNEL_ANGLE_TOL:
            return False
    return True


def _checked(jac) -> GameJacobian:
    """jac, if it is a GameJacobian with one finite ``(k_n, k_m)`` array
    block for each ordered pair (n, m) of its point's players, and one
    support per player: a nonempty set of distinct actions in ``[0, k_n)``;
    else a GameError.  Float blocks of the right shapes are tested for
    finiteness in one pass; only when that fails are the blocks checked one
    by one, to raise at the first bad one."""
    point = check_type("jac", jac, GameJacobian).point
    shape = check_type("jac.point", point, JointStrategy).shape
    rows = check_sequence("jac.blocks", jac.blocks)
    if [len(check_sequence("jac.blocks row", row)) for row in rows] != \
            [len(shape)] * len(shape):
        raise DimensionError(f"jac needs {len(shape)} x {len(shape)} blocks")
    blocks = [(n, m, block) for n, row in enumerate(rows)
              for m, block in enumerate(row)]
    if not (all(isinstance(b, np.ndarray) and b.dtype == float
                and b.shape == (shape[n], shape[m]) for n, m, b in blocks)
            and np.isfinite(np.concatenate(
                [b.ravel() for _, _, b in blocks])).all()):
        for n, m, block in blocks:
            name = f"jac block ({n}, {m})"
            check_array(name, check_type(name, block, np.ndarray),
                        (shape[n], shape[m]))
    supports = check_sequence("jac.supports", jac.supports)
    if len(supports) != len(shape):
        raise DimensionError(f"jac needs {len(shape)} supports, one per "
                             f"player")
    for n, support in enumerate(supports):
        name = f"jac.supports[{n}]"
        if not len(support_indices(shape[n], support, name)):
            raise ArgumentError(f"{name} is empty; a face needs an action")
    return jac


def _block_norms(jac: GameJacobian):
    """Block Frobenius norms, and whether the undirected interaction graph
    (players joined by a block above EDGE_TOL in either direction) is
    connected.  A block norm beyond the float range is a DomainError naming
    the block."""
    n_players = jac.num_players
    norms = np.array([[_norm(jac.blocks[n][m]) for m in range(n_players)]
                      for n in range(n_players)])
    if not np.isfinite(norms).all():
        n, m = np.argwhere(~np.isfinite(norms))[0].tolist()
        raise DomainError(f"jac block ({n}, {m}) has a Frobenius norm "
                          f"beyond the float range")
    joined = (norms > EDGE_TOL) | (norms.T > EDGE_TOL) | np.eye(n_players,
                                                                dtype=bool)
    # every pair is joined by a path of at most n_players - 1 edges
    return norms, bool(np.linalg.matrix_power(joined, n_players - 1).all())


def _norm(mat, spectral=False) -> float:
    """The Frobenius norm of a real array, or with ``spectral`` the largest
    singular value of a matrix, bit for bit as ``np.linalg.norm`` takes
    them; the SVD scales its matrix itself, and where the Frobenius dot
    overflows, the norm is the largest |entry| times the norm of the
    entries divided by it, so only a norm beyond floats is inf."""
    if spectral:
        return float(np.linalg.norm(mat, 2))
    flat = mat.ravel(order="K")
    with np.errstate(over="ignore"):
        square = flat.dot(flat)
        if math.isinf(square):
            top = np.abs(flat).max()
            scaled = flat / top
            return float(top * math.sqrt(scaled.dot(scaled)))
    return math.sqrt(square)


def interaction_graph(jac: GameJacobian) -> InteractionGraph:
    """The interaction graph of jac.  Its flag reads jac's skew
    certificate, so a block norm, or a certificate weight or residual,
    beyond the float range is a DomainError naming jac."""
    norms, connected = _block_norms(_checked(jac))
    return _interaction_graph(jac, norms, connected,
                              _skew_certificate(jac, norms).feasible)


def _interaction_graph(jac, norms, connected, feasible) -> InteractionGraph:
    """The graph of jac, from its ``_block_norms`` and whether its skew
    certificate is feasible."""
    above = norms > EDGE_TOL
    np.fill_diagonal(above, False)
    # every joined pair n < m; ``all`` stops at the first that fails
    pairs = np.argwhere(np.triu(above | above.T)).tolist()
    bidirectional = feasible or all(
        _kernels_align(jac.blocks[n][m], jac.blocks[m][n].T)
        for n, m in pairs)
    return InteractionGraph(
        edges=frozenset(map(tuple, np.argwhere(above).tolist())),
        connected=connected, bidirectional=bidirectional)


# ---------------------------------------------------------------------------
# lambda-skew certificate

@dataclass(frozen=True)
class SkewCertificate:
    """Positive scalars lambda witnessing lambda_n J_nm = -lambda_m J_mn^T."""

    lambdas: np.ndarray
    residual: float
    feasible: bool


def solve_skew_certificate(jac: GameJacobian) -> SkewCertificate:
    """Estimate lambda by one symmetric least-squares fit over the edges.

    An exact certificate has lambda_n ||J_nm|| = lambda_m ||J_mn||, so each
    edge with both blocks above EDGE_TOL asks log lambda_m - log lambda_n =
    log ||J_nm|| - log ||J_mn||, at weight min(||J_nm||, ||J_mn||)^2.  The
    fit, which permutes with the players, is the minimum-norm solution of
    that weighted graph-Laplacian system, solved from the weighted edge rows
    (so the Laplacian's squared condition number does not enter).  It is
    feasible when no edge is one-sided, every edge has <J_nm, J_mn^T> < 0
    and the residual, the largest ||lambda_n J_nm + lambda_m J_mn^T|| /
    (1 + ||J_nm||) over ordered pairs at max lambda = 1, is at most
    SKEW_RESIDUAL_TOL.  The lambdas are reported with lambda_0 = 1.  A block
    norm, weight or residual beyond the float range is a DomainError naming
    jac.
    """
    return _skew_certificate(jac, _block_norms(_checked(jac))[0])


@np.errstate(over="ignore", invalid="ignore")
def _skew_certificate(jac, norms) -> SkewCertificate:
    """The certificate of jac, from its ``_block_norms``.  A weight or a
    residual beyond the float range is a DomainError naming jac."""
    n_players = jac.num_players
    blocks = jac.blocks
    above = norms > EDGE_TOL
    np.fill_diagonal(above, False)
    n, m = np.nonzero(np.triu(above & above.T))
    # one row e_m - e_n per two-sided edge, times the root of its weight
    root = np.minimum(norms[n, m], norms[m, n])
    rows = root[:, None] * (np.eye(n_players)[m] - np.eye(n_players)[n])
    gaps = np.log(norms[n, m]) - np.log(norms[m, n])
    log_lambdas = np.linalg.lstsq(rows, root * gaps)[0]
    lambdas = np.exp(log_lambdas - log_lambdas[0])
    if not (np.isfinite(lambdas).all() and (lambdas > 0).all()):
        raise DomainError("jac's skew-certificate weights lie beyond the "
                          "float range")

    unit = np.exp(log_lambdas - log_lambdas.max())
    # np.max, unlike max, keeps a NaN
    residual = float(np.max([
        _norm(unit[a] * blocks[a][b] + unit[b] * blocks[b][a].T)
        / (1.0 + norms[a, b])
        for a in range(n_players) for b in range(n_players) if a != b],
        initial=0.0))
    if not math.isfinite(residual):
        raise DomainError("jac's skew-certificate residual lies beyond the "
                          "float range")
    feasible = bool(residual <= SKEW_RESIDUAL_TOL
                    and np.array_equal(above, above.T)
                    and all(np.vdot(blocks[a][b], blocks[b][a].T) < 0
                            for a, b in zip(n.tolist(), m.tolist())))
    return SkewCertificate(lambdas=lambdas, residual=residual,
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
    u = check_array("u", u, (None,))
    v = check_array("v", v, u.shape)
    if float(u @ v) <= PD_STRETCH_GUARD:
        raise DomainError("pd-stretch requires u^T v > 0")
    nu, nv = _norm(u), _norm(v)
    scaled = (nu / nv) * v
    if _norm(u - scaled) <= 1e-12 * nu:
        return (nu / nv) * np.eye(len(u))
    q1 = u / nu
    rest = v - (q1 @ v) * q1
    q2 = rest / _norm(rest)
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

    Follows the constructive argument: diagonalize A by SVD and read the
    scale off the top singular pair.  A refutation's witness has
    x^T A y > 0 > x^T B y (see ``_sign_witness``), except where A or B is
    zero: then a top singular pair of the other one gives the forms 0 and a
    positive value.  ``rng_seed``, a non-negative integer, draws the generic
    vector of the witness construction.
    """
    check_count("rng_seed", rng_seed)
    check_real("tol", tol)
    A = check_array("A", A, (None, None))
    B = check_array("B", B, A.shape)
    norm_a, norm_b = _norm(A), _norm(B)
    if norm_b == 0.0:
        if norm_a == 0.0:
            raise ArgumentError("B must be nonzero")
        u, s, vh = np.linalg.svd(A)
        return BilinearScaleResult(
            refuted=True, witness=(u[:, 0], vh[0], float(s[0]), 0.0))
    if norm_a == 0.0:
        u, s, vh = np.linalg.svd(B)
        return BilinearScaleResult(
            refuted=True, witness=(u[:, 0], vh[0], 0.0, float(s[0])))

    u, s, vh = np.linalg.svd(A)
    top = (u[:, 0], vh[0], float(s[0]), float(u[:, 0] @ B @ vh[0]))
    if top[3] > 0:
        lam = top[2] / top[3]
        if _norm(A - lam * B) <= tol * norm_a and lam > 0:
            return BilinearScaleResult(lam=lam)
    return BilinearScaleResult(refuted=True,
                               witness=_sign_witness(A, B, top, rng_seed))


def _sign_witness(A, B, top, rng_seed):
    """(x, y, x^T A y, x^T B y) with x^T A y > 0 > x^T B y for nonzero A, B;
    ``top`` is that tuple for the top singular pair of A.

    For a generic x the linear forms A^T x and B^T x are independent unless
    B^T x is parallel to A^T x for every x; then one least-squares solve
    gives y with forms 1 and -1.  The same holds with the roles of x and y
    swapped.  Forms parallel on both sides mean B = c A, which a top
    singular pair of A refutes when c < 0; otherwise the matrices are
    proportional and ArgumentError is raised.
    """
    rng = np.random.default_rng(rng_seed)
    target = np.array([1.0, -1.0])
    for left in (True, False):
        a, b = (A, B) if left else (A.T, B.T)
        g = rng.standard_normal(a.shape[0])
        # forms independent only to rounding count as dependent (rcond):
        # the solve then projects the target, and the check below rejects
        # a projection that does not refute clearly
        h = np.linalg.lstsq(np.stack([g @ a, g @ b]), target, rcond=1e-12)[0]
        x, y = (g, h) if left else (h, g)
        forms = np.array([x @ A @ y, x @ B @ y])
        if np.all(np.abs(forms - target) < 0.5):
            return (x, y) + tuple(forms.tolist())
    if top[3] < 0:
        return top
    raise ArgumentError("no sign disagreement found; matrices look "
                        "proportional within tolerance")


# ---------------------------------------------------------------------------
# improvement search

def pareto_improvement_search(jac: GameJacobian, rng_seed=0):
    """Search for a joint tangent direction improving every player at once.

    Maximizes min_n x_n^T (J x)_n over unit-norm tangent blocks by ascent
    on a softmin surrogate with annealed temperature, from ASCENT_RESTARTS
    random starts of ASCENT_ITERS steps each.  A witness (objective >
    IMPROVEMENT_TOL) combined with pd_stretch per block yields a conditioner
    under which H^{-1} J has the real eigenvalue 1.  The ascent runs only
    when the skew certificate's weights do not already prove, by the dual
    bound of ``_improvement_direction``, that no witness exists; there
    ``None`` is a proof.  Otherwise ``None`` means only that the ascent
    found nothing.  ``rng_seed`` must be a non-negative integer.  A
    certificate (see :func:`solve_skew_certificate`) or an entry of Lambda J
    + J^T Lambda beyond the float range is a DomainError naming jac.
    """
    check_count("rng_seed", rng_seed)
    lambdas = _skew_certificate(jac, _block_norms(_checked(jac))[0]).lambdas
    j_t, bases, dims, sym = _tangent_problem(jac, lambdas)
    z = _improvement_direction(j_t, dims, sym, lambdas, rng_seed)
    if z is None:
        return None
    return TangentVector(blocks=tuple(b @ z[sl] for b, sl in
                                      zip(bases, block_slices(dims))))


@np.errstate(over="ignore")
def _tangent_problem(jac, lambdas):
    """``jac.tangent()`` and S = Lambda J + J^T Lambda, Lambda = diag(lambda_n
    I), for the certificate's positive finite weights: the one S that
    ``_real_part_bound`` and ``_improvement_direction`` read.  An entry of
    S beyond the float range is a DomainError naming jac."""
    j_t, bases, dims = jac.tangent()
    weighted = np.repeat(lambdas, dims)[:, None] * j_t
    sym = weighted + weighted.T
    if not np.isfinite(sym).all():
        raise DomainError("jac's weighted symmetric part lies beyond the "
                          "float range")
    return j_t, bases, dims, sym


def _improvement_direction(j_t, dims, sym, lambdas, rng_seed):
    """Joint improvement direction of the tangent Jacobian ``j_t``, in its
    tangent coordinates, or None, which is a proof unless the ascent ran.

    The ascent is skipped where a player's row block vanishes (that player
    cannot strictly improve) or where the dual bound fires: for S = ``sym``
    a z with unit blocks has sum_n lambda_n z_n^T (J z)_n = z^T S z / 2 <=
    N ||S||_2 / 2, so none improves every player by more than
    IMPROVEMENT_TOL once that is at most IMPROVEMENT_TOL * sum_n lambda_n.
    """
    if j_t.size == 0 or min(dims) == 0:
        return None
    if any(_norm(j_t[sl, :]) <= EDGE_TOL for sl in block_slices(dims)):
        return None
    if (0.5 * len(dims) * _norm(sym, spectral=True)
            <= IMPROVEMENT_TOL * np.sum(lambdas)):
        return None
    return _pareto_ascent(j_t, dims, rng_seed)


def _pareto_ascent(j_t, dims, rng_seed):
    """Softmin ascent on min_n z_n^T (J z)_n over unit tangent blocks, from
    ASCENT_RESTARTS random starts of ASCENT_ITERS steps; the best z if it
    beats IMPROVEMENT_TOL."""
    slices = block_slices(dims)
    rng = np.random.default_rng(rng_seed)

    def normalize(z):
        for sl in slices:
            norm = _norm(z[sl])
            if norm == 0:
                z[sl] = rng.standard_normal(sl.stop - sl.start)
                norm = _norm(z[sl])
            z[sl] /= norm
        return z

    def objective(z):
        jz = j_t @ z
        return np.array([z[sl] @ jz[sl] for sl in slices])

    best_val, best_z = -np.inf, None
    for _ in range(ASCENT_RESTARTS):
        z = normalize(rng.standard_normal(j_t.shape[0]))
        for it in range(ASCENT_ITERS):
            scores = objective(z)
            val = scores.min()
            if val > best_val:
                best_val, best_z = val, z.copy()
            tau = max(0.01, 1.0 * (0.01 ** (it / max(ASCENT_ITERS - 1, 1))))
            weights = np.exp(-(scores - scores.min()) / tau)
            weights /= weights.sum()
            w_diag = np.repeat(weights, dims)
            grad = w_diag * (j_t @ z) + j_t.T @ (w_diag * z)
            step = 0.5 / (1.0 + it / 50.0)
            z = normalize(z + step * grad)
        scores = objective(z)
        if scores.min() > best_val:
            best_val, best_z = scores.min(), z.copy()
    if best_val <= IMPROVEMENT_TOL or best_z is None:
        return None
    return best_z


# ---------------------------------------------------------------------------
# uniform stability report

@dataclass(frozen=True)
class UniformStabilityReport:
    """Decision-procedure output for uniform stability at one point."""

    pointwise: str  # one of _POINTWISE
    certificate: SkewCertificate
    graph: InteractionGraph
    witness: tuple = None          # per-player ambient conditioner blocks
    witness_real_part: float = None
    max_sampled_real: float = 0.0
    real_part_bound: float = None  # see _real_part_bound; None if certified

    @property
    def assumptions(self) -> dict:
        return {"connected": self.graph.connected,
                "bidirectional": self.graph.bidirectional}


def _chunk_sizes(total):
    """Conditioner chunk sizes 1, 4, 16, 64, 64, ... summing to ``total``,
    so a witness at the first draw costs one evaluation."""
    size = 1
    while total > 0:
        yield min(size, total)
        total -= size
        size = min(4 * size, CONDITIONER_CHUNK_CAP)


def _random_pd_stacks(dims, count, rng):
    """``count`` random PD conditioners as one ``(count, d, d)`` stack per
    block, eigenvalues log-uniform in [PD_EIG_FLOOR, 1 / PD_EIG_FLOOR].

    The draws run per conditioner, then per block, so a chunk consumes the
    stream exactly as ``count`` single conditioners drawn in turn.
    """
    logs = [np.empty((count, d)) for d in dims]
    gauss = [np.empty((count, d, d)) for d in dims]
    blocks = list(zip(dims, logs, gauss))
    uniform, normal = rng.uniform, rng.standard_normal
    top = -np.log10(PD_EIG_FLOOR)
    for i in range(count):
        for d, log, g in blocks:
            log[i] = uniform(-top, top, size=d)
            g[i] = normal((d, d))
    stacks = []
    for log, g in zip(logs, gauss):
        q, r = np.linalg.qr(g)
        q = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[:, None, :]
        stacks.append((q * 10.0 ** log[:, None, :]) @ np.swapaxes(q, -1, -2))
    return stacks


def _max_real_eigs(h_stacks, j_t):
    """Largest |Re| eigenvalue of H^{-1} J for each conditioner H in the
    per-block stacks."""
    eigs = np.linalg.eigvals(np.linalg.solve(block_diag(h_stacks), j_t))
    return np.abs(eigs.real).max(axis=-1, initial=0.0)


@np.errstate(over="ignore")
def _real_part_bound(j_t, sym, lambdas) -> float:
    """Bound on |Re mu| for the eigenvalues mu of H^{-1} J over every
    block-diagonal PD H with eigenvalues >= h = PD_EIG_FLOOR.  With M =
    Lambda H and S = ``sym`` (see ``_tangent_problem``), H^{-1} J is similar
    to M^{-1/2} (Lambda J) M^{-1/2}, so |Re mu| <= ||S||_2 / (2 h min
    lambda) <= ||S||_F / (2 h min lambda).  The added n eps ||J||_F / h,
    for J of order n, covers the rounding of a draw's test.  A bound beyond
    the float range is a DomainError naming jac."""
    exact = _norm(sym) / (2.0 * np.min(lambdas))
    rounding = len(j_t) * np.finfo(float).eps * _norm(j_t)
    bound = float((exact + rounding) / PD_EIG_FLOOR)
    if not math.isfinite(bound):
        raise DomainError("jac's real-part bound lies beyond the float range")
    return bound


def _max_real_eig(h_blocks, j_t):
    return float(_max_real_eigs([h[None] for h in h_blocks], j_t)[0])


def _sampled_conditioners(dims, num_conditioners, j_t, rng):
    """Yield (per-block conditioner, largest |Re| eigenvalue of H^{-1} J)
    for each of ``num_conditioners`` random conditioners, in draw order;
    they are drawn and tested as stacks, one chunk at a time."""
    for count in _chunk_sizes(num_conditioners):
        stacks = _random_pd_stacks(dims, count, rng)
        for i, real in enumerate(_max_real_eigs(stacks, j_t).tolist()):
            yield [s[i] for s in stacks], real


def _stretch_conditioner(j_t, dims, sym, lambdas, rng_seed):
    """Per-block pd_stretch conditioners mapping a joint improvement
    direction z to J z, or None when there is no such direction."""
    z = _improvement_direction(j_t, dims, sym, lambdas, rng_seed)
    if z is None:
        return None
    jz = j_t @ z
    try:
        return [pd_stretch(jz[sl], z[sl]) for sl in block_slices(dims)]
    except DomainError:
        return None


def uniform_stability_check(jac: GameJacobian, num_conditioners=100,
                            rng_seed=0) -> UniformStabilityReport:
    """Certificate-first decision procedure for pointwise uniform stability.

    A feasible lambda-skew certificate on a connected interaction graph
    proves stability; no kernel is computed there, since the certificate
    makes the graph bi-directional.  Otherwise random block-diagonal
    conditioners and a constructed improvement witness look for an
    eigenvalue with nonzero real part; failing both, the status is
    indeterminate (sampling cannot prove a universally quantified spectrum
    condition).  Where ``real_part_bound`` (``_real_part_bound``) is at most
    WITNESS_REAL_TOL no conditioner can refute, so none is drawn and
    ``max_sampled_real`` reads 0.0.  Otherwise they are drawn and tested as
    stacks, in chunks of 1, 4, 16, 64, 64, ..., with the same draws and
    results as testing them one at a time: the witness is the first sampled
    conditioner that refutes, and ``max_sampled_real`` covers the samples up
    to it.
    ``num_conditioners`` and ``rng_seed`` must be non-negative integers.  A
    certificate (see :func:`solve_skew_certificate`), an entry of Lambda J +
    J^T Lambda or a real-part bound beyond the float range is a DomainError
    naming jac.
    """
    check_count("num_conditioners", num_conditioners)
    check_count("rng_seed", rng_seed)
    norms, connected = _block_norms(_checked(jac))
    cert = _skew_certificate(jac, norms)
    graph = _interaction_graph(jac, norms, connected, cert.feasible)
    if cert.feasible and connected:
        return UniformStabilityReport(pointwise="stable", certificate=cert,
                                      graph=graph)

    j_t, bases, dims, sym = _tangent_problem(jac, cert.lambdas)
    bound = _real_part_bound(j_t, sym, cert.lambdas)
    rng = np.random.default_rng(rng_seed)
    max_real = 0.0
    found = None
    if bound > WITNESS_REAL_TOL:
        for h_blocks, real in _sampled_conditioners(dims, num_conditioners,
                                                    j_t, rng):
            max_real = max(max_real, real)
            if real > WITNESS_REAL_TOL:
                found = h_blocks, real
                break
    if found is None:
        h_blocks = _stretch_conditioner(j_t, dims, sym, cert.lambdas,
                                        rng_seed)
        if h_blocks is not None:
            real = _max_real_eig(h_blocks, j_t)
            if real > WITNESS_REAL_TOL:
                found = h_blocks, real
    if found is None:
        return UniformStabilityReport(pointwise="indeterminate",
                                      certificate=cert, graph=graph,
                                      max_sampled_real=max_real,
                                      real_part_bound=bound)
    h_blocks, real = found
    return UniformStabilityReport(
        pointwise="unstable_with_witness", certificate=cert, graph=graph,
        witness=tuple(b @ h @ b.T for b, h in zip(bases, h_blocks)),
        witness_real_part=real, max_sampled_real=max(max_real, real),
        real_part_bound=bound)


def verify_witness(jac: GameJacobian, witness) -> float:
    """Independent soundness check of an instability witness.

    Returns the largest |Re| eigenvalue of H^{-1} J for the block-diagonal
    conditioner.  Raises DimensionError unless there is one k x k block per
    player, and ArgumentError if a block has non-finite entries or is not
    PD on its tangent space.
    """
    witness = check_sequence("witness", witness)
    shape = _checked(jac).point.shape
    if len(witness) != len(shape):
        raise DimensionError(
            f"witness has {len(witness)} blocks for {len(shape)} players")
    witness = [check_array(f"witness block {n}", blk, (k, k))
               for n, (blk, k) in enumerate(zip(witness, shape))]
    j_t, bases, dims = jac.tangent()
    h_blocks = []
    for n, blk in enumerate(witness):
        reduced = bases[n].T @ blk @ bases[n]
        if dims[n] and np.linalg.eigvalsh((reduced + reduced.T) / 2).min() <= 0:
            raise ArgumentError(f"witness block {n} is not positive definite")
        h_blocks.append(reduced)
    return _max_real_eig(h_blocks, j_t)


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
    """Check uniform stability at x and at sampled nearby interior points.

    ``num_samples`` and ``rng_seed`` must be non-negative integers and
    ``radius`` positive and finite.
    """
    check_count("num_samples", num_samples)
    check_count("rng_seed", rng_seed)
    check_real("radius", radius)
    check_match(game, x)
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


# ---------------------------------------------------------------------------
# brute-force oracles

def simplex_lattice(k: int, resolution: int) -> np.ndarray:
    """All lattice points with coordinates at multiples of 1/(resolution-1).

    ``resolution`` counts the points along each edge, so resolution 21 steps
    in increments of 0.05.  Vertices are always included.  More than
    ``GRID_CAP`` points is a ResourceError, before anything is allocated.
    """
    size = lattice_size(k, resolution)
    if size > GRID_CAP:
        raise ResourceError(f"lattice of {size} points exceeds the "
                            f"{GRID_CAP} cap")
    # The rows are the compositions of ``steps`` into k parts in
    # lexicographic order, built one part at a time: each prefix of parts
    # 0..j-1 branches, in order, into one child per value 0..``left`` of
    # part j, where ``left`` is what the prefix leaves for the parts after.
    steps = resolution - 1
    points = np.empty((size, k))
    left = np.array([steps])
    for j in range(k - 1):
        branches = left + 1
        part = np.arange(branches.sum())
        part -= np.repeat(np.cumsum(branches) - branches, branches)
        left = np.repeat(left, branches)
        left -= part
        # each prefix heads as many rows as its ``left`` has compositions
        # into the k - 1 - j parts still to come: one on the last level
        points[:, j] = part if j == k - 2 else np.repeat(
            part, _compositions(left, k - 1 - j))
    points[:, k - 1] = left
    points /= steps
    return points


def _compositions(total, parts):
    """The number of compositions of each entry of ``total`` into ``parts``
    non-negative parts, C(total + parts - 1, parts - 1), in exact integer
    steps (each partial product is itself a binomial coefficient)."""
    count = 1
    for i in range(1, parts):
        count = count * (total + i) // i
    return count


def lattice_size(k: int, resolution: int) -> int:
    """Number of points of ``simplex_lattice(k, resolution)``."""
    check_count("k", k, positive=True)
    check_count("resolution", resolution)
    if resolution < 2:
        raise ArgumentError(f"resolution must be at least 2, got {resolution}")
    return math.comb(resolution - 1 + k - 1, k - 1)


@dataclass(frozen=True)
class ParetoOracleResult:
    optimal: bool
    witness: JointStrategy = None
    resolution: int = 21


def _capped_lattices(game, resolution):
    """Each player's lattice, once the full grid is known to fit GRID_CAP.

    Every coalition's grid is a factor of the full grid, so this one check
    bounds every search an oracle makes, and it runs before any lattice is
    built.
    """
    total = 1
    for k in game.shape:
        total *= lattice_size(k, resolution)
    if total > GRID_CAP:
        raise ResourceError(f"grid of {total} points exceeds the {GRID_CAP} "
                            f"cap")
    return [simplex_lattice(k, resolution) for k in game.shape]


def _improving_profile(game, x_star, base, members, lattices):
    """First profile, in C order over the members' lattices (``members``
    ascending), at which every member's utility beats its ``base`` by more
    than 1e-12; the other players stay at ``x_star``.  None if there is none.
    """
    better = True
    for n in members:
        # the players held at x_star first, leaving one axis per member
        t = contract(game.payoffs[n], x_star.blocks, members)
        # each tensordot consumes the leading axis and appends a lattice
        # index at the end, so the result is indexed by members in order
        for m in members:
            t = np.tensordot(t, lattices[m].T, axes=([0], [0]))
        better = better & (t > base[n] + 1e-12)
    if not better.any():
        return None
    cell = np.unravel_index(int(np.argmax(better.ravel())), better.shape)
    blocks = list(x_star.blocks)
    for m, i in zip(members, cell):
        blocks[m] = lattices[m][i]
    return JointStrategy(tuple(blocks))


def weak_pareto_oracle(game: NormalFormGame, x_star: JointStrategy,
                       grid_resolution=21) -> ParetoOracleResult:
    """Exhaustively search pure profiles and a simplex grid for a joint
    strict improvement."""
    check_match(game, x_star, name="x_star")
    lattices = _capped_lattices(game, grid_resolution)
    base = [utility(game, x_star, n) for n in range(game.num_players)]
    players = range(game.num_players)
    # pure profiles first: when a dominating cell exists the reported witness
    # stays a vertex (exact, integer-friendly) instead of a lattice point
    witness = _improving_profile(game, x_star, base, players,
                                 [np.eye(k) for k in game.shape])
    if witness is None:
        witness = _improving_profile(game, x_star, base, players, lattices)
    return ParetoOracleResult(optimal=witness is None, witness=witness,
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
    check_match(game, x_star, name="x_star")
    if game.num_players > STRONG_NASH_MAX_PLAYERS:
        raise ArgumentError(f"strong Nash oracle supports at most "
                            f"{STRONG_NASH_MAX_PLAYERS} players")
    lattices = _capped_lattices(game, grid_resolution)
    base = [utility(game, x_star, n) for n in range(game.num_players)]
    verdicts = []
    for size in range(1, game.num_players + 1):
        for coalition in itertools.combinations(range(game.num_players), size):
            witness = _improving_profile(game, x_star, base, coalition,
                                         lattices)
            verdicts.append(CoalitionVerdict(coalition=coalition,
                                             improvable=witness is not None,
                                             witness=witness))
    return StrongNashResult(
        strong_nash=not any(v.improvable for v in verdicts),
        verdicts=tuple(verdicts), resolution=grid_resolution)


# ---------------------------------------------------------------------------
# serialization

def report_to_dict(report: UniformStabilityReport) -> dict:
    """The JSON form of a report whose certificate and graph are records
    of their types, whose largest sampled real part is finite and
    non-negative and whose ``pointwise`` label is one of _POINTWISE; else
    a GameError naming ``report``."""
    cert = check_type("report.certificate", check_type(
        "report", report, UniformStabilityReport).certificate,
        SkewCertificate)
    check_type("report.graph", report.graph, InteractionGraph)
    check_real("report.max_sampled_real", report.max_sampled_real,
               positive=False)
    if not (isinstance(report.pointwise, str)
            and report.pointwise in _POINTWISE):
        raise ArgumentError(f"report.pointwise must be one of {_POINTWISE}, "
                            f"got {report.pointwise!r}")
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
        "real_part_bound": report.real_part_bound,
    }
    if report.witness is not None:
        data["witness"] = {
            "blocks_row_major": [np.asarray(b).ravel(order="C").tolist()
                                 for b in report.witness],
            "real_part": report.witness_real_part,
        }
    return data
