"""Shared generators for the test suite.

Everything takes an explicit ``numpy.random.Generator`` so tests stay
reproducible from a frozen seed.
"""

import numpy as np

import smoothgames as sg


def random_game(rng, shape, scale=1.0):
    return sg.NormalFormGame(
        tuple(scale * rng.standard_normal(shape) for _ in range(len(shape))))


def quadratic_regularizers(rng, shape):
    """One random quadratic-entropy regularizer per player."""
    return tuple(sg.quadratic_entropy(rng.uniform(0.25, 1.0),
                                      np.diag(rng.uniform(1.0, 3.0, k)),
                                      rng.dirichlet(np.ones(k)))
                 for k in shape)


def random_interior(rng, shape):
    # entries bounded away from zero so finite differences stay on the face
    blocks = []
    for k in shape:
        v = rng.uniform(0.2, 1.0, k)
        blocks.append(v / v.sum())
    return sg.JointStrategy(tuple(blocks))


def random_tangent_blocks(rng, shape):
    out = []
    for k in shape:
        v = rng.standard_normal(k)
        out.append(v - v.mean())
    return out


def doubly_centered(mat):
    mat = mat - mat.mean(axis=0, keepdims=True)
    return mat - mat.mean(axis=1, keepdims=True)


def graph_edges(kind, n):
    if kind == "path":
        return [(i, i + 1) for i in range(n - 1)]
    if kind == "cycle":
        return [(i, (i + 1) % n) for i in range(n)]
    if kind == "complete":
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    raise ValueError(f"unknown graph kind {kind!r}")


def skew_blocks(rng, dims, lam, edges):
    """Off-diagonal blocks with lam_a J_ab = -lam_b J_ba^T on the edges.

    Blocks are doubly centered so they are valid face-projected
    cross-derivative blocks at a full-support point.
    """
    n = len(dims)
    blocks = [[np.zeros((dims[a], dims[b])) for b in range(n)] for a in range(n)]
    for a, b in edges:
        m = doubly_centered(rng.standard_normal((dims[a], dims[b])))
        blocks[a][b] = m
        blocks[b][a] = -(lam[a] / lam[b]) * m.T
    return tuple(tuple(row) for row in blocks)


def jacobian_from_blocks(dims, blocks):
    point = sg.JointStrategy(tuple(np.full(k, 1.0 / k) for k in dims))
    supports = tuple(np.arange(k) for k in dims)
    return sg.GameJacobian(point=point, blocks=blocks, supports=supports)


def skew_jacobian(rng, dims, lam, edges):
    return jacobian_from_blocks(dims, skew_blocks(rng, dims, lam, edges))


def polymatrix_game(rng, shape, lam=None, edges=None):
    """Pairwise-interaction game; lam-skew couplings when lam is given.

    f_p(x) = sum_b x_p^T M_pb x_b, so the Jacobian blocks are exactly the
    (centered) pair matrices at every point.
    """
    n = len(shape)
    if edges is None:
        edges = graph_edges("complete", n)
    pair = {}
    for a, b in edges:
        m = doubly_centered(rng.standard_normal((shape[a], shape[b])))
        pair[(a, b)] = m
        if lam is None:
            pair[(b, a)] = doubly_centered(rng.standard_normal((shape[b], shape[a])))
        else:
            pair[(b, a)] = -(lam[a] / lam[b]) * m.T
    tensors = []
    for p in range(n):
        t = np.zeros(shape)
        for (a, b), m in pair.items():
            if a != p:
                continue
            lo, hi = min(a, b), max(a, b)
            bc = [1] * n
            bc[lo], bc[hi] = shape[lo], shape[hi]
            t = t + (m if a < b else m.T).reshape(bc)
        tensors.append(t)
    return sg.NormalFormGame(tuple(tensors)), pair


def random_pd(rng, k, spread=2.0):
    q, r = np.linalg.qr(rng.standard_normal((k, k)))
    q = q * np.sign(np.diag(r))
    eigs = 10.0 ** rng.uniform(-spread, spread, k)
    return (q * eigs) @ q.T


def block_diag(mats):
    dims = [m.shape[0] for m in mats]
    out = np.zeros((sum(dims), sum(dims)))
    off = 0
    for m in mats:
        k = m.shape[0]
        out[off:off + k, off:off + k] = m
        off += k
    return out


def nonstrategic_offsets(rng, shape, scale=1.0):
    """Per-player tensors constant along the owner's own axis."""
    offsets = []
    for p in range(len(shape)):
        opp_shape = tuple(k for q, k in enumerate(shape) if q != p)
        b = scale * rng.standard_normal(opp_shape) if opp_shape else np.array(scale)
        offsets.append(np.expand_dims(b, axis=p) * np.ones(shape))
    return offsets
