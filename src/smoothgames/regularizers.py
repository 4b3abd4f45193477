"""Steep regularizers on probability simplices.

Two kinds are shipped: negative entropy and the parametric family
``h(x) = lam * sum_i x_i log x_i + 0.5 * ||A (x - w)||^2``.  The family is
rich enough to realize any positive-definite tangent Hessian at any interior
point, which is all the surrounding theory needs.  Gradients and Hessians
are tangent objects obtained with the shared centering projection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DomainError, ParseError
from .games import face_projection, tangent_basis

PINV_CUTOFF = 1e-12  # relative eigenvalue cutoff for pseudoinverses


@dataclass(frozen=True)
class Regularizer:
    """A steep convex regularizer on the k-simplex."""

    kind: str
    dimension: int
    lam: float = None
    A: np.ndarray = None
    w: np.ndarray = None

    def __post_init__(self):
        if self.kind not in ("entropy", "quadratic_entropy"):
            raise ArgumentError(f"unknown regularizer kind {self.kind!r}")
        if self.dimension < 1:
            raise ArgumentError("dimension must be at least 1")
        if self.kind == "quadratic_entropy":
            if self.lam is None or self.A is None or self.w is None:
                raise ArgumentError(
                    "quadratic_entropy needs lam, A and w")
            if self.lam <= 0:
                raise ArgumentError("lam must be positive")
            a = np.asarray(self.A, dtype=float)
            w = np.asarray(self.w, dtype=float)
            if a.shape != (self.dimension, self.dimension):
                raise ArgumentError("A must be a square k x k matrix")
            if w.shape != (self.dimension,):
                raise ArgumentError("w must be a length-k vector")
            if abs(np.linalg.det(a)) == 0.0:
                raise ArgumentError("A must be invertible")
            object.__setattr__(self, "A", a)
            object.__setattr__(self, "w", w)


def entropy(k: int) -> Regularizer:
    return Regularizer(kind="entropy", dimension=k)


def quadratic_entropy(lam: float, A, w) -> Regularizer:
    A = np.asarray(A, dtype=float)
    return Regularizer(kind="quadratic_entropy", dimension=A.shape[0],
                       lam=float(lam), A=A, w=np.asarray(w, dtype=float))


@dataclass(frozen=True)
class FaceHessian:
    """Tangent Hessian on a face, with its Moore-Penrose pseudoinverse.

    Both matrices are ambient k x k, vanish outside the support, and are
    mutually pseudoinverse on the face's tangent space.
    """

    support: tuple
    hessian: np.ndarray
    pseudoinverse: np.ndarray


def _entropy_terms(x):
    # 0 * log 0 := 0
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = x[pos] * np.log(x[pos])
    return out


def reg_value(r: Regularizer, x) -> float:
    x = np.asarray(x, dtype=float)
    if x.shape != (r.dimension,):
        raise ArgumentError(f"expected a length-{r.dimension} vector")
    if np.any(x < 0):
        raise DomainError("regularizers are defined on the simplex only")
    val = float(_entropy_terms(x).sum())
    if r.kind == "entropy":
        return val
    diff = r.A @ (x - r.w)
    return r.lam * val + 0.5 * float(diff @ diff)


def _infer_support(x, support):
    if support is None:
        return np.flatnonzero(x > 0)
    support = np.asarray(support, dtype=int)
    if np.any(x[support] == 0):
        raise DomainError("support claims coordinates where x is exactly 0")
    return support


def reg_tangent_gradient(r: Regularizer, x, support=None) -> np.ndarray:
    """Centered gradient on the tangent space of the face of x.

    The support defaults to the positive coordinates of x; passing an
    explicit support containing a zero coordinate is a domain error
    (the steep gradient diverges there).
    """
    x = np.asarray(x, dtype=float)
    support = _infer_support(x, support)
    grad = np.zeros_like(x)
    lam = 1.0 if r.kind == "entropy" else r.lam
    grad[support] = lam * np.log(x[support])
    if r.kind == "quadratic_entropy":
        grad += r.A.T @ (r.A @ (x - r.w))
    out = np.zeros_like(x)
    out[support] = grad[support] - grad[support].mean()
    return out


def face_hessian(r: Regularizer, x, support=None) -> FaceHessian:
    """Tangent Hessian of the regularizer restricted to a face.

    For entropy this is ``Pi_S diag(1/x) Pi_S`` whose pseudoinverse has the
    closed form ``diag(x) - x x^T`` on the face (verified by the projector
    identity), which stays accurate even when the face Hessian is stiff.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (r.dimension,):
        raise ArgumentError(f"expected a length-{r.dimension} vector")
    if np.any(x < 0):
        raise DomainError("x must lie on the simplex")
    support = _infer_support(x, support)
    outside = np.setdiff1d(np.arange(r.dimension), support)
    if np.any(x[outside] > 0):
        raise DomainError("x is not on the face of the claimed support")
    k = r.dimension
    if len(support) <= 1:
        zero = np.zeros((k, k))
        return FaceHessian(support=tuple(support), hessian=zero,
                           pseudoinverse=zero.copy())
    pi = face_projection(k, support)
    diag = np.zeros((k, k))
    diag[support, support] = 1.0 / x[support]
    lam = 1.0 if r.kind == "entropy" else r.lam
    hess = pi @ (lam * diag) @ pi
    if r.kind == "quadratic_entropy":
        hess += pi @ (r.A.T @ r.A) @ pi
        pinv = _eig_pseudoinverse(hess, support, k)
    else:
        # closed form: (Pi_S diag(1/x) Pi_S)^+ = diag(x) - x x^T on the face
        xs = x[support] / x[support].sum()
        pinv = np.zeros((k, k))
        pinv[np.ix_(support, support)] = (np.diag(xs) - np.outer(xs, xs)) / lam
    return FaceHessian(support=tuple(support), hessian=hess, pseudoinverse=pinv)


def _eig_pseudoinverse(hess, support, k):
    """Pseudoinverse by eigendecomposition with a relative cutoff."""
    q = tangent_basis(k, support)
    reduced = q.T @ hess @ q
    vals, vecs = np.linalg.eigh(reduced)
    cutoff = PINV_CUTOFF * max(np.abs(vals).max(initial=0.0), 1e-300)
    keep = np.abs(vals) > cutoff
    inv = np.zeros_like(vals)
    inv[keep] = 1.0 / vals[keep]
    return q @ (vecs * inv) @ vecs.T @ q.T


def make_regularizer_with_hessian(x, M) -> Regularizer:
    """Construct a quadratic_entropy regularizer with prescribed curvature.

    Returns h with zero tangent gradient at the interior point x and tangent
    Hessian exactly M there.  Uses ``A^T A = M + 11^T - lam * diag(1/x)``
    with lam halved from 1 until that matrix is positive definite, and
    ``w = x + lam * (A^T A)^{-1} log x`` so the centered gradient cancels.
    """
    x = np.asarray(x, dtype=float)
    M = np.asarray(M, dtype=float)
    k = len(x)
    if np.any(x <= 0) or abs(x.sum() - 1.0) > 1e-9:
        raise DomainError("x must be an interior simplex point")
    if M.shape != (k, k):
        raise ArgumentError("M must be k x k")
    if not np.allclose(M, M.T, atol=1e-10):
        raise ArgumentError("M must be symmetric")
    ones = np.ones(k)
    if np.abs(M @ ones).max() > 1e-8 * max(1.0, np.abs(M).max()):
        raise ArgumentError("M must be supported on the tangent space")
    q = tangent_basis(k)
    tangent_eigs = np.linalg.eigvalsh(q.T @ M @ q)
    if tangent_eigs.min() <= 0:
        raise ArgumentError("M must be positive definite on the tangent space")

    base = M + np.outer(ones, ones)
    diag = np.diag(1.0 / x)
    lam = 1.0
    for _ in range(60):
        ata = base - lam * diag
        if np.linalg.eigvalsh(ata).min() > 0:
            break
        lam /= 2.0
    else:
        raise ArgumentError(
            "no lam in the halving search makes A^T A positive definite")
    # symmetric square root of A^T A
    vals, vecs = np.linalg.eigh(ata)
    a = (vecs * np.sqrt(vals)) @ vecs.T
    w = x + lam * np.linalg.solve(ata, np.log(x))
    return Regularizer(kind="quadratic_entropy", dimension=k, lam=lam,
                       A=a, w=w)


# ---------------------------------------------------------------------------
# config-JSON interface

def regularizer_to_dict(r: Regularizer) -> dict:
    if r.kind == "entropy":
        return {"kind": "entropy"}
    return {"kind": "quadratic_entropy", "lambda": r.lam,
            "A": r.A.tolist(), "w": r.w.tolist()}


def regularizer_from_dict(data: dict, dimension=None) -> Regularizer:
    """Build a regularizer from its config-JSON form.

    Entropy specs carry no dimension of their own, so one must be supplied.
    """
    try:
        kind = data["kind"]
        if kind == "entropy":
            if dimension is None:
                raise ParseError("entropy spec needs an explicit dimension")
            return entropy(int(dimension))
        if kind == "quadratic_entropy":
            reg = quadratic_entropy(data["lambda"], data["A"], data["w"])
            if dimension is not None and reg.dimension != dimension:
                raise ParseError(
                    f"regularizer dimension {reg.dimension} does not match "
                    f"expected {dimension}")
            return reg
        raise ParseError(f"unknown regularizer kind {kind!r}")
    except (KeyError, TypeError, ValueError) as err:
        if isinstance(err, ParseError):
            raise
        raise ParseError(f"bad regularizer spec: {err}") from err
