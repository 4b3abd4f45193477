"""Steep regularizers on probability simplices.

One family: ``h(x) = lam * sum_i x_i log x_i + 0.5 * ||A (x - w)||^2``, with
negative entropy as its member without a quadratic term.  The family is rich
enough to realize any positive-definite tangent Hessian at any interior
point, which is all the surrounding theory needs.  Gradients and Hessians
are tangent objects; every curvature solve is :func:`face_solve`, in log
coordinates, and entropy's face pseudoinverse is the closed form of
:func:`entropy_pseudoinverse`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (ArgumentError, DomainError, ParseError, check_array,
                     check_count, check_real, check_type)
from .games import (face_projection, simplex_point, support_indices,
                    tangent_basis)

try:  # the LAPACK gufunc np.linalg.solve calls, minus its Python wrapper
    from numpy.linalg._umath_linalg import solve as _gesv
except ImportError:  # another numpy: the public function, the same results
    _solve = np.linalg.solve
else:
    def _singular(err, flag):
        raise np.linalg.LinAlgError("Singular matrix")

    # the error state np.linalg.solve enters; an errstate instance cannot be
    # entered twice, but as a decorator it makes a fresh state per call
    @np.errstate(call=_singular, invalid="call", over="ignore",
                 divide="ignore", under="ignore")
    def _solve(a, b):
        """``np.linalg.solve(a, b)``, bit for bit and with its singular
        matrix error, for float stacks of matrix right-hand sides."""
        return _gesv(a, b, signature="dd->d")


@dataclass(frozen=True)
class Regularizer:
    """``lam * sum x log x + 0.5 ||A (x - w)||^2`` on the k-simplex.

    Without ``A`` and ``w`` it is negative entropy, with ``lam = 1`` (the
    JSON form of entropy carries no weight).  ``curvature`` is ``A^T A``,
    zero without a quadratic term.
    """

    dimension: int
    lam: float = 1.0
    A: np.ndarray = None
    w: np.ndarray = None
    curvature: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        k = self.dimension
        check_count("dimension", k, positive=True)
        object.__setattr__(self, "lam", float(check_real("lam", self.lam)))
        if (self.A is None) != (self.w is None):
            raise ArgumentError("A and w are given together or not at all")
        if self.A is None:
            if self.lam != 1.0:
                raise ArgumentError("entropy (no A and w) has lam = 1")
            object.__setattr__(self, "curvature", np.zeros((k, k)))
            return
        a = check_array("A", self.A, (k, k))
        w = check_array("w", self.w, (k,))
        if abs(np.linalg.det(a)) == 0.0:
            raise ArgumentError("A must be invertible")
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "curvature", a.T @ a)

    @property
    def kind(self) -> str:
        """'entropy' without a quadratic term, else 'quadratic_entropy'."""
        return "entropy" if self.A is None else "quadratic_entropy"

    def quadratic(self, x):
        """Gradient ``C (x - w)`` and value of the quadratic term at x;
        both zero without one."""
        if self.A is None:
            return np.zeros(self.dimension), 0.0
        force = self.curvature @ (x - self.w)
        return force, 0.5 * float((x - self.w) @ force)


def entropy(k: int) -> Regularizer:
    return Regularizer(k)


def quadratic_entropy(lam: float, A, w) -> Regularizer:
    A = check_array("A", A)
    return Regularizer(A.shape[0] if A.ndim else 0, lam=lam, A=A, w=w)


@dataclass(frozen=True)
class FaceHessian:
    """Tangent Hessian of a regularizer on the face of a point, with its
    Moore-Penrose pseudoinverse.

    Both matrices are ambient k x k, vanish outside the support, and are
    mutually pseudoinverse on the face's tangent space.  The Hessian
    ``Pi_S (lam diag(1/x) + A^T A) Pi_S`` is built on first access: it
    overflows where coordinates of x are denormal, and the pseudoinverse
    does not need it.
    """

    regularizer: Regularizer
    point: np.ndarray
    support: tuple
    pseudoinverse: np.ndarray

    @cached_property
    def hessian(self) -> np.ndarray:
        r, k, s = self.regularizer, self.regularizer.dimension, self.support
        if len(s) <= 1:
            return np.zeros((k, k))
        pi = face_projection(k, s)
        diag = np.zeros((k, k))
        diag[s, s] = 1.0 / self.point[list(s)]
        return pi @ (r.lam * diag + r.curvature) @ pi


def _point(r, x) -> np.ndarray:
    """x as a point of the simplex of the regularizer r."""
    return simplex_point(check_array(
        "x", x, (check_type("r", r, Regularizer).dimension,)))


def reg_value(r: Regularizer, x) -> float:
    x = _point(r, x)
    pos = x[x > 0]  # 0 log 0 := 0
    return r.lam * float((pos * np.log(pos)).sum()) + r.quadratic(x)[1]


def _infer_support(x, support):
    """The positive coordinates of x, which a given support must name."""
    if support is None:
        return np.flatnonzero(x > 0)
    support = support_indices(len(x), support)
    if np.any(x[support] == 0):
        raise DomainError("support claims coordinates where x is exactly 0")
    if np.any(np.delete(x, support) > 0):
        raise DomainError("x is not on the face of the claimed support")
    return support


def reg_tangent_gradient(r: Regularizer, x, support=None) -> np.ndarray:
    """Centered gradient on the tangent space of the face of x.

    The support defaults to the positive coordinates of x; passing an
    explicit support containing a zero coordinate is a domain error
    (the steep gradient diverges there).
    """
    x = _point(r, x)
    support = _infer_support(x, support)
    grad = r.quadratic(x)[0]
    grad[support] += r.lam * np.log(x[support])
    out = np.zeros_like(x)
    out[support] = grad[support] - grad[support].mean()
    return out


def kkt_frame(lam, curvature, y, rhs) -> tuple:
    """The part of :func:`face_solve`'s systems that does not depend on y.

    For stacks shaped like ``curvature``, ``y`` and ``rhs`` (only their
    shapes are read), it holds the KKT matrices with their ones column and
    zero corner set, the right-hand sides with their zero row set, a view
    of the matrices' first s diagonal entries and lam as a column to add
    there.  Solves that repeat with the same lam and shapes build it once
    and pass it to every call: the Newton argmax keeps one per group of
    blocks of a :class:`~smoothgames.response.FlatKernel` and batch size.
    """
    lam = np.asarray(lam, dtype=float)
    s = y.shape[-1]
    lead = np.broadcast_shapes(lam.shape, curvature.shape[:-2],
                               y.shape[:-1], rhs.shape[:-2])
    kkt = np.empty(lead + (s + 1, s + 1))
    kkt[..., :s, s] = 1.0
    kkt[..., s, s] = 0.0
    padded = np.empty(lead + (s + 1, rhs.shape[-1]))
    padded[..., s, :] = 0.0
    # the first s diagonal entries of each flattened (s+1) x (s+1) matrix
    diagonal = kkt.reshape(lead + (-1,))[..., :s * (s + 2):s + 2]
    return kkt, padded, diagonal, lam[..., None]


def face_solve(lam, curvature, y, rhs, frame=None) -> np.ndarray:
    """Solve ``[lam I + C diag(y), 1; y^T, 0] [E; mu] = [rhs; 0]`` for stacks.

    C is a curvature ``A^T A`` (restricted to a face, if y is), rhs a
    ``(..., s, m)`` stack of right-hand sides; the leading axes of lam,
    C ``(..., s, s)``, y ``(..., s)`` and rhs broadcast, and every system
    of the stack is solved by one call of the LAPACK routine behind
    ``np.linalg.solve``, without its Python wrapper but with its results
    and its ``LinAlgError`` on a singular system.  ``diag(y) E`` is the
    tangent vector the face Hessian ``lam diag(1/y) + C`` maps to rhs up to
    a multiple of 1: E is a Newton step for ``log y``, and ``diag(y) E``
    for ``rhs = I`` the Hessian's pseudoinverse.  No ``1/y`` is formed, so
    the solve stays exact where coordinates of y underflow; a coordinate
    with ``y = 0`` drops out of the other rows, which then solve the system
    of the face of the positive coordinates.

    ``frame`` is a :func:`kkt_frame` of the same lam and shapes, built here
    when not given; each call then writes only ``C diag(y)``, lam on its
    diagonal, the y row and rhs into it.
    """
    if frame is None:
        frame = kkt_frame(lam, curvature, y, rhs)
    kkt, padded, diagonal, lam_column = frame
    s = y.shape[-1]
    np.multiply(curvature, y[..., None, :], out=kkt[..., :s, :s])
    diagonal += lam_column
    kkt[..., s, :s] = y
    padded[..., :s, :] = rhs
    return _solve(kkt, padded)[..., :s, :]


def entropy_pseudoinverse(y) -> np.ndarray:
    """``diag(y) - y y^T`` for a ``(..., k)`` stack of simplex points: the
    face pseudoinverse of negative entropy at each.

    The diagonal ``y_i sum_{j != i} y_j`` is summed directly, since
    ``y_i - y_i^2`` cancels near a pure point, by one product per point,
    so a point's bits do not depend on its stack; coordinates with
    ``y = 0`` get zero rows and columns.
    """
    k = y.shape[-1]
    pinv = -y[..., :, None] * y[..., None, :]
    pinv[..., range(k), range(k)] = y * np.matmul(
        y[..., None, :], 1.0 - np.eye(k))[..., 0, :]
    return pinv


def face_hessian(r: Regularizer, x, support=None) -> FaceHessian:
    """Tangent Hessian of the regularizer restricted to a face.

    The pseudoinverse comes from :func:`face_solve` and stays accurate when
    the face Hessian is stiff; without a quadratic term it is the closed
    form of :func:`entropy_pseudoinverse` on the face.
    """
    x = _point(r, x)
    support = _infer_support(x, support)
    pinv = np.zeros((r.dimension, r.dimension))
    if len(support) > 1:
        face = np.ix_(support, support)
        if r.A is None:
            pinv[face] = entropy_pseudoinverse(x[support])
        else:
            pinv[face] = x[support, None] * face_solve(
                r.lam, r.curvature[face], x[support], np.eye(len(support)))
    return FaceHessian(regularizer=r, point=x.copy(), support=tuple(support),
                       pseudoinverse=pinv)


def make_regularizer_with_hessian(x, M) -> Regularizer:
    """Construct a quadratic_entropy regularizer with prescribed curvature.

    Returns h with zero tangent gradient at the interior point x and tangent
    Hessian exactly M there.  Uses ``A^T A = M + 11^T - lam * diag(1/x)``
    with lam halved from 1 until that matrix is positive definite, and
    ``w = x + lam * (A^T A)^{-1} log x`` so the centered gradient cancels.
    """
    x = simplex_point(check_array("x", x, (None,)))
    k = len(x)
    M = check_array("M", M, (k, k))
    if np.any(x == 0):
        raise DomainError("x must be an interior simplex point")
    if not np.allclose(M, M.T, atol=1e-10):
        raise ArgumentError("M must be symmetric")
    ones = np.ones(k)
    if np.abs(M @ ones).max() > 1e-8 * max(1.0, np.abs(M).max()):
        raise ArgumentError("M must be supported on the tangent space")
    q = tangent_basis(k)
    tangent_eigs = np.linalg.eigvalsh(q.T @ M @ q)
    if tangent_eigs.min(initial=np.inf) <= 0:  # none with one action
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
    return Regularizer(k, lam=lam, A=a, w=w)


# ---------------------------------------------------------------------------
# config-JSON interface

def regularizer_to_dict(r: Regularizer) -> dict:
    data = {"kind": check_type("r", r, Regularizer).kind}
    if r.A is not None:
        data.update({"lambda": r.lam, "A": r.A.tolist(), "w": r.w.tolist()})
    return data


def regularizer_from_dict(data: dict, dimension=None) -> Regularizer:
    """Build a regularizer from its config-JSON form.

    Entropy specs carry no dimension of their own, so one must be supplied.
    """
    try:
        kind = data["kind"]
        if kind == "entropy":
            if dimension is None:
                raise ParseError("entropy spec needs an explicit dimension")
            return entropy(dimension)
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
