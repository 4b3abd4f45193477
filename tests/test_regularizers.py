import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import smoothgames as sg
from smoothgames.errors import (ArgumentError, DimensionError, DomainError,
                                ParseError)

seeds = st.integers(0, 2**32 - 1)
PINV_CUTOFF = 1e-12  # relative eigenvalue cutoff for the reference route


def _eig_pseudoinverse(hess, support, k):
    """Pseudoinverse by eigendecomposition with a relative cutoff (the
    reference route the face solve is tested against)."""
    q = sg.tangent_basis(k, support)
    reduced = q.T @ hess @ q
    vals, vecs = np.linalg.eigh(reduced)
    cutoff = PINV_CUTOFF * max(np.abs(vals).max(initial=0.0), 1e-300)
    keep = np.abs(vals) > cutoff
    inv = np.zeros_like(vals)
    inv[keep] = 1.0 / vals[keep]
    return q @ (vecs * inv) @ vecs.T @ q.T


def interior(rng, k):
    v = rng.uniform(0.1, 1.0, k)
    return v / v.sum()


def tangent(rng, k):
    v = rng.standard_normal(k)
    return v - v.mean()


def random_quadratic_entropy(rng, k):
    a = rng.standard_normal((k, k)) + 2.0 * np.eye(k)
    return sg.quadratic_entropy(10.0 ** rng.uniform(-1, 0.5), a, interior(rng, k))


# ---------------------------------------------------------------------------
# construction

def test_entropy_dimension_validation():
    assert sg.entropy(1).dimension == 1  # singleton faces arise in reduced games
    with pytest.raises(ArgumentError):
        sg.entropy(0)


@pytest.mark.parametrize("k", [2.5, 2.0, "3", True, -1])
def test_entropy_rejects_non_integer_dimension(k):
    with pytest.raises(ArgumentError, match="dimension"):
        sg.entropy(k)


def test_quadratic_entropy_validation():
    with pytest.raises(ArgumentError):
        sg.quadratic_entropy(0.0, np.eye(2), np.full(2, 0.5))
    with pytest.raises(ArgumentError):
        sg.quadratic_entropy(1.0, np.zeros((2, 2)), np.full(2, 0.5))  # singular A
    # a misshapen A or w is a DimensionError
    with pytest.raises(DimensionError):
        sg.quadratic_entropy(1.0, np.eye(2), np.full(3, 1 / 3))
    with pytest.raises(DimensionError):
        sg.quadratic_entropy(1.0, np.ones((2, 3)), np.full(3, 1 / 3))


def test_regularizer_rejects_non_finite_parameters():
    eye, w = np.eye(2), np.full(2, 0.5)
    for lam in (np.nan, np.inf):
        with pytest.raises(ArgumentError):
            sg.quadratic_entropy(lam, eye, w)
    with pytest.raises(ArgumentError):
        sg.quadratic_entropy(1.0, [[1.0, np.nan], [0.0, 1.0]], w)
    with pytest.raises(ArgumentError):
        sg.quadratic_entropy(1.0, eye, [np.nan, 0.5])
    with pytest.raises(ParseError):
        sg.regularizer_from_dict({"kind": "quadratic_entropy",
                                  "lambda": float("nan"), "A": eye.tolist(),
                                  "w": w.tolist()})


def test_entropy_is_the_family_member_without_a_quadratic_term():
    assert sg.Regularizer(3) == sg.entropy(3)
    assert sg.entropy(3).kind == "entropy"
    assert sg.quadratic_entropy(1.0, np.eye(3), np.full(3, 1 / 3)).kind \
        == "quadratic_entropy"
    with pytest.raises(ArgumentError):
        sg.Regularizer(3, A=np.eye(3))  # w missing
    with pytest.raises(ArgumentError):
        sg.Regularizer(3, lam=0.5)  # the JSON form of entropy has no weight


# ---------------------------------------------------------------------------
# values and gradients

def test_entropy_value_closed_forms():
    r = sg.entropy(3)
    assert abs(sg.reg_value(r, np.full(3, 1 / 3)) + np.log(3)) <= 1e-12
    assert sg.reg_value(r, np.array([1.0, 0.0, 0.0])) == 0.0  # 0 log 0 = 0


def test_quadratic_entropy_value_hand_check():
    a = np.array([[2.0, 0.0], [1.0, 1.0]])
    w = np.array([0.5, 0.5])
    r = sg.quadratic_entropy(0.7, a, w)
    x = np.array([0.8, 0.2])
    ent = 0.8 * np.log(0.8) + 0.2 * np.log(0.2)
    diff = a @ (x - w)
    expected = 0.7 * ent + 0.5 * diff @ diff
    assert abs(sg.reg_value(r, x) - expected) <= 1e-12


def test_reg_value_domain():
    r = sg.entropy(2)
    with pytest.raises(DimensionError):
        sg.reg_value(r, np.full(3, 1 / 3))
    with pytest.raises(DomainError):
        sg.reg_value(r, np.array([1.2, -0.2]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_reg_value_rejects_non_finite_points(bad):
    with pytest.raises(ArgumentError, match="finite"):
        sg.reg_value(sg.entropy(2), [bad, 1.0])


def test_entropy_gradient_closed_forms():
    r = sg.entropy(2)
    np.testing.assert_allclose(
        sg.reg_tangent_gradient(r, np.full(2, 0.5)), 0.0, atol=1e-14)
    g = sg.reg_tangent_gradient(r, np.array([0.9, 0.1]))
    np.testing.assert_allclose(g, [np.log(9) / 2, -np.log(9) / 2], atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=seeds, k=st.integers(2, 6), quad=st.booleans())
def test_gradient_matches_directional_difference(seed, k, quad):
    rng = np.random.default_rng(seed)
    r = random_quadratic_entropy(rng, k) if quad else sg.entropy(k)
    x = interior(rng, k)
    v = tangent(rng, k)
    v /= np.abs(v).max() / min(1e-3, x.min() / 4)  # stay inside the simplex
    g = sg.reg_tangent_gradient(r, x)
    fd = (sg.reg_value(r, x + v) - sg.reg_value(r, x - v)) / 2.0
    assert abs(g @ v - fd) <= 1e-6 * max(1.0, np.abs(g).max())
    assert abs(g.sum()) <= 1e-10


def test_gradient_rejects_support_with_zero_mass():
    r = sg.entropy(3)
    x = np.array([0.5, 0.5, 0.0])
    out = sg.reg_tangent_gradient(r, x)  # default support is fine
    assert out[2] == 0.0
    with pytest.raises(DomainError):
        sg.reg_tangent_gradient(r, x, support=[0, 1, 2])


# ---------------------------------------------------------------------------
# face Hessians

def test_entropy_face_hessian_uniform():
    r = sg.entropy(2)
    fh = sg.face_hessian(r, np.full(2, 0.5))
    pi = sg.centering_projection(2)
    np.testing.assert_allclose(fh.hessian, 2.0 * pi, atol=1e-12)
    np.testing.assert_allclose(fh.pseudoinverse, pi / 2.0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=seeds, k=st.integers(2, 6), quad=st.booleans())
def test_face_hessian_matches_gradient_differences(seed, k, quad):
    rng = np.random.default_rng(seed)
    r = random_quadratic_entropy(rng, k) if quad else sg.entropy(k)
    x = interior(rng, k)
    v = tangent(rng, k)
    v /= np.abs(v).max() / min(1e-5, x.min() / 4)
    fh = sg.face_hessian(r, x)
    fd = (sg.reg_tangent_gradient(r, x + v) - sg.reg_tangent_gradient(r, x - v)) / 2.0
    scale = max(1.0, np.abs(fh.hessian).max())
    np.testing.assert_allclose(fh.hessian @ v, fd, atol=1e-4 * scale)


@settings(max_examples=40, deadline=None)
@given(seed=seeds, k=st.integers(2, 6), quad=st.booleans(),
       face=st.booleans())
def test_pseudoinverse_identities(seed, k, quad, face):
    rng = np.random.default_rng(seed)
    r = random_quadratic_entropy(rng, k) if quad else sg.entropy(k)
    x = interior(rng, k)
    if face and k > 2:
        x = np.concatenate([np.zeros(1), interior(rng, k - 1)])
        rng.shuffle(x)
    fh = sg.face_hessian(r, x)
    h, p = fh.hessian, fh.pseudoinverse
    scale = max(1.0, np.abs(h).max())
    np.testing.assert_allclose(h @ p @ h, h, atol=1e-8 * scale)
    np.testing.assert_allclose(p @ h @ p, p, atol=1e-8 * max(1.0, np.abs(p).max()))
    np.testing.assert_allclose(h @ p, (h @ p).T, atol=1e-8)


def test_face_solve_is_numpy_solve_with_its_singular_error():
    # the LAPACK routine is called without np.linalg.solve's wrapper: the
    # same bits on random stacks, and the same error on a singular system,
    # with and without a frame
    rng = np.random.default_rng(5)
    for lead, s, m in (((), 2, 1), ((3,), 3, 1), ((2, 3), 4, 4)):
        lam = rng.uniform(0.1, 1.0, lead[-1:])
        a = rng.standard_normal(lead + (s, s)) + 2.0 * np.eye(s)
        curvature = a.swapaxes(-1, -2) @ a
        y = rng.dirichlet(np.ones(s), lead)
        rhs = rng.standard_normal(lead + (s, m))
        kkt = np.zeros(lead + (s + 1, s + 1))
        kkt[..., :s, :s] = curvature * y[..., None, :]
        kkt[..., range(s), range(s)] += np.asarray(lam)[..., None]
        kkt[..., :s, s] = 1.0
        kkt[..., s, :s] = y
        padded = np.concatenate([rhs, np.zeros(lead + (1, m))], axis=-2)
        want = np.linalg.solve(kkt, padded)[..., :s, :]
        frame = sg.regularizers.kkt_frame(lam, curvature, y, rhs)
        for got in (sg.regularizers.face_solve(lam, curvature, y, rhs),
                    sg.regularizers.face_solve(lam, curvature, y, rhs, frame)):
            assert got.tobytes() == want.tobytes()
    lam, curvature, y, rhs = (0.0, np.zeros((2, 2)), np.array([0.5, 0.5]),
                              np.eye(2))
    frame = sg.regularizers.kkt_frame(lam, curvature, y, rhs)
    for args in ((), (frame,)):
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            sg.regularizers.face_solve(lam, curvature, y, rhs, *args)


def test_entropy_pseudoinverse_agrees_with_eig_route():
    # the face solve (for entropy, diag(x) - x x^T) against the generic
    # eigendecomposition
    rng = np.random.default_rng(0)
    for k in (2, 3, 5):
        for _ in range(10):
            x = interior(rng, k)
            fh = sg.face_hessian(sg.entropy(k), x)
            alt = _eig_pseudoinverse(fh.hessian, np.arange(k), k)
            np.testing.assert_allclose(fh.pseudoinverse, alt, atol=1e-10)


def test_entropy_pseudoinverse_is_accurate_near_pure_points():
    # y_i - y_i^2 cancels near a pure point; the directly summed closed form,
    # which face_hessian and the response kernel share, keeps every entry
    # to a few ulps of a 60-digit reference
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(17)
    k = 4
    points = []
    for _ in range(200):
        tails = 10.0 ** rng.uniform(-12, -6, k - 1)
        y = np.concatenate([[1.0 - tails.sum()], tails])
        points.append(rng.permutation(y))
    stacked = sg.regularizers.entropy_pseudoinverse(np.stack(points))
    worst = 0.0
    with mpmath.workdps(60):
        for y, row in zip(points, stacked):
            exact = [mpmath.mpf(float(v)) for v in y]
            total = mpmath.fsum(exact)
            exact = [v / total for v in exact]
            ref = mpmath.matrix(k, k)
            for i in range(k):
                for j in range(k):
                    ref[i, j] = (exact[i] if i == j else 0) - exact[i] * exact[j]
            for got in (sg.face_hessian(sg.entropy(k), y).pseudoinverse, row):
                for i in range(k):
                    for j in range(k):
                        rel = abs((mpmath.mpf(float(got[i, j])) - ref[i, j])
                                  / ref[i, j])
                        worst = max(worst, float(rel))
    assert worst <= 1e-14, worst


def test_face_hessian_positive_definite_on_tangent():
    rng = np.random.default_rng(1)
    for k in (2, 4):
        r = random_quadratic_entropy(rng, k)
        x = interior(rng, k)
        q = sg.tangent_basis(k)
        vals = np.linalg.eigvalsh(q.T @ sg.face_hessian(r, x).hessian @ q)
        assert vals.min() > 0


def test_face_hessian_singleton_support_is_zero():
    fh = sg.face_hessian(sg.entropy(3), np.array([0.0, 1.0, 0.0]))
    assert fh.support == (1,)
    assert np.all(fh.hessian == 0.0) and np.all(fh.pseudoinverse == 0.0)


def test_face_hessian_domain_errors():
    r = sg.entropy(3)
    with pytest.raises(DomainError):
        sg.face_hessian(r, np.array([0.5, 0.5, 0.0]), support=[0, 2])
    with pytest.raises(DomainError):
        sg.face_hessian(r, np.array([-0.1, 0.6, 0.5]))
    with pytest.raises(DimensionError):
        sg.face_hessian(r, np.full(4, 0.25))


@pytest.mark.parametrize("x", [[np.nan, 1.0], [0.5, np.inf],
                               [0.5, 0.5, 0.0], [0.2, 0.3, 0.5], [1.0]])
@pytest.mark.parametrize("fn", [sg.face_hessian, sg.reg_tangent_gradient])
def test_face_functions_reject_bad_points(fn, x):
    # non-finite entries are an ArgumentError, a wrong length a
    # DimensionError
    with pytest.raises(ArgumentError if len(x) == 2 else DimensionError):
        fn(sg.entropy(2), x)


@pytest.mark.parametrize("r, x", [(sg.entropy(2), [-0.5, 1.5]),
                                  (sg.entropy(3), [0.7, 0.7, 0.7])])
@pytest.mark.parametrize("fn", [sg.reg_value, sg.reg_tangent_gradient,
                                sg.face_hessian])
def test_point_functions_reject_points_off_the_simplex(fn, r, x):
    # a negative entry, or entries that do not sum to 1
    with pytest.raises(DomainError):
        fn(r, x)


# ---------------------------------------------------------------------------
# prescribed-curvature construction

def test_make_regularizer_with_hessian_round_trip():
    rng = np.random.default_rng(2)
    failures = 0
    for trial in range(100):
        k = int(rng.integers(2, 6))
        x = interior(rng, k)
        q = sg.tangent_basis(k)
        raw = rng.standard_normal((k - 1, k - 1))
        m = q @ (raw @ raw.T + 0.5 * np.eye(k - 1)) @ q.T
        r = sg.make_regularizer_with_hessian(x, m)
        g = sg.reg_tangent_gradient(r, x)
        h = sg.face_hessian(r, x).hessian
        scale = max(1.0, np.abs(m).max())
        if np.abs(g).max() > 1e-8 * scale or np.abs(h - m).max() > 1e-8 * scale:
            failures += 1
    assert failures == 0


def test_make_regularizer_with_hessian_entropy_curvature():
    # prescribing entropy's own uniform-point curvature reproduces it
    k = 3
    x = np.full(k, 1 / k)
    pi = sg.centering_projection(k)
    target = pi @ np.diag(np.full(k, float(k))) @ pi
    r = sg.make_regularizer_with_hessian(x, target)
    np.testing.assert_allclose(sg.face_hessian(r, x).hessian,
                               sg.face_hessian(sg.entropy(k), x).hessian,
                               atol=1e-8)


def test_make_regularizer_with_hessian_of_one_action():
    # the one-action tangent space is empty: nothing to make definite
    r = sg.make_regularizer_with_hessian([1.0], [[0.0]])
    assert r.lam == 0.5
    assert not np.any(sg.reg_tangent_gradient(r, np.ones(1)))
    assert not np.any(sg.face_hessian(r, np.ones(1)).hessian)


def test_make_regularizer_with_hessian_rejections():
    x = np.full(3, 1 / 3)
    pi = sg.centering_projection(3)
    good = 2.0 * pi
    with pytest.raises(DomainError):
        sg.make_regularizer_with_hessian(np.array([0.5, 0.5, 0.0]), good)
    with pytest.raises(DimensionError):
        sg.make_regularizer_with_hessian(x, np.eye(2))
    bad_sym = good.copy()
    bad_sym[0, 1] += 1.0
    with pytest.raises(ArgumentError):
        sg.make_regularizer_with_hessian(x, bad_sym)
    with pytest.raises(ArgumentError):
        sg.make_regularizer_with_hessian(x, np.eye(3))  # not tangent-supported
    with pytest.raises(ArgumentError):
        sg.make_regularizer_with_hessian(x, -good)  # not PD on the tangent


# ---------------------------------------------------------------------------
# steepness probe

def test_entropy_probe_respects_envelope():
    betas = (0.2, 0.1, 0.05)
    eps = 0.5
    ratios = sg.linear_steepness_probe(sg.entropy(3), 0, eps, betas)
    for beta, ratio in zip(betas, ratios):
        assert 0.0 < ratio <= np.exp(-eps / beta) / beta * (1 + 1e-6)
    assert ratios[0] > ratios[1] > ratios[2]
    assert ratios[-1] < 1e-3


def test_probe_zero_eps_boundary_case():
    # eps = 0 means coordinate i ties the best response; mass stays O(1)
    ratios = sg.linear_steepness_probe(sg.entropy(2), 0, 0.0, (0.1,))
    assert abs(ratios[0] - 5.0) <= 1e-9  # x_i = 1/2, beta = 0.1


def test_probe_quadratic_entropy_decays():
    r = sg.quadratic_entropy(0.05, 0.1 * np.eye(3), np.full(3, 1 / 3))
    ratios = sg.linear_steepness_probe(r, 1, 0.5, (0.2, 0.1, 0.05))
    assert ratios[0] > ratios[1] > ratios[2] > 0.0


def test_probe_random_payoffs_reproducible():
    r = sg.entropy(4)
    a = sg.linear_steepness_probe(r, 2, 0.3, (0.2, 0.1),
                                  rng=np.random.default_rng(9))
    b = sg.linear_steepness_probe(r, 2, 0.3, (0.2, 0.1),
                                  rng=np.random.default_rng(9))
    assert a == b


def test_probe_argument_validation():
    with pytest.raises(ArgumentError):
        sg.linear_steepness_probe(sg.entropy(3), 3, 0.5, (0.1,))
    with pytest.raises(ArgumentError):
        sg.linear_steepness_probe(sg.entropy(3), 0, -0.5, (0.1,))


# ---------------------------------------------------------------------------
# config-JSON forms

def test_regularizer_dict_round_trip():
    r = sg.entropy(3)
    back = sg.regularizer_from_dict(sg.regularizer_to_dict(r), dimension=3)
    assert back == r
    rng = np.random.default_rng(4)
    q = random_quadratic_entropy(rng, 3)
    back = sg.regularizer_from_dict(sg.regularizer_to_dict(q))
    assert back.kind == "quadratic_entropy"
    assert abs(back.lam - q.lam) <= 1e-15
    np.testing.assert_allclose(back.A, q.A, atol=1e-15)
    np.testing.assert_allclose(back.w, q.w, atol=1e-15)


def test_regularizer_from_dict_errors():
    with pytest.raises(ParseError):
        sg.regularizer_from_dict({"kind": "entropy"})  # dimension missing
    with pytest.raises(ParseError):
        sg.regularizer_from_dict({"kind": "tsallis"}, dimension=3)
    with pytest.raises(ParseError):
        sg.regularizer_from_dict({"kind": "quadratic_entropy", "lambda": 1.0,
                                  "A": [[1, 0], [0, 1]], "w": [0.5, 0.5]},
                                 dimension=3)
    with pytest.raises(ParseError):
        sg.regularizer_from_dict({"kind": "quadratic_entropy", "lambda": 1.0})
    with pytest.raises(ParseError):  # a scalar A
        sg.regularizer_from_dict({"kind": "quadratic_entropy", "lambda": 1.0,
                                  "A": 5, "w": [0.5, 0.5]})
