"""The Newton argmax against a frozen copy of its earlier loop.

``reference_newton_log`` is the damped Newton of ``response._newton_solve``
as it stood before its KKT frame was built once per solve, with the KKT
system assembled afresh at every iteration.  The current loop must return
the same log-responses bit for bit, and fail with the same error.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import smoothgames as sg
from smoothgames.errors import ConvergenceError

from conftest import newton_log


def reference_face_solve(lam, curvature, y, rhs):
    lam = np.asarray(lam, dtype=float)
    s = y.shape[-1]
    lead = np.broadcast_shapes(lam.shape, curvature.shape[:-2],
                               y.shape[:-1], rhs.shape[:-2])
    kkt = np.empty(lead + (s + 1, s + 1))
    np.multiply(curvature, y[..., None, :], out=kkt[..., :s, :s])
    kkt.reshape(lead + (-1,))[..., :s * (s + 2):s + 2] += lam[..., None]
    kkt[..., :s, s] = 1.0
    kkt[..., s, :s] = y
    kkt[..., s, s] = 0.0
    padded = np.empty(lead + (s + 1, rhs.shape[-1]))
    padded[..., :s, :] = rhs
    padded[..., s, :] = 0.0
    return np.linalg.solve(kkt, padded)[..., :s, :]


def reference_newton_log(V, lam, C, w, beta, inner_tol, inner_max_iter, U,
                         seen):
    """The earlier loop; ``seen`` collects the iterations at which rows
    froze (``"frozen"``) and the number of line-search halvings."""
    def evaluate(U, Y):
        gap = Y - w
        force = np.einsum("...ij,...j->...i", C, gap)
        quad_value = 0.5 * np.einsum("...i,...i->...", gap, force)
        value = (np.einsum("...i,...i->...", V, Y)
                 - beta * (lam * np.einsum("...i,...i->...", Y, U)
                           + quad_value))
        return force, value

    beta = np.asarray(beta, dtype=float)
    k = V.shape[-1]
    Y = np.exp(U)
    force, current = evaluate(U, Y)
    active = np.ones(V.shape[:-1], dtype=bool)
    residual = np.full(active.shape, np.inf)
    for iteration in range(inner_max_iter):
        grad = V - beta[..., None] * (lam[..., None] * U + force)
        last_finite = residual
        residual = np.abs(grad - grad.sum(-1, keepdims=True) / k).max(-1)
        was = active.copy()
        active &= ~(residual <= inner_tol)
        if (was & ~active).any():
            seen["frozen"].add(iteration)
        if not active.any():
            return U
        broken = active & ~np.isfinite(residual)
        if broken.any():
            last = float(last_finite[broken][0])
            raise ConvergenceError(
                f"inner solver went non-finite at iteration {iteration}; "
                f"last finite residual {last:.3e}",
                residual=last, iterations=iteration,
                beta=float(np.broadcast_to(beta, broken.shape)[broken][0]))
        du = reference_face_solve(lam, C, Y,
                                  grad[..., None] / beta[..., None, None])
        du = du[..., 0]
        slack = 1e-12 * (1.0 + np.abs(current))
        t = np.ones(active.shape)
        searching = active.copy()
        accepted = U, Y, force, current
        for _ in range(60):
            cand = U + t[..., None] * du
            cand -= cand.max(axis=-1, keepdims=True)
            cand -= np.log(np.exp(cand).sum(axis=-1, keepdims=True))
            cand_y = np.exp(cand)
            cand_force, cand_value = evaluate(cand, cand_y)
            if searching.all():
                accepted = cand, cand_y, cand_force, cand_value
            else:
                rows = searching[..., None]
                accepted = (np.where(rows, cand, accepted[0]),
                            np.where(rows, cand_y, accepted[1]),
                            np.where(rows, cand_force, accepted[2]),
                            np.where(searching, cand_value, accepted[3]))
            searching &= ~(cand_value >= current - slack)
            if not searching.any():
                break
            seen["halvings"] += 1
            t[searching] /= 2
        U, Y, force, current = accepted
    worst = residual[active].argmax()
    raise ConvergenceError(
        f"inner solver hit {inner_max_iter} iterations at residual "
        f"{residual[active][worst]:.3e}",
        residual=float(residual[active][worst]), iterations=inner_max_iter,
        beta=float(np.broadcast_to(beta, active.shape)[active][worst]))


def newton_problem(rng, regime, beta_column, max_iter):
    """A ``(B, P, k)`` stack of argmax problems and the solver's arguments.

    ``regime`` is "cold" (every row from the uniform point at beta <=
    1e-3, where the first steps backtrack) or "mixed" (moderate betas,
    some rows warm-started near their solution and the others cold, so
    rows freeze at different iterations).
    """
    rows, players, k = (int(rng.integers(1, 5)), int(rng.integers(1, 4)),
                        int(rng.integers(2, 6)))
    cold = regime == "cold"
    # small payoffs against a weak entropy term make the cold steps overshoot
    lam = rng.uniform(*((0.01, 0.3) if cold else (0.05, 1.0)), players)
    A = rng.standard_normal((players, k, k)) + 2.0 * np.eye(k)
    C = A.transpose(0, 2, 1) @ A
    w = rng.dirichlet(np.ones(k), players)
    V = (rng.standard_normal((rows, players, k)) * 10.0 ** rng.uniform(
        *((-3.0, 0.0) if cold else (-1.0, 1.0)), (rows, 1, 1)))
    if cold:
        beta = 10.0 ** rng.uniform(-4.0, -3.0, (rows, 1))
    else:
        beta = rng.uniform(0.05, 2.0, (rows, 1))
    if not beta_column:
        beta = float(beta[0, 0])
    U = np.full(V.shape, -np.log(k))
    if regime == "mixed":
        near = reference_newton_log(
            V * (1.0 + 1e-3 * rng.standard_normal(V.shape)), lam, C, w, beta,
            1e-12, 10_000, U, {"frozen": set(), "halvings": 0})
        warm = rng.random((rows, players, 1)) < 0.5
        U = np.where(warm, near, U)
    return V, lam, C, w, beta, 1e-12, max_iter, U


def solve_both(args):
    """Both loops on the same arguments: (outcome, outcome, seen), an
    outcome being the log-responses or the error raised."""
    seen = {"frozen": set(), "halvings": 0}
    outcomes = []
    for solve, extra in ((reference_newton_log, (seen,)), (newton_log, ())):
        try:
            outcomes.append(solve(*args, *extra))
        except ConvergenceError as err:
            outcomes.append(err)
    return outcomes[0], outcomes[1], seen


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), regime=st.sampled_from(["cold",
                                                               "mixed"]),
       beta_column=st.booleans(),
       max_iter=st.sampled_from([10_000, 10_000, 1, 2, 3]))
def test_newton_log_matches_reference_bit_for_bit(seed, regime, beta_column,
                                                  max_iter):
    args = newton_problem(np.random.default_rng(seed), regime, beta_column,
                          max_iter)
    want, got, _ = solve_both(args)
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray)
        assert got.tobytes() == want.tobytes()
        return
    assert type(got) is type(want)
    assert got.residual == want.residual and got.beta == want.beta
    if "stalled" in str(got):
        # the earlier loop repeats the stalled step up to its cap
        assert "hit" in str(want) and got.iterations <= want.iterations
    else:
        assert str(got) == str(want) and got.iterations == want.iterations


def test_reference_problems_cover_both_regimes():
    # the generator of the property above reaches what it is meant to:
    # cold solves that backtrack, and stacks whose rows freeze at
    # different iterations, each at a scalar beta and at a beta column
    for beta_column in (False, True):
        halvings = frozen = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            _, _, seen = solve_both(newton_problem(rng, "cold", beta_column,
                                                   10_000))
            halvings += seen["halvings"] > 0
            _, _, seen = solve_both(newton_problem(rng, "mixed", beta_column,
                                                   10_000))
            frozen += len(seen["frozen"]) > 1
        assert halvings >= 10 and frozen >= 10


def test_stalled_solve_fails_fast():
    # the log-response repeats bit for bit from iteration 2 on, with the
    # residual stuck above inner_tol, where the loop used to run all of
    # inner_max_iter
    r = sg.quadratic_entropy(0.5, 2.0 * np.eye(3), np.full(3, 1 / 3))
    with pytest.raises(ConvergenceError, match="inner solver stalled") as err:
        sg.smoothed_argmax(1e6 * np.array([1.0, 0.3, -1.0]), r, 1e-2)
    assert err.value.iterations <= 3
    assert err.value.residual > 1e-12


def test_alternating_solve_fails_fast():
    # the iterates alternate between two log-responses from iteration 2 on,
    # with the residual stuck above inner_tol, where the loop used to run
    # all of inner_max_iter
    r = sg.quadratic_entropy(0.5, 2.0 * np.eye(3), np.full(3, 1 / 3))
    with pytest.raises(ConvergenceError, match="inner solver stalled") as err:
        sg.smoothed_argmax(1e5 * np.array([1.0, 0.3, -1.0]), r, 1e-3)
    assert "alternate" in str(err.value)
    assert err.value.iterations <= 5
    assert err.value.residual > 1e-12


@pytest.mark.parametrize("seed", [0, 4, 5, 21, 42, 49])
def test_alternating_solve_reports_the_capped_residual(seed):
    # stacks at large payoffs and small beta whose iterates alternate, the
    # two members at different residuals: the early error carries the
    # residual and beta the capped loop ends on, at either parity of the cap
    rng = np.random.default_rng(seed)
    k, players, rows = (int(rng.integers(2, 5)), int(rng.integers(1, 3)),
                        int(rng.integers(1, 3)))
    lam = rng.uniform(0.05, 1.0, players)
    A = rng.standard_normal((players, k, k)) + 2.0 * np.eye(k)
    C = A.transpose(0, 2, 1) @ A
    w = rng.dirichlet(np.ones(k), players)
    V = rng.standard_normal((rows, players, k)) * 10.0 ** rng.uniform(3, 7)
    beta = 10.0 ** rng.uniform(-4, -1)
    residuals = set()
    for cap in (200, 201):
        args = (V, lam, C, w, beta, 1e-12, cap, np.full(V.shape, -np.log(k)))
        want, got, _ = solve_both(args)
        assert "hit" in str(want) and "alternate" in str(got)
        assert got.iterations < 20
        assert got.residual == want.residual and got.beta == want.beta
        residuals.add(got.residual)
    assert len(residuals) == 2


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_non_finite_solve_fails_at_once():
    # payoffs at the edge of the float range: the first step's objective
    # overflows, so the solve stops at iteration 1 with the residual of
    # iteration 0, as the frozen loop does
    r = sg.quadratic_entropy(0.5, 2.0 * np.eye(3), np.full(3, 1 / 3))
    v = np.array([1e308, -1e308, 0.0])
    message = ("inner solver went non-finite at iteration 1; last finite "
               "residual 1.000e+308")
    with pytest.raises(ConvergenceError) as err:
        sg.smoothed_argmax(v, r, 1e-3)
    assert str(err.value) == message
    assert err.value.iterations == 1 and err.value.beta == 1e-3
    args = (v[None], np.array([r.lam]), r.curvature[None], r.w[None], 1e-3,
            1e-12, 10_000, np.full((1, 3), -np.log(3)))
    want, got, _ = solve_both(args)
    for outcome in (want, got):
        assert isinstance(outcome, ConvergenceError)
        assert str(outcome) == message
        assert outcome.residual == err.value.residual
        assert outcome.iterations == 1
