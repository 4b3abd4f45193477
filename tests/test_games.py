import ast
import json
import re
import string
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import smoothgames as sg
from smoothgames.errors import (ArgumentError, DimensionError, DomainError,
                                ParseError, ResourceError)
from smoothgames.games import _face_projections, jacobian_blocks

from conftest import nonstrategic_offsets, random_game, random_interior

SHAPES = [(2, 2), (3, 2), (2, 4), (2, 3, 2), (3, 3, 3)]

seeds = st.integers(0, 2**32 - 1)


def pennies():
    return sg.bundled_game("matching_pennies")


# ---------------------------------------------------------------------------
# construction and validation

def test_game_requires_two_players():
    with pytest.raises(DimensionError):
        sg.NormalFormGame((np.zeros(3),))


def test_game_rejects_mismatched_tensor_shapes():
    with pytest.raises(DimensionError):
        sg.NormalFormGame((np.zeros((2, 2)), np.zeros((2, 3))))


def test_game_rejects_wrong_tensor_count():
    with pytest.raises(DimensionError):
        sg.NormalFormGame((np.zeros((2, 2, 2)), np.zeros((2, 2, 2))))


def test_game_rejects_nonfinite_payoffs():
    t = np.zeros((2, 2))
    t[0, 1] = np.nan
    with pytest.raises(ArgumentError):
        sg.NormalFormGame((t, np.zeros((2, 2))))


def test_game_rejects_oversized_tensors():
    big = np.zeros((220, 220, 220))  # 1.06e7 entries
    with pytest.raises(ResourceError):
        sg.NormalFormGame((big, big, big))


def test_strategy_rejects_negative_mass():
    with pytest.raises(DomainError):
        sg.JointStrategy((np.array([1.2, -0.2]), np.array([0.5, 0.5])))


def test_strategy_rejects_bad_sum():
    with pytest.raises(DomainError):
        sg.JointStrategy((np.array([0.6, 0.6]), np.array([0.5, 0.5])))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_strategy_rejects_nonfinite_mass(bad):
    # NaN slips past both the sign and the sum test
    with pytest.raises(DomainError):
        sg.JointStrategy((np.array([bad, 0.5]), np.array([0.5, 0.5])))


def test_pure_strategy_index_range():
    x = sg.pure_strategy((2, 3), (1, 2))
    assert x.blocks[0].tolist() == [0.0, 1.0]
    assert x.blocks[1].tolist() == [0.0, 0.0, 1.0]
    with pytest.raises(ArgumentError):
        sg.pure_strategy((2, 3), (1, 3))
    with pytest.raises(DimensionError):
        sg.pure_strategy((2, 3), (1,))


def test_pure_strategy_allocates_only_its_blocks():
    # a block of k floats per player, not a k x k identity to take a row of
    k = 10 ** 6
    tracemalloc.start()
    try:
        x = sg.pure_strategy((k, 2), (k - 1, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.blocks[0][k - 1] == 1.0 and x.blocks[0].sum() == 1.0
    assert peak < 4 * 8 * k


def test_embed_strategy_needs_one_support_entry_per_action():
    x = sg.uniform_strategy((2, 2))
    assert sg.embed_strategy(x, ((0, 2), (0, 1)), (3, 2)).blocks[0].tolist() \
        == [0.5, 0.0, 0.5]
    with pytest.raises(DimensionError, match="support sizes"):
        sg.embed_strategy(x, ((0,), (0, 1)), (2, 2))
    with pytest.raises(DimensionError, match="support sizes"):
        sg.embed_strategy(x, ((0, 1), (0, 1), (0,)), (2, 2, 2))


def test_supports_and_interiority():
    x = sg.JointStrategy((np.array([0.5, 0.5, 0.0]), np.array([1.0, 0.0])))
    assert x.supports()[0].tolist() == [0, 1]
    assert x.supports()[1].tolist() == [0]
    assert not x.is_interior
    assert sg.uniform_strategy((3, 2)).is_interior


@pytest.mark.parametrize("shape", [(0, 2), (2, 2.0), (2, -1)])
def test_uniform_strategy_rejects_bad_action_counts(shape):
    with pytest.raises(ArgumentError, match="action count"):
        sg.uniform_strategy(shape)


def test_uniform_strategy_rejects_zero_players():
    with pytest.raises(DimensionError, match="at least one player"):
        sg.uniform_strategy(())


def test_joint_strategy_rejects_zero_players():
    with pytest.raises(DimensionError, match="at least one player"):
        sg.JointStrategy(())


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_tangent_vector_rejects_non_finite_blocks(bad):
    with pytest.raises(DomainError, match="block 0"):
        sg.TangentVector((np.array([bad, 0.5]), np.zeros(2)))


@pytest.mark.parametrize("n", [-1, 2, 1.5, True, None])
@pytest.mark.parametrize("fn", [sg.utility, sg.gradient,
                                sg.best_response_values])
def test_player_indices_are_checked(fn, n):
    g = pennies()
    with pytest.raises(ArgumentError, match="player"):
        fn(g, sg.uniform_strategy((2, 2)), n)


@pytest.mark.parametrize("gap_tol", [np.nan, -1e-9, np.inf, True, "1e-9"])
def test_quasi_strict_check_rejects_bad_gap_tolerance(gap_tol):
    with pytest.raises(ArgumentError, match="gap_tol"):
        sg.quasi_strict_check(pennies(), sg.uniform_strategy((2, 2)),
                              gap_tol=gap_tol)


def test_quasi_strict_check_takes_each_players_gradient_once(monkeypatch):
    # a 2 x 3 x 2 game at a boundary equilibrium of its own construction:
    # each player's payoff is its action's index, so the top action is a
    # strict best response and x_star is quasi-strict
    shape = (2, 3, 2)
    game = sg.NormalFormGame(tuple(
        np.broadcast_to(np.arange(k, dtype=float).reshape(
            [k if m == n else 1 for m in range(3)]), shape)
        for n, k in enumerate(shape)))
    x_star = sg.pure_strategy(shape, (1, 2, 1))
    planned, calls = sg.games.planned_gradient, []
    monkeypatch.setattr(sg.games, "planned_gradient",
                        lambda *args: calls.append(1) or planned(*args))
    result = sg.quasi_strict_check(game, x_star)
    assert (result.status, len(calls)) == ("quasi_strict", 3)
    assert result.gap == sg.epsilon_nash_gap(game, x_star) == 0.0
    # off equilibrium the gap decides alone, from the same gradients
    x = sg.uniform_strategy(shape)
    calls.clear()
    result = sg.quasi_strict_check(game, x)
    assert (result.status, len(calls)) == ("not_nash", 3)
    assert result.gap == sg.epsilon_nash_gap(game, x)


def test_replace_block_validates():
    x = sg.uniform_strategy((2, 2))
    y = sg.replace_block(x, 1, np.array([0.9, 0.1]))
    assert y.blocks[0].tolist() == [0.5, 0.5]
    assert y.blocks[1].tolist() == [0.9, 0.1]
    with pytest.raises(DomainError):
        sg.replace_block(x, 1, np.array([0.9, 0.2]))


def test_tangent_vector_must_be_centered():
    sg.TangentVector((np.array([0.5, -0.5]), np.zeros(3)))
    with pytest.raises(DomainError):
        sg.TangentVector((np.array([0.5, -0.4]), np.zeros(3)))


# ---------------------------------------------------------------------------
# projections

def test_centering_projection_properties():
    for k in (2, 3, 7):
        pi = sg.centering_projection(k)
        np.testing.assert_allclose(pi @ pi, pi, atol=1e-14)
        np.testing.assert_allclose(pi, pi.T, atol=1e-14)
        np.testing.assert_allclose(pi @ np.ones(k), 0.0, atol=1e-14)


def test_face_projection_zero_off_support():
    p = sg.face_projection(4, [0, 2])
    assert np.all(p[:, [1, 3]] == 0.0) and np.all(p[[1, 3], :] == 0.0)
    sub = p[np.ix_([0, 2], [0, 2])]
    np.testing.assert_allclose(sub, sg.centering_projection(2), atol=1e-14)


def test_tangent_basis_orthonormal():
    for k, support in [(3, None), (4, [0, 2, 3]), (5, [1, 4])]:
        b = sg.tangent_basis(k, support)
        dim = (k if support is None else len(support)) - 1
        assert b.shape == (k, dim)
        np.testing.assert_allclose(b.T @ b, np.eye(dim), atol=1e-12)
        # columns live on the face and sum to zero
        np.testing.assert_allclose(b.sum(axis=0), 0.0, atol=1e-12)
        if support is not None:
            off = [i for i in range(k) if i not in support]
            assert np.all(b[off] == 0.0)


@pytest.mark.parametrize("support", [
    np.array([0, 2]), np.array([2, 0, 1], dtype=np.uint8), np.array([3]),
    np.array([-1, 0]), np.array([1, 1]), np.array([2**64 - 1], np.uint64),
    np.array([True, False]), np.array([0.0, 1.0]), np.array([[0, 1]]),
    np.array([], dtype=int), [0, 2], (1, 1), [2.0]])
def test_support_indices_checks_integer_arrays_at_once(monkeypatch, support):
    # an integer index array takes one vectorized pass; what fails it, and
    # every other support, takes the loop, whose error names the bad entry
    # in the same text as before
    def loop(k, support, name="support"):
        actions = [sg.errors.check_index(f"{name} entry", i, k)
                   for i in sg.errors.check_sequence(name, support)]
        if len(set(actions)) < len(actions):
            raise ArgumentError(f"{name} repeats an action: {actions}")
        return np.array(actions, dtype=int)

    try:
        want = loop(3, support)
    except ArgumentError as err:
        with pytest.raises(ArgumentError) as got:
            sg.games.support_indices(3, support)
        assert str(got.value) == str(err)
        return
    got = sg.games.support_indices(3, support)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    if isinstance(support, np.ndarray):  # one pass, and a copy of its own
        monkeypatch.setattr(sg.games, "check_index", None)
        assert sg.games.support_indices(3, support) is not support


def test_block_diag_builds_one_matrix_per_stack_entry():
    rng = np.random.default_rng(3)
    blocks = [rng.standard_normal((5, 2, 3)), np.zeros((5, 0, 0)),
              rng.standard_normal((1, 4, 1))]  # the last one broadcasts
    stacked = sg.games.block_diag(blocks)
    assert stacked.shape == (5, 6, 4)
    for i in range(5):
        single = sg.games.block_diag([blocks[0][i], blocks[1][i],
                                      blocks[2][0]])
        assert np.array_equal(stacked[i], single)
    np.testing.assert_array_equal(single[:2, :3], blocks[0][4])
    np.testing.assert_array_equal(single[2:, 3:], blocks[2][0])
    assert np.all(single[:2, 3:] == 0.0) and np.all(single[2:, :3] == 0.0)


# ---------------------------------------------------------------------------
# utilities and derivatives

def test_utility_matches_table_entries():
    g = pennies()
    for i in range(2):
        for j in range(2):
            x = sg.pure_strategy((2, 2), (i, j))
            assert sg.utility(g, x, 0) == g.payoffs[0][i, j]
            assert sg.utility(g, x, 1) == g.payoffs[1][i, j]


@settings(max_examples=40, deadline=None)
@given(seed=seeds, shape=st.sampled_from(SHAPES), player=st.integers(0, 2),
       alpha=st.floats(0.0, 1.0))
def test_utility_multilinear(seed, shape, player, alpha):
    rng = np.random.default_rng(seed)
    n = player % len(shape)
    g = random_game(rng, shape)
    x = random_interior(rng, shape)
    a = random_interior(rng, shape).blocks[n]
    b = random_interior(rng, shape).blocks[n]
    mixed = sg.replace_block(x, n, alpha * a + (1 - alpha) * b)
    for p in range(len(shape)):
        lhs = sg.utility(g, mixed, p)
        rhs = (alpha * sg.utility(g, sg.replace_block(x, n, a), p)
               + (1 - alpha) * sg.utility(g, sg.replace_block(x, n, b), p))
        assert abs(lhs - rhs) <= 1e-10


@settings(max_examples=25, deadline=None)
@given(seed=seeds, shape=st.sampled_from(SHAPES))
def test_gradient_entries_are_pure_payoffs(seed, shape):
    rng = np.random.default_rng(seed)
    g = random_game(rng, shape)
    x = random_interior(rng, shape)
    for n, k in enumerate(shape):
        grad = sg.gradient(g, x, n)
        for i in range(k):
            e = np.zeros(k)
            e[i] = 1.0
            assert abs(grad[i] - sg.utility(g, sg.replace_block(x, n, e), n)) <= 1e-12


def reference_raw_cross(game, blocks, n, m):
    """The cross-derivative einsum of ``jacobian_blocks`` as it stood
    before ``games.contract`` took it over: ``M[b, i, j] = f_n`` with
    ``x_n := e_i``, ``x_m := e_j`` and the other blocks from row b."""
    others = [p for p in range(game.num_players) if p not in (n, m)]
    if not others:
        return (game.payoffs[n] if n < m else game.payoffs[n].T)[None]
    axes = string.ascii_letters[:game.num_players]
    spec = (axes + "," + ",".join("..." + axes[p] for p in others)
            + "->..." + axes[n] + axes[m])
    return np.einsum(spec, game.payoffs[n], *(blocks[p] for p in others),
                     optimize=False)


@settings(max_examples=40, deadline=None)
@given(seed=seeds, players=st.integers(2, 4), rows=st.integers(1, 6))
def test_jacobian_blocks_match_the_frozen_einsum_bit_for_bit(seed, players,
                                                             rows):
    rng = np.random.default_rng(seed)
    shape = tuple(int(k) for k in rng.integers(1, 5, players))
    g = random_game(rng, shape)
    blocks = [rng.dirichlet(np.ones(k), rows) for k in shape]
    masks = [rng.random((rows, k)) < 0.8 for k in shape]
    got = jacobian_blocks(g, blocks, masks)
    projections = [_face_projections(mask) for mask in masks]
    for n, p_n in enumerate(projections):
        for m, p_m in enumerate(projections):
            if n == m:
                assert not got[n][m].any()
                continue
            want = p_n @ reference_raw_cross(g, blocks, n, m) @ p_m
            assert got[n][m].shape == (rows, shape[n], shape[m])
            assert got[n][m].tobytes() == want.tobytes()


def test_cross_hessian_rejects_diagonal():
    g = pennies()
    with pytest.raises(ArgumentError):
        sg.cross_hessian(g, sg.uniform_strategy((2, 2)), 0, 0)


@settings(max_examples=20, deadline=None)
@given(seed=seeds, shape=st.sampled_from([(2, 3, 2), (3, 3, 3)]))
def test_cross_hessian_is_mixed_second_difference(seed, shape):
    rng = np.random.default_rng(seed)
    g = random_game(rng, shape)
    x = random_interior(rng, shape)
    h = 1e-5
    for n in range(len(shape)):
        for m in range(len(shape)):
            if n == m:
                continue
            jnm = sg.cross_hessian(g, x, n, m)
            dn = rng.standard_normal(shape[n])
            dn -= dn.mean()
            dm = rng.standard_normal(shape[m])
            dm -= dm.mean()

            def f(s, t):
                y = sg.replace_block(x, n, x.blocks[n] + s * dn)
                y = sg.replace_block(y, m, y.blocks[m] + t * dm)
                return sg.utility(g, y, n)

            fd = (f(h, h) - f(h, -h) - f(-h, h) + f(-h, -h)) / (4 * h * h)
            assert abs(dn @ jnm @ dm - fd) <= 1e-6


def test_strategic_decomposition_reconstructs_utility():
    rng = np.random.default_rng(7)
    for shape in SHAPES:
        g = random_game(rng, shape)
        for n in range(len(shape)):
            dec = sg.strategic_decompose(g, n)
            for _ in range(5):
                x = random_interior(rng, shape)
                rebuilt = dec.linear_part(x) @ x.blocks[n] + dec.offset_part(x)
                assert abs(rebuilt - sg.utility(g, x, n)) <= 1e-10
                assert abs(dec.linear_part(x).sum()) <= 1e-10


def test_strategic_part_ignores_offsets():
    rng = np.random.default_rng(11)
    shape = (2, 3, 2)
    g = random_game(rng, shape)
    shifted = sg.NormalFormGame(tuple(
        t + o for t, o in zip(g.payoffs, nonstrategic_offsets(rng, shape))))
    x = random_interior(rng, shape)
    for n in range(len(shape)):
        a = sg.strategic_decompose(g, n).linear_part(x)
        b = sg.strategic_decompose(shifted, n).linear_part(x)
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_canonical_form_centers_gradients():
    rng = np.random.default_rng(3)
    shape = (3, 2, 2)
    g = random_game(rng, shape)
    base = random_interior(rng, shape)
    canon = sg.to_canonical(g, base)
    x = random_interior(rng, shape)
    for n in range(len(shape)):
        grad = sg.gradient(g, x, n)
        np.testing.assert_allclose(sg.gradient(canon.game, x, n),
                                   grad - grad.mean(), atol=1e-12)
        for m in range(len(shape)):
            if m == n:
                continue
            np.testing.assert_allclose(sg.cross_hessian(canon.game, x, n, m),
                                       sg.cross_hessian(g, x, n, m), atol=1e-12)


def test_canonical_form_requires_interior_base():
    g = pennies()
    with pytest.raises(DomainError):
        sg.to_canonical(g, sg.pure_strategy((2, 2), (0, 0)))


def test_canonical_utility_at_origin():
    g = pennies()
    base = sg.uniform_strategy((2, 2))
    canon = sg.to_canonical(g, base)
    zero = sg.TangentVector((np.zeros(2), np.zeros(2)))
    for n in range(2):
        grad = sg.gradient(g, base, n)
        strategic = sg.utility(g, base, n) - grad.mean()
        assert abs(canon.utility(zero, n) - strategic) <= 1e-12


@pytest.mark.parametrize("n", [-1, 2, 1.5, True])
def test_canonical_utility_checks_the_player_index(n):
    canon = sg.to_canonical(pennies(), sg.uniform_strategy((2, 2)))
    with pytest.raises(ArgumentError, match="player"):
        canon.utility(sg.TangentVector((np.zeros(2), np.zeros(2))), n)


def test_validated_blocks_are_read_only_copies():
    # a checked block can be changed neither through the array it was
    # built from nor through the object itself
    source = np.array([0.25, 0.75])
    x = sg.JointStrategy((source, np.array([0.5, 0.5])))
    source[:] = np.nan
    assert x.blocks[0].tolist() == [0.25, 0.75]
    direction = np.array([1.0, -1.0])
    z = sg.TangentVector((direction,))
    direction[:] = np.nan
    assert z.blocks[0].tolist() == [1.0, -1.0]
    for block in (x.blocks[0], z.blocks[0],
                  sg.uniform_strategy((2, 2)).blocks[1]):
        with pytest.raises(ValueError, match="read-only"):
            block[0] = np.nan


def _strategy_error(blocks):
    """JointStrategy's DomainError text for these blocks."""
    with pytest.raises(DomainError) as err:
        sg.JointStrategy(tuple(blocks))
    return str(err.value)


# the largest sum a block may be off by, 4503 ulps of 1 (1e-12 as a double
# is 4504 ulps, more than SIMPLEX_SUM_TOL), and one twice the tolerance
INSIDE_TOL = (1.0 + sg.games.SIMPLEX_SUM_TOL) - 1.0 - 2.0 ** -52
OUTSIDE_TOL = 2e-12


@pytest.mark.parametrize("bad, player", [
    (np.array([np.nan, 0.5, 0.5]), 0),
    (np.array([-0.25, 0.75, 0.5]), 0),
    (np.array([0.5, 0.5 + OUTSIDE_TOL]), 1),
    (np.array([0.5, 0.5 - OUTSIDE_TOL]), 1),
    (np.array([np.inf, 0.0]), 1)])
def test_strategy_rows_fail_with_the_strategy_error(bad, player):
    # the first bad row of a (T, B, K) stack raises the DomainError that a
    # JointStrategy of its blocks raises, whatever later rows hold
    shape = (3, 2)
    good = [np.full(3, 1 / 3), np.array([0.5, 0.5])]
    blocks = list(good)
    blocks[player] = bad
    nan_row = np.concatenate([np.full(3, np.nan), good[1]])
    stack = np.stack([np.concatenate(good)] * 3
                     + [np.concatenate(blocks), nan_row]).reshape(5, 1, 5)
    with pytest.raises(DomainError) as err:
        sg.games.strategy_rows(stack, shape)
    assert str(err.value) == _strategy_error(blocks)


def test_strategy_rows_accept_what_a_strategy_accepts():
    # at the edge of the sum tolerance, and at random blocks pushed there,
    # the stacked check and JointStrategy's agree row by row
    assert abs((0.5 + INSIDE_TOL) + 0.5 - 1.0) <= sg.games.SIMPLEX_SUM_TOL
    rows = sg.games.strategy_rows([[0.5 + INSIDE_TOL, 0.5, 0.25, 0.75]],
                                  (2, 2))
    assert rows[0].blocks[0].tolist() == [0.5 + INSIDE_TOL, 0.5]
    rng = np.random.default_rng(11)
    for k in (1, 2, 3, 5, 8, 9, 17):
        for _ in range(40):
            block = rng.dirichlet(np.ones(k))
            block[-1] += rng.choice([INSIDE_TOL, OUTSIDE_TOL / 2,
                                     -INSIDE_TOL, 1.01e-12, -1.01e-12])
            row = np.concatenate([block, [1.0]])
            try:
                sg.JointStrategy((block, np.array([1.0])))
            except DomainError as err:
                with pytest.raises(DomainError, match=re.escape(str(err))):
                    sg.games.strategy_rows(row[None], (k, 1))
            else:
                sg.games.strategy_rows(row[None], (k, 1))


def test_strategy_rows_are_read_only_views_of_one_copy():
    shape = (2, 3)
    source = np.stack([random_interior(np.random.default_rng(s),
                                       shape).concatenated()
                       for s in range(4)]).reshape(2, 2, 5)
    want = source.copy()
    rows = sg.games.strategy_rows(source, shape)
    source[:] = np.nan
    assert len(rows) == 4
    base = rows[0].blocks[0].base
    for x, expected in zip(rows, want.reshape(4, 5)):
        assert type(x) is sg.JointStrategy and x.shape == shape
        assert x.concatenated().tolist() == expected.tolist()
        for block in x.blocks:
            assert block.base is base
            with pytest.raises(ValueError, match="read-only"):
                block[0] = 0.0
    with pytest.raises(DimensionError):
        sg.games.strategy_rows(source[..., :4], shape)


class _UncheckedDirection(sg.TangentVector):
    # a TangentVector refuses non-finite blocks and keeps read-only copies,
    # so only a subclass that skips the checks can carry one
    def __post_init__(self):
        pass


def _non_finite_direction():
    return _UncheckedDirection((np.full(2, np.nan), np.zeros(2)))


@pytest.mark.parametrize("z, error, match", [
    (sg.TangentVector((np.zeros(3), np.zeros(2))), DimensionError, "block 0"),
    (sg.TangentVector((np.zeros(2),)), DimensionError, "1 blocks"),
    (None, ArgumentError, "TangentVector"),
    (_non_finite_direction(), ArgumentError, "finite"),
], ids=["wrong_length", "too_few_blocks", "none", "non_finite"])
def test_canonical_utility_checks_the_direction(z, error, match):
    # each of these leaked a numpy or Python error, or returned NaN
    canon = sg.to_canonical(pennies(), sg.uniform_strategy((2, 2)))
    with pytest.raises(error, match=match):
        canon.utility(z, 0)


# ---------------------------------------------------------------------------
# best responses and Nash gap

def test_best_response_ties_at_uniform():
    value, ties = sg.best_response_values(pennies(), sg.uniform_strategy((2, 2)), 0)
    assert value == 0.0
    assert sorted(ties) == [0, 1]


def test_nash_gap_examples():
    g = sg.bundled_game("example_A")
    assert sg.epsilon_nash_gap(g, sg.pure_strategy((3, 3), (1, 1))) == 0.0
    assert sg.epsilon_nash_gap(g, sg.pure_strategy((3, 3), (0, 0))) == 2.0
    assert sg.epsilon_nash_gap(pennies(), sg.uniform_strategy((2, 2))) == 0.0


@settings(max_examples=30, deadline=None)
@given(seed=seeds, shape=st.sampled_from(SHAPES))
def test_nash_gap_nonnegative(seed, shape):
    rng = np.random.default_rng(seed)
    g = random_game(rng, shape)
    x = random_interior(rng, shape)
    assert sg.epsilon_nash_gap(g, x) >= 0.0


# ---------------------------------------------------------------------------
# serialization

def test_game_dict_round_trip():
    rng = np.random.default_rng(5)
    g = random_game(rng, (2, 3, 2))
    back = sg.game_from_dict(sg.game_to_dict(g))
    for a, b in zip(g.payoffs, back.payoffs):
        np.testing.assert_array_equal(a, b)


def test_save_load_round_trip(tmp_path):
    g = pennies()
    path = tmp_path / "pennies.json"
    sg.save_game(g, path)
    back = sg.load_game(path)
    np.testing.assert_array_equal(back.payoffs[0], g.payoffs[0])
    np.testing.assert_array_equal(back.payoffs[1], g.payoffs[1])


def test_bundled_games_present():
    names = sg.bundled_game_names()
    for name in ("matching_pennies", "coordination_2x2", "example_A"):
        assert name in names
        sg.bundled_game(name)
    with pytest.raises(ArgumentError):
        sg.bundled_game("no_such_game")


def test_load_game_falls_back_to_bundled_names(tmp_path):
    g = sg.load_game("matching_pennies")
    assert g.shape == (2, 2)
    with pytest.raises(FileNotFoundError):
        sg.load_game(tmp_path / "missing.json")


def test_game_from_dict_errors():
    with pytest.raises(ParseError):
        sg.game_from_dict({"players": 2, "shape": [2, 2]})  # no payoffs
    with pytest.raises(ParseError):
        sg.game_from_dict({"players": 2, "shape": [2, 2],
                           "payoffs": [[[0, 0], [0, 0]]]})  # one tensor
    with pytest.raises(ParseError):
        sg.game_from_dict({"players": 2, "shape": [2, 2],
                           "payoffs": [[[0, "x"], [0, 0]], [[0, 0], [0, 0]]]})
    with pytest.raises(ResourceError):
        sg.game_from_dict({"players": 2, "shape": [4000, 4000],
                           "payoffs": [[0.0], [0.0]], "name": "big"})


@pytest.mark.parametrize("field, value", [
    ("shape", [2.5, 2]), ("shape", [2, True]), ("shape", 4), ("players", 2.5),
    ("players", True)])
def test_game_from_dict_rejects_counts_that_are_not_integers(field, value):
    # int() would truncate 2.5 to 2 and read True as 1
    data = {"players": 2, "shape": [2, 2], "payoffs": [[0.0] * 4] * 2}
    with pytest.raises(ParseError, match=field if field == "players"
                       else "action count|shape"):
        sg.game_from_dict({**data, field: value})


def test_game_json_is_plain_data(tmp_path):
    path = tmp_path / "g.json"
    sg.save_game(pennies(), path)
    data = json.loads(path.read_text())
    assert data["players"] == 2
    assert data["shape"] == [2, 2]


# ---------------------------------------------------------------------------
# package structure

# each module may import only modules listed before it; the package
# namespace re-exports everything, so it comes last
MODULE_ORDER = ("errors", "games", "regularizers", "response", "dynamics",
                "stability", "cli", "__init__")


def test_intra_package_imports_follow_module_order():
    package = Path(sg.__file__).parent
    modules = sorted(p.stem for p in package.glob("*.py"))
    assert sorted(MODULE_ORDER) == modules
    violations = []
    for name in modules:
        tree = ast.parse((package / f"{name}.py").read_text())
        # ast.walk reaches imports inside function bodies too
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or node.level == 0:
                continue
            targets = ([node.module.split(".")[0]] if node.module
                       else [alias.name for alias in node.names])
            for target in targets:
                if (MODULE_ORDER.index(target)
                        >= MODULE_ORDER.index(name)):
                    violations.append(f"{name}:{node.lineno} -> {target}")
    assert violations == []


def test_stability_imports_only_the_game_and_no_module_imports_private_names():
    # uniform stability is a property of the game Jacobian alone
    package = Path(sg.__file__).parent
    stability_imports, private = set(), []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom) or node.level == 0:
                continue
            if path.stem == "stability":
                stability_imports.add(node.module)
            private += [f"{path.stem}:{node.lineno} {alias.name}"
                        for alias in node.names if alias.name.startswith("_")]
    assert stability_imports == {"errors", "games"}
    assert private == []


def test_regularizer_kind_is_read_only_by_the_json_form_and_cli():
    # every other module keys on "no quadratic term" (A is None) instead of
    # re-dispatching on the kind string
    package = Path(sg.__file__).parent
    readers = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "kind":
                readers.add(f"{path.stem}:{node.lineno}")
    assert {r.split(":")[0] for r in readers} <= {"regularizers", "cli"}, \
        sorted(readers)


def test_no_chained_comparison_against_inf_outside_the_validators():
    # "0 < x < np.inf" is the positive-finite rule, which only
    # errors.check_real implements
    package = Path(sg.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.stem == "errors":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare) and len(node.ops) > 1 and any(
                    isinstance(side, ast.Attribute) and side.attr == "inf"
                    for side in [node.left, *node.comparators]):
                found.append(f"{path.stem}:{node.lineno}")
    assert found == []


def test_one_function_builds_and_steps_the_damped_walk():
    # the beta ladder is the one driver of the damped walk: the solver, the
    # homotopy and the sweep all step it there
    package = Path(sg.__file__).parent
    builds, steps = set(), set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            elif isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "id", getattr(func, "attr", None)) == \
                        "DampedWalk":
                    builds.add(scope)
                if isinstance(func, ast.Attribute) and func.attr == "step":
                    steps.add(scope)
            visit(child, inner)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    assert len(builds) == 1 and steps == builds, (builds, steps)


def test_the_flat_kernel_sets_its_attributes_only_when_built():
    # between responses a kernel keeps only its Newton groups' warm starts:
    # a failed Newton argmax names its rows on the error it raises
    path = Path(sg.__file__).parent / "response.py"
    kernel, = (node for node in ast.parse(path.read_text()).body
               if isinstance(node, ast.ClassDef) and node.name == "FlatKernel")
    setters = {method.name for method in kernel.body
               for node in ast.walk(method)
               if isinstance(node, ast.Attribute)
               and isinstance(node.ctx, ast.Store)
               and getattr(node.value, "id", None) == "self"}
    assert setters == {"__init__"}


def test_only_the_solvers_and_the_sweep_build_a_ladder():
    # a failing row fails in its own batch, so no ladder builds another to
    # run a row again alone
    package = Path(sg.__file__).parent
    builders = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            elif isinstance(child, ast.Call) and getattr(
                    child.func, "id", getattr(child.func, "attr", None)) == \
                    "Ladder":
                builders.add(scope)
            visit(child, inner)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    assert builders == {"response._climb", "dynamics.sweep"}


def test_one_function_ends_and_measures_the_averaging_runs():
    # run_many and a sweep's cells step through one run group, so the
    # fixed-batch test and the distance chunking are each read in one place
    package = Path(sg.__file__).parent
    readers = {"FIXED_CHECK_STRIDE": set(), "DISTANCE_CHUNK": set()}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            elif (isinstance(child, ast.Name) and child.id in readers
                  and isinstance(child.ctx, ast.Load)):
                readers[child.id].add(scope)
            visit(child, inner)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    assert all(len(scopes) == 1 for scopes in readers.values()), readers
