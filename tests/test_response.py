import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import smoothgames as sg
from smoothgames.errors import (ArgumentError, ConvergenceError, CyclingError,
                                DimensionError, DomainError)
from smoothgames.response import (FlatKernel, _newton_frame, _newton_solve,
                                  _newton_start)

from conftest import (newton_log, polymatrix_game, quadratic_regularizers,
                      random_game, random_interior)

seeds = st.integers(0, 2**32 - 1)


def pennies():
    return sg.bundled_game("matching_pennies")


# ---------------------------------------------------------------------------
# config

def test_config_validation():
    with pytest.raises(ArgumentError):
        sg.SmoothedResponseConfig(beta=0.0, regularizers=(sg.entropy(2),))
    with pytest.raises(ArgumentError):
        sg.SmoothedResponseConfig(beta=0.1, regularizers=())
    with pytest.raises(ArgumentError):
        sg.SmoothedResponseConfig(beta=0.1, regularizers=("entropy",))
    with pytest.raises(ArgumentError):
        sg.SmoothedResponseConfig(beta=0.1, regularizers=(sg.entropy(2),),
                                  inner_tol=0.0)


def test_config_rejects_infinite_beta():
    with pytest.raises(ArgumentError):
        sg.SmoothedResponseConfig(beta=np.inf, regularizers=(sg.entropy(2),))


BAD_INNER = [{"inner_max_iter": 2.5}, {"inner_max_iter": 0},
             {"inner_max_iter": -3}, {"inner_max_iter": True},
             {"inner_tol": np.inf}, {"inner_tol": np.nan},
             {"inner_tol": -1e-12}]


@pytest.mark.parametrize("kwargs", BAD_INNER)
def test_config_rejects_bad_inner_settings(kwargs):
    with pytest.raises(ArgumentError, match=next(iter(kwargs))):
        sg.SmoothedResponseConfig(beta=0.1, regularizers=(sg.entropy(2),),
                                  **kwargs)


@pytest.mark.parametrize("kwargs", BAD_INNER)
def test_argmax_rejects_bad_inner_settings(kwargs):
    r = sg.quadratic_entropy(0.5, 2.0 * np.eye(3), np.full(3, 1 / 3))
    with pytest.raises(ArgumentError, match=next(iter(kwargs))):
        sg.smoothed_argmax(np.array([1.0, 0.0, -1.0]), r, 0.1, **kwargs)


def test_entropy_config_accepts_game_or_shape():
    g = pennies()
    a = sg.entropy_config(g, 0.1)
    b = sg.entropy_config((2, 2), 0.1)
    assert a.regularizers == b.regularizers
    assert a.beta == 0.1


def test_config_game_mismatch():
    cfg = sg.entropy_config((2, 2, 2), 0.1)
    with pytest.raises(DimensionError):
        sg.smoothed_best_response(pennies(), cfg, sg.uniform_strategy((2, 2)))
    cfg = sg.SmoothedResponseConfig(beta=0.1,
                                    regularizers=(sg.entropy(2), sg.entropy(3)))
    with pytest.raises(DimensionError):
        sg.smoothed_best_response(pennies(), cfg, sg.uniform_strategy((2, 2)))


# ---------------------------------------------------------------------------
# block argmax

def test_softmax_closed_form():
    out = sg.smoothed_argmax(np.array([1.0, 0.0]), sg.entropy(2), 1.0)
    e = np.exp(1.0)
    np.testing.assert_allclose(out, [e / (1 + e), 1 / (1 + e)], atol=1e-15)


def test_softmax_shift_invariance():
    v = np.array([0.3, -0.2, 0.9])
    a = sg.smoothed_argmax(v, sg.entropy(3), 0.1)
    b = sg.smoothed_argmax(v + 7.0, sg.entropy(3), 0.1)
    np.testing.assert_allclose(a, b, atol=1e-15)
    assert abs(a.sum() - 1.0) <= 1e-12


def test_argmax_singleton_dimension():
    np.testing.assert_array_equal(
        sg.smoothed_argmax(np.array([3.0]), sg.entropy(1), 0.1), [1.0])


def test_argmax_input_validation():
    with pytest.raises(DimensionError):
        sg.smoothed_argmax(np.zeros(3), sg.entropy(2), 0.1)
    with pytest.raises(ArgumentError):
        sg.smoothed_argmax(np.array([np.inf, 0.0]), sg.entropy(2), 0.1)


@pytest.mark.parametrize("values, beta, want", [
    ([1e308, 0.0], 0.5, [1.0, 0.0]),
    ([0.0, 1e308], 0.5, [0.0, 1.0]),
    ([-1e308, -1e308], 0.5, [0.5, 0.5]),
    ([-1e308, -1.5e308], 0.5, [1.0, 0.0]),
    ([1.0, 0.0], 1e-320, [1.0, 0.0])])
def test_softmax_takes_its_limit_where_values_over_beta_overflow(values, beta,
                                                                 want):
    # v / beta overflows; shifting v by its maximum first gives the limit
    got = sg.smoothed_argmax(np.array(values), sg.entropy(2), beta)
    np.testing.assert_array_equal(got, want)


def test_softmax_without_overflow_keeps_its_bits():
    v = np.array([0.3, -1.2, 0.7])
    z = v / 0.1
    z = z - z.max()
    p = np.exp(z)
    assert sg.smoothed_argmax(v, sg.entropy(3), 0.1).tobytes() == \
        (p / p.sum()).tobytes()


def test_response_takes_its_limit_where_gradients_over_beta_overflow():
    # G / beta overflows in every block; the kernel's softmax shifts G by
    # its block maximum first, as smoothed_argmax does, and warns of nothing
    x = sg.JointStrategy((np.array([0.6, 0.4]), np.array([0.3, 0.7])))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = sg.smoothed_best_response(pennies(),
                                      sg.entropy_config((2, 2), 1e-320), x)
    for block in y.blocks:
        np.testing.assert_array_equal(block, [0.0, 1.0])


def test_kernel_beta_column_shifts_only_the_rows_that_overflow():
    rng = np.random.default_rng(4)
    g = random_game(rng, (3, 2, 4))
    cfg = sg.entropy_config(g, 0.3)
    X = np.stack([random_interior(rng, g.shape).concatenated()] * 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Y = FlatKernel(g, cfg, beta=np.array([[0.3], [1e-320]])).respond(X)
    assert Y[0].tobytes() == FlatKernel(g, cfg).respond(X)[0].tobytes()
    assert not np.isnan(Y[1]).any()


@pytest.mark.parametrize("value", [3.0, 1e308])
def test_one_action_quadratic_entropy_block_responds_one(value):
    # the softmax of one entry, also where value / beta overflows
    r = sg.quadratic_entropy(0.5, [[2.0]], [1.0])
    for beta in (0.1, 1e-320):
        y = sg.smoothed_argmax(np.array([value]), r, beta)
        assert y.tolist() == [1.0]


@pytest.mark.parametrize("beta", [0.0, -0.1, np.nan, np.inf])
def test_argmax_rejects_bad_beta(beta):
    for reg in (sg.entropy(3),
                sg.quadratic_entropy(1.0, np.eye(3), np.full(3, 1 / 3))):
        with pytest.raises(ArgumentError):
            sg.smoothed_argmax(np.array([1.0, 0.0, -1.0]), reg, beta)


def test_probe_rejects_non_integer_index():
    with pytest.raises(ArgumentError):
        sg.linear_steepness_probe(sg.entropy(3), 1.5, 0.5, (0.1,))
    assert sg.linear_steepness_probe(sg.entropy(3), np.int64(1), 0.5,
                                     (0.1,)) \
        == sg.linear_steepness_probe(sg.entropy(3), 1, 0.5, (0.1,))


def test_probe_rejects_a_regularizer_of_one_action():
    # no second action for the probed one to trail
    with pytest.raises(ArgumentError, match="dimension 2 or more"):
        sg.linear_steepness_probe(sg.entropy(1), 0, 0.5, (0.1,))


@settings(max_examples=30, deadline=None)
@given(seed=seeds)
def test_generic_solver_matches_softmax(seed):
    # the Newton path run with the entropy regularizer against the closed form
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 6))
    v = rng.standard_normal(k)
    beta = 10.0 ** rng.uniform(-1.5, 0.5)
    soft = sg.smoothed_argmax(v, sg.entropy(k), beta)
    newt = np.exp(newton_log(v[None], np.ones(1), np.zeros((1, k, k)),
                             np.zeros((1, k)), beta, 1e-12, 10_000,
                             np.full((1, k), -np.log(k)))[0])
    np.testing.assert_allclose(newt, soft, atol=1e-8)


@settings(max_examples=30, deadline=None)
@given(seed=seeds)
def test_quadratic_entropy_argmax_stationarity(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 5))
    a = rng.standard_normal((k, k)) + 2.0 * np.eye(k)
    w = np.full(k, 1.0 / k)
    r = sg.quadratic_entropy(10.0 ** rng.uniform(-1, 0.5), a, w)
    v = rng.standard_normal(k)
    beta = 10.0 ** rng.uniform(-1, 0.3)
    y = sg.smoothed_argmax(v, r, beta)
    assert np.all(y > 0) and abs(y.sum() - 1.0) <= 1e-9
    g = v - beta * (r.lam * (np.log(y) + 1.0) + r.A.T @ (r.A @ (y - r.w)))
    assert np.abs(g - g.mean()).max() <= 1e-9


def test_argmax_handles_stiff_steepness():
    # a tiny entropy weight drives suboptimal mass far below the active floor
    r = sg.quadratic_entropy(0.05, 0.1 * np.eye(3), np.full(3, 1 / 3))
    v = np.array([0.0, -0.5, 0.0])
    y = sg.smoothed_argmax(v, r, 0.05)
    assert y[1] < 1e-40
    assert abs(y[0] - y[2]) <= 1e-9
    assert abs(y.sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("beta", [1e-2, 1e-3, 1e-6])
def test_argmax_solves_where_coordinates_underflow(beta):
    # at small beta the losing coordinates underflow; in log coordinates
    # they keep an exact stationarity condition and the solve stays finite
    r = sg.quadratic_entropy(0.5, 2.0 * np.eye(3), np.full(3, 1 / 3))
    v = np.array([1.0, 0.0, -1.0])
    y = sg.smoothed_argmax(v, r, beta, inner_max_iter=100)
    assert np.all(np.isfinite(y)) and np.all(y >= 0)
    assert abs(y.sum() - 1.0) <= 1e-12
    # lam (log y + 1) = (v - beta A^T A (y - w)) / beta - nu, i.e. y is the
    # softmax of (v - beta A^T A (y - w)) / (beta lam)
    u = (v - beta * r.A.T @ r.A @ (y - r.w)) / (beta * r.lam)
    z = np.exp(u - u.max())
    np.testing.assert_allclose(y, z / z.sum(), rtol=1e-9, atol=0.0)


# ---------------------------------------------------------------------------
# response map

def test_pennies_uniform_is_fixed_point():
    g = pennies()
    for beta in (1.0, 0.1, 0.01):
        cfg = sg.entropy_config(g, beta)
        y = sg.smoothed_best_response(g, cfg, sg.uniform_strategy((2, 2)))
        np.testing.assert_array_equal(y.concatenated(), np.full(4, 0.5))


def test_constant_game_responds_with_regularizer_argmin():
    g = sg.NormalFormGame((np.full((2, 3), 4.0), np.full((2, 3), -1.0)))
    cfg = sg.entropy_config(g, 0.2)
    y = sg.smoothed_best_response(g, cfg, sg.pure_strategy((2, 3), (0, 2)))
    np.testing.assert_allclose(y.blocks[0], 0.5, atol=1e-12)
    np.testing.assert_allclose(y.blocks[1], 1 / 3, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=seeds, shape=st.sampled_from([(2, 2), (3, 3), (2, 3, 2)]))
def test_response_is_interior(seed, shape):
    rng = np.random.default_rng(seed)
    g = random_game(rng, shape)
    cfg = sg.entropy_config(g, 10.0 ** rng.uniform(-1.3, 0.0))
    y = sg.smoothed_best_response(g, cfg, random_interior(rng, shape))
    assert np.all(y.concatenated() > 0)


def random_regularizers(rng, shape, kind):
    if kind == "entropy":
        return tuple(sg.entropy(k) for k in shape)
    return quadratic_regularizers(rng, shape)


def dominated_game(rng, shape):
    # action 0 of player 0 trails by at least 2, so at beta = 1e-3 its
    # response mass underflows
    payoffs = [rng.uniform(-0.5, 0.5, shape) for _ in shape]
    payoffs[0][0] -= 2.0
    return sg.NormalFormGame(tuple(payoffs))


@settings(max_examples=30, deadline=None)
@given(seed=seeds, players=st.sampled_from([2, 3]),
       kind=st.sampled_from(["entropy", "quadratic_entropy"]),
       rows=st.sampled_from([1, 5]),
       beta=st.sampled_from([1.0, 0.1, 1e-2, 1e-3]))
def test_kernel_respond_matches_cold_per_block_solve(seed, players, kind, rows,
                                                     beta):
    # the second batch starts from the first batch's log-responses.  Both
    # solves stop at a projected gradient of at most inner_tol max(1,
    # max|G|), G the block's payoff gradient, and the objective is beta lam
    # strongly concave on the face, so two stopped iterates lie within
    # 2 sqrt(k) inner_tol max(1, max|G|) / (beta lam) of each other
    rng = np.random.default_rng(seed)
    shape = tuple(int(k) for k in rng.integers(2, 5, players))
    g = dominated_game(rng, shape)
    cfg = sg.SmoothedResponseConfig(
        beta=beta, regularizers=random_regularizers(rng, shape, kind))
    kernel = FlatKernel(g, cfg)
    for _ in range(2):
        X = np.stack([random_interior(rng, shape).concatenated()
                      for _ in range(rows)])
        Y = kernel.respond(X)
        G = kernel.gradients(X)
        for n, (r, s) in enumerate(zip(cfg.regularizers, kernel.slices)):
            for b in range(rows):
                cold = sg.smoothed_argmax(G[b, s], r, beta)
                bound = (2 * np.sqrt(r.dimension) * cfg.inner_tol
                         * max(1.0, np.abs(G[b, s]).max()) / (beta * r.lam))
                np.testing.assert_allclose(Y[b, s], cold, rtol=0,
                                           atol=1e-12 + bound)
        if beta == 1e-3:
            assert Y[:, 0].max() < np.finfo(float).tiny


@pytest.mark.parametrize("kinds, softmax", [
    (("entropy", "quadratic_entropy", "quadratic_entropy", "entropy"), True),
    (("quadratic_entropy",) * 3, True),   # with its one-action block
    (("quadratic_entropy",) * 2, False),  # every column in a Newton group
])
@pytest.mark.parametrize("rows", [1, 4])
def test_kernel_softmax_only_where_a_block_needs_it(monkeypatch, kinds,
                                                    softmax, rows):
    # the block softmax runs only for blocks outside the Newton groups (an
    # entropy block, or one of one action), and every block gets what
    # smoothed_argmax gives for it (a softmax summed by reduceat may
    # differ from it in the last bit)
    rng = np.random.default_rng(rows)
    shape = (3, 2, 1, 2)[:len(kinds)] if softmax else (3, 2)
    regs = tuple(quadratic_regularizers(rng, (k,))[0]
                 if kind == "quadratic_entropy" else sg.entropy(k)
                 for kind, k in zip(kinds, shape))
    cfg = sg.SmoothedResponseConfig(beta=0.2, regularizers=regs)
    kernel = FlatKernel(random_game(rng, shape), cfg)
    totals = []
    block_totals = FlatKernel._block_totals

    def counting(self, ufunc, X):
        totals.append(ufunc)
        return block_totals(self, ufunc, X)

    monkeypatch.setattr(FlatKernel, "_block_totals", counting)
    X = np.stack([random_interior(rng, shape).concatenated()
                  for _ in range(rows)])
    Y = kernel.respond(X)
    assert bool(totals) == softmax
    G = kernel.gradients(X)
    for r, s in zip(regs, kernel.slices):
        for b in range(rows):
            np.testing.assert_allclose(
                Y[b, s], sg.smoothed_argmax(G[b, s], r, cfg.beta), rtol=0,
                atol=1e-15)


def reference_respond(kernel, X, warm):
    """``FlatKernel.respond`` as it stood when each response built its
    Newton argmax's frame and evaluated its start afresh: a group's columns
    gathered by an index array, warm-started from its last log-responses
    (``warm``, by group dimension) at the same row count, and none kept
    after a failed solve."""
    cfg = kernel.cfg
    G = kernel.gradients(X)
    Y = G / kernel.beta
    Y -= kernel._block_totals(np.maximum, Y)
    np.exp(Y, out=Y)
    Y /= kernel._block_totals(np.add, Y)
    by_dimension = {}
    for n, r in enumerate(cfg.regularizers):
        if r.A is not None and r.dimension > 1:
            by_dimension.setdefault(r.dimension, []).append(n)
    for k, players in by_dimension.items():
        regs = [cfg.regularizers[n] for n in players]
        columns = np.concatenate([np.arange(kernel.slices[n].start,
                                            kernel.slices[n].stop)
                                  for n in players])
        V = G[:, columns].reshape(len(X), len(players), k)
        U = warm.get(k)
        if U is None or U.shape != V.shape:
            U = np.full(V.shape, -np.log(k))
        warm[k] = None
        U = newton_log(V, np.array([r.lam for r in regs]),
                       np.stack([r.curvature for r in regs]),
                       np.stack([r.w for r in regs]), kernel.beta,
                       cfg.inner_tol, cfg.inner_max_iter, U)
        warm[k] = U
        Y[:, columns] = np.exp(U).reshape(len(X), -1)
    return Y


@pytest.mark.parametrize("kinds, shape", [
    (("quadratic_entropy",) * 2, (3, 3)),   # one group over every column
    (("quadratic_entropy",) * 2, (2, 3)),   # two groups, each a range
    (("quadratic_entropy", "quadratic_entropy", "entropy"), (3, 3, 2)),
    (("quadratic_entropy", "entropy", "quadratic_entropy"), (3, 2, 3)),
])
def test_kernel_newton_state_changes_no_bit(kinds, shape):
    # the frame and the evaluated start a kernel keeps per group give what
    # building both on every response gives, bit for bit: across changes
    # of the row count, at a beta column, and after a failed solve
    rng = np.random.default_rng(shape)
    regs = tuple(quadratic_regularizers(rng, (k,))[0]
                 if kind == "quadratic_entropy" else sg.entropy(k)
                 for kind, k in zip(kinds, shape))
    g = random_game(rng, shape)
    cfg = sg.SmoothedResponseConfig(beta=0.05, regularizers=regs)

    def batch(rows):
        return np.stack([random_interior(rng, shape).concatenated()
                         for _ in range(rows)])

    def respond_both(kernel, warm, X):
        want = reference_respond(kernel, X, warm)
        got = kernel.respond(X)
        assert got.tobytes() == want.tobytes()

    kernel, warm = FlatKernel(g, cfg), {}
    for rows in (1, 3, 3, 1, 1):
        X = batch(rows)
        respond_both(kernel, warm, X)
        # a small move, which the warm start takes in a step or two
        respond_both(kernel, warm, kernel.mix(X, batch(rows), 0.01))
    beta = rng.uniform(0.01, 1.0, (3, 1))
    kernel, warm = FlatKernel(g, cfg, beta=beta), {}
    for _ in range(3):
        respond_both(kernel, warm, batch(3))
    # a solve that fails leaves no start behind, and the next one is cold
    kernel, warm = FlatKernel(g, cfg), {}
    respond_both(kernel, warm, batch(2))
    kernel.cfg = dataclasses.replace(cfg, inner_max_iter=1)
    X = batch(2)
    with pytest.raises(ConvergenceError) as want:
        reference_respond(kernel, X, warm)
    with pytest.raises(ConvergenceError) as got:
        kernel.respond(X)
    assert str(got.value) == str(want.value)
    kernel.cfg = cfg
    respond_both(kernel, warm, batch(2))


@pytest.mark.parametrize("shape", [(3, 2), (2, 3, 4), (3, 1, 2),
                                   (2, 3, 1, 2), (1, 2, 3, 2)])
@pytest.mark.parametrize("rows", [1, 7])
def test_kernel_gradients_match_per_player_gradient(shape, rows):
    rng = np.random.default_rng(rows * 100 + len(shape))
    g = random_game(rng, shape)
    beta = np.linspace(0.1, 1.0, rows)[:, None]
    kernel = FlatKernel(g, sg.entropy_config(g, 0.5), beta=beta)
    points = [random_interior(rng, shape) for _ in range(rows)]
    G = kernel.gradients(np.stack([x.concatenated() for x in points]))
    for b, x in enumerate(points):
        for n, s in enumerate(kernel.slices):
            expected = sg.gradient(g, x, n)
            np.testing.assert_allclose(G[b, s], expected, rtol=0,
                                       atol=1e-12 * np.abs(expected).max())


@pytest.mark.parametrize("shape", [(2, 2), (3, 5), (5, 2), (2, 3, 4),
                                   (4, 1, 3), (2, 3, 1, 2), (3, 2, 4, 2)])
def test_point_gradient_and_utility_are_the_kernels_bit_for_bit(shape):
    # the point-level gradient follows the kernel's plan, and the utility
    # is that gradient dotted with the player's block
    rng = np.random.default_rng(sum(shape) * 10 + len(shape))
    g = random_game(rng, shape)
    kernel = FlatKernel(g, sg.entropy_config(g, 0.5))
    for _ in range(5):
        x = random_interior(rng, shape)
        G = kernel.gradients(kernel.flatten(x)[None, :])
        for n, s in enumerate(kernel.slices):
            grad = sg.gradient(g, x, n)
            assert grad.tobytes() == G[0, s].tobytes()
            assert sg.utility(g, x, n) == float(grad @ x.blocks[n])


def test_kernel_beta_column_is_checked_entrywise():
    g = random_game(np.random.default_rng(0), (2, 2))
    cfg = sg.entropy_config(g, 0.5)
    FlatKernel(g, cfg, beta=np.array([[1], [2]]))  # any positive numbers
    for bad in ([[0.5], [0.0]], [[0.5], [np.nan]], [[np.inf]], "a"):
        with pytest.raises(ArgumentError, match="beta"):
            FlatKernel(g, cfg, beta=np.array(bad))
    # a lone row takes a (1, 1) column too, not a scalar
    for bad in (0.5, [0.5, 0.7], [[0.5, 0.7]]):
        with pytest.raises(DimensionError, match="beta"):
            FlatKernel(g, cfg, beta=bad)


def test_kernel_views_payoff_tensors_without_copying():
    rng = np.random.default_rng(0)
    g = random_game(rng, (60, 60, 60))
    cfg = sg.entropy_config(g, 0.5)
    tracemalloc.start()
    try:
        FlatKernel(g, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < g.payoffs[0].nbytes


def test_newton_argmax_pinned_bits():
    # recorded from the solver that re-evaluated every accepted iterate;
    # carrying those evaluations over must leave the path bit for bit
    rng = np.random.default_rng(13)
    k = 4
    a = rng.standard_normal((k, k)) + 2.0 * np.eye(k)
    r = sg.quadratic_entropy(0.4, a, rng.dirichlet(np.ones(k)))
    y = sg.smoothed_argmax(rng.standard_normal(k), r, 0.3)
    assert [v.hex() for v in y.tolist()] == [
        "0x1.5602ce07e1837p-2", "0x1.35e605bca7ca0p-13",
        "0x1.541759eefb17dp-1", "0x1.a7c15970b7fd7p-10"]


@pytest.mark.parametrize("seed", range(6))
def test_failed_newton_solve_names_the_rows_it_failed_on(seed):
    # rows 0 and 2 start cold and need 3 or more iterations, row 1 starts
    # at its own solution and freezes at once: capped at 2 iterations, the
    # solve raises its batch error and names rows 0 and 2, each with its
    # own worst residual and beta and the batch's iteration count
    rng = np.random.default_rng(seed)
    k, players = 3, 2
    lam = rng.uniform(0.05, 1.0, players)
    A = rng.standard_normal((players, k, k)) + 2.0 * np.eye(k)
    C = A.transpose(0, 2, 1) @ A
    w = rng.dirichlet(np.ones(k), players)
    V = rng.standard_normal((3, players, k)) * np.array([1e5, 1.0, 1e6])[
        :, None, None]
    beta = np.array([[1e-3], [0.5], [2e-3]])
    U = np.full(V.shape, -np.log(k))
    U[1] = newton_log(V[1:2], lam, C, w, beta[1:2], 1e-12, 10_000,
                      U[1:2])[0]

    def solve(rows):
        with pytest.raises(ConvergenceError) as err:
            _newton_solve(V[rows], lam, C, w,
                          _newton_frame(V[rows], lam, C, beta[rows]),
                          _newton_start(U[rows], lam, C, w), 1e-12, 2)
        return err.value

    batch = solve(slice(None))
    failed = batch.rows
    assert sorted(failed) == [0, 2]
    assert str(batch).startswith("inner solver hit 2 iterations")
    for r, err in failed.items():
        assert type(err) is ConvergenceError
        assert str(err).startswith("inner solver hit 2 iterations")
        assert err.iterations == batch.iterations == 2
        assert err.beta == beta[r, 0]
    worst = max(failed.values(), key=lambda err: err.residual)
    assert (worst.residual, worst.beta) == (batch.residual, batch.beta)
    # in a batch of one row, the row's error is the batch's, and the
    # same as the row's error in the batch of three
    for r in (0, 2):
        err = solve(slice(r, r + 1))
        alone = err.rows
        assert list(alone) == [0]
        assert (str(alone[0]), alone[0].residual, alone[0].iterations,
                alone[0].beta) == (str(err), err.residual, err.iterations,
                                   err.beta)
        assert (str(err), err.residual) == (str(failed[r]),
                                            failed[r].residual)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_non_finite_newton_solve_names_only_its_broken_row():
    # row 1's first step overflows at the edge of the float range; row 0
    # was still active then, but only the broken row is named
    r = sg.quadratic_entropy(0.5, 2.0 * np.eye(3), np.full(3, 1 / 3))
    V = np.array([[[1.0, 0.3, -1.0]], [[1e308, -1e308, 0.0]]])
    lam, C, w = np.array([r.lam]), r.curvature[None], r.w[None]
    U = np.full(V.shape, -np.log(3))
    with pytest.raises(ConvergenceError) as err:
        _newton_solve(V, lam, C, w, _newton_frame(V, lam, C, 1e-3),
                      _newton_start(U, lam, C, w), 1e-12, 10_000)
    failed = err.value.rows
    assert list(failed) == [1]
    assert (str(failed[1]), failed[1].residual, failed[1].iterations,
            failed[1].beta) == (str(err.value), err.value.residual,
                                err.value.iterations, err.value.beta)
    assert str(err.value).startswith("inner solver went non-finite at "
                                     "iteration 1")


def test_newton_dynamics_pinned_bits():
    rng = np.random.default_rng(13)
    g = random_game(rng, (3, 3))
    response = sg.SmoothedResponseConfig(
        beta=0.5, regularizers=quadratic_regularizers(rng, (3, 3)))
    traj = sg.run(g, sg.DynamicsConfig(eta=0.3, response=response, horizon=5),
                  sg.uniform_strategy((3, 3)))
    assert [[v.hex() for v in b.tolist()]
            for b in traj.final_point.blocks] == [
        ["0x1.cbb3d5848adadp-3", "0x1.0b2d506d2e051p-1",
         "0x1.03cb74635e88ap-2"],
        ["0x1.230796bf66876p-2", "0x1.da628a67ab066p-2",
         "0x1.0295ded8ee726p-2"]]


def reference_jacobian(game, cfg, x):
    """(1/beta) H^+ J at one point from the face Hessians of the response
    point and the game Jacobian on its supports, as first written.

    Also returns the face tangent basis and the size of the formula's terms,
    entry by entry: ``diag(y) - y y^T`` and its quadratic-entropy analogue
    cancel where a response is near pure, so the rounding error of either
    route is a small multiple of eps times the terms, not of the result.
    """
    y = sg.smoothed_best_response(game, cfg, x)
    jac = sg.game_jacobian(game, x, supports=y.supports())
    pinvs = [sg.face_hessian(r, b).pseudoinverse
             for r, b in zip(cfg.regularizers, y.blocks)]
    players = range(game.num_players)
    dense = np.block([[pinvs[n] @ jac.blocks[n][m] / cfg.beta
                       for m in players] for n in players])
    terms = np.block([[(np.diag(b) + np.outer(b, b)) / r.lam
                       @ np.abs(jac.blocks[n][m]) / cfg.beta
                       for m in players]
                      for n, (r, b) in enumerate(zip(cfg.regularizers,
                                                     y.blocks))])
    return dense, sg.games.block_diag(jac.tangent_bases()), terms


@settings(max_examples=30, deadline=None)
@given(seed=seeds, players=st.sampled_from([2, 3]),
       kind=st.sampled_from(["entropy", "quadratic_entropy"]),
       beta=st.sampled_from([1.0, 0.1, 1e-3]))
def test_kernel_jacobian_matches_per_point_formula(seed, players, kind, beta):
    rng = np.random.default_rng(seed)
    shape = tuple(int(k) for k in rng.integers(2, 5, players))
    g = dominated_game(rng, shape)
    cfg = sg.SmoothedResponseConfig(
        beta=beta, regularizers=random_regularizers(rng, shape, kind))
    kernel = FlatKernel(g, cfg)
    points = [random_interior(rng, shape) for _ in range(4)]
    X = np.stack([x.concatenated() for x in points])
    dense = kernel.jacobian(X)
    tangent = kernel.tangent_jacobians(X)
    assert dense.shape == (4, sum(shape), sum(shape))
    for b, x in enumerate(points):
        want, q, terms = reference_jacobian(g, cfg, x)
        assert np.all(np.abs(dense[b] - want) <= 1e-12 * terms)
        assert np.all(np.abs(tangent[b] - q.T @ want @ q)
                      <= 1e-12 * np.abs(q.T) @ terms @ np.abs(q))
        np.testing.assert_array_equal(
            sg.response_jacobian(g, cfg, x),
            FlatKernel(g, cfg).jacobian(X[b:b + 1])[0])


@settings(max_examples=40, deadline=None)
@given(seed=seeds,
       shape=st.sampled_from([(2, 2), (3, 3), (21, 24), (2, 3, 4), (3, 3, 3),
                              (8, 8, 8), (2, 3, 2, 3), (2, 2, 2, 2, 2)]),
       kind=st.sampled_from(["entropy", "quadratic_entropy"]),
       rows=st.integers(1, 40))
def test_kernel_rows_are_their_one_row_calls(seed, shape, kind, rows):
    # every product on the kernel's path is taken row by row, so no row's
    # bits depend on the batch it is in; respond keeps Newton warm starts,
    # so each batch and each row gets a fresh kernel
    rng = np.random.default_rng(seed)
    g = random_game(rng, shape)
    cfg = sg.SmoothedResponseConfig(
        beta=0.3, regularizers=random_regularizers(rng, shape, kind))
    X = np.concatenate([rng.dirichlet(np.full(k, 0.5), rows) for k in shape],
                       axis=1)
    Y = FlatKernel(g, cfg).respond(X)
    eta = rng.uniform(0.0, 1.0, (rows, 1))
    batch = (FlatKernel(g, cfg).gradients(X), Y,
             FlatKernel(g, cfg).jacobian(X),
             FlatKernel(g, cfg).tangent_jacobians(X),
             FlatKernel(g, cfg).mix(X, Y, eta))
    for b in range(rows):
        x, y = X[b:b + 1], Y[b:b + 1]
        alone = (FlatKernel(g, cfg).gradients(x), FlatKernel(g, cfg).respond(x),
                 FlatKernel(g, cfg).jacobian(x),
                 FlatKernel(g, cfg).tangent_jacobians(x),
                 FlatKernel(g, cfg).mix(x, y, eta[b:b + 1]))
        for stack, one in zip(batch, alone):
            assert stack[b].tobytes() == one[0].tobytes()


def test_kernel_tangent_bases_are_the_shared_face_bases(monkeypatch):
    # the kernel's response supports are index arrays it computed itself:
    # it checks none of them again, and its tangent Jacobians are those in
    # the public tangent_basis of each block, bit for bit
    rng = np.random.default_rng(3)
    shape = (3, 2, 3)
    g = random_game(rng, shape)
    cfg = sg.SmoothedResponseConfig(beta=0.2, regularizers=tuple(
        sg.entropy(k) for k in shape))
    X = np.stack([random_interior(rng, shape).concatenated()
                  for _ in range(3)])
    support_indices, calls = sg.games.support_indices, []

    def counting(k, support=None, name="support"):
        calls.append(k)
        return support_indices(k, support, name)

    monkeypatch.setattr(sg.games, "support_indices", counting)
    tangent = FlatKernel(g, cfg).tangent_jacobians(X)
    monkeypatch.undo()
    assert calls == []
    q = sg.games.block_diag([sg.tangent_basis(k) for k in shape])
    for t, j in zip(tangent, FlatKernel(g, cfg).jacobian(X)):
        assert t.tobytes() == (q.T @ j @ q).tobytes()
    bases = sg.games.face_bases(shape, [np.arange(k) for k in shape])
    assert bases[0] is bases[2] and not bases[0].flags.writeable
    shared = sg.game_jacobian(g, sg.uniform_strategy(shape)).tangent_bases()
    assert shared[0] is shared[2]
    assert [b.tobytes() for b in shared] == [b.tobytes() for b in bases]


# ---------------------------------------------------------------------------
# response Jacobian

def test_pennies_response_jacobian_closed_form():
    g = pennies()
    cfg = sg.entropy_config(g, 1.0)
    dense = sg.response_jacobian(g, cfg, sg.uniform_strategy((2, 2)))
    t1 = g.payoffs[0]
    half = np.array([[0.25, -0.25], [-0.25, 0.25]])  # diag(x) - x x^T
    np.testing.assert_allclose(dense[:2, 2:], half @ t1, atol=1e-12)
    np.testing.assert_allclose(dense[2:, :2], half @ (-t1).T, atol=1e-12)
    np.testing.assert_allclose(dense[:2, :2], 0.0, atol=1e-12)
    tang = sg.response_jacobian(g, cfg, sg.uniform_strategy((2, 2)),
                                as_tangent=True)
    np.testing.assert_allclose(tang, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-12)


@settings(max_examples=15, deadline=None)
@given(seed=seeds, shape=st.sampled_from([(2, 3), (2, 2, 3)]))
def test_response_jacobian_matches_finite_differences(seed, shape):
    rng = np.random.default_rng(seed)
    g = random_game(rng, shape)
    cfg = sg.entropy_config(g, 10.0 ** rng.uniform(-0.7, 0.0))
    x = random_interior(rng, shape)
    dense = sg.response_jacobian(g, cfg, x)
    h = 1e-6
    for _ in range(4):
        d_blocks = []
        for k in shape:
            v = rng.standard_normal(k)
            d_blocks.append(v - v.mean())
        d = np.concatenate(d_blocks)
        xp = sg.JointStrategy(tuple(b + h * db for b, db in zip(x.blocks, d_blocks)))
        xm = sg.JointStrategy(tuple(b - h * db for b, db in zip(x.blocks, d_blocks)))
        fd = (sg.smoothed_best_response(g, cfg, xp).concatenated()
              - sg.smoothed_best_response(g, cfg, xm).concatenated()) / (2 * h)
        np.testing.assert_allclose(dense @ d, fd, atol=1e-5)


def test_response_jacobian_zero_for_constant_game():
    g = sg.NormalFormGame((np.full((2, 2), 3.0), np.full((2, 2), 3.0)))
    cfg = sg.entropy_config(g, 0.5)
    dense = sg.response_jacobian(g, cfg, sg.uniform_strategy((2, 2)))
    np.testing.assert_allclose(dense, 0.0, atol=1e-14)


def test_response_jacobian_rejects_a_beta_too_small_to_divide_by():
    # the response at the uniform point is the uniform point, but 1/beta
    # overflows in the Jacobian
    g = pennies()
    cfg = sg.entropy_config(g, 1e-320)
    x = sg.uniform_strategy(g.shape)
    np.testing.assert_array_equal(
        sg.smoothed_best_response(g, cfg, x).concatenated(), 0.5)
    for as_tangent in (False, True):
        with pytest.raises(DomainError, match="Jacobian is not finite"):
            sg.response_jacobian(g, cfg, x, as_tangent=as_tangent)


def test_response_jacobian_finite_where_coordinates_underflow():
    # the third action trails by 0.36, so at beta = 1e-3 its response mass
    # is about exp(-720): denormal, inside the support, with 1/y = inf
    a = np.array([1.0, 1.0, 0.64])
    m = np.array([[0.0, 0.01, 0.0], [0.01, 0.0, 0.0], [0.0, 0.0, 0.0]])
    g = sg.NormalFormGame((a[:, None] + m, (a[:, None] + m).T))
    r = sg.quadratic_entropy(0.5, 2.0 * np.eye(3), np.full(3, 1 / 3))
    cfg = sg.SmoothedResponseConfig(beta=1e-3, regularizers=(r, r))
    eq = sg.find_smoothed_equilibrium(g, cfg)
    y = sg.smoothed_best_response(g, cfg, eq.point).concatenated()
    assert 0.0 < y.min() < np.finfo(float).tiny
    dense = sg.response_jacobian(g, cfg, eq.point)
    assert np.all(np.isfinite(dense))
    # the denormal coordinate carries no curvature weight: player 0's block
    # is the {0, 1}-face pseudoinverse, padded, times the game Jacobian
    hess = r.lam * np.diag(1.0 / y[:2]) + (r.A.T @ r.A)[:2, :2]
    q = np.array([1.0, -1.0]) / np.sqrt(2.0)
    pinv = np.zeros((3, 3))
    pinv[:2, :2] = np.outer(q, q) / (q @ hess @ q)
    centre = np.eye(3) - 1.0 / 3.0
    np.testing.assert_allclose(dense[:3, 3:],
                               pinv @ g.payoffs[0] @ centre / cfg.beta,
                               rtol=1e-9, atol=1e-12)
    eta = sg.eta_threshold(g, cfg, eq)
    assert np.isfinite(eta) and 0.0 < eta <= 1e-3 ** 2


# ---------------------------------------------------------------------------
# equilibrium solver

def test_pennies_equilibrium_is_uniform():
    g = pennies()
    eq = sg.find_smoothed_equilibrium(g, sg.entropy_config(g, 0.1))
    np.testing.assert_array_equal(eq.point.concatenated(), np.full(4, 0.5))
    assert eq.residual == 0.0
    assert eq.nash_gap == 0.0
    assert eq.beta == 0.1


def test_equilibrium_residual_reverifies():
    rng = np.random.default_rng(8)
    g, _ = polymatrix_game(rng, (3, 3), lam=(1.0, 2.0))
    cfg = sg.entropy_config(g, 0.1)
    eq = sg.find_smoothed_equilibrium(g, cfg, outer_tol=1e-10)
    y = sg.smoothed_best_response(g, cfg, eq.point)
    residual = np.abs(y.concatenated() - eq.point.concatenated()).max()
    assert residual <= 1e-10
    assert abs(residual - eq.residual) <= 1e-15
    assert abs(eq.nash_gap - sg.epsilon_nash_gap(g, eq.point)) <= 1e-15


@settings(max_examples=10, deadline=None)
@given(seed=seeds)
def test_equilibrium_gap_bound_zero_sum(seed):
    # entropy bound: nash_gap <= beta * max_n ln k_n.  At beta = 1 the cold
    # solve always lands (0 stalls over 1500 seeds of this construction); at
    # beta = 0.3 the rotation stalls the warm-started solve on ~14% of draws,
    # which is in-contract: the solver must then raise CyclingError with its
    # state instead of returning a bad point, and whenever it does return,
    # the bound must hold.
    rng = np.random.default_rng(seed)
    k1, k2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    t = rng.standard_normal((k1, k2))
    g = sg.NormalFormGame((t, -t))
    bound = lambda beta: beta * np.log(max(k1, k2)) + 1e-9

    cfg = sg.entropy_config(g, 1.0)
    eq1 = sg.find_smoothed_equilibrium(g, cfg)
    assert eq1.residual <= 1e-10
    assert eq1.nash_gap <= bound(1.0)

    try:
        eq2 = sg.find_smoothed_equilibrium(
            g, dataclasses.replace(cfg, beta=0.3), eq1.point)
    except CyclingError as err:
        assert err.beta == 0.3
        assert err.residual > 0
    else:
        assert eq2.residual <= 1e-10
        assert eq2.nash_gap <= bound(0.3)


def test_solver_rejects_bad_arguments():
    g = pennies()
    cfg = sg.entropy_config(g, 0.1)
    with pytest.raises(ArgumentError):
        sg.find_smoothed_equilibrium(g, cfg, outer_tol=0.0)
    with pytest.raises(DimensionError):
        sg.find_smoothed_equilibrium(g, cfg, sg.uniform_strategy((2, 3)))


@pytest.mark.parametrize("outer_tol", [np.inf, np.nan, 0.0, -1.0, True, "a",
                                       None])
def test_solvers_reject_bad_outer_tolerance(outer_tol):
    # an infinite tolerance would accept any start as the equilibrium
    g = pennies()
    cfg = sg.entropy_config(g, 0.1)
    with pytest.raises(ArgumentError, match="outer_tol"):
        sg.find_smoothed_equilibrium(g, cfg, outer_tol=outer_tol)
    with pytest.raises(ArgumentError, match="outer_tol"):
        sg.homotopy_trace(g, cfg, [0.5, 0.1], outer_tol=outer_tol)
    with pytest.raises(ArgumentError, match="outer_tol"):
        sg.boundary_convergence_check(g, cfg.regularizers,
                                      sg.uniform_strategy((2, 2)),
                                      [0.5, 0.1], outer_tol=outer_tol)


@pytest.mark.parametrize("max_iter", [2.5, 0, -1, True])
def test_solver_rejects_bad_max_iter(max_iter):
    g = pennies()
    cfg = sg.entropy_config(g, 0.1)
    with pytest.raises(ArgumentError, match="max_iter"):
        sg.find_smoothed_equilibrium(g, cfg, max_iter=max_iter)
    with pytest.raises(ArgumentError, match="max_iter"):
        sg.homotopy_trace(g, cfg, [0.5, 0.1], max_iter=max_iter)


def test_solver_convergence_error_carries_state():
    g = pennies()
    cfg = sg.entropy_config(g, 0.1)
    x0 = sg.JointStrategy((np.array([0.9, 0.1]), np.array([0.8, 0.2])))
    with pytest.raises(ConvergenceError) as info:
        sg.find_smoothed_equilibrium(g, cfg, x0, max_iter=3)
    err = info.value
    assert err.iterations == 3
    assert err.beta == 0.1
    assert err.residual > 0
    assert err.last_point is not None


def test_solver_cycling_detection():
    # far below the stable smoothing level the iteration orbits
    g = pennies()
    cfg = sg.entropy_config(g, 0.003)
    x0 = sg.JointStrategy((np.array([0.9, 0.1]), np.array([0.8, 0.2])))
    with pytest.raises(CyclingError) as info:
        sg.find_smoothed_equilibrium(g, cfg, x0)
    err = info.value
    assert err.beta == 0.003
    assert 0.1 < err.residual < 1.0
    assert err.last_point is not None


# best residual and best point of each solve, as recorded when the walk
# still ran out its stagnation window (573 and 520 responses)
COLLAPSED = {
    0.1: (110, "0x1.a27847b5c58a4p-3",
          (("0x1.75eb048e04290p-4", "0x1.d1eb7d735ffd9p-3",
            "0x1.5cc7c011677b8p-1"),
           ("0x1.708c4a5a37cd4p-11", "0x1.d369974751411p-3",
            "0x1.8ac9771b9521dp-1"))),
    0.03: (89, "0x1.eb62f1b2a46e8p-3",
           (("0x1.b8e39241a757fp-3", "0x1.8cc804128979cp-1",
             "0x1.3fc5d7432c135p-7"),
            ("0x1.4a6916d553636p-3", "0x1.41f3b5baa2165p-4",
             "0x1.8527439356e46p-1"))),
}


@pytest.mark.parametrize("beta", sorted(COLLAPSED))
def test_solver_stops_when_the_step_size_collapses(beta, monkeypatch):
    # halving eta below the residual band freezes the iterate: the solve
    # stops there, with the state the full stagnation window would carry
    bound, residual, point = COLLAPSED[beta]
    calls = []
    respond = FlatKernel.respond
    monkeypatch.setattr(FlatKernel, "respond",
                        lambda self, X: calls.append(1) or respond(self, X))
    rng = np.random.default_rng(21)
    g = sg.NormalFormGame((rng.standard_normal((3, 3)),
                           rng.standard_normal((3, 3))))
    with pytest.raises(CyclingError, match="collapsed.*stagnated") as info:
        sg.find_smoothed_equilibrium(g, sg.entropy_config(g, beta))
    err = info.value
    assert len(calls) <= bound
    assert err.iterations == len(calls) - 1  # steps taken between responses
    assert err.beta == beta
    assert err.residual.hex() == residual
    assert tuple(tuple(v.hex() for v in b)
                 for b in err.last_point.blocks) == point


# ---------------------------------------------------------------------------
# homotopy

def test_homotopy_schedule_validation():
    g = pennies()
    cfg = sg.entropy_config(g, 1.0)
    with pytest.raises(ArgumentError):
        sg.homotopy_trace(g, cfg, [])
    with pytest.raises(ArgumentError):
        sg.homotopy_trace(g, cfg, [0.1, 0.1])
    with pytest.raises(ArgumentError):
        sg.homotopy_trace(g, cfg, [0.1, -0.01])


def test_homotopy_pennies_all_uniform():
    g = pennies()
    trace = sg.homotopy_trace(g, sg.entropy_config(g, 1.0), [1, 0.5, 0.1, 0.01])
    assert [eq.beta for eq in trace] == [1, 0.5, 0.1, 0.01]
    for eq in trace:
        np.testing.assert_array_equal(eq.point.concatenated(), np.full(4, 0.5))


def test_homotopy_example_A_reaches_strict_equilibrium():
    g = sg.bundled_game("example_A")
    x0 = sg.JointStrategy((np.array([0.5, 0.3, 0.2]), np.array([0.2, 0.5, 0.3])))
    trace = sg.homotopy_trace(g, sg.entropy_config(g, 1.0),
                              [1, 0.3, 0.1, 0.03, 0.01, 0.003, 0.001], x0)
    final = trace[-1]
    assert final.nash_gap <= np.log(3) * 1e-3
    target = sg.pure_strategy((3, 3), (1, 1)).concatenated()
    assert np.abs(final.point.concatenated() - target).max() <= 1e-6


def test_a_walk_alone_at_the_configs_beta_builds_no_second_kernel(
        monkeypatch):
    # the kernel a solve builds for its config steps the walk at that
    # beta; each other rung of a trace builds one of its own
    built = []
    init = FlatKernel.__init__
    monkeypatch.setattr(FlatKernel, "__init__", lambda self, *args, **kw:
                        built.append(1) or init(self, *args, **kw))
    g = sg.bundled_game("example_A")
    x0 = sg.JointStrategy((np.array([0.5, 0.3, 0.2]),
                           np.array([0.2, 0.5, 0.3])))
    cfg = sg.entropy_config(g, 1.0)
    eq = sg.find_smoothed_equilibrium(g, cfg, x0)
    assert len(built) == 1 and eq.residual <= 1e-10
    built.clear()
    trace = sg.homotopy_trace(g, cfg, [1.0, 0.3, 0.1], x0)
    assert len(built) == 3 and [e.beta for e in trace] == [1.0, 0.3, 0.1]
    assert trace[0].point.concatenated().tobytes() == \
        eq.point.concatenated().tobytes()


def test_homotopy_annotates_failing_beta():
    g = pennies()
    x0 = sg.JointStrategy((np.array([0.9, 0.1]), np.array([0.8, 0.2])))
    with pytest.raises(CyclingError) as info:
        sg.homotopy_trace(g, sg.entropy_config(g, 1.0), [0.003], x0)
    err = info.value
    assert err.beta == 0.003
    assert "beta=0.003" in err.args[0]
    assert err.__cause__ is not None
