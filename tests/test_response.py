import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import smoothgames as sg
from smoothgames.errors import (ArgumentError, ConvergenceError, CyclingError,
                                DimensionError)
from smoothgames.response import _newton_argmax

from conftest import polymatrix_game, random_game, random_interior

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


@settings(max_examples=30, deadline=None)
@given(seed=seeds)
def test_generic_solver_matches_softmax(seed):
    # the Newton path run with the entropy regularizer against the closed form
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 6))
    v = rng.standard_normal(k)
    beta = 10.0 ** rng.uniform(-1.5, 0.5)
    soft = sg.smoothed_argmax(v, sg.entropy(k), beta)
    newt = _newton_argmax(v, sg.entropy(k), beta, 1e-12, 10_000)
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


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_argmax_fails_fast_when_iterates_go_nonfinite():
    # at small beta fewer than two coordinates stay active and 1/y overflows;
    # the solver stops there instead of spending its whole budget
    r = sg.quadratic_entropy(0.5, 2.0 * np.eye(3), np.full(3, 1 / 3))
    with pytest.raises(ConvergenceError, match="inner solver") as info:
        sg.smoothed_argmax(np.array([1.0, 0.0, -1.0]), r, 1e-3)
    assert info.value.iterations < 100
    assert info.value.beta == 1e-3
    assert np.isfinite(info.value.residual)


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


def test_homotopy_annotates_failing_beta():
    g = pennies()
    x0 = sg.JointStrategy((np.array([0.9, 0.1]), np.array([0.8, 0.2])))
    with pytest.raises(CyclingError) as info:
        sg.homotopy_trace(g, sg.entropy_config(g, 1.0), [0.003], x0)
    err = info.value
    assert err.beta == 0.003
    assert "beta=0.003" in err.args[0]
    assert err.__cause__ is not None
