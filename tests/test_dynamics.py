import csv
import dataclasses
import io
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import smoothgames as sg
from smoothgames.dynamics import Trajectory, trace_to_csv
from smoothgames.response import DISTANCE_CHUNK
from smoothgames.errors import ArgumentError, DimensionError, DomainError

from conftest import (nonstrategic_offsets, quadratic_regularizers,
                      random_game, random_interior)

PENNIES_ETA_STAR = 0.005000000000000001  # beta^2/(1+L^2) at beta=0.1, L=1


def pennies():
    return sg.bundled_game("matching_pennies")


def dyn(beta, eta, horizon, record_every=1):
    g = pennies()
    cfg = sg.entropy_config(g, beta)
    return g, sg.DynamicsConfig(eta=eta, response=cfg, horizon=horizon,
                                record_every=record_every)


# ---------------------------------------------------------------------------
# configuration and stepping

def test_dynamics_config_validation():
    cfg = sg.entropy_config((2, 2), 0.1)
    with pytest.raises(ArgumentError):
        sg.DynamicsConfig(eta=0.0, response=cfg, horizon=10)
    with pytest.raises(ArgumentError):
        sg.DynamicsConfig(eta=1.2, response=cfg, horizon=10)
    with pytest.raises(ArgumentError):
        sg.DynamicsConfig(eta=0.1, response=cfg, horizon=0)
    with pytest.raises(ArgumentError):
        sg.DynamicsConfig(eta=0.1, response=cfg, horizon=10, record_every=0)


def test_dynamics_config_rejects_fractional_horizon():
    cfg = sg.entropy_config((2, 2), 0.1)
    with pytest.raises(ArgumentError):
        sg.DynamicsConfig(eta=0.1, response=cfg, horizon=2.5)


def test_step_is_averaging_update():
    g, cfg = dyn(0.2, 0.3, 1)
    x = sg.JointStrategy((np.array([0.7, 0.3]), np.array([0.4, 0.6])))
    y = sg.smoothed_best_response(g, cfg.response, x)
    manual = 0.7 * x.concatenated() + 0.3 * y.concatenated()
    np.testing.assert_allclose(sg.step(g, cfg, x).concatenated(), manual,
                               atol=1e-14)


def test_step_fixes_equilibrium():
    g, cfg = dyn(0.1, 0.05, 1)
    x = sg.uniform_strategy((2, 2))
    np.testing.assert_array_equal(sg.step(g, cfg, x).concatenated(),
                                  x.concatenated())


def test_step_defect_scales_with_eta():
    g, cfg = dyn(0.2, 0.25, 1)
    x = sg.JointStrategy((np.array([0.8, 0.2]), np.array([0.3, 0.7])))
    y = sg.smoothed_best_response(g, cfg.response, x)
    moved = sg.step(g, cfg, x)
    np.testing.assert_allclose(
        moved.concatenated() - x.concatenated(),
        0.25 * (y.concatenated() - x.concatenated()), atol=1e-14)


# ---------------------------------------------------------------------------
# trajectories

def test_run_recording_cadence():
    g, cfg = dyn(0.2, 0.1, 10, record_every=3)
    x0 = sg.JointStrategy((np.array([0.6, 0.4]), np.array([0.5, 0.5])))
    traj = sg.run(g, cfg, x0)
    assert len(traj.points) == 4  # t = 0, 3, 6, 9
    assert traj.distances is None
    with pytest.raises(ArgumentError):
        traj.ratios()
    # final point is the horizon state even when off-cadence
    resumed = x0
    for _ in range(10):
        resumed = sg.step(g, cfg, resumed)
    np.testing.assert_array_equal(traj.final_point.concatenated(),
                                  resumed.concatenated())


def test_run_distances_and_ratios():
    g, cfg = dyn(0.1, 0.05, 50)
    eq = sg.find_smoothed_equilibrium(g, cfg.response)
    x0 = sg.JointStrategy((np.array([0.55, 0.45]), np.array([0.5, 0.5])))
    traj = sg.run(g, cfg, x0, reference=eq)
    assert len(traj.distances) == 51
    assert traj.distances[0] == pytest.approx(np.linalg.norm(
        x0.concatenated() - eq.point.concatenated()))
    ratios = traj.ratios()
    assert len(ratios) == 50
    assert np.all(np.isfinite(ratios))


def test_run_from_equilibrium_has_nan_ratios():
    g, cfg = dyn(0.1, 0.05, 5)
    eq = sg.find_smoothed_equilibrium(g, cfg.response)
    traj = sg.run(g, cfg, eq.point, reference=eq)
    assert all(d == 0.0 for d in traj.distances)
    assert np.all(np.isnan(traj.ratios()))


def test_run_shape_mismatch():
    g, cfg = dyn(0.1, 0.05, 5)
    with pytest.raises(DimensionError):
        sg.run(g, cfg, sg.uniform_strategy((2, 3)))


def test_long_run_stays_on_simplex():
    g, cfg = dyn(0.05, 0.4, 10_000, record_every=2500)
    x0 = sg.JointStrategy((np.array([0.9, 0.1]), np.array([0.2, 0.8])))
    traj = sg.run(g, cfg, x0)
    for point in traj.points + (traj.final_point,):
        for block in point.blocks:
            assert abs(block.sum() - 1.0) <= 1e-12
            assert np.all(block >= 0.0)


def reference_step(game, cfg, x):
    """The averaging update block by block, as it was first written."""
    blocks = []
    for n, reg in enumerate(cfg.response.regularizers):
        y = sg.smoothed_argmax(sg.gradient(game, x, n), reg, cfg.response.beta)
        mixed = (1.0 - cfg.eta) * x.blocks[n] + cfg.eta * y
        blocks.append(mixed / mixed.sum())
    return sg.JointStrategy(tuple(blocks))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), players=st.sampled_from([2, 3]),
       kind=st.sampled_from(["entropy", "quadratic_entropy"]))
def test_run_matches_per_block_reference(seed, players, kind):
    # weak payoffs and large beta keep the map contractive, so rounding
    # differences between the two paths cannot grow along the orbit
    rng = np.random.default_rng(seed)
    shape = tuple(int(k) for k in rng.integers(2, 5, players))
    game = random_game(rng, shape, scale=0.2)
    if kind == "entropy":
        regs = tuple(sg.entropy(k) for k in shape)
    else:
        regs = tuple(sg.quadratic_entropy(rng.uniform(0.5, 1.0),
                                          np.diag(rng.uniform(1.0, 2.0, k)),
                                          rng.dirichlet(np.ones(k)))
                     for k in shape)
    response = sg.SmoothedResponseConfig(beta=rng.uniform(1.0, 2.0),
                                         regularizers=regs)
    cfg = sg.DynamicsConfig(eta=rng.uniform(0.05, 0.2), response=response,
                            horizon=200, record_every=50)
    x0 = random_interior(rng, shape)
    traj = sg.run(game, cfg, x0)
    x, expected = x0, [x0]
    for t in range(1, cfg.horizon + 1):
        x = reference_step(game, cfg, x)
        if t % cfg.record_every == 0:
            expected.append(x)
    assert len(traj.points) == len(expected)
    for got, want in zip(traj.points + (traj.final_point,),
                         tuple(expected) + (x,)):
        np.testing.assert_allclose(got.concatenated(), want.concatenated(),
                                   rtol=0, atol=1e-12)


@pytest.mark.parametrize("shape", [(4, 3), (3, 2, 3)])
def test_run_many_rows_match_single_runs(shape):
    rng = np.random.default_rng(11)
    g = random_game(rng, shape, scale=0.5)
    cfg = sg.entropy_config(g, 1.0)
    eq = sg.find_smoothed_equilibrium(g, cfg)
    dyn_cfg = sg.DynamicsConfig(eta=0.1, response=cfg, horizon=300,
                                record_every=100)
    starts = [random_interior(rng, shape) for _ in range(5)]
    batch = sg.run_many(g, dyn_cfg, starts, reference=eq)
    assert len(batch) == len(starts)
    for x0, traj in zip(starts, batch):
        single = sg.run(g, dyn_cfg, x0, reference=eq)
        np.testing.assert_allclose(traj.distances, single.distances,
                                   rtol=0, atol=1e-12)
        assert len(traj.points) == len(single.points) == 4
        for a, b in zip(traj.points + (traj.final_point,),
                        single.points + (single.final_point,)):
            np.testing.assert_allclose(a.concatenated(), b.concatenated(),
                                       rtol=0, atol=1e-12)
    with pytest.raises(ArgumentError):
        sg.run_many(g, dyn_cfg, [])
    with pytest.raises(DimensionError):
        sg.run_many(g, dyn_cfg, [starts[0], sg.uniform_strategy((2, 2))])


@pytest.mark.parametrize("kind", ["entropy", "quadratic_entropy"])
@pytest.mark.parametrize("shape", [(3, 3), (4, 4), (3, 3, 3)])
def test_run_many_rows_are_runs_alone(shape, kind):
    # no row's bits depend on its batch: each of seven random starts ends
    # where its run alone ends, at the same distances, bit for bit
    rng = np.random.default_rng(5)
    g = random_game(rng, shape)
    regs = (quadratic_regularizers(rng, shape) if kind == "quadratic_entropy"
            else tuple(sg.entropy(k) for k in shape))
    response = sg.SmoothedResponseConfig(beta=0.5, regularizers=regs)
    eq = sg.find_smoothed_equilibrium(g, response)
    cfg = sg.DynamicsConfig(eta=0.2, response=response, horizon=150,
                            record_every=150)
    starts = [random_interior(rng, shape) for _ in range(7)]
    for x0, traj in zip(starts, sg.run_many(g, cfg, starts, reference=eq)):
        alone = sg.run(g, cfg, x0, reference=eq)
        assert traj.final_point.concatenated().tobytes() == \
            alone.final_point.concatenated().tobytes()
        assert traj.distances == alone.distances


def test_identical_runs_are_bitwise_equal():
    # each run builds its own kernel, so warm starts never leak between calls
    rng = np.random.default_rng(23)
    shape = (3, 2, 3)
    g = random_game(rng, shape)
    response = sg.SmoothedResponseConfig(
        beta=0.1, regularizers=quadratic_regularizers(rng, shape))
    cfg = sg.DynamicsConfig(eta=0.05, response=response, horizon=60,
                            record_every=7)
    eq = sg.find_smoothed_equilibrium(g, response)
    x0 = random_interior(rng, shape)
    a = sg.run(g, cfg, x0, reference=eq)
    sg.run(g, cfg, random_interior(rng, shape))
    b = sg.run(g, cfg, x0, reference=eq)
    assert a.distances == b.distances
    for p, q in zip(a.points + (a.final_point,), b.points + (b.final_point,)):
        np.testing.assert_array_equal(p.concatenated(), q.concatenated())


def reference_orbits(kernel, configs, X, ref):
    """The orbits of ``run_many``, with ``kernel.advance`` called at every
    step of the horizon, no stop at a fixed batch, and each step's
    distances taken at that step."""
    horizon, every = configs[0].horizon, configs[0].record_every
    eta = np.array([[c.eta] for c in configs])
    recorded = [X]
    distances = []

    def take_distances():
        if ref is not None:
            distances.append(np.linalg.norm(X - ref, axis=1))

    take_distances()
    for t in range(1, horizon + 1):
        X = kernel.advance(X, eta)
        if t % every == 0:
            recorded.append(X)
        take_distances()
    if ref is not None:
        distances = np.array(distances).T.tolist()
    return tuple(
        Trajectory(config=cfg,
                   points=tuple(kernel.strategy(R[i]) for R in recorded),
                   final_point=kernel.strategy(X[i]),
                   distances=tuple(distances[i]) if ref is not None else None)
        for i, cfg in enumerate(configs))


def bits(values):
    return np.asarray(values, dtype=float).tobytes()


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       case=st.sampled_from(["matching_pennies", "coordination_2x2",
                             "entropy2", "entropy3", "quadratic_entropy"]),
       horizon=st.integers(1, 150), record_every=st.integers(1, 9),
       with_reference=st.booleans(), negative_zero=st.booleans())
def test_run_many_matches_stepping_every_step(seed, case, horizon,
                                              record_every, with_reference,
                                              negative_zero):
    # batches fixed from the first step (the bundled games from the uniform
    # point), fixed mid-run (a contractive random game), or never fixed
    # (short horizons, small eta) give what stepping every step gives
    rng = np.random.default_rng(seed)
    if case in ("matching_pennies", "coordination_2x2"):
        g = sg.bundled_game(case)
        starts = [sg.uniform_strategy(g.shape)] * int(rng.integers(1, 4))
        response = sg.entropy_config(g, rng.uniform(0.05, 1.0))
    else:
        shape = tuple(int(k) for k in rng.integers(
            2, 4, 3 if case == "entropy3" else 2))
        g = random_game(rng, shape, scale=0.2)
        starts = [random_interior(rng, shape)
                  for _ in range(int(rng.integers(1, 4)))]
        regs = (quadratic_regularizers(rng, shape)
                if case == "quadratic_entropy"
                else tuple(sg.entropy(k) for k in shape))
        response = sg.SmoothedResponseConfig(beta=rng.uniform(1.0, 2.0),
                                             regularizers=regs)
    if negative_zero:
        k = g.shape[0]
        starts[0] = sg.JointStrategy((np.array([1.0] + [-0.0] * (k - 1)),)
                                     + starts[0].blocks[1:])
        assert np.signbit(starts[0].concatenated()).any()
    cfg = sg.DynamicsConfig(eta=rng.choice([0.01, rng.uniform(0.3, 0.7)]),
                            response=response, horizon=horizon,
                            record_every=record_every)
    reference = (sg.SmoothedEquilibrium(point=random_interior(rng, g.shape),
                                        beta=response.beta, residual=0.0,
                                        nash_gap=0.0)
                 if with_reference else None)
    got = sg.run_many(g, cfg, starts, reference=reference)
    want = reference_orbits(
        sg.response.FlatKernel(g, response), [cfg] * len(starts),
        np.stack([x.concatenated() for x in starts]),
        reference.point.concatenated() if with_reference else None)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert len(a.points) == len(b.points)
        for p, q in zip(a.points + (a.final_point,),
                        b.points + (b.final_point,)):
            assert bits(p.concatenated()) == bits(q.concatenated())
        if with_reference:
            assert bits(a.distances) == bits(b.distances)
        else:
            assert a.distances is None and b.distances is None


def test_fixed_batch_stops_stepping(monkeypatch):
    # the uniform point is a fixed point of the pennies dynamics at every
    # beta and eta, so each beta's walk stops at its first step and each
    # beta's two cells leave the sweep's batch at their first check
    calls = []  # the row count of every step
    mix = sg.response.FlatKernel.mix

    def counting(self, X, Y, eta):
        calls.append(len(X))
        return mix(self, X, Y, eta)

    monkeypatch.setattr(sg.response.FlatKernel, "mix", counting)
    cells = sg.sweep(pennies(), betas=(0.3, 0.1), etas=(0.01, 0.1),
                     regularizers=(sg.entropy(2), sg.entropy(2)),
                     horizon=2000)
    assert [c.final_distance for c in cells] == [0.0] * 4
    # the walk at 0.3, then the walk at 0.1 beside 0.3's cells, then both
    # betas' cells until 0.3's and then 0.1's reach their eighth step
    stride = sg.response.FIXED_CHECK_STRIDE
    assert calls == [1, 3] + [4] * (stride - 1) + [2]
    # a batch that never arrives takes every step of its horizon
    calls.clear()
    g, cfg = dyn(0.1, 0.005, 301)
    x0 = sg.JointStrategy((np.array([0.9, 0.1]), np.array([0.2, 0.8])))
    sg.run_many(g, cfg, [x0, sg.uniform_strategy(g.shape)])
    assert calls == [2] * 301


def test_fixed_run_builds_its_strategies_once(monkeypatch):
    # pennies from the uniform point is fixed from the first step, so a run
    # recording every step builds as many strategies as it takes steps
    # before the fixed test, not one per recorded step of its horizon
    g, cfg = dyn(0.1, 0.005, 2000)
    eq = sg.find_smoothed_equilibrium(g, cfg.response)
    start = sg.uniform_strategy(g.shape)
    built = []
    post_init = sg.JointStrategy.__post_init__

    def counting(self):
        built.append(1)
        post_init(self)

    monkeypatch.setattr(sg.JointStrategy, "__post_init__", counting)
    stacked = []  # the rows of every stack of recorded states
    strategy_rows = sg.games.strategy_rows

    def counting_rows(stack, shape):
        stacked.append(len(stack))
        return strategy_rows(stack, shape)

    monkeypatch.setattr(sg.dynamics, "strategy_rows", counting_rows)
    traj = sg.run(g, cfg, start, reference=eq)
    assert len(traj.points) == 2001 and len(traj.distances) == 2001
    # one stack, and no point checked again on its own
    assert stacked == [sg.response.FIXED_CHECK_STRIDE] and built == []
    assert traj.points[-1] is traj.final_point
    assert set(traj.distances[sg.response.FIXED_CHECK_STRIDE - 1:]) == {
        traj.distances[-1]}


def test_thinned_run_holds_only_its_recorded_and_pending_states(
        monkeypatch):
    # a run recording every third state holds those, its start and final
    # state, and at most DISTANCE_CHUNK states whose distances are not yet
    # taken, never every state of its horizon
    rng = np.random.default_rng(4)
    shape = (3, 3, 3)
    g = random_game(rng, shape)
    response = sg.entropy_config(g, 0.5)
    every, horizon = 3, 3 * DISTANCE_CHUNK + 5
    cfg = sg.DynamicsConfig(eta=0.01, response=response, horizon=horizon,
                            record_every=every)
    reference = sg.SmoothedEquilibrium(point=random_interior(rng, shape),
                                       beta=0.5, residual=0.0, nash_gap=0.0)
    starts = [random_interior(rng, shape) for _ in range(2)]
    rows = (len(starts), sum(shape))
    track = sg.response.RunGroup.track
    groups, most = [], []

    def holding(self, X, new):
        over = track(self, X, new)
        held = {}  # every state array the group refers to, by identity
        for value in vars(self).values():
            for item in value if isinstance(value, list) else [value]:
                if isinstance(item, np.ndarray) and item.shape == rows:
                    held[id(item)] = item
        assert len(held) <= self.age // every + 2 + DISTANCE_CHUNK
        groups.append(self)
        most.append(len(held) - self.age // every)
        return over

    monkeypatch.setattr(sg.response.RunGroup, "track", holding)
    traj = sg.run_many(g, cfg, starts, reference=reference)
    assert len(groups) == horizon and groups[-1].fixed == 0  # never fixed
    assert max(most) > DISTANCE_CHUNK // 2  # the pending states were held
    assert all(len(t.points) == horizon // every + 1 for t in traj)
    assert all(len(t.distances) == horizon + 1 for t in traj)


def test_warm_start_bounds_newton_solves(monkeypatch):
    # a step moves x by O(eta), so the Newton argmax started from the last
    # log-response needs at most 3 stacked solves where a cold start needs 4+
    rng = np.random.default_rng(0)
    shape = (3, 3)
    g = random_game(rng, shape)
    response = sg.SmoothedResponseConfig(
        beta=0.3, regularizers=quadratic_regularizers(rng, shape))
    x0 = random_interior(rng, shape)
    solves = []
    face_solve = sg.response.face_solve

    def counting(*args):
        solves.append(1)
        return face_solve(*args)

    monkeypatch.setattr(sg.response, "face_solve", counting)
    sg.run(g, sg.DynamicsConfig(eta=0.001, response=response, horizon=1), x0)
    first = len(solves)
    sg.run(g, sg.DynamicsConfig(eta=0.001, response=response, horizon=50),
           x0)
    assert first >= 4
    assert len(solves) - 2 * first <= 3 * 49


# ---------------------------------------------------------------------------
# linearized classification

def test_pennies_verdict_at_threshold():
    g = pennies()
    cfg = sg.entropy_config(g, 0.1)
    eq = sg.find_smoothed_equilibrium(g, cfg)
    dyn_cfg = sg.DynamicsConfig(eta=PENNIES_ETA_STAR, response=cfg, horizon=1)
    verdict = sg.stability_verdict(g, dyn_cfg, eq)
    assert verdict.classification == "asymptotically_stable"
    assert verdict.jacobian_spectral_radius == pytest.approx(
        0.9962554893198833, abs=1e-15)
    assert verdict.jacobian_operator_norm >= verdict.jacobian_spectral_radius - 1e-12
    # rotation + shrink acts as a normal matrix here: norm equals radius
    assert verdict.jacobian_operator_norm == pytest.approx(
        verdict.jacobian_spectral_radius, abs=1e-12)


def test_pennies_marginal_at_critical_eta():
    # tangent response Jacobian is a pure rotation of magnitude 1/beta;
    # eta = 2/(1+c^2) puts the map exactly on the unit circle
    g = pennies()
    cfg = sg.entropy_config(g, 0.5)
    eq = sg.find_smoothed_equilibrium(g, cfg)
    dyn_cfg = sg.DynamicsConfig(eta=0.4, response=cfg, horizon=1)
    verdict = sg.stability_verdict(g, dyn_cfg, eq)
    assert verdict.classification == "marginal"
    assert verdict.jacobian_spectral_radius == pytest.approx(1.0, abs=1e-12)


def test_unstable_verdict_matches_escape():
    g = sg.bundled_game("coordination_2x2")
    cfg = sg.entropy_config(g, 0.1)
    eq = sg.find_smoothed_equilibrium(g, cfg)  # mixed center
    dyn_cfg = sg.DynamicsConfig(eta=0.1, response=cfg, horizon=200)
    verdict = sg.stability_verdict(g, dyn_cfg, eq)
    assert verdict.classification == "unstable"
    # tangent response Jacobian at the mixed center has real eigenvalues
    # +/- 1/(2 beta) = +/- 5, so the step map's radius is 0.9 + 0.1 * 5
    assert verdict.jacobian_spectral_radius == pytest.approx(1.4, abs=1e-12)
    rng = np.random.default_rng(0)
    x0 = sg.stability.perturb_strategy(eq.point, 1e-4, rng)
    traj = sg.run(g, dyn_cfg, x0, reference=eq)
    assert max(traj.distances) > 1e-2  # the perturbation escapes


def test_constant_game_contracts_at_rate_one_minus_eta():
    g = sg.NormalFormGame((np.full((2, 2), 1.0), np.full((2, 2), 2.0)))
    cfg = sg.entropy_config(g, 0.3)
    eq = sg.find_smoothed_equilibrium(g, cfg)
    dyn_cfg = sg.DynamicsConfig(eta=0.25, response=cfg, horizon=1)
    verdict = sg.stability_verdict(g, dyn_cfg, eq)
    assert verdict.jacobian_spectral_radius == pytest.approx(0.75, abs=1e-12)
    assert verdict.classification == "asymptotically_stable"


def test_contraction_inside_small_ball():
    # operator-norm rate exp(-eta/2) holds pointwise once the orbit is close
    g = pennies()
    cfg = sg.entropy_config(g, 0.1)
    eq = sg.find_smoothed_equilibrium(g, cfg)
    eta = sg.eta_threshold(g, cfg, eq)
    dyn_cfg = sg.DynamicsConfig(eta=eta, response=cfg, horizon=400)
    bound = np.exp(-eta / 2.0) * (1 + 1e-6)
    rng = np.random.default_rng(3)
    for _ in range(5):
        d = rng.standard_normal(4).reshape(2, 2)
        d -= d.mean(axis=1, keepdims=True)
        d = 0.01 * d / np.linalg.norm(d)
        x0 = sg.JointStrategy(tuple(b + db for b, db in
                                    zip(eq.point.blocks, d)))
        traj = sg.run(g, dyn_cfg, x0, reference=eq)
        ratios = traj.ratios()
        assert np.nanmax(ratios) <= bound


# ---------------------------------------------------------------------------
# Lipschitz measurement and learning-rate threshold

def test_pennies_lipschitz_is_one():
    g = pennies()
    for beta in (1.0, 0.1, 0.01):
        cfg = sg.entropy_config(g, beta)
        L = sg.measure_response_lipschitz(g, cfg, sg.uniform_strategy((2, 2)))
        assert L == pytest.approx(1.0, abs=1e-12)


def test_eta_threshold_constant_game_is_beta_squared():
    g = sg.NormalFormGame((np.full((2, 2), 1.0), np.full((2, 2), 2.0)))
    cfg = sg.entropy_config(g, 0.2)
    eq = sg.find_smoothed_equilibrium(g, cfg)
    assert sg.eta_threshold(g, cfg, eq) == pytest.approx(0.04, abs=1e-15)


def test_eta_threshold_pennies_frozen_value():
    g = pennies()
    cfg = sg.entropy_config(g, 0.1)
    eq = sg.find_smoothed_equilibrium(g, cfg)
    assert sg.eta_threshold(g, cfg, eq) == PENNIES_ETA_STAR


def test_eta_threshold_monotone_in_beta():
    g = pennies()
    values = []
    for beta in (0.05, 0.1, 0.2):
        cfg = sg.entropy_config(g, beta)
        eq = sg.find_smoothed_equilibrium(g, cfg)
        values.append(sg.eta_threshold(g, cfg, eq))
    assert values[0] < values[1] < values[2]


def test_eta_threshold_deterministic_in_seed():
    g = pennies()
    cfg = sg.entropy_config(g, 0.1)
    eq = sg.find_smoothed_equilibrium(g, cfg)
    a = sg.eta_threshold(g, cfg, eq, rng_seed=5)
    b = sg.eta_threshold(g, cfg, eq, rng_seed=5)
    assert a == b


@pytest.mark.parametrize("seed, shape", [(1, (3, 3, 3)), (2, (2, 3, 2)),
                                         (3, (4, 4))])
def test_threshold_and_verdict_share_one_linearization(seed, shape):
    # the verdict comes from the threshold batch's row 0, which is the
    # one-row response Jacobian stability_verdict takes, bit for bit
    rng = np.random.default_rng(seed)
    g = random_game(rng, shape)
    cfg = sg.SmoothedResponseConfig(
        beta=0.5, regularizers=quadratic_regularizers(rng, shape))
    eq = sg.find_smoothed_equilibrium(g, cfg)
    eta, verdict = sg.dynamics.threshold_and_verdict(g, cfg, eq, rng_seed=4)
    assert eta == sg.eta_threshold(g, cfg, eq, rng_seed=4)
    assert verdict == sg.stability_verdict(
        g, sg.DynamicsConfig(eta=eta, response=cfg, horizon=1), eq)


@pytest.mark.parametrize("kwargs", [
    {"num_samples": 2.5}, {"num_samples": -1}, {"num_samples": True},
    {"radius": np.nan}, {"radius": np.inf}, {"radius": -0.1},
    {"radius": 0.0}])
def test_eta_threshold_rejects_bad_sampling(kwargs):
    g = pennies()
    cfg = sg.entropy_config(g, 0.1)
    eq = sg.find_smoothed_equilibrium(g, cfg)
    with pytest.raises(ArgumentError, match=next(iter(kwargs))):
        sg.eta_threshold(g, cfg, eq, **kwargs)


def test_eta_threshold_that_overflows_is_a_domain_error():
    # beta^2 overflows a float, so the threshold has no finite value
    g = pennies()
    cfg = sg.entropy_config(g, 1e308)
    eq = sg.SmoothedEquilibrium(point=sg.uniform_strategy(g.shape),
                                beta=1e308, residual=0.0, nash_gap=0.0)
    with pytest.raises(DomainError, match="eta threshold overflows"):
        sg.eta_threshold(g, cfg, eq)


def test_eta_threshold_requires_an_equilibrium():
    g = pennies()
    with pytest.raises(ArgumentError, match="SmoothedEquilibrium"):
        sg.eta_threshold(g, sg.entropy_config(g, 0.1), None)


# ---------------------------------------------------------------------------
# strategic equivalence

def test_trajectories_invariant_under_payoff_offsets():
    rng = np.random.default_rng(17)
    shape = (2, 3, 2)
    g = random_game(rng, shape)
    shifted = sg.NormalFormGame(tuple(
        t + o for t, o in zip(g.payoffs, nonstrategic_offsets(rng, shape))))
    cfg = sg.entropy_config(g, 0.3)
    dyn_cfg = sg.DynamicsConfig(eta=0.1, response=cfg, horizon=50)
    x0 = random_interior(rng, shape)
    a = sg.run(g, dyn_cfg, x0)
    b = sg.run(shifted, dyn_cfg, x0)
    np.testing.assert_allclose(a.final_point.concatenated(),
                               b.final_point.concatenated(), atol=1e-10)
    for pa, pb in zip(a.points, b.points):
        np.testing.assert_allclose(pa.concatenated(), pb.concatenated(),
                                   atol=1e-10)


# ---------------------------------------------------------------------------
# sweeps

def test_sweep_layout_row_major():
    g = pennies()
    cells = sg.sweep(g, betas=(0.3, 0.1), etas=(0.01, 0.1),
                     regularizers=(sg.entropy(2), sg.entropy(2)), horizon=50)
    assert [c.beta for c in cells] == [0.3, 0.3, 0.1, 0.1]
    assert [c.eta for c in cells] == [0.01, 0.1, 0.01, 0.1]
    for cell in cells:
        assert cell.error is None
        assert cell.verdict is not None
        assert cell.final_distance == 0.0  # x0 = uniform is the fixed point


def test_sweep_records_solver_errors_per_beta():
    g = pennies()
    x0 = sg.JointStrategy((np.array([0.9, 0.1]), np.array([0.8, 0.2])))
    cells = sg.sweep(g, betas=(0.003,), etas=(0.01, 0.1),
                     regularizers=(sg.entropy(2), sg.entropy(2)),
                     x0=x0, horizon=20)
    assert len(cells) == 2
    for cell in cells:
        assert cell.equilibrium is None
        assert "CyclingError" in cell.error


def test_import_loads_no_process_pool():
    # neither the package nor a sweep, whatever its jobs, starts worker
    # processes; jobs changes no cell of an 80-cell grid
    pool_modules = ("concurrent.futures.process", "multiprocessing",
                    "logging", "socket", "subprocess")
    code = f"""
import sys
import numpy as np
import smoothgames as sg, smoothgames.cli
t = np.random.default_rng(11).normal(size=(3, 3))
g = sg.NormalFormGame((t, -t.T.copy() + 0.5 * t))
args = (g, (1.0, 0.7), np.linspace(0.02, 0.9, 40), (sg.entropy(3),) * 2)
cells = [sg.sweep(*args, horizon=50, jobs=jobs) for jobs in (1, 2)]
same = [repr(c) + c.equilibrium.point.concatenated().tobytes().hex()
        for c in cells[0]] == [
    repr(c) + c.equilibrium.point.concatenated().tobytes().hex()
    for c in cells[1]]
print(same, [m for m in {pool_modules!r} if m in sys.modules])
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "True []"


def fail_rows(monkeypatch, failing):
    """Make each ladder batch's respond fail as a failed Newton argmax
    does, naming its rows: the rows where ``failing(beta, eta)`` holds for
    the row's beta and eta when the batch is built (a walk's row has eta
    1.0 then), each with the error "inner solver went non-finite".
    Returns the list of the row sets failed, one per failed respond."""
    batch, respond = sg.response.Ladder._batch, sg.response.FlatKernel.respond
    failures = []

    def tagging(self, rung, x, X):
        kernel, X, eta = batch(self, rung, x, X)
        beta = np.broadcast_to(kernel.beta, eta.shape)
        kernel.failing = [r for r in range(len(X))
                          if failing(beta[r, 0], eta[r, 0])]
        return kernel, X, eta

    def failing_respond(self, X):
        rows = getattr(self, "failing", ())
        if not rows:
            return respond(self, X)
        failures.append(rows)
        raise sg.ConvergenceError(
            "inner solver went non-finite",
            rows={r: sg.ConvergenceError("inner solver went non-finite")
                  for r in rows})

    monkeypatch.setattr(sg.response.Ladder, "_batch", tagging)
    monkeypatch.setattr(sg.response.FlatKernel, "respond", failing_respond)
    return failures


def test_sweep_failing_run_fails_only_its_cell(monkeypatch):
    # a run whose row fails inside its beta's batch must not take the other
    # cells of the batch down with it
    failures = fail_rows(monkeypatch, lambda beta, eta: eta == 0.5)
    cells = sg.sweep(pennies(), betas=(0.3,), etas=(0.01, 0.5, 0.1),
                     regularizers=(sg.entropy(2), sg.entropy(2)), horizon=10)
    assert failures == [[1]]  # the three cells' batch, once
    assert [c.error is None for c in cells] == [True, False, True]
    assert cells[1].error.startswith("ConvergenceError: inner solver")
    assert cells[1].equilibrium is not None


def test_sweep_rejects_empty_grid():
    g = pennies()
    with pytest.raises(ArgumentError):
        sg.sweep(g, betas=(), etas=(0.1,),
                 regularizers=(sg.entropy(2), sg.entropy(2)))


def refuse_any_response(monkeypatch):
    # every solve, the ladder's walk included, starts with a response
    def respond(self, X):
        raise AssertionError("solve entered")

    monkeypatch.setattr(sg.response.FlatKernel, "respond", respond)


@pytest.mark.parametrize("jobs", ["2", None, 0, -1, 1.5, True])
def test_sweep_rejects_bad_jobs_before_any_solve(monkeypatch, jobs):
    refuse_any_response(monkeypatch)
    with pytest.raises(ArgumentError, match="jobs"):
        sg.sweep(pennies(), betas=(0.3,), etas=(0.1,),
                 regularizers=(sg.entropy(2), sg.entropy(2)), jobs=jobs)


@pytest.mark.parametrize("kwargs, error", [
    ({"horizon": 0}, ArgumentError), ({"horizon": True}, ArgumentError),
    ({"horizon": 2.5}, ArgumentError), ({"outer_tol": np.inf}, ArgumentError),
    ({"outer_tol": True}, ArgumentError), ({"outer_tol": 0.0}, ArgumentError),
    ({"regularizers": (sg.entropy(2), sg.entropy(3))}, DimensionError),
    ({"x0": sg.uniform_strategy((2, 3))}, DimensionError)])
def test_sweep_rejects_bad_grid_wide_arguments_before_any_solve(
        monkeypatch, kwargs, error):
    refuse_any_response(monkeypatch)
    arguments = {"regularizers": (sg.entropy(2), sg.entropy(2)), **kwargs}
    with pytest.raises(error):
        sg.sweep(pennies(), betas=(0.3,), etas=(0.1,), **arguments)


def test_sweep_keeps_a_bad_beta_or_eta_as_a_cell_error():
    cells = sg.sweep(pennies(), betas=(0.3, -1.0), etas=(0.1, 2.0),
                     regularizers=(sg.entropy(2), sg.entropy(2)), horizon=5)
    errors = [(cell.beta, cell.eta) for cell in cells if cell.error]
    assert errors == [(0.3, 2.0), (-1.0, 0.1), (-1.0, 2.0)]


def cell_bits(cell):
    """Everything a sweep cell holds, its equilibrium to the last bit."""
    verdict = cell.verdict and (cell.verdict.jacobian_spectral_radius,
                                cell.verdict.jacobian_operator_norm,
                                cell.verdict.classification)
    point = cell.equilibrium and cell.equilibrium.point.concatenated()
    return (cell.beta, cell.eta, cell.error, cell.final_distance, verdict,
            None if point is None else point.tobytes())


def assert_cells_match_runs(g, cells, regs, x0, horizon, exact=False):
    # every cell that ran agrees with its own run, and with its verdict bit
    # for bit; exact asks for the run's last distance bit for bit
    for cell in cells:
        if cell.error is not None:
            continue
        dyn_cfg = sg.DynamicsConfig(
            eta=cell.eta, horizon=horizon, record_every=horizon,
            response=sg.SmoothedResponseConfig(beta=cell.beta,
                                               regularizers=regs))
        traj = sg.run_many(g, dyn_cfg, [x0], reference=cell.equilibrium)[0]
        assert cell.final_distance == (
            traj.distances[-1] if exact
            else pytest.approx(traj.distances[-1], rel=0, abs=1e-12))
        verdict = sg.stability_verdict(g, dyn_cfg, cell.equilibrium)
        assert cell.verdict.classification == verdict.classification
        assert cell.verdict.jacobian_spectral_radius == \
            verdict.jacobian_spectral_radius
        assert cell.verdict.jacobian_operator_norm == \
            verdict.jacobian_operator_norm


def test_sweep_grid_with_failed_beta_row_matches_per_beta_runs():
    # the drop to beta = 0.003 starts orbiting; the other rows share the
    # grid's dynamics batch and must agree with runs of their own
    rng = np.random.default_rng(0)
    t1 = rng.normal(size=(3, 3))
    g = sg.NormalFormGame((t1, -t1.copy()))
    regs = (sg.entropy(3), sg.entropy(3))
    betas, etas = (0.5, 0.003, 1.0, 0.3), (0.01, 0.1, 0.3)
    cells = sg.sweep(g, betas, etas, regs, horizon=200)
    assert [(c.beta, c.eta) for c in cells] == \
        [(b, e) for b in betas for e in etas]
    for cell in cells:
        if cell.beta == 0.003:
            assert cell.error.startswith("CyclingError: ")
            assert cell.equilibrium is None and cell.verdict is None
        else:
            assert cell.error is None
    assert_cells_match_runs(g, cells, regs, sg.uniform_strategy(g.shape),
                            200, exact=True)
    # from the uniform point, six of example_A's rows are fixed from the
    # first step and three move away, so their shared batch never stops
    g = sg.bundled_game("example_A")
    cells = sg.sweep(g, (0.3, 0.1, 0.03), (0.001, 0.01, 0.1), regs,
                     horizon=500)
    distances = [cell.final_distance for cell in cells]
    assert distances.count(0.0) == 6 and all(d > 0.5 for d in distances
                                             if d != 0.0)
    assert_cells_match_runs(g, cells, regs, sg.uniform_strategy(g.shape),
                            500, exact=True)


def test_sweep_failing_jacobian_fails_only_its_beta(monkeypatch):
    # the verdicts' Jacobians are taken in one batch over the solved betas;
    # one failing beta must not take the others down with it
    tangent_jacobians = sg.response.FlatKernel.tangent_jacobians

    def failing_at_tenth(self, X):
        if np.any(np.asarray(self.beta) == 0.1):
            raise sg.ConvergenceError("inner solver went non-finite")
        return tangent_jacobians(self, X)

    monkeypatch.setattr(sg.response.FlatKernel, "tangent_jacobians",
                        failing_at_tenth)
    cells = sg.sweep(pennies(), betas=(0.3, 0.1), etas=(0.01, 0.1),
                     regularizers=(sg.entropy(2), sg.entropy(2)), horizon=10)
    assert [c.error is None for c in cells] == [True, True, False, False]
    for cell in cells[2:]:
        assert cell.error.startswith("ConvergenceError: inner solver")
        assert cell.equilibrium is not None and cell.verdict is None


def test_sweep_beta_too_small_to_divide_by_fails_only_its_cells():
    # the uniform point solves pennies at beta = 1e-320, but 1/beta
    # overflows in its response Jacobian: its cells get a DomainError, and
    # the cells of beta = 0.3 their verdicts
    g = pennies()
    regs = (sg.entropy(2), sg.entropy(2))
    cells = sg.sweep(g, (0.3, 1e-320), (0.1,), regs, horizon=10)
    good, tiny = cells
    assert good.error is None
    assert good.verdict == sg.stability_verdict(
        g, sg.DynamicsConfig(eta=0.1, response=sg.entropy_config(g, 0.3),
                             horizon=10), good.equilibrium)
    assert tiny.error.startswith(
        "DomainError: the response Jacobian is not finite at beta=")
    assert tiny.equilibrium is not None and tiny.verdict is None
    assert tiny.final_distance is None
    with pytest.raises(DomainError):
        sg.stability_verdict(g, sg.DynamicsConfig(
            eta=0.1, response=sg.entropy_config(g, 1e-320), horizon=10),
            tiny.equilibrium)


def test_sweep_quadratic_entropy_rows_match_per_beta_runs():
    # rows at two betas share one Newton argmax batch through the beta
    # column
    rng = np.random.default_rng(5)
    g = random_game(rng, (3, 2), scale=0.5)
    regs = quadratic_regularizers(rng, (3, 2))
    x0 = random_interior(rng, (3, 2))
    cells = sg.sweep(g, (0.5, 0.2), (0.05, 0.3), regs, x0=x0, horizon=100)
    assert all(c.error is None for c in cells)
    assert_cells_match_runs(g, cells, regs, x0, 100)


def test_sweep_matches_per_beta_solves_and_single_runs():
    # the ladder batch steps each beta's walk beside the cells of the betas
    # solved before it; no row's bits depend on its batch, so each cell's
    # equilibrium is the walk's alone down the same ladder, and an entropy
    # cell's final distance is its run's alone, bit for bit (a rebuilt
    # batch restarts the Newton warm starts of a quadratic-entropy walk,
    # which on these games changes no equilibrium)
    failed = set()
    bounded = 0
    for seed in range(8):
        rng = np.random.default_rng([21, seed])
        shape = ((3, 3), (4, 4), (3, 3, 3), (3, 3, 3))[seed % 4]
        g = random_game(rng, shape)
        kind = "quadratic" if seed % 2 else "entropy"
        regs = (quadratic_regularizers(rng, shape) if kind == "quadratic"
                else tuple(sg.entropy(k) for k in shape))
        betas, etas, horizon = (0.3, 0.1, 0.03), (0.01, 0.1, 0.5), 200
        x0 = sg.uniform_strategy(shape)
        cells = sg.sweep(g, betas, etas, regs, horizon=horizon)

        warm, solved, errors = x0, {}, {}
        for beta in betas:
            cfg = sg.SmoothedResponseConfig(beta=beta, regularizers=regs)
            try:
                solved[beta] = sg.find_smoothed_equilibrium(g, cfg, warm)
                warm = solved[beta].point
            except sg.GameError as err:
                errors[beta] = f"{type(err).__name__}: {err}"
                failed.add((kind, len(shape)))
        assert [(c.beta, c.eta) for c in cells] == \
            [(b, e) for b in betas for e in etas]
        for cell in cells:
            if cell.beta in errors:
                assert cell.error == errors[cell.beta]
                assert cell.equilibrium is None and cell.verdict is None
                continue
            eq = solved[cell.beta]
            assert cell.error is None
            assert cell.equilibrium.point.concatenated().tobytes() == \
                eq.point.concatenated().tobytes()
            dyn_cfg = sg.DynamicsConfig(
                eta=cell.eta, horizon=horizon, record_every=horizon,
                response=sg.SmoothedResponseConfig(beta=cell.beta,
                                                   regularizers=regs))
            distances = sg.run_many(g, dyn_cfg, [x0],
                                    reference=eq)[0].distances
            verdict = sg.stability_verdict(g, dyn_cfg, eq)
            assert cell.verdict.classification == verdict.classification
            assert cell.verdict.jacobian_spectral_radius == pytest.approx(
                verdict.jacobian_spectral_radius, rel=0, abs=1e-12)
            if kind == "entropy":
                assert cell.final_distance == distances[-1]
            # a quadratic-entropy cell's Newton warm starts restart when a
            # sweep batch is rebuilt, so its argmax solves to 1e-12 from
            # other starts than its run alone; those last-digit differences
            # stay last-digit on a run that approaches its equilibrium, and
            # a run that ends farther out than it started may amplify them
            if distances[-1] <= distances[0]:
                bounded += 1
                assert abs(cell.final_distance - distances[-1]) <= \
                    1e-6 * distances[-1] + 1e-11
            else:
                assert np.isfinite(cell.final_distance)
    # failed betas on both regularizer kinds, two and three players
    assert failed == {("entropy", 2), ("entropy", 3), ("quadratic", 2),
                      ("quadratic", 3)}
    # of the 48 cells that ran
    assert bounded >= 40


@pytest.mark.parametrize("seed, shape, betas, etas, horizon, exact", [
    (11, (3, 3), (1.0, 0.7, 0.5), tuple(np.linspace(0.02, 0.9, 40)), 200,
     True),
    # 5 x 4 payoffs: matrix products of one row round differently from
    # those of several
    (8, (5, 4), (1.0, 0.8, 0.6, 0.5, 0.4), tuple(np.linspace(0.02, 0.6, 14)),
     30, False)], ids=["3x40", "5x14"])
def test_sweep_grid_wider_than_a_batch_matches_per_beta_runs(
        monkeypatch, seed, shape, betas, etas, horizon, exact):
    # every solved beta's cells join the ladder batch at once, however
    # many rows it then holds; each cell agrees with the walk run alone
    # down the same ladder and with a run of its own
    rng = np.random.default_rng(seed)
    g = random_game(rng, shape, scale=0.5)
    regs = tuple(sg.entropy(k) for k in shape)
    respond = sg.response.FlatKernel.respond
    widest = [0]

    def counting(self, X):
        widest[0] = max(widest[0], len(X))
        return respond(self, X)

    monkeypatch.setattr(sg.response.FlatKernel, "respond", counting)
    cells = sg.sweep(g, betas, etas, regs, horizon=horizon)
    monkeypatch.undo()
    assert widest[0] > len(etas)
    if exact:
        # the three betas' 120 cells run side by side, with no row cap
        assert widest[0] > 64
    x0 = sg.uniform_strategy(shape)
    warm = x0
    for beta, row in zip(betas, np.reshape(cells, (len(betas), -1))):
        cfg = sg.SmoothedResponseConfig(beta=beta, regularizers=regs)
        eq = sg.find_smoothed_equilibrium(g, cfg, warm)
        warm = eq.point
        for cell in row:
            assert (cell.beta, cell.error) == (beta, None)
            assert np.abs(cell.equilibrium.point.concatenated()
                          - eq.point.concatenated()).max() <= 1e-12
    assert_cells_match_runs(g, cells, regs, x0, horizon, exact=exact)


@pytest.mark.parametrize("seed", range(6))
def test_lone_row_ladder_batches_match_walks_and_runs_alone(monkeypatch,
                                                            seed):
    # a lone walk at a beta other than the base kernel's, and a lone cell,
    # step as one-row batches at a beta column; each cell's equilibrium is
    # the walk's down the same ladder, and its final distance its run's
    # alone, bit for bit
    rng = np.random.default_rng(seed)
    g = random_game(rng, (3, 3), scale=0.5)
    regs = (sg.entropy(3), sg.entropy(3))
    betas, horizon = (0.9, 0.7, 0.5), 60
    batch = sg.response.Ladder._batch
    lone = set()

    def recording(self, rung, x, X):
        kernel, X, eta = batch(self, rung, x, X)
        if len(X) == 1:
            assert np.shape(kernel.beta) == eta.shape == (1, 1)
            lone.add("walk" if rung is not None else "cell")
        return kernel, X, eta

    monkeypatch.setattr(sg.response.Ladder, "_batch", recording)
    cells = sg.sweep(g, betas, (0.2,), regs, horizon=horizon)
    monkeypatch.undo()
    assert lone == {"walk", "cell"}
    x0 = sg.uniform_strategy(g.shape)
    warm = x0
    for beta, cell in zip(betas, cells):
        cfg = sg.SmoothedResponseConfig(beta=beta, regularizers=regs)
        eq = sg.find_smoothed_equilibrium(g, cfg, warm)
        warm = eq.point
        assert (cell.beta, cell.error) == (beta, None)
        assert cell.equilibrium.point.concatenated().tobytes() == \
            eq.point.concatenated().tobytes()
    assert_cells_match_runs(g, cells, regs, x0, horizon, exact=True)


def test_sweep_failing_rows_leave_their_batch(monkeypatch):
    # rows that fail in the shared batch get their own errors and leave it:
    # the walk and the other cells step the same point again without them,
    # and only that eta's cells fail
    rng = np.random.default_rng(11)
    g = random_game(rng, (3, 3), scale=0.5)
    regs = (sg.entropy(3), sg.entropy(3))
    betas, etas = (1.0, 0.7), tuple(np.linspace(0.01, 0.7, 70))
    failures = fail_rows(monkeypatch, lambda beta, eta: eta == etas[40])
    cells = sg.sweep(g, betas, etas, regs, horizon=30)
    monkeypatch.undo()
    # the first beta's cells join the second rung's walk, and their row of
    # etas[40] fails there; the second beta's cells join the 69 left, and
    # their row of etas[40] fails then
    assert failures == [[41], [69 + 40]]
    assert [(c.beta, c.eta) for c in cells if c.error] == \
        [(beta, etas[40]) for beta in betas]
    for cell in cells:
        if cell.error:
            assert cell.error.startswith("ConvergenceError: inner solver")
            assert cell.equilibrium is not None and cell.verdict is None
    # the walk stepped on in the rebuilt batch, down the same ladder
    eq = sg.find_smoothed_equilibrium(
        g, sg.SmoothedResponseConfig(beta=0.7, regularizers=regs),
        cells[0].equilibrium.point)
    assert np.abs(cells[-1].equilibrium.point.concatenated()
                  - eq.point.concatenated()).max() <= 1e-12
    assert_cells_match_runs(g, cells, regs, sg.uniform_strategy(g.shape), 30)


def test_real_failing_sweep_fails_each_row_in_its_own_batch(monkeypatch):
    # with the Newton argmax capped at 6 iterations, every beta's walk
    # solves, but a cell row that starts cold in a rebuilt batch runs to
    # the cap: each such cell fails with the error its kernel named for its
    # row, the other rows step on in the same batch, and no ladder is built
    # to run a row again
    rng = np.random.default_rng(188)
    g = random_game(rng, (3, 3), scale=3000)
    regs = quadratic_regularizers(rng, (3, 3))
    betas = tuple(3000 * b for b in (0.3, 0.1, 0.03, 0.01, 0.003))
    init, respond = sg.response.Ladder.__init__, sg.response.FlatKernel.respond
    ladders, named = [], []

    @dataclasses.dataclass(frozen=True)
    class Capped(sg.SmoothedResponseConfig):
        inner_max_iter: int = 6

    def counting(self, *args, **kwargs):
        ladders.append(self)
        init(self, *args, **kwargs)

    def recording(self, X):
        try:
            return respond(self, X)
        except sg.ConvergenceError as batch:
            named.extend(f"ConvergenceError: {err}"
                         for err in batch.rows.values())
            raise

    monkeypatch.setattr(sg.dynamics, "SmoothedResponseConfig", Capped)
    monkeypatch.setattr(sg.response.Ladder, "__init__", counting)
    monkeypatch.setattr(sg.response.FlatKernel, "respond", recording)
    cells = sg.sweep(g, betas, (0.05, 0.5, 0.9), regs, horizon=100)
    monkeypatch.undo()
    assert len(ladders) == 1
    assert all(c.equilibrium is not None for c in cells)  # every beta solved
    failed = [c.error for c in cells if c.error]
    assert failed and sorted(failed) == sorted(named)
    assert all(e.startswith("ConvergenceError: inner solver hit 6 "
                            "iterations") for e in failed)
    x0 = sg.uniform_strategy(g.shape)
    for cell in cells:
        if cell.error:
            continue
        dyn_cfg = sg.DynamicsConfig(
            eta=cell.eta, horizon=100, record_every=100,
            response=sg.SmoothedResponseConfig(beta=cell.beta,
                                               regularizers=regs))
        assert cell.verdict == sg.stability_verdict(g, dyn_cfg,
                                                    cell.equilibrium)
        traj = sg.run_many(g, dyn_cfg, [x0], reference=cell.equilibrium)[0]
        assert cell.final_distance == pytest.approx(traj.distances[-1],
                                                    rel=0, abs=1e-12)


def test_sweep_is_invariant_to_payoff_scale():
    # scaling every payoff and beta by s > 0 changes no response, and the
    # Newton argmax stops in the payoffs' own units: the seed-188 sweep
    # runs every cell at each scale, with scale 1's verdicts and, to
    # rounding (1.7e-16 measured), its equilibria and final distances
    sweeps = []
    for scale in (1.0, 3000.0, 1e8):
        rng = np.random.default_rng(188)
        g = random_game(rng, (3, 3), scale=scale)
        regs = quadratic_regularizers(rng, (3, 3))
        betas = tuple(scale * b for b in (0.3, 0.1, 0.03, 0.01, 0.003))
        cells = sg.sweep(g, betas, (0.05, 0.5, 0.9), regs, horizon=100)
        assert len(cells) == 15 and not any(c.error for c in cells)
        sweeps.append(cells)
    for cells in sweeps[1:]:
        for cell, unit in zip(cells, sweeps[0]):
            assert cell.verdict.classification == unit.verdict.classification
            np.testing.assert_allclose(
                cell.equilibrium.point.concatenated(),
                unit.equilibrium.point.concatenated(), rtol=0, atol=1e-12)
            assert cell.final_distance == pytest.approx(
                unit.final_distance, rel=0, abs=1e-12)


def test_sweep_bad_betas_leave_the_ladder_of_the_others_alone():
    # bad betas are set aside before the ladder is ordered: a NaN has no
    # place in a decreasing order, and sorting one with the others can
    # put them out of order, changing their warm starts
    g = sg.bundled_game("coordination_2x2")
    x0 = sg.JointStrategy((np.array([0.7, 0.3]), np.array([0.35, 0.65])))
    kwargs = dict(etas=(0.01, 0.1), regularizers=(sg.entropy(2),) * 2,
                  x0=x0, horizon=50)
    clean = sg.sweep(g, (0.1, 0.3, 0.03), **kwargs)
    noisy = sg.sweep(g, (0.1, np.nan, 0.3, 0.03, -1.0), **kwargs)
    assert all(c.error and c.equilibrium is None for c in noisy
               if not c.beta > 0)
    kept = [c for c in noisy if c.beta > 0]
    assert [cell_bits(c) for c in kept] == [cell_bits(c) for c in clean]


def test_sweep_failing_walk_fails_only_its_beta(monkeypatch):
    # the walk at beta = 0.2 shares its Newton argmax with the cells of
    # beta = 0.5; when the argmax fails on the walk's row, the rung gets
    # that row's error, and the cells of the other betas still run
    rng = np.random.default_rng(5)
    g = random_game(rng, (3, 2), scale=0.5)
    regs = quadratic_regularizers(rng, (3, 2))
    respond = sg.response._NewtonGroup.respond

    def failing_at(self, G, beta, cfg):
        rows = np.flatnonzero(np.broadcast_to(beta, (len(G), 1))[:, 0] == 0.2)
        if not len(rows):
            return respond(self, G, beta, cfg)
        raise sg.ConvergenceError(
            "inner solver went non-finite in a batch",
            rows={int(r): sg.ConvergenceError(
                "inner solver went non-finite at beta 0.2") for r in rows})

    monkeypatch.setattr(sg.response._NewtonGroup, "respond", failing_at)
    betas, etas = (0.5, 0.2, 0.1), (0.05, 0.3)
    cells = sg.sweep(g, betas, etas, regs, horizon=50)
    assert [c.error is None for c in cells] == [True, True, False, False,
                                                True, True]
    for cell in cells[2:4]:
        assert cell.error == ("ConvergenceError: inner solver went "
                              "non-finite at beta 0.2")
        assert cell.equilibrium is None and cell.verdict is None
    # the next rung starts from the last equilibrium solved
    cfg = sg.SmoothedResponseConfig(beta=0.1, regularizers=regs)
    eq = sg.find_smoothed_equilibrium(
        g, cfg, sg.find_smoothed_equilibrium(
            g, dataclasses.replace(cfg, beta=0.5)).point)
    assert np.abs(cells[4].equilibrium.point.concatenated()
                  - eq.point.concatenated()).max() <= 1e-12
    assert_cells_match_runs(g, cells, regs, sg.uniform_strategy(g.shape), 50)


@pytest.mark.parametrize("shape", [(4, 3), (3, 2, 3)])
@pytest.mark.parametrize("kind", ["entropy", "quadratic"])
def test_kernel_beta_column_matches_scalar_beta(shape, kind):
    # row i of a batch at a beta column is row i of the same batch at the
    # scalar beta[i], to the last bit
    rng = np.random.default_rng(3)
    g = random_game(rng, shape)
    regs = (quadratic_regularizers(rng, shape) if kind == "quadratic"
            else tuple(sg.entropy(k) for k in shape))
    cfg = sg.SmoothedResponseConfig(beta=1.0, regularizers=regs)
    betas = np.array([[0.7], [0.05], [0.3], [2.0]])
    X = np.stack([random_interior(rng, shape).concatenated()
                  for _ in betas])
    column = sg.response.FlatKernel(g, cfg, beta=betas)
    Y, J = column.respond(X), column.jacobian(X)
    for i, beta in enumerate(betas[:, 0]):
        scalar = sg.response.FlatKernel(
            g, dataclasses.replace(cfg, beta=float(beta)))
        np.testing.assert_array_equal(Y[i], scalar.respond(X)[i])
        np.testing.assert_array_equal(J[i], scalar.jacobian(X)[i])
        # one row at a (1, 1) beta and eta column is the row at the
        # scalars, byte for byte
        row = X[i:i + 1]
        alone = sg.response.FlatKernel(g, cfg, beta=betas[i:i + 1])
        y = alone.respond(row)
        assert y.tobytes() == scalar.respond(row).tobytes()
        assert alone.jacobian(row).tobytes() == \
            scalar.jacobian(row).tobytes()
        assert alone.mix(row, y, np.array([[0.3]])).tobytes() == \
            scalar.mix(row, y, 0.3).tobytes()
    assert sg.response.FlatKernel(g, cfg).beta == 1.0
    with pytest.raises(ArgumentError):
        sg.response.FlatKernel(g, cfg, beta=np.array([[0.5], [0.0]]))


# ---------------------------------------------------------------------------
# CSV export

def test_trajectory_csv_round_trip(tmp_path):
    g, cfg = dyn(0.1, 0.05, 20, record_every=5)
    eq = sg.find_smoothed_equilibrium(g, cfg.response)
    x0 = sg.JointStrategy((np.array([0.6, 0.4]), np.array([0.45, 0.55])))
    traj = sg.run(g, cfg, x0, reference=eq)
    verdict = sg.stability_verdict(g, cfg, eq)
    path = tmp_path / "traj.csv"
    sg.trajectory_to_csv(traj, path, verdict=verdict)
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["t", "p0_0", "p0_1", "p1_0", "p1_1",
                       "distance", "spectral_radius", "classification"]
    assert len(rows) == 1 + len(traj.points)
    # %.17g column values parse back to the exact doubles
    for row, point in zip(rows[1:], traj.points):
        t = int(row[0])
        assert [float(v) for v in row[1:5]] == list(point.concatenated())
        assert float(row[5]) == traj.distances[t]
    assert rows[1][7] == verdict.classification


@pytest.mark.parametrize("probe", ["no points", "not a strategy",
                                   "two shapes"])
def test_hand_built_trajectory_csv_fails_with_a_game_error(probe):
    # an empty trajectory, a point that is no strategy and points of shapes
    # (2, 2) and (3, 2) raised ValueError, AttributeError and ValueError
    g, cfg = dyn(0.2, 0.1, 4)
    x = sg.uniform_strategy((2, 2))
    points = {"no points": (),
              "not a strategy": (x, np.array([0.5, 0.5, 0.5, 0.5])),
              "two shapes": (x, sg.uniform_strategy((3, 2)))}[probe]
    traj = Trajectory(config=cfg, points=points, final_point=x)
    with pytest.raises(DimensionError, match="trajectory"):
        sg.trajectory_to_csv(traj, io.StringIO())


def test_hand_built_trajectory_distances_fail_with_a_game_error():
    g, cfg = dyn(0.2, 0.1, 4)
    x = sg.uniform_strategy((2, 2))
    short = Trajectory(config=cfg, points=(x, x), final_point=x,
                       distances=(0.1,))
    with pytest.raises(DimensionError, match="distances"):
        sg.trajectory_to_csv(short, io.StringIO())
    with pytest.raises(DimensionError, match="distances"):
        dataclasses.replace(short, distances=()).ratios()
    with pytest.raises(ArgumentError, match="distances"):
        dataclasses.replace(short, distances=(0.1, np.nan)).ratios()
    with pytest.raises(ArgumentError, match="distances"):
        dataclasses.replace(short, distances=("near", "far")).ratios()


PROBES = ["verdict nan beta", "threshold no point", "reference nan residual",
          "cell string equilibrium", "cell verdict 3", "cells of two shapes",
          "empty trace", "trace of None"]


@pytest.mark.parametrize("probe", PROBES)
def test_hand_built_equilibrium_records_fail_with_a_game_error(probe):
    # a NaN beta read as a stable verdict, a missing point and non-record
    # cell fields raised AttributeError, a (3, 3) cell was written under
    # the (2, 2) header, and an empty trace raised IndexError; now each
    # reader raises a GameError naming the parameter it was given
    g, cfg = dyn(0.2, 0.1, 4)
    eq = sg.find_smoothed_equilibrium(g, cfg.response)
    cell = sg.sweep(g, (0.2,), (0.1,), cfg.response.regularizers,
                    horizon=4)[0]
    wide = sg.bundled_game("example_A")
    wide_eq = sg.find_smoothed_equilibrium(wide, sg.entropy_config(wide, 1.0))
    calls = {
        "verdict nan beta": (lambda: sg.stability_verdict(
            g, cfg, dataclasses.replace(eq, beta=np.nan)), r"eq\.beta"),
        "threshold no point": (lambda: sg.eta_threshold(
            g, cfg.response, dataclasses.replace(eq, point=None)),
            r"eq\.point"),
        "reference nan residual": (lambda: sg.run(
            g, cfg, eq.point, dataclasses.replace(eq, residual=np.nan)),
            r"reference\.residual"),
        "cell string equilibrium": (lambda: sg.sweep_to_csv(
            [dataclasses.replace(cell, equilibrium="a")], io.StringIO()),
            r"cells\[0\]\.equilibrium"),
        "cell verdict 3": (lambda: sg.sweep_to_csv(
            [dataclasses.replace(cell, verdict=3)], io.StringIO()),
            r"cells\[0\]\.verdict"),
        "cells of two shapes": (lambda: sg.sweep_to_csv(
            [cell, dataclasses.replace(cell, equilibrium=wide_eq)],
            io.StringIO()), r"cells\[1\]\.equilibrium\.point"),
        "empty trace": (lambda: trace_to_csv([], io.StringIO()), "trace"),
        "trace of None": (lambda: trace_to_csv([None], io.StringIO()),
                          r"trace\[0\]")}
    call, blamed = calls[probe]
    with pytest.raises(sg.GameError, match=blamed):
        call()
    # the records as the package built them are read as before
    sg.stability_verdict(g, cfg, eq)
    sg.sweep_to_csv([cell], io.StringIO())
    trace_to_csv([eq], io.StringIO())


def per_point_csv(trajectory, verdict):
    """The CSV text of a trajectory, one ``concatenated()`` point and one
    cell formula call per entry at a time."""
    def cell(value):
        if value is None:
            return ""
        return value if isinstance(value, str) else format(float(value),
                                                           ".17g")

    rec, dists = trajectory.config.record_every, trajectory.distances
    handle = io.StringIO()
    writer = csv.writer(handle)
    writer.writerow(["t"] + [f"p{n}_{i}" for n, k_n in enumerate(
        trajectory.points[0].shape) for i in range(k_n)]
        + ["distance", "spectral_radius", "classification"])
    for idx, point in enumerate(trajectory.points):
        writer.writerow([cell(v) for v in (
            str(idx * rec), *point.concatenated(),
            dists[idx * rec] if dists is not None else None,
            verdict.jacobian_spectral_radius if verdict else None,
            verdict.classification if verdict else None)])
    return handle.getvalue()


@pytest.mark.parametrize("case", ["entropy", "quadratic_entropy", "fixed",
                                  "batch"])
@pytest.mark.parametrize("record_every", [1, 3])
def test_trajectory_csv_bytes_match_the_per_point_formula(case,
                                                          record_every):
    rng = np.random.default_rng(17)
    shape = (2, 2) if case == "fixed" else (3, 2, 2)
    if case == "fixed":  # pennies from its equilibrium, fixed at once
        g = pennies()
        regs = (sg.entropy(2), sg.entropy(2))
        starts = [sg.uniform_strategy(shape)]
    else:
        g = random_game(rng, shape, scale=0.3)
        regs = (quadratic_regularizers(rng, shape)
                if case == "quadratic_entropy"
                else tuple(sg.entropy(k) for k in shape))
        starts = [random_interior(rng, shape)
                  for _ in range(4 if case == "batch" else 1)]
    response = sg.SmoothedResponseConfig(beta=0.4, regularizers=regs)
    cfg = sg.DynamicsConfig(eta=0.2, response=response, horizon=40,
                            record_every=record_every)
    eq = sg.find_smoothed_equilibrium(g, response)
    verdict = sg.stability_verdict(g, cfg, eq)
    for traj in sg.run_many(g, cfg, starts, reference=eq):
        for shown in (None, verdict):
            handle = io.StringIO()
            sg.trajectory_to_csv(traj, handle, verdict=shown)
            assert handle.getvalue() == per_point_csv(traj, shown)
    if case == "fixed":
        assert traj.points[-1] is traj.final_point
    # a trajectory run without a reference leaves the distances empty
    traj = sg.run(g, cfg, starts[0])
    handle = io.StringIO()
    sg.trajectory_to_csv(traj, handle)
    assert handle.getvalue() == per_point_csv(traj, None)


def test_recorded_points_are_read_only_views_of_one_stack():
    # a run's points and finals are views of one read-only copy of its
    # recorded states, shared by every run of the batch
    g, cfg = dyn(0.2, 0.1, 10, record_every=3)
    starts = [sg.JointStrategy((np.array([0.6, 0.4]), np.array([0.5, 0.5]))),
              sg.JointStrategy((np.array([0.1, 0.9]), np.array([0.7, 0.3])))]
    trajs = sg.run_many(g, cfg, starts)
    base = trajs[0].points[0].blocks[0].base
    for traj in trajs:
        assert len(traj.points) == 4
        for point in traj.points + (traj.final_point,):
            for block in point.blocks:
                assert block.base is base
                with pytest.raises(ValueError, match="read-only"):
                    block[0] = np.nan
    assert trajs[1].points[0].concatenated().tolist() == [0.1, 0.9, 0.7, 0.3]


def test_sweep_csv_includes_error_column(tmp_path):
    # warm continuation handles 0.3 but the drop to 0.003 starts orbiting
    rng = np.random.default_rng(0)
    t1 = rng.normal(size=(3, 3))
    g = sg.NormalFormGame((t1, -t1.copy()))
    cells = sg.sweep(g, betas=(0.3, 0.003), etas=(0.01,),
                     regularizers=(sg.entropy(3), sg.entropy(3)),
                     horizon=20)
    path = tmp_path / "sweep.csv"
    sg.sweep_to_csv(cells, path)
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0][-1] == "error"
    ok_row, bad_row = rows[1], rows[2]
    assert ok_row[-1] == ""
    assert "CyclingError" in bad_row[-1]
    assert float(ok_row[0]) == 0.3
