import csv

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import smoothgames as sg
from smoothgames.errors import ArgumentError, DimensionError

from conftest import nonstrategic_offsets, random_game, random_interior

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


def test_sweep_parallel_matches_serial():
    g = sg.bundled_game("coordination_2x2")
    kwargs = dict(betas=(0.3, 0.1), etas=(0.01, 0.1),
                  regularizers=(sg.entropy(2), sg.entropy(2)), horizon=100)
    serial = sg.sweep(g, jobs=1, **kwargs)
    parallel = sg.sweep(g, jobs=2, **kwargs)
    assert len(serial) == len(parallel)
    for a, b in zip(serial, parallel):
        assert (a.beta, a.eta) == (b.beta, b.eta)
        assert a.final_distance == b.final_distance
        assert a.verdict.jacobian_spectral_radius == \
            b.verdict.jacobian_spectral_radius


def test_sweep_batches_do_not_depend_on_jobs():
    # each beta's eta cells run as one batch in both modes, so even the
    # row-count-dependent rounding of matrix products is the same
    rng = np.random.default_rng(4)
    g = random_game(rng, (4, 3), scale=0.5)
    kwargs = dict(betas=(1.0, 0.5, 0.3), etas=(0.05, 0.2, 0.5),
                  regularizers=(sg.entropy(4), sg.entropy(3)), horizon=100)
    serial = sg.sweep(g, jobs=1, **kwargs)
    parallel = sg.sweep(g, jobs=2, **kwargs)
    assert len(serial) == len(parallel) == 9
    for a, b in zip(serial, parallel):
        assert a.error is None and b.error is None
        assert (a.beta, a.eta) == (b.beta, b.eta)
        assert a.final_distance == b.final_distance
        assert (a.verdict.jacobian_spectral_radius,
                a.verdict.jacobian_operator_norm,
                a.verdict.classification) == \
            (b.verdict.jacobian_spectral_radius,
             b.verdict.jacobian_operator_norm, b.verdict.classification)
        np.testing.assert_array_equal(a.equilibrium.point.concatenated(),
                                      b.equilibrium.point.concatenated())


def test_sweep_failing_run_fails_only_its_cell(monkeypatch):
    # a run that raises inside its beta's batch must not take the other
    # cells of the batch down with it
    advance = sg.response.FlatKernel.advance

    def failing_at_half(self, X, eta):
        if np.any(eta == 0.5):
            raise sg.ConvergenceError("inner solver went non-finite")
        return advance(self, X, eta)

    monkeypatch.setattr(sg.response.FlatKernel, "advance", failing_at_half)
    cells = sg.sweep(pennies(), betas=(0.3,), etas=(0.01, 0.5, 0.1),
                     regularizers=(sg.entropy(2), sg.entropy(2)), horizon=10)
    assert [c.error is None for c in cells] == [True, False, True]
    assert cells[1].error.startswith("ConvergenceError: inner solver")
    assert cells[1].equilibrium is not None


def test_sweep_rejects_empty_grid():
    g = pennies()
    with pytest.raises(ArgumentError):
        sg.sweep(g, betas=(), etas=(0.1,),
                 regularizers=(sg.entropy(2), sg.entropy(2)))


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
