"""Certificates, witnesses, and brute-force oracles around game Jacobians."""

import dataclasses
import itertools
import json
import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import smoothgames as sg
from smoothgames import stability
from smoothgames import ArgumentError, DimensionError, DomainError, ResourceError
from smoothgames.dynamics import boundary_convergence_check
from smoothgames.games import (JointStrategy, block_slices, cross_hessian,
                               embed_strategy, pure_strategy,
                               quasi_strict_check, reduce_game,
                               restrict_strategy, utility)
from smoothgames.stability import (
    GRID_CAP,
    IMPROVEMENT_TOL,
    CoalitionVerdict,
    ParetoOracleResult,
    StrongNashResult,
    bilinear_scale_recovery,
    game_jacobian,
    interaction_graph,
    local_uniform_stability,
    pareto_improvement_search,
    pd_stretch,
    report_to_dict,
    simplex_lattice,
    lattice_size,
    solve_skew_certificate,
    strong_nash_oracle,
    uniform_stability_check,
    verify_witness,
    weak_pareto_oracle,
)

from conftest import (
    block_diag,
    graph_edges,
    jacobian_from_blocks,
    polymatrix_game,
    random_game,
    random_interior,
    random_pd,
    skew_blocks,
    skew_jacobian,
)


def uniform_point(shape):
    return sg.JointStrategy(tuple(np.full(k, 1.0 / k) for k in shape))


def pure_point(shape, indices):
    blocks = []
    for k, i in zip(shape, indices):
        b = np.zeros(k)
        b[i] = 1.0
        blocks.append(b)
    return sg.JointStrategy(tuple(blocks))


# ---------------------------------------------------------------------------
# Jacobian assembly

def test_jacobian_diagonal_blocks_are_zero():
    rng = np.random.default_rng(0)
    g = random_game(rng, (3, 2, 4))
    x = random_interior(rng, (3, 2, 4))
    jac = game_jacobian(g, x)
    for n in range(3):
        assert np.all(jac.blocks[n][n] == 0.0)
        assert jac.blocks[n][n].shape == (g.shape[n], g.shape[n])


def test_jacobian_off_diagonal_blocks_are_cross_hessians():
    rng = np.random.default_rng(1)
    g = random_game(rng, (2, 3, 2))
    x = random_interior(rng, (2, 3, 2))
    jac = game_jacobian(g, x)
    for n in range(3):
        for m in range(3):
            if n == m:
                continue
            np.testing.assert_allclose(jac.blocks[n][m],
                                       cross_hessian(g, x, n, m),
                                       atol=1e-12)


def test_jacobian_dense_matches_blocks():
    rng = np.random.default_rng(2)
    g = random_game(rng, (2, 3))
    x = random_interior(rng, (2, 3))
    jac = game_jacobian(g, x)
    dense = jac.dense()
    assert dense.shape == (5, 5)
    np.testing.assert_array_equal(dense[:2, 2:], jac.blocks[0][1])
    np.testing.assert_array_equal(dense[2:, :2], jac.blocks[1][0])


def test_tangent_reduction_dimensions():
    rng = np.random.default_rng(3)
    g = random_game(rng, (3, 4))
    x = random_interior(rng, (3, 4))
    j_t, bases, dims = game_jacobian(g, x).tangent()
    assert tuple(dims) == (2, 3)
    assert j_t.shape == (5, 5)
    for q in bases:
        np.testing.assert_allclose(q.T @ q, np.eye(q.shape[1]), atol=1e-12)
        assert np.abs(q.sum(axis=0)).max() < 1e-12  # columns are centered


def test_polymatrix_jacobian_constant_across_points():
    rng = np.random.default_rng(4)
    g, _ = polymatrix_game(rng, (3, 2, 4))
    a = game_jacobian(g, uniform_point((3, 2, 4)))
    b = game_jacobian(g, random_interior(rng, (3, 2, 4)))
    for n in range(3):
        for m in range(3):
            np.testing.assert_allclose(a.blocks[n][m], b.blocks[n][m],
                                       atol=1e-12)


# ---------------------------------------------------------------------------
# interaction graph

def test_pennies_graph_connected_and_bidirectional():
    g = sg.bundled_game("matching_pennies")
    graph = interaction_graph(game_jacobian(g, uniform_point((2, 2))))
    assert graph.edges == frozenset({(0, 1), (1, 0)})
    assert graph.connected
    assert graph.bidirectional


def test_one_sided_dependence_breaks_bidirectionality():
    # player 1 reacts to nobody: J10 vanishes while J01 does not
    rng = np.random.default_rng(5)
    t1 = rng.normal(size=(2, 3))
    g = sg.NormalFormGame((t1, np.zeros((2, 3))))
    jac = game_jacobian(g, uniform_point((2, 3)))
    graph = interaction_graph(jac)
    assert graph.edges == frozenset({(0, 1)})
    assert graph.connected
    assert not graph.bidirectional
    assert not solve_skew_certificate(jac).feasible


def test_bystander_disconnects_graph():
    rng = np.random.default_rng(6)
    t1 = rng.normal(size=(2, 2))
    ones = np.ones((1, 1, 2))
    g = sg.NormalFormGame((t1[:, :, None] * ones, -t1[:, :, None] * ones,
                           np.zeros((2, 2, 2))))
    graph = interaction_graph(game_jacobian(g, uniform_point((2, 2, 2))))
    assert graph.edges == frozenset({(0, 1), (1, 0)})
    assert not graph.connected


# ---------------------------------------------------------------------------
# skew certificates

@pytest.mark.parametrize("kind", ["path", "cycle", "complete"])
def test_certificate_recovers_known_weights(kind):
    rng = np.random.default_rng(7)
    for trial in range(10):
        n = int(rng.integers(2, 5))
        dims = [int(rng.integers(2, 5)) for _ in range(n)]
        lam = 10.0 ** rng.uniform(-1.0, 1.0, size=n)
        blocks = skew_blocks(rng, dims, lam, graph_edges(kind, n))
        cert = solve_skew_certificate(jacobian_from_blocks(dims, blocks))
        assert cert.feasible
        assert cert.residual <= 1e-9
        target = lam / lam[0]
        assert np.abs(cert.lambdas - target).max() <= 1e-9 * target.max()


@pytest.mark.parametrize("kind", ["path", "cycle", "complete"])
def test_check_builds_one_spanning_forest(monkeypatch, kind):
    # the certificate and the graph share one forest, and agree with the
    # public functions that build their own
    rng = np.random.default_rng(11)
    dims = [2, 3, 2, 4]
    jac = skew_jacobian(rng, dims, np.ones(4), graph_edges(kind, 4))
    calls = []
    forest = stability._spanning_forest
    monkeypatch.setattr(stability, "_spanning_forest",
                        lambda jac: calls.append(1) or forest(jac))
    report = uniform_stability_check(jac)
    assert len(calls) == 1
    assert report.pointwise == "stable"
    assert report.graph == interaction_graph(jac)
    cert = solve_skew_certificate(jac)
    assert (report.certificate.lambdas.tobytes(), report.certificate.residual,
            report.certificate.feasible) == (cert.lambdas.tobytes(),
                                             cert.residual, cert.feasible)


def test_certificate_covariant_under_payoff_scaling():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(3, 4))
    m = (m - m.mean(axis=0, keepdims=True)
         - m.mean(axis=1, keepdims=True) + m.mean())
    rho = 1.7
    t1 = m + np.ones((3, 1)) * rng.normal(size=(1, 4))
    t2 = -(1.0 / rho) * m + rng.normal(size=(3, 1)) * np.ones((1, 4))
    xu = uniform_point((3, 4))

    cert = solve_skew_certificate(game_jacobian(sg.NormalFormGame((t1, t2)), xu))
    assert cert.feasible
    np.testing.assert_allclose(cert.lambdas, [1.0, rho], atol=1e-12)
    # tripling player 0's payoffs triples the weight its opponent needs
    scaled = solve_skew_certificate(
        game_jacobian(sg.NormalFormGame((3.0 * t1, t2)), xu))
    assert scaled.feasible
    np.testing.assert_allclose(scaled.lambdas, [1.0, 3.0 * rho], atol=1e-11)


def test_cycle_inconsistency_is_infeasible():
    rng = np.random.default_rng(8)
    dims = [3, 2, 3]
    blocks = [list(row) for row in
              skew_blocks(rng, dims, np.array([1.0, 0.5, 2.0]),
                          graph_edges("cycle", 3))]
    blocks[2][0] = 1.5 * blocks[2][0]  # breaks one direction of one edge
    jac = jacobian_from_blocks(dims, tuple(tuple(row) for row in blocks))
    cert = solve_skew_certificate(jac)
    assert not cert.feasible
    assert cert.residual > 1e-8


def test_skew_conditioned_spectra_stay_imaginary():
    rng = np.random.default_rng(9)
    for trial in range(10):
        n = int(rng.integers(2, 5))
        dims = [int(rng.integers(2, 5)) for _ in range(n)]
        lam = 10.0 ** rng.uniform(-1.0, 1.0, size=n)
        jac = skew_jacobian(rng, dims, lam, graph_edges("complete", n))
        j_t, bases, tdims = jac.tangent()
        radius = np.abs(np.linalg.eigvals(j_t)).max()
        for _ in range(20):
            h = block_diag([random_pd(rng, d) for d in tdims])
            eigs = np.linalg.eigvals(np.linalg.solve(h, j_t))
            assert np.abs(eigs.real).max() <= 1e-8 * max(radius, 1e-300)


# ---------------------------------------------------------------------------
# stability reports

def test_pennies_uniform_reported_stable():
    g = sg.bundled_game("matching_pennies")
    report = uniform_stability_check(game_jacobian(g, uniform_point((2, 2))))
    assert report.pointwise == "stable"
    assert report.certificate.feasible
    np.testing.assert_allclose(report.certificate.lambdas, [1.0, 1.0])
    assert report.certificate.residual == 0.0
    assert report.witness is None


def test_coordination_mixed_center_unstable_with_witness():
    g = sg.bundled_game("coordination_2x2")
    jac = game_jacobian(g, uniform_point((2, 2)))
    report = uniform_stability_check(jac)
    assert report.pointwise == "unstable_with_witness"
    assert not report.certificate.feasible
    assert report.witness_real_part == pytest.approx(4.406863284698249,
                                                     rel=1e-9)
    # independent replay of the witness reproduces the eigenvalue
    replay = verify_witness(jac, report.witness)
    assert replay == pytest.approx(report.witness_real_part, rel=1e-9)


def test_disconnected_skew_game_indeterminate_without_ascent(monkeypatch):
    # the certificate's weights prove that no joint improvement exists and
    # that no sampled conditioner can refute, so the check neither enters
    # the ascent nor draws a conditioner
    def fail(*args, **kwargs):
        raise AssertionError("futile search entered")

    monkeypatch.setattr(stability, "_pareto_ascent", fail)
    monkeypatch.setattr(stability, "_random_pd_stacks", fail)
    rng = np.random.default_rng(13)
    shape = (3, 2, 3, 2)
    g, _ = polymatrix_game(rng, shape, lam=np.array([1.0, 0.5, 1.0, 2.0]),
                           edges=[(0, 1), (2, 3)])
    report = uniform_stability_check(game_jacobian(g, random_interior(rng, shape)))
    assert report.certificate.feasible and not report.graph.connected
    assert report.pointwise == "indeterminate"
    assert report.max_sampled_real == 0.0
    assert report.real_part_bound <= stability.WITNESS_REAL_TOL
    # the largest real part the 100 draws gave when they were still made
    assert 3.533323531151876e-15 < report.real_part_bound


@pytest.mark.parametrize("kwargs", [{"num_conditioners": -5},
                                    {"num_conditioners": 2.5},
                                    {"num_conditioners": True}])
def test_check_rejects_bad_conditioner_budget(kwargs):
    jac = game_jacobian(sg.bundled_game("coordination_2x2"),
                        uniform_point((2, 2)))
    with pytest.raises(ArgumentError, match="num_conditioners"):
        uniform_stability_check(jac, **kwargs)


# The per-conditioner loop the stacked sampling replaced: one conditioner
# drawn, assembled and tested at a time.

def _one_random_pd(dim, rng):
    vals = 10.0 ** rng.uniform(-2.0, 2.0, size=dim)
    gauss = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(gauss)
    q = q * np.sign(np.diag(r))
    return (q * vals) @ q.T


def _one_max_real_eig(h_blocks, j_t):
    eigs = np.linalg.eigvals(np.linalg.solve(block_diag(h_blocks), j_t))
    return float(np.abs(eigs.real).max(initial=0.0))


def _per_conditioner_check(jac, num_conditioners, rng_seed):
    """(pointwise, witness, witness_real_part, max_sampled_real)."""
    cert = solve_skew_certificate(jac)
    graph = interaction_graph(jac)
    if cert.feasible and graph.connected and graph.bidirectional:
        return "stable", None, None, 0.0
    j_t, bases, dims = jac.tangent()
    rng = np.random.default_rng(rng_seed)
    max_real, found = 0.0, None
    if j_t.size > 0 and np.linalg.norm(j_t) > 0:
        for _ in range(num_conditioners):
            h_blocks = [_one_random_pd(d, rng) for d in dims]
            real = _one_max_real_eig(h_blocks, j_t)
            max_real = max(max_real, real)
            if real > stability.WITNESS_REAL_TOL:
                found = h_blocks, real
                break
    if found is None:
        h_blocks = stability._stretch_conditioner(j_t, dims, cert.lambdas,
                                                  rng_seed)
        if h_blocks is not None:
            real = _one_max_real_eig(h_blocks, j_t)
            if real > stability.WITNESS_REAL_TOL:
                found = h_blocks, real
    if found is None:
        return "indeterminate", None, None, max_real
    h_blocks, real = found
    witness = tuple(b @ h @ b.T for b, h in zip(bases, h_blocks))
    return "unstable_with_witness", witness, real, max(max_real, real)


def _assert_matches_reference(report, jac, num_conditioners, rng_seed):
    """The report is the per-conditioner loop's, except that no draw is
    made where the real-part bound rules out a refuting one."""
    pointwise, witness, real, max_real = _per_conditioner_check(
        jac, num_conditioners, rng_seed)
    assert report.pointwise == pointwise
    bound = report.real_part_bound
    if bound is not None and bound <= stability.WITNESS_REAL_TOL:
        # no draw was made, and the bound holds on every reference draw
        assert report.max_sampled_real == 0.0
        assert max_real <= bound
    else:
        assert report.max_sampled_real == max_real
    assert report.witness_real_part == real
    if witness is None:
        assert report.witness is None
    else:
        assert len(report.witness) == len(witness)
        for got, want in zip(report.witness, witness):
            assert np.array_equal(got, want)


def _sampling_game(rng, shape, kind):
    n = len(shape)
    if kind == "general":
        return random_game(rng, shape)
    lam = 10.0 ** rng.uniform(-1.0, 1.0, n)
    if kind == "disconnected":
        edges = [(a, a + 1) for a in range(0, n - 1, 2)]
        return polymatrix_game(rng, shape, lam=lam, edges=edges)[0]
    # near a lambda-skew game, where a refuting draw can come late
    g, _ = polymatrix_game(rng, shape, lam=lam, edges=graph_edges("path", n))
    noise = random_game(rng, shape, scale=10.0 ** rng.uniform(-9.0, -5.0))
    return sg.NormalFormGame(tuple(a + b for a, b in
                                   zip(g.payoffs, noise.payoffs)))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       shape=st.lists(st.integers(1, 4), min_size=2, max_size=5),
       kind=st.sampled_from(["general", "disconnected", "near_skew"]),
       num_conditioners=st.sampled_from([0, 1, 2, 7, 100]),
       rng_seed=st.integers(0, 2 ** 32 - 1))
# first refuting draw inside the chunks of 4, 16, 64 and the last 15, each
# with a larger real part later in the same chunk
@example(seed=105, shape=[3, 4, 4], kind="near_skew", num_conditioners=100,
         rng_seed=0)
@example(seed=61, shape=[2, 4, 4], kind="near_skew", num_conditioners=100,
         rng_seed=0)
@example(seed=1, shape=[3, 4, 4], kind="near_skew", num_conditioners=100,
         rng_seed=0)
@example(seed=1, shape=[3, 4, 4], kind="near_skew", num_conditioners=100,
         rng_seed=5)
def test_stacked_sampling_matches_per_conditioner_loop(
        seed, shape, kind, num_conditioners, rng_seed):
    rng = np.random.default_rng(seed)
    shape = tuple(shape)
    game = _sampling_game(rng, shape, kind)
    jac = game_jacobian(game, random_interior(rng, shape))
    report = uniform_stability_check(jac, num_conditioners=num_conditioners,
                                     rng_seed=rng_seed)
    _assert_matches_reference(report, jac, num_conditioners, rng_seed)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       shape=st.lists(st.integers(2, 4), min_size=3, max_size=5),
       unit_weights=st.booleans(),
       noise=st.none() | st.floats(-12.0, -6.0))
# bounds of about 6e-10 and 7e-4, on either side of WITNESS_REAL_TOL
@example(seed=0, shape=[3, 3, 3], unit_weights=False, noise=-12.0)
@example(seed=0, shape=[3, 3, 3], unit_weights=False, noise=-6.0)
# S zero to rounding: the exact term alone falls below a computed real part
@example(seed=2, shape=[3, 2, 2], unit_weights=True, noise=None)
def test_real_part_bound_holds_on_every_draw(seed, shape, unit_weights,
                                             noise):
    # disconnected lambda-skew games plus payoff noise of 10**noise, so the
    # bound lands on both sides of WITNESS_REAL_TOL; without noise and with
    # unit weights, S can be zero to rounding, so only the rounding
    # allowance keeps the bound above the computed real parts
    rng = np.random.default_rng(seed)
    shape = tuple(shape)
    n = len(shape)
    lam = np.ones(n) if unit_weights else 10.0 ** rng.uniform(-1.0, 1.0, n)
    g, _ = polymatrix_game(rng, shape, lam=lam,
                           edges=[(a, a + 1) for a in range(0, n - 1, 2)])
    scale = 0.0 if noise is None else 10.0 ** noise
    extra = random_game(rng, shape, scale=scale)
    game = sg.NormalFormGame(tuple(a + b for a, b in
                                   zip(g.payoffs, extra.payoffs)))
    jac = game_jacobian(game, random_interior(rng, shape))
    # the report and the reference share the constructed witness, which the
    # bound does not touch; its ascent would take most of the time here
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stability, "_pareto_ascent", lambda *args: None)
        report = uniform_stability_check(jac)
        _assert_matches_reference(report, jac, 100, 0)
    if report.real_part_bound is not None:
        j_t, _, dims = jac.tangent()
        stacks = stability._random_pd_stacks(dims, 100, rng)
        for i in range(100):
            real = _one_max_real_eig([s[i] for s in stacks], j_t)
            assert real <= report.real_part_bound


def test_witness_at_first_draw_evaluates_one_conditioner(monkeypatch):
    counts = []
    draw = stability._random_pd_stacks

    def counting(dims, count, rng):
        counts.append(count)
        return draw(dims, count, rng)

    monkeypatch.setattr(stability, "_random_pd_stacks", counting)
    jac = game_jacobian(sg.bundled_game("coordination_2x2"),
                        uniform_point((2, 2)))
    report = uniform_stability_check(jac)
    assert report.pointwise == "unstable_with_witness"
    assert counts == [1]


def test_chunks_cover_the_budget_in_growing_stacks():
    assert list(stability._chunk_sizes(0)) == []
    assert list(stability._chunk_sizes(7)) == [1, 4, 2]
    assert list(stability._chunk_sizes(100)) == [1, 4, 16, 64, 15]
    assert list(stability._chunk_sizes(200)) == [1, 4, 16, 64, 64, 51]


def test_witness_values_are_pinned():
    # values of the per-conditioner implementation, bit for bit
    jac = game_jacobian(sg.bundled_game("coordination_2x2"),
                        uniform_point((2, 2)))
    stretched = uniform_stability_check(jac, num_conditioners=0)
    assert stretched.witness_real_part == 1.0
    assert verify_witness(jac, stretched.witness) == 1.0
    sampled = uniform_stability_check(jac)
    assert sampled.witness_real_part == 4.406863284698249
    assert verify_witness(jac, sampled.witness) == 4.40686328469825

    rng = np.random.default_rng(21)
    shape = (3, 2, 4)
    g = random_game(rng, shape)
    jac = game_jacobian(g, random_interior(rng, shape))
    # the stretched witness is built from the ascent's direction in tangent
    # coordinates
    stretched = uniform_stability_check(jac, num_conditioners=0, rng_seed=3)
    assert stretched.witness_real_part == 1.393532713047009
    assert verify_witness(jac, stretched.witness) == 1.3935327130470094
    sampled = uniform_stability_check(jac, rng_seed=3)
    assert sampled.witness_real_part == 7.644976136545052
    assert verify_witness(jac, sampled.witness) == 7.644976136545041


def _seeded_calls():
    jac = game_jacobian(sg.bundled_game("coordination_2x2"),
                        uniform_point((2, 2)))
    pennies = sg.bundled_game("matching_pennies")
    cfg = sg.entropy_config(pennies, 0.1)
    return {
        "uniform_stability_check":
            lambda seed: uniform_stability_check(jac, rng_seed=seed),
        "pareto_improvement_search":
            lambda seed: pareto_improvement_search(jac, rng_seed=seed),
        "local_uniform_stability":
            lambda seed: local_uniform_stability(
                pennies, uniform_point((2, 2)), rng_seed=seed),
        "bilinear_scale_recovery":
            lambda seed: bilinear_scale_recovery(np.eye(2), -np.eye(2),
                                                 rng_seed=seed),
        "eta_threshold":
            lambda seed: sg.eta_threshold(
                pennies, cfg, sg.find_smoothed_equilibrium(pennies, cfg),
                rng_seed=seed),
    }


@pytest.mark.parametrize("seed", [-1, 2.5, True, None],
                         ids=["negative", "fractional", "bool", "none"])
@pytest.mark.parametrize("name", sorted(_seeded_calls()))
def test_seeded_calls_reject_bad_seeds(name, seed):
    call = _seeded_calls()[name]
    with pytest.raises(ArgumentError, match="rng_seed"):
        call(seed)
    call(np.int64(3))  # numpy integers are fine


def test_symmetric_perturbation_yields_sampled_witness():
    rng = np.random.default_rng(5)
    rng.normal(size=(3, 4))  # keep the stream aligned with the fixture above
    t1 = rng.normal(size=(3, 3))
    t2 = -0.5 * t1.copy() + 0.8 * rng.normal(size=(3, 3))
    g = sg.NormalFormGame((t1, t2))
    jac = game_jacobian(g, uniform_point((3, 3)))
    report = uniform_stability_check(jac)
    assert not report.certificate.feasible
    assert report.pointwise == "unstable_with_witness"
    assert report.witness_real_part > 1e-6
    assert verify_witness(jac, report.witness) == pytest.approx(
        report.witness_real_part, rel=1e-9)


def test_polymatrix_cycle_reported_stable():
    rng = np.random.default_rng(11)
    lam = np.array([1.0, 0.4, 2.5])
    g, _ = polymatrix_game(rng, (3, 2, 4), lam=lam,
                           edges=graph_edges("cycle", 3))
    jac = game_jacobian(g, uniform_point((3, 2, 4)))
    report = uniform_stability_check(jac)
    assert report.pointwise == "stable"
    np.testing.assert_allclose(report.certificate.lambdas, lam, atol=1e-10)


def test_verify_witness_rejects_indefinite_blocks():
    g = sg.bundled_game("coordination_2x2")
    jac = game_jacobian(g, uniform_point((2, 2)))
    with pytest.raises(ArgumentError):
        verify_witness(jac, (-np.eye(2), np.eye(2)))


@pytest.mark.parametrize("witness, error", [
    ((np.eye(2),), DimensionError),
    ((np.eye(2), np.eye(2), np.eye(2)), DimensionError),
    ((np.full((2, 2), np.nan), np.eye(2)), ArgumentError),
    ((np.eye(3), np.eye(2)), DimensionError),
], ids=["one_block", "three_blocks", "nan_block", "oversized_block"])
def test_verify_witness_rejects_malformed_witnesses(witness, error):
    jac = game_jacobian(sg.bundled_game("matching_pennies"),
                        uniform_point((2, 2)))
    with pytest.raises(error):
        verify_witness(jac, witness)


def test_report_serializes_to_json():
    g = sg.bundled_game("coordination_2x2")
    report = uniform_stability_check(game_jacobian(g, uniform_point((2, 2))))
    data = report_to_dict(report)
    text = json.dumps(data, sort_keys=True)
    parsed = json.loads(text)
    assert parsed["pointwise"] == "unstable_with_witness"
    assert parsed["assumptions"] == {"connected": True, "bidirectional": True}
    assert parsed["interaction_edges"] == [[0, 1], [1, 0]]
    assert len(parsed["witness"]["blocks_row_major"]) == 2
    assert parsed["witness"]["real_part"] == pytest.approx(4.406863284698249)


def test_report_json_carries_the_real_part_bound():
    # null where the certificate decides; above the refutation threshold
    # where a sampled conditioner refutes
    stable, refuted = (
        uniform_stability_check(game_jacobian(sg.bundled_game(name),
                                              uniform_point((2, 2))))
        for name in ("matching_pennies", "coordination_2x2"))
    assert json.loads(json.dumps(report_to_dict(stable)))[
        "real_part_bound"] is None
    data = json.loads(json.dumps(report_to_dict(refuted)))
    assert data["real_part_bound"] == refuted.real_part_bound
    assert refuted.real_part_bound > stability.WITNESS_REAL_TOL


def test_local_stability_around_pennies_center():
    g = sg.bundled_game("matching_pennies")
    verdict = local_uniform_stability(g, uniform_point((2, 2)), radius=0.05,
                                      num_samples=8, rng_seed=0)
    assert verdict.all_stable
    assert verdict.center.pointwise == "stable"
    assert verdict.sample_verdicts == ("stable",) * 8
    assert verdict.radius == 0.05


def test_local_stability_needs_interior_center():
    g = sg.bundled_game("matching_pennies")
    with pytest.raises(DomainError):
        local_uniform_stability(g, pure_point((2, 2), (0, 0)))


@pytest.mark.parametrize("name,value", [
    ("num_samples", -3), ("num_samples", 2.5), ("num_samples", True),
    ("radius", float("nan")), ("radius", float("inf")), ("radius", -1.0),
    ("radius", 0.0)])
def test_local_stability_rejects_bad_sampling(name, value, monkeypatch):
    checked = []
    monkeypatch.setattr(stability, "uniform_stability_check",
                        lambda *args, **kw: checked.append(args))
    with pytest.raises(ArgumentError, match=name):
        local_uniform_stability(sg.bundled_game("matching_pennies"),
                                uniform_point((2, 2)), **{name: value})
    assert checked == []  # rejected before any point is checked


# ---------------------------------------------------------------------------
# pd-stretch and bilinear scale

def test_pd_stretch_maps_v_to_u_with_pd_matrix():
    rng = np.random.default_rng(12)
    for _ in range(200):
        k = int(rng.integers(2, 9))
        u = rng.normal(size=k)
        v = rng.normal(size=k)
        if u @ v <= 0:
            u = -u
        h = pd_stretch(u, v)
        assert np.abs(h @ v - u).max() <= 1e-10
        assert np.linalg.eigvalsh((h + h.T) / 2).min() > 0


def test_pd_stretch_rejects_obtuse_pairs():
    with pytest.raises(DomainError):
        pd_stretch(np.array([1.0, 0.0]), np.array([-1.0, 0.5]))
    with pytest.raises(DomainError):
        pd_stretch(np.array([0.0, 1.0]), np.array([1.0, 0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("side", ["u", "v"])
def test_pd_stretch_rejects_non_finite_vectors(bad, side):
    pair = ([bad, 1.0], [1.0, 1.0])
    with pytest.raises(ArgumentError, match="finite"):
        pd_stretch(*(pair if side == "u" else pair[::-1]))


def test_pd_stretch_parallel_case_is_scaled_identity():
    h = pd_stretch(2.0 * np.array([3.0, 4.0]), np.array([3.0, 4.0]))
    np.testing.assert_allclose(h, 2.0 * np.eye(2), atol=1e-12)


def test_bilinear_scale_recovered_exactly():
    rng = np.random.default_rng(13)
    for k in (3, 4, 6):
        b = rng.normal(size=(k, k))
        for lam in (0.5, 1.0, 3.0):
            result = bilinear_scale_recovery(lam * b, b)
            assert not result.refuted
            assert result.lam == pytest.approx(lam, rel=1e-9)


def test_bilinear_sign_witness_for_nonproportional_pair():
    result = bilinear_scale_recovery(np.diag([1.0, 2.0]), np.eye(2))
    assert result.refuted
    x, y, a_val, b_val = result.witness
    # the two forms disagree in sign on the witness pair
    scale_a, scale_b = np.sqrt(5.0), np.sqrt(2.0)
    sa = 0 if abs(a_val) <= 1e-10 * scale_a else np.sign(a_val)
    sb = 0 if abs(b_val) <= 1e-10 * scale_b else np.sign(b_val)
    assert sa != sb


def test_bilinear_zero_matrix_edge_cases():
    rng = np.random.default_rng(14)
    b = rng.normal(size=(3, 3))
    zero_a = bilinear_scale_recovery(np.zeros((3, 3)), b)
    assert zero_a.refuted and zero_a.lam is None
    zero_b = bilinear_scale_recovery(b, np.zeros((3, 3)))
    assert zero_b.refuted
    assert zero_b.witness[3] == 0.0 and zero_b.witness[2] > 0
    with pytest.raises(ArgumentError):
        bilinear_scale_recovery(np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(DimensionError):
        bilinear_scale_recovery(np.zeros((2, 3)), np.zeros((2, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("side", ["A", "B"])
def test_bilinear_rejects_non_finite_matrices(bad, side):
    finite = np.array([[1.0, 2.0]])
    broken = np.array([[bad, 1.0]])
    pair = (broken, finite) if side == "A" else (finite, broken)
    with pytest.raises(ArgumentError, match="finite"):
        bilinear_scale_recovery(*pair)


@pytest.mark.parametrize("tol", [-1.0, 0.0, np.nan, np.inf])
def test_bilinear_rejects_bad_tolerance(tol):
    with pytest.raises(ArgumentError, match="tol must be positive"):
        bilinear_scale_recovery(np.eye(2), 2.0 * np.eye(2), tol=tol)


def _bilinear_pair(rng, m, n, kind):
    if kind == "pinned":
        # a sign search over singular frames returned x^T A y = 4.3e-31 here
        a = np.outer([1.0, 2.0], [1.0, -1.0, 0.5])
        return a, 2.0 * a + 1e-3 * np.outer([1.0, -1.0], [0.0, 1.0, 1.0])
    if kind == "random":
        return rng.standard_normal((m, n)), rng.standard_normal((m, n))
    if kind == "negative_multiple":
        a = rng.standard_normal((m, n))
        return a, -rng.uniform(0.1, 10.0) * a
    v = rng.standard_normal(n)
    a = np.outer(rng.standard_normal(m), v)
    if kind == "shared_factor":  # B^T x is parallel to A^T x for every x
        return a, np.outer(rng.standard_normal(m), v)
    # near rank one: a positive multiple of A plus a small rank-one defect
    defect = np.outer(rng.standard_normal(m), rng.standard_normal(n))
    return a, rng.uniform(0.5, 3.0) * a + 10.0 ** rng.uniform(-6, -2) * defect


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 6),
       n=st.integers(1, 6),
       kind=st.sampled_from(["random", "near_rank_one", "shared_factor",
                             "negative_multiple"]))
@example(seed=0, m=2, n=3, kind="pinned")
def test_bilinear_refutations_are_strict(seed, m, n, kind):
    a, b = _bilinear_pair(np.random.default_rng(seed), m, n, kind)
    result = bilinear_scale_recovery(a, b, rng_seed=seed % 1000)
    if not result.refuted:
        assert kind in ("random", "shared_factor", "near_rank_one")
        assert result.lam > 0
        assert np.linalg.norm(a - result.lam * b) <= 1e-9 * np.linalg.norm(a)
        return
    x, y, a_val, b_val = result.witness
    assert a_val * b_val < 0
    for mat, reported in ((a, a_val), (b, b_val)):
        value = float(x @ mat @ y)
        # a bound on the rounding of x^T M y in dimensions up to 6 (at most
        # (m + n) eps |x|^T |M| |y|): a form above it has the sign computed
        rounding = (100 * np.finfo(float).eps * np.linalg.norm(x)
                    * np.linalg.norm(mat) * np.linalg.norm(y))
        assert abs(value) > rounding
        assert abs(value - reported) <= rounding


# ---------------------------------------------------------------------------
# improvement search

def test_pareto_search_empty_handed_on_pennies():
    g = sg.bundled_game("matching_pennies")
    assert pareto_improvement_search(
        game_jacobian(g, uniform_point((2, 2)))) is None


def test_pareto_search_finds_joint_direction_on_coordination():
    g = sg.bundled_game("coordination_2x2")
    jac = game_jacobian(g, uniform_point((2, 2)))
    j_t, _, dims = jac.tangent()
    # no positive weights make this Jacobian skew, so the bound cannot fire
    assert not stability._no_joint_improvement(
        j_t, dims, solve_skew_certificate(jac).lambdas)
    direction = pareto_improvement_search(jac)
    assert direction is not None
    for blk in direction.blocks:
        assert abs(blk.sum()) < 1e-9  # tangent to the simplex
    # both players move the same way, which raises both payoffs
    assert np.sign(direction.blocks[0][1]) == np.sign(direction.blocks[1][1])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_players=st.integers(2, 6),
       noise=st.sampled_from([0.0, 1e-10, 1e-8]))
def test_dual_bound_never_skips_an_improvement(seed, n_players, noise):
    # lambda-skew polymatrix games, nudged off skewness by up to 1e-8, on a
    # random (possibly disconnected) interaction graph
    rng = np.random.default_rng(seed)
    shape = tuple(int(k) for k in rng.integers(2, 5, n_players))
    lam = 10.0 ** rng.uniform(-1.0, 1.0, n_players)
    edges = [(a, b) for a in range(n_players) for b in range(a + 1, n_players)
             if rng.random() < 0.5] or [(0, 1)]
    g, _ = polymatrix_game(rng, shape, lam=lam, edges=edges)
    g = sg.NormalFormGame(tuple(t + noise * rng.standard_normal(shape)
                                for t in g.payoffs))
    jac = game_jacobian(g, random_interior(rng, shape))
    j_t, bases, dims = jac.tangent()
    if not stability._no_joint_improvement(
            j_t, dims, solve_skew_certificate(jac).lambdas):
        return
    slices = block_slices(dims)
    for _ in range(200):
        z = rng.standard_normal(j_t.shape[0])
        for sl in slices:
            z[sl] /= np.linalg.norm(z[sl])
        jz = j_t @ z
        assert min(z[sl] @ jz[sl] for sl in slices) <= IMPROVEMENT_TOL
    assert stability._pareto_ascent(j_t, dims, num_restarts=3,
                                    rng_seed=seed, iters=200) is None


@pytest.mark.parametrize("kwargs", [{"num_restarts": -1},
                                    {"num_restarts": 1.5},
                                    {"iters": -3},
                                    {"iters": "400"}])
def test_pareto_search_rejects_bad_budgets(kwargs):
    jac = game_jacobian(sg.bundled_game("coordination_2x2"),
                        uniform_point((2, 2)))
    with pytest.raises(ArgumentError, match=next(iter(kwargs))):
        pareto_improvement_search(jac, **kwargs)


# ---------------------------------------------------------------------------
# quasi-strictness and support reduction

def test_quasi_strict_statuses():
    ga = sg.bundled_game("example_A")
    strict = quasi_strict_check(ga, pure_point((3, 3), (1, 1)))
    assert strict.status == "quasi_strict"
    assert strict.gap == 0.0

    off = quasi_strict_check(ga, pure_point((3, 3), (0, 0)))
    assert off.status == "not_nash"
    assert off.gap == pytest.approx(2.0)

    # a tied action outside the support flags the point
    t1 = np.ones((2, 2))
    t2 = np.array([[1.0, 0.0], [1.0, 0.0]])
    tied = quasi_strict_check(sg.NormalFormGame((t1, t2)),
                              pure_point((2, 2), (0, 0)))
    assert tied.status == "not_quasi_strict"
    assert (tied.player, tied.index) == (0, 1)


def test_reduce_game_to_strict_support():
    ga = sg.bundled_game("example_A")
    reduced, supports = reduce_game(ga, pure_point((3, 3), (1, 1)))
    assert reduced.shape == (1, 1)
    assert [s.tolist() for s in supports] == [[1], [1]]
    assert reduced.payoffs[0][0, 0] == 2.0
    assert reduced.payoffs[1][0, 0] == 2.0


def test_reduce_game_drops_dominated_column():
    t1 = np.array([[1.0, -1.0, 3.0], [-1.0, 1.0, 3.0]])
    g = sg.NormalFormGame((t1, -t1.copy()))
    x = sg.JointStrategy((np.array([0.5, 0.5]), np.array([0.5, 0.5, 0.0])))
    reduced, supports = reduce_game(g, x)
    assert reduced.shape == (2, 2)
    np.testing.assert_array_equal(reduced.payoffs[0],
                                  [[1.0, -1.0], [-1.0, 1.0]])
    image = restrict_strategy(x, supports)
    assert image.is_interior
    back = embed_strategy(image, supports, (2, 3))
    np.testing.assert_allclose(back.concatenated(),
                               [0.5, 0.5, 0.5, 0.5, 0.0], atol=1e-15)


def test_reduce_game_rejects_non_quasi_strict():
    ga = sg.bundled_game("example_A")
    with pytest.raises(DomainError, match="not_nash"):
        reduce_game(ga, pure_point((3, 3), (0, 0)))


# ---------------------------------------------------------------------------
# boundary behaviour of smoothed equilibria

def test_boundary_report_on_dominated_column_game():
    t1 = np.array([[1.0, -1.0, 3.0], [-1.0, 1.0, 3.0]])
    g = sg.NormalFormGame((t1, -t1.copy()))
    x_star = sg.JointStrategy((np.array([0.5, 0.5]),
                               np.array([0.5, 0.5, 0.0])))
    report = boundary_convergence_check(g, (sg.entropy(2), sg.entropy(3)),
                                        x_star, (0.3, 0.1, 0.03, 0.01))
    assert report.ratios_decreasing
    assert report.all_norm_bounds_hold
    ratios = [row.suppressed_ratio for row in report.rows]
    np.testing.assert_allclose(
        ratios, [9.267011e-05, 5.730350e-13, 7.593573e-43, 3.152616e-129],
        rtol=1e-5)
    for row, eta in zip(report.rows, (1.8e-2, 2.0e-3, 1.8e-4, 2.0e-5)):
        assert row.eta == pytest.approx(eta, rel=1e-12)
        assert row.operator_norm <= row.response_norm_bound
        assert row.response_norm_bound == pytest.approx(np.exp(-row.eta / 2))


def test_boundary_norm_bound_fails_on_mixed_face():
    # a coordination block mixed on its face is quasi-strict yet repels,
    # so the contraction side of the report comes back false
    t1 = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    t2 = np.array([[1.0, 0.0, -1.0], [0.0, 1.0, -1.0]])
    g = sg.NormalFormGame((t1, t2))
    x_star = sg.JointStrategy((np.array([0.5, 0.5]),
                               np.array([0.5, 0.5, 0.0])))
    report = boundary_convergence_check(g, (sg.entropy(2), sg.entropy(3)),
                                        x_star, (0.3, 0.1))
    assert report.ratios_decreasing
    assert not report.all_norm_bounds_hold
    for row in report.rows:
        assert row.operator_norm > row.response_norm_bound
        assert row.residual == 0.0  # the symmetric center is an exact fix


def test_boundary_check_requires_quasi_strict_point():
    ga = sg.bundled_game("example_A")
    with pytest.raises(DomainError):
        boundary_convergence_check(ga, (sg.entropy(3), sg.entropy(3)),
                                   pure_point((3, 3), (0, 0)), (0.1,))


@pytest.mark.parametrize("schedule", [[], (0.1, 0.3), (0.1, 0.1), (0.1, 0.0)],
                         ids=["empty", "increasing", "repeated", "zero"])
def test_boundary_check_rejects_bad_schedules(schedule):
    t1 = np.array([[1.0, -1.0, 3.0], [-1.0, 1.0, 3.0]])
    g = sg.NormalFormGame((t1, -t1.copy()))
    x_star = sg.JointStrategy((np.array([0.5, 0.5]),
                               np.array([0.5, 0.5, 0.0])))
    with pytest.raises(ArgumentError, match="beta_schedule"):
        boundary_convergence_check(g, (sg.entropy(2), sg.entropy(3)),
                                   x_star, schedule)


# ---------------------------------------------------------------------------
# lattice oracles

def test_simplex_lattice_invariants():
    for k, resolution in ((2, 21), (3, 11), (4, 6)):
        points = simplex_lattice(k, resolution)
        assert len(points) == lattice_size(k, resolution)
        np.testing.assert_allclose(points.sum(axis=1), 1.0, atol=1e-12)
        assert points.min() >= 0.0
        assert len(np.unique(points, axis=0)) == len(points)
        # vertices are present
        for i in range(k):
            vertex = np.zeros(k)
            vertex[i] = 1.0
            assert (np.abs(points - vertex).max(axis=1) < 1e-12).any()
    assert lattice_size(2, 21) == 21
    steps = simplex_lattice(2, 21)[:, 0] * 20
    np.testing.assert_allclose(steps, np.round(steps), atol=1e-9)


def test_simplex_lattice_rejects_degenerate_resolution():
    with pytest.raises(ArgumentError):
        simplex_lattice(3, 1)
    # far more points than GRID_CAP: rejected before any allocation
    with pytest.raises(ResourceError, match="exceeds"):
        simplex_lattice(10, 1000)


@pytest.mark.parametrize("k", [0, -1, 2.5, True])
@pytest.mark.parametrize("fn", [simplex_lattice, lattice_size])
def test_lattice_rejects_bad_dimension(fn, k):
    with pytest.raises(ArgumentError, match="k must be a positive integer"):
        fn(k, 3)


@pytest.mark.parametrize("resolution", [1, 0, -1, 2.5, True])
def test_lattice_size_rejects_degenerate_resolution(resolution):
    with pytest.raises(ArgumentError, match="resolution"):
        lattice_size(3, resolution)


def test_pareto_oracle_grid_cap():
    g = sg.bundled_game("matching_pennies")
    with pytest.raises(ResourceError):
        weak_pareto_oracle(g, uniform_point((2, 2)), grid_resolution=1001)


@pytest.mark.parametrize("oracle", [weak_pareto_oracle, strong_nash_oracle])
def test_oracles_refuse_an_oversized_grid_before_building_it(oracle):
    # one 30-action lattice at resolution 21 alone would need petabytes
    g = sg.NormalFormGame((np.zeros((30, 30)), np.zeros((30, 30))))
    total = math.comb(49, 29) ** 2
    start = time.perf_counter()
    with pytest.raises(ResourceError) as err:
        oracle(g, uniform_point((30, 30)), grid_resolution=21)
    assert str(err.value) == (f"grid of {total} points exceeds the "
                              f"1000000 cap")
    assert time.perf_counter() - start < 1.0


# the grid oracles as they were before one coalition search served both,
# kept verbatim as the reference the search must reproduce

def _grid_values(game, lattices, fixed=None):
    """Utilities of every lattice profile, one array per player.

    ``fixed`` maps player index -> probability vector, removing that axis
    from the grid.
    """
    fixed = fixed or {}
    out = []
    for n in range(game.num_players):
        t = game.payoffs[n]
        # contract fixed players first (from the back, axes stay valid)
        for axis in reversed(range(game.num_players)):
            if axis in fixed:
                t = np.tensordot(t, fixed[axis], axes=([axis], [0]))
        # now contract each free axis against its lattice: each tensordot
        # consumes the leading axis and appends a lattice index at the end,
        # so the result is indexed by free players in ascending order
        free = [n2 for n2 in range(game.num_players) if n2 not in fixed]
        for n2 in free:
            t = np.tensordot(t, lattices[n2].T, axes=([0], [0]))
        out.append(t)
    return out


def _first_improving_cell(values, base, members):
    """Index of the first cell, in C order, where every member's utility in
    ``values`` beats its ``base`` by more than 1e-12; None if there is none."""
    better = np.ones(values[0].shape, dtype=bool)
    for n in members:
        better &= values[n] > base[n] + 1e-12
    if not better.any():
        return None
    return np.unravel_index(int(np.argmax(better.ravel(order="C"))),
                            better.shape)


def _reference_weak_pareto_oracle(game, x_star, grid_resolution=21):
    """Exhaustively search pure profiles and a simplex grid for a joint
    strict improvement."""
    base = [utility(game, x_star, n) for n in range(game.num_players)]
    lattices = [simplex_lattice(k, grid_resolution) for k in game.shape]
    total = int(np.prod([len(l) for l in lattices]))
    if total > GRID_CAP:
        raise ResourceError(
            f"grid of {total} points exceeds the 10^6 cap; lower the "
            f"resolution")
    players = range(game.num_players)
    # pure profiles first: when a dominating cell exists the reported witness
    # stays a vertex (exact, integer-friendly) instead of a lattice point
    indices = _first_improving_cell(game.payoffs, base, players)
    if indices is not None:
        witness = pure_strategy(game.shape, indices)
        return ParetoOracleResult(optimal=False, witness=witness,
                                  resolution=grid_resolution)
    multi = _first_improving_cell(_grid_values(game, lattices), base, players)
    if multi is None:
        return ParetoOracleResult(optimal=True, resolution=grid_resolution)
    witness = JointStrategy(tuple(lattices[n][multi[n]] for n in players))
    return ParetoOracleResult(optimal=False, witness=witness,
                              resolution=grid_resolution)


def _reference_strong_nash_oracle(game, x_star, grid_resolution=21):
    """Grid search for coalition deviations that improve every member."""
    if game.num_players > 4:
        raise ArgumentError("strong Nash oracle supports at most 4 players")
    base = [utility(game, x_star, n) for n in range(game.num_players)]
    players = range(game.num_players)
    verdicts = []
    strong = True
    for size in range(1, game.num_players + 1):
        for coalition in itertools.combinations(players, size):
            lattices = {n: simplex_lattice(game.shape[n], grid_resolution)
                        for n in coalition}
            total = int(np.prod([len(lattices[n]) for n in coalition]))
            if total > GRID_CAP:
                raise ResourceError(
                    f"coalition {coalition} grid of {total} points exceeds "
                    f"the 10^6 cap")
            fixed = {n: x_star.blocks[n] for n in players
                     if n not in coalition}
            values = _grid_values(game, [lattices.get(n) for n in players],
                                  fixed=fixed)
            multi = _first_improving_cell(values, base, coalition)
            if multi is not None:
                blocks = list(x_star.blocks)
                for pos, n in enumerate(sorted(coalition)):
                    blocks[n] = lattices[n][multi[pos]]
                witness = JointStrategy(tuple(blocks))
                verdicts.append(CoalitionVerdict(coalition=coalition,
                                                 improvable=True,
                                                 witness=witness))
                strong = False
            else:
                verdicts.append(CoalitionVerdict(coalition=coalition,
                                                 improvable=False))
    return StrongNashResult(strong_nash=strong, verdicts=tuple(verdicts),
                            resolution=grid_resolution)


def _same_strategy(got, want):
    if want is None:
        return got is None
    return got is not None and all(
        np.array_equal(a, b) for a, b in zip(got.blocks, want.blocks, strict=True))


@st.composite
def _oracle_cases(draw):
    """A 2-4 player game, a point in it and a resolution whose full grid
    stays at most 10^5 profiles, so the reference runs quickly."""
    num_players = draw(st.integers(2, 4))
    shape = tuple(draw(st.lists(st.integers(2, 4), min_size=num_players,
                                max_size=num_players)))
    fits = [r for r in range(2, 12)
            if math.prod(lattice_size(k, r) for k in shape) <= 10 ** 5]
    resolution = draw(st.sampled_from(fits))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        # small integers tie often, which pins the C-order tie-break
        game = sg.NormalFormGame(tuple(
            rng.integers(-2, 3, shape).astype(float) for _ in shape))
    else:
        game = random_game(rng, shape)
    kind = draw(st.sampled_from(["uniform", "pure", "interior"]))
    if kind == "uniform":
        point = uniform_point(shape)
    elif kind == "pure":
        point = pure_point(shape, [int(rng.integers(k)) for k in shape])
    else:
        point = random_interior(rng, shape)
    return game, point, resolution


@settings(max_examples=60, deadline=None)
@given(case=_oracle_cases())
def test_grid_oracles_match_the_reference(case):
    game, point, resolution = case
    pareto = weak_pareto_oracle(game, point, resolution)
    want = _reference_weak_pareto_oracle(game, point, resolution)
    assert pareto.optimal == want.optimal
    assert pareto.resolution == want.resolution
    assert _same_strategy(pareto.witness, want.witness)

    strong = strong_nash_oracle(game, point, resolution)
    want = _reference_strong_nash_oracle(game, point, resolution)
    assert strong.strong_nash == want.strong_nash
    assert strong.resolution == want.resolution
    assert len(strong.verdicts) == len(want.verdicts)
    for got, ref in zip(strong.verdicts, want.verdicts):
        assert got.coalition == ref.coalition
        assert got.improvable == ref.improvable
        assert _same_strategy(got.witness, ref.witness)


def test_weak_pareto_ledger_for_example_A():
    ga = sg.bundled_game("example_A")
    nash = pure_point((3, 3), (1, 1))
    assert sg.epsilon_nash_gap(ga, nash) == 0.0
    assert [sg.utility(ga, nash, n) for n in range(2)] == [2.0, 2.0]
    result = weak_pareto_oracle(ga, nash)
    assert not result.optimal
    np.testing.assert_array_equal(result.witness.concatenated(),
                                  [1.0, 0.0, 0.0, 1.0, 0.0, 0.0])
    assert [sg.utility(ga, result.witness, n) for n in range(2)] == [4.0, 4.0]

    top = pure_point((3, 3), (0, 0))
    assert sg.epsilon_nash_gap(ga, top) == pytest.approx(2.0)
    optimal = weak_pareto_oracle(ga, top)
    assert optimal.optimal
    assert optimal.resolution == 21


def test_strong_nash_oracle_verdicts():
    ga = sg.bundled_game("example_A")
    refuted = strong_nash_oracle(ga, pure_point((3, 3), (1, 1)))
    assert not refuted.strong_nash
    grand = [v for v in refuted.verdicts if v.coalition == (0, 1)]
    assert grand[0].improvable and grand[0].witness is not None

    pennies = strong_nash_oracle(sg.bundled_game("matching_pennies"),
                                 uniform_point((2, 2)))
    assert pennies.strong_nash
    assert all(not v.improvable for v in pennies.verdicts)


def test_certificate_agrees_with_pareto_oracle_on_weighted_zero_sum():
    # a feasible pair of weights makes the centered game weighted-zero-sum,
    # and the grid oracle then finds no joint improvement anywhere
    rng = np.random.default_rng(15)
    m = rng.normal(size=(3, 3))
    m = (m - m.mean(axis=0, keepdims=True)
         - m.mean(axis=1, keepdims=True) + m.mean())
    g = sg.NormalFormGame((m, -(1.0 / 1.7) * m))
    xu = uniform_point((3, 3))
    cert = solve_skew_certificate(game_jacobian(g, xu))
    assert cert.feasible
    assert weak_pareto_oracle(g, xu, grid_resolution=11).optimal


@pytest.mark.parametrize("probe", ["nan", "misshapen", "support"])
def test_jacobian_records_are_checked_once_by_every_reader(monkeypatch,
                                                           probe):
    # an all-NaN Jacobian read as a feasible certificate, a (3, 2) block in
    # a 2 x 2 game as a connected graph, and a support entry 5 of a
    # 2-action player as a stable point; now each reader raises a GameError
    # naming jac, after one check of the whole record
    blamed = (r"jac\.supports\[0\]" if probe == "support"
              else r"jac block \(1, 0\)")
    rng = np.random.default_rng(3)
    good = skew_jacobian(rng, (2, 2), np.ones(2), [(0, 1)])
    if probe == "support":
        bad = dataclasses.replace(good, supports=(np.array([5]),
                                                  np.array([0, 1])))
    else:
        block = (np.full((2, 2), np.nan) if probe == "nan"
                 else np.ones((3, 2)))
        bad = dataclasses.replace(good, blocks=(good.blocks[0],
                                                (block, good.blocks[1][1])))
    readers = {
        "solve_skew_certificate": solve_skew_certificate,
        "interaction_graph": interaction_graph,
        "uniform_stability_check": uniform_stability_check,
        "pareto_improvement_search": pareto_improvement_search,
        "verify_witness": lambda jac: verify_witness(jac, [np.eye(2)] * 2)}
    checked = stability._checked
    calls = []
    monkeypatch.setattr(stability, "_checked",
                        lambda jac: calls.append(1) or checked(jac))
    for name, reader in readers.items():
        calls.clear()
        with pytest.raises(sg.GameError, match=blamed):
            reader(bad)
        calls.clear()
        reader(good)
        assert calls == [1], name
