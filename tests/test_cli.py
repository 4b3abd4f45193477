"""End-to-end coverage of the command-line surface, run in-process."""

import csv
import io
import json
import math

import numpy as np
import pytest

from smoothgames.cli import main

from conftest import polymatrix_game


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_game(tmp_path, name, payoffs):
    arrs = [np.asarray(p, dtype=float) for p in payoffs]
    data = {
        "players": len(arrs),
        "shape": list(arrs[0].shape),
        "payoffs": [a.ravel(order="C").tolist() for a in arrs],
        "name": name,
    }
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data))
    return str(path)


# ---------------------------------------------------------------------------
# analyze

def test_analyze_pure_point_report(capsys):
    code, out, _ = run_cli(capsys, ["analyze", "example_A", "--at", "pure:1,1"])
    assert code == 0
    data = json.loads(out)
    assert data["nash_gap"] == 0.0
    assert data["utilities"] == [2.0, 2.0]
    assert data["quasi_strict"]["status"] == "quasi_strict"
    # a pure point has no tangent directions left to certify over
    assert data["stability"]["pointwise"] == "indeterminate"
    assert data["weak_pareto"]["optimal"] is False
    assert data["weak_pareto"]["witness_utilities"] == [4.0, 4.0]
    assert data["weak_pareto"]["witness"] == [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
    assert data["strong_nash"]["strong_nash"] is False
    assert [0, 1] in data["strong_nash"]["improvable_coalitions"]


def test_analyze_solved_pennies_is_stable(capsys):
    code, out, _ = run_cli(capsys, ["analyze", "matching_pennies", "--solve",
                                    "--beta", "0.01"])
    assert code == 0
    data = json.loads(out)
    assert data["solved"]["residual"] == 0.0
    assert data["solved"]["nash_gap"] == 0.0
    assert data["stability"]["pointwise"] == "stable"
    assert data["stability"]["certificate"]["lambdas"] == [1.0, 1.0]
    assert data["stability"]["assumptions"] == {"connected": True,
                                                "bidirectional": True}
    assert data["weak_pareto"]["optimal"] is True


def test_analyze_solved_coordination_center_is_unstable(capsys):
    code, out, _ = run_cli(capsys, ["analyze", "coordination_2x2", "--solve",
                                    "--beta", "0.01"])
    assert code == 0
    data = json.loads(out)
    assert data["solved"]["residual"] == 0.0  # the mixed center is exact
    assert data["stability"]["pointwise"] == "unstable_with_witness"
    assert data["stability"]["witness"]["real_part"] > 1e-6
    assert len(data["stability"]["witness"]["blocks_row_major"]) == 2
    assert data["weak_pareto"]["optimal"] is False


def test_analyze_output_is_deterministic(capsys):
    argv = ["analyze", "coordination_2x2", "--seed", "7"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second


def test_analyze_writes_output_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, ["analyze", "matching_pennies",
                                    "--output", str(target)])
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert text.endswith("\n")
    assert json.loads(text)["stability"]["pointwise"] == "stable"


def test_analyze_large_grid_skips_oracles(capsys):
    code, out, _ = run_cli(capsys, ["analyze", "matching_pennies",
                                    "--grid-resolution", "1001"])
    assert code == 0
    data = json.loads(out)
    assert "skipped" in data["weak_pareto"]
    assert "strong_nash" not in data


def test_analyze_certificate_json_on_skew_polymatrix(capsys, tmp_path):
    # a connected lambda-skew game has a feasible certificate with a tiny
    # nonzero residual, which must serialize as a plain JSON boolean
    rng = np.random.default_rng(5)
    game, _ = polymatrix_game(rng, (2, 3, 2), lam=(1.0, 2.0, 0.5))
    path = write_game(tmp_path, "skew", game.payoffs)
    target = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, ["analyze", path, "--at", "uniform",
                                  "--grid-resolution", "5",
                                  "--output", str(target)])
    assert code == 0
    data = json.loads(target.read_text())
    assert data["stability"]["certificate"]["feasible"] is True
    assert data["stability"]["pointwise"] == "stable"


def test_analyze_accepts_json_regularizer_spec(capsys):
    code, out, _ = run_cli(capsys, ["analyze", "matching_pennies",
                                    "--reg", '{"kind": "entropy"}'])
    assert code == 0
    assert json.loads(out)["stability"]["pointwise"] == "stable"


# ---------------------------------------------------------------------------
# equilibrium

def test_equilibrium_trace_reaches_small_gap(capsys):
    code, out, _ = run_cli(capsys, [
        "equilibrium", "example_A", "--betas", "1,0.3,0.1,0.03,0.01",
        "--x0", "0.5,0.3,0.2;0.2,0.5,0.3"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["beta", "p0_0", "p0_1", "p0_2", "p1_0", "p1_1", "p1_2",
                      "residual", "nash_gap"]
    assert len(rows) == 6
    assert [float(r[0]) for r in rows[1:]] == [1.0, 0.3, 0.1, 0.03, 0.01]
    final = rows[-1]
    assert float(final[7]) <= 1e-10
    assert float(final[8]) <= 0.01 * math.log(3.0)


def test_equilibrium_exit_code_on_cycling(capsys):
    code, _, err = run_cli(capsys, [
        "equilibrium", "matching_pennies", "--betas", "0.003",
        "--x0", "0.9,0.1;0.8,0.2"])
    assert code == 3
    assert "homotopy failed at beta=0.003" in err


# ---------------------------------------------------------------------------
# simulate

def test_simulate_auto_eta_reports_threshold(capsys):
    code, out, err = run_cli(capsys, ["simulate", "matching_pennies",
                                      "--beta", "0.1", "--horizon", "5"])
    assert code == 0
    assert "eta=auto resolved to 0.005000000000000001" in err
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["t", "p0_0", "p0_1", "p1_0", "p1_1",
                       "distance", "spectral_radius", "classification"]
    assert len(rows) == 7  # t = 0..5
    # starting at the equilibrium, the distance column stays at zero
    assert all(float(r[5]) == 0.0 for r in rows[1:])
    assert rows[1][6] == "0.99625548931988328"
    assert rows[1][7] == "asymptotically_stable"


def test_simulate_rejects_non_numeric_eta(capsys):
    code, _, err = run_cli(capsys, ["simulate", "matching_pennies",
                                    "--beta", "0.1", "--eta", "fast"])
    assert code == 2
    assert "bad eta" in err


def test_simulate_record_every_thins_rows(capsys):
    code, out, _ = run_cli(capsys, ["simulate", "matching_pennies",
                                    "--beta", "0.1", "--eta", "0.01",
                                    "--horizon", "10", "--record-every", "5"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert [r[0] for r in rows[1:]] == ["0", "5", "10"]


# ---------------------------------------------------------------------------
# sweep

def test_sweep_output_matches_across_jobs(capsys):
    argv = ["sweep", "coordination_2x2", "--betas", "0.3,0.1",
            "--etas", "0.01,0.1", "--horizon", "50"]
    code1, out1, _ = run_cli(capsys, argv + ["--jobs", "1"])
    code2, out2, _ = run_cli(capsys, argv + ["--jobs", "2"])
    assert code1 == code2 == 0
    assert out1 == out2
    rows = list(csv.reader(io.StringIO(out1)))
    assert rows[0][:2] == ["beta", "eta"]
    assert len(rows) == 5


def test_sweep_carries_solver_errors_per_cell(capsys, tmp_path):
    rng = np.random.default_rng(0)
    t1 = rng.normal(size=(3, 3))
    path = write_game(tmp_path, "zs", [t1, -t1])
    code, out, _ = run_cli(capsys, ["sweep", path, "--betas", "0.3,0.003",
                                    "--etas", "0.01", "--horizon", "20"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][-1] == "error"
    by_beta = {float(r[0]): r for r in rows[1:]}
    assert by_beta[0.3][-1] == ""
    assert by_beta[0.3][-2] != ""  # classification present
    assert "CyclingError" in by_beta[0.003][-1]


# ---------------------------------------------------------------------------
# probe-steepness

def test_probe_rows_stay_under_entropy_envelope(capsys):
    code, out, _ = run_cli(capsys, ["probe-steepness", "--dim", "2",
                                    "--eps", "0.5",
                                    "--betas", "0.2,0.1,0.05"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["beta", "ratio", "entropy_envelope"]
    ratios = [float(r[1]) for r in rows[1:]]
    envelopes = [float(r[2]) for r in rows[1:]]
    for ratio, envelope in zip(ratios, envelopes):
        assert 0 < ratio <= envelope * (1 + 1e-6)
    assert ratios == sorted(ratios, reverse=True)


# ---------------------------------------------------------------------------
# failure paths

def test_missing_game_file_exits_2(capsys):
    code, _, err = run_cli(capsys, ["analyze", "/nonexistent/game.json"])
    assert code == 2
    assert "error:" in err


def test_malformed_point_spec_exits_2(capsys):
    code, _, err = run_cli(capsys, ["analyze", "matching_pennies",
                                    "--at", "pure:0"])
    assert code == 2
    assert "pure spec names 1 actions for 2 players" in err


def test_oversized_game_exits_4(capsys, tmp_path):
    data = {"players": 2, "shape": [4000, 4000], "payoffs": [[], []]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, ["analyze", str(path)])
    assert code == 4
    assert "exceeds" in err
