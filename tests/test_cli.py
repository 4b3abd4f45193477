"""End-to-end coverage of the command-line surface, run in-process."""

import csv
import hashlib
import io
import json
import math
import signal
import time
import warnings

import numpy as np
import pytest

import smoothgames as sg
from smoothgames.cli import _beta_schedule, _solve_at, main
from smoothgames.errors import ConvergenceError, GameError
from smoothgames.response import FlatKernel

from conftest import polymatrix_game, quadratic_regularizers, random_game


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


# sha256 of the analyze JSON of each bundled game at the uniform point and
# at one explicit interior point, recorded before the analyze path was
# optimised (numpy 2.4, OpenBLAS 0.3, x86-64).  An optimisation of that path
# must keep every byte; another BLAS may round some of them differently.
ANALYZE_DIGESTS = {
    ("matching_pennies", "uniform"):
        "1b653db034e238a5816b5d0641dd6ed27fa825965a8d8329e9135553ac00c48f",
    ("matching_pennies", "0.3,0.7;0.6,0.4"):
        "d52bcd1f0da015cdfa133c4e782c68538ab76f5137cc83a5a575a632c0dfa12d",
    ("coordination_2x2", "uniform"):
        "891f608ecbcff4c78c638de1a3e83efc0396eb49a5e6d4d1cfdb4826754f0b2c",
    ("coordination_2x2", "0.3,0.7;0.6,0.4"):
        "2e4ae446815e63a1c42d73c60aa355c88bc1ca796f8b4fa11cad5a76b99aa418",
    ("example_A", "uniform"):
        "42ec8f1b033c5a08ec410bcc90910014d601a0fb2d190c475023ba1eae1e5233",
    ("example_A", "0.2,0.3,0.5;0.5,0.25,0.25"):
        "cd5767b50beec8c7d554bd5b414d41ee3c77e8ca94a1debdb6b13268061e6438",
}


@pytest.mark.parametrize("game,at", sorted(ANALYZE_DIGESTS))
def test_analyze_json_matches_its_golden_digest(capsys, game, at):
    code, out, _ = run_cli(capsys, ["analyze", game, "--at", at])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        ANALYZE_DIGESTS[game, at], out


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
    assert data["weak_pareto"] == {
        "skipped": "grid of 1002001 points exceeds the 1000000 cap"}
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


def test_simulate_auto_eta_reports_the_radius_it_sampled(capsys,
                                                         monkeypatch):
    # the note names the ball eta_threshold sampled, not a copy of its
    # size; on example_A the threshold depends on that ball
    monkeypatch.setattr(sg.cli, "SAMPLE_BALL_RADIUS", 0.02)
    code, _, err = run_cli(capsys, ["simulate", "example_A", "--beta", "0.1",
                                    "--horizon", "1"])
    assert code == 0
    assert "(L sampled on an inf-norm ball of radius 0.02)" in err
    g = sg.bundled_game("example_A")
    regs = tuple(sg.entropy(k) for k in g.shape)
    cfg = sg.SmoothedResponseConfig(beta=0.1, regularizers=regs)
    eq = _solve_at(g, regs, 0.1)
    eta = sg.eta_threshold(g, cfg, eq, radius=0.02)
    assert eta != sg.eta_threshold(g, cfg, eq)
    assert f"eta=auto resolved to {eta:.17g} " in err


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


def test_probe_zero_beta_exits_2(capsys):
    code, _, err = run_cli(capsys, ["probe-steepness", "--betas", "0"])
    assert code == 2
    assert "beta must be positive and finite" in err


def test_probe_non_object_spec_exits_2(capsys):
    code, _, err = run_cli(capsys, ["probe-steepness", "--spec", "[1]"])
    assert code == 2
    assert "regularizer spec must be a JSON object" in err


def test_negative_conditioner_budget_exits_2(capsys):
    code, _, err = run_cli(capsys, ["analyze", "coordination_2x2",
                                    "--conditioners", "-5"])
    assert code == 2
    assert "num_conditioners must be a non-negative integer" in err


@pytest.mark.parametrize("argv", [
    ["analyze", "coordination_2x2", "--seed", "-1"],
    ["simulate", "matching_pennies", "--beta", "0.1", "--horizon", "5",
     "--seed", "-3"],
    ["probe-steepness", "--random-probe", "--seed", "-1"],
    ["sweep", "matching_pennies", "--seed", "-1"],
], ids=["analyze", "simulate", "probe_steepness", "sweep"])
def test_negative_seed_exits_2(capsys, argv):
    code, _, err = run_cli(capsys, argv)
    assert code == 2
    assert "seed must be a non-negative integer" in err


class Hung(Exception):
    """Raised by the alarm of a CLI call that overruns its time limit."""


def run_cli_within(capsys, argv, seconds):
    """run_cli, failing the test if the call runs longer than ``seconds``."""
    def overrun(*_):
        raise Hung(f"{argv} ran longer than {seconds} s")

    previous = signal.signal(signal.SIGALRM, overrun)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return run_cli(capsys, argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("beta", ["-1", "0", "nan", "inf"])
def test_analyze_solve_rejects_a_bad_beta_at_once(capsys, beta):
    # the continuation schedule towards a target at or below 0 never ends
    start = time.perf_counter()
    code, _, err = run_cli_within(
        capsys, ["analyze", "matching_pennies", "--solve", "--beta", beta],
        1.0)
    assert code == 2
    assert time.perf_counter() - start < 1.0
    assert "--beta must be positive and finite" in err


def test_sweep_zero_horizon_exits_2(capsys):
    code, out, err = run_cli(capsys, ["sweep", "matching_pennies",
                                      "--horizon", "0"])
    assert code == 2
    assert out == ""
    assert "horizon must be a positive integer" in err


def test_equilibrium_infinite_tolerance_exits_2(capsys):
    code, out, err = run_cli(capsys, ["equilibrium", "matching_pennies",
                                      "--tol", "inf"])
    assert code == 2
    assert out == ""
    assert "outer_tol must be positive and finite" in err


def test_negative_grid_resolution_exits_2(capsys):
    code, _, err = run_cli(capsys, ["analyze", "coordination_2x2",
                                    "--grid-resolution", "-1"])
    assert code == 2
    assert "resolution must be a non-negative integer" in err


def test_non_finite_regularizer_spec_exits_2(capsys):
    spec = ('{"kind": "quadratic_entropy", "lambda": NaN, '
            '"A": [[1, 0], [0, 1]], "w": [0.5, 0.5]}')
    code, _, err = run_cli(capsys, ["simulate", "matching_pennies",
                                    "--beta", "0.1", "--reg", spec])
    assert code == 2
    assert "lam must be positive and finite" in err


def test_oversized_game_exits_4(capsys, tmp_path):
    data = {"players": 2, "shape": [4000, 4000], "payoffs": [[], []]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, ["analyze", str(path)])
    assert code == 4
    assert "exceeds" in err


def test_simulate_beta_too_small_to_divide_by_exits_2(capsys):
    # 1/beta overflows, so the response Jacobian of the verdict is not
    # finite
    code, out, err = run_cli(capsys, ["simulate", "matching_pennies",
                                      "--beta", "1e-320", "--eta", "0.1",
                                      "--horizon", "5"])
    assert code == 2
    assert out == ""
    assert "error: the response Jacobian is not finite at beta=" in err


def test_sweep_beta_too_small_to_divide_by_fails_only_its_cells(capsys):
    code, out, _ = run_cli(capsys, ["sweep", "matching_pennies", "--betas",
                                    "0.3,1e-320", "--etas", "0.1",
                                    "--horizon", "5"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["error"] == ""
    assert rows[0]["classification"] == "asymptotically_stable"
    assert rows[1]["error"].startswith(
        "DomainError: the response Jacobian is not finite")


@pytest.mark.parametrize("argv, exit_code", [
    (["simulate", "matching_pennies", "--beta", "1e-320", "--eta", "0.1",
      "--horizon", "5"], 2),
    (["sweep", "matching_pennies", "--betas", "1e-320", "--etas", "0.1",
      "--horizon", "5"], 0)])
def test_beta_too_small_to_divide_by_warns_nothing(capsys, argv, exit_code):
    # the overflowing response Jacobian is reported by its error alone: on
    # stderr by simulate, in the cell's error column by sweep
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, argv)
    assert code == exit_code
    assert "the response Jacobian is not finite at beta=" in out + err
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] \
        == []
    assert "Warning" not in err


def test_probe_of_one_action_exits_2(capsys):
    code, out, err = run_cli(capsys, ["probe-steepness", "--dim", "1"])
    assert code == 2
    assert out == ""
    assert "needs a regularizer of dimension 2 or more" in err


# each subcommand's numeric flags, over a command line that keeps a run short
NUMERIC_FLAGS = [
    (("analyze", "matching_pennies", "--solve", "--grid-resolution", "3",
      "--conditioners", "2"),
     ("--beta", "--grid-resolution", "--conditioners", "--seed")),
    (("equilibrium", "matching_pennies"), ("--betas", "--tol", "--seed")),
    (("simulate", "matching_pennies", "--beta", "0.3", "--horizon", "5"),
     ("--beta", "--eta", "--horizon", "--record-every", "--seed")),
    (("sweep", "matching_pennies", "--horizon", "5"),
     ("--betas", "--etas", "--horizon", "--seed")),
    (("probe-steepness",), ("--dim", "--index", "--eps", "--betas",
                            "--seed")),
]


@pytest.mark.parametrize("value", ["0", "1", "-1", "nan", "inf", "1e308",
                                   "1e-320"])
@pytest.mark.parametrize("base, flag", [
    (base, flag) for base, flags in NUMERIC_FLAGS for flag in flags],
    ids=[f"{base[0]}{flag}" for base, flags in NUMERIC_FLAGS
         for flag in flags])
def test_numeric_flag_extremes_exit_with_a_documented_code(capsys, base,
                                                           flag, value):
    # a flag given twice takes its last value
    try:
        code, _, _ = run_cli_within(capsys, [*base, flag, value], 10.0)
    except SystemExit as exit:  # argparse rejects what its type cannot read
        code = exit.code
    assert code in (0, 2, 3, 4)


@pytest.mark.parametrize("betas, message", [
    ("1,a", "bad numeric list '1,a'"),
    (",", "empty numeric list ','"),
], ids=["non_number", "empty"])
def test_bad_beta_list_exits_2(capsys, betas, message):
    code, out, err = run_cli(capsys, ["equilibrium", "matching_pennies",
                                      "--betas", betas])
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("at, message", [
    ("pure:a,b", "bad pure-strategy spec 'pure:a,b'"),
    ("0.5,0.5", "point spec has 1 blocks for 2 players"),
], ids=["bad_pure", "block_count"])
def test_bad_point_spec_exits_2(capsys, at, message):
    code, out, err = run_cli(capsys, ["analyze", "matching_pennies",
                                      "--at", at])
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("reg, message", [
    ("{bad", "regularizer spec is not JSON"),
    ("3", "regularizer spec must be a JSON object or list"),
], ids=["not_json", "neither_object_nor_list"])
def test_bad_regularizer_spec_exits_2(capsys, reg, message):
    code, out, err = run_cli(capsys, ["analyze", "matching_pennies",
                                      "--solve", "--reg", reg])
    assert code == 2
    assert out == ""
    assert message in err


def _quadratic_spec(k):
    return {"kind": "quadratic_entropy", "lambda": 0.5,
            "A": (2.0 * np.eye(k)).tolist(), "w": np.eye(k)[0].tolist()}


def test_per_player_regularizer_list_applies_in_order(capsys, tmp_path):
    # a (2, 3) game: the quadratic spec fits player 0 only
    rng = np.random.default_rng(3)
    path = write_game(tmp_path, "g23", [rng.normal(size=(2, 3)),
                                        rng.normal(size=(2, 3))])
    argv = ["equilibrium", path, "--betas", "1"]
    code, by_player, _ = run_cli(capsys, argv + [
        "--reg", json.dumps([_quadratic_spec(2), {"kind": "entropy"}])])
    assert code == 0
    code, entropic, _ = run_cli(capsys, argv + ["--reg", "entropy"])
    assert code == 0
    # player 0's quadratic term moves the traced equilibrium
    assert by_player != entropic
    assert len(list(csv.reader(io.StringIO(by_player)))) == 2
    code, _, err = run_cli(capsys, argv + [
        "--reg", json.dumps([{"kind": "entropy"}, _quadratic_spec(2)])])
    assert code == 2
    assert "regularizer dimension 2 does not match expected 3" in err


def test_per_player_regularizer_list_of_the_wrong_length_exits_2(capsys):
    code, out, err = run_cli(capsys, ["analyze", "matching_pennies", "--solve",
                                      "--reg", json.dumps([_quadratic_spec(2)])])
    assert code == 2
    assert out == ""
    assert "1 regularizer specs for 2 players" in err


def test_analyze_solve_at_a_beta_above_one_solves_there_alone(capsys):
    # the schedule of a target at or above 1 is the target alone
    code, out, _ = run_cli(capsys, ["analyze", "coordination_2x2", "--solve",
                                    "--beta", "2"])
    assert code == 0
    solved = json.loads(out)["solved"]
    assert solved["beta"] == 2.0
    assert solved["residual"] <= 1e-10


def _full_trace(game, regs, beta):
    """The last point of the trace down ``beta``'s whole schedule, every
    rung solved to the default tolerance."""
    schedule = _beta_schedule(beta)
    cfg = sg.SmoothedResponseConfig(beta=schedule[0], regularizers=regs)
    return sg.homotopy_trace(game, cfg, schedule)[-1]


def test_solve_at_polishes_only_the_target(monkeypatch):
    # the rungs before the target are warm starts, traced to sqrt(1e-10);
    # the target is still solved to 1e-10, on the full trace's branch
    calls = []
    respond = FlatKernel.respond
    monkeypatch.setattr(FlatKernel, "respond",
                        lambda self, X: calls.append(1) or respond(self, X))
    rng = np.random.default_rng([34, 5])
    game = random_game(rng, (3, 3))
    regs = quadratic_regularizers(rng, (3, 3))
    got = _solve_at(game, regs, 0.1)
    solve_calls = len(calls)
    calls.clear()
    full = _full_trace(game, regs, 0.1)
    assert solve_calls < len(calls)  # 20 against 38
    assert got.beta == 0.1
    assert got.residual <= 1e-10
    assert np.max(np.abs(got.point.concatenated()
                         - full.point.concatenated())) <= 1e-9


def test_solve_at_agrees_with_the_full_trace():
    # 24 draws, each regularizer kind at every target twice: _solve_at
    # solves where the full trace solves, at its point, and fails where it
    # fails, with the same error class and the homotopy's message
    shapes = ((2, 2), (3, 3), (2, 3), (4, 4), (2, 2, 2))
    targets = (0.3, 0.1, 0.03, 0.01, 0.003, 0.001)
    seen = set()
    for seed in range(24):
        rng = np.random.default_rng([34, seed])
        shape = shapes[seed % len(shapes)]
        game = random_game(rng, shape)
        quadratic = (seed // len(targets)) % 2
        regs = (quadratic_regularizers(rng, shape) if quadratic
                else tuple(sg.entropy(k) for k in shape))
        beta = targets[seed % len(targets)]
        try:
            full = _full_trace(game, regs, beta)
        except GameError as err:
            with pytest.raises(type(err)) as got:
                _solve_at(game, regs, beta)
            if isinstance(err, ConvergenceError):
                assert got.value.args[0].startswith("homotopy failed at beta=")
            seen.add((quadratic, False))
            continue
        got = _solve_at(game, regs, beta)
        assert (got.beta, seed) == (beta, seed)
        assert got.residual <= 1e-10, seed
        assert np.max(np.abs(got.point.concatenated()
                             - full.point.concatenated())) <= 1e-9, seed
        seen.add((quadratic, True))
    assert seen == {(0, True), (0, False), (1, True), (1, False)}


def cycling_game(tmp_path):
    """A 3x3 zero-sum game whose homotopy towards beta = 0.003 cycles."""
    t1 = np.random.default_rng(0).normal(size=(3, 3))
    return write_game(tmp_path, "zs", [t1, -t1])


def test_simulate_auto_eta_exits_3_when_the_homotopy_fails(capsys, tmp_path):
    code, out, err = run_cli(capsys, ["simulate", cycling_game(tmp_path),
                                      "--beta", "0.003", "--horizon", "3"])
    assert code == 3
    assert out == ""
    assert "homotopy failed" in err


def test_simulate_explicit_eta_runs_without_an_equilibrium(capsys, tmp_path):
    code, out, err = run_cli(capsys, ["simulate", cycling_game(tmp_path),
                                      "--beta", "0.003", "--eta", "0.1",
                                      "--horizon", "3"])
    assert code == 0
    assert "smoothed equilibrium not found; distance column will be empty" \
        in err
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][7:] == ["distance", "spectral_radius", "classification"]
    assert len(rows) == 5  # t = 0..3
    assert all(r[7:] == ["", "", ""] for r in rows[1:])


@pytest.mark.parametrize("spec, envelope", [
    ({"kind": "entropy"}, True),
    (_quadratic_spec(3), False),
], ids=["entropy", "quadratic_entropy"])
def test_probe_accepts_a_json_spec(capsys, spec, envelope):
    code, out, _ = run_cli(capsys, ["probe-steepness", "--spec",
                                    json.dumps(spec), "--dim", "3",
                                    "--betas", "0.2,0.1"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["beta", "ratio", "entropy_envelope"]
    assert len(rows) == 3
    assert all(float(r[1]) > 0 for r in rows[1:])
    assert all((r[2] != "") == envelope for r in rows[1:])


# ---------------------------------------------------------------------------
# output and parsing plumbing

@pytest.mark.parametrize("argv", [
    ["equilibrium", "matching_pennies", "--betas", "1,0.3"],
    ["simulate", "matching_pennies", "--beta", "0.3", "--eta", "0.1",
     "--horizon", "3"],
    ["sweep", "matching_pennies", "--betas", "0.3", "--etas", "0.1",
     "--horizon", "3"],
    ["probe-steepness", "--betas", "0.2,0.1"],
], ids=["equilibrium", "simulate", "sweep", "probe_steepness"])
def test_csv_outputs_share_one_writer(capsys, tmp_path, argv):
    path = tmp_path / "out.csv"
    code, _, _ = run_cli(capsys, argv + ["--output", str(path)])
    assert code == 0
    lines = path.read_bytes().split(b"\n")
    assert lines[-1] == b"" and len(lines) > 2
    assert all(line.endswith(b"\r") for line in lines[:-1])


def test_parser_is_built_once_and_keeps_no_state_between_calls():
    from smoothgames import cli
    assert cli._parser() is cli._parser()
    cli._parser().parse_args(["analyze", "g.json", "--seed", "3",
                              "--at", "pure:0,0", "--solve"])
    again = cli._parser().parse_args(["analyze", "g.json"])
    fresh = cli.build_parser().parse_args(["analyze", "g.json"])
    assert vars(again) == vars(fresh)
