"""The input contract of the public API.

Every callable exported from ``smoothgames`` either handles an input or
rejects it with a ``GameError`` subclass, which the CLI maps to its
documented exit code; nothing it returns holds a NaN.

Each row of ``ROWS`` gives valid arguments for one exported callable and
the kind of each parameter.  A kind turns the valid value into ten bad
ones (nan, inf, -1, 0, a fraction, a bool, None, a string, a wrong shape
and an empty value, plus extras such as an out-of-range index) and says
which of them may be handled; the others must be rejected by an error
whose message names the parameter (the kind's ``label``, by default the
parameter's name).  Hypothesis draws the parameter and the bad value; the
other arguments stay valid.  Parameters typed by a package class (a game,
a strategy, a config) are given None, a string, an instance of another
package class and, where another argument fixes the shape, one of the
wrong shape; the rejection of a value of the wrong type names the
parameter itself.
Callables without a row need an entry in ``EXEMPT`` with a reason.
"""

import dataclasses
import inspect
import math
import re
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import smoothgames as sg
from smoothgames.errors import GameError

NAN, INF = math.nan, math.inf


@dataclass(frozen=True)
class Kind:
    """Bad values of one parameter: ``bad`` maps a name to a value, and
    the names in ``accept`` may be handled instead of rejected.  A
    rejection's message must match ``label``, or name the parameter for
    the names in ``named``.  ``files`` marks a path: the file system's own
    OSError may then escape too."""

    bad: dict
    accept: frozenset = frozenset()
    label: str = None
    files: bool = False
    named: frozenset = frozenset()


def _kind(bad, accept=(), **options):
    return Kind(bad=bad, accept=frozenset(accept), **options)


def _with_entry(value, entry):
    out = np.array(value, dtype=float)
    out.flat[0] = entry
    return out


def number(valid, accept=(), fraction=None, **extra):
    """A scalar; its wrong shape is a list of two valid values."""
    return _kind({"nan": NAN, "inf": INF, "-1": -1, "0": 0,
                  "fraction": valid + 0.5 if fraction is None else fraction,
                  "bool": True, "None": None, "string": "a",
                  "wrong shape": [valid, valid], "empty": [],
                  **extra.pop("bad", {})}, accept, **extra)


def index(size, **options):
    """An integer in [0, size), valid at 0."""
    return number(0, ("0",), bad={"out of range": size}, **options)


def count(valid, positive=True, accept=(), **options):
    return number(valid, (() if positive else ("0",)) + tuple(accept),
                  **options)


def positive(valid, **options):
    return number(valid, ("fraction",), **options)


def non_negative(valid, **options):
    return number(valid, ("0", "fraction"), **options)


def array(valid, accept=("-1", "0", "fraction"), **options):
    """A float array: -1, 0 and fraction fill it or scale it."""
    v = np.asarray(valid, dtype=float)
    return _kind({"nan": _with_entry(v, NAN), "inf": _with_entry(v, INF),
                  "-1": np.full_like(v, -1.0), "0": np.zeros_like(v),
                  "fraction": 0.5 * v, "bool": True, "None": None,
                  "string": "a",
                  "wrong shape": np.ones(v.shape[:-1] + (v.shape[-1] + 1,)),
                  "empty": []}, accept, **options)


def simplex(valid, **options):
    """A point of a probability simplex: no bad value is one."""
    return array(valid, (), **options)


def blocks(valid, accept=(), **options):
    """One vector or tensor per player; the first block gets the entry."""
    first, rest = np.asarray(valid[0], dtype=float), tuple(valid[1:])
    return _kind({"nan": (_with_entry(first, NAN),) + rest,
                  "inf": (_with_entry(first, INF),) + rest,
                  "-1": tuple(np.full_like(b, -1.0) for b in valid),
                  "0": tuple(np.zeros_like(b) for b in valid),
                  "fraction": tuple(0.5 * np.asarray(b) for b in valid),
                  "bool": True, "None": None, "string": "ab",
                  "wrong shape": (first[None],) + rest, "empty": ()},
                 accept, **options)


def integers(valid, accept=(), bad=None, **options):
    """A tuple of integers (a shape, pure indices or a support); the
    first entry gets the bad number."""
    rest = tuple(valid[1:])
    return _kind({"nan": (NAN,) + rest, "inf": (INF,) + rest,
                  "-1": (-1,) + rest, "0": (0,) + rest,
                  "fraction": (valid[0] + 0.5,) + rest, "bool": True,
                  "None": None, "string": "a", "wrong shape": (valid,),
                  "empty": (), **(bad or {})}, accept, **options)


def support(accept=(), **options):
    """A support of a 2-action player, valid as (0, 1)."""
    return integers((0, 1), ("0",) + tuple(accept),
                    bad={"out of range": (9,), "repeated": (1, 1)},
                    label="support", **options)


def supports(valid, accept=(), **options):
    """One support per player; the first gets the bad entry."""
    rest = tuple(valid[1:])
    head = tuple(valid[0][1:])
    return _kind({"nan": ((NAN,) + head,) + rest,
                  "inf": ((INF,) + head,) + rest,
                  "-1": ((-1,) + head,) + rest, "0": ((0,) + head,) + rest,
                  "fraction": ((0.5,) + head,) + rest, "bool": True,
                  "None": None, "string": "a", "wrong shape": tuple(valid[:1]),
                  "empty": (), "repeated": ((valid[0][-1],) + head,) + rest},
                 accept, label="support|player", **options)


def sequence(valid, accept=(), **options):
    """A sequence of package objects: the bad values replace it whole,
    and its wrong shape nests it one level deeper."""
    return _kind({"nan": NAN, "inf": INF, "-1": -1, "0": 0, "fraction": 0.5,
                  "bool": True, "None": None, "string": "a",
                  "wrong shape": (tuple(valid),), "empty": ()},
                 accept, **options)


def grid(valid, accept=(), **options):
    """A list of reals; the first entry gets the bad number."""
    rest = list(valid[1:])
    return _kind({"nan": [NAN] + rest, "inf": [INF] + rest, "-1": [-1] + rest,
                  "0": [0] + rest, "fraction": [valid[0] + 0.5] + rest,
                  "bool": True, "None": None, "string": "a",
                  "wrong shape": [list(valid)], "empty": []},
                 accept, **options)


def mapping(valid, wrong, **options):
    """A JSON-form dict; ``wrong`` is one with a misshapen field."""
    return _kind({"nan": NAN, "inf": INF, "-1": -1, "0": 0, "fraction": 0.5,
                  "bool": True, "None": None, "string": "a",
                  "wrong shape": wrong, "empty": {}}, **options)


def text(valid, accept=("string",), **options):
    return number(0, accept, fraction=0.5,
                  bad={"wrong shape": [valid], "empty": []}, **options)


def path(valid, accept=("string", "empty"), **options):
    """A file name: every non-path is rejected; a missing file is the
    file system's error."""
    return text(valid, accept, files=True, **options)


def own(other=None, accept=(), **options):
    """A package object that sets the shape of the call (the one game or
    strategy of a call, a Jacobian, an equilibrium, a report, sweep cells,
    a trajectory, a random generator): no instance of it has the wrong
    shape, but None, a string and ``other``, an instance of another package
    class (by default a game), are of the wrong type."""
    wrong_type = {"None": None, "string": "a",
                  "other class": PENNIES if other is None else other}
    return _kind({**wrong_type, **options.pop("bad", {})}, accept,
                 named=frozenset(wrong_type), **options)


def equilibrium(accept=()):
    """An equilibrium a function takes back: the wrong types of ``own``,
    and the record with a NaN beta or without its point."""
    return own(accept=accept, bad={
        "nan beta": dataclasses.replace(EQ, beta=NAN),
        "no point": dataclasses.replace(EQ, point=None)})


def typed(wrong_shape, other=None, accept=(), **options):
    """A parameter typed by a package class: the wrong types of ``own``,
    and one of the wrong shape."""
    return own(other, accept, bad={"wrong shape": wrong_shape}, **options)


# a flag: any value is read for its truth only
FLAG = _kind({})


# ---------------------------------------------------------------------------
# fixtures

PENNIES = sg.bundled_game("matching_pennies")
WIDE = sg.NormalFormGame((np.arange(6.0).reshape(2, 3),
                          -np.arange(6.0).reshape(2, 3)))
X = sg.uniform_strategy((2, 2))
X_WIDE = sg.uniform_strategy((2, 3))
CFG = sg.entropy_config(PENNIES, 0.5)
CFG_WIDE = sg.entropy_config(WIDE, 0.5)
DYN = sg.DynamicsConfig(eta=0.5, response=CFG, horizon=3)
DYN_WIDE = sg.DynamicsConfig(eta=0.5, response=CFG_WIDE, horizon=3)
EQ = sg.find_smoothed_equilibrium(PENNIES, CFG)
JAC = sg.game_jacobian(PENNIES, X)
R2 = sg.entropy(2)
Q2 = sg.quadratic_entropy(0.5, 2.0 * np.eye(2), [0.5, 0.5])
PI3 = sg.centering_projection(3)
CELLS = sg.sweep(PENNIES, [0.5], [0.5], (R2, R2), horizon=3)
TRAJECTORY = sg.run(PENNIES, DYN, X)
VERDICT = CELLS[0].verdict
REPORT = sg.uniform_stability_check(JAC)

GAME = typed(WIDE, X, label="shape|dimension")
STRATEGY = typed(X_WIDE, label="shape")
START = typed(X_WIDE, accept=("None",), label="shape")  # None: the default
CONFIG = typed(CFG_WIDE, DYN, label="regularizer|shape")
DYNAMICS = typed(DYN_WIDE, CFG, label="regularizer|shape")
REGS = sequence((R2, R2), label="regulari[sz]er")
ACTIONS = count(2, label="action count")
REGULARIZER = typed(sg.entropy(3), CFG, label="shape")

P = np.array([0.5, 0.5])
SEED = count(0, positive=False)
RESOLUTION = count(3, label="resolution")


def row(fn, **params):
    """A row: the callable and, per parameter, (valid value, kind)."""
    return fn, params


ROWS = {
    # games
    "JointStrategy": row(
        sg.JointStrategy,
        blocks=((P, P), blocks((P, P), label="block|player"))),
    "NormalFormGame": row(
        sg.NormalFormGame,
        payoffs=(PENNIES.payoffs,
                 blocks(PENNIES.payoffs, ("-1", "0", "fraction"),
                        label="tensor|player|payoffs")),
        name=("pennies", text("pennies"))),
    "TangentVector": row(
        sg.TangentVector,
        blocks=(((0.5, -0.5), (0.25, -0.25)),
                blocks(((0.5, -0.5), (0.25, -0.25)), ("0", "fraction"),
                       label="block|player"))),
    "uniform_strategy": row(
        sg.uniform_strategy,
        shape=((2, 2), integers((2, 2), label="action count|shape|player"))),
    "pure_strategy": row(
        sg.pure_strategy,
        shape=((2, 2), integers((2, 2), label="action count|shape|player")),
        indices=((0, 1), integers((0, 1), ("0",),
                                  label="index|indices|player"))),
    "replace_block": row(sg.replace_block, x=(X, own()),
                         n=(1, index(2, label="player")),
                         block=(P, simplex(P, label="block"))),
    "centering_projection": row(sg.centering_projection, k=(2, ACTIONS)),
    "face_projection": row(sg.face_projection, k=(2, ACTIONS),
                           support=((0, 1), support(("empty", "None")))),
    "tangent_basis": row(sg.tangent_basis, k=(2, ACTIONS),
                         support=(None, support(("empty", "None")))),
    "utility": row(sg.utility, game=(PENNIES, GAME), x=(X, STRATEGY),
                   n=(0, index(2, label="player"))),
    "gradient": row(sg.gradient, game=(PENNIES, GAME), x=(X, STRATEGY),
                    n=(0, index(2, label="player"))),
    "best_response_values": row(sg.best_response_values, game=(PENNIES, GAME),
                                x=(X, STRATEGY),
                                n=(0, index(2, label="player"))),
    "cross_hessian": row(sg.cross_hessian, game=(PENNIES, GAME),
                         x=(X, STRATEGY), n=(0, index(2, label="player")),
                         m=(1, index(2, label="player"))),
    "epsilon_nash_gap": row(sg.epsilon_nash_gap, game=(PENNIES, GAME),
                            x=(X, STRATEGY)),
    "quasi_strict_check": row(sg.quasi_strict_check, game=(PENNIES, GAME),
                              x_star=(X, STRATEGY),
                              gap_tol=(1e-9, non_negative(1e-9))),
    "reduce_game": row(sg.reduce_game, game=(PENNIES, GAME),
                       x_star=(X, STRATEGY)),
    "centered_game": row(sg.centered_game, game=(PENNIES, GAME),
                         x_star=(X, STRATEGY)),
    "restrict_strategy": row(sg.restrict_strategy, x=(X, own()),
                             supports=(((0, 1), (0, 1)),
                                       supports(((0, 1), (0, 1)), ("0",)))),
    "embed_strategy": row(
        sg.embed_strategy, x=(X, own()),
        supports=(((0, 1), (0, 1)), supports(((0, 1), (0, 1)), ("0",))),
        shape=((2, 2), integers((2, 2), label="shape|action count|player"))),
    "game_jacobian": row(sg.game_jacobian, game=(PENNIES, GAME),
                         x=(X, STRATEGY),
                         supports=(None, supports(((0, 1), (0, 1)),
                                                  ("0", "None")))),
    "game_to_dict": row(sg.game_to_dict, game=(PENNIES, own(X))),
    "game_from_dict": row(
        sg.game_from_dict,
        data=(sg.game_to_dict(PENNIES),
              mapping(sg.game_to_dict(PENNIES),
                      {**sg.game_to_dict(PENNIES), "payoffs": 5},
                      label="game|payoff|players|shape"))),
    "save_game": row(sg.save_game, game=(PENNIES, own(X)),
                     path=("out.json", path("out.json"))),
    "load_game": row(sg.load_game, path=("matching_pennies",
                                         path("matching_pennies"))),
    "bundled_game": row(sg.bundled_game,
                        name=("matching_pennies",
                              text("matching_pennies", (),
                                   label="bundled game|name"))),
    "bundled_game_names": row(sg.bundled_game_names),
    # regularizers
    "Regularizer": row(sg.Regularizer, dimension=(2, count(2)),
                       lam=(0.5, positive(0.5)),
                       A=(2.0 * np.eye(2),
                          array(2.0 * np.eye(2), ("fraction",))),
                       w=(P, array(P))),
    "entropy": row(sg.entropy, k=(2, count(2, label="dimension"))),
    "quadratic_entropy": row(sg.quadratic_entropy, lam=(0.5, positive(0.5)),
                             A=(2.0 * np.eye(2),
                                array(2.0 * np.eye(2), ("fraction",),
                                      label=r"\bA\b|dimension")),
                             w=(P, array(P))),
    "reg_value": row(sg.reg_value, r=(Q2, REGULARIZER),
                     x=(P, simplex(P))),
    "reg_tangent_gradient": row(
        sg.reg_tangent_gradient, r=(Q2, REGULARIZER), x=(P, simplex(P)),
        support=(None, support(("None",)))),
    "face_hessian": row(
        sg.face_hessian, r=(Q2, REGULARIZER), x=(P, simplex(P)),
        support=(None, support(("None",)))),
    "make_regularizer_with_hessian": row(
        sg.make_regularizer_with_hessian, x=(np.full(3, 1 / 3),
                                             simplex(np.full(3, 1 / 3))),
        M=(2.0 * PI3, array(2.0 * PI3, ("fraction",)))),
    "regularizer_to_dict": row(sg.regularizer_to_dict, r=(Q2, own(CFG))),
    "regularizer_from_dict": row(
        sg.regularizer_from_dict,
        data=(sg.regularizer_to_dict(Q2),
              mapping(sg.regularizer_to_dict(Q2),
                      {**sg.regularizer_to_dict(Q2), "A": 5},
                      label="regularizer")),
        dimension=(2, count(2, accept=("None",), label="dimension"))),
    # response
    "SmoothedResponseConfig": row(
        sg.SmoothedResponseConfig, beta=(0.5, positive(0.5)),
        regularizers=((R2, R2), REGS),
        inner_tol=(1e-12, positive(1e-12)),
        inner_max_iter=(100, count(100))),
    "entropy_config": row(
        sg.entropy_config,
        shape=((2, 2), integers((2, 2), label="dimension|shape|regularizer")),
        beta=(0.5, positive(0.5))),
    "smoothed_argmax": row(sg.smoothed_argmax, values=(P, array(P)),
                           reg=(Q2, typed(sg.entropy(3), CFG, label="values")),
                           beta=(0.5, positive(0.5)),
                           inner_tol=(1e-12, positive(1e-12)),
                           inner_max_iter=(100, count(100))),
    "smoothed_best_response": row(sg.smoothed_best_response,
                                  game=(PENNIES, GAME), cfg=(CFG, CONFIG),
                                  x=(X, STRATEGY)),
    "response_jacobian": row(sg.response_jacobian, game=(PENNIES, GAME),
                             cfg=(CFG, CONFIG), x=(X, STRATEGY),
                             as_tangent=(False, FLAG)),
    "find_smoothed_equilibrium": row(
        sg.find_smoothed_equilibrium, game=(PENNIES, GAME), cfg=(CFG, CONFIG),
        x0=(None, START), outer_tol=(1e-8, positive(1e-8)),
        max_iter=(1000, count(1000))),
    "homotopy_trace": row(
        sg.homotopy_trace, game=(PENNIES, GAME), cfg=(CFG, CONFIG),
        beta_schedule=([1.0, 0.5], grid([1.0, 0.5], ("fraction",),
                                        label="beta_schedule")),
        x0=(None, START), outer_tol=(1e-8, positive(1e-8)),
        max_iter=(1000, count(1000))),
    "linear_steepness_probe": row(
        sg.linear_steepness_probe, r=(Q2, own(CFG)),
        i=(0, index(2, label="index")), eps=(0.5, non_negative(0.5)),
        betas=([0.2, 0.1], grid([0.2, 0.1], ("fraction", "empty"),
                                label="beta")),
        rng=(None, own(accept=("None",)))),
    # dynamics
    "DynamicsConfig": row(sg.DynamicsConfig,
                          eta=(0.5, positive(0.5, fraction=0.25,
                                             bad={"one": 1.0})),
                          response=(CFG, own(DYN)), horizon=(3, count(3)),
                          record_every=(1, count(1))),
    "step": row(sg.step, game=(PENNIES, GAME),
                cfg=(DYN, DYNAMICS),
                x=(X, STRATEGY)),
    "run": row(sg.run, game=(PENNIES, GAME),
               cfg=(DYN, DYNAMICS),
               x0=(X, typed(X_WIDE, label="x0")),
               reference=(EQ, equilibrium(("None",)))),
    "run_many": row(sg.run_many, game=(PENNIES, GAME),
                    cfg=(DYN, DYNAMICS),
                    X0=((X, X), sequence((X, X), label="x0|start")),
                    reference=(None, equilibrium(("None",)))),
    "stability_verdict": row(sg.stability_verdict, game=(PENNIES, GAME),
                             cfg=(DYN, DYNAMICS),
                             eq=(EQ, equilibrium())),
    "measure_response_lipschitz": row(sg.measure_response_lipschitz,
                                      game=(PENNIES, GAME), cfg=(CFG, CONFIG),
                                      x=(X, STRATEGY)),
    "eta_threshold": row(sg.eta_threshold, game=(PENNIES, GAME),
                         cfg=(CFG, CONFIG), eq=(EQ, equilibrium()),
                         num_samples=(2, count(2, positive=False)),
                         rng_seed=(0, SEED), radius=(0.05, positive(0.05))),
    "boundary_convergence_check": row(
        sg.boundary_convergence_check, game=(PENNIES, GAME),
        regs=((R2, R2), REGS), x_star=(X, STRATEGY),
        beta_schedule=([0.5, 0.25], grid([0.5, 0.25], ("fraction",),
                                         label="beta_schedule")),
        outer_tol=(1e-10, positive(1e-10))),
    "sweep": row(sg.sweep, game=(PENNIES, own(X)),
                 betas=([0.5], grid([0.5], ("nan", "inf", "-1", "0",
                                            "fraction"), label="betas")),
                 etas=([0.5], grid([0.5], ("nan", "inf", "-1", "0",
                                           "fraction"), label="etas")),
                 regularizers=((R2, R2), REGS), x0=(None, START),
                 horizon=(3, count(3)), jobs=(1, count(1)),
                 outer_tol=(1e-10, positive(1e-10))),
    "sweep_to_csv": row(sg.sweep_to_csv, cells=(CELLS, own(bad={
        "string equilibrium": (dataclasses.replace(CELLS[0],
                                                   equilibrium="a"),),
        "verdict 3": (dataclasses.replace(CELLS[0], verdict=3),),
        "string beta, NaN eta, integer error": (dataclasses.replace(
            CELLS[0], beta="abc", eta=NAN, error=123),),
        "NaN eta without an error": (dataclasses.replace(CELLS[0],
                                                         eta=NAN),),
        "integer error": (dataclasses.replace(CELLS[0], error=123),),
        "bogus label": (dataclasses.replace(CELLS[0], verdict=dataclasses
                        .replace(VERDICT, classification="bogus")),),
        "NaN norm": (dataclasses.replace(CELLS[0], verdict=dataclasses
                     .replace(VERDICT, jacobian_operator_norm=NAN)),)})),
                        target=("out.csv", path("out.csv", label="target"))),
    "trajectory_to_csv": row(sg.trajectory_to_csv,
                             trajectory=(TRAJECTORY, own(EQ)),
                             target=("out.csv", path("out.csv",
                                                     label="target")),
                             verdict=(None, own(accept=("None",), bad={
                                 "NaN radius": dataclasses.replace(
                                     VERDICT, jacobian_spectral_radius=NAN),
                                 "label 42": dataclasses.replace(
                                     VERDICT, classification=42)}))),
    # stability
    "interaction_graph": row(sg.interaction_graph, jac=(JAC, own())),
    "solve_skew_certificate": row(sg.solve_skew_certificate, jac=(JAC, own())),
    "pd_stretch": row(sg.pd_stretch,
                      u=(P, array(P, ("fraction",), label=r"\bu\b|shape")),
                      v=(np.array([0.25, 0.75]),
                         array([0.25, 0.75], ("fraction",)))),
    "bilinear_scale_recovery": row(
        sg.bilinear_scale_recovery,
        A=(2.0 * np.eye(2), array(2.0 * np.eye(2), label=r"\bA\b|shape")),
        B=(np.eye(2), array(np.eye(2))),
        tol=(1e-9, positive(1e-9)), rng_seed=(0, SEED)),
    "pareto_improvement_search": row(
        sg.pareto_improvement_search, jac=(JAC, own()), rng_seed=(0, SEED)),
    "uniform_stability_check": row(
        sg.uniform_stability_check, jac=(JAC, own()),
        num_conditioners=(4, count(4, positive=False)), rng_seed=(0, SEED)),
    "verify_witness": row(sg.verify_witness, jac=(JAC, own()),
                          witness=((np.eye(2), np.eye(2)),
                                   blocks((np.eye(2), np.eye(2)),
                                          ("fraction",), label="witness"))),
    "local_uniform_stability": row(
        sg.local_uniform_stability, game=(PENNIES, GAME), x=(X, STRATEGY),
        radius=(0.05, positive(0.05)),
        num_samples=(2, count(2, positive=False)), rng_seed=(0, SEED)),
    "simplex_lattice": row(sg.simplex_lattice, k=(2, count(2)),
                           resolution=(3, count(3))),
    "weak_pareto_oracle": row(sg.weak_pareto_oracle, game=(PENNIES, GAME),
                              x_star=(X, STRATEGY),
                              grid_resolution=(3, RESOLUTION)),
    "strong_nash_oracle": row(sg.strong_nash_oracle, game=(PENNIES, GAME),
                              x_star=(X, STRATEGY),
                              grid_resolution=(3, RESOLUTION)),
    "report_to_dict": row(sg.report_to_dict, report=(REPORT, own(JAC, bad={
        "no certificate": dataclasses.replace(REPORT, certificate=None),
        "no graph": dataclasses.replace(REPORT, graph=None),
        "NaN max_sampled_real": dataclasses.replace(REPORT,
                                                    max_sampled_real=NAN),
        "pointwise 42": dataclasses.replace(REPORT, pointwise=42)}))),
}

_RECORD = ("a result record the package builds from checked inputs; its "
           "fields carry no precondition of their own")
EXEMPT = {
    **{name: "an exception type" for name in (
        "GameError", "ArgumentError", "DimensionError", "DomainError",
        "ParseError", "ResourceError", "ConvergenceError", "CyclingError")},
    **{name: _RECORD for name in (
        "BilinearScaleResult", "BoundaryReport",
        "FaceHessian", "GameJacobian", "InteractionGraph",
        "LocalStabilityVerdict", "ParetoOracleResult", "QuasiStrictResult",
        "SkewCertificate", "SmoothedEquilibrium", "StabilityVerdict",
        "StrongNashResult", "SweepCell",
        "Trajectory", "UniformStabilityReport")},
}

# result fields that echo an input back: a sweep keeps a bad grid entry as
# a per-cell error, and the cell names the entry it failed on
ECHOED = {"sweep": ("beta", "eta")}


def exported_callables():
    return {name for name, value in vars(sg).items()
            if callable(value) and not name.startswith("_")
            and not inspect.ismodule(value)}


def test_every_exported_callable_has_a_row_or_a_reasoned_exemption():
    assert not set(ROWS) & set(EXEMPT)
    assert exported_callables() == set(ROWS) | set(EXEMPT)
    assert all(reason for reason in EXEMPT.values())
    for name, (fn, params) in ROWS.items():
        assert fn is getattr(sg, name)
        # every parameter has a kind, so none escapes the table
        assert set(params) == {
            p.name for p in inspect.signature(fn).parameters.values()
            if p.kind is not p.VAR_KEYWORD}, name


def nan_free(value, echoed=()):
    """False if value holds a NaN anywhere, skipping echoed fields."""
    if isinstance(value, (float, np.floating)):
        return not math.isnan(value)
    if isinstance(value, np.ndarray):
        if value.dtype.kind in "fc":
            return not np.isnan(value).any()
        return value.dtype != object or all(map(nan_free, value.flat))
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return all(nan_free(getattr(value, f.name), echoed)
                   for f in dataclasses.fields(value)
                   if f.name not in echoed)
    if isinstance(value, (tuple, list)):
        return all(nan_free(v, echoed) for v in value)
    if isinstance(value, dict):
        return all(nan_free(v, echoed) for v in value.values())
    return True


def cases(name):
    _, params = ROWS[name]
    return [(None, None)] + [(param, bad)
                             for param, (_, kind) in params.items()
                             for bad in kind.bad]


@pytest.mark.parametrize("name", sorted(ROWS))
def test_exported_callable_handles_or_rejects_every_bad_value(
        name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # path rows write their files here
    fn, params = ROWS[name]
    table = cases(name)

    @settings(max_examples=4 * len(table), derandomize=True, database=None,
              deadline=None,
              suppress_health_check=list(HealthCheck))
    @given(st.sampled_from(table))
    def check(case):
        param, bad = case
        kwargs = {p: valid for p, (valid, _) in params.items()}
        kind = None
        if param is not None:
            kind = params[param][1]
            kwargs[param] = kind.bad[bad]
        try:
            out = fn(**kwargs)
        except GameError as err:
            assert kind is not None, f"{name} rejects valid arguments: {err}"
            if bad not in kind.accept:
                label = (kind.label if bad not in kind.named else None
                         ) or rf"\b{re.escape(param)}\b"
                assert re.search(label, str(err), re.IGNORECASE), (
                    f"{name}({param}={bad}) blames: {err}")
            return
        except OSError:
            if kind is None or not kind.files:
                raise
            return
        assert kind is None or bad in kind.accept, (
            f"{name}({param}={bad}) was accepted")
        assert nan_free(out, ECHOED.get(name, ())), \
            f"{name}({param}={bad}) returned a NaN"

    check()


def test_contract_table_covers_every_case_of_a_row():
    # sampled_from over a row's cases exhausts them within max_examples
    seen = []

    @settings(max_examples=4 * len(cases("cross_hessian")), derandomize=True,
              database=None, deadline=None)
    @given(st.sampled_from(cases("cross_hessian")))
    def record(case):
        seen.append(case)

    record()
    assert set(seen) == set(cases("cross_hessian"))
