"""Smoothed best-response dynamics and uniform-stability certificates
for finite normal-form games."""

from .dynamics import (BoundaryReport, DynamicsConfig, StabilityVerdict,
                       SweepCell, Trajectory, boundary_convergence_check,
                       eta_threshold, measure_response_lipschitz, run,
                       run_many, stability_verdict, step, sweep, sweep_to_csv,
                       trajectory_to_csv)
from .errors import (ArgumentError, ConvergenceError, CyclingError,
                     DimensionError, DomainError, GameError, ParseError,
                     ResourceError)
from .games import (CanonicalForm, GameJacobian, JointStrategy, NormalFormGame,
                    QuasiStrictResult, StrategicDecomposition, TangentVector,
                    best_response_values, bundled_game, bundled_game_names,
                    centering_projection, cross_hessian, embed_strategy,
                    epsilon_nash_gap, face_projection, game_from_dict,
                    game_jacobian, game_to_dict, gradient, load_game,
                    pure_strategy, quasi_strict_check, reduce_game,
                    replace_block, restrict_strategy, save_game,
                    strategic_decompose, tangent_basis, to_canonical,
                    uniform_strategy, utility)
from .regularizers import (FaceHessian, Regularizer, entropy, face_hessian,
                           make_regularizer_with_hessian, quadratic_entropy,
                           reg_tangent_gradient, reg_value,
                           regularizer_from_dict, regularizer_to_dict)
from .response import (SmoothedEquilibrium, SmoothedResponseConfig,
                       entropy_config, find_smoothed_equilibrium,
                       homotopy_trace, linear_steepness_probe,
                       response_jacobian, smoothed_argmax,
                       smoothed_best_response)
from .stability import (BilinearScaleResult, InteractionGraph,
                        LocalStabilityVerdict, ParetoOracleResult,
                        SkewCertificate, StrongNashResult,
                        UniformStabilityReport, bilinear_scale_recovery,
                        interaction_graph, local_uniform_stability,
                        pareto_improvement_search, pd_stretch, report_to_dict,
                        simplex_lattice, solve_skew_certificate,
                        strong_nash_oracle, uniform_stability_check,
                        verify_witness, weak_pareto_oracle)

__version__ = "0.1.0"
