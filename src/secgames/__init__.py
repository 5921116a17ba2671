"""Solvers and simulation for finite two-player Bayesian security games."""

from .core import (BeliefSystem, EnumerationBudgetError, FiniteDistribution,
                   MalformedInputError, MultiStageGame, PayoffTensor,
                   PlayerTypeSpace, SolverError, StageGame, StrategyProfile,
                   expected_stage_payoff, transition, validate_game)
from .lp import LinearProgram, LpSolution, solve_lp
from .multistage import (BilinearStageSolution, EpsilonReport,
                         NonConvergenceReport, PbneSolution, ValueFunction,
                         backward_pass, belief_update, cumulative_utility,
                         forward_pass, root_values, solve_pbne, verify_epsilon)
from .signaling import (SignalingGame, SignalingPBNE, as_signaling_game,
                        classify, posterior_from_sender,
                        receiver_best_response, solve_mixed_pbne,
                        solve_pure_pbne)
from .simulate import (MonteCarloReport, NoiseSpec, Trajectory,
                       monte_carlo_value, sample_playout)
from .static import (BimatrixGame, EquilibriumResult, StaticBayesianGame,
                     best_response_set, bayes_gap, mixed_ne, pure_ne,
                     solve_bne)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
