"""Partially-revealing policy solvers.

Compute strategies that trade expected utility loss against the information
an observer gains about a private type, measured as an f-divergence between
the Bayes posterior and the prior.  Three schemes are provided: direct
first-order descent on the finite plan parametrization with closed-form KL
gradients, descent of the entropic optimal-transport loss with
envelope-theorem gradients, and a difference-of-convex algorithm for linear
costs on a box.  Both descent schemes take their gradients in the action
atoms from the cost oracle's adjoint map and step in one loop,
`optim.descend`; each has one entry point that descends a stack of
starts: `minimize_direct_starts`, `minimize_sinkhorn_starts` and, for
auction policies, `train_strategy_starts`.
"""

__version__ = "0.1.0"

from .divergences import (FDivergence, alpha_divergence, from_name,
                          kl_divergence, reverse_kl_divergence,
                          total_variation)
from .measures import (CostOracle, DiscreteDistribution, TransportPlan,
                       cost_matrix, linear_cost, plan_to_json, prp_objective)
from .optim import (DescentConfig, OptimizerState, make_optimizer,
                    optimizer_step, project_box, project_columns,
                    project_simplex)
from .sinkhorn import (SinkhornResult, minimize_sinkhorn_starts,
                       solve_sinkhorn)
from .direct import kl_plan_objective, minimize_direct_starts
from .dca import DCAResult, best_corners, dca_solve
from .gridsolve import solve_grid
from .auctions import (AuctionModel, BidPolicy, DominantActionMap,
                       StrategyEvaluation, SweepResult, SweepRow,
                       dominant_action_map, evaluate_strategy, random_policy,
                       sweep_lambda, train_strategy_starts)
from .toy import ToyInstance, run_benchmark, sample_instance

__all__ = [name for name in dir() if not name.startswith("_")]
