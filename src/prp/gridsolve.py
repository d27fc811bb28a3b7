"""Convex solve over a finite action grid.

With both the action set and the type set finite, the plan objective is
convex in the full |grid| x K matrix, so the entropic descent of
`convexsolve` (Blahut-Arimoto for KL) finds the global optimum.  With a
linear cost on a box, any grid that contains the box corners holds the
optimum over all actions.  Small instances of this solver act as the
reference the nonconvex schemes are compared against.
"""

from __future__ import annotations

from .convexsolve import minimize_linear_plus_privacy
from .divergences import FDivergence
from .measures import (CostOracle, DiscreteDistribution, TransportPlan,
                       cost_matrix)


def solve_grid(action_atoms, type_atoms, prior_weights, cost: CostOracle,
               divergence: FDivergence, lam: float):
    """Minimize the plan objective over all couplings of grid x types.

    Returns (plan, objective value).  A solve that stops at the step cap
    `optim.MAX_STEPS` warns (see `convexsolve.minimize_linear_plus_privacy`).
    """
    c = cost_matrix(cost, action_atoms, type_atoms)
    result = minimize_linear_plus_privacy(c, prior_weights, divergence, lam)
    prior = DiscreteDistribution(list(type_atoms), prior_weights)
    plan = TransportPlan(result.x, list(action_atoms), list(type_atoms), prior)
    return plan, result.value
