"""Joint first-order descent on the finite-dimensional plan objective.

Optimizes the full (K+2) x K plan matrix together with the action atoms:
after each gradient step the plan columns are projected back onto their
scaled simplices and the atoms onto the cost box.  The privacy term is the
KL form sum_ik gamma_ik log(gamma_ik / (p0_k m_i)), whose gradients have
closed forms: C_ik + lam log(gamma_ik / (p0_k m_i)) in the plan and the
cost oracle's adjoint applied to gamma in the atoms (gamma @ Y for the
linear cost x . y).  Other divergences are rejected.
"""

from __future__ import annotations

import numpy as np

from .divergences import FDivergence, kl_divergence
from .measures import (CostOracle, DiscreteDistribution, TransportPlan,
                       cost_with_adjoint)
from .optim import (DescentConfig, make_optimizer, optimizer_step,
                    project_box, project_columns)

_EPS = 1e-30  # keeps the 0 log 0 terms finite


def kl_plan_objective(gamma, cost_matrix, prior_weights, lam: float):
    """Value and plan gradient of sum gamma*C + lam * KL privacy term.

    The privacy term is sum_ik gamma_ik log r_ik with the regularized ratio
    r = (gamma + eps) / (m p0 + eps) and row masses m.  The gradient is the
    exact derivative of that value,

        C + lam * (log r + gamma / (gamma + eps) - s),
        s_i = sum_k gamma_ik p0_k / (m_i p0_k + eps),

    which is C + lam log(gamma / (p0 m)) on positive entries and stays
    finite on the exact zeros that `project_columns` leaves.
    """
    gamma = np.asarray(gamma, dtype=float)
    cost_matrix = np.asarray(cost_matrix, dtype=float)
    prior_weights = np.asarray(prior_weights, dtype=float)
    ref = gamma.sum(axis=1)[:, None] * prior_weights[None, :] + _EPS
    shifted = gamma + _EPS
    log_ratio = np.log(shifted / ref)
    privacy = (gamma * log_ratio).sum()
    row_term = (gamma * prior_weights[None, :] / ref).sum(axis=1)
    grad = cost_matrix + lam * (log_ratio + gamma / shifted
                                - row_term[:, None])
    return float((gamma * cost_matrix).sum() + privacy * lam), grad


def minimize_direct(prior_weights, type_atoms, cost: CostOracle, lam: float,
                    n_atoms: int | None = None,
                    divergence: FDivergence | None = None,
                    config: DescentConfig | None = None,
                    seed: int = 0):
    """Descend the plan objective jointly in (gamma, atoms).

    Starts from the non-revealing product coupling with uniformly random
    atoms in the cost box.  Returns a feasible plan and the per-step
    objective trace: trace[t] is the objective of the iterate that step t
    starts from, so the trace keeps every step even where the descent goes
    uphill.  The plan is the final iterate unless an earlier iterate of the
    trace has a lower objective, in which case it is the best of those.
    """
    divergence = divergence or kl_divergence()
    if divergence.name != "kl":
        raise NotImplementedError(
            "the direct scheme only differentiates the KL privacy term")
    if cost.bounds is None:
        raise ValueError("minimize_direct needs a cost oracle with box bounds")
    config = config or DescentConfig()
    prior_weights = np.asarray(prior_weights, dtype=float)
    type_atoms_arr = np.asarray(type_atoms, dtype=float)
    k = prior_weights.size
    n = n_atoms if n_atoms is not None else k + 2
    bounds = np.asarray(cost.bounds, dtype=float)
    lower, upper = bounds[:, 0], bounds[:, 1]
    rng = np.random.default_rng(seed)
    atoms = rng.uniform(lower, upper, size=(n, bounds.shape[0]))
    gamma = np.tile(prior_weights / n, (n, 1))
    # one optimizer state over the packed vector (gamma, atoms)
    split = gamma.size
    lr = np.repeat([config.lr_weights, config.lr_atoms], [split, atoms.size])
    state = make_optimizer(config.method, lr, [lr])
    trace = np.empty(config.steps)
    best_value, best = np.inf, None
    for step in range(config.steps):
        matrix, adjoint = cost_with_adjoint(cost, atoms, type_atoms_arr)
        trace[step], grad_gamma = kl_plan_objective(gamma, matrix,
                                                    prior_weights, lam)
        if trace[step] < best_value:
            best_value, best = trace[step], (gamma, atoms)
        (packed,) = optimizer_step(
            state, [np.concatenate((gamma.ravel(), atoms.ravel()))],
            [np.concatenate((grad_gamma.ravel(), adjoint(gamma).ravel()))])
        gamma = project_columns(packed[:split].reshape(gamma.shape),
                                prior_weights)
        atoms = project_box(packed[split:].reshape(atoms.shape), lower, upper)
    matrix, _ = cost_with_adjoint(cost, atoms, type_atoms_arr)
    if kl_plan_objective(gamma, matrix, prior_weights, lam)[0] > best_value:
        gamma, atoms = best
    prior = DiscreteDistribution(list(type_atoms_arr), prior_weights)
    plan = TransportPlan(gamma, list(atoms), list(type_atoms_arr), prior)
    return plan, trace
