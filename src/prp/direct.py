"""Joint first-order descent on the finite-dimensional plan objective.

Optimizes the full (K+2) x K plan matrix together with the action atoms:
after each gradient step the plan columns are projected back onto their
scaled simplices and the atoms onto the cost box.  The privacy term is the
KL form sum_ik gamma_ik log(gamma_ik / (p0_k m_i)), whose gradients have
closed forms: C_ik + lam log(gamma_ik / (p0_k m_i)) in the plan and the
cost oracle's adjoint applied to gamma in the atoms (gamma @ Y for the
linear cost x . y).  The scheme is KL by construction.

`minimize_direct_starts`, the scheme's entry point, descends a stack of B
independent starts in `optim.descend`: the plans form a (B, n, K) array,
the atoms a (B, n, d) array, and each start keeps its own optimizer
method, learning rates, random atoms and best iterate, so a start's trace
and plan are bit for bit those of a stack of that start alone.
"""

from __future__ import annotations

import numpy as np

from .measures import (CostOracle, DiscreteDistribution, TransportPlan,
                       atom_count, cost_with_adjoint)
from .optim import box_starts, descend, project_columns

_EPS = 1e-30  # keeps the 0 log 0 terms finite


def kl_plan_objective(gamma, cost_matrix, prior_weights, lam: float):
    """Value and plan gradient of sum gamma*C + lam * KL privacy term.

    The privacy term is sum_ik gamma_ik log r_ik with the regularized ratio
    r = (gamma + eps) / (m p0 + eps) and row masses m.  The gradient is the
    exact derivative of that value,

        C + lam * (log r + gamma / (gamma + eps) - s),
        s_i = sum_k gamma_ik p0_k / (m_i p0_k + eps),

    which is C + lam log(gamma / (p0 m)) on positive entries and stays
    finite on the exact zeros that `project_columns` leaves.  A (B, n, K)
    stack of plans and cost matrices gives B values and B gradients.  The
    prior is a (K,) vector or, as the descent passes it, at the plans'
    shape, which gives the same bits without a broadcast per product.
    """
    gamma = np.asarray(gamma, dtype=float)
    cost_matrix = np.asarray(cost_matrix, dtype=float)
    prior_weights = np.asarray(prior_weights, dtype=float)
    # np.add.reduce, not the ndarray.sum wrapper: called at every step
    ref = np.add.reduce(gamma, axis=-1, keepdims=True) * prior_weights + _EPS
    shifted = gamma + _EPS
    log_ratio = np.log(shifted / ref)
    entries = (-2, -1)
    privacy = np.add.reduce(gamma * log_ratio, axis=entries)
    row_term = np.add.reduce(gamma * prior_weights / ref, axis=-1,
                             keepdims=True)
    grad = cost_matrix + lam * (log_ratio + gamma / shifted - row_term)
    return (np.add.reduce(gamma * cost_matrix, axis=entries) + privacy * lam,
            grad)


def minimize_direct_starts(prior_weights, type_atoms, cost: CostOracle,
                           lam: float, starts) -> list:
    """Descend the plan objective jointly in (gamma, atoms) from B starts.

    `starts` is a sequence of (DescentConfig, seed) pairs that share
    `steps`.  Start b begins at the non-revealing product coupling on K + 2
    atoms, uniform in the cost box and drawn from default_rng(seed[b]), and
    steps by its config's method and learning rates.  Returns one
    (plan, trace) per start: trace[t] is the objective of the iterate that
    step t starts from, so the trace keeps every step even where the
    descent goes uphill.  The plan is the final iterate unless an earlier
    iterate of the trace has a lower objective, in which case it is the
    best of those.
    """
    prior_weights = np.asarray(prior_weights, dtype=float)
    type_atoms_arr = np.asarray(type_atoms, dtype=float)
    k = prior_weights.size
    n = atom_count(k)
    starts = list(starts)
    atoms, box = box_starts(cost, n, [seed for _, seed in starts])
    b = len(starts)
    gamma = np.tile(prior_weights / n, (b, n, 1))
    # the prior at the plans' shape, once per descent (see `make_optimizer`)
    prior_full = np.broadcast_to(prior_weights, gamma.shape).copy()
    iterates = []    # iterates[t]: the (gamma, atoms) step t starts from

    def step(gamma, atoms):
        matrix, adjoint = cost_with_adjoint(cost, atoms, type_atoms_arr)
        value, grad_gamma = kl_plan_objective(gamma, matrix, prior_full, lam)
        iterates.append((gamma, atoms))
        return value, grad_gamma, adjoint(gamma)

    gamma, atoms, trace = descend(
        gamma, atoms, [config for config, _ in starts], step,
        lambda packed: project_columns(packed, prior_full), box)
    matrix, _ = cost_with_adjoint(cost, atoms, type_atoms_arr)
    final_value, _ = kl_plan_objective(gamma, matrix, prior_full, lam)
    # argmin picks the first of tied minima, as a running strict minimum would
    for i, t in enumerate(trace.argmin(axis=1)):
        if final_value[i] > trace[i, t]:
            gamma[i], atoms[i] = iterates[t][0][i], iterates[t][1][i]
    prior = DiscreteDistribution(list(type_atoms_arr), prior_weights)
    types = list(type_atoms_arr)
    return [(TransportPlan(gamma[i], list(atoms[i]), types, prior), trace[i])
            for i in range(b)]
