"""Joint first-order descent on the finite-dimensional plan objective.

Optimizes the full (K+2) x K plan matrix together with the action atoms:
after each gradient step the plan columns are projected back onto their
scaled simplices and the atoms onto the cost box.  The privacy term is the
KL form sum_ik gamma_ik log(gamma_ik / (p0_k m_i)), whose gradients have
closed forms: C_ik + lam log(gamma_ik / (p0_k m_i)) in the plan and the
cost oracle's adjoint applied to gamma in the atoms (gamma @ Y for the
linear cost x . y).  The scheme is KL by construction.

`minimize_direct_starts` descends a stack of B independent starts in one
loop: the plans form a (B, n, K) array, the atoms a (B, n, d) array, and
each start keeps its own optimizer method, learning rates, random atoms
and best iterate.  Every operation of the loop acts on each start alone,
so a start's trace and plan are bit for bit those of a run on its own;
`minimize_direct` is the stack of one.
"""

from __future__ import annotations

import numpy as np

from .measures import (CostOracle, DiscreteDistribution, TransportPlan,
                       atom_count, cost_with_adjoint)
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
    if cost.bounds is None:
        raise ValueError("minimize_direct needs a cost oracle with box bounds")
    starts = list(starts)
    configs = [config for config, _ in starts]
    steps = {config.steps for config in configs}
    if len(steps) != 1:
        raise ValueError("need one or more starts that share their steps")
    (steps,) = steps
    if steps < 1:
        raise ValueError("need at least one descent step")
    prior_weights = np.asarray(prior_weights, dtype=float)
    type_atoms_arr = np.asarray(type_atoms, dtype=float)
    k = prior_weights.size
    n = atom_count(k)
    bounds = np.asarray(cost.bounds, dtype=float)
    lower, upper = bounds[:, 0], bounds[:, 1]
    atoms = np.stack([np.random.default_rng(seed).uniform(
        lower, upper, size=(n, bounds.shape[0])) for _, seed in starts])
    b = len(configs)
    gamma = np.tile(prior_weights / n, (b, n, 1))
    # the constants each step combines elementwise, at the shapes they meet
    # (see `optim.make_optimizer`)
    prior_full = np.broadcast_to(prior_weights, gamma.shape).copy()
    lower = np.broadcast_to(lower, atoms.shape).copy()
    upper = np.broadcast_to(upper, atoms.shape).copy()
    # one optimizer state over the packed rows (gamma_b, atoms_b)
    split = n * k
    lr = np.stack([np.repeat([c.lr_weights, c.lr_atoms],
                             [split, atoms[0].size]) for c in configs])
    state = make_optimizer([c.method for c in configs], lr, lr)
    trace = np.empty((b, steps))
    # rows[t] holds the packed iterates step t starts from, rows[t, :, :split]
    # the plans and rows[t, :, split:] the atoms
    rows = np.empty((steps, b, lr.shape[1]))
    grad = np.empty((b, lr.shape[1]))
    for step in range(steps):
        matrix, adjoint = cost_with_adjoint(cost, atoms, type_atoms_arr)
        value, grad_gamma = kl_plan_objective(gamma, matrix, prior_full, lam)
        trace[:, step] = value
        row = rows[step]
        row[:, :split] = gamma.reshape(b, -1)
        row[:, split:] = atoms.reshape(b, -1)
        grad[:, :split] = grad_gamma.reshape(b, -1)
        grad[:, split:] = adjoint(gamma).reshape(b, -1)
        packed = optimizer_step(state, row, grad)
        gamma = project_columns(packed[:, :split].reshape(gamma.shape),
                                prior_full)
        atoms = project_box(packed[:, split:].reshape(atoms.shape),
                            lower, upper)
    matrix, _ = cost_with_adjoint(cost, atoms, type_atoms_arr)
    final_value, _ = kl_plan_objective(gamma, matrix, prior_full, lam)
    # argmin picks the first of tied minima, as a running strict minimum would
    first = trace.argmin(axis=1)
    starts_index = np.arange(b)
    best = rows[first, starts_index]
    worse = (final_value > trace[starts_index, first])[:, None, None]
    gamma = np.where(worse, best[:, :split].reshape(gamma.shape), gamma)
    atoms = np.where(worse, best[:, split:].reshape(atoms.shape), atoms)
    prior = DiscreteDistribution(list(type_atoms_arr), prior_weights)
    types = list(type_atoms_arr)
    return [(TransportPlan(gamma[i], list(atoms[i]), types, prior), trace[i])
            for i in range(b)]


def minimize_direct(prior_weights, type_atoms, cost: CostOracle, lam: float,
                    config: DescentConfig | None = None, seed: int = 0):
    """Descend the plan objective jointly in (gamma, atoms) from one start.

    The stack of one of `minimize_direct_starts`: returns its (plan, trace).
    """
    (result,) = minimize_direct_starts(prior_weights, type_atoms, cost, lam,
                                       [(config or DescentConfig(), seed)])
    return result
