"""Convex plan solves: linear cost term plus the row-wise privacy term.

Minimizes  <L, gamma> + lam * sum_ik p0_k h_k(gamma_i)  over plans whose
columns sum to the prior, with L the cost matrix of fixed actions: a
lattice of actions for the full-grid convex problem, and the rows' best
box corners for the DCA step (the linearization of its concave part).

lam = 0 is a linear program over scaled simplices, solved in closed form.
Total variation, f(t) = |t - 1| / 2, has a piecewise-linear privacy term,
so its solve is a linear program too, solved exactly by HiGHS (scipy is
imported for it alone); its reported steps are HiGHS iterations.  For KL
the privacy term is the mutual information, and at fixed row masses the
best plan is a Gibbs plan in closed form, so the solve is a convex problem
in the n row masses alone (Blahut 1972; Csiszar & Tusnady 1984):
`optim.minimize_columns_pgd` descends on the masses, and their Gibbs plan
is returned.  Any other generator must be smooth, and the same descent
runs on the full plan.  Every descent starts from step 1/lam and stops on
the one rule of `optim.minimize_columns_pgd` (or at `optim.MAX_STEPS`).
"""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np

from .divergences import (FDivergence, perspective_total,
                          perspective_total_grad)
from . import optim
from .optim import PGDResult, minimize_columns_pgd

_BLAHUT_ARIMOTO_STEPS = 8   # warm start of the KL row-mass descent


def minimize_linear_plus_privacy(linear: np.ndarray, prior_weights,
                                 divergence: FDivergence, lam: float,
                                 init=None) -> PGDResult:
    """Solve from ``init`` (default: the uniform mixture); warn if capped."""
    linear = np.asarray(linear, dtype=float)
    prior = np.asarray(prior_weights, dtype=float)
    if not 0.0 <= lam < np.inf:
        raise ValueError(f"lam must be non-negative and finite, got {lam!r}")
    if lam == 0.0:
        gamma = np.zeros_like(linear)
        gamma[np.argmin(linear, axis=0), np.arange(linear.shape[1])] = prior
        return PGDResult(gamma, float((linear * gamma).sum()), 0, True)

    objective, _ = _terms(linear, prior, divergence, lam)
    if init is None:
        n = linear.shape[0]
        init = np.tile(prior / n, (n, 1))
    init = np.asarray(init, dtype=float)
    if divergence.name == "kl":
        result = _row_mass_solve(objective, linear, prior, lam, init)
    elif divergence.name == "tv":
        result = _tv_program(objective, linear, prior, lam, init)
    else:
        result = _plan_descent(objective, linear, prior, divergence, lam,
                               init)
    # all mass on the best averaged row, the optimum as lam grows, is a
    # fixed point of the multiplicative update: compare it directly
    concentrated = np.zeros_like(linear)
    concentrated[int(np.argmin(linear @ prior))] = prior
    value = _value(objective, concentrated)
    if value < result.value:
        result = replace(result, x=concentrated, value=value)
    if not result.converged:
        warnings.warn(f"{divergence.name} plan solve at lam={lam:g} stopped "
                      f"at its {optim.MAX_STEPS}-step cap", RuntimeWarning,
                      stacklevel=2)
    return result


def _terms(linear, prior, div, lam):
    """Stacked objective and gradient of <L, gamma> + lam * privacy."""
    def objective(stack):
        return ((linear * stack).sum(axis=(-2, -1))
                + lam * perspective_total(div, stack, prior))

    def gradient(gamma):
        return linear + lam * perspective_total_grad(div, gamma, prior)

    return objective, gradient


def _value(objective, gamma) -> float:
    return float(objective(gamma[None])[0])


def _row_mass_solve(objective, linear, prior, lam, init):
    """KL: mirror descent on the row masses m, then their Gibbs plan.

    At fixed m the best plan is gamma_ik = p_k m_i e_ik / Z_k with
    e_ik = exp(-(L_ik - c_k) / lam), c_k the column minimum over the rows
    that carry mass, and Z_k = sum_i m_i e_ik; its objective is at most
    F(m) = <p, c> - lam * sum_k p_k log Z_k, with equality when m are its
    row masses.  F is convex on the simplex, so the solve is a descent of F
    from the row masses of ``init`` (zero rows stay zero), and the Gibbs
    plan of the first m is already no worse than ``init``.  The descent
    stops on the rule of every plan solve, that of `minimize_columns_pgd`.
    It starts with _BLAHUT_ARIMOTO_STEPS updates m <- m * r (the row masses
    of the Gibbs plan), which never raise F and, having no line search,
    cost a fraction of a mirror step; they do most of the work at small
    lam, where the mirror step accepts only a fraction of 1/lam, and little
    at large lam, where the mirror steps double.  The reported steps are
    the mirror steps.
    """
    masses = init.sum(axis=1)
    rows = masses > 0.0
    costs = linear[rows]
    least = costs.min(axis=0)
    with np.errstate(over="ignore"):
        kernel = np.exp((least - costs) / lam)
    offset = float(least @ prior)

    def mass_objective(stack):
        # elementwise sums, so that a value does not depend on the stack size
        with np.errstate(divide="ignore", invalid="ignore"):
            log_z = np.log((stack * kernel).sum(axis=-2))
        return offset - lam * (log_z * prior).sum(axis=-1)

    def ratios(m):
        # r_i = sum_k p_k e_ik / Z_k: the gradient of F is -lam * r
        return (kernel @ (prior / (m[:, 0] @ kernel)))[:, None]

    start = masses[rows, None]
    for _ in range(_BLAHUT_ARIMOTO_STEPS):
        start = start * ratios(start)
    result = minimize_columns_pgd(mass_objective, lambda m: -lam * ratios(m),
                                  start, np.ones(1), 1.0 / lam)
    weighted = result.x * kernel
    gamma = np.zeros_like(linear)
    gamma[rows] = weighted / weighted.sum(axis=0) * prior
    return replace(result, x=gamma, value=_value(objective, gamma))


def _plan_descent(objective, linear, prior, divergence, lam, init):
    """Entropic descent on the full plan; only smooth generators."""
    if not divergence.smooth:
        raise ValueError(f"non-smooth generator {divergence.name!r}: only "
                         "the total-variation kink has a solve")
    result = minimize_columns_pgd(*_terms(linear, prior, divergence, lam),
                                  init, prior, 1.0 / lam)
    return replace(result, value=_value(objective, result.x))


def _tv_program(objective, linear, prior, lam, init):
    """TV as one linear program, solved by HiGHS (Huangfu & Hall 2018).

    Minimizes <L, gamma> + lam/2 * sum s over plans and slacks
    s_ik >= |gamma_ik - p_k m_i|, rescales the plan's columns onto the
    prior, and keeps ``init`` if it is no worse.
    """
    from scipy import sparse
    from scipy.optimize import linprog

    n, k = linear.shape
    # row i of the plan maps to its deviations gamma_i - p m_i
    deviation = sparse.kron(sparse.eye(n), np.eye(k) - prior[:, None])
    slack = sparse.eye(n * k)
    solved = linprog(np.concatenate([linear.ravel(), np.full(n * k, lam / 2)]),
                     A_ub=sparse.bmat([[deviation, -slack],
                                       [-deviation, -slack]]),
                     b_ub=np.zeros(2 * n * k), b_eq=prior,
                     A_eq=sparse.kron([[1.0] * n + [0.0] * n], sparse.eye(k)),
                     method="highs")
    if solved.status != 0:
        raise FloatingPointError(f"tv plan solve at lam={lam:g}: HiGHS "
                                 f"status {solved.status}: {solved.message}")
    gamma = np.maximum(solved.x[:n * k].reshape(n, k), 0.0)
    gamma *= prior / gamma.sum(axis=0)
    value, start = _value(objective, gamma), _value(objective, init)
    if start <= value:
        gamma, value = init, start
    return PGDResult(gamma, value, solved.nit, True)
