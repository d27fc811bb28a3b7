"""Convex plan solves: linear cost term plus the row-wise privacy term.

Minimizes  <L, gamma> + lam * sum_ik p0_k h_k(gamma_i)  over plans whose
columns sum to the prior, with L the cost matrix of fixed actions: a
lattice of actions for the full-grid convex problem, and the rows' best
box corners for the DCA step (the linearization of its concave part).

lam = 0 is a linear program over scaled simplices and is solved in closed
form.  For KL the privacy term is the mutual information, and at fixed row
masses the best plan is a Gibbs plan in closed form, so the solve is a
convex problem in the n row masses alone (Blahut 1972; Csiszar & Tusnady
1984): a backtracking mirror descent on the masses, whose Gibbs plan is
returned.  Every other generator runs `optim.minimize_columns_pgd` on the
full plan from step 1/lam, in one loop over smoothing levels: a smooth
generator is one level, and the kinked total-variation generator is
annealed through a shrinking Huber smoothing, with the best iterate under
the true objective kept.  Every descent stops at `optim.MAX_STEPS` steps.
"""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np

from .divergences import (FDivergence, perspective_total,
                          perspective_total_grad)
from .optim import MAX_STEPS, PGDResult, _descend, minimize_columns_pgd

_MASS_TOL = 1e-12   # window decrease that ends the KL row-mass solve
_BLAHUT_ARIMOTO_STEPS = 8   # warm start of the KL row-mass descent
_LEVELS = np.geomspace(1e-1, 1e-8, 8)   # Huber widths of the TV annealing


def minimize_linear_plus_privacy(linear: np.ndarray, prior_weights,
                                 divergence: FDivergence, lam: float,
                                 init=None) -> PGDResult:
    """Solve from ``init`` (default: the uniform mixture); warn if capped."""
    linear = np.asarray(linear, dtype=float)
    prior = np.asarray(prior_weights, dtype=float)
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
                      f"at its {MAX_STEPS}-step cap", RuntimeWarning,
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
    from the row masses of ``init`` (zero rows stay zero) to a window
    decrease of _MASS_TOL, and the Gibbs plan of the first m is already no
    worse than ``init``.  The descent starts with _BLAHUT_ARIMOTO_STEPS
    updates m <- m * r (the row masses of the Gibbs plan), which never raise F and, having no line search, cost a fraction
    of a mirror step; they do most of the work at small lam, where the
    mirror step accepts only a fraction of 1/lam, and little at large lam,
    where the mirror steps double.  The reported steps are the mirror steps.
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
    result = _descend(mass_objective, lambda m: -lam * ratios(m), start,
                      np.ones(1), MAX_STEPS, 1.0 / lam, _MASS_TOL)
    weighted = result.x * kernel
    gamma = np.zeros_like(linear)
    gamma[rows] = weighted / weighted.sum(axis=0) * prior
    return replace(result, x=gamma, value=_value(objective, gamma))


def _plan_descent(objective, linear, prior, divergence, lam, init):
    """Entropic plan descent over smoothing levels; steps add up over them.

    A smooth generator is one level, the objective itself.  TV runs one
    Huber width of _LEVELS per level from the last level's plan, each with
    the full step budget (the smoothed curvature grows like 1/mu), and
    keeps the best plan under the true objective, init included, since a
    smoothed level may raise it.
    """
    if divergence.smooth:
        levels, best = [divergence], None
    else:
        levels = [_smoothed(divergence, mu) for mu in _LEVELS]
        best = (init, _value(objective, init))
    gamma, steps, converged = init, 0, True
    for level in levels:
        result = minimize_columns_pgd(*_terms(linear, prior, level, lam),
                                      gamma, prior, max_steps=MAX_STEPS,
                                      lr0=1.0 / lam)
        gamma = result.x
        steps += result.steps
        converged = converged and result.converged
        value = _value(objective, gamma)
        if best is None or value < best[1]:
            best = (gamma, value)
    return PGDResult(*best, steps, converged)


def _smoothed(div: FDivergence, mu: float) -> FDivergence:
    """Huber-smooth the total-variation kink at width ``mu``."""
    def f(t):
        z = t - 1.0
        return 0.5 * np.where(np.abs(z) <= mu, z * z / (2.0 * mu),
                              np.abs(z) - mu / 2.0)

    return FDivergence(name="tv", f=f, f_at_zero=float(f(np.array(0.0))),
                       f_slope_at_infinity=0.5,
                       f_prime=lambda t: 0.5 * np.clip((t - 1.0) / mu, -1.0, 1.0))
