"""Convex plan solves: linear cost term plus the row-wise privacy term.

Minimizes  <L, gamma> + lam * sum_ik p0_k h_k(gamma_i)  over plans whose
columns sum to the prior.  This covers both the full-grid convex problem
(L = cost matrix) and the DCA inner step (L = minus the linearization).

lam = 0 is a linear program over scaled simplices and is solved in closed
form.  Smooth generators run `optim.minimize_columns_pgd` from step 1/lam:
for KL the privacy term is the mutual information and that step is the
Blahut-Arimoto update (Blahut 1972), always accepted.  The kinked
total-variation generator is annealed through a shrinking Huber smoothing,
with the best iterate under the true objective kept.
"""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np

from .divergences import (FDivergence, perspective_total,
                          perspective_total_grad)
from .optim import PGDResult, minimize_columns_pgd


def minimize_linear_plus_privacy(linear: np.ndarray, prior_weights,
                                 divergence: FDivergence, lam: float,
                                 init=None, max_steps: int = 5000,
                                 tol: float = 1e-8) -> PGDResult:
    """Solve from ``init`` (default: the uniform mixture); warn if capped."""
    linear = np.asarray(linear, dtype=float)
    prior = np.asarray(prior_weights, dtype=float)
    if lam == 0.0:
        gamma = np.zeros_like(linear)
        gamma[np.argmin(linear, axis=0), np.arange(linear.shape[1])] = prior
        return PGDResult(gamma, float((linear * gamma).sum()), 0, True)

    def objective(g):
        return (float((linear * g).sum())
                + lam * perspective_total(divergence, g, prior))

    if init is None:
        n = linear.shape[0]
        init = np.tile(prior / n, (n, 1))
    result = _descend(objective, linear, prior, divergence, lam, init,
                      max_steps, tol)
    # all mass on the best averaged row, the optimum as lam grows, is a
    # fixed point of the multiplicative update: compare it directly
    concentrated = np.zeros_like(linear)
    concentrated[int(np.argmin(linear @ prior))] = prior
    value = objective(concentrated)
    if value < result.value:
        result = replace(result, x=concentrated, value=value)
    if not result.converged:
        warnings.warn(f"{divergence.name} plan solve at lam={lam:g} stopped "
                      f"at its {result.steps}-step cap", RuntimeWarning,
                      stacklevel=2)
    return result


def _descend(objective, linear, prior, divergence, lam, init, max_steps, tol):
    if divergence.smooth:
        def gradient(g):
            return linear + lam * perspective_total_grad(divergence, g, prior)

        return minimize_columns_pgd(objective, gradient, init, prior,
                                    max_steps=max_steps, tol=tol,
                                    lr0=1.0 / lam)
    return _annealed(objective, linear, prior, divergence, lam, init,
                     max_steps, tol)


def _annealed(objective, linear, prior, divergence, lam, init, max_steps, tol):
    best = np.asarray(init, dtype=float)
    best_value = objective(best)
    gamma = best
    levels = np.geomspace(1e-1, 1e-8, 8)
    # each level gets the full step budget: the smoothed curvature grows like
    # 1/mu, so late levels take many short steps to cross the kink region
    converged = True
    for mu in levels:
        smoothed = _smoothed(divergence, mu)

        def gradient(g, _d=smoothed):
            return linear + lam * perspective_total_grad(_d, g, prior)

        def smooth_objective(g, _d=smoothed):
            return (float((linear * g).sum())
                    + lam * perspective_total(_d, g, prior))

        result = minimize_columns_pgd(smooth_objective, gradient, gamma, prior,
                                      max_steps=max_steps, tol=tol,
                                      lr0=1.0 / lam)
        gamma = result.x
        converged = converged and result.converged
        value = objective(gamma)
        if value < best_value:
            best, best_value = gamma, value
    return PGDResult(best, best_value, max_steps, converged)


def _smoothed(div: FDivergence, mu: float) -> FDivergence:
    """Huber-smooth the total-variation kink; other generators pass through."""
    if div.name != "tv":
        return div

    def f(t):
        z = t - 1.0
        return 0.5 * np.where(np.abs(z) <= mu, z * z / (2.0 * mu),
                              np.abs(z) - mu / 2.0)

    return FDivergence(name="tv", f=f, f_at_zero=float(f(np.array(0.0))),
                       f_slope_at_infinity=0.5,
                       f_prime=lambda t: 0.5 * np.clip((t - 1.0) / mu, -1.0, 1.0))
