"""Difference-of-convex solver for linear utility cost on a hyperrectangle.

With c(x, y) = x . y on the box [lower, upper], the best action of a row
gamma_i is the corner mid - sign(gamma_i @ phi) * half, where
mid = (lower + upper) / 2, half = (upper - lower) / 2 and phi = Y * half
stacks the box-scaled types.  At the best corners the plan objective is

    lam * sum_ik p0_k h_k(gamma_i)  -  sum_i || gamma_i @ phi ||_1  +  <p0, Y mid>,

a convex term minus a convex term, so DCA applies (Pham Dinh & Le Thi
1997).  Linearizing the subtracted norms at gamma gives the linear term
<C(corners), .> of the cost matrix at gamma's best corners, up to the
constant <p0, Y mid>: each DCA step moves every row to its best corner and
then solves the convex plan problem at that cost matrix.  The inner solve
starts from the current plan and never increases its objective, so the
DCA objective cannot rise in exact arithmetic; in floating point it can,
by an ulp (KL and TV alike, on some toy instances), so an outer step whose
plan scores higher than the last one is dropped and the solve stops.  The trace is
therefore nonincreasing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .convexsolve import minimize_linear_plus_privacy
from .divergences import FDivergence, perspective_total
from .measures import DiscreteDistribution, TransportPlan, atom_count

MAX_OUTER = 200      # default cap on the outer iterations
_OUTER_TOL = 1e-9    # outer decrease below which the solve stops


@dataclass(frozen=True)
class DCAResult:
    plan: TransportPlan
    trace: np.ndarray
    outer_iterations: int
    inner_max_iter_hit: bool


def _box(bounds):
    lower, upper = np.asarray(bounds, dtype=float).T
    if (lower > upper).any():
        raise ValueError("box lower bounds exceed upper bounds")
    return (lower + upper) / 2.0, (upper - lower) / 2.0


def best_corners(gamma, type_atoms, bounds) -> np.ndarray:
    """Each row's best box corner, mid - sign(gamma @ (Y * half)) * half.

    ``bounds`` holds one [lower, upper] row per coordinate.  sign(0) := 0
    puts a coordinate at the midpoint, so a zero-width coordinate sits at
    its value.
    """
    mid, half = _box(bounds)
    loads = (np.asarray(gamma, dtype=float)
             @ (np.asarray(type_atoms, dtype=float) * half))
    return mid - np.sign(loads) * half


def _own_corners(phi, prior, n) -> np.ndarray:
    """The lam = 0 optimum on n rows: each type's mass on the row of its own
    best corner, one row per corner.

    sum_i ||gamma_i @ phi||_1 <= sum_k p0_k ||phi_k||_1 by the triangle
    inequality, with equality when every row holds types of one sign
    pattern, so this plan reaches the full-information value.
    """
    _, row = np.unique(np.sign(phi), axis=0, return_inverse=True)
    gamma = np.zeros((n, prior.size))
    gamma[row.ravel(), np.arange(prior.size)] = prior
    return gamma


def dca_solve(type_atoms, prior_weights, bounds, divergence: FDivergence,
              lam: float, max_outer: int = MAX_OUTER) -> DCAResult:
    """Alternate best corners and the convex plan solve until the decrease stops.

    At most ``max_outer`` outer steps, stopping once one gains below 1e-9,
    from half the diagonal plan plus half the product coupling on K + 2
    rows: the product coupling alone is stationary (equal rows stay
    equal), and the inner solver's multiplicative updates keep exact zeros.
    The trace holds the plan objective at the best corners of each iterate;
    an outer step that would raise it is dropped and ends the solve, so
    the trace never increases.
    Inner step-cap hits are reported through the result flag.  At lam = 0
    the first outer step goes straight to the closed-form optimum, every
    type at its own best corner (`_own_corners`), and the solve stops there.
    """
    type_atoms = np.atleast_2d(np.asarray(type_atoms, dtype=float))
    prior = np.asarray(prior_weights, dtype=float)
    mid, half = _box(bounds)
    phi = type_atoms * half
    offset = float(np.dot(prior, type_atoms @ mid))

    def objective(gamma):
        # at lam = 0 the plan is deterministic, where reverse KL is +inf:
        # skip the term rather than take 0 * inf
        privacy = (0.0 if lam == 0.0
                   else lam * perspective_total(divergence, gamma, prior))
        return privacy - float(np.abs(gamma @ phi).sum()) + offset

    n = atom_count(prior.size)
    gamma = 0.5 * (np.eye(n, prior.size) * prior + np.tile(prior / n, (n, 1)))
    trace = [objective(gamma)]
    inner_hit = False
    outer = 0
    for outer in range(1, max_outer + 1):
        if lam == 0.0:
            gamma = _own_corners(phi, prior, n)
            trace.append(objective(gamma))
            break
        corners = best_corners(gamma, type_atoms, bounds)
        inner = minimize_linear_plus_privacy(corners @ type_atoms.T, prior,
                                             divergence, lam, init=gamma)
        inner_hit = inner_hit or not inner.converged
        value = objective(inner.x)
        if value > trace[-1]:
            break   # a rise at rounding level: keep the last plan
        gamma = inner.x
        trace.append(value)
        if trace[-2] - trace[-1] < _OUTER_TOL:
            break
    corners = best_corners(gamma, type_atoms, bounds)
    plan = TransportPlan(gamma, list(corners), list(type_atoms),
                         DiscreteDistribution(list(type_atoms), prior))
    return DCAResult(plan=plan, trace=np.asarray(trace),
                     outer_iterations=outer, inner_max_iter_hit=inner_hit)
