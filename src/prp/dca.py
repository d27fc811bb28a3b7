"""Difference-of-convex solver for linear utility cost on a hyperrectangle.

With c(x, y) = x . y on a box, minimizing jointly over (plan, actions)
reduces to a plan-only program

    minimize  lam * sum_ik p0_k h_k(gamma_i)  -  sum_i || gamma_i @ phi ||_1

over feasible plans, where phi stacks the box-scaled type vectors
phi(y)^l = (b_l - a_l) y^l / 2.  Both pieces are convex, so DCA applies:
linearize the subtracted norm term at the current iterate and solve the
remaining convex subproblem, which makes the objective trace nonincreasing
by construction.  The affine part of the cost dropped by the reduction is
kept as ``constant`` so full plan objectives can be reported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .convexsolve import minimize_linear_plus_privacy
from .divergences import FDivergence, perspective_total
from .measures import DiscreteDistribution, TransportPlan
from .optim import PGDResult

MAX_OUTER = 200      # default cap on the outer iterations
_OUTER_TOL = 1e-9    # outer decrease below which the solve stops


class DegenerateBox(ValueError):
    """A box coordinate has zero width; drop it before building the program."""


@dataclass(frozen=True)
class DCProgram:
    """Data of the reduced difference-of-convex program."""

    phi: np.ndarray            # (K, d) box-scaled type vectors
    prior: np.ndarray          # (K,)
    divergence: FDivergence
    lam: float
    lower: np.ndarray          # (d,)
    upper: np.ndarray          # (d,)
    type_atoms: np.ndarray     # (K, d)
    constant: float            # affine cost part dropped by the reduction


@dataclass(frozen=True)
class DCAResult:
    plan: TransportPlan
    trace: np.ndarray
    outer_iterations: int
    inner_max_iter_hit: bool


def build_dc(type_atoms, prior_weights, lower, upper,
             divergence: FDivergence, lam: float) -> DCProgram:
    """Assemble the program; requires a nondegenerate box (a_l < b_l)."""
    type_atoms = np.atleast_2d(np.asarray(type_atoms, dtype=float))
    prior_weights = np.asarray(prior_weights, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if (lower > upper).any():
        raise ValueError("box lower bounds exceed upper bounds")
    if (lower == upper).any():
        flat = np.nonzero(lower == upper)[0]
        raise DegenerateBox(
            f"coordinates {flat.tolist()} have zero width and would be "
            "dropped from the reduction; remove them from the box first")
    phi = type_atoms * ((upper - lower) / 2.0)[None, :]
    # c(x, y) = psi(x).phi(y) + eta(y) with eta(y) = sum_l (a_l+b_l) y^l / 2
    eta = type_atoms @ ((lower + upper) / 2.0)
    constant = float(np.dot(prior_weights, eta))
    return DCProgram(phi=phi, prior=prior_weights, divergence=divergence,
                     lam=lam, lower=lower, upper=upper,
                     type_atoms=type_atoms, constant=constant)


def dc_objective(program: DCProgram, gamma) -> float:
    """lam * privacy - sum of row 1-norms of gamma @ phi."""
    gamma = np.asarray(gamma, dtype=float)
    privacy = perspective_total(program.divergence, gamma, program.prior)
    norms = np.abs(gamma @ program.phi).sum()
    return program.lam * privacy - float(norms)


def concave_part_subgradient(program: DCProgram, gamma) -> np.ndarray:
    """Subgradient of sum_i ||gamma_i @ phi||_1, with sign(0) := 0."""
    gamma = np.asarray(gamma, dtype=float)
    signs = np.sign(gamma @ program.phi)        # (n, d)
    return signs @ program.phi.T                # (n, K)


def convex_subproblem(program: DCProgram, s, init) -> PGDResult:
    """Minimize lam * privacy - <s, gamma> over feasible plans.

    lam = 0 makes the problem a linear program over scaled simplices whose
    solution is closed form: each column puts its whole budget on the row
    with the largest linearization coefficient (ties to the smallest index).
    The returned objective value never exceeds the value at ``init``.
    """
    s = np.asarray(s, dtype=float)
    return minimize_linear_plus_privacy(-s, program.prior, program.divergence,
                                        program.lam, init=init)


def recover_actions(program: DCProgram, gamma) -> np.ndarray:
    """Optimal actions for a fixed plan: box corners from the row signs.

    In the rescaled box the best coordinate is -sign((gamma_i @ phi)^l);
    sign(0) maps to the box midpoint after unscaling.
    """
    gamma = np.asarray(gamma, dtype=float)
    scaled = -np.sign(gamma @ program.phi)      # (n, d) in [-1, 1]
    mid = (program.lower + program.upper) / 2.0
    half = (program.upper - program.lower) / 2.0
    return mid[None, :] + scaled * half[None, :]


def product_coupling(prior_weights, n_rows: int) -> np.ndarray:
    """Uniform row mixture of the prior: the non-revealing starting plan."""
    prior_weights = np.asarray(prior_weights, dtype=float)
    return np.tile(prior_weights / n_rows, (n_rows, 1))


def dca_solve(program: DCProgram, max_outer: int = MAX_OUTER) -> DCAResult:
    """Alternate linearization and convex subproblem until the decrease stops.

    At most ``max_outer`` outer steps, stopping once one gains below 1e-9,
    from half the diagonal plan plus half the product coupling on K + 2
    rows: the product coupling alone is stationary (equal rows stay
    equal), and the inner solver's multiplicative updates keep exact zeros.

    The inner solver starts from the current iterate and never increases its
    objective, which makes the outer trace nonincreasing — the defining DCA
    property.  Inner step-cap hits are reported through the result flag.
    """
    k = program.prior.size
    n_rows = k + 2
    gamma = 0.5 * (np.eye(n_rows, k) * program.prior
                   + product_coupling(program.prior, n_rows))
    trace = [dc_objective(program, gamma)]
    inner_hit = False
    outer = 0
    for outer in range(1, max_outer + 1):
        subgradient = concave_part_subgradient(program, gamma)
        inner = convex_subproblem(program, subgradient, gamma)
        inner_hit = inner_hit or not inner.converged
        gamma = inner.x
        trace.append(dc_objective(program, gamma))
        if trace[-2] - trace[-1] < _OUTER_TOL:
            break
    actions = recover_actions(program, gamma)
    prior = DiscreteDistribution(list(program.type_atoms), program.prior)
    plan = TransportPlan(gamma, list(actions), list(program.type_atoms), prior)
    return DCAResult(plan=plan, trace=np.asarray(trace),
                     outer_iterations=outer, inner_max_iter_hit=inner_hit)
