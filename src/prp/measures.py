"""Discrete distributions, transport plans and the regularized policy objective.

A strategy is a joint law over (action, type) stored as a matrix whose
columns must sum to the type prior.  All types here are immutable after
construction (arrays are marked read-only) and safe to share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

import numpy as np

from .divergences import FDivergence, perspective_total

WEIGHT_SUM_TOL = 1e-6      # acceptable drift before construction fails
COLUMN_SUM_TOL = 1e-9      # acceptable per-column drift for plans
NEGATIVITY_TOL = 1e-12     # entries above -this are clamped to zero


class ZeroMassRow(ValueError):
    """Posterior requested for a row carrying no mass."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


class DiscreteDistribution:
    """Weighted atoms; weights are renormalized to sum to one on construction.

    Atoms may be real vectors or opaque labels; only the weights matter for
    the numerical operations here.
    """

    __slots__ = ("atoms", "weights")

    def __init__(self, atoms: Sequence[Any], weights):
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 1 or len(atoms) != weights.size:
            raise ValueError("need one weight per atom")
        if weights.min(initial=0.0) < -NEGATIVITY_TOL:
            raise ValueError(f"negative weight {weights.min()}")
        weights = np.maximum(weights, 0.0)
        total = weights.sum()
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {total}, not 1")
        object.__setattr__(self, "atoms", list(atoms))
        object.__setattr__(self, "weights", _readonly(weights / total))

    def __setattr__(self, name, value):
        raise AttributeError("DiscreteDistribution is immutable")

    def __len__(self):
        return self.weights.size

    def __repr__(self):
        return f"DiscreteDistribution(n={len(self)}, weights={self.weights!r})"


class NonDifferentiableCost(TypeError):
    """Gradient requested through a cost oracle that declares none."""


@dataclass(frozen=True)
class CostOracle:
    """Pointwise utility-loss oracle c(action, type).

    ``bounds`` is the per-coordinate action box, shape (d, 2), when the
    action space is a hyperrectangle.  A cost that admits gradients in the
    action sets ``matrix_and_adjoint``: it maps stacked actions (..., n, d)
    and the type atoms (m, d) to the cost matrix C (..., n, m) and the
    adjoint map P -> d<C, P>/dx of shape (..., n, d); the leading axes
    index independent starts, as in `direct.minimize_direct_starts`.  The
    atoms need not be points of a box: the auction cost takes packed
    bid-policy parameter rows and sets no ``bounds``.
    """

    evaluate: Callable[[Any, Any], float]
    bounds: Optional[np.ndarray] = None
    matrix_and_adjoint: Optional[Callable] = None


def cost_with_adjoint(cost: CostOracle, atoms, type_atoms):
    """Cost matrix C(x) of stacked action atoms and the map P -> d<C(x), P>/dx.

    Every gradient in the action atoms goes through here, so a cost oracle
    without ``matrix_and_adjoint`` raises `NonDifferentiableCost`.
    """
    if cost.matrix_and_adjoint is None:
        raise NonDifferentiableCost(
            "cost oracle does not support differentiation in the action")
    return cost.matrix_and_adjoint(np.asarray(atoms, dtype=float),
                                   np.asarray(type_atoms, dtype=float))


def linear_cost(bounds) -> CostOracle:
    """c(x, y) = x . y on the given box: C = X Y^T with adjoint P -> P Y."""

    def matrix_and_adjoint(atoms, type_atoms):
        return atoms @ type_atoms.T, lambda plan: plan @ type_atoms

    return CostOracle(
        evaluate=lambda x, y: float(np.dot(x, y)),
        bounds=np.asarray(bounds, dtype=float),
        matrix_and_adjoint=matrix_and_adjoint,
    )


def cost_matrix(cost: CostOracle, action_atoms, type_atoms) -> np.ndarray:
    """Dense c(x_i, y_k) matrix.

    Built by the oracle's ``matrix_and_adjoint`` where it sets one, and
    from the pointwise ``evaluate`` only for pointwise-only oracles.
    """
    if cost.matrix_and_adjoint is not None:
        return cost_with_adjoint(cost, action_atoms, type_atoms)[0]
    out = np.empty((len(action_atoms), len(type_atoms)))
    for i, x in enumerate(action_atoms):
        for k, y in enumerate(type_atoms):
            out[i, k] = cost.evaluate(x, y)
    return out


class TransportPlan:
    """Joint law of (action, type): nonnegative matrix with columns = prior.

    Columns within ``COLUMN_SUM_TOL`` of the prior are rescaled onto it
    exactly, so solver iterates that were just projected pass construction.
    Rows may carry zero mass (no posterior is defined there).  Pass
    ``validate=False`` to store a raw matrix, e.g. for diagnostics.
    """

    __slots__ = ("gamma", "action_atoms", "type_atoms", "prior")

    def __init__(self, gamma, action_atoms, type_atoms, prior: DiscreteDistribution,
                 validate: bool = True):
        gamma = np.array(gamma, dtype=float)
        if gamma.ndim != 2:
            raise ValueError("gamma must be a matrix")
        if len(action_atoms) != gamma.shape[0] or len(type_atoms) != gamma.shape[1]:
            raise ValueError("atom counts must match the gamma shape")
        if len(prior) != gamma.shape[1]:
            raise ValueError("prior size must match the number of types")
        if validate:
            if gamma.min(initial=0.0) < -NEGATIVITY_TOL:
                raise ValueError(f"negative plan entry {gamma.min()}")
            gamma = np.maximum(gamma, 0.0)
            col = gamma.sum(axis=0)
            drift = np.abs(col - prior.weights)
            if drift.max(initial=0.0) > COLUMN_SUM_TOL:
                raise ValueError(
                    f"column sums deviate from the prior by {drift.max()}")
            with np.errstate(invalid="ignore", divide="ignore"):
                scale = np.where(col > 0.0, prior.weights / col, 1.0)
            gamma = gamma * scale[None, :]
        object.__setattr__(self, "gamma", _readonly(gamma))
        object.__setattr__(self, "action_atoms", list(action_atoms))
        object.__setattr__(self, "type_atoms", list(type_atoms))
        object.__setattr__(self, "prior", prior)

    def __setattr__(self, name, value):
        raise AttributeError("TransportPlan is immutable")

    @property
    def n_actions(self) -> int:
        return self.gamma.shape[0]

    @property
    def n_types(self) -> int:
        return self.gamma.shape[1]

    @property
    def row_masses(self) -> np.ndarray:
        return self.gamma.sum(axis=1)

    def __repr__(self):
        return f"TransportPlan(n_actions={self.n_actions}, n_types={self.n_types})"


def posterior(plan: TransportPlan, i: int) -> DiscreteDistribution:
    """Bayes posterior over types after observing action atom i."""
    row = plan.gamma[i]
    mass = row.sum()
    if mass <= 0.0:
        raise ZeroMassRow(f"row {i} has no mass; drop it before asking for a posterior")
    return DiscreteDistribution(plan.type_atoms, row / mass)


def prp_objective(plan: TransportPlan, cost: CostOracle, div: FDivergence,
                  lam: float) -> float:
    """Expected cost plus lam times the expected posterior-vs-prior divergence.

    The cost is priced through `cost_matrix`; entries with zero mass
    contribute nothing, even where their cost is infinite.  Rows with zero
    mass contribute nothing to the privacy term.  When a posterior fails
    absolute continuity and the divergence diverges, the value is +inf
    (returned, never raised).
    """
    if lam < 0.0:
        raise ValueError("lam must be nonnegative")
    gamma = plan.gamma
    c = cost_matrix(cost, plan.action_atoms, plan.type_atoms)
    live = gamma != 0.0
    total = float(gamma[live] @ c[live])
    if lam == 0.0:
        return total
    return total + lam * perspective_total(div, gamma, plan.prior.weights)


def merge_duplicate_atoms(plan: TransportPlan, atom_tol: float = 1e-8) -> TransportPlan:
    """Sum rows whose action atoms coincide within ``atom_tol`` in sup-norm.

    Column sums are preserved exactly, and by subadditivity of the row-wise
    privacy costs the objective can only decrease.
    """
    atoms = [np.asarray(a, dtype=float) for a in plan.action_atoms]
    reps: list[int] = []
    assignment = np.empty(len(atoms), dtype=int)
    for i, atom in enumerate(atoms):
        for slot, r in enumerate(reps):
            if atoms[r].shape == atom.shape and np.max(np.abs(atoms[r] - atom),
                                                       initial=0.0) <= atom_tol:
                assignment[i] = slot
                break
        else:
            assignment[i] = len(reps)
            reps.append(i)
    if len(reps) == len(atoms):
        return plan
    merged = np.zeros((len(reps), plan.n_types))
    for i, slot in enumerate(assignment):
        merged[slot] += plan.gamma[i]
    return TransportPlan(merged, [plan.action_atoms[r] for r in reps],
                         plan.type_atoms, plan.prior)


@dataclass(frozen=True)
class PlanDiagnostics:
    max_negativity: float
    max_column_violation: float
    row_masses: np.ndarray


def validate_plan(plan: TransportPlan) -> PlanDiagnostics:
    """Report constraint violations of a (possibly unvalidated) plan."""
    gamma = plan.gamma
    neg = max(0.0, -float(gamma.min(initial=0.0)))
    col = gamma.sum(axis=0)
    violation = float(np.abs(col - plan.prior.weights).max(initial=0.0))
    return PlanDiagnostics(neg, violation, gamma.sum(axis=1))


def plan_to_json(plan: TransportPlan) -> str:
    """Serialize a plan with vector atoms; field order is fixed."""
    atoms = np.asarray(plan.action_atoms, dtype=float)
    types = np.asarray(plan.type_atoms, dtype=float)
    if atoms.dtype == object or types.dtype == object:
        raise TypeError("only plans with array-like atoms are serializable")
    doc = {
        "atoms": atoms.tolist(),
        "types": types.tolist(),
        "prior": plan.prior.weights.tolist(),
        "gamma": plan.gamma.tolist(),
    }
    return json.dumps(doc)


def plan_from_json(text: str) -> TransportPlan:
    doc = json.loads(text)
    types = [np.asarray(t, dtype=float) for t in doc["types"]]
    prior = DiscreteDistribution(types, doc["prior"])
    atoms = [np.asarray(a, dtype=float) for a in doc["atoms"]]
    return TransportPlan(doc["gamma"], atoms, types, prior)
