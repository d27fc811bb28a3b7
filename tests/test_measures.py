import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prp.divergences import kl_divergence, total_variation
from prp.measures import (DiscreteDistribution, TransportPlan, linear_cost,
                          plan_to_json, prp_objective)

from oracles import matrix_cost, perspective_h

KL = kl_divergence()
ZERO_COST = matrix_cost(np.zeros((8, 8)))

simplex = st.lists(st.floats(0.05, 1.0), min_size=2, max_size=4).map(
    lambda w: np.asarray(w) / np.sum(w))


def make_plan(gamma, prior_weights, atoms=None):
    gamma = np.asarray(gamma, dtype=float)
    n, k = gamma.shape
    if atoms is None:
        atoms = [np.array([float(i)]) for i in range(n)]
    types = [np.array([float(j)]) for j in range(k)]
    prior = DiscreteDistribution(types, prior_weights)
    return TransportPlan(gamma, atoms, types, prior)


# ---------------------------------------------------------------------------
# DiscreteDistribution


def test_weights_are_renormalized():
    d = DiscreteDistribution(["a", "b"], [0.5, 0.5 + 1e-9])
    assert d.weights.sum() == pytest.approx(1.0, abs=1e-15)


def test_negative_weight_rejected():
    with pytest.raises(ValueError):
        DiscreteDistribution(["a", "b"], [1.1, -0.1])


def test_badly_scaled_weights_rejected():
    with pytest.raises(ValueError):
        DiscreteDistribution(["a", "b"], [2.0, 1.0])


def test_distribution_is_immutable():
    d = DiscreteDistribution(["a"], [1.0])
    with pytest.raises(AttributeError):
        d.weights = np.array([1.0])
    with pytest.raises(ValueError):
        d.weights[0] = 2.0


# ---------------------------------------------------------------------------
# plan construction


def test_column_drift_above_tolerance_rejected():
    prior = np.array([0.5, 0.5])
    with pytest.raises(ValueError):
        make_plan([[0.3, 0.5], [0.21, 0.5]], prior)


def test_columns_rescaled_onto_prior():
    prior = np.array([0.5, 0.5])
    eps = 1e-10
    plan = make_plan([[0.25, 0.25], [0.25 + eps, 0.25]], prior)
    assert np.allclose(plan.gamma.sum(axis=0), prior, atol=1e-15)


def test_negative_entry_rejected():
    prior = np.array([0.5, 0.5])
    with pytest.raises(ValueError):
        make_plan([[0.5, 0.5 + 1e-6], [0.0, -1e-6]], prior)


# ---------------------------------------------------------------------------
# objective


def test_lambda_zero_gives_pure_expected_cost():
    prior = np.array([0.4, 0.6])
    gamma = np.array([[0.2, 0.3], [0.2, 0.3]])
    plan = make_plan(gamma, prior)
    cost = matrix_cost([[0.0, 2.0], [1.0, 3.0]])   # atom i, type k: i + 2k
    expected = sum(gamma[i, k] * (i + 2 * k) for i in range(2) for k in range(2))
    assert prp_objective(plan, cost, KL, 0.0) == pytest.approx(expected)


@settings(max_examples=40, deadline=None)
@given(simplex, simplex, st.floats(0.0, 5.0))
def test_product_plan_has_zero_privacy_cost(alpha, prior, lam):
    gamma = np.outer(alpha, prior)
    plan = make_plan(gamma, prior)
    assert prp_objective(plan, ZERO_COST, KL, lam) == pytest.approx(0.0, abs=1e-10)


def test_diagonal_uniform_plan_costs_log_two():
    prior = np.array([0.5, 0.5])
    plan = make_plan(np.diag(prior), prior)
    assert prp_objective(plan, ZERO_COST, KL, 1.0) == pytest.approx(
        math.log(2.0), abs=1e-12)


def test_objective_returns_infinity_when_divergence_diverges():
    from prp.divergences import reverse_kl_divergence
    prior = np.array([0.5, 0.5])
    plan = make_plan(np.diag(prior), prior)
    assert prp_objective(plan, ZERO_COST, reverse_kl_divergence(), 1.0) == math.inf


def test_zero_mass_rows_contribute_nothing():
    prior = np.array([0.5, 0.5])
    plan = make_plan([[0.5, 0.5], [0.0, 0.0]], prior)
    assert prp_objective(plan, ZERO_COST, KL, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_zero_mass_entries_ignore_infinite_costs():
    prior = np.array([0.5, 0.5])
    plan = make_plan(np.diag(prior), prior)
    cost = matrix_cost(np.where(np.eye(2) > 0.0, 1.0, np.inf))
    with np.errstate(all="raise"):
        assert prp_objective(plan, cost, KL, 0.0) == 1.0


@settings(max_examples=30, deadline=None)
@given(simplex, st.floats(0.05, 0.95), st.floats(0.0, 3.0))
def test_objective_convex_in_plan(prior, t, lam):
    rng = np.random.default_rng(0)
    k = prior.size
    n = k + 1
    cost = linear_cost(np.tile([-1.0, 1.0], (2, 1)))
    atoms = [rng.normal(size=2) for _ in range(n)]
    types = [rng.normal(size=2) for _ in range(k)]

    def random_plan():
        cols = rng.dirichlet(np.ones(n), size=k).T * prior[None, :]
        prior_dd = DiscreteDistribution(types, prior)
        return TransportPlan(cols, atoms, types, prior_dd)

    a, b = random_plan(), random_plan()
    mix = TransportPlan(t * a.gamma + (1 - t) * b.gamma, atoms, types, a.prior)
    for div in (KL, total_variation()):
        lhs = prp_objective(mix, cost, div, lam)
        rhs = (t * prp_objective(a, cost, div, lam)
               + (1 - t) * prp_objective(b, cost, div, lam))
        assert lhs <= rhs + 1e-9


@settings(max_examples=40, deadline=None)
@given(simplex, st.floats(0.1, 3.0))
def test_privacy_cost_equals_perspective_form(prior, lam):
    rng = np.random.default_rng(1)
    k = prior.size
    n = k + 2
    gamma = rng.dirichlet(np.ones(n), size=k).T * prior[None, :]
    plan = make_plan(gamma, prior)
    direct = prp_objective(plan, ZERO_COST, KL, lam)
    h_form = lam * sum(prior[j] * perspective_h(KL, gamma[i], prior, j)
                       for i in range(n) for j in range(k))
    assert direct == pytest.approx(h_form, abs=1e-10)


# ---------------------------------------------------------------------------
# serialization


def test_json_round_trip_and_field_order():
    prior = np.array([0.5, 0.5])
    plan = make_plan([[0.2, 0.3], [0.3, 0.2]],
                     prior, atoms=[np.array([0.0, 1.0]), np.array([1.0, 0.0])])
    text = plan_to_json(plan)
    assert list(json.loads(text).keys()) == ["atoms", "types", "prior", "gamma"]
    back = json.loads(text)
    assert np.array_equal(back["gamma"], plan.gamma)
    assert np.array_equal(back["prior"], prior)
    assert np.array_equal(back["atoms"], np.asarray(plan.action_atoms))
    assert np.array_equal(back["types"], np.asarray(plan.type_atoms))


def test_linear_cost_oracle_evaluates_dot_product():
    cost = linear_cost(np.array([[-1.0, 1.0], [-1.0, 1.0]]))
    x = np.array([[1.0, 2.0], [0.0, -1.0], [0.5, 0.5]])
    y = np.array([[0.5, -0.5], [1.0, 0.25]])
    matrix, adjoint = cost.matrix_and_adjoint(x, y)
    assert matrix[0, 0] == -0.5
    assert np.array_equal(matrix, x @ y.T)
    plan = np.arange(6.0).reshape(3, 2)
    assert np.array_equal(adjoint(plan), plan @ y)
