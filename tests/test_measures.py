import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prp.divergences import kl_divergence, perspective_h, total_variation
from prp.measures import (CostOracle, DiscreteDistribution, TransportPlan,
                          ZeroMassRow, cost_matrix, linear_cost,
                          merge_duplicate_atoms,
                          plan_from_json, plan_to_json, posterior,
                          prp_objective, validate_plan)

KL = kl_divergence()
ZERO_COST = CostOracle(evaluate=lambda x, y: 0.0)

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
# posterior


@settings(max_examples=50, deadline=None)
@given(simplex, simplex)
def test_product_plan_posterior_is_prior(alpha, prior):
    gamma = np.outer(alpha, prior)
    plan = make_plan(gamma, prior)
    for i in range(len(alpha)):
        assert np.allclose(posterior(plan, i).weights, prior, atol=1e-12)


def test_diagonal_plan_posterior_is_dirac():
    prior = np.array([0.3, 0.7])
    plan = make_plan(np.diag(prior), prior)
    assert np.allclose(posterior(plan, 0).weights, [1.0, 0.0])
    assert np.allclose(posterior(plan, 1).weights, [0.0, 1.0])


def test_posterior_normalizes_row():
    prior = np.array([0.5, 0.5])
    gamma = np.array([[0.1, 0.3], [0.4, 0.2]])
    plan = make_plan(gamma, prior)
    assert np.allclose(posterior(plan, 0).weights, [0.25, 0.75], atol=1e-12)


def test_zero_mass_row_raises():
    prior = np.array([0.5, 0.5])
    plan = make_plan([[0.5, 0.5], [0.0, 0.0]], prior)
    with pytest.raises(ZeroMassRow):
        posterior(plan, 1)


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
    cost = CostOracle(evaluate=lambda x, y: float(x[0] + 2 * y[0]))
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


def test_cost_builders_agree_on_linear_cost():
    # the matrix builder of `linear_cost` and its pointwise oracle alone
    rng = np.random.default_rng(3)
    atoms, types = rng.normal(size=(5, 3)), rng.normal(size=(4, 3))
    cost = linear_cost(np.tile([-1.0, 1.0], (3, 1)))
    pointwise = CostOracle(evaluate=cost.evaluate, bounds=cost.bounds)
    assert np.abs(cost_matrix(cost, atoms, types)
                  - cost_matrix(pointwise, atoms, types)).max() <= 1e-15


def test_zero_mass_entries_ignore_infinite_costs():
    prior = np.array([0.5, 0.5])
    plan = make_plan(np.diag(prior), prior)

    def matrix_and_adjoint(atoms, types):
        c = np.where(np.eye(2) > 0.0, 1.0, np.inf)
        return c, lambda p: p @ types

    cost = CostOracle(evaluate=lambda x, y: 1.0 if x[0] == y[0] else math.inf,
                      matrix_and_adjoint=matrix_and_adjoint)
    with np.errstate(all="raise"):
        assert prp_objective(plan, cost, KL, 0.0) == 1.0
    pointwise = CostOracle(evaluate=cost.evaluate)
    assert prp_objective(plan, pointwise, KL, 0.0) == 1.0


@settings(max_examples=30, deadline=None)
@given(simplex, st.floats(0.05, 0.95), st.floats(0.0, 3.0))
def test_objective_convex_in_plan(prior, t, lam):
    rng = np.random.default_rng(0)
    k = prior.size
    n = k + 1
    cost = CostOracle(evaluate=lambda x, y: float(np.dot(x, y)))
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
# merge


def test_merge_keeps_distinct_plans_unchanged():
    prior = np.array([0.5, 0.5])
    plan = make_plan([[0.2, 0.3], [0.3, 0.2]], prior)
    assert merge_duplicate_atoms(plan) is plan


def test_merge_sums_identical_atoms():
    prior = np.array([0.5, 0.5])
    atoms = [np.array([1.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    gamma = np.array([[0.1, 0.2], [0.2, 0.1], [0.2, 0.2]])
    merged = merge_duplicate_atoms(make_plan(gamma, prior, atoms))
    assert merged.n_actions == 2
    assert np.allclose(merged.gamma[0], [0.3, 0.3])
    assert np.allclose(merged.gamma.sum(axis=0), prior, atol=1e-15)


def test_merge_never_increases_objective():
    rng = np.random.default_rng(2)
    prior = np.array([0.2, 0.3, 0.5])
    cost = CostOracle(evaluate=lambda x, y: float(np.dot(x, y)))
    for _ in range(20):
        atoms = [rng.normal(size=2) for _ in range(3)]
        atoms.append(atoms[0].copy())  # one duplicated atom
        gamma = rng.dirichlet(np.ones(4), size=3).T * prior[None, :]
        types = [rng.normal(size=2) for _ in range(3)]
        prior_dd = DiscreteDistribution(types, prior)
        plan = TransportPlan(gamma, atoms, types, prior_dd)
        merged = merge_duplicate_atoms(plan)
        assert merged.n_actions == 3
        assert np.allclose(merged.gamma.sum(axis=0), prior, atol=1e-15)
        for div in (KL, total_variation()):
            for lam in (0.1, 1.0):
                assert prp_objective(merged, cost, div, lam) <= (
                    prp_objective(plan, cost, div, lam) + 1e-9)


# ---------------------------------------------------------------------------
# diagnostics and serialization


def test_valid_plan_has_clean_diagnostics():
    prior = np.array([0.4, 0.6])
    plan = make_plan(np.outer([0.5, 0.5], prior), prior)
    diag = validate_plan(plan)
    assert diag.max_negativity == 0.0
    assert diag.max_column_violation < 1e-15
    assert np.allclose(diag.row_masses, [0.5, 0.5])


def test_diagnostics_report_negativity():
    prior = DiscreteDistribution([0, 1], [0.5, 0.5])
    raw = TransportPlan([[0.5, 0.5], [-1e-6, 1e-6]], [0, 1], [0, 1], prior,
                        validate=False)
    assert validate_plan(raw).max_negativity == pytest.approx(1e-6)


def test_diagnostics_report_column_violation():
    prior = DiscreteDistribution([0, 1], [0.5, 0.5])
    raw = TransportPlan([[0.25, 0.25], [0.24, 0.25]], [0, 1], [0, 1], prior,
                        validate=False)
    assert validate_plan(raw).max_column_violation == pytest.approx(0.01)


def test_json_round_trip_and_field_order():
    prior = np.array([0.5, 0.5])
    plan = make_plan([[0.2, 0.3], [0.3, 0.2]],
                     prior, atoms=[np.array([0.0, 1.0]), np.array([1.0, 0.0])])
    text = plan_to_json(plan)
    assert list(json.loads(text).keys()) == ["atoms", "types", "prior", "gamma"]
    back = plan_from_json(text)
    assert np.allclose(back.gamma, plan.gamma)
    assert np.allclose(back.prior.weights, prior)
    assert np.allclose(np.asarray(back.action_atoms), np.asarray(plan.action_atoms))


def test_linear_cost_oracle_evaluates_dot_product():
    cost = linear_cost(np.array([[-1.0, 1.0], [-1.0, 1.0]]))
    assert cost.evaluate(np.array([1.0, 2.0]), np.array([0.5, -0.5])) == (
        pytest.approx(-0.5))
    x = np.array([[1.0, 2.0], [0.0, -1.0], [0.5, 0.5]])
    y = np.array([[0.5, -0.5], [1.0, 0.25]])
    matrix, adjoint = cost.matrix_and_adjoint(x, y)
    assert np.array_equal(matrix, [[cost.evaluate(a, b) for b in y] for a in x])
    plan = np.arange(6.0).reshape(3, 2)
    assert np.array_equal(adjoint(plan), plan @ y)
