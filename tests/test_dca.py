import numpy as np
import pytest

from prp import seeds, toy
from prp.dca import best_corners, dca_solve
from prp.divergences import (from_name, kl_divergence,
                             reverse_kl_divergence, total_variation)
from prp.measures import (DiscreteDistribution, TransportPlan, linear_cost,
                          prp_objective)

import oracles

KL = kl_divergence()
UNIT = np.array([[-1.0, 1.0], [-1.0, 1.0]])


def random_instance(rng, d=2, k=3):
    y = rng.uniform(-1.0, 1.0, size=(k, d))
    y /= np.abs(y).sum(axis=1, keepdims=True)
    return y, rng.dirichlet(np.ones(k)), np.tile([-1.0, 1.0], (d, 1))


def off_center_box(rng, d):
    lower = rng.uniform(-2.0, 1.0, size=d)
    return np.stack([lower, lower + rng.uniform(0.1, 3.0, size=d)], axis=1)


def feasible_gamma(rng, prior):
    return rng.dirichlet(np.ones(prior.size + 2), size=prior.size).T * prior


def plan_at_corners(gamma, y, prior, bounds):
    corners = best_corners(gamma, y, bounds)
    return TransportPlan(gamma, list(corners), list(y),
                         DiscreteDistribution(list(y), prior))


# ---------------------------------------------------------------------------
# best corners against the reduced program's box-scaled types


def test_symmetric_unit_box_keeps_types_unscaled():
    # mid = 0 and half = 1: the corners' cost matrix is minus the reduced
    # program's subgradient, exactly
    rng = np.random.default_rng(0)
    y, prior, bounds = random_instance(rng, d=3, k=4)
    phi = oracles.dc_phi(y, *bounds.T)
    assert np.array_equal(phi, y)
    assert oracles.dc_constant(y, prior, *bounds.T) == 0.0
    gamma = feasible_gamma(rng, prior)
    gamma[1] = 0.0
    assert np.array_equal(best_corners(gamma, y, bounds) @ y.T,
                          -oracles.dc_subgradient(gamma, phi))


def test_asymmetric_box_scales_types():
    # off the centre the corners' costs are -s shifted by y_k . mid per type
    rng = np.random.default_rng(1)
    for d in (1, 2, 3):
        y, prior, _ = random_instance(rng, d=d, k=4)
        bounds = off_center_box(rng, d)
        gamma = feasible_gamma(rng, prior)
        s = oracles.dc_subgradient(gamma, oracles.dc_phi(y, *bounds.T))
        mid = bounds.mean(axis=1)
        assert np.allclose(best_corners(gamma, y, bounds) @ y.T,
                           -s + (y @ mid)[None, :], atol=1e-12)
    corners = best_corners(np.ones((1, 1)), np.array([[1.0, -1.0]]),
                           np.array([[0.0, 2.0], [0.0, 4.0]]))
    assert np.array_equal(corners, [[0.0, 4.0]])


def test_identical_rows_share_subgradient_rows():
    rng = np.random.default_rng(2)
    y, prior, bounds = random_instance(rng)
    row = rng.dirichlet(np.ones(3)) * prior
    gamma = np.stack([row, row, np.zeros(3), 2.0 * row, np.zeros(3)])
    corners = best_corners(gamma, y, bounds)
    s = oracles.dc_subgradient(gamma, oracles.dc_phi(y, *bounds.T))
    for rows in (corners, s):
        assert np.array_equal(rows[0], rows[1])
        assert np.array_equal(rows[0], rows[3])  # positive homogeneity
    assert np.array_equal(corners[2], [0.0, 0.0])  # zero row: the midpoint


def test_one_dimensional_positive_case_returns_phi():
    y = np.array([[0.5], [1.0]])
    prior = np.array([0.5, 0.5])
    gamma = np.tile(prior / 3, (3, 1))
    bounds = np.array([[-1.0, 1.0]])
    assert np.array_equal(best_corners(gamma, y, bounds) @ y.T,
                          -np.tile(oracles.dc_phi(y, -1.0, 1.0)[:, 0], (3, 1)))


def test_subgradient_inequality_on_random_perturbations():
    # the corners of gamma majorize the best-corner cost of any plan rho,
    # which is the subgradient inequality of the subtracted norm term
    rng = np.random.default_rng(3)
    y, prior, bounds = random_instance(rng)
    phi = oracles.dc_phi(y, *bounds.T)

    def norm_term(g):
        return float(np.abs(g @ phi).sum())

    gamma = feasible_gamma(rng, prior)
    linear = best_corners(gamma, y, bounds) @ y.T
    s = oracles.dc_subgradient(gamma, phi)
    for _ in range(100):
        rho = feasible_gamma(rng, prior)
        best = best_corners(rho, y, bounds) @ y.T
        assert float((linear * rho).sum()) >= float((best * rho).sum()) - 1e-12
        assert norm_term(rho) >= (norm_term(gamma)
                                  + float((s * (rho - gamma)).sum()) - 1e-9)


def test_one_dimensional_signs_pick_box_edges():
    y = np.array([[0.5], [1.0]])
    gamma = np.array([[0.5, 0.5], [0.0, 0.0]])
    corners = best_corners(gamma, y, np.array([[-1.0, 1.0]]))
    assert corners[0, 0] == -1.0  # positive combination -> low edge
    assert corners[1, 0] == 0.0   # zero row -> midpoint


def test_zero_row_maps_to_midpoint_of_shifted_box():
    corners = best_corners(np.zeros((2, 1)), np.array([[1.0, -1.0]]),
                           np.array([[0.0, 2.0], [1.0, 5.0]]))
    assert np.array_equal(corners, [[1.0, 3.0], [1.0, 3.0]])


def test_recovered_actions_beat_every_box_vertex():
    rng = np.random.default_rng(8)
    for d in (1, 2, 3, 6):
        y, prior, _ = random_instance(rng, d=d)
        bounds = off_center_box(rng, d)
        gamma = feasible_gamma(rng, prior)
        corners = best_corners(gamma, y, bounds)
        for i in range(gamma.shape[0]):
            load = gamma[i] @ y
            mine = float(corners[i] @ load)
            for vertex in oracles.box_vertices(*bounds.T):
                assert mine <= float(vertex @ load) + 1e-12


def test_inverted_box_is_rejected():
    with pytest.raises(ValueError, match="lower bounds exceed"):
        dca_solve(np.array([[1.0]]), np.array([1.0]), np.array([[1.0, 0.0]]),
                  KL, 0.1)


# ---------------------------------------------------------------------------
# the closed-form objective at the best corners


def test_reduced_objective_matches_plan_objective():
    rng = np.random.default_rng(0)
    cost = linear_cost(UNIT)
    for _ in range(5):
        y, prior, bounds = random_instance(rng)
        lam = float(rng.uniform(0.1, 2.0))
        gamma = feasible_gamma(rng, prior)
        full = prp_objective(plan_at_corners(gamma, y, prior, bounds), cost,
                             KL, lam)
        reduced = oracles.dc_objective(gamma, y, prior, KL, lam)
        assert reduced == pytest.approx(full, abs=1e-9)


def test_reduced_objective_matches_plan_objective_off_center_box():
    rng = np.random.default_rng(1)
    bounds = np.array([[-0.5, 1.5], [0.25, 2.0]])
    y = rng.uniform(-1.0, 1.0, size=(3, 2))
    prior = rng.dirichlet(np.ones(3))
    gamma = feasible_gamma(rng, prior)
    full = prp_objective(plan_at_corners(gamma, y, prior, bounds),
                         linear_cost(bounds), KL, 0.4)
    reduced = (oracles.dc_objective(gamma, oracles.dc_phi(y, *bounds.T),
                                    prior, KL, 0.4)
               + oracles.dc_constant(y, prior, *bounds.T))
    assert reduced == pytest.approx(full, abs=1e-9)


# ---------------------------------------------------------------------------
# full solve


def test_single_type_converges_immediately_to_deterministic_optimum():
    y = np.array([[0.7, -0.3]])  # unit 1-norm
    result = dca_solve(y, np.array([1.0]), UNIT, KL, 0.5)
    assert result.outer_iterations <= 2
    value = prp_objective(result.plan, linear_cost(UNIT), KL, 0.5)
    assert value == pytest.approx(-1.0, abs=1e-9)  # -|y|_1 with zero privacy


def test_dominant_privacy_collapses_to_non_revealing_plan():
    rng = np.random.default_rng(9)
    y, prior, bounds = random_instance(rng)
    result = dca_solve(y, prior, bounds, KL, 1e3)
    expected = -np.abs(prior @ y).sum()
    assert result.trace[-1] == pytest.approx(expected, abs=1e-6)
    # posteriors equal the prior: rows are proportional to it
    masses = result.plan.row_masses
    for i in range(result.plan.n_actions):
        if masses[i] > 1e-12:
            assert np.abs(result.plan.gamma[i] / masses[i]
                          - prior).max() < 1e-5


def test_trace_is_nonincreasing():
    rng = np.random.default_rng(10)
    for _ in range(10):
        y, prior, bounds = random_instance(rng, d=int(rng.integers(1, 4)),
                                           k=int(rng.integers(2, 5)))
        result = dca_solve(y, prior, bounds, KL,
                           float(rng.uniform(0.05, 2.0)))
        diffs = np.diff(result.trace)
        assert diffs.max(initial=-np.inf) <= 1e-10
        non_revealing = -np.abs(prior @ y).sum()
        assert result.trace[-1] <= non_revealing + 1e-12


def test_zero_privacy_weight_stops_with_a_finite_trace():
    # the lam = 0 plan solve is the closed-form column argmin, which is
    # deterministic: its reverse-KL privacy is +inf, and 0 * inf in the
    # trace made every step NaN, so the solve never stopped
    instance = toy.sample_instance(2, 5, seeds.rng_for(3, seeds.INSTANCE))
    finals = []
    for name in ["kl", "reverse_kl", "tv", "alpha:2"]:
        result = dca_solve(instance.type_atoms, instance.prior_weights,
                           instance.bounds, from_name(name), 0.0, 50)
        assert np.isfinite(result.trace).all()
        assert result.outer_iterations <= 2
        finals.append(result.trace[-1])
    # the privacy term drops out, so every generator takes the same steps
    assert finals == [finals[0]] * 4


@pytest.mark.parametrize("seed, optimum", [(0, -0.9315216513),
                                           (1, -0.9319108380),
                                           (2, -0.8913016319)])
def test_default_start_reaches_the_corner_optimum(seed, optimum):
    # toy instances (d=2, K=5, lam=0.1); the optima are Blahut-Arimoto
    # solves over the box corners with a certified bound.  From the product
    # coupling alone DCA would stop at the non-revealing plan.
    instance = toy.sample_instance(2, 5, seeds.rng_for(seed, seeds.INSTANCE))
    result = dca_solve(instance.type_atoms, instance.prior_weights,
                       instance.bounds, KL, 0.1)
    assert result.trace[-1] == pytest.approx(optimum, abs=1e-7)
    assert not result.inner_max_iter_hit


def test_reduced_plus_constant_matches_plan_objective_at_solution():
    rng = np.random.default_rng(11)
    y, prior, _ = random_instance(rng)
    bounds = off_center_box(rng, 2)
    result = dca_solve(y, prior, bounds, KL, 0.4)
    full = prp_objective(result.plan, linear_cost(bounds), KL, 0.4)
    reduced = (oracles.dc_objective(result.plan.gamma,
                                    oracles.dc_phi(y, *bounds.T), prior, KL,
                                    0.4)
               + oracles.dc_constant(y, prior, *bounds.T))
    assert result.trace[-1] == pytest.approx(full, abs=1e-9)
    assert result.trace[-1] == pytest.approx(reduced, abs=1e-12)


def test_zero_width_coordinate_adds_its_value_to_the_one_dimensional_optimum():
    rng = np.random.default_rng(12)
    y, prior, _ = random_instance(rng, d=2, k=4)
    flat = np.array([[-1.0, 1.0], [0.5, 0.5]])
    result = dca_solve(y, prior, flat, KL, 0.2)
    line = dca_solve(y[:, :1], prior, flat[:1], KL, 0.2)
    assert result.trace[-1] == pytest.approx(
        line.trace[-1] + 0.5 * float(prior @ y[:, 1]), abs=1e-8)
    assert np.array_equal(np.asarray(result.plan.action_atoms)[:, 1],
                          np.full(prior.size + 2, 0.5))


# ---------------------------------------------------------------------------
# the paper's DC iteration on the reduced program as the reference


@pytest.mark.parametrize("divergence", [KL, reverse_kl_divergence(),
                                        total_variation()],
                         ids=lambda div: div.name)
def test_unit_box_solves_match_the_reduced_program_bit_for_bit(divergence):
    for seed in range(3):
        instance = toy.sample_instance(2, 4,
                                       seeds.rng_for(seed, seeds.INSTANCE))
        y, prior = instance.type_atoms, instance.prior_weights
        result = dca_solve(y, prior, instance.bounds, divergence, 0.1,
                           max_outer=20)
        gamma, actions, trace = oracles.dc_iteration(
            y, prior, *instance.bounds.T, divergence, 0.1, max_outer=20)
        reference = TransportPlan(gamma, list(actions), list(y),
                                  DiscreteDistribution(list(y), prior))
        assert np.array_equal(result.plan.gamma, reference.gamma)
        assert np.array_equal(np.asarray(result.plan.action_atoms), actions)
        assert np.array_equal(result.trace, trace)


def test_off_center_boxes_match_the_reduced_program_final():
    rng = np.random.default_rng(13)
    for _ in range(6):
        d = int(rng.integers(1, 4))
        y, prior, _ = random_instance(rng, d=d, k=int(rng.integers(2, 6)))
        bounds = off_center_box(rng, d)
        lam = float(rng.choice([0.05, 0.3, 1.0]))
        result = dca_solve(y, prior, bounds, KL, lam)
        _, _, trace = oracles.dc_iteration(y, prior, *bounds.T, KL, lam)
        assert result.trace[-1] == pytest.approx(trace[-1], abs=1e-8)
