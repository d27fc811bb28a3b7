import numpy as np
import pytest

from prp import seeds, toy
from prp.dca import (DegenerateBox, build_dc, concave_part_subgradient,
                     convex_subproblem, dc_objective, dca_solve,
                     product_coupling, recover_actions)
from prp.divergences import kl_divergence, total_variation
from prp.measures import (DiscreteDistribution, TransportPlan, linear_cost,
                          prp_objective)

import oracles

KL = kl_divergence()


def random_program(rng, d=2, k=3, lam=0.5, divergence=KL):
    y = rng.uniform(-1.0, 1.0, size=(k, d))
    y /= np.abs(y).sum(axis=1, keepdims=True)
    prior = rng.dirichlet(np.ones(k))
    return build_dc(y, prior, -np.ones(d), np.ones(d), divergence, lam)


def feasible_gamma(rng, program, rows=None):
    k = program.prior.size
    n = rows or k + 2
    return rng.dirichlet(np.ones(n), size=k).T * program.prior[None, :]


def plan_of(program, gamma):
    actions = recover_actions(program, gamma)
    prior = DiscreteDistribution(list(program.type_atoms), program.prior)
    return TransportPlan(gamma, list(actions), list(program.type_atoms), prior)


# ---------------------------------------------------------------------------
# program assembly


def test_symmetric_unit_box_keeps_types_unscaled():
    y = np.array([[0.25, -0.75], [0.5, 0.5]])
    program = build_dc(y, np.array([0.5, 0.5]), [-1.0, -1.0], [1.0, 1.0],
                       KL, 0.1)
    assert np.allclose(program.phi, y)
    assert program.constant == pytest.approx(0.0)


def test_asymmetric_box_scales_types():
    program = build_dc(np.array([[1.0, 1.0]]), np.array([1.0]),
                       [0.0, 0.0], [2.0, 4.0], KL, 0.1)
    assert np.allclose(program.phi, [[1.0, 2.0]])


def test_degenerate_box_is_rejected():
    with pytest.raises(DegenerateBox):
        build_dc(np.array([[1.0, 1.0]]), np.array([1.0]), [0.0, 1.0],
                 [2.0, 1.0], KL, 0.1)


def test_reduced_objective_matches_plan_objective():
    rng = np.random.default_rng(0)
    cost = linear_cost(np.array([[-1.0, 1.0], [-1.0, 1.0]]))
    for _ in range(5):
        program = random_program(rng, lam=float(rng.uniform(0.1, 2.0)))
        gamma = feasible_gamma(rng, program)
        plan = plan_of(program, gamma)
        full = prp_objective(plan, cost, KL, program.lam)
        assert dc_objective(program, gamma) + program.constant == (
            pytest.approx(full, abs=1e-9))


def test_reduced_objective_matches_plan_objective_off_center_box():
    rng = np.random.default_rng(1)
    lower = np.array([-0.5, 0.25])
    upper = np.array([1.5, 2.0])
    y = rng.uniform(-1.0, 1.0, size=(3, 2))
    prior = rng.dirichlet(np.ones(3))
    program = build_dc(y, prior, lower, upper, KL, 0.4)
    cost = linear_cost(np.stack([lower, upper], axis=1))
    gamma = feasible_gamma(rng, program)
    plan = plan_of(program, gamma)
    full = prp_objective(plan, cost, KL, 0.4)
    assert dc_objective(program, gamma) + program.constant == (
        pytest.approx(full, abs=1e-9))


# ---------------------------------------------------------------------------
# subgradient of the subtracted norm term


def test_identical_rows_share_subgradient_rows():
    rng = np.random.default_rng(2)
    program = random_program(rng)
    row = rng.dirichlet(np.ones(3)) * program.prior
    gamma = np.stack([row, row, np.zeros(3), 2.0 * row, np.zeros(3)])
    s = concave_part_subgradient(program, gamma)
    assert np.allclose(s[0], s[1])
    assert np.allclose(s[0], s[3])  # positive homogeneity: same signs


def test_one_dimensional_positive_case_returns_phi():
    y = np.array([[0.5], [1.0]])
    program = build_dc(y, np.array([0.5, 0.5]), [-1.0], [1.0], KL, 0.2)
    gamma = product_coupling(program.prior, 3)
    s = concave_part_subgradient(program, gamma)
    assert np.allclose(s, np.tile(program.phi[:, 0], (3, 1)))


def test_subgradient_inequality_on_random_perturbations():
    rng = np.random.default_rng(3)
    program = random_program(rng)

    def norm_term(g):
        return float(np.abs(g @ program.phi).sum())

    gamma = feasible_gamma(rng, program)
    s = concave_part_subgradient(program, gamma)
    for _ in range(100):
        rho = feasible_gamma(rng, program)
        assert norm_term(rho) >= (norm_term(gamma)
                                  + float((s * (rho - gamma)).sum()) - 1e-9)


# ---------------------------------------------------------------------------
# inner convex subproblem


def test_zero_privacy_weight_reduces_to_column_argmax():
    rng = np.random.default_rng(4)
    y = rng.uniform(-1.0, 1.0, size=(3, 2))
    prior = np.array([0.2, 0.3, 0.5])
    program = build_dc(y, prior, [-1.0, -1.0], [1.0, 1.0], KL, 0.0)
    s = rng.normal(size=(5, 3))
    s[1, 0] = s[0, 0]  # tie in column 0 resolves to the smaller row index
    result = convex_subproblem(program, s, product_coupling(prior, 5))
    expected_rows = np.argmax(s, axis=0)
    for k in range(3):
        assert result.x[expected_rows[k], k] == pytest.approx(prior[k])
    assert result.x.sum() == pytest.approx(1.0)


def test_zero_linearization_reaches_zero_privacy():
    rng = np.random.default_rng(5)
    program = random_program(rng, lam=0.8)
    init = feasible_gamma(rng, program)
    result = convex_subproblem(program, np.zeros((5, 3)), init)
    assert result.value <= 1e-8
    assert result.value >= -1e-12


def test_inner_optimum_matches_grid_oracle_small_instance():
    rng = np.random.default_rng(6)
    y = rng.uniform(-1.0, 1.0, size=(2, 2))
    prior = np.array([0.4, 0.6])
    program = build_dc(y, prior, [-1.0, -1.0], [1.0, 1.0], KL, 0.5)
    s = rng.normal(size=(3, 2))
    result = convex_subproblem(program, s, product_coupling(prior, 3))
    reference = oracles.grid_minimize_objective(-s, prior, "kl", 0.5,
                                                base_resolution=8, rounds=9)
    assert result.value == pytest.approx(reference, abs=1e-3)


def test_inner_value_never_exceeds_init_value():
    rng = np.random.default_rng(7)
    for divergence in (KL, total_variation()):
        program = random_program(rng, lam=1.0, divergence=divergence)
        init = feasible_gamma(rng, program)
        s = concave_part_subgradient(program, init)

        def inner(g):
            from prp.divergences import perspective_total
            return (program.lam * perspective_total(divergence, g,
                                                    program.prior)
                    - float((s * g).sum()))

        result = convex_subproblem(program, s, init)
        assert inner(result.x) <= inner(init) + 1e-12


# ---------------------------------------------------------------------------
# action recovery


def test_one_dimensional_signs_pick_box_edges():
    y = np.array([[0.5], [1.0]])
    program = build_dc(y, np.array([0.5, 0.5]), [-1.0], [1.0], KL, 0.2)
    gamma = np.array([[0.5, 0.5], [0.0, 0.0]])
    actions = recover_actions(program, gamma)
    assert actions[0, 0] == pytest.approx(-1.0)  # positive combination -> low edge
    assert actions[1, 0] == pytest.approx(0.0)   # zero row -> midpoint


def test_zero_row_maps_to_midpoint_of_shifted_box():
    program = build_dc(np.array([[1.0, -1.0]]), np.array([1.0]),
                       [0.0, 1.0], [2.0, 5.0], KL, 0.2)
    actions = recover_actions(program, np.zeros((2, 1)))
    assert np.allclose(actions, [[1.0, 3.0], [1.0, 3.0]])


def test_recovered_actions_beat_every_box_vertex():
    rng = np.random.default_rng(8)
    for d in (1, 2, 3, 6):
        program = random_program(rng, d=d, k=3, lam=0.3)
        gamma = feasible_gamma(rng, program)
        actions = recover_actions(program, gamma)
        vertices = oracles.box_vertices(program.lower, program.upper)
        z = gamma @ program.phi  # row loads in the scaled geometry
        for i in range(gamma.shape[0]):
            mine = float(actions[i] @ (gamma[i] @ program.type_atoms))
            for vertex in vertices:
                assert mine <= float(vertex @ (gamma[i] @ program.type_atoms)) + 1e-9
        assert z.shape == (gamma.shape[0], d)


# ---------------------------------------------------------------------------
# full solve


def test_single_type_converges_immediately_to_deterministic_optimum():
    y = np.array([[0.7, -0.3]])  # unit 1-norm
    program = build_dc(y, np.array([1.0]), [-1.0, -1.0], [1.0, 1.0], KL, 0.5)
    result = dca_solve(program)
    assert result.outer_iterations <= 2
    cost = linear_cost(np.array([[-1.0, 1.0], [-1.0, 1.0]]))
    value = prp_objective(result.plan, cost, KL, 0.5)
    assert value == pytest.approx(-1.0, abs=1e-9)  # -|y|_1 with zero privacy


def test_dominant_privacy_collapses_to_non_revealing_plan():
    rng = np.random.default_rng(9)
    program = random_program(rng, lam=1e3)
    result = dca_solve(program)
    averaged = program.prior @ program.phi
    expected = -np.abs(averaged).sum()
    assert result.trace[-1] == pytest.approx(expected, abs=1e-6)
    # posteriors equal the prior: rows are proportional to it
    masses = result.plan.row_masses
    for i in range(result.plan.n_actions):
        if masses[i] > 1e-12:
            assert np.abs(result.plan.gamma[i] / masses[i]
                          - program.prior).max() < 1e-5


def test_trace_is_nonincreasing():
    rng = np.random.default_rng(10)
    for _ in range(10):
        program = random_program(rng, d=int(rng.integers(1, 4)),
                                 k=int(rng.integers(2, 5)),
                                 lam=float(rng.uniform(0.05, 2.0)))
        result = dca_solve(program)
        diffs = np.diff(result.trace)
        assert diffs.max(initial=-np.inf) <= 1e-10
        non_revealing = -np.abs(program.prior @ program.phi).sum()
        assert result.trace[-1] <= non_revealing + 1e-12


@pytest.mark.parametrize("seed, optimum", [(0, -0.9315216513),
                                           (1, -0.9319108380),
                                           (2, -0.8913016319)])
def test_default_start_reaches_the_corner_optimum(seed, optimum):
    # toy instances (d=2, K=5, lam=0.1); the optima are Blahut-Arimoto
    # solves over the box corners with a certified bound.  From the product
    # coupling alone DCA would stop at the non-revealing plan.
    instance = toy.sample_instance(2, 5, seeds.rng_for(seed, seeds.INSTANCE))
    program = build_dc(instance.type_atoms, instance.prior_weights,
                       -np.ones(2), np.ones(2), KL, 0.1)
    result = dca_solve(program)
    assert result.trace[-1] == pytest.approx(optimum, abs=1e-7)
    assert not result.inner_max_iter_hit


def test_reduced_plus_constant_matches_plan_objective_at_solution():
    rng = np.random.default_rng(11)
    cost = linear_cost(np.array([[-1.0, 1.0], [-1.0, 1.0]]))
    program = random_program(rng, lam=0.4)
    result = dca_solve(program)
    full = prp_objective(result.plan, cost, KL, 0.4)
    assert result.trace[-1] + program.constant == pytest.approx(full, abs=1e-9)
