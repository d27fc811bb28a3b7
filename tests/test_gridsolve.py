import warnings

import numpy as np
import pytest

from prp.convexsolve import minimize_linear_plus_privacy
from prp.divergences import from_name, kl_divergence
from prp.gridsolve import solve_grid

import oracles
from oracles import lattice_problem, matrix_cost


def test_zero_privacy_weight_gives_per_type_minimum():
    cost = np.array([[0.0, 2.0], [1.0, -1.0]])
    prior = np.array([0.6, 0.4])
    plan, value = solve_grid([0, 1], [0, 1], prior, matrix_cost(cost),
                             kl_divergence(), lam=0.0)
    assert value == pytest.approx(0.6 * 0.0 + 0.4 * (-1.0))
    assert plan.gamma[0, 0] == pytest.approx(0.6)
    assert plan.gamma[1, 1] == pytest.approx(0.4)


def test_huge_privacy_weight_gives_product_plan_on_best_average_row():
    cost = np.array([[0.4, 0.1], [0.3, 0.9], [0.2, 0.35]])
    prior = np.array([0.5, 0.5])
    averaged = cost @ prior
    best_row = int(np.argmin(averaged))
    # the row-mass solve converges at lam=1e4: no step-cap warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        plan, value = solve_grid([0, 1, 2], [0, 1], prior, matrix_cost(cost),
                                 kl_divergence(), lam=1e4)
    assert value <= averaged[best_row]  # the concentrated plan's value
    assert plan.gamma[best_row].sum() > 0.99
    assert value == pytest.approx(averaged[best_row], abs=1e-3)
    # rows stay proportional to the prior: no information is revealed
    masses = plan.row_masses
    for i in range(3):
        if masses[i] > 1e-6:
            assert np.abs(plan.gamma[i] / masses[i] - prior).max() < 1e-2


def test_three_by_two_matches_exhaustive_grid():
    rng = np.random.default_rng(0)
    cost = rng.uniform(-1.0, 1.0, size=(3, 2))
    prior = rng.dirichlet(np.ones(2))
    plan, value = solve_grid([0, 1, 2], [0, 1], prior, matrix_cost(cost),
                             kl_divergence(), lam=0.5)
    reference = oracles.grid_minimize_objective(cost, prior, "kl", 0.5,
                                                base_resolution=8, rounds=10)
    assert value == pytest.approx(reference, abs=1e-4)
    assert np.abs(plan.gamma.sum(axis=0) - prior).max() < 1e-12


@pytest.mark.parametrize("div_name", ["kl", "tv"])
def test_matches_exhaustive_grid_across_divergences(div_name):
    rng = np.random.default_rng(1)
    for _ in range(3):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(2, 4))
        cost = rng.uniform(-1.0, 1.0, size=(n, k))
        prior = rng.dirichlet(np.ones(k) * 2.0)
        lam = float(rng.uniform(0.1, 1.0))
        plan, value = solve_grid(list(range(n)), list(range(k)), prior,
                                 matrix_cost(cost), from_name(div_name), lam)
        reference = oracles.grid_minimize_objective(cost, prior, div_name, lam)
        assert value == pytest.approx(reference, abs=1e-3)


def test_lattice_solves_reach_the_corner_optimum():
    # with a linear cost the box corners, which every lattice here contains,
    # hold the optimum over all actions for every divergence; for KL at
    # lam=0.1 it is -0.9315216513 (Blahut-Arimoto with a certified bound)
    kl = minimize_linear_plus_privacy(*lattice_problem(7), from_name("kl"), 0.1)
    assert kl.converged
    assert kl.value == pytest.approx(-0.9315216513, abs=1e-7)
    reverse = from_name("reverse_kl")
    coarse = minimize_linear_plus_privacy(*lattice_problem(4), reverse, 0.1)
    fine = minimize_linear_plus_privacy(*lattice_problem(5), reverse, 0.1)
    assert coarse.converged and fine.converged
    assert fine.value <= coarse.value + 1e-9
