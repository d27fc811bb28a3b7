import numpy as np
import pytest

from prp import direct, seeds, toy
from prp.direct import kl_plan_objective, minimize_direct_starts
from prp.divergences import kl_divergence
from prp.measures import (CostOracle, DiscreteDistribution, TransportPlan,
                          cost_with_adjoint, linear_cost, prp_objective)
from prp.optim import DescentConfig, project_columns

import oracles

BOUNDS = np.array([[-1.0, 1.0], [-1.0, 1.0]])


def random_instance(rng, k=3):
    y = rng.uniform(-1.0, 1.0, size=(k, 2))
    y /= np.abs(y).sum(axis=1, keepdims=True)
    prior = rng.dirichlet(np.ones(k))
    return y, prior


def kl_objective(gamma, cost_matrix, prior, lam):
    return oracles.objective_single(gamma, cost_matrix, prior, "kl", lam)


def test_objective_matches_plan_objective():
    rng = np.random.default_rng(0)
    y, prior = random_instance(rng)
    cost = linear_cost(BOUNDS)
    gamma = rng.dirichlet(np.ones(5), size=3).T * prior[None, :]
    atoms = rng.uniform(-1.0, 1.0, size=(5, 2))
    value, _ = kl_plan_objective(gamma, atoms @ y.T, prior, lam=0.7)
    prior_dd = DiscreteDistribution(list(y), prior)
    plan = TransportPlan(gamma, list(atoms), list(y), prior_dd)
    expected = prp_objective(plan, cost, kl_divergence(), 0.7)
    assert value == pytest.approx(expected, abs=1e-9)


def test_objective_with_full_shape_prior_is_bit_identical():
    # the descent passes the prior at the plans' shape; value and gradient
    # keep the bits of the (K,) prior
    rng = np.random.default_rng(6)
    for b, k in ((1, 3), (2, 5), (3, 4)):
        _, prior = random_instance(rng, k)
        gamma = rng.dirichlet(np.ones(k + 2), size=(b, k)).transpose(0, 2, 1)
        gamma *= prior
        gamma[0, 1] = 0.0     # an exact zero row, as projections leave them
        matrix = rng.uniform(-1.0, 1.0, size=gamma.shape)
        full = np.broadcast_to(prior, gamma.shape).copy()
        value, grad = kl_plan_objective(gamma, matrix, prior, 0.3)
        full_value, full_grad = kl_plan_objective(gamma, matrix, full, 0.3)
        assert np.array_equal(full_value, value)
        assert np.array_equal(full_grad, grad)


def test_plan_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    y, prior = random_instance(rng)
    matrix = rng.uniform(-1.0, 1.0, size=(5, 2)) @ y.T
    gamma0 = rng.dirichlet(np.ones(5) * 3.0, size=3).T * prior[None, :]
    _, grad = kl_plan_objective(gamma0, matrix, prior, lam=0.5)
    for _ in range(5):
        d = rng.normal(size=gamma0.shape)
        fd = oracles.central(lambda g: kl_objective(g, matrix, prior, 0.5),
                             gamma0, d)
        assert (grad * d).sum() == pytest.approx(fd, rel=1e-7, abs=1e-9)


def test_atom_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    y, prior = random_instance(rng)
    cost = linear_cost(BOUNDS)
    gamma0 = rng.dirichlet(np.ones(5) * 3.0, size=3).T * prior[None, :]
    atoms0 = rng.uniform(-0.9, 0.9, size=(5, 2))
    _, adjoint = cost_with_adjoint(cost, atoms0, y)
    grad = adjoint(gamma0)
    for _ in range(5):
        e = rng.normal(size=atoms0.shape)
        fd = oracles.central(lambda x: kl_objective(gamma0, x @ y.T, prior, 0.5),
                             atoms0, e)
        assert (grad * e).sum() == pytest.approx(fd, rel=1e-7, abs=1e-9)


def test_plan_gradient_stays_finite_on_exact_zeros():
    rng = np.random.default_rng(6)
    y, prior = random_instance(rng, k=4)
    matrix = rng.uniform(-1.0, 1.0, size=(6, 2)) @ y.T
    start = rng.normal(size=(6, 4)) * 0.5
    start[5] = -10.0   # projects to a row without mass
    gamma0 = project_columns(start, prior)
    zeros = gamma0 == 0.0
    assert zeros.any() and zeros[5].all()
    value, grad = kl_plan_objective(gamma0, matrix, prior, lam=0.3)
    assert np.isfinite(value) and np.isfinite(grad).all()
    assert value == pytest.approx(kl_objective(gamma0, matrix, prior, 0.3),
                                  abs=1e-12)
    # on positive entries: C + lam log(gamma / (p0 m)); a massless row: C
    masses = gamma0.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        closed = matrix + 0.3 * np.log(gamma0 / (masses * prior[None, :]))
    assert np.allclose(grad[~zeros], closed[~zeros], rtol=1e-12, atol=1e-12)
    assert np.array_equal(grad[5], matrix[5])
    # directions that keep the zeros at zero see the true derivative
    for _ in range(3):
        d = np.where(zeros, 0.0, rng.normal(size=gamma0.shape))
        fd = oracles.central(lambda g: kl_objective(g, matrix, prior, 0.3),
                             gamma0, d, h=1e-8)
        assert (grad * d).sum() == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_descent_reaches_per_type_minima_for_tiny_privacy():
    rng = np.random.default_rng(3)
    y, prior = random_instance(rng, k=2)
    cost = linear_cost(BOUNDS)
    ((plan, trace),) = minimize_direct_starts(
        prior, y, cost, 1e-4, [(DescentConfig(steps=1200), 0)])
    value = prp_objective(plan, cost, kl_divergence(), 0.0)
    assert value == pytest.approx(-1.0, abs=0.05)
    assert len(trace) == 1200
    assert np.isfinite(trace).all()


def test_descent_is_deterministic():
    rng = np.random.default_rng(4)
    y, prior = random_instance(rng)
    cost = linear_cost(BOUNDS)

    def run():
        ((plan, trace),) = minimize_direct_starts(
            prior, y, cost, 0.2, [(DescentConfig(steps=50), 7)])
        return plan.gamma, trace

    g1, t1 = run()
    g2, t2 = run()
    assert (g1 == g2).all()
    assert (t1 == t2).all()


def test_final_plan_is_feasible():
    rng = np.random.default_rng(5)
    y, prior = random_instance(rng)
    cost = linear_cost(BOUNDS)
    ((plan, _),) = minimize_direct_starts(prior, y, cost, 0.3,
                                          [(DescentConfig(steps=100), 1)])
    assert plan.gamma.min() >= 0.0
    assert np.abs(plan.gamma.sum(axis=0) - prior).max() < 1e-12
    assert np.abs(np.asarray(plan.action_atoms)).max() <= 1.0 + 1e-12


def test_returns_the_best_iterate_when_the_last_step_is_worse():
    # benchmark toy instance (CLI toy seed 1587083764, d=2, K=5, lam=0.1,
    # 100 iterations): the final rmsprop iterate scores -0.24169, above
    # the non-revealing plan, while an earlier iterate reached -0.74783
    result = toy.run_benchmark(2, 5, 0.1, ["prp-adam", "prp-rms"], runs=1,
                               iterations=100, seed=1587083764)
    instance = toy.sample_instance(
        2, 5, seeds.rng_for(1587083764, seeds.INSTANCE, 0))
    non_revealing = -np.abs(instance.prior_weights
                            @ instance.type_atoms).sum()
    assert non_revealing == pytest.approx(-0.34819, abs=1e-5)
    final = result.finals["prp-rms"][0]
    assert final == pytest.approx(-0.74783, abs=1e-5)
    assert final < non_revealing


def test_best_iterate_is_the_trace_minimum_and_the_trace_is_per_step():
    rng = np.random.default_rng(9)
    y, prior = random_instance(rng, k=4)
    cost = linear_cost(BOUNDS)
    config = DescentConfig(method="rmsprop", steps=60, lr_weights=0.3)
    ((plan, trace),) = minimize_direct_starts(prior, y, cost, 0.1,
                                              [(config, 2)])
    value = prp_objective(plan, cost, kl_divergence(), 0.1)
    assert len(trace) == 60
    assert value <= trace.min() + 1e-12
    assert np.diff(trace).max() > 0.0   # the descent did go uphill


def test_stacked_starts_match_separate_runs_bit_for_bit():
    # the benchmark instance above: the rmsprop start and the adam start at
    # lr_atoms=0.03 fall back to their iterates of steps 55 and 30, the
    # first start ends at its best iterate
    instance = toy.sample_instance(
        2, 5, seeds.rng_for(1587083764, seeds.INSTANCE, 0))
    cost = linear_cost(instance.bounds)
    args = (instance.prior_weights, instance.type_atoms, cost, 0.1)
    starts = [(DescentConfig(method="adam", steps=100), 5),
              (DescentConfig(method="rmsprop", steps=100), 5),
              (DescentConfig(method="adam", steps=100, lr_atoms=0.03), 6)]
    stacked = minimize_direct_starts(*args, starts)
    assert len(stacked) == 3
    fell_back = []
    for (config, seed), (plan, trace) in zip(starts, stacked):
        ((alone, alone_trace),) = minimize_direct_starts(*args,
                                                         [(config, seed)])
        assert np.array_equal(trace, alone_trace)
        assert np.array_equal(plan.gamma, alone.gamma)
        assert np.array_equal(np.asarray(plan.action_atoms),
                              np.asarray(alone.action_atoms))
        value = prp_objective(plan, cost, kl_divergence(), 0.1)
        fell_back.append(value == pytest.approx(trace.min(), abs=1e-12))
    assert fell_back == [False, True, True]


def test_best_iterate_is_the_first_tied_minimum_and_a_tied_final_is_kept(
        monkeypatch):
    # scripted values for the 5 iterates and the final one: start 0 ties
    # its minimum at steps 2 and 4 and ends above it, start 1 ends level
    # with its minimum of step 1
    script = np.array([[3.0, 2.0, 1.0, 2.0, 1.0, 5.0],
                       [3.0, 1.0, 2.0, 2.0, 2.0, 1.0]])
    seen = []

    def scripted(gamma, cost_matrix, prior_weights, lam):
        _, grad = kl_plan_objective(gamma, cost_matrix, prior_weights, lam)
        seen.append(gamma.copy())
        return script[:, len(seen) - 1].copy(), grad

    monkeypatch.setattr(direct, "kl_plan_objective", scripted)
    y, prior = random_instance(np.random.default_rng(4))
    starts = [(DescentConfig(method="adam", steps=5), 1),
              (DescentConfig(method="rmsprop", steps=5), 2)]
    results = minimize_direct_starts(prior, y, linear_cost(BOUNDS), 0.1,
                                     starts)
    assert len(seen) == 6
    for b, ((plan, trace), step) in enumerate(zip(results, (2, 5))):
        assert np.array_equal(trace, script[b, :5])
        expected = TransportPlan(seen[step][b], plan.action_atoms,
                                 plan.type_atoms, plan.prior)
        assert np.array_equal(plan.gamma, expected.gamma)
    # the tied iterates are distinct plans
    assert not np.array_equal(seen[2][0], seen[4][0])
    assert not np.array_equal(seen[1][1], seen[5][1])


def test_stacked_starts_must_share_their_steps():
    cost = linear_cost(BOUNDS)
    starts = [(DescentConfig(steps=10), 0), (DescentConfig(steps=11), 1)]
    with pytest.raises(ValueError, match="steps"):
        minimize_direct_starts(np.array([1.0]), np.array([[1.0, 0.0]]), cost,
                               0.1, starts)


def test_descent_needs_a_box_and_a_step():
    y, prior = random_instance(np.random.default_rng(4))
    cost = linear_cost(BOUNDS)
    unbounded = CostOracle(matrix_and_adjoint=cost.matrix_and_adjoint)
    with pytest.raises(ValueError, match="box bounds"):
        minimize_direct_starts(prior, y, unbounded, 0.1,
                               [(DescentConfig(steps=5), 0)])
    with pytest.raises(ValueError, match="at least one descent step"):
        minimize_direct_starts(prior, y, cost, 0.1,
                               [(DescentConfig(steps=0), 0)])
