import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from prp import auctions, seeds, sinkhorn
from prp.auctions import (AuctionModel, BidPolicy, dominant_action_map,
                          evaluate_strategy, ladder_policies, random_policy,
                          sweep_lambda, train_strategy_starts)
from prp.divergences import kl_divergence
from prp.measures import (DiscreteDistribution, TransportPlan, cost_matrix,
                          cost_with_adjoint)
from prp.optim import DescentConfig

import oracles


def constant_policy(bid, width=4):
    return BidPolicy(weights=np.ones(width), biases=np.zeros(width),
                     out_weights=np.zeros(width), out_bias=float(bid))


def affine_policy(slope, intercept):
    # relu(slope * v + intercept) equals the affine map for v >= 0 when
    # intercept is nonnegative
    return BidPolicy(weights=np.array([slope]), biases=np.array([intercept]),
                     out_weights=np.array([1.0]), out_bias=0.0)


def test_model_types_are_cell_midpoints():
    model = AuctionModel(n_types=10)
    assert np.allclose(model.type_atoms, (np.arange(10) + 0.5) / 10)
    assert np.allclose(model.prior.weights, 0.1)
    g = model.opponent_cdf(np.array([-1.0, 0.0, 0.4, 1.0, 3.0]))
    assert np.allclose(g, [0.0, 0.0, 0.4, 1.0, 1.0])


def test_bid_curve_derivative_consistency():
    # the slope p of each linear piece of `_pieces` is the beta' that the
    # exact statistics integrate; check it, and the piece's intercept q,
    # against the bid curve itself
    rng = np.random.default_rng(0)
    policy = random_policy(rng)
    table = auctions._pieces(auctions._unpack(auctions._stack([policy])))
    ends, p, q = table.ends, table.p, table.q
    v = rng.uniform(0.0, 4.0, size=1000)
    piece = np.searchsorted(ends[0], v, side="right")
    slope, intercept = p[0, piece], q[0, piece]
    h = 1e-7
    act = v[:, None] * policy.weights[None, :] + policy.biases[None, :]
    away = np.abs(act).min(axis=1) > 1e-5  # only test away from kinks
    slope_fd = (policy(v + h) - policy(v - h)) / (2 * h)
    rel = np.abs(slope_fd[away] - slope[away]) / np.maximum(1.0, np.abs(slope[away]))
    assert rel.max() < 1e-6
    assert np.abs(policy(v) - (intercept + slope * v)).max() < 1e-12


def oracle_stats(policy):
    return oracles.expected_bid_stats(policy.weights, policy.biases,
                                      policy.out_weights, policy.out_bias)


def exact_stats(policy):
    a_stat, b_stat, _ = auctions.expected_stats(auctions._stack([policy]))
    return float(a_stat[0]), float(b_stat[0])


FIELDS = ("weights", "biases", "out_weights", "out_bias")


def exact_gradient(policy, coef_a, coef_b):
    """Gradient of coef_a A + coef_b B, keyed by BidPolicy field name."""
    adjoint = auctions.expected_stats(auctions._stack([policy]))[2]
    grads = adjoint(np.array([coef_a]), np.array([coef_b]))
    return {f: g[0] for f, g in zip(FIELDS, auctions._unpack(grads))}


def relu_policy(weights, biases, out_weights, out_bias):
    return BidPolicy(np.array(weights, dtype=float),
                     np.array(biases, dtype=float),
                     np.array(out_weights, dtype=float), float(out_bias))


EDGE_CASES = [
    # kinks at v < 0 and v = 0: both units are on for every v > 0
    relu_policy([1.0, 2.0], [0.2, 0.0], [0.3, 0.1], 0.05),
    # w_j = 0: a constant unit that is on and one that is never on
    relu_policy([0.0, 0.0, 0.6], [0.3, -0.2, -0.3], [0.5, 4.0, 0.7], 0.0),
    # w_j < 0: bids fall to a flat p = 0 piece beyond the kink at 1.5
    relu_policy([-0.9], [1.35], [1.0], 0.05),
    # saturation: beta crosses 1 at v = 0.825 and stays above
    relu_policy([1.0], [-0.2], [0.8], 0.5),
    # flat, rising, flat: p = 0 on [0, 0.5] and [1.5, inf), with h = 0 at 1
    relu_policy([1.0, 1.0], [-0.5, -1.5], [0.4, -0.4], 0.2),
    # a unit with zero output weight adds a kink that leaves beta unchanged
    relu_policy([1.0, 1.0], [-0.3, -0.3], [0.5, 0.0], 0.1),
]
EDGE_IDS = ["kinks-at-or-below-0", "zero-slopes", "negative-slope",
            "saturated", "flat-pieces", "idle-kink"]


def test_zero_bid_earns_nothing():
    assert exact_stats(constant_policy(0.0)) == (0.0, 0.0)


def test_revenue_matches_adaptive_quadrature():
    policy = affine_policy(0.5, 0.1)
    y = 0.55

    def integrand(v):
        beta = 0.5 * v + 0.1
        beta_prime = 0.5
        win = min(max(beta, 0.0), 1.0)
        keep = 1.0 if beta - beta_prime >= 0.0 else 0.0
        return (y * v - beta + beta_prime) * win * keep * math.exp(-v)

    exact, err = integrate.quad(integrand, 0.0, 60.0,
                                points=[0.8, 1.8], limit=200,
                                epsabs=1e-10, epsrel=1e-10)
    assert err < 1e-8
    a_stat, b_stat = exact_stats(policy)
    assert y * a_stat - b_stat == pytest.approx(exact, abs=1e-10)


def test_constant_policy_bias_gradient_is_analytic():
    # the revenue b (y - b) of a constant bid b has d/db = y - 2b
    b, y = 0.25, 0.6
    grads = exact_gradient(constant_policy(b), y, -1.0)
    assert grads["out_bias"] == pytest.approx(y - 2 * b, abs=1e-15)
    # the units have zero output weight, so their slopes and biases are idle
    assert not grads["weights"].any() and not grads["biases"].any()


def test_zero_output_weights_reduce_to_constant_policy_gradient():
    # the units' kinks split beta into pieces, but beta' never jumps there
    rng = np.random.default_rng(5)
    policy = BidPolicy(weights=rng.uniform(0.5, 1.5, 8),
                       biases=rng.uniform(-0.5, 0.5, 8),
                       out_weights=np.zeros(8), out_bias=0.2)
    grads = exact_gradient(policy, 0.5, -1.0)
    assert grads["out_bias"] == pytest.approx(0.5 - 2 * 0.2, abs=1e-15)


def central_difference_error(policy, coef_a, coef_b, rng, stats, eps):
    """Worst relative error of the exact directional derivative of
    coef_a A + coef_b B against central differences of `stats`."""
    grads = exact_gradient(policy, coef_a, coef_b)
    worst = 0.0
    for _ in range(2):
        step = {f: rng.standard_normal(np.shape(getattr(policy, f)))
                for f in FIELDS}

        def value_at(sign):
            a_stat, b_stat = stats(*(getattr(policy, f) + sign * eps * step[f]
                                     for f in FIELDS))
            return coef_a * a_stat + coef_b * b_stat

        fd = (value_at(1.0) - value_at(-1.0)) / (2 * eps)
        directional = sum(float(np.sum(grads[f] * step[f])) for f in FIELDS)
        worst = max(worst, abs(directional - fd) / max(1.0, abs(fd)))
    return worst


def exact_stats_of(*fields):
    return exact_stats(relu_policy(*fields))


@pytest.mark.parametrize("policy", [
    random_policy(np.random.default_rng(8), width=12), *EDGE_CASES,
], ids=["random", *EDGE_IDS])
def test_exact_gradient_matches_central_differences(policy):
    rng = np.random.default_rng(9)
    for coef_a, coef_b in ((0.45, -1.0), (1.0, 0.0), (0.0, 1.0)):
        assert central_difference_error(policy, coef_a, coef_b, rng,
                                        exact_stats_of, 1e-6) < 1e-6


def test_exact_gradient_matches_central_differences_on_random_policies():
    rng = np.random.default_rng(22)
    policies = [relu_policy(rng.normal(size=width), rng.normal(size=width),
                            rng.normal(size=width) / np.sqrt(width),
                            rng.uniform(-0.1, 0.5))
                for width in rng.integers(1, 31, size=20)]
    for width in (40, 100):   # 100 is the CLI default
        policies += ladder_policies(seeds.rng_for(1, seeds.INIT), 12, width)
    for policy in policies:
        assert central_difference_error(policy, rng.normal(), rng.normal(),
                                        rng, exact_stats_of, 1e-6) < 1e-6


@pytest.mark.parametrize("index", [0, 8, 11])
def test_training_gradient_matches_expected_statistics(index):
    # the indicator 1{beta - beta' >= 0} jumps where it switches, so the
    # gradient of E[A] needs boundary terms beyond the interior integral;
    # without them policy 0 gets the wrong sign along the first direction
    policy = ladder_policies(seeds.rng_for(1, seeds.INIT), 12, 40)[index]
    rng = np.random.default_rng(index)
    for coef_a, coef_b in ((1.0, 0.0), (0.0, 1.0)):
        assert central_difference_error(policy, coef_a, coef_b, rng,
                                        oracles.expected_bid_stats,
                                        1e-5) < 1e-6


def test_revenue_cost_adjoint_matches_central_differences():
    # the training cost prices policy rows; its adjoint contracts a plan P
    # with -y dA + dB and returns the result in the rows' layout
    model = AuctionModel(n_types=5)
    y = model.type_atoms
    rows = auctions._stack(ladder_policies(seeds.rng_for(1, seeds.INIT), 7,
                                           40))
    rng = np.random.default_rng(31)
    plan = rng.uniform(size=(7, 5))
    cost = auctions._REVENUE_COST
    matrix, adjoint = cost_with_adjoint(cost, rows, y)
    assert cost_matrix(cost, rows[3:4], y[2:3])[0, 0] == matrix[3, 2]
    grad = adjoint(plan)
    assert grad.shape == rows.shape
    eps = 1e-6
    for _ in range(3):
        step = rng.standard_normal(rows.shape)
        value = [np.sum(cost_with_adjoint(cost, rows + sign * eps * step,
                                          y)[0] * plan)
                 for sign in (1.0, -1.0)]
        fd = (value[0] - value[1]) / (2 * eps)
        assert abs(np.sum(grad * step) - fd) < 1e-6 * max(1.0, abs(fd))


def random_rows(rng, n, width):
    """`_stack` rows with normal slopes, biases and output weights."""
    return np.concatenate((rng.normal(size=(n, 2 * width)),
                           rng.normal(size=(n, width)) / np.sqrt(width),
                           rng.uniform(-0.1, 0.5, size=(n, 1))), axis=1)


def edge_rows(rng, n, width):
    """Random rows with the cases the piece table treats apart.

    Slopes of both signs, units with w = 0 or c = 0 (and both), kinks at
    or below 0 from the signs of w and c, and two dead policies: row 0 has
    no positive output weight and a negative output bias, row 1 only
    units that are never on.
    """
    rows = random_rows(rng, n, width)
    w, c, a = (rows[:, i * width:(i + 1) * width] for i in range(3))
    w[rng.random(w.shape) < 0.2] = 0.0
    c[rng.random(c.shape) < 0.2] = 0.0
    a[0], rows[0, -1] = -np.abs(a[0]), -0.01
    w[1], c[1], rows[1, -1] = -np.abs(w[1]), -np.abs(c[1]) - 0.1, -0.01
    return rows


STACKS = {
    "random-40": lambda rng: random_rows(rng, 12, 40),
    "ladder-100": lambda rng: auctions._stack(
        ladder_policies(seeds.rng_for(1, seeds.INIT), 12, 100)),
    "edges-10": lambda rng: edge_rows(rng, 12, 10),
    "edges-40": lambda rng: edge_rows(rng, 12, 40),
    "width-1": lambda rng: edge_rows(rng, 40, 1),
}


@pytest.mark.parametrize("name", STACKS)
def test_piece_table_matches_the_mask_reference(name):
    # the cumulative sums of `_pieces` against every unit's activity,
    # evaluated on every piece
    rng = np.random.default_rng(41)
    for _ in range(5):
        rows = STACKS[name](rng)
        table = auctions._pieces(auctions._unpack(rows))
        kink, valid, starts, ends, _, p, q = oracles.mask_piece_table(rows)
        assert (table.kink == kink).all() and (table.valid == valid).all()
        assert (table.starts == starts).all() and (table.ends == ends).all()
        nonempty = starts < ends
        scale = np.abs(rows).max()
        assert np.abs(table.p - p)[nonempty].max() <= 1e-13 * scale
        assert np.abs(table.q - q)[nonempty].max() <= 1e-13 * scale


def assert_matches_mask_reference(rows, rng, adjoint=True):
    a_stat, b_stat, grad = auctions.expected_stats(rows)
    a_ref, b_ref, grad_ref = oracles.mask_expected_stats(rows)
    assert np.abs(a_stat - a_ref).max() <= 1e-13
    assert np.abs(b_stat - b_ref).max() <= 1e-13
    if adjoint:
        coef_a, coef_b = rng.normal(size=(2, rows.shape[0]))
        exact, reference = grad(coef_a, coef_b), grad_ref(coef_a, coef_b)
        assert exact.shape == rows.shape
        assert (np.abs(exact - reference).max()
                <= 1e-12 * max(1.0, np.abs(reference).max()))


@pytest.mark.parametrize("name", STACKS)
def test_statistics_and_adjoint_match_the_mask_reference(name):
    rng = np.random.default_rng(42)
    for _ in range(5):
        assert_matches_mask_reference(STACKS[name](rng), rng)


def test_tied_kinks_match_the_mask_reference_statistics():
    # units 1 and 2 repeat the kinks of units 0 and 3 exactly (scaling by 2
    # is exact), so one piece between them is empty; the kink terms are not
    # differentiable there, so only A and B are compared
    rng = np.random.default_rng(44)
    for _ in range(5):
        rows = random_rows(rng, 12, 10)
        w, c = rows[:, :10], rows[:, 10:20]
        w[:, 1], c[:, 1] = 2.0 * w[:, 0], 2.0 * c[:, 0]
        w[:, 2], c[:, 2] = -2.0 * w[:, 3], -2.0 * c[:, 3]
        kink = auctions._kinks(w, c)[0]
        assert (kink[:, 1] == kink[:, 0]).all()
        assert (kink[:, 2] == kink[:, 3]).all()
        assert_matches_mask_reference(rows, rng, adjoint=False)


def test_statistics_memory_is_linear_in_width():
    # a piece table from an (n, W + 1, W) activation mask peaks at about
    # 2.1 MB here with its contractions and sorted cut edges; the
    # cumulative one at about 0.4 MB
    rows = auctions._stack(ladder_policies(seeds.rng_for(1, seeds.INIT), 12,
                                           100))
    tracemalloc.start()
    try:
        adjoint = auctions.expected_stats(rows)[2]
        adjoint(np.full(12, -0.5), np.ones(12))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_dead_policy_has_exactly_zero_statistics():
    # beta <= 0 on [0, inf): one unit pulls down, the other is never on
    dead = relu_policy([1.0, -1.0], [0.0, -0.5], [-0.3, 2.0], -0.01)
    assert exact_stats(dead) == (0.0, 0.0)
    # and nothing revives it
    grads = exact_gradient(dead, 1.0, 1.0)
    assert not any(np.any(g) for g in grads.values())


def test_constant_bid_statistics_are_analytic():
    # G(c) = c and h = c, so A = c E[v] = c and B = c^2; revenue c (y - c)
    c, y = 0.3, 0.7
    a_stat, b_stat = exact_stats(constant_policy(c))
    assert a_stat == pytest.approx(c, abs=1e-15)
    assert b_stat == pytest.approx(c * c, abs=1e-15)
    assert y * a_stat - b_stat == pytest.approx(c * (y - c), abs=1e-15)


@pytest.mark.parametrize("policy", EDGE_CASES, ids=EDGE_IDS)
def test_expected_statistics_match_quadrature_on_edge_cases(policy):
    assert exact_stats(policy) == pytest.approx(oracle_stats(policy),
                                                abs=1e-12)


def test_expected_statistics_match_quadrature_on_random_policies():
    rng = np.random.default_rng(21)
    for _ in range(20):
        width = int(rng.integers(1, 31))
        policy = relu_policy(rng.normal(size=width), rng.normal(size=width),
                             rng.normal(size=width) / np.sqrt(width),
                             rng.uniform(-0.1, 0.5))
        assert exact_stats(policy) == pytest.approx(oracle_stats(policy),
                                                    abs=1e-10)


def make_policy_plan(gamma, prior_weights, policies=None):
    gamma = np.asarray(gamma, dtype=float)
    n, k = gamma.shape
    rng = np.random.default_rng(10)
    if policies is None:
        policies = [random_policy(rng, width=6) for _ in range(n)]
    types = list((np.arange(k) + 0.5) / k)
    prior = DiscreteDistribution(types, prior_weights)
    return TransportPlan(gamma, policies, types, prior)


def test_product_plan_has_exactly_zero_privacy():
    prior = np.full(4, 0.25)
    plan = make_policy_plan(np.outer([0.5, 0.2, 0.2, 0.1], prior), prior)
    result = evaluate_strategy(plan)
    assert result.privacy == 0.0


def test_diagonal_plan_privacy_is_log_two():
    prior = np.array([0.5, 0.5])
    plan = make_policy_plan(np.diag(prior), prior)
    result = evaluate_strategy(plan)
    assert result.privacy == pytest.approx(math.log(2.0), abs=1e-12)


def test_evaluation_utility_matches_direct_revenue_sum():
    prior = np.array([0.5, 0.5])
    policies = [affine_policy(0.5, 0.1), affine_policy(0.8, 0.05)]
    gamma = np.array([[0.3, 0.1], [0.2, 0.4]])
    plan = make_policy_plan(gamma, prior, policies)
    result = evaluate_strategy(plan)
    stats = [oracle_stats(p) for p in policies]
    direct = sum(gamma[i, k] * (plan.type_atoms[k] * stats[i][0] - stats[i][1])
                 for i in range(2) for k in range(2))
    assert result.utility == pytest.approx(direct, abs=1e-10)
    assert result.utility_stderr == 0.0


def test_dominant_map_identity_on_diagonal_plan():
    prior = np.full(3, 1 / 3)
    plan = make_policy_plan(np.diag(prior), prior)
    amap = dominant_action_map(plan)
    assert list(amap.row_for_type) == [0, 1, 2]
    assert amap.curves.shape == (3, amap.value_grid.size)


def test_dominant_map_constant_on_product_plan():
    prior = np.full(3, 1 / 3)
    plan = make_policy_plan(np.outer([0.5, 0.3, 0.2], prior), prior)
    amap = dominant_action_map(plan)
    assert list(amap.row_for_type) == [0, 0, 0]


def test_training_with_huge_privacy_weight_stays_non_revealing():
    model = AuctionModel(n_types=10)
    ((plan, trace),) = train_strategy_starts(
        model, [(1e3, 0)], config=DescentConfig(steps=120), width=40)
    assert np.isfinite(trace).all()
    prior = model.prior.weights
    masses = plan.row_masses
    for i in range(plan.n_actions):
        if masses[i] > 1e-3:
            row = plan.gamma[i]
            tv = 0.5 * np.abs(row / row.sum() - prior).sum()
            assert tv <= 0.05


def test_training_with_tiny_privacy_weight_specializes():
    # mirror of the huge-lambda test: the rows carrying 80% of the mass must
    # each move far from the prior.  At lam = 1e-3 the optimum pools
    # neighbouring types (its heaviest rows have posterior max about 0.45),
    # so a per-row posterior max >= 0.5 is not implied; TV >= 0.5 is (a
    # reference optimum over t + s1 v + s2 relu(v - k) policies has
    # TV >= 0.69 on those rows; see CHANGES.md)
    model = AuctionModel(n_types=10)
    ((plan, _),) = train_strategy_starts(
        model, [(1e-3, 1)], config=DescentConfig(steps=250), width=40)
    prior = model.prior.weights
    masses = plan.row_masses
    order = np.argsort(masses)[::-1]
    covered = 0.0
    for i in order:
        if covered >= 0.8:
            break
        covered += masses[i]
        row = plan.gamma[i]
        tv = 0.5 * np.abs(row / row.sum() - prior).sum()
        assert tv >= 0.5
    assert covered >= 0.8


def test_tiny_privacy_weight_step_solves_all_converge(monkeypatch):
    # the instance above; with a 3000-iteration scaling loop, 33 of its 250
    # step solves ended at the cap with marginal error up to 6.4e-4
    # the step solves call sinkhorn._solve directly, and so does the final
    # solve_sinkhorn
    solve, errors = sinkhorn._solve, []

    def recorded(alpha, beta, *args):
        result = solve(alpha, beta, *args)
        errors.append(sinkhorn._marginal_error(result[0], alpha, beta))
        return result

    monkeypatch.setattr(sinkhorn, "_solve", recorded)
    train_strategy_starts(AuctionModel(n_types=10), [(1e-3, 1)],
                          config=DescentConfig(steps=250), width=40)
    assert len(errors) == 251   # 250 step solves and the final solve
    assert max(errors) < 1e-7


def test_single_type_training_has_identically_zero_privacy():
    model = AuctionModel(n_types=1)
    ((plan, trace),) = train_strategy_starts(
        model, [(0.5, 2)], config=DescentConfig(steps=60), width=20)
    result = evaluate_strategy(plan)
    assert result.privacy == pytest.approx(0.0, abs=1e-12)
    assert np.isfinite(trace).all()


def test_training_is_deterministic():
    model = AuctionModel(n_types=3)

    def run():
        ((plan, trace),) = train_strategy_starts(
            model, [(0.1, 5)], config=DescentConfig(steps=25), width=10)
        return plan.gamma.copy(), np.array(trace)

    g1, t1 = run()
    g2, t2 = run()
    assert (g1 == g2).all()
    assert (t1 == t2).all()


def test_sweep_handles_empty_and_single_grids():
    model = AuctionModel(n_types=3)
    empty = sweep_lambda(model, [], runs=1, config=DescentConfig(steps=5),
                         seed=6, width=8)
    assert empty.rows == []
    single = sweep_lambda(model, [0.5], runs=2, config=DescentConfig(steps=5),
                          seed=6, width=8)
    assert len(single.rows) == 1
    assert single.rows[0].lam == 0.5
    assert len(single.runs) == 2


def test_revenue_cost_prices_a_stack_of_starts_block_by_block():
    # (B, n, L) rows give (B, n, K) matrices and an adjoint on (B, n, K)
    # plans, each block bit for bit the cost of its rows alone
    y = AuctionModel(n_types=5).type_atoms
    stack = np.stack([auctions._stack(ladder_policies(
        seeds.rng_for(seed, seeds.INIT), 7, 40)) for seed in (1, 2, 3)])
    plans = np.random.default_rng(32).uniform(size=(3, 7, 5))
    matrix, adjoint = auctions._revenue_cost(stack, y)
    grad = adjoint(plans)
    assert matrix.shape == (3, 7, 5) and grad.shape == stack.shape
    for rows, plan, block, block_grad in zip(stack, plans, matrix, grad):
        alone, alone_adjoint = auctions._revenue_cost(rows, y)
        assert (block == alone).all()
        assert (block_grad == alone_adjoint(plan)).all()


def test_sweep_runs_equal_their_trainings_alone():
    # the sweep trains its 2 x 2 (lambda, run) pairs as one stack; each
    # run is bit for bit its own stack of one and evaluate_strategy
    model = AuctionModel(n_types=3)
    config = DescentConfig(steps=6)
    lambdas = [0.05, 0.5]
    result = sweep_lambda(model, lambdas, runs=2, config=config, seed=7,
                          width=10)
    assert [(run.lam, run.run) for run in result.runs] == [
        (0.05, 0), (0.05, 1), (0.5, 0), (0.5, 1)]
    for run in result.runs:
        seed = seeds.seed_for(7, seeds.TRAIN_STEP, lambdas.index(run.lam),
                              run.run)
        ((plan, trace),) = train_strategy_starts(model, [(run.lam, seed)],
                                                 config=config, width=10)
        assert (run.plan.gamma == plan.gamma).all()
        assert (run.trace == trace).all()
        for ours, alone in zip(run.plan.action_atoms, plan.action_atoms):
            assert (auctions._stack([ours]) == auctions._stack([alone])).all()
        assert run.evaluation == evaluate_strategy(plan)
    for row, lam in zip(result.rows, lambdas):
        utilities = [run.evaluation.utility for run in result.runs
                     if run.lam == lam]
        assert row.utility == float(np.mean(utilities))


def test_training_needs_a_step():
    with pytest.raises(ValueError, match="at least one descent step"):
        train_strategy_starts(AuctionModel(n_types=3), [(0.1, 0)],
                              config=DescentConfig(steps=0), width=4)
