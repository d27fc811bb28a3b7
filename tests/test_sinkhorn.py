import warnings

import numpy as np
import pytest

from prp.divergences import kl_divergence
from prp.measures import (CostOracle, DiscreteDistribution, TransportPlan,
                          cost_with_adjoint, linear_cost, prp_objective)
from prp.optim import DescentConfig
from prp.sinkhorn import (minimize_sinkhorn_starts, needs_log_domain,
                          solve_sinkhorn)
from prp import sinkhorn
from prp.toy import sample_instance

import oracles


def random_problem(rng, n, m, lam, cost_scale=1.0):
    alpha = rng.dirichlet(np.ones(n))
    beta = rng.dirichlet(np.ones(m))
    cost = rng.uniform(-1.0, 1.0, size=(n, m)) * cost_scale
    return alpha, beta, cost, lam


def step_gradients(alpha, atoms, nu, cost, lam):
    """The envelope gradients in (alpha, atoms) and the loss, from the two
    calls of one descent step: the cost oracle and the step solve."""
    beta, type_atoms = nu
    matrix, adjoint = cost_with_adjoint(cost, atoms, type_atoms)
    result = solve_sinkhorn(alpha, beta, matrix, lam, tol=1e-8)
    return result.grad_alpha, adjoint(result.plan), result.loss


# one change each to a valid instance, and the error it must raise
BAD_INPUTS = {
    "zero-lam": ({"lam": 0.0}, "lam must be positive"),
    "negative-lam": ({"lam": -0.1}, "lam must be positive"),
    "nan-lam": ({"lam": float("nan")}, "lam must be positive and finite"),
    "infinite-lam": ({"lam": float("inf")}, "lam must be positive and finite"),
    "long-log-v": ({"log_v": np.zeros(4)}, "log_v must have the shape of beta"),
    "short-log-v": ({"log_v": np.zeros(2)}, "log_v must have the shape of beta"),
    "zero-cap": ({"cap": 0}, "at least one Newton step"),
    "negative-alpha": ({"alpha": [1.2, -0.2]}, "alpha must lie on the simplex"),
    "alpha-sum": ({"alpha": [0.5, 0.6]}, "alpha must lie on the simplex"),
    "negative-beta": ({"beta": [0.7, -0.2, 0.5]},
                      "beta must lie on the simplex"),
    "beta-sum": ({"beta": [0.2, 0.3, 0.4]}, "beta must lie on the simplex"),
    "shape": ({"cost_matrix": np.zeros((3, 2))}, "shape must match"),
}


@pytest.mark.parametrize("change, message", BAD_INPUTS.values(),
                         ids=BAD_INPUTS)
def test_bad_input_is_rejected(change, message):
    valid = dict(alpha=[0.5, 0.5], beta=[0.2, 0.3, 0.5],
                 cost_matrix=np.zeros((2, 3)), lam=0.1)
    solve_sinkhorn(**valid)
    with pytest.raises(ValueError, match=message):
        solve_sinkhorn(**(valid | change))


def test_single_atom_plan_is_forced():
    result = solve_sinkhorn(np.array([1.0]), np.array([1.0]),
                            np.array([[0.7]]), 1.0)
    assert np.allclose(result.plan, [[1.0]])
    assert result.loss == pytest.approx(0.7, abs=1e-12)


def test_zero_cost_gives_product_coupling_and_zero_loss():
    alpha = np.array([0.3, 0.7])
    beta = np.array([0.2, 0.5, 0.3])
    result = solve_sinkhorn(alpha, beta, np.zeros((2, 3)), 0.5)
    assert np.allclose(result.plan, np.outer(alpha, beta), atol=1e-12)
    assert result.loss == pytest.approx(0.0, abs=1e-12)


def test_two_by_two_matches_coupling_grid_oracle():
    alpha = np.array([0.5, 0.5])
    cost = np.array([[0.0, 1.0], [1.0, 0.0]])
    value = solve_sinkhorn(alpha, alpha, cost, 1.0).loss
    reference = oracles.grid_minimize_coupling(alpha, alpha, cost, 1.0)
    assert value == pytest.approx(reference, abs=1e-5)


def test_newton_solve_matches_the_scaling_oracle():
    # the log-domain Newton solve against the textbook plain-domain scaling
    rng = np.random.default_rng(0)
    for _ in range(10):
        problem = random_problem(rng, rng.integers(1, 4), rng.integers(1, 4),
                                 lam=float(rng.uniform(0.3, 3.0)))
        result = solve_sinkhorn(*problem, tol=1e-13)
        plan, _ = oracles.sinkhorn_scaling(*problem)
        assert np.abs(result.plan - plan).max() < 1e-12
        assert result.loss == pytest.approx(
            oracles.coupling_loss(plan, *problem), abs=1e-12)


def test_underflowing_kernel_row_matches_the_row_shifted_scaling():
    # top row of the kernel is entirely below the double range, so plain
    # scaling divides by zero; subtracting each row's minimum cost gives
    # the same plan and shifts the loss by <alpha, row minima>
    alpha = beta = np.array([0.5, 0.5])
    cost = np.array([[10.0, 9.5], [0.0, 0.5]])
    lam = 1e-2
    assert (np.exp(-cost / lam)[0] == 0.0).all()
    result = solve_sinkhorn(alpha, beta, cost, lam, tol=1e-13)
    shift = cost.min(axis=1)
    shifted = cost - shift[:, None]
    plan, _ = oracles.sinkhorn_scaling(alpha, beta, shifted, lam)
    assert result.marginal_error < 1e-13
    assert np.abs(result.plan - plan).max() < 1e-13
    assert result.loss == pytest.approx(
        oracles.coupling_loss(plan, alpha, beta, shifted, lam) + alpha @ shift,
        abs=1e-12)


def test_plan_factorizes_through_scalings():
    rng = np.random.default_rng(1)
    for _ in range(5):
        alpha, beta, cost, lam = random_problem(rng, 3, 3, lam=1.0)
        result = solve_sinkhorn(alpha, beta, cost, lam)
        log_kernel = -cost / lam
        rebuilt = np.exp(result.log_u[:, None] + log_kernel
                         + result.log_v[None, :])
        assert np.abs(rebuilt - result.plan).max() < 1e-8


def test_type_marginal_is_exact_after_final_update():
    rng = np.random.default_rng(2)
    alpha, beta, cost, lam = random_problem(rng, 4, 3, lam=0.3)
    result = solve_sinkhorn(alpha, beta, cost, lam)
    assert np.abs(result.plan.sum(axis=0) - beta).max() < 1e-14


def test_iteration_budget_is_used_up_or_the_solve_converges():
    # a budget short of convergence is spent in full and warned about; the
    # first budget that converges gives the result of any larger one
    rng = np.random.default_rng(3)
    for _ in range(5):
        alpha = rng.dirichlet(np.ones(3))
        beta = rng.dirichlet(np.ones(3))
        cost = rng.uniform(0.0, 1.0, size=(3, 3))
        for t in range(1, 50):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = solve_sinkhorn(alpha, beta, cost, 0.2, cap=t,
                                        tol=1e-12)
            assert np.abs(result.plan.sum(axis=0) - beta).max() < 1e-15
            if not caught:
                break
            assert result.iterations == t
        assert result.iterations <= t
        assert result.marginal_error < 1e-12
        assert (solve_sinkhorn(alpha, beta, cost, 0.2, cap=1000,
                               tol=1e-12).plan == result.plan).all()


def test_loss_stays_in_coarse_bounds_and_entropy_term_nonnegative():
    rng = np.random.default_rng(4)
    for _ in range(10):
        alpha, beta, cost, lam = random_problem(
            rng, 3, 2, lam=float(rng.uniform(0.2, 2.0)))
        result = solve_sinkhorn(alpha, beta, cost, lam)
        c_min, c_max = cost.min(), cost.max()
        nm = alpha.size * beta.size
        assert (c_min - lam * np.log(nm) - 1e-9 <= result.loss
                <= c_max + 1e-9)
        kl_term = (result.loss - (cost * result.plan).sum())
        assert kl_term >= -1e-9


def test_loss_equals_constrained_plan_objective():
    # with both marginals pinned, the entropic value coincides with the
    # KL-regularized plan objective minimized over feasible couplings
    rng = np.random.default_rng(5)
    kl = kl_divergence()
    for _ in range(5):
        alpha = rng.dirichlet(np.ones(2))
        beta = rng.dirichlet(np.ones(2))
        cost = rng.uniform(-1.0, 1.0, size=(2, 2))
        lam = float(rng.uniform(0.3, 2.0))
        value = solve_sinkhorn(alpha, beta, cost, lam).loss

        # oracle: scan couplings, evaluating the plan objective instead
        best = np.inf
        for t in np.linspace(0.0, 1.0, 2001):
            x = t * min(alpha[0], beta[0])
            plan = np.array([[x, alpha[0] - x],
                             [beta[0] - x, alpha[1] - beta[0] + x]])
            if plan.min() < 0.0:
                continue
            types = [0, 1]
            prior = DiscreteDistribution(types, beta)
            tp = TransportPlan(plan, [0, 1], types, prior)
            cost_oracle = oracles.matrix_cost(cost)
            masses = plan.sum(axis=1)
            objective = prp_objective(tp, cost_oracle, kl, lam)
            # the plan objective has no row-marginal term; add the KL part
            # that pins the action marginal at alpha
            entropy_shift = sum(
                masses[i] * np.log(masses[i] / alpha[i])
                for i in range(2) if masses[i] > 0)
            best = min(best, objective + lam * entropy_shift)
        assert value == pytest.approx(best, abs=1e-5)


def converged_loss(alpha, beta, cost, lam):
    """Reference value for central differences: the loss of a tight solve."""
    return solve_sinkhorn(alpha, beta, cost, lam, cap=50_000, tol=1e-13).loss


# (n, m, lam, centre and spread of the action atoms, scale of the types).
# In the last instance |C|/lam > 690, so the plain-domain kernel would
# underflow; its atoms sit close together.
ENVELOPE_CASES = [(3, 4, 0.7, 0.0, 1.0, 1.0), (7, 5, 0.1, 0.0, 1.0, 1.0),
                  (3, 3, 1e-3, 0.95, 0.02, 2.0)]


@pytest.mark.parametrize("n, m, lam, centre, spread, scale", ENVELOPE_CASES,
                         ids=["plain-3x4", "plain-7x5", "log-3x3"])
def test_envelope_gradients_match_central_differences(n, m, lam, centre,
                                                      spread, scale):
    rng = np.random.default_rng(n * 100 + m)
    cost = linear_cost(np.array([[-1.0, 1.0]] * 2))
    alpha = rng.dirichlet(np.ones(n) * 5.0)
    beta = rng.dirichlet(np.ones(m) * 5.0)
    x = centre + rng.uniform(-spread, spread, size=(n, 2))
    y = rng.uniform(-scale, scale, size=(m, 2))
    matrix = x @ y.T
    assert needs_log_domain(matrix, lam) == (lam < 0.01)
    grad_alpha, grad_x, value = step_gradients(alpha, x, (beta, y), cost,
                                               lam)
    assert value == pytest.approx(converged_loss(alpha, beta, matrix, lam),
                                  abs=1e-9)
    plan = solve_sinkhorn(alpha, beta, matrix, lam).plan
    for _ in range(3):
        d = rng.normal(size=n)
        d -= d.mean()   # tangent to the simplex
        fd = oracles.central(
            lambda a: converged_loss(a, beta, matrix, lam), alpha, d)
        assert grad_alpha @ d == pytest.approx(fd, rel=1e-4, abs=1e-6)
        e = rng.normal(size=x.shape)
        fd = oracles.central(
            lambda z: converged_loss(alpha, beta, z @ y.T, lam), x, e)
        assert (grad_x * e).sum() == pytest.approx(fd, rel=1e-4, abs=1e-6)
        c = rng.normal(size=matrix.shape)
        fd = oracles.central(
            lambda z: converged_loss(alpha, beta, z, lam), matrix, c)
        assert (plan * c).sum() == pytest.approx(fd, rel=1e-4, abs=1e-6)


def test_alpha_gradient_has_the_gauge_of_the_scaling_updates():
    rng = np.random.default_rng(7)
    for lam in (1.5, 0.2, 1e-3):
        alpha, beta, cost, _ = random_problem(rng, 5, 4, lam=lam)
        result = solve_sinkhorn(alpha, beta, cost, lam)
        assert result.grad_alpha @ alpha == pytest.approx(-lam, rel=1e-9)


def agreement_instance():
    rng = np.random.default_rng(7)
    alpha = rng.dirichlet(np.ones(3))
    beta = rng.dirichlet(np.ones(3))
    cost = rng.uniform(0.0, 1.0, size=(3, 3))
    return alpha, beta, cost


def assert_agrees_with_the_scaling_oracle(alpha, beta, cost):
    log = solve_sinkhorn(alpha, beta, cost, 0.5, tol=1e-13)
    plan, grad_alpha = oracles.sinkhorn_scaling(alpha, beta, cost, 0.5)
    assert np.isfinite(log.grad_alpha).all()
    assert log.loss == pytest.approx(
        oracles.coupling_loss(plan, alpha, beta, cost, 0.5), abs=1e-12)
    assert np.allclose(log.grad_alpha, grad_alpha, rtol=0.0, atol=1e-12)
    assert np.allclose(log.plan, plan, rtol=0.0, atol=1e-12)


def test_loss_plan_and_alpha_gradient_match_the_scaling_oracle():
    # the Newton solve and the plain-domain scaling must give the same
    # loss, plan and gradient
    assert_agrees_with_the_scaling_oracle(*agreement_instance())


def test_scaling_oracle_agreement_survives_a_zero_weight_row():
    # the instance of the agreement test above with the middle weight
    # zeroed; the zero row's exponents there exceed the column shift
    alpha, beta, cost = agreement_instance()
    alpha[1] = 0.0
    alpha /= alpha.sum()
    assert_agrees_with_the_scaling_oracle(alpha, beta, cost)


def test_gradient_stays_finite_when_zero_row_dominates():
    # the zero-weight row is the only cheap route into column 1, so its
    # potential is about -1/lam; log(alpha) would be -inf there
    alpha = np.array([0.5, 0.5, 0.0])
    beta = np.array([0.5, 0.5])
    cost = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    lam = 1e-3
    result = solve_sinkhorn(alpha, beta, cost, lam)
    assert np.isfinite(result.grad_alpha).all()
    assert result.loss == pytest.approx(converged_loss(alpha, beta, cost, lam),
                                        abs=1e-9)
    # moving mass into the zero row: a one-sided difference, alpha >= 0
    d = np.array([-0.5, -0.5, 1.0])
    h = 1e-5
    fd = (converged_loss(alpha + h * d, beta, cost, lam)
          - converged_loss(alpha, beta, cost, lam)) / h
    assert result.grad_alpha @ d == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize("lam", [0.3, 1e-3])
def test_warm_start_reaches_the_cold_start_plan(lam):
    rng = np.random.default_rng(11)
    alpha, beta, cost, _ = random_problem(rng, 6, 4, lam=lam)
    nearby = cost + rng.normal(size=(6, 4)) * 0.01
    tol = 1e-9   # the default of solve_sinkhorn
    cold = solve_sinkhorn(alpha, beta, cost, lam)
    warm = solve_sinkhorn(alpha, beta, cost, lam,
                          solve_sinkhorn(alpha, beta, nearby, lam).log_v)
    tight = solve_sinkhorn(alpha, beta, cost, lam, cap=100_000, tol=1e-14)
    assert warm.marginal_error < tol
    for result in (cold, warm):
        assert np.abs(result.plan - tight.plan).max() < tol
    assert warm.iterations < cold.iterations


def test_warm_start_beyond_the_double_range_gives_the_cold_plan():
    # log v can exceed log(max double); only differences of log v matter
    # to the plan
    rng = np.random.default_rng(12)
    problem = random_problem(rng, 3, 3, lam=0.5)
    cold = solve_sinkhorn(*problem)
    warm = solve_sinkhorn(*problem, cold.log_v + 800.0)
    assert np.abs(warm.plan - cold.plan).max() < 1e-9   # the default tol


def test_zero_weight_column_gets_no_mass_and_the_reduced_loss():
    rng = np.random.default_rng(13)
    for lam in (0.5, 1e-3):
        alpha, beta, cost, _ = random_problem(rng, 4, 4, lam=lam)
        beta[2] = 0.0
        beta /= beta.sum()
        full = solve_sinkhorn(alpha, beta, cost, lam, tol=1e-13)
        keep = [0, 1, 3]
        reduced = solve_sinkhorn(alpha, beta[keep], cost[:, keep], lam,
                                 tol=1e-13)
        assert (full.plan[:, 2] == 0.0).all()
        assert full.marginal_error < 1e-13
        assert full.loss == pytest.approx(reduced.loss, abs=1e-12)
        assert np.allclose(full.plan[:, keep], reduced.plan, rtol=0.0,
                           atol=1e-12)
        assert np.allclose(full.grad_alpha, reduced.grad_alpha, rtol=0.0,
                           atol=1e-12)


@pytest.mark.parametrize("lam", [0.5, 1e-3])
def test_finish_matches_the_logsumexp_passes(lam):
    # the finish from the last Newton state against the column update, the
    # KL loss and the dual potential f recomputed by logsumexp passes from
    # the solve's row potential, on supports with zero rows and columns,
    # cold and warm started from a perturbed converged log v
    rng = np.random.default_rng(31)
    noise = np.random.default_rng(32)
    for zero_rows, zero_cols in (([], []), ([1], []), ([], [0, 2]),
                                 ([0, 3], [1])):
        alpha, beta = rng.dirichlet(np.ones(5)), rng.dirichlet(np.ones(4))
        alpha[zero_rows] = 0.0
        beta[zero_cols] = 0.0
        alpha, beta = alpha / alpha.sum(), beta / beta.sum()
        cost = rng.uniform(-1.0, 1.0, size=(5, 4))
        cold = solve_sinkhorn(alpha, beta, cost, lam)
        warm = solve_sinkhorn(alpha, beta, cost, lam,
                              cold.log_v + noise.normal(0.0, 0.5, size=4))
        assert warm.iterations > 0
        for result in (cold, warm):
            plan, loss, grad = oracles.sinkhorn_finish(result.log_u, alpha,
                                                       beta, cost, lam)
            assert np.abs(result.plan - plan).max() <= 1e-12 * plan.max()
            assert result.loss == pytest.approx(loss, rel=1e-12)
            assert result.loss == pytest.approx(
                oracles.coupling_loss(result.plan, alpha, beta, cost, lam),
                rel=1e-12)
            assert np.isfinite(result.grad_alpha).all()
            assert (np.abs(result.grad_alpha - grad).max()
                    <= 1e-12 * np.abs(grad).max())


def hard_instance():
    # |C|/lam = 637: plain-domain scaling stalls here at marginal error 7.4e-3
    rng = np.random.default_rng(303)
    alpha = rng.dirichlet(np.ones(3) * 5.0)
    beta = rng.dirichlet(np.ones(3) * 5.0)
    x = rng.uniform(-1.0, 1.0, size=(3, 2))
    y = rng.uniform(-0.8, 0.8, size=(3, 2))
    return alpha, beta, x @ y.T, 1e-3


def test_hard_instance_converges_within_the_default_budget():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = solve_sinkhorn(*hard_instance(), tol=1e-8)
    assert result.marginal_error < 1e-8
    assert result.iterations < 2000


def test_capped_solve_warns():
    with pytest.warns(RuntimeWarning,
                      match=r"lam=0\.001 .*after 1 Newton steps .*error"):
        result = solve_sinkhorn(*hard_instance(), cap=1, tol=1e-8)
    assert result.marginal_error > 1e-8


def test_tolerance_below_the_rounding_floor_stops_on_the_stall():
    # at tol 1e-14 this solve converges in 58 steps; at 1e-15, below the
    # rounding floor of the column error, it used to run all 5000 steps
    problem = random_problem(np.random.default_rng(11), 6, 4, 1e-3)
    with pytest.warns(RuntimeWarning, match=r"lam=0\.001 .*Newton steps"):
        result = solve_sinkhorn(*problem, cap=5000, tol=1e-15)
    assert result.iterations < 200
    assert result.marginal_error < 1e-13


def test_toy_step_solves_take_few_newton_steps(monkeypatch):
    # each descent step solves its stack of starts in one sinkhorn._solve
    # call, and so does the final solve_sinkhorn, as a stack of one; the
    # fifth output of _solve holds the Newton step counts of its stack
    solve, steps = sinkhorn._solve, []

    def counted(*args):
        result = solve(*args)
        steps.extend(result[4])
        return result

    monkeypatch.setattr(sinkhorn, "_solve", counted)
    instance = sample_instance(2, 5, np.random.default_rng(5))
    minimize_sinkhorn_starts(instance.prior_weights, instance.type_atoms,
                             linear_cost(instance.bounds), 0.1,
                             [(DescentConfig(steps=100), 0)])
    assert len(steps) == 101   # 100 step solves and the final solve
    assert max(steps) <= 25


def assert_equals_the_eager_solve(outputs, reference):
    """`outputs` (plan, log v, loss, grad_alpha, steps) equal the first five
    outputs of `oracles.sinkhorn_newton_eager` bit for bit."""
    plan, log_v, loss, grad, steps = outputs
    eager_log_v, eager_plan, eager_loss, eager_steps, eager_grad = reference[:5]
    assert (log_v == eager_log_v).all()
    assert (plan == eager_plan).all()
    assert loss == eager_loss
    assert steps == eager_steps
    assert (grad == eager_grad).all()


def test_warm_toy_step_solves_equal_the_eager_solve(monkeypatch):
    # the step solves of a toy descent, each re-solved by the reference
    # that computes G and the row log-sums at every evaluation
    solve, calls = sinkhorn._solve, []

    def recorded(alpha, beta, cols, matrix, lams, log_v, cap, tol):
        # one call per stack; one record per start of it
        result = solve(alpha, beta, cols, matrix, lams, log_v, cap, tol)
        for i, lam in enumerate(lams):
            calls.append(((alpha[i], beta, matrix[i], lam,
                           None if log_v is None else log_v[i], cap, tol),
                          [output[i] for output in result]))
        return result

    monkeypatch.setattr(sinkhorn, "_solve", recorded)
    instance = sample_instance(2, 5, np.random.default_rng(5))
    minimize_sinkhorn_starts(instance.prior_weights, instance.type_atoms,
                             linear_cost(instance.bounds), 0.1,
                             [(DescentConfig(steps=40), 0)])
    assert len(calls) == 41
    assert sum(args[4] is not None for args, _ in calls) == 40   # warm
    for args, result in calls:
        assert_equals_the_eager_solve(
            result[:5], oracles.sinkhorn_newton_eager(*args))


def auction_sized_stack(underflow=None):
    """Six 12x10 instances sharing beta, two at lam 0.1 and four at 1e-3.

    Solved alone to tol 1e-9 with cap 150 they stop after 123, 7, 150 (the
    cap), 129, 8 and 78 Newton steps, and the four at lam = 1e-3 take
    trials below t = 1.  At start `underflow` a column costs 2 in every
    row, which underflows at lam = 1e-3 (see the test below)."""
    beta = np.random.default_rng(2024).dirichlet(np.ones(10))
    alpha, cost = [], []
    for seed in (0, 1, 4, 6, 9, 10):
        rng = np.random.default_rng(seed)
        alpha.append(rng.dirichlet(np.ones(12)))
        cost.append(rng.uniform(-1.0, 1.0, size=(12, 10)))
    cost = np.stack(cost)
    if underflow is not None:
        cost[underflow, :, 3] = 2.0
    return np.stack(alpha), beta, cost, [1e-3, 0.1, 1e-3, 1e-3, 0.1, 1e-3]


def solve_recording_warnings(alpha, beta, cost, lams):
    """`sinkhorn._solve` to tol 1e-9 with cap 150, its outputs and warning
    texts; the error text instead of the outputs where it raises."""
    cols = (beta > 0.0).nonzero()[0]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outputs = sinkhorn._solve(alpha, beta, cols, cost, lams, None,
                                      150, 1e-9)
        except FloatingPointError as error:
            outputs = str(error)
    return outputs, [str(w.message) for w in caught]


def test_newton_stack_equals_its_stacks_of_one(monkeypatch):
    alpha, beta, cost, lams = auction_sized_stack()
    stack, stack_warnings = solve_recording_warnings(alpha, beta, cost, lams)
    semi_dual, stack_sizes = sinkhorn._semi_dual, []

    def counted(log_kernel, *args):
        stack_sizes.append(len(log_kernel))
        return semi_dual(log_kernel, *args)

    monkeypatch.setattr(sinkhorn, "_semi_dual", counted)
    alone, alone_warnings, extra_trials = [], [], []
    for i in range(6):
        stack_sizes.clear()
        outputs, caught = solve_recording_warnings(
            alpha[i:i + 1], beta, cost[i:i + 1], lams[i:i + 1])
        alone.append([output[0] for output in outputs])
        alone_warnings += caught
        # one evaluation at the start and one t = 1 trial per step; the
        # rest are trials below t = 1
        extra_trials.append(len(stack_sizes) - 1 - outputs[4][0])
    plans, log_v, losses, grads, steps, lses = stack
    assert steps == [result[4] for result in alone] == [123, 7, 150, 129, 8,
                                                        78]
    assert [count > 0 for count in extra_trials] == [lam == 1e-3
                                                     for lam in lams]
    for i, (plan, psi, loss, grad, _, lse) in enumerate(alone):
        assert (plans[i] == plan).all()
        assert (log_v[i] == psi).all()
        assert losses[i] == loss
        assert (grads[i] == grad).all()
        assert (lses[i] == lse).all()
    assert stack_warnings == alone_warnings
    assert len(stack_warnings) == 1
    assert "stopped after 150 Newton steps" in stack_warnings[0]


def test_newton_stack_raises_the_underflow_of_its_start():
    # the column costing 2 has its entries exp(-3000) or less of its row
    # maxima; the solve ascends its psi but stalls with the column at 0
    alpha, beta, cost, lams = auction_sized_stack(underflow=3)
    error, stack_warnings = solve_recording_warnings(alpha, beta, cost, lams)
    alone_warnings = []
    for i in range(4):
        outputs, caught = solve_recording_warnings(
            alpha[i:i + 1], beta, cost[i:i + 1], lams[i:i + 1])
        alone_warnings += caught
    assert error == outputs == ("Sinkhorn solve at lam=0.001 stopped after "
                                "103 Newton steps with a column of the plan "
                                "at 0 mass")
    assert stack_warnings == alone_warnings
    assert len(stack_warnings) == 1


def _with_zero(weights, index):
    weights = weights.copy()
    weights[index] = 0.0
    return weights / weights.sum()


def _zero_weight_problem(seed, row):
    alpha, beta, cost, lam = random_problem(np.random.default_rng(seed), 5, 4,
                                            0.05)
    if row:
        return _with_zero(alpha, 1), beta, cost, lam
    return alpha, _with_zero(beta, 2), cost, lam


# name: (problem, solve options, whether the solve must accept steps on
# both rules, the |g|_inf test and the Armijo fallback)
EAGER_CASES = {
    "cold-hard": (hard_instance(), {"tol": 1e-8}, True),
    "cold-random": (random_problem(np.random.default_rng(11), 6, 4, 1e-3),
                    {"tol": 1e-8}, True),
    "zero-row": (_zero_weight_problem(3, row=True), {}, False),
    "zero-column": (_zero_weight_problem(4, row=False), {}, False),
    "capped": (hard_instance(), {"cap": 5, "tol": 1e-8}, False),
    # auction-sized: the memory order of the plan sets the BLAS order of
    # p.T @ q, which the 6x4 cases above do not resolve
    "auction-1e-3": (random_problem(np.random.default_rng(12), 12, 10, 1e-3),
                     {"tol": 1e-8}, False),
    "auction-0.1": (random_problem(np.random.default_rng(13), 12, 10, 0.1),
                    {"tol": 1e-8}, False),
}


@pytest.mark.parametrize("problem, options, both_rules", EAGER_CASES.values(),
                         ids=EAGER_CASES)
def test_solve_equals_the_eager_solve(problem, options, both_rules):
    if "cap" in options:
        with pytest.warns(RuntimeWarning, match="after 5 Newton steps"):
            result = solve_sinkhorn(*problem, **options)
    else:
        result = solve_sinkhorn(*problem, **options)
    reference = oracles.sinkhorn_newton_eager(*problem, **options)
    assert_equals_the_eager_solve(
        (result.plan, result.log_v, result.loss, result.grad_alpha,
         result.iterations), reference)
    by_size, by_armijo = reference[5:]
    if both_rules:
        assert by_size > 0 and by_armijo > 0
    if "cap" in options:
        assert result.iterations == options["cap"]


def test_gradient_single_atom_reduces_to_cost_gradient():
    y = np.array([[0.3, -0.4]])
    cost = linear_cost(np.array([[-1.0, 1.0], [-1.0, 1.0]]))
    x = np.array([[0.2, 0.1]])
    grad_alpha, grad_x, loss = step_gradients(
        np.array([1.0]), x, (np.array([1.0]), y), cost, lam=1.0)
    assert np.allclose(grad_x, y, atol=1e-12)
    assert loss == pytest.approx(float(x[0] @ y[0]), abs=1e-12)
    assert np.isfinite(grad_alpha).all()


def test_gradient_vanishes_for_zero_cost():
    y = np.zeros((2, 2))
    cost = linear_cost(np.array([[-1.0, 1.0], [-1.0, 1.0]]))
    grad_alpha, grad_x, _ = step_gradients(
        np.array([0.4, 0.6]), np.array([[0.1, 0.2], [-0.3, 0.4]]),
        (np.array([0.5, 0.5]), y), cost, lam=1.0)
    assert np.abs(grad_x).max() < 1e-12


def test_minimize_single_type_reaches_pointwise_minimum():
    # one type carries no information, so the objective is the best cost
    y = np.array([[0.6, -0.4]])  # unit 1-norm
    bounds = np.array([[-1.0, 1.0], [-1.0, 1.0]])
    cost = linear_cost(bounds)
    ((plan, trace),) = minimize_sinkhorn_starts(
        np.array([1.0]), y, cost, 0.5, [(DescentConfig(steps=800), 0)])
    value = prp_objective(plan, cost, kl_divergence(), 0.5)
    assert value == pytest.approx(-1.0, abs=0.02)
    assert len(trace) == 800


def test_minimize_with_dominant_privacy_collapses_to_average_vertex():
    rng = np.random.default_rng(9)
    y = rng.uniform(-1.0, 1.0, size=(3, 2))
    y /= np.abs(y).sum(axis=1, keepdims=True)
    prior = rng.dirichlet(np.ones(3))
    bounds = np.array([[-1.0, 1.0], [-1.0, 1.0]])
    cost = linear_cost(bounds)
    ((plan, _),) = minimize_sinkhorn_starts(prior, y, cost, 1e3,
                                            [(DescentConfig(steps=800), 1)])
    averaged = y.T @ prior
    vertices = oracles.box_vertices(bounds[:, 0], bounds[:, 1])
    best_vertex = vertices[np.argmin(vertices @ averaged)]
    heavy = int(np.argmax(plan.row_masses))
    assert np.abs(np.asarray(plan.action_atoms[heavy]) - best_vertex).max() < 0.15


def test_minimize_with_tiny_privacy_reaches_per_type_minima():
    rng = np.random.default_rng(10)
    y = rng.uniform(-1.0, 1.0, size=(2, 2))
    y /= np.abs(y).sum(axis=1, keepdims=True)
    prior = np.array([0.4, 0.6])
    bounds = np.array([[-1.0, 1.0], [-1.0, 1.0]])
    cost = linear_cost(bounds)
    ((plan, _),) = minimize_sinkhorn_starts(prior, y, cost, 1e-4,
                                            [(DescentConfig(steps=1000), 2)])
    expected = -1.0  # per-type minimum of x.y over the box is -|y|_1 = -1
    value = prp_objective(plan, cost, kl_divergence(), 0.0)
    assert value == pytest.approx(expected, abs=0.05)


def test_stacked_starts_equal_their_runs_alone():
    # one stack of an adam and an rmsprop start on the box cost: every
    # start's plan, atoms and trace are bit for bit those of its own run
    instance = sample_instance(2, 5, np.random.default_rng(12))
    cost = linear_cost(instance.bounds)
    starts = [(DescentConfig(method="adam", steps=30), 3),
              (DescentConfig(method="rmsprop", steps=30, lr_weights=0.1,
                             lr_atoms=0.02), 4)]
    stacked = minimize_sinkhorn_starts(
        instance.prior_weights, instance.type_atoms, cost, 0.1, starts)
    assert len(stacked) == 2
    for (plan, trace), start in zip(stacked, starts):
        ((alone, alone_trace),) = minimize_sinkhorn_starts(
            instance.prior_weights, instance.type_atoms, cost, 0.1, [start])
        assert (plan.gamma == alone.gamma).all()
        assert (np.asarray(plan.action_atoms)
                == np.asarray(alone.action_atoms)).all()
        assert (trace == alone_trace).all()
    with pytest.raises(ValueError, match="share their steps"):
        minimize_sinkhorn_starts(
            instance.prior_weights, instance.type_atoms, cost, 0.1,
            [starts[0], (DescentConfig(steps=31), 5)])
    with pytest.raises(ValueError, match="one or more starts"):
        minimize_sinkhorn_starts(
            instance.prior_weights, instance.type_atoms, cost, 0.1, [])


def test_descent_needs_a_box_and_a_step():
    instance = sample_instance(2, 3, np.random.default_rng(12))
    cost = linear_cost(instance.bounds)
    unbounded = CostOracle(matrix_and_adjoint=cost.matrix_and_adjoint)
    args = (instance.prior_weights, instance.type_atoms)
    with pytest.raises(ValueError, match="box bounds"):
        minimize_sinkhorn_starts(*args, unbounded, 0.1,
                                 [(DescentConfig(steps=5), 0)])
    with pytest.raises(ValueError, match="at least one descent step"):
        minimize_sinkhorn_starts(*args, cost, 0.1,
                                 [(DescentConfig(steps=0), 0)])
