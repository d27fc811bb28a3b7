import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.optimize

from prp import cli, convexsolve, seeds, toy
from prp.auctions import AuctionModel
from prp.convexsolve import minimize_linear_plus_privacy
from prp.dca import dca_solve
from prp.divergences import (FDivergence, from_name, perspective_total,
                             perspective_total_grad)
from prp import optim
from prp.gridsolve import solve_grid
from prp.measures import linear_cost
from prp.optim import PGDResult, minimize_columns_pgd

import oracles
from oracles import lattice_problem

PRIOR = np.array([0.2, 0.3, 0.5])
LINEAR = np.array([[0.3, -0.2, 0.1],
                   [-0.4, 0.5, 0.0],
                   [0.2, 0.1, -0.3],
                   [0.0, 0.0, 0.0]])
POOLED = Path(__file__).with_name("pooled_auction_cost.json")


def step_once(name, lam, init):
    div = from_name(name)

    def objective(stack):
        return ((LINEAR * stack).sum(axis=(-2, -1))
                + lam * perspective_total(div, stack, PRIOR))

    def gradient(g):
        return LINEAR + lam * perspective_total_grad(div, g, PRIOR)

    with mock.patch("prp.optim.MAX_STEPS", 1):
        return objective, minimize_columns_pgd(objective, gradient, init,
                                               PRIOR, 1.0 / lam)


@pytest.mark.parametrize("name", ["kl", "alpha:2"])
def test_step_from_exact_zeros_stays_finite(name):
    # row 0 has an exact zero, row 3 carries no mass
    init = np.array([[0.1, 0.0, 0.2],
                     [0.05, 0.2, 0.1],
                     [0.05, 0.1, 0.2],
                     [0.0, 0.0, 0.0]])
    objective, result = step_once(name, 0.5, init)
    assert np.isfinite(result.x).all()
    assert (result.x[init == 0.0] == 0.0).all()
    assert np.abs(result.x.sum(axis=0) - PRIOR).max() < 1e-15
    assert result.value <= objective(init[None])[0]


@pytest.mark.parametrize("name", ["kl", "reverse_kl", "alpha:2"])
def test_concentrated_plan_is_a_fixed_point(name):
    init = np.zeros_like(LINEAR)
    init[1] = PRIOR
    _, result = step_once(name, 0.5, init)
    assert (result.x == init).all()
    assert result.converged


def test_capped_solve_warns():
    with mock.patch("prp.optim.MAX_STEPS", 3), \
            pytest.warns(RuntimeWarning, match=r"alpha:2 .*lam=0\.1.* 3-step"):
        result = minimize_linear_plus_privacy(LINEAR, PRIOR,
                                              from_name("alpha:2"), 0.1)
    assert not result.converged


@pytest.mark.parametrize("name", ["kl", "alpha:2"])
def test_plan_descent_reports_the_steps_of_every_level(name):
    linear, prior = lattice_problem(3)
    levels = []

    def counted(*args, **kwargs):
        result = minimize_columns_pgd(*args, **kwargs)
        levels.append(result.steps)
        return result

    with mock.patch("prp.convexsolve.minimize_columns_pgd", counted):
        result = minimize_linear_plus_privacy(linear, prior, from_name(name),
                                              0.1)
    assert len(levels) == 1
    assert result.steps == sum(levels)


def test_non_smooth_generator_other_than_tv_is_rejected():
    # f(t) = |t - 1| is twice TV: only TV has a linear program, and solving
    # this f as TV would count its privacy at half its weight, so the solve
    # refuses it
    doubled = FDivergence(name="twice_tv", f=lambda t: np.abs(t - 1.0),
                          f_at_zero=1.0, f_slope_at_infinity=1.0,
                          f_prime=lambda t: np.sign(t - 1.0), smooth=False)
    linear, prior = lattice_problem(5, 3)
    with pytest.raises(ValueError, match="twice_tv"):
        minimize_linear_plus_privacy(linear, prior, doubled, 0.4)
    result = minimize_linear_plus_privacy(linear, prior, from_name("tv"), 0.8)
    assert result.converged
    assert result.value == pytest.approx(-0.57741, abs=1e-5)
    assert np.abs(result.x.sum(axis=0) - prior).max() < 1e-15


def test_zero_privacy_weight_reduces_to_column_argmin():
    rng = np.random.default_rng(4)
    linear = rng.normal(size=(5, 3))
    linear[1, 0] = linear[0, 0]  # a tie in column 0 goes to the smaller row
    result = minimize_linear_plus_privacy(linear, PRIOR, from_name("kl"), 0.0,
                                          init=np.tile(PRIOR / 5, (5, 1)))
    expected = np.zeros_like(linear)
    expected[np.argmin(linear, axis=0), np.arange(3)] = PRIOR
    assert np.array_equal(result.x, expected)
    assert result.x.sum() == pytest.approx(1.0)


TINY_LAMBDA_SOLVES = """
import numpy as np
from prp.convexsolve import minimize_linear_plus_privacy
from prp.divergences import from_name
linear = np.array({linear})
prior = np.array({prior})
for name in {names}:
    for lam in {lams}:
        value = minimize_linear_plus_privacy(linear, prior, from_name(name),
                                             lam).value
        print(name, lam, repr(value))
"""


def tiny_lambda_values(linear, names, lams):
    """{name: {lam: value}} of the solves, in a subprocess with -W error.

    The subprocess turns a hang into a failure by its timeout, and an
    escaped warning by -W error.
    """
    code = TINY_LAMBDA_SOLVES.format(linear=linear.tolist(),
                                     prior=PRIOR.tolist(), names=names,
                                     lams=lams)
    done = subprocess.run([sys.executable, "-W", "error", "-c", code],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ,
                               "PYTHONPATH": os.pathsep.join(sys.path)})
    assert done.returncode == 0, done.stderr
    values = {}
    for line in done.stdout.split("\n")[:-1]:
        name, lam, value = line.split()
        values.setdefault(name, {})[float(lam)] = float(value)
    assert sorted(values) == sorted(names)
    return values


def test_smallest_privacy_weights_end_at_the_zero_weight_value():
    # below lam ~ 5.6e-309 the first trial step 1 / lam overflows, and an
    # infinite step would stay infinite when halved
    values = tiny_lambda_values(LINEAR, ("kl", "reverse_kl", "alpha:2"),
                                (0.0, 1e-308, 5e-324))
    for by_lam in values.values():
        assert by_lam[0.0] == pytest.approx(-0.29, abs=1e-15)
        assert by_lam[1e-308] == by_lam[5e-324] == by_lam[0.0]


def test_smallest_privacy_weights_with_costs_above_one():
    # with |C| up to 5 an uncapped trial step lr * g overflows to inf at
    # lam = 1e-308, and log x - lr g turns into inf - inf.  Reverse KL is
    # in the next test: the first step leaves it at a plan other than the
    # zero-weight one
    linear = np.array([[3.0, -2.0, 1.0], [-4.0, 5.0, 0.0], [2.0, 1.0, -3.0],
                       [0.0, 0.0, 0.0]])
    values = tiny_lambda_values(linear, ("kl", "alpha:2"),
                                (0.0, 1e-306, 1e-308, 5e-324))
    for by_lam in values.values():
        assert by_lam[0.0] == pytest.approx(-2.9, abs=1e-14)
        assert all(by_lam[lam] == by_lam[0.0]
                   for lam in (1e-306, 1e-308, 5e-324))


@pytest.mark.parametrize("lam", [1e-306, 1e-308, 5e-324])
def test_reverse_kl_at_smallest_privacy_weights_stays_finite(lam):
    # the first step leaves entries near 1e-312, where f'(t) = -1/t
    # overflows; t f'(t) = -1 must not, or the gradient turns to inf - inf
    linear = np.array([[3.0, -2.0, 1.0], [-4.0, 5.0, 0.0], [2.0, 1.0, -3.0],
                       [0.0, 0.0, 0.0]])
    div = from_name("reverse_kl")
    uniform = np.tile(PRIOR / 4, (4, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = minimize_linear_plus_privacy(linear, PRIOR, div, lam)
    assert np.isfinite(result.x).all()
    assert np.abs(result.x.sum(axis=0) - PRIOR).max() < 1e-15
    start = (linear * uniform).sum() + lam * perspective_total(div, uniform,
                                                               PRIOR)
    assert result.value <= start


@pytest.mark.parametrize("seed, optimum", [(0, 0.199284), (1, 0.218273),
                                           (2, 0.151568)])
def test_reverse_kl_small_instances_reach_the_optimum(seed, optimum):
    # the plan descent stopped here after 2 steps and reported convergence,
    # at 0.211021, 0.229443 and 0.164720: its first step left entries near
    # 1e-31, where every trial step underflowed one of them to 0
    rng = np.random.default_rng(seed)
    k = rng.integers(2, 6)
    linear = rng.uniform(0.0, 1.0, (4, k))
    prior = rng.dirichlet(np.ones(k))
    result = minimize_linear_plus_privacy(linear, prior,
                                          from_name("reverse_kl"), 1e-3)
    assert result.converged
    assert result.value == pytest.approx(optimum, abs=1e-6)


@pytest.mark.parametrize("lam", [1e-3, 0.1, 10.0, 1e4])
def test_reverse_kl_lattice_solves_are_certified(lam):
    # the plan descent ran 32 of 96 lattice solves (3x3 and 5x5, lam from
    # 1e-3 to 1e4) into its step cap, and at 1e4 the concentrated plan is
    # the optimum, which the active-set check of the dual solve must reach
    for seed in range(6):
        linear, prior = lattice_problem(3, seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = minimize_linear_plus_privacy(linear, prior,
                                                  from_name("reverse_kl"), lam)
        assert result.converged
        assert np.abs(result.x.sum(axis=0) - prior).max() <= 1e-15
        concentrated = np.zeros_like(linear)
        concentrated[np.argmin(linear @ prior)] = prior
        assert result.value <= (linear * concentrated).sum() + 1e-15 * lam


@pytest.mark.parametrize("lam", [1e-3, 0.1, 10.0])
def test_reverse_kl_row_conjugates_are_the_row_minima(lam):
    # q minimizes <a, q> + lam D(q || p) over the simplex: a_k - lam p_k / q_k
    # is the same for every k, and g is the value at q
    rng = np.random.default_rng(8)
    rows = rng.normal(size=(6, 4))
    prior = rng.dirichlet(np.ones(4))
    psi = rng.normal(size=4)
    posteriors, _, values = convexsolve._row_conjugates(rows, psi, prior, lam)
    assert np.abs(posteriors.sum(axis=1) - 1.0).max() <= 1e-15
    a = rows - psi
    multiplier = a - lam * prior / posteriors
    assert np.ptp(multiplier, axis=1).max() <= 1e-12 * max(1.0, lam)
    direct = ((a * posteriors).sum(axis=1)
              - lam * (prior * np.log(posteriors / prior)).sum(axis=1))
    assert np.abs(values - direct).max() <= 1e-12 * max(1.0, lam)
    others = rng.dirichlet(np.ones(4), size=(200, 6))
    worse = ((a * others).sum(axis=-1)
             - lam * (prior * np.log(others / prior)).sum(axis=-1))
    assert (worse >= values).all()


@pytest.mark.parametrize("lam", [1e-2, 1.0])
def test_reverse_kl_dual_bound_is_below_every_plan(lam):
    # weak duality: <psi, p> + min_i g_i(psi) bounds every feasible plan
    linear, prior = lattice_problem(5, 2)
    div = from_name("reverse_kl")
    objective, _ = convexsolve._terms(linear, prior, div, lam)
    result, bound = convexsolve._reverse_kl_dual(
        objective, linear, prior, lam, np.tile(prior / 25, (25, 1)))
    assert -1e-15 <= result.value - bound <= 1e-9
    rng = np.random.default_rng(9)
    plans = rng.dirichlet(np.full(25, 0.3), size=(100, 5)).swapaxes(1, 2)
    assert (objective(plans * prior) >= bound).all()


def test_reverse_kl_type_of_zero_weight_gets_no_mass():
    # the plan descent returned nan here: its gradient divides by the prior
    linear = np.random.default_rng(10).normal(size=(6, 4))
    prior = np.array([0.0, 0.3, 0.3, 0.4])
    div = from_name("reverse_kl")
    result = minimize_linear_plus_privacy(linear, prior, div, 0.1)
    without = minimize_linear_plus_privacy(linear[:, 1:], prior[1:], div, 0.1)
    assert result.converged
    assert (result.x[:, 0] == 0.0).all()
    assert result.value == pytest.approx(without.value, abs=1e-15)


def test_reverse_kl_identical_rows_are_solved_as_one():
    # DCA's rows share best corners; two equal posteriors made the KKT
    # system singular, and the solve ended 7e-5 above its dual bound
    linear = np.random.default_rng(0).normal(size=(6, 4))
    prior = np.array([0.1, 0.2, 0.3, 0.4])
    div = from_name("reverse_kl")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        doubled = minimize_linear_plus_privacy(np.vstack([linear, linear[:3]]),
                                               prior, div, 1e-2)
    single = minimize_linear_plus_privacy(linear, prior, div, 1e-2)
    assert doubled.converged
    assert (doubled.x[6:] == 0.0).all()
    assert doubled.value == pytest.approx(single.value, abs=1e-15)


def test_zero_linear_term_reaches_zero_privacy():
    rng = np.random.default_rng(5)
    init = rng.dirichlet(np.ones(5), size=3).T * PRIOR[None, :]
    result = minimize_linear_plus_privacy(np.zeros((5, 3)), PRIOR,
                                          from_name("kl"), 0.8, init=init)
    assert result.value <= 1e-8
    assert result.value >= -1e-12


def test_optimum_matches_grid_oracle_small_instance():
    rng = np.random.default_rng(6)
    prior = np.array([0.4, 0.6])
    linear = rng.normal(size=(3, 2))
    result = minimize_linear_plus_privacy(linear, prior, from_name("kl"), 0.5,
                                          init=np.tile(prior / 3, (3, 1)))
    reference = oracles.grid_minimize_objective(linear, prior, "kl", 0.5,
                                                base_resolution=8, rounds=9)
    assert result.value == pytest.approx(reference, abs=1e-3)


@pytest.mark.parametrize("name", ["kl", "tv"])
def test_value_never_exceeds_init_value(name):
    rng = np.random.default_rng(7)
    div = from_name(name)
    init = rng.dirichlet(np.ones(5), size=3).T * PRIOR[None, :]
    linear = rng.normal(size=(5, 3))

    def objective(g):
        return float((linear * g).sum()) + perspective_total(div, g, PRIOR)

    result = minimize_linear_plus_privacy(linear, PRIOR, div, 1.0, init=init)
    assert objective(result.x) <= objective(init) + 1e-12


@pytest.mark.parametrize("name, lam", [
    *itertools.product(["alpha:2", "kl"], [0.01, 0.1, 1.0]), ("kl", 1e4)])
def test_stacked_line_search_takes_the_steps_of_the_scalar_ladder(name, lam):
    # the plan descent of the alpha solves and the row-mass descent of KL
    # both run the stacked ladder; here each is replaced by the scalar loop
    # (TV, a linear program, and reverse KL, solved in its dual, run
    # neither).
    # At lam = 1e4 the KL trial steps grow past 1e6 * lr0; the plan descents
    # run into their step cap there
    linear, prior = lattice_problem(3)

    def scalar_ladder(objective, gradient, init, totals, lr0):
        x, value, steps, converged = oracles.columns_pgd_scalar(
            lambda g: float(objective(g[None])[0]), gradient, init, totals,
            max_steps=optim.MAX_STEPS, lr0=lr0)
        return PGDResult(x, value, steps, converged)

    stacked = minimize_linear_plus_privacy(linear, prior, from_name(name), lam)
    with mock.patch("prp.convexsolve.minimize_columns_pgd", scalar_ladder):
        scalar = minimize_linear_plus_privacy(linear, prior, from_name(name),
                                              lam)
    assert np.array_equal(stacked.x, scalar.x)
    assert stacked.value == scalar.value
    assert stacked.steps == scalar.steps


@pytest.mark.parametrize("lam", [1e-3, 0.1, 10.0])
def test_kl_row_mass_solve_is_no_worse_than_plan_descent(lam):
    for seed, points in [(0, 3), (1, 5), (2, 7), (3, 4)]:
        linear, prior = lattice_problem(points, seed)
        result = minimize_linear_plus_privacy(linear, prior, from_name("kl"),
                                              lam)
        _, reference, _, _ = oracles.kl_plan_solve_pgd(linear, prior, lam)
        assert result.converged
        assert result.value <= reference + 1e-12 * max(1.0, abs(reference))
        assert np.abs(result.x.sum(axis=0) - prior).max() < 1e-15


@pytest.mark.parametrize("lam", [1e2, 1e3, 1e4, 1e5, 1e6])
def test_kl_large_privacy_weights_converge_in_few_steps(lam):
    # the multiplicative plan descent moves the row masses by a factor of
    # about 1 - gap / lam per step, and ran into its 5,000-step cap on the
    # seed-0 lattice.  On the seed-1 lattices the two best averaged rows
    # are close, and a trial step capped at 1e6 / lam crawled there
    for seed, points in [(0, 7), (1, 3), (1, 7)]:
        linear, prior = lattice_problem(points, seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = minimize_linear_plus_privacy(linear, prior,
                                                  from_name("kl"), lam)
        assert result.converged
        assert result.steps <= 100
        # all mass on the best averaged row: a product plan, privacy 0
        concentrated = np.zeros_like(linear)
        concentrated[np.argmin(linear @ prior)] = prior
        assert result.value <= (linear * concentrated).sum()


@pytest.mark.parametrize("lam", [1e-2, 3e-2])
def test_kl_row_mass_solve_stops_on_pooled_auction_policies(lam):
    # 36 trained auction policies (see the fixture's comment).  The masses
    # of the unused rows fall towards subnormals, and a window test finer
    # than that of every other plan solve ran into the step cap at 1e-2
    cost = json.loads(POOLED.read_text())["cost"]
    prior = AuctionModel(10).prior.weights
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = minimize_linear_plus_privacy(cost, prior, from_name("kl"),
                                              lam)
    _, reference, _, _ = oracles.kl_plan_solve_pgd(cost, prior, lam)
    assert result.converged
    assert result.steps <= 1000
    assert result.value <= reference + 1e-8 * abs(result.value)


def test_kl_zero_row_stays_zero():
    init = np.array([[0.1, 0.1, 0.2],
                     [0.0, 0.0, 0.0],
                     [0.05, 0.1, 0.2],
                     [0.05, 0.1, 0.1]])
    linear = LINEAR.copy()
    linear[1, 0] = -1.0  # the best row of type 0 carries no mass
    div = from_name("kl")

    def objective(g):
        return float((linear * g).sum()) + 0.1 * perspective_total(div, g,
                                                                   PRIOR)

    result = minimize_linear_plus_privacy(linear, PRIOR, div, 0.1, init=init)
    assert (result.x[1] == 0.0).all()
    assert (result.x[[0, 2, 3]] > 0.0).all()  # the solve's own plan
    assert np.abs(result.x.sum(axis=0) - PRIOR).max() < 1e-15
    assert result.value <= objective(init)


@pytest.mark.parametrize("lam", [-0.1, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["kl", "tv", "reverse_kl"])
def test_privacy_weight_outside_zero_to_infinity_is_rejected(name, lam):
    # a negative weight returned -0.44034 as converged, NaN returned nan as
    # converged, and inf escaped as a numpy RuntimeWarning
    linear, prior = lattice_problem(3)
    with pytest.raises(ValueError, match="lam must be non-negative"):
        minimize_linear_plus_privacy(linear, prior, from_name(name), lam)


def test_solvers_on_the_plan_solve_reject_a_bad_privacy_weight():
    instance = toy.sample_instance(2, 5, seeds.rng_for(0, seeds.INSTANCE))
    for lam in (-0.1, math.nan):
        with pytest.raises(ValueError, match="lam must be non-negative"):
            solve_grid(oracles.box_vertices(*instance.bounds.T),
                       instance.type_atoms, instance.prior_weights,
                       linear_cost(instance.bounds), from_name("kl"), lam)
        with pytest.raises(ValueError, match="lam must be non-negative"):
            dca_solve(instance.type_atoms, instance.prior_weights,
                      instance.bounds, from_name("kl"), lam, 5)


LATTICES = [(points, seed) for seed in range(6) for points in (3, 5)]


@pytest.mark.parametrize("lam", [1e-3, 1e-2, 0.1])
def test_tv_linear_program_is_no_worse_than_the_huber_annealing(lam):
    for points, seed in LATTICES:
        linear, prior = lattice_problem(points, seed)
        result = minimize_linear_plus_privacy(linear, prior, from_name("tv"),
                                              lam)
        _, reference, _, converged = oracles.tv_plan_solve_annealed(
            linear, prior, lam)
        assert converged
        assert reference - 1e-8 <= result.value <= reference + 1e-12
        assert np.abs(result.x.sum(axis=0) - prior).max() < 1e-15
        assert result.x.min() >= 0.0


@pytest.mark.parametrize("lam", [10.0, 1e2, 1e4])
def test_tv_large_privacy_weights_converge(lam):
    # the Huber annealing ran each of its 8 widths into the 5,000-step cap
    # here, and warned
    for points, seed in LATTICES:
        linear, prior = lattice_problem(points, seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = minimize_linear_plus_privacy(linear, prior,
                                                  from_name("tv"), lam)
        assert result.converged
        assert result.steps < optim.MAX_STEPS
        # all mass on the best averaged row: a product plan, whose privacy
        # is 0 up to the rounding of its row mass, which lam multiplies
        concentrated = np.zeros_like(linear)
        concentrated[np.argmin(linear @ prior)] = prior
        assert result.value <= (linear * concentrated).sum() + 1e-15 * lam


@pytest.mark.parametrize("lam, value", [(1e-3, 0.7747876888888889),
                                        (1e-2, 0.7814507537836108),
                                        (0.1, 0.8027909)])
def test_tv_solve_on_pooled_auction_policies(lam, value):
    cost = json.loads(POOLED.read_text())["cost"]
    prior = AuctionModel(10).prior.weights
    result = minimize_linear_plus_privacy(cost, prior, from_name("tv"), lam)
    assert result.converged
    assert result.value == pytest.approx(value, abs=1e-9)


def test_tv_solve_keeps_an_init_that_is_no_worse():
    # a program that returns the uniform mixture, worse than the init
    linear, prior = lattice_problem(3)
    tv = from_name("tv")
    optimum = minimize_linear_plus_privacy(linear, prior, tv, 0.1)
    uniform = np.tile(prior / 9, (9, 1))
    worse = scipy.optimize.OptimizeResult(
        status=0, message="", nit=1,
        x=np.concatenate([uniform.ravel(), np.zeros(uniform.size)]))
    with mock.patch("scipy.optimize.linprog", return_value=worse):
        kept = minimize_linear_plus_privacy(linear, prior, tv, 0.1,
                                            init=optimum.x)
    assert kept.x is optimum.x
    assert kept.value == optimum.value


# a status other than 0 (here 4, numerical difficulties) has no plan to
# return; it is not a step cap, so it must not warn as one
HIGHS_FAILURE = scipy.optimize.OptimizeResult(
    status=4, message="Numerical difficulties encountered", x=None, nit=3)


def test_tv_solve_that_highs_does_not_solve_raises():
    linear, prior = lattice_problem(3)
    with mock.patch("scipy.optimize.linprog", return_value=HIGHS_FAILURE), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError,
                           match="status 4: Numerical difficulties"):
            minimize_linear_plus_privacy(linear, prior, from_name("tv"), 0.1)


def test_tv_grid_run_that_highs_does_not_solve_exits_with_3(tmp_path, capsys):
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({"kind": "grid", "d": 2, "K": 3, "lam": 10.0,
                                  "divergence": "tv", "grid_points": 3}))
    with mock.patch("scipy.optimize.linprog", return_value=HIGHS_FAILURE):
        code = cli.main(["grid", "--config", str(config),
                         "--out", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert "HiGHS status 4" in err
    assert "cap" not in err
    assert not (tmp_path / "out" / "objective.csv").exists()


NO_SCIPY = """
import sys
import numpy as np
import prp
from prp import seeds, toy
from prp.dca import dca_solve
from prp.divergences import from_name
from prp.gridsolve import solve_grid
from prp.measures import linear_cost
instance = toy.sample_instance(2, 5, seeds.rng_for(0, seeds.INSTANCE))
axis = np.linspace(-1.0, 1.0, 3)
atoms = np.array([[a, b] for a in axis for b in axis])
solve_grid(atoms, instance.type_atoms, instance.prior_weights,
           linear_cost(instance.bounds), from_name("kl"), 0.1)
dca_solve(instance.type_atoms, instance.prior_weights, instance.bounds,
          from_name("kl"), 0.1, 5)
solve_grid(atoms, instance.type_atoms, instance.prior_weights,
           linear_cost(instance.bounds), from_name("reverse_kl"), 0.1)
dca_solve(instance.type_atoms, instance.prior_weights, instance.bounds,
          from_name("reverse_kl"), 0.1, 5)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_kl_solves_do_not_import_scipy():
    # scipy.optimize takes about 0.4-0.6 s to import; only TV solves need it,
    # so KL and reverse-KL grid and DCA solves must not import it
    done = subprocess.run([sys.executable, "-c", NO_SCIPY],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ,
                               "PYTHONPATH": os.pathsep.join(sys.path)})
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
