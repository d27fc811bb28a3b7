import itertools
import os
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest

from prp.convexsolve import minimize_linear_plus_privacy
from prp.divergences import from_name, perspective_total, perspective_total_grad
from prp.optim import PGDResult, minimize_columns_pgd

import oracles
from oracles import lattice_problem

PRIOR = np.array([0.2, 0.3, 0.5])
LINEAR = np.array([[0.3, -0.2, 0.1],
                   [-0.4, 0.5, 0.0],
                   [0.2, 0.1, -0.3],
                   [0.0, 0.0, 0.0]])


def step_once(name, lam, init):
    div = from_name(name)

    def objective(stack):
        return ((LINEAR * stack).sum(axis=(-2, -1))
                + lam * perspective_total(div, stack, PRIOR))

    def gradient(g):
        return LINEAR + lam * perspective_total_grad(div, g, PRIOR)

    return objective, minimize_columns_pgd(objective, gradient, init, PRIOR,
                                           max_steps=1, lr0=1.0 / lam)


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
    with mock.patch("prp.convexsolve.MAX_STEPS", 3), \
            pytest.warns(RuntimeWarning, match=r"reverse_kl .*lam=0\.1.* 3-step"):
        result = minimize_linear_plus_privacy(LINEAR, PRIOR,
                                              from_name("reverse_kl"), 0.1)
    assert not result.converged


@pytest.mark.parametrize("name", ["reverse_kl", "alpha:2", "tv"])
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
    assert len(levels) == (8 if name == "tv" else 1)
    assert result.steps == sum(levels)


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
    *itertools.product(["reverse_kl", "alpha:2", "tv", "kl"], [0.01, 0.1, 1.0]),
    ("kl", 1e4)])
def test_stacked_line_search_takes_the_steps_of_the_scalar_ladder(name, lam):
    # the plan descent of the non-KL solves and the row-mass descent of KL
    # both run the stacked ladder; here each is replaced by the scalar loop.
    # At lam = 1e4 the KL trial steps grow past 1e6 * lr0; the plan descents
    # run into their step cap there
    linear, prior = lattice_problem(3)

    def scalar_ladder(objective, gradient, init, totals, max_steps, lr0,
                      tol=1e-8):
        x, value, steps, converged = oracles.columns_pgd_scalar(
            lambda g: float(objective(g[None])[0]), gradient, init, totals,
            max_steps=max_steps, lr0=lr0, tol=tol)
        return PGDResult(x, value, steps, converged)

    stacked = minimize_linear_plus_privacy(linear, prior, from_name(name), lam)
    with mock.patch("prp.convexsolve.minimize_columns_pgd", scalar_ladder), \
            mock.patch("prp.convexsolve._descend", scalar_ladder):
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
