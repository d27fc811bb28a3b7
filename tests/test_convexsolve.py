import os
import subprocess
import sys

import numpy as np
import pytest

from prp.convexsolve import minimize_linear_plus_privacy
from prp.divergences import from_name, perspective_total, perspective_total_grad
from prp.optim import minimize_columns_pgd

import oracles

PRIOR = np.array([0.2, 0.3, 0.5])
LINEAR = np.array([[0.3, -0.2, 0.1],
                   [-0.4, 0.5, 0.0],
                   [0.2, 0.1, -0.3],
                   [0.0, 0.0, 0.0]])


def step_once(name, lam, init):
    div = from_name(name)

    def objective(g):
        return float((LINEAR * g).sum()) + lam * perspective_total(div, g,
                                                                   PRIOR)

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
    assert result.value <= objective(init)


@pytest.mark.parametrize("name", ["kl", "reverse_kl", "alpha:2"])
def test_concentrated_plan_is_a_fixed_point(name):
    init = np.zeros_like(LINEAR)
    init[1] = PRIOR
    _, result = step_once(name, 0.5, init)
    assert (result.x == init).all()
    assert result.converged


def test_capped_solve_warns():
    with pytest.warns(RuntimeWarning, match=r"reverse_kl .*lam=0\.1.* 3-step"):
        result = minimize_linear_plus_privacy(LINEAR, PRIOR,
                                              from_name("reverse_kl"), 0.1,
                                              max_steps=3)
    assert not result.converged


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
    # below lam ~ 5.6e-303 the trial step cap 1e6 / lam overflows, and an
    # infinite step stays infinite when halved
    values = tiny_lambda_values(LINEAR, ("kl", "reverse_kl", "alpha:2"),
                                (0.0, 1e-308, 5e-324))
    for by_lam in values.values():
        assert by_lam[0.0] == pytest.approx(-0.29, abs=1e-15)
        assert by_lam[1e-308] == by_lam[5e-324] == by_lam[0.0]


def test_smallest_privacy_weights_with_costs_above_one():
    # with |C| up to 5 an uncapped trial step lr * g overflows to inf at
    # lam = 1e-308, and log x - lr g turns into inf - inf.  Reverse KL is
    # left out: its gradient -1/t is inf or nan at the entries near 0 that
    # the first step leaves
    linear = np.array([[3.0, -2.0, 1.0], [-4.0, 5.0, 0.0], [2.0, 1.0, -3.0],
                       [0.0, 0.0, 0.0]])
    values = tiny_lambda_values(linear, ("kl", "alpha:2"),
                                (0.0, 1e-306, 1e-308, 5e-324))
    for by_lam in values.values():
        assert by_lam[0.0] == pytest.approx(-2.9, abs=1e-14)
        assert all(by_lam[lam] == by_lam[0.0]
                   for lam in (1e-306, 1e-308, 5e-324))


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
