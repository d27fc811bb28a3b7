import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prp.divergences import (alpha_divergence, from_name, kl_divergence,
                             perspective_total, perspective_total_grad,
                             reverse_kl_divergence, total_variation)

from oracles import divergence, perspective_h

ALL = [kl_divergence(), reverse_kl_divergence(), total_variation(),
       alpha_divergence(2.0), alpha_divergence(1.5)]

simplex3 = st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3).map(
    lambda w: np.asarray(w) / np.sum(w))
# entries are either exactly zero or of normal magnitude; denormal ratios
# have no relative precision left for the generators to work with
entry = st.one_of(st.just(0.0), st.floats(1e-9, 1.0))
rows3 = st.lists(entry, min_size=3, max_size=3).map(np.asarray)


def mp_kl(p, q):
    with mpmath.workdps(50):
        return float(mpmath.fsum(
            mpmath.mpf(pi) * mpmath.log(mpmath.mpf(pi) / mpmath.mpf(qi))
            for pi, qi in zip(p, q) if pi > 0))


def test_kl_of_identical_distributions_is_zero():
    p = np.array([0.2, 0.5, 0.3])
    assert divergence(kl_divergence(), p, p) == pytest.approx(0.0, abs=1e-15)


def test_kl_dirac_against_uniform():
    value = divergence(kl_divergence(), np.array([1.0, 0.0]), np.array([0.5, 0.5]))
    assert value == pytest.approx(math.log(2.0), abs=1e-14)


def test_tv_simple_value():
    value = divergence(total_variation(), np.array([0.8, 0.2]),
                       np.array([0.5, 0.5]))
    assert value == pytest.approx(0.3, abs=1e-14)


def test_kl_matches_high_precision_summation():
    p = np.array([0.3, 0.7])
    q = np.array([0.6, 0.4])
    assert divergence(kl_divergence(), p, q) == pytest.approx(
        mp_kl(p, q), abs=1e-14)


def test_reverse_kl_blows_up_on_missing_support():
    value = divergence(reverse_kl_divergence(), np.array([1.0, 0.0]),
                       np.array([0.5, 0.5]))
    assert value == math.inf


def test_kl_handles_support_shrinkage_finitely():
    value = divergence(kl_divergence(), np.array([1.0, 0.0]),
                       np.array([0.9, 0.1]))
    assert value == pytest.approx(math.log(1 / 0.9), abs=1e-14)


def test_slope_convention_when_reference_vanishes():
    # p has mass where q has none: governed by the slope at infinity
    p = np.array([0.5, 0.5])
    q = np.array([1.0, 0.0])
    assert divergence(kl_divergence(), p, q) == math.inf
    # reverse KL has slope 0 at infinity, so only the shared atom contributes
    assert divergence(reverse_kl_divergence(), p, q) == pytest.approx(
        math.log(2.0), abs=1e-14)


def test_perspective_zero_row_is_zero():
    for div in ALL:
        assert perspective_h(div, np.zeros(3), np.array([0.2, 0.3, 0.5]), 1) == 0.0


def test_perspective_proportional_row_is_zero():
    prior = np.array([0.2, 0.3, 0.5])
    for div in ALL:
        for k in range(3):
            assert perspective_h(div, 0.4 * prior, prior, k) == pytest.approx(
                0.0, abs=1e-12)


def test_perspective_value_matches_high_precision():
    row = np.array([0.2, 0.1])
    prior = np.array([0.5, 0.5])
    with mpmath.workdps(50):
        m = mpmath.mpf("0.3")
        t = mpmath.mpf("0.2") / (mpmath.mpf("0.5") * m)
        expected = float(m * t * mpmath.log(t))
    assert perspective_h(kl_divergence(), row, prior, 0) == pytest.approx(
        expected, abs=1e-14)


def test_name_parsing():
    assert from_name("kl").name == "kl"
    assert from_name("reverse_kl").name == "reverse_kl"
    assert from_name("tv").name == "tv"
    assert from_name("alpha:2.5").name == "alpha:2.5"
    assert from_name("alpha:1").name == "kl"  # aliased by the limit
    with pytest.raises(ValueError):
        from_name("hellinger")


@pytest.mark.parametrize("alpha", [0.5, math.inf, math.nan])
def test_alpha_must_be_finite_and_at_least_one(alpha):
    with pytest.raises(ValueError):
        alpha_divergence(alpha)
    with pytest.raises(ValueError):
        from_name(f"alpha:{alpha}")


@settings(max_examples=60, deadline=None)
@given(simplex3, simplex3)
def test_nonnegativity(p, q):
    for div in ALL:
        assert divergence(div, p, q) >= -1e-12


@settings(max_examples=60, deadline=None)
@given(simplex3)
def test_identity_of_indiscernibles(p):
    for div in ALL:
        assert divergence(div, p, p) == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(rows3, rows3, simplex3)
def test_perspective_subadditivity(r1, r2, prior):
    for div in ALL:
        for k in range(3):
            lhs = perspective_h(div, r1 + r2, prior, k)
            rhs = perspective_h(div, r1, prior, k) + perspective_h(div, r2, prior, k)
            assert lhs <= rhs + 1e-9


@settings(max_examples=60, deadline=None)
@given(rows3, st.floats(0.01, 10.0), simplex3)
def test_perspective_positive_homogeneity(row, c, prior):
    for div in ALL:
        for k in range(3):
            base = perspective_h(div, row, prior, k)
            scaled = perspective_h(div, c * row, prior, k)
            if math.isinf(base):
                assert math.isinf(scaled)
            else:
                assert scaled == pytest.approx(c * base, abs=1e-10 * max(1, c))


@settings(max_examples=60, deadline=None)
@given(rows3, rows3, st.floats(0.01, 0.99), simplex3)
def test_perspective_joint_convexity(r1, r2, t, prior):
    for div in ALL:
        for k in range(3):
            mix = perspective_h(div, t * r1 + (1 - t) * r2, prior, k)
            h1 = perspective_h(div, r1, prior, k)
            h2 = perspective_h(div, r2, prior, k)
            bound = math.inf if math.isinf(h1) or math.isinf(h2) else (
                t * h1 + (1 - t) * h2)
            assert mix <= bound + 1e-9


@settings(max_examples=60, deadline=None)
@given(rows3, simplex3)
def test_perspective_consistency_with_divergence(row, prior):
    m = row.sum()
    for div in ALL:
        total = sum(prior[k] * perspective_h(div, row, prior, k)
                    for k in range(3))
        if m > 0:
            direct = m * divergence(div, row / m, prior)
            if math.isinf(direct):
                assert math.isinf(total)
            else:
                assert total == pytest.approx(direct, abs=1e-10)
        else:
            assert total == 0.0


def test_perspective_total_equals_sum_of_rows():
    rng = np.random.default_rng(0)
    gamma = rng.random((4, 3))
    prior = np.array([0.2, 0.3, 0.5])
    for div in ALL:
        expected = sum(prior[k] * perspective_h(div, gamma[i], prior, k)
                       for i in range(4) for k in range(3))
        assert perspective_total(div, gamma, prior) == pytest.approx(
            expected, rel=1e-12)


@pytest.mark.parametrize("prior, gamma", [
    # a plan with exact zeros, a massless row and a zero prior weight
    (np.array([0.4, 0.0, 0.6]),
     np.array([[0.1, 0.0, 0.3], [0.3, 0.0, 0.0], [0.0, 0.0, 0.0],
               [0.0, 0.0, 0.3]])),
    # mass where the prior has none: the slope at infinity
    (np.array([0.4, 0.0, 0.6]),
     np.array([[0.1, 0.2, 0.3], [0.3, 0.0, 0.3], [0.0, 0.0, 0.0]])),
    (np.array([0.2, 0.3, 0.5]),
     np.array([[0.2, 0.1, 0.25], [0.0, 0.2, 0.25]])),
])
def test_perspective_total_equals_row_divergences(prior, gamma):
    m = gamma.sum(axis=1)
    for div in ALL:
        expected = sum(m[i] * divergence(div, gamma[i] / m[i], prior)
                       for i in range(gamma.shape[0]) if m[i] > 0.0)
        total = perspective_total(div, gamma, prior)
        if math.isinf(expected):
            assert total == math.inf
        else:
            assert total == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_perspective_total_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    gamma = rng.random((3, 3)) + 0.1
    prior = np.array([0.2, 0.3, 0.5])
    h = 1e-6
    for div in (kl_divergence(), reverse_kl_divergence(),
                alpha_divergence(2.0)):
        grad = perspective_total_grad(div, gamma, prior)
        for i in range(3):
            for k in range(3):
                hi, lo = gamma.copy(), gamma.copy()
                hi[i, k] += h
                lo[i, k] -= h
                fd = (perspective_total(div, hi, prior)
                      - perspective_total(div, lo, prior)) / (2 * h)
                assert grad[i, k] == pytest.approx(fd, rel=1e-5, abs=1e-7)
