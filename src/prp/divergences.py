"""f-divergences between discrete distributions and their perspective functions.

A divergence is described by its convex generator f on the positive reals
with f(1) = 0, together with the two boundary limits that fix the extended
conventions:

* ``f_at_zero``  = lim_{t -> 0+} f(t), possibly +inf,
* ``f_slope_at_infinity`` = lim_{t -> inf} f(t)/t, possibly +inf.

Infinities are honest: every evaluator returns float('inf') where the
conventions dictate, never a large surrogate.

Generators must accept numpy arrays elementwise (all provided instances do);
solvers rely on this for vectorized evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

_INF = float("inf")
_TINY = np.finfo(float).tiny   # smallest normal float


@dataclass(frozen=True)
class FDivergence:
    """Convex generator plus boundary conventions.

    ``f_prime`` is the derivative on t > 0 (a fixed subgradient choice at
    kinks); ``smooth`` is False when f has kinks away from the boundary.
    The convex plan solve anneals the kink of total variation (the
    generator named "tv") through Huber smoothing, and rejects every other
    non-smooth generator.
    """

    name: str
    f: Callable[[np.ndarray], np.ndarray]
    f_at_zero: float
    f_slope_at_infinity: float
    f_prime: Callable[[np.ndarray], np.ndarray]
    smooth: bool = True


def kl_divergence() -> FDivergence:
    """Kullback-Leibler: f(t) = t log t."""
    return FDivergence(
        name="kl",
        f=lambda t: t * np.log(t),
        f_at_zero=0.0,
        f_slope_at_infinity=_INF,
        f_prime=lambda t: np.log(t) + 1.0,
    )


def reverse_kl_divergence() -> FDivergence:
    """Reverse Kullback-Leibler: f(t) = -log t."""
    return FDivergence(
        name="reverse_kl",
        f=lambda t: -np.log(t),
        f_at_zero=_INF,
        f_slope_at_infinity=0.0,
        f_prime=lambda t: -1.0 / t,
    )


def total_variation() -> FDivergence:
    """Total variation: f(t) = |t - 1| / 2.  Subgradient 0 at the kink."""
    return FDivergence(
        name="tv",
        f=lambda t: 0.5 * np.abs(t - 1.0),
        f_at_zero=0.5,
        f_slope_at_infinity=0.5,
        f_prime=lambda t: 0.5 * np.sign(t - 1.0),
        smooth=False,
    )


def alpha_divergence(alpha: float) -> FDivergence:
    """f(t) = (t^alpha - 1)/(alpha - 1) for alpha in (1, inf); alpha=1 is KL."""
    if not 1.0 <= alpha < _INF:
        raise ValueError(f"alpha must be finite and >= 1, got {alpha}")
    if alpha == 1.0:
        return kl_divergence()
    return FDivergence(
        name=f"alpha:{alpha:g}",
        f=lambda t: (t ** alpha - 1.0) / (alpha - 1.0),
        f_at_zero=-1.0 / (alpha - 1.0),
        f_slope_at_infinity=_INF,
        f_prime=lambda t: alpha * t ** (alpha - 1.0) / (alpha - 1.0),
    )


def from_name(name: str) -> FDivergence:
    """Resolve a CLI/config divergence name: kl | reverse_kl | tv | alpha:<value>."""
    if name == "kl":
        return kl_divergence()
    if name == "reverse_kl":
        return reverse_kl_divergence()
    if name == "tv":
        return total_variation()
    if name.startswith("alpha:"):
        return alpha_divergence(float(name.split(":", 1)[1]))
    raise ValueError(f"unknown divergence {name!r}")


def divergence(div: FDivergence, p, q) -> float:
    """D(P, Q) = sum_k q_k f(p_k / q_k) over a shared atom set.

    Conventions: a term is q_k * f_at_zero when p_k = 0, it is
    p_k * f_slope_at_infinity when q_k = 0 < p_k, and 0 when both vanish.
    Returns +inf as a value where the conventions dictate.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("p and q must share the same atom set")
    total = 0.0
    for pk, qk in zip(p.ravel(), q.ravel()):
        if qk > 0.0:
            if pk > 0.0:
                total += qk * float(div.f(pk / qk))
            else:
                total += qk * div.f_at_zero
        elif pk > 0.0:
            total += pk * div.f_slope_at_infinity
        if total == _INF:
            return _INF
    return total


def perspective_h(div: FDivergence, gamma_row, prior, k: int) -> float:
    """Row-wise privacy cost h_k(row) = m * f(row_k / (prior_k * m)), m = sum(row).

    Zero rows cost 0; a zero k-th entry uses the f_at_zero convention.
    """
    row = np.asarray(gamma_row, dtype=float)
    m = float(row.sum())
    if m <= 0.0:
        return 0.0
    if row[k] == 0.0:
        return m * div.f_at_zero
    # divide by the mass first: row[k]/m is in [0, 1], so no underflow
    return m * float(div.f((row[k] / m) / prior[k]))


def perspective_total(div: FDivergence, gamma, prior) -> float | np.ndarray:
    """sum_{i,k} prior_k * h_k(gamma_i) — the privacy cost of a plan matrix.

    Equals sum_i m_i * divergence(gamma_i / m_i, prior), m_i the row mass,
    with the same conventions; massless rows cost 0.  A (..., n, K) stack of
    plans gets one cost per plan, an array over the leading axes; a single
    (n, K) plan gets a float.
    """
    gamma = np.asarray(gamma, dtype=float)
    prior = np.asarray(prior, dtype=float)
    m = gamma.sum(axis=-1, keepdims=True)
    weight = m * prior
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # divide by the mass first: gamma/m is in [0, 1], so no underflow
        t = (gamma / m) / prior
        terms = np.where(
            gamma > 0.0,
            np.where(prior > 0.0, weight * div.f(t),
                     gamma * div.f_slope_at_infinity),
            np.where(weight > 0.0, weight * div.f_at_zero, 0.0))
    total = terms.sum(axis=(-2, -1))
    return float(total) if total.ndim == 0 else total


def perspective_total_grad(div: FDivergence, gamma, prior) -> np.ndarray:
    """Gradient of :func:`perspective_total` in the plan matrix.

    On a row with mass m_i, d/d gamma_ij = sum_k prior_k [f(t_ik) -
    t_ik f'(t_ik)] + f'(t_ij), t_ik = gamma_ik / (prior_k m_i), taking the
    limits at t = 0, which may be infinite.  Where f'(t) overflows at t > 0
    (-1/t below 1/max float), t f'(t) is taken at the smallest normal float,
    where it is finite (-1 for reverse KL), so only the entry's own f'(t)
    is infinite.  Massless rows get 0, since the multiplicative updates of
    `optim.minimize_columns_pgd` never revive them.
    """
    gamma = np.asarray(gamma, dtype=float)
    prior = np.asarray(prior, dtype=float)
    m = gamma.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = (gamma / np.where(m > 0.0, m, 1.0)) / prior
        fpt = div.f_prime(t)
        t_fpt = np.where(np.isinf(fpt), _TINY * div.f_prime(_TINY), t * fpt)
        bracket = np.where(t > 0.0, div.f(t) - t_fpt, div.f_at_zero)
        out = (bracket * prior).sum(axis=1, keepdims=True) + fpt
    return np.where(m > 0.0, out, 0.0)
