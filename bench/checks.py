"""Correctness checks computed apart from the program, with numpy only.

Every check returns None when the output passes and a message when it does
not.  The reference values come from the definitions:

* the plan objective  sum_ik gamma_ik x_i . y_k + lam * sum_i m_i D(post_i, p)
  with D the KL divergence or the reverse KL divergence;
* the exact box-corner optimum of a linear cost with the KL privacy term,
  by Blahut-Arimoto over the 2^d corners of the box.  For a fixed posterior
  the best action is a corner and merging rows with the same action never
  raises the KL term, so this is the global optimum over all plans and
  actions.  The iteration also yields a certified lower bound;
* the expected auction revenue of a plan of ReLU bid policies, integrated
  in closed form piece by piece under the Exp(1) value density.
"""

from __future__ import annotations

import itertools

import numpy as np

REL_TOL = 1e-9          # reported versus recomputed objective values
COLUMN_TOL = 1e-12      # plan column sums versus the prior
UTILITY_SIGMAS = 5.0    # Monte-Carlo utility versus quadrature, in stderrs
# Blahut-Arimoto: the exact optimum stops once value and certified lower
# bound are OPTIMUM_GAP apart; the panel ranking needs only a rough value
OPTIMUM_GAP = 1e-13
OPTIMUM_MAX_ITERATIONS = 200_000
RANKING_ITERATIONS = 300

# f(t) of each f-divergence the workloads use, with f(0) (the limit)
_GENERATORS = {
    "kl": (lambda t: t * np.log(t), 0.0),
    "reverse_kl": (lambda t: -np.log(t), np.inf),
}


def _slack(value: float) -> float:
    return REL_TOL * max(1.0, abs(value))


# ---------------------------------------------------------------------------
# reference computations

def box_corners(d: int) -> np.ndarray:
    return np.array(list(itertools.product((-1.0, 1.0), repeat=d)))


def privacy(gamma, prior, divergence: str = "kl") -> float:
    """sum_i m_i D(posterior_i, prior) over rows with mass.

    D(q, p) = sum_k p_k f(q_k / p_k), with f(t) = t log t for KL and
    -log t for the reverse KL.
    """
    f, f_at_zero = _GENERATORS[divergence]
    gamma = np.asarray(gamma, dtype=float)
    prior = np.asarray(prior, dtype=float)
    mass = gamma.sum(axis=1)
    ratio = gamma[mass > 0.0] / mass[mass > 0.0, None] / prior
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(ratio > 0.0, f(ratio), f_at_zero)
    return float(mass[mass > 0.0] @ (terms @ prior))


def plan_objective(gamma, atoms, types, prior, lam: float,
                   divergence: str = "kl") -> float:
    gamma = np.asarray(gamma, dtype=float)
    cost = np.asarray(atoms, dtype=float) @ np.asarray(types, dtype=float).T
    return float((gamma * cost).sum()) + lam * privacy(gamma, prior, divergence)


def _blahut_arimoto(loss, prior, lam, iterations):
    """Yield (value, lower bound, q) of min_q -lam sum_k p_k log sum_i q_i e^(-L_ik/lam).

    ``loss`` and ``prior`` may carry leading batch axes.  The value is that
    of the current row law q; since the function is convex in q, it is at
    least value - lam * (max_i c_i - 1) with c the BA multipliers.  The plan
    of q is q_i e^(-L_ik/lam) p_k / sum_j q_j e^(-L_jk/lam).
    """
    shift = loss.min(axis=-2, keepdims=True)
    kernel = np.exp(-(loss - shift) / lam)
    q = np.full(loss.shape[:-1], 1.0 / loss.shape[-2])
    base = (prior * shift[..., 0, :]).sum(axis=-1)
    for _ in range(iterations):
        z = np.einsum("...i,...ik->...k", q, kernel)
        c = np.einsum("...ik,...k->...i", kernel, prior / z)
        value = base - lam * (prior * np.log(z)).sum(axis=-1)
        yield value, value - lam * (c.max(axis=-1) - 1.0), q
        q = q * c


def batched_corner_gain(priors, types, lam: float) -> np.ndarray:
    """Approximate value of revealing for a (C, K) / (C, K, d) batch."""
    loss = np.einsum("id,ckd->cik", box_corners(types.shape[-1]), types)
    for value, _, _ in _blahut_arimoto(loss, priors, lam, RANKING_ITERATIONS):
        pass
    return -np.abs(np.einsum("ck,ckd->cd", priors, types)).sum(axis=1) - value


def corner_optimum(prior, types, lam: float):
    """(value, certified lower bound) of the exact box-corner optimum."""
    types = np.asarray(types, dtype=float)
    loss = box_corners(types.shape[1]) @ types.T
    best = -np.inf
    for value, bound, _ in _blahut_arimoto(
            loss, np.asarray(prior, dtype=float), lam, OPTIMUM_MAX_ITERATIONS):
        best = max(best, float(bound))
        if value - best <= OPTIMUM_GAP:
            break
    return float(value), best


def _tail(x: float, degree: int) -> float:
    """Integral of v^degree e^(-v) over [x, inf)."""
    if x == np.inf:
        return 0.0
    return [1.0, x + 1.0, x * x + 2.0 * x + 2.0][degree] * np.exp(-x)


def policy_revenue(policy: dict, coef: float, mass: float) -> float:
    """E_v[(coef v - mass (beta - beta')) G(beta) 1{beta >= beta'}], v ~ Exp(1).

    beta(v) = b + sum_j a_j relu(w_j v + c_j) is linear between its kinks
    -c_j / w_j; inside a piece beta = q + p v and beta' = p, so the integrand
    is a polynomial of degree <= 2 times e^(-v) between the points where
    beta crosses 0 or 1 and where beta - beta' changes sign.
    """
    w = np.asarray(policy["weights"], dtype=float)
    c = np.asarray(policy["biases"], dtype=float)
    a = np.asarray(policy["out_weights"], dtype=float)
    b = float(policy["out_bias"])
    with np.errstate(divide="ignore", invalid="ignore"):
        kinks = -c / w
    kinks = np.sort(kinks[(w != 0.0) & (kinks > 0.0) & np.isfinite(kinks)])
    edges = np.concatenate([[0.0], kinks, [np.inf]])
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        probe = lo + 1.0 if hi == np.inf else 0.5 * (lo + hi)
        on = w * probe + c > 0.0
        p = float(a[on] @ w[on])
        q = float(a[on] @ c[on]) + b
        cuts = [lo, hi]
        if p != 0.0:
            cuts += [x for x in (-q / p, (1.0 - q) / p, (p - q) / p) if lo < x < hi]
        cuts.sort()
        for u, t in zip(cuts[:-1], cuts[1:]):
            mid = u + 1.0 if t == np.inf else 0.5 * (u + t)
            beta = q + p * mid
            if beta <= 0.0 or beta - p < 0.0:
                continue
            a1, a0 = coef - mass * p, -mass * (q - p)   # integrand before G
            poly = (a0, a1, 0.0) if beta >= 1.0 else (a0 * q, a1 * q + a0 * p,
                                                      a1 * p)
            total += sum(k * (_tail(u, n) - _tail(t, n))
                         for n, k in enumerate(poly))
    return total


def auction_utility(gamma, type_atoms, policies) -> float:
    """Plan-weighted expected revenue by quadrature."""
    gamma = np.asarray(gamma, dtype=float)
    coef = gamma @ np.asarray(type_atoms, dtype=float)
    mass = gamma.sum(axis=1)
    return sum(policy_revenue(pol, coef[i], mass[i])
               for i, pol in enumerate(policies) if mass[i] > 0.0)


# ---------------------------------------------------------------------------
# checks

def columns_match_prior(gamma, prior):
    drift = np.abs(np.asarray(gamma).sum(axis=0) - np.asarray(prior)).max()
    if not drift <= COLUMN_TOL:
        return f"plan columns deviate from the prior by {drift:.3g}"
    return None


def instance_matches(types, prior, instance):
    if not (np.allclose(types, instance.types, rtol=0.0, atol=1e-15)
            and np.allclose(prior, instance.prior, rtol=0.0, atol=1e-15)):
        return "plan is for another instance than the one generated"
    return None


def objective_matches(reported: float, recomputed: float):
    if not abs(reported - recomputed) <= _slack(recomputed):
        return (f"reported objective {reported!r} differs from the "
                f"recomputed {recomputed!r}")
    return None


def not_above_non_revealing(objective: float, non_revealing: float):
    if not objective <= non_revealing + _slack(non_revealing):
        return (f"objective {objective!r} is above the non-revealing "
                f"objective {non_revealing!r}")
    return None


def not_below_optimum(objective: float, lower_bound: float):
    if not objective >= lower_bound - _slack(lower_bound):
        return (f"objective {objective!r} is below the certified box-corner "
                f"optimum {lower_bound!r}")
    return None


def nonincreasing(trace):
    trace = np.asarray(trace, dtype=float)
    rises = np.diff(trace) > REL_TOL * np.maximum(1.0, np.abs(trace[:-1]))
    if rises.any():
        step = int(np.argmax(rises)) + 1
        return f"trace rises at step {step}: {trace[step - 1]!r} -> {trace[step]!r}"
    return None


def privacy_matches(reported: float, gamma, prior):
    return objective_matches(reported, privacy(gamma, prior))


def utility_matches(reported: float, stderr: float, quadrature: float):
    if not abs(reported - quadrature) <= UTILITY_SIGMAS * stderr + 1e-12:
        return (f"Monte-Carlo utility {reported!r} +- {stderr:.3g} misses the "
                f"quadrature {quadrature!r}")
    return None
