"""Bid shading against a known opponent, with a privacy-regularized strategy.

The bidder's value distribution is exponential with mean equal to the
private type; a policy is a monotone-ish map from the unit-mean base value
to a bid, parametrized as a single hidden layer of ReLUs.  Against a single
truthful opponent with uniform values, the expected per-auction revenue of
policy beta at type y is

    E_{v ~ Exp(1)} [ (y v - beta(v) + beta'(v)) G(beta(v)) 1{beta(v) - beta'(v) >= 0} ]

with G(x) = min(max(x, 0), 1) the opponent's highest-bid cdf.  Since the
indicator and G do not depend on the type, the revenue is affine in y:
r(beta, y) = y * A(beta) - B(beta), which keeps training and evaluation on
K types cheap.

Training and evaluation price policies with the same exact statistics.  A
ReLU policy is piecewise linear, so E[A] and E[B] are sums of (degree <= 2
polynomial) * e^(-v) integrals between its kinks and the points where beta
crosses 0, 1 and beta'.  `expected_stats` computes them in closed form.

The adjoint that `expected_stats` returns differentiates them exactly.
Between those points the derivatives of the integrands in the intercept
and slope of the linear piece are again polynomials of degree <= 2
against the same e^(-v) moments.  The points also move with the
parameters.  Where the integrand is continuous (beta = 0, beta = 1, and
h = 0 for B) that adds nothing; at its jumps, the crossing beta = beta'
for A (a jump of v*G) and every ReLU kink -c_j/w_j (beta' jumps), it
adds the Leibniz boundary terms under the Exp(1) density
(`_boundary_grads`).

Training is the Sinkhorn descent of `prp.sinkhorn` on a cost oracle
whose action atoms are policies: each policy is packed as one parameter
row [w, c, a, b] of length 3W + 1, the cost matrix is C_ik = 1 - (y_k A_i
- B_i), and the adjoint takes dL/dC = P to the rows through the adjoint of
`expected_stats`.  Only `_pack` and `_unpack` know the row layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import seeds
from .divergences import kl_divergence, perspective_total
from .measures import CostOracle, DiscreteDistribution, TransportPlan
from .optim import DescentConfig
from .sinkhorn import _descend, step_solve


@dataclass(frozen=True)
class BidPolicy:
    """b + sum_j a_j relu(w_j v + c_j)."""

    weights: np.ndarray      # (W,) hidden slopes
    biases: np.ndarray       # (W,)
    out_weights: np.ndarray  # (W,)
    out_bias: float

    def __call__(self, v) -> np.ndarray:
        act = np.multiply.outer(np.asarray(v, dtype=float), self.weights)
        act += self.biases
        return np.maximum(act, 0.0) @ self.out_weights + self.out_bias


def random_policy(rng: np.random.Generator, width: int = 100,
                  scale: float = 0.5) -> BidPolicy:
    """Near-linear increasing start with an adjustable bid level.

    Slopes in [0.5, 1.5] and output weights of order scale/width give an
    initial bid curve with slope roughly 0.6 * scale; the small positive
    output bias keeps bids (and therefore the gradient of the expected
    statistics) alive at low values.
    """
    return BidPolicy(
        weights=rng.uniform(0.5, 1.5, size=width),
        biases=rng.uniform(-0.5, 0.5, size=width),
        out_weights=rng.uniform(0.0, 2.0 * scale / width, size=width),
        out_bias=0.02,
    )


def ladder_policies(rng: np.random.Generator, n_atoms: int,
                    width: int = 100) -> list:
    """Initial policies with bid levels spread over a deterministic ladder.

    The types prefer different bid levels, so spreading the starting levels
    hands every atom a niche immediately; with identical starts the policy
    ensemble tends to collapse onto one or two survivors.
    """
    return [random_policy(rng, width, scale=0.1 + (i + 0.5) / n_atoms)
            for i in range(n_atoms)]


@dataclass(frozen=True)
class AuctionModel:
    """Types on midpoints of a K-cell grid of [0, 1], uniform prior."""

    n_types: int = 10

    @property
    def type_atoms(self) -> np.ndarray:
        k = self.n_types
        return (np.arange(k) + 0.5) / k

    @property
    def prior(self) -> DiscreteDistribution:
        return DiscreteDistribution(list(self.type_atoms),
                                    np.full(self.n_types, 1.0 / self.n_types))

    @staticmethod
    def opponent_cdf(x) -> np.ndarray:
        return np.clip(x, 0.0, 1.0)


def _stack(policies) -> list:
    """[weights, biases, out_weights, out_bias] stacked over policies."""
    return [np.array([p.weights for p in policies], dtype=float),
            np.array([p.biases for p in policies], dtype=float),
            np.array([p.out_weights for p in policies], dtype=float),
            np.array([p.out_bias for p in policies], dtype=float)]


def _kinks(w, c):
    """Kinks v = -c_j/w_j > 0 of every unit, and which units have one.

    A unit without a kink in (0, inf) gets the placeholder 0.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        kink = -c / w
    valid = (w != 0.0) & (kink > 0.0) & np.isfinite(kink)
    return np.where(valid, kink, 0.0), valid


def _pieces(params, kink):
    """The linear pieces of every policy between its sorted kinks.

    Returns (starts, ends, mask, p, q), each (n, W + 1) except the
    (n, W + 1, W) activation mask: on piece [starts, ends) the bid is
    beta = q + p v and its slope beta' = p.  Placeholder kinks at 0 give
    empty pieces [0, 0].
    """
    w, c, a, b = params
    n = w.shape[0]
    knots = np.sort(kink, axis=1)
    starts = np.concatenate([np.zeros((n, 1)), knots], axis=1)
    ends = np.concatenate([knots, np.full((n, 1), np.inf)], axis=1)
    mid = np.where(np.isfinite(ends), 0.5 * (starts + ends), starts + 1.0)
    mask = (mid[:, :, None] * w[:, None, :] + c[:, None, :]) > 0.0
    p = np.einsum("ipl,il->ip", mask, a * w)
    q = np.einsum("ipl,il->ip", mask, a * c) + b[:, None]
    return starts, ends, mask, p, q


def _tails(x) -> list:
    """T_m(x), the integral of v^m e^(-v) over [x, inf), for m = 0, 1, 2.

    T_m(x) = e^(-x) (x^m + ... + m!), and 0 at x = inf.
    """
    scale = np.exp(-x)
    live = scale > 0.0
    return [np.where(live, scale * poly, 0.0)
            for poly in (1.0, x + 1.0, x * x + 2.0 * x + 2.0)]


def _sub_intervals(params):
    """Every policy's kinks, linear pieces and their kept sub-intervals.

    The cuts where beta = 0, beta = 1 and h = beta - beta' = 0 split a
    linear piece beta = q + p v of `_pieces` into sub-intervals [u, t] on
    which G(beta) is 0, beta or 1 and the indicator 1{h >= 0} is constant.
    Returns (kink, valid, pieces, sat, moments): the `_kinks` and `_pieces`
    of `params`, `sat` marking the sub-intervals with beta >= 1, and
    moments[m] the integral T_m(u) - T_m(t) of v^m e^(-v) over each kept
    sub-interval (G > 0 and h >= 0), 0 on the others; `sat` and the moments
    are (n, W + 1, 4).
    """
    w, c, _, _ = params
    kink, valid = _kinks(w, c)
    pieces = _pieces(params, kink)
    starts, ends, _, p, q = pieces
    lo, hi = starts[..., None], ends[..., None]
    p, q = p[..., None], q[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        cuts = np.concatenate([-q, 1.0 - q, p - q], axis=-1) / p
    # fmax drops the NaN of 0/0 at p = 0; the other cuts land in [lo, hi]
    cuts = np.minimum(np.fmax(cuts, lo), hi)
    edges = np.sort(np.concatenate([lo, cuts, hi], axis=-1), axis=-1)
    u, t = edges[..., :-1], edges[..., 1:]
    with np.errstate(invalid="ignore", over="ignore"):
        mid = np.where(np.isfinite(t), 0.5 * (u + t), u + 1.0)
        beta = q + p * mid
        keep = (t > u) & (beta > 0.0) & (beta - p >= 0.0)
        moments = [np.where(keep, tail[..., :-1] - tail[..., 1:], 0.0)
                   for tail in _tails(edges)]
    return kink, valid, pieces, beta >= 1.0, moments


def expected_stats(params):
    """Exact E[A] = E[v G(beta) 1{h >= 0}], E[B] = E[h G(beta) 1{h >= 0}].

    Per policy of the stacked `params`, under v ~ Exp(1), with h = beta -
    beta'.  On every kept sub-interval of `_sub_intervals` both integrands
    are polynomials of degree <= 2 in v, integrated against its moments;
    vectorized over (policy, piece, sub-interval).

    Returns (A, B, adjoint).  adjoint(coef_a, coef_b) is the exact gradient
    of sum_i coef_a_i A_i + coef_b_i B_i, as [d/dweights, d/dbiases,
    d/dout_weights, d/dout_bias] stacked like `params`.  Inside a kept
    sub-interval of the piece beta = q + p v, with h = q + p (v - 1) and
    dG/dbeta = 1{beta < 1}:

        d(v G)/dq = v 1{beta < 1}       d(v G)/dp = v^2 1{beta < 1}
        d(h G)/dq = G + h 1{beta < 1}   d(h G)/dp = (v - 1) G + h v 1{beta < 1}

    again polynomials of degree <= 2 against the same moments.  Unit j
    enters a piece with activation mask m through p = sum_j m_j a_j w_j and
    q = sum_j m_j a_j c_j + b.  The moving sub-interval ends add the
    boundary terms of `_boundary_grads`.
    """
    w, c, a, _ = params
    kink, valid, pieces, sat, (m0, m1, m2) = _sub_intervals(params)
    _, _, mask, p, q = pieces
    p, q = p[..., None], q[..., None]
    # G = g0 + g1 v and h = h0 + h1 v on every kept sub-interval
    g0, g1 = np.where(sat, 1.0, q), np.where(sat, 0.0, p)
    h0, h1 = q - p, p
    a_stat = (g0 * m1 + g1 * m2).sum(axis=(1, 2))
    b_stat = (h0 * g0 * m0 + (h0 * g1 + h1 * g0) * m1
              + h1 * g1 * m2).sum(axis=(1, 2))

    def adjoint(coef_a, coef_b) -> list:
        free = ~sat
        ca, cb = coef_a[:, None, None], coef_b[:, None, None]
        dq = (ca * free * m1
              + cb * (g0 * m0 + g1 * m1 + free * (h0 * m0 + h1 * m1)))
        dp = (ca * free * m2
              + cb * (g0 * (m1 - m0) + g1 * (m2 - m1)
                      + free * (h0 * m1 + h1 * m2)))
        dq, dp = dq.sum(axis=2), dp.sum(axis=2)
        on_p = np.einsum("ipl,ip->il", mask, dp)
        on_q = np.einsum("ipl,ip->il", mask, dq)
        interior = [a * on_p, a * on_q, w * on_p + c * on_q, dq.sum(axis=1)]
        boundary = _boundary_grads(params, kink, valid, pieces, coef_a,
                                   coef_b)
        return [x + y for x, y in zip(interior, boundary)]

    return a_stat, b_stat, adjoint


def _boundary_grads(params, kink, valid, pieces, coef_a, coef_b) -> list:
    """Leibniz terms of the expected statistics at the integrand's jumps.

    The integrand of A and B jumps where the indicator switches inside a
    linear piece of beta (the crossing beta = beta', a jump of v*G for A
    and of 0 for B) and at every ReLU kink v = -c_j/w_j (beta' jumps by
    a_j*w_j).  Moving a jump point s by ds changes the expectation by
    (f(s-) - f(s+)) * exp(-s) * ds; these terms are exact under the Exp(1)
    density, vectorized over policies, pieces and hidden units.  `kink`,
    `valid` and `pieces` are the `_kinks` and `_pieces` of `params`.
    """
    w, c, a, b = params
    n, width = w.shape

    # jumps at the kinks: unit j switches on to the right of its kink iff
    # w_j > 0; every other unit keeps its activation state
    act = kink[:, :, None] * w[:, None, :] + c[:, None, :]   # (n, kink, unit)
    others = (act > 0.0) & ~np.eye(width, dtype=bool)[None]
    beta = np.einsum("ijl,il->ij", np.where(others, act, 0.0), a) + b[:, None]
    prime = np.einsum("ijl,il->ij", others, a * w)
    own = a * w
    win = np.clip(beta, 0.0, 1.0)
    jump = np.zeros((n, width))
    for side, sign in ((w < 0.0, 1.0), (w > 0.0, -1.0)):   # left, right
        h = beta - (prime + own * side)
        inside = win * (h >= 0.0)
        jump += sign * (coef_a[:, None] * kink + coef_b[:, None] * h) * inside
    jump = np.where(valid, jump * np.exp(-kink), 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ds_dc = np.where(valid, -1.0 / w, 0.0)
    gw = jump * ds_dc * kink
    gc = jump * ds_dc

    # crossings of beta = beta' inside each linear piece: on a piece with
    # activation mask m, beta(v) = q + p v with p = sum a w m = beta'; the
    # crossing s = (p - q)/p moves by -dh/p, and G(beta(s)) = G(p) vanishes
    # unless p > 0, where h turns from negative to positive
    starts, ends, mask, p, q = pieces
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (p - q) / p
    crossing = (p > 0.0) & (s > starts) & (s < ends)
    s = np.where(crossing, s, 0.0)
    scale = (crossing * coef_a[:, None] * s * np.minimum(p, 1.0) * np.exp(-s)
             / np.where(crossing, p, 1.0))
    # dh/dtheta at the crossing, contracted with the per-piece scale
    ms = mask * scale[:, :, None]
    on_units = ms.sum(axis=1)
    on_s = np.einsum("ipl,ip->il", ms, s - 1.0)
    return [gw + a * on_s,
            gc + a * on_units,
            w * on_s + c * on_units,
            scale.sum(axis=1)]


def _pack(params) -> np.ndarray:
    """Stacked `params` as one row [w, c, a, b] of length 3W + 1 per policy."""
    w, c, a, b = params
    return np.concatenate((w, c, a, b[:, None]), axis=1)


def _unpack(rows) -> list:
    """The stacked [weights, biases, out_weights, out_bias] of `_pack` rows."""
    width = (rows.shape[1] - 1) // 3
    w, c, a, b = np.split(rows, [width, 2 * width, 3 * width], axis=1)
    return [np.ascontiguousarray(x) for x in (w, c, a, b[:, 0])]


def _revenue_cost(rows, y):
    """C_ik = 1 - (y_k A_i - B_i) of packed policy rows, and its adjoint.

    The adjoint maps a plan P to the gradient of <C, P> in the rows: the
    adjoint of `expected_stats` at coefficients -P y on A and P 1 on B.
    """
    a_stat, b_stat, adjoint = expected_stats(_unpack(rows))
    matrix = 1.0 - (a_stat[:, None] * y[None, :] - b_stat[:, None])
    return matrix, lambda plan: _pack(adjoint(-(plan @ y), plan.sum(axis=1)))


_REVENUE_COST = CostOracle(
    evaluate=lambda x, y: float(_revenue_cost(np.atleast_2d(x),
                                              np.atleast_1d(y))[0][0, 0]),
    matrix_and_adjoint=_revenue_cost)

AUCTION_TRAINING = DescentConfig(lr_weights=0.02, lr_atoms=3e-4)


# read only by bench/tracing.py, for the `cap` default of the step solve
_unroll_budget = step_solve


def train_strategy(model: AuctionModel, lam: float,
                   n_atoms: Optional[int] = None, steps: int = 1000,
                   config: Optional[DescentConfig] = None, seed: int = 0,
                   width: int = 100):
    """Jointly descend (atom weights, policy parameters) on the coupling loss.

    The Sinkhorn descent of `prp.sinkhorn` with the policies as packed
    action atoms under the cost C_ik = 1 - (y_k A_i - B_i) of
    `_revenue_cost`.  Only the initial policies are random (drawn from
    `seed`), so the run is deterministic.  Returns the plan of the
    converged final solve (policies as action atoms) and the loss trace.
    """
    n = n_atoms if n_atoms is not None else model.n_types + 2
    y = model.type_atoms
    rows = _pack(_stack(ladder_policies(seeds.rng_for(seed, seeds.INIT), n,
                                        width)))
    # the weight floor keeps every atom shipping a trickle of mass, so its
    # policy keeps receiving gradient; a policy that bids <= 0 for every
    # value has zero gradient and stays dead regardless
    rows, gamma, trace = _descend(
        rows, model.prior.weights, y, _REVENUE_COST, lam,
        replace(config or AUCTION_TRAINING, steps=steps), min(1e-4, 0.1 / n))
    w, c, a, b = _unpack(rows)
    policies = [BidPolicy(w[i], c[i], a[i], float(b[i])) for i in range(n)]
    return TransportPlan(gamma, policies, list(y), model.prior), trace


@dataclass(frozen=True)
class StrategyEvaluation:
    utility: float
    privacy: float
    utility_stderr: float


def evaluate_strategy(plan: TransportPlan) -> StrategyEvaluation:
    """Plan-weighted expected revenue, exact, and the KL privacy cost.

    The revenue is sum_i (gamma y)_i A_i - m_i B_i with the statistics of
    `expected_stats` and m_i the row masses, so its standard error is 0.
    """
    gamma = plan.gamma
    y = np.asarray(plan.type_atoms, dtype=float)
    a_stat, b_stat, _ = expected_stats(_stack(plan.action_atoms))
    utility = (gamma @ y) @ a_stat - plan.row_masses @ b_stat
    privacy = perspective_total(kl_divergence(), gamma, plan.prior.weights)
    return StrategyEvaluation(float(utility), privacy, 0.0)


@dataclass(frozen=True)
class SweepRow:
    lam: float
    utility: float
    utility_stderr: float
    privacy: float
    privacy_stderr: float


@dataclass(frozen=True)
class SweepRun:
    lam: float
    run: int
    plan: TransportPlan
    evaluation: StrategyEvaluation
    trace: np.ndarray


@dataclass(frozen=True)
class SweepResult:
    rows: list
    runs: list = field(default_factory=list)


def sweep_lambda(model: AuctionModel, lambdas, runs: int,
                 steps: int = 1000, config: Optional[DescentConfig] = None,
                 seed: int = 0, n_atoms: Optional[int] = None,
                 width: int = 100) -> SweepResult:
    """Train and evaluate per (lambda, run); aggregate the trade-off table.

    Run `run` at the `li`-th lambda trains from the seed derived from
    (`seed`, TRAIN_STEP, li, run), which only draws its initial policies.
    Training and evaluation (`evaluate_strategy`) are exact, so the per-row
    standard errors, sqrt(var / runs), come from the spread across runs
    alone.
    """
    rows = []
    details = []
    for li, lam in enumerate(lambdas):
        utilities = []
        privacies = []
        for run in range(runs):
            train_seed = seeds.seed_for(seed, seeds.TRAIN_STEP, li, run)
            plan, trace = train_strategy(model, lam, n_atoms=n_atoms,
                                         steps=steps, config=config,
                                         seed=train_seed, width=width)
            evaluation = evaluate_strategy(plan)
            utilities.append(evaluation.utility)
            privacies.append(evaluation.privacy)
            details.append(SweepRun(lam, run, plan, evaluation, trace))
        if not utilities:
            continue
        utilities = np.asarray(utilities)
        privacies = np.asarray(privacies)
        n_runs = len(utilities)
        util_se = float(np.sqrt(utilities.var(ddof=0) / n_runs))
        priv_se = float(np.sqrt(privacies.var(ddof=0) / n_runs))
        rows.append(SweepRow(float(lam), float(utilities.mean()), util_se,
                             float(privacies.mean()), priv_se))
    return SweepResult(rows=rows, runs=details)


@dataclass(frozen=True)
class DominantActionMap:
    row_for_type: np.ndarray   # (K,) plan row with maximal mass per type
    value_grid: np.ndarray     # (G,) base values the curves are sampled on
    curves: np.ndarray         # (K, G) dominant bid curve per type


def dominant_action_map(plan: TransportPlan,
                        value_grid=None) -> DominantActionMap:
    """Per type, the most used action atom and its bid curve (ties: lowest row)."""
    grid = (np.linspace(0.0, 5.0, 101) if value_grid is None
            else np.asarray(value_grid, dtype=float))
    rows = np.argmax(plan.gamma, axis=0)
    curves = np.empty((plan.n_types, grid.size))
    for k, row in enumerate(rows):
        curves[k] = plan.action_atoms[row](grid)
    return DominantActionMap(rows, grid, curves)
