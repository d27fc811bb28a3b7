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
ReLU policy is piecewise linear: one sort of its kinks gives its pieces,
and the slope and intercept of every piece are cumulative sums over the
units that turn on at the kinks before it or off at the kinks after it
(`_pieces`).  On each piece the integrand is kept (G(beta) > 0 and
h = beta - beta' >= 0) on one interval, found in closed form and split
where beta = 1 (`_sub_intervals`).  So E[A] and E[B] are sums of
(degree <= 2 polynomial) * e^(-v) integrals over two sub-intervals per
piece, linear in the width; `expected_stats` computes them in closed
form.

The adjoint that `expected_stats` returns differentiates them exactly.
Inside a sub-interval the derivatives of the integrands in the intercept
and slope of the linear piece are again polynomials of degree <= 2
against the same e^(-v) moments, and a unit's share of them is a prefix
or suffix sum over the pieces at its kink's rank.  The ends of the
sub-intervals also move with the parameters.  Where the integrand is
continuous (beta = 0, beta = 1, and h = 0 for B) that adds nothing; at
its jumps, the crossing beta = beta' for A (a jump of v*G) and every ReLU
kink -c_j/w_j (beta' jumps), it adds the Leibniz boundary terms under the
Exp(1) density (`_boundary_grads`).

Training is the Sinkhorn descent of `prp.sinkhorn` on a cost oracle
whose action atoms are policies: every policy is one parameter row [w, c,
a, b] of length 3W + 1 (`_stack`), the cost matrix is C_ik = 1 - (y_k A_i
- B_i), and the adjoint takes dL/dC = P to the rows through the adjoint of
`expected_stats`, which takes rows and returns a gradient of their shape.
`_unpack` is the only code that splits a row.  `sweep_lambda` trains all
its (lambda, run) pairs as one stack of starts (`train_strategy_starts`),
so each descent step prices every pair's policies in one `expected_stats`
call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from . import seeds
from .divergences import kl_divergence, perspective_total
from .measures import (CostOracle, DiscreteDistribution, TransportPlan,
                       atom_count)
from .optim import DescentConfig
from .sinkhorn import _descend, solve_sinkhorn

WIDTH = 100   # hidden units of a bid policy


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


def random_policy(rng: np.random.Generator, width: int = WIDTH,
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
                    width: int = WIDTH) -> list:
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


def _stack(policies) -> np.ndarray:
    """The policies as rows [weights, biases, out_weights, out_bias]."""
    return np.array([np.concatenate((p.weights, p.biases, p.out_weights,
                                     [p.out_bias])) for p in policies],
                    dtype=float)


def _unpack(rows) -> list:
    """The [weights, biases, out_weights, out_bias] of `_stack` rows."""
    width = (rows.shape[1] - 1) // 3
    w, c, a, b = np.split(rows, [width, 2 * width, 3 * width], axis=1)
    return [np.ascontiguousarray(x) for x in (w, c, a, b[:, 0])]


def _kinks(w, c):
    """Kinks v = -c_j/w_j > 0 of every unit, and which units have one.

    A unit without a kink in (0, inf) gets the placeholder 0.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        kink = -c / w
    valid = (w != 0.0) & (kink > 0.0) & np.isfinite(kink)
    return np.where(valid, kink, 0.0), valid


class _PieceTable(NamedTuple):
    """The linear pieces of a stack of policies, built by `_pieces`."""

    kink: np.ndarray       # (n, W) the `_kinks` of the units
    valid: np.ndarray      # (n, W)
    rank: np.ndarray       # (n, W) position of each kink in its row's sort
    turns_on: np.ndarray   # (n, W) units on only after the piece `rank`
    turns_off: np.ndarray  # (n, W) units on only up to the piece `rank`
    starts: np.ndarray     # (n, W + 1) piece r is [starts[r], ends[r])
    ends: np.ndarray       # (n, W + 1)
    p: np.ndarray          # (n, W + 1) slope of beta = q + p v on a piece
    q: np.ndarray          # (n, W + 1) its intercept


def _pieces(params) -> _PieceTable:
    """The linear pieces of every policy between its sorted kinks.

    One stable sort orders each row's kinks; piece r runs from the r-th
    kink to the next (from 0, and to inf), so kink j ends piece rank_j.  A
    unit with w_j > 0 turns on at its kink and one with w_j < 0 turns off.
    A unit without a kink in (0, inf) is on for every piece (c_j > 0, or
    c_j = 0 < w_j) or for none; its placeholder 0 sorts before every kink,
    so one that is on counts as turning on there, and the empty pieces
    [0, 0] before the first kink are all it misses.  The slope p and
    intercept q of every piece are therefore a prefix sum of a_j w_j and
    a_j c_j over the units that turn on before it plus a suffix sum over
    those that turn off at its end or later, plus b for q: linear in the
    width, and exactly 0 (b) where no unit is on.
    """
    w, c, a, b = params
    kink, valid = _kinks(w, c)
    n, width = w.shape
    order = np.argsort(kink, axis=1, kind="stable")
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(width)[None, :], axis=1)
    on_at_zero = (c > 0.0) | ((c == 0.0) & (w > 0.0))
    turns_on, turns_off = valid != on_at_zero, valid & on_at_zero
    terms = np.stack((a * w, a * c))

    def in_order(x):
        return np.take_along_axis(x, order[None], axis=2)

    before = np.cumsum(in_order(np.where(turns_on, terms, 0.0)), axis=2)
    after = np.cumsum(in_order(np.where(turns_off, terms, 0.0))[..., ::-1],
                      axis=2)[..., ::-1]
    zero = np.zeros((2, n, 1))
    p, q = (np.concatenate((zero, before), axis=2)
            + np.concatenate((after, zero), axis=2))
    knots = np.take_along_axis(kink, order, axis=1)
    starts = np.concatenate((np.zeros((n, 1)), knots), axis=1)
    ends = np.concatenate((knots, np.full((n, 1), np.inf)), axis=1)
    return _PieceTable(kink, valid, rank, turns_on, turns_off, starts, ends,
                       p, q + b[:, None])


def _unit_sums(table, d):
    """Per unit, the sum of d (2, n, W + 1) over the pieces where it is on.

    A unit that turns on is on after the piece `rank` that its kink ends,
    one that turns off up to and including it: a suffix or a prefix sum
    at its rank.
    """
    rank = table.rank[None]
    through = np.take_along_axis(np.cumsum(d, axis=-1), rank, axis=-1)
    after = np.take_along_axis(np.cumsum(d[..., ::-1], axis=-1)[..., ::-1],
                               rank + 1, axis=-1)
    return np.where(table.turns_off, through,
                    np.where(table.turns_on, after, 0.0))


def _tails(x) -> list:
    """T_m(x), the integral of v^m e^(-v) over [x, inf), for m = 0, 1, 2.

    T_m(x) = e^(-x) (x^m + ... + m!), and 0 at x = inf.
    """
    scale = np.exp(-x)
    live = scale > 0.0
    return [np.where(live, scale * poly, 0.0)
            for poly in (1.0, x + 1.0, x * x + 2.0 * x + 2.0)]


def _sub_intervals(table):
    """The kept interval of every linear piece, split where beta = 1.

    On a piece [lo, hi] of `_pieces` with beta = q + p v, the integrand is
    kept where G(beta) > 0 and h = beta - p >= 0.  That is one interval in
    closed form: [max(lo, (p - q)/p), hi] for p > 0, where h >= 0 implies
    beta > 0; [lo, min(hi, -q/p)] for p < 0, where beta > 0 implies h > 0;
    the whole piece if q > 0 for p = 0.  Its split at beta = 1 gives two
    sub-intervals on which G(beta) is beta or 1.  Returns (sat, moments):
    `sat` marks the sub-intervals with beta >= 1, and moments[m] is the
    integral T_m(start) - T_m(end) of v^m e^(-v) over each, 0 where the
    piece keeps nothing; all are (n, W + 1, 2).
    """
    lo, hi, p, q = table.starts, table.ends, table.p, table.q
    rising, falling = p > 0.0, p < 0.0
    flat = ~(rising | falling)
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.where(rising, np.fmax(lo, (p - q) / p), lo)
        t = np.where(falling, np.fmin(hi, -q / p), hi)
        split = np.where(flat, u,
                         np.minimum(np.maximum((1.0 - q) / p, u), t))
    keep = (t > u) & (~flat | (q > 0.0))
    edges = np.stack((u, split, t), axis=-1)
    with np.errstate(invalid="ignore", over="ignore"):
        moments = [np.where(keep[..., None], tail[..., :-1] - tail[..., 1:],
                            0.0) for tail in _tails(edges)]
    sat = np.stack((falling, rising | (flat & (q >= 1.0))), axis=-1)
    return sat, moments


def expected_stats(rows):
    """Exact E[A] = E[v G(beta) 1{h >= 0}], E[B] = E[h G(beta) 1{h >= 0}].

    Per policy row of `_stack`, under v ~ Exp(1), with h = beta - beta'.
    On the two sub-intervals of every piece's kept interval
    (`_sub_intervals`) both integrands are polynomials of degree <= 2 in
    v, integrated against their moments; vectorized over (policy, piece,
    sub-interval), so linear in the width.

    Returns (A, B, adjoint).  adjoint(coef_a, coef_b) is the exact gradient
    of sum_i coef_a_i A_i + coef_b_i B_i in the rows, an array of their
    shape.  Inside a kept sub-interval of the piece beta = q + p v, with
    h = q + p (v - 1) and dG/dbeta = 1{beta < 1}:

        d(v G)/dq = v 1{beta < 1}       d(v G)/dp = v^2 1{beta < 1}
        d(h G)/dq = G + h 1{beta < 1}   d(h G)/dp = (v - 1) G + h v 1{beta < 1}

    again polynomials of degree <= 2 against the same moments.  The
    crossings of `_boundary_grads` add their per-piece terms to these.
    Unit j enters every piece where it is on through p = ... + a_j w_j and
    q = ... + a_j c_j, so its share is a prefix or suffix sum of the
    per-piece derivatives at its kink's rank (`_unit_sums`); the kinks add
    their terms in the unit's own w_j and c_j.
    """
    params = _unpack(rows)
    w, c, a, _ = params
    table = _pieces(params)
    sat, (m0, m1, m2) = _sub_intervals(table)
    p, q = table.p[..., None], table.q[..., None]
    # G = g0 + g1 v and h = h0 + h1 v on every kept sub-interval
    g0, g1 = np.where(sat, 1.0, q), np.where(sat, 0.0, p)
    h0, h1 = q - p, p
    a_stat = (g0 * m1 + g1 * m2).sum(axis=(1, 2))
    b_stat = (h0 * g0 * m0 + (h0 * g1 + h1 * g0) * m1
              + h1 * g1 * m2).sum(axis=(1, 2))

    def adjoint(coef_a, coef_b) -> np.ndarray:
        free = ~sat
        ca, cb = coef_a[:, None, None], coef_b[:, None, None]
        dq = (ca * free * m1
              + cb * (g0 * m0 + g1 * m1 + free * (h0 * m0 + h1 * m1)))
        dp = (ca * free * m2
              + cb * (g0 * (m1 - m0) + g1 * (m2 - m1)
                      + free * (h0 * m1 + h1 * m2)))
        gw, gc, dq_cross, dp_cross = _boundary_grads(params, table, coef_a,
                                                     coef_b)
        dq = dq.sum(axis=2) + dq_cross
        dp = dp.sum(axis=2) + dp_cross
        on_p, on_q = _unit_sums(table, np.stack((dp, dq)))
        return np.concatenate((a * on_p + gw, a * on_q + gc,
                               w * on_p + c * on_q,
                               dq.sum(axis=1, keepdims=True)), axis=1)

    return a_stat, b_stat, adjoint


def _boundary_grads(params, table, coef_a, coef_b):
    """Leibniz terms of the expected statistics at the integrand's jumps.

    The integrand of A and B jumps at every ReLU kink s = -c_j/w_j (beta'
    jumps by a_j |w_j|) and where the indicator switches inside a linear
    piece of beta (the crossing beta = beta', a jump of v*G for A and of 0
    for B).  Moving a jump point s by ds changes the expectation by
    (f(s-) - f(s+)) * exp(-s) * ds, exact under the Exp(1) density.
    `table` is the `_pieces` of `params`.  Kink j ends the piece rank_j,
    so beta(s) = q + p s there, with beta' = p to its left and
    p + a_j |w_j| to its right.

    Returns (gw, gc, dq, dp): the kink terms in the units' own w and c,
    and the crossing terms per piece in its intercept q and slope p.
    """
    w, _, a, _ = params
    kink, valid, rank = table.kink, table.valid, table.rank
    starts, ends, p, q = table.starts, table.ends, table.p, table.q

    # jumps at the kinks: h = beta - beta' falls by a_j |w_j| across kink j
    left = np.take_along_axis(p, rank, axis=1)
    beta = np.take_along_axis(q, rank, axis=1) + left * kink
    h = beta - left
    right = h - a * np.abs(w)
    kept = np.subtract(h >= 0.0, right >= 0.0, dtype=float)
    jump = (coef_a[:, None] * kink * kept
            + coef_b[:, None] * (np.maximum(h, 0.0) - np.maximum(right, 0.0)))
    jump = np.where(valid, jump * np.clip(beta, 0.0, 1.0) * np.exp(-kink),
                    0.0)
    # s = -c_j/w_j: ds/dc_j = -1/w_j and ds/dw_j = s ds/dc_j
    with np.errstate(divide="ignore", invalid="ignore"):
        ds_dc = np.where(valid, -1.0 / w, 0.0)
    gc = jump * ds_dc

    # crossings of beta = beta' inside each linear piece beta = q + p v:
    # s = (p - q)/p moves by -dh/p, and G(beta(s)) = G(p) vanishes unless
    # p > 0, where h turns from negative to positive; dh/dq = 1 and
    # dh/dp = s - 1
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (p - q) / p
    crossing = (p > 0.0) & (s > starts) & (s < ends)
    s = np.where(crossing, s, 0.0)
    scale = (crossing * coef_a[:, None] * s * np.minimum(p, 1.0) * np.exp(-s)
             / np.where(crossing, p, 1.0))
    return gc * kink, gc, scale, scale * (s - 1.0)


def _revenue_cost(rows, y):
    """C_ik = 1 - (y_k A_i - B_i) of policy rows, and its adjoint.

    The adjoint maps a plan P to the gradient of <C, P> in the rows: the
    adjoint of `expected_stats` at coefficients -P y on A and P 1 on B.
    Rows (..., n, L) that stack starts give (..., n, K) matrices, and the
    adjoint takes plans of that shape: `expected_stats` works row by row,
    so one call prices the whole stack, each start bit for bit as a call
    on its own rows.
    """
    a_stat, b_stat, adjoint = expected_stats(rows.reshape(-1, rows.shape[-1]))
    a_stat, b_stat = (a_stat.reshape(rows.shape[:-1])[..., None],
                      b_stat.reshape(rows.shape[:-1])[..., None])
    matrix = 1.0 - (a_stat * y - b_stat)
    return matrix, lambda plan: adjoint(
        -(plan @ y).ravel(), plan.sum(axis=-1).ravel()).reshape(rows.shape)


_REVENUE_COST = CostOracle(matrix_and_adjoint=_revenue_cost)


# read only by bench/tracing.py, for the `cap` default of the step solve
_unroll_budget = solve_sinkhorn


def train_strategy_starts(model: AuctionModel, starts,
                          n_atoms: Optional[int] = None,
                          config: Optional[DescentConfig] = None,
                          width: int = WIDTH) -> list:
    """Jointly descend (atom weights, policy parameters) from B starts.

    `starts` is a sequence of (lam, seed) pairs.  Every start is the
    Sinkhorn descent of `prp.sinkhorn` with the policy rows as action
    atoms under the cost C_ik = 1 - (y_k A_i - B_i) of `_revenue_cost`,
    at its own lam, for `config.steps` steps (default `DescentConfig()`).
    Only the initial policies are random (drawn from the start's seed), so
    every run is deterministic.  The starts descend as one stack, one cost
    oracle call on all their policies per step.  Returns one (plan, trace)
    per start, bit for bit those of a stack of that start alone: the plan
    of the converged final solve (policies as action atoms) and the loss
    trace.
    """
    n = n_atoms if n_atoms is not None else atom_count(model.n_types)
    y = model.type_atoms
    starts = list(starts)
    # filled start by start, as `optim.box_starts` fills its atoms, so that
    # an empty stack reaches the shared-steps check of `_descend`
    rows = np.empty((len(starts), n, 3 * width + 1))
    for start, (_, seed) in zip(rows, starts):
        start[...] = _stack(ladder_policies(seeds.rng_for(seed, seeds.INIT),
                                            n, width))
    # the weight floor keeps every atom shipping a trickle of mass, so its
    # policy keeps receiving gradient; a policy that bids <= 0 for every
    # value has zero gradient and stays dead regardless
    rows, gammas, traces = _descend(
        rows, model.prior.weights, y, _REVENUE_COST,
        [lam for lam, _ in starts], [config or DescentConfig()] * len(starts),
        min(1e-4, 0.1 / n))
    results = []
    for start_rows, gamma, trace in zip(rows, gammas, traces):
        w, c, a, b = _unpack(start_rows)
        policies = [BidPolicy(w[i], c[i], a[i], float(b[i])) for i in range(n)]
        results.append((TransportPlan(gamma, policies, list(y), model.prior),
                        trace))
    return results


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
                 config: Optional[DescentConfig] = None, seed: int = 0,
                 n_atoms: Optional[int] = None,
                 width: int = WIDTH) -> SweepResult:
    """Train and evaluate per (lambda, run); aggregate the trade-off table.

    Every (lambda, run) pair is one start of a single
    `train_strategy_starts` stack with `config`, so each descent step
    prices all pairs' policies in one cost oracle call; each run is bit
    for bit a stack of that pair alone.  Run `run` at the `li`-th
    lambda trains from the seed derived from (`seed`, TRAIN_STEP, li,
    run), which only draws its initial policies.
    Training and evaluation (`evaluate_strategy`) are exact, so the per-row
    standard errors, sqrt(var / runs), come from the spread across runs
    alone.
    """
    lambdas = list(lambdas)
    starts = [(lam, seeds.seed_for(seed, seeds.TRAIN_STEP, li, run))
              for li, lam in enumerate(lambdas) for run in range(runs)]
    trained = iter(train_strategy_starts(model, starts, n_atoms=n_atoms,
                                         config=config, width=width)
                   if starts else [])
    rows = []
    details = []
    for lam in lambdas:
        utilities = []
        privacies = []
        for run in range(runs):
            plan, trace = next(trained)
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


def dominant_action_map(plan: TransportPlan) -> DominantActionMap:
    """Per type, the most used action atom and its bid curve (ties: lowest row)."""
    grid = np.linspace(0.0, 5.0, 101)   # base values 0, 0.05, ..., 5
    rows = np.argmax(plan.gamma, axis=0)
    curves = np.empty((plan.n_types, grid.size))
    for k, row in enumerate(rows):
        curves[k] = plan.action_atoms[row](grid)
    return DominantActionMap(rows, grid, curves)
