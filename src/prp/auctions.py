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

Two gradients of the statistics A and B are provided, and they answer
different questions:

* `revenue_grad` is the pathwise gradient of the Monte-Carlo average on one
  fixed sample set, with the indicator and the ReLU activation pattern held
  constant.  It is exact for those draws, but it is not an unbiased
  gradient of the expected revenue.
* `stats_grad`, which `train_strategy` uses, estimates the gradient of the
  expected A and B.  The integrand jumps where the indicator switches
  (A jumps by v*G(beta) there) and at the ReLU kinks -c_j/w_j (beta'
  jumps), and those jump points move with the parameters.  It therefore
  adds the exact Leibniz boundary terms under the Exp(1) density to the
  pathwise sample average.  Without them the estimate can have the wrong
  sign, and revenue ascent then lowers the revenue.

Training descends the entropic-OT loss of the induced (policy, type)
coupling.  Each step solves it once, warm started from the previous step,
and takes the envelope gradients of that solve: dL/dalpha in closed form
and dL/dC = P, which reaches the policies through the adjoint of the cost
matrix C_ik = 1 - (y_k A_i - B_i).

Evaluation needs no sampling.  A ReLU policy is piecewise linear, so the
expected A and B are sums of (degree <= 2 polynomial) * e^(-v) integrals
between its kinks and the points where beta crosses 0, 1 and beta'.
`expected_stats` computes them in closed form, and `evaluate_strategy`
prices a plan with them exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import seeds
from .divergences import kl_divergence, perspective_total
from .measures import DiscreteDistribution, TransportPlan
from .optim import DescentConfig, make_optimizer, optimizer_step, project_simplex
from .sinkhorn import SinkhornProblem, solve_sinkhorn, step_solve

_CHUNK = 50_000  # Monte-Carlo batch size; the value stream is chunk invariant


@dataclass(frozen=True)
class BidPolicy:
    """b + sum_j a_j relu(w_j v + c_j), with its exact a.e. derivative."""

    weights: np.ndarray      # (W,) hidden slopes
    biases: np.ndarray       # (W,)
    out_weights: np.ndarray  # (W,)
    out_bias: float

    def _activation(self, v) -> np.ndarray:
        act = np.multiply.outer(np.asarray(v, dtype=float), self.weights)
        act += self.biases
        return act

    def __call__(self, v) -> np.ndarray:
        act = np.maximum(self._activation(v), 0.0)
        return act @ self.out_weights + self.out_bias

    def derivative(self, v) -> np.ndarray:
        return self.bid_and_slope(v)[1]

    def bid_and_slope(self, v):
        """(beta(v), beta'(v)) from one evaluation of the activations."""
        act = self._activation(v)
        slope = ((act > 0.0) * self.weights) @ self.out_weights
        np.maximum(act, 0.0, out=act)
        return act @ self.out_weights + self.out_bias, slope


def random_policy(rng: np.random.Generator, width: int = 100,
                  scale: float = 0.5) -> BidPolicy:
    """Near-linear increasing start with an adjustable bid level.

    Slopes in [0.5, 1.5] and output weights of order scale/width give an
    initial bid curve with slope roughly 0.6 * scale; the small positive
    output bias keeps bids (and therefore the revenue gradient) alive at
    low values.
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


def sample_values(seed: int, n_samples: int) -> np.ndarray:
    """Unit-mean exponential draws via inverse cdf -log(1 - U)."""
    u = np.random.default_rng(seed).random(n_samples)
    return -np.log1p(-u)


def _stack(policies) -> list:
    """[weights, biases, out_weights, out_bias] stacked over policies."""
    return [np.array([p.weights for p in policies], dtype=float),
            np.array([p.biases for p in policies], dtype=float),
            np.array([p.out_weights for p in policies], dtype=float),
            np.array([p.out_bias for p in policies], dtype=float)]


def _forward(params, v):
    """Per-policy sample means of A = v*G*ind and B = (beta-beta')*G*ind.

    Returns (A, B, cache); the cache holds the per-sample quantities the
    pathwise backward pass needs.
    """
    w, c, a, b = params
    act = v[None, :, None] * w[:, None, :] + c[:, None, :]   # (n, S, W)
    active = act > 0.0
    hidden = np.where(active, act, 0.0)
    beta = np.einsum("isw,iw->is", hidden, a) + b[:, None]
    beta_prime = np.einsum("isw,iw->is", active, a * w)
    h = beta - beta_prime
    keep = h >= 0.0
    win = np.clip(beta, 0.0, 1.0)
    weight = win * keep
    a_stat = (weight * v[None, :]).mean(axis=1)
    b_stat = (h * weight).mean(axis=1)
    return a_stat, b_stat, (v, hidden, active, beta, h, keep, win)


def _pathwise_grads(params, cache, coef_a, coef_b) -> list:
    """Gradient of sum_i coef_a_i A_i + coef_b_i B_i on the fixed sample.

    The indicator 1{beta - beta' >= 0} and the ReLU activation pattern are
    constants of each sample; everything else is differentiated exactly.
    """
    w, c, a, b = params
    v, hidden, active, beta, h, keep, win = cache
    slope = keep * ((beta > 0.0) & (beta <= 1.0))   # d(G * ind)/d beta
    g_beta = (coef_a[:, None] * v[None, :] * slope
              + coef_b[:, None] * (win * keep + h * slope)) / v.size
    g_prime = -coef_b[:, None] * win * keep / v.size
    on_beta = np.einsum("is,isw->iw", g_beta, active)
    on_prime = np.einsum("is,isw->iw", g_prime, active)
    return [a * (np.einsum("is,isw->iw", g_beta * v[None, :], active)
                 + on_prime),
            a * on_beta,
            np.einsum("is,isw->iw", g_beta, hidden) + w * on_prime,
            g_beta.sum(axis=1)]


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


def _tail(x, m: int):
    """T_m(x), the integral of v^m e^(-v) over [x, inf); 0 at x = inf."""
    scale = np.exp(-x)
    poly = (1.0, x + 1.0, x * x + 2.0 * x + 2.0)[m]
    return np.where(scale > 0.0, scale * poly, 0.0)


def expected_stats(params):
    """Exact E[A] = E[v G(beta) 1{h >= 0}] and E[B] = E[h G(beta) 1{h >= 0}].

    Per policy of the stacked `params`, under v ~ Exp(1), with h = beta -
    beta'.  On a linear piece beta = q + p v, the cuts where beta = 0,
    beta = 1 and h = 0 split it into sub-intervals on which G(beta) is 0,
    beta or 1 and the indicator is constant.  There both integrands are
    polynomials of degree <= 2 in v, and the integral of v^m e^(-v) over
    [u, t] is T_m(u) - T_m(t) with T_m(x) = e^(-x) (x^m + ... + m!).
    Vectorized over (policy, piece, sub-interval).  Returns (A, B).
    """
    w, c, _, _ = params
    starts, ends, _, p, q = _pieces(params, _kinks(w, c)[0])
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
        # G = g0 + g1 v and h = h0 + h1 v on every kept sub-interval
        sat = beta >= 1.0
        g0, g1 = np.where(sat, 1.0, q), np.where(sat, 0.0, p)
        h0, h1 = q - p, p
        moments = [np.where(keep, _tail(u, m) - _tail(t, m), 0.0)
                   for m in range(3)]
    a_stat = (g0 * moments[1] + g1 * moments[2]).sum(axis=(1, 2))
    b_stat = (h0 * g0 * moments[0] + (h0 * g1 + h1 * g0) * moments[1]
              + h1 * g1 * moments[2]).sum(axis=(1, 2))
    return a_stat, b_stat


def _boundary_grads(params, coef_a, coef_b) -> list:
    """Leibniz terms of the expected statistics that the pathwise pass drops.

    The integrand of A and B jumps where the indicator switches inside a
    linear piece of beta (the crossing beta = beta', a jump of v*G for A
    and of 0 for B) and at every ReLU kink v = -c_j/w_j (beta' jumps by
    a_j*w_j).  Moving a jump point s by ds changes the expectation by
    (f(s-) - f(s+)) * exp(-s) * ds; these terms are exact under the Exp(1)
    density, vectorized over policies, pieces and hidden units.
    """
    w, c, a, b = params
    n, width = w.shape
    kink, valid = _kinks(w, c)

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
    starts, ends, mask, p, q = _pieces(params, kink)
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


def revenue(policy: BidPolicy, y: float, n_samples: int, seed: int) -> float:
    """Monte-Carlo expected revenue of `policy` at type `y`."""
    if n_samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    params = _stack([policy])
    a_sum = 0.0
    b_sum = 0.0
    remaining = n_samples
    while remaining > 0:
        take = min(_CHUNK, remaining)
        v = -np.log1p(-rng.random(take))
        a_mean, b_mean, _ = _forward(params, v)
        a_sum += a_mean[0] * take
        b_sum += b_mean[0] * take
        remaining -= take
    return float((y * a_sum - b_sum) / n_samples)


def _as_fields(grads) -> dict:
    """Single-policy stacked gradients keyed by BidPolicy field name."""
    gw, gc, ga, gb = grads
    return {"weights": gw[0], "biases": gc[0], "out_weights": ga[0],
            "out_bias": float(gb[0])}


def revenue_grad(policy: BidPolicy, y: float, n_samples: int, seed: int):
    """Exact gradient of the Monte-Carlo revenue on one fixed sample set.

    Returns (value, grads) where grads maps the policy field names to
    arrays.  The revenue indicator and the ReLU activation pattern are
    constants of the sample; everything else is differentiated exactly.
    This is the derivative of the sample average for these draws only: it
    omits the jumps of the indicator, so it is not an unbiased gradient of
    the expected revenue (see `stats_grad` for that).
    """
    v = sample_values(seed, n_samples)
    params = _stack([policy])
    a_stat, b_stat, cache = _forward(params, v)
    grads = _pathwise_grads(params, cache, np.array([float(y)]),
                            np.array([-1.0]))
    return float(y * a_stat[0] - b_stat[0]), _as_fields(grads)


def _stats_grads(params, cache, coef_a, coef_b) -> list:
    """Unbiased gradient of E[sum_i coef_a_i A_i + coef_b_i B_i]."""
    pathwise = _pathwise_grads(params, cache, coef_a, coef_b)
    boundary = _boundary_grads(params, coef_a, coef_b)
    return [p + q for p, q in zip(pathwise, boundary)]


def stats_grad(policy: BidPolicy, v):
    """Sample statistics (A, B) and the training gradients of E[A], E[B].

    Each gradient is the pathwise average over the draws `v` plus the exact
    boundary terms of the indicator and ReLU jumps, i.e. an unbiased
    estimate of the gradient of the expected statistic.  Returns
    (A, B, grads_A, grads_B) with grads keyed by policy field name.
    """
    v = np.asarray(v, dtype=float)
    params = _stack([policy])
    a_stat, b_stat, cache = _forward(params, v)
    one, zero = np.ones(1), np.zeros(1)
    return (float(a_stat[0]), float(b_stat[0]),
            _as_fields(_stats_grads(params, cache, one, zero)),
            _as_fields(_stats_grads(params, cache, zero, one)))


AUCTION_TRAINING = DescentConfig(lr_weights=0.02, lr_atoms=3e-4)


# read only by bench/tracing.py, for the `cap` default of the step solve
_unroll_budget = step_solve


def train_strategy(model: AuctionModel, lam: float,
                   n_atoms: Optional[int] = None,
                   steps: int = 1000, train_samples: int = 1000,
                   config: Optional[DescentConfig] = None, seed: int = 0,
                   width: int = 100):
    """Jointly descend (atom weights, policy parameters) on the coupling loss.

    Per step, a fresh seeded sample set prices every policy against every
    type through the cost C_ik = 1 - (y_k A_i - B_i), and the entropic-OT
    loss L of the induced coupling is solved once, warm started from the
    previous step.  Its envelope gradients are dL/dalpha and dL/dC = P (see
    `prp.sinkhorn`).  The policy gradient contracts P_ik with the gradients
    of the expected statistics, -y_k dA_i + dB_i, each the
    pathwise sample average plus the exact indicator and kink boundary terms
    (see `stats_grad`).  Returns the plan recovered from a converged final
    solve (policies as action atoms) and the loss trace.
    """
    config = config or AUCTION_TRAINING
    n = n_atoms if n_atoms is not None else model.n_types + 2
    y = model.type_atoms
    prior_weights = model.prior.weights
    init_rng = seeds.rng_for(seed, seeds.INIT)
    params = _stack(ladder_policies(init_rng, n, width))
    alpha = np.full(n, 1.0 / n)
    opt_alpha = make_optimizer(config.method, config.lr_weights, [alpha])
    opt_params = make_optimizer(config.method, config.lr_atoms, params)
    trace = np.empty(steps)
    log_v = None
    for step in range(steps):
        v = sample_values(seeds.seed_for(seed, seeds.TRAIN_STEP, step),
                          train_samples)
        a_stat, b_stat, cache = _forward(params, v)
        cost = 1.0 - (a_stat[:, None] * y[None, :] - b_stat[:, None])
        result = step_solve(alpha, cost, prior_weights, lam, log_v)
        log_v = result.log_v
        trace[step] = result.loss
        grads = _stats_grads(params, cache, -(result.plan @ y),
                             result.plan.sum(axis=1))
        (alpha,) = optimizer_step(opt_alpha, [alpha], [result.grad_alpha])
        # the floor keeps every atom shipping a trickle of mass, so its
        # policy keeps receiving gradient; a policy that bids <= 0 for every
        # value has zero gradient and stays dead regardless
        alpha = project_simplex(alpha, floor=min(1e-4, 0.1 / n))
        params = optimizer_step(opt_params, params, grads)
    policies = [BidPolicy(params[0][i], params[1][i], params[2][i],
                          float(params[3][i])) for i in range(n)]
    final_seed = seeds.seed_for(seed, seeds.FINAL_PLAN)
    a_stat, b_stat, _ = _forward(params, sample_values(final_seed,
                                                       train_samples))
    cost = 1.0 - (a_stat[:, None] * y[None, :] - b_stat[:, None])
    problem = SinkhornProblem(alpha, prior_weights, cost, lam,
                              max_iter=2000, tol=1e-9)
    result = solve_sinkhorn(problem, log_v)
    plan = TransportPlan(result.plan, policies, list(y), model.prior)
    return plan, trace


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
    a_stat, b_stat = expected_stats(_stack(plan.action_atoms))
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
                 steps: int = 1000, train_samples: int = 1000,
                 config: Optional[DescentConfig] = None, seed: int = 0,
                 n_atoms: Optional[int] = None,
                 width: int = 100) -> SweepResult:
    """Train and evaluate per (lambda, run); aggregate the trade-off table.

    Each run is evaluated exactly (`evaluate_strategy`), so the per-row
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
                                         steps=steps,
                                         train_samples=train_samples,
                                         config=config, seed=train_seed,
                                         width=width)
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
