"""Independent reference computations the tests compare the library against.

Everything here is deliberately written against the definitions, not the
library code paths: plan objectives are evaluated with explicit formulas,
minima come from exhaustive (multi-scale) grid enumeration, and projections
from brute-force search.
"""

from __future__ import annotations

import itertools
import sys

import numpy as np

from prp.measures import CostOracle


# ---------------------------------------------------------------------------
# plan-objective evaluation (vectorized over a batch of candidate plans)

def objective_batch(gammas: np.ndarray, cost: np.ndarray, prior: np.ndarray,
                    div_name: str, lam: float) -> np.ndarray:
    """Expected cost + lam * privacy for a (B, n, K) batch of plans."""
    gammas = np.asarray(gammas, dtype=float)
    cost_term = (gammas * cost[None, :, :]).sum(axis=(1, 2))
    masses = gammas.sum(axis=2)
    ref = masses[:, :, None] * prior[None, None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        if div_name == "kl":
            terms = np.where(gammas > 0.0,
                             gammas * (np.log(gammas) - np.log(ref)), 0.0)
        elif div_name == "tv":
            terms = 0.5 * np.abs(gammas - ref)
        else:
            raise ValueError(div_name)
    return cost_term + lam * np.nan_to_num(terms, nan=0.0).sum(axis=(1, 2))


def objective_single(gamma, cost, prior, div_name, lam) -> float:
    return float(objective_batch(np.asarray(gamma)[None], np.asarray(cost),
                                 np.asarray(prior), div_name, lam)[0])


# ---------------------------------------------------------------------------
# exhaustive multi-scale grid minimization of the plan objective

def _compositions(total: int, parts: int) -> np.ndarray:
    """All integer vectors >= 0 of length `parts` summing to `total`."""
    if parts == 1:
        return np.array([[total]])
    rows = []
    for first in range(total + 1):
        rest = _compositions(total - first, parts - 1)
        rows.append(np.column_stack([np.full(len(rest), first), rest]))
    return np.concatenate(rows)


def _zero_sum_offsets(parts: int, width: int) -> np.ndarray:
    """Integer vectors in [-width, width]^parts summing to zero."""
    rng = range(-width, width + 1)
    rows = [np.array(v) for v in itertools.product(rng, repeat=parts)
            if sum(v) == 0]
    return np.stack(rows)


def _best_over_product(column_candidates, cost, prior, div_name, lam,
                       batch=131072):
    """Scan the cartesian product of per-column candidate weight sets."""
    counts = [len(c) for c in column_candidates]
    n = column_candidates[0].shape[1]
    k = len(column_candidates)
    best_value = np.inf
    best_cols = None
    total = int(np.prod(counts))
    for start in range(0, total, batch):
        idx = np.arange(start, min(start + batch, total))
        gammas = np.empty((idx.size, n, k))
        rest = idx
        for col in range(k - 1, -1, -1):
            sel = rest % counts[col]
            rest = rest // counts[col]
            gammas[:, :, col] = column_candidates[col][sel]
        values = objective_batch(gammas, cost, prior, div_name, lam)
        j = int(np.argmin(values))
        if values[j] < best_value:
            best_value = float(values[j])
            best_cols = gammas[j]
    return best_value, best_cols


def grid_minimize_objective(cost, prior, div_name, lam, base_resolution=6,
                            rounds=10) -> float:
    """Multi-scale exhaustive grid search over feasible plans.

    Round zero enumerates every plan whose columns are simplex grid points
    at the base resolution; each refinement doubles the resolution and
    exhaustively enumerates all integer perturbations within two grid steps
    of the incumbent, per column.  The best value ever seen is returned.
    """
    cost = np.asarray(cost, dtype=float)
    prior = np.asarray(prior, dtype=float)
    n, k = cost.shape
    res = base_resolution
    comps = _compositions(res, n)
    candidates = [comps / res * prior[col] for col in range(k)]
    best_value, best = _best_over_product(candidates, cost, prior, div_name, lam)
    counts = np.rint(best / prior[None, :] * res).astype(int)
    offsets = _zero_sum_offsets(n, 2)
    for _ in range(rounds):
        res *= 2
        counts = counts * 2
        candidates = []
        for col in range(k):
            pts = counts[:, col][None, :] + offsets
            pts = pts[(pts >= 0).all(axis=1)]
            pts = pts[pts.sum(axis=1) == res]
            candidates.append(pts / res * prior[col])
        value, best = _best_over_product(candidates, cost, prior, div_name, lam)
        if value < best_value:
            best_value = value
        counts = np.rint(best / prior[None, :] * res).astype(int)
    return best_value


# ---------------------------------------------------------------------------
# entropic-transport value by grid search over couplings with both marginals

def coupling_loss(plan, alpha, beta, cost, lam) -> float:
    """Transport cost plus lam * KL(plan || alpha x beta), with 0 log 0 := 0."""
    mask = plan > 0.0
    ref = np.outer(alpha, beta)
    logs = np.log(np.where(mask, plan, 1.0)) - np.log(np.where(mask, ref, 1.0))
    return float((cost * plan).sum() + lam * (plan * logs)[mask].sum())


def _complete_coupling(blocks, alpha, beta):
    """Fill the last row/column of couplings from an interior block batch."""
    b, n1, m1 = blocks.shape
    n, m = n1 + 1, m1 + 1
    full = np.empty((b, n, m))
    full[:, :n1, :m1] = blocks
    full[:, :n1, m1] = alpha[:n1][None, :] - blocks.sum(axis=2)
    full[:, n1, :m1] = beta[:m1][None, :] - blocks.sum(axis=1)
    full[:, n1, m1] = alpha[n1] - full[:, n1, :m1].sum(axis=1)
    return full


def grid_minimize_coupling(alpha, beta, cost, lam, base_resolution=10,
                           rounds=9) -> float:
    """Exhaustive multi-scale search over couplings with both marginals fixed."""
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    cost = np.asarray(cost, dtype=float)
    n, m = cost.shape
    if n == 1 or m == 1:
        # the coupling is forced by the marginals
        plan = beta[None, :] if n == 1 else alpha[:, None]
        return coupling_loss(plan, alpha, beta, cost, lam)
    q = (n - 1) * (m - 1)
    scale = float(min(alpha.max(), beta.max()))

    def evaluate(points):
        blocks = points.reshape(-1, n - 1, m - 1)
        full = _complete_coupling(blocks, alpha, beta)
        feasible = (full >= -1e-12).all(axis=(1, 2))
        if not feasible.any():
            return np.inf, None
        full = np.maximum(full[feasible], 0.0)
        values = np.array([coupling_loss(f, alpha, beta, cost, lam)
                           for f in full])
        j = int(np.argmin(values))
        return float(values[j]), full[j, :n - 1, :m - 1].ravel()

    res = base_resolution
    axes = [np.arange(res + 1) for _ in range(q)]
    grid = np.array(list(itertools.product(*axes))) / res * scale
    best_value, best = evaluate(grid)
    offsets = np.array(list(itertools.product(range(-2, 3), repeat=q)))
    counts = np.rint(best / scale * res).astype(int)
    for _ in range(rounds):
        res *= 2
        counts = counts * 2
        pts = counts[None, :] + offsets
        pts = pts[(pts >= 0).all(axis=1) & (pts <= res).all(axis=1)]
        value, arg = evaluate(pts / res * scale)
        if value < best_value:
            best_value, best = value, arg
        counts = np.rint(best / scale * res).astype(int)
    return best_value


# ---------------------------------------------------------------------------
# entropic transport by plain diagonal scaling

def sinkhorn_scaling(alpha, beta, cost, lam, tol=1e-13, max_iter=1_000_000):
    """Textbook diagonal scaling u <- alpha/(K v), v <- beta/(K' u).

    Plain domain, K = exp(-cost/lam); iterates until the row error of the
    column-exact plan is below `tol`.  Returns the plan and the envelope
    gradient lam * (f - <f, alpha> - 1) with f = -log(K v), the action-side
    dual potential in units of lam.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    kernel = np.exp(-np.asarray(cost, dtype=float) / lam)
    v = np.ones(beta.size)
    for _ in range(max_iter):
        u = alpha / (kernel @ v)
        v = beta / (kernel.T @ u)
        if np.abs(u * (kernel @ v) - alpha).max() < tol:
            break
    else:
        raise RuntimeError("scaling iteration did not converge")
    f = -np.log(kernel @ v)
    return u[:, None] * kernel * v[None, :], lam * (f - f @ alpha - 1.0)


# ---------------------------------------------------------------------------
# the finish of a Sinkhorn solve, by logsumexp passes from its row potential

def sinkhorn_finish(log_u, alpha, beta, cost, lam):
    """Plan, loss and envelope gradient in alpha from the row potential.

    The last two of the three logsumexp passes a scaling solve ends with:
    the column update psi = log beta - lse_i(log K + phi), the plan
    exp(phi + psi + log K), its loss by `coupling_loss`, and the gradient
    lam * (f - <f, alpha> - 1) with f = -lse_j(log K + psi).
    """
    from scipy.special import logsumexp

    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    log_kernel = -np.asarray(cost, dtype=float) / lam
    with np.errstate(divide="ignore"):
        psi = np.log(beta) - logsumexp(log_kernel + log_u[:, None], axis=0)
    plan = np.exp(log_u[:, None] + psi + log_kernel)
    f = -logsumexp(log_kernel + psi, axis=1)
    return (plan, coupling_loss(plan, alpha, beta, cost, lam),
            lam * (f - f @ alpha - 1.0))


# ---------------------------------------------------------------------------
# column projection by rank search

def project_columns_rank_search(matrix, totals) -> np.ndarray:
    """Columnwise simplex projection that finds the rank of the threshold.

    rho is the last rank j with u_j > (S_j - total) / j over the decreasing
    sort u and its partial sums S, and theta = (S_rho - total) / rho.
    """
    m = np.asarray(matrix, dtype=float)
    totals = np.asarray(totals, dtype=float)
    n, cols = m.shape
    u = -np.sort(-m, axis=0)
    cumulative = np.cumsum(u, axis=0) - totals[None, :]
    ranks = np.arange(1, n + 1)[:, None]
    cond = u - cumulative / ranks > 0.0
    rho = n - 1 - np.argmax(cond[::-1, :], axis=0)
    theta = cumulative[rho, np.arange(cols)] / (rho + 1.0)
    w = np.maximum(m - theta[None, :], 0.0)
    s = w.sum(axis=0)
    safe = s > 0.0
    scale = np.where(safe, totals / np.where(safe, s, 1.0), 0.0)
    w = w * scale[None, :]
    if not safe.all():
        w[:, ~safe] = totals[~safe] / n
    return w


def project_column_exact(v, total) -> np.ndarray:
    """Simplex projection of one column in rational arithmetic, then rounded."""
    from fractions import Fraction

    v = [Fraction(x) for x in v]
    partial, theta = Fraction(0), None
    for j, x in enumerate(sorted(v, reverse=True), start=1):
        partial += x
        c = (partial - Fraction(total)) / j
        theta = c if theta is None else max(theta, c)
    return np.array([float(max(x - theta, 0)) for x in v])


# ---------------------------------------------------------------------------
# the paper's reduced difference-of-convex program for c(x, y) = x . y on a box

def dc_phi(type_atoms, lower, upper) -> np.ndarray:
    """Box-scaled types phi(y)^l = (b_l - a_l) y^l / 2."""
    return np.asarray(type_atoms, dtype=float) * (
        (np.asarray(upper, dtype=float) - np.asarray(lower, dtype=float))
        / 2.0)


def dc_constant(type_atoms, prior, lower, upper) -> float:
    """The affine cost part <p0, eta> the reduction drops, eta(y) = y . mid."""
    mid = (np.asarray(lower, dtype=float) + np.asarray(upper, dtype=float)) / 2.0
    return float(np.dot(prior, np.asarray(type_atoms, dtype=float) @ mid))


def dc_objective(gamma, phi, prior, divergence, lam) -> float:
    """lam * privacy - sum of the row 1-norms of gamma @ phi."""
    from prp.divergences import perspective_total

    gamma = np.asarray(gamma, dtype=float)
    privacy = perspective_total(divergence, gamma, prior)
    return lam * privacy - float(np.abs(gamma @ phi).sum())


def dc_subgradient(gamma, phi) -> np.ndarray:
    """Subgradient of sum_i ||gamma_i @ phi||_1, with sign(0) := 0."""
    return np.sign(np.asarray(gamma, dtype=float) @ phi) @ phi.T


def dc_iteration(type_atoms, prior, lower, upper, divergence, lam,
                 max_outer=200, outer_tol=1e-9):
    """DCA on the reduced program: linearize, then solve on -s.

    Starts from half the diagonal plan plus half the product coupling on
    K + 2 rows and stops once an outer step gains below `outer_tol`.
    Returns the plan matrix, the actions mid - sign(gamma @ phi) * half and
    the trace of reduced objectives plus the dropped constant.
    """
    from prp.convexsolve import minimize_linear_plus_privacy

    type_atoms = np.atleast_2d(np.asarray(type_atoms, dtype=float))
    prior = np.asarray(prior, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    phi = dc_phi(type_atoms, lower, upper)
    k = prior.size
    n = k + 2
    gamma = 0.5 * (np.eye(n, k) * prior + np.tile(prior / n, (n, 1)))
    trace = [dc_objective(gamma, phi, prior, divergence, lam)]
    for _ in range(max_outer):
        s = dc_subgradient(gamma, phi)
        gamma = minimize_linear_plus_privacy(-s, prior, divergence, lam,
                                             init=gamma).x
        trace.append(dc_objective(gamma, phi, prior, divergence, lam))
        if trace[-2] - trace[-1] < outer_tol:
            break
    mid = (lower + upper) / 2.0
    half = (upper - lower) / 2.0
    actions = mid[None, :] + (-np.sign(gamma @ phi)) * half[None, :]
    constant = dc_constant(type_atoms, prior, lower, upper)
    return gamma, actions, np.asarray(trace) + constant


# ---------------------------------------------------------------------------
# the column-wise entropic descent one trial step at a time

def columns_pgd_scalar(objective, gradient, init, column_totals,
                       max_steps=5000, lr0=1.0):
    """`optim.minimize_columns_pgd` with a scalar objective and a halving loop.

    Tries lr, lr/2, ... one objective call at a time and takes the first
    step whose value is at most the descent bound, and stops on the same
    rule: the rounding floor, a 25-step window of at most 1e-8 relative
    decrease, or max_steps.  Returns (x, value, steps, converged).
    """
    totals = np.asarray(column_totals, dtype=float)
    x = np.asarray(init, dtype=float)
    x = x * (totals / x.sum(axis=0))
    f = objective(x)
    lr = lr0
    window_anchor = f
    for step in range(1, max_steps + 1):
        g = np.where(x > 0.0, gradient(x), 0.0)
        with np.errstate(divide="ignore"):
            log_x = np.log(x)
        lr = min(max(lr * 2.0, lr0),
                 0.5 * sys.float_info.max / max(1.0, float(np.abs(g).max())))
        accepted = False
        while lr >= 1e-14:
            with np.errstate(over="ignore"):
                z = log_x - lr * g
                cand = np.exp(z - z.max(axis=0))
            cand *= totals / cand.sum(axis=0)
            with np.errstate(divide="ignore", invalid="ignore"):
                kl = np.where(cand > 0.0, cand * (np.log(cand) - log_x), 0.0)
            bound = f + float((g * (cand - x)).sum()) + float(kl.sum()) / lr
            if bound >= f:
                break
            fc = objective(cand)
            if fc <= bound:
                accepted = True
                break
            lr *= 0.5
        if not accepted:
            return x, f, step, True
        x, f = cand, fc
        if step % 25 == 0:
            if window_anchor - f <= 1e-8 * max(1.0, abs(f)):
                return x, f, step, True
            window_anchor = f
    return x, f, max_steps, False


def kl_plan_solve_pgd(linear, prior, lam, init=None, max_steps=5000):
    """The KL plan solve as entropic descent on the full plan, lr0 = 1/lam.

    Returns (plan, value, steps, converged) of `columns_pgd_scalar` on
    <L, gamma> + lam * I(gamma), from the uniform mixture by default.
    """
    from prp.divergences import (kl_divergence, perspective_total,
                                 perspective_total_grad)

    linear = np.asarray(linear, dtype=float)
    prior = np.asarray(prior, dtype=float)
    kl = kl_divergence()
    if init is None:
        init = np.tile(prior / linear.shape[0], (linear.shape[0], 1))

    def objective(g):
        return float((linear * g).sum()) + lam * perspective_total(kl, g,
                                                                   prior)

    def gradient(g):
        return linear + lam * perspective_total_grad(kl, g, prior)

    return columns_pgd_scalar(objective, gradient, init, prior,
                              max_steps=max_steps, lr0=1.0 / lam)


# ---------------------------------------------------------------------------
# misc small oracles

def matrix_cost(c) -> CostOracle:
    """Cost oracle of a fixed matrix: action atom i and type atom k price C[i, k].

    The atoms are indices, as scalars or as 1-vectors.  Index atoms do not
    move, so the adjoint map raises.
    """
    c = np.asarray(c, dtype=float)

    def matrix_and_adjoint(atoms, type_atoms):
        rows = atoms.astype(int).reshape(-1)
        cols = type_atoms.astype(int).reshape(-1)

        def adjoint(plan):
            raise TypeError("index atoms have no gradient")

        return c[np.ix_(rows, cols)], adjoint

    return CostOracle(matrix_and_adjoint=matrix_and_adjoint)


def lattice_problem(points, seed=0):
    """Cost matrix and prior of the CLI grid solve (d=2, K=5) of ``seed``."""
    from prp import seeds, toy

    instance = toy.sample_instance(2, 5, seeds.rng_for(seed, seeds.INSTANCE))
    axis = np.linspace(-1.0, 1.0, points)
    atoms = np.array(list(itertools.product(axis, repeat=2)))
    return atoms @ instance.type_atoms.T, instance.prior_weights


def simplex_projection_grid(v, resolution=200) -> np.ndarray:
    """Brute-force nearest simplex grid point (3-dimensional inputs)."""
    v = np.asarray(v, dtype=float)
    best, best_dist = None, np.inf
    for c in _compositions(resolution, v.size):
        w = c / resolution
        dist = float(((w - v) ** 2).sum())
        if dist < best_dist:
            best, best_dist = w, dist
    return best


def central(f, point, direction, h=1e-6) -> float:
    """Central difference of f at `point` along `direction`."""
    return (f(point + h * direction) - f(point - h * direction)) / (2 * h)


def box_vertices(lower, upper) -> np.ndarray:
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    corners = itertools.product(*[(lo, hi) for lo, hi in zip(lower, upper)])
    return np.array(list(corners))


def adam_step_reference(param, grad, m, v, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Textbook update, reimplemented for comparison with the library."""
    m = b1 * m + (1 - b1) * grad
    v = b2 * v + (1 - b2) * grad ** 2
    m_hat = m / (1 - b1 ** t)
    v_hat = v / (1 - b2 ** t)
    return param - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


# ---------------------------------------------------------------------------
# expected bid-shading statistics by piecewise quadrature

def expected_bid_stats(weights, biases, out_weights, out_bias,
                       horizon=45.0, grid_points=90001):
    """E[v G(beta) 1{h >= 0}] and E[h G(beta) 1{h >= 0}] for v ~ Exp(1).

    beta(v) = out_bias + sum_j out_weights_j relu(weights_j v + biases_j),
    beta' its a.e. derivative, h = beta - beta' and G = clip(., 0, 1).  The
    integrand is smooth between the points where some unit activation, h,
    beta or beta - 1 changes sign; those are located by a dense scan plus
    bisection, and each smooth piece is integrated by adaptive quadrature.
    The mass beyond `horizon` is below 1e-18.
    """
    from scipy import integrate, optimize

    w = np.asarray(weights, dtype=float)
    c = np.asarray(biases, dtype=float)
    a = np.asarray(out_weights, dtype=float)

    def parts(v):
        v = np.atleast_1d(np.asarray(v, dtype=float))
        act = v[:, None] * w[None, :] + c[None, :]
        beta = np.maximum(act, 0.0) @ a + out_bias
        beta_prime = (act > 0.0) @ (a * w)
        return act, beta, beta - beta_prime

    def switches(v):
        act, beta, h = parts(v)
        return np.column_stack([act, h, beta, beta - 1.0])

    grid = np.linspace(0.0, horizon, grid_points)
    values = switches(grid)
    negative = values < 0.0
    points = [0.0, horizon]
    for col in range(values.shape[1]):
        for i in np.nonzero(negative[:-1, col] != negative[1:, col])[0]:
            if values[i, col] == 0.0 or values[i + 1, col] == 0.0:
                points.extend([grid[i], grid[i + 1]])
                continue
            points.append(optimize.brentq(
                lambda x: float(switches(x)[0, col]), grid[i], grid[i + 1],
                xtol=1e-15))
    points = np.unique(points)

    def integrand(x, which):
        _, beta, h = parts(x)
        weight = float(np.clip(beta[0], 0.0, 1.0) * (h[0] >= 0.0))
        return (x if which == 0 else float(h[0])) * weight * np.exp(-x)

    totals = [0.0, 0.0]
    for lo, hi in zip(points[:-1], points[1:]):
        if hi - lo < 1e-14:
            continue
        for which in (0, 1):
            totals[which] += integrate.quad(integrand, lo, hi, args=(which,),
                                            epsabs=1e-14, epsrel=1e-12,
                                            limit=200)[0]
    return totals[0], totals[1]


# ---------------------------------------------------------------------------
# expected bid-shading statistics from the activation mask of every piece

def mask_piece_table(rows):
    """Kinks and linear pieces of `_stack` rows, unit activity by evaluation.

    Every unit's activity is evaluated on every piece between the sorted
    kinks -c_j/w_j in (0, inf) (placeholder 0 for a unit without one), at
    the piece's midpoint (its start + 1 for the last piece), and contracted
    with a_j w_j and a_j c_j.  Returns (kink, valid, starts, ends, mask, p,
    q) with the (n, W + 1, W) activation mask; beta = q + p v on piece
    [starts, ends).  Quadratic in the width, so only a reference.
    """
    rows = np.asarray(rows, dtype=float)
    n, width = rows.shape[0], (rows.shape[1] - 1) // 3
    w, c, a = (rows[:, i * width:(i + 1) * width] for i in range(3))
    b = rows[:, -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        kink = -c / w
    valid = (w != 0.0) & (kink > 0.0) & np.isfinite(kink)
    kink = np.where(valid, kink, 0.0)
    knots = np.sort(kink, axis=1)
    starts = np.concatenate([np.zeros((n, 1)), knots], axis=1)
    ends = np.concatenate([knots, np.full((n, 1), np.inf)], axis=1)
    mid = np.where(np.isfinite(ends), 0.5 * (starts + ends), starts + 1.0)
    mask = (mid[:, :, None] * w[:, None, :] + c[:, None, :]) > 0.0
    p = np.einsum("ipl,il->ip", mask, a * w)
    q = np.einsum("ipl,il->ip", mask, a * c) + b[:, None]
    return kink, valid, starts, ends, mask, p, q


def _tails_m(x):
    """T_m(x) = integral of v^m e^(-v) over [x, inf), m = 0, 1, 2."""
    scale = np.exp(-x)
    live = scale > 0.0
    return [np.where(live, scale * poly, 0.0)
            for poly in (1.0, x + 1.0, x * x + 2.0 * x + 2.0)]


def mask_expected_stats(rows):
    """(A, B, adjoint) of `_stack` rows from the activation mask.

    Every piece of `mask_piece_table` is cut where beta = 0, beta = 1 and
    beta - beta' = 0, the five edges are sorted, and each of the four
    sub-intervals is kept by the sign test at its midpoint.  The adjoint
    takes each piece's derivatives in q and p to the units through the
    mask, and adds the Leibniz terms at the kinks (ranked by a double
    argsort) and at the crossings beta = beta'.
    """
    rows = np.asarray(rows, dtype=float)
    width = (rows.shape[1] - 1) // 3
    w, c, a = (rows[:, i * width:(i + 1) * width] for i in range(3))
    kink, valid, starts, ends, mask, p2, q2 = mask_piece_table(rows)
    lo, hi = starts[..., None], ends[..., None]
    p, q = p2[..., None], q2[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        cuts = np.concatenate([-q, 1.0 - q, p - q], axis=-1) / p
    cuts = np.minimum(np.fmax(cuts, lo), hi)
    edges = np.sort(np.concatenate([lo, cuts, hi], axis=-1), axis=-1)
    u, t = edges[..., :-1], edges[..., 1:]
    with np.errstate(invalid="ignore", over="ignore"):
        mid = np.where(np.isfinite(t), 0.5 * (u + t), u + 1.0)
        beta = q + p * mid
        keep = (t > u) & (beta > 0.0) & (beta - p >= 0.0)
        m0, m1, m2 = [np.where(keep, tail[..., :-1] - tail[..., 1:], 0.0)
                      for tail in _tails_m(edges)]
    sat = beta >= 1.0
    g0, g1 = np.where(sat, 1.0, q), np.where(sat, 0.0, p)
    h0, h1 = q - p, p
    a_stat = (g0 * m1 + g1 * m2).sum(axis=(1, 2))
    b_stat = (h0 * g0 * m0 + (h0 * g1 + h1 * g0) * m1
              + h1 * g1 * m2).sum(axis=(1, 2))

    def adjoint(coef_a, coef_b):
        free = ~sat
        ca, cb = coef_a[:, None, None], coef_b[:, None, None]
        dq = (ca * free * m1
              + cb * (g0 * m0 + g1 * m1 + free * (h0 * m0 + h1 * m1)))
        dp = (ca * free * m2
              + cb * (g0 * (m1 - m0) + g1 * (m2 - m1)
                      + free * (h0 * m1 + h1 * m2)))
        # kinks: h falls by a_j |w_j| across kink j, which ends piece rank_j
        rank = np.argsort(np.argsort(kink, axis=1, kind="stable"), axis=1,
                          kind="stable")
        left = np.take_along_axis(p2, rank, axis=1)
        beta_k = np.take_along_axis(q2, rank, axis=1) + left * kink
        h = beta_k - left
        right = h - a * np.abs(w)
        kept = np.subtract(h >= 0.0, right >= 0.0, dtype=float)
        jump = (coef_a[:, None] * kink * kept
                + coef_b[:, None] * (np.maximum(h, 0.0)
                                     - np.maximum(right, 0.0)))
        jump = np.where(valid, jump * np.clip(beta_k, 0.0, 1.0)
                        * np.exp(-kink), 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            gc = jump * np.where(valid, -1.0 / w, 0.0)
            s = (p2 - q2) / p2
        # crossings of beta = beta' inside a piece with p > 0
        crossing = (p2 > 0.0) & (s > starts) & (s < ends)
        s = np.where(crossing, s, 0.0)
        scale = (crossing * coef_a[:, None] * s * np.minimum(p2, 1.0)
                 * np.exp(-s) / np.where(crossing, p2, 1.0))
        dq = dq.sum(axis=2) + scale
        dp = dp.sum(axis=2) + scale * (s - 1.0)
        on_p = np.einsum("ipl,ip->il", mask, dp)
        on_q = np.einsum("ipl,ip->il", mask, dq)
        return np.concatenate((a * on_p + gc * kink, a * on_q + gc,
                               w * on_p + c * on_q,
                               dq.sum(axis=1, keepdims=True)), axis=1)

    return a_stat, b_stat, adjoint
