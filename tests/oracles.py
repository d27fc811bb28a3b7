"""Independent reference computations the tests compare the library against.

Everything here is deliberately written against the definitions, not the
library code paths: plan objectives are evaluated with explicit formulas,
minima come from exhaustive (multi-scale) grid enumeration, and projections
from brute-force search.
"""

from __future__ import annotations

import itertools

import numpy as np


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
    mask = plan > 0.0
    ref = np.outer(alpha, beta)
    with np.errstate(divide="ignore", invalid="ignore"):
        ent = np.where(mask, plan * np.log(plan / ref), 0.0)
    return float((cost * plan).sum() + lam * np.nan_to_num(ent).sum())


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
# misc small oracles

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
