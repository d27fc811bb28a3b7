"""Convex plan solves: linear cost term plus the row-wise privacy term.

Minimizes  <L, gamma> + lam * sum_ik p0_k h_k(gamma_i)  over plans whose
columns sum to the prior, with L the cost matrix of fixed actions: a
lattice of actions for the full-grid convex problem, and the rows' best
box corners for the DCA step (the linearization of its concave part).

lam = 0 is a linear program over scaled simplices, solved in closed form.
Total variation, f(t) = |t - 1| / 2, has a piecewise-linear privacy term,
so its solve is a linear program too, solved exactly by HiGHS (scipy is
imported for it alone); its reported steps are HiGHS iterations.  For KL
the privacy term is the mutual information, and at fixed row masses the
best plan is a Gibbs plan in closed form, so the solve is a convex problem
in the n row masses alone (Blahut 1972; Csiszar & Tusnady 1984):
`optim.minimize_columns_pgd` descends on the masses, and their Gibbs plan
is returned.  Reverse KL, f(t) = -log t, is solved in the (K + 1)-variable
dual max_psi <psi, p> + min_i g_i(psi), g_i the row conjugates: Newton
steps on a smoothed dual find the rows that carry mass and a KKT Newton
solve finishes psi and their masses, in numpy alone.  Its `converged`
certifies the optimum: the plan's value is within 1e-9 * max(1, |value|)
of the dual bound <psi, p> + min_i g_i(psi), which no plan can go below.
Any other generator (alpha) must be smooth, and the mirror descent runs on
the full plan.  Every descent starts from step 1/lam and stops on the one
rule of `optim.minimize_columns_pgd` (or at `optim.MAX_STEPS`), so its
`converged` means that rule held, not that the optimum is certified.
"""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np

from .divergences import (FDivergence, perspective_total,
                          perspective_total_grad)
from . import optim
from .optim import PGDResult, minimize_columns_pgd

_BLAHUT_ARIMOTO_STEPS = 8   # warm start of the KL row-mass descent
# the reverse-KL dual solve
_GAP_TOL = 1e-9             # certified: value - dual <= tol * max(1, |value|)
_MU_FIRST = 0.1             # first smoothing width, times max(1, |L|)
_MU_STAGES = 5              # ... divided by 10 per stage, down to 1e-5
_DECREMENT = 1e-2           # Newton decrement, times mu, that ends a stage
_ARMIJO = 1e-4
_MIN_DAMPING = 1e-10
_MAX_NEWTON_STEPS = 200
_MAX_ROOT_STEPS = 100
_ACTIVE = 1e-6              # smoothed weight, relative, that puts a row in play
_PRICE_TOL = 1e-14          # price below t, times max(1, |L|), that adds a row
_MAX_ROUNDS = 10
_EPS = np.finfo(float).eps
_SUBNORMAL = np.nextafter(0.0, 1.0)


def minimize_linear_plus_privacy(linear: np.ndarray, prior_weights,
                                 divergence: FDivergence, lam: float,
                                 init=None) -> PGDResult:
    """Minimize from ``init`` (default: the uniform mixture) to a PGDResult.

    The result is never worse than ``init`` or the concentrated plan (all
    mass on the best averaged row).  A descent that stops at its step cap,
    or a reverse-KL solve whose value is not certified within
    1e-9 * max(1, |value|) of its dual bound, returns converged=False and
    warns.
    """
    linear = np.asarray(linear, dtype=float)
    prior = np.asarray(prior_weights, dtype=float)
    if not 0.0 <= lam < np.inf:
        raise ValueError(f"lam must be non-negative and finite, got {lam!r}")
    if lam == 0.0:
        gamma = np.zeros_like(linear)
        gamma[np.argmin(linear, axis=0), np.arange(linear.shape[1])] = prior
        return PGDResult(gamma, float((linear * gamma).sum()), 0, True)

    objective, _ = _terms(linear, prior, divergence, lam)
    if init is None:
        n = linear.shape[0]
        init = np.tile(prior / n, (n, 1))
    init = np.asarray(init, dtype=float)
    if divergence.name == "reverse_kl":
        result, bound = _reverse_kl_dual(objective, linear, prior, lam, init)
        if not result.converged:
            warnings.warn(f"reverse_kl plan solve at lam={lam:g} ended "
                          f"{result.value - bound:.3g} above its dual bound",
                          RuntimeWarning, stacklevel=2)
        return result
    if divergence.name == "kl":
        result = _row_mass_solve(objective, linear, prior, lam, init)
    elif divergence.name == "tv":
        result = _tv_program(objective, linear, prior, lam, init)
    else:
        result = _plan_descent(objective, linear, prior, divergence, lam,
                               init)
    # all mass on the best averaged row, the optimum as lam grows, is a
    # fixed point of the multiplicative update: compare it directly
    concentrated = _concentrated(linear, prior)
    value = _value(objective, concentrated)
    if value < result.value:
        result = replace(result, x=concentrated, value=value)
    if not result.converged:
        warnings.warn(f"{divergence.name} plan solve at lam={lam:g} stopped "
                      f"at its {optim.MAX_STEPS}-step cap", RuntimeWarning,
                      stacklevel=2)
    return result


def _concentrated(linear, prior):
    """All mass on the best averaged row: the optimum as lam grows."""
    gamma = np.zeros_like(linear)
    gamma[int(np.argmin(linear @ prior))] = prior
    return gamma


def _terms(linear, prior, div, lam):
    """Stacked objective and gradient of <L, gamma> + lam * privacy."""
    def objective(stack):
        return ((linear * stack).sum(axis=(-2, -1))
                + lam * perspective_total(div, stack, prior))

    def gradient(gamma):
        return linear + lam * perspective_total_grad(div, gamma, prior)

    return objective, gradient


def _value(objective, gamma) -> float:
    return float(objective(gamma[None])[0])


def _row_mass_solve(objective, linear, prior, lam, init):
    """KL: mirror descent on the row masses m, then their Gibbs plan.

    At fixed m the best plan is gamma_ik = p_k m_i e_ik / Z_k with
    e_ik = exp(-(L_ik - c_k) / lam), c_k the column minimum over the rows
    that carry mass, and Z_k = sum_i m_i e_ik; its objective is at most
    F(m) = <p, c> - lam * sum_k p_k log Z_k, with equality when m are its
    row masses.  F is convex on the simplex, so the solve is a descent of F
    from the row masses of ``init`` (zero rows stay zero), and the Gibbs
    plan of the first m is already no worse than ``init``.  The descent
    stops on the rule of every plan solve, that of `minimize_columns_pgd`.
    It starts with _BLAHUT_ARIMOTO_STEPS updates m <- m * r (the row masses
    of the Gibbs plan), which never raise F and, having no line search,
    cost a fraction of a mirror step; they do most of the work at small
    lam, where the mirror step accepts only a fraction of 1/lam, and little
    at large lam, where the mirror steps double.  The reported steps are
    the mirror steps.
    """
    masses = init.sum(axis=1)
    rows = masses > 0.0
    costs = linear[rows]
    least = costs.min(axis=0)
    with np.errstate(over="ignore"):
        kernel = np.exp((least - costs) / lam)
    offset = float(least @ prior)

    def mass_objective(stack):
        # elementwise sums, so that a value does not depend on the stack size
        with np.errstate(divide="ignore", invalid="ignore"):
            log_z = np.log((stack * kernel).sum(axis=-2))
        return offset - lam * (log_z * prior).sum(axis=-1)

    def ratios(m):
        # r_i = sum_k p_k e_ik / Z_k: the gradient of F is -lam * r
        return (kernel @ (prior / (m[:, 0] @ kernel)))[:, None]

    start = masses[rows, None]
    for _ in range(_BLAHUT_ARIMOTO_STEPS):
        start = start * ratios(start)
    result = minimize_columns_pgd(mass_objective, lambda m: -lam * ratios(m),
                                  start, np.ones(1), 1.0 / lam)
    weighted = result.x * kernel
    gamma = np.zeros_like(linear)
    gamma[rows] = weighted / weighted.sum(axis=0) * prior
    return replace(result, x=gamma, value=_value(objective, gamma))


def _plan_descent(objective, linear, prior, divergence, lam, init):
    """Entropic descent on the full plan; only smooth generators."""
    if not divergence.smooth:
        raise ValueError(f"non-smooth generator {divergence.name!r}: only "
                         "the total-variation kink has a solve")
    result = minimize_columns_pgd(*_terms(linear, prior, divergence, lam),
                                  init, prior, 1.0 / lam)
    return replace(result, value=_value(objective, result.x))


def _reverse_kl_dual(objective, linear, prior, lam, init):
    """Reverse KL in its dual: (result, dual bound).

    The dual of the plan problem is max_psi <psi, p> + min_i g_i(psi), with
    g_i the row conjugate g_i(psi) = min_q <L_i - psi, q> + lam D(q || p)
    over the simplex (Blondel, Seguy & Rolet 2018), whose minimizer q_i is
    the row's best posterior (`_row_conjugates`).  Newton ascent on the
    smoothed dual <psi, p> - mu log sum_i exp(-g_i / mu), from psi = the
    column minima of L, with mu divided by 10 per stage from
    _MU_FIRST * max(1, |L|) for _MU_STAGES stages (`_smoothed_ascent`), finds
    the active rows, and a KKT Newton solve polishes psi and their masses
    (`_kkt_polish`).  The plan is gamma_i = m_i q_i, its columns rescaled
    onto the prior; entries below the smallest subnormal are raised to it,
    since a zero entry of a row with mass costs +inf.  ``init`` or the
    concentrated plan is kept when no worse.  The result converges when its
    value is within _GAP_TOL * max(1, |value|) of the dual bound
    <psi, p> + min_i g_i(psi), a certificate of optimality; the steps are
    the Newton steps.  Identical rows of L are solved as one, and the first
    of them gets its mass; types of prior weight 0 get none.
    """
    support = prior > 0.0
    weight = prior[support]
    rows, first = np.unique(linear[:, support], axis=0, return_index=True)
    scale = max(1.0, float(np.abs(rows).max()))
    psi = rows.min(axis=0)
    steps = 0
    for stage in range(_MU_STAGES):
        psi, weights, taken = _smoothed_ascent(rows, weight, lam,
                                               _MU_FIRST * scale / 10 ** stage,
                                               psi)
        steps += taken
    psi, active, masses, taken = _kkt_polish(rows, weight, lam, psi, weights,
                                             scale)
    steps += taken
    posteriors, _, values = _row_conjugates(rows, psi, weight, lam)
    bound = float(psi @ weight + values.min())
    plan = np.maximum(masses[:, None] * posteriors[active], _SUBNORMAL)
    gamma = np.zeros_like(linear)
    gamma[np.ix_(first[active], support)] = plan * (weight / plan.sum(axis=0))
    value, start = _value(objective, gamma), _value(objective, init)
    if start <= value:
        gamma, value = init, start
    concentrated = _concentrated(linear, prior)
    last = _value(objective, concentrated)
    if last < value:
        gamma, value = concentrated, last
    converged = value - bound <= _GAP_TOL * max(1.0, abs(value))
    return PGDResult(gamma, value, steps, converged), bound


def _row_conjugates(rows, psi, prior, lam):
    """Best posteriors q, curvatures q^2 / p and values g of every row at psi.

    With a = L_i - psi, b = a - min a >= 0 and c = b / lam, the posterior is
    q_k = p_k / (c_k + u), with u > 0 the root of F(u) = sum_k q_k = 1.
    1 / F, a weighted harmonic mean of c + u, is concave and increasing in
    u, so Newton on 1 / F - 1 is monotone from any u left of the root.  It
    starts from the larger of two lower bounds, p_j / (1 - sum_{k != j}
    p_k / (c_k + 1)) (j the argmin of a, and u <= 1) and 1 - <p, c> (by
    Jensen).  Working in u = delta / lam keeps the root free of
    cancellation at tiny lam, where c overflows to inf and q_k to 0.  The
    value is g = min a + lam sum_k p_k (log(c_k + u) - u + 1), taken as
    c_k + log1p(x_k) - x_k with x = c + u - 1, which holds its precision at
    large lam, where c is small and u near 1.
    """
    a = rows - psi
    least = a.min(axis=1)
    b = a - least[:, None]
    top = prior[np.argmin(a, axis=1)]
    with np.errstate(over="ignore", invalid="ignore"):
        c = b / lam
        u = np.fmax(top / (1.0 + top - (prior / (c + 1.0)).sum(axis=1)),
                    1.0 - c @ prior)
    for _ in range(_MAX_ROOT_STEPS):
        inverse = 1.0 / (c + u[:, None])
        posteriors = prior * inverse
        curvatures = posteriors * inverse
        total = posteriors.sum(axis=1)
        step = (total - 1.0) * total / curvatures.sum(axis=1)
        u = u + step
        if (step <= 4.0 * _EPS * u).all():
            break
    inverse = 1.0 / (c + u[:, None])
    posteriors = prior * inverse
    x = c + (u - 1.0)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        # where b / lam overflows, log(c + u) is log b - log lam
        terms = np.where(np.isinf(c),
                         np.log(b) - np.log(lam) - (u - 1.0)[:, None],
                         c + (np.log1p(x) - x))
    return posteriors, posteriors * inverse, least + lam * (terms @ prior)


def _laplacian(curvatures, weights, lam=1.0):
    """sum_i w_i (diag s_i - s_i s_i' / sum s_i) with s_i = q_i^2 / (lam p):
    the Hessian of -g_i weighted by w_i; lam = 1 gives lam times it.

    Its off-diagonal entries are -w_i s_ik s_il / sum s_i, taken as the
    smaller of s_ik r_il and r_ik s_il with r_i = s_i / sum s_i, so that an
    s_ik that overflows at tiny lam (the entry that holds the row) meets a
    ratio, not another overflow.  The rows sum to zero, so the diagonal is
    minus the sum of the others, free of the cancellation of
    s_k - s_k^2 / sum s when a row is one-hot.
    """
    ratios = curvatures / curvatures.sum(axis=1, keepdims=True)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = curvatures / lam
        outer = np.fmin(scaled[:, :, None] * ratios[:, None, :],
                        ratios[:, :, None] * scaled[:, None, :])
    matrix = -np.einsum("i,ikl->kl", weights, outer)
    diagonal = np.arange(curvatures.shape[1])
    matrix[diagonal, diagonal] = 0.0
    matrix[diagonal, diagonal] = -matrix.sum(axis=1)
    return matrix


def _smoothed_ascent(rows, prior, lam, mu, psi):
    """Damped Newton ascent on <psi, p> - mu log sum_i exp(-g_i / mu).

    Returns (psi, soft-min weights w of the rows, steps).  The gradient is
    p - sum_i w_i q_i and the negative Hessian is
    sum_i w_i (diag s_i - s_i s_i' / sum s_i) + Cov_w(q) / mu with
    s_i = q_i^2 / (lam p) (`_laplacian`), plus its mean diagonal entry / K
    on every entry for the gauge (psi + c has the same value).  The step
    backtracks from 1 on the Armijo test, and the stage ends when the Newton
    decrement falls below _DECREMENT * mu or no finite step passes.
    """
    def evaluate(psi):
        posteriors, curvatures, values = _row_conjugates(rows, psi, prior,
                                                         lam)
        least = values.min()
        z = np.exp((least - values) / mu)
        total = z.sum()
        return (float(psi @ prior) + least - mu * np.log(total), z / total,
                posteriors, curvatures)

    smooth, weights, posteriors, curvatures = evaluate(psi)
    for step in range(1, _MAX_NEWTON_STEPS + 1):
        mean = weights @ posteriors
        ascent = prior - mean
        matrix = (_laplacian(curvatures, weights, lam)
                  + ((posteriors.T * weights) @ posteriors
                     - np.outer(mean, mean)) / mu)
        matrix += np.trace(matrix) / prior.size ** 2
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                # a row split between two types at tiny lam has an infinite
                # curvature: no finite step then
                direction = np.linalg.solve(matrix, ascent)
                decrement = float(ascent @ direction)
        except np.linalg.LinAlgError:
            return psi, weights, step
        if not _DECREMENT * mu < decrement < np.inf:
            return psi, weights, step
        t = 1.0
        while True:
            trial = evaluate(psi + t * direction)
            if trial[0] >= smooth + _ARMIJO * t * decrement:
                break
            t *= 0.5
            if t < _MIN_DAMPING:
                return psi, weights, step
        psi = psi + t * direction
        smooth, weights, posteriors, curvatures = trial
    return psi, weights, _MAX_NEWTON_STEPS


def _kkt_polish(rows, prior, lam, psi, weights, scale):
    """Newton on the KKT system of the rows in play: (psi, active, m, steps).

    The rows whose weight is within _ACTIVE of the largest start in play,
    with their weights as masses.  On them the optimum solves
    sum_i m_i q_i(psi) = p and g_i(psi) = t, with sum psi held fixed (the
    gauge): in (d psi, d t, d m) the Newton matrix is
    [[sum_i m_i (diag s_i - s_i s_i' / sum s_i), 0, Q], [1', 0, 0],
    [-Q', -1, 0]], Q the posteriors.  At tiny lam the first block vanishes
    and Q carries the system; written in d psi / lam instead, the
    right-hand side (g - t) / lam would overflow.  The Newton steps run
    while the residual falls.  Then every row that prices below t comes
    into play and every negative mass leaves it, and the solve repeats, at
    most _MAX_ROUNDS times.
    """
    active = np.flatnonzero(weights >= _ACTIVE * weights.max())
    masses = weights[active] / weights[active].sum()
    k = prior.size
    steps = 0
    for _ in range(_MAX_ROUNDS):
        posteriors, curvatures, values = _row_conjugates(rows[active], psi,
                                                         prior, lam)
        level = float(masses @ values)
        best, kept = np.inf, (psi, masses, level)
        while steps < _MAX_NEWTON_STEPS:
            excess, gaps = masses @ posteriors - prior, values - level
            size = max(float(np.abs(excess).max()),
                       float(np.abs(gaps).max()) / scale)
            if not size < best:
                break
            best, kept = size, (psi, masses, level)
            n = active.size
            matrix = np.zeros((k + 1 + n, k + 1 + n))
            matrix[:k, :k] = _laplacian(curvatures, masses, lam)
            matrix[:k, k + 1:] = posteriors.T
            matrix[k, :k] = 1.0
            matrix[k + 1:, :k] = -posteriors
            matrix[k + 1:, k] = -1.0
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    solution = np.linalg.solve(
                        matrix, np.concatenate([-excess, [0.0], -gaps]))
                except np.linalg.LinAlgError:
                    break
                steps += 1
                psi = psi + solution[:k]
                level = level + solution[k]
                masses = masses + solution[k + 1:]
            if not np.isfinite(psi).all():
                break
            posteriors, curvatures, values = _row_conjugates(
                rows[active], psi, prior, lam)
        psi, masses, level = kept
        _, _, values = _row_conjugates(rows, psi, prior, lam)
        below = values < level - _PRICE_TOL * scale
        below[active] = False
        keep = masses > 0.0
        if keep.all() and not below.any():
            break
        active = np.concatenate([active[keep], np.flatnonzero(below)])
        masses = np.concatenate([masses[keep], np.zeros(below.sum())])
    keep = masses > 0.0
    return psi, active[keep], masses[keep], steps


def _tv_program(objective, linear, prior, lam, init):
    """TV as one linear program, solved by HiGHS (Huangfu & Hall 2018).

    Minimizes <L, gamma> + lam/2 * sum s over plans and slacks
    s_ik >= |gamma_ik - p_k m_i|, rescales the plan's columns onto the
    prior, and keeps ``init`` if it is no worse.
    """
    from scipy import sparse
    from scipy.optimize import linprog

    n, k = linear.shape
    # row i of the plan maps to its deviations gamma_i - p m_i
    deviation = sparse.kron(sparse.eye(n), np.eye(k) - prior[:, None])
    slack = sparse.eye(n * k)
    solved = linprog(np.concatenate([linear.ravel(), np.full(n * k, lam / 2)]),
                     A_ub=sparse.bmat([[deviation, -slack],
                                       [-deviation, -slack]]),
                     b_ub=np.zeros(2 * n * k), b_eq=prior,
                     A_eq=sparse.kron([[1.0] * n + [0.0] * n], sparse.eye(k)),
                     method="highs")
    if solved.status != 0:
        raise FloatingPointError(f"tv plan solve at lam={lam:g}: HiGHS "
                                 f"status {solved.status}: {solved.message}")
    gamma = np.maximum(solved.x[:n * k].reshape(n, k), 0.0)
    gamma *= prior / gamma.sum(axis=0)
    value, start = _value(objective, gamma), _value(objective, init)
    if start <= value:
        gamma, value = init, start
    return PGDResult(gamma, value, solved.nit, True)
