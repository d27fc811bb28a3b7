"""Entropic optimal transport: a Newton solve, the loss, its gradients.

For weights alpha on the action atoms, the type prior beta and a cost
matrix C, the loss is

    L(alpha, C) = min_P  sum C*P + lam * KL(P || alpha x beta)

over couplings P with marginals alpha and beta.  The optimal coupling is
P = diag(u) K diag(v) with K = exp(-C/lam).  `solve_sinkhorn` works on
psi = log v: phi = log u = log(alpha) - lse_j(-C/lam + psi) makes the rows
exact, and psi maximizes the concave semi-dual

    G(psi) = <beta, psi> - sum_i alpha_i lse_j(-C_ij/lam + psi_j)

(Peyre & Cuturi, Computational Optimal Transport, section 4).  With Q the
kernel rows at psi normalized to sum 1 and P = diag(alpha) Q the
row-exact plan, the gradient is g = beta - colsum(P), and a damped Newton
step solves

    (diag(colsum P) - P'Q + mean(colsum P)/K 11' + 0.1 |g|_inf I) d = g

The ones term fixes the gauge (psi + c gives the same plan); the |g|_inf
term keeps the matrix positive definite when rows become one-hot at small
lam.  A step psi + t d, backtracking from t = 1, is taken when it passes
the Armijo test on G or lowers |g|_inf: near the optimum at |C|/lam ~ 1e3,
G cannot resolve the gain in floating point.  For the same reason a tol
below the rounding floor of |g|_inf is never met, so the solve also stops
after a run of accepted steps without a new lowest |g|_inf.  The solve
ends with one column update of the row-exact plan P at the last psi:
with r = beta / colsum(P) the plan is P diag(r) and psi moves by log r,
so the columns are exact and the marginal error is the row error.  On
its support C + lam log(plan / (alpha x beta)) = lam (phi - log alpha +
psi - log beta), so the loss is

    L = lam (<rowsum(plan), phi - log alpha> + <beta, psi - log beta>)

with no logarithm of the plan.  Zero-weight columns stay out of the
Newton system.  Zero-weight rows stay in it: their rows of P are exactly
0, so they change neither G, colsum(P) nor the system, and the last
Newton state holds their log-sums too.  The solve works on potentials
only and returns them as log u and log v, so no kernel entry has to be
representable.  It fails where the Newton ascent stops (stalled, or at
its cap) with a column of P that sums to exactly 0: every entry of that
column underflowed against its row's maximum, so no column update can
give it mass.  The solve then raises `FloatingPointError` instead of
returning a NaN plan.  This happens at small lam, e.g. lam = 1e-4 on
100-piece auction policies.  A solve may start from the log v of an
earlier solve; the descent loop passes it on from step to step.

Gradients come from the envelope theorem at the converged coupling, with
no differentiation through the iterations (Feydy et al., AISTATS 2019;
Peyre & Cuturi, Computational Optimal Transport, section 9.1):

    dL/dC     = P
    dL/dalpha = lam * (f - <f, alpha> - 1),   f = -lse_j(log K_ij + psi_j)

f is the action-side dual potential in units of lam.  The finish reads
it off the last Newton state, with no second pass over the kernel: the
column update multiplies v by r, so K v = exp(lse) Q r row by row and
f = -(lse + log(Q r)), finite on zero-weight rows as well.  On the
simplex f matters only up to a constant; the constant chosen here gives
<dL/dalpha, alpha> = -lam, the gradient that differentiating the scaling
updates themselves converges to, so momentum optimizers see the same steps
either way.  Since f does not involve log(alpha), a row with zero weight
keeps a finite gradient.  The gradient in the action atoms is the cost
oracle's adjoint map applied to P (`measures.cost_with_adjoint`); for the
linear cost x . y that is P @ Y.

One descent loop, `_descend`, serves every cost: box atoms under x . y in
`minimize_sinkhorn`, packed bid policies in `auctions.train_strategy`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .measures import (CostOracle, DiscreteDistribution, TransportPlan,
                       atom_count, cost_with_adjoint)
from .optim import (DescentConfig, make_optimizer, optimizer_step,
                    project_box, project_simplex)

_LOG_DOMAIN_EXPONENT = 690.0  # |C|/lam beyond this puts exp(-C/lam) under 1e-300
_ARMIJO = 1e-4       # sufficient ascent of G, per unit of t <g, d>
_DAMPING = 0.1       # weight of |g|_inf I in the Newton system
_MIN_STEP = 2.0 ** -30   # backtracking gives up below this step length
# accepted steps without a new lowest |g|_inf after which the solve stops:
# at the rounding floor of the column error both acceptance tests pass by
# chance and the steps wander.  Far from the optimum, damped steps can gain
# on G alone for up to 85 steps (a cold 3x3 solve at lam=1e-3).
_STALL = 100


@dataclass
class SinkhornResult:
    plan: np.ndarray         # diag(exp(log_u)) K diag(exp(log_v))
    log_u: np.ndarray
    log_v: np.ndarray
    loss: float
    iterations: int          # Newton steps
    marginal_error: float
    grad_alpha: np.ndarray   # envelope gradient dL/dalpha; dL/dC is the plan


def _semi_dual(log_kernel, alpha, beta, psi):
    """G(psi), its gradient g, the row-exact plan P, Q = P / alpha, the
    row log-sums lse_j(log K_ij + psi_j), colsum(P) and |g|_inf."""
    m = log_kernel + psi
    shift = m.max(axis=1)
    e = np.exp(m - shift[:, None])
    mass = e.sum(axis=1)
    # e / mass, not exp(m - lse): its rounding does not grow with |psi|
    q = e / mass[:, None]
    p = alpha[:, None] * q
    lse = np.log(mass) + shift
    col = p.sum(axis=0)
    g = beta - col
    return beta @ psi - alpha @ lse, g, p, q, lse, col, np.abs(g).max()


def _newton(log_kernel, alpha, beta, psi, cap: int, tol: float):
    """Damped Newton ascent of G from psi, all column weights positive.

    Stops at |g|_inf < tol, after cap steps, when no step gains, or
    after _STALL accepted steps without a new lowest |g|_inf.  Returns the
    last psi, the row-exact plan P, Q, the row log-sums and colsum(P)
    there, the number of steps taken and whether |g|_inf fell below tol.
    """
    value, g, p, q, lse, col, size = _semi_dual(log_kernel, alpha, beta, psi)
    k = col.size
    best, since = size, 0
    steps = 0
    while (steps < cap and size >= tol and size > 0.0
           and since < _STALL):
        system = -(p.T @ q)
        system.ravel()[::k + 1] += col + _DAMPING * size
        system += col.sum() / k / k
        d = np.linalg.solve(system, g)
        slope = g @ d
        t = 1.0
        while t >= _MIN_STEP:
            trial = psi + t * d
            state = _semi_dual(log_kernel, alpha, beta, trial)
            if state[0] >= value + _ARMIJO * t * slope or state[6] < size:
                break
            t *= 0.5
        else:
            break   # no step gains on G or |g|_inf at rounding level
        psi = trial
        value, g, p, q, lse, col, size = state
        steps += 1
        best, since = (size, 0) if size < best else (best, since + 1)
    return psi, p, q, lse, col, steps, size < tol


# bench/tracing.py reads the `cap` default, through prp.auctions._unroll_budget
def solve_sinkhorn(alpha, beta, cost_matrix, lam: float, log_v=None,
                   cap: int = 3000, tol: float = 1e-9) -> SinkhornResult:
    """Solve the instance by damped Newton ascent of the semi-dual.

    alpha weighs the action atoms (rows of `cost_matrix`) and beta the
    types (its columns); both must lie on the simplex.  Returns the plan,
    the potentials log u = phi and log v = psi (-inf on zero-weight rows
    and columns), the loss and the envelope gradient in alpha.  `log_v`
    warm-starts psi, e.g. with the `log_v` of the previous solve in a
    descent loop.  A solve that stops short of `tol` (after `cap` Newton
    steps, or where rounding stalls it) warns, and one that stops with a
    column of the row-exact plan at 0 mass raises `FloatingPointError`.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    cost_matrix = np.asarray(cost_matrix, dtype=float)
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    if cap < 1:
        raise ValueError("need at least one Newton step")
    for w, name in ((alpha, "alpha"), (beta, "beta")):
        if w.min(initial=0.0) < 0.0 or abs(w.sum() - 1.0) > 1e-9:
            raise ValueError(f"{name} must lie on the simplex")
    if cost_matrix.shape != (alpha.size, beta.size):
        raise ValueError("cost matrix shape must match the marginals")
    cols = (beta > 0.0).nonzero()[0]
    b = beta[cols]
    start = (np.zeros(beta.size) if log_v is None
             else np.asarray(log_v, dtype=float))
    # zero-weight rows stay in the system: their rows of P are exactly 0
    psi, p, q, lse, col, steps, converged = _newton(
        -cost_matrix[:, cols] / lam, alpha, b, start[cols], cap, tol)
    if not (col > 0.0).all():
        raise FloatingPointError(
            f"Sinkhorn solve at lam={lam:g} stopped after {steps} Newton "
            f"steps with a column of the plan at 0 mass")
    # the column update from the row-exact plan P: plan = P r, psi + log r
    r = b / col
    core = p * r
    psi = psi + np.log(r)
    row_mass = core.sum(axis=1)
    # C + lam log(plan / (alpha x beta)) = lam (phi - log a + psi - log b)
    loss = lam * (row_mass @ -lse + b @ (psi - np.log(b)))
    error = float(max(np.abs(row_mass - alpha).max(),
                      np.abs(core.sum(axis=0) - b).max()))
    plan = np.zeros(cost_matrix.shape)
    plan[:, cols] = core
    with np.errstate(divide="ignore"):
        phi = np.log(alpha) - lse
    log_v = np.full(beta.size, -np.inf)
    log_v[cols] = psi
    f = -(lse + np.log(q @ r))   # -log(K v) at the updated psi
    if not converged:
        warnings.warn(f"Sinkhorn solve at lam={lam:g} stopped after {steps} "
                      f"Newton steps with marginal error {error:.3g}",
                      RuntimeWarning, stacklevel=2)
    return SinkhornResult(plan, phi, log_v, float(loss), steps, error,
                          lam * (f - f @ alpha - 1.0))


# unused by prp; kept because bench/tracing.py reads it
def needs_log_domain(cost_matrix, lam: float) -> bool:
    """Whether some kernel entry exp(-C/lam) would fall below 1e-300."""
    c = np.abs(np.asarray(cost_matrix)).max(initial=0.0)
    return bool(c / lam > _LOG_DOMAIN_EXPONENT)


def _descend(atoms, prior_weights, type_atoms, cost: CostOracle, lam: float,
             config: DescentConfig, floor: float):
    """Descend the entropic-OT loss over (weights, atoms) from `atoms`.

    Each step solves the instance once to tol 1e-8, warm started from the
    previous step's log v, and takes one packed optimizer step with its
    envelope gradients.  The tolerance bounds the column error |g|_inf of
    the last Newton iterate; the reported `marginal_error` is the row error
    after the final column update, which can exceed it slightly (up to
    about 1.6e-8 has been seen at lam=1e-3).  On the toy benchmark panels
    of seeds 1 to 5 (10,000 warm-started step solves at lam=0.1) a step
    solve took 5.75 Newton steps on average (57,471 in all), median 6, at
    most 12.  The weights start uniform and are projected onto
    {w >= floor, sum w = 1}, the atoms onto the oracle's box if it has
    `bounds`.  Returns the final atoms, the plan of a final solve to the
    default tol 1e-9 (its column sums equal the prior) and the per-step
    loss trace.
    """
    n = atoms.shape[0]
    alpha = np.full(n, 1.0 / n)
    lr = np.repeat([config.lr_weights, config.lr_atoms], [n, atoms.size])
    state = make_optimizer(config.method, lr, lr)
    box = None if cost.bounds is None else np.asarray(cost.bounds, float).T
    trace = np.empty(config.steps)
    log_v = None
    for step in range(config.steps):
        matrix, adjoint = cost_with_adjoint(cost, atoms, type_atoms)
        result = solve_sinkhorn(alpha, prior_weights, matrix, lam, log_v,
                                tol=1e-8)
        log_v = result.log_v
        trace[step] = result.loss
        grad = np.concatenate((result.grad_alpha,
                               adjoint(result.plan).ravel()))
        packed = optimizer_step(
            state, np.concatenate((alpha, atoms.ravel())), grad)
        alpha = project_simplex(packed[:n], floor=floor)
        atoms = packed[n:].reshape(atoms.shape)
        if box is not None:
            atoms = project_box(atoms, *box)
    matrix, _ = cost_with_adjoint(cost, atoms, type_atoms)
    result = solve_sinkhorn(alpha, prior_weights, matrix, lam, log_v)
    return atoms, result.plan, trace


def minimize_sinkhorn(prior_weights, type_atoms, cost: CostOracle, lam: float,
                      config: DescentConfig | None = None, seed: int = 0):
    """First-order descent of the entropic-OT loss over (weights, atoms).

    K + 2 atom locations start uniform in the cost box, drawn from `seed`, and
    the descent is `_descend` with weight floor min(1e-6, 0.1/n).  Returns
    the plan of its final solve along with the per-step loss trace.  The
    trace is recorded for benchmarking and is not guaranteed to be
    monotone.
    """
    if cost.bounds is None:
        raise ValueError("minimize_sinkhorn needs a cost oracle with box bounds")
    prior_weights = np.asarray(prior_weights, dtype=float)
    type_atoms_arr = np.asarray(type_atoms, dtype=float)
    n = atom_count(prior_weights.size)
    bounds = np.asarray(cost.bounds, dtype=float)
    rng = np.random.default_rng(seed)
    atoms = rng.uniform(bounds[:, 0], bounds[:, 1], size=(n, bounds.shape[0]))
    atoms, gamma, trace = _descend(atoms, prior_weights, type_atoms_arr, cost,
                                   lam, config or DescentConfig(),
                                   min(1e-6, 0.1 / n))
    prior = DiscreteDistribution(list(type_atoms_arr), prior_weights)
    plan = TransportPlan(gamma, list(atoms), list(type_atoms_arr), prior)
    return plan, trace
