"""Entropic optimal transport: a Newton solve, the loss, its gradients.

For weights alpha on the action atoms, the type prior beta and a cost
matrix C, the loss is

    L(alpha, C) = min_P  sum C*P + lam * KL(P || alpha x beta)

over couplings P with marginals alpha and beta.  The optimal coupling is
P = diag(u) K diag(v) with K = exp(-C/lam).  `solve_sinkhorn` works on
psi = log v: phi = log u = log(alpha) - lse_j(-C/lam + psi) makes the rows
exact, and psi maximizes the concave semi-dual

    G(psi) = <beta, psi> - sum_i alpha_i lse_j(-C_ij/lam + psi_j)

(Peyre & Cuturi, Computational Optimal Transport, section 4).  With P the
row-exact plan at psi and Q = P with each row divided by alpha_i, the
gradient is g = beta - colsum(P), and a damped Newton step solves

    (diag(colsum P) - P'Q + mean(colsum P)/K 11' + 0.1 |g|_inf I) d = g

The ones term fixes the gauge (psi + c gives the same plan); the |g|_inf
term keeps the matrix positive definite when rows become one-hot at small
lam.  A step psi + t d, backtracking from t = 1, is taken when it passes
the Armijo test on G or lowers |g|_inf: near the optimum at |C|/lam ~ 1e3,
G cannot resolve the gain in floating point.  At |g|_inf < tol the solve
makes one row and one column update, so the columns are exact and the
marginal error is the row error.  Zero-weight rows and columns stay out of
the Newton system.  The solve works on potentials only, so it runs at any
lam (the u and v it returns may overflow).  A solve may start from the
log v of an earlier solve; the descent loops pass it on from step to step.

Gradients come from the envelope theorem at the converged coupling, with
no differentiation through the iterations (Feydy et al., AISTATS 2019;
Peyre & Cuturi, Computational Optimal Transport, section 9.1):

    dL/dC     = P
    dL/dalpha = lam * (f - <f, alpha> - 1),   f = -lse_j(log K_ij + psi_j)

f is the action-side dual potential in units of lam.  On the simplex it
matters only up to a constant; the constant chosen here gives
<dL/dalpha, alpha> = -lam, the gradient that differentiating the scaling
updates themselves converges to, so momentum optimizers see the same steps
either way.  Since f does not involve log(alpha), a row with zero weight
keeps a finite gradient.  The gradient in the action atoms is the cost
oracle's adjoint map applied to P (`measures.cost_with_adjoint`); for the
linear cost x . y that is P @ Y.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .measures import (CostOracle, DiscreteDistribution,
                       NonDifferentiableCost, TransportPlan, cost_with_adjoint)
from .optim import (DescentConfig, make_optimizer, optimizer_step,
                    project_box, project_simplex)

_LOG_DOMAIN_EXPONENT = 690.0  # |C|/lam beyond this puts exp(-C/lam) under 1e-300
_ARMIJO = 1e-4       # sufficient ascent of G, per unit of t <g, d>
_DAMPING = 0.1       # weight of |g|_inf I in the Newton system
_MIN_STEP = 2.0 ** -30   # backtracking gives up below this step length


@dataclass
class SinkhornProblem:
    """A discrete entropic-OT instance: marginals, cost matrix, temperature."""

    alpha: np.ndarray
    beta: np.ndarray
    cost_matrix: np.ndarray
    lam: float
    max_iter: int = 2000
    tol: float = 1e-9

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=float)
        self.beta = np.asarray(self.beta, dtype=float)
        self.cost_matrix = np.asarray(self.cost_matrix, dtype=float)
        if self.lam <= 0.0:
            raise ValueError("lam must be positive")
        if self.max_iter < 1:
            raise ValueError("need at least one iteration")
        for w, name in ((self.alpha, "alpha"), (self.beta, "beta")):
            if w.min(initial=0.0) < 0.0 or abs(w.sum() - 1.0) > 1e-9:
                raise ValueError(f"{name} must lie on the simplex")
        if self.cost_matrix.shape != (self.alpha.size, self.beta.size):
            raise ValueError("cost matrix shape must match the marginals")


@dataclass
class SinkhornResult:
    plan: np.ndarray
    u: np.ndarray
    v: np.ndarray
    log_u: np.ndarray
    log_v: np.ndarray
    loss: float
    iterations: int          # Newton steps
    marginal_error: float
    grad_alpha: np.ndarray   # envelope gradient dL/dalpha; dL/dC is the plan


def _plan_loss(plan, alpha, beta, cost_matrix, lam) -> float:
    """Transport cost plus lam * KL(plan || alpha x beta), with 0 log 0 := 0."""
    mask = plan > 0.0
    ref = np.outer(alpha, beta)
    logs = np.log(np.where(mask, plan, 1.0)) - np.log(np.where(mask, ref, 1.0))
    return float((cost_matrix * plan).sum() + lam * (plan * logs)[mask].sum())


def _marginal_error(plan, alpha, beta) -> float:
    row = np.abs(plan.sum(axis=1) - alpha).max(initial=0.0)
    col = np.abs(plan.sum(axis=0) - beta).max(initial=0.0)
    return float(max(row, col))


def _logsumexp(m, axis):
    shift = np.max(m, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(shift), shift, 0.0)
    with np.errstate(divide="ignore"):
        return np.log(np.exp(m - shift).sum(axis=axis)) + np.squeeze(shift, axis=axis)


def _semi_dual(log_kernel, alpha, beta, psi):
    """G(psi), its gradient g, the row-exact plan P and Q = P / alpha."""
    m = log_kernel + psi
    shift = m.max(axis=1)
    e = np.exp(m - shift[:, None])
    mass = e.sum(axis=1)
    # e / mass, not exp(m - lse): its rounding does not grow with |psi|
    q = e / mass[:, None]
    p = alpha[:, None] * q
    return (beta @ psi - alpha @ (np.log(mass) + shift), beta - p.sum(axis=0),
            p, q)


def _newton(log_kernel, alpha, beta, psi, max_iter: int, tol: float):
    """Damped Newton ascent of G from psi, all weights positive.

    Returns the last psi, the number of steps taken and whether |g|_inf
    fell below tol.
    """
    value, g, p, q = _semi_dual(log_kernel, alpha, beta, psi)
    size = np.abs(g).max()
    steps = 0
    while steps < max_iter and size >= tol and size > 0.0:
        col = p.sum(axis=0)
        system = (np.diag(col + _DAMPING * size) - p.T @ q
                  + col.mean() / col.size)
        d = np.linalg.solve(system, g)
        slope = g @ d
        t = 1.0
        while t >= _MIN_STEP:
            trial = psi + t * d
            state = _semi_dual(log_kernel, alpha, beta, trial)
            if (state[0] >= value + _ARMIJO * t * slope
                    or np.abs(state[1]).max() < size):
                break
            t *= 0.5
        else:
            break   # no step gains on G or |g|_inf at rounding level
        psi = trial
        value, g, p, q = state
        size = np.abs(g).max()
        steps += 1
    return psi, steps, size < tol


def solve_sinkhorn(problem: SinkhornProblem, init_log_v=None) -> SinkhornResult:
    """Solve the instance by damped Newton ascent of the semi-dual.

    `init_log_v` warm-starts psi = log v, e.g. with the `log_v` of the
    previous solve in a descent loop.  A solve that stops short of `tol`
    (at `max_iter`, or where rounding stalls it) warns.
    """
    alpha, beta, lam = problem.alpha, problem.beta, problem.lam
    log_kernel = -problem.cost_matrix / lam
    rows, cols = alpha > 0.0, beta > 0.0
    start = (np.zeros(beta.size) if init_log_v is None
             else np.asarray(init_log_v, dtype=float))
    psi = np.full(beta.size, -np.inf)
    psi[cols], steps, converged = _newton(
        log_kernel[np.ix_(rows, cols)], alpha[rows], beta[cols], start[cols],
        problem.max_iter, problem.tol)
    with np.errstate(divide="ignore"):
        phi = np.log(alpha) - _logsumexp(log_kernel + psi, axis=1)
        psi = np.log(beta) - _logsumexp(log_kernel + phi[:, None], axis=0)
    f = -_logsumexp(log_kernel + psi, axis=1)   # -log(K v)
    plan = np.exp(phi[:, None] + psi + log_kernel)
    error = _marginal_error(plan, alpha, beta)
    if not converged:
        warnings.warn(f"Sinkhorn solve at lam={lam:g} stopped after {steps} "
                      f"Newton steps with marginal error {error:.3g}",
                      RuntimeWarning, stacklevel=2)
    with np.errstate(over="ignore"):
        u, v = np.exp(phi), np.exp(psi)
    return SinkhornResult(plan, u, v, phi, psi,
                          _plan_loss(plan, alpha, beta, problem.cost_matrix,
                                     lam),
                          steps, error, lam * (f - f @ alpha - 1.0))


# unused by prp; kept because bench/tracing.py reads it
def needs_log_domain(cost_matrix, lam: float) -> bool:
    """Whether some kernel entry exp(-C/lam) would fall below 1e-300."""
    c = np.abs(np.asarray(cost_matrix)).max(initial=0.0)
    return bool(c / lam > _LOG_DOMAIN_EXPONENT)


def sinkhorn_loss(problem: SinkhornProblem) -> float:
    """Entropic-OT value of the instance (solved to the problem's tolerance)."""
    return solve_sinkhorn(problem).loss


# bench/tracing.py reads the `cap` default, through prp.auctions._unroll_budget
def step_solve(alpha, cost_matrix, beta, lam: float, log_v=None,
               cap: int = 3000) -> SinkhornResult:
    """The solve behind one descent step, warm started from the last `log_v`.

    Solved to marginal error 1e-8 in at most `cap` Newton steps; a warm
    started step solve typically takes 5 to 20.
    """
    problem = SinkhornProblem(alpha, beta, cost_matrix, lam, max_iter=cap,
                              tol=1e-8)
    return solve_sinkhorn(problem, log_v)


def sinkhorn_loss_grad(alpha, atoms, nu, cost: CostOracle, lam: float):
    """Loss plus its envelope gradients in (alpha, atoms), from `step_solve`.

    `nu` is the fixed type-side marginal as a pair (weights, atoms).  The
    gradients are the closed forms of the module docstring; the gradient in
    the atoms is the cost oracle's adjoint applied to the plan.  Raises
    `NonDifferentiableCost` for an oracle without an adjoint.
    """
    beta, type_atoms = nu
    matrix, adjoint = cost_with_adjoint(cost, atoms, type_atoms)
    result = step_solve(alpha, matrix, beta, lam)
    return result.grad_alpha, adjoint(result.plan), result.loss


def minimize_sinkhorn(prior_weights, type_atoms, cost: CostOracle, lam: float,
                      n_atoms: int | None = None,
                      config: DescentConfig | None = None,
                      seed: int = 0):
    """First-order descent of the entropic-OT loss over (weights, atoms).

    Atom locations start uniform in the cost box and the weight vector starts
    uniform; after every step the weights are projected back onto the simplex
    and the atoms onto the box.  Each step solves the instance once with
    `step_solve`, a Newton solve warm started from the previous step's
    log v, and takes the envelope gradients of that solve.  Returns the plan
    of a final solve to tol 1e-9 (its column sums equal the prior exactly)
    along with the per-step loss trace.  The trace is recorded for
    benchmarking and is not guaranteed to be monotone.
    """
    if cost.bounds is None:
        raise ValueError("minimize_sinkhorn needs a cost oracle with box bounds")
    config = config or DescentConfig()
    prior_weights = np.asarray(prior_weights, dtype=float)
    type_atoms_arr = np.asarray(type_atoms, dtype=float)
    k = prior_weights.size
    n = n_atoms if n_atoms is not None else k + 2
    if n < 1:
        raise ValueError("need at least one action atom")
    bounds = np.asarray(cost.bounds, dtype=float)
    rng = np.random.default_rng(seed)
    atoms = rng.uniform(bounds[:, 0], bounds[:, 1], size=(n, bounds.shape[0]))
    alpha = np.full(n, 1.0 / n)
    opt_alpha = make_optimizer(config.method, config.lr_weights, [alpha])
    opt_atoms = make_optimizer(config.method, config.lr_atoms, [atoms])
    trace = np.empty(config.steps)
    log_v = None
    for step in range(config.steps):
        matrix, adjoint = cost_with_adjoint(cost, atoms, type_atoms_arr)
        result = step_solve(alpha, matrix, prior_weights, lam, log_v)
        log_v = result.log_v
        trace[step] = result.loss
        (alpha,) = optimizer_step(opt_alpha, [alpha], [result.grad_alpha])
        alpha = project_simplex(alpha, floor=min(1e-6, 0.1 / n))
        (atoms,) = optimizer_step(opt_atoms, [atoms], [adjoint(result.plan)])
        atoms = project_box(atoms, bounds[:, 0], bounds[:, 1])
    matrix, _ = cost_with_adjoint(cost, atoms, type_atoms_arr)
    result = solve_sinkhorn(SinkhornProblem(alpha, prior_weights, matrix, lam),
                            log_v)
    prior = DiscreteDistribution(list(type_atoms_arr), prior_weights)
    plan = TransportPlan(result.plan, list(atoms), list(type_atoms_arr), prior)
    return plan, trace
