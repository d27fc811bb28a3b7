"""Entropic optimal transport: scaling iterations, the loss, its gradients.

For weights alpha on the action atoms, the type prior beta and a cost
matrix C, the loss is

    L(alpha, C) = min_P  sum C*P + lam * KL(P || alpha x beta)

over couplings P with marginals alpha and beta.  `sinkhorn_iterate` is the
textbook diagonal scaling P = diag(u) K diag(v) with K = exp(-C/lam);
`sinkhorn_log_domain` is the numerically robust equivalent on potentials
phi = log u, psi = log v.  `solve_sinkhorn` picks the path: whenever a
kernel entry would leave the double range (|C|/lam > 690, i.e. entries
below 1e-300), the log-domain recursion is used.

Every iteration runs the action-side update first and the type-side update
last, so the columns are exact after each iteration and the marginal error
is the row error |u (K v) - alpha|.  That needs only K v, which the next
update uses anyway; it is compared with the tolerance every
`_CHECK_EVERY` iterations.  A solve may start from the log v of an earlier
solve; the descent loops pass it on from step to step, so each step's solve
starts next to its answer.

Gradients come from the envelope theorem at the converged coupling, with
no differentiation through the iterations (Feydy et al., AISTATS 2019;
Peyre & Cuturi, Computational Optimal Transport, section 9.1):

    dL/dC     = P
    dL/dalpha = lam * (f - <f, alpha> - 1),   f = log(u / alpha) = -log(K v)

and in the log domain f_i = -logsumexp_j(log K_ij + psi_j).  f is the
action-side dual potential in units of lam.  On the simplex it matters only
up to a constant; the constant chosen here gives <dL/dalpha, alpha> = -lam,
the gradient that differentiating the scaling updates themselves converges
to, so momentum optimizers see the same steps either way.  Since f comes
from K v, log(alpha) is never formed and a row with zero weight keeps a
finite gradient.  The gradient in the action atoms is the cost oracle's
adjoint map applied to P (`measures.cost_with_adjoint`); for the linear
cost x . y that is P @ Y.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import (CostOracle, DiscreteDistribution,
                       NonDifferentiableCost, TransportPlan, cost_with_adjoint)
from .optim import (DescentConfig, make_optimizer, optimizer_step,
                    project_box, project_simplex)

_LOG_DOMAIN_EXPONENT = 690.0  # |C|/lam beyond this puts exp(-C/lam) under 1e-300
_CHECK_EVERY = 10  # iterations between comparisons with the tolerance


class NumericalUnderflow(ArithmeticError):
    """The plain-domain kernel left the positive floating-point range."""


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
    iterations: int
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


def _result(plan, log_u, log_v, log_kv, problem, iterations):
    """Package a solve; log_kv = log(K v) for the returned v, per row."""
    alpha, lam = problem.alpha, problem.lam
    f = -log_kv
    with np.errstate(over="ignore"):
        u, v = np.exp(log_u), np.exp(log_v)
    return SinkhornResult(plan, u, v, log_u, log_v,
                          _plan_loss(plan, alpha, problem.beta,
                                     problem.cost_matrix, lam),
                          iterations, _marginal_error(plan, alpha, problem.beta),
                          lam * (f - f @ alpha - 1.0))


def _checkpoint(iterations: int, max_iter: int) -> bool:
    return iterations % _CHECK_EVERY == 0 or iterations == max_iter


def sinkhorn_iterate(problem: SinkhornProblem,
                     init_log_v=None) -> SinkhornResult:
    """Plain diagonal scaling u <- alpha/(Kv), v <- beta/(K'u)."""
    alpha, beta, lam = problem.alpha, problem.beta, problem.lam
    with np.errstate(over="ignore"):
        kernel = np.exp(-problem.cost_matrix / lam)
    if (not np.isfinite(kernel).all()
            or (kernel.max(axis=1) == 0.0).any()
            or (kernel.max(axis=0) == 0.0).any()):
        raise NumericalUnderflow(
            "kernel leaves the floating-point range; use sinkhorn_log_domain")
    if init_log_v is None:
        v = np.ones(beta.size)
    else:
        # v and v * c give the same plan; scaling to max 1 keeps exp finite
        log_v = np.asarray(init_log_v, dtype=float)
        v = np.exp(log_v - log_v.max())
    kv = kernel @ v
    iterations = 0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for iterations in range(1, problem.max_iter + 1):
            u = alpha / kv
            v = beta / (u @ kernel)
            previous, kv = kv, kernel @ v
            if _checkpoint(iterations, problem.max_iter):
                if not (np.isfinite(u).all() and np.isfinite(kv).all()
                        and (kv > 0.0).all()):
                    raise NumericalUnderflow(
                        "scaling vectors left the floating-point range; "
                        "use sinkhorn_log_domain")
                if np.abs(alpha * (kv / previous - 1.0)).max() < problem.tol:
                    break
        plan = (u[:, None] * kernel) * v[None, :]
        return _result(plan, np.log(u), np.log(v), np.log(kv), problem,
                       iterations)


def _logsumexp(m, axis):
    shift = np.max(m, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(shift), shift, 0.0)
    with np.errstate(divide="ignore"):
        return np.log(np.exp(m - shift).sum(axis=axis)) + np.squeeze(shift, axis=axis)


def sinkhorn_log_domain(problem: SinkhornProblem,
                        init_log_v=None) -> SinkhornResult:
    """Same contract as sinkhorn_iterate, on log-scale potentials."""
    alpha, beta, lam = problem.alpha, problem.beta, problem.lam
    log_kernel = -problem.cost_matrix / lam
    with np.errstate(divide="ignore"):
        log_alpha, log_beta = np.log(alpha), np.log(beta)
    psi = (np.zeros(beta.size) if init_log_v is None
           else np.asarray(init_log_v, dtype=float))
    lse_row = _logsumexp(log_kernel + psi[None, :], axis=1)
    iterations = 0
    for iterations in range(1, problem.max_iter + 1):
        phi = log_alpha - lse_row
        psi = log_beta - _logsumexp(log_kernel + phi[:, None], axis=0)
        previous, lse_row = lse_row, _logsumexp(log_kernel + psi[None, :], axis=1)
        if (_checkpoint(iterations, problem.max_iter)
                and np.abs(alpha * np.expm1(lse_row - previous)).max()
                < problem.tol):
            break
    plan = np.exp(phi[:, None] + psi[None, :] + log_kernel)
    return _result(plan, phi, psi, lse_row, problem, iterations)


def needs_log_domain(cost_matrix, lam: float) -> bool:
    c = np.abs(np.asarray(cost_matrix)).max(initial=0.0)
    return bool(c / lam > _LOG_DOMAIN_EXPONENT)


def solve_sinkhorn(problem: SinkhornProblem, init_log_v=None) -> SinkhornResult:
    """Dispatch to the numerically appropriate iteration.

    `init_log_v` warm-starts the type-side scaling, e.g. with the `log_v`
    of the previous solve in a descent loop.
    """
    if needs_log_domain(problem.cost_matrix, problem.lam):
        return sinkhorn_log_domain(problem, init_log_v)
    return sinkhorn_iterate(problem, init_log_v)


def sinkhorn_loss(problem: SinkhornProblem) -> float:
    """Entropic-OT value of the instance (solved to the problem's tolerance)."""
    return solve_sinkhorn(problem).loss


def step_solve(alpha, cost_matrix, beta, lam: float, log_v=None,
               cap: int = 3000) -> SinkhornResult:
    """The solve behind one descent step, warm started from the last `log_v`.

    At small lam a cold start takes thousands of iterations; the warm start
    and the cap bound the work per step.
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
    and the atoms onto the box.  Each step solves the instance once, warm
    started from the previous step's scaling, and takes the envelope
    gradients of that solve.  Returns the plan recovered from a converged
    final solve (its column sums equal the prior exactly) along with the
    per-step loss trace.  The trace is recorded for benchmarking and is not
    guaranteed to be monotone.
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
