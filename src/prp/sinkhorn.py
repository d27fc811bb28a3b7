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
G cannot resolve the gain in floating point.  For the same reason a tol
below the rounding floor of |g|_inf is never met, so the solve also stops
after a run of accepted steps without a new lowest |g|_inf.  The solve
ends with one column update of the row-exact plan P at the last psi:
with r = beta / colsum(P) the plan is P diag(r) and psi moves by log r,
so the columns are exact and the marginal error is the row error.  On
its support C + lam log(plan / (alpha x beta)) = lam (phi - log alpha +
psi - log beta), so the loss is

    L = lam (<rowsum(plan), phi - log alpha> + <beta, psi - log beta>)

with no logarithm of the plan.  Zero-weight rows and columns stay out of
the Newton system.  The solve works on potentials only and returns them
as log u and log v, so it runs at any lam.  A solve may start from the
log v of an earlier solve; the descent loop passes it on from step to step.

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

One descent loop, `_descend`, serves every cost: box atoms under x . y in
`minimize_sinkhorn`, packed bid policies in `auctions.train_strategy`.
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
# accepted steps without a new lowest |g|_inf after which the solve stops:
# at the rounding floor of the column error both acceptance tests pass by
# chance and the steps wander.  Far from the optimum, damped steps can gain
# on G alone for up to 85 steps (a cold 3x3 solve at lam=1e-3).
_STALL = 100


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


def _newton(log_kernel, alpha, beta, psi, max_iter: int, tol: float):
    """Damped Newton ascent of G from psi, all weights positive.

    Stops at |g|_inf < tol, after max_iter steps, when no step gains, or
    after _STALL accepted steps without a new lowest |g|_inf.  Returns the
    last psi, the row-exact plan P, the row log-sums and colsum(P) there,
    the number of steps taken and whether |g|_inf fell below tol.
    """
    value, g, p, q, lse, col, size = _semi_dual(log_kernel, alpha, beta, psi)
    k = col.size
    best, since = size, 0
    steps = 0
    while (steps < max_iter and size >= tol and size > 0.0
           and since < _STALL):
        system = -(p.T @ q)
        diagonal = np.einsum("ii->i", system)   # a writable view
        diagonal += col + _DAMPING * size
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
    return psi, p, lse, col, steps, size < tol


def solve_sinkhorn(problem: SinkhornProblem, init_log_v=None) -> SinkhornResult:
    """Solve the instance by damped Newton ascent of the semi-dual.

    Returns the plan, the potentials log u = phi and log v = psi (-inf on
    zero-weight rows and columns), the loss and the envelope gradient in
    alpha.  `init_log_v` warm-starts psi = log v, e.g. with the `log_v` of
    the previous solve in a descent loop.  A solve that stops short of
    `tol` (at `max_iter`, or where rounding stalls it) warns.
    """
    alpha, beta, lam = problem.alpha, problem.beta, problem.lam
    log_kernel = -problem.cost_matrix / lam
    rows, cols = (alpha > 0.0).nonzero()[0], (beta > 0.0).nonzero()[0]
    support = rows[:, None], cols
    a, b = alpha[rows], beta[cols]
    start = (np.zeros(beta.size) if init_log_v is None
             else np.asarray(init_log_v, dtype=float))
    psi, p, lse, col, steps, converged = _newton(
        log_kernel[support], a, b, start[cols], problem.max_iter, problem.tol)
    # the column update from the row-exact plan P: plan = P r, psi + log r
    r = b / col
    core = p * r
    psi = psi + np.log(r)
    row_mass = core.sum(axis=1)
    # C + lam log(plan / (alpha x beta)) = lam (phi - log a + psi - log b)
    loss = lam * (row_mass @ -lse + b @ (psi - np.log(b)))
    error = float(max(np.abs(row_mass - a).max(),
                      np.abs(core.sum(axis=0) - b).max()))
    plan = np.zeros(problem.cost_matrix.shape)
    plan[support] = core
    phi = np.full(alpha.size, -np.inf)
    phi[rows] = np.log(a) - lse
    log_v = np.full(beta.size, -np.inf)
    log_v[cols] = psi
    m = log_kernel[:, cols] + psi
    shift = m.max(axis=1)
    f = -np.log(np.exp(m - shift[:, None]).sum(axis=1)) - shift  # -log(K v)
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


def sinkhorn_loss(problem: SinkhornProblem) -> float:
    """Entropic-OT value of the instance (solved to the problem's tolerance)."""
    return solve_sinkhorn(problem).loss


# bench/tracing.py reads the `cap` default, through prp.auctions._unroll_budget
def step_solve(alpha, cost_matrix, beta, lam: float, log_v=None,
               cap: int = 3000) -> SinkhornResult:
    """The solve behind one descent step, warm started from the last `log_v`.

    At most `cap` Newton steps, to tol 1e-8.  The tolerance bounds the
    column error |g|_inf of the last Newton iterate; the reported
    `marginal_error` is the row error after the final column update, which
    can exceed it slightly (up to about 1.6e-8 has been seen at lam=1e-3).
    On the toy benchmark panels of seeds 1 to 5 (10,000 warm-started step
    solves at lam=0.1) a step solve took 5.7 Newton steps on average,
    median 6, at most 12.
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


def _descend(atoms, prior_weights, type_atoms, cost: CostOracle, lam: float,
             config: DescentConfig, floor: float):
    """Descend the entropic-OT loss over (weights, atoms) from `atoms`.

    Each step solves the instance once with `step_solve`, warm started from
    the previous step's log v, and takes one packed optimizer step with its
    envelope gradients.  The weights start uniform and are projected onto
    {w >= floor, sum w = 1}, the atoms onto the oracle's box if it has
    `bounds`.  Returns the final atoms, the plan of a final solve to tol
    1e-9 (its column sums equal the prior) and the per-step loss trace.
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
        result = step_solve(alpha, matrix, prior_weights, lam, log_v)
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
    result = solve_sinkhorn(SinkhornProblem(alpha, prior_weights, matrix, lam),
                            log_v)
    return atoms, result.plan, trace


def minimize_sinkhorn(prior_weights, type_atoms, cost: CostOracle, lam: float,
                      n_atoms: int | None = None,
                      config: DescentConfig | None = None,
                      seed: int = 0):
    """First-order descent of the entropic-OT loss over (weights, atoms).

    Atom locations start uniform in the cost box, drawn from `seed`, and
    the descent is `_descend` with weight floor min(1e-6, 0.1/n).  Returns
    the plan of its final solve along with the per-step loss trace.  The
    trace is recorded for benchmarking and is not guaranteed to be
    monotone.
    """
    if cost.bounds is None:
        raise ValueError("minimize_sinkhorn needs a cost oracle with box bounds")
    prior_weights = np.asarray(prior_weights, dtype=float)
    type_atoms_arr = np.asarray(type_atoms, dtype=float)
    n = n_atoms if n_atoms is not None else prior_weights.size + 2
    if n < 1:
        raise ValueError("need at least one action atom")
    bounds = np.asarray(cost.bounds, dtype=float)
    rng = np.random.default_rng(seed)
    atoms = rng.uniform(bounds[:, 0], bounds[:, 1], size=(n, bounds.shape[0]))
    atoms, gamma, trace = _descend(atoms, prior_weights, type_atoms_arr, cost,
                                   lam, config or DescentConfig(),
                                   min(1e-6, 0.1 / n))
    prior = DiscreteDistribution(list(type_atoms_arr), prior_weights)
    plan = TransportPlan(gamma, list(atoms), list(type_atoms_arr), prior)
    return plan, trace
