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
after a run of accepted steps without a new lowest |g|_inf.  Each trial
is tested on |g|_inf first: G, and with it the row log-sums
lse_i = lse_j(-C_ij/lam + psi_j), is computed only for a trial that fails
that test, and then for the current psi too (once per iterate).  The
finish computes lse once more.  The solve
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
`minimize_sinkhorn_starts`, packed bid policies in
`auctions.train_strategy_starts`; these two are the scheme's entry
points.  It descends a stack of B independent starts, each with its own
lam and optimizer config: a step makes one cost-oracle call on all B atom
arrays, one packed optimizer step and one stacked simplex and box
projection, and every start's numbers are bit for bit those of a stack of
one.  Where the oracle works on small arrays, as the auction cost does on
12 policies, numpy's cost per call dominates it and one call for the
stack saves most of that.  The Newton step solves stay a loop over the
starts: a stacked Newton step on the paired toy solves was bit-identical
but cost 1.43x a single step, more than the Newton steps it saved.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .measures import (CostOracle, DiscreteDistribution, TransportPlan,
                       atom_count, cost_with_adjoint)
from .optim import (box_starts, optimizer_step, packed_optimizer,
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
_CAP = 3000     # Newton steps of one solve


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
    """At psi: the gradient g of G, the row-exact plan P, Q = P / alpha,
    colsum(P), |g|_inf, and the row sums of the shifted kernel rows and
    their shifts (the row maxima), from which `_lse` and `_value` compute
    the row log-sums and G when they are needed.  `alpha` is given at the
    log-kernel's shape and memory order (see `_newton`)."""
    # ufunc reductions, not ndarray.max/.sum: on these small arrays the
    # wrapper costs a large share of the call
    m = log_kernel + psi
    shift = np.maximum.reduce(m, axis=1)
    e = np.exp(m - shift[:, None])
    mass = np.add.reduce(e, axis=1)
    # e / mass, not exp(m - lse): its rounding does not grow with |psi|
    q = e / mass[:, None]
    p = alpha * q
    col = np.add.reduce(p, axis=0)
    g = beta - col
    return g, p, q, col, np.maximum.reduce(np.abs(g)), mass, shift


def _lse(state):
    """The row log-sums lse_j(log K_ij + psi_j) of a `_semi_dual` state."""
    return np.log(state[5]) + state[6]


def _value(alpha, beta, psi, state):
    """G(psi) from the `_semi_dual` state at psi."""
    return beta @ psi - alpha @ _lse(state)


def _newton(log_kernel, alpha, beta, psi, cap: int, tol: float):
    """Damped Newton ascent of G from psi, all column weights positive.

    Stops at |g|_inf < tol, after cap steps, when no step gains, or
    after _STALL accepted steps without a new lowest |g|_inf.  Returns the
    last psi, the `_semi_dual` state there, the number of steps taken and
    whether |g|_inf fell below tol.

    The row weights are spread once per solve to the log-kernel's shape,
    so that P = alpha * Q multiplies two same-shape arrays: on 7x5 arrays
    that takes 0.45 us against 1.19 us for alpha[:, None] * Q.  The
    spread copy takes the kernel's memory order (`np.empty_like`), which
    P then inherits: the kernel's Fortran order sets the BLAS order of
    `p.T @ q`, and a C-ordered copy changed the result of 35 of 40
    random 12x10 solves at lam = 1e-3 and 0.1.  The t = 1 trial is
    psi + d, which is psi + 1.0 * d to the bit.
    """
    weights = np.empty_like(log_kernel)
    weights[...] = alpha[:, None]
    state = _semi_dual(log_kernel, weights, beta, psi)
    g, p, q, col, size = state[:5]
    value = None   # G(psi), once a trial has needed it
    k = col.size
    best, since = size, 0
    steps = 0
    while (steps < cap and size >= tol and size > 0.0
           and since < _STALL):
        system = -(p.T @ q)
        system.ravel()[::k + 1] += col + _DAMPING * size
        system += np.add.reduce(col) / k / k
        d = np.linalg.solve(system, g)
        slope = g @ d
        t = 1.0
        while t >= _MIN_STEP:
            trial = psi + d if t == 1.0 else psi + t * d
            new = _semi_dual(log_kernel, weights, beta, trial)
            new_value = None
            if new[4] < size:
                break
            if value is None:
                value = _value(alpha, beta, psi, state)
            new_value = _value(alpha, beta, trial, new)
            if new_value >= value + _ARMIJO * t * slope:
                break
            t *= 0.5
        else:
            break   # no step gains on G or |g|_inf at rounding level
        psi, state, value = trial, new, new_value
        g, p, q, col, size = state[:5]
        steps += 1
        best, since = (size, 0) if size < best else (best, since + 1)
    return psi, state, steps, size < tol


def _check_lam(lam):
    if not 0.0 < lam < np.inf:
        raise ValueError(f"lam must be positive and finite, got {lam!r}")


def _check_simplex(w, name):
    if w.min(initial=0.0) < 0.0 or abs(w.sum() - 1.0) > 1e-9:
        raise ValueError(f"{name} must lie on the simplex")


def _marginal_error(plan, alpha, beta) -> float:
    return float(max(np.abs(plan.sum(axis=1) - alpha).max(),
                     np.abs(plan.sum(axis=0) - beta).max()))


def _solve(alpha, beta, cols, cost_matrix, lam: float, log_v, cap: int,
           tol: float):
    """The solve of `solve_sinkhorn` on checked arrays.

    `cols` indexes the positive entries of beta; `log_v` is None or has
    beta's shape.  Returns the plan, log v, the loss, the envelope
    gradient in alpha, the number of Newton steps and the row log-sums.
    A solve that stops short of tol warns with its marginal error.
    """
    b = beta[cols]
    start = np.zeros(cols.size) if log_v is None else log_v[cols]
    # zero-weight rows stay in the system: their rows of P are exactly 0
    psi, state, steps, converged = _newton(
        -cost_matrix[:, cols] / lam, alpha, b, start, cap, tol)
    _, p, q, col = state[:4]
    if not (col > 0.0).all():
        raise FloatingPointError(
            f"Sinkhorn solve at lam={lam:g} stopped after {steps} Newton "
            f"steps with a column of the plan at 0 mass")
    # the column update from the row-exact plan P: plan = P r, psi + log r
    r = b / col
    core = p * r
    psi = psi + np.log(r)
    lse = _lse(state)
    # C + lam log(plan / (alpha x beta)) = lam (phi - log a + psi - log b)
    loss = lam * (np.add.reduce(core, axis=1) @ -lse
                  + b @ (psi - np.log(b)))
    plan = np.zeros(cost_matrix.shape)
    plan[:, cols] = core
    log_v = np.full(beta.size, -np.inf)
    log_v[cols] = psi
    f = -(lse + np.log(q @ r))   # -log(K v) at the updated psi
    if not converged:
        warnings.warn(f"Sinkhorn solve at lam={lam:g} stopped after {steps} "
                      f"Newton steps with marginal error "
                      f"{_marginal_error(plan, alpha, beta):.3g}",
                      RuntimeWarning, stacklevel=3)
    return plan, log_v, float(loss), lam * (f - f @ alpha - 1.0), steps, lse


# bench/tracing.py reads the `cap` default, through prp.auctions._unroll_budget
def solve_sinkhorn(alpha, beta, cost_matrix, lam: float, log_v=None,
                   cap: int = _CAP, tol: float = 1e-9) -> SinkhornResult:
    """Solve the instance by damped Newton ascent of the semi-dual.

    alpha weighs the action atoms (rows of `cost_matrix`) and beta the
    types (its columns); both must lie on the simplex, and lam must be
    positive and finite.  Returns the plan, the potentials log u = phi and
    log v = psi (-inf on zero-weight rows and columns), the loss and the
    envelope gradient in alpha.  `log_v` warm-starts psi, e.g. with the
    `log_v` of the previous solve in a descent loop, and must have beta's
    shape.  A solve that stops short of `tol` (after `cap` Newton steps, or
    where rounding stalls it) warns, and one that stops with a column of
    the row-exact plan at 0 mass raises `FloatingPointError`.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    cost_matrix = np.asarray(cost_matrix, dtype=float)
    _check_lam(lam)
    if cap < 1:
        raise ValueError("need at least one Newton step")
    _check_simplex(alpha, "alpha")
    _check_simplex(beta, "beta")
    if cost_matrix.shape != (alpha.size, beta.size):
        raise ValueError("cost matrix shape must match the marginals")
    if log_v is not None:
        log_v = np.asarray(log_v, dtype=float)
        if log_v.shape != beta.shape:
            raise ValueError("log_v must have the shape of beta")
    plan, log_v, loss, grad, steps, lse = _solve(
        alpha, beta, (beta > 0.0).nonzero()[0], cost_matrix, lam, log_v, cap,
        tol)
    with np.errstate(divide="ignore"):
        phi = np.log(alpha) - lse
    return SinkhornResult(plan, phi, log_v, loss, steps,
                          _marginal_error(plan, alpha, beta), grad)


# unused by prp; kept because bench/tracing.py reads it
def needs_log_domain(cost_matrix, lam: float) -> bool:
    """Whether some kernel entry exp(-C/lam) would fall below 1e-300."""
    c = np.abs(np.asarray(cost_matrix)).max(initial=0.0)
    return bool(c / lam > _LOG_DOMAIN_EXPONENT)


def _descend(atoms, prior_weights, type_atoms, cost: CostOracle, lams,
             configs, floor: float, box=None):
    """Descend the entropic-OT loss over (weights, atoms) from B starts.

    `atoms` is the (B, n, ...) stack of starting atoms, `lams` and
    `configs` hold one lam and one `DescentConfig` per start, and the
    configs share `steps` (`optim.packed_optimizer`).
    Each step solves every start's instance once to tol 1e-8, warm started
    from that start's previous log v, and takes one packed optimizer step
    with the envelope gradients of all starts.  The tolerance bounds the
    column error |g|_inf of the last Newton iterate; the marginal error is
    the row error after the final column update, which can exceed it
    slightly (up to about 1.6e-8 has been seen at lam=1e-3).  On the toy
    benchmark panels of seeds 1 to 5 (10,000 warm-started step solves at
    lam=0.1) a step solve took 5.75 Newton steps on average (57,471 in
    all), median 6, at most 12.  The weights start uniform and are
    projected onto {w >= floor, sum w = 1}, the atoms onto `box`, given
    as its (lower, upper) edges at the atoms' shape (`optim.box_starts`),
    if there is one.  Returns the final (B, n, ...) atoms, per start the
    plan of a final `solve_sinkhorn` to the default tol 1e-9 (its column
    sums equal the prior), and the (B, steps) loss traces.

    The starts share the loop, not their numbers: a step makes one cost
    oracle call on the (B, n, ...) atoms, one `optimizer_step` on the
    packed (B, n + atom size) rows and one stacked simplex and box
    projection, and each of these acts on every start alone, so a start's
    atoms, plan and trace are bit for bit those of a stack of one.
    The Newton step solves run start by start (see the module docstring).
    The previous step's matrix and adjoint are released before the next
    oracle call, so the adjoint's intermediates of one step only are alive.

    The checks of `solve_sinkhorn` run once per descent: beta and lam do
    not change, alpha comes out of `project_simplex` and log v out of the
    previous solve.  A step solve calls `_solve` directly; it builds the
    plan, the loss, log v and the alpha-gradient, and the marginal error
    only for the warning of a solve that stops short.  Two memory orders
    fix the rounding of every step, so they stay even where a shortcut
    would give the same values up to rounding.  The column gather
    `cost_matrix[:, cols]` is Fortran-ordered, also when every type has
    positive weight, and that order sets the BLAS summation order of
    `q @ r` and `p.T @ q`: skipping the gather moved the losses of
    100-step toy descents (the benchmark's toy panel of seed 313) by up
    to 6.4e-8.  Each start's `matrix[i]` is a C-contiguous slice, so its
    gather keeps that order.  The plan stack handed to the cost adjoint is
    C-ordered and zero-filled: an F-ordered plan moved the trade-off values
    of a CLI `sweep` by up to 9e-13 relative.
    """
    b, n = atoms.shape[:2]
    state, steps = packed_optimizer(configs, n, atoms)
    alpha = np.full((b, n), 1.0 / n)
    beta = np.asarray(prior_weights, dtype=float)
    for lam in lams:
        _check_lam(lam)
    _check_simplex(beta, "beta")
    cols = (beta > 0.0).nonzero()[0]
    trace = np.empty((b, steps))
    log_v = [None] * b
    grad = np.empty(state.lr.shape)
    for step in range(steps):
        matrix, adjoint = cost_with_adjoint(cost, atoms, type_atoms)
        plans = np.zeros(matrix.shape)
        for i in range(b):
            plans[i], log_v[i], trace[i, step], grad[i, :n], *_ = _solve(
                alpha[i], beta, cols, matrix[i], lams[i], log_v[i], _CAP,
                1e-8)
        grad[:, n:] = adjoint(plans).reshape(b, -1)
        del matrix, adjoint
        packed = optimizer_step(
            state, np.concatenate((alpha, atoms.reshape(b, -1)), axis=1),
            grad)
        alpha = project_simplex(packed[:, :n], floor=floor)
        atoms = packed[:, n:].reshape(atoms.shape)
        if box is not None:
            atoms = project_box(atoms, *box)
    matrix, _ = cost_with_adjoint(cost, atoms, type_atoms)
    plans = [solve_sinkhorn(alpha[i], beta, matrix[i], lams[i], log_v[i]).plan
             for i in range(b)]
    return atoms, plans, trace


def minimize_sinkhorn_starts(prior_weights, type_atoms, cost: CostOracle,
                             lam: float, starts) -> list:
    """First-order descent of the entropic-OT loss from B starts.

    `starts` is a sequence of (DescentConfig, seed) pairs that share
    `steps`.  Start b places K + 2 atoms uniform in the cost box, drawn
    from default_rng(seed[b]), and steps by its config's method and
    learning rates; all starts descend as one `_descend` stack with weight
    floor min(1e-6, 0.1/n).  Returns one (plan, trace) per start, each bit
    for bit that of a stack of that start alone: the plan of its final
    solve and the per-step loss trace.  The trace is recorded for
    benchmarking and is not guaranteed to be monotone.
    """
    prior_weights = np.asarray(prior_weights, dtype=float)
    type_atoms_arr = np.asarray(type_atoms, dtype=float)
    n = atom_count(prior_weights.size)
    starts = list(starts)
    atoms, box = box_starts(cost, n, [seed for _, seed in starts])
    atoms, gammas, traces = _descend(atoms, prior_weights, type_atoms_arr,
                                     cost, [lam] * len(starts),
                                     [config for config, _ in starts],
                                     min(1e-6, 0.1 / n), box)
    prior = DiscreteDistribution(list(type_atoms_arr), prior_weights)
    types = list(type_atoms_arr)
    return [(TransportPlan(gamma, list(x), types, prior), trace)
            for x, gamma, trace in zip(atoms, gammas, traces)]
