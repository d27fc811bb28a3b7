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
stack saves most of that.  The same holds for the Newton step solves: a
step's B solves run as one `_newton` stack, which builds and solves the B
systems in one call each and evaluates the B trials in one `_semi_dual`
call, and a start leaves the stack as soon as it stops.  On 2-vCPU runs
(BENCH_30.json) the time in `_solve` fell by 33% on the 6-start
`auctions` sweep and by 7.5% on 2-start toy descents.
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


def _semi_dual(log_kernel, weights, beta, psi):
    """At the (B, K) potentials psi of a stack of solves: the gradients g of
    G, the row-exact plans P, Q = P / alpha, colsum(P), |g|_inf, and the
    row sums of the shifted kernel rows and their shifts (the row maxima),
    from which `_value` computes the row log-sums and G when they are
    needed.  The kernel, the weights and P and Q are (B, K, n) stacks of
    transposed (n, K) arrays (see `_newton`)."""
    # ufunc reductions, not ndarray.max/.sum: on these small arrays the
    # wrapper costs a large share of the call
    m = log_kernel + psi[:, :, None]
    shift = np.maximum.reduce(m, axis=1)
    e = np.exp(m - shift[:, None, :])
    mass = np.add.reduce(e, axis=1)
    # e / mass, not exp(m - lse): its rounding does not grow with |psi|
    q = e / mass[:, None, :]
    p = weights * q
    col = np.add.reduce(p, axis=2)
    g = beta - col
    return g, p, q, col, np.maximum.reduce(np.abs(g), axis=1), mass, shift


def _value(alpha, beta, psi, mass, shift):
    """G(psi) of one solve, from the row sums and shifts of its state."""
    return beta @ psi - alpha @ (np.log(mass) + shift)


def _search(j, log_kernel, weights, beta, psi, d, state, trial, new, value):
    """The line search of solve j of the stack, whose t = 1 trial did not
    lower |g|_inf: the Armijo test on G at t = 1, then trials at t = 1/2,
    1/4, ... on this solve alone.  `value` is G at psi[j] or None.  An
    accepted t < 1 trial and its state overwrite row j of `trial` and
    `new`.  Returns whether a step was accepted and G at it (None where it
    passed on |g|_inf)."""
    alpha = weights[j, 0]   # each row of the spread weights is alpha
    slope = state[0][j] @ d[j]
    if value is None:
        value = _value(alpha, beta, psi[j], state[5][j], state[6][j])
    t, at, mass, shift = 1.0, trial[j], new[5][j], new[6][j]
    while True:
        new_value = _value(alpha, beta, at, mass, shift)
        if new_value >= value + _ARMIJO * t * slope:
            break
        t *= 0.5
        if t < _MIN_STEP:
            return False, None
        at = psi[j] + t * d[j]
        one = _semi_dual(log_kernel[j:j + 1], weights[j:j + 1], beta,
                         at[None])
        if one[4][0] < state[4][j]:
            new_value = None
            break
        mass, shift = one[5][0], one[6][0]
    if t < 1.0:
        trial[j] = at
        for stacked, row in zip(new, one):
            stacked[j] = row[0]
    return True, new_value


def _newton(log_kernel, weights, beta, psi, cap: int, tol: float):
    """Damped Newton ascent of G for a stack of B solves, all column
    weights positive.

    `log_kernel` and `weights` are C-ordered (B, K, n) stacks of the
    transposed (n, K) log-kernels and spread row weights, and psi is the
    (B, K) stack of starts.  Each start's (n, K) view keeps the Fortran
    order of the column gather `cost_matrix[:, cols]`, and with it the BLAS
    order of `p.T @ q` and `q @ r`: a C-ordered kernel changed the result of
    35 of 40 random 12x10 solves at lam = 1e-3 and 0.1.  P = alpha * Q
    multiplies two same-shape arrays; on 7x5 arrays that takes 0.45 us
    against 1.19 us for alpha[:, None] * Q.

    A step makes one stacked Newton system and solve and one stacked t = 1
    trial (psi + d, which is psi + 1.0 * d to the bit) for every start
    still in the stack.  A start whose trial does not lower |g|_inf takes
    the Armijo test and any shorter trials on its own (`_search`).  That
    is rare: 10 toy descents of 2 starts and 100 steps made 12,218 t = 1
    trials and 923 shorter ones.  A start leaves the stack when it stops:
    at |g|_inf < tol, after cap steps, when no step gains, or after _STALL
    accepted steps without a new lowest |g|_inf.  Its numbers are then bit
    for bit those of a stack of one.  Returns per start its last psi, P
    and Q as (n, K) views, colsum(P), the row log-sums, whether |g|_inf
    fell below tol and the number of steps.
    """
    state = _semi_dual(log_kernel, weights, beta, psi)
    b, k = psi.shape
    live, sizes = list(range(b)), state[4].tolist()
    best, since, steps = sizes[:], [0] * b, [0] * b
    values = [None] * b   # G at a start's psi, once a trial has needed it
    ends = [None] * b

    def end(j, psi, state):
        _, p, q, col, size, mass, shift = (x[j] for x in state)
        return psi[j], p.T, q.T, col, np.log(mass) + shift, size < tol

    while True:
        going = []
        for j, i in enumerate(live):
            if ends[i] is not None:
                continue   # no step gained
            if (steps[i] < cap and sizes[j] >= tol and sizes[j] > 0.0
                    and since[i] < _STALL):
                going.append(j)
            else:
                ends[i] = end(j, psi, state)
        if len(going) < len(live):
            if not going:
                return [(*e, s) for e, s in zip(ends, steps)]
            live, sizes = [live[j] for j in going], [sizes[j] for j in going]
            # a run of starts is a slice, a view; no array of the state is
            # written once it is the state
            if going[-1] - going[0] == len(going) - 1:
                going = slice(going[0], going[-1] + 1)
            log_kernel, weights, psi = (log_kernel[going], weights[going],
                                        psi[going])
            state = tuple(x[going] for x in state)
        g, p, q, col, size = state[:5]
        system = -(p @ q.transpose(0, 2, 1))
        system.reshape(-1, k * k)[:, ::k + 1] += col + _DAMPING * size[:, None]
        system += (np.add.reduce(col, axis=1) / k / k)[:, None, None]
        d = np.linalg.solve(system, g[:, :, None])[:, :, 0]
        trial = psi + d
        new = _semi_dual(log_kernel, weights, beta, trial)
        new_sizes = new[4].tolist()
        for j, i in enumerate(live):
            if new_sizes[j] < sizes[j]:
                values[i] = None
                continue
            moved, values[i] = _search(j, log_kernel, weights, beta, psi, d,
                                       state, trial, new, values[i])
            if moved:
                new_sizes[j] = float(new[4][j])
            else:
                ends[i] = end(j, psi, state)
        psi, state, sizes = trial, new, new_sizes
        for j, i in enumerate(live):
            if ends[i] is None:
                steps[i] += 1
                if sizes[j] < best[i]:
                    best[i], since[i] = sizes[j], 0
                else:
                    since[i] += 1


def _check_lam(lam):
    if not 0.0 < lam < np.inf:
        raise ValueError(f"lam must be positive and finite, got {lam!r}")


def _check_simplex(w, name):
    if w.min(initial=0.0) < 0.0 or abs(w.sum() - 1.0) > 1e-9:
        raise ValueError(f"{name} must lie on the simplex")


def _marginal_error(plan, alpha, beta) -> float:
    return float(max(np.abs(plan.sum(axis=1) - alpha).max(),
                     np.abs(plan.sum(axis=0) - beta).max()))


def _solve(alpha, beta, cols, cost_matrix, lams, log_v, cap: int,
           tol: float):
    """The solve of `solve_sinkhorn` on a stack of B checked instances.

    `alpha` (B, n) and `cost_matrix` (B, n, m) stack the instances, which
    share beta (m,) and with it `cols`, the indices of its positive
    entries; `lams` holds one lam per instance and `log_v` is None or
    (B, m).  All B solves run as one `_newton` stack.  Returns the
    C-ordered, zero-filled (B, n, m) plans, the (B, m) log v, and per
    instance the loss, the envelope gradient in alpha, the number of Newton
    steps and the row log-sums, each bit for bit those of a stack of one.
    The finish runs instance by instance, in order: a solve that stops
    short of tol warns with its marginal error, and one with a column of
    the row-exact plan at 0 mass raises `FloatingPointError`.
    """
    instances, n = alpha.shape
    b = beta[cols]
    log_kernel = np.empty((instances, cols.size, n))
    # zero-weight rows stay in the system: their rows of P are exactly 0
    np.divide(cost_matrix[:, :, cols].transpose(0, 2, 1),
              -np.asarray(lams)[:, None, None], out=log_kernel)
    weights = np.empty_like(log_kernel)
    weights[...] = alpha[:, None, :]
    start = (np.zeros((instances, cols.size)) if log_v is None
             else np.ascontiguousarray(log_v[:, cols]))
    ends = _newton(log_kernel, weights, b, start, cap, tol)
    plans = np.zeros(cost_matrix.shape)
    log_v = np.full((instances, beta.size), -np.inf)
    losses, grads, steps, lses = [], np.empty((instances, n)), [], []
    for i, (psi, p, q, col, lse, converged, count) in enumerate(ends):
        lam = lams[i]
        if not (col > 0.0).all():
            raise FloatingPointError(
                f"Sinkhorn solve at lam={lam:g} stopped after {count} Newton "
                f"steps with a column of the plan at 0 mass")
        # the column update from the row-exact plan P: plan = P r, psi + log r
        r = b / col
        core = p * r
        psi = psi + np.log(r)
        # C + lam log(plan / (alpha x beta)) = lam (phi - log a + psi - log b)
        loss = lam * (np.add.reduce(core, axis=1) @ -lse
                      + b @ (psi - np.log(b)))
        plans[i][:, cols] = core
        log_v[i, cols] = psi
        f = -(lse + np.log(q @ r))   # -log(K v) at the updated psi
        if not converged:
            warnings.warn(f"Sinkhorn solve at lam={lam:g} stopped after "
                          f"{count} Newton steps with marginal error "
                          f"{_marginal_error(plans[i], alpha[i], beta):.3g}",
                          RuntimeWarning, stacklevel=3)
        losses.append(float(loss))
        grads[i] = lam * (f - f @ alpha[i] - 1.0)
        steps.append(count)
        lses.append(lse)
    return plans, log_v, losses, grads, steps, lses


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
    plans, log_v, losses, grads, steps, lses = _solve(
        alpha[None], beta, (beta > 0.0).nonzero()[0], cost_matrix[None],
        [lam], None if log_v is None else log_v[None], cap, tol)
    with np.errstate(divide="ignore"):
        phi = np.log(alpha) - lses[0]
    return SinkhornResult(plans[0], phi, log_v[0], losses[0], steps[0],
                          _marginal_error(plans[0], alpha, beta), grads[0])


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
    The step solves of all starts are one `_solve` call, and so one
    `_newton` stack (see the module docstring).  The previous step's matrix
    and adjoint are released before the next oracle call, so the adjoint's
    intermediates of one step only are alive.

    The checks of `solve_sinkhorn` run once per descent: beta and lam do
    not change, alpha comes out of `project_simplex` and log v out of the
    previous solve.  The step solves call `_solve` directly; it builds the
    plans, the losses, log v and the alpha-gradients, and the marginal
    error only for the warning of a solve that stops short.  Two memory
    orders fix the rounding of every step, so they stay even where a
    shortcut would give the same values up to rounding.  Each start's
    (n, K) log-kernel is a Fortran-ordered view of the C-ordered (B, K, n)
    stack that `_solve` copies the gathered columns into, also when every
    type has positive weight, and that order sets the BLAS summation order
    of `q @ r` and `p.T @ q`: a C-ordered kernel moved the losses of
    100-step toy descents (the benchmark's toy panel of seed 313) by up
    to 6.4e-8.  The plan stack handed to the cost adjoint is C-ordered and
    zero-filled: an F-ordered plan moved the trade-off values of a CLI
    `sweep` by up to 9e-13 relative.
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
    log_v = None
    grad = np.empty(state.lr.shape)
    for step in range(steps):
        matrix, adjoint = cost_with_adjoint(cost, atoms, type_atoms)
        plans, log_v, trace[:, step], grad[:, :n], *_ = _solve(
            alpha, beta, cols, matrix, lams, log_v, _CAP, 1e-8)
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
