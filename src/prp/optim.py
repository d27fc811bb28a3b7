"""Projections and first-order optimizers used by all solvers."""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np


def project_simplex(v, floor: float = 0.0) -> np.ndarray:
    """Euclidean projection onto {w >= floor, sum w = 1} (sort-and-threshold).

    With a positive floor the projection composes with a shift/rescale; the
    solvers use a tiny floor while optimizing mixture weights so that no
    component's weight reaches exact zero, where its gradient channel dies.
    A (B, n) array stacks B vectors, each projected on its own along the
    last axis, bit for bit as a call on that row alone.
    """
    v = np.asarray(v, dtype=float)
    if floor > 0.0:
        slack = 1.0 - v.shape[-1] * floor
        if slack <= 0.0:
            raise ValueError("floor leaves no mass to distribute")
        return floor + slack * _project((v - floor) / slack, 1.0, -1)
    return _project(v, 1.0, -1)


def project_box(v, lower, upper) -> np.ndarray:
    """Componentwise clamp onto the box [lower, upper]."""
    return np.minimum(np.maximum(np.asarray(v, dtype=float), lower), upper)


def project_columns(matrix, totals) -> np.ndarray:
    """Project the columns of (..., n, K) plans onto {w >= 0, sum w = totals[k]}.

    The projection runs along axis -2, so a (B, n, K) stack of plans is
    projected plan by plan; a vector of length n with a scalar total is
    projected as one column.  With u a column sorted in decreasing order and
    S_j its partial sums, the projection is max(m - theta, 0) at
    theta = max_j (S_j - total) / j (Duchi et al., ICML 2008).  Each column
    is then rescaled onto its total so the output lies on the scaled simplex
    exactly.

    `totals` may also be given at the plans' full shape, as the descent
    loops do once per descent: on a 2x7x5 stack numpy multiplies two
    same-shape arrays in 0.40 us and takes 1.00 us when one operand is a
    broadcast (K,) vector, and the rank divisor comes at full shape from a
    small cache for the same reason.  Every entry is computed from the
    same operands either way, so the output is bit for bit the same.
    """
    m = np.asarray(matrix, dtype=float)
    return _project(m, totals, -1 if m.ndim == 1 else -2)


def _project(m, totals, axis: int) -> np.ndarray:
    """`project_columns` along `axis`, -1 or -2: the entries of each
    vector along it are projected onto {w >= 0, sum w = total}."""
    totals = np.asarray(totals, dtype=float)
    ascending = np.sort(m, axis=axis)
    descending = (ascending[..., ::-1] if axis == -1
                  else ascending[..., ::-1, :])
    # ufunc calls, not the ndarray.cumsum/.max/.sum wrappers: called at
    # every step
    partial = np.add.accumulate(descending, axis=axis)
    partial -= totals
    partial /= _ranks(m.shape, axis)
    w = m - np.maximum.reduce(partial, axis=axis, keepdims=True)
    np.maximum(w, 0.0, out=w)
    s = np.add.reduce(w, axis=axis, keepdims=True)
    dead = ~(s > 0.0)
    if np.logical_or.reduce(dead, axis=None):
        # the total is below the rounding of the largest entry: the limit
        # of the projection shares it among the column's maximal entries
        w = np.where(dead, m == m.max(axis=axis, keepdims=True), w)
        s = w.sum(axis=axis, keepdims=True)
    w *= totals / s
    return w


@functools.lru_cache(maxsize=16)
def _ranks(shape, axis: int) -> np.ndarray:
    """1, 2, ..., n along the projection axis (-1 or -2) of `_project`, at
    `shape`; read-only, since every caller of one shape shares it."""
    n = shape[axis]
    ranks = np.arange(1.0, n + 1.0).reshape((n, 1)[:-axis])
    ranks = np.ascontiguousarray(np.broadcast_to(ranks, shape))
    ranks.flags.writeable = False
    return ranks


@dataclass
class DescentConfig:
    """Optimizer, step count and learning rates of one descent run.

    The one home of these defaults.  The learning rates are 0.05 for
    simplex-constrained parameters (weights, plan columns) and 0.01 for
    atoms and network weights.
    """

    method: str = "adam"           # adam | rmsprop | pgd
    steps: int = 500
    lr_weights: float = 0.05
    lr_atoms: float = 0.01


# b1, 1 - b1, b2, 1 - b2, eps and bias correction of the moment rule
#     m <- b1 m + (1 - b1) g,  v <- b2 v + (1 - b2) g g,
#     p <- p - lr m_hat / (sqrt(v_hat) + eps)
# RMSProp is the rule with b1 = 0 and no bias correction (its 0.1 is the
# literal, as in the classic update), pgd also has b2 = 0 and eps = 1
RULES = {
    "adam": (0.9, 1.0 - 0.9, 0.999, 1.0 - 0.999, 1e-8, True),
    "rmsprop": (0.0, 1.0, 0.9, 0.1, 1e-8, False),
    "pgd": (0.0, 1.0, 0.0, 0.0, 1.0, False),
}


@dataclass
class OptimizerState:
    """First-order update state of one parameter array.

    The leading axis of the array stacks starts, one method per start;
    `coefficients` holds (b1, 1 - b1, b2, 1 - b2, eps) of `RULES` at the
    array's shape, as do the accumulators `m`, `v` and `start`, the index
    of each entry's start.  `corrections` holds 1 - b1^t and 1 - b2^t per
    start.
    """

    method: tuple                  # adam | rmsprop | pgd, one per start
    lr: float | np.ndarray
    coefficients: tuple
    m: np.ndarray
    v: np.ndarray
    start: np.ndarray
    corrections: np.ndarray        # (2, starts)
    t: int = 0


def make_optimizer(method, lr, param) -> OptimizerState:
    """Fresh state for `optimizer_step` on an array shaped like `param`.

    `method` is a name, or a sequence of B names for a `param` that stacks
    B starts along its leading axis; start b then steps by method[b], bit
    for bit as a state of its own would.  A single name is the one-start
    case.  `lr` is a scalar or an array that broadcasts against `param`.
    All three updates are elementwise, so one state over a concatenated
    vector with a per-entry `lr` takes bit for bit the steps of separate
    states over the pieces; the descent loops pack their weights and atoms
    that way to make one update call per step.

    The per-start coefficients are stored at the parameter's full shape,
    once per state: on the 2x49 packed rows of a toy direct descent numpy
    multiplies two same-shape arrays in 0.40 us and takes 0.97 us when one
    operand is a (B, 1) column.  Each entry is the same product either
    way.  The bias corrections are looked up at full shape per step.
    """
    names = (method,) if isinstance(method, str) else tuple(method)
    if not names or any(name not in RULES for name in names):
        raise ValueError(f"unknown optimizer {method!r}")
    param = np.asarray(param, dtype=float)
    stack = (len(names),) + (1,) * (param.ndim - 1) if param.ndim else ()

    def full(values):
        return np.broadcast_to(np.reshape(values, stack), param.shape).copy()

    coefficients = tuple(full(c) for c in
                         zip(*(RULES[name][:5] for name in names)))
    return OptimizerState(method=names, lr=lr, coefficients=coefficients,
                          m=np.zeros_like(param), v=np.zeros_like(param),
                          start=full(range(len(names))),
                          corrections=np.ones((2, len(names))))


def _bias_corrections(state: OptimizerState):
    """1 - b1^t and 1 - b2^t of the bias-corrected rules, 1.0 otherwise,
    each at the parameter's shape."""
    for b, name in enumerate(state.method):
        b1, _, b2, _, _, corrected = RULES[name]
        if corrected:
            state.corrections[0, b] = 1.0 - b1 ** state.t
            state.corrections[1, b] = 1.0 - b2 ** state.t
    return state.corrections[0][state.start], state.corrections[1][state.start]


def optimizer_step(state: OptimizerState, param, grad) -> np.ndarray:
    """One deterministic update; returns the new parameter array.

    ADAM uses beta1=0.9, beta2=0.999, eps=1e-8; RMSProp uses decay 0.9,
    eps=1e-8; pgd is a plain gradient step.  All three are one elementwise
    rule with the coefficients of `RULES`.
    """
    state.t += 1
    b1, c1, b2, c2, eps = state.coefficients
    bc1, bc2 = _bias_corrections(state)
    state.m = b1 * state.m + c1 * grad
    state.v = b2 * state.v + c2 * grad * grad
    m_hat = state.m / bc1
    v_hat = state.v / bc2
    return param - state.lr * m_hat / (np.sqrt(v_hat) + eps)


MAX_STEPS = 5000    # step cap of minimize_columns_pgd
_TOL = 1e-8         # relative objective decrease that ends a window of steps
_WINDOW = 25
_MAX_TRIALS = 8     # trial steps evaluated in one stack
_HALVINGS = 0.5 ** np.arange(_MAX_TRIALS)
# bounds lr * max |g| of the trial step: lr stays finite where lr0 = 1/lam or
# its doubling overflows (an infinite lr stays infinite when halved), and the
# half keeps log x - lr g finite after rounding, so no column of the trial
# step is inf - inf
_MAX_STEP = 0.5 * sys.float_info.max


@dataclass(frozen=True)
class PGDResult:
    x: np.ndarray
    value: float
    steps: int
    converged: bool


def minimize_columns_pgd(objective: Callable[[np.ndarray], np.ndarray],
                         gradient: Callable[[np.ndarray], np.ndarray],
                         init: np.ndarray, column_totals: np.ndarray,
                         lr0: float) -> PGDResult:
    """Monotone entropic projected gradient over column-wise scaled simplices.

    A step proposes x * exp(-lr * g) rescaled per column onto its total
    (mirror descent in the KL geometry, Beck & Teboulle 2003) and takes the
    first lr of the halving ladder lr, lr/2, ... (down to 1e-14) with
    f(x+) <= f(x) + <g, x+ - x> + KL(x+ || x) / lr, which makes it a
    descent step.  The trial lr is twice the last accepted one, at least
    lr0 and at most _MAX_STEP / max(1, max |g|), so lr * g stays finite.
    Exact zeros stay zero, so the gradient is read only where x > 0.

    Every caller stops on the one rule owned here: the descent converges
    when no trial lr gives a bound below f in floating point (the rounding
    floor of the line search), or when a window of _WINDOW steps lowered
    the objective by at most _TOL * max(1, |f|); it stops unconverged at
    MAX_STEPS steps, read at call time.

    ``objective`` maps a (J, n, K) stack of plans to their J values.  The
    ladder is evaluated _MAX_TRIALS trials per call and the first trial
    that passes is taken, so the iterates are those of trying one lr at a
    time.
    """
    totals = np.asarray(column_totals, dtype=float)
    x = np.asarray(init, dtype=float)
    x = x * (totals / x.sum(axis=0))
    f = float(objective(x[None])[0])
    lr = lr0
    window_anchor = f
    for step in range(1, MAX_STEPS + 1):
        g = np.where(x > 0.0, gradient(x), 0.0)
        with np.errstate(divide="ignore"):
            log_x = np.log(x)
        lr = min(max(lr * 2.0, lr0),
                 _MAX_STEP / max(1.0, float(np.abs(g).max())))
        found = _line_search(objective, x, log_x, g, f, lr, totals)
        if found is None:
            return PGDResult(x, f, step, True)
        x, f, lr = found
        if step % _WINDOW == 0:
            if window_anchor - f <= _TOL * max(1.0, abs(f)):
                return PGDResult(x, f, step, True)
            window_anchor = f
    return PGDResult(x, f, MAX_STEPS, False)


def _line_search(objective, x, log_x, g, f, lr, totals):
    """(x+, f(x+), lr) of the first passing trial lr, lr/2, ...

    Stacks _MAX_TRIALS trials per objective call.  None when a trial's
    bound is not below f (the decrease is below the resolution of f)
    before one passes, or when lr falls below 1e-14.
    """
    while lr >= 1e-14:
        rates = lr * _HALVINGS
        rates = rates[rates >= 1e-14]
        with np.errstate(over="ignore"):
            # at lr near the largest float, z - max z may round to -inf,
            # whose exp is the 0 of the limit
            z = log_x - rates[:, None, None] * g
            cand = np.exp(z - z.max(axis=-2, keepdims=True))
        cand *= totals / cand.sum(axis=-2, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            kl = np.where(cand > 0.0, cand * (np.log(cand) - log_x), 0.0)
        bound = (f + (g * (cand - x)).sum(axis=(-2, -1))
                 + kl.sum(axis=(-2, -1)) / rates)
        floor = (bound >= f).tolist()
        live = floor.index(True) if True in floor else rates.size
        if live:
            values = objective(cand[:live])
            passed = (values <= bound[:live]).tolist()
            if True in passed:
                j = passed.index(True)
                return cand[j], float(values[j]), float(rates[j])
        if live < rates.size:
            return None
        lr = float(rates[-1]) * 0.5
    return None
