"""Projections and first-order optimizers used by all solvers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np


def project_simplex(v, total: float = 1.0, floor: float = 0.0) -> np.ndarray:
    """Euclidean projection onto {w >= floor, sum w = total} (sort-and-threshold).

    With a positive floor the projection composes with a shift/rescale; the
    solvers use a tiny floor while optimizing mixture weights so that no
    component's weight reaches exact zero (where its gradient channel dies
    and backward-pass round-off gets amplified by 1/weight).
    """
    v = np.asarray(v, dtype=float)
    if total <= 0.0:
        raise ValueError("total must be positive")
    if floor > 0.0:
        slack = total - v.size * floor
        if slack <= 0.0:
            raise ValueError("floor leaves no mass to distribute")
        return floor + slack * project_simplex((v - floor) / slack)
    return project_columns(v, total)


def project_box(v, lower, upper) -> np.ndarray:
    """Componentwise clamp onto the box [lower, upper]."""
    return np.minimum(np.maximum(np.asarray(v, dtype=float), lower), upper)


def project_columns(matrix, totals) -> np.ndarray:
    """Project each column k of an (n, K) matrix onto {w >= 0, sum w = totals[k]}.

    A vector of length n with a scalar total is projected as one column.
    With u a column sorted in decreasing order and S_j its partial sums, the
    projection is max(m - theta, 0) at theta = max_j (S_j - total) / j
    (Duchi et al., ICML 2008).  Each column is then rescaled onto its total
    so the output lies on the scaled simplex exactly.
    """
    m = np.asarray(matrix, dtype=float)
    totals = np.asarray(totals, dtype=float)
    n = m.shape[0]
    ranks = np.arange(1.0, n + 1.0).reshape((n,) + (1,) * (m.ndim - 1))
    partial = np.cumsum(np.sort(m, axis=0)[::-1], axis=0) - totals
    w = np.maximum(m - (partial / ranks).max(axis=0), 0.0)
    s = w.sum(axis=0)
    dead = ~(s > 0.0)
    if dead.any():
        # the total is below the rounding of the largest entry: the limit
        # of the projection shares it among the column's maximal entries
        w = np.where(dead, m == m.max(axis=0), w)
        s = w.sum(axis=0)
    return w * (totals / s)


@dataclass
class DescentConfig:
    """Shared knobs for the first-order solvers.

    The two learning rates follow the library defaults: 0.05 for
    simplex-constrained parameters (weights, plan columns) and 0.01 for
    atoms and network weights.
    """

    method: str = "adam"           # adam | rmsprop | pgd
    steps: int = 500
    lr_weights: float = 0.05
    lr_atoms: float = 0.01


@dataclass
class OptimizerState:
    """First-order update state; accumulators mirror the parameter shapes."""

    method: str                    # adam | rmsprop | pgd
    lr: float | np.ndarray
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)
    t: int = 0


def make_optimizer(method: str, lr, params: Sequence[np.ndarray]) -> OptimizerState:
    """Fresh state for `optimizer_step` on parameters shaped like `params`.

    `lr` is a scalar or an array that broadcasts against every parameter.
    All three updates are elementwise, so one state over a concatenated
    vector with a per-entry `lr` takes bit for bit the steps of separate
    states over the pieces; the descent loops pack their weights and atoms
    that way to make one update call per step.
    """
    if method not in ("adam", "rmsprop", "pgd"):
        raise ValueError(f"unknown optimizer {method!r}")
    zeros = [np.zeros_like(np.asarray(p, dtype=float)) for p in params]
    return OptimizerState(method=method, lr=lr,
                          m=[z.copy() for z in zeros], v=zeros)


def optimizer_step(state: OptimizerState, params: Sequence[np.ndarray],
                   grads: Sequence[np.ndarray]) -> list:
    """One deterministic update; returns the new parameter list.

    ADAM uses beta1=0.9, beta2=0.999, eps=1e-8; RMSProp uses decay 0.9,
    eps=1e-8; pgd is a plain gradient step.
    """
    eps = 1e-8
    state.t += 1
    out = []
    if state.method == "adam":
        b1, b2 = 0.9, 0.999
        bc1 = 1.0 - b1 ** state.t
        bc2 = 1.0 - b2 ** state.t
        for i, (p, g) in enumerate(zip(params, grads)):
            state.m[i] = b1 * state.m[i] + (1.0 - b1) * g
            state.v[i] = b2 * state.v[i] + (1.0 - b2) * g * g
            m_hat = state.m[i] / bc1
            v_hat = state.v[i] / bc2
            out.append(p - state.lr * m_hat / (np.sqrt(v_hat) + eps))
    elif state.method == "rmsprop":
        for i, (p, g) in enumerate(zip(params, grads)):
            state.v[i] = 0.9 * state.v[i] + 0.1 * g * g
            out.append(p - state.lr * g / (np.sqrt(state.v[i]) + eps))
    else:
        for p, g in zip(params, grads):
            out.append(p - state.lr * g)
    return out


@dataclass(frozen=True)
class PGDResult:
    x: np.ndarray
    value: float
    steps: int
    converged: bool


def minimize_columns_pgd(objective: Callable[[np.ndarray], float],
                         gradient: Callable[[np.ndarray], np.ndarray],
                         init: np.ndarray,
                         column_totals: np.ndarray,
                         max_steps: int = 5000,
                         tol: float = 1e-8,
                         lr0: float = 1.0,
                         window: int = 25) -> PGDResult:
    """Monotone entropic projected gradient over column-wise scaled simplices.

    A step proposes x * exp(-lr * g) rescaled per column onto its total
    (mirror descent in the KL geometry, Beck & Teboulle 2003) and halves lr
    until f(x+) <= f(x) + <g, x+ - x> + KL(x+ || x) / lr, which makes it a
    descent step.  The trial lr is twice the last accepted one, within
    [lr0, 1e6 * lr0].  Exact zeros stay zero, so the gradient is read only
    where x > 0.  Termination fires when no step passes the test with a
    bound below f in floating point, or when a window of steps improved the
    objective by at most tol * max(1, |f|).
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
        lr = min(max(lr * 2.0, lr0), 1e6 * lr0)
        accepted = False
        while lr >= 1e-14:
            z = log_x - lr * g
            cand = np.exp(z - z.max(axis=0))
            cand *= totals / cand.sum(axis=0)
            with np.errstate(divide="ignore", invalid="ignore"):
                kl = np.where(cand > 0.0, cand * (np.log(cand) - log_x), 0.0)
            bound = f + float((g * (cand - x)).sum()) + float(kl.sum()) / lr
            if bound >= f:
                break  # the decrease is below the resolution of f
            fc = objective(cand)
            if fc <= bound:
                accepted = True
                break
            lr *= 0.5
        if not accepted:
            return PGDResult(x, f, step, True)
        x, f = cand, fc
        if step % window == 0:
            if window_anchor - f <= tol * max(1.0, abs(f)):
                return PGDResult(x, f, step, True)
            window_anchor = f
    return PGDResult(x, f, max_steps, False)
