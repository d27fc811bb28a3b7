"""Minimal reverse-mode differentiation over numpy arrays.

Every operation appends a node to an explicit :class:`Tape`; nodes only
reference earlier nodes, so the graph is acyclic by construction.  The op set
is deliberately small (elementwise arithmetic, exp/log/power, relu, binary
minimum, absolute value, reductions, dot/matmul/outer, stack, reshape) —
just enough to express the cost-matrix builders (whose adjoints give the
Sinkhorn atom gradients) and the direct scheme's plan objective.

Subgradient conventions at kinks are fixed for reproducibility:
relu'(0) = 0, |.|'(0) = 0, and binary minimum takes the first argument's
branch on ties.
"""

from __future__ import annotations

import numpy as np


class NonScalarOutput(ValueError):
    """Raised when backward() is asked to differentiate a non-scalar node."""


def _unbroadcast(grad, shape):
    """Reduce `grad` back to `shape` by summing broadcast axes."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Var:
    """Handle to one tape node; supports the usual arithmetic operators."""

    __slots__ = ("tape", "index", "value")

    def __init__(self, tape, index, value):
        self.tape = tape
        self.index = index
        self.value = value

    def __repr__(self):
        return f"Var(index={self.index}, value={self.value!r})"

    # operators delegate to the module-level ops
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub_from(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div_from(other, self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __matmul__(self, other):
        return matmul(self, other)


class Tape:
    """Append-only record of primitive operations.

    Parallel lists keep per-node overhead low: ``parents[i]`` holds the
    indices of node i's operands and ``vjps[i]`` maps the output adjoint to
    per-operand adjoint contributions (None for leaves).
    """

    __slots__ = ("parents", "vjps")

    def __init__(self):
        self.parents = []
        self.vjps = []

    def __len__(self):
        return len(self.parents)

    def leaf(self, value):
        """Record an input node and return its handle."""
        return self._record(np.asarray(value, dtype=float), (), None)

    def _record(self, value, parents, vjp):
        index = len(self.parents)
        self.parents.append(parents)
        self.vjps.append(vjp)
        return Var(self, index, value)


def _value(x):
    return x.value if isinstance(x, Var) else np.asarray(x, dtype=float)


def add(a, b):
    av, bv = _value(a), _value(b)
    out = av + bv
    if isinstance(a, Var) and isinstance(b, Var):
        sa, sb = av.shape, bv.shape
        return a.tape._record(
            out, (a.index, b.index),
            lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))
    v = a if isinstance(a, Var) else b
    s = v.value.shape
    return v.tape._record(out, (v.index,), lambda g: (_unbroadcast(g, s),))


def sub(a, b):
    av, bv = _value(a), _value(b)
    out = av - bv
    if isinstance(a, Var) and isinstance(b, Var):
        sa, sb = av.shape, bv.shape
        return a.tape._record(
            out, (a.index, b.index),
            lambda g: (_unbroadcast(g, sa), _unbroadcast(-g, sb)))
    if isinstance(a, Var):
        s = av.shape
        return a.tape._record(out, (a.index,), lambda g: (_unbroadcast(g, s),))
    s = bv.shape
    return b.tape._record(out, (b.index,), lambda g: (_unbroadcast(-g, s),))


def sub_from(a, b):
    """a - b where a is a plain array/scalar and b a Var."""
    return sub(a, b)


def mul(a, b):
    av, bv = _value(a), _value(b)
    out = av * bv
    if isinstance(a, Var) and isinstance(b, Var):
        sa, sb = av.shape, bv.shape
        return a.tape._record(
            out, (a.index, b.index),
            lambda g: (_unbroadcast(g * bv, sa), _unbroadcast(g * av, sb)))
    if isinstance(a, Var):
        s = av.shape
        return a.tape._record(out, (a.index,),
                              lambda g: (_unbroadcast(g * bv, s),))
    s = bv.shape
    return b.tape._record(out, (b.index,),
                          lambda g: (_unbroadcast(g * av, s),))


def div(a, b):
    av, bv = _value(a), _value(b)
    out = av / bv
    if isinstance(a, Var) and isinstance(b, Var):
        sa, sb = av.shape, bv.shape
        return a.tape._record(
            out, (a.index, b.index),
            lambda g: (_unbroadcast(g / bv, sa),
                       _unbroadcast(-g * out / bv, sb)))
    if isinstance(a, Var):
        s = av.shape
        return a.tape._record(out, (a.index,),
                              lambda g: (_unbroadcast(g / bv, s),))
    s = bv.shape
    return b.tape._record(out, (b.index,),
                          lambda g: (_unbroadcast(-g * out / bv, s),))


def div_from(a, b):
    """a / b where a is a plain array/scalar and b a Var."""
    return div(a, b)


def neg(a):
    return a.tape._record(-a.value, (a.index,), lambda g: (-g,))


def exp(a):
    out = np.exp(a.value)
    return a.tape._record(out, (a.index,), lambda g: (g * out,))


def log(a):
    av = a.value
    return a.tape._record(np.log(av), (a.index,), lambda g: (g / av,))


def power(a, exponent):
    av = a.value
    out = av ** exponent
    return a.tape._record(
        out, (a.index,), lambda g: (g * exponent * av ** (exponent - 1),))


def relu(a):
    av = a.value
    mask = av > 0.0
    return a.tape._record(np.where(mask, av, 0.0), (a.index,),
                          lambda g: (g * mask,))


def minimum(a, b):
    """Elementwise min; on ties the first argument's branch is taken."""
    av, bv = _value(a), _value(b)
    out = np.minimum(av, bv)
    take_a = av <= bv
    if isinstance(a, Var) and isinstance(b, Var):
        sa, sb = av.shape, bv.shape
        return a.tape._record(
            out, (a.index, b.index),
            lambda g: (_unbroadcast(g * take_a, sa),
                       _unbroadcast(g * ~take_a, sb)))
    if isinstance(a, Var):
        s = av.shape
        return a.tape._record(out, (a.index,),
                              lambda g: (_unbroadcast(g * take_a, s),))
    s = bv.shape
    return b.tape._record(out, (b.index,),
                          lambda g: (_unbroadcast(g * ~take_a, s),))


def absolute(a):
    av = a.value
    sign = np.sign(av)  # sign(0) = 0 fixes the subgradient at the kink
    return a.tape._record(np.abs(av), (a.index,), lambda g: (g * sign,))


def vsum(a, axis=None):
    av = a.value
    out = np.sum(av, axis=axis)
    shape = av.shape
    if axis is None:
        return a.tape._record(out, (a.index,),
                              lambda g: (np.broadcast_to(g, shape),))

    def vjp(g):
        return (np.broadcast_to(np.expand_dims(g, axis), shape),)

    return a.tape._record(out, (a.index,), vjp)


def dot(a, b):
    av, bv = _value(a), _value(b)
    out = np.dot(av, bv)
    if isinstance(a, Var) and isinstance(b, Var):
        return a.tape._record(out, (a.index, b.index),
                              lambda g: (g * bv, g * av))
    if isinstance(a, Var):
        return a.tape._record(out, (a.index,), lambda g: (g * bv,))
    return b.tape._record(out, (b.index,), lambda g: (g * av,))


def matmul(a, b):
    """Matrix product for the (2d,2d), (2d,1d) and (1d,2d) shape combinations."""
    av, bv = _value(a), _value(b)
    if av.ndim == 1 and bv.ndim == 1:
        return dot(a, b)
    out = av @ bv

    if av.ndim == 2 and bv.ndim == 1:
        def grad_a(g):
            return np.outer(g, bv)

        def grad_b(g):
            return g @ av
    elif av.ndim == 1 and bv.ndim == 2:
        def grad_a(g):
            return bv @ g

        def grad_b(g):
            return np.outer(av, g)
    else:
        def grad_a(g):
            return g @ bv.T

        def grad_b(g):
            return av.T @ g

    if isinstance(a, Var) and isinstance(b, Var):
        return a.tape._record(out, (a.index, b.index),
                              lambda g: (grad_a(g), grad_b(g)))
    if isinstance(a, Var):
        return a.tape._record(out, (a.index,), lambda g: (grad_a(g),))
    return b.tape._record(out, (b.index,), lambda g: (grad_b(g),))


def outer(a, b):
    av, bv = _value(a), _value(b)
    out = av[:, None] * bv[None, :]
    if isinstance(a, Var) and isinstance(b, Var):
        return a.tape._record(out, (a.index, b.index),
                              lambda g: (g @ bv, av @ g))
    if isinstance(a, Var):
        return a.tape._record(out, (a.index,), lambda g: (g @ bv,))
    return b.tape._record(out, (b.index,), lambda g: (av @ g,))


def stack(rows):
    """Stack 1-d Vars into a matrix (all rows must live on one tape)."""
    tape = rows[0].tape
    out = np.stack([r.value for r in rows])
    parents = tuple(r.index for r in rows)
    return tape._record(out, parents, lambda g: tuple(g[i] for i in range(len(rows))))


def reshape(a, shape):
    av = a.value
    orig = av.shape
    return a.tape._record(av.reshape(shape), (a.index,),
                          lambda g: (g.reshape(orig),))


def logsumexp(a, axis):
    """log(sum(exp(a), axis)) with a constant max-shift for stability.

    The shift is treated as a constant of the forward values; the resulting
    gradient is the exact softmax weighting, so no accuracy is lost.
    """
    shift = np.max(a.value, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(shift), shift, 0.0)
    e = exp(sub(a, shift))
    return add(log(vsum(e, axis=axis)), np.squeeze(shift, axis=axis))


def backward(tape, output):
    """Reverse sweep from a scalar `output`; returns adjoints per node index.

    Entries are None for nodes the output does not depend on.
    """
    out_value = np.asarray(output.value)
    if out_value.size != 1:
        raise NonScalarOutput(
            f"output must be scalar, got shape {out_value.shape}")
    adjoints = [None] * len(tape.parents)
    adjoints[output.index] = np.ones_like(out_value)
    parents_list = tape.parents
    vjps = tape.vjps
    for i in range(output.index, -1, -1):
        g = adjoints[i]
        if g is None:
            continue
        vjp = vjps[i]
        if vjp is None:
            continue
        for parent, contrib in zip(parents_list[i], vjp(g)):
            prev = adjoints[parent]
            adjoints[parent] = contrib if prev is None else prev + contrib
    return adjoints


def grad(tape, output, inputs):
    """Gradients of scalar `output` w.r.t. each Var in `inputs` (zeros if unused)."""
    adjoints = backward(tape, output)
    out = []
    for v in inputs:
        g = adjoints[v.index]
        out.append(np.zeros_like(v.value) if g is None else np.asarray(g))
    return out


def finite_diff_check(f, point, h=1e-5):
    """Compare reverse-mode and central-difference gradients of a scalar map.

    `f` takes a leaf Var (built on a fresh tape from `point`) and returns a
    scalar Var.  Returns max_i |g_ad_i - g_fd_i| / max(1, |g_fd_i|).
    """
    point = np.asarray(point, dtype=float)
    tape = Tape()
    x = tape.leaf(point)
    (g_ad,) = grad(tape, f(x), [x])

    def value_at(p):
        t = Tape()
        return float(f(t.leaf(p)).value)

    worst = 0.0
    for idx in np.ndindex(point.shape) if point.shape else [()]:
        hi = point.copy()
        lo = point.copy()
        hi[idx] += h
        lo[idx] -= h
        g_fd = (value_at(hi) - value_at(lo)) / (2.0 * h)
        err = abs(float(g_ad[idx]) - g_fd) / max(1.0, abs(g_fd))
        worst = max(worst, err)
    return worst
