"""Spans around the public functions of every ``prp`` module.

``Tracer.install`` replaces each public function at every module attribute
that names it (``prp.auctions.unrolled_loss`` as well as
``prp.sinkhorn.unrolled_loss``), so callers that imported the name and
callers that look it up on its module both go through the wrapper.  The
program itself is not changed.

The autodiff tape primitives (``add``, ``matmul``, ``logsumexp``, ...) are
left unwrapped: a long Sinkhorn tape records ~10^6 of them per round, and a
span each would dominate the traced time.  Their forward cost shows as the
self time of the function that records the tape (``unrolled_loss``,
``minimize_direct``) and their backward cost as ``autodiff.grad``; the tape
size is counted as ``autodiff.tape_nodes``.

Spans (name, start, end, parent) are kept in memory and written out once
at the end of a round.  Counters are read from arguments and results at the
same boundaries.
"""

from __future__ import annotations

import functools
import inspect
import pkgutil
import sys
import time
from collections import defaultdict
from importlib import import_module

import numpy as np

from inputs import TOY_METHODS

TAPE_PRIMITIVES = frozenset({
    "add", "sub", "sub_from", "mul", "div", "div_from", "neg", "exp", "log",
    "power", "relu", "minimum", "absolute", "vsum", "dot", "matmul", "outer",
    "stack", "reshape", "logsumexp"})
DEAD_BID_RANGE = (0.0, 20.0)

# (metric name, unit, better) of every per-layer metric, in report order
LAYER_METRICS = [
    ("sinkhorn.unrolled_loss.s", "s", "lower"),
    ("sinkhorn.unrolled_loss.updates", "count", "lower"),
    ("sinkhorn.unrolled_loss.log_calls", "count", "lower"),
    ("sinkhorn.solve_sinkhorn.s", "s", "lower"),
    ("sinkhorn.solve_sinkhorn.iterations", "count", "lower"),
    ("sinkhorn.unroll_capped", "count", "lower"),
    ("sinkhorn.minimize_sinkhorn.s", "s", "lower"),
    ("autodiff.grad.s", "s", "lower"),
    ("autodiff.tape_nodes", "count", "lower"),
    ("optim.optimizer_step.s", "s", "lower"),
    ("optim.minimize_columns_pgd.s", "s", "lower"),
    ("optim.minimize_columns_pgd.steps", "count", "lower"),
    ("optim.minimize_columns_pgd.capped", "count", "lower"),
    ("convexsolve.kl.s", "s", "lower"),
    ("convexsolve.reverse_kl.s", "s", "lower"),
    ("divergences.perspective_total.s", "s", "lower"),
    ("divergences.perspective_total_grad.s", "s", "lower"),
    ("dca.dca_solve.s", "s", "lower"),
    ("dca.outer_iterations", "count", "higher"),
    ("gridsolve.solve_grid.s", "s", "lower"),
    ("measures.prp_objective.s", "s", "lower"),
    ("measures.cost_matrix.s", "s", "lower"),
    ("direct.minimize_direct.s", "s", "lower"),
    ("auctions.train_strategy.s", "s", "lower"),
    ("auctions.train_strategy.self_s", "s", "lower"),
    ("auctions.evaluate_strategy.s", "s", "lower"),
    ("auctions.dead_policies", "count", "lower"),
    ("auctions.dead_mass", "mass", "lower"),
    *[(f"toy.{m}.{what}", unit, better) for m in TOY_METHODS
      for what, unit, better in (("s", "s", "lower"), ("gain", "cost", "higher"))],
    ("checks.above_non_revealing", "count", "lower"),
    ("cli.load_config.s", "s", "lower"),
    ("reporting.write.s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.self_s", "s", "lower"),
    ("trace.accounted", "share", "higher"),
    ("trace.spans", "count", "lower"),
    ("machine.slowdown", "share", "lower"),
]


def _short(module: str) -> str:
    return module.rsplit(".", 1)[-1]


def max_bid(policy, lo: float, hi: float) -> float:
    """Largest bid of a piecewise-linear ReLU policy on [lo, hi]."""
    w, c = np.asarray(policy.weights), np.asarray(policy.biases)
    with np.errstate(divide="ignore", invalid="ignore"):
        kinks = -c / w
    v = np.concatenate([[lo, hi], kinks[(kinks > lo) & (kinks < hi)]])
    act = np.maximum(v[:, None] * w[None, :] + c[None, :], 0.0)
    return float((act @ np.asarray(policy.out_weights) + policy.out_bias).max())


class Tracer:
    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.outermost: list = []   # no enclosing span of the same name
        self.counts: dict = defaultdict(float)
        self._stack = [-1]
        self._open: dict = defaultdict(int)

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn, probe=None):
        """Wrap ``fn`` so that every call records one span named ``name``."""
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.starts)
            self.names.append(name)
            self.parents.append(self._stack[-1])
            self.outermost.append(self._open[name] == 0)
            self.ends.append(0.0)
            self._stack.append(index)
            self._open[name] += 1
            self.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[index] = clock()
                self._open[name] -= 1
                self._stack.pop()
            if probe is not None:
                probe(self, args, kwargs, result,
                      self.ends[index] - self.starts[index])
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of ``prp`` at every attribute naming it."""
        root = import_module("prp")
        for info in pkgutil.iter_modules(root.__path__, "prp."):
            import_module(info.name)
        # the program's own decisions that the probes below count
        self.needs_log_domain = sys.modules["prp.sinkhorn"].needs_log_domain
        self.unroll_cap = inspect.signature(
            sys.modules["prp.auctions"]._unroll_budget).parameters["cap"].default
        modules = [m for n, m in list(sys.modules.items())
                   if n == "prp" or n.startswith("prp.")]
        wrapped = {}
        for module in modules:
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__
                        and not (_short(module.__name__) == "autodiff"
                                 and attr in TAPE_PRIMITIVES)):
                    name = f"{_short(module.__name__)}.{attr}"
                    wrapped[obj] = self.span(name, obj, PROBES.get(name))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(module, attr, wrapped[obj])

    # -- reading -----------------------------------------------------------

    def layer_metrics(self, solve_start: float) -> dict:
        """Inclusive time per span name, self times, and the probe counts.

        ``trace.self_s`` sums the self times of the spans that started in the
        solve phase, i.e. the time the solve phase spent inside the program.
        """
        starts = np.asarray(self.starts)
        ends = np.asarray(self.ends)
        parents = np.asarray(self.parents, dtype=np.int64)
        duration = ends - starts
        child = np.zeros_like(duration)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], duration[has_parent])
        own = duration - child
        inclusive = defaultdict(float)
        self_time = defaultdict(float)
        for name, d, s, top in zip(self.names, duration, own, self.outermost):
            if top:
                inclusive[name] += d
            self_time[name] += s
        metrics = {f"{name}.s": t for name, t in inclusive.items()}
        metrics["auctions.train_strategy.self_s"] = self_time.get(
            "auctions.train_strategy", 0.0)
        metrics["reporting.write.s"] = (inclusive.get("reporting.write_csv", 0.0)
                                        + inclusive.get("reporting.write_manifest",
                                                        0.0))
        metrics["trace.self_s"] = float(own[starts >= solve_start].sum())
        metrics["trace.spans"] = len(self.names)
        counts = dict(self.counts)
        for method in TOY_METHODS:
            runs = counts.pop(f"toy.{method}.runs", 0)
            if runs:
                counts[f"toy.{method}.gain"] /= runs
        metrics.update(counts)
        return metrics

    def save(self, path) -> None:
        names = sorted(set(self.names))
        index = {n: i for i, n in enumerate(names)}
        np.savez(path, names=np.array(names),
                 name=np.array([index[n] for n in self.names], dtype=np.int32),
                 start=np.asarray(self.starts), end=np.asarray(self.ends),
                 parent=np.asarray(self.parents, dtype=np.int64))


# ---------------------------------------------------------------------------
# counters read at the span boundaries: probe(tracer, args, kwargs, result, s)

def _arg(args, kwargs, position, name):
    return kwargs[name] if name in kwargs else args[position]


def _unrolled_loss(tracer, args, kwargs, result, seconds):
    iters = _arg(args, kwargs, 4, "iters")
    cost, lam = _arg(args, kwargs, 1, "cost_var"), _arg(args, kwargs, 3, "lam")
    tracer.counts["sinkhorn.unrolled_loss.updates"] += iters
    tracer.counts["sinkhorn.unrolled_loss.log_calls"] += tracer.needs_log_domain(
        cost.value, lam)
    tracer.counts["sinkhorn.unroll_capped"] += iters >= tracer.unroll_cap


def _solve_sinkhorn(tracer, args, kwargs, result, seconds):
    tracer.counts["sinkhorn.solve_sinkhorn.iterations"] += result.iterations


def _grad(tracer, args, kwargs, result, seconds):
    tracer.counts["autodiff.tape_nodes"] += len(_arg(args, kwargs, 0, "tape"))


def _pgd(tracer, args, kwargs, result, seconds):
    tracer.counts["optim.minimize_columns_pgd.steps"] += result.steps
    tracer.counts["optim.minimize_columns_pgd.capped"] += not result.converged


def _convex(tracer, args, kwargs, result, seconds):
    div = _arg(args, kwargs, 2, "divergence")
    tracer.counts[f"convexsolve.{div.name}.s"] += seconds


def _dca(tracer, args, kwargs, result, seconds):
    tracer.counts["dca.outer_iterations"] += result.outer_iterations


def _train(tracer, args, kwargs, result, seconds):
    plan = result[0]
    dead = [max_bid(p, *DEAD_BID_RANGE) <= 0.0 for p in plan.action_atoms]
    tracer.counts["auctions.dead_policies"] += sum(dead)
    tracer.counts["auctions.dead_mass"] += float(plan.row_masses[dead].sum())


def _run_method(tracer, args, kwargs, result, seconds):
    instance = _arg(args, kwargs, 1, "instance")
    non_revealing = -float(np.abs(instance.prior_weights
                                  @ instance.type_atoms).sum())
    key = f"toy.{result.method}"
    tracer.counts[f"{key}.s"] += seconds
    tracer.counts[f"{key}.gain"] += non_revealing - result.final_objective
    tracer.counts[f"{key}.runs"] += 1


PROBES = {
    "sinkhorn.unrolled_loss": _unrolled_loss,
    "sinkhorn.solve_sinkhorn": _solve_sinkhorn,
    "autodiff.grad": _grad,
    "optim.minimize_columns_pgd": _pgd,
    "convexsolve.minimize_linear_plus_privacy": _convex,
    "dca.dca_solve": _dca,
    "auctions.train_strategy": _train,
    "toy.run_method": _run_method,
}
