"""Linear-cost benchmark: compare the descent schemes on seeded instances.

An instance draws a prior with weights proportional to exp of uniform noise
and type vectors uniform in the cube rescaled to unit 1-norm; the utility
cost is x . y over the box [-1, 1]^d, so every scheme (direct descent,
entropic-OT descent, DCA) applies and their final plan objectives are
directly comparable.  `run_benchmark` calls each scheme's one entry point:
`direct.minimize_direct_starts` and `sinkhorn.minimize_sinkhorn_starts`
on a stack of the run's starts, and `solve_dca`, which the CLI `dca`
shares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import seeds
from .dca import MAX_OUTER, dca_solve
from .direct import minimize_direct_starts
from .divergences import kl_divergence
from .measures import linear_cost, prp_objective
from .optim import DescentConfig
from .sinkhorn import minimize_sinkhorn_starts

METHODS = ("prp-adam", "prp-rms", "sink-adam", "sink-rms", "dca")


@dataclass(frozen=True)
class ToyInstance:
    type_atoms: np.ndarray     # (K, d), rows with unit 1-norm
    prior_weights: np.ndarray  # (K,)

    @property
    def bounds(self) -> np.ndarray:
        d = self.type_atoms.shape[1]
        return np.stack([-np.ones(d), np.ones(d)], axis=1)


def sample_instance(d: int, k: int, rng: np.random.Generator) -> ToyInstance:
    z = rng.uniform(0.0, 1.0, size=k)
    weights = np.exp(z)
    weights /= weights.sum()
    atoms = rng.uniform(-1.0, 1.0, size=(k, d))
    atoms /= np.abs(atoms).sum(axis=1, keepdims=True)
    return ToyInstance(type_atoms=atoms, prior_weights=weights)


def _config(method: str, iterations: int, lr_weights: float,
            lr_atoms: float) -> DescentConfig:
    optimizer = {"adam": "adam", "rms": "rmsprop"}[method.split("-", 1)[1]]
    return DescentConfig(method=optimizer, steps=iterations,
                         lr_weights=lr_weights, lr_atoms=lr_atoms)


def _scored(plan, trace, cost, lam: float):
    """The trace and the final KL plan objective of one method's solve."""
    return (np.asarray(trace, dtype=float),
            prp_objective(plan, cost, kl_divergence(), lam))


def solve_dca(instance: ToyInstance, divergence, lam: float, iterations: int):
    """DCA on the instance box, capped at min(MAX_OUTER, iterations) steps.

    Returns the `dca.DCAResult`; its trace holds full plan objectives.
    Linearizing the DC program's subtracted norms at a plan is the same as
    moving every row to its best box corner, so each step is the convex
    plan solve at the cost matrix of those corners.
    """
    return dca_solve(instance.type_atoms, instance.prior_weights,
                     instance.bounds, divergence, lam,
                     max_outer=min(MAX_OUTER, iterations))


def pad_trace(trace: np.ndarray, length: int) -> np.ndarray:
    """Repeat the last value so fast-converging schemes align with the others."""
    if trace.size >= length:
        return trace[:length]
    return np.concatenate([trace, np.full(length - trace.size, trace[-1])])


@dataclass(frozen=True)
class BenchmarkResult:
    methods: tuple
    iterations: int
    mean_trace: dict    # method -> (iterations,)
    stderr_trace: dict  # method -> (iterations,)
    finals: dict        # method -> (runs,) final objectives


def run_benchmark(d: int, k: int, lam: float, methods, runs: int,
                  iterations: int, seed: int,
                  lr_weights: float = DescentConfig.lr_weights,
                  lr_atoms: float = DescentConfig.lr_atoms) -> BenchmarkResult:
    """Run every method on `runs` seeded instances; average their traces.

    Run `run` draws its instance from (`seed`, INSTANCE, run) and method
    `mi` its start from (`seed`, INIT, run, mi).  The direct methods of a
    run descend as one stack of starts (`minimize_direct_starts`), and so
    do its Sinkhorn methods (`minimize_sinkhorn_starts`), one cost oracle
    call per step for the stack; each start is bit for bit a stack of that
    start alone.  `dca` runs `solve_dca`.  Every method's solve is scored
    by its KL plan objective in config order, and traces shorter than
    `iterations` are padded with their last value (`pad_trace`).
    """
    methods = tuple(methods)
    traces = {m: np.empty((runs, iterations)) for m in methods}
    finals = {m: np.empty(runs) for m in methods}
    for run in range(runs):
        instance = sample_instance(d, k, seeds.rng_for(seed, seeds.INSTANCE, run))
        init = [seeds.seed_for(seed, seeds.INIT, run, mi)
                for mi in range(len(methods))]
        cost = linear_cost(instance.bounds)
        solved = {}
        for family, solver in (("prp", minimize_direct_starts),
                               ("sink", minimize_sinkhorn_starts)):
            chosen = [mi for mi, m in enumerate(methods)
                      if m.startswith(family)]
            if chosen:
                starts = [(_config(methods[mi], iterations, lr_weights,
                                   lr_atoms), init[mi]) for mi in chosen]
                solved.update(zip(chosen, solver(
                    instance.prior_weights, instance.type_atoms, cost, lam,
                    starts)))
        for mi, method in enumerate(methods):
            if method == "dca":
                result = solve_dca(instance, kl_divergence(), lam, iterations)
                solved[mi] = result.plan, result.trace
            trace, final = _scored(*solved[mi], cost, lam)
            traces[method][run] = pad_trace(trace, iterations)
            finals[method][run] = final
    mean = {m: traces[m].mean(axis=0) for m in methods}
    stderr = {m: traces[m].std(axis=0, ddof=0) / np.sqrt(runs) for m in methods}
    return BenchmarkResult(methods=methods, iterations=iterations,
                           mean_trace=mean, stderr_trace=stderr, finals=finals)
