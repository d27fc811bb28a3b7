"""Linear-cost benchmark: compare the descent schemes on seeded instances.

An instance draws a prior with weights proportional to exp of uniform noise
and type vectors uniform in the cube rescaled to unit 1-norm; the utility
cost is x . y over the box [-1, 1]^d, so every scheme (direct descent,
entropic-OT descent, DCA) applies and their final plan objectives are
directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import seeds
from .dca import build_dc, dca_solve
from .direct import minimize_direct
from .divergences import kl_divergence
from .measures import linear_cost, prp_objective
from .optim import DescentConfig
from .sinkhorn import minimize_sinkhorn

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


@dataclass(frozen=True)
class MethodRun:
    method: str
    trace: np.ndarray
    final_objective: float


def _optimizer_of(method: str) -> str:
    return {"adam": "adam", "rms": "rmsprop"}[method.split("-", 1)[1]]


def run_method(method: str, instance: ToyInstance, lam: float,
               iterations: int, seed: int,
               lr_weights: float = 0.05, lr_atoms: float = 0.01) -> MethodRun:
    """One solve; the trace reports the scheme's own objective per iteration."""
    cost = linear_cost(instance.bounds)
    kl = kl_divergence()
    if method == "dca":
        program = build_dc(instance.type_atoms, instance.prior_weights,
                           instance.bounds[:, 0], instance.bounds[:, 1],
                           kl, lam)
        result = dca_solve(program, max_outer=min(200, iterations))
        trace = result.trace + program.constant
        plan = result.plan
    else:
        config = DescentConfig(method=_optimizer_of(method), steps=iterations,
                               lr_weights=lr_weights, lr_atoms=lr_atoms)
        solver = minimize_direct if method.startswith("prp") else minimize_sinkhorn
        plan, trace = solver(instance.prior_weights, instance.type_atoms, cost,
                             lam, config=config, seed=seed)
    final = prp_objective(plan, cost, kl, lam)
    return MethodRun(method=method, trace=np.asarray(trace, dtype=float),
                     final_objective=final)


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
                  lr_weights: float = 0.05,
                  lr_atoms: float = 0.01) -> BenchmarkResult:
    methods = tuple(methods)
    traces = {m: np.empty((runs, iterations)) for m in methods}
    finals = {m: np.empty(runs) for m in methods}
    for run in range(runs):
        instance = sample_instance(d, k, seeds.rng_for(seed, seeds.INSTANCE, run))
        for mi, method in enumerate(methods):
            out = run_method(method, instance, lam, iterations,
                             seed=seeds.seed_for(seed, seeds.INIT, run, mi),
                             lr_weights=lr_weights, lr_atoms=lr_atoms)
            traces[method][run] = pad_trace(out.trace, iterations)
            finals[method][run] = out.final_objective
    mean = {m: traces[m].mean(axis=0) for m in methods}
    stderr = {m: traces[m].std(axis=0, ddof=0) / np.sqrt(runs) for m in methods}
    return BenchmarkResult(methods=methods, iterations=iterations,
                           mean_trace=mean, stderr_trace=stderr, finals=finals)
