"""Workload inputs: the CLI configs each workload runs, derived from one seed.

The program only ever sees the config files written here.  The linear-cost
instance of a ``toy``, ``grid`` or ``dca`` config is drawn by the CLI itself
from the config's ``seed``.  This module reproduces that draw (prior weights
proportional to exp(U[0, 1]), type vectors uniform in [-1, 1]^d rescaled to
unit 1-norm; seed path (seed, 0, 0) for ``toy`` and (seed, 0) for ``grid``
and ``dca``), so that the checks can compare every plan against the
instance it must solve.

Seeded instance panels are systematic samples.  ``PANEL_CANDIDATES`` CLI
seeds are drawn from the benchmark seed, sorted by the value of revealing
on their instance (the non-revealing objective minus the box-corner
optimum, see ``checks.corner_optimum``), and the panel takes the candidates
at evenly spaced ranks.  The value of revealing varies by a factor of three
across the family, so a panel of a few plain draws would move
``objective_gain`` by tens of percent from one seed to the next; evenly
spaced ranks keep every part of the family in the panel and leave the seed
to choose the concrete instances.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from checks import batched_corner_gain

D = 2
K = 5
LAM = 0.1
# The panel takes fixed quantiles of the candidates' values of revealing;
# with 256 candidates their sampling noise moved the mean gain of a whole
# panel by 2.4% (sd over 20 seeds), with 1024 by 1.1%
PANEL_CANDIDATES = 1024

TOY_INSTANCES = 60
TOY_ITERATIONS = 100
TOY_METHODS = ("prp-adam", "prp-rms", "sink-adam", "sink-rms", "dca")
# The Sinkhorn methods take ~90% of the round's time and run on every sixth
# instance of the panel (10 instances).  The other methods are cheap and run
# on all 60: the final objective of direct descent depends most on its
# random start, and with all five methods on 10 instances `objective_gain`
# spread by 0.08 across five seeds.
TOY_SINKHORN_EVERY = 6

# The grid solves run on the instance of CLI seed 0 whatever the benchmark
# seed: there the 7x7 KL and the 5x5 reverse-KL solves both stop at the PGD
# step cap short of the optimum (faults kept on purpose), and the work of a
# capped solve differs by up to 2x between instances, so seeded grid solves
# would make the round's time and gain depend on the seed (see README).
# The seed chooses the instances of the DCA solves.
REFERENCE_GRID_SEED = 0
REFERENCE_GRIDS = (("kl", 7), ("reverse_kl", 5))
REFERENCE_DCA_INSTANCES = 4

AUCTION_TYPES = 10
AUCTION_LAMBDAS = (1e-3, 0.1)
AUCTION_RUNS = 3
AUCTION_STEPS = 10

WORKLOADS = ("toy", "auctions", "reference")
_WORKLOAD_CODE = {name: code for code, name in enumerate(WORKLOADS)}
# seed path below the CLI seed of the instance each kind draws
_INSTANCE_PATH = {"toy": (0, 0), "grid": (0,), "dca": (0,)}


@dataclass(frozen=True)
class Instance:
    prior: np.ndarray   # (K,)
    types: np.ndarray   # (K, d)

    @property
    def non_revealing(self) -> float:
        """Objective of revealing nothing: min over the box of x . E_p[y]."""
        return -float(np.abs(self.prior @ self.types).sum())


@dataclass(frozen=True)
class Job:
    """One CLI invocation: its config document and what it must produce."""

    name: str
    config: dict
    instance: Instance | None = None   # linear-cost jobs: the instance solved

    @property
    def solves(self) -> int:
        kind = self.config["kind"]
        if kind == "toy":
            return len(self.config["methods"])
        if kind == "sweep":
            return len(self.config["lambdas"]) * self.config["runs"]
        return 1


def instance_for(kind: str, cli_seed: int) -> Instance:
    """The instance a one-run CLI config of this kind and seed solves."""
    rng = np.random.default_rng(
        np.random.SeedSequence([cli_seed, *_INSTANCE_PATH[kind]]))
    weights = np.exp(rng.uniform(0.0, 1.0, size=K))
    weights /= weights.sum()
    types = rng.uniform(-1.0, 1.0, size=(K, D))
    types /= np.abs(types).sum(axis=1, keepdims=True)
    return Instance(prior=weights, types=types)


def _cli_seeds(seed: int, workload: str, count: int) -> list:
    rng = np.random.default_rng([seed, _WORKLOAD_CODE[workload]])
    return [int(s) for s in rng.integers(0, 2 ** 31, size=count)]


def _panel(seed: int, workload: str, kind: str, size: int) -> list:
    """(cli_seed, instance) pairs at evenly spaced ranks of the corner gain."""
    candidates = _cli_seeds(seed, workload, PANEL_CANDIDATES)
    instances = [instance_for(kind, s) for s in candidates]
    gains = batched_corner_gain(np.stack([i.prior for i in instances]),
                                np.stack([i.types for i in instances]), LAM)
    order = np.argsort(gains, kind="stable")
    ranks = ((np.arange(size) + 0.5) * order.size / size).astype(int)
    return [(candidates[order[r]], instances[order[r]]) for r in ranks]


def _linear(name: str, kind: str, seed: int, **fields) -> Job:
    return Job(name, {"kind": kind, "d": D, "K": K, "lam": LAM, "seed": seed,
                      **fields}, instance_for(kind, seed))


def jobs_for(workload: str, seed: int) -> list:
    """The ordered CLI invocations of one workload round."""
    if workload == "toy":
        return [_linear(f"toy{j}", "toy", s, runs=1,
                        iterations=TOY_ITERATIONS,
                        methods=[m for m in TOY_METHODS
                                 if j % TOY_SINKHORN_EVERY
                                 == TOY_SINKHORN_EVERY // 2
                                 or not m.startswith("sink")])
                for j, (s, _) in enumerate(
                    _panel(seed, workload, "toy", TOY_INSTANCES))]
    if workload == "reference":
        grids = [_linear(f"grid_{div}", "grid", REFERENCE_GRID_SEED,
                         divergence=div, grid_points=points)
                 for div, points in REFERENCE_GRIDS]
        return grids + [_linear(f"dca{j}", "dca", s, divergence="kl")
                        for j, (s, _) in enumerate(_panel(
                            seed, workload, "dca", REFERENCE_DCA_INSTANCES))]
    if workload == "auctions":
        (s,) = _cli_seeds(seed, workload, 1)
        return [Job("sweep", {"kind": "sweep", "K": AUCTION_TYPES,
                              "lambdas": list(AUCTION_LAMBDAS),
                              "runs": AUCTION_RUNS, "steps": AUCTION_STEPS,
                              "width": 40, "train_samples": 400,
                              "eval_samples": 100_000, "seed": s})]
    raise ValueError(f"unknown workload {workload!r}; expected {WORKLOADS}")


def write_configs(jobs, root: Path) -> list:
    """Write one config file per job; each job's outputs go to root/<name>."""
    root.mkdir(parents=True, exist_ok=True)
    paths = []
    for job in jobs:
        path = root / f"{job.name}.json"
        path.write_text(json.dumps({**job.config, "out": str(root / job.name)}))
        paths.append(path)
    return paths
