"""Experiment orchestration: one JSON config per run, CSV/JSON artifacts out.

Config files carry a "kind" discriminator (toy | grid | dca | auctions |
sweep); command-line flags override the seed, output directory and run
count.  Every run writes a manifest holding the fully resolved config, so
feeding a manifest back as --config reproduces the run bit for bit.

Exit codes: 0 success, 2 config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import divergences, seeds, toy
from .auctions import WIDTH, AuctionModel, dominant_action_map, sweep_lambda
from .gridsolve import solve_grid
from .measures import linear_cost, plan_to_json, prp_objective
from .optim import RULES, DescentConfig
from .reporting import read_config_document, write_csv, write_manifest

KINDS = ("toy", "grid", "dca", "auctions", "sweep")


class ConfigError(ValueError):
    """The experiment configuration is malformed."""


@dataclasses.dataclass
class ExperimentConfig:
    """The settings of one run; its manifest holds them all, resolved.

    Besides kind, seed and out, each kind reads only these fields:
    - toy: d, K, lam, runs, methods, iterations, lr_weights, lr_atoms;
    - grid: d, K, lam, divergence, grid_points;
    - dca: d, K, lam, divergence, iterations (the outer-step cap);
    - auctions, sweep: K, lam or else lambdas, runs, steps, n_atoms,
      width, method, lr_weights, lr_atoms.

    train_samples and eval_samples have no effect, since training and
    evaluation are exact; older manifests and the benchmark set them.
    """

    kind: str
    seed: int = 0
    out: str = "results"
    runs: int = 1
    d: int = 2
    K: int = 3
    lam: float = 0.1
    lambdas: list | None = None
    divergence: str = "kl"
    methods: list = dataclasses.field(
        default_factory=lambda: list(toy.METHODS))
    iterations: int = 500
    grid_points: int = 3
    steps: int = 1000
    train_samples: int = 1000
    eval_samples: int = 100_000
    n_atoms: int | None = None
    width: int = WIDTH
    method: str = DescentConfig.method
    lr_weights: float = DescentConfig.lr_weights
    lr_atoms: float = DescentConfig.lr_atoms

    def descent(self) -> DescentConfig:
        """The auction descent: `method`, `steps` and the learning rates."""
        return DescentConfig(method=self.method, steps=self.steps,
                             lr_weights=self.lr_weights,
                             lr_atoms=self.lr_atoms)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    try:
        doc = read_config_document(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    overrides = {k: v for k, v in (overrides or {}).items() if v is not None}
    doc = {**doc, **overrides}
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "kind" not in doc:
        raise ConfigError("config needs a 'kind' field")
    config = ExperimentConfig(**doc)
    _validate(config)
    return config


def _label(lam: float) -> str:
    """The lambda as the auction output file names write it."""
    return f"{lam:.6g}"


# the integer fields and their least values; n_atoms may also be null
_INTEGERS = {"seed": 0, "runs": 1, "iterations": 1, "steps": 1, "d": 1,
             "K": 1, "grid_points": 1, "width": 1, "n_atoms": 1}


def _validate(config: ExperimentConfig) -> None:
    if config.kind not in KINDS:
        raise ConfigError(f"unknown kind {config.kind!r}; expected one of {KINDS}")
    for name, least in _INTEGERS.items():
        value = getattr(config, name)
        # type(), not isinstance: json reads true and false as bools
        if (type(value) is not int or value < least) and not (
                name == "n_atoms" and value is None):
            raise ConfigError(f"{name} must be an integer >= {least}, "
                              f"got {value!r}")
    lambdas = config.lambdas if config.lambdas is not None else [config.lam]
    if not isinstance(lambdas, list) or not lambdas:
        raise ConfigError("lambdas must be a non-empty list of numbers")
    for value in (config.lam, config.lr_weights, config.lr_atoms, *lambdas):
        # json reads NaN and Infinity
        if type(value) not in (int, float) or not math.isfinite(value):
            raise ConfigError("lam, lambdas, lr_weights and lr_atoms must be "
                              f"finite numbers, got {value!r}")
    if not all(isinstance(v, str) for v in (config.divergence, config.method)):
        raise ConfigError("divergence and method must be strings")
    try:
        divergences.from_name(config.divergence)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if config.method not in RULES:
        raise ConfigError(f"unknown optimizer {config.method!r}")
    if config.kind == "toy":
        if not isinstance(config.methods, list) or not config.methods:
            raise ConfigError("toy methods must be a non-empty list of "
                              "method names")
        bad = [m for m in config.methods if m not in toy.METHODS]
        if bad:
            raise ConfigError(f"unknown toy methods {bad}; expected {toy.METHODS}")
        if len(set(config.methods)) < len(config.methods):
            raise ConfigError(f"toy methods repeat: {config.methods}")
        if config.lam <= 0.0:
            raise ConfigError("toy benchmark needs lam > 0")
        if config.divergence != "kl":
            # every toy method solves and scores with KL
            raise ConfigError("toy benchmark runs with divergence 'kl'")
    if config.kind in ("auctions", "sweep"):
        if any(l <= 0.0 for l in lambdas):
            raise ConfigError("auction lambdas must be positive")
        labels = [_label(l) for l in lambdas]
        if len(set(labels)) < len(labels):
            # each lambda names its heat-map and bid-curve files
            raise ConfigError(f"auction lambdas repeat in file names: {labels}")
    if config.lam < 0.0:
        raise ConfigError("lam must be nonnegative")
    if config.lr_weights < 0.0 or config.lr_atoms < 0.0:
        # a negative rate ascends; lr_atoms = 0 keeps the atoms fixed
        raise ConfigError("lr_weights and lr_atoms must be nonnegative")
    return None


def run_toy_benchmark(config: ExperimentConfig):
    """Per-method mean objective trace over seeded instances; one CSV."""
    out = Path(config.out)
    started = time.perf_counter()
    result = toy.run_benchmark(config.d, config.K, config.lam, config.methods,
                               config.runs, config.iterations, config.seed,
                               lr_weights=config.lr_weights,
                               lr_atoms=config.lr_atoms)
    rows = []
    for method in result.methods:
        rows.extend(zip(itertools.repeat(method), range(config.iterations),
                        result.mean_trace[method].tolist(),
                        result.stderr_trace[method].tolist()))
    csv_path = write_csv(out / "toy_benchmark.csv",
                         ("method", "iteration", "mean_objective", "stderr"),
                         rows)
    finals_path = write_csv(
        out / "toy_finals.csv", ("method", "run", "final_objective"),
        [(m, r, final) for m in result.methods
         for r, final in enumerate(result.finals[m].tolist())])
    write_manifest(out / "manifest.json", config.as_dict(),
                   [csv_path, finals_path], time.perf_counter() - started)
    return result


def _grid_atoms(d: int, points_per_dim: int) -> np.ndarray:
    axis = np.linspace(-1.0, 1.0, points_per_dim)
    return np.array(list(itertools.product(axis, repeat=d)))


def run_grid_solver(config: ExperimentConfig):
    """Convex reference solve on a lattice of actions; plan + objective out."""
    out = Path(config.out)
    started = time.perf_counter()
    instance = toy.sample_instance(config.d, config.K,
                                   seeds.rng_for(config.seed, seeds.INSTANCE))
    atoms = _grid_atoms(config.d, config.grid_points)
    cost = linear_cost(instance.bounds)
    div = divergences.from_name(config.divergence)
    plan, objective = solve_grid(atoms, instance.type_atoms,
                                 instance.prior_weights, cost, div, config.lam)
    plan_path = out / "plan.json"
    plan_path.parent.mkdir(parents=True, exist_ok=True)
    plan_path.write_text(plan_to_json(plan) + "\n")
    summary_path = write_csv(out / "objective.csv", ("objective",),
                             [(objective,)])
    write_manifest(out / "manifest.json", config.as_dict(),
                   [plan_path, summary_path], time.perf_counter() - started)
    return plan, objective


def run_dca(config: ExperimentConfig):
    """Difference-of-convex solve on a seeded linear-cost instance."""
    out = Path(config.out)
    started = time.perf_counter()
    instance = toy.sample_instance(config.d, config.K,
                                   seeds.rng_for(config.seed, seeds.INSTANCE))
    result = toy.solve_dca(instance, divergences.from_name(config.divergence),
                           config.lam, config.iterations)
    plan_path = out / "plan.json"
    plan_path.parent.mkdir(parents=True, exist_ok=True)
    plan_path.write_text(plan_to_json(result.plan) + "\n")
    trace_path = write_csv(out / "trace.csv", ("iteration", "objective"),
                           list(enumerate(result.trace.tolist())))
    write_manifest(out / "manifest.json", config.as_dict(),
                   [plan_path, trace_path], time.perf_counter() - started)
    return result


def run_auctions(config: ExperimentConfig):
    """Train/evaluate per lambda; emit trade-off, heat-map and bid-curve CSVs."""
    out = Path(config.out)
    started = time.perf_counter()
    lambdas = config.lambdas if config.lambdas is not None else [config.lam]
    model = AuctionModel(n_types=config.K)
    result = sweep_lambda(model, lambdas, config.runs, config=config.descent(),
                          seed=config.seed, n_atoms=config.n_atoms,
                          width=config.width)
    outputs = [write_csv(
        out / "tradeoff.csv",
        ("lambda", "utility", "utility_stderr", "privacy", "privacy_stderr"),
        [(r.lam, r.utility, r.utility_stderr, r.privacy, r.privacy_stderr)
         for r in result.rows])]
    for li, lam in enumerate(lambdas):
        first = next(r for r in result.runs if r.lam == lam and r.run == 0)
        gamma = first.plan.gamma
        header = ["atom"] + [f"type_{k}" for k in range(gamma.shape[1])]
        outputs.append(write_csv(
            out / f"heatmap_lam{_label(lam)}.csv", header,
            [[i, *row] for i, row in enumerate(gamma.tolist())]))
        amap = dominant_action_map(first.plan)
        curve_rows = []
        for k in range(gamma.shape[1]):
            curve_rows.extend(
                (k, int(amap.row_for_type[k]), v, b)
                for v, b in zip(amap.value_grid.tolist(),
                                amap.curves[k].tolist()))
        outputs.append(write_csv(out / f"bidcurves_lam{_label(lam)}.csv",
                                 ("type", "row", "v", "beta"), curve_rows))
    write_manifest(out / "manifest.json", config.as_dict(), outputs,
                   time.perf_counter() - started)
    return result


_RUNNERS = {
    "toy": run_toy_benchmark,
    "grid": run_grid_solver,
    "dca": run_dca,
    "auctions": run_auctions,
    "sweep": run_auctions,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="prp",
        description="partially-revealing policy experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind, help=f"run a '{kind}' experiment")
        p.add_argument("--config", required=True, help="JSON config or manifest")
        p.add_argument("--seed", type=int, default=None, help="override seed")
        p.add_argument("--out", default=None, help="override output directory")
        p.add_argument("--runs", type=int, default=None, help="override run count")
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, {"seed": args.seed, "out": args.out,
                                           "runs": args.runs,
                                           "kind": args.command})
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        _RUNNERS[config.kind](config)
    except ArithmeticError as exc:  # overflow, division by zero, numpy errstate
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
