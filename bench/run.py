"""Benchmark of the ``prp`` CLI workloads: timings, objectives, checks, traces.

    python3 bench/run.py --workload toy --seed 1 --seconds 40 --trace 0

An untraced run first launches ``SETUP_PROBES`` workers that only set up.
Every run then runs whole rounds of the workload, each in a fresh worker
process (``worker.py``), until the next round would end after ``--seconds``;
at least one round runs, and with ``--trace 1`` at least one untraced and one traced round,
alternating.  Every round's outputs are checked against computations made
apart from the program (``checks.py``).  The last line of standard output
is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for ``--trace 0`` and the per-layer metrics for
``--trace 1``.  Times are medians over the rounds (set-up: over probes and
rounds).  Outputs of the last run of each workload stay under
``bench/runs/<workload>/``.
"""

from __future__ import annotations

import argparse
import csv
import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import speed
from inputs import AUCTION_TYPES, LAM, WORKLOADS, jobs_for
from tracing import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 9
WORKER_TIMEOUT_S = 150.0

UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
         "objective_gain": "cost",
         **{name: unit for name, unit, _ in LAYER_METRICS}}


class WorkerFailed(RuntimeError):
    pass


def launch(workload: str, seed: int, out: Path, trace: bool = False,
           setup_only: bool = False) -> dict:
    """Run one worker to completion and return its record."""
    out.mkdir(parents=True, exist_ok=True)
    command = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--out", str(out),
               "--trace", str(int(trace))]
    if setup_only:
        command.append("--setup-only")
    before = statistics.median(speed.kernel() for _ in range(5))
    launched = time.monotonic()
    done = subprocess.run(command + ["--launched", repr(launched)],
                          capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        raise WorkerFailed(f"worker exited with {done.returncode}:\n"
                           f"{done.stderr[-4000:]}")
    record = json.loads((out / "result.json").read_text())
    after = statistics.median(speed.kernel() for _ in range(5))
    record["raw_setup_s"] = record["setup_s"]
    record["setup_s"] *= 2.0 * speed.REFERENCE_S / (before + after)
    return record


# ---------------------------------------------------------------------------
# reading and checking one round

def _rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class RoundCheck:
    """Checks one round's outputs; collects problems and the objectives reached.

    A descent method of ``toy`` that ends above the non-revealing objective
    is counted in ``above_non_revealing`` rather than listed as a problem:
    the methods have no such guarantee and do so on some instances (see
    README), while a benchmark whose correctness depended on the seed could
    not be compared between runs.  The solvers that descend monotonically
    from the non-revealing plan (grid, DCA) must stay at or below it.
    """

    def __init__(self, optimum_cache: dict):
        self.problems: list = []
        self.gains: list = []
        self.sweep_gain = None
        self.above_non_revealing = 0
        self._optimum = optimum_cache

    def expect(self, where: str, problem) -> None:
        if problem is not None:
            self.problems.append(f"{where}: {problem}")

    def objective_gain(self) -> float:
        """Sweep: mean over lambda of u - lam p; otherwise mean gain per solve."""
        if self.sweep_gain is not None:
            return self.sweep_gain
        return float(np.mean(self.gains)) if self.gains else float("nan")

    def lower_bound(self, instance) -> float:
        key = instance.prior.tobytes() + instance.types.tobytes()
        if key not in self._optimum:
            self._optimum[key] = checks.corner_optimum(
                instance.prior, instance.types, LAM)[1]
        return self._optimum[key]

    def plan(self, where, instance, plan, reported, divergence="kl",
             monotone=True):
        """Every check on one plan and the objective reported for it."""
        self.expect(where, checks.columns_match_prior(plan["gamma"],
                                                      instance.prior))
        self.expect(where, checks.instance_matches(plan["types"], plan["prior"],
                                                   instance))
        self.expect(where, checks.objective_matches(
            reported, checks.plan_objective(plan["gamma"], plan["atoms"],
                                            plan["types"], plan["prior"], LAM,
                                            divergence)))
        above = checks.not_above_non_revealing(reported, instance.non_revealing)
        if monotone:
            self.expect(where, above)
        elif above is not None:
            self.above_non_revealing += 1
            print(f"{where}: {above}", file=sys.stderr)
        if divergence == "kl":
            self.expect(where, checks.not_below_optimum(
                reported, self.lower_bound(instance)))
        self.gains.append(instance.non_revealing - reported)

    def toy(self, job, out: Path, plans: list) -> None:
        finals = _rows(out / "toy_finals.csv")
        methods = job.config["methods"]
        if len(plans) != len(methods) or len(finals) != len(methods):
            self.expect(job.name, f"{len(plans)} plans and {len(finals)} "
                                  f"finals for {len(methods)} methods")
            return
        for method, row, plan in zip(methods, finals, plans):
            reported = float(row["final_objective"])
            self.expect(f"{job.name}/{method}", checks.objective_matches(
                reported, plan["value"]))
            self.plan(f"{job.name}/{method}", job.instance, plan, reported,
                      monotone=method == "dca")
        dca = [float(r["mean_objective"]) for r in _rows(out / "toy_benchmark.csv")
               if r["method"] == "dca"]
        self.expect(f"{job.name}/dca trace", checks.nonincreasing(dca))

    def grid(self, job, out: Path) -> None:
        plan = json.loads((out / "plan.json").read_text())
        (row,) = _rows(out / "objective.csv")
        self.plan(job.name, job.instance, plan, float(row["objective"]),
                  job.config["divergence"])

    def dca(self, job, out: Path) -> None:
        plan = json.loads((out / "plan.json").read_text())
        trace = [float(r["objective"]) for r in _rows(out / "trace.csv")]
        self.expect(f"{job.name} trace", checks.nonincreasing(trace))
        self.plan(job.name, job.instance, plan, trace[-1],
                  job.config["divergence"])

    def sweep(self, job, out: Path, runs: list) -> None:
        """Checks the sweep; its gain is the mean over lambda of u - lam * p.

        That is the objective 1 - u + lam * p of not bidding at all (1, which
        reveals nothing) minus the objective reached.
        """
        prior = np.full(AUCTION_TYPES, 1.0 / AUCTION_TYPES)
        for run in runs:
            where = f"{job.name}/lam={run['lam']:g}/run={run['run']}"
            self.expect(where, checks.columns_match_prior(run["gamma"], prior))
            self.expect(where, checks.privacy_matches(run["privacy"],
                                                      run["gamma"], prior))
            self.expect(where, checks.utility_matches(
                run["utility"], run["utility_stderr"],
                checks.auction_utility(run["gamma"], run["types"],
                                       run["policies"])))
        gains = []
        for row in _rows(out / "tradeoff.csv"):
            lam = float(row["lambda"])
            mine = [r for r in runs if r["lam"] == lam]
            where = f"{job.name}/lam={lam:g}"
            for key in ("utility", "privacy"):
                self.expect(f"{where}/{key}", checks.objective_matches(
                    float(row[key]), float(np.mean([r[key] for r in mine]))))
            heatmap = np.array([[float(x) for x in list(r.values())[1:]]
                                for r in _rows(out / f"heatmap_lam{lam:.6g}.csv")])
            first = next(r for r in mine if r["run"] == 0)
            if not np.array_equal(heatmap, np.asarray(first["gamma"])):
                self.expect(where, "heat map differs from the run-0 plan")
            gains.append(float(row["utility"]) - lam * float(row["privacy"]))
        if len(gains) != len(job.config["lambdas"]):
            self.expect(job.name, f"tradeoff has {len(gains)} rows")
        self.sweep_gain = float(np.mean(gains))


def check_round(jobs, out: Path, record: dict, optimum_cache: dict) -> RoundCheck:
    check = RoundCheck(optimum_cache)
    for job in jobs:
        if job.name in record["failed_jobs"]:
            continue
        job_out = out / job.name
        kind = job.config["kind"]
        if kind == "toy":
            check.toy(job, job_out, record["jobs"][job.name])
        elif kind == "sweep":
            check.sweep(job, job_out, record["jobs"][job.name])
        else:
            getattr(check, kind)(job, job_out)
    return check


# ---------------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    jobs = jobs_for(workload, seed)
    solves = {job.name: job.solves for job in jobs}
    runs_dir = HERE / "runs" / workload
    shutil.rmtree(runs_dir, ignore_errors=True)
    # set-up time is reported by untraced runs only
    setups = [launch(workload, seed, runs_dir / f"setup{i}",
                     setup_only=True)["setup_s"]
              for i in range(0 if trace else SETUP_PROBES)]
    optimum_cache: dict = {}
    plain, traced, problems, gains = [], [], [], []
    attempted = failed = 0
    measure_start = time.perf_counter()
    while True:
        use_trace = trace and len(plain) > len(traced)
        out = runs_dir / f"round{len(plain) + len(traced)}"
        record = launch(workload, seed, out, trace=use_trace)
        (traced if use_trace else plain).append(record)
        attempted += sum(solves.values())
        failed += sum(solves[name] for name in record["failed_jobs"])
        check = check_round(jobs, out, record, optimum_cache)
        problems += [f"round {len(plain) + len(traced) - 1}: {p}"
                     for p in check.problems]
        gains.append(check.objective_gain())
        rounds = len(plain) + len(traced)
        now = time.perf_counter()
        per_round = (now - measure_start) / rounds
        if rounds >= 1 + trace and now - started + per_round > seconds:
            break
    for problem in problems:
        print(problem, file=sys.stderr)
    if trace:
        layers = {name: statistics.median(r["layers"].get(name, 0.0)
                                          for r in traced)
                  for name, _, _ in LAYER_METRICS}
        layers["trace.overhead_s"] = (statistics.median(r["wall_s"]
                                                        for r in traced)
                                      - statistics.median(r["wall_s"]
                                                          for r in plain))
        layers["checks.above_non_revealing"] = check.above_non_revealing
        metrics = layers
    else:
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "setup_s": statistics.median(setups + [r["setup_s"] for r in plain]),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "objective_gain": statistics.median(gains),
        }
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": UNITS[name]}
                        for name, value in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run raises SystemExit, so subprocess.run kills and reaps
    # the worker it is waiting for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "prp" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'prp'} is missing",
              file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
