"""One round of a workload in a fresh interpreter: set up, solve, report.

Set-up is everything from the parent's launch of this process until the
configs are loaded and validated: interpreter start, ``import prp``, input
generation and ``prp.cli.load_config``.  The solve phase then calls the CLI
runner of every config in order.  The round's record goes to
``<out>/result.json``; with ``--trace 1`` the spans go to ``<out>/spans.npz``.

    python3 bench/worker.py --workload toy --seed 1 --out DIR --launched T
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))


def peak_rss_mb() -> float:
    """High-water resident set of this process image (not of its launcher)."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _plan_record(plan, value: float) -> dict:
    import numpy as np

    return {"gamma": plan.gamma.tolist(),
            "atoms": np.asarray(plan.action_atoms, dtype=float).tolist(),
            "types": np.asarray(plan.type_atoms, dtype=float).tolist(),
            "prior": plan.prior.weights.tolist(),
            "value": value}


def _sweep_record(result) -> list:
    return [{"lam": run.lam, "run": run.run,
             "gamma": run.plan.gamma.tolist(),
             "types": [float(y) for y in run.plan.type_atoms],
             "policies": [{"weights": p.weights.tolist(),
                           "biases": p.biases.tolist(),
                           "out_weights": p.out_weights.tolist(),
                           "out_bias": float(p.out_bias)}
                          for p in run.plan.action_atoms],
             "utility": run.evaluation.utility,
             "utility_stderr": run.evaluation.utility_stderr,
             "privacy": run.evaluation.privacy}
            for run in result.runs]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--launched", type=float, required=True,
                        help="time.monotonic() when the parent launched us")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import prp
    if Path(prp.__file__).resolve().parent != SRC / "prp":
        print(f"imported prp from {prp.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    from prp import cli, toy

    import inputs
    from speed import SpeedProbe

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    out = Path(args.out)
    jobs = inputs.jobs_for(args.workload, args.seed)
    configs = [cli.load_config(path)
               for path in inputs.write_configs(jobs, out)]
    setup_s = time.monotonic() - args.launched
    record = {"setup_s": setup_s}
    if args.setup_only:
        (out / "result.json").write_text(json.dumps(record))
        return 0

    captured = []
    objective = toy.prp_objective

    def capture(plan, *rest, **kwargs):
        value = objective(plan, *rest, **kwargs)
        captured.append((plan, value))
        return value

    toy.prp_objective = capture
    results = []
    failed_jobs = []
    job_s = {}
    with SpeedProbe() as probe:
        solve_start = time.perf_counter()
        for job, config in zip(jobs, configs):
            runner = getattr(cli, cli._RUNNERS[config.kind].__name__)
            first = len(captured)
            job_start = time.perf_counter()
            try:
                result = runner(config)
            except ArithmeticError as exc:
                print(f"{job.name}: numerical failure: {exc}", file=sys.stderr)
                failed_jobs.append(job.name)
                result = None
            job_s[job.name] = time.perf_counter() - job_start
            results.append((result, captured[first:]))
        solve_end = time.perf_counter()

    record.update(wall_s=probe.scaled_s(), raw_wall_s=probe.work_s(),
                  peak_rss_mb=peak_rss_mb(), job_s=job_s,
                  failed_jobs=failed_jobs, jobs={})
    for job, (result, plans) in zip(jobs, results):
        if job.config["kind"] == "toy":
            record["jobs"][job.name] = [_plan_record(p, v) for p, v in plans]
        elif job.config["kind"] == "sweep" and result is not None:
            record["jobs"][job.name] = _sweep_record(result)
    if tracer is not None:
        layers = tracer.layer_metrics(solve_start)
        layers["trace.wall_s"] = solve_end - solve_start
        layers["trace.accounted"] = layers["trace.self_s"] / (solve_end
                                                              - solve_start)
        layers["machine.slowdown"] = record["raw_wall_s"] / record["wall_s"]
        record["layers"] = layers
        tracer.save(out / "spans.npz")
    (out / "result.json").write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
