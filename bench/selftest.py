"""Self-test of the benchmark's checks: each accepts a valid output and
rejects a deliberately corrupted copy of it.

    python3 bench/selftest.py

The valid outputs are built here with numpy alone (no ``prp`` import): the
exact box-corner plan of a generated instance, written in the CLI's file
formats, and a plan of ReLU bid policies priced by this file's own
Monte-Carlo sampler.  Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import csv
import json
import shutil
from pathlib import Path

import numpy as np

import checks
from inputs import LAM, Job, instance_for
from run import RoundCheck

OUT = Path(__file__).resolve().parent / "runs" / "selftest"


def corner_plan(instance):
    """Blahut-Arimoto plan over the box corners, run to convergence."""
    corners = checks.box_corners(instance.types.shape[1])
    loss = corners @ instance.types.T
    for _, _, q in checks._blahut_arimoto(loss, instance.prior, LAM, 20_000):
        pass
    kernel = np.exp(-(loss - loss.min(axis=0)) / LAM)
    gamma = q[:, None] * kernel * (instance.prior / (q @ kernel))[None, :]
    return {"gamma": gamma.tolist(), "atoms": corners.tolist(),
            "types": instance.types.tolist(), "prior": instance.prior.tolist()}


def write_csv(path: Path, header, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([[x if isinstance(x, str) else repr(float(x))
                           for x in row] for row in rows])


def revenue_at(gamma, types, policies, v) -> np.ndarray:
    """Plan-weighted revenue integrand at the values v, summed over policies."""
    gamma = np.asarray(gamma)
    coef, mass = gamma @ types, gamma.sum(axis=1)
    u = np.zeros(v.size)
    for i, pol in enumerate(policies):
        act = v[:, None] * pol["weights"] + pol["biases"]
        beta = np.maximum(act, 0.0) @ pol["out_weights"] + pol["out_bias"]
        prime = (act > 0.0) @ (np.asarray(pol["weights"])
                               * np.asarray(pol["out_weights"]))
        keep = np.clip(beta, 0.0, 1.0) * (beta - prime >= 0.0)
        u += (coef[i] * v - mass[i] * (beta - prime)) * keep
    return u


def monte_carlo_utility(gamma, types, policies, samples, rng):
    """Plan-weighted revenue by sampling v ~ Exp(1); (mean, stderr)."""
    u = revenue_at(gamma, types, policies, rng.exponential(size=samples))
    return float(u.mean()), float(u.std() / np.sqrt(samples))


def random_policies(rng, count, width=12):
    return [{"weights": rng.uniform(-0.5, 1.5, width).tolist(),
             "biases": rng.uniform(-0.5, 0.5, width).tolist(),
             "out_weights": rng.uniform(-0.05, 0.4 * (i + 1) / width,
                                        width).tolist(),
             "out_bias": 0.02}
            for i in range(count)]


class Cases:
    def __init__(self):
        self.failures = []
        self.count = 0

    def expect(self, label: str, problem, should_fail: bool) -> None:
        self.count += 1
        if (problem is not None) != should_fail:
            self.failures.append(f"{label}: {'accepted' if should_fail else problem}")

    def pair(self, label: str, check, valid, corrupted) -> None:
        self.expect(f"{label} (valid)", check(valid), False)
        self.expect(f"{label} (corrupted)", check(corrupted), True)


def plan_checks(cases: Cases) -> None:
    instance = instance_for("toy", 20240611)
    plan = corner_plan(instance)
    value = checks.plan_objective(plan["gamma"], plan["atoms"], plan["types"],
                                  plan["prior"], LAM)
    optimum, bound = checks.corner_optimum(instance.prior, instance.types, LAM)
    cases.expect("corner optimum bounds the corner plan",
                 checks.objective_matches(value, optimum), False)
    gamma = np.asarray(plan["gamma"])
    shifted = gamma.copy()
    shifted[0, 0] += 1e-6
    cases.pair("columns", lambda g: checks.columns_match_prior(g, instance.prior),
               gamma, shifted)
    cases.pair("instance", lambda t: checks.instance_matches(t, instance.prior,
                                                             instance),
               instance.types, instance.types[::-1])
    cases.pair("objective", lambda r: checks.objective_matches(r, value),
               value, value + 1e-6)
    cases.pair("non-revealing",
               lambda r: checks.not_above_non_revealing(r, instance.non_revealing),
               value, instance.non_revealing + 1e-6)
    cases.pair("corner optimum", lambda r: checks.not_below_optimum(r, bound),
               value, bound - 1e-6)
    cases.pair("trace", checks.nonincreasing, [-0.2, -0.3, -0.3, -0.5],
               [-0.2, -0.3, -0.29, -0.5])
    rng = np.random.default_rng(7)
    for trial in range(200):   # no feasible plan beats the certified bound
        g = rng.dirichlet(np.ones(4), size=instance.prior.size).T * instance.prior
        cases.expect(f"random plan {trial} above the bound", checks.not_below_optimum(
            checks.plan_objective(g, plan["atoms"], plan["types"], plan["prior"],
                                  LAM), bound), False)

    # the same checks reached through the CLI's toy outputs: one method that
    # reveals (the corner plan) and dca, which here reveals nothing
    best = -np.sign(instance.prior @ instance.types)
    silent = {**plan, "gamma": [instance.prior.tolist()], "atoms": [best.tolist()]}
    job = Job("toy0", {"kind": "toy", "methods": ["sink-adam", "dca"]}, instance)

    def toy_round(plans, finals, dca_trace):
        shutil.rmtree(OUT, ignore_errors=True)
        write_csv(OUT / "toy0" / "toy_finals.csv",
                  ["method", "run", "final_objective"],
                  [[m, "0", f] for m, f in zip(job.config["methods"], finals)])
        write_csv(OUT / "toy0" / "toy_benchmark.csv",
                  ["method", "iteration", "mean_objective", "stderr"],
                  [["dca", str(i), v, 0.0] for i, v in enumerate(dca_trace)])
        check = RoundCheck({})
        check.toy(job, OUT / "toy0", plans)
        return check

    nonrev = instance.non_revealing
    plans = [{**plan, "value": value}, {**silent, "value": nonrev}]
    valid = (plans, [value, nonrev], [nonrev, nonrev])
    cases.pair("toy finals file",
               lambda f: toy_round(plans, f, valid[2]).problems or None,
               valid[1], [value + 1e-6, nonrev])
    cases.pair("toy plan",
               lambda p: toy_round(p, valid[1], valid[2]).problems or None,
               plans, [{**plans[0], "gamma": shifted.tolist()}, plans[1]])
    cases.pair("toy dca trace",
               lambda t: toy_round(plans, valid[1], t).problems or None,
               valid[2], [nonrev, nonrev + 1e-3, nonrev])

    # a plan that reveals nothing and takes the worst corner is above the
    # non-revealing objective: counted for a descent method, a problem for dca
    worse = {**silent, "atoms": [(-best).tolist()]}
    worse_value = checks.plan_objective(worse["gamma"], worse["atoms"],
                                        worse["types"], worse["prior"], LAM)
    counted = toy_round([{**worse, "value": worse_value}, plans[1]],
                        [worse_value, nonrev], valid[2])
    cases.expect("toy descent method above non-revealing is counted",
                 counted.problems or (None if counted.above_non_revealing == 1
                                      else "not counted"), False)
    cases.expect("toy dca above non-revealing", toy_round(
        [plans[0], {**worse, "value": worse_value}], [value, worse_value],
        [worse_value, worse_value]).problems or None, True)

    # grid and dca outputs of the CLI (plan.json plus objective or trace)
    def file_round(kind, divergence, plan_doc, rows):
        shutil.rmtree(OUT, ignore_errors=True)
        (OUT / "job").mkdir(parents=True)
        (OUT / "job" / "plan.json").write_text(json.dumps(plan_doc))
        if kind == "grid":
            write_csv(OUT / "job" / "objective.csv", ["objective"], [[rows]])
        else:
            write_csv(OUT / "job" / "trace.csv", ["iteration", "objective"],
                      [[str(i), v] for i, v in enumerate(rows)])
        check = RoundCheck({})
        getattr(check, kind)(Job("job", {"kind": kind,
                                          "divergence": divergence}, instance),
                             OUT / "job")
        return check.problems or None

    mixed = 0.5 * gamma + 0.5 * np.outer(np.full(4, 0.25), instance.prior)
    ratio = mixed / mixed.sum(axis=1, keepdims=True) / instance.prior
    reverse = float(mixed.sum(axis=1) @ (-np.log(ratio) @ instance.prior))
    reverse_value = float((mixed * (np.asarray(plan["atoms"])
                                    @ instance.types.T)).sum()) + LAM * reverse
    mixed_plan = {**plan, "gamma": mixed.tolist()}
    cases.pair("grid reverse-KL objective file",
               lambda r: file_round("grid", "reverse_kl", mixed_plan, r),
               reverse_value, reverse_value + 1e-6)
    cases.pair("grid KL plan file",
               lambda g: file_round("grid", "kl", {**plan, "gamma": g}, value),
               plan["gamma"], shifted.tolist())
    cases.pair("dca trace file",
               lambda t: file_round("dca", "kl", silent, t),
               [nonrev + 0.1, nonrev], [nonrev - 1e-3, nonrev])


def auction_checks(cases: Cases) -> None:
    rng = np.random.default_rng(11)
    types = (np.arange(10) + 0.5) / 10
    prior = np.full(10, 0.1)
    policies = random_policies(rng, 3)
    gamma = rng.dirichlet(np.ones(3), size=10).T * prior
    quadrature = checks.auction_utility(gamma, types, policies)

    grid = np.linspace(0.0, 40.0, 2_000_001)   # trapezoid cross-check
    total = np.trapezoid(revenue_at(gamma, types, policies, grid)
                         * np.exp(-grid), grid)
    cases.expect("quadrature against a fine trapezoid rule",
                 None if abs(total - quadrature) < 1e-5 else
                 f"{quadrature} vs {total}", False)

    utility, stderr = monte_carlo_utility(gamma, types, policies, 400_000, rng)
    cases.pair("utility", lambda u: checks.utility_matches(u, stderr, quadrature),
               utility, utility + 10.0 * stderr)
    kl = checks.privacy(gamma, prior)
    cases.pair("privacy", lambda p: checks.privacy_matches(p, gamma, prior),
               kl, kl * 1.01)

    # the sweep checks through the CLI file formats
    job = Job("sweep", {"kind": "sweep", "lambdas": [0.1]})
    run_doc = {"lam": 0.1, "run": 0, "gamma": gamma.tolist(),
               "types": types.tolist(), "policies": policies,
               "utility": utility, "utility_stderr": stderr, "privacy": kl}

    def sweep_round(run, heatmap):
        shutil.rmtree(OUT, ignore_errors=True)
        write_csv(OUT / "sweep" / "tradeoff.csv",
                  ["lambda", "utility", "utility_stderr", "privacy",
                   "privacy_stderr"],
                  [[0.1, utility, stderr, kl, 0.0]])
        write_csv(OUT / "sweep" / "heatmap_lam0.1.csv",
                  ["atom"] + [f"type_{k}" for k in range(10)],
                  [[i, *row] for i, row in enumerate(heatmap)])
        check = RoundCheck({})
        check.sweep(job, OUT / "sweep", [run])
        return check.problems or None

    cases.pair("sweep files", lambda r: sweep_round(r, gamma), run_doc,
               {**run_doc, "utility": utility + 10.0 * stderr})
    cases.pair("heat map file", lambda h: sweep_round(run_doc, h), gamma,
               gamma[::-1])


def main() -> int:
    cases = Cases()
    plan_checks(cases)
    auction_checks(cases)
    shutil.rmtree(OUT, ignore_errors=True)
    for failure in cases.failures:
        print(f"FAIL {failure}")
    print(f"{cases.count - len(cases.failures)} of {cases.count} cases behave")
    return 1 if cases.failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
