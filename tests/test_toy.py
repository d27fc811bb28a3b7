import numpy as np

from prp import seeds, toy
from prp.direct import minimize_direct_starts
from prp.divergences import kl_divergence
from prp.measures import linear_cost
from prp.optim import DescentConfig
from prp.sinkhorn import minimize_sinkhorn_starts

METHODS = ["prp-rms", "dca", "sink-rms", "prp-adam", "sink-adam"]
SEED, RUNS, ITERATIONS, LAM = 11, 2, 40, 0.1


def solve_alone(method, instance, cost, seed):
    """The (plan, trace) of one method's solve on its own."""
    if method == "dca":
        result = toy.solve_dca(instance, kl_divergence(), LAM, ITERATIONS)
        return result.plan, result.trace
    family, optimizer = method.split("-")
    config = DescentConfig(method={"adam": "adam", "rms": "rmsprop"}[optimizer],
                           steps=ITERATIONS)
    solver = (minimize_direct_starts if family == "prp"
              else minimize_sinkhorn_starts)
    ((plan, trace),) = solver(instance.prior_weights, instance.type_atoms,
                              cost, LAM, [(config, seed)])
    return plan, trace


def test_benchmark_matches_per_method_runs_in_config_order(monkeypatch):
    # the prp-* methods of a run descend as one stack, and so do its sink-*
    # methods; every method is still scored once, in config order, exactly
    # as a stack of one start, or a solve_dca, on its own
    objective, scored = toy.prp_objective, []

    def recorded(plan, *args, **kwargs):
        scored.append(plan)
        return objective(plan, *args, **kwargs)

    monkeypatch.setattr(toy, "prp_objective", recorded)
    result = toy.run_benchmark(2, 5, LAM, METHODS, runs=RUNS,
                               iterations=ITERATIONS, seed=SEED)
    benchmark_plans, scored[:] = list(scored), []
    traces = {m: np.empty((RUNS, ITERATIONS)) for m in METHODS}
    for run in range(RUNS):
        instance = toy.sample_instance(
            2, 5, seeds.rng_for(SEED, seeds.INSTANCE, run))
        cost = linear_cost(instance.bounds)
        for mi, method in enumerate(METHODS):
            seed = seeds.seed_for(SEED, seeds.INIT, run, mi)
            plan, trace = solve_alone(method, instance, cost, seed)
            final = toy.prp_objective(plan, cost, kl_divergence(), LAM)
            assert final == result.finals[method][run]
            traces[method][run] = toy.pad_trace(trace, ITERATIONS)
    assert len(benchmark_plans) == len(scored) == RUNS * len(METHODS)
    for ours, alone in zip(benchmark_plans, scored):
        assert np.array_equal(ours.gamma, alone.gamma)
    for method in METHODS:
        assert np.array_equal(result.mean_trace[method],
                              traces[method].mean(axis=0))
        assert np.array_equal(result.stderr_trace[method],
                              traces[method].std(axis=0, ddof=0)
                              / np.sqrt(RUNS))
