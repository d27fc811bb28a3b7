import json
import math
import runpy
import sys

import numpy as np
import pytest

from prp import cli, seeds, toy
from prp.divergences import kl_divergence

TOY = {"kind": "toy", "d": 2, "K": 3, "lam": 0.1, "iterations": 15,
       "runs": 2, "seed": 5}


def run(tmp_path, doc, out="out"):
    config = tmp_path / f"{out}.json"
    config.write_text(json.dumps(doc))
    return cli.main([doc["kind"], "--config", str(config),
                     "--out", str(tmp_path / out)])


def test_toy_manifest_reproduces_both_csvs(tmp_path):
    assert run(tmp_path, TOY, "first") == 0
    manifest = tmp_path / "first" / "manifest.json"
    assert cli.main(["toy", "--config", str(manifest),
                     "--out", str(tmp_path / "second")]) == 0
    for name in ("toy_benchmark.csv", "toy_finals.csv"):
        first = (tmp_path / "first" / name).read_bytes()
        assert first == (tmp_path / "second" / name).read_bytes()
    methods = {line.split(",")[0] for line in
               (tmp_path / "first" / "toy_finals.csv").read_text().split()[1:]}
    assert methods == set(cli.toy.METHODS)


def test_sweep_manifest_reproduces_every_csv(tmp_path):
    # eval_samples has no effect since evaluation is exact, but older
    # manifests carry it
    sweep = {"kind": "sweep", "K": 3, "lambdas": [0.1], "runs": 2,
             "steps": 5, "width": 8, "train_samples": 100,
             "eval_samples": 1000, "seed": 4}
    assert run(tmp_path, sweep, "first") == 0
    manifest = tmp_path / "first" / "manifest.json"
    assert cli.main(["sweep", "--config", str(manifest),
                     "--out", str(tmp_path / "second")]) == 0
    names = sorted(p.name for p in (tmp_path / "first").glob("*.csv"))
    assert names == ["bidcurves_lam0.1.csv", "heatmap_lam0.1.csv",
                     "tradeoff.csv"]
    for name in names:
        first = (tmp_path / "first" / name).read_bytes()
        assert first == (tmp_path / "second" / name).read_bytes()


def test_sweep_ignores_the_retired_sample_counts(tmp_path):
    # training and evaluation are exact, so train_samples and eval_samples
    # are accepted for older manifests but change nothing
    sweep = {"kind": "sweep", "K": 3, "lambdas": [0.1], "runs": 1,
             "steps": 5, "width": 8, "seed": 4}
    assert run(tmp_path, {**sweep, "train_samples": 100}, "few") == 0
    assert run(tmp_path, {**sweep, "train_samples": 400,
                          "eval_samples": 10}, "many") == 0
    for name in ("bidcurves_lam0.1.csv", "heatmap_lam0.1.csv",
                 "tradeoff.csv"):
        few = (tmp_path / "few" / name).read_bytes()
        assert few == (tmp_path / "many" / name).read_bytes()


@pytest.mark.parametrize("doc", [
    {**TOY, "unroll_iters": 100},
    {"kind": "toy", "methods": ["prp-adam"], "divergence": "reverse_kl"},
    {"kind": "toy", "method": "sgd"},
    {"kind": "grid", "grid_points": 0},
    {"kind": "auctions", "width": 0},
    {"kind": "auctions", "n_atoms": 0},
    {"kind": "toy", "lam": math.nan},
    {"kind": "grid", "lam": math.inf},
    {"kind": "sweep", "lambdas": [math.nan], "runs": 1, "steps": 2,
     "width": 4},
    {"kind": "toy", "lr_atoms": -math.inf},
    {"kind": "toy", "lr_weights": -0.5},
    {"kind": "toy", "lr_atoms": -0.2},
    {"kind": "toy", "runs": "3"},
    {"kind": "toy", "iterations": True},
    {"kind": "grid", "grid_points": 3.0},
    {"kind": "toy", "seed": -1},
    {"kind": "toy", "methods": ["prp-adam", "prp-adam"]},
    {"kind": "toy", "methods": "dca"},
    {"kind": "grid", "divergence": "alpha:inf"},
    {"kind": "sweep", "lambdas": [0.1, 0.1], "runs": 1, "steps": 2,
     "width": 4},
    {"kind": "sweep", "lambdas": [0.1, 0.10000001], "runs": 1, "steps": 2,
     "width": 4},
    {"kind": "grid", "divergence": 5},
    {"kind": "sweep", "method": ["adam"]},
    {"kind": "sweep", "lambdas": [], "runs": 1, "steps": 2, "width": 4},
    {"kind": "auctions", "lambdas": [], "runs": 1, "steps": 2, "width": 4},
    {"kind": "toy", "methods": []},
], ids=["unknown-key", "non-kl-toy", "unknown-optimizer", "no-grid-points",
        "zero-width", "no-atoms", "nan-lam", "infinite-lam", "nan-lambdas",
        "infinite-lr", "negative-lr-weights", "negative-lr-atoms",
        "string-runs", "bool-iterations", "float-grid-points",
        "negative-seed", "repeated-methods", "string-methods",
        "infinite-alpha", "repeated-lambdas", "colliding-lambda-labels",
        "number-divergence", "list-method", "empty-sweep-lambdas",
        "empty-auction-lambdas", "empty-methods"])
def test_config_errors_exit_with_2(tmp_path, capsys, doc):
    assert run(tmp_path, doc) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_integer_values_for_float_fields_stay_valid(tmp_path):
    path = tmp_path / "grid.json"
    # a learning rate of 0 stays valid: lr_atoms = 0 keeps the atoms fixed
    path.write_text(json.dumps({"kind": "grid", "lam": 1, "lr_weights": 1,
                                "lr_atoms": 0, "lambdas": [1, 0.5]}))
    config = cli.load_config(path)
    assert (config.lam, config.lr_weights, config.lr_atoms,
            config.lambdas) == (1, 1, 0, [1, 0.5])


def test_dca_trace_is_the_toy_helper_trace(tmp_path):
    # the CLI kind runs the DCA helper of the toy `dca` method
    doc = {"kind": "dca", "d": 2, "K": 4, "lam": 0.2, "iterations": 5,
           "seed": 3}
    assert run(tmp_path, doc) == 0
    instance = toy.sample_instance(2, 4, seeds.rng_for(3, seeds.INSTANCE))
    trace = toy.solve_dca(instance, kl_divergence(), 0.2, 5).trace
    rows = (tmp_path / "out" / "trace.csv").read_text().split()[1:]
    assert [float(row.split(",")[1]) for row in rows] == trace.tolist()
    assert len(trace) <= 6   # the start and at most 5 outer steps


def test_python_dash_m_runs_the_cli(tmp_path, monkeypatch):
    config = tmp_path / "toy.json"
    config.write_text(json.dumps({**TOY, "methods": ["dca"], "runs": 1}))
    monkeypatch.setattr(sys, "argv", ["prp", "toy", "--config", str(config),
                                      "--out", str(tmp_path / "out")])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_module("prp", run_name="__main__")
    assert exit_info.value.code == 0
    finals = (tmp_path / "out" / "toy_finals.csv").read_text().split()
    assert finals[0] == "method,run,final_objective"
    assert [line.split(",")[0] for line in finals[1:]] == ["dca"]


@pytest.mark.parametrize("error", [ArithmeticError, FloatingPointError])
def test_numerical_failures_exit_with_3(tmp_path, capsys, monkeypatch, error):
    def fail(config):
        raise error("diverged")

    monkeypatch.setitem(cli._RUNNERS, "toy", fail)
    assert run(tmp_path, TOY) == 3
    assert "numerical failure: diverged" in capsys.readouterr().err


def test_sinkhorn_solve_with_an_empty_column_exits_with_3(tmp_path, capsys):
    # at lam = 1e-4 on 100-piece policies the first warm step solve stalls
    # with a column of its plan at 0 mass; the run once wrote a NaN row
    sweep = {"kind": "sweep", "K": 3, "lambdas": [1e-4], "runs": 1,
             "steps": 10, "width": 100}
    assert run(tmp_path, sweep) == 3
    assert "column of the plan at 0 mass" in capsys.readouterr().err
    assert not (tmp_path / "out" / "tradeoff.csv").exists()
