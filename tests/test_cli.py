import json

import pytest

from prp import cli

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
], ids=["unknown-key", "non-kl-toy", "unknown-optimizer"])
def test_config_errors_exit_with_2(tmp_path, capsys, doc):
    assert run(tmp_path, doc) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("error", [ArithmeticError, FloatingPointError])
def test_numerical_failures_exit_with_3(tmp_path, capsys, monkeypatch, error):
    def fail(config):
        raise error("diverged")

    monkeypatch.setitem(cli._RUNNERS, "toy", fail)
    assert run(tmp_path, TOY) == 3
    assert "numerical failure: diverged" in capsys.readouterr().err
