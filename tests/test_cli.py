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


@pytest.mark.parametrize("doc", [
    {**TOY, "unroll_iters": 100},
    {"kind": "toy", "methods": ["prp-adam"], "divergence": "reverse_kl"},
], ids=["unknown-key", "non-kl-toy"])
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
