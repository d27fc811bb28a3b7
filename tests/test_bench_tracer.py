"""The benchmark tracer's seam into the program.

`bench/tracing.py` reads some names of `prp` when it installs its spans,
and its probes read the results of the functions they wrap.  These tests
install it against this checkout in a fresh interpreter, so that renaming
or deleting a name it reads fails here and not only in a traced
benchmark round.
"""

import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"

TRACED = """
from tracing import Tracer
tracer = Tracer()
tracer.install()
from prp import toy
from prp.auctions import AuctionModel, sweep_lambda
from prp.optim import DescentConfig
toy.run_benchmark(2, 3, 0.1, toy.METHODS, runs=1, iterations=2, seed=0)
sweep_lambda(AuctionModel(n_types=2), [0.1], runs=1,
             config=DescentConfig(steps=2), width=4)
metrics = tracer.layer_metrics(0.0)
print(metrics["trace.spans"] > 0, "toy.run_benchmark.s" in metrics,
      tracer.names.count("optim.optimizer_step"))
"""


def test_tracer_installs_and_traces_a_toy_run_and_a_sweep():
    path = [str(BENCH), *sys.path]
    done = subprocess.run([sys.executable, "-c", TRACED],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ,
                               "PYTHONPATH": os.pathsep.join(path)})
    assert done.returncode == 0, done.stderr
    # one optimizer step span per descent step: the direct and the Sinkhorn
    # stacks of the toy run take 2 steps each, the sweep 2
    assert done.stdout == "True True 6\n"
