"""Golden-run guard for auction training.

Training prices every step with the exact expected statistics, so a run is
a deterministic function of its seed.  `golden_auctions.json` holds the
loss trace and the final plan of one short `train_strategy` run (K=3,
width 10, lam=0.1, 25 steps, seed 5).  A later change of the training
arithmetic must reproduce them: the trace to 1e-12 and the plan to 1e-10.

Regenerate (only on purpose, when the arithmetic is meant to change) with
`PYTHONPATH=src python tests/test_golden_auctions.py`.
"""

import json
from pathlib import Path

import numpy as np

from prp.auctions import AuctionModel, train_strategy
from prp.optim import DescentConfig

GOLDEN = Path(__file__).with_name("golden_auctions.json")


def _run():
    plan, trace = train_strategy(AuctionModel(n_types=3), lam=0.1, steps=25,
                                 config=DescentConfig(), seed=5, width=10)
    return trace, plan.gamma


def test_training_matches_the_golden_run():
    golden = json.loads(GOLDEN.read_text())
    trace, plan = _run()
    assert np.abs(trace - golden["trace"]).max() <= 1e-12
    assert np.abs(plan - golden["plan"]).max() <= 1e-10


if __name__ == "__main__":
    trace, plan = _run()
    GOLDEN.write_text(json.dumps({"trace": trace.tolist(),
                                  "plan": plan.tolist()}, indent=1) + "\n")
