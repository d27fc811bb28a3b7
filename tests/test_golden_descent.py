"""Golden-trace guard for the two descent schemes.

`golden_descent.json` holds the per-step direct-descent traces (adam and
rmsprop) and the final Sinkhorn-descent plans on one toy instance, each
from one start of seed 0, recorded at commit bcae99a, before the descent
loops packed their optimizer states and before the Sinkhorn finish
reused the last Newton state.  A later speed-up of either loop must
reproduce them: the direct traces to 1e-12 and the Sinkhorn plans to
1e-10.

Regenerate (only on purpose, when the arithmetic is meant to change) with
`PYTHONPATH=src python tests/test_golden_descent.py`.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from prp.direct import minimize_direct_starts
from prp.measures import linear_cost
from prp.optim import DescentConfig
from prp.sinkhorn import minimize_sinkhorn_starts
from prp.toy import sample_instance

GOLDEN = Path(__file__).with_name("golden_descent.json")
METHODS = ("adam", "rmsprop")


def _runs(method):
    instance = sample_instance(2, 5, np.random.default_rng(5))
    cost = linear_cost(instance.bounds)
    config = DescentConfig(method=method, steps=100)
    args = (instance.prior_weights, instance.type_atoms, cost, 0.1)
    ((_, trace),) = minimize_direct_starts(*args, [(config, 0)])
    ((plan, _),) = minimize_sinkhorn_starts(*args, [(config, 0)])
    return trace, plan.gamma


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("method", METHODS)
def test_descent_matches_the_golden_runs(golden, method):
    trace, plan = _runs(method)
    assert np.abs(trace - golden[f"direct_{method}_trace"]).max() <= 1e-12
    assert np.abs(plan - golden[f"sinkhorn_{method}_plan"]).max() <= 1e-10


if __name__ == "__main__":
    record = {}
    for name in METHODS:
        trace, plan = _runs(name)
        record[f"direct_{name}_trace"] = trace.tolist()
        record[f"sinkhorn_{name}_plan"] = plan.tolist()
    GOLDEN.write_text(json.dumps(record, indent=1) + "\n")
