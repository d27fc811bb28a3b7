"""Deterministic seed derivation.

All randomness flows from one 64-bit master seed; independent consumers get
their own stream through a counter path (run index, purpose code), so runs
are reproducible regardless of scheduling or chunking.
"""

from __future__ import annotations

import numpy as np

# purpose codes for the seed path; stable across versions (3 and 4, the
# retired Monte-Carlo final-plan and evaluation draws, stay unassigned)
INSTANCE = 0     # toy and linear-cost instances
INIT = 1         # initial atoms and auction policies
TRAIN_STEP = 2   # the per-run training seed of an auction sweep


def rng_for(master_seed: int, *path: int) -> np.random.Generator:
    """Independent generator for (master, *path)."""
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), *map(int, path)]))


def seed_for(master_seed: int, *path: int) -> int:
    """Derived 63-bit integer seed for APIs that take a plain seed."""
    return int(rng_for(master_seed, *path).integers(0, 2 ** 63))
