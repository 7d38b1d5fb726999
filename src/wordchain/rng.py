"""Deterministic random streams.

Every stochastic routine takes a caller-owned ``random.Random``.  The helpers
here derive independent child generators from a (seed, label) pair so that
adding a new consumer never perturbs the draws seen by existing ones.
"""

from __future__ import annotations

import hashlib
import random


def derive_rng(seed: int, label: str) -> random.Random:
    """Child generator for `label`, independent of other labels.

    The derivation hashes the pair, so it is stable across platforms and
    Python versions (unlike seeding ``Random`` with a raw string).
    """
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))
