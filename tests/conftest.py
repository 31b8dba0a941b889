"""Shared corpus helpers for the test suite.

Every corpus here is seeded; re-running the suite regenerates the exact same
instances, so a failure message's (seed, index) pair is enough to reproduce.
"""

import random
from fractions import Fraction

import pytest

from splitwise import DecisionTree, DTInstance, Entries, validate_instance


def random_exact_weights(rng: random.Random, n: int):
    """n positive Fractions summing to exactly 1."""
    raw = [Fraction(rng.randrange(1, 50)) for _ in range(n)]
    total = sum(raw)
    return [w / total for w in raw]


def random_valid_instance(rng: random.Random, n: int, m: int, K: int,
                          uniform: bool = False, max_tries: int = 200) -> DTInstance:
    """Rejection-sample a valid instance (distinguishing tests, exact weights)."""
    while K ** m < 2 * n:      # keep rejection sampling feasible
        m += 1
    weights = ([Fraction(1, n)] * n) if uniform else random_exact_weights(rng, n)
    for _ in range(max_tries):
        tests = [tuple(rng.randrange(1, K + 1) for _ in range(n)) for _ in range(m)]
        inst = DTInstance(weights, tests, K)
        if validate_instance(inst).ok:
            return inst
    raise RuntimeError(f"no valid instance found for n={n} m={m} K={K}")


def tree_of(spec) -> DecisionTree:
    """A hand-built tree from nested tuples: a leaf is its mask, an interior
    node is (test, mask, [(answer, child spec), ...])."""
    entries = Entries()
    stack = [(spec, None, None)]
    while stack:
        node, parent, answer = stack.pop()
        if isinstance(node, int):
            entries.add(None, node, parent, answer)
            continue
        test, mask, children = node
        idx = entries.add(test, mask, parent, answer)
        stack.extend((sub, idx, a) for a, sub in reversed(children))
    return DecisionTree(entries)


@pytest.fixture
def rng():
    return random.Random(20260815)
