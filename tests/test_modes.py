"""Exact mode against float mode.

The same seeded instances are solved and measured once with Fraction weights
and once through `as_float()`.  Every quantity must agree within `close`, and
every value must carry its mode's type: a Fraction in exact mode, a float in
float mode, never a bare int (an empty `sum` without a typed start returns
int 0, which renders as `0` instead of `0.0`).
"""

from fractions import Fraction

import pytest

from splitwise import (DTInstance, ExactSolver, build_greedy_tree,
                       classify_vertices, cost, gen_random,
                       interior_weight_sum, optimal_cost, round_weights)
from splitwise.instance import close

CORPUS = [
    (profile, K, seed)
    for profile in ("uniform", "skew", "two-tier")
    for K in (2, 3)
    for seed in range(4)
]


def corpus_instance(profile: str, K: int, seed: int) -> DTInstance:
    n = (3, 5, 7, 9)[seed] - (K == 3)
    m = n + 1 if K == 2 else n
    return gen_random(n, m, K, seed=100 * seed + K, profile=profile)


def mode_values(inst: DTInstance, tree) -> dict[str, tuple]:
    breakdown = cost(tree, inst)
    solver = ExactSolver(inst)
    labels = classify_vertices(tree, inst, Fraction(1, 2))
    return {
        "cost": (breakdown.total, breakdown.raw, breakdown.normalizer),
        "interior_weight_sum": (interior_weight_sum(tree, inst),),
        "optimal_cost": (optimal_cost(inst),),
        "partial_cost": tuple(solver.partial_cost(None, b) for b in (0, 1, 2)),
        "round_weights": round_weights(inst).weights,
        "classify": (labels.balanced_weight(), labels.imbalanced_weight(),
                     labels.heavy_weight()),
    }


@pytest.mark.parametrize("profile,K,seed", CORPUS,
                         ids=[f"{p}-K{k}-s{s}" for p, k, s in CORPUS])
def test_exact_and_float_modes_agree(profile, K, seed):
    inst = corpus_instance(profile, K, seed)
    flt = inst.as_float()
    assert inst.exact and not flt.exact
    # one tree for both modes, so that a float near-tie in the greedy choice
    # cannot make the two sides measure different trees
    tree = build_greedy_tree(inst)
    exact_vals = mode_values(inst, tree)
    float_vals = mode_values(flt, tree)
    for name, xs in exact_vals.items():
        fs = float_vals[name]
        assert len(xs) == len(fs), name
        for x, f in zip(xs, fs):
            assert type(x) is Fraction, (name, x)
            assert type(f) is float, (name, f)
            assert close(x, f), (name, x, f)


@pytest.mark.parametrize("exact", [True, False])
def test_empty_sums_keep_the_mode_type(exact):
    """A one-hypothesis instance has no interior vertex and no split: every
    sum below is empty and must still return the mode's typed zero."""
    inst = DTInstance([1], [[1]], 2)
    if not exact:
        inst = inst.as_float()
    tree = build_greedy_tree(inst)
    want = Fraction if exact else float
    values = [interior_weight_sum(tree, inst), inst.zero,
              ExactSolver(inst).partial_cost(None, 0), cost(tree, inst).raw]
    for v in values:
        assert type(v) is want and v == 0, v
