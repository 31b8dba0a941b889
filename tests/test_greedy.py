"""Greedy construction: split profiles, tie rules, the two-route cost
identity, and minority-mass monotonicity.
"""

import random
from fractions import Fraction

import pytest

from splitwise import (
    DTInstance,
    UnsplittableSetError,
    build_greedy_tree,
    cost,
    gen_grid_adversarial,
    greedy_choice,
    heavy_hypothesis,
    interior_weight_sum,
    is_complete,
    majority_parts,
    majority_split,
    optimal_cost,
    structural_problems,
)
from conftest import random_valid_instance


def singleton3() -> DTInstance:
    """n=3 uniform; test j isolates hypothesis j."""
    return DTInstance(
        [Fraction(1, 3)] * 3,
        [(1, 2, 2), (2, 1, 2), (2, 2, 1)],
        2,
    )


# ---------------------------------------------------------------------------
# split profiles and the greedy choice
# ---------------------------------------------------------------------------

def test_split_profile_fields():
    inst = singleton3()
    smask = inst.as_mask([1, 2, 3])
    kplus, maj_mask, maj_num = majority_parts(inst, smask, (1,))[0]
    parts = tuple(inst.mask_weight(smask & am) for am in inst.answer_masks(1))
    assert parts == (Fraction(1, 3), Fraction(2, 3))
    assert inst.num_to_weight(maj_num) == Fraction(2, 3)
    assert kplus == 2
    assert inst.mask_weight(smask & ~maj_mask) == Fraction(1, 3)
    assert maj_mask != smask


def test_split_profile_flags_useless_test():
    inst = singleton3()
    # test 1 does not split {2,3}: both answer 2
    smask = inst.as_mask([2, 3])
    _, maj_mask, maj_num = majority_parts(inst, smask, (1,))[0]
    assert maj_mask == smask
    # the primitive reports a non-splitting test by a max-part weight of None
    assert maj_num is None


def test_greedy_choice_minimizes_max_part():
    # max part weights: test 1 -> 1/2, test 2 -> 3/4; clear winner
    inst = DTInstance(
        [Fraction(1, 4)] * 4,
        [(1, 1, 2, 2), (1, 2, 2, 2)],
        2,
    )
    assert greedy_choice(inst, [1, 2, 3, 4]) == 1


def test_greedy_tie_breaks_to_smallest_index():
    # tests 1 and 2 both split 2|2; test 3 splits 1|3
    inst = DTInstance(
        [Fraction(1, 4)] * 4,
        [(1, 1, 2, 2), (1, 2, 1, 2), (1, 2, 2, 2)],
        2,
    )
    assert greedy_choice(inst, [1, 2, 3, 4]) == 1


def test_greedy_choice_skips_useless_tests():
    # test 1 is useless on the full set (constant answer); test 2 splits
    inst = DTInstance(
        [Fraction(1, 2), Fraction(1, 2)],
        [(1, 1), (1, 2)],
        2,
    )
    assert greedy_choice(inst, [1, 2]) == 2


def test_greedy_choice_rejects_singletons():
    inst = singleton3()
    with pytest.raises(UnsplittableSetError):
        greedy_choice(inst, [2])


def test_majority_tie_prefers_largest_answer():
    # test 1 splits {1,2} 1|1: tie -> majority answer must be 2
    inst = DTInstance(
        [Fraction(1, 2), Fraction(1, 2)],
        [(1, 2)],
        2,
    )
    a, mask = majority_split(inst, 0b11, 1)
    assert a == 2
    assert mask == 0b10
    assert inst.mask_num(0b11 & ~mask) == inst.mask_num(0b01)


def test_heavy_hypothesis_detection():
    # p = (6/10, 2/10, 1/10, 1/10); test 1 isolates h=1, minority {1} has 6/10?
    # No: majority part is {2,3,4} with 4/10 < 6/10, so minority is {2,3,4}.
    inst = DTInstance(
        [Fraction(6, 10), Fraction(2, 10), Fraction(1, 10), Fraction(1, 10)],
        [(1, 2, 2, 2), (2, 1, 2, 2), (2, 2, 1, 2)],
        2,
    )
    smask = inst.full_mask
    a, mask = majority_split(inst, smask, 1)
    assert (a, mask) == (1, 0b0001)
    # p^- = 4/10; only h=1 exceeds it
    assert heavy_hypothesis(inst, smask, 1) == 1
    # test 2 isolates h=2: majority {1,3,4} holds 8/10, minority mass 2/10;
    # h=1 with 6/10 is the unique heavy hypothesis
    assert heavy_hypothesis(inst, smask, 2) == 1


# ---------------------------------------------------------------------------
# the frozen three-singleton chain
# ---------------------------------------------------------------------------

def test_singleton3_greedy_cost_is_five_thirds():
    inst = singleton3()
    tree = build_greedy_tree(inst)
    br = cost(tree, inst)
    assert br.total == Fraction(5, 3), f"C_G = {br.total}, expected 5/3"
    # root picks test 1 (all three tie at max part 2/3; smallest index wins)
    assert tree.root.test == 1
    assert br.depths == {1: 1, 2: 2, 3: 2}
    # here greedy is optimal
    assert optimal_cost(inst) == Fraction(5, 3)


# ---------------------------------------------------------------------------
# corpus invariants
# ---------------------------------------------------------------------------

def make_corpus(seed: int, count: int, uniform: bool = False):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randrange(2, 13)
        m = rng.randrange(2, 8)
        K = rng.choice([2, 2, 3])
        out.append(random_valid_instance(rng, n, m, K, uniform=uniform))
    return out


def test_greedy_trees_are_complete_and_clean():
    for idx, inst in enumerate(make_corpus(31, 40)):
        tree = build_greedy_tree(inst)
        assert is_complete(tree, inst), f"case {idx}: greedy tree incomplete"
        assert structural_problems(tree, inst) == [], f"case {idx}: structure"


def test_cost_identity_both_routes():
    """sum over interior vertices of p(v) equals the depth-weighted cost."""
    for idx, inst in enumerate(make_corpus(32, 60)):
        tree = build_greedy_tree(inst)
        assert interior_weight_sum(tree, inst) == cost(tree, inst).raw, (
            f"case {idx}: cost identity failed"
        )


def test_every_interior_choice_is_greedy():
    # the builder scans each set only with its parent's splitting tests;
    # greedy_choice scans all of them
    grids = [gen_grid_adversarial(n, c) for n, c in ((64, 4), (256, 5))]
    for idx, inst in enumerate(make_corpus(33, 40) + grids):
        tree = build_greedy_tree(inst)
        for rec in tree.records:
            if rec.node.is_leaf:
                continue
            assert rec.node.test == greedy_choice(inst, rec.node.mask), (
                f"case {idx}: node {rec.id} is not the greedy choice"
            )


def test_minority_mass_never_increases_downward():
    """p^-(child) <= p^-(parent) along every interior edge of a greedy tree."""
    for idx, inst in enumerate(make_corpus(34, 60)):
        tree = build_greedy_tree(inst)
        minority = {
            rec.id: inst.mask_num(
                rec.node.mask
                & ~majority_split(inst, rec.node.mask, rec.node.test)[1])
            for rec in tree.records if not rec.node.is_leaf
        }
        for rec in tree.records:
            if rec.node.is_leaf or rec.parent_id is None:
                continue
            if rec.parent_id in minority and rec.id in minority:
                assert minority[rec.id] <= minority[rec.parent_id], (
                    f"case {idx}: minority mass grew at node {rec.id}"
                )


def test_greedy_never_beats_optimal():
    rng = random.Random(35)
    for idx in range(40):
        inst = random_valid_instance(rng, rng.randrange(2, 8),
                                     rng.randrange(2, 6), rng.choice([2, 3]))
        cg = cost(build_greedy_tree(inst), inst).total
        copt = optimal_cost(inst)
        assert copt <= cg, f"case {idx}: optimal {copt} above greedy {cg}"


def test_greedy_deep_chain_does_not_recurse_out():
    """A 64-hypothesis singleton chain forces depth 63."""
    n = 64
    tests = []
    for j in range(1, n):
        tests.append(tuple(1 if h == j else 2 for h in range(1, n + 1)))
    inst = DTInstance([Fraction(1, n)] * n, tests, 2)
    tree = build_greedy_tree(inst)
    assert max(cost(tree, inst).depths.values()) == n - 1
