"""Decision-tree container: traversal, cost, completeness, serialization.

The cost oracle here deliberately avoids the library's descent logic: it
replays each hypothesis from the root by hand and counts edges.
"""

import random
from fractions import Fraction

import pytest

from splitwise import (
    DTInstance,
    DecisionTree,
    FormatError,
    IncompleteTreeError,
    StructureError,
    build_greedy_tree,
    corrupt_interior_mask,
    cost,
    depth_of,
    interior,
    interior_weight_sum,
    is_complete,
    leaf,
    optimal_tree,
    recompute_masks,
    structural_problems,
    tree_from_json_obj,
    tree_from_text,
    tree_to_json_obj,
    tree_to_text,
    verify_caches,
)
from conftest import random_valid_instance


def quarter_instance() -> DTInstance:
    return DTInstance([Fraction(1, 4)] * 4, [(1, 1, 2, 2), (1, 2, 1, 2)], 2)


def perfect_tree() -> DecisionTree:
    """Root on test 1, both children on test 2; depth 2 everywhere."""
    left = interior(2, [(1, leaf(0b0001)), (2, leaf(0b0010))], 0b0011)
    right = interior(2, [(1, leaf(0b0100)), (2, leaf(0b1000))], 0b1100)
    return DecisionTree(interior(1, [(1, left), (2, right)], 0b1111))


def replay_depth(tree: DecisionTree, inst: DTInstance, h: int) -> int:
    """Independent depth oracle: walk the tree answering each test for h."""
    node = tree.root
    d = 0
    while not node.is_leaf:
        a = inst.answer_of(node.test, h)
        nxt = None
        for ans, child in node.children:
            if ans == a:
                nxt = child
        assert nxt is not None, f"hypothesis {h} fell off the tree at depth {d}"
        node = nxt
        d += 1
    assert node.mask >> (h - 1) & 1, f"hypothesis {h} landed in a foreign leaf"
    return d


# ---------------------------------------------------------------------------
# traversal and records
# ---------------------------------------------------------------------------

def test_preorder_records():
    tree = perfect_tree()
    recs = tree.records
    assert len(recs) == 7
    assert recs[0].depth == 0 and recs[0].parent_id is None
    assert [r.depth for r in recs] == [0, 1, 2, 2, 1, 2, 2]
    # every non-root record points at an earlier record
    for r in recs[1:]:
        assert r.parent_id is not None and r.parent_id < r.id


# ---------------------------------------------------------------------------
# cost
# ---------------------------------------------------------------------------

def test_cost_breakdown_on_perfect_tree():
    inst = quarter_instance()
    br = cost(perfect_tree(), inst)
    assert br.total == 2
    assert br.raw == 2
    assert br.normalizer == 1
    assert br.depths == {1: 2, 2: 2, 3: 2, 4: 2}


def test_cost_conditional_on_subset():
    inst = quarter_instance()
    sub = interior(2, [(1, leaf(0b0001)), (2, leaf(0b0010))], 0b0011)
    br = cost(DecisionTree(sub), inst, [1, 2])
    assert br.normalizer == Fraction(1, 2)
    assert br.raw == Fraction(1, 2)    # (1/4 + 1/4) * depth 1
    assert br.total == 1


def test_cost_matches_replay_oracle():
    rng = random.Random(21)
    for idx in range(60):
        inst = random_valid_instance(rng, rng.randrange(2, 9),
                                     rng.randrange(2, 6), rng.choice([2, 3]))
        tree = build_greedy_tree(inst)
        br = cost(tree, inst)
        raw = Fraction(0)
        for h in range(1, inst.n + 1):
            d = replay_depth(tree, inst, h)
            assert br.depths[h] == d, f"case {idx}: depth mismatch for h={h}"
            raw += inst.weight_of(h) * d
        assert br.raw == raw, f"case {idx}: replayed cost {raw} != {br.raw}"
        assert br.total == raw  # full-set normalizer is 1


def test_depth_of_single_hypothesis():
    inst = quarter_instance()
    tree = perfect_tree()
    for h in range(1, 5):
        assert depth_of(tree, inst, h) == 2


# ---------------------------------------------------------------------------
# completeness and the interior-weight identity
# ---------------------------------------------------------------------------

def test_is_complete_perfect():
    inst = quarter_instance()
    assert is_complete(perfect_tree(), inst)


def test_is_complete_respects_budget():
    inst = quarter_instance()
    stub = DecisionTree(interior(1, [(1, leaf(0b0011)), (2, leaf(0b1100))], 0b1111))
    assert not is_complete(stub, inst)          # multi-leaves above any budget
    assert is_complete(stub, inst, b=1)         # allowed exactly at depth b
    assert not is_complete(stub, inst, b=2)


def test_interior_weight_sum_equals_raw_cost():
    rng = random.Random(22)
    for idx in range(60):
        inst = random_valid_instance(rng, rng.randrange(2, 10),
                                     rng.randrange(2, 7), rng.choice([2, 3]))
        tree = build_greedy_tree(inst)
        br = cost(tree, inst)
        assert interior_weight_sum(tree, inst) == br.raw, (
            f"case {idx}: interior-weight route disagrees with depth route"
        )


def test_interior_weight_sum_requires_completeness():
    inst = quarter_instance()
    stub = DecisionTree(interior(1, [(1, leaf(0b0011)), (2, leaf(0b1100))], 0b1111))
    with pytest.raises(IncompleteTreeError):
        interior_weight_sum(stub, inst)


# ---------------------------------------------------------------------------
# structural checks and cache verification
# ---------------------------------------------------------------------------

def test_structural_problems_clean_tree():
    inst = quarter_instance()
    assert structural_problems(perfect_tree(), inst) == []
    verify_caches(perfect_tree(), inst)      # no raise


def test_corrupted_mask_is_detected():
    inst = quarter_instance()
    tree = optimal_tree(inst)
    bad = corrupt_interior_mask(tree)
    with pytest.raises(StructureError):
        verify_caches(bad, inst)


def test_recompute_masks_pinpoints_corruption():
    inst = quarter_instance()
    tree = optimal_tree(inst)
    # corrupt a non-root interior node so the replayed set differs right there
    bad = corrupt_interior_mask(tree, which=1)
    fresh = recompute_masks(bad, inst)
    mismatched = [rec.id for rec in bad.records if rec.node.mask != fresh[rec.id]]
    assert mismatched, "replay oracle failed to notice the corrupted cache"
    clean = recompute_masks(tree, inst)
    assert all(rec.node.mask == clean[rec.id] for rec in tree.records)


def test_interior_requires_children():
    from splitwise import ParameterError
    with pytest.raises(ParameterError):
        interior(1, [], 0b11)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_text_round_trip():
    inst = quarter_instance()
    tree = perfect_tree()
    text = tree_to_text(tree)
    back = tree_from_text(text, inst)
    assert tree_to_text(back) == text


def test_json_round_trip_random_trees():
    rng = random.Random(23)
    for _ in range(25):
        inst = random_valid_instance(rng, rng.randrange(2, 9),
                                     rng.randrange(2, 6), rng.choice([2, 3]))
        tree = build_greedy_tree(inst)
        back = tree_from_json_obj(tree_to_json_obj(tree), inst)
        assert tree_to_text(back) == tree_to_text(tree)
        verify_caches(back, inst)    # no raise


def test_serialized_text_is_deterministic():
    rng = random.Random(24)
    inst = random_valid_instance(rng, 7, 5, 3)
    a = tree_to_text(build_greedy_tree(inst))
    b = tree_to_text(build_greedy_tree(inst))
    assert a == b


def test_malformed_tree_text_rejected():
    inst = quarter_instance()
    bad_docs = {
        "depth jumps": "0 0 test 1 -\n1 2 leaf 1\n",
        "second root": "0 0 test 1 -\n1 1 leaf 1\n2 0 leaf -\n",
        "no parent answer": "0 0 test 1 -\n1 1 leaf -\n",
        "leaf with children": "0 0 leaf -\n1 1 leaf 1\n",
        "interior without children": "0 0 test 1 -\n",
        "test out of range": "0 0 test 3 -\n1 1 leaf 1\n",
        "answer out of range": "0 0 test 1 -\n1 1 leaf 3\n",
    }
    for what, text in bad_docs.items():
        with pytest.raises(FormatError):
            tree_from_text(text, inst)
            pytest.fail(what)
    # an edge that no hypothesis takes
    stub = DTInstance([Fraction(1, 2)] * 2, [(1, 1), (1, 2)], 2)
    with pytest.raises(StructureError):
        tree_from_text("0 0 test 1 -\n1 1 leaf 2\n", stub)


@pytest.mark.parametrize("doc", [
    {"test": "x"},
    {"test": None},
    {"test": 1, "children": [["a", {"leaf": True}]]},
    {"test": 1, "children": [[1]]},
    {"test": 1, "children": 5},
    {"test": 1.7, "children": [[1, {"leaf": True}], [2, {"leaf": True}]]},
    {"test": True, "children": [[1, {"leaf": True}], [2, {"leaf": True}]]},
    {"test": 1, "children": [[1.0, {"leaf": True}], [2, {"leaf": True}]]},
    {"test": 1, "children": [[True, {"leaf": True}], [2, {"leaf": True}]]},
    {"leaf": True, "children": [[1, {"leaf": True}], [2, {"leaf": True}]]},
    {"leaf": True, "children": [[1, "not a node"]]},
    {"leaf": True, "test": 1},
])
def test_malformed_tree_json_rejected(doc):
    with pytest.raises(FormatError):
        tree_from_json_obj(doc, quarter_instance())


# ---------------------------------------------------------------------------
# chain-shaped trees thousands of levels deep
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def deep_chain():
    """n=1200 with one singleton test per hypothesis: the greedy tree is a
    chain of depth n-1, deeper than the default recursion limit."""
    n = 1200
    tests = [tuple(1 if h == j else 2 for h in range(n)) for j in range(n)]
    inst = DTInstance([Fraction(1, n)] * n, tests, 2)
    tree = build_greedy_tree(inst)
    assert tree.depth() == n - 1
    return inst, tree


def test_deep_chain_text_round_trip(deep_chain):
    inst, tree = deep_chain
    text = tree_to_text(tree)
    back = tree_from_text(text, inst)
    assert tree_to_text(back) == text
    assert all(a.node.mask == b.node.mask
               for a, b in zip(tree.records, back.records))


def test_deep_chain_json_round_trip(deep_chain):
    inst, tree = deep_chain
    back = tree_from_json_obj(tree_to_json_obj(tree), inst)
    assert tree_to_text(back) == tree_to_text(tree)
    verify_caches(back, inst)    # no raise


def test_deep_chain_corruption(deep_chain):
    inst, tree = deep_chain
    bad = corrupt_interior_mask(tree, which=len(tree) // 4)
    assert tree_to_text(bad) == tree_to_text(tree)
    with pytest.raises(StructureError):
        verify_caches(bad, inst)


def test_child_ids_index_the_children():
    rng = random.Random(25)
    inst = random_valid_instance(rng, 9, 5, 3)
    tree = build_greedy_tree(inst)
    for rec in tree.records:
        assert len(rec.child_ids) == len(rec.node.children)
        for (answer, child), cid in zip(rec.node.children, rec.child_ids):
            assert tree.node(cid).node is child
            assert tree.node(cid).parent_id == rec.id
            assert tree.child_id(rec.id, answer) == cid
    assert tree.child_id(0, inst.k + 1) is None
