"""Decision-tree container: traversal, cost, completeness, serialization.

The cost oracle here deliberately avoids the library's descent logic: it
replays each hypothesis from the root by hand and counts edges.
"""

import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from splitwise import (
    CostBreakdown,
    DTInstance,
    DecisionTree,
    Entries,
    FormatError,
    IncompleteTreeError,
    ParameterError,
    StructureError,
    build_greedy_tree,
    corrupt_interior_mask,
    cost,
    depth_of,
    gen_random,
    grow,
    interior_weight_sum,
    is_complete,
    optimal_tree,
    recompute_masks,
    structural_problems,
    tree_from_json_obj,
    tree_from_text,
    tree_to_json_obj,
    tree_to_text,
    verify_caches,
)
from splitwise.tree import descent
from conftest import random_valid_instance, tree_of


def quarter_instance() -> DTInstance:
    return DTInstance([Fraction(1, 4)] * 4, [(1, 1, 2, 2), (1, 2, 1, 2)], 2)


def perfect_tree() -> DecisionTree:
    """Root on test 1, both children on test 2; depth 2 everywhere."""
    left = (2, 0b0011, [(1, 0b0001), (2, 0b0010)])
    right = (2, 0b1100, [(1, 0b0100), (2, 0b1000)])
    return tree_of((1, 0b1111, [(1, left), (2, right)]))


def replay_depth(tree: DecisionTree, inst: DTInstance, h: int) -> int:
    """Independent depth oracle: walk the tree answering each test for h."""
    node = tree.root
    d = 0
    while not node.is_leaf:
        a = inst.answer_of(node.test, h)
        nxt = None
        for child in tree.records:
            if child.parent_id == node.id and child.parent_answer == a:
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
    sub = tree_of((2, 0b0011, [(1, 0b0001), (2, 0b0010)]))
    br = cost(sub, inst, [1, 2])
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


@pytest.mark.parametrize("test", [0, -1, 3])
def test_descent_refuses_a_test_the_instance_lacks(test):
    # a hand-built tree whose lower test is not one of the instance's two;
    # test 0 or -1 must not read the last row, test 3 must not IndexError
    inst = quarter_instance()
    left = (test, 0b0011, [(1, 0b0001), (2, 0b0010)])
    right = (2, 0b1100, [(1, 0b0100), (2, 0b1000)])
    tree = tree_of((1, 0b1111, [(1, left), (2, right)]))
    with pytest.raises(ParameterError, match=rf"test {test} outside 1\.\.2"):
        cost(tree, inst)
    with pytest.raises(ParameterError, match=rf"test {test} outside 1\.\.2"):
        depth_of(tree, inst, 1)
    assert depth_of(tree, inst, 3) == 2     # the other branch is still read


# ---------------------------------------------------------------------------
# completeness and the interior-weight identity
# ---------------------------------------------------------------------------

def test_is_complete_perfect():
    inst = quarter_instance()
    assert is_complete(perfect_tree(), inst)


def test_is_complete_respects_budget():
    inst = quarter_instance()
    stub = tree_of((1, 0b1111, [(1, 0b0011), (2, 0b1100)]))
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
    stub = tree_of((1, 0b1111, [(1, 0b0011), (2, 0b1100)]))
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
    mismatched = [rec.id for rec in bad.records if rec.mask != fresh[rec.id]]
    assert mismatched, "replay oracle failed to notice the corrupted cache"
    clean = recompute_masks(tree, inst)
    assert all(rec.mask == clean[rec.id] for rec in tree.records)


def test_answers_a_row_lacks_look_up_the_empty_set():
    """Under a declared K above every answer, a row's masks end at its
    largest answer; an answer in between that no hypothesis gives looks up
    the empty set at every lookup site, with no IndexError."""
    inst = DTInstance([Fraction(1, 4)] * 4, [(1, 1, 2, 2), (1, 2, 1, 2)], 5)
    assert inst.answer_masks(1) == (0b0011, 0b1100)
    with pytest.raises(StructureError, match="empty set under test 1 answer 4"):
        tree_from_text("0 0 test 1 -\n1 1 leaf 1\n2 1 leaf 2\n3 1 leaf 4\n", inst)
    doc = {"test": 1, "children": [[1, {"leaf": True}], [2, {"leaf": True}],
                                   [4, {"leaf": True}]]}
    with pytest.raises(StructureError, match="empty set under test 1 answer 4"):
        tree_from_json_obj(doc, inst)
    # hand-built entries: the answer-2 part filed under answer 4
    tree = tree_of((1, 0b1111, [(1, 0b0011), (4, 0b1100)]))
    assert structural_problems(tree, inst) == ["node 0: child mask mismatch on answer 4"]
    assert recompute_masks(tree, inst) == {0: 0b1111, 1: 0b0011, 2: 0}


def test_interior_requires_children():
    entries = Entries()
    entries.add(1, 0b11, None, None)
    with pytest.raises(ParameterError):
        DecisionTree(entries)
    entries = Entries()
    entries.add(None, 0b11, None, None)
    entries.add(None, 0b01, 0, 1)
    with pytest.raises(ParameterError):
        DecisionTree(entries)


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
        "non-ASCII answer": "0 0 test 1 -\n1 1 leaf 1\n1 1 leaf \u0662\n",
        "underscore answer": "0 0 test 1 -\n1 1 leaf 1\n1 1 leaf 0_2\n",
        "repeated child answer": "0 0 test 1 -\n1 1 leaf 1\n2 1 leaf 1\n",
        "trailing token on the root leaf": "0 0 leaf - x\n",
        "trailing token on a leaf": "0 0 test 1 -\n1 1 leaf 1\n2 1 leaf 2 extra\n",
        "trailing token on a test": "0 0 test 1 - 1\n1 1 leaf 1\n2 1 leaf 2\n",
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
    {"leaf": 1},
    {"leaf": "yes"},
    {"test": 1, "children": [[1, {"leaf": 1}], [2, {"leaf": True}]]},
    {"test": 1, "children": [[1, {"leaf": True}], [2, {"leaf": True}],
                             [1, {"leaf": True}]]},
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
    assert all(a.mask == b.mask
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
        kids = [r.id for r in tree.records if r.parent_id == rec.id]
        assert list(rec.child_ids) == kids
        assert rec.is_leaf == (not kids)
        answers = [tree.node(cid).parent_answer for cid in rec.child_ids]
        assert answers == sorted(set(answers))
        for answer, cid in zip(answers, rec.child_ids):
            assert tree.child_id(rec.id, answer) == cid
            assert tree.node(cid).depth == rec.depth + 1
    assert tree.child_id(0, inst.k + 1) is None


# ---------------------------------------------------------------------------
# grow and indexing entries
# ---------------------------------------------------------------------------

def test_grow_leaf_at_root():
    inst = quarter_instance()
    tree = grow(inst, inst.full_mask, lambda s, ctx: None)
    assert tree.root.is_leaf and tree.root.mask == inst.full_mask
    assert len(tree) == 1


def test_grow_refuses_a_test_that_leaves_the_set_whole():
    # test 1 answers 1 on {1, 2}: splitting that set again by test 1 would
    # push the same set forever
    inst = quarter_instance()
    with pytest.raises(StructureError):
        grow(inst, 0b0011, lambda s, ctx: (1, None))
    with pytest.raises(StructureError):
        grow(inst, inst.full_mask,
             lambda s, ctx: (1, None) if s.bit_count() > 1 else None)


def test_grow_passes_the_context_down_and_visits_in_preorder():
    inst = quarter_instance()
    seen = []

    def rule(s, depth):
        seen.append((s, depth))
        return None if s.bit_count() == 1 else (1 if depth == 0 else 2, depth + 1)

    tree = grow(inst, inst.full_mask, rule, 0)
    assert tree_to_text(tree) == tree_to_text(perfect_tree())
    assert seen == [(0b1111, 0), (0b0011, 1), (0b0001, 2), (0b0010, 2),
                    (0b1100, 1), (0b0100, 2), (0b1000, 2)]


def test_entries_rebuild_records():
    tree = perfect_tree()
    entries = Entries()
    for r in tree.records:
        entries.add(r.test, r.mask, r.parent_id, r.parent_answer)
    again = DecisionTree(entries)
    assert again.records == tree.records


def test_entries_out_of_order_index_like_preorder():
    # the perfect tree with each node's children in descending answer order,
    # the entries a JSON document listing the children that way is read into
    entries = Entries()
    root = entries.add(1, 0b1111, None, None)
    right = entries.add(2, 0b1100, root, 2)
    entries.add(None, 0b1000, right, 2)
    entries.add(None, 0b0100, right, 1)
    left = entries.add(2, 0b0011, root, 1)
    entries.add(None, 0b0010, left, 2)
    entries.add(None, 0b0001, left, 1)
    shuffled = DecisionTree(entries)
    assert shuffled.records == perfect_tree().records
    verify_caches(shuffled, quarter_instance())


# ---------------------------------------------------------------------------
# differential checks: the one-pass index and the answer-set cost replay
# against the routes they replaced
# ---------------------------------------------------------------------------

def reference_index(entries: Entries) -> list[tuple]:
    """The records as the stack traversal indexed them: (id, test, mask,
    depth, parent id, parent answer, child ids) in preorder, children in
    ascending answer order, later entry first on equal answers."""
    tests, masks, parents, answers = (entries.tests, entries.masks,
                                      entries.parents, entries.answers)
    kids, size = {}, [1] * len(tests)
    for idx in range(len(tests) - 1, 0, -1):
        size[parents[idx]] += size[idx]
        kids.setdefault(parents[idx], []).append(idx)
    recs = []
    stack = [(0, 0, None, 0)]
    while stack:
        idx, rid, pid, depth = stack.pop()
        test = tests[idx]
        ch = kids.pop(idx, None)
        cids = ()
        if ch is not None:
            if test is None:
                raise ParameterError(f"leaf entry {idx} has children")
            ch.sort(key=answers.__getitem__)
            cids = [rid + 1]
            for c in ch[:-1]:
                cids.append(cids[-1] + size[c])
            cids = tuple(cids)
            stack.extend((c, cid, rid, depth + 1)
                         for c, cid in zip(reversed(ch), reversed(cids)))
        elif test is not None:
            raise ParameterError(
                f"interior entry {idx} (test {test}) has no children")
        recs.append((rid, test, masks[idx], depth, pid,
                     None if pid is None else answers[idx], cids))
    return recs


def random_entries(rng: random.Random, size: int, tests, answers) -> Entries:
    """Entries of a random shape: each entry's parent is a random earlier
    interior entry, so the order is neither preorder nor breadth-first;
    tests and child answers are drawn from `tests` and `answers`, which may
    repeat.  Interior entries left without children become leaves."""
    entries = Entries()
    entries.add(rng.choice(tests), rng.getrandbits(16), None, None)
    interior = [0]
    while len(entries.tests) < size:
        test = rng.choice(tests) if rng.random() < 0.4 else None
        idx = entries.add(test, rng.getrandbits(16), rng.choice(interior),
                          rng.choice(answers))
        if test is not None:
            interior.append(idx)
    has_kids = set(entries.parents[1:])
    for idx in interior:
        if idx not in has_kids:
            entries.tests[idx] = None
    return entries


def relisted(tree: DecisionTree, order: str, rng: random.Random) -> Entries:
    """The tree's records as entries listed in preorder with each node's
    children shuffled, or breadth-first."""
    entries = Entries()
    todo = [(tree.root.id, None)]
    while todo:
        rid, parent = todo.pop() if order == "shuffled" else todo.pop(0)
        rec = tree.records[rid]
        idx = entries.add(rec.test, rec.mask, parent, rec.parent_answer)
        kids = list(rec.child_ids)
        if order == "shuffled":
            rng.shuffle(kids)
        todo.extend((cid, idx) for cid in kids)
    return entries


def assert_index_matches(entries: Entries, label):
    try:
        want = reference_index(entries)
    except ParameterError as exc:
        with pytest.raises(ParameterError) as got:
            DecisionTree(entries)
        assert str(got.value) == str(exc), label
        return
    got = [(r.id, r.test, r.mask, r.depth, r.parent_id, r.parent_answer, r.child_ids)
           for r in DecisionTree(entries).records]
    assert got == want, label


def test_index_matches_stack_traversal():
    rng = random.Random(31)
    for idx in range(40):
        inst = random_valid_instance(rng, rng.randrange(2, 24),
                                     rng.randrange(2, 6), rng.choice([2, 3]))
        tree = build_greedy_tree(inst)
        preorder = Entries()
        for r in tree.records:
            preorder.add(r.test, r.mask, r.parent_id, r.parent_answer)
        assert_index_matches(preorder, (idx, "preorder"))
        for order in ("shuffled", "bfs"):
            entries = relisted(tree, order, rng)
            assert_index_matches(entries, (idx, order))
            assert DecisionTree(entries).records == tree.records
        # duplicate child answers: equal answers keep the later entry first
        entries = random_entries(rng, rng.randrange(1, 40), [1, 2], [1, 2, 2, 3])
        assert_index_matches(entries, (idx, "duplicate answers"))


def test_index_raises_like_stack_traversal():
    rng = random.Random(32)
    raised = Counter()
    for idx in range(200):
        entries = random_entries(rng, rng.randrange(2, 30), [1, 2, 3], [1, 2, 3])
        # one or two misplaced entries: a leaf given children (its test set
        # to None) or an interior entry left without them
        for _ in range(rng.randrange(1, 3)):
            pos = rng.randrange(len(entries.tests))
            if pos in entries.parents:
                entries.tests[pos] = None
            else:
                entries.tests[pos] = 1
        try:
            reference_index(entries)
        except ParameterError as exc:
            raised[str(exc).split()[0]] += 1
        assert_index_matches(entries, idx)
    assert raised["leaf"] and raised["interior"], raised


def reference_cost(tree: DecisionTree, inst: DTInstance, H=None) -> CostBreakdown:
    """The cost by one `descent` per hypothesis of H, ascending."""
    hmask = inst.as_mask(H)
    depths, raw_num = {}, 0
    for h in range(1, inst.n + 1):
        if hmask >> (h - 1) & 1:
            d = descent(tree, inst, h)[-1].depth
            depths[h] = d
            raw_num += inst._wnum[h - 1] * d
    raw, norm = inst.num_to_weight(raw_num), inst.num_to_weight(inst.mask_num(hmask))
    return CostBreakdown(raw / norm, raw, depths, norm)


def assert_cost_matches(tree: DecisionTree, inst: DTInstance, H, label):
    try:
        want = reference_cost(tree, inst, H)
    except ParameterError as exc:
        with pytest.raises(ParameterError) as got:
            cost(tree, inst, H)
        assert str(got.value) == str(exc), label
        return False
    got = cost(tree, inst, H)
    assert list(got.depths.items()) == list(want.depths.items()), label
    for field in ("total", "raw", "normalizer"):
        a, b = getattr(got, field), getattr(want, field)
        assert type(a) is type(b) and a == b, (label, field)
    return True


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_cost_matches_descent_on_malformed_trees(exact):
    """Hand-built trees with repeated child answers, answers outside 1..K
    and one or two test ids outside 1..m, reached by H or not, over random
    subsets H: `cost` gives `descent`'s depths, in its order, and its sums,
    or its error."""
    rng = random.Random(33 + exact)
    outcomes = Counter()
    for idx in range(150):
        K = rng.choice([2, 3])
        inst = random_valid_instance(rng, rng.randrange(2, 14),
                                     rng.randrange(2, 5), K)
        if not exact:
            inst = DTInstance([float(w) for w in inst.weights], inst.tests, K)
        m = inst.m
        entries = random_entries(rng, rng.randrange(1, 30), list(range(1, m + 1)),
                                 [-1, 0, 1, 1, 2, 2, 3, K + 1])
        interior = [i for i, t in enumerate(entries.tests) if t is not None]
        bad = bool(interior) and rng.random() < 0.4
        if bad:
            spots = rng.sample(interior, min(len(interior), rng.randrange(1, 3)))
            for pos, test in zip(spots, rng.sample([0, -1, m + 1], 2)):
                entries.tests[pos] = test
        tree = DecisionTree(entries)
        for _ in range(3):
            H = rng.getrandbits(inst.n) or 1
            outcomes[bad, assert_cost_matches(tree, inst, H, idx)] += 1
    # a bad test id reached (no cost) and not reached (a cost) both occur
    assert outcomes[True, False] and outcomes[True, True] and outcomes[False, True], outcomes


def test_cost_names_the_bad_test_the_lowest_member_meets():
    """Two bad test ids, the first in preorder met only by hypothesis 2:
    the error names the one hypothesis 1 meets, as descent does."""
    inst = DTInstance([1, 1], [[2, 1]], 2)
    entries = Entries()
    entries.add(1, 0b11, None, None)
    entries.add(0, 0b10, 0, 1)
    entries.add(-1, 0b01, 0, 2)
    entries.add(None, 0b10, 1, 1)
    entries.add(None, 0b01, 2, 1)
    tree = DecisionTree(entries)
    assert not assert_cost_matches(tree, inst, None, "two bad tests")
    with pytest.raises(ParameterError, match=r"test -1 outside 1\.\.1"):
        cost(tree, inst)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_cost_matches_descent_on_greedy_trees(exact):
    for seed, (n, K) in enumerate([(60, 2), (60, 3), (300, 2), (300, 5)]):
        inst = gen_random(n, 24, K, seed, profile="skew", exact=exact)
        tree = build_greedy_tree(inst)
        rng = random.Random(seed)
        for H in (None, rng.getrandbits(n) | 1, 1 << (n - 1)):
            assert assert_cost_matches(tree, inst, H, (seed, H))


def test_cost_keeps_only_the_frontier_sets():
    """Each record's answer set is dropped once the record is reached: sets
    kept for every record of this tree peak near 3.8 MB, the index-and-depth
    pairs of the stops alone near 2.2 MB."""
    inst = gen_random(4000, 40, 2, 1, profile="skew")
    tree = build_greedy_tree(inst)
    tracemalloc.start()
    try:
        cost(tree, inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 6, peak


def test_node_records_are_immutable_hashable_values():
    tree = perfect_tree()
    rec = tree.records[1]
    with pytest.raises(AttributeError):
        rec.depth = 5
    assert rec == perfect_tree().records[1] and rec is not perfect_tree().records[1]
    assert hash(rec) == hash(perfect_tree().records[1])
    assert len(set(tree.records) | set(perfect_tree().records)) == 7
    assert rec.is_leaf is False and tree.records[2].is_leaf is True
