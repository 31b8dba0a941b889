"""Greedy construction: split profiles, tie rules, the two-route cost
identity, and minority-mass monotonicity.
"""

import random
import sys
import tracemalloc
import weakref
from collections import Counter
from fractions import Fraction

import pytest

from splitwise import (
    DTInstance,
    InvalidInstanceError,
    ParameterError,
    build_greedy_tree,
    classify_vertices,
    cost,
    gen_grid_adversarial,
    gen_random,
    greedy_choice,
    grow,
    heavy_above,
    interior_weight_sum,
    is_complete,
    majority_parts,
    optimal_cost,
    require_solvable,
    structural_problems,
    tree_to_text,
)
from splitwise import greedy, tree as tree_module
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
    with pytest.raises(ParameterError):
        greedy_choice(inst, [2])


def test_majority_tie_prefers_largest_answer():
    # test 1 splits {1,2} 1|1: tie -> majority answer must be 2
    inst = DTInstance(
        [Fraction(1, 2), Fraction(1, 2)],
        [(1, 2)],
        2,
    )
    a, mask, _ = majority_parts(inst, 0b11, (1,))[0]
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
    a, mask, _ = majority_parts(inst, smask, (1,))[0]
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
            if rec.is_leaf:
                continue
            assert rec.test == greedy_choice(inst, rec.mask), (
                f"case {idx}: node {rec.id} is not the greedy choice"
            )


def test_minority_mass_never_increases_downward():
    """p^-(child) <= p^-(parent) along every interior edge of a greedy tree."""
    for idx, inst in enumerate(make_corpus(34, 60)):
        tree = build_greedy_tree(inst)
        minority = {
            rec.id: inst.mask_num(
                rec.mask
                & ~majority_parts(inst, rec.mask, (rec.test,))[0][1])
            for rec in tree.records if not rec.is_leaf
        }
        for rec in tree.records:
            if rec.is_leaf or rec.parent_id is None:
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


# ---------------------------------------------------------------------------
# differential checks against the per-bit split
# ---------------------------------------------------------------------------

def per_bit_majority_parts(inst: DTInstance, smask: int, tests=None) -> list[tuple]:
    """`majority_parts` by its definition: every part weighed by its own bit
    walk (`DTInstance.mask_num`).  A copy kept apart from the library, which
    `majority_parts` must match exactly, float values included."""
    answer_masks = inst._answer_masks
    if tests is not None:
        if tests and (min(tests) < 1 or max(tests) > inst.m):
            raise ParameterError(f"tests {tuple(tests)} outside 1..{inst.m}")
        answer_masks = [answer_masks[j - 1] for j in tests]
    mask_num = inst.mask_num
    out = []
    append = out.append
    for masks in answer_masks:
        best_a = best_pm = best_num = None
        a = 0
        for am in masks:
            a += 1
            pm = smask & am
            if pm == smask:
                best_a, best_pm, best_num = a, pm, None
                break
            if pm:
                num = mask_num(pm)
                if best_num is None or num >= best_num:
                    best_a, best_pm, best_num = a, pm, num
        append((best_a, best_pm, best_num))
    return out


def split_corpus():
    """Uniform, skew and two-tier weights in both modes, K = 2, 3 and 5,
    plus an instance with zero weights, whose empty and zero-weight parts
    must stay apart."""
    out = []
    seed = 0
    for K in (2, 3, 5):
        for n in (2, 9, 40, 120):
            for profile in ("uniform", "skew", "two-tier"):
                for exact in (True, False):
                    seed += 1
                    out.append(gen_random(n, 24, K, seed, profile=profile,
                                          exact=exact))
    rng = random.Random(40)
    tests = [tuple(rng.randrange(1, 4) for _ in range(6)) for _ in range(8)]
    zeros = [0, 0, Fraction(1, 4), 0, Fraction(1, 2), Fraction(1, 4)]
    out.append(DTInstance(zeros, tests, 3))
    out.append(DTInstance([float(w) for w in zeros], tests, 3))
    return out


def test_majority_parts_matches_per_bit_scan():
    rng = random.Random(41)
    for idx, inst in enumerate(split_corpus()):
        n, m = inst.n, inst.m
        sets = [inst.full_mask, 1 << rng.randrange(n)]
        sets += [rng.randrange(1, 1 << n) for _ in range(6)]
        test_sets = [None, (), tuple(range(1, m + 1)),
                     tuple(sorted(rng.sample(range(1, m + 1), m // 2))),
                     tuple(rng.sample(range(1, m + 1), 3))]
        for smask in sets:
            for tests in test_sets:
                got = majority_parts(inst, smask, tests)
                want = per_bit_majority_parts(inst, smask, tests)
                assert got == want, (idx, smask, tests)
                assert [type(num) for _, _, num in got] == \
                    [type(num) for _, _, num in want], (idx, smask, tests)
        for bad in ((0,), (m + 1,), (1, m + 1)):
            with pytest.raises(ParameterError):
                majority_parts(inst, inst.full_mask, bad)


def test_fast_weighers_match_majority_parts():
    """`_uniform_weigher` and `_member_weigher` give, for every test, exactly
    the max part weight `majority_parts` gives, of the same type, and None
    where the test does not split the set."""
    rng = random.Random(43)
    sets_seen = 0
    for idx, inst in enumerate(split_corpus()):
        n = inst.n
        sets = [inst.full_mask] + [rng.randrange(1, 1 << n) for _ in range(7)]
        for smask in sets:
            if inst.uniform:
                weigh = greedy._uniform_weigher(inst, smask, smask.bit_count())
            else:
                members = [b for b in range(n) if smask >> b & 1]
                weigh = greedy._member_weigher(inst, smask, members)
            for j, (_, _, want) in enumerate(majority_parts(inst, smask),
                                             start=1):
                got = weigh(j)
                assert got == want and type(got) is type(want), \
                    (idx, smask, j, got, want)
            sets_seen += 1
    assert sets_seen >= 500


def reference_greedy_tree(inst: DTInstance, root: int | None = None):
    """The greedy tree over `root` (all of [n] by default) by its
    definition: at every set, every test weighed in full by
    `per_bit_majority_parts` and the argmin taken, smallest index on ties;
    no lower-bound stop and no test context."""
    def rule(s: int, _):
        if s.bit_count() == 1:
            return None
        best_j, best_num = 0, None
        for j, (_, _, num) in enumerate(per_bit_majority_parts(inst, s), start=1):
            if num is not None and (best_num is None or num < best_num):
                best_j, best_num = j, num
        return best_j, None
    return grow(inst, inst.full_mask if root is None else root, rule)


def assert_same_tree(tree, ref, label):
    assert tree_to_text(tree) == tree_to_text(ref), label
    assert [rec.mask for rec in tree.records] == \
        [rec.mask for rec in ref.records], label


@pytest.mark.parametrize("K, exact", [(2, True), (3, False), (2, False), (3, True)])
def test_greedy_tree_matches_per_bit_scan_on_skew(K, exact):
    inst = gen_random(600, 28, K, 42 + K, profile="skew", exact=exact)
    assert_same_tree(build_greedy_tree(inst), reference_greedy_tree(inst), "skew")


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_member_weigher_sums_by_the_test_not_by_k(exact):
    """The part sums of a weighed test run to its row's largest answer, so a
    declared K far above the answers changes neither the tree nor greedy's
    memory: sums sized by K took 8 MB a test at K = 10^6."""
    inst = gen_random(100, 30, 2, 5, profile="skew", exact=exact)
    wide = DTInstance(inst.weights, inst.tests, 10 ** 5)
    assert_same_tree(build_greedy_tree(wide), build_greedy_tree(inst), "K=10^5")
    widest = DTInstance(inst.weights, inst.tests, 10 ** 6)
    tracemalloc.start()
    try:
        build_greedy_tree(widest)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 10 ** 6


def greedy_edge_cases(K: int, exact: bool):
    """(label, instance) pairs that reach every branch of `_greedy_split`."""
    num = (lambda x: x) if exact else float
    rng = random.Random(50 + K + 10 * exact)
    out = [("skew n=700", gen_random(700, 30, K, 60 + K, profile="skew",
                                     exact=exact)),
           # one heavy weight among equal light ones: light parts of equal
           # size tie, and the smallest test index must win
           ("two-tier", gen_random(300, 24, K, 61 + K, profile="two-tier",
                                   exact=exact))]
    base = gen_random(120, 24, K, 62 + K, profile="skew", exact=exact)
    zeros = [w if i % 3 == 0 else 0 for i, w in enumerate(base.weights)]
    out.append(("zero weights", DTInstance([num(w) for w in zeros], base.tests, K)))
    # uniform: the index digits in base K split every set evenly, so the
    # stop fires; random tests come first and keep it from firing at once
    n = K ** 4
    digits = [tuple(h // K ** d % K + 1 for h in range(n)) for d in range(4)]
    noise = [tuple(rng.randrange(1, K + 1) for _ in range(n)) for _ in range(6)]
    out.append(("uniform balanced", DTInstance([num(Fraction(1, n))] * n,
                                               noise + digits, K)))
    return out


@pytest.mark.parametrize("K", [2, 3, 5])
@pytest.mark.parametrize("exact", [True, False])
def test_greedy_tree_matches_reference_on_edge_cases(K, exact, monkeypatch):
    calls = {}

    def counted(name):
        inner = getattr(greedy, name)

        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return inner(*args)
        monkeypatch.setattr(greedy, name, wrapper)
    for name in ("_uniform_weigher", "_member_weigher"):
        counted(name)
    for label, inst in greedy_edge_cases(K, exact):
        assert inst.exact == exact
        assert_same_tree(build_greedy_tree(inst), reference_greedy_tree(inst),
                         label)
    # the cases reach every branch of `_greedy_split`
    assert sorted(calls) == ["_member_weigher", "_uniform_weigher"]


def packed_cases(K: int, exact: bool):
    """(label, instance, root) triples with roots of PACKED_ROOT_MIN or more
    members that reach every branch of the packed route."""
    num = (lambda x: x) if exact else float
    rng = random.Random(70 + K + 10 * exact)
    skew = gen_random(300, 30, K, 71 + K, profile="skew", exact=exact)
    tiers = gen_random(300, 24, K, 72 + K, profile="two-tier", exact=exact)
    out = [("skew", skew, None), ("two-tier", tiers, None),
           # a subset root: codes for its members only
           ("skew subset", skew, rng.getrandbits(300) | 1)]
    base = gen_random(200, 24, K, 73 + K, profile="skew", exact=exact)
    zeros = [w if i % 3 == 0 else 0 for i, w in enumerate(base.weights)]
    out.append(("zero weights", DTInstance([num(w) for w in zeros], base.tests, K), None))
    # odd numerators over 2**70, which exact codes shift: equal light
    # weights tie in the codes and in full, and light weights two units
    # (float: a few ulps) apart tie in the codes only
    for label, noise in (("huge ties", 1), ("huge near ties", 2)):
        huge = [Fraction((w << 50) + 1 + 2 * rng.randrange(noise), 1 << 70)
                for w in tiers._wnum] if exact else \
            [w * (1 + rng.randrange(noise) * 2.0 ** -50) for w in tiers.weights]
        out.append((label, DTInstance(huge, tiers.tests, K), None))
    # a root sum of 17 to 30 bits, as at skewed-greedy's exact roots: exact
    # codes, unshifted
    mid = [num(Fraction(2 * rng.randrange(1 << 11) + 1, 1 << 12)) for _ in range(200)]
    out.append(("mid sums", DTInstance(mid, base.tests, K), None))
    return out


def _branch_counter(monkeypatch):
    """Counts, by name, the branches the trees built under it take:
    "unpacked", "exact sums" and "approximate" trees, and the packed sets
    that fall back to `_greedy_split` ("fallback") or weigh the tests within
    the margin in full ("several within margin")."""
    seen = Counter()
    state = {"packed": False, "in_split": 0}
    packing, split, weigher = (greedy._packing, greedy._greedy_split,
                               greedy._member_weigher)

    def packing_wrapper(inst, root):
        out = packing(inst, root)
        state["packed"] = out is not None
        seen["unpacked" if out is None else
             "exact sums" if out[1] else "approximate"] += 1
        return out

    def split_wrapper(inst, s, tests):
        big = s.bit_count() >= greedy.PACKED_SET_MIN
        if state["packed"] and big:
            seen["fallback"] += 1
        state["in_split"] += 1
        try:
            return split(inst, s, tests)
        finally:
            state["in_split"] -= 1

    def weigher_wrapper(inst, s, members):
        if state["packed"] and not state["in_split"]:
            seen["several within margin"] += 1
        return weigher(inst, s, members)

    monkeypatch.setattr(greedy, "_packing", packing_wrapper)
    monkeypatch.setattr(greedy, "_greedy_split", split_wrapper)
    monkeypatch.setattr(greedy, "_member_weigher", weigher_wrapper)
    return seen, state


@pytest.mark.parametrize("K", [2, 3, 5])
@pytest.mark.parametrize("exact", [True, False])
def test_packed_route_matches_reference(K, exact, monkeypatch):
    """Trees on the packed route equal the reference's, text and masks, and
    the cases reach each of its branches."""
    seen, state = _branch_counter(monkeypatch)
    single = 0
    for label, inst, root in packed_cases(K, exact):
        assert inst.exact == exact
        before = seen.copy()
        tree = greedy.build_greedy_node(inst, inst.full_mask if root is None else root)
        assert_same_tree(tree, reference_greedy_tree(inst, root), label)
        assert state["packed"], label
        if seen["approximate"] > before["approximate"]:
            # a packed set that neither fell back nor weighed several tests
            # took the one test within the margin
            big = sum(rec.mask.bit_count() >= greedy.PACKED_SET_MIN
                      for rec in tree.interior_records())
            single += big - (seen["fallback"] - before["fallback"]) - (
                seen["several within margin"] - before["several within margin"])
    assert single > 0
    assert seen["fallback"] and seen["several within margin"] and seen["approximate"]
    assert seen["exact sums"] if exact else not seen["exact sums"]


@pytest.mark.parametrize("exact", [True, False])
def test_packed_route_takes_k_255_not_256(exact, monkeypatch):
    seen, _ = _branch_counter(monkeypatch)
    for K in (255, 256):
        inst = gen_random(160, 6, K, K, profile="skew", exact=exact)
        assert_same_tree(build_greedy_tree(inst), reference_greedy_tree(inst), K)
    assert seen["unpacked"] == 1 and seen["exact sums"] + seen["approximate"] == 1
    # codes of more than PACKED_FIELDS_MAX fields are not built
    inst = gen_random(2100, 4, 255, 7, profile="skew", exact=exact)
    assert 2100 * (4 * 254 + 1) > greedy.PACKED_FIELDS_MAX
    assert greedy._packing(inst, inst.full_mask) is None
    assert greedy._packing(inst, (1 << 2000) - 1) is not None


@pytest.mark.skipif(sys.version_info < (3, 11), reason=(
    "before 3.11 a Python caller holds its call's arguments until the call "
    "returns, so the rule outlives grow's own reference"))
def test_grow_releases_the_rule_before_indexing(monkeypatch):
    """`grow` drops the greedy rule, and the packed codes it holds, before
    `DecisionTree` indexes the entries, where a build's memory peaks."""
    refs, alive = [], []
    greedy_rule, index = greedy._greedy_rule, tree_module.DecisionTree.__init__

    def rule_wrapper(inst, root):
        rule = greedy_rule(inst, root)
        refs.append(weakref.ref(rule))
        return rule

    def index_wrapper(self, entries):
        alive.append(refs[-1]() is not None)
        index(self, entries)

    monkeypatch.setattr(greedy, "_greedy_rule", rule_wrapper)
    monkeypatch.setattr(tree_module.DecisionTree, "__init__", index_wrapper)
    for profile in ("skew", "uniform"):      # packed and not
        build_greedy_tree(gen_random(200, 20, 2, 5, profile=profile))
    assert alive == [False, False]


def test_packed_codes_live_one_root_child_at_a_time(monkeypatch):
    """The root's sum is taken over codes that are not kept, and each child
    of the root makes its own members' codes once: no more than a child's
    worth of codes is made at one time."""
    made = []
    codes = greedy._codes

    def codes_wrapper(inst, members, shift):
        made.append(len(members))
        return codes(inst, members, shift)

    monkeypatch.setattr(greedy, "_codes", codes_wrapper)
    inst = gen_random(300, 24, 3, 9, profile="skew", exact=False)
    tree = build_greedy_tree(inst)
    root_children = [tree.records[c].mask.bit_count() for c in tree.root.child_ids]
    assert made == [300] + [c for c in root_children if c >= greedy.PACKED_SET_MIN]


def pair_cases(exact: bool):
    """(label, instance) pairs over 96 hypotheses whose greedy trees end in
    many two-member sets: four random tests and one that parts every pair
    come first, then six that cut [96] into the pairs {2i+1, 2i+2}, so each
    pair is left to the first of the five that tells its members apart."""
    num = (lambda x: x) if exact else float
    rng = random.Random(80 + exact)
    n = 96
    noise = [tuple(rng.randrange(1, 3) for _ in range(n)) for _ in range(4)]
    noise.append(tuple(h % 2 + 1 for h in range(n)))
    bits = [tuple((h >> 1 >> d & 1) + 1 for h in range(n)) for d in range(6)]
    tests = noise + bits
    raws = [Fraction(rng.randrange(1, 100)) for _ in range(n)]
    total = sum(raws)
    skew = [w / total for w in raws]
    weights = {
        "uniform": [Fraction(1, n)] * n,
        "skew": skew,
        "zero": [w if i % 3 == 0 else 0 for i, w in enumerate(skew)],
        "two-tier": [Fraction(8, n + 7)] + [Fraction(1, n + 7)] * (n - 1),
    }
    return [(label, DTInstance([num(w) for w in ws], tests, 2))
            for label, ws in weights.items()]


@pytest.mark.parametrize("exact", [True, False])
def test_pairs_take_the_first_test_that_tells_them_apart(exact, monkeypatch):
    weighed = []
    for name in ("_uniform_weigher", "_member_weigher"):
        inner = getattr(greedy, name)
        monkeypatch.setattr(greedy, name, lambda inst, smask, *rest, inner=inner:
                            weighed.append(smask.bit_count()) or
                            inner(inst, smask, *rest))
    for label, inst in pair_cases(exact):
        tree = build_greedy_tree(inst)
        assert_same_tree(tree, reference_greedy_tree(inst), label)
        pairs = [rec for rec in tree.records if rec.mask.bit_count() == 2]
        assert len(pairs) >= 20, label
        # every pair of the first 24 hypotheses, as its own root
        for g in range(1, 25):
            for h in range(g + 1, 25):
                smask = 1 << g - 1 | 1 << h - 1
                best_j, best_num = 0, None
                for j, (_, _, num) in enumerate(per_bit_majority_parts(inst, smask),
                                                start=1):
                    if num is not None and (best_num is None or num < best_num):
                        best_j, best_num = j, num
                assert greedy_choice(inst, smask) == best_j, (label, g, h)
    # no weigher is made for a pair
    assert weighed and 2 not in weighed


@pytest.mark.parametrize("weights", [
    [Fraction(1, 3)] * 3,
    [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)],
    [0.5, 0.25, 0.25],
    [Fraction(1, 2), Fraction(-1, 3), Fraction(5, 6)],
])
def test_unsplittable_set_raises_on_every_path(weights):
    """Hypotheses 1 and 2 answer alike on every test: greedy raises
    `require_solvable`'s error, which names the negative weight first."""
    inst = DTInstance(weights, [(1, 1, 2), (2, 2, 1)], 2)
    with pytest.raises(InvalidInstanceError) as want:
        require_solvable(inst)
    for call in (lambda: greedy_choice(inst, [1, 2]),
                 lambda: build_greedy_tree(inst)):
        with pytest.raises(InvalidInstanceError) as got:
            call()
        assert str(got.value) == str(want.value)
        assert got.value.undistinguished == want.value.undistinguished
    assert want.value.undistinguished == (None if min(weights) < 0 else (1, 2))


# ---------------------------------------------------------------------------
# differential check of the classification's heavy hypotheses
# ---------------------------------------------------------------------------

def heavy_hypothesis(inst: DTInstance, smask: int, j: int):
    """The heavy hypothesis of the node (smask, test j), derived on its own
    from the node's majority split.  The reference `VertexLabel.heavy` must
    match on every interior vertex."""
    _, maj_mask, _ = majority_parts(inst, smask, (j,))[0]
    return heavy_above(inst, smask, inst.mask_num(smask & ~maj_mask))


@pytest.mark.parametrize("K", [2, 3])
@pytest.mark.parametrize("exact", [True, False])
def test_labels_heavy_matches_reference(K, exact):
    vertices = heavy = 0
    seed = 100 * K + exact
    for profile in ("uniform", "skew", "two-tier"):
        for n in (4, 9, 16, 40):
            seed += 1
            inst = gen_random(n, 8, K, seed, profile=profile, exact=exact)
            tree = build_greedy_tree(inst)
            labels = classify_vertices(tree, inst, Fraction(1, 2))
            for rec in tree.interior_records():
                want = heavy_hypothesis(inst, rec.mask, rec.test)
                assert labels[rec.id].heavy == want, (profile, n, rec.id)
                vertices += 1
                heavy += want is not None
    assert vertices >= 100 and heavy >= 10, (vertices, heavy)


# ---------------------------------------------------------------------------
# the distinguishability check runs only when greedy fails
# ---------------------------------------------------------------------------

def test_greedy_checks_pairs_only_when_it_fails(monkeypatch):
    """On an instance with two hypotheses no test separates, greedy raises
    `require_solvable`'s error, message and instance's first pair, over the
    whole instance and over a set that holds only its second pair.  It never
    scans a valid instance for pairs, nor a set that no such pair meets."""
    rng = random.Random(90)
    cases = []
    for exact in (True, False):
        for profile, n in (("skew", 300), ("uniform", 40), ("skew", 12)):
            inst = gen_random(n, 16, 2, n, profile=profile, exact=exact)
            # copy two columns onto two others: two undistinguished pairs
            tests = [list(row) for row in inst.tests]
            for row in tests:
                row[5], row[n - 1] = row[2], row[n - 3]
            bad = DTInstance(inst.weights, tests, 2)
            second = rng.getrandbits(n) & ~(1 << 2 | 1 << 5) | 1 << n - 3 | 1 << n - 1
            cases.append((inst, bad, second))
    for _, bad, second in cases:
        with pytest.raises(InvalidInstanceError) as want:
            require_solvable(bad)
        assert want.value.undistinguished == (3, 6)
        for call in (lambda: build_greedy_tree(bad),
                     lambda: greedy.build_greedy_node(bad, second)):
            with pytest.raises(InvalidInstanceError) as got:
                call()
            assert str(got.value) == str(want.value)
            assert got.value.undistinguished == want.value.undistinguished

    def refuse(inst):
        raise AssertionError("a valid instance was scanned for pairs")
    monkeypatch.setattr(greedy, "require_solvable", refuse)
    for inst, bad, second in cases:
        build_greedy_tree(inst)
        greedy.build_greedy_node(bad, second & ~(1 << bad.n - 1))


def test_packed_sets_carry_their_members(monkeypatch):
    """On the packed route only the root walks the bits of its mask: every
    other packed set takes its member list from its parent's split, and the
    lists end used up."""
    walked, rules = [], []
    iter_bits, greedy_rule = greedy.iter_bits, greedy._greedy_rule

    def iter_bits_wrapper(mask):
        walked.append(mask.bit_count())
        return iter_bits(mask)

    def rule_wrapper(inst, root):
        rules.append(greedy_rule(inst, root))
        return rules[-1]

    monkeypatch.setattr(greedy, "iter_bits", iter_bits_wrapper)
    monkeypatch.setattr(greedy, "_greedy_rule", rule_wrapper)
    for K in (2, 3):
        walked.clear()
        inst = gen_random(300, 24, K, 11 + K, profile="skew")
        tree = build_greedy_tree(inst)
        assert [c for c in walked if c >= greedy.PACKED_SET_MIN] == [300]
        assert sum(rec.mask.bit_count() >= greedy.PACKED_SET_MIN
                   for rec in tree.interior_records()) > 20
        state = dict(zip(rules[-1].__code__.co_freevars,
                         (cell.cell_contents for cell in rules[-1].__closure__)))
        assert state["pending"] == {}
