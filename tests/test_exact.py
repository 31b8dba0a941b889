"""Exhaustive solver: oracle equivalence, budget monotonicity, tie rules.

The oracle is a deliberately naive re-implementation — plain recursion over
frozensets, no memo table, no mask arithmetic — so the two searches share no
code paths beyond the instance container.
"""

import math
import random
from fractions import Fraction

import pytest

from splitwise import (
    BudgetExceededError,
    DTInstance,
    ExactSolver,
    FullTreeConfig,
    InvalidInstanceError,
    ParameterError,
    build_greedy_node,
    build_greedy_tree,
    cost,
    full_tree,
    gen_grid_adversarial,
    gen_random,
    greedy_choice,
    grow,
    is_complete,
    optimal_cost,
    optimal_tree,
    partial_tree,
    structural_problems,
    tree_to_text,
    undistinguished_pairs,
    validate_instance,
)
from conftest import random_valid_instance


def oracle_partial_cost(inst: DTInstance, hs: frozenset, b: int) -> Fraction:
    """Raw min cost of a tree complete w.r.t. hs up to depth b (no memo)."""
    if len(hs) <= 1 or b == 0:
        return Fraction(0)
    best = None
    for j in range(1, inst.m + 1):
        parts = {}
        for h in hs:
            parts.setdefault(inst.answer_of(j, h), set()).add(h)
        if len(parts) < 2:
            continue        # useless here
        total = sum((inst.weight_of(h) for h in hs), start=Fraction(0))
        for part in parts.values():
            total += oracle_partial_cost(inst, frozenset(part), b - 1)
        if best is None or total < best:
            best = total
    assert best is not None, "valid instance ran out of splitting tests"
    return best


# ---------------------------------------------------------------------------
# frozen small cases
# ---------------------------------------------------------------------------

def test_single_hypothesis_is_a_bare_leaf():
    inst = DTInstance([Fraction(1, 2), Fraction(1, 2)], [(1, 2)], 2)
    tree = partial_tree(inst, [2], 5)
    assert tree.root.is_leaf
    assert cost(tree, inst, [2]).total == 0


def test_two_hypotheses_cost_one():
    inst = DTInstance([Fraction(1, 2), Fraction(1, 2)], [(1, 2)], 2)
    assert optimal_cost(inst) == 1


def test_perfect_split_reaches_information_bound():
    inst = DTInstance([Fraction(1, 4)] * 4, [(1, 1, 2, 2), (1, 2, 1, 2)], 2)
    tree = optimal_tree(inst)
    assert cost(tree, inst).total == 2      # = log2(4)
    assert max(cost(tree, inst).depths.values()) == 2


def test_three_singletons_depth_two_suffices():
    inst = DTInstance([Fraction(1, 3)] * 3,
                      [(1, 2, 2), (2, 1, 2), (2, 2, 1)], 2)
    tree = partial_tree(inst, None, 2)
    assert cost(tree, inst).total == Fraction(5, 3)
    assert is_complete(tree, inst)


def test_truncated_symmetric_trio_picks_first_test():
    """Three isolating tests over n=4, budget 1: all symmetric, cost 1."""
    inst = DTInstance(
        [Fraction(1, 4)] * 4,
        [(1, 2, 2, 2), (2, 1, 2, 2), (2, 2, 1, 2)],
        2,
    )
    tree = partial_tree(inst, None, 1)
    assert tree.root.test == 1, "tie should break to the smallest test index"
    br = cost(tree, inst)
    assert br.total == 1
    assert not is_complete(tree, inst)       # the 3-way leaf is unresolved
    assert is_complete(tree, inst, b=1)


def test_budget_zero_returns_truncated_leaf():
    inst = DTInstance([Fraction(1, 2), Fraction(1, 2)], [(1, 2)], 2)
    tree = partial_tree(inst, None, 0)
    assert tree.root.is_leaf
    assert cost(tree, inst).total == 0


# ---------------------------------------------------------------------------
# oracle equivalence
# ---------------------------------------------------------------------------

def test_matches_plain_recursion_oracle():
    """100 instances, n <= 7, m <= 6, b <= 4: memoized == memo-free search."""
    rng = random.Random(41)
    checked = 0
    while checked < 100:
        n = rng.randrange(2, 8)
        m = rng.randrange(2, 7)
        K = rng.choice([2, 3])
        inst = random_valid_instance(rng, n, m, K,
                                     uniform=rng.random() < 0.4)
        b = rng.randrange(0, 5)
        solver = ExactSolver(inst)
        got = solver.partial_cost(None, b)
        want_raw = oracle_partial_cost(inst, frozenset(range(1, n + 1)), b)
        assert got == want_raw, (
            f"case {checked}: solver {got} != oracle {want_raw} "
            f"(n={n} m={m} K={K} b={b})"
        )
        checked += 1


def test_optimal_equals_oracle_at_full_depth():
    rng = random.Random(42)
    for idx in range(30):
        inst = random_valid_instance(rng, rng.randrange(2, 7),
                                     rng.randrange(2, 6), 2)
        want = oracle_partial_cost(inst, frozenset(range(1, inst.n + 1)),
                                   inst.n - 1)
        assert optimal_cost(inst) == want, f"case {idx}"


def test_partial_cost_on_subsets_is_conditional():
    """partial_cost divides by the subset's own mass, not the global mass."""
    rng = random.Random(43)
    for idx in range(25):
        inst = random_valid_instance(rng, rng.randrange(3, 8), 5, 2)
        solver = ExactSolver(inst)
        mask = rng.randrange(1, inst.full_mask + 1)
        hs = frozenset(h for h in range(1, inst.n + 1) if mask >> (h - 1) & 1)
        if len(hs) < 2:
            continue
        b = rng.randrange(1, len(hs))
        raw = oracle_partial_cost(inst, hs, b)
        assert solver.partial_cost(mask, b) == raw / inst.mask_weight(mask), (
            f"case {idx}: conditional normalization broken"
        )


# ---------------------------------------------------------------------------
# structure of returned trees
# ---------------------------------------------------------------------------

def test_returned_trees_realize_their_cost():
    rng = random.Random(44)
    for idx in range(40):
        inst = random_valid_instance(rng, rng.randrange(2, 8),
                                     rng.randrange(2, 6), rng.choice([2, 3]))
        b = rng.randrange(0, inst.n)
        solver = ExactSolver(inst)
        tree = solver.partial_tree(None, b)
        assert structural_problems(tree, inst) == [], f"case {idx}"
        assert is_complete(tree, inst, b=b), f"case {idx}: not complete up to b"
        assert cost(tree, inst).total == solver.partial_cost(None, b), (
            f"case {idx}: tree does not realize the reported cost"
        )
        assert max(cost(tree, inst).depths.values(), default=0) <= b


def test_truncated_cost_grows_into_the_optimum():
    """Each extra budget level forces unresolved leaves to keep splitting, so
    C_OPT(H,b) is non-decreasing in b and tops out at C_OPT(H) by b=|H|-1."""
    rng = random.Random(45)
    for idx in range(25):
        inst = random_valid_instance(rng, rng.randrange(3, 8),
                                     rng.randrange(2, 6), 2)
        solver = ExactSolver(inst)
        costs = [solver.partial_cost(None, b) for b in range(inst.n)]
        full = optimal_cost(inst)
        for b in range(1, len(costs)):
            assert costs[b - 1] <= costs[b], (
                f"case {idx}: truncated cost dropped from b={b-1} to b={b}"
            )
        assert all(c <= full for c in costs), f"case {idx}: truncation inequality"
        assert costs[-1] == full, f"case {idx}: b=n-1 did not reach the optimum"


def test_optimal_never_above_greedy():
    rng = random.Random(46)
    for idx in range(30):
        inst = random_valid_instance(rng, rng.randrange(2, 9),
                                     rng.randrange(2, 7), rng.choice([2, 3]))
        assert optimal_cost(inst) <= cost(build_greedy_tree(inst), inst).total


# ---------------------------------------------------------------------------
# budgets and counters
# ---------------------------------------------------------------------------

def test_expansion_counter_within_envelope():
    """Distinct subproblems expanded <= (mK)^(b+1) (loose counting bound)."""
    rng = random.Random(47)
    for _ in range(15):
        inst = random_valid_instance(rng, rng.randrange(3, 8),
                                     rng.randrange(2, 5), 2)
        b = rng.randrange(1, 4)
        solver = ExactSolver(inst)
        solver.partial_cost(None, b)
        envelope = (inst.m * inst.k) ** (b + 1)
        assert solver.stats.expansions <= envelope, (
            f"{solver.stats.expansions} expansions > envelope {envelope}"
        )


def test_max_expansions_budget_trips():
    rng = random.Random(48)
    inst = random_valid_instance(rng, 10, 8, 2)
    solver = ExactSolver(inst, max_expansions=5)
    with pytest.raises(BudgetExceededError) as ei:
        solver.optimal_cost()
    assert ei.value.expansions is not None and ei.value.expansions > 5


def test_budget_outside_its_range_is_refused():
    """NaN compares false with every deadline, so it would set none."""
    inst = random_valid_instance(random.Random(48), 6, 5, 2)
    for budget in (math.nan, -1.0, -math.inf):
        with pytest.raises(ParameterError):
            ExactSolver(inst, budget_ms=budget)
    assert ExactSolver(inst, budget_ms=math.inf).optimal_cost() == optimal_cost(inst)


def test_undistinguished_instance_is_refused():
    """Hypotheses 2 and 3 answer alike on every test: the solver, each of
    its operations and each module wrapper raise, naming the pair, even over
    a set such as {1, 4} that holds neither.  Greedy, which looks for the
    pair only at a set no test splits, raises the same error."""
    inst = DTInstance([Fraction(1, 4)] * 4, [(1, 2, 2, 1), (1, 1, 1, 2)], 2)
    calls = {
        "build_greedy_tree": lambda: build_greedy_tree(inst),
        "build_greedy_node": lambda: build_greedy_node(inst, inst.full_mask),
        "greedy_choice on {2, 3}": lambda: greedy_choice(inst, [2, 3]),
        "ExactSolver": lambda: ExactSolver(inst),
        "partial_tree": lambda: partial_tree(inst, None, 1),
        "partial_tree on {1, 4}": lambda: partial_tree(inst, [1, 4], 2),
        "partial_cost": lambda: ExactSolver(inst).partial_cost(None, 2),
        "optimal_tree": lambda: optimal_tree(inst),
        "optimal_tree on {1, 4}": lambda: optimal_tree(inst, [1, 4]),
        "optimal_cost": lambda: optimal_cost(inst),
        "optimal_cost on {1, 4}": lambda: optimal_cost(inst, [1, 4]),
    }
    for what, call in calls.items():
        with pytest.raises(InvalidInstanceError) as ei:
            call()
        assert ei.value.undistinguished == (2, 3), what
        assert str(ei.value) == "hypotheses 2 and 3 are undistinguished", what


def _bad_weight_instances():
    """(instance, its first problem): a negative, a NaN or a +inf weight
    among four hypotheses that two tests tell apart.  The negative weights
    sum to 1; a Fraction is never NaN or infinite."""
    tests = [(1, 1, 2, 2), (1, 2, 1, 2)]
    negative = [Fraction(1, 2), Fraction(-1, 4), Fraction(1, 2), Fraction(1, 4)]
    yield DTInstance(negative, tests, 2), "negative weight p_2=-1/4"
    yield (DTInstance([float(w) for w in negative], tests, 2),
           "negative weight p_2=-0.25")
    yield DTInstance([0.25, math.nan, 0.25, 0.5], tests, 2), "non-finite weight p_2=nan"
    yield DTInstance([0.25, 0.25, math.inf, 0.5], tests, 2), "non-finite weight p_3=inf"


def test_every_solver_refuses_bad_weights():
    """Every solver entry raises, before any search, an InvalidInstanceError
    whose message is `validate_instance`'s first problem.  `full_tree`,
    which also needs weights that sum to 1, lists every problem after it
    (`require_valid`).  A negative weight made exact search return a cost
    that was neither optimal nor its own tree's, and a NaN one a NaN cost."""
    for inst, first in _bad_weight_instances():
        assert validate_instance(inst).problems[0] == first
        calls = {
            "build_greedy_tree": lambda: build_greedy_tree(inst),
            "build_greedy_node": lambda: build_greedy_node(inst, 0b1010),
            "greedy_choice": lambda: greedy_choice(inst, [1, 2]),
            "ExactSolver": lambda: ExactSolver(inst),
            "partial_tree": lambda: partial_tree(inst, None, 1),
            "optimal_tree": lambda: optimal_tree(inst),
            "optimal_cost": lambda: optimal_cost(inst),
            "full_tree": lambda: full_tree(inst, FullTreeConfig(alpha=0.5)),
        }
        for what, call in calls.items():
            with pytest.raises(InvalidInstanceError) as ei:
                call()
            message = str(ei.value)
            if what == "full_tree":
                message = message.split("; ")[0]
            assert message == first, what
            assert ei.value.undistinguished is None, (first, what)


def test_memo_reuse_across_calls():
    rng = random.Random(49)
    inst = random_valid_instance(rng, 7, 5, 2)
    solver = ExactSolver(inst)
    solver.optimal_cost()
    before = solver.stats.expansions
    solver.optimal_cost()           # second call must be all memo hits
    assert solver.stats.expansions == before
    assert solver.stats.memo_hits > 0


def test_results_deterministic_across_solvers():
    rng = random.Random(50)
    for _ in range(10):
        inst = random_valid_instance(rng, rng.randrange(3, 8), 5, 2)
        from splitwise import tree_to_text
        a = tree_to_text(ExactSolver(inst).optimal_tree())
        b = tree_to_text(ExactSolver(inst).optimal_tree())
        assert a == b


# ---------------------------------------------------------------------------
# branch and bound against the unpruned recurrence
# ---------------------------------------------------------------------------

class UnprunedSolver:
    """The memoized recurrence without bounds: memo on the raw (mask, b), a
    scan in test order whose only cut is a running total reaching the best,
    ties to the lowest test index.  Recursive; fine at n <= 16."""

    def __init__(self, inst: DTInstance):
        self.inst = inst
        self.memo = {}

    def solve(self, mask: int, b: int):
        if b == 0 or mask.bit_count() <= 1:
            return (0, None)
        key = (mask, b)
        if key in self.memo:
            return self.memo[key]
        inst = self.inst
        p_here = inst.mask_num(mask)
        best = best_j = None
        seen = set()
        for j in range(1, inst.m + 1):
            parts = [mask & am for am in inst.answer_masks(j)]
            parts = [pm for pm in parts if pm]
            if len(parts) <= 1:
                continue
            pkey = tuple(sorted(parts))
            if pkey in seen:
                continue
            seen.add(pkey)
            total = p_here
            for pm in parts:
                total += self.solve(pm, b - 1)[0]
                if best is not None and total >= best:
                    break
            if best is None or total < best:
                best, best_j = total, j
        result = (0, None) if best is None else (best, best_j)
        self.memo[key] = result
        return result

    def tree(self, b: int):
        def rule(s, budget):
            j = self.solve(s, budget)[1]
            return None if j is None else (j, budget - 1)
        return grow(self.inst, self.inst.full_mask, rule, b)


def _differential_corpus():
    rng = random.Random(51)
    cases = [("grid16", gen_grid_adversarial(16, 4))]
    for idx in range(36):
        n = rng.randrange(3, 12)
        K = rng.choice([2, 3])
        profile = ("uniform", "skew", "two-tier")[idx % 3]
        inst = gen_random(n, rng.randrange(6, 10), K, seed=rng.randrange(10**6),
                          profile=profile, ratio=rng.choice([2, 8]))
        cases.append((f"{profile} n={n} K={K}", inst))
    for idx in range(6):    # wide K: parts of many answers in _expand
        n = rng.randrange(6, 11)
        K = rng.choice([5, 7, 12])
        profile = ("uniform", "skew", "two-tier")[idx % 3]
        inst = gen_random(n, rng.randrange(4, 8), K, seed=rng.randrange(10**6),
                          profile=profile, ratio=rng.choice([2, 8]))
        cases.append((f"{profile} n={n} K={K}", inst))
    # test 1 makes no singleton, test 2 a zero-weight one: f(H, 2) ties and
    # test 1 must win
    cases.append(("zero-weight singleton tie",
                  DTInstance([Fraction(0), Fraction(1, 3), Fraction(1, 3),
                              Fraction(1, 3)],
                             [(1, 1, 2, 2), (1, 2, 2, 2), (1, 2, 1, 2)], 2)))
    # every third weight 0, which the solvers' contract admits: the bounds
    # stay admissible, and zero-weight parts tie
    for n, K in ((5, 2), (7, 3), (8, 2), (11, 3)):
        base = gen_random(n, rng.randrange(6, 10), K, seed=rng.randrange(10**6),
                          profile="skew")
        weights = [0 if i % 3 == 2 else w for i, w in enumerate(base.weights)]
        cases.append((f"zero-skew n={n} K={K}", DTInstance(weights, base.tests, K)))
    return cases


@pytest.mark.parametrize("float_mode", [False, True], ids=["exact", "float"])
def test_branch_and_bound_matches_unpruned_recurrence(float_mode):
    """Same trees (text) and raw costs as the unpruned search, bit for bit."""
    for name, inst in _differential_corpus():
        if float_mode:
            inst = inst.as_float()
        budgets = (15,) if name == "grid16" else sorted({1, 2, 3, 4, inst.n - 1})
        solver, oracle = ExactSolver(inst), UnprunedSolver(inst)
        for b in budgets:
            want_raw = oracle.solve(inst.full_mask, b)[0]
            assert solver._solve(inst.full_mask, b)[0] == want_raw, (name, b)
            assert (tree_to_text(solver.partial_tree(None, b))
                    == tree_to_text(oracle.tree(b))), (name, b)


@pytest.mark.parametrize("float_mode", [False, True], ids=["exact", "float"])
def test_shallow_budgets_match_unpruned_recurrence_on_every_set(float_mode):
    """f(H, b) and its test for b = 1, 2 on every set of two or more members."""
    for name, inst in _differential_corpus():
        if inst.n > 8:
            continue
        if float_mode:
            inst = inst.as_float()
        solver, oracle = ExactSolver(inst), UnprunedSolver(inst)
        for mask in range(1, inst.full_mask + 1):
            if mask & (mask - 1):
                for b in (1, 2):
                    assert solver._solve(mask, b) == oracle.solve(mask, b), (name, mask, b)


@pytest.mark.parametrize("float_mode", [False, True], ids=["exact", "float"])
@pytest.mark.parametrize("seed", [1, 2])
def test_depth4_partial_at_workload_size_matches_unpruned(float_mode, seed):
    """The depth-4 partial of the exact-search benchmark workload."""
    inst = gen_random(60, 24, 2, seed)
    if float_mode:
        inst = inst.as_float()
    solver, oracle = ExactSolver(inst), UnprunedSolver(inst)
    assert (tree_to_text(solver.partial_tree(None, 4))
            == tree_to_text(oracle.tree(4)))
    assert solver._solve(inst.full_mask, 4)[0] == oracle.solve(inst.full_mask, 4)[0]


def test_float_partition_dedupe_keeps_the_first_test():
    """Tests 1 and 2 make the same partition with their answers relabelled;
    test 2 adds the two pairs in the other order and comes out an ulp
    lower, 1.9218915027963541, so without the dedupe it would win."""
    weights = [0.4791208265137536, 0.1601760187362736, 0.19362823105877705,
               0.08896642648755004, 0.07810849720364568]
    tests = [(1, 1, 2, 2, 3), (2, 2, 1, 1, 3), (1, 2, 1, 2, 1)]
    inst = DTInstance(weights, tests, 3)
    want = (1.9218915027963543, 1)
    assert UnprunedSolver(inst).solve(inst.full_mask, 2) == want
    assert ExactSolver(inst)._solve(inst.full_mask, 2) == want


def test_exact_partition_duplicate_keeps_the_first_test():
    """The relabelled-duplicate instance above with its weights as Fractions:
    tests 1 and 2 tie exactly at 2·p(H) minus the singleton {5}, and test 1
    wins without a partition dedupe."""
    weights = [Fraction(w) for w in (
        0.4791208265137536, 0.1601760187362736, 0.19362823105877705,
        0.08896642648755004, 0.07810849720364568)]
    tests = [(1, 1, 2, 2, 3), (2, 2, 1, 1, 3), (1, 2, 1, 2, 1)]
    inst = DTInstance(weights, tests, 3)
    full = inst.full_mask
    want = (2 * inst.mask_num(full) - inst.mask_num(1 << 4), 1)
    assert UnprunedSolver(inst).solve(full, 2) == want
    assert ExactSolver(inst)._solve(full, 2) == want


@pytest.mark.parametrize("float_mode", [False, True], ids=["exact", "float"])
def test_exact_budget2_reads_no_part_sums(monkeypatch, float_mode):
    """In exact mode `_shallow(mask, 2)` weighs only the set itself and
    never iterates `_partitions`; float mode still sums its parts over the
    distinct partitions."""
    inst = gen_random(8, 6, 2, 3)
    if float_mode:
        inst = inst.as_float()
    calls = {"partitions": 0, "part sums": 0}
    partitions, mask_num = ExactSolver._partitions, DTInstance.mask_num
    mask = inst.full_mask

    def counted_partitions(self, m):
        calls["partitions"] += 1
        return partitions(self, m)

    def counted_mask_num(self, m):
        calls["part sums"] += m != mask
        return mask_num(self, m)

    solver = ExactSolver(inst)
    monkeypatch.setattr(ExactSolver, "_partitions", counted_partitions)
    monkeypatch.setattr(DTInstance, "mask_num", counted_mask_num)
    got = solver._shallow(mask, 2)
    monkeypatch.undo()
    assert got == UnprunedSolver(inst).solve(mask, 2)
    if float_mode:
        assert calls["partitions"] == 1 and calls["part sums"] > 0
    else:
        assert calls == {"partitions": 0, "part sums": 0}


def test_grid16_optimum_is_cheap_and_pruned():
    """Regression guard: the unpruned search took 23,450 expansions here."""
    solver = ExactSolver(gen_grid_adversarial(16, 4))
    solver.optimal_cost()
    assert solver.stats.expansions <= 300
    assert solver.stats.pruned > 0


@pytest.mark.parametrize("float_mode", [False, True], ids=["exact", "float"])
def test_depth4_partial_is_cheap_in_both_modes(float_mode):
    """Regression guard: before budgets 1 and 2 were answered in one pass,
    this took 2,751 expansions in exact mode and 16,924 in float mode."""
    inst = gen_random(60, 24, 2, 1)
    solver = ExactSolver(inst.as_float() if float_mode else inst)
    solver.partial_tree(None, 4)
    assert solver.stats.expansions <= 3000


def test_uniform_bounds_match_the_general_formulas():
    """The O(log |H|) uniform closed forms equal the heap / prefix-sum bounds
    run on the same weights, every set size and budget up to 40.  The tests
    read the index's base-K digits, so that every pair is told apart; the
    bounds read only the weights."""
    for K in (2, 3, 4):
        tests = [tuple(h // K**d % K + 1 for h in range(40)) for d in range(6)]
        uniform = DTInstance([Fraction(1, 40)] * 40, tests, K)
        # raw weights all 1 but for the last, which no set below contains
        general = DTInstance([Fraction(1, 41)] * 39 + [Fraction(2, 41)], tests, K)
        assert uniform.uniform and not general.uniform
        a, g = ExactSolver(uniform), ExactSolver(general)
        for s in range(2, 40):
            mask = (1 << s) - 1
            for b in range(1, s):
                assert a._lower_bound(mask, b) == g._lower_bound(mask, b), (K, s, b)


def test_huffman_bound_matches_a_heap_reference():
    """The two-queue merge is K-ary Huffman: same cost as merging the K
    lightest from a heap, on skewed weights and every subset size.  The
    tests read the index's base-K digits, as above."""
    import heapq
    rng = random.Random(52)
    for K in (2, 3, 4):
        ws = [rng.randrange(1, 100) for _ in range(30)]
        tests = [tuple(h // K**d % K + 1 for h in range(30)) for d in range(5)]
        inst = DTInstance([Fraction(w, sum(ws)) for w in ws], tests, K)
        solver = ExactSolver(inst)
        for s in range(2, 31):
            heap = [0] * (-(s - 1) % (K - 1)) + ws[:s]
            heapq.heapify(heap)
            want = 0
            while len(heap) > 1:
                merged = sum(heapq.heappop(heap) for _ in range(K))
                want += merged
                heapq.heappush(heap, merged)
            assert solver._lower_bound((1 << s) - 1, s - 1) == want, (K, s)


def chain_instance(n: int) -> DTInstance:
    """One singleton test per hypothesis: every tree is a chain."""
    tests = [tuple(1 if h == j else 2 for h in range(n)) for j in range(n)]
    return DTInstance([Fraction(1, n)] * n, tests, 2)


def test_search_does_not_use_the_interpreter_stack():
    """Descending a chain 250 levels deep under a recursion limit 60 frames
    above the caller ends in the expansion budget, not RecursionError."""
    import sys
    inst = chain_instance(300)
    solver = ExactSolver(inst, max_expansions=250)
    limit = sys.getrecursionlimit()
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    sys.setrecursionlimit(depth + 60)
    try:
        with pytest.raises(BudgetExceededError):
            solver.optimal_cost()
    finally:
        sys.setrecursionlimit(limit)
    assert solver.stats.expansions == 251


def test_wall_clock_budget_stops_a_deep_chain():
    import time
    inst = chain_instance(1200)
    assert not any(undistinguished_pairs(inst, inst.full_mask))
    start = time.monotonic()
    with pytest.raises(BudgetExceededError):
        ExactSolver(inst, budget_ms=1000).optimal_cost()
    assert time.monotonic() - start < 2.0
