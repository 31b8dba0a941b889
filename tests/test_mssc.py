"""Min-sum set cover: greedy 4-approximation, exact optimum, chain coupling.

The optimum oracle is a permutation sweep, sharing nothing with the library's
covered-subset shortest path.
"""

import itertools
import random
from fractions import Fraction

import pytest

from splitwise import (
    BudgetExceededError,
    MsscInstance,
    ParameterError,
    StructureError,
    build_greedy_tree,
    chain_decomposition,
    chain_order,
    classify_vertices,
    induced_mssc,
    is_greedy_order,
    mssc_cost,
    mssc_greedy,
    mssc_optimal,
)
from conftest import random_exact_weights, random_valid_instance

APPROX_FACTOR = 4


def oracle_optimum(inst: MsscInstance) -> Fraction:
    """Min cost over every permutation of the whole family."""
    best = None
    for perm in itertools.permutations(range(1, inst.n_sets + 1)):
        c = mssc_cost(inst, perm)
        if best is None or c < best:
            best = c
    return best


def random_mssc(rng: random.Random, max_elems: int = 6, max_sets: int = 5):
    n = rng.randrange(2, max_elems + 1)
    m = rng.randrange(2, max_sets + 1)
    weights = random_exact_weights(rng, n)
    sets = []
    for _ in range(m - 1):
        size = rng.randrange(1, n + 1)
        sets.append(frozenset(rng.sample(range(1, n + 1), size)))
    covered = set().union(*sets) if sets else set()
    missing = set(range(1, n + 1)) - covered
    last = missing | set(rng.sample(range(1, n + 1), rng.randrange(0, n)))
    sets.append(frozenset(last) if last else frozenset(range(1, n + 1)))
    return MsscInstance(tuple(range(1, n + 1)), weights, sets)


# ---------------------------------------------------------------------------
# cost evaluation
# ---------------------------------------------------------------------------

def two_set_instance() -> MsscInstance:
    return MsscInstance(
        (1, 2, 3),
        [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)],
        [frozenset({1}), frozenset({2, 3}), frozenset({1, 2})],
    )


def test_cost_by_hand():
    inst = two_set_instance()
    # order (1, 2): element 1 at step 1, elements 2,3 at step 2
    assert mssc_cost(inst, (1, 2)) == Fraction(1, 2) + 2 * Fraction(1, 2)
    # order (3, 2): 1 and 2 at step 1, 3 at step 2
    assert mssc_cost(inst, (3, 2)) == Fraction(3, 4) + 2 * Fraction(1, 4)


def test_cost_ignores_redundant_tail_sets():
    inst = two_set_instance()
    assert mssc_cost(inst, (1, 2, 3)) == mssc_cost(inst, (1, 2))


def test_cost_rejects_uncovering_order():
    inst = two_set_instance()
    with pytest.raises(ParameterError):
        mssc_cost(inst, (1, 3))      # element 3 never covered
    with pytest.raises(ParameterError):
        mssc_cost(inst, (1, 99))


def test_empty_set_is_legal_and_never_helps():
    inst = MsscInstance((1, 2), [Fraction(1, 2), Fraction(1, 2)],
                        [frozenset(), frozenset({1, 2})])
    sol = mssc_greedy(inst)
    assert sol.order == (2,)
    assert sol.cost == 1


def test_duplicate_elements_rejected():
    with pytest.raises(ParameterError):
        MsscInstance((1, 1), [Fraction(1, 2), Fraction(1, 2)], [frozenset({1})])


def test_members_outside_universe_rejected():
    with pytest.raises(ParameterError, match=r"members \[3, 9\] outside the universe"):
        MsscInstance((1, 2), [Fraction(1, 2), Fraction(1, 2)], [{1}, {2, 9, 3}])


# ---------------------------------------------------------------------------
# greedy and optimal
# ---------------------------------------------------------------------------

def test_greedy_prefers_weight_not_cardinality():
    inst = MsscInstance(
        (1, 2, 3),
        [Fraction(8, 10), Fraction(1, 10), Fraction(1, 10)],
        [frozenset({2, 3}), frozenset({1})],
    )
    sol = mssc_greedy(inst)
    assert sol.order[0] == 2, "greedy must grab the heavy singleton first"
    assert is_greedy_order(inst, sol)


def test_greedy_tie_breaks_to_smallest_set_index():
    inst = MsscInstance(
        (1, 2),
        [Fraction(1, 2), Fraction(1, 2)],
        [frozenset({2}), frozenset({1})],
    )
    assert mssc_greedy(inst).order == (1, 2)


def test_optimal_matches_permutation_oracle():
    rng = random.Random(61)
    for idx in range(50):
        inst = random_mssc(rng)
        got = mssc_optimal(inst)
        want = oracle_optimum(inst)
        assert got.cost == want, f"case {idx}: optimal {got.cost} != oracle {want}"
        assert mssc_cost(inst, got.order) == got.cost


def test_greedy_within_factor_four():
    rng = random.Random(62)
    for idx in range(80):
        inst = random_mssc(rng)
        g = mssc_greedy(inst)
        opt = mssc_optimal(inst)
        assert g.cost <= APPROX_FACTOR * opt.cost, (
            f"case {idx}: greedy {g.cost} > 4 * optimal {opt.cost}"
        )
        assert opt.cost <= g.cost


def test_factor_four_exhaustive_small_universes():
    """Every family of <= 3 distinct nonempty covering sets over <= 3 elements."""
    for n in (2, 3):
        weights = [Fraction(1, n)] * n
        elements = tuple(range(1, n + 1))
        nonempty = [frozenset(c)
                    for size in range(1, n + 1)
                    for c in itertools.combinations(elements, size)]
        for count in (1, 2, 3):
            for family in itertools.combinations(nonempty, count):
                if set().union(*family) != set(elements):
                    continue
                inst = MsscInstance(elements, weights, family)
                g = mssc_greedy(inst)
                o = mssc_optimal(inst)
                assert o.cost <= g.cost <= 4 * o.cost, f"family {family}"


def test_is_greedy_order_rejects_bad_first_pick():
    inst = MsscInstance(
        (1, 2, 3),
        [Fraction(8, 10), Fraction(1, 10), Fraction(1, 10)],
        [frozenset({2, 3}), frozenset({1})],
    )
    assert not is_greedy_order(inst, (1, 2))


def test_optimal_budget_guard():
    n = 20
    weights = [Fraction(1, n)] * n
    sets = [frozenset({i}) for i in range(1, n + 1)]
    inst = MsscInstance(tuple(range(1, n + 1)), weights, sets)
    with pytest.raises(BudgetExceededError):
        mssc_optimal(inst)


def test_float_mode_cost_identity():
    rng = random.Random(63)
    for _ in range(20):
        inst = random_mssc(rng)
        finst = MsscInstance(inst.elements, [float(w) for w in inst.weights],
                             inst.sets)
        g = mssc_greedy(finst)
        assert abs(g.cost - float(mssc_greedy(inst).cost)) < 1e-9


# ---------------------------------------------------------------------------
# chain-induced instances
# ---------------------------------------------------------------------------

def test_induced_universe_and_sets():
    rng = random.Random(64)
    inst = random_valid_instance(rng, 6, 4, 2)
    tree = build_greedy_tree(inst)
    root_chain = (0,)
    m_inst = induced_mssc(inst, tree, root_chain)
    assert m_inst.elements == tuple(range(1, 7))
    # one set per test plus one singleton per hypothesis
    assert m_inst.n_sets == inst.m + inst.n
    for h in range(1, inst.n + 1):
        assert m_inst.sets[inst.m + h - 1] == frozenset({h})


def test_induced_rejects_non_path_chains():
    rng = random.Random(65)
    inst = random_valid_instance(rng, 6, 4, 2)
    tree = build_greedy_tree(inst)
    interiors = [r.id for r in tree.records if not r.is_leaf]
    if len(interiors) >= 2:
        a, b = interiors[0], interiors[-1]
        if tree.node(b).parent_id != a:
            with pytest.raises(ParameterError):
                induced_mssc(inst, tree, (b, a))


def test_chain_orders_are_greedy_on_greedy_trees():
    """Top-down chain reading (heavy singleton spliced in) is a greedy order
    of the induced instance — the coupling behind the chain analysis."""
    rng = random.Random(66)
    covered_chains = 0
    for idx in range(30):
        inst = random_valid_instance(rng, rng.randrange(4, 9),
                                     rng.randrange(3, 7), 2,
                                     uniform=rng.random() < 0.5)
        tree = build_greedy_tree(inst)
        labels = classify_vertices(tree, inst, Fraction(1, 2))
        decomp = chain_decomposition(labels, tree)
        for s in sorted(decomp.by_level):
            for chain in decomp.chains_at(s):
                m_inst = induced_mssc(inst, tree, chain)
                sol = chain_order(inst, tree, chain, labels, m_inst)
                assert is_greedy_order(m_inst, sol.order), (
                    f"case {idx}: level-{s} chain {chain} gave a non-greedy order"
                )
                assert sol.cost == mssc_cost(m_inst, sol.order)
                covered_chains += 1
    assert covered_chains >= 30, "corpus produced too few chains to be meaningful"
