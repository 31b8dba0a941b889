"""Weighted set-cover greedy and its harmonic-free cost bound.

Second opinion on the optimal cover size: a DP over covered bitmasks,
independent of the library's subset enumeration.  The cover size and p* are
also checked against dict-based references that take the universe, the
weights and the sets apart rather than as an `MsscInstance`.
"""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from splitwise import (
    BudgetExceededError,
    MsscInstance,
    ParameterError,
    build_greedy_tree,
    classify_vertices,
    gen_random,
    greedy_cover_bound,
    heavy_cover_instance,
    heavy_paths,
    max_set_weight,
    members_of,
    optimal_cover_size,
)

TOL = 1e-9


def as_cover(weights, sets) -> MsscInstance:
    """The covering instance of a weight map and a set family."""
    return MsscInstance(tuple(weights), tuple(weights.values()), sets)


def dp_cover_size(universe, sets) -> int:
    """Min number of sets covering the universe, by bitmask DP."""
    elems = sorted(universe)
    pos = {e: i for i, e in enumerate(elems)}
    full = (1 << len(elems)) - 1
    masks = []
    for s in sets:
        m = 0
        for e in s:
            if e in pos:
                m |= 1 << pos[e]
        masks.append(m)
    best = {0: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for state in frontier:
            for m in masks:
                t = state | m
                if t != state and (t not in best or best[t] > best[state] + 1):
                    best[t] = best[state] + 1
                    nxt.append(t)
        frontier = nxt
    return best[full]


def random_cover_family(rng: random.Random, max_u: int = 7, max_sets: int = 9):
    u = rng.randrange(2, max_u + 1)
    universe = list(range(1, u + 1))
    m = rng.randrange(2, max_sets + 1)
    sets = []
    for _ in range(m - 1):
        size = rng.randrange(1, u + 1)
        sets.append(sorted(rng.sample(universe, size)))
    covered = set().union(*map(set, sets))
    leftover = sorted(set(universe) - covered)
    sets.append(leftover if leftover else sorted(rng.sample(universe, rng.randrange(1, u + 1))))
    weights = {}
    for e in universe:
        weights[e] = Fraction(rng.randrange(1, 40), 100)
    return weights, sets


# ---------------------------------------------------------------------------
# greedy cover
# ---------------------------------------------------------------------------

def test_greedy_collects_weight_first():
    weights = {1: Fraction(7, 10), 2: Fraction(2, 10), 3: Fraction(1, 10)}
    sets = [[2, 3], [1]]
    order = as_cover(weights, sets).greedy_completion()
    assert order == [2, 1]


def test_greedy_tie_smallest_index():
    weights = {1: Fraction(1, 2), 2: Fraction(1, 2)}
    order = as_cover(weights, [[2], [1]]).greedy_completion()
    assert order == [1, 2]


def test_greedy_covers_everything_without_repeats():
    rng = random.Random(71)
    for idx in range(60):
        weights, sets = random_cover_family(rng)
        order = as_cover(weights, sets).greedy_completion()
        assert len(set(order)) == len(order), f"case {idx}: repeated pick"
        covered = set()
        for j in order:
            covered |= set(sets[j - 1])
        assert covered == set(weights), f"case {idx}: incomplete cover"
        # every picked set contributed something new
        covered = set()
        for j in order:
            gain = set(sets[j - 1]) - covered
            assert gain, f"case {idx}: set {j} picked with zero gain"
            covered |= set(sets[j - 1])


def test_greedy_rejects_non_covering_family():
    with pytest.raises(ParameterError):
        as_cover({1: Fraction(1, 2), 2: Fraction(1, 2)}, [[1]]).greedy_completion()


# ---------------------------------------------------------------------------
# optimal cover size
# ---------------------------------------------------------------------------

def test_optimal_size_matches_dp():
    rng = random.Random(72)
    for idx in range(60):
        weights, sets = random_cover_family(rng)
        got = optimal_cover_size(as_cover(weights, sets))
        want = dp_cover_size(list(weights), sets)
        assert got == want, f"case {idx}: {got} != DP {want}"
    assert optimal_cover_size(MsscInstance((), (), [[]])) == 0


def test_optimal_size_budget_guard():
    universe = list(range(1, 30))
    sets = [[e] for e in universe]
    with pytest.raises(BudgetExceededError):
        optimal_cover_size(MsscInstance(universe, [1] * len(universe), sets))


def test_max_set_weight():
    weights = {1: Fraction(1, 4), 2: Fraction(1, 4), 3: Fraction(1, 2)}
    assert max_set_weight(as_cover(weights, [[1, 2], [3]])) == Fraction(1, 2)
    assert max_set_weight(as_cover(weights, [[1], [2]])) == Fraction(1, 4)


# ---------------------------------------------------------------------------
# the cover-cost bound
# ---------------------------------------------------------------------------

def test_bound_formula_values():
    # p* = p_min: bound collapses to ell_opt
    assert greedy_cover_bound(Fraction(1, 8), Fraction(1, 8), 3) == pytest.approx(3.0)
    # doubling the ratio adds ln(2) per cover set
    b1 = greedy_cover_bound(Fraction(1, 4), Fraction(1, 8), 5)
    assert b1 == pytest.approx((1 + math.log(2)) * 5)


def test_greedy_length_within_log_ratio_bound():
    """|greedy order| <= (1 + ln(p*/p_min)) * ell_opt on weighted families."""
    rng = random.Random(73)
    for idx in range(120):
        weights, sets = random_cover_family(rng)
        cover = as_cover(weights, sets)
        order = cover.greedy_completion()
        ell = optimal_cover_size(cover)
        p_star = max_set_weight(cover)
        p_min = min(weights.values())
        bound = greedy_cover_bound(p_star, p_min, ell)
        assert len(order) <= bound + TOL, (
            f"case {idx}: greedy used {len(order)} sets, bound {bound:.4f} "
            f"(ell_opt={ell})"
        )
        assert ell <= len(order), f"case {idx}: optimal above greedy?"


# ---------------------------------------------------------------------------
# differential check against the dict-based cover routines
# ---------------------------------------------------------------------------

def reference_cover_size(universe, sets) -> int:
    """The optimal cover size by subset enumeration over sets given as
    iterables; members outside the universe are dropped."""
    elems = set(universe)
    family = [frozenset(s) & elems for s in sets]
    if not elems:
        return 0
    pos = {e: i for i, e in enumerate(sorted(elems, key=repr))}
    full = (1 << len(pos)) - 1
    masks = []
    for fs in family:
        m = 0
        for e in fs:
            m |= 1 << pos[e]
        masks.append(m)
    for k in range(1, len(masks) + 1):
        for combo in combinations(range(len(masks)), k):
            u = 0
            for idx in combo:
                u |= masks[idx]
            if u == full:
                return k
    raise AssertionError("family does not cover the universe")


def reference_max_set_weight(weights, sets):
    """p* from a weight map, each set summed over its frozenset."""
    best = None
    for s in sets:
        w = sum((weights[e] for e in frozenset(s) if e in weights), start=0)
        if best is None or w > best:
            best = w
    return best


def audit_cover_family(rng: random.Random, float_mode: bool):
    """A cover drawn the way the audit battery draws one: frozensets of up
    to 9 elements, so that their iteration order is not always ascending."""
    u = rng.randrange(3, 10)
    universe = frozenset(range(1, u + 1))
    sets = [frozenset(rng.sample(sorted(universe), rng.randrange(1, u + 1)))
            for _ in range(rng.randrange(2, 11))]
    sets[0] |= universe - frozenset().union(*sets)
    if float_mode:
        weights = {e: rng.uniform(0.2, 4.0) for e in universe}
    else:
        weights = {e: Fraction(rng.randrange(1, 9)) for e in universe}
    return weights, sets


def small_set_family(rng: random.Random):
    """Float weights on 1..9 and sets of three or four elements, plus
    singletons for what they miss: p* is the weight of a small set, whose
    frozenset often iterates 8 or 9 first."""
    weights = {e: rng.uniform(0.2, 4.0) for e in range(1, 10)}
    sets = [frozenset(rng.sample(range(1, 10), rng.choice((3, 4))))
            for _ in range(6)]
    sets += [frozenset({e}) for e in set(weights).difference(*sets)]
    return weights, sets


def heavy_covers(exact: bool):
    """(weight map, sets, covering instance) of every heavy run of greedy
    trees over skewed and two-tier instances.  The map and the sets are
    derived here from the answers, apart from `heavy_cover_instance`."""
    seed = 0
    for profile in ("skew", "two-tier"):
        for K in (2, 3):
            for n in (5, 8, 12):
                seed += 1
                inst = gen_random(n, 7, K, seed, profile=profile, exact=exact)
                tree = build_greedy_tree(inst)
                labels = classify_vertices(tree, inst, Fraction(1, 2))
                for h, hp in heavy_paths(labels, tree, inst).items():
                    universe = [e for e in members_of(tree.node(hp.top_id).mask)
                                if e != h]
                    weights = {e: inst.weight_of(e) for e in universe}
                    sets = [frozenset(e for e in universe
                                      if inst.answer_of(j, e) != inst.answer_of(j, h))
                            for j in range(1, inst.m + 1)]
                    yield weights, sets, heavy_cover_instance(inst, tree, hp.top_id, h)


@pytest.mark.parametrize("float_mode", [False, True])
def test_cover_routines_match_dict_reference(float_mode):
    """Cover size and p* equal the references with `==`; a float p* must be
    bit-identical, since the audit prints every bit of it."""
    rng = random.Random(74 + float_mode)
    cases = [audit_cover_family(rng, float_mode) for _ in range(300)]
    for _ in range(100):
        weights, sets = random_cover_family(rng)
        if float_mode:
            weights = {e: float(w) for e, w in weights.items()}
        cases.append((weights, sets))
    if float_mode:
        cases += [small_set_family(rng) for _ in range(200)]
    cases = [(w, s, as_cover(w, s)) for w, s in cases]
    cases += heavy_covers(exact=not float_mode)
    assert len(cases) > 420
    for idx, (weights, sets, cover) in enumerate(cases):
        assert cover.elements == tuple(weights), idx
        assert cover.weights == tuple(weights.values()), idx
        assert cover.sets == tuple(map(frozenset, sets)), idx
        assert optimal_cover_size(cover) == reference_cover_size(weights, sets), idx
        p_star = max_set_weight(cover)
        want = reference_max_set_weight(weights, sets)
        assert p_star == want, (idx, p_star, want)
        assert type(p_star) is (float if float_mode else Fraction), idx
