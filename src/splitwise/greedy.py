"""Greedy decision-tree construction.

At each node the greedy rule picks the test whose worst (heaviest) answer
part is lightest; ties go to the smallest test index.  The majority answer
k+ of a split is the heaviest nonempty part, ties toward the LARGEST answer
index; the minority mass p^-(v) = p(v) - p(v+) is the quantity the chain
analysis tracks down the tree.

`majority_parts` is the split by its definition, for the analysis that
needs k+ and the part masks: every part `DTInstance.split` lists is weighed
by `DTInstance.mask_num`, which adds raw weights in ascending hypothesis
order from the mode's zero (count times the common weight on uniform
instances).  That is the one order a set is weighed in.

The greedy choice itself needs only each test's max part, and stops weighing
once its choice is settled.  Tests are weighed in ascending order, and the
first whose max part equals a lower bound on every test's max part is
chosen: it is optimal, and no earlier test tied it.  On a uniform set of s
members the bound is ceil(s/K) members' weight.  On a weighted set it is the
largest member weight: the part holding that member sums to at least it,
since adding a non-negative float never rounds below an addend.  The stop
only skips work.  A weighed test's max part is `_uniform_weigher`'s count
times the common weight, or `_member_weigher`'s one scan over the set's
members, the one fast copy of `mask_num`'s sum; tests pin both to
`majority_parts` bit for bit, so float trees keep every bit of its sums.
The bound rests on non-negative, finite weights; an instance with a negative
or non-finite weight is weighed by `majority_parts` in full.
"""

from __future__ import annotations

from .errors import StructureError, UnsplittableSetError
from .instance import DTInstance, SetLike, iter_bits, require_distinguishable
from .tree import DecisionTree, grow


def majority_parts(inst: DTInstance, smask: int, tests=None) -> list[tuple]:
    """The split of the set `smask` by each test (1..m, or those in `tests`).

    One entry per test, in order: (k+, majority part mask, majority part
    weight in raw numerator units, `DTInstance.mask_num`).  The majority
    part is the heaviest nonempty part, ties to the largest answer.  A test
    that does not split smask (one answer holds all of it) has the whole set
    as its majority part and weight None.
    """
    if tests is None:
        tests = range(1, inst.m + 1)
    split, mask_num = inst.split, inst.mask_num
    out = []
    for j in tests:
        best = None
        for a, pm in split(smask, j):
            num = None if pm == smask else mask_num(pm)     # whole set: no split
            if best is None or num >= best[2]:
                best = (a, pm, num)
        out.append(best or (1, smask, None))    # the empty set has no part
    return out


def _greedy_split(inst: DTInstance, smask: int, tests) -> tuple[int, list[int]]:
    """(the greedy test at smask among `tests`, the tests to weigh its parts
    with).  `tests` must be ascending so that ties go to the smallest index.

    The list holds, ascending, every weighed test that splits smask except
    the chosen one, and every test the lower-bound stop left unweighed.
    """
    count = smask.bit_count()
    wn = inst._wnum
    if not inst._nonnegative:       # no lower bound holds: weigh every test
        nums = [num for _, _, num in majority_parts(inst, smask, tests)]
        choice = _settle(tests, dict(zip(tests, nums)).__getitem__, None)
    elif inst._uniform:
        choice = _settle(tests, _uniform_weigher(inst, smask, count),
                         -(-count // inst.k) * wn[0])
    else:
        members = list(iter_bits(smask))
        choice = _settle(tests, _member_weigher(inst, smask, members),
                         max(map(wn.__getitem__, members)))
    if choice is None:
        raise UnsplittableSetError(
            f"instance invalid at set of size {count}: no test splits it")
    return choice


def _settle(tests, weigh, lb):
    """The greedy choice among `tests` by `weigh(j)`, a test's max part in raw
    numerator units or None when j does not split the set, as
    `_greedy_split` returns it; None when no test splits the set.

    `lb` is a lower bound on every test's max part, or None.  The first test
    that reaches it is optimal and wins the tie rule, so the tests after it
    are not weighed.
    """
    best_j = 0
    best_num = None
    splitting = []
    for pos, j in enumerate(tests):
        num = weigh(j)
        if num is None:
            continue
        if best_num is None or num < best_num:
            if num == lb:
                splitting.extend(tests[pos + 1:])
                return j, splitting
            best_j, best_num = j, num
        splitting.append(j)
    if best_j == 0:
        return None
    splitting.remove(best_j)
    return best_j, splitting


def _uniform_weigher(inst: DTInstance, smask: int, count: int):
    """The largest part's member count times the common weight, the product
    `majority_parts` takes for that part.  A hot-path copy of
    `DTInstance.split`'s loop over answers: a call per test slows greedy."""
    answer_masks = inst._answer_masks
    w = inst._wnum[0]

    def weigh(j):
        big = 0
        for am in answer_masks[j - 1]:
            c = (smask & am).bit_count()
            if c == count:
                return None
            if c > big:
                big = c
        return big * w
    return weigh


def _member_weigher(inst: DTInstance, smask: int, members: list[int]):
    """The max part weight, every part summed in one scan over `members`:
    the fast copy of `DTInstance.mask_num`'s ascending sum from the mode's
    zero.  An empty part weighs zero, never above a nonempty part here.  A
    hot-path copy of `DTInstance.split`'s loop over answers, as above."""
    answer_masks = inst._answer_masks
    rows = inst.tests
    wn = inst._wnum
    zero = 0 if inst.exact else 0.0
    width = inst.k + 1          # by answer; 0 unused

    def weigh(j):
        for am in answer_masks[j - 1]:
            if pm := smask & am:
                if pm == smask:
                    return None
                break
        nums = [zero] * width
        row = rows[j - 1]
        for i in members:
            nums[row[i]] += wn[i]
        return max(nums)
    return weigh


def greedy_choice(inst: DTInstance, S: SetLike) -> int:
    """The greedy test at S: argmin over splitting tests of the max part
    weight, smallest index on ties."""
    smask = inst.as_mask(S)
    if smask.bit_count() < 2:
        raise UnsplittableSetError("greedy choice needs at least two hypotheses")
    return _greedy_split(inst, smask, range(1, inst.m + 1))[0]


def build_greedy_node(inst: DTInstance, smask: int) -> DecisionTree:
    """Greedy subtree over a raw bitmask (no validity pre-check): `grow` with
    the greedy split as its rule.

    The rule's context is the list of tests a set is weighed with: the
    tests that split its parent, less the parent's own test, since a test
    that does not split a set splits none of its subsets, plus the tests the
    parent's lower-bound stop left unweighed.  Those may not split the set,
    and are skipped when they do not, so the context changes only the work,
    never the choice.
    """
    def rule(s: int, tests):
        return None if s.bit_count() == 1 else _greedy_split(inst, s, tests)

    return grow(inst, smask, rule, range(1, inst.m + 1))


def build_greedy_tree(inst: DTInstance, H: SetLike = None) -> DecisionTree:
    """T_G over H: complete, greedy at every interior node, deterministic."""
    smask = inst.as_mask(H)
    if smask == 0:
        raise UnsplittableSetError("cannot build a tree over the empty set")
    require_distinguishable(inst, smask)
    return build_greedy_node(inst, smask)


# ----------------------------------------------------------------------------
# the heavy hypothesis used by the chain analysis
# ----------------------------------------------------------------------------

def heavy_above(inst: DTInstance, smask: int, pminus_num) -> int | None:
    """The unique h in smask whose raw weight exceeds p^-(v) = pminus_num.

    p^-(v) must be summed directly over the minority elements, so that
    float-mode comparisons against element weights stay self-consistent
    (p(S) minus the majority part can land an ulp low, making an element
    look heavier than its own class).  At a greedy split two such hypotheses
    are impossible (some test separates them, so the lighter one bounds the
    minority mass from below), hence a second find raises in exact mode
    instead of guessing.  Float rounding can manufacture a near-tie
    duplicate, so float mode resolves to the heaviest candidate.
    """
    found = None
    for i in iter_bits(smask):
        if inst._wnum[i] > pminus_num:
            if found is not None:
                if inst.exact:
                    raise StructureError(
                        f"two heavy hypotheses ({found}, {i + 1}) at one vertex"
                    )
                if inst._wnum[i] <= inst._wnum[found - 1]:
                    continue
            found = i + 1
    return found
