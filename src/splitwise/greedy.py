"""Greedy decision-tree construction.

At each node the greedy rule picks the test whose worst (heaviest) answer
part is lightest; ties go to the smallest test index.  The majority answer
k+ of a split is the heaviest nonempty part, ties toward the LARGEST answer
index; the minority mass p^-(v) = p(v) - p(v+) is the quantity the chain
analysis tracks down the tree.
"""

from __future__ import annotations

from .errors import (InvalidInstanceError, ParameterError, StructureError,
                     UnsplittableSetError)
from .instance import DTInstance, SetLike, iter_bits, undistinguished_pairs
from .tree import DecisionTree, TreeNode, interior, leaf


def majority_parts(inst: DTInstance, smask: int, tests=None) -> list[tuple]:
    """The split of the set `smask` by each test (1..m, or those in `tests`).

    One entry per test, in order: (k+, majority part mask, majority part
    weight in raw numerator units).  The majority part is the heaviest
    nonempty part, ties to the largest answer.  A test that does not split
    smask (one answer holds all of it) has the whole set as its majority
    part and weight None.  All tests of a set are scanned in one call, since
    this is greedy's hot loop.
    """
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


def _greedy_split(inst: DTInstance, smask: int, tests) -> tuple[int, list[int]]:
    """(the greedy test at smask among `tests`, the other tests that split
    smask).  `tests` must be ascending so that ties go to the smallest index.
    """
    best_j = 0
    best_num = None
    splitting = []
    for j, (_, _, num) in zip(tests, majority_parts(inst, smask, tests)):
        if num is not None:
            splitting.append(j)
            if best_num is None or num < best_num:
                best_num = num
                best_j = j
    if best_j == 0:
        raise UnsplittableSetError(
            f"instance invalid at set of size {smask.bit_count()}: no test splits it"
        )
    splitting.remove(best_j)
    return best_j, splitting


def greedy_choice(inst: DTInstance, S: SetLike) -> int:
    """The greedy test at S: argmin over splitting tests of the max part
    weight, smallest index on ties."""
    smask = inst.as_mask(S)
    if smask.bit_count() < 2:
        raise UnsplittableSetError("greedy choice needs at least two hypotheses")
    return _greedy_split(inst, smask, range(1, inst.m + 1))[0]


def _check_restriction_valid(inst: DTInstance, smask: int) -> None:
    pair = next(undistinguished_pairs(inst, smask), None)
    if pair is not None:
        raise InvalidInstanceError(
            f"hypotheses {pair[0]} and {pair[1]} are undistinguished",
            undistinguished=pair,
        )


def build_greedy_node(inst: DTInstance, smask: int) -> TreeNode:
    """Greedy subtree over a raw bitmask (no validity pre-check).

    Iterative post-order build: chain-shaped greedy trees (singleton splits)
    can be as deep as n, which recursion would not survive at large n.
    Each set is scanned only with the tests that split its parent, less the
    parent's own test: a test that does not split a set splits none of its
    subsets.
    """
    order: list[int] = []
    plan: dict[int, tuple[int, list[tuple[int, int]]] | None] = {}
    stack = [(smask, range(1, inst.m + 1))]
    while stack:
        s, tests = stack.pop()
        order.append(s)
        if s.bit_count() == 1:
            plan[s] = None
            continue
        j, splitting = _greedy_split(inst, s, tests)
        kids = [
            (a, s & am)
            for a, am in enumerate(inst._answer_masks[j - 1], start=1)
            if s & am
        ]
        plan[s] = (j, kids)
        stack.extend((part, splitting) for _, part in kids)
    built: dict[int, TreeNode] = {}
    for s in reversed(order):
        entry = plan[s]
        if entry is None:
            built[s] = leaf(s)
        else:
            j, kids = entry
            built[s] = interior(j, [(a, built[p]) for a, p in kids], s)
    return built[smask]


def build_greedy_tree(inst: DTInstance, H: SetLike = None) -> DecisionTree:
    """T_G over H: complete, greedy at every interior node, deterministic."""
    smask = inst.as_mask(H)
    if smask == 0:
        raise UnsplittableSetError("cannot build a tree over the empty set")
    _check_restriction_valid(inst, smask)
    return DecisionTree(build_greedy_node(inst, smask))


# ----------------------------------------------------------------------------
# majority / minority machinery used by the chain analysis
# ----------------------------------------------------------------------------

def majority_split(inst: DTInstance, smask: int, j: int) -> tuple[int, int]:
    """(majority answer k+, its part mask) for test j at the set `smask`."""
    kplus, maj_mask, _ = majority_parts(inst, smask, (j,))[0]
    return kplus, maj_mask


def heavy_hypothesis(inst: DTInstance, smask: int, j: int) -> int | None:
    """The unique h in the set with p_h > p^-(v) for the node (smask, test j),
    or None."""
    _, maj_mask = majority_split(inst, smask, j)
    return heavy_above(inst, smask, inst.mask_num(smask & ~maj_mask))


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
