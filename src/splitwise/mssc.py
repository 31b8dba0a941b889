"""(Weighted) Min-Sum-Set-Cover, and the covering instance it shares with
Set Cover.

`MsscInstance` is the one covering instance of the package: a weighted
universe plus a family of sets, held as bitmasks.  MSSC orders the whole
family; `setcover` reads the same instance for the cover size and the
heaviest set.

An ordering of sets covers the universe; each element pays its weight times
the index of the first set containing it.  Equivalently the cost is the sum,
over steps, of the weight still uncovered before the step — both formulas are
computed and cross-checked on every evaluation.

The bridge to decision trees: a chain of tree vertices induces an MSSC
instance whose universe is the consistent set at the top of the chain and
whose sets are the per-test minority parts plus one singleton per hypothesis.
`chain_order` rebuilds the specific greedy ordering that reads the chain's
tests off in order (inserting the heavy singleton where the chain turns
heavy), which is what links chain weight to MSSC cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from .errors import BudgetExceededError, ParameterError, StructureError
from .greedy import majority_parts
from .instance import (DTInstance, Number, bit_sum, close, coerce_weights,
                       iter_bits, left_sum)
from .tree import DecisionTree, NodeRecord

# budget for the exact search: the covered-state space is bounded by
# 2^min(#distinct nonempty sets, |universe|)
OPT_SEARCH_BITS = 16


class MsscInstance:
    """Weighted universe plus a family of sets (1-based set indices).

    `set_masks[j - 1]` is set j as a bitmask over element positions (bit i
    is `elements[i]`), and `mask_weight` weighs such a mask in ascending
    position order.  Elements are arbitrary integer labels; a set member
    outside the universe is refused.  Empty sets are legal members of the
    family (the chain-induced construction keeps per-hypothesis singletons
    even when empty); they are never useful and never picked.  `sets` keeps
    each set as a frozenset, in whose iteration order
    `setcover.max_set_weight` adds weights.
    """

    __slots__ = ("elements", "weights", "sets", "exact", "zero", "set_masks")

    def __init__(self, elements: Sequence[int], weights: Sequence[Number],
                 sets: Sequence[Iterable[int]]):
        self.elements = tuple(elements)
        pos = {e: i for i, e in enumerate(self.elements)}
        if len(pos) != len(self.elements):
            raise ParameterError("duplicate universe elements")
        if len(weights) != len(self.elements):
            raise ParameterError("one weight per universe element required")
        self.weights, self.exact, self.zero = coerce_weights(weights)
        frozen = []
        masks = []
        for s in sets:
            fs = frozenset(s)
            stray = fs.difference(pos)
            if stray:
                raise ParameterError(f"set members {sorted(stray)} outside the universe")
            frozen.append(fs)
            mask = 0
            for e in fs:
                mask |= 1 << pos[e]
            masks.append(mask)
        self.sets = tuple(frozen)
        self.set_masks = tuple(masks)

    @property
    def n_elements(self) -> int:
        return len(self.elements)

    @property
    def n_sets(self) -> int:
        return len(self.sets)

    def total_weight(self) -> Number:
        return left_sum(self.weights, self.zero)

    def covers_universe(self) -> bool:
        union = 0
        for m in self.set_masks:
            union |= m
        return union == (1 << len(self.elements)) - 1

    def mask_weight(self, mask: int) -> Number:
        return bit_sum(self.weights, mask, self.zero)

    def greedy_completion(self, prefix: Sequence[int] = ()) -> list[int]:
        """`prefix` extended until the universe is covered, each step taking
        the set that covers the maximum remaining WEIGHT.

        Ties go to the smallest set index.  Zero-weight elements can make all
        remaining weights tie at 0; restricting candidates to sets that cover
        at least one uncovered element keeps the loop terminating and the
        order deterministic.
        """
        full = (1 << len(self.elements)) - 1
        covered = 0
        for j in prefix:
            covered |= self.set_masks[j - 1]
        order = list(prefix)
        while covered != full:
            best_j = 0
            best_w = None
            for j, mask in enumerate(self.set_masks, start=1):
                gain = mask & ~covered
                if not gain:
                    continue
                w = self.mask_weight(gain)
                if best_w is None or w > best_w:
                    best_w = w
                    best_j = j
            if best_j == 0:
                residue = [self.elements[i] for i in iter_bits(full & ~covered)]
                raise ParameterError(
                    f"sets do not cover the universe; uncovered: {residue}")
            order.append(best_j)
            covered |= self.set_masks[best_j - 1]
        return order

    def __repr__(self) -> str:
        return f"MsscInstance(|S|={self.n_elements}, M={self.n_sets})"


@dataclass(frozen=True)
class MsscSolution:
    """A prefix of a permutation of set indices; must cover the universe."""
    order: tuple[int, ...]
    cost: Number


OrderLike = Union[MsscSolution, Sequence[int]]


def _order_of(sol: OrderLike) -> tuple[int, ...]:
    if isinstance(sol, MsscSolution):
        return sol.order
    return tuple(int(x) for x in sol)


def mssc_cost(inst: MsscInstance, sol: OrderLike) -> Number:
    """Cost of an ordering, computed by BOTH formulas (cover time and
    uncovered-prefix weight); they must agree or the evaluation aborts."""
    order = _order_of(sol)
    for j in order:
        if not 1 <= j <= inst.n_sets:
            raise ParameterError(f"set index {j} outside 1..{inst.n_sets}")

    full = (1 << inst.n_elements) - 1

    # cover-time formula
    cover_step: dict[int, int] = {}
    covered = 0
    for step, j in enumerate(order, start=1):
        new = inst.set_masks[j - 1] & ~covered
        covered |= new
        for i in iter_bits(new):
            cover_step[i] = step
    if covered != full:
        missing = inst.elements[(full & ~covered).bit_length() - 1]
        raise ParameterError(f"ordering leaves element {missing} uncovered")
    by_cover_time = left_sum(
        (inst.weights[i] * cover_step[i] for i in range(inst.n_elements)),
        inst.zero)

    # uncovered-prefix formula
    covered = 0
    by_prefix = inst.zero
    for j in order:
        by_prefix += inst.mask_weight(full & ~covered)
        covered |= inst.set_masks[j - 1]

    if not close(by_cover_time, by_prefix):
        raise StructureError(
            f"cost formulas disagree: {by_cover_time} vs {by_prefix}"
        )
    return by_cover_time


def mssc_greedy(inst: MsscInstance) -> MsscSolution:
    """Pick the set covering maximum remaining WEIGHT until covered, ties to
    the smallest set index (see `MsscInstance.greedy_completion`)."""
    order = inst.greedy_completion()
    return MsscSolution(tuple(order), mssc_cost(inst, order))


def is_greedy_order(inst: MsscInstance, sol: OrderLike) -> bool:
    """True iff every pick attains the maximum remaining covered weight
    (any tie-breaking allowed), over the prefix that reaches full coverage.

    Float instances compare with `instance.close`: mathematically tied gains
    can differ by an ulp when summed in different orders.
    """
    order = _order_of(sol)
    full = (1 << inst.n_elements) - 1
    covered = 0
    for j in order:
        if covered == full:
            break
        best = max(inst.mask_weight(m & ~covered) for m in inst.set_masks)
        own = inst.mask_weight(inst.set_masks[j - 1] & ~covered)
        if own < best and not close(own, best):
            return False
        covered |= inst.set_masks[j - 1]
    return covered == full


def mssc_optimal(inst: MsscInstance) -> MsscSolution:
    """Exact optimum by shortest path over covered subsets.

    Permutations that share a covered prefix are equivalent, so the search
    state is just the union covered so far; states are processed in
    increasing-coverage order (every useful pick strictly grows coverage).
    Budget: 2^min(#distinct nonempty sets, |universe|) states, capped at
    2**OPT_SEARCH_BITS.
    """
    if not inst.covers_universe():
        raise ParameterError("sets do not cover the universe")
    distinct: list[tuple[int, int]] = []  # (original 1-based index, mask)
    seen_masks: set[int] = set()
    for j, mask in enumerate(inst.set_masks, start=1):
        if mask and mask not in seen_masks:
            seen_masks.add(mask)
            distinct.append((j, mask))
    if min(len(distinct), inst.n_elements) > OPT_SEARCH_BITS:
        raise BudgetExceededError(
            f"mssc_optimal budget: min(sets={len(distinct)}, "
            f"universe={inst.n_elements}) > {OPT_SEARCH_BITS}"
        )

    full = (1 << inst.n_elements) - 1
    total = inst.total_weight()

    # reachable covered-states
    states = {0}
    frontier = [0]
    while frontier:
        s = frontier.pop()
        for _, mask in distinct:
            t = s | mask
            if t != s and t not in states:
                states.add(t)
                frontier.append(t)

    ordered = sorted(states, key=lambda s: (s.bit_count(), s))
    best: dict[int, Number] = {0: inst.zero}
    parent: dict[int, tuple[int, int]] = {}
    for s in ordered:
        if s not in best:
            continue
        here = best[s]
        step_cost = total - inst.mask_weight(s)
        for j, mask in distinct:
            t = s | mask
            if t == s:
                continue
            cand = here + step_cost
            prev = best.get(t)
            if prev is None or cand < prev:
                best[t] = cand
                parent[t] = (s, j)

    order_rev = []
    s = full
    while s != 0:
        s, j = parent[s]
        order_rev.append(j)
    order = tuple(reversed(order_rev))
    return MsscSolution(order, mssc_cost(inst, order))


# ----------------------------------------------------------------------------
# chain-induced instances
# ----------------------------------------------------------------------------

def _chain_records(tree: DecisionTree, chain) -> list[NodeRecord]:
    recs = [tree.node(v) for v in chain]
    if not recs:
        raise ParameterError("empty chain")
    for above, below in zip(recs, recs[1:]):
        if below.parent_id != above.id:
            raise ParameterError(
                f"chain is not a downward path: node {below.id} is not a child "
                f"of node {above.id}"
            )
    for rec in recs:
        if rec.is_leaf:
            raise ParameterError(f"chain vertex {rec.id} is a leaf (no test)")
    return recs


def induced_mssc(inst: DTInstance, tree: DecisionTree, chain) -> MsscInstance:
    """MSSC instance induced by a downward path of interior vertices.

    Universe: the consistent set at the top of the chain.  For each test j,
    set A_j is the complement of j's majority answer (majority measured on the
    universe), intersected with the universe; sets m+1..m+n are per-hypothesis
    singletons, kept even when empty so indices line up.
    """
    recs = _chain_records(tree, chain)
    smask = recs[0].mask
    elements = [i + 1 for i in iter_bits(smask)]
    weights = [inst.weights[i] for i in iter_bits(smask)]
    sets: list[frozenset[int]] = [
        frozenset(i + 1 for i in iter_bits(smask & ~maj_mask))
        for _, maj_mask, _ in majority_parts(inst, smask)]
    for h in range(1, inst.n + 1):
        sets.append(frozenset([h]) if (smask >> (h - 1)) & 1 else frozenset())
    return MsscInstance(elements, weights, sets)


def chain_order(inst: DTInstance, tree: DecisionTree, chain, labels,
                cover: MsscInstance) -> MsscSolution:
    """The ordering that reads the chain's tests off top-down, inserting the
    heavy singleton after the last non-heavy vertex, then completing greedily.

    `cover` is the chain's `induced_mssc` instance, and `labels` the tree's
    `chains.VertexLabels`: each vertex's heavy hypothesis is its label's
    `heavy`.  On chains of greedy trees this ordering is itself greedy (every
    pick attains the maximum remaining weight), which tests can verify with
    `is_greedy_order`.
    """
    tests = [tree.node(v).test for v in chain]
    heavies = [labels[v].heavy for v in chain]

    ell0 = 0
    for idx, h in enumerate(heavies, start=1):
        if h is None:
            ell0 = idx
    if ell0 == len(chain):
        prefix = tests
    else:
        prefix = tests[:ell0] + [inst.m + heavies[ell0]] + tests[ell0:]

    order = cover.greedy_completion(prefix)
    return MsscSolution(tuple(order), mssc_cost(cover, order))
