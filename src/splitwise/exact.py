"""Exhaustive minimum-cost search by branch and bound: depth-budgeted partial
trees and full optimal trees.

Recurrence.  Over a hypothesis set H with remaining depth budget b,

    f(H, b) = 0                                        if |H| <= 1 or b = 0
    f(H, b) = min_j [ p(H) + sum_k f(H ∩ τ_j^{-1}(k), b-1) ]   otherwise,

where f is the unnormalized cost sum Σ_h p_h·d(h) in raw numerator units
(`DTInstance.mask_num`) and j ranges over tests that actually split H,
deduplicated by the partition they induce.  The chosen test is the
lowest-index j of minimum cost.  The solver refuses every instance that
`instance.require_solvable` refuses.  So some test splits every set of two
or more, and every weight is finite and >= 0, as both bounds below need: a
longer code word for a negative weight costs less, c or more members can
weigh less than the c lightest, and a NaN or inf weight poisons every sum.

Memo key.  Every part of a split is strictly smaller than its set, so along a
path the set shrinks by one or more per level and a budget b >= |H| - 1 never
binds: f(H, b) = f(H, |H| - 1), with the same test.  Results are memoized on
(set bitmask, min(b, |H| - 1)); the table is shared across a whole solve so
outer callers can reuse it.

Bounds.  LB(H, b) <= f(H, b), for a normalized b:

- b = |H| - 1 (full depth): a complete tree sends each member of H to its own
  leaf and has at most K children per node, so it is a K-ary prefix code for
  H and costs at least the K-ary Huffman cost of H's weights.
- b < |H| - 1 (truncated): f(H, b) sums, over levels l < b, the weight of the
  hypotheses that sit in interior nodes at depth l.  The nodes at depth l
  and the leaves above it number at most K^l and split H between them; when
  |H| > K^l one of them holds two or more hypotheses and is interior, so at
  most K^l - 1 hypotheses are resolved by then and the level still carries
  at least p(H) minus the K^l - 1 heaviest weights.

On uniform weights both bounds are closed forms in O(log |H|) steps.  A part
already in the memo is bounded by its exact value.

Search.  Each candidate test j scores p(H) + Σ LB(part).  Candidates are
visited by (score, j).  Candidate j is skipped, or abandoned mid-sum once the
parts solved so far plus the bounds of the rest exceed the incumbent, only
when its bound is above the best total so far, or equal to it with j above
the best test; it replaces the incumbent when its total is lower, or equal
with a lower j.  That keeps the lowest-index tie rule.  Subproblems are
solved without a ceiling handed down, so every memo entry is the exact
f(H, b) and trees and costs equal those of the unpruned recurrence.  In float
mode a bound and a total of the same tree round differently, so float mode
prunes only past a relative margin REL_TOL: a bound an ulp above a tying
total cannot change a tree.

Shallow budgets.  Budgets 1 and 2 need no search.  Every part of a split has
a budget of 0 or 1, and f(H, 1) = p(H) at the first test that splits H,
since every split costs the same.  So f(H, 2) is p(H) plus, for the best
test, the weight of each part of two or more members, and the lowest such
test of minimum total wins.  `_shallow` answers these memo misses with one
pass over the tests, with no candidate list, bound or subproblem stack.
Every set of three or fewer members normalizes to such a budget, so
full-depth solves use it too.  In exact mode the parts sum to H, so

    f(H, 2) = 2·p(H) - (the weight of the split's singleton parts),

and the best test is the first splitting test of greatest singleton weight.
Each test then costs its K ANDs and a one-member check per part, with no
part sums and no partition dedupe: integer sums do not depend on order, so
a relabelled copy of a partition ties and the first test wins anyway.
Float mode adds each part of two or more members in answer order over the
distinct partitions: a relabelled copy adds its parts in another order and
can win by an ulp, so the dedupe keeps the first test.

Each expansion is a generator that yields the subproblems it needs; `_solve`
runs them from an explicit stack, so a chain-shaped optimum thousands of
levels deep never touches the interpreter stack.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import accumulate

from .errors import BudgetExceededError, ParameterError
from .instance import (REL_TOL, DTInstance, Number, SetLike, iter_bits,
                       require_solvable)
from .tree import DecisionTree, grow


@dataclass
class SearchStats:
    expansions: int = 0      # memo misses, those with b <= 2 included
    memo_hits: int = 0
    pruned: int = 0          # candidates skipped or abandoned by the bound


class ExactSolver:
    """Memoized branch-and-bound search over one instance.

    `max_expansions` bounds the number of distinct (set, budget) subproblems
    enumerated; `budget_ms` is a wall-clock ceiling checked at every expansion
    and every candidate scored.  Either limit raises BudgetExceededError
    carrying the counter so callers can report partial statistics.  A
    negative or NaN budget is a ParameterError; inf sets no deadline.  An
    instance that `require_solvable` refuses raises its InvalidInstanceError.
    """

    def __init__(self, inst: DTInstance, *, max_expansions: int | None = None,
                 budget_ms: float | None = None):
        if budget_ms is not None and not 0 <= budget_ms:    # NaN fails too
            raise ParameterError(f"wall-clock budget must be >= 0 ms, got {budget_ms}")
        require_solvable(inst)
        self.inst = inst
        self.memo: dict[tuple[int, int], tuple] = {}
        self.stats = SearchStats()
        self.max_expansions = max_expansions
        self._deadline = (
            time.monotonic() + budget_ms / 1000.0 if budget_ms is not None else None
        )

    # -- budgets ---------------------------------------------------------------

    def _check_clock(self) -> None:
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise BudgetExceededError(
                f"exact search ran past its wall-clock budget "
                f"({self.stats.expansions} expansions)",
                expansions=self.stats.expansions,
            )

    # -- bounds ----------------------------------------------------------------

    def _lower_bound(self, mask: int, b: int):
        """LB(mask, b) in raw numerator units, for b = min(b, |mask| - 1) > 0."""
        inst = self.inst
        k = inst.k
        s = mask.bit_count()
        if inst.uniform:
            w = inst._wnum[0]
            if b == s - 1:
                # Huffman on s equal weights: leaves at depths D-1 and D,
                # D = ceil(log_K s), as many at D-1 as Kraft allows
                depth, cap = 0, 1
                while cap < s:
                    depth += 1
                    cap *= k
                return w * (s * depth - (cap - s) // (k - 1))
            levels, cap = 0, 1
            for _ in range(b):
                if cap >= s:
                    break
                levels += s - cap + 1
                cap *= k
            return w * levels
        wn = inst._wnum
        ws = sorted(wn[i] for i in iter_bits(mask))
        if b == s - 1:
            # Huffman from two ascending queues, the leaves and the merged
            # sums (which come out ascending); zero weights pad the count so
            # that every merge takes K.  No heapq: loading its extension
            # module adds about 0.1 MB to the peak RSS of every process.
            leaves = [0] * (-(s - 1) % (k - 1)) + ws
            sums = []
            i = j = total = 0
            for _ in range((len(leaves) - 1) // (k - 1)):
                merged = 0
                for _ in range(k):
                    if j == len(sums) or (i < len(leaves) and leaves[i] <= sums[j]):
                        merged += leaves[i]
                        i += 1
                    else:
                        merged += sums[j]
                        j += 1
                sums.append(merged)
                total += merged
            return total
        heaviest = [0, *accumulate(reversed(ws))]   # [i]: the i heaviest
        total, cap = 0, 1
        for _ in range(b):
            if cap >= s:
                break
            total += heaviest[s] - heaviest[cap - 1]
            cap *= k
        return total

    # -- core recurrence ---------------------------------------------------

    def _solve(self, mask: int, b: int):
        """Return (f(mask, b) in raw numerator units, best test or None)."""
        b = min(b, mask.bit_count() - 1)
        if b <= 0:
            return (0, None)
        hit = self.memo.get((mask, b))
        if hit is not None:
            self.stats.memo_hits += 1
            return hit
        if b <= 2:
            return self._shallow(mask, b)
        stack = [self._expand(mask, b)]
        value = None
        while True:
            try:
                need = stack[-1].send(value)
            except StopIteration as done:
                stack.pop()
                if not stack:
                    return done.value
                value = done.value[0]
            else:
                stack.append(self._expand(*need))
                value = None

    def _count_expansion(self) -> None:
        stats = self.stats
        stats.expansions += 1
        if self.max_expansions is not None and stats.expansions > self.max_expansions:
            raise BudgetExceededError(
                f"exact search exceeded {self.max_expansions} expansions",
                expansions=stats.expansions,
            )
        self._check_clock()

    def _partitions(self, mask: int):
        """(j, parts) for each test j that splits `mask`, in test order,
        skipping a test whose partition an earlier test already made; parts
        in answer order.  The part list is a hot-path copy of
        `DTInstance.split`: calling `split` per test made exact search about
        40% slower."""
        seen: set[tuple[int, ...]] = set()
        for j, masks in enumerate(self.inst._answer_masks, start=1):
            parts = [pm for am in masks if (pm := mask & am)]
            if len(parts) > 1:
                pkey = tuple(sorted(parts))
                if pkey not in seen:
                    seen.add(pkey)
                    yield j, parts

    def _shallow(self, mask: int, b: int):
        """f(mask, b) and its test at a memo miss with b in {1, 2}, b
        normalized, from one pass over the tests (module docstring, "Shallow
        budgets").  The exact-mode loop over a test's answers is a hot-path
        copy of `DTInstance.split`: iterating `_partitions` there made the
        depth-4 partial about 1.5x slower, for a dedupe it does not need."""
        self._count_expansion()
        inst = self.inst
        p_here = inst.mask_num(mask)
        best = best_j = None
        if b == 1:
            best_j = next(self._partitions(mask))[0]
            best = p_here
        elif inst.exact:
            # f = 2·p(H) - the weight of the split's singleton parts
            wn = inst._wnum
            most = -1
            for j, masks in enumerate(inst._answer_masks, start=1):
                single = 0
                for am in masks:
                    pm = mask & am
                    if pm == mask:          # this test does not split H
                        break
                    if pm and not pm & (pm - 1):
                        single += wn[pm.bit_length() - 1]
                else:
                    if single > most:
                        most, best_j = single, j
            best = 2 * p_here - most
        else:
            for j, parts in self._partitions(mask):
                total = p_here
                for pm in parts:
                    if pm & (pm - 1):       # two or more members
                        total += inst.mask_num(pm)
                if best is None or total < best:
                    best, best_j = total, j
        result = (best, best_j)
        self.memo[(mask, b)] = result
        return result

    def _expand(self, mask: int, b: int):
        """The search at one memo miss (mask, b), b normalized and above 2: a
        generator that yields each subproblem (part, budget) above budget 2
        it needs solved, is sent its f, and returns (f(mask, b), best test)
        after memoizing it."""
        self._count_expansion()
        stats = self.stats
        inst = self.inst
        memo = self.memo
        p_here = inst.mask_num(mask)
        timed = self._deadline is not None
        cands = []
        for j, parts in self._partitions(mask):
            if timed:
                self._check_clock()
            subs = []
            score = p_here
            for pm in parts:
                pb = min(b - 1, pm.bit_count() - 1)
                if pb <= 0:
                    lb = 0
                else:
                    hit = memo.get((pm, pb))
                    lb = hit[0] if hit is not None else self._lower_bound(pm, pb)
                subs.append((pm, pb, lb))
                score += lb
            cands.append((score, j, subs))
        cands.sort(key=lambda c: (c[0], c[1]))

        best = best_j = cut = None
        for idx, (score, j, subs) in enumerate(cands):
            if cut is not None and (score, j) > cut:
                stats.pruned += len(cands) - idx
                break
            total = p_here
            rest = score - p_here
            last = len(subs) - 1
            for i, (pm, pb, lb) in enumerate(subs):
                rest -= lb
                if pb > 0:
                    hit = memo.get((pm, pb))
                    if hit is not None:
                        stats.memo_hits += 1
                        total += hit[0]
                    elif pb <= 2:
                        total += self._shallow(pm, pb)[0]
                    else:
                        total += yield (pm, pb)
                if i < last and cut is not None and (total + rest, j) > cut:
                    stats.pruned += 1
                    break
            else:
                if best is None or (total, j) < (best, best_j):
                    best, best_j = total, j
                    # exact: prune past (best, best_j); float: past the margin
                    cut = ((best, best_j) if inst.exact
                           else (best + best * REL_TOL, inst.m + 1))
        result = (best, best_j)
        memo[(mask, b)] = result
        return result

    # -- public operations ---------------------------------------------------

    def _nonempty(self, H: SetLike, b: int = 0) -> int:
        mask = self.inst.as_mask(H)
        if mask == 0:
            raise ParameterError("empty hypothesis set")
        if b < 0:
            raise ParameterError(f"depth budget must be >= 0, got {b}")
        return mask

    def partial_cost(self, H: SetLike, b: int) -> Number:
        """C_OPT(H, b) = f(H, b) / p(H), normalized to the set's mass."""
        mask = self._nonempty(H, b)
        to_weight = self.inst.num_to_weight
        return to_weight(self._solve(mask, b)[0]) / to_weight(self.inst.mask_num(mask))

    def partial_tree(self, H: SetLike, b: int) -> DecisionTree:
        """Minimum-cost tree complete w.r.t. H up to depth b; leaves may hold
        several hypotheses only at depth b."""
        mask = self._nonempty(H, b)

        def rule(s: int, budget: int):
            j = self._solve(s, budget)[1]
            return None if j is None else (j, budget - 1)

        return grow(self.inst, mask, rule, int(b))

    def optimal_tree(self, H: SetLike = None) -> DecisionTree:
        """Full optimum via b = |H| - 1 (an optimal path never revisits an
        unsplit set, so |H| - 1 edges always suffice)."""
        mask = self._nonempty(H)
        return self.partial_tree(mask, max(mask.bit_count() - 1, 0))

    def optimal_cost(self, H: SetLike = None) -> Number:
        mask = self._nonempty(H)
        return self.partial_cost(mask, max(mask.bit_count() - 1, 0))


# ----------------------------------------------------------------------------
# convenience wrappers (one-shot solver per call)
# ----------------------------------------------------------------------------

def partial_tree(inst: DTInstance, H: SetLike, b: int, *,
                 max_expansions: int | None = None,
                 budget_ms: float | None = None) -> DecisionTree:
    return ExactSolver(inst, max_expansions=max_expansions,
                       budget_ms=budget_ms).partial_tree(H, b)


def optimal_tree(inst: DTInstance, H: SetLike = None, *,
                 max_expansions: int | None = None,
                 budget_ms: float | None = None) -> DecisionTree:
    return ExactSolver(inst, max_expansions=max_expansions,
                       budget_ms=budget_ms).optimal_tree(H)


def optimal_cost(inst: DTInstance, H: SetLike = None, *,
                 max_expansions: int | None = None,
                 budget_ms: float | None = None) -> Number:
    return ExactSolver(inst, max_expansions=max_expansions,
                       budget_ms=budget_ms).optimal_cost(H)
