"""Exhaustive minimum-cost search: depth-budgeted partial trees and full
optimal trees.

The recurrence over a hypothesis set H with remaining budget b is

    f(H, b) = 0                                        if |H| <= 1 or b = 0
    f(H, b) = min_j [ p(H) + sum_k f(H ∩ τ_j^{-1}(k), b-1) ]   otherwise,

where f is the unnormalized cost sum Σ_h p_h·d(h) and j ranges over tests that
actually split H, deduplicated by the partition they induce.  Results are
memoized on (set bitmask, b); the table is shared across a whole recursive
solve so outer callers can reuse it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .errors import BudgetExceededError, ParameterError
from .instance import DTInstance, Number, SetLike
from .tree import DecisionTree, grow

from .greedy import _check_restriction_valid


@dataclass
class SearchStats:
    expansions: int = 0      # memo misses that enumerated candidate tests
    memo_hits: int = 0


class ExactSolver:
    """Memoized exhaustive search over one instance.

    `max_expansions` bounds the number of distinct (set, budget) subproblems
    enumerated; `budget_ms` is a wall-clock ceiling checked as expansions are
    counted.  Either limit raises BudgetExceededError carrying the counter so
    callers can report partial statistics.
    """

    def __init__(self, inst: DTInstance, *, max_expansions: int | None = None,
                 budget_ms: float | None = None):
        self.inst = inst
        self.memo: dict[tuple[int, int], tuple] = {}
        self.stats = SearchStats()
        self.max_expansions = max_expansions
        self._deadline = (
            time.monotonic() + budget_ms / 1000.0 if budget_ms is not None else None
        )

    # -- core recurrence ---------------------------------------------------

    def _solve(self, mask: int, b: int):
        """Return (f(mask, b) in raw numerator units, best test or None)."""
        if b == 0 or mask.bit_count() <= 1:
            return (0, None)
        key = (mask, b)
        hit = self.memo.get(key)
        if hit is not None:
            self.stats.memo_hits += 1
            return hit

        self.stats.expansions += 1
        if self.max_expansions is not None and self.stats.expansions > self.max_expansions:
            raise BudgetExceededError(
                f"exact search exceeded {self.max_expansions} expansions",
                expansions=self.stats.expansions,
            )
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise BudgetExceededError(
                f"exact search ran past its wall-clock budget "
                f"({self.stats.expansions} expansions)",
                expansions=self.stats.expansions,
            )

        inst = self.inst
        p_here = inst.mask_num(mask)
        best = None
        best_j = None
        seen_partitions: set[tuple[int, ...]] = set()
        for j in range(1, inst.m + 1):
            parts = [mask & am for am in inst._answer_masks[j - 1]]
            parts = [pm for pm in parts if pm]
            if len(parts) <= 1:
                continue
            pkey = tuple(sorted(parts))
            if pkey in seen_partitions:
                continue
            seen_partitions.add(pkey)
            total = p_here
            for pm in parts:
                total += self._solve(pm, b - 1)[0]
                if best is not None and total >= best:
                    break
            if best is None or total < best:
                best = total
                best_j = j
        if best is None:
            # No test splits this set: only reachable on invalid instances;
            # truncate here instead of spending budget on useless tests.
            result = (0, None)
        else:
            result = (best, best_j)
        self.memo[key] = result
        return result

    # -- public operations ---------------------------------------------------

    def _nonempty(self, H: SetLike) -> int:
        mask = self.inst.as_mask(H)
        if mask == 0:
            raise ParameterError("empty hypothesis set")
        return mask

    def partial_cost(self, H: SetLike, b: int) -> Number:
        """C_OPT(H, b) = f(H, b) / p(H), normalized to the set's mass."""
        mask = self._nonempty(H)
        to_weight = self.inst.num_to_weight
        return to_weight(self._solve(mask, b)[0]) / to_weight(self.inst.mask_num(mask))

    def partial_tree(self, H: SetLike, b: int) -> DecisionTree:
        """Minimum-cost tree complete w.r.t. H up to depth b; leaves may hold
        several hypotheses only at depth b (or when no test splits them)."""
        mask = self._nonempty(H)
        if b < 0:
            raise ParameterError(f"depth budget must be >= 0, got {b}")

        def rule(s: int, budget: int):
            j = self._solve(s, budget)[1]
            return None if j is None else (j, budget - 1)

        return DecisionTree(grow(self.inst, mask, rule, int(b)))

    def optimal_tree(self, H: SetLike = None) -> DecisionTree:
        """Full optimum via b = |H| - 1 (an optimal path never revisits an
        unsplit set, so |H| - 1 edges always suffice)."""
        mask = self._nonempty(H)
        _check_restriction_valid(self.inst, mask)
        return self.partial_tree(mask, max(mask.bit_count() - 1, 0))

    def optimal_cost(self, H: SetLike = None) -> Number:
        mask = self._nonempty(H)
        _check_restriction_valid(self.inst, mask)
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
