"""Weighted Set Cover on an `MsscInstance`: the brute-force optimum, the
heaviest set, and the greedy guarantee.

Greedy is `MsscInstance.greedy_completion`: it repeatedly takes the set
covering the maximum remaining weight.  The guarantee under test elsewhere is
that it uses at most (1 + ln(p*/p_min)) * ell_opt sets, where p* is the
heaviest single set and ell_opt the optimal cover size.
"""

from __future__ import annotations

import math
from itertools import combinations

from .errors import BudgetExceededError, ParameterError
from .instance import Number, left_sum
from .mssc import MsscInstance

MAX_OPT_SETS = 20


def optimal_cover_size(cover: MsscInstance) -> int:
    """Minimum number of sets covering the universe, by smallest-first subset
    enumeration.  Refuses families larger than MAX_OPT_SETS."""
    masks = cover.set_masks
    if len(masks) > MAX_OPT_SETS:
        raise BudgetExceededError(
            f"optimal_cover_size budget: {len(masks)} sets > {MAX_OPT_SETS}"
        )
    if not cover.covers_universe():
        raise ParameterError("sets do not cover the universe")
    full = (1 << cover.n_elements) - 1
    for k in range(len(masks) + 1):
        for combo in combinations(masks, k):
            u = 0
            for m in combo:
                u |= m
            if u == full:
                return k
    raise ParameterError("unreachable: coverage was checked")  # pragma: no cover


def max_set_weight(cover: MsscInstance) -> Number:
    """p*: the largest total weight of any single set.

    Each set is summed in its frozenset's iteration order.  Float sums depend
    on the order, and the printed `setcover_bound` lines carry every bit of
    p*, so that order is part of the output.
    """
    if not cover.n_sets:
        raise ParameterError("empty set family")
    weight = dict(zip(cover.elements, cover.weights))
    return max(left_sum((weight[e] for e in fs), cover.zero) for fs in cover.sets)


def greedy_cover_bound(p_star: Number, p_min: Number, ell_opt: int) -> float:
    """(1 + ln(p*/p_min)) * ell_opt, the guaranteed ceiling on greedy's count."""
    if p_min <= 0 or p_star <= 0:
        raise ParameterError("bound needs positive weights")
    if ell_opt < 1:
        raise ParameterError("ell_opt must be >= 1")
    return (1.0 + math.log(float(p_star / p_min))) * ell_opt
