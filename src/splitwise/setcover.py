"""Weighted greedy Set Cover and its brute-force oracle.

Greedy repeatedly takes the set covering the maximum remaining weight; the
guarantee under test elsewhere is that it uses at most
(1 + ln(p*/p_min)) * ell_opt sets, where p* is the heaviest single set and
ell_opt the optimal cover size.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .errors import BudgetExceededError, ParameterError
from .instance import Number
from .mssc import MsscInstance

MAX_OPT_SETS = 20


def _check_coverage(universe: set, sets: Sequence[frozenset]) -> None:
    residue = universe.difference(*sets) if sets else set(universe)
    if residue:
        raise ParameterError(f"sets do not cover the universe; uncovered: {sorted(residue)}")


def weighted_greedy_cover(weights: Mapping, sets: Sequence[Iterable]) -> tuple[int, ...]:
    """Greedy cover order (1-based set indices) under max-remaining-weight
    selection, ties to the smallest index."""
    universe = set(weights)
    family = [frozenset(s) & universe for s in sets]
    _check_coverage(universe, family)
    elements = tuple(weights)
    cover = MsscInstance(elements, [weights[e] for e in elements], family)
    return tuple(cover.greedy_completion())


def optimal_cover_size(universe: Iterable, sets: Sequence[Iterable]) -> int:
    """Minimum number of sets covering the universe, by smallest-first subset
    enumeration.  Refuses families larger than MAX_OPT_SETS."""
    elems = set(universe)
    family = [frozenset(s) & elems for s in sets]
    if len(family) > MAX_OPT_SETS:
        raise BudgetExceededError(
            f"optimal_cover_size budget: {len(family)} sets > {MAX_OPT_SETS}"
        )
    _check_coverage(elems, family)
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
    raise ParameterError("unreachable: coverage was checked")  # pragma: no cover


def max_set_weight(weights: Mapping, sets: Sequence[Iterable]) -> Number:
    """p*: the largest total weight of any single set."""
    if not sets:
        raise ParameterError("empty set family")
    best = None
    for s in sets:
        w = sum((weights[e] for e in frozenset(s) if e in weights), start=0)
        if best is None or w > best:
            best = w
    return best


def greedy_cover_bound(p_star: Number, p_min: Number, ell_opt: int) -> float:
    """(1 + ln(p*/p_min)) * ell_opt, the guaranteed ceiling on greedy's count."""
    if p_min <= 0 or p_star <= 0:
        raise ParameterError("bound needs positive weights")
    if ell_opt < 1:
        raise ParameterError("ell_opt must be >= 1")
    return (1.0 + math.log(float(p_star / p_min))) * ell_opt
