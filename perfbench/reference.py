"""A fixed reference kernel that tells how fast the host runs right now.

On a shared host the same code runs up to about 1.8x slower for minutes at a
time, and no statistic taken inside one run removes that.  The benchmark
therefore times this kernel next to every op and rescales each op's time to
the speed at which the kernel takes `REFERENCE_S` seconds.

The kernel does the kind of work splitwise does, in plain Python that does
not import splitwise, so a change to the program never changes the kernel:

- a greedy-style scan: AND of a set mask with each answer mask of every
  test, then the part's weight summed bit by bit, as `DTInstance.mask_num`
  does with non-uniform weights;
- a memoized recursion over (mask, depth) keys, as `ExactSolver._solve` does;
- `Fraction` sums, as exact-mode costs are.

Its input is fixed, so its work and its checksum never change.
"""

from __future__ import annotations

import random
from fractions import Fraction

# Seconds one kernel call takes on the reference host, a 2-core shared Intel
# Xeon VM running Python 3.11: about the median of the calls timed there.
REFERENCE_S = 0.03

_N_SCAN, _M_SCAN = 640, 48        # greedy scan: hypotheses, tests
_N_MEMO, _M_MEMO = 14, 14         # memoized recursion: hypotheses, tests


def _instance(rng: random.Random, n: int, m: int):
    weights = [rng.randint(1, 1000) for _ in range(n)]
    tests = []
    for _ in range(m):
        yes = rng.getrandbits(n)
        tests.append((yes, ((1 << n) - 1) & ~yes))
    return weights, tests


_RNG = random.Random(1906_11385)
_SCAN = _instance(_RNG, _N_SCAN, _M_SCAN)
_MEMO = _instance(_RNG, _N_MEMO, _M_MEMO)


def _mask_num(weights, mask: int) -> int:
    total = 0
    while mask:
        low = mask & -mask
        total += weights[low.bit_length() - 1]
        mask ^= low
    return total


def _scan(weights, tests, smask: int) -> int:
    best_j, best = -1, None
    for j, masks in enumerate(tests):
        worst = None
        for am in masks:
            pm = smask & am
            if pm == smask:
                worst = None
                break
            if pm:
                num = _mask_num(weights, pm)
                if worst is None or num > worst:
                    worst = num
        if worst is not None and (best is None or worst < best):
            best_j, best = j, worst
    return best_j


def _solve(weights, tests, memo, mask: int, b: int) -> int:
    if b == 0 or mask.bit_count() <= 1:
        return 0
    hit = memo.get((mask, b))
    if hit is not None:
        return hit
    here = _mask_num(weights, mask)
    best = None
    for masks in tests:
        parts = [mask & am for am in masks if mask & am]
        if len(parts) <= 1:
            continue
        total = here
        for pm in parts:
            total += _solve(weights, tests, memo, pm, b - 1)
            if best is not None and total >= best:
                break
        if best is None or total < best:
            best = total
    memo[(mask, b)] = best or 0
    return best or 0


def kernel() -> int:
    """Run the fixed work once; return its checksum."""
    weights, tests = _SCAN
    full = (1 << _N_SCAN) - 1
    check = 0
    for r in range(3):
        check = check * 31 + _scan(weights, tests, full >> r)
    weights, tests = _MEMO
    check = check * 31 + _solve(weights, tests, {}, (1 << _N_MEMO) - 1, 3)
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(weights[i % _N_MEMO], i)
    return check * 31 + total.numerator % 1_000_003
