"""Instance generators.

Three families:

- gen_random: seeded fixture supply for the audit batteries.  The m*n
  answers, uniform over [K] and independent, are drawn again as a whole set
  until the instance is valid.  At K <= 255 each attempt draws them as one
  block of bytes (`randrange_bytes`) and cuts it into the m test rows.  The
  draws are those of one `randrange(1, K + 1)` call per answer, so a seed's
  instance does not depend on how its answers are drawn.
- gen_grid_adversarial: a uniform-weight grid family.  Hypotheses sit in a
  c_star-column grid; alongside cheap column/row-bit tests there is a
  recursive family of row-membership (type-4) tests whose splits attract
  greedy: its first test is of type 4 (audit line grid_greedy_type4).  The
  companion grid_certificate_tree is a complete tree of cost at most
  4 * c_star, so C_OPT <= 4 * c_star.
- gen_setcover_reduction: a weighted family built from a set-cover instance.
  Each of ell blocks hides one heavy sentinel hypothesis that can only be
  isolated by solving the cover q times over, so the optimal tree cost
  brackets q * B_OPT.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, repeat
from typing import Iterator

from .errors import GenerationError, ParameterError
from .instance import DTInstance, Number, iter_bits, left_sum, validate_instance
from .tree import DecisionTree, grow

MAX_ATTEMPTS = 100

PROFILES = ("uniform", "skew", "two-tier")


# ----------------------------------------------------------------------------
# seeded random instances
# ----------------------------------------------------------------------------

def _random_weights(rng: random.Random, n: int, profile: str,
                    ratio: Number, exact: bool) -> list[Number]:
    if profile == "uniform":
        return [Fraction(1, n)] * n if exact else [1.0 / n] * n
    if profile == "skew":
        if exact:
            raws = randrange_bytes(rng, 100, n)
            total = sum(raws)
            return [Fraction(r, total) for r in raws]
        raws = [rng.expovariate(1.0) for _ in range(n)]
        total = left_sum(raws, 0)
        return [w / total for w in raws]
    # two-tier: one heavy hypothesis at ratio * the common light weight
    if ratio < 1:
        raise ParameterError("two-tier ratio must be >= 1")
    if n == 1:
        return [Fraction(1)] if exact else [1.0]
    heavy = Fraction(ratio) if exact else float(ratio)
    total = heavy + (n - 1)
    return [heavy / total] + [1 / total if exact else 1.0 / total] * (n - 1)


# the most 32-bit words one `randrange_bytes` round asks getrandbits for
_BLOCK_WORDS = 1 << 14
# K -> (translate table, bytes to delete) of `randrange_bytes`
_BYTE_TABLES: dict[int, tuple[bytes, bytes]] = {}


def randrange_bytes(rng: random.Random, K: int, count: int) -> bytes:
    """`count` draws of `rng.randrange(1, K + 1)`, K <= 255, as bytes, taken
    from `rng` exactly as that many randrange calls would take them.

    randrange draws r = getrandbits(K.bit_length()) and draws again while
    r >= K (CPython 3.10 to 3.13).  A getrandbits(k) call with k <= 32
    takes one 32-bit word of the generator and returns it shifted right by
    32 - k; for k <= 8 that is the word's top byte shifted right by 8 - k.
    getrandbits(32 * c) takes c words and returns them with the first drawn
    least significant, on either byte order, so every fourth byte of its
    little-endian bytes, from the fourth, is the top byte of one word, in
    the order drawn.  One `bytes.translate` deletes the bytes that
    randrange would reject and maps the rest to their draws.  A round asks
    for at most the draws still needed, each word giving at most one draw,
    so nothing is drawn ahead, and `rng` ends in the state the calls leave.
    """
    tables = _BYTE_TABLES.get(K)
    if tables is None:
        shift = 8 - K.bit_length()
        tables = _BYTE_TABLES[K] = (
            bytes((b >> shift) + 1 if b >> shift < K else 0 for b in range(256)),
            bytes(b for b in range(256) if b >> shift >= K))
    table, reject = tables
    out = b""
    while len(out) < count:
        c = min(count - len(out), _BLOCK_WORDS)
        words = rng.getrandbits(32 * c).to_bytes(4 * c, "little")
        out += words[3::4].translate(table, reject)
    return out


def randrange_stream(rng: random.Random, K: int) -> Iterator[int]:
    """Endless draws of `rng.randrange(1, K + 1)`, from the same stream, for
    K above 255, where `randrange_bytes` does not reach.

    randrange draws r = getrandbits(K.bit_length()) and draws again while
    r >= K (CPython 3.10 to 3.13).  This is that loop as a chain of lazy
    iterators: each value read takes from `rng` exactly what randrange
    would, and nothing is drawn ahead of the reader.
    """
    draws = map(rng.getrandbits, repeat(K.bit_length()))
    return map((1).__add__, filter(K.__gt__, draws))


def gen_random(n: int, m: int, K: int, seed: int, profile: str = "uniform",
               ratio: Number = 8, exact: bool = True) -> DTInstance:
    """Seeded random instance; same arguments always give the same instance.

    Weights follow the chosen profile; the m test answer vectors are uniform
    over [K]^n, resampled as a whole set until every hypothesis pair is
    distinguished (at most MAX_ATTEMPTS tries, then GenerationError).  At
    K <= 255 a set is drawn as one block of bytes (`randrange_bytes`), and
    its rows are bytes, which `DTInstance` reads with no Python call per
    answer.
    """
    if n < 1 or m < 1 or K < 2:
        raise ParameterError(f"need n >= 1, m >= 1, K >= 2; got {n},{m},{K}")
    if profile not in PROFILES:
        raise ParameterError(f"unknown weight profile {profile!r}")
    rng = random.Random(seed)
    weights = _random_weights(rng, n, profile, ratio, exact)
    answers = randrange_stream(rng, K)      # lazy: draws only when read
    for _ in range(MAX_ATTEMPTS):
        if K <= 255:        # one block of bytes, cut into m rows
            block = randrange_bytes(rng, K, n * m)
            tests = [block[at:at + n] for at in range(0, n * m, n)]
        else:
            tests = [list(islice(answers, n)) for _ in range(m)]
        inst = DTInstance(weights, tests, K)
        if validate_instance(inst).ok:
            return inst
    raise GenerationError(
        f"no valid instance in {MAX_ATTEMPTS} attempts for n={n} m={m} K={K} "
        f"seed={seed}; m is likely too small to separate n hypotheses")


# ----------------------------------------------------------------------------
# adversarial grid family
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class GridLayout:
    """Row-major placement of hypotheses 1..n_star on an r x c_star grid,
    with hypotheses n_star+1..n isolated off-grid, plus the recursive family
    of good row sets and the test numbering of the generated instance."""
    n: int
    c_star: int
    n_star: int
    r: int
    row_bits: int                       # type-3 bit positions are 0..row_bits
    good_sets: tuple[tuple[int, ...], ...]

    def row_of(self, h: int) -> int:
        return (h - 1) // self.c_star + 1

    def col_of(self, h: int) -> int:
        return (h - 1) % self.c_star + 1

    def on_grid(self, h: int) -> bool:
        return 1 <= h <= self.n_star

    # test indices, 1-based, in emission order
    def type1_index(self, h: int) -> int:
        if not self.n_star < h <= self.n:
            raise ParameterError(f"hypothesis {h} is not isolated")
        return h - self.n_star

    def type2_index(self, c: int) -> int:
        return (self.n - self.n_star) + c

    def type3_index(self, c: int, t: int) -> int:
        if not 0 <= t <= self.row_bits:
            raise ParameterError(f"bit {t} outside 0..{self.row_bits}")
        return ((self.n - self.n_star) + self.c_star
                + (c - 1) * (self.row_bits + 1) + t + 1)

    def type4_index(self, k: int) -> int:
        return ((self.n - self.n_star) + self.c_star
                + self.c_star * (self.row_bits + 1) + k)

    @property
    def m(self) -> int:
        return self.type4_index(len(self.good_sets))


def _good_sets(r: int, c_star: int) -> tuple[tuple[int, ...], ...]:
    """Recursive partition family over rows 1..r: the whole set is good, and
    each good set with r' > 1 rows splits into its 1 + floor(r'/c_star)
    lowest-numbered rows and the rest, both good.  The head keeps at most
    r' - 1 rows, so a split never hands back its own set (which it would at
    r' = 2, c_star = 2).  Preorder emission."""
    out: list[tuple[int, ...]] = []
    stack = [tuple(range(1, r + 1))]
    while stack:
        rows = stack.pop()
        out.append(rows)
        if len(rows) > 1:
            head = min(1 + len(rows) // c_star, len(rows) - 1)
            stack += (rows[head:], rows[:head])
    return tuple(out)


def grid_layout(n: int, c_star: int) -> GridLayout:
    # The cheap-strategy bound C_OPT <= 4*c_star needs log2(n) <= 2*c_star
    # (row search costs up to log2(n) tests); anything above that is allowed.
    if n < 16:
        raise ParameterError(f"grid family needs n >= 16, got {n}")
    if c_star != int(c_star) or not math.log2(n) <= 2 * c_star or c_star > n:
        raise ParameterError(
            f"need integer c_star with log2(n)/2 <= c_star <= n; "
            f"got c_star={c_star} for n={n}")
    c_star = int(c_star)
    n_star = (n // c_star) * c_star
    r = n_star // c_star
    return GridLayout(n, c_star, n_star, r, math.floor(math.log2(r)),
                      _good_sets(r, c_star))


def gen_grid_adversarial(n: int, c_star: int) -> DTInstance:
    """Uniform-weight grid instance.  Test order: one singleton test per
    off-grid hypothesis, then column membership per column, then per-column
    row-bit tests, then good-set row membership."""
    lay = grid_layout(n, c_star)
    rows = [lay.row_of(h) if lay.on_grid(h) else 0 for h in range(1, n + 1)]
    cols = [lay.col_of(h) if lay.on_grid(h) else 0 for h in range(1, n + 1)]
    tests: list[list[int]] = []
    for h in range(lay.n_star + 1, n + 1):
        tests.append([1 if i == h else 2 for i in range(1, n + 1)])
    for c in range(1, lay.c_star + 1):
        tests.append([1 if cols[i] == c else 2 for i in range(n)])
    for c in range(1, lay.c_star + 1):
        for t in range(lay.row_bits + 1):
            tests.append([1 if cols[i] == c and (rows[i] >> t) & 1 else 2
                          for i in range(n)])
    for good in lay.good_sets:
        members = set(good)
        tests.append([1 if rows[i] in members else 2 for i in range(n)])
    return DTInstance([Fraction(1, n)] * n, tests, 2)


def grid_certificate_tree(inst: DTInstance, lay: GridLayout) -> DecisionTree:
    """The cheap strategy the grid construction guarantees, over the grid
    instance of layout `lay`: peel the off-grid hypotheses, lowest first,
    then walk the columns, then binary-search the row within the column.
    Its cost certifies C_OPT <= 4 * c_star.  Every test comes from the
    layout, never from a search of `inst`, so the certificate is complete
    only if the instance carries the tests the layout promises."""
    def rule(s: int, _):
        if s & (s - 1) == 0:
            return None
        off = s >> lay.n_star
        if off:
            return lay.type1_index(lay.n_star + (off & -off).bit_length()), None
        members = [i + 1 for i in iter_bits(s)]
        cols = {lay.col_of(h) for h in members}
        if len(cols) > 1:
            return lay.type2_index(min(cols)), None
        rows = [lay.row_of(h) for h in members]
        # distinct rows in 1..r differ in one of the bits 0..row_bits
        t = next(t for t in range(lay.row_bits + 1)
                 if 0 < sum((x >> t) & 1 for x in rows) < len(rows))
        return lay.type3_index(cols.pop(), t), None

    return grow(inst, inst.full_mask, rule)


# ----------------------------------------------------------------------------
# set-cover reduction family
# ----------------------------------------------------------------------------

# (n0, sets, r) of the small set-cover instances that the reduction audit and
# `experiment --family reduction` both run through gen_setcover_reduction.
REDUCTION_CASES = (
    (2, (frozenset({1}), frozenset({2})), 0.25),
    (2, (frozenset({1}), frozenset({2}), frozenset({1, 2})), 0.25),
)

# the most answers (n * m) a reduction instance may hold: `--n0 2 --r 0.1`
# holds about 2.9 million, and a smaller r grows n and m exponentially
MAX_REDUCTION_ANSWERS = 2 ** 25

@dataclass(frozen=True)
class ReductionMeta:
    q: int          # cover repetitions guarding each sentinel
    ell: int        # number of blocks / sentinel hypotheses
    n: int          # hypothesis count of the emitted instance
    ratio: Fraction  # p_max / p_min = 1 + n/ell


def gen_setcover_reduction(n0: int, sets, r: float):
    """Weighted instance from a set-cover instance on elements 1..n0.

    Hypotheses are ell blocks of (q * n0 reals + 1 heavy sentinel); a
    sentinel can only be isolated by queries that, per block-slot, replay a
    full cover of [n0].  Returns (instance, ReductionMeta).  The block
    ordering puts all real hypotheses first and the ell sentinels last.
    """
    if not 0 < r < 1:
        raise ParameterError(f"ratio exponent r must lie in (0,1), got {r}")
    if n0 < 2:
        raise ParameterError("need at least two elements")
    sets = [frozenset(s) for s in sets]
    if not sets:
        raise ParameterError("need at least one set")
    for s in sets:
        if not s or not all(1 <= x <= n0 for x in s):
            raise ParameterError("sets must be nonempty subsets of 1..n0")
    covered = frozenset().union(*sets)
    if len(covered) != n0:
        missing = sorted(set(range(1, n0 + 1)) - covered)
        raise ParameterError(
            f"sets do not cover the elements; missing {missing} "
            "(uncovered elements make hypotheses indistinguishable)")

    q = math.floor(math.log2(n0) / r)
    try:
        ell = math.floor(n0 ** (1.0 / r) / (n0 * q + 1))
    except OverflowError:
        raise ParameterError(f"r={r} too small: n0^(1/r) overflows") from None
    if ell < 1:
        raise ParameterError(f"n0 too small for r: block count would be {ell}")
    n = ell * (q * n0 + 1)
    n0_bits = math.floor(math.log2(n0))
    ell_bits = math.floor(math.log2(ell))
    m = ell * q * len(sets) * (n0_bits + 2) + ell_bits + 1
    if n * m > MAX_REDUCTION_ANSWERS:
        raise ParameterError(f"r={r} asks for {n} hypotheses and {m} tests, "
                             f"above {MAX_REDUCTION_ANSWERS} answers")

    def real_index(h1: int, h2: int, h3: int) -> int:
        return ((h1 - 1) * q + (h2 - 1)) * n0 + h3

    def sentinel_index(h1: int) -> int:
        return ell * q * n0 + h1

    light = Fraction(1, 2 * n)
    weights: list[Fraction] = [light] * (ell * q * n0)
    weights += [light + Fraction(1, 2 * ell)] * ell

    # precompute each hypothesis's (h1, h2, h3); sentinels get h3 = 0
    h1s = [0] * n
    h2s = [0] * n
    h3s = [0] * n
    for h1 in range(1, ell + 1):
        for h2 in range(1, q + 1):
            for h3 in range(1, n0 + 1):
                i = real_index(h1, h2, h3) - 1
                h1s[i], h2s[i], h3s[i] = h1, h2, h3
        i = sentinel_index(h1) - 1
        h1s[i] = h1

    tests: list[list[int]] = []
    for h1 in range(1, ell + 1):
        for h2 in range(1, q + 1):
            for s in sets:
                tests.append([1 if h1s[i] == h1 and h2s[i] == h2
                              and h3s[i] in s else 2 for i in range(n)])
    for h1 in range(1, ell + 1):
        for h2 in range(1, q + 1):
            for s in sets:
                for t in range(n0_bits + 1):
                    tests.append([1 if h1s[i] == h1 and h2s[i] == h2
                                  and h3s[i] in s and (h3s[i] >> t) & 1 else 2
                                  for i in range(n)])
    for t in range(ell_bits + 1):
        tests.append([1 if (h1s[i] >> t) & 1 else 2 for i in range(n)])

    inst = DTInstance(weights, tests, 2)
    return inst, ReductionMeta(q, ell, n, 1 + Fraction(n, ell))
