"""Weighted decision-tree problem instances.

An instance carries n hypotheses (1-based ids), a weight per hypothesis, and m
tests; test j assigns each hypothesis an answer in 1..K.  Hypothesis sets are
plain bitmasks keyed to the instance's own indices: bit (h-1) set means
hypothesis h is in the set.  All hot-path arithmetic runs on an integer
numerator vector over a common denominator (exact mode) or on floats (float
mode), chosen once at construction time.

This module alone decides the number mode.  `coerce_weights` is the one rule
(any float weight means float mode, otherwise every weight is a Fraction) and
both `DTInstance` and `mssc.MsscInstance` apply it.  Callers start sums at
the instance's typed `zero`, turn raw numerator sums into weights with
`num_to_weight`, bring outside scalars into the mode with `as_number`, and
let arithmetic keep the operands' type.  Only where the two modes must work
differently do they read `.exact`: greedy's numerator zero, packed weight
codes and two-heavy check, exact search's budget-2 shortcut and pruning
margin, and the rounding audit's tolerances.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Iterable, Iterator, Sequence, Union

from .errors import FormatError, InvalidInstanceError, ParameterError

Number = Union[Fraction, float]

FLOAT_SUM_TOL = 1e-9
REL_TOL = 1e-9


# ----------------------------------------------------------------------------
# number parsing / rendering
# ----------------------------------------------------------------------------

def parse_number(token: str, *, exact: bool = True) -> Number:
    """Parse `p/q`, integer, or decimal tokens; exact mode yields Fractions.
    `_` and non-ASCII characters are refused, as in `content_lines`."""
    token = token.strip()
    try:
        if not token.isascii() or "_" in token:
            raise ValueError("'_' or a non-ASCII character")
        if exact:
            return Fraction(token)
        if "/" in token:
            return float(Fraction(token))
        return float(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad number {token!r}: {exc}") from exc


def format_number(x: Number, as_float: bool = False) -> str:
    """Render a weight/cost so that parsing it back is lossless; `as_float`
    prints a Fraction as the float it rounds to (the float-mode display)."""
    if isinstance(x, Fraction):
        if as_float:
            return repr(float(x))
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    if isinstance(x, int):
        return str(x)
    return repr(float(x))


def close(a, b) -> bool:
    """Equality for identities: exact on two Fractions, else within REL_TOL
    (float-mode identities can't expect bit-exact equality)."""
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a == b
    x, y = float(a), float(b)
    return abs(x - y) <= REL_TOL * max(1.0, abs(x), abs(y))


def left_sum(xs: Iterable, start):
    """start + x1 + x2 + ..., added left to right.  The builtin `sum()` adds
    floats with compensation from Python 3.12, so float sums, and every
    float printed from them, would depend on the interpreter."""
    return reduce(operator.add, xs, start)


def bit_sum(values: Sequence, mask: int, start):
    """start + the values at the set bits of `mask`, added in ascending bit
    order: the one order every set weight is summed in."""
    total = start
    while mask:
        low = mask & -mask
        total += values[low.bit_length() - 1]
        mask ^= low
    return total


def content_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) for each non-blank, non-`#` line of a text
    document.  int(), Fraction() and float() also read `_` and non-ASCII
    digits, so a line holding either raises FormatError naming its line number."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            if not line.isascii() or "_" in line:
                raise FormatError(f"line {lineno}: '_' or a non-ASCII character")
            yield lineno, line


def json_int(value, what: str) -> int:
    """The one rule for an integer read from a JSON document: a JSON integer,
    which Python reads as an int that is not a bool.  Floats, bools and
    strings raise FormatError naming `what`; they are never truncated or
    parsed."""
    if type(value) is not int:
        raise FormatError(f"{what} must be an integer, got {value!r}")
    return value


def log2(x: Number) -> float:
    """log2 that survives Fractions far outside float range."""
    if isinstance(x, Fraction):
        return math.log2(x.numerator) - math.log2(x.denominator)
    return math.log2(x)


def ln(x: Number) -> float:
    """Natural log that survives Fractions far outside float range."""
    if isinstance(x, Fraction):
        return math.log(x.numerator) - math.log(x.denominator)
    return math.log(x)


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of `mask` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(members: Iterable[int]) -> int:
    """Bitmask from 1-based hypothesis ids."""
    mask = 0
    for h in members:
        if h < 1:
            raise ParameterError(f"hypothesis ids are 1-based, got {h}")
        mask |= 1 << (h - 1)
    return mask


def members_of(mask: int) -> tuple[int, ...]:
    """1-based hypothesis ids of a bitmask, ascending."""
    return tuple(b + 1 for b in iter_bits(mask))


SetLike = Union[int, Iterable[int], None]


def _answer(a) -> int:
    """int(a) for one answer, given as a number or a token.  int() refuses
    a non-integer token; a number that int() would truncate (2.7) is
    refused here."""
    i = int(a)
    if i != a and not isinstance(a, (str, bytes, bytearray)):
        raise ValueError(f"answer {a!r} is not an integer")
    return i


# '0'..'9' to the answers 0..9, for the single-digit rows of `from_text`,
# and back, for those of `to_text`
_DIGIT_ANSWERS = bytes.maketrans(b"0123456789", bytes(range(10)))
_ANSWER_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")
# the answers a byte can hold; a prefix is the range check of `_row_masks`
_ANSWER_BYTES = bytes(range(1, 256))


def _answer_row(row) -> tuple[int, ...]:
    """A test row as its tuple of int answers.  A row that is not a list
    is read once, into a tuple, so a one-shot iterator reads like a list.
    Bytes, every row `from_text` cuts from a single-digit line, are their
    answers; ints in 0..255, every row the generators make at K <= 255,
    are read by bytes() with no Python call per answer.  Any other row,
    tokens or answers outside 0..255, is read by `_answer`, one call per
    answer."""
    if type(row) is bytes:
        return tuple(row)
    if type(row) is not list:
        row = tuple(row)
    try:
        return tuple(bytes(row))
    except (TypeError, ValueError):     # a non-int, or one outside 0..255
        return tuple(map(_answer, row))


def _row_masks(row: tuple[int, ...], k: int) -> tuple[int, ...] | None:
    """The answer masks of a row, indexed by answer-1 and ending at its
    largest answer, or None when an answer lies outside 1..k or above
    sys.maxunicode.  The mask of an answer the row lacks is 0.

    A row of answers in 0..255, every row at K <= 255, is read as bytes,
    each step one C pass: deleting the bytes 1..min(k, 255) leaves nothing
    when every answer is in range, and the answer-a mask is the row, last
    hypothesis first, translated by a table of '1' at index a and '0' at
    every other, and read in base 2.  Leading zeros are stripped first,
    since int() sizes its result by the length of the string.  No set of
    its answers is built: a throwaway set per row cost exact-search about
    0.12 MB of peak RSS.  Any other row sets each hypothesis's bit in its
    answer's mask in one pass."""
    try:
        backward = bytes(row)[::-1]
    except ValueError:                      # an answer outside 0..255
        hi = max(row)
        if min(row) < 1 or hi > min(k, sys.maxunicode):
            return None
        masks = [0] * hi
        for i, a in enumerate(row):
            masks[a - 1] |= 1 << i
        return tuple(masks)
    top = max(min(k, 255), 0)
    if backward.translate(None, _ANSWER_BYTES[:top]):
        return None
    hi = top
    while hi not in backward:               # some answer lies in 1..top
        hi -= 1
    return tuple(int(backward.translate(b"0" * a + b"1" + b"0" * (255 - a)).lstrip(b"0"), 2)
                 if a in backward else 0 for a in range(1, hi + 1))


def coerce_weights(
        weights: Iterable[Number]) -> tuple[tuple[Number, ...], bool, Number]:
    """The number-mode rule: any float weight puts the whole vector in float
    mode, otherwise every weight becomes a Fraction.  Returns the coerced
    weight tuple, whether the mode is exact, and the mode's typed zero."""
    ws = tuple(weights)
    if any(isinstance(w, float) for w in ws):
        return tuple(float(w) for w in ws), False, 0.0
    ws = tuple(w if isinstance(w, Fraction) else Fraction(w) for w in ws)
    return ws, True, Fraction(0)


# ----------------------------------------------------------------------------
# instances
# ----------------------------------------------------------------------------

class DTInstance:
    """Immutable decision-tree instance.

    `exact` is inferred from the weight types by `coerce_weights`, and `zero`
    is that mode's typed zero (Fraction(0) or 0.0).  `norm` is the total mass
    of the weights, 1 on a valid instance.
    """

    __slots__ = (
        "n", "m", "k", "weights", "tests", "exact", "zero", "norm",
        "_wnum", "_wden", "_answer_masks", "_uniform", "_full_mask",
        "_nonnegative",
    )

    def __init__(
        self,
        weights: Sequence[Number],
        tests: Sequence[Sequence[int]],
        k: int | None = None,
    ):
        ws, exact, zero = coerce_weights(weights)
        if not ws:
            raise ParameterError("instance needs at least one hypothesis")
        n = len(ws)

        # Each row is read into its answer tuple (`_answer_row`), and every
        # row is read before any is checked, so that a non-integer answer
        # anywhere is named first.  int() refuses a token with ValueError
        # and an answer such as a list with TypeError.
        rows = []
        for j, row in enumerate(tests, start=1):
            try:
                rows.append(_answer_row(row))
            except (TypeError, ValueError) as exc:
                raise ParameterError(f"test {j}: non-integer answer") from exc
        rows = tuple(rows)
        if k is None:
            k = max((max(row) for row in rows if row), default=2)
            k = max(k, 2)
        k = int(k)

        # The checks and the masks (`_row_masks`) come in a second pass,
        # from the tuples: making the masks as the rows are read cost
        # exact-search about 0.25 MB of peak RSS.
        amasks = []
        for j, row in enumerate(rows, start=1):
            if len(row) != n:
                raise ParameterError(f"test {j} has {len(row)} answers, expected {n}")
            masks = _row_masks(row, k)
            if masks is None:
                a = next((a for a in row if not 1 <= a <= k), None)
                if a is None:   # bounds the length of the row's mask tuple
                    raise ParameterError(f"test {j}: answer {max(row)} above {sys.maxunicode}")
                raise ParameterError(f"test {j}: answer {a} outside 1..{k}")
            amasks.append(masks)
        if k > sys.maxunicode:  # bounds the tables sized by K: exact's Huffman padding
            raise ParameterError(f"K={k} above {sys.maxunicode}")

        self.n = n
        self.m = len(rows)
        self.k = k
        self.weights = ws
        self.tests = rows
        self.exact = exact
        self.zero = zero
        self._full_mask = (1 << n) - 1

        if exact:
            den = 1
            for w in ws:
                den = den * w.denominator // math.gcd(den, w.denominator)
            self._wden = den
            self._wnum = tuple(int(w.numerator * (den // w.denominator)) for w in ws)
        else:
            self._wden = None
            self._wnum = ws
        # on the numerators, not one Fraction.__eq__ per weight; `==`, not
        # tuple.count, so that a NaN never makes an instance uniform
        w0 = self._wnum[0]
        self._uniform = all(w == w0 for w in self._wnum)
        self.norm = self.num_to_weight(left_sum(self._wnum, 0))
        # every weight finite and >= 0: the weights part of `require_solvable`
        self._nonnegative = all(0 <= w < math.inf for w in self._wnum)
        self._answer_masks = tuple(amasks)

    # -- hypothesis sets ------------------------------------------------

    @property
    def full_mask(self) -> int:
        return self._full_mask

    def as_mask(self, H: SetLike) -> int:
        """Normalize None / bitmask / iterable-of-ids to a bitmask."""
        if H is None:
            return self._full_mask
        if isinstance(H, int):
            if H < 0 or H >> self.n:
                raise ParameterError(f"mask {H:#x} out of range for n={self.n}")
            return H
        mask = mask_of(H)
        if mask >> self.n:
            raise ParameterError(f"member id exceeds n={self.n}")
        return mask

    def mask_num(self, mask: int):
        """Set weight in raw numerator units (int in exact mode, float otherwise).

        Comparisons between mask_num values of the same instance are exact in
        exact mode; this is the solvers' hot path.
        """
        wn = self._wnum
        if self._uniform:
            return mask.bit_count() * wn[0]
        return bit_sum(wn, mask, 0 if self.exact else 0.0)

    def num_to_weight(self, num) -> Number:
        """A raw numerator sum (see `mask_num`) as a weight of this mode."""
        return Fraction(num, self._wden) if self.exact else float(num)

    def as_number(self, x) -> Number:
        """A real `x` in this instance's number type: Fraction or float."""
        return Fraction(x) if self.exact else float(x)

    def mask_weight(self, mask: int) -> Number:
        return self.num_to_weight(self.mask_num(mask))

    def weight_of(self, h: int) -> Number:
        if not 1 <= h <= self.n:
            raise ParameterError(f"hypothesis {h} outside 1..{self.n}")
        return self.weights[h - 1]

    @property
    def uniform(self) -> bool:
        return self._uniform

    @property
    def p_min(self) -> Number:
        return min(self.weights)

    @property
    def p_max(self) -> Number:
        return max(self.weights)

    def weight_ratio(self) -> Number:
        """p_max / p_min; errors when some weight is zero."""
        lo = self.p_min
        if lo == 0:
            raise ParameterError("weight ratio undefined: zero minimum weight")
        return self.p_max / lo

    # -- tests ------------------------------------------------------------

    def test_row(self, j: int) -> tuple[int, ...]:
        if not 1 <= j <= self.m:
            raise ParameterError(f"test {j} outside 1..{self.m}")
        return self.tests[j - 1]

    def answer_masks(self, j: int) -> tuple[int, ...]:
        """Full-universe preimage masks of test j, indexed by answer-1 and
        ending at the row's largest answer, which may be below K."""
        if not 1 <= j <= self.m:
            raise ParameterError(f"test {j} outside 1..{self.m}")
        return self._answer_masks[j - 1]

    def answer_mask(self, j: int, a: int) -> int:
        """The hypotheses that give test j the answer a; 0 for an answer
        the row never gives."""
        masks = self.answer_masks(j)
        return masks[a - 1] if 1 <= a <= len(masks) else 0

    def split(self, mask: int, j: int) -> list[tuple[int, int]]:
        """The nonempty parts of `mask` under test j: (answer, part mask)
        pairs in ascending answer order."""
        return [(a, part) for a, am in enumerate(self.answer_masks(j), start=1)
                if (part := mask & am)]

    def answer_of(self, j: int, h: int) -> int:
        return self.test_row(j)[h - 1]

    # -- serialization -----------------------------------------------------

    def to_text(self) -> str:
        """The text document: a header line, the weights line and one line
        of answers per test.  At K <= 9 every answer is one digit, and a
        row's line is written into one buffer of 2n - 1 bytes, its digits
        at the even places and spaces at the odd, as `from_text` reads it."""
        lines = [f"{self.n} {self.m} {self.k}"]
        lines.append(" ".join(format_number(w) for w in self.weights))
        if self.k <= 9:
            line = bytearray(2 * self.n - 1)
            line[1::2] = b" " * (self.n - 1)
            for row in self.tests:
                line[0::2] = bytes(row).translate(_ANSWER_DIGITS)
                lines.append(line.decode())
        else:
            lines += [" ".join(map(str, row)) for row in self.tests]
        lines.append("")        # the closing newline, with no copy of the text
        return "\n".join(lines)

    @classmethod
    def from_text(cls, text: str, *, exact: bool = True) -> "DTInstance":
        lines = [line for _, line in content_lines(text)]
        if not lines:
            raise FormatError("empty instance document")
        head = lines[0].split()
        if len(head) != 3:
            raise FormatError(f"header must be 'n m K', got {lines[0]!r}")
        try:
            n, m, k = (int(t) for t in head)
        except ValueError as exc:
            raise FormatError(f"bad header {lines[0]!r}") from exc
        if min(n, m) < 0:
            raise FormatError(f"negative count in header {lines[0]!r}")
        if len(lines) != 2 + m:
            raise FormatError(f"expected {2 + m} content lines, found {len(lines)}")
        wtoks = lines[1].split()
        if len(wtoks) != n:
            raise FormatError(f"expected {n} weights, found {len(wtoks)}")
        weights = [parse_number(t, exact=exact) for t in wtoks]

        def rows():     # answer tokens, which __init__ converts
            for idx, line in enumerate(lines[2:], start=1):
                digits = line[::2].encode()
                if digits.isdigit() and not line[1::2].strip():
                    # one digit per token: the answers, one byte each
                    toks = digits.translate(_DIGIT_ANSWERS)
                else:
                    toks = line.split()
                if len(toks) != n:
                    raise FormatError(f"test {idx}: expected {n} answers, found {len(toks)}")
                yield toks

        try:
            return cls(weights, rows(), k)
        except ParameterError as exc:
            raise FormatError(str(exc)) from exc

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "k": self.k,
            "weights": [format_number(w) for w in self.weights],
            "tests": [list(row) for row in self.tests],
        }

    @classmethod
    def from_json_obj(cls, obj: dict, *, exact: bool = True) -> "DTInstance":
        try:
            weights = []
            for w in obj["weights"]:
                if isinstance(w, bool):
                    raise ValueError(f"weight {w!r} is not a number")
                weights.append(
                    parse_number(w, exact=exact) if isinstance(w, str)
                    else Fraction(w) if exact and not isinstance(w, float)
                    else float(w))
            tests = []
            for j, row in enumerate(obj["tests"], start=1):
                try:
                    tests.append([json_int(a, "answer") for a in row])
                except FormatError as exc:
                    raise FormatError(f"bad instance document: test {j}: "
                                      "non-integer answer") from exc
            sizes = {key: json_int(obj[key], key) for key in ("n", "m", "k")
                     if key in obj}
            for key, what, count in (("n", "weights", len(weights)),
                                     ("m", "tests", len(tests))):
                if sizes.get(key, count) != count:
                    raise ValueError(f"{key}={sizes[key]} but {count} {what}")
            return cls(weights, tests, sizes.get("k"))
        except (KeyError, TypeError, ValueError, ParameterError) as exc:
            raise FormatError(f"bad instance document: {exc}") from exc

    @classmethod
    def from_path(cls, path, *, exact: bool = True) -> "DTInstance":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc
        if text.lstrip().startswith("{"):
            try:
                obj = json.loads(text)
            except json.JSONDecodeError as exc:
                raise FormatError(f"bad JSON instance document: {exc}") from exc
            return cls.from_json_obj(obj, exact=exact)
        return cls.from_text(text, exact=exact)

    def as_float(self) -> "DTInstance":
        """Float-mode copy (identity if already float)."""
        if not self.exact:
            return self
        return DTInstance([float(w) for w in self.weights], self.tests, self.k)

    def __repr__(self) -> str:
        mode = "exact" if self.exact else "float"
        return f"DTInstance(n={self.n}, m={self.m}, K={self.k}, {mode})"


# ----------------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    problems: tuple[str, ...] = ()
    undistinguished: tuple[tuple[int, int], ...] = ()


def validate_instance(inst: DTInstance) -> ValidationReport:
    """Report-style validity check: weight normalization plus pairwise
    distinguishability.  Never raises; callers decide whether to abort."""
    problems: list[str] = []

    if inst.m < 1:
        problems.append("no tests")
    if inst.k < 2:
        problems.append(f"K={inst.k} < 2")
    problems.extend(_weight_problems(inst))

    total = inst.norm
    if inst.exact:
        if total != 1:
            problems.append(f"weights sum to {format_number(total)}, expected 1")
    elif abs(total - 1.0) > FLOAT_SUM_TOL:
        problems.append(f"weights sum to {total!r}, |sum-1| > {FLOAT_SUM_TOL}")

    pairs = tuple(undistinguished_pairs(inst, inst.full_mask))
    if pairs:
        problems.append("undistinguished hypothesis pairs: " + ", ".join(map(str, pairs)))

    return ValidationReport(ok=not problems, problems=tuple(problems),
                            undistinguished=pairs)


def undistinguished_pairs(inst: DTInstance, mask: int) -> Iterator[tuple[int, int]]:
    """Pairs (g, h), g < h, of members of `mask` that no test separates,
    sorted by h; h is paired with the latest earlier member of its class.
    The classes (equal answer columns) are the parts left after cutting
    `mask` by every test's answer masks, depth first, dropping each part
    of fewer than two members at once: at most m(K-1)+1 parts wait.
    """
    pairs, stack = [], [(mask, 0)]
    while stack:
        part, j = stack.pop()
        if j == inst.m:
            ids = members_of(part)
            pairs.extend(zip(ids, ids[1:]))
            continue
        for am in inst._answer_masks[j]:
            sub = part & am
            if sub & (sub - 1):         # two or more members
                stack.append((sub, j + 1))
    return iter(sorted(pairs, key=operator.itemgetter(1)))


def require_valid(inst: DTInstance) -> None:
    """Raise InvalidInstanceError on the first validity failure."""
    report = validate_instance(inst)
    if not report.ok:
        pair = report.undistinguished[0] if report.undistinguished else None
        raise InvalidInstanceError("; ".join(report.problems), undistinguished=pair)


def _weight_problems(inst: DTInstance) -> Iterator[str]:
    """A message for each negative or non-finite weight, in order."""
    for h, (num, w) in enumerate(zip(inst._wnum, inst.weights), start=1):
        if not 0 <= num < math.inf:     # NaN fails every comparison
            kind = "negative" if num < 0 else "non-finite"
            yield f"{kind} weight p_{h}={format_number(w)}"


def require_solvable(inst: DTInstance) -> None:
    """Every solver's input contract: raise InvalidInstanceError for the
    first negative or non-finite weight, with `validate_instance`'s message,
    else for the first pair of hypotheses that no test separates, named in
    `.undistinguished`.  Valid weights cost O(1) (`_nonnegative`)."""
    if not inst._nonnegative:
        raise InvalidInstanceError(next(_weight_problems(inst)))
    pair = next(undistinguished_pairs(inst, inst.full_mask), None)
    if pair is not None:
        raise InvalidInstanceError(
            f"hypotheses {pair[0]} and {pair[1]} are undistinguished",
            undistinguished=pair,
        )


def has_two_sided_test(inst: DTInstance) -> bool:
    """Some test puts at least two hypotheses in each of two answer classes.

    Instances failing this are degenerate for the chain analysis: every split
    anywhere peels off at most one hypothesis, all trees are isolation chains
    of equal cost, and the per-level covering bound loses its slack.  The
    level-sum audit downgrades to informational on such instances.
    """
    return any(sum(p.bit_count() >= 2 for _, p in inst.split(inst.full_mask, j)) >= 2
               for j in range(1, inst.m + 1))


# ----------------------------------------------------------------------------
# rounding
# ----------------------------------------------------------------------------

def round_weights(inst: DTInstance) -> DTInstance:
    """Clamp weights up to 1/(n-1)^2 and renormalize.

    The output satisfies min_i p'_i >= 1/(n(n-1)), and for every decision tree
    the costs under the old and new weights differ by at most 1.
    """
    n = inst.n
    if n < 2:
        raise ParameterError("rounding undefined for n < 2")
    floor = inst.as_number(Fraction(1, (n - 1) ** 2))
    clamped = [max(w, floor) for w in inst.weights]
    total = left_sum(clamped, inst.zero)
    return DTInstance([w / total for w in clamped], inst.tests, inst.k)
