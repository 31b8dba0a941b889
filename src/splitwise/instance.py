"""Weighted decision-tree problem instances.

An instance carries n hypotheses (1-based ids), a weight per hypothesis, and m
tests; test j assigns each hypothesis an answer in 1..K.  Hypothesis sets are
plain bitmasks keyed to the instance's own indices: bit (h-1) set means
hypothesis h is in the set.  All hot-path arithmetic runs on an integer
numerator vector over a common denominator (exact mode) or on floats (float
mode), chosen once at construction time.

This module alone decides the number mode.  `coerce_weights` is the one rule
(any float weight means float mode, otherwise every weight is a Fraction) and
both `DTInstance` and `mssc.MsscInstance` apply it.  Callers never branch on
the mode: they start sums at the instance's typed `zero`, turn raw numerator
sums into weights with `num_to_weight`, bring outside scalars into the mode
with `as_number`, and let arithmetic keep the operands' type.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

from .errors import FormatError, InvalidInstanceError, ParameterError

Number = Union[Fraction, float]

FLOAT_SUM_TOL = 1e-9
REL_TOL = 1e-9


# ----------------------------------------------------------------------------
# number parsing / rendering
# ----------------------------------------------------------------------------

def parse_number(token: str, *, exact: bool = True) -> Number:
    """Parse `p/q`, integer, or decimal tokens; exact mode yields Fractions."""
    token = token.strip()
    try:
        if exact:
            return Fraction(token)
        if "/" in token:
            return float(Fraction(token))
        return float(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad number {token!r}: {exc}") from exc


def format_number(x: Number) -> str:
    """Render a weight/cost so that parsing it back is lossless."""
    if isinstance(x, Fraction):
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
    (1 for a normalized root instance; the subset mass p(H) for instances
    produced by `restrict`).  `origin[i]` maps hypothesis i+1 back to its
    1-based id in the parent instance when this instance is a restriction.
    """

    __slots__ = (
        "n", "m", "k", "weights", "tests", "exact", "zero", "norm", "origin",
        "_wnum", "_wden", "_answer_masks", "_uniform", "_full_mask",
    )

    def __init__(
        self,
        weights: Sequence[Number],
        tests: Sequence[Sequence[int]],
        k: int | None = None,
        *,
        origin: tuple[int, ...] | None = None,
    ):
        ws, exact, zero = coerce_weights(weights)
        if not ws:
            raise ParameterError("instance needs at least one hypothesis")
        n = len(ws)

        rows = tuple(tuple(int(a) for a in row) for row in tests)
        if k is None:
            k = max((max(row) for row in rows if row), default=2)
            k = max(k, 2)
        k = int(k)
        for j, row in enumerate(rows, start=1):
            if len(row) != n:
                raise ParameterError(f"test {j} has {len(row)} answers, expected {n}")
            for a in row:
                if not 1 <= a <= k:
                    raise ParameterError(f"test {j}: answer {a} outside 1..{k}")

        self.n = n
        self.m = len(rows)
        self.k = k
        self.weights = ws
        self.tests = rows
        self.exact = exact
        self.zero = zero
        self.origin = origin
        self.norm = sum(ws, zero)
        self._full_mask = (1 << n) - 1
        self._uniform = all(w == ws[0] for w in ws)

        if exact:
            den = 1
            for w in ws:
                den = den * w.denominator // math.gcd(den, w.denominator)
            self._wden = den
            self._wnum = tuple(int(w.numerator * (den // w.denominator)) for w in ws)
        else:
            self._wden = None
            self._wnum = ws

        amasks = []
        for row in rows:
            per = [0] * k
            for i, a in enumerate(row):
                per[a - 1] |= 1 << i
            amasks.append(tuple(per))
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
        total = 0 if self.exact else 0.0
        while mask:
            low = mask & -mask
            total += wn[low.bit_length() - 1]
            mask ^= low
        return total

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
        """Full-universe preimage masks of test j, indexed by answer-1."""
        if not 1 <= j <= self.m:
            raise ParameterError(f"test {j} outside 1..{self.m}")
        return self._answer_masks[j - 1]

    def answer_of(self, j: int, h: int) -> int:
        return self.test_row(j)[h - 1]

    # -- serialization -----------------------------------------------------

    def to_text(self) -> str:
        lines = [f"{self.n} {self.m} {self.k}"]
        lines.append(" ".join(format_number(w) for w in self.weights))
        for row in self.tests:
            lines.append(" ".join(str(a) for a in row))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str, *, exact: bool = True) -> "DTInstance":
        lines = [ln.strip() for ln in text.splitlines()]
        lines = [ln for ln in lines if ln and not ln.startswith("#")]
        if not lines:
            raise FormatError("empty instance document")
        head = lines[0].split()
        if len(head) != 3:
            raise FormatError(f"header must be 'n m K', got {lines[0]!r}")
        try:
            n, m, k = (int(t) for t in head)
        except ValueError as exc:
            raise FormatError(f"bad header {lines[0]!r}") from exc
        if len(lines) != 2 + m:
            raise FormatError(f"expected {2 + m} content lines, found {len(lines)}")
        wtoks = lines[1].split()
        if len(wtoks) != n:
            raise FormatError(f"expected {n} weights, found {len(wtoks)}")
        weights = [parse_number(t, exact=exact) for t in wtoks]
        tests = []
        for idx in range(m):
            toks = lines[2 + idx].split()
            if len(toks) != n:
                raise FormatError(f"test {idx + 1}: expected {n} answers, found {len(toks)}")
            try:
                tests.append([int(t) for t in toks])
            except ValueError as exc:
                raise FormatError(f"test {idx + 1}: non-integer answer") from exc
        try:
            return cls(weights, tests, k)
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
            weights = [
                parse_number(w, exact=exact) if isinstance(w, str)
                else (Fraction(w) if exact and not isinstance(w, float) else float(w))
                for w in obj["weights"]
            ]
            return cls(weights, obj["tests"], obj.get("k"))
        except (KeyError, TypeError, ValueError, ParameterError) as exc:
            raise FormatError(f"bad instance document: {exc}") from exc

    @classmethod
    def from_path(cls, path, *, exact: bool = True) -> "DTInstance":
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
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
        return DTInstance(
            [float(w) for w in self.weights], self.tests, self.k, origin=self.origin
        )

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
    for h, w in enumerate(inst.weights, start=1):
        if w < 0:
            problems.append(f"negative weight p_{h}={format_number(w)}")

    total = inst.norm
    if inst.origin is None:
        if inst.exact:
            if total != 1:
                problems.append(f"weights sum to {format_number(total)}, expected 1")
        elif abs(total - 1.0) > FLOAT_SUM_TOL:
            problems.append(f"weights sum to {total!r}, |sum-1| > {FLOAT_SUM_TOL}")

    pairs = list(undistinguished_pairs(inst, inst.full_mask))
    if pairs:
        problems.append(
            "undistinguished hypothesis pairs: " + ", ".join(map(str, pairs))
        )

    return ValidationReport(ok=not problems, problems=tuple(problems),
                            undistinguished=tuple(pairs))


def undistinguished_pairs(inst: DTInstance, mask: int) -> Iterator[tuple[int, int]]:
    """Pairs (g, h), g < h, of members of `mask` that no test separates.

    Hypotheses are grouped by answer signature (two are separated by some
    test iff their answer columns differ); each member is paired with the
    latest earlier member of its group.  Lazy, so a caller that only needs
    the first pair stops there.
    """
    latest: dict[tuple[int, ...], int] = {}
    for i in iter_bits(mask):
        sig = tuple(row[i] for row in inst.tests)
        prev = latest.get(sig)
        if prev is not None:
            yield prev, i + 1
        latest[sig] = i + 1


def require_valid(inst: DTInstance) -> None:
    """Raise InvalidInstanceError on the first validity failure."""
    report = validate_instance(inst)
    if not report.ok:
        pair = report.undistinguished[0] if report.undistinguished else None
        raise InvalidInstanceError("; ".join(report.problems), undistinguished=pair)


def has_two_sided_test(inst: DTInstance) -> bool:
    """Some test puts at least two hypotheses in each of two answer classes.

    Instances failing this are degenerate for the chain analysis: every split
    anywhere peels off at most one hypothesis, all trees are isolation chains
    of equal cost, and the per-level covering bound loses its slack.  The
    level-sum audit downgrades to informational on such instances.
    """
    for j in range(1, inst.m + 1):
        big = sum(1 for am in inst.answer_masks(j) if am.bit_count() >= 2)
        if big >= 2:
            return True
    return False


# ----------------------------------------------------------------------------
# restriction and rounding
# ----------------------------------------------------------------------------

def restrict(inst: DTInstance, H: SetLike) -> DTInstance:
    """Induced sub-instance on H: hypotheses reindexed over H, test columns
    restricted; weights carried over UNNORMALIZED with `norm` = p(H) so cost
    formulas divide by the subset mass."""
    mask = inst.as_mask(H)
    if mask == 0:
        raise ParameterError("empty restriction")
    idxs = list(iter_bits(mask))
    weights = [inst.weights[i] for i in idxs]
    tests = [[row[i] for i in idxs] for row in inst.tests]
    parent_ids = tuple(i + 1 for i in idxs)
    return DTInstance(weights, tests, inst.k, origin=parent_ids)


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
    total = sum(clamped, inst.zero)
    return DTInstance([w / total for w in clamped], inst.tests, inst.k)
