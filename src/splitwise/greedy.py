"""Greedy decision-tree construction.

At each node the greedy rule picks the test whose worst (heaviest) answer
part is lightest; ties go to the smallest test index.  The majority answer
k+ of a split is the heaviest nonempty part, ties toward the LARGEST answer
index; the minority mass p^-(v) = p(v) - p(v+) is the quantity the chain
analysis tracks down the tree.

`majority_parts` is the split by its definition, for the analysis that
needs k+ and the part masks: every part `DTInstance.split` lists is weighed
by `DTInstance.mask_num`, which adds raw weights in ascending hypothesis
order from the mode's zero (count times the common weight on uniform
instances).  That is the one order a set is weighed in.

Every entry refuses at once the weights `require_solvable` refuses, and
scans for pairs that no test separates only at a set that no test splits,
naming the instance's first: a valid instance is never scanned.

The greedy choice itself needs only each test's max part.  A tree over a
root of PACKED_ROOT_MIN or more members, on an instance with non-uniform
weights and K <= 255, weighs its sets of
PACKED_SET_MIN or more members on the packed route; every other set is
weighed by `_greedy_split`.  Below about 128 root members the codes cost
more to build than the route saves (measured on skew and two-tier trees).
Below 6 members `_greedy_split`'s lower-bound stop (below) does not fire
early: on the four skewed-greedy trees of perfbench seed 1 (32 to 47
tests each) it weighs, per set of 3, 4 and 5 members, 12.2, 19.0 and 21.7
tests at K=2 and 2.9, 14.8 and 24.1 at K=3.  Yet packing those sets too,
with a PACKED_SET_MIN of 3, built the same trees no faster.

The packed route.  Each root member i has one int code of m*(K-1) + 1
fields of 32 bits: field (answer a, test j), a in 2..K, holds x_i when
test j gives i answer a and 0 otherwise, and the top field holds x_i.
x_i is the raw numerator, shifted right when the root's sum needs more
than 30 bits (exact mode), or floor(w_i * 2**Q), with Q such that the
root's sum stays below 2**30 (float mode).  No field of a sum of member codes
can carry into the next, so one C-level `sum` over a set's members gives,
exactly, every part's sum of x in every test, and the set's own in the
top field; answer 1's part is the set's less the others.
Each test's largest part a_j is then the max of its fields.
  - Unshifted exact codes are the raw numerators: the first test with the
    least a_j is the greedy choice.
  - Otherwise a_j may be off from the test's max part weight, in units of
    the codes, by truncation, under 1 per member, plus float rounding.  An
    ascending float sum of c non-negative terms rounds by at most about
    c * 2**-53 of its value, and a set weighs below X_S + |S| units, so
    every test whose true max part is least keeps a_j <= min(a) + D, with
    D = |S| + ceil(|S| * 2**-51 * (X_S + |S|)), twice what two rounded
    parts need.  A single test within the margin is the choice; several
    are weighed in full by `_member_weigher` through `_settle`.
A test that does not split a set has the whole set as its largest part,
a_j = X_S.  When min(a) + D reaches X_S such a test is in reach (zero or
truncated-to-zero weights), and the set is weighed by `_greedy_split`
instead.  A packed set hands its children the tests with a_j < X_S (every
test, when some member's x is 0), which are the tests that split it.

The codes are many small ints made and freed within one build, and they
raise the op's peak RSS beyond their own size, since the allocator keeps
the pages they leave.  So they are never all alive at once: the root's
sum is taken over codes made a chunk at a time and dropped, and each
child of the root makes the codes of its own members when `grow` reaches
it, in place of the previous child's.  `grow` drops the rule before it
indexes the tree, so the last codes are gone before the tree's records
are made.  On skewed-greedy, one set of codes kept for the whole build ran
about 8% faster but read 0.19 MB more peak RSS than greedy without codes;
this form reads 0.12 MB more.  A packed set's member list is made once, at
the root, and carried down: when the rule picks a set's test it cuts the
set's list by that test's answers, a C-level pass per answer, and files
each part of PACKED_SET_MIN or more members in `pending` under its lowest
member, where the part pops it; only a set found in no list, the root,
walks the bits of its mask.  `grow` visits a set's parts before any other
set, so `pending` holds only the parts on the walk's frontier, disjoint
sets of at most the root's members in all, and it ends empty.

`_greedy_split` takes, for a set of two members, the first test whose row
tells them apart: every test that splits a pair gives the same two parts.
Any other set's tests it weighs in ascending order, and the first whose max
part equals a lower bound on every test's max part is chosen: it is
optimal, and no earlier test tied it.  On a uniform set of s members the
bound is ceil(s/K) members' weight.  On a weighted set it is the largest
member weight: the part holding that member sums to at least it, since
adding a non-negative float never rounds below an addend.  The stop only
skips work.  A weighed test's max part is `_uniform_weigher`'s count times
the common weight, or `_member_weigher`'s one scan over the set's members,
the one fast copy of `mask_num`'s sum; tests pin both to `majority_parts`
bit for bit, so float trees keep every bit of its sums.
"""

from __future__ import annotations

import math
from itertools import compress, repeat
from operator import ge, gt, sub
from struct import Struct

from .errors import ParameterError, StructureError
from .instance import DTInstance, SetLike, iter_bits, require_solvable
from .tree import DecisionTree, grow

# the packed route's thresholds (module docstring): the fewest members of a
# packed set and of a packed tree's root, and the most 32-bit fields, 8 MB,
# that the codes of one root may hold
PACKED_SET_MIN = 6
PACKED_ROOT_MIN = 128
PACKED_FIELDS_MAX = 1 << 21
# members whose codes are made from one buffer (`_codes`)
_CODE_CHUNK = 256
# 2**51 - 1, for the ceiling of the float rounding term of the margin
_ULP_ROUND = (1 << 51) - 1


def majority_parts(inst: DTInstance, smask: int, tests=None) -> list[tuple]:
    """The split of the set `smask` by each test (1..m, or those in `tests`).

    One entry per test, in order: (k+, majority part mask, majority part
    weight in raw numerator units, `DTInstance.mask_num`).  The majority
    part is the heaviest nonempty part, ties to the largest answer.  A test
    that does not split smask (one answer holds all of it) has the whole set
    as its majority part and weight None.
    """
    if tests is None:
        tests = range(1, inst.m + 1)
    split, mask_num = inst.split, inst.mask_num
    out = []
    for j in tests:
        best = None
        for a, pm in split(smask, j):
            num = None if pm == smask else mask_num(pm)     # whole set: no split
            if best is None or num >= best[2]:
                best = (a, pm, num)
        out.append(best or (1, smask, None))    # the empty set has no part
    return out


def _greedy_split(inst: DTInstance, smask: int, tests) -> tuple[int, list[int]]:
    """(the greedy test at smask among `tests`, the tests to weigh its parts
    with).  `tests` must be ascending so that ties go to the smallest index.

    The list holds, ascending, every weighed test that splits smask except
    the chosen one, and every test the lower-bound stop left unweighed.
    """
    count = smask.bit_count()
    if count == 2:
        # every test that splits a pair parts it into the same two
        # singletons, so whatever the weights, the first such test is the
        # choice; with none, the weighing below finds no split
        low = smask & -smask
        a, b = low.bit_length() - 1, smask.bit_length() - 1
        rows = inst.tests
        for pos, j in enumerate(tests):
            row = rows[j - 1]
            if row[a] != row[b]:
                return j, tests[pos + 1:]
    wn = inst._wnum
    if inst._uniform:
        choice = _settle(tests, _uniform_weigher(inst, smask, count),
                         -(-count // inst.k) * wn[0])
    else:
        members = list(iter_bits(smask))
        choice = _settle(tests, _member_weigher(inst, smask, members),
                         max(map(wn.__getitem__, members)))
    if choice is None:      # two members that no test separates
        require_solvable(inst)
    return choice


def _settle(tests, weigh, lb):
    """The greedy choice among `tests` by `weigh(j)`, a test's max part in raw
    numerator units or None when j does not split the set, as
    `_greedy_split` returns it; None when no test splits the set.

    `lb` is a lower bound on every test's max part.  The first test that
    reaches it is optimal and wins the tie rule, so the tests after it are
    not weighed.
    """
    best_j = 0
    best_num = None
    splitting = []
    for pos, j in enumerate(tests):
        num = weigh(j)
        if num is None:
            continue
        if best_num is None or num < best_num:
            if num == lb:
                splitting.extend(tests[pos + 1:])
                return j, splitting
            best_j, best_num = j, num
        splitting.append(j)
    if best_j == 0:
        return None
    splitting.remove(best_j)
    return best_j, splitting


def _uniform_weigher(inst: DTInstance, smask: int, count: int):
    """The largest part's member count times the common weight, the product
    `majority_parts` takes for that part.  A hot-path copy of
    `DTInstance.split`'s loop over answers: a call per test slows greedy."""
    answer_masks = inst._answer_masks
    w = inst._wnum[0]

    def weigh(j):
        big = 0
        for am in answer_masks[j - 1]:
            c = (smask & am).bit_count()
            if c == count:
                return None
            if c > big:
                big = c
        return big * w
    return weigh


def _member_weigher(inst: DTInstance, smask: int, members: list[int]):
    """The max part weight, every part summed in one scan over `members`:
    the fast copy of `DTInstance.mask_num`'s ascending sum from the mode's
    zero.  An empty part weighs zero, never above a nonempty part here.  A
    hot-path copy of `DTInstance.split`'s loop over answers, as above."""
    answer_masks = inst._answer_masks
    rows = inst.tests
    wn = inst._wnum
    zero = 0 if inst.exact else 0.0

    def weigh(j):
        masks = answer_masks[j - 1]
        for am in masks:
            if pm := smask & am:
                if pm == smask:
                    return None
                break
        nums = [zero] * (len(masks) + 1)    # by answer, up to the row's largest
        row = rows[j - 1]
        for i in members:
            nums[row[i]] += wn[i]
        return max(nums)
    return weigh


def greedy_choice(inst: DTInstance, S: SetLike) -> int:
    """The greedy test at S: argmin over splitting tests of the max part
    weight, smallest index on ties."""
    if not inst._nonnegative:
        require_solvable(inst)
    smask = inst.as_mask(S)
    if smask.bit_count() < 2:
        raise ParameterError("greedy choice needs at least two hypotheses")
    return _greedy_split(inst, smask, range(1, inst.m + 1))[0]


def build_greedy_node(inst: DTInstance, smask: int) -> DecisionTree:
    """Greedy subtree over a raw bitmask: `grow` with the greedy split as its
    rule (`_greedy_rule`).  No reference to the rule is kept here, so that
    `grow` frees it, and its packed codes, before it indexes the tree.

    The rule's context is the list of tests a set is weighed with: the
    tests that split its parent, less the parent's own test, since a test
    that does not split a set splits none of its subsets, plus the tests the
    parent's lower-bound stop left unweighed.  Those may not split the set,
    and are skipped when they do not, so the context changes only the work,
    never the choice.
    """
    if not inst._nonnegative:
        require_solvable(inst)
    return grow(inst, smask, _greedy_rule(inst, smask), range(1, inst.m + 1))


def _greedy_rule(inst: DTInstance, root: int):
    """The greedy split rule for `grow` over the set `root`: the packed
    route (module docstring) where it applies, `_greedy_split` elsewhere."""
    packing = _packing(inst, root)
    if packing is None:
        def rule(s: int, tests):
            return None if s.bit_count() == 1 else _greedy_split(inst, s, tests)
        return rule

    shift, exact_sums, zero_x = packing
    m, wn, rows = inst.m, inst._wnum, inst.tests
    every = range(1, m + 1)
    fields = m * (inst.k - 1)
    nbytes = 4 * (fields + 1)
    unpack = Struct(f"<{fields + 1}I").unpack
    blocks = [slice(t * m, t * m + m) for t in range(inst.k - 1)]
    ones = [bytes(b == a for b in range(256)) for a in range(inst.k + 1)]
    codes = {}          # member -> code, over the root's child being grown
    pending = {}        # lowest member -> members, of each part not yet grown

    def rule(s: int, tests):
        nonlocal codes
        count = s.bit_count()
        if count < PACKED_SET_MIN:
            return None if count == 1 else _greedy_split(inst, s, tests)
        members = pending.pop((s & -s).bit_length() - 1, None)
        if members is None:
            members = list(iter_bits(s))
        if s == root:
            code_sum = sum(_codes(inst, members, shift))
        else:
            if members[0] not in codes:     # a child of the root
                codes = dict(zip(members, _codes(inst, members, shift)))
            code_sum = sum(map(codes.__getitem__, members))
        f = unpack(code_sum.to_bytes(nbytes, "little"))
        total = f[fields]
        rest = repeat(total)
        for b in blocks:
            rest = map(sub, rest, f[b])
        big = list(map(max, rest, *(f[b] for b in blocks)))
        lo = min(big, default=total)
        margin = 0 if exact_sums else count + (     # D, module docstring
            (count * (total + count) + _ULP_ROUND) >> 51)
        if lo + margin >= total:        # a test that does not split s in reach
            test, tests = _greedy_split(inst, s, tests)
        else:
            if not margin:
                test = big.index(lo) + 1
            else:
                near = list(compress(every, map(ge, repeat(lo + margin), big)))
                if len(near) == 1:
                    test = near[0]
                else:
                    test = _settle(near, _member_weigher(inst, s, members),
                                   max(map(wn.__getitem__, members)))[0]
            tests = list(compress(every, map(gt, repeat(total + zero_x), big)))
            tests.remove(test)
        # the parts that are packed sets too keep their members
        answers = bytes(map(rows[test - 1].__getitem__, members))
        for a in range(1, len(inst._answer_masks[test - 1]) + 1):
            if answers.count(a) >= PACKED_SET_MIN:
                part = list(compress(members, answers.translate(ones[a])))
                pending[part[0]] = part
        return test, tests
    return rule


def _packing(inst: DTInstance, root: int):
    """(shift, exact_sums, zero_x) of the packed route over `root`,
    or None when the route does not apply.  A member's x is its raw
    numerator shifted right by `shift` (exact mode) or its weight times
    2**shift, floored (float mode); exact_sums says no shift was needed;
    zero_x is 1 when some member's x is 0, so that a test whose largest
    part is the whole set may still split it."""
    m, k = inst.m, inst.k
    count = root.bit_count()
    if (inst._uniform or k > 255 or count < PACKED_ROOT_MIN
            or count * (m * (k - 1) + 1) > PACKED_FIELDS_MAX):
        return None
    members = range(count) if count == inst.n else list(iter_bits(root))
    wn = inst._wnum
    low = min(map(wn.__getitem__, members))
    if inst.exact:
        bits = sum(map(wn.__getitem__, members)).bit_length()
        shift = max(bits - 30, 0)
        return shift, not shift, int(not low >> shift)
    total = math.fsum(map(wn.__getitem__, members))
    if not total * count < math.inf:    # a float part sum could overflow
        return None
    shift = 29 - math.frexp(total)[1]
    return shift, False, int(not int(math.ldexp(low, shift)))


def _codes(inst: DTInstance, members: list[int], shift: int):
    """The packed codes of `members`, in order (see `_packing`).  Each
    member's indicator fields, 1 where it gives the field's answer, are laid
    out 4 * (m*(K-1) + 1) bytes a member in a buffer written a row at
    a time, for _CODE_CHUNK members at once: a buffer for a whole root
    would raise the op's peak RSS."""
    m, k, wn = inst.m, inst.k, inst._wnum
    if inst.exact:
        xs = (wn[i] >> shift for i in members)
    else:
        xs = (int(math.ldexp(wn[i], shift)) for i in members)
    if len(members) == inst.n:
        rows = [bytes(row) for row in inst.tests]
    else:
        rows = [bytes(map(row.__getitem__, members)) for row in inst.tests]
    stride = 4 * (m * (k - 1) + 1)
    ones = [bytes(b == a for b in range(256)) for a in range(2, k + 1)]
    for lo in range(0, len(members), _CODE_CHUNK):
        buf = bytearray(stride * min(_CODE_CHUNK, len(members) - lo))
        buf[stride - 4::stride] = b"\1" * (len(buf) // stride)
        for j, row in enumerate(rows):
            part = row[lo:lo + _CODE_CHUNK]
            for t, one in enumerate(ones):
                buf[4 * (t * m + j)::stride] = part.translate(one)
        for at in range(0, len(buf), stride):
            yield int.from_bytes(buf[at:at + stride], "little") * next(xs)


def build_greedy_tree(inst: DTInstance) -> DecisionTree:
    """T_G: complete, greedy at every interior node, deterministic."""
    return build_greedy_node(inst, inst.full_mask)


# ----------------------------------------------------------------------------
# the heavy hypothesis used by the chain analysis
# ----------------------------------------------------------------------------

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
