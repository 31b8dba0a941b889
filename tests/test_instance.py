"""Instance container: parsing, masks, validation, rounding."""

import json
import math
import random
import re
import sys
import tracemalloc
from fractions import Fraction

import pytest

from splitwise import (
    DTInstance,
    build_greedy_tree,
    optimal_tree,
    FormatError,
    InvalidInstanceError,
    ParameterError,
    format_number,
    members_of,
    parse_number,
    round_weights,
    undistinguished_pairs,
    validate_instance,
)
from splitwise.generators import gen_grid_adversarial, gen_random
from splitwise.instance import left_sum
from conftest import random_exact_weights, random_valid_instance

FLOAT_TOL = 1e-12


def quarter_instance() -> DTInstance:
    """n=4 uniform with two perfect binary splits."""
    return DTInstance(
        [Fraction(1, 4)] * 4,
        [(1, 1, 2, 2), (1, 2, 1, 2)],
        2,
    )


# ---------------------------------------------------------------------------
# construction and basic accessors
# ---------------------------------------------------------------------------

def test_basic_properties():
    inst = quarter_instance()
    assert inst.n == 4
    assert inst.m == 2
    assert inst.k == 2
    assert inst.uniform
    assert inst.exact
    assert inst.p_min == inst.p_max == Fraction(1, 4)
    assert inst.weight_ratio() == 1
    assert inst.full_mask == 0b1111


def test_mask_round_trips():
    inst = quarter_instance()
    assert inst.as_mask([1, 3]) == 0b0101
    assert inst.as_mask(0b0101) == 0b0101
    assert members_of(inst.as_mask([2, 4])) == (2, 4)
    assert inst.mask_weight(0b0101) == Fraction(1, 2)
    assert inst.weight_of(3) == Fraction(1, 4)


def test_answer_masks_partition_everything():
    rng = random.Random(11)
    for idx in range(30):
        n = rng.randrange(2, 9)
        m = rng.randrange(1, 6)
        K = rng.choice([2, 3, 4])
        weights = random_exact_weights(rng, n)
        tests = [tuple(rng.randrange(1, K + 1) for _ in range(n)) for _ in range(m)]
        inst = DTInstance(weights, tests, K)
        for j in range(1, m + 1):
            masks = inst.answer_masks(j)
            assert len(masks) == max(inst.test_row(j))
            union = 0
            for a, am in enumerate(masks, start=1):
                assert union & am == 0, f"instance {idx}: answers of test {j} overlap"
                union |= am
                for h in range(1, n + 1):
                    if am >> (h - 1) & 1:
                        assert inst.answer_of(j, h) == a
            assert union == inst.full_mask
            assert [inst.answer_mask(j, a) for a in range(1, K + 1)] == \
                list(masks) + [0] * (K - len(masks))


def _reference_masks(rows):
    """Answer masks one entry at a time, each row's ending at its largest
    answer: bit i of mask a-1 is set when hypothesis i+1 answers a."""
    out = []
    for row in rows:
        per = [0] * max(row)
        for i, a in enumerate(row):
            per[a - 1] |= 1 << i
        out.append(tuple(per))
    return tuple(out)


def _reference_mask(row, a):
    """The mask of answer a in `row`, one entry at a time: 0 for an answer
    the row never gives."""
    return sum(1 << i for i, b in enumerate(row) if b == a)


@pytest.mark.parametrize("K", [2, 3, 300, 5000])
def test_rows_and_answer_masks_match_per_entry_reference(K):
    rng = random.Random(K)
    for n in (1, 2, 7, 64, 301):
        # under K = 300 and 5000 most answers lie above n
        rows = [[rng.randrange(1, K + 1) for _ in range(n)] for _ in range(6)]
        # answers arrive as any int-convertible values: text tokens, canonical
        # or not ("01", "+2"), integral floats and bools (True is 1)
        given = [rows[0], tuple(rows[1]), [str(a) for a in rows[2]],
                 [float(a) for a in rows[3]],
                 [f"0{a}" if i % 2 else f"+{a}" for i, a in enumerate(rows[4])],
                 [True if a == 1 else a for a in rows[5]]]
        inst = DTInstance([Fraction(1, n)] * n, given, K)
        assert inst.tests == tuple(tuple(row) for row in rows)
        assert all(type(a) is int for row in inst.tests for a in row)
        reference = _reference_masks(rows)
        assert inst._answer_masks == reference
        for j, masks in enumerate(reference, start=1):
            assert [inst.answer_mask(j, a) for a in range(1, K + 1)] == \
                list(masks) + [0] * (K - len(masks))
        assert DTInstance([Fraction(1, n)] * n, rows).k == max(2, max(map(max, rows)))


@pytest.mark.parametrize("row, k, first_bad", [
    ((1, 0, 5), 3, 0),
    ((1, 5, 0), 3, 5),
    ((2, 300, 301), 300, 301),
    ((-1, 2, 2), None, -1),
    ((1, 2 ** 70, 2), 3, 2 ** 70),
    ((2, 2 ** 70, 0), None, 0),
])
def test_out_of_range_answer_named_in_error(row, k, first_bad):
    shown_k = k if k is not None else max(2, max(row))
    message = f"test 2: answer {first_bad} outside 1..{shown_k}"
    with pytest.raises(ParameterError, match=re.escape(message)):
        DTInstance([Fraction(1, 3)] * 3, [(1, 2, 1), row], k)


@pytest.mark.parametrize("k", [0, -1, -300])
def test_declared_k_below_one_refuses_every_answer(k):
    for row in ([1, 2], [1, 300]):
        with pytest.raises(ParameterError, match=rf"^test 1: answer 1 outside 1\.\.{k}$"):
            DTInstance([Fraction(1, 2)] * 2, [row], k)


def test_answer_beyond_unicode_refused():
    """A row's mask tuple runs to its largest answer, so one above
    sys.maxunicode is refused even under a larger K."""
    big = sys.maxunicode + 1
    with pytest.raises(ParameterError, match=rf"^test 1: answer {big} above {sys.maxunicode}$"):
        DTInstance([Fraction(1, 2)] * 2, [[1, big]], big)


# answers at the edges of the row readers: one digit, one byte, the UTF-16
# surrogates, the last character, and either side of the answers there are
EDGE_ANSWERS = (0, 1, 9, 10, 255, 256, 0xD7FF, 0xD800, 0xDFFF, 0xFFFF, 0x10000,
                sys.maxunicode, -1, sys.maxunicode + 1)


def _reference_read(rows, k, n):
    """(tests, answer masks, K) of answer rows, or the error text, one
    entry at a time: the first row holding an answer that is not an int,
    then the rows in order, each its length and then its first answer
    outside 1..K, then K itself."""
    for j, row in enumerate(rows, start=1):
        if any(type(a) is not int for a in row):
            return f"test {j}: non-integer answer"
    if k is None:
        k = max([2] + [a for row in rows for a in row])
    for j, row in enumerate(rows, start=1):
        if len(row) != n:
            return f"test {j} has {len(row)} answers, expected {n}"
        bad = [a for a in row if not 1 <= a <= k]
        if bad:
            return f"test {j}: answer {bad[0]} outside 1..{k}"
        if max(row) > sys.maxunicode:
            return f"test {j}: answer {max(row)} above {sys.maxunicode}"
    if k > sys.maxunicode:
        return f"K={k} above {sys.maxunicode}"
    return tuple(map(tuple, rows)), _reference_masks(rows), k


def _edge_cases():
    """(rows, declared K) pairs: each edge answer beside 1 and 2 under K
    absent, 10 and 300, and itself as the declared K when that is 2 or
    more; all of them in one row; each alone, n = 1; an unhashable answer
    that int() refuses.  K = sys.maxunicode, whose mask tuples are 8 MB a
    row, is read once."""
    for a in EDGE_ANSWERS:
        ks = {a} if a == sys.maxunicode else {None, 10, 300, a} - {-1, 0, 1}
        for k in ks:
            yield [[1, a, 2], [a, 2, 1]], k
    yield [list(EDGE_ANSWERS), list(EDGE_ANSWERS[::-1])], None
    yield [[1, 2, 9, 3], [9, 1, 2, 0]], 9         # one digit, 0 out of range
    yield [[1, 2, 300, 3], [300, 1, 2, 0]], 300   # 0 beside an answer above 255
    for a in EDGE_ANSWERS:                         # one hypothesis
        for k in (9, 300, 0x10000):
            yield [[a], [1]], k
    yield [[2, 1], [1, [2]]], None                 # int() raises TypeError


def _read_all_ways(rows, k, n):
    """The outcome, as `_reference_read` gives it, of every reader on
    `rows`: the constructor on lists, tuples, one-shot iterators and str
    tokens, the JSON
    reader, and the text reader on the document `to_text` would write and
    on tab-separated, double-spaced, zero-padded and signed tokens.  The
    masks of a read instance also hold through `answer_mask` at every
    answer its rows give, at the edge answers and at either side of K."""
    weights = [Fraction(1, n)] * n

    def outcome(read, prefix=""):
        try:
            inst = read()
        except (ParameterError, FormatError) as exc:
            assert str(exc).startswith(prefix)
            return str(exc)[len(prefix):]
        assert all(type(a) is int for row in inst.tests for a in row)
        for j, row in enumerate(rows, start=1):
            for a in {0, 1, 2, 3, inst.k - 1, inst.k, inst.k + 1, *EDGE_ANSWERS, *row}:
                assert inst.answer_mask(j, a) == _reference_mask(row, a), (j, a)
        return inst.tests, inst._answer_masks, inst.k

    ways = {
        "list": lambda: DTInstance(weights, [list(r) for r in rows], k),
        "tuple": lambda: DTInstance(weights, [tuple(r) for r in rows], k),
        "iterator": lambda: DTInstance(weights, [iter(r) for r in rows], k),
        "str": lambda: DTInstance(weights, [list(map(str, r)) for r in rows], k),
    }
    results = {name: outcome(read) for name, read in ways.items()}
    obj = {"weights": ["1/%d" % n] * n, "tests": rows}
    if k is not None:
        obj["k"] = k
    results["json"] = outcome(lambda: DTInstance.from_json_obj(obj),
                              "bad instance document: ")
    if k is not None:
        for name, sep, token in (("text", " ", "{}"), ("tabs", "\t", "{}"),
                                 ("double spaces", "  ", "{}"),
                                 ("zero-padded", " ", "{:03d}"),
                                 ("signed", " ", "{:+d}")):
            lines = [f"{n} {len(rows)} {k}", " ".join(obj["weights"])]
            lines += [sep.join(map(token.format, r)) for r in rows]
            results[name] = outcome(
                lambda: DTInstance.from_text("\n".join(lines) + "\n"))
    return results


@pytest.mark.parametrize("rows, k", list(_edge_cases()))
def test_row_readers_match_per_entry_reference_at_edge_answers(rows, k):
    expected = _reference_read(rows, k, len(rows[0]))
    results = _read_all_ways(rows, k, len(rows[0]))
    assert results == dict.fromkeys(results, expected)


def test_one_shot_iterator_row_is_read_once():
    """A row the byte route refuses is read again, answer by answer: from
    an iterator, that second read would find it empty."""
    weights = [Fraction(1, 2)] * 2
    message = f"^test 1: answer {2 ** 40} above {sys.maxunicode}$"
    for row in ([1, 2 ** 40], iter([1, 2 ** 40]), (a for a in (1, 2 ** 40))):
        with pytest.raises(ParameterError, match=message):
            DTInstance(weights, [row], 2 ** 41)
    inst = DTInstance(weights, [iter([2, 300]), iter(["1", "2"])], 300)
    assert inst.tests == ((2, 300), (1, 2))


def test_single_digit_documents_read_no_token(monkeypatch):
    """A document of one-digit answers, every document `to_text` writes at
    K <= 9, is read without one int() per token; a K=12 document still
    reads its tokens."""
    import splitwise.instance as instance_module
    seen = []
    answer = instance_module._answer
    monkeypatch.setattr(instance_module, "_answer",
                        lambda a: seen.append(a) or answer(a))
    for inst in (gen_grid_adversarial(64, 8), gen_random(40, 12, 12, seed=3)):
        back = DTInstance.from_text(inst.to_text())
        assert back.tests == inst.tests
        assert back._answer_masks == inst._answer_masks
        assert bool(seen) == (inst.k > 9)


def test_mask_weight_equals_member_sum():
    rng = random.Random(12)
    for _ in range(50):
        n = rng.randrange(2, 10)
        weights = random_exact_weights(rng, n)
        inst = DTInstance(weights, [tuple(range(1, n + 1))], n)
        mask = rng.randrange(1, 1 << n)
        expect = sum(weights[h - 1] for h in range(1, n + 1) if mask >> (h - 1) & 1)
        assert inst.mask_weight(mask) == expect
        assert inst.num_to_weight(inst.mask_num(mask)) == expect


# ---------------------------------------------------------------------------
# text / JSON round trips
# ---------------------------------------------------------------------------

def test_text_round_trip_exact():
    inst = quarter_instance()
    text = inst.to_text()
    back = DTInstance.from_text(text)
    assert back.to_text() == text
    assert back.weights == inst.weights
    assert back.tests == inst.tests
    assert back.k == inst.k


def _random_instance(n, m, K, exact=True):
    rng = random.Random(n * K)
    rows = [[rng.randrange(1, K + 1) for _ in range(n)] for _ in range(m)]
    return DTInstance([Fraction(1, n) if exact else 1.0 / n] * n, rows, K)


@pytest.mark.parametrize("make", [
    lambda: _random_instance(40, 6, 2),
    lambda: _random_instance(40, 6, 3, exact=False),
    lambda: _random_instance(500, 4, 300),
    lambda: gen_grid_adversarial(256, 8),
    lambda: gen_random(300, 12, 3, seed=7, profile="skew"),
    lambda: gen_random(300, 12, 3, seed=7, profile="skew", exact=False),
    lambda: _random_instance(40, 6, 9),
    lambda: _random_instance(40, 6, 10),
    lambda: DTInstance([Fraction(1)], [(1,), (2,)], 2),
    lambda: DTInstance([1.0], [(12,), (3,)], 12),
], ids=["K2", "K3-float", "K300", "grid256", "skew-K3-exact", "skew-K3-float",
        "K9", "K10", "n1-K2", "n1-K12"])
def test_text_form_is_pinned_and_round_trips(make):
    """The text form is the header, the weights and one line of decimal
    answers per test, whether its rows are written digit by digit (K <= 9)
    or token by token; reading it back writes the same bytes."""
    inst = make()
    text = inst.to_text()
    lines = [f"{inst.n} {inst.m} {inst.k}",
             " ".join(format_number(w) for w in inst.weights)]
    lines += [" ".join(map(str, row)) for row in inst.tests]
    assert text == "\n".join(lines) + "\n"
    back = DTInstance.from_text(text, exact=inst.exact)
    assert back.to_text() == text
    assert back.tests == inst.tests
    assert back._answer_masks == inst._answer_masks


def test_to_text_holds_about_two_copies_of_the_document():
    """`to_text` keeps its lines and the joined document, and no third copy
    for the closing newline."""
    inst = _random_instance(2000, 50, 2)
    tracemalloc.start()
    try:
        text = inst.to_text()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.count("\n") == 52 and text.endswith("\n")
    assert peak < 2.5 * len(text)


def test_parse_memory_follows_the_rows_not_k():
    """The answer tables hold what the rows hold: a row's mask tuple ends
    at its largest answer, so rows of answers 1 and 2 cost a few bytes
    under any K, where masks padded to K cost 8 MB a row (the 36-byte
    document under K = sys.maxunicode peaked at 44.6 MB)."""
    for text in ("2 1 1000000\n1/2 1/2\n1 2\n",
                 "2 4 1114111\n1/2 1/2\n1 2\n2 1\n1 2\n2 1\n"):
        tracemalloc.start()
        try:
            inst = DTInstance.from_text(text)
            written = inst.to_text()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert written == text
        assert inst.answer_masks(1) == (0b01, 0b10)
        rng = random.Random(inst.k)
        for a in [3, 4, inst.k - 1, inst.k] + rng.sample(range(3, inst.k + 1), 200):
            assert inst.answer_mask(1, a) == 0
        assert peak < 10 ** 6, (text, peak)


def test_declared_k_above_the_largest_answer_is_refused():
    """A K above any answer a row may hold is refused, by the constructor
    and, as FormatError, by both readers."""
    big = sys.maxunicode + 1
    with pytest.raises(ParameterError, match=f"K={big} above"):
        DTInstance([Fraction(1, 2)] * 2, [[1, 2]], k=big)
    huge = 10 ** 20
    with pytest.raises(FormatError, match=f"K={huge} above"):
        DTInstance.from_text(f"2 1 {huge}\n1/2 1/2\n1 2\n")
    with pytest.raises(FormatError, match=f"K={huge} above"):
        DTInstance.from_json_obj({"k": huge, "weights": ["1/2", "1/2"],
                                  "tests": [[1, 2]]})


@pytest.mark.parametrize("answer", [2.7, 1.5, Fraction(3, 2)])
def test_numbers_that_int_would_truncate_are_refused(answer):
    with pytest.raises(ParameterError, match=r"^test 1: non-integer answer$"):
        DTInstance([Fraction(1, 2)] * 2, [[1, answer]])
    with pytest.raises(ParameterError, match=r"^test 2: non-integer answer$"):
        DTInstance([Fraction(1, 2)] * 2, [[1, 2.0], [answer, 1]], 2)


def test_text_round_trip_float():
    inst = quarter_instance().as_float()
    assert not inst.exact
    back = DTInstance.from_text(inst.to_text(), exact=False)
    assert back.weights == inst.weights


def test_json_round_trip():
    rng = random.Random(13)
    inst = random_valid_instance(rng, 6, 4, 3)
    back = DTInstance.from_json_obj(inst.to_json_obj())
    assert back.weights == inst.weights and back.tests == inst.tests


def test_from_path_reads_json_and_rejects_malformed_json(tmp_path):
    inst = quarter_instance()
    good = tmp_path / "inst.json"
    good.write_text(json.dumps(inst.to_json_obj()))
    assert DTInstance.from_path(good).to_text() == inst.to_text()
    for name, text in (
        ("broken.json", '{"n": 2, "weights": ['),
        ("answer.json", '{"weights": ["1/2", "1/2"], "tests": [[1, "x"]]}'),
        ("range.json", '{"weights": ["1/2", "1/2"], "tests": [[1, 3]], "k": 2}'),
    ):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(FormatError):
            DTInstance.from_path(path)


def test_from_text_rejects_garbage():
    with pytest.raises(FormatError):
        DTInstance.from_text("this is not an instance\n")
    with pytest.raises(FormatError):
        DTInstance.from_text("2 1 2\n1/2 1/2\n")          # missing test row
    with pytest.raises(FormatError):
        DTInstance.from_text("2 1 2\n1/2 1/2\n1 3\n")      # answer out of range


@pytest.mark.parametrize("answer", ["x", "1.5", "1/2"])
def test_non_integer_answer_named_in_error(answer):
    text = f"2 3 2\n1/2 1/2\n1 2\n2 {answer}\nq 1\n"
    with pytest.raises(FormatError, match=r"^test 2: non-integer answer$"):
        DTInstance.from_text(text)
    obj = {"weights": ["1/2", "1/2"], "tests": [[1, 2], [2, answer], ["q", 1]]}
    with pytest.raises(FormatError,
                       match=r"^bad instance document: test 2: non-integer answer$"):
        DTInstance.from_json_obj(obj)


@pytest.mark.parametrize("row", [[1, 2.7], [True, 2], [1, 2.0], [1, "2"], [1, None]])
def test_json_answers_must_be_json_integers(row):
    obj = {"weights": ["1/2", "1/2"], "tests": [row]}
    with pytest.raises(FormatError,
                       match=r"^bad instance document: test 1: non-integer answer$"):
        DTInstance.from_json_obj(obj)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("fields, message", [
    ({"n": 7, "m": 3, "k": 2.9}, "k must be an integer, got 2.9"),
    ({"k": "3"}, "k must be an integer, got '3'"),
    ({"k": True}, "k must be an integer, got True"),
    ({"n": 2.0}, "n must be an integer, got 2.0"),
    ({"n": 3, "m": 1}, "bad instance document: n=3 but 2 weights"),
    ({"n": 2, "m": 2}, "bad instance document: m=2 but 1 tests"),
    ({"weights": [True, False]}, "bad instance document: weight True is not a number"),
    ({"weights": ["1/2", False]}, "bad instance document: weight False is not a number"),
], ids=["k-float", "k-string", "k-bool", "n-float", "n-count", "m-count",
        "bool-weights", "bool-weight"])
def test_json_sizes_and_weights_follow_the_json_rules(fields, message, exact):
    obj = {"weights": ["1/2", "1/2"], "tests": [[1, 2]], **fields}
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        DTInstance.from_json_obj(obj, exact=exact)


def _split_by_rows(inst: DTInstance, mask: int, j: int) -> list[tuple[int, int]]:
    """The split by its definition, from test j's row alone: for each answer
    in turn, the members of `mask` that give it."""
    row = inst.test_row(j)
    parts = []
    for a in range(1, inst.k + 1):
        part = sum(1 << i for i in range(inst.n) if mask >> i & 1 and row[i] == a)
        if part:
            parts.append((a, part))
    return parts


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_split_matches_the_per_answer_loop(exact):
    rng = random.Random(17)
    for n, K in ((12, 2), (12, 3), (12, 40), (30, 15), (64, 32)):
        weights = [Fraction(1, n)] * n if exact else [1.0 / n] * n
        tests = [[rng.randrange(1, K + 1) for _ in range(n)] for _ in range(6)]
        tests.append([1] * n)               # splits no set
        inst = DTInstance(weights, tests, K)
        masks = [0, 1 << rng.randrange(n), inst.full_mask]
        masks += [rng.randrange(1, 1 << n) for _ in range(8)]
        for mask in masks:
            for j in range(1, inst.m + 1):
                assert inst.split(mask, j) == _split_by_rows(inst, mask, j), (n, K, mask, j)
        for bad in (0, inst.m + 1):
            with pytest.raises(ParameterError):
                inst.split(inst.full_mask, bad)


def test_left_sum_adds_left_to_right():
    # a compensated sum gives 1.0 here; a left fold loses the 1.0 to 1e16
    assert left_sum([1e16, 1.0, -1e16], 0.0) == 0.0
    assert left_sum([], Fraction(0)) == Fraction(0)
    assert left_sum([Fraction(1, 3)] * 3, Fraction(0)) == 1


def test_short_row_named_before_later_rows_are_read():
    with pytest.raises(FormatError, match=r"^test 1: expected 2 answers, found 1$"):
        DTInstance.from_text("2 2 2\n1/2 1/2\n1\nx y\n")


@pytest.mark.parametrize("text, line", [
    ("2 1 1_0\n1/2 1/2\n1 2\n", 1),               # read as K=10
    ("2 1 2\n1_0/20 1/2\n1 2\n", 2),              # read as 1/2
    ("2 1 2\n1/2 1/2\n1 \u0662\n", 3),             # Arabic-Indic two
    # fullwidth one, after a comment that may hold any character
    ("# caf\u00e9\n\n2 1 2\n1/2 1/2\n\uff11 2\n", 5),
], ids=["underscore header", "underscore weight", "arabic-indic answer",
        "fullwidth answer"])
def test_text_numbers_are_ascii_without_underscores(text, line):
    with pytest.raises(FormatError, match=rf"^line {line}: "):
        DTInstance.from_text(text)


@pytest.mark.parametrize("token", ["1_0/20", "\u0661/2", "0.\u0665"])
def test_json_weight_strings_are_ascii_without_underscores(token):
    with pytest.raises(FormatError, match="non-ASCII"):
        parse_number(token)
    obj = {"weights": [token, "1/2"], "tests": [[1, 2]]}
    for exact in (True, False):
        with pytest.raises(FormatError):
            DTInstance.from_json_obj(obj, exact=exact)


@pytest.mark.parametrize("text", ["2 -1 2\n", "-2 0 2\n1/2 1/2\n"])
def test_negative_header_count_rejected(text):
    with pytest.raises(FormatError, match="^negative count in header"):
        DTInstance.from_text(text)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_norm_is_the_left_sum_of_the_weights(exact):
    """`norm` comes from the raw numerators; it equals the left fold of the
    weights exactly, bit for bit in float mode.  Uniform float weights sum
    to 0.9999999999999999 where count x w gives 1.0."""
    rng = random.Random(29)
    for n in (1, 3, 10, 40):
        skew = [Fraction(rng.randrange(1, 50), rng.randrange(1, 50)) for _ in range(n)]
        for ws in (skew, [Fraction(1, 10)] * n, [Fraction(1, 3)] * n):
            inst = DTInstance(ws if exact else [float(w) for w in ws],
                              [tuple(range(1, n + 1))], max(n, 2))
            want = left_sum(inst.weights, inst.zero)
            assert type(inst.norm) is type(want)
            assert inst.norm == want if exact else inst.norm.hex() == want.hex()
    if not exact:
        tenths = DTInstance([0.1] * 10, [tuple(range(1, 11))], 10)
        assert tenths.norm == 0.9999999999999999
        assert tenths.mask_weight(tenths.full_mask) == 1.0


def test_number_formatting():
    assert format_number(Fraction(5, 3)) == "5/3"
    assert format_number(Fraction(4, 2)) == "2"
    assert parse_number("5/3") == Fraction(5, 3)
    assert parse_number("0.25", exact=True) == Fraction(1, 4)
    assert isinstance(parse_number("0.25", exact=False), float)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_validate_accepts_quarter_instance():
    report = validate_instance(quarter_instance())
    assert report.ok and not report.problems


def test_validate_flags_undistinguished_pair():
    inst = DTInstance([Fraction(1, 3)] * 3, [(1, 1, 2)], 2)
    report = validate_instance(inst)
    assert not report.ok
    assert report.undistinguished, "clashing pair not reported"
    assert report.undistinguished[0] == (1, 2), (
        f"expected the first clashing pair, got {report.undistinguished}"
    )


def test_undistinguished_pairs_reported_and_raised():
    # hypotheses 1, 3, 4 share one answer column; 2 and 5 share another
    inst = DTInstance([Fraction(1, 5)] * 5, [(1, 2, 1, 1, 2), (1, 1, 1, 1, 1)], 2)
    report = validate_instance(inst)
    assert report.undistinguished == ((1, 3), (3, 4), (2, 5))
    # greedy and exact search refuse the instance, naming its first pair
    for call in (lambda: build_greedy_tree(inst),
                 lambda: optimal_tree(inst, [2, 3, 4, 5]),
                 lambda: optimal_tree(inst, [1, 2])):
        with pytest.raises(InvalidInstanceError) as ei:
            call()
        assert ei.value.undistinguished == (1, 3)


@pytest.mark.parametrize("K", [2, 3, 300])
def test_undistinguished_pairs_match_tuple_signatures(K):
    """The depth-first cut gives the pairs of grouping the answer columns as
    tuples, in the same order, on empty, singleton, full and random masks;
    with no tests every pair clashes, and with few distinct columns classes
    survive every test."""
    def reference(inst, mask):
        latest, out = {}, []
        for h in members_of(mask):
            sig = tuple(row[h - 1] for row in inst.tests)
            if sig in latest:
                out.append((latest[sig], h))
            latest[sig] = h
        return out

    rng = random.Random(K)
    for n in (1, 2, 40, 200):
        for m in (0, 1, 3, 12):
            for ncols in (3, 2 * n):        # many clashes, then few
                cols = [tuple(rng.randrange(1, K + 1) for _ in range(m))
                        for _ in range(ncols)]
                picks = [rng.choice(cols) for _ in range(n)]
                rows = [[col[j] for col in picks] for j in range(m)]
                inst = DTInstance([Fraction(1, n)] * n, rows, K)
                for mask in (0, 1 << rng.randrange(n), inst.full_mask,
                             rng.randrange(1 << n)):
                    pairs = undistinguished_pairs(inst, mask)
                    assert iter(pairs) is pairs
                    assert list(pairs) == reference(inst, mask), (n, m, mask)


def test_validate_flags_bad_weight_sum():
    inst = DTInstance([Fraction(1, 2), Fraction(1, 3)], [(1, 2)], 2)
    report = validate_instance(inst)
    assert not report.ok
    assert any("sum" in p for p in report.problems)


def test_validate_flags_negative_weight():
    inst = DTInstance([Fraction(-1, 2), Fraction(3, 2)], [(1, 2)], 2)
    report = validate_instance(inst)
    assert not report.ok
    assert any("negative" in p for p in report.problems)


@pytest.mark.parametrize("h, w", [(1, math.nan), (2, math.inf)])
def test_validate_flags_non_finite_weight(h, w):
    # |nan - 1| > tol is False, so the sum check alone lets NaN through
    weights = [0.5, 0.25, 0.25]
    weights[h - 1] = w
    report = validate_instance(DTInstance(weights, [(1, 2, 2), (2, 1, 2)], 2))
    assert not report.ok
    assert f"non-finite weight p_{h}={format_number(w)}" in report.problems


def test_validate_allows_zero_weight():
    # zero mass is degenerate but legal at the container level
    inst = DTInstance([Fraction(0), Fraction(1)], [(1, 2)], 2)
    assert validate_instance(inst).ok


def test_require_valid_raises():
    from splitwise import require_valid
    with pytest.raises(InvalidInstanceError):
        require_valid(DTInstance([Fraction(1, 3)] * 3, [(1, 1, 2)], 2))


# ---------------------------------------------------------------------------
# weight rounding
# ---------------------------------------------------------------------------

class TestRounding:
    def test_frozen_three_point_case(self):
        # p = (0.98, 0.01, 0.01): the two light weights clamp to 1/(n-1)^2 = 1/4,
        # the pre-normalization total is 37/25 = 1.48.
        inst = DTInstance(
            [Fraction(49, 50), Fraction(1, 100), Fraction(1, 100)],
            [(1, 2, 2), (2, 1, 2)],
            2,
        )
        out = round_weights(inst)
        assert out.weights == (Fraction(49, 74), Fraction(25, 148), Fraction(25, 148))
        floor = Fraction(1, 3 * 2)
        assert min(out.weights) >= floor
        assert abs(float(out.weights[0]) - 0.66216) < 5e-6
        assert abs(float(out.weights[1]) - 0.16892) < 5e-6

    def test_two_point_edge_case(self):
        inst = DTInstance([Fraction(1, 2), Fraction(1, 2)], [(1, 2)], 2)
        out = round_weights(inst)
        assert out.weights == (Fraction(1, 2), Fraction(1, 2))

    def test_already_heavy_weights_pass_through_proportionally(self):
        inst = quarter_instance()
        out = round_weights(inst)
        assert out.weights == inst.weights

    def test_floor_guarantee_random(self):
        rng = random.Random(15)
        for idx in range(60):
            n = rng.randrange(2, 9)
            weights = random_exact_weights(rng, n)
            inst = DTInstance(weights, [tuple(range(1, n + 1))], n)
            out = round_weights(inst)
            assert sum(out.weights) == 1, f"case {idx}: weights no longer sum to 1"
            assert min(out.weights) >= Fraction(1, n * (n - 1)), (
                f"case {idx}: floor guarantee broken, min={min(out.weights)}"
            )

    def test_rejects_single_hypothesis(self):
        inst = DTInstance([Fraction(1)], [(1,)], 2)
        with pytest.raises(ParameterError):
            round_weights(inst)

    def test_float_mode_floor(self):
        rng = random.Random(16)
        for _ in range(20):
            n = rng.randrange(3, 8)
            raw = [rng.random() + 1e-4 for _ in range(n)]
            total = sum(raw)
            inst = DTInstance([w / total for w in raw],
                              [tuple(range(1, n + 1))], n)
            out = round_weights(inst)
            assert abs(sum(out.weights) - 1.0) < FLOAT_TOL
            assert min(out.weights) >= 1.0 / (n * (n - 1)) - FLOAT_TOL
