"""Instance generators: seeded randoms, the adversarial grid, the set-cover
reduction family."""

import hashlib
import math
import random
from itertools import islice
from fractions import Fraction

import pytest

from splitwise import (
    DTInstance,
    ExactSolver,
    GenerationError,
    ParameterError,
    StructureError,
    build_greedy_node,
    cost,
    gen_grid_adversarial,
    gen_random,
    gen_setcover_reduction,
    greedy_choice,
    grid_certificate_tree,
    grid_layout,
    is_complete,
    structural_problems,
    validate_instance,
)
from splitwise.cli import main
from splitwise.generators import (MAX_ATTEMPTS, _good_sets, randrange_bytes,
                                  randrange_stream)


# ----------------------------------------------------------------------------
# seeded random instances
# ----------------------------------------------------------------------------

def test_gen_random_deterministic_bytes():
    a = gen_random(9, 6, 3, seed=424242, profile="skew")
    b = gen_random(9, 6, 3, seed=424242, profile="skew")
    assert a.to_text() == b.to_text()
    c = gen_random(9, 6, 3, seed=424243, profile="skew")
    assert a.to_text() != c.to_text()


@pytest.mark.parametrize("K", [2, 3, 5, 8, 255, 256, 300, 1000])
def test_randrange_stream_follows_randrange(K):
    for seed in range(3):
        rng, ref = random.Random(seed), random.Random(seed)
        stream = randrange_stream(rng, K)
        for count in (1, 7, 500):
            assert list(islice(stream, count)) == \
                [ref.randrange(1, K + 1) for _ in range(count)], (seed, count)
            assert rng.getstate() == ref.getstate(), (seed, count)


@pytest.mark.parametrize("K", [2, 3, 5, 8, 100, 255])
def test_randrange_bytes_follows_randrange(K):
    # 20000 draws take more than one round of 2**14 words
    for seed in range(2):
        for count in (1, 7, 500, 20000):
            rng, ref = random.Random(seed), random.Random(seed)
            rng.random(), ref.random()      # a state away from the seed's
            got = randrange_bytes(rng, K, count)
            assert type(got) is bytes
            assert list(got) == \
                [ref.randrange(1, K + 1) for _ in range(count)], (seed, count)
            assert rng.getstate() == ref.getstate(), (seed, count)


def reference_gen_random(n, m, K, seed, profile):
    """`gen_random` as written when every answer was drawn by its own
    randrange call: (weights, rows, attempts taken)."""
    rng = random.Random(seed)
    if profile == "skew":
        raws = [Fraction(rng.randrange(1, 101)) for _ in range(n)]
        total = sum(raws)
        weights = [w / total for w in raws]
    else:
        weights = [Fraction(1, n)] * n
    for attempt in range(1, MAX_ATTEMPTS + 1):
        rows = [tuple(rng.randrange(1, K + 1) for _ in range(n))
                for _ in range(m)]
        if validate_instance(DTInstance(weights, rows, K)).ok:
            return weights, rows, attempt
    raise AssertionError("no valid instance")


@pytest.mark.parametrize("n, m, K, seed, profile, redrawn", [
    (50, 10, 3, 1, "skew", False),          # 500 answers, one round
    (1000, 24, 2, 2, "skew", False),        # 24000 answers, two rounds
    (2100, 9, 255, 3, "uniform", False),
    (12, 7, 2, 7, "uniform", True),         # attempts drawn again
    (10, 4, 3, 5, "skew", True),
    (40, 8, 256, 5, "skew", False),         # the stream route
    (30, 2, 300, 6, "uniform", False),
])
def test_gen_random_matches_per_answer_reference(n, m, K, seed, profile, redrawn):
    weights, rows, attempts = reference_gen_random(n, m, K, seed, profile)
    assert (attempts > 1) == redrawn
    inst = gen_random(n, m, K, seed, profile=profile)
    assert inst.weights == tuple(weights)
    assert inst.tests == tuple(rows)


# sha256 of `gen random --profile skew --n 4000 --m 40 --seed 1 --k K` as
# written when every answer was drawn by its own randrange call
PINNED_SKEW_4000 = {
    (2, "exact"): "51f1e2b25122847cfbf7c1fc968bc430ff4668b3f9db4b79e6a461dd54164661",
    (2, "float"): "58ba95321d973a340dc93970f64d7057b21834a0af2b4f5dcdf3c83f05e7196f",
    (3, "exact"): "2727da5209b5e7434a259066b3b5277931dfb8fcd0fd52b82f0e6daf732aff2e",
    (3, "float"): "c730f098268395a11c029f9893951350fe29ef034dda952938b5d1cbc0234806",
}


@pytest.mark.parametrize("K, mode", sorted(PINNED_SKEW_4000))
def test_gen_random_skew_document_is_pinned(K, mode, tmp_path):
    out = tmp_path / "skew.txt"
    argv = ["gen", "random", "--profile", "skew", "--n", "4000", "--m", "40",
            "--k", str(K), "--seed", "1", "--out", str(out)]
    assert main(argv + (["--float"] if mode == "float" else [])) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        PINNED_SKEW_4000[K, mode]


def test_gen_random_output_is_pinned():
    # the digest of these documents as written when every answer was drawn
    # by its own randrange call
    cases = [(40, 12, 2, 1, "uniform", True), (300, 20, 3, 2, "skew", True),
             (300, 20, 5, 3, "skew", False), (60, 10, 300, 4, "two-tier", False),
             (25, 8, 256, 5, "skew", True)]
    h = hashlib.sha256()
    for n, m, K, seed, profile, exact in cases:
        h.update(gen_random(n, m, K, seed, profile=profile, exact=exact)
                 .to_text().encode())
    assert h.hexdigest() == \
        "3f3ed4d8180bd797fbe6b54b78ef2da2f96c20db6893c51ef01ab3c06e24b76a"


def test_gen_random_always_valid():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randrange(2, 13)
        m = rng.randrange(4, 9)
        K = rng.choice([2, 3, 4])
        profile = rng.choice(["uniform", "skew", "two-tier"])
        inst = gen_random(n, m, K, seed=rng.randrange(10**6), profile=profile)
        assert validate_instance(inst).ok
        assert inst.n == n and inst.m == m and inst.k == K
        assert sum(inst.weights) == 1


def test_gen_random_profiles():
    u = gen_random(8, 5, 2, seed=1, profile="uniform")
    assert u.uniform and u.weights[0] == Fraction(1, 8)

    tt = gen_random(8, 5, 2, seed=1, profile="two-tier", ratio=8)
    assert tt.weight_ratio() == 8
    assert tt.weights[0] == 8 * tt.weights[1]
    assert len(set(tt.weights[1:])) == 1

    sk = gen_random(8, 5, 2, seed=1, profile="skew")
    assert sum(sk.weights) == 1
    assert len(set(sk.weights)) > 1

    fl = gen_random(8, 5, 2, seed=1, profile="skew", exact=False)
    assert not fl.exact
    assert abs(sum(fl.weights) - 1.0) < 1e-9


def test_gen_random_rejects_bad_arguments():
    with pytest.raises(ParameterError):
        gen_random(0, 3, 2, seed=1)
    with pytest.raises(ParameterError):
        gen_random(4, 0, 2, seed=1)
    with pytest.raises(ParameterError):
        gen_random(4, 3, 1, seed=1)
    with pytest.raises(ParameterError):
        gen_random(4, 3, 2, seed=1, profile="zipf")
    with pytest.raises(ParameterError):
        gen_random(4, 3, 2, seed=1, profile="two-tier", ratio=Fraction(1, 2))


def test_gen_random_infeasible_raises():
    # one binary test cannot distinguish 7 hypotheses, ever
    with pytest.raises(GenerationError):
        gen_random(7, 1, 2, seed=0)


# ----------------------------------------------------------------------------
# adversarial grid family
# ----------------------------------------------------------------------------

class TestGrid:
    def test_layout_frozen_16_4(self):
        lay = grid_layout(16, 4)
        assert lay.n_star == 16
        assert lay.r == 4
        assert lay.row_bits == 2
        assert lay.good_sets == ((1, 2, 3, 4), (1, 2), (1,), (2,),
                                 (3, 4), (3,), (4,))
        assert lay.m == 23
        # no off-grid hypotheses, so type-2 tests open the numbering
        assert lay.type2_index(1) == 1
        assert lay.type3_index(1, 0) == 5
        assert lay.type4_index(1) == 17
        assert lay.type4_index(7) == 23

    def test_good_sets_c_star_2(self):
        # a 2-row set splits into its two rows, never into itself
        assert _good_sets(2, 2) == ((1, 2), (1,), (2,))
        assert _good_sets(8, 2) == (
            (1, 2, 3, 4, 5, 6, 7, 8), (1, 2, 3, 4, 5), (1, 2, 3), (1, 2),
            (1,), (2,), (3,), (4, 5), (4,), (5,), (6, 7, 8), (6, 7), (6,),
            (7,), (8,))
        for r in range(1, 40):
            for c_star in (2, 3, 5):
                sets = _good_sets(r, c_star)
                assert sets[0] == tuple(range(1, r + 1))
                assert len(sets) == 2 * r - 1, (r, c_star)

    def test_grid_c_star_2(self):
        inst = gen_grid_adversarial(16, 2)
        lay = grid_layout(16, 2)
        assert inst.m == lay.m == 25
        assert validate_instance(inst).ok
        cert = grid_certificate_tree(inst, lay)
        assert is_complete(cert, inst)
        assert cost(cert, inst).total == 4 <= 4 * lay.c_star

    def test_layout_coordinates(self):
        lay = grid_layout(18, 4)
        assert lay.n_star == 16 and lay.r == 4
        assert not lay.on_grid(17) and not lay.on_grid(18)
        assert lay.type1_index(17) == 1 and lay.type1_index(18) == 2
        with pytest.raises(ParameterError):
            lay.type1_index(3)
        assert lay.row_of(1) == 1 and lay.col_of(1) == 1
        assert lay.row_of(5) == 2 and lay.col_of(5) == 1
        assert lay.row_of(8) == 2 and lay.col_of(8) == 4

    def test_layout_preconditions(self):
        with pytest.raises(ParameterError):
            grid_layout(8, 4)          # n too small
        with pytest.raises(ParameterError):
            grid_layout(64, 2)         # log2(64)=6 > 2*2
        with pytest.raises(ParameterError):
            grid_layout(16, 17)        # c_star > n
        grid_layout(64, 3)             # log2(64)=6 <= 2*3: boundary is legal
        grid_layout(16, 16)            # degenerate single-row grid

    def test_instance_frozen_16_4(self):
        inst = gen_grid_adversarial(16, 4)
        assert inst.n == 16 and inst.m == 23 and inst.k == 2
        assert inst.uniform
        assert validate_instance(inst).ok
        # column test 1 collects the first grid column
        assert inst.answer_masks(1)[0] == inst.as_mask([1, 5, 9, 13])
        # the widest row-membership test covers every row
        lay = grid_layout(16, 4)
        assert inst.answer_masks(lay.type4_index(1))[0] == inst.full_mask

    def test_greedy_takes_a_rowset_test(self):
        # the family is built so the most even first split is a type-4 test
        inst = gen_grid_adversarial(16, 4)
        lay = grid_layout(16, 4)
        first = greedy_choice(inst, inst.full_mask)
        assert lay.type4_index(1) <= first <= lay.type4_index(len(lay.good_sets))

    def test_certificate_structure_and_cost(self):
        inst = gen_grid_adversarial(16, 4)
        lay = grid_layout(16, 4)
        cert = grid_certificate_tree(inst, lay)
        assert structural_problems(cert, inst) == []
        assert is_complete(cert, inst)
        c_cert = cost(cert, inst).total
        assert c_cert == Fraction(17, 4)
        assert c_cert <= 4 * lay.c_star
        # at this size the certificate is exactly optimal
        assert ExactSolver(inst).optimal_cost(inst.full_mask) == Fraction(17, 4)

    def test_certificate_with_offgrid_hypotheses(self):
        inst = gen_grid_adversarial(18, 4)
        lay = grid_layout(18, 4)
        cert = grid_certificate_tree(inst, lay)
        assert structural_problems(cert, inst) == []
        assert is_complete(cert, inst)
        assert cost(cert, inst).total <= 4 * lay.c_star

    def test_certificate_rule_reads_the_layout_not_the_instance(self):
        # relabel column test 1 as a copy of column test 2: a rule that
        # searched the instance for a splitting test would route around it,
        # the certificate must instead name the layout's test and fail
        inst = gen_grid_adversarial(16, 4)
        lay = grid_layout(16, 4)
        tests = [list(inst.test_row(j)) for j in range(1, inst.m + 1)]
        tests[lay.type2_index(1) - 1] = tests[lay.type2_index(2) - 1]
        broken = DTInstance(inst.weights, tests, 2)
        with pytest.raises(StructureError):
            grid_certificate_tree(broken, lay)

    def test_certificate_bound_across_sizes(self):
        for n, c_star in ((16, 4), (17, 5), (32, 4), (64, 8), (40, 6)):
            inst = gen_grid_adversarial(n, c_star)
            lay = grid_layout(n, c_star)
            cert = grid_certificate_tree(inst, lay)
            assert is_complete(cert, inst), f"n={n} c*={c_star}"
            assert structural_problems(cert, inst) == [], f"n={n} c*={c_star}"
            assert cost(cert, inst).total <= 4 * c_star, f"n={n} c*={c_star}"

    def test_greedy_gap_grows_with_n(self):
        # the family's reason to exist: C_G / C_OPT-certificate widens as n
        # grows at fixed c_star
        ratios = []
        for n in (64, 256):
            inst = gen_grid_adversarial(n, 8)
            tree = build_greedy_node(inst, inst.full_mask)
            ratios.append(cost(tree, inst).total / Fraction(4 * 8))
        assert ratios[0] < ratios[1]

    def test_generator_deterministic(self):
        assert (gen_grid_adversarial(32, 4).to_text()
                == gen_grid_adversarial(32, 4).to_text())


# ----------------------------------------------------------------------------
# set-cover reduction family
# ----------------------------------------------------------------------------

class TestReduction:
    def test_frozen_minimal(self):
        inst, meta = gen_setcover_reduction(2, [{1}, {2}], 0.25)
        assert (meta.q, meta.ell, meta.n) == (4, 1, 9)
        assert meta.ratio == 10
        assert inst.n == 9
        assert validate_instance(inst).ok
        assert sum(inst.weights) == 1
        assert inst.weight_ratio() == meta.ratio
        # 8 reals at 1/18, one sentinel at 1/18 + 1/2 = 5/9
        assert inst.weights[:8] == (Fraction(1, 18),) * 8
        assert inst.weights[8] == Fraction(5, 9)

    def test_sandwich_strict_minimal(self):
        # covering 1..2 needs both singleton sets, so the cover optimum is 2
        inst, meta = gen_setcover_reduction(2, [{1}, {2}], 0.25)
        b_opt = 2
        c_opt = ExactSolver(inst).optimal_cost(inst.full_mask)
        assert c_opt == Fraction(58, 9)
        assert Fraction(meta.q * b_opt, 2) < c_opt < 3 * meta.q * b_opt

    def test_sandwich_strict_one_set_cover(self):
        inst, meta = gen_setcover_reduction(2, [{1, 2}], 0.25)
        b_opt = 1
        c_opt = ExactSolver(inst).optimal_cost(inst.full_mask)
        assert c_opt == Fraction(34, 9)
        assert Fraction(meta.q * b_opt, 2) < c_opt < 3 * meta.q * b_opt

    def test_block_structure(self):
        inst, meta = gen_setcover_reduction(2, [{1}, {2}], 0.3)
        assert meta.n == meta.ell * (meta.q * 2 + 1)
        assert inst.n == meta.n
        # sentinels are the heavy tail of the hypothesis ordering
        heavy = Fraction(1, 2 * meta.n) + Fraction(1, 2 * meta.ell)
        assert inst.weights[-meta.ell:] == (heavy,) * meta.ell
        assert all(w == Fraction(1, 2 * meta.n)
                   for w in inst.weights[:-meta.ell])

    def test_parameter_rejections(self):
        with pytest.raises(ParameterError):
            gen_setcover_reduction(2, [{1}, {2}], 0.0)
        with pytest.raises(ParameterError):
            gen_setcover_reduction(2, [{1}, {2}], 1.0)
        with pytest.raises(ParameterError):
            gen_setcover_reduction(1, [{1}], 0.5)
        with pytest.raises(ParameterError):
            gen_setcover_reduction(2, [], 0.25)
        with pytest.raises(ParameterError):
            gen_setcover_reduction(2, [set()], 0.25)
        with pytest.raises(ParameterError):
            gen_setcover_reduction(2, [{1, 3}], 0.25)   # 3 outside 1..2

    def test_uncovered_elements_rejected(self):
        with pytest.raises(ParameterError) as ei:
            gen_setcover_reduction(3, [{1}, {2}], 0.2)
        assert "missing [3]" in str(ei.value)

    def test_block_count_guard(self):
        # n0=4, r=0.5: q=4 and 4^2/(4*4+1) < 1, so no block fits
        with pytest.raises(ParameterError):
            gen_setcover_reduction(4, [{1, 2, 3, 4}], 0.5)

    def test_deterministic(self):
        a, _ = gen_setcover_reduction(2, [{1}, {2}], 0.25)
        b, _ = gen_setcover_reduction(2, [{2}, {1}][::-1], 0.25)
        assert a.to_text() == b.to_text()
