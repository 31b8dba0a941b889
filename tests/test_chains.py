"""Vertex classification, chain decomposition, heavy runs, bound evaluators.

The hand-labeled fixture (one imbalanced root with a heavy hypothesis) pins
the classification down to exact field values before the corpus checks widen
coverage.
"""

import math
import random
from fractions import Fraction

import pytest

from splitwise import (
    has_two_sided_test,
    DTInstance,
    ParameterError,
    all_pass,
    assembled_audit,
    build_greedy_tree,
    chain_decomposition,
    chain_mssc_audit,
    choose_delta,
    classify_vertices,
    corrupt_interior_mask,
    cost,
    entropy_audit,
    greediness_audit,
    heavy_cover_instance,
    heavy_path_audit,
    heavy_paths,
    imbalanced_audit,
    label_invariant_problems,
    monotonicity_audit,
    optimal_cost,
    optimal_tree,
    theorem1_bound,
    uniform_binary_bound,
)
from conftest import random_valid_instance, tree_of

TOL = 1e-9


def skewed4() -> DTInstance:
    """p = (3/4, 1/8, 1/16, 1/16), isolating tests."""
    return DTInstance(
        [Fraction(3, 4), Fraction(1, 8), Fraction(1, 16), Fraction(1, 16)],
        [(1, 2, 2, 2), (2, 1, 2, 2), (2, 2, 1, 2)],
        2,
    )


# ---------------------------------------------------------------------------
# classification on the hand-labeled fixture
# ---------------------------------------------------------------------------

class TestClassification:
    def test_root_is_imbalanced_with_heavy(self):
        inst = skewed4()
        tree = build_greedy_tree(inst)
        labels = classify_vertices(tree, inst, Fraction(1, 2))
        # scale grid: delta^s for s = 1..4 down to p_min = 1/16
        assert labels.s_levels == (1, 2, 3, 4)
        assert labels.powers == (Fraction(1, 2), Fraction(1, 4),
                                 Fraction(1, 8), Fraction(1, 16))
        assert abs(labels.s_max - 4.0) < TOL

        root = labels[0]
        assert root.weight == 1
        assert root.minority == Fraction(1, 4)
        # p^- = 1/4 <= delta^2 and p(v) = 1 > 2*delta^2: level-2 imbalanced
        assert root.levels == (2,)
        assert not root.balanced
        assert root.heavy == 1 and root.q == Fraction(3, 4)

    def test_lower_vertices_are_balanced(self):
        inst = skewed4()
        tree = build_greedy_tree(inst)
        labels = classify_vertices(tree, inst, Fraction(1, 2))
        inner = [lab for nid, lab in labels.items() if nid != 0]
        assert len(inner) == 2
        for lab in inner:
            assert lab.balanced, f"node {lab.node_id} unexpectedly imbalanced"
            assert lab.minority >= labels.delta / 2 * lab.weight

    def test_weight_accounting(self):
        inst = skewed4()
        tree = build_greedy_tree(inst)
        labels = classify_vertices(tree, inst, Fraction(1, 2))
        assert labels.imbalanced_weight() == 1          # just the root
        assert labels.balanced_weight() == Fraction(1, 4) + Fraction(1, 8)
        assert labels.heavy_weight() == Fraction(3, 4)
        assert labels.level_members(2) == (0,)
        assert label_invariant_problems(labels) == []

    def test_rejects_non_greedy_trees(self):
        inst = skewed4()
        # root on test 3 (max part 15/16) is not greedy
        bad = tree_of((3, 0b1111, [
            (1, 0b0100),
            (2, (1, 0b1011, [
                (1, 0b0001),
                (2, (2, 0b1010, [(1, 0b0010), (2, 0b1000)])),
            ])),
        ]))
        with pytest.raises(ParameterError):
            classify_vertices(bad, inst, Fraction(1, 2))

    def test_rejects_bad_delta(self):
        inst = skewed4()
        tree = build_greedy_tree(inst)
        for delta in (0, 1, Fraction(3, 2)):
            with pytest.raises(ParameterError):
                classify_vertices(tree, inst, delta)

    def test_invariants_hold_on_corpus(self):
        rng = random.Random(81)
        for idx in range(40):
            inst = random_valid_instance(rng, rng.randrange(3, 10),
                                         rng.randrange(3, 7),
                                         rng.choice([2, 3]),
                                         uniform=rng.random() < 0.3)
            tree = build_greedy_tree(inst)
            delta = rng.choice([Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)])
            labels = classify_vertices(tree, inst, delta)
            assert label_invariant_problems(labels) == [], f"case {idx}"
            # partition of interior weight, exactly
            from splitwise import interior_weight_sum
            assert labels.balanced_weight() + labels.imbalanced_weight() == \
                interior_weight_sum(tree, inst), f"case {idx}"


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------

def test_single_vertex_chain_on_fixture():
    inst = skewed4()
    tree = build_greedy_tree(inst)
    labels = classify_vertices(tree, inst, Fraction(1, 2))
    decomp = chain_decomposition(labels, tree)
    assert decomp.chains_at(2) == ((0,),)
    assert decomp.chains_at(1) == ()


def test_chains_partition_levels_and_follow_majority_edges():
    rng = random.Random(82)
    for idx in range(30):
        inst = random_valid_instance(rng, rng.randrange(4, 10),
                                     rng.randrange(3, 7), 2)
        tree = build_greedy_tree(inst)
        labels = classify_vertices(tree, inst, Fraction(1, 2))
        decomp = chain_decomposition(labels, tree)
        for s, chains in decomp.by_level.items():
            flat = [v for c in chains for v in c]
            assert sorted(flat) == sorted(labels.level_members(s)), f"case {idx}"
            for chain in chains:
                for above, below in zip(chain, chain[1:]):
                    assert labels[above].majority_child_id == below, (
                        f"case {idx}: level {s} chain edge {above}->{below}"
                    )


# ---------------------------------------------------------------------------
# heavy paths and covers
# ---------------------------------------------------------------------------

def test_heavy_path_on_fixture():
    inst = skewed4()
    tree = build_greedy_tree(inst)
    labels = classify_vertices(tree, inst, Fraction(1, 2))
    paths = heavy_paths(labels, tree, inst)
    assert set(paths) == {1}
    hp = paths[1]
    assert hp.top_id == 0 and hp.top_depth == 0
    assert hp.leaf_depth == 1 and hp.length == 1
    assert hp.q == Fraction(3, 4)


def test_heavy_cover_sets_on_fixture():
    inst = skewed4()
    tree = build_greedy_tree(inst)
    cover = heavy_cover_instance(inst, tree, 0, 1)
    assert cover.elements == (2, 3, 4)
    assert cover.weights[0] == Fraction(1, 8)
    # per test: elements answering differently from h=1
    assert cover.sets == (frozenset({2, 3, 4}), frozenset({2}), frozenset({3}))
    assert cover.set_masks == (0b111, 0b001, 0b010)


def test_heavy_cover_rejects_foreign_hypothesis():
    inst = skewed4()
    tree = build_greedy_tree(inst)
    # node 1 is the leaf of hypothesis 1's answer side or the sibling set;
    # find an interior node not containing h=1
    target = None
    for rec in tree.records:
        if not rec.is_leaf and not rec.mask & 1:
            target = rec.id
    assert target is not None
    with pytest.raises(ParameterError):
        heavy_cover_instance(inst, tree, target, 1)


def test_heavy_paths_contiguous_on_corpus():
    rng = random.Random(83)
    seen = 0
    for idx in range(40):
        inst = random_valid_instance(rng, rng.randrange(3, 9),
                                     rng.randrange(3, 7), 2)
        tree = build_greedy_tree(inst)
        labels = classify_vertices(tree, inst, Fraction(1, 2))
        paths = heavy_paths(labels, tree, inst)   # raises if non-contiguous
        for h, hp in paths.items():
            assert hp.q == inst.weight_of(h)
            assert 1 <= hp.length <= hp.leaf_depth
            seen += 1
    assert seen >= 10, "corpus produced too few heavy runs"


# ---------------------------------------------------------------------------
# bound evaluators
# ---------------------------------------------------------------------------

class TestBoundEvaluators:
    def test_general_form_frozen_value(self):
        # uniform n=1024, C_opt=32: (12*10/5 + ln 1) * 32 = 768
        val = theorem1_bound(Fraction(1, 1024), Fraction(1, 1024), 32)
        assert abs(val - 768.0) < TOL

    def test_uniform_binary_frozen_value(self):
        assert abs(uniform_binary_bound(1024, 32) - 384.0) < TOL

    def test_ratio_term(self):
        # p_max/p_min = e shifts the bound by exactly C_opt
        base = theorem1_bound(Fraction(1, 16), Fraction(1, 16), 4)
        bumped = theorem1_bound(0.0625, 0.0625 * math.e, 4)
        assert abs(bumped - (base + 4.0)) < 1e-6

    def test_rejects_trivial_costs(self):
        with pytest.raises(ParameterError):
            theorem1_bound(Fraction(1, 4), Fraction(1, 4), 1)
        with pytest.raises(ParameterError):
            uniform_binary_bound(4, Fraction(1, 2))

    def test_choose_delta(self):
        assert choose_delta(Fraction(5, 2)) == Fraction(2, 5)
        assert choose_delta(4.0) == 0.25
        with pytest.raises(ParameterError):
            choose_delta(1)

    def test_greedy_cost_under_general_bound_corpus(self):
        rng = random.Random(84)
        checked = 0
        for _ in range(60):
            inst = random_valid_instance(rng, rng.randrange(4, 9),
                                         rng.randrange(3, 7),
                                         rng.choice([2, 3]),
                                         uniform=rng.random() < 0.5)
            copt = optimal_cost(inst)
            if copt <= 1:
                continue
            cg = cost(build_greedy_tree(inst), inst).total
            bound = theorem1_bound(inst.p_min, inst.p_max, copt)
            assert float(cg) <= bound + TOL, (
                f"C_G={cg} exceeded the guarantee {bound}"
            )
            checked += 1
        assert checked >= 30


# ---------------------------------------------------------------------------
# audit wrappers
# ---------------------------------------------------------------------------

def test_entropy_rhs_frozen():
    inst = DTInstance([Fraction(1, 4)] * 4, [(1, 1, 2, 2), (1, 2, 1, 2)], 2)
    tree = build_greedy_tree(inst)
    line = entropy_audit(tree, inst, Fraction(1, 2))
    # log2(4)/log2(4) * 4 = 4; balanced weight is 2 here
    assert abs(line.rhs - 4.0) < TOL
    assert line.lhs == 2
    assert line.passed


def test_greediness_and_monotonicity_audits():
    inst = skewed4()
    tree = build_greedy_tree(inst)
    assert greediness_audit(tree, inst).passed
    assert monotonicity_audit(tree, inst).passed
    bad = corrupt_interior_mask(tree)
    assert not greediness_audit(bad, inst).passed


def test_imbalanced_audit_on_corpus():
    rng = random.Random(85)
    checked = 0
    for _ in range(40):
        inst = random_valid_instance(rng, rng.randrange(4, 9),
                                     rng.randrange(3, 7), 2,
                                     uniform=rng.random() < 0.5)
        copt = optimal_cost(inst)
        if copt <= 1:
            continue
        tree = build_greedy_tree(inst)
        delta = choose_delta(copt)
        lines = imbalanced_audit(tree, inst, delta, copt)
        assert all_pass(lines), (
            "; ".join(str(l) for l in lines if not l.passed)
        )
        names = {l.name for l in lines}
        assert {"interior_partition", "imbalanced_weighted",
                "heavy_sum", "heavy_identity"} <= names
        if inst.uniform:
            assert "imbalanced_uniform" in names
        checked += 1
    assert checked >= 20


def test_heavy_path_audit_on_corpus():
    rng = random.Random(86)
    for _ in range(15):
        inst = random_valid_instance(rng, rng.randrange(4, 8),
                                     rng.randrange(3, 6), 2)
        tree = build_greedy_tree(inst)
        opt = optimal_tree(inst)
        lines = heavy_path_audit(tree, inst, opt)
        assert all_pass(lines)


def test_chain_mssc_audit_on_corpus():
    rng = random.Random(87)
    checked = 0
    for _ in range(30):
        inst = random_valid_instance(rng, rng.randrange(4, 10),
                                     rng.randrange(3, 7), 2, uniform=True)
        copt = optimal_cost(inst)
        if copt <= 1:
            continue
        tree = build_greedy_tree(inst)
        delta = choose_delta(copt)
        lines = chain_mssc_audit(tree, inst, delta, copt)
        assert all_pass(lines), "; ".join(str(l) for l in lines if not l.passed)
        if has_two_sided_test(inst):
            assert all(l.mandatory for l in lines if l.name == "level_mssc"
                       and "budget" not in l.note)
        checked += 1
    assert checked >= 15


def test_level_sum_demoted_on_isolation_instances():
    """Pure isolation instances can push the per-level sum past C_OPT; the
    audit must report that line as informational, not as a failure."""
    inst = DTInstance(
        [Fraction(1, 4)] * 4,
        [(1, 1, 2, 1), (2, 1, 2, 2), (2, 1, 1, 1)],
        2,
    )
    assert not has_two_sided_test(inst)
    copt = optimal_cost(inst)
    assert copt == Fraction(9, 4)
    tree = build_greedy_tree(inst)
    delta = choose_delta(copt)
    lines = chain_mssc_audit(tree, inst, delta, copt)
    level_lines = [l for l in lines if l.name == "level_mssc"]
    assert level_lines
    overs = [l for l in level_lines if not l.passed]
    assert overs, "expected the level sum to exceed C_OPT on this fixture"
    for l in overs:
        assert not l.mandatory and "two-sided" in l.note
    assert all_pass(lines)


def test_two_sided_predicate():
    four_square = DTInstance([Fraction(1, 4)] * 4,
                             [(1, 1, 2, 2), (1, 2, 1, 2)], 2)
    assert has_two_sided_test(four_square)
    isolating = DTInstance([Fraction(1, 3)] * 3,
                           [(1, 2, 2), (2, 1, 2), (2, 2, 1)], 2)
    assert not has_two_sided_test(isolating)


def test_assembled_audit_uniform_binary():
    rng = random.Random(88)
    checked = 0
    for _ in range(30):
        inst = random_valid_instance(rng, rng.randrange(4, 11),
                                     rng.randrange(3, 8), 2, uniform=True)
        copt = optimal_cost(inst)
        if copt <= 1:
            continue
        tree = build_greedy_tree(inst)
        lines = assembled_audit(tree, inst, copt)
        assert [l.name for l in lines] == [
            "balanced_entropy", "imbalanced_uniform",
            "assembled_bound", "assembled_closed",
        ]
        assert all_pass(lines), "; ".join(str(l) for l in lines if not l.passed)
        checked += 1
    assert checked >= 15


def test_assembled_audit_rejects_weighted():
    inst = skewed4()
    tree = build_greedy_tree(inst)
    with pytest.raises(ParameterError):
        assembled_audit(tree, inst, Fraction(2))
