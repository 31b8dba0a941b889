"""Budgeted recursion solver: budget formulas, control flow, trace audits.

The guarantee corpus compares against the exhaustive solver on instances small
enough for exact optima, for several alpha values in both modes.
"""

import inspect
import math
import random
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

from splitwise import (
    DTInstance,
    ExactSolver,
    FullTreeConfig,
    InvalidInstanceError,
    NonUniformError,
    ParameterError,
    all_pass,
    approximation_factor,
    audit_trace,
    build_greedy_tree,
    cost,
    depth_budget,
    full_tree,
    is_complete,
    keep_greedy_threshold,
    optimal_cost,
    raw_depth_budget,
    structural_problems,
    tree_to_text,
)
from conftest import random_valid_instance

TOL = 1e-9


# ---------------------------------------------------------------------------
# configuration and budget formulas
# ---------------------------------------------------------------------------

class TestBudgets:
    def test_general_budget_frozen(self):
        cfg = FullTreeConfig(alpha=0.5)
        # (12*log2(256) + log2(1)) * 256^0.5 = 96*16
        assert raw_depth_budget(256, cfg) == 1536
        assert depth_budget(256, cfg) == 255          # capped at n-1
        assert abs(keep_greedy_threshold(256, cfg, 1536) - 768.0) < TOL

    def test_uniform_budget_frozen(self):
        cfg = FullTreeConfig(alpha=0.5, mode="uniform", eps=0.03)
        # (4 + 0.02) * 8 * 16 = 514.56 -> 515
        assert raw_depth_budget(256, cfg) == 515
        assert depth_budget(256, cfg) == 255

    def test_ratio_term_enters_general_budget(self):
        lo = raw_depth_budget(256, FullTreeConfig(alpha=0.5, ratio_bound=1))
        hi = raw_depth_budget(256, FullTreeConfig(alpha=0.5, ratio_bound=4))
        assert hi == lo + 2 * 16                      # log2(4) * n^alpha

    def test_guarantee_factors_frozen(self):
        assert abs(approximation_factor(FullTreeConfig(alpha=0.5)) - 50.0) < TOL
        ucfg = FullTreeConfig(alpha=0.5, mode="uniform", eps=0.03)
        assert abs(approximation_factor(ucfg) - 18.06) < TOL
        rcfg = FullTreeConfig(alpha=0.5, ratio_bound=8)
        assert abs(approximation_factor(rcfg) - 53.0) < TOL

    def test_config_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            FullTreeConfig(alpha=0)
        with pytest.raises(ParameterError):
            FullTreeConfig(alpha=1.2)
        with pytest.raises(ParameterError):
            FullTreeConfig(alpha=0.5, mode="fast")
        with pytest.raises(ParameterError):
            FullTreeConfig(alpha=0.5, ratio_bound=Fraction(1, 2))
        with pytest.raises(ParameterError):
            FullTreeConfig(alpha=0.5, eps=0)
        with pytest.raises(ParameterError):
            FullTreeConfig(alpha=0.5, n0=1)
        with pytest.raises(ParameterError):
            FullTreeConfig(alpha=0.5, b=0)

    @pytest.mark.parametrize("field", ["eps", "ratio_bound"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_config_rejects_non_finite_parameters(self, field, value):
        with pytest.raises(ParameterError):
            FullTreeConfig(alpha=0.5, **{field: value})

    def test_budget_floor_at_tiny_n(self):
        cfg = FullTreeConfig(alpha=0.3)
        assert depth_budget(1, cfg) == 0
        for n in (2, 3, 5):
            assert 0 <= depth_budget(n, cfg) <= n - 1


# ---------------------------------------------------------------------------
# mode gates
# ---------------------------------------------------------------------------

def test_mode_and_ratio_gates():
    rng = random.Random(91)
    inst = random_valid_instance(rng, 5, 4, 2)          # weighted
    with pytest.raises(NonUniformError):
        full_tree(inst, FullTreeConfig(alpha=0.5, mode="uniform"))
    # ratio gate: actual ratio must not exceed the promise
    if inst.weight_ratio() > 1:
        with pytest.raises(ParameterError):
            full_tree(inst, FullTreeConfig(alpha=0.5, ratio_bound=1))
    wide = FullTreeConfig(alpha=0.5, ratio_bound=inst.weight_ratio())
    tree, trace = full_tree(inst, wide)
    assert is_complete(tree, inst)


# ---------------------------------------------------------------------------
# output trees
# ---------------------------------------------------------------------------

def test_outputs_complete_clean_trees_both_modes():
    rng = random.Random(92)
    for idx in range(25):
        n = rng.randrange(3, 9)
        uniform = rng.random() < 0.5
        inst = random_valid_instance(rng, n, rng.randrange(3, 7), 2,
                                     uniform=uniform)
        alpha = rng.choice([0.3, 0.5, 0.8])
        if uniform:
            cfg = FullTreeConfig(alpha=alpha, mode="uniform")
        else:
            cfg = FullTreeConfig(alpha=alpha,
                                 ratio_bound=inst.weight_ratio())
        tree, trace = full_tree(inst, cfg)
        assert is_complete(tree, inst), f"case {idx}"
        assert structural_problems(tree, inst) == [], f"case {idx}"
        assert cost(tree, inst).total == trace.total_cost, f"case {idx}"
        assert trace.records[0].level == 0


def test_small_instances_take_one_call():
    """n <= 9: the capped budget b = n-1 makes the root search complete, so
    no recursion below the root call and cost <= greedy cost."""
    rng = random.Random(93)
    for _ in range(15):
        inst = random_valid_instance(rng, rng.randrange(3, 10),
                                     rng.randrange(3, 6), 2, uniform=True)
        cfg = FullTreeConfig(alpha=0.5, mode="uniform")
        tree, trace = full_tree(inst, cfg)
        assert trace.depth() == 0
        assert trace.total_cost <= cost(build_greedy_tree(inst), inst).total


def test_trace_decomposition_identity():
    """sum over calls of p(H) * C(T;H) reproduces the output cost in raw
    units, for whatever mix of decisions the run took."""
    rng = random.Random(94)
    for idx in range(20):
        inst = random_valid_instance(rng, rng.randrange(4, 9),
                                     rng.randrange(3, 6), 2)
        cfg = FullTreeConfig(alpha=0.4, ratio_bound=inst.weight_ratio())
        tree, trace = full_tree(inst, cfg)
        contrib = Fraction(0)
        for r in trace.records:
            part = r.greedy_cost if r.partial_cost is None else r.partial_cost
            contrib += r.weight * part
        # expanded calls recurse, so the identity needs the audit's
        # level-aware accounting; on one-shot runs it is direct
        if trace.depth() == 0:
            assert contrib == trace.total_raw, f"case {idx}"


# ---------------------------------------------------------------------------
# guarantee corpus (uses the exact solver as the baseline oracle)
# ---------------------------------------------------------------------------

def test_within_guarantee_general_mode():
    rng = random.Random(95)
    for idx in range(20):
        inst = random_valid_instance(rng, rng.randrange(3, 9),
                                     rng.randrange(3, 6), rng.choice([2, 3]))
        copt = optimal_cost(inst)
        for alpha in (0.3, 0.5, 0.8):
            cfg = FullTreeConfig(alpha=alpha, ratio_bound=inst.weight_ratio())
            tree, trace = full_tree(inst, cfg)
            bound = approximation_factor(cfg) * float(copt)
            assert float(trace.total_cost) <= bound + TOL, (
                f"case {idx} alpha={alpha}: {trace.total_cost} > {bound}"
            )


def test_within_guarantee_uniform_mode():
    rng = random.Random(96)
    for idx in range(20):
        inst = random_valid_instance(rng, rng.randrange(3, 10),
                                     rng.randrange(3, 7), 2, uniform=True)
        copt = optimal_cost(inst)
        for alpha in (0.3, 0.5, 0.8):
            cfg = FullTreeConfig(alpha=alpha, mode="uniform")
            tree, trace = full_tree(inst, cfg)
            bound = approximation_factor(cfg) * float(copt)
            assert float(trace.total_cost) <= bound + TOL, (
                f"case {idx} alpha={alpha}"
            )


def test_audit_trace_full_battery():
    rng = random.Random(97)
    for idx in range(12):
        uniform = idx % 2 == 0
        inst = random_valid_instance(rng, rng.randrange(4, 9),
                                     rng.randrange(3, 6), 2, uniform=uniform)
        copt = optimal_cost(inst)
        if uniform:
            cfg = FullTreeConfig(alpha=0.5, mode="uniform")
        else:
            cfg = FullTreeConfig(alpha=0.5, ratio_bound=inst.weight_ratio())
        tree, trace = full_tree(inst, cfg)
        lines = audit_trace(trace, inst, exact_c_opt=copt)
        assert all_pass(lines), (
            f"case {idx}: " + "; ".join(str(l) for l in lines if not l.passed)
        )
        names = {l.name for l in lines}
        assert {"recursion_depth", "family_disjoint", "cost_decomposition",
                "level_contribution", "fulltree_bound"} <= names


FORCED = FullTreeConfig(alpha=0.5, mode="uniform", n0=2, b=2, threshold=1e9)


def forced_recursion_corpus():
    """25 uniform instances of 6-10 hypotheses on which FORCED recurses."""
    rng = random.Random(99)
    for _ in range(25):
        yield random_valid_instance(rng, rng.randrange(6, 11),
                                    rng.randrange(3, 7), 2, uniform=True)


def test_forced_recursion_grafts_correctly():
    """Shrinking the budget to 2 (with the keep-greedy threshold pushed out
    of reach so every call expands) forces depth-2 multi-leaves to be
    re-solved; the grafted tree must stay complete, consistent, and
    cost-coherent."""
    recursed = 0
    for idx, inst in enumerate(forced_recursion_corpus()):
        tree, trace = full_tree(inst, FORCED)
        assert is_complete(tree, inst), f"case {idx}"
        assert structural_problems(tree, inst) == [], f"case {idx}"
        if trace.depth() > 0:
            recursed += 1
            # budget-independent audit lines must hold even at forced budgets
            lines = audit_trace(trace, inst, exact_c_opt=optimal_cost(inst))
            keep = {"family_disjoint", "cost_decomposition",
                    "level_contribution"}
            bad = [l for l in lines if l.name in keep and not l.passed]
            assert not bad, f"case {idx}: {bad}"
    assert recursed >= 5, "forced budget never actually recursed"


def test_calls_run_in_the_output_tree_preorder():
    """Each call's set is a node of the output tree, and the calls are
    recorded in that tree's preorder: recursion order."""
    calls = 0
    for idx, inst in enumerate(forced_recursion_corpus()):
        tree, trace = full_tree(inst, FORCED)
        node_of = {rec.mask: rec.id for rec in tree.records}
        assert all(r.mask in node_of for r in trace.records), f"case {idx}"
        ids = [node_of[r.mask] for r in trace.records]
        assert ids[0] == 0 and ids == sorted(set(ids)), f"case {idx}: {ids}"
        calls += len(ids)
    assert calls > 50, "forced budget never actually recursed"


def test_multi_hypothesis_leaf_above_the_budget_raises():
    """Hypotheses 1 and 2 answer alike on both tests, so no tree can leave
    them apart: the driver's exact solver refuses the instance."""
    from splitwise.fulltree import _Driver
    inst = DTInstance([Fraction(1, 4)] * 4, [(1, 1, 2, 2), (1, 1, 1, 2)], 2)
    with pytest.raises(InvalidInstanceError) as ei:
        _Driver(inst, FullTreeConfig(alpha=0.5, mode="uniform", n0=12,
                                     b=3, threshold=1e9))
    assert ei.value.undistinguished == (1, 2)


def test_small_weight_shortcut_fires():
    """A set with p(H) < 1/n^2 keeps its greedy subtree no matter how cheap.

    The driver is pointed straight at the feather pair {5, 6} (mass 1/50,
    below the 1/36 cutoff) because full-mask recursion at this size never
    carves out a light-enough subset on its own."""
    from splitwise.fulltree import _Driver, GREEDY_SMALL_WEIGHT
    # two feather-weight hypotheses below 1/36 of the total mass
    weights = [Fraction(49, 200)] * 4 + [Fraction(1, 100)] * 2
    tests = [
        (1, 1, 1, 2, 2, 2),
        (1, 2, 2, 1, 1, 2),
        (2, 1, 2, 1, 2, 1),
        (2, 2, 1, 2, 1, 1),
    ]
    inst = DTInstance(weights, tests, 2)
    cfg = FullTreeConfig(alpha=0.5, ratio_bound=inst.weight_ratio(),
                         b=1, threshold=1e9)
    driver = _Driver(inst, cfg)
    feathers = inst.as_mask([5, 6])
    assert inst.mask_weight(feathers) == Fraction(1, 50)  # < 1/36
    tree = driver.solve(feathers, 0)
    assert is_complete(tree, inst, H=feathers)
    rec = driver.trace.records[0]
    assert rec.decision == GREEDY_SMALL_WEIGHT, driver.trace.lines()
    assert rec.mask == feathers and rec.partial_cost is None
    # the shortcut hands back greedy untouched: a single split isolates both
    assert cost(tree, inst, feathers).total == 1
    # sanity: a heavy set of the same size is NOT small and would expand
    heavies = inst.as_mask([1, 2])
    driver.solve(heavies, 0)
    assert driver.trace.records[1].decision != GREEDY_SMALL_WEIGHT


def test_set_budget_and_threshold_reach_the_trace():
    rng = random.Random(100)
    inst = random_valid_instance(rng, 8, 5, 2, uniform=True)
    cfg = FullTreeConfig(alpha=0.5, mode="uniform", b=3, threshold=2.5)
    tree, trace = full_tree(inst, cfg)
    assert (trace.b, trace.threshold) == (3, 2.5)
    assert trace.cfg is cfg
    assert all(" threshold=2.5" in line for line in trace.lines())


@pytest.mark.parametrize("uniform", [True, False])
def test_formula_values_match_the_default_config(uniform):
    """Setting b and threshold to their formula values changes nothing."""
    rng = random.Random(101 + uniform)
    for idx in range(8):
        inst = random_valid_instance(rng, rng.randrange(4, 10),
                                     rng.randrange(3, 6), 2, uniform=uniform)
        if uniform:
            base = FullTreeConfig(alpha=0.4, mode="uniform", n0=4)
        else:
            base = FullTreeConfig(alpha=0.4, ratio_bound=inst.weight_ratio())
        b = depth_budget(inst.n, base)
        pinned = replace(base, b=b,
                         threshold=keep_greedy_threshold(inst.n, base, b))
        t1, tr1 = full_tree(inst, base)
        t2, tr2 = full_tree(inst, pinned)
        assert tree_to_text(t1) == tree_to_text(t2), f"case {idx}"
        assert tr1.lines() == tr2.lines(), f"case {idx}"
        assert (tr1.b, tr1.threshold) == (tr2.b, tr2.threshold)


def test_deep_recursion_does_not_use_the_interpreter_stack():
    """b=1 on a chain instance recurses n-1 levels deep; the driver must not
    spend stack frames per level (checked under a lowered recursion limit
    instead of at the n where the default limit breaks)."""
    n = 80
    tests = [tuple(1 if h == j else 2 for h in range(n)) for j in range(n)]
    inst = DTInstance([Fraction(1, n)] * n, tests, 2)
    cfg = FullTreeConfig(alpha=0.5, b=1, threshold=1e9)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        tree, trace = full_tree(inst, cfg)
    finally:
        sys.setrecursionlimit(old)
    assert trace.depth() == n - 2
    assert tree.depth() == n - 1 and is_complete(tree, inst)


def test_shared_solver_keeps_the_memo():
    """A solver handed to full_tree keeps the driver's subproblems: the
    optimum afterwards equals a fresh solver's, and when the driver already
    expanded the whole set at b = n-1 it costs no further expansion."""
    rng = random.Random(102)
    for idx in range(6):
        inst = random_valid_instance(rng, rng.randrange(4, 9),
                                     rng.randrange(3, 6), 2, uniform=True)
        cfg = FullTreeConfig(alpha=0.5, mode="uniform", n0=4)
        solver = ExactSolver(inst)
        tree, trace = full_tree(inst, cfg, solver=solver)
        assert tree_to_text(tree) == tree_to_text(full_tree(inst, cfg)[0])
        done = solver.stats.expansions
        assert solver.optimal_cost() == optimal_cost(inst), f"case {idx}"
        if trace.records[0].decision == "expanded" and trace.b == inst.n - 1:
            assert solver.stats.expansions == done, f"case {idx}"
    other = random_valid_instance(rng, 5, 4, 2, uniform=True)
    with pytest.raises(ParameterError):
        full_tree(inst, cfg, solver=ExactSolver(other))


def test_determinism():
    rng = random.Random(98)
    inst = random_valid_instance(rng, 8, 5, 2, uniform=True)
    cfg = FullTreeConfig(alpha=0.4, mode="uniform")
    t1, tr1 = full_tree(inst, cfg)
    t2, tr2 = full_tree(inst, cfg)
    assert tree_to_text(t1) == tree_to_text(t2)
    assert tr1.lines() == tr2.lines()
    assert tr1.total_cost == tr2.total_cost
