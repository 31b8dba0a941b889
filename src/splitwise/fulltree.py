"""Subexponential-time approximation solver.

The driver computes a greedy tree for the current hypothesis set H and keeps
it when either H is already light (p(H) < 1/n^2) or the greedy tree is
near-optimal (its cost clears a threshold, which certifies that OPT is large
too).  Otherwise it
spends a depth budget b on an exact bounded-depth expansion and recurses on
the depth-b leaves that still hold more than one hypothesis.

Two parameter profiles share the engine:

    general:  b = ceil((12*log2 n + log2 R) * n^alpha), keep-greedy threshold
              n^(-alpha/4) * b, plain greedy subcalls
    uniform:  b = ceil((4 + 2*eps/3) * log2 n * n^alpha), threshold
              n^(-alpha/3) * b, and greedy subcalls switch to brute force
              below n0 hypotheses

n, b and both thresholds always refer to the ROOT instance size, not the
current subset, at every recursion level.  Every call is recorded in a
RecursionTrace so the accounting that justifies the cost guarantee (level
families, their disjointness, the exact cost decomposition, per-level weight
contraction) can be audited after the fact.

The output tree is one `grow` rule applied set by set.  Each call returns
the set -> test map of the tree it keeps; a set in the current call's map
takes its test, and a set of two or more members that is not in it is a
depth-b leaf, which opens the next call one level down.  `grow` visits sets
in preorder, so the calls run in recursion order.

`FullTreeConfig.b` and `.threshold`, when set, replace the two formulas.  At
every n the exact search can finish, the formula budget is capped at n-1 and
a default run is one complete optimal expansion; a small b with an
unreachable threshold (say b=2, threshold=1e9) makes every call expand, so
the multi-level recursion runs at small n.  The guarantee and
the budget-dependent trace audits assume the formula values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import NonUniformError, ParameterError
from .exact import ExactSolver
from .greedy import build_greedy_node
from .instance import DTInstance, Number, close, left_sum, log2, require_valid
from .report import AuditLine, make_line
from .tree import DecisionTree, cost, grow

GENERAL = "general"
UNIFORM = "uniform"


@dataclass(frozen=True)
class FullTreeConfig:
    alpha: float
    mode: str = GENERAL
    ratio_bound: Number = 1      # R: promised p_max/p_min ceiling (general mode)
    eps: float = 0.03            # uniform-mode slack
    n0: int = 12                 # uniform mode: brute-force below this size
    b: int | None = None         # depth budget; None: depth_budget(n, cfg)
    threshold: float | None = None  # keep-greedy cost; None: the formula

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise ParameterError(f"alpha must lie in (0,1), got {self.alpha}")
        if self.mode not in (GENERAL, UNIFORM):
            raise ParameterError(f"mode must be '{GENERAL}' or '{UNIFORM}'")
        # written as ranges, so that NaN fails them too
        if not 1 <= self.ratio_bound < math.inf:
            raise ParameterError("ratio bound must be finite and >= 1")
        if not 0 < self.eps < math.inf:
            raise ParameterError("eps must be finite and > 0")
        if self.n0 < 2:
            raise ParameterError("n0 must be >= 2")
        if self.b is not None and self.b < 1:
            # with b = 0 an expansion hands its own set back, to be solved again
            raise ParameterError(f"depth budget b must be >= 1, got {self.b}")


def raw_depth_budget(n: int, cfg: FullTreeConfig) -> int:
    """The uncapped budget formula value."""
    if n < 1:
        raise ParameterError("need n >= 1")
    if cfg.mode == UNIFORM:
        return math.ceil((4.0 + 2.0 * cfg.eps / 3.0) * math.log2(n) * n ** cfg.alpha)
    return math.ceil((12.0 * math.log2(n) + log2(cfg.ratio_bound)) * n ** cfg.alpha)


def depth_budget(n: int, cfg: FullTreeConfig) -> int:
    """The budget the solver actually uses: the formula value capped at n-1
    (a complete tree never needs more, and the bounded-depth search cost is
    exponential in the budget)."""
    return max(0, min(raw_depth_budget(n, cfg), n - 1))


def _contraction(n: int, cfg: FullTreeConfig) -> float:
    """n^(-alpha/3) (uniform) or n^(-alpha/4) (general): the keep-greedy
    threshold per unit of budget, and the per-level shrink of expanded weight."""
    return n ** (-cfg.alpha / 3.0 if cfg.mode == UNIFORM else -cfg.alpha / 4.0)


def keep_greedy_threshold(n: int, cfg: FullTreeConfig, b: int) -> float:
    """Cost level above which the greedy tree is returned as-is."""
    return _contraction(n, cfg) * b


# decision tags recorded per call
GREEDY_SMALL_WEIGHT = "greedy_small_weight"   # p(H) < 1/n^2
GREEDY_NEAR_OPTIMAL = "greedy_near_optimal"   # greedy cost >= threshold
EXPANDED = "expanded"                         # bounded-depth search + recursion


@dataclass(frozen=True)
class CallRecord:
    level: int
    mask: int
    weight: Number              # p(H)
    decision: str
    greedy_cost: Number         # C(T_G(H); H), normalized by p(H)
    partial_cost: Number | None  # C_OPT(H, b) normalized, when expanded

    @property
    def size(self) -> int:
        return self.mask.bit_count()


@dataclass
class RecursionTrace:
    cfg: FullTreeConfig
    n: int
    b: int
    threshold: float
    records: list[CallRecord] = field(default_factory=list)
    total_cost: Number | None = None     # C(T_out), normalized
    total_raw: Number | None = None      # sum_h p_h * d(h), raw units

    def depth(self) -> int:
        return max(r.level for r in self.records)

    def families(self) -> tuple[dict[int, list[CallRecord]], list[CallRecord]]:
        """(expanded records grouped by level, greedy-returning records)."""
        by_level: dict[int, list[CallRecord]] = {}
        greedy: list[CallRecord] = []
        for r in self.records:
            if r.decision == EXPANDED:
                by_level.setdefault(r.level, []).append(r)
            else:
                greedy.append(r)
        return by_level, greedy

    def lines(self) -> list[str]:
        out = []
        for r in self.records:
            extra = "" if r.partial_cost is None else f" partial_cost={r.partial_cost}"
            out.append(
                f"level={r.level} size={r.size} weight={r.weight} "
                f"decision={r.decision} greedy_cost={r.greedy_cost}"
                f" threshold={self.threshold:.6g}{extra}")
        return out


class _Driver:
    def __init__(self, inst: DTInstance, cfg: FullTreeConfig,
                 solver: ExactSolver | None = None):
        self.inst = inst
        b = depth_budget(inst.n, cfg) if cfg.b is None else cfg.b
        threshold = (keep_greedy_threshold(inst.n, cfg, b)
                     if cfg.threshold is None else cfg.threshold)
        self.total_num = inst.mask_num(inst.full_mask)
        if solver is not None and solver.inst is not inst:
            raise ParameterError("the exact solver belongs to another instance")
        self.solver = ExactSolver(inst) if solver is None else solver
        self.trace = RecursionTrace(cfg, inst.n, b, threshold)

    def solve(self, mask: int, level: int) -> DecisionTree:
        """The output tree for `mask`: the call on it at `level`, grown by
        `_split` with (the current call's set -> test map, its level)."""
        return grow(self.inst, mask, self._split, (self._call(mask, level), level))

    def _split(self, mask: int, ctx: tuple[dict[int, int], int]):
        tests, level = ctx
        if mask not in tests:
            if not mask & (mask - 1):
                return None
            level += 1
            tests = self._call(mask, level)
        return tests[mask], (tests, level)

    def _call(self, mask: int, level: int) -> dict[int, int]:
        """Record one call; returns set -> test over the interior of the tree
        it keeps: the greedy tree, or its depth-b partial tree.

        The driver's ExactSolver refused every instance `require_solvable`
        refuses, so greedy leaves only singletons, and a partial tree leaves
        larger sets only at depth b: the sets `_split` misses."""
        trace, inst, size = self.trace, self.inst, mask.bit_count()
        if trace.cfg.mode == UNIFORM and size < trace.cfg.n0:
            tree = self.solver.partial_tree(mask, max(size - 1, 0))
        else:
            tree = build_greedy_node(inst, mask)
        gcost = cost(tree, inst, mask).total
        # p(H)/p([n]) < 1/n^2, exact by cross-multiplying
        small = inst.mask_num(mask) * (inst.n * inst.n) < self.total_num
        decision = (GREEDY_SMALL_WEIGHT if small else
                    GREEDY_NEAR_OPTIMAL if gcost >= trace.threshold else EXPANDED)
        pcost = None
        if decision == EXPANDED:
            tree = self.solver.partial_tree(mask, trace.b)
            pcost = self.solver.partial_cost(mask, trace.b)
        trace.records.append(CallRecord(
            level, mask, inst.mask_weight(mask), decision, gcost, pcost))
        return {rec.mask: rec.test for rec in tree.interior_records()}


def full_tree(inst: DTInstance, cfg: FullTreeConfig, *,
              solver: ExactSolver | None = None):
    """Run the solver in the config's mode; returns (tree, trace).

    `solver` is the ExactSolver of `inst` that the expansions run on (a
    fresh one by default).  A caller that passes its own keeps the memo, so
    a later `solver.optimal_cost()` reuses the driver's subproblems, and
    the solver's budgets bound the driver and that call together.

    `require_valid` is checked first.  Uniform mode needs uniform weights.
    General mode errors out before solving if the instance's actual weight
    ratio exceeds the promised ratio_bound — the guarantee would be void.
    """
    require_valid(inst)
    if cfg.mode == UNIFORM:
        if not inst.uniform:
            raise NonUniformError("uniform solver needs uniform weights")
    elif inst.weight_ratio() > cfg.ratio_bound:
        raise ParameterError(
            f"weight ratio {inst.weight_ratio()} exceeds the promised bound "
            f"{cfg.ratio_bound}")
    driver = _Driver(inst, cfg, solver)
    tree = driver.solve(inst.full_mask, 0)
    breakdown = cost(tree, inst)
    driver.trace.total_cost = breakdown.total
    driver.trace.total_raw = breakdown.raw
    return tree, driver.trace


# ----------------------------------------------------------------------------
# trace audit
# ----------------------------------------------------------------------------

def approximation_factor(cfg: FullTreeConfig) -> float:
    """The guaranteed multiple of the optimal cost for this configuration."""
    if cfg.mode == UNIFORM:
        return (9.0 + cfg.eps) / cfg.alpha
    return 25.0 / cfg.alpha + log2(cfg.ratio_bound)


def audit_trace(trace: RecursionTrace, inst: DTInstance,
                exact_c_opt: Number | None = None) -> list[AuditLine]:
    """Check the recursion accounting:

    - recursion_depth: max level within the mode's ceiling
    - family_disjoint: sets within each level family (and within the greedy
      family) are pairwise disjoint
    - cost_decomposition: sum of p(H) * per-call costs reproduces the output
      tree's cost exactly
    - weight_contraction: per level, expanded weight shrinks by the threshold
      factor
    - with an exact optimum: per-level expanded contributions are each at most
      C_opt, and the output cost is within the guaranteed factor
    """
    cfg = trace.cfg
    lines: list[AuditLine] = []
    cap = 3.0 if cfg.mode == UNIFORM else 8.0
    lines.append(make_line("recursion_depth", trace.depth(),
                           math.ceil(cap / cfg.alpha)))

    by_level, greedy = trace.families()
    overlaps = 0
    for fam in list(by_level.values()) + [greedy]:
        seen = 0
        for r in fam:
            if seen & r.mask:
                overlaps += 1
            seen |= r.mask
    lines.append(make_line("family_disjoint", overlaps, 0))

    zero = inst.zero
    decomposition = zero
    for r in trace.records:
        part = r.partial_cost if r.decision == EXPANDED else r.greedy_cost
        decomposition += r.weight * part
    lines.append(make_line("cost_decomposition", decomposition,
                           trace.total_raw,
                           passed=close(decomposition, trace.total_raw)))

    factor = _contraction(trace.n, cfg)
    levels = sorted(by_level)
    top = max(levels, default=-1)
    for i in range(top + 1):
        cur = left_sum((r.weight for r in by_level.get(i, [])), zero)
        nxt = left_sum((r.weight for r in by_level.get(i + 1, [])), zero)
        lines.append(make_line("weight_contraction", nxt,
                               factor * float(cur), level=str(i + 1)))

    if exact_c_opt is not None:
        # per-level contributions are raw, so scale C_opt back to raw units
        total_mass = inst.mask_weight(inst.full_mask)
        for i in levels:
            contrib = left_sum((r.weight * r.partial_cost for r in by_level[i]),
                               zero)
            lines.append(make_line("level_contribution", contrib,
                                   exact_c_opt * total_mass, level=str(i)))
        lines.append(make_line("fulltree_bound", trace.total_cost,
                               approximation_factor(cfg) * float(exact_c_opt)))
    return lines
