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

`FullTreeConfig.b` and `.threshold`, when set, replace the two formulas.  At
every n the exact search can finish, the formula budget is capped at n-1 and
a default run is one complete optimal expansion; a small b with an
unreachable threshold (say b=2, threshold=1e9) makes every call expand, so
the grafting and the multi-level recursion run at small n.  The guarantee and
the budget-dependent trace audits assume the formula values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import NonUniformError, ParameterError, StructureError
from .exact import ExactSolver
from .greedy import build_greedy_node
from .instance import DTInstance, Number, close, log2, require_valid
from .report import AuditLine, make_line
from .tree import DecisionTree, TreeNode, cost, interior

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
        if self.ratio_bound < 1:
            raise ParameterError("ratio bound must be >= 1")
        if self.eps <= 0:
            raise ParameterError("eps must be > 0")
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
                 max_expansions: int | None = None,
                 budget_ms: float | None = None):
        self.inst = inst
        self.cfg = cfg
        self.n = inst.n
        self.b = depth_budget(inst.n, cfg) if cfg.b is None else cfg.b
        self.threshold = (keep_greedy_threshold(inst.n, cfg, self.b)
                          if cfg.threshold is None else cfg.threshold)
        self.total_num = inst.mask_num(inst.full_mask)
        self.solver = ExactSolver(inst, max_expansions=max_expansions,
                                  budget_ms=budget_ms)
        self.trace = RecursionTrace(cfg, inst.n, self.b, self.threshold)

    def _is_small(self, mask: int) -> bool:
        # normalized mass test: p(H)/p([n]) < 1/n^2, exact by cross-multiplying
        return self.inst.mask_num(mask) * (self.n * self.n) < self.total_num

    def greedy_tree(self, mask: int) -> DecisionTree:
        if (self.cfg.mode == UNIFORM and mask.bit_count() < self.cfg.n0):
            return self.solver.partial_tree(mask, max(mask.bit_count() - 1, 0))
        return DecisionTree(build_greedy_node(self.inst, mask))

    def solve(self, mask: int, level: int) -> TreeNode:
        """The output tree for `mask`.  Calls run in recursion order (an
        expanded call, then the calls on its depth-b leaves, left to right)
        from an explicit stack and are assembled bottom-up afterwards, so a
        small b on a deep instance cannot exhaust the interpreter stack."""
        calls = []      # (kept root or partial tree, parent call, leaf id, grafts)
        stack = [(mask, level, None, None)]
        while stack:
            mask, level, parent, leaf_id = stack.pop()
            out = self._call(mask, level)
            calls.append((out, parent, leaf_id, {}))
            if isinstance(out, DecisionTree):
                multi = [r for r in out.leaves() if r.node.mask.bit_count() > 1]
                if any(r.depth != self.b for r in multi):
                    raise StructureError(
                        "multi-hypothesis leaf above the depth budget: "
                        "set has no splitting test")
                stack.extend((r.node.mask, level + 1, len(calls) - 1, r.id)
                             for r in reversed(multi))
        for out, parent, leaf_id, grafts in reversed(calls):
            root = out if isinstance(out, TreeNode) else _graft(out, grafts)
            if parent is None:
                return root
            calls[parent][3][leaf_id] = root

    def _call(self, mask: int, level: int) -> TreeNode | DecisionTree:
        """Record one call: the greedy root it keeps, or its partial tree."""
        g = self.greedy_tree(mask)
        gcost = cost(g, self.inst, mask).total
        weight = self.inst.mask_weight(mask)
        decision = (GREEDY_SMALL_WEIGHT if self._is_small(mask) else
                    GREEDY_NEAR_OPTIMAL if gcost >= self.threshold else EXPANDED)
        if decision != EXPANDED:
            self.trace.records.append(CallRecord(
                level, mask, weight, decision, gcost, None))
            return g.root

        partial = self.solver.partial_tree(mask, self.b)
        pcost = self.solver.partial_cost(mask, self.b)
        self.trace.records.append(CallRecord(
            level, mask, weight, EXPANDED, gcost, pcost))
        return partial


def _graft(tree: DecisionTree, subtrees: dict[int, TreeNode]) -> TreeNode:
    """`tree` with the leaves named by record id replaced, built bottom-up."""
    built: list[TreeNode] = [None] * len(tree.records)
    for rec in reversed(tree.records):
        node = rec.node
        if node.is_leaf:
            built[rec.id] = subtrees.get(rec.id, node)
        else:
            built[rec.id] = interior(
                node.test, [(a, built[c]) for (a, _), c
                            in zip(node.children, rec.child_ids)], node.mask)
    return built[0]


def full_tree(inst: DTInstance, cfg: FullTreeConfig, *,
              max_expansions: int | None = None,
              budget_ms: float | None = None):
    """Run the solver in the config's mode; returns (tree, trace).

    Uniform mode needs uniform weights.  General mode errors out before
    solving if the instance's actual weight ratio exceeds the promised
    ratio_bound — the guarantee would be void.
    """
    if cfg.mode == UNIFORM:
        if not inst.uniform:
            raise NonUniformError("uniform solver needs uniform weights")
    elif inst.weight_ratio() > cfg.ratio_bound:
        raise ParameterError(
            f"weight ratio {inst.weight_ratio()} exceeds the promised bound "
            f"{cfg.ratio_bound}")
    require_valid(inst)
    driver = _Driver(inst, cfg, max_expansions, budget_ms)
    tree = DecisionTree(driver.solve(inst.full_mask, 0))
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
        cur = sum((r.weight for r in by_level.get(i, [])), start=zero)
        nxt = sum((r.weight for r in by_level.get(i + 1, [])), start=zero)
        lines.append(make_line("weight_contraction", nxt,
                               factor * float(cur), level=str(i + 1)))

    if exact_c_opt is not None:
        # per-level contributions are raw, so scale C_opt back to raw units
        total_mass = inst.mask_weight(inst.full_mask)
        for i in levels:
            contrib = sum((r.weight * r.partial_cost for r in by_level[i]),
                          start=zero)
            lines.append(make_line("level_contribution", contrib,
                                   exact_c_opt * total_mass, level=str(i)))
        lines.append(make_line("fulltree_bound", trace.total_cost,
                               approximation_factor(cfg) * float(exact_c_opt)))
    return lines
