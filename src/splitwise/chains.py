"""Structural analysis of greedy trees: balanced/imbalanced vertices, chains,
heavy hypotheses, and the bound evaluators built on top of them.

Everything here is a *verifier* over a concrete (tree, instance) pair: the
classification at a scale parameter delta, the per-level chain decomposition,
the per-hypothesis heavy paths, and audit lines for the inequalities those
objects are supposed to satisfy.  Vertex weights are used exactly as the
instance stores them (no renormalization), so on instances whose weights sum
to one p(v) is the usual reaching probability.

A vertex v with set L(v) and split test j has majority part = heaviest answer
class, minority mass p^-(v) = p(v) minus the majority part.  At scale delta:

    level-s imbalanced  <=>  p^-(v) <= delta^s  and  p(v) > 2*delta^s
    balanced            <=>  imbalanced at no level s in 1..ceil(s_max)

with s_max = log(1/p_min)/log(1/delta).  Powers delta^s are computed in exact
arithmetic on exact instances so boundary cases (p^-(v) == delta^s) classify
deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import BudgetExceededError, ParameterError, StructureError
from .greedy import heavy_above, majority_parts, majority_split
from .instance import (REL_TOL, DTInstance, Number, close, has_two_sided_test,
                       iter_bits, ln, log2)
from .mssc import chain_order, induced_mssc, is_greedy_order, mssc_optimal
from .report import AuditLine, make_line
from .tree import DecisionTree, depth_of, interior_weight_sum

# ----------------------------------------------------------------------------
# classification
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class VertexLabel:
    node_id: int
    depth: int
    weight: Number              # p(v)
    minority: Number            # p^-(v)
    majority_answer: int
    majority_child_id: int
    levels: tuple[int, ...]     # the s at which this vertex is imbalanced
    balanced: bool
    heavy: int | None           # the unique h with p_h > p^-(v), if any
    q: Number                   # p_heavy, or 0


@dataclass(frozen=True)
class VertexLabels:
    """Interior-vertex labels for one (tree, instance, delta) triple.

    Indexed by node id; leaves are not labeled (they carry q = 0 and no
    split, so nothing in the analysis ever asks about them).  `zero` is the
    instance's typed zero, the start of every weight sum over the labels.
    """

    delta: Number
    s_max: float
    s_levels: tuple[int, ...]
    powers: tuple[Number, ...]
    labels: dict[int, VertexLabel]
    zero: Number

    def __getitem__(self, node_id: int) -> VertexLabel:
        return self.labels[node_id]

    def items(self):
        return self.labels.items()

    def values(self):
        return self.labels.values()

    def level_members(self, s: int) -> tuple[int, ...]:
        """Node ids imbalanced at level s, in preorder."""
        return tuple(i for i, lab in self.labels.items() if s in lab.levels)

    def balanced_weight(self) -> Number:
        return sum((lab.weight for lab in self.labels.values() if lab.balanced),
                   start=self.zero)

    def imbalanced_weight(self) -> Number:
        return sum((lab.weight for lab in self.labels.values() if not lab.balanced),
                   start=self.zero)

    def heavy_weight(self) -> Number:
        return sum((lab.q for lab in self.labels.values()),
                   start=self.zero)

    def __repr__(self) -> str:
        imb = sum(1 for lab in self.labels.values() if not lab.balanced)
        return (f"VertexLabels(delta={self.delta}, {len(self.labels)} interior, "
                f"{imb} imbalanced, levels 1..{len(self.s_levels)})")


def _level_range(delta: Number, p_min: Number):
    """Levels 1..ceil(s_max) together with delta^s, computed exactly.

    All s with delta^s >= p_min are kept; one extra level is appended when
    s_max is not an integer (i.e. the last kept power is still > p_min), which
    realizes the ceiling without trusting float logs at the boundary.
    """
    if p_min >= 1:
        return (), ()
    levels: list[int] = []
    powers: list[Number] = []
    s, power = 1, delta
    while power >= p_min:
        levels.append(s)
        powers.append(power)
        s += 1
        power = power * delta
    if not levels or powers[-1] > p_min:
        levels.append(s)
        powers.append(power)
    return tuple(levels), tuple(powers)


def greediness_problems(tree: DecisionTree, inst: DTInstance) -> list[str]:
    """Splits where some other test achieves a strictly smaller max part.

    Empty list == every interior split is greedy-optimal (tie-breaks are not
    checked: any choice attaining the minimum satisfies the analysis).
    """
    problems = []
    for rec in tree.interior_records():
        parts = majority_parts(inst, rec.node.mask)
        own = parts[rec.node.test - 1][2]
        if own is None:
            problems.append(f"node {rec.id}: test {rec.node.test} does not split its set")
            continue
        for j, (_, _, other) in enumerate(parts, start=1):
            if other is not None and other < own:
                problems.append(
                    f"node {rec.id}: test {j} beats test {rec.node.test} "
                    f"({other} < {own} raw max-part)")
                break
    return problems


def classify_vertices(tree: DecisionTree, inst: DTInstance,
                      delta: Number) -> VertexLabels:
    """Label every interior vertex of a greedy tree at scale delta.

    Raises ParameterError on a non-greedy tree — the labels would be
    meaningless — and StructureError if some vertex has two heavy hypotheses,
    which no greedy split can produce.
    """
    if not 0 < delta < 1:
        raise ParameterError(f"delta must lie in (0,1), got {delta}")
    delta = inst.as_number(delta)
    p_min = inst.p_min
    if p_min <= 0:
        raise ParameterError("classification needs positive weights")
    bad = greediness_problems(tree, inst)
    if bad:
        raise ParameterError("not a greedy tree: " + bad[0])

    s_levels, powers = _level_range(delta, p_min)
    s_max = log2(1 / p_min) / log2(1 / delta)

    labels: dict[int, VertexLabel] = {}
    for rec in tree.interior_records():
        smask = rec.node.mask
        kplus, maj_mask = majority_split(inst, smask, rec.node.test)
        maj_child = tree.child_id(rec.id, kplus)
        if maj_child is None:
            raise StructureError(f"node {rec.id} lacks a child for majority answer {kplus}")
        pv = inst.mask_weight(smask)
        pminus_num = inst.mask_num(smask & ~maj_mask)
        pminus = inst.num_to_weight(pminus_num)
        levels = tuple(s for s, power in zip(s_levels, powers)
                       if pminus <= power and pv > 2 * power)
        h = heavy_above(inst, smask, pminus_num)
        q = inst.weight_of(h) if h is not None else inst.zero
        labels[rec.id] = VertexLabel(
            node_id=rec.id, depth=rec.depth, weight=pv, minority=pminus,
            majority_answer=kplus, majority_child_id=maj_child,
            levels=levels, balanced=not levels, heavy=h, q=q)
    return VertexLabels(delta, s_max, s_levels, powers, labels, inst.zero)


def label_invariant_problems(labels: VertexLabels) -> list[str]:
    """Violations of the per-vertex facts the classification must satisfy:
    balanced vertices keep p^-(v) >= (delta/2) p(v)."""
    problems = []
    half = labels.delta / 2
    for lab in labels.values():
        if lab.balanced and lab.minority < half * lab.weight:
            problems.append(
                f"node {lab.node_id}: balanced but p^-={lab.minority} < "
                f"(delta/2)p(v)={half * lab.weight}")
    return problems


# ----------------------------------------------------------------------------
# chain decomposition
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainDecomposition:
    delta: Number
    s_max: float
    by_level: dict[int, tuple[tuple[int, ...], ...]]

    def chains_at(self, s: int) -> tuple[tuple[int, ...], ...]:
        return self.by_level.get(s, ())

    def iter_chains(self) -> Iterator[tuple[int, tuple[int, ...]]]:
        for s in sorted(self.by_level):
            for chain in self.by_level[s]:
                yield s, chain

    def __repr__(self) -> str:
        total = sum(len(cs) for cs in self.by_level.values())
        return f"ChainDecomposition(delta={self.delta}, {total} chains over {len(self.by_level)} levels)"


def chain_decomposition(labels: VertexLabels, tree: DecisionTree) -> ChainDecomposition:
    """Group each level's imbalanced vertices into maximal majority-edge paths.

    Verifies the structural fact that makes the grouping a partition: a
    level-s imbalanced vertex whose parent is also level-s imbalanced must be
    the parent's majority child.  Any violation raises StructureError, since
    every downstream inequality leans on it.
    """
    by_level: dict[int, tuple[tuple[int, ...], ...]] = {}
    for s in labels.s_levels:
        members = labels.level_members(s)
        if not members:
            continue
        member_set = set(members)
        chains: list[list[int]] = []
        chain_of: dict[int, int] = {}
        for v in members:                      # preorder: parents first
            pid = tree.node(v).parent_id
            if pid is not None and pid in member_set:
                if labels[pid].majority_child_id != v:
                    raise StructureError(
                        f"level-{s} imbalanced vertex {v} hangs off a "
                        f"non-majority edge of {pid}")
                ci = chain_of[pid]
                chains[ci].append(v)
                chain_of[v] = ci
            else:
                chain_of[v] = len(chains)
                chains.append([v])
        if sum(len(c) for c in chains) != len(members):
            raise StructureError(f"level-{s} chains do not partition the level")
        by_level[s] = tuple(tuple(c) for c in chains)
    return ChainDecomposition(labels.delta, labels.s_max, by_level)


# ----------------------------------------------------------------------------
# heavy paths
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class HeavyPath:
    h: int
    top_id: int          # highest vertex where h is heavy
    leaf_id: int         # h's leaf
    top_depth: int
    leaf_depth: int
    q: Number            # p_h

    @property
    def length(self) -> int:
        """Number of interior vertices where h is heavy."""
        return self.leaf_depth - self.top_depth


def _descent_ids(tree: DecisionTree, inst: DTInstance, h: int) -> list[int]:
    path = [0]
    rec = tree.node(0)
    while not rec.node.is_leaf:
        nxt = tree.child_id(rec.id, inst.answer_of(rec.node.test, h))
        if nxt is None:
            break
        path.append(nxt)
        rec = tree.node(nxt)
    return path


def heavy_paths(labels: VertexLabels, tree: DecisionTree,
                inst: DTInstance) -> dict[int, HeavyPath]:
    """Per hypothesis, the run of vertices where it is heavy.

    On a complete greedy tree the h-heavy vertices form a contiguous run down
    h's root-to-leaf path ending at the leaf's parent; anything else raises
    StructureError.  Hypotheses that are never heavy are absent from the map.
    """
    out: dict[int, HeavyPath] = {}
    for i in iter_bits(tree.root.mask):
        h = i + 1
        path = _descent_ids(tree, inst, h)
        end = tree.node(path[-1])
        if not end.node.is_leaf or end.node.mask != (1 << i):
            raise ParameterError(
                f"hypothesis {h} is not isolated at a leaf; heavy paths need a "
                f"complete tree")
        flags = [labels[v].heavy == h for v in path[:-1]]
        if not any(flags):
            continue
        top = flags.index(True)
        if not all(flags[top:]):
            raise StructureError(f"heavy vertices of {h} are not contiguous")
        out[h] = HeavyPath(h=h, top_id=path[top], leaf_id=path[-1],
                           top_depth=top, leaf_depth=len(path) - 1,
                           q=inst.weight_of(h))
    return out


def heavy_cover_instance(inst: DTInstance, tree: DecisionTree, top_id: int,
                         h: int):
    """The covering instance certifying a heavy run's length.

    Universe: everything consistent at the run's top except h itself.  One
    set per test: the elements answering differently from h (at a vertex where
    h is heavy this equals the complement of the test's majority class, but
    unlike the majority it stays well-defined on one-element universes).
    Returns (universe tuple, weight map, sets) ready for the cover routines.
    """
    smask = tree.node(top_id).node.mask
    if not (smask >> (h - 1)) & 1:
        raise ParameterError(f"hypothesis {h} is not consistent at node {top_id}")
    umask = smask & ~(1 << (h - 1))
    if umask == 0:
        raise ParameterError(f"empty cover universe for hypothesis {h}")
    universe = tuple(i + 1 for i in iter_bits(umask))
    weights: dict[int, Number] = {e: inst.weight_of(e) for e in universe}
    sets = []
    for j in range(1, inst.m + 1):
        h_class = inst.answer_masks(j)[inst.answer_of(j, h) - 1]
        sets.append(frozenset(i + 1 for i in iter_bits(umask & ~h_class)))
    return universe, weights, tuple(sets)


# ----------------------------------------------------------------------------
# bound evaluators
# ----------------------------------------------------------------------------

def theorem1_bound(n: int, p_min: Number, p_max: Number, c_opt: Number) -> float:
    """General-form guarantee on the greedy cost:
    (12*log2(1/p_min)/log2(C_opt) + ln(p_max/p_min)) * C_opt.

    `n` is accepted for symmetry with the uniform evaluator (there
    log2(1/p_min) = log2 n); the general form does not depend on it.
    """
    if c_opt <= 1:
        raise ParameterError("bound undefined for C_opt <= 1")
    if not 0 < p_min <= p_max:
        raise ParameterError("need 0 < p_min <= p_max")
    co = float(c_opt)
    return (12.0 * log2(1 / p_min) / math.log2(co) + ln(p_max / p_min)) * co


def uniform_binary_bound(n: int, c_opt: Number) -> float:
    """Uniform-weights, binary-tests form: 6*log2(n)/log2(C_opt) * C_opt."""
    if c_opt <= 1:
        raise ParameterError("bound undefined for C_opt <= 1")
    if n < 1:
        raise ParameterError("need n >= 1")
    co = float(c_opt)
    return 6.0 * math.log2(n) / math.log2(co) * co


def choose_delta(c_opt: Number | None = None, c_g: Number | None = None):
    """The scale the bound assembly wants: 1/C_opt when the exact optimum is
    known, else 1/C_G as a labeled proxy.  Returns (delta, is_proxy)."""
    basis, proxy = (c_opt, False) if c_opt is not None else (c_g, True)
    if basis is None:
        raise ParameterError("need C_opt or C_G to choose delta")
    if basis <= 1:
        raise ParameterError("delta undefined for cost <= 1")
    return 1 / basis, proxy


# ----------------------------------------------------------------------------
# audits
# ----------------------------------------------------------------------------

def greediness_audit(tree: DecisionTree, inst: DTInstance) -> AuditLine:
    bad = greediness_problems(tree, inst)
    return make_line("greedy_choice", len(bad), 0,
                     note=bad[0] if bad else "")


def monotonicity_audit(tree: DecisionTree, inst: DTInstance) -> AuditLine:
    """Minority mass never increases from an interior vertex to an interior
    child, on any edge.  Reports the number of violating edges."""
    minority: dict[int, Number] = {}
    for rec in tree.interior_records():
        _, maj = majority_split(inst, rec.node.mask, rec.node.test)
        minority[rec.id] = inst.mask_weight(rec.node.mask & ~maj)
    bad = 0
    worst = ""
    for rec in tree.interior_records():
        pid = rec.parent_id
        if pid is not None and pid in minority and minority[rec.id] > minority[pid]:
            bad += 1
            if not worst:
                worst = f"edge {pid}->{rec.id}"
    return make_line("minority_monotone", bad, 0, note=worst)


def entropy_audit(tree: DecisionTree, inst: DTInstance, delta: Number,
                  labels: VertexLabels | None = None) -> AuditLine:
    """Total balanced weight against (log2 n / log2(2/delta)) * (2/delta)."""
    if labels is None:
        labels = classify_vertices(tree, inst, delta)
    lhs = labels.balanced_weight()
    two_over = 2 / labels.delta
    rhs = math.log2(inst.n) / log2(two_over) * float(two_over)
    return make_line("balanced_entropy", lhs, rhs)


def imbalanced_audit(tree: DecisionTree, inst: DTInstance, delta: Number,
                     exact_c_opt: Number,
                     labels: VertexLabels | None = None) -> list[AuditLine]:
    """The inequality battery over imbalanced and heavy weight:

    - partition: balanced + imbalanced == total interior weight, exactly
    - uniform binary instances: imbalanced <= 4 log2(n)/log2(1/delta) * C_opt
    - any instance: imbalanced <= 4*s_max*(C_opt+1) + heavy weight
    - heavy weight <= (1 + ln(p_max/p_min)) * C_opt
    - heavy weight == sum over h of p_h * (heavy run length), exactly
    """
    if labels is None:
        labels = classify_vertices(tree, inst, delta)
    bal = labels.balanced_weight()
    imb = labels.imbalanced_weight()
    q_sum = labels.heavy_weight()
    lines = []

    interior = interior_weight_sum(tree, inst)
    lines.append(make_line("interior_partition", bal + imb, interior,
                           passed=close(bal + imb, interior)))

    if inst.uniform and inst.k == 2:
        rhs_u = 4.0 * math.log2(inst.n) / log2(1 / labels.delta) * float(exact_c_opt)
        lines.append(make_line("imbalanced_uniform", imb, rhs_u))

    rhs_w = 4.0 * labels.s_max * float(exact_c_opt + 1) + float(q_sum)
    lines.append(make_line("imbalanced_weighted", imb, rhs_w))

    rhs_q = (1.0 + ln(inst.p_max / inst.p_min)) * float(exact_c_opt)
    lines.append(make_line("heavy_sum", q_sum, rhs_q))

    paths = heavy_paths(labels, tree, inst)
    per_h = sum((hp.q * hp.length for hp in paths.values()),
                start=labels.zero)
    lines.append(make_line("heavy_identity", q_sum, per_h,
                           passed=close(q_sum, per_h)))
    return lines


def heavy_path_audit(tree: DecisionTree, inst: DTInstance,
                     opt_tree: DecisionTree,
                     labels: VertexLabels | None = None,
                     delta: Number = Fraction(1, 2)) -> list[AuditLine]:
    """Per heavy hypothesis, two independent routes to the run-length bound:

    - heavy_path: run length <= (1 + ln(p_max/p_min)) * d_opt(h), the depth
      of h in the supplied optimal tree
    - heavy_cover: the induced covering instance has an optimal cover no
      larger than d_opt(h)
    - heavy_cover_tight: run length <= (1 + ln(p*/min weight)) * ell_opt,
      the covering-theorem form with the instance's own parameters
    """
    from .setcover import greedy_cover_bound, max_set_weight, optimal_cover_size
    if labels is None:
        labels = classify_vertices(tree, inst, delta)
    ratio_term = 1.0 + ln(inst.p_max / inst.p_min)
    lines = []
    for h, hp in sorted(heavy_paths(labels, tree, inst).items()):
        d_opt = depth_of(opt_tree, inst, h)
        lines.append(make_line("heavy_path", hp.length, ratio_term * d_opt,
                               level=str(h)))
        universe, weights, sets = heavy_cover_instance(inst, tree, hp.top_id, h)
        try:
            ell = optimal_cover_size(universe, sets)
        except BudgetExceededError:
            lines.append(make_line("heavy_cover", None, None, level=str(h),
                                   passed=True, mandatory=False,
                                   note="skipped: cover search budget"))
            continue
        lines.append(make_line("heavy_cover", ell, d_opt, level=str(h)))
        bound = greedy_cover_bound(max_set_weight(weights, sets),
                                   min(weights.values()), ell)
        lines.append(make_line("heavy_cover_tight", hp.length, bound,
                               level=str(h)))
    return lines


def chain_mssc_audit(tree: DecisionTree, inst: DTInstance, delta: Number,
                     exact_c_opt: Number,
                     labels: VertexLabels | None = None) -> list[AuditLine]:
    """Chain-level covering checks at scale delta:

    - chain_order_greedy: the constructed ordering for each chain is greedy
      for its induced min-sum instance
    - chain_weight: chain weight minus heavy weight is at most the ordering's
      covering cost
    - level_mssc: per level, the optimal covering costs of the chains sum to
      at most C_opt (uniform) / C_opt + 1 (weighted)
    """
    if labels is None:
        labels = classify_vertices(tree, inst, delta)
    decomp = chain_decomposition(labels, tree)
    uniform = inst.uniform
    lines = []
    for s in sorted(decomp.by_level):
        level_total = labels.zero
        level_ok = True
        for chain in decomp.chains_at(s):
            m_inst = induced_mssc(inst, tree, chain)
            sol = chain_order(inst, tree, chain)
            lines.append(make_line("chain_order_greedy", None, None,
                                   level=str(s),
                                   passed=is_greedy_order(m_inst, sol.order),
                                   note=f"head {chain[0]}"))
            covered = sum((labels[v].weight - labels[v].q for v in chain),
                          start=labels.zero)
            lines.append(make_line("chain_weight", covered, sol.cost,
                                   level=str(s), note=f"head {chain[0]}"))
            try:
                level_total += mssc_optimal(m_inst).cost
            except BudgetExceededError:
                level_ok = False
        if level_ok:
            rhs = exact_c_opt if uniform else exact_c_opt + 1
            # The uniform C_opt form needs a test with >= 2 hypotheses on two
            # sides; pure isolation instances only satisfy the +1 slack form.
            binding = has_two_sided_test(inst) if uniform else True
            lines.append(make_line(
                "level_mssc", level_total, rhs, level=str(s),
                mandatory=binding,
                note="" if binding else "informational: no two-sided test"))
        else:
            lines.append(make_line("level_mssc", None, None, level=str(s),
                                   passed=True, mandatory=False,
                                   note="skipped: covering search budget"))
    return lines


def assembled_audit(tree: DecisionTree, inst: DTInstance,
                    exact_c_opt: Number) -> list[AuditLine]:
    """Plug delta = 1/C_opt into the balanced + imbalanced split and check the
    whole pipeline lands under the uniform binary closed form:

        C_G = balanced + imbalanced <= entropy RHS + imbalanced RHS
            <= 6 log2(n)/log2(C_opt) * C_opt

    Only meaningful on uniform binary instances with C_opt > 1.
    """
    if not (inst.uniform and inst.k == 2):
        raise ParameterError("bound assembly is for uniform binary instances")
    delta, _ = choose_delta(c_opt=exact_c_opt)
    labels = classify_vertices(tree, inst, delta)
    c_g = interior_weight_sum(tree, inst)

    ent = entropy_audit(tree, inst, delta, labels=labels)
    imb_rhs = 4.0 * math.log2(inst.n) / log2(1 / delta) * float(exact_c_opt)
    imb = labels.imbalanced_weight()
    assembled = ent.rhs + imb_rhs
    closed = uniform_binary_bound(inst.n, exact_c_opt)
    return [
        ent,
        make_line("imbalanced_uniform", imb, imb_rhs),
        make_line("assembled_bound", c_g, assembled),
        make_line("assembled_closed", assembled, closed,
                  passed=assembled <= closed + REL_TOL * max(1.0, closed)),
    ]
