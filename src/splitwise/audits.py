"""Audit battery: seeded end-to-end checks of every inequality and identity
the library's analysis machinery promises.

Each family is a function (ctx, seed, float_mode) that appends AuditLines to
the context.  Failing mandatory lines capture the instance (and tree, when
one exists) so a falsifier can be replayed from its serialized form.  The
battery is deterministic given (seed, float_mode, families).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .chains import (assembled_audit, choose_delta, classify_vertices,
                     entropy_audit, greediness_audit, heavy_path_audit,
                     imbalanced_audit, label_invariant_problems,
                     chain_mssc_audit, monotonicity_audit, theorem1_bound,
                     uniform_binary_bound)
from .errors import GenerationError, ParameterError
from .exact import ExactSolver, optimal_cost, optimal_tree
from .fulltree import FullTreeConfig, audit_trace, full_tree
from .generators import (REDUCTION_CASES, gen_grid_adversarial, gen_random,
                         gen_setcover_reduction, grid_certificate_tree,
                         grid_layout)
from .greedy import build_greedy_tree, greedy_choice
from .instance import DTInstance, close, round_weights, validate_instance
from .mssc import MsscInstance, is_greedy_order, mssc_cost, mssc_greedy, mssc_optimal
from .report import AuditLine, all_pass, make_line
from .setcover import greedy_cover_bound, max_set_weight, optimal_cover_size
from .tree import (DecisionTree, Entries, cost, grow, interior_weight_sum,
                   is_complete, tree_to_text)

# ----------------------------------------------------------------------------
# battery plumbing
# ----------------------------------------------------------------------------

@dataclass
class FailureArtifact:
    family: str
    line: AuditLine
    instance_text: str | None
    tree_text: str | None


@dataclass
class AuditContext:
    family: str
    inject_fault: bool = False      # negative control: corrupt one tree
    lines: list[AuditLine] = field(default_factory=list)
    failures: list[FailureArtifact] = field(default_factory=list)

    def add(self, line: AuditLine, inst: DTInstance | None = None,
            tree: DecisionTree | None = None) -> None:
        self.lines.append(line)
        if line.mandatory and not line.passed:
            self.failures.append(FailureArtifact(
                self.family, line,
                inst.to_text() if inst is not None else None,
                tree_to_text(tree) if tree is not None else None))

    def extend(self, lines, inst=None, tree=None) -> None:
        for line in lines:
            self.add(line, inst, tree)


def _tag(line: AuditLine, tag: str) -> AuditLine:
    note = f"{tag}; {line.note}" if line.note else tag
    return AuditLine(line.name, line.level, line.passed, line.lhs, line.rhs,
                     line.slack, line.mandatory, note)


def _holds(name: str, ok: bool, note: str = "") -> AuditLine:
    """A yes/no check as a line: 1 <= 1 when `ok`, else a failing 0 <= 1."""
    return make_line(name, int(ok), 1, passed=ok, note=note)


def _corpus(seed: int, count: int, *, n_lo=4, n_hi=12, m_hi=10, ks=(2, 3),
            profiles=("uniform", "skew", "two-tier"), float_mode=False):
    """Seeded instance stream; skips infeasible parameter draws."""
    rng = random.Random(seed)
    out = []
    attempts = 0
    while len(out) < count and attempts < 20 * count:
        attempts += 1
        n = rng.randrange(n_lo, n_hi + 1)
        K = rng.choice(ks)
        m_floor = max(2, math.ceil(math.log(max(n, 2), K)) + 1)
        m = rng.randrange(m_floor, max(m_hi, m_floor) + 1)
        profile = profiles[attempts % len(profiles)]
        try:
            inst = gen_random(n, m, K, seed=rng.randrange(1 << 30),
                              profile=profile, exact=not float_mode)
        except GenerationError:
            continue
        out.append((f"n={n} m={m} K={K} {profile}", inst))
    return out


def corrupt_interior_mask(tree: DecisionTree, which: int = 0) -> DecisionTree:
    """Rebuild the tree with one interior node's cached mask corrupted (a
    member bit cleared).  Negative control for the cost identity: descent
    depths are untouched, the interior weight sum is not."""
    targets = [rec.id for rec in tree.interior_records()]
    if not targets:
        raise ParameterError("no interior node to corrupt")
    victim = targets[which % len(targets)]
    entries = Entries()
    for rec in tree.records:
        entries.add(rec.test, rec.mask, rec.parent_id, rec.parent_answer)
    entries.masks[victim] &= entries.masks[victim] - 1   # drop the lowest member
    return DecisionTree(entries)


# ----------------------------------------------------------------------------
# families
# ----------------------------------------------------------------------------

def _family_identity(ctx: AuditContext, seed: int, float_mode: bool) -> None:
    for i, (tag, inst) in enumerate(_corpus(seed, 25, n_hi=16, m_hi=12,
                                            float_mode=float_mode)):
        tree = build_greedy_tree(inst)
        if ctx.inject_fault and i == 0:
            tree = corrupt_interior_mask(tree)
            tag = f"injected; {tag}"
        lhs = interior_weight_sum(tree, inst)
        rhs = cost(tree, inst).raw
        ctx.add(_tag(make_line("cost_identity", lhs, rhs,
                               passed=close(lhs, rhs)), tag), inst, tree)
    for tag, inst in _corpus(seed + 1, 6, n_hi=8, m_hi=7,
                             float_mode=float_mode):
        tree = optimal_tree(inst)
        lhs = interior_weight_sum(tree, inst)
        rhs = cost(tree, inst).raw
        ctx.add(_tag(make_line("cost_identity_opt", lhs, rhs,
                               passed=close(lhs, rhs)), tag), inst, tree)


def _family_monotone(ctx: AuditContext, seed: int, float_mode: bool) -> None:
    for tag, inst in _corpus(seed, 20, n_hi=14, float_mode=float_mode):
        tree = build_greedy_tree(inst)
        ctx.add(_tag(monotonicity_audit(tree, inst), tag), inst, tree)
        ctx.add(_tag(greediness_audit(tree, inst), tag), inst, tree)


def _family_greedy_bound(ctx: AuditContext, seed: int, float_mode: bool) -> None:
    for tag, inst in _corpus(seed, 20, n_lo=4, n_hi=9, m_hi=7,
                             float_mode=float_mode):
        c_opt = optimal_cost(inst)
        if c_opt <= 1:
            continue
        c_g = cost(build_greedy_tree(inst), inst).total
        rhs = theorem1_bound(inst.p_min, inst.p_max, c_opt)
        ctx.add(_tag(make_line("theorem1", c_g, rhs), tag), inst)
        if inst.uniform and inst.k == 2:
            ctx.add(_tag(make_line("uniform_binary", c_g,
                                   uniform_binary_bound(inst.n, c_opt)), tag),
                    inst)


def _family_entropy(ctx: AuditContext, seed: int, float_mode: bool) -> None:
    deltas = (0.5, 0.25) if float_mode else (Fraction(1, 2), Fraction(1, 4))
    for tag, inst in _corpus(seed, 15, n_hi=12, profiles=("uniform",),
                             float_mode=float_mode):
        tree = build_greedy_tree(inst)
        for delta in deltas:
            labels = classify_vertices(tree, inst, delta)
            ctx.add(_tag(entropy_audit(tree, inst, delta, labels),
                         f"{tag} delta={delta}"), inst, tree)
            bad = label_invariant_problems(labels)
            ctx.add(_tag(make_line("label_invariants", len(bad), 0,
                                   note="; ".join(bad[:2])),
                         f"{tag} delta={delta}"), inst, tree)


def _family_imbalanced(ctx: AuditContext, seed: int, float_mode: bool) -> None:
    for tag, inst in _corpus(seed, 15, n_lo=5, n_hi=9, m_hi=7,
                             float_mode=float_mode):
        c_opt = optimal_cost(inst)
        if c_opt <= 1:
            continue
        delta = choose_delta(c_opt)
        tree = build_greedy_tree(inst)
        ctx.extend((_tag(line, tag) for line in
                    imbalanced_audit(tree, inst, delta, c_opt)), inst, tree)


def _family_heavy(ctx: AuditContext, seed: int, float_mode: bool) -> None:
    for tag, inst in _corpus(seed, 15, n_lo=4, n_hi=8, m_hi=7,
                             profiles=("skew", "two-tier"),
                             float_mode=float_mode):
        tree = build_greedy_tree(inst)
        opt = optimal_tree(inst)
        ctx.extend((_tag(line, tag) for line in
                    heavy_path_audit(tree, inst, opt)), inst, tree)


def _family_chains(ctx: AuditContext, seed: int, float_mode: bool) -> None:
    for tag, inst in _corpus(seed, 12, n_lo=5, n_hi=10, m_hi=8,
                             profiles=("uniform", "skew"),
                             float_mode=float_mode):
        c_opt = optimal_cost(inst)
        if c_opt <= 1:
            continue
        delta = choose_delta(c_opt)
        tree = build_greedy_tree(inst)
        ctx.extend((_tag(line, tag) for line in
                    chain_mssc_audit(tree, inst, delta, c_opt)), inst, tree)


def _family_assembled(ctx: AuditContext, seed: int, float_mode: bool) -> None:
    for tag, inst in _corpus(seed, 12, n_lo=5, n_hi=10, m_hi=8, ks=(2,),
                             profiles=("uniform",), float_mode=float_mode):
        c_opt = optimal_cost(inst)
        if c_opt <= 1:
            continue
        tree = build_greedy_tree(inst)
        ctx.extend((_tag(line, tag) for line in
                    assembled_audit(tree, inst, c_opt)), inst, tree)


def _random_mssc(rng: random.Random, float_mode: bool) -> MsscInstance:
    u = rng.randrange(3, 9)
    elements = list(range(1, u + 1))
    n_sets = rng.randrange(2, 9)
    sets = []
    for _ in range(n_sets):
        size = rng.randrange(1, u + 1)
        sets.append(set(rng.sample(elements, size)))
    for e in elements:           # patch coverage
        if not any(e in s for s in sets):
            sets[rng.randrange(n_sets)].add(e)
    if float_mode:
        weights = [rng.uniform(0.1, 3.0) for _ in elements]
    else:
        weights = [Fraction(rng.randrange(1, 12)) for _ in elements]
    return MsscInstance(elements, weights, sets)


def _family_mssc(ctx: AuditContext, seed: int, float_mode: bool) -> None:
    if not float_mode:
        # exhaustive tiny universes: every family of <= 3 distinct nonempty
        # covering sets over a 3-element universe
        elements = (1, 2, 3)
        subsets = [frozenset(c) for size in (1, 2, 3)
                   for c in combinations(elements, size)]
        worst = 0.0
        cases = violations = 0
        for k in (1, 2, 3):
            for fam in combinations(subsets, k):
                if frozenset().union(*fam) != frozenset(elements):
                    continue
                inst = MsscInstance(elements, [Fraction(1)] * 3, fam)
                g = mssc_greedy(inst)
                opt = mssc_optimal(inst)
                cases += 1
                if g.cost > 4 * opt.cost:
                    violations += 1
                worst = max(worst, float(g.cost) / float(opt.cost))
        ctx.add(make_line("mssc_4approx_exhaustive", violations, 0,
                          note=f"{cases} families, worst ratio {worst:.3f}"))
    rng = random.Random(seed)
    for i in range(25):
        inst = _random_mssc(rng, float_mode)
        g = mssc_greedy(inst)
        opt = mssc_optimal(inst)
        tag = f"mssc #{i}: |U|={inst.n_elements} M={inst.n_sets}"
        ctx.add(_tag(make_line("mssc_4approx", g.cost, 4 * opt.cost), tag))
        recomputed = mssc_cost(inst, g.order)
        ctx.add(_tag(make_line("mssc_cost_route", g.cost, recomputed,
                               passed=close(g.cost, recomputed)), tag))
        ctx.add(_tag(_holds("mssc_greedy_order", is_greedy_order(inst, g)), tag))


def _family_setcover(ctx: AuditContext, seed: int, float_mode: bool) -> None:
    rng = random.Random(seed)
    for i in range(25):
        u = rng.randrange(3, 10)
        universe = frozenset(range(1, u + 1))
        n_sets = rng.randrange(2, 11)
        sets = []
        for _ in range(n_sets):
            size = rng.randrange(1, u + 1)
            sets.append(frozenset(rng.sample(sorted(universe), size)))
        missing = universe - frozenset().union(*sets)
        if missing:
            sets[0] = sets[0] | missing
        if float_mode:
            weights = {e: rng.uniform(0.2, 4.0) for e in universe}
        else:
            weights = {e: Fraction(rng.randrange(1, 9)) for e in universe}
        cover = MsscInstance(tuple(weights), tuple(weights.values()), sets)
        ell_opt = optimal_cover_size(cover)
        order = cover.greedy_completion()
        tag = f"cover #{i}: |U|={u} M={n_sets}"
        bound = greedy_cover_bound(max_set_weight(cover), min(cover.weights),
                                   ell_opt)
        ctx.add(_tag(make_line("setcover_bound", len(order), bound), tag))
        ctx.add(_tag(make_line("setcover_opt_le_greedy", ell_opt, len(order)),
                     tag))


def _family_fulltree(ctx: AuditContext, seed: int, float_mode: bool) -> None:
    for tag, inst in _corpus(seed, 8, n_lo=5, n_hi=9, m_hi=7,
                             float_mode=float_mode):
        alpha = 0.5
        if inst.uniform:
            cfg = FullTreeConfig(alpha=alpha, mode="uniform", n0=4)
        else:
            cfg = FullTreeConfig(alpha=alpha, mode="general",
                                 ratio_bound=inst.weight_ratio())
        solver = ExactSolver(inst)
        tree, trace = full_tree(inst, cfg, solver=solver)
        c_opt = solver.optimal_cost()
        ctx.add(_tag(_holds("fulltree_complete", is_complete(tree, inst)), tag),
                inst, tree)
        ctx.extend((_tag(line, tag) for line in
                    audit_trace(trace, inst, c_opt)), inst, tree)
    # forced small budget + huge keep-greedy threshold: every call expands,
    # so grafting and multi-level recursion run at small n (the formula
    # budget would finish in one expansion).  Only budget-independent lines
    # are asserted.
    forced = FullTreeConfig(alpha=0.5, mode="uniform", n0=4, b=2, threshold=1e9)
    for tag, inst in _corpus(seed + 1, 6, n_lo=8, n_hi=12, m_hi=8,
                             profiles=("uniform",), float_mode=float_mode):
        solver = ExactSolver(inst)
        tree, trace = full_tree(inst, forced, solver=solver)
        c_opt = solver.optimal_cost()
        keep = ("family_disjoint", "cost_decomposition", "level_contribution")
        for line in audit_trace(trace, inst, c_opt):
            if line.name in keep:
                ctx.add(_tag(line, f"{tag} b=2"), inst, tree)
        ctx.add(_tag(_holds("fulltree_complete", is_complete(tree, inst)),
                     f"{tag} b=2"), inst, tree)


def _family_grid(ctx: AuditContext, seed: int, float_mode: bool) -> None:
    inst = gen_grid_adversarial(16, 4)
    lay = grid_layout(16, 4)
    report = validate_instance(inst)
    ctx.add(_holds("grid_valid", report.ok, note="; ".join(report.problems)),
            inst)
    first = greedy_choice(inst, inst.full_mask)
    in_type4 = lay.type4_index(1) <= first <= lay.type4_index(len(lay.good_sets))
    ctx.add(make_line("grid_greedy_type4", first, None, passed=in_type4,
                      note=f"type-4 tests are {lay.type4_index(1)}.."
                           f"{lay.type4_index(len(lay.good_sets))}"), inst)
    cert = grid_certificate_tree(inst, lay)
    ctx.add(_holds("grid_cert_complete", is_complete(cert, inst)), inst, cert)
    cert_cost = cost(cert, inst).total
    ctx.add(make_line("grid_cert_bound", cert_cost, 4 * lay.c_star),
            inst, cert)
    c_opt = optimal_cost(inst)
    ctx.add(make_line("grid_opt_le_cert", c_opt, cert_cost), inst, cert)
    degenerate = gen_grid_adversarial(16, 16)
    ctx.add(_holds("grid_degenerate_valid", validate_instance(degenerate).ok),
            degenerate)


def _family_reduction(ctx: AuditContext, seed: int, float_mode: bool) -> None:
    for n0, sets, r in REDUCTION_CASES:
        inst, meta = gen_setcover_reduction(n0, sets, r)
        tag = f"n0={n0} M={len(sets)} r={r}"
        ctx.add(_tag(make_line("reduction_weight_sum", sum(inst.weights), 1,
                               passed=sum(inst.weights) == 1), tag), inst)
        ctx.add(_tag(make_line("reduction_ratio", inst.weight_ratio(),
                               meta.ratio,
                               passed=inst.weight_ratio() == meta.ratio),
                     tag), inst)
        b_opt = optimal_cover_size(
            MsscInstance(range(1, n0 + 1), [1] * n0, sets))
        c_opt = optimal_cost(inst)
        lo = Fraction(meta.q * b_opt, 2)
        hi = 3 * meta.q * b_opt
        ctx.add(_tag(make_line("reduction_sandwich_low", lo, c_opt,
                               passed=lo < c_opt), tag), inst)
        ctx.add(_tag(make_line("reduction_sandwich_high", c_opt, hi,
                               passed=c_opt < hi), tag), inst)


def _random_partial_tree(inst: DTInstance, rng: random.Random,
                         max_depth: int) -> DecisionTree:
    """A tree of depth at most max_depth that splits each set on a test drawn
    uniformly from those that split it; the rule's context is the depth."""
    def rule(mask: int, depth: int):
        if mask.bit_count() <= 1 or depth >= max_depth:
            return None
        useful = [j for j in range(1, inst.m + 1) if len(inst.split(mask, j)) >= 2]
        if not useful:
            return None
        return useful[rng.randrange(len(useful))], depth + 1

    return grow(inst, inst.full_mask, rule, 0)


def _family_rounding(ctx: AuditContext, seed: int, float_mode: bool) -> None:
    rng = random.Random(seed)
    for tag, inst in _corpus(seed, 15, n_lo=2, n_hi=8, m_hi=6,
                             profiles=("skew", "two-tier"),
                             float_mode=float_mode):
        rounded = round_weights(inst)
        n = inst.n
        floor = (Fraction(1, n * (n - 1)) if rounded.exact
                 else 1.0 / (n * (n - 1)) - 1e-12)
        ctx.add(_tag(make_line("rounding_floor", floor, rounded.p_min), tag),
                rounded)
        trees = [build_greedy_tree(inst)]
        for _ in range(5):
            trees.append(_random_partial_tree(inst, rng, max_depth=4))
        drift = max(abs(cost(t, rounded).total - cost(t, inst).total)
                    for t in trees)
        ctx.add(_tag(make_line("rounding_drift", drift,
                               1 if rounded.exact else 1.0 + 1e-9), tag),
                inst)


FAMILIES = {
    "identity": _family_identity,
    "monotone": _family_monotone,
    "greedy-bound": _family_greedy_bound,
    "entropy": _family_entropy,
    "imbalanced": _family_imbalanced,
    "heavy": _family_heavy,
    "chains": _family_chains,
    "assembled": _family_assembled,
    "mssc": _family_mssc,
    "setcover": _family_setcover,
    "fulltree": _family_fulltree,
    "grid": _family_grid,
    "reduction": _family_reduction,
    "rounding": _family_rounding,
}


@dataclass
class BatteryResult:
    lines: list[AuditLine]
    failures: list[FailureArtifact]
    families_run: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return all_pass(self.lines)


def run_battery(seed: int = 0, only=None, float_mode: bool = False,
                inject_fault: bool = False) -> BatteryResult:
    """Run audit families (all by default; `only` filters by name substring).

    inject_fault corrupts one interior mask in the identity family as a
    negative control — the battery must then fail, with exactly one failing
    `cost_identity` line whose note is tagged `injected`.  Its serialized
    tree does not reproduce the failure: tree text carries no masks and
    they are recomputed on parse.  Asking for inject_fault without the
    identity family is a ParameterError, since nothing would be corrupted.
    """
    if only is not None:
        wanted = [name for name in FAMILIES
                  if any(sel in name for sel in only)]
        if not wanted:
            raise ParameterError(
                f"no audit family matches {only!r}; have {list(FAMILIES)}")
    else:
        wanted = list(FAMILIES)
    if inject_fault and "identity" not in wanted:
        raise ParameterError(
            f"inject_fault needs the identity family; selected {wanted}")
    lines: list[AuditLine] = []
    failures: list[FailureArtifact] = []
    for i, name in enumerate(wanted):
        ctx = AuditContext(name, inject_fault)
        FAMILIES[name](ctx, seed * 1009 + i * 101, float_mode)
        lines.extend(ctx.lines)
        failures.extend(ctx.failures)
    return BatteryResult(lines, failures, tuple(wanted))
