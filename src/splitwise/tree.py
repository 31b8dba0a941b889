"""Decision trees: entries, the one tree index, consistency sets, cost
formulas, serialization.

Builders write a tree as `Entries`, one entry per node: its test (None for a
leaf), its cached set L(v) of hypotheses consistent with the root-to-node
path, its parent entry and the answer on the parent edge.  `DecisionTree`,
made from entries and nothing else, indexes them once: record i is node i in
preorder, children in ascending answer order, so a document's children in
any order (JSON children, text siblings) and hand-built entries index like
entries written in preorder.  Absent children are legal for answers no
consistent hypothesis takes.  Depth of the root is 0.

Every builder is a split rule handed to `grow`: greedy, the exact and
depth-budgeted optimum, the fulltree driver, the rounding audit's random
trees and the grid certificate differ only in how they pick the test at a
set, which `grow` cuts into its parts with `DTInstance.split`.  Every
rebuild (a parsed document, a corrupted copy) writes entries; a document's
sets are rebuilt from all of its instance's hypotheses.  No builder and no
walker recurses, so chain-shaped trees thousands of levels deep round-trip
through text and JSON.

Two cost routes are kept deliberately separate so they can cross-check each
other: `cost` replays H's answer sets down the tree in one preorder pass,
each record's set cut by its test's answer masks, by the rules of
`descent`, which walks one hypothesis down by its answers (the
deepest-consistent-vertex definition); neither reads the cached masks.
`interior_weight_sum` adds up cached interior set weights.  On a complete
tree the two must agree exactly in rational mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator

from .errors import FormatError, IncompleteTreeError, ParameterError, StructureError
from .instance import (DTInstance, Number, SetLike, content_lines, iter_bits,
                       json_int, left_sum, members_of)


class Entries:
    """A tree under construction in four columns, one entry per node: test
    (None for a leaf), set, parent's entry index (None for the root) and
    answer on the parent edge; a parent comes before its children.  Not a
    tuple per node: thousands of tuples freed at once stay on the tuple free
    list and fragment the heap for whatever runs next."""

    __slots__ = ("tests", "masks", "parents", "answers")

    def __init__(self):
        self.tests, self.masks, self.parents, self.answers = [], [], [], []

    def add(self, test: int | None, mask: int | None, parent: int | None,
            answer: int | None) -> int:
        """Append one entry; returns its index."""
        self.tests.append(test)
        self.masks.append(mask)
        self.parents.append(parent)
        self.answers.append(answer)
        return len(self.tests) - 1


def grow(inst: DTInstance, mask: int,
         rule: Callable[[int, Any], tuple[int, Any] | None],
         ctx: Any = None) -> DecisionTree:
    """The tree `rule` makes of `mask`, built top-down from an explicit stack.
    `rule(set, ctx)` returns None for a leaf, or the set's test and the ctx
    of its parts: its nonempty answer sets, visited in preorder and answer
    order (so a rule that draws random numbers draws in a fixed order).  A
    test that leaves the set whole raises StructureError, not a loop.  The
    rule is dropped before the entries are indexed, where a build's memory
    peaks, so what it holds is freed first unless the caller keeps it."""
    entries = Entries()
    stack: list[tuple[int, int | None, int | None, Any]] = [(mask, None, None, ctx)]
    while stack:
        s, parent, answer, c = stack.pop()
        choice = rule(s, c)
        if choice is None:
            entries.add(None, s, parent, answer)
            continue
        test, sub = choice
        parts = inst.split(s, test)
        if len(parts) < 2:
            raise StructureError(
                f"test {test} does not split a set of size {s.bit_count()}")
        idx = entries.add(test, s, parent, answer)
        stack.extend((part, idx, a, sub) for a, part in reversed(parts))
    del rule
    return DecisionTree(entries)


@dataclass(frozen=True, slots=True)
class NodeRecord:
    id: int
    test: int | None             # None for a leaf
    mask: int                    # L(v), the cached consistency set
    depth: int
    parent_id: int | None
    parent_answer: int | None
    child_ids: tuple[int, ...]   # in ascending answer order

    @property
    def is_leaf(self) -> bool:
        return self.test is None


class DecisionTree:
    """A finalized tree: preorder-indexed, immutable."""

    __slots__ = ("root", "records")

    def __init__(self, entries: Entries):
        """Index entry 0 and its descendants in preorder, children in
        ascending answer order (later entry first on equal answers).  A
        backward pass sums subtree sizes; a forward pass, parents first,
        gives each parent's children their record ids from those sizes, and
        each record its parent's depth plus one.  A leaf with children, or
        an interior entry without, raises ParameterError, the first such
        record in preorder."""
        tests, masks, parents, answers = (entries.tests, entries.masks,
                                          entries.parents, entries.answers)
        count = len(tests)
        kids: dict[int, list[int]] = {}
        size = [1] * count
        for idx in range(count - 1, 0, -1):
            parent = parents[idx]
            size[parent] += size[idx]
            kids.setdefault(parent, []).append(idx)
        # an entry's size is read for the last time when its parent's
        # children get their ids, so from then on its slot holds its id
        rids = size
        rids[0] = 0
        recs: list[NodeRecord] = [None] * count
        bad = []        # (record id, message) of each misplaced entry
        for idx, test in enumerate(tests):
            rid = rids[idx]
            ch = kids.pop(idx, None)
            cids = ()
            if ch is not None:
                if test is None:
                    bad.append((rid, f"leaf entry {idx} has children"))
                ch.sort(key=answers.__getitem__)   # stable: later entries first
                cids = [rid + 1]
                for c in ch[:-1]:
                    cids.append(cids[-1] + size[c])
                for c, cid in zip(ch, cids):
                    rids[c] = cid
                cids = tuple(cids)      # from a list: sized exactly
            elif test is not None:
                bad.append((rid, f"interior entry {idx} (test {test}) has no children"))
            parent = parents[idx]
            if parent is None:
                recs[rid] = NodeRecord(rid, test, masks[idx], 0, None, None, cids)
            else:
                pid = rids[parent]
                recs[rid] = NodeRecord(rid, test, masks[idx], recs[pid].depth + 1,
                                       pid, answers[idx], cids)
        if bad:
            raise ParameterError(min(bad)[1])
        self.records = tuple(recs)
        self.root = recs[0]

    def __len__(self) -> int:
        return len(self.records)

    def node(self, node_id: int) -> NodeRecord:
        if not 0 <= node_id < len(self.records):
            raise ParameterError(f"no node with id {node_id}")
        return self.records[node_id]

    def child_id(self, node_id: int, answer: int) -> int | None:
        """Id of node_id's child on `answer`, or None when there is none."""
        recs = self.records
        for cid in self.node(node_id).child_ids:
            if recs[cid].parent_answer == answer:
                return cid
        return None

    def depth(self) -> int:
        return max(rec.depth for rec in self.records)

    def leaves(self) -> Iterator[NodeRecord]:
        return (rec for rec in self.records if rec.test is None)

    def interior_records(self) -> Iterator[NodeRecord]:
        return (rec for rec in self.records if rec.test is not None)

    def __repr__(self) -> str:
        return f"DecisionTree({len(self.records)} nodes, depth {self.depth()})"


# ----------------------------------------------------------------------------
# consistency sets
# ----------------------------------------------------------------------------

def recompute_masks(tree: DecisionTree, inst: DTInstance) -> dict[int, int]:
    """Path-replay oracle: rebuild every L(v) from the root's set and the
    instance alone."""
    recs = tree.records
    masks = {0: tree.root.mask}
    for rec in recs[1:]:
        pre = inst.answer_mask(recs[rec.parent_id].test, rec.parent_answer)
        masks[rec.id] = masks[rec.parent_id] & pre
    return masks


def verify_caches(tree: DecisionTree, inst: DTInstance) -> None:
    """Recompute all consistency sets and compare against the cached masks."""
    fresh = recompute_masks(tree, inst)
    for rec in tree.records:
        if rec.mask != fresh[rec.id]:
            raise StructureError(
                f"node {rec.id}: cached set {members_of(rec.mask)} "
                f"!= replayed set {members_of(fresh[rec.id])}"
            )


def structural_problems(tree: DecisionTree, inst: DTInstance) -> list[str]:
    """Invariant scan: partition property, nonempty sets, no useless tests."""
    problems = []
    recs = tree.records
    for rec in recs:
        if rec.mask == 0:
            problems.append(f"node {rec.id}: empty consistent set")
        if rec.is_leaf:
            continue
        seen = set()
        union = 0
        for cid in rec.child_ids:
            child = recs[cid]
            answer = child.parent_answer
            if not 1 <= answer <= inst.k:
                problems.append(f"node {rec.id}: child answer {answer} outside 1..{inst.k}")
            if answer in seen:
                problems.append(f"node {rec.id}: duplicate child answer {answer}")
            seen.add(answer)
            expected = rec.mask & inst.answer_mask(rec.test, answer)
            if child.mask != expected:
                problems.append(f"node {rec.id}: child mask mismatch on answer {answer}")
            if union & child.mask:
                problems.append(f"node {rec.id}: children overlap")
            union |= child.mask
        if union != rec.mask:
            problems.append(f"node {rec.id}: children do not partition the node set")
        if len(rec.child_ids) == 1 and recs[rec.child_ids[0]].mask == rec.mask:
            problems.append(f"node {rec.id}: useless test {rec.test}")
    return problems


# ----------------------------------------------------------------------------
# cost
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class CostBreakdown:
    total: Number          # (1/p(H)) * sum_h p_h * d_T(h)
    raw: Number            # sum_h p_h * d_T(h), unnormalized
    depths: dict[int, int]  # 1-based hypothesis -> d_T(h)
    normalizer: Number     # p(H)


def descent(tree: DecisionTree, inst: DTInstance, h: int) -> list[NodeRecord]:
    """The records from the root down h's answers to the deepest vertex
    consistent with h (answer descent, never the cached masks).  The
    answers are read from `inst.tests` directly, each test id checked
    against 1..m on the way down, so a hand-built tree naming a test the
    instance lacks raises ParameterError rather than reading another row."""
    if not 1 <= h <= inst.n:
        raise ParameterError(f"hypothesis {h} outside 1..{inst.n}")
    recs, rows, m = tree.records, inst.tests, inst.m
    rec = recs[0]
    path = [rec]
    while (test := rec.test) is not None:
        if not 0 < test <= m:
            raise ParameterError(f"test {test} outside 1..{m}")
        answer = rows[test - 1][h - 1]
        for cid in rec.child_ids:
            if recs[cid].parent_answer == answer:
                break
        else:           # no child takes this answer
            break
        rec = recs[cid]
        path.append(rec)
    return path


def depth_of(tree: DecisionTree, inst: DTInstance, h: int) -> int:
    """d_T(h): depth of the deepest vertex consistent with h."""
    return descent(tree, inst, h)[-1].depth


def cost(tree: DecisionTree, inst: DTInstance, H: SetLike = None) -> CostBreakdown:
    """Weighted average depth of H under the tree.

    Depths come from answers, never from cached masks, so this side of the
    Lemma-style cost identity cannot be fooled by corrupted caches: H's
    answer sets are replayed top-down by `descent`'s rules.  A record's set
    goes, child by child in ascending answer order, to the first child
    whose answer its members give; the members no child takes stop at the
    record.  A test id outside 1..m that some member reaches raises
    ParameterError, naming the one the lowest such member meets, as one
    `descent` per member in ascending order would.  Each record's set is
    dropped when the record is reached, so only the sets of the walk's
    frontier are alive.
    """
    hmask = inst.as_mask(H)
    if hmask == 0:
        raise ParameterError("cost undefined for an empty hypothesis set")
    recs, amasks, m = tree.records, inst._answer_masks, inst.m
    sets = {0: hmask}
    stops: list[int | None] = [None] * hmask.bit_length()   # depth by index
    bad = []        # (lowest member, test id) of each bad test reached
    for rec in recs:
        s = sets.pop(rec.id, 0)
        if not s:
            continue
        test = rec.test
        if test is not None:
            if not 0 < test <= m:
                bad.append(((s & -s).bit_length(), test))
                continue
            masks = amasks[test - 1]
            for cid in rec.child_ids:
                a = recs[cid].parent_answer
                if 0 < a <= len(masks) and (part := s & masks[a - 1]):
                    sets[cid] = part
                    s ^= part
                    if not s:
                        break
        for i in iter_bits(s):
            stops[i] = rec.depth
    if bad:         # `descent`'s error for the lowest member that meets one
        raise ParameterError(f"test {min(bad)[1]} outside 1..{m}")
    depths: dict[int, int] = {}
    raw_num = 0
    wn = inst._wnum
    for i, d in enumerate(stops):
        if d is not None:
            depths[i + 1] = d
            raw_num += wn[i] * d
    norm_num = inst.mask_num(hmask)
    if norm_num == 0:
        raise ParameterError("cost undefined for a weight-zero hypothesis set")
    raw, norm = inst.num_to_weight(raw_num), inst.num_to_weight(norm_num)
    return CostBreakdown(raw / norm, raw, depths, norm)


def is_complete(tree: DecisionTree, inst: DTInstance, H: SetLike = None,
                b: int | None = None) -> bool:
    """True iff every h in H is isolated at some leaf (L(v) ∩ H = {h}) or
    already reaches depth >= b.  b=None means no depth escape (infinity)."""
    hmask = inst.as_mask(H) if H is not None else tree.root.mask
    separated = 0
    for rec in tree.leaves():
        inter = rec.mask & hmask
        if inter and inter & (inter - 1) == 0:
            separated |= inter
    pending = hmask & ~separated
    if pending == 0:
        return True
    if b is None:
        return False
    return all(depth_of(tree, inst, i + 1) >= b for i in iter_bits(pending))


def interior_weight_sum(tree: DecisionTree, inst: DTInstance) -> Number:
    """Sum of p(v) over interior vertices; equals the cost exactly on complete
    trees (both computed against the tree's own root set)."""
    if not is_complete(tree, inst):
        raise IncompleteTreeError("identity requires completeness")
    return inst.num_to_weight(left_sum(
        (inst.mask_num(rec.mask) for rec in tree.interior_records()), 0))


# ----------------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------------

def tree_to_text(tree: DecisionTree) -> str:
    """Preorder lines: `node_id depth kind parent_answer` with kind either
    `test <j>` or `leaf`; the root's parent answer prints as `-`."""
    lines = []
    for rec in tree.records:
        pans = "-" if rec.parent_answer is None else str(rec.parent_answer)
        if rec.is_leaf:
            lines.append(f"{rec.id} {rec.depth} leaf {pans}")
        else:
            lines.append(f"{rec.id} {rec.depth} test {rec.test} {pans}")
    lines.append("")
    return "\n".join(lines)


def tree_to_json_obj(tree: DecisionTree) -> dict:
    objs: list[dict] = []
    for rec in tree.records:
        obj = {"leaf": True} if rec.is_leaf else {"test": rec.test, "children": []}
        objs.append(obj)
        if rec.parent_id is not None:
            objs[rec.parent_id]["children"].append([rec.parent_answer, obj])
    return objs[0]


def _attach_masks(shape: Entries, inst: DTInstance) -> DecisionTree:
    """Check a shape read from a document (entries whose masks are still
    None) against the instance, fill in every mask top-down from all of its
    hypotheses, and index the tree.  Two children on one answer raise
    FormatError."""
    tests, masks, parents, answers = shape.tests, shape.masks, shape.parents, shape.answers
    taken = [0] * len(tests)    # per entry, a bit for each child answer seen
    for idx, (test, parent, answer) in enumerate(zip(tests, parents, answers)):
        mask = inst.full_mask
        if parent is not None:
            ptest = tests[parent]
            if ptest is None:
                raise FormatError("leaf node with children")
            if not 1 <= answer <= inst.k:
                raise FormatError(f"answer {answer} outside 1..{inst.k}")
            if taken[parent] >> answer & 1:
                raise FormatError(f"two children on answer {answer} of test {ptest}")
            taken[parent] |= 1 << answer
            mask = masks[parent] & inst.answer_mask(ptest, answer)
            if mask == 0:
                raise StructureError(
                    f"serialized tree inconsistent with instance: empty set under "
                    f"test {ptest} answer {answer}"
                )
        if test is not None:
            if not 1 <= test <= inst.m:
                raise FormatError(f"test {test} outside 1..{inst.m}")
            if idx + 1 == len(tests) or parents[idx + 1] != idx:
                raise FormatError(f"interior node (test {test}) with no children")
        masks[idx] = mask
    del taken       # before indexing, where a parse peaks in memory
    return DecisionTree(shape)


def tree_from_text(text: str, inst: DTInstance) -> DecisionTree:
    """Parse the preorder text form, a leaf line of 4 tokens or a test line
    of 5 per node; consistency sets are recomputed against `inst`."""
    shape = Entries()
    path: list[int] = []    # entry index of the open ancestor at each depth
    for lineno, line in content_lines(text):
        toks = line.split()
        try:
            depth = int(toks[1])
            if toks[2] == "leaf" and len(toks) == 4:
                test, ptok = None, toks[3]
            elif toks[2] == "test" and len(toks) == 5:
                test, ptok = int(toks[3]), toks[4]
            else:
                raise ValueError("not a leaf line of 4 tokens or a test line of 5")
            pans = None if ptok == "-" else int(ptok)
        except (IndexError, ValueError) as exc:
            raise FormatError(f"tree line {lineno}: {exc}") from exc
        pos = len(shape.tests)
        if pos == 0 and (depth != 0 or pans is not None):
            raise FormatError("first line must be the root (depth 0, parent answer '-')")
        if pos and not 1 <= depth <= len(path):
            raise FormatError(f"dangling entries after preorder walk (at {pos})")
        if pos and pans is None:
            raise FormatError(f"non-root entry {pos} lacks a parent answer")
        del path[depth:]
        shape.add(test, None, path[-1] if path else None, pans)
        path.append(pos)
    if not path:
        raise FormatError("empty tree document")
    return _attach_masks(shape, inst)


def tree_from_json_obj(obj: dict, inst: DTInstance) -> DecisionTree:
    """Parse the nested JSON form, where a leaf is `{"leaf": true}`;
    consistency sets are recomputed against `inst`."""
    shape = Entries()
    stack = [(obj, None, None)]
    while stack:
        o, parent, answer = stack.pop()
        if not isinstance(o, dict):
            raise FormatError("tree nodes must be objects")
        kids = []
        if "leaf" in o:
            if o["leaf"] is not True:
                raise FormatError(f"'leaf' must be true, got {o['leaf']!r}")
            if "test" in o or "children" in o:
                raise FormatError("leaf nodes carry no 'test' or 'children'")
            test = None
        elif "test" not in o:
            raise FormatError("interior node missing 'test'")
        else:
            test = json_int(o["test"], "test")
            try:
                kids = [(json_int(a, "answer"), sub)
                        for a, sub in o.get("children", [])]
            except (TypeError, ValueError) as exc:
                raise FormatError(f"bad interior node: {exc}") from exc
        idx = shape.add(test, None, parent, answer)
        stack.extend((sub, idx, a) for a, sub in reversed(kids))
    return _attach_masks(shape, inst)
