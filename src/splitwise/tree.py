"""Decision trees: nodes, consistency sets, cost formulas, serialization.

A tree node stores its test (or None for a leaf), its children as
(answer, child) pairs in ascending answer order, and a cached bitmask of the
hypotheses consistent with the root-to-node path.  Absent children are legal
for answers no consistent hypothesis takes.  Depth of the root is 0.

`DecisionTree` indexes a finished tree once, in preorder: record i holds node
i's depth, its parent's id and answer, and the ids of its children, in the
order of `node.children`.  Walkers use these ids instead of rebuilding child
maps, and no walker recurses, so chain-shaped trees thousands of levels deep
round-trip through text and JSON.

Two cost routes are kept deliberately separate so they can cross-check each
other: `cost` walks each hypothesis down the tree by its answers (the
deepest-consistent-vertex definition, independent of the cached masks), while
`interior_weight_sum` adds up cached interior set weights.  On a complete tree
the two must agree exactly in rational mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import FormatError, IncompleteTreeError, ParameterError, StructureError
from .instance import DTInstance, Number, SetLike, iter_bits, members_of


class TreeNode:
    """Immutable tree node; build leaves/interiors bottom-up."""

    __slots__ = ("test", "children", "mask")

    def __init__(self, test: int | None, children: tuple[tuple[int, "TreeNode"], ...], mask: int):
        self.test = test
        self.children = children
        self.mask = mask

    @property
    def is_leaf(self) -> bool:
        return self.test is None

    def child(self, answer: int) -> "TreeNode | None":
        for a, node in self.children:
            if a == answer:
                return node
        return None

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else f"test {self.test}"
        return f"TreeNode({kind}, |L|={self.mask.bit_count()})"


def leaf(mask: int) -> TreeNode:
    return TreeNode(None, (), mask)


def interior(test: int, children: Iterable[tuple[int, TreeNode]], mask: int) -> TreeNode:
    kids = tuple(sorted(children, key=lambda pair: pair[0]))
    if not kids:
        raise ParameterError("interior node needs at least one child")
    return TreeNode(test, kids, mask)


@dataclass(frozen=True, slots=True)
class NodeRecord:
    id: int
    node: TreeNode
    depth: int
    parent_id: int | None
    parent_answer: int | None
    child_ids: tuple[int, ...]   # aligned with node.children


class DecisionTree:
    """A finalized tree: preorder-indexed, immutable."""

    __slots__ = ("root", "records")

    def __init__(self, root: TreeNode):
        self.root = root
        # Depth-first over the open interior nodes of the current root path:
        # (id, node, depth, parent id, parent answer, child ids so far,
        # children left).  A node's record is made once its last child is
        # done, when all its child ids are known; a leaf's at once.
        recs: list[NodeRecord | None] = [None]
        path = [(0, root, 0, None, None, [], iter(root.children))]
        while path:
            rid, node, depth, pid, pans, kids, rest = path[-1]
            nxt = next(rest, None)
            if nxt is None:
                path.pop()
                recs[rid] = NodeRecord(rid, node, depth, pid, pans, tuple(kids))
                continue
            answer, child = nxt
            cid = len(recs)
            kids.append(cid)
            if child.children:
                recs.append(None)
                path.append((cid, child, depth + 1, rid, answer, [], iter(child.children)))
            else:
                recs.append(NodeRecord(cid, child, depth + 1, rid, answer, ()))
        self.records = tuple(recs)

    def __len__(self) -> int:
        return len(self.records)

    def node(self, node_id: int) -> NodeRecord:
        if not 0 <= node_id < len(self.records):
            raise ParameterError(f"no node with id {node_id}")
        return self.records[node_id]

    def child_id(self, node_id: int, answer: int) -> int | None:
        """Id of node_id's child on `answer`, or None when there is none."""
        rec = self.node(node_id)
        for (a, _), cid in zip(rec.node.children, rec.child_ids):
            if a == answer:
                return cid
        return None

    def depth(self) -> int:
        return max(rec.depth for rec in self.records)

    def leaves(self) -> Iterator[NodeRecord]:
        return (rec for rec in self.records if rec.node.is_leaf)

    def interior_records(self) -> Iterator[NodeRecord]:
        return (rec for rec in self.records if not rec.node.is_leaf)

    def __repr__(self) -> str:
        return f"DecisionTree({len(self.records)} nodes, depth {self.depth()})"


# ----------------------------------------------------------------------------
# consistency sets
# ----------------------------------------------------------------------------

def recompute_masks(tree: DecisionTree, inst: DTInstance, H: SetLike = None) -> dict[int, int]:
    """Path-replay oracle: rebuild every L(v) from the instance alone."""
    masks: dict[int, int] = {}
    root_mask = inst.as_mask(H) if H is not None else tree.root.mask
    for rec in tree.records:
        if rec.parent_id is None:
            masks[rec.id] = root_mask
        else:
            parent_mask = masks[rec.parent_id]
            pre = inst.answer_masks(tree.records[rec.parent_id].node.test)[rec.parent_answer - 1]
            masks[rec.id] = parent_mask & pre
    return masks


def verify_caches(tree: DecisionTree, inst: DTInstance) -> None:
    """Recompute all consistency sets and compare against the cached masks."""
    fresh = recompute_masks(tree, inst)
    for rec in tree.records:
        if rec.node.mask != fresh[rec.id]:
            raise StructureError(
                f"node {rec.id}: cached set {members_of(rec.node.mask)} "
                f"!= replayed set {members_of(fresh[rec.id])}"
            )


def structural_problems(tree: DecisionTree, inst: DTInstance) -> list[str]:
    """Invariant scan: partition property, nonempty sets, no useless tests."""
    problems = []
    for rec in tree.records:
        node = rec.node
        if node.mask == 0:
            problems.append(f"node {rec.id}: empty consistent set")
        if node.is_leaf:
            continue
        seen = set()
        union = 0
        for answer, child in node.children:
            if not 1 <= answer <= inst.k:
                problems.append(f"node {rec.id}: child answer {answer} outside 1..{inst.k}")
            if answer in seen:
                problems.append(f"node {rec.id}: duplicate child answer {answer}")
            seen.add(answer)
            expected = node.mask & inst.answer_masks(node.test)[answer - 1]
            if child.mask != expected:
                problems.append(f"node {rec.id}: child mask mismatch on answer {answer}")
            if union & child.mask:
                problems.append(f"node {rec.id}: children overlap")
            union |= child.mask
        if union != node.mask:
            problems.append(f"node {rec.id}: children do not partition the node set")
        if len(node.children) == 1 and node.children[0][1].mask == node.mask:
            problems.append(f"node {rec.id}: useless test {node.test}")
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


def depth_of(tree: DecisionTree, inst: DTInstance, h: int) -> int:
    """d_T(h): depth of the deepest vertex consistent with h (answer descent)."""
    if not 1 <= h <= inst.n:
        raise ParameterError(f"hypothesis {h} outside 1..{inst.n}")
    node = tree.root
    depth = 0
    while node.test is not None:
        nxt = node.child(inst.answer_of(node.test, h))
        if nxt is None:
            break
        node = nxt
        depth += 1
    return depth


def cost(tree: DecisionTree, inst: DTInstance, H: SetLike = None) -> CostBreakdown:
    """Weighted average depth of H under the tree.

    Depths come from answer descent, never from cached masks, so this side of
    the Lemma-style cost identity cannot be fooled by corrupted caches.
    """
    hmask = inst.as_mask(H)
    if hmask == 0:
        raise ParameterError("cost undefined for an empty hypothesis set")
    depths: dict[int, int] = {}
    raw_num = 0
    for i in iter_bits(hmask):
        d = depth_of(tree, inst, i + 1)
        depths[i + 1] = d
        raw_num += inst._wnum[i] * d
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
        inter = rec.node.mask & hmask
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
    if not is_complete(tree, inst, H=tree.root.mask, b=None):
        raise IncompleteTreeError("identity requires completeness")
    return inst.num_to_weight(
        sum(inst.mask_num(rec.node.mask) for rec in tree.interior_records()))


# ----------------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------------

def tree_to_text(tree: DecisionTree) -> str:
    """Preorder lines: `node_id depth kind parent_answer` with kind either
    `test <j>` or `leaf`; the root's parent answer prints as `-`."""
    lines = []
    for rec in tree.records:
        pans = "-" if rec.parent_answer is None else str(rec.parent_answer)
        if rec.node.is_leaf:
            lines.append(f"{rec.id} {rec.depth} leaf {pans}")
        else:
            lines.append(f"{rec.id} {rec.depth} test {rec.node.test} {pans}")
    return "\n".join(lines) + "\n"


def tree_to_json_obj(tree: DecisionTree) -> dict:
    objs: list[dict] = []
    for rec in tree.records:
        node = rec.node
        obj = {"leaf": True} if node.is_leaf else {"test": node.test, "children": []}
        objs.append(obj)
        if rec.parent_id is not None:
            objs[rec.parent_id]["children"].append([rec.parent_answer, obj])
    return objs[0]


# A tree shape read from a document: preorder entries (test or None for a
# leaf, parent entry index or None for the root, answer on the parent edge).
Shape = list[tuple[int | None, int | None, int | None]]


def _attach_masks(shape: Shape, inst: DTInstance, root_mask: int) -> TreeNode:
    """Check the shape against the instance, recompute every mask top-down,
    then build the nodes bottom-up."""
    masks: list[int] = []
    kids: list[list[int]] = [[] for _ in shape]
    for idx, (test, parent, answer) in enumerate(shape):
        mask = root_mask
        if parent is not None:
            ptest = shape[parent][0]
            if ptest is None:
                raise FormatError("leaf node with children")
            if not 1 <= answer <= inst.k:
                raise FormatError(f"answer {answer} outside 1..{inst.k}")
            mask = masks[parent] & inst.answer_masks(ptest)[answer - 1]
            if mask == 0:
                raise StructureError(
                    f"serialized tree inconsistent with instance: empty set under "
                    f"test {ptest} answer {answer}"
                )
            kids[parent].append(idx)
        if test is not None:
            if not 1 <= test <= inst.m:
                raise FormatError(f"test {test} outside 1..{inst.m}")
            if idx + 1 == len(shape) or shape[idx + 1][1] != idx:
                raise FormatError(f"interior node (test {test}) with no children")
        masks.append(mask)
    built: list[TreeNode] = [None] * len(shape)
    for idx in reversed(range(len(shape))):
        test = shape[idx][0]
        if test is None:
            built[idx] = leaf(masks[idx])
        else:
            built[idx] = interior(test, [(shape[c][2], built[c]) for c in kids[idx]],
                                  masks[idx])
    return built[0]


def tree_from_text(text: str, inst: DTInstance, H: SetLike = None) -> DecisionTree:
    """Parse the preorder text form; consistency sets are recomputed against
    `inst` (and `H` as the root set, default full)."""
    entries: list[tuple[int, int | None, int | None]] = []  # (depth, test, parent_answer)
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.split()
        try:
            depth = int(toks[1])
            if toks[2] == "leaf":
                test, ptok = None, toks[3]
            elif toks[2] == "test":
                test, ptok = int(toks[3]), toks[4]
            else:
                raise ValueError(f"unknown kind {toks[2]!r}")
            pans = None if ptok == "-" else int(ptok)
        except (IndexError, ValueError) as exc:
            raise FormatError(f"tree line {lineno}: {exc}") from exc
        entries.append((depth, test, pans))
    if not entries:
        raise FormatError("empty tree document")
    if entries[0][0] != 0 or entries[0][2] is not None:
        raise FormatError("first line must be the root (depth 0, parent answer '-')")

    shape: Shape = [(entries[0][1], None, None)]
    path = [0]      # entry index of the open ancestor at each depth
    for pos in range(1, len(entries)):
        depth, test, pans = entries[pos]
        if not 1 <= depth <= len(path):
            raise FormatError(f"dangling entries after preorder walk (at {pos})")
        if pans is None:
            raise FormatError(f"non-root entry {pos} lacks a parent answer")
        del path[depth:]
        shape.append((test, path[-1], pans))
        path.append(pos)
    return DecisionTree(_attach_masks(shape, inst, inst.as_mask(H)))


def _json_int(value, what: str) -> int:
    """A JSON integer; bools and floats are refused, not truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f"{what} must be an integer, got {value!r}")
    return value


def tree_from_json_obj(obj: dict, inst: DTInstance, H: SetLike = None) -> DecisionTree:
    shape: Shape = []
    stack = [(obj, None, None)]
    while stack:
        o, parent, answer = stack.pop()
        if not isinstance(o, dict):
            raise FormatError("tree nodes must be objects")
        kids = []
        if o.get("leaf"):
            if "test" in o or "children" in o:
                raise FormatError("leaf nodes carry no 'test' or 'children'")
            test = None
        elif "test" not in o:
            raise FormatError("interior node missing 'test'")
        else:
            test = _json_int(o["test"], "test")
            try:
                kids = [(_json_int(a, "answer"), sub)
                        for a, sub in o.get("children", [])]
            except (TypeError, ValueError) as exc:
                raise FormatError(f"bad interior node: {exc}") from exc
        shape.append((test, parent, answer))
        for a, sub in reversed(kids):
            stack.append((sub, len(shape) - 1, a))
    return DecisionTree(_attach_masks(shape, inst, inst.as_mask(H)))
