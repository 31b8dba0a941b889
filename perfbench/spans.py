"""Count hooks and timing spans around the splitwise layers.

Hooks replace functions in the namespaces where callers look them up: the
globals of the importing module, a class attribute, or an entry of the audit
family table.  Every hook is undone when the `hooks` context exits, and no
file of the package changes.  A hook whose target does not exist is skipped,
so the benchmark keeps running while the package is refactored; the metric it
fed then reads 0.

Count hooks run in every pass.  Timing spans run only in traced passes.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager

# Span name -> (defining module, function names).  None means every public
# function the module defines.  These are wrapped in every other splitwise
# module that imports them; calls inside the defining module stay unwrapped,
# so they count toward the layer's own self time.
FUNCTION_SPANS = {
    "generators.self": ("generators", None),
    "instance.validate": ("instance", ("validate_instance", "require_valid")),
    "greedy.build": ("greedy", ("build_greedy_tree", "build_greedy_node")),
    "tree.cost": ("tree", ("cost",)),
    "tree.write": ("tree", ("tree_to_text",)),
    "fulltree.self": ("fulltree", None),
    "chains.self": ("chains", None),
    "mssc.self": ("mssc", None),
    "setcover.self": ("setcover", None),
}

# Span name -> (module, class, method names).  A class attribute is looked up
# by every caller, including the class's own module.  `_Driver.solve` is where
# the audit battery enters the recursive driver without `full_tree`.
METHOD_SPANS = {
    "instance.construct": ("instance", "DTInstance", ("__init__",)),
    "instance.parse": ("instance", "DTInstance", ("from_text",)),
    "exact.search": ("exact", "ExactSolver",
                     ("partial_tree", "partial_cost", "optimal_tree",
                      "optimal_cost", "raw_cost_num")),
    "fulltree.self": ("fulltree", "_Driver", ("solve",)),
}

# Spans whose metric is the time inside the span, children included; every
# other span reports its self time.
INCLUSIVE_PREFIX = "audits."

COUNT_KEYS = ("instance.cells", "greedy.nodes", "greedy.depth",
              "exact.expansions", "exact.memo_hits", "exact.memo_size",
              "fulltree.calls", "fulltree.expanded")


class Recorder:
    """Per-op counts and, in a traced pass, the spans of that pass.

    A span is [name, start, end, parent index]; the parent is -1 at the top.
    """

    def __init__(self):
        self.spans: list[list] | None = None
        self._open: list[int] = []
        self._reset_op()

    def _reset_op(self):
        self.cells = 0
        self.solvers = []
        self.drivers = []
        self.greedy_trees = []
        self.family_lines = Counter()

    def enter(self, name: str) -> None:
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, parent])

    def exit(self) -> None:
        self.spans[self._open.pop()][2] = time.perf_counter()

    def take_counts(self) -> Counter:
        """Counts of the op that just ran; drops the objects it kept."""
        c = Counter({key: 0 for key in COUNT_KEYS})
        c["instance.cells"] = self.cells
        for solver in self.solvers:
            stats = getattr(solver, "stats", None)
            c["exact.expansions"] += getattr(stats, "expansions", 0)
            c["exact.memo_hits"] += getattr(stats, "memo_hits", 0)
            c["exact.memo_size"] += len(getattr(solver, "memo", ()))
        for driver in self.drivers:
            records = getattr(getattr(driver, "trace", None), "records", ())
            c["fulltree.calls"] += len(records)
            c["fulltree.expanded"] += sum(
                1 for r in records if getattr(r, "decision", "") == "expanded")
        for tree in self.greedy_trees:
            c["greedy.nodes"] += len(tree)
            c["greedy.depth"] = max(c["greedy.depth"], tree.depth())
        for family, lines in self.family_lines.items():
            c[f"audits.{family}.lines"] += lines
        self._reset_op()
        return c


def merge_counts(total: Counter, op: Counter) -> None:
    """Add one op's counts to a pass total; depth is a maximum, not a sum."""
    for key, value in op.items():
        if key == "greedy.depth":
            total[key] = max(total[key], value)
        else:
            total[key] += value


def layer_times(spans: list[list]) -> Counter:
    """Seconds per span name: self time, or inclusive time for audit families."""
    dur = [end - start for _, start, end, _ in spans]
    own = list(dur)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            own[parent] -= dur[i]
    out = Counter()
    for (name, *_), d, s in zip(spans, dur, own):
        out[name] += d if name.startswith(INCLUSIVE_PREFIX) else s
    return out


def _wrap(fn, rec: Recorder, span: str | None, after):
    if isinstance(fn, classmethod):
        return classmethod(_wrap(fn.__func__, rec, span, after))

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        if span is not None:
            rec.enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.exit()
        else:
            result = fn(*args, **kwargs)
        if after is not None:
            after(args, result)
        return result

    return wrapped


def _modules() -> dict:
    return {name.rpartition(".")[2]: mod for name, mod in sys.modules.items()
            if name.startswith("splitwise.")}


def _public_functions(mod) -> list[str]:
    return [name for name, obj in vars(mod).items()
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__
            and not name.startswith("_")]


@contextmanager
def hooks(rec: Recorder, timed: bool):
    """Install the count hooks, and with `timed` the timing spans, for the
    duration of the block."""
    mods = _modules()
    plan: dict[tuple[int, str], list] = {}   # (id(owner), attr) -> [owner, attr, span, after]

    def add(owner, attr, span=None, after=None):
        entry = plan.setdefault((id(owner), attr), [owner, attr, None, None])
        if span is not None and timed:
            entry[2] = span
        if after is not None:
            entry[3] = after

    def add_method(module, cls, attr, span=None, after=None):
        klass = getattr(mods.get(module), cls, None)
        if klass is not None and attr in vars(klass):
            add(klass, attr, span, after)

    def add_function(module, names, span=None, after=None):
        home = mods.get(module)
        if home is None:
            return
        wanted = {id(vars(home)[n]) for n in (names or _public_functions(home))
                  if n in vars(home)}
        for name, mod in mods.items():
            if name == module:
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wanted:
                    add(mod, attr, span, after)

    def count_cells(args, _):
        rec.cells += args[0].n * args[0].m

    add_method("instance", "DTInstance", "__init__", after=count_cells)
    add_method("exact", "ExactSolver", "__init__",
               after=lambda args, _: rec.solvers.append(args[0]))
    add_method("fulltree", "_Driver", "__init__",
               after=lambda args, _: rec.drivers.append(args[0]))
    add_function("greedy", ("build_greedy_tree",),
                 after=lambda _, tree: rec.greedy_trees.append(tree))

    audits = mods.get("audits")
    table = getattr(audits, "FAMILIES", {})
    targets = [(table, name, name) for name in table]
    if hasattr(audits, "_family_identity"):
        # run_battery calls the identity family by its global name
        targets.append((audits, "_family_identity", "identity"))
    for owner, attr, family in targets:
        def count_lines(args, _, family=family):
            # each family fills a fresh context
            rec.family_lines[family] += len(getattr(args[0], "lines", ()))

        add(owner, attr, f"audits.{family}", count_lines)

    if timed:
        for span, (module, names) in FUNCTION_SPANS.items():
            add_function(module, names, span)
        for span, (module, cls, attrs) in METHOD_SPANS.items():
            for attr in attrs:
                add_method(module, cls, attr, span)

    undo = []
    try:
        for owner, attr, span, after in plan.values():
            orig = owner[attr] if isinstance(owner, dict) else vars(owner)[attr]
            _assign(owner, attr, _wrap(orig, rec, span, after))
            undo.append((owner, attr, orig))
        yield
    finally:
        for owner, attr, orig in reversed(undo):
            _assign(owner, attr, orig)


def _assign(owner, attr: str, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)
