"""Every tree builder's output, pinned byte for byte.

`tests/data/trees_seed0.txt` holds the `tree_to_text` form of the greedy,
optimal, depth-2 partial and fulltree trees of a seeded `gen_random` corpus,
in exact and float mode, and of three grid certificates.  `TRACE_SHA256`
pins the call records of every fulltree run, a sha256 of their
`trace.lines()`.  A refactor of the builders must leave every byte in place.
After a deliberate change of behaviour, regenerate the file with

    PYTHONPATH=src python tests/test_pinned_trees.py > tests/data/trees_seed0.txt

and the digest with `PYTHONPATH=src python tests/test_pinned_trees.py --traces`.
"""

import hashlib
import sys
from itertools import product
from pathlib import Path

from splitwise.exact import ExactSolver
from splitwise.fulltree import FullTreeConfig, full_tree
from splitwise.generators import (gen_grid_adversarial, gen_random,
                                  grid_certificate_tree, grid_layout)
from splitwise.greedy import build_greedy_tree
from splitwise.tree import (tree_from_json_obj, tree_from_text,
                            tree_to_json_obj, tree_to_text, verify_caches)

GOLDEN = Path(__file__).parent / "data" / "trees_seed0.txt"

# (n, m, K, profile, seed) of the random corpus, each run exact and float
CORPUS = [(n, m, K, profile, seed)
          for seed, (profile, K, (n, m)) in enumerate(product(
              ("uniform", "skew", "two-tier"), (2, 3), ((6, 5), (9, 6), (12, 7))))]

GRIDS = ((16, 4), (17, 5), (40, 6))

TRACE_SHA256 = "e0932dc809f4ca3ad9193011ed7d562bdde860205c366b0d2411f99f04a47dda"


def pinned_trees():
    """(title, instance, tree, trace) of every pinned tree, in file order;
    the trace is None for every builder but fulltree."""
    for exact in (True, False):
        mode = "exact" if exact else "float"
        for n, m, K, profile, seed in CORPUS:
            inst = gen_random(n, m, K, seed=seed, profile=profile, exact=exact)
            tag = f"{mode} n={n} m={m} K={K} {profile} seed={seed}"
            solver = ExactSolver(inst)
            yield f"greedy {tag}", inst, build_greedy_tree(inst), None
            yield f"optimal {tag}", inst, solver.optimal_tree(), None
            yield (f"partial b=2 {tag}", inst,
                   solver.partial_tree(inst.full_mask, 2), None)
            general = FullTreeConfig(alpha=0.5, ratio_bound=inst.weight_ratio())
            configs = [("general", general),
                       ("general b=2", FullTreeConfig(
                           alpha=0.5, ratio_bound=inst.weight_ratio(),
                           b=2, threshold=1e9))]
            if inst.uniform:
                configs += [("uniform", FullTreeConfig(alpha=0.5, mode="uniform",
                                                       n0=4)),
                            ("uniform b=2", FullTreeConfig(
                                alpha=0.5, mode="uniform", n0=4,
                                b=2, threshold=1e9))]
            for name, cfg in configs:
                yield (f"fulltree {name} {tag}", inst) + full_tree(inst, cfg)
    for n, c_star in GRIDS:
        inst = gen_grid_adversarial(n, c_star)
        yield (f"grid certificate n={n} c*={c_star}", inst,
               grid_certificate_tree(inst, grid_layout(n, c_star)), None)


def pinned_text() -> str:
    return "".join(f"# {title}\n{tree_to_text(tree)}"
                   for title, _, tree, _ in pinned_trees())


def trace_digest() -> str:
    """sha256 of every fulltree run's `trace.lines()`, each under its title."""
    h = hashlib.sha256()
    for title, _, _, trace in pinned_trees():
        if trace is not None:
            h.update("".join(f"{line}\n" for line in
                             [f"# {title}"] + trace.lines()).encode())
    return h.hexdigest()


def test_trees_match_pinned_file():
    expected = GOLDEN.read_text().splitlines()
    actual = pinned_text().splitlines()
    assert len(actual) == len(expected)
    for i, (a, e) in enumerate(zip(actual, expected), start=1):
        assert a == e, f"line {i}: {a!r} != {e!r}"


def test_pinned_trees_cache_true_sets_and_round_trip():
    """The text form carries no sets, so the pin alone cannot see a set
    cached on the wrong record: replay every set, and parse each tree back
    from text and JSON."""
    for title, inst, tree, _ in pinned_trees():
        verify_caches(tree, inst)
        text = tree_to_text(tree)
        assert tree_to_text(tree_from_text(text, inst)) == text, title
        back = tree_from_json_obj(tree_to_json_obj(tree), inst)
        assert tree_to_text(back) == text, title


def test_fulltree_traces_match_pinned_digest():
    assert trace_digest() == TRACE_SHA256


if __name__ == "__main__":
    if "--traces" in sys.argv[1:]:
        print(trace_digest())
    else:
        print(pinned_text(), end="")
