"""The four workloads: their op lists, the inputs they write during set-up,
and the checks each op's output must pass.

An op is one call of `splitwise.cli.main(argv)`.  Every input is derived from
the workload seed; the same seed gives the same op list and the same files.
"""

from __future__ import annotations

import csv
import hashlib
import io
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from splitwise.generators import gen_grid_adversarial, gen_random
from splitwise.greedy import build_greedy_tree
from splitwise.instance import DTInstance, validate_instance
from splitwise.tree import cost, is_complete, structural_problems, tree_from_text

FLOAT_REL_TOL = 1e-9

GRID_C_STAR = 8
GRID_EXPERIMENT_N = 1024

# Kind -> name of the end-to-end per-call metric it feeds.
KINDS = {
    "gen": "gen_s",
    "solve_greedy": "solve_greedy_s",
    "solve_exact": "solve_exact_s",
    "solve_fulltree": "solve_fulltree_s",
    "experiment": "experiment_s",
    "audit": "audit_s",
}


@dataclass
class Op:
    kind: str
    argv: list[str]
    # (stdout) -> problems; None means only the exit code is checked
    check: Callable[[str], list[str]] | None = None
    expect_rc: int = 0
    outputs: tuple[Path, ...] = ()    # files the op writes, part of its digest

    def digest(self, stdout: str) -> str:
        h = hashlib.sha256(stdout.encode())
        for path in self.outputs:
            h.update(path.read_bytes() if path.exists() else b"<missing>")
        return h.hexdigest()


# ----------------------------------------------------------------------------
# checks: each returns the op's problems; an empty list means it passed
# ----------------------------------------------------------------------------

def _instance(path: Path, exact: bool) -> DTInstance:
    return DTInstance.from_text(path.read_text(), exact=exact)


def gen_check(path: Path, exact: bool, n: int, m: int | None = None):
    def check(stdout: str) -> list[str]:
        inst = _instance(path, exact)
        problems = list(validate_instance(inst).problems)
        if inst.n != n or (m is not None and inst.m != m):
            problems.append(f"instance is {inst.n}x{inst.m}, wanted n={n} m={m}")
        if inst.exact != exact:
            problems.append(f"instance exact={inst.exact}, wanted {exact}")
        return problems
    return check


def solve_check(inst_path: Path, tree_path: Path, algo: str, exact: bool,
                max_depth: int | None = None):
    def check(stdout: str) -> list[str]:
        values = _assignments(stdout)
        label = {"greedy": "C_G", "exact": "C_OPT",
                 "partial": f"C_PARTIAL(b={max_depth})"}.get(algo, "C_FULLTREE")
        if label not in values:
            return [f"no {label}= line in output"]
        inst = _instance(inst_path, exact)
        tree = tree_from_text(tree_path.read_text(), inst)
        problems = structural_problems(tree, inst)
        if not is_complete(tree, inst, b=max_depth):
            problems.append("tree is not complete")
        printed = _number(values[label], exact)
        recomputed = cost(tree, inst).total
        if not _equal(printed, recomputed, exact):
            problems.append(f"printed {label}={printed} but the tree costs {recomputed}")
        if algo == "greedy":
            return problems
        optimum = printed
        if algo.startswith("fulltree"):
            if values.get("within_bound") != "True":
                problems.append("fulltree did not print within_bound=True")
            optimum = _number(values["C_OPT"], exact)
            if not _le(optimum, printed):
                problems.append(f"C_OPT={optimum} above {label}={printed}")
        c_g = cost(build_greedy_tree(inst), inst).total
        if not _le(optimum, c_g):
            problems.append(f"optimum {optimum} above greedy cost C_G={c_g}")
        return problems
    return check


def experiment_check(family: str, c_star: int | None = None):
    def check(stdout: str) -> list[str]:
        rows = list(csv.DictReader(io.StringIO(stdout)))
        if not rows:
            return ["experiment wrote no rows"]
        problems = [f"{r['instance_id']}: status {r['status']}"
                    for r in rows if r["status"] != "ok"]
        for r in rows:
            c = Fraction(r["cost"])
            if family == "grid":
                inst = gen_grid_adversarial(int(r["n"]), c_star)
                if c != cost(build_greedy_tree(inst), inst).total:
                    problems.append(f"{r['instance_id']}: cost is not the greedy cost")
            elif family == "random":
                if c < Fraction(r["baseline"]):
                    problems.append(f"{r['instance_id']}: C_G below C_OPT")
                if r["bound_value"] and c > Fraction(r["bound_value"]):
                    problems.append(f"{r['instance_id']}: C_G above Theorem 1 bound")
            elif not Fraction(r["baseline"]) / 2 < c < Fraction(r["bound_value"]):
                problems.append(f"{r['instance_id']}: C_OPT outside the reduction sandwich")
        return problems
    return check


def audit_check(stdout: str) -> list[str]:
    lines = stdout.splitlines()
    if not lines or "failed=0" not in lines[-1].split():
        return [f"audit summary is {lines[-1] if lines else '<empty>'!r}"]
    return []


def _assignments(stdout: str) -> dict[str, str]:
    """All `key=value` tokens of the output; the first occurrence wins."""
    out: dict[str, str] = {}
    for line in stdout.splitlines():
        for tok in line.split():
            key, sep, value = tok.rpartition("=")
            if sep and key not in out:
                out[key] = value
    return out


def _number(text: str, exact: bool):
    return Fraction(text) if exact else float(text)


def _equal(a, b, exact: bool) -> bool:
    if exact:
        return a == b
    return abs(float(a) - float(b)) <= FLOAT_REL_TOL * max(1.0, abs(float(b)))


def _le(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return float(a) <= float(b) * (1 + FLOAT_REL_TOL)
    return a <= b


# ----------------------------------------------------------------------------
# op lists
# ----------------------------------------------------------------------------

def _grid_scale(rng: random.Random, work: Path) -> list[Op]:
    # n is a multiple of c* so the grid has no off-grid singleton tests; c*
    # stays at 8 because the test count, and with it the work, moves with c*.
    n = GRID_C_STAR * rng.randint(254, 258)          # 2032..2064
    inst, tree = work / "grid.txt", work / "grid.tree.txt"
    return [
        Op("gen", ["gen", "grid", "--n", str(n), "--c-star", str(GRID_C_STAR),
                   "--out", str(inst)],
           gen_check(inst, True, n), outputs=(inst,)),
        Op("solve_greedy", ["solve", str(inst), "--algo", "greedy", "--out", str(tree)],
           solve_check(inst, tree, "greedy", True), outputs=(tree,)),
        Op("experiment", ["experiment", "--family", "grid", "--sizes",
                          str(GRID_EXPERIMENT_N), "--c-star", str(GRID_C_STAR)],
           experiment_check("grid", GRID_C_STAR)),
    ]


def _skewed_greedy(rng: random.Random, work: Path) -> list[Op]:
    n = rng.randint(3968, 4032)
    # one m from each quarter of 32..47, so the total work per pass stays put
    ms = [32 + 4 * q + rng.randrange(4) for q in range(4)]
    rng.shuffle(ms)
    ops = []
    for i, (k, exact) in enumerate([(2, True), (3, False), (2, False), (3, True)]):
        inst, tree = work / f"skew{i}.txt", work / f"skew{i}.tree.txt"
        mode = [] if exact else ["--float"]
        ops.append(Op("gen", ["gen", "random", "--profile", "skew", "--n", str(n),
                              "--m", str(ms[i]), "--k", str(k),
                              "--seed", str(rng.randrange(1 << 30)),
                              "--out", str(inst)] + mode,
                      gen_check(inst, exact, n, ms[i]), outputs=(inst,)))
        ops.append(Op("solve_greedy", ["solve", str(inst), "--algo", "greedy",
                                       "--out", str(tree)] + mode,
                      solve_check(inst, tree, "greedy", exact), outputs=(tree,)))
    return ops


def _exact_search(rng: random.Random, work: Path) -> list[Op]:
    def write(name: str, inst: DTInstance) -> Path:
        path = work / name
        path.write_text(inst.to_text())
        return path

    def solve(kind, path, algo, *extra, max_depth=None):
        tree = path.with_suffix(".tree.txt")
        argv = ["solve", str(path), "--algo", algo, "--out", str(tree), *extra]
        if max_depth is not None:
            argv += ["--max-depth", str(max_depth)]
        return Op(kind, argv, solve_check(path, tree, algo, True, max_depth),
                  outputs=(tree,))

    seed = lambda: rng.randrange(1 << 30)   # noqa: E731
    ops = [solve("solve_exact", write("grid16.txt", gen_grid_adversarial(16, 4)),
                 "exact")]
    # several sizes, so one hard draw moves the pass little; the sizes are
    # fixed and the seed picks only the draws, whose work varies enough
    for i, n in enumerate((20, 22, 23, 24)):
        ops.append(solve("solve_exact", write(f"rand{i}.txt",
                                              gen_random(n, n, 2, seed())), "exact"))
    ops.append(solve("solve_exact", write("partial.txt", gen_random(60, 24, 2, seed())),
                     "partial", max_depth=4))
    ops.append(solve("solve_fulltree",
                     write("ft_uniform.txt", gen_random(12, 10, 2, seed())),
                     "fulltree-uniform", "--alpha", "0.5"))
    ops.append(solve("solve_fulltree",
                     write("ft_skew.txt", gen_random(12, 10, 2, seed(), profile="skew")),
                     "fulltree", "--alpha", "0.5"))
    ops.append(Op("experiment", ["experiment", "--family", "random", "--seed",
                                 str(rng.randrange(1000))], experiment_check("random")))
    ops.append(Op("experiment", ["experiment", "--family", "reduction"],
                  experiment_check("reduction")))
    return ops


def _audit_battery(rng: random.Random, work: Path) -> list[Op]:
    seed = str(rng.randrange(1000))
    return [
        Op("audit", ["audit", "--seed", seed], audit_check),
        Op("audit", ["audit", "--seed", seed, "--float"], audit_check),
        # negative control: the battery must fail, exit 4
        Op("audit", ["audit", "--only", "identity", "--inject-fault",
                     "--out", str(work / "audit_failures")], expect_rc=4),
    ]


WORKLOADS = {
    "grid-scale": _grid_scale,
    "skewed-greedy": _skewed_greedy,
    "exact-search": _exact_search,
    "audit-battery": _audit_battery,
}


def build(workload: str, seed: int, work: Path) -> list[Op]:
    """Write the workload's inputs that are not under test into `work` and
    return its op list."""
    work.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), work)
