"""Command-line harness.

Subcommands:

    gen random|grid|reduction   write an instance in the text format
    solve                       run one algorithm on an instance file
    audit                       run the audit battery (exit 4 on failure)
    experiment                  sweep a family and write a CSV

Exit codes are a contract: 0 ok, 2 invalid input, 3 budget exceeded,
4 audit failure.  SPLITWISE_BUDGET_MS caps solver time where supported; in
`solve --algo fulltree*` one deadline covers the driver and its C_OPT check.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

from .audits import run_battery
from .chains import theorem1_bound
from .errors import (BudgetExceededError, FormatError, GenerationError,
                     InvalidInstanceError, ParameterError, SplitwiseError)
from .exact import ExactSolver, optimal_cost
from .fulltree import (FullTreeConfig, approximation_factor, audit_trace,
                       full_tree)
from .generators import (REDUCTION_CASES, gen_grid_adversarial, gen_random,
                         gen_setcover_reduction)
from .greedy import build_greedy_tree
from .instance import DTInstance, format_number, validate_instance
from .mssc import MsscInstance
from .setcover import optimal_cover_size
from .tree import cost, tree_to_text

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_BUDGET = 3
EXIT_AUDIT = 4

ALGOS = ("greedy", "exact", "partial", "fulltree", "fulltree-uniform")


def _budget_ms() -> float | None:
    raw = os.environ.get("SPLITWISE_BUDGET_MS")
    if not raw:
        return None
    try:
        return float(raw)
    except ValueError:
        raise ParameterError(f"SPLITWISE_BUDGET_MS={raw!r} is not a number")


def _fmt(x, as_float: bool) -> str:
    return "" if x is None else format_number(x, as_float)


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


# ----------------------------------------------------------------------------
# gen
# ----------------------------------------------------------------------------

def _parse_sets(spec: str):
    """'1,2;2,3' -> [frozenset({1,2}), frozenset({2,3})]"""
    out = []
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            out.append(frozenset(int(tok) for tok in chunk.split(",")))
        except ValueError:
            raise ParameterError(f"--sets {spec!r}: members must be integers")
    if not out:
        raise ParameterError("no sets given; use e.g. --sets '1,2;2,3'")
    return out


def cmd_gen(args) -> int:
    if args.family == "random":
        inst = gen_random(args.n, args.m, args.k, seed=args.seed,
                          profile=args.profile, ratio=args.ratio,
                          exact=not args.float)
    elif args.family == "grid":
        inst = gen_grid_adversarial(args.n, args.c_star)
    else:
        inst, meta = gen_setcover_reduction(args.n0, _parse_sets(args.sets),
                                            args.r)
        print(f"q={meta.q} ell={meta.ell} n={meta.n} "
              f"ratio={format_number(meta.ratio)}", file=sys.stderr)
    _write_or_print(inst.to_text(), args.out)
    return EXIT_OK


# ----------------------------------------------------------------------------
# solve
# ----------------------------------------------------------------------------

def _fulltree_config(inst, args) -> FullTreeConfig:
    if args.algo == "fulltree-uniform":
        return FullTreeConfig(alpha=args.alpha, mode="uniform", eps=args.eps,
                              n0=args.n0)
    ratio = args.ratio_bound if args.ratio_bound is not None \
        else inst.weight_ratio()
    return FullTreeConfig(alpha=args.alpha, mode="general", ratio_bound=ratio)


def cmd_solve(args) -> int:
    if args.max_depth is not None and args.algo != "partial":
        raise ParameterError("--max-depth applies to --algo partial only")
    inst = DTInstance.from_path(args.instance, exact=not args.float)
    report = validate_instance(inst)
    if not report.ok:
        print("invalid instance:")
        for p in report.problems:
            print(f"  {p}")
        return EXIT_INVALID

    budget = _budget_ms()
    t0 = time.perf_counter()
    trace = None
    if args.algo == "greedy":
        tree = build_greedy_tree(inst)
        label = "C_G"
        total = cost(tree, inst).total
    elif args.algo in ("exact", "partial"):
        solver = ExactSolver(inst, budget_ms=budget)
        b = args.max_depth if args.max_depth is not None else inst.n - 1
        tree = solver.partial_tree(inst.full_mask, b)
        total = cost(tree, inst).total
        label = "C_OPT" if args.algo == "exact" else f"C_PARTIAL(b={b})"
    else:
        if args.alpha is None:
            raise ParameterError("--alpha is required for fulltree algorithms")
        solver = ExactSolver(inst, budget_ms=budget)
        tree, trace = full_tree(inst, _fulltree_config(inst, args),
                                solver=solver)
        label = "C_FULLTREE"
        total = trace.total_cost
    elapsed_ms = (time.perf_counter() - t0) * 1000.0

    print(f"{label}={_fmt(total, args.float)}")
    if args.timings:
        print(f"runtime_ms={elapsed_ms:.1f}")
    if trace is not None:
        print(f"b={trace.b} threshold={trace.threshold:.6g} "
              f"calls={len(trace.records)}")
        for line in trace.lines():
            print(line)
        try:
            baseline = solver.optimal_cost()
            lines = audit_trace(trace, inst, baseline)
            bound = next(l for l in lines if l.name == "fulltree_bound")
            print(f"C_OPT={_fmt(baseline, args.float)} "
                  f"factor={approximation_factor(trace.cfg):.4f} "
                  f"within_bound={bound.passed}")
        except BudgetExceededError:
            lines = audit_trace(trace, inst, None)
            print("C_OPT=unavailable (budget)")
        for line in lines:
            print(line.format(as_float=args.float))

    out = args.out or str(Path(args.instance).with_suffix(".tree.txt"))
    Path(out).write_text(tree_to_text(tree))
    print(f"tree written to {out}")
    return EXIT_OK


# ----------------------------------------------------------------------------
# audit
# ----------------------------------------------------------------------------

def cmd_audit(args) -> int:
    only = None
    if args.only:
        only = [tok for sel in args.only for tok in sel.split(",") if tok]
    result = run_battery(seed=args.seed, only=only, float_mode=args.float,
                         inject_fault=args.inject_fault)
    for line in result.lines:
        print(line.format(as_float=args.float))
        if line.mandatory and not line.passed and line.note:
            print(f"# note: {line.note}")
    n_fail = sum(1 for l in result.lines if l.mandatory and not l.passed)
    n_skip = sum(1 for l in result.lines if not l.mandatory)
    print(f"# families={len(result.families_run)} lines={len(result.lines)} "
          f"failed={n_fail} advisory={n_skip}")
    if result.failures:
        outdir = Path(args.out or "audit_failures")
        outdir.mkdir(parents=True, exist_ok=True)
        for i, art in enumerate(result.failures):
            stem = f"{art.family}_{art.line.name}_{i}"
            if art.instance_text:
                (outdir / f"{stem}.instance.txt").write_text(art.instance_text)
            if art.tree_text:
                (outdir / f"{stem}.tree.txt").write_text(art.tree_text)
            print(f"# falsifier serialized: {outdir / stem}.*")
    return EXIT_OK if result.ok else EXIT_AUDIT


# ----------------------------------------------------------------------------
# experiment
# ----------------------------------------------------------------------------

CSV_COLUMNS = ("instance_id", "n", "m", "K", "R", "algo", "cost",
               "exact_or_bound", "baseline", "ratio", "bound_value",
               "runtime_ms", "status")


def _sizes(raw: str, default: tuple[int, ...]) -> tuple[int, ...]:
    if raw is None:
        return default
    try:
        return tuple(int(t) for t in raw.split(",") if t.strip())
    except ValueError:
        raise ParameterError(f"--sizes {raw!r}: sizes must be integers")


def _experiment_rows(args, budget):
    rows = []
    as_float = args.float

    def row(iid, inst, algo, cost_v, kind, baseline, bound_v, ms, status="ok"):
        ratio = ""
        if cost_v is not None and baseline is not None and baseline != 0:
            ratio = _fmt(cost_v / baseline, as_float)
        rows.append({
            "instance_id": iid, "n": inst.n, "m": inst.m, "K": inst.k,
            "R": _fmt(inst.weight_ratio(), as_float), "algo": algo,
            "cost": _fmt(cost_v, as_float), "exact_or_bound": kind,
            "baseline": _fmt(baseline, as_float), "ratio": ratio,
            "bound_value": _fmt(bound_v, as_float),
            "runtime_ms": f"{ms:.1f}" if args.timings and ms is not None else "",
            "status": status,
        })

    if args.family == "random":
        for n in _sizes(args.sizes, (5, 6, 7, 8, 9)):
            # from ceil(log2 n) + 2 tests up, the first m that separates n
            # random answer vectors at this seed
            m = max(4, math.ceil(math.log2(max(n, 2))) + 2)
            while True:
                try:
                    inst = gen_random(n, m, 2, seed=args.seed + n,
                                      profile="uniform", exact=not as_float)
                    break
                except GenerationError:
                    m += 1
            iid = f"random-n{n}-s{args.seed}"
            t0 = time.perf_counter()
            try:
                c_g = cost(build_greedy_tree(inst), inst).total
                c_opt = optimal_cost(inst, budget_ms=budget)
            except BudgetExceededError:
                row(iid, inst, "greedy", None, "exact", None, None, None,
                    status="skipped")
                continue
            ms = (time.perf_counter() - t0) * 1000.0
            bound = theorem1_bound(inst.p_min, inst.p_max, c_opt) \
                if c_opt > 1 else None
            row(iid, inst, "greedy", c_g, "exact", c_opt, bound, ms)
    elif args.family == "grid":
        for n in _sizes(args.sizes, (64, 256, 1024)):
            inst = gen_grid_adversarial(n, args.c_star)
            iid = f"grid-n{n}-c{args.c_star}"
            t0 = time.perf_counter()
            c_g = cost(build_greedy_tree(inst), inst).total
            ms = (time.perf_counter() - t0) * 1000.0
            bound = 4 * args.c_star
            row(iid, inst, "greedy", c_g, "bound", Fraction(bound), bound, ms)
    elif args.family == "reduction":
        for i, (n0, sets, r) in enumerate(REDUCTION_CASES):
            inst, meta = gen_setcover_reduction(n0, sets, r)
            iid = f"reduction-{i}-n0{n0}"
            b_opt = optimal_cover_size(
                MsscInstance(range(1, n0 + 1), [1] * n0, sets))
            t0 = time.perf_counter()
            try:
                c_opt = optimal_cost(inst, budget_ms=budget)
            except BudgetExceededError:
                row(iid, inst, "exact", None, "bound", None, None, None,
                    status="skipped")
                continue
            ms = (time.perf_counter() - t0) * 1000.0
            row(iid, inst, "exact", c_opt, "bound",
                Fraction(meta.q * b_opt), 3 * meta.q * b_opt, ms)
    else:
        raise ParameterError(f"unknown experiment family {args.family!r}")
    rows.sort(key=lambda r: (r["n"], r["instance_id"]))
    return rows


def cmd_experiment(args) -> int:
    rows = _experiment_rows(args, _budget_ms())
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    _write_or_print(buf.getvalue(), args.out)
    return EXIT_OK


# ----------------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitwise",
        description="Decision-tree solvers and audit harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate an instance")
    gsub = g.add_subparsers(dest="family", required=True)
    gr = gsub.add_parser("random", help="seeded random instance")
    gr.add_argument("--n", type=int, required=True)
    gr.add_argument("--m", type=int, required=True)
    gr.add_argument("--k", type=int, default=2)
    gr.add_argument("--seed", type=int, default=0)
    gr.add_argument("--profile", choices=("uniform", "skew", "two-tier"),
                    default="uniform")
    gr.add_argument("--ratio", type=int, default=8,
                    help="two-tier heavy/light weight ratio")
    gr.add_argument("--float", action="store_true")
    gr.add_argument("--out")
    gg = gsub.add_parser("grid", help="adversarial grid instance")
    gg.add_argument("--n", type=int, required=True)
    gg.add_argument("--c-star", dest="c_star", type=int, required=True)
    gg.add_argument("--out")
    gd = gsub.add_parser("reduction", help="set-cover reduction instance")
    gd.add_argument("--n0", type=int, required=True)
    gd.add_argument("--sets", required=True,
                    help="semicolon-separated member lists, e.g. '1,2;2'")
    gd.add_argument("--r", type=float, required=True)
    gd.add_argument("--out")
    for p in (gr, gg, gd):
        p.set_defaults(func=cmd_gen)

    s = sub.add_parser(
        "solve", help="solve one instance file",
        description="SPLITWISE_BUDGET_MS caps the exact search in wall-clock "
                    "milliseconds.  For the fulltree algorithms one deadline "
                    "covers the driver and its C_OPT check together.")
    s.add_argument("instance")
    s.add_argument("--algo", choices=ALGOS, default="greedy")
    s.add_argument("--alpha", type=float)
    s.add_argument("--eps", type=float, default=0.03)
    s.add_argument("--ratio-bound", dest="ratio_bound", type=float)
    s.add_argument("--n0", type=int, default=12,
                   help="fulltree-uniform brute-force threshold")
    s.add_argument("--max-depth", dest="max_depth", type=int,
                   help="depth budget b (partial only; default n-1)")
    s.add_argument("--float", action="store_true")
    s.add_argument("--timings", action="store_true")
    s.add_argument("--out", help="tree output path")
    s.set_defaults(func=cmd_solve)

    a = sub.add_parser("audit", help="run the audit battery")
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--only", action="append",
                   help="restrict to matching families (repeat or comma-list)")
    a.add_argument("--float", action="store_true")
    a.add_argument("--inject-fault", dest="inject_fault", action="store_true",
                   help="negative control: corrupt one tree in the identity "
                        "family (which must be selected); the failing line's "
                        "note is tagged 'injected', and its serialized tree "
                        "does not reproduce the failure, since masks are "
                        "recomputed on parse")
    a.add_argument("--out", help="directory for falsifier artifacts")
    a.set_defaults(func=cmd_audit)

    e = sub.add_parser("experiment", help="sweep a family, emit CSV")
    e.add_argument("--family", choices=("random", "grid", "reduction"),
                   required=True)
    e.add_argument("--sizes", help="comma-separated n values ('' for none)")
    e.add_argument("--c-star", dest="c_star", type=int, default=8)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--float", action="store_true")
    e.add_argument("--timings", action="store_true")
    e.add_argument("--out", help="CSV path (stdout if omitted)")
    e.set_defaults(func=cmd_experiment)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first `main` call of a process and reused:
    each build formats 45 arguments' help.  Every parse fills a new
    namespace, so no call sees another's options."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (FormatError, InvalidInstanceError, ParameterError,
            OSError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except SplitwiseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
