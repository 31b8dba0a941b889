"""Benchmark of the splitwise command line.

    python3 perfbench/run.py --workload grid-scale --seed 1 --seconds 30 --trace 0

Each op of the workload is one call of `splitwise.cli.main(argv)` in this
single process.  The op list runs pass after pass until --seconds have gone
by.  Every op's output is checked outside the timed region.  A fixed
reference kernel (reference.py) is timed between the ops, and each op's time
is rescaled to the host speed at which the kernel takes REFERENCE_S seconds,
so that a host slowed by other tenants reads about the same.  The script
prints a metric table and, as its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 they are its per-layer metrics, from traced passes that alternate
with untraced ones.  perfbench/README.md maps each metric to its layer and
workload.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple

import reference
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
MIN_SETUP_PROBES = 5
KERNEL_CHECK = reference.kernel()   # also warms the kernel up
KERNEL_SHARE = 0.15   # kernel time after an op, as a share of the op's time
PROBE_KERNELS = 3      # kernel runs before and after each set-up probe

# The program under test is this checkout's src/, never an installed copy.
sys.path.insert(0, str(SRC))
try:
    from splitwise import cli
except ImportError as exc:
    raise SystemExit(f"cannot import splitwise from {SRC}: {exc}")
if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
    raise SystemExit(f"splitwise was imported from {cli.__file__}, not from {SRC}")

import workloads  # noqa: E402  (imports splitwise, so it comes after the check)


class Pass(NamedTuple):
    results: list     # per op: (seconds, exit code or crash, stdout)
    counts: Counter
    spans: list | None
    ref: list         # kernel seconds: a group before each op, and one after the last

    def speed(self) -> float:
        """Host speed during the pass: the kernel's reference time over its
        median time in the pass."""
        return reference.REFERENCE_S / statistics.median(sum(self.ref, []))

    def scaled(self) -> list[float]:
        """Each op's seconds at reference host speed, as measured by the
        kernel groups just before and just after it."""
        return [dt * reference.REFERENCE_S
                / statistics.median(self.ref[i] + self.ref[i + 1])
                for i, (dt, _, _) in enumerate(self.results)]


def _timed_kernel() -> float:
    # without the collector, whose cost grows with the program's live heap
    gc.disable()
    try:
        t0 = time.perf_counter()
        check = reference.kernel()
        seconds = time.perf_counter() - t0
    finally:
        gc.enable()
    if check != KERNEL_CHECK:
        raise SystemExit(f"reference kernel checksum {check} != {KERNEL_CHECK}")
    return seconds


def _setup_probe(workload: str, seed: int, work: Path) -> tuple[float, float]:
    """Wall time of a fresh process that starts, imports and writes the
    inputs: everything a workload process does before its first op.  Returns
    the raw seconds and the seconds at reference host speed, as measured by
    kernel runs just before and just after the probe."""
    ref = [_timed_kernel() for _ in range(PROBE_KERNELS)]
    t0 = time.perf_counter()
    with subprocess.Popen(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--setup-probe", str(work)],
            stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline().strip() == "ready"
        seconds = time.perf_counter() - t0
        proc.stdout.read()
    if not ready or proc.returncode != 0:
        raise SystemExit(f"set-up probe failed (exit {proc.returncode})")
    shutil.rmtree(work, ignore_errors=True)
    ref += [_timed_kernel() for _ in range(PROBE_KERNELS)]
    return seconds, seconds * reference.REFERENCE_S / statistics.median(ref)


def _run_pass(ops, rec, traced: bool) -> Pass:
    """Run the op list once under the hooks.  The reference kernel runs
    before the first op and after each op, for about KERNEL_SHARE of the
    op's time.  Nothing else is timed."""
    results, ref = [], []
    counts = Counter()
    rec.spans = [] if traced else None
    gc.collect()
    with spans.hooks(rec, timed=traced):
        ref.append([_timed_kernel()])
        for op in ops:
            out, err = io.StringIO(), io.StringIO()
            if traced:
                rec.enter("cli.self")
            t0 = time.perf_counter()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    rc = cli.main(list(op.argv))
            except Exception as exc:   # a crash is a failed op, not a crashed run
                rc = f"{type(exc).__name__}: {exc}"
            finally:
                dt = time.perf_counter() - t0
                if traced:
                    rec.exit()
            spans.merge_counts(counts, rec.take_counts())
            results.append((dt, rc, out.getvalue()))
            ref.append([_timed_kernel() for _ in range(
                max(1, round(dt * KERNEL_SHARE / reference.REFERENCE_S)))])
    pass_spans, rec.spans = rec.spans, None
    return Pass(results, counts, pass_spans, ref)


class Verdicts:
    """Checks op outputs; an output seen before reuses its verdict."""

    def __init__(self, ops, work: Path):
        self.ops = ops
        self.work = str(work)
        self.first_digest: dict[int, str] = {}
        self.cache: dict[tuple, list[str]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def judge(self, results) -> None:
        """Check one pass.  An op fails on a wrong exit code, a failed check,
        or output that differs from its first pass."""
        for i, (op, (_, rc, stdout)) in enumerate(zip(self.ops, results)):
            # outputs name the per-process work directory; digests must not
            digest = op.digest(stdout.replace(self.work, "<work>"))
            key = (i, rc, digest)
            if key not in self.cache:
                self.cache[key] = self._check(op, rc, stdout)
            problems = list(self.cache[key])
            if self.first_digest.setdefault(i, digest) != digest:
                problems.append("output differs from the first pass")
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.extend(f"{' '.join(op.argv)}: {p}" for p in problems)

    def digest(self) -> str:
        """One digest over the first-pass outputs of every op."""
        return hashlib.sha256(" ".join(
            self.first_digest[i] for i in range(len(self.ops))).encode()).hexdigest()

    @staticmethod
    def _check(op, rc, stdout) -> list[str]:
        if rc != op.expect_rc:
            return [f"exit {rc}, expected {op.expect_rc}"]
        if op.check is None:
            return []
        try:
            return op.check(stdout)
        except Exception as exc:   # a check that cannot run fails the op
            return [f"check raised {type(exc).__name__}: {exc}"]


def _environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "splitwise").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    nproc = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    return {"python": platform.python_version(), "nproc": nproc,
            "commit": commit, "src_sha256": src.hexdigest()}


def _metric(value, unit, samples=None) -> dict:
    out = {"value": value, "unit": unit}
    if samples is not None:
        out["samples"] = samples
    return out


def _pass_seconds(passes) -> float:
    """Seconds for one pass at reference host speed: the sum over ops of
    each op's median scaled time."""
    scaled = [p.scaled() for p in passes]
    return sum(statistics.median(col) for col in zip(*scaled))


def _end_to_end(ops, untraced, setup, verdicts) -> dict:
    raw_walls = [sum(dt for dt, _, _ in p.results) for p in untraced]
    kernels = [k for p in untraced for group in p.ref for k in group]
    m = {"wall_ref_s": _metric(_pass_seconds(untraced), "s", len(untraced)),
         "setup_s": _metric(statistics.median(s for _, s in setup), "s", len(setup)),
         "wall_s": _metric(statistics.median(raw_walls), "s", len(raw_walls)),
         "setup_raw_s": _metric(statistics.median(r for r, _ in setup), "s", len(setup)),
         "host_speed": _metric(reference.REFERENCE_S / statistics.median(kernels),
                               "ratio", len(kernels))}
    for kind, name in workloads.KINDS.items():
        calls = [dt for p in untraced
                 for op, dt in zip(ops, p.scaled()) if op.kind == kind]
        if calls:
            m[name] = _metric(statistics.median(calls), "s", len(calls))
    m["fail_frac"] = _metric(verdicts.failed / verdicts.attempted, "ratio",
                             verdicts.attempted)
    m["peak_rss_mb"] = _metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return m


def _per_layer(untraced, traced) -> dict:
    times = [{name: t * p.speed() for name, t in spans.layer_times(p.spans).items()}
             for p in traced]
    m = {f"{name}_s": _metric(statistics.median(t[name] for t in times), "s",
                              len(times))
         for name in sorted(set().union(*times))}
    counts = traced[-1].counts
    for key in sorted(counts):
        m[key] = _metric(counts[key], "count")
    lookups = counts["exact.expansions"] + counts["exact.memo_hits"]
    m["exact.lookups"] = _metric(lookups, "count")
    m["exact.hit_ratio"] = _metric(
        counts["exact.memo_hits"] / lookups if lookups else 0.0, "ratio")
    m["trace.overhead_s"] = _metric(
        _pass_seconds(traced) - _pass_seconds(untraced), "s")
    return m


def _write_trace(path: Path, workload, seed, traced) -> None:
    """Spans of every traced pass: [name, start, end, parent index]."""
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"workload": workload, "seed": seed,
           "passes": [p.spans for p in traced]}
    path.write_text(json.dumps(doc, separators=(",", ":")))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=list(workloads.WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", dest="setup_probe", type=Path,
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    # a budget leaked from the caller's environment would turn ops into exit 3
    os.environ.pop("SPLITWISE_BUDGET_MS", None)

    if args.setup_probe is not None:
        workloads.build(args.workload, args.seed, args.setup_probe)
        print("ready", flush=True)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = OUT / f"work-{os.getpid()}"
    untraced, traced, setup = [], [], []
    try:
        ops, rec = workloads.build(args.workload, args.seed, work), spans.Recorder()
        verdicts = Verdicts(ops, work)
        start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            is_traced = bool(args.trace) and len(untraced) > len(traced)
            if not args.trace:
                # one set-up probe per pass, so the probes meet the host in
                # as many different states as the passes do
                setup.append(_setup_probe(args.workload, args.seed, work / "probe"))
            run = _run_pass(ops, rec, is_traced)
            (traced if is_traced else untraced).append(run)
            verdicts.judge(run.results)
            now = time.perf_counter()
            # stop before a pass that would likely end after --seconds
            if (now - start) + (now - pass_start) > args.seconds and (
                    not args.trace or traced):
                break
        while not args.trace and len(setup) < MIN_SETUP_PROBES:
            setup.append(_setup_probe(args.workload, args.seed, work / "probe"))
        if args.trace:
            _write_trace(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                         args.workload, args.seed, traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = _per_layer(untraced, traced)
        section = "per_layer"
    else:
        metrics = _end_to_end(ops, untraced, setup, verdicts)
        section = "end_to_end"
    env = _environment()
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} passes={len(untraced)} untraced + {len(traced)} traced")
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, m in metrics.items():
        samples = f"  (n={m['samples']})" if "samples" in m else ""
        print(f"{name:<28} {m['value']:>16.6g} {m['unit']}{samples}")
    for problem in verdicts.problems[:20]:
        print(f"# FAILED {problem}")
    print("detail " + json.dumps({
        "workload": args.workload, "seed": args.seed, "env": env,
        "metrics": metrics, "counts": dict(sorted((traced or untraced)[-1].counts.items())),
        "op_seconds": [[r.results[i][0] for r in untraced] for i in range(len(ops))],
        "op_ref_seconds": [list(col) for col in zip(*(r.scaled() for r in untraced))],
        "kernel_seconds": [r.ref for r in untraced],
        "digest": verdicts.digest()}, sort_keys=True))
    print(json.dumps({
        "correct": verdicts.failed == 0, "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {e["name"]: {"value": metrics.get(e["name"], {}).get("value", 0),
                                "unit": e["unit"]} for e in spec[section]}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
