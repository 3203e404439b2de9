"""subseqrep benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.
With --trace 0 it cycles through the seeded input set for about S
seconds (at least one whole pass) and reports the end-to-end metrics.  With
--trace 1 it makes one plain pass and one pass with spans around every
public function of the traced modules, and reports the per-layer
metrics.  Every output is checked against the recorded answers; the last
line of stdout is the JSON result.  Exit code 2 when the checkout has no
subseqrep sources.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from spans import MODULES, Tracer, traced
from workloads import ROOT, WORKLOADS, Pass, ProgramMissing, Program

SETUP_PROBES = 24  # fresh-interpreter set-ups per run, besides the run's own
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "peak_rss_mib": "MiB",
}


def setup(name: str, seed: int):
    """Import the package, load the expected answers, generate the input set."""
    work = WORKLOADS[name]
    program = Program()
    items = work.inputs(seed, program, work.expected())
    return work, program, items


def probe_setups(name: str, seed: int, count: int) -> list[float]:
    """Set-up times, each in a fresh interpreter, so that imports are not cached."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        times.append(float(proc.stdout.split()[-1]))
    return times


def measure(work, program, items, seconds: float) -> Pass:
    """Items of the set in turn, from the first again after the last, until
    the next would likely end after ``seconds``; at least one whole pass.

    The host's speed drifts over tens of seconds, so a run measures for
    all of ``seconds`` rather than for whole passes only.
    """
    out = Pass()
    start = perf_counter()
    for done in itertools.count(1):
        work.run_item(items[(done - 1) % len(items)], program, out)
        elapsed = perf_counter() - start
        if done >= len(items) and elapsed * (done + 1) / done > seconds:
            return out


def end_to_end(run: Pass, setup_times) -> tuple[dict, list[str]]:
    ops = run.ops
    p90 = statistics.quantiles(ops, n=10, method="inclusive")[-1] if len(ops) > 1 else ops[0]
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": run.wall,
        "op_p50_s": statistics.median(ops),
        "op_p90_s": p90,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    above = sum(t > p90 for t in ops)
    notes = [
        f"op_p90_s over {len(ops)} ops, {above} above it"
        + ("" if above >= 10 else " (fewer than 10: indicative only)"),
        f"setup_s median of {len(setup_times)} set-ups: this process's and"
        f" {len(setup_times) - 1} in fresh interpreters, half before and half after the measurement",
        f"wall_s sum over {len(run.item_walls)} items of each item's mean over its"
        f" {'/'.join(str(n) for n in sorted({len(w) for w in run.item_walls.values()}))} runs",
    ]
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}, notes


def per_layer(tracer: Tracer, traced_pass, plain_pass) -> dict:
    s = tracer.get
    lcs3, lcs2 = s("lcs.lcs3_all_prefixes"), s("lcs.lcs2_all_prefixes")
    cube, square = s("tables.cube_table"), s("tables.square_table")
    plus = s("plus3.lsrs_plus3")
    cli_self = sum(st.self_time for name, st in tracer.stats.items() if name.startswith("cli."))
    return {
        "lcs.lcs3_calls": (lcs3.calls, "count"),
        "lcs.lcs3_cells": (lcs3.cells, "count"),
        "lcs.lcs3_s": (lcs3.total, "s"),
        "tables.cube_table_s": (cube.total, "s"),
        "tables.cube_table_self_s": (cube.self_time, "s"),
        "lcs.lcs2_calls": (lcs2.calls, "count"),
        "lcs.lcs2_cells": (lcs2.cells, "count"),
        "lcs.lcs2_s": (lcs2.total, "s"),
        "tables.square_table_s": (square.total, "s"),
        "tables.square_table_self_s": (square.self_time, "s"),
        "tables.cube_witness_s": (s("tables.cube_witness").total, "s"),
        "tables.cube_witness_calls": (s("tables.cube_witness").calls, "count"),
        "tables.square_witness_s": (s("tables.square_witness").total, "s"),
        "tables.square_witness_calls": (s("tables.square_witness").calls, "count"),
        "lcs.witness_s": (s("lcs.lcs2_witness").total + s("lcs.lcs3_witness").total, "s"),
        "plus3.coverage_tables_s": (s("plus3.coverage_tables").total, "s"),
        "plus3.s2_s3_s": (s("plus3.s2_table").total + s("plus3.s3_table").total, "s"),
        "plus3.feasibility_self_s": (s("plus3.feasibility_tables").self_time, "s"),
        "plus3.lsrs_plus3_self_s": (plus.self_time, "s"),
        "plus3.feasible_ratio": (traced_pass.feasible / plus.calls if plus.calls else 0.0, "ratio"),
        "lsrs.lsrs_self_s": (s("lsrs.lsrs").self_time, "s"),
        "core.parse_s": (s("core.parse_sequence").total, "s"),
        "core.validate_s": (s("core.validate_srs").total, "s"),
        "core.validate_calls": (s("core.validate_srs").calls, "count"),
        "cli.analyze_self_s": (cli_self, "s"),
        "trace.wall_s": (traced_pass.wall, "s"),
        "trace.gap_s": (traced_pass.wall - tracer.top_level, "s"),
        "trace.overhead_ratio": (traced_pass.wall / plain_pass.wall, "ratio"),
    }


def self_time_lines(tracer: Tracer, wall: float) -> list[str]:
    rows = sorted(tracer.stats.items(), key=lambda kv: -kv[1].self_time)
    lines = [f"self time of the traced pass ({wall:.4f} s, modules {', '.join(MODULES)}):"]
    for name, st in rows:
        if st.calls:
            lines.append(
                f"  {name:32s} {st.self_time:10.4f} s self {st.total:10.4f} s incl"
                f" {100 * st.self_time / wall:6.2f} %  {st.calls} calls"
            )
    return lines


def environment(name: str, seed: int, items) -> dict:
    src = sorted((ROOT / "src" / "subseqrep").glob("*.py"))
    src_sha = hashlib.sha256(b"".join(p.read_bytes() for p in src)).hexdigest()[:16]
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        git_sha = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha,
        "src_sha": src_sha,
        "workload": name,
        "n": WORKLOADS[name].n,
        "seed": seed,
        "inputs": [item.label for item in items],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="subseqrep benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        t0 = perf_counter()
        work, program, items = setup(args.workload, args.seed)
        setup_time = perf_counter() - t0
    except (ProgramMissing, FileNotFoundError) as exc:
        print(f"cannot set up: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(f"{setup_time!r}")
        return 0

    print(json.dumps({"env": environment(args.workload, args.seed, items)}))
    if args.trace:
        plain = work.run_pass(items, program)
        tracer = Tracer()
        with traced(tracer):
            traced_pass = work.run_pass(items, program)
        passes = [plain, traced_pass]
        metrics = per_layer(tracer, traced_pass, plain)
        notes = self_time_lines(tracer, traced_pass.wall)
    else:
        # Import time drifts with the host over tens of seconds, so half
        # of the probes run before the measurement and half after it.
        setup_times = [setup_time] + probe_setups(args.workload, args.seed, SETUP_PROBES // 2)
        timed = measure(work, program, items, args.seconds)
        setup_times += probe_setups(args.workload, args.seed, SETUP_PROBES // 2)
        passes = [timed]
        metrics, notes = end_to_end(timed, setup_times)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for p in passes:
        for problem in p.problems[:20]:
            print(f"FAIL {problem}", file=sys.stderr)
    for note in notes:
        print(note)
    for key, (value, unit) in metrics.items():
        print(f"{args.workload} {key} {value} {unit}")
    print(f"{args.workload} fail_ratio {failed / attempted} ratio ({failed}/{attempted} ops)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
