"""Command-line front end.

Subcommands: analyze (all solvers on one sequence), tables (dump the
square/cube interval table), reduce (graph -> SAT -> string instances),
oracle (brute-force reference values), bench (timing + fitted scaling
slope).  All reports are JSON documents on stdout; timings live in one
subtree so the rest is byte-stable across runs.

Commands raise on failure and return nothing; ``main`` alone writes
the one stderr line and picks the exit code:

- 0 ok;
- 2 "input error: ..." (reading or parsing input, input that is not
  UTF-8, a rejected option value) or "output error: ..." (the ``-o``
  file cannot be written);
- 3 "budget exceeded: ..." (an oracle's limit, or an input longer than
  ``--max-n``: "budget exceeded: sequence length N exceeds --max-n M");
- 4 "internal invariant failure: ..." (a failed check, or any other
  ValueError);
- 130 "interrupted" (Ctrl-C);
- 141 nothing (stdout closed by its reader, a broken pipe).

Options argparse itself rejects exit 2 with its usage message.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import sys
import time
from collections import Counter

from .core import (
    Sequence,
    SrsDecomposition,
    _fields,
    parse_sequence,
    sequence_from_tokens,
    split_exponent,
)
from .hardness import (
    assignment_from_coloring,
    coloring_to_sat,
    extract_witness,
    parse_graph,
    sat_from_json_doc,
    sat_to_json_doc,
    sat_to_string,
    to_dimacs,
)
from .lsrs import lsrs
from .oracles import (
    BudgetExceededError,
    oracle_cube_table,
    oracle_lsrs,
    oracle_lsrs_plus,
    oracle_square_table,
)
from .plus3 import OccurrenceBoundError, lsrs_plus3
from .tables import (
    check_no_longer_cube,
    cube_search,
    cube_table,
    square_table,
    square_witness,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4
EXIT_INTERRUPTED = 130
EXIT_BROKEN_PIPE = 141


class _InputError(Exception):
    pass


class _OutputError(Exception):
    pass


def _parsed(parse, *args):
    """Call a parser on input data; its ValueError becomes an input error."""
    try:
        return parse(*args)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc


def _int_list(tokens: list[str]) -> list[int]:
    return [int(tok) for tok in tokens if tok]


def _read_text(path: str | None) -> str:
    """The input as UTF-8 text; undecodable bytes are an input error.

    Stdin under a C locale reads them as lone surrogates
    (``errors="surrogateescape"``), which fail to re-encode.
    """
    try:
        if path is None or path == "-":
            text = sys.stdin.read()
            text.encode("utf-8")
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
    except UnicodeError as exc:
        raise _InputError(f"input is not valid UTF-8: {exc}") from exc
    return text


def read_sequence(path: str | None, tokens: bool) -> Sequence:
    return _parsed(parse_sequence, _read_text(path), "tokens" if tokens else "raw")


def decomposition_doc(seq: Sequence, dec: SrsDecomposition | None) -> dict | None:
    if dec is None:
        return None
    return {
        "blocks": [
            {
                "root": [seq.tokens[a] for a in b.root],
                "exponent": b.exponent,
                "copies": [list(c) for c in b.copies],
            }
            for b in dec.blocks
        ],
        "total_length": dec.total_length,
        "display": dec.render(seq),
    }


def _check_max_n(n: int, max_n: int) -> None:
    if n > max_n:
        raise BudgetExceededError(f"sequence length {n} exceeds --max-n {max_n}")


def cmd_analyze(args) -> None:
    seq = read_sequence(args.input, args.tokens)
    _check_max_n(seq.n, args.max_n)
    _emit(args, analyze_report(seq))


def analyze_report(seq: Sequence) -> dict:
    """The ``analyze`` report of one sequence, ``timing_ms`` included.

    The square table fills one list of cut vectors, which the cube check
    and ``lsrs``'s cube rows read; the witnesses build their own.  Every
    solver validates the witness it returns, so the cube witness bounds
    the longest cube from below; ``check_no_longer_cube`` bounds it from
    above with the values the witness's search settled, each cut pair's
    root or a threshold its kernel proved the root does not exceed.  Raises
    AssertionError when a witness fails its solver's validation, when
    the square witness is not Q2[1, n] long or the cube witness is not
    one exponent-3 block, or when the cube check fails.
    """
    n = seq.n
    pre = [None] * n
    t0 = time.perf_counter()
    q2 = square_table(seq, pre=pre)
    square_ms = _ms_since(t0)
    sq_len = q2.get(1, n) if n else 0
    t0 = time.perf_counter()
    sq_wit = square_witness(seq, 1, n) if sq_len else None
    cu_wit, cu_runs = cube_search(seq, 1, n) if n else (None, {})
    witnesses_ms = _ms_since(t0)
    got = sq_wit.total_length if sq_wit else 0
    if got != sq_len:
        raise AssertionError(f"square witness length {got} != Q2[1, n] = {sq_len}")
    if cu_wit is not None and [b.exponent for b in cu_wit.blocks] != [3]:
        raise AssertionError("cube witness is not a single exponent-3 block")
    cu_len = cu_wit.total_length if cu_wit else 0
    t0 = time.perf_counter()
    check_no_longer_cube(seq, cu_len // 3, cu_runs, pre)
    timing = {"square": square_ms, "cube": _ms_since(t0), "witnesses": witnesses_ms}
    max_occurrence = max(Counter(seq.letters).values(), default=0)
    report = {
        "input": {
            "n": n,
            "alphabet": seq.alphabet_size,
            "max_occurrence": max_occurrence,
        },
        "square": {
            "length": sq_len,
            "witness": decomposition_doc(seq, sq_wit),
        },
        "cube": {
            "length": cu_len,
            "witness": decomposition_doc(seq, cu_wit),
        },
    }
    t0 = time.perf_counter()
    result = lsrs(seq, q2=q2, pre=pre)
    timing["lsrs"] = _ms_since(t0)
    report["lsrs"] = {
        "length": result.length,
        "decomposition": decomposition_doc(seq, result.decomposition),
    }
    if max_occurrence <= 3:
        t0 = time.perf_counter()
        plus = lsrs_plus3(seq, q2=q2)
        timing["lsrs_plus3"] = _ms_since(t0)
        report["lsrs_plus3"] = {
            "feasible": plus.feasible,
            "length": plus.length,
            "decomposition": decomposition_doc(seq, plus.decomposition),
        }
    report["timing_ms"] = timing
    return report


def _ms_since(t0: float) -> float:
    return round((time.perf_counter() - t0) * 1000.0, 3)


def cmd_tables(args) -> None:
    seq = read_sequence(args.input, args.tokens)
    _check_max_n(seq.n, args.max_n)
    table = (square_table if args.which == "q2" else cube_table)(seq)
    if args.format == "csv":
        lines = []
        for i in range(1, seq.n + 1):
            row = [""] * (i - 1) + [str(v) for v in table.rows[i - 1]]
            lines.append(",".join(row) + "\n")
        _emit_text(args, "".join(lines))
    else:
        _emit(args, {"which": args.which, "n": seq.n, "rows": table.rows})


def cmd_oracle(args) -> None:
    seq = read_sequence(args.input, args.tokens)
    if args.kind in ("q2", "q3"):
        table = (oracle_square_table if args.kind == "q2" else oracle_cube_table)(seq)
        value = table.get(1, seq.n) if seq.n else 0
    elif args.kind == "lsrs":
        value = oracle_lsrs(seq)
    else:
        got = oracle_lsrs_plus(seq)
        value = "infeasible" if got is None else got
    _emit(args, {"kind": args.kind, "value": value})


def cmd_reduce(args) -> None:
    unused = {"sat": "tokens", "string": "dimacs"}[args.target]
    if args.format == unused:
        raise _InputError(f"--format {unused} does not apply to --to {args.target}")
    witness_ok = (args.source, args.target, args.format) == ("coloring", "string", "json")
    if args.witness and not witness_ok:
        raise _InputError("--witness needs --from coloring --to string --format json")
    text = _read_text(args.input)
    graph = None
    if args.source == "coloring":
        graph = _parsed(parse_graph, text)
        sat = coloring_to_sat(graph)
    else:
        sat = _parsed(sat_from_json_doc, _parsed(json.loads, text))

    if args.target == "sat":
        if args.format == "dimacs":
            _emit_text(args, to_dimacs(sat))
        else:
            _emit(args, sat_to_json_doc(sat))
        return

    instance = _parsed(sat_to_string, sat)
    if args.format == "tokens":
        _emit_text(args, instance.seq.render(" ") + "\n")
        return
    doc = {
        "tokens": instance.seq.render(" "),
        "length": instance.seq.n,
        "alphabet": instance.seq.alphabet_size,
        "plus_clauses": instance.num_plus,
        "neg_clauses": instance.num_neg,
        "legend": instance.legend,
    }
    if args.witness:
        colors = _parsed(_int_list, _parsed(_fields, _read_text(args.witness)))
        assignment = _parsed(assignment_from_coloring, graph, sat, colors)
        if not assignment.valid:
            raise _InputError("coloring does not induce a valid assignment")
        dec = extract_witness(sat, assignment, instance)
        doc["witness"] = decomposition_doc(instance.seq, dec)
        doc["witness"]["validation"] = "ok"
    _emit(args, doc)


def _bench_input(alg: str, n: int, seed: int) -> Sequence:
    """Deterministic benchmark input; bound-3 algorithms get a bound-3 string."""
    rng = random.Random(f"{seed}:{alg}:{n}")
    if alg == "plus3":
        parts = split_exponent(n) if n >= 2 else [n] * (n > 0)
        tokens = [f"x{i}" for i, part in enumerate(parts) for _ in range(part)]
        rng.shuffle(tokens)
        return sequence_from_tokens(tokens)
    return sequence_from_tokens([rng.choice("abcd") for _ in range(n)])


def _bench_once(alg: str, seq: Sequence) -> None:
    if alg == "q2":
        square_table(seq)
    elif alg == "q3":
        cube_table(seq)
    elif alg == "lsrs":
        lsrs(seq)
    elif alg == "analyze":
        analyze_report(seq)
    else:
        lsrs_plus3(seq)


def fitted_slope(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(max(t, 1e-9)) for _, t in points]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    num = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    den = sum((x - mean_x) ** 2 for x in xs)
    return num / den


def cmd_bench(args) -> None:
    import statistics  # here, not at the top: analyze never needs it

    sizes = _parsed(_int_list, args.sizes.split(","))
    if len(set(sizes)) < 2:
        raise _InputError("need at least two distinct sizes")
    if min(sizes) < 1:
        raise _InputError(f"sizes must be at least 1, got {min(sizes)}")
    _check_max_n(max(sizes), args.max_n)
    rows = []
    points = []
    for n in sizes:
        seq = _bench_input(args.alg, n, args.seed)
        reps = args.reps if args.reps else (5 if n <= 16 else 1)
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            _bench_once(args.alg, seq)
            times.append(time.perf_counter() - t0)
        best = min(times)
        rows.append(
            {
                "n": n,
                "seconds": round(best, 6),
                "median": round(statistics.median(times), 6),
                "times": [round(t, 6) for t in times],
            }
        )
        points.append((n, best))
    _emit(
        args,
        {
            "alg": args.alg,
            "seed": args.seed,
            "git": _git_head(),
            "python": platform.python_version(),
            "cpus": _available_cpus(),
            "rows": rows,
            "slope": round(fitted_slope(points), 3),
        },
    )


def _available_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _git_head() -> str | None:
    """HEAD sha of the git checkout that holds this package, or None outside one.

    The sha ends in ``-dirty`` when the package's files differ from HEAD.
    """
    import subprocess  # here, not at the top: analyze never needs it

    def git(*argv):
        return subprocess.run(
            ["git", *argv],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=10,
        )

    try:
        head = git("rev-parse", "HEAD")
        if head.returncode != 0:
            return None
        diff = git("diff", "--quiet", "HEAD", "--", ".")
    except (OSError, subprocess.SubprocessError):  # no git, or it hung
        return None
    sha = head.stdout.strip()
    return sha + "-dirty" if diff.returncode == 1 else sha


def _emit(args, doc) -> None:
    _emit_text(args, json.dumps(doc, indent=2) + "\n")


def _emit_text(args, text: str) -> None:
    out = getattr(args, "output", None)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise _OutputError(str(exc)) from exc
    else:
        sys.stdout.write(text)
        sys.stdout.flush()  # a closed pipe fails here, inside main, not at exit


def _int_at_least(least: int):
    """argparse type: an integer no smaller than ``least`` (exit 2 otherwise)."""

    def parse(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its invalid-value message
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subseqrep",
        description="Square, cubic and repeat-subsequence analysis of sequences",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_guard(p):
        p.add_argument(
            "--max-n",
            type=_int_at_least(0),
            default=64,
            help="refuse longer inputs; a full cube table "
            "(tables --which q3, bench --alg q3) costs O(n^6)",
        )

    def add_common(p, with_guard=True):
        p.add_argument("input", nargs="?", help="input file, or - for stdin")
        p.add_argument("--tokens", action="store_true", help="whitespace-token input")
        p.add_argument("-o", "--output", help="write the report to a file")
        if with_guard:
            add_guard(p)

    p = sub.add_parser("analyze", help="run every solver on one sequence")
    add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("tables", help="dump an interval table")
    add_common(p)
    p.add_argument("--which", choices=("q2", "q3"), required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("oracle", help="brute-force reference value")
    add_common(p, with_guard=False)
    p.add_argument("--kind", choices=("q2", "q3", "lsrs", "lsrs-plus"), required=True)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("reduce", help="generate hardness instances")
    p.add_argument("input", nargs="?", help="graph or SAT document file, - for stdin")
    p.add_argument("--from", dest="source", choices=("coloring", "sat"), required=True)
    p.add_argument("--to", dest="target", choices=("sat", "string"), required=True)
    p.add_argument("--format", choices=("json", "dimacs", "tokens"), default="json")
    p.add_argument("--witness", help="coloring file: extract and validate a repeat witness")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("bench", help="timing and fitted log-log slope")
    p.add_argument(
        "--alg", choices=("q2", "q3", "lsrs", "plus3", "analyze"), required=True
    )
    p.add_argument("--sizes", required=True, help="comma-separated lengths")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reps", type=_int_at_least(0), default=0, help="0 = pick automatically")
    p.add_argument("-o", "--output")
    add_guard(p)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except BrokenPipeError:
        # the reader has gone: send what is still buffered to devnull, so
        # that the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (_InputError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except _OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (BudgetExceededError, OccurrenceBoundError) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (AssertionError, ValueError) as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
