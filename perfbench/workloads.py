"""Workloads of the subseqrep benchmark: seeded inputs, timed passes, checks.

Every workload draws its input set from a fixed pool of generated inputs.
Pool member ``k`` comes from a seeded generator keyed by ``k``, and
``record.py`` stores the expected answers for the whole pool, so the
answers of any ``--seed`` were recorded from known-good code.  The seed
picks the pool members (and, for witness queries, the intervals).

A *pass* runs the program once over the input set, item by item; a
timed run cycles through the set for as long as it measures.  Only calls
into the package are timed; the checks run between timed calls.  A
wrong, invalid or raising answer marks its op as failed and the run
goes on.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED_DIR = HERE / "expected"


class ProgramMissing(RuntimeError):
    """The checkout holds no importable subseqrep sources."""


class Program:
    """The package under test, imported from the checkout's ``src``.

    ``validate_srs`` is bound at import time so that the benchmark's own
    checks stay outside any tracing installed later.
    """

    def __init__(self):
        src = ROOT / "src"
        if not (src / "subseqrep" / "__init__.py").is_file():
            raise ProgramMissing(f"no subseqrep sources under {src}")
        if str(src) not in sys.path:
            sys.path.insert(0, str(src))
        import subseqrep
        import subseqrep.cli

        if Path(subseqrep.__file__).resolve().parent != (src / "subseqrep").resolve():
            raise ProgramMissing(f"subseqrep imported from {subseqrep.__file__}, not {src}")
        self.pkg = subseqrep
        self.cli = sys.modules["subseqrep.cli"]
        self.validate_srs = subseqrep.validate_srs


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def witness_digest(dec) -> str:
    if dec is None:
        return "-"
    return digest(repr([(b.root, b.exponent, b.copies) for b in dec.blocks]))


# --- seeded generators -----------------------------------------------------


def dna(key: str, n: int) -> str:
    rng = random.Random(key)
    return "".join(rng.choice("ACGT") for _ in range(n))


MAX_ROOT = 6  # longest root X of a planted block


def planted_bound3(key: str, n: int) -> list[str]:
    """Concatenated blocks X^2 / X^3, each X made of fresh distinct letters.

    Every letter occurs exactly 2 or 3 times and the whole string is a
    covering solution, so ``lsrs_plus3`` must find it feasible.
    """
    rng = random.Random(key)
    tokens: list[str] = []
    fresh = 0
    while len(tokens) < n:
        left = n - len(tokens)
        shapes = [
            (r, e)
            for e in (2, 3)
            for r in range(1, MAX_ROOT + 1)
            if r * e <= left and left - r * e != 1
        ]
        r, e = rng.choice(shapes)
        tokens.extend([f"t{fresh + k}" for k in range(r)] * e)
        fresh += r
    return tokens


def shuffled_bound3(key: str, n: int) -> list[str]:
    """The same letter counts as a planted string, in shuffled order."""
    tokens = planted_bound3(key, n)
    random.Random(f"{key}:shuffle").shuffle(tokens)
    return tokens


# --- pass bookkeeping --------------------------------------------------------


@dataclass
class Pass:
    """Timings and check results of one or more passes over an input set."""

    item_walls: dict[str, list[float]] = field(default_factory=dict)
    ops: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    feasible: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def wall(self) -> float:
        """Time to finish the input set: per item, the mean of its runs.

        An item's run is the sum of its timed calls into the package.
        """
        return sum(statistics.fmean(walls) for walls in self.item_walls.values())

    def item(self, label: str, seconds: float) -> None:
        self.item_walls.setdefault(label, []).append(seconds)

    def op(self, seconds: float, problems: list[str], label: str) -> None:
        self.ops.append(seconds)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)


def _raised(exc: BaseException) -> list[str]:
    return ["raised " + "".join(traceback.format_exception_only(type(exc), exc)).strip()]


def check_dec(program: Program, seq, dec, want_len: int, cover=frozenset()) -> list[str]:
    """Re-validate a witness and compare its length with the cell it claims."""
    problems = list(program.validate_srs(seq, dec, cover))
    if dec.total_length != want_len:
        problems.append(f"witness length {dec.total_length} != {want_len}")
    return problems


@contextlib.contextmanager
def _stdin(text: str):
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        yield
    finally:
        sys.stdin = saved


# --- workloads ---------------------------------------------------------------


@dataclass
class Item:
    label: str
    seq: object
    expected: dict
    text: str = ""
    queries: list = field(default_factory=list)


class Workload:
    name = ""
    n = 0

    def expected(self) -> dict:
        with open(EXPECTED_DIR / f"{self.name}.json", encoding="utf-8") as handle:
            doc = json.load(handle)
        if doc["n"] != self.n:
            raise ValueError(f"{self.name}: expected answers are for n={doc['n']}")
        return doc

    def run_pass(self, items: list[Item], program: Program) -> Pass:
        out = Pass()
        for item in items:
            self.run_item(item, program, out)
        return out

    @staticmethod
    def _check_input(label: str, text: str, exp: dict) -> None:
        if digest(text) != exp["input"]:
            raise ValueError(f"{label}: generated input differs from the recorded one")


class AnalyzeDna(Workload):
    name = "analyze-dna48"
    n = 48
    pool = 40
    per_set = 5

    def text(self, k: int) -> str:
        return f">{self.name}-{k}\n{dna(f'{self.name}:{k}', self.n)}\n"

    def inputs(self, seed: int, program: Program, expected: dict) -> list[Item]:
        picks = random.Random(f"{self.name}:{seed}").sample(range(self.pool), self.per_set)
        items = []
        for k in picks:
            text = self.text(k)
            exp = expected["pool"][k]
            self._check_input(f"pool {k}", text, exp)
            seq = program.pkg.parse_sequence(text.splitlines()[1])
            items.append(Item(f"pool {k}", seq, exp, text=text))
        return items

    @staticmethod
    def analyze(program: Program, text: str):
        """``subseqrep analyze -`` on ``text``: (exit code or exception, stdout, seconds)."""
        buf = io.StringIO()
        with _stdin(text), contextlib.redirect_stdout(buf):
            t0 = perf_counter()
            try:
                code = program.cli.main(["analyze", "-"])
            except Exception as exc:  # counted as a failed op, the run goes on
                code = exc
            dt = perf_counter() - t0
        return code, buf.getvalue(), dt

    def run_item(self, item: Item, program: Program, out: Pass) -> None:
        code, text, dt = self.analyze(program, item.text)
        out.item(item.label, dt)
        if isinstance(code, Exception):
            problems = _raised(code)
        elif code != 0:
            problems = [f"exit code {code}"]
        else:
            problems = self.check(program, item, text)
        out.op(dt, problems, item.label)

    def check(self, program: Program, item: Item, text: str) -> list[str]:
        try:
            report = json.loads(text)
            report.pop("timing_ms")
            problems = []
            for key in ("square", "cube", "lsrs"):
                if report[key]["length"] != item.expected[key]:
                    problems.append(
                        f"{key} length {report[key]['length']} != recorded {item.expected[key]}"
                    )
            if digest(json.dumps(report, sort_keys=True)) != item.expected["report"]:
                problems.append("report differs from the recorded one")
            for key, sub in (("square", "witness"), ("cube", "witness"), ("lsrs", "decomposition")):
                length = report[key]["length"]
                doc = report[key][sub]
                if doc is None:
                    if length:
                        problems.append(f"{key}: no witness for length {length}")
                    continue
                problems += check_dec(program, item.seq, self.decomposition(program, item.seq, doc), length)
            return problems
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            return [f"malformed report: {exc!r}"]

    @staticmethod
    def decomposition(program: Program, seq, doc: dict):
        ids = {tok: k for k, tok in enumerate(seq.tokens)}
        blocks = tuple(
            program.pkg.Block(
                tuple(ids[t] for t in b["root"]),
                b["exponent"],
                tuple(tuple(c) for c in b["copies"]),
            )
            for b in doc["blocks"]
        )
        return program.pkg.SrsDecomposition(blocks)

    def record(self, program: Program, log) -> dict:
        pool = []
        for k in range(self.pool):
            text = self.text(k)
            code, out, dt = self.analyze(program, text)
            if code != 0:
                raise RuntimeError(f"pool {k}: analyze gave {code!r}")
            report = json.loads(out)
            report.pop("timing_ms")
            pool.append(
                {
                    "input": digest(text),
                    "report": digest(json.dumps(report, sort_keys=True)),
                    "square": report["square"]["length"],
                    "cube": report["cube"]["length"],
                    "lsrs": report["lsrs"]["length"],
                }
            )
            log(f"{self.name} pool {k}: {dt:.3f} s {pool[-1]}")
        return {"n": self.n, "pool": pool}


class Plus3Bound3(Workload):
    name = "plus3-bound3-n128"
    n = 128
    pool = 24  # per kind
    # Ops differ by content (the same string is steadily 1.4 s or 1.8 s),
    # so a set holds 16 distinct strings rather than 8 strings twice.
    per_kind = 8
    kinds = (("planted", planted_bound3), ("shuffled", shuffled_bound3))

    def tokens(self, kind: str, k: int) -> list[str]:
        return dict(self.kinds)[kind](f"{self.name}:{kind}:{k}", self.n)

    def inputs(self, seed: int, program: Program, expected: dict) -> list[Item]:
        rng = random.Random(f"{self.name}:{seed}")
        items = []
        for kind, _ in self.kinds:
            for k in rng.sample(range(self.pool), self.per_kind):
                tokens = self.tokens(kind, k)
                exp = expected[kind][k]
                self._check_input(f"{kind} {k}", " ".join(tokens), exp)
                items.append(Item(f"{kind} {k}", program.pkg.sequence_from_tokens(tokens), exp))
        rng.shuffle(items)
        return items

    def run_item(self, item: Item, program: Program, out: Pass) -> None:
        t0 = perf_counter()
        try:
            res = program.pkg.lsrs_plus3(item.seq)
        except Exception as exc:  # counted as a failed op, the run goes on
            res = exc
        dt = perf_counter() - t0
        out.item(item.label, dt)
        if isinstance(res, Exception):
            problems = _raised(res)
        else:
            problems = self.check(program, item, res)
            out.feasible += res.feasible
        out.op(dt, problems, item.label)

    def check(self, program: Program, item: Item, res) -> list[str]:
        exp = item.expected
        got = (res.feasible, res.length, witness_digest(res.decomposition))
        want = (exp["feasible"], exp["length"], exp["witness"])
        problems = [] if got == want else [f"(feasible, length, witness) {got} != recorded {want}"]
        if res.feasible:
            if res.decomposition is None:
                return problems + ["feasible result without a witness"]
            cover = frozenset(range(item.seq.alphabet_size))
            problems += check_dec(program, item.seq, res.decomposition, res.length, cover)
        elif res.decomposition is not None or res.length != -1:
            problems.append("infeasible result carries a witness or a length")
        return problems

    def record(self, program: Program, log) -> dict:
        doc = {"n": self.n}
        for kind, _ in self.kinds:
            doc[kind] = []
            for k in range(self.pool):
                tokens = self.tokens(kind, k)
                seq = program.pkg.sequence_from_tokens(tokens)
                t0 = perf_counter()
                res = program.pkg.lsrs_plus3(seq)
                dt = perf_counter() - t0
                if res.feasible != (kind == "planted"):
                    raise RuntimeError(f"{kind} {k}: feasible={res.feasible}")
                doc[kind].append(
                    {
                        "input": digest(" ".join(tokens)),
                        "feasible": res.feasible,
                        "length": res.length,
                        "witness": witness_digest(res.decomposition),
                    }
                )
                log(f"{self.name} {kind} {k}: {dt:.3f} s {doc[kind][-1]}")
        return doc


class WitnessQueries(Workload):
    name = "witness-queries"
    n = 32
    pool = 24
    per_set = 5
    # Each query asks both witnesses of one interval.  A cube query costs
    # about len^5, so every string gets the same number of intervals of
    # each length (start positions seeded); sampling intervals uniformly
    # made the work of a set swing with the lengths drawn.
    per_length = 3

    def intervals(self) -> list[tuple[int, int]]:
        n = self.n
        return [(i, j) for i in range(1, n + 1) for j in range(i, n + 1) if j - i + 1 >= n // 2]

    def text(self, k: int) -> str:
        return dna(f"{self.name}:{k}", self.n)

    def inputs(self, seed: int, program: Program, expected: dict) -> list[Item]:
        rng = random.Random(f"{self.name}:{seed}")
        index = {span: idx for idx, span in enumerate(self.intervals())}
        n = self.n
        items = []
        for k in rng.sample(range(self.pool), self.per_set):
            text = self.text(k)
            exp = expected["pool"][k]
            self._check_input(f"pool {k}", text, exp)
            queries = [
                (i, i + length - 1, index[i, i + length - 1])
                for length in range(n // 2, n + 1)
                for i in rng.sample(range(1, n - length + 2), min(self.per_length, n - length + 1))
            ]
            rng.shuffle(queries)
            items.append(Item(f"pool {k}", program.pkg.parse_sequence(text), exp, queries=queries))
        return items

    def run_item(self, item: Item, program: Program, out: Pass) -> None:
        pkg = program.pkg
        exp = item.expected
        wall = 0.0
        tables = []
        table_problems = []
        for build, key in ((pkg.square_table, "q2"), (pkg.cube_table, "q3")):
            t0 = perf_counter()
            try:
                table = build(item.seq)
            except Exception as exc:  # its queries are counted as failed
                table = exc
            wall += perf_counter() - t0
            if isinstance(table, Exception):
                table_problems += [f"{key} build " + p for p in _raised(table)]
                table = None
            elif digest(repr(table.rows)) != exp[key]:
                table_problems.append(f"{key} table differs from the recorded one")
            tables.append(table)
        q2, q3 = tables
        for i, j, idx in item.queries:
            t0 = perf_counter()
            try:
                sw = pkg.square_witness(item.seq, i, j)
                cw = pkg.cube_witness(item.seq, i, j)
            except Exception as exc:  # counted as a failed op, the run goes on
                sw = exc
            dt = perf_counter() - t0
            wall += dt
            problems = list(table_problems)
            if isinstance(sw, Exception):
                problems += _raised(sw)
            else:
                for kind, dec, table in (("square", sw, q2), ("cube", cw, q3)):
                    problems += self.check(program, item.seq, kind, dec, table, i, j)
                    if witness_digest(dec) != exp[kind][idx]:
                        problems.append(f"{kind} witness differs from the recorded one")
            out.op(dt, problems, f"{item.label} [{i},{j}]")
        out.item(item.label, wall)

    @staticmethod
    def check(program: Program, seq, kind: str, dec, table, i: int, j: int) -> list[str]:
        if table is None:
            return []
        cell = table.get(i, j)
        if dec is None:
            return [f"{kind}: no witness for cell value {cell}"] if cell else []
        return [f"{kind}: {p}" for p in check_dec(program, seq, dec, cell)]

    def record(self, program: Program, log) -> dict:
        pkg = program.pkg
        pool = []
        for k in range(self.pool):
            text = self.text(k)
            seq = pkg.parse_sequence(text)
            t0 = perf_counter()
            entry = {
                "input": digest(text),
                "q2": digest(repr(pkg.square_table(seq).rows)),
                "q3": digest(repr(pkg.cube_table(seq).rows)),
                "square": [witness_digest(pkg.square_witness(seq, i, j)) for i, j in self.intervals()],
                "cube": [witness_digest(pkg.cube_witness(seq, i, j)) for i, j in self.intervals()],
            }
            pool.append(entry)
            log(f"{self.name} pool {k}: {perf_counter() - t0:.3f} s")
        return {"n": self.n, "pool": pool}


WORKLOADS = {w.name: w for w in (AnalyzeDna(), Plus3Bound3(), WitnessQueries())}
