"""Acceptance suite: one test per criterion, one printed verdict line each."""

import itertools
import json
import random
import time

from subseqrep.core import (
    Block,
    OccurrenceIndex,
    SrsDecomposition,
    parse_sequence,
    validate_srs,
)
from subseqrep.cli import _bench_input, fitted_slope
from subseqrep.hardness import (
    Graph,
    assignment_from_coloring,
    brute_force_assignment,
    brute_force_coloring,
    check_reduction_invariants,
    coloring_to_sat,
    extract_witness,
    sat_to_string,
)
from subseqrep.lsrs import lsrs
from subseqrep.oracles import (
    oracle_cube_table,
    oracle_lsrs,
    oracle_lsrs_plus,
    oracle_square_table,
)
from subseqrep.plus3 import coverage_tables, feasibility_tables, lsrs_plus3
from subseqrep.tables import cube_table, square_table

from helpers import random_bound3_string, random_string, strings_up_to


def _finish(name: str, failures: list[str]) -> None:
    verdict = "PASS" if not failures else "FAIL"
    detail = f" ({'; '.join(failures)})" if failures else ""
    print(f"acceptance {name}: {verdict}{detail}")
    assert not failures, f"{name}: " + "; ".join(failures)


def _timed(failures: list[str], label: str, budget: float, fn):
    t0 = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - t0
    if elapsed >= budget:
        failures.append(f"{label} took {elapsed:.2f}s (budget {budget}s)")
    return result


def test_criterion_1_worked_examples():
    failures: list[str] = []

    def first_example():
        s = parse_sequence("ACGAGCGCAGCGA")
        if square_table(s).get(1, 13) != 10:
            failures.append("Q2[1,13] != 10 on ACGAGCGCAGCGA")
        if cube_table(s).get(1, 13) != 9:
            failures.append("Q3[1,13] != 9 on ACGAGCGCAGCGA")
        if lsrs(s).length != 10:
            failures.append("lsrs != 10 on ACGAGCGCAGCGA")

    _timed(failures, "ACGAGCGCAGCGA", 1.0, first_example)

    def intro_example():
        # The stated optimum 10 is the length of the (AC)^2(TAG)^2 example,
        # but (ACT)^2(TAG)^2 embeds at (1,2,3)(4,5,6)(7,8,9)(10,11,13), so the
        # optimum is at least 12; the exhaustive oracle bounds it from above.
        s = parse_sequence("ACTACTTAGTACGT")
        a, c, t, g = (s.tokens.index(ch) for ch in "ACTG")
        lower = SrsDecomposition(
            (
                Block((a, c, t), 2, ((1, 2, 3), (4, 5, 6))),
                Block((t, a, g), 2, ((7, 8, 9), (10, 11, 13))),
            )
        )
        if validate_srs(s, lower) != []:
            failures.append("hand-built (ACT)^2(TAG)^2 witness fails validation")
        if lower.total_length != 12:
            failures.append("hand-built (ACT)^2(TAG)^2 witness is not length 12")
        optimum = oracle_lsrs(s)
        if optimum != lower.total_length:
            failures.append(
                f"exhaustive oracle says {optimum} on ACTACTTAGTACGT, "
                f"hand-built witness proves {lower.total_length}"
            )
        got = lsrs(s)
        if got.length != optimum:
            failures.append(
                f"solver says {got.length} on ACTACTTAGTACGT, oracle says {optimum}"
            )
        if validate_srs(s, got.decomposition) != [] or (
            got.decomposition.total_length != got.length
        ):
            failures.append(
                f"solver witness {got.decomposition.render(s)} does not validate "
                f"at length {got.length}"
            )
        # the stated example (AC)^2(TAG)^2 is valid but not optimal
        stated = SrsDecomposition(
            (
                Block((a, c), 2, ((1, 2), (4, 5))),
                Block((t, a, g), 2, ((6, 8, 9), (10, 11, 13))),
            )
        )
        if validate_srs(s, stated) != []:
            failures.append("(AC)^2(TAG)^2 witness fails validation")
        if stated.total_length != 10:
            failures.append("(AC)^2(TAG)^2 witness is not length 10")
        if not stated.total_length < optimum:
            failures.append(
                f"(AC)^2(TAG)^2 length {stated.total_length} is not below "
                f"the optimum {optimum}"
            )

    _timed(failures, "ACTACTTAGTACGT", 1.0, intro_example)

    def bounded_examples():
        s = parse_sequence("ababbcacc")
        tabs = feasibility_tables(s)
        if tabs.s2.get(1, 9) != -1 or tabs.s3.get(1, 9) != -1:
            failures.append("S2[1,9]/S3[1,9] != -1 at init on ababbcacc")
        if lsrs_plus3(s).length != 7:
            failures.append("lsrs_plus3 != 7 on ababbcacc")
        if lsrs_plus3(parse_sequence("abacbabcc")).length != 8:
            failures.append("lsrs_plus3 != 8 on abacbabcc")
        if lsrs_plus3(parse_sequence("abacabccb")).length != 6:
            failures.append("lsrs_plus3 != 6 on abacabccb")
        b = parse_sequence("baabab")
        if feasibility_tables(b).s3.get(1, 6) != 4:
            failures.append("S3[1,6] != 4 on baabab")

    _timed(failures, "bounded-occurrence examples", 1.0, bounded_examples)

    _finish("criterion 1 (worked examples)", failures)


def test_criterion_2_oracle_equivalence():
    failures: list[str] = []
    t_start = time.perf_counter()

    def check_string(text: str, with_cube: bool) -> None:
        s = parse_sequence(text)
        q2 = square_table(s)
        q3 = cube_table(s)
        if q2 != oracle_square_table(s):
            failures.append(f"square table mismatch on {text!r}")
        if with_cube and q3 != oracle_cube_table(s):
            failures.append(f"cube table mismatch on {text!r}")
        if lsrs(s, q2=q2, q3=q3).length != oracle_lsrs(s):
            failures.append(f"lsrs mismatch on {text!r}")

    for text in strings_up_to("ab", 10):
        check_string(text, with_cube=True)
        if failures:
            break

    if not failures:
        for text in strings_up_to("abc", 8):
            check_string(text, with_cube=True)
            if failures:
                break

    if not failures:
        rng = random.Random(2024)
        for _ in range(300):
            text = random_string(rng, 14, sigma=4)
            check_string(text, with_cube=len(text) <= 12)
            if failures:
                break

    # bounded-occurrence solver against its oracle, infeasibility included
    if not failures:
        for text in strings_up_to("abc", 9):
            s = parse_sequence(text)
            if OccurrenceIndex.from_sequence(s).max_occurrence > 3:
                continue
            want = oracle_lsrs_plus(s)
            got = lsrs_plus3(s)
            if want is None:
                if got.feasible:
                    failures.append(f"lsrs_plus3 feasible but oracle infeasible on {text!r}")
                    break
            elif not got.feasible or got.length != want:
                failures.append(f"lsrs_plus3 mismatch on {text!r}: {got.length} != {want}")
                break

    elapsed = time.perf_counter() - t_start
    if elapsed > 600:
        failures.append(f"criterion took {elapsed:.0f}s, target is under 10 minutes")
    _finish("criterion 2 (oracle equivalence)", failures)


def test_criterion_3_reduction_correctness():
    failures: list[str] = []

    def check_graph(g: Graph) -> None:
        coloring = brute_force_coloring(g)
        f = coloring_to_sat(g)
        assignment = brute_force_assignment(f)
        if (coloring is None) != (assignment is None):
            failures.append(f"coloring/assignment existence differs on {g}")
            return
        r = sat_to_string(f)
        problems = check_reduction_invariants(r)
        if problems:
            failures.append(f"reduction invariants on {g}: {problems[0]}")
            return
        n, m = r.num_plus, r.num_neg
        if r.seq.n != 4 * m + 8 * n + 4 * (n - 1):
            failures.append(f"length formula fails on {g}")
            return
        if coloring is not None:
            a = assignment_from_coloring(g, f, coloring)
            dec = extract_witness(f, a, r)
            cover = frozenset(range(r.seq.alphabet_size))
            if validate_srs(r.seq, dec, cover) != []:
                failures.append(f"witness fails full-coverage validation on {g}")

    for nv in range(1, 5):
        possible = list(itertools.combinations(range(nv), 2))
        for bits in range(1 << len(possible)):
            edges = tuple(e for p, e in enumerate(possible) if bits >> p & 1)
            check_graph(Graph(nv, edges))
            if failures:
                break
        if failures:
            break

    if not failures:
        possible = list(itertools.combinations(range(5), 2))
        for bits in range(1 << len(possible)):
            edges = tuple(e for p, e in enumerate(possible) if bits >> p & 1)
            check_graph(Graph(5, edges))
            if failures:
                break

    if not failures:
        k3 = Graph(3, ((0, 1), (0, 2), (1, 2)))
        if brute_force_assignment(coloring_to_sat(k3)) is None:
            failures.append("K3 should admit a valid assignment")
        if sat_to_string(coloring_to_sat(k3)).seq.n != 104:
            failures.append("K3 instance length != 104")
        k4 = Graph(4, tuple(itertools.combinations(range(4), 2)))
        if brute_force_assignment(coloring_to_sat(k4)) is not None:
            failures.append("K4 should admit no valid assignment")

    _finish("criterion 3 (reduction correctness)", failures)


def test_criterion_4_invariant_suites():
    failures: list[str] = []
    rng = random.Random(777)

    def table_and_prefix_checks(text: str) -> None:
        s = parse_sequence(text)
        q2 = square_table(s)
        q3 = cube_table(s)
        result = lsrs(s, q2=q2, q3=q3)
        for i in range(1, s.n + 1):
            row2 = q2.rows[i - 1]
            row3 = q3.rows[i - 1]
            for j in range(i, s.n + 1):
                v2, v3 = row2[j - i], row3[j - i]
                if v2 % 2 or v2 < 0 or v3 % 3 or v3 < 0:
                    failures.append(f"divisibility fails at ({i},{j}) on {text!r}")
                    return
                if 3 * v2 < 2 * v3:
                    failures.append(f"square/cube ratio fails at ({i},{j}) on {text!r}")
                    return
                if j < s.n and row2[j - i + 1] < v2 or j < s.n and row3[j - i + 1] < v3:
                    failures.append(f"monotonicity fails at ({i},{j}) on {text!r}")
                    return
                if i > 1 and (q2.rows[i - 2][j - i + 1] < v2 or q3.rows[i - 2][j - i + 1] < v3):
                    failures.append(f"monotonicity fails at ({i},{j}) on {text!r}")
                    return
        values = result.prefix_values
        if any(values[i] < values[i - 1] for i in range(1, len(values))):
            failures.append(f"prefix optimum not monotone on {text!r}")

    def bounded_checks(text: str) -> None:
        s = parse_sequence(text)
        cov = coverage_tables(s)
        tabs = feasibility_tables(s)
        for i in range(1, s.n + 1):
            for j in range(i, s.n + 1):
                c2 = cov[1][i - 1][j - i]
                c3 = cov[2][i - 1][j - i]
                if c2 & c3:
                    failures.append(f"cover2/cover3 overlap at ({i},{j}) on {text!r}")
                    return
                v3 = tabs.s3.get(i, j)
                if v3 not in (-1, 2 * c3.bit_count(), 3 * c3.bit_count()):
                    failures.append(f"covered-cube range at ({i},{j}) on {text!r}")
                    return
                v2 = tabs.s2.get(i, j)
                if v2 not in (-1, 2 * c2.bit_count()):
                    failures.append(f"covered-square range at ({i},{j}) on {text!r}")
                    return
                lv = tabs.length.get(i, j)
                if lv > 0 and lv < max(v3, v2):
                    failures.append(f"length below init at ({i},{j}) on {text!r}")
                    return

    for _ in range(1000):
        text = random_bound3_string(rng, 12)
        table_and_prefix_checks(text)
        if failures:
            break
        bounded_checks(text)
        if failures:
            break

    if not failures:
        for _ in range(300):
            table_and_prefix_checks(random_string(rng, 9, sigma=5))
            if failures:
                break

    _finish("criterion 4 (invariant suites)", failures)


def _serialize_run(s, threads: int) -> str:
    q2 = square_table(s, threads)
    q3 = cube_table(s, threads)
    result = lsrs(s, threads=threads, q2=q2, q3=q3)
    return json.dumps(
        {
            "q2": q2.rows,
            "q3": q3.rows,
            "length": result.length,
            "witness": [
                [list(b.root), b.exponent, [list(c) for c in b.copies]]
                for b in result.decomposition.blocks
            ],
        },
        sort_keys=True,
    )


def test_criterion_5_thread_determinism():
    failures: list[str] = []
    rng = random.Random(55)
    for index in range(50):
        text = random_string(rng, 12, sigma=4, min_n=1)
        s = parse_sequence(text)
        if _serialize_run(s, 1) != _serialize_run(s, 4):
            failures.append(f"threads changed output on string {index}: {text!r}")
            break
    _finish("criterion 5 (thread determinism)", failures)


def test_criterion_6_performance_scaling():
    failures: list[str] = []

    seq32 = _bench_input("q3", 32, 99)
    t0 = time.perf_counter()
    cube_table(seq32)
    elapsed = time.perf_counter() - t0
    if elapsed >= 60:
        failures.append(f"cube table at n=32 took {elapsed:.1f}s (budget 60s)")

    points = []
    for n, reps in ((8, 5), (16, 3), (32, 1)):
        seq = _bench_input("q3", n, 0)
        best = min(
            _time_once(cube_table, seq) for _ in range(reps)
        )
        points.append((n, best))
    slope = fitted_slope(points)
    if not 4.5 <= slope <= 7.0:
        failures.append(f"cube slope {slope:.2f} outside [4.5, 7.0]")

    points = []
    for n, reps in ((16, 5), (32, 3), (64, 1)):
        seq = _bench_input("plus3", n, 0)
        best = min(
            _time_once(lsrs_plus3, seq) for _ in range(reps)
        )
        points.append((n, best))
    slope = fitted_slope(points)
    if not 2.5 <= slope <= 5.0:
        failures.append(f"bounded-occurrence slope {slope:.2f} outside [2.5, 5.0]")

    _finish("criterion 6 (performance scaling)", failures)


def _time_once(fn, seq) -> float:
    t0 = time.perf_counter()
    fn(seq)
    return time.perf_counter() - t0
