"""The bounded scans of the square rows and the feasibility split pass.

Both stop early on an upper bound and must give exactly what the full
scans give: the square rows without cut vectors against the rows that
keep them, and the row-order split pass against the span-order loop it
replaced, kept here as the reference.
"""

import random

from subseqrep import tables
from subseqrep.core import parse_sequence, sequence_from_tokens
from subseqrep.plus3 import coverage_tables, feasibility_tables, s2_table, s3_table
from subseqrep.tables import IntervalTable, square_table

from helpers import planted_bound3_string, random_bound3_string, random_string


def span_order_feasibility(seq):
    """Reference split loop: every split of every cell, spans in increasing length.

    Reads the right parts from column mirrors of the length and cover
    tables; returns the length rows and the trace.
    """
    cov = coverage_tables(seq)
    n = seq.n
    q2 = square_table(seq)
    s3 = s3_table(seq, cov, q2)
    s2 = s2_table(seq, cov, q2)
    rows_c, _, rows_c3 = cov
    length = IntervalTable(n, "feasible-length", -1)
    rows_l = length.rows
    cols_l = [[-1] * j for j in range(1, n + 1)]
    cols_c = [[rows_c[k][j - k - 1] for k in range(j)] for j in range(1, n + 1)]
    trace = {}
    for span in range(2, n + 1):
        for i in range(1, n - span + 2):
            j = i + span - 1
            d = span - 1
            v3 = s3.rows[i - 1][d]
            v2 = s2.rows[i - 1][d]
            if v3 > 0:
                best = v3
                kind = ("cube3",) if v3 == 3 * rows_c3[i - 1][d].bit_count() else ("square3",)
            elif v2 > 0:
                best = v2
                kind = ("square2",)
            else:
                best = -1
                kind = ()
            row_c = rows_c[i - 1]
            whole = row_c[d]
            for k, left, right, left_mask, right_mask in zip(
                range(i, j), rows_l[i - 1], cols_l[j - 1][i:], row_c, cols_c[j - 1][i:]
            ):
                if left <= 0 or right <= 0 or left_mask | right_mask != whole:
                    continue
                assert not left_mask & right_mask
                if left + right > best:
                    best = left + right
                    kind = ("split", k)
            if best > 0:
                rows_l[i - 1][d] = best
                cols_l[j - 1][i - 1] = best
                trace[(i, j)] = kind
    return rows_l, trace


def _square_cases():
    rng = random.Random(41)
    texts = [random_string(rng, 48, sigma=rng.randint(1, 8)) for _ in range(60)]
    texts += ["".join(rng.choice("abcdefghijkl"[:sigma]) for _ in range(rng.randint(20, 48)))
              for sigma in (9, 10, 11, 12) for _ in range(5)]
    texts += [planted_bound3_string(rng, n) for n in (2, 5, 17, 32, 48) for _ in range(4)]
    texts += ["", "a", "a" * 48, "ab" * 24]
    seqs = [parse_sequence(t) for t in texts]
    seqs += [sequence_from_tokens([f"x{p}" for p in range(n)]) for n in (2, 30)]
    return seqs


def test_square_rows_equal_the_cut_vector_rows():
    for seq in _square_cases():
        assert square_table(seq) == square_table(seq, pre=[None] * seq.n), seq.render()


def test_square_rows_skip_cuts_on_planted_strings(monkeypatch):
    seq = parse_sequence(planted_bound3_string(random.Random(43), 48))
    calls = []
    run = tables.lcs2_all_prefixes
    monkeypatch.setattr(tables, "lcs2_all_prefixes", lambda a, b: calls.append(1) or run(a, b))
    table = square_table(seq)
    assert len(calls) < seq.n * (seq.n - 1) // 2
    assert table == square_table(seq, pre=[None] * seq.n)


def test_row_order_split_pass_matches_the_span_order_loop():
    rng = random.Random(47)
    texts = [random_bound3_string(rng, 40) for _ in range(150)]
    texts += [planted_bound3_string(rng, rng.randint(2, 40)) for _ in range(40)]
    feasible = 0
    for text in texts:
        seq = parse_sequence(text)
        tabs = feasibility_tables(seq)
        rows_l, trace = span_order_feasibility(seq)
        assert tabs.length.rows == rows_l, text
        assert tabs.trace == trace, text
        feasible += tabs.length.get(1, seq.n) > 0
    assert feasible >= 40
