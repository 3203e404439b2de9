import random
from collections import Counter

import pytest

from subseqrep.core import OccurrenceIndex, parse_sequence, sequence_from_tokens, validate_srs
from subseqrep.lsrs import lsrs
from subseqrep.oracles import oracle_lsrs_plus
from subseqrep.plus3 import (
    OccurrenceBoundError,
    coverage_tables,
    feasibility_tables,
    ft3,
    lsrs_plus3,
    precheck,
    s2_table,
    s3_table,
)
from subseqrep.tables import IntervalTable, cube_table, square_table

from helpers import random_bound3_string, strings_up_to


def test_precheck_examples():
    idx = precheck(parse_sequence("ababbcacc"))
    assert idx.max_occurrence == 3
    assert idx.singletons() == frozenset()
    idx = precheck(parse_sequence("ab"))
    assert idx.singletons() == frozenset({0, 1})
    with pytest.raises(OccurrenceBoundError):
        precheck(parse_sequence("aaaab"))


def _mask(letter_ids):
    """The coverage mask of some letter ids: bit ``a`` set for each letter ``a``."""
    return sum(1 << a for a in set(letter_ids))


def test_coverage_example():
    cover, cover2, cover3 = coverage_tables(parse_sequence("baabab"))
    b, a = 0, 1  # interned in first-appearance order
    assert cover3[0][5] == _mask({a, b}) == 0b11
    assert cover2[0][5] == 0
    assert cover[0][5] == _mask({a, b})


def test_coverage_diagonal_empty():
    s = parse_sequence("abcabc")
    cov = coverage_tables(s)
    for rows in cov:
        assert [len(row) for row in rows] == list(range(s.n, 0, -1))
        assert all(row[0] == 0 for row in rows)


def test_coverage_matches_direct_counts():
    rng = random.Random(41)
    for _ in range(50):
        s = parse_sequence(random_bound3_string(rng, 12))
        cover, cover2, cover3 = coverage_tables(s)
        for i in range(1, s.n + 1):
            for j in range(i, s.n + 1):
                counts = Counter(s.letters[i - 1 : j])
                at_least_two = _mask(a for a, c in counts.items() if c >= 2)
                exactly_two = any(c == 2 for c in counts.values())
                exactly_three = _mask(a for a, c in counts.items() if c == 3)
                assert cover[i - 1][j - i] == at_least_two
                assert cover2[i - 1][j - i] == (at_least_two if exactly_two else 0)
                assert cover3[i - 1][j - i] == (exactly_three if not exactly_two else 0)


def test_lemma_disjointness_and_value_ranges():
    rng = random.Random(42)
    for _ in range(60):
        s = parse_sequence(random_bound3_string(rng, 12))
        cov = coverage_tables(s)
        q2 = square_table(s)
        s3 = s3_table(s, cov, q2)
        s2 = s2_table(s, cov, q2)
        for i in range(1, s.n + 1):
            for j in range(i, s.n + 1):
                c2 = cov[1][i - 1][j - i]
                c3 = cov[2][i - 1][j - i]
                assert c2 & c3 == 0
                v3 = s3.get(i, j)
                size3 = c3.bit_count()
                assert v3 in (-1, 2 * size3, 3 * size3)
                v2 = s2.get(i, j)
                size2 = c2.bit_count()
                assert v2 in (-1, 2 * size2)


def test_s_table_worked_examples():
    s = parse_sequence("ababbcacc")
    cov = coverage_tables(s)
    q2 = square_table(s)
    assert s3_table(s, cov, q2).get(1, 9) == -1
    assert s2_table(s, cov, q2).get(1, 9) == -1

    b = parse_sequence("baabab")
    assert s3_table(b, coverage_tables(b), square_table(b)).get(1, 6) == 4

    c = parse_sequence("abcabcabc")
    assert s3_table(c, coverage_tables(c), square_table(c)).get(1, 9) == 9

    # aabb has no square covering {a, b}: its longest square is aa (or bb)
    d = parse_sequence("aabb")
    assert s2_table(d, coverage_tables(d), square_table(d)).get(1, 4) == -1
    assert _brute_covering_square(d, 1, 4, _mask({0, 1})) == -1

    e = parse_sequence("abab")
    assert s2_table(e, coverage_tables(e), square_table(e)).get(1, 4) == 4


def _brute_covering_square(s, i, j, want):
    """Longest square subsequence of S[i..j] containing every letter of the mask want."""
    window = s.letters[i - 1 : j]
    m = len(window)
    best = -1
    for mask in range(1 << m):
        word = [window[p] for p in range(m) if mask >> p & 1]
        half = len(word) // 2
        if len(word) % 2 or not word or word[:half] != word[half:]:
            continue
        if want & ~_mask(word) == 0:
            best = max(best, len(word))
    return best


def test_s2_against_brute_force():
    rng = random.Random(43)
    for _ in range(25):
        s = parse_sequence(random_bound3_string(rng, 10))
        cov = coverage_tables(s)
        q2 = square_table(s)
        s2 = s2_table(s, cov, q2)
        for i in range(1, s.n + 1):
            for j in range(i, s.n + 1):
                want = cov[1][i - 1][j - i]
                if not want:
                    assert s2.get(i, j) == -1
                    continue
                assert s2.get(i, j) == _brute_covering_square(s, i, j, want)


def test_s3_square_fallback_against_brute_force():
    rng = random.Random(44)
    for _ in range(25):
        s = parse_sequence(random_bound3_string(rng, 10))
        cov = coverage_tables(s)
        q2 = square_table(s)
        s3 = s3_table(s, cov, q2)
        for i in range(1, s.n + 1):
            for j in range(i, s.n + 1):
                want = cov[2][i - 1][j - i]
                if not want:
                    assert s3.get(i, j) == -1
                    continue
                v = s3.get(i, j)
                if v == 3 * want.bit_count():
                    continue  # unique-cube case, covered elsewhere
                assert v == _brute_covering_square(s, i, j, want)


@pytest.mark.parametrize(
    "text,want",
    [("ababbcacc", 7), ("abacbabcc", 8), ("abacabccb", 6)],
)
def test_worked_solutions(text, want):
    s = parse_sequence(text)
    result = lsrs_plus3(s)
    assert result.feasible
    assert result.length == want
    dec = result.decomposition
    assert dec.total_length == want
    assert validate_srs(s, dec, frozenset(range(s.alphabet_size))) == []


def test_infeasible_cases():
    r = lsrs_plus3(parse_sequence("ab"))
    assert not r.feasible and r.length == -1 and r.decomposition is None
    assert not ft3(parse_sequence("ab"))
    assert ft3(parse_sequence("ababbcacc"))


def test_feasibility_refuses_a_square_table_of_another_kind_or_length():
    s = parse_sequence("abcabc")
    with pytest.raises(ValueError, match="cube table of n = 6 given"):
        feasibility_tables(s, q2=cube_table(s))
    with pytest.raises(ValueError, match="square table of n = 4 given"):
        lsrs_plus3(s, q2=square_table(parse_sequence("abab")))


def test_empty_sequence_is_trivially_feasible():
    r = lsrs_plus3(parse_sequence(""))
    assert r.feasible and r.length == 0 and r.decomposition.blocks == ()


def test_occurrence_bound_propagates():
    with pytest.raises(OccurrenceBoundError):
        lsrs_plus3(parse_sequence("aaaab"))
    with pytest.raises(OccurrenceBoundError):
        ft3(parse_sequence("aaaa"))
    s = parse_sequence("abaacbcaa")
    with pytest.raises(OccurrenceBoundError) as want:
        precheck(s)
    assert "appears 5 times" in str(want.value)
    for solver in (coverage_tables, feasibility_tables, lsrs_plus3):
        with pytest.raises(OccurrenceBoundError) as got:
            solver(s)
        assert str(got.value) == str(want.value), solver.__name__


def test_occurrence_index_built_once_per_solve(monkeypatch):
    calls = []
    build = OccurrenceIndex.from_sequence.__func__

    def counted(cls, seq):
        calls.append(seq)
        return build(cls, seq)

    monkeypatch.setattr(OccurrenceIndex, "from_sequence", classmethod(counted))
    assert lsrs_plus3(parse_sequence("ababbcacc")).length == 7
    assert len(calls) == 1


def test_exhaustive_three_letters_small():
    for text in strings_up_to("abc", 7):
        s = parse_sequence(text)
        if OccurrenceIndex.from_sequence(s).max_occurrence > 3:
            continue
        want = oracle_lsrs_plus(s)
        got = lsrs_plus3(s)
        if want is None:
            assert not got.feasible, text
        else:
            assert got.feasible and got.length == want, text


def test_random_against_oracle():
    rng = random.Random(45)
    for _ in range(60):
        s = parse_sequence(random_bound3_string(rng, 12))
        want = oracle_lsrs_plus(s)
        got = lsrs_plus3(s)
        if want is None:
            assert not got.feasible
        else:
            assert got.feasible and got.length == want


def test_constrained_never_beats_unconstrained():
    rng = random.Random(46)
    for _ in range(40):
        s = parse_sequence(random_bound3_string(rng, 12))
        result = lsrs_plus3(s)
        if result.feasible:
            assert result.length <= lsrs(s).length


def test_update_step_needed_beyond_initialization():
    # initialization alone would give -1 here; splits assemble the optimum
    s = parse_sequence("ababbcacc")
    tabs = feasibility_tables(s)
    assert tabs.s3.get(1, 9) == -1 and tabs.s2.get(1, 9) == -1
    assert tabs.length.get(1, 9) == 7
    assert tabs.trace[(1, 9)][0] == "split"


# --- reference: the bounds-checked interval DP ------------------------------


def reference_s3_table(seq, cov, q2):
    """``s3_table`` with one ``get``/``set`` call per cell."""
    n = seq.n
    letters = seq.letters
    rows_c3 = cov[2]
    table = IntervalTable(n, "covered-cube", -1)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            want = rows_c3[i - 1][j - i]
            if not want:
                continue
            restricted = [a for a in letters[i - 1 : j] if want >> a & 1]
            size = want.bit_count()
            if len(restricted) != 3 * size:
                raise AssertionError("cover3 letters must occur exactly 3 times")
            if restricted[:size] == restricted[size : 2 * size] == restricted[2 * size :]:
                table.set(i, j, 3 * size)
            elif q2.get(i, j) == 2 * size:
                table.set(i, j, 2 * size)
    return table


def reference_s2_table(seq, cov, q2):
    """``s2_table`` with one ``get``/``set`` call per cell."""
    n = seq.n
    rows_c2 = cov[1]
    table = IntervalTable(n, "covered-square", -1)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            size = rows_c2[i - 1][j - i].bit_count()
            if size and q2.get(i, j) == 2 * size:
                table.set(i, j, 2 * size)
    return table


def reference_feasibility_tables(seq):
    """The interval DP reading both split parts through ``IntervalTable.get``.

    Same span, i and k order and the same strict ``>`` as the solver, so
    the smallest split point wins ties.
    """
    n = seq.n
    q2 = square_table(seq)
    cov = coverage_tables(seq)
    s3 = reference_s3_table(seq, cov, q2)
    s2 = reference_s2_table(seq, cov, q2)
    rows_c, _, rows_c3 = cov
    length = IntervalTable(n, "feasible-length", -1)
    trace = {}
    for span in range(2, n + 1):
        for i in range(1, n - span + 2):
            j = i + span - 1
            v3 = s3.get(i, j)
            v2 = s2.get(i, j)
            if v3 > 0:
                best = v3
                is_cube = v3 == 3 * rows_c3[i - 1][j - i].bit_count()
                kind = ("cube3",) if is_cube else ("square3",)
            elif v2 > 0:
                best = v2
                kind = ("square2",)
            else:
                best = -1
                kind = ()
            whole = rows_c[i - 1][j - i]
            for k in range(i, j):
                left = length.get(i, k)
                if left <= 0:
                    continue
                right = length.get(k + 1, j)
                if right <= 0:
                    continue
                left_mask = rows_c[i - 1][k - i]
                right_mask = rows_c[k][j - k - 1]
                if left_mask | right_mask != whole:
                    continue
                if left_mask & right_mask:
                    raise AssertionError("repeat sets of split parts must be disjoint")
                if left + right > best:
                    best = left + right
                    kind = ("split", k)
            if best > 0:
                length.set(i, j, best)
                trace[(i, j)] = kind
    return s2, s3, length, trace


def planted_bound3(rng, n):
    """Blocks X^2 / X^3 of fresh letters: a covering solution by construction."""
    tokens = []
    fresh = 0
    while len(tokens) < n:
        left = n - len(tokens)
        shapes = [
            (r, e) for e in (2, 3) for r in range(1, 6) if r * e <= left and left - r * e != 1
        ]
        r, e = rng.choice(shapes)
        tokens.extend([f"t{fresh + k}" for k in range(r)] * e)
        fresh += r
    return tokens


def _differential_inputs():
    rng = random.Random(47)
    for n in (8, 13, 24, 40, 57, 80):
        planted = planted_bound3(rng, n)
        yield f"planted n={n}", planted
        shuffled = planted[:]
        rng.shuffle(shuffled)
        yield f"shuffled n={n}", shuffled
    for n in range(2, 81, 6):
        yield f"random n={n}", list(random_bound3_string(rng, n, min_n=n))
    yield "no repeated letter", list("abcdefgh")


def test_feasibility_matches_bounds_checked_reference():
    feasible = 0
    for label, tokens in _differential_inputs():
        s = sequence_from_tokens(tokens)
        want_s2, want_s3, want_length, want_trace = reference_feasibility_tables(s)
        got = feasibility_tables(s)
        assert got.length.rows == want_length.rows, label
        assert got.trace == want_trace, label
        assert got.s2.rows == want_s2.rows, label
        assert got.s3.rows == want_s3.rows, label
        if label == "no repeated letter":
            assert all(v == -1 for _, _, v in got.length.cells()) and not got.trace
        feasible += got.length.get(1, s.n) > 0
    assert feasible >= 6  # at least the planted strings
