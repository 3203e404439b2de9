import random

import pytest

from subseqrep.core import parse_sequence, sequence_from_tokens, validate_srs
from subseqrep.lsrs import lsrs
from subseqrep.oracles import oracle_lsrs
from subseqrep.tables import _cube_row, cube_table, square_table

from helpers import random_string, strings_up_to


def test_worked_example():
    s = parse_sequence("ACGAGCGCAGCGA")
    result = lsrs(s)
    assert result.length == 10
    assert result.decomposition.total_length == 10
    assert validate_srs(s, result.decomposition) == []


def test_intro_string_beats_single_square():
    # exhaustive enumeration agrees: (ACT)^2 (TAG)^2 is optimal here
    s = parse_sequence("ACTACTTAGTACGT")
    result = lsrs(s)
    assert result.length == 12
    assert result.length == oracle_lsrs(s)


def test_degenerate_inputs():
    assert lsrs(parse_sequence("")).length == 0
    assert lsrs(parse_sequence("a")).length == 0
    assert lsrs(parse_sequence("ab")).length == 0
    assert lsrs(parse_sequence("aa")).length == 2
    assert lsrs(parse_sequence("abab")).length == 4


def test_tables_of_another_kind_length_or_sequence_are_refused():
    s = parse_sequence("abcabc")
    assert lsrs(s).length == 6
    with pytest.raises(ValueError, match="cube table of n = 6 given where the square"):
        lsrs(s, q2=cube_table(s))
    with pytest.raises(ValueError, match="square table of n = 8 given"):
        lsrs(s, q2=square_table(parse_sequence("abcabcab")))
    with pytest.raises(ValueError, match="where the cube table"):
        lsrs(s, q3=square_table(s))
    with pytest.raises(ValueError, match="cube table of n = 8 given"):
        lsrs(s, q3=cube_table(parse_sequence("abcabcab")))
    # the right shape with another sequence's values: its witness is None
    with pytest.raises(AssertionError, match=r"square witness does not match table cell \(5,6\)"):
        lsrs(s, q2=square_table(parse_sequence("aabbcc")))


def test_prefix_values():
    s = parse_sequence("ACGAGCGCAGCGA")
    result = lsrs(s)
    values = result.prefix_values
    assert values[0] == values[1] == 0
    assert values[-1] == result.length
    for i in range(1, len(values)):
        assert values[i] >= values[i - 1]


def test_dominates_single_tables():
    rng = random.Random(31)
    for _ in range(40):
        s = parse_sequence(random_string(rng, 11, sigma=3))
        q2 = square_table(s)
        q3 = cube_table(s)
        result = lsrs(s, q2=q2, q3=q3)
        if s.n:
            assert result.length >= max(q2.get(1, s.n), q3.get(1, s.n))
        dec = result.decomposition
        assert validate_srs(s, dec) == []
        assert dec.total_length == result.length
        for left, right in zip(dec.blocks, dec.blocks[1:]):
            assert left.root != right.root


def test_exhaustive_two_letters():
    for text in strings_up_to("ab", 8):
        s = parse_sequence(text)
        assert lsrs(s).length == oracle_lsrs(s), text


def test_random_against_oracle():
    rng = random.Random(32)
    for _ in range(60):
        s = parse_sequence(random_string(rng, 12, sigma=4))
        assert lsrs(s).length == oracle_lsrs(s), s.render()


def test_deterministic_across_threads():
    rng = random.Random(33)
    for _ in range(8):
        s = parse_sequence(random_string(rng, 12))
        one = lsrs(s, threads=1)
        four = lsrs(s, threads=4)
        assert one == four


def _targeted_cases():
    rng = random.Random(34)
    cases = [random_string(rng, 40, sigma=rng.randint(2, 8), min_n=24) for _ in range(14)]
    cases.append(random_string(rng, 48, sigma=2, min_n=48))
    for root, n in (("ab", 64), ("abc", 63), ("aab", 48), ("abcd", 64), ("aabb", 48)):
        cases.append((root * n)[:n])
    cases += ["a" * 64, "a" * 31]
    return [parse_sequence(text) for text in cases] + [
        sequence_from_tokens([f"x{i}" for i in range(64)])
    ]


@pytest.mark.parametrize("s", _targeted_cases(), ids=lambda s: f"n{s.n}")
def test_targeted_cube_cells_match_full_table(s):
    # without q3, lsrs builds only the cube cells its DP can pick
    q2 = square_table(s)
    full = lsrs(s, q2=q2, q3=cube_table(s))
    assert lsrs(s) == full
    # and with the cut vectors that square_table leaves behind, as analyze
    # passes them
    pre = [None] * s.n
    assert square_table(s, pre=pre) == q2
    assert lsrs(s, q2=q2, pre=pre) == full


def test_cube_row_floor_keeps_exact_cells_above_it():
    rng = random.Random(35)
    for _ in range(20):
        s = parse_sequence(random_string(rng, 26, sigma=rng.randint(2, 4), min_n=8))
        q3 = cube_table(s)
        for start in range(1, s.n + 1):
            floor = sorted(rng.randint(0, 4) for _ in range(s.n - start + 1))
            row = _cube_row(s.letters, [None] * s.n, start, floor)
            for got, full, f in zip(row, q3.rows[start - 1], floor):
                assert got == (full if full > 3 * f else 0), s.render()
    # constant floors just under each row's optimum, where the LCS(a, c)
    # screen of a bounded row skips most cut pairs
    for _ in range(3):
        s = parse_sequence(random_string(rng, 40, sigma=rng.randint(2, 4), min_n=32))
        q3 = cube_table(s, threads=1)
        for start in range(1, s.n + 1):
            full_row = q3.rows[start - 1]
            top = full_row[-1] // 3
            for root in range(max(top - 2, 0), top + 1):
                row = _cube_row(s.letters, [None] * s.n, start, [root] * len(full_row))
                assert row == [v if v > 3 * root else 0 for v in full_row], (s.render(), root)


def test_cube_row_rejects_decreasing_floor():
    s = parse_sequence("abcabcabc")
    with pytest.raises(ValueError):
        _cube_row(s.letters, [None] * s.n, 1, [0, 0, 0, 0, 2, 1, 2, 2, 2])


def test_lsrs_rejects_a_cube_table_above_two_thirds_of_the_square_table():
    s = parse_sequence("abab")
    q3 = cube_table(s)
    q3.set(1, 4, 9)
    with pytest.raises(AssertionError, match=r"^square table below 2/3 of cube table at \(1,4\)$"):
        lsrs(s, q2=square_table(s), q3=q3)
