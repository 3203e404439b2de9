import random

import pytest

from subseqrep.core import parse_sequence, srs_partitionable
from subseqrep.oracles import (
    BudgetExceededError,
    oracle_cube_table,
    oracle_lsrs,
    oracle_lsrs_plus,
    oracle_square_table,
)

from helpers import is_subsequence, random_string


def test_worked_table_values():
    s = parse_sequence("ACGAGCGCAGCGA")
    assert oracle_cube_table(s).get(1, 13) == 9
    assert oracle_square_table(s).get(1, 13) == 10
    assert oracle_square_table(parse_sequence("aa")).get(1, 2) == 2


def test_lsrs_values():
    assert oracle_lsrs(parse_sequence("a")) == 0
    assert oracle_lsrs(parse_sequence("abab")) == 4
    assert oracle_lsrs(parse_sequence("ACGAGCGCAGCGA")) == 10


def test_lsrs_intro_string():
    # ACTACT.TAGTAG embeds at positions 1-6, 7-9, 10/11/13: length 12
    s = parse_sequence("ACTACTTAGTACGT")
    assert is_subsequence("ACTACTTAGTAG", s.render())
    assert srs_partitionable("ACTACTTAGTAG")
    assert oracle_lsrs(s) == 12


def test_lsrs_plus_values():
    assert oracle_lsrs_plus(parse_sequence("ababbcacc")) == 7
    assert oracle_lsrs_plus(parse_sequence("abacbabcc")) == 8
    assert oracle_lsrs_plus(parse_sequence("ab")) is None
    assert oracle_lsrs_plus(parse_sequence("")) == 0


def test_budget_guards():
    long_one = parse_sequence("a" * 20)
    with pytest.raises(BudgetExceededError):
        oracle_lsrs(long_one)
    with pytest.raises(BudgetExceededError):
        oracle_lsrs_plus(parse_sequence("a" * 15))
    with pytest.raises(BudgetExceededError):
        oracle_cube_table(parse_sequence("a" * 15))
    with pytest.raises(BudgetExceededError):
        oracle_square_table(parse_sequence("a" * 17))
    wide = parse_sequence("abcdefghijklmnopq"[:17], "raw")
    with pytest.raises(BudgetExceededError):
        oracle_square_table(wide)


def test_oracles_run_at_their_limits():
    # each length limit from both sides; test_budget_guards refuses 17 letters
    for oracle, limit, value in (
        (lambda s: oracle_square_table(s).get(1, s.n), 16, 16),
        (lambda s: oracle_cube_table(s).get(1, s.n), 14, 12),
        (oracle_lsrs, 16, 16),
        (oracle_lsrs_plus, 14, 14),
    ):
        assert oracle(parse_sequence("a" * limit)) == value, limit
        with pytest.raises(BudgetExceededError):
            oracle(parse_sequence("a" * (limit + 1)))
    wide = parse_sequence("abcdefghijklmnop", "raw")
    assert wide.alphabet_size == 16
    assert oracle_square_table(wide).get(1, 16) == 0


def test_cross_oracle_invariants():
    rng = random.Random(61)
    for _ in range(40):
        s = parse_sequence(random_string(rng, 10, sigma=3))
        value = oracle_lsrs(s)
        if s.n:
            q2 = oracle_square_table(s).get(1, s.n)
            q3 = oracle_cube_table(s).get(1, s.n)
            assert value >= max(q2, q3)
        plus = oracle_lsrs_plus(s)
        if plus is not None:
            assert value >= plus
