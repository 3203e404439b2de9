import random

from subseqrep.lcs import (
    lcs2_all_prefixes,
    lcs2_cut_prefixes,
    lcs2_witness,
    lcs3_all_prefixes,
    lcs3_witness,
)

from helpers import brute_lcs2, brute_lcs3, is_subsequence, random_string


def dp_lcs2_all_prefixes(a, b) -> list[int]:
    """Cell-by-cell reference for the bit-parallel engine."""
    nb = len(b)
    row = [0] * (nb + 1)
    for x in a:
        diag = 0
        for j in range(1, nb + 1):
            cur = row[j]
            if b[j - 1] == x:
                row[j] = diag + 1
            elif row[j - 1] > cur:
                row[j] = row[j - 1]
            diag = cur
    return row


def test_two_way_worked_split():
    # the two halves of the length-10 square inside ACGAGCGCAGCGA
    f = lcs2_all_prefixes("ACGAGCG", "CAGCGA")
    assert f[5] == 5
    assert f[6] == 5
    assert f[0] == 0


def test_two_way_empty():
    assert lcs2_all_prefixes("", "xyz") == [0, 0, 0, 0]
    assert lcs2_all_prefixes("xyz", "") == [0]
    assert lcs2_all_prefixes("", "") == [0]


def test_two_way_prefix_semantics_brute():
    rng = random.Random(11)
    for _ in range(300):
        a = random_string(rng, 8, sigma=3)
        b = random_string(rng, 8, sigma=3)
        f = lcs2_all_prefixes(a, b)
        assert len(f) == len(b) + 1
        for k in range(len(b) + 1):
            assert f[k] == brute_lcs2(a, b[:k]), (a, b, k)


def test_two_way_bit_parallel_matches_dp():
    rng = random.Random(17)
    cases = [("", ""), ("", "abc"), ("abc", ""), ((), (1, 2)), ([3], [])]
    for _ in range(150):
        # short words, words past one 64-bit machine word, large alphabets
        na = rng.choice((rng.randint(0, 12), rng.randint(60, 150)))
        nb = rng.choice((rng.randint(0, 12), rng.randint(60, 150)))
        sigma = rng.choice((1, 2, 4, 70, 300))
        a = [rng.randrange(sigma) for _ in range(na)]
        b = [rng.randrange(sigma) for _ in range(nb)]
        cases += [(a, b), (tuple(a), tuple(b))]
        if sigma <= 4:
            cases.append(("".join("acgt"[x] for x in a), "".join("acgt"[x] for x in b)))
        else:
            cases.append(("".join(chr(0x100 + x) for x in a), "".join(chr(0x100 + x) for x in b)))
    for a, b in cases:
        assert lcs2_all_prefixes(a, b) == dp_lcs2_all_prefixes(a, b), (a, b)


def test_cut_prefixes_match_pairwise_calls():
    rng = random.Random(18)
    words = ["", "a", "aaaa", "abcdefg"]
    words += [random_string(rng, 20, sigma=rng.randint(1, 5)) for _ in range(25)]
    words.append(tuple(rng.randrange(90) for _ in range(70)))
    for x in words:
        for s in range(len(x)):
            out = lcs2_cut_prefixes(x, s)
            assert len(out) == len(x) - s
            for m in range(s, len(x)):
                assert out[m - s] == dp_lcs2_all_prefixes(x[s : m + 1], x[m + 1 :]), (x, s, m)


def test_three_way_identical():
    assert lcs3_all_prefixes("CGA", "CGA", "CGA")[3] == 3


def test_three_way_empty_argument():
    assert lcs3_all_prefixes("", "ab", "ab") == [0, 0, 0]
    assert lcs3_all_prefixes("ab", "", "ab") == [0, 0, 0]
    assert lcs3_all_prefixes("ab", "ab", "") == [0]


def test_three_way_prefix_semantics_brute():
    rng = random.Random(12)
    for _ in range(200):
        a = random_string(rng, 6, sigma=3)
        b = random_string(rng, 6, sigma=3)
        c = random_string(rng, 6, sigma=3)
        f = lcs3_all_prefixes(a, b, c)
        for k in range(len(c) + 1):
            assert f[k] == brute_lcs3(a, b, c[:k]), (a, b, c, k)


def test_prefix_vector_invariants():
    rng = random.Random(13)
    for _ in range(200):
        a = random_string(rng, 10)
        b = random_string(rng, 10)
        c = random_string(rng, 8)
        for f, bound in (
            (lcs2_all_prefixes(a, b), len(a)),
            (lcs3_all_prefixes(a, b, c), min(len(a), len(b))),
        ):
            assert f[0] == 0
            for k in range(1, len(f)):
                assert f[k] - f[k - 1] in (0, 1)
                assert f[k] <= min(bound, k)


def test_symmetry_of_final_values():
    rng = random.Random(14)
    for _ in range(100):
        a = random_string(rng, 9)
        b = random_string(rng, 9)
        assert lcs2_all_prefixes(a, b)[-1] == lcs2_all_prefixes(b, a)[-1]


def test_two_way_witness_basic():
    word, pa, pb = lcs2_witness("ab", "ab")
    assert word == ["a", "b"]
    assert pa == [1, 2] and pb == [1, 2]
    assert lcs2_witness("ab", "cd") == ([], [], [])


def test_two_way_witness_properties():
    rng = random.Random(15)
    for _ in range(200):
        a = random_string(rng, 9, sigma=3)
        b = random_string(rng, 9, sigma=3)
        word, pa, pb = lcs2_witness(a, b)
        assert len(word) == lcs2_all_prefixes(a, b)[-1]
        assert pa == sorted(set(pa)) and pb == sorted(set(pb))
        assert [a[p - 1] for p in pa] == word
        assert [b[p - 1] for p in pb] == word
        # deterministic
        assert lcs2_witness(a, b) == (word, pa, pb)


def test_three_way_witness_properties():
    rng = random.Random(16)
    for _ in range(150):
        a = random_string(rng, 7, sigma=3)
        b = random_string(rng, 7, sigma=3)
        c = random_string(rng, 7, sigma=3)
        word, pa, pb, pc = lcs3_witness(a, b, c)
        assert len(word) == lcs3_all_prefixes(a, b, c)[-1]
        for host, positions in ((a, pa), (b, pb), (c, pc)):
            assert positions == sorted(set(positions))
            assert [host[p - 1] for p in positions] == word
        assert is_subsequence(word, a)


def test_three_way_witness_example():
    word, *_ = lcs3_witness("abc", "acb", "aabbcc")
    assert len(word) == lcs3_all_prefixes("abc", "acb", "aabbcc")[-1] == 2
