import random

import pytest

from subseqrep.core import (
    Block,
    SrsDecomposition,
    parse_sequence,
    sequence_from_tokens,
    validate_srs,
)
from subseqrep.lcs import lcs2_all_prefixes, lcs2_cut_prefixes, lcs3_all_prefixes, lcs3_witness
from subseqrep.oracles import oracle_cube_table, oracle_square_table
from subseqrep.tables import (
    IntervalTable,
    _check_repeat_table,
    _CutPairKernel,
    check_no_longer_cube,
    cube_search,
    cube_table,
    cube_witness,
    square_table,
    square_witness,
)

from helpers import random_string, strings_up_to


def test_worked_example_entries():
    s = parse_sequence("ACGAGCGCAGCGA")
    assert square_table(s).get(1, 13) == 10
    assert cube_table(s).get(1, 13) == 9


def test_tiny_squares():
    q2 = square_table(parse_sequence("aa"))
    assert q2.get(1, 2) == 2
    assert q2.get(1, 1) == 0


def test_tiny_cubes():
    assert cube_table(parse_sequence("aaa")).get(1, 3) == 3
    assert cube_table(parse_sequence("aa")).get(1, 2) == 0


def test_empty_and_single():
    for text in ("", "x"):
        s = parse_sequence(text)
        assert list(square_table(s).cells()) == list(
            IntervalTable(s.n, "square").cells()
        )


def test_interval_table_bounds():
    t = IntervalTable(4, "square")
    with pytest.raises(IndexError):
        t.get(2, 1)
    with pytest.raises(IndexError):
        t.get(0, 3)
    with pytest.raises(IndexError):
        t.get(1, 5)
    for i, j in ((2, 1), (0, 3), (1, 5)):
        with pytest.raises(IndexError):
            t.set(i, j, 2)
    assert t.rows == IntervalTable(4, "square").rows


def test_repeat_table_check_catches_each_broken_invariant():
    for rows, divisor, message in (
        ([[0, 3], [0]], 2, r"square table cell \(1,2\) = 3 violates divisibility"),
        ([[0, 0], [-3]], 3, r"square table cell \(2,2\) = -3 violates divisibility"),
        ([[2, 0], [0]], 2, r"square table not monotone at \(1,1\)"),
        ([[0, 0], [2]], 2, r"square table not monotone at \(2,2\)"),
    ):
        table = IntervalTable(2, "square")
        table.rows = rows
        with pytest.raises(AssertionError, match=f"^{message}$"):
            _check_repeat_table(table, divisor)
    table.rows = [[2, 2], [2]]
    _check_repeat_table(table, 2)


def test_exhaustive_against_oracle():
    for text in strings_up_to("abc", 6):
        s = parse_sequence(text)
        assert square_table(s) == oracle_square_table(s), text
        assert cube_table(s) == oracle_cube_table(s), text


def test_random_against_oracle():
    rng = random.Random(21)
    for _ in range(40):
        s = parse_sequence(random_string(rng, 9))
        assert square_table(s) == oracle_square_table(s)
        assert cube_table(s) == oracle_cube_table(s)


def test_table_invariants_random():
    rng = random.Random(22)
    for _ in range(60):
        s = parse_sequence(random_string(rng, 10, sigma=3))
        q2 = square_table(s)
        q3 = cube_table(s)
        letters = s.letters
        for i in range(1, s.n + 1):
            for j in range(i, s.n + 1):
                v2, v3 = q2.get(i, j), q3.get(i, j)
                assert v2 % 2 == 0 and v2 >= 0
                assert v3 % 3 == 0 and v3 >= 0
                assert 3 * v2 >= 2 * v3  # a cube contains a square of 2/3 its length
                window = letters[i - 1 : j]
                has_pair = len(set(window)) < len(window)
                assert (v2 >= 2) == has_pair


def test_square_witness_matches_table():
    rng = random.Random(23)
    for _ in range(30):
        s = parse_sequence(random_string(rng, 10, sigma=3))
        q2 = square_table(s)
        for i in range(1, s.n + 1):
            for j in range(i, s.n + 1):
                wit = square_witness(s, i, j)
                if q2.get(i, j) == 0:
                    assert wit is None
                    continue
                assert wit.total_length == q2.get(i, j)
                block = wit.blocks[0]
                assert block.exponent == 2
                assert validate_srs(s, wit) == []
                assert all(i <= p <= j for copy in block.copies for p in copy)


def test_cube_witness_matches_table():
    rng = random.Random(24)
    for _ in range(15):
        s = parse_sequence(random_string(rng, 9, sigma=3))
        q3 = cube_table(s)
        for i in range(1, s.n + 1):
            for j in range(i, s.n + 1):
                wit = cube_witness(s, i, j)
                if q3.get(i, j) == 0:
                    assert wit is None
                    continue
                assert wit.total_length == q3.get(i, j)
                assert wit.blocks[0].exponent == 3
                assert validate_srs(s, wit) == []


def test_worked_example_witnesses():
    s = parse_sequence("ACGAGCGCAGCGA")
    wit = cube_witness(s, 1, 13)
    assert wit.total_length == 9
    assert wit.blocks[0].exponent == 3
    assert len(wit.blocks[0].root) == 3
    assert square_witness(s, 1, 1) is None
    # cuts after positions 2 and 3 of "ababa" both give a square of length
    # 4; the smaller cut wins
    for text, i in (("ababa", 1), ("xababa", 2)):
        wit = square_witness(parse_sequence(text), i, i + 4)
        assert wit.blocks[0].copies == ((i, i + 1), (i + 2, i + 3))


def test_witness_bounds_check():
    s = parse_sequence("abcd")
    with pytest.raises(ValueError):
        square_witness(s, 0, 3)
    with pytest.raises(ValueError):
        cube_witness(s, 2, 5)


def test_thread_determinism():
    rng = random.Random(25)
    for _ in range(10):
        s = parse_sequence(random_string(rng, 12))
        assert square_table(s, threads=1) == square_table(s, threads=4)
        assert cube_table(s, threads=1) == cube_table(s, threads=4)


def unpruned_cube_rows(letters) -> list[list[int]]:
    """Every cut pair through the 3-way DP, no bounds: the pruning's reference."""
    n = len(letters)
    rows = []
    for s in range(1, n + 1):
        best = [0] * (n - s + 1)
        for c1 in range(s, n - 1):
            for c2 in range(c1 + 1, n):
                f = lcs3_all_prefixes(letters[s - 1 : c1], letters[c1:c2], letters[c2:])
                for k in range(1, n - c2 + 1):
                    best[c2 - s + k] = max(best[c2 - s + k], 3 * f[k])
        rows.append(best)
    return rows


def unpruned_cube_witness(seq, i, j):
    """Smallest (c1, c2) reaching the optimum, searched without bounds, then traced back."""
    letters = seq.letters
    best_val, best_cuts = 0, None
    for c1 in range(i, j - 1):
        for c2 in range(c1 + 1, j):
            v = lcs3_all_prefixes(letters[i - 1 : c1], letters[c1:c2], letters[c2:j])[-1]
            if v > best_val:
                best_val, best_cuts = v, (c1, c2)
    if best_val == 0:
        return None
    return cube_block(letters, i, j, *best_cuts)


def index_order_cube_witnesses(seq) -> dict:
    """Every interval's witness from an index-order argmax with no screens.

    One all-prefix 3-way DP per (i, c1, c2) answers every end point j, and
    a later pair replaces the best only when strictly longer, so each
    interval keeps its smallest (c1, c2) reaching the optimum.
    """
    letters = seq.letters
    n = seq.n
    best = {}
    for i in range(1, n + 1):
        for c1 in range(i, n - 1):
            for c2 in range(c1 + 1, n):
                f = lcs3_all_prefixes(letters[i - 1 : c1], letters[c1:c2], letters[c2:])
                for j in range(c2 + 1, n + 1):
                    if f[j - c2] > best.get((i, j), (0,))[0]:
                        best[i, j] = (f[j - c2], c1, c2)
    witnesses = {(i, j): None for i in range(1, n + 1) for j in range(i, n + 1)}
    for (i, j), (_, c1, c2) in best.items():
        witnesses[i, j] = cube_block(letters, i, j, c1, c2)
    return witnesses


def cube_block(letters, i, j, c1, c2):
    """The exponent-3 block of S[i..j] traced back across the cuts c1 < c2."""
    word, pa, pb, pc = lcs3_witness(letters[i - 1 : c1], letters[c1:c2], letters[c2:j])
    copies = (
        tuple(i - 1 + p for p in pa),
        tuple(c1 + p for p in pb),
        tuple(c2 + p for p in pc),
    )
    return SrsDecomposition((Block(tuple(word), 3, copies),))


def test_pruned_cube_matches_unpruned_search():
    rng = random.Random(26)
    texts = [random_string(rng, 32, sigma=sigma, min_n=24) for sigma in (2, 3, 4, 5)]
    texts += ["a" * 24, "ab" * 13, "abcabc" * 4 + "cab"]  # unary, and many tying cuts
    seqs = [parse_sequence(t) for t in texts]
    seqs.append(sequence_from_tokens([f"x{p}" for p in range(28)]))  # all distinct
    for seq in seqs:
        letters = seq.letters
        assert cube_table(seq).rows == unpruned_cube_rows(letters), seq.render()
        n = seq.n
        intervals = [(1, n), (2, n), (1, n - 3), (n // 4, n - n // 4)]
        intervals += [(i, i + rng.randint(2, n // 2)) for i in rng.sample(range(1, n // 2), 3)]
        for i, j in intervals:
            assert cube_witness(seq, i, j) == unpruned_cube_witness(seq, i, j), (
                seq.render(),
                i,
                j,
            )


def test_cube_search_matches_cube_table():
    # the whole-sequence search's root against the full table's longest
    # cube, and the check that proves it, with its own cut vectors and
    # with square_table's
    rng = random.Random(27)
    texts = [random_string(rng, 40, sigma=rng.randint(2, 8), min_n=24) for _ in range(8)]
    texts += ["abc" * 11, "aab" * 12, "a" * 30]
    seqs = [parse_sequence(t) for t in texts]
    seqs.append(sequence_from_tokens([f"x{p}" for p in range(30)]))  # all distinct
    for seq in seqs:
        top = cube_table(seq, threads=1).get(1, seq.n) // 3
        wit, runs = cube_search(seq, 1, seq.n)
        assert (len(wit.blocks[0].root) if wit else 0) == top, seq.render()
        assert wit == cube_witness(seq, 1, seq.n)
        check_no_longer_cube(seq, top, runs, [None] * seq.n)
        pre = [None] * seq.n
        square_table(seq, pre=pre)
        check_no_longer_cube(seq, top, runs, pre)
        if top:
            with pytest.raises(AssertionError):
                check_no_longer_cube(seq, top - 1, runs, pre)
    check_no_longer_cube(parse_sequence(""), 0, {}, [])


def test_cube_check_catches_a_missing_pair_and_a_short_root():
    # the check needs exactly the pairs whose three pairwise LCS values
    # exceed the root, and each of their values at or below it
    rng = random.Random(29)
    texts = ["ACGAGCGCAGCGA"] + [random_string(rng, 24, sigma=4, min_n=16) for _ in range(4)]
    dropped = 0
    for text in texts:
        seq = parse_sequence(text)
        letters = seq.letters
        pre = [None] * seq.n
        wit, runs = cube_search(seq, 1, seq.n)
        root = len(wit.blocks[0].root) if wit else 0
        for c1, c2 in runs:
            a, b, c = letters[:c1], letters[c1:c2], letters[c2:]
            least = min(lcs2_all_prefixes(x, y)[-1] for x, y in ((a, b), (a, c), (b, c)))
            rest = {pair: v for pair, v in runs.items() if pair != (c1, c2)}
            if least > root:
                dropped += 1
                with pytest.raises(AssertionError, match="did not run it"):
                    check_no_longer_cube(seq, root, rest, pre)
            else:
                check_no_longer_cube(seq, root, rest, pre)
        if root:
            with pytest.raises(AssertionError, match=f"its root is {root}"):
                check_no_longer_cube(seq, root - 1, runs, pre)
    assert dropped


def test_threshold_kernel_matches_the_3way_dp():
    # LCS(a, b, c) when it exceeds t and None otherwise, at every t from
    # -1 to LCS + 1; one kernel serves several cut pairs, as in a search,
    # so its cached rows are shared among them
    rng = random.Random(30)
    words = []
    for _ in range(800):
        sigma = rng.randint(1, 4)
        words.append(tuple(rng.randrange(sigma) for _ in range(rng.randint(3, 20))))
    words += [(0,) * n for n in range(3, 21)]  # unary
    words += [tuple(range(n)) for n in range(3, 21)]  # all distinct
    triples = 0
    for w in words:
        n = len(w)
        kernel = _CutPairKernel(w)
        for _ in range(2):
            c1 = rng.randint(1, n - 2)
            c2 = rng.randint(c1 + 1, n - 1)
            lcs = lcs3_all_prefixes(w[:c1], w[c1:c2], w[c2:])[-1]
            for t in range(-1, lcs + 2):
                assert kernel.above(c1, c2, t) == (lcs if lcs > t else None), (w, c1, c2, t)
            triples += 1
            # row(end, start)[k] = LCS(w[start:end], w[n - k:])
            end = rng.randint(0, n)
            start = rng.randint(0, end)
            want = lcs2_all_prefixes(w[start:end][::-1], w[end:][::-1])
            assert kernel.row(end, start) == want, (w, end, start)
    assert triples >= 1500


def test_threshold_kernel_keeps_no_state_at_its_bound():
    # a successor's bound is at least one below its parent's, so at t =
    # min(LCS(a, c), LCS(b, c)) every level-1 state fails the keep test,
    # and the only rows built are the bounds of level 1's states
    rng = random.Random(32)
    for _ in range(300):
        w = tuple(rng.randrange(rng.randint(1, 4)) for _ in range(rng.randint(3, 20)))
        n = len(w)
        c1 = rng.randint(1, n - 2)
        c2 = rng.randint(c1 + 1, n - 1)
        t = min(lcs2_all_prefixes(x, w[c2:])[-1] for x in (w[:c1], w[c1:c2]))
        kernel = _CutPairKernel(w)
        assert kernel.above(c1, c2, t) is None
        # a level-1 state reads rows (c1, p + 1) and (c2, q + 1), where p
        # and q are a letter's first positions in a and in b
        for end, first in ((c1, w[:c1].index), (c2, lambda x: c1 + w[c1:c2].index(x))):
            level1 = {first(x) + 1 for x in set(w[:c1]) & set(w[c1:c2])}
            built = {start for start, row in enumerate(kernel.rows[end]) if row}
            assert built <= level1, (w, c1, c2)


def test_cube_search_runs_hold_a_root_or_a_proven_threshold():
    # every settled pair's value lies between its LCS and the returned
    # root, and the winning pair, the first in index order to reach the
    # root, holds the root itself
    rng = random.Random(31)
    texts = [random_string(rng, 24, sigma=s, min_n=8) for s in (1, 2, 3, 4) for _ in range(5)]
    texts += ["ACGAGCGCAGCGA", "abc" * 8, "aab" * 8]
    for text in texts:
        seq = parse_sequence(text)
        letters = seq.letters
        n = seq.n
        for i, j in [(1, n)] + [tuple(sorted(rng.sample(range(1, n + 1), 2))) for _ in range(2)]:
            wit, runs = cube_search(seq, i, j)
            root = len(wit.blocks[0].root) if wit else 0
            lcs = {
                (c1, c2): lcs3_all_prefixes(letters[i - 1 : c1], letters[c1:c2], letters[c2:j])[-1]
                for c1 in range(i, j - 1)
                for c2 in range(c1 + 1, j)
            }
            for pair, v in runs.items():
                assert lcs[pair] <= v <= root, (text, i, j, pair)
            if wit:
                first = min(pair for pair, v in lcs.items() if v == root)
                assert runs[first] == root, (text, i, j)
                assert wit == cube_block(letters, i, j, *first)


def _best_first_cases():
    rng = random.Random(28)
    texts = ["ab" * 12, "abc" * 7, "aab" * 8, "a" * 20, "a" * 16]
    texts += [random_string(rng, 24, sigma=sigma, min_n=16) for sigma in range(2, 9)]
    return [parse_sequence(t) for t in texts]


@pytest.mark.parametrize("seq", _best_first_cases(), ids=lambda s: s.render())
def test_best_first_cube_witness_matches_index_order(seq):
    # every interval: the same smallest-(c1, c2) maximum as a scan in
    # index order
    expected = index_order_cube_witnesses(seq)
    for (i, j), want in expected.items():
        assert cube_witness(seq, i, j) == want, (seq.render(), i, j)


def test_square_table_fills_the_cut_vectors():
    rng = random.Random(29)
    texts = [random_string(rng, 32, sigma=sigma, min_n=20) for sigma in (2, 4, 8)]
    texts += ["", "a", "ab" * 9, "a" * 17]
    for text in texts:
        seq = parse_sequence(text)
        pre = [None] * seq.n
        assert square_table(seq, pre=pre) == square_table(seq), text
        for s in range(seq.n):
            assert pre[s] == lcs2_cut_prefixes(seq.letters, s), (text, s)
