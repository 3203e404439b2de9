import random
import types

import pytest

import subseqrep

from subseqrep.core import (
    Block,
    OccurrenceIndex,
    Sequence,
    SequenceParseError,
    SrsDecomposition,
    check_decomposition,
    merge_blocks,
    parse_sequence,
    power_root,
    sequence_from_tokens,
    split_exponent,
    srs_partitionable,
    validate_srs,
)
from subseqrep.hardness import (
    Graph,
    assignment_from_coloring,
    coloring_to_sat,
    extract_witness,
    sat_to_string,
)
from subseqrep.lsrs import lsrs
from subseqrep.plus3 import lsrs_plus3
from subseqrep.tables import cube_search, cube_witness, square_witness

from helpers import brute_partitionable, random_string, strings_up_to


def test_parse_raw():
    s = parse_sequence("ACGT")
    assert s.n == 4
    assert s.alphabet_size == 4
    assert s.render() == "ACGT"


def test_parse_tokens():
    s = parse_sequence("F1 F1 g1", "tokens")
    assert s.n == 3
    assert s.alphabet_size == 2
    assert s.tokens == ("F1", "g1")
    assert s.render() == "F1 F1 g1"


def test_parse_empty():
    assert parse_sequence("").n == 0
    assert parse_sequence("", "tokens").n == 0


def test_parse_interns_first_appearance():
    s = parse_sequence("baca")
    assert s.tokens == ("b", "a", "c")
    assert s.letters == (0, 1, 2, 1)


def test_parse_rejects_control_characters():
    with pytest.raises(SequenceParseError, match="on line 1"):
        parse_sequence("AC\x01GT")


def test_parse_reads_lines_headers_and_tabs_as_analyze_does():
    assert parse_sequence(">h\r\nAC\nGT \n") == parse_sequence("ACGT")
    assert parse_sequence("ACGT\n") == parse_sequence("ACGT")
    assert parse_sequence(">only\n").n == 0
    assert parse_sequence(">h\tx\n\tAC \t\n") == parse_sequence("AC")
    with pytest.raises(SequenceParseError, match="on line 2"):
        parse_sequence(">h\nAC\tGT\n")


def test_parse_drops_one_leading_byte_order_mark():
    assert parse_sequence("\ufeffACGT\n") == parse_sequence("ACGT")
    assert parse_sequence("\ufeff>h\nAC\n") == parse_sequence("AC")
    assert parse_sequence("\ufeffa b a", "tokens") == parse_sequence("a b a", "tokens")
    # only the first one, and only at the start of the text
    assert parse_sequence("\ufeff\ufeffAC").n == 3
    assert parse_sequence("A\ufeffC").n == 3


@pytest.mark.parametrize("ch", ["\x80", "\x85", "\x9f", "\u2028", "\u2029"])
def test_parse_rejects_c1_controls_and_unicode_separators(ch):
    for mode in ("raw", "tokens"):
        with pytest.raises(SequenceParseError) as info:
            parse_sequence(f">h\nAC{ch}GT\n", mode)
        assert str(info.value) == f"control character {ch!r} on line 2"
    # the letters on either side of the range are letters
    assert parse_sequence("A\x7e\xa0\u2027\u202a").n == 5


def test_empty_token_rejected():
    with pytest.raises(SequenceParseError, match="index 1"):
        sequence_from_tokens(["a", ""])


@pytest.mark.parametrize("text", ["", "A", "ACGT", "ababbcacc", "zzzyx"])
def test_render_round_trip(text):
    assert parse_sequence(text).render() == text


def test_occurrence_index():
    s = parse_sequence("ababbcacc")
    idx = OccurrenceIndex.from_sequence(s)
    assert idx.max_occurrence == 3
    assert sum(len(p) for p in idx.positions) == s.n
    for plist in idx.positions:
        assert list(plist) == sorted(plist)
    a = s.tokens.index("a")
    assert idx.positions[a] == (1, 3, 7)
    assert idx.singletons() == frozenset()
    assert OccurrenceIndex.from_sequence(parse_sequence("ab")).singletons() == frozenset({0, 1})


def _block(seq: Sequence, word: str, *copies):
    root = tuple(seq.tokens.index(ch) for ch in word)
    return Block(root, len(copies), tuple(tuple(c) for c in copies))


def test_validate_srs_accepts_worked_decomposition():
    s = parse_sequence("ACGAGCGCAGCGA")
    dec = SrsDecomposition(
        (
            _block(s, "AG", (1, 3), (4, 5)),
            _block(s, "CG", (6, 7), (8, 10), (11, 12)),
        )
    )
    assert validate_srs(s, dec) == []
    assert dec.total_length == 10
    assert dec.render(s) == "(AG)^2(CG)^3"


def test_validate_srs_rejects_exponent_one():
    s = parse_sequence("abab")
    dec = SrsDecomposition((_block(s, "ab", (1, 2)),))
    assert any("exponent<2" in v for v in validate_srs(s, dec))


def test_validate_srs_rejects_unmerged_adjacent_roots():
    s = parse_sequence("abababab")
    dec = SrsDecomposition(
        (_block(s, "ab", (1, 2), (3, 4)), _block(s, "ab", (5, 6), (7, 8)))
    )
    assert any("adjacent equal roots" in v for v in validate_srs(s, dec))


def test_validate_srs_rejects_bad_spelling_and_order():
    s = parse_sequence("abab")
    wrong = SrsDecomposition((_block(s, "aa", (1, 2), (3, 4)),))
    assert any("spells" in v for v in validate_srs(s, wrong))
    backwards = SrsDecomposition((_block(s, "ab", (3, 4), (1, 2)),))
    assert any("strictly increasing" in v for v in validate_srs(s, backwards))
    out = SrsDecomposition((_block(s, "ab", (1, 2), (3, 9)),))
    assert any("out of range" in v for v in validate_srs(s, out))


def test_validate_srs_rejects_malformed_blocks():
    s = parse_sequence("abab")
    a, b = s.tokens.index("a"), s.tokens.index("b")
    empty = SrsDecomposition((Block((), 2, ((), ())),))
    assert validate_srs(s, empty) == ["block 0: empty root"]
    two_copies = SrsDecomposition((Block((a, b), 3, ((1, 2), (3, 4))),))
    assert validate_srs(s, two_copies) == ["block 0: 2 copies for exponent 3"]
    cut_copy = SrsDecomposition((Block((a, b), 2, ((1, 2), (3,))),))
    assert validate_srs(s, cut_copy) == ["block 0 copy 1: wrong length"]


def test_check_decomposition_rejects_the_wrong_length():
    s = parse_sequence("abab")
    dec = SrsDecomposition((_block(s, "ab", (1, 2), (3, 4)),))
    assert check_decomposition(s, dec, 4) is dec
    with pytest.raises(AssertionError, match=r"^witness length 4 != 6$"):
        check_decomposition(s, dec, 6)


def test_validate_srs_cover_requirement():
    s = parse_sequence("aabc")
    dec = SrsDecomposition((_block(s, "a", (1,), (2,)),))
    assert validate_srs(s, dec) == []
    missing = validate_srs(s, dec, require_cover=frozenset(range(s.alphabet_size)))
    assert any("'b'" in v for v in missing)
    assert any("'c'" in v for v in missing)


def test_validate_empty_decomposition():
    s = parse_sequence("abc")
    assert validate_srs(s, SrsDecomposition(())) == []


def test_solvers_check_their_own_witnesses(monkeypatch):
    # every solver re-validates its witness through the one shared check
    k3 = Graph(3, ((0, 1), (0, 2), (1, 2)))
    f = coloring_to_sat(k3)
    r = sat_to_string(f)
    assignment = assignment_from_coloring(k3, f, [1, 2, 3])
    monkeypatch.setattr("subseqrep.core.validate_srs", lambda *a, **k: ["forced"])
    for solve in (
        lambda: square_witness(parse_sequence("abab"), 1, 4),
        lambda: cube_witness(parse_sequence("ababab"), 1, 6),
        lambda: cube_search(parse_sequence("ababab"), 1, 6),
        lambda: lsrs(parse_sequence("abab")),
        lambda: lsrs_plus3(parse_sequence("abab")),
        lambda: extract_witness(f, assignment, r),
    ):
        with pytest.raises(AssertionError, match="^witness failed validation: forced$"):
            solve()


def test_merge_blocks_combines_equal_roots():
    s = parse_sequence("ababababab")
    dec = SrsDecomposition(
        (_block(s, "ab", (1, 2), (3, 4)), _block(s, "ab", (5, 6), (7, 8), (9, 10)))
    )
    merged = merge_blocks(dec)
    assert len(merged.blocks) == 1
    assert merged.blocks[0].exponent == 5
    assert merged.total_length == 10
    assert validate_srs(s, merged) == []


def test_merge_blocks_keeps_distinct_roots():
    s = parse_sequence("ababbaba")
    dec = SrsDecomposition(
        (_block(s, "ab", (1, 2), (3, 4)), _block(s, "ba", (5, 6), (7, 8)))
    )
    assert merge_blocks(dec) == dec


def test_merge_blocks_chain():
    s = parse_sequence("aaaaabb")
    dec = SrsDecomposition(
        (
            _block(s, "a", (1,), (2,), (3,)),
            _block(s, "a", (4,), (5,)),
            _block(s, "b", (6,), (7,)),
        )
    )
    merged = merge_blocks(dec)
    assert [(b.root, b.exponent) for b in merged.blocks] == [((0,), 5), ((1,), 2)]


def test_merged_random_decompositions_validate():
    rng = random.Random(20240)
    for _ in range(200):
        blocks = []
        tokens = []
        pos = 1
        for _ in range(rng.randint(0, 4)):
            root_word = [rng.choice("abc") for _ in range(rng.randint(1, 3))]
            exponent = rng.randint(2, 4)
            copies = []
            for _ in range(exponent):
                copies.append(tuple(range(pos, pos + len(root_word))))
                tokens.extend(root_word)
                pos += len(root_word)
            blocks.append((root_word, exponent, copies))
        s = sequence_from_tokens(tokens)
        dec = SrsDecomposition(
            tuple(
                Block(tuple(s.tokens.index(ch) for ch in word), e, tuple(copies))
                for word, e, copies in blocks
            )
        )
        merged = merge_blocks(dec)
        assert validate_srs(s, merged) == []
        assert merged.total_length == dec.total_length == s.n


@pytest.mark.parametrize(
    "d,want",
    [(2, [2]), (3, [3]), (4, [2, 2]), (5, [2, 3]), (6, [3, 3]), (7, [2, 2, 3]), (8, [2, 3, 3])],
)
def test_split_exponent(d, want):
    assert split_exponent(d) == want


def test_split_exponent_rejects_small():
    with pytest.raises(ValueError):
        split_exponent(1)


def test_split_exponent_properties():
    for d in range(2, 300):
        parts = split_exponent(d)
        assert sum(parts) == d
        assert set(parts) <= {2, 3}


@pytest.mark.parametrize(
    "word,root,exp",
    [
        ("abab", "ab", 2),
        ("aaa", "a", 3),
        ("abc", "abc", 1),
        ("aabaab", "aab", 2),
        ("abaaba", "aba", 2),
        ("a", "a", 1),
        ("aaaa", "a", 4),
    ],
)
def test_power_root(word, root, exp):
    assert power_root(word) == (tuple(root), exp)


def test_power_root_compounds():
    rng = random.Random(7)
    for _ in range(300):
        r = tuple(rng.choice("ab") for _ in range(rng.randint(1, 5)))
        e = rng.randint(1, 4)
        base_root, base_exp = power_root(r)
        assert power_root(r * e) == (base_root, base_exp * e)


def test_power_root_rejects_empty():
    with pytest.raises(ValueError):
        power_root(())


@pytest.mark.parametrize(
    "word,want",
    [
        ("aabb", True),
        ("aba", False),
        ("abcabcdd", True),
        ("", True),
        ("a", False),
        ("abab", True),
        ("aabbc", False),
    ],
)
def test_srs_partitionable(word, want):
    assert srs_partitionable(word) is want


def test_srs_partitionable_exhaustive_small():
    for word in strings_up_to("ab", 10):
        assert srs_partitionable(word) == brute_partitionable(word), word


def test_srs_partitionable_random_three_letters():
    rng = random.Random(99)
    for _ in range(300):
        word = random_string(rng, 10, sigma=3)
        assert srs_partitionable(word) == brute_partitionable(word), word


def test_public_surface_imports():
    for name in subseqrep.__all__:
        assert getattr(subseqrep, name) is not None, name
    namespace: dict = {}
    exec("from subseqrep import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(subseqrep.__all__)
    # every public name the package imports is listed, and only once
    public = {
        name
        for name, value in vars(subseqrep).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(subseqrep.__all__)
    assert len(subseqrep.__all__) == len(set(subseqrep.__all__))
