"""Properties that need no oracle, at n = 24-64, past the oracles' reach.

At n = 48-64 they cover the path `analyze` takes there: the cube search
of the whole sequence, the check that proves no longer cube exists, and
the LSRS DP with its targeted cube cells.  At n = 24-40 they
cover the full square and cube tables.
"""

import io
import json
import random

import pytest

from subseqrep import cli
from subseqrep.core import Sequence, parse_sequence
from subseqrep.lsrs import lsrs
from subseqrep.tables import check_no_longer_cube, cube_search, cube_table, square_table

from helpers import random_bound3_string, random_string


def _cases():
    rng = random.Random(71)
    texts = [random_string(rng, 64, sigma=sigma, min_n=48) for sigma in (2, 4, 6)]
    texts.append(random_bound3_string(rng, 64, min_n=48))  # analyze runs lsrs_plus3 too
    return texts


def _analyze(monkeypatch, capsys, text: str) -> dict:
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert cli.main(["analyze", "-"]) == 0
    doc = json.loads(capsys.readouterr().out)
    del doc["timing_ms"]
    return doc


def _lengths(doc: dict) -> dict:
    out = {key: doc[key]["length"] for key in ("square", "cube", "lsrs")}
    if "lsrs_plus3" in doc:
        out["lsrs_plus3"] = (doc["lsrs_plus3"]["feasible"], doc["lsrs_plus3"]["length"])
    return out


def _library_lengths(seq: Sequence) -> dict:
    """The lengths `analyze` reports, from the library calls it makes."""
    n = seq.n
    cube, kernel = cube_search(seq, 1, n)
    root = len(cube.blocks[0].root) if cube else 0
    check_no_longer_cube(kernel, root)
    return {"square": square_table(seq).get(1, n), "cube": 3 * root, "lsrs": lsrs(seq).length}


@pytest.mark.parametrize("text", _cases(), ids=lambda t: f"n{len(t)}")
def test_reversal_and_relabelling_keep_the_lengths(monkeypatch, capsys, text):
    lengths = _lengths(_analyze(monkeypatch, capsys, text))
    assert _lengths(_analyze(monkeypatch, capsys, text[::-1])) == lengths
    # parsing interns letters by first appearance, so the relabelled
    # sequence is built directly, each letter id moved up by one
    seq = parse_sequence(text)
    sigma = seq.alphabet_size
    relabelled = Sequence(
        tuple((x + 1) % sigma for x in seq.letters), seq.tokens[-1:] + seq.tokens[:-1]
    )
    assert _library_lengths(relabelled) == {key: lengths[key] for key in ("square", "cube", "lsrs")}


def test_lsrs_is_superadditive_over_concatenation():
    # blocks of x and of y side by side form a decomposition of xy (equal
    # roots at the seam merge into one block)
    rng = random.Random(72)
    for _ in range(4):
        sigma = rng.randint(2, 6)
        x = random_string(rng, 32, sigma=sigma, min_n=16)
        y = random_string(rng, 64 - len(x), sigma=sigma, min_n=48 - len(x))
        whole = lsrs(parse_sequence(x + y)).length
        assert whole >= lsrs(parse_sequence(x)).length + lsrs(parse_sequence(y)).length, (x, y)


def _table_cases():
    rng = random.Random(73)
    sizes = ((24, 2), (32, 4), (40, 6))
    return [random_string(rng, n, sigma=sigma, min_n=n) for n, sigma in sizes]


@pytest.mark.parametrize("text", _table_cases(), ids=lambda t: f"n{len(t)}")
def test_full_tables_mirror_under_reversal(text):
    # a square or cube in S[i..j] read backwards is one in the reversed
    # string, at [n+1-j, n+1-i]
    seq, rev = parse_sequence(text), parse_sequence(text[::-1])
    n = seq.n
    for build in (square_table, cube_table):
        table, mirrored = build(seq), build(rev)
        for i, j, v in table.cells():
            assert mirrored.get(n + 1 - j, n + 1 - i) == v, (build.__name__, i, j)


@pytest.mark.parametrize("text", _table_cases(), ids=lambda t: f"n{len(t)}")
def test_square_table_at_least_two_thirds_of_cube_table(text):
    # X X X holds the square (X X) of the same interval, so 3 Q2 >= 2 Q3
    seq = parse_sequence(text)
    q2, q3 = square_table(seq), cube_table(seq)
    for i, j, cube in q3.cells():
        assert 3 * q2.get(i, j) >= 2 * cube, (i, j)
