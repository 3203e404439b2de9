"""Full-coverage repeat solver for sequences whose letters occur at most 3 times.

With every letter appearing 2 or 3 times, any solution block is a square
or a cube, and the letters a local solution must cover are pinned down
by per-interval occurrence counts, each kept as a bitmask whose bit a
stands for letter id a (``coverage_tables``):

  cover[i,j]        letters occurring >= 2 times in S[i..j]
  cover2[i,j]       == cover[i,j] when some letter occurs exactly twice, else 0
  cover3[i,j]       letters occurring exactly 3 times when none occurs twice, else 0

A square inside [i, j] can use each covered letter at most once per
half, so a covering square has length exactly 2*|set| (twice the mask's
bit count) and existence reduces to comparing the unconstrained square
table entry against that bound.  A covering cube is unique when it
exists: the subsequence of cover3-letters split into equal thirds.

Interval lengths L[i,j] (-1 = infeasible) start from those local
solutions and combine bottom-up over splits whose two sides are both
feasible and jointly cover cover[i,j].  Feasibility of the whole
sequence is L[1,n] > 0.  Total O(n^4), dominated by the square table.

The split pass fills L row by row, from i = n down to 1 and j upwards,
so cell [i, j] reads only earlier cells of its own row (left parts
[i, k]) and later rows (right parts [k+1, j]).  The right lengths come
from a column mirror, cols_l[j-1][k] = L[k+1, j], written whenever a
cell of L is set, so one zip walks every split in increasing k with no
bounds-checked table call; the right cover, cover[k+1, j], is read only
for splits whose two sides are feasible.  A cell with an empty cover is
skipped, since no solution there is feasible.  No covering solution of
[i, j] is longer than its covered-position bound, the span minus the
letters that occur once in it (counted as j grows), so a cell's scan
stops once its value reaches that bound.  The scan keeps the first k
of the best value (strict >), so the trace is the full scan's.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .core import (
    Block,
    OccurrenceIndex,
    Sequence,
    SrsDecomposition,
    check_decomposition,
    merge_blocks,
)
from .tables import IntervalTable, square_table, square_witness


# cover / cover2 / cover3 bitmask rows, ``masks[t][i - 1][j - i]``
_Masks = tuple[list[list[int]], list[list[int]], list[list[int]]]


class OccurrenceBoundError(Exception):
    """Some letter occurs more than 3 times.

    Feasibility testing with occurrence bound 4 or more is NP-complete;
    this solver only handles the bound-3 case.  Use the hardness module
    to build such instances, or the brute-force oracles on tiny ones.
    """


@dataclass(frozen=True)
class FeasibilityTables:
    s2: IntervalTable
    s3: IntervalTable
    length: IntervalTable
    trace: dict


@dataclass(frozen=True)
class Plus3Result:
    feasible: bool
    length: int
    decomposition: SrsDecomposition | None


def precheck(seq: Sequence) -> OccurrenceIndex:
    """Occurrence index of ``seq``; rejects sequences with a letter beyond 3."""
    index = OccurrenceIndex.from_sequence(seq)
    _check_bound(index.max_occurrence)
    return index


def _check_bound(d: int) -> None:
    """Raise unless ``d``, the most occurrences of one letter, is at most 3."""
    if d > 3:
        raise OccurrenceBoundError(
            f"occurrence bound exceeded: some letter appears {d} times (limit 3); "
            "the constrained problem is NP-complete from 4 occurrences up"
        )


def coverage_tables(seq: Sequence) -> _Masks:
    """cover / cover2 / cover3 for every interval as bitmask rows, O(n^2) ints.

    Returns ``(cover, cover2, cover3)`` with ``masks[t][i - 1][j - i]`` the
    mask of interval [i, j]; bit ``a`` stands for letter id ``a``.  Raises
    ``OccurrenceBoundError`` as ``precheck`` does, from the letter counts of
    the first row (the whole sequence), before the other rows.
    """
    n = seq.n
    letters = seq.letters
    sigma = seq.alphabet_size
    rows_c: list[list[int]] = []
    rows_c2: list[list[int]] = []
    rows_c3: list[list[int]] = []
    for i in range(1, n + 1):
        counts = [0] * sigma
        repeated = 0
        thrice = 0
        twice_count = 0
        row_c = [0] * (n - i + 1)
        row_c2 = [0] * (n - i + 1)
        row_c3 = [0] * (n - i + 1)
        for j in range(i, n + 1):
            a = letters[j - 1]
            c = counts[a] + 1
            counts[a] = c
            if c == 2:
                repeated |= 1 << a
                twice_count += 1
            elif c == 3:
                thrice |= 1 << a
                twice_count -= 1
            idx = j - i
            row_c[idx] = repeated
            if twice_count:
                row_c2[idx] = repeated
            else:
                row_c3[idx] = thrice
        if i == 1:
            _check_bound(max(counts))
        rows_c.append(row_c)
        rows_c2.append(row_c2)
        rows_c3.append(row_c3)
    return rows_c, rows_c2, rows_c3


def s3_table(seq: Sequence, cov: _Masks, q2: IntervalTable) -> IntervalTable:
    """Best covering cube (or square fallback) per interval, -1 when none.

    Entries are 3*|cover3| for the unique covering cube, else 2*|cover3|
    when the longest square reaches that length (such a square covers
    every cover3-letter: each can occur at most once per half), else -1.
    """
    letters = seq.letters
    table = IntervalTable(seq.n, "covered-cube", -1)
    for i, (row_c3, row_q2, row) in enumerate(zip(cov[2], q2.rows, table.rows)):
        for d, want in enumerate(row_c3):
            if not want:
                continue
            restricted = [a for a in letters[i : i + d + 1] if want >> a & 1]
            size = want.bit_count()
            if len(restricted) != 3 * size:
                raise AssertionError("cover3 letters must occur exactly 3 times")
            if restricted[:size] == restricted[size : 2 * size] == restricted[2 * size :]:
                row[d] = 3 * size
            elif row_q2[d] == 2 * size:
                row[d] = 2 * size
    return table


def s2_table(seq: Sequence, cov: _Masks, q2: IntervalTable) -> IntervalTable:
    """Best covering square per interval, -1 when none (same length test)."""
    table = IntervalTable(seq.n, "covered-square", -1)
    for row_c2, row_q2, row in zip(cov[1], q2.rows, table.rows):
        for d, (want, best) in enumerate(zip(row_c2, row_q2)):
            if want and best == 2 * want.bit_count():
                row[d] = best
    return table


def feasibility_tables(
    seq: Sequence, q2: IntervalTable | None = None
) -> FeasibilityTables:
    """Interval DP over covering solutions; trace records how each cell was won."""
    cov = coverage_tables(seq)  # rejects a letter beyond 3 before the square table
    n = seq.n
    if q2 is None:
        q2 = square_table(seq)
    s3 = s3_table(seq, cov, q2)
    s2 = s2_table(seq, cov, q2)
    rows_c, _, rows_c3 = cov
    letters = seq.letters

    length = IntervalTable(n, "feasible-length", -1)
    rows_l = length.rows
    # column mirror: cols_l[j - 1][k] = L[k + 1, j]
    cols_l = [[-1] * j for j in range(1, n + 1)]
    trace: dict = {}
    for i in range(n, 0, -1):
        row_l = rows_l[i - 1]
        row_c = rows_c[i - 1]
        row_c3 = rows_c3[i - 1]
        row_s3 = s3.rows[i - 1]
        row_s2 = s2.rows[i - 1]
        counts = [0] * seq.alphabet_size
        singles = 0  # letters occurring once in S[i..j]
        for j in range(i, n + 1):
            a = letters[j - 1]
            c = counts[a]
            counts[a] = c + 1
            if c == 0:
                singles += 1
            elif c == 1:
                singles -= 1
            d = j - i
            whole = row_c[d]
            if not whole:
                continue
            v3 = row_s3[d]
            v2 = row_s2[d]
            if v3 > 0:
                best = v3
                is_cube = v3 == 3 * row_c3[d].bit_count()
                kind: tuple = ("cube3",) if is_cube else ("square3",)
            elif v2 > 0:
                best = v2
                kind = ("square2",)
            else:
                best = -1
                kind = ()
            # no covering solution uses a position whose letter occurs once
            bound = d + 1 - singles
            if best < bound:
                # split k: left part [i, k] from row i, right part [k + 1, j]
                # from column j; both were set before this cell
                for k, left, right in zip(range(i, j), row_l, cols_l[j - 1][i:]):
                    if left <= 0 or right <= 0:
                        continue
                    left_mask = row_c[k - i]
                    right_mask = rows_c[k][j - k - 1]
                    if left_mask | right_mask != whole:
                        continue
                    if left_mask & right_mask:
                        raise AssertionError(
                            "repeat sets of split parts must be disjoint at bound 3"
                        )
                    if left + right > best:
                        best = left + right
                        kind = ("split", k)
                        if best == bound:
                            break
            if best > 0:
                row_l[d] = best
                cols_l[j - 1][i - 1] = best
                trace[(i, j)] = kind
    return FeasibilityTables(s2, s3, length, trace)


def _rebuild(seq: Sequence, tabs: FeasibilityTables, i: int, j: int) -> list[Block]:
    kind = tabs.trace[(i, j)]
    if kind[0] == "split":
        k = kind[1]
        return _rebuild(seq, tabs, i, k) + _rebuild(seq, tabs, k + 1, j)
    if kind[0] == "cube3":
        # the covering cube takes every letter occurring 3 times in S[i..j]
        window = seq.letters[i - 1 : j]
        counts = Counter(window)
        positions = [p for p, a in enumerate(window, i) if counts[a] == 3]
        size = len(positions) // 3
        root = tuple(seq.letters[p - 1] for p in positions[:size])
        copies = (
            tuple(positions[:size]),
            tuple(positions[size : 2 * size]),
            tuple(positions[2 * size :]),
        )
        return [Block(root, 3, copies)]
    # covering square: the interval's longest square has exactly the wanted
    # length, so the generic witness already covers the required set
    want = tabs.s3.get(i, j) if kind[0] == "square3" else tabs.s2.get(i, j)
    wit = square_witness(seq, i, j)
    if wit is None or wit.total_length != want:
        raise AssertionError("square witness does not match covered-square entry")
    return [wit.blocks[0]]


def lsrs_plus3(seq: Sequence, q2: IntervalTable | None = None) -> Plus3Result:
    """Longest repeat subsequence covering the whole alphabet, at occurrence bound 3.

    Returns infeasible (length -1) when any letter occurs exactly once
    or when no covering solution exists.
    """
    index = precheck(seq)
    n = seq.n
    if n == 0:
        return Plus3Result(True, 0, SrsDecomposition(()))
    if index.singletons():
        return Plus3Result(False, -1, None)
    tabs = feasibility_tables(seq, q2=q2)
    best = tabs.length.get(1, n)
    if best <= 0:
        return Plus3Result(False, -1, None)
    blocks = _rebuild(seq, tabs, 1, n)
    dec = merge_blocks(SrsDecomposition(tuple(blocks)))
    check_decomposition(seq, dec, best, frozenset(range(seq.alphabet_size)))
    return Plus3Result(True, best, dec)


def ft3(seq: Sequence) -> bool:
    """Does some repeat subsequence cover the whole alphabet?"""
    return lsrs_plus3(seq).feasible
