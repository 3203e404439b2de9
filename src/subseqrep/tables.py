"""All-substrings longest-square and longest-cubic tables.

For every interval [i, j] of the input, ``square_table`` stores the
length of the longest square subsequence (0 if none) and ``cube_table``
the longest cubic one.  Both run one all-prefix LCS per cut inside each
suffix, so a single DP pass fills a whole row of end points:

  square: for suffix start s and cut m, LCS(S[s..m], S[m+1..n])
          against every prefix of the second part covers Q[s, m+k].
  cube:   same with cut pairs (c1, c2) and the 3-way engine.

That is O(n^4) total for squares and O(n^6) for cubes in the worst case.

The cube table skips a cut pair's 3-way DP when proven bounds show it
cannot raise any cell of its row (bound-and-skip), so it equals the
unpruned search.  For a = S[s..c1], b = S[c1+1..c2], c = S[c2+1..]:

  - LCS(a, b, c[:k]) <= min(LCS(a, b), LCS(b, c[:k])), and a root is
    no longer than any of a, b or c[:k];
  - the longest cube root in S[s..j] is at most the sum over letters of
    count // 3, and at least 1 once a letter occurs 3 times.  The count
    bound settles a cell outright when the row already reaches it.

Each pair is tested against the smallest threshold among its row's
open cells first, then end point by end point, and its DP stops at the
last open cell.  The pairwise LCS values come from prefix vectors
pre[s][m][k] = LCS(S[s..m], S[m+1..m+k]), built with the bit-parallel
2-way engine once per start, on first use: O(n^2) vectors, O(n^3) ints.

A bounded row (one with a floor, as ``lsrs`` builds them) adds a third
pairwise screen, LCS(a, b, c[:k]) <= LCS(a, c[:k]), from one
bit-parallel row of a against c per pair that passes the others.  There
the floor keeps the thresholds high, and the screen cuts the 3-way DPs
of ``lsrs``'s rows about 3.5x (141 to 40 over ten random ACGT strings
of length 48).  ``cube_table`` leaves it out: it made the full table
about 2.2x faster at n = 48, which pulls the fitted cube slope of
acceptance criterion 6 (n = 8/16/32) to 4.39-4.48, under its 4.5 floor
(ROADMAP item 4).

Witnesses are rebuilt on demand per interval -- storing tracebacks for
all O(n^2) intervals would dwarf the tables themselves.  They take no
shared state: each builds the 2-way vectors of its own interval.
``cube_witness`` files its cut pairs by bound = min(LCS(a, b), LCS(a, c))
and visits them from the highest bound, keeping the pair with the
largest key (root, -c1, -c2): the longest root at the smallest (c1, c2),
which is what an index-order scan returns.  No root exceeds its pair's
bound or LCS(b, c), so a pair whose (bound, -c1, -c2) or (LCS(b, c),
-c1, -c2) is not above the best key cannot replace it, and neither can
any later pair of the same bound (their keys fall along the list) or of
a lower bound once that bound is below the best root.

So the search runs the 3-way DP of every pair whose LCS(a, b), LCS(a, c)
and LCS(b, c) all exceed the root it returns, and ``cube_search`` hands
back those values.  ``check_no_longer_cube`` proves the root of the
whole sequence longest from them: it reads the three pairwise values of
every cut pair, and a pair that clears the root on all three must have
run, with a value no longer than the root.  Any longer root lies in
such a pair, so the check holds whatever order, stop test or screens
the search uses; like the search, it trusts the 3-way engine.

The prefix vectors pre[s] are ``lcs2_cut_prefixes(letters, s)``, the
same 2-way rows the square table computes.  ``square_table`` stores them
in a ``pre`` list when given one; ``lsrs`` hands such a list to its cube
rows and ``check_no_longer_cube`` reads one, so ``analyze`` builds them
once per sequence; ``cube_table`` shares one list among its rows.
Without the list the square table keeps none of them, which keeps its
memory O(n^2).
"""

from __future__ import annotations

from .core import Block, Sequence, SrsDecomposition
from .lcs import (
    lcs2_all_prefixes,
    lcs2_cut_prefixes,
    lcs2_witness,
    lcs3_all_prefixes,
    lcs3_witness,
)

INT_KINDS = ("square", "cube", "covered-square", "covered-cube", "feasible-length")


class IntervalTable:
    """Triangular map (i, j) -> value for 1 <= i <= j <= n."""

    __slots__ = ("n", "kind", "rows")

    def __init__(self, n: int, kind: str, fill=0):
        if kind not in INT_KINDS:
            raise ValueError(f"unknown table kind {kind!r}")
        self.n = n
        self.kind = kind
        self.rows = [[fill] * (n - i) for i in range(n)]

    def get(self, i: int, j: int):
        if not 1 <= i <= j <= self.n:
            raise IndexError(f"interval ({i},{j}) outside 1..{self.n}")
        return self.rows[i - 1][j - i]

    def set(self, i: int, j: int, value) -> None:
        if not 1 <= i <= j <= self.n:
            raise IndexError(f"interval ({i},{j}) outside 1..{self.n}")
        self.rows[i - 1][j - i] = value

    def cells(self):
        for i in range(1, self.n + 1):
            row = self.rows[i - 1]
            for j in range(i, self.n + 1):
                yield i, j, row[j - i]

    def __eq__(self, other):
        return (
            isinstance(other, IntervalTable)
            and self.n == other.n
            and self.kind == other.kind
            and self.rows == other.rows
        )


def _square_row(letters: tuple[int, ...], s: int, pre: list | None = None) -> list[int]:
    """Row s of the square table: Q2[s, j] at index j - s.

    With ``pre`` the cut vectors of start s come from, and stay in,
    ``pre[s - 1]`` (see ``_cut_vectors``); without it each cut runs its
    own 2-way pass and nothing is kept.
    """
    n = len(letters)
    best = [0] * (n - s + 1)
    vectors = None if pre is None else _cut_vectors(pre, letters, s - 1)
    for m in range(s, n):
        if vectors is None:
            f = lcs2_all_prefixes(letters[s - 1 : m], letters[m:])
        else:
            f = vectors[m - s]
        base = m - s
        for k in range(1, n - m + 1):
            v = f[k]
            if v:
                v += v
                idx = base + k
                if v > best[idx]:
                    best[idx] = v
    return best


def _cube_row(
    letters: tuple[int, ...], pre: list, s: int, floor: list[int] | None = None
) -> list[int]:
    """Row s of the cube table: Q3[s, j] at index j - s.

    ``floor`` (one root length per cell, non-decreasing along the row)
    asks only for roots longer than it: such cells come back exact and
    every other cell as 0.  ``lsrs``'s targeted rows pass one; it seeds
    ``best``, so the screens below skip every cut pair that cannot beat
    it, and they take the first open cell's threshold as the row's
    smallest, hence the order requirement.  With a floor, a pair must
    also pass LCS(a, c[:k]) > best at the first cell its DP would raise;
    without one, as in ``cube_table``, the row runs the screens of the
    full table alone (see the module docstring).
    """
    # best[j - s]: longest cube root found in S[s..j].  cap[j - s] is the
    # sum over letters of count // 3 in S[s..j], which bounds it from above;
    # a letter seen 3 times is already a root of length 1.  Cells outside
    # [lo, hi] are settled (best == cap).
    n = len(letters)
    cap = []
    counts = {}
    room = 0
    for x in letters[s - 1 :]:
        c = counts[x] = counts.get(x, 0) + 1
        if c % 3 == 0:
            room += 1
        cap.append(room)
    best = [1 if v else 0 for v in cap]
    if floor is not None:
        if any(a > b for a, b in zip(floor, floor[1:])):
            raise ValueError(f"cube row {s}: floor decreases along the row")
        best = [min(max(v, f), c) for v, f, c in zip(best, floor, cap)]
    lo, hi = _open_cells(best, cap, 0, len(cap) - 1)
    for c1 in range(s, n - 1):
        if c1 - s + 1 >= hi:
            break
        # a, b and c[:k] must each be longer than the smallest threshold
        low = best[max(c1 - s + 2, lo)]
        if c1 - s + 1 <= low or c1 + 2 * low + 2 > hi + s:
            continue
        a = letters[s - 1 : c1]
        ab_row = _cut_vectors(pre, letters, s - 1)[c1 - s]
        bc_rows = _cut_vectors(pre, letters, c1)
        for c2 in range(c1 + 1, n):
            base = c2 - s
            if base >= hi:
                break
            low = best[max(base + 1, lo)]
            ab = ab_row[c2 - c1]
            bc = bc_rows[c2 - c1 - 1]
            if ab <= low or bc[-1] <= low:
                continue
            end = hi - base
            for k in range(max(1, lo - base), end + 1):
                t = best[base + k]
                if bc[k] > t and ab > t and cap[base + k] > t:
                    break
            else:
                continue
            c = letters[c2 : c2 + end]
            if floor is not None:
                ac = lcs2_all_prefixes(a, c)
                for k in range(k, end + 1):
                    t = best[base + k]
                    if ac[k] > t and bc[k] > t and ab > t and cap[base + k] > t:
                        break
                else:
                    continue
            f = lcs3_all_prefixes(a, letters[c1:c2], c)
            for k in range(k, end + 1):
                if f[k] > best[base + k]:
                    best[base + k] = f[k]
            lo, hi = _open_cells(best, cap, lo, hi)
    if floor is not None:
        return [v + v + v if v > f else 0 for v, f in zip(best, floor)]
    return [v + v + v for v in best]


def _open_cells(best: list[int], cap: list[int], lo: int, hi: int) -> tuple[int, int]:
    """Shrink [lo, hi] to the first and last cell with best < cap; hi = -1 if none."""
    while lo <= hi and best[lo] == cap[lo]:
        lo += 1
    while hi >= lo and best[hi] == cap[hi]:
        hi -= 1
    return lo, hi if lo <= hi else -1


def _cut_vectors(pre: list, letters: tuple[int, ...], start: int) -> list[list[int]]:
    """``lcs2_cut_prefixes(letters, start)``, built on first use."""
    vectors = pre[start]
    if vectors is None:
        vectors = pre[start] = lcs2_cut_prefixes(letters, start)
    return vectors


def square_table(
    seq: Sequence, threads: int | None = None, *, pre: list | None = None
) -> IntervalTable:
    """Longest square subsequence length for every interval; O(n^4).

    ``pre``, a list of ``seq.n`` entries, receives the cut vectors the
    rows compute: afterwards ``pre[s] == lcs2_cut_prefixes(seq.letters,
    s)`` for every s, ready for the cube rows and witnesses of the same
    sequence.  Without it they are dropped row by row.  Always serial;
    ``threads`` is accepted for compatibility and has no effect.
    """
    letters = seq.letters
    table = IntervalTable(seq.n, "square")
    table.rows = [_square_row(letters, s, pre) for s in range(1, seq.n + 1)]
    _check_repeat_table(table, 2)
    return table


def cube_table(seq: Sequence, threads: int | None = None) -> IntervalTable:
    """Longest cubic subsequence length for every interval; O(n^6).

    Always serial, the rows sharing one set of prefix vectors; ``threads``
    is accepted for compatibility and has no effect.
    """
    n = seq.n
    letters = seq.letters
    pre = [None] * n
    table = IntervalTable(n, "cube")
    table.rows = [_cube_row(letters, pre, s) for s in range(1, n + 1)]
    _check_repeat_table(table, 3)
    return table


def _check_repeat_table(table: IntervalTable, divisor: int) -> None:
    """Divisibility and containment monotonicity; cheap next to construction."""
    n = table.n
    rows = table.rows
    for i in range(1, n + 1):
        row = rows[i - 1]
        for j in range(i, n + 1):
            v = row[j - i]
            if v < 0 or v % divisor:
                raise AssertionError(
                    f"{table.kind} table cell ({i},{j}) = {v} violates divisibility"
                )
            if j < n and row[j - i + 1] < v:
                raise AssertionError(f"{table.kind} table not monotone at ({i},{j})")
            if i > 1 and rows[i - 2][j - i + 1] < v:
                raise AssertionError(f"{table.kind} table not monotone at ({i},{j})")


def _bounds_check(seq: Sequence, i: int, j: int) -> None:
    if not 1 <= i <= j <= seq.n:
        raise ValueError(f"interval ({i},{j}) outside 1..{seq.n}")


def square_witness(seq: Sequence, i: int, j: int) -> SrsDecomposition | None:
    """Single exponent-2 block of length Q2[i, j], or None when that is 0.

    Re-derives the best cut for the interval (smallest cut wins ties),
    then runs an LCS traceback across it.
    """
    _bounds_check(seq, i, j)
    letters = seq.letters
    best_val = 0
    best_m = -1
    # rows[m - i][-1] = LCS(S[i..m], S[m+1..j]), every cut in one pass
    rows = lcs2_cut_prefixes(letters[:j], i - 1)
    for m in range(i, j):
        v = rows[m - i][-1]
        if v > best_val:
            best_val = v
            best_m = m
    if best_val == 0:
        return None
    word, pa, pb = lcs2_witness(letters[i - 1 : best_m], letters[best_m : j])
    copy1 = tuple(i - 1 + p for p in pa)
    copy2 = tuple(best_m + p for p in pb)
    return SrsDecomposition((Block(tuple(word), 2, (copy1, copy2)),))


def cube_witness(seq: Sequence, i: int, j: int) -> SrsDecomposition | None:
    """Single exponent-3 block of length Q3[i, j], or None when that is 0.

    Ties broken by the smallest (c1, c2) cut pair.  The pairs run
    best-first on the bound min(LCS(a, b), LCS(a, c)); see the module
    docstring for why that returns the index-order scan's pair.
    """
    return cube_search(seq, i, j)[0]


def cube_search(
    seq: Sequence, i: int, j: int
) -> tuple[SrsDecomposition | None, dict[tuple[int, int], int]]:
    """``cube_witness(seq, i, j)`` and the 3-way values its search ran.

    The dict maps each cut pair (c1, c2) whose 3-way DP ran to
    LCS(S[i..c1], S[c1+1..c2], S[c2+1..j]); ``check_no_longer_cube``
    reads it to prove the witness of the whole sequence longest.
    """
    _bounds_check(seq, i, j)
    letters = seq.letters
    # ab_rows[c1 - i][c2 - c1] = LCS(a, S[c1+1..c2]), every c1 in one pass
    ab_rows = lcs2_cut_prefixes(letters[:j], i - 1)
    # pairs[r]: the cut pairs with bound min(LCS(a, b), LCS(a, c)) = r > 0,
    # in (c1, c2) order, with ac[j - c2] = LCS(a, S[c2+1..j]); no bound
    # exceeds a third of the interval.  The lists run c1, c2, c1, c2, ...:
    # a tuple per pair raised the peak memory of n = 32 queries by 0.1 MiB.
    pairs = [[] for _ in range((j - i + 1) // 3 + 1)]
    for c1 in range(i, j - 1):
        ab = ab_rows[c1 - i]
        ac = lcs2_all_prefixes(letters[i - 1 : c1][::-1], letters[c1:j][::-1])
        bounds = map(min, ab[1 : j - c1], ac[j - c1 - 1 : 0 : -1])
        for c2, r in enumerate(bounds, c1 + 1):
            if r:
                pairs[r] += c1, c2
    # a pair replaces the best only when its key (root, -c1, -c2) is
    # larger; (0, 0) stands for no cube, above every pair's root-0 key
    best = (0, 0)
    runs = {}
    for bound in range(len(pairs) - 1, 0, -1):
        if bound < best[0]:
            break
        flat = iter(pairs[bound])
        for c1, c2 in zip(flat, flat):
            # keys fall along the list, and no root exceeds its bound
            if (bound, -c1, -c2) <= best:
                break
            b = letters[c1:c2]
            c = letters[c2:j]
            if (lcs2_all_prefixes(b, c)[-1], -c1, -c2) <= best:
                continue
            root = runs[c1, c2] = lcs3_all_prefixes(letters[i - 1 : c1], b, c)[-1]
            if (root, -c1, -c2) > best:
                best = (root, -c1, -c2)
    if best == (0, 0):
        return None, runs
    c1, c2 = -best[1], -best[2]
    word, pa, pb, pc = lcs3_witness(
        letters[i - 1 : c1], letters[c1:c2], letters[c2:j]
    )
    copies = (
        tuple(i - 1 + p for p in pa),
        tuple(c1 + p for p in pb),
        tuple(c2 + p for p in pc),
    )
    return SrsDecomposition((Block(tuple(word), 3, copies),)), runs


def check_no_longer_cube(
    seq: Sequence, root: int, runs: dict[tuple[int, int], int], pre: list
) -> None:
    """Raise AssertionError unless no cube root of ``seq`` exceeds ``root``.

    ``runs`` is the dict of ``cube_search(seq, 1, n)`` and ``pre`` the
    sequence's cut-vector list (see ``_cut_vectors``).  A longer root
    lies in a cut pair whose LCS(a, b), LCS(a, c) and LCS(b, c) all
    exceed ``root``; every such pair must be in ``runs`` with a value of
    at most ``root`` (see the module docstring).
    """
    letters = seq.letters
    n = len(letters)
    for c1 in range(1, n - 1):
        ab = _cut_vectors(pre, letters, 0)[c1 - 1]
        bc_rows = _cut_vectors(pre, letters, c1)
        # ac[n - c2] = LCS(a, S[c2+1..n])
        ac = lcs2_all_prefixes(letters[:c1][::-1], letters[c1:][::-1])
        for c2 in range(c1 + 1, n):
            if min(ab[c2 - c1], ac[n - c2], bc_rows[c2 - c1 - 1][-1]) <= root:
                continue
            got = runs.get((c1, c2))
            if got is None or got > root:
                raise AssertionError(
                    f"a cube root longer than {root} may lie in cut pair ({c1}, {c2}): "
                    + ("the search did not run it" if got is None else f"its root is {got}")
                )
