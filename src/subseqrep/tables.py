"""All-substrings longest-square and longest-cubic tables.

For every interval [i, j] of the input, ``square_table`` stores the
length of the longest square subsequence (0 if none) and ``cube_table``
the longest cubic one.  Both run one all-prefix LCS per cut inside each
suffix, so a single DP pass fills a whole row of end points:

  square: for suffix start s and cut m, LCS(S[s..m], S[m+1..n])
          against every prefix of the second part covers Q[s, m+k].
  cube:   same with cut pairs (c1, c2) and the 3-way engine.

That is O(n^4) total for squares and O(n^6) for cubes in the worst case.

A square row built without kept vectors (no ``pre``, see below) runs
each cut only over the end points it can still raise: LCS(S[s..m],
S[m+1..j]) is at most B(s, m), the sum over letters of min(count in
S[s..m], count in S[m+1..n]), and the row never decreases along j, so
cut m stops at the first end point whose cell already holds 2*B(s, m),
and is skipped when that is its first.  B moves by at most one per
cut, so it costs O(1) to track.  With ``pre`` every cut runs to the
end of the row, because the cube rows and witnesses read its whole
vector.

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
the floor keeps the thresholds high, and the screen skips most of the
3-way DPs of ``lsrs``'s rows.  ``cube_table`` leaves it out, because
acceptance criterion 6 fits its slope to the full table's times, and a
faster table at n = 32 lowers that slope toward the criterion's floor
of 4.5.

Witnesses are rebuilt on demand per interval -- storing tracebacks for
all O(n^2) intervals would dwarf the tables themselves.  They take no
shared state: each builds the 2-way vectors of its own interval.  Each
is validated by ``check_decomposition``, its length included, before
it is returned, so a caller never sees a witness that fails the check.
``cube_witness`` files its cut pairs by bound = min(LCS(a, b), LCS(a, c))
and visits them from the highest bound, keeping the pair with the
largest key (root, -c1, -c2): the longest root at the smallest (c1, c2),
which is what an index-order scan returns.  No root exceeds its pair's
bound, so a pair whose (bound, -c1, -c2) is not above the best key
cannot replace it, and neither can any later pair of the same bound
(their keys fall along the list) or of a lower bound once that bound is
below the best root.

A pair that passes that test runs no 3-way DP.  It only needs to know
whether its root beats the best key, and the root when it does, so it
asks a threshold kernel (``_CutPairKernel``) whether LCS(a, b, c)
exceeds t: the best root, or one less when the pair's cuts come first
at a tie.  The kernel alone decides the pair: it refutes it at once
when LCS(a, b), LCS(a, c) or LCS(b, c) is at most t, and otherwise grows
levels of Pareto-minimal match states, the dominant points of Hakata &
Imai (ISAAC 1992), through a next-occurrence table, and drops every
state whose depth plus the pairwise suffix bound of Wang, Korkin & Shang
(IEEE TKDE 2011) does not exceed t.  LCS(a, b) comes from the kernel's
``lcs2_cut_prefixes(w, 0)``, the rest from one family of bit-parallel
rows, built on first use and kept for the one search; the bucketing
reads the same.  The rows run the private ``_bit_parallel_row``
directly, so the ``lcs`` call counts of a trace do not see them, as
they do not see the rows inside ``lcs2_cut_prefixes``.

``check_no_longer_cube`` proves a root longest with the kernel alone: it
asks ``above`` of every cut pair of the kernel's word at that root.  So
it holds for the kernel of any interval, whatever order, stop test or
screens the search uses; like the search, it trusts the kernel.  After
the search it builds no row: every pair whose bucket bound exceeds the
root was asked at a threshold at most the root, and the states a pair
keeps at a higher threshold are among those it keeps at a lower one.

The prefix vectors pre[s] are ``lcs2_cut_prefixes(letters, s)``, the
same 2-way rows the square table computes.  ``square_table`` stores them
in a ``pre`` list when given one; ``lsrs`` hands such a list to its cube
rows, so ``analyze`` builds them once per sequence; ``cube_table``
shares one list among its rows.
Without the list the square table keeps none of them, which keeps its
memory O(n^2).
"""

from __future__ import annotations

from bisect import bisect_left

from .core import Block, Sequence, SrsDecomposition, check_decomposition
from .lcs import (
    _bit_parallel_row,
    lcs2_all_prefixes,
    lcs2_cut_prefixes,
    lcs2_witness,
    lcs3_all_prefixes,
    lcs3_witness,
)


class IntervalTable:
    """Triangular map (i, j) -> value for 1 <= i <= j <= n."""

    __slots__ = ("n", "kind", "rows")

    def __init__(self, n: int, kind: str, fill=0):
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


def _check_given_table(seq: Sequence, table: IntervalTable, kind: str) -> None:
    """Raise ValueError unless ``table`` has ``kind`` and ``seq``'s length."""
    if table.kind != kind or table.n != seq.n:
        raise ValueError(
            f"a {table.kind} table of n = {table.n} given where the {kind} table "
            f"of this sequence (n = {seq.n}) is needed"
        )


def _square_row(
    letters: tuple[int, ...], s: int, pre: list | None, counts: list[int]
) -> list[int]:
    """Row s of the square table: Q2[s, j] at index j - s.

    With ``pre`` the cut vectors of start s come from, and stay in,
    ``pre[s - 1]`` (see ``_cut_vectors``), and every cut covers the whole
    row: the cube rows and witnesses read the whole vectors, so a cut
    cannot stop early.  Without it each cut runs its own 2-way pass only
    up to the first end point that already holds 2*B(s, m) (see the
    module docstring) and nothing is kept; ``counts[a]`` is then the
    number of times letter a occurs in S[s..n], and is not changed.
    """
    n = len(letters)
    best = [0] * (n - s + 1)
    if pre is None:
        right = list(counts)
        left = [0] * len(right)
        bound = 0  # 2 * B(s, m)
    else:
        vectors = _cut_vectors(pre, letters, s - 1)
    for m in range(s, n):
        base = m - s
        if pre is None:
            # S[m] moves to the left part: its letter's min(held, rest)
            # becomes min(held + 1, rest - 1)
            x = letters[m - 1]
            held = left[x]
            rest = right[x]
            if held < rest - 1:
                bound += 2
            elif held >= rest:
                bound -= 2
            left[x] = held + 1
            right[x] = rest - 1
            stop = bisect_left(best, bound, base + 1)
            if stop == base + 1:
                continue
            f = lcs2_all_prefixes(letters[s - 1 : m], letters[m : m + stop - base - 1])
        else:
            f = vectors[base]
            stop = n - s + 1
        for k in range(1, stop - base):
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
    counts = [0] * seq.alphabet_size
    for x in letters:
        counts[x] += 1
    table = IntervalTable(seq.n, "square")
    rows = table.rows = []
    for s, x in enumerate(letters, 1):
        rows.append(_square_row(letters, s, pre, counts))
        counts[x] -= 1
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
    then runs an LCS traceback across it.  The witness is validated
    (``check_decomposition``, length included) before it is returned.
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
    dec = SrsDecomposition((Block(tuple(word), 2, (copy1, copy2)),))
    return check_decomposition(seq, dec, 2 * best_val)


def cube_witness(seq: Sequence, i: int, j: int) -> SrsDecomposition | None:
    """Single exponent-3 block of length Q3[i, j], or None when that is 0.

    Ties broken by the smallest (c1, c2) cut pair.  The pairs run
    best-first on the bound min(LCS(a, b), LCS(a, c)); see the module
    docstring for why that returns the index-order scan's pair.  The
    witness is validated by ``cube_search`` before it is returned.
    """
    return cube_search(seq, i, j)[0]


def cube_search(
    seq: Sequence, i: int, j: int
) -> tuple[SrsDecomposition | None, _CutPairKernel]:
    """``cube_witness(seq, i, j)`` and the threshold kernel its search built.

    The kernel holds the cut vectors of S[i..j] and keeps every row it
    built; ``check_no_longer_cube(kernel, root)`` proves the witness
    longest with it.  The witness is validated (``check_decomposition``,
    length included) before it is returned.
    """
    _bounds_check(seq, i, j)
    letters = seq.letters
    kernel = _CutPairKernel(letters[i - 1 : j])
    # pairs[r]: the cut pairs with bound min(LCS(a, b), LCS(a, c)) = r > 0,
    # in (c1, c2) order, with ac[j - c2] = LCS(a, S[c2+1..j]); no bound
    # exceeds a third of the interval.  The lists run c1, c2, c1, c2, ...:
    # a tuple per pair raised the peak memory of n = 32 queries by 0.1 MiB.
    pairs = [[] for _ in range((j - i + 1) // 3 + 1)]
    for c1 in range(i, j - 1):
        ab = kernel.cuts[c1 - i]
        ac = kernel.row(c1 - i + 1, 0)
        bounds = map(min, ab[1 : j - c1], ac[j - c1 - 1 : 0 : -1])
        for c2, r in enumerate(bounds, c1 + 1):
            if r:
                pairs[r] += c1, c2
    # a pair replaces the best only when its key (root, -c1, -c2) is
    # larger; (0, 0) stands for no cube, above every pair's root-0 key
    best = (0, 0)
    for bound in range(len(pairs) - 1, 0, -1):
        if bound < best[0]:
            break
        flat = iter(pairs[bound])
        for c1, c2 in zip(flat, flat):
            # keys fall along the list, and no root exceeds its bound
            if (bound, -c1, -c2) <= best:
                break
            # the root this pair must exceed to win: one less than the
            # best root when the pair's cuts come first at a tie
            t = best[0] - 1 if (best[0], -c1, -c2) > best else best[0]
            root = kernel.above(c1 - i + 1, c2 - i + 1, t)
            if root is not None:
                best = (root, -c1, -c2)
    if best == (0, 0):
        return None, kernel
    c1, c2 = -best[1], -best[2]
    word, pa, pb, pc = lcs3_witness(
        letters[i - 1 : c1], letters[c1:c2], letters[c2:j]
    )
    copies = (
        tuple(i - 1 + p for p in pa),
        tuple(c1 + p for p in pb),
        tuple(c2 + p for p in pc),
    )
    dec = SrsDecomposition((Block(tuple(word), 3, copies),))
    return check_decomposition(seq, dec, 3 * best[0]), kernel


class _CutPairKernel:
    """LCS(w[:cut1], w[cut1:cut2], w[cut2:]) of one word w, above a threshold.

    Positions are 0-based in w (``cube_search`` passes S[i..j]).  The
    state is built once per search and read by every cut pair of it:

      - ``nexts``, one list per letter that occurs 3 times or more in w
        (no other can be in a common subsequence of a, b and c): nxt[u]
        is the first position >= u that holds the letter, or len(w) if
        none does;
      - ``masks[x]`` has bit len(w) - 1 - u set wherever w[u] == x;
      - ``cuts = lcs2_cut_prefixes(w, 0)``: cuts[cut1 - 1][cut2 - cut1]
        = LCS(w[:cut1], w[cut1:cut2]) for every cut pair;
      - ``row(end, start)[k]`` = LCS(w[start:end], w[len(w) - k:]) for
        0 <= k <= len(w) - end, one bit-parallel row built on first use
        and kept.  With end = cut1 it bounds the rest of a against the
        rest of c, with end = cut2 the rest of b against it.
    """

    __slots__ = ("size", "nexts", "masks", "rev", "rows", "cuts")

    def __init__(self, w: tuple[int, ...]):
        size = self.size = len(w)
        masks = self.masks = {}
        for u, x in enumerate(w):
            masks[x] = masks.get(x, 0) | 1 << (size - 1 - u)
        self.nexts = []
        for x, m in masks.items():
            if m.bit_count() < 3:
                continue
            nxt = [size] * (size + 1)
            for u in range(size - 1, -1, -1):
                nxt[u] = u if w[u] == x else nxt[u + 1]
            self.nexts.append(nxt)
        self.rev = w[::-1]
        # rows[end][start], None until built
        self.rows = [[None] * (end + 1) for end in range(size + 1)]
        self.cuts = lcs2_cut_prefixes(w, 0)

    def _build(self, end: int, start: int) -> list[int]:
        shift = self.size - end
        full = (1 << (end - start)) - 1
        # the word is w[start:end] reversed, matched against w[end:] reversed
        match = {x: (m >> shift) & full for x, m in self.masks.items()}
        row = self.rows[end][start] = _bit_parallel_row(end - start, match, self.rev[:shift])
        return row

    def row(self, end: int, start: int) -> list[int]:
        return self.rows[end][start] or self._build(end, start)

    def above(self, cut1: int, cut2: int, t: int) -> int | None:
        """The 3-way LCS of the cut pair if it exceeds t, else None.

        The root is no longer than LCS(a, b), LCS(a, c) or LCS(b, c), so
        the pair is refuted at once when any of them is at most t, tested
        in that order: ``cuts``, then rows (cut1, 0) and (cut2, cut1).
        Otherwise level d holds the Pareto-minimal states (p, q, r)
        reached by a common subsequence of length d: the next unread
        positions in a, b and c (Hakata & Imai's dominant points).  A
        state is stepped by each letter to its next occurrence in all
        three parts, and kept only if d plus min(LCS(a[p:], c[r:]),
        LCS(b[q:], c[r:])) exceeds t (the pairwise suffix bound of Wang,
        Korkin & Shang).  A state on a longest path is kept or dominated
        by a kept one whenever that LCS exceeds t, so the last non-empty
        level is the LCS then, and at most t otherwise.
        """
        k = self.size - cut2
        if self.cuts[cut1 - 1][cut2 - cut1] <= t or self.row(cut1, 0)[k] <= t:
            return None
        if self.row(cut2, cut1)[k] <= t:
            return None
        last = self.size - 1
        a_rows = self.rows[cut1]
        b_rows = self.rows[cut2]
        build = self._build
        nexts = self.nexts
        level = [(0, cut1, cut2)]
        depth = 0
        while level:
            depth += 1
            grown = []
            for p, q, r in level:
                for nxt in nexts:
                    p1 = nxt[p]
                    if p1 >= cut1:
                        continue
                    q1 = nxt[q]
                    if q1 >= cut2:
                        continue
                    r1 = nxt[r]
                    if r1 > last:
                        continue
                    k = last - r1
                    p1 += 1
                    q1 += 1
                    if depth + (a_rows[p1] or build(cut1, p1))[k] <= t:
                        continue
                    if depth + (b_rows[q1] or build(cut2, q1))[k] <= t:
                        continue
                    grown.append((p1, q1, r1 + 1))
            grown.sort()
            level = []
            for state in grown:
                _, q, r = state
                for _, q0, r0 in level:
                    if q0 <= q and r0 <= r:
                        break
                else:
                    level.append(state)
        depth -= 1
        return depth if depth > t else None


def check_no_longer_cube(kernel: _CutPairKernel, root: int) -> None:
    """Raise AssertionError unless no cube root of the kernel's word exceeds ``root``.

    Asks ``kernel.above(c1, c2, root)`` of every cut pair of the word,
    so it holds for the kernel of any interval.  After ``cube_search``
    with the root of its witness, every row it reads is built.
    """
    size = kernel.size
    for c1 in range(1, size - 1):
        for c2 in range(c1 + 1, size):
            got = kernel.above(c1, c2, root)
            if got is not None:
                raise AssertionError(
                    f"a cube root longer than {root} lies in cut pair ({c1}, {c2}): "
                    f"its root is {got}"
                )
