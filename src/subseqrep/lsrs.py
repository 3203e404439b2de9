"""Longest subsequence-repeated subsequence solver.

Any optimal repeat decomposition can be renormalized so every block
exponent is 2 or 3 (split d >= 4 into 2s and 3s, allowing equal adjacent
roots).  The prefix optimum therefore satisfies

    L(i) = max( L(j) + Q2[j+1, i]   over j < i-1,
                L(j) + Q3[j+1, i]   over j < i-2 ),   L(0) = L(1) = 0,

where Q2/Q3 are the all-substrings square and cube tables.  With the
full cube table the solve is O(n^6).

Without a cube table passed in, only the cube cells the DP can pick are
built.  With root r in cell (s, i), the cube term at j = s - 1 becomes
the first argmax only if

  (a) 3r > Q2[s, i]: the square at the same j is tried first and the
      argmax needs a strict gain, so r > Q2[s, i] // 3;
  (b) L(s-1) + 3r >= L_sq(i), where L_sq is the DP above over squares
      alone, an O(n^2) lower bound on L(i): so r > ceil((L_sq(i) -
      L(s-1)) / 3) - 1.

Both floors are non-decreasing in i, as ``tables._cube_row`` needs.  A
cell at or below its floor is stored as 0, which the square at the same
j always matches first, so values, picks and tie-breaks equal the
full-table solve.  Floor (b) needs the exact L(s-1), not a bound on it,
so row s is built in ascending order just before prefix s + 2, the first
that reads it, when L(s-1) is final.  The zeros break containment
monotonicity, so this partial table stays inside ``lsrs``.

The traceback stores the best (j, block kind) per prefix; blocks are
rebuilt with the on-demand interval witnesses and re-merged into
canonical form (adjacent equal roots combined).
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Sequence, SrsDecomposition, check_decomposition, merge_blocks
from .tables import IntervalTable, _cube_row, cube_witness, square_table, square_witness


@dataclass(frozen=True)
class LsrsResult:
    length: int
    decomposition: SrsDecomposition
    prefix_values: tuple[int, ...]


def lsrs(
    seq: Sequence,
    threads: int | None = None,
    q2: IntervalTable | None = None,
    q3: IntervalTable | None = None,
    *,
    pre: list | None = None,
) -> LsrsResult:
    """Optimal repeat-subsequence length for ``seq`` plus one witness.

    Ties in the argmax go to the smallest j, square before cube, so the
    witness is deterministic.  Blocks whose table entry is 0 are never
    materialized; such a j only forwards L(j).  Without ``q3`` only the
    cube cells the DP can pick are built; a ``q3`` passed in is read as
    it is.  ``pre`` is the sequence's cut-vector list, as ``square_table``
    fills it (``analyze`` passes the one its cube check reads); the
    targeted cube rows read it, and without it they share one of their
    own.  The interval witnesses of the traceback take no shared state.
    Each block is validated by the witness function that builds it and
    the merged decomposition once more, because only the second check
    sees the order across blocks, merged equal roots and the total length.
    ``threads`` is accepted for compatibility and has no effect.
    """
    n = seq.n
    if pre is None:
        pre = [None] * n
    if q2 is None:
        q2 = square_table(seq, pre=pre)
    rows2 = q2.rows
    if q3 is not None:
        rows3 = q3.rows
        for s in range(1, n + 1):
            _check_two_thirds(rows2[s - 1], rows3[s - 1], s)
    else:
        rows3 = []
        bound = _square_prefix_values(rows2)

    values = [0] * (n + 1)
    picks: list[tuple[int, str | None]] = [(0, None)] * (n + 1)
    for i in range(2, n + 1):
        if q3 is None and i > 2:
            # row s is first read here, and L(s - 1) is final by now
            s = i - 2
            row2 = rows2[s - 1]
            prefix = values[s - 1]  # L(s - 1)
            floor = [
                max(row2[d] // 3, -((prefix - bound[s + d]) // 3) - 1, 0)
                for d in range(n - s + 1)
            ]
            rows3.append(_cube_row(seq.letters, pre, s, floor))
            _check_two_thirds(row2, rows3[-1], s)
        best = -1
        pick: tuple[int, str | None] = (0, None)
        for j in range(i - 1):
            sq = rows2[j][i - j - 1]
            v = values[j] + sq
            if v > best:
                best = v
                pick = (j, "square" if sq else None)
            if j < i - 2:
                cu = rows3[j][i - j - 1]
                v = values[j] + cu
                if v > best:
                    best = v
                    pick = (j, "cube" if cu else None)
        values[i] = best
        picks[i] = pick
        if best < values[i - 1]:
            raise AssertionError(f"prefix optimum decreased at {i}")

    blocks = []
    i = n
    while i >= 2:
        j, kind = picks[i]
        if kind == "square":
            wit = square_witness(seq, j + 1, i)
            blocks.append(wit.blocks[0])
        elif kind == "cube":
            wit = cube_witness(seq, j + 1, i)
            blocks.append(wit.blocks[0])
        i = j
    blocks.reverse()
    dec = merge_blocks(SrsDecomposition(tuple(blocks)))
    check_decomposition(seq, dec, values[n])
    return LsrsResult(values[n], dec, tuple(values))


def _square_prefix_values(rows2: list[list[int]]) -> list[int]:
    """L_sq(i): the prefix DP over squares alone, a lower bound on L(i)."""
    n = len(rows2)
    values = [0] * (n + 1)
    for i in range(2, n + 1):
        values[i] = max(values[j] + rows2[j][i - j - 1] for j in range(i - 1))
    return values


def _check_two_thirds(row2: list[int], row3: list[int], s: int) -> None:
    for d, (sq, cu) in enumerate(zip(row2, row3)):
        if 3 * sq < 2 * cu:
            raise AssertionError(
                f"square table below 2/3 of cube table at ({s},{s + d})"
            )
