"""Longest subsequence-repeated subsequence solver.

Any optimal repeat decomposition can be renormalized so every block
exponent is 2 or 3 (split d >= 4 into 2s and 3s, allowing equal adjacent
roots).  The prefix optimum therefore satisfies

    L(i) = max( L(j) + Q2[j+1, i]   over j < i-1,
                L(j) + Q3[j+1, i]   over j < i-2 ),   L(0) = L(1) = 0,

where Q2/Q3 are the all-substrings square and cube tables.  Cost is
dominated by the cube table, so the whole solve is O(n^6).

The traceback stores the best (j, block kind) per prefix; blocks are
rebuilt with the on-demand interval witnesses and re-merged into
canonical form (adjacent equal roots combined).
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Sequence, SrsDecomposition, merge_blocks, validate_srs
from .tables import IntervalTable, cube_table, cube_witness, square_table, square_witness


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
) -> LsrsResult:
    """Optimal repeat-subsequence length for ``seq`` plus one witness.

    Ties in the argmax go to the smallest j, square before cube, so the
    witness is deterministic.  Blocks whose table entry is 0 are never
    materialized; such a j only forwards L(j).  ``threads`` caps the
    cube table's worker processes (see :func:`cube_table`).
    """
    n = seq.n
    if q2 is None:
        q2 = square_table(seq)
    if q3 is None:
        q3 = cube_table(seq, threads)
    for i in range(1, n + 1):
        row2, row3 = q2.rows[i - 1], q3.rows[i - 1]
        for off in range(n - i + 1):
            if 3 * row2[off] < 2 * row3[off]:
                raise AssertionError(
                    f"square table below 2/3 of cube table at ({i},{i + off})"
                )

    values = [0] * (n + 1)
    picks: list[tuple[int, str | None]] = [(0, None)] * (n + 1)
    for i in range(2, n + 1):
        best = -1
        pick: tuple[int, str | None] = (0, None)
        for j in range(i - 1):
            sq = q2.get(j + 1, i)
            v = values[j] + sq
            if v > best:
                best = v
                pick = (j, "square" if sq else None)
            if j < i - 2:
                cu = q3.get(j + 1, i)
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

    if dec.total_length != values[n]:
        raise AssertionError(
            f"witness length {dec.total_length} != optimum {values[n]}"
        )
    problems = validate_srs(seq, dec)
    if problems:
        raise AssertionError(f"witness failed validation: {problems}")
    return LsrsResult(values[n], dec, tuple(values))
