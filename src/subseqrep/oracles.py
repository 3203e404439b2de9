"""Brute-force reference solvers, kept structurally independent.

These exist to cross-check the polynomial solvers on small inputs:
interval tables by enumerating every cut with private LCS routines
(no all-prefix sharing), repeat solvers by enumerating all 2^n
subsequences and testing partitionability of the letter word.

Each oracle has a fixed length limit (``SQUARE_N``, ``CUBE_N``,
``LSRS_N``, ``LSRS_PLUS_N``) and all share ``MAX_ALPHABET``; an input
past a limit raises ``BudgetExceededError`` before any exponential
search starts.
"""

from __future__ import annotations

from functools import lru_cache

from .core import Sequence, srs_partitionable
from .tables import IntervalTable


SQUARE_N = 16
CUBE_N = 14
LSRS_N = 16
LSRS_PLUS_N = 14
MAX_ALPHABET = 16


class BudgetExceededError(Exception):
    """Input too large for a brute-force search or for the CLI's ``--max-n``
    guard; the CLI exits 3 with one ``budget exceeded: ...`` line."""


def _enforce(seq: Sequence, max_n: int, what: str) -> None:
    if seq.n > max_n:
        raise BudgetExceededError(f"{what}: length {seq.n} exceeds budget {max_n}")
    if seq.alphabet_size > MAX_ALPHABET:
        raise BudgetExceededError(
            f"{what}: alphabet size {seq.alphabet_size} exceeds budget {MAX_ALPHABET}"
        )


def _lcs2_len(a, b) -> int:
    na, nb = len(a), len(b)
    t = [[0] * (nb + 1) for _ in range(na + 1)]
    for i in range(1, na + 1):
        for j in range(1, nb + 1):
            if a[i - 1] == b[j - 1]:
                t[i][j] = t[i - 1][j - 1] + 1
            else:
                t[i][j] = max(t[i - 1][j], t[i][j - 1])
    return t[na][nb]


def _lcs3_len(a, b, c) -> int:
    na, nb, nc = len(a), len(b), len(c)
    t = [[[0] * (nc + 1) for _ in range(nb + 1)] for _ in range(na + 1)]
    for i in range(1, na + 1):
        for j in range(1, nb + 1):
            for k in range(1, nc + 1):
                if a[i - 1] == b[j - 1] == c[k - 1]:
                    t[i][j][k] = t[i - 1][j - 1][k - 1] + 1
                else:
                    t[i][j][k] = max(
                        t[i - 1][j][k], t[i][j - 1][k], t[i][j][k - 1]
                    )
    return t[na][nb][nc]


def oracle_square_table(seq: Sequence) -> IntervalTable:
    """Per interval: maximize 2*LCS over every single cut."""
    _enforce(seq, SQUARE_N, "square oracle")
    letters = seq.letters
    n = seq.n
    table = IntervalTable(n, "square")
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            best = 0
            for m in range(i, j):
                v = _lcs2_len(letters[i - 1 : m], letters[m:j])
                if v > best:
                    best = v
            table.set(i, j, 2 * best)
    return table


def oracle_cube_table(seq: Sequence) -> IntervalTable:
    """Per interval: maximize 3*LCS over every cut pair."""
    _enforce(seq, CUBE_N, "cube oracle")
    letters = seq.letters
    n = seq.n
    table = IntervalTable(n, "cube")
    for i in range(1, n + 1):
        for j in range(i + 2, n + 1):
            best = 0
            for c1 in range(i, j - 1):
                for c2 in range(c1 + 1, j):
                    v = _lcs3_len(
                        letters[i - 1 : c1], letters[c1:c2], letters[c2:j]
                    )
                    if v > best:
                        best = v
            table.set(i, j, 3 * best)
    return table


@lru_cache(maxsize=1 << 18)
def _partitionable(word: tuple[int, ...]) -> bool:
    return srs_partitionable(word)


def _normalized_subsequence(letters: tuple[int, ...], mask: int, n: int) -> tuple[int, ...]:
    """Letter word of the masked subsequence, renumbered in first-appearance order."""
    relabel: dict[int, int] = {}
    out = []
    for p in range(n):
        if mask >> p & 1:
            a = letters[p]
            code = relabel.get(a)
            if code is None:
                code = len(relabel)
                relabel[a] = code
            out.append(code)
    return tuple(out)


def oracle_lsrs(seq: Sequence) -> int:
    """Longest subsequence whose letter word splits into powers (exponent >= 2)."""
    _enforce(seq, LSRS_N, "lsrs oracle")
    letters = seq.letters
    n = seq.n
    best = 0
    for mask in range(1 << n):
        size = mask.bit_count()
        if size <= best:
            continue
        if _partitionable(_normalized_subsequence(letters, mask, n)):
            best = size
    return best


def oracle_lsrs_plus(seq: Sequence) -> int | None:
    """Same search restricted to subsequences covering the whole alphabet.

    Returns the optimum length, or None when no subsequence qualifies.
    """
    _enforce(seq, LSRS_PLUS_N, "lsrs+ oracle")
    letters = seq.letters
    n = seq.n
    full = frozenset(letters)
    best: int | None = None
    for mask in range(1 << n):
        size = mask.bit_count()
        if best is not None and size <= best:
            continue
        chosen = [letters[p] for p in range(n) if mask >> p & 1]
        if len(set(chosen)) != len(full):
            continue
        if _partitionable(_normalized_subsequence(letters, mask, n)):
            best = size
    return best
