"""Two- and three-way longest-common-subsequence engines.

Both engines answer every prefix of their *last* argument in a single
pass: ``f[k]`` is the LCS length of the fixed arguments against
``last[:k]``.  That all-prefix output is what lets the table builders
in :mod:`subseqrep.tables` amortize one DP over a whole row of interval
end points, so no single-value variant is exposed.

Arguments are any indexable sequences of hashable elements compared with
``==`` (letter-id tuples, strings, lists); the 2-way engine keys its
match masks on the elements.  Witness reconstruction lives here too since it
shares the recurrences.
"""

from __future__ import annotations


def lcs2_all_prefixes(a, b) -> list[int]:
    """f[k] = LCS(a, b[:k]) for 0 <= k <= len(b).

    Bit-parallel (Allison & Dix 1986; Crochemore et al. 2001; Hyyro
    2004): O(len(b)) operations on len(a)-bit ints.
    """
    match = dict.fromkeys(b, 0)
    bit = 1
    for x in a:
        if x in match:
            match[x] |= bit
        bit <<= 1
    return _bit_parallel_row(len(a), match, b)


def lcs2_cut_prefixes(x, s: int) -> list[list[int]]:
    """out[m - s] == lcs2_all_prefixes(x[s : m + 1], x[m + 1 :]) for s <= m < len(x).

    Every cut of the suffix starting at ``s`` in one pass: the match masks
    of ``x[s : m + 1]`` grow by one bit per cut instead of being rebuilt.
    """
    match = dict.fromkeys(x[s:], 0)
    out = []
    for m in range(s, len(x)):
        match[x[m]] |= 1 << (m - s)
        out.append(_bit_parallel_row(m - s + 1, match, x[m + 1 :]))
    return out


def _bit_parallel_row(size: int, match: dict, b) -> list[int]:
    """All-prefix LCS of b against a word of length ``size``.

    ``match[y]`` has bit p set where the word holds ``y``.  Bit p of ``v``
    stays set until position p is matched, so after the k-th letter of
    ``b`` the LCS is ``size - popcount(v)``.
    """
    full = v = (1 << size) - 1
    row = [0]
    for y in b:
        u = v & match[y]
        v = ((v + u) | (v - u)) & full
        row.append(size - v.bit_count())
    return row


def lcs3_all_prefixes(a, b, c) -> list[int]:
    """f[k] = LCS(a, b, c[:k]) for 0 <= k <= len(c).

    O(len(a)*len(b)*len(c)) time; two (|b|+1)x(|c|+1) layers rolled over
    ``a``.  The final layer's last row is the prefix vector.
    """
    nb, nc = len(b), len(c)
    width = nc + 1
    size = (nb + 1) * width
    prev = [0] * size
    cur = [0] * size
    for x in a:
        off = 0
        for j in range(1, nb + 1):
            prev_off = off
            off += width
            match_b = b[j - 1] == x
            for k in range(1, nc + 1):
                if match_b and c[k - 1] == x:
                    v = prev[prev_off + k - 1] + 1
                else:
                    v = prev[off + k]
                    up = cur[prev_off + k]
                    if up > v:
                        v = up
                    left = cur[off + k - 1]
                    if left > v:
                        v = left
                cur[off + k] = v
        prev, cur = cur, prev
    return prev[nb * width :]


def lcs2_witness(a, b) -> tuple[list, list[int], list[int]]:
    """A longest common subsequence of ``a`` and ``b`` with 1-based positions.

    Deterministic: walks forward, consuming a match at the earliest
    position pair whenever that is optimal, otherwise advancing ``a``
    first.
    """
    na, nb = len(a), len(b)
    suf = [[0] * (nb + 1) for _ in range(na + 1)]
    for i in range(na - 1, -1, -1):
        row = suf[i]
        below = suf[i + 1]
        for j in range(nb - 1, -1, -1):
            if a[i] == b[j]:
                row[j] = below[j + 1] + 1
            else:
                row[j] = below[j] if below[j] >= row[j + 1] else row[j + 1]
    word: list = []
    pa: list[int] = []
    pb: list[int] = []
    i = j = 0
    while i < na and j < nb:
        if a[i] == b[j] and suf[i][j] == suf[i + 1][j + 1] + 1:
            word.append(a[i])
            pa.append(i + 1)
            pb.append(j + 1)
            i += 1
            j += 1
        elif suf[i + 1][j] == suf[i][j]:
            i += 1
        else:
            j += 1
    return word, pa, pb


def lcs3_witness(a, b, c) -> tuple[list, list[int], list[int], list[int]]:
    """A longest common subsequence of three arguments with per-argument positions.

    Same forward tie-break as :func:`lcs2_witness`, advancing the
    earliest-listed argument on non-matches.
    """
    na, nb, nc = len(a), len(b), len(c)
    suf = [[[0] * (nc + 1) for _ in range(nb + 1)] for _ in range(na + 1)]
    for i in range(na - 1, -1, -1):
        for j in range(nb - 1, -1, -1):
            row = suf[i][j]
            for k in range(nc - 1, -1, -1):
                if a[i] == b[j] == c[k]:
                    row[k] = suf[i + 1][j + 1][k + 1] + 1
                else:
                    row[k] = max(suf[i + 1][j][k], suf[i][j + 1][k], row[k + 1])
    word: list = []
    pa: list[int] = []
    pb: list[int] = []
    pc: list[int] = []
    i = j = k = 0
    while i < na and j < nb and k < nc:
        v = suf[i][j][k]
        if a[i] == b[j] == c[k] and v == suf[i + 1][j + 1][k + 1] + 1:
            word.append(a[i])
            pa.append(i + 1)
            pb.append(j + 1)
            pc.append(k + 1)
            i += 1
            j += 1
            k += 1
        elif suf[i + 1][j][k] == v:
            i += 1
        elif suf[i][j + 1][k] == v:
            j += 1
        else:
            k += 1
    return word, pa, pb, pc
