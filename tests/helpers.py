"""Shared generators and tiny brute-force checkers for the test suite."""

from __future__ import annotations

import random
from itertools import product

from subseqrep.core import parse_sequence


def all_strings(alphabet: str, length: int):
    for combo in product(alphabet, repeat=length):
        yield "".join(combo)


def strings_up_to(alphabet: str, max_n: int):
    for n in range(max_n + 1):
        yield from all_strings(alphabet, n)


def random_string(rng: random.Random, max_n: int, sigma: int = 4, min_n: int = 0) -> str:
    n = rng.randint(min_n, max_n)
    letters = "abcdefgh"[:sigma]
    return "".join(rng.choice(letters) for _ in range(n))


def random_bound3_string(rng: random.Random, max_n: int, min_n: int = 2) -> str:
    """Random string in which every letter occurs 2 or 3 times."""
    n = rng.randint(min_n, max_n)
    pool = []
    letter = 0
    remaining = n
    while remaining > 0:
        if remaining in (2, 3):
            count = remaining
        elif remaining == 4:
            count = 2
        else:
            count = rng.choice((2, 3))
        pool.extend([chr(ord("a") + letter)] * count)
        remaining -= count
        letter += 1
    rng.shuffle(pool)
    return "".join(pool)


def planted_bound3_string(rng: random.Random, n: int) -> str:
    """Concatenated blocks X^2 and X^3, each X of fresh distinct letters.

    Every letter occurs 2 or 3 times and the whole string covers itself,
    so it is feasible for ``lsrs_plus3``; n must not be 1.
    """
    out: list[str] = []
    fresh = 0
    while len(out) < n:
        left = n - len(out)
        shapes = [(r, e) for e in (2, 3) for r in range(1, 5) if r * e <= left and left - r * e != 1]
        r, e = rng.choice(shapes)
        out += [chr(0x100 + fresh + k) for k in range(r)] * e
        fresh += r
    return "".join(out)


def seq(text: str):
    return parse_sequence(text)


def is_subsequence(word, host) -> bool:
    it = iter(host)
    return all(ch in it for ch in word)


def brute_lcs2(a: str, b: str) -> int:
    """Exhaustive common-subsequence maximum over subsequences of ``a``."""
    best = 0
    for mask in range(1 << len(a)):
        if mask.bit_count() <= best:
            continue
        word = [a[p] for p in range(len(a)) if mask >> p & 1]
        if is_subsequence(word, b):
            best = len(word)
    return best


def brute_lcs3(a: str, b: str, c: str) -> int:
    best = 0
    for mask in range(1 << len(a)):
        if mask.bit_count() <= best:
            continue
        word = [a[p] for p in range(len(a)) if mask >> p & 1]
        if is_subsequence(word, b) and is_subsequence(word, c):
            best = len(word)
    return best


def is_power_at_least_squared(word) -> bool:
    """Direct check: word == r * e for some e >= 2."""
    n = len(word)
    for plen in range(1, n // 2 + 1):
        if n % plen == 0 and tuple(word) == tuple(word[:plen]) * (n // plen):
            return True
    return False


def brute_partitionable(word) -> bool:
    """Exhaustive partition search into power factors (exponent >= 2)."""
    n = len(word)
    if n == 0:
        return True
    for j in range(2, n + 1):
        if is_power_at_least_squared(word[:j]) and brute_partitionable(word[j:]):
            return True
    return False
