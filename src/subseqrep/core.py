"""Sequences over interned alphabets and subsequence-repeat decompositions.

A sequence stores letters as small integer ids so that comparing
multi-character tokens (clause names like "F-17") costs the same as
comparing single characters.  Positions are 1-based throughout the
package.

A decomposition is an ordered list of blocks, each ``root ** exponent``
with the source positions of every copy recorded; ``validate_srs``
checks a decomposition against the sequence it claims to come from, and
``check_decomposition`` turns a failed check into an ``AssertionError``.
"""

from __future__ import annotations

from dataclasses import dataclass


class SequenceParseError(ValueError):
    """Input text cannot be interpreted as a sequence."""


@dataclass(frozen=True)
class Sequence:
    """Immutable letter-id sequence plus the id <-> token bijection."""

    letters: tuple[int, ...]
    tokens: tuple[str, ...]

    @property
    def n(self) -> int:
        return len(self.letters)

    @property
    def alphabet_size(self) -> int:
        return len(self.tokens)

    def render(self, sep: str | None = None) -> str:
        """Display form; ``sep`` defaults to "" for single-char alphabets, else " "."""
        if sep is None:
            sep = "" if all(len(t) == 1 for t in self.tokens) else " "
        return sep.join(self.tokens[a] for a in self.letters)


def parse_sequence(text: str, mode: str = "raw") -> Sequence:
    """Parse ``text`` into a Sequence, reading its lines by ``_lines``.

    raw mode: lines that start with ">" (FASTA headers) are dropped and
    every character of the other lines is a letter; a tab inside a line
    is rejected with its line number.  tokens mode: the space- or
    tab-separated fields of the lines are the letters.  The alphabet is
    interned in first-appearance order.
    """
    if mode == "raw":
        items: list[str] = []
        for number, line in enumerate(_lines(text), 1):
            if line.startswith(">"):
                continue
            if "\t" in line:
                raise SequenceParseError(f"control character '\\t' on line {number}")
            items += line
    elif mode == "tokens":
        items = _fields(text)
    else:
        raise ValueError(f"unknown parse mode {mode!r}")
    return sequence_from_tokens(items)


def _lines(text: str, error: type[ValueError] = SequenceParseError) -> list[str]:
    """The lines of input text, with spaces and tabs trimmed from their ends.

    Every text reader follows this rule: one byte-order mark (U+FEFF) at
    the start of the text is dropped; lines break only at \\n, \\r\\n and
    \\r, and a field ends only at a space or a tab (``_fields``); raw
    sequence text rejects a tab (``parse_sequence``).  Any other control
    character -- C0 (U+0000-U+001F), DEL, C1 (U+0080-U+009F) or the line
    and paragraph separators U+2028 and U+2029 -- raises ``error`` with
    its line number.
    """
    if text.startswith("\ufeff"):
        text = text[1:]
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for number, line in enumerate(lines, 1):
        for ch in line:
            code = ord(ch)
            if (code < 32 and ch != "\t") or 127 <= code <= 159 or code in (0x2028, 0x2029):
                raise error(f"control character {ch!r} on line {number}")
    return [line.strip(" \t") for line in lines]


def _fields(text: str) -> list[str]:
    """The space- or tab-separated fields of every line of ``text``."""
    return [f for line in _lines(text) for f in line.replace("\t", " ").split(" ") if f]


def sequence_from_tokens(items: list[str]) -> Sequence:
    """Intern an explicit token list (rejects empty tokens)."""
    ids: dict[str, int] = {}
    letters = []
    for off, tok in enumerate(items):
        if tok == "":
            raise SequenceParseError(f"empty token at index {off}")
        code = ids.get(tok)
        if code is None:
            code = len(ids)
            ids[tok] = code
        letters.append(code)
    return Sequence(tuple(letters), tuple(ids))


@dataclass(frozen=True)
class OccurrenceIndex:
    """Per-letter sorted position lists; ``max_occurrence`` is the d parameter."""

    positions: tuple[tuple[int, ...], ...]

    @classmethod
    def from_sequence(cls, seq: Sequence) -> "OccurrenceIndex":
        lists: list[list[int]] = [[] for _ in seq.tokens]
        for pos, letter in enumerate(seq.letters, start=1):
            lists[letter].append(pos)
        return cls(tuple(tuple(lst) for lst in lists))

    @property
    def max_occurrence(self) -> int:
        return max((len(p) for p in self.positions), default=0)

    def singletons(self) -> frozenset[int]:
        return frozenset(a for a, p in enumerate(self.positions) if len(p) == 1)


@dataclass(frozen=True)
class Block:
    """One repeat block: ``root`` spelled by each of ``exponent`` position lists."""

    root: tuple[int, ...]
    exponent: int
    copies: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class SrsDecomposition:
    blocks: tuple[Block, ...]

    @property
    def total_length(self) -> int:
        return sum(b.exponent * len(b.root) for b in self.blocks)

    def letter_set(self) -> frozenset[int]:
        return frozenset(a for b in self.blocks for a in b.root)

    def render(self, seq: Sequence) -> str:
        """Human-readable form like (AG)^2(CG)^3."""
        parts = []
        for b in self.blocks:
            word = "".join(seq.tokens[a] for a in b.root) if all(
                len(seq.tokens[a]) == 1 for a in b.root
            ) else " ".join(seq.tokens[a] for a in b.root)
            parts.append(f"({word})^{b.exponent}")
        return "".join(parts)


def validate_srs(
    seq: Sequence,
    dec: SrsDecomposition,
    require_cover: frozenset[int] | set[int] = frozenset(),
) -> list[str]:
    """Check every decomposition invariant against ``seq``.

    Returns a list of violation messages; an empty list means the
    decomposition is a well-formed canonical repeat subsequence of
    ``seq`` covering every letter in ``require_cover``.
    """
    violations: list[str] = []
    n = seq.n
    last_pos = 0
    for bi, block in enumerate(dec.blocks):
        if not block.root:
            violations.append(f"block {bi}: empty root")
            continue
        if block.exponent < 2:
            violations.append(f"block {bi}: exponent<2 (got {block.exponent})")
        if len(block.copies) != block.exponent:
            violations.append(
                f"block {bi}: {len(block.copies)} copies for exponent {block.exponent}"
            )
        for ci, copy in enumerate(block.copies):
            if len(copy) != len(block.root):
                violations.append(f"block {bi} copy {ci}: wrong length")
                continue
            for pos, want in zip(copy, block.root):
                if not 1 <= pos <= n:
                    violations.append(f"block {bi} copy {ci}: position {pos} out of range")
                    break
                if pos <= last_pos:
                    violations.append(
                        f"block {bi} copy {ci}: positions not strictly increasing at {pos}"
                    )
                    break
                if seq.letters[pos - 1] != want:
                    violations.append(
                        f"block {bi} copy {ci}: position {pos} spells "
                        f"{seq.tokens[seq.letters[pos - 1]]!r}, root wants {seq.tokens[want]!r}"
                    )
                    break
                last_pos = pos
        if bi > 0 and dec.blocks[bi - 1].root == block.root:
            violations.append(f"block {bi}: adjacent equal roots")
    covered = dec.letter_set()
    for letter in sorted(set(require_cover) - covered):
        violations.append(f"missing required letter {seq.tokens[letter]!r}")
    return violations


def check_decomposition(
    seq: Sequence,
    dec: SrsDecomposition,
    length: int | None = None,
    cover: frozenset[int] | set[int] = frozenset(),
) -> SrsDecomposition:
    """Return ``dec`` if it passes ``validate_srs`` and has ``length``; else raise.

    A solver's witness that fails here is a bug in the solver, so the
    failure is an ``AssertionError``, never a user-facing error.
    """
    problems = validate_srs(seq, dec, cover)
    if problems:
        raise AssertionError("witness failed validation: " + "; ".join(problems))
    if length is not None and dec.total_length != length:
        raise AssertionError(f"witness length {dec.total_length} != {length}")
    return dec


def merge_blocks(dec: SrsDecomposition) -> SrsDecomposition:
    """Merge adjacent blocks with equal roots (exponents add, copies concatenate)."""
    merged: list[Block] = []
    for block in dec.blocks:
        if merged and merged[-1].root == block.root:
            prev = merged[-1]
            merged[-1] = Block(
                prev.root, prev.exponent + block.exponent, prev.copies + block.copies
            )
        else:
            merged.append(block)
    return SrsDecomposition(tuple(merged))


def split_exponent(d: int) -> list[int]:
    """Write ``d`` as an ordered sum of 2s and 3s (canonical: 2s first)."""
    if d < 2:
        raise ValueError(f"exponent {d} cannot be split into parts of 2 and 3")
    rem = d % 3
    twos = {0: 0, 2: 1, 1: 2}[rem]
    return [2] * twos + [3] * ((d - 2 * twos) // 3)


def power_root(word) -> tuple[tuple, int]:
    """Primitive root and maximal exponent of ``word`` (exponent 1 if primitive).

    Uses the border (failure-function) array: the smallest period is
    ``len(word) - border[-1]`` and divides the length exactly when the
    word is a proper power.
    """
    w = tuple(word)
    m = len(w)
    if m == 0:
        raise ValueError("power_root of empty word")
    border = [0] * (m + 1)
    k = 0
    for q in range(2, m + 1):
        while k > 0 and w[k] != w[q - 1]:
            k = border[k]
        if w[k] == w[q - 1]:
            k += 1
        border[q] = k
    period = m - border[m]
    if m % period == 0:
        return w[:period], m // period
    return w, 1


def srs_partitionable(word) -> bool:
    """True iff ``word`` splits into substrings that are each a power r**e, e >= 2."""
    w = tuple(word)
    m = len(w)
    feasible = [False] * (m + 1)
    feasible[0] = True
    for j in range(2, m + 1):
        for i in range(j - 2, -1, -1):
            if feasible[i] and power_root(w[i:j])[1] >= 2:
                feasible[j] = True
                break
    return feasible[m]
