"""Instance generator for the coverage-variant hardness construction.

Pipeline: a graph becomes a SAT formula whose positive 3-clauses hold
each vertex's three color variables (each variable occurs exactly once
positively) and whose negative 2-clauses forbid double colors per vertex
(type 1) and equal colors across an edge (type 2).  The graph is
3-colorable iff the formula has a *valid* assignment: satisfying, with
exactly one true literal per positive clause.

Such a formula becomes a token string in which every negative-clause
letter occurs 4 times, every per-clause middle marker 4 times, the outer
markers and separators twice, so the maximum occurrence count is 4 --
one step beyond what the polynomial bounded-occurrence solver handles.
A valid assignment yields a full-coverage repeat decomposition of the
string, which ``extract_witness`` builds explicitly and validates.

Brute-force searches (3-coloring, valid assignment) are provided for
tiny instances only, up to ``SEARCH_LIMIT`` vertices or positive
clauses; no general decision procedure for the produced strings is
attempted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Block,
    OccurrenceIndex,
    Sequence,
    SrsDecomposition,
    merge_blocks,
    sequence_from_tokens,
    validate_srs,
)
from .oracles import BudgetExceededError

SEARCH_LIMIT = 15


class GraphFormatError(ValueError):
    """Malformed graph description."""


@dataclass(frozen=True)
class Graph:
    num_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise GraphFormatError(f"self-loop at vertex {u}")
            if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
                raise GraphFormatError(f"edge ({u},{v}) out of range")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise GraphFormatError(f"duplicate edge ({u},{v})")
            seen.add(key)


def parse_graph(text: str) -> Graph:
    """Header line ``|V| |E|`` then one ``u v`` line per edge, 0-based ids."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln and not ln.startswith("#")]
    if not lines:
        raise GraphFormatError("empty graph description")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphFormatError(f"header must be '|V| |E|', got {lines[0]!r}")
    try:
        nv, ne = int(head[0]), int(head[1])
    except ValueError as exc:
        raise GraphFormatError(f"non-integer header {lines[0]!r}") from exc
    if nv < 0 or ne < 0:
        raise GraphFormatError("negative counts in header")
    if len(lines) - 1 != ne:
        raise GraphFormatError(f"expected {ne} edge lines, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphFormatError(f"edge line must be 'u v', got {ln!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise GraphFormatError(f"non-integer edge {ln!r}") from exc
    return Graph(nv, tuple(edges))


@dataclass(frozen=True)
class NegClause:
    index: int                  # 1-based among negative clauses
    kind: int                   # 1 = vertex color pair, 2 = edge color
    vars: tuple[int, int]       # variable ids, both negated
    provenance: tuple           # ("vertex", u, c1, c2) or ("edge", u, v, c)


@dataclass(frozen=True)
class SatInstance:
    num_vars: int
    plus_clauses: tuple[tuple[int, int, int], ...]
    neg_clauses: tuple[NegClause, ...]


def validate_sat_instance(f: SatInstance) -> list[str]:
    problems = []
    seen: set[int] = set()
    for pos, clause in enumerate(f.plus_clauses, start=1):
        if len(clause) != 3:
            problems.append(f"positive clause {pos} holds {len(clause)} variables, not 3")
        for v in clause:
            if not 1 <= v <= f.num_vars:
                problems.append(f"variable {v} out of range")
            if v in seen:
                problems.append(f"variable {v} occurs twice in positive clauses")
            seen.add(v)
    if len(seen) != f.num_vars:
        problems.append("some variable missing from positive clauses")
    for pos, clause in enumerate(f.neg_clauses, start=1):
        if clause.index != pos:
            problems.append(f"negative clause {pos} carries index {clause.index}")
        if clause.kind not in (1, 2):
            problems.append(f"negative clause {pos} has kind {clause.kind}")
        if len(clause.vars) != 2:
            count = len(clause.vars)
            problems.append(f"negative clause {pos} holds {count} variables, not 2")
            continue
        a, b = clause.vars
        if a == b or not (1 <= a <= f.num_vars and 1 <= b <= f.num_vars):
            problems.append(f"negative clause {pos} has bad variables {clause.vars}")
    return problems


def var_id(vertex: int, color: int) -> int:
    """Variable id of (vertex, color), vertices 0-based, colors 1..3."""
    return 3 * vertex + color


def coloring_to_sat(g: Graph) -> SatInstance:
    """Three variables and one positive clause per vertex; negative clauses
    grouped per vertex (color pairs) then per edge (colors), in input order."""
    plus = tuple(
        (var_id(u, 1), var_id(u, 2), var_id(u, 3)) for u in range(g.num_vertices)
    )
    negs: list[NegClause] = []
    for u in range(g.num_vertices):
        for c1, c2 in ((1, 2), (1, 3), (2, 3)):
            negs.append(
                NegClause(
                    len(negs) + 1, 1, (var_id(u, c1), var_id(u, c2)), ("vertex", u, c1, c2)
                )
            )
    for u, v in g.edges:
        for c in (1, 2, 3):
            negs.append(
                NegClause(len(negs) + 1, 2, (var_id(u, c), var_id(v, c)), ("edge", u, v, c))
            )
    return SatInstance(3 * g.num_vertices, plus, tuple(negs))


@dataclass(frozen=True)
class Assignment:
    true_vars: frozenset[int]
    valid: bool


def check_valid(f: SatInstance, true_vars: frozenset[int]) -> bool:
    """Valid = formula satisfied with exactly one true literal per positive clause."""
    for clause in f.plus_clauses:
        if sum(1 for v in clause if v in true_vars) != 1:
            return False
    for clause in f.neg_clauses:
        a, b = clause.vars
        if a in true_vars and b in true_vars:
            return False
    return True


def brute_force_assignment(f: SatInstance) -> Assignment | None:
    """First valid assignment in lexicographic choice order, or None."""
    if len(f.plus_clauses) > SEARCH_LIMIT:
        raise BudgetExceededError(
            f"{len(f.plus_clauses)} positive clauses exceed the search guard {SEARCH_LIMIT}"
        )
    conflicts: dict[int, list[int]] = {}
    for clause in f.neg_clauses:
        a, b = clause.vars
        conflicts.setdefault(a, []).append(b)
        conflicts.setdefault(b, []).append(a)

    true_set: set[int] = set()

    def walk(pos: int) -> bool:
        if pos == len(f.plus_clauses):
            return True
        for v in f.plus_clauses[pos]:
            if all(w not in true_set for w in conflicts.get(v, ())):
                true_set.add(v)
                if walk(pos + 1):
                    return True
                true_set.discard(v)
        return False

    if not walk(0):
        return None
    assignment = Assignment(frozenset(true_set), True)
    if not check_valid(f, assignment.true_vars):
        raise AssertionError("search returned an invalid assignment")
    return assignment


def brute_force_coloring(g: Graph) -> list[int] | None:
    """First proper 3-coloring in lexicographic order, or None."""
    if g.num_vertices > SEARCH_LIMIT:
        raise BudgetExceededError(
            f"{g.num_vertices} vertices exceed the search guard {SEARCH_LIMIT}"
        )
    adjacent: list[list[int]] = [[] for _ in range(g.num_vertices)]
    for u, v in g.edges:
        adjacent[u].append(v)
        adjacent[v].append(u)
    colors = [0] * g.num_vertices

    def walk(u: int) -> bool:
        if u == g.num_vertices:
            return True
        for c in (1, 2, 3):
            if all(colors[w] != c for w in adjacent[u]):
                colors[u] = c
                if walk(u + 1):
                    return True
                colors[u] = 0
        return False

    return colors if walk(0) else None


@dataclass(frozen=True)
class ReductionInstance:
    seq: Sequence
    legend: dict
    var_spans: dict
    sat: SatInstance

    @property
    def num_plus(self) -> int:
        return len(self.sat.plus_clauses)

    @property
    def num_neg(self) -> int:
        return len(self.sat.neg_clauses)


def _neg_lists(f: SatInstance) -> dict[int, list[int]]:
    """Per variable: negative clause indices, type-1 first, index order within type."""
    lists: dict[int, list[int]] = {v: [] for v in range(1, f.num_vars + 1)}
    for kind in (1, 2):
        for clause in f.neg_clauses:
            if clause.kind != kind:
                continue
            for v in clause.vars:
                lists[v].append(clause.index)
    return lists


def sat_to_string(f: SatInstance) -> ReductionInstance:
    """Token string for ``f``: one gadget per positive clause, separated by
    doubled separator pairs.

    Gadget for clause i on variables (x1, x2, x3), writing Lk for x_k's
    doubled negative-clause list:

        m2 . L1 . m1 m2 m1 . L2 . m2 . L3 . m3 m2 m3
    """
    problems = validate_sat_instance(f)
    if problems:
        raise ValueError("bad SAT instance: " + "; ".join(problems))
    if not f.plus_clauses:
        raise ValueError("cannot build an instance for an empty formula")
    lists = _neg_lists(f)

    tokens: list[str] = []
    legend: dict[str, dict] = {}
    var_spans: dict[int, tuple[int, int]] = {}
    for clause in f.neg_clauses:
        legend[f"F-{clause.index}"] = {
            "role": "clause",
            "type": clause.kind,
            "index": clause.index,
        }

    def emit(tok: str) -> None:
        tokens.append(tok)

    def emit_list(var: int) -> None:
        start = len(tokens) + 1
        for idx in lists[var]:
            emit(f"F-{idx}")
            emit(f"F-{idx}")
        var_spans[var] = (start, len(tokens))

    for i, clause in enumerate(f.plus_clauses, start=1):
        if i > 1:
            k = i - 1
            for tok in (f"g-{k}", f"gp-{k}", f"g-{k}", f"gp-{k}"):
                emit(tok)
            legend[f"g-{k}"] = {"role": "separator", "junction": k, "primed": False}
            legend[f"gp-{k}"] = {"role": "separator", "junction": k, "primed": True}
        x1, x2, x3 = clause
        m1, m2, m3 = f"m1-{i}", f"m2-{i}", f"m3-{i}"
        for slot, tok in enumerate((m1, m2, m3), start=1):
            legend[tok] = {"role": "marker", "slot": slot, "clause": i}
        emit(m2)
        emit_list(x1)
        emit(m1)
        emit(m2)
        emit(m1)
        emit_list(x2)
        emit(m2)
        emit_list(x3)
        emit(m3)
        emit(m2)
        emit(m3)

    seq = sequence_from_tokens(tokens)
    instance = ReductionInstance(seq, legend, var_spans, f)
    problems = check_reduction_invariants(instance)
    if problems:
        raise AssertionError("reduction invariants violated: " + "; ".join(problems))
    return instance


def check_reduction_invariants(r: ReductionInstance) -> list[str]:
    """Occurrence counts per role and the total-length formula."""
    problems = []
    n, m = r.num_plus, r.num_neg
    want_len = 4 * m + 8 * n + 4 * (n - 1)
    if r.seq.n != want_len:
        problems.append(f"length {r.seq.n} != 4m+8n+4(n-1) = {want_len}")
    index = OccurrenceIndex.from_sequence(r.seq)
    for letter, tok in enumerate(r.seq.tokens):
        got = len(index.positions[letter])
        role = r.legend.get(tok, {}).get("role")
        if role == "clause":
            want = 4
        elif role == "marker":
            want = 4 if tok.startswith("m2-") else 2
        elif role == "separator":
            want = 2
        else:
            problems.append(f"token {tok!r} missing from legend")
            continue
        if got != want:
            problems.append(f"token {tok!r} occurs {got} times, expected {want}")
    if index.max_occurrence != 4:
        problems.append(f"max occurrence {index.max_occurrence} != 4")
    return problems


def extract_witness(
    f: SatInstance, a: Assignment, r: ReductionInstance
) -> SrsDecomposition:
    """Full-coverage repeat decomposition of the instance string under a
    valid assignment: keep both doubled lists of the false variables, turn
    the markers around the true variable's deleted list into squares."""
    if not a.valid or not check_valid(f, a.true_vars):
        raise ValueError("witness extraction requires a valid assignment")
    seq = r.seq
    index = OccurrenceIndex.from_sequence(seq)
    token_ids = {tok: i for i, tok in enumerate(seq.tokens)}

    def positions(tok: str) -> tuple[int, ...]:
        return index.positions[token_ids[tok]]

    def list_blocks(var: int) -> list[Block]:
        start, end = r.var_spans[var]
        blocks = []
        for pos in range(start, end + 1, 2):
            letter = seq.letters[pos - 1]
            blocks.append(Block((letter,), 2, ((pos,), (pos + 1,))))
        return blocks

    blocks: list[Block] = []
    for i, clause in enumerate(f.plus_clauses, start=1):
        if i > 1:
            k = i - 1
            g1, g2 = positions(f"g-{k}")
            h1, h2 = positions(f"gp-{k}")
            root = (token_ids[f"g-{k}"], token_ids[f"gp-{k}"])
            blocks.append(Block(root, 2, ((g1, h1), (g2, h2))))
        x1, x2, x3 = clause
        true_slot = [slot for slot, v in enumerate(clause, start=1) if v in a.true_vars]
        if len(true_slot) != 1:
            raise ValueError(f"positive clause {i} does not have exactly one true literal")
        j = true_slot[0]
        id1, id2, id3 = (token_ids[f"m{s}-{i}"] for s in (1, 2, 3))
        q1, q2 = positions(f"m1-{i}")
        p1, p2, p3, p4 = positions(f"m2-{i}")
        r1, r2 = positions(f"m3-{i}")
        if j == 1:
            blocks.append(Block((id2, id1), 2, ((p1, q1), (p2, q2))))
            blocks.extend(list_blocks(x2))
            blocks.extend(list_blocks(x3))
            blocks.append(Block((id3,), 2, ((r1,), (r2,))))
        elif j == 2:
            blocks.extend(list_blocks(x1))
            blocks.append(Block((id1, id2), 2, ((q1, p2), (q2, p3))))
            blocks.extend(list_blocks(x3))
            blocks.append(Block((id3,), 2, ((r1,), (r2,))))
        else:
            blocks.extend(list_blocks(x1))
            blocks.append(Block((id1,), 2, ((q1,), (q2,))))
            blocks.extend(list_blocks(x2))
            blocks.append(Block((id2, id3), 2, ((p3, r1), (p4, r2))))
    dec = merge_blocks(SrsDecomposition(tuple(blocks)))
    problems = validate_srs(seq, dec, frozenset(range(seq.alphabet_size)))
    if problems:
        raise AssertionError("extracted witness failed validation: " + "; ".join(problems))
    return dec


def to_dimacs(f: SatInstance) -> str:
    """Plain DIMACS CNF; positive 3-clauses first, then negative 2-clauses.

    Satisfiability in the DIMACS sense is necessary but the intended
    solutions are the valid ones: exactly one true literal per positive
    clause (see header comment in the output).
    """
    lines = [
        "c positive 3-clauses each hold a variable exactly once;",
        "c intended (valid) solutions set exactly one true literal per positive clause",
        f"p cnf {f.num_vars} {len(f.plus_clauses) + len(f.neg_clauses)}",
    ]
    for clause in f.plus_clauses:
        lines.append(" ".join(str(v) for v in clause) + " 0")
    for clause in f.neg_clauses:
        lines.append(f"-{clause.vars[0]} -{clause.vars[1]} 0")
    return "\n".join(lines) + "\n"


def sat_to_json_doc(f: SatInstance) -> dict:
    return {
        "num_vars": f.num_vars,
        "plus_clauses": [list(c) for c in f.plus_clauses],
        "neg_clauses": [
            {
                "index": c.index,
                "type": c.kind,
                "vars": list(c.vars),
                "provenance": list(c.provenance),
            }
            for c in f.neg_clauses
        ],
    }


def _json_int(value, field: str) -> int:
    """``value`` if it is a JSON integer; floats, strings and booleans are rejected."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return value


def sat_from_json_doc(doc: dict) -> SatInstance:
    try:
        plus = tuple(
            tuple(_json_int(v, "plus_clauses variable") for v in c)
            for c in doc["plus_clauses"]
        )
        negs = tuple(
            NegClause(
                _json_int(c["index"], "neg_clauses index"),
                _json_int(c["type"], "neg_clauses type"),
                tuple(_json_int(v, "neg_clauses variable") for v in c["vars"]),
                tuple(c.get("provenance") or ()),
            )
            for c in doc["neg_clauses"]
        )
        f = SatInstance(_json_int(doc["num_vars"], "num_vars"), plus, negs)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed SAT document: {exc}") from exc
    problems = validate_sat_instance(f)
    if problems:
        raise ValueError("bad SAT instance: " + "; ".join(problems))
    return f


def assignment_from_coloring(g: Graph, f: SatInstance, colors: list[int]) -> Assignment:
    """Assignment induced by a coloring; valid iff the coloring is proper."""
    if len(colors) != g.num_vertices:
        raise ValueError(
            f"coloring has {len(colors)} entries for {g.num_vertices} vertices"
        )
    if any(c not in (1, 2, 3) for c in colors):
        raise ValueError("colors must be 1, 2 or 3")
    true_vars = frozenset(var_id(u, colors[u]) for u in range(g.num_vertices))
    return Assignment(true_vars, check_valid(f, true_vars))
