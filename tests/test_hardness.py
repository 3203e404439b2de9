import itertools
import random

import pytest

from subseqrep.core import OccurrenceIndex
from subseqrep.hardness import (
    Assignment,
    Graph,
    GraphFormatError,
    NegClause,
    SatInstance,
    assignment_from_coloring,
    brute_force_assignment,
    brute_force_coloring,
    check_reduction_invariants,
    check_valid,
    coloring_to_sat,
    extract_witness,
    parse_graph,
    sat_from_json_doc,
    sat_to_json_doc,
    sat_to_string,
    to_dimacs,
    validate_sat_instance,
    var_id,
)
from subseqrep.core import validate_srs
from subseqrep.oracles import BudgetExceededError

K3 = Graph(3, ((0, 1), (0, 2), (1, 2)))
K4 = Graph(4, tuple(itertools.combinations(range(4), 2)))


def complete_graph(n):
    return Graph(n, tuple(itertools.combinations(range(n), 2)))


def test_graph_validation():
    with pytest.raises(GraphFormatError):
        Graph(3, ((0, 0),))
    with pytest.raises(GraphFormatError):
        Graph(3, ((0, 3),))
    with pytest.raises(GraphFormatError):
        Graph(3, ((0, 1), (1, 0)))


def test_parse_graph():
    g = parse_graph("3 3\n0 1\n0 2\n1 2\n")
    assert g == K3
    with pytest.raises(GraphFormatError):
        parse_graph("")
    with pytest.raises(GraphFormatError):
        parse_graph("2 1\n")
    with pytest.raises(GraphFormatError):
        parse_graph("nope\n")
    with pytest.raises(GraphFormatError):
        parse_graph("2 1\n0 x\n")
    for text, message in (
        ("x 1\n", "non-integer header 'x 1'"),
        ("-1 0\n", "negative counts in header"),
        ("2 1\n0\n", "edge line must be 'u v', got '0'"),
    ):
        with pytest.raises(GraphFormatError) as info:
            parse_graph(text)
        assert str(info.value) == message


def test_validate_sat_instance_names_each_problem():
    good = NegClause(1, 1, (1, 2), ("vertex", 0, 1, 2))
    assert validate_sat_instance(SatInstance(3, ((1, 2, 3),), (good,))) == []
    for plus, neg, problem in (
        ((1, 2, 4), good, "variable 4 out of range"),
        ((1, 2, 3), NegClause(2, 1, (1, 2), ()), "negative clause 1 carries index 2"),
        ((1, 2, 3), NegClause(1, 3, (1, 2), ()), "negative clause 1 has kind 3"),
        ((1, 2, 3), NegClause(1, 1, (1, 1), ()), "negative clause 1 has bad variables (1, 1)"),
        ((1, 2, 3), NegClause(1, 1, (1, 4), ()), "negative clause 1 has bad variables (1, 4)"),
    ):
        assert problem in validate_sat_instance(SatInstance(3, (plus,), (neg,))), problem


def test_sat_counts_k3():
    f = coloring_to_sat(K3)
    assert f.num_vars == 9
    assert len(f.plus_clauses) == 3
    assert sum(1 for c in f.neg_clauses if c.kind == 1) == 9
    assert sum(1 for c in f.neg_clauses if c.kind == 2) == 9
    assert validate_sat_instance(f) == []


def test_sat_counts_single_vertex():
    f = coloring_to_sat(Graph(1, ()))
    assert f.num_vars == 3
    assert len(f.plus_clauses) == 1
    assert [c.kind for c in f.neg_clauses] == [1, 1, 1]


def test_vertex_clause_structure():
    f = coloring_to_sat(K3)
    first = f.neg_clauses[0]
    assert first.kind == 1
    assert first.vars == (var_id(0, 1), var_id(0, 2))
    assert first.provenance == ("vertex", 0, 1, 2)
    # vertex groups come before edge groups, in input order
    kinds = [c.kind for c in f.neg_clauses]
    assert kinds == sorted(kinds)
    edge_first = next(c for c in f.neg_clauses if c.kind == 2)
    assert edge_first.provenance == ("edge", 0, 1, 1)


def test_neg_list_structure_matches_construction():
    # star-plus-leaf shape: u adjacent to v and w, plus an isolated vertex
    g = Graph(4, ((0, 1), (0, 2)))
    f = coloring_to_sat(g)
    r = sat_to_string(f)
    # u's color-1 variable is negated in its two vertex clauses and in the
    # color-1 clause of each incident edge, type-1 first, each doubled
    span = r.var_spans[var_id(0, 1)]
    tokens = [r.seq.tokens[a] for a in r.seq.letters[span[0] - 1 : span[1]]]
    t1 = [c.index for c in f.neg_clauses if c.kind == 1 and var_id(0, 1) in c.vars]
    t2 = [c.index for c in f.neg_clauses if c.kind == 2 and var_id(0, 1) in c.vars]
    want = []
    for idx in t1 + t2:
        want.extend([f"F-{idx}", f"F-{idx}"])
    assert tokens == want
    assert len(t1) == 2 and len(t2) == 2


def test_reduction_token_shape_k3():
    f = coloring_to_sat(K3)
    r = sat_to_string(f)
    assert r.seq.n == 104
    assert r.seq.n == 4 * r.num_neg + 8 * r.num_plus + 4 * (r.num_plus - 1)
    assert check_reduction_invariants(r) == []
    assert OccurrenceIndex.from_sequence(r.seq).max_occurrence == 4
    # legend covers the whole alphabet
    assert set(r.legend) == set(r.seq.tokens)


def test_reduction_single_vertex_has_no_separators():
    r = sat_to_string(coloring_to_sat(Graph(1, ())))
    assert r.seq.n == 4 * 3 + 8 * 1
    assert not any(tok.startswith("g") for tok in r.seq.tokens)


def test_reduction_invariants_random_graphs():
    rng = random.Random(51)
    witnesses = 0
    for _ in range(30):
        nv = rng.randint(1, 8)
        possible = list(itertools.combinations(range(nv), 2))
        edges = tuple(e for e in possible if rng.random() < 0.4)
        g = Graph(nv, edges)
        f = coloring_to_sat(g)
        r = sat_to_string(f)
        assert check_reduction_invariants(r) == []
        coloring = brute_force_coloring(g)
        if coloring is not None:
            dec = extract_witness(f, assignment_from_coloring(g, f, coloring), r)
            cover = frozenset(range(r.seq.alphabet_size))
            assert validate_srs(r.seq, dec, cover) == []
            witnesses += 1
    assert witnesses > 10


def test_brute_force_coloring():
    assert brute_force_coloring(K3) == [1, 2, 3]
    assert brute_force_coloring(K4) is None
    cycle5 = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0)))
    colors = brute_force_coloring(cycle5)
    assert colors is not None
    for u, v in cycle5.edges:
        assert colors[u] != colors[v]


def test_brute_force_assignment():
    f = coloring_to_sat(K3)
    a = brute_force_assignment(f)
    assert a is not None and a.valid
    assert check_valid(f, a.true_vars)
    assert brute_force_assignment(coloring_to_sat(K4)) is None


def test_brute_force_guards():
    edgeless = Graph(15, ())
    assert brute_force_coloring(edgeless) == [1] * 15
    assert brute_force_assignment(coloring_to_sat(edgeless)) is not None
    big = complete_graph(16)
    with pytest.raises(BudgetExceededError):
        brute_force_coloring(big)
    with pytest.raises(BudgetExceededError):
        brute_force_assignment(coloring_to_sat(big))


def test_round_trip_small_graphs():
    for nv in range(1, 5):
        possible = list(itertools.combinations(range(nv), 2))
        for bits in range(1 << len(possible)):
            edges = tuple(e for p, e in enumerate(possible) if bits >> p & 1)
            g = Graph(nv, edges)
            colorable = brute_force_coloring(g) is not None
            assignment = brute_force_assignment(coloring_to_sat(g))
            assert colorable == (assignment is not None), (nv, edges)


def test_extract_witness_k3():
    f = coloring_to_sat(K3)
    r = sat_to_string(f)
    a = assignment_from_coloring(K3, f, [1, 2, 3])
    assert a.valid
    dec = extract_witness(f, a, r)
    cover = frozenset(range(r.seq.alphabet_size))
    assert validate_srs(r.seq, dec, cover) == []
    # exactly one variable list per positive clause is dropped
    used = {p for b in dec.blocks for copy in b.copies for p in copy}
    for clause in f.plus_clauses:
        absent = 0
        for v in clause:
            start, end = r.var_spans[v]
            if not any(p in used for p in range(start, end + 1)):
                absent += 1
        assert absent == 1


def test_extract_witness_case_patterns():
    # isolated triangle vertices get colors 1, 2, 3: one clause per case
    f = coloring_to_sat(K3)
    r = sat_to_string(f)
    dec = extract_witness(f, assignment_from_coloring(K3, f, [1, 2, 3]), r)
    roots = [tuple(r.seq.tokens[a] for a in b.root) for b in dec.blocks]
    assert ("m2-1", "m1-1") in roots  # color 1: leading marker square
    assert ("m1-2", "m2-2") in roots  # color 2: middle marker square
    assert ("m2-3", "m3-3") in roots  # color 3: trailing marker square
    assert ("g-1", "gp-1") in roots and ("g-2", "gp-2") in roots


def test_extract_witness_rejects_invalid_assignment():
    f = coloring_to_sat(K3)
    r = sat_to_string(f)
    bad = Assignment(frozenset({var_id(0, 1), var_id(1, 1), var_id(2, 2)}), False)
    with pytest.raises(ValueError):
        extract_witness(f, bad, r)


def test_assignment_from_coloring_checks():
    f = coloring_to_sat(K3)
    improper = assignment_from_coloring(K3, f, [1, 1, 2])
    assert not improper.valid
    with pytest.raises(ValueError):
        assignment_from_coloring(K3, f, [1, 2])
    with pytest.raises(ValueError):
        assignment_from_coloring(K3, f, [1, 2, 4])


def test_dimacs_output():
    f = coloring_to_sat(Graph(1, ()))
    text = to_dimacs(f)
    lines = text.splitlines()
    assert lines[0].startswith("c ")
    assert "p cnf 3 4" in lines
    assert lines[-1] == "-2 -3 0"
    assert text.endswith("\n")


def test_sat_json_round_trip():
    f = coloring_to_sat(K3)
    doc = sat_to_json_doc(f)
    back = sat_from_json_doc(doc)
    assert back == f
    with pytest.raises(ValueError):
        sat_from_json_doc({"num_vars": 3, "plus_clauses": [[1, 1, 2]], "neg_clauses": []})
    for clause in ([1, 2], [1, 2, 3, 4]):
        doc = {"num_vars": len(clause), "plus_clauses": [clause], "neg_clauses": []}
        with pytest.raises(ValueError, match=f"holds {len(clause)} variables, not 3"):
            sat_from_json_doc(doc)
    for clause in ([1], [1, 2, 3]):
        neg = {"index": 1, "type": 1, "vars": clause}
        doc = {"num_vars": 3, "plus_clauses": [[1, 2, 3]], "neg_clauses": [neg]}
        message = f"negative clause 1 holds {len(clause)} variables, not 2"
        with pytest.raises(ValueError, match=message):
            sat_from_json_doc(doc)
