"""Tests of the benchmark's own parts: python3 -m pytest perfbench -q"""

from __future__ import annotations

import contextlib
import io
import json
import re
from collections import Counter
from dataclasses import replace

import pytest

import run
from spans import Tracer, traced
from workloads import (
    ROOT,
    AnalyzeDna,
    Item,
    Pass,
    Plus3Bound3,
    Program,
    WitnessQueries,
    _stdin,
    check_dec,
    digest,
    dna,
    planted_bound3,
    shuffled_bound3,
    witness_digest,
)

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def program():
    return Program()


def test_generators_are_deterministic_per_seed():
    assert dna("k:1", 48) == dna("k:1", 48) != dna("k:2", 48)
    assert planted_bound3("k:1", 128) == planted_bound3("k:1", 128) != planted_bound3("k:2", 128)
    assert shuffled_bound3("k:1", 128) == shuffled_bound3("k:1", 128)


def test_bound3_generators_have_no_singleton_letter():
    for key in ("a", "b", "c"):
        planted = planted_bound3(key, 128)
        shuffled = shuffled_bound3(key, 128)
        assert len(planted) == 128
        assert set(Counter(planted).values()) <= {2, 3}
        assert Counter(shuffled) == Counter(planted) and shuffled != planted


@pytest.mark.parametrize("work", [AnalyzeDna(), Plus3Bound3(), WitnessQueries()], ids=lambda w: w.name)
def test_input_sets_are_deterministic_per_seed(program, work):
    expected = work.expected()

    def labels(seed):
        return [(item.label, item.queries) for item in work.inputs(seed, program, expected)]

    assert labels(3) == labels(3)
    assert labels(3) != labels(4)


def test_plus3_input_set_mixes_feasible_and_infeasible(program):
    work = Plus3Bound3()
    expected = work.expected()
    for seed in range(5):
        flags = Counter(item.expected["feasible"] for item in work.inputs(seed, program, expected))
        assert flags[True] == flags[False] == work.per_kind


def test_check_dec_flags_a_corrupted_witness(program):
    seq = program.pkg.parse_sequence(dna("corrupt", 16))
    dec = program.pkg.square_witness(seq, 1, 16)
    assert check_dec(program, seq, dec, dec.total_length) == []
    block = dec.blocks[0]
    shifted = (block.copies[0], tuple(p - 1 for p in block.copies[1]))
    bad = program.pkg.SrsDecomposition((replace(block, copies=shifted),))
    assert check_dec(program, seq, bad, dec.total_length)
    assert check_dec(program, seq, dec, dec.total_length + 2)


def test_plus3_check_flags_a_corrupted_witness(program):
    tokens = planted_bound3("small", 14)
    seq = program.pkg.sequence_from_tokens(tokens)
    res = program.pkg.lsrs_plus3(seq)
    exp = {"feasible": True, "length": res.length, "witness": witness_digest(res.decomposition)}
    work = Plus3Bound3()
    item = Item("small", seq, exp)
    assert work.check(program, item, res) == []
    # dropping a block loses letters the full-alphabet cover requires
    dropped = program.pkg.SrsDecomposition(res.decomposition.blocks[1:])
    assert work.check(program, item, replace(res, decomposition=dropped))


def test_analyze_check_flags_a_corrupted_report(program):
    work = AnalyzeDna()
    text = f">t\n{dna('analyze-check', 12)}\n"
    buf = io.StringIO()
    with _stdin(text), contextlib.redirect_stdout(buf):
        assert program.cli.main(["analyze", "-"]) == 0
    report = json.loads(buf.getvalue())
    stable = dict(report)
    stable.pop("timing_ms")
    exp = {
        "report": digest(json.dumps(stable, sort_keys=True)),
        **{k: report[k]["length"] for k in ("square", "cube", "lsrs")},
    }
    item = Item("t", program.pkg.parse_sequence(text.splitlines()[1]), exp)
    assert work.check(program, item, buf.getvalue()) == []
    copies = report["square"]["witness"]["blocks"][0]["copies"]
    copies[1] = [p - 1 for p in copies[1]]
    assert work.check(program, item, json.dumps(report))


def test_spans_patch_lookup_sites_and_restore(program):
    seq = program.pkg.sequence_from_tokens(planted_bound3("trace", 20))
    original = program.pkg.lsrs_plus3
    tracer = Tracer()
    with traced(tracer):
        program.pkg.lsrs_plus3(seq)
    assert program.pkg.lsrs_plus3 is original
    assert tracer.get("lcs.lcs2_all_prefixes").calls > 0  # looked up inside tables
    assert tracer.get("tables.square_table").calls == 1  # looked up inside plus3
    top = tracer.get("plus3.lsrs_plus3")
    assert top.total == pytest.approx(tracer.top_level)
    assert sum(st.self_time for st in tracer.stats.values()) == pytest.approx(tracer.top_level)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    one = Pass(item_walls={"item": [1.0]})
    layer = run.per_layer(Tracer(), one, one)
    e2e = {e["name"]: e["unit"] for e in spec["end_to_end"]}
    assert e2e == run.END_TO_END_UNITS
    assert {e["name"]: e["unit"] for e in spec["per_layer"]} == {k: u for k, (_, u) in layer.items()}
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    for name in list(e2e) + list(layer) + list(run.WORKLOADS):
        assert NAME_RE.fullmatch(name), name
