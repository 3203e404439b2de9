import io
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import subseqrep
from subseqrep import cli
from subseqrep.cli import _bench_input, fitted_slope, main
from subseqrep.core import Block, SrsDecomposition, parse_sequence, validate_srs

K3_GRAPH = "3 3\n0 1\n0 2\n1 2\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_analyze_worked_example(tmp_path, capsys):
    path = write(tmp_path, "seq.txt", "ACGAGCGCAGCGA\n")
    code, out, _ = run_cli(capsys, "analyze", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["input"] == {"n": 13, "alphabet": 3, "max_occurrence": 5}
    assert doc["square"]["length"] == 10
    assert doc["cube"]["length"] == 9
    assert doc["lsrs"]["length"] == 10
    assert doc["lsrs"]["decomposition"]["total_length"] == 10
    assert "lsrs_plus3" not in doc  # a letter occurs five times
    assert set(doc["timing_ms"]) == {"square", "cube", "witnesses", "lsrs"}


def test_analyze_empty_input(tmp_path, capsys):
    path = write(tmp_path, "empty.txt", "")
    code, out, _ = run_cli(capsys, "analyze", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["input"]["n"] == 0
    assert doc["square"] == {"length": 0, "witness": None}
    assert doc["cube"] == {"length": 0, "witness": None}
    assert doc["lsrs"]["length"] == 0


def test_analyze_bounded_occurrence_section(tmp_path, capsys):
    path = write(tmp_path, "seq.txt", "ababbcacc\n")
    code, out, _ = run_cli(capsys, "analyze", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["lsrs_plus3"]["feasible"] is True
    assert doc["lsrs_plus3"]["length"] == 7


def test_analyze_fasta_and_stdin(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "seq.fa", ">header\nACGAGCG\nCAGCGA\n")
    code, out, _ = run_cli(capsys, "analyze", path)
    assert json.loads(out)["input"]["n"] == 13
    monkeypatch.setattr("sys.stdin", io.StringIO("abab\n"))
    code, out, _ = run_cli(capsys, "analyze", "-")
    assert code == 0
    assert json.loads(out)["lsrs"]["length"] == 4


def test_analyze_guard(tmp_path, capsys):
    path = write(tmp_path, "seq.txt", "a" * 10)
    code, _, err = run_cli(capsys, "analyze", path, "--max-n", "4")
    assert code == 3
    assert "--max-n" in err
    code, out, _ = run_cli(capsys, "analyze", path)
    assert code == 0
    assert json.loads(out)["square"]["length"] == 10


def test_analyze_parse_error(tmp_path, capsys):
    path = write(tmp_path, "seq.txt", "AC\x01GT")
    code, _, err = run_cli(capsys, "analyze", path)
    assert code == 2
    assert "input error" in err


def test_undecodable_input_is_an_input_error(tmp_path, capsys, monkeypatch):
    path = tmp_path / "seq.bin"
    path.write_bytes(b"AC\xffGT")
    for argv in (["analyze", str(path)], ["reduce", "--from", "sat", "--to", "string", str(path)]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("input error: input is not valid UTF-8"), argv
    # stdin under a C locale keeps the byte as a lone surrogate
    stdin = io.TextIOWrapper(io.BytesIO(b"AC\xffGT"), encoding="utf-8", errors="surrogateescape")
    monkeypatch.setattr("sys.stdin", stdin)
    code, out, err = run_cli(capsys, "analyze", "-")
    assert code == 2 and out == ""
    assert err.startswith("input error: input is not valid UTF-8")


def test_missing_file_is_input_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "analyze", str(tmp_path / "nope.txt"))
    assert code == 2
    assert "input error" in err


def test_analyze_deterministic_apart_from_timing(tmp_path, capsys):
    path = write(tmp_path, "seq.txt", "ACGAGCGCAGCGA\n")
    _, out1, _ = run_cli(capsys, "analyze", path)
    _, out2, _ = run_cli(capsys, "analyze", path)
    doc1, doc2 = json.loads(out1), json.loads(out2)
    doc1.pop("timing_ms")
    doc2.pop("timing_ms")
    assert json.dumps(doc1, sort_keys=True) == json.dumps(doc2, sort_keys=True)


def test_tables_json(tmp_path, capsys):
    path = write(tmp_path, "seq.txt", "aaa\n")
    code, out, _ = run_cli(capsys, "tables", "--which", "q3", path)
    doc = json.loads(out)
    assert doc["which"] == "q3"
    assert doc["rows"][0] == [0, 0, 3]

    path13 = write(tmp_path, "seq13.txt", "ACGAGCGCAGCGA\n")
    _, out, _ = run_cli(capsys, "tables", "--which", "q3", path13)
    assert json.loads(out)["rows"][0][12] == 9


def test_tables_csv(tmp_path, capsys):
    path = write(tmp_path, "seq.txt", "aa\n")
    code, out, _ = run_cli(capsys, "tables", "--which", "q2", "--format", "csv", path)
    assert code == 0
    assert out.splitlines() == ["0,2", ",0"]
    empty = write(tmp_path, "empty.txt", "")
    code, out, _ = run_cli(capsys, "tables", "--which", "q2", "--format", "csv", empty)
    assert code == 0
    assert out == ""


def test_oracle_command(tmp_path, capsys):
    path = write(tmp_path, "seq.txt", "ACTACTTAGTACGT\n")
    code, out, _ = run_cli(capsys, "oracle", "--kind", "lsrs", path)
    assert code == 0
    assert json.loads(out)["value"] == 12

    path2 = write(tmp_path, "seq2.txt", "ab\n")
    _, out, _ = run_cli(capsys, "oracle", "--kind", "lsrs-plus", path2)
    assert json.loads(out)["value"] == "infeasible"

    path3 = write(tmp_path, "seq3.txt", "abab\n")
    _, out, _ = run_cli(capsys, "oracle", "--kind", "lsrs", path3)
    assert json.loads(out)["value"] == 4

    big = write(tmp_path, "big.txt", "a" * 30)
    code, _, err = run_cli(capsys, "oracle", "--kind", "lsrs", big)
    assert code == 3
    assert "budget" in err


def test_reduce_to_string(tmp_path, capsys):
    path = write(tmp_path, "k3.graph", K3_GRAPH)
    code, out, _ = run_cli(capsys, "reduce", "--from", "coloring", "--to", "string", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["length"] == 104
    assert len(doc["tokens"].split()) == 104
    assert doc["plus_clauses"] == 3 and doc["neg_clauses"] == 18

    single = write(tmp_path, "one.graph", "1 0\n")
    _, out, _ = run_cli(capsys, "reduce", "--from", "coloring", "--to", "string", single)
    doc = json.loads(out)
    assert doc["length"] == 20
    assert "g-1" not in doc["tokens"].split()


def test_reduce_tokens_round_trip(tmp_path, capsys):
    path = write(tmp_path, "k3.graph", K3_GRAPH)
    code, out, _ = run_cli(
        capsys, "reduce", "--from", "coloring", "--to", "string", "--format", "tokens", path
    )
    assert code == 0
    from subseqrep.core import OccurrenceIndex, parse_sequence

    seq = parse_sequence(out, "tokens")
    assert seq.n == 104
    assert seq.alphabet_size == 31
    assert OccurrenceIndex.from_sequence(seq).max_occurrence == 4


def test_reduce_to_sat(tmp_path, capsys):
    path = write(tmp_path, "k3.graph", K3_GRAPH)
    code, out, _ = run_cli(capsys, "reduce", "--from", "coloring", "--to", "sat", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["num_vars"] == 9
    assert len(doc["neg_clauses"]) == 18

    code, out, _ = run_cli(
        capsys, "reduce", "--from", "coloring", "--to", "sat", "--format", "dimacs", path
    )
    assert "p cnf 9 21" in out

    # the JSON document feeds back into the SAT-to-string direction
    sat_path = write(tmp_path, "k3.sat.json", json.dumps(doc))
    code, out, _ = run_cli(capsys, "reduce", "--from", "sat", "--to", "string", sat_path)
    assert code == 0
    assert json.loads(out)["length"] == 104


def test_reduce_with_witness(tmp_path, capsys):
    path = write(tmp_path, "k3.graph", K3_GRAPH)
    colors = write(tmp_path, "colors.txt", "1 2 3\n")
    code, out, _ = run_cli(
        capsys, "reduce", "--from", "coloring", "--to", "string", "--witness", colors, path
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["witness"]["validation"] == "ok"
    assert doc["witness"]["total_length"] > 0

    improper = write(tmp_path, "bad.txt", "1 1 2\n")
    code, _, err = run_cli(
        capsys, "reduce", "--from", "coloring", "--to", "string", "--witness", improper, path
    )
    assert code == 2
    assert "valid" in err


def test_reduce_bad_graph(tmp_path, capsys):
    path = write(tmp_path, "bad.graph", "2 1\n0 0\n")
    code, _, err = run_cli(capsys, "reduce", "--from", "coloring", "--to", "sat", path)
    assert code == 2
    assert "input error" in err


def test_output_file_option(tmp_path, capsys):
    path = write(tmp_path, "seq.txt", "abab\n")
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "analyze", path, "-o", str(out_path))
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["lsrs"]["length"] == 4


def test_unwritable_output_is_an_output_error(tmp_path, capsys):
    # the report is made and cannot be written: one line, exit 2
    path = write(tmp_path, "seq.txt", "abab\n")
    out_path = str(tmp_path / "missing" / "out.json")
    for argv in (["analyze", path], ["bench", "--alg", "q2", "--sizes", "4,8", "--reps", "1"]):
        code, out, err = run_cli(capsys, *argv, "-o", out_path)
        assert code == 2 and out == "", argv
        assert err.startswith("output error: ") and err.count("\n") == 1, (argv, err)
        assert "Traceback" not in err
    # the input is read first, so a missing one is still an input error
    code, _, err = run_cli(capsys, "analyze", str(tmp_path / "nope.txt"), "-o", out_path)
    assert code == 2
    assert err.startswith("input error: ") and err.count("\n") == 1


def test_internal_failure_exit_code(tmp_path, capsys, monkeypatch):
    # force the pre-print witness validation to report a violation
    monkeypatch.setattr("subseqrep.cli.validate_srs", lambda *a, **k: ["forced"])
    path = write(tmp_path, "seq.txt", "abab\n")
    code, _, err = run_cli(capsys, "analyze", path)
    assert code == 4
    assert "internal invariant failure" in err


def test_analyze_catches_a_cube_witness_one_root_short(tmp_path, capsys, monkeypatch):
    real = cli.cube_search

    def one_short(seq, i, j):
        wit, runs = real(seq, i, j)
        (block,) = wit.blocks
        copies = tuple(copy[1:] for copy in block.copies)
        return SrsDecomposition((Block(block.root[1:], 3, copies),)), runs

    text = "abc" * 21 + "a"
    code, out, _ = run_cli(capsys, "analyze", write(tmp_path, "seq.txt", text + "\n"))
    assert code == 0 and json.loads(out)["cube"]["length"] == 63
    assert validate_srs(parse_sequence(text), one_short(parse_sequence(text), 1, 64)[0]) == []
    monkeypatch.setattr(cli, "cube_search", one_short)
    for seq_text in ("ACGAGCGCAGCGA", text):
        path = write(tmp_path, "seq.txt", seq_text + "\n")
        code, out, err = run_cli(capsys, "analyze", path)
        assert code == 4 and out == ""
        assert err.startswith("internal invariant failure") and err.count("\n") == 1


@pytest.mark.parametrize(
    "options",
    [
        ("--from", "coloring", "--to", "string", "--format", "dimacs"),
        ("--from", "coloring", "--to", "sat", "--format", "tokens"),
        ("--from", "coloring", "--to", "sat", "--witness", "colors.txt"),
        ("--from", "coloring", "--to", "sat", "--format", "dimacs", "--witness", "c.txt"),
        ("--from", "coloring", "--to", "string", "--format", "tokens", "--witness", "c.txt"),
        ("--from", "sat", "--to", "string", "--witness", "colors.txt"),
    ],
)
def test_reduce_rejects_options_it_would_ignore(capsys, monkeypatch, options):
    monkeypatch.setattr("subseqrep.cli._read_text", _never_run)
    code, out, err = run_cli(capsys, "reduce", *options, "-")
    assert code == 2 and out == ""
    assert err.startswith("input error: ") and err.count("\n") == 1, err


def test_reduce_rejects_empty_formula(tmp_path, capsys):
    path = write(tmp_path, "empty.graph", "0 0\n")
    code, _, err = run_cli(capsys, "reduce", "--from", "coloring", "--to", "string", path)
    assert code == 2
    assert "empty formula" in err


def test_bench_inputs_deterministic():
    a = _bench_input("q3", 16, 7)
    b = _bench_input("q3", 16, 7)
    assert a == b
    assert _bench_input("q3", 16, 8) != a
    bound3 = _bench_input("plus3", 24, 0)
    from subseqrep.core import OccurrenceIndex

    assert bound3.n == 24
    assert OccurrenceIndex.from_sequence(bound3).max_occurrence <= 3


def test_bench_command(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "bench", "--alg", "q2", "--sizes", "4,8", "--seed", "1", "--reps", "1"
    )
    assert code == 0
    doc = json.loads(out)
    assert [row["n"] for row in doc["rows"]] == [4, 8]
    assert "slope" in doc
    code, out, _ = run_cli(capsys, "bench", "--alg", "q2", "--sizes", "4,8", "--reps", "0")
    assert code == 0
    code, _, err = run_cli(capsys, "bench", "--alg", "q2", "--sizes", "4")
    assert code == 2
    code, out, _ = run_cli(capsys, "bench", "--alg", "lsrs", "--sizes", "4,8", "--reps", "3")
    assert code == 0
    doc = json.loads(out)
    for row in doc["rows"]:
        assert len(row["times"]) == 3
        assert row["seconds"] == min(row["times"])
        assert row["median"] == sorted(row["times"])[1]
    # a working tree with uncommitted changes marks the sha "-dirty"
    assert doc["git"] is None or re.fullmatch(r"[0-9a-f]{40}(-dirty)?", doc["git"])


def test_bench_analyze_times_the_analyze_pipeline(tmp_path, capsys, monkeypatch):
    # bench --alg analyze and the analyze command call the same function
    calls = []
    real = cli.analyze_report

    def counted(seq):
        calls.append(seq)
        return real(seq)

    monkeypatch.setattr(cli, "analyze_report", counted)
    code, out, _ = run_cli(capsys, "bench", "--alg", "analyze", "--sizes", "4,8", "--reps", "2")
    assert code == 0
    assert [row["n"] for row in json.loads(out)["rows"]] == [4, 8]
    assert calls == [_bench_input("analyze", n, 0) for n in (4, 4, 8, 8)]
    seq = calls[-1]
    code, out, _ = run_cli(capsys, "analyze", write(tmp_path, "seq.txt", seq.render() + "\n"))
    assert code == 0 and calls[4:] == [seq]
    report = json.loads(out)
    expected = real(seq)
    assert report.keys() == expected.keys()
    del report["timing_ms"], expected["timing_ms"]
    assert report == expected


def test_bench_git_is_null_outside_a_checkout(tmp_path):
    shutil.copytree(Path(subseqrep.__file__).parent, tmp_path / "subseqrep")
    # git must not look above tmp_path, which may sit inside some checkout
    env = dict(_cli_env(), PYTHONPATH=str(tmp_path), GIT_CEILING_DIRECTORIES=str(tmp_path))
    proc = subprocess.run(
        CLI + ["bench", "--alg", "q2", "--sizes", "2,3", "--reps", "1"],
        capture_output=True, text=True, env=env, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["git"] is None


def test_bench_git_marks_uncommitted_changes(tmp_path):
    package = tmp_path / "subseqrep"
    # bytecode left out: a rewritten .pyc must not count as a change
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(Path(subseqrep.__file__).parent, package, ignore=ignore)
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@example.com"]
    git += ["-c", "commit.gpgsign=false"]
    for argv in (["init", "-q"], ["add", "subseqrep"], ["commit", "-q", "-m", "copy"]):
        subprocess.run(git + argv, cwd=tmp_path, check=True, capture_output=True, timeout=60)
    env = dict(_cli_env(), PYTHONPATH=str(tmp_path))

    def bench_git():
        proc = subprocess.run(
            CLI + ["bench", "--alg", "q2", "--sizes", "2,3", "--reps", "1"],
            capture_output=True, text=True, env=env, timeout=60, cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)["git"]

    clean = bench_git()
    assert re.fullmatch(r"[0-9a-f]{40}", clean)
    with open(package / "core.py", "a", encoding="utf-8") as handle:
        handle.write("\n# edited\n")
    assert bench_git() == clean + "-dirty"


@pytest.mark.parametrize(
    "argv",
    [
        ("bench", "--alg", "q3", "--sizes", "8,16", "--reps", "-2"),
    ],
)
def test_out_of_range_counts_rejected_while_parsing(capsys, monkeypatch, argv):
    for name in ("_bench_once", "read_sequence"):
        monkeypatch.setattr(f"subseqrep.cli.{name}", _never_run)
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "must be at least" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "-", "--threads", "2"),
        ("tables", "-", "--which", "q3", "--threads", "2"),
        ("bench", "--alg", "q3", "--sizes", "8,16", "--threads", "2"),
        ("oracle", "-", "--kind", "q3", "--threads", "2"),
    ],
)
def test_threads_is_an_unknown_option(capsys, monkeypatch, argv):
    # every table is built in the calling process, so there is no worker count
    for name in ("_bench_once", "read_sequence"):
        monkeypatch.setattr(f"subseqrep.cli.{name}", _never_run)
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "sizes, message",
    [
        ("", "two distinct sizes"),
        ("4", "two distinct sizes"),
        ("4,4", "two distinct sizes"),
        ("0,4", "at least 1, got 0"),
        ("-3,4", "at least 1, got -3"),
    ],
)
def test_bad_bench_sizes_exit_2_before_any_run(capsys, monkeypatch, sizes, message):
    monkeypatch.setattr("subseqrep.cli._bench_once", _never_run)
    code, out, err = run_cli(capsys, "bench", "--alg", "q2", f"--sizes={sizes}", "--reps", "1")
    assert code == 2
    assert out == "" and message in err and "Traceback" not in err


def _never_run(*args, **kwargs):
    raise AssertionError("a command ran despite a rejected argument")


@pytest.mark.parametrize(
    "argv, want_code, prefix",
    [
        (["analyze", "SEQ", "--max-n", "3"], 3, "budget exceeded: "),
        (["tables", "--which", "q2", "SEQ", "--max-n", "3"], 3, "budget exceeded: "),
        (["bench", "--alg", "q2", "--sizes", "4,9", "--max-n", "3"], 3, "budget exceeded: "),
        (["bench", "--alg", "q2", "--sizes=4"], 2, "input error: "),
        (["bench", "--alg", "q2", "--sizes=0,4"], 2, "input error: "),
        (
            ["reduce", "--from", "coloring", "--to", "string", "--witness", "COLORS", "K3"],
            2,
            "input error: ",
        ),
    ],
    ids=["analyze-max-n", "tables-max-n", "bench-max-n", "bench-one-size", "bench-size-0",
         "reduce-improper-coloring"],
)
def test_every_failure_is_one_prefixed_line(
    tmp_path, capsys, monkeypatch, argv, want_code, prefix
):
    monkeypatch.setattr("subseqrep.cli._bench_once", _never_run)
    files = {
        "SEQ": write(tmp_path, "seq.txt", "abcabcabc\n"),
        "K3": write(tmp_path, "k3.graph", K3_GRAPH),
        "COLORS": write(tmp_path, "improper.txt", "1 1 2\n"),
    }
    code, out, err = run_cli(capsys, *[files.get(arg, arg) for arg in argv])
    assert code == want_code and out == ""
    assert err.startswith(prefix) and err.count("\n") == 1, err


def test_fitted_slope():
    points = [(2, 8.0), (4, 64.0), (8, 512.0)]  # exactly cubic
    assert abs(fitted_slope(points) - 3.0) < 1e-9


def test_parse_errors_are_input_errors(tmp_path, capsys):
    not_json = write(tmp_path, "bad.json", "{not json")
    code, _, err = run_cli(capsys, "reduce", "--from", "sat", "--to", "string", not_json)
    assert code == 2 and "input error" in err

    malformed = write(tmp_path, "malformed.json", json.dumps({"num_vars": 1}))
    code, _, err = run_cli(capsys, "reduce", "--from", "sat", "--to", "string", malformed)
    assert code == 2 and "malformed SAT document" in err

    # a positive clause must hold exactly 3 variables, for either target
    for clause in ([1, 2], [1, 2, 3, 4]):
        doc = {"num_vars": len(clause), "plus_clauses": [clause], "neg_clauses": []}
        bad = write(tmp_path, "bad.sat.json", json.dumps(doc))
        for target in (["string"], ["sat", "--format", "dimacs"]):
            code, out, err = run_cli(capsys, "reduce", "--from", "sat", "--to", *target, bad)
            assert code == 2 and out == "", (clause, target)
            assert err.startswith("input error") and "not 3" in err, (clause, target)

    # and a negative clause exactly 2
    for clause in ([1], [1, 2, 3]):
        neg = {"index": 1, "type": 1, "vars": clause}
        doc = {"num_vars": 3, "plus_clauses": [[1, 2, 3]], "neg_clauses": [neg]}
        bad = write(tmp_path, "bad.sat.json", json.dumps(doc))
        message = (
            "input error: bad SAT instance: "
            f"negative clause 1 holds {len(clause)} variables, not 2\n"
        )
        for target in (["string"], ["sat", "--format", "dimacs"]):
            code, out, err = run_cli(capsys, "reduce", "--from", "sat", "--to", *target, bad)
            assert code == 2 and out == "", (clause, target)
            assert err == message, (clause, target)

    # numbers must be JSON integers: no float, string or boolean is coerced
    neg = {"index": 1, "type": 1, "vars": [1, 2]}
    valid = {"num_vars": 3, "plus_clauses": [[1, 2, 3]], "neg_clauses": [neg]}
    for field, doc in (
        ("plus_clauses variable", {**valid, "plus_clauses": [[1.9, 2, 3]]}),
        ("plus_clauses variable", {**valid, "plus_clauses": [[1, "2", 3]]}),
        ("num_vars", {**valid, "num_vars": 3.5}),
        ("neg_clauses index", {**valid, "neg_clauses": [{**neg, "index": 1.0}]}),
        ("neg_clauses type", {**valid, "neg_clauses": [{**neg, "type": True}]}),
    ):
        bad = write(tmp_path, "bad.sat.json", json.dumps(doc))
        code, out, err = run_cli(capsys, "reduce", "--from", "sat", "--to", "string", bad)
        assert code == 2 and out == "", doc
        assert err.startswith("input error: ") and f"{field} must be an integer" in err, doc
    good = write(tmp_path, "good.sat.json", json.dumps(valid))
    assert run_cli(capsys, "reduce", "--from", "sat", "--to", "string", good)[0] == 0

    graph = write(tmp_path, "k3.graph", K3_GRAPH)
    for text in ("1 x 3\n", "1 2\n", "1 2 7\n"):
        colors = write(tmp_path, "colors.txt", text)
        code, _, err = run_cli(
            capsys, "reduce", "--from", "coloring", "--to", "string", "--witness", colors, graph
        )
        assert code == 2 and "input error" in err, text

    code, _, err = run_cli(capsys, "bench", "--alg", "q2", "--sizes", "4,x")
    assert code == 2 and "input error" in err


def test_internal_value_error_exit_code(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("power_root of empty word")

    graph = write(tmp_path, "k3.graph", K3_GRAPH)
    colors = write(tmp_path, "colors.txt", "1 2 3\n")
    monkeypatch.setattr("subseqrep.cli.extract_witness", broken)
    code, _, err = run_cli(
        capsys, "reduce", "--from", "coloring", "--to", "string", "--witness", colors, graph
    )
    assert code == 4
    assert "internal invariant failure" in err and "input error" not in err

    monkeypatch.setattr("subseqrep.cli.lsrs", broken)
    code, _, err = run_cli(capsys, "analyze", write(tmp_path, "seq.txt", "abab\n"))
    assert code == 4
    assert "internal invariant failure" in err


def test_bench_guard(capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("bench ran a size above the guard")

    monkeypatch.setattr("subseqrep.cli._bench_once", never)
    code, out, err = run_cli(capsys, "bench", "--alg", "q3", "--sizes", "8,65")
    assert code == 3
    assert out == "" and "--max-n 64" in err
    code, _, err = run_cli(capsys, "bench", "--alg", "q2", "--sizes", "4,16", "--max-n", "8")
    assert code == 3 and "--max-n 8" in err


def test_interrupt_exits_130(tmp_path, capsys, monkeypatch):
    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "cmd_analyze", interrupted)
    code, out, err = run_cli(capsys, "analyze", write(tmp_path, "seq.txt", "aa\n"))
    assert code == 130
    assert out == ""
    assert err == "interrupted\n"


def test_broken_pipe_exits_141(tmp_path, capsys, monkeypatch):
    def broken(args):
        raise BrokenPipeError

    monkeypatch.setattr(cli, "cmd_analyze", broken)
    with open(tmp_path / "stdout.txt", "w") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        code = main(["analyze", write(tmp_path, "seq.txt", "aa\n")])
        monkeypatch.undo()
    assert code == 141
    assert capsys.readouterr().err == ""


def _cli_env():
    env = dict(os.environ, PYTHONPATH=str(Path(subseqrep.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)  # stdout block-buffered, as in a shell pipeline
    return env


CLI = [sys.executable, "-m", "subseqrep.cli"]


def test_closed_stdout_exits_141_without_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe fails
    try:
        proc = subprocess.run(
            CLI + ["analyze", "-"], input="ababbcacc\n", stdout=write_end,
            stderr=subprocess.PIPE, text=True, env=_cli_env(), timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == ""


def test_ctrl_c_during_cube_table_exits_130_with_one_line(tmp_path):
    # Ctrl-C signals the whole process group; the cube table is built in
    # the CLI process, which must exit 130 and leave no process behind
    path = write(tmp_path, "seq.txt", _bench_input("q3", 64, 0).render("") + "\n")
    proc = subprocess.Popen(
        CLI + ["tables", "--which", "q3", path], stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, env=_cli_env(), start_new_session=True,
    )
    try:
        time.sleep(0.6)  # the n = 64 cube table takes seconds; by now it is running
        os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
    assert proc.returncode == 130
    assert err == "interrupted\n"
    with pytest.raises(ProcessLookupError):  # nothing in the group outlived the run
        os.killpg(proc.pid, 0)
