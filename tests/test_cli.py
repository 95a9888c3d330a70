"""CLI contract: exit codes, line formats, and byte reproducibility.

Everything runs in-process through run(argv) so coverage tools and
debuggers see straight through; the console script is the same function.
"""

import json
import os

import pytest

from burling import Graph, build_graft, validate_witness
from burling.cli import run
from burling.io import (graph_to_json, graph_from_json, trace_to_json,
                        witness_from_json)


@pytest.fixture
def g2_file(tmp_path):
    path = tmp_path / "g2.graph"
    assert run(["generate", "--mode", "graft", "--k", "2",
                "--out", str(path)]) == 0
    return path


@pytest.fixture
def wheel_file(tmp_path, wheel6):
    path = tmp_path / "wheel6.graph"
    path.write_text(graph_to_json(wheel6, frozenset(), name="wheel6"))
    return path


def test_generate_then_verify_holds(g2_file, capsys):
    assert run(["verify", "--in", str(g2_file)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 5
    assert out[0].startswith("(1) triangle-free: HOLDS (explored=")
    assert out[4].startswith("(5) no-mountable-path: HOLDS")
    assert all(": HOLDS (explored=" in line for line in out)


def test_verify_checked_in_fixture_fails_with_wheel(capsys):
    fixture = os.path.join(os.path.dirname(__file__), "fixtures",
                           "wheel6.graph")
    assert run(["verify", "--in", fixture]) == 1
    out = capsys.readouterr().out
    line = [l for l in out.splitlines() if l.startswith("(3) wheel-free:")][0]
    w = witness_from_json(line.split(" FAILS witness=", 1)[1])
    assert w.kind == "wheel" and len(w.hits) >= 3


def test_verify_failure_prints_parseable_witness(wheel_file, capsys):
    assert run(["verify", "--in", str(wheel_file)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 5
    fails = [line for line in out if " FAILS witness=" in line]
    assert fails
    g, tips, _ = graph_from_json(wheel_file.read_text())
    for line in fails:
        blob = line.split(" FAILS witness=", 1)[1]
        w = witness_from_json(blob)
        assert validate_witness(g, tips, w)


def test_generate_pair_writes_plain_graph(tmp_path):
    path = tmp_path / "p3.graph"
    assert run(["generate", "--mode", "pair", "--k", "3",
                "--out", str(path)]) == 0
    g, tips, name = graph_from_json(path.read_text())
    assert g.n == 13 and tips is None and name == "pair-3"


def test_generate_trace_replayable_json(tmp_path):
    out = tmp_path / "g3.graph"
    tr = tmp_path / "g3.trace"
    assert run(["generate", "--mode", "graft", "--k", "3",
                "--out", str(out), "--trace", str(tr)]) == 0
    assert tr.read_text() == trace_to_json(build_graft(3)[1])
    doc = json.loads(tr.read_text())
    assert doc["k"] == 3
    assert [lv["level"] for lv in doc["levels"]] == [1, 2]
    assert all(rec["op"] in ("pendent", "clone", "join")
               for lv in doc["levels"]
               for key in ("template", "host", "joins")
               for rec in lv[key])


def test_generate_output_is_byte_stable(tmp_path):
    a = tmp_path / "a.graph"
    b = tmp_path / "b.graph"
    run(["generate", "--mode", "graft", "--k", "3", "--out", str(a)])
    run(["generate", "--mode", "graft", "--k", "3", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_chroma_exact_line(g2_file, capsys):
    assert run(["chroma", "--in", str(g2_file)]) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("chi=3 proof=exhaustive-search coloring=[")


def test_chroma_bounds_line(g2_file, capsys):
    assert run(["chroma", "--in", str(g2_file), "--bounds"]) == 0
    assert capsys.readouterr().out.strip() == "lower=3 upper=3"


def test_chroma_rainbow_none_prints_bound(tmp_path, capsys):
    path = tmp_path / "g3.graph"
    run(["generate", "--mode", "graft", "--k", "3", "--out", str(path)])
    assert run(["chroma", "--in", str(path), "--rainbow", "3", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "non-rainbow k=3 c=3: none"
    assert out[1] == "chi-lower-bound=4"


def test_chroma_rainbow_found_prints_coloring(g2_file, capsys):
    assert run(["chroma", "--in", str(g2_file), "--rainbow", "3", "3"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("non-rainbow k=3 c=3: [")


def test_equiv_prints_bijection(capsys):
    assert run(["equiv", "--k", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 21
    lhs = [int(line.split(" -> ")[0]) for line in lines]
    rhs = [int(line.split(" -> ")[1]) for line in lines]
    assert lhs == list(range(21))
    assert sorted(rhs) == list(range(21))


def test_fuzz_ok_run(capsys):
    assert run(["fuzz", "--ops", "6", "--seed", "4"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ok steps=")


def test_fuzz_reproducible(capsys):
    run(["fuzz", "--ops", "6", "--seed", "4"])
    first = capsys.readouterr().out
    run(["fuzz", "--ops", "6", "--seed", "4"])
    assert capsys.readouterr().out == first


def test_fuzz_script_replay(tmp_path, capsys):
    script = tmp_path / "seq.ops"
    script.write_text("clone 1\npendent 1\nclone 2\n")
    assert run(["fuzz", "--script", str(script)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ok steps=3")


def test_fuzz_script_out_of_range_target(tmp_path, capsys):
    script = tmp_path / "seq.ops"
    script.write_text("clone 1\npendent -1\n")
    assert run(["fuzz", "--script", str(script)]) == 2
    assert "vertex -1 out of range" in capsys.readouterr().err


def test_fuzz_failure_dumps_replay(tmp_path, capsys):
    # the side graft holds a triangle, so step 0 breaks condition (1)
    tri = graph_to_json(Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)]),
                        frozenset({0}))
    (tmp_path / "tri.graph").write_text(tri)
    script = tmp_path / "s.ops"
    script.write_text("join 1 @tri.graph\n")
    dump = tmp_path / "dump"
    assert run(["fuzz", "--script", str(script), "--out", str(dump)]) == 1
    out, err = capsys.readouterr()
    head, body = out.split("\n", 1)
    assert head.startswith("step 0 breaks (1) triangle-free: witness=")
    assert body == "join 1 @tri.graph\n"
    replay = dump / "seq-0.ops"
    assert err == f"replay: {replay}\n"
    assert run(["fuzz", "--script", str(replay)]) == 1
    assert capsys.readouterr().out == out


def test_script_side_graft_must_stay_in_script_dir(tmp_path, capsys):
    side = graph_to_json(Graph.from_edges(2, [(0, 1)]), frozenset({1}))
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    (scripts / "side.graph").write_text(side)
    (tmp_path / "outside.graph").write_text(side)
    inside = scripts / "inside.ops"
    inside.write_text("join 1 @side.graph\n")
    assert run(["fuzz", "--script", str(inside)]) == 0
    escape = scripts / "escape.ops"
    escape.write_text("join 1 @../outside.graph\n")
    assert run(["fuzz", "--script", str(escape)]) == 2
    assert "outside the script's directory" in capsys.readouterr().err


def test_export_dot(g2_file, capsys):
    assert run(["export", "--in", str(g2_file), "--dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith('graph "graft-2" {')
    assert "1 [shape=box];" in out
    assert "3 -- 4;" in out


def test_usage_errors_exit_2(tmp_path, capsys):
    assert run(["bogus"]) == 2
    assert run([]) == 2
    assert run(["generate", "--mode", "pair", "--k", "2",
                "--out", str(tmp_path / "x"), "--trace",
                str(tmp_path / "t")]) == 2
    assert run(["generate", "--mode", "graft", "--k", "3",
                "--out", str(tmp_path / "y"), "--cap", "6"]) == 2
    assert run(["generate", "--mode", "graft", "--k", "0",
                "--out", str(tmp_path / "y")]) == 2
    assert not (tmp_path / "y").exists()
    bad = tmp_path / "bad.graph"
    bad.write_text("{broken")
    assert run(["verify", "--in", str(bad)]) == 2
    assert run(["verify", "--in", str(tmp_path / "missing.graph")]) == 2
    g2 = tmp_path / "g2.graph"
    assert run(["generate", "--mode", "graft", "--k", "2", "--out", str(g2)]) == 0
    assert run(["chroma", "--in", str(g2), "--bounds", "--rainbow", "3", "3"]) == 2
    assert run(["export", "--in", str(g2)]) == 2
    g4 = tmp_path / "g4.graph"
    assert run(["generate", "--mode", "graft", "--k", "4", "--out", str(g4)]) == 0
    assert run(["chroma", "--in", str(g4), "--rainbow", "0", "3"]) == 2
    capsys.readouterr()


def test_cap_errors_exit_3(tmp_path, capsys):
    assert run(["generate", "--mode", "graft", "--k", "9",
                "--out", str(tmp_path / "x")]) == 3
    assert run(["generate", "--mode", "pair", "--k", "6",
                "--out", str(tmp_path / "x")]) == 3
    assert not (tmp_path / "x").exists()
    # the builders keep their own caps: pair 6 is never started
    assert run(["equiv", "--k", "6", "--cap", "6"]) == 3
    capsys.readouterr()


def test_budget_exhaustion_exits_3(tmp_path, capsys):
    path = tmp_path / "g4.graph"
    assert run(["generate", "--mode", "graft", "--k", "4",
                "--out", str(path)]) == 0
    assert run(["verify", "--in", str(path), "--budget", "20000"]) == 3
    capsys.readouterr()


def test_verify_over_threshold_without_budget_exits_3(tmp_path, capsys):
    path = tmp_path / "g4.graph"
    run(["generate", "--mode", "graft", "--k", "4", "--out", str(path)])
    assert run(["verify", "--in", str(path)]) == 3
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()
