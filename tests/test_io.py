"""Serialization round-trips and rejection of malformed input."""

import io as stdio
import json

import pytest

from burling import Graph, Graft, Witness, FormatError, build_graft
from burling.io import (
    graph_to_json, graph_from_json, dump_graft, load_graft, graph_to_dot,
    witness_doc, witness_to_json, witness_from_json,
    format_script, parse_script, MAX_FILE_VERTICES,
)


def test_graph_round_trip():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    text = graph_to_json(g, None, name="p4")
    back, tips, name = graph_from_json(text)
    assert back == g
    assert tips is None
    assert name == "p4"


def test_serialization_is_byte_stable():
    g = Graph.from_edges(3, [(2, 0), (0, 1)])
    h = Graph.from_edges(3, [(0, 1), (0, 2)])
    assert graph_to_json(g) == graph_to_json(h)


def test_graft_round_trip_keeps_tips():
    gf = Graft(Graph.from_edges(3, [(0, 1), (1, 2)]), frozenset({0, 2}))
    buf = stdio.StringIO()
    dump_graft(gf, buf, name="tiny")
    buf.seek(0)
    back = load_graft(buf)
    assert back.graph == gf.graph
    assert back.tips == gf.tips


def test_built_graft_equals_its_round_trip_and_hashes():
    gf, _ = build_graft(3)
    buf = stdio.StringIO()
    dump_graft(gf, buf)
    buf.seek(0)
    back = load_graft(buf)
    assert back == gf
    assert hash(back) == hash(gf)


def test_load_graft_requires_tips_key():
    text = graph_to_json(Graph.from_edges(2, [(0, 1)]))
    with pytest.raises(FormatError):
        load_graft(stdio.StringIO(text))


@pytest.mark.parametrize("text", [
    "not json",
    "[1, 2]",
    '{"edges": []}',
    '{"n": 2}',
    '{"n": 2, "edges": [], "bogus": 1}',
    '{"n": "2", "edges": []}',
    '{"n": true, "edges": []}',
    '{"n": 2, "edges": [[0]]}',
    '{"n": 2, "edges": [[0, 1, 2]]}',
    '{"n": 2, "edges": [[0, 0]]}',
    '{"n": 2, "edges": [[0, 5]]}',
    '{"n": 2, "edges": [[true, 1]]}',
    '{"n": 2, "edges": [[0, 1.5]]}',
    '{"n": 2, "edges": [["0", 1]]}',
    '{"n": 2, "edges": [], "tips": [9]}',
    '{"n": 2, "edges": [], "tips": 3}',
    '{"n": 2, "edges": [], "name": 7}',
    '{"n": %d, "edges": []}' % (MAX_FILE_VERTICES + 1),
])
def test_malformed_graph_docs_rejected(text):
    with pytest.raises(FormatError):
        graph_from_json(text)


def test_dot_output_marks_tips():
    gf = Graft(Graph.from_edges(3, [(0, 1), (1, 2)]), frozenset({2}))
    dot = graph_to_dot(gf.graph, gf.tips, name="t")
    assert "2 [shape=box];" in dot
    assert "0 [shape=circle];" in dot
    assert "0 -- 1;" in dot
    assert dot.startswith('graph "t" {')


def test_witness_round_trip():
    w = Witness("wheel", (0, 4, 3, 2, 1), center=5, k=3, hits=(0, 1, 2))
    back = witness_from_json(witness_to_json(w))
    assert back == w
    # compact dict form round-trips too
    back2 = witness_from_json(json.dumps(witness_doc(w)))
    assert back2 == w


def test_witness_defaults_omitted():
    doc = witness_doc(Witness("triangle", (0, 1, 2)))
    assert set(doc) == {"kind", "vertices"}


@pytest.mark.parametrize("text", [
    '{"vertices": [0, 1, 2]}',
    '{"kind": "triangle"}',
    '{"kind": "no-such", "vertices": [0]}',
    '{"kind": "triangle", "vertices": [0, 1, 2], "extra": 1}',
    '[0, 1, 2]',
    '{"kind": "triangle", "vertices": "abc"}',
    '{"kind": "triangle", "vertices": [0, 1, true]}',
    '{"kind": "triangle", "vertices": [0, 1, 2.0]}',
    '{"kind": "wheel", "vertices": [0, 1, 2, 3], "hits": "01"}',
    '{"kind": "wheel", "vertices": [0, 1, 2, 3], "center": "4"}',
    '{"kind": "wheel", "vertices": [0, 1, 2, 3], "center": 4, "k": "3"}',
    '{"kind": "theta", "vertices": [0, 4], "paths": [[0, 1, 4], "024"]}',
    '{"kind": "theta", "vertices": [0, 4], "paths": 7}',
])
def test_malformed_witness_docs_rejected(text):
    with pytest.raises(FormatError):
        witness_from_json(text)


@pytest.mark.parametrize("name, written", [
    ("side0.graph", "side0.graph"),
    ("side 0.graph", "'side 0.graph'"),
    ("a#b.graph", "'a#b.graph'"),
], ids=["plain", "space", "hash"])
def test_script_round_trip(name, written):
    ops = [("pendent", 3), ("clone", 0), ("join", (1, 2), name)]
    text = format_script(ops)
    assert text.splitlines() == [
        "pendent 3", "clone 0", f"join 1 2 @{written}"]
    assert parse_script(text) == ops


def test_script_comments_and_blanks_skip():
    text = "# setup\n\npendent 1  # leaf\n"
    assert parse_script(text) == [("pendent", 1)]


@pytest.mark.parametrize("line", [
    "pendent",
    "pendent x",
    "clone 1 2",
    "join @side.graph",
    "join 1 2 side.graph",
    "warp 3",
])
def test_bad_script_lines_rejected(line):
    with pytest.raises(FormatError):
        parse_script(line + "\n")
