"""Serialization: graph/graft JSON, DOT export, witness JSON, op scripts,
construction traces. Every file format of the package lives here.

The JSON graph format is deliberately tiny::

    {"edges": [[0, 1], [1, 2]], "n": 3, "tips": [0, 2]}

``n`` and ``edges`` are required; ``tips`` and ``name`` are optional.
Edges are stored with u < v and sorted lexicographically, keys sorted,
one key per line, so equal objects serialize to identical bytes.
"""

from __future__ import annotations

import json
import shlex
from itertools import chain

from .graph import Graph, Graft
from .witness import Witness
from .errors import BurlingError, FormatError, InvalidArgumentError

# Annotations are never evaluated, so TextIO needs no import.

__all__ = [
    "graph_to_json", "graph_from_json",
    "dump_graph", "load_graph", "dump_graft", "load_graft",
    "graph_to_dot", "witness_doc", "witness_to_json", "witness_from_json",
    "format_script", "parse_script", "trace_to_json", "MAX_FILE_VERTICES",
]

_GRAPH_KEYS = {"n", "edges", "tips", "name"}

# Largest vertex count a graph file may declare. A file's n sizes the
# adjacency rows before any edge is read, so it is checked first. The
# largest graph the CLI writes, graft level 5, has 72,501 vertices.
MAX_FILE_VERTICES = 1 << 17


def graph_to_json(g: Graph, tips: frozenset[int] | None = None,
                  name: str | None = None) -> str:
    """Byte-stable JSON text for a graph (graft when tips is given). The
    edge list is the repr of g.edges() with brackets for its tuples'
    parentheses: the text json.dumps writes for a list of integer
    pairs, without building a list per edge."""
    edges = repr(g.edges()).replace("(", "[").replace(")", "]")
    values = {"n": str(g.n), "edges": edges}
    if tips is not None:
        values["tips"] = json.dumps(sorted(tips))
    if name is not None:
        values["name"] = json.dumps(name)
    lines = (f" {json.dumps(k)}: {values[k]}" for k in sorted(values))
    return "{\n" + ",\n".join(lines) + "\n}\n"


def _checked_doc(text: str, keys: set[str], required: tuple[str, ...]) -> dict:
    """The JSON object in text, with no key outside keys and every key
    of required."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError("top level must be a JSON object")
    unknown = set(doc) - keys
    if unknown:
        raise FormatError(f"unknown keys: {sorted(unknown)}")
    for key in required:
        if key not in doc:
            raise FormatError(f"missing required key {key!r}")
    return doc


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _int_list(x, what: str) -> list[int]:
    if not isinstance(x, list) or not all(map(_is_int, x)):
        raise FormatError(f"{what} must be a list of integers")
    return x


def graph_from_json(text: str) -> tuple[Graph, frozenset[int] | None, str | None]:
    """Parse graph JSON; returns (graph, tips or None, name or None)."""
    doc = _checked_doc(text, _GRAPH_KEYS, ("n", "edges"))
    n = doc["n"]
    if not _is_int(n) or n < 0:
        raise FormatError("'n' must be a non-negative integer")
    if n > MAX_FILE_VERTICES:
        raise FormatError(f"'n' is {n}, above the limit of "
                          f"{MAX_FILE_VERTICES} vertices")
    edges = doc["edges"]
    if not isinstance(edges, list):
        raise FormatError("'edges' must be a list")
    # decoded JSON holds exact lists and ints, so these whole-list type
    # tests are _is_int's; the loop only names the first bad entry
    if not (set(map(type, edges)) <= {list} and set(map(len, edges)) <= {2}
            and set(map(type, chain.from_iterable(edges))) <= {int}):
        for item in edges:
            if (not isinstance(item, list) or len(item) != 2
                    or not all(map(_is_int, item))):
                raise FormatError(f"bad edge entry: {item!r}")
    try:
        g = Graph.from_edges(n, edges)
    except BurlingError as exc:
        raise FormatError(f"bad graph data: {exc}") from exc
    tips = None
    if "tips" in doc:
        tips = frozenset(_int_list(doc["tips"], "'tips'"))
        bad = [t for t in tips if not 0 <= t < n]
        if bad:
            raise FormatError(f"tips out of range: {sorted(bad)}")
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise FormatError("'name' must be a string")
    return g, tips, name


def dump_graph(g: Graph, fh: TextIO, name: str | None = None) -> None:
    fh.write(graph_to_json(g, None, name))


def load_graph(fh: TextIO) -> Graph:
    g, _tips, _name = graph_from_json(fh.read())
    return g


def dump_graft(gr: Graft, fh: TextIO, name: str | None = None) -> None:
    fh.write(graph_to_json(gr.graph, gr.tips, name))


def load_graft(fh: TextIO) -> Graft:
    g, tips, _name = graph_from_json(fh.read())
    if tips is None:
        raise FormatError("graft file must carry a 'tips' key")
    return Graft(g, tips)


def graph_to_dot(g: Graph, tips: frozenset[int] | None = None,
                 name: str = "G") -> str:
    """GraphViz text; tip vertices render as boxes."""
    lines = [f"graph {json.dumps(name)} {{"]
    tips = tips or frozenset()
    for v in range(g.n):
        shape = "box" if v in tips else "circle"
        lines.append(f'  {v} [shape={shape}];')
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


_WITNESS_KEYS = {"kind", "vertices", "center", "k", "hits", "paths"}


def witness_doc(w: Witness) -> dict:
    """Plain-dict form of a witness; defaults are omitted."""
    doc: dict = {"kind": w.kind, "vertices": list(w.vertices)}
    if w.center is not None:
        doc["center"] = w.center
    if w.k:
        doc["k"] = w.k
    if w.hits:
        doc["hits"] = list(w.hits)
    if w.paths:
        doc["paths"] = [list(p) for p in w.paths]
    return doc


def witness_to_json(w: Witness) -> str:
    return json.dumps(witness_doc(w), sort_keys=True, indent=1) + "\n"


def witness_from_json(text: str) -> Witness:
    doc = _checked_doc(text, _WITNESS_KEYS, ("kind", "vertices"))
    for key in ("center", "k"):
        if key in doc and not _is_int(doc[key]):
            raise FormatError(f"{key!r} must be an integer")
    paths = doc.get("paths", [])
    if not isinstance(paths, list):
        raise FormatError("'paths' must be a list of integer lists")
    try:
        return Witness(
            kind=doc["kind"],
            vertices=tuple(_int_list(doc["vertices"], "'vertices'")),
            center=doc.get("center"),
            k=doc.get("k", 0),
            hits=tuple(_int_list(doc.get("hits", []), "'hits'")),
            paths=tuple(tuple(_int_list(p, "each path")) for p in paths),
        )
    except InvalidArgumentError as exc:
        raise FormatError(f"bad witness data: {exc}") from exc


def format_script(ops: list) -> str:
    """Render a list of op descriptors to script text.

    Each descriptor is a tuple: ("pendent", t), ("clone", t), or
    ("join", xs, path) where path names a side-graft file; a path
    that a shell would split or cut (a space, a ``#``) is quoted.
    """
    lines = []
    for desc in ops:
        if desc[0] == "pendent" or desc[0] == "clone":
            lines.append(f"{desc[0]} {desc[1]}")
        elif desc[0] == "join":
            xs = " ".join(str(x) for x in desc[1])
            lines.append(f"join {xs} @{shlex.quote(desc[2])}")
        else:
            raise FormatError(f"unknown op {desc[0]!r}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_script(text: str) -> list:
    """Parse script text back to op descriptors (inverse of format_script).

    Grammar, one op per line, split into words as a POSIX shell does
    (``shlex``): quotes group a word and an unquoted ``#`` starts a
    comment::

        pendent <t>
        clone <t>
        join <x1> <x2> ... @<graft-file>
    """
    ops = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        try:
            parts = shlex.split(raw, comments=True)
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
        if not parts:
            continue
        verb = parts[0]
        if verb in ("pendent", "clone"):
            if len(parts) != 2:
                raise FormatError(f"line {lineno}: {verb} takes one vertex")
            try:
                ops.append((verb, int(parts[1])))
            except ValueError:
                raise FormatError(f"line {lineno}: bad vertex {parts[1]!r}") from None
        elif verb == "join":
            if len(parts) < 3 or not parts[-1].startswith("@"):
                raise FormatError(
                    f"line {lineno}: join needs vertices then @<graft-file>")
            try:
                xs = tuple(int(p) for p in parts[1:-1])
            except ValueError:
                raise FormatError(f"line {lineno}: bad vertex list") from None
            ops.append(("join", xs, parts[-1][1:]))
        else:
            raise FormatError(f"line {lineno}: unknown op {verb!r}")
    return ops


def _record_doc(rec) -> dict:
    doc: dict = {"op": rec.op, "created": list(rec.created)}
    if rec.target is not None:
        doc["target"] = rec.target
    if rec.x:
        doc["x"] = list(rec.x)
    if rec.identified is not None:
        doc["identified"] = {str(s): h for s, h in sorted(rec.identified.items())}
    return doc


def trace_to_json(trace) -> str:
    """JSON text of a ConstructionTrace: per level, the template, host and
    join records plus the provenance tags."""
    doc = {
        "k": trace.k,
        "levels": [
            {
                "level": lv.level,
                "template": [_record_doc(r) for r in lv.template_records],
                "host": [_record_doc(r) for r in lv.host_records],
                "joins": [_record_doc(r) for r in lv.join_records],
                "provenance": [list(tag) for tag in lv.provenance],
            }
            for lv in trace.levels
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"
