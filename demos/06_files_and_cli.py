# File formats and the command line, end to end.
#
# Everything the library computes is reachable from the `burling`
# executable: generate writes the canonical .graph JSON, verify prints
# one line per clean condition (exit 0 all hold, 1 any fails, 2 bad
# input, 3 budget or cap exceeded), chroma/equiv/fuzz/export cover the
# rest. Here the CLI is driven in-process through run().

import tempfile
from pathlib import Path

from burling.cli import run
from burling.io import graph_from_json, load_graft

with tempfile.TemporaryDirectory() as name:
    tmp = Path(name)

    out = tmp / "g3.graph"
    code = run(["generate", "--mode", "graft", "--k", "3",
                "--out", str(out), "--trace", str(tmp / "g3.trace")])
    print("generate exit:", code)
    print("file starts:", out.read_text().splitlines()[0:2])

    with open(out) as fh:
        gf = load_graft(fh)
    print("parsed back:", gf.graph.n, "vertices,", len(gf.tips), "tips")

    print()
    print("verify output:")
    code = run(["verify", "--in", str(out)])
    print("verify exit:", code)

    print()
    code = run(["chroma", "--in", str(out), "--rainbow", "3", "3"])
    print("chroma --rainbow exit:", code)

    # a deliberately broken file to show the error path
    bad = tmp / "bad.graph"
    bad.write_text('{"n": 3, "edges": [[0, 99]]}')
    print()
    print("broken input exit:", run(["verify", "--in", str(bad)]))

    dot = tmp / "g3.dot"
    code = run(["export", "--in", str(out), "--dot", "--out", str(dot)])
    print()
    print("export exit:", code, "- DOT preview:")
    print("\n".join(dot.read_text().splitlines()[:4]))
