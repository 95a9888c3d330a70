"""Command-line front end.

Verbs: generate (build a pair or graft level), verify (certify the five
clean conditions), chroma (chromatic certificates and the rainbow
search), equiv (cross-check the two constructions), fuzz (random legal
op sequences), export (DOT).

Exit codes: 0 success / property holds, 1 property fails with a witness
printed, 2 usage or input error, 3 cap or search budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from .build import EQUIV_CAP, burling_pair, build_graft, check_equivalence
from .coloring import bounds_only, chromatic_number, find_non_rainbow_coloring
from .errors import BurlingError, CapError, SearchBudgetExceeded
from .fuzz import (DEFAULT_MAX_VERTICES, dump_failure, generate_sequence,
                   load_sequence, run_sequence)
from .graph import Graft
from .io import (graph_from_json, graph_to_dot, graph_to_json, trace_to_json,
                 witness_doc)
from .patterns import is_clean

__all__ = ["run", "main"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAP = 3


def _read_graph(path: str):
    with open(path) as fh:
        return graph_from_json(fh.read())


def _write_out(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _compact(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _cmd_generate(a) -> int:
    if a.mode == "pair":
        if a.trace:
            print("error: --trace applies only to graft mode", file=sys.stderr)
            return EXIT_USAGE
        pair = burling_pair(a.k)
        text = graph_to_json(pair.graph, None, name=f"pair-{a.k}")
    else:
        gf, trace = build_graft(a.k)
        text = graph_to_json(gf.graph, gf.tips, name=f"graft-{a.k}")
        if a.trace:
            _write_out(a.trace, trace_to_json(trace))
    _write_out(a.out, text)
    return EXIT_OK


def _cmd_verify(a) -> int:
    g, tips, _name = _read_graph(a.infile)
    gf = Graft(g, frozenset() if tips is None else tips)
    rep = is_clean(gf, budget=a.budget)
    for label, verdict in rep.items():
        if verdict.holds:
            print(f"{label}: HOLDS (explored={verdict.nodes})")
        else:
            print(f"{label}: FAILS witness={_compact(witness_doc(verdict.witness))}")
    return EXIT_OK if rep.all_hold else EXIT_FAIL


def _cmd_chroma(a) -> int:
    g, tips, _name = _read_graph(a.infile)
    if a.rainbow is not None:
        k, c = a.rainbow
        if tips is None:
            print("error: --rainbow needs a graft file with tips", file=sys.stderr)
            return EXIT_USAGE
        col = find_non_rainbow_coloring(Graft(g, tips), k, c)
        if col is None:
            print(f"non-rainbow k={k} c={c}: none")
            if c == k:
                print(f"chi-lower-bound={k + 1}")
        else:
            print(f"non-rainbow k={k} c={c}: {_compact(list(col.colors))}")
        return EXIT_OK
    if a.bounds:
        lo, hi = bounds_only(g)
        print(f"lower={lo} upper={hi}")
        return EXIT_OK
    cert = chromatic_number(g)
    print(f"chi={cert.chi} proof={cert.lower_bound_proof} "
          f"coloring={_compact(list(cert.witness.colors))}")
    return EXIT_OK


def _cmd_equiv(a) -> int:
    perm = check_equivalence(a.k, cap=EQUIV_CAP if a.cap is None else a.cap)
    if perm is None:
        print("not-isomorphic")
        return EXIT_FAIL
    for i, img in enumerate(perm):
        print(f"{i} -> {img}")
    return EXIT_OK


def _cmd_fuzz(a) -> int:
    if a.script:
        seq = load_sequence(a.script, a.seed)
    else:
        seq = generate_sequence(a.seed, a.ops, a.max_vertices)
    res = run_sequence(seq, budget=a.budget)
    if res.ok:
        print(f"ok steps={len(seq.ops)} n={res.final.n} "
              f"tips={len(res.final.tips)}")
        return EXIT_OK
    rep = res.reports[-1]
    for label, verdict in rep.items():
        if not verdict.holds:
            print(f"step {res.failed_at} breaks {label}: "
                  f"witness={_compact(witness_doc(verdict.witness))}")
            break
    sys.stdout.write(seq.script())
    if a.out:
        path = dump_failure(seq, a.out)
        print(f"replay: {path}", file=sys.stderr)
    return EXIT_FAIL


def _cmd_export(a) -> int:
    g, tips, name = _read_graph(a.infile)
    _write_out(a.out, graph_to_dot(g, tips, name=name or "G"))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="burling",
        description="Construct, certify, and cross-check Burling grafts.")
    sub = top.add_subparsers(dest="verb", metavar="verb", required=True)

    p = sub.add_parser("generate", help="build a pair or graft level")
    p.add_argument("--mode", choices=("pair", "graft"), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", required=True, help="output file, - for stdout")
    p.add_argument("--trace", help="also write the construction trace (graft)")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("verify", help="certify the five clean conditions")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--budget", type=int,
                   help="search-node limit per condition")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("chroma", help="chromatic certificates")
    p.add_argument("--in", dest="infile", required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true",
                      help="exact chi (default)")
    mode.add_argument("--bounds", action="store_true",
                      help="cheap lower/upper bounds only")
    mode.add_argument("--rainbow", type=int, nargs=2, metavar=("K", "C"),
                   help="search a proper C-coloring keeping every tip "
                        "below K neighborhood colors")
    p.set_defaults(func=_cmd_chroma)

    p = sub.add_parser("equiv", help="cross-check the two constructions")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--cap", type=int, help="raise the level cap explicitly")
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("fuzz", help="random legal op sequences")
    p.add_argument("--ops", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--script", help="replay this op script instead")
    p.add_argument("--max-vertices", type=int, default=DEFAULT_MAX_VERTICES)
    p.add_argument("--budget", type=int)
    p.add_argument("--out", help="directory for a replayable failure dump")
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("export", help="render a graph file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--dot", action="store_true", required=True,
                   help="GraphViz output")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_export)

    return top


def run(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SearchBudgetExceeded as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_CAP
    except CapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (BurlingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
