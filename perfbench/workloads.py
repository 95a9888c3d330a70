"""The two benchmark workloads: certify and construct.

Each workload has a set-up, which builds the inputs that are not under
test, and a pass, which runs the workload's fixed input set once and
checks every output against a known answer. Every call into the library
is wrapped in a span named ``<layer>.<call>[.<input>]``; outside a
traced pass a span is a shared no-op.

- certify: the search kernel. The CLI generates g3 and g4 and verifies
  g3, ``is_clean`` certifies mid-size fuzz grafts, thousands of tiny
  fuzz sequences and random graphs are cross-checked against the oracle,
  and each clean condition of g4 runs under a wall-clock limit per
  verdict.
- construct: no pattern search. Level construction, JSON io, isomorphism
  and coloring.

A pass's ``decided`` counts only the verdicts held to the per-verdict
limit: on certify the five conditions of g4 and of each mid-size graft,
on construct the colorings, bounds and equivalence. The CLI check and the
thousands of tiny inputs run without a limit, so they could never be
undecided and would only dilute the count; their calls are per-layer
counts instead.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass

from spans import Tracer

# Known answers. Every output of a pass is checked against these, and a
# mismatch makes the run fail.
EXPECTED = {
    # build_graft(k) -> (vertices, tips)
    "graft_sizes": {1: (2, 1), 2: (5, 2), 3: (21, 8), 4: (309, 128)},
    # burling_pair(k) -> (vertices, stable sets)
    "pair_sizes": {3: (13, 8), 5: (39733, 32768)},
    # exact chromatic numbers; G'3 is the level-3 pair graph
    "chi": {"G2": 3, "G3": 4, "G'3": 3},
    # chi(G4) = 5, so any valid upper bound on G4 is at least 5
    "chi_g4": 5,
    # find_non_rainbow_coloring(g3, 3, 3): no such coloring exists
    "rainbow_g3": None,
    # grafts the CLI verifies and the fuzz grafts are clean, and every
    # clean condition of g4 that is decided holds
    "clean": True,
}


@dataclass(frozen=True)
class Sizes:
    """Input sizes. Span and metric names keep the full-size labels
    (``k5``, ``p5``) when a smaller size is used for a quick check."""

    limit_s: float = 10.0          # wall-clock limit per verdict
    mid_grafts: int = 24           # certify: fuzz grafts given to is_clean
    mid_ops: int = 100
    mid_max_vertices: int = 200
    mid_edges: tuple = (165, 180)  # keep grafts of about 130 vertices
    fuzz_sequences: int = 1000     # certify: tiny fuzz sequences
    small_graphs: int = 2000       # certify: random graphs, n <= 10
    pair_level: int = 5            # construct


FULL = Sizes()
MID_STREAM = 0  # seed of the fuzz seeds behind certify's mid-size grafts


class Pass:
    """Items, verdicts, checks and counters of one pass."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.item_s: list[float] = []
        self.verdicts = 0
        self.decided = 0
        self.failed = 0      # items with a wrong answer or an exception
        self.undecided = 0   # items with a verdict left open at the limit
        self.wrong: list[str] = []
        self.counts: Counter = Counter()
        self.wall_s = 0.0
        self._item_ok = True
        self._item_open = False

    def span(self, name: str):
        return self.tracer.span(name, len(self.item_s))

    @contextlib.contextmanager
    def item(self, what: str):
        """Time one item. An exception from the library fails the item
        and the run, but the pass goes on with the next item."""
        self._item_ok = True
        self._item_open = False
        t0 = time.perf_counter()
        try:
            with self.span("bench.item"):
                yield
        except Exception as exc:  # the item boundary keeps the pass going
            traceback.print_exc(file=sys.stderr)
            self.check(False, f"{what}: raised {exc!r}")
        finally:
            self.item_s.append(time.perf_counter() - t0)
            if not self._item_ok:
                self.failed += 1
            elif self._item_open:
                self.undecided += 1

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self._item_ok = False
            self.wrong.append(what)

    def verdict(self, decided: bool, n: int = 1) -> None:
        """Count n verdicts held to the per-verdict limit."""
        self.verdicts += n
        if decided:
            self.decided += n
        else:
            self._item_open = True

    @contextlib.contextmanager
    def timed_verdict(self, name: str, limit_s: float):
        """Span ``name`` around one verdict whose call takes no budget. It
        runs to the end, and counts as decided only if it finished within
        the limit."""
        t0 = time.perf_counter()
        with self.span(name):
            yield
        self.verdict(time.perf_counter() - t0 <= limit_s)


def deadline_budget_class(bl):
    """A SearchBudget that also ends the search at a wall-clock deadline.

    The detectors call ``spend`` once per batch of nodes, so the deadline
    is checked at that granularity. Running out raises
    SearchBudgetExceeded, which the library never reports as HOLDS.
    """

    class DeadlineBudget(bl.SearchBudget):
        __slots__ = ("deadline",)

        def __init__(self, seconds: float):
            super().__init__(None)
            self.deadline = time.monotonic() + seconds

        def spend(self, k: int) -> None:
            super().spend(k)
            if time.monotonic() > self.deadline:
                raise bl.SearchBudgetExceeded(self.nodes, "timed search")

    return DeadlineBudget


def apply_ops(bl, seq):
    """The graft a fuzz sequence builds, without certifying each step."""
    gf = bl.Graft(bl.Graph.from_edges(2, [(0, 1)]), frozenset({1}))
    for op in seq.ops:
        if op[0] == "pendent":
            gf, _ = bl.pendent(gf, op[1])
        elif op[0] == "clone":
            gf, _ = bl.clone(gf, op[1])
        else:
            gf, _ = bl.join(gf, list(op[1]), seq.sides[op[2]])
    return gf


def same_graft(a, b) -> bool:
    # Graph.__eq__ compares the adjacency containers, and the graft
    # operations leave a list where a parsed graph has a tuple.
    return tuple(a.graph.adj) == tuple(b.graph.adj) and a.tips == b.tips


def run_cli(bl, argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = bl.cli.run(argv)
    return code, out.getvalue(), err.getvalue()


# -- certify ----------------------------------------------------------------

def certify_setup(bl, seed: int, sz: Sizes) -> dict:
    grafts = {k: bl.build_graft(k)[0] for k in (3, 4)}
    # The fuzz grafts come from a fixed stream, not from the seed: their
    # is_clean times vary by a third from graft to graft, so a different
    # two dozen per seed would add to the spread between runs.
    rng = random.Random(MID_STREAM)
    lo, hi = sz.mid_edges
    mid = []
    while len(mid) < sz.mid_grafts:
        seq = bl.fuzz.generate_sequence(
            rng.randrange(2**32), sz.mid_ops, sz.mid_max_vertices)
        gf = apply_ops(bl, seq)
        if lo <= gf.graph.edge_count() <= hi:
            mid.append(gf)
    return {"grafts": grafts, "mid": mid, "deadline": deadline_budget_class(bl),
            **small_inputs(bl, seed, sz)}


def certify_pass(p: Pass, bl, inp: dict, sz: Sizes, exp: dict, work: str):
    grafts, Deadline = inp["grafts"], inp["deadline"]
    paths = {}
    for k in (3, 4):
        paths[k] = os.path.join(work, f"g{k}.graph")
        with p.item(f"cli generate g{k}"):
            with p.span(f"cli.generate.g{k}"):
                code, _, err = run_cli(bl, ["generate", "--mode", "graft", "--k",
                                            str(k), "--out", paths[k]])
            p.check(code == 0, f"generate g{k}: exit {code} {err.strip()}")
            with open(paths[k]) as fh:
                p.check(same_graft(bl.io.load_graft(fh), grafts[k]),
                        f"generate g{k}: file differs from build_graft({k})")

    with p.item("cli verify g3"):
        with p.span("cli.verify.g3"):
            code, out, err = run_cli(bl, ["verify", "--in", paths[3]])
        holds = sum(": HOLDS " in line for line in out.splitlines())
        p.check(code == 0 and holds == 5,
                f"verify g3: exit {code}, {holds}/5 conditions hold {err.strip()}")

    for i, gf in enumerate(inp["mid"]):
        with p.item(f"is_clean mid {i}"):
            b = Deadline(sz.limit_s)
            try:
                with p.span("patterns.is_clean.mid"):
                    rep = bl.is_clean(gf, budget=b)
            except bl.SearchBudgetExceeded:
                p.verdict(False, 5)
                p.counts["patterns.is_clean.mid.nodes"] += b.nodes
                continue
            p.verdict(True, 5)
            p.counts["patterns.is_clean.mid.nodes"] += rep.nodes
            p.counts["patterns.wheel.mid.nodes"] += rep.wheel_free.nodes
            p.counts["patterns.guarded_fan.mid.nodes"] += rep.no_guarded_fan.nodes
            p.counts["patterns.mountable_path.mid.nodes"] += rep.no_mountable_path.nodes
            p.check(rep.all_hold == exp["clean"], f"mid graft {i}: clean={rep.all_hold}")

    small_pass(p, bl, inp, exp)

    g4 = grafts[4]
    with p.item("g4 stable"):
        with p.timed_verdict("graph.stable.g4", sz.limit_s):
            stable = g4.graph.is_stable_set(g4.tips)
        p.check(stable == exp["clean"], "g4 tips are not stable")
    searches = (
        ("triangle", lambda b: bl.find_triangle(g4.graph, budget=b)),
        ("wheel", lambda b: bl.find_wheel(g4.graph, 3, budget=b, threads=1)),
        ("guarded_fan", lambda b: bl.find_guarded_fan(g4, budget=b)),
        ("mountable_path", lambda b: bl.find_mountable_path(g4, budget=b)),
    )
    for name, search in searches:
        key = f"patterns.{name}.g4"
        with p.item(key):
            b = Deadline(sz.limit_s)
            t0 = time.perf_counter()
            try:
                with p.span(key):
                    w = search(b)
            except bl.SearchBudgetExceeded:
                w, decided = None, False
            else:
                decided = True
            p.verdict(decided)
            p.counts[f"{key}.nodes"] = b.nodes
            p.counts[f"{key}.decided"] = int(decided)
            p.counts[f"{key}.nodes_per_s"] = b.nodes / (time.perf_counter() - t0)
            p.check((w is None) == exp["clean"], f"g4 {name}: witness {w}")


# -- tiny inputs, part of certify ------------------------------------------------

def small_inputs(bl, seed: int, sz: Sizes) -> dict:
    rng = random.Random(seed)
    fuzz_seeds = [rng.randrange(2**32) for _ in range(sz.fuzz_sequences)]
    graphs = []
    for _ in range(sz.small_graphs):
        n = rng.randint(2, 10)  # the oracle is exponential in n
        prob = rng.uniform(0.1, 0.5)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < prob]
        tips = frozenset(rng.sample(range(n), rng.randint(1, min(4, n))))
        graphs.append(bl.Graft(bl.Graph.from_edges(n, edges), tips))
    return {"fuzz_seeds": fuzz_seeds, "graphs": graphs}


def small_pass(p: Pass, bl, inp: dict, exp: dict):
    """Fuzz sequences and random graphs: the same detectors on thousands of
    tiny inputs, where per-call overhead and the oracle dominate."""
    fuzz = bl.fuzz
    real_is_clean = fuzz.is_clean
    if p.tracer.enabled:
        # run_sequence calls is_clean once per step; give each call a span
        def traced_is_clean(*args, **kwargs):
            with p.span("patterns.is_clean.fuzz"):
                return real_is_clean(*args, **kwargs)
        fuzz.is_clean = traced_is_clean
    try:
        for s in inp["fuzz_seeds"]:
            with p.item(f"fuzz seed {s}"):
                with p.span("fuzz.generate"):
                    seq = fuzz.generate_sequence(s, 8, 40)
                with p.span("fuzz.run"):
                    res = fuzz.run_sequence(seq)
                p.counts["fuzz.run.steps"] += len(seq.ops)
                p.counts["patterns.is_clean.fuzz.nodes"] += sum(r.nodes for r in res.reports)
                p.check(res.ok == exp["clean"], f"fuzz seed {s}: broke at step {res.failed_at}")
    finally:
        fuzz.is_clean = real_is_clean

    detectors = (
        ("triangle", "triangle", lambda gf: bl.find_triangle(gf.graph)),
        ("hole", "hole", lambda gf: next(bl.find_hole(gf.graph), None)),
        ("wheel", "wheel", lambda gf: bl.find_wheel(gf.graph, 3)),
        ("theta", "theta", lambda gf: bl.find_theta(gf.graph)),
        ("fan", "fan", lambda gf: bl.find_fan(gf.graph, 3)),
        ("guarded_fan", "guarded-fan", bl.find_guarded_fan),
        ("mountable_path", "mountable-path", bl.find_mountable_path),
    )
    for i, gf in enumerate(inp["graphs"]):
        with p.item(f"small graph {i}"):
            found = {}
            for name, kind, fn in detectors:
                with p.span(f"patterns.{name}.small"):
                    found[kind] = fn(gf)
            p.counts["patterns.small.calls"] += len(detectors)
            with p.span("oracle.scan"):
                truth = bl.oracle_scan(gf.graph, gf.tips)
            for kind, w in found.items():
                agree = (w is not None) == truth[kind]
                p.counts["oracle.compared"] += 1
                p.counts["oracle.agreed"] += agree
                p.check(agree, f"small graph {i}: {kind} detector disagrees with oracle")
                if w is None:
                    continue
                with p.span("witness.validate"):
                    valid = bl.validate_witness(gf.graph, gf.tips, w)
                p.counts["witness.checked"] += 1
                p.counts["witness.valid"] += valid
                p.check(valid, f"small graph {i}: invalid {kind} witness {w}")


# -- construct --------------------------------------------------------------

def construct_setup(bl, seed: int, sz: Sizes) -> dict:
    # The constructions are deterministic; the seed changes nothing here.
    return {}


def construct_pass(p: Pass, bl, inp: dict, sz: Sizes, exp: dict, work: str):
    k = sz.pair_level
    with p.item("burling_pair"):
        with p.span("build.pair.k5"):
            pair = bl.burling_pair(k)
        size = (pair.graph.n, len(pair.stables))
        p.check(size == exp["pair_sizes"][k], f"pair {k}: size {size}")

    with p.item("graft_from_pair"):
        with p.span("build.graft_from_pair.k5"):
            gp = bl.graft_from_pair(pair)
        p.check(gp.n == size[0] + size[1] and len(gp.tips) == size[1],
                f"graft from pair {k}: {gp}")
        del gp

    path = os.path.join(work, f"pair{k}.graph")
    with p.item("dump"):
        with p.span("io.dump.p5"):
            with open(path, "w") as fh:
                bl.io.dump_graph(pair.graph, fh, name=f"pair-{k}")
        p.counts["io.dump.p5.bytes"] = os.path.getsize(path)
    with p.item("load"):
        with p.span("io.load.p5"):
            with open(path) as fh:
                loaded = bl.io.load_graph(fh)
        p.check(loaded == pair.graph, f"pair {k}: io round trip changed the graph")
        del loaded
    os.remove(path)

    with p.item("bounds prefix"):
        prefix, _ = pair.graph.induced_subgraph(range(min(2000, size[0])))
        with p.timed_verdict("coloring.bounds.p5_prefix", sz.limit_s):
            lo, hi = bl.bounds_only(prefix)
        # the prefix holds pair k-1 (ids 0..), whose chromatic number is k-1
        p.check(lo == 3 and hi >= k - 1, f"pair {k} prefix bounds ({lo}, {hi})")
    del pair, prefix

    top = 4  # build_graft(1..4), replay and equivalence at level 4
    grafts = {}
    with p.item("build_graft"):
        for level in range(1, top + 1):
            with p.span(f"build.graft.k{level}"):
                grafts[level], trace = bl.build_graft(level)
            got = (grafts[level].n, len(grafts[level].tips))
            p.check(got == exp["graft_sizes"][level], f"graft {level}: size {got}")
    with p.item("replay_trace"):
        with p.span("build.replay.k4"):
            again = bl.replay_trace(trace)
        p.check(again == grafts[top], f"replay of level {top} is not bit-exact")

    with p.item("check_equivalence"):
        with p.timed_verdict("iso.equiv.k4", sz.limit_s):
            perm = bl.check_equivalence(top, cap=top)
        a = bl.graft_from_pair(bl.burling_pair(top))
        b = grafts[top]
        ok = (perm is not None
              and {perm[t] for t in a.tips} == set(b.tips)
              and a.graph.edge_count() == b.graph.edge_count()
              and all(b.graph.adj[perm[u]] >> perm[v] & 1 for u, v in a.graph.edges()))
        p.check(ok, f"equivalence at level {top}: bad or missing bijection")

    g3 = grafts[3]
    with p.item("pair 3"):
        with p.span("build.pair.k3"):
            pair3 = bl.burling_pair(3).graph
    for label, g in (("G2", grafts[2].graph), ("G3", g3.graph), ("G'3", pair3)):
        with p.item(f"chi {label}"):
            with p.timed_verdict("coloring.exact", sz.limit_s):
                cert = bl.chromatic_number(g)
            p.check(cert.chi == exp["chi"][label] and cert.witness.count == cert.chi
                    and bl.is_proper(g, cert.witness), f"chi({label}) = {cert.chi}")
    with p.item("rainbow"):
        with p.timed_verdict("coloring.rainbow", sz.limit_s):
            col = bl.find_non_rainbow_coloring(g3, 3, 3)
        p.check(col == exp["rainbow_g3"], f"non-rainbow coloring of g3: {col}")
    with p.item("bounds g4"):
        with p.timed_verdict("coloring.bounds.g4", sz.limit_s):
            lo, hi = bl.bounds_only(grafts[top].graph)
        p.check(lo == 3 and hi >= exp["chi_g4"], f"g4 bounds ({lo}, {hi})")


WORKLOADS = {
    "certify": (certify_setup, certify_pass),
    "construct": (construct_setup, construct_pass),
}
