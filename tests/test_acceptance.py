"""Acceptance gate: the ten headline criteria, one test and one
printed pass/fail line each. Run with -s (or -v) to see the lines.

Each test times itself against the stated tolerance and fails loudly
rather than silently truncating any search: a budgeted run that exhausts
its node budget raises, so every verdict here is a finished search.
"""

import random
import time

from burling import (
    Graph, Graft, SearchBudget,
    build_graft, burling_pair, graft_from_pair, check_equivalence,
    graft_isomorphic, is_clean, find_triangle, find_hole, find_wheel,
    find_theta, find_fan, find_guarded_fan, find_mountable_path,
    oracle_scan, chromatic_number, find_non_rainbow_coloring, is_proper,
    validate_witness,
)
from burling.fuzz import generate_sequence, run_sequence

from conftest import make_random_graph


def _report(num: int, name: str, ok: bool, detail: str, t0: float, limit: float):
    elapsed = time.monotonic() - t0
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"[{status}] criterion {num} ({name}): {detail} [{elapsed:.2f}s / {limit:.0f}s]")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < limit, f"criterion {num} overran: {elapsed:.2f}s >= {limit}s"


def test_criterion_1_construction_sizes():
    t0 = time.monotonic()
    graft_want = {1: (2, 1), 2: (5, 2), 3: (21, 8), 4: (309, 128)}
    pair_want = {1: (1, 1), 2: (3, 2), 3: (13, 8), 4: (181, 128)}
    graft_got = {}
    pair_got = {}
    for k in range(1, 5):
        gf, _ = build_graft(k)
        graft_got[k] = (gf.n, len(gf.tips))
        p = burling_pair(k)
        pair_got[k] = (p.graph.n, len(p.stables))
    ok = graft_got == graft_want and pair_got == pair_want
    _report(1, "construction sizes", ok,
            f"grafts {graft_got}, pairs {pair_got}", t0, 1.0)


def test_criterion_2_g2_structure():
    t0 = time.monotonic()
    gf, _ = build_graft(2)
    c5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    hand = Graft(c5, frozenset({0, 2}))  # distance-2 tips on a C5
    perm = graft_isomorphic(gf, hand)
    _report(2, "level-2 graft is a C5 with distance-2 tips",
            perm is not None, f"bijection={perm}", t0, 1.0)


def test_criterion_3_wheel_freeness():
    t0 = time.monotonic()
    details = []
    ok = True
    for k in (1, 2, 3):
        gf, _ = build_graft(k)
        p = burling_pair(k)
        wg = find_wheel(gf.graph, 3)
        wp = find_wheel(p.graph, 3)
        ok = ok and wg is None and wp is None
    exhaustive_elapsed = time.monotonic() - t0
    ok = ok and exhaustive_elapsed < 10.0
    details.append(f"k<=3 exhaustive: no wheel ({exhaustive_elapsed:.2f}s)")
    g4, _ = build_graft(4)
    budget = SearchBudget(10_000_000)
    w4 = find_wheel(g4.graph, 3, budget=budget)
    ok = ok and w4 is None
    details.append(f"k=4 exhaustive in {budget.nodes} nodes: no wheel")
    _report(3, "wheel-freeness", ok, "; ".join(details), t0, 120.0)


def test_criterion_4_clean_certification():
    t0 = time.monotonic()
    ok = True
    nodes = []
    for k in (1, 2, 3):
        gf, _ = build_graft(k)
        rep = is_clean(gf)
        ok = ok and rep.all_hold
        nodes.append(rep.nodes)
    _report(4, "clean certification k<=3", ok,
            f"all five conditions hold, nodes={nodes}", t0, 60.0)


def test_criterion_5_operation_closure():
    t0 = time.monotonic()
    failures = []
    for seed in range(1000):
        seq = generate_sequence(seed, 8, 40)
        res = run_sequence(seq)
        if not res.ok:
            failures.append(seed)
            print(f"seed {seed} broke clean at step {res.failed_at}; script:")
            print(seq.script())
    _report(5, "1000 random op sequences stay clean", not failures,
            f"failures={failures or 'none'}", t0, 300.0)


def test_criterion_6_construction_equivalence():
    t0 = time.monotonic()
    ok = True
    for k in (1, 2, 3):
        perm = check_equivalence(k)
        if perm is None:
            ok = False
            continue
        a = graft_from_pair(burling_pair(k))
        b, _ = build_graft(k)
        ok = ok and {perm[t] for t in a.tips} == set(b.tips)
        ok = ok and all(b.graph.has_edge(perm[u], perm[v])
                        for u, v in a.graph.edges())
        ok = ok and a.graph.edge_count() == b.graph.edge_count()
    _report(6, "pair and graft constructions isomorphic k=1..3", ok,
            "bijections verified edge-by-edge", t0, 30.0)


def test_criterion_7_detector_oracle_equivalence():
    t0 = time.monotonic()
    rng = random.Random(20260819)
    checked = 0
    mismatches = []
    invalid = []

    for i in range(10_000):
        n = rng.randint(1, 10)
        g = make_random_graph(rng, n, p=rng.uniform(0.1, 0.5))
        sc = oracle_scan(g)
        got = {
            "triangle": find_triangle(g),
            "hole": next(find_hole(g), None),
            "wheel": find_wheel(g, 3),
            "theta": find_theta(g),
            "fan": find_fan(g, 3),
        }
        for kind, w in got.items():
            checked += 1
            if (w is not None) != sc[kind]:
                mismatches.append((i, kind, g.edges()))
            if w is not None and not validate_witness(g, None, w):
                invalid.append((i, kind, g.edges()))

    for i in range(2_000):
        n = rng.randint(2, 10)
        g = make_random_graph(rng, n, p=rng.uniform(0.1, 0.5))
        tips = frozenset(rng.sample(range(n), rng.randint(1, min(4, n))))
        gf = Graft(g, tips)
        sc = oracle_scan(g, tips)
        got = {
            "guarded-fan": find_guarded_fan(gf),
            "mountable-path": find_mountable_path(gf),
        }
        for kind, w in got.items():
            checked += 1
            if (w is not None) != sc[kind]:
                mismatches.append((i, kind, g.edges(), sorted(tips)))
            if w is not None and not validate_witness(g, tips, w):
                invalid.append((i, kind, g.edges(), sorted(tips)))

    _report(7, "detector-oracle equivalence", not mismatches and not invalid,
            f"{checked} comparisons, mismatches={mismatches[:3] or 'none'}, "
            f"invalid witnesses={invalid[:3] or 'none'}",
            t0, 600.0)


def test_criterion_8_chromatic_reproduction():
    t0 = time.monotonic()
    g2, _ = build_graft(2)
    g3, _ = build_graft(3)
    p3 = burling_pair(3)
    c2 = chromatic_number(g2.graph)
    c3 = chromatic_number(g3.graph)
    cp = chromatic_number(p3.graph)
    rainbow = find_non_rainbow_coloring(g3, 3, 3)
    ok = (c2.chi == 3 and c3.chi == 4 and cp.chi == 3
          and rainbow is None
          and is_proper(g2.graph, c2.witness)
          and is_proper(g3.graph, c3.witness)
          and is_proper(p3.graph, cp.witness))
    _report(8, "chromatic values and rainbow bound", ok,
            f"chi(G2)={c2.chi} chi(G3)={c3.chi} chi(G'3)={cp.chi} "
            f"non-rainbow(G3,3,3)={'none' if rainbow is None else rainbow}",
            t0, 300.0)


def test_criterion_9_joint_exhibit_on_g3():
    t0 = time.monotonic()
    g3, _ = build_graft(3)
    g = g3.graph
    triangle = find_triangle(g)
    wheel = find_wheel(g, 3)
    chi = chromatic_number(g).chi
    has_edge = g.edge_count() > 0
    # triangle-free with an edge means clique number exactly 2
    ok = triangle is None and has_edge and wheel is None and chi == 4
    _report(9, "G3 jointly: omega=2, wheel-free, chi=4", ok,
            f"triangle={triangle} wheel={wheel} chi={chi}", t0, 120.0)


def test_criterion_10_g4_clean_proof():
    t0 = time.monotonic()
    g4, _ = build_graft(4)
    # an int budget gives each condition its own SearchBudget, which
    # raises when spent, so a returned report is five finished searches
    rep = is_clean(g4, budget=1_000_000)
    _report(10, "clean certification k=4", rep.all_hold,
            "all five conditions hold, nodes="
            f"{[v.nodes for _, v in rep.items()]}", t0, 300.0)
