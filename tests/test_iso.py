"""Isomorphism checker against a brute-force permutation oracle."""

import inspect
import itertools
import random
import sys

import burling.iso
from burling import (
    Graph, Graft, SearchBudget, build_graft, burling_pair, graft_from_pair,
    graph_isomorphic, graft_isomorphic,
)
from burling.iso import _initial, _search, orbits

from conftest import make_random_graph


def brute_isomorphic(a: Graph, b: Graph, atips=frozenset(), btips=frozenset()):
    if a.n != b.n:
        return None
    for perm in itertools.permutations(range(b.n)):
        if {perm[t] for t in atips} != set(btips):
            continue
        ok = True
        for u in range(a.n):
            for v in range(u + 1, a.n):
                if bool(a.adj[u] >> v & 1) != bool(b.adj[perm[u]] >> perm[v] & 1):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return perm
    return None


def apply_perm(g: Graph, perm) -> Graph:
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def check_certificate(a: Graph, b: Graph, perm, atips=frozenset(), btips=frozenset()):
    assert {perm[t] for t in atips} == set(btips)
    for u, v in a.edges():
        assert b.has_edge(perm[u], perm[v])
    assert a.edge_count() == b.edge_count()


def test_relabelled_graphs_match():
    rng = random.Random(5)
    for _ in range(60):
        g = make_random_graph(rng, rng.randint(1, 8))
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = apply_perm(g, perm)
        got = graph_isomorphic(g, h)
        assert got is not None
        check_certificate(g, h, got)


def test_agrees_with_brute_force_on_pairs():
    rng = random.Random(6)
    hits = 0
    for _ in range(120):
        n = rng.randint(1, 6)
        a = make_random_graph(rng, n)
        b = make_random_graph(rng, n)
        want = brute_isomorphic(a, b) is not None
        got = graph_isomorphic(a, b)
        assert (got is not None) == want
        if got is not None:
            hits += 1
            check_certificate(a, b, got)
    assert hits > 0


def test_tips_constrain_the_bijection():
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    a = Graft(path, frozenset({0}))
    b = Graft(path, frozenset({2}))
    middle = Graft(path, frozenset({1}))
    assert graft_isomorphic(a, b) is not None
    assert graft_isomorphic(a, middle) is None


def test_tip_counts_must_match():
    g = Graph.from_edges(2, [(0, 1)])
    assert graft_isomorphic(Graft(g, frozenset({0})),
                            Graft(g, frozenset({0, 1}))) is None


def test_cospectral_style_pair_distinguished():
    # C6 vs two triangles: same degree sequence, not isomorphic
    c6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    kk = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert graph_isomorphic(c6, kk) is None


def test_regular_graphs_need_individualization():
    # Petersen vs C10: both 3-regular after adding chords? use two cubic graphs
    petersen = Graph.from_edges(10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        + [(i, 5 + i) for i in range(5)])
    prism = Graph.from_edges(10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
        + [(i, 5 + i) for i in range(5)])
    assert graph_isomorphic(petersen, prism) is None
    rng = random.Random(9)
    perm = list(range(10))
    rng.shuffle(perm)
    got = graph_isomorphic(petersen, apply_perm(petersen, perm))
    assert got is not None


def test_graft_oracle_agreement_with_tips():
    rng = random.Random(13)
    for _ in range(80):
        n = rng.randint(2, 6)
        a = make_random_graph(rng, n)
        b = make_random_graph(rng, n)
        at = frozenset(rng.sample(range(n), rng.randint(1, n)))
        bt = frozenset(rng.sample(range(n), len(at)))
        want = brute_isomorphic(a, b, at, bt) is not None
        got = graft_isomorphic(Graft(a, at), Graft(b, bt))
        assert (got is not None) == want
        if got is not None:
            check_certificate(a, b, got, at, bt)


def test_search_deeper_than_recursion_limit():
    # against a shuffled copy the in-order map keeps failing, so the
    # search individualizes about once per edge: a recursive search nests
    # about 120 calls deep, past the 60 frames the lowered limit leaves it
    g = Graph.from_edges(240, [(2 * i, 2 * i + 1) for i in range(120)])
    perm = list(range(g.n))
    random.Random(17).shuffle(perm)
    h = apply_perm(g, perm)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        got = graph_isomorphic(g, h)
    finally:
        sys.setrecursionlimit(old)
    assert got is not None
    check_certificate(g, h, got)


def test_in_order_map_answers_before_individualizing():
    # one refinement of both sides leaves a single class; the in-order
    # map is the identity and passes, so no individualization is needed
    g = Graph.from_edges(2400, [(2 * i, 2 * i + 1) for i in range(1200)])
    c = _initial(g, frozenset(), {})
    got = _search(g, g, c, c, SearchBudget(2 * 2 * g.n))
    assert got == tuple(range(g.n))


def test_neighbour_lists_built_once_per_call(monkeypatch):
    # every refinement and every edge check of a call reads one set of
    # lists: one bits call per vertex per graph, however many nodes the
    # search visits, and orbits' two copies share theirs
    g4 = build_graft(4)[0]
    other = graft_from_pair(burling_pair(4))
    calls = []
    real = burling.iso.bits

    def counted(mask):
        calls.append(mask)
        return real(mask)

    monkeypatch.setattr(burling.iso, "bits", counted)
    b = SearchBudget()
    orbits(g4, b)
    assert b.nodes > 10 * g4.n and len(calls) == g4.n == 309
    calls.clear()
    assert graft_isomorphic(other, g4) is not None
    assert len(calls) == 2 * g4.n
