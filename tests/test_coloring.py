"""Coloring: exact solver vs brute force, bounds, and the rainbow search."""

import itertools
import random

import pytest

from burling import (
    Graph, Graft, CapError, InvalidArgumentError,
    Coloring, is_proper, chromatic_number, bounds_only,
    find_non_rainbow_coloring, build_graft, burling_pair,
)
from burling.bits import bits
from burling.coloring import _greedy_clique, _search

from conftest import make_random_graph


def brute_chi(g: Graph) -> int:
    if g.n == 0:
        return 0
    for c in range(1, g.n + 1):
        for assign in itertools.product(range(c), repeat=g.n):
            if all(assign[u] != assign[v] for u, v in g.edges()):
                return c
    raise AssertionError("unreachable")


# The search must backtrack here and undo both its neighbor-color and its
# tip-color masks before it finds chi = 3 and a non-rainbow 3-coloring
# for k = 3; without either undo it reports 4 or None.
BACKTRACK = Graft(Graph.from_edges(9, [
    (0, 1), (0, 4), (0, 6), (0, 8), (1, 2), (1, 3), (2, 3), (2, 7), (3, 7),
    (4, 6), (4, 8), (5, 6), (5, 7), (6, 7)]), frozenset({1, 2, 3}))


def test_coloring_normalization_enforced():
    Coloring((0, 1, 0, 2))
    Coloring(())
    with pytest.raises(InvalidArgumentError):
        Coloring((0, 2))  # color 1 skipped
    with pytest.raises(InvalidArgumentError):
        Coloring((1, 2))


def test_is_proper():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert is_proper(g, Coloring((0, 1, 0)))
    assert not is_proper(g, Coloring((0, 0, 1)))
    assert is_proper(g, (5, 9, 5))  # raw sequences allowed
    with pytest.raises(InvalidArgumentError):
        is_proper(g, (0, 1))


def test_exact_matches_brute_force():
    rng = random.Random(61)
    graphs = [make_random_graph(rng, rng.randint(0, 8)) for _ in range(80)]
    for g in graphs + [BACKTRACK.graph]:
        cert = chromatic_number(g)
        assert cert.chi == brute_chi(g)
        assert cert.witness.count == cert.chi
        assert is_proper(g, cert.witness)
        assert cert.lower_bound_proof == "exhaustive-search"


def test_known_values(c5, petersen, wheel6):
    assert chromatic_number(c5).chi == 3
    assert chromatic_number(petersen).chi == 3
    assert chromatic_number(wheel6).chi == 3
    k4 = Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert chromatic_number(k4).chi == 4
    assert chromatic_number(Graph.from_edges(0, [])).chi == 0
    assert chromatic_number(Graph.from_edges(3, [])).chi == 1


def test_cap_enforced():
    g = Graph.from_edges(70, [])
    with pytest.raises(CapError):
        chromatic_number(g)


def test_bounds_bracket_chi():
    # dense enough for triangles, and for a K4 in some, where the clique
    # part of the lower bound shows
    rng = random.Random(67)
    lows = set()
    for _ in range(60):
        g = make_random_graph(rng, rng.randint(0, 9), p=rng.uniform(0.3, 0.9))
        lo, hi = bounds_only(g)
        chi = chromatic_number(g).chi
        assert lo <= chi <= hi
        lows.add(lo)
    assert max(lows) >= 4


def test_bounds_classify_easy_cases(c5):
    assert bounds_only(Graph.from_edges(0, [])) == (0, 0)
    assert bounds_only(Graph.from_edges(4, [])) == (1, 1)
    bip = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert bounds_only(bip) == (2, 2)
    lo, hi = bounds_only(c5)
    assert lo == 3 and hi >= 3
    # the lower bound is the clique size: K4, K5, and K4 beside a C5
    k4 = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    k5 = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    c5_beside = [(4 + i, 4 + (i + 1) % 5) for i in range(5)]
    assert bounds_only(Graph.from_edges(4, k4)) == (4, 4)
    assert bounds_only(Graph.from_edges(5, k5)) == (5, 5)
    assert bounds_only(Graph.from_edges(9, k4 + c5_beside)) == (4, 4)


def bfs_bipartite(g: Graph) -> bool:
    """Reference two-coloring by breadth-first search."""
    side = [-1] * g.n
    for s in range(g.n):
        if side[s] >= 0:
            continue
        side[s], queue = 0, [s]
        for v in queue:
            for u in bits(g.adj[v]):
                if side[u] < 0:
                    side[u] = side[v] ^ 1
                    queue.append(u)
                elif side[u] == side[v]:
                    return False
    return True


def test_lower_matches_bipartite_reference():
    # the greedy DSATUR count stands in for a bipartite test in the
    # lower bound; half the graphs are bipartite with many components
    rng = random.Random(79)
    bipartite = 0
    for i in range(1500):
        n = rng.randint(0, 14)
        if i % 2:
            side = [rng.getrandbits(1) for _ in range(n)]
            p = rng.uniform(0.05, 0.5)
            g = Graph.from_edges(n, [
                (u, v) for u in range(n) for v in range(u + 1, n)
                if side[u] != side[v] and rng.random() < p])
        else:
            g = make_random_graph(rng, n, p=rng.uniform(0.05, 0.5))
        two = bfs_bipartite(g)
        bipartite += two
        c = len(_greedy_clique(g))
        want = 3 if c < 3 and not two else c
        lo, hi = bounds_only(g)
        assert (hi <= 2) == two and lo == want, g.edges()
    assert bipartite >= 800


def test_bounds_scale_to_big_inputs():
    gf, _ = build_graft(4)
    lo, hi = bounds_only(gf.graph)
    assert 3 <= lo <= hi
    # the level-4 graph needs at least 5 colors, greedy stays close
    assert hi >= 5


def test_search_deeper_than_recursion_limit():
    # one search level per vertex: a recursive search overflows the stack
    path = Graph.from_edges(1200, [(v, v + 1) for v in range(1199)])
    cert = chromatic_number(path, cap=2000)
    assert cert.chi == 2 and is_proper(path, cert.witness)
    got = find_non_rainbow_coloring(Graft(path, frozenset({0})), 2, 2, cap=2000)
    assert got is not None and is_proper(path, got)
    assert bounds_only(path) == (2, 2)


def test_rainbow_finds_relaxed_colorings():
    gf, _ = build_graft(2)
    col = find_non_rainbow_coloring(gf, 3, 3)
    assert col is not None
    assert is_proper(gf.graph, col)
    for t in gf.tips:
        seen = {col.colors[u] for u in gf.graph.neighborhood(t)}
        assert len(seen) <= 2


def test_rainbow_respects_color_budget():
    gf, _ = build_graft(2)
    # C5 admits no proper 2-coloring at all, so none exists vacuously
    assert find_non_rainbow_coloring(gf, 2, 2) is None


def test_rainbow_none_on_g3():
    gf, _ = build_graft(3)
    assert find_non_rainbow_coloring(gf, 3, 3) is None


def test_rainbow_tip_bound_is_tight_per_tip():
    # star center as lone tip: neighborhood takes one color only
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    gf = Graft(star, frozenset({0}))
    col = find_non_rainbow_coloring(gf, 2, 2)
    assert col is not None
    leaves = {col.colors[v] for v in (1, 2, 3)}
    assert len(leaves) == 1


def brute_non_rainbow(gf: Graft, k: int, c: int) -> bool:
    g = gf.graph
    for assign in itertools.product(range(c), repeat=g.n):
        if (all(assign[u] != assign[v] for u, v in g.edges())
                and all(len({assign[u] for u in g.neighborhood(t)}) < k
                        for t in gf.tips)):
            return True
    return False


def test_rainbow_matches_brute_force():
    rng = random.Random(71)
    cases = [(BACKTRACK, 3, 3)]
    for _ in range(320):
        n = rng.randint(1, 7)
        g = make_random_graph(rng, n)
        tips = frozenset(rng.sample(range(n), rng.randint(0, min(4, n))))
        cases.append((Graft(g, tips), rng.randint(1, 4), rng.randint(1, 4)))
    found = 0
    for gf, k, c in cases:
        g = gf.graph
        col = find_non_rainbow_coloring(gf, k, c)
        assert (col is not None) == brute_non_rainbow(gf, k, c)
        if col is not None:
            found += 1
            assert is_proper(g, col) and col.count <= c
            for t in gf.tips:
                assert len({col.colors[u] for u in g.neighborhood(t)}) < k
    assert 0 < found < len(cases)


def test_rainbow_cap_and_validation():
    gf, _ = build_graft(4)
    with pytest.raises(CapError):
        find_non_rainbow_coloring(gf, 4, 4)
    small, _ = build_graft(2)
    with pytest.raises(InvalidArgumentError):
        find_non_rainbow_coloring(small, 0, 3)
    with pytest.raises(InvalidArgumentError):
        find_non_rainbow_coloring(small, 3, 0)


def test_rainbow_arguments_checked_before_cap():
    # bad input is an argument error even on a graft over the cap
    gf, _ = build_graft(4)
    with pytest.raises(InvalidArgumentError):
        find_non_rainbow_coloring(gf, 0, 3)
    with pytest.raises(InvalidArgumentError):
        find_non_rainbow_coloring(gf, 3, 0)


def test_chi_values_for_small_levels():
    g2, _ = build_graft(2)
    g3, _ = build_graft(3)
    assert chromatic_number(g2.graph).chi == 3
    assert chromatic_number(g3.graph).chi == 4
    assert chromatic_number(burling_pair(3).graph).chi == 3


def linear_pick_search(g: Graph, c: int, tips=(), k: int = 0):
    """`_search` as it was with the DSATUR pick made by scanning every
    uncolored vertex with max(): the reference for the heap pick."""
    n, adj = g.n, g.adj
    colors = [-1] * n
    seen = [0] * n
    watchers = [[] for _ in range(n)]
    if k:
        for i, t in enumerate(tips):
            for v in bits(adj[t]):
                watchers[v].append(i)
    tip_seen = [0] * len(tips)
    trail = []
    v, start, used = -1, 0, 0
    while len(trail) < n:
        if v < 0:
            v = max((u for u in range(n) if colors[u] < 0),
                    key=lambda u: (seen[u].bit_count(), adj[u].bit_count(), -u))
            start = 0
        for col in range(start, min(used + 1, c)):
            bit = 1 << col
            if seen[v] & bit:
                continue
            gain = [i for i in watchers[v] if not tip_seen[i] & bit]
            if any(tip_seen[i].bit_count() + 1 >= k for i in gain):
                continue
            touched = [u for u in bits(adj[v]) if not seen[u] & bit]
            colors[v] = col
            for u in touched:
                seen[u] |= bit
            for i in gain:
                tip_seen[i] |= bit
            trail.append((v, col, used, touched, gain))
            used = max(used, col + 1)
            v = -1
            break
        else:
            if not trail:
                return None
            v, col, used, touched, gain = trail.pop()
            bit = 1 << col
            colors[v] = -1
            for u in touched:
                seen[u] ^= bit
            for i in gain:
                tip_seen[i] ^= bit
            start = col + 1
    return colors


def test_heap_pick_matches_linear_pick():
    # Same colorings, not only the same yes/no: the heap must pick the
    # vertex the max() rule picks at every step, backtracking included.
    # Sparse graphs with a few tips and k = 2 fail vertices on the tip
    # cut that the last colored vertex does not touch, and grow the heap
    # past its rebuild size, as does the rainbow search on g3 (it
    # rebuilds the heap dozens of times before it answers None).
    rng = random.Random(97)
    g3 = build_graft(3)[0]
    cases = [(BACKTRACK.graph, 3, sorted(BACKTRACK.tips), 3),
             (BACKTRACK.graph, 3, (), 0),
             (g3.graph, 4, sorted(g3.tips), 3),
             (g3.graph, 5, sorted(g3.tips), 3)]
    for i in range(3000):
        n = rng.randint(0, 12)
        if i % 2:
            g = make_random_graph(rng, n, rng.uniform(0.05, 0.4))
            tips = sorted(rng.sample(range(n), min(n, rng.randint(1, 3))))
            cases.append((g, rng.randint(2, 5), tips, 2))
        else:
            g = make_random_graph(rng, n, rng.uniform(0.1, 0.9))
            tips = sorted(rng.sample(range(n), rng.randint(0, n)))
            cases.append((g, rng.randint(1, max(1, n)), tips,
                          rng.randint(0, 5)))
    found = 0
    for g, c, tips, k in cases:
        got = _search(g, c, tips, k)
        assert got == linear_pick_search(g, c, tips, k)
        found += got is not None
    assert 0 < found < len(cases)
    g4 = build_graft(4)[0].graph
    assert _search(g4, g4.n) == linear_pick_search(g4, g4.n)
