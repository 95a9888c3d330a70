"""Both constructions: sizes, structure, determinism, and their equivalence.

Size recurrences used as frozen oracles below, with s = |stables| and
t = |tips|:

    pairs:  n' = n + s*n + s^2,  s' = 2*s^2
    grafts: n' = (t+1)*n + t*(2*t-1),  t' = 2*t^2

giving pair sizes 1, 3, 13, 181, 39733 and graft sizes 2, 5, 21, 309,
72501 for k = 1..5.
"""

import pytest

from burling import (
    Graph, Graft, CapError, InvalidArgumentError,
    StablePair, next_pair, burling_pair, graft_from_pair,
    build_graft, replay_trace, check_equivalence,
    graft_isomorphic, graph_isomorphic, is_clean, find_triangle,
)

PAIR_SIZES = {1: (1, 1), 2: (3, 2), 3: (13, 8), 4: (181, 128)}
GRAFT_SIZES = {1: (2, 1), 2: (5, 2), 3: (21, 8), 4: (309, 128)}
EDGE_COUNTS = {2: 5, 3: 39, 4: 1059}
PAIR_EDGES = {2: 1, 3: 11, 4: 323}


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_pair_sizes(k):
    p = burling_pair(k)
    assert (p.graph.n, len(p.stables)) == PAIR_SIZES[k]


@pytest.mark.parametrize("k", [2, 3, 4])
def test_pair_edge_counts(k):
    assert burling_pair(k).graph.edge_count() == PAIR_EDGES[k]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_graft_sizes(k):
    gf, _ = build_graft(k)
    assert (gf.n, len(gf.tips)) == GRAFT_SIZES[k]


@pytest.mark.parametrize("k", [2, 3, 4])
def test_graft_edge_counts(k):
    gf, _ = build_graft(k)
    assert gf.graph.edge_count() == EDGE_COUNTS[k]


def test_stable_sets_actually_stable():
    for k in (2, 3, 4):
        p = burling_pair(k)
        for s in p.stables:
            assert p.graph.is_stable_set(s)


def test_stable_pair_constructor_validates():
    g = Graph.from_edges(2, [(0, 1)])
    with pytest.raises(InvalidArgumentError):
        StablePair(g, (frozenset({0, 1}),))


def test_next_pair_size_step():
    p = burling_pair(2)
    q = next_pair(p)
    n, s = p.graph.n, len(p.stables)
    assert q.graph.n == n + s * n + s * s
    assert len(q.stables) == 2 * s * s


def test_pairs_are_triangle_free():
    for k in (2, 3, 4):
        assert find_triangle(burling_pair(k).graph, budget=10 ** 7) is None


def test_g2_is_c5_with_distance2_tips():
    gf, _ = build_graft(2)
    c5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    hand = Graft(c5, frozenset({1, 4}))  # two tips two steps apart
    assert graft_isomorphic(gf, hand) is not None


def test_g1_is_single_edge_one_tip():
    gf, _ = build_graft(1)
    assert gf.graph.edges() == [(0, 1)]
    assert gf.tips == {1}


def test_tips_always_stable():
    for k in (1, 2, 3, 4):
        gf, _ = build_graft(k)
        assert gf.graph.is_stable_set(gf.tips)


def test_build_is_deterministic():
    a, ta = build_graft(3)
    b, tb = build_graft(3)
    assert a.graph == b.graph and a.tips == b.tips
    assert ta == tb


def test_replay_reproduces_bit_exactly():
    for k in (1, 2, 3, 4):
        gf, trace = build_graft(k)
        back = replay_trace(trace)
        assert back.graph == gf.graph
        assert back.tips == gf.tips


def test_trace_provenance_covers_all_vertices():
    gf, trace = build_graft(3)
    last = trace.levels[-1]
    assert len(last.provenance) == gf.n
    kinds = {tag[0] for tag in last.provenance}
    # pendants get glued onto host vertices at join time, so no vertex
    # of the result is born as a pendant
    assert kinds == {"base", "clone-of", "copy"}


def test_deleting_tips_recovers_pair_graph():
    # the graft minus its tips is the pair graph of the same level
    for k in (2, 3):
        gf, _ = build_graft(k)
        core, _ = gf.graph.delete_vertices(gf.tips)
        want = burling_pair(k).graph
        assert graph_isomorphic(core, want) is not None


def test_graft_from_pair_tip_neighborhoods():
    p = burling_pair(3)
    gf = graft_from_pair(p)
    assert gf.n == p.graph.n + len(p.stables)
    for i, s in enumerate(p.stables):
        assert gf.graph.neighborhood(p.graph.n + i) == s


@pytest.mark.parametrize("k", [1, 2, 3])
def test_equivalence_bijection(k):
    perm = check_equivalence(k)
    assert perm is not None
    a = graft_from_pair(burling_pair(k))
    b, _ = build_graft(k)
    assert len(perm) == a.n == b.n
    assert {perm[t] for t in a.tips} == set(b.tips)
    for u, v in a.graph.edges():
        assert b.graph.has_edge(perm[u], perm[v])
    assert a.graph.edge_count() == b.graph.edge_count()


def test_caps_enforced():
    with pytest.raises(CapError):
        burling_pair(6)
    with pytest.raises(CapError):
        build_graft(6)
    with pytest.raises(CapError):
        check_equivalence(4)
    # explicit cap raises the ceiling
    gf, _ = build_graft(4, cap=4)
    assert gf.n == 309


@pytest.mark.parametrize("k", [0, -1])
def test_levels_below_one_rejected(k):
    # bad input, not an exceeded cap
    for entry in (burling_pair, build_graft, check_equivalence):
        with pytest.raises(InvalidArgumentError):
            entry(k)


def test_small_grafts_certified_clean():
    for k in (1, 2, 3):
        gf, _ = build_graft(k)
        assert is_clean(gf).all_hold
