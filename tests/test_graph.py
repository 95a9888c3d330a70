"""Core graph type: construction, immutability, subgraphs."""

import random

import pytest

from burling import (
    Graph, Graft, StablePair, InvalidArgumentError, InvalidVertexError,
)
from burling.bits import bits


def test_from_edges_basic():
    g = Graph.from_edges(4, [(0, 1), (2, 1), (2, 3)])
    assert g.n == 4
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]
    assert g.edge_count() == 3
    assert g.degree(1) == 2
    assert g.degree(3) == 1


def test_from_edges_rejects_bad_vertices():
    with pytest.raises(InvalidVertexError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(InvalidVertexError):
        Graph.from_edges(3, [(-1, 0)])
    with pytest.raises(InvalidArgumentError):
        Graph.from_edges(3, [(1, 1)])
    # the constructor's own row checks: count, self-loop, range
    with pytest.raises(InvalidArgumentError):
        Graph(2, [0])
    with pytest.raises(InvalidArgumentError):
        Graph(1, [1])
    with pytest.raises(InvalidVertexError):
        Graph(1, [2])


def test_from_edges_rejects_negative_vertex_count():
    # with no edge to range-check, only an explicit test of n catches
    # it, as in the constructor
    with pytest.raises(InvalidArgumentError):
        Graph(-3, ())
    with pytest.raises(InvalidArgumentError):
        Graph.from_edges(-3, [])


def test_duplicate_edges_collapse():
    g = Graph.from_edges(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count() == 1


def test_neighborhood_and_has_edge():
    g = Graph.from_edges(5, [(0, 2), (0, 4), (1, 2)])
    assert g.neighborhood(0) == {2, 4}
    assert g.has_edge(0, 2)
    assert not g.has_edge(2, 4)
    with pytest.raises(InvalidVertexError):
        g.neighborhood(9)


def test_stable_set_check():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert g.is_stable_set({0, 2})
    assert g.is_stable_set({1, 2})
    assert not g.is_stable_set({0, 1})
    assert g.is_stable_set(set())
    assert g.is_stable_set(iter([0, 2]))
    assert not g.is_stable_set(iter([3, 0, 2]))
    assert g.is_stable_set([1, 2, 1, 2])
    assert not g.is_stable_set([2, 3, 3])
    with pytest.raises(InvalidVertexError):
        g.is_stable_set(iter([0, 2, 4]))


def test_bits_on_wide_masks():
    rng = random.Random(3)
    masks = [0, 1, 1 << 17, (1 << 17) - 1]
    for width in (1, 64, 1000, 1 << 17):
        masks.append(rng.getrandbits(width))
        masks.append(sum(1 << rng.randrange(width) for _ in range(20)))  # sparse
    for m in masks:
        assert bits(m) == [i for i in range(m.bit_length()) if m >> i & 1]


def test_edges_on_wide_graphs():
    rng = random.Random(5)
    for n in (0, 1, 2, 30, 200, 3000):
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(4 * n)]
        g = Graph.from_edges(n, [(u, v) for u, v in edges if u != v])
        assert g.edges() == [(u, v) for u in range(n)
                             for v in range(u + 1, n) if g.adj[u] >> v & 1]


def test_induced_path_check():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4)])
    assert g.is_induced_path([0, 1, 2])
    # 0-3 chord spoils it
    assert not g.is_induced_path([0, 1, 2, 3])
    assert g.is_induced_path([1, 2, 3, 4])
    assert g.is_induced_path([4])
    assert not g.is_induced_path([0, 2])
    with pytest.raises(InvalidArgumentError):
        g.is_induced_path([0, 0])


def test_induced_subgraph_relabels():
    g = Graph.from_edges(5, [(0, 1), (1, 3), (3, 4)])
    h, relabel = g.induced_subgraph({1, 3, 4})
    assert h.n == 3
    assert sorted(relabel) == [1, 3, 4]
    mapped = sorted((relabel[u], relabel[v]) for u, v in [(1, 3), (3, 4)])
    assert h.edges() == [tuple(sorted(e)) for e in mapped]


def test_delete_vertices_complements_induce():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    a, _ = g.delete_vertices({0})
    b, _ = g.induced_subgraph({1, 2, 3})
    assert a.edges() == b.edges()


def test_graphs_hash_and_compare_by_value():
    g1 = Graph.from_edges(3, [(0, 1)])
    g2 = Graph.from_edges(3, [(1, 0)])
    assert g1 == g2
    assert hash(g1) == hash(g2)
    assert g1 != Graph.from_edges(3, [(0, 2)])
    # rows given directly make the same value, which cannot be changed
    g = Graph(3, [2, 5, 2])
    h = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert g == h
    assert hash(g) == hash(h)
    with pytest.raises(AttributeError):
        g.n = 4
    with pytest.raises(InvalidArgumentError):
        Graph(3, [2, 0, 0])  # 0 sees 1, but 1 does not see 0


def test_graft_requires_valid_tips():
    g = Graph.from_edges(3, [(0, 1)])
    gf = Graft(g, frozenset({2}))
    assert gf.n == 3
    assert gf.tip_mask == 0b100
    with pytest.raises(InvalidVertexError):
        Graft(g, frozenset({3}))
    with pytest.raises(InvalidVertexError, match=r"^vertex -1 out of range"):
        Graft(g, frozenset({0, -1, 2}))
    with pytest.raises(InvalidVertexError, match=r"^vertex 7 out of range"):
        Graft(g, frozenset({0, 1, 7}))


@pytest.mark.parametrize("vertices", [[-1], [0, -2], [3], [0, 1, 5]])
def test_vertex_sets_out_of_range_rejected(vertices):
    g = Graph.from_edges(3, [(0, 1)])
    for query in (g.vertex_mask, g.is_stable_set, g.induced_subgraph,
                  g.delete_vertices):
        with pytest.raises(InvalidVertexError):
            query(vertices)


def test_stable_pair_negative_vertex_rejected():
    with pytest.raises(InvalidVertexError):
        StablePair(Graph.from_edges(3, [(0, 1)]), ({-2},))
