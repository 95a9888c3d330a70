"""Exact graft isomorphism: partition refinement plus backtracking.

Initial colors encode (degree, tip membership); refinement rounds replace
each color with (color, sorted multiset of neighbor colors), interned in
one table shared by both graphs so colors stay comparable. When classes
stop splitting and are not all singletons, the smallest class is split by
individualization and the search branches.
"""

from __future__ import annotations

from collections import Counter

from .bits import bits
from .graph import Graph, Graft

__all__ = ["graft_isomorphic", "graph_isomorphic"]


def _refine(g1: Graph, g2: Graph, c1: list[int], c2: list[int]):
    """Jointly refine both colorings to a stable partition."""
    ncolors = len(set(c1) | set(c2))
    while True:
        intern: dict = {}
        c1, c2 = [[intern.setdefault(
                      (c[v], tuple(sorted(c[u] for u in bits(g.adj[v])))),
                      len(intern)) for v in range(g.n)]
                  for g, c in ((g1, c1), (g2, c2))]
        if len(intern) == ncolors:
            return c1, c2
        ncolors = len(intern)


def _extract(g1: Graph, g2: Graph, c1: list[int], c2: list[int]):
    """All classes are singletons: read off the map and verify it."""
    where = {c: v for v, c in enumerate(c2)}
    perm = tuple(where[c] for c in c1)
    for u, v in g1.edges():
        if not g2.adj[perm[u]] >> perm[v] & 1:
            return None
    return perm


def _search(g1: Graph, g2: Graph, c1: list[int], c2: list[int]):
    """Refine, then individualize the first vertex of g1 in the smallest
    non-singleton class against each vertex of g2 in that class, in
    increasing order; the first verified map found, or None.

    An explicit trail, not recursion, so depth is not capped by Python's
    recursion limit. One frame per individualization: the refined
    colorings it branched from, the vertex of g1 it individualized, the
    fresh color and the candidates in g2 not yet tried.
    """
    trail: list[tuple] = []
    while True:
        c1, c2 = _refine(g1, g2, c1, c2)
        hist = Counter(c1)
        if hist == Counter(c2):
            if all(size == 1 for size in hist.values()):
                found = _extract(g1, g2, c1, c2)
                if found is not None:
                    return found
            else:
                target = min((c for c, size in hist.items() if size > 1),
                             key=lambda c: (hist[c], c))
                fresh = max(max(c1), max(c2)) + 1
                cands = iter([v for v in range(g2.n) if c2[v] == target])
                trail.append((c1, c2, c1.index(target), fresh, cands))
        while trail:
            b1, b2, v1, fresh, cands = trail[-1]
            v2 = next(cands, None)
            if v2 is not None:
                break
            trail.pop()
        else:
            return None
        c1, c2 = list(b1), list(b2)
        c1[v1] = c2[v2] = fresh


def _initial(g: Graph, tips: frozenset[int], intern: dict) -> list[int]:
    out = []
    for v in range(g.n):
        key = (g.degree(v), v in tips)
        out.append(intern.setdefault(key, len(intern)))
    return out


def graft_isomorphic(a: Graft, b: Graft):
    """Tip-preserving isomorphism a -> b as a vertex tuple, or None.

    perm[v] is the image of vertex v; tips map onto tips exactly.
    """
    if a.n != b.n or len(a.tips) != len(b.tips):
        return None
    if a.graph.edge_count() != b.graph.edge_count():
        return None
    intern: dict = {}
    c1 = _initial(a.graph, a.tips, intern)
    c2 = _initial(b.graph, b.tips, intern)
    return _search(a.graph, b.graph, c1, c2)


def graph_isomorphic(g1: Graph, g2: Graph):
    """Plain graph isomorphism (no tip constraint)."""
    return graft_isomorphic(Graft(g1, frozenset()), Graft(g2, frozenset()))
