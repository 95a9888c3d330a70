"""Exact graft isomorphism and proven automorphism orbits: partition
refinement plus backtracking.

Initial colors encode (degree, tip membership); refinement rounds replace
each color with (color, sorted multiset of neighbor colors), interned in
one table shared by both graphs so colors stay comparable. When classes
stop splitting, the map that pairs each class's members in increasing
order is tried first; if it fails its edge check, the smallest
non-singleton class is split by individualization and the search
branches. `orbits` runs the same search on two copies of one graft to
find automorphisms, which the detectors use to skip symmetric search
roots.
"""

from __future__ import annotations

from collections import Counter

from .bits import bits, mask_of
from .graph import Graph, Graft

__all__ = ["graft_isomorphic", "graph_isomorphic", "orbits"]


def _refine(gs: tuple[Graph, ...], cs: list[list[int]], budget=None):
    """Jointly refine the colorings cs of the graphs gs to a stable
    partition. With a budget, each round first spends one node per
    vertex it recolors, the first round before any other work."""
    ncolors = len(set().union(*cs))
    nbrs = None
    while True:
        if budget is not None:
            budget.spend(sum(g.n for g in gs))
        if nbrs is None:
            nbrs = [[list(bits(row)) for row in g.adj] for g in gs]
        intern: dict = {}
        cs = [[intern.setdefault(
                  (c[v], tuple(sorted(map(c.__getitem__, nb)))),
                  len(intern)) for v, nb in enumerate(nbv)]
              for nbv, c in zip(nbrs, cs)]
        if len(intern) == ncolors:
            return cs
        ncolors = len(intern)


def _maps_edges(g1: Graph, g2: Graph, perm) -> bool:
    """Whether perm carries every edge of g1 to an edge of g2."""
    return all(g2.adj[perm[u]] >> perm[v] & 1 for u, v in g1.edges())


def _search(g1: Graph, g2: Graph, c1: list[int], c2: list[int],
            budget=None):
    """Refine, then try the in-order map, then individualize the first
    vertex of g1 in the smallest non-singleton class against each vertex
    of g2 in that class, in increasing order; the first verified map
    found, or None. A budget is spent by every refinement, as `_refine`
    says.

    After each refinement the two colorings are compared as lists sorted
    by color: if they differ, no map that keeps the colorings exists
    below this node. If they agree, the in-order map pairs each class's
    members in increasing order, a bijection that keeps the colorings,
    and it is returned if it carries every edge of g1 to an edge of g2.
    When every class is a singleton it is the only such bijection. Every map returned passes that
    edge check, and the branching is that of a search without the
    in-order map, so a map is found whenever one exists.

    An explicit trail, not recursion, so depth is not capped by Python's
    recursion limit. One frame per individualization: the refined
    colorings it branched from, the vertex of g1 it individualized, the
    fresh color and the candidates in g2 not yet tried.
    """
    trail: list[tuple] = []
    while True:
        c1, c2 = _refine((g1, g2), [c1, c2], budget)
        o1 = sorted(range(g1.n), key=c1.__getitem__)
        o2 = sorted(range(g2.n), key=c2.__getitem__)
        if [c1[v] for v in o1] == [c2[v] for v in o2]:
            perm = [0] * g1.n
            for a, b in zip(o1, o2):
                perm[a] = b
            if _maps_edges(g1, g2, perm):
                return tuple(perm)
            hist = Counter(c1)
            split = [c for c, size in hist.items() if size > 1]
            if split:
                target = min(split, key=lambda c: (hist[c], c))
                cands = iter([v for v in range(g2.n) if c2[v] == target])
                trail.append((c1, c2, c1.index(target), max(c1) + 1, cands))
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
        key = (g.adj[v].bit_count(), v in tips)
        out.append(intern.setdefault(key, len(intern)))
    return out


def graft_isomorphic(a: Graft, b: Graft):
    """Tip-preserving isomorphism a -> b as a vertex tuple, or None.

    perm[v] is the image of vertex v; tips map onto tips exactly.
    Initial colors encode degree and tip membership, so `_search`
    rejects grafts of different vertex, tip or edge counts at once.
    """
    intern: dict = {}
    c1 = _initial(a.graph, a.tips, intern)
    c2 = _initial(b.graph, b.tips, intern)
    return _search(a.graph, b.graph, c1, c2)


def orbits(gf: Graft, budget) -> tuple[list[int], list[tuple[int, ...]]]:
    """Proven orbits of the tip-preserving automorphisms of gf, as
    (reps, maps): reps[v] is the least vertex of v's orbit, and maps
    are the automorphisms that prove it.

    Refine the graph, with tips and non-tips told apart from the start.
    In each cell, try the least vertex v against each other member w
    not yet in v's orbit: if v and w are twins (the same neighbours
    apart from each other) the swap of v and w is the map, and else
    `_search` looks for one from two copies of the coloring, v
    individualized in one and w in the other. A map it returns keeps
    the colorings, in which v and w are alone in their classes, so it
    takes v to w. A map joins orbits only after it is checked edge by
    edge and tip by tip, so vertices that share a rep are mapped to each
    other by an automorphism. Orbits may be finer than the true ones,
    but never coarser.

    Every refinement round spends one node per vertex on budget before
    it runs, so the work stops at the budget's limit.
    """
    g = gf.graph
    tips = gf.tip_mask
    (c,) = _refine((g,), [_initial(g, gf.tips, {})], budget)
    reps = list(range(g.n))
    maps = []

    def find(v):
        while reps[v] != v:
            reps[v] = v = reps[reps[v]]
        return v

    cells: dict[int, list[int]] = {}
    for v, col in enumerate(c):
        cells.setdefault(col, []).append(v)
    for v, *rest in cells.values():
        for w in rest:
            if find(w) == find(v):
                continue
            if g.adj[v] & ~(1 << w) == g.adj[w] & ~(1 << v):
                # the swap moves only the edges at v and w, and this
                # test compares them all; both lie in one cell, so
                # both are tips or neither is
                perm = list(range(g.n))
                perm[v], perm[w] = w, v
                moved = ((v, w),)
            else:
                c1, c2 = list(c), list(c)
                c1[v] = c2[w] = max(c) + 1
                perm = _search(g, g, c1, c2, budget)
                if perm is None or mask_of(perm[t] for t in gf.tips) != tips:
                    continue
                moved = enumerate(perm)
            maps.append(tuple(perm))
            for u, p in moved:
                a, b = find(u), find(p)
                reps[max(a, b)] = min(a, b)
    return [find(v) for v in range(g.n)], maps


def graph_isomorphic(g1: Graph, g2: Graph):
    """Plain graph isomorphism (no tip constraint)."""
    return graft_isomorphic(Graft(g1, frozenset()), Graft(g2, frozenset()))
