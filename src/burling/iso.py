"""Exact graft isomorphism and proven automorphism orbits: partition
refinement plus backtracking.

Initial colors encode (degree, tip membership); refinement rounds replace
each color with (color, sorted multiset of neighbor colors), interned in
one table shared by both graphs so colors stay comparable. When classes
stop splitting, the map that pairs each class's members in increasing
order is tried first; if it fails its edge check, the smallest
non-singleton class is split by individualization and the search
branches. `orbits` refines one graft, then runs the same search on
two copies of it to find automorphisms, which the tip-to-tip walks use
to filter their roots to one tip per orbit.

Each entry call (`graft_isomorphic`, `orbits`) builds each graph's
neighbour lists once, in its first refinement, after that refinement's
first round has spent its nodes. Every later round, every node of the
search and the edge check read those lists; `orbits` hands the one
graph's lists to both copies.
"""

from __future__ import annotations

from collections import Counter

from .bits import bits, mask_of
from .graph import Graph, Graft

__all__ = ["graft_isomorphic", "graph_isomorphic", "orbits"]


def _refine(gs: tuple[Graph, ...], cs: list[list[int]], budget=None,
            nbrs=None):
    """Jointly refine the colorings cs of the graphs gs to a stable
    partition, and return it with nbrs, the neighbour lists of gs.
    With a budget, each round first spends one node per vertex it
    recolors. Without nbrs, the lists are built once, after the first
    round has spent its nodes, so a small budget stops a big graph
    before any list is built; an entry call hands the nbrs of its first
    refinement to every later one."""
    ncolors = len(set().union(*cs))
    while True:
        if budget is not None:
            budget.spend(sum(g.n for g in gs))
        if nbrs is None:
            nbrs = [[bits(row) for row in g.adj] for g in gs]
        intern: dict = {}
        cs = [[intern.setdefault(
                  (c[v], tuple(sorted(map(c.__getitem__, nb)))),
                  len(intern)) for v, nb in enumerate(nbv)]
              for nbv, c in zip(nbrs, cs)]
        if len(intern) == ncolors:
            return cs, nbrs
        ncolors = len(intern)


def _search(g1: Graph, g2: Graph, c1: list[int], c2: list[int],
            budget=None, nbrs=None):
    """Refine, then try the in-order map, then individualize the first
    vertex of g1 in the smallest non-singleton class against each vertex
    of g2 in that class, in increasing order; the first verified map
    found, or None. Every refinement reads one nbrs, the neighbour lists
    of g1 and g2: the caller's, or those the first refinement builds. A
    budget is spent by every refinement, as `_refine` says.

    After each refinement the two colorings are compared as lists sorted
    by color: if they differ, no map that keeps the colorings exists
    below this node. If they agree, the in-order map pairs each class's
    members in increasing order, a bijection that keeps the colorings,
    and it is returned if it carries each vertex's neighbour list in g1
    onto its image's list in g2. When every class is a singleton it is
    the only such bijection. Every map returned passes that check, and
    the branching is that of a search without the in-order map, so a
    map is found whenever one exists.

    An explicit trail, not recursion, so depth is not capped by Python's
    recursion limit. One frame per individualization: the refined
    colorings it branched from, the vertex of g1 it individualized, the
    fresh color and the candidates in g2 not yet tried.
    """
    trail: list[tuple] = []
    while True:
        (c1, c2), nbrs = _refine((g1, g2), [c1, c2], budget, nbrs)
        o1 = sorted(range(g1.n), key=c1.__getitem__)
        o2 = sorted(range(g2.n), key=c2.__getitem__)
        if [c1[v] for v in o1] == [c2[v] for v in o2]:
            perm = [0] * g1.n
            for a, b in zip(o1, o2):
                perm[a] = b
            if all(sorted(map(perm.__getitem__, nb)) == nbrs[1][perm[u]]
                   for u, nb in enumerate(nbrs[0])):
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
    return [intern.setdefault((row.bit_count(), v in tips), len(intern))
            for v, row in enumerate(g.adj)]


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
    Go through each cell in increasing order, and try each member w
    not yet in a known orbit against one vertex v of each orbit already
    found in the cell, the least: if v and w are twins (the same
    neighbours apart from each other) the swap of v and w is the map,
    and else `_search` looks for one from two copies of the coloring, v
    individualized in one and w in the other. A map it returns keeps
    the colorings, in which v and w are alone in their classes, so it
    takes v to w. A map joins orbits only after it is checked edge by
    edge and tip by tip, so vertices that share a rep are mapped to each
    other by an automorphism. Only when no v maps to w does w start a
    new orbit. Every automorphism keeps the refined coloring, so an
    orbit lies inside one cell, and `_search` finds a map whenever one
    exists, so the orbits are the true ones: a walk rooted at each
    orbit's rep is never short of a root (`patterns._tip_walk`), and
    roots no two tips that an automorphism maps to each other.

    The first refinement builds the graph's neighbour lists, and every
    `_search` reads them for both copies. Every refinement round spends
    one node per vertex on budget before it runs, the first one before
    the lists are built, so the work stops at the budget's limit.
    """
    g = gf.graph
    tips = gf.tip_mask
    (c,), nbrs = _refine((g,), [_initial(g, gf.tips, {})], budget)
    reps = list(range(g.n))
    maps = []

    def find(v):
        while reps[v] != v:
            reps[v] = v = reps[reps[v]]
        return v

    cells: dict[int, list[int]] = {}
    for v, col in enumerate(c):
        cells.setdefault(col, []).append(v)
    for cell in cells.values():
        found: list[int] = []
        for w in cell:
            if find(w) != w:
                continue
            for v in found:
                if g.adj[v] & ~(1 << w) == g.adj[w] & ~(1 << v):
                    # the swap moves only the edges at v and w, and this
                    # test compares them all; both lie in one cell, so
                    # both are tips or neither is
                    perm = list(range(g.n))
                    perm[v], perm[w] = w, v
                else:
                    c1, c2 = list(c), list(c)
                    c1[v] = c2[w] = max(c) + 1
                    perm = _search(g, g, c1, c2, budget, nbrs * 2)
                    if perm is None or mask_of(perm[t] for t in gf.tips) != tips:
                        continue
                maps.append(tuple(perm))
                for u, p in enumerate(perm):
                    a, b = find(u), find(p)
                    reps[max(a, b)] = min(a, b)
                break
            else:
                found.append(w)
    return [find(v) for v in range(g.n)], maps


def graph_isomorphic(g1: Graph, g2: Graph):
    """Plain graph isomorphism (no tip constraint)."""
    return graft_isomorphic(Graft(g1, frozenset()), Graft(g2, frozenset()))
