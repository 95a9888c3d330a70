"""Exact pattern detectors with witnesses, plus the clean-graft certifier.

Detectors: triangle, hole (iterator), wheel, theta, fan, guarded fan,
mountable path. All are exhaustive decision procedures that surrender a
Witness on success; a node budget can bound the search, in which case
running out raises SearchBudgetExceeded (inconclusive) rather than ever
reporting a truncated search as "holds".

Every detector is a short wrapper around one search kernel, `_paths`,
a DFS over induced paths with a banned-vertex mask: extending past u bans
N(u), so later vertices cannot chord back. A path grows from a fixed head
through root and interior vertices and finishes on a closer, a neighbour
of its end drawn from a close mask. Cycles (triangles, holes, wheel rims)
close on neighbours of the head vertex, theta branches on the far branch
vertex, fans and mountable paths on an end vertex once the path carries
enough pivot neighbours or tips. The kernel counts in one of two ways:
vertices of one count mask, or bit-sliced neighbour counts for a whole
set of pivots at once, which lets one guarded-fan search serve every
pivot. Branch cuts live only in the kernel,
so a new cut is written once and every detector gets it. Three cuts
stop a branch that cannot finish: too few count vertices left unbanned,
no closer left unbanned, and no closer or too few count vertices
reachable from the children through unbanned interior vertices.

Four reductions sit in the detector loops instead, and all keep every
witness. Wheels are decided by one walk of the induced cycles for every
hub at once (`_wheel`): a graft where no vertex has k neighbours on an
induced cycle has no wheel, and only a graft where one does searches hub
by hub. That hub search and plain fans search one hub or pivot per orbit
of the graft's automorphisms, each orbit proven by explicit
automorphisms, and take the orbit step only where an earlier search
shows it can pay (`_orbit_roots`, `iso.orbits`); guarded fans need no
orbits, as their one search covers every pivot (`_fan`). Triangles,
cycles, fans and mountable paths are each walked in one direction
(`_paths` with one_way), and tip-to-tip walks root only the least end of
each class of twins, ends with equal rows, as swapping two twins is an
automorphism (`_fan`). And `is_clean` decides conditions (4) and (5)
with one walk of the tip-to-tip paths: a mountable path is a guarded fan
whose pivot is an apex vertex joined to every tip (`_apex_walk`), so one
shared-pivot search looks for both, and only a graft with a guarded fan
is searched for a mountable path alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from .bits import bits, mask_of
from .graph import Graph, Graft
from .iso import orbits
from .witness import Witness
from .errors import (
    InvalidArgumentError, BudgetRequiredError, SearchBudgetExceeded,
)

__all__ = [
    "SearchBudget", "UNBUDGETED_MAX",
    "find_triangle", "find_hole", "find_wheel", "find_theta",
    "find_fan", "find_guarded_fan", "find_mountable_path",
    "Verdict", "CleanReport", "is_clean",
]

# Largest graph a detector will search without an explicit budget.
UNBUDGETED_MAX = 64


class SearchBudget:
    """Node-tick accounting shared by the detectors.

    The search kernel spends one node on every node it searches, and
    the orbit step (`iso.orbits`) one node per vertex it recolors. A
    search raises on its first node past the limit, and then nodes is
    limit + 1. limit None means unlimited; nodes still accumulates so
    callers can report how much work a verdict took.
    """

    __slots__ = ("limit", "nodes")

    def __init__(self, limit: int | None = None):
        if limit is not None and limit <= 0:
            raise InvalidArgumentError("budget limit must be positive")
        self.limit = limit
        self.nodes = 0

    def spend(self, k: int) -> None:
        """Add k nodes, one at a time: raise on the first past the limit."""
        self.nodes += k
        if self.limit is not None and self.nodes > self.limit:
            self.nodes = self.limit + 1
            raise SearchBudgetExceeded(self.nodes)


def _budget_for(g: Graph, budget) -> SearchBudget:
    if isinstance(budget, SearchBudget):
        return budget
    if budget is None:
        if g.n > UNBUDGETED_MAX:
            raise BudgetRequiredError(
                f"graph has {g.n} > {UNBUDGETED_MAX} vertices; "
                "pass an explicit search budget")
        return SearchBudget(None)
    return SearchBudget(int(budget))


# -- the search kernel --------------------------------------------------------

def _paths(g: Graph, head: list[int], roots: int, interior: int, close: int,
           budget: SearchBudget, count: int = 0, need: int = 0,
           pivots: int = 0, one_way: bool = False):
    """Yield induced paths head + [r, ..., c] as vertex lists.

    r is a vertex of roots, the vertices between r and c lie in interior,
    and c, the closer, is a neighbour of the path's end from close. The
    head is taken as given: the caller makes roots, interior and close
    fit it. A path must carry at least need vertices of count. A closer
    that brings the path to need finishes it and is never entered; other
    vertices of close are entered only if they lie in interior. Roots are
    searched in increasing order, closers yielded in increasing order,
    and children popped in increasing order. Each node is spent on the
    budget as it is popped, before it is searched. A root with no closer
    is not pushed, so it spends nothing.

    With one_way, each root r closes only on the vertices of close above
    r, so a path with both ends in roots is walked from its lesser end
    only. Let roots equal close and head be empty; the first path is
    then that of the two-way walk. Let r be the least root the two-way
    walk yields from. Every path it yields from r closes above r: were
    its closer c below r, the reversed path, or its shortest prefix of
    two or more vertices that ends in close and carries need vertices of
    count, would be yielded from root c < r. So under r the two-way walk
    never uses a closer below r, its tree under r is the same with those
    closers dropped, and dropping them only lets the close and reach cuts
    remove more branches that yield nothing. A root below r yields
    nothing one way either: a path it yields has a shortest such prefix,
    which the two-way walk would yield from it. Cycles use the same rule
    with a head (`_cycles`), and tip-to-tip walks root one end per twin
    class (`_fan`).

    With pivots, a path must also bring a live pivot to need neighbours
    on it. count must hold every pivot's row, so such a path carries
    need vertices of count, and a closer that brings a pivot from
    need - 1 to need lies in count. The live set starts as pivots. Each
    node carries bit-sliced counters: tally[j] is the set of pivots
    with at least j neighbours on the path, and adding u sets
    tally[j] |= tally[j - 1] & N(u). A closer finishes the path when
    some live pivot is in tally[need] or in tally[need - 1] & N(c); the
    path is yielded, and the live set shrinks to the pivots below the
    least such pivot. A closer in interior is entered as a child even
    when it finished the path, as it may lie on a later path of another
    pivot. Every root starts from the live set the roots before it
    left, the search ends when no pivot is live, and it returns the live
    set.

    Three cuts, all applied at each node v before its children are
    pushed. They rest on the banned mask: a vertex joins or closes the
    path only if it is outside banned, and banned only grows down a
    branch. It starts as every vertex outside interior and the root's
    closers, plus the root, and each child c of v gets banned | N(v) |
    {c}, which also keeps the path induced. So:

    - count: every vertex of count a path below v can still take lies
      outside banned. If the path's hits plus those are below need, no
      path below v (nor v's own closers) can reach need.
    - close: a closer must be an unbanned neighbour of the path's end,
      so every closer below v lies outside banned | N(v). If close has
      no vertex there, no path below v can finish; v's own closers are
      yielded and its children are not pushed.
    - reach: with banned now holding N(v), a bitset BFS starts from the
      children m and grows layer by layer through unbanned interior
      vertices; seen is m plus every unbanned vertex it reaches. Every
      vertex below v is a child of v, or an unbanned non-neighbour of v
      joined to a child through interior vertices: each later path
      vertex is an interior neighbour of the one before it, a closer is
      a neighbour of the path's end, and both lie outside a banned mask
      that contains this one. So every later closer and every later hit
      lies in seen. If seen holds no unbanned vertex of close, or hits
      plus the vertices of count in seen fall short of need, no path
      below v can finish and the children are not pushed. Both tests
      only turn true as seen grows, so the BFS stops after the first
      layer at which both hold.

    The reach cut implies the other two, but each is a mask test that
    skips the BFS: guarded fan on g4, searched one pivot at a time, took
    about 30% longer without the close cut and 7% longer without the
    count cut, with the same nodes (medians of 7 in-process rounds
    alternating the kernels, 2-core VM, Python 3.11).
    """
    adj = g.adj
    path = list(head)
    hits = sum(count >> u & 1 for u in head)
    live = pivots
    tally = [pivots] + [0] * need
    if pivots:
        for u in head:
            tally = _tally(tally, adj[u])
    outside = ((1 << g.n) - 1) & ~interior
    stack = []
    while roots:
        r = roots.bit_length() - 1
        roots ^= 1 << r
        shut = _above(r, close) if one_way else close
        if shut:
            stack.append((r, outside & ~shut | 1 << r,
                          hits + (count >> r & 1), tally, len(head), shut))
    while stack:
        v, banned, hits, tally, depth, close = stack.pop()
        budget.spend(1)
        del path[depth:]
        path.append(v)
        if need and hits + (count & ~banned).bit_count() < need:
            continue
        free = adj[v] & ~banned
        if pivots:
            tally = _tally(tally, adj[v])
            full, near = tally[-1] & live, tally[-2] & live
        else:
            full, near = hits >= need, hits + 1 == need
        if full:
            m = free & close
        elif near:
            m = free & close & count
        else:
            m = 0
        done = 0 if pivots else m
        while m:
            c = m & -m
            m ^= c
            u = c.bit_length() - 1
            if pivots:
                fin = (tally[-1] | tally[-2] & adj[u]) & live
                if not fin:
                    continue
                live &= (fin & -fin) - 1
            yield path + [u]
            if pivots and not live:
                return live
        m = free & interior & ~done
        if not m or not close & ~(banned | adj[v]):
            continue
        banned |= adj[v]
        seen = front = m
        while front:
            grow = 0
            while front:
                u = front.bit_length() - 1
                front ^= 1 << u
                grow |= adj[u]
            front = grow & ~(banned | seen)
            seen |= front
            if (close & seen & ~banned
                    and hits + (count & seen).bit_count() >= need):
                break
            front &= interior
        else:
            continue
        while m:
            c = m.bit_length() - 1
            m ^= 1 << c
            stack.append((c, banned | 1 << c, hits + (count >> c & 1),
                          tally, depth + 1, close))
    return live


def _tally(tally: list[int], row: int) -> list[int]:
    """The pivot counters of `_paths` after adding a vertex with the
    given row: tally[j] gains the pivots of tally[j - 1] in row."""
    out = [tally[0]]
    for lo, hi in zip(tally, tally[1:]):
        out.append(hi | lo & row)
    return out


def _above(v: int, mask: int) -> int:
    return mask >> (v + 1) << (v + 1)


def _pivots(g: Graph, k: int) -> int:
    """The vertices of degree >= k, as a mask."""
    return mask_of(v for v, row in enumerate(g.adj) if row.bit_count() >= k)


def _twin_reps(g: Graph, ends: int) -> int:
    """The least vertex of each class of ends with equal rows."""
    reps, rows = 0, set()
    for v in bits(ends):
        if g.adj[v] not in rows:
            rows.add(g.adj[v])
            reps |= 1 << v
    return reps


def _cycles(g: Graph, s: int, allowed: int, budget: SearchBudget,
            count: int = 0, need: int = 0, pivots: int = 0):
    """Yield induced cycles through s as vertex lists [s, v1, ..., c].

    The other vertices lie in allowed. Each cycle comes once: v1 and c
    are the two neighbours of s on it, and the one-way walk closes it
    only above v1, so of its two directions only one survives. With
    pivots, a cycle is yielded only when a live pivot has need
    neighbours on it (`_paths`).
    """
    ns = g.adj[s] & allowed
    return _paths(g, [s], ns, allowed & ~ns & ~(1 << s), ns, budget, count,
                  need, pivots, one_way=True)


# -- symmetry -----------------------------------------------------------------

def _orbit_roots(gf: Graft, k: int, budget: SearchBudget):
    """Yield in increasing order the vertices of degree >= k that a
    wheel search tries as hubs and a plain fan search as pivots: each
    one but those the orbit step shows are not the least of their
    proven orbit of gf's tip-preserving automorphisms. The caller
    searches each vertex, on budget, before it asks for the next.

    Automorphisms keep degrees, so a vertex is the least of its orbit
    when no smaller vertex of degree >= k shares its degree. Only a
    repeated degree calls for the orbit step (`iso.orbits`), and only
    where it can pay. Its first refinement round alone spends one node
    per vertex, so at a repeated degree it is taken only if the search
    of the first vertex of that degree spent at least n nodes. Taken,
    it runs once, is spent on budget, and its reps serve every later
    vertex.

    Skipping the step only means searching more vertices, in the same
    increasing order. A vertex is dropped only when a smaller member of
    its orbit is its rep. That rep was searched, as reps are never
    dropped, and found nothing, as an automorphism carries a wheel or
    fan to one with the image hub or pivot. So the least vertex with a
    wheel or fan is searched either way, exactly as when every vertex
    is, and every witness stays the same.

    Orbits of tip-preserving automorphisms serve a search that ignores
    tips too: they are orbits of a group of automorphisms of the graph,
    only maybe finer, which is how is_clean's wheel search uses the
    graft's.
    """
    adj = gf.graph.adj
    n = len(adj)
    reps = None
    spent = {}
    for v in range(n):
        d = adj[v].bit_count()
        if d < k:
            continue
        if reps is None and spent.get(d, 0) >= n:
            reps = orbits(gf, budget)[0]
        if reps is not None and reps[v] != v:
            continue
        before = budget.nodes
        yield v
        spent.setdefault(d, budget.nodes - before)


# -- triangles, holes and wheels ----------------------------------------------

def find_triangle(g: Graph, budget=None):
    """First triangle in lexicographic order, or None.

    A triangle u < v < w is the path u-v closed by w. For each u with
    two neighbours above it, a one-way walk (`_paths`) takes the roots v
    from the neighbours of u above u, and the closers w from those above
    v, in increasing order.
    """
    b = _budget_for(g, budget)
    for u in range(g.n):
        nu = _above(u, g.adj[u])
        if nu.bit_count() < 2:
            continue
        for tri in _paths(g, [u], nu, 0, nu, b, one_way=True):
            return Witness("triangle", tuple(tri))
    return None


def _canon_cycle(cyc: tuple[int, ...]) -> tuple[int, ...]:
    """Rotate/reflect so the lowest vertex leads, lower neighbor second."""
    i = cyc.index(min(cyc))
    rot = cyc[i:] + cyc[:i]
    rev = (rot[0],) + tuple(reversed(rot[1:]))
    return min(rot, rev)


def find_hole(g: Graph, min_len: int = 4, budget=None):
    """Iterate every hole of length >= min_len, canonically ordered
    (lowest vertex first, its lower cycle-neighbor second), each once.
    """
    if min_len < 4:
        raise InvalidArgumentError("holes have length at least 4")
    b = _budget_for(g, budget)
    return _hole_iter(g, min_len, b)


def _hole_iter(g: Graph, min_len: int, b: SearchBudget):
    full = (1 << g.n) - 1
    for s in range(g.n):
        for cyc in _cycles(g, s, _above(s, full), b):
            if len(cyc) >= min_len:
                yield Witness("hole", tuple(cyc))


def find_wheel(g: Graph, k: int = 3, budget=None, threads: int = 1):
    """A hole plus an off-hole hub with >= k neighbors on it, or None.

    One walk of every induced cycle, shared by every hub, decides whether
    a wheel can exist (`_wheel`). Only then is each vertex of degree
    >= k tried as the hub, anchoring the rim DFS at its smallest rim
    neighbor, with the hubs cut to one per proven orbit
    (`_orbit_roots`). The first witness in increasing hub order is
    returned. threads is kept for existing callers and must be 1:
    threads give this pure-Python search no speedup.
    """
    if k < 3:
        raise InvalidArgumentError("wheels need k >= 3")
    if threads != 1:
        raise InvalidArgumentError(f"threads must be 1, got {threads}")
    return _wheel(Graft(g), k, _budget_for(g, budget))


def _wheel(gf: Graft, k: int, budget: SearchBudget):
    """find_wheel's search: one decision walk, then one hub at a time.

    The walk (`_cycle_walk`) searches every induced cycle once, from
    its least vertex s and in one direction (`_cycles` over the vertices
    above s), in one pivot-mode search with every vertex of degree >= k
    as a pivot and count the union of their rows. A wheel's rim is an
    induced cycle, and its hub is a pivot with k neighbours on it.
    Before the first yield every pivot is live, and the cuts drop only
    branches on which no pivot can reach k (`_paths`). So the walk
    yields the rim or an earlier cycle, and if it yields nothing there
    is no wheel. A vertex on an induced cycle has only two neighbours on
    it, so a yield is a cycle plus a vertex off it with k >= 3
    neighbours on it. That is a wheel, or a triangle with a third common
    neighbour, as in K4, which has no hole. Either way the hub search
    below runs exactly as it would alone and gives the witness, so the
    walk changes no witness. A wheel-free graft pays only for the walk,
    and takes no orbit step.

    The hubs come from `_orbit_roots`. An automorphism σ carries a wheel
    with hub h to a wheel with hub σ(h), so the first hub with a wheel
    is the least of its orbit. It is searched exactly as when every hub
    is, so the witness is the same.
    """
    g = gf.graph
    if _cycle_walk(g, k, budget) is None:
        return None
    full = (1 << g.n) - 1
    for h in _orbit_roots(gf, k, budget):
        nh = g.adj[h]
        for a in bits(nh):
            allowed = full & ~(1 << h) & ~(nh & ((1 << a) - 1))
            for cyc in _cycles(g, a, allowed, budget, nh, k):
                if len(cyc) >= 4:
                    rim = _canon_cycle(tuple(cyc))
                    hit = tuple(v for v in rim if nh >> v & 1)
                    return Witness("wheel", rim, center=h, k=len(hit),
                                   hits=hit)
    return None


def _cycle_walk(g: Graph, k: int, budget: SearchBudget):
    """The first induced cycle, in `_wheel`'s decision walk, on which a
    vertex of degree >= k has k neighbours; or None."""
    pivots = _pivots(g, k)
    if not pivots:
        return None
    count = 0
    for p in bits(pivots):
        count |= g.adj[p]
    full = (1 << g.n) - 1
    for s in range(g.n):
        # a cycle's least vertex has two neighbours above it
        if _above(s, g.adj[s]).bit_count() < 2:
            continue
        cyc = next(_cycles(g, s, _above(s, full), budget, count, k, pivots),
                   None)
        if cyc is not None:
            return cyc
    return None


# -- thetas -----------------------------------------------------------------

def _ab_paths(g: Graph, a: int, t: int, allowed: int, budget: SearchBudget):
    """Yield induced a-t paths (length >= 2) with interiors in allowed."""
    na = g.adj[a]
    allowed &= ~(1 << a) & ~(1 << t)
    return _paths(g, [a], na & allowed, allowed & ~na, 1 << t, budget)


def find_theta(g: Graph, budget=None):
    """Two non-adjacent branch vertices linked by three induced paths of
    length >= 2 with disjoint, pairwise non-adjacent interiors; or None.
    """
    b = _budget_for(g, budget)
    full = (1 << g.n) - 1
    adj = g.adj
    for x in range(g.n):
        if adj[x].bit_count() < 3:
            continue
        for y in range(x + 1, g.n):
            if adj[y].bit_count() < 3 or adj[x] >> y & 1:
                continue
            for p1 in _ab_paths(g, x, y, full, b):
                block1 = 0
                for v in p1[1:-1]:
                    block1 |= (1 << v) | adj[v]
                for p2 in _ab_paths(g, x, y, full & ~block1, b):
                    block2 = block1
                    for v in p2[1:-1]:
                        block2 |= (1 << v) | adj[v]
                    for p3 in _ab_paths(g, x, y, full & ~block2, b):
                        return Witness(
                            "theta", (x, y),
                            paths=(tuple(p1), tuple(p2), tuple(p3)))
    return None


# -- fans, guarded fans, mountable paths -------------------------------------

def _fan(g: Graph, kind: str, k: int, ends: int, interior: int,
         pivots: int, budget: SearchBudget):
    """The witness of the given kind with the least pivot of pivots: an
    induced path with both ends in ends and its other vertices in
    interior, plus a pivot off it with >= k neighbours on it; or None.

    One search counts for every pivot at once (`_paths` with pivots),
    over each path in one direction, with count the union of the pivots'
    rows, and roots only the least end of each class of ends with equal
    rows (`_twin_reps`). Its last path is the first path of the least
    pivot p that has one, in p's own search: the same call with only p,
    its row as count, and p cut out of interior and ends. Fix a pivot p
    and first compare the two on the same roots:

    - The shared tree holds p's tree in the same DFS order. Its roots
      and closers are a superset of p's, and its banned masks lack at
      most p, so its cuts prune only where p's would. The shared search
      drops only cuts that hold for p alone: banning p, and the count
      cut on N(p), which it weakens to the union of rows.
    - A vertex on an induced path has at most 2 path neighbours, so for
      k >= 3 a pivot on the path never finishes it, and the branches
      through p finish nothing for p. The first path that finishes p in
      the shared search is p's own first path.
    - A pivot is dropped only when a smaller one finishes, so the least
      pivot with a fan stays live until its first path, and every later
      path finishes a pivot below the one before. The least pivot of
      pivots with k neighbours on the last path is the one it finished.

    Then p's own search keeps its first path when it roots only these
    twin reps. Let u < v be ends with equal rows, so v is not a root.
    Equal rows mean u and v are non-adjacent and have the same
    neighbours, which the row comparison checks edge by edge. So the
    swap of u and v, fixing every other vertex, is an automorphism. If
    p is neither, the swap fixes p, its row, ends and interior, and maps
    each of p's paths rooted at v to one rooted at u < v, which p's
    search reaches first. If p is u, p sees on a path from v only v's
    neighbour on it, and never reaches k. So no first path is rooted at
    v. The same holds for `find_mountable_path`, whose count is the
    tip set, which the swap fixes.

    A path needs two ends, so with fewer there is no search.
    """
    if ends.bit_count() < 2 or not pivots:
        return None
    count = 0
    for p in bits(pivots):
        count |= g.adj[p]
    path = None
    ends &= interior
    for path in _paths(g, [], _twin_reps(g, ends), interior, ends, budget,
                       count, k, pivots, one_way=True):
        pass
    if path is None:
        return None
    for p in bits(pivots):
        hit = tuple(v for v in path if g.adj[p] >> v & 1)
        if len(hit) >= k:
            return Witness(kind, tuple(path), center=p, k=len(hit),
                           hits=hit)


def find_fan(g: Graph, k: int = 3, budget=None):
    """An induced path plus a pivot with >= k neighbors on it, or None.

    Pivots are searched one at a time, in increasing order and one per
    proven orbit (`_orbit_roots`): each is a one-pivot set with the
    pivot cut out of the path, so its count cut is on its own row. Every
    vertex is an end, so the close cut never prunes, and one search for
    every pivot at once walks more nodes than all of these together: on
    g4 it passes 20,000,000 nodes, against 2,908,626 for this loop. An
    automorphism σ carries a fan with pivot p to a fan with pivot σ(p),
    so the first pivot with a fan is the least of its orbit, and its
    search is unchanged.
    """
    if k < 3:
        raise InvalidArgumentError("fans need k >= 3")
    b = _budget_for(g, budget)
    full = (1 << g.n) - 1
    for p in _orbit_roots(Graft(g), k, b):
        w = _fan(g, "fan", k, full, full & ~(1 << p), 1 << p, b)
        if w is not None:
            return w
    return None


def find_guarded_fan(gf: Graft, budget=None):
    """A fan whose path runs tip-to-tip, or None: one search for all
    pivots, the vertices of degree >= 3 (see `_fan`)."""
    g = gf.graph
    b = _budget_for(g, budget)
    pivots = _pivots(g, 3)
    return _fan(g, "guarded-fan", 3, gf.tip_mask, (1 << g.n) - 1, pivots, b)


def find_mountable_path(gf: Graft, budget=None):
    """An induced path through >= 3 tips, or None.

    By minimality only paths with tip endpoints and exactly three tips
    need searching: any longer offender contains one. Each path is
    searched in one direction (`_paths`), and only the least tip of each
    class of tips with equal rows is a root, which keeps the first path
    (`_fan`).
    """
    g = gf.graph
    b = _budget_for(g, budget)
    tm = gf.tip_mask
    if tm.bit_count() < 3:
        return None
    path = next(_paths(g, [], _twin_reps(g, tm), (1 << g.n) - 1, tm, b, tm,
                       3, one_way=True), None)
    if path is None:
        return None
    hit = tuple(u for u in path if tm >> u & 1)
    return Witness("mountable-path", tuple(path), hits=hit)


# -- the clean certifier ------------------------------------------------------

@dataclass(frozen=True)
class Verdict:
    """One clean condition: holds, or fails with a witness."""

    holds: bool
    witness: Witness | None
    nodes: int


@dataclass(frozen=True)
class CleanReport:
    """The five clean-graft conditions, each with its own verdict."""

    triangle_free: Verdict
    tips_stable: Verdict
    wheel_free: Verdict
    no_guarded_fan: Verdict
    no_mountable_path: Verdict

    LABELS: ClassVar[tuple[tuple[str, str], ...]] = (
        ("(1) triangle-free", "triangle_free"),
        ("(2) tips-stable", "tips_stable"),
        ("(3) wheel-free", "wheel_free"),
        ("(4) no-guarded-fan", "no_guarded_fan"),
        ("(5) no-mountable-path", "no_mountable_path"),
    )

    def items(self) -> list[tuple[str, Verdict]]:
        return [(label, getattr(self, attr)) for label, attr in self.LABELS]

    @property
    def all_hold(self) -> bool:
        return all(v.holds for _, v in self.items())

    @property
    def nodes(self) -> int:
        return sum(v.nodes for _, v in self.items())


def _find_stable_violation(gf: Graft, budget: SearchBudget):
    """The first tip, in increasing order, with a tip neighbour, as a
    stable-violation witness with its lowest tip neighbour; or None.

    A kernel search with the tips as roots and closers and no interior
    pops each root as one node, in increasing order, and yields its
    edges to tips. So its first path [t, u] has the least such tip t,
    and u > t, as u has a tip neighbour too; it spends the tips up to t.
    """
    tm = gf.tip_mask
    path = next(_paths(gf.graph, [], tm, 0, tm, budget), None)
    return None if path is None else Witness("stable-violation", tuple(path))


def _apex_walk(gf: Graft, budget: SearchBudget):
    """gf's guarded fan or, if it has none, its mountable path, as
    `find_guarded_fan` and `find_mountable_path` give them; or None.
    Both come from one walk of the tip-to-tip paths: a guarded-fan
    search (`_fan`) of the apex graft gf+, which is gf plus a vertex
    z = n adjacent to exactly the tips, with the pivots of gf plus z
    when gf has 3 or more tips. Only the tip rows gain z's bit.

    A mountable path is an induced path through >= 3 tips, and every
    one contains one with tip ends, its stretch from its first tip to
    its last: a tip-to-tip path on which z has >= 3 neighbours. z lies
    in neither the ends nor the interior, so it is on no path: the
    paths are those of gf, and each pivot of gf has the same neighbours
    on them. The walk's last path is the first path of its least pivot
    p with a fan, in p's own search (`_fan`). If p is a pivot of gf,
    that search is the same on gf+ as on gf, so the witness is
    `find_guarded_fan`'s. If p is z, the largest pivot, gf has no
    guarded fan, and z's own search, with the tips as ends and count,
    is `find_mountable_path`'s: the path is its witness, and z's
    neighbours on it are its tips.
    """
    g = gf.graph
    tm = gf.tip_mask
    z = 1 << g.n
    pivots = _pivots(g, 3)
    if tm.bit_count() >= 3:
        pivots |= z
    adj = list(g.adj)
    for t in gf.tips:
        adj[t] |= z
    adj.append(tm)
    w = _fan(Graph._raw(g.n + 1, adj), "guarded-fan", 3, tm, z - 1,
             pivots, budget)
    if w is not None and w.center == g.n:
        return Witness("mountable-path", w.vertices, hits=w.hits)
    return w


def is_clean(gf: Graft, budget=None) -> CleanReport:
    """Certify the five clean conditions, each exhaustively (or raise
    SearchBudgetExceeded; a truncated search never reports holds).

    budget: None (unlimited, graphs <= 64 vertices only), an int limit
    applied to each condition separately, or a shared SearchBudget.
    Of the five, only the wheel search can take an orbit step, and only
    on a graft where its cycle walk finds a hub (`_wheel`).

    Conditions (4) and (5) walk one tree (`_apex_walk`), and its nodes
    count on (4). If it finds nothing, both hold, and (5) reports 0. If
    it finds a mountable path, (4) holds and (5) fails with that path,
    reporting 0. Only when it finds a guarded fan does (5) search alone
    (`find_mountable_path`). Every witness is the one the detector for
    that condition gives alone.
    """
    g = gf.graph

    def run(fn, *args):
        b = _budget_for(g, budget)
        before = b.nodes
        w = fn(*args, budget=b)
        return Verdict(w is None, w, b.nodes - before)

    v1 = run(find_triangle, g)
    v2 = run(_find_stable_violation, gf)
    v3 = run(_wheel, gf, 3)
    v4 = run(_apex_walk, gf)
    w = v4.witness
    if w is None:
        v5 = Verdict(True, None, 0)
    elif w.kind == "mountable-path":
        v4, v5 = Verdict(True, None, v4.nodes), Verdict(False, w, 0)
    else:
        v5 = run(find_mountable_path, gf)
    return CleanReport(v1, v2, v3, v4, v5)
