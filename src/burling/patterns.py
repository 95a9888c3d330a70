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
enough pivot neighbours or tips. Branch cuts live only in the kernel,
so a new cut is written once and every detector gets it. Three cuts
stop a branch that cannot finish: too few count vertices left unbanned,
no closer left unbanned, and no closer or too few count vertices
reachable from the children through unbanned interior vertices.

Two reductions sit in the detector loops instead, and both keep every
witness. Wheels and fans search one hub or pivot per orbit of the
graft's automorphisms, each orbit proven by explicit automorphisms
(`_Orbits`, `iso.orbits`). Fans and mountable paths search each
end-to-end path in one direction (`_one_way`), the same loop that
searches each triangle and cycle in one direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from .bits import bits
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
           budget: SearchBudget, count: int = 0, need: int = 0):
    """Yield induced paths head + [r, ..., c] as vertex lists.

    r is a vertex of roots, the vertices between r and c lie in interior,
    and c, the closer, is a neighbour of the path's end from close. The
    head is taken as given: the caller makes roots, interior and close
    fit it. A path must carry at least need vertices of count. A closer
    that brings the path to need finishes it and is never entered; other
    vertices of close are entered only if they lie in interior. Roots are
    searched in increasing order, closers yielded in increasing order,
    and children popped in increasing order. Each node is spent on the
    budget as it is popped, before it is searched.

    Three cuts, all applied at each node v before its children are
    pushed. They rest on the banned mask: a vertex joins or closes the
    path only if it is outside banned, and banned only grows down a
    branch. It starts as every vertex outside interior and close plus
    the root, and each child c of v gets banned | N(v) | {c}, which also
    keeps the path induced. So:

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
    skips the BFS: guarded fan on g4 takes about 30% longer without the
    close cut and 7% longer without the count cut, with the same nodes
    (medians of 7 in-process rounds alternating the kernels, 2-core VM,
    Python 3.11).
    """
    adj = g.adj
    path = list(head)
    hits = sum(count >> u & 1 for u in head)
    banned = ((1 << g.n) - 1) & ~(interior | close)
    stack = []
    while roots:
        r = roots.bit_length() - 1
        roots ^= 1 << r
        stack.append((r, banned | 1 << r, hits + (count >> r & 1), len(head)))
    while stack:
        v, banned, hits, depth = stack.pop()
        budget.spend(1)
        del path[depth:]
        path.append(v)
        if need and hits + (count & ~banned).bit_count() < need:
            continue
        free = adj[v] & ~banned
        if hits >= need:
            done = free & close
        elif hits + 1 == need:
            done = free & close & count
        else:
            done = 0
        m = done
        while m:
            c = m & -m
            m ^= c
            yield path + [c.bit_length() - 1]
        m = free & interior & ~done
        if not m or not close & ~(banned | adj[v]):
            continue
        banned |= adj[v]
        seen = front = m
        while front:
            grow = 0
            while front:
                u = front & -front
                front ^= u
                grow |= adj[u.bit_length() - 1]
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
                          depth + 1))


def _above(v: int, mask: int) -> int:
    return mask >> (v + 1) << (v + 1)


def _one_way(g: Graph, head: list[int], ends: int, interior: int,
             budget: SearchBudget, count: int = 0, need: int = 0):
    """For each r in ends, in increasing order, with some end above r,
    yield what `_paths(g, head, 1 << r, interior, _above(r, ends), ...)`
    yields. So every path runs from its root r to a closer above r, and
    a path with both ends in ends is searched in one direction only.

    With an empty head, the first path this yields is the first path of
    the full call: one `_paths` call over all of ends as roots with
    every end as a closer. Let r be the least root the full call yields
    from. Every path it yields from r closes above r: were its closer c
    below r, the reversed path, or its shortest prefix of two or more
    vertices that ends in ends and carries need vertices of count,
    would be yielded from root c < r. So under r the full call never
    uses a closer below r, its kernel tree under r is the same with
    those closers dropped, and dropping them only lets the close and
    reach cuts remove more branches that yield nothing. A root below r
    yields nothing here: a path it yields has a shortest such prefix,
    which the full call would yield from it. A root with no end above
    it has no closer, so it is not searched.
    """
    for r in bits(ends):
        if ends >> r + 1:
            yield from _paths(g, head, 1 << r, interior, _above(r, ends),
                              budget, count, need)


def _cycles(g: Graph, s: int, allowed: int, budget: SearchBudget,
            count: int = 0, need: int = 0):
    """Yield induced cycles through s as vertex lists [s, v1, ..., c].

    The other vertices lie in allowed. Each cycle comes once: v1 and c
    are the two neighbours of s on it, and `_one_way` closes it only
    above v1, so of its two directions only one survives.
    """
    ns = g.adj[s] & allowed
    return _one_way(g, [s], ns, allowed & ~ns & ~(1 << s), budget, count,
                    need)


# -- symmetry -----------------------------------------------------------------

class _Orbits:
    """The roots a detector loop searches: one hub or pivot per proven
    orbit of a graft's tip-preserving automorphisms.

    The orbits come from `iso.orbits`, computed on first need and spent
    on the budget of the search that needs them, so the detectors of
    one is_clean call share one orbit step. Orbits of tip-preserving
    automorphisms serve a search that ignores tips too: they are orbits
    of a group of automorphisms of the graph, only maybe finer.
    """

    __slots__ = ("gf", "reps")

    def __init__(self, gf: Graft):
        self.gf = gf
        self.reps = None

    def roots(self, k: int, budget: SearchBudget):
        """Yield each vertex of degree >= k, in increasing order, that
        is the least of its proven orbit.

        Automorphisms keep degrees, so a vertex is the least of its
        orbit when no smaller vertex of degree >= k shares its degree.
        Only a repeated degree calls for the orbit step.
        """
        adj = self.gf.graph.adj
        seen = set()
        for v in range(len(adj)):
            d = adj[v].bit_count()
            if d < k:
                continue
            if d in seen:
                if self.reps is None:
                    self.reps = orbits(self.gf, budget)[0]
                if self.reps[v] != v:
                    continue
            seen.add(d)
            yield v


# -- triangles, holes and wheels ----------------------------------------------

def find_triangle(g: Graph, budget=None):
    """First triangle in lexicographic order, or None.

    A triangle u < v < w is the path u-v closed by w. For each u,
    `_one_way` takes the roots v from the neighbours of u above u, and
    the closers w from those above v, in increasing order.
    """
    b = _budget_for(g, budget)
    for u in range(g.n):
        for tri in _one_way(g, [u], _above(u, g.adj[u]), 0, b):
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

    Hub-first: each vertex of degree >= k is tried as the hub, anchoring
    the rim DFS at its smallest rim neighbor, and the hubs are cut to
    one per proven orbit (`_Orbits`). The first witness in increasing
    hub order is returned. threads is kept for existing callers and
    must be 1: threads give this pure-Python search no speedup.
    """
    if k < 3:
        raise InvalidArgumentError("wheels need k >= 3")
    if threads != 1:
        raise InvalidArgumentError(f"threads must be 1, got {threads}")
    return _wheel(g, k, _Orbits(Graft(g)), _budget_for(g, budget))


def _wheel(g: Graph, k: int, orbs: _Orbits, budget: SearchBudget):
    """find_wheel's search over the hubs that orbs.roots yields.

    An automorphism σ carries a wheel with hub h to a wheel with hub
    σ(h), so the first hub with a wheel is the least of its orbit. It
    is searched exactly as when every hub is, so the witness is the
    same.
    """
    full = (1 << g.n) - 1
    for h in orbs.roots(k, budget):
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

def _fan(g: Graph, kind: str, k: int, ends: int, orbs: _Orbits,
         budget: SearchBudget):
    """The first witness of the given kind over pivots in increasing
    order: an induced path avoiding the pivot, both ends in ends, with
    >= k pivot neighbors on it; or None.

    Two reductions keep that witness. Each pivot's paths are searched
    in one direction (`_one_way`), and the pivots are the ones
    orbs.roots yields, where the automorphisms behind orbs map ends
    onto ends. Such an automorphism σ carries a fan with pivot p to a
    fan with pivot σ(p), so the first pivot with a fan is the least of
    its orbit, and its search is unchanged. A path needs two ends, so
    with fewer there is no search and no orbit work.
    """
    if ends.bit_count() < 2:
        return None
    full = (1 << g.n) - 1
    for pivot in orbs.roots(k, budget):
        nf = g.adj[pivot]
        interior = full & ~(1 << pivot)
        path = next(_one_way(g, [], ends & interior, interior, budget,
                             nf, k), None)
        if path is not None:
            hit = tuple(v for v in path if nf >> v & 1)
            return Witness(kind, tuple(path), center=pivot, k=len(hit),
                           hits=hit)
    return None


def find_fan(g: Graph, k: int = 3, budget=None):
    """An induced path plus a pivot with >= k neighbors on it, or None."""
    if k < 3:
        raise InvalidArgumentError("fans need k >= 3")
    return _fan(g, "fan", k, (1 << g.n) - 1, _Orbits(Graft(g)),
                _budget_for(g, budget))


def find_guarded_fan(gf: Graft, budget=None):
    """A fan whose path runs tip-to-tip, or None."""
    return _fan(gf.graph, "guarded-fan", 3, gf.tip_mask, _Orbits(gf),
                _budget_for(gf.graph, budget))


def find_mountable_path(gf: Graft, budget=None):
    """An induced path through >= 3 tips, or None.

    By minimality only paths with tip endpoints and exactly three tips
    need searching: any longer offender contains one. Each path is
    searched in one direction (`_one_way`).
    """
    g = gf.graph
    b = _budget_for(g, budget)
    tm = gf.tip_mask
    if tm.bit_count() < 3:
        return None
    path = next(_one_way(g, [], tm, (1 << g.n) - 1, b, tm, 3), None)
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


def is_clean(gf: Graft, budget=None) -> CleanReport:
    """Certify the five clean conditions, each exhaustively (or raise
    SearchBudgetExceeded; a truncated search never reports holds).

    budget: None (unlimited, graphs <= 64 vertices only), an int limit
    applied to each condition separately, or a shared SearchBudget.
    Wheel and guarded fan share one orbit step, spent on the budget of
    the first of them that needs it.
    """
    g = gf.graph
    orbs = _Orbits(gf)

    def run(fn, *args):
        b = _budget_for(g, budget)
        before = b.nodes
        w = fn(*args, budget=b)
        return Verdict(w is None, w, b.nodes - before)

    v1 = run(find_triangle, g)
    v2 = run(_find_stable_violation, gf)
    v3 = run(_wheel, g, 3, orbs)
    v4 = run(_fan, g, "guarded-fan", 3, gf.tip_mask, orbs)
    v5 = run(find_mountable_path, gf)
    return CleanReport(v1, v2, v3, v4, v5)
