"""Exact pattern detectors with witnesses, plus the clean-graft certifier.

Detectors: triangle, hole (iterator), wheel, theta, fan, guarded fan,
mountable path. All are exhaustive decision procedures that surrender a
Witness on success; a node budget can bound the search, in which case
running out raises SearchBudgetExceeded (inconclusive) rather than ever
reporting a truncated search as "holds".

Every detector is a short wrapper around one search kernel, `_paths`, a
DFS over induced paths with a banned-vertex mask: extending past u bans
N(u), so later vertices cannot chord back. A path grows from a fixed
head through root and interior vertices and finishes on a closer, a
neighbour of its end drawn from a close mask. Cycles (triangles, holes,
wheel rims) close on neighbours of the head vertex, theta branches on
the far branch vertex, fans and mountable paths on an end vertex once
the path carries enough pivot neighbours or tips. The kernel counts in
one of two ways: vertices of one count mask, or bit-sliced neighbour
counts for a whole set of pivots at once, which lets one walk serve
every pivot. Branch cuts live only in the kernel, so a new cut is
written once and every detector gets it. Three cuts stop a branch that
cannot finish: too few count vertices left unbanned, no closer left
unbanned, and no closer or too few count vertices reachable from the
children through unbanned interior vertices.

Four reductions sit in the detector loops instead, and all keep every
witness. Wheels are decided by one walk of the holes for every hub at
once, the walk `find_hole` lists holes with (`_holes`). It names the
least hub with a wheel by the rule every shared-pivot walk uses
(`_last_pivot`), and only that hub is searched for the witness
(`_wheel`, `_cycle_walk`). Cycles, fans and mountable paths are each
walked in one direction (`_paths` with one_way), and fan and tip-to-tip
walks root only the least end of each class of twins, ends with equal
rows, as swapping two twins is an automorphism (`_twin_reps`). Where the
least tip's walk shows that the orbit step pays, the tip-to-tip walk
is first run with its roots filtered to the least tip of each orbit of
the graft's tip-preserving automorphisms, each orbit proven by explicit
automorphisms (`iso.orbits`), and only a graft where that walk finds a
path is walked again, unfiltered, for the witness (`_tip_walk`). And
every tip-to-tip question is one shared-pivot walk of the apex graft,
the graft plus a vertex joined to exactly the tips (`_apex_walk`): a
mountable path is a guarded fan whose pivot is that apex.
`find_guarded_fan` walks with the graft's pivots, `find_mountable_path`
with the apex alone, and `is_clean` decides conditions (4) and (5) with
both at once; only a graft with a guarded fan is searched for a
mountable path alone.
"""

from __future__ import annotations

from .bits import bits, mask_of
from .graph import Graph, Graft, _Record
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
    each refinement round of a tip walk's orbit step (`_tip_walk`,
    `iso.orbits`) one node per vertex it recolors. A search raises on
    its first node past the limit, and then nodes is limit + 1. limit
    None means unlimited; nodes still accumulates so callers can report
    how much work a verdict took.
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
    that brings the path to need finishes it, and a vertex of close that
    lies in interior is entered as a child too, finished or not: every
    caller whose closers meet interior stops at its first path. Roots
    are searched in increasing order, closers yielded in increasing
    order, and children popped in increasing order. Each node is spent
    on the budget as it is popped, before it is searched. A root with no
    closer is not pushed, so it spends nothing.

    With one_way, each root r closes only on the vertices of close above
    r, so a path with both ends in roots is walked from its lesser end
    only. Let roots equal close and head be empty; the first path is
    then that of the two-way walk. Let r be the least root the two-way
    walk yields from. Every path it yields from r closes above r: were
    its closer c below r, the two-way walk would yield the reversed path
    from root c < r. So under r the two-way walk never uses a closer
    below r, its tree under r is the same with those closers dropped,
    and dropping them only lets the close and reach cuts remove more
    branches that yield nothing. A root below r yields nothing one way
    either, as the two-way walk would yield the same path from it.
    Cycles use the same rule with a head (`_cycles`), and fan and
    tip-to-tip walks root one end per twin class (`_twin_reps`).

    A one-way root r never closes on its own neighbours either. No
    closer below r is one, as extending past r bans N(r), so the rule
    drops only the paths head + [r, c] with c a neighbour of r. With
    head [s] these are the triangles through s, so one-way cycles are
    holes (`_cycles`). With an empty head they are two-vertex paths,
    which carry at most two vertices of count and give a pivot at most
    two neighbours, so the fan and tip-to-tip walks, all with need >= 3,
    never finish them. Nor does the rule change a branch: children do
    not depend on closers, and every node at or below r bans N(r), so
    the close and reach cuts never test a neighbour of r. Its one other
    effect is that a root whose every closer is a neighbour of it is not
    pushed, as it has no closer, and spends no node.

    With pivots, a path must also bring a live pivot to need neighbours
    on it. count must hold every pivot's row, so such a path carries
    need vertices of count, and a closer that brings a pivot from
    need - 1 to need lies in count. The live set starts as pivots. Each
    node carries bit-sliced counters: tally[j] is the set of pivots
    with at least j neighbours on the path, and adding u sets
    tally[j] |= tally[j - 1] & N(u). A closer finishes the path when
    some live pivot is in tally[need] or in tally[need - 1] & N(c); the
    path is yielded, and the live set shrinks to the pivots below the
    least such pivot (`_last_pivot`). Every root starts from the live
    set the roots before it left, the search ends when no pivot is live,
    and it returns the live set.

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
    skips the BFS. Without both, with the same nodes, certify's slices
    took longer: mid-size `is_clean` 11% (median 0.261 s to 0.290 s),
    fuzz `is_clean` 13%, small detectors 10%, g4 searches 12% (medians
    of 4 alternating traced runs, 2-core VM, Python 3.11).
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
        shut = _above(r, close) & ~adj[r] if one_way else close
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
        m = free & interior
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


def _rows(g: Graph, pivots: int) -> int:
    """The union of the pivots' rows, the count of a pivot-mode walk."""
    count = 0
    for p in bits(pivots):
        count |= g.adj[p]
    return count


def _last_pivot(g: Graph, pivots: int, k: int, walk):
    """(path, p): the last path of a pivot-mode walk (`_paths` with
    pivots and need k >= 3) and the least pivot p with k neighbours on
    it; or (None, None) when the walk yields nothing.

    p is the least pivot with a path in the walk, and path is p's first.
    A yield leaves live only the pivots below the least one it finishes.
    No pivot below p finishes anywhere, so p stays live until its first
    path, which the walk reaches: its cuts drop only branches on which
    no live pivot can reach k, and a yield changes no branch. That path
    finishes p and leaves no live pivot that finishes, so it is last.
    """
    path = None
    for path in walk:
        pass
    if path is None:
        return None, None
    on = mask_of(path)
    return path, next(p for p in bits(pivots)
                      if (g.adj[p] & on).bit_count() >= k)


def _twin_reps(g: Graph, ends: int) -> int:
    """The least vertex of each class of ends with equal rows.

    A one-way search for the first path with both ends in ends, the
    rest in interior and k >= 3 vertices of count keeps that path when
    it roots only these reps, if the swap of two twins keeps ends and
    interior, and count is the row of a pivot p or a set the swap keeps,
    as the tips. Let u < v be ends with equal rows, so v is not a root.
    Equal rows mean u and v are non-adjacent and have the same
    neighbours, which the row comparison checks edge by edge. So the
    swap of u and v, fixing every other vertex, is an automorphism. If
    p is neither, or count is such a set, the swap keeps count, and maps
    each path rooted at v to one rooted at u < v, which the search
    reaches first. If p is u, p sees on a path from v only v's
    neighbour on it, and never reaches k. So no first path is rooted at
    v.
    """
    reps, rows = 0, set()
    for v in bits(ends):
        if g.adj[v] not in rows:
            rows.add(g.adj[v])
            reps |= 1 << v
    return reps


def _cycles(g: Graph, s: int, allowed: int, budget: SearchBudget,
            count: int = 0, need: int = 0, pivots: int = 0):
    """Yield the holes through s as vertex lists [s, v1, ..., c].

    The other vertices lie in allowed. Each hole comes once: v1 and c
    are the two neighbours of s on it, and the one-way walk closes it
    only above v1, so of its two directions only one survives. A
    one-way root never closes on its own neighbours, so triangles never
    close (`_paths`). With pivots, a hole is yielded only when a live
    pivot has need neighbours on it, and the walk returns the live set.
    """
    ns = g.adj[s] & allowed
    return _paths(g, [s], ns, allowed & ~ns & ~(1 << s), ns, budget, count,
                  need, pivots, one_way=True)


def _holes(g: Graph, budget: SearchBudget, need: int = 0, pivots: int = 0):
    """Yield every hole of g once, as [s, v1, ..., c] from its least
    vertex s, with v1 < c (`_cycles`). A start with fewer than two
    neighbours above it roots nothing, so it is skipped. With pivots, a
    hole is yielded only if a live pivot has need neighbours on it, and
    each start begins from the live set the one before it left, so the
    starts act as one walk (`_paths`), which ends when no pivot is live.

    Each start counts the rows of its live pivots only (`_rows`), which
    is all `_paths` asks of count, so a start after one that left fewer
    pivots live cuts more: the cuts test no row of a pivot that can no
    longer finish. A walk that yields nothing never shrinks the live
    set, so it spends what a walk counting every pivot's row spends.
    """
    full = (1 << g.n) - 1
    live = pivots
    count = _rows(g, live)
    for s in range(g.n):
        if _above(s, g.adj[s]).bit_count() >= 2:
            left = yield from _cycles(g, s, _above(s, full), budget, count,
                                      need, live)
            if left != live:
                if not left:
                    return
                live, count = left, _rows(g, left)


# -- symmetry -----------------------------------------------------------------

def _tip_walk(gf: Graft, g: Graph, pivots: int, budget: SearchBudget):
    """Yield the paths of the one-way pivot-mode walk of gf's tip-to-tip
    paths in g (`_paths` with gf's tips as ends, every vertex of gf as
    interior, need 3 and the live pivots' rows as count), rooted at the
    least tip of each class of tips with equal rows; or nothing, when
    the same walk rooted at one tip per proven tip orbit finds no path.

    g is the apex graft of `_apex_walk`: gf's graph plus a vertex that
    every tip-preserving automorphism of gf, extended to fix it, keeps.
    The pivots, and so their rows, are kept by those automorphisms too.

    The least root, the least tip, is walked first and alone. If it
    yields, its walk goes on, and the other roots start from the live
    set it left, counting only its rows, as in one `_paths` call over
    every root. If it yields nothing, the live set is still pivots, and
    one call walks the other roots exactly as that call would, unless
    the orbit step is taken and its reduced walk finds no path. So every
    path yielded is one the unreduced walk yields, in its order.

    The reduced walk roots the least tip r of each tip orbit that gf's
    proven automorphisms (`iso.orbits`) give, each merge checked edge by
    edge and tip by tip, but the least tip, and stops at its first
    path. Take any tip-to-tip path P with a pivot p that has 3
    neighbours on it, and an end a of P whose orbit's least member r is
    at most that of the other end b. Some proven automorphism σ takes a
    to r. σ keeps the tips, every vertex of gf, the pivots and their
    rows, so σ(P) is a tip-to-tip path on which σ(p) has 3 neighbours.
    Its end σ(b) is a tip of b's orbit other than r, so it lies above
    r, and it is not a neighbour of r, as σ(P) has at least 3 vertices.
    If r is the least tip, the least tip's walk, which yielded nothing,
    would have met σ(P). Otherwise the one-way walk from r closes on
    σ(b), and before its first yield every pivot is live and the cuts
    drop only branches that cannot finish (`_paths`), so it yields σ(P)
    or an earlier path. And a path it yields is a path of the walk. So
    a path exists exactly when one of the two walks yields.

    The orbit step pays where the walk left is long. The least tip's
    walk is the same with or without it, so it measures the walk left:
    about the nodes it spent for each of the other m - 1 roots, one per
    class of twin tips. A refinement round spends one node per vertex of
    gf, and the orbit step costs about 64 rounds on g4 and T5 (19,158
    nodes, 62 n, on g4; 42,375, 75 n, on T5). So the step is taken only
    when spent * (m - 1) >= 64 n. On certify's mid-size fuzz grafts the
    walk left is 10 n to 34 n. On g4 it is 78 n, and the 128 roots fall
    into 8 orbits; on T5 it is 418 n, and 256 roots fall into 16. The
    orbit step spends on budget before each refinement round, so a limit
    stops it as it stops the kernel.
    """
    tm = gf.tip_mask

    def walk(roots, live):
        return _paths(g, [], roots, (1 << gf.n) - 1, tm, budget,
                      _rows(g, live), 3, live, one_way=True)

    roots = _twin_reps(g, tm)
    first = roots & -roots
    live = pivots
    if roots != first:
        before = budget.nodes
        paths = walk(first, pivots)
        path = next(paths, None)
        if path is not None:
            yield path
            live = yield from paths
            if not live:
                return
        elif (budget.nodes - before) * (roots.bit_count() - 1) >= 64 * gf.n:
            reps = orbits(gf, budget)[0]
            reduced = mask_of(reps[t] for t in gf.tips) & ~first
            if next(walk(reduced, pivots), None) is None:
                return
        roots ^= first
    yield from walk(roots, live)


# -- triangles, holes and wheels ----------------------------------------------

def find_triangle(g: Graph, budget=None):
    """First triangle in lexicographic order, or None.

    For each u, each neighbour v of u above u that has a neighbour of u
    above it, in increasing order, spends one node; the least common
    neighbour w > v of u and v closes the triangle u < v < w.
    """
    b = _budget_for(g, budget)
    for u in range(g.n):
        nu = _above(u, g.adj[u])
        for v in bits(nu)[:-1]:
            b.spend(1)
            w = g.adj[v] & _above(v, nu)
            if w:
                return Witness("triangle", (u, v, (w & -w).bit_length() - 1))
    return None


def _canon_cycle(cyc: tuple[int, ...]) -> tuple[int, ...]:
    """Rotate/reflect so the lowest vertex leads, lower neighbor second."""
    i = cyc.index(min(cyc))
    rot = cyc[i:] + cyc[:i]
    rev = (rot[0],) + tuple(reversed(rot[1:]))
    return min(rot, rev)


def find_hole(g: Graph, min_len: int = 4, budget=None):
    """Iterate every hole of length >= min_len, canonically ordered
    (lowest vertex first, its lower cycle-neighbor second), each once
    (`_holes`)."""
    if min_len < 4:
        raise InvalidArgumentError("holes have length at least 4")
    b = _budget_for(g, budget)
    return (Witness("hole", tuple(cyc)) for cyc in _holes(g, b)
            if len(cyc) >= min_len)


def find_wheel(g: Graph, k: int = 3, budget=None, threads: int = 1):
    """A hole plus an off-hole hub with >= k neighbors on it, or None.

    One walk of every hole, shared by every hub, names the least hub
    with a wheel (`_cycle_walk`), and only that hub is searched for the
    witness, anchoring the rim DFS at its smallest rim neighbor
    (`_wheel`). threads is kept for existing callers and must be 1:
    threads give this pure-Python search no speedup.
    """
    if k < 3:
        raise InvalidArgumentError("wheels need k >= 3")
    if threads != 1:
        raise InvalidArgumentError(f"threads must be 1, got {threads}")
    return _wheel(g, k, _budget_for(g, budget))


def _wheel(g: Graph, k: int, budget: SearchBudget):
    """find_wheel's search: one walk names the least hub h with a wheel
    (`_cycle_walk`), and h's own search gives the witness.

    h's search walks the holes through each neighbour a of h in
    increasing order, over the vertices other than h and the neighbours
    of h below a, with h's row as count; its first hole is the rim. That
    is the witness a search of every hub in increasing order gives, as
    h is the first hub with a wheel (`_last_pivot`). A wheel-free graft
    pays only for the walk.
    """
    h = _cycle_walk(g, k, budget)
    if h is None:
        return None
    nh = g.adj[h]
    full = (1 << g.n) - 1
    for a in bits(nh):
        allowed = full & ~(1 << h) & ~(nh & ((1 << a) - 1))
        for cyc in _cycles(g, a, allowed, budget, nh, k):
            return _pivot_witness(g, "wheel", _canon_cycle(tuple(cyc)), h)


def _cycle_walk(g: Graph, k: int, budget: SearchBudget):
    """The least vertex with k neighbours on a hole of g, `_wheel`'s
    hub, or None.

    One pivot-mode walk of the holes (`_holes`) meets every hole once,
    with every vertex of degree >= k as a pivot, each start counting
    only the rows of the pivots still live, and names the least pivot
    that has k neighbours on a hole (`_last_pivot`). A vertex on a
    hole has only two neighbours on it, so a pivot with k >= 3
    neighbours on a hole is off it: a hub.
    """
    pivots = _pivots(g, k)
    walk = _holes(g, budget, k, pivots)
    return _last_pivot(g, pivots, k, walk)[1] if pivots else None


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

def _apex_walk(gf: Graft, pivots: int, budget: SearchBudget):
    """The guarded fan or mountable path of gf whose pivot is the least
    of pivots that has one, as that pivot's own search gives it; or
    None.

    pivots are vertices of gf of degree >= 3, plus the apex bit z =
    1 << n to ask for a mountable path; z is dropped when gf has fewer
    than 3 tips. One walk answers (`_tip_walk`): a one-way walk of gf's
    tip-to-tip paths on the apex graft gf+, gf plus the vertex z
    adjacent to exactly the tips, that counts for every pivot at once
    (`_paths` with pivots) and roots only the least tip of each class
    of tips with equal rows. A path needs two ends, so with fewer tips
    there is no search.

    The apex. A mountable path is an induced path through >= 3 tips,
    and every one contains one with tip ends, its stretch from its first
    tip to its last: a tip-to-tip path on which z has >= 3 neighbours,
    its tips. So z's own search, with the tips as ends and as count, is
    the mountable-path search, and with fewer than 3 tips z never
    finishes. z lies outside interior and outside the ends, so it is
    banned from the first node: it is on no path, and the cuts never
    count it. Only the tip rows gain z's bit, and that bit changes no
    child, no cut, no twin class of tips and no tally of a pivot of gf.
    So the paths are gf's, and a walk of gf's pivots spends on gf+ what
    it spends on gf. With z as its one pivot, tally[j] holds z exactly
    when the path carries j tips, so the walk finishes, cuts and spends
    as the walk that counts tips alone, and it ends at its first path.

    The least pivot. The walk's last path is the first path of the least
    pivot p that has one, in p's own search: the same call with only p,
    its row as count, and p cut out of interior and the tips. Fix a
    pivot p and first compare the two on the same roots:

    - The shared tree holds p's tree in the same DFS order. Its roots
      and closers are a superset of p's, and its banned masks lack at
      most p, so its cuts prune only where p's would. The shared search
      drops only cuts that hold for p alone: banning p, and the count
      cut on N(p), which it weakens to the union of rows.
    - A vertex on an induced path has at most 2 path neighbours, so for
      k >= 3 a pivot on the path never finishes it, and the branches
      through p finish nothing for p. The first path that finishes p in
      the shared search is p's own first path.
    - The least pivot with 3 neighbours on the last path is the least
      pivot with a path, and that path is its first (`_last_pivot`).

    p's own search keeps its first path when it roots only the twin
    reps (`_twin_reps`), as the swap of two twin tips keeps the tips
    and interior. And `_tip_walk` yields the same paths in the same
    order, or none when its walk rooted at one tip per tip orbit shows
    that there are none. Each tip-preserving automorphism of
    gf, extended to fix z, is one of gf+: it keeps the tips, so z's
    row, and degrees, so the pivots. So the orbit argument holds on gf+
    with gf's orbits, and the last path, and the witness, are p's: the
    mountable path if p is z, the largest pivot, and so no pivot of gf
    has a guarded fan; else p's guarded fan.
    """
    g = gf.graph
    tm = gf.tip_mask
    z = 1 << g.n
    if tm.bit_count() < 3:
        pivots &= ~z
    if tm.bit_count() < 2 or not pivots:
        return None
    adj = list(g.adj)
    for t in gf.tips:
        adj[t] |= z
    adj.append(tm)
    g = Graph._raw(g.n + 1, adj)
    path, p = _last_pivot(g, pivots, 3, _tip_walk(gf, g, pivots, budget))
    if path is None:
        return None
    w = _pivot_witness(g, "guarded-fan", path, p)
    if p == gf.n:
        return Witness("mountable-path", w.vertices, hits=w.hits)
    return w


def _pivot_witness(g: Graph, kind: str, path, p: int):
    """The witness of the given kind: path with pivot p."""
    hit = tuple(v for v in path if g.adj[p] >> v & 1)
    return Witness(kind, tuple(path), center=p, k=len(hit), hits=hit)


def find_fan(g: Graph, k: int = 3, budget=None):
    """An induced path plus a pivot with >= k neighbors on it, or None.

    Pivots, the vertices of degree >= k, are searched one at a time in
    increasing order, and the first path of the first pivot p with a
    fan is the witness. p's search is a one-way walk (`_paths`) of the
    paths through every vertex but p, with p's row as count, rooted at
    the least end of each class of ends with equal rows, which keeps
    its first path (`_twin_reps`). Every vertex is an end, so the close
    cut never prunes, and one search for every pivot at once walks more
    nodes than all of these together: on g4 it passes 20,000,000 nodes,
    against 2,908,626 for this loop.
    """
    if k < 3:
        raise InvalidArgumentError("fans need k >= 3")
    b = _budget_for(g, budget)
    full = (1 << g.n) - 1
    for p in bits(_pivots(g, k)):
        rest = full & ~(1 << p)
        for path in _paths(g, [], _twin_reps(g, rest), rest, rest, b,
                           g.adj[p], k, one_way=True):
            return _pivot_witness(g, "fan", path, p)
    return None


def find_guarded_fan(gf: Graft, budget=None):
    """A fan whose path runs tip-to-tip, or None: one walk for all
    pivots, the vertices of degree >= 3, decided first by a walk rooted
    at one tip per proven tip orbit where that pays (`_apex_walk`)."""
    g = gf.graph
    return _apex_walk(gf, _pivots(g, 3), _budget_for(g, budget))


def find_mountable_path(gf: Graft, budget=None):
    """An induced path through >= 3 tips, or None.

    By minimality only paths with tip endpoints and exactly three tips
    need searching: any longer offender contains one. That search is the
    guarded-fan walk with one pivot, an apex vertex joined to exactly
    the tips (`_apex_walk`), so it walks each path in one direction,
    roots one tip per class of twins, and where the orbit step pays, is
    decided first by a walk rooted at one tip per proven tip orbit.
    """
    g = gf.graph
    return _apex_walk(gf, 1 << g.n, _budget_for(g, budget))


# -- the clean certifier ------------------------------------------------------

class Verdict(_Record):
    """One clean condition: holds, or fails with a witness."""

    __slots__ = ("holds", "witness", "nodes")


class CleanReport(_Record):
    """The five clean-graft conditions, each with its own verdict."""

    __slots__ = ("triangle_free", "tips_stable", "wheel_free",
                 "no_guarded_fan", "no_mountable_path")

    LABELS = (
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
    Only the walk of (4) and (5) takes an orbit step, and only where
    the least tip's walk shows that it pays (`_tip_walk`).

    Conditions (4) and (5) walk one tree (`_apex_walk`, with gf's
    pivots and the apex), and its nodes count on (4). If it finds
    nothing, both hold, and (5) reports 0. If it finds a mountable path,
    (4) holds and (5) fails with that path, reporting 0. Only when it
    finds a guarded fan does (5) search alone (`find_mountable_path`).
    Every witness is the one the detector for that condition gives
    alone.
    """
    g = gf.graph

    def run(fn, *args):
        b = _budget_for(g, budget)
        before = b.nodes
        w = fn(*args, budget=b)
        return Verdict(w is None, w, b.nodes - before)

    v1 = run(find_triangle, g)
    v2 = run(_find_stable_violation, gf)
    v3 = run(_wheel, g, 3)
    v4 = run(_apex_walk, gf, _pivots(g, 3) | 1 << g.n)
    w = v4.witness
    if w is None:
        v5 = Verdict(True, None, 0)
    elif w.kind == "mountable-path":
        v4, v5 = Verdict(True, None, v4.nodes), Verdict(False, w, 0)
    else:
        v5 = run(find_mountable_path, gf)
    return CleanReport(v1, v2, v3, v4, v5)
