"""Exact chromatic number with certificates, greedy bounds, and the
rainbow-tip search that powers the chromatic lower bound.

One backtracking search, `_search`, answers both exact questions: is
there a proper c-coloring, and is there one that keeps every tip's
neighborhood under k colors (the rainbow bound). With c = n its first
descent is greedy DSATUR, which gives both cheap bounds of
`bounds_only`: its color count is the upper bound, and as it uses at
most 2 colors exactly on bipartite graphs, it is also the odd-cycle
test of the lower bound (`_lower`). The chromatic number counts c up
from that lower bound.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .bits import bits
from .graph import Graph, Graft, _Record, _set
from .errors import CapError, InvalidArgumentError

__all__ = [
    "Coloring", "ChromaticCertificate", "is_proper",
    "chromatic_number", "bounds_only", "find_non_rainbow_coloring",
    "CHROMA_CAP", "RAINBOW_CAP",
]

CHROMA_CAP = 64
RAINBOW_CAP = 21


class Coloring(_Record):
    """A vertex coloring using color ids 0..count-1, every class used."""

    __slots__ = ("colors",)

    def __init__(self, colors: tuple[int, ...]):
        colors = tuple(colors)
        used = set(colors)
        if used and used != set(range(len(used))):
            raise InvalidArgumentError(
                "colors must be exactly 0..count-1 with no empty class")
        _set(self, "colors", colors)

    @property
    def count(self) -> int:
        return max(self.colors) + 1 if self.colors else 0


class ChromaticCertificate(_Record):
    __slots__ = ("chi", "witness", "lower_bound_proof")


def is_proper(g: Graph, coloring) -> bool:
    """Independent validator: no edge joins two same-colored vertices."""
    colors = coloring.colors if isinstance(coloring, Coloring) else tuple(coloring)
    if len(colors) != g.n:
        raise InvalidArgumentError("coloring length must match vertex count")
    return all(colors[u] != colors[v] for u, v in g.edges())


def _greedy_clique(g: Graph) -> list[int]:
    order = sorted(range(g.n), key=lambda v: -g.adj[v].bit_count())
    clique: list[int] = []
    cmask = 0
    for v in order:
        if g.adj[v] & cmask == cmask:
            clique.append(v)
            cmask |= 1 << v
    return clique


def _search(g: Graph, c: int, tips=(), k: int = 0) -> list[int] | None:
    """First proper coloring with colors 0..c-1 under which every tip's
    neighborhood shows fewer than k colors (k = 0: no tip condition),
    or None if there is none.

    DSATUR order (Brelaz, CACM 1979): the next vertex has the most
    distinct neighbor colors, then the highest degree, then the lowest
    id. It tries colors in increasing order, a fresh one only if it is
    the next unused id, so every color 0..count-1 gets used.

    Soundness: rename any valid coloring F in order of first use along
    the search. Each picked vertex is offered its renamed F-color (an
    old one, or the next unused id, below c as F has at most c classes),
    and neither cut fires on it: both cuts (a neighbor holds the color; a
    tip reaches k neighbor colors) only grow down a branch, and F has
    neither. So that branch reaches a leaf; None means none exists.

    The pick pops a heap of keys (-sat, -deg, v), sat the count of
    neighbor colors, instead of scanning every vertex. An entry is live
    if its vertex is uncolored and its sat current; stale ones are
    skipped. Every uncolored vertex but the one being tried has a live
    entry, pushed when its sat changes while uncolored or when it fails
    every color. So the first live entry popped holds the least current
    key, and as keys end in v, that is the vertex the max rule picks.
    Past 4n + 64 entries the heap is rebuilt from the uncolored vertices.
    """
    n = g.n
    adj = g.adj
    colors = [-1] * n
    seen = [0] * n  # bitmask of colors on each vertex's neighbors
    watchers: list[list[int]] = [[] for _ in range(n)]  # tips seeing v
    if k:
        for i, t in enumerate(tips):
            for v in bits(adj[t]):
                watchers[v].append(i)
    tip_seen = [0] * len(tips)
    # An explicit trail, not recursion, so depth is not capped by Python's
    # recursion limit. One frame per colored vertex: (v, its color, used
    # before it, the neighbors and tips that gained the color).
    trail: list[tuple] = []
    deg = [row.bit_count() for row in adj]

    def key(u):
        return -seen[u].bit_count(), -deg[u], u

    heap = [key(u) for u in range(n)]
    heapify(heap)
    v, start, used = -1, 0, 0
    while len(trail) < n:
        if v < 0:
            if len(heap) > 4 * n + 64:
                heap = [key(u) for u in range(n) if colors[u] < 0]
                heapify(heap)
            sat, _, v = heappop(heap)
            while colors[v] >= 0 or -sat != seen[v].bit_count():
                sat, _, v = heappop(heap)
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
                if colors[u] < 0:
                    heappush(heap, key(u))
            for i in gain:
                tip_seen[i] |= bit
            trail.append((v, col, used, touched, gain))
            used = max(used, col + 1)
            v = -1
            break
        else:
            if not trail:
                return None
            heappush(heap, key(v))
            v, col, used, touched, gain = trail.pop()
            bit = 1 << col
            colors[v] = -1
            for u in touched:
                seen[u] ^= bit
                if colors[u] < 0:
                    heappush(heap, key(u))
            for i in gain:
                tip_seen[i] ^= bit
            start = col + 1
    return colors


def _lower(g: Graph, greedy: int) -> int:
    """A lower bound on chi: the greedy clique size, raised to 3 when
    greedy DSATUR (`bounds_only`) uses greedy > 2 colors, which it does
    exactly when g is not bipartite (Brelaz, CACM 1979). If g is, only
    vertices with a colored neighbor have sat >= 1, so the max-sat pick
    finishes each component before the next, and every pick but a
    component's first has a colored neighbor. By induction the first's
    side holds color 0 and the other side 1: each pick sees only the
    other side's color and takes its lowest free one.
    """
    c = len(_greedy_clique(g))
    return 3 if c < 3 and greedy > 2 else c


def chromatic_number(g: Graph, cap: int = CHROMA_CAP) -> ChromaticCertificate:
    """Exact chi with a witness coloring: the first c from `bounds_only`'s
    lower bound up that admits a proper c-coloring. That coloring uses
    exactly c colors, since c-1 failed or is below the bound."""
    if g.n > cap:
        raise CapError(f"exact solver capped at {cap} vertices, got {g.n}")
    c = bounds_only(g)[0]
    while (colors := _search(g, c)) is None:
        c += 1
    return ChromaticCertificate(c, Coloring(colors), "exhaustive-search")


def bounds_only(g: Graph) -> tuple[int, int]:
    """Cheap (lower, upper) chromatic bounds for any size of graph.

    The upper bound is greedy DSATUR, run as `_search` with c = n: fewer
    than n vertices are colored before each pick, so `used < c`, and
    the color `used` is free (neighbors only hold colors below it). A
    free color always exists and no tip cut applies, so the first
    descent never backtracks and gives each vertex its lowest free
    color. The lower bound is `_lower` of it. Both bound chi, so
    lower <= upper.
    """
    upper = max(_search(g, g.n), default=-1) + 1
    return _lower(g, upper), upper


def find_non_rainbow_coloring(gf: Graft, k: int, c: int,
                              cap: int = RAINBOW_CAP):
    """A proper coloring with at most c colors where every tip's
    neighborhood shows at most k-1 colors, or None if all proper
    c-colorings make some tip rainbow.

    None with c = k forces chi >= k+1: a tip over k neighbor colors
    plus its own distinct color needs k+1 colors.
    """
    g = gf.graph
    if k < 1:
        raise InvalidArgumentError("k must be positive")
    if c < 1:
        raise InvalidArgumentError("c must be positive")
    if g.n > cap:
        raise CapError(f"rainbow search capped at {cap} vertices, got {g.n}")
    got = _search(g, c, sorted(gf.tips), k)
    return None if got is None else Coloring(got)
