"""Exact chromatic number with certificates, greedy bounds, and the
rainbow-tip search that powers the chromatic lower bound.

One backtracking search, `_search`, answers both exact questions: is
there a proper c-coloring (the chromatic number counts c up from
`_lower`, the lower bound `bounds_only` reports too), and is there one
that keeps every tip's neighborhood under k colors (the rainbow bound).
With c = n its first descent is greedy DSATUR, the cheap upper bound
for graphs too big to search.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bits import bits
from .graph import Graph, Graft
from .errors import CapError, InvalidArgumentError

__all__ = [
    "Coloring", "ChromaticCertificate", "is_proper",
    "chromatic_number", "bounds_only", "find_non_rainbow_coloring",
    "CHROMA_CAP", "RAINBOW_CAP",
]

CHROMA_CAP = 64
RAINBOW_CAP = 21


@dataclass(frozen=True)
class Coloring:
    """A vertex coloring using color ids 0..count-1, every class used."""

    colors: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "colors", tuple(self.colors))
        used = set(self.colors)
        if used and used != set(range(len(used))):
            raise InvalidArgumentError(
                "colors must be exactly 0..count-1 with no empty class")

    @property
    def count(self) -> int:
        return max(self.colors) + 1 if self.colors else 0


@dataclass(frozen=True)
class ChromaticCertificate:
    chi: int
    witness: Coloring
    lower_bound_proof: str


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


def _is_bipartite(g: Graph) -> bool:
    side = [-1] * g.n
    for s in range(g.n):
        if side[s] >= 0:
            continue
        side[s] = 0
        queue = [s]
        while queue:
            v = queue.pop()
            for u in bits(g.adj[v]):
                if side[u] < 0:
                    side[u] = side[v] ^ 1
                    queue.append(u)
                elif side[u] == side[v]:
                    return False
    return True


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


def _lower(g: Graph) -> int:
    """A lower bound on chi: the greedy clique size, raised to 3 when g
    is not bipartite (an odd cycle needs three colors)."""
    c = len(_greedy_clique(g))
    return 3 if c < 3 and not _is_bipartite(g) else c


def chromatic_number(g: Graph, cap: int = CHROMA_CAP) -> ChromaticCertificate:
    """Exact chi with a witness coloring: the first c from `_lower` up
    that admits a proper c-coloring. That coloring uses exactly c
    colors, since c-1 failed or is below the bound."""
    if g.n > cap:
        raise CapError(f"exact solver capped at {cap} vertices, got {g.n}")
    c = _lower(g)
    while (colors := _search(g, c)) is None:
        c += 1
    return ChromaticCertificate(c, Coloring(colors), "exhaustive-search")


def bounds_only(g: Graph) -> tuple[int, int]:
    """Cheap (lower, upper) chromatic bounds for any size of graph.

    The lower bound is `_lower`. The upper bound is greedy DSATUR, run
    as `_search` with c = n: fewer than n vertices are colored before
    each pick, so `used < c`, and the color `used` is free (neighbors
    only hold colors below it). A free color always exists and no tip
    cut applies, so the first descent never backtracks and gives each
    vertex its lowest free color. Both bound chi, so lower <= upper.
    """
    return _lower(g), max(_search(g, g.n), default=-1) + 1


def find_non_rainbow_coloring(gf: Graft, k: int, c: int,
                              cap: int = RAINBOW_CAP):
    """A proper coloring with at most c colors where every tip's
    neighborhood shows at most k-1 colors, or None if all proper
    c-colorings make some tip rainbow.

    None with c = k forces chi >= k+1: a tip over k neighbor colors
    plus its own distinct color needs k+1 colors.
    """
    g = gf.graph
    if g.n > cap:
        raise CapError(f"rainbow search capped at {cap} vertices, got {g.n}")
    if k < 1:
        raise InvalidArgumentError("k must be positive")
    if c < 1:
        raise InvalidArgumentError("c must be positive")
    got = _search(g, c, sorted(gf.tips), k)
    return None if got is None else Coloring(got)
