"""Brute-force subset-enumeration oracle for cross-validating detectors.

Every vertex subset of the host, in increasing mask order, is tested
against the pattern definitions directly (degree profiles and walks),
with no code shared with the fast detectors. Capped at 12 vertices.

Every pattern is made of induced cycles and paths: a hole is a cycle, a
wheel a cycle plus a hub, a theta three paths between two branch
vertices, and a fan or a mountable path a path. One walker, `_walk`,
recognizes them all. From its start it steps to the one neighbour in
the subset it has not visited, and it gives up at a vertex with two.
Walking v1, ..., vm, an edge vi vj with j > i + 1 would have left vi
with two unvisited neighbours, v(i+1) and vj, so the walked vertices
induce the path v1 ... vm plus at most the edges at v1 when its first
step was given. A walk that covers the subset from a vertex of degree 1
is thus an induced path, and a covering walk from a vertex of degree 2
towards one of its neighbours that ends beside the start is an induced
cycle. Conversely, such a walk covers every induced path from an end
and every induced cycle, as each step has one choice.

Each subset is routed by its excess x = e - size, where e is its induced
edge count and size its vertex count, to the recognizers of the patterns
with that excess:

- x = -1: mountable path, as an induced path is a tree; only a subset
  with at least 3 tips can be one.
- x = 0: triangle at size 3, else hole, as a cycle has one edge per
  vertex.
- x = 1: theta, whose two branch vertices have degree 3 and the rest
  degree 2, so the degrees sum to 2 * size + 2.
- wheel: a hub with d neighbours on a rim of size - 1 vertices, which
  is a cycle with size - 1 edges, so d = x + 1 >= k, and x >= 2.
- fan: a pivot with d neighbours on a path of size - 1 vertices and
  size - 2 edges, so d = x + 2 >= k, and x >= 1. A guarded fan is the
  same with d = x + 2 >= 3, and its path's two ends are tips, so only a
  subset with at least 2 tips can be one.

A wheel, fan or guarded fan is tried only if some vertex has degree
exactly d in the subset. Every pattern is connected, so x >= -1, and a
wheel whose hub sees the whole rim has the most edges, x = size - 2. A
subset outside that range reaches no recognizer. The edge counts come
from one table, filled one popcount per subset, and a subset's vertices
and degrees are read only once it is routed to a recognizer of a kind
not yet found. The lower bound rests on k >= 3, which the oracle
enforces: with k = 0 a pivot beside a path would make a fan with
x = -2.

Each route is a necessary condition, so a subset it skips holds none of
its patterns, and the recognizers still pick the hub or pivot
themselves: the first witness of each kind is the one an unscreened scan
returns. So a weaker routing returns the same witnesses and only costs
time. On the benchmark's 2,000 small certify graphs (seed 1), the
routing sends 31,919 subsets to a recognizer, against 91,182 for a
screen by edge count and degree alone, without the tip counts.
"""

from __future__ import annotations

from .bits import bits
from .graph import Graph
from .witness import Witness
from .errors import CapError, InvalidArgumentError

__all__ = ["ORACLE_MAX", "oracle_contains", "oracle_scan"]

ORACLE_MAX = 12

_TIP_KINDS = ("guarded-fan", "mountable-path")
_KINDS = ("triangle", "hole", "wheel", "theta", "fan") + _TIP_KINDS


def _walk(adj, mask, start, first=None):
    """Vertices of the walk through mask from start, or None.

    The walk steps to first, or else to start's one neighbour in mask,
    and then always to the one neighbour in mask it has not visited,
    stopping at a vertex with none. It returns None as soon as a vertex
    has two unvisited neighbours: a chord or a branch. So, walking
    v1, ..., vm, an edge vi vj with j > i + 1 can only leave v1, and only
    when first is given, since at vi both v(i+1) and vj were unvisited.
    The caller checks that the walk covered its mask.
    """
    order = [start]
    seen = 1 << start
    step = adj[start] & mask if first is None else 1 << first
    while step:
        if step & (step - 1):
            return None
        cur = step.bit_length() - 1
        order.append(cur)
        seen |= step
        step = adj[cur] & mask & ~seen
    return order


def _cycle_order(adj, mask):
    """Vertices of an induced-cycle mask in canonical cyclic order, or
    None.

    The walk starts at the least vertex, which must have degree 2, and
    steps first to its lesser neighbour. A walk that covers the mask and
    ends beside the start is the cycle: the start's only edge past its
    first step is to the end, and no other chord survives the walk.
    """
    start = (mask & -mask).bit_length() - 1
    nb = adj[start] & mask
    if nb.bit_count() != 2:
        return None
    order = _walk(adj, mask, start, (nb & -nb).bit_length() - 1)
    if (order is None or len(order) != mask.bit_count()
            or not adj[order[-1]] >> start & 1):
        return None
    return tuple(order)


def _path_order(adj, mask):
    """Vertices of an induced-path mask in path order, or None.

    The walk starts at the least vertex of degree 1, so the start has
    no chord either, and a walk that covers the mask is the path.
    """
    for v in bits(mask):
        if (adj[v] & mask).bit_count() == 1:
            order = _walk(adj, mask, v)
            if order is None or len(order) != mask.bit_count():
                return None
            return tuple(order)
    return None


def _theta_parts(adj, mask, vs, degs):
    """Branch vertices plus the three path sequences, or None.

    The branch vertices a < b are the two of degree 3, every other
    vertex has degree 2, and a and b are not adjacent. Each of a's three
    neighbours starts a walk through the mask without a and b, which
    must end beside b. A walk that reaches another of a's neighbours
    stops there, as that vertex's two edges go to a and back, so it does
    not end beside b: the three walks that pass are disjoint, and they
    cover the mask exactly when their lengths sum to its size. The paths
    are ordered by their least interior vertex.
    """
    branch = [v for v, d in zip(vs, degs) if d == 3]
    if len(branch) != 2 or any(d not in (2, 3) for d in degs):
        return None
    a, b = branch
    if adj[a] >> b & 1:
        return None
    inner = mask & ~(1 << a) & ~(1 << b)
    paths = []
    for u in bits(adj[a] & inner):
        seq = _walk(adj, inner, u)
        if seq is None or not adj[seq[-1]] >> b & 1:
            return None
        paths.append((a, *seq, b))
    if sum(len(p) - 2 for p in paths) != inner.bit_count():
        return None
    return a, b, tuple(sorted(paths, key=lambda p: min(p[1:-1])))


def _find_in_mask(adj, mask, vs, degs, kind, k, tip_mask):
    """Check one subset against one pattern; return a Witness or None."""
    size = len(vs)
    if kind in ("triangle", "hole"):
        # a triangle's cyclic order is its sorted vertices
        if (size == 3) != (kind == "triangle"):
            return None
        order = _cycle_order(adj, mask)
        return None if order is None else Witness(kind, order)
    if kind in ("wheel", "fan", "guarded-fan"):
        need = 3 if kind == "guarded-fan" else k
        for v, d in zip(vs, degs):
            if d < need:
                continue
            rest = mask & ~(1 << v)
            if kind == "wheel":
                # a rim of 3 would make a K4
                order = _cycle_order(adj, rest) if size >= 5 else None
            else:
                order = _path_order(adj, rest)
            if order is None or kind == "guarded-fan" and not (
                    tip_mask >> order[0] & 1 and tip_mask >> order[-1] & 1):
                continue
            hit = tuple(u for u in order if adj[v] >> u & 1)
            return Witness(kind, order, center=v, k=len(hit), hits=hit)
        return None
    if kind == "theta":
        parts = _theta_parts(adj, mask, vs, degs)
        if parts is None:
            return None
        a, b, paths = parts
        return Witness("theta", (a, b), paths=paths)
    if kind == "mountable-path":
        if (mask & tip_mask).bit_count() < 3:
            return None
        order = _path_order(adj, mask)
        if order is None:
            return None
        hit = tuple(u for u in order if tip_mask >> u & 1)
        return Witness("mountable-path", order, hits=hit)
    raise InvalidArgumentError(f"unknown oracle pattern {kind!r}")


def _hub_routes(n: int, k: int, tips: bool) -> list[tuple]:
    """routes[x]: the (kind, d) pairs a subset of excess x >= 1 can hold,
    d being the degree its hub or pivot must have in the subset; a
    guarded fan only when the subset holds two tips (see the module
    docstring)."""
    routes: list[tuple] = [()]
    for x in range(1, n):
        route = [("theta", 0)] if x == 1 else []
        if x + 1 >= k:
            route.append(("wheel", x + 1))
        if x + 2 >= k:
            route.append(("fan", x + 2))
        if tips:
            route.append(("guarded-fan", x + 2))
        routes.append(tuple(route))
    return routes


def _first_witnesses(g: Graph, tips, kinds, k: int) -> dict:
    """One pass over all subsets in mask order: {kind: first witness or
    None} for each kind in kinds, stopping once every kind is found."""
    if k < 3:
        raise InvalidArgumentError("wheels and fans need k >= 3")
    if g.n > ORACLE_MAX:
        raise CapError(
            f"oracle is capped at {ORACLE_MAX} vertices, got {g.n}")
    tip_mask = 0
    if tips is not None:
        for t in tips:
            g.check_vertex(t)
            tip_mask |= 1 << t
    found = dict.fromkeys(kinds)
    pending = set(kinds)
    adj = g.adj
    # edges[mask] is the induced edge count; each mask below 1 << v
    # gains v as its highest vertex
    edges = [0]
    for v in range(g.n):
        row = adj[v]
        edges += [e + (row & m).bit_count() for m, e in enumerate(edges)]
    routes = (_hub_routes(g.n, k, False), _hub_routes(g.n, k, True))
    for mask, e in enumerate(edges):
        size = mask.bit_count()
        x = e - size
        if size < 3 or not -1 <= x <= size - 2:
            continue
        if x == -1:
            if (mask & tip_mask).bit_count() < 3:
                continue
            route = (("mountable-path", 0),)
        elif x == 0:
            route = (("triangle" if size == 3 else "hole", 0),)
        else:
            route = routes[(mask & tip_mask).bit_count() >= 2][x]
        todo = [(kd, d) for kd, d in route if kd in pending]
        if not todo:
            continue
        vs = bits(mask)
        degs = [(adj[v] & mask).bit_count() for v in vs]
        for kd, d in todo:
            if d and d not in degs:
                continue
            w = _find_in_mask(adj, mask, vs, degs, kd, k, tip_mask)
            if w is not None:
                found[kd] = w
                pending.discard(kd)
        if not pending:
            break
    return found


def oracle_contains(g: Graph, tips, kind: str, k: int = 3):
    """First subset (in mask order) inducing the pattern, as a Witness."""
    if kind not in _KINDS:
        raise InvalidArgumentError(f"unknown oracle pattern {kind!r}")
    if kind in _TIP_KINDS and tips is None:
        raise InvalidArgumentError(f"pattern {kind!r} needs tips")
    return _first_witnesses(g, tips, (kind,), k)[kind]


def oracle_scan(g: Graph, tips=None, k: int = 3) -> dict[str, bool]:
    """One pass over all subsets answering every pattern at once.

    Returns {kind: present} for the five graph patterns, plus the two
    tip-aware ones when tips is given. Used by the bulk detector-vs-
    oracle comparison, where per-kind passes would be too slow.
    """
    kinds = _KINDS if tips is not None else tuple(
        kd for kd in _KINDS if kd not in _TIP_KINDS)
    found = _first_witnesses(g, tips, kinds, k)
    return {kd: w is not None for kd, w in found.items()}
