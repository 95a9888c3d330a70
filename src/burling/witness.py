"""Pattern witnesses and their independent replay check.

A witness pins down one concrete occurrence of a pattern inside a host
graph: which vertices play which roles. ``validate_witness`` replays the
claim against the host from scratch, so a detector bug cannot certify
itself. It shares no code with the detectors or the oracle.

Every kind but theta and stable violation is replayed by two shared
checks. The shape is an induced cycle (``_is_cycle``: a triangle of
exactly 3 vertices, a hole or a wheel's rim of at least 4) or an
induced path (``Graph.is_induced_path``: a fan's, a guarded fan's or a
mountable path's order). The hits rule reads one row, the hub's or
pivot's neighbours, or for a mountable path the tip set, as if an apex
joined to every tip were its pivot: the order's vertices in that row
must be the claimed hits, and there must be enough of them.
"""

from __future__ import annotations

from .bits import mask_of
from .graph import Graph, _Record, _set
from .errors import InvalidArgumentError

__all__ = ["Witness", "validate_witness", "WITNESS_KINDS"]

WITNESS_KINDS = (
    "triangle",
    "hole",
    "wheel",
    "theta",
    "fan",
    "guarded-fan",
    "mountable-path",
    "stable-violation",
)
_TIP_KINDS = ("guarded-fan", "mountable-path", "stable-violation")


class Witness(_Record):
    """One induced occurrence of a pattern.

    ``vertices`` carries the role-ordered support:

    - triangle: the three corners
    - hole / wheel: the rim in cyclic order
    - fan / guarded-fan / mountable-path: the path in order
    - theta: the two branch vertices (the full paths live in ``paths``)
    - stable-violation: the two adjacent tips
    ``center`` is the wheel hub or fan pivot, ``hits`` its neighbors on the
    rim/path (for mountable paths: the tips on the path), ``k`` the claimed
    attachment threshold where one applies.
    """

    __slots__ = ("kind", "vertices", "center", "k", "hits", "paths")

    def __init__(self, kind: str, vertices: tuple[int, ...],
                 center: int | None = None, k: int = 0,
                 hits: tuple[int, ...] = (),
                 paths: tuple[tuple[int, ...], ...] = ()):
        if kind not in WITNESS_KINDS:
            raise InvalidArgumentError(f"unknown witness kind {kind!r}")
        _set(self, "kind", kind)
        _set(self, "vertices", tuple(vertices))
        _set(self, "center", center)
        _set(self, "k", k)
        _set(self, "hits", tuple(hits))
        _set(self, "paths", tuple(tuple(p) for p in paths))

    def support(self) -> frozenset[int]:
        """Every vertex the witness mentions."""
        out = set(self.vertices)
        if self.center is not None:
            out.add(self.center)
        for p in self.paths:
            out.update(p)
        out.update(self.hits)
        return frozenset(out)


def _distinct(*groups) -> bool:
    seen: set[int] = set()
    for grp in groups:
        for v in grp:
            if v in seen:
                return False
            seen.add(v)
    return True


def _is_cycle(g: Graph, cyc: tuple[int, ...]) -> bool:
    """True iff the distinct vertices ``cyc`` induce a cycle in this
    cyclic order.

    The order less its last vertex and the order less its first must
    both be induced paths, and the two ends adjacent. This is exact:
    every pair of vertices on the cycle except the two ends lies on one
    of those paths, which fixes its adjacency, and the ends are the one
    pair left.
    """
    return (g.is_induced_path(cyc[:-1]) and g.is_induced_path(cyc[1:])
            and bool(g.adj[cyc[0]] >> cyc[-1] & 1))


def _is_theta(g: Graph, w: Witness) -> bool:
    if len(w.paths) != 3 or len(w.vertices) != 2:
        return False
    a, b = w.vertices
    if g.adj[a] >> b & 1:
        return False
    interiors = []
    for p in w.paths:
        if len(p) < 3 or p[0] != a or p[-1] != b:
            return False
        if not _distinct(p) or not g.is_induced_path(p):
            return False
        interiors.append(p[1:-1])
    if not _distinct(*interiors):
        return False
    for i in range(3):
        mi = mask_of(interiors[i])
        for j in range(i + 1, 3):
            if any(g.adj[v] & mi for v in interiors[j]):
                return False
    return True


def validate_witness(g: Graph, tips: frozenset[int] | None, w: Witness) -> bool:
    """Replay ``w`` against ``g`` (and ``tips`` for tip-aware kinds).

    Returns True iff the claimed vertices induce exactly the claimed
    pattern. Raises ``InvalidVertexError`` on out-of-range vertex ids.

    Every kind but theta and stable violation goes through two shared
    checks. The shape: a triangle is a cycle of exactly 3 vertices, a
    hole and a wheel's rim are cycles of at least 4 (``_is_cycle``),
    and the fans' and the mountable path's orders are induced paths.
    The hits: the row is the center's for a wheel, fan or guarded fan,
    and the center must lie off the shape; for a mountable path it is
    the tip set, as if an apex joined to every tip were its pivot. The
    order's vertices in that row must equal the claimed hits as sets,
    at least ``max(3, k)`` of them for a wheel or fan and at least 3 for
    a guarded fan or mountable path, and a guarded fan's two ends must
    be tips. A ``tips`` of None rejects every tip kind.
    """
    for v in w.support():
        g.check_vertex(v)
    kind, order = w.kind, w.vertices
    if tips is None and kind in _TIP_KINDS:
        return False
    if kind == "stable-violation":
        if len(order) != 2:
            return False
        u, v = order
        return u in tips and v in tips and bool(g.adj[u] >> v & 1)
    if kind == "theta":
        return _is_theta(g, w)
    if not _distinct(order):
        return False
    if kind in ("triangle", "hole", "wheel"):
        size_ok = len(order) == 3 if kind == "triangle" else len(order) >= 4
        if not size_ok or not _is_cycle(g, order):
            return False
        if kind != "wheel":
            return True
    elif not g.is_induced_path(order):
        return False
    if kind == "mountable-path":
        hits = {v for v in order if v in tips}
    elif w.center is None or w.center in order:
        return False
    else:
        row = g.adj[w.center]
        hits = {v for v in order if row >> v & 1}
    need = max(3, w.k) if kind in ("wheel", "fan") else 3
    if hits != set(w.hits) or len(hits) < need:
        return False
    return kind != "guarded-fan" or order[0] in tips and order[-1] in tips
