"""Pattern witnesses and their independent replay check.

A witness pins down one concrete occurrence of a pattern inside a host
graph: which vertices play which roles. ``validate_witness`` replays the
claim against the host from scratch, so a detector bug cannot certify
itself.
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


def _is_hole(g: Graph, cyc: tuple[int, ...]) -> bool:
    if len(cyc) < 4 or len(set(cyc)) != len(cyc):
        return False
    L = len(cyc)
    for i in range(L):
        for j in range(i + 1, L):
            adjacent = bool(g.adj[cyc[i]] >> cyc[j] & 1)
            consecutive = j == i + 1 or (i == 0 and j == L - 1)
            if adjacent != consecutive:
                return False
    return True


def _distinct(*groups) -> bool:
    seen: set[int] = set()
    for grp in groups:
        for v in grp:
            if v in seen:
                return False
            seen.add(v)
    return True


def validate_witness(g: Graph, tips: frozenset[int] | None, w: Witness) -> bool:
    """Replay ``w`` against ``g`` (and ``tips`` for tip-aware kinds).

    Returns True iff the claimed vertices induce exactly the claimed
    pattern. Raises ``InvalidVertexError`` on out-of-range vertex ids.
    """
    for v in w.support():
        g.check_vertex(v)

    if w.kind == "triangle":
        a = w.vertices
        return len(a) == 3 and len(set(a)) == 3 and all(
            g.adj[a[i]] >> a[j] & 1 for i in range(3) for j in range(i + 1, 3)
        )

    if w.kind == "hole":
        return _is_hole(g, w.vertices)

    if w.kind == "wheel":
        hub = w.center
        if hub is None or hub in w.vertices:
            return False
        if not _is_hole(g, w.vertices):
            return False
        rim_hits = tuple(v for v in w.vertices if g.adj[hub] >> v & 1)
        if set(rim_hits) != set(w.hits):
            return False
        return len(rim_hits) >= max(3, w.k)

    if w.kind == "theta":
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

    if w.kind in ("fan", "guarded-fan"):
        pivot = w.center
        path = w.vertices
        if pivot is None or pivot in path:
            return False
        if not _distinct(path) or not g.is_induced_path(path):
            return False
        actual_hits = tuple(v for v in path if g.adj[pivot] >> v & 1)
        if set(actual_hits) != set(w.hits):
            return False
        need = max(3, w.k) if w.kind == "fan" else 3
        if len(actual_hits) < need:
            return False
        if w.kind == "guarded-fan":
            if tips is None:
                return False
            return path[0] in tips and path[-1] in tips
        return True

    if w.kind == "mountable-path":
        if tips is None:
            return False
        path = w.vertices
        if not _distinct(path) or not g.is_induced_path(path):
            return False
        on_path_tips = tuple(v for v in path if v in tips)
        if set(w.hits) != set(on_path_tips):
            return False
        return len(on_path_tips) >= 3

    if w.kind == "stable-violation":
        if tips is None or len(w.vertices) != 2:
            return False
        u, v = w.vertices
        return u in tips and v in tips and bool(g.adj[u] >> v & 1)

    return False  # pragma: no cover - kinds are closed by __init__
