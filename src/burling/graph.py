"""Immutable simple-graph and graft value types, and the base of every
value type in the package.

Vertices are dense ids 0..n-1. Adjacency is stored as one int bitmask per
vertex, which keeps the set algebra the detectors lean on (intersection,
difference, popcount) cheap even at a few hundred vertices.

Every value type (graphs, grafts, witnesses, op records, traces, the
clean report and its verdicts, colorings, fuzz sequences) is a
`_Record`: a class that names its fields in ``__slots__`` and sets each
once in its ``__init__``. A class whose constructor runs a check or a
conversion writes its own; for the rest the base compiles the plain
one, a parameter per field in slot order with defaults from the class
keywords (``class R(_Record, x=())``), once per class at import. The
base compares and hashes by the field tuple, read by one
``operator.attrgetter`` per class; prints ``Name(field=value, ...)``;
raises AttributeError on assigning or deleting an attribute; and
pickles and copies through the constructor. Nothing beyond
``operator`` is loaded for it: ``dataclasses``, and the ``inspect``
module it loads, took about a third of a fresh ``import burling``
(README "Start-up").
"""

from __future__ import annotations

from operator import attrgetter

from .bits import bits, mask_of
from .errors import InvalidArgumentError, InvalidVertexError

__all__ = ["Graph", "Graft"]

# Annotations are never evaluated (see the __future__ import), so
# Iterable and Sequence name their protocols without importing typing.

_set = object.__setattr__


class _Record:
    """Immutable value base; see the module docstring."""

    __slots__ = ()

    def __init_subclass__(cls, **defaults):
        fields = cls.__slots__
        cls._key = attrgetter(*fields)
        for name in defaults.keys() - set(fields):
            raise TypeError(f"{cls.__qualname__} has no field {name!r}")
        if "__init__" in cls.__dict__:
            return
        # the plain constructor, compiled once per class: it costs the
        # same per call as one written out by hand
        params = ", ".join(f"{f}=_d[{f!r}]" if f in defaults else f
                           for f in fields)
        body = "".join(f"\n _set(self, {f!r}, {f})" for f in fields)
        ns = {"_set": _set, "_d": defaults, "__name__": cls.__module__}
        exec(f"def __init__(self, {params}):{body}", ns)
        cls.__init__ = ns["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, f) for f in self.__slots__)


class Graph(_Record):
    """An immutable simple undirected graph.

    Construct via :meth:`from_edges` or :meth:`from_adj`; both validate
    symmetry and the absence of self-loops once, after which the value is
    shared freely (all operations are pure); it compares by (n, adj).
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: Sequence[int]):
        if n < 0:
            raise InvalidArgumentError("vertex count must be non-negative")
        if len(adj) != n:
            raise InvalidArgumentError("adjacency must have one row per vertex")
        full = (1 << n) - 1
        for v, row in enumerate(adj):
            if row >> v & 1:
                raise InvalidArgumentError(f"self-loop at vertex {v}")
            if row & ~full:
                raise InvalidVertexError(f"row {v} references vertices >= {n}")
        for v, row in enumerate(adj):
            for w in bits(row):
                if not adj[w] >> v & 1:
                    raise InvalidArgumentError(f"asymmetric adjacency at {v},{w}")
        _set(self, "n", n)
        _set(self, "adj", tuple(adj))

    # Internal fast path for rows already known to be symmetric and loop-free.
    # Rows are stored as a tuple whatever sequence comes in, so equality and
    # hashing never depend on how the graph was built.
    @classmethod
    def _raw(cls, n: int, adj: Sequence[int]) -> "Graph":
        g = object.__new__(cls)
        _set(g, "n", n)
        _set(g, "adj", tuple(adj))
        return g

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """The graph on vertices 0..n-1 with the given edges. A negative
        n, an endpoint out of range or a self-loop raises, as the
        constructor does; the rows it builds are symmetric and loop-free
        by construction, so they are not checked again."""
        if n < 0:
            raise InvalidArgumentError("vertex count must be non-negative")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidVertexError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise InvalidArgumentError(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls._raw(n, rows)

    @classmethod
    def from_adj(cls, adj: Sequence[int]) -> "Graph":
        return cls(len(adj), adj)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"

    # -- queries ---------------------------------------------------------

    def check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise InvalidVertexError(f"vertex {v} out of range for n={self.n}")

    def vertex_mask(self, vertices: Iterable[int]) -> int:
        """The mask of ``vertices``, each range-checked before its shift;
        check_vertex runs only to raise on a vertex out of range."""
        n = self.n
        m = 0
        for v in vertices:
            if not 0 <= v < n:
                self.check_vertex(v)
            m |= 1 << v
        return m

    def has_edge(self, u: int, v: int) -> bool:
        self.check_vertex(u)
        self.check_vertex(v)
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        self.check_vertex(v)
        return self.adj[v].bit_count()

    def neighborhood(self, v: int) -> frozenset[int]:
        """The open neighborhood N(v) as a set of vertex ids."""
        self.check_vertex(v)
        return frozenset(bits(self.adj[v]))

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, lexicographically sorted;
        row u shifted past u holds just the neighbours above u."""
        out = []
        for u, row in enumerate(self.adj):
            out += [(u, u + 1 + d) for d in bits(row >> u + 1)]
        return out

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def is_stable_set(self, vertices: Iterable[int]) -> bool:
        """True iff no edge has both endpoints in ``vertices``."""
        vs = list(vertices)
        m = self.vertex_mask(vs)
        return not any(self.adj[v] & m for v in vs)

    def is_induced_path(self, seq: Sequence[int]) -> bool:
        """True iff ``seq`` orders an induced path: consecutive vertices
        adjacent, all other pairs non-adjacent. Distinct vertices required.
        """
        if len(set(seq)) != len(seq):
            raise InvalidArgumentError("repeated vertex in path sequence")
        for v in seq:
            self.check_vertex(v)
        for i, v in enumerate(seq):
            for j in range(i + 1, len(seq)):
                adjacent = bool(self.adj[v] >> seq[j] & 1)
                if adjacent != (j == i + 1):
                    return False
        return True

    # -- induced subgraph algebra -----------------------------------------

    def induced_subgraph(self, vertices: Iterable[int]) -> tuple["Graph", dict[int, int]]:
        """The subgraph induced on ``vertices`` plus the order-preserving
        relabel map old-id -> new-id (0..|vertices|-1).
        """
        m = self.vertex_mask(vertices)
        kept = bits(m)
        relabel = {v: i for i, v in enumerate(kept)}
        rows = []
        for v in kept:
            row = 0
            inter = self.adj[v] & m
            for w in bits(inter):
                row |= 1 << relabel[w]
            rows.append(row)
        return Graph._raw(len(kept), rows), relabel

    def delete_vertices(self, vertices: Iterable[int]) -> tuple["Graph", dict[int, int]]:
        """The graph with ``vertices`` removed, plus the relabel map for the
        survivors. Equals ``induced_subgraph`` on the complement.
        """
        m = self.vertex_mask(vertices)
        keep = ~m & ((1 << self.n) - 1)
        return self.induced_subgraph(bits(keep))


class Graft(_Record):
    """A graph with a distinguished vertex subset (its tips)."""

    __slots__ = ("graph", "tips")

    def __init__(self, graph: Graph, tips: frozenset[int] = frozenset()):
        tips = frozenset(tips)
        if tips:
            graph.check_vertex(min(tips))
            graph.check_vertex(max(tips))
        _set(self, "graph", graph)
        _set(self, "tips", tips)

    @property
    def tip_mask(self) -> int:
        return mask_of(self.tips)

    @property
    def n(self) -> int:
        return self.graph.n

    def __repr__(self) -> str:
        return f"Graft(n={self.graph.n}, m={self.graph.edge_count()}, tips={len(self.tips)})"
