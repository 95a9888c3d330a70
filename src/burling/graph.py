"""Immutable simple-graph and graft value types.

Vertices are dense ids 0..n-1. Adjacency is stored as one int bitmask per
vertex, which keeps the set algebra the detectors lean on (intersection,
difference, popcount) cheap even at a few hundred vertices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .bits import bits, mask_of
from .errors import InvalidArgumentError, InvalidVertexError

__all__ = ["Graph", "Graft"]


@dataclass(frozen=True, slots=True)
class Graph:
    """An immutable simple undirected graph.

    Construct via :meth:`from_edges` or :meth:`from_adj`; both validate
    symmetry and the absence of self-loops once, after which the value is
    shared freely (all operations are pure); it compares by (n, adj).
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        n, adj = self.n, self.adj
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
        object.__setattr__(self, "adj", tuple(adj))

    # Internal fast path for rows already known to be symmetric and loop-free.
    # Rows are stored as a tuple whatever sequence comes in, so equality and
    # hashing never depend on how the graph was built.
    @classmethod
    def _raw(cls, n: int, adj: Sequence[int]) -> "Graph":
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", tuple(adj))
        return g

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
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
        m = 0
        for v in vertices:
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
        """All edges as (u, v) pairs with u < v, lexicographically sorted."""
        out = []
        for u in range(self.n):
            upper = self.adj[u] >> (u + 1) << (u + 1)
            for v in bits(upper):
                out.append((u, v))
        return out

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def is_stable_set(self, vertices: Iterable[int]) -> bool:
        """True iff no edge has both endpoints in ``vertices``."""
        m = self.vertex_mask(vertices)
        for v in bits(m):
            if self.adj[v] & m:
                return False
        return True

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
        kept = list(bits(m))
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


@dataclass(frozen=True)
class Graft:
    """A graph with a distinguished vertex subset (its tips)."""

    graph: Graph
    tips: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        tips = frozenset(self.tips)
        object.__setattr__(self, "tips", tips)
        for t in tips:
            self.graph.check_vertex(t)

    @property
    def tip_mask(self) -> int:
        return mask_of(self.tips)

    @property
    def n(self) -> int:
        return self.graph.n

    def __repr__(self) -> str:
        return f"Graft(n={self.graph.n}, m={self.graph.edge_count()}, tips={len(self.tips)})"
