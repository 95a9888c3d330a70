"""The three graft operations: pendent, clone, join.

All three return a fresh graft plus an OpRecord naming the vertices the
operation created (and, for join, the identification map actually used).
Preconditions are hard errors; they are exactly the hypotheses under
which the operations preserve cleanness.

An op descriptor is ("pendent", t), ("clone", t) or ("join", xs, name);
`apply_op` is the one op path that turns a descriptor into a call.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, Graft
from .errors import (
    TipViolationError, ArityError, HomogeneityError, InvalidArgumentError,
)

__all__ = ["OpRecord", "pendent", "clone", "join", "apply_op"]


@dataclass(frozen=True)
class OpRecord:
    """Audit record of one operation.

    created: ids (in the output graph) of vertices the op introduced.
    identified: join only, maps each tip of the side graft (its id in
    that graft) to the host vertex it was glued onto.
    target / x: the op's own arguments, kept so a trace can be replayed.
    """

    op: str
    created: tuple[int, ...]
    identified: dict[int, int] | None = None
    target: int | None = None
    x: tuple[int, ...] = ()


def pendent(g: Graft, t: int) -> tuple[Graft, OpRecord]:
    """Attach a new leaf to tip t; the leaf replaces t as a tip."""
    g.graph.check_vertex(t)
    if t not in g.tips:
        raise TipViolationError(f"vertex {t} is not a tip")
    n = g.n
    adj = list(g.graph.adj) + [1 << t]
    adj[t] |= 1 << n
    out = Graph._raw(n + 1, adj)
    tips = (g.tips - {t}) | {n}
    return Graft(out, frozenset(tips)), OpRecord("pendent", (n,), target=t)


def clone(g: Graft, t: int) -> tuple[Graft, OpRecord]:
    """Add a new tip with the same neighborhood as tip t."""
    g.graph.check_vertex(t)
    if t not in g.tips:
        raise TipViolationError(f"vertex {t} is not a tip")
    n = g.n
    nb = g.graph.adj[t]
    adj = list(g.graph.adj) + [nb]
    for u in range(n):
        if nb >> u & 1:
            adj[u] |= 1 << n
    out = Graph._raw(n + 1, adj)
    return Graft(out, g.tips | {n}), OpRecord("clone", (n,), target=t)


def join(g1: Graft, x, g2: Graft, *,
         pairing: dict[int, int] | None = None) -> tuple[Graft, OpRecord]:
    """Glue g2 onto g1 by identifying g2's tips with the vertices of x.

    x must be a set of tips of g1 that all share one neighborhood, with
    |x| = |tips(g2)|. Host vertices keep their ids; non-tip vertices of
    g2 get fresh ids in increasing original order. The default pairing
    sends sorted tips of g2 onto sorted x; any injective pairing gives an
    isomorphic result, so tests may pass one explicitly.
    """
    xs = sorted(set(x))
    for v in xs:
        g1.graph.check_vertex(v)
        if v not in g1.tips:
            raise TipViolationError(f"vertex {v} is not a tip of the host")
    if len(xs) != len(g2.tips):
        raise ArityError(
            f"|x| = {len(xs)} but the side graft has {len(g2.tips)} tips")
    if xs:
        nb0 = g1.graph.adj[xs[0]]
        for v in xs[1:]:
            if g1.graph.adj[v] != nb0:
                raise HomogeneityError(
                    f"vertices {xs[0]} and {v} have different neighborhoods")
    if pairing is None:
        identified = dict(zip(sorted(g2.tips), xs))
    else:
        identified = dict(pairing)
        if sorted(identified) != sorted(g2.tips):
            raise InvalidArgumentError("pairing keys must be the side tips")
        if sorted(identified.values()) != xs:
            raise InvalidArgumentError("pairing values must be exactly x")

    n1 = g1.n
    relabel: dict[int, int] = {}
    fresh = n1
    for v in range(g2.n):
        if v in identified:
            relabel[v] = identified[v]
        else:
            relabel[v] = fresh
            fresh += 1
    adj = list(g1.graph.adj) + [0] * (fresh - n1)
    for u, v in g2.graph.edges():
        iu, iv = relabel[u], relabel[v]
        adj[iu] |= 1 << iv
        adj[iv] |= 1 << iu
    out = Graph._raw(fresh, adj)
    created = tuple(relabel[v] for v in range(g2.n) if v not in identified)
    rec = OpRecord("join", created, identified=identified, x=tuple(xs))
    return Graft(out, g1.tips), rec


def apply_op(gf: Graft, op: tuple, sides=None) -> tuple[Graft, OpRecord]:
    """Apply one op descriptor to gf; a join's name is looked up in sides."""
    if op[0] == "pendent":
        return pendent(gf, op[1])
    if op[0] == "clone":
        return clone(gf, op[1])
    if op[0] == "join":
        if sides is None or op[2] not in sides:
            raise InvalidArgumentError(f"join names unknown side graft {op[2]!r}")
        return join(gf, op[1], sides[op[2]])
    raise InvalidArgumentError(f"unknown op {op[0]!r}")
