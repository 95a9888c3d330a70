"""The three graft operations: pendent, clone, join.

Each is an in-place step on a row list `adj` and a tip set `tips`. It
runs all of its checks before its first write and returns an OpRecord
naming the vertices it created (for join, also the identification map).
`pendent`, `clone` and `join` copy their input once, step the copy and
freeze it once. Preconditions are hard errors; they are exactly the
hypotheses under which the operations preserve cleanness. An op
descriptor is ("pendent", t), ("clone", t) or ("join", xs, name), and
`apply_op` is the one dispatcher that turns a descriptor into a step.
"""

from __future__ import annotations

from .bits import bits
from .graph import Graph, Graft, _Record
from .errors import (
    TipViolationError, ArityError, HomogeneityError, InvalidArgumentError,
    InvalidVertexError,
)

__all__ = ["OpRecord", "pendent", "clone", "join", "apply_op"]


class OpRecord(_Record, identified=None, target=None, x=()):
    """Audit record of one operation.

    created: ids (in the output graph) of vertices the op introduced.
    identified: join only, maps each tip of the side graft (its id in
    that graft) to the host vertex it was glued onto.
    target / x: the op's own arguments, kept so a trace can be replayed.
    """

    __slots__ = ("op", "created", "identified", "target", "x")


def _thaw(g: Graft) -> tuple[list[int], set[int]]:
    return list(g.graph.adj), set(g.tips)


def _freeze(adj: list[int], tips: set[int]) -> Graft:
    return Graft(Graph._raw(len(adj), adj), frozenset(tips))


def _check_tip(adj: list[int], tips: set[int], t: int) -> None:
    # range first: on a list, adj[-1] would quietly read the last row
    if not 0 <= t < len(adj):
        raise InvalidVertexError(f"vertex {t} out of range for n={len(adj)}")
    if t not in tips:
        raise TipViolationError(f"vertex {t} is not a tip")


def _add_tip(adj: list[int], tips: set[int], t: int, op: str) -> OpRecord:
    """The step pendent and clone share: check tip t, append vertex n
    with neighbour mask {t} (pendent) or N(t) (clone), and set bit n in
    the rows of that mask only. n is a new tip; a pendant replaces t."""
    _check_tip(adj, tips, t)
    n = len(adj)
    nb = 1 << t if op == "pendent" else adj[t]
    if op == "pendent":
        tips.remove(t)
    adj.append(nb)
    for u in bits(nb):
        adj[u] |= 1 << n
    tips.add(n)
    return OpRecord(op, (n,), target=t)


def _join(adj: list[int], tips: set[int], x, g2: Graft) -> OpRecord:
    xs = sorted(x)
    if len(set(xs)) != len(xs):
        raise InvalidArgumentError("repeated vertex in x")
    for v in xs:
        _check_tip(adj, tips, v)
    if len(xs) != len(g2.tips):
        raise ArityError(
            f"|x| = {len(xs)} but the side graft has {len(g2.tips)} tips")
    for v in xs[1:]:
        if adj[v] != adj[xs[0]]:
            raise HomogeneityError(
                f"vertices {xs[0]} and {v} have different neighborhoods")
    identified = dict(zip(sorted(g2.tips), xs))
    created = tuple(range(len(adj), len(adj) + g2.n - len(xs)))
    fresh = iter(created)
    relabel = [identified[v] if v in identified else next(fresh)
               for v in range(g2.n)]
    adj += [0] * len(created)
    for u, v in g2.graph.edges():
        iu, iv = relabel[u], relabel[v]
        adj[iu] |= 1 << iv
        adj[iv] |= 1 << iu
    return OpRecord("join", created, identified=identified, x=tuple(xs))


def apply_op(adj: list[int], tips: set[int], op: tuple, sides=None) -> OpRecord:
    """Step adj and tips in place by one descriptor; joins name a side."""
    if op[0] in ("pendent", "clone"):
        return _add_tip(adj, tips, op[1], op[0])
    if op[0] == "join":
        if sides is None or op[2] not in sides:
            raise InvalidArgumentError(f"join names unknown side graft {op[2]!r}")
        return _join(adj, tips, op[1], sides[op[2]])
    raise InvalidArgumentError(f"unknown op {op[0]!r}")


def _stepped(g: Graft, step, *args) -> tuple[Graft, OpRecord]:
    adj, tips = _thaw(g)
    rec = step(adj, tips, *args)
    return _freeze(adj, tips), rec


def pendent(g: Graft, t: int) -> tuple[Graft, OpRecord]:
    """Attach a new leaf to tip t; the leaf replaces t as a tip."""
    return _stepped(g, _add_tip, t, "pendent")


def clone(g: Graft, t: int) -> tuple[Graft, OpRecord]:
    """Add a new tip with the same neighborhood as tip t."""
    return _stepped(g, _add_tip, t, "clone")


def join(g1: Graft, x, g2: Graft) -> tuple[Graft, OpRecord]:
    """Glue g2 onto g1 by identifying g2's tips with the vertices of x.

    x must list distinct tips of g1 that all share one neighborhood, with
    |x| = |tips(g2)|. Host vertices keep their ids; non-tip vertices of
    g2 get fresh ids in increasing original order. Sorted tips of g2 go
    onto sorted x; any injective pairing gives an isomorphic result.
    """
    return _stepped(g1, _join, x, g2)
