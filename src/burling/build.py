"""The two level-by-level constructions and their equivalence.

One construction iterates a successor procedure on graph/stable-set
pairs; the other grows grafts by clone/pendent/join rounds. Adding one
tip per stable set to the k-th pair graph gives a graft isomorphic to
the k-th built graft, and check_equivalence exhibits the bijection.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, Graft
from .ops import OpRecord, apply_op, clone, join, pendent
from .iso import graft_isomorphic
from .errors import CapError, InvalidArgumentError

__all__ = [
    "StablePair", "LevelTrace", "ConstructionTrace",
    "next_pair", "burling_pair", "graft_from_pair",
    "build_graft", "replay_trace", "check_equivalence",
    "PAIR_CAP", "GRAFT_CAP", "EQUIV_CAP",
]

PAIR_CAP = 5
GRAFT_CAP = 5
EQUIV_CAP = 3


@dataclass(frozen=True)
class StablePair:
    """A graph with an ordered list of stable sets. Stability of every
    listed set is validated on construction."""

    graph: Graph
    stables: tuple[frozenset[int], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "stables", tuple(frozenset(s) for s in self.stables))
        for i, s in enumerate(self.stables):
            if not self.graph.is_stable_set(s):
                raise InvalidArgumentError(f"stables[{i}] is not stable")


def next_pair(p: StablePair) -> StablePair:
    """One successor round on a pair.

    Output layout is deterministic: the input graph keeps ids 0..n-1,
    copy i occupies n + i*n .. n + (i+1)*n - 1, and the connector vertex
    for (stable i, stable j) sits at n*(m+1) + i*m + j. Each (i, j)
    contributes two output stables: stables[i] union the copy of
    stables[j] inside copy i, and stables[i] union the (i, j) connector.
    """
    if not p.stables:
        raise InvalidArgumentError("pair must carry at least one stable set")
    g = p.graph
    n = g.n
    m = len(p.stables)
    base_edges = g.edges()
    edges = list(base_edges)
    for i in range(m):
        off = n + i * n
        edges.extend((off + u, off + v) for u, v in base_edges)
    conn0 = n * (m + 1)
    for i in range(m):
        off = n + i * n
        for j, t_set in enumerate(p.stables):
            v_ij = conn0 + i * m + j
            edges.extend((min(off + t, v_ij), max(off + t, v_ij))
                         for t in sorted(t_set))
    out = Graph.from_edges(conn0 + m * m, edges)
    stables = []
    for i, s in enumerate(p.stables):
        off = n + i * n
        for j, t_set in enumerate(p.stables):
            stables.append(s | {off + t for t in t_set})
            stables.append(s | {conn0 + i * m + j})
    return StablePair(out, tuple(stables))


def burling_pair(k: int, cap: int = PAIR_CAP) -> StablePair:
    """The k-th pair: k-1 successor rounds from (K1, [{0}])."""
    if k < 1 or k > cap:
        raise CapError(f"k must lie in 1..{cap}, got {k}")
    p = StablePair(Graph.from_edges(1, []), (frozenset({0}),))
    for _ in range(k - 1):
        p = next_pair(p)
    return p


def graft_from_pair(p: StablePair) -> Graft:
    """Attach one new tip per stable set, adjacent to exactly that set."""
    g = p.graph
    n = g.n
    adj = list(g.adj)
    adj.extend(0 for _ in p.stables)
    for i, s in enumerate(p.stables):
        for v in s:
            adj[n + i] |= 1 << v
            adj[v] |= 1 << (n + i)
    out = Graph._raw(n + len(p.stables), adj)
    return Graft(out, frozenset(range(n, n + len(p.stables))))


@dataclass(frozen=True)
class LevelTrace:
    """Audit of one graft level: the side-template ops (clones then
    pendents on a copy of the level's input), the host clones, the joins
    in increasing tip order, and a provenance tag per output vertex.

    Tags: ("base", v) kept host vertex; ("clone-of", c) a clone, host or
    embedded template, with c the final id of its original; ("copy", u,
    w) embeds non-tip template vertex w during the join at u. Template
    tips (the original tips and the pendants) are glued onto host
    vertices, so they never appear as created vertices here.
    """

    level: int
    template_records: tuple[OpRecord, ...]
    host_records: tuple[OpRecord, ...]
    join_records: tuple[OpRecord, ...]
    provenance: tuple[tuple, ...]


@dataclass(frozen=True)
class ConstructionTrace:
    k: int
    levels: tuple[LevelTrace, ...]


def _seed_graft() -> Graft:
    return Graft(Graph.from_edges(2, [(0, 1)]), frozenset({1}))


def _level_up(gk: Graft, level: int) -> tuple[Graft, LevelTrace]:
    tips_sorted = sorted(gk.tips)
    t = len(tips_sorted)
    n = gk.n

    # Template: one copy of the input, every tip cloned, every clone
    # pendented. All joins at this level glue in the same template.
    tpl = gk
    tpl_records = []
    clone_of: dict[int, int] = {}
    for v in tips_sorted:
        tpl, rec = clone(tpl, v)
        tpl_records.append(rec)
        clone_of[rec.created[0]] = v
    for c in clone_of:
        tpl, rec = pendent(tpl, c)
        tpl_records.append(rec)

    # Host: clone each tip 2t-1 times; X_u is the tip plus its clones.
    host = gk
    host_records = []
    provenance: list[tuple] = [("base", v) for v in range(n)]
    xsets = {}
    for u in tips_sorted:
        xs = [u]
        for _ in range(2 * t - 1):
            host, rec = clone(host, u)
            host_records.append(rec)
            xs.append(rec.created[0])
            provenance.append(("clone-of", u))
        xsets[u] = xs

    join_records = []
    for u in tips_sorted:
        host, rec = join(host, xsets[u], tpl)
        join_records.append(rec)
        for w in range(tpl.n):
            if w in rec.identified:
                continue
            if w in clone_of:
                # pendants are tips and were skipped above; the original
                # of a template clone is a tip, glued onto a host vertex
                provenance.append(("clone-of", rec.identified[clone_of[w]]))
            else:
                provenance.append(("copy", u, w))

    trace = LevelTrace(level, tuple(tpl_records), tuple(host_records),
                       tuple(join_records), tuple(provenance))
    return host, trace


def build_graft(k: int, cap: int = GRAFT_CAP) -> tuple[Graft, ConstructionTrace]:
    """The k-th graft, grown level by level through the three operations."""
    if k < 1 or k > cap:
        raise CapError(f"k must lie in 1..{cap}, got {k}")
    gf = _seed_graft()
    levels = []
    for level in range(1, k):
        gf, trace = _level_up(gf, level)
        levels.append(trace)
    return gf, ConstructionTrace(k, tuple(levels))


def replay_trace(trace: ConstructionTrace) -> Graft:
    """Re-execute the recorded operations; must rebuild bit-exactly."""
    gf = _seed_graft()
    for lv in trace.levels:
        tpl = gf
        for rec in lv.template_records:
            tpl, _ = apply_op(tpl, (rec.op, rec.target))
        host = gf
        for rec in lv.host_records:
            host, _ = apply_op(host, (rec.op, rec.target))
        for rec in lv.join_records:
            host, _ = join(host, rec.x, tpl, pairing=rec.identified)
        gf = host
    return gf


def check_equivalence(k: int, cap: int = EQUIV_CAP):
    """Bijection between the pair-derived graft and the built graft at
    level k, or None if the two builders disagree (a bug, not an input
    condition)."""
    if k < 1 or k > cap:
        raise CapError(f"k must lie in 1..{cap}, got {k}")
    a = graft_from_pair(burling_pair(k, cap=max(PAIR_CAP, cap)))
    b, _ = build_graft(k, cap=max(GRAFT_CAP, cap))
    return graft_isomorphic(a, b)
