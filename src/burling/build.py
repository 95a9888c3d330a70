"""The two level-by-level constructions and their equivalence.

One construction iterates a successor procedure on graph/stable-set
pairs; the other grows grafts by clone/pendent/join rounds. Adding one
tip per stable set to the k-th pair graph gives a graft isomorphic to
the k-th built graft, and check_equivalence exhibits the bijection.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, Graft
from .ops import OpRecord, apply_op, join
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


def _check_level(k: int, cap: int) -> None:
    """A level below 1 is bad input; one above cap exceeds the cap."""
    if k < 1:
        raise InvalidArgumentError(f"k must be at least 1, got {k}")
    if k > cap:
        raise CapError(f"k must lie in 1..{cap}, got {k}")


def burling_pair(k: int, cap: int = PAIR_CAP) -> StablePair:
    """The k-th pair: k-1 successor rounds from (K1, [{0}])."""
    _check_level(k, cap)
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


def _level(gk: Graft, level: int, template_ops, host_ops,
           joins) -> tuple[Graft, LevelTrace]:
    """One graft level: the template ops run on a copy of gk and the host
    ops on gk, then the template is joined onto the host at each (x,
    pairing) in turn. The trace, provenance included, is read off the
    records; the tip u of ("copy", u, w) is the least vertex of x."""
    tpl, host = gk, gk
    tpl_records, host_records, join_records = [], [], []
    for op in template_ops:
        tpl, rec = apply_op(tpl, op)
        tpl_records.append(rec)
    for op in host_ops:
        host, rec = apply_op(host, op)
        host_records.append(rec)
    clone_of = {rec.created[0]: rec.target
                for rec in tpl_records if rec.op == "clone"}
    provenance: list[tuple] = [("base", v) for v in range(gk.n)]
    provenance += [("clone-of", rec.target) for rec in host_records]
    embedded = [w for w in range(tpl.n) if w not in tpl.tips]
    for x, pairing in joins:
        host, rec = join(host, x, tpl, pairing=pairing)
        join_records.append(rec)
        provenance += [("clone-of", rec.identified[clone_of[w]])
                       if w in clone_of else ("copy", rec.x[0], w)
                       for w in embedded]
    trace = LevelTrace(level, tuple(tpl_records), tuple(host_records),
                       tuple(join_records), tuple(provenance))
    return host, trace


def build_graft(k: int, cap: int = GRAFT_CAP) -> tuple[Graft, ConstructionTrace]:
    """The k-th graft, grown level by level through the three operations.

    Each level plans its ops from the t sorted tips: the template clones
    every tip, then pendents every clone; the host clones each tip u 2t-1
    times; X_u is u plus its clones, joined with the default pairing.
    Every op appends one vertex, so each created id is known in advance.
    """
    _check_level(k, cap)
    gf = _seed_graft()
    levels = []
    for level in range(1, k):
        tips = sorted(gf.tips)
        n, step = gf.n, 2 * len(tips) - 1
        template = ([("clone", v) for v in tips]
                    + [("pendent", n + i) for i in range(len(tips))])
        host = [("clone", u) for u in tips for _ in range(step)]
        joins = [([u, *range(n + i * step, n + (i + 1) * step)], None)
                 for i, u in enumerate(tips)]
        gf, trace = _level(gf, level, template, host, joins)
        levels.append(trace)
    return gf, ConstructionTrace(k, tuple(levels))


def replay_trace(trace: ConstructionTrace) -> Graft:
    """Re-execute the recorded operations; must rebuild bit-exactly."""
    gf = _seed_graft()
    for lv in trace.levels:
        gf, _ = _level(
            gf, lv.level,
            [(rec.op, rec.target) for rec in lv.template_records],
            [(rec.op, rec.target) for rec in lv.host_records],
            [(rec.x, rec.identified) for rec in lv.join_records])
    return gf


def check_equivalence(k: int, cap: int = EQUIV_CAP):
    """Bijection between the pair-derived graft and the built graft at
    level k, or None if the two builders disagree (a bug, not an input
    condition). cap bounds k here; each builder keeps its own cap, so a k
    above PAIR_CAP or GRAFT_CAP raises CapError before anything is built."""
    _check_level(k, cap)
    a = graft_from_pair(burling_pair(k))
    b, _ = build_graft(k)
    return graft_isomorphic(a, b)
