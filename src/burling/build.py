"""The two level-by-level constructions and their equivalence.

One construction iterates a successor procedure on graph/stable-set
pairs; the other grows grafts by clone/pendent/join rounds. Adding one
tip per stable set to the k-th pair graph gives a graft isomorphic to
the k-th built graft, and check_equivalence exhibits the bijection.
"""

from __future__ import annotations

from .bits import mask_of
from .graph import Graph, Graft, _Record, _set
from .ops import apply_op, _freeze, _join, _thaw
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


class StablePair(_Record):
    """A graph with an ordered list of stable sets. Stability of every
    listed set is validated on construction."""

    __slots__ = ("graph", "stables")

    def __init__(self, graph: Graph, stables: tuple[frozenset[int], ...]):
        stables = tuple(frozenset(s) for s in stables)
        for i, s in enumerate(stables):
            if not graph.is_stable_set(s):
                raise InvalidArgumentError(f"stables[{i}] is not stable")
        _set(self, "graph", graph)
        _set(self, "stables", stables)


def next_pair(p: StablePair) -> StablePair:
    """One successor round on a pair.

    Output layout is deterministic: the input graph keeps ids 0..n-1,
    copy i occupies n + i*n .. n + (i+1)*n - 1, and the connector vertex
    for (stable i, stable j) sits at n*(m+1) + i*m + j. Each (i, j)
    contributes two output stables: stables[i] union the copy of
    stables[j] inside copy i, and stables[i] union the (i, j) connector.
    Edges: the input graph's, each copy's, and connector (i, j) to the
    copy of stables[j] in copy i. Rows are whole masks shifted into
    place: copy i's vertex t gets adj[t] and its member bitset (the j
    with t in stables[j]) on its connectors; connector (i, j) gets
    stables[j]. The input is at most level 4, so the member bitsets
    are at most 128 bits and are built from `_incidence`'s lists.
    """
    if not p.stables:
        raise InvalidArgumentError("pair must carry at least one stable set")
    g = p.graph
    n = g.n
    m = len(p.stables)
    conn0 = n * (m + 1)
    held, masks = _incidence(p)
    member = [mask_of(h) for h in held]
    rows = list(g.adj)
    for i in range(m):
        off, con = n + i * n, conn0 + i * m
        rows += [a << off | b << con for a, b in zip(g.adj, member)]
    rows += [s << n + i * n for i in range(m) for s in masks]
    out = Graph._raw(conn0 + m * m, rows)
    stables = []
    for i, s in enumerate(p.stables):
        off = n + i * n
        for j, t_set in enumerate(p.stables):
            stables.append(s | {off + t for t in t_set})
            stables.append(s | {conn0 + i * m + j})
    return StablePair(out, tuple(stables))


def _incidence(p: StablePair) -> tuple[list[list[int]], list[int]]:
    """(held, masks): held[t] lists, in increasing order, the j with
    vertex t in stables[j], and masks[j] is stables[j] as a mask.

    Lists, not member bitsets: at level 5 a vertex's member bitset is
    about 2 KB, and a table of them (about 88 MB) would be held beside
    the graft rows built from it, or freed in between them. Each caller
    turns a list into a bitset where it uses it. Building the masks
    before the lists lowered the level-5 peak by about 1 MB (measured).
    """
    masks = [mask_of(s) for s in p.stables]
    held: list[list[int]] = [[] for _ in range(p.graph.n)]
    for j, s in enumerate(p.stables):
        for t in s:
            held[t].append(j)
    return held, masks


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
    """Attach one new tip per stable set, adjacent to exactly that set:
    tip n + j's row is stables[j], and vertex t gains its member bitset
    (the j with t in stables[j]) shifted to n.

    Each vertex row is built once in its final form from `_incidence`'s
    lists, and the tip rows follow them in the same list. At level 5
    the graft's rows are about 376 MB. Building a table of member
    bitsets first and replacing it row by row frees about 88 MB of 2 KB
    ints between the 9 KB row allocations; that fragments the heap, and
    the process grows about 8% more than the rows, against 3% here.
    Popping each list as its row is built lowered that peak by a
    further 3 MB (measured): the next bitsets' small ints reuse it.
    """
    n = p.graph.n
    held, masks = _incidence(p)
    held.reverse()  # popped in vertex order, each freed once its row is built
    rows = [a | mask_of(held.pop()) << n for a in p.graph.adj] + masks
    return Graft(Graph._raw(n + len(masks), rows),
                 frozenset(range(n, n + len(masks))))


class LevelTrace(_Record):
    """Audit of one graft level: the side-template ops (clones then
    pendents on a copy of the level's input), the host clones, the joins
    in increasing tip order, and a provenance tag per output vertex.

    Tags: ("base", v) kept host vertex; ("clone-of", c) a clone, host or
    embedded template, with c the final id of its original; ("copy", u,
    w) embeds non-tip template vertex w during the join at u. Template
    tips (the original tips and the pendants) are glued onto host
    vertices, so they never appear as created vertices here. `_plan`
    derives every id and tag.
    """

    __slots__ = ("level", "template_records", "host_records",
                 "join_records", "provenance")


class ConstructionTrace(_Record):
    __slots__ = ("k", "levels")


def _seed_graft() -> Graft:
    return Graft(Graph.from_edges(2, [(0, 1)]), frozenset({1}))


def _plan(gk: Graft) -> tuple[list, list, list, tuple]:
    """The level above gk as (template ops, host clone ops, the join
    sets X_u in tip order, provenance tags), read off gk's vertex count
    n and its t sorted tips.

    Every op appends one vertex, so each id is known in advance:
    - The template runs on a copy of gk: ("clone", tips[j]) makes n + j,
      then ("pendent", n + j) makes n + t + j, which replaces n + j as a
      tip. Its sorted tips are gk's tips followed by the pendants.
    - The host runs on a second copy: tip u = tips[i] is cloned 2t - 1
      times, making n + i*(2t-1) .. n + (i+1)*(2t-1) - 1. X_u is u plus
      those clones, sorted, since u < n.
    - Then one join per tip, in tip order, glues the template's sorted
      tips onto sorted X_u (`ops.join`): template tip tips[j] goes onto
      X_u[j], and the pendant on clone n + j onto X_u[t + j]. Both have
      2t members.
    - `_join` gives the template's non-tips fresh ids in increasing
      order, so each join appends n vertices: gk's n - t non-tips w,
      tagged ("copy", u, w), then the t template clones. Clone n + j
      was made from tips[j], which sits at X_u[j], so it is tagged
      ("clone-of", X_u[j]).
    """
    tips = sorted(gk.tips)
    n, t = gk.n, len(tips)
    step = 2 * t - 1
    clones = [("clone", u) for u in tips for _ in range(step)]
    xs = [(u, *range(n + i * step, n + (i + 1) * step))
          for i, u in enumerate(tips)]
    tags = [("base", v) for v in range(n)]
    tags += [("clone-of", u) for _, u in clones]
    for x in xs:
        tags += [("copy", x[0], w) for w in range(n) if w not in gk.tips]
        tags += [("clone-of", c) for c in x[:t]]
    template = ([("clone", u) for u in tips]
                + [("pendent", n + j) for j in range(t)])
    return template, clones, xs, tuple(tags)


def _level(gk: Graft, template_ops, clone_ops, xs):
    """Run one graft level's ops: the template ops on one copy of gk,
    frozen once as the template, then the clone ops and a join of the
    template at each x in xs on a second copy, frozen once. Returns the
    graft and the template, clone and join records."""
    adj, tips = _thaw(gk)
    template_records = tuple(apply_op(adj, tips, op) for op in template_ops)
    tpl = _freeze(adj, tips)
    adj, tips = _thaw(gk)
    clones = tuple(apply_op(adj, tips, op) for op in clone_ops)
    joins = tuple(_join(adj, tips, x, tpl) for x in xs)
    return _freeze(adj, tips), template_records, clones, joins


def build_graft(k: int, cap: int = GRAFT_CAP) -> tuple[Graft, ConstructionTrace]:
    """The k-th graft, grown level by level through the three operations.

    Each level runs the ops of its plan (`_plan`): the template clones
    every tip, then pendents every clone; the host clones each tip u
    2t-1 times; X_u is u plus its clones, joined with the default
    pairing.
    """
    _check_level(k, cap)
    gf = _seed_graft()
    levels = []
    for level in range(1, k):
        *ops, provenance = _plan(gf)
        gf, *records = _level(gf, *ops)
        levels.append(LevelTrace(level, *records, provenance))
    return gf, ConstructionTrace(k, tuple(levels))


def replay_trace(trace: ConstructionTrace) -> Graft:
    """Re-execute the recorded operations; must rebuild bit-exactly. Joins
    replay with the default pairing, the only one build_graft records."""
    gf = _seed_graft()
    for lv in trace.levels:
        gf, *_ = _level(gf, [(r.op, r.target) for r in lv.template_records],
                        [(r.op, r.target) for r in lv.host_records],
                        [r.x for r in lv.join_records])
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
