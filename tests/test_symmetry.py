"""Symmetry, direction and shared-pivot reductions in the detector loops.

`find_wheel` first decides by one walk of the induced cycles, shared by
every hub, whether a wheel can exist, and only then searches one hub per
proven orbit (`iso.orbits`), as `find_fan` searches one pivot per orbit.
`find_guarded_fan` searches every pivot in one shared search. Fans and
mountable paths search each tip-to-tip path in one direction, rooted
only at the least end of each class of ends with equal rows. Each
reduction must keep every witness: the references here search one hub
or pivot at a time, every one of them, with the same kernel, and walk
paths from every end and in both directions; they must agree witness
for witness.
"""

import itertools
import random
import time

import pytest

import burling.patterns
from burling import (
    Graph, Graft, SearchBudget, SearchBudgetExceeded, Witness,
    build_graft, burling_pair, is_clean, validate_witness,
    find_wheel, find_fan, find_guarded_fan, find_mountable_path,
)
from burling.bits import bits
from burling.fuzz import generate_sequence, run_sequence
from burling.iso import _initial, _refine, orbits
from burling.ops import apply_op
from burling.patterns import _canon_cycle, _cycle_walk, _cycles, _paths

from conftest import make_random_graph


# -- references: every hub or pivot, both directions -------------------------

def ref_wheel(g, k, budget):
    full = (1 << g.n) - 1
    for h in range(g.n):
        nh = g.adj[h]
        if nh.bit_count() < k:
            continue
        for a in bits(nh):
            allowed = full & ~(1 << h) & ~(nh & ((1 << a) - 1))
            for cyc in _cycles(g, a, allowed, budget, nh, k):
                if len(cyc) >= 4:
                    rim = _canon_cycle(tuple(cyc))
                    hit = tuple(v for v in rim if nh >> v & 1)
                    return Witness("wheel", rim, center=h, k=len(hit),
                                   hits=hit)
    return None


def ref_fan(g, kind, k, ends, budget):
    full = (1 << g.n) - 1
    for pivot in range(g.n):
        nf = g.adj[pivot]
        if nf.bit_count() < k:
            continue
        interior = full & ~(1 << pivot)
        path_ends = ends & interior
        for path in _paths(g, [], path_ends, interior, path_ends, budget,
                           nf, k):
            hit = tuple(v for v in path if nf >> v & 1)
            return Witness(kind, tuple(path), center=pivot, k=len(hit),
                           hits=hit)
    return None


def ref_mountable_path(gf, budget):
    g, tm = gf.graph, gf.tip_mask
    if tm.bit_count() < 3:
        return None
    for path in _paths(g, [], tm, (1 << g.n) - 1, tm, budget, tm, 3):
        hit = tuple(u for u in path if tm >> u & 1)
        return Witness("mountable-path", tuple(path), hits=hit)
    return None


def both(gf, budget=None, kinds=("wheel", "wheel4", "fan", "guarded-fan",
                                  "mountable-path")):
    """(library, reference) witness pairs for the reduced detectors."""
    g = gf.graph
    calls = {
        "wheel": (lambda b: find_wheel(g, 3, budget=b),
                  lambda b: ref_wheel(g, 3, b)),
        "wheel4": (lambda b: find_wheel(g, 4, budget=b),
                   lambda b: ref_wheel(g, 4, b)),
        "fan": (lambda b: find_fan(g, 3, budget=b),
                lambda b: ref_fan(g, "fan", 3, (1 << g.n) - 1, b)),
        "guarded-fan": (lambda b: find_guarded_fan(gf, budget=b),
                        lambda b: ref_fan(g, "guarded-fan", 3, gf.tip_mask,
                                          b)),
        "mountable-path": (lambda b: find_mountable_path(gf, budget=b),
                           lambda b: ref_mountable_path(gf, b)),
    }
    return {kind: tuple(f(SearchBudget(budget)) for f in calls[kind])
            for kind in kinds}


def with_twins(rng, g, clones):
    """g plus `clones` twin copies of random vertices."""
    adj = list(g.adj)
    for _ in range(clones):
        row = adj[rng.randrange(len(adj))]
        w = len(adj)
        adj = [a | (1 << w) if row >> i & 1 else a
               for i, a in enumerate(adj)] + [row]
    return Graph.from_adj(adj)


def gate_grafts():
    """Random grafts, random grafts with twins, and fuzz-built grafts
    with one extra edge, so the inputs carry both symmetry and
    witnesses."""
    rng = random.Random(8)
    out = []
    for _ in range(500):
        n = rng.randint(2, 11)
        g = make_random_graph(rng, n, p=rng.uniform(0.1, 0.6))
        tips = frozenset(rng.sample(range(n), rng.randint(0, n)))
        out.append(Graft(g, tips))
    for _ in range(400):
        g = with_twins(rng, make_random_graph(rng, rng.randint(3, 8), p=0.4),
                       rng.randint(1, 5))
        out.append(Graft(g, frozenset(
            rng.sample(range(g.n), rng.randint(0, g.n)))))
    for seed in range(300):
        gf = run_sequence(generate_sequence(seed, 8, 30)).final
        u, v = rng.sample(range(gf.n), 2)
        adj = list(gf.graph.adj)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        out.append(Graft(Graph.from_adj(adj), gf.tips))
    return out


class TestEqualityGate:
    def test_random_and_fuzz_grafts(self):
        found = dict.fromkeys(("wheel", "wheel4", "fan", "guarded-fan",
                               "mountable-path"), 0)
        symmetric = 0
        grafts = gate_grafts()
        assert len(grafts) >= 1000
        for gf in grafts:
            for kind, (got, want) in both(gf, 10 ** 7).items():
                assert got == want, (kind, gf.graph.edges(), sorted(gf.tips))
                if got is not None:
                    found[kind] += 1
                    assert validate_witness(gf.graph, gf.tips, got)
            reps, _ = orbits(gf, SearchBudget())
            symmetric += reps != list(range(gf.n))
        assert min(found.values()) >= 100, found
        assert symmetric >= 300

    def test_g3(self):
        g3, _ = build_graft(3)
        for kind, (got, want) in both(g3).items():
            assert got == want, kind
            assert (got is None) == (kind != "fan"), kind

    def test_g4(self):
        # the reference guarded-fan search alone takes 3.75 million
        # nodes; g4 has a plain fan, but both searches for it take about
        # 3 million nodes each, so it is left to the random grafts
        g4, _ = build_graft(4)
        for kind, (got, want) in both(
                g4, 10 ** 7, ("wheel", "guarded-fan",
                              "mountable-path")).items():
            assert got == want is None, kind


class TestCycleWalk:
    def test_k4_walk_yields_a_triangle_but_no_wheel(self):
        # each vertex sees all three of the triangle 0-1-2, which has no
        # hole around it, so the hub search runs and finds nothing
        k4 = Graph.from_edges(4, list(itertools.combinations(range(4), 2)))
        walk = SearchBudget()
        assert _cycle_walk(k4, 3, walk) == [0, 1, 2]
        b = SearchBudget()
        assert find_wheel(k4, 3, budget=b) is None
        assert ref_wheel(k4, 3, SearchBudget()) is None
        assert b.nodes > walk.nodes

    def test_wheel_among_triangles(self):
        # the K4 on 0-3 yields first; hub 9 on the rim 4-...-8 sees
        # 4, 6 and 7, and makes the triangle 9-6-7 too
        edges = (list(itertools.combinations(range(4), 2))
                 + [(4 + i, 4 + (i + 1) % 5) for i in range(5)]
                 + [(9, 4), (9, 6), (9, 7)])
        g = Graph.from_edges(10, edges)
        assert _cycle_walk(g, 3, SearchBudget()) == [0, 1, 2]
        w = find_wheel(g, 3)
        assert w == ref_wheel(g, 3, SearchBudget())
        assert w.center == 9 and validate_witness(g, None, w)


def two_fans():
    """Two tip-to-tip paths, 0-...-1 and 2-...-3, each guarded by one
    pivot on its 1st, 3rd and 5th inner vertex. Pivot 15 guards the
    first path and pivot 4 the second, so the shared search finishes
    15 first, from root 0, and only root 2 reaches the smaller pivot.
    The inner vertices of degree 3 are pivots too, but guard nothing:
    removing one leaves a neighbour of it with no way on to a tip."""
    edges = []
    for tips, inner, pivot in (((2, 3), (5, 6, 7, 8, 9), 4),
                               ((0, 1), (10, 11, 12, 13, 14), 15)):
        path = [tips[0], *inner, tips[1]]
        edges += list(zip(path, path[1:]))
        edges += [(pivot, inner[i]) for i in (0, 2, 4)]
    return Graft(Graph.from_edges(16, edges), frozenset({0, 1, 2, 3}))


class TestSharedPivotSearch:
    def test_a_later_path_finishes_a_smaller_pivot(self):
        gf = two_fans()
        g = gf.graph
        pivots = sum(1 << v for v in range(g.n) if g.adj[v].bit_count() >= 3)
        count = 0
        for p in bits(pivots):
            count |= g.adj[p]
        full = (1 << g.n) - 1
        paths = list(_paths(g, [], gf.tip_mask, full, gf.tip_mask,
                            SearchBudget(), count, 3, pivots, one_way=True))
        assert paths == [[0, 10, 11, 12, 13, 14, 1], [2, 5, 6, 7, 8, 9, 3]]
        want = ref_fan(g, "guarded-fan", 3, gf.tip_mask, SearchBudget())
        assert want.center == 4
        assert find_guarded_fan(gf) == want


# -- the orbit certificate ---------------------------------------------------

def frucht():
    lcf = [-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2]
    ring = [(i, (i + 1) % 12) for i in range(12)]
    chords = [(i, (i + d) % 12) for i, d in enumerate(lcf)]
    return Graph.from_edges(12, ring + chords)


def is_automorphism(gf, perm):
    g = gf.graph
    return (sorted(perm) == list(range(g.n))
            and all(g.has_edge(perm[u], perm[v]) for u, v in g.edges())
            and {perm[t] for t in gf.tips} == set(gf.tips))


def closure(n, maps):
    """reps of the orbits the maps generate: the least vertex each
    vertex reaches by applying them."""
    reps = []
    for v in range(n):
        orbit, todo = {v}, [v]
        while todo:
            u = todo.pop()
            for perm in maps:
                if perm[u] not in orbit:
                    orbit.add(perm[u])
                    todo.append(perm[u])
        reps.append(min(orbit))
    return reps


def true_orbits(gf):
    g = gf.graph
    autos = [p for p in itertools.permutations(range(g.n))
             if is_automorphism(gf, p)]
    return [min(p[v] for p in autos) for v in range(g.n)]


class TestOrbitCertificate:
    def test_every_merge_has_a_checked_automorphism(self):
        rng = random.Random(12)
        merged = 0
        for i in range(300):
            g = with_twins(rng, make_random_graph(rng, rng.randint(2, 7)),
                           rng.randint(0, 3)) if i % 2 else \
                make_random_graph(rng, rng.randint(2, 9))
            gf = Graft(g, frozenset(rng.sample(range(g.n),
                                               rng.randint(0, g.n))))
            reps, maps = orbits(gf, SearchBudget())
            assert all(is_automorphism(gf, p) for p in maps)
            assert reps == closure(g.n, maps)
            merged += reps != list(range(g.n))
            if g.n <= 6:
                # proven orbits never join vertices no automorphism joins
                truth = true_orbits(gf)
                assert all(truth[u] == truth[reps[u]] for u in range(g.n))
        assert merged >= 100

    def test_g4_orbits(self):
        g4, _ = build_graft(4)
        reps, maps = orbits(g4, SearchBudget())
        assert all(is_automorphism(g4, p) for p in maps)
        assert reps == closure(g4.n, maps)
        assert len(set(reps)) == 27

    def test_frucht_graph_keeps_every_vertex(self):
        # 3-regular, so refinement leaves one cell, but its only
        # automorphism is the identity
        g = frucht()
        assert g.edge_count() == 18
        assert all(row.bit_count() == 3 for row in g.adj)
        (c,) = _refine((g,), [_initial(g, frozenset(), {})])
        assert len(set(c)) == 1
        reps, maps = orbits(Graft(g), SearchBudget())
        assert reps == list(range(12)) and maps == []

    def test_vertex_transitive_graphs_are_one_orbit(self, petersen):
        # under a random labelling the map that pairs each class's
        # members in order often fails, and the full search finds one
        c4c4 = Graph.from_edges(8, [(i, (i + 1) % 4) for i in range(4)]
                                + [(4 + i, 4 + (i + 1) % 4) for i in range(4)])
        cube = Graph.from_edges(8, [(u, u ^ 1 << b) for u in range(8)
                                    for b in range(3) if u < u ^ 1 << b])
        rng = random.Random(3)
        for g in (petersen, c4c4, cube):
            for _ in range(10):
                label = rng.sample(range(g.n), g.n)
                h = Graph.from_edges(g.n, [(label[u], label[v])
                                           for u, v in g.edges()])
                reps, maps = orbits(Graft(h), SearchBudget())
                assert reps == [0] * g.n
                assert all(is_automorphism(Graft(h), p) for p in maps)


# -- budgets ------------------------------------------------------------------

@pytest.fixture(scope="module")
def pair5():
    return burling_pair(5).graph


def recorded(monkeypatch):
    """Record the grafts the detectors compute orbits of."""
    calls = []
    real = burling.patterns.orbits

    def orbits_recorded(gf, budget):
        calls.append(gf)
        return real(gf, budget)

    monkeypatch.setattr(burling.patterns, "orbits", orbits_recorded)
    return calls


class TestOrbitBudget:
    def test_refinement_spends_before_it_runs(self, pair5):
        # one refinement of this graph takes seconds; the first round's
        # charge of one node per vertex is past the limit already
        t0 = time.monotonic()
        b = SearchBudget(1000)
        with pytest.raises(SearchBudgetExceeded):
            orbits(Graft(pair5), b)
        assert time.monotonic() - t0 < 2.0
        assert b.nodes == 1001

    def test_hub_searches_spend_before_any_orbit_step(self, pair5,
                                                      monkeypatch):
        # the step waits for a hub search of at least n nodes, more
        # than this whole limit
        calls = recorded(monkeypatch)
        b = SearchBudget(1000)
        with pytest.raises(SearchBudgetExceeded):
            find_wheel(pair5, 3, budget=b)
        assert calls == [] and b.nodes == 1001

    def test_tipless_guarded_fan_does_no_orbit_work(self, pair5,
                                                    monkeypatch):
        calls = recorded(monkeypatch)
        b = SearchBudget(1000)
        assert find_guarded_fan(Graft(pair5), budget=b) is None
        assert calls == [] and b.nodes == 0

    def test_limit_inside_the_kernel_after_orbits(self, monkeypatch):
        # g4's cycle walk finds no wheel, so it takes no orbit step; with
        # the edge 6-127 it has a wheel, and the hub search's orbit step
        # ends under 40,000 nodes, so this limit is met by the many small
        # kernel calls that follow it
        ends = []
        real = burling.patterns.orbits

        def orbits_ended(gf, budget):
            out = real(gf, budget)
            ends.append(budget.nodes)
            return out

        monkeypatch.setattr(burling.patterns, "orbits", orbits_ended)
        b = SearchBudget(45_000)
        with pytest.raises(SearchBudgetExceeded) as exc:
            find_wheel(g4_with_a_wheel().graph, 3, budget=b)
        assert len(ends) == 1 and ends[0] < 40_000
        assert b.nodes == exc.value.nodes == 45_001

    def test_cheap_hubs_take_no_orbit_step(self, monkeypatch):
        # hubs 0, 4 and 8 share degree 3, but each search spends fewer
        # than n = 12 nodes, so the step could not pay
        calls = recorded(monkeypatch)
        g = Graph.from_edges(12, [(h, h + i) for h in (0, 4, 8)
                                  for i in (1, 2, 3)])
        b = SearchBudget()
        assert find_wheel(g, 3, budget=b) is None
        assert is_clean(Graft(g, frozenset({1, 5, 9}))).all_hold
        assert calls == [] and b.nodes < g.n

    def test_is_clean_shares_one_orbit_step(self, monkeypatch):
        # a wheel-free graft is decided by the cycle walk alone; only a
        # graft with a wheel searches hubs, which take one step at most
        calls = recorded(monkeypatch)
        g3, _ = build_graft(3)
        assert is_clean(g3).all_hold
        assert calls == []
        adj = list(g3.graph.adj)
        adj[3] |= 1 << 8
        adj[8] |= 1 << 3
        gf = Graft(Graph.from_adj(adj), g3.tips)
        assert not is_clean(gf).wheel_free.holds
        assert calls == [gf]

    def test_guarded_fan_takes_no_orbit_step(self, monkeypatch):
        calls = recorded(monkeypatch)
        g4, _ = build_graft(4)
        assert find_guarded_fan(g4, budget=SearchBudget(100_000)) is None
        assert calls == []


def g4_with_a_wheel():
    """g4 plus the edge 6-127, which makes a wheel with hub 6."""
    g4, _ = build_graft(4)
    adj = list(g4.graph.adj)
    adj[6] |= 1 << 127
    adj[127] |= 1 << 6
    return Graft(Graph.from_adj(adj), g4.tips)


def level_five_template():
    """T5, the template of level 5: g4 with every tip cloned and every
    clone given a pendant, in build_graft's order of ops."""
    g4, _ = build_graft(4)
    adj, tips = list(g4.graph.adj), set(g4.tips)
    ends = sorted(tips)
    for op in ([("clone", t) for t in ends]
               + [("pendent", g4.n + i) for i in range(len(ends))]):
        apply_op(adj, tips, op)
    assert len(tips) == 256
    return Graft(Graph.from_adj(adj), frozenset(tips))


# -- the gain -----------------------------------------------------------------

class TestG4WithinBudget:
    def test_guarded_fan(self):
        g4, _ = build_graft(4)
        assert find_guarded_fan(g4, budget=SearchBudget(100_000)) is None

    def test_is_clean_nodes(self):
        # triangle, tips, wheel, guarded fan, mountable path
        g4, _ = build_graft(4)
        rep = is_clean(g4, budget=1_000_000)
        assert rep.all_hold
        assert [v.nodes for _, v in rep.items()] == [814, 128, 21994, 19299,
                                                     0]

    def test_level_five_template_is_wheel_free(self):
        g = level_five_template().graph
        assert (g.n, g.edge_count()) == (565, 1923)
        b = SearchBudget(100_000)
        assert find_wheel(g, 3, budget=b) is None
        assert b.nodes == 46_885

    def test_wheel(self, monkeypatch):
        # the cycle walk alone proves g4 wheel-free, with no orbit step;
        # with a wheel, the hub searches pay for one step, taken once
        calls = recorded(monkeypatch)
        g4, _ = build_graft(4)
        assert find_wheel(g4.graph, 3, budget=SearchBudget(200_000)) is None
        assert calls == []
        g = g4_with_a_wheel().graph
        w = find_wheel(g, 3, budget=SearchBudget(200_000))
        assert w.center == 6 and validate_witness(g, None, w)
        assert calls == [Graft(g)]
