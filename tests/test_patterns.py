"""Pattern detectors: holes, wheels, thetas, fans, and the clean report.

The exhaustiveness claims get separate coverage against the subset
oracle in test_oracle_equiv; here the focus is hand-built positives and
negatives, witness validity, budgets, and determinism.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from burling import (
    Graph, Graft, validate_witness,
    find_triangle, find_hole, find_wheel, find_theta, find_fan,
    find_guarded_fan, find_mountable_path,
    is_clean, SearchBudget, UNBUDGETED_MAX, build_graft,
    SearchBudgetExceeded, BudgetRequiredError, InvalidArgumentError,
)
from burling.bits import bits
from burling.fuzz import generate_sequence, run_sequence
from burling.patterns import _paths

from conftest import make_random_graph
from test_symmetry import gate_grafts, two_fans


def holes(g, min_len=4):
    return list(find_hole(g, min_len))


def _connected(adj, mask):
    seen = frontier = mask & -mask
    while frontier:
        grow = 0
        for v in bits(frontier):
            grow |= adj[v]
        frontier = grow & mask & ~seen
        seen |= frontier
    return seen == mask


def _induced_paths(g):
    """Every induced path of two or more vertices, once per direction."""
    def grow(path):
        if len(path) >= 2:
            yield path
        for v in range(g.n):
            if (v not in path and g.adj[path[-1]] >> v & 1
                    and not any(g.adj[u] >> v & 1 for u in path[:-1])):
                yield from grow(path + [v])
    for r in range(g.n):
        yield from grow([r])


def _kernel_by_contract(g, head, roots, interior, close, count, need):
    """What `_paths` yields, read off its docstring with no pruning:
    tails r..c from roots through interior to a closer, carrying need
    vertices of count with the head; a closer in interior is entered
    like any other vertex, even when it finished the path. In DFS
    order, a node's closers before its children."""
    def fits(tail):
        return (roots >> tail[0] & 1 and close >> tail[-1] & 1
                and all(interior >> u & 1 for u in tail[1:-1])
                and sum(count >> u & 1 for u in head + tail) >= need)

    tails = sorted((t for t in _induced_paths(g) if fits(t)), key=_dfs_order)
    return [head + t for t in tails]


def _dfs_order(tail):
    """The kernel's order: by root, then a node's closers before its
    children, each in increasing order."""
    return (tail[0], *((1, u) for u in tail[1:-1]), (0, tail[-1]))


class TestKernel:
    def test_matches_unpruned_contract(self):
        # the kernel's cuts may only drop branches that yield nothing;
        # head vertices are kept out of the masks, as callers do
        rng = random.Random(61)
        yielded = 0
        for _ in range(600):
            n = rng.randint(1, 10)
            g = make_random_graph(rng, n)
            head = rng.sample(range(n), rng.randint(0, 1))
            free = ((1 << n) - 1) & ~sum(1 << h for h in head)
            roots, interior, close, count = (
                free & rng.getrandbits(n) for _ in range(4))
            need = rng.randint(0, 4)
            got = list(_paths(g, head, roots, interior, close,
                              SearchBudget(), count, need))
            want = _kernel_by_contract(g, head, roots, interior, close,
                                       count, need)
            assert got == want
            yielded += len(got)
        assert yielded > 1000

    def test_pivot_counting_matches_contract(self):
        # with pivots: every path through interior to a closer, in DFS
        # order, that brings a live pivot to need neighbours; each one
        # yielded leaves live only the pivots below the least it finished
        rng = random.Random(62)
        yielded = shrunk = 0
        for _ in range(600):
            n = rng.randint(1, 9)
            g = make_random_graph(rng, n)
            head = rng.sample(range(n), rng.randint(0, 1))
            free = ((1 << n) - 1) & ~sum(1 << h for h in head)
            roots, interior, close = (
                free & rng.getrandbits(n) for _ in range(3))
            pivots = rng.randrange(1, 1 << n)
            need = rng.randint(1, 4)
            count = rng.getrandbits(n)
            for p in bits(pivots):
                count |= g.adj[p]
            got = list(_paths(g, head, roots, interior, close,
                              SearchBudget(), count, need, pivots))
            tails = sorted(
                (t for t in _induced_paths(g)
                 if roots >> t[0] & 1 and close >> t[-1] & 1
                 and all(interior >> u & 1 for u in t[1:-1])),
                key=_dfs_order)
            want, live = [], pivots
            for t in tails:
                fin = [p for p in bits(live)
                       if sum(g.adj[p] >> u & 1 for u in head + t) >= need]
                if fin:
                    want.append(head + t)
                    live &= (1 << fin[0]) - 1
                    shrunk += live != 0
                    if not live:
                        break
            assert got == want
            yielded += len(got)
        assert yielded > 200 and shrunk > 20


class TestTriangle:
    def test_found_and_valid(self):
        g = Graph.from_edges(5, [(0, 3), (3, 4), (0, 4), (1, 2)])
        w = find_triangle(g)
        assert w is not None and w.kind == "triangle"
        assert validate_witness(g, None, w)

    def test_none_on_triangle_free(self, c5, petersen):
        assert find_triangle(c5) is None
        assert find_triangle(petersen) is None
        assert find_triangle(Graph.from_edges(1, [])) is None


class TestHole:
    def test_c5_has_exactly_its_rim(self, c5):
        found = holes(c5)
        assert len(found) == 1
        assert set(found[0].vertices) == {0, 1, 2, 3, 4}
        assert validate_witness(c5, None, found[0])

    def test_chords_kill_holes(self):
        diamond = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        assert holes(diamond) == []
        k4 = Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        assert holes(k4) == []

    def test_trees_have_no_holes(self):
        star = Graph.from_edges(5, [(0, i) for i in range(1, 5)])
        assert holes(star) == []

    def test_min_len_filters(self, c5):
        assert holes(c5, 5) != []
        assert holes(c5, 6) == []
        with pytest.raises(InvalidArgumentError):
            next(find_hole(c5, 3))

    def test_no_duplicate_holes(self, petersen):
        found = holes(petersen, 5)
        seen = {tuple(w.vertices) for w in found}
        assert len(seen) == len(found)
        canon = {frozenset(w.vertices) for w in found}
        assert len(canon) == len(found)
        # Petersen graph: twelve 5-cycles, girth 5
        assert len([w for w in found if len(w.vertices) == 5]) == 12
        for w in found:
            assert validate_witness(petersen, None, w)

    def test_six_cycle_count_in_petersen(self, petersen):
        assert len([w for w in holes(petersen, 6) if len(w.vertices) == 6]) == 10

    @pytest.mark.parametrize("which, pinned", [
        ("g3", (88, 141, "d4c3e4a005f8ec994a8a3c430669984927852d7c"
                         "9208b613bfcbb9b85846825d")),
        ("g4", (37090, 21994, "c16ccfff2dfd80ab1af41a5ee2026b3ade911e8d"
                              "46948f88c3af09b5a1989868")),
        ("small", (1679, 3405, "a5962172cb546c14c919af1f4b0148718d3eb777"
                               "c10af376edc88cd2857ab121")),
    ])
    def test_holes_and_nodes_pinned(self, which, pinned):
        # every hole in order, and the nodes the walk spends, frozen so a
        # rewrite of the hole walk must keep both
        if which == "small":
            rng = random.Random(73)
            graphs = [make_random_graph(rng, rng.randint(4, 12))
                      for _ in range(300)]
        else:
            graphs = [build_graft(int(which[1]))[0].graph]
        b = SearchBudget()
        text = "".join(f"{' '.join(map(str, w.vertices))}\n"
                       for g in graphs for w in find_hole(g, budget=b))
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert (text.count("\n"), b.nodes, digest) == pinned

    def test_hole_set_matches_subset_enumeration(self):
        # a cut that drops some hole shows here; first-witness checks miss it.
        # Every other graph is a spanning cycle plus sparse chords, so long
        # holes, rare in plain random graphs, are covered too.
        rng = random.Random(59)
        for i in range(200):
            n = rng.randint(4, 9)
            g = make_random_graph(rng, n)
            if i % 2:
                order = rng.sample(range(n), n)
                ring = [(order[j - 1], order[j]) for j in range(n)]
                g = Graph.from_edges(n, ring + [
                    e for e in g.edges() if rng.random() < 0.4])
            want = set()
            for mask in range(1 << n):
                vs = list(bits(mask))
                degs = [(g.adj[v] & mask).bit_count() for v in vs]
                if (len(vs) >= 4 and all(d == 2 for d in degs)
                        and _connected(g.adj, mask)):
                    want.add(frozenset(vs))
            got = [frozenset(w.vertices) for w in holes(g)]
            assert len(got) == len(set(got))
            assert set(got) == want


class TestWheel:
    def test_planted(self, wheel6):
        # hub 5 over {0,1,2} plants one wheel, but vertex 1 also centers
        # a wheel on the hole 0-4-3-2-5, so only check the shape
        w = find_wheel(wheel6, 3)
        assert w is not None and w.kind == "wheel"
        assert len(w.hits) >= 3 and w.center not in w.vertices
        assert validate_witness(wheel6, None, w)

    def test_full_hub_wheel_by_k(self):
        rim = [(i, (i + 1) % 5) for i in range(5)]
        w5 = Graph.from_edges(6, rim + [(5, i) for i in range(5)])
        for k in (3, 4, 5):
            w = find_wheel(w5, k)
            assert w is not None and len(w.hits) >= k
            assert validate_witness(w5, None, w)
        assert find_wheel(w5, 6) is None

    def test_negative_cases(self, c5, petersen):
        assert find_wheel(c5) is None
        # every Petersen vertex sees at most 2 vertices of any hole
        assert find_wheel(petersen) is None

    def test_k_below_three_rejected(self, c5):
        with pytest.raises(InvalidArgumentError):
            find_wheel(c5, 2)

    def test_threads_other_than_one_rejected(self, c5):
        assert find_wheel(c5, 3, threads=1) is None
        with pytest.raises(InvalidArgumentError):
            find_wheel(c5, 3, threads=2)

    def test_hub_planted_on_random_clean_rims(self):
        # mutation check: adding a 3-hub onto any >=4 hole must flip verdict
        rng = random.Random(37)
        planted = 0
        for _ in range(60):
            g = make_random_graph(rng, rng.randint(4, 9), p=0.3)
            hole = next(find_hole(g), None)
            if hole is None or find_wheel(g) is not None:
                continue
            rim = hole.vertices
            picks = rng.sample(rim, 3)
            adj = list(g.adj) + [0]
            hub = g.n
            for v in picks:
                adj[v] |= 1 << hub
                adj[hub] |= 1 << v
            mutated = Graph.from_adj(adj)
            w = find_wheel(mutated, 3)
            assert w is not None
            assert validate_witness(mutated, None, w)
            planted += 1
        assert planted >= 10


class TestTheta:
    def test_k23_is_theta(self):
        g = Graph.from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
        w = find_theta(g)
        assert w is not None and w.kind == "theta"
        assert validate_witness(g, None, w)

    def test_longer_branches(self):
        edges = [(0, 2), (2, 1), (0, 3), (3, 4), (4, 1), (0, 5), (5, 6), (6, 7), (7, 1)]
        g = Graph.from_edges(8, edges)
        w = find_theta(g)
        assert w is not None
        assert set(w.vertices) == {0, 1}
        assert validate_witness(g, None, w)

    def test_prism_is_not_theta(self):
        prism = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                                     (0, 3), (1, 4), (2, 5)])
        assert find_theta(prism) is None

    def test_c4_and_k4_have_none(self):
        c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert find_theta(c4) is None
        k4 = Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        assert find_theta(k4) is None


class TestFan:
    def fan_graph(self):
        # path 0-1-2-3 plus pivot 4 on 0,1,2
        return Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (4, 0), (4, 1), (4, 2)])

    def test_found(self):
        # center 1 on path 0-4-2 is just as valid as the planted pivot
        g = self.fan_graph()
        w = find_fan(g, 3)
        assert w is not None and len(w.hits) >= 3
        assert validate_witness(g, None, w)
        assert find_fan(g, 4) is None

    def test_wheel_contains_fan(self, wheel6):
        w = find_fan(wheel6, 3)
        assert w is not None
        assert validate_witness(wheel6, None, w)

    def test_paths_and_cycles_have_none(self, c5):
        assert find_fan(c5, 3) is None
        p5 = Graph.from_edges(5, [(i, i + 1) for i in range(4)])
        assert find_fan(p5, 3) is None


class TestGuardedFan:
    def test_needs_tip_endpoints(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (4, 0), (4, 1), (4, 2)])
        both = Graft(g, frozenset({0, 3}))
        w = find_guarded_fan(both)
        assert w is not None and w.kind == "guarded-fan"
        assert validate_witness(g, both.tips, w)
        # every fan path here has 0 as an endpoint, so {1,3} guards none
        assert find_guarded_fan(Graft(g, frozenset({1, 3}))) is None
        assert find_guarded_fan(Graft(g, frozenset())) is None


class TestMountablePath:
    def test_three_tips_on_induced_path(self):
        p5 = Graph.from_edges(5, [(i, i + 1) for i in range(4)])
        gf = Graft(p5, frozenset({0, 2, 4}))
        w = find_mountable_path(gf)
        assert w is not None and w.kind == "mountable-path"
        assert len(w.hits) == 3
        assert validate_witness(p5, gf.tips, w)

    def test_two_tips_not_enough(self):
        p5 = Graph.from_edges(5, [(i, i + 1) for i in range(4)])
        assert find_mountable_path(Graft(p5, frozenset({0, 4}))) is None

    def test_tips_off_any_common_path(self):
        star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        gf = Graft(star, frozenset({1, 2, 3}))
        # leaves of a star: any path holds at most two of them
        assert find_mountable_path(gf) is None

    def test_found_through_interior_non_tips(self):
        p7 = Graph.from_edges(7, [(i, i + 1) for i in range(6)])
        gf = Graft(p7, frozenset({0, 3, 6}))
        w = find_mountable_path(gf)
        assert w is not None
        assert validate_witness(p7, gf.tips, w)


class TestBudgets:
    def big_graph(self):
        n = UNBUDGETED_MAX + 10
        return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])

    def test_budget_required_above_threshold(self):
        g = self.big_graph()
        with pytest.raises(BudgetRequiredError):
            find_triangle(g)
        assert find_triangle(g, budget=10 ** 6) is None

    def test_exhaustion_raises_instead_of_holds(self, petersen):
        with pytest.raises(SearchBudgetExceeded):
            find_wheel(petersen, 3, budget=SearchBudget(5))

    def test_limit_is_exact(self, petersen):
        # a finished search fits a limit of exactly its node count; one
        # node less raises on the first node past it
        full = SearchBudget()
        assert find_wheel(petersen, 3, budget=full) is None
        assert full.nodes > 1
        assert find_wheel(petersen, 3, budget=SearchBudget(full.nodes)) is None
        b = SearchBudget(full.nodes - 1)
        with pytest.raises(SearchBudgetExceeded) as exc:
            find_wheel(petersen, 3, budget=b)
        assert b.nodes == exc.value.nodes == b.limit + 1

    def test_many_small_searches_obey_the_limit(self):
        # the wheel search on g4 spends its budget in many small steps,
        # refinement rounds of its orbit step and then kernel calls,
        # none of which reaches the limit on its own
        g4, _ = build_graft(4)
        b = SearchBudget(5000)
        with pytest.raises(SearchBudgetExceeded) as exc:
            find_wheel(g4.graph, 3, budget=b)
        assert b.nodes == exc.value.nodes == 5001

    def test_shared_budget_accumulates(self, petersen):
        b = SearchBudget(10 ** 6)
        find_triangle(petersen, budget=b)
        after_first = b.nodes
        assert after_first > 0
        find_theta(petersen, budget=b)
        assert b.nodes > after_first


class TestIsClean:
    def c5_graft(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        return Graft(g, frozenset({1, 4}))

    def test_all_hold_on_clean_input(self):
        rep = is_clean(self.c5_graft())
        assert rep.all_hold
        labels = [label for label, _ in rep.items()]
        assert labels == [
            "(1) triangle-free", "(2) tips-stable", "(3) wheel-free",
            "(4) no-guarded-fan", "(5) no-mountable-path"]
        assert all(v.holds and v.witness is None for _, v in rep.items())
        assert rep.nodes == sum(v.nodes for _, v in rep.items())

    def test_adjacent_tips_flagged(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        rep = is_clean(Graft(g, frozenset({0, 1})))
        assert not rep.all_hold
        assert not rep.tips_stable.holds
        w = rep.tips_stable.witness
        assert w.kind == "stable-violation" and w.vertices == (0, 1)

    def test_each_condition_can_fail(self, wheel6):
        rep = is_clean(Graft(wheel6, frozenset()))
        assert not rep.triangle_free.holds
        assert rep.triangle_free.witness.kind == "triangle"
        assert not rep.wheel_free.holds
        assert rep.wheel_free.witness.kind == "wheel"

        p5 = Graph.from_edges(5, [(i, i + 1) for i in range(4)])
        rep2 = is_clean(Graft(p5, frozenset({0, 2, 4})))
        assert not rep2.no_mountable_path.holds

        fan = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (4, 0), (4, 1), (4, 2)])
        rep3 = is_clean(Graft(fan, frozenset({0, 3})))
        assert not rep3.no_guarded_fan.holds

    def test_shared_budget_counts_every_condition(self):
        gf = build_graft(3)[0]
        b = SearchBudget()
        rep = is_clean(gf, budget=b)
        assert rep.all_hold
        assert rep.tips_stable.nodes == len(gf.tips)
        assert rep.nodes == b.nodes

    def test_shared_budget_exhausts_across_conditions(self):
        gf = build_graft(3)[0]
        b = SearchBudget(is_clean(gf, budget=SearchBudget()).nodes - 1)
        with pytest.raises(SearchBudgetExceeded) as exc:
            is_clean(gf, budget=b)
        assert b.nodes == exc.value.nodes == b.limit + 1

    def test_int_budget_gives_each_condition_its_own(self):
        rep = is_clean(self.c5_graft(), budget=10 ** 5)
        assert rep.all_hold
        assert rep.nodes > 0

    def test_witnesses_replay(self, wheel6):
        rep = is_clean(Graft(wheel6, frozenset()))
        for _, v in rep.items():
            if v.witness is not None:
                assert validate_witness(wheel6, frozenset(), v.witness)


def walk_agrees(gf):
    """Check is_clean's (4) and (5), decided from one apex walk, against
    find_guarded_fan and find_mountable_path; return their witnesses."""
    fan, path = find_guarded_fan(gf), find_mountable_path(gf)
    b = SearchBudget()
    rep = is_clean(gf, budget=b)
    v4, v5 = rep.no_guarded_fan, rep.no_mountable_path
    assert (v4.holds, v4.witness) == (fan is None, fan)
    assert (v5.holds, v5.witness) == (path is None, path)
    assert rep.nodes == b.nodes
    if fan is None:
        # the walk decided both
        assert v5.nodes == 0
    return fan, path


def fans_and_paths(grafts):
    """How many of grafts have a guarded fan, and a mountable path."""
    fans = paths = 0
    for gf in grafts:
        fan, path = walk_agrees(gf)
        fans += fan is not None
        paths += path is not None
    return fans, paths


class TestApexWalk:
    def test_gate_grafts(self):
        fans, paths = fans_and_paths(gate_grafts())
        assert fans >= 100 and paths >= 100

    def test_random_grafts(self):
        rng = random.Random(15)
        grafts = []
        for _ in range(1500):
            n = rng.randint(2, 12)
            g = make_random_graph(rng, n, p=rng.uniform(0.1, 0.6))
            tips = rng.sample(range(n), rng.randint(0, min(6, n)))
            grafts.append(Graft(g, frozenset(tips)))
        fans, paths = fans_and_paths(grafts)
        assert fans >= 300 and paths >= 300

    def test_fuzz_grafts_with_an_edge(self):
        rng = random.Random(16)
        grafts = []
        for seed in range(200):
            gf = run_sequence(generate_sequence(seed, 8, 40)).final
            u, v = rng.sample(range(gf.n), 2)
            adj = list(gf.graph.adj)
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            grafts.append(Graft(Graph.from_adj(adj), gf.tips))
        fans, paths = fans_and_paths(grafts)
        assert fans >= 10 and paths >= 10

    def test_two_fans(self):
        # four tips, but no path runs through three of them
        fan, path = walk_agrees(two_fans())
        assert fan.center == 4 and path is None

    def test_two_tips_leave_the_apex_out(self):
        # the apex then has two neighbours on any path, so is no pivot
        rng = random.Random(17)
        grafts = []
        for _ in range(300):
            n = rng.randint(2, 12)
            g = make_random_graph(rng, n, p=rng.uniform(0.1, 0.6))
            grafts.append(Graft(g, frozenset(rng.sample(range(n), 2))))
        fans, paths = fans_and_paths(grafts)
        assert fans >= 30 and paths == 0
        # so the mountable-path search spends nothing, and (4) walks as
        # the guarded-fan search does
        for gf in grafts:
            fan, path = SearchBudget(), SearchBudget()
            find_guarded_fan(gf, budget=fan)
            find_mountable_path(gf, budget=path)
            assert path.nodes == 0
            assert is_clean(gf).no_guarded_fan.nodes == fan.nodes

    def test_fan_and_mountable_path_together(self):
        # 0-1-2-3-4 runs through three tips, and 5 guards it
        g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4),
                                 (5, 0), (5, 2), (5, 4)])
        fan, path = walk_agrees(Graft(g, frozenset({0, 2, 4})))
        assert fan.center == 5 and fan.vertices == (0, 1, 2, 3, 4)
        assert path.vertices == (0, 1, 2, 3, 4)

    def test_each_alone_and_neither(self):
        p5 = Graph.from_edges(5, [(i, i + 1) for i in range(4)])
        assert walk_agrees(Graft(p5, frozenset({0, 2, 4})))[0] is None
        g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4),
                                 (5, 0), (5, 2), (5, 4)])
        assert walk_agrees(Graft(g, frozenset({0, 4})))[1] is None
        # 5 sees only 1 and 3 of any tip-to-tip path: the walk finds
        # nothing, and its nodes count on (4) alone
        g = Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4),
                                 (5, 1), (5, 3), (5, 6)])
        rep = is_clean(Graft(g, frozenset({0, 4})))
        assert rep.all_hold
        assert rep.no_guarded_fan.nodes > 0 == rep.no_mountable_path.nodes


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(4, 9))
def test_hole_witnesses_always_validate(seed, n):
    g = make_random_graph(random.Random(seed), n)
    for w in find_hole(g):
        assert validate_witness(g, None, w)
        assert len(w.vertices) >= 4


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_detectors_are_deterministic(seed):
    g = make_random_graph(random.Random(seed), 8)
    assert find_wheel(g, 3) == find_wheel(g, 3)
    assert find_theta(g) == find_theta(g)
    assert holes(g) == holes(g)
