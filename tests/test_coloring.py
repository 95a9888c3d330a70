"""Coloring: exact solver vs brute force, bounds, and the rainbow search."""

import itertools
import random

import pytest

from burling import (
    Graph, Graft, CapError, InvalidArgumentError,
    Coloring, is_proper, chromatic_number, bounds_only,
    find_non_rainbow_coloring, build_graft, burling_pair,
)

from conftest import make_random_graph


def brute_chi(g: Graph) -> int:
    if g.n == 0:
        return 0
    for c in range(1, g.n + 1):
        for assign in itertools.product(range(c), repeat=g.n):
            if all(assign[u] != assign[v] for u, v in g.edges()):
                return c
    raise AssertionError("unreachable")


# The search must backtrack here and undo both its neighbor-color and its
# tip-color masks before it finds chi = 3 and a non-rainbow 3-coloring
# for k = 3; without either undo it reports 4 or None.
BACKTRACK = Graft(Graph.from_edges(9, [
    (0, 1), (0, 4), (0, 6), (0, 8), (1, 2), (1, 3), (2, 3), (2, 7), (3, 7),
    (4, 6), (4, 8), (5, 6), (5, 7), (6, 7)]), frozenset({1, 2, 3}))


def test_coloring_normalization_enforced():
    Coloring((0, 1, 0, 2))
    Coloring(())
    with pytest.raises(InvalidArgumentError):
        Coloring((0, 2))  # color 1 skipped
    with pytest.raises(InvalidArgumentError):
        Coloring((1, 2))


def test_is_proper():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert is_proper(g, Coloring((0, 1, 0)))
    assert not is_proper(g, Coloring((0, 0, 1)))
    assert is_proper(g, (5, 9, 5))  # raw sequences allowed
    with pytest.raises(InvalidArgumentError):
        is_proper(g, (0, 1))


def test_exact_matches_brute_force():
    rng = random.Random(61)
    graphs = [make_random_graph(rng, rng.randint(0, 8)) for _ in range(80)]
    for g in graphs + [BACKTRACK.graph]:
        cert = chromatic_number(g)
        assert cert.chi == brute_chi(g)
        assert cert.witness.count == cert.chi
        assert is_proper(g, cert.witness)
        assert cert.lower_bound_proof == "exhaustive-search"


def test_known_values(c5, petersen, wheel6):
    assert chromatic_number(c5).chi == 3
    assert chromatic_number(petersen).chi == 3
    assert chromatic_number(wheel6).chi == 3
    k4 = Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert chromatic_number(k4).chi == 4
    assert chromatic_number(Graph.from_edges(0, [])).chi == 0
    assert chromatic_number(Graph.from_edges(3, [])).chi == 1


def test_cap_enforced():
    g = Graph.from_edges(70, [])
    with pytest.raises(CapError):
        chromatic_number(g)


def test_bounds_bracket_chi():
    rng = random.Random(67)
    for _ in range(60):
        g = make_random_graph(rng, rng.randint(0, 9))
        lo, hi = bounds_only(g)
        chi = chromatic_number(g).chi
        assert lo <= chi <= hi


def test_bounds_classify_easy_cases(c5):
    assert bounds_only(Graph.from_edges(0, [])) == (0, 0)
    assert bounds_only(Graph.from_edges(4, [])) == (1, 1)
    bip = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert bounds_only(bip) == (2, 2)
    lo, hi = bounds_only(c5)
    assert lo == 3 and hi >= 3


def test_bounds_scale_to_big_inputs():
    gf, _ = build_graft(4)
    lo, hi = bounds_only(gf.graph)
    assert 3 <= lo <= hi
    # the level-4 graph needs at least 5 colors, greedy stays close
    assert hi >= 5


def test_rainbow_finds_relaxed_colorings():
    gf, _ = build_graft(2)
    col = find_non_rainbow_coloring(gf, 3, 3)
    assert col is not None
    assert is_proper(gf.graph, col)
    for t in gf.tips:
        seen = {col.colors[u] for u in gf.graph.neighborhood(t)}
        assert len(seen) <= 2


def test_rainbow_respects_color_budget():
    gf, _ = build_graft(2)
    # C5 admits no proper 2-coloring at all, so none exists vacuously
    assert find_non_rainbow_coloring(gf, 2, 2) is None


def test_rainbow_none_on_g3():
    gf, _ = build_graft(3)
    assert find_non_rainbow_coloring(gf, 3, 3) is None


def test_rainbow_tip_bound_is_tight_per_tip():
    # star center as lone tip: neighborhood takes one color only
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    gf = Graft(star, frozenset({0}))
    col = find_non_rainbow_coloring(gf, 2, 2)
    assert col is not None
    leaves = {col.colors[v] for v in (1, 2, 3)}
    assert len(leaves) == 1


def brute_non_rainbow(gf: Graft, k: int, c: int) -> bool:
    g = gf.graph
    for assign in itertools.product(range(c), repeat=g.n):
        if (all(assign[u] != assign[v] for u, v in g.edges())
                and all(len({assign[u] for u in g.neighborhood(t)}) < k
                        for t in gf.tips)):
            return True
    return False


def test_rainbow_matches_brute_force():
    rng = random.Random(71)
    cases = [(BACKTRACK, 3, 3)]
    for _ in range(320):
        n = rng.randint(1, 7)
        g = make_random_graph(rng, n)
        tips = frozenset(rng.sample(range(n), rng.randint(0, min(4, n))))
        cases.append((Graft(g, tips), rng.randint(1, 4), rng.randint(1, 4)))
    found = 0
    for gf, k, c in cases:
        g = gf.graph
        col = find_non_rainbow_coloring(gf, k, c)
        assert (col is not None) == brute_non_rainbow(gf, k, c)
        if col is not None:
            found += 1
            assert is_proper(g, col) and col.count <= c
            for t in gf.tips:
                assert len({col.colors[u] for u in g.neighborhood(t)}) < k
    assert 0 < found < len(cases)


def test_rainbow_cap_and_validation():
    gf, _ = build_graft(4)
    with pytest.raises(CapError):
        find_non_rainbow_coloring(gf, 4, 4)
    small, _ = build_graft(2)
    with pytest.raises(InvalidArgumentError):
        find_non_rainbow_coloring(small, 0, 3)
    with pytest.raises(InvalidArgumentError):
        find_non_rainbow_coloring(small, 3, 0)


def test_chi_values_for_small_levels():
    g2, _ = build_graft(2)
    g3, _ = build_graft(3)
    assert chromatic_number(g2.graph).chi == 3
    assert chromatic_number(g3.graph).chi == 4
    assert chromatic_number(burling_pair(3).graph).chi == 3
