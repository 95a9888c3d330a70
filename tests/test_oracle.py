"""The subset-enumeration oracle, and detector agreement on random inputs.

The oracle is the independent ground truth for the detectors: it decides
pattern presence by checking every vertex subset against first-principles
shape recognizers, with no shared search code.
"""

import hashlib
import random

import pytest

from burling import (
    Graph, CapError, InvalidArgumentError,
    oracle_contains, oracle_scan, ORACLE_MAX,
    find_triangle, find_hole, find_wheel, find_theta, find_fan,
    find_guarded_fan, find_mountable_path, validate_witness,
)
from burling import oracle
from burling.bits import bits, mask_of

from conftest import make_random_graph, make_random_graft


def test_cap_enforced():
    g = Graph.from_edges(ORACLE_MAX + 1, [])
    with pytest.raises(CapError):
        oracle_contains(g, None, "triangle")


@pytest.mark.parametrize("k", [-1, 0, 1, 2])
def test_k_below_three_rejected(k):
    # fans and wheels need k >= 3 everywhere; with k = 0 a lone vertex
    # would count as a fan pivot on any path
    g = Graph.from_edges(4, [(0, 1), (1, 2)])
    with pytest.raises(InvalidArgumentError):
        oracle_contains(g, None, "fan", k=k)
    with pytest.raises(InvalidArgumentError):
        oracle_scan(g, k=k)
    with pytest.raises(InvalidArgumentError):
        find_fan(g, k)


def test_unknown_kind_rejected(c5):
    with pytest.raises(InvalidArgumentError):
        oracle_contains(c5, None, "square")


def test_tip_kinds_need_tips(c5):
    with pytest.raises(InvalidArgumentError):
        oracle_contains(c5, None, "mountable-path")
    assert oracle_contains(c5, frozenset(), "mountable-path") is None


def test_planted_patterns_found(wheel6, c5):
    assert oracle_contains(wheel6, None, "triangle") is not None
    assert oracle_contains(wheel6, None, "wheel") is not None
    assert oracle_contains(c5, None, "hole") is not None
    assert oracle_contains(c5, None, "triangle") is None
    assert oracle_contains(c5, None, "wheel") is None
    k23 = Graph.from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
    assert oracle_contains(k23, None, "theta") is not None
    fan = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (4, 0), (4, 1), (4, 2)])
    assert oracle_contains(fan, None, "fan") is not None
    assert oracle_contains(fan, frozenset({0, 3}), "guarded-fan") is not None
    assert oracle_contains(fan, frozenset({0}), "guarded-fan") is None
    p5 = Graph.from_edges(5, [(i, i + 1) for i in range(4)])
    assert oracle_contains(p5, frozenset({0, 2, 4}), "mountable-path") is not None


def test_oracle_witnesses_validate():
    rng = random.Random(41)
    seen = 0
    for _ in range(80):
        gf = make_random_graft(rng, 8)
        for kind in ("triangle", "hole", "wheel", "theta", "fan",
                     "guarded-fan", "mountable-path"):
            w = oracle_contains(gf.graph, gf.tips, kind)
            if w is not None:
                assert validate_witness(gf.graph, gf.tips, w)
                seen += 1
    assert seen > 50


def test_scan_matches_single_queries():
    rng = random.Random(43)
    for _ in range(50):
        gf = make_random_graft(rng, 8)
        sc = oracle_scan(gf.graph, gf.tips)
        for kind, flag in sc.items():
            assert flag == (oracle_contains(gf.graph, gf.tips, kind)
                            is not None), kind


def test_detectors_agree_with_oracle_on_random_graphs():
    rng = random.Random(47)
    for _ in range(300):
        g = make_random_graph(rng, rng.randint(1, 9))
        sc = oracle_scan(g)
        assert sc["triangle"] == (find_triangle(g) is not None)
        assert sc["hole"] == (next(find_hole(g), None) is not None)
        assert sc["wheel"] == (find_wheel(g, 3) is not None)
        assert sc["theta"] == (find_theta(g) is not None)
        assert sc["fan"] == (find_fan(g, 3) is not None)


def test_detectors_agree_with_oracle_on_random_grafts():
    rng = random.Random(53)
    for _ in range(150):
        gf = make_random_graft(rng, 9)
        sc = oracle_scan(gf.graph, gf.tips)
        assert sc["guarded-fan"] == (find_guarded_fan(gf) is not None)
        assert sc["mountable-path"] == (find_mountable_path(gf) is not None)


def test_witnesses_pinned():
    # sha256 of the witness reprs over a seeded corpus, frozen so a
    # rewrite of the shape recognizers must return every witness unchanged
    rng = random.Random(61)
    lines = []
    found = dict.fromkeys(oracle._KINDS, 0)
    for i in range(3000):
        k = rng.choice((3, 4, 5))
        if i % 3 == 2:
            gf = make_random_graft(rng, 10)
            g, tips = gf.graph, gf.tips
        else:
            g = make_random_graph(rng, rng.randint(1, 10))
            tips = None if i % 3 == 0 else frozenset()
        kinds = oracle._KINDS if tips is not None else oracle._KINDS[:5]
        ws = oracle._first_witnesses(g, tips, kinds, k)
        lines.append(repr(ws))
        for kd, w in ws.items():
            found[kd] += w is not None
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "242bd9013ec63fabb83cc07a13b4160c36101a88bdec1083df2155ea3d8c4164")
    assert found == {"triangle": 1380, "hole": 968, "wheel": 421,
                     "theta": 380, "fan": 709, "guarded-fan": 136,
                     "mountable-path": 145}


def test_wheel_k_parameter_respected(wheel6):
    assert oracle_contains(wheel6, None, "wheel", k=3) is not None
    assert oracle_contains(wheel6, None, "wheel", k=4) is None
    assert find_wheel(wheel6, 4) is None


# -- the edge screen ----------------------------------------------------------

def _unscreened(g, tips, kinds, k):
    """The oracle without its edge screen: every mask of 3 or more
    vertices goes to `_find_in_mask` for each kind still missing."""
    tip_mask = mask_of(tips or ())
    found = dict.fromkeys(kinds)
    adj = g.adj
    for mask in range(1 << g.n):
        if mask.bit_count() < 3:
            continue
        vs = bits(mask)
        degs = [(adj[v] & mask).bit_count() for v in vs]
        for kd in kinds:
            if found[kd] is None:
                found[kd] = oracle._find_in_mask(adj, mask, vs, degs, kd, k,
                                                 tip_mask)
        if None not in found.values():
            break
    return found


def test_screen_keeps_every_witness():
    # every tenth graph has up to ORACLE_MAX vertices, the rest up to 9:
    # the reference takes about 35 ms at n = 12 and 4 ms at n = 9
    rng = random.Random(59)
    graph_kinds = oracle._KINDS[:5]
    found = dict.fromkeys(oracle._KINDS, 0)
    for i in range(3000):
        n = rng.randint(1, 9 if i % 10 else ORACLE_MAX)
        g = make_random_graph(rng, n, p=rng.uniform(0.05, 0.9))
        k = rng.choice((3, 4, 5))
        shape = i % 3
        if shape == 0:
            tips = None
        elif shape == 1:
            tips = frozenset()
        else:
            tips = frozenset(rng.sample(range(n), rng.randint(1, min(5, n))))
        kinds = graph_kinds if tips is None else oracle._KINDS
        want = _unscreened(g, tips, kinds, k)
        assert oracle._first_witnesses(g, tips, kinds, k) == want, i
        for kd in kinds:
            assert oracle_contains(g, tips, kd, k) == want[kd], (i, kd)
            found[kd] += want[kd] is not None
    # every kind is found often enough for the comparison to bite
    assert min(found.values()) >= 100, found


def _path(seq):
    return list(zip(seq, seq[1:]))


def _cycle(n):
    return _path(range(n)) + [(n - 1, 0)]


@pytest.mark.parametrize("n", range(3, ORACLE_MAX + 1))
def test_screen_boundary_cycles(n):
    # e == size for triangles and holes
    g = Graph.from_edges(n, _cycle(n))
    kind = "triangle" if n == 3 else "hole"
    w = oracle_contains(g, None, kind)
    assert w is not None and set(w.vertices) == set(range(n))


@pytest.mark.parametrize("m", range(4, ORACLE_MAX))
def test_screen_boundary_full_wheels(m):
    # e == 2 * size - 2: the hub m sees the whole rim, d == k == m
    g = Graph.from_edges(m + 1, _cycle(m) + [(m, i) for i in range(m)])
    w = oracle_contains(g, None, "wheel", k=m)
    assert w is not None and w.center == m and w.k == m
    assert oracle_contains(g, None, "wheel", k=m + 1) is None


@pytest.mark.parametrize("m", range(3, ORACLE_MAX))
def test_screen_boundary_full_fans(m):
    # e == 2 * size - 3: the pivot m sees every vertex of the path
    g = Graph.from_edges(m + 1, _path(range(m)) + [(m, i) for i in range(m)])
    w = oracle_contains(g, None, "fan", k=m)
    assert w is not None and w.k == m and validate_witness(g, None, w)
    assert oracle_contains(g, None, "fan", k=m + 1) is None
    # guarded from end to end; m == 3 meets d >= 3 exactly
    w = oracle_contains(g, frozenset({0, m - 1}), "guarded-fan")
    assert w is not None and w.k == m


@pytest.mark.parametrize("n", range(3, ORACLE_MAX + 1))
def test_screen_boundary_mountable_paths(n):
    # e == size - 1
    g = Graph.from_edges(n, _path(range(n)))
    w = oracle_contains(g, frozenset({0, n // 2, n - 1}), "mountable-path")
    assert w is not None and w.vertices == tuple(range(n))


@pytest.mark.parametrize("lengths", [(1, 1, 1), (1, 1, 4), (1, 2, 3),
                                     (2, 2, 2), (3, 3, 4)])
def test_screen_boundary_thetas(lengths):
    # e == size + 1; (1, 1, 1) is K_{2,3}
    edges, n = [], 2
    for ln in lengths:
        inner = list(range(n, n + ln))
        edges += _path([0] + inner + [1])
        n += ln
    g = Graph.from_edges(n, edges)
    w = oracle_contains(g, None, "theta")
    assert w is not None and validate_witness(g, None, w)
    assert sorted(len(p) - 2 for p in w.paths) == sorted(lengths)
