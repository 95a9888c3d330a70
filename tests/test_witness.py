"""Witness replay: validate_witness accepts exactly the real patterns.

Every kind gets a positive instance and a corrupted variant; the
validator must be usable as an independent check on detector output, so
it cannot trust any field.
"""

import hashlib
import random
from collections import Counter

import pytest

from burling import (
    Graph, Witness, validate_witness, BurlingError, InvalidArgumentError,
    WITNESS_KINDS,
)
from burling import oracle

from conftest import make_random_graph, make_random_graft

P6 = Graph.from_edges(6, [(i, i + 1) for i in range(5)])


def w(kind, vertices, **kw):
    return Witness(kind, tuple(vertices), **kw)


def test_unknown_kind_rejected():
    with pytest.raises(InvalidArgumentError):
        Witness("pentagon", (0, 1, 2))


def test_triangle():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    assert validate_witness(g, None, w("triangle", (0, 1, 2)))
    assert not validate_witness(g, None, w("triangle", (0, 1, 3)))
    assert not validate_witness(g, None, w("triangle", (0, 0, 1)))
    # a path's ends are not adjacent
    assert not validate_witness(P6, None, w("triangle", (0, 1, 2)))


def test_hole_needs_chordless_cycle():
    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert validate_witness(c4, None, w("hole", (0, 1, 2, 3)))
    assert not validate_witness(c4, None, w("hole", (0, 2, 1, 3)))
    chorded = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    assert not validate_witness(chorded, None, w("hole", (0, 1, 2, 3)))
    # triangles are not holes
    k3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert not validate_witness(k3, None, w("hole", (0, 1, 2)))
    # nor are paths
    assert not validate_witness(P6, None, w("hole", (0, 1, 2, 3)))


def test_wheel(wheel6):
    rim = (0, 4, 3, 2, 1)
    assert validate_witness(
        wheel6, None, w("wheel", rim, center=5, k=3, hits=(0, 1, 2)))
    # wrong hits list
    assert not validate_witness(
        wheel6, None, w("wheel", rim, center=5, k=3, hits=(0, 1, 3)))
    # hub on the rim is no wheel
    assert not validate_witness(
        wheel6, None, w("wheel", (0, 1, 2, 3), center=2, k=3, hits=(1, 2, 3)))
    # a chord on the rim
    chorded = Graph.from_edges(7, [(i, (i + 1) % 6) for i in range(6)]
                               + [(0, 3), (6, 0), (6, 2), (6, 4)])
    assert not validate_witness(chorded, None, w(
        "wheel", range(6), center=6, k=3, hits=(0, 2, 4)))


def test_theta():
    # K23: branches 0,1; paths through 2,3,4
    g = Graph.from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
    paths = ((0, 2, 1), (0, 3, 1), (0, 4, 1))
    assert validate_witness(g, None, w("theta", (0, 1), paths=paths))
    # adjacent branch vertices cannot form a theta
    g2 = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4),
                              (1, 2), (1, 3), (1, 4)])
    assert not validate_witness(g2, None, w("theta", (0, 1), paths=paths))
    # two paths, a path that stops short of b, a repeated path
    assert not validate_witness(g, None, w("theta", (0, 1), paths=paths[:2]))
    assert not validate_witness(g, None, w(
        "theta", (0, 1), paths=paths[:2] + ((0, 4),)))
    assert not validate_witness(g, None, w(
        "theta", (0, 1), paths=(paths[0], paths[0], paths[1])))


def test_theta_rejects_cross_edges():
    edges = [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1), (2, 3)]
    g = Graph.from_edges(5, edges)
    paths = ((0, 2, 1), (0, 3, 1), (0, 4, 1))
    assert not validate_witness(g, None, w("theta", (0, 1), paths=paths))


def test_fan():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (4, 0), (4, 1), (4, 2)])
    assert validate_witness(
        g, None, w("fan", (0, 1, 2, 3), center=4, k=3, hits=(0, 1, 2)))
    assert not validate_witness(
        g, None, w("fan", (0, 1, 2, 3), center=4, k=4, hits=(0, 1, 2)))
    # no centre; a wrong hits list
    assert not validate_witness(
        g, None, w("fan", (0, 1, 2, 3), k=3, hits=(0, 1, 2)))
    assert not validate_witness(
        g, None, w("fan", (0, 1, 2, 3), center=4, k=3, hits=(0, 1, 3)))


def test_guarded_fan_needs_tip_endpoints():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (4, 0), (4, 1), (4, 2)])
    wit = w("guarded-fan", (0, 1, 2, 3), center=4, k=3, hits=(0, 1, 2))
    assert validate_witness(g, frozenset({0, 3}), wit)
    assert not validate_witness(g, frozenset({0}), wit)
    assert not validate_witness(g, frozenset(), wit)
    assert not validate_witness(g, None, wit)


def test_mountable_path_counts_tips():
    wit = w("mountable-path", (0, 1, 2, 3), hits=(0, 2, 3))
    assert validate_witness(P6, frozenset({0, 2, 3}), wit)
    # claimed hits must be the on-path tips exactly
    assert not validate_witness(P6, frozenset({0, 2}), wit)
    assert not validate_witness(P6, frozenset({0, 1, 2, 3}), wit)
    assert not validate_witness(P6, None, wit)


def test_stable_violation():
    g = Graph.from_edges(3, [(0, 1)])
    assert validate_witness(g, frozenset({0, 1}), w("stable-violation", (0, 1)))
    assert not validate_witness(g, frozenset({0, 2}), w("stable-violation", (0, 2)))
    assert not validate_witness(g, None, w("stable-violation", (0, 1)))


def test_repeated_path_vertex_is_rejected_not_raised():
    p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert not validate_witness(
        p4, None, w("fan", (0, 1, 0), center=3, hits=(0,)))
    assert not validate_witness(
        p4, frozenset({0}), w("guarded-fan", (0, 1, 0), center=3, hits=(0,)))
    assert not validate_witness(
        p4, frozenset({0, 1}), w("mountable-path", (0, 1, 0), hits=(0,)))
    k23 = Graph.from_edges(5, [(0, 2), (0, 3), (0, 4),
                               (1, 2), (1, 3), (1, 4)])
    paths = ((0, 2, 2, 1), (0, 3, 1), (0, 4, 1))
    assert not validate_witness(k23, None, w("theta", (0, 1), paths=paths))


def test_out_of_range_vertices_raise():
    from burling import InvalidVertexError
    g = Graph.from_edges(3, [(0, 1)])
    with pytest.raises(InvalidVertexError):
        validate_witness(g, None, w("triangle", (0, 1, 7)))


def _variants(rng, wit, n):
    """The witness, then its corruptions: the order reversed, rotated,
    cut short, extended by a random vertex (out of range one time in
    n + 1) or by its first vertex, two of its vertices swapped, k + 2,
    one hit dropped or added, the centre moved, cleared or put on the
    shape, the same fields under every other kind, and for a theta two
    paths, a repeated path or a path cut short."""
    vs, hits, paths = wit.vertices, wit.hits, wit.paths

    def as_(**change):
        fields = {"kind": wit.kind, "vertices": vs, "center": wit.center,
                  "k": wit.k, "hits": hits, "paths": paths}
        return Witness(**{**fields, **change})

    swapped = list(vs)
    i, j = rng.sample(range(len(vs)), 2)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    drop = rng.randrange(len(hits)) if hits else 0
    out = [wit, as_(vertices=vs[::-1]), as_(vertices=vs[1:] + vs[:1]),
           as_(vertices=vs[:-1]), as_(vertices=vs + (rng.randrange(n + 1),)),
           as_(vertices=vs + vs[:1]), as_(vertices=swapped), as_(k=wit.k + 2),
           as_(hits=hits[:drop] + hits[drop + 1:]),
           as_(hits=hits + (rng.randrange(n),)),
           as_(center=rng.randrange(n)), as_(center=None),
           as_(center=vs[rng.randrange(len(vs))])]
    out += [as_(kind=kd) for kd in WITNESS_KINDS if kd != wit.kind]
    if paths:
        out += [as_(paths=paths[:2]), as_(paths=(paths[0],) * 2 + paths[1:2]),
                as_(paths=paths[:2] + (paths[2][:-1],))]
    return out


def test_verdicts_pinned():
    # sha256 of every verdict (or exception name) over the oracle's
    # witnesses on a seeded corpus and their corruptions, each under the
    # graph's tips and, where it has some, under None; frozen so a
    # rewrite of the validator must return every verdict unchanged
    rng = random.Random(71)
    lines = []
    tally = Counter()
    for i in range(1000):
        k = rng.choice((3, 4, 5))
        if i % 3 == 2:
            gf = make_random_graft(rng, 10)
            g, tips = gf.graph, gf.tips
        else:
            g = make_random_graph(rng, rng.randint(1, 10))
            tips = None if i % 3 == 0 else frozenset()
        kinds = oracle._KINDS if tips is not None else oracle._KINDS[:5]
        found = oracle._first_witnesses(g, tips, kinds, k).values()
        wits = [wt for wt in found if wt is not None]
        if tips is not None:
            ts = sorted(tips)
            wits += [Witness("stable-violation", (u, v)) for u in ts
                     for v in ts if u < v and g.adj[u] >> v & 1]
        for wit in wits:
            for var in _variants(rng, wit, g.n):
                for t in dict.fromkeys((tips, None)):
                    try:
                        out = validate_witness(g, t, var)
                    except BurlingError as e:
                        out = type(e).__name__
                    lines.append(f"{var!r}|{t is None}|{out}")
                    tally[var.kind, out] += 1
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == (
        "0c004fccfd59d90ad54e68117f0cfd213a900e2db449e229fd4b5c960e4c6718")
    counts = {kind: tuple(tally[kind, out] for out in
                          (True, False, "InvalidVertexError"))
              for kind in WITNESS_KINDS}
    assert counts == {
        "triangle": (7700, 4250, 85), "hole": (5346, 3951, 74),
        "wheel": (1002, 4898, 27), "theta": (1575, 4577, 18),
        "fan": (1156, 6270, 37), "guarded-fan": (210, 3939, 14),
        "mountable-path": (368, 3709, 14),
        "stable-violation": (1900, 5427, 28)}
    assert sum(tally.values()) == len(lines) == 56575
