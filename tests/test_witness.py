"""Witness replay: validate_witness accepts exactly the real patterns.

Every kind gets a positive instance and a corrupted variant; the
validator must be usable as an independent check on detector output, so
it cannot trust any field.
"""

import pytest

from burling import Graph, Witness, validate_witness, InvalidArgumentError

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


def test_hole_needs_chordless_cycle():
    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert validate_witness(c4, None, w("hole", (0, 1, 2, 3)))
    assert not validate_witness(c4, None, w("hole", (0, 2, 1, 3)))
    chorded = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    assert not validate_witness(chorded, None, w("hole", (0, 1, 2, 3)))
    # triangles are not holes
    k3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert not validate_witness(k3, None, w("hole", (0, 1, 2)))


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


def test_theta():
    # K23: branches 0,1; paths through 2,3,4
    g = Graph.from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
    paths = ((0, 2, 1), (0, 3, 1), (0, 4, 1))
    assert validate_witness(g, None, w("theta", (0, 1), paths=paths))
    # adjacent branch vertices cannot form a theta
    g2 = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4),
                              (1, 2), (1, 3), (1, 4)])
    assert not validate_witness(g2, None, w("theta", (0, 1), paths=paths))


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


def test_guarded_fan_needs_tip_endpoints():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (4, 0), (4, 1), (4, 2)])
    wit = w("guarded-fan", (0, 1, 2, 3), center=4, k=3, hits=(0, 1, 2))
    assert validate_witness(g, frozenset({0, 3}), wit)
    assert not validate_witness(g, frozenset({0}), wit)
    assert not validate_witness(g, frozenset(), wit)


def test_mountable_path_counts_tips():
    wit = w("mountable-path", (0, 1, 2, 3), hits=(0, 2, 3))
    assert validate_witness(P6, frozenset({0, 2, 3}), wit)
    # claimed hits must be the on-path tips exactly
    assert not validate_witness(P6, frozenset({0, 2}), wit)
    assert not validate_witness(P6, frozenset({0, 1, 2, 3}), wit)


def test_stable_violation():
    g = Graph.from_edges(3, [(0, 1)])
    assert validate_witness(g, frozenset({0, 1}), w("stable-violation", (0, 1)))
    assert not validate_witness(g, frozenset({0, 2}), w("stable-violation", (0, 2)))


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
