"""Graft operations: pendent, clone, join."""

import pytest

from burling import (
    Graph, Graft, pendent, clone, join,
    BurlingError, TipViolationError, ArityError, HomogeneityError,
    InvalidArgumentError, InvalidVertexError,
)
from burling.ops import apply_op


def seed() -> Graft:
    return Graft(Graph.from_edges(2, [(0, 1)]), frozenset({1}))


def test_pendent_transfers_tip_status():
    gf, rec = pendent(seed(), 1)
    assert gf.n == 3
    assert gf.graph.edges() == [(0, 1), (1, 2)]
    assert gf.tips == {2}
    assert rec.op == "pendent" and rec.created == (2,) and rec.target == 1


def test_pendent_rejects_non_tip():
    with pytest.raises(TipViolationError):
        pendent(seed(), 0)


def test_clone_copies_neighborhood_and_adds_tip():
    gf, rec = clone(seed(), 1)
    assert gf.n == 3
    assert gf.graph.edges() == [(0, 1), (0, 2)]
    assert gf.tips == {1, 2}
    assert rec.created == (2,)
    # the clone is not adjacent to its original
    assert not gf.graph.has_edge(1, 2)


def test_clone_rejects_non_tip():
    with pytest.raises(TipViolationError):
        clone(seed(), 0)


def side_pair() -> Graft:
    # path 0-1, 0-2 with tips 1,2 (two leaves of a cherry)
    g = Graph.from_edges(3, [(0, 1), (0, 2)])
    return Graft(g, frozenset({1, 2}))


def host_two_tips() -> Graft:
    # 0 adjacent to tips 1 and 2; 1,2 share the neighborhood {0}
    g = Graph.from_edges(3, [(0, 1), (0, 2)])
    return Graft(g, frozenset({1, 2}))


def test_join_glues_side_onto_host():
    gf, rec = join(host_two_tips(), [1, 2], side_pair())
    # side vertex 0 lands as fresh id 3; side tips 1,2 merge onto host 1,2
    assert gf.n == 4
    assert gf.graph.edges() == [(0, 1), (0, 2), (1, 3), (2, 3)]
    assert gf.tips == {1, 2}
    assert rec.op == "join"
    assert rec.created == (3,)
    assert rec.identified == {1: 1, 2: 2}
    assert rec.x == (1, 2)


def test_join_checks_arity():
    single = Graft(Graph.from_edges(2, [(0, 1)]), frozenset({1}))
    with pytest.raises(ArityError):
        join(host_two_tips(), [1, 2], single)


def test_join_checks_tip_status_per_vertex():
    with pytest.raises(TipViolationError):
        join(host_two_tips(), [0, 1], side_pair())


def test_join_rejects_repeated_vertex():
    # the seed with tip 1 cloned twice: x = [1, 1, 2] names two distinct
    # tips, as many as the side has, but repeats one of them
    host, _ = clone(seed(), 1)
    host, _ = clone(host, 1)
    with pytest.raises(InvalidArgumentError):
        join(host, [1, 1, 2], side_pair())
    adj, tips = list(host.graph.adj), set(host.tips)
    with pytest.raises(InvalidArgumentError):
        apply_op(adj, tips, ("join", (1, 1, 2), "side"), {"side": side_pair()})
    assert adj == list(host.graph.adj) and tips == host.tips


def mixed_host() -> Graft:
    # tips 2 and 3 have different neighborhoods
    g = Graph.from_edges(4, [(0, 2), (0, 3), (1, 3)])
    return Graft(g, frozenset({2, 3}))


def test_join_checks_homogeneity():
    with pytest.raises(HomogeneityError):
        join(mixed_host(), [2, 3], side_pair())


def test_join_keeps_host_tips_only():
    # side has an extra pendant tip that must not stay a tip after the join
    side = side_pair()
    side, _ = pendent(side, 2)  # tips now {1, 3}
    host = host_two_tips()
    gf, rec = join(host, [1, 2], side)
    assert gf.tips == host.tips
    # non-identified side vertices get fresh ascending ids
    assert rec.created == (3, 4)


def test_ops_do_not_mutate_inputs():
    base = seed()
    pendent(base, 1)
    clone(base, 1)
    assert base.n == 2 and base.tips == {1}
    # compared with fresh copies, so a shared row store would show
    host, side, bad = host_two_tips(), side_pair(), mixed_host()
    join(host, [1, 2], side)
    with pytest.raises(HomogeneityError):
        join(bad, [2, 3], side)
    for got, want in ((host, host_two_tips()), (side, side_pair()),
                      (bad, mixed_host())):
        assert list(got.graph.adj) == list(want.graph.adj)
        assert got.tips == want.tips


@pytest.mark.parametrize("op", [
    ("pendent", 0), ("clone", 5), ("pendent", -1),
    ("join", (1, 2), "side"), ("join", (2, 3), "side"),
    ("join", (3,), "side"), ("join", (2,), "missing"), ("swap", 2),
])
def test_failed_step_writes_nothing(op):
    # every step runs all of its checks before its first write
    adj, tips = list(mixed_host().graph.adj), set(mixed_host().tips)
    with pytest.raises(BurlingError):
        apply_op(adj, tips, op, {"side": side_pair()})
    assert adj == list(mixed_host().graph.adj) and tips == {2, 3}


def test_out_of_range_targets_rejected():
    # a list row store reads adj[-1] as the last row; ops must not
    g = seed()
    with pytest.raises(InvalidVertexError):
        pendent(g, -1)
    with pytest.raises(InvalidVertexError):
        clone(g, g.n)
    with pytest.raises(InvalidVertexError):
        join(g, [-1], Graft(Graph.from_edges(2, [(0, 1)]), frozenset({1})))
