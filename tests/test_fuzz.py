"""Fuzzer: determinism, legality, closure, and failure replay plumbing."""

import pytest

import burling.fuzz
from burling import FormatError, Graph, Graft, InvalidArgumentError, is_clean
from burling.fuzz import (
    generate_sequence, run_sequence, dump_failure, load_sequence,
    FuzzSequence, DEFAULT_MAX_VERTICES,
)


def test_same_seed_same_sequence():
    a = generate_sequence(99, 8)
    b = generate_sequence(99, 8)
    assert a.ops == b.ops
    assert a.sides.keys() == b.sides.keys()
    for name in a.sides:
        assert a.sides[name].graph == b.sides[name].graph
        assert a.sides[name].tips == b.sides[name].tips


def test_different_seeds_differ_somewhere():
    scripts = {generate_sequence(seed, 8).script() for seed in range(20)}
    assert len(scripts) > 5


def test_sequences_stay_legal_and_clean():
    for seed in range(50):
        seq = generate_sequence(seed, 8)
        res = run_sequence(seq)
        assert res.ok, f"seed {seed} failed at step {res.failed_at}"
        assert res.final.n <= DEFAULT_MAX_VERTICES
        assert len(res.reports) == len(seq.ops)
        assert all(rep.all_hold for rep in res.reports)


def test_join_ops_are_exercised():
    kinds = set()
    for seed in range(60):
        kinds.update(op[0] for op in generate_sequence(seed, 8).ops)
    assert kinds == {"pendent", "clone", "join"}


def test_vertex_cap_respected():
    for seed in range(20):
        seq = generate_sequence(seed, 30, max_vertices=25)
        assert run_sequence(seq).final.n <= 25


def test_script_round_trip_replays(tmp_path):
    seq = None
    for seed in range(60):
        seq = generate_sequence(seed, 8)
        if any(op[0] == "join" for op in seq.ops):
            break
    assert any(op[0] == "join" for op in seq.ops)
    path = dump_failure(seq, str(tmp_path))
    replayed = load_sequence(path, seq.seed)
    assert len(replayed.ops) == len(seq.ops)
    a = run_sequence(seq).final
    b = run_sequence(replayed).final
    assert a.graph == b.graph
    assert a.tips == b.tips


def test_dump_replays_side_in_subdirectory(tmp_path):
    side = Graft(Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)]), frozenset({0}))
    seq = FuzzSequence(seed=3, ops=(("join", (1,), "sub/tri side.graph"),),
                       sides={"sub/tri side.graph": side})
    path = dump_failure(seq, str(tmp_path / "dump"))
    assert (tmp_path / "dump" / "sub" / "tri side.graph").is_file()
    replayed = load_sequence(path, seq.seed)
    assert replayed == seq
    assert run_sequence(replayed).failed_at == 0


def test_dump_rejects_side_outside_dump_dir(tmp_path):
    side = Graft(Graph.from_edges(2, [(0, 1)]), frozenset({1}))
    seq = FuzzSequence(seed=0, ops=(("join", (1,), "../out.graph"),),
                       sides={"../out.graph": side})
    with pytest.raises(FormatError, match="outside the script's directory"):
        dump_failure(seq, str(tmp_path / "dump"))
    assert not (tmp_path / "out.graph").exists()


def test_hand_built_sequences_run():
    # clone then join a two-tip cherry: yields a C4 graft, still clean
    g = Graph.from_edges(3, [(0, 1), (0, 2)])
    side = Graft(g, frozenset({1, 2}))
    seq = FuzzSequence(seed=0, ops=(
        ("clone", 1),
        ("join", (1, 2), "side0.graph"),
    ), sides={"side0.graph": side})
    res = run_sequence(seq)
    assert res.ok
    assert res.final.n == 4
    assert len(next(iter(res.reports)).items()) == 5


def test_is_clean_called_once_per_step(monkeypatch):
    # run_sequence must certify through the module global
    # burling.fuzz.is_clean: perfbench wraps that name to time each step
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return is_clean(*args, **kwargs)

    monkeypatch.setattr(burling.fuzz, "is_clean", counting)
    seq = generate_sequence(3, 8)
    run_sequence(seq)
    assert len(calls) == len(seq.ops)


def test_empty_sequence_reports():
    res = run_sequence(FuzzSequence(seed=0, ops=()))
    assert res.reports == []
    assert res.ok and res.final.n == 2


def test_unknown_op_rejected():
    with pytest.raises(InvalidArgumentError):
        run_sequence(FuzzSequence(seed=0, ops=(("graft", 1),)))
    with pytest.raises(InvalidArgumentError, match="x.graph"):
        run_sequence(FuzzSequence(0, (("join", (1,), "x.graph"),)))


def test_per_step_reports_would_catch_a_bad_state():
    # the ops cannot produce this state from the clean seed; certify the
    # report shape on a directly built dirty graft instead
    tri = Graft(Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)]), frozenset())
    rep = is_clean(tri)
    assert not rep.all_hold
    assert rep.triangle_free.witness is not None
