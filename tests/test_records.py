"""The value types: what a fresh import loads, the record contract
(equality, hashing, repr, immutability, pickling) every one of them keeps,
and the plain constructors the record base writes."""

import copy
import inspect
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from burling import (
    ChromaticCertificate, Coloring, ConstructionTrace, CleanReport, Graft,
    Graph, LevelTrace, OpRecord, StablePair, Verdict, Witness,
)
from burling.fuzz import FuzzResult, FuzzSequence
from burling.graph import _Record

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_loads_no_heavy_modules():
    # -S: a site hook may preload typing and would hide a regression
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); "
             "import burling, burling.cli; "
             "print(' '.join(m for m in ('dataclasses', 'inspect', 'typing') "
             "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-S", "-c", probe, str(SRC)],
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == []


PATH3 = Graph(3, (2, 5, 2))
WITNESS = Witness("wheel", (0, 4, 3, 2, 1), center=5, k=3, hits=(0, 1, 2))
VERDICT = Verdict(False, WITNESS, 12)
OP = OpRecord("join", (5, 6), {0: 1, 1: 3}, None, (1, 3))
LEVEL = LevelTrace(1, (OpRecord("clone", (2,), target=1),), (), (),
                   (("base", 0),))

# each class with field keywords, in field order
CASES = [
    (Graph, {"n": 3, "adj": (2, 5, 2)}),
    (Graft, {"graph": PATH3, "tips": frozenset({0, 2})}),
    (Witness, {"kind": "theta", "vertices": (0, 4), "center": None, "k": 0,
               "hits": (), "paths": ((0, 1, 4), (0, 2, 4), (0, 3, 4))}),
    (OpRecord, {"op": "join", "created": (5, 6), "identified": {0: 1},
                "target": None, "x": (1,)}),
    (StablePair, {"graph": PATH3, "stables": (frozenset({0, 2}),)}),
    (LevelTrace, {"level": 1, "template_records": LEVEL.template_records,
                  "host_records": (), "join_records": (),
                  "provenance": (("base", 0),)}),
    (ConstructionTrace, {"k": 1, "levels": (LEVEL,)}),
    (Coloring, {"colors": (0, 1, 0)}),
    (ChromaticCertificate, {"chi": 2, "witness": Coloring((0, 1, 0)),
                            "lower_bound_proof": "edge"}),
    (Verdict, {"holds": False, "witness": WITNESS, "nodes": 12}),
    (CleanReport, dict.fromkeys(
        ("triangle_free", "tips_stable", "wheel_free", "no_guarded_fan",
         "no_mountable_path"), Verdict(True, None, 3))),
    (FuzzSequence, {"seed": 0, "ops": (("clone", 1),), "sides": {}}),
    (FuzzResult, {"final": Graft(PATH3, {1}), "reports": [],
                  "failed_at": None}),
]


@pytest.mark.parametrize("cls, kw", CASES, ids=[c.__name__ for c, _ in CASES])
def test_record_contract(cls, kw):
    a = cls(**kw)
    assert cls(*kw.values()) == a
    b = cls(**copy.deepcopy(kw))
    assert b == a and not b != a
    try:
        hash(tuple(kw.values()))
    except TypeError:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(b) == hash(a)

    # a class with the same name, fields and constructor is still another class
    twin = type(cls.__name__, (_Record,),
                {"__slots__": cls.__slots__, "__init__": cls.__init__})(**kw)
    assert twin != a and a != twin

    field = next(iter(kw))
    with pytest.raises(AttributeError):
        setattr(a, field, kw[field])
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert getattr(a, field) == kw[field]

    assert pickle.loads(pickle.dumps(a)) == a
    assert copy.copy(a) == a

    if cls not in (Graph, Graft):
        fields = ", ".join(f"{f}={getattr(a, f)!r}" for f in kw)
        assert repr(a) == f"{cls.__name__}({fields})"


def test_record_reprs_pinned():
    assert repr(WITNESS) == (
        "Witness(kind='wheel', vertices=(0, 4, 3, 2, 1), center=5, k=3, "
        "hits=(0, 1, 2), paths=())")
    assert repr(VERDICT) == (
        "Verdict(holds=False, witness=Witness(kind='wheel', "
        "vertices=(0, 4, 3, 2, 1), center=5, k=3, hits=(0, 1, 2), "
        "paths=()), nodes=12)")
    assert repr(OP) == ("OpRecord(op='join', created=(5, 6), "
                        "identified={0: 1, 1: 3}, target=None, x=(1, 3))")


# the constructors the record base writes, with their parameters as the
# hand-written ones had them: (name, default or EMPTY), in order
EMPTY = inspect.Parameter.empty
PLAIN = [
    (OpRecord, [("op", EMPTY), ("created", EMPTY), ("identified", None),
                ("target", None), ("x", ())]),
    (LevelTrace, [("level", EMPTY), ("template_records", EMPTY),
                  ("host_records", EMPTY), ("join_records", EMPTY),
                  ("provenance", EMPTY)]),
    (ConstructionTrace, [("k", EMPTY), ("levels", EMPTY)]),
    (ChromaticCertificate, [("chi", EMPTY), ("witness", EMPTY),
                            ("lower_bound_proof", EMPTY)]),
    (Verdict, [("holds", EMPTY), ("witness", EMPTY), ("nodes", EMPTY)]),
    (CleanReport, [(f, EMPTY) for f in (
        "triangle_free", "tips_stable", "wheel_free", "no_guarded_fan",
        "no_mountable_path")]),
    (FuzzResult, [("final", EMPTY), ("reports", EMPTY), ("failed_at", None)]),
]


@pytest.mark.parametrize("cls, params", PLAIN,
                         ids=[c.__name__ for c, _ in PLAIN])
def test_generated_constructor(cls, params):
    sig = inspect.signature(cls)
    assert [(p.name, p.default) for p in sig.parameters.values()] == params
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD
               for p in sig.parameters.values())
    assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
    assert cls.__init__.__module__ == cls.__module__

    required = [name for name, default in params if default is EMPTY]
    with pytest.raises(TypeError):
        cls(*range(len(required) - 1))
    with pytest.raises(TypeError):
        cls(*range(len(required)), no_such_field=1)
    a = cls(*range(len(required)))
    assert [getattr(a, name) for name in required] == list(range(len(required)))
    for name, default in params[len(required):]:
        assert getattr(a, name) == default

    with pytest.raises(TypeError, match="no_such_field"):
        type(cls.__name__, (_Record,), {"__slots__": cls.__slots__},
             no_such_field=1)
