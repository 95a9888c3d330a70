"""Randomized operation sequences for stress-testing the closure laws.

Starting from the one-tip K2 seed, a seeded RNG picks legal pendent,
clone, and join steps (join sides are grown to the right tip arity from
their own K2 seeds), each stepped in place on one row list and tip set
by `ops.apply_op`. `run_sequence` freezes and certifies the graft after
every step with `is_clean` and stops at the first that is not clean.
Every run is reproducible from its seed, and any failing sequence can be
dumped as a script plus side-graft files that `load_sequence` reads back
verbatim.
"""

from __future__ import annotations

import os
import random

from .build import _seed_graft
from .graph import Graft, _Record, _set
from .io import dump_graft, format_script, load_graft, parse_script
from .ops import _freeze, _thaw, apply_op
from .patterns import CleanReport, is_clean
from .errors import FormatError, InvalidArgumentError

__all__ = [
    "FuzzSequence", "FuzzResult", "generate_sequence", "run_sequence",
    "dump_failure", "load_sequence", "DEFAULT_MAX_VERTICES",
]

DEFAULT_MAX_VERTICES = 40


class FuzzSequence(_Record):
    """Op descriptors plus the side grafts the joins refer to.

    ops entries are ("pendent", t), ("clone", t), or
    ("join", (x0, x1, ...), side_name). sides defaults to a new empty
    dict.
    """

    __slots__ = ("seed", "ops", "sides")

    def __init__(self, seed: int, ops: tuple, sides: dict | None = None):
        _set(self, "seed", seed)
        _set(self, "ops", ops)
        _set(self, "sides", {} if sides is None else sides)

    def script(self) -> str:
        return format_script(self.ops)


class FuzzResult(_Record, failed_at=None):
    __slots__ = ("final", "reports", "failed_at")

    @property
    def ok(self) -> bool:
        return self.failed_at is None


def _grow_side(rng: random.Random, arity: int) -> Graft:
    adj, tips = _thaw(_seed_graft())
    while len(tips) < arity:
        apply_op(adj, tips, ("clone", rng.choice(sorted(tips))))
    for _ in range(rng.randint(0, 2)):
        apply_op(adj, tips, ("pendent", rng.choice(sorted(tips))))
    return _freeze(adj, tips)


def _pick_join(rng: random.Random, adj: list[int], tips: set[int], room: int):
    # group tips by adjacency row; homogeneous targets come from one group
    groups: dict[int, list[int]] = {}
    for t in sorted(tips):
        groups.setdefault(adj[t], []).append(t)
    pools = list(groups.values())
    grp = pools[rng.randrange(len(pools))]
    size = rng.randint(1, min(3, len(grp)))
    side = _grow_side(rng, size)
    if side.n - size > room:
        return None
    xs = tuple(sorted(rng.sample(grp, size)))
    return xs, side


def generate_sequence(seed: int, length: int = 8,
                      max_vertices: int = DEFAULT_MAX_VERTICES) -> FuzzSequence:
    """Deterministically generate a legal op sequence from a seed."""
    if length < 1:
        raise InvalidArgumentError("length must be positive")
    rng = random.Random(seed)
    adj, tips = _thaw(_seed_graft())
    ops = []
    sides: dict[str, Graft] = {}
    for _ in range(length):
        kind = rng.choice(("pendent", "clone", "clone", "join"))
        if kind == "join":
            picked = _pick_join(rng, adj, tips, max_vertices - len(adj))
            if picked is None:
                kind = "clone"
        if kind == "join":
            xs, side = picked
            name = f"side{len(sides)}.graph"
            sides[name] = side
            ops.append(("join", xs, name))
        elif len(adj) + 1 > max_vertices:
            break
        else:
            ops.append((kind, rng.choice(sorted(tips))))
        apply_op(adj, tips, ops[-1], sides)
    return FuzzSequence(seed=seed, ops=tuple(ops), sides=sides)


def run_sequence(seq: FuzzSequence, budget=None) -> FuzzResult:
    """Apply the ops in place, freezing and certifying the graft after
    each step, and stop at the first step that is not clean. The final
    graft of an empty sequence is the seed, with no report."""
    adj, tips = _thaw(_seed_graft())
    reports: list[CleanReport] = []
    for i, op in enumerate(seq.ops):
        apply_op(adj, tips, op, seq.sides)
        gf = _freeze(adj, tips)
        reports.append(is_clean(gf, budget=budget))
        if not reports[-1].all_hold:
            return FuzzResult(gf, reports, failed_at=i)
    return FuzzResult(_freeze(adj, tips), reports)


def _side_path(base: str, name: str) -> str:
    """The real path of side graft ``name`` in directory ``base``; a
    name that resolves outside base raises FormatError."""
    base = os.path.realpath(base)
    side = os.path.realpath(os.path.join(base, name))
    if os.path.commonpath([base, side]) != base:
        raise FormatError(f"side graft @{name} lies outside "
                          "the script's directory")
    return side


def dump_failure(seq: FuzzSequence, dirpath: str) -> str:
    """Write a replayable script and its side grafts; returns script path.

    A side name is a path inside dirpath, as load_sequence reads it:
    its directories are created, and a name outside dirpath raises
    FormatError.
    """
    os.makedirs(dirpath, exist_ok=True)
    for name, side in seq.sides.items():
        side_path = _side_path(dirpath, name)
        os.makedirs(os.path.dirname(side_path), exist_ok=True)
        with open(side_path, "w") as fh:
            dump_graft(side, fh, name=name.rsplit(".", 1)[0])
    path = os.path.join(dirpath, f"seq-{seq.seed}.ops")
    with open(path, "w") as fh:
        fh.write(seq.script())
    return path


def load_sequence(path: str, seed: int = 0) -> FuzzSequence:
    """Read a script written by dump_failure, with its side grafts.

    A @side path must resolve inside the script's directory.
    """
    with open(path) as fh:
        ops = tuple(parse_script(fh.read()))
    base = os.path.dirname(os.path.abspath(path))
    sides: dict[str, Graft] = {}
    for op in ops:
        if op[0] == "join" and op[2] not in sides:
            with open(_side_path(base, op[2])) as fh:
                sides[op[2]] = load_graft(fh)
    return FuzzSequence(seed=seed, ops=ops, sides=sides)
