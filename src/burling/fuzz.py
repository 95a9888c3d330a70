"""Randomized operation sequences for stress-testing the closure laws.

Starting from the one-tip K2 seed, a seeded RNG picks legal pendent,
clone, and join steps (join sides are grown to the right tip arity from
their own K2 seeds), each applied through `ops.apply_op`. `run_sequence`
certifies the graft after every step with `is_clean` and stops at the
first that is not clean. Every run is reproducible from its seed, and
any failing sequence can be dumped as a script plus side-graft files
that `load_sequence` reads back verbatim.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

from .build import _seed_graft
from .graph import Graft
from .io import dump_graft, format_script, load_graft, parse_script
from .ops import apply_op, clone, pendent
from .patterns import CleanReport, is_clean
from .errors import FormatError, InvalidArgumentError

__all__ = [
    "FuzzSequence", "FuzzResult", "generate_sequence", "run_sequence",
    "dump_failure", "load_sequence", "DEFAULT_MAX_VERTICES",
]

DEFAULT_MAX_VERTICES = 40


@dataclass(frozen=True)
class FuzzSequence:
    """Op descriptors plus the side grafts the joins refer to.

    ops entries are ("pendent", t), ("clone", t), or
    ("join", (x0, x1, ...), side_name).
    """

    seed: int
    ops: tuple
    sides: dict = field(default_factory=dict)

    def script(self) -> str:
        return format_script(self.ops)


@dataclass
class FuzzResult:
    final: Graft
    reports: list[CleanReport]
    failed_at: int | None = None

    @property
    def ok(self) -> bool:
        return self.failed_at is None


def _grow_side(rng: random.Random, arity: int) -> Graft:
    gf = _seed_graft()
    while len(gf.tips) < arity:
        gf, _ = clone(gf, rng.choice(sorted(gf.tips)))
    for _ in range(rng.randint(0, 2)):
        gf, _ = pendent(gf, rng.choice(sorted(gf.tips)))
    return gf


def _pick_join(rng: random.Random, gf: Graft, room: int):
    # group tips by adjacency row; homogeneous targets come from one group
    groups: dict[int, list[int]] = {}
    for t in sorted(gf.tips):
        groups.setdefault(gf.graph.adj[t], []).append(t)
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
    gf = _seed_graft()
    ops = []
    sides: dict[str, Graft] = {}
    for _ in range(length):
        kind = rng.choice(("pendent", "clone", "clone", "join"))
        if kind == "join":
            picked = _pick_join(rng, gf, max_vertices - gf.n)
            if picked is None:
                kind = "clone"
        if kind == "join":
            xs, side = picked
            name = f"side{len(sides)}.graph"
            sides[name] = side
            ops.append(("join", xs, name))
        elif gf.n + 1 > max_vertices:
            break
        else:
            ops.append((kind, rng.choice(sorted(gf.tips))))
        gf, _ = apply_op(gf, ops[-1], sides)
    return FuzzSequence(seed=seed, ops=tuple(ops), sides=sides)


def run_sequence(seq: FuzzSequence, budget=None) -> FuzzResult:
    """Apply the ops, certifying cleanness after each step, and stop at
    the first step that is not clean. The final graft of an empty
    sequence is the seed, with no report."""
    gf = _seed_graft()
    reports: list[CleanReport] = []
    for i, op in enumerate(seq.ops):
        gf, _ = apply_op(gf, op, seq.sides)
        reports.append(is_clean(gf, budget=budget))
        if not reports[-1].all_hold:
            return FuzzResult(gf, reports, failed_at=i)
    return FuzzResult(gf, reports)


def dump_failure(seq: FuzzSequence, dirpath: str) -> str:
    """Write a replayable script and its side grafts; returns script path."""
    os.makedirs(dirpath, exist_ok=True)
    for name, side in seq.sides.items():
        with open(os.path.join(dirpath, name), "w") as fh:
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
    base = os.path.realpath(os.path.dirname(os.path.abspath(path)))
    sides: dict[str, Graft] = {}
    for op in ops:
        if op[0] == "join" and op[2] not in sides:
            side = os.path.realpath(os.path.join(base, op[2]))
            if os.path.commonpath([base, side]) != base:
                raise FormatError(f"side graft @{op[2]} lies outside "
                                  "the script's directory")
            with open(side) as fh:
                sides[op[2]] = load_graft(fh)
    return FuzzSequence(seed=seed, ops=ops, sides=sides)
