"""Brute-force subset-enumeration oracle for cross-validating detectors.

Every vertex subset of the host is tested against the pattern definition
directly (degree profiles, walks, connectivity), with no shared code or
shared cleverness with the fast detectors. Capped at 12 vertices.
"""

from __future__ import annotations

from .bits import bits
from .graph import Graph
from .witness import Witness
from .errors import CapError, InvalidArgumentError

__all__ = ["ORACLE_MAX", "oracle_contains", "oracle_scan"]

ORACLE_MAX = 12

_TIP_KINDS = ("guarded-fan", "mountable-path")
_KINDS = ("triangle", "hole", "wheel", "theta", "fan") + _TIP_KINDS


def _cycle_order(adj, mask):
    """Vertices of a 2-regular connected mask in canonical cyclic order,
    or None if the mask is not a single cycle."""
    size = mask.bit_count()
    start = (mask & -mask).bit_length() - 1
    nb = adj[start] & mask
    if nb.bit_count() != 2:
        return None
    cur = (nb & -nb).bit_length() - 1
    order = [start, cur]
    prev = start
    while True:
        step = adj[cur] & mask & ~(1 << prev)
        if step.bit_count() != 1:
            return None
        prev, cur = cur, step.bit_length() - 1
        if cur == start:
            break
        order.append(cur)
        if len(order) > size:
            return None
    if len(order) != size:
        return None
    return tuple(order)


def _is_cycle(adj, mask) -> bool:
    for v in bits(mask):
        if (adj[v] & mask).bit_count() != 2:
            return False
    return _cycle_order(adj, mask) is not None


def _path_order(adj, mask):
    """Vertices of an induced-path mask in path order, or None."""
    size = mask.bit_count()
    if size == 1:
        return (mask.bit_length() - 1,)
    ends = []
    twice_edges = 0
    for v in bits(mask):
        d = (adj[v] & mask).bit_count()
        if d > 2:
            return None
        twice_edges += d
        if d == 1:
            ends.append(v)
        elif d == 0:
            return None
    if len(ends) != 2 or twice_edges != 2 * (size - 1):
        return None
    cur = min(ends)
    order = [cur]
    prev_bit = 0
    for _ in range(size - 1):
        step = adj[cur] & mask & ~prev_bit
        if step == 0:
            # degree profile can pass on a path plus a cycle; the walk
            # strands at the far end before covering the cycle part
            return None
        prev_bit = 1 << cur
        cur = (step & -step).bit_length() - 1
        order.append(cur)
    if len(set(order)) != size:
        return None
    return tuple(order)


def _theta_parts(adj, mask, vs, degs):
    """Branch vertices plus the three path sequences, or None."""
    branch = [v for v, d in zip(vs, degs) if d == 3]
    if len(branch) != 2 or any(d not in (2, 3) for d in degs):
        return None
    a, b = branch
    if adj[a] >> b & 1:
        return None
    inner = mask & ~(1 << a) & ~(1 << b)
    comps = []
    rem = inner
    while rem:
        comp = rem & -rem
        frontier = comp
        while frontier:
            grow = 0
            for v in bits(frontier):
                grow |= adj[v]
            grow &= inner & ~comp
            comp |= grow
            frontier = grow
        comps.append(comp)
        rem &= ~comp
    if len(comps) != 3:
        return None
    paths = []
    for comp in comps:
        if (adj[a] & comp).bit_count() != 1 or (adj[b] & comp).bit_count() != 1:
            return None
        seq = [a]
        cur = (adj[a] & comp).bit_length() - 1
        seen = 0
        while True:
            seq.append(cur)
            seen |= 1 << cur
            step = adj[cur] & comp & ~seen
            if not step:
                break
            cur = (step & -step).bit_length() - 1
        if seen != comp or not adj[seq[-1]] >> b & 1:
            return None
        seq.append(b)
        paths.append(tuple(seq))
    return a, b, tuple(paths)


def _find_in_mask(adj, mask, vs, degs, kind, k, tip_mask):
    """Check one subset against one pattern; return a Witness or None."""
    size = len(vs)
    if kind == "triangle":
        if size == 3 and all(d == 2 for d in degs):
            return Witness("triangle", tuple(vs))
        return None
    if kind == "hole":
        if size >= 4 and all(d == 2 for d in degs):
            order = _cycle_order(adj, mask)
            if order is not None:
                return Witness("hole", order)
        return None
    if kind == "wheel":
        if size < 5:
            return None
        for v, d in zip(vs, degs):
            if d < k:
                continue
            rim_mask = mask & ~(1 << v)
            if _is_cycle(adj, rim_mask):
                order = _cycle_order(adj, rim_mask)
                hit = tuple(u for u in order if adj[v] >> u & 1)
                return Witness("wheel", order, center=v, k=len(hit), hits=hit)
        return None
    if kind == "theta":
        parts = _theta_parts(adj, mask, vs, degs)
        if parts is None:
            return None
        a, b, paths = parts
        return Witness("theta", (a, b), paths=paths)
    if kind == "fan":
        if size < k + 1:
            return None
        for v, d in zip(vs, degs):
            if d < k:
                continue
            order = _path_order(adj, mask & ~(1 << v))
            if order is not None:
                hit = tuple(u for u in order if adj[v] >> u & 1)
                return Witness("fan", order, center=v, k=len(hit), hits=hit)
        return None
    if kind == "guarded-fan":
        if size < 4:
            return None
        for v, d in zip(vs, degs):
            if d < 3:
                continue
            order = _path_order(adj, mask & ~(1 << v))
            if order is None:
                continue
            if tip_mask >> order[0] & 1 and tip_mask >> order[-1] & 1:
                hit = tuple(u for u in order if adj[v] >> u & 1)
                return Witness("guarded-fan", order, center=v,
                               k=len(hit), hits=hit)
        return None
    if kind == "mountable-path":
        if size < 3 or (mask & tip_mask).bit_count() < 3:
            return None
        order = _path_order(adj, mask)
        if order is None:
            return None
        hit = tuple(u for u in order if tip_mask >> u & 1)
        return Witness("mountable-path", order, hits=hit)
    raise InvalidArgumentError(f"unknown oracle pattern {kind!r}")


def _first_witnesses(g: Graph, tips, kinds, k: int) -> dict:
    """One pass over all subsets in mask order: {kind: first witness or
    None} for each kind in kinds, stopping once every kind is found."""
    if g.n > ORACLE_MAX:
        raise CapError(
            f"oracle is capped at {ORACLE_MAX} vertices, got {g.n}")
    tip_mask = 0
    if tips is not None:
        for t in tips:
            g.check_vertex(t)
            tip_mask |= 1 << t
    found = dict.fromkeys(kinds)
    missing = len(found)
    adj = g.adj
    for mask in range(1, 1 << g.n):
        if mask.bit_count() < 3:
            continue
        vs = bits(mask)
        degs = [(adj[v] & mask).bit_count() for v in vs]
        for kd in kinds:
            if found[kd] is None:
                w = _find_in_mask(adj, mask, vs, degs, kd, k, tip_mask)
                if w is not None:
                    found[kd] = w
                    missing -= 1
        if not missing:
            break
    return found


def oracle_contains(g: Graph, tips, kind: str, k: int = 3):
    """First subset (in mask order) inducing the pattern, as a Witness."""
    if kind not in _KINDS:
        raise InvalidArgumentError(f"unknown oracle pattern {kind!r}")
    if kind in _TIP_KINDS and tips is None:
        raise InvalidArgumentError(f"pattern {kind!r} needs tips")
    return _first_witnesses(g, tips, (kind,), k)[kind]


def oracle_scan(g: Graph, tips=None, k: int = 3) -> dict[str, bool]:
    """One pass over all subsets answering every pattern at once.

    Returns {kind: present} for the five graph patterns, plus the two
    tip-aware ones when tips is given. Used by the bulk detector-vs-
    oracle comparison, where per-kind passes would be too slow.
    """
    kinds = _KINDS if tips is not None else tuple(
        kd for kd in _KINDS if kd not in _TIP_KINDS)
    found = _first_witnesses(g, tips, kinds, k)
    return {kd: w is not None for kd, w in found.items()}
