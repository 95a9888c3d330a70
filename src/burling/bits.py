"""Small helpers for int-as-bitset vertex sets."""

from __future__ import annotations

# Annotations are never evaluated, so Iterable needs no import.


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int) -> list[int]:
    """The set bit positions of ``mask`` in increasing order. Clearing
    the highest bit shrinks the int at each step; clearing the lowest
    would rewrite the full width (and negate it) for every bit."""
    out = []
    while mask:
        b = mask.bit_length() - 1
        out.append(b)
        mask ^= 1 << b
    out.reverse()
    return out
