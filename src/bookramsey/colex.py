"""The colex edge order and bit sets, on plain ints.

Edge (i, j), i < j, of K_n sits at index j(j-1)/2 + i; a coloring's blue
edges are one int with bit e set for each blue edge e.  This module
imports no numpy, so the exhaustive scan (``ramsey``) and the ``verify``
command run without it.
"""

from __future__ import annotations

from typing import Iterator

# byte b with its bits in reverse order
_BIT_REVERSE = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def edge_index(i: int, j: int) -> int:
    """Colex index of edge (i, j), i < j."""
    if i == j:
        raise ValueError("no loops")
    if i > j:
        i, j = j, i
    return j * (j - 1) // 2 + i


def bits_of(mask: int) -> Iterator[int]:
    """Yield set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def index_hex(index: int, nbits: int) -> str:
    """The BRC1 payload of the ``nbits`` bits of ``index``, bit k the
    k-th bit: lowercase hex, first bit high in each nibble."""
    raw = index.to_bytes((nbits + 7) // 8, "little").translate(_BIT_REVERSE)
    return raw.hex()[: (nbits + 3) // 4]
