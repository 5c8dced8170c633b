"""The colex edge order, bit sets on plain ints, and the BRC1 payload.

Edge (i, j), i < j, of K_n sits at index j(j-1)/2 + i; a coloring's blue
edges are one int with bit e set for each blue edge e.  The BRC1 bytes
of a coloring hold its C(n, 2) blue bits in that order, 8 to a byte, the
first in the high bit, zero-padded at the end; its payload is their
lowercase hex, cut to ceil(C(n, 2) / 4) characters.  These bytes are
the one packed form of a coloring between modules.  This module imports
no numpy, so the exhaustive scan (``ramsey``) and the ``verify`` command
run without it.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator

from .errors import ParseError

# byte b with its bits in reverse order
_BIT_REVERSE = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))
_NOT_HEX = re.compile("[^0-9a-fA-F]")
_HEX_PIECE = 1 << 16  # payload characters per decoding step; even


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


def index_bytes(index: int, nbits: int) -> bytes:
    """The BRC1 bytes of the ``nbits`` bits of ``index``, bit k the k-th."""
    return index.to_bytes((nbits + 7) // 8, "little").translate(_BIT_REVERSE)


def bytes_index(raw: bytes) -> int:
    """The int whose bit k is the k-th bit of BRC1 bytes."""
    return int.from_bytes(raw.translate(_BIT_REVERSE), "little")


def hex_pieces(chunks: Iterable[bytes], nbits: int) -> Iterator[str]:
    """The BRC1 payload of the BRC1 bytes of ``nbits`` bits, given in
    chunks: the hex of each chunk, cut to ceil(nbits / 4) characters in
    all."""
    left = (nbits + 3) // 4
    for raw in chunks:
        text = raw.hex()[:left]
        left -= len(text)
        yield text


def index_hex(index: int, nbits: int) -> str:
    """The BRC1 payload of the ``nbits`` bits of ``index``, bit k the k-th."""
    return "".join(hex_pieces([index_bytes(index, nbits)], nbits))


def hex_bytes(text: str, nbits: int, line: int = 1, start: int = 0) -> bytearray:
    """The BRC1 bytes of the payload text[start:] of ``nbits`` bits,
    checked for length, characters and zero padding; offsets count from
    ``start``.  The payload is decoded _HEX_PIECE characters at a time,
    so only one piece of it is copied at once."""
    nchars = (nbits + 3) // 4
    if len(text) - start != nchars:
        raise ParseError(
            f"expected {nchars} hex characters for {nbits} edge bits, got {len(text) - start}",
            line=line,
        )
    raw = bytearray((nchars + 1) // 2)
    for a in range(0, nchars, _HEX_PIECE):
        piece = text[start + a : start + a + _HEX_PIECE]
        try:
            chunk = bytes.fromhex(piece + "0" * (len(piece) % 2))
        except ValueError:
            chunk = b""
        if len(chunk) != (len(piece) + 1) // 2:  # fromhex also skips ASCII whitespace
            bad = _NOT_HEX.search(text, start)
            raise ParseError(f"invalid hex character {bad.group()!r}", line=line, offset=bad.start() - start)
        raw[a // 2 : a // 2 + len(chunk)] = chunk
    pad = 8 * len(raw) - nbits  # below 8, all in the last byte
    if raw and raw[-1] & ((1 << pad) - 1):
        raise ParseError("nonzero padding bits", line=line, offset=nchars - 1)
    return raw
