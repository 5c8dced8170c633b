"""The colex edge order, bit sets on plain ints, and the BRC1 payload.

Edge (i, j), i < j, of K_n sits at index j(j-1)/2 + i; ``ramsey`` gives a
counterexample as one int, bit e set for each blue edge e, which
``index_hex`` writes out.  The BRC1 bytes of a coloring hold its C(n, 2)
blue bits in that order, 8 to a byte, the first in the high bit,
zero-padded at the end; its payload is their lowercase hex, cut to
ceil(C(n, 2) / 4) characters.  These bytes are the one packed form of a
coloring between modules.  This module imports no numpy, so the
exhaustive scan (``ramsey``) and the ``verify`` command run without it.
"""

from __future__ import annotations

import re
from itertools import chain
from typing import Iterable, Iterator

from .errors import ParseError

# byte b with its bits in reverse order
_BIT_REVERSE = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))
_NOT_HEX = re.compile("[^0-9a-fA-F]")


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


def hex_bytes(pieces: Iterable[str], nbits: int, line: int = 1) -> Iterator[bytes]:
    """The BRC1 bytes of a payload of ``nbits`` bits, yielded as each of
    its pieces is decoded.  After the last piece the payload is checked
    for length, then for a character that is not a hex digit (offsets
    count from its start), then for zero padding."""
    nchars, seen, carry, bad, last = (nbits + 3) // 4, 0, "", None, 0
    for piece in chain(pieces, ["0"]):  # the "0" completes an odd last digit pair
        seen += len(piece)
        if bad is None:
            text = carry + piece
            whole = len(text) - len(text) % 2
            try:
                chunk = bytes.fromhex(text[:whole])
            except ValueError:
                chunk = b""
            if 2 * len(chunk) != whole:  # fromhex also skips ASCII whitespace
                bad, start = _NOT_HEX.search(text), seen - len(text)
                continue
            carry, last = text[whole:], chunk[-1] if chunk else last
            yield chunk
    if seen - 1 != nchars:
        raise ParseError(f"expected {nchars} hex characters for {nbits} edge bits, got {seen - 1}", line=line)
    if bad is not None:
        raise ParseError(f"invalid hex character {bad.group()!r}", line=line, offset=start + bad.start())
    if last & ((1 << -nbits % 8) - 1):  # the padding bits, all in the last byte
        raise ParseError("nonzero padding bits", line=line, offset=nchars - 1)
