"""The graph6 line format, checked and read without numpy.

A graph6 line holds a graph's order and then the C(n, 2) pair bits in
colex order (``colex``), 6 to a character, first bit highest, each
character 63 more than its bits, zero-padded at the end.  The short
form holds n <= 62 in one character; the long form, "~" and three
characters, n <= 258047, of which orders up to GRAPH6_ORDER_CAP are
read.  ``graph6_data`` checks a line and holds it once, as bytes;
``Graph.from_graph6`` decodes those to words, and ``graph6_pair_rows``
reads the rows of a pair of vertex sets off them at any size, so the
``uniformity`` oracle, ``lemma-check`` and ``classify`` run without
numpy and without the words.  It is a module of its own so that a
``verify`` process never compiles it.
"""

from __future__ import annotations

import re
from typing import Sequence

from .errors import CapacityError, ParseError

GRAPH6_HEADER = ">>graph6<<"
GRAPH6_ORDER_CAP = 1 << 13  # decoding n = 8190: 0.2 s, 52 MB peak RSS (2 cores, numpy 2.4)
_NOT_GRAPH6 = re.compile("[^?-~]")  # graph6 characters are chr(63)..chr(126)
_NOT_BLANK = re.compile(r"\S")  # a character that str.strip keeps


def graph6_data(text: str, line: int = 1, start: int = 0, end: int | None = None) -> tuple[int, memoryview]:
    """The order n of one graph6 line, text[start:end] (the whole text by
    default), and its data: the ceil(C(n, 2) / 6) characters after the
    order, as a view of one ``bytearray`` of the line's ASCII codes, so a
    decoder may subtract 63 in place.  No other copy of the line is held.

    Whitespace around the line and the optional format header are
    dropped.  Refused in this order: an empty line, a character outside
    chr(63)..chr(126) (its offset counts from after the header), a
    truncated long-form order, an order above GRAPH6_ORDER_CAP
    (CapacityError), a data length that does not match the order, and
    nonzero padding bits.
    """
    end = len(text) if end is None else end
    first = _NOT_BLANK.search(text, start, end)
    start = first.start() if first else end
    while end > start and text[end - 1].isspace():
        end -= 1
    if text.startswith(GRAPH6_HEADER, start, end):
        start += len(GRAPH6_HEADER)
    if start == end:
        raise ParseError("empty graph6 string", line=line)
    bad = _NOT_GRAPH6.search(text, start, end)
    if bad:
        raise ParseError(f"invalid graph6 character {bad.group()!r}", line=line, offset=bad.start() - start)
    raw = memoryview(bytearray(text[start:end], "ascii"))  # the slice is the text itself when the line is all of it
    if raw[0] < 126:
        n, data = raw[0] - 63, raw[1:]
    else:
        if len(raw) < 4 or raw[1] == 126:
            raise ParseError("truncated graph6 vertex count", line=line, offset=0)
        n, data = (raw[1] - 63) << 12 | (raw[2] - 63) << 6 | (raw[3] - 63), raw[4:]
    if n > GRAPH6_ORDER_CAP:
        raise CapacityError(f"graph6 order {n} is above the cap of {GRAPH6_ORDER_CAP} vertices")
    nbits = n * (n - 1) // 2
    if len(data) != (nbits + 5) // 6:
        raise ParseError(f"graph6 data length {len(data)} does not match n={n}", line=line, offset=len(raw))
    if data and (data[-1] - 63) & ((1 << -nbits % 6) - 1):  # the padding bits, all in the last character
        raise ParseError("nonzero padding bits in graph6 data", line=line, offset=len(raw))
    return n, data


def graph6_pair_rows(data: Sequence[int], A: Sequence[int], B: Sequence[int]) -> list[int]:
    """For each b in B, the bitmask of its neighbours over the positions
    of A, read from graph6 data (``graph6_data``).  The sides may meet,
    and a vertex is no neighbour of itself.

    The bits of the pairs (u, v), u < v, are one run of the line, from
    colex index v (v - 1) / 2 on (``_run``); each vertex of A and B has
    its run read once, and bit a of b's row is bit a of b's run when
    a < b, bit b of a's run when a > b."""
    runs = {v: _run(data, v) for v in {*A, *B}}
    out = []
    for b in B:
        rb = runs[b]
        out.append(int("0" + "".join([rb[a] if a < b else runs[a][b] if a > b else "0" for a in reversed(A)]), 2))
    return out


# each graph6 character as two octal digits, high then low
_HIGH = bytes.maketrans(bytes(range(63, 127)), bytes(48 + (c >> 3) for c in range(64)))
_LOW = bytes.maketrans(bytes(range(63, 127)), bytes(48 + (c & 7) for c in range(64)))


def _run(data: Sequence[int], v: int) -> str:
    """The bits of the pairs (u, v), u < v, of graph6 data as a string of
    "0" and "1", u-th first: the characters that hold them become octal
    digits behind a leading 1, which ``int`` and ``bin`` turn into six
    bits each, leading zeros kept."""
    start = v * (v - 1) // 2
    first, skip = divmod(start, 6)
    chars = bytes(data[first : -(-(start + v) // 6)])
    octal = bytearray(2 * len(chars) + 1)
    octal[0] = 49  # "1"
    octal[1::2], octal[2::2] = chars.translate(_HIGH), chars.translate(_LOW)
    return bin(int(octal, 8))[3 + skip : 3 + skip + v]
