"""Red/blue edge colorings of complete graphs and two lower-bound constructions.

A coloring is stored as its blue graph; the red graph is the complement.
Large-book statistics for the randomized tripartite construction are
computed with exact rational means so expectation formulas can be checked
without float slack.

Interchange format BRC1: a header line ``BRC1 <n>`` followed by the
coloring's payload, the lowercase hex of its BRC1 bytes (``colex``): the
blue edge bits in colex order, four to a character, first bit in the
high bit of the nibble, zero-padded at the end.  ``write_brc1`` writes
it from the bytes in chunks: ``two_clique_bytes`` or ``tripartite_bytes``,
which one packer, ``_colex_pieces``, draws for both constructions.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain
from typing import BinaryIO, Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .colex import hex_bytes, hex_pieces
from .errors import CapacityError, ParseError
from .graphs import Graph  # first, so graphs.py compiles before graph6.py: peak RSS follows the order
from .graph6 import GRAPH6_ORDER_CAP
from .numbers import as_fraction
from .rng import bernoulli_block, probability_threshold

BRC1_MAGIC = "BRC1"
# the line breaks of str.splitlines, and the characters a payload drops
_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_LINE_BREAK = re.compile(f"\r\n|[{_BREAKS}]")
_PAYLOAD_SPACE = dict.fromkeys(map(ord, _BREAKS + " \t"))
_NOT_BLANK = re.compile(r"\S")  # a character that str.strip keeps
_FILE_PIECE = 1 << 16  # bytes of a file read and decoded at a time
# rows of colex bits that _colex_pieces packs at a time: a multiple of
# 16, so that each step starts on a byte (16k(16k - 1)/2 is divisible by 8)
_PACK_ROWS = 64


class TwoColoring(NamedTuple):
    """A 2-coloring of E(K_n), held as its blue graph."""

    blue: Graph

    @property
    def n(self) -> int:
        return self.blue.n

    @classmethod
    def from_brc1(cls, text: str | Iterable[str]) -> "TwoColoring":
        """The coloring of a BRC1 text, whole or in pieces of any length
        (``text_pieces``).  The header line is gathered; the payload after
        it goes from hex (``hex_bytes``) to the words as it comes, less
        its spaces and line breaks, so only one piece of text and one
        decoder stripe of bytes are held besides the words.  Every piece is
        read before a refusal."""
        pieces = iter([text] if isinstance(text, str) else text)
        head = ""
        try:
            for piece in pieces:
                head += piece
                if _LINE_BREAK.search(head, len(head) - len(piece)):
                    break
            if not head:
                raise ParseError("empty coloring file", line=1)
            line, *rest = _LINE_BREAK.split(head, maxsplit=1)
            head = line.split()
            if len(head) != 2 or head[0] != BRC1_MAGIC:
                raise ParseError(f"expected header '{BRC1_MAGIC} <n>'", line=1)
            try:
                n = int(head[1])
            except ValueError:
                raise ParseError(f"bad vertex count {head[1]!r}", line=1) from None
            if n < 0:
                raise ParseError("negative vertex count", line=1)
            if n > GRAPH6_ORDER_CAP:
                raise CapacityError(f"BRC1 order {n} is above the cap of {GRAPH6_ORDER_CAP} vertices")
            payload = (piece.translate(_PAYLOAD_SPACE) for piece in chain(rest, pieces))
            return cls(Graph.from_colex_bits(n, hex_bytes(payload, n * (n - 1) // 2, line=2), width=8))
        except (ParseError, CapacityError):
            for _ in pieces:  # as for the payload, the whole text is read first
                pass
            raise


def text_pieces(fh: BinaryIO) -> Iterator[str]:
    """The text of an ASCII file opened in binary mode, _FILE_PIECE
    characters at a time.  A byte that is not ASCII is refused
    (ValueError) as decoding the whole file would: at its position in
    the file."""
    done = 0
    while piece := fh.read(_FILE_PIECE):
        try:
            text = piece.decode("ascii")
        except UnicodeDecodeError as exc:
            where = f"byte {piece[exc.start]:#04x} in position {done + exc.start}"
            raise ValueError(f"'ascii' codec can't decode {where}: {exc.reason}") from None
        yield text
        done += len(piece)


def read_coloring_file(path) -> TwoColoring:
    with open(path, "rb") as fh:
        return TwoColoring.from_brc1(text_pieces(fh))


def read_any_file(path) -> TwoColoring | Graph:
    """The coloring of a BRC1 file, or the graph on the first line of a
    graph6 file that is not blank, told apart by the first four
    characters that are not whitespace.  A BRC1 file is decoded as it is
    read; a graph6 file is read whole, and its line found and numbered
    as ``str.splitlines`` would, without splitting the text."""
    with open(path, "rb") as fh:
        pieces = text_pieces(fh)
        head = ""
        for piece in pieces:
            head += piece
            if len(head.lstrip()) >= len(BRC1_MAGIC):
                break
        if head.lstrip().startswith(BRC1_MAGIC):
            return TwoColoring.from_brc1(chain([head], pieces))
        text = "".join(chain([head], pieces))
    first = _NOT_BLANK.search(text)
    if first is None:
        raise ParseError("empty input file", line=1)
    end = _LINE_BREAK.search(text, first.start())
    line = 1 + len(_LINE_BREAK.findall(text, 0, first.start()))
    return Graph.from_graph6(text, line, first.start(), end.start() if end else len(text))


def brc1_text(n: int, chunks: Iterable[bytes]) -> Iterator[str]:
    """The BRC1 text of an order and its BRC1 bytes, given in chunks, in
    pieces: the header line, the payload a chunk at a time, and the
    closing line break."""
    yield f"{BRC1_MAGIC} {n}\n"
    yield from hex_pieces(chunks, n * (n - 1) // 2)
    yield "\n"


def write_brc1(path, n: int, chunks: Iterable[bytes]) -> None:
    """Write the BRC1 file of an order and its BRC1 bytes, given in chunks."""
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(brc1_text(n, chunks))


# ------------------------------------------------------------- constructions


def two_cliques(q: int) -> TwoColoring:
    """Blue = two disjoint K_{q+1}; the classical lower-bound coloring.

    On n = 2q + 2 vertices the largest blue book has q - 1 pages and the
    red graph is complete bipartite, hence triangle-free: B_p is red, as
    ``check_coloring`` reads it, and the coloring certifies
    r(B_1, B_q) > 2q + 2.  The words are decoded from the BRC1 bytes of
    ``two_clique_bytes``, which ``construct`` writes as they come,
    reporting the book sizes q - 1 and 0 without decoding them;
    acceptance criterion 3 checks those forms against ``books``.
    """
    return TwoColoring(Graph.from_colex_bits(2 * q + 2, two_clique_bytes(q), width=8))


def two_clique_bytes(q: int) -> Iterator[bytes]:
    """The BRC1 bytes of ``two_cliques(q)``, refused for q < 1 before any
    is drawn: a pair is blue iff both ends lie in the same half of q + 1
    vertices."""
    if q < 1:
        raise ValueError("q must be at least 1")
    # row j: every i < j in the first half, i > q in the second
    return _colex_pieces(2 * q + 2, lambda j, out: np.greater_equal(np.arange(j), 0 if j <= q else q + 1, out=out))


class ConstructionParams(
    NamedTuple("ConstructionParams", [("n", int), ("epsilon", Fraction), ("seed", int), ("delta", Fraction)])
):
    """Parameters of the randomized tripartite coloring.

    ``delta`` defaults to the coupling delta = 8.25 * epsilon; passing it
    explicitly (``construct --delta``) decouples the two, and
    ``tripartite_random`` still refuses a delta whose margins are not
    positive.
    """

    __slots__ = ()

    def __new__(cls, n: int, epsilon, seed: int = 0, delta=None):
        eps = as_fraction(epsilon)
        d = Fraction(33, 4) * eps if delta is None else as_fraction(delta)
        if eps <= 0:
            raise ValueError("epsilon must be positive")
        if abs(d) > Fraction(1, 2):
            raise ValueError("delta outside [-1/2, 1/2] gives no probability")
        return super().__new__(cls, n, eps, seed, d)

    @property
    def p(self) -> Fraction:
        return Fraction(1, 2) - self.delta

    @property
    def q_prob(self) -> Fraction:
        return Fraction(1, 2) + self.delta

    def validate(self) -> None:
        """Reject parameters whose positivity margins fail."""
        if self.n % 3:
            raise ValueError("order must be divisible by 3")
        k1, k2 = margins(self)
        if k1 <= 0 or k2 <= 0:
            raise ValueError(f"margins not positive: k1={k1}, k2={k2}")


def margins(params: ConstructionParams) -> tuple[Fraction, Fraction]:
    """Exact (k1, k2) = (2(d - d^2)/3 - 5e, 3e - (d + d^2)/3)."""
    e, d = params.epsilon, params.delta
    k1 = Fraction(2, 3) * (d - d * d) - 5 * e
    k2 = 3 * e - (d + d * d) / 3
    return k1, k2


def expected_book_sizes(params: ConstructionParams) -> tuple[Fraction, Fraction, Fraction]:
    """Expected codegrees (red intra, blue cross, red cross), exact.

    red intra:  n/3 - 2 + (2n/3) p^2
    blue cross: (n/3) q^2
    red cross:  (n/3) p^2 + (2n/3 - 2) p
    """
    n3 = Fraction(params.n, 3)
    p, q = params.p, params.q_prob
    red_intra = n3 - 2 + 2 * n3 * p * p
    blue_cross = n3 * q * q
    red_cross = n3 * p * p + (2 * n3 - 2) * p
    return red_intra, blue_cross, red_cross


def tripartite_random(params: ConstructionParams) -> TwoColoring:
    """Random coloring: thirds A_1, A_2, A_3 all-red inside, cross edges
    red with probability p = 1/2 - delta.

    Each edge consults a counter-based value at its colex index, so the
    output depends only on (params, seed), not on evaluation order.
    Parameters that ``params.validate()`` rejects are refused.  The
    small books are blue here (at n = 999, epsilon = 1/200: blue bk 135,
    red bk 521), the other way round from ``two_cliques`` and
    ``check_coloring``.  The words are decoded from the BRC1 bytes of
    ``tripartite_bytes``, which ``construct`` writes as they come.
    """
    return TwoColoring(Graph.from_colex_bits(params.n, tripartite_bytes(params), width=8))


def tripartite_bytes(params: ConstructionParams) -> Iterator[bytes]:
    """The BRC1 bytes of ``tripartite_random``, refused as it refuses
    them before any is drawn: a pair is blue iff it crosses two thirds
    and its counter-based draw is not red."""
    n = params.n
    if n < 0:
        raise ValueError(f"order {n} is negative")
    params.validate()
    t, thr = n // 3, probability_threshold(params.p)

    def row(j: int, out: np.ndarray) -> None:  # cross and not red
        np.greater(np.arange(j) // t != j // t, bernoulli_block(params.seed, j * (j - 1) // 2, j, thr), out=out)

    return _colex_pieces(n, row)


def _colex_pieces(n: int, row: Callable[[int, np.ndarray], None]) -> Iterator[bytes]:
    """The BRC1 bytes of the pairs of [n], packed and yielded _PACK_ROWS
    rows of colex bits at a time: each piece ends on a byte, the last one
    zero-padded.  ``row(j, out)`` writes the j bits of the pairs (i, j),
    i < j, into the bool array ``out``."""
    for r0 in range(0, n, _PACK_ROWS):
        r1 = min(r0 + _PACK_ROWS, n)
        s0 = r0 * (r0 - 1) // 2
        bits = np.empty(r1 * (r1 - 1) // 2 - s0, dtype=bool)
        for j in range(max(r0, 1), r1):
            s = j * (j - 1) // 2 - s0
            row(j, bits[s : s + j])
        yield np.packbits(bits).tobytes()


def tripartite_parts(n: int) -> tuple[list[int], list[int], list[int]]:
    """The contiguous equal thirds used by tripartite_random."""
    if n % 3:
        raise ValueError("order must be divisible by 3")
    t = n // 3
    return list(range(t)), list(range(t, 2 * t)), list(range(2 * t, n))


# ---------------------------------------------------------------- statistics


def _mean(total: int, count: int) -> Fraction | None:
    return Fraction(total, count) if count else None


def construction_statistics(c: TwoColoring, parts) -> dict:
    """Codegree statistics of a coloring against a 3-part split.

    Means are exact rationals; the red cross class is additionally split
    by page origin (third part vs the two endpoint parts) so the two
    terms of its expectation can be checked separately.

    The class totals come from ``Graph.part_codegrees`` of the blue
    graph, which reduces the same tiled codegree walk as ``bk`` and
    ``witness-check`` (``Graph.books``) and holds float32 stripes of
    rows, not (n/3)^2 blocks, and no words of the red graph.  A red base
    takes its codegree and third-part pages in the complement of the
    blue graph, and a blue base inside a part counts towards bk_blue
    only.
    """
    n = c.n
    if n == 0:
        raise ValueError("statistics need at least one vertex")
    p1, p2, p3 = (list(p) for p in parts)
    if sorted(p1 + p2 + p3) != list(range(n)):
        raise ValueError("parts do not partition the vertex set")
    if not len(p1) == len(p2) == len(p3):
        raise ValueError("parts must be equal thirds")
    # each class: [pairs, codegree total, largest codegree, third-part pages]
    blue_in, blue_cross, red_in, red_cross = c.blue.part_codegrees([p1, p2, p3])
    bk_red, bk_blue = max(red_in[2], red_cross[2]), max(blue_in[2], blue_cross[2])
    cross_edges, cross_total, third_total = red_cross[0], red_cross[1], red_cross[3]
    return {
        "n": n,
        "part_sizes": [len(p1), len(p2), len(p3)],
        "red_intra": {"edges": red_in[0], "mean_codegree": _mean(red_in[1], red_in[0])},
        "blue_cross": {"edges": blue_cross[0], "mean_codegree": _mean(blue_cross[1], blue_cross[0])},
        "red_cross": {
            "edges": cross_edges,
            "mean_codegree": _mean(cross_total, cross_edges),
            "mean_pages_third_part": _mean(third_total, cross_edges),
            "mean_pages_own_parts": _mean(cross_total - third_total, cross_edges),
        },
        "bk_red": bk_red,
        "bk_blue": bk_blue,
        "bk_red_over_n": Fraction(bk_red, n),
        "bk_blue_over_n": Fraction(bk_blue, n),
    }
