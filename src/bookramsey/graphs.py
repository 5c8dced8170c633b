"""Dense simple graphs over [n], stored as packed adjacency words.

A graph is one read-only (n, ceil(n/64)) array of little-endian uint64
words: bit v of row u is set iff u ~ v, and the padding bits past n stay
zero.  Other modules never read the words bit by bit; they ask for
codegrees, for the bool matrix of a few rows against a few columns
(``adjacency``), or for the adjacency as Python-int rows (``rows``),
on which the stability layer runs.  ``booksize`` (graph6 ``bk``) scans one
graph's edges itself, ANDing word rows, so its cost grows with the edge
count.  ``books`` (the books of both colours, or the red-first book
search behind ``ramsey.check_coloring``) and ``part_codegrees`` (the
``stats`` command) reduce one walk over the codegrees of all pairs,
``_codegree_tiles``, a float32 product of row stripes.  A product entry
is a codegree, at most n - 2, or a degree, at most n - 1, so while
n <= 4096 the walk folds two rows into one operand row as lo + 4096 hi
and multiplies half as many rows; every sum stays an integer below
2**24, exact in float32.  Besides the words, the walk holds
O(_STRIPE^2) floats: for one 256-bit column chunk, the folded rows of a
stripe and the rows of another, and the tiles.
A Graph has no public constructor: it is only ever decoded from packed
bytes (``from_colex_bits``, ``from_graph6``), and the decoder binds its
words, valid by construction and unchecked, through ``_of_words``.  One reader,
``_book``, reads a book certificate of either colour off the two word
rows of its base.  Graphs are immutable; share them freely.

Also owns the colex decoder from packed bytes to words: the C(n, 2)
vertex pairs in colex order, which is the row-major strict lower
triangle of the matrix.  graph6 (short form n <= 62, long form
n <= 258047) packs their bits 6 to a character, and the BRC1 bytes of
``colex`` 8 to a byte; ``from_colex_bits`` reads either, at orders up to
GRAPH6_ORDER_CAP, and this module writes neither.  The decoder goes
_STRIPE / 4 rows at a time and unpacks only the edge bits of the stripe
at hand, so it holds the words and O(_STRIPE n) bytes besides its input,
which it reads a piece at a time when given so.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .graph6 import graph6_data
_STRIPE = 256  # rows per codegree-product tile; the decoder steps _STRIPE / 4 rows, rounded to 8
_FOLD = 4096  # codegree tiles fold two rows into one while n <= _FOLD: every product entry, at most n - 1, is below it


class BookCertificate(NamedTuple):
    """Witness that a graph contains a book of the stated size: a base
    edge u < v and all common neighbours of u and v, its pages, each of
    which forms a triangle with the base edge (``Graph._book``)."""

    base: tuple[int, int]
    pages: frozenset[int]

    @property
    def size(self) -> int:
        return len(self.pages)


class Graph:
    """Immutable dense simple graph on vertex set {0, ..., n-1}, only ever
    decoded from packed bytes; no public constructor.
    Its book certificates, of either colour, come from one reader, ``_book``."""

    __slots__ = ("n", "words")

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @property
    def rows(self) -> tuple[int, ...]:
        """Adjacency as Python-int bitsets, derived from the words."""
        return tuple(int.from_bytes(row.tobytes(), "little") for row in self.words)

    # ---------------------------------------------------------------- build
    # Every graph is bound here by the decoder, from words valid by
    # construction, unchecked: symmetric, loopless and zero past n.

    @classmethod
    def _of_words(cls, n: int, words: np.ndarray) -> "Graph":
        g = object.__new__(cls)
        words.flags.writeable = False
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "words", words)
        return g

    # ---------------------------------------------------------------- query

    def edge_count(self) -> int:
        return int(np.bitwise_count(self.words).sum()) // 2

    def adjacency(self, rows: Sequence[int] | None = None, cols: Sequence[int] | None = None) -> np.ndarray:
        """Bool matrix set at [i, j] iff rows[i] ~ cols[j]; None is every vertex."""
        adj = _unpack(self.words if rows is None else self.words[np.asarray(rows, dtype=np.intp)], self.n)
        return adj if cols is None else adj[:, np.asarray(cols, dtype=np.intp)]

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and np.array_equal(self.words, other.words)

    def __hash__(self) -> int:
        return hash((self.n, self.words.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"

    # ------------------------------------------------------------ operations

    def booksize(self) -> tuple[int, BookCertificate | None]:
        """Largest book size together with a witnessing certificate.

        Returns (0, None) for an edgeless graph.  Ties are broken toward
        the lexicographically least base edge, so output is deterministic.
        Vertex u popcounts its word row ANDed with the row of each
        neighbour v > u: O(e n / 64) word operations for e edges, with
        temporary memory within O(n * ceil(n/64)) words.  ``books`` asks
        for both colours in one pass.
        """
        n, words = self.n, self.words
        best = None
        for u in range(n - 1):
            later = np.flatnonzero(_unpack(words[u : u + 1], n)[0, u + 1 :]) + (u + 1)
            if later.size == 0:
                continue
            counts = np.bitwise_count(words[later] & words[u]).sum(axis=1)
            k = int(counts.argmax())
            if best is None or counts[k] > best[0]:
                best = (int(counts[k]), u, int(later[k]))
        return (best[0], self._book(best[1], best[2], blue=True)) if best else (0, None)

    def books(self, at_least: tuple[int, int] | None = None) -> tuple[tuple, tuple]:
        """Books of this graph (blue) and of its complement (red) from one
        ``_codegree_tiles`` walk: ((size, certificate) blue,
        (size, certificate) red), with (0, None) where there is none.

        Without ``at_least``, each colour's largest book at its
        lexicographically least base edge, as ``booksize`` gives it.
        With page targets ``at_least = (blue, red)``, red goes first: the
        first red base edge in lexicographic order whose book reaches the
        red target, where the scan stops; only when there is none, the
        first blue base edge whose book reaches the blue target.  The
        other colour reads (0, None).

        Per tile, each row keeps the first column of its largest key: one
        more than a pair's codegree in the colour (0 elsewhere) or, with
        targets, whether it reaches its colour's target, clamped to n
        since a book has at most n - 2 pages.  A finished row stripe keeps
        its first row of the largest key.
        """
        n = self.n
        targets = None if at_least is None else [min(t, n) for t in at_least]
        best = [0.5, 0.5]  # a key counts from 1 on
        found = [None, None]
        for r0, c0, c, cc, edge, other in _codegree_tiles(self.words, n):
            if c0 == r0:
                top = np.zeros((2, len(c)), dtype=np.float32)
                col = np.zeros((2, len(c)), dtype=np.intp)
            for k, (value, mask) in enumerate(((c, edge), (cc, other))):
                if targets is None:
                    key = np.multiply(np.add(value, 1, out=value), mask, out=value)
                else:
                    key = np.logical_and(mask, value >= targets[k], out=mask)
                first = key.argmax(axis=1)
                most = key[np.arange(len(key)), first]  # one pass, where max(axis=1) is slow
                better = most > top[k]
                top[k][better] = most[better]
                col[k][better] = first[better] + c0
            if c0 + c.shape[1] < n:
                continue
            for k in (0, 1):
                i = int(top[k].argmax())
                if top[k][i] > best[k]:
                    best[k], found[k] = top[k][i], (r0 + i, int(col[k][i]))
            if targets is not None and found[1] is not None:
                found[0] = None
                break
        certs = [base and self._book(*base, blue=k == 0) for k, base in enumerate(found)]
        return tuple((cert.size, cert) if cert else (0, None) for cert in certs)

    def _book(self, u: int, v: int, blue: bool) -> BookCertificate:
        """The book on the base u < v, an edge (blue) or a non-edge (red,
        a book of the complement), read from the two word rows a and b:
        its pages are a & b, or ~(a | b) less u and v."""
        a, b = self.words[u], self.words[v]
        pages = _unpack((a & b if blue else ~(a | b))[None], self.n)[0]
        if not blue:
            pages[[u, v]] = False
        return BookCertificate(base=(u, v), pages=frozenset(np.flatnonzero(pages).tolist()))

    def part_codegrees(self, parts: Sequence[Sequence[int]]) -> list[list[int]]:
        """Codegree totals over the pairs u < v against a split of the
        vertices into three parts, class by class: edges inside a part,
        edges across two, then non-edges inside and across, whose
        codegrees and pages are counted in the complement.  Each class
        gives [pairs, codegree sum, largest codegree or 0, pages in the
        part that holds neither end], the last 0 inside a part.

        The vertices are relabelled, a stripe at a time, so that the
        parts are contiguous (no copy when they already are).  Each tile
        of ``_codegree_tiles`` is masked in place to the codegrees of its
        edges (c) and non-edges (cc), 0 elsewhere, and split at the part
        boundaries into sub-tiles of parts (a, b); a class adds the count
        of its mask there, the float64 sum of its masked codegrees and
        their maximum, which is that of the class since codegrees are
        nonnegative.  A sub-tile's sums are float32 row sums, at most
        _STRIPE (n - 2) and so exact below 2**24, added in float64: every
        total is exact.

        The pages in the third part of the edges across sum to three times
        the number of triangles with one vertex in each part: for each w
        in P_2 and its neighbours u in P_0, the popcount of the P_1 words
        of u ANDed with those of w.  The pages of the non-edges across
        come from the neighbour counts d_k(u) of each vertex in each part
        k: a non-edge uv, u in P_a and v in P_b, has
        |P_t| - d_t(u) - d_t(v) + c_t(u, v) pages in P_t, t = 3 - a - b,
        where c_t counts common neighbours in P_t.  Summed over the
        non-edges between P_a and P_b, the first term is |P_t| times their
        number, the second sums d_t(u) (|P_b| - d_b(u)) over u in P_a and
        likewise over P_b, and the third is the sum of d_a(w) d_b(w) over
        w in P_t, which counts c_t over all pairs, less the edges' pages.
        """
        n = self.n
        assert _STRIPE * n < 1 << 24, "float32 row sums are exact only below 2**24"
        order = np.concatenate([np.asarray(p, dtype=np.intp) for p in parts])
        sizes = [len(p) for p in parts]
        bounds = np.cumsum([0] + sizes).tolist()
        words = self.words
        if not np.array_equal(order, np.arange(n)):
            words = np.empty_like(words)
            for r0 in range(0, n, _STRIPE):
                words[r0 : r0 + _STRIPE] = _pack(self.adjacency(order[r0 : r0 + _STRIPE], order))
        out = np.zeros((4, 4), dtype=np.int64)

        def pieces(lo: int, hi: int) -> list[tuple[int, slice]]:
            """(part, slice from lo) of each part that meets lo..hi-1."""
            cuts = [(k, max(lo, bounds[k]), min(hi, bounds[k + 1])) for k in range(3)]
            return [(k, slice(a - lo, b - lo)) for k, a, b in cuts if a < b]

        for r0, c0, c, cc, edge, other in _codegree_tiles(words, n):
            c *= edge
            cc *= other
            for a, rows in pieces(r0, r0 + c.shape[0]):
                for b, cols in pieces(c0, c0 + c.shape[1]):
                    cross = int(a != b)
                    for sums, mask, value in ((out[cross], edge, c), (out[2 + cross], other, cc)):
                        block = value[rows, cols]
                        sums[:2] += np.count_nonzero(mask[rows, cols]), int(block.sum(axis=1).sum(dtype=np.float64))
                        sums[2] = max(sums[2], block.max())

        member = _pack(np.repeat(np.arange(3), sizes) == np.arange(3)[:, None])
        lo, hi = bounds[1] >> 6, -(-bounds[2] // 64)
        for w in range(bounds[2], n):
            u = np.flatnonzero(_unpack(words[w : w + 1], bounds[1])[0])
            out[1, 3] += 3 * int(np.bitwise_count(words[u, lo:hi] & (words[w, lo:hi] & member[1, lo:hi])).sum())
        d = np.zeros((n, 3), dtype=np.int64)  # d[u, k] = d_k(u)
        for r0 in range(0, n, _STRIPE):
            d[r0 : r0 + _STRIPE] = np.bitwise_count(words[r0 : r0 + _STRIPE, None] & member).sum(axis=2)
        P = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
        for a, b in ((0, 1), (0, 2), (1, 2)):
            t = 3 - a - b
            out[3, 3] += sizes[t] * (sizes[a] * sizes[b] - d[P[a], b].sum()) + (d[P[t], a] * d[P[t], b]).sum()
            out[3, 3] -= (d[P[a], t] * (sizes[b] - d[P[a], b])).sum() + (d[P[b], t] * (sizes[a] - d[P[b], a])).sum()
        out[3, 3] -= out[1, 3]
        return out.tolist()

    # --------------------------------------------------------- colex decoder
    # Pair (i, j), i < j, has colex index j(j-1)/2 + i.

    @classmethod
    def from_colex_bits(cls, n: int, packed: bytes | np.ndarray | Iterable[bytes], width: int) -> "Graph":
        """The graph whose pair bits, in colex order, are packed ``width``
        to a byte into its low bits, first bit highest (graph6 packs 6,
        BRC1 8).  ``packed`` is one bytes-like object or an iterator of
        them, which is read only as far as each decoder stripe needs and
        then to its end: only the entries of one stripe are held at a
        time.  Each stripe of the lower triangle is packed into its own
        rows and, transposed, into the same columns of every row, so the
        words are symmetric by construction."""
        nbits = n * (n - 1) // 2
        pieces = iter([packed] if isinstance(packed, (bytes, bytearray, np.ndarray)) else packed)
        held, skipped = np.zeros(0, dtype=np.uint8), 0  # the entries from index skipped on
        out = np.zeros((n, (n + 63) // 64 * 8), dtype=np.uint8)
        for r0, r1, lower in _stripes(n):
            a, b = r0 * (r0 - 1) // 2 - width * skipped, r1 * (r1 - 1) // 2 - width * skipped
            while len(held) < -(-b // width) and (piece := next(pieces, None)) is not None:
                more = np.frombuffer(piece, dtype=np.uint8)
                held = np.concatenate([held, more]) if len(held) else more
            if len(held) < -(-b // width):
                break
            stripe = np.zeros(lower.shape, dtype=bool)
            stripe[lower] = _bit_range(held, width, a, b)
            out[r0:r1, : (n + 7) // 8] |= np.packbits(stripe, axis=1, bitorder="little")
            out[:, r0 // 8 : (r1 + 7) // 8] |= np.packbits(stripe.T.copy(), axis=1, bitorder="little")
            held, skipped = held[b // width :], skipped + b // width
        size, got = -(-nbits // width), skipped + len(held) + sum(map(len, pieces))
        if got != size:
            raise ValueError(f"expected {size} entries for {nbits} edge bits, got {got}")
        return cls._of_words(n, out.view("<u8"))

    # ---------------------------------------------------------------- graph6

    @classmethod
    def from_graph6(cls, text: str, line: int = 1, start: int = 0, end: int | None = None) -> "Graph":
        """Decode one graph6 line, text[start:end]; tolerates the optional
        format header.  The line is checked and held once, as bytes
        (``graph6.graph6_data``), and those less 63, in place, are the
        packed pair bits."""
        n, data = graph6_data(text, line, start, end)
        bits = np.frombuffer(data, dtype=np.uint8)
        bits -= 63
        return cls.from_colex_bits(n, bits, width=6)


# ------------------------------------------------------------ word helpers


def _pack(adj: np.ndarray) -> np.ndarray:
    """Rows of a bool matrix as word rows, zero past its last column."""
    out = np.zeros((adj.shape[0], (adj.shape[1] + 63) // 64 * 8), dtype=np.uint8)
    out[:, : (adj.shape[1] + 7) // 8] = np.packbits(adj, axis=1, bitorder="little")
    return out.view("<u8")


def _unpack(words: np.ndarray, n: int) -> np.ndarray:
    """Word rows as a (len(words), n) bool matrix."""
    return np.unpackbits(words.view(np.uint8), axis=1, count=n, bitorder="little").view(bool)


def _bit_range(packed: np.ndarray, width: int, a: int, b: int) -> np.ndarray:
    """Bits a..b-1 of uint8s holding ``width`` bits each, highest first."""
    chunk = packed[a // width : -(-b // width)] << (8 - width)
    bits = np.unpackbits(chunk[:, None], axis=1, count=width).ravel()
    return bits[a % width : a % width + b - a].view(bool)


def _stripes(n: int) -> Iterator[tuple[int, int, np.ndarray]]:
    """(r0, r1, mask of the strict lower triangle in rows r0..r1-1) for
    the decoder stripes: _STRIPE / 4 rows, a multiple of 8, so that a
    stripe's columns start on a byte of the word rows."""
    rows = 8 * max(1, _STRIPE // 32)
    for r0 in range(0, n, rows):
        r1 = min(r0 + rows, n)
        yield r0, r1, np.arange(n) < np.arange(r0, r1)[:, None]


def _codegree_tiles(words: np.ndarray, n: int) -> Iterator[tuple]:
    """The codegrees of the pairs (u, v), u < v, of the graph with these
    word rows, in tiles of _STRIPE rows by _STRIPE columns: row stripes
    in order, each against the column stripes from its own on.

    Yields (r0, c0, c, cc, edge, other) for the tile of rows r0.. and
    columns c0..: the codegrees c, the codegrees in the complement
    cc = n - 2 - d(u) - d(v) + c (meaningful at non-edges), and the masks
    of the edges and of the non-edges u < v.  Stripe rows are unpacked
    to 0/1 float32 through a 256-entry byte table in column chunks of
    whole words, _STRIPE bits wide (256; 64 at least), so that
    np.take's intp copy of a chunk's bytes stays small; the edge masks of
    a tile come from its words.  A tile adds one product per chunk.

    While n <= _FOLD = 4096, the m rows of a row stripe are folded into
    h = ceil(m/2) operand rows: row i is lo + 4096 hi for lo row i and hi
    row h + i (at odd m, row h - 1 stands alone).  The folded operand is
    built from the words for each tile and chunk: the lo rows through the
    byte table, then the hi rows through the same table times 4096, added
    in, before the column rows take the chunk buffer.  Row i of the
    product p of those h rows is decoded as hi = floor(p / 4096) into row
    h + i and lo = p - 4096 hi into row i.  From n = 4097 on, the fold
    factor is 1 and h = m: the plain product on the same path.  All
    arrays are rebuilt for each tile, so a caller may overwrite them.

    Memory: the folded chunk of h rows, the chunk of a stripe's rows with
    its intp index copy, and two float32 tiles; no buffer spans the full
    width.  At n = 3000 that is 0.13, 0.26, 0.07 and 2 x 0.26 MB, and
    ``books`` and ``part_codegrees`` each peak at 1.4 MB under
    tracemalloc (1.5 and 1.9 MB at n = 8190).
    """
    # Every product of these rows, and every term of the complement
    # identity, is an integer of magnitude at most 2n, so float32 is
    # exact, in any summation order and so for any BLAS thread count.
    # A folded product is lo + 4096 hi, where lo and hi are codegrees or,
    # where a row of a diagonal tile meets itself, its degree: at most
    # n - 1 <= 4095, so it and its partial sums stay below 2**24, exact.
    assert 2 * n < 1 << 24, "float32 codegrees are exact only below 2**24"
    byte_bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little").astype(np.float32)
    hi_bits = byte_bits * _FOLD
    degree = np.bitwise_count(words).sum(axis=1).astype(np.float32)
    s = min(_STRIPE, n)
    fold = 2 if n <= _FOLD else 1
    width, span = 64 * words.shape[1], 64 * max(1, _STRIPE // 64)
    chunks = [(x, min(x + span, width)) for x in range(0, n, span)]
    left = np.empty(-(-s // fold) * min(span, width), dtype=np.float32)
    chunk = np.empty(s * min(span, width), dtype=np.float32)
    scratch = np.empty((2, s * s), dtype=np.float32)

    def unpack(r0: int, r1: int, x: int, y: int, out: np.ndarray = chunk, bits: np.ndarray = byte_bits) -> np.ndarray:
        """Columns x..y-1, whole words, of word rows r0..r1-1 as bits
        (0/1, or 0/4096 with hi_bits) in out."""
        index = words[r0:r1, x >> 6 : y >> 6].view(np.uint8)
        out = out[: (r1 - r0) * (y - x)].reshape(r1 - r0, y - x)
        np.take(bits, index, axis=0, out=out.reshape(*index.shape, 8), mode="clip")
        return out

    for r0 in range(0, n, _STRIPE):
        m = min(_STRIPE, n - r0)
        h = -(-m // fold)
        for c0 in range(r0, n, _STRIPE):
            shape = (m, min(_STRIPE, n - c0))
            c, cc = (a[: shape[0] * shape[1]].reshape(shape) for a in scratch)
            c[:h] = 0
            for x, y in chunks:
                lhs = unpack(r0, r0 + h, x, y, left)
                if m > h:
                    lhs[: m - h] += unpack(r0 + h, r0 + m, x, y, bits=hi_bits)
                c[:h] += np.matmul(lhs, unpack(c0, c0 + shape[1], x, y).T, out=cc[:h])
            np.floor(np.divide(c[: m - h], _FOLD, out=c[h:]), out=c[h:])
            c[: m - h] -= np.multiply(c[h:], _FOLD, out=cc[: m - h])
            np.add(degree[r0 : r0 + m, None], degree[None, c0 : c0 + shape[1]] - (n - 2), out=cc)
            np.subtract(c, cc, out=cc)
            edge = _unpack(words[r0 : r0 + m, c0 >> 6 :], c0 % 64 + shape[1])[:, c0 % 64 :]
            other = ~edge
            if c0 == r0:
                low = np.tri(m, dtype=bool)
                edge[low] = other[low] = False
            yield r0, c0, c, cc, edge, other
