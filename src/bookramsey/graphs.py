"""Dense simple graphs over [n], stored as packed adjacency words.

A graph is one read-only (n, ceil(n/64)) array of little-endian uint64
words: bit v of row u is set iff u ~ v, and the padding bits past n stay
zero.  Other modules never read the words bit by bit; they ask for
codegrees, for edge counts between vertex sets (``edges_between``,
``degrees_into``), or for the bool matrix of a few rows against a few
columns (``adjacency``).  ``booksize`` (graph6 ``bk``) scans one
graph's edges itself, ANDing word rows, so its cost grows with the edge
count.  ``books`` reads the books of the graph and of its complement
(both booksizes, or the red-first book search behind
``ramsey.check_coloring``) from one tiled float32 codegree product over
all pairs, exact whatever the BLAS summation order or thread count
because its sums are integers below 2**24.  ``part_codegrees`` (the
``stats`` command) shares that tile walk, ``_row_stripes``, and sums
the codegrees by part pair.  ``Graph(n, rows)``, the one checked
constructor, checks outside int rows once; decoding and the
constructions build valid words and skip the check.  Graphs are immutable; share them freely.

Also owns the colex codec: the C(n, 2) vertex pairs in colex order,
which is the row-major strict lower triangle of the matrix.  graph6
(short form n <= 62, long form n <= 258047) and BRC1 (``colorings``)
store their edge bits in this order; both read orders up to
GRAPH6_ORDER_CAP.  The codec goes _STRIPE rows at a time and unpacks
only the edge bits of the stripe at hand, so it holds the input, the
words and O(_STRIPE n) bytes.
"""

from __future__ import annotations

import re
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import CapacityError, ParseError

GRAPH6_HEADER = ">>graph6<<"
GRAPH6_ORDER_CAP = 1 << 13  # decoding at the cap: ~0.6 s, 61 MB peak RSS (2 cores, numpy 2.4)
_NOT_GRAPH6 = re.compile("[^?-~]")  # graph6 characters are chr(63)..chr(126)
_STRIPE = 256  # rows per codec step and per codegree-product tile; a multiple of 8


def vertex_mask(vertices: Iterable[int]) -> int:
    """Bitmask with one bit per vertex index."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits_of(mask: int) -> Iterator[int]:
    """Yield set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class BookCertificate:
    """Witness that a graph contains a book of the stated size.

    ``pages`` is exactly the common neighborhood of the base endpoints,
    so ``size == len(pages)`` and every page forms a triangle with the
    base edge.
    """

    base: tuple[int, int]
    pages: frozenset[int]

    @property
    def size(self) -> int:
        return len(self.pages)

    @classmethod
    def from_base(cls, g: "Graph", u: int, v: int) -> "BookCertificate":
        if not g.has_edge(u, v):
            raise ValueError(f"base ({u},{v}) is not an edge")
        common = np.flatnonzero(g.adjacency([u, v]).all(axis=0))
        return cls(base=(min(u, v), max(u, v)), pages=frozenset(common.tolist()))

    def validate(self, g: "Graph") -> None:
        u, v = self.base
        if not g.has_edge(u, v):
            raise ValueError("certificate base is not an edge")
        for w in self.pages:
            if not (g.has_edge(u, w) and g.has_edge(v, w)):
                raise ValueError(f"page {w} is not adjacent to both base endpoints")


class Graph:
    """Immutable dense simple graph on vertex set {0, ..., n-1}."""

    __slots__ = ("n", "words")

    def __init__(self, n: int, rows: Sequence[int]):
        """Graph of int bitset rows (bit v of rows[u] set iff u ~ v).

        The first bad row u is reported: bits beyond the vertex range
        first, then a loop, then the least v with u -> v but not v -> u.
        """
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if len(rows) != n:
            raise ValueError(f"expected {n} adjacency rows, got {len(rows)}")
        full = (1 << n) - 1
        wide = [u for u, row in enumerate(rows) if row & ~full]
        nwords = (n + 63) // 64
        buf = b"".join((row & full).to_bytes(8 * nwords, "little") for row in rows)
        words = np.frombuffer(buf, dtype="<u8").reshape(n, nwords)
        _check_adjacency(_unpack(words, n), wide)
        self._bind(n, words)

    def _bind(self, n: int, words: np.ndarray) -> "Graph":
        words.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "words", words)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @property
    def rows(self) -> tuple[int, ...]:
        """Adjacency as Python-int bitsets, derived from the words."""
        return tuple(int.from_bytes(row.tobytes(), "little") for row in self.words)

    # ---------------------------------------------------------------- build
    # These build words that are valid by construction, unchecked.

    @classmethod
    def _of_words(cls, n: int, words: np.ndarray) -> "Graph":
        return object.__new__(cls)._bind(n, words)

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls._of_words(n, np.zeros((n, (n + 63) // 64), dtype="<u8"))

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls.empty(n).complement()

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        index = array("q")  # colex indices, 8 bytes each
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            index.append(u * (u - 1) // 2 + v if u > v else v * (v - 1) // 2 + u)
        bits = np.zeros(n * (n - 1) // 2, dtype=bool)
        bits[np.frombuffer(index, dtype=np.int64)] = True
        return cls.from_colex_bits(n, bits)

    @classmethod
    def complete_bipartite(cls, a: int, b: int) -> "Graph":
        left = np.arange(a + b) < a
        return cls._of_words(a + b, _pack(left[:, None] != left[None, :]))

    # ---------------------------------------------------------------- query

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(int(self.words[u, v >> 6]) >> (v & 63) & 1)

    def degree(self, u: int) -> int:
        self._check_vertex(u)
        return int(np.bitwise_count(self.words[u]).sum())

    def neighbors(self, u: int) -> Iterator[int]:
        self._check_vertex(u)
        return iter(np.flatnonzero(self.adjacency([u])[0]).tolist())

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges (u, v) with u < v, lexicographically ordered."""
        for u in range(self.n):
            yield from ((u, v) for v in self.neighbors(u) if v > u)

    def edge_count(self) -> int:
        return int(np.bitwise_count(self.words).sum()) // 2

    def adjacency(self, rows: Sequence[int] | None = None, cols: Sequence[int] | None = None) -> np.ndarray:
        """Bool matrix set at [i, j] iff rows[i] ~ cols[j]; None is every vertex."""
        adj = _unpack(self.words if rows is None else self.words[np.asarray(rows, dtype=np.intp)], self.n)
        return adj if cols is None else adj[:, np.asarray(cols, dtype=np.intp)]

    def degrees_into(self, Y: Sequence[int], X: Sequence[int] | None = None) -> np.ndarray:
        """|N(x) cap Y| for each x in X (every vertex when None), as intp."""
        member = np.zeros((1, self.n), dtype=bool)
        member[0, np.asarray(Y, dtype=np.intp)] = True
        words = self.words if X is None else self.words[np.asarray(X, dtype=np.intp)]
        return np.bitwise_count(words & _pack(member)).sum(axis=1, dtype=np.intp)

    def edges_between(self, X: Sequence[int], Y: Sequence[int]) -> int:
        """Sum over x in X of |N(x) cap Y|: e(X, Y) for disjoint sets, 2 e(X) for Y = X."""
        return int(self.degrees_into(Y, X).sum())

    def min_degree_induced(self, U: Iterable[int]) -> int:
        """Minimum degree of the subgraph induced by U; 0 when U is empty."""
        U = sorted(set(U))
        return int(self.degrees_into(U, U).min()) if U else 0

    def _check_vertex(self, u: int) -> None:
        if not 0 <= u < self.n:
            raise ValueError(f"vertex {u} out of range for n={self.n}")

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and np.array_equal(self.words, other.words)

    def __hash__(self) -> int:
        return hash((self.n, self.words.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"

    # ------------------------------------------------------------ operations

    def codegree(self, u: int, v: int) -> int:
        """Number of common neighbors of two distinct vertices."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ValueError("codegree requires two distinct vertices")
        return int(np.bitwise_count(self.words[u] & self.words[v]).sum())

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
        return (best[0], BookCertificate.from_base(self, best[1], best[2])) if best else (0, None)

    def books(self, at_least: tuple[int, int] | None = None) -> tuple[tuple, tuple]:
        """Books of this graph (blue) and of its complement (red) from one
        codegree pass over all pairs: ((size, certificate) blue,
        (size, certificate) red), with (0, None) where there is none.

        Without ``at_least``, each colour's largest book at its
        lexicographically least base edge, as ``booksize`` gives it.
        With page targets ``at_least = (blue, red)``, red goes first: the
        first red base edge in lexicographic order whose book reaches the
        red target, where the scan stops; only when there is none, the
        first blue base edge whose book reaches the blue target.  The
        other colour reads (0, None).
        """
        blue, red = _codegree_product(self, at_least)
        blue = blue and BookCertificate.from_base(self, *blue)
        red = red and BookCertificate.from_base(self.complement(), *red)
        return tuple((cert.size, cert) if cert else (0, None) for cert in (blue, red))

    def part_codegrees(self, parts: Sequence[Sequence[int]]) -> list[list[int]]:
        """Codegree totals over the pairs u < v against a split of the
        vertices into three parts, class by class: edges inside a part,
        edges across two, then non-edges inside and across, whose
        codegrees are counted in the complement.  Each class gives
        [pairs, codegree sum, largest codegree or 0, pages in the part
        that holds neither end], the last 0 inside a part.

        The vertices are relabelled, a stripe at a time, so that the
        parts are contiguous, and the pairs go tile by tile through
        ``_row_stripes`` as in ``books``.  A tile's codegrees are the sum
        of three float32 products, one over each part's columns.  Cut at
        the part boundaries into sub-tiles of parts (a, b), the product
        over part 3 - a - b gives the third-part pages of a cross pair,
        and a non-edge takes n - 2 - d(u) - d(v) plus its codegree.  The
        totals are int64 sums, exact.
        """
        n = self.n
        order = np.concatenate([np.asarray(p, dtype=np.intp) for p in parts])
        bounds = np.cumsum([0] + [len(p) for p in parts]).tolist()
        words = np.empty_like(self.words)
        for r0 in range(0, n, _STRIPE):
            words[r0 : r0 + _STRIPE] = _pack(self.adjacency(order[r0 : r0 + _STRIPE], order))
        degree = np.bitwise_count(words).sum(axis=1).astype(np.float32)
        s = min(_STRIPE, n)
        scratch = np.empty((5, s * s), dtype=np.float32)  # one product per part, codegrees, non-edge codegrees
        masks = np.empty((2, s * s), dtype=bool)
        out = np.zeros((4, 4), dtype=np.int64)

        def pieces(lo: int, hi: int) -> list[tuple[int, slice]]:
            """(part, slice from lo) of each part that meets lo..hi-1."""
            cuts = [(k, max(lo, bounds[k]), min(hi, bounds[k + 1])) for k in range(3)]
            return [(k, slice(a - lo, b - lo)) for k, a, b in cuts if a < b]

        for r0, r1, left, tiles in _row_stripes(words, n):
            for c0, c1, right in tiles:
                shape = (r1 - r0, c1 - c0)
                *by_part, cr, co, edge, other = (a[: shape[0] * shape[1]].reshape(shape) for a in (*scratch, *masks))
                for k in range(3):
                    cols = slice(bounds[k], bounds[k + 1])
                    np.matmul(left[:, cols], right[:, cols].T, out=by_part[k])
                np.add(by_part[0], by_part[1], out=cr)
                cr += by_part[2]
                np.add(degree[r0:r1, None], degree[None, c0:c1] - (n - 2), out=co)
                np.subtract(cr, co, out=co)
                np.greater(left[:, c0:c1], 0, out=edge)
                np.logical_not(edge, out=other)
                if c0 == r0:
                    low = np.tri(r1 - r0, dtype=bool)
                    edge[low] = other[low] = False
                for a, rows in pieces(r0, r1):
                    for b, cols in pieces(c0, c1):
                        cross = int(a != b)
                        for total, mask, value in ((out[cross], edge, cr), (out[2 + cross], other, co)):
                            picked = value[rows, cols][mask[rows, cols]]
                            if picked.size:
                                total[:2] += picked.size, picked.sum(dtype=np.int64)
                                total[2] = max(total[2], picked.max())
                        if cross:
                            out[1, 3] += by_part[3 - a - b][rows, cols][edge[rows, cols]].sum(dtype=np.int64)
        return out.tolist()

    def complement(self) -> "Graph":
        n, loops = self.n, np.arange(self.n)
        words = ~self.words & _pack(np.ones((1, n), dtype=bool))
        words[loops, loops >> 6] ^= np.left_shift(np.uint64(1), (loops & 63).astype(np.uint64))
        return Graph._of_words(n, words)

    # ----------------------------------------------------------- colex codec
    # Pair (i, j), i < j, has colex index j(j-1)/2 + i.

    def colex_bits(self) -> np.ndarray:
        """Edge indicators over all C(n, 2) pairs in colex order."""
        bits = np.zeros(self.n * (self.n - 1) // 2, dtype=bool)
        for r0, r1, lower in _stripes(self.n):
            bits[r0 * (r0 - 1) // 2 : r1 * (r1 - 1) // 2] = self.adjacency(range(r0, r1))[lower]
        return bits

    @classmethod
    def from_colex_bits(cls, n: int, bits: np.ndarray, width: int | None = None) -> "Graph":
        """Inverse of ``colex_bits``.  ``bits`` holds one indicator per pair
        or, given ``width``, packs ``width`` of them into the low bits of
        each uint8, first indicator highest (graph6 packs 6, BRC1 8); only
        one stripe's range is then unpacked at a time.  Each stripe of the
        lower triangle is packed into its own rows and, transposed, into
        the same columns of every row, so the words are symmetric by
        construction."""
        nbits = n * (n - 1) // 2
        if width is None:
            size, take = nbits, lambda a, b: bits[a:b]
        else:
            size, take = -(-nbits // width), lambda a, b: _bit_range(bits, width, a, b)
        if len(bits) != size:
            raise ValueError(f"expected {size} entries for {nbits} edge bits, got {len(bits)}")
        out = np.zeros((n, (n + 63) // 64 * 8), dtype=np.uint8)
        for r0, r1, lower in _stripes(n):
            stripe = np.zeros(lower.shape, dtype=bool)
            stripe[lower] = take(r0 * (r0 - 1) // 2, r1 * (r1 - 1) // 2)
            out[r0:r1, : (n + 7) // 8] |= np.packbits(stripe, axis=1, bitorder="little")
            out[:, r0 // 8 : (r1 + 7) // 8] |= np.packbits(stripe.T, axis=1, bitorder="little")
        return cls._of_words(n, out.view("<u8"))

    # ---------------------------------------------------------------- graph6

    def to_graph6(self) -> str:
        """Encode in graph6 format (no header, no trailing newline)."""
        n = self.n
        if n <= 62:
            prefix = chr(n + 63)
        elif n <= 258047:
            prefix = "~" + "".join(
                chr(((n >> shift) & 63) + 63) for shift in (12, 6, 0)
            )
        else:
            raise ValueError("graph6 supports at most 258047 vertices here")
        bits = self.colex_bits()
        six = np.pad(bits, (0, -len(bits) % 6)).reshape(-1, 6)
        vals = np.packbits(six, axis=1).ravel() >> 2
        return prefix + (vals + 63).tobytes().decode("ascii")

    @classmethod
    def from_graph6(cls, text: str, line: int = 1) -> "Graph":
        """Decode one graph6 line; tolerates the optional format header."""
        s = text.strip()
        if s.startswith(GRAPH6_HEADER):
            s = s[len(GRAPH6_HEADER) :]
        if not s:
            raise ParseError("empty graph6 string", line=line)
        bad = _NOT_GRAPH6.search(s)
        if bad:
            msg = f"invalid graph6 character {bad.group()!r}"
            raise ParseError(msg, line=line, offset=bad.start())
        vals = np.frombuffer(s.encode("ascii"), dtype=np.uint8) - 63
        if vals[0] < 63:
            n = int(vals[0])
            data = vals[1:]
        else:
            if len(vals) < 4 or vals[1] == 63:
                raise ParseError("truncated graph6 vertex count", line=line, offset=0)
            n = int(vals[1]) << 12 | int(vals[2]) << 6 | int(vals[3])
            data = vals[4:]
        if n > GRAPH6_ORDER_CAP:
            raise CapacityError(f"graph6 order {n} is above the cap of {GRAPH6_ORDER_CAP} vertices")
        nbits = n * (n - 1) // 2
        if len(data) != (nbits + 5) // 6:
            raise ParseError(
                f"graph6 data length {len(data)} does not match n={n}",
                line=line,
                offset=len(s),
            )
        if _bit_range(data, 6, nbits, 6 * len(data)).any():
            raise ParseError("nonzero padding bits in graph6 data", line=line, offset=len(s))
        return cls.from_colex_bits(n, data, width=6)


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
    """(r0, r1, mask of the strict lower triangle in rows r0..r1-1)."""
    for r0 in range(0, n, _STRIPE):
        r1 = min(r0 + _STRIPE, n)
        yield r0, r1, np.arange(n) < np.arange(r0, r1)[:, None]


def _check_adjacency(adj: np.ndarray, wide: Sequence[int]) -> None:
    """Raise ValueError for the first bad row of a bool adjacency matrix.

    ``wide`` lists the rows that had bits beyond the vertex range; within
    a row that error comes first, then a loop, then the least v with
    u -> v but not v -> u.
    """
    loops = np.diagonal(adj)
    bad = loops | (adj > adj.T).any(axis=1)
    bad[list(wide)] = True
    if not bad.any():
        return
    u = int(bad.argmax())
    if u in wide:
        raise ValueError(f"row {u} has bits beyond vertex range")
    if loops[u]:
        raise ValueError(f"loop at vertex {u}")
    v = int((adj[u] > adj[:, u]).argmax())
    raise ValueError(f"adjacency not symmetric at ({u},{v})")


def _row_stripes(words: np.ndarray, n: int) -> Iterator[tuple[int, int, np.ndarray, Iterator]]:
    """The pairs (u, v), u < v, in tiles of _STRIPE rows by _STRIPE
    columns over the upper triangle, as 0/1 float32 word rows.

    Yields (r0, r1, left, tiles) per row stripe: ``left`` holds rows
    r0..r1-1, and ``tiles`` yields (c0, c1, right) for the column
    stripes c0 >= r0, ``right`` holding rows c0..c1-1; both are zero
    past column n.  Rows are unpacked through a 256-entry byte table
    into two stripe buffers allocated once, which the next yield of the
    same kind overwrites, so the walk holds O(_STRIPE n) memory.
    """
    # Every product of these rows, and every term of a complement
    # identity over them, is an integer of magnitude at most 2n, so
    # float32 is exact, in any summation order and so for any BLAS
    # thread count.
    assert 2 * n < 1 << 24, "float32 codegrees are exact only below 2**24"
    byte_bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little")
    byte_bits = byte_bits.astype(np.float32)
    stripes = np.empty((2, min(_STRIPE, n), 64 * words.shape[1]), dtype=np.float32)

    def rows(r0: int, r1: int, out: np.ndarray) -> np.ndarray:
        index = words[r0:r1].view(np.uint8)
        np.take(byte_bits, index, axis=0, out=out[: r1 - r0].reshape(*index.shape, 8), mode="clip")
        return out[: r1 - r0]

    def tiles(r0: int) -> Iterator[tuple[int, int, np.ndarray]]:
        for c0 in range(r0, n, _STRIPE):
            c1 = min(c0 + _STRIPE, n)
            yield c0, c1, rows(c0, c1, stripes[1])

    for r0 in range(0, n, _STRIPE):
        r1 = min(r0 + _STRIPE, n)
        yield r0, r1, rows(r0, r1, stripes[0]), tiles(r0)


def _codegree_product(g: Graph, at_least: tuple[int, int] | None = None) -> list:
    """Codegree scan of g (blue) and its complement (red) over all pairs
    (u, v), u < v, in lexicographic order; see ``Graph.books``.

    Returns [blue, red], each a base (u, v) or None.  The pairs go tile
    by tile through ``_row_stripes``; a tile's rows give the blue
    codegrees cb(u, v) as ``left @ right.T``.  One float32 array then
    holds both colours: cb at blue pairs, -1 - cr at red ones, with the
    complement identity cr(u, v) = n - 2 - d(u) - d(v) + cb(u, v) for
    non-adjacent u, v, and -0.5 at v <= u.  The blue key is that value,
    or whether it reaches the blue target; the red key is its negation,
    or whether it reaches the red one.  Each row keeps the first column
    of its largest key over the tiles, and a finished row stripe yields
    the first row of its largest key, so ties go to the
    lexicographically least base and a target is met at the first base
    that reaches it.  With targets the scan stops at the row stripe of
    the first red hit and drops any blue one.  Besides the walk's
    stripes, temporary memory is O(_STRIPE^2), allocated once.
    """
    n, words = g.n, g.words
    # scratch is allocated once, so the loop makes no large allocation
    # for the allocator to keep
    s = min(_STRIPE, n)
    scratch = np.empty((2, s * s), dtype=np.float32)
    mask = np.empty(s * s, dtype=bool)
    degree = np.bitwise_count(words).sum(axis=1).astype(np.float32)
    # a key must beat this to count: a blue pair (key cb >= 0), a red one
    # (key 1 + cr >= 1), or a reached target (key 1)
    best = [-0.5, 0.5] if at_least is None else [0.0, 0.0]
    found = [None, None]
    for r0, r1, left, tiles in _row_stripes(words, n):
        top = np.full((2, r1 - r0), -np.inf, dtype=np.float32)
        col = np.zeros((2, r1 - r0), dtype=np.intp)
        for c0, c1, right in tiles:
            shape = (r1 - r0, c1 - c0)
            cb, value, blue = (a[: shape[0] * shape[1]].reshape(shape) for a in (*scratch, mask))
            np.matmul(left, right.T, out=cb)
            np.add(degree[r0:r1, None], degree[None, c0:c1] - (n - 1), out=value)
            value -= cb
            np.copyto(value, cb, where=np.greater(left[:, c0:c1], 0, out=blue))
            if c0 == r0:
                value[np.tri(r1 - r0, dtype=bool)] = -0.5
            for k in (0, 1):
                if at_least is None:
                    key = value if k == 0 else np.negative(value, out=cb)
                elif k == 0:
                    key = np.greater_equal(value, at_least[0], out=blue)
                else:
                    key = np.less_equal(value, -1 - at_least[1], out=blue)
                most = key.max(axis=1)
                better = most > top[k]
                top[k][better] = most[better]
                col[k][better] = key.argmax(axis=1)[better] + c0
        for k in (0, 1):
            i = int(top[k].argmax())
            if top[k][i] > best[k]:
                best[k], found[k] = top[k][i], (r0 + i, int(col[k][i]))
        if at_least is not None and found[1] is not None:
            return [None, found[1]]
    return found
