"""Dense simple graphs over [n] with bit-row adjacency.

Each vertex u owns one Python integer whose bit v is set iff u ~ v, so a
single codegree is a big-int AND plus popcount.  Whole-graph scans
(booksize, and the first-book search behind ``ramsey.check_coloring``)
share one kernel over the same rows packed into little-endian uint64
words: vertex u ANDs its word row against the rows of its later
neighbours and popcounts with ``np.bitwise_count``.  Validation and the
matrix interchange work on the (n, n) bool adjacency matrix.  Graphs are
immutable after construction and every operation here is pure; instances
may be shared freely across threads.

Also owns the colex codec: the C(n, 2) vertex pairs in colex order,
which is the row-major strict lower triangle of the matrix.  graph6
(read and written here, short form n <= 62 and long form n <= 258047)
and BRC1 (``colorings``) both store their edge bits in this order.  The
decoder reads graphs of at most GRAPH6_ORDER_CAP vertices: it builds
(n, n) bool matrices, several times n^2 bytes at once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import CapacityError, ParseError

GRAPH6_HEADER = ">>graph6<<"
GRAPH6_ORDER_CAP = 1 << 13  # a decode at the cap peaks near 270 MB
_NOT_GRAPH6 = re.compile("[^?-~]")  # graph6 characters are chr(63)..chr(126)


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
        common = g.rows[u] & g.rows[v]
        return cls(base=(min(u, v), max(u, v)), pages=frozenset(bits_of(common)))

    def validate(self, g: "Graph") -> None:
        u, v = self.base
        if not g.has_edge(u, v):
            raise ValueError("certificate base is not an edge")
        for w in self.pages:
            if not (g.has_edge(u, w) and g.has_edge(v, w)):
                raise ValueError(f"page {w} is not adjacent to both base endpoints")


class Graph:
    """Immutable dense simple graph on vertex set {0, ..., n-1}."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: Sequence[int]):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if len(rows) != n:
            raise ValueError(f"expected {n} adjacency rows, got {len(rows)}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", tuple(rows))

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    # ---------------------------------------------------------------- build

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n, [0] * n)

    @classmethod
    def complete(cls, n: int) -> "Graph":
        full = (1 << n) - 1
        return cls(n, [full ^ (1 << u) for u in range(n)])

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, rows)

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        return cls.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def complete_bipartite(cls, a: int, b: int) -> "Graph":
        left = vertex_mask(range(a))
        right = vertex_mask(range(a, a + b))
        rows = [right] * a + [left] * b
        return cls(a + b, rows)

    @classmethod
    def from_rows(cls, n: int, rows: Sequence[int]) -> "Graph":
        g = cls(n, rows)
        g.validate()
        return g

    def validate(self) -> None:
        """Check row width, irreflexivity and symmetry.

        The first bad row u is reported: bits beyond the vertex range
        first, then a loop, then the least v with u -> v but not v -> u.
        """
        n = self.n
        full = (1 << n) - 1
        wide = [u for u, row in enumerate(self.rows) if row & ~full]
        rows = [row & full for row in self.rows] if wide else self.rows
        _check_adjacency(_bool_matrix(n, rows), wide)

    # ---------------------------------------------------------------- query

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.rows[u] >> v & 1)

    def degree(self, u: int) -> int:
        self._check_vertex(u)
        return self.rows[u].bit_count()

    def neighbors(self, u: int) -> Iterator[int]:
        self._check_vertex(u)
        return bits_of(self.rows[u])

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges (u, v) with u < v, lexicographically ordered."""
        for u in range(self.n):
            row = self.rows[u] >> (u + 1) << (u + 1)
            for v in bits_of(row):
                yield (u, v)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.rows) // 2

    def _check_vertex(self, u: int) -> None:
        if not 0 <= u < self.n:
            raise ValueError(f"vertex {u} out of range for n={self.n}")

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"

    # ------------------------------------------------------------ operations

    def codegree(self, u: int, v: int) -> int:
        """Number of common neighbors of two distinct vertices."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ValueError("codegree requires two distinct vertices")
        return (self.rows[u] & self.rows[v]).bit_count()

    def booksize(self) -> tuple[int, BookCertificate | None]:
        """Largest book size together with a witnessing certificate.

        Returns (0, None) for an edgeless graph.  Ties are broken toward
        the lexicographically least base edge, so output is deterministic.
        """
        found = _book_scan(self)
        if found is None:
            return 0, None
        size, u, v = found
        return size, BookCertificate.from_base(self, u, v)

    def mean_book_size(self, bases: Iterable[tuple[int, int]]) -> Fraction:
        """Exact average codegree over a set of base edges.

        Kept rational so theorem-backed inequalities can be compared
        without floating-point slack.
        """
        total = 0
        count = 0
        for u, v in bases:
            if not self.has_edge(u, v):
                raise ValueError(f"base ({u},{v}) is not an edge")
            total += self.codegree(u, v)
            count += 1
        if count == 0:
            raise ValueError("mean_book_size requires a nonempty base set")
        return Fraction(total, count)

    def complement(self) -> "Graph":
        full = (1 << self.n) - 1
        return Graph(self.n, [row ^ full ^ (1 << u) for u, row in enumerate(self.rows)])

    def cut_and_induced_counts(
        self, X: Iterable[int], Y: Iterable[int]
    ) -> tuple[int, int, int]:
        """(e(X), e(Y), e(X,Y)) for disjoint vertex sets X, Y."""
        mx = vertex_mask(X)
        my = vertex_mask(Y)
        if mx & my:
            raise ValueError("X and Y must be disjoint")
        ex = sum((self.rows[u] & mx).bit_count() for u in bits_of(mx)) // 2
        ey = sum((self.rows[u] & my).bit_count() for u in bits_of(my)) // 2
        exy = sum((self.rows[u] & my).bit_count() for u in bits_of(mx))
        return ex, ey, exy

    def edges_within(self, X: Iterable[int]) -> int:
        mx = vertex_mask(X)
        return sum((self.rows[u] & mx).bit_count() for u in bits_of(mx)) // 2

    def min_degree_induced(self, U: Iterable[int]) -> int:
        """Minimum degree of the subgraph induced by a nonempty set U."""
        mu = vertex_mask(U)
        if mu == 0:
            raise ValueError("min_degree_induced requires a nonempty set")
        return min((self.rows[u] & mu).bit_count() for u in bits_of(mu))

    # ------------------------------------------------------------- numpy I/O

    def to_bool_matrix(self) -> np.ndarray:
        """Adjacency as an (n, n) uint8 0/1 matrix."""
        return _bool_matrix(self.n, self.rows).view(np.uint8)

    @classmethod
    def from_bool_matrix(cls, m: np.ndarray) -> "Graph":
        """Graph of a square matrix whose nonzero entries are edges,
        checked as ``validate`` checks rows."""
        adj = np.asarray(m) != 0
        n = adj.shape[0]
        if adj.shape != (n, n):
            raise ValueError("adjacency matrix must be square")
        _check_adjacency(adj)
        packed = np.packbits(adj, axis=1, bitorder="little")
        rows = [int.from_bytes(packed[u].tobytes(), "little") for u in range(n)]
        return cls(n, rows)

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
        bits = _colex_bits(self)
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
        bits = np.unpackbits(data[:, None], axis=1)[:, 2:].ravel()
        if bits[nbits:].any():
            raise ParseError("nonzero padding bits in graph6 data", line=line, offset=len(s))
        return _from_colex_bits(n, bits[:nbits])


# ------------------------------------------------------------ colex codec
# Pair (i, j), i < j, has colex index j(j-1)/2 + i: the row-major order of
# the strict lower triangle, np.tri(n, k=-1).


def _colex_bits(g: Graph) -> np.ndarray:
    """Edge indicators of ``g`` over all C(n, 2) pairs in colex order."""
    return g.to_bool_matrix().view(bool)[np.tri(g.n, k=-1, dtype=bool)]


def _from_colex_bits(n: int, bits) -> Graph:
    """Inverse of ``_colex_bits``: the graph whose colex pair k is bits[k]."""
    m = n * (n - 1) // 2
    if len(bits) != m:
        raise ValueError(f"expected {m} edge bits, got {len(bits)}")
    adj = np.zeros((n, n), dtype=bool)
    adj[np.tri(n, k=-1, dtype=bool)] = bits
    adj |= adj.T
    return Graph.from_bool_matrix(adj)


# ------------------------------------------------------------ word kernels


def _packed_words(n: int, rows: Sequence[int]) -> np.ndarray:
    """Rows as a (len(rows), ceil(n/64)) array of little-endian uint64 words."""
    nwords = (n + 63) // 64
    buf = b"".join(row.to_bytes(8 * nwords, "little") for row in rows)
    return np.frombuffer(buf, dtype="<u8").reshape(len(rows), nwords)


def _bool_matrix(n: int, rows: Sequence[int]) -> np.ndarray:
    """Rows as a (len(rows), n) bool matrix; every row must fit in n bits."""
    bits = np.unpackbits(
        _packed_words(n, rows).view(np.uint8), axis=1, count=n, bitorder="little"
    )
    return bits.view(bool)


def _check_adjacency(adj: np.ndarray, wide: Sequence[int] = ()) -> None:
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


def _book_scan(g: Graph, at_least: int | None = None) -> tuple[int, int, int] | None:
    """Codegree scan over the edges (u, v), u < v, in lexicographic order.

    Returns (codegree, u, v).  Without ``at_least``: the largest codegree
    at its lexicographically least base, or None for an edgeless graph.
    With it: the first base whose codegree is at least ``at_least``,
    stopping there, or None when no base reaches it.

    Vertex u ANDs its packed row against the rows of its neighbours
    v > u and popcounts each, so temporary memory stays within
    O(n * ceil(n/64)) words.
    """
    n = g.n
    words = _packed_words(n, g.rows)
    best = None
    for u in range(n - 1):
        mine = np.unpackbits(words[u].view(np.uint8), count=n, bitorder="little")
        later = np.flatnonzero(mine[u + 1 :]) + (u + 1)
        if later.size == 0:
            continue
        counts = np.bitwise_count(words[later] & words[u]).sum(axis=1)
        if at_least is None:
            k = int(counts.argmax())
            if best is None or counts[k] > best[0]:
                best = (int(counts[k]), u, int(later[k]))
        else:
            hits = np.flatnonzero(counts >= at_least)
            if hits.size:
                k = int(hits[0])
                return int(counts[k]), u, int(later[k])
    return best


def read_graph6_file(path) -> Graph:
    """Read the first graph6 graph from a file."""
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            s = raw.strip()
            if s:
                return Graph.from_graph6(s, line=lineno)
    raise ParseError("no graph6 data found", line=1)


def write_graph6_file(path, g: Graph) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(g.to_graph6() + "\n")
