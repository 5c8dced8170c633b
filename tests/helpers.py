"""Helpers shared by the test modules that the package itself does not need."""

from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from typing import Iterable

import numpy as np

from bookramsey import stability
from bookramsey.colex import index_bytes
from bookramsey.colorings import TwoColoring, brc1_text
from bookramsey.graph6 import graph6_data, graph6_pair_rows
from bookramsey.graphs import Graph
from bookramsey.numbers import as_fraction
from bookramsey.oracle import check_sides, first_witness, oracle_floors


def graph_of(m) -> Graph:
    """Graph of a symmetric square matrix with a zero diagonal whose
    nonzero entries are edges: its rows packed into words by numpy's own
    ``packbits``, not by the package's decoder, and bound by
    ``Graph._of_words``."""
    n = len(m)
    adj = np.asarray(m).reshape(n, n) != 0
    assert (adj == adj.T).all() and not adj.diagonal().any(), "not the adjacency matrix of a simple graph"
    words = np.zeros((n, (n + 63) // 64 * 8), dtype=np.uint8)
    words[:, : (n + 7) // 8] = np.packbits(adj, axis=1, bitorder="little")
    return Graph._of_words(n, words.view("<u8"))


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Graph on [n] with the given edges, checked for loops and range."""
    index = array("q")  # colex indices, 8 bytes each
    for u, v in edges:
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        index.append(u * (u - 1) // 2 + v if u > v else v * (v - 1) // 2 + u)
    bits = np.zeros(n * (n - 1) // 2, dtype=bool)
    bits[np.frombuffer(index, dtype=np.int64)] = True
    return Graph.from_colex_bits(n, np.packbits(bits), width=8)


def coloring_of_bits(n: int, bits) -> TwoColoring:
    """The coloring of K_n whose blue indicators, in colex order, are ``bits``."""
    return TwoColoring(Graph.from_colex_bits(n, np.packbits(np.asarray(bits, dtype=bool)), width=8))


def coloring_of_index(n: int, k: int) -> TwoColoring:
    """The coloring of K_n whose blue bit e is bit e of ``k`` (a blue index)."""
    return TwoColoring(Graph.from_colex_bits(n, index_bytes(k, n * (n - 1) // 2), width=8))


def empty_graph(n: int) -> Graph:
    """The edgeless graph on [n], through ``graph_of``."""
    return graph_of(np.zeros((n, n), dtype=bool))


def complete_graph(n: int) -> Graph:
    """K_n, through ``graph_of``."""
    return graph_of(~np.eye(n, dtype=bool))


def complement_of(g: Graph) -> Graph:
    """The complement of g, through ``graph_of``: the red graph of a
    coloring whose blue graph is g, built apart from the package's word
    code."""
    return graph_of(~g.adjacency() & ~np.eye(g.n, dtype=bool))


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b} on [a + b], the first a vertices on one side, through
    ``graph_of``."""
    left = np.arange(a + b) < a
    return graph_of(left[:, None] != left[None, :])


def colex_bytes(g: Graph) -> bytes:
    """The BRC1 bytes of g's edges: its colex bits (``colex_bools``), 8 to
    a byte, first bit highest, packed here rather than by the package."""
    return np.packbits(colex_bools(g)).tobytes()


def brc1_of(c: TwoColoring) -> str:
    """The BRC1 text of a coloring, as ``construct`` writes it."""
    return "".join(brc1_text(c.n, [colex_bytes(c.blue)]))


def to_graph6(g: Graph) -> str:
    """Encode in graph6 format (no header, no trailing newline)."""
    n = g.n
    if n <= 62:
        prefix = chr(n + 63)
    elif n <= 258047:
        prefix = "~" + "".join(chr(((n >> shift) & 63) + 63) for shift in (12, 6, 0))
    else:
        raise ValueError("graph6 supports at most 258047 vertices here")
    bits = colex_bools(g)
    six = np.pad(bits, (0, -len(bits) % 6)).reshape(-1, 6)
    vals = np.packbits(six, axis=1).ravel() >> 2
    return prefix + (vals + 63).tobytes().decode("ascii")


def rows_of(g: Graph):
    """The row source (``counting``) of g as the command line reads it:
    ``graph6_pair_rows`` on g's graph6 line."""
    _, data = graph6_data(to_graph6(g))
    return partial(graph6_pair_rows, data)


@dataclass(frozen=True)
class Pair:
    """Two disjoint vertex lists of a graph (``oracle.check_sides``): the
    sides of an oracle or search call, with the graph's row source."""

    host: Graph
    A: tuple[int, ...]
    B: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "A", tuple(self.A))
        object.__setattr__(self, "B", tuple(self.B))
        check_sides(self.A, self.B, self.host.n)

    @cached_property
    def rows(self):
        """``rows_of(host)``: the rows as the command line reads them."""
        return rows_of(self.host)

    @property
    def density(self) -> Fraction:
        return Fraction(sum(map(int.bit_count, self.rows(self.A, self.B))), len(self.A) * len(self.B))


def oracle_witness(pair, eps):
    """The exact oracle's first witness on a ``Pair``, or None: the
    command's ``oracle.first_witness`` on rows read by ``rows_of``, and
    its refusals, eps <= 0 and then a side above the cap
    (``oracle.oracle_floors``)."""
    eps = as_fraction(eps)
    oracle_floors(eps, len(pair.A), len(pair.B))
    return first_witness(pair.A, pair.B, pair.rows(pair.A, pair.B), eps)


# Vertex and edge queries over the bool matrix ``adjacency()``, not the
# packed words that the package's own counts read.


def adjacent(g: Graph, u: int, v: int) -> bool:
    return bool(g.adjacency([u], [v])[0, 0])


def degree(g: Graph, u: int) -> int:
    return int(g.adjacency([u]).sum())


def neighbors(g: Graph, u: int) -> list[int]:
    return np.flatnonzero(g.adjacency([u])[0]).tolist()


def codegree(g: Graph, u: int, v: int) -> int:
    return int(g.adjacency([u, v]).all(axis=0).sum())


def edge_list(g: Graph) -> list[tuple[int, int]]:
    """The edges (u, v), u < v, in lexicographic order."""
    return list(zip(*(a.tolist() for a in np.nonzero(np.triu(g.adjacency(), 1)))))


def check_certificate(cert, g: Graph) -> None:
    """Raise ValueError unless the base is an edge of g and every page is
    adjacent to both of its ends."""
    u, v = cert.base
    rows = g.adjacency([u, v])
    if not rows[0, v] or not cert.pages <= set(np.flatnonzero(rows.all(axis=0)).tolist()):
        raise ValueError(f"{cert} is not a book of the graph")


def colex_bools(g: Graph) -> np.ndarray:
    """The edge indicators of the C(n, 2) pairs in colex order."""
    lower = np.arange(g.n) < np.arange(g.n)[:, None]
    return g.adjacency()[lower]


# Set counts over the bool matrix ``adjacency()``, not the int rows on
# which ``stability`` counts.


def edges_between(g: Graph, X, Y) -> int:
    """Sum over x in X of |N(x) cap Y|: e(X, Y) for disjoint sets, 2 e(X) for Y = X."""
    return int(g.adjacency(list(X), sorted(set(Y))).sum())


def min_degree_induced(g: Graph, U) -> int:
    """Minimum degree of the subgraph induced by U; 0 when U is empty."""
    U = sorted(set(U))
    return int(g.adjacency(U, U).sum(axis=1).min()) if U else 0


def classification_report(g: Graph, cls) -> dict:
    """Part sizes, delta(G0) and the cross counts of a vertex classification,
    by the set counts that ``stability`` takes on ``g.rows``.

    e(U1, V2) and e(U2, V1) vanish by definition of V1 and V2; they are
    recomputed here as a self-check rather than assumed.
    """
    rows = g.rows
    return {
        "sizes": {k: len(v) for k, v in cls._asdict().items()},
        "delta_G0": stability.min_degree_induced(rows, cls.U1 + cls.U2),
        "e_U1_V2": stability.edges_between(rows, cls.U1, cls.V2),
        "e_U2_V1": stability.edges_between(rows, cls.U2, cls.V1),
        "e_U_V3": stability.edges_between(rows, cls.U1 + cls.U2, cls.V3),
    }
