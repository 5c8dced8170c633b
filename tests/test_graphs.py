"""Graph primitives: codegree, booksize, counts, graph6 interchange."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from bookramsey.colex import bits_of
from bookramsey.counting import vertex_mask
from bookramsey.errors import ParseError
from bookramsey.graphs import BookCertificate, Graph
from bookramsey.stability import min_degree_induced

from helpers import (
    adjacent,
    check_certificate,
    codegree,
    complement_of,
    complete_bipartite,
    complete_graph,
    degree,
    edge_list,
    empty_graph,
    from_edges,
    graph_of,
    to_graph6,
)


def random_graph(rng, n, p=0.5):
    m = np.triu(rng.random((n, n)) < p, k=1).astype(np.uint8)
    return graph_of(m | m.T)


# Counting helpers over the int rows that only these tests use.


def mean_book_size(g, bases):
    """Exact average codegree over a nonempty set of base edges."""
    total = 0
    count = 0
    for u, v in bases:
        if not adjacent(g, u, v):
            raise ValueError(f"base ({u},{v}) is not an edge")
        total += codegree(g, u, v)
        count += 1
    if count == 0:
        raise ValueError("mean_book_size requires a nonempty base set")
    return Fraction(total, count)


def edges_within(g, X):
    mx, rows = vertex_mask(X), g.rows
    return sum((rows[u] & mx).bit_count() for u in bits_of(mx)) // 2


def cut_and_induced_counts(g, X, Y):
    """(e(X), e(Y), e(X,Y)) for disjoint vertex sets X, Y."""
    mx, my = vertex_mask(X), vertex_mask(Y)
    if mx & my:
        raise ValueError("X and Y must be disjoint")
    rows = g.rows
    exy = sum((rows[u] & my).bit_count() for u in bits_of(mx))
    return edges_within(g, X), edges_within(g, Y), exy


def cycle(n):
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def write_graph6_file(path, g):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(to_graph6(g) + "\n")


def read_graph6_file(path):
    """The first graph6 graph of a file."""
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if raw.strip():
                return Graph.from_graph6(raw.strip(), line=lineno)
    raise ParseError("no graph6 data found", line=1)


# ------------------------------------------------------------ construction


def test_from_edges_rejects_loops_and_range():
    with pytest.raises(ValueError):
        from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        from_edges(3, [(0, 3)])


def test_graph_is_immutable():
    g = complete_graph(3)
    with pytest.raises(AttributeError):
        g.n = 5


def test_degree_and_edges_order():
    g = from_edges(4, [(0, 1), (0, 2), (2, 3)])
    assert [degree(g, u) for u in range(4)] == [2, 1, 2, 1]
    assert edge_list(g) == [(0, 1), (0, 2), (2, 3)]
    assert g.edge_count() == 3


# ---------------------------------------------------------------- codegree


# ``codegree`` is the tests' oracle over the bool matrix; a book
# certificate's size is the package's codegree of its base edge.


def test_codegree_complete_graph():
    g = complete_graph(4)
    for u, v in itertools.combinations(range(4), 2):
        assert codegree(g, u, v) == g._book(u, v, blue=True).size == 2


def test_codegree_path_and_cycle():
    path = from_edges(3, [(0, 1), (1, 2)])
    assert codegree(path, 0, 1) == path._book(0, 1, blue=True).size == 0
    c5 = cycle(5)
    for u in range(5):
        assert codegree(c5, u, (u + 1) % 5) == c5._book(*sorted((u, (u + 1) % 5)), blue=True).size == 0
        assert codegree(c5, u, (u + 2) % 5) == 1


def test_codegree_matches_naive_double_loop():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        n = int(rng.integers(2, 65))
        g = random_graph(rng, n, float(rng.uniform(0.1, 0.9)))
        u, v = map(int, rng.choice(n, size=2, replace=False))
        naive = sum(1 for w in range(n) if adjacent(g, u, w) and adjacent(g, v, w))
        assert codegree(g, u, v) == naive
        if adjacent(g, u, v):
            assert g._book(min(u, v), max(u, v), blue=True).size == naive


# ---------------------------------------------------------------- booksize


def test_booksize_of_cliques():
    for q in (1, 2, 5, 9):
        size, cert = complete_graph(q + 1).booksize()
        assert size == q - 1
        assert cert.base == (0, 1)
        assert cert.size == size


def test_booksize_bipartite_is_zero():
    size, cert = complete_bipartite(3, 3).booksize()
    assert size == 0
    assert cert is not None  # edges exist, so a (trivial) base is named


def test_booksize_edgeless():
    assert empty_graph(10).booksize() == (0, None)


def test_booksize_certificate_validates():
    g = complete_graph(6)
    size, cert = g.booksize()
    check_certificate(cert, g)
    bad = BookCertificate(base=(0, 1), pages=frozenset({7}))
    with pytest.raises(ValueError):
        check_certificate(bad, g)


def test_booksize_upper_bound_and_clique_equality():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(2, 30))
        g = random_graph(rng, n)
        assert g.booksize()[0] <= max(0, n - 2)
    for n in (2, 3, 6, 12):
        assert complete_graph(n).booksize()[0] == n - 2


def test_booksize_monotone_under_edge_insertion():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(4, 24))
        g = random_graph(rng, n, 0.4)
        non_edges = [
            (u, v)
            for u, v in itertools.combinations(range(n), 2)
            if not adjacent(g, u, v)
        ]
        if not non_edges:
            continue
        u, v = non_edges[int(rng.integers(len(non_edges)))]
        bigger = from_edges(n, edge_list(g) + [(u, v)])
        assert bigger.booksize()[0] >= g.booksize()[0]


def test_booksize_at_least_ceil_of_mean():
    rng = np.random.default_rng(13)
    for _ in range(25):
        n = int(rng.integers(3, 30))
        g = random_graph(rng, n, 0.6)
        edges = edge_list(g)
        if not edges:
            continue
        mean = mean_book_size(g, edges)
        assert g.booksize()[0] >= -(-mean.numerator // mean.denominator)


# ------------------------------------------------------------- mean values


def test_mean_book_size_exact_values():
    k4 = complete_graph(4)
    assert mean_book_size(k4, edge_list(k4)) == 2
    c5 = cycle(5)
    assert mean_book_size(c5, edge_list(c5)) == 0
    k4_minus = from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert mean_book_size(k4_minus, edge_list(k4_minus)) == Fraction(6, 5)


def test_mean_book_size_rejects_bad_bases():
    g = cycle(5)
    with pytest.raises(ValueError):
        mean_book_size(g, [])
    with pytest.raises(ValueError):
        mean_book_size(g, [(0, 2)])  # not an edge


# --------------------------------------------------------------- complement


def test_complement_involution_and_edge_split():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 40))
        g = random_graph(rng, n)
        cg = complement_of(g)
        assert complement_of(cg) == g
        assert g.edge_count() + cg.edge_count() == n * (n - 1) // 2


def brute_force_isomorphic(g, h):
    if g.n != h.n:
        return False
    verts = range(g.n)
    edges_h = set(edge_list(h))
    for perm in itertools.permutations(verts):
        mapped = {tuple(sorted((perm[u], perm[v]))) for u, v in edge_list(g)}
        if mapped == edges_h:
            return True
    return False


def test_complement_of_five_cycle_is_five_cycle():
    c5 = cycle(5)
    assert brute_force_isomorphic(complement_of(c5), c5)


def test_complement_of_complete_is_edgeless():
    assert complement_of(complete_graph(7)).edge_count() == 0


# ------------------------------------------------------------ subset counts


def test_cut_and_induced_counts_examples():
    k6 = complete_graph(6)
    assert cut_and_induced_counts(k6, [0, 1, 2], [3, 4, 5]) == (3, 3, 9)
    k33 = complete_bipartite(3, 3)
    assert cut_and_induced_counts(k33, [0, 1, 2], [3, 4, 5]) == (0, 0, 9)
    c5 = cycle(5)
    assert cut_and_induced_counts(c5, [0, 1], [2, 3]) == (1, 1, 1)


def test_cut_counts_reject_overlap():
    with pytest.raises(ValueError):
        cut_and_induced_counts(complete_graph(4), [0, 1], [1, 2])


def test_cut_identity_on_random_sets():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(2, 40))
        g = random_graph(rng, n)
        labels = rng.integers(0, 3, size=n)
        X = [v for v in range(n) if labels[v] == 0]
        Y = [v for v in range(n) if labels[v] == 1]
        ex, ey, exy = cut_and_induced_counts(g, X, Y)
        assert ex + ey + exy == edges_within(g, X + Y)


def test_min_degree_induced_examples():
    assert min_degree_induced(complete_graph(5).rows, range(5)) == 4
    star = from_edges(5, [(0, i) for i in range(1, 5)]).rows
    assert min_degree_induced(star, [1, 2, 3, 4]) == 0
    assert min_degree_induced(cycle(5).rows, [0, 1, 2]) == 1
    assert min_degree_induced(star, []) == 0


# ----------------------------------------------------------------- graph6


def test_graph6_round_trip_short_and_long():
    rng = np.random.default_rng(17)
    for n in (0, 1, 2, 5, 30, 62, 63, 64, 100):
        g = random_graph(rng, n, 0.4)
        assert Graph.from_graph6(to_graph6(g)) == g


def test_graph6_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(19)
    for n in (5, 40, 70):
        g = random_graph(rng, n, 0.5)
        h = nx.from_graph6_bytes(to_graph6(g).encode())
        assert h.number_of_nodes() == n
        assert {tuple(sorted(e)) for e in h.edges()} == set(edge_list(g))
        # and the reverse direction, decoding networkx output
        s = nx.to_graph6_bytes(h, header=False).decode().strip()
        assert Graph.from_graph6(s) == g


def test_graph6_accepts_header_prefix():
    g = cycle(5)
    assert Graph.from_graph6(">>graph6<<" + to_graph6(g)) == g


def test_graph6_parse_errors_carry_location():
    with pytest.raises(ParseError):
        Graph.from_graph6("")
    with pytest.raises(ParseError) as exc:
        Graph.from_graph6("D\x01")
    assert exc.value.offset == 1
    with pytest.raises(ParseError):
        Graph.from_graph6("D")  # truncated data for n=5
    with pytest.raises(ParseError):
        # n=5 has 10 edge bits in 2 chars; the last 2 bits must be zero
        Graph.from_graph6("D" + chr(63) + chr(63 + 0b11))


def test_graph6_reports_offset_of_bad_character():
    s = to_graph6(cycle(9))
    # a lone surrogate can arrive through a JSON config
    for bad in ("\x7f", " ", "\u00e9", "\ud800"):
        with pytest.raises(ParseError, match="invalid graph6 character") as exc:
            Graph.from_graph6(s[:3] + bad + s[4:], line=5)
        assert (exc.value.line, exc.value.offset) == (5, 3)


def test_graph6_file_io(tmp_path):
    g = complete_graph(4)
    path = tmp_path / "k4.g6"
    write_graph6_file(path, g)
    assert read_graph6_file(path) == g


# ------------------------------------------------------------ bool matrices


def test_bool_matrix_round_trip():
    rng = np.random.default_rng(23)
    for n in (1, 9, 33, 65):
        g = random_graph(rng, n)
        m = g.adjacency()
        assert m.shape == (n, n)
        assert graph_of(m) == g
