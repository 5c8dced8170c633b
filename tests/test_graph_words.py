"""Differential tests of the packed word rows at the 64-bit word boundaries.

``Graph`` stores one (n, ceil(n/64)) uint64 array.  Orders on both sides
of a word boundary are checked against Python-int bitset references: the
round trip of int rows through the tests' own word packer (``graph_of``)
and through the decoder, the set counts that the stability layer takes
on the rows derived from the words, and equality and hashing.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from bookramsey.colex import bits_of
from bookramsey.counting import vertex_mask
from bookramsey.graphs import Graph
from bookramsey.stability import edges_between, min_degree_induced

from helpers import coloring_of_index, empty_graph, graph_of, to_graph6

ORDERS = (0, 1, 2, 63, 64, 65, 127, 128, 129)


def ref_rows(n, index):
    """Int rows of the graph whose colex pair k is bit k of ``index``."""
    rows = [0] * n
    k = 0
    for j in range(n):
        for i in range(j):
            if index >> k & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            k += 1
    return rows


def of_rows(n, rows):
    """The graph of int rows, through the matrix of their bits (``graph_of``)."""
    return graph_of([[row >> v & 1 for v in range(n)] for row in rows])


@st.composite
def graphs(draw):
    n = draw(st.sampled_from(ORDERS))
    index = draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    return n, index, ref_rows(n, index)


def vertex_lists(n):
    return st.lists(st.integers(0, n - 1), max_size=2 * n) if n else st.just([])


@settings(max_examples=120, deadline=None)
@given(graphs())
def test_int_rows_round_trip_through_the_constructor(case):
    n, index, rows = case
    g = of_rows(n, rows)
    assert g.rows == tuple(rows)
    assert g.words.shape == (n, (n + 63) // 64)
    assert g == coloring_of_index(n, index).blue
    assert Graph.from_graph6(to_graph6(g)).rows == tuple(rows)
    assert g.edge_count() == sum(r.bit_count() for r in rows) // 2


@settings(max_examples=120, deadline=None)
@given(graphs(), st.data())
def test_set_counts_match_the_bigint_reference(case, data):
    n, _, rows = case
    g = of_rows(n, rows)
    X = data.draw(vertex_lists(n))
    Y = data.draw(vertex_lists(n))
    my = vertex_mask(Y)
    # the set counts of the stability layer, on the rows derived from the words
    assert edges_between(g.rows, X, Y) == sum((rows[x] & my).bit_count() for x in X)
    assert [edges_between(g.rows, [v], Y) for v in range(n)] == [(r & my).bit_count() for r in rows]
    assert [edges_between(g.rows, [x], Y) for x in X] == [(rows[x] & my).bit_count() for x in X]
    assert g.adjacency(X, Y).tolist() == [[bool(rows[x] >> y & 1) for y in Y] for x in X]
    if X:
        mx = vertex_mask(X)
        assert min_degree_induced(g.rows, X) == min((rows[x] & mx).bit_count() for x in bits_of(mx))


@settings(max_examples=120, deadline=None)
@given(graphs(), st.data())
def test_equality_and_hash_follow_the_rows(case, data):
    n, _, rows = case
    g = of_rows(n, rows)
    other = list(rows)
    if n >= 2:
        i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        if data.draw(st.booleans()):
            other[i] ^= 1 << j
            other[j] ^= 1 << i
    h = of_rows(n, other)
    assert (g == h) == (tuple(rows) == tuple(other))
    if g == h:
        assert hash(g) == hash(h)
    same = graph_of(g.adjacency())
    assert same == g and hash(same) == hash(g)
    assert g != empty_graph(n + 1)
