"""Differential tests: the numpy dense-path kernels against pure-Python loops.

Each reference below is the straightforward per-edge (or per-matrix)
formulation the package used before its kernels were vectorized; the
package must agree with it exactly, including tie-breaking, scan order
and error messages.
"""

import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bookramsey import graphs
from bookramsey.colorings import (
    ConstructionParams,
    TwoColoring,
    construction_statistics,
    read_any_file,
    read_coloring_file,
    tripartite_bytes,
    tripartite_parts,
    tripartite_random,
    write_brc1,
)
from bookramsey.colex import edge_index, index_bytes
from bookramsey.graphs import Graph
from bookramsey.ramsey import BlueBook, Neither, RedBook, check_coloring

from helpers import (
    brc1_of,
    check_certificate,
    colex_bytes,
    coloring_of_index,
    complement_of,
    complete_graph,
    edge_list,
    empty_graph,
    from_edges,
    graph_of,
    to_graph6,
)

# ---------------------------------------------------------------- references


def codegree_rows(g: Graph):
    """(u, later, counts) for u = 0, 1, ...: the neighbours v > u of u in
    order, and their codegrees, popcounts of word row u ANDed with each
    later row, a row at a time: no tuple per edge and no codegree walk."""
    for u in range(g.n):
        later = np.flatnonzero(g.adjacency([u])[0, u + 1 :])
        counts = np.bitwise_count(g.words[u + 1 :] & g.words[u]).sum(axis=1)
        yield u, later + (u + 1), counts[later]


def ref_booksize(g: Graph):
    best, best_base = -1, None
    for u, later, counts in codegree_rows(g):
        if later.size and counts.max() > best:
            k = int(counts.argmax())  # the first largest, at the least v
            best, best_base = int(counts[k]), (u, int(later[k]))
    return (0, None) if best_base is None else (best, best_base)


def ref_first_book(g: Graph, at_least: int):
    for u, later, counts in codegree_rows(g):
        hits = np.flatnonzero(counts >= at_least)
        if hits.size:
            return u, int(later[hits[0]])
    return None


def ref_check_coloring(c: TwoColoring, p: int, q: int):
    red = ref_first_book(complement_of(c.blue), p)
    if red:
        return "red", red
    blue = ref_first_book(c.blue, q)
    return ("blue", blue) if blue else None


def ref_blue_bits(c: TwoColoring) -> np.ndarray:
    bits = np.zeros(c.n * (c.n - 1) // 2, dtype=bool)
    for i, j in edge_list(c.blue):
        bits[edge_index(i, j)] = True
    return bits


def ref_statistics(c: TwoColoring, parts) -> dict:
    """Full n x n codegree matrices for red, blue and each red part."""
    n = c.n
    pid = np.empty(n, dtype=np.int64)
    for k, part in enumerate(parts):
        pid[list(part)] = k

    def codegrees(adj, cols=None):
        a = adj.astype(np.float32)
        b = a if cols is None else a[:, cols]
        return np.rint(b @ b.T).astype(np.int64)

    def mean_over(values, mask):
        cnt = int(mask.sum())
        return Fraction(int(values[mask].sum()), cnt) if cnt else None

    blue = c.blue.adjacency()
    red = complement_of(c.blue).adjacency()
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    same = pid[:, None] == pid[None, :]
    cr, cb = codegrees(red), codegrees(blue)
    cr_by_part = [codegrees(red, np.flatnonzero(pid == k)) for k in range(3)]
    intra_red = upper & same & red
    cross_blue = upper & ~same & blue
    cross_red = upper & ~same & red
    third = np.zeros((n, n), dtype=np.int64)
    own = np.zeros((n, n), dtype=np.int64)
    for a in range(3):
        for b in range(3):
            if a != b:
                sel = (pid[:, None] == a) & (pid[None, :] == b)
                third[sel] = cr_by_part[3 - a - b][sel]
                own[sel] = (cr_by_part[a] + cr_by_part[b])[sel]
    bk_red = int(cr[upper & red].max()) if red.any() else 0
    bk_blue = int(cb[upper & blue].max()) if blue.any() else 0
    return {
        "n": n,
        "part_sizes": [len(p) for p in parts],
        "red_intra": {"edges": int(intra_red.sum()), "mean_codegree": mean_over(cr, intra_red)},
        "blue_cross": {"edges": int(cross_blue.sum()), "mean_codegree": mean_over(cb, cross_blue)},
        "red_cross": {
            "edges": int(cross_red.sum()),
            "mean_codegree": mean_over(cr, cross_red),
            "mean_pages_third_part": mean_over(third, cross_red),
            "mean_pages_own_parts": mean_over(own, cross_red),
        },
        "bk_red": bk_red,
        "bk_blue": bk_blue,
        "bk_red_over_n": Fraction(bk_red, n),
        "bk_blue_over_n": Fraction(bk_blue, n),
    }


def ref_part_codegrees(g: Graph, parts) -> list[list[int]]:
    """``part_codegrees`` from full n x n codegree matrices of g and of its
    complement: edges inside a part, across two, then non-edges inside
    and across, each [pairs, codegree sum, largest codegree or 0, pages
    in the third part (pairs across only)], non-edges counted in the
    complement."""
    n = g.n
    pid = np.empty(n, dtype=np.int64)
    for k, part in enumerate(parts):
        pid[list(part)] = k

    def codegrees(adj, cols=slice(None)):
        a = adj[:, cols].astype(np.float64)
        return np.rint(a @ a.T).astype(np.int64)

    adj, comp = g.adjacency(), complement_of(g).adjacency()
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    same = pid[:, None] == pid[None, :]
    out = []
    for m in (adj, comp):
        cod = codegrees(m)
        third = np.zeros((n, n), dtype=np.int64)
        for k in range(3):
            across = ~same & (pid[:, None] != k) & (pid[None, :] != k)
            third[across] = codegrees(m, pid == k)[across]
        for sel in (upper & same & m, upper & ~same & m):
            out.append([int(sel.sum()), int(cod[sel].sum()), int(cod[sel].max(initial=0)), int(third[sel].sum())])
    return out


# ---------------------------------------------------------------- generators


def random_adjacency(rng, n, density):
    m = np.triu(rng.random((n, n)) < density, k=1)
    return m | m.T


def tied_graph(rng, n0, copies, density):
    """Disjoint copies of one random graph under a random relabelling.

    Every copy attains the same largest codegree, so the least base must
    be chosen among several; the relabelling spreads them over the order.
    """
    n = n0 * copies
    one = random_adjacency(rng, n0, density)
    adj = np.zeros((n, n), dtype=bool)
    for k in range(copies):
        adj[k * n0 : (k + 1) * n0, k * n0 : (k + 1) * n0] = one
    perm = rng.permutation(n)
    return graph_of(adj[np.ix_(perm, perm)])


def coloring_of(g: Graph) -> TwoColoring:
    return TwoColoring(g)


graph_params = st.tuples(
    st.integers(0, 2**32 - 1),  # rng seed
    st.integers(1, 9),  # order of one copy
    st.integers(1, 3),  # copies
    st.sampled_from([0.2, 0.5, 0.8, 1.0]),  # density
)


def graph_from(params) -> Graph:
    seed, n0, copies, density = params
    return tied_graph(np.random.default_rng(seed), n0, copies, density)


@pytest.fixture(scope="module")
def big_coloring():
    rng = np.random.default_rng(300)
    tied = tied_graph(rng, 150, 2, 0.55)
    return coloring_of(tied)


# ------------------------------------------------------------------ booksize


@settings(max_examples=200, deadline=None)
@given(graph_params)
def test_booksize_matches_edge_loop(params):
    g = graph_from(params)
    size, cert = g.booksize()
    ref_size, ref_base = ref_booksize(g)
    assert size == ref_size
    assert (cert.base if cert else None) == ref_base
    if cert:
        assert cert.size == size


def test_booksize_ties_pick_least_base():
    # two disjoint triangles: every edge has codegree 1
    g = from_edges(6, [(3, 4), (3, 5), (4, 5), (0, 1), (0, 2), (1, 2)])
    assert g.booksize()[1].base == (0, 1)
    perm = [5, 2, 4, 0, 3, 1]
    h = from_edges(6, [(perm[u], perm[v]) for u, v in edge_list(g)])
    assert h.booksize()[1].base == ref_booksize(h)[1]


def test_booksize_at_n300(big_coloring):
    for g in (big_coloring.blue, complement_of(big_coloring.blue)):
        size, cert = g.booksize()
        assert (size, cert.base) == ref_booksize(g)


# ------------------------------------------------ two-colour scan and stripes
# The scan works a row stripe of graphs._STRIPE rows at a time against
# column stripes of the same width; below, smaller stripes make the test
# graphs cross several of both.


def base_of(book):
    size, cert = book
    return size, (cert.base if cert else None)


def first_books(g: Graph, q: int, p: int):
    """``books((q, p))`` by the edge loops: the first red book reaching
    p, else the first blue one reaching q."""
    red = ref_first_book(complement_of(g), p)
    return [None, red] if red else [ref_first_book(g, q), None]


@settings(max_examples=200, deadline=None)
@given(graph_params, st.sampled_from([graphs._STRIPE, 8]), st.integers(1, 8), st.integers(1, 8))
def test_two_colour_books_match_edge_loops(params, stripe, q, p):
    g = graph_from(params)
    h = complement_of(g)
    with mock.patch.object(graphs, "_STRIPE", stripe):
        books = g.books()
        firsts = g.books((q, p))
    assert [base_of(b) for b in books] == [ref_booksize(g), ref_booksize(h)]
    for (size, cert), graph in zip(books + firsts, (g, h, g, h)):
        if cert:
            check_certificate(cert, graph)
            # every common neighbour in the colour's graph is a page
            assert cert.pages == frozenset(np.flatnonzero(graph.adjacency(list(cert.base)).all(axis=0)).tolist())
            assert cert.size == size
    assert [cert and cert.base for _, cert in firsts] == first_books(g, q, p)


def test_booksize_across_stripes_at_n300(big_coloring, monkeypatch):
    monkeypatch.setattr(graphs, "_STRIPE", 64)
    test_booksize_at_n300(big_coloring)
    books = big_coloring.blue.books()
    assert [base_of(b) for b in books] == [ref_booksize(big_coloring.blue), ref_booksize(complement_of(big_coloring.blue))]


def test_books_tie_across_stripes_picks_least_base(monkeypatch):
    # three bases tie at three private pages each: (5, 100) lies in the
    # second column stripe of row stripe 0, (6, 10) in its first and
    # (70, 80) in row stripe 1; the least base (5, 100) must win
    monkeypatch.setattr(graphs, "_STRIPE", 64)
    edges = []
    for (u, v), pages in zip([(70, 80), (6, 10), (5, 100)], [(20, 21, 22), (30, 31, 32), (40, 41, 42)]):
        edges += [(u, v)] + [(w, page) for page in pages for w in (u, v)]
    g = from_edges(150, edges)
    assert base_of(g.books()[0]) == ref_booksize(g) == (3, (5, 100))
    assert base_of(complement_of(g).books()[1]) == (3, (5, 100))
    assert g.books((3, 150))[0][1].base == ref_first_book(g, 3) == (5, 100)
    assert complement_of(g).books((150, 3))[1][1].base == (5, 100)


def test_first_books_in_different_stripes_at_n300(big_coloring, monkeypatch):
    # with 8-row stripes, a one-page book of one colour turns up in stripe
    # 0 and the largest blue book (row 53) in stripe 6: a red target goes
    # on past a blue find, and a blue one past stripes without it
    monkeypatch.setattr(graphs, "_STRIPE", 8)
    top = ref_booksize(big_coloring.blue)[0]
    for g, at_least in ((complement_of(big_coloring.blue), (1, top)), (big_coloring.blue, (top, big_coloring.n))):
        want = first_books(g, *at_least)
        assert [base and base[0] // 8 for base in want] in ([None, 6], [6, None])
        assert [cert and cert.base for _, cert in g.books(at_least)] == want


def test_books_stop_at_first_red_book(big_coloring, monkeypatch):
    # a red book in stripe 0 decides check_coloring whatever blue holds,
    # so the scan must not multiply past that stripe's column blocks; at
    # 8-row stripes a tile makes one product per 64-column chunk
    monkeypatch.setattr(graphs, "_STRIPE", 8)
    c = big_coloring
    q = ref_booksize(c.blue)[0] + 1
    assert ref_first_book(complement_of(c.blue), 1)[0] < 8
    with mock.patch.object(graphs.np, "matmul", wraps=np.matmul) as matmul:
        res = check_coloring(c, 1, q)
    assert verdict(res) == ref_check_coloring(c, 1, q)
    assert matmul.call_count == -(-c.n // 8) * -(-c.n // 64)


def test_packed_decode_across_stripes_at_n300(big_coloring, monkeypatch):
    monkeypatch.setattr(graphs, "_STRIPE", 64)
    assert Graph.from_graph6(to_graph6(big_coloring.blue)) == big_coloring.blue
    assert TwoColoring.from_brc1(brc1_of(big_coloring)) == big_coloring


# ------------------------------------------------------------ check_coloring


def verdict(res):
    if isinstance(res, Neither):
        return None
    return ("red" if isinstance(res, RedBook) else "blue"), res.certificate.base


def check_thresholds(c: TwoColoring):
    bk_red = ref_booksize(complement_of(c.blue))[0]
    bk_blue = ref_booksize(c.blue)[0]
    for p in {max(1, bk_red), bk_red + 1}:
        for q in {max(1, bk_blue), bk_blue + 1}:
            res = check_coloring(c, p, q)
            assert verdict(res) == ref_check_coloring(c, p, q)
            if isinstance(res, RedBook):
                check_certificate(res.certificate, complement_of(c.blue))
                assert res.certificate.size >= p
            elif isinstance(res, BlueBook):
                check_certificate(res.certificate, c.blue)
                assert res.certificate.size >= q


@settings(max_examples=150, deadline=None)
@given(graph_params)
def test_check_coloring_matches_edge_loop(params):
    check_thresholds(coloring_of(graph_from(params)))


def test_check_coloring_red_before_blue():
    # blue K_4 on {0..3} plus a red triangle elsewhere: both colours have
    # a book, red must still be reported first
    blue = from_edges(7, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    c = TwoColoring(blue)
    assert verdict(check_coloring(c, 1, 1)) == ref_check_coloring(c, 1, 1) == ("red", (0, 4))


def test_check_coloring_at_n300(big_coloring):
    check_thresholds(big_coloring)


def test_check_coloring_across_stripes_at_n300(big_coloring, monkeypatch):
    monkeypatch.setattr(graphs, "_STRIPE", 64)
    check_thresholds(big_coloring)


# --------------------------------------------------------------- colex codec


@settings(max_examples=200, deadline=None)
@given(graph_params)
def test_colex_codec_matches_edge_index_loop(params):
    c = coloring_of(graph_from(params))
    bits = ref_blue_bits(c)
    assert colex_bytes(c.blue) == np.packbits(bits).tobytes()
    index = sum(1 << k for k in np.flatnonzero(bits).tolist())
    assert index_bytes(index, len(bits)) == np.packbits(bits).tobytes()
    assert coloring_of_index(c.n, index) == c
    assert Graph.from_colex_bits(c.n, np.packbits(bits), width=8) == c.blue


def test_colex_codec_at_n300(big_coloring):
    bits = ref_blue_bits(big_coloring)
    assert colex_bytes(big_coloring.blue) == np.packbits(bits).tobytes()
    index = sum(1 << k for k in np.flatnonzero(bits).tolist())
    assert index_bytes(index, len(bits)) == np.packbits(bits).tobytes()
    assert coloring_of_index(300, index) == big_coloring


def test_from_blue_index_edges():
    assert coloring_of_index(1, 0).blue == empty_graph(1)
    assert coloring_of_index(3, 0b111).blue == complete_graph(3)


# ---------------------------------------------------------------- statistics
# Statistics walk the same tiles as the two-colour scan and split them at
# the part boundaries; 8-row stripes make tiles straddle both the part
# boundaries and the diagonal.


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 9),
    st.sampled_from([0.0, 0.3, 0.5, 1.0]),
    st.sampled_from([graphs._STRIPE, 8]),
)
def test_statistics_match_matrix_version_on_shuffled_parts(seed, t, density, stripe):
    rng = np.random.default_rng(seed)
    n = 3 * t
    c = coloring_of(graph_of(random_adjacency(rng, n, density)))
    perm = rng.permutation(n).tolist()
    parts = [perm[:t], perm[t : 2 * t], perm[2 * t :]]
    with mock.patch.object(graphs, "_STRIPE", stripe):
        assert construction_statistics(c, parts) == ref_statistics(c, parts)


def test_statistics_match_matrix_version_at_n300():
    rng = np.random.default_rng(301)
    n = 300
    c = coloring_of(graph_of(random_adjacency(rng, n, 0.4)))
    assert construction_statistics(c, tripartite_parts(n)) == ref_statistics(c, tripartite_parts(n))
    parts = [list(range(k, n, 3)) for k in range(3)]  # interleaved, non-contiguous
    assert construction_statistics(c, parts) == ref_statistics(c, parts)


def test_statistics_across_stripes_at_n300(monkeypatch):
    # 64-row tiles against parts of 100: the part boundaries at 100 and
    # 200 fall inside tiles, on and off the diagonal
    monkeypatch.setattr(graphs, "_STRIPE", 64)
    test_statistics_match_matrix_version_at_n300()


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 70),
    st.tuples(st.integers(0, 70), st.integers(0, 70)),
    st.sampled_from([0.0, 0.3, 0.5, 1.0]),
    st.booleans(),
    st.sampled_from([graphs._STRIPE, 8]),
)
@example(1, 70, (64, 64), 0.5, False, graphs._STRIPE)  # P_1 empty, on a word boundary
@example(2, 70, (0, 64), 0.5, False, graphs._STRIPE)  # P_0 empty, P_1 one whole word
@example(3, 70, (64, 70), 0.5, True, graphs._STRIPE)
@example(4, 70, (5, 69), 0.5, True, 8)
@example(5, 64, (64, 64), 1.0, False, graphs._STRIPE)  # P_1 and P_2 empty
def test_part_codegrees_match_matrix_version_on_any_split(seed, n, cuts, density, shuffled, stripe):
    # three parts of any sizes, empty ones included, with bounds on and
    # off word boundaries, in vertex order or shuffled
    rng = np.random.default_rng(seed)
    g = graph_of(random_adjacency(rng, n, density))
    a, b = sorted(min(x, n) for x in cuts)
    order = (rng.permutation(n) if shuffled else np.arange(n)).tolist()
    parts = [order[:a], order[a:b], order[b:]]
    with mock.patch.object(graphs, "_STRIPE", stripe):
        assert g.part_codegrees(parts) == ref_part_codegrees(g, parts)


def traced_peak(f) -> int:
    """Peak bytes that tracemalloc sees allocated while f runs."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def walk_buffers(rows: int) -> int:
    """The walk's buffers: the folded left operand and one column chunk
    of ``rows`` bits for a stripe of rows, both float32, and the intp
    copy np.take makes of that chunk's bytes.  No buffer spans the full
    width."""
    return 4 * (rows // 2) * rows + 4 * rows * rows + rows * rows


def test_statistics_memory_stays_within_stripes():
    # the walk's buffers and its two float32 tiles (c and cc); the blue
    # words are walked, so no red words are made, the triangle count
    # masks one row of words at a time, and one bool stripe is left for
    # temporaries.  Keeping (n/3)^2 float32 part blocks instead peaks at
    # about 35 MB, and a folded stripe at full width adds 1.5 MB.
    n, rows = 3000, graphs._STRIPE
    c = tripartite_random(ConstructionParams(n, Fraction(1, 200), seed=1))
    buffers = walk_buffers(rows) + 2 * 4 * rows**2
    peak = traced_peak(lambda: construction_statistics(c, tripartite_parts(n)))
    assert peak <= buffers + rows * n, f"peak {peak} bytes against {buffers} bytes of buffers"


def test_books_memory_adds_no_stripe_buffer():
    # the walk's buffers and two float32 tiles (c and cc).  The fold
    # works in place and the edge masks come from the words, so one bool
    # stripe is left for temporaries (the bool masks of a tile take
    # about half of it), less than a folded stripe at full width.
    n, rows = 3000, graphs._STRIPE
    c = tripartite_random(ConstructionParams(n, Fraction(1, 200), seed=1))
    buffers = walk_buffers(rows) + 2 * 4 * rows**2
    peak = traced_peak(lambda: c.blue.books())
    assert peak <= buffers + rows * n, f"peak {peak} bytes against {buffers} bytes of buffers"


def test_coloring_build_and_files_stay_within_stripes(tmp_path):
    # the construction holds its words, its packed colex bits and two
    # bool stripes; writing, as construct does, streams the payload as it
    # is drawn, _PACK_ROWS rows of colex bits at a time;
    # reading streams it into the words, and holds besides them one piece
    # of the file and two bool stripes (the file's text alone is 1.1 MB,
    # its BRC1 bytes 0.56 MB)
    n, rows = 3000, graphs._STRIPE
    words, packed = n * (64 * -(-n // 64)) // 8, (n * (n - 1) // 2 + 7) // 8
    params = ConstructionParams(n, Fraction(1, 200), seed=1)
    peak = traced_peak(lambda: tripartite_random(params))
    assert peak <= words + packed + 2 * rows * n, f"construction peak {peak} bytes"
    path = tmp_path / "t.brc1"
    peak = traced_peak(lambda: write_brc1(path, n, tripartite_bytes(params)))
    assert peak <= 2 * rows * n, f"write peak {peak} bytes"
    peak = traced_peak(lambda: read_coloring_file(path))
    assert peak <= words + 2 * rows * n, f"read peak {peak} bytes"
    assert read_coloring_file(path) == tripartite_random(params)


def test_graph6_decode_holds_one_line_besides_the_words():
    # the line is checked and held once, as bytes less 63 in place: with
    # its line break (as read from a file) it is not first copied as a
    # stripped str, then as ASCII bytes and as a uint8 array less 63.
    # Besides, the decoder holds four bool stripes of _STRIPE / 4 rows.
    n, rows = 3000, graphs._STRIPE
    words = n * (64 * -(-n // 64)) // 8
    c = tripartite_random(ConstructionParams(n, Fraction(1, 200), seed=1))
    line = to_graph6(c.blue) + "\n"  # about 0.75 MB
    peak = traced_peak(lambda: Graph.from_graph6(line))
    assert peak <= words + len(line) + rows * n, f"decode peak {peak} bytes"
    assert Graph.from_graph6(line) == c.blue


def test_graph6_file_holds_its_text_and_one_line_besides_the_words(tmp_path):
    # a graph6 file is read as text, and its line is handed to the decoder
    # by its bounds in that text: the line's bytes are its one copy, with
    # no str slice of the line held beside them (that slice took the
    # peak from 3.3 to 4.05 MB here)
    n, rows = 3000, graphs._STRIPE
    words = n * (64 * -(-n // 64)) // 8
    c = tripartite_random(ConstructionParams(n, Fraction(1, 200), seed=1))
    text = "\n  " + to_graph6(c.blue) + " \nA_\n"  # the graph on line 2, a second graph after it
    path = tmp_path / "g.g6"
    path.write_text(text, encoding="ascii")
    peak = traced_peak(lambda: read_any_file(path))
    assert peak <= words + 2 * len(text) + rows * n, f"read peak {peak} bytes"
    assert read_any_file(path) == c.blue


@pytest.mark.parametrize("stripe", [8, 24, 64])
def test_colex_codec_round_trip_at_any_stripe(stripe, monkeypatch):
    # decoder stripes of _STRIPE / 4 rows (8 or 16 here) start at pair
    # r0(r0-1)/2, which is not always on a byte (r0 = 8, 24, 40, ...):
    # such a stripe's bits start inside a byte that the one before began
    rng = np.random.default_rng(stripe)
    colorings = [coloring_of(graph_of(random_adjacency(rng, n, 0.5))) for n in (1, 2, 9, 40, 41, 77, 130)]
    monkeypatch.setattr(graphs, "_STRIPE", stripe)
    for c in colorings:
        raw = colex_bytes(c.blue)
        assert raw == np.packbits(ref_blue_bits(c)).tobytes(), c.n
        assert Graph.from_colex_bits(c.n, raw, width=8) == c.blue
        assert TwoColoring.from_brc1(brc1_of(c)) == c
        assert Graph.from_graph6(to_graph6(c.blue)) == c.blue


# ---------------------------------------------------------------------- fold
# While n <= 4096 a codegree is at most 4094 and a degree, which a row
# of a diagonal tile meets, at most 4095, and the walk folds the second
# half of each row stripe onto the first as lo + 4096 hi: one product of
# half height, decoded, gives the codegrees of both halves.  From
# n = 4097 on the fold factor is 1.


def complete_part_codegrees(n: int, sizes) -> list[list[int]]:
    """``part_codegrees`` of K_n, where every codegree is n - 2."""
    intra = sum(s * (s - 1) // 2 for s in sizes)
    pairs = [(sizes[a], sizes[b], sizes[3 - a - b]) for a, b in ((0, 1), (0, 2), (1, 2))]
    cross = sum(x * y for x, y, _ in pairs)
    pages = sum(x * y * z for x, y, z in pairs)
    return [[intra, intra * (n - 2), n - 2, 0], [cross, cross * (n - 2), n - 2, pages], [0] * 4, [0] * 4]


@pytest.mark.parametrize("n", [4096, 4097, 4098])
def test_walk_at_the_fold_limit(n):
    # K_4096 is the last folded order: where a hi row of a diagonal tile
    # meets itself, its product is 4094 + 4096 * 4095 = 2**24 - 2.  The
    # part bounds fall in the second half of stripe 0 (200) and in the
    # first half of stripe 8 (2100)
    sizes = [200, 1900, n - 2100]
    parts = [range(200), range(200, 2100), range(2100, n)]
    perm = np.random.default_rng(n).permutation(n).tolist()
    shuffled = [perm[:200], perm[200:2100], perm[2100:]]
    complete = complete_graph(n)
    assert [base_of(b) for b in complete.books()] == [(n - 2, (0, 1)), (0, None)]
    want = complete_part_codegrees(n, sizes)
    assert complete.part_codegrees(parts) == complete.part_codegrees(shuffled) == want
    assert empty_graph(n).part_codegrees(parts) == [[0] * 4, [0] * 4, *want[:2]]

    # K_n less a matching that leaves out 200 and 201 (and n - 1 at odd n):
    # blue codegrees n - 4 to n - 2, and the first base of the largest
    # possible book, n - 2 pages, is (200, 201) in the second half of stripe 0
    rest = [v for v in range(n - n % 2) if v not in (200, 201)]
    red = from_edges(n, zip(rest[::2], rest[1::2]))
    blue = complement_of(red)
    first = ref_first_book(blue, n - 2)
    books = [base_of(b) for b in blue.books()]
    assert books == [(n - 2, first), ref_booksize(red)] == [(n - 2, (200, 201)), (0, (0, 1))]
    c = coloring_of(blue)
    assert verdict(check_coloring(c, 1, n - 2)) == ref_check_coloring(c, 1, n - 2) == ("blue", (200, 201))
    assert isinstance(check_coloring(c, 1, n - 1), Neither)  # the largest blue book has n - 2 pages


def test_two_hubs_at_the_first_unfolded_order():
    # vertices 0 and 128 are blue to every vertex, and no other pair is.
    # Row 128 is the first hi row of stripe 0, so a fold at n = 4097
    # would hold its degree, 4096, in 4095 + 4096 * 4096 > 2**24: the
    # blue book on (0, 128) would be lost and B_2 missed.
    n = 4097
    blue = from_edges(n, [(u, v) for u in (0, 128) for v in range(n) if v != u])
    books = [base_of(b) for b in blue.books()]
    assert books == [base_of(blue.booksize()), (4093, (1, 2))] == [(4095, (0, 128)), (4093, (1, 2))]
    # red is K_4095 and two isolated vertices, with no book of 4094 pages
    c = coloring_of(blue)
    res = check_coloring(c, 4094, 2)
    assert isinstance(res, BlueBook)
    assert verdict(res) == ref_check_coloring(c, 4094, 2) == ("blue", (0, 128))


@pytest.mark.parametrize("stripe", [63, 65])
def test_walk_with_odd_stripe_heights_at_n1001(stripe, monkeypatch):
    # a stripe of odd height leaves its middle row out of the fold; the
    # part bounds at 360 and 700 fall inside folded halves of both widths
    rng = np.random.default_rng(1001)
    n = 1001
    g = graph_of(random_adjacency(rng, n, 0.5))  # built before the stripes shrink
    h = complement_of(g)
    perm = rng.permutation(n).tolist()
    monkeypatch.setattr(graphs, "_STRIPE", stripe)
    assert [base_of(b) for b in g.books()] == [ref_booksize(g), ref_booksize(h)]
    check_thresholds(coloring_of(g))
    for parts in ([range(360), range(360, 700), range(700, n)], [perm[:360], perm[360:700], perm[700:]]):
        assert g.part_codegrees(parts) == ref_part_codegrees(g, parts)
