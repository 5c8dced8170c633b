"""Uniform-pair oracle, counting bounds, and block-pair classification.

The oracle (``oracle.first_witness``), the counting bounds
(``counting.MultiPair``) and the labels (``counting.classify``) run here
on rows read off each graph's graph6 line (``helpers.rows_of``), as the
command line reads them, and so does the sampled search
(``regularity.nonuniformity_search``).
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bookramsey.colorings import TwoColoring, two_cliques
from bookramsey.counting import MultiPair, classify, complement
from bookramsey.errors import CapacityError
from bookramsey.graphs import BookCertificate
from bookramsey.oracle import check_sides, first_witness
from bookramsey.regularity import check_witness, nonuniformity_search

from helpers import (
    Pair,
    check_certificate,
    coloring_of_bits,
    complement_of,
    complete_graph,
    empty_graph,
    from_edges,
    oracle_witness,
    rows_of,
)


def complete_pair(ta, tb):
    host = from_edges(
        ta + tb, [(a, b) for a in range(ta) for b in range(ta, ta + tb)]
    )
    return Pair(host, tuple(range(ta)), tuple(range(ta, ta + tb)))


def empty_pair(ta, tb):
    return Pair(
        empty_graph(ta + tb), tuple(range(ta)), tuple(range(ta, ta + tb))
    )


def half_graph_pair(t):
    # u_i ~ v_j iff i <= j (1-indexed); A = 0..t-1, B = t..2t-1
    edges = [(i, t + j) for i in range(t) for j in range(t) if i <= j]
    host = from_edges(2 * t, edges)
    return Pair(host, tuple(range(t)), tuple(range(t, 2 * t)))


def random_pair(rng, na, nb, p=0.5):
    edges = [
        (a, na + b)
        for a in range(na)
        for b in range(nb)
        if rng.random() < p
    ]
    host = from_edges(na + nb, edges)
    return Pair(host, tuple(range(na)), tuple(range(na, na + nb)))


# --------------------------------------------------------------- pair basics


def test_side_validation():
    # the command line refuses these sides before it reads their rows
    g = empty_graph(4)
    for A, B in (((0, 1), (1, 2)), ((), (1, 2)), ((0, 0), (1, 2))):
        with pytest.raises(ValueError):
            check_sides(A, B, g.n)


def test_density_examples():
    assert complete_pair(3, 4).density == 1
    assert empty_pair(3, 4).density == 0
    assert half_graph_pair(10).density == Fraction(55, 100)


def test_complement_pair_density():
    rng = np.random.default_rng(1)
    pair = random_pair(rng, 6, 7)
    co = Pair(complement_of(pair.host), pair.A, pair.B)
    assert co.density == 1 - pair.density
    # the red rows of classify, the blue ones flipped, read the complement
    assert complement(pair.rows)(pair.A, pair.B) == co.rows(pair.A, pair.B)
    side = pair.A + pair.B  # a vertex stays no neighbour of itself
    assert complement(pair.rows)(side, side) == co.rows(side, side)


# -------------------------------------------------------------------- oracle


def test_oracle_complete_and_empty_are_uniform():
    for eps in (Fraction(1, 100), Fraction(1, 10), Fraction(1, 2)):
        assert oracle_witness(complete_pair(8, 8), eps) is None
        assert oracle_witness(empty_pair(8, 8), eps) is None


def test_oracle_half_graph_witness():
    pair = half_graph_pair(10)
    witness = oracle_witness(pair, Fraction(1, 10))
    assert witness is not None
    wx, wy = witness
    assert check_witness(pair.rows, pair.A, pair.B, Fraction(1, 10), wx, wy)
    # least witness in (X, Y) bitmask order: vertex u_1 alone is joined to
    # everything, so ({u_1}, {v_1}) already deviates by 0.45
    assert (wx, wy) == ((0,), (10,))
    # the textbook witness deviates as well: top half of A misses the
    # bottom half of B entirely
    assert check_witness(pair.rows, pair.A, pair.B, Fraction(1, 10), (5, 6, 7, 8, 9), (10, 11, 12, 13, 14))


def test_oracle_rejects_oversized_sides():
    with pytest.raises(CapacityError):
        oracle_witness(complete_pair(17, 4), Fraction(1, 10))
    with pytest.raises(ValueError):
        oracle_witness(complete_pair(4, 4), 0)


def test_oracle_matches_naive_enumeration():
    rng = np.random.default_rng(77)
    eps_pool = [Fraction(1, 10), Fraction(1, 5), Fraction(3, 10), Fraction(2, 5)]
    for trial in range(50):
        na = int(rng.integers(2, 11))
        nb = int(rng.integers(2, 11))
        pair = random_pair(rng, na, nb, float(rng.uniform(0.2, 0.8)))
        eps = eps_pool[trial % len(eps_pool)]
        naive = naive_uniform(pair, eps)
        witness = oracle_witness(pair, eps)
        assert (witness is None) == naive
        if witness is not None:
            assert check_witness(pair.rows, pair.A, pair.B, eps, *witness)


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 7),
    st.integers(1, 7),
    st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
    st.integers(0, 2**32 - 1),
    st.sampled_from([Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), Fraction(1, 10**30), Fraction(3, 2)]),
)
def test_kernel_verdict_matches_naive_enumeration(na, nb, p, seed, eps):
    pair = random_pair(np.random.default_rng(seed), na, nb, p)
    witness = first_witness(pair.A, pair.B, rows_of(pair.host)(pair.A, pair.B), eps)
    assert (witness is None) == naive_uniform(pair, eps)
    if witness is not None:
        assert check_witness(pair.rows, pair.A, pair.B, eps, *witness)


def naive_uniform(pair, eps):
    na, nb = len(pair.A), len(pair.B)
    a0 = max(1, -((-eps.numerator * na) // eps.denominator))
    b0 = max(1, -((-eps.numerator * nb) // eps.denominator))
    rows = rows_of(pair.host)(pair.A, pair.B)
    d = pair.density
    for X in range(1, 1 << na):
        s = X.bit_count()
        if s < a0:
            continue
        deg = [(r & X).bit_count() for r in rows]
        esum = [0] * (1 << nb)
        for Y in range(1, 1 << nb):
            low = Y & -Y
            esum[Y] = esum[Y ^ low] + deg[low.bit_length() - 1]
            sy = Y.bit_count()
            if sy >= b0 and abs(Fraction(esum[Y], s * sy) - d) > eps:
                return False
    return True


def test_witness_checker_enforces_floors_and_membership():
    pair = half_graph_pair(10)
    eps = Fraction(3, 10)  # floors are 3 per side
    assert not check_witness(pair.rows, pair.A, pair.B, eps, (0, 1), (10, 11, 12))  # X too small
    assert not check_witness(pair.rows, pair.A, pair.B, eps, (0, 1, 99), (10, 11, 12))  # not in A


# ------------------------------------------------------------ sampled search


def test_search_finds_half_graph_witness_at_scale():
    pair = half_graph_pair(100)
    found = nonuniformity_search(pair.rows, pair.A, pair.B, Fraction(1, 10), samples=10_000, seed=0)
    assert found is not None
    assert check_witness(pair.rows, pair.A, pair.B, Fraction(1, 10), *found)


def test_search_returns_none_on_complete():
    pair = complete_pair(20, 20)
    assert nonuniformity_search(pair.rows, pair.A, pair.B, Fraction(1, 10)) is None


def test_search_agrees_with_oracle_when_it_speaks():
    rng = np.random.default_rng(5)
    for _ in range(10):
        pair = random_pair(rng, 12, 12, 0.5)
        eps = Fraction(1, 5)
        found = nonuniformity_search(pair.rows, pair.A, pair.B, eps, samples=2000, seed=3)
        if found is not None:
            assert oracle_witness(pair, eps) is not None
            assert check_witness(pair.rows, pair.A, pair.B, eps, *found)


# ----------------------------------------------------------- bad pair counts


def config(host, bases, pages, eps):
    """The counting bounds of a host's blocks, on rows read off its line."""
    return MultiPair(rows_of(host), host.n, bases, pages, eps)


def one_base(pair, eps):
    """The pair as a config: A the one base block, B the one page block."""
    return config(pair.host, (pair.A,), (pair.B,), eps)


def test_bad_pairs_complete_is_zero():
    assert one_base(complete_pair(10, 10), Fraction(1, 5)).bad_pair_count(0) == 0


def test_bad_pairs_precondition():
    assert one_base(empty_pair(5, 5), Fraction(1, 10)).bad_pair_count(0) is None  # d = 0


def test_bad_pairs_cross_complete_and_precondition():
    host = from_edges(
        12,
        [(a, b) for a in range(0, 4) for b in range(8, 12)]
        + [(a, b) for a in range(4, 8) for b in range(8, 12)],
    )
    bases, pages = ((0, 1, 2, 3), (4, 5, 6, 7)), ((8, 9, 10, 11),)
    assert config(host, bases, pages, Fraction(1, 4)).bad_pair_count(0) == 0
    sparse_host = from_edges(
        12,
        [(a, a + 8) for a in range(4)] + [(a, a + 4) for a in range(4, 8)],
    )
    sparse = config(sparse_host, bases, pages, Fraction(1, 4))
    assert sparse.densities(0) == [Fraction(1, 4)]
    assert sparse.bad_pair_count(0) is None  # 2 eps > density


def test_bad_pairs_bounded_on_certified_pairs():
    rng = np.random.default_rng(9)
    eps = Fraction(2, 5)
    checked = 0
    for _ in range(30):
        pair = random_pair(rng, 10, 10, 0.55)
        if oracle_witness(pair, eps) is not None:
            continue
        if not eps < pair.density:
            continue
        checked += 1
        assert one_base(pair, eps).bad_pair_count(0) <= 2 * eps * 100
    assert checked >= 5


# ----------------------------------------------------- counting bound values


def shared_config(eps, parity_pages=True):
    # A = 0..9 with exactly 20 internal edges; two page blocks of size 10
    edges = []
    for i in range(10):
        edges.append(tuple(sorted((i, (i + 1) % 10))))
        edges.append(tuple(sorted((i, (i + 2) % 10))))
    edges = sorted(set(edges))
    assert len(edges) == 20
    for a in range(10):
        for b in range(10, 30):
            if not parity_pages or (a + b) % 2 == 0:
                edges.append((a, b))
    host = from_edges(30, edges)
    return config(host, (tuple(range(10)),), (tuple(range(10, 20)), tuple(range(20, 30))), eps)


def cross_config(eps):
    # e(A1,A2) = 30, one page block, both base-page densities 3/5
    edges = []
    for u in range(10):
        for r in range(3):
            edges.append((u, 10 + (u + r) % 10))
        for r in range(6):
            edges.append((u, 20 + (u + r) % 10))
            edges.append((10 + u, 20 + (u + r) % 10))
    host = from_edges(30, edges)
    return config(host, (tuple(range(10)), tuple(range(10, 20))), (tuple(range(20, 30)),), eps)


def test_triangle_bound_shared_frozen_value():
    cfg = shared_config(Fraction(1, 100))
    assert cfg.densities(0) == [Fraction(1, 2), Fraction(1, 2)]
    bound, actual = cfg.triangle_bound()
    assert bound == 82
    assert actual >= 0


def test_triangle_bound_cross_frozen_value():
    cfg = cross_config(Fraction(1, 100))
    assert cfg.densities(0) == [Fraction(3, 5)]
    assert cfg.densities(1) == [Fraction(3, 5)]
    bound, _ = cfg.triangle_bound()
    assert bound == Fraction(474, 5)  # 94.8


def test_book_bound_shared_frozen_value():
    bound, base, _ = shared_config(Fraction(1, 100)).book_bound()
    assert bound == Fraction(41, 10)  # 4.1
    assert base[0] < base[1]


def test_book_bound_cross_frozen_value():
    bound, *_ = cross_config(Fraction(1, 100)).book_bound()
    assert bound == Fraction(79, 25)


def test_bounds_at_epsilon_zero_lose_their_penalty_terms():
    cfg = shared_config(Fraction(0))
    t, ea, sq = 10, 20, Fraction(1, 2)
    assert cfg.triangle_bound()[0] == t * ea * sq
    assert cfg.book_bound()[0] == t * sq
    xcfg = cross_config(Fraction(0))
    assert xcfg.triangle_bound()[0] == 10 * 30 * Fraction(9, 25)
    assert xcfg.book_bound()[0] == 10 * Fraction(9, 25)


def test_config_validation():
    host = empty_graph(30)
    with pytest.raises(ValueError):
        config(host, (), ((0, 1),), 0)
    with pytest.raises(ValueError):
        config(host, ((0, 1),), ((1, 2),), 0)
    with pytest.raises(ValueError):
        config(host, ((0, 1),), ((2, 3, 4),), 0)


def complete_pages_config(rng, eps, two_bases=False):
    """(host, config) with pages joined completely to the bases: every
    base-page pair is uniform at any eps, so the counting bounds must hold
    and, at small eps, sit well above zero."""
    n = 40 if two_bases else 30
    blocks = [tuple(range(10 * i, 10 * i + 10)) for i in range(n // 10)]
    nb = 2 if two_bases else 1
    edges = []
    base_vs = [v for b in blocks[:nb] for v in b]
    for u, v in itertools.combinations(base_vs, 2):
        if rng.random() < 0.5:
            edges.append((u, v))
    for b in blocks[nb:]:
        for u in base_vs:
            for v in b:
                edges.append((u, v))
    host = from_edges(n, edges)
    return host, config(host, tuple(blocks[:nb]), tuple(blocks[nb:]), eps)


def test_positive_bounds_hold_on_complete_pages():
    rng = np.random.default_rng(21)
    for _ in range(5):
        host, cfg = complete_pages_config(rng, Fraction(1, 100))
        bound, actual = cfg.triangle_bound()
        assert bound > 0
        assert actual >= bound
        bbound, base, pages = cfg.book_bound()
        assert bbound > 0
        assert len(pages) >= bbound
        check_certificate(BookCertificate(base, pages), host)

        _, xcfg = complete_pages_config(rng, Fraction(1, 100), two_bases=True)
        xbound, xactual = xcfg.triangle_bound()
        assert xbound > 0
        assert xactual >= xbound
        xb, _, xpages = xcfg.book_bound()
        assert xb > 0
        assert len(xpages) >= xb


def certified(host, cfg):
    return all(
        oracle_witness(Pair(host, A, P), cfg.epsilon) is None
        for A in cfg.bases
        for P in cfg.pages
    )


def test_bounds_never_violated_on_certified_random_configs():
    rng = np.random.default_rng(33)
    eps = Fraction(9, 20)
    seen = 0
    for _ in range(40):
        n = 30
        edges = [
            (u, v)
            for u, v in itertools.combinations(range(n), 2)
            if rng.random() < 0.5
        ]
        host = from_edges(n, edges)
        cfg = config(host, (tuple(range(10)),), (tuple(range(10, 20)), tuple(range(20, 30))), eps)
        if not certified(host, cfg):
            continue
        seen += 1
        bound, actual = cfg.triangle_bound()
        assert actual >= bound
        bbound, _, pages = cfg.book_bound()
        assert len(pages) >= bbound
    assert seen >= 10


# ------------------------------------------------------------ classification


def classify_pairs(c, blocks, eps, beta, gamma):
    """``counting.classify`` on the blue rows of a coloring, as the command
    line reads them; every block here is within the oracle cap."""
    return classify(rows_of(c.blue), c.n, blocks, eps, beta, gamma)


def test_classify_monochromatic_colorings():
    blocks = [(0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11)]
    all_red = TwoColoring(empty_graph(12))
    rows = classify_pairs(all_red, blocks, Fraction(1, 4), Fraction(1, 4), Fraction(1, 4))
    assert [r["label"] for r in rows] == ["red"] * 3
    assert all(r["red_density"] == 1 for r in rows)
    all_blue = TwoColoring(complete_graph(12))
    rows = classify_pairs(all_blue, blocks, Fraction(1, 4), Fraction(1, 4), Fraction(1, 4))
    assert [r["label"] for r in rows] == ["blue"] * 3


def test_classify_two_cliques_cross_pair_is_red():
    c = two_cliques(4)  # red graph is complete bipartite across the cliques
    blocks = [tuple(range(5)), tuple(range(5, 10))]
    rows = classify_pairs(c, blocks, Fraction(1, 5), Fraction(1, 4), Fraction(1, 4))
    assert len(rows) == 1
    assert rows[0]["label"] == "red"
    assert rows[0]["red_density"] == 1
    assert rows[0]["method"] == "oracle"


def test_classify_labels_partition_all_pairs():
    rng = np.random.default_rng(15)
    for _ in range(50):
        n, t = 12, 4
        m = n * (n - 1) // 2
        c = coloring_of_bits(n, rng.random(m) < 0.5)
        blocks = [tuple(range(i, i + t)) for i in range(0, n, t)]
        rows = classify_pairs(
            c, blocks, Fraction(3, 10), Fraction(1, 3), Fraction(1, 3)
        )
        assert len(rows) == 3
        assert {tuple(r["pair"]) for r in rows} == {(0, 1), (0, 2), (1, 2)}
        for r in rows:
            assert r["label"] in {"irr", "blue", "mid", "red"}


def test_classify_rejects_bad_thresholds_and_blocks():
    c = TwoColoring(empty_graph(8))
    with pytest.raises(ValueError):
        classify_pairs(c, [(0, 1), (2, 3)], Fraction(1, 4), 0, Fraction(1, 4))
    with pytest.raises(ValueError):
        classify_pairs(c, [(0, 1), (1, 2)], Fraction(1, 4), Fraction(1, 4), Fraction(1, 4))
    with pytest.raises(ValueError):
        classify_pairs(c, [(0, 1), (2, 3, 4)], Fraction(1, 4), Fraction(1, 4), Fraction(1, 4))
