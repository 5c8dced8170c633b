"""Differential tests: the set counts behind the counting bounds and the
vertex classification, against the bigint loops they replaced.

Each reference below is the loop regularity.py and stability.py ran over
Python-int adjacency rows before ``Graph`` stored packed words; the
package must agree with it exactly: the same counts, the same first
largest book, the same classes and the same errors.
"""

import itertools
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bookramsey.graphs import bits_of, vertex_mask
from bookramsey.regularity import (
    BipartitePairView,
    MultiPairConfig,
    bad_pair_count,
    book_bound,
    check_witness,
    triangle_bound,
)
from bookramsey.stability import blue_book_bound, classify, red_book_bound

from helpers import classification_report, graph_of

# ---------------------------------------------------------------- references


def ref_cross_count(g, X, Y):
    my, rows = vertex_mask(Y), g.rows
    return sum((rows[x] & my).bit_count() for x in X)


def ref_b_rows(pair):
    rows = pair.host.rows
    return [sum(1 << k for k, a in enumerate(pair.A) if rows[b] >> a & 1) for b in pair.B]


def ref_bad_pairs(cfg, j):
    """Bad pairs into page block j, or None where the density precondition
    fails: unordered pairs in A with eps < d for one base, A1 x A2 with
    2 eps <= d_i for two."""
    eps, B, rows = cfg.epsilon, cfg.pages[j], cfg.host.rows
    A1, A2 = cfg.bases[0], cfg.bases[-1]
    d1, d2 = (Fraction(ref_cross_count(cfg.host, A, B), len(A) * len(B)) for A in (A1, A2))
    one = len(cfg.bases) == 1
    if not (eps < d1 if one else 2 * eps <= min(d1, d2)):
        return None
    thr = (d1 - eps) * (d2 - eps) * len(B)
    mb = vertex_mask(B)
    pairs = itertools.combinations(A1, 2) if one else itertools.product(A1, A2)
    return sum(1 for u, v in pairs if (rows[u] & rows[v] & mb).bit_count() <= thr)


def ref_books(cfg):
    """(triangle count, first largest book as (base, pages), or None without edges)."""
    rows = cfg.host.rows
    if len(cfg.bases) == 1:
        ma = vertex_mask(cfg.bases[0])
        edges = [(u, v) for u in bits_of(ma) for v in bits_of(rows[u] & ma) if v > u]
    else:
        A1, A2 = cfg.bases
        m2 = vertex_mask(A2)
        edges = [(u, v) for u in A1 for v in bits_of(rows[u] & m2)]
    pages = vertex_mask(v for p in cfg.pages for v in p)
    if not edges:
        return 0, None
    u, v = max(edges, key=lambda e: (rows[e[0]] & rows[e[1]] & pages).bit_count())
    total = sum((rows[a] & rows[b] & pages).bit_count() for a, b in edges)
    return total, ((min(u, v), max(u, v)), frozenset(bits_of(rows[u] & rows[v] & pages)))


def ref_classify(g, U1, U2):
    rows = g.rows
    m1, m2 = vertex_mask(U1), vertex_mask(U2)
    for name, part, m in (("U1", U1, m1), ("U2", U2, m2)):
        for v in sorted(part):
            if rows[v] & m:
                raise ValueError(f"{name} is not independent: vertex {v} has a neighbor inside")
    classes = {"V1": [], "V2": [], "V3": [], "V_iso": []}
    for u in range(g.n):
        if (m1 | m2) >> u & 1:
            continue
        has1, has2 = bool(rows[u] & m1), bool(rows[u] & m2)
        classes["V3" if has1 and has2 else "V1" if has1 else "V2" if has2 else "V_iso"].append(u)
    return {k: tuple(v) for k, v in classes.items()}


# ------------------------------------------------------------------ inputs


def random_graph(rng, n, p):
    upper = np.triu(rng.random((n, n)) < p, 1)
    return upper | upper.T


@st.composite
def configs(draw):
    t = draw(st.integers(1, 6))
    nbases = draw(st.sampled_from([1, 2]))
    k = draw(st.integers(1, 3))
    n = t * (nbases + k) + draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    host = graph_of(random_graph(rng, n, draw(st.floats(0.05, 0.95))))
    perm = rng.permutation(n).tolist()
    blocks = [perm[i * t : (i + 1) * t] for i in range(nbases + k)]
    eps = draw(st.sampled_from([Fraction(0), Fraction(1, 20), Fraction(1, 10), Fraction(1, 4)]))
    return MultiPairConfig(host, blocks[:nbases], blocks[nbases:], eps)


@st.composite
def graphs_with_parts(draw):
    n = draw(st.integers(0, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    adj = random_graph(rng, n, draw(st.floats(0, 1)))
    labels = rng.integers(0, 3, size=n)
    U1, U2 = (np.flatnonzero(labels == s).tolist() for s in (0, 1))
    if draw(st.booleans()):  # make both parts independent
        for part in (U1, U2):
            adj[np.ix_(part, part)] = False
    return graph_of(adj), U1, U2


# ------------------------------------------------------------------ tests


@settings(max_examples=200, deadline=None)
@given(configs())
def test_counting_bounds_match_the_bigint_loops(cfg):
    total, book = ref_books(cfg)
    assert triangle_bound(cfg)[1] == total
    if book is not None:
        _, cert = book_bound(cfg)
        assert (cert.base, cert.pages) == book
    else:
        assert book_bound(cfg) is None
    for j in range(cfg.k):
        pair = cfg.base_pair(0, j)
        assert pair.b_rows() == ref_b_rows(pair)
        assert pair.edge_count() == ref_cross_count(cfg.host, pair.A, pair.B)
        want = ref_bad_pairs(cfg, j)
        if want is None:
            assert bad_pair_count(cfg, j) is None
        else:
            assert bad_pair_count(cfg, j) == want


@settings(max_examples=200, deadline=None)
@given(graphs_with_parts())
def test_classification_matches_the_bigint_loops(case):
    g, U1, U2 = case
    try:
        want = ref_classify(g, U1, U2)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{exc}$"):
            classify(g, U1, U2)
        return
    cls = classify(g, U1, U2)
    assert {k: v for k, v in asdict(cls).items() if k.startswith("V")} == want
    report = classification_report(g, cls)
    assert report["e_U1_V2"] == ref_cross_count(g, cls.U1, cls.V2)
    assert report["e_U2_V1"] == ref_cross_count(g, cls.U2, cls.V1)
    assert report["e_U_V3"] == ref_cross_count(g, cls.U1 + cls.U2, cls.V3)
    if len(cls.U2) >= 2:
        e23 = ref_cross_count(g, cls.U2, cls.V3)
        want_red = len(cls.U2) - 2 + len(cls.V1) + len(cls.V3) - Fraction(2 * e23, len(cls.U2))
        assert red_book_bound(g, cls) == want_red
    if cls.V3:
        delta = report["delta_G0"]
        want_blue = max(
            Fraction(ref_cross_count(g, cls.V3, part), len(cls.V3)) + delta - len(part) for part in (cls.U1, cls.U2)
        )
        assert blue_book_bound(g, cls) == want_blue


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 40), st.data())
def test_witness_check_counts_like_the_bigint_loop(seed, n, data):
    rng = np.random.default_rng(seed)
    g = graph_of(random_graph(rng, n, float(rng.random())))
    perm = rng.permutation(n).tolist()
    cut = data.draw(st.integers(1, n - 1))
    pair = BipartitePairView(g, perm[:cut], perm[cut:])
    X = data.draw(st.lists(st.sampled_from(pair.A), min_size=1, unique=True))
    Y = data.draw(st.lists(st.sampled_from(pair.B), min_size=1, unique=True))
    eps = Fraction(1, data.draw(st.integers(1, 20)))
    d = Fraction(ref_cross_count(g, X, Y), len(X) * len(Y))
    floor_ok = len(X) >= -(-eps.numerator * cut // eps.denominator) and len(Y) >= -(
        -eps.numerator * (n - cut) // eps.denominator
    )
    assert check_witness(pair, eps, X, Y) == (floor_ok and abs(d - pair.density) > eps)
