"""Classification around an induced bipartite core and the bounds it forces.

g is always the blue graph; its complement is the red graph.  The two
bound functions are instance-level theorems, so every random instance is
a hard assertion, not a statistical check.
"""

from fractions import Fraction

import numpy as np
import pytest

from bookramsey.stability import (
    VertexClassification,
    bipartite_extract,
    blue_book_bound,
    classify,
    red_book_bound,
    trichotomy_check,
)

from helpers import (
    classification_report,
    complement_of,
    complete_bipartite,
    complete_graph,
    empty_graph,
    from_edges,
    graph_of,
    min_degree_induced,
    neighbors,
)


def check(g, xi, **kwargs):
    """``trichotomy_check`` on g's rows and two book sizes, as ``trichotomy`` calls it."""
    (bk_blue, _), (bk_red, _) = g.books()
    return trichotomy_check(g.rows, bk_blue, bk_red, xi, **kwargs)


def random_graph(rng, n, p=0.5):
    m = np.triu(rng.random((n, n)) < p, k=1).astype(np.uint8)
    return graph_of(m | m.T)


def assert_classification_matches_naive(g, cls):
    everything = [
        v for part in (cls.U1, cls.U2, cls.V1, cls.V2, cls.V3, cls.V_iso) for v in part
    ]
    assert sorted(everything) == list(range(g.n))
    s1, s2 = set(cls.U1), set(cls.U2)
    buckets = {k: set(v) for k, v in cls._asdict().items()}
    for v in range(g.n):
        if v in s1 or v in s2:
            continue
        nb = set(neighbors(g, v))
        in1, in2 = bool(nb & s1), bool(nb & s2)
        want = "V3" if (in1 and in2) else "V1" if in1 else "V2" if in2 else "V_iso"
        assert v in buckets[want], (v, want)


# ------------------------------------------------------------ classification


def test_classify_full_bipartition_leaves_nothing_outside():
    g = complete_bipartite(4, 6)
    cls = classify(g.rows, range(4), range(4, 10))
    assert cls.V1 == cls.V2 == cls.V3 == cls.V_iso == ()
    assert min_degree_induced(g, cls.U1 + cls.U2) == 4


def test_classify_star_with_empty_second_part():
    star = from_edges(5, [(0, i) for i in range(1, 5)])
    cls = classify(star.rows, [0], [])
    assert cls.V1 == (1, 2, 3, 4)
    assert cls.V2 == cls.V3 == cls.V_iso == ()


def test_classify_rejects_dependent_or_overlapping_parts():
    g = complete_graph(4)
    with pytest.raises(ValueError):
        classify(g.rows, [0, 1], [2])  # 0-1 is an edge
    with pytest.raises(ValueError):
        classify(empty_graph(4).rows, [0, 1], [1, 2])
    # a part vertex outside 0..n-1 is refused by name, and never read as
    # another vertex (rows[-1] is vertex 3's row)
    path = from_edges(4, [(0, 1), (1, 2), (2, 3)])
    for U1 in ([-1], [4]):
        with pytest.raises(ValueError, match=f"^vertex {U1[0]} outside the 4-vertex graph$"):
            classify(path.rows, U1, [0])


def test_classify_rejects_a_repeated_vertex():
    # a repeat would count twice in the order of G0 but once in its
    # minimum degree, and so pass branch (iii) on a part too small
    g = complete_bipartite(10, 10)
    U2 = list(range(10, 20))
    for U1, part2 in (([0, 1, 2, 3, 4] * 2, U2), ([0], [10, 11, 11])):
        with pytest.raises(ValueError, match="repeated vertex"):
            classify(g.rows, U1, part2)
    with pytest.raises(ValueError, match="repeated vertex"):
        check(g, Fraction(3, 20), candidate=([0, 1, 2, 3, 4] * 2, U2))
    assert check(g, Fraction(3, 20), candidate=([0, 1, 2, 3, 4], U2))["iii"] is False


def test_classify_matches_naive_scan_on_random_instances():
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.integers(6, 40))
        g = random_graph(rng, n, float(rng.uniform(0.1, 0.7)))
        found = bipartite_extract(g.rows, seed=int(rng.integers(1 << 16)))
        assert found is not None
        U1, U2 = found
        cls = classify(g.rows, U1, U2)
        assert_classification_matches_naive(g, cls)


def test_report_cross_counts_vanish_by_definition():
    rng = np.random.default_rng(37)
    g = random_graph(rng, 25, 0.4)
    U1, U2 = bipartite_extract(g.rows, seed=3)
    cls = classify(g.rows, U1, U2)
    rep = classification_report(g, cls)
    assert rep["e_U1_V2"] == 0
    assert rep["e_U2_V1"] == 0
    assert sum(rep["sizes"].values()) == 25
    assert rep["delta_G0"] == min_degree_induced(g, cls.U1 + cls.U2)


# ------------------------------------------------------------ red book bound


def test_red_bound_requires_two_base_vertices():
    g = complete_bipartite(1, 3)
    cls = classify(g.rows, [1, 2, 3], [0])
    with pytest.raises(ValueError):
        red_book_bound(g.rows, cls)


def test_red_bound_without_v3_is_a_size_count():
    # U2 plus isolated vertices: no V3, so the bound is |U2| - 2 + |V1|
    g = from_edges(7, [(0, 3), (1, 3), (2, 3)])
    cls = classify(g.rows, [3], [0, 1, 2])
    assert cls.V3 == ()
    assert cls.V_iso == (4, 5, 6)
    assert red_book_bound(g.rows, cls) == 3 - 2 + 0


def test_red_bound_is_tight_on_the_two_clique_construction():
    for q in (2, 3, 5):
        g = complete_bipartite(q + 1, q + 1)  # blue; red is 2 cliques
        cls = classify(g.rows, range(q + 1), range(q + 1, 2 * q + 2))
        bound = red_book_bound(g.rows, cls)
        assert bound == q - 1
        assert complement_of(g).booksize()[0] == bound


def test_red_bound_never_exceeds_red_booksize():
    rng = np.random.default_rng(43)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(8, 36))
        g = random_graph(rng, n, float(rng.uniform(0.15, 0.7)))
        found = bipartite_extract(g.rows, seed=int(rng.integers(1 << 16)))
        U1, U2 = found
        cls = classify(g.rows, U1, U2)
        if len(cls.U2) < 2:
            continue
        checked += 1
        assert complement_of(g).booksize()[0] >= red_book_bound(g.rows, cls)
    assert checked >= 150


# ----------------------------------------------------------- blue book bound


def test_blue_bound_requires_v3():
    g = complete_bipartite(2, 2)
    cls = classify(g.rows, [0, 1], [2, 3])
    with pytest.raises(ValueError):
        blue_book_bound(g.rows, cls)


def test_blue_bound_single_v3_vertex_hits_delta():
    # v = 4 sees all of U2 and exactly one vertex of U1
    g = from_edges(5, [(0, 2), (0, 3), (1, 2), (1, 3), (4, 2), (4, 3), (4, 0)])
    cls = classify(g.rows, [0, 1], [2, 3])
    assert cls.V3 == (4,)
    assert blue_book_bound(g.rows, cls) == min_degree_induced(g, cls.U1 + cls.U2) == 2


def test_blue_bound_never_exceeds_blue_booksize():
    rng = np.random.default_rng(47)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(8, 36))
        g = random_graph(rng, n, float(rng.uniform(0.15, 0.7)))
        U1, U2 = bipartite_extract(g.rows, seed=int(rng.integers(1 << 16)))
        cls = classify(g.rows, U1, U2)
        if not cls.V3:
            continue
        checked += 1
        assert g.booksize()[0] >= blue_book_bound(g.rows, cls)
    assert checked >= 100


# ----------------------------------------------------------------- extractor


def test_extractor_recovers_connected_bipartition():
    g = complete_bipartite(5, 7)
    U1, U2 = bipartite_extract(g.rows, seed=0)
    assert {frozenset(U1), frozenset(U2)} == {
        frozenset(range(5)),
        frozenset(range(5, 12)),
    }


def test_extractor_on_complete_graph_degenerates():
    U1, U2 = bipartite_extract(complete_graph(6).rows, seed=0)
    assert len(U1) <= 1 and len(U2) <= 1


def test_extractor_output_is_always_independent():
    rng = np.random.default_rng(53)
    for _ in range(25):
        n = int(rng.integers(5, 45))
        g = random_graph(rng, n, float(rng.uniform(0.1, 0.9)))
        U1, U2 = bipartite_extract(g.rows, seed=int(rng.integers(99999)))
        for part in (U1, U2):
            for v in part:
                assert not (set(neighbors(g, v)) & set(part))


def test_extractor_recovers_planted_bipartition_under_noise():
    # complete bipartite 20+20 plus intra-part noise edges at rate 0.01:
    # at least 9 of 10 seeds must keep >= 90% of the planted vertices
    noise_rng = np.random.default_rng(1000)
    edges = [(a, b) for a in range(20) for b in range(20, 40)]
    for part in (range(20), range(20, 40)):
        verts = list(part)
        for i, u in enumerate(verts):
            for v in verts[i + 1 :]:
                if noise_rng.random() < 0.01:
                    edges.append((u, v))
    rows = from_edges(40, edges).rows
    good = sum(1 for seed in range(10) if sum(map(len, bipartite_extract(rows, seed=seed))) >= 36)
    assert good >= 9


# ---------------------------------------------------------------- trichotomy


def test_trichotomy_rejects_bad_xi():
    with pytest.raises(ValueError):
        check(complete_graph(4), 0)
    with pytest.raises(ValueError):
        check(complete_graph(4), 1)


def test_trichotomy_on_two_blue_cliques():
    n = 24
    half = n // 2
    edges = [
        (u, v)
        for s in (range(half), range(half, n))
        for u in s
        for v in s
        if u < v
    ]
    g = from_edges(n, edges)
    out = check(g, Fraction(1, 100), seed=0)
    assert out["i"] is False  # complement is K_{12,12}, booksize 0
    assert out["ii"] is True  # bk = 10 clears n/12
    assert out["bk_blue"] == half - 2
    assert out["bk_red"] == 0
    assert out["iii"] == "unknown"  # heuristic cannot prove absence
    forced = check(g, Fraction(1, 100), candidate=([0, half], [1, half + 1]))
    assert forced["iii"] is False


def test_trichotomy_accepts_balanced_complete_bipartite():
    g = complete_bipartite(10, 10)
    out = check(g, Fraction(1, 10), seed=0)
    assert out["iii"] is True
    assert out["G0_order"] == 20
    assert out["delta_G0"] == 10
    given = check(g, Fraction(1, 10), candidate=(list(range(10)), list(range(10, 20))))
    assert given["iii"] is True
    assert given["G0_source"] == "candidate"


def test_trichotomy_branch_two_on_dense_random():
    g = random_graph(np.random.default_rng(59), 200, 0.5)
    out = check(g, Fraction(1, 10), seed=0)
    assert out["ii"] is True
    assert out["bk_blue"] > out["threshold_ii"]
    # a random half-density graph is nowhere near bipartite
    assert out["iii"] in (False, "unknown")


def test_trichotomy_report_fields():
    g = complete_bipartite(6, 6)
    out = check(g, Fraction(1, 10), seed=0)
    for key in (
        "i",
        "ii",
        "iii",
        "bk_blue",
        "bk_red",
        "threshold_ii",
        "G0_source",
        "G0_order",
        "delta_G0",
        "order_floor",
        "delta_floor",
        "e_U_V3",
        "e_U_V3_reference",
    ):
        assert key in out
