"""Exhaustive two-coloring search and single-coloring book checks."""

import itertools

import numpy as np
import pytest

from bookramsey.colex import edge_index
from bookramsey.colorings import TwoColoring, two_cliques
from bookramsey.errors import CapacityError
from bookramsey.ramsey import (
    BlueBook,
    Neither,
    RedBook,
    check_coloring,
    exhaustive_verify,
)

from helpers import (
    check_certificate,
    coloring_of_bits,
    coloring_of_index,
    complement_of,
    complete_graph,
    degree,
    edge_list,
    empty_graph,
    from_edges,
)


def random_coloring(rng, n):
    m = n * (n - 1) // 2
    return coloring_of_bits(n, rng.random(m) < rng.uniform(0.2, 0.8))


def all_red(n):
    return TwoColoring(empty_graph(n))


# ------------------------------------------------------------ check_coloring


def test_query_validation():
    # the order first, then the page targets, both before any capacity check
    with pytest.raises(ValueError, match="^order must be at least 2$"):
        exhaustive_verify(1, 0, 1)
    with pytest.raises(ValueError, match="^book page targets must be at least 1$"):
        exhaustive_verify(5, 0, 1)
    with pytest.raises(ValueError, match="^book page targets must be at least 1$"):
        exhaustive_verify(100, 1, 0)


def test_check_coloring_all_red_k4():
    res = check_coloring(all_red(4), 1, 1)
    assert isinstance(res, RedBook)
    assert res.certificate.base == (0, 1)
    assert res.certificate.size == 2


def test_check_coloring_two_cliques():
    c = two_cliques(3)  # blue books have 2 pages, red none
    assert isinstance(check_coloring(c, 1, 3), Neither)
    found = check_coloring(c, 1, 2)
    assert isinstance(found, BlueBook)
    assert found.certificate.size == 2


def test_check_coloring_reports_first_red_base():
    # red graph: isolated edge (0,1) plus triangle {2,3,4}; the isolated
    # edge has codegree 0, so the scan must settle on (2,3)
    red = from_edges(5, [(0, 1), (2, 3), (2, 4), (3, 4)])
    c = TwoColoring(complement_of(red))
    res = check_coloring(c, 1, 5)
    assert isinstance(res, RedBook)
    assert res.certificate.base == (2, 3)


def test_check_coloring_matches_booksize_thresholds():
    rng = np.random.default_rng(41)
    for _ in range(500):
        n = int(rng.integers(3, 33))
        c = random_coloring(rng, n)
        p = int(rng.integers(1, 5))
        q = int(rng.integers(1, 5))
        res = check_coloring(c, p, q)
        (bk_blue, _), (bk_red, _) = c.blue.books()
        expect_neither = bk_red < p and bk_blue < q
        assert isinstance(res, Neither) == expect_neither
        if isinstance(res, RedBook):
            check_certificate(res.certificate, complement_of(c.blue))
            assert res.certificate.size >= p
        elif isinstance(res, BlueBook):
            check_certificate(res.certificate, c.blue)
            assert res.certificate.size >= q


# ------------------------------------------------- check_coloring as witness


def test_witness_certificate_for_two_cliques():
    c = two_cliques(2)
    assert check_coloring(c, 2, 2) == Neither()  # r(B_2, B_2) > 6
    assert c.n == 6


def test_witness_refutation_names_color():
    assert isinstance(check_coloring(all_red(4), 1, 1), RedBook)
    assert isinstance(check_coloring(TwoColoring(complete_graph(4)), 1, 1), BlueBook)


# ---------------------------------------------------------- exhaustive search


def test_verify_k5_triangle_vs_triangle():
    out = exhaustive_verify(5, 1, 1)
    assert out.verdict == "counterexample"
    assert out.colorings_examined == 237
    assert out.counterexample_index == 236
    ce = coloring_of_index(5, out.counterexample_index)
    assert isinstance(check_coloring(ce, 1, 1), Neither)
    # the classical witness: both color classes are 5-cycles
    assert ce.blue.booksize()[0] == 0
    assert complement_of(ce.blue).booksize()[0] == 0
    assert all(degree(ce.blue, v) == 2 for v in range(5))


def test_verify_k6_forces_monochromatic_triangle():
    out = exhaustive_verify(6, 1, 1)
    assert out.verdict == "forced"
    assert out.colorings_examined == 1 << 15
    assert out.counterexample_index is None


def test_verify_first_counterexample_for_one_two():
    out = exhaustive_verify(6, 1, 2)
    assert out.verdict == "counterexample"
    assert out.colorings_examined == 3874
    assert out.counterexample_index == 3873
    blue_edges = set(edge_list(coloring_of_index(6, out.counterexample_index).blue))
    assert blue_edges == {(0, 1), (0, 5), (1, 5), (2, 3), (2, 4), (3, 4)}


def test_verify_counterexamples_always_validate():
    for n, p, q in [(4, 1, 1), (5, 1, 2), (6, 2, 2), (7, 2, 3)]:
        out = exhaustive_verify(n, p, q, prune=True)
        assert out.verdict == "counterexample"
        assert isinstance(check_coloring(coloring_of_index(n, out.counterexample_index), p, q), Neither)


def test_pruning_preserves_verdict_and_shrinks_work():
    for N in (4, 5, 6):
        for p, q in [(1, 1), (1, 2), (2, 1), (2, 2)]:
            plain = exhaustive_verify(N, p, q)
            pruned = exhaustive_verify(N, p, q, prune=True)
            assert plain.verdict == pruned.verdict
            assert pruned.colorings_examined <= plain.colorings_examined
            if pruned.verdict == "counterexample":
                assert isinstance(check_coloring(coloring_of_index(N, pruned.counterexample_index), p, q), Neither)


def test_forced_verdicts_persist_as_order_grows():
    # a forced verdict at N must stay forced at N+1: any counterexample
    # upstairs would restrict to one downstairs
    for p, q in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        forced_at = {}
        for N in (5, 6, 7, 8):
            out = exhaustive_verify(N, p, q, prune=True)
            forced_at[N] = out.verdict == "forced"
        for N in (5, 6, 7):
            if forced_at[N]:
                assert forced_at[N + 1], (p, q, N)


def test_known_small_book_ramsey_numbers():
    # r(B_1,B_1) = 6 and r(B_1,B_2) = 7
    assert exhaustive_verify(5, 1, 1, prune=True).verdict == "counterexample"
    assert exhaustive_verify(6, 1, 1, prune=True).verdict == "forced"
    assert exhaustive_verify(6, 1, 2, prune=True).verdict == "counterexample"
    assert exhaustive_verify(7, 1, 2, prune=True).verdict == "forced"


def test_capacity_guards():
    with pytest.raises(CapacityError):
        exhaustive_verify(9, 1, 1)
    with pytest.raises(CapacityError):
        exhaustive_verify(13, 1, 1, force=True)


def test_counterexample_index_conventions():
    # unpruned: the enumeration order is the blue-index order, so the
    # witness's index equals examined-1 and decodes back to the witness
    plain = exhaustive_verify(5, 1, 1)
    index = plain.counterexample_index
    assert index == plain.colorings_examined - 1
    decoded = coloring_of_index(5, index)
    assert sum(1 << edge_index(u, v) for u, v in edge_list(decoded.blue)) == index
    assert isinstance(check_coloring(decoded, 1, 1), Neither)
    # pruned: the order is scenario-local
    pruned = exhaustive_verify(5, 2, 2, prune=True)
    assert pruned.verdict == "counterexample"
    assert pruned.colorings_examined == 31
