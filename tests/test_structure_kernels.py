"""Differential tests: the structure-layer kernels against pure-Python loops.

Each bigint reference below is the loop the package used before its
uniformity oracle, sampled witness search and bipartite extractor were
vectorized (the oracle is now bit-sliced on Python ints, in
``oracle``); the package must agree with it exactly: the same verdict,
the same (X, Y) witness, the same extracted parts.  The sampled search,
which now runs on rows read off the graph6 line, must also agree with
the numpy kernel it replaced, kept here as ``ref_nonuniformity_search``.
"""

import contextlib
import io
import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bookramsey import cli
from bookramsey.colex import bits_of
from bookramsey.counting import complement, vertex_mask
from bookramsey.errors import CapacityError
from bookramsey.graphs import Graph
from bookramsey.numbers import as_fraction
from bookramsey.oracle import ORACLE_SIDE_CAP, first_witness, size_floor
from bookramsey.regularity import check_witness, nonuniformity_search
from bookramsey.rng import edge_value, edge_values_block
from bookramsey.stability import bipartite_extract

from helpers import (
    Pair,
    adjacent,
    complement_of,
    complete_bipartite,
    edges_between,
    from_edges,
    graph_of,
    min_degree_induced,
    oracle_witness,
    to_graph6,
)

# ---------------------------------------------------------------- references


def _size_floor(eps: Fraction, side: int) -> int:
    return max(1, -((-eps.numerator * side) // eps.denominator))  # ceil(eps*side)


def _deviates(e: int, s: int, sy: int, enum: int, na: int, nb: int, eps: Fraction) -> bool:
    # |e/(s*sy) - enum/(na*nb)| > eps, cleared of denominators
    lhs = abs(e * na * nb - enum * s * sy) * eps.denominator
    return lhs > eps.numerator * s * sy * na * nb


def ref_b_rows(pair: Pair) -> list[int]:
    """For each b in B, the bitmask of its neighbours over A's positions,
    read off the host's int rows."""
    rows = pair.host.rows
    return [sum(1 << k for k, a in enumerate(pair.A) if rows[b] >> a & 1) for b in pair.B]


def ref_uniformity_oracle(pair: Pair, eps):
    """The first witness (X, Y) in (X bitmask, Y bitmask) order, or None."""
    eps = as_fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    na, nb = len(pair.A), len(pair.B)
    if na > ORACLE_SIDE_CAP or nb > ORACLE_SIDE_CAP:
        raise CapacityError(f"oracle sides capped at {ORACLE_SIDE_CAP} vertices")
    a0, b0 = _size_floor(eps, na), _size_floor(eps, nb)
    if a0 > na or b0 > nb:
        return None
    rows = ref_b_rows(pair)
    enum = sum(r.bit_count() for r in rows)

    for X in range(1, 1 << na):
        s = X.bit_count()
        if s < a0:
            continue
        degs = sorted((r & X).bit_count() for r in rows)
        lo = hi = 0
        found = False
        for sy in range(1, nb + 1):
            lo += degs[sy - 1]
            hi += degs[nb - sy]
            if sy >= b0 and (
                _deviates(lo, s, sy, enum, na, nb, eps)
                or _deviates(hi, s, sy, enum, na, nb, eps)
            ):
                found = True
                break
        if not found:
            continue
        # locate the least Y bitmask; subset-sum DP over B masks
        deg_of = [(r & X).bit_count() for r in rows]
        esum = [0] * (1 << nb)
        for Y in range(1, 1 << nb):
            low = Y & -Y
            esum[Y] = esum[Y ^ low] + deg_of[low.bit_length() - 1]
        for Y in range(1, 1 << nb):
            sy = Y.bit_count()
            if sy >= b0 and _deviates(esum[Y], s, sy, enum, na, nb, eps):
                wx = tuple(pair.A[k] for k in bits_of(X))
                wy = tuple(pair.B[k] for k in bits_of(Y))
                return wx, wy
        raise AssertionError("prefix scan found a deviation but mask scan did not")
    return None


def ref_check_witness(pair: Pair, eps, X, Y) -> bool:
    """The search's exact re-validation as it ran on the decoded graph."""
    eps = as_fraction(eps)
    X, Y = sorted(set(X)), sorted(set(Y))
    if not set(X) <= set(pair.A) or not set(Y) <= set(pair.B):
        return False
    if len(X) < size_floor(eps, len(pair.A)) or len(Y) < size_floor(eps, len(pair.B)):
        return False
    e = edges_between(pair.host, X, Y)
    dxy = Fraction(e, len(X) * len(Y))
    return abs(dxy - Fraction(edges_between(pair.host, pair.A, pair.B), len(pair.A) * len(pair.B))) > eps


def ref_bigint_search(pair: Pair, eps, samples: int = 1000, seed: int = 0):
    eps = as_fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    na, nb = len(pair.A), len(pair.B)
    a0, b0 = _size_floor(eps, na), _size_floor(eps, nb)
    if a0 > na or b0 > nb:
        return None
    mb = vertex_mask(pair.B)
    rows = pair.host.rows
    deg_a = [(rows[a] & mb).bit_count() for a in pair.A]
    enum = sum(deg_a)
    by_degree = sorted(range(na), key=lambda k: (deg_a[k], k))

    def candidate_xs():
        sizes = sorted({a0, max(a0, na // 4), max(a0, na // 2), max(a0, (3 * na) // 4), na})
        for m in sizes:
            yield [pair.A[k] for k in by_degree[:m]]
            yield [pair.A[k] for k in by_degree[na - m :]]
        sa = set(pair.A)
        for b in pair.B[:50]:
            hood = [a for a in pair.A if adjacent(pair.host, a, b)]
            if len(hood) >= a0:
                yield hood
            rest = sorted(sa.difference(hood))
            if len(rest) >= a0:
                yield rest
        # random sample i: na + 1 values of stream 1 from counter i (na + 1)
        key = edge_value(seed, 1)
        for i in itertools.count():
            v0, *values = (edge_value(key, i * (na + 1) + k) for k in range(na + 1))
            m = a0 + ((v0 * (na - a0 + 1)) >> 64)
            first = sorted(range(na), key=lambda k: (values[k], k))[:m]
            yield sorted(pair.A[k] for k in first)

    tried = 0
    for X in candidate_xs():
        if tried >= samples:
            return None
        tried += 1
        s = len(X)
        mx = vertex_mask(X)
        deg_b = [(rows[b] & mx).bit_count() for b in pair.B]
        order = sorted(range(nb), key=lambda k: (deg_b[k], k))
        lo = hi = 0
        for sy in range(1, nb + 1):
            lo += deg_b[order[sy - 1]]
            hi += deg_b[order[nb - sy]]
            if sy < b0:
                continue
            for e, picks in ((lo, order[:sy]), (hi, order[nb - sy :])):
                if _deviates(e, s, sy, enum, na, nb, eps):
                    Y = sorted(pair.B[k] for k in picks)
                    if ref_check_witness(pair, eps, X, Y):
                        return tuple(sorted(X)), tuple(Y)
    return None


# The numpy search that ran on a decoded graph, verbatim but for its pair
# view's two reads, edge_count() and cross(), which are spelled out as
# the Graph calls they made, and its stream, spelled out as the numpy
# kernel ``rng.stream_values`` then was.


def _count_dtype(na: int, nb: int):
    """Integer type of a pair's deviation tests: it must hold (na nb)^2,
    the largest |e na nb - e(A, B) |X| |Y|| and the largest limit."""
    cap = (na * nb) ** 2
    if cap >= 1 << 62:
        raise CapacityError("pair too large for the int64 deviation kernel")
    return np.int32 if cap < 1 << 31 else np.int64


def _deviation_limits(eps: Fraction, na: int, nb: int, b0: int, s: int) -> np.ndarray:
    """Limits over |Y| = 0..nb for |X| = s: a cross count e deviates iff
    |e na nb - e(A, B) s |Y|| > limit.

    The limit is floor(eps s |Y| na nb), the deviation test cleared of
    denominators, taken in Python ints so no eps overflows.  It is clipped
    at (na nb)^2, which |e na nb - e(A, B) s |Y|| never exceeds, and sizes
    below the floor b0 get the clip, so they never deviate.
    """
    cap = (na * nb) ** 2
    limits = np.minimum(np.arange(nb + 1, dtype=object) * (s * eps.numerator * na * nb) // eps.denominator, cap)
    limits = limits.astype(_count_dtype(na, nb))
    limits[:b0] = cap
    return limits


def _extreme_counts(degs: np.ndarray, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Least and greatest cross counts over |Y| = 1..nb.

    ``degs`` holds |N(b) cap X| over b in B in ascending order; entry
    sy - 1 sums its sy smallest (lo) and its sy largest (hi) entries.
    """
    return np.cumsum(degs, dtype=dtype), np.cumsum(degs[::-1], dtype=dtype)


def ref_nonuniformity_search(pair: Pair, eps, samples: int = 1000, seed: int = 0):
    """Heuristic witness hunt for pairs beyond the oracle cap.

    Degree-threshold prefixes of A are tried first, then neighborhoods of
    single B vertices, then seeded random subsets; for each candidate X
    the most extreme Y of every admissible size is examined, the least
    size first and the low-degree end before the high one.  A returned
    witness is exactly re-validated; None certifies nothing.
    """
    eps = as_fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    na, nb = len(pair.A), len(pair.B)
    a0, b0 = size_floor(eps, na), size_floor(eps, nb)
    if a0 > na or b0 > nb:
        return None
    enum = edges_between(pair.host, pair.A, pair.B)
    limits: dict[int, np.ndarray] = {}  # by |X|
    cross = pair.host.adjacency(pair.A, pair.B)
    by_degree = np.argsort(cross.sum(axis=1), kind="stable")
    sy = np.arange(1, nb + 1, dtype=_count_dtype(na, nb))

    def candidate_xs():
        # each candidate is an array of positions in A
        sizes = sorted({a0, max(a0, na // 4), max(a0, na // 2), max(a0, (3 * na) // 4), na})
        for m in sizes:
            yield by_degree[:m]
            yield by_degree[na - m :]
        for j in range(min(nb, 50)):
            hood = np.flatnonzero(cross[:, j])
            if len(hood) >= a0:
                yield hood
            rest = np.flatnonzero(~cross[:, j])
            if len(rest) >= a0:
                yield rest
        # random sample i reads na + 1 values of stream 1: the first sets
        # m = |X| in [a0, na], and X is the m positions of A whose own
        # values sort first
        for i in itertools.count():
            values = edge_values_block(edge_value(seed, 1), i * (na + 1), na + 1)
            m = a0 + ((int(values[0]) * (na - a0 + 1)) >> 64)
            yield np.argsort(values[1:], kind="stable")[:m]

    for _, xs in zip(range(samples), candidate_xs()):
        s = len(xs)
        deg_b = cross[xs].sum(axis=0)
        order = np.argsort(deg_b, kind="stable")
        lo, hi = _extreme_counts(deg_b[order], sy.dtype)
        mean = enum * s * sy
        if s not in limits:
            limits[s] = _deviation_limits(eps, na, nb, b0, s)[1:]
        lim = limits[s]
        dev_lo = np.abs(lo * (na * nb) - mean) > lim
        dev_hi = np.abs(hi * (na * nb) - mean) > lim
        for k in np.flatnonzero(dev_lo | dev_hi).tolist():
            for dev, picks in ((dev_lo, order[: k + 1]), (dev_hi, order[nb - k - 1 :])):
                if dev[k]:
                    X = sorted(pair.A[i] for i in xs.tolist())
                    Y = sorted(pair.B[i] for i in picks.tolist())
                    if ref_check_witness(pair, eps, X, Y):
                        return tuple(X), tuple(Y)
    return None


def ref_local_max_cut(g: Graph, side: list[bool], order: list[int]) -> None:
    # flip vertices while the cut grows; terminates since the cut is bounded
    masks = [0, 0]
    rows = g.rows
    for v in range(g.n):
        masks[side[v]] |= 1 << v
    improved = True
    while improved:
        improved = False
        for v in order:
            s = side[v]
            own = (rows[v] & masks[s]).bit_count()
            other = (rows[v] & masks[1 - s]).bit_count()
            if own > other:
                masks[s] ^= 1 << v
                masks[1 - s] |= 1 << v
                side[v] = not s
                improved = True


def ref_bipartite_extract(g: Graph, seed: int = 0, restarts: int = 10):
    if g.n == 0:
        return None
    best = None
    best_score = None
    rows = g.rows
    for r in range(restarts):
        # 2n values of stream r: sides from the top bits, then a scan order
        key = edge_value(seed, r)
        values = [edge_value(key, k) for k in range(2 * g.n)]
        side = [bool(x >> 63) for x in values[: g.n]]
        order = sorted(range(g.n), key=lambda v: (values[g.n + v], v))
        ref_local_max_cut(g, side, order)
        masks = [0, 0]
        for v in range(g.n):
            masks[side[v]] |= 1 << v
        # delete the most conflicted vertex until both sides are independent
        alive = (1 << g.n) - 1
        while True:
            worst_v, worst_c = -1, 0
            for s in (0, 1):
                for v in bits_of(masks[s] & alive):
                    c = (rows[v] & masks[s] & alive).bit_count()
                    if c > worst_c:
                        worst_v, worst_c = v, c
            if worst_v < 0:
                break
            alive ^= 1 << worst_v
        # try to re-insert deleted vertices, preferring the emptier side
        changed = True
        while changed:
            changed = False
            for v in range(g.n):
                if alive >> v & 1:
                    continue
                free = [
                    s
                    for s in (0, 1)
                    if not rows[v] & masks[s] & alive
                ]
                if free:
                    s = min(
                        free, key=lambda s: (masks[s] & alive).bit_count()
                    )
                    masks[s] |= 1 << v
                    masks[1 - s] &= ~(1 << v)
                    alive |= 1 << v
                    changed = True
        U1 = tuple(bits_of(masks[0] & alive))
        U2 = tuple(bits_of(masks[1] & alive))
        total = len(U1) + len(U2)
        mind = min_degree_induced(g, (*U1, *U2))
        score = (total, mind, -r)
        if best_score is None or score > best_score:
            best, best_score = (U1, U2), score
    return best


# ------------------------------------------------------------------ inputs


def shuffled_pair(rng, cross: np.ndarray, extra: int = 0, inside_p: float = 0.5):
    """Pair with the A x B pattern ``cross`` on shuffled host vertices.

    The host has ``extra`` vertices outside both sides and random edges
    inside each side, which no uniformity computation may read.
    """
    na, nb = cross.shape
    n = na + nb + extra
    perm = rng.permutation(n)
    A, B = perm[:na], perm[na : na + nb]
    upper = np.triu(rng.random((n, n)) < inside_p, 1)
    adj = upper | upper.T
    adj[np.ix_(A, B)] = cross
    adj[np.ix_(B, A)] = cross.T
    host = graph_of(adj)
    return Pair(host, tuple(A.tolist()), tuple(B.tolist()))


def half_graph(na: int, nb: int) -> np.ndarray:
    return np.arange(na)[:, None] <= np.arange(nb)[None, :]


def near_bipartite(seed: int, n: int = 999) -> Graph:
    """Two independent parts of 449, 90 % joined, plus random outside vertices."""
    rng = np.random.default_rng(seed)
    u = (n * 9 // 10) // 2
    perm = rng.permutation(n)
    U1, U2, V = perm[:u], perm[u : 2 * u], perm[2 * u :]
    blue = np.zeros((n, n), dtype=bool)
    blue[np.ix_(U1, U2)] = rng.random((u, u)) < 0.9
    blue[np.ix_(U2, U1)] = blue[np.ix_(U1, U2)].T
    upper = np.triu(rng.random((n, n)) < 0.5, 1)
    noise = upper | upper.T
    blue[V, :] = noise[V, :]
    blue[:, V] = noise[:, V]
    np.fill_diagonal(blue, False)
    return graph_of(blue)


EPSILONS = [
    Fraction(1, 10),
    Fraction(1, 5),
    Fraction(1, 3),
    Fraction(1, 2),
    Fraction(3, 4),
    Fraction(1, 17),
    Fraction(2, 7),
]
# products of these with the pair sizes are far beyond int64
HUGE_EPSILONS = [Fraction(1, 10**30), Fraction(10**30 - 1, 10**31)]


@st.composite
def pairs(draw, max_side):
    na = draw(st.integers(1, max_side))
    nb = draw(st.integers(1, max_side))
    bits = draw(st.lists(st.booleans(), min_size=na * nb, max_size=na * nb))
    cross = np.array(bits, dtype=bool).reshape(na, nb)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return shuffled_pair(rng, cross, extra=draw(st.integers(0, 3)))


# ------------------------------------------------------------------ oracle


def assert_oracle_matches(pair, eps):
    assert oracle_witness(pair, eps) == ref_uniformity_oracle(pair, eps)


@settings(max_examples=300, deadline=None)
@given(pairs(8), st.sampled_from(EPSILONS + HUGE_EPSILONS))
def test_oracle_matches_reference_on_random_pairs(pair, eps):
    assert_oracle_matches(pair, eps)


# size floors above both sides: nothing is tested, and every pair is uniform
FLOOR_EPSILONS = [Fraction(101, 100), Fraction(3, 2)]


@st.composite
def dense_pairs(draw, max_side):
    """Pairs of unequal sides at any density from 0 to 1."""
    na = draw(st.integers(1, max_side))
    nb = draw(st.integers(1, max_side))
    p = draw(st.sampled_from([0.0, 0.05, 0.2, 0.5, 0.8, 0.95, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return shuffled_pair(rng, rng.random((na, nb)) < p, extra=draw(st.integers(0, 2)))


@settings(max_examples=300, deadline=None)
@given(dense_pairs(10), st.sampled_from(EPSILONS + HUGE_EPSILONS + FLOOR_EPSILONS))
def test_kernel_matches_reference_on_dense_pairs(pair, eps):
    want = ref_uniformity_oracle(pair, eps)
    assert first_witness(pair.A, pair.B, pair.rows(pair.A, pair.B), eps) == want
    assert oracle_witness(pair, eps) == want


@pytest.mark.parametrize("kind", ["empty", "complete", "half", "random"])
def test_oracle_matches_reference_at_full_size(kind):
    rng = np.random.default_rng(16)
    t = 16
    cross = {
        "empty": np.zeros((t, t), dtype=bool),
        "complete": np.ones((t, t), dtype=bool),
        "half": half_graph(t, t),
        "random": rng.random((t, t)) < 0.5,
    }[kind]
    assert_oracle_matches(shuffled_pair(rng, cross, extra=2), Fraction(1, 10))


@pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("shape", [(16, 3), (3, 16)])
def test_oracle_matches_reference_on_one_long_side(shape, p):
    rng = np.random.default_rng(shape[1])
    cross = half_graph(*shape) if p == 0.5 else np.full(shape, p == 1.0)
    for eps in (Fraction(1, 10), Fraction(1, 3)):
        assert_oracle_matches(shuffled_pair(rng, cross, extra=1), eps)


@pytest.mark.parametrize("eps", HUGE_EPSILONS)
@pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
def test_oracle_exact_where_int64_products_overflow(eps, p):
    rng = np.random.default_rng(int(p * 10))
    pair = shuffled_pair(rng, rng.random((12, 11)) < p)
    assert_oracle_matches(pair, eps)


def test_oracle_witness_on_a_chunk_boundary():
    # only A[15] has neighbours, so at eps = 1/16 every X without it sits
    # exactly at the limit and the first witness X is the mask 2^15, the
    # last mask of the eighth chunk
    t = 16
    cross = np.zeros((t, t), dtype=bool)
    cross[t - 1] = True
    pair = shuffled_pair(np.random.default_rng(3), cross)
    eps = Fraction(1, 16)
    assert oracle_witness(pair, eps)[0] == (pair.A[t - 1],)
    assert_oracle_matches(pair, eps)


# ------------------------------------------------------------------ search


def assert_search_matches(pair, eps, samples, seed):
    got = nonuniformity_search(pair.rows, pair.A, pair.B, eps, samples=samples, seed=seed)
    assert got == ref_nonuniformity_search(pair, eps, samples=samples, seed=seed)
    assert got == ref_bigint_search(pair, eps, samples=samples, seed=seed)
    if got is not None:
        assert check_witness(pair.rows, pair.A, pair.B, eps, *got)
    return got


@settings(max_examples=150, deadline=None)
@given(pairs(14), st.sampled_from(EPSILONS + HUGE_EPSILONS), st.integers(1, 120), st.integers(0, 99))
def test_search_matches_reference_on_random_pairs(pair, eps, samples, seed):
    assert_search_matches(pair, eps, samples, seed)


@pytest.mark.parametrize("seed", [0, 1])
def test_search_matches_reference_on_complete_pair(seed):
    # no witness exists, so every one of the 1000 samples is drawn and tested
    pair = shuffled_pair(np.random.default_rng(seed), np.ones((300, 300), dtype=bool))
    assert assert_search_matches(pair, Fraction(1, 10), 1000, seed) is None


@pytest.mark.parametrize("seed", [0, 1])
def test_search_matches_reference_on_half_graph(seed):
    pair = shuffled_pair(np.random.default_rng(seed), half_graph(300, 300))
    assert assert_search_matches(pair, Fraction(1, 10), 1000, seed) is not None


@pytest.mark.parametrize("eps", HUGE_EPSILONS)
def test_search_exact_where_int64_products_overflow(eps):
    rng = np.random.default_rng(30)
    for cross in (np.ones((40, 30), dtype=bool), half_graph(40, 30), rng.random((40, 30)) < 0.5):
        assert_search_matches(shuffled_pair(rng, cross), eps, 200, 4)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_search_witness_from_the_seeded_samples(seed):
    # the 24 degree prefixes and neighbourhoods of this pair hold no
    # witness, so any witness comes from the seeded random subsets
    rng = np.random.default_rng(16)
    pair = shuffled_pair(rng, rng.random((16, 16)) < 0.5)
    eps = Fraction(1, 3)
    assert nonuniformity_search(pair.rows, pair.A, pair.B, eps, samples=24, seed=seed) is None
    found = assert_search_matches(pair, eps, 500, seed)
    assert found is not None or seed == 2


@st.composite
def search_cases(draw):
    """A pair of up to 40 by 40 vertices, random or a planted half graph,
    on shuffled host vertices, and whether to read its red rows."""
    na, nb = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        cross = rng.random((na, nb)) < draw(st.sampled_from([0.1, 0.5, 0.9]))
    else:
        cross = half_graph(na, nb) ^ (rng.random((na, nb)) < draw(st.sampled_from([0.0, 0.05])))
    return shuffled_pair(rng, cross, extra=draw(st.integers(0, 3))), draw(st.booleans())


def red_pair(pair):
    """classify's red rows of a pair, the blue ones flipped, and the pair
    on the decoded complement that the reference reads."""
    return complement(pair.rows), Pair(complement_of(pair.host), pair.A, pair.B)


@settings(max_examples=200, deadline=None)
@given(search_cases(), st.sampled_from(EPSILONS + HUGE_EPSILONS), st.sampled_from([1, 5, 50, 300]), st.integers(0, 5))
def test_search_matches_the_numpy_reference(case, eps, samples, seed):
    pair, red = case
    rows, pair = red_pair(pair) if red else (pair.rows, pair)
    got = nonuniformity_search(rows, pair.A, pair.B, eps, samples=samples, seed=seed)
    assert got == ref_nonuniformity_search(pair, eps, samples=samples, seed=seed)


@pytest.mark.parametrize("kind", ["complete", "half"])
def test_search_on_red_rows_matches_the_numpy_reference_at_workload_shapes(kind):
    cross = np.ones((300, 300), dtype=bool) if kind == "complete" else half_graph(300, 300)
    rows, pair = red_pair(shuffled_pair(np.random.default_rng(7), cross))
    eps = Fraction(1, 10)
    got = nonuniformity_search(rows, pair.A, pair.B, eps, samples=1000, seed=1)
    assert got == ref_nonuniformity_search(pair, eps, samples=1000, seed=1)
    assert (got is None) == (kind == "complete")


# --------------------------------------------------------------- uniformity CLI


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, json.loads(out.getvalue())["results"]


TINY = "1/10000000000000000000000000000000000000000"


@pytest.mark.parametrize(
    "graph, sampled, code, results",
    [
        ("complete", False, 0, {"density": "1", "epsilon": TINY, "method": "oracle", "uniform": True, "witness": None}),
        ("complete", True, 0, {"density": "1", "epsilon": TINY, "method": "search", "uniform": None, "witness": None}),
        ("half", False, 10,
         {"density": "11/20", "epsilon": TINY, "method": "oracle", "uniform": False, "witness": [[0], [10]]}),
        ("half", True, 10,
         {"density": "11/20", "epsilon": TINY, "method": "search", "uniform": None, "witness": [[9], [10]]}),
    ],
)
def test_uniformity_cli_at_epsilon_1e_minus_40(tmp_path, graph, sampled, code, results):
    # the pinned results are those of the bigint loops
    if graph == "complete":
        host, t = complete_bipartite(8, 8), 8
    else:
        host, t = from_edges(20, [(i, 10 + j) for i in range(10) for j in range(10) if i <= j]), 10
    cfg = tmp_path / "cfg.json"
    blocks = [list(range(t)), list(range(t, 2 * t))]
    cfg.write_text(json.dumps({"graph": to_graph6(host), "blocks": blocks, "epsilon": "1e-40"}))
    argv = ["uniformity", str(cfg)] + (["--sampled", "--seed", "3"] if sampled else [])
    assert run_main(argv) == (code, results)


# --------------------------------------------------------------- extractor


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 60), st.floats(0, 1), st.integers(0, 2**32 - 1), st.integers(0, 999), st.integers(1, 4))
def test_extractor_matches_reference_on_random_graphs(n, p, graph_seed, seed, restarts):
    rng = np.random.default_rng(graph_seed)
    upper = np.triu(rng.random((n, n)) < p, 1)
    g = graph_of(upper | upper.T)
    got = bipartite_extract(g.rows, seed=seed, restarts=restarts)
    assert got == ref_bipartite_extract(g, seed=seed, restarts=restarts)


def dense_600() -> Graph:
    """p = 0.9 on 600 vertices: conflict counts pass 255, so the
    extractor's bit-sliced counters span more than one byte plane."""
    upper = np.triu(np.random.default_rng(600).random((600, 600)) < 0.9, 1)
    return graph_of(upper | upper.T)


# (graph, extractor seed) by case; near_bipartite is the structure
# benchmark's n = 999 shape
EXTRACTOR_CASES = {
    1: (lambda: near_bipartite(1), 1),
    2: (lambda: near_bipartite(2), 2),
    "dense600": (dense_600, 3),
}


@pytest.mark.parametrize("case", list(EXTRACTOR_CASES))
def test_extractor_matches_reference_near_bipartite(case):
    make, seed = EXTRACTOR_CASES[case]
    g = make()
    got = bipartite_extract(g.rows, seed=seed)
    assert got == ref_bipartite_extract(g, seed=seed)
