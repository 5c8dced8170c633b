"""Vertex classification around an induced bipartite subgraph, with the
book bounds it forces, and the three-way structure check.

Everything here runs on Python-int adjacency rows, bit u of rows[v] set
iff u ~ v, without numpy or ``Graph``: ``trichotomy_check`` takes the
rows and two book sizes that its caller read off a ``Graph``.  The blue
graph is analyzed against a candidate induced bipartite subgraph G0 on
independent parts U1, U2.  Outside vertices split by which parts they
touch; two exact lower bounds follow: a red-book bound from averaging
over base pairs inside U2, and a blue-book bound from averaging
|Gamma(v) cap U_i| over the vertices seeing both parts.  Both are
instance-level theorems (max >= mean plus inclusion-exclusion), so tests
treat any violation as a bug, never as noise.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .colex import bits_of
from .numbers import as_fraction
from .rng import stream_values


class VertexClassification(NamedTuple):
    """Partition of [n] induced by the parts U1, U2.

    V1 sees U1 only, V2 sees U2 only, V3 sees both, V_iso sees neither.
    """

    U1: tuple[int, ...]
    U2: tuple[int, ...]
    V1: tuple[int, ...]
    V2: tuple[int, ...]
    V3: tuple[int, ...]
    V_iso: tuple[int, ...]


def _mask(vertices: Iterable[int]) -> int:
    """The bitmask of a vertex set, as ``counting.vertex_mask`` gives it
    without loading counting and oracle."""
    return sum(1 << v for v in set(vertices))


def edges_between(rows: Sequence[int], X: Iterable[int], Y: Iterable[int]) -> int:
    """Sum over x in X of |N(x) cap Y|: e(X, Y) for disjoint sets, 2 e(X) for Y = X."""
    y = _mask(Y)
    return sum((rows[x] & y).bit_count() for x in X)


def min_degree_induced(rows: Sequence[int], U: Iterable[int]) -> int:
    """Minimum degree of the subgraph induced by U; 0 when U is empty."""
    u = _mask(U)
    return min(((rows[v] & u).bit_count() for v in bits_of(u)), default=0)


def _check_independent(rows: Sequence[int], U1: Sequence[int], U2: Sequence[int]) -> None:
    for name, part in (("U1", U1), ("U2", U2)):
        m = _mask(part)
        for v in part:
            if rows[v] & m:
                raise ValueError(f"{name} is not independent: vertex {v} has a neighbor inside")


def classify(rows: Sequence[int], U1, U2) -> VertexClassification:
    """Split all vertices outside U1, U2 by their neighbor pattern.

    Vertices adjacent to neither part land in V_iso; an empty V_iso is
    what makes the three-class outside split exhaustive, so callers that
    rely on it should check.
    """
    n = len(rows)
    U1, U2 = tuple(sorted(U1)), tuple(sorted(U2))
    bad = next((v for v in U1 + U2 if not 0 <= v < n), None)
    if bad is not None:
        raise ValueError(f"vertex {bad} outside the {n}-vertex graph")
    if len(set(U1 + U2)) < len(U1) + len(U2):  # a repeat inside a part, or an overlap
        raise ValueError("repeated vertex in U1 and U2")
    _check_independent(rows, U1, U2)
    m1, m2 = _mask(U1), _mask(U2)
    classes = ([], [], [], [])  # by sees U1 + 2 sees U2: V_iso, V1, V2, V3
    for v in bits_of((1 << n) - 1 & ~(m1 | m2)):
        classes[bool(rows[v] & m1) + 2 * bool(rows[v] & m2)].append(v)
    iso, V1, V2, V3 = map(tuple, classes)
    return VertexClassification(U1, U2, V1, V2, V3, iso)


def red_book_bound(rows: Sequence[int], cls: VertexClassification) -> Fraction:
    """Average red codegree over base pairs inside U2, as an exact bound.

    Every pair of U2 is a red base; counting red pages in U2, all of V1,
    and the V3 vertices missed by both endpoints gives

        |U2| - 2 + |V1| + |V3| - 2 e(U2, V3) / |U2|

    and the complement's booksize is at least this value.
    """
    if len(cls.U2) < 2:
        raise ValueError("need at least two vertices in U2")
    e23 = edges_between(rows, cls.U2, cls.V3)
    u2 = len(cls.U2)
    return u2 - 2 + len(cls.V1) + len(cls.V3) - Fraction(2 * e23, u2)


def blue_book_bound(rows: Sequence[int], cls: VertexClassification) -> Fraction:
    """Averaged blue-book bound from V3, the larger of the two forms.

    Some v in V3 meets U_i in at least e(V3, U_i)/|V3| vertices and has a
    neighbor u in the other part; u keeps at least delta(G0) neighbors in
    U_i, so the blue base (v, u) carries at least

        e(V3, U_i)/|V3| + delta(G0) - |U_i|

    common neighbors, with the measured minimum degree of G0.
    """
    if not cls.V3:
        raise ValueError("V3 is empty")
    delta = min_degree_induced(rows, cls.U1 + cls.U2)
    return max(Fraction(edges_between(rows, cls.V3, U), len(cls.V3)) + delta - len(U) for U in (cls.U1, cls.U2))


# ------------------------------------------------------------- extraction


def _local_max_cut(rows: Sequence[int], degree: list[int], ones: int, order: list[int]) -> int:
    """Flip vertices, in ``order`` pass after pass, while the cut grows,
    and return the new mask ``ones`` of side 1.  A vertex flips at its
    turn when it has more neighbours on its own side than on the other:
    with c of them on side 1, when 2c > d(v) on side 1 or 2c < d(v) on
    side 0.  Terminates since the cut is bounded."""
    improved = True
    while improved:
        improved = False
        for v in order:
            excess = 2 * (rows[v] & ones).bit_count() - degree[v]
            if excess > 0 if ones >> v & 1 else excess < 0:
                ones ^= 1 << v
                improved = True
    return ones


# each byte as the digit "0" or "1" of its bit j, for j = 0..7
_BIT_DIGITS = [bytes.maketrans(bytes(range(256)), bytes(48 + (x >> j & 1) for x in range(256))) for j in range(8)]


def _delete_conflicts(rows: Sequence[int], ones: int, full: int) -> int:
    """Delete the most conflicted vertex until both sides are
    independent, and return the mask of the live vertices.

    A vertex's conflicts, its live neighbours on its own side, are kept
    bit-sliced over vertex lanes: level b holds bit b of every count,
    made from a byte plane of the counts, reversed and translated to
    binary digits.  Narrowing the lanes level by level from the top
    leaves those of the largest count, and the lowest of them is deleted:
    its lane is cleared, its live same-side neighbours lose one conflict
    by a borrow ripple, and levels that empty at the top are dropped, so
    the loop ends when none is left.  A deletion moves only counts on its
    own side, so each side loses the same vertices in the same order
    whichever side goes first on a tie, as side 0 does in the scan order.
    """
    zeros = full ^ ones
    counts = [(row & (ones if ones >> v & 1 else zeros)).bit_count() for v, row in enumerate(rows)]
    levels = []
    for shift in range(0, max(counts).bit_length(), 8):
        plane = bytes([c >> shift & 255 for c in reversed(counts)])
        levels += [int(plane.translate(digits), 2) for digits in _BIT_DIGITS]
    alive = full
    while levels:
        if not levels[-1]:
            levels.pop()
            continue
        lanes = levels[-1]
        for level in reversed(levels[:-1]):
            if lanes & level:
                lanes &= level
        bit = lanes & -lanes
        alive ^= bit
        levels = [level & ~bit for level in levels]
        borrow = rows[bit.bit_length() - 1] & alive & (zeros if bit & zeros else ones)
        for b, level in enumerate(levels):
            if not borrow:
                break
            levels[b] = level ^ borrow
            borrow &= ~level
    return alive


def bipartite_extract(rows: Sequence[int], seed: int = 0, restarts: int = 10):
    """Heuristic hunt for a large induced bipartite subgraph.

    Each restart: random sides, single-vertex max-cut local search,
    greedy deletion of the worst conflicted vertex until both parts are
    independent, then re-insertion sweeps.  The deletion takes the first
    largest count of live same-side neighbours over side 0 in ascending
    order, then side 1.  Restarts are scored by (order, induced min
    degree) and ties go to the earliest restart, so the result is a pure
    function of (rows, seed).  Returned parts are exactly independent;
    the xi thresholds are the caller's to judge.
    """
    n = len(rows)
    if n == 0:
        return None
    full = (1 << n) - 1
    degree = [row.bit_count() for row in rows]
    best = best_score = None
    for r in range(restarts):
        # 2n values of stream r: a vertex's side is the top bit of its
        # first value, the scan order sorts the second
        values = stream_values(seed, r, 0, 2 * n)
        ones = _mask(v for v in range(n) if values[v] >> 63)
        order = sorted(range(n), key=values[n:].__getitem__)
        del values  # so that no two restarts' draws are held at once
        ones = _local_max_cut(rows, degree, ones, order)
        alive = _delete_conflicts(rows, ones, full)
        # re-insert the dead vertices, in ascending order pass after pass:
        # each joins a side where it has no live neighbour, the emptier
        # one or side 0 on a tie
        live, dead, changed = [alive & ~ones, alive & ones], full ^ alive, True
        while changed:
            changed = False
            for v in bits_of(dead):
                free = [s for s in (0, 1) if not rows[v] & live[s]]
                if free:
                    live[min(free, key=lambda s: live[s].bit_count())] |= 1 << v
                    dead ^= 1 << v
                    changed = True
        U1, U2 = (tuple(bits_of(side)) for side in live)
        score = (len(U1) + len(U2), min_degree_induced(rows, U1 + U2), -r)
        if best_score is None or score > best_score:
            best, best_score = (U1, U2), score
    _check_independent(rows, *best)
    return best


# -------------------------------------------------------------- trichotomy


def trichotomy_floors(n: int, xi: Fraction) -> dict:
    """The xi-dependent thresholds of the three branches at order n:
    threshold_ii, order_floor and delta_floor.  Requires 0 < xi < 1."""
    if not 0 < xi < 1:
        raise ValueError("xi must lie in (0, 1)")
    return {
        "threshold_ii": (Fraction(1, 12) - xi**6 * Fraction(1, 10**6)) * n,
        "order_floor": (1 - xi) * n,
        "delta_floor": (Fraction(1, 2) - 2 * xi) * n,
    }


def trichotomy_check(rows: Sequence[int], bk_blue: int, bk_red: int, xi, candidate=None, seed: int = 0) -> dict:
    """Evaluate the three structure branches exactly.

    ``rows`` are the int rows of a coloring's blue graph, n = len(rows),
    ``bk_blue`` its booksize and ``bk_red`` the red graph's, so (iii)
    looks for a near-bipartite blue graph: for ``two_cliques``, whose
    near-bipartite graph is red, it reports "unknown".

    (i)  complement booksize exceeds n/2;
    (ii) booksize exceeds (1/12 - 1e-6 xi^6) n;
    (iii) some induced bipartite subgraph has order >= (1 - xi) n with
          induced min degree > (1/2 - 2 xi) n.

    (iii) is checked against the given candidate parts, else against the
    heuristic extractor's best find; since the heuristic proves nothing
    when it fails, the branch reports "unknown" instead of False in that
    case.  Side data includes a compared-not-asserted cross-count
    inequality e(U, V3) vs (1 - 2 xi) |V3| n / 4 for the classification
    in play.
    """
    xi = as_fraction(xi)
    n = len(rows)
    floors = trichotomy_floors(n, xi)

    if candidate is not None:
        U1, U2 = candidate
        source = "candidate"
    else:
        found = bipartite_extract(rows, seed=seed)
        U1, U2 = found if found is not None else ((), ())
        source = "extractor"
    cls = classify(rows, U1, U2)
    order = len(cls.U1) + len(cls.U2)
    delta = min_degree_induced(rows, cls.U1 + cls.U2)
    holds = order >= floors["order_floor"] and delta > floors["delta_floor"]
    e_u_v3 = edges_between(rows, cls.U1 + cls.U2, cls.V3)
    return {
        "i": bk_red > Fraction(n, 2),
        "ii": bk_blue > floors["threshold_ii"],
        "iii": holds or (False if candidate is not None else "unknown"),
        "bk_blue": bk_blue,
        "bk_red": bk_red,
        **floors,
        "G0_source": source,
        "G0_order": order,
        "delta_G0": delta,
        "e_U_V3": e_u_v3,
        "e_U_V3_reference": (1 - 2 * xi) * len(cls.V3) * Fraction(n, 4),
    }
