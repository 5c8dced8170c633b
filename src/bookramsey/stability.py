"""Vertex classification around an induced bipartite subgraph, with the
book bounds it forces, and the three-way structure check.

The blue graph g is analyzed against a candidate induced bipartite
subgraph G0 on independent parts U1, U2.  Outside vertices split by
which parts they touch; two exact lower bounds follow: a red-book bound
from averaging over base pairs inside U2, and a blue-book bound from
averaging |Gamma(v) cap U_i| over the vertices seeing both parts.  Both
are instance-level theorems (max >= mean plus inclusion-exclusion), so
tests treat any violation as a bug, never as noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import Graph
from .numbers import as_fraction
from .rng import stream_values


@dataclass(frozen=True)
class VertexClassification:
    """Partition of [n] induced by the parts U1, U2.

    V1 sees U1 only, V2 sees U2 only, V3 sees both, V_iso sees neither.
    """

    U1: tuple[int, ...]
    U2: tuple[int, ...]
    V1: tuple[int, ...]
    V2: tuple[int, ...]
    V3: tuple[int, ...]
    V_iso: tuple[int, ...]


def _check_independent(g: Graph, part, name: str) -> None:
    inside = np.flatnonzero(g.degrees_into(part, part))
    if inside.size:
        v = part[inside[0]]
        raise ValueError(f"{name} is not independent: vertex {v} has a neighbor inside")


def classify(g: Graph, U1, U2) -> VertexClassification:
    """Split all vertices outside U1, U2 by their neighbor pattern.

    Vertices adjacent to neither part land in V_iso; an empty V_iso is
    what makes the three-class outside split exhaustive, so callers that
    rely on it should check.
    """
    U1, U2 = tuple(sorted(U1)), tuple(sorted(U2))
    if len(set(U1 + U2)) < len(U1) + len(U2):  # a repeat inside a part, or an overlap
        raise ValueError("repeated vertex in U1 and U2")
    _check_independent(g, U1, "U1")
    _check_independent(g, U2, "U2")
    outside = np.ones(g.n, dtype=bool)
    outside[list(U1 + U2)] = False
    has1, has2 = g.degrees_into(U1) > 0, g.degrees_into(U2) > 0

    def where(seen):
        return tuple(np.flatnonzero(outside & seen).tolist())

    return VertexClassification(
        U1, U2, where(has1 & ~has2), where(~has1 & has2), where(has1 & has2), where(~has1 & ~has2)
    )


def red_book_bound(g: Graph, cls: VertexClassification) -> Fraction:
    """Average red codegree over base pairs inside U2, as an exact bound.

    Every pair of U2 is a red base; counting red pages in U2, all of V1,
    and the V3 vertices missed by both endpoints gives

        |U2| - 2 + |V1| + |V3| - 2 e(U2, V3) / |U2|

    and the complement's booksize is at least this value.
    """
    if len(cls.U2) < 2:
        raise ValueError("need at least two vertices in U2")
    e23 = g.edges_between(cls.U2, cls.V3)
    u2 = len(cls.U2)
    return u2 - 2 + len(cls.V1) + len(cls.V3) - Fraction(2 * e23, u2)


def blue_book_bound(g: Graph, cls: VertexClassification) -> Fraction:
    """Averaged blue-book bound from V3, the larger of the two forms.

    Some v in V3 meets U_i in at least e(V3, U_i)/|V3| vertices and has a
    neighbor u in the other part; u keeps at least delta(G0) neighbors in
    U_i, so the blue base (v, u) carries at least

        e(V3, U_i)/|V3| + delta(G0) - |U_i|

    common neighbors, with the measured minimum degree of G0.
    """
    if not cls.V3:
        raise ValueError("V3 is empty")
    delta = g.min_degree_induced(cls.U1 + cls.U2)
    n3 = len(cls.V3)
    best = None
    for part in (cls.U1, cls.U2):
        e3p = g.edges_between(cls.V3, part)
        val = Fraction(e3p, n3) + delta - len(part)
        if best is None or val > best:
            best = val
    return best


# ------------------------------------------------------------- extraction


def _side_counts(g: Graph, side: np.ndarray, alive: np.ndarray) -> list[np.ndarray]:
    """Each vertex's live neighbours on side 0 and on side 1."""
    return [g.degrees_into(np.flatnonzero(alive & (side == s))) for s in (0, 1)]


def _local_max_cut(g: Graph, side: np.ndarray, order: np.ndarray) -> None:
    """Flip vertices, in ``order`` pass after pass, while the cut grows.

    A vertex flips at its turn when it has more neighbours on its own
    side than on the other; terminates since the cut is bounded.  With
    sign +1 on side 1 and -1 on side 0, own minus other neighbours is a
    vertex's sign times the sign sum over its neighbours.  Both are kept
    by position in ``order``, so each step jumps straight to the next
    vertex that flips, and a flip moves only its neighbours' sums.
    """
    n = len(side)
    at = np.argsort(order)
    on0, on1 = _side_counts(g, side, np.ones(n, dtype=bool))
    sums = (on1 - on0)[order]
    signs = (2 * side.astype(np.intp) - 1)[order]
    improved = True
    while improved:
        improved = False
        i = 0
        while i < n:
            i += int((signs[i:] * sums[i:] > 0).argmax())
            if signs[i] * sums[i] <= 0:
                break
            v = int(order[i])
            sums[at[g.adjacency([v])[0].nonzero()[0]]] -= 2 * signs[i]
            signs[i] = -signs[i]
            side[v] ^= 1
            improved = True
            i += 1


def bipartite_extract(g: Graph, seed: int = 0, restarts: int = 10):
    """Heuristic hunt for a large induced bipartite subgraph.

    Each restart: random sides, single-vertex max-cut local search,
    greedy deletion of the worst conflicted vertex until both parts are
    independent, then re-insertion sweeps.  The deletion keeps each
    vertex's count of live same-side neighbours and takes the first
    maximum over side 0 in ascending order, then side 1.  Restarts are
    scored by (order, induced min degree) and ties go to the earliest
    restart, so the result is a pure function of (g, seed).  Returned
    parts are exactly independent; the xi thresholds are the caller's to
    judge.
    """
    if g.n == 0:
        return None
    n = g.n
    best = None
    best_score = None
    for r in range(restarts):
        # 2n values of stream r: a vertex's side is the top bit of its
        # first value, the scan order sorts the second
        values = np.array(stream_values(seed, r, 0, 2 * n), dtype=np.uint64)
        side = (values[:n] >> np.uint64(63)).astype(np.int8)
        order = np.argsort(values[n:], kind="stable")
        _local_max_cut(g, side, order)
        # delete the most conflicted vertex until both sides are independent;
        # conflicts are kept in scan order: side 0 ascending, then side 1
        alive = np.ones(n, dtype=bool)
        scan = np.argsort(side, kind="stable")
        at = np.argsort(scan)
        conflict = np.choose(side, _side_counts(g, side, alive))[scan]
        while True:
            k = int(conflict.argmax())
            if conflict[k] <= 0:
                break
            v = int(scan[k])
            alive[v] = False
            conflict[k] = 0
            same = g.adjacency([v])[0] & alive & (side == side[v])
            conflict[at[same.nonzero()[0]]] -= 1
        # live neighbours per side; re-insert deleted vertices, in ascending
        # order pass after pass, preferring the emptier side
        count = _side_counts(g, side, alive)
        size = [int(np.count_nonzero(alive & (side == s))) for s in (0, 1)]
        changed = True
        while changed:
            changed = False
            for v in np.flatnonzero(~alive).tolist():
                free = [s for s in (0, 1) if count[s][v] == 0]
                if free:
                    s = min(free, key=lambda s: size[s])
                    side[v] = s
                    alive[v] = True
                    size[s] += 1
                    count[s][g.adjacency([v])[0]] += 1
                    changed = True
        U1 = tuple(np.flatnonzero(alive & (side == 0)).tolist())
        U2 = tuple(np.flatnonzero(alive & (side == 1)).tolist())
        total = len(U1) + len(U2)
        mind = int((count[0] + count[1])[alive].min()) if total else 0
        score = (total, mind, -r)
        if best_score is None or score > best_score:
            best, best_score = (U1, U2), score
    _check_independent(g, best[0], "U1")
    _check_independent(g, best[1], "U2")
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


def trichotomy_check(g: Graph, xi, candidate=None, seed: int = 0) -> dict:
    """Evaluate the three structure branches exactly.

    ``g`` is the blue graph of a coloring (``trichotomy`` passes a BRC1
    file's blue graph), so (iii) looks for a near-bipartite blue graph:
    for ``two_cliques``, whose near-bipartite graph is red, it reports
    "unknown".

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
    n = g.n
    floors = trichotomy_floors(n, xi)
    (bk_blue, _), (bk_red, _) = g.books()

    if candidate is not None:
        U1, U2 = candidate
        source = "candidate"
    else:
        found = bipartite_extract(g, seed=seed)
        U1, U2 = found if found is not None else ((), ())
        source = "extractor"
    cls = classify(g, U1, U2)
    order = len(cls.U1) + len(cls.U2)
    delta = g.min_degree_induced(cls.U1 + cls.U2)
    iii_holds = order >= floors["order_floor"] and delta > floors["delta_floor"]
    iii: bool | str
    if iii_holds:
        iii = True
    elif candidate is not None:
        iii = False
    else:
        iii = "unknown"

    e_u_v3 = g.edges_between(cls.U1 + cls.U2, cls.V3)
    return {
        "i": bk_red > Fraction(n, 2),
        "ii": bk_blue > floors["threshold_ii"],
        "iii": iii,
        "bk_blue": bk_blue,
        "bk_red": bk_red,
        **floors,
        "G0_source": source,
        "G0_order": order,
        "delta_G0": delta,
        "e_U_V3": e_u_v3,
        "e_U_V3_reference": (1 - 2 * xi) * len(cls.V3) * Fraction(n, 4),
    }
