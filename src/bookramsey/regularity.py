"""Uniform-pair machinery: exact oracle, counting bounds, pair labels.

A pair (A, B) is eps-uniform when every X in A, Y in B with |X| >= ceil(eps
|A|), |Y| >= ceil(eps |B|) has |d(X, Y) - d(A, B)| <= eps; a witness to the
contrary must violate the deviation strictly.  The size floor and the strict
deviation are fixed conventions here, chosen so the oracle and all bound
validators agree with each other.

All densities and bounds are exact rationals; "count >= bound" comparisons
carry no floating-point tolerance.  The exact oracle is the bit-sliced
kernel of ``oracle``, which imports no numpy, run on the rows of a pair
view; ``lemma-check`` and ``classify`` reach it through
``uniformity_oracle``.  The sampled search's deviation tests are cleared
of denominators up front: they compare int64 arrays against limits
computed from eps in Python ints.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .errors import CapacityError
from .graphs import BookCertificate, Graph, vertex_mask
from .numbers import as_fraction
from .oracle import ORACLE_SIDE_CAP, check_sides, first_witness, oracle_floors, size_floor
from .rng import stream_values

if TYPE_CHECKING:
    from .colorings import TwoColoring


@dataclass(frozen=True)
class BipartitePairView:
    """Two disjoint vertex sets of a host graph with their cross edges."""

    host: Graph
    A: tuple[int, ...]
    B: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "A", tuple(self.A))
        object.__setattr__(self, "B", tuple(self.B))
        check_sides(self.A, self.B, self.host.n)

    def edge_count(self) -> int:
        return self.host.edges_between(self.A, self.B)

    @property
    def density(self) -> Fraction:
        return Fraction(self.edge_count(), len(self.A) * len(self.B))

    def cross(self) -> np.ndarray:
        """(|A|, |B|) bool matrix: entry [k, j] is set iff A[k] ~ B[j]."""
        return self.host.adjacency(self.A, self.B)

    def b_rows(self) -> list[int]:
        """For each b in B, the bitmask of its neighbors over A positions."""
        return [sum(1 << k for k in np.flatnonzero(col).tolist()) for col in self.cross().T]


@dataclass(frozen=True)
class UniformityVerdict:
    witness: tuple[tuple[int, ...], tuple[int, ...]] | None

    @property
    def uniform(self) -> bool:
        return self.witness is None


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


def uniformity_oracle(pair: BipartitePairView, eps) -> UniformityVerdict:
    """Exhaustive uniformity check over all floor-respecting subset pairs:
    the bit-sliced kernel ``oracle.first_witness`` on the pair's rows.

    Sides are capped at 16 vertices: larger inputs belong to
    nonuniformity_search.  The returned witness is the first (X bitmask,
    Y bitmask) in increasing numeric order over the given side orderings.
    """
    eps = as_fraction(eps)
    oracle_floors(eps, len(pair.A), len(pair.B))  # refuses before the rows are read
    return UniformityVerdict(first_witness(pair.A, pair.B, pair.b_rows(), eps))


def check_witness(pair: BipartitePairView, eps, X: Iterable[int], Y: Iterable[int]) -> bool:
    """Exact re-validation of a claimed non-uniformity witness."""
    eps = as_fraction(eps)
    X, Y = sorted(set(X)), sorted(set(Y))
    if not set(X) <= set(pair.A) or not set(Y) <= set(pair.B):
        return False
    if len(X) < size_floor(eps, len(pair.A)) or len(Y) < size_floor(eps, len(pair.B)):
        return False
    e = pair.host.edges_between(X, Y)
    dxy = Fraction(e, len(X) * len(Y))
    return abs(dxy - pair.density) > eps


def nonuniformity_search(pair: BipartitePairView, eps, samples: int = 1000, seed: int = 0):
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
    enum = pair.edge_count()
    limits: dict[int, np.ndarray] = {}  # by |X|
    cross = pair.cross()
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
            values = stream_values(seed, 1, i * (na + 1), na + 1)
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
                    if check_witness(pair, eps, X, Y):
                        return tuple(X), tuple(Y)
    return None


# ------------------------------------------------------- multipair bounds


def _check_blocks(blocks: Sequence[Sequence[int]]) -> int:
    """Common size t of a nonempty list of pairwise disjoint blocks."""
    t = len(blocks[0])
    if t == 0 or any(len(b) != t for b in blocks):
        raise ValueError("all blocks must share one nonzero size")
    seen = 0
    for b in blocks:
        mb = vertex_mask(b)
        if mb & seen:
            raise ValueError("blocks must be pairwise disjoint")
        seen |= mb
    return t


@dataclass(frozen=True)
class MultiPairConfig:
    """One or two base blocks plus k page blocks, all of size t.

    Densities are taken from the host graph, so the counting hypotheses
    e(A_i, B_j) >= d_ij t^2 hold with equality.  Whether each (base,
    page) pair is eps-uniform is the caller's concern; the bound holds
    whenever they are.
    """

    host: Graph
    bases: tuple[tuple[int, ...], ...]
    pages: tuple[tuple[int, ...], ...]
    epsilon: Fraction

    def __post_init__(self):
        object.__setattr__(self, "bases", tuple(tuple(b) for b in self.bases))
        object.__setattr__(self, "pages", tuple(tuple(p) for p in self.pages))
        object.__setattr__(self, "epsilon", as_fraction(self.epsilon))
        if len(self.bases) not in (1, 2):
            raise ValueError("need one or two base blocks")
        if not self.pages:
            raise ValueError("need at least one page block")
        _check_blocks([*self.bases, *self.pages])
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")

    @property
    def t(self) -> int:
        return len(self.bases[0])

    @property
    def k(self) -> int:
        return len(self.pages)

    def base_pair(self, i: int, j: int) -> BipartitePairView:
        return BipartitePairView(self.host, self.bases[i], self.pages[j])

    def densities(self, i: int) -> list[Fraction]:
        return [self.base_pair(i, j).density for j in range(self.k)]


def _codegrees(rows1: np.ndarray, rows2: np.ndarray) -> np.ndarray:
    """Common entries of each row of one bool matrix with each row of
    another, as a float32 product (exact below 2**24 columns)."""
    return rows1.astype(np.float32) @ rows2.T.astype(np.float32)


def _form_terms(
    cfg: MultiPairConfig,
) -> tuple[list[tuple[int, int]], np.ndarray, list[int], Fraction]:
    """(base edges, their page counts, pages, density term) of a config.

    One base: the edges inside A in lexicographic order and sum d_i^2.
    Two bases: the edges from A1 to A2, in A1's given order, and
    sum d_1i d_2i.  The page count of a base edge uv is
    |N(u) cap N(v) cap pages|.
    """
    shared = len(cfg.bases) == 1
    cols = sorted(set(cfg.bases[-1]))
    rows = cols if shared else list(cfg.bases[0])
    adj = cfg.host.adjacency(rows, cols)
    iu, iv = np.nonzero(np.triu(adj, k=1) if shared else adj)
    edges = [(rows[i], cols[j]) for i, j in zip(iu.tolist(), iv.tolist())]
    # one base pairs with itself: sum d_i * d_i
    d = [cfg.densities(i) for i in range(len(cfg.bases))]
    term = sum(a * b for a, b in zip(d[0], d[-1]))
    pages = sorted({v for p in cfg.pages for v in p})
    pages_of = [cfg.host.adjacency(side, pages) for side in (rows, cols)]
    counts = _codegrees(*pages_of)[iu, iv].astype(np.int64)
    return edges, counts, pages, term


def bad_pair_count(cfg: MultiPairConfig, j: int) -> int | None:
    """Pairs of base vertices whose codegree into page block j is at most
    (d_1 - eps)(d_2 - eps) t, d_i the density from base i to page j.

    One base (d_1 = d_2): unordered {u, v} in A, and eps < d is required.
    Two bases: ordered (u, v) in A1 x A2, and 2 eps <= d_i for both.
    None when page j's density misses that precondition: no bound applies.
    """
    eps = cfg.epsilon
    pairs = [cfg.base_pair(i, j) for i in range(len(cfg.bases))]
    d = [p.density for p in pairs]
    if not (eps < d[0] if len(pairs) == 1 else 2 * eps <= min(d)):
        return None
    thr = (d[0] - eps) * (d[-1] - eps) * cfg.t
    rows = [p.cross() for p in pairs]
    low = _codegrees(rows[0], rows[-1]) <= math.floor(thr)
    return int(np.count_nonzero(np.triu(low, k=1) if len(pairs) == 1 else low))


def triangle_bound(cfg: MultiPairConfig) -> tuple[Fraction, int]:
    """Lower bound vs exact count of triangles on a base edge and a page vertex.

    bound = t (e - 2 eps t^2) sum d_1i d_2i  -  2 eps k t e, where e is
    e(A) for one base (d_1i = d_2i) and e(A1, A2) for two.
    """
    edges, counts, _, term = _form_terms(cfg)
    t, k, eps, e = cfg.t, cfg.k, cfg.epsilon, len(edges)
    bound = t * (e - 2 * eps * t * t) * term - 2 * eps * k * t * e
    return bound, int(counts.sum())


def book_bound(cfg: MultiPairConfig) -> tuple[Fraction, BookCertificate] | None:
    """Averaged form: some base edge carries a page-block book of size at
    least t (1 - 2 eps t^2 / e) sum d_1i d_2i - 2 eps k t, the terms as in
    ``triangle_bound``; the certificate is the first largest book in the
    base-edge order.  None when the base block(s) span no edges: no book
    bound applies.
    """
    edges, counts, pages, term = _form_terms(cfg)
    if not edges:
        return None
    t, k, eps = cfg.t, cfg.k, cfg.epsilon
    bound = t * (1 - Fraction(2 * eps * t * t, len(edges))) * term - 2 * eps * k * t
    u, v = edges[int(counts.argmax())]
    both = cfg.host.adjacency([u, v], pages).all(axis=0)
    pages_of_uv = frozenset(np.asarray(pages)[both].tolist())
    return bound, BookCertificate(base=(min(u, v), max(u, v)), pages=pages_of_uv)


# ---------------------------------------------------------- pair labeling


def classify_pairs(
    c: TwoColoring,
    blocks: Sequence[Sequence[int]],
    eps,
    beta,
    gamma,
    *,
    samples: int = 500,
    seed: int = 0,
) -> list[dict]:
    """Label every block pair irr / blue / mid / red.

    A pair is irr when not eps-uniform; otherwise its red density d
    decides: blue when d < beta, mid when beta <= d < 1 - gamma, red when
    d >= 1 - gamma.  Uniformity is judged on the red graph, which is
    equivalent to judging the blue graph since complement densities
    deviate identically.  Blocks within the oracle cap are decided
    exactly; larger ones fall back to the sampled search, recorded per
    pair since finding no witness does not prove uniformity.
    """
    eps, beta, gamma = as_fraction(eps), as_fraction(beta), as_fraction(gamma)
    if not (0 < beta < 1 and 0 < gamma < 1):
        raise ValueError("beta and gamma must lie in (0, 1)")
    blocks = [tuple(b) for b in blocks]
    if not blocks:
        raise ValueError("need at least one block")
    t = _check_blocks(blocks)

    red = c.red
    out = []
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            pair = BipartitePairView(red, blocks[i], blocks[j])
            if t <= ORACLE_SIDE_CAP:
                verdict = uniformity_oracle(pair, eps)
                nonuniform = not verdict.uniform
                method = "oracle"
            else:
                witness = nonuniformity_search(pair, eps, samples=samples, seed=seed)
                nonuniform = witness is not None
                method = "search"
            d = pair.density
            if nonuniform:
                label = "irr"
            elif d < beta:
                label = "blue"
            elif d < 1 - gamma:
                label = "mid"
            else:
                label = "red"
            out.append(
                {"pair": (i, j), "label": label, "red_density": d, "method": method}
            )
    return out
