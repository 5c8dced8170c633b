"""The sampled non-uniformity search on a decoded graph.

A pair (A, B) is eps-uniform when every X in A, Y in B with |X| >= ceil(eps
|A|), |Y| >= ceil(eps |B|) has |d(X, Y) - d(A, B)| <= eps; a witness to the
contrary must violate the deviation strictly.  The size floor and the strict
deviation are fixed conventions here, chosen so the oracle and all bound
validators agree with each other.

All densities are exact rationals; "count >= bound" comparisons carry no
floating-point tolerance.  The exact oracle is the bit-sliced kernel of
``oracle``, and the counting bounds and pair labels are the popcount
loops of ``counting``, both on rows read off the graph6 line
(``graph6.graph6_pair_rows``); none of them loads numpy.  This module
holds the sampled search, the fallback past the oracle cap, which reads
a decoded ``Graph`` through ``BipartitePairView``: the ``uniformity
--sampled`` command and ``classify``'s blocks above ``ORACLE_SIDE_CAP``
run it.  Its deviation tests are cleared of denominators up front: they
compare int64 arrays against limits computed from eps in Python ints.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .errors import CapacityError
from .graphs import Graph
from .numbers import as_fraction
from .oracle import check_sides, size_floor
from .rng import stream_values


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

