"""The sampled non-uniformity search, on Python-int pair rows.

A pair (A, B) is eps-uniform when every X in A, Y in B with |X| >= ceil(eps
|A|), |Y| >= ceil(eps |B|) has |d(X, Y) - d(A, B)| <= eps; a witness to the
contrary must violate the deviation strictly.  The size floor and the strict
deviation are fixed conventions here, chosen so the oracle and all bound
validators agree with each other.

All densities are exact rationals; "count >= bound" comparisons carry no
floating-point tolerance.  The exact oracle is the bit-sliced kernel of
``oracle``, and the counting bounds and pair labels are the popcount
loops of ``counting``.  This module holds the sampled search, the
fallback past the oracle cap, which the ``uniformity --sampled``
command and ``classify``'s blocks above ``ORACLE_SIDE_CAP`` run.  Like
the others it reads its pair from a row source (``counting.RowSource``),
which the command line serves off the graph6 line
(``graph6.graph6_pair_rows``), and it loads no numpy.  Its deviation
test is the oracle's (``oracle.deviation_slopes``), cleared of
denominators and taken in Python ints, so no eps overflows.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate
from typing import TYPE_CHECKING, Iterable, Sequence

from .colex import bits_of
from .numbers import as_fraction
from .oracle import deviation_slopes, size_floor
from .rng import stream_blocks

if TYPE_CHECKING:  # the search's process need not compile counting
    from .counting import RowSource

_DIGITS = bytes.maketrans(b"\0\1", b"01")


def check_witness(rows: RowSource, A: Sequence[int], B: Sequence[int], eps, X: Iterable[int], Y: Iterable[int]) -> bool:
    """Exact re-validation of a claimed non-uniformity witness of the
    pair (A, B), read from ``rows``."""
    eps = as_fraction(eps)
    X, Y = tuple(sorted(set(X))), tuple(sorted(set(Y)))
    if not set(X) <= set(A) or not set(Y) <= set(B):
        return False
    if len(X) < size_floor(eps, len(A)) or len(Y) < size_floor(eps, len(B)):
        return False
    e, edges = (sum(map(int.bit_count, rows(P, Q))) for P, Q in ((X, Y), (A, B)))
    return abs(Fraction(e, len(X) * len(Y)) - Fraction(edges, len(A) * len(B))) > eps


def nonuniformity_search(rows: RowSource, A: Sequence[int], B: Sequence[int], eps, samples: int = 1000, seed: int = 0):
    """Heuristic witness hunt for pairs beyond the oracle cap.

    Degree-threshold prefixes of A are tried first, then neighborhoods of
    single B vertices, then seeded random subsets; for each candidate X
    the most extreme Y of every admissible size is examined, the least
    size first and the low-degree end before the high one.  A returned
    witness is exactly re-validated; None certifies nothing.  The sides
    are the caller's to check (``oracle.check_sides``).
    """
    eps = as_fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    na, nb = len(A), len(B)
    a0, b0 = size_floor(eps, na), size_floor(eps, nb)
    if a0 > na or b0 > nb:
        return None
    cross = rows(A, B)  # cross[j]: the neighbours of B[j] over A's positions
    edges, full = sum(map(int.bit_count, cross)), (1 << na) - 1

    def candidate_xs():
        # each candidate is a mask over A's positions
        deg_a = list(map(int.bit_count, rows(B, A)))
        prefix, masks = 0, [0]
        for k in sorted(range(na), key=deg_a.__getitem__):
            prefix |= 1 << k
            masks.append(prefix)  # masks[m]: the m positions of least degree
        for m in sorted({a0, max(a0, na // 4), max(a0, na // 2), max(a0, (3 * na) // 4), na}):
            yield masks[m]
            yield full ^ masks[na - m]
        for hood in cross[:50]:
            for x in (hood, full ^ hood):
                if x.bit_count() >= a0:
                    yield x
        # random sample i reads na + 1 values of stream 1 from counter
        # i (na + 1): the first sets m = |X| in [a0, na], and X is the m
        # positions of A whose own values sort first, ties to the lower one
        for v0, *values in stream_blocks(seed, 1, na + 1):
            m = a0 + ((v0 * (na - a0 + 1)) >> 64)
            ranked = sorted(values)
            cut = ranked[m - 1]
            if m < na and ranked[m] == cut:
                yield sum(1 << k for k in sorted(range(na), key=values.__getitem__)[:m])
            else:  # the m least values are those up to the cut
                yield int(bytes(map(cut.__ge__, values)).translate(_DIGITS)[::-1], 2)

    for _, x in zip(range(samples), candidate_xs()):
        s = x.bit_count()
        low, high, den = deviation_slopes(eps, na, nb, edges, s)
        deg_b = list(map(int.bit_count, map(x.__and__, cross)))
        degs = sorted(deg_b)
        # lo(k), the least e(X, Y) over |Y| = k, sums the k least degrees, so
        # lo(k) den - k low is convex in k, least where the degrees reach
        # low / den; hi(k) den - k high, of the k greatest, is concave and
        # greatest where they pass high / den.  A size deviates iff one does.
        k = max(b0, bisect_left(degs, -(-low // den)))
        if sum(degs[:k]) * den >= k * low:
            k = max(b0, nb - bisect_right(degs, high // den))
            if sum(degs[nb - k :]) * den <= k * high:
                continue
        order = sorted(range(nb), key=deg_b.__getitem__)
        lo, hi = list(accumulate(degs)), list(accumulate(reversed(degs)))
        for k in range(b0, nb + 1):
            for e, picks in ((lo[k - 1], order[:k]), (hi[k - 1], order[nb - k :])):
                if not k * low <= e * den <= k * high:
                    X, Y = tuple(sorted(A[i] for i in bits_of(x))), tuple(sorted(B[i] for i in picks))
                    if check_witness(rows, A, B, eps, X, Y):  # reads (X, Y) afresh; (A, B) from a cache if rows has one
                        return X, Y
    return None
