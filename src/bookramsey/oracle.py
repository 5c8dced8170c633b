"""The exact eps-uniformity oracle, bit-sliced on Python ints.

A pair (A, B) is eps-uniform when every X in A, Y in B with |X| >=
ceil(eps |A|), |Y| >= ceil(eps |B|) has |d(X, Y) - d(A, B)| <= eps; a
witness to the contrary must violate the deviation strictly.  With
N = |A| |B|, m = e(A, B) |X| |Y| and lim = floor(eps |X| |Y| N), a cross
count e = e(X, Y) deviates iff e < ceil((m - lim) / N) or
e > floor((m + lim) / N): two integer thresholds per (|X|, |Y|), taken
in Python ints, so no eps overflows.

The scan holds a block of candidate subsets as one int per bit plane,
lane X standing for the subset X of A.  Each b in B gets a bit-sliced
counter of |N(b) cap X|, and a Batcher network sorts the |B| counters
lane by lane; prefix sums from both ends then give the least (lo) and
the greatest (hi) e(X, Y) over the Y of each size.  A lane deviates at
|Y| when lo or hi lies outside its thresholds, chosen per lane by the
masks of the lanes with |X| = s.  The blocks run in increasing order of
X: the masks below 2^10, then [2^t, 2^(t+1)) for each t, each built from
the one before, so an early witness ends the scan early.  The lowest
deviating lane is the first witness X; the same scan over the subsets of
B, with the counts e(X, Y) as lanes, gives its least Y.

This module imports no numpy: the ``uniformity`` command reads the rows
of its pair off the graph6 line (``graph6.graph6_pair_rows``) and runs
without it, and ``counting`` calls the same kernel for ``lemma-check``
and ``classify``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from typing import Sequence

from .colex import bits_of
from .errors import CapacityError
from .numbers import as_fraction

ORACLE_SIDE_CAP = 16
FIRST_BITS = 10  # the first block holds the masks below 2^FIRST_BITS


def check_sides(A: Sequence[int], B: Sequence[int], n: int) -> None:
    """Refuse two vertex lists of an n-vertex graph that are no pair:
    an empty side, sides that meet, a vertex outside, a repeated one."""
    if not A or not B:
        raise ValueError("both sides must be nonempty")
    if set(A) & set(B):
        raise ValueError("sides must be disjoint")
    for v in (*A, *B):
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} outside the host graph")
    if len(set(A)) != len(A) or len(set(B)) != len(B):
        raise ValueError("repeated vertex in a side")


def size_floor(eps: Fraction, side: int) -> int:
    """ceil(eps side), at least 1: the least size of a tested subset."""
    return max(1, -((-eps.numerator * side) // eps.denominator))


def oracle_floors(eps: Fraction, na: int, nb: int) -> tuple[int, int] | None:
    """The size floors (ceil(eps na), ceil(eps nb)) of an oracle scan, or
    None when one passes its side: then nothing is tested.  Refuses
    eps <= 0 (ValueError), then a side above ORACLE_SIDE_CAP
    (CapacityError)."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if na > ORACLE_SIDE_CAP or nb > ORACLE_SIDE_CAP:
        raise CapacityError(f"oracle sides capped at {ORACLE_SIDE_CAP} vertices")
    a0, b0 = size_floor(eps, na), size_floor(eps, nb)
    return None if a0 > na or b0 > nb else (a0, b0)


def first_witness(
    A: Sequence[int], B: Sequence[int], rows: Sequence[int], eps
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The first witness (X, Y) that the pair is not eps-uniform, or None.

    ``rows[j]`` is the bitmask of the neighbours of B[j] over A's
    positions.  The witness is the first (X bitmask, Y bitmask) in
    increasing numeric order over the given side orderings.  Refusals
    and size floors as ``oracle_floors``.
    """
    eps = as_fraction(eps)
    na, nb = len(A), len(B)
    floors = oracle_floors(eps, na, nb)
    if floors is None:
        return None
    a0, b0 = floors
    bounds = _thresholds(eps, na, nb, sum(r.bit_count() for r in rows), a0, b0)
    X = _first_x(rows, na, nb, floors, bounds)
    if X is None:
        return None
    s = X.bit_count()
    for start, (counts,), sizes in _lane_blocks([[(r & X).bit_count() for r in rows]]):
        hits = _outside(counts, counts, [(mask, *bounds[s, sy]) for sy, mask in enumerate(sizes) if sy >= b0])
        if hits:
            Y = start + _lowest(hits)
            return tuple(A[k] for k in bits_of(X)), tuple(B[k] for k in bits_of(Y))
    raise AssertionError("a deviating X has a deviating Y")


def deviation_slopes(eps: Fraction, na: int, nb: int, edges: int, s: int) -> tuple[int, int, int]:
    """(low, high, den) for an X of s vertices in a pair of sides na, nb
    with ``edges`` cross edges: a cross count e = e(X, Y) with |Y| = sy
    deviates iff e den < sy low or e den > sy high.

    With eps = p / q and N = na nb, the thresholds ceil((m - lim) / N)
    and floor((m + lim) / N) of m = e(A, B) s sy and lim = floor(eps s
    sy N) are ceil(sy low / den) and floor(sy high / den), for
    low, high = s (e(A, B) q -+ p N) and den = q N; an integer count is
    below the first or above the second iff it is so against the
    unrounded quotient."""
    p, q, size = eps.numerator, eps.denominator, na * nb
    return s * (edges * q - p * size), s * (edges * q + p * size), q * size


def _thresholds(eps: Fraction, na: int, nb: int, edges: int, a0: int, b0: int) -> dict:
    """(low, high) for the sizes (s, sy) from the floors on: a cross count
    e of an X of s and a Y of sy vertices deviates iff e < low or
    e > high (``deviation_slopes``).  A low of 0 or a high of s sy,
    which no count passes, reads 0 or None: nothing to test."""
    out = {}
    for s in range(a0, na + 1):
        low, high, den = deviation_slopes(eps, na, nb, edges, s)
        for sy in range(b0, nb + 1):
            top = (sy * high) // den
            out[s, sy] = max(-((-sy * low) // den), 0), top if top < s * sy else None
    return out


def _first_x(rows: Sequence[int], na: int, nb: int, floors: tuple[int, int], bounds: dict) -> int | None:
    """The least X of at least a0 vertices with a deviating Y of at least
    b0, (a0, b0) the floors: per lane block, the sorted counters
    |N(b) cap X| summed from both ends, tested at each size of Y."""
    a0, b0 = floors
    net = batcher_network(nb)
    for start, counters, sizes in _lane_blocks([[r >> a & 1 for a in range(na)] for r in rows]):
        width = max(map(len, counters))
        counters = [c + [0] * (width - len(c)) for c in counters]
        _sort(counters, net)
        classes = [(s, mask) for s, mask in enumerate(sizes) if s >= a0]
        lo, hi, hits = [], [], 0
        for sy in range(1, nb + 1):
            lo, hi = _add(lo, counters[sy - 1]), _add(hi, counters[nb - sy])
            if sy >= b0:
                hits |= _outside(lo, hi, [(mask, *bounds[s, sy]) for s, mask in classes])
        if hits:
            return start + _lowest(hits)
    return None


# ------------------------------------------------------------ bit-sliced ints
# A bit-sliced number is a list of ints, plane j holding bit j of each
# lane's value; missing planes are 0.


def _lane_blocks(weights: list[list[int]]):
    """The lane blocks of the scan over the subsets of k elements, k the
    length of each weight list, in increasing order: the masks below
    2^min(k, FIRST_BITS), then those in [2^t, 2^(t+1)) for each t after.

    Yields (start, values, sizes) for the lanes start + i of a block:
    values[v] is bit-sliced, lane i holding the sum of weights[v][a] over
    the bits a of its subset, and sizes[c] is the mask of the lanes of
    subsets of c elements.  Each block is the one before with one more
    element: its values plus that weight, its sizes one class up.
    """
    k = len(weights[0])
    values, sizes, width = [[] for _ in weights], [1], 1  # one lane: the empty subset
    for a in range(k):
        ones = (1 << width) - 1
        top = [_add(v, _constant(w[a], ones)) for v, w in zip(values, weights)]
        top_sizes = [0, *sizes]
        if a >= FIRST_BITS:
            yield width, [list(v) for v in top], top_sizes
        if a + 1 == k and a >= FIRST_BITS:
            return
        values = [[p | q << width for p, q in zip_longest(v, t, fillvalue=0)] for v, t in zip(values, top)]
        sizes = [p | q << width for p, q in zip_longest(sizes, top_sizes, fillvalue=0)]
        width <<= 1
        if a + 1 == min(k, FIRST_BITS):
            yield 0, [list(v) for v in values], sizes


def _add(x: list[int], y: list[int]) -> list[int]:
    """x + y, lane by lane."""
    out, carry = [], 0
    for p, q in zip_longest(x, y, fillvalue=0):
        d = p ^ q
        out.append(d ^ carry)
        carry = p & q | carry & d
    if carry:
        out.append(carry)
    return out


def _less(x: list[int], y: list[int]) -> int:
    """The lanes where x < y: from the lowest plane up, each plane where
    the two differ decides for y's bit."""
    lt = 0
    for p, q in zip_longest(x, y, fillvalue=0):
        lt ^= (lt ^ q) & (p ^ q)
    return lt


def _outside(lo: list[int], hi: list[int], classes: list[tuple[int, int, int | None]]) -> int:
    """The lanes where lo < low or hi > high, for the (mask, low, high)
    of the class of lanes that each lies in; a low of 0 or a high of
    None tests nothing."""
    low, high, tested = [], [], 0
    for mask, low_bound, high_bound in classes:
        _set_constant(low, low_bound, mask)
        if high_bound is not None:
            _set_constant(high, high_bound, mask)
            tested |= mask
    hits = _less(lo, low) if low else 0
    return hits | _less(high, hi) & tested if tested else hits


def _set_constant(x: list[int], c: int, mask: int) -> None:
    """Set the value c in the lanes of ``mask``, where x is 0."""
    for j in bits_of(c):
        x += [0] * (j + 1 - len(x))
        x[j] |= mask


def _constant(c: int, mask: int) -> list[int]:
    """The value c in the lanes of ``mask``, 0 in the others."""
    return [mask if c >> j & 1 else 0 for j in range(c.bit_length())]


def batcher_network(n: int) -> tuple[tuple[int, int], ...]:
    """Batcher's odd-even merge sort on n wires: its comparators (i, j),
    i < j, in order; each puts the lesser value on wire i.  Built for the
    next power of two, less the comparators that reach past wire n - 1,
    which would only meet values above all others."""
    out, p = [], 1
    while p < n:
        k = p
        while k:
            for j in range(k % p, n - k, 2 * k):
                for i in range(j, min(j + k, n - k)):
                    if i // (2 * p) == (i + k) // (2 * p):
                        out.append((i, i + k))
            k //= 2
        p *= 2
    return tuple(out)


def _sort(values: list[list[int]], net: tuple[tuple[int, int], ...]) -> None:
    """Sort bit-sliced numbers of one plane count, lane by lane, in place."""
    for i, j in net:
        x, y = values[i], values[j]
        gt = 0  # the lanes where x > y
        for p, q in zip(x, y):
            gt ^= (gt ^ p) & (p ^ q)
        if gt:
            for t, (p, q) in enumerate(zip(x, y)):
                d = (p ^ q) & gt
                x[t], y[t] = p ^ d, q ^ d


def _lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1
