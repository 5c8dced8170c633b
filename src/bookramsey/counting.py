"""Counting bounds and pair labels on Python-int pair rows, without numpy.

Everything here is read from a row source ``rows(A, B)``: for each b in
B, the bitmask of its neighbours over the positions of A (A and B may
meet).  The command line passes ``graph6.graph6_pair_rows`` on the held
graph6 line at every block size, so neither ``lemma-check`` nor
``classify`` loads numpy; past ``ORACLE_SIDE_CAP`` ``classify`` hands
the red rows (``complement``) to the sampled search of ``regularity``.

A config is one or two base blocks and k page blocks, all of size t.
Densities are popcounts over t^2, so the counting hypotheses
e(A_i, B_j) >= d_ij t^2 hold with equality.  One base A pairs with
itself (d_1 = d_2); its base edges are the edges inside A in
lexicographic order.  Two bases A1, A2 have as base edges the edges
from A1 to A2, in A1's given order and then A2's vertex order.  The
page count of a base edge uv is |N(u) cap N(v) cap pages|, a popcount
of the AND of the two endpoints' page rows.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import combinations, compress
from operator import add
from typing import Callable, Sequence

from .colex import bits_of
from .oracle import ORACLE_SIDE_CAP, check_sides, first_witness

RowSource = Callable[[Sequence[int], Sequence[int]], list[int]]


def vertex_mask(vertices) -> int:
    """Bitmask with one bit per vertex index."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def check_blocks(blocks: Sequence[Sequence[int]]) -> int:
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


class MultiPair:
    """One or two base blocks plus k page blocks of size t, of an
    n-vertex graph read through a row source.  Whether each (base, page)
    pair is eps-uniform is the caller's concern; the bounds hold
    whenever they are."""

    def __init__(self, rows: RowSource, n: int, bases, pages, epsilon: Fraction):
        self.bases = tuple(tuple(b) for b in bases)
        self.pages = tuple(tuple(p) for p in pages)
        if len(self.bases) not in (1, 2):
            raise ValueError("need one or two base blocks")
        if not self.pages:
            raise ValueError("need at least one page block")
        self.t = check_blocks([*self.bases, *self.pages])
        if epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        self.k, self.epsilon, self.read, self.n = len(self.pages), epsilon, rows, n

    @cached_property
    def page_rows(self) -> list[list[list[int]]]:
        """[i][j]: for each vertex of base i, its mask over page j, cut
        from one read of base i over all the pages.  Read first, it
        refuses a (base, page) pair as ``oracle.check_sides``."""
        for A in self.bases:
            for P in self.pages:
                check_sides(A, P, self.n)
        t, full, pages = self.t, (1 << self.t) - 1, [v for P in self.pages for v in P]
        reads = [self.read(pages, A) for A in self.bases]
        return [[[m >> j * t & full for m in masks] for j in range(self.k)] for masks in reads]

    def uniform(self, i: int, j: int) -> bool:
        """Whether (base i, page j) is eps-uniform: the exact oracle
        (``oracle.first_witness``) on the base's rows over the page, as
        the pair (page, base), since uniformity is symmetric."""
        return first_witness(self.pages[j], self.bases[i], self.page_rows[i][j], self.epsilon) is None

    def densities(self, i: int) -> list[Fraction]:
        return [Fraction(sum(map(int.bit_count, r)), self.t * self.t) for r in self.page_rows[i]]

    def bad_pair_count(self, j: int) -> int | None:
        """Pairs of base vertices whose codegree into page block j is at
        most (d_1 - eps)(d_2 - eps) t, d_i the density from base i to
        page j.

        One base (d_1 = d_2): unordered {u, v} in A, and eps < d is
        required.  Two bases: ordered (u, v) in A1 x A2, and 2 eps <= d_i
        for both.  None when page j's density misses that precondition:
        no bound applies.
        """
        return self._walk[0][j]

    def _lows(self) -> list[int | None]:
        """Per page, the floor of the bad-pair threshold, or None when
        the page misses the precondition."""
        eps, shared, lows = self.epsilon, len(self.bases) == 1, []
        for d in zip(*(self.densities(i) for i in range(len(self.bases)))):
            applies = eps < d[0] if shared else 2 * eps <= min(d)
            lows.append(math.floor((d[0] - eps) * (d[-1] - eps) * self.t) if applies else None)
        return lows

    @cached_property
    def _walk(self) -> tuple[list[int | None], list[int], list[tuple[int, int, int, list[int]]]]:
        """One pass over the base pairs: (bad pairs per page, the order of
        the second vertices, the walk).

        The base pairs are grouped by their first vertex u, in base-edge
        order: one base, u and each later vertex of sorted A; two bases,
        u in A1 and each vertex of sorted A2.  Per u and page, the
        codegrees of all its pairs are popcounts of ANDs of page rows, in
        C-level maps; those at most the page's threshold are bad pairs.
        Summed over the pages, those on u's base edges, picked by the bits
        of u's mask (``_selectors``), are the edges' page counts.  The walk
        holds per u (u, the position in the order where its second
        vertices start, the mask of its neighbours among them, the page
        counts of those edges).
        """
        shared, lows = len(self.bases) == 1, self._lows()
        order = sorted(self.bases[-1])
        pos = [{v: a for a, v in enumerate(B)} for B in self.bases]
        heads = [[prow[pos[-1][v]] for v in order] for prow in self.page_rows[-1]]
        starts = order if shared else self.bases[0]
        bad, walk = [0] * self.k, []
        for a, (u, row) in enumerate(zip(starts, self.read(order, starts))):
            skip = a + 1 if shared else 0
            mask, totals = row >> skip, None
            for j, (prow, low) in enumerate(zip(self.page_rows[0], lows)):
                counts = list(map(int.bit_count, map(prow[pos[0][u]].__and__, heads[j][skip:])))
                if low is not None:
                    bad[j] += sum(map(low.__ge__, counts))
                totals = counts if totals is None else list(map(add, totals, counts))
            walk.append((u, skip, mask, list(compress(totals, _selectors(mask)))))
        return [None if low is None else b for b, low in zip(bad, lows)], order, walk

    def _term(self) -> Fraction:
        """sum d_1i d_2i over the pages; one base pairs with itself."""
        d = [self.densities(i) for i in range(len(self.bases))]
        return sum(a * b for a, b in zip(d[0], d[-1]))

    def _edges(self) -> int:
        return sum(len(counts) for *_, counts in self._walk[2])

    def triangle_bound(self) -> tuple[Fraction, int]:
        """Lower bound vs exact count of triangles on a base edge and a
        page vertex: bound = t (e - 2 eps t^2) sum d_1i d_2i - 2 eps k t e,
        where e is e(A) for one base and e(A1, A2) for two."""
        t, k, eps, e = self.t, self.k, self.epsilon, self._edges()
        actual = sum(sum(counts) for *_, counts in self._walk[2])
        return t * (e - 2 * eps * t * t) * self._term() - 2 * eps * k * t * e, actual

    def book_bound(self) -> tuple[Fraction, tuple[int, int], frozenset[int]] | None:
        """Averaged form: some base edge carries a page-block book of size
        at least t (1 - 2 eps t^2 / e) sum d_1i d_2i - 2 eps k t, the
        terms as in ``triangle_bound``.  Returns (bound, base, pages) of
        the first largest book in the base-edge order, or None when the
        base block(s) span no edges: no book bound applies."""
        _, order, walk = self._walk
        tops = [max(counts, default=-1) for *_, counts in walk]
        if max(tops, default=-1) < 0:
            return None
        t, k, eps = self.t, self.k, self.epsilon
        bound = t * (1 - Fraction(2 * eps * t * t, self._edges())) * self._term() - 2 * eps * k * t
        u, skip, mask, counts = walk[tops.index(max(tops))]
        v = order[skip + list(bits_of(mask))[counts.index(max(counts))]]
        a, b = self.bases[0].index(u), self.bases[-1].index(v)
        rows = zip(self.pages, self.page_rows[0], self.page_rows[-1])
        pages = frozenset(P[p] for P, first, last in rows for p in bits_of(first[a] & last[b]))
        return bound, (min(u, v), max(u, v)), pages


_ZERO = bytes.maketrans(b"0", b"\0")


def _selectors(mask: int) -> bytes:
    """One byte per bit of mask, lowest first, 0 where the bit is clear:
    the selectors of ``itertools.compress``."""
    return bin(mask)[:1:-1].encode().translate(_ZERO)


def complement(rows: RowSource) -> RowSource:
    """The row source of the complement graph: each row flipped over the
    positions of A, where a vertex stays no neighbour of itself."""

    def flipped(A: Sequence[int], B: Sequence[int]) -> list[int]:
        full, at = (1 << len(A)) - 1, {a: k for k, a in enumerate(A)}
        return [full ^ r ^ (1 << at[b] if b in at else 0) for b, r in zip(B, rows(A, B))]

    return flipped


def classify(
    rows: RowSource,
    n: int,
    blocks: Sequence[Sequence[int]],
    eps: Fraction,
    beta: Fraction,
    gamma: Fraction,
    search: Callable[[RowSource, tuple[int, ...], tuple[int, ...]], object] | None = None,
) -> list[dict]:
    """Label every block pair irr / blue / mid / red; ``rows`` reads the
    blue graph.

    A pair is irr when not eps-uniform; otherwise its red density d
    decides: blue when d < beta, mid when beta <= d < 1 - gamma, red when
    d >= 1 - gamma.  The red rows are the blue ones flipped
    (``complement``).  Blocks within the oracle cap are decided exactly
    on them (``oracle.first_witness``); larger ones by
    ``search(red, A, B)``, a witness hunt on the red row source whose
    None certifies nothing, recorded per pair as its method.
    """
    if not (0 < beta < 1 and 0 < gamma < 1):
        raise ValueError("beta and gamma must lie in (0, 1)")
    if eps <= 0:
        raise ValueError("eps must be positive")
    blocks = [tuple(b) for b in blocks]
    if not blocks:
        raise ValueError("need at least one block")
    t = check_blocks(blocks)
    red_rows = complement(rows)
    out = []
    for (i, A), (j, B) in combinations(enumerate(blocks), 2):
        check_sides(A, B, n)
        red = red_rows(A, B)
        if t <= ORACLE_SIDE_CAP:
            nonuniform, method = first_witness(A, B, red, eps) is not None, "oracle"
        else:
            nonuniform, method = search(red_rows, A, B) is not None, "search"
        d = Fraction(sum(map(int.bit_count, red)), t * t)
        if nonuniform:
            label = "irr"
        elif d < beta:
            label = "blue"
        elif d < 1 - gamma:
            label = "mid"
        else:
            label = "red"
        out.append({"pair": (i, j), "label": label, "red_density": d, "method": method})
    return out
