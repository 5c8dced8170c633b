"""Exhaustive small-order book Ramsey verification.

A 2-coloring of K_N is encoded as the colex bitstring of its blue edge
indicators, so the space of colorings is the integer range [0, 2^C(N,2))
and "first counterexample" means lowest index.

The kernel is bit-sliced: a batch of candidates is held as one uint64
word array per variable bit, lane i of word w standing for candidate
64*w + i of the batch.  Bits 0-5 are fixed lane patterns (0xAAAA...,
0xCCCC..., ...); a higher bit is an all-ones or all-zeros word.  Page w
of base (u, v) is red where both bits of {(u,w),(v,w)} are 0, so it is
the AND of their complemented words, and blue where both are 1, the AND
of the words.  A saturating unary counter of at most p levels turns the
pages into "at least p pages", which is ANDed with the base's colour and
ORed into the batch's hit word.  Each bitwise operation covers 64
candidates.

The scan runs that kernel recursively.  Up to BLOCK_BITS variable bits,
one call covers every candidate.  Above that, the top nvar - LOW_BITS
bits form a prefix and the rest its offset.  The prefixes come from the
same scan one level up, over nvar - LOW_BITS bits and with only the
books whose base and pages the prefix and the fixed star decide.
Filling in the offset only adds pages, so a prefix that holds one of
them holds it in every completion and is dropped; the restrictions
compose, so every level drops only such prefixes.  Each level takes the
surviving prefixes in increasing order, 2^(BLOCK_BITS - LOW_BITS) to a
batch, each with its 2^LOW_BITS offsets, runs every book on them and
passes on the lanes that no book hits.  The first miss at the top is the
lowest counterexample.  Every level is a generator, so one kernel batch
per level is live at a time and no level holds its survivors for the
whole space.  Everything runs on the calling thread: a batch is a few
milliseconds of short numpy calls, and a second thread only contends
for the interpreter lock.

Optional symmetry pruning fixes vertex 0's blue star to {1..d} for each
d; every coloring is isomorphic to one of these, so the verdict is
unchanged while the enumeration shrinks by roughly 2^(N-1)/N.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .colorings import TwoColoring, edge_index
from .errors import CapacityError
from .graphs import BookCertificate, bits_of

DEFAULT_ORDER_CAP = 8
KERNEL_BIT_LIMIT = 62
BLOCK_BITS = 19
# offset bits under each prefix: 6 to 12 were timed on the five benchmark
# verifies and on N = 9, 10 and 11 pruned; 6 to 8 tie on the first, and 6,
# which recurses deepest, is fastest on the others
LOW_BITS = 6


@dataclass(frozen=True)
class RamseyQuery:
    """Ask whether every 2-coloring of K_N has a red B_p or blue B_q."""

    N: int
    p: int
    q: int

    def __post_init__(self):
        if self.N < 2:
            raise ValueError("order must be at least 2")
        if self.p < 1 or self.q < 1:
            raise ValueError("book page targets must be at least 1")


@dataclass(frozen=True)
class RedBook:
    certificate: BookCertificate


@dataclass(frozen=True)
class BlueBook:
    certificate: BookCertificate


@dataclass(frozen=True)
class Neither:
    pass


@dataclass(frozen=True)
class SearchOutcome:
    verdict: str  # "forced" | "counterexample"
    counterexample: TwoColoring | None
    colorings_examined: int


def check_coloring(c: TwoColoring, p: int, q: int):
    """First red book with >= p pages, else first blue with >= q, else Neither.

    Both colours come from one scan in lexicographic edge order, which
    stops at the first red book; the red-before-blue priority is
    arbitrary but fixed.  Neither certifies the lower bound
    r(B_p, B_q) > c.n.
    """
    if p < 1 or q < 1:
        raise ValueError("book page targets must be at least 1")
    (_, blue), (_, red) = c.blue.books(at_least=(q, p))
    if red is not None:
        return RedBook(red)
    if blue is not None:
        return BlueBook(blue)
    return Neither()


# ------------------------------------------------------------------ kernel

LANE_BITS = 6  # 64 candidates per uint64 word
# word pattern of variable bit b < 6: lane i holds bit b of i
_LANE_PATTERNS = (
    0xAAAAAAAAAAAAAAAA,
    0xCCCCCCCCCCCCCCCC,
    0xF0F0F0F0F0F0F0F0,
    0xFF00FF00FF00FF00,
    0xFFFF0000FFFF0000,
    0xFFFFFFFF00000000,
)
_ALL_LANES = np.uint64(0xFFFFFFFFFFFFFFFF)


@dataclass(frozen=True)
class _EdgeSpec:
    # base_var: variable-bit index of the base edge, or None when fixed
    base_var: int | None
    base_blue: bool
    red_const: int
    red_pages: tuple[tuple[int, ...], ...]  # red page iff all these bits are 0
    blue_const: int
    blue_pages: tuple[tuple[int, ...], ...]  # blue page iff all these bits are 1


def _build_specs(N: int, star_d: int | None) -> tuple[int, list[int], list[_EdgeSpec]]:
    """Edge specs for one enumeration scenario.

    star_d = None enumerates all bitstrings; star_d = d fixes the blue
    star of vertex 0 to exactly {1..d} and enumerates the remaining
    C(N-1, 2) bits.  Returns (number of variable bits, the edge index of
    each variable bit in enumeration order, per-edge specs).
    """
    if star_d is None:
        var_edges = [edge_index(i, j) for j in range(1, N) for i in range(j)]
        fixed_blue: dict[int, bool] = {}
    else:
        var_edges = [edge_index(i, j) for j in range(2, N) for i in range(1, j)]
        fixed_blue = {edge_index(0, j): j <= star_d for j in range(1, N)}
    varbit = {e: k for k, e in enumerate(var_edges)}

    specs = []
    for u in range(N):
        for v in range(u + 1, N):
            e = edge_index(u, v)
            red_const = blue_const = 0
            red_pages: list[tuple[int, ...]] = []
            blue_pages: list[tuple[int, ...]] = []
            for w in range(N):
                if w in (u, v):
                    continue
                page: list[int] = []
                n_fixed_blue = n_fixed_red = 0
                for f in (edge_index(u, w), edge_index(v, w)):
                    if f in varbit:
                        page.append(varbit[f])
                    elif fixed_blue[f]:
                        n_fixed_blue += 1
                    else:
                        n_fixed_red += 1
                if n_fixed_blue == 0:
                    if page:
                        red_pages.append(tuple(page))
                    else:
                        red_const += 1
                if n_fixed_red == 0:
                    if page:
                        blue_pages.append(tuple(page))
                    else:
                        blue_const += 1
            specs.append(
                _EdgeSpec(
                    base_var=varbit.get(e),
                    base_blue=fixed_blue.get(e, False),
                    red_const=red_const,
                    red_pages=tuple(red_pages),
                    blue_const=blue_const,
                    blue_pages=tuple(blue_pages),
                )
            )
    return len(var_edges), var_edges, specs


def _bit_words(words: int, nbits: int) -> list[np.ndarray]:
    """Entry b < nbits: bit b of candidate 64*w + i, at lane i of word w.

    With fewer than 64 candidates (nbits < 6) lane i repeats candidate
    i mod 2^nbits, so an unused lane is hit exactly when a used one is
    and never reports the first miss.
    """
    lanes = [np.full(words, pattern, dtype=np.uint64) for pattern in _LANE_PATTERNS[:nbits]]
    word_index = np.arange(words, dtype=np.uint64)
    # a bit above the lane bits is one bit of the word index, spread over all lanes
    return lanes + [
        np.uint64(0) - ((word_index >> np.uint64(b - LANE_BITS)) & np.uint64(1))
        for b in range(LANE_BITS, nbits)
    ]


def _at_least(pages: tuple[tuple[int, ...], ...], need: int, colour: list[np.ndarray], words: int) -> np.ndarray:
    """Fresh word array: lanes where at least `need` pages are wholly `colour`.

    A saturating unary counter: level[j] holds the lanes with at least
    j + 1 pages so far.  Levels are raised top down, so a page lifts a
    lane by one level at most.
    """
    if need <= 0:
        return np.full(words, _ALL_LANES)
    level = [np.zeros(words, dtype=np.uint64) for _ in range(need)]
    page = np.empty(words, dtype=np.uint64)
    carry = np.empty(words, dtype=np.uint64)
    for bits in pages:
        if len(bits) == 1:
            word = colour[bits[0]]
        else:
            word = np.bitwise_and(colour[bits[0]], colour[bits[1]], out=page)
        for j in range(need - 1, 0, -1):
            level[j] |= np.bitwise_and(level[j - 1], word, out=carry)
        level[0] |= word
    return level[need - 1]


def _block_hit(
    blue: list[np.ndarray], red: list[np.ndarray], words: int, specs: list[_EdgeSpec], p: int, q: int
) -> np.ndarray:
    """Word array: lane set iff that candidate contains a red B_p or blue B_q.

    blue[b] and red[b] are the words of variable bit b and its complement.
    """
    hit = np.zeros(words, dtype=np.uint64)
    for s in specs:
        for colour, pages, const, target, is_blue in (
            (red, s.red_pages, s.red_const, p, False),
            (blue, s.blue_pages, s.blue_const, q, True),
        ):
            if s.base_var is None and s.base_blue != is_blue:
                continue
            need = target - const
            if need > len(pages):
                continue
            book = _at_least(pages, need, colour, words)
            if s.base_var is not None:
                book &= colour[s.base_var]
            hit |= book
    return hit


def _clear_lanes(hit: np.ndarray, count: int) -> np.ndarray:
    """Increasing indices of the candidates, among the first `count`, that no book hits."""
    clear = np.unpackbits((~hit).astype("<u8", copy=False).view(np.uint8), bitorder="little")
    return np.flatnonzero(clear[:count])


def _prefix_specs(specs: list[_EdgeSpec], low: int) -> list[_EdgeSpec]:
    """The books that the bits from `low` up and the fixed star decide.

    Bit b >= low becomes bit b - low of the prefix.  A spec stays only if
    its base is fixed or a prefix bit, with only its all-prefix pages;
    its consts are kept.  Filling in the low bits only adds pages, so a
    prefix that holds one of these books holds it in every completion.
    """

    def high(pages):
        return tuple(tuple(b - low for b in page) for page in pages if min(page) >= low)

    return [
        replace(
            s,
            base_var=None if s.base_var is None else s.base_var - low,
            red_pages=high(s.red_pages),
            blue_pages=high(s.blue_pages),
        )
        for s in specs
        if s.base_var is None or s.base_var >= low
    ]


def _misses(nvar: int, specs: list[_EdgeSpec], p: int, q: int):
    """Yield increasing arrays of the indices in [0, 2^nvar) that no book hits.

    Up to BLOCK_BITS bits, one kernel call covers the whole range.  Above
    that, the top nvar - LOW_BITS bits are a prefix: the prefixes that
    survive the books they decide come from this generator one level up,
    and each batch of them runs with all its offsets through every book.
    """
    low = nvar if nvar <= BLOCK_BITS else LOW_BITS
    per = max(1, (1 << low) >> LANE_BITS)  # words per prefix
    if nvar > low:
        prefix_misses = _misses(nvar - low, _prefix_specs(specs, low), p, q)
        batch = 1 << max(0, BLOCK_BITS - low)  # prefixes per kernel call
    else:
        prefix_misses, batch = [np.zeros(1, dtype=np.int64)], 1
    # word j*per + r of a batch is offset word r of its j-th prefix: the
    # word index above the low bits is ignored, so the pattern tiles
    blue_low = _bit_words(batch * per, low)
    red_low = [~x for x in blue_low]
    for survivors in prefix_misses:
        for i in range(0, survivors.size, batch):
            prefixes = survivors[i : i + batch]
            words = prefixes.size * per
            high = prefixes.astype(np.uint64)
            blue_high = [
                np.repeat(np.uint64(0) - (high >> np.uint64(b) & np.uint64(1)), per) for b in range(nvar - low)
            ]
            blue = [x[:words] for x in blue_low] + blue_high
            red = [x[:words] for x in red_low] + [~x for x in blue_high]
            k = _clear_lanes(_block_hit(blue, red, words, specs, p, q), prefixes.size << low)
            yield (prefixes[k >> low] << low) + (k & ((1 << low) - 1))


def _scan_scenario(nvar: int, specs: list[_EdgeSpec], p: int, q: int) -> int | None:
    """Lowest variable-bit index whose coloring avoids both books."""
    return next((int(m[0]) for m in _misses(nvar, specs, p, q) if m.size), None)


def exhaustive_verify(
    query: RamseyQuery,
    *,
    force: bool = False,
    prune: bool = False,
) -> SearchOutcome:
    """Scan every 2-coloring of K_N for one avoiding red B_p and blue B_q.

    colorings_examined counts candidates at or below the hit in the
    enumeration order actually used (so it shrinks under pruning); on a
    forced verdict it is the full enumeration size, however many
    candidates the prefix levels dropped unseen.
    """
    N, p, q = query.N, query.p, query.q
    m = N * (N - 1) // 2
    if N > DEFAULT_ORDER_CAP and not force:
        raise CapacityError(
            f"order {N} needs 2^{m} colorings; pass force to run beyond N={DEFAULT_ORDER_CAP}"
        )
    nvar_max = m if not prune else (N - 1) * (N - 2) // 2
    if nvar_max > KERNEL_BIT_LIMIT:
        raise CapacityError(f"enumeration index needs {nvar_max} bits; kernel is capped at {KERNEL_BIT_LIMIT}")

    scenarios: list[int | None] = list(range(N)) if prune else [None]
    per_scenario = 1 << nvar_max
    for si, star_d in enumerate(scenarios):
        nvar, var_edges, specs = _build_specs(N, star_d)
        k = _scan_scenario(nvar, specs, p, q)
        if k is None:
            continue
        blue_index = sum(1 << var_edges[b] for b in bits_of(k))
        if star_d is not None:
            blue_index += sum(1 << edge_index(0, j) for j in range(1, star_d + 1))
        return SearchOutcome(
            verdict="counterexample",
            counterexample=TwoColoring.from_blue_index(N, blue_index),
            colorings_examined=si * per_scenario + k + 1,
        )
    return SearchOutcome(
        verdict="forced",
        counterexample=None,
        colorings_examined=len(scenarios) * per_scenario,
    )
