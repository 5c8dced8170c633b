"""Exhaustive small-order book Ramsey verification.

A 2-coloring of K_N is encoded as the colex bitstring of its blue edge
indicators, so the space of colorings is the integer range [0, 2^C(N,2))
and "first counterexample" means lowest index.

The scan covers one scenario after another.  A scenario is a fixed
partial coloring; the edges it leaves open are the variable bits, in
colex order.  Unpruned, nothing is fixed.  Symmetry pruning fixes vertex
0's blue star to {1..d}, one scenario per d: every coloring is
isomorphic to one of these, so the verdict is unchanged while the
enumeration shrinks by roughly 2^(N-1)/N.  A scenario becomes a list of
books, one per base edge and colour that the fixed edges leave
reachable, each with the open pages that could still complete it.

The kernel is bit-sliced: a batch of candidates is held as one uint64
word array per variable bit, lane i of word w standing for candidate
64*w + i of the batch.  Bits 0-5 are fixed lane patterns (0xAAAA...,
0xCCCC..., ...); a higher bit is an all-ones or all-zeros word.  A red
page is the AND of its edges' complemented words, a blue page the AND
of the words.  Per book, a saturating unary counter turns its pages into
"at least need pages", which is ANDed with the base's word and ORed
into the batch's hit word.  Each bitwise operation covers 64 candidates.

The kernel runs recursively.  Up to BLOCK_BITS variable bits, one call
covers every candidate.  Above that, the top nvar - LOW_BITS bits form a
prefix and the rest its offset.  The prefixes come from the same scan
one level up, with only the books that the prefix and the fixed edges
decide.  Filling in the offset only adds pages, so a prefix that holds
one of them holds it in every completion and is dropped; the
restrictions compose, so every level drops only such prefixes.  Each
level takes the surviving prefixes in increasing order, a batch at a
time with all their offsets, and passes on the lanes that no book hits;
the first miss at the top is the lowest counterexample.  Every level is
a generator, so one kernel batch per level is live at a time.  It all
runs on the calling thread: a batch is a few milliseconds of short numpy
calls, and a second thread only contends for the interpreter lock.
"""

from __future__ import annotations

from dataclasses import dataclass

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
class _Book:
    """One base edge in one colour: there iff the base has it and `need` pages are wholly it."""

    blue: bool
    base: int | None  # variable bit of the base edge; None when fixed to this colour
    need: int  # pages wanted beyond those that fixed edges complete
    pages: tuple[tuple[int, ...], ...]  # the variable bits of each open page


def _books(N: int, p: int, q: int, fixed: dict[int, bool]) -> tuple[list[int], list[_Book]]:
    """The variable edges and the reachable books of one scenario.

    `fixed` maps an edge index to "is blue".  A page with a fixed edge of
    the other colour is lost to a book; a book is dropped when its base is
    fixed to the other colour or too few of its pages are left.
    """
    var_edges = [e for e in range(N * (N - 1) // 2) if e not in fixed]
    bit = {e: k for k, e in enumerate(var_edges)}
    books = []
    for v in range(1, N):
        for u in range(v):
            red_pages, blue_pages = [], []
            red_need, blue_need = p, q
            for w in range(N):
                if w == u or w == v:
                    continue
                page = []
                fixed_red = fixed_blue = False
                for f in (edge_index(u, w), edge_index(v, w)):
                    if f in bit:
                        page.append(bit[f])
                    elif fixed[f]:
                        fixed_blue = True
                    else:
                        fixed_red = True
                if page:
                    page = tuple(page)
                    if not fixed_blue:
                        red_pages.append(page)
                    if not fixed_red:
                        blue_pages.append(page)
                else:  # both edges fixed: a page already there, or lost
                    red_need -= not fixed_blue
                    blue_need -= not fixed_red
            e = edge_index(u, v)
            base = bit.get(e)
            for blue, need, pages in ((False, red_need, red_pages), (True, blue_need, blue_pages)):
                if (base is not None or fixed[e] == blue) and need <= len(pages):
                    books.append(_Book(blue, base, need, tuple(pages)))
    return var_edges, books


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


def _block_hit(blue: list[np.ndarray], red: list[np.ndarray], words: int, books: list[_Book]) -> np.ndarray:
    """Word array: lane set iff that candidate holds one of the books.

    blue[b] and red[b] are the words of variable bit b and its complement.
    """
    hit = np.zeros(words, dtype=np.uint64)
    for b in books:
        colour = blue if b.blue else red
        book = _at_least(b.pages, b.need, colour, words)
        if b.base is not None:
            book &= colour[b.base]
        hit |= book
    return hit


def _clear_lanes(hit: np.ndarray, count: int) -> np.ndarray:
    """Increasing indices of the candidates, among the first `count`, that no book hits."""
    clear = np.unpackbits((~hit).astype("<u8", copy=False).view(np.uint8), bitorder="little")
    return np.flatnonzero(clear[:count])


def _prefix_books(books: list[_Book], low: int) -> list[_Book]:
    """The books that the bits from `low` up and the fixed edges decide.

    Bit b >= low becomes bit b - low of the prefix.  A book stays, with
    its all-prefix pages, if its base is fixed or a prefix bit and those
    pages can still reach its need.  Filling in the low bits only adds
    pages, so a prefix that holds one of these holds it in every completion.
    """
    out = []
    for b in books:
        pages = tuple(tuple(x - low for x in page) for page in b.pages if min(page) >= low)
        if (b.base is None or b.base >= low) and b.need <= len(pages):
            out.append(_Book(b.blue, None if b.base is None else b.base - low, b.need, pages))
    return out


def _misses(nvar: int, books: list[_Book]):
    """Yield increasing arrays of the indices in [0, 2^nvar) that no book hits.

    Up to BLOCK_BITS bits, one kernel call covers the whole range.  Above
    that, the top nvar - LOW_BITS bits are a prefix: the prefixes that
    survive the books they decide come from this generator one level up,
    and each batch of them runs with all its offsets through every book.
    """
    low = nvar if nvar <= BLOCK_BITS else LOW_BITS
    per = max(1, (1 << low) >> LANE_BITS)  # words per prefix
    if nvar > low:
        prefix_misses = _misses(nvar - low, _prefix_books(books, low))
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
            k = _clear_lanes(_block_hit(blue, red, words, books), prefixes.size << low)
            yield (prefixes[k >> low] << low) + (k & ((1 << low) - 1))


def _scan_scenario(nvar: int, books: list[_Book]) -> int | None:
    """Lowest variable-bit index whose coloring holds none of the books."""
    return next((int(m[0]) for m in _misses(nvar, books) if m.size), None)


def exhaustive_verify(query: RamseyQuery, *, force: bool = False, prune: bool = False) -> SearchOutcome:
    """Scan every 2-coloring of K_N for one avoiding red B_p and blue B_q.

    colorings_examined counts candidates at or below the hit in the
    enumeration order actually used (so it shrinks under pruning); on a
    forced verdict it is the full enumeration size, however many
    candidates the prefix levels dropped unseen.
    """
    N, p, q = query.N, query.p, query.q
    m = N * (N - 1) // 2
    # the messages name N and the caps only: 2^m and nvar_max have about
    # twice N's digits, and may be too long to print
    if N > DEFAULT_ORDER_CAP and not force:
        raise CapacityError(f"order {N} is above the default cap; pass force to run beyond N={DEFAULT_ORDER_CAP}")
    nvar_max = m if not prune else (N - 1) * (N - 2) // 2
    if nvar_max > KERNEL_BIT_LIMIT:
        raise CapacityError(f"order {N} needs more enumeration bits than the kernel's cap of {KERNEL_BIT_LIMIT}")

    scenarios = [{edge_index(0, j): j <= d for j in range(1, N)} for d in range(N)] if prune else [{}]
    per_scenario = 1 << nvar_max
    for si, fixed in enumerate(scenarios):
        var_edges, books = _books(N, p, q, fixed)
        k = _scan_scenario(len(var_edges), books)
        if k is None:
            continue
        blue_edges = [var_edges[b] for b in bits_of(k)] + [e for e, blue in fixed.items() if blue]
        return SearchOutcome(
            verdict="counterexample",
            counterexample=TwoColoring.from_blue_index(N, sum(1 << e for e in blue_edges)),
            colorings_examined=si * per_scenario + k + 1,
        )
    return SearchOutcome(
        verdict="forced",
        counterexample=None,
        colorings_examined=len(scenarios) * per_scenario,
    )
