"""Exhaustive small-order book Ramsey verification.

A 2-coloring of K_N is encoded as the colex bitstring of its blue edge
indicators, its index in the range [0, 2^C(N,2)) of all colorings, and a
counterexample is returned as that index alone: the lowest one.

The scan covers one scenario after another.  A scenario is a fixed
partial coloring; the edges it leaves open are the variable bits, in
colex order.  Unpruned, nothing is fixed.  Symmetry pruning fixes vertex
0's blue star to {1..d}, one scenario per d: every coloring is
isomorphic to one of these, so the verdict is unchanged while the
enumeration shrinks by roughly 2^(N-1)/N.  A scenario becomes a list of
books, one per base edge and colour that the fixed edges leave
reachable, each with the open pages that could still complete it.

The kernel is bit-sliced on Python ints, and imports no numpy: a batch
of candidates is held as one int per variable bit, bit i standing for
candidate i of the batch.  The offset bits (below) are fixed patterns,
built from repeated bytes (0xAA, 0xCC, 0xF0, then runs of 0x00 and
0xFF); a prefix bit fills each prefix's whole span with its value.  A
red page is the AND of its edges' complemented ints, a blue page the AND
of the ints.  Per book, a saturating unary counter turns its pages into
"at least need pages", which is ANDed with the base's int and ORed into
the batch's hit int.  Each bitwise operation covers the whole batch.

The kernel runs recursively.  Up to BLOCK_BITS variable bits, one call
covers every candidate.  Above that, the top nvar - LOW_BITS bits form a
prefix and the rest its offset.  The prefixes come from the same scan
one level up, with only the books that the prefix and the fixed edges
decide.  Filling in the offset only adds pages, so a prefix that holds
one of them holds it in every completion and is dropped; the
restrictions compose, so every level drops only such prefixes.  Each
level takes the surviving prefixes in increasing order, a batch at a
time with all their offsets, and passes on the candidates that no book
hits, read off 64 bits at a time; the first miss at the top is the
lowest counterexample.  Every level is a generator, so one kernel batch
per level is live at a time.  It all runs on the calling thread.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache, reduce
from itertools import compress
from operator import and_, or_
from typing import TYPE_CHECKING, NamedTuple

from .colex import bits_of, edge_index
from .errors import CapacityError

if TYPE_CHECKING:
    from .colorings import TwoColoring
    from .graphs import BookCertificate

DEFAULT_ORDER_CAP = 8
# most variable bits a scan may have: surviving candidates pass between
# levels as unsigned 64-bit words, and 2^62 candidates would never finish
KERNEL_BIT_LIMIT = 62
BLOCK_BITS = 19
# offset bits under each prefix: 6 to 12 were timed on the five benchmark
# verifies and on N = 9, 10 and 11 pruned; 6 to 8 tie on the first, and 6,
# which recurses deepest, is fastest on the others
LOW_BITS = 6


# Every record of the package is a NamedTuple, so ``verify`` imports no
# dataclasses.  Records are tuples: ``RedBook(c) == BlueBook(c)`` and
# ``Neither() == ()`` hold, so tell them apart with isinstance.


class RedBook(NamedTuple):
    certificate: BookCertificate


class BlueBook(NamedTuple):
    certificate: BookCertificate


class Neither(NamedTuple):
    pass


class SearchOutcome(NamedTuple):
    counterexample_index: int | None  # the blue index of the counterexample, None when forced
    colorings_examined: int

    @property
    def verdict(self) -> str:
        return "forced" if self.counterexample_index is None else "counterexample"


def check_coloring(c: TwoColoring, p: int, q: int):
    """First red book with >= p pages, else first blue with >= q, else Neither.

    Both colours come from one scan in lexicographic edge order, which
    stops at the first red book; the red-before-blue priority is
    arbitrary but fixed.  Neither certifies the lower bound
    r(B_p, B_q) > c.n.  Red carries B_p: ``colorings.two_cliques`` has
    its small books in red, ``colorings.tripartite_random`` in blue, so
    there p is the target above the red booksize, the larger one.
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

LANE_BITS = 6  # bits per word of the miss scan; a prefix spans whole words
_FULL_WORD = (1 << 64) - 1


class _Book(NamedTuple):
    """One base edge in one colour: there iff the base has it and `need` pages are wholly it."""

    blue: bool
    base: int | None  # the variable bit of the base edge, None when fixed to this colour
    need: int  # the pages wanted beyond those that fixed edges complete
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


@lru_cache(maxsize=4)
def _bit_words(width: int, nbits: int) -> tuple[int, ...]:
    """Entry b < nbits: the int whose bit i is bit b of i mod 2^nbits, i < width.

    `width` is a multiple of 2^nbits.  Bits 0-2 repeat one byte (0xAA,
    0xCC, 0xF0); bit b >= 3 repeats 2^(b-3) zero bytes, then as many 0xFF.
    Cached: a level's full batches all have the same width.
    """
    nbytes = max(1, width >> 3)
    runs = [bytes([pattern]) for pattern in (0xAA, 0xCC, 0xF0)[:nbits]]
    runs += [bytes(1 << b - 3) + b"\xff" * (1 << b - 3) for b in range(3, nbits)]
    ones = (1 << width) - 1  # cuts a pattern short of one byte
    return tuple(int.from_bytes(run * (nbytes // len(run)), "little") & ones for run in runs)


def _at_least(pages: tuple[tuple[int, ...], ...], need: int, colour: list[int], ones: int) -> int:
    """The candidates with at least `need` pages wholly `colour`.

    A saturating unary counter: level[j] holds the candidates with at
    least j + 1 pages so far.  Levels are raised top down, so a page
    lifts a candidate by one level at most.
    """
    if need <= 0:
        return ones
    level = [0] * need
    for bits in pages:
        word = colour[bits[0]] if len(bits) == 1 else colour[bits[0]] & colour[bits[1]]
        for j in range(need - 1, 0, -1):
            level[j] |= level[j - 1] & word
        level[0] |= word
    return level[-1]


def _block_hit(blue: list[int], red: list[int], ones: int, books: list[_Book]) -> int:
    """The candidates that hold one of the books.

    blue[b] and red[b] are the ints of variable bit b and its complement.
    """
    hit = 0
    for b in books:
        colour = blue if b.blue else red
        book = _at_least(b.pages, b.need, colour, ones)
        if b.base is not None:
            book &= colour[b.base]
        hit |= book
        if hit == ones:  # every candidate is hit: the other books change nothing
            break
    return hit


def _words(x: int, count: int) -> array:
    """The `count` 64-bit words of x, least significant first."""
    words = array("Q", x.to_bytes(count << 3, "little"))
    if sys.byteorder == "big":
        words.byteswap()
    return words


def _from_words(words: array) -> int:
    """The int whose 64-bit words, least significant first, are `words`."""
    if sys.byteorder == "big":
        words = array("Q", words)
        words.byteswap()
    return int.from_bytes(words, "little")


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
    span = 1 << low  # candidates per prefix
    per = max(1, span >> LANE_BITS)  # words per prefix
    if nvar > low:
        prefix_misses = _misses(nvar - low, _prefix_books(books, low))
        batch = 1 << max(0, BLOCK_BITS - low)  # prefixes per kernel call
    else:
        prefix_misses, batch = [array("Q", [0])], 1
    # candidate j*span + r of a batch is offset r of its j-th prefix: the
    # offset bits repeat every span, and a prefix bit fills its whole span
    for survivors in prefix_misses:
        for i in range(0, len(survivors), batch):
            prefixes = survivors[i : i + batch]
            width = len(prefixes) << low
            ones = (1 << width) - 1
            blue = list(_bit_words(width, low))
            if nvar > low:
                slots = array("Q", bytes(width >> 3))
                slots[::per] = prefixes
                packed = _from_words(slots)
                # the first and the last offset of each prefix: per span,
                # (last - first bit) ^ last is all ones if the bit is set, else 0
                first, last = ones ^ reduce(or_, blue), reduce(and_, blue)
                # the prefixes increase, so the bits above the highest one
                # in which the first and the last differ are the same in all
                varying = (prefixes[0] ^ prefixes[-1]).bit_length()
                for b in range(varying):
                    blue.append(last - (packed >> b & first) ^ last)
                blue += [ones if prefixes[0] >> b & 1 else 0 for b in range(varying, nvar - low)]
            red = [ones ^ x for x in blue]
            words = _words(ones ^ _block_hit(blue, red, ones, books), max(1, width >> LANE_BITS))
            del blue, red  # only the survivors stay live across the yield
            out = array("Q")
            append = out.append
            for w in compress(range(len(words)), words):
                word, head = words[w], prefixes[w // per] << low | (w % per) << LANE_BITS
                if word == _FULL_WORD:
                    out.extend(range(head, head + 64))
                    continue
                while word:
                    lowest = word & -word
                    append(head | lowest.bit_length() - 1)
                    word ^= lowest
            yield out


def _scan_scenario(nvar: int, books: list[_Book]) -> int | None:
    """Lowest variable-bit index whose coloring holds none of the books."""
    return next((m[0] for m in _misses(nvar, books) if m), None)


def exhaustive_verify(N: int, p: int, q: int, *, force: bool = False, prune: bool = False) -> SearchOutcome:
    """Scan every 2-coloring of K_N for one avoiding red B_p and blue B_q.

    colorings_examined counts candidates at or below the hit in the
    enumeration order actually used (so it shrinks under pruning); on a
    forced verdict it is the full enumeration size, however many
    candidates the prefix levels dropped unseen.
    """
    if N < 2:
        raise ValueError("order must be at least 2")
    if p < 1 or q < 1:
        raise ValueError("book page targets must be at least 1")
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
        return SearchOutcome(sum(1 << e for e in blue_edges), si * per_scenario + k + 1)
    return SearchOutcome(None, len(scenarios) * per_scenario)
