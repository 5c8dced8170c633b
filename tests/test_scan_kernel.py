"""Differential tests: the bit-sliced exhaustive scan against references.

`ref_block_all_hit` is an independent per-candidate kernel in numpy: one
candidate per uint64 and a page counter per book and candidate.  The scan must report the same lowest missing index in every
scenario, at every split of its bits into prefix and offset, however
many levels the prefixes recurse.  Both read the same books, so
`test_books_match_brute_force_over_fixed_partial_colorings` checks the
builder against `check_coloring` over random fixed partial colorings,
and `test_lowest_counterexample_matches_brute_force` checks the whole
unpruned route.
"""

import random
import tracemalloc
from itertools import product

import numpy as np
import pytest

from bookramsey import ramsey
from bookramsey.colex import edge_index
from bookramsey.colorings import TwoColoring
from bookramsey.ramsey import (
    BLOCK_BITS,
    LANE_BITS,
    LOW_BITS,
    Neither,
    _bit_words,
    _books,
    _misses,
    _prefix_books,
    _scan_scenario,
    check_coloring,
    exhaustive_verify,
)

from helpers import coloring_of_index

# ---------------------------------------------------------------- references


def _mask(bits) -> np.uint64:
    return np.uint64(sum(1 << b for b in bits))


def ref_block_all_hit(M: np.ndarray, books) -> np.ndarray:
    """Boolean array: candidate M[i] holds one of the books."""
    hit = np.zeros(M.shape, dtype=bool)
    for b in books:
        count = np.zeros(M.shape, dtype=np.int64)  # pages wholly b's colour
        for page in b.pages:
            count += (M & _mask(page)) == (_mask(page) if b.blue else 0)
        book = count >= b.need
        if b.base is not None:
            book &= ((M & _mask([b.base])) != 0) == b.blue
        hit |= book
    return hit


def ref_first_miss(nvar: int, books) -> int | None:
    total = 1 << nvar
    block = 1 << min(BLOCK_BITS, nvar)
    for start in range(0, total, block):
        hit = ref_block_all_hit(np.arange(start, start + block, dtype=np.uint64), books)
        if not hit.all():
            return start + int(np.argmax(~hit))
    return None


def _star(N: int, d: int) -> dict[int, bool]:
    """Vertex 0's star fixed blue to {1..d} and red to the rest."""
    return {edge_index(0, j): j <= d for j in range(1, N)}


def _scenarios(N):
    """Every scenario of K_N with its books for each p, q <= 3."""
    for fixed in [{}, *(_star(N, d) for d in range(N))]:
        for p, q in product(range(1, 4), repeat=2):
            var_edges, books = _books(N, p, q, fixed)
            yield fixed, p, q, len(var_edges), books


# --------------------------------------------------------------------- tests


def _int_bits(x: int, width: int) -> np.ndarray:
    """Bits 0 .. width - 1 of x, as a uint64 array."""
    raw = np.frombuffer(x.to_bytes(max(1, (width + 7) // 8), "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:width].astype(np.uint64)


@pytest.mark.parametrize("nbits", [0, 1, 3, 5, 6, 7, 13, BLOCK_BITS])
def test_bit_words_spell_candidate_indices(nbits):
    # one prefix's candidates, and three prefixes' side by side
    for width in (1 << nbits, 3 << nbits):
        bits = _bit_words(width, nbits)
        assert len(bits) == nbits
        assert all(0 <= x < 1 << width for x in bits)
        index = np.zeros(width, dtype=np.uint64)
        for b, x in enumerate(bits):
            index |= _int_bits(x, width) << np.uint64(b)
        expect = np.arange(width, dtype=np.uint64) % np.uint64(1 << nbits)
        assert np.array_equal(index, expect), width


@pytest.mark.parametrize("N", range(2, 8))
def test_scan_matches_reference_kernel(N):
    for fixed, p, q, nvar, books in _scenarios(N):
        assert _scan_scenario(nvar, books) == ref_first_miss(nvar, books), (N, fixed, p, q)


@pytest.mark.parametrize("N", range(2, 6))
def test_lowest_counterexample_matches_brute_force(N):
    m = N * (N - 1) // 2
    for p, q in product((1, 2), repeat=2):
        expect = next(
            (k for k in range(1 << m) if isinstance(check_coloring(coloring_of_index(N, k), p, q), Neither)),
            None,
        )
        out = exhaustive_verify(N, p, q)
        if expect is None:
            assert (out.verdict, out.colorings_examined) == ("forced", 1 << m)
        else:
            assert (out.counterexample_index, out.colorings_examined) == (expect, expect + 1), (N, p, q)


def _completion(N: int, fixed: dict[int, bool], var_edges: list[int], k: int) -> TwoColoring:
    """The coloring of K_N that keeps `fixed` and puts bit i of k on edge var_edges[i]."""
    blue = [e for e, is_blue in fixed.items() if is_blue] + [e for i, e in enumerate(var_edges) if k >> i & 1]
    return coloring_of_index(N, sum(1 << e for e in blue))


def test_books_match_brute_force_over_fixed_partial_colorings():
    # any fixed partial coloring, not only the stars: the lowest completion
    # that the scan finds must be the lowest one check_coloring calls Neither
    cases = 0
    for seed in range(58):
        rng = random.Random(seed)
        N = rng.randint(2, 6)
        m = N * (N - 1) // 2
        fixed = {e: rng.random() < 0.5 for e in rng.sample(range(m), rng.randint(max(0, m - 12), m))}
        for p, q in product(range(1, 4), repeat=2):
            var_edges, books = _books(N, p, q, fixed)
            expect = next(
                (
                    k
                    for k in range(1 << len(var_edges))
                    if isinstance(check_coloring(_completion(N, fixed, var_edges, k), p, q), Neither)
                ),
                None,
            )
            assert _scan_scenario(len(var_edges), books) == expect, (seed, N, fixed, p, q)
            cases += 1
    assert cases == 522


def test_short_block_reports_no_miss_in_unused_lanes():
    # pruned K_4 with vertex 0 blue to all of 1, 2, 3: each of the 8
    # colorings of the triangle 123 makes a monochromatic triangle, so
    # none of the 56 bits above them in the single 64-bit word that the
    # miss scan reads may read as a miss
    var_edges, books = _books(4, 1, 1, _star(4, 3))
    assert len(var_edges) == 3
    assert _scan_scenario(3, books) is None
    for N in (3, 4):
        plain = exhaustive_verify(N, 1, 1)
        pruned = exhaustive_verify(N, 1, 1, prune=True)
        assert plain.verdict == pruned.verdict == "counterexample"
        assert isinstance(check_coloring(coloring_of_index(N, pruned.counterexample_index), 1, 1), Neither)


# ---------------------------------------------------------- prefix levels


@pytest.mark.parametrize("N", range(2, 8))
def test_prefix_restrictions_compose(N):
    # each level of the scan restricts the books it was given, so a prefix
    # two levels up must see the books that its own bits decide
    for fixed, p, q, nvar, books in _scenarios(N):
        for a in range(1, nvar):
            once = _prefix_books(books, a)
            for b in range(1, nvar - a + 1):
                assert _prefix_books(once, b) == _prefix_books(books, a + b), (N, fixed, p, q, a, b)


@pytest.mark.parametrize("N", range(2, 7))
def test_dropped_prefixes_hit_in_every_completion(N):
    for fixed, p, q, nvar, books in _scenarios(N):
        for low in range(1, nvar):
            high = nvar - low
            prefix_books = _prefix_books(books, low)
            prefixes = np.arange(1 << high, dtype=np.uint64)
            completions = np.arange(1 << low, dtype=np.uint64)
            candidates = (prefixes[:, None] << np.uint64(low)) | completions
            dropped = ref_block_all_hit(prefixes, prefix_books)
            full = ref_block_all_hit(candidates, books)
            assert full[dropped].all(), (N, fixed, low, p, q)
            survivors = [k for batch in _misses(high, prefix_books) for k in batch]
            assert survivors == np.flatnonzero(~dropped).tolist(), (N, fixed, low, p, q)


@pytest.mark.parametrize("N, pruned", [(6, False), (6, True), (7, False), (7, True)])
def test_scan_matches_reference_at_every_low_width(N, pruned, monkeypatch):
    # small blocks, so a kernel pass runs many prefixes per call below
    # BLOCK_BITS, one at and above it, and usually a short last batch.
    # N = 7 unpruned runs only width 6, where its 21 bits recurse three
    # levels deep (21 -> 15 -> 9); its other widths add 10 s of small calls
    block_bits = 9
    top = LANE_BITS if (N, pruned) == (7, False) else None
    monkeypatch.setattr(ramsey, "BLOCK_BITS", block_bits)
    depth = [0, 0]  # generators live now, most ever live
    misses = ramsey._misses

    def traced(*args):
        depth[0] += 1
        depth[1] = max(depth)
        try:
            yield from misses(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(ramsey, "_misses", traced)
    seen = set()
    for fixed, p, q, nvar, books in _scenarios(N):
        if bool(fixed) != pruned:
            continue
        expect = ref_first_miss(nvar, books)
        for low in range(LANE_BITS, (top or nvar) + 1):
            monkeypatch.setattr(ramsey, "LOW_BITS", low)
            assert _scan_scenario(nvar, books) == expect, (N, fixed, low, p, q)
            if low == nvar:
                continue
            batch = 1 << max(0, block_bits - low)
            for survivors in misses(nvar - low, _prefix_books(books, low)):
                if survivors:
                    seen.add("one" if batch == 1 else "many")
                if len(survivors) > batch and len(survivors) % batch:
                    seen.add("short last")
    assert depth[0] == 0
    if top:
        assert depth[1] >= 3, depth
    else:
        assert seen == {"one", "many", "short last"}


def test_unpruned_scan_streams_its_prefixes():
    # K_8 unpruned: 28 variable bits, so its prefixes span 2^20 or more;
    # only one kernel batch per level and its survivors may be live
    assert 28 - LOW_BITS >= 20
    tracemalloc.start()
    try:
        out = exhaustive_verify(8, 1, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (out.verdict, out.colorings_examined) == ("forced", 1 << 28)
    assert peak < 16 << 20, peak
