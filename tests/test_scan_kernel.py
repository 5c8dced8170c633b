"""Differential tests: the bit-sliced exhaustive scan against references.

`ref_block_all_hit` is the per-candidate kernel the scan used before it
was bit-sliced: one candidate per uint64 and a uint8 page counter per
candidate.  The scan must report the same lowest missing index in every
scenario, at every split of its bits into prefix and offset, however
many levels the prefixes recurse.
`test_lowest_counterexample_matches_brute_force` checks the whole route
against `check_coloring` without going through the specs.
"""

import tracemalloc
from itertools import product

import numpy as np
import pytest

from bookramsey import ramsey
from bookramsey.colorings import TwoColoring
from bookramsey.ramsey import (
    BLOCK_BITS,
    LANE_BITS,
    LOW_BITS,
    Neither,
    RamseyQuery,
    _bit_words,
    _build_specs,
    _misses,
    _prefix_specs,
    _scan_scenario,
    check_coloring,
    exhaustive_verify,
)

# ---------------------------------------------------------------- references


def _mask(bits) -> np.uint64:
    return np.uint64(sum(1 << b for b in bits))


def ref_block_all_hit(M: np.ndarray, specs, p: int, q: int) -> np.ndarray:
    """Boolean array: candidate M[i] contains a red B_p or blue B_q."""
    hit = np.zeros(M.shape, dtype=bool)
    for s in specs:
        want_red = s.base_var is not None or not s.base_blue
        want_blue = s.base_var is not None or s.base_blue
        if want_red and s.red_const + len(s.red_pages) >= p:
            rc = np.full(M.shape, s.red_const, dtype=np.uint8)
            for page in s.red_pages:
                rc += (M & _mask(page)) == 0
            red_hit = rc >= p
            if s.base_var is not None:
                red_hit &= (M & _mask([s.base_var])) == 0
            hit |= red_hit
        if want_blue and s.blue_const + len(s.blue_pages) >= q:
            bc = np.full(M.shape, s.blue_const, dtype=np.uint8)
            for page in s.blue_pages:
                bc += (M & _mask(page)) == _mask(page)
            blue_hit = bc >= q
            if s.base_var is not None:
                blue_hit &= (M & _mask([s.base_var])) != 0
            hit |= blue_hit
    return hit


def ref_first_miss(nvar: int, specs, p: int, q: int) -> int | None:
    total = 1 << nvar
    block = 1 << min(BLOCK_BITS, nvar)
    for start in range(0, total, block):
        hit = ref_block_all_hit(np.arange(start, start + block, dtype=np.uint64), specs, p, q)
        if not hit.all():
            return start + int(np.argmax(~hit))
    return None


# --------------------------------------------------------------------- tests


@pytest.mark.parametrize("nbits", [0, 1, 3, 5, 6, 7, 13, BLOCK_BITS])
def test_bit_words_spell_candidate_indices(nbits):
    words = max(1, (1 << nbits) >> 6)
    bits = _bit_words(words, nbits)
    assert len(bits) == nbits
    lanes = np.arange(64, dtype=np.uint64)
    index = np.zeros((words, 64), dtype=np.uint64)
    for b, word in enumerate(bits):
        index |= ((word[:, None] >> lanes) & np.uint64(1)) << np.uint64(b)
    # fewer than 64 candidates repeat across the word
    expect = np.arange(words * 64, dtype=np.uint64) % np.uint64(1 << nbits)
    assert np.array_equal(index.ravel(), expect)


@pytest.mark.parametrize("N", range(2, 8))
def test_scan_matches_reference_kernel(N):
    for star_d in [None, *range(N)]:
        nvar, _, specs = _build_specs(N, star_d)
        for p, q in product(range(1, 4), repeat=2):
            got = _scan_scenario(nvar, specs, p, q)
            assert got == ref_first_miss(nvar, specs, p, q), (N, star_d, p, q)


@pytest.mark.parametrize("N", range(2, 6))
def test_lowest_counterexample_matches_brute_force(N):
    m = N * (N - 1) // 2
    for p, q in product((1, 2), repeat=2):
        expect = next(
            (k for k in range(1 << m) if isinstance(check_coloring(TwoColoring.from_blue_index(N, k), p, q), Neither)),
            None,
        )
        out = exhaustive_verify(RamseyQuery(N, p, q))
        if expect is None:
            assert (out.verdict, out.colorings_examined) == ("forced", 1 << m)
        else:
            assert (out.counterexample.blue_index(), out.colorings_examined) == (expect, expect + 1), (N, p, q)


def test_short_block_reports_no_miss_in_unused_lanes():
    # pruned K_4 with vertex 0 blue to all of 1, 2, 3: each of the 8
    # colorings of the triangle 123 makes a monochromatic triangle, so
    # none of the 56 unused lanes of the single word may read as a miss
    nvar, _, specs = _build_specs(4, 3)
    assert nvar == 3
    assert _scan_scenario(nvar, specs, 1, 1) is None
    for N in (3, 4):
        plain = exhaustive_verify(RamseyQuery(N, 1, 1))
        pruned = exhaustive_verify(RamseyQuery(N, 1, 1), prune=True)
        assert plain.verdict == pruned.verdict == "counterexample"
        assert isinstance(check_coloring(pruned.counterexample, 1, 1), Neither)


# ---------------------------------------------------------- prefix levels


def _scenarios(N):
    for star_d in [None, *range(N)]:
        nvar, _, specs = _build_specs(N, star_d)
        yield star_d, nvar, specs


@pytest.mark.parametrize("N", range(2, 8))
def test_prefix_restrictions_compose(N):
    # each level of the scan restricts the specs it was given, so a prefix
    # two levels up must see the books that its own bits decide
    for star_d, nvar, specs in _scenarios(N):
        for a in range(1, nvar):
            once = _prefix_specs(specs, a)
            for b in range(1, nvar - a + 1):
                assert _prefix_specs(once, b) == _prefix_specs(specs, a + b), (N, star_d, a, b)


@pytest.mark.parametrize("N", range(2, 7))
def test_dropped_prefixes_hit_in_every_completion(N):
    for star_d, nvar, specs in _scenarios(N):
        for low in range(1, nvar):
            high = nvar - low
            prefix_specs = _prefix_specs(specs, low)
            prefixes = np.arange(1 << high, dtype=np.uint64)
            completions = np.arange(1 << low, dtype=np.uint64)
            candidates = (prefixes[:, None] << np.uint64(low)) | completions
            for p, q in product(range(1, 4), repeat=2):
                dropped = ref_block_all_hit(prefixes, prefix_specs, p, q)
                full = ref_block_all_hit(candidates, specs, p, q)
                assert full[dropped].all(), (N, star_d, low, p, q)
                survivors = np.concatenate(list(_misses(high, prefix_specs, p, q)))
                assert np.array_equal(survivors, np.flatnonzero(~dropped)), (N, star_d, low, p, q)


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
    for star_d, nvar, specs in _scenarios(N):
        if (star_d is not None) != pruned:
            continue
        for p, q in product(range(1, 4), repeat=2):
            expect = ref_first_miss(nvar, specs, p, q)
            for low in range(LANE_BITS, (top or nvar) + 1):
                monkeypatch.setattr(ramsey, "LOW_BITS", low)
                assert _scan_scenario(nvar, specs, p, q) == expect, (N, star_d, low, p, q)
                if low == nvar:
                    continue
                batch = 1 << max(0, block_bits - low)
                for survivors in misses(nvar - low, _prefix_specs(specs, low), p, q):
                    if survivors.size:
                        seen.add("one" if batch == 1 else "many")
                    if survivors.size > batch and survivors.size % batch:
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
        out = exhaustive_verify(RamseyQuery(8, 1, 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (out.verdict, out.colorings_examined) == ("forced", 1 << 28)
    assert peak < 16 << 20, peak
