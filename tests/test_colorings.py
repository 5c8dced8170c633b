"""Two-colorings, BRC1 serialization, the counter-based RNG, and the
tripartite construction with its expected-value bookkeeping."""

import contextlib
import io
import math
import os
import random
import tempfile
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bookramsey import cli
from bookramsey.colorings import (
    ConstructionParams,
    TwoColoring,
    construction_statistics,
    expected_book_sizes,
    margins,
    read_any_file,
    read_coloring_file,
    tripartite_parts,
    tripartite_random,
    two_clique_bytes,
    two_cliques,
    write_brc1,
)
from bookramsey.colex import edge_index, hex_bytes, index_hex
from bookramsey.errors import ParseError
from bookramsey.graphs import Graph
from bookramsey.numbers import as_fraction
from bookramsey.rng import (
    bernoulli_block,
    edge_value,
    edge_values_block,
    probability_threshold,
    stream_blocks,
    stream_values,
)

from helpers import (
    adjacent,
    brc1_of,
    codegree,
    colex_bools,
    colex_bytes,
    coloring_of_bits,
    coloring_of_index,
    complement_of,
    complete_bipartite,
    edge_list,
    from_edges,
)


# ------------------------------------------------------------- edge indexing


def test_edge_index_small_table():
    order = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]
    for k, (i, j) in enumerate(order):
        assert edge_index(i, j) == k


@given(st.integers(min_value=2, max_value=100))
def test_edge_index_round_trip(n):
    # colex order numbers the edges of K_n 0, 1, ..., C(n, 2) - 1
    indices = [edge_index(i, j) for j in range(n) for i in range(j)]
    assert indices == list(range(n * (n - 1) // 2))


def test_edge_index_symmetric_and_rejects_loops():
    assert edge_index(3, 1) == edge_index(1, 3)
    with pytest.raises(ValueError):
        edge_index(2, 2)


# ------------------------------------------------------------------ coloring


def test_coloring_red_is_complement():
    c = two_cliques(2)
    assert complement_of(c.blue) == complete_bipartite(3, 3)
    assert c.n == 6


def test_blue_bits_round_trip():
    c = two_cliques(3)
    again = TwoColoring(Graph.from_colex_bits(c.n, colex_bytes(c.blue), width=8))
    assert again == c


def test_blue_index_round_trip():
    for idx in (0, 1, 5, 2**14 - 1):
        c = coloring_of_index(6, idx)
        assert sum(1 << edge_index(u, v) for u, v in edge_list(c.blue)) == idx


def test_two_cliques_book_sizes():
    for q in (1, 2, 4, 50):
        c = two_cliques(q)
        (blue, _), (red, _) = c.blue.books()
        assert blue == q - 1
        assert red == 0
        assert c.n == 2 * q + 2


# ---------------------------------------------------------------------- BRC1


def test_brc1_frozen_examples():
    assert brc1_of(two_cliques(1)) == "BRC1 4\n84\n"
    assert brc1_of(two_cliques(2)) == "BRC1 6\ne046\n"


def test_brc1_parse_frozen_example():
    c = TwoColoring.from_brc1("BRC1 6\ne046\n")
    # blue graph is two disjoint triangles
    assert set(edge_list(c.blue)) == {(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)}


@settings(max_examples=60)
@given(st.integers(min_value=2, max_value=12), st.randoms(use_true_random=False))
def test_brc1_round_trip(n, rnd):
    bits = np.array([rnd.randint(0, 1) for _ in range(n * (n - 1) // 2)], dtype=np.uint8)
    c = coloring_of_bits(n, bits)
    assert TwoColoring.from_brc1(brc1_of(c)) == c


def test_brc1_rejects_garbage():
    with pytest.raises(ParseError):
        TwoColoring.from_brc1("BRC2 4\n84\n")
    with pytest.raises(ParseError):
        TwoColoring.from_brc1("BRC1 x\n84\n")
    with pytest.raises(ParseError):
        TwoColoring.from_brc1("BRC1 4\n8\n")  # payload too short
    with pytest.raises(ParseError):
        TwoColoring.from_brc1("BRC1 4\n8g\n")  # non-hex digit
    with pytest.raises(ParseError):
        TwoColoring.from_brc1("BRC1 4\n85\n")  # nonzero padding bits
    with pytest.raises(ParseError):
        TwoColoring.from_brc1("BRC1 4\nAB\n")  # hex must be lowercase


def test_brc1_reports_offset_of_bad_hex_character():
    payload = brc1_of(two_cliques(3)).splitlines()[1]  # 28 bits, 7 characters
    for bad in ("g", "Z", "-", "\u00e9", "\ud800"):
        text = f"BRC1 8\n{payload[:4]}{bad}{payload[5:]}\n"
        with pytest.raises(ParseError, match="invalid hex character") as exc:
            TwoColoring.from_brc1(text)
        assert (exc.value.line, exc.value.offset) == (2, 4)


# the characters a BRC1 payload drops, and the hex digits it accepts
PAYLOAD_DROPS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029 \t"
HEX_DIGITS = "0123456789abcdefABCDEF"
ODD_CHARACTERS = [chr(i) for i in range(128)]
ODD_CHARACTERS += ["\x80", "\x85", "\xa0", "\u00e9", "\u0663", "\u2028", "\u3000", "\ud800", "\U0001f600"]


def refusal(read, *args):
    """(message, line, offset) of the ParseError ``read`` raises, else None."""
    try:
        read(*args)
    except ParseError as exc:
        return str(exc).split(" (line")[0], exc.line, exc.offset
    return None


def test_brc1_refuses_every_odd_character_where_it_stands():
    # each character in turn replaces payload character 0, 3 or 6: a
    # dropped one leaves the payload a character short, a hex digit is
    # read, any other is named with its offset, and of two the first
    payload = brc1_of(two_cliques(3)).splitlines()[1]  # 28 bits, 7 characters
    short = ("expected 7 hex characters for 28 edge bits, got 6", 2, None)
    for ch in ODD_CHARACTERS:
        for pos in (0, 3, 6):
            raw = payload[:pos] + ch + payload[pos + 1 :]
            named = None if ch in HEX_DIGITS else (f"invalid hex character {ch!r}", 2, pos)
            got = refusal(TwoColoring.from_brc1, f"BRC1 8\n{raw}\n")
            assert got == (short if ch in PAYLOAD_DROPS else named), (ch, pos)
            # unstripped, as bytes.fromhex would skip ASCII whitespace
            assert refusal(hex_of, [raw]) == named, (ch, pos)
            if pos < 5:
                first = refusal(hex_of, [raw[:5] + "g" + raw[6:]])
                assert first[2] == (5 if ch in HEX_DIGITS else pos), (ch, pos)
        # two together between byte pairs, which bytes.fromhex would skip
        pair = payload[:2] + 2 * ch + payload[4:]
        named = None if ch in HEX_DIGITS else (f"invalid hex character {ch!r}", 2, 2)
        assert refusal(hex_of, [pair]) == named, ch


def hex_of(pieces) -> bytes:
    """The bytes that hex_bytes decodes from a 28-bit payload on line 2."""
    return b"".join(hex_bytes(pieces, 28, 2))


def cut(text: str, piece: int) -> list[str]:
    return [text[k : k + piece] for k in range(0, len(text), piece)]


def decoded(text: str, piece: int | None = None):
    """hex_bytes of text, whole or in pieces of ``piece`` characters, as
    28 bits on line 2, or its refusal."""
    pieces = [text] if piece is None else cut(text, piece)
    return refusal(hex_of, pieces) or hex_of(pieces)


@pytest.mark.parametrize("piece", [2, 4])
def test_hex_bytes_decodes_piece_by_piece(piece):
    # the payload is decoded as its pieces come: the pieces change neither
    # the bytes nor the character named, nor its offset, and a payload
    # read past a header counts its offsets from there
    payload = brc1_of(two_cliques(3)).splitlines()[1]
    cases = [payload, payload[:2] + "  " + payload[4:], payload[:4] + "\x1f\x1f" + payload[6:]]
    cases += [payload[:pos] + ch + payload[pos + 1 :] for pos in range(7) for ch in ODD_CHARACTERS]
    want = [decoded(text) for text in cases]
    assert [decoded(text, piece) for text in cases] == want
    assert [decoded(text, 1) for text in cases] == want
    texts = [f"BRC1 8\n{text}\n" for text in cases]
    want = [refusal(TwoColoring.from_brc1, text) for text in texts]
    assert [refusal(TwoColoring.from_brc1, cut(text, piece)) for text in texts] == want


def pack_bits_hex(bits) -> str:
    """The BRC1 payload of a bit sequence, from the spec: each run of four
    bits is one lowercase hex digit, the first bit worth 8, and the last
    run is padded with zeros."""
    bits = np.asarray(bits, dtype=np.int64)
    nibbles = np.pad(bits, (0, -len(bits) % 4)).reshape(-1, 4) @ np.array([8, 4, 2, 1])
    return "".join(np.array(list("0123456789abcdef"))[nibbles])


def test_pack_unpack_hex():
    bits = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
    payload = pack_bits_hex(bits)
    assert payload == "b0"
    # BRC1 decodes the same layout, here the 6 edge bits of K_4
    bits = np.array([1, 0, 1, 1, 0, 1], dtype=bool)
    payload = pack_bits_hex(bits)
    assert payload == "b4"
    assert np.array_equal(colex_bools(TwoColoring.from_brc1(f"BRC1 4\n{payload}\n").blue), bits)
    with pytest.raises(ParseError, match="nonzero padding bits"):
        TwoColoring.from_brc1("BRC1 4\nb5\n")  # padding bit set


@pytest.mark.parametrize("N", range(18))
def test_index_hex_matches_pack_bits_hex(N):
    # C(N, 2) for N = 0..12 meets every residue mod 8, so every padding of
    # the last byte and nibble; N = 13..17 add 0 again at N = 16.  The int
    # route (index_hex) and the decoded words, packed again by the test's
    # own encoder (brc1_of), both match the spec.
    m = N * (N - 1) // 2
    rng = random.Random(N)
    lowest_blue = [(1 << j) - 1 for j in range(m + 1)]  # 0 .. 2^m - 1: the lowest j edges blue
    for k in lowest_blue + [rng.getrandbits(m) for _ in range(20)]:
        expect = pack_bits_hex([k >> e & 1 for e in range(m)])
        assert index_hex(k, m) == expect, (N, k)
        assert brc1_of(coloring_of_index(N, k)) == f"BRC1 {N}\n{expect}\n", (N, k)


def test_tripartite_file_at_n3000_matches_pack_bits_hex():
    c = tripartite_random(ConstructionParams(3000, Fraction(1, 200), seed=3))
    assert brc1_of(c) == f"BRC1 3000\n{pack_bits_hex(colex_bools(c.blue))}\n"


# orders whose C(n, 2) colex bits end inside a byte, with one pack stripe
# of _PACK_ROWS = 64 rows (3, 30, 63) and more (66, 195, 300), and orders
# whose bits end on a byte (129, 192)
CONSTRUCT_ORDERS = [3, 30, 63, 66, 129, 192, 195, 300]


@pytest.mark.parametrize("n", CONSTRUCT_ORDERS)
def test_construct_writes_the_drawn_bytes_as_the_words_encode(tmp_path, n):
    # construct writes the BRC1 bytes of tripartite_bytes as they are
    # drawn, never decoding them to words; the file is the one that the
    # words of tripartite_random encode to
    path = tmp_path / "t.brc1"
    argv = ["--seed", str(n), "construct", "tripartite", "--n", str(n), "--epsilon", "1/200", "--out", str(path)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0
    c = tripartite_random(ConstructionParams(n, Fraction(1, 200), seed=n))
    assert path.read_text(encoding="ascii") == brc1_of(c)
    assert TwoColoring.from_brc1(brc1_of(c)) == c


# q = 1..8, n = 2q + 2 = 4..18: C(n, 2) mod 8 takes all eight values, so
# the two-clique bytes end at every padding of the last byte
@pytest.mark.parametrize("q", range(1, 9))
def test_construct_two_cliques_writes_the_complement_of_k_q1_q1(tmp_path, q):
    path = tmp_path / "tc.brc1"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["construct", "two-cliques", "--q", str(q), "--out", str(path)]) == 0
    want = TwoColoring(complement_of(complete_bipartite(q + 1, q + 1)))
    assert path.read_text(encoding="ascii") == brc1_of(want)
    assert two_cliques(q) == want


def test_construct_two_cliques_refuses_q_0_before_opening_the_file(tmp_path):
    # two_clique_bytes refuses when called, not when first drawn from, so
    # write_brc1 never opens the file
    with pytest.raises(ValueError, match="q must be at least 1"):
        two_clique_bytes(0)
    path = tmp_path / "tc.brc1"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["construct", "two-cliques", "--q", "0", "--out", str(path)]) == 2
    assert not path.exists()


def test_coloring_file_io(tmp_path):
    c = two_cliques(2)
    path = tmp_path / "c.brc1"
    write_brc1(path, c.n, [colex_bytes(c.blue)])
    assert read_coloring_file(path) == c


# The file readers decode a BRC1 file as they read it, _FILE_PIECE bytes
# at a time; pieces of 1 to 7 characters put their boundaries inside a
# "\r\n", between the two digits of a byte, on a dropped character and
# on a bad one.

ASCII_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]
PAYLOAD_EDITS = [" ", "\t", "\r\n", "\n", "\r", "\x0b", "\x1f", "g", "G", "-", "A", "0", "f", ""]


@st.composite
def brc1_texts(draw):
    """ASCII BRC1 texts of orders 0 to 9, most of them valid or nearly:
    leading space, any line break after the header, the payload with
    characters dropped, added or replaced, a count that is off."""
    n = draw(st.integers(0, 9))
    bits = draw(st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    payload = list(brc1_of(coloring_of_bits(n, bits)).split("\n")[1])
    for pos, ch, replace in draw(st.lists(st.tuples(st.integers(0, 40), st.sampled_from(PAYLOAD_EDITS), st.booleans()), max_size=3)):
        pos = min(pos, len(payload))
        payload[pos : pos + replace] = [ch]
    lead = draw(st.sampled_from(["", "", " ", "  ", "\t", "\n", "\x1f"]))
    magic = draw(st.sampled_from(["BRC1", "BRC1", "BRC1", "BRC2", "brc1"]))
    count = draw(st.sampled_from([str(n), str(n), str(n + 1), "x", "-1", f"{n} 0", "", "9999"]))
    sep, end = draw(st.sampled_from(ASCII_BREAKS)), draw(st.sampled_from(ASCII_BREAKS + [""]))
    return f"{lead}{magic} {count}{sep}{''.join(payload)}{end}"


def outcome(read, arg):
    """What ``read(arg)`` gives: a coloring, or the kind and text (with
    line and offset) of its refusal."""
    try:
        return read(arg)
    except ValueError as exc:  # ParseError, CapacityError, and a byte that is not ASCII
        return type(exc).__name__, str(exc)


def file_outcomes(path, piece):
    from bookramsey import colorings

    with mock.patch.object(colorings, "_FILE_PIECE", piece):
        return outcome(read_coloring_file, path), outcome(read_any_file, path)


@settings(max_examples=300, deadline=None)
@given(brc1_texts(), st.integers(1, 7))
@example("BRC1 4\r\n84\r\n", 7)  # "\r" ends piece 1, "\n" starts piece 2
@example("BRC1 8\n0123\r\n456\n", 3)  # an odd piece ends on "\r"
@example("BRC1 8\n01 23 45 6\n", 2)  # boundaries fall between a byte's digits and on spaces
@example("BRC1 8\n012g456\n", 4)  # the bad character opens a piece
@example("   BRC1 4\n84\n", 1)
def test_file_readers_match_from_brc1_at_any_piece_size(text, piece):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.brc1")
        with open(path, "wb") as fh:
            fh.write(text.encode("ascii"))
        read, read_any = file_outcomes(path, piece)
    want = outcome(TwoColoring.from_brc1, text)
    assert read == want
    if text.lstrip().startswith("BRC1"):
        assert read_any == want


def test_file_readers_read_past_a_payload_error_to_a_byte_that_is_not_ascii(tmp_path):
    # a payload error and a header error are reported only once the whole
    # file is read, so a byte that is not ASCII further on is refused
    # first, at its position in the file, as decoding the whole file does
    from bookramsey import cli

    for raw in (b"BRC1 4\n8g\n\xc3\xa9\n", b"BRC1 4\n85\n" + b"0" * 70000 + b"\xff", b"BRC1 x\n84\n\x80"):
        path = tmp_path / "c.brc1"
        path.write_bytes(raw)
        try:
            raw.decode("ascii")
        except UnicodeDecodeError as exc:
            want = "UnicodeDecodeError", str(exc)
        for piece in (1, 3, 7, 1 << 16):
            assert [(kind.replace("ValueError", "UnicodeDecodeError"), text) for kind, text in file_outcomes(path, piece)] == [want, want]
        for argv in (["bk", str(path)], ["witness-check", str(path), "1", "2"]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                assert cli.main(argv) == 2
            assert err.getvalue() == f"error: {want[1]}\n"


def test_read_any_file_reads_brc1_after_leading_space_and_graph6_lines(tmp_path):
    path = tmp_path / "f"
    path.write_text("  \t BRC1 4\n84\n")
    assert read_coloring_file(path) == two_cliques(1)
    assert read_any_file(path) == two_cliques(1)
    # graph6: the first line that is not blank, numbered as str.splitlines
    # numbers it, "\r\n" one break and "\x1f" blank but no break
    for text in ("\n\r\n \x0b\x1f\x1c  Bw\n", "Bw", "\r\rBw\r\n?"):
        path.write_text(text)
        assert read_any_file(path) == Graph.from_graph6("Bw")  # a triangle
        bad = text.replace("Bw", "B!")
        path.write_text(bad)
        line = 1 + next(k for k, raw in enumerate(bad.splitlines()) if raw.strip())
        with pytest.raises(ParseError) as exc:
            read_any_file(path)
        assert (exc.value.line, exc.value.offset) == (line, 1)
    path.write_text(" \n\x1f\r\n")
    with pytest.raises(ParseError, match="empty input file"):
        read_any_file(path)


# ----------------------------------------------------------------------- rng


def test_edge_value_reference_vector():
    # splitmix64 reference outputs for seed 1234567
    assert [edge_value(1234567, k) for k in range(3)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
    ]


def test_probability_threshold_endpoints():
    assert probability_threshold(Fraction(0)) == 0
    assert probability_threshold(Fraction(1, 2)) == 1 << 63
    assert probability_threshold(Fraction(1)) == 1 << 64


def test_block_matches_scalar():
    seed, start, count = 99, 1000, 257
    block = edge_values_block(seed, start, count)
    assert block.dtype == np.uint64
    for off in (0, 1, 100, 256):
        assert int(block[off]) == edge_value(seed, start + off)


@pytest.mark.parametrize("seed", [-3, 0, 2**64 + 5, 2**65])
def test_stream_values_match_scalar_composition(seed):
    # counts 0 and 1, a search sample's 301 and the extractor's 2 * 999
    for stream in (0, 1, 9):
        key = edge_value(seed, stream)
        for start, count in ((40, 70), (40, 0), (40, 1), (301, 301), (0, 2 * 999)):
            block = stream_values(seed, stream, start, count)
            assert block == [edge_value(key, start + k) for k in range(count)]
            assert block == edge_values_block(key, start, count).tolist()
        # the search's consecutive blocks of one stream, as single reads
        blocks = stream_blocks(seed, stream, 301, 40)
        assert [next(blocks) for _ in range(3)] == [stream_values(seed, stream, 40 + 301 * i, 301) for i in range(3)]


def test_bernoulli_block_matches_threshold_comparison():
    thr = probability_threshold(Fraction(367, 800))
    hits = bernoulli_block(5, 0, 512, thr)
    vals = edge_values_block(5, 0, 512)
    assert np.array_equal(hits, vals < np.uint64(thr))
    # degenerate thresholds
    assert not bernoulli_block(5, 0, 64, 0).any()
    assert bernoulli_block(5, 0, 64, 1 << 64).all()


def test_bernoulli_block_frequency_is_sane():
    thr = probability_threshold(Fraction(1, 2))
    hits = bernoulli_block(1, 0, 20000, thr)
    assert abs(hits.mean() - 0.5) < 0.02


# -------------------------------------------------------------- construction


def test_params_validation():
    with pytest.raises(ValueError):
        ConstructionParams(300, Fraction(0))
    with pytest.raises(ValueError):
        ConstructionParams(300, Fraction(1, 10), delta=Fraction(2, 3))
    p = ConstructionParams(301, Fraction(1, 200))
    with pytest.raises(ValueError):
        p.validate()  # order must be divisible by 3
    ConstructionParams(300, Fraction(1, 200)).validate()


def test_default_delta_and_probabilities():
    p = ConstructionParams(300, Fraction(1, 200))
    assert p.delta == Fraction(33, 800)
    assert p.p == Fraction(367, 800)
    assert p.q_prob == Fraction(433, 800)


def test_margins_frozen_values():
    p = ConstructionParams(300, Fraction(1, 200))
    k1, k2 = margins(p)
    assert k1 == Fraction(437, 320000)
    assert k2 == Fraction(437, 640000)


def test_margins_fail_when_delta_too_large():
    p = ConstructionParams(300, Fraction(1, 200), delta=Fraction(49, 100))
    with pytest.raises(ValueError):
        p.validate()


def test_expected_book_sizes_frozen_values():
    p = ConstructionParams(300, Fraction(1, 200))
    red_intra, blue_cross, red_cross = expected_book_sizes(p)
    assert red_intra == Fraction(448289, 3200)  # 140.0903125
    assert blue_cross == Fraction(187489, 6400)  # 29.29515625
    assert red_cross == Fraction(716017, 6400)  # 111.87765625


def test_expected_book_sizes_degenerate_inputs():
    # unbiased coin: red_intra = n/3 - 2 + n/6 and blue_cross = n/12
    p12 = ConstructionParams(12, Fraction(1, 200), delta=Fraction(0))
    ri, bc, _ = expected_book_sizes(p12)
    assert ri == 4 and bc == 1
    # the formulas are returned unclamped even when they go negative
    p3 = ConstructionParams(3, Fraction(1, 200), delta=Fraction(0))
    assert expected_book_sizes(p3)[0] == Fraction(-1, 2)


def test_margin_positivity_boundary_by_bisection():
    # both margins change sign at the same epsilon under the default
    # delta coupling; bisect k1's sign change and pin it to 4/363
    def k1_at(eps):
        return margins(ConstructionParams(300, eps))[0]

    lo, hi = Fraction(1, 1000), Fraction(1, 20)
    assert k1_at(lo) > 0 and k1_at(hi) < 0
    for _ in range(40):
        mid = (lo + hi) / 2
        if k1_at(mid) > 0:
            lo = mid
        else:
            hi = mid
    root = Fraction(4, 363)
    assert lo < root <= hi
    assert float(hi - lo) < 1e-12
    k1, k2 = margins(ConstructionParams(300, root))
    assert k1 == 0 and k2 == 0


def chernoff_tail(n_trials: int, k) -> float:
    """Tail bound 2 exp(-2 k^2 n) on deviating kn from a binomial mean."""
    if n_trials < 1:
        raise ValueError("need at least one trial")
    kf = float(as_fraction(k))
    if kf < 0:
        raise ValueError("deviation fraction must be nonnegative")
    return 2.0 * math.exp(-2.0 * kf * kf * n_trials)


def test_chernoff_tail():
    assert chernoff_tail(100, Fraction(1, 10)) == pytest.approx(
        2 * math.exp(-2.0), rel=1e-12
    )
    assert chernoff_tail(10**6, Fraction(1, 100)) < 2 * math.exp(-100)
    assert chernoff_tail(50, 0) == 2.0  # vacuous bound
    with pytest.raises(ValueError):
        chernoff_tail(50, Fraction(-1, 10))


def test_tripartite_parts():
    a, b, c = tripartite_parts(9)
    assert (a, b, c) == ([0, 1, 2], [3, 4, 5], [6, 7, 8])
    with pytest.raises(ValueError):
        tripartite_parts(10)


def test_tripartite_random_is_deterministic_and_intra_red():
    params = ConstructionParams(30, Fraction(1, 200), seed=4)
    c1 = tripartite_random(params)
    c2 = tripartite_random(params)
    assert c1 == c2
    parts, red = tripartite_parts(30), complement_of(c1.blue)
    for part in parts:
        for i in part:
            for j in part:
                if i < j:
                    assert adjacent(red, i, j)
    # a different seed moves at least one cross edge
    c3 = tripartite_random(ConstructionParams(30, Fraction(1, 200), seed=5))
    assert c3 != c1


def test_tripartite_cross_colors_follow_rng():
    params = ConstructionParams(12, Fraction(1, 200), seed=2)
    c = tripartite_random(params)
    thr = probability_threshold(params.p)
    for i, j in edge_list(c.blue):
        assert edge_value(params.seed, edge_index(i, j)) >= thr


def test_degenerate_bias_forces_all_cross_blue():
    # delta = 1/2 would drive the red cross probability to zero, which the
    # second margin refuses; on n = 6 every cross edge blue is the complete
    # tripartite K_{2,2,2}
    params = ConstructionParams(6, Fraction(1, 200), delta=Fraction(1, 2))
    with pytest.raises(ValueError, match="k2=-47/200"):
        tripartite_random(params)
    c = TwoColoring(complement_of(from_edges(6, [(0, 1), (2, 3), (4, 5)])))
    (blue, _), (red, _) = c.blue.books()
    assert blue == 2
    assert red == 0
    stats = construction_statistics(c, tripartite_parts(6))
    assert stats["blue_cross"]["mean_codegree"] == 2  # n/3 exactly
    assert stats["red_cross"]["edges"] == 0


def test_margin_check_gates_construction():
    # with the default delta = 33/4 * eps the first margin goes negative
    # once eps is this large, so validation must refuse
    params = ConstructionParams(12, Fraction(1, 50), seed=2)
    with pytest.raises(ValueError):
        tripartite_random(params)


# ----------------------------------------------------------------- statistics


def naive_codegree_mean(g: Graph, edges) -> Fraction:
    if not edges:
        return None
    return Fraction(sum(codegree(g, u, v) for u, v in edges), len(edges))


def test_construction_statistics_against_naive_counts():
    params = ConstructionParams(30, Fraction(1, 200), seed=11)
    c = tripartite_random(params)
    parts = tripartite_parts(30)
    stats = construction_statistics(c, parts)

    part_of = {}
    for k, part in enumerate(parts):
        for v in part:
            part_of[v] = k
    red = complement_of(c.blue)
    red_edges = edge_list(red)
    blue_edges = edge_list(c.blue)
    red_intra = [(u, v) for u, v in red_edges if part_of[u] == part_of[v]]
    red_cross = [(u, v) for u, v in red_edges if part_of[u] != part_of[v]]

    assert stats["n"] == 30
    assert stats["part_sizes"] == [10, 10, 10]
    assert stats["red_intra"]["edges"] == len(red_intra)
    assert stats["blue_cross"]["edges"] == len(blue_edges)
    assert stats["red_cross"]["edges"] == len(red_cross)
    assert stats["red_intra"]["mean_codegree"] == naive_codegree_mean(red, red_intra)
    assert stats["blue_cross"]["mean_codegree"] == naive_codegree_mean(
        c.blue, blue_edges
    )
    assert stats["red_cross"]["mean_codegree"] == naive_codegree_mean(red, red_cross)
    (bk_blue, _), (bk_red, _) = c.blue.books()
    assert stats["bk_red"] == bk_red
    assert stats["bk_blue"] == bk_blue
    assert stats["bk_red_over_n"] == Fraction(stats["bk_red"], 30)


def test_red_cross_page_split_adds_up():
    params = ConstructionParams(30, Fraction(1, 200), seed=3)
    c = tripartite_random(params)
    stats = construction_statistics(c, tripartite_parts(30))
    rc = stats["red_cross"]
    if rc["edges"]:
        assert (
            rc["mean_pages_third_part"] + rc["mean_pages_own_parts"]
            == rc["mean_codegree"]
        )
