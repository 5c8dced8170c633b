"""The numpy-free uniformity oracle: its sorting network, its lane
blocks, the graph6 pair reader (against its former per-bit loop and the
decoded graph), and the ``uniformity`` command on malformed configs.

The refusals below were recorded from the command before its oracle
left numpy (when it decoded the whole host graph and built a pair view
of it): the stderr line and the exit code of each must not change.
"""

import contextlib
import io
import json
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bookramsey import cli, oracle
from bookramsey.colex import edge_index
from bookramsey.graph6 import graph6_data, graph6_pair_rows
from bookramsey.graphs import Graph

from helpers import Pair, edges_between, empty_graph, from_edges, graph_of, oracle_witness, to_graph6


@pytest.mark.parametrize("n", range(1, 17))
def test_batcher_network_sorts_every_zero_one_input(n):
    # the 0-1 principle: a comparator network that sorts every 0/1 input
    # sorts every input
    net = oracle.batcher_network(n)
    assert all(0 <= i < j < n for i, j in net)
    for v in range(1 << n):
        wires = [v >> i & 1 for i in range(n)]
        for i, j in net:
            if wires[i] > wires[j]:
                wires[i], wires[j] = wires[j], wires[i]
        assert wires == sorted(wires), (n, v)


def test_sort_orders_every_lane():
    rng = np.random.default_rng(2)
    values = rng.integers(0, 17, size=(9, 300)).tolist()  # 9 numbers in each of 300 lanes
    planes = [[sum((x >> j & 1) << lane for lane, x in enumerate(row)) for j in range(5)] for row in values]
    oracle._sort(planes, oracle.batcher_network(9))
    got = [[sum((p >> lane & 1) << j for j, p in enumerate(row)) for row in planes] for lane in range(300)]
    assert got == [sorted(col) for col in zip(*values)]


@pytest.mark.parametrize("k", [1, 3, oracle.FIRST_BITS, oracle.FIRST_BITS + 2])
def test_lane_blocks_cover_the_subsets_in_order(k):
    # every subset X of k elements once, in increasing order, with the
    # weight sums of X and its size
    rng = np.random.default_rng(k)
    weights = rng.integers(0, 5, size=(2, k)).tolist()
    seen = []
    for start, values, sizes in oracle._lane_blocks(weights):
        width = start or 1 << min(k, oracle.FIRST_BITS)  # [2^t, 2^(t+1)) after the first block
        for lane in range(width):
            X = start + lane
            got = [sum((p >> lane & 1) << j for j, p in enumerate(v)) for v in values]
            assert got == [sum(w[a] for a in range(k) if X >> a & 1) for w in weights]
            assert [c for c, mask in enumerate(sizes) if mask >> lane & 1] == [X.bit_count()]
            seen.append(X)
    assert seen == list(range(1 << k))


def test_half_graph_witness_ends_the_scan_early(monkeypatch):
    # the first witness of the 16 x 16 half graph lies in an early block,
    # so the scan never reaches the last 2^15 lanes of X
    starts = []
    blocks = oracle._lane_blocks

    def recorded(weights):
        for block in blocks(weights):
            starts.append((len(weights), block[0]))
            yield block

    monkeypatch.setattr(oracle, "_lane_blocks", recorded)
    t = 16
    pair = Pair(from_edges(2 * t, [(i, t + j) for i in range(t) for j in range(t) if i <= j]), range(t), range(t, 2 * t))
    assert oracle_witness(pair, Fraction(1, 10)) == ((0, 1), (16, 17))
    x_blocks = [start for nweights, start in starts if nweights == t]
    assert max(x_blocks) < 1 << (t - 1)


def ref_graph6_pair_rows(data, A, B):
    """The reader as a per-bit loop: edge k is bit 5 - k % 6 of
    character k // 6, less 63."""
    out = []
    for b in B:
        row = 0
        for pos, a in enumerate(A):
            if a != b:
                k = edge_index(a, b)
                row |= (data[k // 6] - 63 >> 5 - k % 6 & 1) << pos
        out.append(row)
    return out


def random_line(rng, n: int) -> str:
    """The graph6 line of a random n-vertex graph, each pair an edge with
    probability 1/2."""
    nbits = n * (n - 1) // 2
    six = rng.integers(0, 64, size=-(-nbits // 6), dtype=np.uint8)
    if nbits % 6:
        six[-1] &= 63 ^ ((1 << -nbits % 6) - 1)  # the padding bits are zero
    return (chr(n + 63) if n <= 62 else long_form(n)) + (six + 63).tobytes().decode("ascii")


def adjacency_rows(g: Graph, A, B) -> list[int]:
    """The pair rows of a decoded graph, packed from ``Graph.adjacency``."""
    packed = np.packbits(g.adjacency(B, A), axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


@pytest.mark.parametrize("n", [2, 9, 62, 63, 100, 4097])
def test_pair_rows_read_off_graph6_match_the_decoded_graph(n):
    rng = np.random.default_rng(n)
    line = random_line(rng, n)
    g = Graph.from_graph6(line)
    order, data = graph6_data(">>graph6<<" + line + "\n")
    assert order == n and to_graph6(g) == line
    perm = rng.permutation(n).tolist()
    k = min(n // 2, 150)
    A, B = perm[:k], perm[k : 2 * k]
    cases = [
        (A, B),
        (B[::-1], A),  # sides in any order
        (A + B[:3], B),  # sides that meet: a vertex's bit to itself reads 0
        (list(range(n)), [n - 1, 0]),  # every run, the last one up to the padding
    ]
    for A, B in cases:
        want = ref_graph6_pair_rows(data, A, B)
        assert graph6_pair_rows(data, A, B) == want == adjacency_rows(g, A, B)
    assert Graph.from_graph6("\u2003" + line + "\u2028") == g  # Unicode whitespace around


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 80), st.integers(0, 2**32 - 1), st.data())
def test_pair_rows_match_the_per_bit_loop_on_random_lines(n, seed, draw):
    _, data = graph6_data(random_line(np.random.default_rng(seed), n))
    vertices = st.lists(st.integers(0, n - 1), max_size=24)
    A, B = draw.draw(vertices), draw.draw(vertices)
    assert graph6_pair_rows(data, A, B) == ref_graph6_pair_rows(data, A, B)


# --------------------------------------------------------------- the command


def half8() -> str:
    # 8 vertices: A = 0..3, B = 4..7, a ~ 4 + b iff a <= b
    return to_graph6(from_edges(8, [(a, 4 + b) for a in range(4) for b in range(4) if a <= b]))


def long_form(n: int) -> str:
    return "~" + "".join(chr((n >> shift & 63) + 63) for shift in (12, 6, 0))


B8 = [[0, 1, 2, 3], [4, 5, 6, 7]]
SIDES17 = [list(range(17)), list(range(17, 34))]

# name: (config, exit code, stderr), as recorded
REFUSALS = {
    "bad-character": (
        lambda: {"graph": half8()[:3] + "!" + half8()[4:], "blocks": B8, "epsilon": "1/10"},
        2, "parse error: invalid graph6 character '!' (line 1, offset 3)\n"),
    "truncated-order": (
        lambda: {"graph": "~??", "blocks": B8, "epsilon": "1/10"},
        2, "parse error: truncated graph6 vertex count (line 1, offset 0)\n"),
    "eight-byte-order": (
        lambda: {"graph": "~~??????", "blocks": B8, "epsilon": "1/10"},
        2, "parse error: truncated graph6 vertex count (line 1, offset 0)\n"),
    "length-mismatch": (
        lambda: {"graph": half8() + "?", "blocks": B8, "epsilon": "1/10"},
        2, "parse error: graph6 data length 6 does not match n=8 (line 1, offset 7)\n"),
    "short-data": (
        lambda: {"graph": half8()[:-1], "blocks": B8, "epsilon": "1/10"},
        2, "parse error: graph6 data length 4 does not match n=8 (line 1, offset 5)\n"),
    "nonzero-padding": (
        lambda: {"graph": "B" + chr(63 + 1), "blocks": [[0], [1]], "epsilon": "1/10"},
        2, "parse error: nonzero padding bits in graph6 data (line 1, offset 2)\n"),
    "empty-graph6": (
        lambda: {"graph": "", "blocks": B8, "epsilon": "1/10"},
        2, "parse error: empty graph6 string (line 1)\n"),
    "header-only": (
        lambda: {"graph": ">>graph6<<", "blocks": B8, "epsilon": "1/10"},
        2, "parse error: empty graph6 string (line 1)\n"),
    "graph-not-string": (
        lambda: {"graph": 5, "blocks": B8, "epsilon": "1/10"},
        2, "parse error: invalid graph6 character '5' (line 1, offset 0)\n"),
    "order-above-cap": (
        lambda: {"graph": long_form(8193) + "???", "blocks": [[0], [1]], "epsilon": "1/10"},
        3, "capacity error: graph6 order 8193 is above the cap of 8192 vertices\n"),
    "vertex-out-of-range": (
        lambda: {"graph": half8(), "blocks": [[0, 1, 2, 8], [4, 5, 6, 7]], "epsilon": "1/10"},
        2, "error: vertex 8 outside the 8-vertex graph\n"),
    "negative-vertex": (
        lambda: {"graph": half8(), "blocks": [[0, -1], [4, 5]], "epsilon": "1/10"},
        2, "error: vertex -1 outside the 8-vertex graph\n"),
    "blocks-not-lists": (
        lambda: {"graph": half8(), "blocks": [0, 1], "epsilon": "1/10"},
        2, "parse error: 'blocks' must be a list of vertex lists (line 1)\n"),
    "overlapping-blocks": (
        lambda: {"graph": half8(), "blocks": [[0, 1, 4], [4, 5, 6]], "epsilon": "1/10"},
        2, "error: sides must be disjoint\n"),
    "repeated-vertex": (
        lambda: {"graph": half8(), "blocks": [[0, 1, 1], [4, 5, 6]], "epsilon": "1/10"},
        2, "error: repeated vertex in a side\n"),
    "empty-block": (
        lambda: {"graph": half8(), "blocks": [[], [4, 5, 6]], "epsilon": "1/10"},
        2, "error: both sides must be nonempty\n"),
    "three-blocks": (
        lambda: {"graph": half8(), "blocks": [[0, 1], [4, 5], [6, 7]], "epsilon": "1/10"},
        2, "error: uniformity needs exactly two blocks\n"),
    "one-block": (
        lambda: {"graph": half8(), "blocks": [[0, 1]], "epsilon": "1/10"},
        2, "error: uniformity needs exactly two blocks\n"),
    "missing-graph": (
        lambda: {"blocks": B8, "epsilon": "1/10"},
        2, "parse error: config needs 'graph' (line 1)\n"),
    "epsilon-unparsable": (
        lambda: {"graph": half8(), "blocks": B8, "epsilon": "one tenth"},
        2, "error: Invalid literal for Fraction: 'one tenth'\n"),
    "epsilon-zero-denominator": (
        lambda: {"graph": half8(), "blocks": B8, "epsilon": "1/0"},
        2, "error: zero denominator in '1/0'\n"),
    "epsilon-zero": (
        lambda: {"graph": half8(), "blocks": B8, "epsilon": "0"},
        2, "error: eps must be positive\n"),
    "epsilon-negative": (
        lambda: {"graph": half8(), "blocks": B8, "epsilon": "-1/10"},
        2, "error: eps must be positive\n"),
    "epsilon-negative-sides-17": (
        lambda: {"graph": to_graph6(empty_graph(34)), "blocks": SIDES17, "epsilon": "-1"},
        2, "error: eps must be positive\n"),
    "sides-17": (
        lambda: {"graph": to_graph6(empty_graph(34)), "blocks": SIDES17, "epsilon": "1/10"},
        3, "capacity error: oracle sides capped at 16 vertices\n"),
    "sides-17-overlapping": (
        lambda: {"graph": to_graph6(empty_graph(34)), "blocks": [list(range(17)), list(range(16, 33))], "epsilon": "1/10"},
        2, "error: sides must be disjoint\n"),
    "side-17-floor-above-its-side": (
        lambda: {"graph": to_graph6(empty_graph(34)), "blocks": [list(range(17)), [20]], "epsilon": "2"},
        3, "capacity error: oracle sides capped at 16 vertices\n"),
}


def run_uniformity(tmp_path, text: str) -> tuple[int, str, str]:
    path = tmp_path / "config.json"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["uniformity", str(path)])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", REFUSALS)
def test_uniformity_refuses_a_malformed_config_as_recorded(tmp_path, name):
    config, code, stderr = REFUSALS[name]
    assert run_uniformity(tmp_path, json.dumps(config())) == (code, "", stderr)


@pytest.mark.parametrize(
    "text, stderr",
    [
        ('{"graph": ', "parse error: bad JSON config: Expecting value (line 1, offset 11)\n"),
        ("[1, 2]", "parse error: config must be a JSON object (line 1)\n"),
    ],
)
def test_uniformity_refuses_a_config_that_is_no_json_object_as_recorded(tmp_path, text, stderr):
    assert run_uniformity(tmp_path, text) == (2, "", stderr)


HALF8_RESULTS = {"density": "5/8", "method": "oracle", "uniform": False, "witness": [[0], [4]]}


@pytest.mark.parametrize(
    "graph, epsilon, code, results",
    [
        (">>graph6<<{}", "1/10", 10, {**HALF8_RESULTS, "epsilon": "1/10"}),
        ("  {}\n", "1/10", 10, {**HALF8_RESULTS, "epsilon": "1/10"}),
        ("{}", "1e-40", 10, {**HALF8_RESULTS, "epsilon": "1/" + "1" + "0" * 40}),
        ("{}", "2", 0, {**HALF8_RESULTS, "epsilon": "2", "uniform": True, "witness": None}),
    ],
)
def test_uniformity_reports_as_recorded(tmp_path, graph, epsilon, code, results):
    config = {"graph": graph.format(half8()), "blocks": B8, "epsilon": epsilon}
    got, out, _ = run_uniformity(tmp_path, json.dumps(config))
    assert (got, json.loads(out)["results"]) == (code, results)


@pytest.mark.parametrize("na, nb", [(1, 1), (3, 5), (16, 3)])
def test_command_and_pair_view_agree(tmp_path, na, nb):
    # the command reads the pair's bits off the line; the library decodes
    # the whole graph: the same density and witness on every shape
    rng = np.random.default_rng(na * nb)
    for p, eps in product((0.0, 0.5, 1.0), (Fraction(1, 10), Fraction(1, 3))):
        upper = np.triu(rng.random((na + nb + 2,) * 2) < p, 1)
        g = graph_of(upper | upper.T)
        perm = rng.permutation(na + nb + 2).tolist()
        A, B = perm[:na], perm[na : na + nb]
        code, out, _ = run_uniformity(tmp_path, json.dumps({"graph": to_graph6(g), "blocks": [A, B], "epsilon": str(eps)}))
        witness = oracle_witness(Pair(g, A, B), eps)
        results = json.loads(out)["results"]
        assert results["density"] == cli.jsonable(Fraction(edges_between(g, A, B), na * nb))
        assert results["witness"] == cli.jsonable(witness)
        assert code == (10 if witness else 0)
