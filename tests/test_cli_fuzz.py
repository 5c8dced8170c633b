"""Random command lines over small, often malformed inputs.

Each example writes a handful of input files (graph6, BRC1, JSON config,
parts and candidate files, each either well formed or damaged), builds
an argv for one subcommand and runs it through ``cli.main`` in-process.
The contract checked is the CLI's: the exit code is 0, 2, 3 or 10 (an
uncaught exception fails the test), every JSON report on stdout
validates against the shipped schema, and a usage, parse or capacity
error writes nothing to stdout.

Every example stays small: graphs have at most 12 vertices, no scan
beyond K_6 is requested (larger orders are only asked for without
--force, which gives a capacity error before any work), and --threads is
at most 2.
"""

import contextlib
import io
import json
import tempfile
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bookramsey import cli
from bookramsey.colorings import TwoColoring
from bookramsey.graph6 import GRAPH6_ORDER_CAP

from helpers import brc1_of, from_edges, to_graph6

SCHEMA = json.loads(
    resources.files("bookramsey").joinpath("schemas/runreport.schema.json").read_text()
)
EXIT_CODES = {cli.EXIT_OK, cli.EXIT_FOUND, cli.EXIT_USAGE, cli.EXIT_CAPACITY}

# valid values come first in every list, so shrinking heads for them
GOOD_RATIONALS = ["1/10", "1/5", "1/4", "1/3", "0.05", " 1/4 ", "1e-2"]
BAD_RATIONALS = ["1/0", "0", "1", "2", "-1/4", "abc", "", "nan", "inf"]
rationals = st.sampled_from(GOOD_RATIONALS) | st.sampled_from(BAD_RATIONALS)
json_scalars = st.none() | st.booleans() | st.integers(-3, 20) | st.floats(-2, 2, allow_nan=False) | st.text(max_size=4)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=10,
)
# mostly plausible vertex ids, sometimes out of range, huge, or not integers at all
vertices = st.integers(-1, 13) | st.sampled_from([10**18, None, True, 3.5, "3"])
vertex_lists = st.lists(st.lists(st.integers(0, 11), max_size=6) | st.lists(vertices, max_size=6), max_size=5)


@st.composite
def blocks_of(draw, n, count):
    """`count` disjoint blocks of one size drawn from range(n) (empty when n < count)."""
    t = draw(st.integers(1, max(1, n // count)))
    order = draw(st.permutations(range(n)))
    return [list(order[k * t:(k + 1) * t]) for k in range(count)]


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 12))
    pairs = [(i, j) for j in range(n) for i in range(j)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return from_edges(n, [e for e, k in zip(pairs, keep) if k])


@st.composite
def damaged(draw, text):
    """The text itself, or a copy cut short, with a stray character, or with its first line replaced."""
    how = draw(st.sampled_from(["keep", "keep", "keep", "cut", "insert", "header"]))
    if how == "keep":
        return text
    k = draw(st.integers(0, len(text)))
    if how == "cut":
        return text[:k]
    if how == "insert":
        return text[:k] + draw(st.characters(min_codepoint=9, max_codepoint=200)) + text[k:]
    rest = text.split("\n", 1)[1] if "\n" in text else ""
    return draw(st.sampled_from(["BRC1 -1", "BRC1 x", "BRC1 99999999999", "BRC1", "", "~~~~~"])) + "\n" + rest


@st.composite
def json_files(draw, well_formed):
    """JSON text: a drawn well-formed value, any JSON value, broken text, or deep nesting."""
    kind = draw(st.sampled_from(["good", "good", "good", "good", "value", "broken", "deep"]))
    if kind == "good":
        return json.dumps(draw(well_formed))
    if kind == "value":
        return json.dumps(draw(json_values))
    if kind == "broken":
        return draw(st.sampled_from(["", "{", "[[0, 1], [2", "{'a': 1}", "nul", "[1,]"]))
    return "[" * draw(st.sampled_from([5, 3000]))


@st.composite
def configs(draw):
    """A well-formed config with at most two fields made bad or left out."""
    g = draw(graphs())
    good_rationals = st.sampled_from(GOOD_RATIONALS)
    cfg = {
        "graph": to_graph6(g),
        "blocks": draw(blocks_of(g.n, draw(st.integers(2, 4)))),
        "epsilon": draw(good_rationals),
        "beta": draw(good_rationals),
        "gamma": draw(good_rationals),
        "bases": draw(st.sampled_from([1, 2])),
    }
    bad = {
        "graph": damaged(to_graph6(g)) | json_scalars,
        "blocks": vertex_lists | json_values,
        "epsilon": rationals | json_scalars | st.lists(st.integers(0, 2), max_size=2),
        "beta": rationals | json_scalars,
        "gamma": rationals | json_scalars,
        "bases": st.sampled_from([0, 3, None, "1", True, 1.0]),
    }
    for field in draw(st.sets(st.sampled_from(sorted(cfg)), max_size=2)):
        if draw(st.booleans()):
            del cfg[field]
        else:
            cfg[field] = draw(bad[field])
    return cfg


@st.composite
def invocations(draw):
    """(argv with {name} placeholders for input files, {name: file text})."""
    g = draw(graphs())
    files = {
        "g6": draw(damaged(to_graph6(g) + "\n")),
        "brc1": draw(damaged(brc1_of(TwoColoring(g)))),
        "config": draw(json_files(configs())),
        "parts": draw(json_files(blocks_of(g.n, 3) | vertex_lists)),
        "candidate": draw(json_files(blocks_of(g.n, 2) | vertex_lists)),
    }
    graph_file = draw(st.sampled_from(["{brc1}", "{g6}", "{brc1}", "{g6}", "{missing}"]))
    small = st.integers(-1, 6)
    command = draw(st.sampled_from(
        ["bk", "verify", "witness-check", "construct", "stats", "uniformity", "lemma-check", "classify", "trichotomy"]
    ))
    if command == "bk":
        argv = ["bk", graph_file]
    elif command == "verify":
        N = draw(st.sampled_from([-1, 1, 2, 3, 4, 5, 6, 9, 12, 40]))
        argv = ["verify", str(N), str(draw(small)), str(draw(small))]
        argv += ["--prune"] * draw(st.booleans())
        argv += ["--force"] * (N <= 6 and draw(st.booleans()))
    elif command == "witness-check":
        argv = ["witness-check", graph_file, str(draw(small)), str(draw(small))]
    elif command == "construct":
        argv = ["construct", draw(st.sampled_from(["two-cliques", "tripartite"])), "--out", "{out}"]
        for flag, values in (
            ("--q", st.integers(-1, 15).map(str)),
            ("--n", st.sampled_from(["-3", "0", "3", "9", "10", "30", "60"])),
            ("--epsilon", rationals),
            ("--delta", rationals),
        ):
            if draw(st.booleans()):
                argv += [flag, draw(values)]
    elif command == "stats":
        argv = ["stats", graph_file] + ["--parts", "{parts}"] * draw(st.booleans())
    elif command in ("uniformity", "classify"):
        argv = [command, "{config}", "--samples", str(draw(st.sampled_from([-1, 0, 1, 10, 50])))]
        argv += ["--sampled"] * (command == "uniformity" and draw(st.booleans()))
    elif command == "lemma-check":
        argv = ["lemma-check", "{config}"]
    else:
        argv = ["trichotomy", graph_file, "--xi", draw(rationals)]
        argv += ["--candidate", "{candidate}"] * draw(st.booleans())
    flags = [
        "--seed", str(draw(st.integers(-3, 2**65))),
        "--threads", str(draw(st.sampled_from([1, 2] * 4 + [0, -1]))),
        "--format", draw(st.sampled_from(["json"] * 7 + ["csv"])),
    ]
    return flags + argv, files


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return code, out.getvalue()


@settings(max_examples=400, deadline=None)
@given(invocations())
def test_cli_exit_codes_and_reports_hold_under_random_input(invocation):
    template, texts = invocation
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        paths = {"missing": str(root / "missing.g6"), "out": str(root / "out.brc1")}
        for name, text in texts.items():
            path = root / f"{name}.input"
            path.write_text(text, encoding="utf-8")
            paths[name] = str(path)
        argv = [a.format(**paths) for a in template]
        code, stdout = run_main(argv)
    assert code in EXIT_CODES, argv
    if code in (cli.EXIT_USAGE, cli.EXIT_CAPACITY):
        assert stdout == "", argv
    elif argv[argv.index("--format") + 1] == "json":
        report = json.loads(stdout)
        jsonschema.validate(report, SCHEMA)
        assert report["command"] == template[6]  # the subcommand follows three flag pairs


def _long_form_header(n):
    return "~" + "".join(chr(((n >> shift) & 63) + 63) for shift in (12, 6, 0))


@pytest.mark.parametrize("n, full_data", [(GRAPH6_ORDER_CAP + 1, True), (GRAPH6_ORDER_CAP + 1, False), (258047, False)])
@pytest.mark.parametrize("command", ["bk", "trichotomy", "uniformity"])
def test_graph6_order_above_the_cap_exits_three_before_decoding(tmp_path, n, full_data, command):
    # with its full data, n = 8193 is a 5.6 MB file whose decode would build
    # (n, n) bool matrices of about 270 MB; the largest long-form order,
    # 258047, would take hundreds of GB.  Both are refused from the header.
    text = _long_form_header(n) + "?" * (((n * (n - 1) // 2 + 5) // 6) if full_data else 3)
    if command == "uniformity":
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"graph": text, "blocks": [[0], [1]], "epsilon": "1/10"}))
        argv = ["uniformity", str(path)]
    else:
        path = tmp_path / "graph.g6"
        path.write_text(text + "\n")
        argv = [command, str(path)] + (["--xi", "1/10"] if command == "trichotomy" else [])
    code, stdout = run_main(argv)
    assert code == cli.EXIT_CAPACITY
    assert stdout == ""


@pytest.mark.parametrize("full_data", [True, False])
def test_brc1_order_above_the_cap_exits_three_before_decoding(tmp_path, full_data):
    # BRC1 shares the graph6 cap: the order is refused from the header,
    # before the payload length is checked or any (n, n) array is built
    n = GRAPH6_ORDER_CAP + 1
    path = tmp_path / "big.brc1"
    path.write_text(f"BRC1 {n}\n" + "0" * (((n * (n - 1) // 2 + 3) // 4) if full_data else 3) + "\n")
    code, stdout = run_main(["bk", str(path)])
    assert code == cli.EXIT_CAPACITY
    assert stdout == ""


def test_brc1_at_the_cap_with_a_short_payload_exits_two(tmp_path):
    path = tmp_path / "short.brc1"
    path.write_text(f"BRC1 {GRAPH6_ORDER_CAP}\n000\n")
    code, stdout = run_main(["bk", str(path)])
    assert code == cli.EXIT_USAGE
    assert stdout == ""
