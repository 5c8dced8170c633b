"""End-to-end command-line tests: exit codes, report envelope, determinism.

Each invocation goes through a real subprocess so argument parsing,
stream separation, and exit codes are exercised exactly as a shell user
would see them.
"""

import concurrent.futures
import gc
import json
import os
import re
import subprocess
import sys
import threading
from fractions import Fraction
from importlib import resources

import jsonschema
import numpy as np
import pytest

import bookramsey
from bookramsey import cli, graph6, oracle, regularity, stability
from bookramsey.colorings import (
    TwoColoring,
    two_cliques,
    write_brc1,
)
from bookramsey.graph6 import GRAPH6_ORDER_CAP
from bookramsey.graphs import Graph
from bookramsey.numbers import as_fraction
from bookramsey.ramsey import Neither, check_coloring

from helpers import colex_bytes, complete_bipartite, complete_graph, from_edges, to_graph6

SCHEMA = json.loads(
    resources.files("bookramsey").joinpath("schemas/runreport.schema.json").read_text()
)

ENTRY = "from bookramsey.cli import main; import sys; sys.exit(main(sys.argv[1:]))"


def run_cli(*args, check_schema=True):
    proc = subprocess.run(
        [sys.executable, "-c", ENTRY, *map(str, args)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    report = None
    if proc.stdout.startswith("{"):
        report = json.loads(proc.stdout)
        if check_schema:
            jsonschema.validate(report, SCHEMA)
    return proc.returncode, report, proc


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    out = {"root": root}

    (root / "k4.g6").write_text(to_graph6(complete_graph(4)) + "\n")
    out["k4"] = root / "k4.g6"

    tc2 = two_cliques(2)
    write_brc1(root / "tc2.brc1", tc2.n, [colex_bytes(tc2.blue)])
    out["tc2"] = root / "tc2.brc1"

    (root / "broken.g6").write_text("D\n")  # truncated edge data
    out["broken"] = root / "broken.g6"

    half_edges = [(i, 10 + j) for i in range(10) for j in range(10) if i <= j]
    half = from_edges(20, half_edges)
    out["half_cfg"] = root / "half.json"
    out["half_cfg"].write_text(
        json.dumps(
            {
                "graph": to_graph6(half),
                "blocks": [list(range(10)), list(range(10, 20))],
                "epsilon": "1/10",
            }
        )
    )

    comp = complete_bipartite(8, 8)
    out["complete_cfg"] = root / "complete.json"
    out["complete_cfg"].write_text(
        json.dumps(
            {
                "graph": to_graph6(comp),
                "blocks": [list(range(8)), list(range(8, 16))],
                "epsilon": "1/10",
            }
        )
    )

    # base block on 20 internal edges, two complete page blocks
    edges = []
    for i in range(10):
        edges.append(tuple(sorted((i, (i + 1) % 10))))
        edges.append(tuple(sorted((i, (i + 2) % 10))))
    edges = sorted(set(edges))
    for a in range(10):
        for b in range(10, 30):
            edges.append((a, b))
    lemma_host = from_edges(30, edges)
    out["lemma_cfg"] = root / "lemma.json"
    out["lemma_cfg"].write_text(
        json.dumps(
            {
                "graph": to_graph6(lemma_host),
                "blocks": [list(range(10)), list(range(10, 20)), list(range(20, 30))],
                "epsilon": "1/100",
                "bases": 1,
            }
        )
    )

    cliques = [
        (u, v)
        for s in (range(5), range(5, 10))
        for u in s
        for v in s
        if u < v
    ]
    out["classify_cfg"] = root / "classify.json"
    out["classify_cfg"].write_text(
        json.dumps(
            {
                "graph": to_graph6(from_edges(10, cliques)),
                "blocks": [list(range(5)), list(range(5, 10))],
                "epsilon": "1/5",
                "beta": "1/4",
                "gamma": "1/4",
            }
        )
    )

    (root / "kbb.g6").write_text(to_graph6(complete_bipartite(10, 10)) + "\n")
    out["kbb"] = root / "kbb.g6"
    out["candidate"] = root / "candidate.json"
    out["candidate"].write_text(json.dumps([list(range(10)), list(range(10, 20))]))

    return out


# ------------------------------------------------------------------ envelope


def test_report_envelope_shape(files):
    code, report, proc = run_cli("bk", files["k4"])
    assert code == 0
    assert set(report) == {
        "command",
        "parameters",
        "results",
        "seed",
        "wall_time_ms",
        "version",
    }
    assert report["command"] == "bk"
    assert report["seed"] is None  # bk takes no seed
    assert report["version"] == bookramsey.__version__
    assert isinstance(report["wall_time_ms"], int)
    assert report["parameters"]["file"].endswith("k4.g6")
    assert proc.stderr.strip()  # human summary on stderr


def test_bk_graph_and_coloring(files):
    _, report, _ = run_cli("bk", files["k4"])
    assert report["results"] == {
        "kind": "graph",
        "n": 4,
        "booksize": 2,
        "base": [0, 1],
    }
    code, report, _ = run_cli("bk", files["tc2"])
    assert code == 0
    assert report["results"]["blue"]["booksize"] == 1
    assert report["results"]["red"]["booksize"] == 0


def test_parse_error_exit_and_diagnostics(files):
    code, report, proc = run_cli("bk", files["broken"])
    assert code == 2
    assert report is None
    assert "parse error" in proc.stderr


def test_unknown_subcommand_is_usage_error():
    code, _, _ = run_cli("frobnicate")
    assert code == 2


# -------------------------------------------------------------------- verify


def test_verify_forced_exit_zero(files):
    code, report, _ = run_cli("verify", 6, 1, 1)
    assert code == 0
    assert report["results"]["verdict"] == "forced"
    assert report["results"]["colorings_examined"] == 1 << 15
    assert "counterexample_hex" not in report["results"]


def test_verify_counterexample_exit_ten(files):
    code, report, _ = run_cli("verify", 6, 1, 2)
    assert code == 10
    res = report["results"]
    assert res["verdict"] == "counterexample"
    assert res["colorings_examined"] == 3874
    c = TwoColoring.from_brc1(f"BRC1 {res['counterexample_n']}\n{res['counterexample_hex']}\n")
    assert isinstance(check_coloring(c, 1, 2), Neither)


def test_verify_smallest_counterexample_hex():
    # K_2 has one edge: its lowest coloring, all red, prints as one nibble
    code, report, _ = run_cli("verify", 2, 1, 1)
    assert code == 10
    res = report["results"]
    assert (res["counterexample_n"], res["counterexample_hex"], res["colorings_examined"]) == (2, "0", 1)


def test_verify_capacity_exit_three():
    code, report, proc = run_cli("verify", 12, 1, 4)
    assert code == 3
    assert report is None
    assert "capacity" in proc.stderr


@pytest.mark.parametrize("extra", [(), ("--force", "--prune")])
def test_verify_capacity_exit_three_at_orders_of_thousands_of_digits(extra):
    # N prints, but 2^C(N,2) and the enumeration bits have about twice its digits
    code, report, proc = run_cli("verify", "1" + "0" * 3000, 1, 2, *extra)
    assert code == 3
    assert report is None
    assert proc.stderr.startswith("capacity error: order 1000")
    assert "Traceback" not in proc.stderr


def test_verify_thread_flag_after_subcommand(files):
    base = run_cli("verify", 6, 1, 2)[1]["results"]
    for threads in (4, 8):
        again = run_cli("verify", 6, 1, 2, "--threads", threads)[1]["results"]
        assert again == base


# ------------------------------------------------------------- witness-check


def test_witness_check_certificate(files):
    code, report, _ = run_cli("witness-check", files["tc2"], 1, 2)
    assert code == 0
    assert report["results"]["verdict"] == "certificate"
    assert report["results"]["claim"] == "r(B_1,B_2) > 6"


def test_witness_check_refutation(files):
    code, report, _ = run_cli("witness-check", files["tc2"], 1, 1)
    assert code == 10
    assert report["results"]["verdict"] == "refutation"
    assert report["results"]["book_color"] == "blue"


def test_witness_check_certificate_fields(files):
    code, report, proc = run_cli("witness-check", files["tc2"], 1, 2)
    assert code == 0
    assert report["results"] == {
        "verdict": "certificate",
        "n": 6,
        "p": 1,
        "q": 2,
        "claim": "r(B_1,B_2) > 6",
    }
    assert proc.stderr == "r(B_1,B_2) > 6 certified\n"


def test_witness_check_red_refutation_names_first_base(tmp_path):
    # blue edges 01 and 02; the red bases 03 and 04 carry one page each,
    # so the first red base with two pages is 12 (pages 3 and 4)
    path = tmp_path / "red.brc1"
    write_brc1(path, 5, [colex_bytes(from_edges(5, [(0, 1), (0, 2)]))])
    code, report, proc = run_cli("witness-check", path, 2, 5)
    assert code == 10
    assert report["results"] == {
        "verdict": "refutation",
        "book_color": "red",
        "base": [1, 2],
        "pages": 2,
    }
    assert proc.stderr == "red book of size 2 at base (1, 2)\n"


def test_witness_check_takes_page_targets_past_float_range(files):
    # a book on n vertices has at most n - 2 pages, so a huge target
    # gives the verdict of any target above that
    code, report, _ = run_cli("witness-check", files["tc2"], 1, 10**400)
    assert code == 0
    assert report["results"]["verdict"] == "certificate"
    assert report["results"]["claim"] == f"r(B_1,B_{10**400}) > 6"
    code, report, _ = run_cli("witness-check", files["tc2"], 10**400, 1)
    assert code == 10
    assert report["results"]["book_color"] == "blue"
    assert check_coloring(two_cliques(2), 10**400, 10**400) == Neither()


# ----------------------------------------------------------------- construct


@pytest.mark.parametrize("q", [1, 2, 5, 40])
def test_construct_two_cliques(files, q):
    out = files["root"] / f"q{q}.brc1"
    code, report, _ = run_cli("construct", "two-cliques", "--q", q, "--out", out)
    assert code == 0
    assert report["results"]["n"] == 2 * q + 2
    assert report["results"]["bk_blue"] == q - 1
    assert report["results"]["bk_red"] == 0
    from bookramsey.colorings import read_coloring_file

    assert read_coloring_file(out) == two_cliques(q)
    # the closed forms that construct reports agree with the books of the file
    code, bk, _ = run_cli("bk", out)
    assert code == 0
    assert [bk["results"][side]["booksize"] for side in ("blue", "red")] == [q - 1, 0]


def test_construct_neither_decodes_nor_walks_books(tmp_path, capsys, monkeypatch):
    """Both kinds report from their parameters: with the decoder and the
    books walk made to raise, construct still exits 0 with the same
    payload and writes the same bytes."""
    runs = {
        "two-cliques": ["--q", "5"],
        "tripartite": ["--n", "300", "--epsilon", "1/200", "--seed", "7"],
    }

    def construct():
        out = {}
        for kind, extra in runs.items():
            path = tmp_path / f"{kind}.brc1"
            assert cli.main(["construct", kind, "--out", str(path), *extra]) == 0
            out[kind] = json.loads(capsys.readouterr().out)["results"], path.read_bytes()
        return out

    want = construct()

    def refuse(*args, **kwargs):
        raise RuntimeError("construct decoded or walked a graph")

    monkeypatch.setattr(Graph, "from_colex_bits", refuse)
    monkeypatch.setattr(Graph, "books", refuse)
    assert construct() == want


def test_construct_tripartite_reports_margins(files):
    out = files["root"] / "t300.brc1"
    code, report, _ = run_cli(
        "construct",
        "tripartite",
        "--n",
        300,
        "--epsilon",
        "1/200",
        "--out",
        out,
        "--seed",
        7,
    )
    assert code == 0
    res = report["results"]
    assert report["seed"] == 7
    assert res["margins"] == {"k1": "437/320000", "k2": "437/640000"}
    assert res["expected_book_sizes"] == {
        "red_intra": "448289/3200",
        "blue_cross": "187489/6400",
        "red_cross": "716017/6400",
    }
    assert res["delta"] == "33/800"
    first = out.read_bytes()
    run_cli(
        "construct", "tripartite", "--n", 300, "--epsilon", "1/200",
        "--out", out, "--seed", 7,
    )
    assert out.read_bytes() == first  # same seed, same file


def test_construct_tripartite_rejects_bad_order(files):
    out = files["root"] / "bad.brc1"
    code, _, proc = run_cli(
        "construct", "tripartite", "--n", 301, "--epsilon", "1/200", "--out", out
    )
    assert code == 2
    assert "error" in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["two-cliques", "--q", GRAPH6_ORDER_CAP // 2],  # order cap + 2
        ["tripartite", "--n", GRAPH6_ORDER_CAP + 1, "--epsilon", "1/200"],
    ],
)
def test_construct_refuses_orders_the_file_readers_refuse(tmp_path, argv):
    out = tmp_path / "big.brc1"
    code, report, proc = run_cli("construct", *argv, "--out", out)
    assert code == 3
    assert report is None
    assert proc.stderr.startswith("capacity error: order ")
    assert f"above the BRC1 cap of {GRAPH6_ORDER_CAP} vertices" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_construct_two_cliques_requires_q(files):
    code, report, proc = run_cli("construct", "two-cliques", "--out", files["root"] / "noq.brc1")
    assert code == 2
    assert report is None
    assert "construct two-cliques requires --q" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_construct_tripartite_requires_epsilon(files):
    out = files["root"] / "noeps.brc1"
    code, report, proc = run_cli("construct", "tripartite", "--n", 30, "--out", out)
    assert code == 2
    assert report is None
    assert "construct tripartite requires --epsilon" in proc.stderr
    assert "Traceback" not in proc.stderr
    code, _, proc = run_cli("construct", "tripartite", "--out", out)
    assert code == 2
    assert "requires --n and --epsilon" in proc.stderr
    assert not out.exists()


# --------------------------------------------------------------------- stats


def test_stats_json_and_csv(files):
    out = files["root"] / "t30.brc1"
    run_cli(
        "construct", "tripartite", "--n", 30, "--epsilon", "1/200",
        "--out", out, "--seed", 1,
    )
    code, report, _ = run_cli("stats", out)
    assert code == 0
    res = report["results"]
    assert res["n"] == 30
    assert res["part_sizes"] == [10, 10, 10]
    assert set(res["red_intra"]) == {"edges", "mean_codegree"}
    code, report, proc = run_cli("stats", out, "--format", "csv")
    assert code == 0
    assert report is None  # csv, not a JSON envelope
    lines = proc.stdout.splitlines()
    assert lines[0] == "edge_class,edges,mean_codegree,mean_pages_third_part,mean_pages_own_parts"
    assert lines[1].startswith("red_intra,")
    # the whole body: empty cells for absent means, num/den means, bk_* rows
    assert proc.stdout == (
        "edge_class,edges,mean_codegree,mean_pages_third_part,mean_pages_own_parts\n"
        "red_intra,135,1756/135,,\n"
        "blue_cross,150,64/25,,\n"
        "red_cross,150,1703/150,117/50,676/75\n"
        "bk_red,,18,,\n"
        "bk_blue,,6,,\n"
    )


def test_csv_format_rejected_for_non_tabular(files):
    code, _, proc = run_cli("verify", 5, 1, 1, "--format", "csv")
    assert code == 2
    assert "csv" in proc.stderr


# ---------------------------------------------------------------- uniformity


def test_uniformity_witness_found(files):
    code, report, _ = run_cli("uniformity", files["half_cfg"])
    assert code == 10
    res = report["results"]
    assert res["method"] == "oracle"
    assert res["uniform"] is False
    assert res["density"] == "11/20"
    assert res["witness"] == [[0], [10]]


def test_uniformity_uniform_pair(files):
    code, report, _ = run_cli("uniformity", files["complete_cfg"])
    assert code == 0
    assert report["results"]["uniform"] is True
    assert report["results"]["witness"] is None


def test_uniformity_sampled_mode(files):
    code, report, _ = run_cli(
        "uniformity", files["half_cfg"], "--sampled", "--samples", 500, "--seed", 0
    )
    assert code == 10
    res = report["results"]
    assert res["method"] == "search"
    assert res["uniform"] is None  # search cannot certify
    assert res["witness"] is not None


# --------------------------------------------------------------- lemma-check


def test_lemma_check_complete_pages(files):
    code, report, _ = run_cli("lemma-check", files["lemma_cfg"])
    assert code == 0
    res = report["results"]
    assert res["t"] == 10 and res["k"] == 2 and res["bases"] == 1
    assert res["all_pairs_uniform"] is True  # complete pages certify
    assert res["violations"] == 0
    by_name = {row["check"]: row for row in res["checks"] if "page" not in row}
    assert by_name["triangle_shared"]["bound"] == "352"
    assert by_name["triangle_shared"]["satisfied"] is True
    assert by_name["book_shared"]["satisfied"] is True
    assert res["positive_bounds"] >= 2


def test_lemma_check_csv(files):
    code, _, proc = run_cli("lemma-check", files["lemma_cfg"], "--format", "csv")
    assert code == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "check,page,bound,actual,satisfied"
    assert any(line.startswith("triangle_shared,") for line in lines)


@pytest.fixture(scope="module")
def cross_lemma_cfg(tmp_path_factory):
    """Two base blocks of 5 (A1 listed in decreasing order) and two pages."""
    A1, A2, P1, P2 = range(5), range(5, 10), range(10, 15), range(15, 20)
    edges = {(u, v) for u in A1 for v in A2 if (u + v) % 3}
    edges |= {(u, v) for u in A1 for v in P1}
    edges |= {(u, v) for u in A1 for v in P2 if (u + v) % 2}
    edges |= {(u, v) for u in A2 for v in P1 if (u * v) % 4 != 1}
    edges |= {(u, v) for u in A2 for v in P2}
    path = tmp_path_factory.mktemp("lemma") / "cross.json"
    path.write_text(
        json.dumps(
            {
                "graph": to_graph6(from_edges(20, sorted(edges))),
                "blocks": [list(A1)[::-1], list(A2), list(P1), list(P2)],
                "epsilon": "1/20",
                "bases": 2,
            }
        )
    )
    return path


def test_lemma_check_two_bases(cross_lemma_cfg):
    code, report, _ = run_cli("lemma-check", cross_lemma_cfg)
    assert code == 0
    res = report["results"]
    assert res["t"] == 5 and res["k"] == 2 and res["bases"] == 2
    assert [row["uniform"] for row in res["pairs_uniform"]] == [True, False, False, True]
    assert res["all_pairs_uniform"] is False
    assert res["checks"] == [
        {"check": "bad_pairs_cross", "page": 0, "bound": "5/2", "actual": 0, "satisfied": True},
        {"check": "bad_pairs_cross", "page": 1, "bound": "5/2", "actual": 10, "satisfied": False},
        {"check": "triangle_cross", "bound": "157/2", "actual": 112, "satisfied": True},
        {"check": "book_cross", "bound": "157/32", "actual": 8, "satisfied": True},
    ]
    # the first largest book in A1's given order, not the least base
    assert res["book_base"] == [4, 6]
    # uncertified pairs: the failed bad-pair check is no violation
    assert res["violations"] == 0
    assert res["bounds_checked"] == 4 and res["positive_bounds"] == 2


def test_lemma_check_two_bases_csv(cross_lemma_cfg):
    code, _, proc = run_cli("lemma-check", cross_lemma_cfg, "--format", "csv")
    assert code == 0
    assert proc.stdout == (
        "check,page,bound,actual,satisfied\n"
        "bad_pairs_cross,0,5/2,0,True\n"
        "bad_pairs_cross,1,5/2,10,False\n"
        "triangle_cross,,157/2,112,True\n"
        "book_cross,,157/32,8,True\n"
    )


def test_lemma_check_bad_pair_hypothesis_fails(tmp_path):
    # page block 1 has no edges to the base, so eps < density fails there
    A, Q1, Q2 = range(6), range(6, 12), range(12, 18)
    edges = [(u, v) for u in A for v in A if u < v and (u + v) % 2]
    edges += [(u, v) for u in A for v in Q1]
    cfg = tmp_path / "raises.json"
    cfg.write_text(
        json.dumps(
            {
                "graph": to_graph6(from_edges(18, edges)),
                "blocks": [list(A), list(Q1), list(Q2)],
                "epsilon": "1/10",
                "bases": 1,
            }
        )
    )
    code, report, _ = run_cli("lemma-check", cfg)
    assert code == 0
    res = report["results"]
    assert res["all_pairs_uniform"] is True
    assert res["checks"] == [
        {"check": "bad_pairs_shared", "page": 0, "bound": "36/5", "actual": 0, "satisfied": True},
        {"check": "bad_pairs_shared", "page": 1, "bound": "36/5", "actual": None, "satisfied": None},
        {"check": "triangle_shared", "bound": "-54/5", "actual": 54, "satisfied": True},
        {"check": "book_shared", "bound": "-6/5", "actual": 6, "satisfied": True},
    ]
    assert res["book_base"] == [0, 1]
    assert res["violations"] == 0 and res["positive_bounds"] == 0
    code, _, proc = run_cli("lemma-check", cfg, "--format", "csv")
    assert code == 0
    assert proc.stdout.splitlines()[2] == "bad_pairs_shared,1,36/5,,"


# ------------------------------------------------------------------ classify


def test_classify_two_blue_cliques(files):
    code, report, _ = run_cli("classify", files["classify_cfg"])
    assert code == 0
    res = report["results"]
    assert res["counts"] == {"irr": 0, "blue": 0, "mid": 0, "red": 1}
    assert res["labels"][0]["red_density"] == "1"
    assert res["labels"][0]["method"] == "oracle"


# ---------------------------------------------------------------- trichotomy


def test_trichotomy_with_and_without_candidate(files, tmp_path):
    code, report, _ = run_cli("trichotomy", files["kbb"], "--xi", "1/10")
    assert code == 0
    res = report["results"]
    assert res["iii"] is True
    assert res["G0_order"] == 20
    code, report, _ = run_cli(
        "trichotomy", files["kbb"], "--xi", "1/10", "--candidate", files["candidate"]
    )
    assert report["results"]["G0_source"] == "candidate"
    assert report["results"]["iii"] is True
    # an empty G0 has minimum degree 0 and refutes branch (iii)
    tc5 = two_cliques(5)
    write_brc1(tmp_path / "tc5.brc1", tc5.n, [colex_bytes(tc5.blue)])
    empty = _text_file(tmp_path, "[[], []]")
    code, report, _ = run_cli("trichotomy", tmp_path / "tc5.brc1", "--xi", "1/10", "--candidate", empty)
    assert code == 0
    res = report["results"]
    assert (res["G0_order"], res["delta_G0"], res["iii"]) == (0, 0, False)


def test_trichotomy_reads_brc1(files, tmp_path):
    # the coloring whose blue graph is the graph6 file's graph
    path = tmp_path / "kbb.brc1"
    write_brc1(path, 20, [colex_bytes(complete_bipartite(10, 10))])
    code, report, _ = run_cli("trichotomy", path, "--xi", "1/10", "--seed", 5)
    assert code == 0
    _, want, _ = run_cli("trichotomy", files["kbb"], "--xi", "1/10", "--seed", 5)
    assert report["results"] == want["results"]
    assert report["results"]["iii"] is True


@pytest.mark.parametrize("kind", ["brc1", "graph6"])
def test_trichotomy_extractor_runs_without_a_graph(kind, files, tmp_path, monkeypatch, capsys):
    # the command reads the books and the rows off its Graph and drops it,
    # so the packed words are gone while the extractor runs on the rows
    path = files["kbb"]
    if kind == "brc1":
        path = tmp_path / "kbb.brc1"
        write_brc1(path, 20, [colex_bytes(complete_bipartite(10, 10))])
    extract, counts = stability.bipartite_extract, []

    def counted(*args, **kwargs):
        counts.append(sum(isinstance(o, Graph) and id(o) not in before for o in gc.get_objects()))
        return extract(*args, **kwargs)

    held = [o for o in gc.get_objects() if isinstance(o, Graph)]  # alive, so no id is reused
    before = {id(o) for o in held}
    monkeypatch.setattr(stability, "bipartite_extract", counted)
    assert cli.main(["trichotomy", str(path), "--xi", "1/5"]) == 0
    capsys.readouterr()
    assert counts == [0]


def test_trichotomy_rejects_bad_xi(files):
    code, _, _ = run_cli("trichotomy", files["kbb"], "--xi", "3/2")
    assert code == 2


def test_trichotomy_refuses_unprintable_xi_before_books_and_extraction(files, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("O(n^2) work ran before xi was refused")

    monkeypatch.setattr(Graph, "books", refuse)
    monkeypatch.setattr(stability, "bipartite_extract", refuse)
    assert cli.main(["trichotomy", str(files["kbb"]), "--xi", "1e-1000"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "for integer string conversion" in err


def _refuse_scans(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the scan ran before epsilon was refused")

    monkeypatch.setattr(regularity, "nonuniformity_search", refuse)
    # the search's deviation test, whichever name the search was called by
    monkeypatch.setattr(regularity, "deviation_slopes", refuse)
    # the oracle and the search read the pair's rows off the line, and the oracle scans them itself
    monkeypatch.setattr(graph6, "graph6_pair_rows", refuse)
    monkeypatch.setattr(oracle, "first_witness", refuse)


@pytest.mark.parametrize("sampled", [(), ("--sampled",)])
def test_uniformity_refuses_unprintable_epsilon_before_the_scan(files, tmp_path, monkeypatch, capsys, sampled):
    _refuse_scans(monkeypatch)
    assert cli.main(["uniformity", str(_config(files, tmp_path, epsilon="1e-4300")), *sampled]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "for integer string conversion" in err


def _complete_lemma_cfg(tmp_path, t, epsilon):
    blocks = [list(range(t)), list(range(t, 2 * t))]
    cfg = {"graph": to_graph6(complete_graph(2 * t)), "blocks": blocks, "bases": 1, "epsilon": epsilon}
    return _text_file(tmp_path, json.dumps(cfg))


def test_lemma_check_refuses_unprintable_epsilon_before_the_oracle(tmp_path, monkeypatch, capsys):
    _refuse_scans(monkeypatch)
    assert cli.main(["lemma-check", str(_complete_lemma_cfg(tmp_path, 5, "1e-4300"))]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "for integer string conversion" in err


def test_lemma_check_csv_prints_rows_of_an_unprintable_epsilon(tmp_path):
    # the CSV rows hold 2 eps t^2 = 1/(2*10^4298), which prints, and not eps
    code, _, proc = run_cli("lemma-check", _complete_lemma_cfg(tmp_path, 5, "1e-4300"), "--format", "csv")
    assert code == 0
    assert proc.stdout.splitlines()[1].startswith("bad_pairs_shared,0,1/2" + "0" * 4298 + ",")


def test_jsonable_renders_numpy_integers_as_int():
    value = {
        "a": np.int64(3),
        7: [np.uint8(255), (np.intp(-4), True)],
        "s": {np.int64(2), np.int64(1)},
        "flag": False,
        "f": Fraction(1, 3),
    }
    out = cli.jsonable(value)
    assert out == {"a": 3, "7": [255, [-4, True]], "s": [1, 2], "flag": False, "f": "1/3"}
    # json.dumps refuses numpy integers and tells a bool from the int 1
    assert json.dumps(out, sort_keys=True) == (
        '{"7": [255, [-4, true]], "a": 3, "f": "1/3", "flag": false, "s": [1, 2]}'
    )


# ------------------------------------------------------------ hostile input


def _config(files, tmp_path, drop=(), **fields):
    """The half-graph uniformity config with fields replaced or left out."""
    cfg = json.loads(files["half_cfg"].read_text())
    for key in drop:
        del cfg[key]
    cfg.update(fields)
    return _text_file(tmp_path, json.dumps(cfg))


def _text_file(tmp_path, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    return path


# inputs the CLI must reject with exit 2: (argv builder, a fragment of the
# expected stderr)
HOSTILE = {
    "epsilon-zero-denominator": (
        lambda f, t: ["construct", "tripartite", "--n", 9, "--epsilon", "1/0", "--out", t / "x.brc1"],
        "zero denominator in '1/0'",
    ),
    "delta-zero-denominator": (
        lambda f, t: ["construct", "tripartite", "--n", 9, "--epsilon", "1/10", "--delta", "1/0", "--out", t / "x.brc1"],
        "zero denominator in '1/0'",
    ),
    "xi-zero-denominator": (
        lambda f, t: ["trichotomy", f["kbb"], "--xi", "1/0"],
        "zero denominator in '1/0'",
    ),
    "xi-huge-exponent": (
        lambda f, t: ["trichotomy", f["kbb"], "--xi", "1e999999999"],
        "decimal exponent of '1e999999999' is beyond",
    ),
    "config-epsilon-list": (
        lambda f, t: ["uniformity", _config(f, t, epsilon=[1])],
        "cannot interpret list as a rational",
    ),
    "config-epsilon-bool": (
        lambda f, t: ["uniformity", _config(f, t, epsilon=True)],
        "bool is not a number here",
    ),
    "config-without-epsilon": (
        lambda f, t: ["uniformity", _config(f, t, drop=["epsilon"])],
        "config needs 'epsilon'",
    ),
    "config-null-vertex": (
        lambda f, t: ["uniformity", _config(f, t, blocks=[[0, None], [10, 11]])],
        "'blocks' must be a list of vertex lists",
    ),
    "config-huge-vertex": (
        lambda f, t: ["uniformity", _config(f, t, blocks=[[0, 10**18], [10, 11]])],
        f"vertex {10**18} outside the 20-vertex graph",
    ),
    "lemma-repeated-vertex": (
        lambda f, t: ["lemma-check", _config(f, t, blocks=[[0, 1, 0], [10, 11, 12]], bases=1)],
        "repeated vertex in a side",
    ),
    "lemma-repeated-vertex-above-oracle-cap": (
        lambda f, t: [
            "lemma-check",
            _config(
                f, t, graph=to_graph6(complete_graph(34)), blocks=[[*range(16), 3], list(range(17, 34))], bases=1
            ),
        ],
        "repeated vertex in a side",
    ),
    "lemma-epsilon-zero": (
        lambda f, t: ["lemma-check", _config(f, t, blocks=[[0, 1, 2], [10, 11, 12]], bases=1, epsilon="0")],
        "eps must be positive",
    ),
    "lemma-epsilon-zero-above-oracle-cap": (
        lambda f, t: [
            "lemma-check",
            _config(
                f, t, graph=to_graph6(complete_graph(34)), blocks=[list(range(17)), list(range(17, 34))], bases=1,
                epsilon="0",
            ),
        ],
        "eps must be positive",
    ),
    # one block makes no pair: eps is refused before any pair is labelled
    "classify-one-block-epsilon-zero": (
        lambda f, t: ["classify", _config(f, t, blocks=[[0, 1, 2]], epsilon="0", beta="1/4", gamma="1/4")],
        "eps must be positive",
    ),
    "classify-one-block-epsilon-negative": (
        lambda f, t: ["classify", _config(f, t, blocks=[[0, 1, 2]], epsilon="-1", beta="1/4", gamma="1/4")],
        "eps must be positive",
    ),
    "construct-negative-order": (
        lambda f, t: ["construct", "tripartite", "--n", -3, "--epsilon", "1/200", "--out", t / "x.brc1"],
        "order -3 is negative",
    ),
    "config-null-bases": (
        lambda f, t: ["lemma-check", _config(f, t, bases=None)],
        "'bases' must be 1 or 2",
    ),
    "config-deep-nesting": (
        lambda f, t: ["lemma-check", _text_file(t, "[" * 100000)],
        "bad JSON config: nested too deeply",
    ),
    "parts-not-a-list": (
        lambda f, t: ["stats", f["tc2"], "--parts", _text_file(t, "5")],
        "parts file must hold exactly three lists",
    ),
    "stats-empty-coloring": (
        lambda f, t: ["stats", _text_file(t, "BRC1 0\n\n")],
        "statistics need at least one vertex",
    ),
    "candidate-null-vertex": (
        lambda f, t: ["trichotomy", f["kbb"], "--xi", "1/10", "--candidate", _text_file(t, "[[0, null], [10]]")],
        "candidate file must hold [U1, U2]",
    ),
    "candidate-float-vertex": (
        lambda f, t: ["trichotomy", f["kbb"], "--xi", "1/10", "--candidate", _text_file(t, "[[0, 3.9], [1, 4]]")],
        "candidate file must hold [U1, U2]",
    ),
    "candidate-string-vertex": (
        lambda f, t: ["trichotomy", f["kbb"], "--xi", "1/10", "--candidate", _text_file(t, '[["3"], [10]]')],
        "candidate file must hold [U1, U2]",
    ),
    "candidate-repeated-vertex": (
        lambda f, t: [
            "trichotomy", f["kbb"], "--xi", "3/20",
            "--candidate", _text_file(t, json.dumps([[0, 1, 2, 3, 4] * 2, list(range(10, 20))])),
        ],
        "repeated vertex in U1 and U2",
    ),
    "candidate-vertex-outside-graph": (
        lambda f, t: ["trichotomy", f["kbb"], "--xi", "1/10", "--candidate", _text_file(t, "[[0, 100], [10]]")],
        "vertex 100 outside the 20-vertex graph",
    ),
    # results whose rationals have more digits than str(int) allows
    "xi-tiny": (
        lambda f, t: ["trichotomy", f["kbb"], "--xi", "1e-1000"],
        "for integer string conversion",
    ),
    "uniformity-epsilon-tiny": (
        lambda f, t: ["uniformity", _config(f, t, epsilon="1e-4300")],
        "for integer string conversion",
    ),
    "lemma-csv-bound-tiny": (
        lambda f, t: [
            "lemma-check",
            _config(
                f, t, graph=to_graph6(complete_graph(12)), blocks=[list(range(6)), list(range(6, 12))], bases=1,
                epsilon="1e-4300",
            ),
            "--format",
            "csv",
        ],
        "for integer string conversion",
    ),
    "construct-epsilon-tiny": (
        lambda f, t: ["construct", "tripartite", "--n", 30, "--epsilon", "1e-4300", "--out", t / "x.brc1"],
        "for integer string conversion",
    ),
    "threads-zero": (
        lambda f, t: ["verify", 6, 1, 2, "--threads", 0],
        "--threads must be at least 1",
    ),
    "threads-negative": (
        lambda f, t: ["--threads", -3, "verify", 6, 1, 2],
        "--threads must be at least 1",
    ),
    "samples-negative": (
        lambda f, t: ["uniformity", f["half_cfg"], "--sampled", "--samples", -5],
        "--samples must be at least 1",
    ),
    "samples-zero": (
        lambda f, t: ["classify", f["classify_cfg"], "--samples", 0],
        "--samples must be at least 1",
    ),
}


@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_hostile_input_exits_two_without_traceback(files, tmp_path, case):
    argv, message = HOSTILE[case]
    code, report, proc = run_cli(*argv(files, tmp_path))
    assert code == 2
    assert report is None
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    # nor is an output file left behind
    assert not (tmp_path / "x.brc1").exists()


def test_as_fraction_raises_value_error():
    assert as_fraction(" 1/4 ") == Fraction(1, 4)
    assert as_fraction(0.005) == Fraction(1, 200)
    for bad in (True, None, [1], {"n": 1}, "1/0", "abc", float("inf")):
        with pytest.raises(ValueError):
            as_fraction(bad)


def test_as_fraction_caps_decimal_exponents():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    assert as_fraction("2.5e-3") == Fraction(1, 400)
    assert as_fraction("1E1_0") == 10**10
    assert as_fraction(f"1e{limit}") == 10**limit
    assert as_fraction(f"1e-{limit}") == Fraction(1, 10**limit)
    # each of these would expand a power of ten with a billion digits
    for bad in ("1e999999999", "1e-999999999", " 3.5E+1_000_000_000 ", "1e" + "9" * 5000, f"1e{limit + 1}"):
        with pytest.raises(ValueError, match="decimal exponent"):
            as_fraction(bad)


def test_threads_are_echoed_but_start_no_thread(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the scan started a thread")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert cli.main(["verify", "8", "1", "2", "--prune", "--threads", "100000"]) == 0
    many = json.loads(capsys.readouterr().out)
    assert cli.main(["verify", "8", "1", "2", "--prune", "--threads", "1"]) == 0
    one = json.loads(capsys.readouterr().out)
    assert many["results"] == one["results"]
    assert many["parameters"]["threads"] == 100000


# --------------------------------------------------------------- determinism


def test_seeded_reports_reproduce_byte_identical_results(files):
    invocations = [
        ("construct", "tripartite", "--n", 30, "--epsilon", "1/200",
         "--out", files["root"] / "det.brc1", "--seed", 9),
        ("uniformity", files["half_cfg"], "--sampled", "--seed", 5),
        ("classify", files["classify_cfg"], "--seed", 5),
        ("trichotomy", files["kbb"], "--xi", "1/10", "--seed", 5),
    ]
    for argv in invocations:
        a = run_cli(*argv)[1]["results"]
        b = run_cli(*argv)[1]["results"]
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


# ------------------------------------------------------------- process entry


@pytest.mark.parametrize(
    "argv, code",
    [
        (["verify", 7, 1, 2], 0),
        (["verify", 6, 1, 2], 10),
        (["verify", 6, 1, 2, "--threads", 0], 2),
        (["no-such-command"], 2),
        (["verify", 9, 1, 2], 3),
        (["construct", "two-cliques", "--q", 3, "--out", "{out}"], 0),
    ],
)
def test_module_entry_matches_main(tmp_path, argv, code):
    """`python -m bookramsey.cli`, which freezes the collector before it
    exits, prints and writes what main() does."""
    runs = []
    for label, head in (("module", ["-m", "bookramsey.cli"]), ("main", ["-c", ENTRY])):
        out = tmp_path / f"{label}.brc1"
        proc = subprocess.run(
            [sys.executable, *head, *(str(a).format(out=out) for a in argv)],
            capture_output=True, text=True, timeout=300,
        )
        stdout = re.sub(r'"wall_time_ms": \d+', '"wall_time_ms": 0', proc.stdout)
        stdout = stdout.replace(str(out), "OUT")
        runs.append((proc.returncode, stdout, proc.stderr.replace(str(out), "OUT"),
                     out.read_bytes() if out.exists() else None))
    assert runs[0] == runs[1]
    assert runs[0][0] == code
    assert (runs[0][3] is not None) == (argv[0] == "construct")


# the process entry run in place, then its exit code, OpenBLAS's thread
# setting and the threads the process holds after the command
ENTRY_THREADS = (
    "import os, sys\n"
    "from bookramsey import cli\n"
    "try:\n"
    "    cli.entry()\n"
    "except SystemExit as stop:\n"
    "    print(stop.code, os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task')))\n"
)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc to count a process's threads")
@pytest.mark.parametrize("setting", [None, "2"])
def test_entry_pins_openblas_to_one_thread_unless_set(tmp_path, setting):
    """The process entry sets OPENBLAS_NUM_THREADS to 1 before numpy
    loads, so a bk process runs on one thread; a setting of the user's
    own is left as it is."""
    path = tmp_path / "k6.g6"
    path.write_text(to_graph6(complete_graph(6)) + "\n")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if setting is not None:
        env["OPENBLAS_NUM_THREADS"] = setting
    proc = subprocess.run([sys.executable, "-c", ENTRY_THREADS, "bk", str(path)],
                          capture_output=True, text=True, timeout=300, env=env)
    code, value, threads = proc.stdout.splitlines()[-1].split()
    assert json.loads(proc.stdout.splitlines()[0])["results"]["booksize"] == 4
    assert (code, value) == ("0", setting or "1")
    assert int(threads) == min(int(value), len(os.sched_getaffinity(0)))
