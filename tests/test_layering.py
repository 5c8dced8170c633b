"""Layering guards: the packed adjacency format stays inside graphs.py,
graphs.py multiplies codegrees in one place, the command line starts
without loading the numeric modules, ``verify``, ``uniformity`` (the
oracle and the sampled search), ``lemma-check`` and ``classify`` at
every block size run without them, no random draw loads numpy's random
module (the package's one generator is ``rng``), only colex.py writes
or reads the hex of a BRC1 payload, one packer in colorings.py makes
BRC1 bytes (the only ``np.packbits`` in the BRC1 bit order, first bit
highest; graphs.py packs its words little-endian), and every public
function, class and method of the package is used somewhere else in it,
bar a short list kept each for a stated reason.

Every other module of the package asks ``Graph`` for counts and small
matrices, and none imports a private helper of ``graphs``.  The int rows
are read in one place: ``handlers.cmd_trichotomy`` derives them once, after
its ``books`` walk, and drops the ``Graph`` before the stability layer
runs on them.  That layer imports neither numpy nor ``graphs`` and reads
no ``books``, ``rows`` or ``words`` attribute.  Inside ``graphs``, the
one tile walk ``_codegree_tiles`` holds the only matrix product, so
``books`` and ``part_codegrees`` cannot grow a second walk.
"""

import ast
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import bookramsey
from bookramsey.oracle import ORACLE_SIDE_CAP

from helpers import complete_bipartite, empty_graph, from_edges, to_graph6

PACKAGE = Path(bookramsey.__file__).parent


def layering_violations(source: str) -> list[str]:
    """Reads of a ``.rows`` attribute, each named by its enclosing
    function, and underscore imports from graphs."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Attribute) and child.attr == "rows":
                found.append(f"line {child.lineno}: reads .rows in {owner}")
            elif isinstance(child, ast.ImportFrom) and (child.module or "").split(".")[-1] == "graphs":
                found.extend(f"line {child.lineno}: imports {a.name}" for a in child.names if a.name.startswith("_"))
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def test_no_module_but_graphs_knows_the_adjacency_format():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "graphs.py")
    assert {p.name for p in modules} >= {"colorings.py", "ramsey.py", "regularity.py", "stability.py", "cli.py", "handlers.py"}
    bad = {p.name: layering_violations(p.read_text(encoding="utf-8")) for p in modules}
    bad = {name: [v.split(": ")[1] for v in found] for name, found in bad.items() if found}
    # the one bridge to the rows layer: the trichotomy command, after its books walk
    assert bad == {"handlers.py": ["reads .rows in cmd_trichotomy"]}


def graph_attribute_reads(source: str) -> list[str]:
    """Reads of a ``books``, ``rows`` or ``words`` attribute, the parts
    of the ``Graph`` API that a caller of the rows layer would use, in
    source order."""
    reads = [
        node for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in ("books", "rows", "words")
    ]
    return [f"line {node.lineno}: .{node.attr}" for node in sorted(reads, key=lambda node: (node.lineno, node.col_offset))]


def test_stability_reads_no_graph_attribute():
    assert graph_attribute_reads((PACKAGE / "stability.py").read_text(encoding="utf-8")) == []
    source = "def f(g, c):\n    return g.books(), g.rows, c.blue.words, rows\n"
    assert graph_attribute_reads(source) == ["line 2: .books", "line 2: .rows", "line 2: .words"]


def test_guard_flags_row_reads_and_private_imports():
    source = (
        "from .graphs import Graph, _unpack\n"
        "from bookramsey.graphs import _pack\n"
        "from .colorings import _private\n"
        "def f(g):\n"
        "    return g.rows[0] & g.host.rows[1]\n"
        "x = g.rows\n"
    )
    assert layering_violations(source) == [
        "line 1: imports _unpack",
        "line 2: imports _pack",
        "line 5: reads .rows in f",
        "line 5: reads .rows in f",
        "line 6: reads .rows in <module>",
    ]


def matmul_sites(source: str) -> list[str]:
    """Calls of ``np.matmul`` and uses of ``@``, each named by its
    enclosing function."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute) and child.func.attr == "matmul":
                found.append(f"line {child.lineno}: np.matmul in {owner}")
            elif isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.MatMult):
                found.append(f"line {child.lineno}: @ in {owner}")
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def test_graphs_has_one_codegree_product():
    sites = matmul_sites((PACKAGE / "graphs.py").read_text(encoding="utf-8"))
    assert [site.split(": ")[1] for site in sites] == ["np.matmul in _codegree_tiles"]


def test_guard_names_every_matmul_site():
    source = (
        "import numpy as np\n"
        "def _codegree_tiles(a):\n"
        "    return np.matmul(a, a.T)\n"
        "class Graph:\n"
        "    def books(self, a):\n"
        "        def key(b):\n"
        "            return np.matmul(b, b)\n"
        "        return key(a)\n"
        "np.matmul(1, 2)\n"
        "x = y @ z\n"
    )
    assert matmul_sites(source) == [
        "line 3: np.matmul in _codegree_tiles",
        "line 7: np.matmul in key",
        "line 9: np.matmul in <module>",
        "line 10: @ in <module>",
    ]


# one argv per subcommand; parsing reads no file
PARSED_ARGVS = [
    ["bk", "g.g6"],
    ["verify", "7", "1", "2"],
    ["witness-check", "c.brc1", "1", "2"],
    ["construct", "two-cliques", "--q", "3", "--out", "c.brc1"],
    ["stats", "c.brc1", "--format", "csv"],
    ["uniformity", "cfg.json", "--sampled"],
    ["lemma-check", "cfg.json"],
    ["classify", "cfg.json"],
    ["trichotomy", "g.g6", "--xi", "1/5"],
]
LIBRARY_MODULES = ("graphs", "colorings", "ramsey", "regularity", "stability", "rng")


def test_cli_start_up_loads_no_numeric_module():
    script = (
        "import json, sys\n"
        "from bookramsey import cli\n"
        "commands = [cli.build_parser().parse_args(argv).command for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps({'commands': commands, 'modules': sorted(sys.modules)}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(PARSED_ARGVS)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    seen = json.loads(proc.stdout)
    assert seen["commands"] == [argv[0] for argv in PARSED_ARGVS]
    loaded = set(seen["modules"])
    assert "numpy" not in loaded
    assert sorted(loaded & {f"bookramsey.{m}" for m in LIBRARY_MODULES}) == []
    assert sorted(loaded & set(VERIFY_UNUSED)) == []


# (argv, exit code): one forced verdict and one counterexample
VERIFY_RUNS = [(["verify", "6", "1", "1"], 0), (["verify", "7", "2", "2", "--prune"], 10)]
NUMERIC_MODULES = ("numpy", "bookramsey.graphs", "bookramsey.colorings", "bookramsey.rng")
# what neither parsing nor verify needs: the rationals and the graph6
# reader, and the module of the other eight handlers
VERIFY_UNUSED = ("fractions", "decimal", "bookramsey.graph6", "bookramsey.numbers", "bookramsey.handlers")


def run_in_one_process(argvs: list[list[str]]) -> tuple[list[int], set[str], list[str]]:
    """Exit codes of ``cli.main`` on each argv, run in one fresh process,
    the modules that process loaded, and the stdout of each argv."""
    script = (
        "import contextlib, io, json, sys\n"
        "from bookramsey import cli\n"
        "codes, outs = [], []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):\n"
        "        codes.append(cli.main(argv))\n"
        "    outs.append(out.getvalue())\n"
        "print(json.dumps({'codes': codes, 'modules': sorted(sys.modules), 'outs': outs}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argvs)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    seen = json.loads(proc.stdout)
    return seen["codes"], set(seen["modules"]), seen["outs"]


def test_verify_loads_no_numeric_module():
    codes, loaded, _ = run_in_one_process([argv for argv, _ in VERIFY_RUNS])
    assert codes == [code for _, code in VERIFY_RUNS]
    assert "bookramsey.ramsey" in loaded
    assert sorted(loaded & set(NUMERIC_MODULES)) == []
    assert sorted(loaded & set(VERIFY_UNUSED)) == []


def test_cli_module_runs_once_under_dash_m(tmp_path):
    # under ``python -m`` cli.py runs as __main__; a handler that imported
    # ``bookramsey.cli`` would run it a second time, as its own module
    (tmp_path / "g.g6").write_text(to_graph6(complete_bipartite(3, 3)) + "\n")
    cfg = {"graph": to_graph6(empty_graph(4)), "blocks": [[0, 1], [2, 3]], "epsilon": "1/2"}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    for argv in (["uniformity", str(tmp_path / "cfg.json")], ["bk", str(tmp_path / "g.g6")]):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "bookramsey.cli", *argv],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        imported = [line.split("|")[-1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")]
        assert "bookramsey.handlers" in imported
        assert "bookramsey.cli" not in imported


def test_uniformity_oracle_loads_no_numeric_module(tmp_path):
    # the oracle reads its pair's bits off the graph6 line and scans them
    # bit-sliced: no numpy, no Graph, no pair view
    t = ORACLE_SIDE_CAP
    half = from_edges(2 * t, [(i, t + j) for i in range(t) for j in range(t) if i <= j])
    blocks = [list(range(t)), list(range(t, 2 * t))]
    for name, g in (("uniform.json", empty_graph(2 * t)), ("half.json", half)):
        (tmp_path / name).write_text(json.dumps({"graph": to_graph6(g), "blocks": blocks, "epsilon": "1/10"}))
    codes, loaded, _ = run_in_one_process([["uniformity", str(tmp_path / name)] for name in ("uniform.json", "half.json")])
    assert codes == [0, 10]
    assert "bookramsey.oracle" in loaded
    assert sorted(loaded & {*NUMERIC_MODULES, "bookramsey.regularity"}) == []


def test_lemma_check_and_classify_within_the_cap_load_no_numeric_module(tmp_path):
    # blocks within the oracle cap: the counting bounds and pair labels run
    # on bits read off the graph6 line, in a process without numpy
    t = ORACLE_SIDE_CAP
    host = from_edges(3 * t, [(i, j) for i in range(3 * t) for j in range(i + 1, 3 * t) if (i * j + i + j) % 3])
    blocks = [list(range(i * t, (i + 1) * t)) for i in range(3)]
    configs = {
        "one_base.json": {"graph": to_graph6(host), "blocks": blocks, "epsilon": "1/20", "bases": 1},
        "two_bases.json": {"graph": to_graph6(host), "blocks": blocks, "epsilon": "1/20", "bases": 2},
        "zero_eps.json": {"graph": to_graph6(host), "blocks": blocks, "epsilon": "0", "bases": 1},
        "classify.json": {"graph": to_graph6(host), "blocks": blocks, "epsilon": "1/4", "beta": "1/4", "gamma": "1/4"},
    }
    for name, cfg in configs.items():
        (tmp_path / name).write_text(json.dumps(cfg))
    codes, loaded, _ = run_in_one_process([
        ["lemma-check", str(tmp_path / "one_base.json")],
        ["lemma-check", str(tmp_path / "two_bases.json"), "--format", "csv"],
        ["lemma-check", str(tmp_path / "zero_eps.json")],
        ["classify", str(tmp_path / "classify.json")],
    ])
    assert codes == [0, 0, 2, 0]
    assert {"bookramsey.counting", "bookramsey.oracle", "bookramsey.graph6"} <= loaded
    assert sorted(loaded & {*NUMERIC_MODULES, "bookramsey.regularity", "bookramsey.stability"}) == []


def past_cap_host():
    """Three blocks of ORACLE_SIDE_CAP + 1 vertices: block 0 all blue to
    block 1 and all red to block 2, a half graph from block 1 to block 2,
    and a residue rule inside the blocks."""
    t = ORACLE_SIDE_CAP + 1

    def blue(i, j):
        if i < t <= j:
            return j < 2 * t
        if t <= i < 2 * t <= j:
            return i - t <= j - 2 * t
        return (i * j + i + j) % 3 != 0

    host = from_edges(3 * t, [(i, j) for i in range(3 * t) for j in range(i + 1, 3 * t) if blue(i, j)])
    return host, [list(range(i * t, (i + 1) * t)) for i in range(3)]


def test_lemma_check_past_the_cap_loads_no_numeric_module(tmp_path):
    # past the oracle cap the counting bounds still read their rows off the
    # graph6 line: no pair is certified, and no numpy is loaded
    host, blocks = past_cap_host()
    for nbases in (1, 2):
        cfg = {"graph": to_graph6(host), "blocks": blocks, "epsilon": "1/20", "bases": nbases}
        (tmp_path / f"bases{nbases}.json").write_text(json.dumps(cfg))
    codes, loaded, outs = run_in_one_process([["lemma-check", str(tmp_path / f"bases{nbases}.json")] for nbases in (1, 2)])
    assert codes == [0, 0]
    assert [json.loads(out)["results"]["all_pairs_uniform"] for out in outs] == [None, None]
    assert {"bookramsey.counting", "bookramsey.graph6"} <= loaded
    assert sorted(loaded & {*NUMERIC_MODULES, "bookramsey.regularity", "bookramsey.stability"}) == []


# ``classify`` on past_cap_host, as recorded from the command when it
# decoded the whole graph for its sampled search
PAST_CAP_LABELS = {
    "blocks": 3,
    "counts": {"blue": 1, "irr": 1, "mid": 0, "red": 1},
    "labels": [
        {"label": "blue", "method": "search", "pair": [0, 1], "red_density": "0"},
        {"label": "red", "method": "search", "pair": [0, 2], "red_density": "1"},
        {"label": "irr", "method": "search", "pair": [1, 2], "red_density": "8/17"},
    ],
    "t": 17,
}


def test_search_past_the_cap_loads_no_numeric_module(tmp_path):
    # classify's pairs past the cap and uniformity --sampled run the
    # sampled search on rows read off the graph6 line: no numpy, no Graph
    host, blocks = past_cap_host()
    cfg = {"graph": to_graph6(host), "blocks": blocks, "epsilon": "1/10", "beta": "1/4", "gamma": "1/4"}
    (tmp_path / "classify.json").write_text(json.dumps(cfg))
    (tmp_path / "pair.json").write_text(json.dumps({**cfg, "blocks": blocks[1:]}))
    codes, loaded, outs = run_in_one_process([
        ["classify", str(tmp_path / "classify.json"), "--samples", "200"],
        ["uniformity", str(tmp_path / "pair.json"), "--sampled"],
    ])
    assert codes == [0, 10]
    assert json.loads(outs[0])["results"] == PAST_CAP_LABELS
    assert {"bookramsey.regularity", "bookramsey.rng", "bookramsey.graph6"} <= loaded
    assert sorted(loaded & {"numpy", "bookramsey.graphs", "bookramsey.colorings", "bookramsey.stability"}) == []


def test_regularity_loads_no_colorings():
    # the sampled search needs nothing of colorings, nor numpy and Graph,
    # and takes only a type from counting
    script = "import json, sys\nimport bookramsey.regularity\nprint(json.dumps(sorted(sys.modules)))\n"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True, timeout=120)
    loaded = set(json.loads(proc.stdout))
    assert {"bookramsey.oracle", "bookramsey.rng"} <= loaded
    assert sorted(loaded & {"numpy", "bookramsey.graphs", "bookramsey.colorings", "bookramsey.counting"}) == []


def test_random_draws_load_no_numpy_random(tmp_path):
    # a complete pair holds no witness, so the sampled search and the
    # search behind classify (blocks above the oracle cap) reach their
    # random samples, without numpy; trichotomy without a candidate runs
    # the extractor, with numpy but not its random module
    t = ORACLE_SIDE_CAP + 1
    pair = {
        "graph": to_graph6(complete_bipartite(t, t)),
        "blocks": [list(range(t)), list(range(t, 2 * t))],
        "epsilon": "1/10",
    }
    (tmp_path / "pair.json").write_text(json.dumps(pair))
    (tmp_path / "classify.json").write_text(json.dumps({**pair, "beta": "1/4", "gamma": "1/4"}))
    (tmp_path / "g.g6").write_text(to_graph6(complete_bipartite(10, 10)) + "\n")
    codes, loaded, _ = run_in_one_process([
        ["uniformity", str(tmp_path / "pair.json"), "--sampled", "--samples", "100"],
        ["classify", str(tmp_path / "classify.json"), "--samples", "100"],
    ])
    assert codes == [0, 0]
    assert {"bookramsey.regularity", "bookramsey.rng"} <= loaded
    assert sorted(loaded & {"numpy", "bookramsey.graphs", "bookramsey.colorings"}) == []
    codes, loaded, _ = run_in_one_process([["trichotomy", str(tmp_path / "g.g6"), "--xi", "1/10"]])
    assert codes == [0]
    assert {"numpy", "bookramsey.stability"} <= loaded
    assert "numpy.random" not in loaded


def random_module_uses(source: str) -> list[str]:
    """Names of numpy's random module: ``np.random``, ``numpy.random``
    and imports from it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "random":
            if isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
                found.append(f"line {node.lineno}: {node.value.id}.random")
        elif isinstance(node, ast.Import):
            found += [f"line {node.lineno}: import {a.name}" for a in node.names if a.name.startswith("numpy.random")]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy.random"):
            found.append(f"line {node.lineno}: from {node.module}")
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy" and any(a.name == "random" for a in node.names):
            found.append(f"line {node.lineno}: from numpy import random")
    return found


def test_package_never_names_numpy_random():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert {name: found for name, src in sources.items() if (found := random_module_uses(src))} == {}


def test_random_guard_flags_every_form():
    source = (
        "import numpy as np\n"
        "import numpy.random\n"
        "from numpy.random import default_rng\n"
        "from numpy import random\n"
        "rng = np.random.default_rng(numpy.random.SeedSequence(1))\n"
        "x = rng.random()\n"
    )
    assert random_module_uses(source) == [
        "line 2: import numpy.random",
        "line 3: from numpy.random",
        "line 4: from numpy import random",
        "line 5: np.random",
        "line 5: numpy.random",
    ]


def definitions(source: str) -> set[str]:
    """Names of the module-level functions of a source file."""
    return {node.name for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)}


def imported_names(nodes) -> set[str]:
    """Top-level module names that the import statements among ``nodes`` import."""
    found = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add((node.module or "").split(".")[0])
    return found


def module_imports(source: str) -> set[str]:
    """Top-level module names that a source file imports anywhere."""
    return imported_names(ast.walk(ast.parse(source)))


def top_level_imports(source: str) -> set[str]:
    """Top-level module names that a source file imports at module level."""
    return imported_names(ast.parse(source).body)


def test_colex_helpers_have_one_numpy_free_definition():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    owners = {name: sorted(f for f, src in sources.items() if name in definitions(src)) for name in ("edge_index", "bits_of")}
    assert owners == {"edge_index": ["colex.py"], "bits_of": ["colex.py"]}
    assert "numpy" not in module_imports(sources["colex.py"])
    assert "numpy" not in module_imports(sources["ramsey.py"])


def test_oracle_imports_no_numpy():
    for name in ("oracle.py", "graph6.py", "counting.py", "regularity.py", "stability.py"):
        assert "numpy" not in module_imports((PACKAGE / name).read_text(encoding="utf-8")), name
    # stability runs on int rows, and ``trichotomy_check`` takes them and
    # two book sizes, never a Graph: importing it loads neither numpy nor graphs
    script = "import json, sys\nimport bookramsey.stability\nprint(json.dumps(sorted(sys.modules)))\n"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True, timeout=120)
    assert sorted(set(json.loads(proc.stdout)) & {"numpy", "bookramsey.graphs", "bookramsey.colorings"}) == []
    assert "numpy" in module_imports("def f():\n    import numpy.linalg\n")
    # rng's edge-colour kernels import numpy when they run, its streams never
    assert "numpy" not in top_level_imports((PACKAGE / "rng.py").read_text(encoding="utf-8"))
    assert "numpy" in module_imports((PACKAGE / "rng.py").read_text(encoding="utf-8"))
    assert top_level_imports("import numpy as np\ndef f():\n    import re\n") == {"numpy"}


def test_verify_modules_import_no_dataclasses():
    # importing dataclasses (with inspect, ast and dis) was most of the
    # start-up of a verify process; every record is a NamedTuple, and no
    # module of the package imports it
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert {"cli", "ramsey", "graphs", "colorings", "stability"} <= sources.keys()
    assert {name for name, src in sources.items() if "dataclasses" in module_imports(src)} == set()
    assert "dataclasses" in module_imports("def f():\n    from dataclasses import dataclass\n")


def brc1_hex_sites(source: str) -> list[str]:
    """Uses of ``hex``, ``fromhex`` and the bit-reverse table, the makings
    of a BRC1 payload, as names, attributes or imports."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name in ("hex", "fromhex", "_BIT_REVERSE"):
            found.append(f"line {node.lineno}: {name}")
    return found


def test_only_colex_makes_or_reads_brc1_hex():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    sites = {name: brc1_hex_sites(src) for name, src in sources.items()}
    assert {name: found for name, found in sites.items() if found and name != "colex.py"} == {}
    assert {site.split(": ")[1] for site in sites["colex.py"]} == {"hex", "fromhex", "_BIT_REVERSE"}


def test_hex_guard_flags_every_use():
    source = (
        "from .colex import _BIT_REVERSE\n"
        "def f(raw, text):\n"
        "    return raw.hex(), bytes.fromhex(text), hex(3)\n"
    )
    assert brc1_hex_sites(source) == [
        "line 1: _BIT_REVERSE",
        "line 3: hex",
        "line 3: fromhex",
        "line 3: hex",
    ]


def brc1_packbits_sites(source: str) -> list[str]:
    """Calls of ``packbits`` without ``bitorder="little"``, which pack in
    the BRC1 order, first bit highest, each named by its enclosing
    function."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and getattr(child.func, "attr", getattr(child.func, "id", None)) == "packbits":
                order = [k.value for k in child.keywords if k.arg == "bitorder"]
                if not (order and isinstance(order[0], ast.Constant) and order[0].value == "little"):
                    found.append(f"line {child.lineno}: packbits in {owner}")
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def test_one_packer_makes_brc1_bytes():
    sites = {p.name: brc1_packbits_sites(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    sites = {name: [site.split(": ")[1] for site in found] for name, found in sites.items() if found}
    assert sites == {"colorings.py": ["packbits in _colex_pieces"]}


def test_packbits_guard_flags_every_big_endian_call():
    source = (
        "import numpy as np\n"
        "def f(bits):\n"
        "    return np.packbits(bits), np.packbits(bits, axis=1, bitorder='little')\n"
        "x = packbits(b, bitorder='big')\n"
        "def g(b, order):\n"
        "    return np.packbits(b, bitorder=order)\n"
    )
    assert brc1_packbits_sites(source) == [
        "line 3: packbits in f",
        "line 4: packbits in <module>",
        "line 6: packbits in g",
    ]


# public names that nothing else in the package uses, each kept for a reason
UNREFERENCED_KEPT = {
    "colorings.tripartite_random": "the README Library example builds a coloring with it",
    "colorings.two_cliques": "the README Library example builds the classical coloring with it",
    "stability.red_book_bound": "kept until ROADMAP item 10 decides whether the stability report uses it",
    "stability.blue_book_bound": "kept until ROADMAP item 10 decides whether the stability report uses it",
}


def public_definitions(owner: str, tree):
    """(qualified name, node) of each public function and class at the
    top of a module or class body, and of the public methods of those
    classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{owner}.{node.name}", node
            if isinstance(node, ast.ClassDef):
                yield from public_definitions(f"{owner}.{node.name}", node)


def name_uses(nodes) -> Counter:
    """How often each name is used as a Name, an Attribute or an ImportFrom."""
    found = Counter()
    for node in nodes:
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            found.update(a.name for a in node.names)
    return found


def unreferenced(trees: dict[str, ast.AST]) -> list[str]:
    """The public definitions whose name the package uses nowhere outside
    the definition itself."""
    total = name_uses(node for tree in trees.values() for node in ast.walk(tree))
    defs = [d for module, tree in trees.items() for d in public_definitions(module, tree)]
    return sorted(q for q, node in defs if total[node.name] == name_uses(ast.walk(node))[node.name])


def test_every_public_name_has_a_use_in_the_package():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    found = set(unreferenced(trees))
    assert found <= UNREFERENCED_KEPT.keys(), f"used by no code of the package: {sorted(found - UNREFERENCED_KEPT.keys())}"
    assert found >= UNREFERENCED_KEPT.keys(), f"used now, so off the list: {sorted(UNREFERENCED_KEPT.keys() - found)}"


def test_use_guard_names_each_unused_definition():
    source = (
        "def used():\n    return 1\n"
        "def alone():\n    return alone()\n"
        "class Box:\n    def get(self):\n        return used()\n"
    )
    assert unreferenced({"m": ast.parse(source)}) == ["m.Box", "m.Box.get", "m.alone"]
