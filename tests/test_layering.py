"""Layering guard: the packed adjacency format stays inside graphs.py.

Every other module of the package asks ``Graph`` for counts and small
matrices; none reads the int rows or imports a private helper of
``graphs``.
"""

import ast
from pathlib import Path

import bookramsey

PACKAGE = Path(bookramsey.__file__).parent


def layering_violations(source: str) -> list[str]:
    """Reads of a ``.rows`` attribute and underscore imports from graphs."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "rows":
            found.append(f"line {node.lineno}: reads .rows")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "graphs":
            found += [f"line {node.lineno}: imports {a.name}" for a in node.names if a.name.startswith("_")]
    return found


def test_no_module_but_graphs_knows_the_adjacency_format():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "graphs.py")
    assert {p.name for p in modules} >= {"colorings.py", "ramsey.py", "regularity.py", "stability.py", "cli.py"}
    bad = {p.name: layering_violations(p.read_text(encoding="utf-8")) for p in modules}
    assert {name: v for name, v in bad.items() if v} == {}


def test_guard_flags_row_reads_and_private_imports():
    source = (
        "from .graphs import Graph, _unpack\n"
        "from bookramsey.graphs import _pack\n"
        "from .colorings import _private\n"
        "def f(g):\n"
        "    return g.rows[0] & g.host.rows[1]\n"
    )
    assert layering_violations(source) == [
        "line 1: imports _unpack",
        "line 2: imports _pack",
        "line 5: reads .rows",
        "line 5: reads .rows",
    ]
