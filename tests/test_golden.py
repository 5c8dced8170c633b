"""Golden payloads: the command line's output pinned byte for byte.

``golden_payloads.json`` holds input files and a run of commands, one or
more per subcommand, each with the stdout, stderr and exit code it gave
and the files it wrote.  The stdout's ``wall_time_ms`` reads 0; nothing
else in it is masked.  The commands run in order in one directory, so a
later one reads what an earlier ``construct`` wrote.
"""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from bookramsey import cli

GOLDEN = json.loads((Path(__file__).parent / "golden_payloads.json").read_text(encoding="utf-8"))
WALL = re.compile(r'"wall_time_ms": \d+')


@pytest.fixture(scope="module")
def replay(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    for name, text in GOLDEN["inputs"].items():
        (root / name).write_text(text, encoding="ascii")
    runs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        for case in GOLDEN["cases"]:
            before = {p.name for p in root.iterdir()}
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(case["argv"])
            written = {p.name: p.read_text(encoding="ascii") for p in sorted(root.iterdir()) if p.name not in before}
            runs.append({"code": code, "stdout": WALL.sub('"wall_time_ms": 0', out.getvalue()), "stderr": err.getvalue(), "written": written})
    return runs


def test_golden_covers_every_subcommand():
    commands = {cli.build_parser().parse_args(case["argv"]).command for case in GOLDEN["cases"]}
    assert commands == {"verify", "construct", "bk", "stats", "witness-check", "uniformity", "lemma-check", "classify", "trichotomy"}
    assert '"counterexample_hex": "84f0"' in GOLDEN["cases"][0]["stdout"]


@pytest.mark.parametrize("k", range(len(GOLDEN["cases"])), ids=[" ".join(c["argv"]) for c in GOLDEN["cases"]])
def test_command_output_matches_golden(replay, k):
    case = GOLDEN["cases"][k]
    assert replay[k] == {key: case[key] for key in ("code", "stdout", "stderr", "written")}
