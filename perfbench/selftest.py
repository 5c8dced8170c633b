"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs one round of every workload's command script, as the benchmark
builds it, confirms that each check accepts the program's real output
(about a minute on two CPUs), then corrupts that
output in known ways (one flipped BRC1 bit, a booksize off by one, a
witness shrunk below its size floor, a wrong verdict, ...) and confirms
the check rejects every corruption.  Exits 1 if a real output is
rejected or a corruption gets through.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys

import bench
import reference as ref
import workloads
from launcher import Launcher
from reference import CheckFailed
from run import RUNS, SRC, child_env


def edit(*path, to=None, by=None):
    """Corruption that replaces (``to``) or transforms (``by``) one report value."""

    def corrupt(code, report, work):
        report = copy.deepcopy(report)
        node = report["results"]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = by(node[path[-1]]) if by is not None else to
        return code, report, None

    return corrupt


def exit_code(new):
    def corrupt(code, report, work):
        return new, report, None

    return corrupt


def flip_brc1_bit(name):
    """Flip the lowest bit of the middle hex digit of a BRC1 file."""

    def corrupt(code, report, work):
        path = work / name
        original = path.read_text()
        head, payload = original.split("\n", 1)
        k = len(payload.strip()) // 2
        digit = format(int(payload[k], 16) ^ 1, "x")
        path.write_text(head + "\n" + payload[:k] + digit + payload[k + 1:])
        return code, report, lambda: path.write_text(original)

    return corrupt


def shrink_x(to_size):
    def corrupt(code, report, work):
        report = copy.deepcopy(report)
        w = report["results"]["witness"]
        w[0] = w[0][: to_size(len(w[0]))]
        return code, report, None

    return corrupt


def whole_sides(config):
    """Replace the witness by the two whole blocks, which deviate by 0."""

    def corrupt(code, report, work):
        report = copy.deepcopy(report)
        report["results"]["witness"] = json.loads((work / config).read_text())["blocks"]
        return code, report, None

    return corrupt


CORRUPTIONS = {
    "construct-tripartite": [
        ("one flipped BRC1 bit", flip_brc1_bit("tri.brc1")),
        ("expected red-intra codegree altered", edit("expected_book_sizes", "red_intra", to="1/3")),
    ],
    "bk": [
        ("blue booksize off by one", edit("blue", "booksize", by=lambda v: v + 1)),
        ("red base moved", edit("red", "base", by=lambda b: [b[0], b[1] + 1])),
    ],
    "stats": [
        ("bk_red off by one", edit("bk_red", by=lambda v: v + 1)),
        ("third-part page mean altered", edit("red_cross", "mean_pages_third_part", to="1")),
    ],
    "witness-check-tripartite": [
        ("wrong verdict", edit("verdict", to="refutation")),
        ("exit code 10", exit_code(10)),
    ],
    "construct-two-cliques": [("one flipped BRC1 bit", flip_brc1_bit("tc.brc1"))],
    "witness-check-two-cliques": [("claim altered", edit("claim", by=lambda c: c.replace(">", ">=")))],
    "verify-7-1-2": [("wrong verdict", edit("verdict", to="counterexample"))],
    "verify-8-1-2-prune-t1": [("enumeration size off by one", edit("colorings_examined", by=lambda v: v - 1))],
    "verify-8-1-2-prune-t2": [("enumeration size doubled", edit("colorings_examined", by=lambda v: 2 * v))],
    "verify-8-2-2-prune-t2": [
        ("wrong verdict", edit("verdict", to="forced")),
        ("counterexample holding a red book", edit("counterexample_hex", by=lambda h: "0" * len(h))),
    ],
    "verify-8-1-3-prune": [
        ("counterexample holding a blue book", edit("counterexample_hex", to=ref.hex_nibbles([1] * 28))),
        ("examined count beyond the enumeration", edit("colorings_examined", to=8 * 2**21 + 1)),
    ],
    "oracle-empty": [("wrong verdict", edit("uniform", to=False))],
    "oracle-half": [
        ("witness shrunk below the size floor", shrink_x(lambda k: 1)),
        ("witness that does not deviate", whole_sides("half.json")),
        ("wrong verdict", exit_code(0)),
    ],
    "search-complete": [("density off", edit("density", to="89/90"))],
    "search-half": [("witness shrunk below the size floor", shrink_x(lambda k: 5))],
    "lemma-check": [
        ("triangle count off by one", edit("checks", by=lambda rows: [dict(r, actual=r["actual"] + 1) if r["check"] == "triangle_shared" else r for r in rows])),
        ("a violation reported", edit("violations", to=1)),
    ],
    "classify": [
        ("one label changed", edit("labels", by=lambda rows: [dict(rows[0], label="irr" if rows[0]["label"] != "irr" else "mid")] + rows[1:])),
        ("counts altered", edit("counts", by=lambda c: dict(c, irr=c["irr"] + 1))),
    ],
    "trichotomy": [
        ("branch (iii) wrong", edit("iii", by=lambda v: "unknown" if v is True else True)),
        ("threshold altered", edit("threshold_ii", to="10")),
    ],
    "trichotomy-candidate": [
        ("G0 min degree off by one", edit("delta_G0", by=lambda v: v + 1)),
        ("branch (i) flipped", edit("i", by=lambda v: not v)),
    ],
}


def rejects(check, *args) -> str | None:
    try:
        check(*args)
    except CheckFailed as exc:
        return str(exc)
    return None


def main() -> int:
    if not (SRC / "bookramsey" / "cli.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    with Launcher(child_env()) as launcher:
        return check_all(launcher)


def check_all(launcher) -> int:
    bad = 0
    covered = set()
    for name in workloads.WORKLOADS:
        work = RUNS / f"selftest-{name}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            plan = workloads.build(name, 7, work)
            reports = {}
            for op in plan.ops:
                code, _, _, _, out, _ = bench.launch(launcher, [sys.executable, "-m", "bookramsey.cli", *op.argv], work)
                report = json.loads(out.strip().splitlines()[-1]) if out.strip() else None
                reports[op.label] = report
                problem = rejects(op.check, code, report)
                print(f"{'ok  ' if problem is None else 'FAIL'} {name}/{op.label}: real output "
                      f"{'accepted' if problem is None else 'rejected: ' + problem}")
                bad += problem is not None
                for what, corrupt in CORRUPTIONS.get(op.label, []):
                    covered.add(op.label)
                    c_code, c_report, restore = corrupt(code, report, work)
                    try:
                        problem = rejects(op.check, c_code, c_report)
                    finally:
                        if restore:
                            restore()
                    print(f"{'ok  ' if problem else 'FAIL'} {name}/{op.label}: {what} "
                          f"{'rejected: ' + problem if problem else 'ACCEPTED'}")
                    bad += problem is None
            for check in plan.round_checks:
                problem = rejects(check, reports)
                print(f"{'ok  ' if problem is None else 'FAIL'} {name}/round: real outputs "
                      f"{'accepted' if problem is None else 'rejected: ' + problem}")
                bad += problem is not None
                label = workloads.THREAD_PAIR[1]
                altered = dict(reports, **{label: edit("colorings_examined", by=lambda v: v + 1)(0, reports[label], work)[1]})
                problem = rejects(check, altered)
                print(f"{'ok  ' if problem else 'FAIL'} {name}/round: thread payloads differ "
                      f"{'rejected: ' + problem if problem else 'ACCEPTED'}")
                bad += problem is None
        finally:
            shutil.rmtree(work, ignore_errors=True)
    missing = set(CORRUPTIONS) - covered
    for label in sorted(missing):
        print(f"FAIL corruption table names {label}, which no plan runs")
    bad += len(missing)
    print(f"\n{'all checks behave' if not bad else f'{bad} problems'}")
    return 0 if not bad else 1


if __name__ == "__main__":
    sys.exit(main())
