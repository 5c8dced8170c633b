"""Measurement loop of the benchmark, driven by ``run.py``.

Untraced runs start every CLI command through the launcher and time it
from outside; traced runs call ``bookramsey.cli.main`` in this process
under ``tracer.Tracer``.  Outputs are judged by the checks each
``workloads.Op`` carries.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path
from statistics import median

import numpy as np

import tracer as tracing
import workloads
from reference import CheckFailed
from run import RUNS, SRC

FOUND_CODES = (0, 10)  # success and "found something"; anything else is a failed operation

SETUP_SAMPLES = 16  # spread evenly between the run's commands
SETUP_SNIPPET = "import sys; from bookramsey import cli; cli.build_parser().parse_args(sys.argv[1:])"
SETUP_ARGV = ["verify", "7", "1", "2"]

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


class Run:
    """Operation counts and problems of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []  # operations that ended without a report
        self.problems: list[str] = []  # reports that disagree with their reference

    def judge(self, op, code: int, stdout: str, stderr: str, reports: dict) -> None:
        self.attempted += 1
        report = None
        if code in FOUND_CODES:
            with contextlib.suppress(ValueError, IndexError):
                report = json.loads(stdout.strip().splitlines()[-1])
        if report is None:
            self.failed += 1
            self.failures.append(f"{op.label}: exit code {code}: {stderr.strip()[-300:]}")
            return
        reports[op.label] = report
        try:
            op.check(code, report)
        except CheckFailed as exc:
            self.problems.append(f"{op.label}: {exc}")

    def round_checks(self, plan, reports: dict) -> None:
        for check in plan.round_checks:
            try:
                check(reports)
            except CheckFailed as exc:
                self.problems.append(f"round: {exc}")


def environment() -> dict:
    return {
        "nproc": workloads.usable_threads(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def launch(launcher, argv: list[str], work: Path):
    """Run one process through the launcher: (code, wall s, CPU s, peak RSS MB, stdout, stderr)."""
    out_path, err_path = work / "stdout.txt", work / "stderr.txt"
    code, wall, cpu, rss = launcher.run(argv, work, out_path, err_path)
    return code, wall, cpu, rss, out_path.read_text(errors="replace"), err_path.read_text(errors="replace")


# ------------------------------------------------------------ untraced run


def setup_sample(launcher, work: Path) -> float:
    """Start-up of a fresh process that imports the CLI and parses one command."""
    code, elapsed, _, _, _, err = launch(launcher, [sys.executable, "-c", SETUP_SNIPPET, *SETUP_ARGV], work)
    if code != 0:
        raise SystemExit(f"set-up probe failed with exit code {code}: {err.strip()[-300:]}")
    return elapsed


def rounds_for(workload: str, seconds: int) -> int:
    return max(1, seconds // workloads.ROUND_SECONDS[workload])


def untraced_round(plan, launcher, work: Path, run: Run, before_command) -> dict:
    groups = dict.fromkeys((op.group for op in plan.ops), 0.0)
    wall = cpu = rss = colorings = 0.0
    reports: dict = {}
    per_op = {}
    for op in plan.ops:
        before_command()
        code, elapsed, op_cpu, op_rss, out, err = launch(launcher, [sys.executable, "-m", "bookramsey.cli", *op.argv], work)
        per_op[op.label] = {"wall_s": elapsed, "cpu_s": op_cpu, "peak_rss_mb": op_rss}
        wall += elapsed
        cpu += op_cpu
        rss = max(rss, op_rss)
        groups[op.group] += elapsed
        run.judge(op, code, out, err, reports)
        if op.label in reports:
            colorings += reports[op.label]["results"].get("colorings_examined", 0)
    run.round_checks(plan, reports)
    if colorings:
        groups["verify_colorings_per_s"] = colorings / wall
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss, "groups": groups, "commands": per_op}


def untraced(plan, n_rounds: int, launcher, work: Path, run: Run) -> tuple[dict, dict, dict]:
    setup_sample(launcher, work)  # fills the bytecode cache; not counted
    setup: list[float] = []
    total = n_rounds * len(plan.ops)
    done = 0

    def before_command():
        # SETUP_SAMPLES samples spread evenly over the run, so they see
        # the same load on the box as the commands do
        nonlocal done
        for _ in range((done + 1) * SETUP_SAMPLES // total - done * SETUP_SAMPLES // total):
            setup.append(setup_sample(launcher, work))
        done += 1

    rounds = [untraced_round(plan, launcher, work, run, before_command) for _ in range(n_rounds)]
    metrics = {"setup_s": median(setup)}
    for key in ("wall_s", "peak_rss_mb"):
        metrics[key] = median(r[key] for r in rounds)
    groups = {g: median(r["groups"][g] for r in rounds) for g in rounds[0]["groups"]}
    detail = {"setup_samples": setup, "rounds": rounds}
    return metrics, groups, detail


# -------------------------------------------------------------- traced run


def import_program():
    sys.path.insert(0, str(SRC))
    import bookramsey
    from bookramsey import cli  # noqa: F401  (loads every module the CLI uses)

    if not Path(bookramsey.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bookramsey imported from {bookramsey.__file__}, not from {SRC}")
    return bookramsey


def in_process_round(plan, pkg, tracer, run: Run, first_command: int) -> tuple[float, dict]:
    """Run the script through cli.main in this process: (wall, per-op walls)."""
    walls = {}
    reports: dict = {}
    for k, op in enumerate(plan.ops):
        if tracer is not None:
            tracer.command = first_command + k
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = pkg.cli.main(list(op.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # noqa: BLE001  (a crash is a failed operation)
                code = 1
                err.write(f"{type(exc).__name__}: {exc}")
        walls[first_command + k] = time.perf_counter() - t0
        run.judge(op, code, out.getvalue(), err.getvalue(), reports)
    run.round_checks(plan, reports)
    return sum(walls.values()), walls


def traced(plan, n_pairs: int, run: Run, spans_path: Path) -> dict:
    pkg = import_program()
    per_round = len(plan.ops)
    layer_rounds = []
    command = 0

    def plain():
        nonlocal command
        wall, _ = in_process_round(plan, pkg, None, run, command)
        command += per_round
        return wall

    def one_pair():
        # alternate which half of the pair runs first, so drift cancels
        nonlocal command
        plain_wall = plain() if len(layer_rounds) % 2 == 0 else None
        tr = tracing.Tracer()
        tr.install()
        try:
            traced_wall, walls = in_process_round(plan, pkg, tr, run, command)
        finally:
            tr.uninstall()
        command += per_round
        if plain_wall is None:
            plain_wall = plain()
        own = tracing.self_times(tr.spans)
        for cmd, wall in walls.items():
            total = sum(own[s[0]] for s in tr.spans if s[5] == cmd)
            if total > wall:
                run.problems.append(f"trace: self times of command {cmd} sum to {total:.6f} s, above its wall {wall:.6f} s")
        layer_rounds.append(tracing.layer_metrics(tr.spans, traced_wall / plain_wall))
        with open(spans_path.with_name(f"{spans_path.stem}-{len(layer_rounds)}.json"), "w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "command", "work"], "spans": tr.spans}, fh)

    for _ in range(n_pairs):
        one_pair()
    return tracing.median_metrics(layer_rounds)


def main(args, launcher) -> int:
    """One benchmark run; prints the result line and writes the result file."""
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    args.results_dir.mkdir(parents=True, exist_ok=True)
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    work = RUNS / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run()
    n_rounds = rounds_for(args.workload, args.seconds)
    try:
        plan = workloads.build(args.workload, args.seed, work)
        if args.trace:
            # a traced round and an untraced in-process round per pair
            metrics = traced(plan, max(1, n_rounds // 2), run, args.results_dir / f"{stamp}.spans.json")
            groups, detail = {}, {}
            units = tracing.UNITS
        else:
            metrics, groups, detail = untraced(plan, n_rounds, launcher, work, run)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for failure in run.failures:
        print(f"operation failed: {failure}", file=sys.stderr)
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": n_rounds,
        "trace": args.trace,
        "env": environment(),
        **result,
        "commands": groups,
        "failures": run.failures,
        "problems": run.problems,
        "detail": detail,
    }
    (args.results_dir / f"{stamp}.json").write_text(json.dumps(record, indent=1))
    for g, v in groups.items():
        unit = "colorings/s" if g.endswith("_per_s") else "s"
        print(f"{args.workload} {g} {v:.6g} {unit} (median over rounds)")
    print(json.dumps(result))
    return 0

