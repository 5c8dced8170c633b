"""Benchmark for the bookramsey command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare A B

One client runs a workload's command script in a closed loop, one
fresh process per command, in whole rounds; ``--seconds`` (by default
``run_seconds`` of BENCHMARK.json) fixes how many (see
``workloads.ROUND_SECONDS``).
Every report and every file a command writes is checked against an
independent reference (see ``reference.py``).  With ``--trace 0`` the
last stdout line carries the end-to-end metrics, medians over the run's
rounds; with ``--trace 1`` the script runs in this process through
``bookramsey.cli.main`` and the line carries the per-layer metrics taken
from spans (see ``tracer.py``).  Each run also writes a result file
under ``perfbench/_runs/``; ``--compare`` sets two of them, or two
directories of them, side by side.

The program is imported from ``src/`` of the checkout that holds this
directory; without it the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from launcher import Launcher

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RUNS = HERE / "_runs"
BENCHMARK = HERE.parent / "BENCHMARK.json"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="dense-construct, exhaustive-verify or structure")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, help="run length; default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results-dir", type=Path, default=RUNS, help="where result files go")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"), help="two result files or directories")
    args = ap.parse_args(argv)
    if args.compare is None and args.workload is None:
        ap.error("--workload is required")
    if args.seconds is None:
        if not BENCHMARK.is_file():
            ap.error(f"--seconds is required without {BENCHMARK}")
        args.seconds = json.loads(BENCHMARK.read_text())["run_seconds"]
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare:
        import compare

        return compare.main(*args.compare)
    if not (SRC / "bookramsey" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'bookramsey'}; run from a bookramsey checkout", file=sys.stderr)
        return 2
    with Launcher(child_env()) as launcher:
        # numpy, networkx and the reference data load only after the
        # launcher has started, so no measured process inherits their
        # memory in its peak RSS.  The reference checks run BLAS on one
        # thread: idle OpenBLAS workers spin for a while after each call,
        # and would take a CPU from the next measured process.
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = "1"
        import bench

        return bench.main(args, launcher)


if __name__ == "__main__":
    sys.exit(main())
