"""Command-line front end.

Each subcommand emits exactly one JSON report on stdout and a short
human summary on stderr.  The report envelope is
{command, parameters, results, seed, wall_time_ms, version}; the
results payload is a pure function of parameters and seed (wall time
lives outside it), so scripted re-runs can diff results byte for byte.
No command starts a thread of its own; --threads is accepted (at
least 1) and echoed in parameters, and changes nothing else.  ``entry``
pins OpenBLAS to one thread unless OPENBLAS_NUM_THREADS is set: two
threads at times stalled a process's first matrix products for 0.5 s.

Exit codes: 0 success or forced verdict; 10 counterexample, witness, or
bound violation found; 2 usage or parse error; 3 capacity error, out of
memory included.  Rationals are rendered as "num/den" strings.  --format
csv is accepted only by the tabular reports (stats, lemma-check, the
keys of ``handlers.CSV``), and refused before any handler runs.

Start-up is lazy: this module holds the parser, the envelope and
``cmd_verify``, and imports only the standard library and ``errors``
(the exit codes and ``jsonable``), not ``fractions`` or the number
helpers.  The other eight handlers live in ``handlers``, which ``main``
imports only when it dispatches to one of them, and each handler
imports the library modules it uses when it runs, so wall_time_ms
includes loading them.  ``verify`` loads ``ramsey`` and ``colex``
only.  ``uniformity``, ``lemma-check`` and ``classify`` read their
pairs' rows straight off the graph6 line (``graph6``) at every block
size, and none loads numpy: the exact oracle (``oracle``) runs on them,
the counting bounds and labels (``counting``) too, and so does the
sampled search (``regularity``) of ``uniformity --sampled`` and of
``classify``'s blocks past the oracle cap (16).  The other commands
load numpy with the modules they use; ``trichotomy`` only to read its
file and for the ``books`` walk: it drops the ``Graph`` for its
Python-int rows before its structure layer (``stability``) runs on
them.  The process entry ``entry`` runs ``main`` and then freezes the
garbage collector before exiting; ``main(argv)`` itself, as tests and
in-process callers use it, leaves the collector alone.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

from . import __version__
from .errors import EXIT_CAPACITY, EXIT_FOUND, EXIT_OK, EXIT_USAGE, CapacityError, ParseError, jsonable

# ------------------------------------------------------------------ verify


def cmd_verify(args):
    from .colex import index_hex
    from .ramsey import exhaustive_verify

    outcome = exhaustive_verify(args.N, args.p, args.q, force=args.force, prune=args.prune)
    results = {
        "verdict": outcome.verdict,
        "colorings_examined": outcome.colorings_examined,
    }
    if outcome.counterexample_index is not None:
        results["counterexample_n"] = args.N
        results["counterexample_hex"] = index_hex(outcome.counterexample_index, args.N * (args.N - 1) // 2)
    summary = (
        f"every 2-coloring of K_{args.N} has a red {args.p}-book or blue {args.q}-book"
        if outcome.verdict == "forced"
        else f"K_{args.N} admits a coloring avoiding both books"
    )
    code = EXIT_OK if outcome.verdict == "forced" else EXIT_FOUND
    return results, summary, code


# -------------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bookramsey",
        description="Booksizes, small-order book Ramsey verification, "
        "lower-bound colorings, and uniform-pair counting checks.",
    )
    ap.add_argument("--seed", type=int, default=0, help="seed for randomized operations")
    ap.add_argument(
        "--threads", type=int, default=1,
        help="accepted (at least 1) and echoed in parameters; no command runs more than one thread",
    )
    ap.add_argument("--format", choices=("json", "csv"), default="json")
    # the same flags are accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering a value parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--threads", type=int, default=argparse.SUPPRESS)
    common.add_argument("--format", choices=("json", "csv"), default=argparse.SUPPRESS)
    sub = ap.add_subparsers(dest="command", required=True, parser_class=lambda **kw: argparse.ArgumentParser(parents=[common], **kw))

    p = sub.add_parser("bk", help="booksize of a graph6 graph or BRC1 coloring")
    p.add_argument("file")
    p.set_defaults(seeded=False)

    p = sub.add_parser("verify", help="exhaustively verify a small Ramsey statement")
    p.add_argument("N", type=int)
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("--force", action="store_true", help="allow orders beyond the default cap")
    p.add_argument("--prune", action="store_true", help="fix vertex 0's star up to sorting")
    p.set_defaults(seeded=False)

    p = sub.add_parser("witness-check", help="certify a lower bound from a coloring file")
    p.add_argument("file")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.set_defaults(seeded=False)

    p = sub.add_parser("construct", help="write a lower-bound coloring to a BRC1 file")
    p.add_argument("kind", choices=("two-cliques", "tripartite"))
    p.add_argument("--q", type=int, help="clique parameter for two-cliques")
    p.add_argument("--n", type=int, help="order for tripartite (divisible by 3)")
    p.add_argument("--epsilon", help="margin parameter, decimal or num/den")
    p.add_argument("--delta", help="bias override (default 8.25 * epsilon)")
    p.add_argument("--out", required=True)
    p.set_defaults(seeded=True)

    p = sub.add_parser("stats", help="codegree statistics of a coloring vs a 3-part split")
    p.add_argument("file")
    p.add_argument("--parts", help="JSON file with three vertex lists (default: contiguous thirds)")
    p.set_defaults(seeded=False)

    p = sub.add_parser("uniformity", help="uniformity oracle on a two-block config")
    p.add_argument("config")
    p.add_argument("--sampled", action="store_true", help="use the witness search instead of the oracle")
    p.add_argument("--samples", type=int, default=1000)
    p.set_defaults(seeded=True)

    p = sub.add_parser("lemma-check", help="counting bounds on a bases-plus-pages config")
    p.add_argument("config")
    p.set_defaults(seeded=False)

    p = sub.add_parser("classify", help="label block pairs irr/blue/mid/red")
    p.add_argument("config")
    p.add_argument("--samples", type=int, default=500)
    p.set_defaults(seeded=True)

    p = sub.add_parser("trichotomy", help="evaluate the three structure branches")
    p.add_argument("file")
    p.add_argument("--xi", required=True)
    p.add_argument("--candidate", help="JSON file [U1, U2] naming the bipartite parts")
    p.set_defaults(seeded=True)

    return ap


def _parameters(args) -> dict:
    skip = {"seeded", "command", "format"}
    return {key: val for key, val in sorted(vars(args).items()) if key not in skip and val is not None}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.format == "csv":
        from .handlers import CSV  # its keys are the tabular reports

        if args.command not in CSV:
            print("error: --format csv is only available for tabular reports", file=sys.stderr)
            return EXIT_USAGE
    for flag in ("threads", "samples"):
        if getattr(args, flag, 1) < 1:
            print(f"error: --{flag} must be at least 1", file=sys.stderr)
            return EXIT_USAGE
    start = time.perf_counter()
    try:
        if args.command == "verify":
            results, summary, code = cmd_verify(args)
        else:
            from .handlers import HANDLERS

            results, summary, code = HANDLERS[args.command](args)
        wall_ms = int(round((time.perf_counter() - start) * 1000))
        # built before anything is written: a value too long to print
        # (ValueError) then leaves stdout empty
        if args.format == "csv":
            text = CSV[args.command](results)
        else:
            report = {
                "command": args.command,
                "parameters": jsonable(_parameters(args)),
                "results": jsonable(results),
                "seed": args.seed if args.seeded else None,
                "wall_time_ms": wall_ms,
                "version": __version__,
            }
            text = json.dumps(report, sort_keys=True) + "\n"
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except MemoryError:  # numpy's _ArrayMemoryError too
        print("capacity error: out of memory", file=sys.stderr)
        return EXIT_CAPACITY
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    sys.stdout.write(text)
    print(summary, file=sys.stderr)
    return code


def entry() -> None:
    """Process entry: run main, then exit without a last full collection.

    Frozen objects are left out of the collection that interpreter
    shutdown runs; the process frees all its memory on exit anyway.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # read when numpy loads, in main
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
