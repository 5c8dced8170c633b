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
bound violation found; 2 usage or parse error; 3 capacity error.
Rationals are rendered as "num/den" strings.  --format csv is accepted
only by the tabular reports (stats, lemma-check).

Start-up is lazy: this module imports only the standard library and the
package's error and number helpers, and each handler imports the library
modules it uses when it runs, so wall_time_ms includes loading them.
``verify`` loads ``ramsey`` and ``colex`` only.  ``uniformity``,
``lemma-check`` and ``classify`` read their pairs' rows straight off
the graph6 line (``graph6``) at every block size, and none loads numpy:
the exact oracle (``oracle``) runs on them, the counting bounds and
labels (``counting``) too, and so does the sampled search
(``regularity``) of ``uniformity --sampled`` and of ``classify``'s
blocks past the oracle cap (16).  The other commands load numpy with
the modules they use; ``trichotomy`` only to read its file and for the
``books`` walk: it drops the ``Graph`` for its Python-int rows before
its structure layer (``stability``) runs on them.  The process entry
``entry`` runs ``main`` and then freezes the garbage collector before
exiting; ``main(argv)`` itself, as tests and in-process callers use
it, leaves the collector alone.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from fractions import Fraction
from functools import cache, partial
from numbers import Integral

from . import __version__
from .errors import CapacityError, ParseError
from .numbers import as_fraction, fraction_str

EXIT_OK = 0
EXIT_FOUND = 10
EXIT_USAGE = 2
EXIT_CAPACITY = 3


def jsonable(x):
    """Recursively convert report values to JSON-safe types."""
    if isinstance(x, Fraction):
        return fraction_str(x)
    if isinstance(x, bool) or x is None:
        return x
    if isinstance(x, Integral):  # numpy integers too; bools were returned above
        return int(x)
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, (set, frozenset)):
        return sorted(jsonable(v) for v in x)
    return x


def _read_json(path, what):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON {what}: {exc.msg}", line=exc.lineno, offset=exc.colno)
    except RecursionError:
        raise ParseError(f"bad JSON {what}: nested too deeply", line=1) from None


def _vertex_lists(raw, n, count, message):
    """Tuples of vertices of K_n from a JSON list of integer lists, `count` of them if given."""
    if not (
        isinstance(raw, list)
        and (count is None or len(raw) == count)
        and all(isinstance(b, list) and all(type(v) is int for v in b) for b in raw)
    ):
        raise ParseError(message, line=1)
    bad = next((v for b in raw for v in b if not 0 <= v < n), None)
    if bad is not None:
        raise ValueError(f"vertex {bad} outside the {n}-vertex graph")
    return [tuple(b) for b in raw]


def load_config(path, required=()) -> dict:
    """JSON descriptor: {graph: graph6, blocks: [[...],...], epsilon, ...} plus `required` fields.

    The graph becomes the order and the checked data of its graph6 line
    (``graph6.graph6_data``), read without numpy.
    """
    cfg = _read_json(path, "config")
    if not isinstance(cfg, dict):
        raise ParseError("config must be a JSON object", line=1)
    for field in ("graph", "blocks", "epsilon", *required):
        if field not in cfg:
            raise ParseError(f"config needs '{field}'", line=1)
    from .graph6 import graph6_data

    cfg["graph"] = graph6_data(str(cfg["graph"]))
    cfg["blocks"] = _vertex_lists(cfg["blocks"], cfg["graph"][0], None, "'blocks' must be a list of vertex lists")
    return cfg


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


def cmd_bk(args):
    from .colorings import TwoColoring, read_any_file

    obj = read_any_file(args.file)

    def side(size, cert):
        return {"booksize": size, "base": list(cert.base) if cert is not None else None}

    if isinstance(obj, TwoColoring):
        (b, bc), (r, rc) = obj.blue.books()
        results = {"kind": "coloring", "n": obj.n, "blue": side(b, bc), "red": side(r, rc)}
        summary = f"coloring on {obj.n} vertices: blue booksize {b}, red booksize {r}"
    else:
        s, cert = obj.booksize()
        results = {"kind": "graph", "n": obj.n, **side(s, cert)}
        summary = f"graph on {obj.n} vertices: booksize {s}"
    return results, summary, EXIT_OK


def cmd_witness_check(args):
    from .colorings import read_coloring_file
    from .ramsey import Neither, RedBook, check_coloring

    c = read_coloring_file(args.file)
    res = check_coloring(c, args.p, args.q)
    if isinstance(res, Neither):
        claim = f"r(B_{args.p},B_{args.q}) > {c.n}"
        results = {"verdict": "certificate", "n": c.n, "p": args.p, "q": args.q, "claim": claim}
        return results, claim + " certified", EXIT_OK
    color = "red" if isinstance(res, RedBook) else "blue"
    base, pages = res.certificate.base, res.certificate.size
    results = {"verdict": "refutation", "book_color": color, "base": list(base), "pages": pages}
    return results, f"{color} book of size {pages} at base {base}", EXIT_FOUND


# --------------------------------------------------------------- construct


CONSTRUCT_REQUIRES = {"two-cliques": ("q",), "tripartite": ("n", "epsilon")}


def cmd_construct(args):
    from .colorings import (
        ConstructionParams,
        expected_book_sizes,
        margins,
        tripartite_bytes,
        two_clique_bytes,
        write_brc1,
    )
    from .graph6 import GRAPH6_ORDER_CAP

    missing = [f"--{name}" for name in CONSTRUCT_REQUIRES[args.kind] if getattr(args, name) is None]
    if missing:
        raise ValueError(f"construct {args.kind} requires {' and '.join(missing)}")
    n = 2 * args.q + 2 if args.kind == "two-cliques" else args.n
    if n > GRAPH6_ORDER_CAP:  # the file would be unreadable: refuse before any O(n^2) work
        raise CapacityError(f"order {n} is above the BRC1 cap of {GRAPH6_ORDER_CAP} vertices")
    if args.kind == "two-cliques":
        pieces = two_clique_bytes(args.q)  # refused (q < 1) before the file is opened
        results = {"kind": "two-cliques", "n": n, "q": args.q, "bk_blue": args.q - 1, "bk_red": 0, "file": args.out}
        write_brc1(args.out, n, pieces)
        summary = f"wrote {n}-vertex two-clique coloring to {args.out}"
        return results, summary, EXIT_OK

    params = ConstructionParams(
        n=args.n,
        epsilon=as_fraction(args.epsilon),
        seed=args.seed,
        delta=as_fraction(args.delta) if args.delta is not None else None,
    )
    k1, k2 = margins(params)
    ri, bc, rc = expected_book_sizes(params)
    # the results depend on the parameters alone: rendered before the
    # coloring is built, a value too long to print (ValueError) leaves no file
    results = jsonable({
        "kind": "tripartite",
        "n": params.n,
        "epsilon": params.epsilon,
        "delta": params.delta,
        "p": params.p,
        "q_prob": params.q_prob,
        "margins": {"k1": k1, "k2": k2},
        "expected_book_sizes": {"red_intra": ri, "blue_cross": bc, "red_cross": rc},
        "file": args.out,
    })
    write_brc1(args.out, params.n, tripartite_bytes(params))  # the bytes as they are drawn, never the words
    summary = (
        f"wrote {params.n}-vertex tripartite coloring to {args.out}; "
        f"expected codegrees {float(ri):.4f} / {float(bc):.4f} / {float(rc):.4f}"
    )
    return results, summary, EXIT_OK


def cmd_stats(args):
    from .colorings import construction_statistics, read_coloring_file, tripartite_parts

    c = read_coloring_file(args.file)
    if args.parts is not None:
        raw = _read_json(args.parts, "parts file")
        parts = _vertex_lists(raw, c.n, 3, "parts file must hold exactly three lists")
    else:
        parts = tripartite_parts(c.n)
    report = construction_statistics(c, parts)
    summary = (
        f"bk_red {report['bk_red']} ({float(report['bk_red_over_n']):.4f} n), "
        f"bk_blue {report['bk_blue']} ({float(report['bk_blue_over_n']):.4f} n)"
    )
    return report, summary, EXIT_OK


STATS_MEANS = ("mean_codegree", "mean_pages_third_part", "mean_pages_own_parts")


def stats_csv(report) -> str:
    classes = ("red_intra", "blue_cross", "red_cross")
    rows = [(name, report[name]["edges"], *map(report[name].get, STATS_MEANS)) for name in classes]
    rows += [(name, None, report[name], None, None) for name in ("bk_red", "bk_blue")]
    return _csv(("edge_class", "edges", *STATS_MEANS), rows)


def _csv(header, rows) -> str:
    """CSV text of a header row and data rows: None is an empty cell, a Fraction num/den."""
    import csv
    import io

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow("" if x is None else fraction_str(x) if isinstance(x, Fraction) else x for x in row)
    return buf.getvalue()


# -------------------------------------------------------------- regularity


def cmd_uniformity(args):
    """The oracle, or with ``--sampled`` the search, reads only its pair's
    bits off the graph6 line and runs without numpy."""
    from .graph6 import graph6_pair_rows
    from .oracle import check_sides

    cfg = load_config(args.config)
    if len(cfg["blocks"]) != 2:
        raise ValueError("uniformity needs exactly two blocks")
    eps = as_fraction(cfg["epsilon"])
    A, B = cfg["blocks"]
    n, data = cfg["graph"]
    check_sides(A, B, n)
    jsonable(eps)  # an epsilon too long to print (ValueError) exits before the scan
    if args.sampled:
        from .regularity import nonuniformity_search

        read = cache(partial(graph6_pair_rows, data))  # the search reads the pair (A, B) again
        rows, method, uniform = read(A, B), "search", None
        witness = nonuniformity_search(read, A, B, eps, samples=args.samples, seed=args.seed)
        summary = "non-uniformity witness found" if witness else "no witness found (certifies nothing)"
    else:
        from .oracle import first_witness, oracle_floors

        oracle_floors(eps, len(A), len(B))  # eps <= 0, then a side above the cap: refused before the pair is read
        rows = graph6_pair_rows(data, A, B)
        method, witness = "oracle", first_witness(A, B, rows, eps)
        uniform = witness is None
        summary = "pair is uniform at the given epsilon" if uniform else "pair is not uniform; witness attached"
    density = Fraction(sum(r.bit_count() for r in rows), len(A) * len(B))
    results = {"method": method, "density": density, "epsilon": eps, "uniform": uniform, "witness": witness}
    return results, summary, EXIT_FOUND if witness else EXIT_OK


LEMMA_FIELDS = ("check", "page", "bound", "actual", "satisfied")


def cmd_lemma_check(args):
    """Counting bounds on Python-int rows (``counting.MultiPair``), read
    off the graph6 line at every block size, without numpy."""
    from .counting import MultiPair
    from .graph6 import graph6_pair_rows
    from .oracle import ORACLE_SIDE_CAP

    cfg = load_config(args.config)
    eps = as_fraction(cfg["epsilon"])
    nbases = cfg.get("bases", 1)
    if type(nbases) is not int or nbases not in (1, 2):
        raise ValueError("'bases' must be 1 or 2")
    if len(cfg["blocks"]) < nbases + 1:
        raise ValueError("need at least one page block after the bases")
    n, data = cfg["graph"]
    mp = MultiPair(partial(graph6_pair_rows, data), n, cfg["blocks"][:nbases], cfg["blocks"][nbases:], eps)
    if eps <= 0:  # the oracle's refusal, at every t and before any pair is scanned
        raise ValueError("eps must be positive")
    if args.format == "json":  # the CSV rows print no epsilon
        jsonable(eps)
    t, k = mp.t, mp.k
    form = "shared" if nbases == 1 else "cross"

    pairs = []
    all_uniform: bool | None = True
    for i in range(nbases):
        for j in range(k):
            u = mp.uniform(i, j) if t <= ORACLE_SIDE_CAP else None
            if u is not True:
                all_uniform = None if u is None else False
            pairs.append({"base": i, "page": j, "uniform": u})
    certified = all_uniform is True

    # one LEMMA_FIELDS row per check, and all output read from the rows; a
    # bad-pair bound that does not apply leaves actual and satisfied None
    cap = 2 * eps * t * t
    rows = []
    for j in range(k):
        cnt = mp.bad_pair_count(j)
        rows.append((f"bad_pairs_{form}", j, cap, cnt, None if cnt is None else cnt <= cap))
    bound, actual = mp.triangle_bound()
    rows.append((f"triangle_{form}", None, bound, actual, actual >= bound))
    book = mp.book_bound()
    if book is not None:
        bound, base, pages = book
        rows.append((f"book_{form}", None, bound, len(pages), len(pages) >= bound))

    checks = [{f: v for f, v in zip(LEMMA_FIELDS, row) if f != "page" or v is not None} for row in rows]
    violations = sum(certified and ok is False for *_, ok in rows)
    positive = sum(page is None and bound > 0 for _, page, bound, *_ in rows)
    results = {
        "t": t,
        "k": k,
        "epsilon": eps,
        "bases": nbases,
        "pairs_uniform": pairs,
        "all_pairs_uniform": all_uniform,
        "checks": checks,
        "book_base": None if book is None else list(base),
        "violations": violations,
        "bounds_checked": len(rows),
        "positive_bounds": positive,
    }
    summary = (
        f"{len(rows)} checks, {positive} positive bounds, "
        f"{violations} certified violations"
    )
    return results, summary, EXIT_OK if violations == 0 else EXIT_FOUND


def lemma_csv(results) -> str:
    return _csv(LEMMA_FIELDS, ([row.get(f) for f in LEMMA_FIELDS] for row in results["checks"]))


def cmd_classify(args):
    """``counting.classify`` on rows read off the graph6 line; a pair past
    the oracle cap goes to ``regularity.nonuniformity_search`` on its red
    rows."""
    from .counting import classify
    from .graph6 import graph6_pair_rows

    cfg = load_config(args.config, required=("beta", "gamma"))
    eps, beta, gamma = (as_fraction(cfg[name]) for name in ("epsilon", "beta", "gamma"))

    def search(red, A, B):
        from .regularity import nonuniformity_search

        return nonuniformity_search(red, A, B, eps, samples=args.samples, seed=args.seed)

    n, data = cfg["graph"]
    labels = classify(partial(graph6_pair_rows, data), n, cfg["blocks"], eps, beta, gamma, search)
    counts = {"irr": 0, "blue": 0, "mid": 0, "red": 0}
    for row in labels:
        counts[row["label"]] += 1
    results = {
        "blocks": len(cfg["blocks"]),
        "t": len(cfg["blocks"][0]),
        "labels": labels,
        "counts": counts,
    }
    summary = ", ".join(f"{k}: {v}" for k, v in counts.items())
    return results, summary, EXIT_OK


def cmd_trichotomy(args):
    from .colorings import TwoColoring, read_any_file
    from .stability import trichotomy_check, trichotomy_floors

    g = read_any_file(args.file)
    if isinstance(g, TwoColoring):
        g = g.blue
    candidate = None
    if args.candidate:
        raw = _read_json(args.candidate, "candidate file")
        candidate = _vertex_lists(raw, g.n, 2, "candidate file must hold [U1, U2]")
    xi = as_fraction(args.xi)
    # the floors are the report's longest exact values (threshold_ii holds
    # xi^6): one too long to print (ValueError) exits before any O(n^2) work
    jsonable(trichotomy_floors(g.n, xi))
    (bk_blue, _), (bk_red, _) = g.books()
    rows, g = g.rows, None  # after the walk; the words go before the extractor runs
    res = trichotomy_check(rows, bk_blue, bk_red, xi, candidate=candidate, seed=args.seed)
    branches = ", ".join(f"({b}) {res[b]}" for b in ("i", "ii", "iii"))
    return res, branches, EXIT_OK


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
    p.set_defaults(handler=cmd_bk, seeded=False)

    p = sub.add_parser("verify", help="exhaustively verify a small Ramsey statement")
    p.add_argument("N", type=int)
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("--force", action="store_true", help="allow orders beyond the default cap")
    p.add_argument("--prune", action="store_true", help="fix vertex 0's star up to sorting")
    p.set_defaults(handler=cmd_verify, seeded=False)

    p = sub.add_parser("witness-check", help="certify a lower bound from a coloring file")
    p.add_argument("file")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.set_defaults(handler=cmd_witness_check, seeded=False)

    p = sub.add_parser("construct", help="write a lower-bound coloring to a BRC1 file")
    p.add_argument("kind", choices=("two-cliques", "tripartite"))
    p.add_argument("--q", type=int, help="clique parameter for two-cliques")
    p.add_argument("--n", type=int, help="order for tripartite (divisible by 3)")
    p.add_argument("--epsilon", help="margin parameter, decimal or num/den")
    p.add_argument("--delta", help="bias override (default 8.25 * epsilon)")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_construct, seeded=True)

    p = sub.add_parser("stats", help="codegree statistics of a coloring vs a 3-part split")
    p.add_argument("file")
    p.add_argument("--parts", help="JSON file with three vertex lists (default: contiguous thirds)")
    p.set_defaults(handler=cmd_stats, seeded=False, csv=stats_csv)

    p = sub.add_parser("uniformity", help="uniformity oracle on a two-block config")
    p.add_argument("config")
    p.add_argument("--sampled", action="store_true", help="use the witness search instead of the oracle")
    p.add_argument("--samples", type=int, default=1000)
    p.set_defaults(handler=cmd_uniformity, seeded=True)

    p = sub.add_parser("lemma-check", help="counting bounds on a bases-plus-pages config")
    p.add_argument("config")
    p.set_defaults(handler=cmd_lemma_check, seeded=False, csv=lemma_csv)

    p = sub.add_parser("classify", help="label block pairs irr/blue/mid/red")
    p.add_argument("config")
    p.add_argument("--samples", type=int, default=500)
    p.set_defaults(handler=cmd_classify, seeded=True)

    p = sub.add_parser("trichotomy", help="evaluate the three structure branches")
    p.add_argument("file")
    p.add_argument("--xi", required=True)
    p.add_argument("--candidate", help="JSON file [U1, U2] naming the bipartite parts")
    p.set_defaults(handler=cmd_trichotomy, seeded=True)

    return ap


def _parameters(args) -> dict:
    skip = {"handler", "seeded", "csv", "command", "format"}
    return {key: val for key, val in sorted(vars(args).items()) if key not in skip and val is not None}


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.format == "csv" and not hasattr(args, "csv"):
        print("error: --format csv is only available for tabular reports", file=sys.stderr)
        return EXIT_USAGE
    for flag in ("threads", "samples"):
        if getattr(args, flag, 1) < 1:
            print(f"error: --{flag} must be at least 1", file=sys.stderr)
            return EXIT_USAGE
    start = time.perf_counter()
    try:
        results, summary, code = args.handler(args)
        wall_ms = int(round((time.perf_counter() - start) * 1000))
        # built before anything is written: a value too long to print
        # (ValueError) then leaves stdout empty
        if args.format == "csv":
            text = args.csv(results)
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
