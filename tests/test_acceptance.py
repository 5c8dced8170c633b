"""Acceptance battery: one criterion per test, one printed verdict line each.

Each test prints "ACCEPTANCE <n> <label>: PASS|FAIL" through the capture
bypass so the lines land in the terminal output of a plain pytest run,
then asserts.  Tolerances are stated inline; counting and structure
checks are exact.
"""

import itertools
import json
import math
import subprocess
import sys
import time
import tracemalloc
import traceback
from fractions import Fraction

import numpy as np
import pytest

from bookramsey.colorings import (
    ConstructionParams,
    TwoColoring,
    construction_statistics,
    expected_book_sizes,
    margins,
    tripartite_parts,
    tripartite_random,
    two_cliques,
)
from bookramsey.ramsey import (
    Neither,
    check_coloring,
    exhaustive_verify,
)
from bookramsey.counting import MultiPair
from bookramsey.regularity import check_witness
from bookramsey.stability import (
    bipartite_extract,
    blue_book_bound,
    classify,
    red_book_bound,
)

from helpers import (
    Pair,
    coloring_of_index,
    complement_of,
    complete_bipartite,
    edges_between,
    empty_graph,
    from_edges,
    graph_of,
    oracle_witness,
    rows_of,
    to_graph6,
)

ENTRY = "from bookramsey.cli import main; import sys; sys.exit(main(sys.argv[1:]))"


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-c", ENTRY, *map(str, args)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    report = json.loads(proc.stdout) if proc.stdout.startswith("{") else None
    return proc.returncode, report


def conclude(capsys, num, label, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"ACCEPTANCE {num} {label}: {verdict}{tail}")
    assert ok, f"criterion {num} ({label}) failed: {detail}"


def guarded(fn):
    """Run a criterion body; any exception counts as a FAIL with its text."""
    try:
        return fn()
    except Exception:
        return False, traceback.format_exc(limit=3).replace("\n", " | ")


def test_criterion_1_ramsey_exactness_at_q2(capsys, tmp_path):
    def body():
        t0 = time.perf_counter()
        code, report = run_cli("verify", 7, 1, 2)
        single = time.perf_counter() - t0
        ok = code == 0
        res = report["results"]
        ok &= res["verdict"] == "forced"
        ok &= res["colorings_examined"] == 1 << 21
        ok &= single < 60.0

        t0 = time.perf_counter()
        code8, report8 = run_cli("verify", 7, 1, 2, "--threads", 8)
        eight = time.perf_counter() - t0
        ok &= code8 == 0 and report8["results"] == res
        ok &= eight < 10.0

        witness_file = tmp_path / "tc2.brc1"
        code, _ = run_cli("construct", "two-cliques", "--q", 2, "--out", witness_file)
        ok &= code == 0
        code, wreport = run_cli("witness-check", witness_file, 1, 2)
        ok &= code == 0
        ok &= wreport["results"]["claim"] == "r(B_1,B_2) > 6"
        detail = f"2^21 colorings in {single:.2f}s; {eight:.2f}s with --threads 8, which is only echoed"
        return ok, detail

    ok, detail = guarded(body)
    conclude(capsys, 1, "ramsey exactness r(B1,B2)=7", ok, detail)


def test_criterion_2_classical_triangle_consistency(capsys):
    def body():
        t0 = time.perf_counter()
        forced = exhaustive_verify(6, 1, 1)
        found = exhaustive_verify(5, 1, 1)
        elapsed = time.perf_counter() - t0
        ok = forced.verdict == "forced"
        ok &= found.verdict == "counterexample"
        ce = coloring_of_index(5, found.counterexample_index)
        # triangle-free both ways: no edge in either color has a common
        # neighbor in that color
        ok &= ce.blue.booksize()[0] == 0
        ok &= complement_of(ce.blue).booksize()[0] == 0
        ok &= elapsed < 1.0
        return ok, f"both orders scanned in {elapsed:.3f}s"

    ok, detail = guarded(body)
    conclude(capsys, 2, "classical r(3,3) consistency", ok, detail)


def test_criterion_3_two_clique_construction_invariants(capsys):
    def body():
        bad = [
            q
            for q in range(1, 101)
            if [size for size, _ in two_cliques(q).blue.books()] != [q - 1, 0]
        ]
        return not bad, f"q=1..100, zero tolerance, failures: {bad or 'none'}"

    ok, detail = guarded(body)
    conclude(capsys, 3, "two-clique booksizes", ok, detail)


def test_criterion_4_expectation_formulas(capsys):
    def body():
        eps = Fraction(1, 200)
        params = ConstructionParams(3000, eps)
        n = params.n
        p, qp = params.p, params.q_prob
        exp_ri, exp_bc, exp_rc = expected_book_sizes(params)

        stats_cache = {}

        def stats_for(order, seed):
            key = (order, seed)
            if key not in stats_cache:
                c = tripartite_random(ConstructionParams(order, eps, seed=seed))
                stats_cache[key] = construction_statistics(c, tripartite_parts(order))
            return stats_cache[key]

        seeds = range(20)
        sums = {"red_intra": Fraction(0), "blue_cross": Fraction(0), "red_cross": Fraction(0)}
        for seed in seeds:
            st = stats_for(n, seed)
            for cls in sums:
                sums[cls] += st[cls]["mean_codegree"]
        means = {cls: v / len(seeds) for cls, v in sums.items()}

        # 3 standard errors from the per-edge Bernoulli model, / sqrt(20)
        var_ri = Fraction(2 * n, 3) * p**2 * (1 - p**2)
        var_bc = Fraction(n, 3) * qp**2 * (1 - qp**2)
        var_rc = Fraction(n, 3) * p**2 * (1 - p**2) + (Fraction(2 * n, 3) - 2) * p * (1 - p)
        ok = True
        devs = []
        for cls, expected, var in (
            ("red_intra", exp_ri, var_ri),
            ("blue_cross", exp_bc, var_bc),
            ("red_cross", exp_rc, var_rc),
        ):
            dev = abs(float(means[cls] - expected))
            limit = 3.0 * math.sqrt(float(var) / len(seeds))
            devs.append(f"{cls} {dev:.3f}<{limit:.3f}")
            ok &= dev < limit

        k1, k2 = margins(params)
        ok &= abs(float(k1) - 0.0013656) <= 1e-7
        ok &= abs(float(k2) - 0.0006828) <= 1e-7

        # decreasing-ratio substitute property; 999 stands in for 1000
        # so the order stays divisible by 3
        ratios = {}
        for order in (300, 999, 3000):
            rs = [stats_for(order, s) for s in range(5)]
            ratios[order] = (
                sum(x["bk_red_over_n"] for x in rs) / 5,
                sum(x["bk_blue_over_n"] for x in rs) / 5,
            )
        for color in (0, 1):
            ok &= ratios[300][color] > ratios[999][color] > ratios[3000][color]
        trend = " > ".join(f"{float(ratios[o][0]):.4f}" for o in (300, 999, 3000))
        return ok, "; ".join(devs) + f"; k1,k2 within 1e-7; bk_R/n {trend}"

    ok, detail = guarded(body)
    conclude(capsys, 4, "construction expectations (3 SE)", ok, detail)


def _random_host(rng, n, p=0.5):
    edges = [
        (u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p
    ]
    return from_edges(n, edges)


def _config(host, bases, pages, eps):
    """(host, the counting bounds of its blocks on rows read off its line)."""
    return host, MultiPair(rows_of(host), host.n, bases, pages, eps)


def _certified(host, cfg):
    return all(
        oracle_witness(Pair(host, A, P), cfg.epsilon) is None
        for A in cfg.bases
        for P in cfg.pages
    )


def test_criterion_5_counting_lemma_suite(capsys):
    def body():
        rng = np.random.default_rng(2025)
        blocks3 = (tuple(range(10)), tuple(range(10, 20)), tuple(range(20, 30)))
        configs = []

        for _ in range(50):  # random shared: 1 base, 2 pages
            host = _random_host(rng, 30)
            configs.append(_config(host, blocks3[:1], blocks3[1:], Fraction(9, 20)))
        for _ in range(30):  # random cross: 2 bases, 1 page
            host = _random_host(rng, 30)
            configs.append(_config(host, blocks3[:2], blocks3[2:], Fraction(9, 20)))
        for eps in (Fraction(1, 100), Fraction(1, 50)):  # structured shared
            for _ in range(10):
                edges = [
                    (u, v)
                    for u, v in itertools.combinations(range(10), 2)
                    if rng.random() < 0.5
                ]
                edges += [(a, b) for a in range(10) for b in range(10, 30)]
                configs.append(_config(from_edges(30, edges), blocks3[:1], blocks3[1:], eps))
        for _ in range(10):  # structured cross, complete pages
            edges = [
                (a, 10 + b)
                for a in range(10)
                for b in range(10)
                if rng.random() < 0.5
            ]
            edges += [(v, b) for v in range(20) for b in range(20, 30)]
            configs.append(_config(from_edges(30, edges), blocks3[:2], blocks3[2:], Fraction(1, 100)))

        certified = [(host, cfg) for host, cfg in configs if _certified(host, cfg)]
        violations = 0
        positive_configs = 0
        checks = 0
        for host, cfg in certified:
            eps, t = cfg.epsilon, cfg.t
            bounds = []
            for j in range(cfg.k):
                bad = cfg.bad_pair_count(j)
                if bad is None:  # density precondition fails: no bound
                    continue
                checks += 1
                violations += bad > 2 * eps * t * t
            tb, ta = cfg.triangle_bound()
            checks += 1
            violations += ta < tb
            bounds.append(tb)
            if edges_between(host, cfg.bases[0], cfg.bases[-1]) > 0:
                bb, _, pages = cfg.book_bound()
                checks += 1
                violations += len(pages) < bb
                bounds.append(bb)
            positive_configs += all(b > 0 for b in bounds)

        ok = len(certified) >= 100 and violations == 0
        frac = positive_configs / len(certified) if certified else 0.0
        detail = (
            f"{len(certified)} certified configs, {checks} exact checks, "
            f"{violations} violations, positive-bound fraction {frac:.2f}"
        )
        return ok, detail

    ok, detail = guarded(body)
    conclude(capsys, 5, "counting-lemma bounds", ok, detail)


def test_criterion_6_uniformity_oracle(capsys):
    def body():
        ok = True
        eps_grid = [Fraction(1, 100), Fraction(1, 10), Fraction(1, 4), Fraction(1, 2)]

        def pair_of(host, ta, tb):
            return Pair(host, tuple(range(ta)), tuple(range(ta, ta + tb)))

        complete = from_edges(
            20, [(a, b) for a in range(10) for b in range(10, 20)]
        )
        empty = empty_graph(20)
        for eps in eps_grid:
            ok &= oracle_witness(pair_of(complete, 10, 10), eps) is None
            ok &= oracle_witness(pair_of(empty, 10, 10), eps) is None

        half = from_edges(
            20, [(i, 10 + j) for i in range(10) for j in range(10) if i <= j]
        )
        hp = pair_of(half, 10, 10)
        witness = oracle_witness(hp, Fraction(1, 10))
        ok &= witness is not None
        ok &= check_witness(hp.rows, hp.A, hp.B, Fraction(1, 10), *witness)

        rng = np.random.default_rng(66)
        revalidated = 0
        for _ in range(60):
            na, nb = int(rng.integers(4, 13)), int(rng.integers(4, 13))
            edges = [
                (a, na + b)
                for a in range(na)
                for b in range(nb)
                if rng.random() < rng.uniform(0.2, 0.8)
            ]
            pv = Pair(
                from_edges(na + nb, edges),
                tuple(range(na)),
                tuple(range(na, na + nb)),
            )
            witness = oracle_witness(pv, Fraction(1, 5))
            if witness is not None:
                revalidated += 1
                ok &= check_witness(pv.rows, pv.A, pv.B, Fraction(1, 5), *witness)
        ok &= revalidated >= 10
        return ok, f"half-graph witness valid; {revalidated} random witnesses re-validated"

    ok, detail = guarded(body)
    conclude(capsys, 6, "uniformity oracle", ok, detail)


def test_criterion_7_stability_bounds(capsys):
    def body():
        rng = np.random.default_rng(404)
        red_checked = blue_checked = 0
        violations = 0
        for _ in range(200):
            n = int(rng.integers(8, 40))
            m = np.triu(rng.random((n, n)) < rng.uniform(0.15, 0.7), k=1).astype(np.uint8)
            g = graph_of(m | m.T)
            rows = g.rows
            U1, U2 = bipartite_extract(rows, seed=int(rng.integers(1 << 16)))
            cls = classify(rows, U1, U2)
            flat = sorted(v for part in cls._asdict().values() for v in part)
            if flat != list(range(n)):
                violations += 1
                continue
            if len(cls.U2) >= 2:
                red_checked += 1
                if complement_of(g).booksize()[0] < red_book_bound(rows, cls):
                    violations += 1
            if cls.V3:
                blue_checked += 1
                if g.booksize()[0] < blue_book_bound(rows, cls):
                    violations += 1
        ok = violations == 0 and red_checked >= 150 and blue_checked >= 100
        detail = (
            f"200 instances; {red_checked} red-bound and {blue_checked} "
            f"blue-bound checks, {violations} violations"
        )
        return ok, detail

    ok, detail = guarded(body)
    conclude(capsys, 7, "stability book bounds", ok, detail)


def test_criterion_8_thread_determinism(capsys, tmp_path):
    def body():
        half = from_edges(
            200,
            [(i, 100 + j) for i in range(100) for j in range(100) if i <= j],
        )
        half_cfg = tmp_path / "half.json"
        half_cfg.write_text(
            json.dumps(
                {
                    "graph": to_graph6(half),
                    "blocks": [list(range(100)), list(range(100, 200))],
                    "epsilon": "1/10",
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
        cls_cfg = tmp_path / "cls.json"
        cls_cfg.write_text(
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
        kbb = tmp_path / "kbb.g6"
        kbb.write_text(to_graph6(complete_bipartite(10, 10)) + "\n")

        commands = [
            ("construct", "tripartite", "--n", 30, "--epsilon", "1/200",
             "--out", tmp_path / "a.brc1", "--seed", 9),
            ("construct", "tripartite", "--n", 300, "--epsilon", "1/200",
             "--out", tmp_path / "b.brc1", "--seed", 7),
            ("construct", "tripartite", "--n", 30, "--epsilon", "1/300",
             "--out", tmp_path / "c.brc1", "--seed", 2),
            ("construct", "two-cliques", "--q", 6, "--out", tmp_path / "d.brc1",
             "--seed", 1),
            ("uniformity", half_cfg, "--sampled", "--samples", 200, "--seed", 5),
            ("uniformity", half_cfg, "--sampled", "--samples", 200, "--seed", 6),
            ("classify", cls_cfg, "--seed", 5),
            ("classify", cls_cfg, "--seed", 11),
            ("trichotomy", kbb, "--xi", "1/10", "--seed", 5),
            ("trichotomy", kbb, "--xi", "1/20", "--seed", 3),
        ]
        ok = True
        for argv in commands:
            payloads = set()
            for threads in (1, 4, 8):
                code, report = run_cli(*argv, "--threads", threads)
                if report is None:
                    ok = False
                    break
                payloads.add(json.dumps(report["results"], sort_keys=True))
            ok &= len(payloads) == 1
        return ok, "10 seeded commands x threads {1,4,8}, identical results payloads"

    ok, detail = guarded(body)
    conclude(capsys, 8, "seeded thread determinism", ok, detail)


def test_criterion_9_ramsey_at_order_nine(capsys):
    # the figures were first taken from the one-pass block scan, which
    # ran every candidate through the kernel
    def body():
        t0 = time.perf_counter()
        code, report = run_cli("verify", 9, 2, 2, "--prune", "--force")
        res = report["results"]
        ok = code == 10 and res["verdict"] == "counterexample"
        ok &= res["colorings_examined"] == 1182668429
        ok &= (res["counterexample_n"], res["counterexample_hex"]) == (9, "d70aa0f66")
        witness = TwoColoring.from_brc1(f"BRC1 9\n{res['counterexample_hex']}\n")
        ok &= isinstance(check_coloring(witness, 2, 2), Neither)

        code, report = run_cli("verify", 9, 1, 3, "--prune", "--force")
        res = report["results"]
        ok &= code == 0 and res == {"colorings_examined": 9 << 28, "verdict": "forced"}
        elapsed = time.perf_counter() - t0
        return ok, f"r(B2,B2) > 9 and r(B1,B3) <= 9 in {elapsed:.2f}s, two fresh processes"

    ok, detail = guarded(body)
    conclude(capsys, 9, "ramsey at K_9: r(B2,B2) > 9, r(B1,B3) <= 9", ok, detail)


def test_criterion_10_ramsey_at_order_ten(capsys):
    # the figures were first taken from the scan whose prefix pass ran
    # every prefix through the kernel, 2^28 of them per scenario
    def body():
        t0 = time.perf_counter()
        code, report = run_cli("verify", 10, 2, 2, "--prune", "--force")
        ok = code == 0 and report["results"] == {"colorings_examined": 10 << 36, "verdict": "forced"}

        code, report = run_cli("verify", 10, 2, 3, "--prune", "--force")
        res = report["results"]
        ok &= code == 10 and res["verdict"] == "counterexample"
        ok &= res["colorings_examined"] == 306008746036
        ok &= (res["counterexample_n"], res["counterexample_hex"]) == (10, "fac05aa1f670")
        witness = TwoColoring.from_brc1(f"BRC1 10\n{res['counterexample_hex']}\n")
        ok &= isinstance(check_coloring(witness, 2, 3), Neither)
        elapsed = time.perf_counter() - t0

        # every level streams its prefixes: one kernel batch per level is live
        tracemalloc.start()
        try:
            out = exhaustive_verify(10, 2, 2, force=True, prune=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        ok &= (out.verdict, out.colorings_examined) == ("forced", 10 << 36)
        ok &= peak < 16 << 20
        return ok, f"r(B2,B2) <= 10 and r(B2,B3) > 10 in {elapsed:.2f}s, two fresh processes; peak {peak / 2**20:.1f} MB"

    ok, detail = guarded(body)
    conclude(capsys, 10, "ramsey at K_10: r(B2,B2) <= 10, r(B2,B3) > 10", ok, detail)
