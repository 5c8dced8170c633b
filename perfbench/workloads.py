"""The three command scripts the benchmark runs, with their inputs and checks.

``build(name, seed, workdir)`` writes a workload's input files into
``workdir`` and returns a ``Plan``: the CLI commands of one round, each
with a check that compares its report (and any file it wrote) against
``reference``.  Every input is a pure function of the seed.  Graph6
inputs are encoded with networkx, so the program's decoder reads files
it did not write.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import networkx as nx
import numpy as np

import reference as ref
from reference import expect

WORKLOADS = ("dense-construct", "exhaustive-verify", "structure")

# Nominal length of one round on the reference box (2 shared CPUs).  A
# run makes ``seconds // ROUND_SECONDS`` rounds, at least one, so the
# number of rounds follows ``--seconds`` alone and never the program's
# speed: at 40 s that is 1, 2 and 4 rounds.
ROUND_SECONDS = {"dense-construct": 25, "exhaustive-verify": 17, "structure": 10}

# the two runs of one scan whose ``results`` must be equal
THREAD_PAIR = ("verify-8-1-2-prune-t1", "verify-8-1-2-prune-t2")

EXIT_OK = 0
EXIT_FOUND = 10


@dataclass
class Op:
    """One CLI invocation of a round.

    ``group`` names the per-command timing it adds to; ``check`` raises
    CheckFailed when the exit code or report is wrong.
    """

    label: str
    group: str
    argv: list[str]
    check: Callable[[int, dict], None]


@dataclass
class Plan:
    ops: list[Op]
    round_checks: list[Callable[[dict], None]] = field(default_factory=list)


def usable_threads() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def results_of(report: dict) -> dict:
    expect(isinstance(report, dict) and isinstance(report.get("results"), dict), "no results payload")
    return report["results"]


def expect_code(code: int, want: int, label: str) -> None:
    expect(code == want, f"{label}: exit code {code}, expected {want}")


def graph6_text(adj: np.ndarray) -> str:
    """Graph6 of an adjacency matrix, encoded by networkx (no header, no newline)."""
    g = nx.Graph()
    g.add_nodes_from(range(adj.shape[0]))
    g.add_edges_from(zip(*np.nonzero(np.triu(adj, 1))))
    return nx.to_graph6_bytes(g, header=False).decode("ascii").strip()


def write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def random_symmetric(rng, n: int, p: float) -> np.ndarray:
    upper = np.triu(rng.random((n, n)) < p, 1)
    return (upper | upper.T).astype(np.uint8)


# ------------------------------------------------------------ dense-construct


def dense_construct(seed: int, work: Path) -> Plan:
    n, q2 = 3000, 500
    eps = Fraction(1, 200)
    tri_path, tc_path = work / "tri.brc1", work / "tc.brc1"

    bits = ref.tripartite_bits(n, eps, seed)
    tri_text = ref.brc1_text(n, bits)
    blue = ref.adjacency_from_bits(n, bits)
    del bits
    bk_blue = ref.booksize(blue)
    bk_red = ref.booksize(ref.complement(blue))
    stats = ref.construction_statistics(blue)
    del blue
    params = ref.tripartite_parameters(eps, n)
    p_w, q_w = bk_red[0] + 1, bk_blue[0] + 1

    tc_bits = ref.two_clique_bits(q2)
    tc_text = ref.brc1_text(2 * q2 + 2, tc_bits)
    tc_blue = ref.adjacency_from_bits(2 * q2 + 2, tc_bits)
    tc_bk_blue = ref.booksize(tc_blue)[0]
    tc_bk_red = ref.booksize(ref.complement(tc_blue))[0]
    del tc_blue, tc_bits

    def file_matches(path: Path, text: str) -> None:
        expect(path.read_text(encoding="ascii") == text, f"{path.name} differs from the re-derived BRC1 file")

    def check_tri(code, report):
        expect_code(code, EXIT_OK, "construct tripartite")
        res = results_of(report)
        ref.same_report_value(res, {"kind": "tripartite", "n": n, "file": str(tri_path), **params}, "construct")
        file_matches(tri_path, tri_text)

    def side(bk):
        return {"booksize": bk[0], "base": list(bk[1]) if bk[1] is not None else None}

    def check_bk(code, report):
        expect_code(code, EXIT_OK, "bk")
        want = {"kind": "coloring", "n": n, "blue": side(bk_blue), "red": side(bk_red)}
        ref.same_report_value(results_of(report), want, "bk")

    def check_stats(code, report):
        expect_code(code, EXIT_OK, "stats")
        ref.same_report_value(results_of(report), stats, "stats")

    def certificate(nv, p, q):
        return {"verdict": "certificate", "n": nv, "p": p, "q": q, "claim": f"r(B_{p},B_{q}) > {nv}"}

    def check_witness_tri(code, report):
        expect_code(code, EXIT_OK, "witness-check tripartite")
        ref.same_report_value(results_of(report), certificate(n, p_w, q_w), "witness-check")

    def check_tc(code, report):
        expect_code(code, EXIT_OK, "construct two-cliques")
        want = {"kind": "two-cliques", "n": 2 * q2 + 2, "q": q2, "bk_blue": tc_bk_blue, "bk_red": tc_bk_red, "file": str(tc_path)}
        ref.same_report_value(results_of(report), want, "construct two-cliques")
        file_matches(tc_path, tc_text)

    def check_witness_tc(code, report):
        expect(tc_bk_blue < q2 and tc_bk_red < 1, "two-clique reference holds a book")
        expect_code(code, EXIT_OK, "witness-check two-cliques")
        ref.same_report_value(results_of(report), certificate(2 * q2 + 2, 1, q2), "witness-check")

    ops = [
        Op("construct-tripartite", "construct_s",
           ["construct", "tripartite", "--n", str(n), "--epsilon", "1/200", "--seed", str(seed), "--out", str(tri_path)],
           check_tri),
        Op("bk", "bk_s", ["bk", str(tri_path)], check_bk),
        Op("stats", "stats_s", ["stats", str(tri_path)], check_stats),
        Op("witness-check-tripartite", "witness_s", ["witness-check", str(tri_path), str(p_w), str(q_w)], check_witness_tri),
        Op("construct-two-cliques", "construct_s",
           ["construct", "two-cliques", "--q", str(q2), "--out", str(tc_path)], check_tc),
        Op("witness-check-two-cliques", "witness_s", ["witness-check", str(tc_path), "1", str(q2)], check_witness_tc),
    ]
    return Plan(ops)


# ---------------------------------------------------------- exhaustive-verify


def verify_check(N: int, p: int, q: int, prune: bool, label: str):
    r = ref.book_ramsey(p, q)
    forced = N >= r
    size = ref.enumeration_size(N, prune)

    def check(code, report):
        res = results_of(report)
        if forced:
            expect_code(code, EXIT_OK, label)
            expect(res == {"verdict": "forced", "colorings_examined": size},
                   f"{label}: {res} is not a forced verdict over {size} colorings (r(B_{p},B_{q}) = {r})")
            return
        expect_code(code, EXIT_FOUND, label)
        expect(res.get("verdict") == "counterexample", f"{label}: verdict {res.get('verdict')!r}, r(B_{p},B_{q}) = {r} > {N}")
        expect(res.get("counterexample_n") == N, f"{label}: counterexample order {res.get('counterexample_n')}")
        examined = res.get("colorings_examined")
        expect(isinstance(examined, int) and 1 <= examined <= size, f"{label}: colorings_examined {examined} outside 1..{size}")
        ref.check_counterexample(N, p, q, res.get("counterexample_hex", ""))

    return check


def exhaustive_verify(seed: int, work: Path) -> Plan:
    two = min(2, usable_threads())
    # (label, N, p, q, prune, threads, group)
    table = [
        ("verify-7-1-2", 7, 1, 2, False, 1, "verify_forced_s"),
        ("verify-8-1-2-prune-t1", 8, 1, 2, True, 1, "verify_forced_s"),
        ("verify-8-1-2-prune-t2", 8, 1, 2, True, two, "verify_forced_s"),
        ("verify-8-2-2-prune-t2", 8, 2, 2, True, two, "verify_counterexample_s"),
        ("verify-8-1-3-prune", 8, 1, 3, True, 1, "verify_counterexample_s"),
    ]
    ops = []
    for label, N, p, q, prune, threads, group in table:
        argv = ["verify", str(N), str(p), str(q), "--threads", str(threads)] + (["--prune"] if prune else [])
        ops.append(Op(label, group, argv, verify_check(N, p, q, prune, label)))
    # the seed only fixes the order of the commands within a round
    order = np.random.default_rng(seed).permutation(len(ops))
    ops = [ops[k] for k in order]

    def same_payload(reports):
        a, b = (reports.get(k) for k in THREAD_PAIR)
        if a is None or b is None:
            return  # a failed operation is counted as failed, not compared
        expect(a["results"] == b["results"], f"results differ between thread counts: {a['results']} vs {b['results']}")

    return Plan(ops, round_checks=[same_payload])


# ------------------------------------------------------------------ structure


def bipartite_host(rng, na: int, nb: int, cross: np.ndarray, inside_p: float = 0.5):
    """Host graph on na + nb shuffled vertices; ``cross`` is the A x B pattern."""
    n = na + nb
    perm = rng.permutation(n)
    A, B = perm[:na], perm[na:]
    adj = random_symmetric(rng, n, inside_p)
    adj[np.ix_(A, B)] = cross
    adj[np.ix_(B, A)] = cross.T
    return adj, [int(v) for v in A], [int(v) for v in B]


def half_graph(na: int, nb: int) -> np.ndarray:
    return (np.arange(na)[:, None] <= np.arange(nb)[None, :]).astype(np.uint8)


def uniformity_config(work: Path, name: str, adj, A, B, eps: Fraction) -> str:
    return write_json(work / name, {"graph": graph6_text(adj), "blocks": [A, B], "epsilon": str(eps)})


def structure(seed: int, work: Path) -> Plan:
    rng = np.random.default_rng([seed, 3])
    t_oracle, t_search, t_lemma, t_cls, n_tri = 16, 300, 16, 12, 999
    eps = Fraction(1, 10)
    ops: list[Op] = []

    def uniformity_op(label, group, path, adj, A, B, expect_uniform, extra=()):
        method = "search" if "--sampled" in extra else "oracle"
        density = ref.pair_density(adj, A, B)

        def check(code, report):
            res = results_of(report)
            expect(res.get("method") == method, f"{label}: method {res.get('method')!r}")
            expect(ref.frac(res.get("density")) == density, f"{label}: density {res.get('density')} != {density}")
            expect(ref.frac(res.get("epsilon")) == eps, f"{label}: epsilon {res.get('epsilon')}")
            if expect_uniform:
                expect_code(code, EXIT_OK, label)
                expect(res.get("witness") is None, f"{label}: witness on a pair planted uniform")
                expect(res.get("uniform") is (True if method == "oracle" else None), f"{label}: uniform = {res.get('uniform')!r}")
                return
            expect_code(code, EXIT_FOUND, label)
            expect(res.get("uniform") is (False if method == "oracle" else None), f"{label}: uniform = {res.get('uniform')!r}")
            w = res.get("witness")
            expect(isinstance(w, list) and len(w) == 2, f"{label}: no witness")
            ref.check_witness(adj, A, B, w[0], w[1], eps)

        ops.append(Op(label, group, ["uniformity", path, *extra], check))

    # exact oracle: a density-0 pair (full 2^t scan) and a half graph (early witness)
    zero = np.zeros((t_oracle, t_oracle), dtype=np.uint8)
    adj, A, B = bipartite_host(rng, t_oracle, t_oracle, zero)
    uniformity_op("oracle-empty", "oracle_s", uniformity_config(work, "empty.json", adj, A, B, eps), adj, A, B, True)
    adj, A, B = bipartite_host(rng, t_oracle, t_oracle, half_graph(t_oracle, t_oracle))
    uniformity_op("oracle-half", "oracle_s", uniformity_config(work, "half.json", adj, A, B, eps), adj, A, B, False)

    # sampled search: complete K_{t,t} (no witness, every sample) and a half graph
    sampled = ("--sampled", "--samples", "1000", "--seed", str(seed))
    full = np.ones((t_search, t_search), dtype=np.uint8)
    adj, A, B = bipartite_host(rng, t_search, t_search, full)
    uniformity_op("search-complete", "search_s", uniformity_config(work, "kbb.json", adj, A, B, eps), adj, A, B, True, sampled)
    adj, A, B = bipartite_host(rng, t_search, t_search, half_graph(t_search, t_search))
    uniformity_op("search-half", "search_s", uniformity_config(work, "halfbig.json", adj, A, B, eps), adj, A, B, False, sampled)

    # lemma-check: one base block with random inside edges, pages complete to it
    lemma_eps = Fraction(1, 100)
    n_l = 3 * t_lemma
    perm = rng.permutation(n_l)
    base, pages = perm[:t_lemma].tolist(), [perm[t_lemma:2 * t_lemma].tolist(), perm[2 * t_lemma:].tolist()]
    adj_l = random_symmetric(rng, n_l, 0.5)
    for P in pages:
        adj_l[np.ix_(base, P)] = 1
        adj_l[np.ix_(P, base)] = 1
    lemma = ref.lemma_reference(adj_l, base, pages, lemma_eps)
    for P in pages:
        expect(ref.uniform_by_density(ref.pair_density(adj_l, base, P), lemma_eps), "lemma pages are not certified uniform")
    lemma_path = write_json(work / "lemma.json", {"graph": graph6_text(adj_l), "blocks": [base, *pages],
                                                 "epsilon": str(lemma_eps), "bases": 1})

    def check_lemma(code, report):
        expect_code(code, EXIT_OK, "lemma-check")
        res = results_of(report)
        want = dict(lemma, pairs_uniform=[{"base": 0, "page": j, "uniform": True} for j in range(len(pages))],
                    all_pairs_uniform=True, violations=0)
        expect(set(res) == set(want), f"lemma-check: keys {sorted(res)}")
        for key in want:
            if key != "checks":
                ref.same_report_value(res[key], want[key], f"lemma-check.{key}")
        expect(len(res["checks"]) == len(want["checks"]), "lemma-check: number of checks")
        for got, row in zip(res["checks"], want["checks"]):
            ref.same_report_value(got, row, f"lemma-check.{row['check']}")

    ops.append(Op("lemma-check", "lemma_s", ["lemma-check", lemma_path], check_lemma))

    # classify: six blocks, every pair planted red, blue, mid or irr
    cls_eps, beta, gamma = Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)
    nblocks = 6
    perm = rng.permutation(nblocks * t_cls)
    blocks = [perm[k * t_cls:(k + 1) * t_cls].tolist() for k in range(nblocks)]
    pairs = [(i, j) for i in range(nblocks) for j in range(i + 1, nblocks)]
    planted = (["red"] * 4 + ["blue"] * 4 + ["mid"] * 4 + ["irr"] * 3)
    planted = [planted[k] for k in rng.permutation(len(planted))]
    red = random_symmetric(rng, nblocks * t_cls, 0.5)
    for (i, j), label in zip(pairs, planted):
        if label == "red":
            cross = np.ones((t_cls, t_cls), dtype=np.uint8)
        elif label == "blue":
            cross = np.zeros((t_cls, t_cls), dtype=np.uint8)
        elif label == "mid":
            cross = np.zeros(t_cls * t_cls, dtype=np.uint8)
            cross[rng.permutation(t_cls * t_cls)[: t_cls * t_cls // 2]] = 1
            cross = cross.reshape(t_cls, t_cls)
        else:
            cross = half_graph(t_cls, t_cls)
        red[np.ix_(blocks[i], blocks[j])] = cross
        red[np.ix_(blocks[j], blocks[i])] = cross.T
    labels = []
    for (i, j), label in zip(pairs, planted):
        d = ref.pair_density(red, blocks[i], blocks[j])
        if label == "irr":
            # the lower half of A misses the first half of B entirely
            h = t_cls // 2
            ref.check_witness(red, blocks[i], blocks[j], blocks[i][h:], blocks[j][:h], cls_eps)
            derived = "irr"
        else:
            expect(ref.uniform_by_density(d, cls_eps), f"planted pair {(i, j)} is not certified uniform")
            derived = "blue" if d < beta else "mid" if d < 1 - gamma else "red"
        expect(derived == label, f"planted pair {(i, j)} derives {derived}, planted {label}")
        labels.append({"pair": [i, j], "label": label, "red_density": d, "method": "oracle"})
    counts = {k: planted.count(k) for k in ("irr", "blue", "mid", "red")}
    cls_path = write_json(work / "classify.json", {
        "graph": graph6_text(ref.complement(red)), "blocks": blocks,
        "epsilon": str(cls_eps), "beta": str(beta), "gamma": str(gamma)})

    def check_classify(code, report):
        expect_code(code, EXIT_OK, "classify")
        want = {"blocks": nblocks, "t": t_cls, "labels": labels, "counts": counts}
        res = results_of(report)
        expect(set(res) == set(want), f"classify: keys {sorted(res)}")
        expect(isinstance(res["labels"], list) and len(res["labels"]) == len(labels), "classify: label count")
        for got, row in zip(res["labels"], labels):
            ref.same_report_value(got, row, f"classify.pair{row['pair']}")
        ref.same_report_value(res["counts"], counts, "classify.counts")
        expect(res["blocks"] == nblocks and res["t"] == t_cls, "classify: block shape")

    ops.append(Op("classify", "classify_s", ["classify", cls_path, "--seed", str(seed)], check_classify))

    # trichotomy: two independent parts, 90% joined, plus outside vertices
    xi = Fraction(1, 5)
    perm = rng.permutation(n_tri)
    u = (n_tri * 9 // 10) // 2
    U1, U2, V = sorted(perm[:u].tolist()), sorted(perm[u:2 * u].tolist()), perm[2 * u:]
    blue = np.zeros((n_tri, n_tri), dtype=np.uint8)
    blue[np.ix_(U1, U2)] = rng.random((u, u)) < 0.9
    blue[np.ix_(U2, U1)] = blue[np.ix_(U1, U2)].T
    noise = random_symmetric(rng, n_tri, 0.5)
    blue[V, :] = noise[V, :]
    blue[:, V] = noise[:, V]
    np.fill_diagonal(blue, 0)
    tri_path = work / "near_bipartite.g6"
    tri_path.write_text(graph6_text(blue) + "\n")
    cand_path = write_json(work / "candidate.json", [U1, U2])
    want_cand = ref.trichotomy_reference(blue, xi, U1, U2)

    def check_candidate(code, report):
        expect_code(code, EXIT_OK, "trichotomy --candidate")
        ref.same_report_value(results_of(report), want_cand, "trichotomy")

    def check_extractor(code, report):
        expect_code(code, EXIT_OK, "trichotomy")
        res = results_of(report)
        expect(set(res) == set(want_cand), f"trichotomy: keys {sorted(res)}")
        for key in ("i", "ii", "bk_blue", "bk_red", "threshold_ii", "order_floor", "delta_floor"):
            ref.same_report_value(res[key], want_cand[key], f"trichotomy.{key}")
        expect(res["G0_source"] == "extractor", "trichotomy: G0 source")
        order, delta = res["G0_order"], res["delta_G0"]
        expect(isinstance(order, int) and 0 <= order <= n_tri and isinstance(delta, int) and 0 <= delta <= order,
               f"trichotomy: G0 order {order}, min degree {delta}")
        holds = order >= want_cand["order_floor"] and delta > want_cand["delta_floor"]
        expect(res["iii"] == (True if holds else "unknown"), f"trichotomy: iii = {res['iii']!r} for order {order}, degree {delta}")
        v3 = ref.frac(res["e_U_V3_reference"]) / ((1 - 2 * xi) * Fraction(n_tri, 4))
        expect(v3.denominator == 1 and 0 <= v3 <= n_tri - order, f"trichotomy: |V3| = {v3}")

    tri_argv = ["trichotomy", str(tri_path), "--xi", str(xi), "--seed", str(seed)]
    ops.append(Op("trichotomy", "trichotomy_s", tri_argv, check_extractor))
    ops.append(Op("trichotomy-candidate", "trichotomy_s", tri_argv + ["--candidate", cand_path], check_candidate))
    return Plan(ops)


BUILDERS = {"dense-construct": dense_construct, "exhaustive-verify": exhaustive_verify, "structure": structure}


def build(name: str, seed: int, work: Path) -> Plan:
    return BUILDERS[name](seed, Path(work))

