"""Differential tests: the set counts behind the counting bounds and the
vertex classification, against the bigint loops they replaced.

Each reference below is the loop regularity.py and stability.py ran over
Python-int adjacency rows before ``Graph`` stored packed words; the
package must agree with it exactly: the same counts, the same first
largest book, the same classes and the same errors.  The command line's
``lemma-check`` and ``classify``, which read their rows off the graph6
line at every block size, must give the payloads that these references
and the library API give.
"""

import contextlib
import csv
import io
import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bookramsey import cli, counting
from bookramsey.colex import bits_of
from bookramsey.colorings import TwoColoring
from bookramsey.counting import MultiPair, vertex_mask
from bookramsey.numbers import fraction_str
from bookramsey.oracle import ORACLE_SIDE_CAP
from bookramsey.regularity import check_witness, nonuniformity_search
from bookramsey.stability import blue_book_bound, classify, edges_between, red_book_bound

from helpers import Pair, classification_report, complement_of, graph_of, oracle_witness, rows_of, to_graph6
from test_structure_kernels import ref_b_rows, ref_uniformity_oracle

# ---------------------------------------------------------------- references


def ref_cross_count(g, X, Y):
    my, rows = vertex_mask(Y), g.rows
    return sum((rows[x] & my).bit_count() for x in X)


def ref_bad_pairs(host, cfg, j):
    """Bad pairs into page block j, or None where the density precondition
    fails: unordered pairs in A with eps < d for one base, A1 x A2 with
    2 eps <= d_i for two."""
    eps, B, rows = cfg.epsilon, cfg.pages[j], host.rows
    A1, A2 = cfg.bases[0], cfg.bases[-1]
    d1, d2 = (Fraction(ref_cross_count(host, A, B), len(A) * len(B)) for A in (A1, A2))
    one = len(cfg.bases) == 1
    if not (eps < d1 if one else 2 * eps <= min(d1, d2)):
        return None
    thr = (d1 - eps) * (d2 - eps) * len(B)
    mb = vertex_mask(B)
    pairs = itertools.combinations(A1, 2) if one else itertools.product(A1, A2)
    return sum(1 for u, v in pairs if (rows[u] & rows[v] & mb).bit_count() <= thr)


def ref_books(host, cfg):
    """(triangle count, first largest book as (base, pages), or None without edges)."""
    rows = host.rows
    if len(cfg.bases) == 1:
        ma = vertex_mask(cfg.bases[0])
        edges = [(u, v) for u in bits_of(ma) for v in bits_of(rows[u] & ma) if v > u]
    else:
        A1, A2 = cfg.bases
        m2 = vertex_mask(A2)
        edges = [(u, v) for u in A1 for v in bits_of(rows[u] & m2)]
    pages = vertex_mask(v for p in cfg.pages for v in p)
    if not edges:
        return 0, None
    u, v = max(edges, key=lambda e: (rows[e[0]] & rows[e[1]] & pages).bit_count())
    total = sum((rows[a] & rows[b] & pages).bit_count() for a, b in edges)
    return total, ((min(u, v), max(u, v)), frozenset(bits_of(rows[u] & rows[v] & pages)))


def ref_classify(g, U1, U2):
    rows = g.rows
    m1, m2 = vertex_mask(U1), vertex_mask(U2)
    for name, part, m in (("U1", U1, m1), ("U2", U2, m2)):
        for v in sorted(part):
            if rows[v] & m:
                raise ValueError(f"{name} is not independent: vertex {v} has a neighbor inside")
    classes = {"V1": [], "V2": [], "V3": [], "V_iso": []}
    for u in range(g.n):
        if (m1 | m2) >> u & 1:
            continue
        has1, has2 = bool(rows[u] & m1), bool(rows[u] & m2)
        classes["V3" if has1 and has2 else "V1" if has1 else "V2" if has2 else "V_iso"].append(u)
    return {k: tuple(v) for k, v in classes.items()}


# ------------------------------------------------------------------ inputs


def random_graph(rng, n, p):
    upper = np.triu(rng.random((n, n)) < p, 1)
    return upper | upper.T


@st.composite
def configs(draw):
    t = draw(st.integers(1, 6))
    nbases = draw(st.sampled_from([1, 2]))
    k = draw(st.integers(1, 3))
    n = t * (nbases + k) + draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    host = graph_of(random_graph(rng, n, draw(st.floats(0.05, 0.95))))
    perm = rng.permutation(n).tolist()
    blocks = [perm[i * t : (i + 1) * t] for i in range(nbases + k)]
    eps = draw(st.sampled_from([Fraction(0), Fraction(1, 20), Fraction(1, 10), Fraction(1, 4)]))
    return host, MultiPair(rows_of(host), n, blocks[:nbases], blocks[nbases:], eps)


@st.composite
def graphs_with_parts(draw):
    n = draw(st.integers(0, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    adj = random_graph(rng, n, draw(st.floats(0, 1)))
    labels = rng.integers(0, 3, size=n)
    U1, U2 = (np.flatnonzero(labels == s).tolist() for s in (0, 1))
    if draw(st.booleans()):  # make both parts independent
        for part in (U1, U2):
            adj[np.ix_(part, part)] = False
    return graph_of(adj), U1, U2


# ------------------------------------------------------------------ tests


@settings(max_examples=200, deadline=None)
@given(configs())
def test_counting_bounds_match_the_bigint_loops(case):
    host, cfg = case
    total, book = ref_books(host, cfg)
    assert cfg.triangle_bound()[1] == total
    if book is not None:
        _, base, pages = cfg.book_bound()
        assert (base, pages) == book
    else:
        assert cfg.book_bound() is None
    for j in range(cfg.k):
        pair = Pair(host, cfg.bases[0], cfg.pages[j])
        assert pair.rows(pair.A, pair.B) == ref_b_rows(pair)
        assert edges_between(host.rows, pair.A, pair.B) == ref_cross_count(host, pair.A, pair.B)
        want = ref_bad_pairs(host, cfg, j)
        if want is None:
            assert cfg.bad_pair_count(j) is None
        else:
            assert cfg.bad_pair_count(j) == want


@settings(max_examples=200, deadline=None)
@given(graphs_with_parts())
def test_classification_matches_the_bigint_loops(case):
    g, U1, U2 = case
    try:
        want = ref_classify(g, U1, U2)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{exc}$"):
            classify(g.rows, U1, U2)
        return
    cls = classify(g.rows, U1, U2)
    assert {k: v for k, v in cls._asdict().items() if k.startswith("V")} == want
    report = classification_report(g, cls)
    assert report["e_U1_V2"] == ref_cross_count(g, cls.U1, cls.V2)
    assert report["e_U2_V1"] == ref_cross_count(g, cls.U2, cls.V1)
    assert report["e_U_V3"] == ref_cross_count(g, cls.U1 + cls.U2, cls.V3)
    if len(cls.U2) >= 2:
        e23 = ref_cross_count(g, cls.U2, cls.V3)
        want_red = len(cls.U2) - 2 + len(cls.V1) + len(cls.V3) - Fraction(2 * e23, len(cls.U2))
        assert red_book_bound(g.rows, cls) == want_red
    if cls.V3:
        delta = report["delta_G0"]
        want_blue = max(
            Fraction(ref_cross_count(g, cls.V3, part), len(cls.V3)) + delta - len(part) for part in (cls.U1, cls.U2)
        )
        assert blue_book_bound(g.rows, cls) == want_blue


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 40), st.data())
def test_witness_check_counts_like_the_bigint_loop(seed, n, data):
    rng = np.random.default_rng(seed)
    g = graph_of(random_graph(rng, n, float(rng.random())))
    perm = rng.permutation(n).tolist()
    cut = data.draw(st.integers(1, n - 1))
    pair = Pair(g, perm[:cut], perm[cut:])
    X = data.draw(st.lists(st.sampled_from(pair.A), min_size=1, unique=True))
    Y = data.draw(st.lists(st.sampled_from(pair.B), min_size=1, unique=True))
    eps = Fraction(1, data.draw(st.integers(1, 20)))
    d = Fraction(ref_cross_count(g, X, Y), len(X) * len(Y))
    floor_ok = len(X) >= -(-eps.numerator * cut // eps.denominator) and len(Y) >= -(
        -eps.numerator * (n - cut) // eps.denominator
    )
    density = Fraction(ref_cross_count(g, pair.A, pair.B), cut * (n - cut))
    assert check_witness(pair.rows, pair.A, pair.B, eps, X, Y) == (floor_ok and abs(d - density) > eps)


# ------------------------------------------------- the command line's routes

REF_ORACLE_SIDE = 10  # the reference oracle scans 2^t subsets per pair: past this, too slow to run often


def run_main(*argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def planted_host(t, nbases, k, p_base, p_page, seed):
    """A host on the blocks 0..t-1, t..2t-1, ...: edges among the bases
    with probability p_base, from bases to pages with p_page, between
    pages with 1/2; blocks[:nbases] are the bases."""
    rng = np.random.default_rng(seed)
    n = t * (nbases + k)
    block = np.arange(n) // t
    base = block < nbases
    p = np.where(base[:, None] & base[None, :], p_base, np.where(base[:, None] | base[None, :], p_page, 0.5))
    upper = np.triu(rng.random((n, n)) < p, 1)
    return graph_of(upper | upper.T), [list(range(i * t, (i + 1) * t)) for i in range(nbases + k)]


def graph_api_lemma(host, blocks, nbases, eps) -> dict:
    """The ``lemma-check`` results built from the library API: the
    bounds of ``counting.MultiPair`` and the oracle on (base, page) pair
    views, each on rows read off the host's line."""
    cfg = MultiPair(rows_of(host), host.n, blocks[:nbases], blocks[nbases:], eps)
    t, k = cfg.t, cfg.k
    form = "shared" if nbases == 1 else "cross"
    pairs = [
        {
            "base": i,
            "page": j,
            "uniform": oracle_witness(Pair(host, cfg.bases[i], cfg.pages[j]), eps) is None
            if t <= ORACLE_SIDE_CAP else None,
        }
        for i in range(nbases)
        for j in range(k)
    ]
    verdicts = {p["uniform"] for p in pairs}
    all_uniform = None if None in verdicts else verdicts == {True}
    cap = 2 * eps * t * t
    rows = []
    for j in range(k):
        cnt = cfg.bad_pair_count(j)
        rows.append({"check": f"bad_pairs_{form}", "page": j, "bound": cap, "actual": cnt, "satisfied": None if cnt is None else cnt <= cap})
    bound, actual = cfg.triangle_bound()
    rows.append({"check": f"triangle_{form}", "bound": bound, "actual": actual, "satisfied": actual >= bound})
    book = cfg.book_bound()
    if book is not None:
        bound, base, pages = book
        rows.append({"check": f"book_{form}", "bound": bound, "actual": len(pages), "satisfied": len(pages) >= bound})
    return {
        "t": t,
        "k": k,
        "epsilon": eps,
        "bases": nbases,
        "pairs_uniform": pairs,
        "all_pairs_uniform": all_uniform,
        "checks": rows,
        "book_base": None if book is None else list(base),
        "violations": sum(all_uniform is True and row["satisfied"] is False for row in rows),
        "bounds_checked": len(rows),
        "positive_bounds": sum("page" not in row and row["bound"] > 0 for row in rows),
    }


def check_against_references(host, blocks, nbases, eps, want) -> None:
    """The library-API payload against the bigint loops: the bad pairs,
    the triangle count and the first largest book, and (for small blocks)
    the oracle verdicts."""
    cfg = MultiPair(rows_of(host), host.n, blocks[:nbases], blocks[nbases:], eps)
    t, k, A1, A2 = cfg.t, cfg.k, cfg.bases[0], cfg.bases[-1]
    rows = {row["check"].split("_")[0] + str(row.get("page", "")): row for row in want["checks"]}
    for j in range(k):
        assert (rows[f"bad{j}"]["bound"], rows[f"bad{j}"]["actual"]) == (2 * eps * t * t, ref_bad_pairs(host, cfg, j))
    # the bounds from their formulas, on densities and edge counts of the reference loops
    d = [[Fraction(ref_cross_count(host, A, P), t * t) for P in cfg.pages] for A in cfg.bases]
    term = sum(a * b for a, b in zip(d[0], d[-1]))
    e = ref_cross_count(host, A1, A2) // (2 if nbases == 1 else 1)
    total, book = ref_books(host, cfg)
    assert rows["triangle"]["bound"] == t * (e - 2 * eps * t * t) * term - 2 * eps * k * t * e
    assert rows["triangle"]["actual"] == total
    if book is None:
        assert e == 0 and "book" not in rows and want["book_base"] is None
    else:
        assert rows["book"]["bound"] == t * (1 - 2 * eps * t * t / e) * term - 2 * eps * k * t
        assert (tuple(want["book_base"]), rows["book"]["actual"]) == (book[0], len(book[1]))
    if cfg.t <= REF_ORACLE_SIDE:
        for p in want["pairs_uniform"]:
            pair = Pair(host, cfg.bases[p["base"]], cfg.pages[p["page"]])
            assert p["uniform"] == (ref_uniformity_oracle(pair, eps) is None)


def lemma_cli_matches(tmp_dir, host, blocks, nbases, eps) -> dict:
    """Run ``lemma-check`` as JSON and as CSV and check both against the
    library API; returns the results."""
    path = tmp_dir / "lemma.json"
    path.write_text(json.dumps({"graph": to_graph6(host), "blocks": blocks, "epsilon": str(eps), "bases": nbases}))
    want = graph_api_lemma(host, blocks, nbases, eps)
    code, out, _ = run_main("lemma-check", path)
    assert code == (10 if want["violations"] else 0)
    assert json.loads(out)["results"] == cli.jsonable(want)
    code, out, _ = run_main("lemma-check", path, "--format", "csv")
    table = list(csv.reader(io.StringIO(out)))
    assert table[0] == ["check", "page", "bound", "actual", "satisfied"]
    assert table[1:] == [
        ["" if row.get(f) is None else fraction_str(row[f]) if isinstance(row[f], Fraction) else str(row[f])
         for f in ("check", "page", "bound", "actual", "satisfied")]
        for row in want["checks"]
    ]
    return want


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, ORACLE_SIDE_CAP),
    st.sampled_from([1, 2]),
    st.integers(1, 2),
    st.fractions(Fraction(1, 1000), Fraction(1, 2), max_denominator=1000),
    st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    st.sampled_from([0.0, 0.2, 0.6, 0.95]),
    st.integers(0, 2**32 - 1),
)
@example(t=5, nbases=1, k=2, eps=Fraction(1, 10), p_base=0.7, p_page=0.0, seed=1)  # pages fail the precondition
@example(t=5, nbases=2, k=1, eps=Fraction(1, 10), p_base=0.0, p_page=0.6, seed=2)  # edgeless bases: no book row
def test_lemma_check_cli_matches_the_graph_api_and_the_references(tmp_path_factory, t, nbases, k, eps, p_base, p_page, seed):
    host, blocks = planted_host(t, nbases, k, p_base, p_page, seed)
    tmp_dir = tmp_path_factory.mktemp("lemma")
    want = lemma_cli_matches(tmp_dir, host, blocks, nbases, eps)
    check_against_references(host, blocks, nbases, eps, want)


@pytest.mark.parametrize(
    "nbases, p_base, p_page, row",
    [(1, 0.7, 0.0, "null actual"), (2, 0.0, 0.6, "no book")],
)
def test_lemma_check_cli_covers_the_rows_without_a_bound(tmp_path, nbases, p_base, p_page, row):
    host, blocks = planted_host(5, nbases, 2, p_base, p_page, 1)
    want = lemma_cli_matches(tmp_path, host, blocks, nbases, Fraction(1, 10))
    check_against_references(host, blocks, nbases, Fraction(1, 10), want)
    if row == "null actual":
        assert [r["actual"] for r in want["checks"] if r["check"].startswith("bad")] == [None, None]
    else:
        assert want["book_base"] is None and not any(r["check"].startswith("book") for r in want["checks"])


@pytest.mark.parametrize("t", [ORACLE_SIDE_CAP, ORACLE_SIDE_CAP + 1])
@pytest.mark.parametrize("nbases", [1, 2])
def test_lemma_check_on_both_sides_of_the_oracle_cap(tmp_path, t, nbases):
    host, blocks = planted_host(t, nbases, 2, 0.5, 0.9, t + nbases)
    want = lemma_cli_matches(tmp_path, host, blocks, nbases, Fraction(1, 50))
    check_against_references(host, blocks, nbases, Fraction(1, 50), want)
    assert (want["all_pairs_uniform"] is None) == (t > ORACLE_SIDE_CAP)


def ref_labels(c, blocks, eps, beta, gamma) -> list[dict]:
    """classify's labels from the reference oracle on the red graph."""
    out, red = [], complement_of(c.blue)
    for (i, A), (j, B) in itertools.combinations(enumerate(blocks), 2):
        pair = Pair(red, A, B)
        d = Fraction(ref_cross_count(red, A, B), len(A) * len(B))
        label = (
            "irr" if ref_uniformity_oracle(pair, eps) is not None
            else "blue" if d < beta else "mid" if d < 1 - gamma else "red"
        )
        out.append({"pair": [i, j], "label": label, "red_density": fraction_str(d), "method": "oracle"})
    return out


def graph_api_labels(c, blocks, eps, beta, gamma, samples, seed) -> list[dict]:
    """``counting.classify`` on the blue rows read off the line, with the
    sampled search past the oracle cap on the rows of the red graph's own
    line, not on the flipped blue rows that ``classify`` hands it."""

    red_rows = rows_of(complement_of(c.blue))

    def search(red, A, B):
        return nonuniformity_search(red_rows, A, B, eps, samples=samples, seed=seed)

    return counting.classify(rows_of(c.blue), c.n, blocks, eps, beta, gamma, search)


def classify_cli(tmp_dir, host, blocks, eps, beta, gamma, seed=0, samples=100) -> dict:
    path = tmp_dir / "classify.json"
    cfg = {"graph": to_graph6(host), "blocks": blocks, "epsilon": str(eps), "beta": str(beta), "gamma": str(gamma)}
    path.write_text(json.dumps(cfg))
    code, out, _ = run_main("classify", path, "--seed", seed, "--samples", samples)
    assert code == 0
    return json.loads(out)["results"]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, REF_ORACLE_SIDE),
    st.integers(2, 4),
    st.fractions(Fraction(1, 1000), Fraction(1, 2), max_denominator=1000),
    st.sampled_from([Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)]),
    st.sampled_from([Fraction(1, 5), Fraction(1, 4), Fraction(1, 2)]),
    st.integers(0, 2**32 - 1),
)
def test_classify_cli_matches_the_references(tmp_path_factory, t, nblocks, eps, beta, gamma, seed):
    rng = np.random.default_rng(seed)
    host = graph_of(random_graph(rng, t * nblocks, float(rng.random())))
    blocks = [list(range(i * t, (i + 1) * t)) for i in range(nblocks)]
    res = classify_cli(tmp_path_factory.mktemp("classify"), host, blocks, eps, beta, gamma)
    assert res["labels"] == ref_labels(TwoColoring(host), blocks, eps, beta, gamma)


@pytest.mark.parametrize("t", [ORACLE_SIDE_CAP, ORACLE_SIDE_CAP + 1])
def test_classify_on_both_sides_of_the_oracle_cap(tmp_path, t):
    # block 0 has no blue edge to the others (two red pairs), and blocks 1
    # and 2 span a half graph (an irr pair), on both sides of the cap
    host, blocks = planted_host(t, 3, 0, 0.5, 0.5, 7)
    adj = host.adjacency()
    adj[:t, t:] = adj[t:, :t] = False
    adj[t:2 * t, 2 * t:] = np.arange(t)[:, None] <= np.arange(t)[None, :]
    adj[2 * t:, t:2 * t] = adj[t:2 * t, 2 * t:].T
    host = graph_of(adj)
    eps, beta, gamma = Fraction(1, 10), Fraction(1, 4), Fraction(1, 4)
    res = classify_cli(tmp_path, host, blocks, eps, beta, gamma, seed=3)
    labels = graph_api_labels(TwoColoring(host), blocks, eps, beta, gamma, samples=100, seed=3)
    assert res["labels"] == cli.jsonable(labels)
    assert {row["method"] for row in labels} == {"oracle" if t <= ORACLE_SIDE_CAP else "search"}
    assert [row["label"] for row in labels] == ["red", "red", "irr"]
