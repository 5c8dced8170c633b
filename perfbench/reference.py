"""Reference computations for checking bookramsey outputs.

Nothing here imports the package under test: every expected value is
re-derived from the definitions with numpy, ``fractions`` and the
published small book Ramsey numbers, so a bug in the program cannot
hide in the check that judges it.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

import numpy as np

MASK64 = (1 << 64) - 1
SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
SPLITMIX_M1 = 0xBF58476D1CE4E5B9
SPLITMIX_M2 = 0x94D049BB133111EB

# r(B_p, B_q) for the small cases the exhaustive scan reaches.  Rousseau &
# Sheehan, "On Ramsey numbers for books", J. Graph Theory 2 (1978), and
# Radziszowski, "Small Ramsey Numbers", EJC Dynamic Survey DS1.
BOOK_RAMSEY = {(1, 2): 7, (1, 3): 9, (2, 2): 10}


class CheckFailed(Exception):
    """An output disagrees with its independently computed reference."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def frac(x) -> Fraction:
    """Parse a report rational ("num/den" string or integer) exactly."""
    expect(isinstance(x, (int, str)) and not isinstance(x, bool), f"not a rational: {x!r}")
    return Fraction(x)


def ceil_frac(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


# ------------------------------------------------------------ edge coding


def colex_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) with i < j for every edge of K_n, in colex order.

    Colex index j(j-1)/2 + i grows by one along the row-major lower
    triangle, read as (row j, column i).
    """
    j, i = np.tril_indices(n, -1)
    return i, j


def splitmix64(seed: int, count: int) -> np.ndarray:
    """splitmix64 outputs for counters 1..count under ``seed``."""
    k = np.arange(1, count + 1, dtype=np.uint64)
    z = np.uint64(seed & MASK64) + k * np.uint64(SPLITMIX_GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(SPLITMIX_M1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(SPLITMIX_M2)
    return z ^ (z >> np.uint64(31))


def hex_nibbles(bits: np.ndarray) -> str:
    """Bits as lowercase hex, four per digit, first bit high, zero padded."""
    b = np.asarray(bits, dtype=np.uint8)
    b = np.concatenate([b, np.zeros(-len(b) % 4, dtype=np.uint8)]).reshape(-1, 4)
    digits = b[:, 0] * 8 + b[:, 1] * 4 + b[:, 2] * 2 + b[:, 3]
    return "".join("0123456789abcdef"[d] for d in digits.tolist())


def brc1_text(n: int, bits: np.ndarray) -> str:
    return f"BRC1 {n}\n{hex_nibbles(bits)}\n"


def bits_from_hex(hexstr: str, nbits: int) -> np.ndarray:
    expect(len(hexstr) == (nbits + 3) // 4, f"hex length {len(hexstr)} does not fit {nbits} bits")
    vals = np.array([int(c, 16) for c in hexstr], dtype=np.uint8)
    bits = ((vals[:, None] >> np.array([3, 2, 1, 0], dtype=np.uint8)) & 1).reshape(-1)
    expect(not bits[nbits:].any(), "nonzero padding bits")
    return bits[:nbits].astype(bool)


def adjacency_from_bits(n: int, bits: np.ndarray) -> np.ndarray:
    adj = np.zeros((n, n), dtype=np.uint8)
    i, j = colex_pairs(n)
    adj[i, j] = bits
    return adj | adj.T


def complement(adj: np.ndarray) -> np.ndarray:
    out = 1 - adj
    np.fill_diagonal(out, 0)
    return out


def tripartite_bits(n: int, epsilon: Fraction, seed: int) -> np.ndarray:
    """Blue edge bits of the biased tripartite coloring, in colex order.

    Inside a third every edge is red.  A cross edge with colex index k is
    red iff splitmix64(seed, k + 1) < floor(p 2^64), p = 1/2 - 33/4 eps.
    """
    p = Fraction(1, 2) - Fraction(33, 4) * epsilon
    thr = (p.numerator << 64) // p.denominator
    i, j = colex_pairs(n)
    t = n // 3
    cross = i // t != j // t
    red = splitmix64(seed, len(i)) < np.uint64(thr)
    return cross & ~red


def two_clique_bits(q: int) -> np.ndarray:
    n = 2 * q + 2
    i, j = colex_pairs(n)
    return (i <= q) == (j <= q)


# --------------------------------------------------------------- booksize


def codegrees(adj: np.ndarray, cols=None) -> np.ndarray:
    """Common-neighbour counts; float32 is exact for 0/1 sums below 2^24."""
    a = adj.astype(np.float32)
    b = a if cols is None else a[:, cols]
    return np.rint(b @ b.T).astype(np.int32)


def booksize(adj: np.ndarray) -> tuple[int, tuple[int, int] | None]:
    """Largest codegree over an edge; ties go to the least base (u, v), u < v."""
    cod = codegrees(adj)
    edge = np.triu(adj.astype(bool), k=1)
    if not edge.any():
        return 0, None
    best = int(cod[edge].max())
    flat = int(np.argmax((edge & (cod == best)).reshape(-1)))
    return best, divmod(flat, adj.shape[0])


# ------------------------------------------------------------ constructions


def tripartite_parameters(epsilon: Fraction, n: int) -> dict:
    """The exact construction figures a tripartite report must carry."""
    d = Fraction(33, 4) * epsilon
    p, q = Fraction(1, 2) - d, Fraction(1, 2) + d
    n3 = Fraction(n, 3)
    return {
        "epsilon": epsilon,
        "delta": d,
        "p": p,
        "q_prob": q,
        "margins": {
            "k1": Fraction(2, 3) * (d - d * d) - 5 * epsilon,
            "k2": 3 * epsilon - (d + d * d) / 3,
        },
        "expected_book_sizes": {
            "red_intra": n3 - 2 + 2 * n3 * p * p,
            "blue_cross": n3 * q * q,
            "red_cross": n3 * p * p + (2 * n3 - 2) * p,
        },
    }


def construction_statistics(blue: np.ndarray) -> dict:
    """Per-class codegree means of a coloring against its contiguous thirds."""
    n = blue.shape[0]
    red = complement(blue)
    pid = np.arange(n) // (n // 3)
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    same = pid[:, None] == pid[None, :]
    isblue, isred = blue.astype(bool), red.astype(bool)
    intra_red = upper & same & isred
    cross_blue = upper & ~same & isblue
    cross_red = upper & ~same & isred
    # a red cross edge's pages split into the part holding neither endpoint
    # and the two endpoint parts
    third_of = (3 - pid[:, None] - pid[None, :]).astype(np.int8)
    cr = np.zeros((n, n), dtype=np.int32)
    third_sum = 0
    for k in range(3):
        ck = codegrees(red, np.flatnonzero(pid == k))
        cr += ck
        third_sum += int(ck[cross_red & (third_of == k)].sum())
        del ck
    cb = codegrees(blue)
    ncross_red = int(cross_red.sum())
    cr_cross_sum = int(cr[cross_red].sum())

    def mean(values, mask):
        cnt = int(mask.sum())
        return None if cnt == 0 else Fraction(int(values[mask].sum()), cnt)

    def ratio(total, cnt):
        return None if cnt == 0 else Fraction(total, cnt)

    bk_red = int(cr[upper & isred].max()) if isred.any() else 0
    bk_blue = int(cb[upper & isblue].max()) if isblue.any() else 0
    return {
        "n": n,
        "part_sizes": [n // 3] * 3,
        "red_intra": {"edges": int(intra_red.sum()), "mean_codegree": mean(cr, intra_red)},
        "blue_cross": {"edges": int(cross_blue.sum()), "mean_codegree": mean(cb, cross_blue)},
        "red_cross": {
            "edges": int(cross_red.sum()),
            "mean_codegree": mean(cr, cross_red),
            "mean_pages_third_part": ratio(third_sum, ncross_red),
            "mean_pages_own_parts": ratio(cr_cross_sum - third_sum, ncross_red),
        },
        "bk_red": bk_red,
        "bk_blue": bk_blue,
        "bk_red_over_n": Fraction(bk_red, n),
        "bk_blue_over_n": Fraction(bk_blue, n),
    }


def same_report_value(got, want, where: str) -> None:
    """Compare a JSON report value with a reference that may hold Fractions."""
    if isinstance(want, dict):
        expect(isinstance(got, dict) and set(got) == set(want), f"{where}: keys {sorted(got) if isinstance(got, dict) else got!r}")
        for k in want:
            same_report_value(got[k], want[k], f"{where}.{k}")
    elif isinstance(want, Fraction):
        expect(frac(got) == want, f"{where}: {got!r} != {want}")
    else:
        expect(got == want, f"{where}: {got!r} != {want!r}")


# ---------------------------------------------------------------- Ramsey


def book_ramsey(p: int, q: int) -> int | None:
    return BOOK_RAMSEY.get((min(p, q), max(p, q)))


def enumeration_size(N: int, prune: bool) -> int:
    """Colorings a forced scan examines: 2^C(N,2), or N 2^C(N-1,2) pruned."""
    return N * 2 ** comb(N - 1, 2) if prune else 2 ** comb(N, 2)


def check_counterexample(N: int, p: int, q: int, hexstr: str) -> None:
    """Decode a counterexample and confirm it has no red B_p and no blue B_q."""
    blue = adjacency_from_bits(N, bits_from_hex(hexstr, comb(N, 2)))
    bk_blue, _ = booksize(blue)
    bk_red, _ = booksize(complement(blue))
    expect(bk_red < p, f"counterexample {hexstr} holds a red book with {bk_red} >= {p} pages")
    expect(bk_blue < q, f"counterexample {hexstr} holds a blue book with {bk_blue} >= {q} pages")


# ------------------------------------------------------------- regularity


def size_floor(eps: Fraction, side: int) -> int:
    return max(1, ceil_frac(eps * side))


def pair_density(adj: np.ndarray, A, B) -> Fraction:
    return Fraction(int(adj[np.ix_(A, B)].sum()), len(A) * len(B))


def check_witness(adj: np.ndarray, A, B, X, Y, eps: Fraction) -> None:
    """Exact re-validation of a non-uniformity witness (X in A, Y in B)."""
    expect(len(set(X)) == len(X) and len(set(Y)) == len(Y), "witness repeats a vertex")
    expect(set(X) <= set(A) and set(Y) <= set(B), "witness leaves its sides")
    expect(len(X) >= size_floor(eps, len(A)), f"|X| = {len(X)} below ceil(eps |A|)")
    expect(len(Y) >= size_floor(eps, len(B)), f"|Y| = {len(Y)} below ceil(eps |B|)")
    dev = abs(pair_density(adj, list(X), list(Y)) - pair_density(adj, A, B))
    expect(dev > eps, f"witness deviation {dev} is not above eps = {eps}")


def uniform_by_density(d: Fraction, eps: Fraction) -> bool:
    """Sufficient condition: no sub-density can stray more than eps from d.

    Densities lie in [0, 1], so |d(X, Y) - d| <= max(d, 1 - d); when that
    is at most eps, or d is 0 or 1, every subset pair passes.
    """
    return d in (0, 1) or max(d, 1 - d) <= eps


def x_subsets_uniform(eps: Fraction, na: int) -> int:
    """X-subsets a full oracle scan evaluates: those with |X| >= ceil(eps |A|)."""
    a0 = size_floor(eps, na)
    return sum(comb(na, k) for k in range(a0, na + 1))


def lemma_reference(adj: np.ndarray, base, pages, eps: Fraction) -> dict:
    """Shared-base counting bounds and the exact counts they bound."""
    t, k = len(base), len(pages)
    dens = [pair_density(adj, base, P) for P in pages]
    sq = sum(d * d for d in dens)
    inside = adj[np.ix_(base, base)]
    ea = int(inside.sum()) // 2
    allpages = [v for P in pages for v in P]
    cod_pages = codegrees(adj, allpages)[np.ix_(base, base)]
    iu, ju = np.triu_indices(t, 1)
    on_edge = inside[iu, ju].astype(bool)
    checks = []
    for j, P in enumerate(pages):
        cod = codegrees(adj, list(P))[np.ix_(base, base)][iu, ju]
        thr = (dens[j] - eps) ** 2 * len(P)
        bad = sum(1 for c in cod.tolist() if c <= thr)
        cap = 2 * eps * t * t
        checks.append({"check": "bad_pairs_shared", "page": j, "bound": cap, "actual": bad, "satisfied": bad <= cap})
    tri_bound = t * (ea - 2 * eps * t * t) * sq - 2 * eps * k * t * ea
    tri_actual = int(cod_pages[iu, ju][on_edge].sum())
    checks.append({"check": "triangle_shared", "bound": tri_bound, "actual": tri_actual, "satisfied": tri_actual >= tri_bound})
    book_base = None
    if ea > 0:
        book_bound = t * (1 - Fraction(2 * eps * t * t, ea)) * sq - 2 * eps * k * t
        sizes = np.where(on_edge, cod_pages[iu, ju], -1)
        size = int(sizes.max())
        # the program keeps the lexicographically least base edge among ties
        book_base = min(
            sorted((base[a], base[b]))
            for a, b, s in zip(iu.tolist(), ju.tolist(), sizes.tolist())
            if s == size
        )
        checks.append({"check": "book_shared", "bound": book_bound, "actual": size, "satisfied": size >= book_bound})
    positive = sum(1 for c in checks if c["check"] != "bad_pairs_shared" and c["bound"] > 0)
    return {
        "t": t,
        "k": k,
        "epsilon": eps,
        "bases": 1,
        "checks": checks,
        "book_base": book_base,
        "bounds_checked": len(checks),
        "positive_bounds": positive,
    }


# --------------------------------------------------------------- stability


def trichotomy_reference(blue: np.ndarray, xi: Fraction, U1, U2) -> dict:
    """Exact trichotomy figures for a candidate pair of independent parts."""
    n = blue.shape[0]
    bk_blue, _ = booksize(blue)
    bk_red, _ = booksize(complement(blue))
    U = list(U1) + list(U2)
    expect(not blue[np.ix_(U1, U1)].any() and not blue[np.ix_(U2, U2)].any(), "candidate parts are not independent")
    delta = int(blue[np.ix_(U, U)].sum(axis=1).min()) if U else 0
    outside = np.setdiff1d(np.arange(n), U)
    sees1 = blue[np.ix_(outside, U1)].any(axis=1)
    sees2 = blue[np.ix_(outside, U2)].any(axis=1)
    V3 = outside[sees1 & sees2]
    order = len(U)
    thr_ii = (Fraction(1, 12) - xi**6 * Fraction(1, 10**6)) * n
    return {
        "i": bk_red > Fraction(n, 2),
        "ii": bk_blue > thr_ii,
        "iii": order >= (1 - xi) * n and delta > (Fraction(1, 2) - 2 * xi) * n,
        "bk_blue": bk_blue,
        "bk_red": bk_red,
        "threshold_ii": thr_ii,
        "G0_source": "candidate",
        "G0_order": order,
        "delta_G0": delta,
        "order_floor": (1 - xi) * n,
        "delta_floor": (Fraction(1, 2) - 2 * xi) * n,
        "e_U_V3": int(blue[np.ix_(U, V3)].sum()),
        "e_U_V3_reference": (1 - 2 * xi) * len(V3) * Fraction(n, 4),
    }
