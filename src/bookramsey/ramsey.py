"""Exhaustive small-order book Ramsey verification.

A 2-coloring of K_N is encoded as the colex bitstring of its blue edge
indicators, so the space of colorings is the integer range [0, 2^C(N,2))
and "first counterexample" means lowest index.  The scan is vectorized:
a uint64 block of candidate bitstrings is tested against per-edge page
masks, where page w of base (u, v) is red iff both bits of {(u,w),(v,w)}
are 0 and blue iff both are 1.

Optional symmetry pruning fixes vertex 0's blue star to {1..d} for each
d; every coloring is isomorphic to one of these, so the verdict is
unchanged while the enumeration shrinks by roughly 2^(N-1)/N.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .colorings import TwoColoring, edge_index
from .errors import CapacityError
from .graphs import BookCertificate, _book_scan, bits_of

DEFAULT_ORDER_CAP = 8
KERNEL_BIT_LIMIT = 62
BLOCK_BITS = 19


@dataclass(frozen=True)
class RamseyQuery:
    """Ask whether every 2-coloring of K_N has a red B_p or blue B_q."""

    N: int
    p: int
    q: int

    def __post_init__(self):
        if self.N < 2:
            raise ValueError("order must be at least 2")
        if self.p < 1 or self.q < 1:
            raise ValueError("book page targets must be at least 1")


@dataclass(frozen=True)
class RedBook:
    certificate: BookCertificate


@dataclass(frozen=True)
class BlueBook:
    certificate: BookCertificate


@dataclass(frozen=True)
class Neither:
    pass


@dataclass(frozen=True)
class SearchOutcome:
    verdict: str  # "forced" | "counterexample"
    counterexample: TwoColoring | None
    colorings_examined: int
    counterexample_index: int | None = None


def check_coloring(c: TwoColoring, p: int, q: int):
    """First red book with >= p pages, else first blue with >= q, else Neither.

    Scans red bases in lexicographic edge order with early exit; the
    red-before-blue priority is arbitrary but fixed.  Neither certifies
    the lower bound r(B_p, B_q) > c.n.
    """
    if p < 1 or q < 1:
        raise ValueError("book page targets must be at least 1")
    for graph, pages, found in ((c.red, p, RedBook), (c.blue, q, BlueBook)):
        hit = _book_scan(graph, at_least=pages)
        if hit is not None:
            _, u, v = hit
            return found(BookCertificate.from_base(graph, u, v))
    return Neither()


# ------------------------------------------------------------------ kernel


@dataclass(frozen=True)
class _EdgeSpec:
    # base_var: variable-bit mask of the base edge, or None when fixed
    base_var: int | None
    base_blue: bool
    red_const: int
    red_masks: tuple[int, ...]  # red page iff (M & mask) == 0
    blue_const: int
    blue_masks: tuple[int, ...]  # blue page iff (M & mask) == mask


def _build_specs(N: int, star_d: int | None) -> tuple[int, list[int], list[_EdgeSpec]]:
    """Edge specs for one enumeration scenario.

    star_d = None enumerates all bitstrings; star_d = d fixes the blue
    star of vertex 0 to exactly {1..d} and enumerates the remaining
    C(N-1, 2) bits.  Returns (number of variable bits, the edge index of
    each variable bit in enumeration order, per-edge specs).
    """
    if star_d is None:
        var_edges = [edge_index(i, j) for j in range(1, N) for i in range(j)]
        fixed_blue: dict[int, bool] = {}
    else:
        var_edges = [edge_index(i, j) for j in range(2, N) for i in range(1, j)]
        fixed_blue = {edge_index(0, j): j <= star_d for j in range(1, N)}
    varbit = {e: k for k, e in enumerate(var_edges)}

    specs = []
    for u in range(N):
        for v in range(u + 1, N):
            e = edge_index(u, v)
            red_const = blue_const = 0
            red_masks: list[int] = []
            blue_masks: list[int] = []
            for w in range(N):
                if w in (u, v):
                    continue
                pair = [edge_index(u, w), edge_index(v, w)]
                mask = 0
                n_fixed_blue = n_fixed_red = 0
                for f in pair:
                    if f in varbit:
                        mask |= 1 << varbit[f]
                    elif fixed_blue[f]:
                        n_fixed_blue += 1
                    else:
                        n_fixed_red += 1
                if n_fixed_blue == 0:
                    if mask:
                        red_masks.append(mask)
                    else:
                        red_const += 1
                if n_fixed_red == 0:
                    if mask:
                        blue_masks.append(mask)
                    else:
                        blue_const += 1
            specs.append(
                _EdgeSpec(
                    base_var=1 << varbit[e] if e in varbit else None,
                    base_blue=fixed_blue.get(e, False),
                    red_const=red_const,
                    red_masks=tuple(red_masks),
                    blue_const=blue_const,
                    blue_masks=tuple(blue_masks),
                )
            )
    return len(var_edges), var_edges, specs


def _block_all_hit(M: np.ndarray, specs: list[_EdgeSpec], p: int, q: int) -> np.ndarray:
    """Boolean array: candidate contains a red B_p or blue B_q."""
    hit = np.zeros(M.shape, dtype=bool)
    for s in specs:
        want_red = s.base_var is not None or not s.base_blue
        want_blue = s.base_var is not None or s.base_blue
        if want_red and s.red_const + len(s.red_masks) >= p:
            rc = np.full(M.shape, s.red_const, dtype=np.uint8)
            for mask in s.red_masks:
                rc += (M & np.uint64(mask)) == 0
            red_hit = rc >= p
            if s.base_var is not None:
                red_hit &= (M & np.uint64(s.base_var)) == 0
            hit |= red_hit
        if want_blue and s.blue_const + len(s.blue_masks) >= q:
            bc = np.full(M.shape, s.blue_const, dtype=np.uint8)
            for mask in s.blue_masks:
                bc += (M & np.uint64(mask)) == np.uint64(mask)
            blue_hit = bc >= q
            if s.base_var is not None:
                blue_hit &= (M & np.uint64(s.base_var)) != 0
            hit |= blue_hit
    return hit


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _scan_scenario(
    nvar: int, specs: list[_EdgeSpec], p: int, q: int, threads: int
) -> int | None:
    """Lowest variable-bit index whose coloring avoids both books.

    The pool never exceeds the usable CPUs; the result does not depend
    on its size.
    """
    threads = min(threads, _usable_cpus())
    total = 1 << nvar
    block = 1 << min(BLOCK_BITS, nvar)

    def misses_at(start: int) -> int | None:
        count = min(block, total - start)
        M = np.arange(start, start + count, dtype=np.uint64)
        hit = _block_all_hit(M, specs, p, q)
        if hit.all():
            return None
        return start + int(np.argmax(~hit))

    starts = range(0, total, block)
    if threads <= 1:
        for start in starts:
            found = misses_at(start)
            if found is not None:
                return found
        return None

    # contiguous ranges per worker; consuming results in range order keeps
    # the reported counterexample identical for every thread count
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        it = iter(starts)
        window: list = []
        while True:
            while len(window) < 2 * threads:
                start = next(it, None)
                if start is None:
                    break
                window.append(pool.submit(misses_at, start))
            if not window:
                return None
            found = window.pop(0).result()
            if found is not None:
                for fut in window:
                    fut.cancel()
                return found


def exhaustive_verify(
    query: RamseyQuery,
    *,
    force: bool = False,
    prune: bool = False,
    threads: int = 1,
) -> SearchOutcome:
    """Scan every 2-coloring of K_N for one avoiding red B_p and blue B_q.

    colorings_examined counts candidates at or below the hit in the
    enumeration order actually used (so it shrinks under pruning); on a
    forced verdict it is the full enumeration size.  The outcome is
    independent of the thread count.
    """
    N, p, q = query.N, query.p, query.q
    m = N * (N - 1) // 2
    if N > DEFAULT_ORDER_CAP and not force:
        raise CapacityError(
            f"order {N} needs 2^{m} colorings; pass force to run beyond N={DEFAULT_ORDER_CAP}"
        )
    nvar_max = m if not prune else (N - 1) * (N - 2) // 2
    if nvar_max > KERNEL_BIT_LIMIT:
        raise CapacityError(f"enumeration index needs {nvar_max} bits; kernel is capped at {KERNEL_BIT_LIMIT}")

    scenarios: list[int | None] = list(range(N)) if prune else [None]
    per_scenario = 1 << nvar_max
    for si, star_d in enumerate(scenarios):
        nvar, var_edges, specs = _build_specs(N, star_d)
        k = _scan_scenario(nvar, specs, p, q, threads)
        if k is None:
            continue
        blue_index = sum(1 << var_edges[b] for b in bits_of(k))
        if star_d is not None:
            blue_index += sum(1 << edge_index(0, j) for j in range(1, star_d + 1))
        return SearchOutcome(
            verdict="counterexample",
            counterexample=TwoColoring.from_blue_index(N, blue_index),
            colorings_examined=si * per_scenario + k + 1,
            counterexample_index=blue_index if star_d is None else None,
        )
    return SearchOutcome(
        verdict="forced",
        counterexample=None,
        colorings_examined=len(scenarios) * per_scenario,
    )
