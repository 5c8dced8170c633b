"""Spans around calls into bookramsey, recorded from outside the package.

``Tracer.install`` wraps every public function and method of the seven
package modules, and rebinds each wrapped function under every module
name that imported it, so a call made through ``cli``'s own import of
``tripartite_random`` lands in the same span as one made through
``colorings``.  Each span records (id, name, start, end, parent id,
command id, work); spans stay in memory until the run writes them out.

Not wrapped: private names, properties, dunders, generator functions
(a span would close before the generator runs, so their time stays in
the caller's self time) and the per-edge index helpers in ``UNTRACED``,
whose per-call cost is below that of a span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from fractions import Fraction
from math import comb
from statistics import median

import reference as ref

MODULES = ("cli", "rng", "graphs", "colorings", "ramsey", "regularity", "stability")
UNTRACED = {"colorings.edge_index", "colorings.edge_endpoints"}


# ------------------------------------------------- work counted per span


def _edge_count(g) -> int:
    return sum(row.bit_count() for row in g.rows) // 2


def _edges_through(rows, n: int, u: int, v: int, red: bool) -> int:
    """Edges (a, b), a < b, up to (u, v) in lexicographic order.

    Counted in the blue graph given by ``rows``, or in its complement.
    """
    total = 0
    for a in range(u):
        above = (rows[a] >> (a + 1)).bit_count()
        total += (n - 1 - a - above) if red else above
    seg = ((rows[u] >> (u + 1)) & ((1 << (v - u)) - 1)).bit_count()
    return total + ((v - u - seg) if red else seg)


def _check_coloring_edges(args, kwargs, result) -> int:
    """Base edges check_coloring examined: red first, then blue, early exit."""
    c = args[0]
    n, rows = c.n, c.blue.rows
    kind = type(result).__name__
    if kind == "Neither":
        return comb(n, 2)
    u, v = result.certificate.base
    if kind == "RedBook":
        return _edges_through(rows, n, u, v, red=True)
    return comb(n, 2) - _edge_count(c.blue) + _edges_through(rows, n, u, v, red=False)


def _oracle_x_subsets(args, kwargs, result) -> int:
    """X-subsets the oracle visits, from its inputs and verdict alone.

    A uniform verdict scans every X with |X| >= ceil(eps |A|); a witness
    stops the numeric-order scan at the witness X's mask.
    """
    pair, eps = args[0], Fraction(args[1])
    na, nb = len(pair.A), len(pair.B)
    if ref.size_floor(eps, na) > na or ref.size_floor(eps, nb) > nb:
        return 0
    if result.uniform:
        return ref.x_subsets_uniform(eps, na)
    pos = {v: k for k, v in enumerate(pair.A)}
    return sum(1 << pos[x] for x in result.witness[0])


WORK = {
    "rng.bernoulli_block": lambda a, k, r: a[2] if len(a) > 2 else k["count"],
    "graphs.Graph.booksize": lambda a, k, r: _edge_count(a[0]),
    "ramsey.exhaustive_verify": lambda a, k, r: (r.colorings_examined, k.get("threads", 1)),
    "ramsey.check_coloring": _check_coloring_edges,
    "regularity.uniformity_oracle": _oracle_x_subsets,
}


# ---------------------------------------------------------------- tracer


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.command = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        tracer, work = self, WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            done, result = False, None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                w = work(args, kwargs, result) if work is not None and done else None
                tracer.spans.append((sid, name, t0, t1, parent, tracer.command, w))

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self, package: str = "bookramsey") -> None:
        mods = {m: importlib.import_module(f"{package}.{m}") for m in MODULES}
        namespaces = [mod for key, mod in list(sys.modules.items())
                      if mod is not None and (key == package or key.startswith(package + "."))]
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{short}.{attr}"
                    if name in UNTRACED or inspect.isgeneratorfunction(obj):
                        continue
                    wrapped = self._wrap(name, obj)
                    for ns in namespaces:
                        for key, val in list(vars(ns).items()):
                            if val is obj:
                                self._patch(ns, key, wrapped)
                elif inspect.isclass(obj):
                    for key, val in list(vars(obj).items()):
                        if key.startswith("_"):
                            continue
                        name = f"{short}.{obj.__name__}.{key}"
                        if isinstance(val, (staticmethod, classmethod)):
                            self._patch(obj, key, type(val)(self._wrap(name, val.__func__)))
                        elif inspect.isfunction(val) and not inspect.isgeneratorfunction(val):
                            self._patch(obj, key, self._wrap(name, val))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# ------------------------------------------------------- per-layer metrics

SELF_TIME = {
    "cli.main": ["cli.main"],
    "cli.read": ["cli.read_any_file", "cli.load_config"],
    "rng.bernoulli_block": ["rng.bernoulli_block"],
    "graphs.validate": ["graphs.Graph.validate"],
    "graphs.booksize": ["graphs.Graph.booksize"],
    "graphs.complement": ["graphs.Graph.complement"],
    "graphs.from_bool_matrix": ["graphs.Graph.from_bool_matrix"],
    "graphs.to_bool_matrix": ["graphs.Graph.to_bool_matrix"],
    "graphs.from_edges": ["graphs.Graph.from_edges"],
    "graphs.from_graph6": ["graphs.Graph.from_graph6"],
    "graphs.to_graph6": ["graphs.Graph.to_graph6"],
    "colorings.tripartite_random": ["colorings.tripartite_random"],
    "colorings.two_cliques": ["colorings.two_cliques"],
    "colorings.from_blue_bits": ["colorings.TwoColoring.from_blue_bits"],
    "colorings.blue_bits": ["colorings.TwoColoring.blue_bits"],
    "colorings.to_brc1": ["colorings.TwoColoring.to_brc1"],
    "colorings.from_brc1": ["colorings.TwoColoring.from_brc1"],
    "colorings.construction_statistics": ["colorings.construction_statistics"],
    "ramsey.exhaustive_verify": ["ramsey.exhaustive_verify"],
    "ramsey.check_coloring": ["ramsey.check_coloring"],
    "regularity.uniformity_oracle": ["regularity.uniformity_oracle"],
    "regularity.nonuniformity_search": ["regularity.nonuniformity_search"],
    "regularity.counting_bounds": [
        f"regularity.{kind}_{form}"
        for kind in ("bad_pair_count", "triangle_bound", "book_bound")
        for form in ("shared", "cross")
    ],
    "regularity.classify_pairs": ["regularity.classify_pairs"],
    "stability.bipartite_extract": ["stability.bipartite_extract"],
    "stability.classify": ["stability.classify"],
    "stability.trichotomy_check": ["stability.trichotomy_check"],
}

UNITS = {
    "rng.values_per_s": "values/s",
    "graphs.validate.calls": "count",
    "graphs.booksize.edges_per_s": "edges/s",
    "ramsey.colorings_examined": "count",
    "ramsey.colorings_per_s.threads1": "colorings/s",
    "ramsey.colorings_per_s.threads2": "colorings/s",
    "ramsey.check_coloring.edges_per_s": "edges/s",
    "regularity.uniformity_oracle.calls": "count",
    "regularity.oracle.x_subsets": "count",
    "regularity.oracle.x_subsets_per_s": "subsets/s",
    "trace.overhead_ratio": "ratio",
    **{f"{k}.self_s": "s" for k in SELF_TIME},
}


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    covered: dict[int, float] = defaultdict(float)
    for sid, name, t0, t1, parent, cmd, w in spans:
        covered[parent] += t1 - t0
    return {s[0]: (s[3] - s[2]) - covered[s[0]] for s in spans}


def rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(spans, overhead_ratio: float) -> dict[str, float]:
    """Per-layer figures of one traced round; a layer never called reads 0."""
    own = self_times(spans)
    by_name: dict[str, list] = defaultdict(list)
    for s in spans:
        by_name[s[1]].append(s)

    def self_of(names):
        return sum(own[s[0]] for n in names for s in by_name[n])

    def total_of(name):
        return sum(s[3] - s[2] for s in by_name[name])

    def work_of(name):
        return sum(s[6] for s in by_name[name] if s[6] is not None)

    out = {f"{k}.self_s": self_of(v) for k, v in SELF_TIME.items()}
    out["rng.values_per_s"] = rate(work_of("rng.bernoulli_block"), total_of("rng.bernoulli_block"))
    out["graphs.validate.calls"] = len(by_name["graphs.Graph.validate"])
    out["graphs.booksize.edges_per_s"] = rate(work_of("graphs.Graph.booksize"), out["graphs.booksize.self_s"])
    verify = [s for s in by_name["ramsey.exhaustive_verify"] if s[6] is not None]
    out["ramsey.colorings_examined"] = sum(s[6][0] for s in verify)
    for label, keep in (("threads1", lambda t: t <= 1), ("threads2", lambda t: t >= 2)):
        picked = [s for s in verify if keep(s[6][1])]
        out[f"ramsey.colorings_per_s.{label}"] = rate(sum(s[6][0] for s in picked), sum(s[3] - s[2] for s in picked))
    out["ramsey.check_coloring.edges_per_s"] = rate(work_of("ramsey.check_coloring"), out["ramsey.check_coloring.self_s"])
    out["regularity.uniformity_oracle.calls"] = len(by_name["regularity.uniformity_oracle"])
    out["regularity.oracle.x_subsets"] = work_of("regularity.uniformity_oracle")
    out["regularity.oracle.x_subsets_per_s"] = rate(out["regularity.oracle.x_subsets"], out["regularity.uniformity_oracle.self_s"])
    out["trace.overhead_ratio"] = overhead_ratio
    return out


def median_metrics(rounds: list[dict]) -> dict[str, float]:
    return {k: median(r[k] for r in rounds) for k in rounds[0]}
