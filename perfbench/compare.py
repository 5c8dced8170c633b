"""Set two sets of benchmark results side by side.

    python3 perfbench/run.py --compare A B

A and B are result files written by run.py, or directories of them.
For each workload and metric this prints the median and quartiles of
each set, the change of B's median against A's, and whether the two
agree within BENCHMARK.json: B's median is no worse than A's by more
than the metric's bound, each set's quartile spread (third minus first
quartile, over the median) stays within the bound, and both sets fail
the same share of their operations.  The
per-command timings, which have no bound, are listed for reference.
Exits 1 when any bounded metric disagrees.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

from run import BENCHMARK


def load(path: str) -> list[dict]:
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    return [json.loads(f.read_text()) for f in files if ".spans" not in f.name]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(q: tuple[float, float, float]) -> float:
    return (q[2] - q[0]) / q[1] if q[1] else 0.0


def collect(records: list[dict]) -> dict:
    """(workload, trace) -> {"metrics": name -> values, "commands": ..., "attempted", "failed"}."""
    out: dict = defaultdict(lambda: {"metrics": defaultdict(list), "commands": defaultdict(list), "attempted": 0, "failed": 0})
    for r in records:
        g = out[(r["workload"], r["trace"])]
        for name, m in r["metrics"].items():
            g["metrics"][name].append(m["value"])
        for name, v in r.get("commands", {}).items():
            g["commands"][name].append(v)
        g["attempted"] += r["attempted"]
        g["failed"] += r["failed"]
    return out


def main(path_a: str, path_b: str) -> int:
    spec = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    a, b = collect(load(path_a)), collect(load(path_b))
    ok = True
    for key in sorted(set(a) | set(b)):
        workload, trace = key
        print(f"\n== {workload} (trace {trace}) ==")
        if key not in a or key not in b:
            print("   only in one set")
            ok = False
            continue
        ga, gb = a[key], b[key]
        share_a = ga["failed"] / max(ga["attempted"], 1)
        share_b = gb["failed"] / max(gb["attempted"], 1)
        same_share = share_a == share_b
        ok &= same_share
        print(f"   failed share: A {ga['failed']}/{ga['attempted']}, B {gb['failed']}/{gb['attempted']}"
              f" -> {'same' if same_share else 'DIFFERENT'}")
        header = f"   {'metric':38} {'A median [q1, q3]':>34} {'B median [q1, q3]':>34} {'change':>8} {'bound':>6}  verdict"
        print(header)
        for section in ("metrics", "commands"):
            for name in sorted(set(ga[section]) | set(gb[section])):
                va, vb = ga[section].get(name), gb[section].get(name)
                if not va or not vb:
                    continue
                qa, qb = quartiles(va), quartiles(vb)
                change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
                verdict, bound_txt = "", ""
                if section == "metrics" and name in bounds:
                    m = bounds[name]
                    bound_txt = f"{m['bound']:.2f}"
                    worse = change if m["better"] == "lower" else -change
                    problems = []
                    if worse > m["bound"]:
                        problems.append("worse")
                    if max(spread(qa), spread(qb)) > m["bound"]:
                        problems.append("spread")
                    verdict = "agree" if not problems else "DISAGREE (" + ", ".join(problems) + ")"
                    ok &= not problems
                print(f"   {name:38} {fmt(qa, va):>34} {fmt(qb, vb):>34} {change:>+8.1%} {bound_txt:>6}  {verdict}")
    print("\nall bounded metrics agree" if ok else "\nsome bounded metric disagrees")
    return 0 if ok else 1


def fmt(q: tuple[float, float, float], values: list[float]) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}] n={len(values)} ({spread(q):.1%})"
