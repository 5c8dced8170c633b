"""Helpers shared by the test modules that the package itself does not need."""

from array import array
from dataclasses import asdict
from typing import Iterable

import numpy as np

from bookramsey.graphs import Graph


def graph_of(m) -> Graph:
    """Graph of a square matrix whose nonzero entries are edges, built
    through the checked int-row constructor ``Graph(n, rows)``."""
    packed = np.packbits(np.asarray(m) != 0, axis=1, bitorder="little")
    return Graph(len(packed), [int.from_bytes(row.tobytes(), "little") for row in packed])


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Graph on [n] with the given edges, checked for loops and range."""
    index = array("q")  # colex indices, 8 bytes each
    for u, v in edges:
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        index.append(u * (u - 1) // 2 + v if u > v else v * (v - 1) // 2 + u)
    bits = np.zeros(n * (n - 1) // 2, dtype=bool)
    bits[np.frombuffer(index, dtype=np.int64)] = True
    return Graph.from_colex_bits(n, bits)


def to_graph6(g: Graph) -> str:
    """Encode in graph6 format (no header, no trailing newline)."""
    n = g.n
    if n <= 62:
        prefix = chr(n + 63)
    elif n <= 258047:
        prefix = "~" + "".join(chr(((n >> shift) & 63) + 63) for shift in (12, 6, 0))
    else:
        raise ValueError("graph6 supports at most 258047 vertices here")
    bits = g.colex_bits()
    six = np.pad(bits, (0, -len(bits) % 6)).reshape(-1, 6)
    vals = np.packbits(six, axis=1).ravel() >> 2
    return prefix + (vals + 63).tobytes().decode("ascii")


def classification_report(g: Graph, cls) -> dict:
    """Part sizes, delta(G0) and the cross counts of a vertex classification.

    e(U1, V2) and e(U2, V1) vanish by definition of V1 and V2; they are
    recomputed here as a self-check rather than assumed.
    """
    return {
        "sizes": {k: len(v) for k, v in asdict(cls).items()},
        "delta_G0": g.min_degree_induced(cls.U1 + cls.U2),
        "e_U1_V2": g.edges_between(cls.U1, cls.V2),
        "e_U2_V1": g.edges_between(cls.U2, cls.V1),
        "e_U_V3": g.edges_between(cls.U1 + cls.U2, cls.V3),
    }
