"""Helpers shared by the test modules that the package itself does not need."""

from dataclasses import asdict

import numpy as np

from bookramsey.graphs import Graph


def graph_of(m) -> Graph:
    """Graph of a square matrix whose nonzero entries are edges, built
    through the checked int-row constructor ``Graph(n, rows)``."""
    packed = np.packbits(np.asarray(m) != 0, axis=1, bitorder="little")
    return Graph(len(packed), [int.from_bytes(row.tobytes(), "little") for row in packed])


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
