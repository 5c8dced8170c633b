"""Counter-based pseudorandom values: the package's one generator.

Every random draw is a pure function of (seed, counter) rather than the
state of a stream, so any range of values can be generated in any
order, split across threads, or revisited later with bit-identical
results.  Edge colours of the randomized constructions read the
counters of ``seed`` itself, one per edge; the auxiliary draws of the
sampled witness search and of the bipartite extractor read a keyed
stream, the counters of edge_value(seed, stream) (``stream_values``).

The generator is splitmix64: value(seed, k) = mix64(seed + (k+1)*GAMMA)
over 64-bit wrapping arithmetic (Steele, Lea & Flood, "Fast splittable
pseudorandom number generators", OOPSLA 2014).  An event of probability
``p`` fires iff the value is below floor(p * 2**64); with a rational
``p`` this is exact to the full 64-bit resolution.

Two implementations are provided on purpose: a scalar pure-Python
reference and a vectorized numpy kernel.  Tests hold them equal.
"""

from __future__ import annotations

import numpy as np

from .numbers import as_fraction

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
MIX_M1 = 0xBF58476D1CE4E5B9
MIX_M2 = 0x94D049BB133111EB
_GAMMA, _M1, _M2 = np.uint64(GAMMA), np.uint64(MIX_M1), np.uint64(MIX_M2)


def mix64(z: int) -> int:
    """Finalizing bijection on 64-bit integers (splitmix64 mixer)."""
    z &= MASK64
    z = (z ^ (z >> 30)) * MIX_M1 & MASK64
    z = (z ^ (z >> 27)) * MIX_M2 & MASK64
    return z ^ (z >> 31)


def edge_value(seed: int, index: int) -> int:
    """64-bit value for counter ``index`` under ``seed`` (scalar reference)."""
    return mix64((seed + (index + 1) * GAMMA) & MASK64)


def probability_threshold(p) -> int:
    """floor(p * 2**64) for rational p in [0, 1].

    edge_value(seed, k) < threshold happens with probability exactly
    threshold / 2**64, the best 64-bit approximation below p.
    """
    f = as_fraction(p)
    if not 0 <= f <= 1:
        raise ValueError(f"probability {p} outside [0, 1]")
    return (f.numerator << 64) // f.denominator


def edge_values_block(seed: int, start: int, count: int) -> np.ndarray:
    """Vectorized edge_value for counters start .. start+count-1."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z *= _GAMMA
    z += np.uint64(seed & MASK64)
    z ^= z >> np.uint64(30)
    z *= _M1
    z ^= z >> np.uint64(27)
    z *= _M2
    z ^= z >> np.uint64(31)
    return z


def bernoulli_block(seed: int, start: int, count: int, threshold: int) -> np.ndarray:
    """Boolean array: value below threshold, for a contiguous counter range."""
    vals = edge_values_block(seed, start, count)
    if threshold >= 1 << 64:
        return np.ones(count, dtype=bool)
    return vals < np.uint64(threshold)


def stream_values(seed: int, stream: int, start: int, count: int) -> np.ndarray:
    """Values start .. start+count-1 of auxiliary stream ``stream``: the
    counters of the key edge_value(seed, stream), so distinct streams
    are decorrelated by the mixer."""
    return edge_values_block(edge_value(seed, stream), start, count)
