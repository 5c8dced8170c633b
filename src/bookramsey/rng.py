"""Counter-based pseudorandom values: the package's one generator.

Every random draw is a pure function of (seed, counter) rather than the
state of a stream, so any range of values can be generated in any
order, split across threads, or revisited later with bit-identical
results.  Edge colours of the randomized constructions read the
counters of ``seed`` itself, one per edge; the auxiliary draws of the
sampled witness search and of the bipartite extractor read a keyed
stream, the counters of edge_value(seed, stream) (``stream_values``;
the search reads consecutive blocks of one, ``stream_blocks``).

The generator is splitmix64: value(seed, k) = mix64(seed + (k+1)*GAMMA)
over 64-bit wrapping arithmetic (Steele, Lea & Flood, "Fast splittable
pseudorandom number generators", OOPSLA 2014).  An event of probability
``p`` fires iff the value is below floor(p * 2**64); with a rational
``p`` this is exact to the full 64-bit resolution.

Three implementations are provided on purpose, and tests hold them
equal: a scalar pure-Python reference, a vectorized numpy kernel for
the edge colours, which alone import numpy, and a kernel on Python-int
lanes for the streams, so the sampled search loads no numpy.
"""

from __future__ import annotations

import itertools
import struct
from typing import Iterator

from .numbers import as_fraction

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
MIX_M1 = 0xBF58476D1CE4E5B9
MIX_M2 = 0x94D049BB133111EB


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


def edge_values_block(seed: int, start: int, count: int):
    """Vectorized edge_value for counters start .. start+count-1 (numpy)."""
    import numpy as np

    if count < 0:
        raise ValueError("count must be nonnegative")
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z *= np.uint64(GAMMA)
    z += np.uint64(seed & MASK64)
    z ^= z >> np.uint64(30)
    z *= np.uint64(MIX_M1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(MIX_M2)
    z ^= z >> np.uint64(31)
    return z


def bernoulli_block(seed: int, start: int, count: int, threshold: int):
    """Boolean numpy array: value below threshold, for a counter range."""
    import numpy as np

    vals = edge_values_block(seed, start, count)
    if threshold >= 1 << 64:
        return np.ones(count, dtype=bool)
    return vals < np.uint64(threshold)


def stream_values(seed: int, stream: int, start: int, count: int) -> list[int]:
    """Values start .. start+count-1 of auxiliary stream ``stream``: the
    counters of the key edge_value(seed, stream), so distinct streams
    are decorrelated by the mixer."""
    return next(stream_blocks(seed, stream, count, start))


def stream_blocks(seed: int, stream: int, count: int, start: int = 0) -> Iterator[list[int]]:
    """Consecutive blocks of ``count`` values of stream ``stream``, from
    counter ``start`` on: block i is stream_values(seed, stream, start +
    i count, count).

    Every step of mix64 runs on one int of 128-bit lanes, a value to
    each, so no 64-bit product leaves its lane; a shift moves each lane's
    low bits into the high half of the one below, and the lanes are cut
    back to 64 bits before each product.  The lane ints are built once.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    lanes = "<" + "Q8x" * count  # a 64-bit value in the low half of each 128-bit lane
    ones = int.from_bytes(struct.pack(lanes, *[1] * count), "little")
    mask = ones * MASK64
    steps = int.from_bytes(struct.pack(lanes, *range(1, count + 1)), "little") * GAMMA & mask  # (k + 1) GAMMA in lane k
    key = edge_value(seed, stream)
    for first in itertools.count(start, count):
        z = (steps + ((first * GAMMA + key) & MASK64) * ones) & mask
        z = ((z ^ z >> 30) & mask) * MIX_M1 & mask
        z = ((z ^ z >> 27) & mask) * MIX_M2 & mask
        z ^= z >> 31  # the bits this shifts into a lane's high half are dropped below
        yield list(struct.unpack(lanes, z.to_bytes(16 * count, "little")))
