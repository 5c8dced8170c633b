"""Exact rational plumbing shared across the package.

Theorem-derived inequalities are compared in exact arithmetic, so user
inputs (CLI decimals, JSON fields) are normalized to Fraction as early
as possible and floats appear only in the human summaries on stderr.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

_EXPONENT = re.compile(r"e[-+]?([\d_]+)\s*\Z", re.IGNORECASE)


def as_fraction(x) -> Fraction:
    """Exact Fraction from int, Fraction, decimal string, or float.

    Floats go through their shortest repr, so as_fraction(0.005) is
    exactly 1/200 rather than the nearest binary double.  Bools, other
    types, zero denominators and decimal exponents above the
    interpreter's limit on integer string digits raise ValueError.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise ValueError("bool is not a number here")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(repr(x))
    if not isinstance(x, str):
        raise ValueError(f"cannot interpret {type(x).__name__} as a rational")
    exponent = _EXPONENT.search(x)
    if exponent:
        # Fraction expands 10**exponent exactly, which for an exponent of
        # 1e9 runs for minutes; cap it where int(str) caps digits
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
        digits = exponent.group(1).replace("_", "").lstrip("0")
        if len(digits) > len(str(limit)) or int(digits or 0) > limit:
            raise ValueError(f"decimal exponent of {x!r} is beyond {limit}")
    try:
        return Fraction(x.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {x!r}") from None


def fraction_str(f: Fraction) -> str:
    """Serialize as "num/den" (or "num" when integral)."""
    f = Fraction(f)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"
