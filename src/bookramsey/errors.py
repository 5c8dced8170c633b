"""Exception types, exit codes and the report renderer shared across
the toolkit.

The command line's two modules, ``cli`` and ``handlers``, take their
exit codes and ``jsonable`` from here: the package root loads this
module anyway, and ``handlers`` must not import ``cli``.
"""

from numbers import Integral, Rational

EXIT_OK = 0
EXIT_FOUND = 10
EXIT_USAGE = 2
EXIT_CAPACITY = 3


class ParseError(ValueError):
    """Malformed input file (graph6, BRC1, or JSON descriptor).

    Carries enough position information for the CLI to print a usable
    diagnostic.
    """

    def __init__(self, message: str, *, line: int | None = None, offset: int | None = None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", offset {offset}" if offset is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.offset = offset


class CapacityError(ValueError):
    """Requested an exact computation beyond the supported exhaustive range."""


def jsonable(x):
    """Recursively convert report values to JSON-safe types.

    Integers (numpy's too) are Rational as well, so they are taken
    first; a Rational that is not Integral is a Fraction, whose module
    is then loaded already, and is rendered as "num/den".
    """
    if isinstance(x, bool) or x is None:
        return x
    if isinstance(x, Integral):
        return int(x)
    if isinstance(x, Rational):
        from .numbers import fraction_str

        return fraction_str(x)
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, (set, frozenset)):
        return sorted(jsonable(v) for v in x)
    return x
