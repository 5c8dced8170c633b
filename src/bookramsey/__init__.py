"""Book Ramsey toolkit: booksizes of dense graphs, exhaustive small-order
verification, lower-bound colorings, and uniform-pair counting checks.

The library lives in the submodules (``bookramsey.graphs``,
``bookramsey.colorings``, ``bookramsey.ramsey``, ...); the package root
holds only the version and the error types, so that importing it, as
the command line does, loads neither numpy nor the numeric modules."""

from .errors import CapacityError, ParseError

__version__ = "0.1.0"

__all__ = ["CapacityError", "ParseError", "__version__"]
