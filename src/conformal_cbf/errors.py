"""Exception types shared across the package, and the finiteness test
the parameter checks raise them from.

The CLI maps these onto exit codes, so the distinctions matter:
configuration problems, malformed data, and infeasible runs must stay
distinguishable all the way up.
"""

import math


def finite(value) -> bool:
    """math.isfinite, except that an int too large for a float is not
    finite instead of an OverflowError, so a check can name its field."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


class InputError(ValueError):
    """An argument violates a documented precondition (shape, domain, finiteness)."""


class ConfigError(ValueError):
    """A configuration is internally inconsistent or out of its admissible range."""


class SingularityError(ArithmeticError):
    """A quantity is undefined at the requested point (coincident or nearly
    coincident positions)."""


class ParseError(ValueError):
    """A data file could not be parsed.

    Attributes:
        line: 1-based line number of the offending row, when known.
    """

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class InfeasibleError(RuntimeError):
    """The constraint polyhedron is empty; there is no admissible decision."""


class InfeasibleRunError(RuntimeError):
    """A closed-loop run hit hard infeasibility even after relaxation.

    Carries a diagnostic snapshot of the loop state for post-mortem use.
    """

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}
