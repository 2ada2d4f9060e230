"""Exception types shared across the package, and the rules that every
caller-supplied parameter is checked by.

The CLI maps these onto exit codes, one type per fault it reports: a
bad value (InputError, exit 2), bad data (ParseError, and SingularityError
for a scene that puts an agent on the ego, exit 3) and an infeasible run
(InfeasibleError, exit 4).

A scalar parameter, an integer parameter and a planar point each have
one rule here: scalar, integer and point.  An array parameter has floats,
which makes the float64 array and leaves its shape and finiteness to the
caller.  Each returns the value it accepts and otherwise raises
InputError with a message that names the parameter.  A bool or a string
is never a number to the first three, and an int too large for a float
is not finite, so none escapes as a TypeError or an OverflowError, and
no message prints a value Python refuses to print.  Values the package
computes itself are checked where they are made.
"""

import math

import numpy as np


def scalar(name, value, sign=""):
    """value, if it is a finite real number (not a bool) and, when sign
    is "positive" or "nonnegative", that too; else InputError naming it."""
    try:
        ok = type(value) is not bool and math.isfinite(value)
    except (TypeError, OverflowError):
        ok = False
    if ok and (value > 0.0 if sign == "positive" else value >= 0.0 if sign else True):
        return value
    raise InputError(f"{name} must be {sign} and finite" if sign else f"{name} must be finite")


def integer(name, value, least=None):
    """value, if it is an int (not a bool) of at least least, when least
    is given; else InputError naming it."""
    if isinstance(value, int) and type(value) is not bool and (least is None or value >= least):
        return value
    raise InputError(f"{name} must be an integer" + ("" if least is None else f" >= {least}"))


def point(name, value) -> np.ndarray:
    """value as a float64 [x, y], if it is two finite numbers (not
    bools, nor strings numpy would parse); else InputError naming it."""
    try:
        p = np.array(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        p = np.zeros(0)
    if (p.shape == (2,) and np.isfinite(p).all()
            and not any(isinstance(v, (bool, str, bytes)) for v in value)):
        return p
    raise InputError(f"{name} must be a finite point [x, y], got {_shown(value)}")


def floats(name, value) -> np.ndarray:
    """value as a float64 array if numpy makes one of it, else InputError
    naming it (an int too large for a float, a ragged nesting, a string)."""
    try:
        return np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"{name} must be an array of numbers that fit a float") from None


def _shown(value) -> str:
    """repr of value, unless it holds an int past the 4300 digits Python
    prints."""
    try:
        return repr(value)
    except ValueError:
        return "an int too long to print"


class InputError(ValueError):
    """A value violates a documented precondition (shape, domain,
    finiteness), whether an argument or a configuration key."""


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
    """The constraint polyhedron is empty; there is no admissible decision.

    Attributes:
        diagnostics: a snapshot of the loop state when a run raised it,
            else empty.
    """

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}
