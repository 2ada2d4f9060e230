"""Exception types shared across the package, and the rules that every
caller-supplied parameter is checked by.

The CLI maps these onto exit codes, so the distinctions matter:
configuration problems, malformed data, and infeasible runs must stay
distinguishable all the way up.

A scalar parameter, an integer parameter and a planar point each have
one rule here: scalar, integer and point.  Each returns the value it
accepts and otherwise raises the error type its caller names,
InputError or ConfigError, with a message that names the parameter.  A
bool is never a number to them, and an int too large for a float is not
finite, so neither escapes as a TypeError or an OverflowError.  Values
the package computes itself are checked where they are made.
"""

import math

import numpy as np


def scalar(name, value, error, sign=""):
    """value, if it is a finite real number (not a bool) and, when sign
    is "positive" or "nonnegative", that too; else error naming it."""
    try:
        ok = type(value) is not bool and math.isfinite(value)
    except (TypeError, OverflowError):
        ok = False
    if ok and (value > 0.0 if sign == "positive" else value >= 0.0 if sign else True):
        return value
    raise error(f"{name} must be {sign} and finite" if sign else f"{name} must be finite")


def integer(name, value, error, least):
    """value, if it is an int (not a bool) of at least least; else error
    naming it."""
    if isinstance(value, int) and type(value) is not bool and value >= least:
        return value
    raise error(f"{name} must be an integer >= {least}")


def point(name, value, error) -> np.ndarray:
    """value as a float64 [x, y], if it is two finite numbers (not
    bools); else error naming it."""
    try:
        p = np.array(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        p = np.zeros(0)
    if p.shape == (2,) and np.isfinite(p).all() and bool not in map(type, value):
        return p
    raise error(f"{name} must be a finite point [x, y], got {value!r}")


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
