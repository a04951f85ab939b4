"""Exception types shared across the package."""

from __future__ import annotations


class ParseError(ValueError):
    """Raised on malformed polynomial / graph / complex input text.

    Carries the 1-based line and column of the offending token when known.
    """

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)


class ResourceLimitError(RuntimeError):
    """A configured size or work cap was exceeded.

    ``what`` names the offending dimension ("rows", "cols",
    "elimination-budget", "triple-sum", "terms", "ground", "vertices",
    "scaled-bits").
    """

    def __init__(self, what: str, limit: int, actual: int):
        self.what = what
        self.limit = limit
        self.actual = actual
        super().__init__(f"{what} limit exceeded: {actual} > {limit}")


class InvariantViolation(RuntimeError):
    """An internal cross-check failed (e.g. a bound exceeded the exact value).

    This always indicates a bug, never bad input.
    """
