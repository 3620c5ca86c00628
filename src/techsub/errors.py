"""Exception hierarchy shared across the package.

Each of the three leaf classes carries the CLI's nonzero exit code and
the label of its stderr line, so library callers and shell scripts can
distinguish failure stages.
"""


class TechsubError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(TechsubError):
    """Input text could not be parsed (malformed CSV row, bad manifest)."""

    exit_code, label = 3, "parse error"

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ValidationError(TechsubError):
    """Well-formed input violates a domain constraint (duplicate years,
    level outside (0, K), share outside (0, 1), invalid parameters)."""

    exit_code, label = 4, "validation error"


class EstimationError(TechsubError):
    """A fit cannot be computed (too few observations, degenerate data)."""

    exit_code, label = 5, "estimation error"
