"""Shared exception types.

Everything that is a plain precondition violation raises ValueError at the
call site; the classes here exist so callers can tell resource exhaustion
apart from bad input.
"""


class CapExceededError(RuntimeError):
    """A configured size / budget cap was exceeded (enumeration, scan, search)."""


class ParseError(ValueError):
    """Syntax error with source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col
