"""Shared error types and source locations."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True, unsafe_hash=True)
class Loc:
    line: int = 0
    col: int = 0

    def __str__(self):
        return f"{self.line}:{self.col}"


class SourceError(Exception):
    """Base for all errors that point back into the source text; `kind`,
    when set, is a stable diagnostic tag."""

    def __init__(self, message: str, loc: Loc | None = None,
                 kind: str | None = None):
        self.message = message
        self.loc = loc or Loc()
        self.kind = kind
        super().__init__(f"{self.loc}: {message}")


class LexError(SourceError):
    pass


class ParseError(SourceError):
    def __init__(self, message, loc=None, expected=None, found=None, kind=None):
        super().__init__(message, loc, kind)
        self.expected = expected or set()
        self.found = found


class TypeError_(SourceError):
    """Type checking failure."""

    def __init__(self, kind: str, message: str, loc=None):
        super().__init__(message, loc, kind)


class TransformError(SourceError):
    """Defunctionalization failure (no-family, exempt-as-value, ...)."""

    def __init__(self, kind: str, message: str, loc=None):
        super().__init__(message, loc, kind)


class VCError(SourceError):
    pass
