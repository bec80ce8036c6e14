"""Exception types shared across the package."""

from __future__ import annotations


class MethodGitError(Exception):
    """Base class for all errors raised by this package."""


class LexError(MethodGitError):
    """Raised when Java source cannot be tokenized.

    Carries the 1-based line and column of the offending position so
    callers can report it or fall back to verbatim passthrough.
    """

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} at line {line}, column {column}")
        self.line = line
        self.column = column


class ParseError(MethodGitError):
    """Raised when extraction fails; index is the failing token's index in
    the lexed file, or None."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class NameError_(MethodGitError):
    """Raised for invalid file naming configuration (e.g. byte budget too small)."""


class RepositoryError(MethodGitError):
    """Raised for malformed or unreadable Git repositories."""


class NotACommitError(RepositoryError):
    """Raised when a ref or tag names a tree or a blob, so no commit."""


class TrackError(MethodGitError):
    """Raised for invalid tracking requests (bad path, bad threshold)."""


class OracleError(MethodGitError):
    """Raised when an evaluation oracle file is malformed."""
