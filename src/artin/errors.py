"""Exception types shared across the toolkit."""

from __future__ import annotations


class ArtinError(Exception):
    """Base class for all errors raised by this package.

    ``exit_code`` is the command line's exit status for the error: 1 for
    invalid input, 2 for a precondition violation.
    """

    exit_code = 1


class GraphFormatError(ArtinError):
    """Malformed graph text. Carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class WordFormatError(ArtinError):
    """Malformed word text or an invalid letter."""


class DisconnectedGraphError(ArtinError):
    """Operation requires a connected graph. Carries the components."""

    exit_code = 2

    def __init__(self, components):
        self.components = tuple(tuple(c) for c in components)
        parts = ", ".join("{" + ",".join(c) + "}" for c in self.components)
        super().__init__(f"graph is disconnected; components: {parts}")


class PreconditionError(ArtinError):
    """Input is well formed but outside the operation's domain."""

    exit_code = 2


class NoJsjExistsError(PreconditionError):
    """The group is Z^2 and admits no JSJ decomposition over cyclic subgroups."""
