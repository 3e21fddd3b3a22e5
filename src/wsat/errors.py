"""Exception hierarchy shared by all wsat modules."""


class WsatError(Exception):
    """Base class for all domain errors raised by this package."""


class ParameterError(WsatError, ValueError):
    """Invalid parameter value (bad family size, probability out of range, ...)."""


class GraphParseError(WsatError, ValueError):
    """Malformed edge-list text.  Carries the 1-based offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UndefinedDensityError(WsatError):
    """Density functionals are undefined on edgeless graphs."""


class PreconditionError(WsatError):
    """An operation's structural precondition was violated."""


class RangeError(WsatError):
    """A closed-form formula was queried outside its validity range."""


class StructureAbsentError(WsatError):
    """A construction found no clique of the requested size, or too few neighbors of it."""


class ConstructionError(WsatError):
    """A construction produced a graph that failed verification.

    ``diagnostic`` names the first problem found (e.g. the first host edge
    the closure could not reach, or a forbidden copy in the candidate).
    """

    def __init__(self, message: str, diagnostic=None):
        self.diagnostic = diagnostic
        super().__init__(message)


class InternalError(WsatError):
    """An internal invariant failed, which signals an engine bug, not bad
    input.  Raised explicitly, so ``python -O`` cannot strip it."""
