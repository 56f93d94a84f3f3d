"""Exception types shared across the package."""


class SecgamesError(Exception):
    """Base class for all package errors."""


class GameFormatError(SecgamesError):
    """Raised when a game or profile document cannot be parsed.

    Carries a list of Diagnostic records (see format module) so callers can
    render machine-readable positions.
    """

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        msg = "; ".join(str(d) for d in self.diagnostics) or "invalid document"
        super().__init__(msg)


class InvalidGameError(SecgamesError):
    """Raised when an operation receives a structurally invalid game."""


class InvalidLassoError(SecgamesError):
    """Raised when a lasso is not a play of the given game."""


class MeasureCombinationError(SecgamesError):
    """Raised when an operation does not support the game's measure pair."""


class UnsupportedProblemError(SecgamesError):
    """Raised for decision problems the solver refuses by design.

    The only instance is constrained existence under discounted payoffs,
    which reduces from an open problem; we refuse rather than approximate.
    """


class EnumerationCapError(SecgamesError):
    """Raised when a brute-force enumeration exceeds its configured cap."""


class InternalError(SecgamesError):
    """Raised when a solver invariant fails: a bug, never a property of the
    input.  Unlike `assert`, the check survives `python -O`."""
