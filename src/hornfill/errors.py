"""Engine exceptions.

Every failure the engine can produce deliberately is one of these; the CLI
prints `error: <message>` on stderr for any of them and exits 2.  Anything
else escaping an operation is a bug.
"""


class EngineError(Exception):
    """Base class for all deliberate engine failures."""


class InputError(EngineError):
    """Malformed or out-of-contract arguments (bad index, missing field...)."""


class ValidationError(EngineError):
    """Structural data failed its validator (simplicial identities, group laws...)."""


class CapacityError(EngineError):
    """An exhaustive search exceeded its configured budget.

    Carries how far the search got so callers can report partial progress.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class ConsistencyError(EngineError):
    """Two routes that must agree disagreed (a bug witness, not a user error)."""
