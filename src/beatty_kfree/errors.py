"""Exception types shared across the package."""


class PrecisionExhausted(RuntimeError):
    """A floor/comparison decision cannot be certified at the precision cap.

    Raised when the error interval of a fixed-point value straddles a
    decision boundary and the underlying number source cannot supply more
    bits (or the escalation cap was reached).
    """


class MemoryBudgetExceeded(RuntimeError):
    """A sieve or table allocation would exceed the configured budget; need
    is the bytes it asked for, a float where it is only estimated."""

    def __init__(self, message: str, need: int | float):
        super().__init__(message)
        self.need = need


class InvalidDelta(ValueError):
    """Smoothing width outside the admissible range for the given gamma."""


class DegenerateFit(RuntimeError):
    """Too many zero errors for a meaningful log-log regression."""
