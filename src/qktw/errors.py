"""Exception types shared across the package."""


class NotAPrimePowerError(ValueError):
    """The requested field order has more than one prime divisor."""


class UnsupportedFieldError(ValueError):
    """Prime-power order past the lookup tables (q > 64)."""


class SizeLimitError(RuntimeError):
    """An enumeration or graph build would exceed its configured cap."""


class BudgetExceededError(RuntimeError):
    """An exact solver hit its vertex, search-node, table or level budget."""


class PaceParseError(ValueError):
    """Malformed .gr or .td input; carries the 1-based line number."""

    def __init__(self, message: str, line: int = 0):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


class OutOfCertifiedRangeError(ValueError):
    """Parameters fall outside the range where the counting argument applies."""


class NotIndependentError(ValueError):
    """A vertex set expected to be independent contains an edge."""


class DegenerateInputError(ValueError):
    """Input set is empty or already the whole vertex set."""


class EmptyTreeError(ValueError):
    """A tree decomposition with no nodes has no width."""


class AmbientMismatchError(ValueError):
    """Subspaces live in different ambient spaces or fields."""


class DimensionMismatchError(ValueError):
    """Ragged or empty row input."""


class NotALineError(ValueError):
    """Klein map input must be a 2-dimensional subspace of F_q^4."""
