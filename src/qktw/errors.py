"""Exception types shared across the package.

A class exists here only when some caller in ``src/`` catches it by name,
apart from every other class here; every other refusal is a plain
``ValueError`` with a message that says what was refused.  The CLI maps
BudgetExceededError to exit 3 and ValueError or OSError to exit 2.
"""


class NotAPrimePowerError(ValueError):
    """The requested field order is below 2 or has two prime divisors."""


class BudgetExceededError(RuntimeError):
    """A request past a configured cap: a graph, enumeration, decomposition
    or Gaussian binomial too large, a primality test that cannot be exact,
    or an exact solver past its vertex, search-node, table or level budget."""


class PaceParseError(ValueError):
    """Malformed .gr or .td input; carries the 1-based line number."""

    def __init__(self, message: str, line: int = 0):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line
