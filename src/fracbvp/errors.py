"""Exception types shared across the package."""

from __future__ import annotations


class FracbvpError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(FracbvpError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ParseError(FracbvpError, ValueError):
    """Expression source text failed to parse.

    ``offset`` is the 1-based character offset of the offending token and
    ``expected`` names the token classes that would have been accepted.
    """

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        super().__init__(message)
        self.offset = offset
        self.expected = expected


class UnknownIdentifierError(ParseError):
    """An identifier in the source is not a known variable, function, or constant."""


class EvaluationError(FracbvpError, ArithmeticError):
    """Expression evaluation hit a point outside its real domain or overflowed.

    ``index`` is the flat index of the failing point in an array evaluation
    (0 for a scalar one).
    """

    def __init__(self, message: str, index: int = 0):
        super().__init__(message)
        self.index = index


class DivergenceError(FracbvpError, RuntimeError):
    """Fixed-point iteration failed to contract.

    Carries the iteration count reached and the last pair norm observed.
    """

    def __init__(self, message: str, iterations: int, last_norm: float):
        super().__init__(message)
        self.iterations = iterations
        self.last_norm = last_norm


class ConfigError(FracbvpError, ValueError):
    """A run configuration is missing keys, malformed, or out of range."""
