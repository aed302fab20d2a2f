"""Exception types shared across the package."""

from __future__ import annotations


class MatrixFormatError(ValueError):
    """Raised when matrix text input cannot be parsed."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SizeLimitError(ValueError):
    """Raised when an exact computation would exceed its documented size limit."""


# Most cells of a generated matrix, or of one sampled census class: an int64
# array of that many cells takes 128 MiB.
MAX_CELLS = 4096**2


class CertificationError(ArithmeticError):
    """Raised when a verifier cannot certify a bound. The bound is left out
    of a report rather than replaced by an unverified estimate."""
