"""Exception types shared across the package."""


class Binom3kError(Exception):
    """Base class for all package-specific errors."""


class DomainError(Binom3kError):
    """An evaluation left the real domain (log of a nonpositive value,
    square root of a negative value, division by zero, argument outside
    a stated validity window)."""


class SingularInput(Binom3kError):
    """Input hits a removable-looking but unsupported singularity (x = y)."""


class NotGeometric(Binom3kError):
    """A tail bound was requested for a series that is not geometric."""


class MaxTermsExceeded(Binom3kError):
    """Summation would need more terms than the precision context allows."""


class Unsupported(Binom3kError):
    """The request is outside what can be proved: a boundary summation of
    a series off the boundary (or divergent on it), or a proved tail bound
    that misses its digit target."""


class InvalidParams(Binom3kError):
    """Theorem-family parameters violate the family's constraints."""
