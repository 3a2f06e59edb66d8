"""Exception types shared across the library."""


class ThpolyError(Exception):
    """Base class for all library-specific errors."""


class NotPrimeError(ThpolyError, ValueError):
    pass


class TooLargeError(ThpolyError, ValueError):
    pass


class DivisionByZeroError(ThpolyError, ZeroDivisionError):
    pass


class FieldMismatchError(ThpolyError, ValueError):
    pass


class LengthMismatchError(ThpolyError, ValueError):
    pass


class DimensionMismatchError(ThpolyError, ValueError):
    pass


class DuplicatePointError(ThpolyError, ValueError):
    pass


class BothZeroError(ThpolyError, ValueError):
    pass


class EmptySequenceError(ThpolyError, ValueError):
    pass


class CornerMismatchError(ThpolyError, ValueError):
    pass


class BadLengthError(ThpolyError, ValueError):
    pass


class ShapeMismatchError(ThpolyError, ValueError):
    pass


class BadBlockSizeError(ThpolyError, ValueError):
    pass


class InsufficientLengthError(ThpolyError, ValueError):
    pass


class FieldTooSmallError(ThpolyError, ValueError):
    pass


class SingularEverywhereError(ThpolyError, ValueError):
    pass


class GuardExceededError(ThpolyError, ValueError):
    pass


class FormatError(ThpolyError, ValueError):
    pass


class NotGenericError(ThpolyError, RuntimeError):
    """The block algorithm certified only a proper divisor of the
    characteristic polynomial for this projection/seed.

    Carries the degree it reached and the partial divisor so callers can
    retry with a fresh seed or a larger block size.
    """

    def __init__(self, degree, partial, reason="generating polynomial has low degree"):
        self.degree = degree
        self.partial = partial
        self.reason = reason
        super().__init__(f"{reason} (degree {degree})")
