"""Exception types raised on purpose anywhere in the package."""


class MecdsaError(Exception):
    """Base class for all package errors."""


class InvalidPointError(MecdsaError):
    """A point is not on the curve (a coordinate outside the field
    included), or an x-coordinate has no square root."""


class FormatError(MecdsaError):
    """Malformed text or binary input.  ``offset`` is the byte offset of
    the defect when one can be pinned down, else None."""

    def __init__(self, message, offset=None):
        super().__init__(message)
        self.offset = offset


class CurveValidationError(MecdsaError):
    """Curve parameters failed validation; ``report`` has the details."""

    def __init__(self, report):
        failed = ", ".join(c.name for c in report.failures())
        super().__init__(f"curve '{report.curve_name}' failed validation: {failed}")
        self.report = report


class UnknownCurveError(MecdsaError):
    """Curve name not present in the registry."""


class DuplicateCurveError(MecdsaError):
    """Curve name already registered (names are case-insensitive)."""


class NonceRangeError(MecdsaError, ValueError):
    """A nonce source cannot give a scalar in [1, order-1]: the order is
    below 3, or a listed nonce lies outside that range."""


class NonceExhaustedError(MecdsaError):
    """A test-mode nonce list ran out before a valid signature was found."""
