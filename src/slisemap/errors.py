"""Exception types shared across the package.

The CLI maps these onto exit codes (usage errors are handled by argparse
itself): :class:`NumericError` -> 4, and every other
:class:`SlisemapError` (:class:`DataError`, :class:`ShapeError`) -> 3.
"""


class SlisemapError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(SlisemapError):
    """Two arrays (or an array and a contract) disagree on dimensions."""

    def __init__(self, message, expected=None, got=None):
        if expected is not None or got is not None:
            message = f"{message} (expected {expected}, got {got})"
        super().__init__(message)
        self.expected = expected
        self.got = got


class DataError(SlisemapError):
    """Invalid input data: malformed CSV, bad responses, mismatched schema."""


class NumericError(SlisemapError):
    """A numeric computation produced a non-finite or invalid result."""
