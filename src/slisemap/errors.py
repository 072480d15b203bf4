"""Exception types shared across the package, and its one rule for a
numeric setting (:func:`check_number`, applied to the fields of a frozen
dataclass by :func:`check_fields`).

The CLI maps these onto exit codes (usage errors are handled by argparse
itself): :class:`NumericError` -> 4, and every other
:class:`SlisemapError` (:class:`DataError`, :class:`ShapeError`) -> 3.
"""

import math
import numbers


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


def check_number(name, value, *, low, strict=False, high=None,
                 integer=False, error=ValueError):
    """``value`` as a Python int (with ``integer``) or float, when it is a
    number that is not a boolean, an integer if ``integer`` asks for one,
    ``> low`` with ``strict`` else ``>= low``, at most ``high`` if given,
    and finite.  Otherwise ``error(message)`` is raised, the message naming
    ``repr(name)``, what was wanted and the value: ``'rel_tol' must be > 0,
    got 0.0``.  NaN fails the range, infinity the range or finiteness.

    Every numeric setting passes through it where it is built: the fields
    of ``SolverConfig``, ``Hyperparams`` and ``RsynthSpec``, a class count,
    a Solution's seed, the quantile and neighbourhood sizes of
    ``metrics``, the size of ``data.subsample`` and the CLI's number
    flags."""
    if isinstance(value, bool) or not isinstance(
            value, numbers.Integral if integer else numbers.Real):
        want = "an integer" if integer else "a number"
        raise error(f"{name!r} must be {want}, got {value!r}")
    value = int(value) if integer else float(value)
    above = value > low if strict else value >= low
    if not (above and (high is None or value <= high)):
        want = (f"{'>' if strict else '>='} {low}" if high is None
                else f"in {'(' if strict else '['}{low}, {high}]")
        raise error(f"{name!r} must be {want}, got {value!r}")
    if not integer and not math.isfinite(value):
        raise error(f"{name!r} must be finite, got {value!r}")
    return value


def check_fields(obj, error=ValueError, **rules):
    """Pass each field of the frozen dataclass ``obj`` that ``rules`` names
    through :func:`check_number`, with the keywords its rule gives and
    ``error``, and store the number it returns in the field."""
    for name, rule in rules.items():
        object.__setattr__(obj, name, check_number(
            name, getattr(obj, name), error=error, **rule))
