"""Exception types shared across the package, and the overflow guard of the
zeta layer's products."""

import cmath
import math


class LiouvilleMellinError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(LiouvilleMellinError, ValueError):
    """An argument violates a precondition (bad limit, bad mode, ...)."""


class RangeError(InvalidArgumentError):
    """An index argument is outside the range covered by a table."""


class DomainError(InvalidArgumentError):
    """An evaluation was requested outside the operation's domain."""


class PoleError(LiouvilleMellinError, ArithmeticError):
    """Evaluation at (or too close to) a pole of the function.

    Attributes:
        location: the pole as a complex number.
        index: integer index of the pole when there is a natural indexing
            (e.g. the non-positive integer for gamma, l for i*pi*(2l+1)).
    """

    def __init__(self, message, location=None, index=None):
        super().__init__(message)
        self.location = location
        self.index = index


class NearZeroDenominatorError(LiouvilleMellinError, ArithmeticError):
    """A quotient's denominator is numerically indistinguishable from zero.

    Raised instead of returning a huge value so that genuine singular points
    (zeros of the base zeta function) are never silently masked.
    """


class TruncationBudgetError(LiouvilleMellinError, RuntimeError):
    """A series was exhausted before reaching the requested tolerance.

    Attributes:
        achieved_bound: the remainder bound actually attained.
    """

    def __init__(self, message, achieved_bound=None):
        super().__init__(message)
        self.achieved_bound = achieved_bound


class NonConvergenceError(LiouvilleMellinError, RuntimeError):
    """Quadrature ran out of panels (MAX_PANELS) before the end of its range.

    Attributes:
        partial: the partial IntegralResult accumulated so far.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class CacheFormatError(LiouvilleMellinError, ValueError):
    """A table cache file is malformed or fails its checksum."""


def in_double_range(what: str, s: complex, product) -> complex:
    """product(), or DomainError where a factor, or the value, leaves double range."""
    try:
        value = product()
    except OverflowError:
        value = complex(math.inf)
    if not cmath.isfinite(value):
        raise DomainError(f"{what}: a factor leaves double range at s={s}")
    return value
