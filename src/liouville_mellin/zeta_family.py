"""Derived Dirichlet functions and their functional equations.

All family members are closed-form combinations of zeta, eta and Gamma:

    zeta_imp(s)    = (1 - 2^-s) zeta(s)            (odd-integer zeta)
    zeta_lambda(s) = zeta(2s) / zeta(s)            (Liouville coefficients)
    zeta_mu(s)     = 1 / zeta(s)                   (Moebius coefficients)
    zeta_alpha(s)  = eta(2s) / eta(s)
    zeta_beta(s)   = zeta_imp(2s-1) / zeta_imp(s)  (beta coefficients)
    zeta_nu(s)     = zeta_beta(s+3/2) / zeta_imp(s+1)

None of them is ever computed from its own truncated Dirichlet series here;
table-backed partial sums exist only as verification oracles in the test
suite and harness.

Near-zero denominators raise instead of returning huge values: the zeros of
zeta on the critical line are genuine singular points of zeta_lambda and
must never be masked.
"""

from __future__ import annotations

import cmath
import math

from .errors import (DomainError, InvalidArgumentError, NearZeroDenominatorError, PoleError,
                     in_double_range)
from .special import DEFAULT_EVAL_CONFIG, POLE_TOL, eta_continued, gamma, zeta

__all__ = ["zeta_imp", "zeta_lambda", "zeta_mu", "zeta_alpha", "zeta_beta",
           "zeta_nu", "functional_eq_rhs_zeta_a", "functional_eq_rhs_zeta_alpha",
           "mellin_prefactor", "alpha_to_lambda_factor"]


def _guarded_div(num: complex, den: complex, what: str) -> complex:
    if abs(den) < DEFAULT_EVAL_CONFIG.zero_threshold * max(1.0, abs(num)):
        raise NearZeroDenominatorError(
            f"{what}: denominator {den} is numerically zero (numerator {num})")
    return num / den


def zeta_imp(s: complex) -> complex:
    """Dirichlet series over odd integers, (1 - 2^-s) zeta(s)."""
    s = complex(s)
    if abs(s - 1.0) < POLE_TOL:
        raise PoleError("zeta_imp pole at s=1", location=1.0 + 0.0j)
    return in_double_range("zeta_imp", s, lambda: zeta(s) * (1.0 - 2.0 ** (-s)))


def zeta_lambda(s: complex) -> complex:
    """zeta(2s)/zeta(s), the generating function of the Liouville function."""
    s = complex(s)
    if abs(s - 1.0) < POLE_TOL:
        raise PoleError("zeta_lambda: zeta pole in denominator at s=1",
                        location=1.0 + 0.0j)
    if abs(2.0 * s - 1.0) < POLE_TOL:
        raise PoleError("zeta_lambda: zeta(2s) pole at s=1/2", location=0.5 + 0.0j)
    return _guarded_div(zeta(2.0 * s), zeta(s), "zeta_lambda")


def zeta_mu(s: complex) -> complex:
    """1/zeta(s), the generating function of the Moebius function."""
    s = complex(s)
    return _guarded_div(1.0 + 0.0j, zeta(s), "zeta_mu")


def zeta_alpha(s: complex, mode: str = "definition") -> complex:
    """eta(2s)/eta(s), by definition or through the zeta_lambda relation.

    mode="definition":       eta(2s) / eta(s) with eta continued everywhere.
    mode="lambda-relation":  zeta_lambda(s) (1 - 2^(1-2s)) / (1 - 2^(1-s)).
    The two agree identically; keeping both routes makes the algebraic
    bridge between the eta and zeta pictures directly testable.
    """
    s = complex(s)
    if mode == "definition":
        return _guarded_div(eta_continued(2.0 * s), eta_continued(s), "zeta_alpha")
    if mode == "lambda-relation":
        num = zeta_lambda(s) * (1.0 - 2.0 ** (1.0 - 2.0 * s))
        return _guarded_div(num, 1.0 - 2.0 ** (1.0 - s), "zeta_alpha")
    raise DomainError(f"unknown zeta_alpha mode {mode!r}")


def zeta_beta(s: complex) -> complex:
    """zeta_imp(2s-1)/zeta_imp(s), generating function of beta."""
    s = complex(s)
    if abs(s - 1.0) < POLE_TOL:
        raise PoleError("zeta_beta pole at s=1 (numerator pole at 2s-1=1)",
                        location=1.0 + 0.0j)
    return _guarded_div(zeta_imp(2.0 * s - 1.0), zeta_imp(s), "zeta_beta")


def zeta_nu(s: complex) -> complex:
    """zeta_beta(s+3/2)/zeta_imp(s+1), generating function of nu."""
    s = complex(s)
    return _guarded_div(zeta_beta(s + 1.5), zeta_imp(s + 1.0), "zeta_nu")


def functional_eq_rhs_zeta_a(s: complex) -> complex:
    """-2 pi^(s-1) sin(pi s/2) Gamma(1-s) zeta_imp(1-s).

    The right-hand side of the eta functional equation; meaningful as a
    cross-check for Re s < 1 where zeta_imp(1-s) comes from its own series
    region.
    """
    s = complex(s)
    rest = zeta_imp(1.0 - s)
    return in_double_range("functional_eq_rhs_zeta_a", s, lambda: (
        -2.0 * math.pi ** (s - 1.0) * cmath.sin(math.pi * s / 2.0) * gamma(1.0 - s) * rest))


def functional_eq_rhs_zeta_alpha(s: complex) -> complex:
    """2^(1-2s) pi^(s-1/2) cos(pi s/2) Gamma(1/2-s) zeta_beta(1-s).

    Right-hand side of the functional equation linking zeta_alpha to
    zeta_beta (duplication-formula route); use for Re s < 1/2 so the Gamma
    factor stays clear of poles.  Raises DomainError where a factor, or the
    value, leaves double range.
    """
    s = complex(s)
    rest = zeta_beta(1.0 - s)
    return in_double_range("functional_eq_rhs_zeta_alpha", s, lambda: (
        2.0 ** (1.0 - 2.0 * s) * math.pi ** (s - 0.5)
        * cmath.cos(math.pi * s / 2.0) * gamma(0.5 - s) * rest))


def mellin_prefactor(s: complex) -> complex:
    """phi(s) = (2^(1-2s)/pi) cos(pi s/2) cos(pi s/2 + pi/4) Gamma(1/2 - s).

    The prefactor that turns the half-shifted Mellin integral of the kernel
    into zeta_alpha on the strip -3/2 < Re s < -1/2.  Raises DomainError where
    a factor, or the product of the cosines (|Im s| past 226), leaves double range.
    """
    s = complex(s)
    return in_double_range("mellin_prefactor", s, lambda: (
        2.0 ** (1.0 - 2.0 * s) / math.pi * cmath.cos(math.pi * s / 2.0)
        * cmath.cos(math.pi * s / 2.0 + math.pi / 4.0) * gamma(0.5 - s)))


def alpha_to_lambda_factor(s: complex) -> complex:
    """(1 - 2^(1-s)) / (1 - 2^(1-2s)): converts zeta_alpha into zeta_lambda.  Its
    poles, s = 1/2 + i pi k / ln 2 (numerator 1 - (-1)^k sqrt 2), raise PoleError;
    a non-finite s raises InvalidArgumentError."""
    s = complex(s)
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise InvalidArgumentError(f"alpha_to_lambda_factor: argument must be finite, got {s}")
    if abs(s.real - 0.5) < POLE_TOL:
        k = round(s.imag * math.log(2.0) / math.pi)
        pole = complex(0.5, math.pi * k / math.log(2.0))
        if abs(s - pole) < POLE_TOL:
            raise PoleError(f"alpha_to_lambda_factor pole at s={pole}", location=pole, index=k)
    return (1.0 - 2.0 ** (1.0 - s)) / (1.0 - 2.0 ** (1.0 - 2.0 * s))
