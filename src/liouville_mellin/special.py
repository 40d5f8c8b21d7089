"""Complex gamma and the base zeta evaluator.

The only analytic inputs the rest of the package needs are Gamma(s) and a
certifiable zeta(s) on the whole plane.  zeta is built from the alternating
series

    eta(s) = sum_{n>=1} (-1)^(n-1) n^(-s)        (Re s > 0)

through  zeta(s) = eta(s) / (1 - 2^(1-s)),  continued to Re s <= 0 by the
Riemann functional equation

    zeta(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s) zeta(1-s).

eta itself is evaluated with Borwein's acceleration, whose error decays like
(3 + sqrt 8)^(-n); n comes from that error model, with floor accel_order (50)
and cap series_terms (128), past which eta raises TruncationBudgetError.
The signed weights (-1)^k (d_n - d_k) of each order are built once, on its
first use, and eta is one loop of w * (k+1)^(-s) over them and the cached
bases complex(k+1).  That is the same IEEE arithmetic, in the same order, as
building each sign, weight and base per term, so every value keeps its bits.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

from .errors import (DomainError, InvalidArgumentError, PoleError,
                     TruncationBudgetError)

__all__ = ["EvalConfig", "DEFAULT_EVAL_CONFIG", "gamma", "zeta_alternating",
           "zeta", "eta_continued", "POLE_TOL"]

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class EvalConfig:
    """The fixed budget of the series evaluators; DEFAULT_EVAL_CONFIG is the
    one instance the package uses.

    series_terms: hard cap on the number of terms any alternating-series
        evaluation may consume; an evaluation whose error model needs more
        raises TruncationBudgetError.  128 covers zeta(2s) for |Im s| <= 60
        (order 127 at |Im 2s| = 120).
    accel_order: the smallest order of the Borwein acceleration.
    target_rel_err: relative accuracy the acceleration order is chosen for.
    zero_threshold: |denominator| scale below which a quotient is treated
        as division by an exact-zero candidate and reported as an error.
    """

    series_terms: int = 128
    accel_order: int = 50
    target_rel_err: float = 1e-12
    zero_threshold: float = 1e-13


DEFAULT_EVAL_CONFIG = EvalConfig()

# Lanczos rational approximation of Gamma, g = 607/128 with 15 coefficients
# (Godfrey's classical double-precision set; relative error ~1e-15 for
# Re z > 0 when paired with the reflection formula below).
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)

POLE_TOL = 1e-12  # distance to a pole below which evaluators raise PoleError


def _require_finite(s: complex, where: str) -> complex:
    s = complex(s)
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise InvalidArgumentError(f"{where}: argument must be finite, got {s}")
    return s


def gamma(s: complex) -> complex:
    """Complex Gamma function.

    Verified against mpmath, at least 0.05 away from the poles, to 1e-12
    relative error on |Re s|, |Im s| <= 10, and to 1e-11 (worst seen 5e-14)
    on Re s in [-1.5, 2.5], |Im s| <= 60, where the functional equations of
    the zeta family call it.  No accuracy is claimed outside those domains.
    The reflection formula handles Re s < 1/2.

    Raises:
        PoleError: when s sits on a non-positive integer.
        DomainError: where a factor, or the value, leaves double range.
    """
    s = _require_finite(s, "gamma")
    if s.imag == 0.0 and s.real <= 0.5:
        nearest = round(s.real)
        if nearest <= 0 and abs(s.real - nearest) < POLE_TOL:
            raise PoleError(f"gamma pole at s={nearest}", location=complex(nearest),
                            index=int(nearest))
    try:
        if s.real < 0.5:
            # Gamma(s) Gamma(1-s) = pi / sin(pi s)
            value = math.pi / (cmath.sin(math.pi * s) * gamma(1.0 - s))
        else:
            z = s - 1.0
            acc = _LANCZOS_C[0]
            for i in range(1, len(_LANCZOS_C)):
                acc += _LANCZOS_C[i] / (z + i)
            t = z + _LANCZOS_G + 0.5
            try:
                value = math.sqrt(_TWO_PI) * t ** (z + 0.5) * cmath.exp(-t) * acc
            except OverflowError:
                value = complex(math.inf)
            if not cmath.isfinite(value):  # from real s = 142.6 the power overflows
                p = t ** ((z + 0.5) / 2.0)  # first, so e^-t scales each half of it
                value = math.sqrt(_TWO_PI) * (p * cmath.exp(-t)) * p * acc
    except (OverflowError, DomainError):  # the latter from gamma(1-s)
        value = complex(math.inf)
    if not cmath.isfinite(value):
        raise DomainError(f"gamma: a factor leaves double range at s={s}")
    return value


# complex(k + 1) for every term the default budget allows
_BASES = tuple(complex(k + 1) for k in range(DEFAULT_EVAL_CONFIG.series_terms))


@functools.lru_cache(maxsize=None)
def _borwein_weights(n: int) -> tuple[tuple[float, ...], tuple[complex, ...], float]:
    """Borwein's eta weights of order n: the signed weights (-1)^k (d_n - d_k)
    for k < n, bases complex(k + 1) for at least those k, and d_n, where
    d_0..d_n are the Chebyshev-derived partial sums."""
    ds = [1.0]
    term = 1.0
    acc = 1.0
    for i in range(1, n + 1):
        term *= (n + i - 1) * (n - i + 1) * 4.0 / ((2.0 * i) * (2.0 * i - 1.0))
        acc += term
        ds.append(acc)
    dn = ds[n]
    weights = tuple(dn - d if k % 2 == 0 else -(dn - d) for k, d in enumerate(ds[:n]))
    bases = _BASES if n <= len(_BASES) else tuple(complex(k + 1) for k in range(n))
    return weights, bases, dn


def zeta_alternating(s: complex) -> complex:
    """eta(s) = sum (-1)^(n-1) n^(-s) for Re s > 0, accelerated.

    Raises:
        DomainError: for Re s <= 0 (the continuation lives in `zeta` /
            `eta_continued`, not here).
    """
    s = _require_finite(s, "zeta_alternating")
    if s.real <= 0.0:
        raise DomainError(f"zeta_alternating requires Re s > 0, got {s}")
    return _eta_borwein(s, DEFAULT_EVAL_CONFIG)


_BORWEIN_RATE = math.log(3.0 + math.sqrt(8.0))


def _borwein_order(s: complex, budget: EvalConfig) -> int:
    """Acceleration order meeting target_rel_err under the error model
    3 (3+sqrt 8)^-n (1 + 2|t|) e^(pi |t|/2), capped by series_terms."""
    t = abs(s.imag)
    needed = (0.5 * math.pi * t + math.log(3.0 * (1.0 + 2.0 * t))
              - math.log(budget.target_rel_err)) / _BORWEIN_RATE
    n = max(budget.accel_order, int(math.ceil(needed)))
    return min(n, budget.series_terms)


def _eta_borwein(s: complex, budget: EvalConfig) -> complex:
    """Borwein-accelerated eta(s): sum_{k<n} w_k (k+1)^(-s) / d_n over the
    cached signed weights w_k = (-1)^k (d_n - d_k) of order n.

    Each term is the float weight times the complex power, added to a
    running total in k order: the same IEEE operations as a per-term
    sign * (d_n - d_k) * complex(k + 1) ** (-s), since +-1.0 * x is +-x
    exactly, so the values keep their bits.  Builtin sum() is not used: it
    was no faster, and from Python 3.12 it compensates float sums, so the
    bits would depend on the interpreter.  Nor is numpy: its vectorised
    powers and sums round differently and would tie these values to its
    SIMD dispatch.

    Raises:
        TruncationBudgetError: when the cap series_terms binds and the error
            model at that order exceeds target_rel_err (|Im s| above about
            122 at the defaults).
    """
    n, t = _borwein_order(s, budget), abs(s.imag)
    if n == budget.series_terms:  # the error model at order n; inf past double range
        x = 0.5 * math.pi * t - n * _BORWEIN_RATE
        bound = 3.0 * (1.0 + 2.0 * t) * math.exp(x) if x < 709.0 else math.inf
        if bound > budget.target_rel_err:
            raise TruncationBudgetError(
                f"eta: Borwein order capped at series_terms={n} for s={s}; "
                f"error model {bound:.1e} > {budget.target_rel_err:.1e}",
                achieved_bound=bound)
    weights, bases, dn = _borwein_weights(n)
    neg = -s
    total = 0.0 + 0.0j
    for w, b in zip(weights, bases):
        total += w * b ** neg
    return total / dn


def eta_continued(s: complex) -> complex:
    """eta(s) on the whole plane: accelerated series for Re s > 0, else
    (1 - 2^(1-s)) zeta(s) with zeta continued by the functional equation.

    eta is entire, so no pole handling is needed here.
    """
    s = _require_finite(s, "eta_continued")
    if s.real > 0.0:
        return _eta_borwein(s, DEFAULT_EVAL_CONFIG)
    return zeta(s) * (1.0 - 2.0 ** (1.0 - s))  # zeta raises first where 2^(1-s) would overflow


def zeta(s: complex) -> complex:
    """Riemann zeta for any s != 1.

    For Re s > 0 the accelerated alternating series is used through
    zeta = eta / (1 - 2^(1-s)); the removable zeros of that denominator at
    s = 1 + 2 pi i k / ln 2 (k != 0) are bridged by averaging evaluations
    at s +- 1e-6.  For Re s <= 0 the functional equation is applied, except
    on a small disc around s = 0 where the reflection would hit the zeta
    pole: there the entire eta series still converges at full accuracy and
    is used directly.

    Raises:
        PoleError: at s = 1.
    """
    s = _require_finite(s, "zeta")
    if abs(s - 1.0) < POLE_TOL:
        raise PoleError("zeta pole at s=1", location=1.0 + 0.0j, index=1)
    if s.real > 0.0 or abs(s) < 0.4:
        den = 1.0 - 2.0 ** (1.0 - s)
        if abs(den) < 1e-8 and abs(s.imag) > 1.0:
            # removable zero of the denominator at s = 1 + 2 pi i k/ln 2,
            # k != 0; near the k = 0 pole the quotient is left alone so the
            # blow-up stays genuine
            return 0.5 * (zeta(s + 1e-6) + zeta(s - 1e-6))
        return _eta_borwein(s, DEFAULT_EVAL_CONFIG) / den
    rest = zeta(1.0 - s)  # raises where the cap binds, before sin(pi s/2) can overflow
    return 2.0 ** s * math.pi ** (s - 1.0) * cmath.sin(math.pi * s / 2.0) * gamma(1.0 - s) * rest
