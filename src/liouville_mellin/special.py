"""Complex gamma and the base zeta evaluator.

The only analytic inputs the rest of the package needs are Gamma(s) and a
certifiable zeta(s) on the whole plane.  zeta is built from the alternating
series

    eta(s) = sum_{n>=1} (-1)^(n-1) n^(-s)        (Re s > 0)

through  zeta(s) = eta(s) / (1 - 2^(1-s)),  continued to Re s <= 0 by the
Riemann functional equation

    zeta(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s) zeta(1-s).

eta itself is evaluated with Borwein's acceleration.  For Re s > 0 its
truncation error at order n is at most Gamma(sigma) / (|Gamma(s)| d_n), with
d_n = T_n(3) >= (3 + sqrt 8)^n / 2 (P. Borwein, CMS Conf. Proc. 27, 2000); n
is the smallest order that brings a closed-form majorant of that bound to
2^-53, capped at series_terms (128).  At the cap eta raises
TruncationBudgetError where the bound exceeds target_rel_err |eta|.
`_eta_bound` adds the sum's rounding to the truncation bound.  zeta also hands
eta the disc |s| < 0.4, Re s <= 0, where the bound does not hold: there the
order is a fixed 50 and the value carries no bound.
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
                     TruncationBudgetError, in_double_range)

__all__ = ["EvalConfig", "DEFAULT_EVAL_CONFIG", "gamma", "zeta_alternating",
           "zeta", "eta_continued", "POLE_TOL"]

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class EvalConfig:
    """The fixed budget of the series evaluators; DEFAULT_EVAL_CONFIG is the
    one instance the package uses.

    series_terms: hard cap on the Borwein order of eta, hence on the terms
        it sums.  zeta(2s) for |Im s| <= 60 reaches it from |Im 2s| of about
        111 (Re 2s near 0) or 119 (Re 2s = 1); at |Im 2s| = 120 the
        truncation bound still meets target_rel_err |eta| unless Re 2s is
        below about 0.001 or 2s is next to a zero of zeta.
    target_rel_err: at the cap, eta raises TruncationBudgetError where its
        truncation bound exceeds target_rel_err |eta|.
    zero_threshold: |denominator| scale below which a quotient is treated
        as division by an exact-zero candidate and reported as an error.
    """

    series_terms: int = 128
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
def _borwein_weights(n: int) -> tuple[tuple[float, ...], tuple[complex, ...], float, float]:
    """Borwein's eta weights of order n: the signed weights (-1)^k (d_n - d_k)
    for k < n, bases complex(k + 1) for at least those k, d_n, and
    c_n = sum |w_k| / d_n (about n / sqrt 2), where d_0..d_n are the partial
    sums of the coefficients of the shifted Chebyshev polynomial T_n(1 - 2x)
    taken at x = -1, so d_n = T_n(3)."""
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
    return weights, bases, dn, math.fsum(map(abs, weights)) / dn


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
# ln 2 from d_n >= (3 + sqrt 8)^n / 2, and 53 ln 2 for the target 2^-53
_ORDER_OFFSET = 54.0 * math.log(2.0)
# the order on the disc |s| < 0.4, Re s <= 0, where no bound holds
_DISC_ORDER = 50
_UNIT_ROUNDOFF = 2.0 ** -53


def _log_gamma_ratio(s: complex) -> float:
    """A majorant of ln(Gamma(sigma) / |Gamma(s)|) for sigma = Re s > 0.

    From Gamma's product, |Gamma(sigma) / Gamma(sigma + it)|^2 is
    prod_{k>=0} (1 + t^2 / (sigma + k)^2).  Its log f(sigma + k) decreases in
    k, so the terms past k = 0 sum to at most
    int_sigma^inf f = -sigma f(sigma) + 2|t| atan(|t| / sigma), which gives

        (1 - sigma)/2 log1p(t^2/sigma^2) + |t| atan(|t|/sigma),

    the second term being (pi/2)|t| - |t| atan(sigma/|t|).  log1p is split
    past |t| = sigma so that t^2/sigma^2 cannot overflow.
    """
    sigma, t = s.real, abs(s.imag)
    if t <= sigma:
        q = math.log1p((t / sigma) ** 2)
    else:
        q = 2.0 * (math.log(t) - math.log(sigma)) + math.log1p((sigma / t) ** 2)
    return 0.5 * (1.0 - sigma) * q + t * math.atan2(t, sigma)


def _borwein_order(s: complex, budget: EvalConfig) -> int:
    """The smallest order n whose truncation bound is at most 2^-53, capped
    by series_terms; a fixed 50 for Re s <= 0.

    For sigma > 0, eta(s) Gamma(s) = int_0^1 (ln 1/x)^(s-1) / (1 + x) dx.
    With p(x) = T_n(1 - 2x), (p(-1) - p(x)) / (1 + x) is a polynomial in x,
    and int_0^1 x^k (ln 1/x)^(s-1) dx = Gamma(s) (k+1)^(-s) turns its
    integral into sum_{k<n} w_k (k+1)^(-s) Gamma(s), with the weights
    w_k = (-1)^k (d_n - d_k) of `_borwein_weights` and p(-1) = d_n = T_n(3).
    So eta(s) - sum_{k<n} w_k (k+1)^(-s) / d_n is
    int_0^1 p(x) (ln 1/x)^(s-1) / (1 + x) dx / (d_n Gamma(s)), and |p| <= 1
    on [0, 1] bounds it by Gamma(sigma) eta(sigma) / (|Gamma(s)| d_n), where
    eta(sigma) <= 1.  The order is O(1): the majorant of `_log_gamma_ratio`
    and one ceil, no table of orders.

    Borwein's integral needs sigma > 0.  zeta also calls eta on the disc
    |s| < 0.4, Re s <= 0; there the order is a fixed 50, with no bound.
    """
    if s.real <= 0.0:
        return min(_DISC_ORDER, budget.series_terms)
    needed = (_log_gamma_ratio(s) + _ORDER_OFFSET) / _BORWEIN_RATE
    return budget.series_terms if needed >= budget.series_terms else math.ceil(needed)


def _eta_bound(s: complex, budget: EvalConfig) -> tuple[float, float]:
    """Bounds on |_eta_borwein(s, budget) - eta(s)| at the order
    `_borwein_order` picks: (truncation, rounding), whose sum bounds the
    error; both inf for Re s <= 0, where the truncation is unbounded.  O(1):
    it does not loop over the terms.

    The truncation part is Borwein's Gamma(sigma) / (|Gamma(s)| d_n), through
    the majorant of `_log_gamma_ratio` and d_n >= (3 + sqrt 8)^n / 2; inf
    past double range.

    For the rounding part, with u = 2^-53, sigma > 0 and libm's log, pow, sin
    and cos within one ulp (2u), each computed (k+1)^(-s) is within
    (3|t| ln(k+1) + 5) u of its value: the phase -t ln(k+1) takes the log's
    ulp and one rounding of the product, and the modulus and each part of
    the cosine and sine, with the products between them, add 5u.  Integer
    s up to 100 take the integer-power branch of complex ** instead: its
    error, about (s + log2 s + 2) u (k+1)^(-s), is within 5u for k >= 2 and
    nil at the bases 1 and 2.  The product by w_k adds
    u |w_k|, the running sum of n terms (n - 1) u sum |w_k|, the division by
    d_n u |eta| <= u c_n, and the rounded weights and d_n, against their
    exact integers, at most 2u c_n (tests/test_special.py checks that for
    every order up to 256).  With ln(k+1) <= ln n, and u c_n for the terms
    of second order in u, the rounding is at most (3|t| ln n + n + 9) u c_n.
    It grows with |t|, and no higher order shrinks it: about 2e-11 at
    |t| = 120 and n = 128.
    """
    if s.real <= 0.0:
        return math.inf, math.inf
    n = _borwein_order(s, budget)
    x = _log_gamma_ratio(s) + math.log(2.0) - n * _BORWEIN_RATE
    truncation = math.exp(x) if x < 709.0 else math.inf
    c_n = _borwein_weights(n)[3]
    return truncation, (3.0 * abs(s.imag) * math.log(n) + n + 9.0) * _UNIT_ROUNDOFF * c_n


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
        TruncationBudgetError: when the cap series_terms binds and the
            truncation bound at that order exceeds target_rel_err |eta(s)|:
            at the defaults, from |Im s| of about 124 at Re s = 1/2 and 120
            as Re s tends to 0, and next to a zero of eta once the cap binds.
    """
    n = _borwein_order(s, budget)
    weights, bases, dn, _ = _borwein_weights(n)
    neg = -s
    total = 0.0 + 0.0j
    for w, b in zip(weights, bases):
        total += w * b ** neg
    value = total / dn
    if n == budget.series_terms:
        bound = _eta_bound(s, budget)[0]
        if bound > budget.target_rel_err * abs(value):
            raise TruncationBudgetError(
                f"eta: Borwein order capped at series_terms={n} for s={s}; "
                f"truncation bound {bound:.1e} > {budget.target_rel_err:.1e} |eta|",
                achieved_bound=bound)
    return value


def eta_continued(s: complex) -> complex:
    """eta(s) on the whole plane: accelerated series for Re s > 0, else
    (1 - 2^(1-s)) zeta(s) with zeta continued by the functional equation.

    eta is entire, so no pole handling is needed here.
    """
    s = _require_finite(s, "eta_continued")
    if s.real > 0.0:
        return _eta_borwein(s, DEFAULT_EVAL_CONFIG)
    return in_double_range("eta_continued", s, lambda: zeta(s) * (1.0 - 2.0 ** (1.0 - s)))


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
        TruncationBudgetError: where eta's order is capped (see
            `_eta_borwein`).
        DomainError: where a factor of the reflection, or the value, leaves
            double range.
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
    rest = zeta(1.0 - s)
    return in_double_range("zeta", s, lambda: (
        2.0 ** s * math.pi ** (s - 1.0) * cmath.sin(math.pi * s / 2.0) * gamma(1.0 - s) * rest))
