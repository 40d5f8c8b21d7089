"""Semi-infinite quadrature for kernel Mellin integrals.

The target objects are

    integral_0^inf f(x) x^(s-1/2) dx,    -3/2 < Re s < 1/2,

for kernel integrands that vanish linearly at 0 and decay like 1/x at
infinity, plus the classical calibration integral

    Gamma(s) eta(s) = integral_0^inf t^(s-1) / (e^t + 1) dt.

Scheme: on (0, a], a = SPLIT_POINT, the caller's power series
series = (powers, coef, err_pow, err), meaning

    f(x) = sum_j coef_j x^p_j + E(x),    |E(x)| <= sum_i err_i x^q_i,

integrates against x^e in closed form, sum_j coef_j a^(p_j+e+1)/(p_j+e+1),
with an error below the integrated majorant.  Geometrically growing
Gauss-Legendre panels follow, doubling in width, or narrower where the
log-oscillation of x^(i Im s) would pass pi/4 per panel.  Every integral sums
all of its panels to the caller's range max_x, asked of the integrand in one
call per Gauss rule, and the caller bounds the integral past max_x once.  Node
positions depend on max_x, and on Im s only once the oscillation cap binds,
|Im s| > pi/(4 ln 2) ~ 1.13; never on the integrand, so integrand
evaluations can be memoized across a grid of s values.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidArgumentError, NonConvergenceError
from .kernels import fermi_series

__all__ = ["IntegralResult", "integrate_mellin", "integrate_gamma_zeta_a",
           "panel_sequence", "SPLIT_POINT", "PANEL_NODES", "MAX_PANELS",
           "DECAY_CONST", "MELLIN_STRIP"]


SPLIT_POINT = 1.0     # end of the power-series head, start of the panels
PANEL_NODES = 32      # Gauss-Legendre order per panel
MAX_PANELS = 60       # hard cap on the number of panels
DECAY_CONST = 1.2     # envelope |kernel(x)| <= 1.2/x past max_x, empirical
MELLIN_STRIP = (-1.5, 0.5)  # integrate_mellin's open interval of Re s


@dataclass
class IntegralResult:
    """Value plus an error budget: est_error = the head's integrated majorant
    + per panel |PANEL_NODES rule - half-order rule| + the integrand's weighted
    truncation bounds; tail_bound bounds the integral past max_x."""

    value: complex
    est_error: float
    tail_bound: float
    panels_used: int


@functools.lru_cache(maxsize=None)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)  # first use imports numpy.polynomial


def panel_sequence(im_s: float, max_x: float):
    """Yield (a, b) panel edges from SPLIT_POINT to at most max_x: doubling
    widths, capped at exp(pi/(4|Im s|)) where that is below 2.

    Raises:
        DomainError: where a panel would not grow, b <= a (the cap rounds to
            1 from |Im s| ~ 7.1e15).
    """
    ratio = 2.0
    if abs(im_s) > math.pi / (4.0 * math.log(2.0)):
        ratio = min(2.0, math.exp((math.pi / 4.0) / abs(im_s)))
    a = SPLIT_POINT
    for _ in range(MAX_PANELS):
        b = min(a * ratio, max_x)
        if b <= a:
            raise DomainError(f"panel_sequence: no panel grows past {a} at Im s={im_s}")
        yield a, b
        if b >= max_x:
            return
        a = b


def _series_head(series, expo: complex, a: float) -> tuple[complex, float]:
    """integral_0^a f(x) x^expo dx from f's series (where Re(p_j + expo) <= -1,
    its analytic continuation in expo), and the integrated majorant."""
    powers, coef, err_pow, err = (np.asarray(v, dtype=np.float64) for v in series)
    e = powers + expo + 1.0
    q = err_pow + expo.real + 1.0
    if (q <= 0.0).any():
        raise DomainError(f"series majorant not integrable against x^{expo}")
    return complex(np.sum(coef * a ** e / e)), float(np.sum(err * a ** q / q))


def _integrate(integrand, expo: complex, series, max_x: float, tail_bound: float,
               name: str) -> IntegralResult:
    """integral_0^max_x f(x) x^expo dx: series head on (0, SPLIT_POINT], then
    every panel up to max_x in one integrand call per Gauss rule.  tail_bound,
    the caller's bound on the integral past max_x, rides on the result.

    Raises:
        NonConvergenceError: MAX_PANELS panels end short of max_x (the
            partial result, with tail_bound 0, rides on it).
    """
    a, b = np.array(list(panel_sequence(expo.imag, max_x))).T
    mid, half = 0.5 * (a + b)[:, None], 0.5 * (b - a)[:, None]

    def rule(n):
        # per panel: n-node Gauss sum_j f(x_j) x_j^expo w_j, weighted truncation bounds
        xg, wg = _leggauss(n)
        x, w = mid + half * xg, half * wg
        f, bounds = (v.reshape(x.shape) for v in integrand(x.ravel()))
        wt = x ** expo
        return np.sum(f * wt * w, axis=1), np.sum(np.abs(wt) * w * bounds, axis=1)

    (contribs, truncs), embedded = rule(PANEL_NODES), rule(PANEL_NODES // 2)[0]
    head, head_err = _series_head(series, expo, SPLIT_POINT)
    # summed left to right in panel order, as cumsum does and np.sum's pairwise order does not
    total = complex(np.cumsum([head, *contribs])[-1])
    errs = np.column_stack([np.abs(contribs - embedded), truncs]).ravel()
    est = float(np.cumsum([head_err, *errs])[-1])
    if b[-1] < max_x:
        raise NonConvergenceError(f"{name}: {len(b)} panels end at {b[-1]:.6g}, short of "
                                  f"max_x = {max_x:.6g}",
                                  partial=IntegralResult(total, est, 0.0, len(b)))
    return IntegralResult(total, est, float(tail_bound), len(b))


def integrate_mellin(integrand, s: complex, series, max_x: float) -> IntegralResult:
    """integral_0^inf f(x) x^(s-1/2) dx for a kernel-type integrand.

    `integrand(x_array) -> (values, truncation_bounds)` must be pure and
    expose a per-point bound on its own series-truncation error; those
    bounds are folded into est_error with the quadrature weights.  series is
    f's power series on (0, SPLIT_POINT], in the format of the module
    docstring.  The panels run to max_x, and tail_bound integrates the
    DECAY_CONST / x envelope past it.

    Raises:
        DomainError: outside the strip -3/2 < Re s < 1/2, or from
            panel_sequence where no panel grows.
        InvalidArgumentError: max_x is not finite or not above SPLIT_POINT.
        NonConvergenceError: MAX_PANELS panels end short of max_x (the
            partial result rides on it).
    """
    s = complex(s)
    if not MELLIN_STRIP[0] < s.real < MELLIN_STRIP[1]:
        raise DomainError(f"integrate_mellin requires -3/2 < Re s < 1/2, got {s}")
    if not (math.isfinite(max_x) and max_x > SPLIT_POINT):
        raise InvalidArgumentError(f"integrate_mellin needs a finite max_x above "
                                   f"SPLIT_POINT = {SPLIT_POINT}, got {max_x}")
    # integral_max_x^inf (C/x) x^(sigma-1/2) dx under the decay envelope
    tail = DECAY_CONST * max_x ** (s.real - 0.5) / (0.5 - s.real)
    return _integrate(integrand, s - 0.5, series, max_x, tail, "integrate_mellin")


def integrate_gamma_zeta_a(s: complex) -> IntegralResult:
    """integral_0^inf t^(s-1)/(e^t+1) dt, to compare against Gamma(s) eta(s).

    The head takes the Fermi series 1/2 - sum_k c_k t^(2k+1).  The closed form
    a^s/(2s) of its constant term also continues integral_0^a t^(s-1)/2 dt to
    -1 < Re s < 0, so one formula serves both sides of Re s = 0.  The panels
    run to max_x, the first power of two at or past 128 and 8|s|.

    Raises:
        DomainError: for Re s <= -1, Re s = 0, |s| > 2^57 (max_x past the reach
            of MAX_PANELS doublings), where x^s, which bounds x^(s-1) times a
            Gauss weight, overflows on [1, max_x], or from panel_sequence where
            no panel grows.
        NonConvergenceError: MAX_PANELS panels end short of max_x, as the capped
            ones do past |Im s| = 15 pi / ln max_x (9.7 at 128; s = 0.5 + 10i).
    """
    s = complex(s)
    if not (s.real > 0.0 or -1.0 < s.real < 0.0) or not 8.0 * abs(s) <= 2.0 ** MAX_PANELS:
        raise DomainError(f"integrate_gamma_zeta_a needs Re s > 0 or -1 < Re s < 0, "
                          f"and |s| <= 2^57, got {s}")
    max_x = 2.0 ** max(7, math.ceil(math.log2(8.0 * abs(s))))
    if s.real * math.log(max_x) > np.log(np.finfo(np.float64).max):  # weights w < x
        raise DomainError(f"integrate_gamma_zeta_a: x^s overflows on [1, {max_x:g}], s={s}")

    def integrand(t):
        e = np.exp(-t)  # t > 0
        return e / (1.0 + e), np.zeros(len(t))

    # kernel < e^-t, and Gamma(a, x) <= 2 x^(a-1) e^-x once x >= 2(a-1), a = Re s,
    # which max_x >= 8|s| always is
    tail = 2.0 * math.exp((s.real - 1.0) * math.log(max_x) - max_x)
    return _integrate(integrand, s - 1.0, fermi_series(SPLIT_POINT), max_x, tail,
                      "integrate_gamma_zeta_a")
