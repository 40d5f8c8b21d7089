"""Semi-infinite quadrature for kernel Mellin integrals.

The target objects are

    integral_0^inf f(x) x^(s-1/2) dx,    -3/2 < Re s < 1/2,

for kernel integrands that vanish linearly at 0 and decay like 1/x at
infinity, plus the classical calibration integral

    Gamma(s) eta(s) = integral_0^inf t^(s-1) / (e^t + 1) dt.

Scheme: on (0, a], a = split_point, the caller's power series
series = (powers, coef, err_pow, err), meaning

    f(x) = sum_j coef_j x^p_j + E(x),    |E(x)| <= sum_i err_i x^q_i,

integrates against x^e in closed form, sum_j coef_j a^(p_j+e+1)/(p_j+e+1),
with an error below the integrated majorant.  Geometrically growing
Gauss-Legendre panels follow, their widths capped so the log-oscillation of
x^(i Im s) stays below pi/4 per panel.  Panels stop once a panel contributes
less than tail_stop_rel of the accumulated integral, or at the trusted range
max_x, past which the decay envelope |f(x)| <= decay_const / x bounds the
tail.  Node positions depend only on the spec, never on s or the integrand,
so integrand evaluations can be memoized across a grid of s values.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidArgumentError, NonConvergenceError
from .kernels import fermi_series

__all__ = ["QuadratureSpec", "IntegralResult", "integrate_mellin",
           "integrate_gamma_zeta_a", "panel_sequence"]


@dataclass(frozen=True)
class QuadratureSpec:
    """Node layout and tail policy for the semi-infinite integrals.

    split_point: end of the power-series head, start of the panels.
    panel_nodes: Gauss-Legendre order per panel.
    tail_stop_rel: stop once a panel contributes less than this fraction.
    max_panels: hard cap on the number of panels.
    max_x: trusted upper edge; beyond it the decay envelope takes over.
    decay_const: envelope |f(x)| <= decay_const / x used to bound the
        discarded tail (None disables the envelope).
    """

    split_point: float = 1.0
    panel_nodes: int = 32
    tail_stop_rel: float = 1e-9
    max_panels: int = 60
    max_x: float = math.inf
    decay_const: float | None = None

    def __post_init__(self):
        if self.split_point <= 0 or self.panel_nodes < 2:
            raise InvalidArgumentError("bad quadrature spec: positive split and nodes required")
        if self.tail_stop_rel <= 0 or self.max_panels < 1:
            raise InvalidArgumentError("tail_stop_rel and max_panels must be positive")
        if self.max_x <= self.split_point:
            raise InvalidArgumentError("max_x must exceed split_point")


@dataclass
class IntegralResult:
    """Value plus an error budget: est_error = the head's integrated majorant
    + per panel |panel_nodes rule - half-order rule| + the integrand's weighted
    truncation bounds; tail_bound bounds the integral past the last panel."""

    value: complex
    est_error: float
    tail_bound: float
    panels_used: int


@functools.lru_cache(maxsize=None)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)  # first use imports numpy.polynomial


def panel_sequence(spec: QuadratureSpec, im_s: float = 0.0):
    """Yield (a, b) panel edges: doubling widths, oscillation-capped."""
    ratio_cap = math.inf
    if abs(im_s) > 1e-12:
        ratio_cap = math.exp((math.pi / 4.0) / abs(im_s))
    a = spec.split_point
    for _ in range(spec.max_panels):
        b = min(a * 2.0, a * ratio_cap, spec.max_x)
        yield a, b
        if b >= spec.max_x:
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


def _integrate(integrand, expo: complex, spec: QuadratureSpec, series, tail,
               name: str) -> IntegralResult:
    """integral_0^inf f(x) x^expo dx: series head on (0, split_point], then panels.

    tail(edge, last) bounds the integral past the last panel edge; `last` is
    |last panel| when the panel criterion stopped the loop and None when the
    trusted range max_x ran out.  A None return means no bound applies.
    """

    def rule(a, b, n):
        # n-node Gauss sum_j f(x_j) x_j^expo w_j on [a, b], weighted truncation bounds
        xg, wg = _leggauss(n)
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        x, w = mid + half * xg, half * wg
        f, bounds = integrand(x)
        wt = x ** expo
        return np.sum(f * wt * w), float(np.sum(np.abs(wt) * w * bounds))

    total, est = _series_head(series, expo, spec.split_point)
    tail_bound = None
    panels = 0
    nsub = max(2, spec.panel_nodes // 2)
    for a, b in panel_sequence(spec, expo.imag):
        contrib, trunc = rule(a, b, spec.panel_nodes)
        embedded = rule(a, b, nsub)[0]
        est = est + abs(contrib - embedded) + trunc
        total += contrib
        panels += 1
        if abs(contrib) < spec.tail_stop_rel * max(abs(total), 1e-300):
            tail_bound = tail(b, abs(contrib))
            break
        if b >= spec.max_x:
            tail_bound = tail(b, None)
    result = IntegralResult(value=complex(total), est_error=float(est),
                            tail_bound=float(tail_bound or 0.0), panels_used=panels)
    if tail_bound is None:
        raise NonConvergenceError(f"{name}: no tail criterion met after {panels} panels",
                                  partial=result)
    return result


def integrate_mellin(integrand, s: complex, spec: QuadratureSpec, series) -> IntegralResult:
    """integral_0^inf f(x) x^(s-1/2) dx for a kernel-type integrand.

    `integrand(x_array) -> (values, truncation_bounds)` must be pure and
    expose a per-point bound on its own series-truncation error; those
    bounds are folded into est_error with the quadrature weights.  series is
    f's power series on (0, split_point], in the format of the module docstring.

    Raises:
        DomainError: outside the strip -3/2 < Re s < 1/2.
        NonConvergenceError: max_panels exhausted before either the
            tail_stop_rel criterion or the max_x envelope policy applied
            (the partial result rides on the exception).
    """
    s = complex(s)
    if not -1.5 < s.real < 0.5:
        raise DomainError(f"integrate_mellin requires -3/2 < Re s < 1/2, got {s}")

    def envelope_tail(edge, last):
        # integral_edge^inf (C/x) x^(sigma-1/2) dx under the decay envelope
        if spec.decay_const is None:
            return last
        return spec.decay_const * edge ** (s.real - 0.5) / (0.5 - s.real)

    return _integrate(integrand, s - 0.5, spec, series, envelope_tail, "integrate_mellin")


def integrate_gamma_zeta_a(s: complex, spec: QuadratureSpec) -> IntegralResult:
    """integral_0^inf t^(s-1)/(e^t+1) dt, to compare against Gamma(s) eta(s).

    The head takes the Fermi series 1/2 - sum_k c_k t^(2k+1).  The closed form
    a^s/(2s) of its constant term also continues integral_0^a t^(s-1)/2 dt to
    -1 < Re s < 0, so one formula serves both sides of Re s = 0.

    Raises:
        DomainError: for Re s <= -1, Re s = 0, or s = 0.
        InvalidArgumentError: split_point >= pi, outside the series' disc.
    """
    s = complex(s)
    if s.real <= 0.0 and not -1.0 < s.real < 0.0:
        raise DomainError(f"integrate_gamma_zeta_a needs Re s > 0 or -1 < Re s < 0, got {s}")

    def integrand(t):
        e = np.exp(-t)  # t > 0
        return e / (1.0 + e), np.zeros(len(t))

    def exponential_tail(edge, last):
        # kernel < e^-t out here; no bound applies where max_x cut the panels
        if last is not None and edge > abs(s):
            return math.exp(-edge) * 2.0 * edge ** (s.real - 1.0)
        return last

    return _integrate(integrand, s - 1.0, spec, fermi_series(spec.split_point),
                      exponential_tail, "integrate_gamma_zeta_a")
