"""Semi-infinite quadrature for kernel Mellin integrals.

The target objects are

    integral_0^inf f(x) x^(s-1/2) dx,    -3/2 < Re s < 1/2,

for kernel integrands that vanish linearly at 0 and decay like 1/x at
infinity, plus the classical calibration integral

    Gamma(s) eta(s) = integral_0^inf t^(s-1) / (e^t + 1) dt.

Scheme: a tanh-sinh (double-exponential) rule on (0, split_point], which
absorbs the algebraic endpoint behavior x^(Re s + 1/2) without any explicit
singularity subtraction, followed by geometrically growing Gauss-Legendre
panels.  Panel widths are additionally capped so the log-oscillation of
x^(i Im s) stays below pi/4 per panel.  Panels stop once a panel contributes
less than tail_stop_rel of the accumulated integral, or once the trusted
range max_x is reached, in which case the discarded tail is bounded
analytically with the supplied decay envelope |f(x)| <= decay_const * x^(-decay_power).

Both integrals run through one integration loop, which takes the
integrand, the exponent, the mass below the smallest node and a tail
policy; the public functions only check their domain and supply those.

Node positions depend only on the spec, never on s or the integrand, so
integrand evaluations can be memoized across a grid of s values.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidArgumentError, NonConvergenceError

__all__ = ["QuadratureSpec", "IntegralResult", "integrate_mellin",
           "integrate_gamma_zeta_a", "de_nodes", "panel_sequence"]

_DE_TMAX = 4.6  # transformed-tail suppression e^{-(1+a) pi sinh(tmax)} <= 1e-16 for a >= -3/4


@dataclass(frozen=True)
class QuadratureSpec:
    """Node layout and tail policy for the semi-infinite integrals.

    split_point: boundary between the singular-endpoint rule and the panels.
    de_levels: tanh-sinh refinement; the step is h = 2^-de_levels.
    panel_growth: geometric growth factor of panel widths (> 1).
    panel_nodes: Gauss-Legendre order per panel.
    tail_stop_rel: stop once a panel contributes less than this fraction.
    max_panels: hard cap on the number of panels.
    max_x: trusted upper edge; beyond it the decay envelope takes over.
    decay_const / decay_power: envelope |f(x)| <= decay_const * x^-decay_power
        used to bound the discarded tail (None disables the envelope).
    """

    split_point: float = 1.0
    de_levels: int = 5
    panel_growth: float = 2.0
    panel_nodes: int = 32
    tail_stop_rel: float = 1e-9
    max_panels: int = 60
    max_x: float = math.inf
    decay_const: float | None = None
    decay_power: float = 1.0

    def __post_init__(self):
        if self.split_point <= 0 or self.de_levels < 1 or self.panel_nodes < 2:
            raise InvalidArgumentError("bad quadrature spec: positive split/levels/nodes required")
        if self.panel_growth <= 1.0:
            raise InvalidArgumentError("panel_growth must exceed 1")
        if self.tail_stop_rel <= 0 or self.max_panels < 1:
            raise InvalidArgumentError("tail_stop_rel and max_panels must be positive")
        if self.max_x <= self.split_point:
            raise InvalidArgumentError("max_x must exceed split_point")


@dataclass
class IntegralResult:
    """Value plus an error budget: rule error estimate, analytic tail bound."""

    value: complex
    est_error: float
    tail_bound: float
    panels_used: int


def de_nodes(a: float, levels: int) -> tuple[np.ndarray, np.ndarray]:
    """tanh-sinh nodes and weights on (0, a), step h = 2^-levels.

    The map is x = a * logistic(pi sinh t); x is computed from the nearer
    endpoint so nodes deep in the singular corner never cancel to 0.
    """
    h = 2.0 ** (-levels)
    t = np.arange(-_DE_TMAX, _DE_TMAX + h / 2, h)
    u = 0.5 * math.pi * np.sinh(t)
    e = np.exp(-2.0 * np.abs(u))
    near = a * e / (1.0 + e)            # distance to the nearer endpoint
    x = np.where(u < 0, near, a - near)
    sech2 = 4.0 * e / (1.0 + e) ** 2
    w = 0.5 * a * (0.5 * math.pi) * np.cosh(t) * sech2 * h
    good = (x > 0.0) & (x < a) & (w > 0.0) & np.isfinite(w)
    return x[good], w[good]


@functools.lru_cache(maxsize=None)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def panel_sequence(spec: QuadratureSpec, im_s: float = 0.0):
    """Yield (a, b) panel edges: geometric growth, oscillation-capped width."""
    ratio_cap = math.inf
    if abs(im_s) > 1e-12:
        ratio_cap = math.exp((math.pi / 4.0) / abs(im_s))
    a = spec.split_point
    for _ in range(spec.max_panels):
        b = min(a * spec.panel_growth, a * ratio_cap, spec.max_x)
        yield a, b
        if b >= spec.max_x:
            return
        a = b


def _panel_xw(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    xg, wg = _leggauss(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * xg, half * wg


def _integrate(integrand, expo: complex, spec: QuadratureSpec, near: tuple, tail,
               name: str, offset: complex = 0.0) -> IntegralResult:
    """integral_0^inf f(x) x^expo dx on the spec's node layout, plus `offset`.

    integrand(x) -> (values, truncation_bounds); the bounds are folded into
    est_error with the quadrature weights.

    near = (c, q): below the smallest node x_min, |f(x) x^expo| <= c x^(q-1),
    so the mass cut off there is c x_min^q / q, counted with 50% slack;
    c = None measures the slope |f(x_min)|/x_min of an f vanishing linearly.

    tail(edge, last) bounds the integral past the last panel edge; `last` is
    |last panel| when the panel criterion stopped the loop and None when the
    trusted range max_x ran out.  A None return means no bound applies.
    """

    def rule(nodes):
        # sum_j f(x_j) x_j^expo w_j, the weighted truncation bounds, x and f
        x, w = nodes
        f, bounds = integrand(x)
        wt = x ** expo
        return np.sum(f * wt * w), float(np.sum(np.abs(wt) * w * bounds)), x, f

    # singular-endpoint region, with an embedded coarse rule for the estimate
    fine, trunc, x0, f0 = rule(de_nodes(spec.split_point, spec.de_levels))
    coarse = rule(de_nodes(spec.split_point, spec.de_levels - 1))[0]
    i_min = np.argmin(x0)
    x_min, (c, q) = float(x0[i_min]), near
    c = abs(f0[i_min]) / x_min if c is None else c
    est = abs(fine - coarse) + trunc + 1.5 * c * x_min ** q / q
    total = fine

    tail_bound = None
    panels = 0
    nsub = max(2, spec.panel_nodes // 2)
    for a, b in panel_sequence(spec, expo.imag):
        contrib, trunc, _, _ = rule(_panel_xw(a, b, spec.panel_nodes))
        embedded = rule(_panel_xw(a, b, nsub))[0]
        est = est + abs(contrib - embedded) + trunc
        total += contrib
        panels += 1
        if abs(contrib) < spec.tail_stop_rel * max(abs(total), 1e-300):
            tail_bound = tail(b, abs(contrib))
            break
        if b >= spec.max_x:
            tail_bound = tail(b, None)
    result = IntegralResult(value=complex(total + offset), est_error=float(est),
                            tail_bound=float(tail_bound or 0.0), panels_used=panels)
    if tail_bound is None:
        raise NonConvergenceError(f"{name}: no tail criterion met after {panels} panels",
                                  partial=result)
    return result


def integrate_mellin(integrand, s: complex, spec: QuadratureSpec) -> IntegralResult:
    """integral_0^inf f(x) x^(s-1/2) dx for a kernel-type integrand.

    `integrand(x_array) -> (values, truncation_bounds)` must be pure and
    expose a per-point bound on its own series-truncation error; those
    bounds are folded into est_error with the quadrature weights.

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
        # integral_edge^inf |f| x^(sigma-1/2) dx under the decay envelope
        if spec.decay_const is None:
            return last
        q = spec.decay_power - s.real - 0.5
        if q <= 0:
            raise DomainError("decay envelope too weak for this sigma")
        return spec.decay_const * edge ** (-q) / q

    return _integrate(integrand, s - 0.5, spec, (None, s.real + 1.5), envelope_tail,
                      "integrate_mellin")


def integrate_gamma_zeta_a(s: complex, spec: QuadratureSpec) -> IntegralResult:
    """integral_0^inf t^(s-1)/(e^t+1) dt, to compare against Gamma(s) eta(s).

    Re s > 0 uses the kernel as is.  For -1 < Re s < 0 the continued form is
    used: the kernel is replaced by 1/(e^t+1) - 1/2 on (0, split_point], the
    plain kernel is kept on the exponentially decaying far side, and the
    compensating term split^s/(2 s) is added in closed form.

    Raises:
        DomainError: for Re s <= -1, Re s = 0, or s = 0.
    """
    s = complex(s)
    if s.real <= 0.0 and not -1.0 < s.real < 0.0:
        raise DomainError(f"integrate_gamma_zeta_a needs Re s > 0 or -1 < Re s < 0, got {s}")
    subtracted = s.real < 0.0
    split = spec.split_point
    # near 0 the kernel is 1/2, with 1/2 subtracted -t/4; given, not measured,
    # as fermi(t) - 1/2 rounds to 0 at the smallest node
    near = (0.25, s.real + 1.0) if subtracted else (0.5, s.real)

    def integrand(t):
        e = np.exp(-t)  # t > 0
        f = e / (1.0 + e) - (0.5 if subtracted else 0.0) * (t < split)
        return f, np.zeros(len(t))

    def exponential_tail(edge, last):
        # kernel < e^-t out here; no bound applies where max_x cut the panels
        if last is not None and edge > abs(s):
            return math.exp(-edge) * 2.0 * edge ** (s.real - 1.0)
        return last

    offset = split ** s / (2.0 * s) if subtracted else 0.0
    return _integrate(integrand, s - 1.0, spec, near, exponential_tail,
                      "integrate_gamma_zeta_a", offset)
