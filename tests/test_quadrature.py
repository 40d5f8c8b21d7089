"""Semi-infinite quadrature: calibration integrals, error budgets, policies."""

import math
import warnings

import mpmath
import numpy as np
import pytest

from liouville_mellin import (DomainError, InvalidArgumentError, NonConvergenceError,
                              gamma, integrate_gamma_zeta_a, integrate_mellin, quadrature,
                              zeta_alternating)
from liouville_mellin.kernels import (fermi_series, kernel_M_with_bound, kernel_N_with_bound,
                                      kernel_series_with_bound)
from liouville_mellin.quadrature import (DECAY_CONST, MAX_PANELS, PANEL_NODES, SPLIT_POINT,
                                         _series_head, panel_sequence)
from liouville_mellin.verify import default_theorem2_grid

mpmath.mp.dps = 40

PI = math.pi
_GAUGE_TERMS = 20
GAUGE_MAX_X = 64.0  # six doubling panels; the gauge's tail past it is about e^-64


def _gauge(scale=1.0):
    """Kernel-type test integrand scale * x e^-x with zero truncation bound."""
    def f(x):
        return scale * x * np.exp(-x), np.zeros(len(x))
    return f


def _gauge_series(scale=1.0):
    """x e^-x = sum_{k<K} (-1)^k x^(k+1)/k! + E, |E| <= x^(K+1)/K! for x >= 0."""
    k = np.arange(_GAUGE_TERMS)
    coef = scale * np.array([(-1.0) ** j / math.factorial(j) for j in k])
    return (k + 1.0, coef, np.array([_GAUGE_TERMS + 1.0]),
            np.array([abs(scale) / math.factorial(_GAUGE_TERMS)]))


def _gamma_eta(s):
    return complex(mpmath.gamma(mpmath.mpc(s)) * mpmath.altzeta(mpmath.mpc(s)))


def refined_mellin(integrand, s, series, max_x, panels, nodes=2 * PANEL_NODES):
    """integrate_mellin's value over its series head and first `panels`
    panels, with `nodes` Gauss nodes per panel instead of PANEL_NODES."""
    expo = complex(s) - 0.5
    total = _series_head(series, expo, SPLIT_POINT)[0]
    xg, wg = np.polynomial.legendre.leggauss(nodes)
    for (a, b), _ in zip(panel_sequence(expo.imag, max_x), range(panels)):
        x = 0.5 * (a + b) + 0.5 * (b - a) * xg
        total += np.sum(integrand(x)[0] * x ** expo * 0.5 * (b - a) * wg)
    return total


def test_series_head_absorbs_endpoint_singularity():
    # integral_0^1 x^-3/4 dx = 4 and integral_0^1 x dx = 1/2, exactly in closed form
    one = (np.array([0.0]), np.array([1.0]), np.array([0.0]), np.array([0.0]))
    assert _series_head(one, complex(-0.75), 1.0) == (4.0, 0.0)
    assert _series_head(one, complex(1.0), 1.0) == (0.5, 0.0)
    # a majorant that is not integrable against x^expo gives no bound
    with pytest.raises(DomainError):
        _series_head(one, complex(-1.0), 1.0)


def test_calibration_s2():
    # integral_0^inf x/(e^x+1) dx = pi^2/12
    res = integrate_gamma_zeta_a(2.0)
    assert abs(res.value.real - PI ** 2 / 12.0) <= 1e-10
    assert res.est_error < 1e-10


def test_calibration_s1():
    # integral_0^inf 1/(e^x+1) dx = ln 2
    res = integrate_gamma_zeta_a(1.0)
    assert abs(res.value.real - math.log(2.0)) <= 1e-10


def test_calibration_matches_gamma_eta_on_right_halfplane():
    for s in (1.5, 3.0, complex(2.0, 1.0)):
        res = integrate_gamma_zeta_a(s)
        assert res.value == pytest.approx(gamma(s) * zeta_alternating(s),
                                          rel=1e-11)


def test_calibration_subtracted_form():
    # continued representation at s = -1/2 against Gamma(-1/2) eta(-1/2)
    s = -0.5
    res = integrate_gamma_zeta_a(s)
    expect = gamma(s) * ((1.0 - 2.0 ** (1.0 - s)) *
                         (-0.2078862249773545660173067253970493022262))
    # reference: Gamma(-1/2) eta(-1/2) = -1.34743647771550797...
    assert res.value.real == pytest.approx(-1.3474364777155080, abs=1e-14)
    assert abs(res.value - _gamma_eta(s)) <= 1e-14
    assert res.value == pytest.approx(expect, abs=1e-13)


@pytest.mark.parametrize("s", [-0.9, -0.5 + 0.5j, -0.25 + 2j, -0.05, 0.05, 0.25,
                               0.5 + 1j, 1.0, 2.0 - 1.5j, 3.0])
def test_fermi_head_matches_gamma_eta(s):
    # head on (0, 1] = Gamma(s) eta(s) - integral_1^inf t^(s-1)/(e^t+1) dt,
    # on both sides of Re s = 0 (the head continues the integral past it)
    rest = complex(mpmath.quad(lambda t: t ** (mpmath.mpc(s) - 1) / (mpmath.exp(t) + 1),
                               [1, 4, 16, 64, mpmath.inf]))
    head, bound = _series_head(fermi_series(1.0), complex(s) - 1.0, 1.0)
    assert bound < 1e-15
    assert abs(head - (_gamma_eta(s) - rest)) <= bound + 1e-14 * max(1.0, abs(head))
    res = integrate_gamma_zeta_a(s)
    assert abs(res.value - _gamma_eta(s)) <= 1e-14 * max(1.0, abs(res.value))


def _dyadic_gauss(f, expo, levels=400, nodes=32):
    """integral_(2^-levels)^1 f(x) x^expo dx on dyadic Gauss panels."""
    xg, wg = np.polynomial.legendre.leggauss(nodes)
    b = 2.0 ** -np.arange(levels)
    x = (0.75 * b[:, None] + 0.25 * b[:, None] * xg).ravel()
    w = (0.25 * b[:, None] * wg).ravel()
    return complex(np.sum(f(x) * x ** expo * w))


@pytest.mark.parametrize("route", ["N", "M"])
def test_kernel_series_head_matches_gauss_integral(route, table_100k):
    evaluate = kernel_N_with_bound if route == "N" else kernel_M_with_bound
    series = kernel_series_with_bound(route, 1.0, table_100k)
    f = lambda x: evaluate(x, table_100k)[0].real
    for s in default_theorem2_grid():
        head, bound = _series_head(series, s - 0.5, 1.0)
        # below 2^-400, |K(x)| <= x / 2 adds at most this much
        below = 0.5 * 2.0 ** (-400 * (s.real + 1.5)) / (s.real + 1.5)
        assert abs(head - _dyadic_gauss(f, s - 0.5)) <= min(bound, 1e-14) + below, (route, s)


@pytest.mark.parametrize("route", ["N", "M"])
def test_kernel_series_majorant_holds_pointwise(route, table_100k, table_main):
    # the series of the 50,001-term kernel against the 1,000,000-term kernel:
    # their gap is the truncation that the majorant's linear term bounds
    evaluate = kernel_N_with_bound if route == "N" else kernel_M_with_bound
    powers, coef, err_pow, err = kernel_series_with_bound(route, 1.0, table_100k)
    x = np.concatenate([np.geomspace(1e-6, 0.01, 9), np.linspace(0.02, 1.0, 50)])
    series = (coef * x[:, None] ** powers).sum(axis=1)
    majorant = (err * x[:, None] ** err_pow).sum(axis=1)
    # against the same truncation only the Taylor part of the majorant is left
    taylor = (err * x[:, None] ** err_pow)[:, err_pow > 1].sum(axis=1)
    near, _ = evaluate(x, table_100k)
    assert (np.abs(series - near.real) <= taylor + 1e-16).all()
    far, far_bound = evaluate(x, table_main)
    assert (np.abs(series - far.real) <= majorant + far_bound).all()


@pytest.mark.parametrize("route", ["N", "M"])
def test_kernel_series_taylor_majorant_is_led_by_the_first_term(route, table_main):
    # term m's Taylor remainder scales as n_m^-(q+29) and n_m >= 3 past m = 0,
    # so the x^29 coefficient is within a hair of term 0's, R(a)/a^29 |v_0|
    a = 1.0
    _, _, err_pow, err = kernel_series_with_bound(route, a, table_main)
    r2 = (a / PI) ** 2
    first = 0.25 * a * r2 ** 14 / (1.0 - r2) / a ** 29
    v0 = abs(float(table_main.beta_odd[0] if route == "N" else table_main.nu_odd[0]))  # n = 1
    assert err_pow[-1] == 29
    assert first * v0 <= err[-1] <= 1.01 * first * v0


def test_split_point_at_or_past_pi_raises(table_100k):
    for split in (PI, 3.5):
        with pytest.raises(InvalidArgumentError):
            kernel_series_with_bound("N", split, table_100k)
    with pytest.raises(DomainError):
        kernel_series_with_bound("plain", 1.0, table_100k)


def test_gamma_zeta_a_domain():
    for s in (0.0, -1.0, -1.5):
        with pytest.raises(DomainError):
            integrate_gamma_zeta_a(s)


def test_mellin_closed_form_and_refinement():
    # integral x e^-x x^(s-1/2) dx = Gamma(s+3/2) on the acceptance grid
    for re in (-1.25, -1.0, -0.75):
        for im in (0.0, 0.5, 1.0):
            s = complex(re, im)
            want = complex(mpmath.gamma(mpmath.mpc(re, im) + 1.5))
            r1 = integrate_mellin(_gauge(), s, _gauge_series(), GAUGE_MAX_X)
            fine = refined_mellin(_gauge(), s, _gauge_series(), GAUGE_MAX_X, r1.panels_used)
            assert abs(r1.value - want) <= max(r1.est_error, 1e-13)
            # doubling the node density moves the answer by less than est_error
            assert abs(r1.value - fine) <= r1.est_error + 1e-14


def test_mellin_linearity():
    s = complex(-0.75, 0.5)
    one = integrate_mellin(_gauge(1.0), s, _gauge_series(1.0), GAUGE_MAX_X)
    scaled = integrate_mellin(_gauge(123.456), s, _gauge_series(123.456), GAUGE_MAX_X)
    assert scaled.value == pytest.approx(123.456 * one.value, rel=1e-13)


def test_mellin_strip_enforced():
    for s in (0.5, 1.0, -1.5, -2.0):
        with pytest.raises(DomainError):
            integrate_mellin(_gauge(), complex(s), _gauge_series(), math.inf)


def test_mellin_needs_a_finite_range():
    # no panel set reaches an infinite max_x, so it is refused before any integrand call
    def untouchable(x):
        raise AssertionError("integrand called")
    for max_x in (math.inf, math.nan):
        with pytest.raises(InvalidArgumentError, match="finite max_x"):
            integrate_mellin(untouchable, complex(-0.75), _gauge_series(), max_x)
    # a range that ends at or before SPLIT_POINT has no panel; the error names max_x
    for max_x in (0.5, SPLIT_POINT):
        with pytest.raises(InvalidArgumentError, match=f"got {max_x}"):
            integrate_mellin(untouchable, complex(-0.75), _gauge_series(), max_x)


def test_mellin_tail_bound_honest():
    # the envelope DECAY_CONST/x covers x e^-x, since max x^2 e^-x = 4 e^-2;
    # cut at max_x and check the true discarded tail never exceeds tail_bound
    assert 4.0 * math.exp(-2.0) <= DECAY_CONST
    for s in (-0.75, complex(-1.25, 0.5)):
        res = integrate_mellin(_gauge(), complex(s), _gauge_series(), 8.0)
        assert res.panels_used == 3  # [1, 2], [2, 4], [4, 8]: stopped by max_x
        # true tail of integral_(max_x)^inf x^(s+1/2) e^-x dx
        a = complex(s) + 1.5
        true_tail = abs(complex(mpmath.gammainc(mpmath.mpc(a.real, a.imag), 8.0,
                                                mpmath.inf)))
        assert true_tail <= res.tail_bound
        want = complex(mpmath.gamma(mpmath.mpc(a.real, a.imag)))
        assert abs(res.value - want) <= res.est_error + res.tail_bound


def test_mellin_nonconvergence_carries_partial():
    # MAX_PANELS doubling panels end at 2^60, short of a range of 1e30
    def slow(x):
        return x / (1.0 + x * x), np.zeros(len(x))
    # alternating series with falling terms on (0, 1]: |E| <= x^41
    k = np.arange(20)
    slow_series = (2.0 * k + 1.0, (-1.0) ** k, np.array([41.0]), np.array([1.0]))
    with pytest.raises(NonConvergenceError) as err:
        integrate_mellin(slow, complex(0.45), slow_series, 1e30)
    assert err.value.partial is not None
    assert err.value.partial.panels_used == MAX_PANELS
    assert err.value.partial.tail_bound == 0.0


def _capped_panels(im_s, max_x):
    """Reference: the panel edges with the cap exp(pi/(4|Im s|)) formed for
    every |Im s| > 1e-12, which overflows below about 1.1e-3."""
    ratio_cap = math.inf
    if abs(im_s) > 1e-12:
        ratio_cap = math.exp((PI / 4.0) / abs(im_s))
    a, edges = SPLIT_POINT, []
    for _ in range(MAX_PANELS):
        b = min(a * 2.0, a * ratio_cap, max_x)
        edges.append((a, b))
        if b >= max_x:
            break
        a = b
    return edges


def test_oscillation_cap_on_panels():
    widths = [(b / a) for a, b in panel_sequence(4.0, math.inf)]
    assert max(widths) <= math.exp(PI / 4.0 / 4.0) + 1e-12
    plain = [(b / a) for a, b in panel_sequence(0.0, math.inf)]
    assert max(plain) == pytest.approx(2.0)
    # the cap binds past |Im s| = pi/(4 ln 2) ~ 1.1331; the edges are the reference's
    for t in (0.0, 1.2e-3, -1.2e-3, 0.5, 1.1330, 1.1332, -1.1332, 1.2, 5.0, 50.0):
        for max_x in (128.0, 1e5, math.inf):
            assert list(panel_sequence(t, max_x)) == _capped_panels(t, max_x), (t, max_x)
    # where the reference overflows, and below, the panels double as on the real axis
    for t in (1e-11, -1e-5, 1.09e-3):
        with pytest.raises(OverflowError):
            _capped_panels(t, math.inf)
    for t in (1e-300, -1e-12, 1e-11, -1e-5, 1.09e-3):
        assert list(panel_sequence(t, math.inf)) == list(panel_sequence(0.0, math.inf))


def test_panels_that_cannot_grow_raise():
    # exp(pi/(4|Im s|)) rounds to 1 past |Im s| ~ 7.1e15, so no panel would grow
    s = complex(-0.75, 1e16)
    with pytest.raises(DomainError, match="no panel grows"):
        list(panel_sequence(s.imag, math.inf))
    with pytest.raises(DomainError, match="no panel grows"):
        integrate_mellin(_gauge(), s, _gauge_series(), 1e30)
    # below it the panels grow too slowly to reach max_x in MAX_PANELS
    for t in (1e14, 7e15):
        with pytest.raises(NonConvergenceError):
            integrate_mellin(_gauge(), complex(-0.75, t), _gauge_series(), 1e30)


# (value, panels_used, relative tolerance): recorded at 1e-15 with the two
# per-integral loops that the shared integration loop replaced; for Re s < 0,
# where those loops erred by up to 3e-9, Gamma(s) eta(s) from mpmath at 1e-14.
# The calibration panels run to max_x = 128 (7 panels); the gauge's to GAUGE_MAX_X
GAMMA_ETA_PINS = {
    2.0: (0.8224670334241132 + 0j, 7, 1e-15),
    1.0: (0.6931471805599453 + 0j, 7, 1e-15),
    0.5 + 1j: (0.2746404655858677 - 0.21373200239376963j, 7, 1e-15),
    -0.5: (_gamma_eta(-0.5), 7, 1e-14),
    -0.5 + 0.5j: (_gamma_eta(-0.5 + 0.5j), 7, 1e-14),
}
MELLIN_GAUGE_PINS = {
    -0.75 + 0.5j: (0.834929965973747 - 0.4063818800581324j, 6, 1e-15),
    -1.25: (3.6256099082219087 + 0j, 6, 1e-15),
}


def test_shared_loop_reproduces_recorded_integrals():
    runs = [(integrate_gamma_zeta_a(s), pin) for s, pin in GAMMA_ETA_PINS.items()]
    runs += [(integrate_mellin(_gauge(), complex(s), _gauge_series(), GAUGE_MAX_X), pin)
             for s, pin in MELLIN_GAUGE_PINS.items()]
    for res, (value, panels, tol) in runs:
        assert abs(res.value - value) <= tol * abs(value)
        assert res.panels_used == panels


def _per_panel_mellin(integrand, s, series, max_x):
    """integrate_mellin's sums, panel by panel, with two integrand calls per
    panel: (value, est_error, tail_bound, panels_used)."""
    expo = s - 0.5

    def rule(a, b, n):
        xg, wg = np.polynomial.legendre.leggauss(n)
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        x, w = mid + half * xg, half * wg
        f, bounds = integrand(x)
        wt = x ** expo
        return np.sum(f * wt * w), float(np.sum(np.abs(wt) * w * bounds))

    total, est = _series_head(series, expo, SPLIT_POINT)
    for panels, (a, b) in enumerate(panel_sequence(expo.imag, max_x), 1):
        contrib, trunc = rule(a, b, PANEL_NODES)
        est = est + abs(contrib - rule(a, b, PANEL_NODES // 2)[0]) + trunc
        total += contrib
    assert b == max_x
    tail = DECAY_CONST * b ** (s.real - 0.5) / (0.5 - s.real)
    return complex(total), float(est), float(tail), panels


def test_one_integrand_call_per_rule():
    # every panel up to max_x in one call per Gauss rule, summed in panel
    # order, so the result is the per-panel loop's to the last bit
    calls = []
    gauge = _gauge()

    def recorded(x):
        calls.append(len(x))
        return gauge(x)

    s = complex(-0.75, 0.5)
    res = integrate_mellin(recorded, s, _gauge_series(), GAUGE_MAX_X)
    assert calls == [6 * PANEL_NODES, 6 * PANEL_NODES // 2]
    want = _per_panel_mellin(_gauge(), s, _gauge_series(), GAUGE_MAX_X)
    assert (res.value, res.est_error, res.tail_bound, res.panels_used) == want
    # a range past the first six panels adds panels, and nothing else changes
    for max_x in (1e3, 1e5):
        res = integrate_mellin(_gauge(), s, _gauge_series(), max_x)
        want = _per_panel_mellin(_gauge(), s, _gauge_series(), max_x)
        assert (res.value, res.est_error, res.tail_bound, res.panels_used) == want


def test_calibration_integral_stops_at_its_range(monkeypatch):
    # Gamma(s) eta(s) asks for, and sums, the panels up to the first power of
    # two at or past 128 and 8|s|: 7 at s = -1/2
    calls = []
    integrate = quadrature._integrate

    def recording(integrand, *args):
        def recorded(x):
            calls.append(len(x))
            return integrand(x)
        return integrate(recorded, *args)

    monkeypatch.setattr(quadrature, "_integrate", recording)
    assert integrate_gamma_zeta_a(-0.5).panels_used == 7
    assert calls == [224, 112] == [7 * PANEL_NODES, 7 * PANEL_NODES // 2]
    # at Re s = 70 the panels end at 1024, so x^(s-1) no longer overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = integrate_gamma_zeta_a(70.0)
    assert res.value.real == pytest.approx(math.gamma(70.0), rel=1e-12)
    assert res.tail_bound < 1e-30 * abs(res.value)


def test_calibration_panels_reach_max_x_or_raise():
    # s = 0.5 + 5i: 31 capped panels reach max_x = 128, and the budget holds;
    # past |Im s| = 15 pi / ln 128 ~ 9.7 the 60 capped panels end short of it
    s = 0.5 + 5j
    res = integrate_gamma_zeta_a(s)
    assert res.panels_used == 31
    assert abs(res.value - _gamma_eta(s)) <= res.est_error + res.tail_bound
    with pytest.raises(NonConvergenceError, match="short of max_x") as err:
        integrate_gamma_zeta_a(0.5 + 10j)
    assert err.value.partial.panels_used == MAX_PANELS


def _calibration_sample():
    """3,302 seeded points: Re s in (-0.99, 120) and |Im s| <= 60, 300 real s in
    (0, 150], and the two points test_calibration_integral_stops_at_its_range uses."""
    rng = np.random.default_rng(1)
    pts = [complex(r, i) for r, i in zip(rng.uniform(-0.99, 120, 3000),
                                         rng.uniform(-60, 60, 3000))]
    return pts + [complex(r) for r in rng.uniform(0, 150, 300)] + [-0.5, 70.0]


def test_calibration_gives_a_finite_result_or_a_typed_error():
    # no OverflowError from the panel cap or the tail, and no overflow inside
    # the panels: the range check raises DomainError first
    results = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in _calibration_sample() + [complex(1, math.inf), complex(math.nan),
                                          1e300, complex(1, 2.0 ** 58)]:
            try:
                res = integrate_gamma_zeta_a(s)
            except (DomainError, NonConvergenceError):
                continue
            assert all(map(math.isfinite, (abs(res.value), res.est_error, res.tail_bound))), s
            results[s] = res
    # x^s at max_x = 1024 leaves double range past Re s = 709.78/ln 1024 ~ 102.4
    with pytest.raises(DomainError, match="overflows"):
        integrate_gamma_zeta_a(102.5)
    assert integrate_gamma_zeta_a(102.3).value.real == pytest.approx(math.gamma(102.3),
                                                                      rel=1e-12)
    # its 60 panels, narrowed by the oscillation cap, end at 184.6, short of max_x = 1024
    with pytest.raises(NonConvergenceError):
        integrate_gamma_zeta_a(95.67402039610383 + 9.026622889038535j)
    # the budget holds against mpmath, up to rounding, on a seeded subsample
    picks = np.random.default_rng(2).permutation(len(results))
    held = [s for s in np.array(list(results), dtype=complex)[picks] if s.real <= 100][:50]
    assert len(held) == 50
    for s in held:
        res, want = results[s], _gamma_eta(s)
        assert abs(res.value - want) <= res.est_error + res.tail_bound + 1e-14 * abs(want), s
