"""Semi-infinite quadrature: calibration integrals, error budgets, policies."""

import math

import mpmath
import numpy as np
import pytest

from liouville_mellin import (DomainError, NonConvergenceError, QuadratureSpec,
                              gamma, integrate_gamma_zeta_a, integrate_mellin,
                              zeta_alternating)
from liouville_mellin.quadrature import de_nodes, panel_sequence

mpmath.mp.dps = 40

PI = math.pi


def _gauge(scale=1.0):
    """Kernel-type test integrand scale * x e^-x with zero truncation bound."""
    def f(x):
        return scale * x * np.exp(-x), np.zeros(len(x))
    return f


def test_de_nodes_absorb_endpoint_singularity():
    x, w = de_nodes(1.0, levels=5)
    assert abs(float(np.sum(x ** -0.75 * w)) - 4.0) < 5e-15
    assert abs(float(np.sum(x * w)) - 0.5) < 1e-15


def test_calibration_s2():
    # integral_0^inf x/(e^x+1) dx = pi^2/12
    res = integrate_gamma_zeta_a(2.0, QuadratureSpec())
    assert abs(res.value.real - PI ** 2 / 12.0) <= 1e-10
    assert res.est_error < 1e-10


def test_calibration_s1():
    # integral_0^inf 1/(e^x+1) dx = ln 2
    res = integrate_gamma_zeta_a(1.0, QuadratureSpec())
    assert abs(res.value.real - math.log(2.0)) <= 1e-10


def test_calibration_matches_gamma_eta_on_right_halfplane():
    for s in (1.5, 3.0, complex(2.0, 1.0)):
        res = integrate_gamma_zeta_a(s, QuadratureSpec())
        assert res.value == pytest.approx(gamma(s) * zeta_alternating(s),
                                          rel=1e-11)


def test_calibration_subtracted_form():
    # continued representation at s = -1/2 against Gamma(-1/2) eta(-1/2)
    s = -0.5
    res = integrate_gamma_zeta_a(s, QuadratureSpec())
    expect = gamma(s) * ((1.0 - 2.0 ** (1.0 - s)) *
                         (-0.2078862249773545660173067253970493022262))
    # reference: Gamma(-1/2) eta(-1/2) = -1.34743647771550797...
    assert res.value.real == pytest.approx(-1.3474364777155080, abs=1e-8)
    assert res.value == pytest.approx(expect, abs=1e-8)


def test_gamma_zeta_a_domain():
    for s in (0.0, -1.0, -1.5):
        with pytest.raises(DomainError):
            integrate_gamma_zeta_a(s, QuadratureSpec())


def test_mellin_closed_form_and_refinement():
    # integral x e^-x x^(s-1/2) dx = Gamma(s+3/2) on the acceptance grid
    base = QuadratureSpec()
    fine = QuadratureSpec(de_levels=base.de_levels + 1,
                          panel_nodes=base.panel_nodes * 2)
    for re in (-1.25, -1.0, -0.75):
        for im in (0.0, 0.5, 1.0):
            s = complex(re, im)
            want = complex(mpmath.gamma(mpmath.mpc(re, im) + 1.5))
            r1 = integrate_mellin(_gauge(), s, base)
            r2 = integrate_mellin(_gauge(), s, fine)
            assert abs(r1.value - want) <= max(r1.est_error, 1e-13)
            # doubling the node density moves the answer by less than est_error
            assert abs(r1.value - r2.value) <= r1.est_error + 1e-14


def test_mellin_linearity():
    s = complex(-0.75, 0.5)
    spec = QuadratureSpec()
    one = integrate_mellin(_gauge(1.0), s, spec)
    scaled = integrate_mellin(_gauge(123.456), s, spec)
    assert scaled.value == pytest.approx(123.456 * one.value, rel=1e-13)


def test_mellin_strip_enforced():
    for s in (0.5, 1.0, -1.5, -2.0):
        with pytest.raises(DomainError):
            integrate_mellin(_gauge(), complex(s), QuadratureSpec())


def test_mellin_tail_bound_honest():
    # envelope |x e^-x| <= C/x with C = max x^2 e^-x = 4 e^-2; cut at max_x
    # and check the true discarded tail never exceeds tail_bound
    C = 4.0 * math.exp(-2.0)
    spec = QuadratureSpec(max_x=8.0, decay_const=C, decay_power=1.0,
                          tail_stop_rel=1e-30, max_panels=30)
    for s in (-0.75, complex(-1.25, 0.5)):
        res = integrate_mellin(_gauge(), complex(s), spec)
        # true tail of integral_(max_x)^inf x^(s+1/2) e^-x dx
        a = complex(s) + 1.5
        true_tail = abs(complex(mpmath.gammainc(mpmath.mpc(a.real, a.imag), 8.0,
                                                mpmath.inf)))
        assert true_tail <= res.tail_bound
        want = complex(mpmath.gamma(mpmath.mpc(a.real, a.imag)))
        assert abs(res.value - want) <= res.est_error + res.tail_bound


def test_mellin_nonconvergence_carries_partial():
    # f ~ 1/x at infinity decays too slowly for 5 panels at rel 1e-12
    def slow(x):
        return x / (1.0 + x * x), np.zeros(len(x))
    spec = QuadratureSpec(max_panels=5, tail_stop_rel=1e-12)
    with pytest.raises(NonConvergenceError) as err:
        integrate_mellin(slow, complex(-0.75), spec)
    assert err.value.partial is not None
    assert err.value.partial.panels_used == 5


def test_oscillation_cap_on_panels():
    spec = QuadratureSpec()
    widths = [(b / a) for a, b in panel_sequence(spec, im_s=4.0)]
    assert max(widths) <= math.exp(PI / 4.0 / 4.0) + 1e-12
    plain = [(b / a) for a, b in panel_sequence(spec, im_s=0.0)]
    assert max(plain) == pytest.approx(spec.panel_growth)


def test_spec_validation():
    from liouville_mellin import InvalidArgumentError
    with pytest.raises(InvalidArgumentError):
        QuadratureSpec(panel_growth=0.5)
    with pytest.raises(InvalidArgumentError):
        QuadratureSpec(split_point=-1.0)
    with pytest.raises(InvalidArgumentError):
        QuadratureSpec(max_x=0.5)


# (value, panels_used) recorded with the two per-integral loops that the
# shared integration loop replaced
GAMMA_ETA_PINS = {
    2.0: (0.8224670334241132 + 0j, 6),
    1.0: (0.6931471805599453 + 0j, 6),
    0.5 + 1j: (0.2746404655858677 - 0.21373200239376963j, 6),
    -0.5: (-1.3474364769222806 + 0j, 6),
    -0.5 + 0.5j: (-0.602785498155847 - 0.22233454901351246j, 6),
}
MELLIN_GAUGE_PINS = {
    -0.75 + 0.5j: (0.834929965973747 - 0.4063818800581324j, 6),
    -1.25: (3.6256099082219087 + 0j, 6),
}


def test_shared_loop_reproduces_recorded_integrals():
    spec = QuadratureSpec()
    runs = [(integrate_gamma_zeta_a(s, spec), pin) for s, pin in GAMMA_ETA_PINS.items()]
    runs += [(integrate_mellin(_gauge(), complex(s), spec), pin)
             for s, pin in MELLIN_GAUGE_PINS.items()]
    for res, (value, panels) in runs:
        assert abs(res.value - value) <= 1e-15 * abs(value)
        assert res.panels_used == panels
