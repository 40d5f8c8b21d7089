"""Gamma and the base zeta evaluator against classical values and mpmath."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from liouville_mellin import (DomainError, EvalConfig, InvalidArgumentError,
                              PoleError, TruncationBudgetError, gamma, zeta,
                              zeta_alternating)
from liouville_mellin import special
from liouville_mellin.special import eta_continued

mpmath.mp.dps = 30


def test_gamma_classical_values():
    assert gamma(1.0) == pytest.approx(1.0, rel=1e-14)
    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    assert gamma(5.0) == pytest.approx(24.0, rel=1e-13)


def test_gamma_past_the_overflow_of_its_lanczos_power():
    # from real s = 142.6 to 171.6, t^(s-1/2) overflows before e^-t scales it back
    for x in (142.7, 150.0, 160.0, 171.0, 171.5, 171.62):
        value, want = gamma(x), mpmath.gamma(x)
        assert value.imag == 0.0 and abs(value.real - want) <= 1e-14 * want, x
    for s in (171.7, -400 + 5j, 400 + 1000j):
        with pytest.raises(DomainError, match="^gamma: "):
            gamma(s)


def test_gamma_against_mpmath_grid():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(250):
        s = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        if s.imag == 0.0 or min(abs(s - k) for k in range(-12, 1)) < 5e-2:
            continue
        ref = complex(mpmath.gamma(mpmath.mpc(s.real, s.imag)))
        worst = max(worst, abs(gamma(s) - ref) / abs(ref))
    assert worst < 1e-12


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.floats(-1.5, 2.5), st.floats(-60.0, 60.0))
def test_gamma_matches_mpmath_on_zeta_family_domain(re, im):
    # the domain the functional equations use, 0.05 away from the poles 0, -1
    s = complex(re, im)
    assume(min(abs(s), abs(s + 1.0)) >= 0.05)
    ref = complex(mpmath.gamma(mpmath.mpc(re, im)))
    assert abs(gamma(s) - ref) <= 1e-11 * abs(ref)


def test_gamma_pole_errors():
    for n in (0, -1, -4):
        with pytest.raises(PoleError) as err:
            gamma(complex(n))
        assert err.value.index == n


def test_gamma_conjugate_symmetry():
    rng = np.random.default_rng(13)
    for _ in range(40):
        s = complex(rng.uniform(-8, 8), rng.uniform(0.1, 8))
        a, b = gamma(s.conjugate()), gamma(s).conjugate()
        assert a == pytest.approx(b, rel=1e-13)


def test_eta_classical_values():
    assert zeta_alternating(1.0) == pytest.approx(math.log(2.0), rel=1e-13)
    assert zeta_alternating(2.0) == pytest.approx(math.pi ** 2 / 12.0, rel=1e-13)


def test_eta_against_direct_partial_sum():
    # direct truncated summation, one million terms, is the oracle
    n = np.arange(1, 10 ** 6 + 1, dtype=np.float64)
    signs = np.where(np.arange(10 ** 6) % 2 == 0, 1.0, -1.0)
    direct = float(np.sum(signs / n ** 2))
    assert abs(zeta_alternating(2.0).real - direct) < 1e-10


def test_eta_domain_error():
    with pytest.raises(DomainError):
        zeta_alternating(-0.5)
    with pytest.raises(DomainError):
        zeta_alternating(0.0)


def test_eta_continued_matches_mpmath():
    rng = np.random.default_rng(17)
    for _ in range(60):
        s = complex(rng.uniform(-4, 4), rng.uniform(-5, 5))
        ref = complex(mpmath.altzeta(mpmath.mpc(s.real, s.imag)))
        assert eta_continued(s) == pytest.approx(ref, rel=1e-11, abs=1e-13)


def test_zeta_classical_values():
    assert zeta(2.0) == pytest.approx(math.pi ** 2 / 6.0, rel=1e-13)
    assert zeta(4.0) == pytest.approx(math.pi ** 4 / 90.0, rel=1e-13)
    assert zeta(-1.0) == pytest.approx(-1.0 / 12.0, abs=1e-14)
    assert zeta(0.0) == pytest.approx(-0.5, rel=1e-13)
    assert abs(zeta(-2.0)) <= 1e-12  # trivial zero through the sin factor


def test_zeta_pole():
    with pytest.raises(PoleError):
        zeta(1.0)
    with pytest.raises(PoleError):
        zeta(1.0 + 1e-14j)


def test_zeta_against_mpmath_grid():
    rng = np.random.default_rng(19)
    worst = 0.0
    for _ in range(250):
        s = complex(rng.uniform(-4, 4), rng.uniform(-6, 6))
        if abs(s - 1.0) < 0.05:
            continue
        ref = complex(mpmath.zeta(mpmath.mpc(s.real, s.imag)))
        worst = max(worst, abs(zeta(s) - ref) / max(abs(ref), 1e-30))
    assert worst < 1e-12


def test_zeta_functional_equation_self_consistency():
    # direct evaluation vs reflection, both inside the critical strip
    rng = np.random.default_rng(23)
    import cmath
    for _ in range(20):
        s = complex(rng.uniform(0.05, 0.95), rng.uniform(-5, 5))
        direct = zeta(s)
        reflected = (2.0 ** s * math.pi ** (s - 1.0) * cmath.sin(math.pi * s / 2.0)
                     * gamma(1.0 - s) * zeta(1.0 - s))
        assert abs(direct - reflected) / abs(direct) < 1e-9


def test_zeta_conjugate_symmetry():
    rng = np.random.default_rng(29)
    for _ in range(40):
        s = complex(rng.uniform(-3, 3), rng.uniform(0.1, 5))
        assert zeta(s.conjugate()) == pytest.approx(zeta(s).conjugate(), rel=1e-12)


def test_zeta_removable_points_guarded():
    # 1 - 2^(1-s) vanishes at s = 1 + 2 pi i/ln 2 but zeta is regular there
    s = complex(1.0, 2.0 * math.pi / math.log(2.0))
    val = zeta(s)
    ref = complex(mpmath.zeta(mpmath.mpc(s.real, s.imag)))
    assert val == pytest.approx(ref, rel=1e-6)


def test_nonfinite_rejected():
    with pytest.raises(InvalidArgumentError):
        zeta(complex(float("nan"), 0.0))
    with pytest.raises(InvalidArgumentError):
        gamma(complex(float("inf"), 1.0))


def test_borwein_order_adapts_to_height():
    from liouville_mellin.special import _borwein_order
    cfg = EvalConfig()
    assert _borwein_order(complex(2.0, 0.0), cfg) == cfg.accel_order
    tall = _borwein_order(complex(2.0, 60.0), cfg)
    assert cfg.accel_order < tall <= cfg.series_terms
    # the cap is series_terms
    assert _borwein_order(complex(2.0, 1e4), cfg) == cfg.series_terms


def test_zeta_accurate_at_height_forty():
    import mpmath as mp
    mp.mp.dps = 30
    s = complex(0.8, 40.0)
    ref = complex(mp.zeta(mp.mpc(s.real, s.imag)))
    assert zeta(s) == pytest.approx(ref, rel=1e-11)


def test_zeta_raises_where_borwein_order_exceeds_budget():
    # the error model needs order 198 at |Im s| = 200; the cap is 128
    with pytest.raises(TruncationBudgetError) as err:
        zeta(complex(0.7, 200.0))
    assert err.value.achieved_bound > EvalConfig().target_rel_err
    # reflected points reach eta at the same height
    with pytest.raises(TruncationBudgetError):
        zeta(complex(-0.7, 200.0))
    # just past the cap, the message gives the error model at order 128
    with pytest.raises(TruncationBudgetError) as err:
        zeta(complex(0.5, 123.0))
    assert str(err.value) == ("eta: Borwein order capped at series_terms=128 for "
                              "s=(0.5+123j); error model 6.1e-12 > 1.0e-12")


def test_zeta_accurate_at_height_hundred():
    s = complex(0.7, 100.0)
    ref = complex(mpmath.zeta(mpmath.mpc(s.real, s.imag)))
    assert abs(zeta(s) - ref) <= 1e-11 * abs(ref)


def _eta_per_term(s, budget):
    # the reference: Borwein's d_k recurrence and a sign, weight and base
    # rebuilt for every term, as eta was first written
    n = special._borwein_order(s, budget)
    d = [1.0]
    term = acc = 1.0
    for i in range(1, n + 1):
        term *= (n + i - 1) * (n - i + 1) * 4.0 / ((2.0 * i) * (2.0 * i - 1.0))
        acc += term
        d.append(acc)
    total, sign = 0.0 + 0.0j, 1.0
    for k in range(n):
        total += sign * (d[n] - d[k]) * complex(k + 1) ** (-s)
        sign = -sign
    return total / d[n]


def test_eta_keeps_the_bits_of_the_per_term_series():
    # repr tells every bit of a double, the sign of a zero included
    cfg = EvalConfig()
    rng = np.random.default_rng(31)
    # |Im s| up to 121 reaches every order from the floor 50 to the cap 128
    points = [complex(rng.uniform(1e-3, 3.0), rng.choice((-1.0, 1.0)) * rng.uniform(0.0, 121.0))
              for _ in range(3000)]
    assert {special._borwein_order(s, cfg) for s in points} == set(range(50, 129))
    # real integers take the integer-power branch of complex **
    points += [complex(k) for k in (2, 3, 4, 6, 10)] + [0.5 + 0j, 1e-300 + 0j, 1e-9 + 5j]
    assert ([repr(special._eta_borwein(s, cfg)) for s in points]
            == [repr(_eta_per_term(s, cfg)) for s in points])
    # a budget past the default cap sums every term of its order
    wide = EvalConfig(series_terms=200)
    s = complex(0.7, 150.0)
    assert special._borwein_order(s, wide) > cfg.series_terms
    assert repr(special._eta_borwein(s, wide)) == repr(_eta_per_term(s, wide))


def test_zeta_keeps_its_bits_at_reflected_points(monkeypatch):
    rng = np.random.default_rng(37)
    points = [complex(rng.uniform(-1.5, 0.0), rng.uniform(-60.0, 60.0)) for _ in range(200)]
    points += [complex(k) for k in (-1, -3, -5)]
    got = [repr(f(s)) for f in (zeta, eta_continued) for s in points]
    monkeypatch.setattr(special, "_eta_borwein", _eta_per_term)
    assert got == [repr(f(s)) for f in (zeta, eta_continued) for s in points]
