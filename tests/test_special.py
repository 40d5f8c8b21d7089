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
    # on the real axis Gamma(sigma)/|Gamma(s)| = 1: 2 (3+sqrt 8)^-n <= 2^-53 from n = 22
    assert {_borwein_order(complex(x), cfg) for x in (1e-300, 0.5, 2.0, 40.0)} == {22}
    heights = [_borwein_order(complex(1.0, t), cfg) for t in (0.0, 10.0, 30.0, 60.0, 100.0)]
    assert heights == sorted(set(heights)) and heights[-1] < cfg.series_terms
    # the smallest order whose majorant of the truncation bound is 2^-53 or less
    rate, log2 = math.log(3.0 + math.sqrt(8.0)), math.log(2.0)
    for s in (complex(0.3, 5.0), complex(1.0, 60.0), complex(3.5, -90.0), complex(1e-9, 5.0)):
        n, excess = _borwein_order(s, cfg), special._log_gamma_ratio(s) + 54.0 * log2
        assert excess - n * rate <= 0.0 < excess - (n - 1) * rate, s
    # the cap is series_terms
    assert _borwein_order(complex(2.0, 1e4), cfg) == cfg.series_terms
    # the disc zeta hands to eta for Re s <= 0 keeps order 50, unbounded
    assert _borwein_order(complex(-0.2, 0.1), cfg) == 50
    assert special._eta_bound(complex(-0.2, 0.1), cfg) == (math.inf, math.inf)


def test_zeta_accurate_at_height_forty():
    import mpmath as mp
    mp.mp.dps = 30
    s = complex(0.8, 40.0)
    ref = complex(mp.zeta(mp.mpc(s.real, s.imag)))
    assert zeta(s) == pytest.approx(ref, rel=1e-11)


def test_zeta_raises_where_borwein_order_exceeds_budget():
    # the truncation bound at the cap 128 is about 1e5 |eta| at |Im s| = 200
    with pytest.raises(TruncationBudgetError) as err:
        zeta(complex(0.7, 200.0))
    assert err.value.achieved_bound > EvalConfig().target_rel_err
    # reflected points reach eta at the same height
    with pytest.raises(TruncationBudgetError):
        zeta(complex(-0.7, 200.0))
    # 0.5+123i, past the deleted error model's cap, is within the proven bound
    s = complex(0.5, 123.0)
    assert abs(zeta_alternating(s) - complex(mpmath.altzeta(mpmath.mpc(s.real, s.imag)))) \
        <= sum(special._eta_bound(s, EvalConfig()))
    # just past the cap, the message gives the truncation bound at order 128
    with pytest.raises(TruncationBudgetError) as err:
        zeta(complex(0.5, 125.0))
    assert str(err.value) == ("eta: Borwein order capped at series_terms=128 for "
                              "s=(0.5+125j); truncation bound 3.7e-12 > 1.0e-12 |eta|")


def test_eta_raises_only_past_the_workload_corner():
    # zeta(2s) for |Im s| <= 60 meets eta at |Im 2s| = 120 with Re 2s near 0,
    # where the truncation bound at the cap is within 1e-12 |eta|
    cfg = EvalConfig()
    for sigma in np.linspace(0.01, 0.05, 9):
        for t in (120.0, -120.0):
            s = complex(sigma, t)
            assert special._borwein_order(s, cfg) == cfg.series_terms
            ref = complex(mpmath.altzeta(mpmath.mpc(s.real, s.imag)))
            assert abs(special._eta_borwein(s, cfg) - ref) <= sum(special._eta_bound(s, cfg))
    # far out the bound is past double range: a typed error, no OverflowError
    for s in (complex(0.3, 600.0), complex(-0.5, 1e300)):
        with pytest.raises(TruncationBudgetError) as err:
            zeta(s)
        assert err.value.achieved_bound == math.inf
    with pytest.raises(TruncationBudgetError):
        zeta_alternating(complex(0.3, 600.0))
    with pytest.raises(TruncationBudgetError):
        eta_continued(complex(-0.5, 1e300))


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
    # |Im s| up to 121 reaches every order from 22 to the cap 128, and Re s
    # from 0.05 keeps the cap's truncation bound within 1e-12 |eta| there
    points = [complex(rng.uniform(0.05, 3.0), rng.choice((-1.0, 1.0)) * rng.uniform(0.0, 121.0))
              for _ in range(3000)]
    # real integers take the integer-power branch of complex **
    points += [complex(k) for k in (2, 3, 4, 6, 10)] + [0.5 + 0j, 1e-300 + 0j, 1e-9 + 5j]
    assert {special._borwein_order(s, cfg) for s in points} == set(range(22, 129))
    assert ([repr(special._eta_borwein(s, cfg)) for s in points]
            == [repr(_eta_per_term(s, cfg)) for s in points])
    # a budget past the default cap sums every term of its order
    wide = EvalConfig(series_terms=200)
    s = complex(0.7, 150.0)
    assert special._borwein_order(s, wide) > cfg.series_terms
    assert repr(special._eta_borwein(s, wide)) == repr(_eta_per_term(s, wide))


def _exact_d(n):
    # Borwein's d_0..d_n as integers: partial sums of the coefficients of
    # the shifted Chebyshev polynomial T_n(1 - 2x) at x = -1
    d, term = [1], 1
    for i in range(1, n + 1):
        term = term * (n + i - 1) * (n - i + 1) * 4 // ((2 * i) * (2 * i - 1))
        d.append(d[-1] + term)
    return d


def test_borwein_weights_against_their_exact_integers():
    u = 2.0 ** -53
    t_prev, t_n = 1, 3  # T_0(3), T_1(3)
    for n in range(1, 257):
        if n > 1:
            t_prev, t_n = t_n, 6 * t_n - t_prev
        weights, _, dn, c_n = special._borwein_weights(n)
        d = _exact_d(n)
        assert d[n] == t_n
        # d_n to the rounding of the 3n operations of its recurrence
        assert abs(dn - t_n) <= 3 * n * u * t_n, n
        assert c_n == pytest.approx(sum(d[n] - d[k] for k in range(n)) / d[n], rel=4 * u)
        # sum_k |w_k / d_n - exact|, the allowance _eta_bound gives the
        # rounded weights: as exact rationals, each term rounded to a float
        p_d, q_d = dn.as_integer_ratio()
        drift = 0.0
        for k, w in enumerate(weights):
            p_k, q_k = abs(w).as_integer_ratio()
            drift += abs(p_k * q_d * d[n] - (d[n] - d[k]) * p_d * q_k) / (q_k * p_d * d[n])
        assert drift * (1.0 + n * u) <= 2.0 * u * c_n, n


def test_eta_within_its_bound_of_mpmath():
    # every value within truncation + rounding of mpmath at 30 digits
    cfg = EvalConfig()
    rng = np.random.default_rng(43)
    # 4 - uniform[0, 4) is in (0, 4]
    points = [complex(4.0 - rng.uniform(0.0, 4.0), rng.uniform(-125.0, 125.0))
              for _ in range(200)]
    points += [complex(x, t) for x in (1e-9, 1e-3) for t in (0.0, 5.0, 60.0, 118.0)]
    # next to the removable zeros of 1 - 2^(1-s), where zeta divides by them
    for k in range(1, 14):
        s0 = complex(1.0, 2.0 * math.pi * k / math.log(2.0))
        points += [s0 + 1e-3, s0 - 1e-3, s0 + 1e-3j, s0 - 1e-3j]
    # one point for every order the rule reaches, up to the cap
    by_order = {}
    for sigma, t in zip(4.0 - rng.uniform(0.0, 4.0, 20000), rng.uniform(0.0, 125.0, 20000)):
        s = complex(sigma, t)
        by_order.setdefault(special._borwein_order(s, cfg), s)
    assert set(by_order) == set(range(22, cfg.series_terms + 1))
    points += list(by_order.values())
    raised = 0
    for s in points:
        ref = complex(mpmath.altzeta(mpmath.mpc(s.real, s.imag)))
        # the majorant of ln(Gamma(sigma)/|Gamma(s)|) behind the order
        exact = mpmath.loggamma(s.real) - mpmath.re(mpmath.loggamma(mpmath.mpc(s.real, s.imag)))
        assert special._log_gamma_ratio(s) >= float(exact) * (1.0 - 1e-14), s
        truncation, rounding = special._eta_bound(s, cfg)
        try:
            value = special._eta_borwein(s, cfg)
        except TruncationBudgetError:
            raised += 1
            assert special._borwein_order(s, cfg) == cfg.series_terms
            assert truncation > cfg.target_rel_err * (abs(ref) - truncation - rounding), s
            continue
        assert abs(value - ref) <= truncation + rounding, s
    assert raised < len(points) // 20


def test_zeta_keeps_its_bits_at_reflected_points(monkeypatch):
    rng = np.random.default_rng(37)
    points = [complex(rng.uniform(-1.5, 0.0), rng.uniform(-60.0, 60.0)) for _ in range(200)]
    points += [complex(k) for k in (-1, -3, -5)]
    got = [repr(f(s)) for f in (zeta, eta_continued) for s in points]
    monkeypatch.setattr(special, "_eta_borwein", _eta_per_term)
    assert got == [repr(f(s)) for f in (zeta, eta_continued) for s in points]
