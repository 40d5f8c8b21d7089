"""Derived Dirichlet functions: closed forms, identities, functional equations.

Expected decimals were recomputed with mpmath at 40 digits; where a closed
form exists it is asserted through math.pi / mpmath references rather than
copied constants.
"""

import math
import re

import mpmath
import numpy as np
import pytest

from liouville_mellin import (DomainError, InvalidArgumentError, LiouvilleMellinError,
                              NearZeroDenominatorError, PoleError, TruncationBudgetError,
                              functional_eq_rhs_zeta_a, functional_eq_rhs_zeta_alpha, zeta,
                              zeta_alpha, zeta_beta, zeta_imp, zeta_lambda,
                              zeta_mu, zeta_nu, zeta_alternating)
from liouville_mellin import special, zeta_family

mpmath.mp.dps = 40

PI = math.pi


def test_zeta_imp_closed_forms():
    assert zeta_imp(2.0) == pytest.approx(PI ** 2 / 8.0, rel=1e-13)
    # 7 zeta(3)/8 = 1.0517997903...
    assert zeta_imp(3.0) == pytest.approx(float(7 * mpmath.zeta(3) / 8), rel=1e-13)
    with pytest.raises(PoleError):
        zeta_imp(1.0)


def test_zeta_imp_against_direct_odd_sum():
    # (1 - 2^-s) zeta(s) vs a directly summed odd-integer series at s = 3.
    # The integral bound 1/(4N^2) is tight to within 1e-4 relative, so the
    # comparison needs an explicit double-precision summation allowance.
    n = np.arange(1, 2 * 10 ** 6, 2, dtype=np.float64)
    direct3 = math.fsum(1.0 / n ** 3)
    tail3 = 0.25 / n[-1] ** 2 + 5e-15
    assert abs(zeta_imp(3.0).real - direct3) <= tail3
    direct2 = float(np.sum(1.0 / n ** 2))
    tail2 = 0.5 / n[-1]  # ample slack at s = 2
    assert abs(zeta_imp(2.0).real - direct2) <= tail2


def test_zeta_lambda():
    assert zeta_lambda(2.0) == pytest.approx(PI ** 2 / 15.0, rel=1e-13)
    assert abs(zeta_lambda(-1.0)) <= 1e-10  # trivial zero of zeta(2s)
    with pytest.raises(PoleError):
        zeta_lambda(1.0)
    with pytest.raises(PoleError):
        zeta_lambda(0.5)


def test_zeta_mu():
    assert zeta_mu(2.0) == pytest.approx(6.0 / PI ** 2, rel=1e-13)
    assert zeta_mu(4.0) == pytest.approx(90.0 / PI ** 4, rel=1e-13)
    for s in (2.0, 3.0, complex(2.0, 1.0)):
        assert zeta_mu(s) * zeta(s) == pytest.approx(1.0, rel=1e-12)


def test_zeta_mu_guards_critical_zero():
    # zeta vanishes at 1/2 + i 14.1347...; the quotient must refuse, not blow up
    s = complex(0.5, 14.134725141734695)
    with pytest.raises(NearZeroDenominatorError):
        zeta_mu(s)


def test_zeta_alpha_modes():
    # eta(4)/eta(2) = (7 pi^4/720)/(pi^2/12) = 7 pi^2/60
    assert zeta_alpha(2.0) == pytest.approx(7.0 * PI ** 2 / 60.0, rel=1e-13)
    both = [zeta_alpha(2.0, mode=m) for m in ("definition", "lambda-relation")]
    assert both[0] == pytest.approx(both[1], rel=1e-12)
    a = zeta_alpha(-0.75, mode="definition")
    b = zeta_alpha(-0.75, mode="lambda-relation")
    assert a == pytest.approx(b, rel=1e-10)
    with pytest.raises(DomainError):
        zeta_alpha(2.0, mode="nonsense")


def test_alpha_to_lambda_factor_poles():
    # 1 - 2^(1-2s) vanishes at s = 1/2 + i pi k / ln 2, the numerator 1 - (-1)^k sqrt 2 does not
    for k in (0, 1, -1):
        pole = complex(0.5, PI * k / math.log(2.0))
        with pytest.raises(PoleError) as err:
            zeta_family.alpha_to_lambda_factor(pole)
        assert (err.value.location, err.value.index) == (pole, k)
    s = mpmath.mpc(0.55, 4.5)
    want = complex((1 - mpmath.power(2, 1 - s)) / (1 - mpmath.power(2, 1 - 2 * s)))
    assert abs(zeta_family.alpha_to_lambda_factor(0.55 + 4.5j) - want) <= 1e-14 * abs(want)


def test_alpha_to_lambda_factor_rejects_non_finite_s():
    # the bare formula raises ZeroDivisionError at Im s = inf and gives nan+nanj at nan or Re s = inf
    for s in (complex(0.5, math.inf), complex(math.nan, 0.0), complex(math.inf, 0.0)):
        with pytest.raises(InvalidArgumentError, match="must be finite"):
            zeta_family.alpha_to_lambda_factor(s)


def test_zeta_beta_values():
    # 7 zeta(3)/pi^2 = 0.85255679763501...
    ref = float(7 * mpmath.zeta(3) / mpmath.pi ** 2)
    assert zeta_beta(2.0) == pytest.approx(ref, rel=1e-13)
    v = zeta_beta(2.5)
    assert v.imag == pytest.approx(0.0, abs=1e-15)
    assert v.real > 0.0  # leading power-series coefficient of the kernel
    with pytest.raises(PoleError):
        zeta_beta(1.0)


def test_zeta_beta_against_table_sum(table_100k):
    n = np.arange(1, table_100k.limit + 1, 2, dtype=np.float64)
    partial = float(np.sum(table_100k.beta_odd / n ** 3))
    tail = 1.5 * table_100k.limit ** -1.5  # sum sqrt(n)/n^3 beyond the table
    assert abs(partial - zeta_beta(3.0).real) <= tail


def test_zeta_nu():
    # composition of already-certified evaluators
    expect = zeta_beta(3.5) / zeta_imp(3.0)
    assert zeta_nu(2.0) == pytest.approx(expect, rel=1e-13)
    # leading Dirichlet coefficient nu(1) = 1
    assert abs(zeta_nu(30.0) - 1.0) <= 1e-8


def test_eta_functional_equation_rhs():
    # eta(-1) = (1-4) zeta(-1) = 1/4
    assert functional_eq_rhs_zeta_a(-1.0) == pytest.approx(0.25, abs=1e-10)
    assert abs(functional_eq_rhs_zeta_a(-2.0)) <= 1e-12
    assert functional_eq_rhs_zeta_a(0.5) == pytest.approx(
        zeta_alternating(0.5), rel=1e-9)


def test_alpha_beta_functional_equation_rhs():
    assert functional_eq_rhs_zeta_alpha(-0.75) == pytest.approx(
        zeta_alpha(-0.75), rel=1e-9)
    assert abs(functional_eq_rhs_zeta_alpha(-1.0)) <= 1e-12  # cosine zero
    for s in (complex(-1.25, 0.5), complex(-1.25, -0.5)):
        assert functional_eq_rhs_zeta_alpha(s) == pytest.approx(
            zeta_alpha(s), rel=1e-9)


def test_lambda_alpha_bridge_random_strip():
    rng = np.random.default_rng(31)
    for _ in range(20):
        s = complex(rng.uniform(-1.4, -0.6), rng.uniform(-2, 2))
        lhs = zeta_lambda(s) * (1.0 - 2.0 ** (1.0 - 2.0 * s))
        rhs = zeta_alpha(s) * (1.0 - 2.0 ** (1.0 - s))
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_alpha_beta_equation_random_strip():
    rng = np.random.default_rng(37)
    for _ in range(20):
        s = complex(rng.uniform(-1.4, -0.6), rng.uniform(-2, 2))
        assert zeta_alpha(s) == pytest.approx(
            functional_eq_rhs_zeta_alpha(s), rel=1e-9)


def test_second_form_series(table_100k):
    # truncated sum beta(2m+1)/sqrt(2m+1) (pi (2m+1))^(s-1/2) converges to
    # zeta_beta(1-s) pi^(s-1/2) for Re s < 0, within the |beta|/sqrt <= 1 tail
    s = -1.25
    n = np.arange(1, table_100k.limit + 1, 2, dtype=np.float64)
    coef = table_100k.beta_odd / np.sqrt(n)
    partial = float(np.sum(coef * (PI * n) ** (s - 0.5)))
    target = (zeta_beta(1.0 - s) * PI ** (s - 0.5)).real
    tail = PI ** (s - 0.5) * n[-1] ** (s + 0.5) / (-(s + 0.5) * 2.0)
    assert abs(partial - target) <= abs(tail)


# every public evaluator of special and zeta_family, zeta_alpha by both routes
_EVALUATORS = {f.__name__: f for f in (
    special.gamma, special.zeta_alternating, special.zeta, special.eta_continued,
    zeta_family.zeta_imp, zeta_family.zeta_lambda, zeta_family.zeta_mu,
    zeta_family.zeta_alpha, zeta_family.zeta_beta, zeta_family.zeta_nu,
    zeta_family.functional_eq_rhs_zeta_a, zeta_family.functional_eq_rhs_zeta_alpha,
    zeta_family.mellin_prefactor, zeta_family.alpha_to_lambda_factor)}
_EVALUATORS["zeta_alpha/lambda-relation"] = (
    lambda s: zeta_family.zeta_alpha(s, mode="lambda-relation"))


def test_far_points_give_a_finite_value_or_a_package_error():
    # sin, cos, powers and Gamma leave double range out here; none of it may
    # escape as OverflowError or as a silent inf or nan
    grid = [complex(re, sign * im)
            for re in (-400, -170, -30, -0.75, 0.3, 2, 30, 400, 1100)
            for im in (0, 5, 300, 460, 1000, 1e5, 1e300) for sign in (1, -1)]
    for name, f in _EVALUATORS.items():
        for s in grid:
            try:
                value = complex(f(s))
            except LiouvilleMellinError:
                continue
            assert math.isfinite(value.real) and math.isfinite(value.imag), (name, s)


@pytest.mark.parametrize("call, s, error, where, at", [
    (zeta_alternating, 0.3 + 580j, TruncationBudgetError, "eta", 0.3 + 580j),
    (zeta_alternating, 0.3 + 600j, TruncationBudgetError, "eta", 0.3 + 600j),
    (zeta, -0.5 + 1e300j, TruncationBudgetError, "eta", 1.5 - 1e300j),  # of zeta(1-s)
    (special.gamma, -400 + 5j, DomainError, "gamma", -400 + 5j),
    (special.gamma, 400 + 1000j, DomainError, "gamma", 400 + 1000j),
    (zeta_family.mellin_prefactor, -0.75 + 300j, DomainError, "mellin_prefactor", -0.75 + 300j),
    (zeta_family.functional_eq_rhs_zeta_alpha, -170.0, DomainError,
     "functional_eq_rhs_zeta_alpha", -170.0),
])
def test_far_points_raise_typed_errors(call, s, error, where, at):
    # the cap check of zeta_alternating, the reflection sin of zeta and Gamma
    # and the cosine product of the prefactor overflowed or gave nan here
    with pytest.raises(error, match=f"^{where}: .*s={re.escape(str(complex(at)))}"):
        call(s)
