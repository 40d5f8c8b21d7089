"""Fermi kernel, the two meromorphic kernel sums, derivative, residues."""

import copy
import dataclasses
import functools
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from liouville_mellin import (DomainError, InvalidArgumentError, PoleError, RangeError,
                              TruncationBudgetError, build_table, fermi, fermi_deficit, kernel_M,
                              kernel_M_prime, kernel_N, kernel_N_series,
                              residue_estimate, zeta_beta, zeta_imp, zeta_nu)
from liouville_mellin import arith, kernels
from liouville_mellin.arith import SCAN, TAYLOR_TERMS, odd, pairwise_sum
from liouville_mellin.kernels import (_FORM_M_PRIME, S_TAIL_BEYOND_TABLE, _Workspace,
                                      _kernel_sum, _points, _tanh_coefficients, _ws,
                                      config_for_table, kernel_M_with_bound,
                                      kernel_N_with_bound)
from liouville_mellin.quadrature import PANEL_NODES, panel_sequence
from liouville_mellin.special import POLE_TOL
from liouville_mellin.verify import DEFAULT_IDENTITY_POINTS, KERNEL_SPLICE_X, theorem2_max_x

PI = math.pi


# ---------------------------------------------------------------- fermi ----

def test_fermi_basic_values():
    assert fermi(0.0) == pytest.approx(0.5, rel=1e-15)
    assert fermi(1.0) == pytest.approx(1.0 / (math.e + 1.0), rel=1e-14)
    # overflow-safe far field: exact exponential scale, not a flushed zero
    v = fermi(100.0)
    assert 0.0 < abs(v) <= 1e-40
    assert abs(v - math.exp(-100.0)) < 1e-55
    assert fermi(-100.0) == pytest.approx(1.0, abs=1e-40)


def test_fermi_pole_detection():
    with pytest.raises(PoleError) as err:
        fermi(1j * PI)
    assert err.value.index == 0
    with pytest.raises(PoleError):
        fermi(complex(1e-13, -3.0 * PI))
    # near but not at the pole is fine
    assert abs(fermi(1j * PI + 1e-6)) > 1e5


def test_fermi_deficit_matches_difference():
    for z in (0.3, 2.0, -1.0, 0.5 + 0.5j, complex(0, 1.0)):
        assert fermi_deficit(z) == pytest.approx(0.5 - fermi(z), abs=1e-15)
    # tiny arguments keep full relative accuracy: deficit ~ z/4
    assert fermi_deficit(1e-18) == pytest.approx(2.5e-19, rel=1e-12)


def test_fermi_partial_fraction_truncation():
    # 1/2 - 2z sum_{n<K} 1/(z^2+(2n+1)^2 pi^2) -> fermi(z); the discarded
    # terms are positive and decreasing, so the integral from K-1 bounds them
    z = 1.0
    K = 10 ** 5
    n = np.arange(K, dtype=np.float64)
    s = float(np.sum(1.0 / (z * z + (2 * n + 1) ** 2 * PI ** 2)))
    approx = 0.5 - 2.0 * z * s
    tail = z / (PI ** 2 * (2.0 * K - 1.0))
    assert abs(approx - fermi(z).real) <= tail


def test_fermi_power_series_at_unit_radius():
    # 1/2 - fermi(z) = 2 sum_k (-1)^k z^(2k+1) pi^-(2k+2) zeta_imp(2k+2)
    for z in (1.0, 1j):
        ks = np.arange(31)
        coef = np.array([2.0 * (-1.0) ** k * PI ** (-(2 * k + 2))
                         * zeta_imp(2.0 * k + 2.0).real for k in ks])
        series = complex(np.sum(coef * np.asarray(z, complex) ** (2 * ks + 1)))
        assert series == pytest.approx(fermi_deficit(z), abs=1e-13)


# ------------------------------------------------------------- kernel N ----

def test_kernel_N_at_zero(table_100k):
    assert kernel_N(0.0, table_100k) == 0.0


def test_kernel_N_odd(table_100k):
    for z in (0.7, 1.3 + 0.4j):
        a = kernel_N(z, table_100k)
        b = kernel_N(-z, table_100k)
        assert a == pytest.approx(-b, rel=1e-14)


def test_kernel_N_vs_series(table_100k):
    val, bound = kernel_N_with_bound(1.0, table_100k)
    series = kernel_N_series(1.0)
    # series truncation is below double precision at |z|=1
    assert abs(val - series) <= bound + 1e-13


def test_kernel_N_pole_and_size_guard(table_100k):
    with pytest.raises(PoleError):
        kernel_N(1j * PI, table_100k)


def test_kernel_series_domain_and_leading_term():
    assert kernel_N_series(0.0) == 0.0
    with pytest.raises(DomainError):
        kernel_N_series(3.2)
    # leading-term dominance: the z^3 correction sits at 1.02e-3 relative
    z = 0.1
    leading = 2.0 * z * zeta_beta(2.5).real / PI ** 2
    assert kernel_N_series(z).real == pytest.approx(
        leading, rel=1.1e-3)


# ------------------------------------------------------------- kernel M ----

def test_kernel_M_zero_halfshifted(table_100k):
    assert kernel_M(0.0, table_100k, form="half-shifted") == 0.0


def test_kernel_M_matches_N(table_100k):
    for z in (1.0, 0.5 + 0.5j, 2.0):
        nv, nb = kernel_N_with_bound(z, table_100k)
        mv, mb = kernel_M_with_bound(z, table_100k)
        assert abs(mv - nv) <= nb + mb
        assert abs(mv - nv) <= 1e-6


def test_kernel_M_forms_agree(table_100k):
    for x in (0.5, 2.0, 10.0):
        half = kernel_M(x, table_100k, form="half-shifted")
        plain = kernel_M(x, table_100k, form="plain")
        assert half == pytest.approx(plain, abs=5e-7)
    with pytest.raises(DomainError):
        kernel_M(1.0, table_100k, form="bogus")


def test_kernel_M_plain_complex_route(table_100k):
    z = 1.0 + 1.0j
    plain = kernel_M(z, table_100k, form="plain")
    half = kernel_M(z, table_100k, form="half-shifted")
    assert plain == pytest.approx(half, abs=5e-7)


def test_kernel_M_odd(table_100k):
    a = kernel_M(0.7, table_100k)
    b = kernel_M(-0.7, table_100k)
    assert a == pytest.approx(-b, rel=1e-14)


def test_kernel_M_truncation_budget_error(table_100k):
    # 50,001 terms leave a remainder bound of 1.35e-7 at x = 50, above 5e-8
    with pytest.raises(TruncationBudgetError) as err:
        kernel_M(50.0, table_100k, form="plain")
    assert err.value.achieved_bound > config_for_table(table_100k).abel_tail_tol


def test_kernel_M_pole_proximity(table_100k):
    with pytest.raises(PoleError):
        kernel_M(3j * PI + 1e-14, table_100k)


# ------------------------------------------------------------ derivative ----

def test_kernel_M_prime_at_zero(table_100k):
    # termwise value at 0 is nu(2m+1)/(4(2m+1)): the sum is zeta_nu(1)/4
    val = kernel_M_prime(0.0, table_100k)
    assert val == pytest.approx(zeta_nu(1.0).real / 4.0, abs=1e-6)


def test_kernel_M_prime_finite_difference(table_100k):
    x, h = 2.0, 1e-4
    fd = (kernel_M(x + h, table_100k, form="plain")
          - kernel_M(x - h, table_100k, form="plain")).real / (2 * h)
    assert abs(fd - kernel_M_prime(x, table_100k)) <= 1e-6


def test_kernel_M_prime_domain(table_100k):
    t = table_100k
    with pytest.raises(DomainError):
        kernel_M_prime(-1.0, t)
    # complex input: only a scalar with Im x == 0 counts as real
    for x in (1 + 5j, np.array([1 + 5j]), np.array([1 + 0j, 2 + 0j]), complex(-1.0, 0.0)):
        with pytest.raises(DomainError):
            kernel_M_prime(x, t)
    assert kernel_M_prime(1 + 0j, t) == kernel_M_prime(1.0, t)
    for x in (math.nan, math.inf, np.array([1.0, math.nan])):
        with pytest.raises(InvalidArgumentError, match="finite"):
            kernel_M_prime(x, t)


# -------------------------------------------------------------- residues ----

def test_residues_match_beta(table_100k):
    # residue at i pi (2l+1) is beta(2l+1)/sqrt(2l+1), to rounding for both kernels
    for l in (0, 1, 2, 7):
        want = table_100k.beta_odd[l] / math.sqrt(2 * l + 1)
        for kernel in ("N", "M"):
            got = residue_estimate(kernel, l, table_100k)
            assert abs(got.real - want) <= 1e-14, (kernel, l, got)
            assert abs(got.imag) <= 1e-14, (kernel, l, got)


def test_residue_bad_kernel(table_100k):
    with pytest.raises(DomainError):
        residue_estimate("Q", 0, table_100k)


def test_residue_errors(table_small):
    with pytest.raises(DomainError, match="l must be >= 0"):
        residue_estimate("N", -1, table_small)
    for l in (0.5, 2.0, "1"):
        with pytest.raises(InvalidArgumentError, match="must be an integer"):
            residue_estimate("M", l, table_small)
    assert residue_estimate("N", np.int64(1), table_small) == residue_estimate("N", 1, table_small)
    # past the depth the truncated N has no pole and the truncated M only part of one
    depth = _ws(table_small).depth
    for kernel in ("N", "M"):
        for l in (depth, 2000):
            with pytest.raises(RangeError, match="depth"):
                residue_estimate(kernel, l, table_small)
    assert abs(residue_estimate("M", depth - 1, table_small)
               - table_small.beta_odd[depth - 1] / math.sqrt(2 * depth - 1)) <= 1e-12
    # N's contour must stay where kernel_N bounds its tail, |z| <= 0.866 pi (2M+1)
    assert depth == 1501
    assert abs(residue_estimate("N", 1299, table_small)
               - table_small.beta_odd[1299] / math.sqrt(2599)) <= 1e-12
    for l in (1300, depth - 1):
        with pytest.raises(RangeError, match="disc"):
            residue_estimate("N", l, table_small)


# ---------------------------------------------------------- config clamp ----

def test_config_for_table_clamps(table_100k):
    clamped = config_for_table(table_100k)
    assert clamped.n_terms_N == 50_001
    assert clamped.n_terms_M == 50_001
    assert clamped.abel_tail_tol == 5e-8


def test_fermi_complex_far_field():
    # overflow-safe branches on both sides of the strip
    v = fermi(complex(100.0, 1.0))
    assert abs(v) < 1e-40 and abs(v) > 0.0
    w = fermi(complex(-100.0, 1.0))
    assert abs(w - 1.0) < 1e-40
    # plain complex kernel path tolerates huge real parts without overflow


def test_x_m_product_regression_guard(table_100k):
    # Whether x|M(x)| is bounded at all is an open question; this guard only
    # pins the observed values of this implementation (regression, not math).
    worst = 0.0
    for x in (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0):
        m = kernel_M_with_bound(x, table_100k, form="plain")[0]
        worst = max(worst, x * abs(m))
    assert worst <= 1.2  # frozen from the oracle run (observed max 1.103)


# ------------------------------------------- exact references per route ----
#
# Each route sums a short exact head and takes the rest of the truncated
# series from cached power moments.  The references below sum the very same
# float terms of the truncated series with math.fsum, so any gap is rounding
# or the Taylor remainder of the moment tail.

REAL_X = (0.01, 1.0, 3.0, 3.5, 100.0, 5000.0)
NEAR_POLE = [1j * PI * (2 * l + 1) + 2.0 ** -j for l in range(3) for j in (4, 8, 12, 16, 20)]


def _terms(table):
    # the oracles' own odd n, beta(n)/sqrt(n), nu(n) and S(n), read from the table
    n = np.arange(1, table.limit + 1, 2, dtype=np.float64)
    return SimpleNamespace(n=n, coef_N=table.beta_odd / np.sqrt(n),
                           nu=table.nu_odd, S=table.nu_cumsum_odd)


def _csum(terms):
    terms = np.asarray(terms)
    if np.iscomplexobj(terms):
        return complex(math.fsum(terms.real), math.fsum(terms.imag))
    return math.fsum(terms)


def _ref_N(z, t, M):
    n, c = t.n[:M], t.coef_N[:M]
    return _csum(c * (2.0 * z / (z * z + (PI * n) ** 2)))


def _ref_M_half(z, t, M):
    return _csum(t.nu[:M] * 0.5 * np.tanh(z / (2.0 * t.n[:M])))


def _ref_M_prime(x, t, M):
    e = np.exp(-x / t.n[:M])
    return math.fsum(t.nu[:M] / t.n[:M] * (e / (1.0 + e) ** 2))


def _logistic(u):
    # 1/(e^u + 1) on a real array, without overflow on either side
    e = np.exp(-np.abs(u))
    return np.where(u >= 0.0, e / (1.0 + e), 1.0 / (1.0 + e))


def _ref_plain(x, t, M):
    # S(2M-1) f(x/(2M+1)) - sum_{m<M} nu_m f(x/n_m), every term of the truncation
    f_next = float(_logistic(np.array([x / (2.0 * M + 1.0)]))[0])
    f = _logistic(x / t.n[:M])
    return math.fsum([float(t.S[M - 1]) * f_next] + list(-t.nu[:M] * f))


def _assert_close(got, want, tol=1e-14):
    # absolute, except near poles where the kernel itself is ~1/r
    assert abs(got - want) <= tol * max(1.0, abs(want)), (got, want)


def test_routes_match_fsum_on_real_axis(table_100k):
    t, M = _terms(table_100k), config_for_table(table_100k).n_terms_M
    x = np.array(REAL_X)
    n_vals, _ = kernel_N_with_bound(x, table_100k)
    half, _ = kernel_M_with_bound(x, table_100k)
    plain, _ = kernel_M_with_bound(x, table_100k, form="plain")
    for j, xj in enumerate(REAL_X):
        _assert_close(n_vals[j], _ref_N(xj, t, config_for_table(table_100k).n_terms_N))
        _assert_close(half[j], _ref_M_half(xj, t, M))
        _assert_close(plain[j], _ref_plain(xj, t, M))
        w = xj / t.n[:M]
        e = np.exp(-w)
        ref = math.fsum(t.nu[:M] / t.n[:M] * (e / (1.0 + e) ** 2))
        _assert_close(kernel_M_prime(xj, table_100k), ref)


def test_routes_match_fsum_off_axis(table_100k):
    t, M = _terms(table_100k), config_for_table(table_100k).n_terms_M
    for z in [complex(p) for p in DEFAULT_IDENTITY_POINTS] + NEAR_POLE:
        zs = z.real if z.imag == 0.0 else z
        _assert_close(kernel_N_with_bound(z, table_100k)[0],
                      _ref_N(zs, t, config_for_table(table_100k).n_terms_N))
        _assert_close(kernel_M_with_bound(z, table_100k)[0],
                      _ref_M_half(zs, t, M))
    # plain form off the axis, all M terms
    for z in (1.0 + 1.0j, 2.5 - 1.0j, -1.5 + 0j):
        f = 1.0 / (np.exp(z / t.n[:M]) + 1.0)
        f_next = 1.0 / (np.exp(z / (2.0 * M + 1.0)) + 1.0)
        ref = _csum(np.concatenate([[t.S[M - 1] * f_next], -t.nu[:M] * f]))
        _assert_close(kernel_M_with_bound(z, table_100k, form="plain")[0], ref)


def test_plain_form_real_array_is_odd_with_positive_bound(table_100k):
    x = np.array([0.5, 5.0, 50.0])
    pos, pos_bound = kernel_M_with_bound(x, table_100k, form="plain")
    neg, neg_bound = kernel_M_with_bound(-x, table_100k, form="plain")
    assert np.all(np.abs(neg + pos) <= 1e-14)
    assert neg_bound == pytest.approx(pos_bound, rel=1e-12)
    assert np.all(pos_bound > 0.0)


def test_plain_form_sums_all_terms_on_2e6_table(table_main):
    # the plain form sums all M = 10^6 terms at every real x
    t, M = _terms(table_main), config_for_table(table_main).n_terms_M
    xs = (3.5, 8.0, 20.0, 60.0, 150.0, 330.0, 400.0)
    vals, _ = kernel_M_with_bound(np.array(xs), table_main, form="plain")
    for j, x in enumerate(xs):
        _assert_close(vals[j], _ref_plain(x, t, M))


def test_tanh_coefficients_from_recurrence():
    c = _tanh_coefficients(TAYLOR_TERMS)
    for k in range(TAYLOR_TERMS):
        want = 2.0 * (-1.0) ** k * PI ** (-(2 * k + 2)) * zeta_imp(2.0 * k + 2.0).real
        assert c[k] == pytest.approx(want, rel=1e-13)


def _head_end(x, M):
    # first power of two b with 2b+1 >= 2|x|, capped at M
    b = 0
    while b < M and 2 * b + 1 < 2.0 * abs(x):
        b = 1 if b == 0 else 2 * b
    return min(b, M)


def _tail_remainder(x, t, M):
    # Taylor remainder of the moment tail: (|u|/4)(|u|/pi)^(2K)/(1-(|u|/pi)^2)
    # times sum |nu| past the head, u = x/n_b, n_b the first breakpoint >= 2x
    b = _head_end(x, M)
    if b >= M:
        return 0.0
    u = x / (2.0 * b + 1.0)
    r2 = (u / PI) ** 2
    return 0.25 * u * r2 ** TAYLOR_TERMS / (1.0 - r2) * float(np.abs(t.nu[b:M]).sum())


def _sup_M(u0, w0):
    # |tanh(u/2)/2| <= coth(|Re u|/2)/2, and |Re u| >= |u0|/2 on the ellipse
    return 0.5 / math.tanh(abs(u0) / 4.0)


def _sup_M_prime(u0, w0):
    # f = t (1/4 - g^2), g = tanh(u/2)/2, with |t| <= 1.5 w0 on the ellipse
    return 1.5 * w0 * (0.25 + _sup_M(u0, w0) ** 2)


def _sup_N(u0, w0):
    # f = t 2u/(u^2 + pi^2) with |u -/+ i pi| >= |Re u| >= |u0|/2, |u| <= 1.5|u0|
    return 18.0 * w0 / abs(u0)


def _block_remainder(x, t, head, sup=_sup_M, v=None):
    # Bound on interpolating the term at 20 first-kind Chebyshev points over
    # each block of the real head past its first 32 terms.  The blocks are
    # three geometric ones per octave of m, split at powers of two.  On a
    # block, 1/n = w0 + delta tau with |tau| <= 1; on the Bernstein ellipse
    # in tau with real semi-axis w0/(2 delta) the term is below sup(u0, w0),
    # u0 = x w0, and the error below 4 q^20/(1 - q) times that, with
    # q = r/(1 + sqrt(1 - r^2)), r = 2 delta/w0.
    v = t.nu if v is None else v
    edges = {round(2.0 ** (j + i / 3.0)) for j in range(5, 21) for i in range(3)}
    edges.add(head)
    edges = sorted(e for e in edges if 32 <= e <= head)
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        inv_first, inv_last = 1.0 / (2 * a + 1), 1.0 / (2 * b - 1)
        w0, delta = (inv_first + inv_last) / 2.0, (inv_first - inv_last) / 2.0
        r = 2.0 * delta / w0
        q = r / (1.0 + math.sqrt(1.0 - r * r))
        total += sup(x * w0, w0) * 4.0 * q ** 20 / (1.0 - q) * math.fsum(np.abs(v[a:b]))
    return total


def test_plain_form_bound_is_abel_bound_plus_taylor_remainder(table_100k):
    t, M = _terms(table_100k), config_for_table(table_100k).n_terms_M
    _, bounds = kernel_M_with_bound(np.array(REAL_X), table_100k, form="plain")
    for j, x in enumerate(REAL_X):
        g_edge = 0.5 * float(np.tanh(x / (2.0 * (2.0 * M + 1.0))))
        abel = 2.0 * _ws(table_100k).s_sup * abs(g_edge)
        remainder = _tail_remainder(x, t, M)
        blocks = _block_remainder(x, t, _head_end(x, M))
        assert remainder < 1e-20 and blocks < 1e-16
        assert (blocks > 0.0) == (x > 16.0)  # blocks start after 32 head terms
        assert abs((bounds[j] - abel) - (remainder + blocks)) <= 2.0 * math.ulp(abel)


PLAIN_BLOCK_X = (-500.0, 500.0, 5000.0, 5e4, 99952.9)


def test_plain_block_head_matches_fsum(table_main):
    # heads of up to 2^17 terms, all but the first 32 from block interpolation,
    # for every real form: M in both variants, N and M'
    t, M = _terms(table_main), config_for_table(table_main).n_terms_M
    xs = np.array(PLAIN_BLOCK_X)
    vals, bounds = kernel_M_with_bound(xs, table_main, form="plain")
    half, _ = kernel_M_with_bound(xs, table_main)
    n_vals, n_bounds = kernel_N_with_bound(xs, table_main)
    for j, x in enumerate(PLAIN_BLOCK_X):
        _assert_close(vals[j], _ref_plain(x, t, M))
        _assert_close(half[j], _ref_M_half(x, t, M))
        _assert_close(n_vals[j], _ref_N(x, t, config_for_table(table_main).n_terms_N))
        blocks = _block_remainder(x, t, _head_end(x, M))
        assert 0.0 < blocks < 1e-16
        assert bounds[j] >= blocks
        n_blocks = _block_remainder(x, t, _head_end(x, M), _sup_N, t.coef_N)
        assert n_bounds[j] >= n_blocks > 0.0
    # M' has no printed bound; the remainder it checks against its tolerance
    # must hold the block term
    xp = xs[xs >= 0.0]
    mp_vals, mp_remainder = _kernel_sum(_FORM_M_PRIME, xp, _ws(table_main))
    for j, x in enumerate(xp):
        _assert_close(mp_vals[j], _ref_M_prime(x, t, M))
        assert mp_vals[j] == kernel_M_prime(x, table_main)
        assert mp_remainder[j] >= _block_remainder(x, t, _head_end(x, M), _sup_M_prime) > 0.0


# ----------------------------------- moments and block weights, to the bit ----

def _moments_whole_leaf(read, e0, breaks):
    # scaled and abs_sum of a moment build with every leaf as one
    # (TAYLOR_TERMS + 1)-row array
    n_break = 2.0 * breaks + 1.0
    scaled, abs_sum = np.zeros((len(breaks), TAYLOR_TERMS)), np.zeros(len(breaks))
    for i in range(len(breaks) - 2, -1, -1):
        lo, hi = int(breaks[i]), int(breaks[i + 1])

        def rows(a, b):
            v, r = read(a, b), n_break[i] / odd(a, b)
            out = np.empty((TAYLOR_TERMS + 1, b - a))
            np.multiply(v, np.power(r, e0), out=out[0])
            r *= r
            for k in range(1, TAYLOR_TERMS):
                np.multiply(out[k - 1], r, out=out[k])
            np.abs(v, out=out[-1])
            return out

        seg = pairwise_sum(rows, lo, hi - lo)
        shift = (n_break[i] / n_break[i + 1]) ** (e0 + kernels._K2)
        scaled[i] = seg[:-1] + shift * scaled[i + 1]
        abs_sum[i] = seg[-1] + abs_sum[i + 1]
    return scaled, abs_sum


def _block_rows_whole_leaf(self, B, lo, hi):
    # the block rows as one (_CHEB + 1)-row array
    v = self.read(lo, hi)
    tau = (1.0 / odd(lo, hi) - self.w0[B]) / (self.delta[B] or 1.0)
    out = np.empty((kernels._CHEB + 1, hi - lo))
    out[0], out[1] = 1.0, tau
    for k in range(2, kernels._CHEB):
        out[k] = 2.0 * tau * out[k - 1] - out[k - 2]
    out[:kernels._CHEB] *= v
    np.abs(v, out=out[kernels._CHEB])
    return out


def test_every_form_shares_the_exponent_of_its_moments():
    # the table sums one moment set per weight array, at MOMENT_EXPONENTS; a
    # form reads it only if its own e0 = q + p0 is that exponent, which lets
    # M and M' share nu's rows
    forms = [f for f in vars(kernels).values() if isinstance(f, kernels._Form)]
    assert {f.weights for f in forms} == set(arith.MOMENT_EXPONENTS) and len(forms) == 3
    for f in forms:
        assert arith.MOMENT_EXPONENTS[f.weights] == f.q + f.p0, f.weights


@pytest.mark.parametrize("form", [kernels._FORM_N, kernels._FORM_M], ids=["beta", "nu"])
def test_row_at_a_time_leaves_keep_the_bits(form, table_100k):
    ws = _Workspace(table_100k)
    read, e0 = ws.weights[form.weights], form.q + form.p0
    assert arith.MOMENT_EXPONENTS[form.weights] == e0
    sums = arith.sum_tail_moments(read, e0, ws.depth)
    scaled, abs_sum = _moments_whole_leaf(read, e0, arith.moment_breaks(ws.depth))
    assert np.array_equal(sums[:, :-1], scaled)
    assert np.array_equal(sums[:, -1], abs_sum)
    mom = ws.tails[form.weights]  # what the kernels read: the table's, the same bits
    assert sums.tobytes() == table_100k.tail_moments(form.weights).tobytes()
    assert np.array_equal(mom.scaled, scaled) and np.array_equal(mom.abs_sum, abs_sum)
    blocks, ref = kernels._HeadBlocks(ws.depth, read), kernels._HeadBlocks(ws.depth, read)
    ref._rows = functools.partial(_block_rows_whole_leaf, ref)
    for b in (blocks, ref):
        b._extend(len(b.edges) - 1)
    assert len(blocks.abs_sum) == len(blocks.edges) - 1
    assert np.array_equal(blocks.W, ref.W)
    assert np.array_equal(blocks.abs_sum, ref.abs_sum)


# -------------------------------------- truncations shorter than the table ----

SHORT_REAL = (0.5, 3.0, -7.0, 40.0)
SHORT_COMPLEX = (1.0 + 1.0j, 2.5 - 1.0j, 0.3 + 2.7j)


def test_s_sup_beyond_is_the_suffix_sup(table_100k):
    S = np.abs(_ws(table_100k).S_odd).tolist()
    for m in (0, 10, 4_999, 30_000, 50_000):
        want = max(max(S[m + 1:], default=0.0), S_TAIL_BEYOND_TABLE)
        assert _Workspace(table_100k, m + 1).s_sup == want, m


def test_s_sup_past_is_the_floored_suffix_sup(table_100k):
    for n in (1, 2, 1000, 1001, 100_001, 100_002):
        want = max(np.abs(table_100k.nu_cumsum[n:]).max(initial=0.0), S_TAIL_BEYOND_TABLE)
        assert kernels.s_sup_past(table_100k, n) == want, n
    assert _ws(table_100k).s_sup == kernels.s_sup_past(table_100k, 2 * _ws(table_100k).depth + 1)


def test_short_truncation_within_both_bounds(table_100k):
    # a truncation at M terms and the full one differ by the terms between,
    # which both remainder bounds must cover; the short truncation reads the
    # sup of |S| past M from the table, not the beyond-table cap alone
    for M in (501, 5_001, 20_001):
        short = copy.copy(table_100k)  # the same arrays, read through an M-term workspace
        short.__dict__["_kernel_ws"] = _Workspace(table_100k, M)
        assert (_ws(short).depth, _ws(table_100k).depth) == (M, 50_001)
        for form in ("half-shifted", "plain"):
            for points in (np.array(SHORT_REAL), np.array(SHORT_COMPLEX)):
                v_short, b_short = kernel_M_with_bound(points, short, form=form)
                v_full, b_full = kernel_M_with_bound(points, table_100k, form=form)
                assert np.all(np.abs(v_short - v_full) <= b_short + b_full), (M, form, points)


def test_kernel_N_bound_covers_worst_case_tail():
    # worst case |beta(n)|/sqrt(n) = 1 for every omitted term; the first
    # 10^6 omitted terms are summed exactly, the rest bounded by 1/(4L)
    L = 10 ** 6
    for M in (1, 2, 5, 20):
        table = build_table(2 * M - 1)  # M odd numbers, so M terms
        n = 2.0 * np.arange(M, M + L) + 1.0
        for z in (0.1, 0.5, 3.0, 1.0 + 2.0j, 0.3 + 2.7j, 5.0 - 1.0j):
            z = complex(z)
            zabs = abs(z)
            worst = math.fsum(2.0 * zabs / np.abs(z * z + (PI * n) ** 2))
            edge = PI * (2.0 * (M + L) + 1.0)
            worst += 2.0 * zabs / PI ** 2 / (4.0 * (M + L)) / (1.0 - (zabs / edge) ** 2)
            _, bound = kernel_N_with_bound(z, table)
            assert bound >= worst, (M, z, bound, worst)
            if z.imag == 0.0:
                _, real_bound = kernel_N_with_bound(np.array([z.real]), table)
                assert real_bound[0] >= worst
                if M == 1:  # the integral from M undercounts the tail
                    assert 2.0 * zabs / (2.0 * PI ** 2 * 3.0) < worst
    # past 0.866 pi (2M+1) the inflation factor is no longer a bound
    with pytest.raises(TruncationBudgetError):
        kernel_N_with_bound(8.5j, build_table(1))


# ------------------------------------------------ one call = many calls ----

MIXED_REAL = np.array([0.0, 0.01, -0.7, 1.0, 3.0, -3.5, 17.0, 100.0, -250.0, 5000.0])
MIXED_COMPLEX = np.array([complex(p) for p in DEFAULT_IDENTITY_POINTS if complex(p).imag]
                         + NEAR_POLE)


def test_array_call_equals_scalar_calls_bit_for_bit(table_100k):
    t = table_100k
    for form in ("half-shifted", "plain", None):
        for points in (MIXED_REAL, MIXED_COMPLEX):
            if form is None:
                vals, bounds = kernel_N_with_bound(points, t)
                scalar = [kernel_N_with_bound(z.item(), t) for z in points]
            else:
                vals, bounds = kernel_M_with_bound(points, t, form=form)
                scalar = [kernel_M_with_bound(z.item(), t, form=form) for z in points]
            assert vals.dtype == points.dtype and bounds.dtype == np.float64
            assert [(v, b) for v, b in scalar] == list(zip(vals, bounds)), (form, points)
    xs = np.linspace(0.0, 100.0, 201)
    assert kernel_M_prime(xs, t).tolist() == [kernel_M_prime(x, t) for x in xs.tolist()]


def test_array_call_across_the_point_chunk_equals_scalar_calls(table_100k):
    # more points than one chunk of the block heads (SCAN // _CHEB), so a
    # block's points are summed in two chunks: every point equals its value
    # from calls on slices shorter than a chunk, every 8th its scalar call
    t, x = table_100k, np.geomspace(33.0, 1e5, 5_000)  # past the head prefix
    assert len(x) > SCAN // kernels._CHEB > 1_000
    calls = {"N": lambda x: kernel_N_with_bound(x, t), "M": lambda x: kernel_M_with_bound(x, t),
             "plain": lambda x: kernel_M_with_bound(x, t, form="plain"),
             "M'": lambda x: (kernel_M_prime(x, t),)}
    for name, call in calls.items():
        whole = call(x)
        sliced = zip(*(call(x[a:a + 1_000]) for a in range(0, len(x), 1_000)))
        assert [v.tobytes() for v in whole] == [np.concatenate(v).tobytes() for v in sliced]
        for j in range(0, len(x), 8):
            assert call(x[j].item()) == tuple(v[j] for v in whole), (name, j)


def test_block_heads_work_in_point_chunks(table_100k):
    # a warm call holds O(points) (the tail's TAYLOR_TERMS moments and a dozen
    # arrays per point, under 32 floats a point) and a few SCAN-value temporaries;
    # a block head over all points at once would add 20 floats a point per temporary
    t, x = table_100k, np.geomspace(33.0, 1e5, 20_000)
    for call in (kernel_N_with_bound, kernel_M_prime):
        call(x, t)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            call(x, t)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (32 * len(x) + 4 * SCAN), (call, peak)


def test_batch_of_panels_equals_calls_per_panel_bit_for_bit(table_100k):
    # theorem 2's nodes: all panels of both Gauss rules in one call, or one
    # call per panel, give the same values and bounds
    t = table_100k
    panels = [0.5 * (a + b) + 0.5 * (b - a) * np.polynomial.legendre.leggauss(n)[0]
              for n in (PANEL_NODES, PANEL_NODES // 2)
              for a, b in panel_sequence(0.0, theorem2_max_x(t))]
    for form, far in ((None, False), ("half-shifted", False), ("plain", True)):
        parts = [x[(x > KERNEL_SPLICE_X) == far] for x in panels]
        parts = [x for x in parts if x.size]
        call = ((lambda x: kernel_N_with_bound(x, t)) if form is None
                else (lambda x: kernel_M_with_bound(x, t, form=form)))
        whole = call(np.concatenate(parts))
        per_panel = [np.concatenate(v) for v in zip(*map(call, parts))]
        assert [v.tobytes() for v in whole] == [v.tobytes() for v in per_panel], form


def test_array_calls_check_every_point(table_100k):
    t = table_100k
    with pytest.raises(PoleError):
        kernel_N(np.array([1.0 + 1.0j, 3j * PI]), t)
    with pytest.raises(DomainError):
        kernel_M_prime(np.array([1.0, -1.0]), t)
    with pytest.raises(TruncationBudgetError):  # the bound at -50 is above 5e-8
        kernel_M(np.array([1.0, -50.0]), t, form="plain")


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, complex(math.inf, 1.0),
                                 complex(0.0, math.inf), complex(1.0, math.nan)])
def test_kernels_reject_non_finite_arguments(bad, table_100k):
    # as the zeta layer does: a scalar, or one entry of an array, is enough
    for z in (bad, np.array([1.0, bad, 2.0])):
        for call in (kernel_N_with_bound, kernel_M_with_bound,
                     lambda z, t: kernel_M_with_bound(z, t, form="plain"), kernel_M):
            with pytest.raises(InvalidArgumentError, match="finite"):
                call(z, table_100k)
        if not isinstance(bad, complex):
            with pytest.raises(InvalidArgumentError, match="finite"):
                kernel_M_prime(z, table_100k)
    # the scalar helpers: everything that checks poles
    for call in (fermi, fermi_deficit, kernel_N_series):
        with pytest.raises(InvalidArgumentError, match="finite"):
            call(bad)


def test_kernels_gate_the_argument_before_the_workspace(table_small, monkeypatch):
    # a refused argument costs no workspace: on a table with no moments
    # summed, every evaluator refuses nan before it would sum them
    fresh = dataclasses.replace(table_small)
    monkeypatch.setattr(arith, "sum_tail_moments", None)  # a call raises TypeError
    for call in (kernel_N_with_bound, kernel_N, kernel_M_with_bound, kernel_M, kernel_M_prime,
                 lambda z, t: kernel_M_with_bound(z, t, form="plain")):
        with pytest.raises(InvalidArgumentError, match="finite"):
            call(math.nan, fresh)
    assert "_kernel_ws" not in vars(fresh) and not fresh._moments


def test_evaluators_take_scalars_and_1d_arrays_only(table_100k):
    # an empty array gives empty arrays (M' refuses a complex one, as it
    # refuses every complex array); more than one dimension is refused
    # before numpy can fail on the shape
    calls = (kernel_N_with_bound, kernel_N, kernel_M_with_bound, kernel_M, kernel_M_prime,
             lambda z, t: kernel_M_with_bound(z, t, form="plain"),
             lambda z, t: kernel_M(z, t, form="plain"))
    for call in calls:
        for empty in (np.array([]), np.array([], dtype=complex)):
            if call is kernel_M_prime and empty.dtype == complex:
                with pytest.raises(DomainError, match="complex x"):
                    call(empty, table_100k)
                continue
            out = call(empty, table_100k)
            assert all(v.shape == (0,) for v in (out if isinstance(out, tuple) else (out,)))
        for bad in (np.ones((2, 2)), np.ones((1, 3), dtype=complex), np.ones((0, 2))):
            with pytest.raises(InvalidArgumentError, match="1-d"):
                call(bad, table_100k)


def _ref_nearest_pole(z: complex):
    # reference, point by point: the largest odd integer <= Im z/pi, or the
    # next one when its pole is strictly closer
    odd = 2 * math.floor((z.imag / PI - 1) / 2) + 1
    best = min((odd, odd + 2), key=lambda o: abs(z - 1j * PI * o))
    return 1j * PI * best, (int(best) - 1) // 2


def _ref_points(z, what):
    # reference, point by point in input order
    for zj in np.atleast_1d(z):
        zj = complex(zj)
        pole, l = _ref_nearest_pole(zj)
        if abs(zj - pole) < POLE_TOL:
            raise PoleError(f"{what}: z={zj} is within {POLE_TOL} of pole {pole}",
                            location=pole, index=l)
    return np.atleast_1d(z)


def _outcome(call, z):
    try:
        return "ok", call(z).tolist()
    except PoleError as err:
        return type(err), str(err), repr(err.location), err.index


_POLES = [1j * PI * (2 * l + 1) for l in range(-3, 4)]
GATE_POINTS = (_POLES
               + [p + d * POLE_TOL * step for p in _POLES for step in (0.5, 2.0)
                  for d in (1, -1, 1j, -1j)]
               + [2j * PI * k for k in range(-3, 4)]              # midpoints: the lower pole
               + [2j * PI * k + d for k in (-2, 1) for d in (1e-9, -1e-9, 1e-9j, -1e-9j)]
               + [0.3 - 2.5j, -1.0 - 7.0j, 1e6j, -1e6j, 0.5 + 3.1e5j, -2.0 - 9.99e5j]
               + [1j * PI * (2 * l + 1) + d for l in (159_154, -159_155)
                  for d in (0.0, POLE_TOL / 2, 3e-10j, -3e-10j)])


def test_point_gate_matches_the_per_point_rule():
    gate = lambda z: _points(z, "gate")[0]
    ref = lambda z: _ref_points(z, "gate")
    for z in GATE_POINTS:
        assert _outcome(gate, z) == _outcome(ref, z), z
    arrays = [np.array(GATE_POINTS), np.array(GATE_POINTS[::-1]),
              np.array([0.5 + 0.5j, 2j * PI, _POLES[5], _POLES[2]]),  # first pole third
              np.array([1 + 1j, -2.5j, 6j * PI + 2 * POLE_TOL,
                        _POLES[0] - 1j * POLE_TOL / 2]),
              np.array([z for z in GATE_POINTS if _outcome(ref, z)[0] == "ok"])]
    assert _outcome(gate, arrays[-1])[0] == "ok"
    for zs in arrays:
        assert _outcome(gate, zs) == _outcome(ref, zs), zs


def test_workspace_keeps_views_of_the_table_only(table_main):
    # the N and M moments and the blocks to m = 2^17 (a head ending at x = 2^17)
    # keep under 1% of the table's bytes, and build in slices well below it
    array_bytes = sum(v.nbytes for v in vars(table_main).values()
                      if isinstance(v, np.ndarray))
    x = np.array([2.0 ** 17])
    kernel_N_with_bound(x, build_table(1001))  # any first-call imports
    table_main.__dict__.pop("_kernel_ws", None)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        kernel_N_with_bound(x, table_main)
        kernel_M_with_bound(x, table_main)
        kept, peak = (b - start for b in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    blocks = _ws(table_main).blocks[_FORM_M_PRIME.weights]
    assert blocks.edges[len(blocks.abs_sum)] == 2 ** 17
    assert kept < 0.01 * array_bytes, kept / array_bytes
    assert peak < 0.2 * array_bytes, peak / array_bytes
