"""Fermi kernel, the two meromorphic kernel sums, derivative, residues."""

import math

import numpy as np
import pytest

from liouville_mellin import (DomainError, InvalidArgumentError, KernelConfig,
                              PoleError, TruncationBudgetError, fermi,
                              fermi_deficit, kernel_M, kernel_M_prime,
                              kernel_N, kernel_N_series, residue_estimate,
                              zeta_beta, zeta_imp, zeta_nu)
from liouville_mellin.kernels import (_CHUNK, _TAYLOR_TERMS, _fermi_real,
                                      _plain_stops, _tanh_coefficients, _ws,
                                      config_for_table,
                                      kernel_M_with_bound, kernel_N_with_bound,
                                      nearest_pole)
from liouville_mellin.verify import DEFAULT_IDENTITY_POINTS

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


def test_nearest_pole():
    assert nearest_pole(0.0)[1] in (-1, 0)
    pole, l = nearest_pole(0.1 + 3.0j)
    assert pole == 1j * PI and l == 0
    pole, l = nearest_pole(-9.5j)
    assert pole == -3j * PI and l == -2


# ------------------------------------------------------------- kernel N ----

def test_kernel_N_at_zero(table_100k, kconfig_100k):
    assert kernel_N(0.0, table_100k, kconfig_100k) == 0.0


def test_kernel_N_odd(table_100k, kconfig_100k):
    for z in (0.7, 1.3 + 0.4j):
        a = kernel_N(z, table_100k, kconfig_100k)
        b = kernel_N(-z, table_100k, kconfig_100k)
        assert a == pytest.approx(-b, rel=1e-14)


def test_kernel_N_vs_series(table_100k, kconfig_100k):
    val, bound = kernel_N_with_bound(1.0, table_100k, kconfig_100k)
    series = kernel_N_series(1.0, kconfig_100k)
    # series truncation is below double precision at |z|=1
    assert abs(val - series) <= bound + 1e-13


def test_kernel_N_pole_and_size_guard(table_100k, kconfig_100k):
    with pytest.raises(PoleError):
        kernel_N(1j * PI, table_100k, kconfig_100k)
    with pytest.raises(InvalidArgumentError):
        kernel_N(1.0, table_100k, KernelConfig(n_terms_N=10 ** 6))


def test_kernel_series_domain_and_leading_term(table_100k, kconfig_100k):
    assert kernel_N_series(0.0, kconfig_100k) == 0.0
    with pytest.raises(DomainError):
        kernel_N_series(3.2, kconfig_100k)
    # leading-term dominance: the z^3 correction sits at 1.02e-3 relative
    z = 0.1
    leading = 2.0 * z * zeta_beta(2.5).real / PI ** 2
    assert kernel_N_series(z, kconfig_100k).real == pytest.approx(
        leading, rel=1.1e-3)


# ------------------------------------------------------------- kernel M ----

def test_kernel_M_zero_halfshifted(table_100k, kconfig_100k):
    assert kernel_M(0.0, table_100k, kconfig_100k, form="half-shifted") == 0.0


def test_kernel_M_matches_N(table_100k, kconfig_100k):
    for z in (1.0, 0.5 + 0.5j, 2.0):
        nv, nb = kernel_N_with_bound(z, table_100k, kconfig_100k)
        mv, mb = kernel_M_with_bound(z, table_100k, kconfig_100k)
        assert abs(mv - nv) <= nb + mb
        assert abs(mv - nv) <= 1e-6


def test_kernel_M_forms_agree(table_100k, kconfig_100k):
    for x in (0.5, 2.0, 10.0):
        half = kernel_M(x, table_100k, kconfig_100k, form="half-shifted")
        plain = kernel_M(x, table_100k, kconfig_100k, form="plain")
        assert half == pytest.approx(plain, abs=5e-7)
    with pytest.raises(DomainError):
        kernel_M(1.0, table_100k, kconfig_100k, form="bogus")


def test_kernel_M_plain_complex_route(table_100k, kconfig_100k):
    z = 1.0 + 1.0j
    plain = kernel_M(z, table_100k, kconfig_100k, form="plain")
    half = kernel_M(z, table_100k, kconfig_100k, form="half-shifted")
    assert plain == pytest.approx(half, abs=5e-7)


def test_kernel_M_odd(table_100k, kconfig_100k):
    a = kernel_M(0.7, table_100k, kconfig_100k)
    b = kernel_M(-0.7, table_100k, kconfig_100k)
    assert a == pytest.approx(-b, rel=1e-14)


def test_kernel_M_truncation_budget_error(table_100k):
    tight = KernelConfig(n_terms_N=50_001, n_terms_M=50_001, abel_tail_tol=1e-12)
    with pytest.raises(TruncationBudgetError) as err:
        kernel_M(50.0, table_100k, tight, form="plain")
    assert err.value.achieved_bound > 1e-12


def test_kernel_M_pole_proximity(table_100k, kconfig_100k):
    with pytest.raises(PoleError):
        kernel_M(3j * PI + 1e-14, table_100k, kconfig_100k)


# ------------------------------------------------------------ derivative ----

def test_kernel_M_prime_at_zero(table_100k, kconfig_100k):
    # termwise value at 0 is nu(2m+1)/(4(2m+1)): the sum is zeta_nu(1)/4
    val = kernel_M_prime(0.0, table_100k, kconfig_100k)
    assert val == pytest.approx(zeta_nu(1.0).real / 4.0, abs=1e-6)


def test_kernel_M_prime_finite_difference(table_100k, kconfig_100k):
    x, h = 2.0, 1e-4
    fd = (kernel_M(x + h, table_100k, kconfig_100k, form="plain")
          - kernel_M(x - h, table_100k, kconfig_100k, form="plain")).real / (2 * h)
    assert abs(fd - kernel_M_prime(x, table_100k, kconfig_100k)) <= 1e-6


def test_kernel_M_prime_domain(table_100k, kconfig_100k):
    with pytest.raises(DomainError):
        kernel_M_prime(-1.0, table_100k, kconfig_100k)


# -------------------------------------------------------------- residues ----

def test_residues_match_beta(table_100k, kconfig_100k):
    # residue at i pi (2l+1) is beta(2l+1)/sqrt(2l+1)
    expected = {0: 1.0, 1: -1.0 / math.sqrt(3.0), 2: -1.0 / math.sqrt(5.0)}
    for l, want in expected.items():
        got = residue_estimate("N", l, table_100k, kconfig_100k)
        assert got.real == pytest.approx(want, abs=1e-4)
        assert abs(got.imag) < 1e-4
    got = residue_estimate("M", 1, table_100k, kconfig_100k)
    assert got.real == pytest.approx(expected[1], abs=1e-4)


def test_residue_bad_kernel(table_100k, kconfig_100k):
    with pytest.raises(DomainError):
        residue_estimate("Q", 0, table_100k, kconfig_100k)


def test_config_validation():
    with pytest.raises(InvalidArgumentError):
        KernelConfig(series_order_K=61)
    with pytest.raises(InvalidArgumentError):
        KernelConfig(n_terms_N=0)
    with pytest.raises(InvalidArgumentError):
        KernelConfig(abel_tail_tol=-1.0)


# ---------------------------------------------------------- config clamp ----

def test_config_for_table_clamps(table_100k):
    from liouville_mellin.kernels import DEFAULT_KERNEL_CONFIG, config_for_table
    clamped = config_for_table(table_100k)
    assert clamped.n_terms_N == 50_001
    assert clamped.n_terms_M == 50_001
    assert clamped.abel_tail_tol == DEFAULT_KERNEL_CONFIG.abel_tail_tol
    # a config that already fits is returned unchanged
    small = KernelConfig(n_terms_N=100, n_terms_M=100)
    assert config_for_table(table_100k, small) is small


def test_fermi_complex_far_field():
    # overflow-safe branches on both sides of the strip
    v = fermi(complex(100.0, 1.0))
    assert abs(v) < 1e-40 and abs(v) > 0.0
    w = fermi(complex(-100.0, 1.0))
    assert abs(w - 1.0) < 1e-40
    # plain complex kernel path tolerates huge real parts without overflow


def test_x_m_product_regression_guard(table_100k, kconfig_100k):
    # Whether x|M(x)| is bounded at all is an open question; this guard only
    # pins the observed values of this implementation (regression, not math).
    worst = 0.0
    for x in (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0):
        m = kernel_M(x, table_100k, kconfig_100k, form="plain").real
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


def _csum(terms):
    terms = np.asarray(terms)
    if np.iscomplexobj(terms):
        return complex(math.fsum(terms.real), math.fsum(terms.imag))
    return math.fsum(terms)


def _ref_N(z, ws, M):
    n, c = ws.n_odd[:M], ws.coef_N[:M]
    return _csum(c * (2.0 * z / (z * z + (PI * n) ** 2)))


def _ref_M_half(z, ws, M):
    return _csum(ws.nu_odd[:M] * 0.5 * np.tanh(z / (2.0 * ws.n_odd[:M])))


def _plain_stop_ref(x, ws, M, tol):
    stop = 0
    while stop < M:  # first chunk boundary whose Abel bound is below tol
        stop = min(stop + _CHUNK, M)
        g_edge = 0.5 - float(_fermi_real(np.array([x / (2.0 * stop + 1.0)]))[0])
        if 2.0 * ws.s_sup_beyond(stop - 1) * abs(g_edge) < tol:
            break
    return stop, g_edge


def _ref_plain(x, ws, M, tol):
    stop, g_edge = _plain_stop_ref(x, ws, M, tol)
    f = _fermi_real(x / ws.n_odd[:stop])
    return math.fsum([float(ws.S_odd[stop - 1]) * (0.5 - g_edge)]
                     + list(-ws.nu_odd[:stop] * f)), stop, g_edge


def _assert_close(got, want, tol=1e-14):
    # absolute, except near poles where the kernel itself is ~1/r
    assert abs(got - want) <= tol * max(1.0, abs(want)), (got, want)


def test_routes_match_fsum_on_real_axis(table_100k, kconfig_100k):
    ws, M = _ws(table_100k), kconfig_100k.n_terms_M
    x = np.array(REAL_X)
    n_vals, _ = kernel_N_with_bound(x, table_100k, kconfig_100k)
    half, _ = kernel_M_with_bound(x, table_100k, kconfig_100k)
    plain, _ = kernel_M_with_bound(x, table_100k, kconfig_100k, form="plain")
    for j, xj in enumerate(REAL_X):
        _assert_close(n_vals[j], _ref_N(xj, ws, kconfig_100k.n_terms_N))
        _assert_close(half[j], _ref_M_half(xj, ws, M))
        _assert_close(plain[j], _ref_plain(xj, ws, M, kconfig_100k.abel_tail_tol)[0])
        w = xj / ws.n_odd[:M]
        e = np.exp(-w)
        ref = math.fsum(ws.nu_odd[:M] / ws.n_odd[:M] * (e / (1.0 + e) ** 2))
        _assert_close(kernel_M_prime(xj, table_100k, kconfig_100k), ref)


def test_routes_match_fsum_off_axis(table_100k, kconfig_100k):
    ws, M = _ws(table_100k), kconfig_100k.n_terms_M
    for z in [complex(p) for p in DEFAULT_IDENTITY_POINTS] + NEAR_POLE:
        zs = z.real if z.imag == 0.0 else z
        _assert_close(kernel_N_with_bound(z, table_100k, kconfig_100k)[0],
                      _ref_N(zs, ws, kconfig_100k.n_terms_N))
        _assert_close(kernel_M_with_bound(z, table_100k, kconfig_100k)[0],
                      _ref_M_half(zs, ws, M))
    # plain form off the axis: no early stop, all M terms
    for z in (1.0 + 1.0j, 2.5 - 1.0j, -1.5 + 0j):
        f = 1.0 / (np.exp(z / ws.n_odd[:M]) + 1.0)
        f_next = 1.0 / (np.exp(z / (2.0 * M + 1.0)) + 1.0)
        ref = _csum(np.concatenate([[ws.S_odd[M - 1] * f_next], -ws.nu_odd[:M] * f]))
        _assert_close(kernel_M_with_bound(z, table_100k, kconfig_100k, form="plain")[0], ref)


def test_plain_form_real_array_is_odd_with_positive_bound(table_100k, kconfig_100k):
    x = np.array([0.5, 5.0, 50.0])
    pos, pos_bound = kernel_M_with_bound(x, table_100k, kconfig_100k, form="plain")
    neg, neg_bound = kernel_M_with_bound(-x, table_100k, kconfig_100k, form="plain")
    assert np.all(np.abs(neg + pos) <= 1e-14)
    assert neg_bound == pytest.approx(pos_bound, rel=1e-12)
    assert np.all(pos_bound > 0.0)


def test_plain_form_early_stop_matches_fsum(table_main):
    # on the 2e6 table the plain form stops at multiples of the chunk size
    config = config_for_table(table_main)
    ws, M = _ws(table_main), config.n_terms_M
    xs = (3.5, 8.0, 20.0, 60.0, 150.0)
    vals, _ = kernel_M_with_bound(np.array(xs), table_main, config, form="plain")
    stops = set()
    for j, x in enumerate(xs):
        ref, stop, _ = _ref_plain(x, ws, M, config.abel_tail_tol)
        stops.add(stop)
        _assert_close(vals[j], ref)
    assert len(stops - {M}) >= 2  # several early-stop boundaries crossed


def test_tanh_coefficients_from_recurrence():
    c = _tanh_coefficients(_TAYLOR_TERMS)
    for k in range(_TAYLOR_TERMS):
        want = 2.0 * (-1.0) ** k * PI ** (-(2 * k + 2)) * zeta_imp(2.0 * k + 2.0).real
        assert c[k] == pytest.approx(want, rel=1e-13)


def _head_end(x, M):
    # first power of two b with 2b+1 >= 2|x|, capped at M (x <= 1e5 here, so
    # no chunk multiple past _CHUNK = 2^17 comes first)
    b = 0
    while b < M and 2 * b + 1 < 2.0 * abs(x):
        b = 1 if b == 0 else 2 * b
    return min(b, M)


def _tail_remainder(x, ws, M):
    # Taylor remainder of the moment tail: (|u|/4)(|u|/pi)^(2K)/(1-(|u|/pi)^2)
    # times sum |nu| past the head, u = x/n_b, n_b the first breakpoint >= 2x
    b = _head_end(x, M)
    if b >= M:
        return 0.0
    u = x / (2.0 * b + 1.0)
    r2 = (u / PI) ** 2
    return 0.25 * u * r2 ** _TAYLOR_TERMS / (1.0 - r2) * float(np.abs(ws.nu_odd[b:M]).sum())


def _block_remainder(x, ws, head):
    # Cauchy bound on the 28-term Taylor expansion of f = 1/(e^u+1) over each
    # block of the real plain head past its first 32 terms.  The blocks are
    # three geometric ones per octave of m, split at powers of two and chunk
    # multiples.  On a block, 1/n = w0 + delta tau with |tau| <= 1; around
    # u0 = x w0, |f| <= 1/(1 - e^(-|u0|/2)) within radius |u0|/2, and
    # rho = |x| delta / (|u0|/2).
    edges = {round(2.0 ** (j + i / 3.0)) for j in range(5, 21) for i in range(3)}
    edges |= set(range(_CHUNK, head, _CHUNK)) | {head}
    edges = sorted(e for e in edges if 32 <= e <= head)
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        inv_first, inv_last = 1.0 / (2 * a + 1), 1.0 / (2 * b - 1)
        w0, delta = (inv_first + inv_last) / 2.0, (inv_first - inv_last) / 2.0
        rho = 2.0 * delta / w0
        sup_f = 1.0 / (1.0 - math.exp(-abs(x) * w0 / 2.0))
        total += sup_f * rho ** 28 / (1.0 - rho) * math.fsum(np.abs(ws.nu_odd[a:b]))
    return total


def test_plain_form_bound_is_abel_bound_plus_taylor_remainder(table_100k, kconfig_100k):
    ws, M = _ws(table_100k), kconfig_100k.n_terms_M
    _, bounds = kernel_M_with_bound(np.array(REAL_X), table_100k, kconfig_100k, form="plain")
    for j, x in enumerate(REAL_X):
        stop, g_edge = _plain_stop_ref(x, ws, M, kconfig_100k.abel_tail_tol)
        abel = 2.0 * ws.s_sup_beyond(stop - 1) * g_edge
        remainder = _tail_remainder(x, ws, stop)
        blocks = _block_remainder(x, ws, _head_end(x, stop))
        assert remainder < 1e-20 and blocks < 1e-16
        assert (blocks > 0.0) == (x > 16.0)  # blocks start after 32 head terms
        assert abs((bounds[j] - abel) - (remainder + blocks)) <= 2.0 * math.ulp(abel)


PLAIN_BLOCK_X = (-500.0, 500.0, 5000.0, 5e4, 99952.9)


def test_plain_block_head_matches_fsum(table_main):
    # heads of up to 2^17 terms, all but the first 32 from block moments
    config = config_for_table(table_main)
    ws, M, tol = _ws(table_main), config.n_terms_M, config.abel_tail_tol
    vals, bounds = kernel_M_with_bound(np.array(PLAIN_BLOCK_X), table_main, config, form="plain")
    for j, x in enumerate(PLAIN_BLOCK_X):
        ref, stop, _ = _ref_plain(x, ws, M, tol)
        _assert_close(vals[j], ref)
        blocks = _block_remainder(x, ws, _head_end(x, stop))
        assert 0.0 < blocks < 1e-16
        assert bounds[j] >= blocks


def _plain_stop_loop(x, ws, M, tol):
    # the per-point search the vectorised one replaced, bound and f included
    stop = 0
    while stop < M:
        stop = min(stop + _CHUNK, M)
        f_next = float(_fermi_real(np.array([x / (2.0 * stop + 1.0)]))[0])
        bound = 2.0 * ws.s_sup_beyond(stop - 1) * abs(0.5 - f_next)
        if bound < tol:
            break
    return stop, bound, f_next


def test_plain_stops_match_loop_bit_for_bit(table_main):
    config = config_for_table(table_main)
    ws, M, tol = _ws(table_main), config.n_terms_M, config.abel_tail_tol
    xs = np.geomspace(3.0, 1e5, 200)
    stops, bounds, f_next = _plain_stops(xs, ws, M, tol)
    assert len(set(stops.tolist())) >= 3  # early stops and the full table
    for j, x in enumerate(xs):
        assert stops[j] == _plain_stop_ref(float(x), ws, M, tol)[0]
    for x_signed in (xs, -xs):
        stops, bounds, f_next = _plain_stops(x_signed, ws, M, tol)
        for j, x in enumerate(x_signed):
            assert (stops[j], bounds[j], f_next[j]) == _plain_stop_loop(float(x), ws, M, tol)


def test_kernel_N_bound_covers_worst_case_tail(table_100k):
    # worst case |beta(n)|/sqrt(n) = 1 for every omitted term; the first
    # 10^6 omitted terms are summed exactly, the rest bounded by 1/(4L)
    L = 10 ** 6
    for M in (1, 2, 5, 20):
        config = KernelConfig(n_terms_N=M, n_terms_M=50_001, abel_tail_tol=1e-6)
        n = 2.0 * np.arange(M, M + L) + 1.0
        for z in (0.1, 0.5, 3.0, 1.0 + 2.0j, 0.3 + 2.7j, 5.0 - 1.0j):
            z = complex(z)
            zabs = abs(z)
            worst = math.fsum(2.0 * zabs / np.abs(z * z + (PI * n) ** 2))
            edge = PI * (2.0 * (M + L) + 1.0)
            worst += 2.0 * zabs / PI ** 2 / (4.0 * (M + L)) / (1.0 - (zabs / edge) ** 2)
            _, bound = kernel_N_with_bound(z, table_100k, config)
            assert bound >= worst, (M, z, bound, worst)
            if z.imag == 0.0:
                _, real_bound = kernel_N_with_bound(np.array([z.real]), table_100k, config)
                assert real_bound[0] >= worst
                if M == 1:  # the integral from M undercounts the tail
                    assert 2.0 * zabs / (2.0 * PI ** 2 * 3.0) < worst
    # past 0.866 pi (2M+1) the inflation factor is no longer a bound
    config = KernelConfig(n_terms_N=1, n_terms_M=50_001, abel_tail_tol=1e-6)
    with pytest.raises(TruncationBudgetError):
        kernel_N_with_bound(8.5j, table_100k, config)


# ------------------------------------------------ one call = many calls ----

MIXED_REAL = np.array([0.0, 0.01, -0.7, 1.0, 3.0, -3.5, 17.0, 100.0, -250.0, 5000.0])
MIXED_COMPLEX = np.array([complex(p) for p in DEFAULT_IDENTITY_POINTS if complex(p).imag]
                         + NEAR_POLE)


def test_array_call_equals_scalar_calls_bit_for_bit(table_100k, kconfig_100k):
    t, c = table_100k, kconfig_100k
    for form in ("half-shifted", "plain", None):
        for points in (MIXED_REAL, MIXED_COMPLEX):
            if form is None:
                vals, bounds = kernel_N_with_bound(points, t, c)
                scalar = [kernel_N_with_bound(z.item(), t, c) for z in points]
            else:
                vals, bounds = kernel_M_with_bound(points, t, c, form=form)
                scalar = [kernel_M_with_bound(z.item(), t, c, form=form) for z in points]
            assert vals.dtype == points.dtype and bounds.dtype == np.float64
            assert [(v, b) for v, b in scalar] == list(zip(vals, bounds)), (form, points)
    xs = np.linspace(0.0, 100.0, 201)
    assert kernel_M_prime(xs, t, c).tolist() == [kernel_M_prime(x, t, c) for x in xs.tolist()]


def test_array_calls_check_every_point(table_100k, kconfig_100k):
    t, c = table_100k, kconfig_100k
    with pytest.raises(PoleError):
        kernel_N(np.array([1.0 + 1.0j, 3j * PI]), t, c)
    with pytest.raises(DomainError):
        kernel_M_prime(np.array([1.0, -1.0]), t, c)
    tight = KernelConfig(n_terms_N=50_001, n_terms_M=50_001, abel_tail_tol=1e-12)
    with pytest.raises(TruncationBudgetError):
        kernel_M(np.array([1.0, -50.0]), t, tight, form="plain")
