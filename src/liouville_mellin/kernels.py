"""The Fermi-type kernel and the two meromorphic kernel sums built on it.

Two series define the same odd meromorphic function with simple poles at
i*pi*(2l+1) and residues beta(2l+1)/sqrt(2l+1):

    partial-fraction form (coefficients beta):
        N(z) = 2z sum_m beta(2m+1) / (sqrt(2m+1) (z^2 + pi^2 (2m+1)^2))

    exponential form (coefficients nu), in a half-shifted and a plain variant:
        M(z) = sum_m nu(2m+1) (1/2 - 1/(e^(z/(2m+1)) + 1))
             = -sum_m nu(2m+1) / (e^(z/(2m+1)) + 1)

Every truncated sum has terms w_n phi(z/n) over odd n = 2m+1, with phi
analytic for |u| < pi:

    N:                w = beta(n)/n^(3/2),  phi(u) = 2u/(u^2 + pi^2)
    M, half-shifted:  w = nu(n),            phi(u) = tanh(u/2)/2
    M' (real axis):   w = nu(n)/n,          phi(u) = sech^2(u/2)/4

Each is evaluated as a short exact head plus a power-moment tail.  The head
sums the terms directly up to b, the first breakpoint with 2b+1 >= 2|z|;
the breakpoints are the powers of two, the chunk multiples where the plain
form may stop early, and the truncation end.  On the tail |z/n| <= 1/2, so
phi is replaced by _TAYLOR_TERMS terms of its power series and the tail
becomes sum_k a_k z^p_k sum_{b<=m<end} w_m n^-p_k.  Those inner sums, the
power moments, are computed once per table and weight array and cached on
the table's workspace.  tanh(u/2)/2 = sum_k c_k u^(2k+1) has
|c_k| <= pi^-2k/4 (c_k from the recurrence tanh' = 1 - tanh^2), as have N's
coefficients, so the discarded series is below

    (|u|/4) (|u|/pi)^(2K) / (1 - (|u|/pi)^2) * sum_tail |w_n|,  u = z/(2b+1),

about 1e-22; every returned bound includes it (M' uses the same bound with
the extra factor 2k+1).  The truncation itself is unchanged: the same number
of terms and the same remainder bounds as a direct sum.

The plain variant converges only because the nu series sums to zero; it is
evaluated through summation by parts with the cached partial sums
S(2m+1), which also yields a computable remainder bound

    |remainder| <= sup_{m>M} |S(2m+1)| * O(kernel variation beyond M).

Its head stays in plain form, whose terms are exponentially small for
n << x; past the head, 1/(e^u+1) = 1/2 - tanh(u/2)/2 turns the rest into
half a difference of partial sums minus the half-shifted moment tail.

The sup factor uses the table's suffix envelope inside the sieve range and
a frozen empirical constant beyond it, so these bounds are honest but not
purely analytic; reports downstream flag them as such.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .arith import ArithTable
from .errors import (DomainError, EstimationFailureError, InvalidArgumentError,
                     PoleError, TruncationBudgetError)
from .special import DEFAULT_EVAL_CONFIG
from .zeta_family import zeta_beta

__all__ = ["KernelConfig", "DEFAULT_KERNEL_CONFIG", "fermi", "fermi_deficit",
           "kernel_N", "kernel_N_series", "kernel_M", "kernel_M_prime",
           "residue_estimate", "kernel_N_with_bound", "kernel_M_with_bound",
           "nearest_pole"]

_POLE_TOL = 1e-12
_CHUNK = 1 << 17  # plain-form early-stop granularity; moment block length

# sup of |S(n)| beyond any table this package builds; frozen from a sieve run
# to 2e6 where the suffix envelope had decayed to 1.2e-4 (last-octave max
# 5.34e-4), decreasing steadily over every octave past 2^14.
S_TAIL_BEYOND_TABLE = 5.4e-4


@dataclass(frozen=True)
class KernelConfig:
    """Truncation depths and tolerances for the kernel sums.

    n_terms_N: number of partial-fraction terms (index m runs to this).
    n_terms_M: number of exponential-kernel terms.
    series_order_K: power-series truncation order; capped at 60 because the
        coefficients fall below double-precision underflow near |z| <= 1
        well before that.
    abel_tail_tol: stopping tolerance for the summation-by-parts remainder
        of the plain-form kernel on the real axis.
    """

    n_terms_N: int = 10 ** 6
    n_terms_M: int = 10 ** 6
    series_order_K: int = 30
    abel_tail_tol: float = 5e-8

    def __post_init__(self):
        if min(self.n_terms_N, self.n_terms_M, self.series_order_K) < 1:
            raise InvalidArgumentError("kernel truncations must be positive")
        if self.series_order_K > 60:
            raise InvalidArgumentError("series_order_K must be <= 60")
        if self.abel_tail_tol <= 0:
            raise InvalidArgumentError("abel_tail_tol must be positive")


DEFAULT_KERNEL_CONFIG = KernelConfig()


def config_for_table(table: ArithTable,
                     base: KernelConfig = DEFAULT_KERNEL_CONFIG) -> KernelConfig:
    """`base` with its truncation depths clamped to what the table can serve."""
    available = (table.limit - 1) // 2 + 1
    if base.n_terms_N <= available and base.n_terms_M <= available:
        return base
    return KernelConfig(n_terms_N=min(base.n_terms_N, available),
                        n_terms_M=min(base.n_terms_M, available),
                        series_order_K=base.series_order_K,
                        abel_tail_tol=base.abel_tail_tol)


# ---------------------------------------------------------------------------
# Fermi-type kernel 1/(e^z + 1)
# ---------------------------------------------------------------------------

def nearest_pole(z: complex) -> tuple[complex, int]:
    """The pole i*pi*(2l+1) closest to z, returned as (pole, l)."""
    z = complex(z)
    # closest odd integer to Im(z)/pi
    q = z.imag / math.pi
    odd = 2 * math.floor((q - 1) / 2) + 1
    cands = (odd, odd + 2)
    best = min(cands, key=lambda o: abs(z - 1j * math.pi * o))
    return 1j * math.pi * best, (int(best) - 1) // 2


def _check_pole(z: complex, what: str) -> complex:
    z = complex(z)
    pole, l = nearest_pole(z)
    if abs(z - pole) < _POLE_TOL:
        raise PoleError(f"{what}: z={z} is within {_POLE_TOL} of pole {pole}",
                        location=pole, index=l)
    return z


def fermi(z: complex) -> complex:
    """1/(e^z + 1), overflow-safe on the whole plane.

    Raises:
        PoleError: within 1e-12 of a pole i*pi*(2k+1).
    """
    z = _check_pole(z, "fermi")
    if z.real > 30.0:
        w = cmath.exp(-z)
        return w / (1.0 + w)
    if z.real < -30.0:
        return 1.0 / (1.0 + cmath.exp(z))
    return 1.0 / (cmath.exp(z) + 1.0)


def fermi_deficit(z: complex) -> complex:
    """1/2 - 1/(e^z + 1) = tanh(z/2)/2, exact relative accuracy near 0."""
    z = _check_pole(z, "fermi_deficit")
    return 0.5 * cmath.tanh(0.5 * z)


def _fermi_real(x: np.ndarray) -> np.ndarray:
    """Vectorized 1/(e^x + 1) on real arrays, stable in both directions."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, e / (1.0 + e), 1.0 / (1.0 + e))


# ---------------------------------------------------------------------------
# kernel forms and their power series on the tail
# ---------------------------------------------------------------------------

_TAYLOR_TERMS = 14   # series terms of phi used on the tail, where |z/n| <= 1/2
_BLOCK = 1 << 20     # elements per temporary of a head sum (8 MiB of float64)
_K2 = np.array([2.0 * k for k in range(_TAYLOR_TERMS)])


def _tanh_coefficients(order: int) -> np.ndarray:
    """c_k, k < order, with tanh(u/2)/2 = sum_k c_k u^(2k+1).

    For t(v) = tanh(v) = sum_j t_j v^(2j+1), t' = 1 - t^2 gives
    (2j+1) t_j = -sum_{i+l=j-1} t_i t_l.  All products in that sum share one
    sign, so the recurrence loses no accuracy.
    """
    t = [1.0]
    for j in range(1, order):
        t.append(-math.fsum(t[i] * t[j - 1 - i] for i in range(j)) / (2 * j + 1))
    return np.array([tj / 4.0 ** (j + 1) for j, tj in enumerate(t)])


@dataclass(frozen=True)
class _Form:
    """One kernel sum, sum_m w_m phi(z/n_m) over odd n_m = 2m+1.

    w_m = v_m n_m^-q, where v is the workspace array named by `weights`, and
    phi(u) = sum_k coef[k] u^(p0+2k) for |u| < pi.  head(z, n) * outer(z)
    evaluates phi(z/n) n^-q directly; a head sum is multiplied by outer(z)
    once, after summation.
    """

    weights: str
    q: int
    p0: int
    coef: np.ndarray
    head: Callable[[np.ndarray, np.ndarray], np.ndarray]
    outer: Callable[[np.ndarray], np.ndarray] | None = None

    def remainder(self, r: np.ndarray) -> np.ndarray:
        """Bound on |phi(u) - first _TAYLOR_TERMS series terms| for |u| <= r < pi.

        The odd forms have |coef[k]| <= pi^-2k / 4 (tanh: c_k =
        2 (-1)^k pi^-(2k+2) lambda(2k+2) with lambda(2k+2) <= pi^2/8; N:
        2 pi^-(2k+2) <= pi^-2k / 4); M' has (2k+1) times the tanh bound.
        """
        x = (r / math.pi) ** 2
        geometric = x ** _TAYLOR_TERMS / (1.0 - x)
        if self.p0:
            return 0.25 * r * geometric
        return 0.25 * geometric * (2 * _TAYLOR_TERMS + 1 + 2.0 * x / (1.0 - x))


def _head_N(z: np.ndarray, n: np.ndarray) -> np.ndarray:
    # scaled by 2z once after summation, not per term: near a pole the one
    # dominant term then carries a single rounding into the residue estimate
    return 1.0 / (z * z + (math.pi * n) ** 2)


def _head_M(z: np.ndarray, n: np.ndarray) -> np.ndarray:
    return 0.5 * np.tanh(z / (2.0 * n))


def _head_M_prime(x: np.ndarray, n: np.ndarray) -> np.ndarray:
    e = np.exp(-x / n)  # x >= 0: the overflow-safe side of e^w/(e^w+1)^2
    return e / (1.0 + e) ** 2 / n


def _head_plain(z: np.ndarray, n: np.ndarray) -> np.ndarray:
    if np.iscomplexobj(z):
        with np.errstate(over="ignore"):  # exp overflow cleanly yields f = 0
            return 1.0 / (np.exp(z / n) + 1.0)
    return _fermi_real(z / n)


_TANH = _tanh_coefficients(_TAYLOR_TERMS)
# N: w = beta/n^(3/2), phi(u) = 2u/(u^2 + pi^2) = sum_k 2 (-1)^k pi^-(2k+2) u^(2k+1)
_FORM_N = _Form("coef_N", 1, 1, np.array([2.0 * (-1.0) ** k * math.pi ** -(2 * k + 2)
                                          for k in range(_TAYLOR_TERMS)]),
                _head_N, lambda z: 2.0 * z)
# half-shifted M: w = nu, phi(u) = tanh(u/2)/2
_FORM_M = _Form("nu_odd", 0, 1, _TANH, _head_M)
# M': w = nu/n, phi(u) = sech^2(u/2)/4 = sum_k (2k+1) c_k u^(2k)
_FORM_M_PRIME = _Form("nu_odd", 1, 0, np.array([(2 * k + 1) * c for k, c in enumerate(_TANH)]),
                      _head_M_prime)


# ---------------------------------------------------------------------------
# per-table workspace
# ---------------------------------------------------------------------------

class _Moments:
    """Suffix power moments of one weight array, cached at fixed breakpoints.

    A breakpoint b is a term index; its tail is b <= m < end and starts at
    n_b = 2b + 1.  The breakpoints are 0, the powers of two, the multiples of
    _CHUNK (where the plain form may stop early) and end.  Per breakpoint,

        scaled[i, k] = sum_tail v_m (n_b / n_m)^(e0 + 2k),
        abs_sum[i]   = sum_tail |v_m|,

    scaled by n_b so that no power over- or underflows.
    """

    def __init__(self, n_odd: np.ndarray, v: np.ndarray, e0: int, end: int):
        points = {0, end, *(1 << j for j in range(end.bit_length())),
                  *range(_CHUNK, end, _CHUNK)}
        self.breaks = np.array(sorted(points), dtype=np.int64)
        self.n_break = 2.0 * self.breaks + 1.0
        self.scaled = np.zeros((len(self.breaks), _TAYLOR_TERMS))
        self.abs_sum = np.zeros(len(self.breaks))
        for i in range(len(self.breaks) - 2, -1, -1):
            lo, hi = int(self.breaks[i]), int(self.breaks[i + 1])
            seg = np.zeros(_TAYLOR_TERMS)
            seg_abs = 0.0
            for a in range(lo, hi, _CHUNK):
                b = min(a + _CHUNK, hi)
                r = self.n_break[i] / n_odd[a:b]
                r2 = r * r
                pw = np.power(r, e0)
                for k in range(_TAYLOR_TERMS):
                    seg[k] += float(v[a:b] @ pw)
                    pw *= r2
                seg_abs += float(np.abs(v[a:b]).sum())
            shift = (self.n_break[i] / self.n_break[i + 1]) ** (e0 + _K2)
            self.scaled[i] = seg + shift * self.scaled[i + 1]
            self.abs_sum[i] = seg_abs + self.abs_sum[i + 1]

    def index(self, z: np.ndarray) -> np.ndarray:
        """Per point, the first breakpoint with n_b >= 2|z| (else end)."""
        return np.minimum(np.searchsorted(self.n_break, 2.0 * np.abs(z)),
                          len(self.breaks) - 1)

    def tail(self, form: _Form, z: np.ndarray, i: np.ndarray):
        """Series tail past breakpoint i (per point) and its remainder bound.

        sum_tail w_m phi(z/n_m) ~ n_b^-q sum_k coef[k] u^(p0+2k) scaled[i, k]
        with u = z/n_b; the discarded series is below
        remainder(|u|) * sum_tail |w_m| <= remainder(|u|) n_b^-q abs_sum[i].
        """
        nb = self.n_break[i]
        u = np.where(i == len(self.breaks) - 1, 0.0, z / nb)  # empty tail
        u2 = u * u
        moments = self.scaled[i]
        acc = form.coef[-1] * moments[:, -1]
        for k in range(_TAYLOR_TERMS - 2, -1, -1):
            acc = acc * u2 + form.coef[k] * moments[:, k]
        if form.p0:
            acc = acc * u
        scale = nb ** -form.q
        return acc * scale, form.remainder(np.abs(u)) * self.abs_sum[i] * scale


class _Workspace:
    """Cached per-table odd-index views and tail moments used by every kernel sum."""

    def __init__(self, table: ArithTable):
        self.m_avail = (table.limit - 1) // 2  # odd numbers 1..limit -> m_avail+1 terms
        self.n_odd = np.arange(1, table.limit + 1, 2, dtype=np.float64)
        self.coef_N = table.beta[1::2].astype(np.float64) / np.sqrt(self.n_odd)
        self.nu_odd = table.nu[1::2]
        self.S_odd = table.nu_cumsum[1::2]
        self.s_tail_odd = table.s_tail_max[1::2]
        self._moments: dict[tuple, _Moments] = {}

    def s_sup_beyond(self, m_index: int) -> float:
        """sup |S| over m > m_index, table envelope plus frozen beyond-table cap."""
        if m_index + 1 < len(self.s_tail_odd):
            return max(float(self.s_tail_odd[m_index + 1]), S_TAIL_BEYOND_TABLE)
        return S_TAIL_BEYOND_TABLE

    def moments(self, form: _Form, end: int) -> _Moments:
        """Tail moments of form's weights for the series truncated at `end` terms."""
        key = (form.weights, form.q + form.p0, end)
        mom = self._moments.get(key)
        if mom is None:
            mom = _Moments(self.n_odd, getattr(self, form.weights), form.q + form.p0, end)
            self._moments[key] = mom
        return mom


def _ws(table: ArithTable) -> _Workspace:
    ws = table.__dict__.get("_kernel_ws")
    if ws is None:
        ws = _Workspace(table)
        table.__dict__["_kernel_ws"] = ws
    return ws


def _terms_N(table: ArithTable, config: KernelConfig) -> int:
    ws = _ws(table)
    if ws.m_avail + 1 < config.n_terms_N:
        raise InvalidArgumentError(
            f"table limit {table.limit} supports {ws.m_avail + 1} partial-fraction "
            f"terms, config requests {config.n_terms_N} (need limit >= 2*n_terms_N+1)")
    return config.n_terms_N


def _head_sum(head: Callable, z: np.ndarray, lengths: np.ndarray,
              v: np.ndarray, n: np.ndarray) -> np.ndarray:
    """sum_{m < lengths[j]} v_m head(z_j, n_m) per point, points grouped by length."""
    out = np.zeros(len(z), dtype=np.result_type(z, np.float64))
    for length in np.unique(lengths[lengths > 0]):
        length = int(length)
        idx = np.flatnonzero(lengths == length)
        rows = max(1, _BLOCK // length)
        for a in range(0, len(idx), rows):
            sel = idx[a:a + rows]
            for lo in range(0, length, _BLOCK):
                hi = min(lo + _BLOCK, length)
                out[sel] += (head(z[sel, None], n[lo:hi]) * v[lo:hi]).sum(axis=1)
    return out


def _kernel_sum(form: _Form, z: np.ndarray, ws: _Workspace,
                end: int) -> tuple[np.ndarray, np.ndarray]:
    """sum_{m<end} w_m phi(z/n_m) per point: direct head plus moment tail,
    and the bound on the tail's discarded series."""
    mom = ws.moments(form, end)
    i = mom.index(z)
    tail, remainder = mom.tail(form, z, i)
    head = _head_sum(form.head, z, mom.breaks[i], getattr(ws, form.weights), ws.n_odd)
    if form.outer is not None:
        head = form.outer(z) * head
    return head + tail, remainder


def _plain_sum(z: np.ndarray, ws: _Workspace, end: int,
               stops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sum_{m < stops[j]} nu_m / (e^(z_j/n_m) + 1) per point; stops are breakpoints.

    The head stays in plain form, whose terms are exponentially small for
    n << Re z.  Past the head, 1/(e^u + 1) = 1/2 - tanh(u/2)/2 turns the rest
    into half a difference of partial sums S minus the half-shifted tail
    between the head and the stop.
    """
    mom = ws.moments(_FORM_M, end)
    i = mom.index(z)
    heads = np.minimum(mom.breaks[i], stops)
    tail_head, remainder = mom.tail(_FORM_M, z, i)
    tail_stop, _ = mom.tail(_FORM_M, z, np.searchsorted(mom.breaks, stops))
    s_head = np.where(heads > 0, ws.S_odd[heads - 1], 0.0)
    rest = 0.5 * (ws.S_odd[stops - 1] - s_head) - (tail_head - tail_stop)
    has_rest = heads < stops
    vals = _head_sum(_head_plain, z, heads, ws.nu_odd, ws.n_odd)
    return vals + np.where(has_rest, rest, 0.0), np.where(has_rest, remainder, 0.0)


# ---------------------------------------------------------------------------
# partial-fraction kernel
# ---------------------------------------------------------------------------

def _N_truncation_bound(zabs, M: int):
    # |beta(n)|/sqrt(n) <= 1, and sum_{m>=M} (2m+1)^-2 <= 1/(4M) by midpoint
    # convexity, so on the real axis |tail| <= 2|x|/(4 M pi^2)
    return zabs / (2.0 * math.pi ** 2 * M)


def kernel_N_with_bound(z: complex, table: ArithTable,
                        config: KernelConfig | None = None
                        ) -> tuple[complex, float]:
    """Truncated partial-fraction kernel and its analytic tail bound.

    The tail uses |beta(2m+1)|/sqrt(2m+1) <= 1:
        |tail| <= |2z| sum_{m>M} 1/|z^2 + pi^2 (2m+1)^2|,
    with |z^2 + pi^2 n^2| >= pi^2 n^2 (1 - (|z|/(pi(2M+1)))^2) past the
    truncation; the bound also carries the Taylor remainder of the tail.

    With config=None the truncation is sized to the table; an explicit
    config must satisfy table limit >= 2*n_terms_N + 1.

    Raises:
        TruncationBudgetError: |z| > 0.866 pi (2M+1), where the first omitted
            poles are too close for the tail bound.
    """
    if config is None:
        config = config_for_table(table)
    z = _check_pole(z, "kernel_N")
    M = _terms_N(table, config)
    zabs = abs(z)
    shrink = (zabs / (math.pi * (2.0 * M + 1.0))) ** 2
    if shrink > 0.75:
        raise TruncationBudgetError(
            f"kernel_N: |z|={zabs:.6g} is within a factor 0.866 of the first "
            f"omitted pole pi*{2 * M + 1}", achieved_bound=math.inf)
    zs = np.array([z.real]) if z.imag == 0.0 else np.array([z])
    vals, remainder = _kernel_sum(_FORM_N, zs, _ws(table), M)
    bound = _N_truncation_bound(zabs, M) / (1.0 - shrink) + float(remainder[0])
    return complex(vals[0]), bound


def kernel_N(z: complex, table: ArithTable,
             config: KernelConfig | None = None) -> complex:
    """Partial-fraction kernel N(z); odd in z, N(0) = 0."""
    return kernel_N_with_bound(z, table, config)[0]


def _kernel_N_real_array(x: np.ndarray, table: ArithTable,
                         config: KernelConfig) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized kernel_N on a real grid (no pole checks: poles are off-axis)."""
    M = _terms_N(table, config)
    x = np.asarray(x, dtype=np.float64)
    vals, remainder = _kernel_sum(_FORM_N, x, _ws(table), M)
    return vals, _N_truncation_bound(np.abs(x), M) + remainder


# ---------------------------------------------------------------------------
# power series of the kernel around 0
# ---------------------------------------------------------------------------

_series_coef_cache: dict[int, np.ndarray] = {}


def kernel_series_coefficients(order: int) -> np.ndarray:
    """Coefficients c_k = 2 (-1)^k pi^(-(2k+2)) zeta_beta(2k + 5/2), k <= order."""
    cached = _series_coef_cache.get(order)
    if cached is None:
        ks = np.arange(order + 1)
        cached = np.array([2.0 * (-1.0) ** k * math.pi ** (-(2 * k + 2))
                           * zeta_beta(2 * k + 2.5, DEFAULT_EVAL_CONFIG).real
                           for k in ks])
        _series_coef_cache[order] = cached
    return cached


def kernel_N_series(z: complex,
                    config: KernelConfig = DEFAULT_KERNEL_CONFIG) -> complex:
    """Power series 2 sum_k (-1)^k z^(2k+1) pi^(-(2k+2)) zeta_beta(2k+5/2).

    Raises:
        DomainError: outside the disc of convergence |z| < pi.
    """
    z = complex(z)
    if abs(z) >= math.pi:
        raise DomainError(f"kernel series requires |z| < pi, got |z|={abs(z)}")
    c = kernel_series_coefficients(config.series_order_K)
    w = z * z
    acc = 0.0 + 0.0j
    for k in range(len(c) - 1, -1, -1):
        acc = acc * w + c[k]
    return acc * z


# ---------------------------------------------------------------------------
# exponential kernel (half-shifted and plain forms)
# ---------------------------------------------------------------------------

def kernel_M_with_bound(z: complex, table: ArithTable,
                        config: KernelConfig | None = None,
                        form: str = "half-shifted") -> tuple[complex, float]:
    """Truncated exponential kernel and a summation-by-parts remainder bound.

    form="half-shifted": sum nu(2m+1) tanh(z/(2(2m+1)))/2, any z off poles.
    form="plain": S(2M+1) f(M+1) - sum_{m<=M} nu(2m+1) f(m) with
        f(m) = 1/(e^(z/(2m+1)) + 1); on real z >= 0 the sum stops early once
        the remainder bound drops below config.abel_tail_tol.
    Both bounds also carry the Taylor remainder of the moment tail.
    """
    if config is None:
        config = config_for_table(table)
    z = _check_pole(z, "kernel_M")
    ws = _ws(table)
    M = min(config.n_terms_M, ws.m_avail + 1)
    if form == "half-shifted":
        zs = np.array([z.real]) if z.imag == 0.0 else np.array([z])
        vals, remainder = _kernel_sum(_FORM_M, zs, ws, M)
        return complex(vals[0]), float(_abel_remainder_bound(z, M, ws) + remainder[0])
    if form == "plain":
        if z.imag == 0.0 and z.real >= 0.0:
            vals, bounds = _kernel_M_abel_real_array(np.array([z.real]), table, config)
            return float(vals[0]), float(bounds[0])
        acc, remainder = _plain_sum(np.array([z]), ws, M, np.array([M]))
        f_next = 1.0 / (cmath.exp(z / (2.0 * M + 1.0)) + 1.0)
        val = complex(ws.S_odd[M - 1] * f_next - acc[0])
        return val, float(_abel_remainder_bound(z, M, ws) + remainder[0])
    raise DomainError(f"unknown kernel_M form {form!r}")


def _abel_remainder_bound(z, M: int, ws: _Workspace):
    # |sum_{m>=M} nu g| <= sup_{m>=M}|S| * (|g(M)| + total variation of g);
    # g ~ z/(4(2m+1)) past the truncation point, variation comparable to |g|
    g_edge = np.abs(z) / (4.0 * (2.0 * M + 1.0))
    return ws.s_sup_beyond(M - 1) * 3.0 * g_edge


def _plain_stop(x: float, ws: _Workspace, M_cap: int,
                tol: float) -> tuple[int, float, float]:
    """Where the plain form at real x stops: the first chunk boundary whose
    remainder bound is below tol (else M_cap), that bound, and f there."""
    m_done = 0
    while m_done < M_cap:
        m_done = min(m_done + _CHUNK, M_cap)
        f_next = float(_fermi_real(np.array([x / (2.0 * m_done + 1.0)]))[0])
        # remainder bound after this chunk: monotone variation of f, which
        # tends to 1/2 from below for x > 0 and from above for x < 0
        bound = 2.0 * ws.s_sup_beyond(m_done - 1) * abs(0.5 - f_next)
        if bound < tol:
            break
    return m_done, bound, f_next


def kernel_M(z: complex, table: ArithTable,
             config: KernelConfig | None = None,
             form: str = "half-shifted") -> complex:
    """Exponential kernel M(z).

    Raises:
        TruncationBudgetError: when the table is exhausted before the
            remainder bound reaches config.abel_tail_tol (plain form on the
            real axis only; elsewhere the bound is informational).
    """
    if config is None:
        config = config_for_table(table)
    val, bound = kernel_M_with_bound(z, table, config, form)
    if form == "plain" and complex(z).imag == 0.0 and complex(z).real >= 0.0 \
            and bound > config.abel_tail_tol:
        raise TruncationBudgetError(
            f"kernel_M: table exhausted at remainder bound {bound:.3e} "
            f"(> {config.abel_tail_tol:.1e}) for x={complex(z).real}",
            achieved_bound=bound)
    return val


def _kernel_M_abel_real_array(x: np.ndarray, table: ArithTable,
                              config: KernelConfig) -> tuple[np.ndarray, np.ndarray]:
    """Plain-form kernel over a real grid; per-point early stopping."""
    ws = _ws(table)
    M_cap = min(config.n_terms_M, ws.m_avail + 1)
    x = np.asarray(x, dtype=np.float64)
    stops = np.empty(len(x), dtype=np.int64)
    bounds = np.empty(len(x))
    f_next = np.empty(len(x))
    for j, xj in enumerate(x):
        stops[j], bounds[j], f_next[j] = _plain_stop(float(xj), ws, M_cap,
                                                      config.abel_tail_tol)
    acc, remainder = _plain_sum(x, ws, M_cap, stops)
    return ws.S_odd[stops - 1] * f_next - acc, bounds + remainder


def _kernel_M_half_real_array(x: np.ndarray, table: ArithTable,
                              config: KernelConfig) -> tuple[np.ndarray, np.ndarray]:
    """Half-shifted kernel over a real grid."""
    ws = _ws(table)
    M = min(config.n_terms_M, ws.m_avail + 1)
    x = np.asarray(x, dtype=np.float64)
    vals, remainder = _kernel_sum(_FORM_M, x, ws, M)
    return vals, _abel_remainder_bound(x, M, ws) + remainder


def kernel_M_prime(x: float, table: ArithTable,
                   config: KernelConfig | None = None) -> float:
    """Termwise derivative sum_m nu(2m+1)/(2m+1) e^w/(e^w+1)^2, w = x/(2m+1).

    Absolutely convergent; each head term is evaluated in the overflow-safe
    form e^(-w)/(1+e^(-w))^2, the tail from the sech^2 power series.
    """
    if config is None:
        config = config_for_table(table)
    if x < 0.0:
        raise DomainError(f"kernel_M_prime requires x >= 0, got {x}")
    ws = _ws(table)
    M = min(config.n_terms_M, ws.m_avail + 1)
    vals, remainder = _kernel_sum(_FORM_M_PRIME, np.array([float(x)]), ws, M)
    # remainder via summation by parts on phi(m) = sig/(2m+1)
    phi_edge = 0.25 / (2.0 * M + 1.0)
    bound = 3.0 * ws.s_sup_beyond(M - 1) * phi_edge + float(remainder[0])
    if bound > config.abel_tail_tol:
        raise TruncationBudgetError(
            f"kernel_M_prime: remainder bound {bound:.3e} above tolerance",
            achieved_bound=bound)
    return float(vals[0])


# ---------------------------------------------------------------------------
# numerical residues
# ---------------------------------------------------------------------------

def residue_estimate(kernel: str, l: int, table: ArithTable,
                     config: KernelConfig | None = None) -> complex:
    """Residue of N or M at the pole i*pi*(2l+1) by Richardson extrapolation.

    Protocol: approach along the real direction with radii 2^-j, 4 <= j <= 20,
    f_j = r_j * kernel(pole + r_j); two Richardson stages cancel the linear
    and quadratic Taylor terms of (z - pole) * kernel(z).

    Raises:
        EstimationFailureError: if the extrapolated sequence has not settled.
    """
    if config is None:
        config = config_for_table(table)
    if kernel not in ("N", "M"):
        raise DomainError(f"kernel must be 'N' or 'M', got {kernel!r}")
    if l < 0:
        raise DomainError("pole index l must be >= 0")
    pole = 1j * math.pi * (2 * l + 1)
    fs = []
    for j in range(4, 21):
        r = 2.0 ** (-j)
        zj = pole + r
        if kernel == "N":
            fs.append(r * kernel_N(zj, table, config))
        else:
            fs.append(r * kernel_M(zj, table, config, form="half-shifted"))
    f = np.array(fs)
    r1 = 2.0 * f[1:] - f[:-1]
    r2 = (4.0 * r1[1:] - r1[:-1]) / 3.0
    if abs(r2[-1] - r2[-2]) > 1e-5 * max(1.0, abs(r2[-1])):
        raise EstimationFailureError(
            f"residue extrapolation did not settle for kernel {kernel}, l={l}",
            sequence=r2.tolist())
    return complex(r2[-1])
