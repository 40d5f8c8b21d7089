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

Each is evaluated in up to three zones over m.  The head sums the terms
directly up to b, the first breakpoint with 2b+1 >= 2|z|; the breakpoints
are the powers of two, the chunk multiples where the plain form may stop
early, and the truncation end.  On the tail past b, |z/n| <= 1/2, so phi is
replaced by _TAYLOR_TERMS terms of its power series and the tail becomes
sum_k a_k z^p_k sum_{b<=m<end} w_m n^-p_k.  Those inner sums, the power
moments, are computed once per table and weight array and cached on the
table's workspace.  tanh(u/2)/2 = sum_k c_k u^(2k+1) has |c_k| <= pi^-2k/4
(c_k from the recurrence tanh' = 1 - tanh^2), as have N's coefficients, so
the discarded series is below

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
half a difference of partial sums minus the half-shifted moment tail.  On
the real axis only the first _PLAIN_PREFIX head terms are summed directly:
the rest of the head is cut into blocks, three geometric ones per octave of
m, split further at every breakpoint so that each head ends on a block
edge.  On a block 1/n = w0 + delta tau with tau in [-1, 1], so
f(x/n) = sum_k b_k tau^k around u0 = x w0, with b_k from the Riccati
equation f' = f^2 - f, and the block sums to sum_k b_k mu_k with the cached
block moments mu_k = sum_B nu_n tau_n^k.  The poles of f lie on the
imaginary axis, so |f| <= 1/(1 - e^(-|u0|/2)) on the disc |u - u0| <= |u0|/2,
and Cauchy's estimate bounds the discarded terms k >= _BLOCK_TERMS by

    1/(1 - e^(-|u0|/2)) * rho^K / (1 - rho) * sum_B |nu_n|,  rho = 2 delta/w0,

with rho < 0.231, so rho^K/(1 - rho) < 1.8e-18; the returned bound includes
it.  Complex arguments keep the direct head, since a pole may fall inside a
block's disc there.

The sup factor uses the table's suffix envelope inside the sieve range and
a frozen empirical constant beyond it, so these bounds are honest but not
purely analytic; reports downstream flag them as such.

Each evaluator (kernel_N_with_bound, kernel_M_with_bound in either form,
kernel_M_prime) takes a scalar or a 1-d array: a scalar gets scalars back,
an array gets arrays.  The input dtype picks the path.  Real input (a
scalar with Im z == 0 counts as real) runs without pole checks, since the
poles lie off the axis; N's tail bound there needs no inflation, as
|x^2 + pi^2 n^2| >= pi^2 n^2, and the plain form stops early at x of
either sign.  Complex input is checked point by point for poles, N's bound
is inflated by 1/(1 - (|z|/(pi(2M+1)))^2), and the plain form sums all M
terms.
"""

from __future__ import annotations

import cmath
import functools
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
_PLAIN_PREFIX = 32   # real plain-form head terms summed directly
_BLOCK_TERMS = 28    # Taylor terms of f per block of the real plain head
_BLOCKS_PER_OCTAVE = 3
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


class _PlainBlocks:
    """Taylor moments of nu over the blocks of the real plain-form head.

    The blocks tile [_PLAIN_PREFIX, end): _BLOCKS_PER_OCTAVE geometric
    blocks per octave of m, split at every moment breakpoint.  On block B,
    1/n = w0 + delta tau with tau in [-1, 1], and

        mu[B, k]   = sum_B nu_m tau_m^k,  k < _BLOCK_TERMS,
        abs_sum[B] = sum_B |nu_m|,

    computed for the blocks a call reaches and kept for later calls.
    """

    def __init__(self, breaks: np.ndarray, end: int):
        geometric = {round((1 << j) * 2.0 ** (i / _BLOCKS_PER_OCTAVE))
                     for j in range(_PLAIN_PREFIX.bit_length() - 1, end.bit_length())
                     for i in range(_BLOCKS_PER_OCTAVE)}
        edges = {e for e in geometric if _PLAIN_PREFIX <= e < end}
        self.edges = np.array(sorted(edges | {int(b) for b in breaks if b >= _PLAIN_PREFIX}),
                              dtype=np.int64)
        inv_first = 1.0 / (2.0 * self.edges[:-1] + 1.0)
        inv_last = 1.0 / (2.0 * self.edges[1:] - 1.0)
        self.w0 = 0.5 * (inv_first + inv_last)
        self.delta = 0.5 * (inv_first - inv_last)
        rho = 2.0 * self.delta / self.w0  # Taylor radius over the Cauchy radius |u0|/2
        self.cauchy = rho ** _BLOCK_TERMS / (1.0 - rho)
        self.mu = np.zeros((0, _BLOCK_TERMS))
        self.abs_sum = np.zeros(0)

    def _extend(self, count: int, n_odd: np.ndarray, nu: np.ndarray) -> None:
        done = len(self.abs_sum)
        if count <= done:
            return
        mu = np.zeros((count - done, _BLOCK_TERMS))
        abs_sum = np.zeros(count - done)
        for j, B in enumerate(range(done, count)):
            lo, hi = int(self.edges[B]), int(self.edges[B + 1])
            tau = (1.0 / n_odd[lo:hi] - self.w0[B]) / self.delta[B] if hi - lo > 1 else 0.0
            term = nu[lo:hi].copy()
            for k in range(_BLOCK_TERMS):
                mu[j, k] = term.sum()
                term *= tau
            abs_sum[j] = np.abs(nu[lo:hi]).sum()
        self.mu = np.vstack([self.mu, mu])
        self.abs_sum = np.concatenate([self.abs_sum, abs_sum])

    def head(self, x: np.ndarray, heads: np.ndarray,
             ws: _Workspace) -> tuple[np.ndarray, np.ndarray]:
        """sum_{_PLAIN_PREFIX <= m < heads[j]} nu_m f(x_j/n_m) per point, and
        the bound on the discarded Taylor terms; each head is a block edge."""
        count = np.searchsorted(self.edges, heads)
        self._extend(int(count.max(initial=0)), ws.n_odd, ws.nu_odd)
        vals = np.zeros(len(x))
        bounds = np.zeros(len(x))
        rows = max(1, _BLOCK // (_BLOCK_TERMS * max(1, len(self.abs_sum))))
        for a in range(0, len(x), rows):
            c = count[a:a + rows]
            node = np.repeat(np.arange(a, a + len(c)), c)
            block = np.arange(len(node)) - np.repeat(np.cumsum(c) - c, c)
            u0 = x[node] * self.w0[block]
            step = x[node] * self.delta[block]
            # scaled Taylor coefficients b_k = f^(k)(u0) step^k / k! from
            # f' = f^2 - f: (k+1) b_(k+1) = step (sum_i b_i b_(k-i) - b_k)
            b = np.empty((_BLOCK_TERMS, len(node)))
            b[0] = _fermi_real(u0)
            for k in range(_BLOCK_TERMS - 1):
                b[k + 1] = step * (np.einsum("ip,ip->p", b[:k + 1], b[k::-1]) - b[k]) / (k + 1)
            sums = np.einsum("kp,pk->p", b, self.mu[block])
            sup_f = -1.0 / np.expm1(-0.5 * np.abs(u0))
            vals[a:a + len(c)] = np.bincount(node - a, sums, len(c))
            bounds[a:a + len(c)] = np.bincount(
                node - a, sup_f * self.cauchy[block] * self.abs_sum[block], len(c))
        return vals, bounds


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
        self._plain_blocks: dict[int, _PlainBlocks] = {}

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

    def plain_blocks(self, end: int) -> _PlainBlocks:
        """Block moments of the real plain-form head for the series truncated at `end`."""
        blocks = self._plain_blocks.get(end)
        if blocks is None:
            blocks = _PlainBlocks(self.moments(_FORM_M, end).breaks, end)
            self._plain_blocks[end] = blocks
        return blocks


def _ws(table: ArithTable) -> _Workspace:
    ws = table.__dict__.get("_kernel_ws")
    if ws is None:
        ws = _Workspace(table)
        table.__dict__["_kernel_ws"] = ws
    return ws


def _points(z, what: str) -> tuple[np.ndarray, bool]:
    """z as a 1-d float array (real input) or a pole-checked complex array,
    and whether z was a scalar."""
    zs = np.asarray(z)
    scalar = zs.ndim == 0
    if scalar and zs.imag == 0.0:
        zs = zs.real
    if not np.iscomplexobj(zs):
        return np.atleast_1d(zs).astype(np.float64), scalar
    for zj in np.atleast_1d(zs):
        _check_pole(zj, what)
    return np.atleast_1d(zs).astype(np.complex128), scalar


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
    n << Re z: summed directly for complex z, and on the real axis directly
    for m < _PLAIN_PREFIX and from block moments beyond.  Past the head,
    1/(e^u + 1) = 1/2 - tanh(u/2)/2 turns the rest into half a difference of
    partial sums S minus the half-shifted tail between the head and the stop.
    """
    mom = ws.moments(_FORM_M, end)
    i = mom.index(z)
    heads = np.minimum(mom.breaks[i], stops)
    tail_head, remainder = mom.tail(_FORM_M, z, i)
    tail_stop, _ = mom.tail(_FORM_M, z, np.searchsorted(mom.breaks, stops))
    s_head = np.where(heads > 0, ws.S_odd[heads - 1], 0.0)
    rest = 0.5 * (ws.S_odd[stops - 1] - s_head) - (tail_head - tail_stop)
    has_rest = heads < stops
    remainder = np.where(has_rest, remainder, 0.0)
    if np.iscomplexobj(z):
        vals = _head_sum(_head_plain, z, heads, ws.nu_odd, ws.n_odd)
    else:
        vals = _head_sum(_head_plain, z, np.minimum(heads, _PLAIN_PREFIX), ws.nu_odd, ws.n_odd)
        blocks, block_bound = ws.plain_blocks(end).head(z, heads, ws)
        vals = vals + blocks
        remainder = remainder + block_bound
    return vals + np.where(has_rest, rest, 0.0), remainder


# ---------------------------------------------------------------------------
# partial-fraction kernel
# ---------------------------------------------------------------------------

def kernel_N_with_bound(z, table: ArithTable, config: KernelConfig | None = None):
    """Truncated partial-fraction kernel and its analytic tail bound.

    The tail uses |beta(2m+1)|/sqrt(2m+1) <= 1:
        |tail| <= |2z| sum_{m>M} 1/|z^2 + pi^2 (2m+1)^2|,
    with |z^2 + pi^2 n^2| >= pi^2 n^2 (1 - (|z|/(pi(2M+1)))^2) past the
    truncation off the axis; the bound also carries the Taylor remainder of
    the tail.  A scalar z gives (complex, float), an array z two arrays.

    With config=None the truncation is sized to the table; an explicit
    config must satisfy table limit >= 2*n_terms_N + 1.

    Raises:
        TruncationBudgetError: complex |z| > 0.866 pi (2M+1), where the first
            omitted poles are too close for the tail bound.
    """
    if config is None:
        config = config_for_table(table)
    zs, scalar = _points(z, "kernel_N")
    ws, M = _ws(table), config.n_terms_N
    if ws.m_avail + 1 < M:
        raise InvalidArgumentError(
            f"table limit {table.limit} supports {ws.m_avail + 1} partial-fraction "
            f"terms, config requests {M} (need limit >= 2*n_terms_N+1)")
    zabs = np.abs(zs)
    # |beta(n)|/sqrt(n) <= 1, and sum_{m>=M} (2m+1)^-2 <= 1/(4M) by midpoint
    # convexity, so on the real axis |tail| <= 2|x|/(4 M pi^2)
    bound = zabs / (2.0 * math.pi ** 2 * M)
    if np.iscomplexobj(zs):
        shrink = (zabs / (math.pi * (2.0 * M + 1.0))) ** 2
        if shrink.max() > 0.75:
            raise TruncationBudgetError(
                f"kernel_N: |z|={zabs.max():.6g} is within a factor 0.866 of the "
                f"first omitted pole pi*{2 * M + 1}", achieved_bound=math.inf)
        bound = bound / (1.0 - shrink)
    vals, remainder = _kernel_sum(_FORM_N, zs, ws, M)
    bound = bound + remainder
    return (complex(vals[0]), float(bound[0])) if scalar else (vals, bound)


def kernel_N(z, table: ArithTable, config: KernelConfig | None = None):
    """Partial-fraction kernel N(z); odd in z, N(0) = 0."""
    return kernel_N_with_bound(z, table, config)[0]


# ---------------------------------------------------------------------------
# power series of the kernel around 0
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def kernel_series_coefficients(order: int) -> np.ndarray:
    """Coefficients c_k = 2 (-1)^k pi^(-(2k+2)) zeta_beta(2k + 5/2), k <= order."""
    return np.array([2.0 * (-1.0) ** k * math.pi ** (-(2 * k + 2))
                     * zeta_beta(2 * k + 2.5, DEFAULT_EVAL_CONFIG).real
                     for k in np.arange(order + 1)])


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

def kernel_M_with_bound(z, table: ArithTable, config: KernelConfig | None = None,
                        form: str = "half-shifted"):
    """Truncated exponential kernel and a summation-by-parts remainder bound.

    form="half-shifted": sum nu(2m+1) tanh(z/(2(2m+1)))/2, any z off poles.
    form="plain": S(2M+1) f(M+1) - sum_{m<=M} nu(2m+1) f(m) with
        f(m) = 1/(e^(z/(2m+1)) + 1); on the real axis the sum stops early once
        the remainder bound drops below config.abel_tail_tol.
    Both bounds also carry the Taylor remainder of the moment tail.  A scalar
    z gives (value, float), the value real for the plain form on the real
    axis and complex otherwise; an array z gives two arrays.
    """
    if config is None:
        config = config_for_table(table)
    zs, scalar = _points(z, "kernel_M")
    ws = _ws(table)
    M = min(config.n_terms_M, ws.m_avail + 1)
    if form == "half-shifted":
        vals, remainder = _kernel_sum(_FORM_M, zs, ws, M)
        bound = _abel_remainder_bound(zs, M, ws) + remainder
    elif form == "plain":
        if np.iscomplexobj(zs):
            stops = np.full(len(zs), M)
            abel = _abel_remainder_bound(zs, M, ws)
            f_next = _head_plain(zs, 2.0 * M + 1.0)
        else:
            stops, abel, f_next = _plain_stops(zs, ws, M, config.abel_tail_tol)
        acc, remainder = _plain_sum(zs, ws, M, stops)
        vals = ws.S_odd[stops - 1] * f_next - acc
        bound = abel + remainder
    else:
        raise DomainError(f"unknown kernel_M form {form!r}")
    if not scalar:
        return vals, bound
    value = float(vals[0]) if form == "plain" and not np.iscomplexobj(vals) else complex(vals[0])
    return value, float(bound[0])


def _abel_remainder_bound(z, M: int, ws: _Workspace):
    # |sum_{m>=M} nu g| <= sup_{m>=M}|S| * (|g(M)| + total variation of g);
    # g ~ z/(4(2m+1)) past the truncation point, variation comparable to |g|
    g_edge = np.abs(z) / (4.0 * (2.0 * M + 1.0))
    return ws.s_sup_beyond(M - 1) * 3.0 * g_edge


def _plain_stops(x: np.ndarray, ws: _Workspace, M_cap: int,
                 tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where the plain form at each real x stops: the first chunk boundary
    whose remainder bound is below tol (else M_cap), that bound, and f there."""
    cuts = np.minimum(_CHUNK * np.arange(1, -(-M_cap // _CHUNK) + 1), M_cap)
    f_next = _fermi_real(x[:, None] / (2.0 * cuts + 1.0))
    # remainder bound after each chunk: monotone variation of f, which
    # tends to 1/2 from below for x > 0 and from above for x < 0
    sup = np.array([ws.s_sup_beyond(int(c) - 1) for c in cuts])
    bound = 2.0 * sup * np.abs(0.5 - f_next)
    below = bound < tol
    first = np.where(below.any(axis=1), below.argmax(axis=1), len(cuts) - 1)
    rows = np.arange(len(x))
    return cuts[first], bound[rows, first], f_next[rows, first]


def kernel_M(z, table: ArithTable, config: KernelConfig | None = None,
             form: str = "half-shifted"):
    """Exponential kernel M(z).

    Raises:
        TruncationBudgetError: when the table is exhausted before the
            remainder bound reaches config.abel_tail_tol (plain form on the
            real axis only; elsewhere the bound is informational).
    """
    if config is None:
        config = config_for_table(table)
    val, bound = kernel_M_with_bound(z, table, config, form)
    worst = float(np.max(bound))
    # the plain form returns real values exactly when it ran on the real axis
    if form == "plain" and not np.iscomplexobj(val) and worst > config.abel_tail_tol:
        x = float(np.atleast_1d(z).real[np.argmax(bound)])
        raise TruncationBudgetError(
            f"kernel_M: table exhausted at remainder bound {worst:.3e} "
            f"(> {config.abel_tail_tol:.1e}) for x={x}", achieved_bound=worst)
    return val


def kernel_M_prime(x, table: ArithTable, config: KernelConfig | None = None):
    """Termwise derivative sum_m nu(2m+1)/(2m+1) e^w/(e^w+1)^2, w = x/(2m+1).

    Absolutely convergent; each head term is evaluated in the overflow-safe
    form e^(-w)/(1+e^(-w))^2, the tail from the sech^2 power series.  A
    scalar x gives a float, an array x an array.
    """
    if config is None:
        config = config_for_table(table)
    xs = np.asarray(x, dtype=np.float64)
    if (xs < 0.0).any():
        raise DomainError(f"kernel_M_prime requires x >= 0, got {xs.min()}")
    ws = _ws(table)
    M = min(config.n_terms_M, ws.m_avail + 1)
    vals, remainder = _kernel_sum(_FORM_M_PRIME, np.atleast_1d(xs), ws, M)
    # remainder via summation by parts on phi(m) = sig/(2m+1)
    phi_edge = 0.25 / (2.0 * M + 1.0)
    bound = float(np.max(3.0 * ws.s_sup_beyond(M - 1) * phi_edge + remainder))
    if bound > config.abel_tail_tol:
        raise TruncationBudgetError(
            f"kernel_M_prime: remainder bound {bound:.3e} above tolerance",
            achieved_bound=bound)
    return float(vals[0]) if xs.ndim == 0 else vals


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
    if kernel not in ("N", "M"):
        raise DomainError(f"kernel must be 'N' or 'M', got {kernel!r}")
    if l < 0:
        raise DomainError("pole index l must be >= 0")
    pole = 1j * math.pi * (2 * l + 1)
    r = 2.0 ** -np.arange(4, 21)
    f = r * (kernel_N if kernel == "N" else kernel_M)(pole + r, table, config)
    r1 = 2.0 * f[1:] - f[:-1]
    r2 = (4.0 * r1[1:] - r1[:-1]) / 3.0
    if abs(r2[-1] - r2[-2]) > 1e-5 * max(1.0, abs(r2[-1])):
        raise EstimationFailureError(
            f"residue extrapolation did not settle for kernel {kernel}, l={l}",
            sequence=r2.tolist())
    return complex(r2[-1])
