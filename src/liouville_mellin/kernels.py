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

Each is truncated at the table's kernel depth (arith.kernel_depth), and
evaluated in two zones over m.  The table's one workspace (_Workspace)
holds the depth, sup |S| past the depth, and per weight array the moments
and head blocks below.  The head sums the
terms directly up to b, the first breakpoint with 2b+1 >= 2|z|; the
breakpoints are the powers of two and the depth.  On the tail past b,
|z/n| <= 1/2, so phi is replaced by TAYLOR_TERMS terms of its power series
and the tail becomes sum_k a_k z^p_k sum_{b<=m<depth} w_m n^-p_k.  Those
inner sums, the power moments, are pairwise sums (arith.sum_tail_moments)
that the table holds: the cache file stores them, and a table sieved in
memory sums them once, on first use.  tanh(u/2)/2 = sum_k c_k
u^(2k+1) has |c_k| <= pi^-2k/4 (c_k from the recurrence tanh' = 1 -
tanh^2), as have N's coefficients, so the discarded series is below

    (|u|/4) (|u|/pi)^(2K) / (1 - (|u|/pi)^2) * sum_tail |w_n|,  u = z/(2b+1),

about 1e-22; every returned bound includes it (M' uses the same bound with
the extra factor 2k+1).  The truncation itself is unchanged: the same number
of terms and the same remainder bounds as a direct sum.

The plain variant converges only because the nu series sums to zero.  For
the same truncation it is the half-shifted sum plus one boundary term,

    plain = half-shifted - S(2M-1) tanh(z/(2(2M+1)))/2,

with S the cached partial sums of nu; summation by parts bounds its
remainder by sup_{m>=M} |S(2m+1)| times the variation of the kernel beyond M.
On the real axis every head (N, M, M') past its first _HEAD_PREFIX terms is
interpolated per block (_HeadBlocks), so a node costs O(log |x|); complex
arguments keep the direct head, as a pole may lie inside a block's ellipse.

The sup factor (s_sup_past, as in verify's bounds.dirichlet-nu-s1) is the
largest |S| past the depth, floored by the frozen S_TAIL_BEYOND_TABLE past
the table.  That cap is empirical and understates sup|S| past tables below
about 1e6 (1.05e-3 past 200,001), so at such a table's full depth these
bounds are not bounds: the half-shifted values of a 10,001 table differ from
a 100,001 table's by 3.0 times the sum of both printed bounds, where the
same truncation inside the 100,001 table, which holds the sup, differs by
0.31 times.

Each evaluator (kernel_N_with_bound, kernel_M_with_bound in either form,
kernel_M_prime) takes a scalar or a 1-d array, possibly empty, and gives
scalars or arrays back.  Every entry point takes its argument through one
gate (_points), which rejects nan, inf and more than one dimension.  Real input
(a scalar with Im z == 0 counts as real) needs no pole check and N's tail bound
no inflation, as |x^2 + pi^2 n^2| >= pi^2 n^2; the plain form's bound uses the
monotone variation of tanh.  Complex input is screened for poles as one array,
N's bound is inflated by 1/(1 - (|z|/(pi(2M+1)))^2), and kernel_M_prime rejects it.

residue_estimate is the trapezoid rule for Cauchy's integral: the mean of
(z - p) K(z) over 32 points of |z - p| = pi/2.  The next poles are 2 pi away,
so its aliasing error (bounded in its docstring) is far below rounding.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
import threading
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .arith import (MOMENT_EXPONENTS, SCAN, TAYLOR_TERMS, ArithTable, abs_max, kernel_depth,
                    moment_breaks, odd, pairwise_sum, partial_sums, sum_tail_moments,
                    weight_readers)
from .errors import (DomainError, InvalidArgumentError, PoleError, RangeError,
                     TruncationBudgetError)
from .special import POLE_TOL
from .zeta_family import zeta_beta

__all__ = ["KernelConfig", "config_for_table", "fermi", "fermi_deficit",
           "kernel_N", "kernel_N_series", "kernel_M", "kernel_M_prime",
           "residue_estimate", "kernel_N_with_bound", "kernel_M_with_bound",
           "fermi_series", "kernel_series_with_bound", "s_sup_past", "SERIES_ORDER_K"]

# floor for sup |S(n)| past the table, empirical; frozen from a sieve run to
# 2e6 where the suffix envelope had decayed to 1.2e-4 (last-octave max
# 5.34e-4), decreasing steadily over every octave past 2^14.  Past tables
# below about 1e6 the true sup is larger (see the module docstring).
S_TAIL_BEYOND_TABLE = 5.4e-4

# order of kernel_N_series; its coefficients fall below double precision at
# |z| <= 1 well before this
SERIES_ORDER_K = 30

# the largest remainder bound kernel_M (plain form, real axis) and
# kernel_M_prime accept
ABEL_TAIL_TOL = 5e-8


@dataclass(frozen=True)
class KernelConfig:
    """Truncation depths and tolerance of the kernel sums over one table.

    n_terms_N: number of partial-fraction terms (index m runs to this).
    n_terms_M: number of exponential-kernel terms.
    abel_tail_tol: the largest remainder bound kernel_M (plain form, real
        axis) and kernel_M_prime accept; above it they raise
        TruncationBudgetError.
    """

    n_terms_N: int
    n_terms_M: int
    abel_tail_tol: float


def config_for_table(table: ArithTable) -> KernelConfig:
    """The kernel sums' depths and tolerance over table, as the run manifest
    records them: kernel_depth(limit) terms for both sums, ABEL_TAIL_TOL."""
    depth = kernel_depth(table.limit)
    return KernelConfig(n_terms_N=depth, n_terms_M=depth, abel_tail_tol=ABEL_TAIL_TOL)


# ---------------------------------------------------------------------------
# the point gate and the Fermi-type kernel 1/(e^z + 1)
# ---------------------------------------------------------------------------

def _pole_search(zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per point, l of the nearest pole i*pi*(2l+1) (the lower on a tie) and its distance."""
    l = np.floor((zs.imag / math.pi - 1.0) / 2.0)
    dist = [np.hypot(zs.real, zs.imag - math.pi * (2.0 * k + 1.0)) for k in (l, l + 1.0)]
    return l + (dist[1] < dist[0]), np.minimum(*dist)


def _points(z, what: str) -> tuple[np.ndarray, bool]:
    """The one gate of every kernel entry point: z as a 1-d float array (real input) or a
    complex array off the poles, and whether z was a scalar.  Raises InvalidArgumentError
    past one dimension or at the first nan or inf, then PoleError within POLE_TOL of a pole."""
    zs = np.asarray(z)
    if zs.ndim > 1:
        raise InvalidArgumentError(f"{what}: argument must be 0- or 1-d, got shape {zs.shape}")
    bad = zs[~np.isfinite(zs)]
    if bad.size:
        raise InvalidArgumentError(f"{what}: argument must be finite, got {bad[0]}")
    scalar = zs.ndim == 0
    zs = np.atleast_1d(zs.real if scalar and zs.imag == 0.0 else zs)
    if not np.iscomplexobj(zs):
        return zs.astype(np.float64), scalar
    zs = zs.astype(np.complex128)
    l, dist = _pole_search(zs)
    hit = np.flatnonzero(dist < POLE_TOL)
    if hit.size:
        j, index = hit[0], int(l[hit[0]])
        pole = 1j * math.pi * (2 * index + 1)
        raise PoleError(f"{what}: z={complex(zs[j])} is within {POLE_TOL} of pole {pole}",
                        location=pole, index=index)
    return zs, scalar


def fermi(z: complex) -> complex:
    """1/(e^z + 1), overflow-safe on the whole plane.

    Raises:
        PoleError: within 1e-12 of a pole i*pi*(2k+1).
    """
    z = complex(z)
    _points(z, "fermi")
    if z.real > 30.0:
        w = cmath.exp(-z)
        return w / (1.0 + w)
    return 1.0 / (cmath.exp(z) + 1.0)


def fermi_deficit(z: complex) -> complex:
    """1/2 - 1/(e^z + 1) = tanh(z/2)/2, exact relative accuracy near 0."""
    z = complex(z)
    _points(z, "fermi_deficit")
    return 0.5 * cmath.tanh(0.5 * z)


# ---------------------------------------------------------------------------
# kernel forms and their power series on the tail
# ---------------------------------------------------------------------------

_HEAD_PREFIX = 32    # real head terms summed directly, before the blocks
_CHEB = 20           # Chebyshev points per block of a real head
_BLOCKS_PER_OCTAVE = 3
_K2 = np.array([2.0 * k for k in range(TAYLOR_TERMS)])
# first-kind points tau_j = cos(theta_j); S[k, j] = (2 - [k=0])/K T_k(tau_j)
_THETA = [(j + 0.5) * math.pi / _CHEB for j in range(_CHEB)]
_TAU = np.array([math.cos(t) for t in _THETA])
_CHEB_S = np.array([[(2 - (k == 0)) / _CHEB * math.cos(k * t) for t in _THETA]
                    for k in range(_CHEB)])


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

    w_m = v_m n_m^-q, where v is the workspace's weights[`weights`], and
    phi(u) = sum_k coef[k] u^(p0+2k) for |u| < pi.  head(z, n) * outer(z)
    is phi(z/n) n^-q, outer applied once per head sum; majorant(u0, w0)
    bounds it on a head block (_HeadBlocks).
    """

    weights: str
    q: int
    p0: int
    coef: np.ndarray
    head: Callable[[np.ndarray, np.ndarray], np.ndarray]
    majorant: Callable[[np.ndarray, np.ndarray], np.ndarray]
    outer: Callable[[np.ndarray], np.ndarray] = lambda z: 1.0

    def remainder(self, r: np.ndarray) -> np.ndarray:
        """Bound on |phi(u) - first TAYLOR_TERMS series terms| for |u| <= r < pi.

        The odd forms have |coef[k]| <= pi^-2k / 4 (tanh: c_k =
        2 (-1)^k pi^-(2k+2) lambda(2k+2) with lambda(2k+2) <= pi^2/8; N:
        2 pi^-(2k+2) <= pi^-2k / 4); M' has (2k+1) times the tanh bound.
        """
        x = (r / math.pi) ** 2
        geometric = x ** TAYLOR_TERMS / (1.0 - x)
        if self.p0:
            return 0.25 * r * geometric
        return 0.25 * geometric * (2 * TAYLOR_TERMS + 1 + 2.0 * x / (1.0 - x))


def _head_N(z: np.ndarray, n: np.ndarray) -> np.ndarray:
    # scaled by 2z once after summation, not per term: scaling per term would
    # round differently and change N's values, and every report, in the last bits
    return 1.0 / (z * z + (math.pi * n) ** 2)


def _head_M(z: np.ndarray, n: np.ndarray) -> np.ndarray:
    return 0.5 * np.tanh(z / (2.0 * n))


def _head_M_prime(x: np.ndarray, n: np.ndarray) -> np.ndarray:
    e = np.exp(-x / n)  # x >= 0: the overflow-safe side of e^w/(e^w+1)^2
    return e / (1.0 + e) ** 2 / n


_TANH = _tanh_coefficients(TAYLOR_TERMS)
# N: w = beta/n^(3/2), phi(u) = 2u/(u^2 + pi^2) = sum_k 2 (-1)^k pi^-(2k+2) u^(2k+1)
_FORM_N = _Form("beta", 1, 1, np.array([2.0 * (-1.0) ** k * math.pi ** -(2 * k + 2)
                                          for k in range(TAYLOR_TERMS)]),
                _head_N, lambda u0, w0: 18.0 * w0 / np.abs(u0), lambda z: 2.0 * z)
# half-shifted M: w = nu, phi(u) = tanh(u/2)/2
_FORM_M = _Form("nu", 0, 1, _TANH, _head_M, lambda u0, w0: 0.5 / np.tanh(0.25 * np.abs(u0)))
# M': w = nu/n, phi(u) = sech^2(u/2)/4 = sum_k (2k+1) c_k u^(2k)
_FORM_M_PRIME = _Form("nu", 1, 0, np.array([(2 * k + 1) * c for k, c in enumerate(_TANH)]),
                      _head_M_prime,
                      lambda u0, w0: 0.375 * w0 * (1.0 + np.tanh(0.25 * np.abs(u0)) ** -2))


# ---------------------------------------------------------------------------
# per-table workspace
# ---------------------------------------------------------------------------

class _Moments:
    """Suffix power moments of one weight array at fixed breakpoints, read
    from the table (ArithTable.tail_moments).

    A breakpoint b is a term index; its tail is b <= m < end and starts at
    n_b = 2b + 1.  The breakpoints are 0, the powers of two and end.
    Per breakpoint,

        scaled[i, k] = sum_tail v_m (n_b / n_m)^(e0 + 2k),
        abs_sum[i]   = sum_tail |v_m|,

    with e0 = q + p0 of the forms over the array (arith.MOMENT_EXPONENTS).
    """

    def __init__(self, sums: np.ndarray, end: int):
        self.breaks = moment_breaks(end)
        self.n_break = 2.0 * self.breaks + 1.0
        self.scaled, self.abs_sum = sums[:, :-1], sums[:, -1]

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
        for k in range(TAYLOR_TERMS - 2, -1, -1):
            acc = acc * u2 + form.coef[k] * moments[:, k]
        if form.p0:
            acc = acc * u
        scale = nb ** -form.q
        return acc * scale, form.remainder(np.abs(u)) * self.abs_sum[i] * scale


class _HeadBlocks:
    """Chebyshev weights of one weight array v over the blocks of a real head.

    The blocks tile [_HEAD_PREFIX, end), _BLOCKS_PER_OCTAVE geometric ones
    per octave of m, with an edge at every power of two and at end, so each
    head, which ends on a moment breakpoint, ends on a block edge.  On block
    B, 1/n = w0 + delta tau with tau in [-1, 1].  The block's term f(tau)
    (head, times outer) interpolated at the _CHEB points tau_j sums to
    sum_j W[B, j] f(tau_j), W[B] = C[B] S with C[B, k] = sum_B v_m T_k(tau_m);
    W and abs_sum[B] = sum_B |v_m| are built for the blocks a call reaches,
    each leaf of their pairwise sums holding one row at a time (_rows).

    On the Bernstein ellipse in tau with real semi-axis w0/(2 delta),
    u = x/n keeps |Re u| >= |u0|/2 and |u| <= 1.5|u0| (u0 = x w0), and
    1/|n| <= 1.5 w0.  There form.majorant bounds |f|, as every pole lies on
    the imaginary axis: coth(|u0|/4)/2 for M, since |tanh w| <= coth|Re w|;
    1.5 w0 (1 + coth^2(|u0|/4))/4 for M', from g' = 1/4 - g^2; 18 w0/|u0|
    for N, since |u -/+ i pi| >= |Re u|.  With first-kind aliasing a block's
    error is below 4 q^K/(1 - q) < 1.1e-18 times the majorant and abs_sum[B],
    q = r/(1 + sqrt(1 - r^2)) with r = 2 delta/w0 < 0.231 (Trefethen,
    Approximation Theory and Approximation Practice, Thms 8.1-8.2).
    """

    def __init__(self, end: int, read: Callable[[int, int], np.ndarray]):
        self.read = read
        geometric = {round((1 << j) * 2.0 ** (i / _BLOCKS_PER_OCTAVE))
                     for j in range(_HEAD_PREFIX.bit_length() - 1, end.bit_length())
                     for i in range(_BLOCKS_PER_OCTAVE)}
        edges = sorted(e for e in geometric | {end} if _HEAD_PREFIX <= e <= end)
        self.edges = np.array(edges, dtype=np.int64)
        inv_first = 1.0 / (2.0 * self.edges[:-1] + 1.0)
        inv_last = 1.0 / (2.0 * self.edges[1:] - 1.0)
        self.w0 = 0.5 * (inv_first + inv_last)
        self.delta = 0.5 * (inv_first - inv_last)
        r = 2.0 * self.delta / self.w0
        q = r / (1.0 + np.sqrt(1.0 - r * r))  # 1/rho of the ellipse
        self.alias = 4.0 * q ** _CHEB / (1.0 - q)
        self.W = np.zeros((0, _CHEB))
        self.abs_sum = np.zeros(0)
        self._lock = threading.Lock()

    def _extend(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """W and abs_sum over at least the first count blocks.  They grow
        under the lock and are replaced, never written, so the pair returned
        stays whole while another thread extends them."""
        with self._lock:
            done = len(self.abs_sum)
            if count > done:
                e = self.edges.tolist()
                sums = np.array([pairwise_sum(functools.partial(self._rows, B), e[B],
                                              e[B + 1] - e[B]) for B in range(done, count)])
                W = np.sum(sums[:, :_CHEB, None] * _CHEB_S, axis=1)  # W = C S
                self.W = np.vstack([self.W, W])
                self.abs_sum = np.concatenate([self.abs_sum, sums[:, _CHEB]])
            return self.W, self.abs_sum

    def _rows(self, B: int, lo: int, hi: int):
        """Block B's rows v_m T_k(tau_m), k < _CHEB, then |v_m|, over lo <= m < hi,
        one at a time in one buffer; the recurrence T_k = 2 tau T_(k-1) - T_(k-2)
        writes T_k over T_(k-2), with 2 tau made once."""
        v = self.read(lo, hi)
        tau = (1.0 / odd(lo, hi) - self.w0[B]) / (self.delta[B] or 1.0)  # 0 on a one-term block
        row = v.copy()  # T_0 = 1
        yield row
        t_prev, t, tau2 = np.ones(hi - lo), tau, 2.0 * tau
        yield np.multiply(t, v, out=row)
        for _ in range(2, _CHEB):
            np.subtract(np.multiply(tau2, t, out=row), t_prev, out=t_prev)
            t_prev, t = t, t_prev
            yield np.multiply(t, v, out=row)
        yield np.abs(v, out=row)

    def head(self, form: _Form, x: np.ndarray, heads: np.ndarray):
        """sum_{_HEAD_PREFIX <= m < heads[j]} w_m phi(x_j/n_m) per point, and
        the bound on the interpolation error; each head is a block edge.  A point
        adds its blocks' sum_j W[B, j] f(tau_j) and majorant * alias[B] * abs_sum[B]
        in block order from 0.0, SCAN // _CHEB points at a time (no temporary
        holds more than SCAN values)."""
        count = np.searchsorted(self.edges, heads)
        top = int(count.max(initial=0))
        W, abs_sum = self._extend(top)
        vals, bounds = np.zeros((2, len(x)))
        for B, w0 in enumerate(self.w0[:top]):
            n = 1.0 / (w0 + self.delta[B] * _TAU)
            reach = np.flatnonzero(count > B)
            for p in np.split(reach, range(SCAN // _CHEB, len(reach), SCAN // _CHEB)):
                xp = x[p]
                f = form.outer(xp[:, None]) * form.head(xp[:, None], n)
                # einsum, never @ or np.dot: BLAS sums in an order of its own
                vals[p] += np.einsum("pj,j->p", f, W[B])
                bounds[p] += form.majorant(xp * w0, w0) * self.alias[B] * abs_sum[B]
        return vals, bounds


class _Workspace:
    """The table's one truncation of the kernel sums, made whole: weight
    readers over the table's odd halves, the depth kernel_depth(limit) (or
    a shorter one, whose moments it sums itself), sup |S| past the depth,
    and per weight array its tail moments at that depth and its head
    blocks.  M and M' share nu's, as they share the exponent q + p0 = 1.
    The blocks sum nothing until a call extends them, under their own lock."""

    def __init__(self, table: ArithTable, depth: int | None = None):
        self.depth = kernel_depth(table.limit) if depth is None else depth
        self.weights = weight_readers(table)
        self.S_odd = table.nu_cumsum_odd
        self.s_sup = s_sup_past(table, 2 * self.depth + 1)  # sup |S| over m >= depth
        self.tails = {w: _Moments(table.tail_moments(w) if depth is None else
                                  sum_tail_moments(read, MOMENT_EXPONENTS[w], depth), self.depth)
                      for w, read in self.weights.items()}
        self.blocks = {w: _HeadBlocks(self.depth, read) for w, read in self.weights.items()}


def s_sup_past(table: ArithTable, n: int) -> float:
    """max |S(n')| over n' >= n: the table's values from n on, floored by
    the frozen S_TAIL_BEYOND_TABLE for the n' past the table."""
    return max(abs_max(partial_sums(table, n, table.limit + 1)), S_TAIL_BEYOND_TABLE)


_WS_LOCK = threading.Lock()


def _ws(table: ArithTable) -> _Workspace:
    """The table's workspace, made by the first call on any thread."""
    ws = table.__dict__.get("_kernel_ws")
    if ws is None:
        with _WS_LOCK:
            ws = table.__dict__.get("_kernel_ws")
            if ws is None:
                ws = table.__dict__["_kernel_ws"] = _Workspace(table)
    return ws


def _head_sum(head: Callable, z: np.ndarray, lengths: np.ndarray,
              read: Callable[[int, int], np.ndarray]) -> np.ndarray:
    """sum_{m < lengths[j]} v_m head(z_j, n_m) per point, points grouped by
    length; a row is never split, so every sum keeps its order."""
    out = np.zeros(len(z), dtype=np.result_type(z, np.float64))
    for length in sorted(set(lengths[lengths > 0].tolist())):  # np.unique imports numpy.ma
        idx = np.flatnonzero(lengths == length)
        n, v = odd(0, length), read(0, length)
        rows = max(1, SCAN // length)
        for a in range(0, len(idx), rows):
            sel = idx[a:a + rows]
            out[sel] = (head(z[sel, None], n) * v).sum(axis=1)
    return out


def _kernel_sum(form: _Form, z: np.ndarray, ws: _Workspace) -> tuple[np.ndarray, np.ndarray]:
    """sum_{m<depth} w_m phi(z/n_m) per point: head plus moment tail, and the
    bound on the discarded series.  On the real axis the head past its first
    _HEAD_PREFIX terms comes from the blocks, elsewhere it is summed directly."""
    mom, blocks = ws.tails[form.weights], ws.blocks[form.weights]
    i = mom.index(z)
    heads = mom.breaks[i]
    tail, remainder = mom.tail(form, z, i)
    blocked = not np.iscomplexobj(z) and heads.max(initial=0) > _HEAD_PREFIX
    direct = np.minimum(heads, _HEAD_PREFIX) if blocked else heads
    head = form.outer(z) * _head_sum(form.head, z, direct, ws.weights[form.weights])
    if blocked:
        block_sum, block_bound = blocks.head(form, z, heads)
        head, remainder = head + block_sum, remainder + block_bound
    return head + tail, remainder


# ---------------------------------------------------------------------------
# partial-fraction kernel
# ---------------------------------------------------------------------------

def kernel_N_with_bound(z, table: ArithTable):
    """Truncated partial-fraction kernel and its analytic tail bound.

    The tail uses |beta(2m+1)|/sqrt(2m+1) <= 1:
        |tail| <= |2z| sum_{m>M} 1/|z^2 + pi^2 (2m+1)^2|,
    with |z^2 + pi^2 n^2| >= pi^2 n^2 (1 - (|z|/(pi(2M+1)))^2) past the
    truncation off the axis, plus the remainders of the tail series and the
    head blocks.  A scalar z gives (complex, float), an array z two arrays.

    Raises:
        TruncationBudgetError: complex |z| > 0.866 pi (2M+1), where the first
            omitted poles are too close for the tail bound.
    """
    zs, scalar = _points(z, "kernel_N")
    ws = _ws(table)
    zabs = np.abs(zs)
    bound = _N_tail_bound(zabs, ws.depth)
    if np.iscomplexobj(zs):
        # N's disc: off the axis the tail bound needs (|z| / (pi (2M+1)))^2 <= 0.75
        shrink = (zabs / (math.pi * (2.0 * ws.depth + 1.0))) ** 2
        if np.any(shrink > 0.75):
            raise TruncationBudgetError(
                f"kernel_N: |z|={zabs.max():.6g} is within a factor 0.866 of the "
                f"first omitted pole pi*{2 * ws.depth + 1}", achieved_bound=math.inf)
        bound = bound / (1.0 - shrink)
    vals, remainder = _kernel_sum(_FORM_N, zs, ws)
    bound = bound + remainder
    return (complex(vals[0]), float(bound[0])) if scalar else (vals, bound)


def _N_tail_bound(xabs, M: int):
    # |beta(n)|/sqrt(n) <= 1, and sum_{m>=M} (2m+1)^-2 <= 1/(4M) by midpoint
    # convexity, so on the real axis |tail| <= 2|x|/(4 M pi^2)
    return xabs / (2.0 * math.pi ** 2 * M)


def kernel_N(z, table: ArithTable):
    """Partial-fraction kernel N(z); odd in z, N(0) = 0."""
    return kernel_N_with_bound(z, table)[0]


# ---------------------------------------------------------------------------
# power series of the kernel around 0
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def kernel_series_coefficients(order: int) -> np.ndarray:
    """Coefficients c_k = 2 (-1)^k pi^(-(2k+2)) zeta_beta(2k + 5/2), k <= order."""
    return np.array([2.0 * (-1.0) ** k * math.pi ** (-(2 * k + 2))
                     * zeta_beta(2 * k + 2.5).real
                     for k in np.arange(order + 1)])


def kernel_N_series(z: complex) -> complex:
    """Power series 2 sum_k (-1)^k z^(2k+1) pi^(-(2k+2)) zeta_beta(2k+5/2),
    k <= SERIES_ORDER_K.

    Raises:
        InvalidArgumentError: for a non-finite z.
        PoleError: within POLE_TOL of the poles +-i*pi on the disc's edge.
        DomainError: outside the disc of convergence |z| < pi.
    """
    z = complex(z)
    _points(z, "kernel_N_series")
    if abs(z) >= math.pi:
        raise DomainError(f"kernel series requires |z| < pi, got |z|={abs(z)}")
    c = kernel_series_coefficients(SERIES_ORDER_K)
    w = z * z
    acc = 0.0 + 0.0j
    for k in range(len(c) - 1, -1, -1):
        acc = acc * w + c[k]
    return acc * z


def _series_disc(a: float) -> None:
    if not 0.0 < a < math.pi:
        raise InvalidArgumentError(f"power series need 0 < a < pi, got a={a}")


def fermi_series(a: float):
    """1/(e^t + 1) = 1/2 - sum_k c_k t^(2k+1) on 0 < t <= a < pi, c_k the tanh
    coefficients, in the format of kernel_series_with_bound."""
    _series_disc(a)
    order = 2 * TAYLOR_TERMS + 1
    return (np.concatenate([[0.0], 1.0 + _K2]), np.concatenate([[0.5], -_TANH]),
            np.array([order]), np.array([_FORM_M.remainder(a) / a ** order]))


def kernel_series_with_bound(kernel: str, a: float, table: ArithTable):
    """Truncated kernel N or (half-shifted) M on 0 < x <= a < pi as a power series.

    Returns (powers, coef, err_pow, err): the kernel is sum_j coef_j x^p_j + E(x)
    with |E(x)| <= sum_i err_i x^q_i.  coef comes from the table's moments at
    breakpoint 0, not from kernel_series_coefficients, so that N and M stay
    independent routes; err holds the route's real-axis truncation bound,
    linear in x, and the Taylor remainder of every term.  That remainder,
    R(x/n_m) |w_m| with R(r)/r^p increasing in r (p the series order), is
    at most x^p R(a)/a^p sum_m |v_m| n_m^-(q+p) <= x^p R(a)/a^p
    (|v_0| + 3^-(q+p) sum_{m>0} |v_m|), since n_m >= 3 past m = 0.
    Raises DomainError for another kernel, InvalidArgumentError unless a < pi.
    """
    if kernel not in ("N", "M"):
        raise DomainError(f"kernel must be 'N' or 'M', got {kernel!r}")
    _series_disc(a)
    ws = _ws(table)
    if kernel == "N":
        form, slope = _FORM_N, _N_tail_bound(1.0, ws.depth)
    else:
        form, slope = _FORM_M, float(_abel_remainder_bound(1.0, ws))
    mom = ws.tails[form.weights]
    order = form.p0 + 2 * TAYLOR_TERMS
    v0 = abs(float(ws.weights[form.weights](0, 1)[0]))
    weight = v0 + 3.0 ** -(form.q + order) * (mom.abs_sum[0] - v0)
    return (form.p0 + _K2, form.coef * mom.scaled[0], np.array([1.0, order]),
            np.array([slope, form.remainder(a) * weight / a ** order]))


# ---------------------------------------------------------------------------
# exponential kernel (half-shifted and plain forms)
# ---------------------------------------------------------------------------

def kernel_M_with_bound(z, table: ArithTable, form: str = "half-shifted"):
    """Truncated exponential kernel and a summation-by-parts remainder bound.

    form="half-shifted": sum_{m<M} nu(2m+1) g(z/(2m+1)), g(u) = tanh(u/2)/2,
        any z off poles.
    form="plain": -sum_{m<M} nu(2m+1) / (e^(z/(2m+1)) + 1) plus the boundary
        term S(2M-1) / (e^(z/(2M+1)) + 1), computed as the half-shifted sum
        minus S(2M-1) g(z/(2M+1)).  Its remainder bound is
        2 sup|S| |g(z/(2M+1))| on the real axis, where g is monotone in m,
        and the half-shifted form's bound off it.
    Both bounds carry sup|S| past M (the workspace's s_sup) and the
    remainders of the moment tail and head blocks; ABEL_TAIL_TOL plays no
    part here, only kernel_M checks the bound against it.  A scalar z gives
    (value, float), the value real for the plain form on the real axis and
    complex otherwise; an array z gives two arrays.
    """
    if form not in ("half-shifted", "plain"):
        raise DomainError(f"unknown kernel_M form {form!r}")
    zs, scalar = _points(z, "kernel_M")
    ws = _ws(table)
    vals, bound = _kernel_sum(_FORM_M, zs, ws)
    if form == "plain":
        g_next = _head_M(zs, 2.0 * ws.depth + 1.0)
        vals = vals - ws.S_odd[ws.depth - 1] * g_next
    if form == "plain" and not np.iscomplexobj(zs):
        # g tends to 0 monotonically past M, from either side
        bound = bound + 2.0 * ws.s_sup * np.abs(g_next)
    else:
        bound = bound + _abel_remainder_bound(zs, ws)
    if not scalar:
        return vals, bound
    value = float(vals[0]) if form == "plain" and not np.iscomplexobj(vals) else complex(vals[0])
    return value, float(bound[0])


def _abel_remainder_bound(z, ws: _Workspace):
    # |sum_{m>=M} nu g| <= sup_{m>=M}|S| * (|g(M)| + total variation of g);
    # g ~ z/(4(2m+1)) past the truncation point, variation comparable to |g|
    g_edge = np.abs(z) / (4.0 * (2.0 * ws.depth + 1.0))
    return ws.s_sup * 3.0 * g_edge


def kernel_M(z, table: ArithTable, form: str = "half-shifted"):
    """Exponential kernel M(z).

    Raises:
        TruncationBudgetError: when the remainder bound exceeds
            ABEL_TAIL_TOL (plain form on the real axis only; elsewhere the
            bound is informational).
    """
    val, bound = kernel_M_with_bound(z, table, form)
    worst = float(np.max(bound, initial=0.0))
    # the plain form returns real values exactly when it ran on the real axis
    if form == "plain" and not np.iscomplexobj(val) and worst > ABEL_TAIL_TOL:
        x = float(np.atleast_1d(z).real[np.argmax(bound)])
        raise TruncationBudgetError(
            f"kernel_M: remainder bound {worst:.3e} (> {ABEL_TAIL_TOL:.1e}) for x={x}",
            achieved_bound=worst)
    return val


def kernel_M_prime(x, table: ArithTable):
    """Termwise derivative sum_m nu(2m+1)/(2m+1) e^w/(e^w+1)^2, w = x/(2m+1).

    Absolutely convergent; the head terms, direct or at block nodes, take the
    overflow-safe form e^(-w)/(1+e^(-w))^2, the tail the sech^2 power
    series.  A scalar x gives a float, an array x an array; complex x raises DomainError.
    """
    xs, scalar = _points(x, "kernel_M_prime")
    if np.iscomplexobj(xs):  # by dtype, so an empty complex array is refused too
        raise DomainError("kernel_M_prime requires real x >= 0, got complex x")
    bad = xs[xs < 0.0]
    if bad.size:
        raise DomainError(f"kernel_M_prime requires real x >= 0, got {bad[0]}")
    ws = _ws(table)
    vals, remainder = _kernel_sum(_FORM_M_PRIME, xs, ws)
    # summation by parts as for M, with sech^2(x/n)/(4n) <= M's g_edge at |z| = 1
    bound = float(np.max(_abel_remainder_bound(1.0, ws) + remainder, initial=0.0))
    if bound > ABEL_TAIL_TOL:
        raise TruncationBudgetError(
            f"kernel_M_prime: remainder bound {bound:.3e} above tolerance",
            achieved_bound=bound)
    return float(vals[0]) if scalar else vals


# ---------------------------------------------------------------------------
# numerical residues
# ---------------------------------------------------------------------------

# the 32 points w_j of residue_estimate's contour
_CONTOUR = 0.5 * math.pi * np.exp(2j * math.pi * (np.arange(32) + 0.5) / 32)


def residue_estimate(kernel: str, l: int, table: ArithTable) -> complex:
    """Residue of the truncated N or (half-shifted) M at the pole p = i*pi*(2l+1).

    The mean of w K(p + w) over w_j = r e^(i theta_j), theta_j = 2 pi (j + 1/2)/32,
    r = pi/2, in one array call: the trapezoid rule for Cauchy's integral.  The
    next poles are 2 pi away, so for any R < 2 pi its aliasing error is at most
    2 max_{|z-p|=R} |(z-p) K(z)| (r/R)^32 / (1 - (r/R)^32) (Trefethen and
    Weideman, SIAM Review 56 (2014), sec. 2); as R -> 2 pi the factor tends to
    4^-32 ~ 5e-21, so rounding dominates.

    The range of l is 0 <= l < M for M, M the workspace depth.  For N it
    ends where the contour leaves the disc on which kernel_N bounds its tail,
    |z| <= (sqrt(3)/2) pi (2M+1): about 2l + 3/2 <= 0.866 (2M+1), so
    l <= 1299 at M = 1501 (a 3,001 table).

    Raises:
        DomainError: for a kernel other than "N" or "M", or l < 0.
        InvalidArgumentError: for a non-integer l.
        RangeError: for l outside that range: at or past the depth the
            truncated N has no pole and the truncated M lacks divisors of
            2l+1, and past N's disc its tail bound fails.
    """
    if kernel not in ("N", "M"):
        raise DomainError(f"kernel must be 'N' or 'M', got {kernel!r}")
    try:
        l = operator.index(l)
    except TypeError:
        raise InvalidArgumentError(f"pole index l must be an integer, got {l!r}") from None
    if l < 0:
        raise DomainError("pole index l must be >= 0")
    depth = _ws(table).depth
    if l >= depth:
        raise RangeError(f"pole index l={l} outside the kernels' depth 0..{depth - 1}")
    z = 1j * math.pi * (2 * l + 1) + _CONTOUR
    try:
        values = (kernel_N if kernel == "N" else kernel_M)(z, table)
    except TruncationBudgetError:  # only kernel_N's disc raises off the real axis
        raise RangeError(f"pole index l={l}: the contour leaves kernel_N's disc "
                         f"|z| <= 0.866 pi*{2 * depth + 1}") from None
    return complex(np.mean(_CONTOUR * values))
