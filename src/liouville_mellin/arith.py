"""Sieve-backed tables of the arithmetic functions lambda, mu, d, beta, nu.

For odd n with squarefree-times-square decomposition n = k*h^2 (k squarefree)
the signed square-part function is

    beta(n) = mu(k) * h,      |beta(n)| = h,

and nu is the weighted Moebius transform determined by

    n * nu(n) = sum_{k*l = n} mu(k) * beta(l) / sqrt(l)     (odd n),

equivalently  sum_{l | n} l * nu(l) = beta(n)/sqrt(n).  beta and nu live on
the odd integers, and lambda, mu and d at even n follow from the odd part by
the 2-adic rule: for odd m,

    lambda(2^a m) = (-1)^a lambda(m),   mu(2m) = -mu(m),   mu(4k) = 0,
    d(2^a m)      = (a + 1) d(m),        beta = nu = 0 at even n.

So the table holds every function over odd n only: entry m of liouville_odd,
mobius_odd, dcount_odd, beta_odd, nu_odd and nu_cumsum_odd is n = 2m+1, and
nu_cumsum_odd (S(n) = sum_{m<=n} nu(m); S(2k) = S(2k-1)) is np.cumsum(nu_odd).
The point API and ArithTable.spread apply the 2-adic rule; the full-length
liouville, mobius, dcount, beta, nu and nu_cumsum, and the smallest prime
factor spf, are built on first access, bit for bit the arrays of a sieve that
stores every n.  The package itself reads only the odd halves.

One loop over the odd primes p <= isqrt(N), found as the n whose part over
smaller primes is still 1, updates the odd multiples of each p^k <= N by
strided slices; what is left of n is then 1 or one prime above isqrt(N),
applied in one step.  With p^e || n:

    lambda(n) = (-1)^Omega(n)           (Omega counted with multiplicity)
    d(n)      = product of (e + 1)
    h(n)      = product of p^floor(e/2)
    mu(n)     = lambda(n) if h(n) = 1 (n squarefree), else 0
    beta(n)   = lambda(n) * h(n)        (odd n; mu(k) = lambda(k) for
                                         squarefree k, and lambda(h^2) = 1)

nu is multiplicative with nu(p^e) = (-1)^e (1 + p^-1/2) / p^e, so for odd n

    nu(n) = lambda(n)/n * prod_{p | n} (1 + p^-1/2),

a product of positive factors with no cancellation.  The defining
convolution above stays an independent check (bounds.convolution).

The kernels (kernels.py) take the tails of their sums from power moments of
the weights beta(n)/sqrt(n) and nu(n) at fixed breakpoints, summed here
(sum_tail_moments) once per table: ArithTable.tail_moments sums them on first
use, and the cache holds them.

The cache file (save_table/load_table) holds liouville_odd, mobius_odd,
dcount_odd, beta_odd and nu_odd, then the tail moments of beta and nu,
moments_beta and moments_nu; nu_cumsum_odd is not stored but summed again on
load, to the same bits.  Each array carries one sha256, hashed on
HASH_WORKERS threads (on load, while the next array is read); the header
lengths are checked against limit and the file size, and the moments' layout
(Taylor terms, exponent offsets, depth) against this code's.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import operator
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import CacheFormatError, DomainError, InvalidArgumentError, RangeError

__all__ = ["ArithTable", "build_table", "liouville", "mobius", "divisor_count",
           "beta_value", "nu_value", "nu_partial_sum", "sqfree_square_split",
           "save_table", "load_table"]

CACHE_MAGIC = b"ARITHv6"
HASH_WORKERS = 2  # threads hashing cache fields; hashlib releases the GIL

# fixed on-disk order, each array over the odd n <= limit: (name, dtype)
_CACHE_FIELDS = (
    ("liouville_odd", np.int8),
    ("mobius_odd", np.int8),
    ("dcount_odd", np.int32),
    ("beta_odd", np.int32),
    ("nu_odd", np.float64),
)
# then, after them, moments_beta and moments_nu: ArithTable.tail_moments

_MOMENTS_LOCK = threading.Lock()  # held while a table's tail moments are summed

# the 2-adic rule: f(2^a m) = _TWO_ADIC[f](a) * f(m) for odd m
_TWO_ADIC = {
    "liouville": lambda a: -1 if a % 2 else 1,
    "mobius": lambda a: 1 - 2 * a if a < 2 else 0,
    "dcount": lambda a: a + 1,
    "beta": lambda a: int(a == 0),
    "nu": lambda a: int(a == 0),
}


@dataclass
class ArithTable:
    """Immutable-by-convention bundle of sieve arrays covering 1..limit.

    Entry m of an _odd array is n = 2m + 1.  nu_cumsum_odd is summed from
    nu_odd when the table is made.  The full-length arrays (index 0 a
    placeholder) are built on their first access.  The kernels' tail moments
    (tail_moments) come with a table loaded from the cache, and are summed
    from beta_odd and nu_odd on first use otherwise.

    Point reads are pure.  What is built on a table later is a pure function
    of its arrays: the tail moments, the kernel workspace and each of its
    head-block sets are built under a lock of their own, and two threads
    that ask at once for a full-length array get the same bits.
    """

    limit: int
    liouville_odd: np.ndarray  # lambda(2m+1) in {-1,+1}, int8
    mobius_odd: np.ndarray     # mu(2m+1) in {-1,0,+1}, int8
    dcount_odd: np.ndarray     # d(2m+1), int32
    beta_odd: np.ndarray       # beta(2m+1), int32
    nu_odd: np.ndarray         # nu(2m+1), float64
    nu_cumsum_odd: np.ndarray = field(init=False)  # S(2m+1), float64

    def __post_init__(self):
        self.nu_cumsum_odd = np.cumsum(self.nu_odd)
        self._moments = {}  # weights -> their tail moments

    def tail_moments(self, weights: str) -> np.ndarray:
        """sum_tail_moments of weights ("beta" or "nu") over m <
        kernel_depth(limit): those of the cache file, else summed on first
        use under a lock, so threads sum them once."""
        with _MOMENTS_LOCK:
            if weights not in self._moments:
                self._moments[weights] = sum_tail_moments(
                    weight_readers(self)[weights], MOMENT_EXPONENTS[weights],
                    kernel_depth(self.limit))
            return self._moments[weights]

    def spread(self, name: str, lo: int, hi: int) -> np.ndarray:
        """liouville, mobius, dcount, beta or nu at lo <= n < hi, from its odd
        half by the 2-adic rule; 0 at n = 0."""
        odd_half, factor = getattr(self, name + "_odd"), _TWO_ADIC[name]
        out = np.zeros(hi - lo, dtype=odd_half.dtype)
        for a in range((hi - 1).bit_length()):  # the n = q (2j + 1), q = 2^a
            f, q = factor(a), 1 << a
            if not f:
                continue  # 0 there, as out starts
            j = max(0, -((q - lo) // (2 * q)))  # the first such n >= lo
            at = out[q * (2 * j + 1) - lo::2 * q]
            np.multiply(odd_half[j:j + len(at)], f, out=at)
        return out

    @functools.cached_property
    def liouville(self) -> np.ndarray:
        """lambda(n), 0 at n = 0, int8."""
        return self.spread("liouville", 0, self.limit + 1)

    @functools.cached_property
    def mobius(self) -> np.ndarray:
        """mu(n), 0 at n = 0, int8."""
        return self.spread("mobius", 0, self.limit + 1)

    @functools.cached_property
    def dcount(self) -> np.ndarray:
        """d(n), 0 at n = 0, int32."""
        return self.spread("dcount", 0, self.limit + 1)

    @functools.cached_property
    def beta(self) -> np.ndarray:
        """beta(n) for odd n, 0 for even n, int32."""
        return self.spread("beta", 0, self.limit + 1)

    @functools.cached_property
    def nu(self) -> np.ndarray:
        """nu(n), 0 for even n, float64."""
        return self.spread("nu", 0, self.limit + 1)

    @functools.cached_property
    def nu_cumsum(self) -> np.ndarray:
        """S(n) = sum_{m<=n} nu(m), float64; np.cumsum(nu) to the bit, as
        adding nu's zeros at even n leaves every partial sum as it was."""
        full = np.zeros(self.limit + 1)
        full[1::2] = self.nu_cumsum_odd
        full[2::2] = self.nu_cumsum_odd[:self.limit // 2]  # S(2k) = S(2k-1)
        return full

    @functools.cached_property
    def spf(self) -> np.ndarray:
        """Smallest prime factor, 0 at n = 0 and 1, int32; nothing in the
        package reads it, so it is sieved only when asked for."""
        spf = np.zeros(self.limit + 1, dtype=np.int32)
        for p in range(2, math.isqrt(self.limit) + 1):
            if not spf[p]:
                np.copyto(spf[p::p], p, where=spf[p::p] == 0)
        found = np.flatnonzero(spf == 0)[2:]  # past 0 and 1: the primes above the root
        spf[found] = found
        return spf


def build_table(limit: int) -> ArithTable:
    """Sieve every arithmetic array over the odd n up to `limit` (inclusive).

    Raises:
        InvalidArgumentError: for limit < 1 or past int32, before any allocation.
        MemoryError: propagated from numpy with the requested size when the
            arrays do not fit.
    """
    if limit < 1:
        raise InvalidArgumentError(f"table limit must be >= 1, got {limit}")
    if limit > np.iinfo(np.int32).max:  # n, dcount and beta are int32
        raise InvalidArgumentError(f"table limit must be < 2**31, got {limit}")
    n = int(limit)
    root = math.isqrt(n)
    half = (n + 1) // 2
    # entry m is the odd n = 2m + 1; the odd multiples of an odd q sit at
    # m = q//2 + j q
    lam = np.ones(half, dtype=np.int8)
    dcount = np.ones(half, dtype=np.int32)
    h = np.ones(half, dtype=np.int32)
    smooth = np.ones(half, dtype=np.int32)      # the part of n over primes <= root
    nu_weight = np.ones(half, dtype=np.float64)  # prod_{p|n} (1 + p^-1/2)
    weight = 1.0 + np.arange(1, root + 1) ** -0.5  # array pow: pinned nu uses its rounding
    for p in range(3, root + 1, 2):
        if smooth[p // 2] > 1:
            continue  # composite: a smaller prime divides it
        nu_weight[p // 2::p] *= weight[p - 1]
        q, k = p, 1
        while q <= n:  # q = p^k: every odd multiple of q has e >= k
            at = slice(q // 2, None, q)
            lam[at] *= -1
            if k > 1:  # the factor e + 1 of d grows from k to k + 1
                dcount[at] //= k
            dcount[at] *= k + 1
            if k % 2 == 0:
                h[at] *= p
            smooth[at] *= p
            q, k = q * p, k + 1
    rest = np.arange(1, n + 1, 2, dtype=np.int32) // smooth  # 1 or n's one prime above root
    del smooth
    big = np.flatnonzero(rest > 1)
    nu_weight[big] *= 1.0 + rest[big] ** -0.5
    lam[big] *= -1
    dcount[big] *= 2
    del rest, big
    mu = lam * (h == 1)  # int8; squarefree iff h = 1
    beta = lam * h  # int32
    del h
    nu = lam * nu_weight / odd(0, half)

    return ArithTable(limit=n, liouville_odd=lam, mobius_odd=mu, dcount_odd=dcount,
                      beta_odd=beta, nu_odd=nu)


# ---------------------------------------------------------------------------
# every sum over the table, in SCAN-long slices along numpy's pairwise tree: no
# temporary as long as the table, and bits free of the slice length and BLAS
# ---------------------------------------------------------------------------

SCAN = 1 << 16  # indices per chunk; must stay >= 128, numpy's pairwise block


def chunks(n: int):
    """(lo, hi) of consecutive SCAN-long slices covering range(n)."""
    return ((lo, min(lo + SCAN, n)) for lo in range(0, n, SCAN))


def odd(lo: int, hi: int) -> np.ndarray:
    """The odd n = 2j + 1 for lo <= j < hi, as float64."""
    return np.arange(2 * lo + 1, 2 * hi, 2, dtype=np.float64)


def pairwise_sum(term, lo: int, n: int):
    """np.sum(term(lo, lo + n), axis=-1) to the bit without building it: split
    where numpy's pairwise summation splits, and np.sum each piece of <= SCAN
    terms.  A term of several rows gives one sum per row.  term returns an
    array, or an iterator of 1-d rows, each summed before the next is drawn,
    so a term may hand out one buffer rewritten row by row."""
    if n <= SCAN:
        leaf = term(lo, lo + n)
        if isinstance(leaf, np.ndarray):
            return np.sum(leaf, axis=-1)
        return np.array([np.sum(row) for row in leaf])
    half = n // 2
    half -= half % 8
    return pairwise_sum(term, lo, half) + pairwise_sum(term, lo + half, n - half)


def abs_max(a: np.ndarray) -> float:
    """max |a| over a non-empty 1-d array, one chunk at a time."""
    return max(float(np.abs(a[lo:hi]).max()) for lo, hi in chunks(len(a)))


# ---------------------------------------------------------------------------
# the kernels' tail moments: summed once per table, stored in its cache
# ---------------------------------------------------------------------------

TAYLOR_TERMS = 14  # series terms of the kernels' tails: power moments per breakpoint
# the exponent offset e0 = q + p0 of the kernel forms over each weight
# (kernels._Form): 1 + 1 for N over beta(n)/sqrt(n), 0 + 1 (M) and 1 + 0 (M') over nu(n)
MOMENT_EXPONENTS = {"beta": 2, "nu": 1}


def kernel_depth(limit: int) -> int:
    """The one depth rule of the kernel sums over a table to limit: 10^6
    terms, or every odd n <= limit if fewer."""
    return min(10 ** 6, (limit + 1) // 2)


def weight_readers(table: ArithTable) -> dict:
    """Per kernel weight, read(lo, hi) = v_m for lo <= m < hi, n = 2m + 1:
    beta(n)/sqrt(n) and nu(n).  The readers hold the arrays, not the table,
    so a workspace cached on the table makes no cycle with it."""
    beta_odd, nu_odd = table.beta_odd, table.nu_odd
    return {"beta": lambda lo, hi: beta_odd[lo:hi] / np.sqrt(odd(lo, hi)),
            "nu": lambda lo, hi: nu_odd[lo:hi]}


def moment_breaks(end: int) -> np.ndarray:
    """The moments' breakpoints over m < end: 0, the powers of two and end."""
    return np.array(sorted({0, end, *(1 << j for j in range(end.bit_length()))}),
                    dtype=np.int64)


def sum_tail_moments(read, e0: int, end: int) -> np.ndarray:
    """Suffix power moments of one weight array at the breakpoints b of
    moment_breaks(end), one row per breakpoint.

    A breakpoint's tail is b <= m < end and starts at n_b = 2b + 1.  Row i is

        [k < TAYLOR_TERMS]   sum_tail v_m (n_b / n_m)^(e0 + 2k),
        [TAYLOR_TERMS]       sum_tail |v_m|,

    scaled by n_b so that no power over- or underflows; read(lo, hi) is
    v[lo:hi].  Each stretch between breakpoints is one pairwise_sum, whose
    leaf holds one row at a time: each power is the last one times
    (n_b/n_m)^2, in place, summed before the next.  The row of end is 0.
    """
    breaks = moment_breaks(end)
    n_break = 2.0 * breaks + 1.0
    sums = np.zeros((len(breaks), TAYLOR_TERMS + 1))
    powers = e0 + 2.0 * np.arange(TAYLOR_TERMS)
    for i in range(len(breaks) - 2, -1, -1):
        lo, hi = int(breaks[i]), int(breaks[i + 1])
        def rows(a: int, b: int):  # v_m (n_b/n_m)^(e0+2k) for each k, then |v_m|
            v, r = read(a, b), n_break[i] / odd(a, b)
            row = v * np.power(r, e0)
            yield row
            r *= r
            for _ in range(1, TAYLOR_TERMS):
                row *= r
                yield row
            yield np.abs(v, out=row)
        seg = pairwise_sum(rows, lo, hi - lo)
        shift = (n_break[i] / n_break[i + 1]) ** powers
        sums[i, :-1] = seg[:-1] + shift * sums[i + 1, :-1]
        sums[i, -1] = seg[-1] + sums[i + 1, -1]
    return sums


def _check_range(table: ArithTable, n: int) -> int:
    try:
        n = operator.index(n)
    except TypeError:
        raise InvalidArgumentError(f"n must be an integer, got {n!r}") from None
    if n < 1 or n > table.limit:
        raise RangeError(f"n={n} outside table range 1..{table.limit}")
    return n


def _odd_part(n: int) -> tuple[int, int]:
    """(a, m) with n = 2^a (2m + 1), for n >= 1."""
    a = (n & -n).bit_length() - 1
    return a, n >> (a + 1)


def _at(table: ArithTable, name: str, n: int) -> int:
    """name (liouville, mobius or dcount) at n, by the 2-adic rule."""
    a, m = _odd_part(_check_range(table, n))
    return _TWO_ADIC[name](a) * int(getattr(table, name + "_odd")[m])


def liouville(table: ArithTable, n: int) -> int:
    """lambda(n) = (-1)^Omega(n); completely multiplicative, lambda(1) = 1."""
    return _at(table, "liouville", n)


def mobius(table: ArithTable, n: int) -> int:
    """mu(n): 0 on non-squarefree n, else (-1)^(number of prime factors)."""
    return _at(table, "mobius", n)


def divisor_count(table: ArithTable, n: int) -> int:
    """d(n) = number of divisors of n."""
    return _at(table, "dcount", n)


def beta_value(table: ArithTable, n: int) -> int:
    """beta(n) = mu(k)*h for odd n = k*h^2 with k squarefree.

    Raises:
        DomainError: for even n (beta is only defined on odd integers).
    """
    n = _check_range(table, n)
    if n % 2 == 0:
        raise DomainError(f"beta is defined on odd integers, got n={n}")
    return int(table.beta_odd[n // 2])


def nu_value(table: ArithTable, n: int) -> float:
    """nu(n); zero on even n."""
    n = _check_range(table, n)
    return float(table.nu_odd[n // 2]) if n % 2 else 0.0


def nu_partial_sum(table: ArithTable, n: int) -> float:
    """S(n) = sum_{m<=n} nu(m), read from the cached cumulative array;
    S(2k) = S(2k-1)."""
    return float(table.nu_cumsum_odd[(_check_range(table, n) - 1) // 2])


def sqfree_square_split(table: ArithTable, n: int) -> tuple[int, int]:
    """The unique decomposition n = k*h^2 with k squarefree.

    For n = 2^a u with u odd, h = 2^floor(a/2) |beta(u)|, as |beta(u)| is
    the h of u; exact integer arithmetic.
    """
    n = _check_range(table, n)
    a, m = _odd_part(n)  # u = 2m + 1
    h = (1 << a // 2) * abs(int(table.beta_odd[m]))
    return n // (h * h), h


# ---------------------------------------------------------------------------
# table cache file
# ---------------------------------------------------------------------------

def _sha256(arr: np.ndarray) -> str:
    return hashlib.sha256(arr).hexdigest()


def _moment_layout(limit: int) -> dict:
    """What the stored moments of a table to limit are: the header's "moments"."""
    return {"taylor_terms": TAYLOR_TERMS, "exponents": MOMENT_EXPONENTS,
            "depth": kernel_depth(limit)}


def _layout(limit: int) -> list:
    """(name, dtype, shape) of each stored field of a table to limit, in file order."""
    rows = len(moment_breaks(kernel_depth(limit)))
    return ([(name, np.dtype(dtype), ((limit + 1) // 2,)) for name, dtype in _CACHE_FIELDS]
            + [(f"moments_{w}", np.dtype(np.float64), (rows, TAYLOR_TERMS + 1))
               for w in MOMENT_EXPONENTS])


def save_table(table: ArithTable, path: str | os.PathLike) -> None:
    """Dump the table so later runs can skip the sieve and the moment sums.

    Layout: magic, one JSON header line (limit; the moments' Taylor terms,
    exponent offsets and depth; per field its name, dtype, length and the
    sha256 of its bytes), then the raw little-endian field bytes in fixed
    order: liouville_odd, mobius_odd, dcount_odd, beta_odd and nu_odd, each
    of length (limit + 1) // 2, then moments_beta and moments_nu, the
    table's tail_moments("beta") and ("nu") (summed first if the table has
    none yet), each of len(moment_breaks(depth)) * (TAYLOR_TERMS + 1) float64.
    Integers round-trip exactly and floats bitwise; nu_cumsum_odd is summed
    again on load.  The fields are hashed on HASH_WORKERS threads, then
    written straight from memory to a temporary file that replaces `path`
    once complete, so no reader sees a short file.  The temporary file is
    first preallocated to its full size where os has posix_fallocate: on
    ext4, renaming a file with unallocated blocks over an existing one
    forces a synchronous flush (about 1 s at 2,000,001 entries).
    """
    from concurrent.futures import ThreadPoolExecutor  # off the CLI's start-up path

    layout = _layout(table.limit)
    arrays = [np.ascontiguousarray(getattr(table, name), dtype=dtype)
              for name, dtype in _CACHE_FIELDS]
    arrays += [table.tail_moments(w) for w in MOMENT_EXPONENTS]  # moments_beta, moments_nu
    with ThreadPoolExecutor(HASH_WORKERS) as pool:
        digests = list(pool.map(_sha256, arrays))
    header = {
        "limit": table.limit,
        "moments": _moment_layout(table.limit),
        "fields": [{"name": name, "dtype": arr.dtype.str, "len": int(arr.size),
                    "sha256": digest}
                   for (name, _, _), arr, digest in zip(layout, arrays, digests)],
    }
    head = CACHE_MAGIC + b"\n" + json.dumps(header, sort_keys=True).encode("ascii") + b"\n"
    tmp = f"{os.fspath(path)}.{os.urandom(6).hex()}.tmp"  # same directory
    try:
        with open(tmp, "xb") as fh:
            if hasattr(os, "posix_fallocate"):  # no delayed allocation left at the replace
                os.posix_fallocate(fh.fileno(), 0, len(head) + sum(a.nbytes for a in arrays))
            fh.write(head)
            fh.writelines(arrays)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # the write or the replace failed
            os.unlink(tmp)


def load_table(path: str | os.PathLike) -> ArithTable:
    """Read a table written by save_table, verifying magic and checksums.

    The limit and every header length must be JSON integers, the moments'
    layout that of this code, each length that of save_table's layout for
    the limit, and the lengths must match the file size, before anything is
    allocated.  The fields share one allocation.  Each is read in place and
    handed to one of HASH_WORKERS threads at once, so reading the next field
    overlaps with hashing this one and the payload is held once.  The
    largest field, nu_odd, is read and hashed first, as its hash is the
    longest; then the table, with its np.cumsum of S and the moments read,
    is made while the digests run.  They are compared in field order before
    it is returned.
    """
    from concurrent.futures import ThreadPoolExecutor  # off the CLI's start-up path

    with open(path, "rb") as fh:
        magic = fh.readline().rstrip(b"\n")
        if magic != CACHE_MAGIC:
            raise CacheFormatError(f"bad magic {magic!r} in {path}")
        try:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
            header = json.loads(fh.readline().decode("ascii"))
            limit = header["limit"]
            fields = [(f["name"], f["dtype"], f["len"], f["sha256"]) for f in header["fields"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise CacheFormatError(f"unreadable header in {path}: {exc}") from exc
        if not all(isinstance(sha, str) for *_, sha in fields):
            raise CacheFormatError(f"unreadable header in {path}: a sha256 is not a string")
        if type(limit) is not int or not all(type(length) is int for _, _, length, _ in fields):
            # a JSON integer, not a float, a string or a boolean
            raise CacheFormatError(f"unreadable header in {path}: the limit or a length "
                                   "is not an integer")
        if limit < 1:
            raise CacheFormatError(f"limit {limit} < 1 in {path}")
        layout = _layout(limit)
        if [(name, dtype) for name, dtype, _, _ in fields] != [(name, dtype.str)
                                                                for name, dtype, _ in layout]:
            raise CacheFormatError(f"unexpected field layout in {path}")
        if header.get("moments") != _moment_layout(limit):  # the moments this code sums
            raise CacheFormatError(f"moment layout {header.get('moments')} is not "
                                   f"{_moment_layout(limit)} in {path}")
        for (name, _, length, _), (_, _, shape) in zip(fields, layout):
            if length != math.prod(shape):
                raise CacheFormatError(f"field length of {name} is {length}, not "
                                       f"{math.prod(shape)} for limit {limit} in {path}")
        sizes = [math.prod(shape) * dtype.itemsize for _, dtype, shape in layout]
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if left != sum(sizes):
            raise CacheFormatError(f"{left} payload bytes disagree with the header in {path}")
        # one block for the stored fields, each a view starting on a 16-byte
        # boundary; separate arrays can come from the heap after the first
        # load, where the hashing threads' small allocations can keep a freed
        # table resident (peak RSS +5 MB in repeated loads)
        spans = [-(-size // 16) * 16 for size in sizes]
        block = np.empty(sum(spans), dtype=np.uint8)
        arrays, offsets, lo, at, digests = {}, {}, 0, fh.tell(), {}
        for (name, dtype, shape), span, size in zip(layout, spans, sizes):
            arrays[name] = block[lo:lo + span].view(dtype)[:math.prod(shape)].reshape(shape)
            offsets[name], lo, at = at, lo + span, at + size
        with ThreadPoolExecutor(HASH_WORKERS) as pool:  # joins its threads on any exit
            # the largest field first: its hash is the longest
            for name in ("nu_odd", *(name for name in arrays if name != "nu_odd")):
                arr = arrays[name]
                fh.seek(offsets[name])
                if fh.readinto(arr) != arr.nbytes:
                    raise CacheFormatError(f"short read of {name} in {path}")
                digests[name] = pool.submit(_sha256, arr)
            # sums S while the digests run
            table = ArithTable(limit=limit, **{name: arrays[name] for name, _ in _CACHE_FIELDS})
            table._moments.update({w: arrays[f"moments_{w}"] for w in MOMENT_EXPONENTS})
            for name, _, _, sha in fields:
                if digests[name].result() != sha:
                    raise CacheFormatError(f"checksum mismatch in field {name} of {path}")
    return table
