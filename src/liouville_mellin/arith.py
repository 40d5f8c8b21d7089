"""Sieve-backed tables of the arithmetic functions lambda, mu, d, beta, nu.

For odd n with squarefree-times-square decomposition n = k*h^2 (k squarefree)
the signed square-part function is

    beta(n) = mu(k) * h,      |beta(n)| = h,

and nu is the weighted Moebius transform determined by

    n * nu(n) = sum_{k*l = n} mu(k) * beta(l) / sqrt(l)     (odd n),

equivalently  sum_{l | n} l * nu(l) = beta(n)/sqrt(n).  beta and nu live on
the odd integers and S(n) = sum_{m<=n} nu(m) has S(2k) = S(2k-1), so the table
holds all three over odd n only: entry m of beta_odd, nu_odd and
nu_cumsum_odd is n = 2m+1, and nu_cumsum_odd is np.cumsum(nu_odd).  The
full-length beta, nu (0 at even n) and nu_cumsum are built on first access,
bit for bit the arrays of a sieve that stores every n; the package itself
reads only the odd halves, and the point API for beta rejects even arguments.

One loop over the primes p <= isqrt(N), found by the spf sieve as it goes,
updates the multiples of each p^k <= N by strided slices; what is left of n
is then 1 or one prime above isqrt(N), applied in one step.  With p^e || n:

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

The cache file (save_table/load_table) holds spf, liouville, mobius and
dcount over 0..limit and beta_odd and nu_odd over the odd n <= limit;
nu_cumsum_odd is not stored but summed again on load, to the same bits.  Each
array carries one sha256, hashed on HASH_WORKERS threads (on load, while the
next array is read); the header lengths are checked against limit and the
file size.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import CacheFormatError, DomainError, InvalidArgumentError, RangeError

__all__ = ["ArithTable", "build_table", "liouville", "mobius", "divisor_count",
           "beta_value", "nu_value", "nu_partial_sum", "sqfree_square_split",
           "save_table", "load_table"]

CACHE_MAGIC = b"ARITHv4"
HASH_WORKERS = 2  # threads hashing cache fields; hashlib releases the GIL

# fixed on-disk order: (name, dtype, whether it covers the odd n only)
_CACHE_FIELDS = (
    ("spf", np.int32, False),
    ("liouville", np.int8, False),
    ("mobius", np.int8, False),
    ("dcount", np.int32, False),
    ("beta_odd", np.int32, True),
    ("nu_odd", np.float64, True),
)


@dataclass
class ArithTable:
    """Immutable-by-convention bundle of sieve arrays covering 1..limit.

    Index 0 of a full-length array is a placeholder; entry m of an _odd
    array is n = 2m + 1.  nu_cumsum_odd is summed from nu_odd when the table
    is made, the full-length beta, nu and nu_cumsum on their first access.

    Point reads are pure.  What is built on a table later is a pure function
    of its arrays: kernels builds its workspace under a lock, and two
    threads that ask at once for a full-length array get the same bits.
    """

    limit: int
    spf: np.ndarray          # smallest prime factor, int32
    liouville: np.ndarray    # lambda(n) in {-1,+1}, int8
    mobius: np.ndarray       # mu(n) in {-1,0,+1}, int8
    dcount: np.ndarray       # number of divisors, int32
    beta_odd: np.ndarray     # beta(2m+1), int32
    nu_odd: np.ndarray       # nu(2m+1), float64
    nu_cumsum_odd: np.ndarray = field(init=False)  # S(2m+1), float64

    def __post_init__(self):
        self.nu_cumsum_odd = np.cumsum(self.nu_odd)

    def _spread(self, odd_half: np.ndarray) -> np.ndarray:
        full = np.zeros(self.limit + 1, dtype=odd_half.dtype)
        full[1::2] = odd_half
        return full

    @functools.cached_property
    def beta(self) -> np.ndarray:
        """beta(n) for odd n, 0 for even n, int32."""
        return self._spread(self.beta_odd)

    @functools.cached_property
    def nu(self) -> np.ndarray:
        """nu(n), 0 for even n, float64."""
        return self._spread(self.nu_odd)

    @functools.cached_property
    def nu_cumsum(self) -> np.ndarray:
        """S(n) = sum_{m<=n} nu(m), float64; np.cumsum(nu) to the bit, as
        adding nu's zeros at even n leaves every partial sum as it was."""
        full = self._spread(self.nu_cumsum_odd)
        full[2::2] = self.nu_cumsum_odd[:self.limit // 2]  # S(2k) = S(2k-1)
        return full


def build_table(limit: int) -> ArithTable:
    """Sieve every arithmetic array up to `limit` (inclusive).

    Raises:
        InvalidArgumentError: for limit < 1 or past int32, before any allocation.
        MemoryError: propagated from numpy with the requested size when the
            arrays do not fit.
    """
    if limit < 1:
        raise InvalidArgumentError(f"table limit must be >= 1, got {limit}")
    if limit > np.iinfo(np.int32).max:  # spf, dcount and beta are int32
        raise InvalidArgumentError(f"table limit must be < 2**31, got {limit}")
    n = int(limit)
    root = math.isqrt(n)
    spf = np.zeros(n + 1, dtype=np.int32)
    lam = np.ones(n + 1, dtype=np.int8)
    dcount = np.ones(n + 1, dtype=np.int32)
    h = np.ones(n + 1, dtype=np.int32)
    smooth = np.ones(n + 1, dtype=np.int32)        # the part of m over primes <= root
    # prod_{p|n} (1 + p^-1/2) at odd n = 2m + 1, whose odd multiples of p sit
    # at m = p//2 + j p
    nu_weight = np.ones((n + 1) // 2, dtype=np.float64)
    weight = 1.0 + np.arange(1, root + 1) ** -0.5  # array pow: pinned nu uses its rounding
    for p in range(2, root + 1):
        if spf[p]:
            continue  # composite: a smaller prime has marked it
        np.copyto(spf[p::p], p, where=spf[p::p] == 0)
        if p > 2:
            nu_weight[p // 2::p] *= weight[p - 1]
        q, k = p, 1
        while q <= n:  # q = p^k: every multiple of q has e >= k
            lam[q::q] *= -1
            if k > 1:  # the factor e + 1 of d grows from k to k + 1
                dcount[q::q] //= k
            dcount[q::q] *= k + 1
            if k % 2 == 0:
                h[q::q] *= p
            smooth[q::q] *= p
            q, k = q * p, k + 1
    found = np.flatnonzero(spf == 0)[2:]  # past 0 and 1: the primes above root
    spf[found] = found
    rest = np.arange(n + 1, dtype=np.int32) // smooth  # 1 or m's one prime above root
    del smooth
    big = np.flatnonzero(rest[1::2] > 1)  # odd n first, as m
    nu_weight[big] *= 1.0 + rest[1::2][big] ** -0.5
    big = np.flatnonzero(rest > 1)
    lam[big] *= -1
    dcount[big] *= 2
    del rest, big
    lam[0] = dcount[0] = h[0] = 0
    mu = lam * (h == 1)  # int8; squarefree iff h = 1
    beta_odd = lam[1::2] * h[1::2]  # int32
    del h
    nu_odd = lam[1::2] * nu_weight / odd(0, (n + 1) // 2)

    return ArithTable(limit=n, spf=spf, liouville=lam, mobius=mu,
                      dcount=dcount, beta_odd=beta_odd, nu_odd=nu_odd)


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


def running_sums(term, n: int):
    """(lo, np.cumsum(term(0, n), axis=-1)[..., lo:hi]) per chunk, summed in
    place in the new float array term returns: the carry enters the chunk's
    first term before its cumsum, so the additions stay sequential."""
    carry = 0.0
    for lo, hi in chunks(n):
        c = term(lo, hi)
        if lo:
            c[..., 0] += carry
        np.cumsum(c, axis=-1, out=c)
        carry = c[..., -1].copy()
        yield lo, c


def abs_max(a: np.ndarray) -> float:
    """max |a| over a non-empty 1-d array, one chunk at a time."""
    return max(float(np.abs(a[lo:hi]).max()) for lo, hi in chunks(len(a)))


def _check_range(table: ArithTable, n: int) -> int:
    n = int(n)
    if n < 1 or n > table.limit:
        raise RangeError(f"n={n} outside table range 1..{table.limit}")
    return n


def liouville(table: ArithTable, n: int) -> int:
    """lambda(n) = (-1)^Omega(n); completely multiplicative, lambda(1) = 1."""
    return int(table.liouville[_check_range(table, n)])


def mobius(table: ArithTable, n: int) -> int:
    """mu(n): 0 on non-squarefree n, else (-1)^(number of prime factors)."""
    return int(table.mobius[_check_range(table, n)])


def divisor_count(table: ArithTable, n: int) -> int:
    """d(n) = number of divisors of n."""
    return int(table.dcount[_check_range(table, n)])


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
    """The unique decomposition n = k*h^2 with k squarefree, via the spf sieve.

    Exact integer arithmetic: h = product of p^floor(e/2) over p^e || n.
    """
    n = _check_range(table, n)
    h = 1
    m = n
    while m > 1:
        p = int(table.spf[m])
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        h *= p ** (e // 2)
    return n // (h * h), h


# ---------------------------------------------------------------------------
# table cache file
# ---------------------------------------------------------------------------

def _sha256(arr: np.ndarray) -> str:
    return hashlib.sha256(arr).hexdigest()


def save_table(table: ArithTable, path: str | os.PathLike) -> None:
    """Dump the table so later runs can skip the sieve.

    Layout: magic, one JSON header line (limit, and per array its name,
    dtype, length and the sha256 of its bytes), then the raw little-endian
    array bytes in fixed field order: spf, liouville, mobius and dcount of
    length limit + 1, beta_odd and nu_odd of length (limit + 1) // 2.
    Integers round-trip exactly and nu_odd bitwise; nu_cumsum_odd is summed
    again on load.  The arrays are hashed on HASH_WORKERS threads, then
    written straight from memory to a temporary file that replaces `path`
    once complete, so no reader sees a short file.
    """
    from concurrent.futures import ThreadPoolExecutor  # off the CLI's start-up path

    arrays = [np.ascontiguousarray(getattr(table, name), dtype=dtype)
              for name, dtype, _ in _CACHE_FIELDS]
    with ThreadPoolExecutor(HASH_WORKERS) as pool:
        digests = list(pool.map(_sha256, arrays))
    header = {
        "limit": table.limit,
        "fields": [{"name": name, "dtype": arr.dtype.str, "len": int(arr.shape[0]),
                    "sha256": digest}
                   for (name, _, _), arr, digest in zip(_CACHE_FIELDS, arrays, digests)],
    }
    head = CACHE_MAGIC + b"\n" + json.dumps(header, sort_keys=True).encode("ascii") + b"\n"
    tmp = f"{os.fspath(path)}.{os.urandom(6).hex()}.tmp"  # same directory
    try:
        with open(tmp, "xb") as fh:
            fh.write(head)
            fh.writelines(arrays)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # the write or the replace failed
            os.unlink(tmp)


def load_table(path: str | os.PathLike) -> ArithTable:
    """Read a table written by save_table, verifying magic and checksums.

    Every header length must be limit + 1, or (limit + 1) // 2 for an odd
    half, and match the file size before anything is allocated.  The arrays
    share one allocation.  Each is read in place and handed to one of
    HASH_WORKERS threads at once, so reading the next array overlaps with
    hashing this one and the payload is held once; the digests are compared
    in field order after the last read.
    """
    from concurrent.futures import ThreadPoolExecutor  # off the CLI's start-up path

    with open(path, "rb") as fh:
        magic = fh.readline().rstrip(b"\n")
        if magic != CACHE_MAGIC:
            raise CacheFormatError(f"bad magic {magic!r} in {path}")
        try:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
            header = json.loads(fh.readline().decode("ascii"))
            limit = int(header["limit"])
            fields = [(f["name"], f["dtype"], f["len"], f["sha256"]) for f in header["fields"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise CacheFormatError(f"unreadable header in {path}: {exc}") from exc
        if not all(isinstance(sha, str) for *_, sha in fields):
            raise CacheFormatError(f"unreadable header in {path}: a sha256 is not a string")
        if limit < 1:
            raise CacheFormatError(f"limit {limit} < 1 in {path}")
        expected = [(name, np.dtype(dtype).str) for name, dtype, _ in _CACHE_FIELDS]
        if [(name, dtype) for name, dtype, _, _ in fields] != expected:
            raise CacheFormatError(f"unexpected field layout in {path}")
        lengths = [(limit + 1) // 2 if odd_only else limit + 1 for *_, odd_only in _CACHE_FIELDS]
        for (name, _, length, _), want in zip(fields, lengths):
            if length != want:
                raise CacheFormatError(f"field length of {name} is {length}, not {want} "
                                       f"for limit {limit} in {path}")
        sizes = [length * np.dtype(dtype).itemsize
                 for length, (_, dtype, _) in zip(lengths, _CACHE_FIELDS)]
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if left != sum(sizes):
            raise CacheFormatError(f"{left} payload bytes disagree with the header in {path}")
        # one block for the stored arrays, each a view starting on a 16-byte
        # boundary; separate arrays can come from the heap after the first
        # load, where the hashing threads' small allocations can keep a freed
        # table resident (peak RSS +5 MB in repeated loads)
        spans = [-(-size // 16) * 16 for size in sizes]
        block = np.empty(sum(spans), dtype=np.uint8)
        arrays, lo, digests = {}, 0, []
        for (name, dtype, _), length, span in zip(_CACHE_FIELDS, lengths, spans):
            arrays[name] = block[lo:lo + span].view(dtype)[:length]
            lo += span
        with ThreadPoolExecutor(HASH_WORKERS) as pool:  # joins its threads on any exit
            for name, arr in arrays.items():
                if fh.readinto(arr) != arr.nbytes:
                    raise CacheFormatError(f"short read of {name} in {path}")
                digests.append(pool.submit(_sha256, arr))
    for (name, _, _, sha), digest in zip(fields, digests):
        if digest.result() != sha:
            raise CacheFormatError(f"checksum mismatch in field {name} of {path}")
    return ArithTable(limit=limit, **arrays)
