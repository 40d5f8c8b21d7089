"""Sieve tables against brute-force oracles, invariants, and the cache file."""

import dataclasses
import hashlib
import io
import json
import math
import os
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from liouville_mellin import (CacheFormatError, DomainError,
                              InvalidArgumentError, RangeError,
                              beta_value, build_table, divisor_count,
                              liouville, load_table, mobius, nu_partial_sum,
                              nu_value, save_table, sqfree_square_split)
from liouville_mellin import arith
from liouville_mellin.arith import CACHE_MAGIC

from oracles import (beta_brute, dcount_brute, factorize, liouville_brute,
                     mobius_brute, nu_brute, sqfree_square_brute)


def test_single_entry_base_case():
    t = build_table(1)
    assert liouville(t, 1) == 1
    assert mobius(t, 1) == 1
    assert beta_value(t, 1) == 1
    assert nu_value(t, 1) == 1.0
    assert nu_partial_sum(t, 1) == 1.0


def test_liouville_first_ten(table_small):
    # brute-force Omega parity by trial division
    expected = [liouville_brute(n) for n in range(1, 11)]
    assert expected == [1, -1, -1, 1, -1, 1, -1, -1, 1, 1]
    assert [liouville(table_small, n) for n in range(1, 11)] == expected


def test_liouville_point_values(table_small):
    assert liouville(table_small, 1) == 1
    assert liouville(table_small, 7) == -1       # prime
    assert liouville(table_small, 12) == -1      # 2*2*3, Omega = 3


def test_arrays_match_brute_force(table_small):
    for n in range(1, 3002 if False else 1202):
        assert liouville(table_small, n) == liouville_brute(n), n
        assert mobius(table_small, n) == mobius_brute(n), n
    for n in range(1, 202):
        assert divisor_count(table_small, n) == dcount_brute(n), n
    for n in range(1, 1202, 2):
        assert beta_value(table_small, n) == beta_brute(n), n


def test_liouville_completely_multiplicative(table_small):
    rng = np.random.default_rng(7)
    for _ in range(300):
        a = int(rng.integers(1, 54))
        b = int(rng.integers(1, 54))
        assert (liouville(table_small, a * b)
                == liouville(table_small, a) * liouville(table_small, b))


def test_beta_examples(table_small):
    assert beta_value(table_small, 1) == 1      # k=1, h=1
    assert beta_value(table_small, 9) == 3      # 9 = 1*3^2
    assert beta_value(table_small, 45) == -3    # 45 = 5*3^2, mu(5) = -1


def test_beta_even_rejected_but_stored_zero(table_small):
    with pytest.raises(DomainError):
        beta_value(table_small, 10)
    assert table_small.beta[10] == 0
    assert np.all(table_small.beta[2::2] == 0)
    assert np.all(table_small.nu[2::2] == 0.0)


def test_sqfree_square_split(table_small):
    for n in (1, 9, 45, 121, 2023, 720, 1024):
        assert sqfree_square_split(table_small, n) == sqfree_square_brute(n)


def test_beta_magnitude_is_square_root_part(table_small):
    for n in range(1, 1202, 2):
        _, h = sqfree_square_split(table_small, n)
        assert abs(beta_value(table_small, n)) == h


def test_nu_values(table_small):
    assert nu_value(table_small, 1) == 1.0
    assert nu_value(table_small, 2) == 0.0
    # 3 nu(3) = mu(1) beta(3)/sqrt(3) + mu(3) beta(1) = -1/sqrt(3) - 1
    closed = -(1.0 + 3.0 ** -0.5) / 3.0
    assert nu_value(table_small, 3) == pytest.approx(closed, abs=1e-15)
    for n in list(range(1, 90)) + [99, 105, 315, 525, 1001, 2925]:
        assert nu_value(table_small, n) == pytest.approx(nu_brute(n), abs=1e-13)


def test_nu_partial_sums(table_small):
    assert nu_partial_sum(table_small, 1) == 1.0
    assert nu_partial_sum(table_small, 2) == 1.0
    expected = 1.0 - (1.0 + 3.0 ** -0.5) / 3.0
    assert nu_partial_sum(table_small, 3) == pytest.approx(expected, abs=1e-15)
    diffs = np.diff(table_small.nu_cumsum)
    assert np.allclose(diffs, table_small.nu[1:], rtol=0, atol=1e-16)


def test_convolution_identity(table_small):
    # sum_{l|n} l nu(l) = beta(n)/sqrt(n) for odd n
    for n in range(1, 3001, 2):
        acc = sum(l * nu_value(table_small, l)
                  for l in range(1, n + 1) if n % l == 0)
        assert acc == pytest.approx(beta_value(table_small, n) / math.sqrt(n),
                                    abs=1e-12), n


def test_convolution_identity_100k(table_100k):
    # the closed-form nu against its defining convolution at every odd n
    n = table_100k.limit
    conv = np.zeros(n + 1)
    for l in range(1, n + 1, 2):
        conv[l::2 * l] += l * table_100k.nu[l]
    odd = np.arange(1, n + 1, 2)
    target = table_100k.beta[1::2] / np.sqrt(odd)
    assert np.abs(conv[1::2] - target).max() <= 1e-12


# sha256 of the raw array bytes at limit 100_001, recorded from an
# independent per-prime-loop sieve
_DIGESTS_100K = {
    "spf": "8c706e670ba506d3977035bfda23fc500c314f0cd39148ac81114128d52097b3",
    "liouville": "f5a3c804bdbc75da6e7be4ee3e222fa86533b6b1eb27aea4202b3211632ec357",
    "mobius": "bbead92519d8305103ea8c2b6cbe8665345585853338720f74a4b2f7b320b294",
    "dcount": "08014ae1fd113e02994ac4cd770677e81eeae8fae8b53755454ac4167ff968a3",
    "beta": "6bfe7093609b056e0b0623e83fcb90c206c72a0bd7fe27af4793f8988a5cd0b6",
}


def test_integer_arrays_pinned_100k(table_100k):
    assert table_100k.limit == 100_001
    for name, digest in _DIGESTS_100K.items():
        arr = getattr(table_100k, name)
        assert hashlib.sha256(arr.tobytes()).hexdigest() == digest, name


# sha256 of nu and nu_cumsum at limit 100_001, recorded from the sweep sieve
# that peeled one prime power off every unfinished n per pass
_FLOAT_DIGESTS_100K = {
    "nu": "c43b0e6261f37ffa5752b7bd19d14339a14607b9dc6f7ee7c61c628efba17c70",
    "nu_cumsum": "c5cd6be8ea0a5e20f6687c62f0dbea44baced320b8b611dbf01318f27e93ee89",
}


def test_float_arrays_pinned_100k(table_100k):
    for name, digest in _FLOAT_DIGESTS_100K.items():
        arr = getattr(table_100k, name)
        assert hashlib.sha256(arr.tobytes()).hexdigest() == digest, name


@pytest.mark.parametrize("limit", [1, 2, 3, 3000, 3001])
def test_full_length_arrays_spread_the_odd_halves(limit):
    # the table holds beta, nu and S at odd n; the full-length arrays, built
    # on first access, put 0 at even n for beta and nu and S(2k-1) at S(2k),
    # which is np.cumsum of the full nu to the bit
    t = build_table(limit)
    assert not set(_FULL_LENGTH) & set(vars(t))
    assert len(t.beta_odd) == len(t.nu_odd) == len(t.nu_cumsum_odd) == (limit + 1) // 2
    assert t.nu_cumsum_odd.tobytes() == np.cumsum(t.nu_odd).tobytes()
    for full, half in ((t.beta, t.beta_odd), (t.nu, t.nu_odd)):
        assert full.dtype == half.dtype and len(full) == limit + 1
        assert np.array_equal(full[1::2], half) and not full[0::2].any()
    assert t.nu_cumsum.tobytes() == np.cumsum(t.nu).tobytes()
    assert t.beta is t.beta and t.nu is t.nu and t.nu_cumsum is t.nu_cumsum  # built once


_FULL_LENGTH = ("spf", "liouville", "mobius", "dcount", "beta", "nu", "nu_cumsum")


def _sieve_every_n(n):
    """The full-length arrays of a sieve over every n <= limit: build_table's
    loop before it kept the odd n only, as the reference."""
    root = math.isqrt(n)
    spf = np.zeros(n + 1, dtype=np.int32)
    lam = np.ones(n + 1, dtype=np.int8)
    dcount = np.ones(n + 1, dtype=np.int32)
    h = np.ones(n + 1, dtype=np.int32)
    smooth = np.ones(n + 1, dtype=np.int32)
    nu_weight = np.ones((n + 1) // 2, dtype=np.float64)
    weight = 1.0 + np.arange(1, root + 1) ** -0.5
    for p in range(2, root + 1):
        if spf[p]:
            continue
        np.copyto(spf[p::p], p, where=spf[p::p] == 0)
        if p > 2:
            nu_weight[p // 2::p] *= weight[p - 1]
        q, k = p, 1
        while q <= n:
            lam[q::q] *= -1
            if k > 1:
                dcount[q::q] //= k
            dcount[q::q] *= k + 1
            if k % 2 == 0:
                h[q::q] *= p
            smooth[q::q] *= p
            q, k = q * p, k + 1
    found = np.flatnonzero(spf == 0)[2:]
    spf[found] = found
    rest = np.arange(n + 1, dtype=np.int32) // smooth
    big = np.flatnonzero(rest[1::2] > 1)
    nu_weight[big] *= 1.0 + rest[1::2][big] ** -0.5
    big = np.flatnonzero(rest > 1)
    lam[big] *= -1
    dcount[big] *= 2
    lam[0] = dcount[0] = h[0] = 0
    beta = np.zeros(n + 1, dtype=np.int32)
    beta[1::2] = lam[1::2] * h[1::2]
    nu = np.zeros(n + 1)
    nu[1::2] = lam[1::2] * nu_weight / np.arange(1, n + 1, 2, dtype=np.float64)
    return {"spf": spf, "liouville": lam, "mobius": lam * (h == 1), "dcount": dcount,
            "beta": beta, "nu": nu, "nu_cumsum": np.cumsum(nu)}


@pytest.mark.parametrize("limit", [*range(1, 41), *(2 ** k + d for k in (10, 17)
                                                     for d in (-1, 0, 1))])
def test_full_length_arrays_match_a_sieve_over_every_n(limit):
    # the arrays built from the odd halves by the 2-adic rule, and spf, are
    # those of the sieve that stored every n, dtype and bits
    t = build_table(limit)
    for name, want in _sieve_every_n(limit).items():
        got = getattr(t, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    for name in ("liouville", "mobius", "dcount", "beta", "nu"):
        for lo, hi in ((0, limit + 1), (1, limit + 1), (limit // 3, limit // 2 + 1)):
            assert np.array_equal(t.spread(name, lo, hi), getattr(t, name)[lo:hi]), name


def test_point_api_reads_the_odd_halves():
    # lambda, mu, d and n = k h^2 at every n <= 5000 by the 2-adic rule,
    # against trial division, with no full-length array built
    t = build_table(5000)
    for n in range(1, 5001):
        assert liouville(t, n) == liouville_brute(n), n
        assert mobius(t, n) == mobius_brute(n), n
        assert divisor_count(t, n) == dcount_brute(n), n
        assert sqfree_square_split(t, n) == sqfree_square_brute(n), n
    assert not set(_FULL_LENGTH) & set(vars(t))


def test_every_entry_matches_trial_division():
    # lambda, mu, d, beta from each n's factorization; nu from its closed form
    # and S(n) by fsum, against build_table(5000) at every n
    t = build_table(5000)
    nus = [0.0]
    for n in range(1, 5001):
        fac = factorize(n)
        lam = (-1) ** sum(fac.values())
        h = math.prod(p ** (e // 2) for p, e in fac.items())
        assert t.liouville[n] == lam, n
        assert t.mobius[n] == (lam if h == 1 else 0), n
        assert t.dcount[n] == math.prod(e + 1 for e in fac.values()), n
        assert t.spf[n] == min(fac, default=0), n
        if n % 2 == 0:
            assert t.beta[n] == 0 and t.nu[n] == 0.0, n
            nus.append(0.0)
            continue
        assert t.beta[n] == lam * h, n  # mu(k) = lam(k) = lam(n) for n = k h^2
        nus.append(lam / n * math.prod(1.0 + p ** -0.5 for p in sorted(fac)))
        assert t.nu[n] == pytest.approx(nus[n], rel=1e-15, abs=0), n
        assert t.nu_cumsum[n] == pytest.approx(math.fsum(nus), rel=0, abs=1e-14), n


def test_bound_scans_small(table_small):
    n = np.arange(1, 3002, 2, dtype=np.float64)
    ratio = table_small.beta[1::2] / np.sqrt(n)
    assert ratio.min() > -1.0
    assert ratio.max() <= 1.0 + 1e-12
    sq = np.sqrt(n).astype(np.int64) ** 2 == n.astype(np.int64)
    assert np.array_equal(np.abs(ratio - 1.0) < 1e-12, sq)
    idx = np.arange(1, 3002, dtype=np.float64)
    assert np.all(np.abs(table_small.nu[1:]) <= table_small.dcount[1:] / idx + 1e-15)


def test_argument_validation(table_small):
    with pytest.raises(InvalidArgumentError):
        build_table(0)
    with pytest.raises(RangeError):
        liouville(table_small, 0)
    with pytest.raises(RangeError):
        nu_value(table_small, 3002)
    with pytest.raises(RangeError):
        nu_partial_sum(table_small, -5)
    # the point API takes integer types only: neither truncated floats nor strings
    for f in (liouville, mobius, divisor_count, beta_value, nu_value, nu_partial_sum,
              sqfree_square_split):
        for n in (2.7, "5"):
            with pytest.raises(InvalidArgumentError, match="must be an integer"):
                f(table_small, n)
        assert f(table_small, np.int64(5)) == f(table_small, 5)


def test_limit_past_int32_refused_before_allocation():
    # the sieve's n, dcount and beta are int32, so a larger limit would wrap silently;
    # 2**31 entries would need some 60 GB, so this returns only if nothing is allocated
    tracemalloc.start()
    try:
        with pytest.raises(InvalidArgumentError, match="< 2"):
            build_table(2**31)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_cache_round_trip_bit_exact(table_small, tmp_path):
    path = tmp_path / "arith.bin"
    save_table(table_small, path)
    loaded = load_table(path)
    assert loaded.limit == table_small.limit
    for name in ("liouville_odd", "mobius_odd", "dcount_odd", "beta_odd",
                 "spf", "liouville", "mobius", "dcount", "beta"):
        assert np.array_equal(getattr(loaded, name), getattr(table_small, name)), name
    # float arrays must round-trip bitwise; the file holds no S, which the
    # loaded table sums again from nu_odd
    for name in ("nu_odd", "nu_cumsum_odd", "nu", "nu_cumsum"):
        assert getattr(table_small, name).tobytes() == getattr(loaded, name).tobytes(), name
    assert path.read_bytes().startswith(CACHE_MAGIC)


def test_cache_rejects_corruption(table_small, tmp_path):
    from liouville_mellin import CacheFormatError
    path = tmp_path / "arith.bin"
    save_table(table_small, path)
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CacheFormatError):
        load_table(path)
    path.write_bytes(b"NOTMAGIC\n{}\n")
    with pytest.raises(CacheFormatError):
        load_table(path)


def _saved_parts(table, path):
    """Save `table` to `path` and split the file into (header dict, payload)."""
    save_table(table, path)
    _, header, payload = path.read_bytes().split(b"\n", 2)
    return json.loads(header), payload


def _write_cache(path, header, payload, rehash=False):
    if rehash:  # each field's sha256 over its slice of the payload
        fields, lo = [], 0
        for f in header["fields"]:
            hi = lo + f["len"] * np.dtype(f["dtype"]).itemsize
            fields.append(dict(f, sha256=hashlib.sha256(payload[lo:hi]).hexdigest()))
            lo = hi
        header = dict(header, fields=fields)
    path.write_bytes(CACHE_MAGIC + b"\n"
                     + json.dumps(header, sort_keys=True).encode("ascii") + b"\n" + payload)


def test_cache_rejects_lengths_that_disagree_with_limit(table_small, tmp_path):
    # each sha covers its field's bytes only, so both headers below carry valid ones
    path = tmp_path / "arith.bin"
    header, payload = _saved_parts(table_small, path)
    # limit 10 with its own moment layout, so that only the lengths disagree
    _write_cache(path, dict(header, limit=10, moments=arith._moment_layout(10)), payload)
    with pytest.raises(CacheFormatError, match="field length"):
        load_table(path)
    fields = [dict(f) for f in header["fields"]]
    fields[2]["len"] -= 1  # dcount_odd, int32: 4 bytes fewer
    fields[0]["len"] += 4  # liouville_odd, int8: 4 bytes more
    _write_cache(path, dict(header, fields=fields), payload)
    with pytest.raises(CacheFormatError, match="field length"):
        load_table(path)


def test_cache_rejects_an_unreadable_header_or_another_field_order(table_small, tmp_path):
    path = tmp_path / "arith.bin"
    header, payload = _saved_parts(table_small, path)
    path.write_bytes(CACHE_MAGIC + b"\nnot json\n" + payload)
    with pytest.raises(CacheFormatError, match="unreadable header"):
        load_table(path)
    _write_cache(path, dict(header, fields=header["fields"][::-1]), payload)
    with pytest.raises(CacheFormatError, match="unexpected field layout"):
        load_table(path)


def test_cache_refuses_a_limit_or_length_that_is_not_a_json_integer(table_small, tmp_path):
    # int() would read 3001.5 and "3001" as 3001, and 1501.0 equals 1501: each
    # header below once loaded as the 3001 table
    path = tmp_path / "arith.bin"
    header, payload = _saved_parts(table_small, path)
    assert load_table(path).limit == 3001
    float_len = [dict(f, len=float(f["len"])) if f["name"] == "mobius_odd" else f
                 for f in header["fields"]]
    for other in (dict(header, limit=3001.5), dict(header, limit="3001"),
                  dict(header, limit=True), dict(header, fields=float_len)):
        _write_cache(path, other, payload)
        with pytest.raises(CacheFormatError, match="is not an integer"):
            load_table(path)


def test_cache_rejects_limit_below_one(table_small, tmp_path):
    # a self-consistent header and payload for limit 0, which build_table refuses
    path = tmp_path / "arith.bin"
    header, _ = _saved_parts(table_small, path)
    fields = [dict(f, len=1) for f in header["fields"]]
    stored = dict(vars(table_small), **{f"moments_{w}": table_small.tail_moments(w)
                                        for w in arith.MOMENT_EXPONENTS})
    payload = b"".join(stored[f["name"]][:1].tobytes() for f in fields)
    _write_cache(path, dict(header, limit=0, fields=fields), payload, rehash=True)
    with pytest.raises(CacheFormatError, match="limit 0"):
        load_table(path)


def test_cache_rejects_truncated_or_trailing_payload(table_small, tmp_path):
    path = tmp_path / "arith.bin"
    header, payload = _saved_parts(table_small, path)
    for bad in (payload[:-1], payload[:-8], payload + bytes(8)):
        _write_cache(path, header, bad, rehash=True)
        with pytest.raises(CacheFormatError, match="payload bytes"):
            load_table(path)


def test_cache_rejects_short_read(table_small, tmp_path, monkeypatch):
    # the file loses its last 8 bytes after its size was taken
    path = tmp_path / "arith.bin"
    save_table(table_small, path)
    path.write_bytes(path.read_bytes()[:-8])
    real_fstat = os.fstat
    monkeypatch.setattr(os, "fstat",
                        lambda fd: SimpleNamespace(st_size=real_fstat(fd).st_size + 8))
    with pytest.raises(CacheFormatError, match="short read"):
        load_table(path)


def test_cache_names_the_field_that_fails_its_checksum(table_small, tmp_path):
    # one flipped byte in any field, the moments too, names that field
    path = tmp_path / "arith.bin"
    header, payload = _saved_parts(table_small, path)
    threads = threading.active_count()
    load_table(path)
    assert threading.active_count() == threads  # the hashing workers are joined
    lo = 0
    for f in header["fields"]:
        raw = bytearray(payload)
        raw[lo] ^= 0x01  # the first byte of this field
        _write_cache(path, header, bytes(raw))
        with pytest.raises(CacheFormatError, match=f"mismatch in field {f['name']} of "):
            load_table(path)
        assert threading.active_count() == threads
        lo += f["len"] * np.dtype(f["dtype"]).itemsize
    no_sha = {k: v for k, v in header["fields"][2].items() if k != "sha256"}
    for dcount in (no_sha, dict(no_sha, sha256=None)):
        fields = [*header["fields"][:2], dcount, *header["fields"][3:]]
        _write_cache(path, dict(header, fields=fields), payload)
        with pytest.raises(CacheFormatError, match="unreadable header"):
            load_table(path)


def test_cache_checks_fields_in_file_order_although_nu_is_read_first(table_100k, tmp_path):
    # load_table reads and hashes nu_odd (the last field on disk) first and
    # sums S while the digests run; the digests are still checked in field order
    path = tmp_path / "arith.bin"
    header, payload = _saved_parts(table_100k, path)
    start, lo = {}, 0
    for f in header["fields"]:
        start[f["name"]], lo = lo, lo + f["len"] * np.dtype(f["dtype"]).itemsize
    middle = {"nu_odd": start["nu_odd"] + 8 * 31_337 + 3,
              "liouville_odd": start["liouville_odd"] + 27_183}
    for flipped, named in ((["nu_odd"], "nu_odd"), (["liouville_odd"], "liouville_odd"),
                           (["nu_odd", "liouville_odd"], "liouville_odd")):
        raw = bytearray(payload)
        for name in flipped:
            raw[middle[name]] ^= 0x10
        _write_cache(path, header, bytes(raw))
        with pytest.raises(CacheFormatError, match=f"mismatch in field {named} of "):
            load_table(path)
    _write_cache(path, header, payload)
    loaded = load_table(path)
    for f in dataclasses.fields(loaded):
        assert np.array_equal(getattr(loaded, f.name), getattr(table_100k, f.name)), f.name


def test_cache_refuses_odd_halves_of_another_length_before_allocating(table_small,
                                                                     tmp_path):
    # every stored array covers the (limit + 1) // 2 odd n.  A header giving
    # one of them the full length limit + 1, with the payload grown to match,
    # is refused by that length; at limit 2**30 it is refused with nothing
    # allocated, where the table would take some 14 GB
    path = tmp_path / "arith.bin"
    header, payload = _saved_parts(table_small, path)
    for field in (f for f in header["fields"] if f["name"].endswith("_odd")):
        name = field["name"]
        fields = [dict(f, len=3002) if f["name"] == name else f for f in header["fields"]]
        extra = 1501 * np.dtype(field["dtype"]).itemsize
        _write_cache(path, dict(header, fields=fields), payload + bytes(extra), rehash=True)
        with pytest.raises(CacheFormatError, match=f"field length of {name} is 3002, not 1501"):
            load_table(path)
        limit = 2 ** 30
        fields = [dict(f, len=limit + 1 if f["name"] == name else limit // 2)
                  for f in header["fields"]]
        # the moments' layout of that limit, so that only the lengths disagree
        _write_cache(path, dict(header, limit=limit, moments=arith._moment_layout(limit),
                                fields=fields), payload)
        tracemalloc.start()
        try:
            with pytest.raises(CacheFormatError, match=f"field length of {name}"):
                load_table(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak


@pytest.mark.parametrize("limit", [3001, 100_001])
def test_loaded_moments_are_the_built_ones(limit, table_small, table_100k, tmp_path,
                                           monkeypatch):
    # save_table sums a sieved table's tail moments at the kernel depth; the
    # table read back holds them, to the bit, and sums nothing on load or on
    # first use
    built = dataclasses.replace(table_small if limit == 3001 else table_100k)  # none summed
    assert built.tail_moments("nu").tobytes() == arith.sum_tail_moments(
        arith.weight_readers(built)["nu"], 1, arith.kernel_depth(limit)).tobytes()
    save_table(built, tmp_path / "arith.bin")
    monkeypatch.setattr(arith, "sum_tail_moments", None)  # a call raises TypeError
    loaded = load_table(tmp_path / "arith.bin")
    rows = len(arith.moment_breaks(arith.kernel_depth(limit)))
    for w in ("beta", "nu"):
        moments = loaded.tail_moments(w)
        assert moments.shape == (rows, arith.TAYLOR_TERMS + 1)
        assert moments.tobytes() == built.tail_moments(w).tobytes(), w
    assert rows == {3001: 13, 100_001: 18}[limit]


def test_cache_refuses_moments_of_another_layout(table_small, tmp_path, monkeypatch):
    # moments summed with another Taylor-term count, exponent offset or depth
    # are not those the kernels read: the header's layout must be this code's,
    # and the moment fields as long as that layout makes them
    path = tmp_path / "arith.bin"
    monkeypatch.setattr(arith, "TAYLOR_TERMS", 13)
    save_table(dataclasses.replace(table_small), path)
    monkeypatch.undo()
    with pytest.raises(CacheFormatError, match="moment layout"):
        load_table(path)
    header, payload = _saved_parts(table_small, path)
    assert header["moments"] == {"depth": 1501, "exponents": {"beta": 2, "nu": 1},
                                 "taylor_terms": 14}
    without = {k: v for k, v in header.items() if k != "moments"}
    for other in (dict(header, moments=dict(header["moments"], depth=1500)),
                  dict(header, moments=dict(header["moments"], exponents={"beta": 2, "nu": 0})),
                  without):
        _write_cache(path, other, payload)
        with pytest.raises(CacheFormatError, match="moment layout"):
            load_table(path)
    fields = [dict(f, len=210) if f["name"] == "moments_nu" else f for f in header["fields"]]
    _write_cache(path, dict(header, fields=fields), payload + bytes(8 * 15), rehash=True)
    with pytest.raises(CacheFormatError, match="field length of moments_nu is 210, not 195"):
        load_table(path)


def test_saved_bytes_pinned(table_small, tmp_path):
    # sha256 of the whole cache file for build_table(3001), recorded when
    # ARITHv6 added the kernels' tail moments after the ARITHv5 payload: that
    # payload is unchanged, the ARITHv4 file's liouville, mobius and dcount at
    # odd n, then its beta_odd and nu_odd, byte for byte
    path = tmp_path / "arith.bin"
    _, payload = _saved_parts(table_small, path)
    arrays = b"".join(getattr(table_small, name)[1::2].tobytes()
                      for name in ("liouville", "mobius", "dcount", "beta", "nu"))
    moments = b"".join(table_small.tail_moments(w).tobytes() for w in ("beta", "nu"))
    assert payload == arrays + moments
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "77fc01d395f7231aa9948550b78330dbd09d05ea441e9730a9430d115c6e261d")


def _table_bytes(table):
    """Bytes of the arrays a table holds from the start, not those built on access."""
    return sum(getattr(table, f.name).nbytes for f in dataclasses.fields(table)
               if f.name != "limit")


def test_load_table_holds_the_payload_once(table_100k, tmp_path):
    path = tmp_path / "arith.bin"
    save_table(table_100k, path)
    array_bytes = _table_bytes(table_100k)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        load_table(path)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * array_bytes, peak / array_bytes


def test_build_table_peak_memory(table_100k):
    # the sieve's working arrays and temporaries stay under twice the table
    array_bytes = _table_bytes(table_100k)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        build_table(table_100k.limit)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * array_bytes, peak / array_bytes


def test_save_over_a_cache_replaces_it_whole(tmp_path, monkeypatch):
    # the temporary file is preallocated to header plus payload before it is
    # written (where os has posix_fallocate); a save over an existing cache
    # leaves only the cache file, of exactly that size, holding the new table
    path = tmp_path / "arith.bin"
    save_table(build_table(3001), path)
    for limit in (101, 100):
        second = build_table(limit)
        save_table(second, path)
        assert [p.name for p in tmp_path.iterdir()] == ["arith.bin"]
        magic, header, payload = path.read_bytes().split(b"\n", 2)
        # 1 + 1 + 4 + 4 + 8 bytes per odd n, then two weights' moments: 8 breakpoints
        # (0, 1, 2, 4, 8, 16, 32 and the depth 51 or 50), 15 float64 each
        assert len(payload) == 18 * ((limit + 1) // 2) + 2 * 8 * 15 * 8
        assert path.stat().st_size == len(magic) + len(header) + 2 + len(payload)
        loaded = load_table(path)
        assert loaded.limit == limit
        for name, _ in arith._CACHE_FIELDS:
            assert getattr(loaded, name).tobytes() == getattr(second, name).tobytes(), name
        for w in arith.MOMENT_EXPONENTS:
            assert loaded.tail_moments(w).tobytes() == second.tail_moments(w).tobytes(), w
        monkeypatch.delattr(os, "posix_fallocate", raising=False)  # the second save without


def test_failed_save_keeps_the_previous_cache(table_small, tmp_path, monkeypatch):
    path = tmp_path / "arith.bin"
    save_table(table_small, path)
    before = path.read_bytes()

    class FailingFile(io.FileIO):
        """A file whose third write stops halfway."""

        writes = 0

        def write(self, data):
            self.writes += 1
            if self.writes == 3:
                super().write(memoryview(data)[:len(data) // 2])
                raise OSError("disk full")
            return super().write(data)

    monkeypatch.setattr(arith, "open", FailingFile, raising=False)
    with pytest.raises(OSError, match="disk full"):
        save_table(build_table(101), path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert load_table(path).limit == table_small.limit
    assert [p.name for p in tmp_path.iterdir()] == ["arith.bin"]
