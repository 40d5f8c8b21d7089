"""Harness behavior on a mid-sized table: structure, determinism, coverage."""

import dataclasses
import json
import math
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np

import pytest

from liouville_mellin import (InvalidArgumentError, NonConvergenceError, arith,
                              build_table, kernels, load_table, probe_decay, run_group,
                              save_table, verify, verify_bounds,
                              verify_functional_equations, verify_identity_MN,
                              verify_theorem1, verify_theorem2)
from liouville_mellin.quadrature import PANEL_NODES, panel_sequence
from liouville_mellin.verify import (GRID_GROUPS, GROUPS, KERNEL_SPLICE_X,
                                     default_theorem2_grid, list_checks, make_report,
                                     theorem2_max_x)


def test_report_invariants():
    r = make_report("demo.check", {"s": "2"}, 1.0 + 2.0j, 1.0 + 2.5j, tol_rel=1.0)
    assert r.abs_err == abs(complex(1, 2) - complex(1, 2.5))
    assert r.rel_err == r.abs_err / max(abs(complex(1, 2)), abs(complex(1, 2.5)))
    z = make_report("demo.zero", {}, 0.0, 0.0, tol_abs=0.0)
    assert z.rel_err == 0.0 and z.passed
    # one case per rule: a combined bound below abs_err fails within tol_abs
    assert not make_report("d", {}, 1.0, 1.0 + 1e-7, tol_abs=1e-6, budget={"combined": 1e-8}).passed
    assert not make_report("d", {}, 2.0, 2.0, rule="lhs < rhs").passed
    assert not make_report("d", {}, 0.0, 0.0, tol_abs=0.19, rule="not evaluated").passed
    assert make_report("d", {}, 5.0, 0.0).passed  # no limit printed: informational
    with pytest.raises(KeyError):
        make_report("d", {}, 1.0, 2.0, rule="lhs <= rhs")


def test_theorem1_reports(table_100k):
    reports = verify_theorem1(table_100k)
    ids = {r.check_id for r in reports}
    assert ids == {"theorem1.checkpoint", "theorem1.final", "theorem1.envelope"}
    final = [r for r in reports if r.check_id == "theorem1.final"][0]
    assert final.passed  # informational below the frozen-threshold scale
    env = [r for r in reports if r.check_id == "theorem1.envelope"][0]
    assert env.passed and env.lhs == 0.0
    # checkpoints carry S(N) values drifting toward zero
    cps = {r.inputs["N"]: r.lhs.real for r in reports
           if r.check_id == "theorem1.checkpoint"}
    assert cps[1] == 1.0
    assert abs(cps[max(cps)]) < 0.01


def test_theorem1_checkpoint_values(table_100k):
    # the default checkpoints are the powers of two; nu(4) = 0, so S(4) = S(3)
    reports = verify_theorem1(table_100k)
    vals = {r.inputs["N"]: r.lhs.real for r in reports
            if r.check_id == "theorem1.checkpoint"}
    assert vals[1] == 1.0
    assert vals[2] == 1.0
    assert vals[4] == pytest.approx(1.0 - (1.0 + 3.0 ** -0.5) / 3.0, abs=1e-15)


def test_identity_group(table_100k):
    reports = verify_identity_MN(table_100k)
    assert all(r.passed for r in reports), [r.check_id for r in reports if not r.passed]
    points = [r for r in reports if r.check_id == "identity.point"]
    assert len(points) == 20
    coeffs = [r for r in reports if r.check_id == "identity.series-coeff"]
    assert len(coeffs) == 11 and all(r.rel_err <= 1e-10 for r in coeffs)


def test_identity_points_keep_off_the_poles():
    # a PoleError at a default point is a bug, not a skipped row
    for z in map(complex, verify.DEFAULT_IDENTITY_POINTS):
        assert all(abs(z - 1j * math.pi * (2 * l + 1)) >= 0.5 for l in range(-3, 3)), z


def test_identity_points_in_arrays_match_the_point_by_point_rows(table_100k):
    # one array per kernel and kind (real, complex)
    points = verify.DEFAULT_IDENTITY_POINTS
    rows = [r for r in verify_identity_MN(table_100k) if r.check_id == "identity.point"]
    # the rows come back in the group's sorted order (by z's string), whatever
    # the batches, as when each point was evaluated on its own
    assert [r.inputs["z"] for r in rows] == sorted(str(complex(z)) for z in points)
    for r in rows:
        z = complex(r.inputs["z"])
        nv, nb = kernels.kernel_N_with_bound(z, table_100k)
        mv, mb = kernels.kernel_M_with_bound(z, table_100k, form="half-shifted")
        assert (r.lhs, r.rhs) == (mv, nv)
        assert r.budget == {"n_tail_bound": nb, "m_tail_bound": mb, "combined": nb + mb,
                            "tol_abs": verify.IDENTITY_ABS_TOL}
        assert r.passed


def test_functional_group():
    reports = verify_functional_equations()
    assert all(r.passed for r in reports), [
        (r.check_id, r.inputs, r.rel_err) for r in reports if not r.passed]
    ids = {r.check_id for r in reports}
    assert "functional.riemann-classical" in ids
    assert "functional.alpha-beta" in ids
    assert "functional.lambda-alpha-bridge" in ids


def test_decay_group(table_100k):
    reports = probe_decay(table_100k)
    by_id = {}
    for r in reports:
        by_id.setdefault(r.check_id, []).append(r)
    assert all(r.passed for r in reports)
    assert by_id["decay.m-at-zero"][0].lhs == 0.0
    assert by_id["decay.m-prime-bound"][0].lhs.real <= 0.19
    info = by_id["decay.x-m-product"][0]
    assert "exploratory" in info.notes
    assert "open question" in info.notes


def test_bounds_group(table_100k):
    reports = verify_bounds(table_100k)
    assert all(r.passed for r in reports), [
        (r.check_id, r.abs_err, r.budget) for r in reports if not r.passed]
    ids = {r.check_id for r in reports}
    for expect in ("bounds.beta-ratio-scan", "bounds.dirichlet-lambda",
                   "bounds.convolution", "bounds.newman-trend",
                   "bounds.second-form", "bounds.swap-dominated"):
        assert expect in ids, expect


# (check_id, inputs, lhs, rhs, abs_err, budget) of every bounds row at
# limit 100_001, recorded before verify_bounds shared its arrays across checks;
# the partial-sum, Newman and four Dirichlet rows re-recorded when their sums
# became segment sums over odd n
BOUNDS_PINS_100K = [
    ("bounds.beta-abs-partial", {"n_max": 100001}, 1.9692848639623224 + 0j,
     4.297185206447276 + 0j, 2.327900342484954, {"cap": 4.297185206447276}),
    ("bounds.beta-ratio-equality", {"n_max": 100001}, 0j, 0j, 0.0, {"tol_abs": 0.0}),
    ("bounds.beta-ratio-scan", {"n_max": 100001}, 0j, 0j, 0.0,
     {"min_ratio": -0.5773502691896258, "max_ratio": 1.0, "tol_abs": 0.0}),
    ("bounds.convolution", {"n_max": 10000}, 1.8735013540549517e-15 + 0j, 0j,
     1.8735013540549517e-15, {"tol_abs": 1e-12}),
    ("bounds.dirichlet-beta", {"s": 3, "N": 100000}, 0.955052256230813 + 0j,
     0.9550522562306174 + 0j, 1.9562129693895258e-13,
     {"analytic_tail": 4.743416490252569e-08, "tol_abs": 4.743416490252569e-08}),
    ("bounds.dirichlet-lambda", {"s": 3, "N": 100001}, 0.8463351937086587 + 0j,
     0.8463351937086947 + 0j, 3.597122599785507e-14,
     {"analytic_tail": 4.99999999850004e-11, "tol_abs": 4.99999999850004e-11}),
    ("bounds.dirichlet-mu", {"s": 3, "N": 100001}, 0.831907372580656 + 0j,
     0.8319073725807073 + 0j, 5.140332604014475e-14,
     {"analytic_tail": 4.99999999850004e-11, "tol_abs": 4.99999999850004e-11}),
    ("bounds.dirichlet-nu", {"s": 3, "N": 100001}, 0.9777715988856752 + 0j,
     0.977771598885675 + 0j, 2.220446049250313e-16,
     {"analytic_tail": 4.7025060169927817e-14,
      "note": "d(n)/n^4 tail plus double-precision allowance",
      "tol_abs": 4.7025060169927817e-14}),
    ("bounds.dirichlet-nu-s1", {"s": 1, "N": 100001}, 0.7447564796542107 + 0j,
     0.744756481075786 + 0j, 1.421575301918665e-09,
     {"abel_tail": 1.079989200107999e-08, "tail_kind": "empirical S envelope",
      "tol_abs": 1.079989200107999e-08}),
    ("bounds.newman-trend", {"early": "2^8..2^12", "late": "2^16.."},
     0.000411902821066611 + 0j, 0.014334880019169745 + 0j, 0.013922977198103134, {}),
    ("bounds.nu-divisor-scan", {"n_max": 100001}, 0j, 0j, 0.0, {"tol_abs": 0.0}),
    ("bounds.second-form", {"s": -1.25, "terms": 50001}, 0.12014319892055798 + 0j,
     0.12014319877165915 + 0j, 1.488988377040812e-10,
     {"analytic_tail": 1.59916474399587e-05, "tol_abs": 1.59916474399587e-05}),
    ("bounds.swap-dominated", {"sigma": -1.0, "N": 1000}, 1.0193664098143014 + 0j,
     1.3474364777155077 + 0j, 0.3280700679012063, {}),
    ("bounds.swap-dominated", {"sigma": -1.0, "N": 10000}, 1.0202438022688674 + 0j,
     1.3474364777155077 + 0j, 0.3271926754466403, {}),
]


def _odd_scans_apart(table):
    """The values of verify_bounds' odd-n pass as separate scans over whole
    arrays: the ratio and divisor scan, the second-form series and the sum
    of |beta(n)| n^-3/2, each one np.sum, and the Newman ends as per-segment
    np.sums added in ascending order, the segments cut at the Newman ends and
    where n 2^a <= min(10^6, limit) < n 2^(a+1) changes a."""
    n = arith.odd(0, (table.limit + 1) // 2)
    root = np.sqrt(n)
    r = table.beta_odd / root
    is_square = root.astype(np.int64) ** 2 == n
    ends = {2 ** (k - 1): k for k in (*range(8, 13), *range(16, 22)) if 2 ** k <= table.limit}
    n_dir = min(10 ** 6, table.limit)
    cuts = sorted({0, *ends, *(((n_dir >> a) + 1) // 2 for a in range(n_dir.bit_length()))})
    mu_n, newman, at = table.mobius_odd / n, 0.0, {}
    for lo, hi in zip(cuts, cuts[1:]):
        if lo >= max(ends, default=0):
            break
        newman += float(np.sum(mu_n[lo:hi]))
        if hi in ends:
            at[ends[hi]] = abs(newman)
    early = [at[k] for k in range(8, 13) if k in at]
    late = [at[k] for k in range(16, 22) if k in at]
    return {
        "bounds.beta-ratio-scan": (
            float(np.count_nonzero((r <= -1.0) | (r > 1.0 + 1e-12))),
            {"min_ratio": float(r.min()), "max_ratio": float(r.max())}),
        "bounds.beta-ratio-equality": float(np.count_nonzero(
            (np.abs(r - 1.0) < 1e-12) != is_square)),
        "bounds.nu-divisor-scan": float(np.count_nonzero(
            np.abs(table.nu_odd) > table.dcount_odd / n + 1e-15)),
        "bounds.beta-abs-partial": float(np.sum(np.abs(r) / n)),
        "bounds.newman-trend": (max(late), max(early)) if early and late else None,
        "bounds.second-form": float(np.sum(table.beta_odd / np.sqrt(n)
                                           * (np.pi * n) ** (-1.25 - 0.5))),
    }


def _odd_pass_rows(table):
    rows = {r.check_id: r for r in verify_bounds(table)}
    got = {cid: rows[cid].lhs.real for cid in ("bounds.beta-ratio-equality",
                                               "bounds.nu-divisor-scan",
                                               "bounds.beta-abs-partial",
                                               "bounds.second-form")}
    scan = rows["bounds.beta-ratio-scan"]
    got["bounds.beta-ratio-scan"] = (scan.lhs.real, {k: scan.budget[k]
                                                     for k in ("min_ratio", "max_ratio")})
    trend = rows.get("bounds.newman-trend")
    got["bounds.newman-trend"] = trend and (trend.lhs.real, trend.rhs.real)
    return got


@pytest.mark.parametrize("scan", [1 << 16, 128])
def test_odd_pass_matches_three_separate_scans(scan, table_100k, monkeypatch):
    monkeypatch.setattr(arith, "SCAN", scan)  # 128: hundreds of leaves
    for table in (table_100k, build_table(3001), build_table(9), build_table(1)):
        assert _odd_pass_rows(table) == _odd_scans_apart(table), table.limit


def test_odd_pass_counts_violations_like_the_separate_scans(monkeypatch):
    # a table broken on purpose: ratios outside (-1, 1], ratios below 1 at odd
    # squares, one above 3^-1/2 elsewhere, |nu| above d(n)/n; the fused leaf
    # counts each as the separate scans do, at every leaf length
    table = build_table(20_001)
    table.beta_odd = table.beta_odd.copy()
    table.nu_odd = table.nu_odd.copy()
    table.beta_odd[[10, 4000, 9000]] = [-5, 300, 200]  # n = 21, 8001, 18001
    table.beta_odd[[24, 4900]] = [3, 98]               # n = 7^2, 99^2
    table.beta_odd[7000] = 100                         # 100/sqrt(14001) = 0.845
    table.nu_odd[[7, 5000]] *= 50.0
    want = _odd_scans_apart(table)
    assert want["bounds.beta-ratio-scan"][0] == 3.0
    assert want["bounds.beta-ratio-equality"] == 2.0
    assert want["bounds.nu-divisor-scan"] == 2.0
    for scan in (128, 1000, 1 << 16):
        monkeypatch.setattr(arith, "SCAN", scan)
        assert _odd_pass_rows(table) == want, scan


def test_bounds_rows_reproduce_recorded_values(table_100k):
    rows = [repr((r.check_id, r.inputs, r.lhs, r.rhs, r.abs_err, r.budget))
            for r in verify_bounds(table_100k)]
    assert rows == [repr(pin) for pin in BOUNDS_PINS_100K]


_BOUNDS_LIMITS = [1, 2, 3, 5, 9, 3001, 100_001]


@pytest.mark.parametrize("limit", _BOUNDS_LIMITS)
def test_bounds_read_the_odd_halves_only(limit, table_100k, monkeypatch):
    table = table_100k if limit == 100_001 else build_table(limit)
    want = [repr(r.to_record()) for r in verify_bounds(table)]

    def refuse(*args):
        raise AssertionError("verify_bounds read a full-length view")

    monkeypatch.setattr(arith.ArithTable, "spread", refuse)
    for name in ("liouville", "mobius", "dcount", "beta", "nu", "nu_cumsum", "spf"):
        monkeypatch.setattr(arith.ArithTable, name, property(refuse))  # over any cached value
    assert [repr(r.to_record()) for r in verify_bounds(table)] == want


@pytest.mark.parametrize("limit", _BOUNDS_LIMITS)
def test_folded_dirichlet_sums_match_the_sums_over_every_n(limit, table_100k):
    # the 2-adic fold over odd n against an exact sum over every n <= N, within
    # the pairwise-summation bound (log2 N + 2) u sum |terms| (Higham, sec. 4.2)
    table = table_100k if limit == 100_001 else build_table(limit)
    N = min(10 ** 6, limit)
    n = np.arange(1, N + 1, dtype=np.float64)
    rows = {r.check_id: r.lhs.real for r in verify_bounds(table)}
    for check_id, name, power in (("bounds.dirichlet-lambda", "liouville", 3),
                                  ("bounds.dirichlet-mu", "mobius", 3),
                                  ("bounds.dirichlet-nu", "nu", 3),
                                  ("bounds.dirichlet-nu-s1", "nu", 1)):
        terms = table.spread(name, 1, N + 1) / n ** power
        bound = (math.ceil(math.log2(N)) + 2) * 2.0 ** -53 * math.fsum(np.abs(terms))
        assert abs(rows[check_id] - math.fsum(terms)) <= bound, check_id


@pytest.mark.parametrize("limit", [3001, 20001, 100_001])
def test_convolution_row_matches_the_loop_over_l(limit, table_100k):
    # the row's former loop: one strided pass per odd l, l ascending
    table = table_100k if limit == 100_001 else build_table(limit)
    n_conv = min(10 ** 4, limit)
    conv = np.zeros(n_conv + 1)
    for l in range(1, n_conv + 1, 2):
        contrib = l * table.nu_odd[l // 2]
        if contrib != 0.0:
            conv[l::2 * l] += contrib
    ratio = table.beta_odd[:(n_conv + 1) // 2] / np.sqrt(arith.odd(0, (n_conv + 1) // 2))
    row, = [r for r in verify_bounds(table) if r.check_id == "bounds.convolution"]
    assert row.lhs == float(np.abs(conv[1::2] - ratio).max())


def test_bounds_scan_allocates_under_the_table_size(table_main):
    array_bytes = sum(v.nbytes for v in vars(table_main).values()
                      if isinstance(v, np.ndarray))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        verify_bounds(table_main)
        extra = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert extra <= 0.8 * array_bytes, extra / array_bytes


_SUM_LENGTHS = [1, 7, 8, 127, 128, 129, arith.SCAN - 1, arith.SCAN + 1,
                2 * arith.SCAN + 3, 1_000_000, 1_000_001]


@pytest.mark.parametrize("n", _SUM_LENGTHS)
def test_chunked_sums_match_numpy_bit_for_bit(n):
    a = np.random.default_rng(n).standard_normal(n)
    term = lambda lo, hi: a[lo:hi].copy()
    assert arith.pairwise_sum(term, 0, n) == np.sum(a)
    if n > arith.SCAN:  # the data tell the pairwise order from the sequential
        assert np.cumsum(a)[-1] != np.sum(a)
    # a term of several rows: one sum per row
    rows = np.stack([a, a[::-1], a * np.pi])
    term = lambda lo, hi: rows[:, lo:hi].copy()
    assert np.array_equal(arith.pairwise_sum(term, 0, n),
                          [np.sum(row) for row in rows])

    def one_buffer(lo, hi):  # the same rows, handed out one at a time in one buffer
        buf = np.empty(hi - lo)
        for row in rows:
            buf[:] = row[lo:hi]
            yield buf

    assert np.array_equal(arith.pairwise_sum(one_buffer, 0, n),
                          [np.sum(row) for row in rows])


@pytest.mark.parametrize("limit", [1, 2, 3, 5, 3001, 100_001])
def test_scan_chunk_length_leaves_rows_unchanged(limit, table_100k, monkeypatch):
    # every sum over the table, the kernels' moments and block weights too
    base = table_100k if limit == 100_001 else build_table(limit)

    def rows():
        table = dataclasses.replace(base)  # the same arrays; moments and workspace anew
        reports = (verify_bounds(table) + verify_theorem1(table) + run_group("identity", table)
                   + probe_decay(table) + verify_theorem2(table, [-0.75, -1.1 + 0.3j]))
        return [repr(r.to_record()) for r in reports]

    monkeypatch.setattr(arith, "SCAN", 2 ** 40)  # one chunk per scan
    whole = rows()
    monkeypatch.setattr(arith, "SCAN", 128)
    assert rows() == whole


@pytest.mark.parametrize("check", [verify_bounds, verify_theorem1])
def test_table_scans_stay_small(check, table_main):
    # the arrays a table holds from the start (its dataclass fields), not
    # those built on access, so the bound does not depend on earlier tests
    array_bytes = sum(getattr(table_main, f.name).nbytes
                      for f in dataclasses.fields(table_main) if f.name != "limit")
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        check(table_main)
        extra = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert extra <= 0.1 * array_bytes, extra / array_bytes


def test_theorem2_smoke(table_100k):
    grid = [complex(-0.75), complex(-1.25), complex(-1.0, 0.5)]
    reports = verify_theorem2(table_100k, grid)
    assert len(reports) == 6  # both routes over the grid
    for r in reports:
        assert r.passed, (r.check_id, r.inputs, r.rel_err, r.notes)
        assert r.budget["tail_bound_kind"] == "empirical decay envelope"


# theorem-2 integrals (rhs) over the default grid and the plain M at
# x = 50, 100 on the 100,001 table, recorded while the real heads of N and M'
# were still summed term by term and M's came from Taylor blocks
THEOREM2_RHS_100K = {
    ("theorem2.m-form", "(-0.75+0.5j)"): (0.16153745533873975+0.39040485267678354j),
    ("theorem2.m-form", "(-0.75+0j)"): (0.19069630979042018+0j),
    ("theorem2.m-form", "(-0.75+1j)"): (0.1365379866756699+0.7662329320468481j),
    ("theorem2.m-form", "(-1+0.5j)"): (-0.027541927128072387+0.3685002671800295j),
    ("theorem2.m-form", "(-1+0j)"): (2.8486393909032686e-17+0j),
    ("theorem2.m-form", "(-1+1j)"): (-0.06657333271600793+0.766540671453575j),
    ("theorem2.m-form", "(-1.25+0.5j)"): (-0.21253479572502795+0.3400429579932591j),
    ("theorem2.m-form", "(-1.25+0j)"): (-0.17413874234169913+0j),
    ("theorem2.m-form", "(-1.25+1j)"): (-0.2904797911953364+0.746966281245607j),
    ("theorem2.n-form", "(-0.75+0.5j)"): (0.1615374557858541+0.39040485332386615j),
    ("theorem2.n-form", "(-0.75+0j)"): (0.19069631011797006+0j),
    ("theorem2.n-form", "(-0.75+1j)"): (0.13653798769107145+0.7662329335587386j),
    ("theorem2.n-form", "(-1+0.5j)"): (-0.027541927083640026+0.36850026792803803j),
    ("theorem2.n-form", "(-1+0j)"): (2.848639396241332e-17+0j),
    ("theorem2.n-form", "(-1+1j)"): (-0.0665733323622586+0.7665406733783142j),
    ("theorem2.n-form", "(-1.25+0.5j)"): (-0.21253479613648302+0.3400429587408873j),
    ("theorem2.n-form", "(-1.25+0j)"): (-0.17413874268371332+0j),
    ("theorem2.n-form", "(-1.25+1j)"): (-0.2904797917266635+0.7469662833262319j),
}
DECAY_M_100K = {50.0: 0.005491012938888324, 100.0: 0.0019042883342349406}


def test_block_heads_keep_recorded_values(table_100k):
    reports = verify_theorem2(table_100k)
    assert len(reports) == len(THEOREM2_RHS_100K)
    for r in reports:
        want = THEOREM2_RHS_100K[(r.check_id, r.inputs["s"])]
        assert abs(r.rhs - want) <= 1e-15 * abs(want), (r.check_id, r.inputs)
    checkpoints = {r.inputs["x"]: r.lhs.real for r in probe_decay(table_100k)
                   if r.check_id == "decay.m-checkpoint"}
    for x, want in DECAY_M_100K.items():
        assert abs(checkpoints[x] - want) <= 1e-16, x


def test_theorem2_scores_package_errors_but_raises_bugs(table_100k, monkeypatch):
    grid = [complex(-0.75)]

    def not_converged(integrand, s, series, max_x):
        raise NonConvergenceError("panel budget exhausted")

    monkeypatch.setattr(verify, "integrate_mellin", not_converged)
    reports = verify_theorem2(table_100k, grid)
    assert len(reports) == 2
    for r in reports:
        assert not r.passed
        assert r.notes == "integration failed: panel budget exhausted"

    def buggy(integrand, s, series, max_x):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(verify, "integrate_mellin", buggy)
    with pytest.raises(TypeError):
        verify_theorem2(table_100k, grid)


def test_theorem2_calls_each_kernel_route_once_per_rule(table_100k, monkeypatch):
    # the default grid shares its nodes: each route is asked once per Gauss
    # rule, and the plain route, shared by N and M past KERNEL_SPLICE_X,
    # evaluates each distinct far node once
    calls = {}
    for name in ("_kernel_N_real_array", "_kernel_M_half_real_array",
                 "_kernel_M_abel_real_array"):
        def counted(x, *args, _route=getattr(verify, name), _name=name, **kwargs):
            calls.setdefault(_name, []).append(len(x))
            return _route(x, *args, **kwargs)
        monkeypatch.setattr(verify, name, counted)
    verify_theorem2(table_100k)
    assert len(calls) == 3 and all(len(lengths) <= 2 for lengths in calls.values()), calls
    nodes = {0.5 * (a + b) + 0.5 * (b - a) * g
             for n in (PANEL_NODES, PANEL_NODES // 2)
             for a, b in panel_sequence(0.0, theorem2_max_x(table_100k))
             for g in np.polynomial.legendre.leggauss(n)[0].tolist()}
    far = [x for x in nodes if x > KERNEL_SPLICE_X]
    assert sum(calls["_kernel_M_abel_real_array"]) == len(far)


def test_theorem2_rows_do_not_depend_on_the_rest_of_the_grid(table_100k):
    # -1+2i caps its panel widths, so its node arrays differ from -0.75's;
    # each memo entry must serve only its own array
    grid = [complex(-0.75), complex(-1.0, 2.0)]
    single = [r for s in grid for r in verify_theorem2(table_100k, [s])]

    def dump(reports):
        return sorted(json.dumps(r.to_record(), sort_keys=True) for r in reports)

    assert dump(verify_theorem2(table_100k, grid)) == dump(single)


def test_residues_group(table_100k):
    reports = [r for r in verify_identity_MN(table_100k) if "residue" in r.check_id]
    assert all(r.passed for r in reports)
    assert {r.check_id for r in reports} == {"identity.residue-N",
                                             "identity.residue-M"}
    assert sorted(r.inputs["l"] for r in reports) == [0, 0, 1, 1, 2, 2]
    # only the poles whose beta(2l+1) the table holds
    assert [r.inputs["l"] for r in verify_identity_MN(build_table(3))
            if r.check_id == "identity.residue-N"] == [0, 1]


def test_run_group_all_covers_registry(table_100k):
    reports = run_group("all", table_100k)
    seen = {r.check_id for r in reports}
    for group, ids in list_checks().items():
        for cid in ids:
            assert cid in seen, f"{group}:{cid} missing from verify all"
    with pytest.raises(ValueError):
        run_group("nonsense", table_100k)


def test_every_pass_flag_follows_from_its_printed_fields(table_100k):
    # rel_err <= tol_rel and abs_err <= tol_abs and combined, where printed,
    # except on the rows that compare lhs < rhs
    lhs_below_rhs = [("bounds.beta-abs-partial", {"n_max": 100_001}),
                     ("bounds.newman-trend", {"early": "2^8..2^12", "late": "2^16.."}),
                     ("bounds.swap-dominated", {"N": 1000, "sigma": -1.0}),
                     ("bounds.swap-dominated", {"N": 10_000, "sigma": -1.0})]
    compared = []
    for rec in (r.to_record() for r in run_group("all", table_100k)):
        b = rec["budget"]
        if (rec["check_id"], rec["inputs"]) in lhs_below_rhs:
            compared.append((rec["check_id"], rec["inputs"]))
            verdict = rec["lhs_re"] < rec["rhs_re"]
        else:
            verdict = (("tol_rel" not in b or rec["rel_err"] <= b["tol_rel"])
                       and all(rec["abs_err"] <= b[k] for k in ("tol_abs", "combined") if k in b))
        assert rec["pass"] is verdict, rec
    assert compared == lhs_below_rhs


@pytest.mark.parametrize("grid", [None, [complex(-0.75), complex(-1.1, 0.3)]])
def test_all_equals_the_sorted_runs_of_each_group(grid, table_100k):
    # 'all' runs its groups on two threads; its records are those of the
    # groups run one by one, sorted, also with the threads switching often,
    # and it leaves no thread behind
    threads = threading.active_count()
    alone = [r for g in GROUPS
             for r in run_group(g, table_100k, grid if g in GRID_GROUPS else None)]
    dump = lambda rs: [json.dumps(r.to_record(), sort_keys=True) for r in rs]
    assert dump(run_group("all", table_100k, grid)) == dump(verify._sorted(alone))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        table_100k.__dict__.pop("_kernel_ws", None)  # the worker builds it anew
        together = run_group("all", table_100k, grid)
    finally:
        sys.setswitchinterval(interval)
    assert dump(together) == dump(verify._sorted(alone))
    assert threading.active_count() == threads


def test_all_on_a_loaded_table_matches_the_sieved_one(tmp_path, monkeypatch):
    # the cache holds every array at odd n only, with no S and no spf, and the
    # kernels' tail moments, which save_table summed on the sieved table; the
    # table read back gives the sieved table's reports byte for byte, neither
    # run sums the moments again, and neither builds spf or a full-length array
    table = build_table(20_001)
    save_table(table, tmp_path / "arith.bin")
    loaded = load_table(tmp_path / "arith.bin")
    dump = lambda rs: [json.dumps(r.to_record(), sort_keys=True) for r in rs]
    monkeypatch.setattr(arith, "sum_tail_moments", None)  # a call raises TypeError
    assert dump(run_group("all", loaded)) == dump(run_group("all", table))
    for t in (table, loaded):
        assert "_kernel_ws" in vars(t)
        assert not {"spf", "liouville", "mobius", "dcount", "beta", "nu",
                    "nu_cumsum"} & set(vars(t))


def test_kernel_groups_on_two_threads_match_one_thread(monkeypatch):
    # decay on one thread, identity and theorem2 on another, on a fresh table
    # each time, so both threads build and extend its kernel workspace at
    # once; a 1 ms sleep before each head block's sums keeps both threads
    # extending the same blocks (without the lock, 20 of 20 runs went wrong).
    # Every run gives the bytes of the groups run in turn.
    base = build_table(20_001)
    dump = lambda rs: sorted(json.dumps(r.to_record(), sort_keys=True) for r in rs)
    table = dataclasses.replace(base)  # the same arrays, no workspace yet
    alone = dump([r for g in ("decay", "identity", "theorem2") for r in run_group(g, table)])
    rows = kernels._HeadBlocks._rows

    def slow(self, *args):
        time.sleep(1e-3)
        return rows(self, *args)

    monkeypatch.setattr(kernels._HeadBlocks, "_rows", slow)
    for _ in range(20):
        table = dataclasses.replace(base)
        with ThreadPoolExecutor(2) as pool:
            decay = pool.submit(run_group, "decay", table)
            rest = pool.submit(lambda t=table: run_group("identity", t) + run_group("theorem2", t))
            assert dump(decay.result(timeout=60) + rest.result(timeout=60)) == alone


@pytest.mark.parametrize("group_runner", ["probe_decay", "verify_bounds"])
def test_all_raises_a_bug_in_either_thread(group_runner, table_100k, monkeypatch):
    # decay runs on the worker, bounds on the calling thread: a bug in either
    # leaves run_group("all") as itself, never as a failed check
    threads = threading.active_count()

    def buggy(table):
        raise RuntimeError(f"bug in {group_runner}")

    monkeypatch.setattr(verify, group_runner, buggy)
    with pytest.raises(RuntimeError, match=f"bug in {group_runner}"):
        run_group("all", table_100k)
    assert threading.active_count() == threads


def test_each_group_emits_only_its_registered_ids(table_100k):
    # the converse of the test above: `verify --list` and perfbench's inventory
    # gate count on each group emitting no id registered elsewhere or nowhere
    for group, ids in list_checks().items():
        emitted = {r.check_id for r in run_group(group, table_100k)}
        assert emitted <= set(ids), (group, sorted(emitted - set(ids)))
    with pytest.raises(InvalidArgumentError, match="unknown verification group"):
        run_group("nonsense", table_100k)


def test_run_rules_are_checked_before_the_table_is_read():
    # a library run keeps the rules of `verify --grid`: table=None shows that
    # each refusal comes before the table is touched
    for group, grid in (("decay", [-0.75]), ("theorem2", []), ("functional", []),
                        ("all", [-0.75, 0.7]), ("theorem2", [-1.5]), ("nonsense", None)):
        with pytest.raises(InvalidArgumentError):
            run_group(group, None, grid)
    # functional runs on any points, and reads no table
    assert run_group("functional", None, [complex(0.7)])
    assert GRID_GROUPS == ("theorem2", "functional", "all")
    assert tuple(list_checks()) == GROUPS


def test_theorem2_evaluates_each_left_side_and_prefactor_once(table_100k, monkeypatch):
    calls = {"zeta_lambda": 0, "mellin_prefactor": 0}
    for name in calls:
        def counted(s, _fn=getattr(verify, name), _name=name):
            calls[_name] += 1
            return _fn(s)
        monkeypatch.setattr(verify, name, counted)
    verify_theorem2(table_100k)
    assert calls == {"zeta_lambda": 9, "mellin_prefactor": 9}


def test_reports_deterministic(table_100k):
    a = verify_identity_MN(table_100k)
    b = verify_identity_MN(table_100k)
    dump = lambda rs: json.dumps([r.to_record() for r in rs], sort_keys=True)
    assert dump(a) == dump(b)


def test_grid_default():
    grid = default_theorem2_grid()
    assert len(grid) == 9
    assert complex(-1.0, 0.0) in grid


def test_theorem2_integrand_refinement_honest(table_100k):
    # doubling the node density moves the kernel integrals by less than the
    # reported est_error, at every acceptance-grid point and for both routes
    from test_quadrature import refined_mellin

    from liouville_mellin import integrate_mellin
    from liouville_mellin.kernels import kernel_series_with_bound
    from liouville_mellin.quadrature import SPLIT_POINT
    from liouville_mellin.verify import _KernelIntegrand
    max_x = theorem2_max_x(table_100k)
    for route in ("N", "M"):
        integrand = _KernelIntegrand(table_100k, route, cache={})
        series = kernel_series_with_bound(route, SPLIT_POINT, table_100k)
        for s in default_theorem2_grid():
            r1 = integrate_mellin(integrand, s, series, max_x)
            fine = refined_mellin(integrand, s, series, max_x, r1.panels_used)
            assert abs(r1.value - fine) <= r1.est_error, (route, s)
