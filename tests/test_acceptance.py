"""Acceptance suite: the eight package-level criteria at their frozen
tolerances, run against the full 2,000,001-entry table.

Each criterion is one test so the pytest -v log reads as one pass/fail line
per criterion; each also prints its headline numbers.  Frozen constants
(theorem-1 threshold 5e-4, M' bound 0.19, decay envelope 1.2/x) were fixed
from oracle runs before this suite was wired up; see verify.py.
"""

import math

import pytest

from liouville_mellin import (gamma, integrate_gamma_zeta_a, verify_bounds,
                              verify_functional_equations, verify_identity_MN,
                              verify_theorem1, verify_theorem2, zeta)
from liouville_mellin.verify import THEOREM1_FINAL_THRESHOLD, probe_decay


def _require_all(reports, label):
    bad = [r for r in reports if not r.passed]
    for r in bad:
        print(f"  FAIL {r.check_id} {r.inputs}: abs={r.abs_err:.3e} "
              f"rel={r.rel_err:.3e} notes={r.notes}")
    print(f"ACCEPTANCE {label}: {'PASS' if not bad else 'FAIL'} "
          f"({len(reports) - len(bad)}/{len(reports)} checks)")
    assert not bad, f"{label}: {[(r.check_id, r.inputs) for r in bad]}"


def test_criterion_1_theorem2_integral_representation(table_main):
    # 9-point grid, both kernel routes, rel <= 1e-4 (s=-1 absolute <= 1e-8)
    reports = verify_theorem2(table_main)
    worst = max(r.rel_err for r in reports
                if "degenerate" not in r.notes)
    print(f"  worst relative error on the strip grid: {worst:.3e}")
    assert len(reports) == 18
    # one panel set on the whole grid: 16 doublings from 1 to 65,536, then
    # one panel clipped at max_x = 1e5
    assert [r.budget["panels"] for r in reports] == [17] * 18
    # the two kernel routes are independent evaluations of the same integral
    by_s = {}
    for r in reports:
        by_s.setdefault(r.inputs["s"], {})[r.check_id] = r.rhs
    for s, forms in by_s.items():
        cross = abs(forms["theorem2.n-form"] - forms["theorem2.m-form"])
        assert cross <= 1e-6, (s, cross)
    _require_all(reports, "1 theorem2 (integral representation, N and M routes)")


def test_criterion_2_identity_M_equals_N(table_main):
    reports = verify_identity_MN(table_main)
    pts = [r for r in reports if r.check_id == "identity.point"]
    skipped = [r for r in pts if "skipped" in r.notes]
    assert len(pts) == 20 and not skipped
    worst = max(r.abs_err for r in pts)
    print(f"  worst |M - N| over 20 sample points: {worst:.3e}")
    coeff = [r for r in reports if r.check_id == "identity.series-coeff"]
    assert len(coeff) == 11
    print(f"  worst coefficient-identity rel err (k<=10): "
          f"{max(r.rel_err for r in coeff):.3e}")
    _require_all(reports, "2 identity (M == N, series coefficients)")


def test_criterion_3_theorem1_partial_sums(table_main):
    reports = verify_theorem1(table_main)
    final = [r for r in reports if r.check_id == "theorem1.final"][0]
    print(f"  S(10^6) = {final.lhs.real:+.6e} (frozen threshold "
          f"{THEOREM1_FINAL_THRESHOLD:.1e})")
    env = [r for r in reports if r.check_id == "theorem1.envelope"][0]
    print(f"  octave envelope: {['%.2e' % v for v in env.budget['octave_max']]}")
    _require_all(reports, "3 theorem1 (nu partial sums)")


def test_criterion_4_residues(table_main):
    reports = [r for r in verify_identity_MN(table_main) if "residue" in r.check_id]
    assert len(reports) == 6  # both kernels at l = 0, 1, 2
    for r in reports:
        print(f"  {r.check_id} l={r.inputs['l']}: {r.lhs.real:+.6f} "
              f"vs {r.rhs.real:+.6f}")
    expected = {0: 1.0, 1: -1.0 / math.sqrt(3.0), 2: -1.0 / math.sqrt(5.0)}
    for r in reports:
        assert r.rhs.real == pytest.approx(expected[r.inputs["l"]], abs=1e-12)
        assert r.abs_err <= 1e-4
    _require_all(reports, "4 residues at i pi, 3 i pi, 5 i pi")


def test_criterion_5_calibration_integrals():
    r2 = integrate_gamma_zeta_a(2.0)
    err2 = abs(r2.value.real - math.pi ** 2 / 12.0)
    r1 = integrate_gamma_zeta_a(1.0)
    err1 = abs(r1.value.real - math.log(2.0))
    rs = integrate_gamma_zeta_a(-0.5)
    target = gamma(-0.5) * (1.0 - 2.0 ** 1.5) * zeta(-0.5)
    errs = abs(rs.value - target)
    print(f"  s=2: err {err2:.2e}; s=1: err {err1:.2e}; "
          f"s=-1/2 subtracted: err {errs:.2e}")
    assert err2 <= 1e-10
    assert err1 <= 1e-10
    assert errs <= 1e-8
    print("ACCEPTANCE 5 calibration integrals: PASS (3/3 checks)")


def test_criterion_6_functional_equations():
    reports = verify_functional_equations()
    classical = [r for r in reports if r.check_id == "functional.riemann-classical"]
    assert all(r.abs_err <= 1e-12 for r in classical)
    strip = [r for r in reports
             if r.check_id in ("functional.eta", "functional.alpha-beta")
             and "tol_rel" in r.budget]
    assert len(strip) >= 40  # 20 random strip points for each equation
    print(f"  worst strip-point rel err: {max(r.rel_err for r in strip):.3e}")
    _require_all(reports, "6 functional equations")


def test_criterion_7_bound_scans_and_dirichlet_oracles(table_main):
    reports = verify_bounds(table_main)
    scans = [r for r in reports if r.check_id.startswith("bounds.beta-ratio")
             or r.check_id == "bounds.nu-divisor-scan"]
    assert all(r.lhs == 0 for r in scans), "bound scans must report 0 violations"
    for cid in ("bounds.dirichlet-lambda", "bounds.dirichlet-mu",
                "bounds.dirichlet-beta", "bounds.dirichlet-nu"):
        r = [x for x in reports if x.check_id == cid][0]
        print(f"  {cid}: abs err {r.abs_err:.3e} <= tail {r.budget['tol_abs']:.3e}")
    _require_all(reports, "7 bound scans and Dirichlet-sum oracles")


def test_criterion_8_decay_behavior(table_main):
    reports = probe_decay(table_main)
    mp = [r for r in reports if r.check_id == "decay.m-prime-bound"][0]
    print(f"  max |M'| on [0,100] = {mp.lhs.real:.6f} (frozen bound "
          f"{mp.budget['frozen_bound']})")
    xm = [r for r in reports if r.check_id == "decay.x-m-product"][0]
    vals = xm.budget["x_m_values"]
    print(f"  exploratory x|M(x)|: " +
          ", ".join(f"{x:g}:{v:.4f}" for x, v in sorted(vals.items())))
    assert xm.passed and "open question" in xm.notes
    checkpoints = {r.inputs["x"]: r.lhs.real for r in reports
                   if r.check_id == "decay.m-checkpoint"}
    assert abs(checkpoints[100.0]) < abs(checkpoints[10.0])
    assert abs(checkpoints[50.0]) <= 6.0e-3  # frozen decay-envelope sample
    _require_all(reports, "8 decay behavior of the exponential kernel")
