"""Verification harness: every analytic claim the package rests on, run
numerically and emitted as machine-readable reports.

The two headline certificates:

    theorem1: the nu series sums to zero; partial sums S(N) must sit under a
        frozen regression threshold at N = 10^6 and their per-octave envelope
        must decrease dyadically from 2^14 on.
    theorem2: on the strip -3/2 < Re s < -1/2, zeta_lambda(s) computed from
        zeta(2s)/zeta(s) must agree with the prefactored Mellin integral of
        the kernel, for BOTH kernel routes (partial-fraction and exponential).

Supporting groups: identity (kernel M == N and the power-series coefficient
identities), functional (classical and derived functional equations), decay
(kernel behavior on the real axis), bounds (sieve-level inequality scans and
table-vs-closed-form Dirichlet sums).

Regression constants below marked "frozen" were fixed from oracle runs with
a sieve limit of 2e6 before the package was accepted; they are empirical
observations, not analytic claims, and the reports say so.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .arith import ArithTable
from .errors import LiouvilleMellinError, PoleError
from .kernels import (DEFAULT_KERNEL_CONFIG, S_TAIL_BEYOND_TABLE, KernelConfig,
                      config_for_table, fermi_deficit, kernel_M,
                      kernel_M_prime, kernel_M_with_bound, kernel_N_with_bound,
                      residue_estimate)
from .quadrature import QuadratureSpec, integrate_gamma_zeta_a, integrate_mellin
from .special import DEFAULT_EVAL_CONFIG, EvalConfig, eta_continued, gamma, zeta, zeta_alternating
from .zeta_family import (alpha_to_lambda_factor, functional_eq_rhs_zeta_a,
                          functional_eq_rhs_zeta_alpha, mellin_prefactor,
                          zeta_alpha, zeta_beta, zeta_imp, zeta_lambda,
                          zeta_mu, zeta_nu)

__all__ = ["VerificationReport", "verify_theorem1", "verify_identity_MN",
           "verify_theorem2", "verify_functional_equations", "probe_decay",
           "verify_bounds", "run_group", "list_checks", "GROUPS",
           "default_theorem2_grid", "default_theorem2_spec"]

# --------------------------------------------------------------------------
# frozen regression constants (oracle runs at sieve limit 2e6)
# --------------------------------------------------------------------------

THEOREM1_FINAL_THRESHOLD = 5.0e-4    # frozen; observed |S(10^6)| = 4.577e-4
THEOREM1_ENVELOPE_OCTAVE = 14        # envelope must fall from this octave on
MPRIME_FROZEN_BOUND = 0.19           # frozen; observed max |M'| = 0.186190 at x=0
XM_PRODUCT_INFO_CAP = 1.2            # informational; observed max x|M(x)| = 1.103
QUAD_DECAY_CONST = 1.2               # envelope |kernel(x)| <= 1.2/x, empirical
KERNEL_SPLICE_X = 3.0                # partial-fraction form below, Abel form above

THEOREM2_REL_TOL = 1e-4
THEOREM2_ABS_TOL_DEGENERATE = 1e-8   # at s = -1 both sides vanish
IDENTITY_ABS_TOL = 1e-6
COEFF_REL_TOL = 1e-10
FUNCTIONAL_REL_TOL = 1e-9
EQ10_REL_TOL = 1e-10
CLASSICAL_ABS_TOL = 1e-12

_RNG_SEED = 20230817


@dataclass
class VerificationReport:
    """One check: inputs, both sides, errors, budget, verdict."""

    check_id: str
    inputs: dict
    lhs: complex
    rhs: complex
    abs_err: float
    rel_err: float
    budget: dict = field(default_factory=dict)
    passed: bool = True
    notes: str = ""

    def to_record(self) -> dict:
        return {
            "check_id": self.check_id,
            "inputs": self.inputs,
            "lhs_re": self.lhs.real, "lhs_im": self.lhs.imag,
            "rhs_re": self.rhs.real, "rhs_im": self.rhs.imag,
            "abs_err": self.abs_err, "rel_err": self.rel_err,
            "budget": self.budget,
            "pass": self.passed,
            "notes": self.notes,
        }


def make_report(check_id: str, inputs: dict, lhs: complex, rhs: complex, *,
                tol_rel: float | None = None, tol_abs: float | None = None,
                budget: dict | None = None, notes: str = "",
                passed: bool | None = None) -> VerificationReport:
    lhs = complex(lhs)
    rhs = complex(rhs)
    tol_rel = None if tol_rel is None else float(tol_rel)
    tol_abs = None if tol_abs is None else float(tol_abs)
    abs_err = abs(lhs - rhs)
    rel_err = abs_err / max(abs(lhs), abs(rhs), 1e-300)
    if passed is None:
        passed = True
        if tol_rel is not None:
            passed = passed and rel_err <= tol_rel
        if tol_abs is not None:
            passed = passed and abs_err <= tol_abs
    b = {k: (v.item() if isinstance(v, np.generic) else v)
         for k, v in (budget or {}).items()}
    if tol_rel is not None:
        b["tol_rel"] = tol_rel
    if tol_abs is not None:
        b["tol_abs"] = tol_abs
    return VerificationReport(check_id=check_id, inputs=inputs, lhs=lhs, rhs=rhs,
                              abs_err=abs_err, rel_err=rel_err, budget=b,
                              passed=bool(passed), notes=notes)


def _sorted(reports: list[VerificationReport]) -> list[VerificationReport]:
    return sorted(reports, key=lambda r: (r.check_id, repr(sorted(r.inputs.items()))))


# --------------------------------------------------------------------------
# theorem 1
# --------------------------------------------------------------------------

def default_theorem1_checkpoints(limit: int) -> list[int]:
    pts = []
    n = 1
    while n <= limit:
        pts.append(n)
        n *= 2
    if limit >= 10 ** 6 and 10 ** 6 not in pts:
        pts.append(10 ** 6)
    return sorted(pts)


def verify_theorem1(table: ArithTable,
                    checkpoints: list[int] | None = None) -> list[VerificationReport]:
    """Partial sums of nu at checkpoints, the frozen final threshold, and the
    per-octave decay of max |S|."""
    if checkpoints is None:
        checkpoints = default_theorem1_checkpoints(table.limit)
    reports = []
    for n in checkpoints:
        s_n = float(table.nu_cumsum[n])
        reports.append(make_report(
            "theorem1.checkpoint", {"N": int(n)}, s_n, 0.0,
            notes="informational: S(N) should drift toward 0", passed=True))

    n_final = min(10 ** 6, table.limit)
    s_final = float(table.nu_cumsum[n_final])
    if table.limit >= 10 ** 6:
        reports.append(make_report(
            "theorem1.final", {"N": n_final}, s_final, 0.0,
            tol_abs=THEOREM1_FINAL_THRESHOLD,
            budget={"threshold": THEOREM1_FINAL_THRESHOLD,
                    "threshold_kind": "frozen regression constant"},
            notes="frozen oracle threshold at N=1e6"))
    else:
        reports.append(make_report(
            "theorem1.final", {"N": n_final}, s_final, 0.0, passed=True,
            notes="informational: table below the frozen-threshold scale (10^6)"))

    # per-octave envelope: max_{2^k <= n < 2^(k+1)} |S(n)| must not increase
    absS = np.abs(table.nu_cumsum)
    octmax = []
    k = THEOREM1_ENVELOPE_OCTAVE
    while 2 ** k < table.limit:
        lo, hi = 2 ** k, min(2 ** (k + 1), table.limit + 1)
        octmax.append(float(absS[lo:hi].max()))
        k += 1
    if len(octmax) >= 2:
        increases = sum(1 for a, b in zip(octmax, octmax[1:]) if b > a)
        reports.append(make_report(
            "theorem1.envelope",
            {"octave_start": THEOREM1_ENVELOPE_OCTAVE, "octaves": len(octmax)},
            float(increases), 0.0, tol_abs=0.0,
            budget={"octave_max": octmax},
            notes="number of per-octave envelope increases (must be 0)"))
    else:
        reports.append(make_report(
            "theorem1.envelope", {"octave_start": THEOREM1_ENVELOPE_OCTAVE},
            0.0, 0.0, passed=True,
            notes="informational: table too small for the envelope check"))
    return _sorted(reports)


# --------------------------------------------------------------------------
# kernel identity group
# --------------------------------------------------------------------------

DEFAULT_IDENTITY_POINTS = (
    0.1, 0.5, 0.7, 1.0, 1.5, 2.0, 2.5, 3.0, -1.5, 2.9,
    0.5 + 0.5j, 0.5 - 0.5j, 1.0 + 1.0j, 1.0 - 1.0j, 2.0 + 0.5j,
    1.5 + 2.0j, 2.5 - 1.0j, 0.3 + 2.7j, 2.0 + 2.5j, -0.7 - 0.3j,
)


def verify_identity_MN(table: ArithTable,
                       config: KernelConfig = DEFAULT_KERNEL_CONFIG,
                       points=DEFAULT_IDENTITY_POINTS) -> list[VerificationReport]:
    """M(z) == N(z) pointwise, plus the power-series coefficient identity and
    the Fermi-kernel power series."""
    config = config_for_table(table, config)
    reports = []
    for z in points:
        z = complex(z)
        try:
            nv, nb = kernel_N_with_bound(z, table, config)
            mv, mb = kernel_M_with_bound(z, table, config, form="half-shifted")
        except PoleError as exc:
            reports.append(make_report(
                "identity.point", {"z": str(z)}, 0.0, 0.0, passed=True,
                notes=f"skipped: {exc}"))
            continue
        budget = nb + mb
        diff = abs(mv - nv)
        reports.append(make_report(
            "identity.point", {"z": str(z)}, mv, nv,
            budget={"n_tail_bound": nb, "m_tail_bound": mb,
                    "combined": budget, "tol_abs": IDENTITY_ABS_TOL},
            passed=bool(diff <= budget and diff <= IDENTITY_ABS_TOL),
            notes="exponential vs partial-fraction kernel"))

    # coefficient identity: zeta_imp(2k+2) zeta_nu(2k+1) = zeta_beta(2k+5/2)
    for k in range(11):
        lhs = zeta_imp(2 * k + 2.0) * zeta_nu(2 * k + 1.0)
        rhs = zeta_beta(2 * k + 2.5)
        reports.append(make_report(
            "identity.series-coeff", {"k": k}, lhs, rhs, tol_rel=COEFF_REL_TOL,
            notes="power-series coefficients of the two kernel expansions"))

    # Fermi power series at |z| = 1: 1/2 - fermi(z) = 2 sum (-1)^k z^(2k+1)
    # pi^-(2k+2) zeta_imp(2k+2); remaining terms are below double precision,
    # so the tolerance is a rounding allowance.
    for z in (1.0, 1j, (0.6 + 0.8j)):
        z = complex(z)
        ks = np.arange(config.series_order_K + 1)
        coeffs = np.array([2.0 * (-1.0) ** k * math.pi ** (-(2 * k + 2))
                           * zeta_imp(2 * k + 2.0).real for k in ks])
        series = complex(np.sum(coeffs * z ** (2 * ks + 1)))
        trunc = 2.0 * math.pi ** (-(2 * config.series_order_K + 4))
        reports.append(make_report(
            "identity.fermi-power-series", {"z": str(z)},
            fermi_deficit(z), series, tol_abs=trunc + 5e-14,
            budget={"series_truncation": trunc},
            notes="kernel power series against the closed form"))
    return _sorted(reports)


# --------------------------------------------------------------------------
# theorem 2
# --------------------------------------------------------------------------

def default_theorem2_grid() -> list[complex]:
    return [complex(re, im) for re in (-1.25, -1.0, -0.75) for im in (0.0, 0.5, 1.0)]


def default_theorem2_spec(table: ArithTable) -> QuadratureSpec:
    return QuadratureSpec(max_x=max(64.0, table.limit / 20.0),
                          decay_const=QUAD_DECAY_CONST, decay_power=1.0)


# The three routes of the theorem-2 integrand, bound to the names under which
# perfbench/tracer.py times each kernel route (its boundaries verify.<name>).
_kernel_N_real_array = kernel_N_with_bound
_kernel_M_half_real_array = kernel_M_with_bound
_kernel_M_abel_real_array = kernel_M_with_bound


class _KernelIntegrand:
    """Memoizing integrand: one kernel route near 0, the Abel route far out.

    Values are cached per x across every s on the grid (node positions do
    not depend on s), so a full 9-point, two-route theorem-2 run costs one
    kernel evaluation per distinct node and route.
    """

    def __init__(self, table: ArithTable, config: KernelConfig, near_route: str,
                 cache: dict | None = None):
        self.table = table
        self.config = config
        self.near_route = near_route  # "N" or "M"
        self.cache = cache if cache is not None else {}

    def _eval_route(self, route: str, xs: np.ndarray):
        if route == "N":
            return _kernel_N_real_array(xs, self.table, self.config)
        if route == "M":
            return _kernel_M_half_real_array(xs, self.table, self.config)
        return _kernel_M_abel_real_array(xs, self.table, self.config, form="plain")

    def __call__(self, x: np.ndarray):
        keys = [(self.near_route if xi <= KERNEL_SPLICE_X else "abel", xi)
                for xi in np.asarray(x, dtype=np.float64).tolist()]
        missing: dict[str, list[float]] = {}
        for route, xi in keys:
            if (route, xi) not in self.cache:
                missing.setdefault(route, []).append(xi)
        for route, xs in missing.items():
            vals, bounds = self._eval_route(route, np.array(xs))
            self.cache.update(zip([(route, xi) for xi in xs], zip(vals.tolist(), bounds.tolist())))
        return np.array([self.cache[key] for key in keys]).T  # values, bounds


def verify_theorem2(table: ArithTable,
                    config: KernelConfig = DEFAULT_KERNEL_CONFIG,
                    spec: QuadratureSpec | None = None,
                    s_grid: list[complex] | None = None) -> list[VerificationReport]:
    """zeta(2s)/zeta(s) against the integral representation, both kernel routes.

    The degenerate grid point s = -1 (where the cosine prefactor and the
    zeta(2s) trivial zero both force 0) is scored absolutely.
    """
    config = config_for_table(table, config)
    if spec is None:
        spec = default_theorem2_spec(table)
    if s_grid is None:
        s_grid = default_theorem2_grid()
    shared_cache: dict = {}
    reports = []
    for route, check_id in (("N", "theorem2.n-form"), ("M", "theorem2.m-form")):
        integrand = _KernelIntegrand(table, config, route, cache=shared_cache)
        for s in s_grid:
            s = complex(s)
            lhs = zeta_lambda(s)
            try:
                res = integrate_mellin(integrand, s, spec)
            except LiouvilleMellinError as exc:   # non-convergence carries diagnostics
                reports.append(make_report(
                    check_id, {"s": str(s)}, lhs, 0.0, passed=False,
                    notes=f"integration failed: {exc}"))
                continue
            rhs = alpha_to_lambda_factor(s) * mellin_prefactor(s) * res.value
            budget = {"est_error": res.est_error, "tail_bound": res.tail_bound,
                      "panels": res.panels_used,
                      "tail_bound_kind": "empirical decay envelope"}
            degenerate = abs(s - (-1.0)) < 1e-12
            if degenerate:
                rep = make_report(check_id, {"s": str(s)}, lhs, rhs,
                                  tol_abs=THEOREM2_ABS_TOL_DEGENERATE,
                                  budget=budget,
                                  notes="degenerate zero scored absolutely")
            else:
                rep = make_report(check_id, {"s": str(s)}, lhs, rhs,
                                  tol_rel=THEOREM2_REL_TOL, budget=budget)
            reports.append(rep)
    return _sorted(reports)


# --------------------------------------------------------------------------
# functional equations
# --------------------------------------------------------------------------

def _strip_points(rng, n, re_lo, re_hi, im_max):
    pts = []
    while len(pts) < n:
        s = complex(rng.uniform(re_lo, re_hi), rng.uniform(-im_max, im_max))
        pts.append(s)
    return pts


def verify_functional_equations(s_grid: list[complex] | None = None,
                                config: EvalConfig = DEFAULT_EVAL_CONFIG
                                ) -> list[VerificationReport]:
    """Riemann, eta, and alpha/beta functional equations plus the algebraic
    bridge between the eta and zeta quotients."""
    rng = np.random.default_rng(_RNG_SEED)
    reports = []

    def rhs29(s: complex) -> complex:
        return (2.0 ** s * math.pi ** (s - 1.0) * cmath.sin(math.pi * s / 2.0)
                * gamma(1.0 - s) * zeta(1.0 - s, config))

    # classical values through the continuation path
    reports.append(make_report("functional.riemann-classical", {"s": "-1"},
                               zeta(-1.0, config), -1.0 / 12.0,
                               tol_abs=CLASSICAL_ABS_TOL))
    reports.append(make_report("functional.riemann-classical", {"s": "-2"},
                               zeta(-2.0, config), 0.0, tol_abs=CLASSICAL_ABS_TOL))

    # self-consistency inside the critical strip: direct vs reflected
    for s in _strip_points(rng, 20, 0.05, 0.95, 5.0):
        direct = zeta(s, config)
        reflected = rhs29(s)
        reports.append(make_report("functional.riemann-selfconsistency",
                                   {"s": str(s)}, direct, reflected,
                                   tol_rel=FUNCTIONAL_REL_TOL))

    strip = s_grid if s_grid is not None else _strip_points(rng, 20, -1.4, -0.6, 2.0)

    # eta equation: eta(s) = -2 pi^(s-1) sin(pi s/2) Gamma(1-s) zeta_imp(1-s)
    reports.append(make_report("functional.eta", {"s": "-1"},
                               eta_continued(-1.0, config), 0.25,
                               tol_abs=CLASSICAL_ABS_TOL,
                               notes="eta(-1) = (1-4) zeta(-1) = 1/4"))
    reports.append(make_report("functional.eta", {"s": "-2"},
                               functional_eq_rhs_zeta_a(-2.0, config), 0.0,
                               tol_abs=CLASSICAL_ABS_TOL, notes="trivial zero"))
    reports.append(make_report("functional.eta", {"s": "0.5"},
                               zeta_alternating(0.5, config),
                               functional_eq_rhs_zeta_a(0.5, config),
                               tol_rel=FUNCTIONAL_REL_TOL, notes="critical-line spot"))
    for s in strip:
        reports.append(make_report("functional.eta", {"s": str(s)},
                                   eta_continued(s, config),
                                   functional_eq_rhs_zeta_a(s, config),
                                   tol_rel=FUNCTIONAL_REL_TOL))

    # alpha/beta equation (the analytic backbone of the integral formula)
    reports.append(make_report("functional.alpha-beta", {"s": "-1"},
                               zeta_alpha(-1.0, config=config),
                               functional_eq_rhs_zeta_alpha(-1.0, config),
                               tol_abs=CLASSICAL_ABS_TOL,
                               notes="cosine zero at odd integer"))
    for s in strip + [complex(-1.25, 0.5), complex(-1.25, -0.5), complex(-0.75, 0.0)]:
        reports.append(make_report("functional.alpha-beta", {"s": str(s)},
                                   zeta_alpha(s, config=config),
                                   functional_eq_rhs_zeta_alpha(s, config),
                                   tol_rel=FUNCTIONAL_REL_TOL))

    # algebraic bridge: zeta_lambda (1 - 2^(1-2s)) = zeta_alpha (1 - 2^(1-s))
    for s in strip:
        lhs = zeta_lambda(s, config) * (1.0 - 2.0 ** (1.0 - 2.0 * s))
        rhs = zeta_alpha(s, config=config) * (1.0 - 2.0 ** (1.0 - s))
        reports.append(make_report("functional.lambda-alpha-bridge", {"s": str(s)},
                                   lhs, rhs, tol_rel=EQ10_REL_TOL))

    # mu inversion: zeta_mu(s) zeta(s) = 1 wherever both are defined
    for s in (2.0, 3.0, 4.0, complex(2.0, 2.0), complex(0.5, 3.0)):
        prod = zeta_mu(s, config) * zeta(s, config)
        reports.append(make_report("functional.mu-inversion", {"s": str(s)},
                                   prod, 1.0, tol_rel=1e-12))
    return _sorted(reports)


# --------------------------------------------------------------------------
# decay probes
# --------------------------------------------------------------------------

DEFAULT_DECAY_GRID = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)


def probe_decay(table: ArithTable,
                config: KernelConfig = DEFAULT_KERNEL_CONFIG,
                x_grid=DEFAULT_DECAY_GRID) -> list[VerificationReport]:
    """Real-axis behavior of the exponential kernel: decay of M, the frozen
    bound on M', and the exploratory x |M(x)| record."""
    config = config_for_table(table, config)
    x_grid = sorted(float(x) for x in x_grid)
    vals, bounds = kernel_M_with_bound(np.array(x_grid), table, config, form="plain")
    m_vals = dict(zip(x_grid, vals.tolist()))
    reports = [make_report("decay.m-checkpoint", {"x": x}, m_vals[x], 0.0, passed=True,
                           budget={"abel_remainder_bound": bound},
                           notes="informational: M(x) sample")
               for x, bound in zip(x_grid, bounds.tolist())]

    reports.append(make_report(
        "decay.m-at-zero", {"x": 0.0},
        kernel_M(0.0, table, config, form="half-shifted"), 0.0, tol_abs=0.0,
        notes="termwise exact zero of the half-shifted form"))

    tail = [x for x in x_grid if x >= 10.0] or x_grid[-2:]
    increases = sum(1 for a, b in zip(tail, tail[1:])
                    if abs(m_vals[b]) > abs(m_vals[a]))
    reports.append(make_report(
        "decay.m-to-zero", {"grid_tail": tail}, float(increases), 0.0, tol_abs=0.0,
        budget={"m_values": [m_vals[x] for x in tail]},
        notes="number of |M| increases along the tail grid (must be 0)"))

    xs = np.linspace(0.0, 100.0, 201)
    mp = kernel_M_prime(xs, table, config)
    mp_max = float(np.abs(mp).max())
    reports.append(make_report(
        "decay.m-prime-bound", {"grid": "0..100 step 0.5"}, mp_max, 0.0,
        tol_abs=MPRIME_FROZEN_BOUND,
        budget={"frozen_bound": MPRIME_FROZEN_BOUND,
                "argmax": float(xs[int(np.abs(mp).argmax())])},
        notes="max |M'| against the frozen regression constant"))

    xm = {x: x * abs(m_vals[x]) for x in x_grid}
    reports.append(make_report(
        "decay.x-m-product", {"grid": list(x_grid)}, max(xm.values()), 0.0,
        passed=True,
        budget={"x_m_values": xm, "informational_cap": XM_PRODUCT_INFO_CAP},
        notes="exploratory only: whether x|M(x)| stays bounded is an open question"))
    return _sorted(reports)


# --------------------------------------------------------------------------
# sieve-level bounds and Dirichlet-sum oracles
# --------------------------------------------------------------------------

def verify_bounds(table: ArithTable,
                  config: EvalConfig = DEFAULT_EVAL_CONFIG) -> list[VerificationReport]:
    """Inequality scans over the full table plus table-partial-sum vs
    closed-form checks for every generating function."""
    reports = []
    limit = table.limit
    idx = np.arange(limit + 1, dtype=np.float64)

    # beta ratio scan: -1 < beta(n)/sqrt(n) <= 1, equality exactly at odd squares
    n_odd = idx[1::2]
    ratio = table.beta[1::2] / np.sqrt(n_odd)
    viol = int(np.sum((ratio <= -1.0) | (ratio > 1.0 + 1e-12)))
    reports.append(make_report(
        "bounds.beta-ratio-scan", {"n_max": limit}, float(viol), 0.0, tol_abs=0.0,
        budget={"min_ratio": float(ratio.min()), "max_ratio": float(ratio.max())},
        notes="violations of -1 < beta/sqrt(n) <= 1 over odd n (must be 0)"))
    roots = np.sqrt(n_odd).astype(np.int64)
    is_square = roots * roots == n_odd.astype(np.int64)
    at_one = np.abs(ratio - 1.0) < 1e-12
    mismatches = int(np.sum(at_one != is_square))
    reports.append(make_report(
        "bounds.beta-ratio-equality", {"n_max": limit}, float(mismatches), 0.0,
        tol_abs=0.0, notes="equality holds exactly at odd perfect squares"))

    # divisor bound on nu: |nu(n)| <= d(n)/n (1e-15 rounding slack)
    viol = int(np.sum(np.abs(table.nu[1:]) > table.dcount[1:] / idx[1:] + 1e-15))
    reports.append(make_report(
        "bounds.nu-divisor-scan", {"n_max": limit}, float(viol), 0.0, tol_abs=0.0,
        notes="violations of |nu| <= d(n)/n (must be 0)"))

    # convolution identity sum_{l|n} l nu(l) = beta(n)/sqrt(n), odd n <= 1e4
    n_conv = min(10 ** 4, limit)
    conv = np.zeros(n_conv + 1)
    for l in range(1, n_conv + 1, 2):
        contrib = l * table.nu[l]
        if contrib != 0.0:
            conv[l::2 * l] += contrib
    target = table.beta[1:n_conv + 1:2] / np.sqrt(idx[1:n_conv + 1:2])
    worst = float(np.abs(conv[1::2] - target).max())
    reports.append(make_report(
        "bounds.convolution", {"n_max": n_conv}, worst, 0.0, tol_abs=1e-12,
        notes="worst |sum_(l|n) l nu(l) - beta(n)/sqrt(n)| over odd n"))

    # Dirichlet partial sums vs closed forms at s = 3
    def tail_power(N, p):  # sum_{n>N} n^-p upper bound
        return N ** (1.0 - p) / (p - 1.0) + N ** (-p)

    N_l = min(10 ** 6, limit)
    lhs = float(np.sum(table.liouville[1:N_l + 1] / idx[1:N_l + 1] ** 3))
    rhs = zeta(6.0, config) / zeta(3.0, config)
    reports.append(make_report(
        "bounds.dirichlet-lambda", {"s": 3, "N": N_l}, lhs, rhs,
        tol_abs=tail_power(N_l, 3.0),
        budget={"analytic_tail": tail_power(N_l, 3.0)},
        notes="table partial sum vs zeta(6)/zeta(3)"))

    lhs = float(np.sum(table.mobius[1:N_l + 1] / idx[1:N_l + 1] ** 3))
    rhs = zeta_mu(3.0, config)
    reports.append(make_report(
        "bounds.dirichlet-mu", {"s": 3, "N": N_l}, lhs, rhs,
        tol_abs=tail_power(N_l, 3.0),
        budget={"analytic_tail": tail_power(N_l, 3.0)},
        notes="table partial sum vs 1/zeta(3)"))

    N_b = min(10 ** 5, limit)
    lhs = float(np.sum(table.beta[1:N_b + 1:2] / idx[1:N_b + 1:2] ** 3))
    rhs = zeta_beta(3.0, config)
    tail_b = 1.5 * N_b ** -1.5  # sum_{n>N} sqrt(n)/n^3 <= int + edge
    reports.append(make_report(
        "bounds.dirichlet-beta", {"s": 3, "N": N_b}, lhs, rhs, tol_abs=tail_b,
        budget={"analytic_tail": tail_b},
        notes="odd-n partial sum vs zeta_imp(5)/zeta_imp(3)"))

    lhs = float(np.sum(table.nu[1:N_l + 1] / idx[1:N_l + 1] ** 3))
    rhs = zeta_nu(3.0, config)
    tail_nu = 2.0 * (math.log(N_l) + 2.0) / N_l ** 3 + 2e-14
    reports.append(make_report(
        "bounds.dirichlet-nu", {"s": 3, "N": N_l}, lhs, rhs, tol_abs=tail_nu,
        budget={"analytic_tail": tail_nu,
                "note": "d(n)/n^4 tail plus double-precision allowance"},
        notes="table partial sum vs zeta_beta(4.5)/zeta_imp(4)"))

    # nu at s = 1, remainder bounded by summation by parts
    lhs = float(np.sum(table.nu[1:N_l + 1] / idx[1:N_l + 1]))
    rhs = zeta_nu(1.0, config)
    tail_s1 = 2.0 * max(float(table.s_tail_max[N_l]), S_TAIL_BEYOND_TABLE) / N_l
    reports.append(make_report(
        "bounds.dirichlet-nu-s1", {"s": 1, "N": N_l}, lhs, rhs, tol_abs=tail_s1,
        budget={"abel_tail": tail_s1, "tail_kind": "empirical S envelope"},
        notes="table partial sum vs zeta_nu(1)"))

    # absolute beta sums stay under the squarefree-times-square double sum
    n_odd_f = idx[1::2]
    partial = np.cumsum(np.abs(table.beta[1::2]) / n_odd_f ** 1.5)
    cap = (zeta(1.5, config) * zeta(2.0, config)).real
    reports.append(make_report(
        "bounds.beta-abs-partial", {"n_max": limit}, float(partial.max()), cap,
        passed=bool(partial.max() < cap),
        budget={"cap": cap},
        notes="running sums of |beta| n^-3/2 vs zeta(3/2) zeta(2)"))

    # Newman trend: dyadic partial sums of mu(2n+1)/(2n+1) drift toward 0
    terms = np.zeros(limit + 1)
    terms[1::2] = table.mobius[1::2] / idx[1::2]
    cums = np.cumsum(terms)
    early = [abs(cums[2 ** k]) for k in range(8, 13) if 2 ** k <= limit]
    late = [abs(cums[2 ** k]) for k in range(16, 22) if 2 ** k <= limit]
    if early and late:
        reports.append(make_report(
            "bounds.newman-trend", {"early": "2^8..2^12", "late": "2^16.."},
            max(late), max(early),
            passed=bool(max(late) < max(early)),
            notes="trend assertion only: late dyadic sums below early ones"))

    # second form of the alpha/beta equation at s = -1.25: truncated series
    s = -1.25
    series = float(np.sum(ratio * (math.pi * n_odd) ** (s - 0.5)))
    target = (zeta_beta(1.0 - s, config) * math.pi ** (s - 0.5)).real
    # |beta|/sqrt(2m+1) <= 1, so the tail is below the integral of (2m+1)^(s-1/2)
    tail = math.pi ** (s - 0.5) * n_odd[-1] ** (s + 0.5) / (-(s + 0.5) * 2.0)
    reports.append(make_report(
        "bounds.second-form", {"s": s, "terms": len(n_odd)}, series, target,
        tol_abs=abs(tail),
        budget={"analytic_tail": abs(tail)},
        notes="truncated beta series vs zeta_beta(1-s) pi^(s-1/2)"))

    # dominated-convergence inequality behind the sum/integral swap, sigma = -1
    sigma = -1.0
    rhs_int = -integrate_gamma_zeta_a(complex(sigma + 0.5), QuadratureSpec()).value.real
    per_term = np.abs(table.beta[1::2]) * math.sqrt(2.0) / math.sqrt(math.pi) / n_odd_f ** 2
    csum = np.cumsum(per_term)
    for N in (10 ** 3, 10 ** 4):
        if N > limit:
            continue
        lhs_sum = float(csum[(N - 1) // 2])
        reports.append(make_report(
            "bounds.swap-dominated", {"sigma": sigma, "N": N}, lhs_sum, rhs_int,
            passed=bool(lhs_sum < rhs_int),
            notes="absolute truncated series below the dominating integral"))
    return _sorted(reports)


# --------------------------------------------------------------------------
# residues (exercised through the identity group's CLI name "identity")
# --------------------------------------------------------------------------

def verify_residues(table: ArithTable,
                    config: KernelConfig = DEFAULT_KERNEL_CONFIG,
                    l_values=(0, 1, 2)) -> list[VerificationReport]:
    """Numerical residues of both kernels at i pi (2l+1) vs beta(2l+1)/sqrt(2l+1)."""
    config = config_for_table(table, config)
    reports = []
    for l in l_values:
        n = 2 * l + 1
        expect = table.beta[n] / math.sqrt(n)
        for kernel in ("N", "M"):
            est = residue_estimate(kernel, l, table, config)
            reports.append(make_report(
                f"identity.residue-{kernel}", {"l": l}, est, expect, tol_abs=1e-4,
                notes=f"Richardson-extrapolated residue at i pi ({n})"))
    return _sorted(reports)


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------

GROUPS = ("theorem1", "identity", "theorem2", "functional", "decay", "bounds")

_CHECK_IDS = {
    "theorem1": ["theorem1.checkpoint", "theorem1.final", "theorem1.envelope"],
    "identity": ["identity.point", "identity.series-coeff",
                 "identity.fermi-power-series", "identity.residue-N",
                 "identity.residue-M"],
    "theorem2": ["theorem2.n-form", "theorem2.m-form"],
    "functional": ["functional.riemann-classical",
                   "functional.riemann-selfconsistency", "functional.eta",
                   "functional.alpha-beta", "functional.lambda-alpha-bridge",
                   "functional.mu-inversion"],
    "decay": ["decay.m-checkpoint", "decay.m-at-zero", "decay.m-to-zero",
              "decay.m-prime-bound", "decay.x-m-product"],
    "bounds": ["bounds.beta-ratio-scan", "bounds.beta-ratio-equality",
               "bounds.nu-divisor-scan", "bounds.convolution",
               "bounds.dirichlet-lambda", "bounds.dirichlet-mu",
               "bounds.dirichlet-beta", "bounds.dirichlet-nu",
               "bounds.dirichlet-nu-s1", "bounds.beta-abs-partial",
               "bounds.newman-trend", "bounds.second-form",
               "bounds.swap-dominated"],
}


def list_checks() -> dict[str, list[str]]:
    """check_id inventory per group, for `verify --list` and coverage tests."""
    return {g: list(ids) for g, ids in _CHECK_IDS.items()}


def run_group(group: str, table: ArithTable,
              eval_config: EvalConfig = DEFAULT_EVAL_CONFIG,
              kernel_config: KernelConfig = DEFAULT_KERNEL_CONFIG,
              spec: QuadratureSpec | None = None) -> list[VerificationReport]:
    """Dispatch one verification group (or 'all') over a prepared table."""
    if group == "theorem1":
        return verify_theorem1(table)
    if group == "identity":
        return _sorted(verify_identity_MN(table, kernel_config)
                       + verify_residues(table, kernel_config))
    if group == "theorem2":
        return verify_theorem2(table, kernel_config, spec)
    if group == "functional":
        return verify_functional_equations(config=eval_config)
    if group == "decay":
        return probe_decay(table, kernel_config)
    if group == "bounds":
        return verify_bounds(table, eval_config)
    if group == "all":
        out = []
        for g in GROUPS:
            out.extend(run_group(g, table, eval_config, kernel_config, spec))
        return _sorted(out)
    raise ValueError(f"unknown verification group {group!r}")
