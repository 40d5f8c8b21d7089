"""Verification harness: every analytic claim the package rests on, run
numerically and emitted as machine-readable reports.

The two headline certificates:

    theorem1: the nu series sums to zero; partial sums S(N) must sit under a
        frozen regression threshold at N = 10^6 and their per-octave envelope
        must decrease dyadically from 2^14 on.
    theorem2: on the strip -3/2 < Re s < -1/2, zeta_lambda(s) computed from
        zeta(2s)/zeta(s) must agree with the prefactored Mellin integral of
        the kernel.  The two routes (partial-fraction and half-shifted
        exponential) differ only on (0, KERNEL_SPLICE_X]; past it both
        integrate the same plain-form values from one shared cache.

Supporting groups: identity (kernel M == N and the power-series coefficient
identities), functional (classical and derived functional equations), decay
(kernel behavior on the real axis), bounds (sieve-level inequality scans and
table-vs-closed-form Dirichlet sums).

run_group("all") uses two threads, as its two halves share only the table:
bounds and theorem1, which scan the table, run on the calling thread, and
identity, theorem2, functional and decay on one worker, the only thread that
touches the table's kernel workspace; the caches both reach hold pure values.
Each group computes what it would alone, each check id belongs to one group,
and the reports are sorted by check id and inputs, so their bytes do not
depend on thread timing.

Regression constants below marked "frozen" were fixed from oracle runs with
a sieve limit of 2e6 before the package was accepted; they are empirical
observations, not analytic claims, and the reports say so.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import arith
from .arith import ArithTable, abs_max, nu_partial_sum, odd, pairwise_sum
from .errors import (InvalidArgumentError, NonConvergenceError, PoleError,
                     TruncationBudgetError)
from .kernels import (S_TAIL_BEYOND_TABLE, SERIES_ORDER_K, config_for_table, fermi_deficit,
                      kernel_M, kernel_M_prime, kernel_M_with_bound, kernel_N_with_bound,
                      kernel_series_with_bound, residue_estimate)
from .quadrature import (DECAY_CONST, MAX_PANELS, MELLIN_STRIP, PANEL_NODES, SPLIT_POINT,
                         integrate_gamma_zeta_a, integrate_mellin)
from .special import DEFAULT_EVAL_CONFIG, POLE_TOL, eta_continued, gamma, zeta, zeta_alternating
from .zeta_family import (alpha_to_lambda_factor, functional_eq_rhs_zeta_a,
                          functional_eq_rhs_zeta_alpha, mellin_prefactor,
                          zeta_alpha, zeta_beta, zeta_imp, zeta_lambda,
                          zeta_mu, zeta_nu)

__all__ = ["VerificationReport", "verify_theorem1", "verify_identity_MN",
           "verify_theorem2", "verify_functional_equations", "probe_decay",
           "verify_bounds", "run_group", "check_grid", "list_checks", "config_snapshot",
           "GROUPS", "GRID_GROUPS", "default_theorem2_grid", "theorem2_max_x"]

# --------------------------------------------------------------------------
# frozen regression constants (oracle runs at sieve limit 2e6)
# --------------------------------------------------------------------------

THEOREM1_FINAL_THRESHOLD = 5.0e-4    # frozen; observed |S(10^6)| = 4.577e-4
THEOREM1_ENVELOPE_OCTAVE = 14        # envelope must fall from this octave on
MPRIME_FROZEN_BOUND = 0.19           # frozen; observed max |M'| = 0.186190 at x=0
XM_PRODUCT_INFO_CAP = 1.2            # informational; observed max x|M(x)| = 1.103
KERNEL_SPLICE_X = 3.0                # near route below, plain exponential form above

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


def _within_limits(r: VerificationReport) -> bool:
    b = r.budget
    return (("tol_rel" not in b or r.rel_err <= b["tol_rel"])
            and all(r.abs_err <= b[k] for k in ("tol_abs", "combined") if k in b))


_RULES = {"within limits": _within_limits,
          "lhs < rhs": lambda r: r.lhs.real < r.rhs.real,
          "not evaluated": lambda r: False}


def make_report(check_id: str, inputs: dict, lhs: complex, rhs: complex, *,
                tol_rel: float | None = None, tol_abs: float | None = None,
                budget: dict | None = None, notes: str = "",
                rule: str = "within limits") -> VerificationReport:
    """A report row; its verdict is decided here alone, from the row's own
    printed fields, by one of three rules (an unknown name raises KeyError):

        "within limits" (the default): rel_err <= tol_rel and abs_err <=
            min(tol_abs, combined), each term only where the budget prints
            that key; a row that prints none is informational and passes.
            "combined" is the sum of the row's bound parts: a check puts its
            bound on |lhs - rhs| there, and the verdict holds it to it.
        "lhs < rhs": strict, on the real parts.
        "not evaluated": always fails, for a row whose value raised.
    """
    lhs = complex(lhs)
    rhs = complex(rhs)
    abs_err = abs(lhs - rhs)
    b = {k: (v.item() if isinstance(v, np.generic) else v)
         for k, v in (budget or {}).items()}
    if tol_rel is not None:
        b["tol_rel"] = float(tol_rel)
    if tol_abs is not None:
        b["tol_abs"] = float(tol_abs)
    report = VerificationReport(check_id, inputs, lhs, rhs, abs_err,
                                abs_err / max(abs(lhs), abs(rhs), 1e-300), b, notes=notes)
    report.passed = _RULES[rule](report)
    return report


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


def _partial_sums(table: ArithTable, lo: int, hi: int) -> np.ndarray:
    """The values of S(n) over lo <= n < hi (lo >= 1): as S(2k) = S(2k-1),
    those of S at the odd n in [lo - 1, hi)."""
    return table.nu_cumsum_odd[(lo - 1) // 2:hi // 2]


def verify_theorem1(table: ArithTable) -> list[VerificationReport]:
    """Partial sums of nu at checkpoints, the frozen final threshold, and the
    per-octave decay of max |S|."""
    reports = []
    for n in default_theorem1_checkpoints(table.limit):
        s_n = nu_partial_sum(table, n)
        reports.append(make_report(
            "theorem1.checkpoint", {"N": int(n)}, s_n, 0.0,
            notes="informational: S(N) should drift toward 0"))

    n_final = min(10 ** 6, table.limit)
    s_final = nu_partial_sum(table, n_final)
    if table.limit >= 10 ** 6:
        reports.append(make_report(
            "theorem1.final", {"N": n_final}, s_final, 0.0,
            tol_abs=THEOREM1_FINAL_THRESHOLD,
            budget={"threshold": THEOREM1_FINAL_THRESHOLD,
                    "threshold_kind": "frozen regression constant"},
            notes="frozen oracle threshold at N=1e6"))
    else:
        reports.append(make_report(
            "theorem1.final", {"N": n_final}, s_final, 0.0,
            notes="informational: table below the frozen-threshold scale (10^6)"))

    # per-octave envelope: max_{2^k <= n < 2^(k+1)} |S(n)| must not increase
    octmax = []
    k = THEOREM1_ENVELOPE_OCTAVE
    while 2 ** k < table.limit:
        lo, hi = 2 ** k, min(2 ** (k + 1), table.limit + 1)
        octmax.append(abs_max(_partial_sums(table, lo, hi)))
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
            "theorem1.envelope", {"octave_start": THEOREM1_ENVELOPE_OCTAVE}, 0.0, 0.0,
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
                       points=DEFAULT_IDENTITY_POINTS) -> list[VerificationReport]:
    """M(z) == N(z) pointwise, plus the power-series coefficient identity and
    the Fermi-kernel power series.

    The real points go to each kernel as one float array and the others as
    one complex array; a point's values do not depend on the points beside
    it.  A point on a pole, the first of which kernel_N's PoleError names,
    gives a skipped row, and the other points run again.  The rows are
    returned sorted (_sorted, by z's string), not in the order of `points`.
    """
    reports = []
    zs = [complex(z) for z in points]
    for batch in ([z for z in zs if z.imag == 0.0], [z for z in zs if z.imag != 0.0]):
        while batch:
            arg = np.array(batch) if batch[0].imag else np.array([z.real for z in batch])
            try:
                n_vals, n_bounds = kernel_N_with_bound(arg, table)
            except PoleError as exc:
                z = next(z for z in batch if abs(z - exc.location) < POLE_TOL)
                reports.append(make_report("identity.point", {"z": str(z)}, 0.0, 0.0,
                                           notes=f"skipped: {exc}"))
                batch.remove(z)
                continue
            m_vals, m_bounds = kernel_M_with_bound(arg, table, form="half-shifted")
            for z, nv, nb, mv, mb in zip(batch, n_vals.tolist(), n_bounds.tolist(),
                                         m_vals.tolist(), m_bounds.tolist()):
                reports.append(make_report(
                    "identity.point", {"z": str(z)}, mv, nv, tol_abs=IDENTITY_ABS_TOL,
                    budget={"n_tail_bound": nb, "m_tail_bound": mb, "combined": nb + mb},
                    notes="exponential vs partial-fraction kernel"))
            break

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
    ks = np.arange(SERIES_ORDER_K + 1)
    coeffs = np.array([2.0 * (-1.0) ** k * math.pi ** (-(2 * k + 2))
                       * zeta_imp(2 * k + 2.0).real for k in ks])
    trunc = 2.0 * math.pi ** (-(2 * SERIES_ORDER_K + 4))
    for z in (1.0, 1j, (0.6 + 0.8j)):
        z = complex(z)
        series = complex(np.sum(coeffs * z ** (2 * ks + 1)))
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


def theorem2_max_x(table: ArithTable) -> float:
    """The trusted range of the theorem-2 integrals; the decay envelope
    bounds what lies past it."""
    return max(64.0, table.limit / 20.0)


# The three routes of the theorem-2 integrand, bound to the names under which
# perfbench/tracer.py times each kernel route (its boundaries verify.<name>).
_kernel_N_real_array = kernel_N_with_bound
_kernel_M_half_real_array = kernel_M_with_bound
_kernel_M_abel_real_array = kernel_M_with_bound


class _KernelIntegrand:
    """Memoizing Gauss-panel integrand: the near route ("N" or half-shifted "M",
    whose series is the head on (0, SPLIT_POINT]) to KERNEL_SPLICE_X, the
    plain exponential form beyond.

    The memo is keyed per node array, across every s on the grid: the nodes
    up to KERNEL_SPLICE_X under the near route, the rest under "abel", each
    by its bytes.  Node positions depend on s only where the panels'
    oscillation cap binds, |Im s| > pi/(4 ln 2) ~ 1.13, so on the default
    grid a 9-point, two-route run calls each route once per Gauss rule.
    """

    def __init__(self, table: ArithTable, near_route: str, cache: dict):
        self.table = table
        self.near_route = near_route  # "N" or "M"
        self.cache = cache

    def _eval_route(self, route: str, xs: np.ndarray):
        if route == "abel":
            return _kernel_M_abel_real_array(xs, self.table, form="plain")
        near = _kernel_N_real_array if route == "N" else _kernel_M_half_real_array
        return near(xs, self.table)

    def __call__(self, x: np.ndarray):
        near = x <= KERNEL_SPLICE_X
        out = np.empty((2, len(x)))  # values, bounds
        for route, mask in ((self.near_route, near), ("abel", ~near)):
            if mask.any():
                key = (route, x[mask].tobytes())
                if key not in self.cache:
                    self.cache[key] = self._eval_route(route, x[mask])
                out[:, mask] = self.cache[key]
        return out


def verify_theorem2(table: ArithTable,
                    s_grid: list[complex] | None = None) -> list[VerificationReport]:
    """zeta(2s)/zeta(s) against the integral representation, once per kernel
    route; the routes differ only on (0, KERNEL_SPLICE_X], past which both
    read the plain form from one shared cache.

    The degenerate grid point s = -1 (where the cosine prefactor and the
    zeta(2s) trivial zero both force 0) is scored absolutely.  The paper
    states theorem 2 on -3/2 < Re s < -1/2.  Grid points in [-1/2, 1/2) run,
    but as diagnostics: each row's own tail_bound exceeds THEOREM2_REL_TOL
    there (at limit 200,001, 1.6e-3 at s = -0.25, which passes; 0.25 at 0.2).
    """
    max_x = theorem2_max_x(table)
    if s_grid is None:
        s_grid = default_theorem2_grid()
    shared_cache: dict = {}
    routes = [(check_id, _KernelIntegrand(table, route, cache=shared_cache),
               kernel_series_with_bound(route, SPLIT_POINT, table))
              for route, check_id in (("N", "theorem2.n-form"), ("M", "theorem2.m-form"))]
    reports = []
    for s in map(complex, s_grid):
        lhs, factor = zeta_lambda(s), None  # factor once an integral has returned
        for check_id, integrand, series in routes:
            try:
                res = integrate_mellin(integrand, s, series, max_x)
            except NonConvergenceError as exc:   # scored; anything else is a bug
                reports.append(make_report(
                    check_id, {"s": str(s)}, lhs, 0.0, rule="not evaluated",
                    notes=f"integration failed: {exc}"))
                continue
            if factor is None:
                factor = alpha_to_lambda_factor(s) * mellin_prefactor(s)
            rhs = factor * res.value
            budget = {"est_error": res.est_error, "tail_bound": res.tail_bound,
                      "panels": res.panels_used,
                      "tail_bound_kind": "empirical decay envelope"}
            degenerate = abs(s - (-1.0)) < 1e-12
            tol = ({"tol_abs": THEOREM2_ABS_TOL_DEGENERATE,
                    "notes": "degenerate zero scored absolutely"} if degenerate
                   else {"tol_rel": THEOREM2_REL_TOL})
            reports.append(make_report(check_id, {"s": str(s)}, lhs, rhs, budget=budget, **tol))
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


def verify_functional_equations(s_grid: list[complex] | None = None) -> list[VerificationReport]:
    """Riemann, eta, and alpha/beta functional equations plus the algebraic
    bridge between the eta and zeta quotients."""
    rng = np.random.default_rng(_RNG_SEED)
    reports = []

    def rhs29(s: complex) -> complex:
        return (2.0 ** s * math.pi ** (s - 1.0) * cmath.sin(math.pi * s / 2.0)
                * gamma(1.0 - s) * zeta(1.0 - s))

    # classical values through the continuation path
    reports.append(make_report("functional.riemann-classical", {"s": "-1"},
                               zeta(-1.0), -1.0 / 12.0, tol_abs=CLASSICAL_ABS_TOL))
    reports.append(make_report("functional.riemann-classical", {"s": "-2"},
                               zeta(-2.0), 0.0, tol_abs=CLASSICAL_ABS_TOL))

    # self-consistency inside the critical strip: direct vs reflected
    for s in _strip_points(rng, 20, 0.05, 0.95, 5.0):
        direct = zeta(s)
        reflected = rhs29(s)
        reports.append(make_report("functional.riemann-selfconsistency",
                                   {"s": str(s)}, direct, reflected,
                                   tol_rel=FUNCTIONAL_REL_TOL))

    strip = s_grid if s_grid is not None else _strip_points(rng, 20, -1.4, -0.6, 2.0)

    # eta equation: eta(s) = -2 pi^(s-1) sin(pi s/2) Gamma(1-s) zeta_imp(1-s)
    reports.append(make_report("functional.eta", {"s": "-1"},
                               eta_continued(-1.0), 0.25,
                               tol_abs=CLASSICAL_ABS_TOL,
                               notes="eta(-1) = (1-4) zeta(-1) = 1/4"))
    reports.append(make_report("functional.eta", {"s": "-2"},
                               functional_eq_rhs_zeta_a(-2.0), 0.0,
                               tol_abs=CLASSICAL_ABS_TOL, notes="trivial zero"))
    reports.append(make_report("functional.eta", {"s": "0.5"},
                               zeta_alternating(0.5), functional_eq_rhs_zeta_a(0.5),
                               tol_rel=FUNCTIONAL_REL_TOL, notes="critical-line spot"))
    for s in strip:
        reports.append(make_report("functional.eta", {"s": str(s)},
                                   eta_continued(s), functional_eq_rhs_zeta_a(s),
                                   tol_rel=FUNCTIONAL_REL_TOL))

    # alpha/beta equation (the analytic backbone of the integral formula)
    reports.append(make_report("functional.alpha-beta", {"s": "-1"},
                               zeta_alpha(-1.0), functional_eq_rhs_zeta_alpha(-1.0),
                               tol_abs=CLASSICAL_ABS_TOL,
                               notes="cosine zero at odd integer"))
    for s in strip + [complex(-1.25, 0.5), complex(-1.25, -0.5), complex(-0.75, 0.0)]:
        reports.append(make_report("functional.alpha-beta", {"s": str(s)},
                                   zeta_alpha(s), functional_eq_rhs_zeta_alpha(s),
                                   tol_rel=FUNCTIONAL_REL_TOL))

    # algebraic bridge: zeta_lambda (1 - 2^(1-2s)) = zeta_alpha (1 - 2^(1-s))
    for s in strip:
        lhs = zeta_lambda(s) * (1.0 - 2.0 ** (1.0 - 2.0 * s))
        rhs = zeta_alpha(s) * (1.0 - 2.0 ** (1.0 - s))
        reports.append(make_report("functional.lambda-alpha-bridge", {"s": str(s)},
                                   lhs, rhs, tol_rel=EQ10_REL_TOL))

    # mu inversion: zeta_mu(s) zeta(s) = 1 wherever both are defined
    for s in (2.0, 3.0, 4.0, complex(2.0, 2.0), complex(0.5, 3.0)):
        prod = zeta_mu(s) * zeta(s)
        reports.append(make_report("functional.mu-inversion", {"s": str(s)},
                                   prod, 1.0, tol_rel=1e-12))
    return _sorted(reports)


# --------------------------------------------------------------------------
# decay probes
# --------------------------------------------------------------------------

DEFAULT_DECAY_GRID = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)


def probe_decay(table: ArithTable) -> list[VerificationReport]:
    """Real-axis behavior of the exponential kernel: decay of M, the frozen
    bound on M', and the exploratory x |M(x)| record."""
    vals, bounds = kernel_M_with_bound(np.array(DEFAULT_DECAY_GRID), table, form="plain")
    m_vals = dict(zip(DEFAULT_DECAY_GRID, vals.tolist()))
    reports = [make_report("decay.m-checkpoint", {"x": x}, m_vals[x], 0.0,
                           budget={"abel_remainder_bound": bound},
                           notes="informational: M(x) sample")
               for x, bound in zip(DEFAULT_DECAY_GRID, bounds.tolist())]

    reports.append(make_report(
        "decay.m-at-zero", {"x": 0.0},
        kernel_M(0.0, table, form="half-shifted"), 0.0, tol_abs=0.0,
        notes="termwise exact zero of the half-shifted form"))

    tail = [x for x in DEFAULT_DECAY_GRID if x >= 10.0]
    increases = sum(1 for a, b in zip(tail, tail[1:])
                    if abs(m_vals[b]) > abs(m_vals[a]))
    reports.append(make_report(
        "decay.m-to-zero", {"grid_tail": tail}, float(increases), 0.0, tol_abs=0.0,
        budget={"m_values": [m_vals[x] for x in tail]},
        notes="number of |M| increases along the tail grid (must be 0)"))

    xs = np.linspace(0.0, 100.0, 201)
    try:
        mp = np.abs(kernel_M_prime(xs, table))
    except TruncationBudgetError as exc:  # a table too short for the tolerance
        reports.append(make_report(
            "decay.m-prime-bound", {"grid": "0..100 step 0.5"}, 0.0, 0.0,
            tol_abs=MPRIME_FROZEN_BOUND, budget={"frozen_bound": MPRIME_FROZEN_BOUND},
            rule="not evaluated", notes=f"M' not evaluated: {exc}"))
    else:
        reports.append(make_report(
            "decay.m-prime-bound", {"grid": "0..100 step 0.5"}, float(mp.max()), 0.0,
            tol_abs=MPRIME_FROZEN_BOUND, budget={"frozen_bound": MPRIME_FROZEN_BOUND,
                                                 "argmax": float(xs[int(mp.argmax())])},
            notes="max |M'| against the frozen regression constant"))

    xm = {x: x * abs(m_vals[x]) for x in DEFAULT_DECAY_GRID}
    reports.append(make_report(
        "decay.x-m-product", {"grid": list(DEFAULT_DECAY_GRID)}, max(xm.values()), 0.0,
        budget={"x_m_values": xm, "informational_cap": XM_PRODUCT_INFO_CAP},
        notes="exploratory only: whether x|M(x)| stays bounded is an open question"))
    return _sorted(reports)


# --------------------------------------------------------------------------
# sieve-level bounds and Dirichlet-sum oracles
# --------------------------------------------------------------------------

def _odd_pass(table: ArithTable, s: float, ends: dict[int, int], n_dir: int) -> dict:
    """verify_bounds' pass over odd n, reading the odd halves only.

    First along the pairwise tree of the second-form series
    sum_m beta(n)/sqrt(n) (pi n)^(s-1/2), n = 2m+1 (arith.pairwise_sum): each
    leaf also scans -1 < beta(n)/sqrt(n) <= 1, with equality exactly at odd
    squares, and the divisor bound |nu(n)| <= d(n)/n (1e-15 rounding slack),
    and sums |beta(n)/sqrt(n)| / n = |beta(n)| n^-3/2 as a second row of the
    tree.  Then over segments of odd n cut at each of `ends` and where
    n 2^a <= n_dir < n 2^(a+1) changes a: one pairwise_sum per segment of
    mu(n)/n (up to the last end), and of lambda, mu and nu over n^3 and nu
    over n (for n <= n_dir).  The sum of mu(n)/n at an end adds the segment
    sums up to it in ascending order.  The Dirichlet sums over every n <= n_dir
    fold the even n in by the 2-adic rule: the segment of a has weight
    sum_{i<=a} (-1/8)^i for lambda, 1 (a = 0) or 7/8 for mu, and 1 for nu,
    which is 0 at even n; the weighted segment sums are added from the
    largest n down.  Counts and extremes do not depend on where the leaves
    split, and each sum is np.sum's over its whole range, so every value
    keeps its bits whatever arith.SCAN is.

    Returns the series and the sum of |beta(n)| n^-3/2 (the maximum of its
    running sums, the terms being >= 0), the violation, mismatch and
    nu_viol counts, the min and max of beta(n)/sqrt(n), |sum of mu(n)/n| at
    each end, and the sums of lambda, mu and nu over n^3 and of nu over n,
    n <= n_dir.
    """
    n_half = (table.limit + 1) // 2
    scan = {"viol": 0, "mismatches": 0, "nu_viol": 0, "min": math.inf, "max": -math.inf}
    # work rows as long as a leaf, allocated once: fresh leaf-long temporaries
    # may come from mmap, or from a heap trimmed after each leaf, and then
    # page-fault on every leaf.  rows[0] = odd(0, length), summed in place as
    # 1 + 2 + 2 + ... (exact), with no temporary beside the rows
    length = min(arith.SCAN, n_half)
    rows = np.full((4, length), 2.0)
    rows[0, 0] = 1.0
    np.cumsum(rows[0], out=rows[0])

    def leaf(lo, hi):  # the series, then |beta(n)| n^-3/2
        odd0, n, buf, r = rows[:, :hi - lo]
        np.add(odd0, 2 * lo, out=n)  # odd(lo, hi)
        np.divide(table.dcount_odd[lo:hi], n, out=buf)
        buf += 1e-15
        scan["nu_viol"] += int(np.count_nonzero(np.abs(table.nu_odd[lo:hi], out=r) > buf))
        ratio = np.divide(table.beta_odd[lo:hi], np.sqrt(n, out=r), out=r)
        low, high = float(ratio.min()), float(ratio.max())
        scan["min"], scan["max"] = min(scan["min"], low), max(scan["max"], high)
        if low <= -1.0 or high > 1.0 + 1e-12:
            scan["viol"] += int(np.count_nonzero((ratio <= -1.0) | (ratio > 1.0 + 1e-12)))
        # the ratio is 1 at an odd square h^2, elsewhere +-k^-1/2 with k >= 3 (n = k h^2)
        h = np.arange((math.isqrt(2 * lo) + 1) | 1, math.isqrt(2 * hi - 1) + 1, 2)
        # |ratio - 1| < 1e-12 implies ratio > 0.75 (a NaN fails both)
        idx = np.flatnonzero(ratio > 0.75)
        scan["mismatches"] += len(np.setxor1d(idx[np.abs(ratio[idx] - 1.0) < 1e-12],
                                              h * h // 2 - lo))
        term = np.power(np.multiply(n, math.pi, out=buf), s - 0.5, out=buf)
        yield np.multiply(ratio, term, out=term)
        yield np.divide(np.abs(ratio, out=ratio), n, out=ratio)

    scan["series"], scan["beta_abs"] = map(float, pairwise_sum(leaf, 0, n_half))

    # segments of odd n, cut past each Newman end and past each n_dir 2^-a:
    # dyadic[a] counts the odd n <= n_dir 2^-a
    end_of = {j + 1: k for k, j in ends.items()}
    newman_stop = max(end_of, default=0)
    dyadic = [((n_dir >> a) + 1) // 2 for a in range(n_dir.bit_length())]
    cuts = sorted({0, *end_of, *dyadic})

    def segment(lo, hi):  # mu/n below newman_stop; lambda, mu, nu / n^3 and nu/n to n_dir
        odd0, n, cube, r = rows[:, :hi - lo]
        np.add(odd0, 2 * lo, out=n)
        if lo < newman_stop:
            yield np.divide(table.mobius_odd[lo:hi], n, out=r)
        if lo < dyadic[0]:
            np.multiply(np.multiply(n, n, out=cube), n, out=cube)  # n*n is exact
            for x in (table.liouville_odd, table.mobius_odd, table.nu_odd):
                yield np.divide(x[lo:hi], cube, out=r)
            yield np.divide(table.nu_odd[lo:hi], n, out=r)

    newman, at, folded = 0.0, {}, []
    for lo, hi in zip(cuts, cuts[1:]):
        sums = pairwise_sum(segment, lo, hi - lo)
        if lo < newman_stop:
            newman += float(sums[0])
            if hi in end_of:
                at[end_of[hi]] = abs(newman)
        if lo < dyadic[0]:  # n 2^a <= n_dir < n 2^(a+1) over the segment
            folded.append(((n_dir // (2 * lo + 1)).bit_length() - 1, sums[-4:]))
    c = [1.0]  # c[a] = sum_{i<=a} (-1/8)^i
    while len(c) < len(dyadic):
        c.append(c[-1] + (-0.125) ** len(c))
    dirichlet = np.zeros(4)
    for a, sums in reversed(folded):
        dirichlet += np.array([c[a], 1.0 if a == 0 else 0.875, 1.0, 1.0]) * sums
    scan["at"], scan["dirichlet"] = at, dirichlet.tolist()
    return scan


def verify_bounds(table: ArithTable) -> list[VerificationReport]:
    """Inequality scans over the full table plus table-partial-sum vs
    closed-form checks for every generating function.

    Only the odd halves are read.  One pass (_odd_pass) gives the ratio,
    equality and divisor scans, the second-form series and the partial-sum
    row along one pairwise tree, then the Newman ends and the Dirichlet sums
    over every n <= N from segment sums over odd n, the even n folded in by
    the 2-adic rule.  Every other scan walks its range in leaves of at most
    arith.SCAN terms.  The bits do not depend on arith.SCAN: each term is
    the same IEEE operations on the same operands wherever a leaf starts,
    counts and extremes do not depend on the split, each pairwise sum splits
    where numpy's np.sum splits, and the segment sums are combined in a
    fixed order.  Each sum's rounding error is that of pairwise summation
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 4.2).
    """
    reports = []
    limit = table.limit
    n_half = (limit + 1) // 2  # odd n <= limit
    s = -1.25  # the second form of the alpha/beta equation, below
    # the sums of mu(n)/n at the ends of the Newman trend's octaves: the sum
    # at j covers the odd n <= 2j + 1, so n <= 2^k ends at j = 2^(k-1) - 1
    ends = {k: 2 ** (k - 1) - 1 for k in (*range(8, 13), *range(16, 22))
            if 2 ** k <= limit}
    N_l = min(10 ** 6, limit)
    scan = _odd_pass(table, s, ends, N_l)
    reports.append(make_report(
        "bounds.beta-ratio-scan", {"n_max": limit}, float(scan["viol"]), 0.0, tol_abs=0.0,
        budget={"min_ratio": scan["min"], "max_ratio": scan["max"]},
        notes="violations of -1 < beta/sqrt(n) <= 1 over odd n (must be 0)"))
    reports.append(make_report(
        "bounds.beta-ratio-equality", {"n_max": limit}, float(scan["mismatches"]), 0.0,
        tol_abs=0.0, notes="equality holds exactly at odd perfect squares"))
    reports.append(make_report(
        "bounds.nu-divisor-scan", {"n_max": limit}, float(scan["nu_viol"]), 0.0, tol_abs=0.0,
        notes="violations of |nu| <= d(n)/n (must be 0)"))

    # convolution identity sum_{l|n} l nu(l) = beta(n)/sqrt(n), odd n <= 1e4:
    # one bincount over the odd multiples of each odd l, l ascending, so each
    # n adds its terms in the order of a loop over l
    n_conv = min(10 ** 4, limit)
    l = np.arange(1, n_conv + 1, 2)
    count = (n_conv // l + 1) // 2  # odd multiples of l up to n_conv
    j = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    conv = np.bincount(np.repeat(l, count) * (2 * j + 1),
                       np.repeat(l * table.nu_odd[:len(l)], count), n_conv + 1)
    ratio = table.beta_odd[:len(l)] / np.sqrt(odd(0, len(l)))
    worst = float(np.abs(conv[1::2] - ratio).max())
    reports.append(make_report(
        "bounds.convolution", {"n_max": n_conv}, worst, 0.0, tol_abs=1e-12,
        notes="worst |sum_(l|n) l nu(l) - beta(n)/sqrt(n)| over odd n"))

    # Dirichlet partial sums vs closed forms at s = 3 (and nu at s = 1)
    def tail_power(N, p):  # sum_{n>N} n^-p upper bound
        return N ** (1.0 - p) / (p - 1.0) + N ** (-p)

    lam3, mu3, nu3, nu1 = scan["dirichlet"]
    reports.append(make_report(
        "bounds.dirichlet-lambda", {"s": 3, "N": N_l}, lam3, zeta(6.0) / zeta(3.0),
        tol_abs=tail_power(N_l, 3.0),
        budget={"analytic_tail": tail_power(N_l, 3.0)},
        notes="table partial sum vs zeta(6)/zeta(3)"))

    reports.append(make_report(
        "bounds.dirichlet-mu", {"s": 3, "N": N_l}, mu3, zeta_mu(3.0),
        tol_abs=tail_power(N_l, 3.0),
        budget={"analytic_tail": tail_power(N_l, 3.0)},
        notes="table partial sum vs 1/zeta(3)"))

    N_b = min(10 ** 5, limit)
    lhs = pairwise_sum(
        lambda lo, hi: table.beta_odd[lo:hi] / odd(lo, hi) ** 3, 0, (N_b + 1) // 2)
    rhs = zeta_beta(3.0)
    tail_b = 1.5 * N_b ** -1.5  # sum_{n>N} sqrt(n)/n^3 <= int + edge
    reports.append(make_report(
        "bounds.dirichlet-beta", {"s": 3, "N": N_b}, lhs, rhs, tol_abs=tail_b,
        budget={"analytic_tail": tail_b},
        notes="odd-n partial sum vs zeta_imp(5)/zeta_imp(3)"))

    tail_nu = 2.0 * (math.log(N_l) + 2.0) / N_l ** 3 + 2e-14
    reports.append(make_report(
        "bounds.dirichlet-nu", {"s": 3, "N": N_l}, nu3, zeta_nu(3.0), tol_abs=tail_nu,
        budget={"analytic_tail": tail_nu,
                "note": "d(n)/n^4 tail plus double-precision allowance"},
        notes="table partial sum vs zeta_beta(4.5)/zeta_imp(4)"))

    # nu at s = 1, remainder bounded by summation by parts
    s_sup = abs_max(_partial_sums(table, N_l, limit + 1))
    tail_s1 = 2.0 * max(s_sup, S_TAIL_BEYOND_TABLE) / N_l
    reports.append(make_report(
        "bounds.dirichlet-nu-s1", {"s": 1, "N": N_l}, nu1, zeta_nu(1.0), tol_abs=tail_s1,
        budget={"abel_tail": tail_s1, "tail_kind": "empirical S envelope"},
        notes="table partial sum vs zeta_nu(1)"))

    # the running sums of |beta(n)| n^-3/2 stay under the squarefree-times-square
    # double sum; their maximum is the whole sum, as the terms are >= 0
    partial_max = scan["beta_abs"]
    cap = (zeta(1.5) * zeta(2.0)).real
    reports.append(make_report(
        "bounds.beta-abs-partial", {"n_max": limit}, partial_max, cap, rule="lhs < rhs",
        budget={"cap": cap},
        notes="running sums of |beta| n^-3/2 vs zeta(3/2) zeta(2)"))

    # Newman trend: dyadic partial sums of mu(2n+1)/(2n+1) drift toward 0
    at = scan["at"]
    early = [at[k] for k in range(8, 13) if k in at]
    late = [at[k] for k in range(16, 22) if k in at]
    if early and late:
        reports.append(make_report(
            "bounds.newman-trend", {"early": "2^8..2^12", "late": "2^16.."},
            max(late), max(early), rule="lhs < rhs",
            notes="trend assertion only: late dyadic sums below early ones"))

    # second form of the alpha/beta equation at s = -1.25: truncated series
    target = (zeta_beta(1.0 - s) * math.pi ** (s - 0.5)).real
    # |beta|/sqrt(2m+1) <= 1, so the tail is below the integral of (2m+1)^(s-1/2)
    tail = (math.pi ** (s - 0.5) * np.float64(2 * n_half - 1) ** (s + 0.5)
            / (-(s + 0.5) * 2.0))
    reports.append(make_report(
        "bounds.second-form", {"s": s, "terms": n_half}, scan["series"], target,
        tol_abs=abs(tail),
        budget={"analytic_tail": abs(tail)},
        notes="truncated beta series vs zeta_beta(1-s) pi^(s-1/2)"))

    # dominated-convergence inequality behind the sum/integral swap, sigma = -1
    sigma = -1.0
    rhs_int = -integrate_gamma_zeta_a(complex(sigma + 0.5)).value.real
    for N in (10 ** 3, 10 ** 4):
        if N > limit:
            continue
        terms = (N + 1) // 2  # odd n <= N
        per_term = (np.abs(table.beta_odd[:terms]) * math.sqrt(2.0) / math.sqrt(math.pi)
                    / odd(0, terms) ** 2)
        lhs_sum = float(np.cumsum(per_term)[-1])
        reports.append(make_report(
            "bounds.swap-dominated", {"sigma": sigma, "N": N}, lhs_sum, rhs_int,
            rule="lhs < rhs", notes="absolute truncated series below the dominating integral"))
    return _sorted(reports)


# --------------------------------------------------------------------------
# residues (exercised through the identity group's CLI name "identity")
# --------------------------------------------------------------------------

def verify_residues(table: ArithTable, l_values=(0, 1, 2)) -> list[VerificationReport]:
    """Numerical residues of both kernels at i pi (2l+1) vs beta(2l+1)/sqrt(2l+1),
    at the poles whose beta(2l+1) the table holds."""
    reports = []
    for l in l_values:
        n = 2 * l + 1
        if n > table.limit:
            continue
        expect = table.beta_odd[l] / math.sqrt(n)
        for kernel in ("N", "M"):
            est = residue_estimate(kernel, l, table)
            reports.append(make_report(
                f"identity.residue-{kernel}", {"l": l}, est, expect, tol_abs=1e-4,
                notes=f"32-point contour-mean residue at i pi ({n})"))
    return _sorted(reports)


# --------------------------------------------------------------------------
# registry: per group its runner (table, grid), whether a grid of s applies, its check ids
# --------------------------------------------------------------------------

_GROUP_TABLE = {
    "theorem1": (lambda table, grid: verify_theorem1(table), False,
                 ("theorem1.checkpoint", "theorem1.final", "theorem1.envelope")),
    "identity": (lambda table, grid: _sorted(verify_identity_MN(table) + verify_residues(table)),
                 False, ("identity.point", "identity.series-coeff", "identity.fermi-power-series",
                         "identity.residue-N", "identity.residue-M")),
    "theorem2": (verify_theorem2, True, ("theorem2.n-form", "theorem2.m-form")),
    "functional": (lambda table, grid: verify_functional_equations(grid), True,
                   ("functional.riemann-classical", "functional.riemann-selfconsistency",
                    "functional.eta", "functional.alpha-beta",
                    "functional.lambda-alpha-bridge", "functional.mu-inversion")),
    "decay": (lambda table, grid: probe_decay(table), False,
              ("decay.m-checkpoint", "decay.m-at-zero", "decay.m-to-zero",
               "decay.m-prime-bound", "decay.x-m-product")),
    "bounds": (lambda table, grid: verify_bounds(table), False,
               ("bounds.beta-ratio-scan", "bounds.beta-ratio-equality", "bounds.nu-divisor-scan",
                "bounds.convolution", "bounds.dirichlet-lambda", "bounds.dirichlet-mu",
                "bounds.dirichlet-beta", "bounds.dirichlet-nu", "bounds.dirichlet-nu-s1",
                "bounds.beta-abs-partial", "bounds.newman-trend", "bounds.second-form",
                "bounds.swap-dominated")),
}
GROUPS = tuple(_GROUP_TABLE)
GRID_GROUPS = tuple(g for g, (_, grid, _) in _GROUP_TABLE.items() if grid) + ("all",)
# the groups of 'all' that only scan the table, run beside the kernel and zeta groups
_TABLE_SCANS = ("bounds", "theorem1")


def list_checks() -> dict[str, list[str]]:
    """check_id inventory per group, for `verify --list` and coverage tests."""
    return {g: list(ids) for g, (_, _, ids) in _GROUP_TABLE.items()}


def check_grid(group: str, grid: list[complex] | None) -> None:
    """A run's rules, raising InvalidArgumentError before any table is read: a
    known group, and a grid only for GRID_GROUPS, with points, all in the strip
    -3/2 < Re s < 1/2 wherever theorem2 runs."""
    if group not in GROUPS + ("all",):
        raise InvalidArgumentError(f"unknown verification group {group!r}")
    if grid is None:
        return
    if group not in GRID_GROUPS:
        raise InvalidArgumentError(f"grid applies to {', '.join(GRID_GROUPS)}, not {group}")
    strip = all(MELLIN_STRIP[0] < complex(s).real < MELLIN_STRIP[1] for s in grid)
    if not grid or not (strip or group == "functional"):
        raise InvalidArgumentError(f"grid {grid}: empty, or Re s not in (-3/2, 1/2)")


def run_group(group: str, table: ArithTable,
              grid: list[complex] | None = None) -> list[VerificationReport]:
    """Run one verification group (or 'all') over a prepared table, once check_grid
    passes; a grid replaces the s points of theorem2 and functional.

    'all' runs bounds then theorem1 (_TABLE_SCANS) on the calling thread, and
    identity, theorem2, functional and decay, in that order, on one worker,
    which alone builds the table's kernel workspace.  An exception in either
    half propagates with its own type, after the worker has ended.  The
    reports come back sorted by check id and inputs, and no two groups share
    an id, so the bytes do not depend on thread timing.
    """
    check_grid(group, grid)
    if group != "all":
        return _GROUP_TABLE[group][0](table, grid)
    from concurrent.futures import ThreadPoolExecutor  # off the CLI's start-up path

    def run(groups: tuple[str, ...]) -> list[VerificationReport]:
        return [r for g in groups for r in run_group(g, table, grid if g in GRID_GROUPS else None)]

    with ThreadPoolExecutor(1) as pool:  # joins its thread on any exit
        kernel_side = pool.submit(run, tuple(g for g in GROUPS if g not in _TABLE_SCANS))
        reports = run(_TABLE_SCANS)
    return _sorted(reports + kernel_side.result())


def config_snapshot(table: ArithTable) -> dict:
    """The evaluator, kernel and quadrature settings of a run, for its manifest."""
    return {"eval": asdict(DEFAULT_EVAL_CONFIG), "kernel": asdict(config_for_table(table)),
            "quadrature": {"split_point": SPLIT_POINT, "panel_nodes": PANEL_NODES,
                           "max_panels": MAX_PANELS, "max_x": theorem2_max_x(table),
                           "decay_const": DECAY_CONST}}
