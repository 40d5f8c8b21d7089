"""The three workloads: inputs from a seed, one timed pass, correctness gates.

Each workload is a closed loop with one client in one process: the next pass
starts when the previous one has returned.  A pass calls the package only
through the entry points in `entries()`, so the traced run can hand in
wrapped versions of exactly those callables; the untraced pass calls the
package's own functions.  Gates run after the timed region and count into
`Tally`; a failed gate never stops the run.

Set-up runs in a child process so that its memory does not show in the
benchmark process's peak RSS and so that every set-up is a cold start; only
the traced run of certify-2e6 sieves in process, under a tracer.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

from liouville_mellin import arith, cli, kernels, zeta_family

REFERENCE_FILE = Path(__file__).with_name("reference.json")

# cli.main(argv) in a fresh interpreter that imports the package from argv[1]
_CLI_CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "from liouville_mellin.cli import main; sys.exit(main(sys.argv[2:]))")
SETUP_TIMEOUT_S = 120

# zeta-points domain.  |Im s| stops at 60: _borwein_order caps the Borwein
# order at EvalConfig.series_terms = 120, which binds near |Im s| = 113, and
# past it the package returns inaccurate values without an error (a known
# defect with tests of its own, not a timing input).
RE_RANGE = (-1.5, 2.5)
IM_MAX = 60.0
# poles of zeta (s = 1), zeta(2s) (s = 1/2), Gamma(s) (s = 0, -1) and
# Gamma(1/2 - s) in the prefactor (s = 1/2, 3/2, 5/2)
POLES = (1.0, 0.5, 0.0, -1.0, 1.5, 2.5)
POLE_MARGIN = 0.05
# one relative tolerance for every evaluator; the worst error seen in this
# domain over 2000 points per evaluator was 2.5e-13 (zeta-lambda)
ZETA_REL_TOL = 1e-11
ORACLE_TIMEOUT_S = 150

# (evaluator, mode): the names of cli._EVAL_DISPATCH plus two prefactors
EVALUATORS = (
    ("zeta", None), ("zeta-a", None), ("zeta-imp", None), ("zeta-lambda", None),
    ("zeta-mu", None), ("zeta-alpha", "definition"), ("zeta-alpha", "lambda-relation"),
    ("zeta-beta", None), ("zeta-nu", None), ("gamma", None),
    ("mellin_prefactor", None), ("alpha_to_lambda_factor", None),
)

# table-2e6 gates: a seeded sample of odd n for the divisor-sum identity
NU_SAMPLE = 200
NU_IDENTITY_ABS_TOL = 1e-12
NU_PARTIAL_SUM_ABS_TOL = 1e-12
KERNEL_N_REL_TOL = 1e-12

SIZES = {
    "full": {"certify_limit": 2_000_001, "table_limit": 2_000_001, "points": 256},
    "smoke": {"certify_limit": 50_001, "table_limit": 20_001, "points": 24},
}


class Tally:
    """Operations attempted and failed, and how often each gate ran."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.gates: dict[str, list[int]] = {}

    def gate(self, name: str, ran: int, failed: int) -> None:
        entry = self.gates.setdefault(name, [0, 0])
        entry[0] += ran
        entry[1] += failed

    def ops(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


def median_q(values: list[float]) -> dict:
    """Median and quartiles as statistics.quantiles(n=4) gives them, the
    minimum and the count."""
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0] if values else 0.0
    return {"median": median, "q1": q1, "q3": q3, "min": min(values, default=0.0),
            "n": len(values)}


def run_cli_child(src: Path, argv: list[str]) -> None:
    proc = subprocess.run([sys.executable, "-c", _CLI_CHILD, str(src), *argv],
                          capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up {argv} exited {proc.returncode}: {proc.stderr.strip()}")


def _report_failure(what: str) -> None:
    print(f"perfbench: {what} raised:\n{traceback.format_exc()}", file=sys.stderr)


# ---------------------------------------------------------------------------
# certify-2e6
# ---------------------------------------------------------------------------

class Certify:
    """`verify all` on a warm 2e6 table: the acceptance run users wait for.

    Nearly all of its time is in kernels and quadrature (plain-M, N and
    M-half array routes, complex points with residues, M').  The inputs are
    fixed by the acceptance run; the seed changes nothing in them.
    """

    name = "certify-2e6"
    setup_repeats = 3

    def __init__(self, size: dict, seed: int, workdir: Path, src: Path):
        self.limit = size["certify_limit"]
        self.cache = workdir / "cache"
        self.workdir = workdir
        self.src = src
        ref = json.loads(REFERENCE_FILE.read_text())["certify"][str(self.limit)]
        self.inventory = sorted(map(tuple, ref["inventory"]))
        self.report_bytes = 0
        self.table_bytes = 0

    def setup(self, tracer=None) -> None:
        """The CLI cold start: sieve --force into the private cache.

        With a tracer (the traced run) the sieve runs in this process under
        it, so the sieve and the save show up as arith spans.
        """
        argv = ["sieve", "--limit", str(self.limit), "--force", "--cache-dir", str(self.cache)]
        if tracer is None:
            run_cli_child(self.src, argv)
        else:
            tracer.install()
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    rc = tracer.wrap(cli.main, "cli.main")(argv)
            finally:
                tracer.uninstall()
            if rc != 0:
                raise RuntimeError(f"set-up {argv} returned {rc}")
        self.table_bytes = (self.cache / f"arith_{self.limit}.bin").stat().st_size

    @staticmethod
    def entries() -> dict:
        return {"cli.main": cli.main}

    @staticmethod
    def summary(outcomes: list[dict]) -> dict:
        return {}

    def run_pass(self, api: dict, index: int) -> dict:
        out = self.workdir / f"report-{index}.jsonl"
        argv = ["verify", "all", "--limit", str(self.limit), "--cache-dir", str(self.cache),
                "--out", str(out), "--format", "jsonl"]
        main = api["cli.main"]
        rc = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                rc = main(argv)
        except Exception:
            _report_failure("verify all")
        return {"wall_s": time.perf_counter() - start, "rc": rc, "out": out}

    def check(self, outcome: dict, tally: Tally) -> None:
        out: Path = outcome["out"]
        rows = []
        if out.exists():
            self.report_bytes = out.stat().st_size
            for line in out.read_text().splitlines():
                rec = json.loads(line)
                if rec.get("type") == "report":
                    rows.append(rec)
            out.unlink()
        seen = [(r["check_id"], json.dumps(r["inputs"], sort_keys=True)) for r in rows]
        passed = {key for key, r in zip(seen, rows) if r["pass"]}
        missing = _multiset_minus(self.inventory, seen)
        unexpected = _multiset_minus(seen, self.inventory)
        not_passed = sum(1 for key in self.inventory if key not in passed)
        tally.gate("certify.exit_code", 1, int(outcome["rc"] != 0))
        tally.gate("certify.inventory", 1, int(bool(missing or unexpected)))
        tally.gate("certify.checks_pass", len(rows), sum(1 for r in rows if not r["pass"]))
        tally.ops(len(self.inventory) + len(unexpected), not_passed + len(unexpected))


def _multiset_minus(a: list, b: list) -> list:
    return list((Counter(a) - Counter(b)).elements())


# ---------------------------------------------------------------------------
# table-2e6
# ---------------------------------------------------------------------------

DIGEST_FIELDS = ("spf", "liouville", "mobius", "dcount", "beta")
CACHE_FIELDS = DIGEST_FIELDS + ("nu", "nu_cumsum")


def array_digest(values: np.ndarray, dtype: str) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=dtype).tobytes()).hexdigest()


class Table:
    """The CLI cold start (sieve and save) next to the warm start (load and
    the first kernel call, which builds the lazy kernel workspace).

    All of its work is in arith, with a write path beside a read path.  The
    table is fixed by its limit; the seed picks the n sampled by the nu gate.
    """

    name = "table-2e6"
    setup_repeats = 5

    def __init__(self, size: dict, seed: int, workdir: Path, src: Path):
        self.limit = size["table_limit"]
        self.workdir = workdir
        self.src = src
        self.ref = json.loads(REFERENCE_FILE.read_text())["table"][str(self.limit)]
        rng = random.Random(seed)
        self.nu_sample = sorted(2 * rng.randrange((self.limit + 1) // 2) + 1
                                for _ in range(NU_SAMPLE))
        self.table_bytes = 0

    def setup(self, tracer=None) -> None:
        """A cold start of the CLI, which imports every module of the package."""
        run_cli_child(self.src, ["--version"])

    @staticmethod
    def entries() -> dict:
        return {"arith.build_table": arith.build_table, "arith.save_table": arith.save_table,
                "arith.load_table": arith.load_table, "kernels.kernel_N": kernels.kernel_N}

    @staticmethod
    def summary(outcomes: list[dict]) -> dict:
        """cold_start_s is build plus save, warm_start_s is load plus kernel_N."""
        return {key: median_q([o[key] for o in outcomes if key in o])
                for key in ("cold_start_s", "warm_start_s")}

    def run_pass(self, api: dict, index: int) -> dict:
        path = self.workdir / f"table-{index}.bin"
        build, save = api["arith.build_table"], api["arith.save_table"]
        load, kernel_n = api["arith.load_table"], api["kernels.kernel_N"]
        outcome = {"path": path, "table": None, "loaded": None, "value": None}
        t0 = time.perf_counter()
        try:
            table = build(self.limit)
            outcome["table"] = table
            save(table, path)
            t1 = time.perf_counter()
            loaded = load(path)
            outcome["loaded"] = loaded
            outcome["value"] = kernel_n(1.0, loaded)
            t2 = time.perf_counter()
        except Exception:
            _report_failure("table pass")
            outcome["wall_s"] = time.perf_counter() - t0
            return outcome
        outcome.update(wall_s=t2 - t0, cold_start_s=t1 - t0, warm_start_s=t2 - t1)
        return outcome

    def check(self, outcome: dict, tally: Tally) -> None:
        table, loaded, value = outcome["table"], outcome["loaded"], outcome["value"]
        path: Path = outcome["path"]
        if path.exists():
            self.table_bytes = path.stat().st_size
            path.unlink()
        build_ok = table is not None
        if build_ok:
            digests, dtypes = self.ref["digests"], self.ref["dtypes"]
            bad = [f for f in DIGEST_FIELDS
                   if array_digest(getattr(table, f), dtypes[f]) != digests[f]]
            tally.gate("table.digests", len(DIGEST_FIELDS), len(bad))
            identity_bad = self._nu_identity_failures(table)
            tally.gate("table.nu_divisor_sum", len(self.nu_sample), identity_bad)
            n = self.ref["partial_sum_n"]
            s_error = abs(float(table.nu_cumsum[n]) - self.ref["partial_sum"])
            s_ok = s_error <= NU_PARTIAL_SUM_ABS_TOL
            tally.gate("table.nu_partial_sum", 1, int(not s_ok))
            build_ok = not bad and not identity_bad and s_ok
        round_trip = (table is not None and loaded is not None and loaded.limit == table.limit
                      and all(np.array_equal(getattr(table, f), getattr(loaded, f))
                              for f in CACHE_FIELDS))
        tally.gate("table.round_trip", 1, int(not round_trip))
        expected = complex(*self.ref["kernel_N_1"])
        kernel_ok = (value is not None
                     and abs(complex(value) - expected) <= KERNEL_N_REL_TOL * abs(expected))
        tally.gate("table.kernel_N", 1, int(not kernel_ok))
        # operations: build_table, save_table, load_table, kernel_N
        tally.ops(4, int(not build_ok) + 2 * int(not round_trip) + int(not kernel_ok))

    def _nu_identity_failures(self, table) -> int:
        """sum_{l | n} l nu(l) = beta(n)/sqrt(n), divisors by trial division."""
        bad = 0
        for n in self.nu_sample:
            total = 0.0
            for d in range(1, math.isqrt(n) + 1):
                if n % d == 0:
                    total += d * float(table.nu[d])
                    if d * d != n:
                        total += (n // d) * float(table.nu[n // d])
            if abs(total - int(table.beta[n]) / math.sqrt(n)) > NU_IDENTITY_ABS_TOL:
                bad += 1
        return bad


# ---------------------------------------------------------------------------
# zeta-points
# ---------------------------------------------------------------------------

def zeta_points(seed: int, count: int) -> list[complex]:
    """Latin-hypercube points in the domain, none within POLE_MARGIN of a pole.

    Stratifying both coordinates keeps the share of points with Re s <= 0
    (which take the functional-equation route) and the spread of |Im s|
    (which sets the Borwein order) the same for every seed.
    """
    rng = random.Random(seed)
    re_cells = rng.sample(range(count), count)
    im_cells = rng.sample(range(count), count)
    lo, hi = RE_RANGE
    points = []
    for i in range(count):
        while True:
            s = complex(lo + (hi - lo) * (re_cells[i] + rng.random()) / count,
                        IM_MAX * (2.0 * (im_cells[i] + rng.random()) / count - 1.0))
            if min(abs(s - p) for p in POLES) > POLE_MARGIN:
                break
        points.append(s)
    return points


def zeta_ops(points: list[complex], seed: int) -> list[tuple[str, str | None, complex]]:
    """Every evaluator at every point (zeta-a only for Re s > 0), shuffled."""
    ops = [(name, mode, s) for s in points for name, mode in EVALUATORS
           if name != "zeta-a" or s.real > 0.0]
    random.Random(seed + 1).shuffle(ops)
    return ops


def oracle_values(ops: list) -> list[complex]:
    """mpmath values of every op, computed by oracle.py in a child process."""
    request = json.dumps([[name, s.real, s.imag] for name, _, s in ops])
    proc = subprocess.run([sys.executable, str(Path(__file__).with_name("oracle.py"))],
                          input=request, capture_output=True, text=True,
                          timeout=ORACLE_TIMEOUT_S, check=True)
    return [complex(re, im) for re, im in json.loads(proc.stdout)]


class ZetaPoints:
    """Scalar evaluations of the zeta family and Gamma at seeded points.

    Almost all of its work is in special (the Borwein order grows from 50 to
    73 over |Im s| <= 60) and zeta_family, none in arith, kernels or
    quadrature; inside certify-2e6 these layers are too small to measure.
    """

    name = "zeta-points"
    setup_repeats = 5

    def __init__(self, size: dict, seed: int, workdir: Path, src: Path):
        self.src = src
        self.ops = zeta_ops(zeta_points(seed, size["points"]), seed)
        self.first_values = None
        self.p50_us: list[float] = []
        self.p99_us: list[float] = []

    def setup(self, tracer=None) -> None:
        """A cold start of the CLI, which imports every module of the package."""
        run_cli_child(self.src, ["--version"])

    @staticmethod
    def entries() -> dict:
        api = {f"cli._EVAL_DISPATCH[{name}]": fn for name, fn in cli._EVAL_DISPATCH.items()}
        api["zeta_family.mellin_prefactor"] = zeta_family.mellin_prefactor
        api["zeta_family.alpha_to_lambda_factor"] = zeta_family.alpha_to_lambda_factor
        return api

    def summary(self, outcomes: list[dict]) -> dict:
        """Per-eval percentiles are taken within each pass (every pass has
        len(self.ops) samples, so p99 has dozens beyond it), then the median
        over passes."""
        wall = statistics.median(o["wall_s"] for o in outcomes)
        return {"evals_per_s": {"value": len(self.ops) / wall, "evals_per_pass": len(self.ops)},
                "eval_p50_us": {"value": statistics.median(self.p50_us), "samples": len(self.ops)},
                "eval_p99_us": {"value": statistics.median(self.p99_us), "samples": len(self.ops)}}

    def run_pass(self, api: dict, index: int) -> dict:
        calls = []
        for name, mode, s in self.ops:
            key = f"cli._EVAL_DISPATCH[{name}]"
            if key in api:
                calls.append((api[key], (s, mode)))
            else:
                calls.append((api[f"zeta_family.{name}"], (s,)))
        values = []
        latencies = []
        clock = time.perf_counter
        start = clock()
        for fn, args in calls:
            t = clock()
            try:
                value = fn(*args)
            except Exception as exc:  # counted as a failed evaluation by check()
                value = exc
            latencies.append(clock() - t)
            values.append(value)
        wall = clock() - start
        return {"wall_s": wall, "values": values, "latencies": latencies}

    def check(self, outcome: dict, tally: Tally) -> None:
        values = [None if isinstance(v, Exception) else v for v in outcome["values"]]
        errors = [v for v in outcome["values"] if isinstance(v, Exception)]
        if errors:
            print(f"perfbench: {len(errors)} evaluations raised, first: {errors[0]!r}",
                  file=sys.stderr)
        cuts = statistics.quantiles(outcome["latencies"], n=100)
        self.p50_us.append(1e6 * cuts[49])
        self.p99_us.append(1e6 * cuts[98])
        if self.first_values is None:
            try:
                refs = oracle_values(self.ops)
            except (OSError, subprocess.SubprocessError, ValueError):
                _report_failure("mpmath oracle")
                refs = [None] * len(values)
            bad = sum(1 for value, ref in zip(values, refs)
                      if value is None or ref is None
                      or abs(complex(value) - ref) > ZETA_REL_TOL * abs(ref))
            tally.gate("zeta.mpmath_rel_tol", len(values), bad)
            self.first_values = values
        else:
            bad = sum(1 for a, b in zip(values, self.first_values) if a is None or a != b)
            tally.gate("zeta.repeatable", len(values), bad)
        tally.ops(len(values), bad)


WORKLOADS = {w.name: w for w in (Certify, Table, ZetaPoints)}
