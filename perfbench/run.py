"""Benchmark of liouville-mellin: three workloads, checked outputs, and a
traced run that times the calls between the package's modules.

    python3 perfbench/run.py --workload certify-2e6 --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): certify-2e6, table-2e6, zeta-points.  The
package is imported from src/ of the checkout this file sits in.  Set-up
runs several times and setup_s is its median.  Timed passes repeat while
the next one, if as long as the last, ends within --seconds (at least one
pass), and wall_s is the fastest of them.  The fastest, not the median: on
a host shared with other work, speed can swing by 20% over minutes, so the
median pass of a run moves with whatever else the host runs then, while the
fastest pass stays within about 10% from run to run on the 2-vCPU host of
perfbench/README.md (the median is in the record).  --trace 1 runs one
untraced and one traced pass and reports the per-layer metrics instead.
--smoke runs tiny sizes, for the benchmark's own test.

Standard output ends with one JSON line:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The line before it, `RECORD {...}`, holds the run record: machine, versions,
source digest, every gate with how often it ran and failed, and the
workload's own metrics with their sample counts.  Spans of a traced run go
to .perfbench/traces/.  Scratch files live in a fresh directory under
.perfbench/ that is removed at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"

def import_package() -> None:
    """Import liouville_mellin from this checkout's src/, never from elsewhere."""
    init = SRC / "liouville_mellin" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: package source {init} not found")
    sys.path.insert(0, str(SRC))
    import liouville_mellin
    if Path(liouville_mellin.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported {liouville_mellin.__file__}, expected {init}")


# ---------------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------------

def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _cpu_caches() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level").strip(), _read(index / "type").strip()
        caches[f"L{level} {kind}"] = _read(index / "size").strip()
    return caches


def _blas() -> dict:
    import ctypes

    import numpy

    info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = "unknown"
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        getter = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.restype = ctypes.c_int
            threads = getter()
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_record(args, sizes: dict) -> dict:
    import numpy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "sizes": sizes,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
        "cpu_caches": _cpu_caches(), "python": platform.python_version(),
        "numpy": numpy.__version__, "blas": _blas(), "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def measure(args, sizes: dict, workdir: Path):
    """Set up, run the timed passes and, with --trace 1, the traced pass.

    Returns (summary, tally, per-layer metrics or None).
    """
    from tracer import Tracer, per_layer_metrics
    from workloads import WORKLOADS, Tally, median_q

    tally = Tally()
    workload = WORKLOADS[args.workload](sizes, args.seed, workdir, SRC)
    setup_s = []
    setup_tracer = Tracer() if args.trace else None
    for _ in range(1 if args.trace else workload.setup_repeats):
        start = time.perf_counter()
        try:
            workload.setup(setup_tracer)
            tally.gate("setup", 1, 0)
        except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
            print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
            tally.gate("setup", 1, 1)
        setup_s.append(time.perf_counter() - start)

    api = workload.entries()
    outcomes = []
    timed = last = 0.0
    # a further pass starts only if, as long as the last one, it ends within --seconds
    while not outcomes or (not args.trace and timed + last <= args.seconds):
        outcome = workload.run_pass(api, len(outcomes))
        last = outcome["wall_s"]
        timed += last
        workload.check(outcome, tally)
        outcomes.append({k: v for k, v in outcome.items() if k.endswith("_s")})
        del outcome  # a table pass holds two tables; free them before the next pass

    summary = {"setup_s": median_q(setup_s),
               "wall_s": median_q([o["wall_s"] for o in outcomes])}
    summary.update(workload.summary(outcomes))
    summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced_api = {name: tracer.wrap(fn, name) for name, fn in api.items()}
            outcome = workload.run_pass(traced_api, len(outcomes))
        finally:
            tracer.uninstall()
        workload.check(outcome, tally)
        layers = per_layer_metrics(tracer, setup_tracer,
                                   table_bytes=getattr(workload, "table_bytes", 0),
                                   report_bytes=getattr(workload, "report_bytes", 0))
        layers["trace.wall_s"] = outcome["wall_s"]
        layers["trace.overhead_s"] = outcome["wall_s"] - outcomes[0]["wall_s"]
        traces = WORK_ROOT / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tracer.write(traces / f"{args.workload}-seed{args.seed}.jsonl")
        for boundary in tracer.absent + sorted(tracer.broken):
            print(f"perfbench: absent boundary {boundary}", file=sys.stderr)
    summary["error_rate"] = tally.failed / tally.attempted if tally.attempted else 1.0
    return summary, tally, layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("certify-2e6", "table-2e6", "zeta-points"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    args = parser.parse_args(argv)

    import_package()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    for key in [k for k in os.environ if k.startswith("LIOUMEL_")]:
        del os.environ[key]  # the package reads these; the benchmark pins every input
    from tracer import COMPUTED, PER_LAYER
    from workloads import SIZES

    sizes = SIZES["smoke" if args.smoke else "full"]
    record = run_record(args, sizes)
    WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT, prefix=f"{args.workload}-") as tmp:
        summary, tally, layers = measure(args, sizes, Path(tmp))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for name, value in summary.items():
        print(f"  {name:16s} {json.dumps(value)}")
    if layers is not None:
        for name, unit, _, _ in PER_LAYER:
            label = " (computed)" if name in COMPUTED else ""
            print(f"  {name:36s} {layers[name]:.6g} {unit}{label}")
    for name, (ran, failed) in tally.gates.items():
        print(f"  gate {name:28s} ran {ran}, failed {failed}")

    record.update(summary=summary, gates=tally.gates, per_layer=layers,
                  computed=list(COMPUTED) if layers is not None else [])
    print("RECORD " + json.dumps(record, sort_keys=True))
    if args.trace:
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _, _ in PER_LAYER}
    else:
        metrics = {"wall_s": {"value": summary["wall_s"]["min"], "unit": "s"},
                   "setup_s": {"value": summary["setup_s"]["median"], "unit": "s"},
                   "peak_rss_mb": {"value": summary["peak_rss_mb"], "unit": "MB"}}
    correct = tally.failed == 0 and all(failed == 0 for _, failed in tally.gates.values())
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
