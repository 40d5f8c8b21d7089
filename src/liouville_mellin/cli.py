"""Command-line front end.

Subcommands:
    sieve    build (and cache) an arithmetic table
    eval     evaluate any zeta-family member or gamma at a complex point
    kernel   evaluate N / M / Mprime / series at a point
    verify   run verification groups, emitting JSONL or CSV reports
    report   render a previously written report file

Structured output goes to --out when given, else to stdout; human progress
goes to stderr.  Every report file embeds a manifest record (command,
parameters, config snapshot, tool version, timestamps).  Reports themselves
are deterministic for a fixed manifest; set LIOUMEL_TIMESTAMP to pin the
manifest timestamps too (CI byte-identity).

Environment overrides (lowest precedence below explicit flags):
    LIOUMEL_LIMIT, LIOUMEL_CACHE_DIR, LIOUMEL_FORMAT, LIOUMEL_OUT,
    LIOUMEL_TOL, LIOUMEL_TIMESTAMP
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import io
import json
import os
import re
import sys
from pathlib import Path

from . import __version__
from .arith import ArithTable, build_table, load_table, save_table
from .errors import LiouvilleMellinError
from .kernels import (config_for_table, kernel_M, kernel_M_prime, kernel_N,
                      kernel_N_series)
from .special import DEFAULT_EVAL_CONFIG, gamma, zeta, zeta_alternating
from .verify import (GROUPS, default_theorem2_spec, list_checks, run_group,
                     verify_functional_equations, verify_theorem2)
from .zeta_family import (zeta_alpha, zeta_beta, zeta_imp, zeta_lambda,
                          zeta_mu, zeta_nu)

_COMPLEX_RE = re.compile(
    r"^(?P<re>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"(?:(?P<im>[+-](?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)i)?$")

# table size of sieve, kernel and verify when neither --limit nor
# LIOUMEL_LIMIT is given, so that all three share one cached table
DEFAULT_LIMIT = 200001


def parse_complex(text: str) -> complex:
    """Parse 'a', 'a+bi', 'a-bi' (no whitespace, i suffix)."""
    m = _COMPLEX_RE.match(text.strip())
    if not m:
        raise argparse.ArgumentTypeError(
            f"cannot parse complex number {text!r}; expected a, a+bi or a-bi")
    re_part = float(m.group("re"))
    im_part = float(m.group("im")) if m.group("im") else 0.0
    return complex(re_part, im_part)


def format_complex(z: complex) -> str:
    if z.imag == 0.0:
        return repr(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def _env(name: str, default=None):
    return os.environ.get(f"LIOUMEL_{name}", default)


def _timestamp() -> str:
    pinned = _env("TIMESTAMP")
    if pinned:
        return pinned
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


@dataclasses.dataclass
class RunManifest:
    command: str
    parameters: dict
    table_limit: int | None
    config_snapshot: dict
    tool_version: str
    started: str
    finished: str

    def to_record(self) -> dict:
        d = dataclasses.asdict(self)
        d["type"] = "manifest"
        return d

    @classmethod
    def from_record(cls, record: dict) -> "RunManifest":
        fields = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in record.items() if k in fields})


CSV_COLUMNS = ("check_id", "inputs", "lhs_re", "lhs_im", "rhs_re", "rhs_im",
               "abs_err", "rel_err", "pass")


def _fmt(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


def _json_default(o):
    item = getattr(o, "item", None)  # numpy scalars
    if item is not None:
        return item()
    raise TypeError(f"not JSON serializable: {type(o)}")


def write_reports(stream, reports, manifest: RunManifest, fmt: str) -> None:
    if fmt == "jsonl":
        stream.write(json.dumps(manifest.to_record(), sort_keys=True) + "\n")
        for r in reports:
            rec = r.to_record()
            rec["type"] = "report"
            stream.write(json.dumps(rec, sort_keys=True, default=_json_default) + "\n")
    elif fmt == "csv":
        stream.write("# manifest: " + json.dumps(manifest.to_record(), sort_keys=True) + "\n")
        stream.write(",".join(CSV_COLUMNS) + "\n")
        for r in reports:
            rec = r.to_record()
            row = [rec["check_id"],
                   '"' + json.dumps(rec["inputs"], sort_keys=True).replace('"', '""') + '"',
                   _fmt(rec["lhs_re"]), _fmt(rec["lhs_im"]),
                   _fmt(rec["rhs_re"]), _fmt(rec["rhs_im"]),
                   _fmt(rec["abs_err"]), _fmt(rec["rel_err"]),
                   str(rec["pass"]).lower()]
            stream.write(",".join(row) + "\n")
    else:
        raise LiouvilleMellinError(f"unknown format {fmt!r}")


def read_report_file(path: str) -> tuple[RunManifest | None, list[dict]]:
    manifest = None
    rows: list[dict] = []
    text = Path(path).read_text()
    first = text.splitlines()[0] if text else ""
    if first.startswith("# manifest:"):
        manifest = RunManifest.from_record(json.loads(first[len("# manifest:"):]))
        import csv as _csv
        rdr = _csv.DictReader(io.StringIO("\n".join(text.splitlines()[1:])))
        for row in rdr:
            row["pass"] = row["pass"] == "true"
            rows.append(row)
        return manifest, rows
    for line in text.splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        if rec.get("type") == "manifest":
            manifest = RunManifest.from_record(rec)
        else:
            rows.append(rec)
    return manifest, rows


def _default_cache_dir() -> Path:
    base = _env("CACHE_DIR")
    if base:
        return Path(base)
    return Path.home() / ".cache" / "liouville-mellin"


def acquire_table(limit: int, cache_dir: Path, rebuild: bool = False) -> ArithTable:
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_dir / f"arith_{limit}.bin"
    if path.exists() and not rebuild:
        try:
            return load_table(path)
        except LiouvilleMellinError as exc:
            print(f"cache {path} unusable ({exc}); rebuilding", file=sys.stderr)
    print(f"sieving to {limit} ...", file=sys.stderr)
    table = build_table(limit)
    save_table(table, path)
    return table


_EVAL_DISPATCH = {
    "zeta": lambda s, mode: zeta(s),
    "zeta-a": lambda s, mode: zeta_alternating(s),
    "zeta-imp": lambda s, mode: zeta_imp(s),
    "zeta-lambda": lambda s, mode: zeta_lambda(s),
    "zeta-mu": lambda s, mode: zeta_mu(s),
    "zeta-alpha": lambda s, mode: zeta_alpha(s, mode=mode or "definition"),
    "zeta-beta": lambda s, mode: zeta_beta(s),
    "zeta-nu": lambda s, mode: zeta_nu(s),
    "gamma": lambda s, mode: gamma(s),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="liouville-mellin",
                                description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sieve", help="build and cache an arithmetic table")
    sp.add_argument("--limit", type=int, default=None)
    sp.add_argument("--cache-dir", type=Path, default=None)
    sp.add_argument("--force", action="store_true", help="rebuild even if cached")

    ep = sub.add_parser("eval", help="evaluate a zeta-family member or gamma")
    ep.add_argument("name", choices=sorted(_EVAL_DISPATCH))
    ep.add_argument("--s", type=parse_complex, required=True)
    ep.add_argument("--mode", choices=["definition", "lambda-relation"], default=None)

    kp = sub.add_parser("kernel", help="evaluate a kernel at a point")
    kp.add_argument("name", choices=["N", "M", "Mprime", "series"])
    kp.add_argument("--z", type=parse_complex, required=True)
    kp.add_argument("--form", choices=["half-shifted", "plain"], default="half-shifted")
    kp.add_argument("--limit", type=int, default=None)
    kp.add_argument("--cache-dir", type=Path, default=None)

    vp = sub.add_parser("verify", help="run verification suites")
    vp.add_argument("group", nargs="?", choices=list(GROUPS) + ["all"], default="all")
    vp.add_argument("--list", action="store_true", help="list check ids and exit")
    vp.add_argument("--limit", type=int, default=None)
    vp.add_argument("--tol", type=float, default=None,
                    help="override the primary pass tolerance of scored checks")
    vp.add_argument("--grid", type=str, default=None,
                    help="comma-separated complex points for theorem2/functional")
    vp.add_argument("--out", type=Path, default=None)
    vp.add_argument("--format", choices=["jsonl", "csv"], default=None)
    vp.add_argument("--cache-dir", type=Path, default=None)

    rp = sub.add_parser("report", help="render a previous run")
    rp.add_argument("--in", dest="infile", type=Path, required=True)
    return p


def _rescore(reports, tol: float):
    """Re-score checks that carry an explicit tolerance against `tol`."""
    for r in reports:
        if "tol_rel" in r.budget:
            r.passed = r.rel_err <= tol
            r.budget["tol_rel"] = tol
        elif "tol_abs" in r.budget:
            r.passed = r.abs_err <= tol
            r.budget["tol_abs"] = tol
    return reports


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _dispatch(args)
    except LiouvilleMellinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _limit(args) -> int:
    return args.limit or int(_env("LIMIT", DEFAULT_LIMIT))


def _dispatch(args) -> int:
    if args.command == "sieve":
        limit = _limit(args)
        cache = args.cache_dir or _default_cache_dir()
        table = acquire_table(limit, cache, rebuild=args.force)
        print(f"table ready: limit={table.limit} "
              f"cache={cache / f'arith_{limit}.bin'}")
        return 0

    if args.command == "eval":
        value = _EVAL_DISPATCH[args.name](args.s, getattr(args, "mode", None))
        print(format_complex(complex(value)))
        return 0

    if args.command == "kernel":
        table = acquire_table(_limit(args), args.cache_dir or _default_cache_dir())
        if args.name == "N":
            value = kernel_N(args.z, table)
        elif args.name == "M":
            value = kernel_M(args.z, table, form=args.form)
        elif args.name == "Mprime":
            if args.z.imag != 0.0:
                print("error: Mprime takes a real nonnegative --z", file=sys.stderr)
                return 2
            value = kernel_M_prime(args.z.real, table)
        else:
            value = kernel_N_series(args.z)
        print(format_complex(complex(value)))
        return 0

    if args.command == "verify":
        return _run_verify(args)

    if args.command == "report":
        try:
            manifest, rows = read_report_file(args.infile)
        except (OSError, ValueError) as exc:
            raise LiouvilleMellinError(f"cannot read report {args.infile}: {exc}")
        if manifest:
            print(f"manifest: {manifest.command} limit={manifest.table_limit} "
                  f"version={manifest.tool_version} finished={manifest.finished}")
        bad = 0
        for row in rows:
            ok = row["pass"] if isinstance(row["pass"], bool) else row["pass"] == "true"
            bad += 0 if ok else 1
            status = "PASS" if ok else "FAIL"
            print(f"{status} {row['check_id']} inputs={row['inputs']} "
                  f"abs={row['abs_err']} rel={row['rel_err']}")
        print(f"{len(rows)} checks, {len(rows) - bad} passed, {bad} failed")
        return 0 if bad == 0 else 1

    raise LiouvilleMellinError(f"unhandled command {args.command}")


def _run_verify(args) -> int:
    if args.list:
        for group, ids in list_checks().items():
            for cid in ids:
                print(f"{group:10s} {cid}")
        return 0
    started = _timestamp()
    limit = _limit(args)
    tol = args.tol if args.tol is not None else (
        float(_env("TOL")) if _env("TOL") else None)
    fmt = args.format or _env("FORMAT", "jsonl")
    out = args.out or (_env("OUT") and Path(_env("OUT")))
    cache = args.cache_dir or _default_cache_dir()

    table = acquire_table(limit, cache)
    kconf = config_for_table(table)
    grid = None
    if args.grid:
        grid = [parse_complex(tok) for tok in args.grid.split(",") if tok]

    if args.group == "theorem2":
        reports = verify_theorem2(table, kconf, default_theorem2_spec(table), grid)
    elif args.group == "functional" and grid is not None:
        reports = verify_functional_equations(grid)
    else:
        reports = run_group(args.group, table, DEFAULT_EVAL_CONFIG, kconf,
                            default_theorem2_spec(table))
    if tol is not None:
        reports = _rescore(reports, tol)

    manifest = RunManifest(
        command=f"verify {args.group}",
        parameters={"limit": limit, "tol": tol, "grid": args.grid,
                    "format": fmt},
        table_limit=limit,
        config_snapshot={
            "eval": dataclasses.asdict(DEFAULT_EVAL_CONFIG),
            "kernel": dataclasses.asdict(kconf),
            "quadrature": dataclasses.asdict(default_theorem2_spec(table)),
        },
        tool_version=__version__,
        started=started,
        finished=_timestamp(),
    )
    if out:
        with open(out, "w") as fh:
            write_reports(fh, reports, manifest, fmt)
        print(f"wrote {len(reports)} reports to {out}", file=sys.stderr)
    else:
        write_reports(sys.stdout, reports, manifest, fmt)
    failed = sum(0 if r.passed else 1 for r in reports)
    print(f"{len(reports)} checks, {len(reports) - failed} passed, {failed} failed",
          file=sys.stderr)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
