"""Command-line front end.

Subcommands:
    sieve    build (and cache) an arithmetic table
    eval     evaluate any zeta-family member or gamma at a complex point
             (--mode for zeta-alpha only)
    kernel   evaluate N / M / Mprime / series at a point (--form for M only)
    verify   run verification groups, emitting JSONL or CSV reports; --grid
             sets the s points of theorem2 and functional (both under all)
    report   render a previously written report file of either format

Structured output goes to --out when given, else to stdout; human progress
goes to stderr.  Every report file embeds a manifest record (MANIFEST_KEYS:
command, parameters, config snapshot, tool version, timestamps).  Reports
themselves are deterministic for a fixed manifest; set LIOUMEL_TIMESTAMP to
pin the manifest timestamps too (CI byte-identity).  read_report_file is the
one reader and checker of a report file: it returns rows of one shape from
JSONL or CSV, or raises ValueError, which report turns into exit 2.

Environment overrides (lowest precedence below explicit flags):
    LIOUMEL_LIMIT, LIOUMEL_CACHE_DIR, LIOUMEL_TIMESTAMP
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import os
import re
import sys
import traceback
from pathlib import Path

from . import __version__
from .arith import ArithTable, build_table, load_table, save_table
from .errors import CacheFormatError, InvalidArgumentError, LiouvilleMellinError
from .kernels import kernel_M_prime, kernel_M_with_bound, kernel_N_series, kernel_N_with_bound
from .special import gamma, zeta, zeta_alternating
from .verify import GROUPS, check_grid, config_snapshot, list_checks, run_group
from .zeta_family import (zeta_alpha, zeta_beta, zeta_imp, zeta_lambda,
                          zeta_mu, zeta_nu)

_COMPLEX_RE = re.compile(
    r"^(?P<re>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"(?:(?P<im>[+-](?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)i)?$")

# table size of sieve, kernel and verify when neither --limit nor
# LIOUMEL_LIMIT is given, so that all three share one cached table
DEFAULT_LIMIT = 200001


def parse_complex(text: str) -> complex:
    """Parse 'a', 'a+bi', 'a-bi' (no whitespace, i suffix), both parts finite."""
    m = _COMPLEX_RE.match(text.strip())
    z = complex(float(m.group("re")), float(m.group("im") or 0.0)) if m else None
    if z is None or float("inf") in (abs(z.real), abs(z.imag)):  # 1e400 parses to inf
        raise argparse.ArgumentTypeError(
            f"cannot parse complex number {text!r}; expected finite a, a+bi or a-bi")
    return z


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


# the manifest record of every report file; write_reports adds "type"
MANIFEST_KEYS = ("command", "parameters", "table_limit", "config_snapshot",
                 "tool_version", "started", "finished")
CSV_COLUMNS = ("check_id", "inputs", "lhs_re", "lhs_im", "rhs_re", "rhs_im",
               "abs_err", "rel_err", "pass")
# each column of a row read back: its type, its name in a read error, and the
# parser of its CSV cell (or of a JSON integer where a float belongs)
_COLUMNS = {key: (float, "a number", float) for key in CSV_COLUMNS} | {
    "check_id": (str, "a string", str), "inputs": (dict, "an object", json.loads),
    "pass": (bool, "a boolean", {"true": True, "false": False}.__getitem__)}


def _fmt(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


def write_reports(stream, reports, manifest: dict, fmt: str) -> None:
    head = json.dumps({**manifest, "type": "manifest"}, sort_keys=True)
    if fmt == "jsonl":
        stream.write(head + "\n")
        for r in reports:
            rec = r.to_record()
            rec["type"] = "report"
            stream.write(json.dumps(rec, sort_keys=True) + "\n")
    else:
        stream.write("# manifest: " + head + "\n")
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in reports:
            rec = r.to_record()
            writer.writerow([rec["check_id"], json.dumps(rec["inputs"], sort_keys=True),
                             _fmt(rec["lhs_re"]), _fmt(rec["lhs_im"]),
                             _fmt(rec["rhs_re"]), _fmt(rec["rhs_im"]),
                             _fmt(rec["abs_err"]), _fmt(rec["rel_err"]),
                             str(rec["pass"]).lower()])


def _record(text: str) -> dict:
    rec = json.loads(text)
    if not isinstance(rec, dict):
        raise ValueError(f"record is not an object: {text[:60]!r}")
    return rec


def _typed_row(i: int, row: dict, csv_text: bool) -> dict:
    """Row i with each CSV column present and of its one type, whichever
    format it came from; a JSONL row keeps its other keys (budget, notes)."""
    if None in row:  # csv.DictReader's key for cells past the header
        raise ValueError(f"row {i} has more than {len(CSV_COLUMNS)} cells")
    typed = dict(row)
    for key, (want, name, parse) in _COLUMNS.items():
        value = row.get(key)
        if value is None:
            raise ValueError(f"row {i} lacks {key}")
        if csv_text or (want is float and type(value) is int):
            try:
                value = parse(value)
            except (KeyError, ValueError, OverflowError):
                pass  # the value stays as read, and is named below
        if type(value) is not want:
            raise ValueError(f"row {i}: {key} is {value!r}, not {name}")
        typed[key] = value
    return typed


def read_report_file(path) -> tuple[dict, list[dict]]:
    """The manifest and rows of a JSONL or CSV report file, as dicts of one
    shape whichever the format.  Raises ValueError at the first defect: no
    manifest or a second one, a manifest key missing, no rows, a row column
    missing or of another type."""
    def second_manifest(rec: dict, rows: list) -> ValueError:  # two runs concatenated
        return ValueError(f"a second manifest, limit={rec.get('table_limit')}, "
                          f"after row {len(rows)}")

    lines = Path(path).read_text().splitlines()
    csv_text = bool(lines) and lines[0].startswith("# manifest:")
    if csv_text:
        # a column the header lacks is missing from every row, and named there
        head = _record(lines[0][len("# manifest:"):])
        second = next((i for i, line in enumerate(lines[1:], 1)
                       if line.startswith("# manifest:")), len(lines))
        rows = list(csv.DictReader(lines[1:second]))
        if second < len(lines):
            raise second_manifest(_record(lines[second][len("# manifest:"):]), rows)
    else:
        head, rows = None, []
        for rec in map(_record, filter(str.strip, lines)):
            if rec.get("type") != "manifest":
                rows.append(rec)
            elif head is None:
                head = rec
            else:
                raise second_manifest(rec, rows)
    if head is None:
        raise ValueError("no manifest")
    missing = set(MANIFEST_KEYS) - head.keys()
    if missing:
        raise ValueError(f"manifest lacks {', '.join(sorted(missing))}")
    if not rows:
        raise ValueError("no report rows")
    return ({k: head[k] for k in MANIFEST_KEYS},
            [_typed_row(i, row, csv_text) for i, row in enumerate(rows, 1)])


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
            table = load_table(path)
            if table.limit != limit:
                raise CacheFormatError(f"holds limit {table.limit}")
            return table
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
    ep.add_argument("--mode", choices=["definition", "lambda-relation"], default=None,
                    help="zeta-alpha only (default: definition)")

    kp = sub.add_parser("kernel", help="evaluate a kernel at a point")
    kp.add_argument("name", choices=["N", "M", "Mprime", "series"])
    kp.add_argument("--z", type=parse_complex, required=True)
    kp.add_argument("--form", choices=["half-shifted", "plain"], default=None,
                    help="M only (default: half-shifted)")
    kp.add_argument("--limit", type=int, default=None)
    kp.add_argument("--cache-dir", type=Path, default=None)

    vp = sub.add_parser("verify", help="run verification suites")
    vp.add_argument("group", nargs="?", choices=list(GROUPS) + ["all"], default="all")
    vp.add_argument("--list", action="store_true", help="list check ids and exit")
    vp.add_argument("--limit", type=int, default=None)
    vp.add_argument("--grid", type=str, default=None,
                    help="comma-separated complex points for theorem2, functional or all")
    vp.add_argument("--out", type=Path, default=None)
    vp.add_argument("--format", choices=["jsonl", "csv"], default="jsonl")
    vp.add_argument("--cache-dir", type=Path, default=None)

    rp = sub.add_parser("report", help="render a previous run")
    rp.add_argument("--in", dest="infile", type=Path, required=True)
    return p


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
    except Exception:  # a bug, never a failed check (exit 1): 3, with the traceback
        traceback.print_exc()
        return 3


def _limit(args) -> int:
    if args.limit is not None:
        return args.limit
    text = _env("LIMIT", str(DEFAULT_LIMIT))
    try:
        return int(text)
    except ValueError:
        raise InvalidArgumentError(f"LIOUMEL_LIMIT: not an integer: {text!r}") from None


def _dispatch(args) -> int:
    if args.command == "sieve":
        limit = _limit(args)
        cache = args.cache_dir or _default_cache_dir()
        table = acquire_table(limit, cache, rebuild=args.force)
        print(f"table ready: limit={table.limit} "
              f"cache={cache / f'arith_{limit}.bin'}")
        return 0

    if args.command == "eval":
        if args.mode is not None and args.name != "zeta-alpha":
            raise InvalidArgumentError(f"--mode applies to zeta-alpha only, not {args.name}")
        value = _EVAL_DISPATCH[args.name](args.s, args.mode)
        print(format_complex(complex(value)))
        return 0

    if args.command == "kernel":
        if args.form is not None and args.name != "M":
            raise InvalidArgumentError(f"--form applies to M only, not {args.name}")
        if args.name == "Mprime" and (args.z.imag != 0.0 or args.z.real < 0.0):
            raise InvalidArgumentError("Mprime takes a real nonnegative --z")
        bound = None
        if args.name == "series":  # needs no table
            value = kernel_N_series(args.z)
        else:
            table = acquire_table(_limit(args), args.cache_dir or _default_cache_dir())
            if args.name == "N":
                value, bound = kernel_N_with_bound(args.z, table)
            elif args.name == "M":
                value, bound = kernel_M_with_bound(args.z, table, form=args.form or "half-shifted")
            else:
                value = kernel_M_prime(args.z, table)
        print(format_complex(complex(value)))
        if bound is not None:
            print(f"bound={bound!r}", file=sys.stderr)
        return 0

    if args.command == "verify":
        return _run_verify(args)

    if args.command == "report":
        try:
            manifest, rows = read_report_file(args.infile)
        except (OSError, ValueError, RecursionError, csv.Error) as exc:  # deep JSON, huge cell
            raise LiouvilleMellinError(f"cannot read report {args.infile}: {exc}")
        print(f"manifest: {manifest['command']} limit={manifest['table_limit']} "
              f"version={manifest['tool_version']} finished={manifest['finished']}")
        for row in rows:
            print(f"{'PASS' if row['pass'] else 'FAIL'} {row['check_id']} "
                  f"inputs={row['inputs']} abs={row['abs_err']} rel={row['rel_err']}")
        bad = sum(not row["pass"] for row in rows)
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
    cache = args.cache_dir or _default_cache_dir()
    grid = None
    if args.grid is not None:
        try:
            grid = [parse_complex(tok) for tok in args.grid.split(",") if tok]
        except argparse.ArgumentTypeError as exc:
            raise InvalidArgumentError(f"--grid: {exc}") from None
    check_grid(args.group, grid)  # before any table is sieved
    table = acquire_table(limit, cache)
    reports = run_group(args.group, table, grid)

    manifest = {"command": f"verify {args.group}",
                "parameters": {"limit": limit, "grid": args.grid, "format": args.format},
                "table_limit": limit, "config_snapshot": config_snapshot(table),
                "tool_version": __version__, "started": started, "finished": _timestamp()}
    if args.out:
        with open(args.out, "w") as fh:
            write_reports(fh, reports, manifest, args.format)
        print(f"wrote {len(reports)} reports to {args.out}", file=sys.stderr)
    else:
        write_reports(sys.stdout, reports, manifest, args.format)
    failed = sum(0 if r.passed else 1 for r in reports)
    print(f"{len(reports)} checks, {len(reports) - failed} passed, {failed} failed",
          file=sys.stderr)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
