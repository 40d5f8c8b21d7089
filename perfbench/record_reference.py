"""Write perfbench/reference.json, the expected outputs the gates compare against.

    python3 perfbench/record_reference.py

For the full and the smoke sizes it records the (check_id, inputs) inventory
of `verify all`, the digests of the exact integer tables, S(n) at
n = min(10^6, limit) and kernel_N(1.0).  Rerun it only in a change that
means to alter the check set or the sieve output, and say so in that change.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from run import WORK_ROOT, import_package


def certify_inventory(cli, limit: int) -> list:
    WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as tmp:
        out = Path(tmp) / "report.jsonl"
        with contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(["verify", "all", "--limit", str(limit), "--cache-dir", tmp,
                           "--out", str(out), "--format", "jsonl"])
        if rc != 0:
            raise SystemExit(f"verify all at {limit} exited {rc}")
        rows = [json.loads(line) for line in out.read_text().splitlines()]
    return sorted([r["check_id"], json.dumps(r["inputs"], sort_keys=True)]
                  for r in rows if r.get("type") == "report")


def table_reference(arith, kernels, limit: int) -> dict:
    from workloads import DIGEST_FIELDS, array_digest

    table = arith.build_table(limit)
    dtypes = {f: getattr(table, f).dtype.str for f in DIGEST_FIELDS}
    n = min(10 ** 6, limit)
    value = complex(kernels.kernel_N(1.0, table))
    return {"dtypes": dtypes,
            "digests": {f: array_digest(getattr(table, f), dtypes[f]) for f in DIGEST_FIELDS},
            "partial_sum_n": n, "partial_sum": float(table.nu_cumsum[n]),
            "kernel_N_1": [value.real, value.imag]}


def main() -> int:
    import_package()
    from liouville_mellin import arith, cli, kernels

    from workloads import REFERENCE_FILE

    reference = {"certify": {}, "table": {}}
    for limit in (50_001, 2_000_001):
        reference["certify"][str(limit)] = {"inventory": certify_inventory(cli, limit)}
    for limit in (20_001, 2_000_001):
        reference["table"][str(limit)] = table_reference(arith, kernels, limit)
    REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
