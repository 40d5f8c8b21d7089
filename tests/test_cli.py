"""Command-line surface: parsing, subcommands, report files, determinism."""

import csv
import hashlib
import io
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from liouville_mellin import arith, build_table, cli, kernel_N_series, save_table
from liouville_mellin.cli import (CSV_COLUMNS, MANIFEST_KEYS, format_complex, main,
                                  parse_complex, read_report_file)
from liouville_mellin.arith import CACHE_MAGIC
from liouville_mellin.kernels import kernel_M_prime, kernel_M_with_bound


@pytest.fixture
def cache_env(tmp_path, monkeypatch):
    monkeypatch.setenv("LIOUMEL_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("LIOUMEL_TIMESTAMP", "2025-01-01T00:00:00+00:00")
    return tmp_path


def test_parse_complex():
    assert parse_complex("2") == 2.0 + 0.0j
    assert parse_complex("-0.75") == -0.75 + 0.0j
    assert parse_complex("1.5+2i") == 1.5 + 2.0j
    assert parse_complex("-1.25-0.5i") == -1.25 - 0.5j
    assert parse_complex("1e-3+2.5e1i") == 0.001 + 25.0j
    import argparse
    for bad in ("", "2+", "1 + 2i", "i", "2+3j", "1e400", "1-1e400i"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_complex(bad)


def test_format_complex_round_trips():
    for z in (2.0 + 0j, -0.75 + 0j, 1.5 + 2.0j, -1.25 - 0.5j):
        assert parse_complex(format_complex(z)) == z


def test_eval_zeta(capsys):
    assert main(["eval", "zeta", "--s", "2"]) == 0
    out = capsys.readouterr().out.strip()
    assert abs(float(out) - math.pi ** 2 / 6.0) < 1e-12


def test_eval_gamma_and_family(capsys):
    assert main(["eval", "gamma", "--s", "0.5"]) == 0
    assert abs(float(capsys.readouterr().out.strip()) - math.sqrt(math.pi)) < 1e-12
    assert main(["eval", "zeta-lambda", "--s", "2"]) == 0
    assert abs(float(capsys.readouterr().out.strip()) - math.pi ** 2 / 15.0) < 1e-12
    assert main(["eval", "zeta-alpha", "--s", "-0.75", "--mode",
                 "lambda-relation"]) == 0
    capsys.readouterr()


def test_kernel_identity_through_cli(cache_env, capsys):
    args = ["--limit", "100001", "--z", "1.0"]
    assert main(["kernel", "N"] + args) == 0
    n_val = float(capsys.readouterr().out.strip())
    assert main(["kernel", "M"] + args + ["--form", "plain"]) == 0
    m_val = float(capsys.readouterr().out.strip())
    assert abs(n_val - m_val) <= 1e-6


def test_sieve_writes_cache(cache_env, capsys):
    assert main(["sieve", "--limit", "5001"]) == 0
    out = capsys.readouterr().out
    assert "limit=5001" in out
    assert (cache_env / "cache" / "arith_5001.bin").exists()


def _older_cache(table, magic: bytes, names: tuple) -> bytes:
    """A cache file of an earlier format: the named arrays under `magic`."""
    arrays = [getattr(table, name) for name in names]
    header = {"limit": table.limit,
              "fields": [{"name": name, "dtype": a.dtype.str, "len": len(a),
                          "sha256": hashlib.sha256(a).hexdigest()}
                         for name, a in zip(names, arrays)]}
    return (magic + b"\n" + json.dumps(header, sort_keys=True).encode("ascii") + b"\n"
            + b"".join(a.tobytes() for a in arrays))


def test_sieve_rebuilds_an_unusable_cache(cache_env, capsys, monkeypatch):
    # a truncated file, one whose magic is ARITHv2 (one sha256 over the
    # payload), an ARITHv3 file (beta, nu and S over every n), an ARITHv4
    # file (spf, lambda, mu and d over every n, beta and nu over odd n), an
    # ARITHv5 file (every array over odd n, no moments; it hashes to the
    # digest test_saved_bytes_pinned held for ARITHv5), and one whose moments
    # have another layout (13 Taylor terms)
    path = cache_env / "cache" / "arith_3001.bin"
    assert main(["sieve", "--limit", "3001"]) == 0
    fresh = path.read_bytes()
    older = fresh.replace(CACHE_MAGIC, b"ARITHv2", 1)
    table = build_table(3001)
    v3 = _older_cache(table, b"ARITHv3", ("spf", "liouville", "mobius", "dcount",
                                          "beta", "nu", "nu_cumsum"))
    v4 = _older_cache(table, b"ARITHv4", ("spf", "liouville", "mobius", "dcount",
                                          "beta_odd", "nu_odd"))
    v5 = _older_cache(table, b"ARITHv5", ("liouville_odd", "mobius_odd", "dcount_odd",
                                          "beta_odd", "nu_odd"))
    assert hashlib.sha256(v5).hexdigest() == (
        "f5203eec5dde774b7b1f61fd9b5ce4494ed4000f267e8a40e49ff1316adf78f0")
    with monkeypatch.context() as m:
        m.setattr(arith, "TAYLOR_TERMS", 13)
        save_table(build_table(3001), path)
    other_layout = path.read_bytes()
    for bad in (fresh[:-100], older, v3, v4, v5, other_layout):
        path.write_bytes(bad)
        capsys.readouterr()
        assert main(["sieve", "--limit", "3001"]) == 0
        assert "unusable" in capsys.readouterr().err
        assert path.read_bytes() == fresh


def test_sieve_rebuilds_a_cache_of_another_limit(cache_env, capsys):
    # a valid table of limit 3001 under the name of limit 5001
    path = cache_env / "cache" / "arith_5001.bin"
    assert main(["sieve", "--limit", "5001"]) == 0
    fresh = path.read_bytes()
    save_table(build_table(3001), path)
    capsys.readouterr()
    assert main(["sieve", "--limit", "5001"]) == 0
    out, err = capsys.readouterr()
    assert "unusable" in err and "limit=5001" in out
    assert path.read_bytes() == fresh


def test_default_limit_shared_by_sieve_and_verify(cache_env, capsys, monkeypatch):
    # a bare `sieve` warms the very table a bare `verify` reads
    monkeypatch.delenv("LIOUMEL_LIMIT", raising=False)
    assert main(["sieve"]) == 0
    assert "sieving to" in capsys.readouterr().err
    assert main(["verify", "theorem1", "--out", str(cache_env / "t1.jsonl")]) == 0
    assert "sieving to" not in capsys.readouterr().err


def test_verify_list(capsys):
    assert main(["verify", "--list"]) == 0
    out = capsys.readouterr().out
    assert "theorem2.n-form" in out
    assert "bounds.swap-dominated" in out


def test_verify_bounds_jsonl_roundtrip(cache_env, capsys, tmp_path):
    out_file = tmp_path / "report.jsonl"
    code = main(["verify", "bounds", "--limit", "50001", "--out", str(out_file)])
    assert code == 0
    manifest, rows = read_report_file(out_file)
    assert manifest["command"] == "verify bounds"
    assert manifest["table_limit"] == 50001
    assert manifest["started"] == "2025-01-01T00:00:00+00:00"
    assert rows and all(r["pass"] for r in rows)


def test_written_manifest_holds_the_manifest_keys_and_type(cache_env, tmp_path):
    for fmt in ("jsonl", "csv"):
        out_file = tmp_path / f"report.{fmt}"
        assert main(["verify", "theorem1", "--limit", "3001", "--format", fmt,
                     "--out", str(out_file)]) == 0
        head = out_file.read_text().splitlines()[0].removeprefix("# manifest:")
        assert sorted(json.loads(head)) == sorted(MANIFEST_KEYS + ("type",))
        assert tuple(read_report_file(out_file)[0]) == MANIFEST_KEYS


def test_verify_output_byte_identical(cache_env, tmp_path):
    # 'all' at 3001 holds every group, its informational rows and failing rows
    for args, code in ((["theorem1", "--limit", "50001"], 0), (["all", "--limit", "3001"], 1)):
        f1, f2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for f in (f1, f2):
            assert main(["verify", *args, "--out", str(f)]) == code
        assert f1.read_bytes() == f2.read_bytes()


def test_verify_all_cold_and_warm_byte_identical(cache_env, tmp_path):
    # from an empty cache dir the run sieves, and saving the table sums its
    # kernel moments; warm, the run reads both from the cache: the same bytes
    cache = cache_env / "cache" / "arith_20001.bin"
    cold, warm = tmp_path / "cold.jsonl", tmp_path / "warm.jsonl"
    assert not cache.exists()
    assert main(["verify", "all", "--limit", "20001", "--out", str(cold)]) == 0
    assert cache.exists()
    assert main(["verify", "all", "--limit", "20001", "--out", str(warm)]) == 0
    assert cold.read_bytes() == warm.read_bytes()


def test_verify_csv_format(cache_env, tmp_path):
    out_file = tmp_path / "report.csv"
    assert main(["verify", "theorem1", "--limit", "50001", "--format", "csv",
                 "--out", str(out_file)]) == 0
    lines = out_file.read_text().splitlines()
    assert lines[0].startswith("# manifest:")
    assert lines[1] == ("check_id,inputs,lhs_re,lhs_im,rhs_re,rhs_im,"
                        "abs_err,rel_err,pass")
    manifest, rows = read_report_file(out_file)
    assert manifest["command"] == "verify theorem1"
    assert all(isinstance(r["pass"], bool) for r in rows)


def test_jsonl_and_csv_read_and_render_alike(cache_env, capsys, tmp_path):
    # the same run in both formats: rows of the same key types, and the same
    # rendered lines after the manifest line (its parameters name the format)
    files = [tmp_path / f"t1.{fmt}" for fmt in ("jsonl", "csv")]
    for f in files:
        assert main(["verify", "theorem1", "--limit", "3001", "--format", f.suffix[1:],
                     "--out", str(f)]) == 0
    (_, jsonl_rows), (_, csv_rows) = map(read_report_file, files)
    assert [{k: r[k] for k in CSV_COLUMNS} for r in jsonl_rows] == csv_rows
    assert ([[type(r[k]) for k in CSV_COLUMNS] for r in jsonl_rows]
            == [[type(r[k]) for k in CSV_COLUMNS] for r in csv_rows])
    assert {type(r[k]) for r in csv_rows for k in CSV_COLUMNS[2:8]} == {float}
    rendered = []
    for f in files:
        capsys.readouterr()
        assert main(["report", "--in", str(f)]) == 0
        rendered.append(capsys.readouterr().out.splitlines()[1:])
    assert rendered[0] == rendered[1] and "inputs={'N': 1} " in rendered[0][0]


def test_report_renders_and_propagates_failures(cache_env, capsys, tmp_path):
    out_file = tmp_path / "report.jsonl"
    main(["verify", "theorem1", "--limit", "50001", "--out", str(out_file)])
    capsys.readouterr()
    assert main(["report", "--in", str(out_file)]) == 0
    rendered = capsys.readouterr().out
    assert "PASS theorem1.final" in rendered
    # flip one pass flag: rendering must exit 1
    lines = out_file.read_text().splitlines()
    doctored = []
    for line in lines:
        rec = json.loads(line)
        if rec.get("type") == "report" and rec["check_id"] == "theorem1.final":
            rec["pass"] = False
        doctored.append(json.dumps(rec, sort_keys=True))
    out_file.write_text("\n".join(doctored) + "\n")
    assert main(["report", "--in", str(out_file)]) == 1
    assert "FAIL theorem1.final" in capsys.readouterr().out


def test_eval_past_borwein_budget_exits_2(capsys):
    # typed TruncationBudgetError goes through the error handler, no traceback
    assert main(["eval", "zeta", "--s", "0.7+200i"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "series_terms" in err
    assert "Traceback" not in err
    # there the reflection's sin(pi s/2) overflows; zeta(1-s) raises first
    assert main(["eval", "zeta", "--s=-0.5+1e300i"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_unexpected_exception_exits_3_with_traceback(cache_env, capsys, monkeypatch):
    # exit 1 means a check failed; a bug is neither that nor a usage error
    def broken(*args):
        raise TypeError("injected")

    monkeypatch.setattr(cli, "run_group", broken)
    assert main(["verify", "theorem1", "--limit", "3001"]) == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "TypeError: injected" in err


def test_usage_errors_exit_2(capsys):
    assert main(["eval", "zeta", "--s", "2+"]) == 2
    assert main(["nonsense"]) == 2
    assert main(["verify", "wronggroup"]) == 2
    capsys.readouterr()


def test_theorem2_grid_flag(cache_env, capsys, tmp_path):
    out_file = tmp_path / "t2.jsonl"
    code = main(["verify", "theorem2", "--limit", "100001",
                 "--grid=-0.75,-1.25", "--out", str(out_file)])
    assert code == 0
    _, rows = read_report_file(out_file)
    assert len(rows) == 4  # two points, both kernel routes
    assert all(r["pass"] for r in rows)
    # `all` applies the grid to theorem2 as well
    assert main(["verify", "all", "--limit", "100001",
                 "--grid=-0.75,-1.25", "--out", str(out_file)]) == 0
    _, rows = read_report_file(out_file)
    assert sum(r["check_id"].startswith("theorem2.") for r in rows) == 4
    # a group without a grid rejects one, before any table is sieved
    assert main(["verify", "decay", "--limit", "5001", "--grid=-0.75"]) == 2
    assert "grid applies to theorem2, functional, all, not decay" in capsys.readouterr().err
    assert not list((cache_env / "cache").glob("arith_5001.bin"))
    assert main(["verify", "theorem2", "--limit", "5001", "--grid=-0.75,x"]) == 2
    assert "cannot parse" in capsys.readouterr().err
    # no points, or a theorem-2 point outside the strip, is a usage error too
    for group, grid in (("theorem2", ","), ("functional", ","), ("theorem2", "0.7"),
                        ("all", "-0.75,0.7"), ("theorem2", "-1.5")):
        assert main(["verify", group, "--limit", "5001", f"--grid={grid}"]) == 2, (group, grid)
        assert "empty, or Re s not in (-3/2, 1/2)" in capsys.readouterr().err
    assert not list((cache_env / "cache").glob("arith_5001.bin"))


def test_verify_all_on_a_small_table_reports_failures(cache_env, tmp_path):
    # M' misses its remainder tolerance at 3001: a failed row, not an abort
    out_file = tmp_path / "small.jsonl"
    assert main(["verify", "all", "--limit", "3001", "--out", str(out_file)]) == 1
    _, rows = read_report_file(out_file)
    decay = [r for r in rows if r["check_id"] == "decay.m-prime-bound"]
    assert len(decay) == 1 and decay[0]["pass"] is False
    assert "remainder bound" in decay[0]["notes"]
    # the whole failing set: theorem 2 past 1e-4 relative at its four points
    # nearest Re s = -1/2, two M == N points past 1e-6 absolute (by 6.9e-9 at
    # 3, far above numpy's dispatch scatter), and M'
    failing = sorted((r["check_id"], *r["inputs"].values()) for r in rows if not r["pass"])
    s_far = ("(-0.75+0.5j)", "(-0.75+0j)", "(-0.75+1j)", "(-1+1j)")
    assert failing == sorted([("decay.m-prime-bound", "0..100 step 0.5"),
                              ("identity.point", "(2+2.5j)"), ("identity.point", "(3+0j)")]
                             + [(f"theorem2.{f}-form", s) for f in "mn" for s in s_far])


def test_verify_all_on_a_three_entry_table_reports_failures(cache_env, tmp_path):
    # the residue checks skip poles whose beta(2l+1) lies past the table
    out_file = tmp_path / "tiny.jsonl"
    assert main(["verify", "all", "--limit", "3", "--out", str(out_file)]) == 1
    manifest, rows = read_report_file(out_file)
    assert manifest["table_limit"] == 3
    residues = [r for r in rows if r["check_id"].startswith("identity.residue-")]
    assert sorted(r["inputs"]["l"] for r in residues) == [0, 0, 1, 1]


def test_limit_zero_exits_2(cache_env, capsys):
    # not the default table: 0 is a limit, and no table has it
    assert main(["verify", "theorem1", "--limit", "0"]) == 2
    assert "table limit must be >= 1" in capsys.readouterr().err


def test_non_integer_env_limit_exits_2(cache_env, capsys, monkeypatch):
    monkeypatch.setenv("LIOUMEL_LIMIT", "abc")
    assert main(["verify", "theorem1"]) == 2
    err = capsys.readouterr().err
    assert "LIOUMEL_LIMIT" in err and "Traceback" not in err


def test_mprime_rejects_complex(cache_env, capsys):
    for z in ("1+1i", "-1"):
        assert main(["kernel", "Mprime", "--z", z, "--limit", "5001"]) == 2
    assert capsys.readouterr().err.count("real nonnegative") == 2
    # rejected before any table is sieved
    assert not list((cache_env / "cache").glob("arith_*.bin"))


def test_kernel_mprime_prints_its_value(cache_env, capsys):
    # at 5001 M' misses its 5e-8 remainder tolerance; at 20001 it meets it
    assert main(["kernel", "Mprime", "--z", "2.5", "--limit", "5001"]) == 2
    assert main(["kernel", "Mprime", "--z", "2.5", "--limit", "20001"]) == 0
    out = capsys.readouterr().out
    assert out.strip() == format_complex(complex(kernel_M_prime(2.5, build_table(20001))))


def test_kernel_prints_plain_M_past_the_budget_with_its_bound(cache_env, capsys, table_100k):
    # kernel_M raises here (bound above 5e-8); the CLI prints value and bound
    assert main(["kernel", "M", "--z", "50", "--form", "plain", "--limit", "100001"]) == 0
    out, err = capsys.readouterr()
    value, bound = kernel_M_with_bound(50.0, table_100k, form="plain")
    assert out.strip() == format_complex(complex(value))
    assert f"bound={bound!r}" in err


def test_non_finite_numbers_are_rejected_before_any_table(cache_env, capsys):
    assert main(["kernel", "N", "--z", "1e400", "--limit", "3001"]) == 2
    assert main(["verify", "functional", "--limit", "3001", "--grid=1e400"]) == 2
    err = capsys.readouterr().err
    assert err.count("cannot parse complex number '1e400'") == 2 and "sieving" not in err
    assert not (cache_env / "cache").exists() or not list((cache_env / "cache").iterdir())


def test_theorem2_near_the_real_axis(cache_env, capsys):
    # 0 < |Im s| < 1.1e-3 once overflowed the oscillation cap; the panels are Im s = 0's
    assert main(["verify", "theorem2", "--limit", "20001", "--grid=-0.75+0.0001i"]) == 0
    assert "2 checks, 2 passed, 0 failed" in capsys.readouterr().err


def test_kernel_series_needs_no_table(cache_env, capsys):
    assert main(["kernel", "series", "--z", "0.5"]) == 0
    out, err = capsys.readouterr()
    assert parse_complex(out.strip()) == pytest.approx(kernel_N_series(0.5), rel=1e-12)
    assert "sieving" not in err
    assert not list((cache_env / "cache").glob("arith_*.bin"))


def test_verify_has_no_tolerance_override(cache_env):
    # every check keeps its own frozen tolerance; --tol is not an option
    assert main(["verify", "bounds", "--limit", "50001", "--tol", "1"]) == 2


def test_report_missing_or_malformed_exits_2(cache_env, capsys, tmp_path):
    assert main(["report", "--in", str(tmp_path / "nope.jsonl")]) == 2
    bad = tmp_path / "bad.jsonl"
    bad.write_text("this is not json\n")
    assert main(["report", "--in", str(bad)]) == 2
    capsys.readouterr()


def _theorem1_report(tmp_path):
    out_file = tmp_path / "report.jsonl"
    assert main(["verify", "theorem1", "--limit", "5001", "--out", str(out_file)]) == 0
    manifest, *rows = [json.loads(line) for line in out_file.read_text().splitlines()]
    assert manifest["type"] == "manifest" and rows
    return out_file, manifest, rows


def _write_jsonl(path, records):
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))


def _assert_report_exits_2(path, capsys, message):
    capsys.readouterr()
    assert main(["report", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err


def test_report_skips_blank_lines_and_refuses_a_non_object(cache_env, capsys, tmp_path):
    out_file, _, rows = _theorem1_report(tmp_path)
    out_file.write_text(out_file.read_text().replace("\n", "\n\n", 1))
    capsys.readouterr()
    assert main(["report", "--in", str(out_file)]) == 0
    assert f"{len(rows)} checks, {len(rows)} passed, 0 failed" in capsys.readouterr().out
    with out_file.open("a") as fh:
        fh.write("[1, 2]\n")
    _assert_report_exits_2(out_file, capsys, "record is not an object")


def test_report_refuses_two_concatenated_reports(cache_env, capsys, tmp_path):
    # two runs in one file once rendered as one, under the last manifest; a
    # CSV file's second manifest was read as a row of too many cells
    for fmt, head_lines in (("jsonl", 1), ("csv", 2)):  # the manifest, and CSV's header
        files = [tmp_path / f"{limit}.{fmt}" for limit in (3001, 5001)]
        for limit, path in zip((3001, 5001), files):
            assert main(["verify", "theorem1", "--limit", str(limit), "--format", fmt,
                         "--out", str(path)]) == 0
        both = tmp_path / f"both.{fmt}"
        both.write_text(files[0].read_text() + files[1].read_text())
        rows = len(files[0].read_text().splitlines()) - head_lines
        _assert_report_exits_2(both, capsys, f"a second manifest, limit=5001, after row {rows}")


def test_report_empty_file_exits_2(cache_env, capsys, tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    _assert_report_exits_2(empty, capsys, "no manifest")


def test_report_without_manifest_exits_2(cache_env, capsys, tmp_path):
    out_file, _, rows = _theorem1_report(tmp_path)
    _write_jsonl(out_file, rows)
    _assert_report_exits_2(out_file, capsys, "no manifest")


def test_report_manifest_missing_field_exits_2(cache_env, capsys, tmp_path):
    out_file, manifest, rows = _theorem1_report(tmp_path)
    del manifest["command"]
    _write_jsonl(out_file, [manifest] + rows)
    _assert_report_exits_2(out_file, capsys, "manifest lacks command")


def test_report_without_rows_exits_2(cache_env, capsys, tmp_path):
    out_file, manifest, _ = _theorem1_report(tmp_path)
    _write_jsonl(out_file, [manifest])
    _assert_report_exits_2(out_file, capsys, "no report rows")


@pytest.mark.parametrize("key", ["pass", "check_id"])
def test_report_row_missing_key_exits_2(cache_env, capsys, tmp_path, key):
    out_file, manifest, rows = _theorem1_report(tmp_path)
    del rows[-1][key]
    _write_jsonl(out_file, [manifest] + rows)
    _assert_report_exits_2(out_file, capsys, f"row {len(rows)} lacks {key}")


@pytest.mark.parametrize("value", ["true", 1])
def test_report_refuses_a_jsonl_pass_that_is_not_a_boolean(cache_env, capsys, tmp_path, value):
    # "true" once counted as passed and 1 as failed: neither is a check result
    out_file, manifest, rows = _theorem1_report(tmp_path)
    for row in rows:
        row["pass"] = value
    _write_jsonl(out_file, [manifest] + rows)
    _assert_report_exits_2(out_file, capsys, f"row 1: pass is {value!r}, not a boolean")


def test_report_reads_a_json_integer_as_a_float(cache_env, capsys, tmp_path):
    out_file, manifest, rows = _theorem1_report(tmp_path)
    rows[0]["abs_err"] = 0
    _write_jsonl(out_file, [manifest] + rows)
    abs_err = read_report_file(out_file)[1][0]["abs_err"]
    assert type(abs_err) is float and abs_err == 0.0


def _theorem1_csv(tmp_path):
    out_file = tmp_path / "report.csv"
    assert main(["verify", "theorem1", "--limit", "5001", "--format", "csv",
                 "--out", str(out_file)]) == 0
    return out_file, out_file.read_text().splitlines()


@pytest.mark.parametrize("doctor, message", [
    (lambda cells: cells[:-1], "row 4 lacks pass"),
    (lambda cells: cells[:-1] + ["yes"], "row 4: pass is 'yes', not a boolean"),
    (lambda cells: cells[:2] + ["x"] + cells[3:], "row 4: lhs_re is 'x', not a number"),
    (lambda cells: cells[:1] + ["N=1"] + cells[2:], "row 4: inputs is 'N=1', not an object"),
    (lambda cells: cells + ["1"], "row 4 has more than 9 cells"),
], ids=["short", "pass-yes", "lhs-text", "inputs-text", "long"])
def test_report_refuses_a_bad_csv_row(cache_env, capsys, tmp_path, doctor, message):
    # the fourth row (file line 6) doctored; each cell is checked before it is
    # converted, as float() of a short row's missing cell raises TypeError (exit 3)
    out_file, lines = _theorem1_csv(tmp_path)
    cells = next(csv.reader([lines[5]]))
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(doctor(cells))
    lines[5] = buf.getvalue()
    out_file.write_text("\n".join(lines) + "\n")
    _assert_report_exits_2(out_file, capsys, message)


def test_report_refuses_a_csv_header_a_huge_cell_and_deep_json(cache_env, capsys, tmp_path):
    out_file, lines = _theorem1_csv(tmp_path)
    out_file.write_text("\n".join([lines[0], lines[1].replace("abs_err", "err")] + lines[2:]))
    _assert_report_exits_2(out_file, capsys, "row 1 lacks abs_err")
    out_file.write_text("\n".join(lines[:2] + ["x" * 200_000]))  # past csv's field limit
    _assert_report_exits_2(out_file, capsys, "field larger than field limit")
    out_file.write_text("[" * 100_000)
    _assert_report_exits_2(out_file, capsys, "cannot read report")


def test_flags_are_refused_where_they_do_nothing(cache_env, capsys):
    # --mode is zeta-alpha's and --form is M's, refused before any table is sieved
    assert main(["eval", "zeta", "--s", "2", "--mode", "lambda-relation"]) == 2
    assert "--mode applies to zeta-alpha only, not zeta" in capsys.readouterr().err
    for name in ("N", "Mprime", "series"):
        assert main(["kernel", name, "--z", "1", "--form", "plain", "--limit", "3001"]) == 2
        assert f"--form applies to M only, not {name}" in capsys.readouterr().err
    assert not (cache_env / "cache").exists() or not list((cache_env / "cache").iterdir())
    assert main(["eval", "zeta-alpha", "--s=-0.75", "--mode", "definition"]) == 0
    assert main(["kernel", "M", "--z", "1", "--form", "half-shifted", "--limit", "3001"]) == 0


def test_sieve_force_rebuilds(cache_env, capsys):
    assert main(["sieve", "--limit", "4001"]) == 0
    cache_file = cache_env / "cache" / "arith_4001.bin"
    first = cache_file.read_bytes()
    assert main(["sieve", "--limit", "4001", "--force"]) == 0
    assert cache_file.read_bytes() == first  # deterministic rebuild
    capsys.readouterr()


@pytest.mark.parametrize("name", ["N", "M", "Mprime"])
def test_kernel_rejects_a_non_finite_point(name, cache_env, capsys):
    assert main(["kernel", name, "--limit", "3001", "--z", "1e400"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "finite" in captured.err


def _numpy_on_openblas_x86() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return False
    return "openblas" in blas.get("name", "").lower() and platform.machine() == "x86_64"


def _verify_all_20001(cache: Path, **child_env):
    """stdout of `verify all --limit 20001` in a child process whose
    environment (numpy dispatch, OpenBLAS core) is the default plus child_env."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    env.update(LIOUMEL_CACHE_DIR=str(cache), LIOUMEL_TIMESTAMP="2025-01-01T00:00:00+00:00",
               PYTHONPATH=os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p),
               **child_env)
    proc = subprocess.run([sys.executable, "-m", "liouville_mellin", "verify", "all",
                           "--limit", "20001"], env=env, capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.skipif(not _numpy_on_openblas_x86(), reason="needs numpy on OpenBLAS, x86_64")
def test_reports_do_not_depend_on_the_openblas_core(tmp_path):
    # OPENBLAS_CORETYPE picks the BLAS kernels of the child process only
    default = _verify_all_20001(tmp_path)
    for core in ("Haswell", "Prescott"):
        assert _verify_all_20001(tmp_path, OPENBLAS_CORETYPE=core) == default, core


_NARROW_SIMD = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL", "OPENBLAS_CORETYPE": "Haswell"}


@pytest.mark.skipif(platform.machine() != "x86_64", reason="numpy's x86_64 SIMD dispatch")
def test_reports_move_little_with_numpy_simd_dispatch(tmp_path):
    # without numpy's AVX-512 loops, the sieve's array power, np.tanh and
    # np.exp may round otherwise: each run sieves its own table; the same rows
    # and pass flags, lhs and rhs within 1e-13 relative (abs_err and rel_err,
    # differences of close values, move more)
    narrowing = _NARROW_SIMD["NPY_DISABLE_CPU_FEATURES"]
    probe = subprocess.run([sys.executable, "-W", "error::ImportWarning", "-c", "import numpy"],
                           env={**os.environ, **_NARROW_SIMD}, capture_output=True, timeout=60)
    if probe.returncode:
        pytest.skip(f"numpy refuses NPY_DISABLE_CPU_FEATURES={narrowing}")
    default, narrow = ([r for r in map(json.loads, out.splitlines()) if r["type"] == "report"]
                       for out in (_verify_all_20001(tmp_path / "default"),
                                   _verify_all_20001(tmp_path / "narrow", **_NARROW_SIMD)))
    assert ([(r["check_id"], r["inputs"], r["pass"]) for r in narrow]
            == [(r["check_id"], r["inputs"], r["pass"]) for r in default])
    for a, b in zip(default, narrow):
        for side in ("lhs", "rhs"):
            x, y = (complex(r[side + "_re"], r[side + "_im"]) for r in (a, b))
            assert abs(x - y) <= 1e-13 * abs(x), (a["check_id"], a["inputs"], side, x, y)
