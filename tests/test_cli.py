"""Command-line surface: parsing, subcommands, report files, determinism."""

import json
import math

import pytest

from liouville_mellin.cli import (RunManifest, format_complex, main,
                                  parse_complex, read_report_file)


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
    for bad in ("", "2+", "1 + 2i", "i", "2+3j"):
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
    assert isinstance(manifest, RunManifest)
    assert manifest.command == "verify bounds"
    assert manifest.table_limit == 50001
    assert manifest.started == "2025-01-01T00:00:00+00:00"
    assert rows and all(r["pass"] for r in rows)
    # manifest round-trips through serialization
    again = RunManifest.from_record(json.loads(json.dumps(manifest.to_record())))
    assert again == manifest


def test_verify_output_byte_identical(cache_env, tmp_path):
    f1, f2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for f in (f1, f2):
        assert main(["verify", "theorem1", "--limit", "50001",
                     "--out", str(f)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_verify_csv_format(cache_env, tmp_path):
    out_file = tmp_path / "report.csv"
    assert main(["verify", "theorem1", "--limit", "50001", "--format", "csv",
                 "--out", str(out_file)]) == 0
    lines = out_file.read_text().splitlines()
    assert lines[0].startswith("# manifest:")
    assert lines[1] == ("check_id,inputs,lhs_re,lhs_im,rhs_re,rhs_im,"
                        "abs_err,rel_err,pass")
    manifest, rows = read_report_file(out_file)
    assert manifest.command == "verify theorem1"
    assert all(isinstance(r["pass"], bool) for r in rows)


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


def test_mprime_rejects_complex(cache_env, capsys):
    assert main(["kernel", "Mprime", "--z", "1+1i", "--limit", "5001"]) == 2
    capsys.readouterr()


def test_tol_override_rescores(cache_env, tmp_path):
    # an absurdly tight tolerance must flip the scored Dirichlet checks
    out_file = tmp_path / "tight.jsonl"
    code = main(["verify", "bounds", "--limit", "50001", "--tol", "1e-30",
                 "--out", str(out_file)])
    assert code == 1
    _, rows = read_report_file(out_file)
    flipped = [r for r in rows
               if r["check_id"] == "bounds.dirichlet-lambda" and not r["pass"]]
    assert flipped


def test_report_missing_or_malformed_exits_2(cache_env, capsys, tmp_path):
    assert main(["report", "--in", str(tmp_path / "nope.jsonl")]) == 2
    bad = tmp_path / "bad.jsonl"
    bad.write_text("this is not json\n")
    assert main(["report", "--in", str(bad)]) == 2
    capsys.readouterr()


def test_sieve_force_rebuilds(cache_env, capsys):
    assert main(["sieve", "--limit", "4001"]) == 0
    cache_file = cache_env / "cache" / "arith_4001.bin"
    first = cache_file.read_bytes()
    assert main(["sieve", "--limit", "4001", "--force"]) == 0
    assert cache_file.read_bytes() == first  # deterministic rebuild
    capsys.readouterr()
