"""End-to-end CLI behavior: construct, verify, catalog, exit codes."""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from mcd_forge.bundle import read_bundle, sidecar_path, write_bundle
from mcd_forge.cli import (
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_PARAM_ERROR,
    EXIT_VERIFY_FAILED,
    SEED_ENV_VAR,
    main,
)
from mcd_forge.construct import direct_construction
from mcd_forge.gf import galois_field
from golden_data import EXAMPLE1_COLLAPSED, EXAMPLE1_QUALITATIVE


def test_construct_theorem1_writes_verified_json(tmp_path, capsys):
    out = tmp_path / "d.json"
    code = main(["construct", "--method", "theorem1", "--s", "3",
                 "--u", "3", "--u1", "2", "--out", str(out)])
    assert code == EXIT_OK
    assert "wrote" in capsys.readouterr().out
    b = read_bundle(out)
    assert b.method == "theorem1"
    assert b.d1.shape == (27, 2)
    assert b.d2.shape == (27, 6)


def test_construct_csv_format_inferred_from_suffix(tmp_path):
    out = tmp_path / "d.csv"
    assert main(["construct", "--method", "theorem2", "--s", "3",
                 "--u", "4", "--u1", "3", "--v", "2",
                 "--out", str(out)]) == EXIT_OK
    assert out.exists()
    assert sidecar_path(out).exists()
    b = read_bundle(out)
    assert b.method == "theorem2"
    assert b.v == 2


def test_construct_general_reproduces_worked_example(tmp_path):
    out = tmp_path / "e1.json"
    code = main(["construct", "--method", "general", "--s", "3",
                 "--z", "1,2,0", "--x", "1,2,0",
                 "--generator", "0=0,0,1|1,1,0",
                 "--out", str(out)])
    assert code == EXIT_OK
    b = read_bundle(out)
    assert tuple(b.d1[:, 0]) == EXAMPLE1_QUALITATIVE
    assert tuple(b.d2[:, 0] // 3) == EXAMPLE1_COLLAPSED


def test_construct_anti_mirror(tmp_path):
    out = tmp_path / "am.json"
    assert main(["construct", "--method", "anti-mirror",
                 "--u", "4", "--u1", "2", "--out", str(out)]) == EXIT_OK
    b = read_bundle(out)
    assert b.s == 2
    assert b.d1.shape == (16, 2)
    assert b.d2.shape == (16, 4)


def test_construct_param_errors(tmp_path, capsys):
    out = str(tmp_path / "x.json")
    cases = [
        # theorem2 without --v
        ["construct", "--method", "theorem2", "--s", "3",
         "--u", "4", "--u1", "3", "--out", out],
        # anti-mirror is two-level only
        ["construct", "--method", "anti-mirror", "--s", "3",
         "--u", "4", "--u1", "2", "--out", out],
        # not a prime power
        ["construct", "--method", "theorem1", "--s", "6",
         "--u", "3", "--u1", "2", "--out", out],
        # malformed vector
        ["construct", "--method", "general", "--s", "3",
         "--z", "1;2;0", "--x", "1,2,0", "--out", out],
        # malformed generator override
        ["construct", "--method", "general", "--s", "3",
         "--z", "1,2,0", "--x", "1,2,0",
         "--generator", "nope", "--out", out],
        # duplicate generator override
        ["construct", "--method", "general", "--s", "3",
         "--z", "1,2,0", "--x", "1,2,0",
         "--generator", "0=0,0,1|1,1,0", "--generator", "0=1,1,0|0,0,1",
         "--out", out],
        # orthogonal z/x pair
        ["construct", "--method", "general", "--s", "3",
         "--z", "1,1,0", "--x", "1,2,0", "--out", out],
        # bad seed string
        ["construct", "--method", "theorem1", "--s", "3",
         "--u", "3", "--u1", "2", "--seed", "soon", "--out", out],
    ]
    for argv in cases:
        capsys.readouterr()
        assert main(argv) == EXIT_PARAM_ERROR, argv
        assert "error:" in capsys.readouterr().err


def test_seed_resolution_env_and_flag(tmp_path, monkeypatch):
    f3 = galois_field(3)
    out = tmp_path / "seeded.json"
    base = ["construct", "--method", "theorem1", "--s", "3",
            "--u", "3", "--u1", "2", "--out", str(out)]

    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    assert main(base) == EXIT_OK
    identity = read_bundle(out)
    assert identity.seed == "identity"
    expected = direct_construction(f3, 3, 2, "i", "identity")
    assert (identity.d2 == expected.d2.data).all()

    monkeypatch.setenv(SEED_ENV_VAR, "21")
    assert main(base) == EXIT_OK
    from_env = read_bundle(out)
    assert from_env.seed == 21
    expected = direct_construction(f3, 3, 2, "i", 21)
    assert (from_env.d2 == expected.d2.data).all()

    # explicit flag beats the environment
    assert main(base + ["--seed", "5"]) == EXIT_OK
    from_flag = read_bundle(out)
    assert from_flag.seed == 5
    expected = direct_construction(f3, 3, 2, "i", 5)
    assert (from_flag.d2 == expected.d2.data).all()


def _write_good_bundle(tmp_path, name="good.json"):
    out = tmp_path / name
    assert main(["construct", "--method", "theorem2", "--s", "3",
                 "--u", "4", "--u1", "3", "--v", "2",
                 "--out", str(out)]) == EXIT_OK
    return out


def test_verify_passes_on_written_file(tmp_path, capsys):
    out = _write_good_bundle(tmp_path)
    capsys.readouterr()
    assert main(["verify", "--in", str(out)]) == EXIT_OK
    text = capsys.readouterr().out
    assert "[pass] oa-strength(2)" in text
    assert "[pass] latin-hypercube" in text
    assert "[pass] pair-balance" in text
    assert "[pass] non-cascading" in text
    assert text.strip().endswith("PASS")


def test_verify_fails_on_tampered_file(tmp_path, capsys):
    out = _write_good_bundle(tmp_path)
    b = json.loads(out.read_text())
    b["d2"][0][0] = b["d2"][1][0]   # duplicate one quantitative value
    out.write_text(json.dumps(b))
    capsys.readouterr()
    assert main(["verify", "--in", str(out)]) == EXIT_VERIFY_FAILED
    text = capsys.readouterr().out
    assert "[FAIL]" in text
    assert text.strip().endswith("FAIL")


def test_verify_strength_flag(tmp_path, capsys):
    out = _write_good_bundle(tmp_path)
    capsys.readouterr()
    assert main(["verify", "--in", str(out), "--strength", "2"]) == EXIT_OK
    # strength above the column count is a parameter error
    assert main(["verify", "--in", str(out), "--strength", "7"]) \
        == EXIT_PARAM_ERROR


def test_verify_strength_zero_is_param_error(tmp_path, capsys):
    out = _write_good_bundle(tmp_path)
    capsys.readouterr()
    assert main(["verify", "--in", str(out), "--strength", "0"]) \
        == EXIT_PARAM_ERROR
    captured = capsys.readouterr()
    assert captured.err == "error: strength must be at least 1\n"
    assert captured.out == ""


def test_verify_stratify_flag(tmp_path, capsys):
    out = tmp_path / "strat.json"
    assert main(["construct", "--method", "anti-mirror",
                 "--u", "4", "--u1", "2", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert main(["verify", "--in", str(out), "--stratify", "2x2x2"]) == EXIT_OK
    text = capsys.readouterr().out
    assert "grid-stratification(2x2x2) on all column subsets" in text
    # more grid dimensions than columns
    assert main(["verify", "--in", str(out), "--stratify",
                 "2x2x2x2x2"]) == EXIT_PARAM_ERROR
    assert main(["verify", "--in", str(out), "--stratify",
                 "2xtwo"]) == EXIT_PARAM_ERROR


def test_verify_json_report(tmp_path, capsys):
    out = _write_good_bundle(tmp_path)
    capsys.readouterr()
    assert main(["verify", "--in", str(out), "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    names = [c["name"] for c in payload["checks"]]
    assert "pair-balance" in names
    assert all(c["passed"] for c in payload["checks"])


def test_verify_missing_and_malformed_files(tmp_path, capsys):
    assert main(["verify", "--in", str(tmp_path / "nope.json")]) \
        == EXIT_PARAM_ERROR
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["verify", "--in", str(bad)]) == EXIT_PARAM_ERROR
    # an entry outside int64 is a malformed file, not an internal error
    huge = _write_good_bundle(tmp_path, "huge.json")
    b = json.loads(huge.read_text())
    b["d2"][0][0] = 2 ** 70
    huge.write_text(json.dumps(b))
    assert main(["verify", "--in", str(huge)]) == EXIT_PARAM_ERROR


def test_catalog_markdown(capsys):
    assert main(["catalog", "--s", "3", "--u-max", "4"]) == EXIT_OK
    text = capsys.readouterr().out
    assert "## method theorem1 (s=3, u <= 4)" in text
    assert "## method theorem2 (s=3, u <= 4)" in text
    # the v = n* rows are starred
    assert " 4* " in text
    assert "OA(81, 4, 3, 2)" in text


def test_catalog_csv(capsys):
    assert main(["catalog", "--s", "3", "--u-max", "3",
                 "--format", "csv"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("s,u,u1,method,v,star,n_a,g")
    # header + 5 theorem1 rows + 10 theorem2 rows
    assert len(lines) == 16
    assert lines[1].startswith("3,2,1,theorem1")


def test_catalog_json(capsys):
    assert main(["catalog", "--s", "2", "--u-max", "3",
                 "--format", "json"]) == EXIT_OK
    rows = json.loads(capsys.readouterr().out)
    assert all(row["s"] == 2 for row in rows)
    methods = {row["method"] for row in rows}
    assert methods == {"theorem1", "theorem2"}


def test_catalog_materialize(capsys):
    assert main(["catalog", "--s", "3", "--u-max", "2",
                 "--materialize"]) == EXIT_OK
    text = capsys.readouterr().out
    assert "materialized 5 rows, 0 failure(s)" in text
    assert text.count("verified ") == 5


def test_catalog_param_errors(capsys):
    assert main(["catalog", "--s", "6", "--u-max", "3"]) == EXIT_PARAM_ERROR
    assert main(["catalog", "--s", "3", "--u-max", "9"]) == EXIT_PARAM_ERROR


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["disassemble"])
    assert exc.value.code == 2


def test_internal_exit_code_distinct():
    # the codes form the documented ladder
    assert (EXIT_OK, EXIT_VERIFY_FAILED, EXIT_PARAM_ERROR, EXIT_INTERNAL) \
        == (0, 1, 2, 3)


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_oversize_construct_fails_closed_before_enumerating(tmp_path):
    # each request passes the 10^7 enumeration cap on s^u runs; without a
    # size check first, the admissible set alone is an 8.4M x 23 grid
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
    for params in (["--method", "theorem1", "--s", "2", "--u", "23",
                    "--u1", "1"],
                   ["--method", "theorem2", "--s", "2", "--u", "23",
                    "--u1", "1", "--v", "1"],
                   ["--method", "anti-mirror", "--u", "23", "--u1", "2"]):
        out = tmp_path / "big.json"
        proc = subprocess.run(
            [sys.executable, "-m", "mcd_forge.cli", "construct", *params,
             "--out", str(out)],
            env=env, preexec_fn=_limit_address_space, capture_output=True,
            text=True, timeout=60)
        assert proc.returncode == EXIT_PARAM_ERROR, proc.stderr
        assert proc.stderr.startswith("error: ") and "cap" in proc.stderr
        assert not out.exists()
