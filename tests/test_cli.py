"""End-to-end CLI behavior: construct, verify, catalog, exit codes."""

import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

import mcd_forge.construct as construct
import mcd_forge.verify as verify
from mcd_forge.bundle import (
    MAX_FILE_BYTES,
    bundle_from_design,
    read_bundle,
    sidecar_path,
    write_bundle,
)
from mcd_forge.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_PARAM_ERROR,
    EXIT_VERIFY_FAILED,
    SEED_ENV_VAR,
    main,
)
from mcd_forge.construct import MAX_DESIGN_CELLS, direct_construction
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


@pytest.mark.parametrize("name", ["d.json", "d.csv", "d"])
def test_every_file_construct_writes_reads_back(tmp_path, name):
    out = tmp_path / name
    argv = ["construct", "--method", "theorem1", "--s", "3",
            "--u", "3", "--u1", "2", "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert main(["verify", "--in", str(out)]) == EXIT_OK
    # the suffix alone picks the format; no flag can contradict it
    for path in tmp_path.iterdir():
        path.unlink()
    for fmt in ("json", "csv"):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--format", fmt])
        assert exc.value.code == 2
    assert not any(tmp_path.iterdir())


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


def test_construct_refuses_options_its_method_does_not_read(tmp_path,
                                                            capsys):
    # each of these exited 0 and wrote a file, dropping the options named
    out = tmp_path / "x.json"
    for params, message in (
            ("theorem2 --s 3 --u 3 --u1 2 --v 1 --generator 0=1,0,0",
             "theorem2 does not take --generator"),
            ("theorem1 --s 3 --u 3 --u1 2 --v 5",
             "theorem1 does not take --v"),
            ("general --s 3 --z 1,0,0 --x 1,1,1 --u 9 --v 2 --item ii",
             "general does not take --u, --v, --item"),
            ("anti-mirror --u 6 --u1 2 --item ii --v 3",
             "anti-mirror does not take --v, --item")):
        argv = ["construct", "--method", *params.split(), "--out", str(out)]
        assert main(argv) == EXIT_PARAM_ERROR, argv
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
    # anti-mirror still takes --s 2, and theorem1 an explicit --item i
    for params in ("anti-mirror --s 2 --u 4 --u1 2",
                   "theorem1 --s 3 --u 3 --u1 2 --item i"):
        assert main(["construct", "--method", *params.split(),
                     "--out", str(out)]) == EXIT_OK


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


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def test_negative_seed_flag_is_param_error(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    out = tmp_path / "neg.json"
    assert main(["construct", "--method", "theorem1", "--s", "3",
                 "--u", "3", "--u1", "2", "--seed", "-5",
                 "--out", str(out)]) == EXIT_PARAM_ERROR
    assert "'-5'" in _one_error_line(capsys)
    assert not out.exists()


def test_negative_seed_env_is_param_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "-5")
    out = tmp_path / "neg.json"
    assert main(["construct", "--method", "theorem1", "--s", "3",
                 "--u", "3", "--u1", "2", "--out", str(out)]) \
        == EXIT_PARAM_ERROR
    assert "'-5'" in _one_error_line(capsys)
    assert not out.exists()


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


def test_verify_refuses_an_oversize_stratify_sweep(tmp_path, capsys,
                                                   monkeypatch):
    # u = 5: check_mcd counts 32 * (2 * 8 + 1) = 544 cells, under the
    # sweep's 896, so the cap reaches the sweep first
    out = tmp_path / "strat.json"
    assert main(["construct", "--method", "anti-mirror",
                 "--u", "5", "--u1", "2", "--out", str(out)]) == EXIT_OK
    b = read_bundle(out)
    sweep = b.d2.shape[0] * b.k * (b.k - 1) // 2
    assert b.d2.shape[0] * (b.m * b.k + 1) < sweep
    monkeypatch.setattr(verify, "MAX_PAIR_WORK", sweep - 1)
    capsys.readouterr()
    assert main(["verify", "--in", str(out), "--stratify",
                 "2x2"]) == EXIT_PARAM_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: grid-stratification(2x2) sweep: {sweep} run-subset cells, "
        f"over the cap of {sweep - 1}\n")
    monkeypatch.setattr(verify, "MAX_PAIR_WORK", sweep)
    assert main(["verify", "--in", str(out), "--stratify", "2x2"]) == EXIT_OK


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


def test_verify_refuses_metadata_construct_never_writes(tmp_path, capsys):
    # each of these files used to verify PASS and exit 0
    for edit in ({"method": 42}, {"method": "bogus", "item": "zz", "v": 99},
                 {"provenance": [1, 2]}):
        for name in ("t2.json", "t2.csv"):
            out = tmp_path / name
            assert main(["construct", "--method", "theorem2", "--s", "3",
                         "--u", "3", "--u1", "2", "--v", "1",
                         "--out", str(out)]) == EXIT_OK
            meta = sidecar_path(out) if name.endswith(".csv") else out
            meta.write_text(json.dumps(
                dict(json.loads(meta.read_text()), **edit)))
            capsys.readouterr()
            assert main(["verify", "--in", str(out)]) == EXIT_PARAM_ERROR
            _one_error_line(capsys)


def test_construct_into_missing_directory_is_file_error(tmp_path, capsys):
    out = tmp_path / "missing" / "design.json"
    assert main(["construct", "--method", "theorem1", "--s", "3",
                 "--u", "3", "--u1", "2", "--out", str(out)]) \
        == EXIT_PARAM_ERROR
    assert "missing" in _one_error_line(capsys)


def test_verify_on_directory_is_file_error(tmp_path, capsys):
    assert main(["verify", "--in", str(tmp_path)]) == EXIT_PARAM_ERROR
    _one_error_line(capsys)


def test_verify_non_utf8_json_is_malformed(tmp_path, capsys):
    bad = _write_good_bundle(tmp_path, "latin.json")
    bad.write_bytes(b"\xff\xfe" + bad.read_bytes())
    capsys.readouterr()
    assert main(["verify", "--in", str(bad)]) == EXIT_PARAM_ERROR
    assert "UTF-8" in _one_error_line(capsys)


def test_verify_non_utf8_csv_sidecar_is_malformed(tmp_path, capsys):
    bad = _write_good_bundle(tmp_path, "latin.csv")
    side = sidecar_path(bad)
    side.write_bytes(side.read_bytes().replace(b"theorem2", b"theorem\xff"))
    capsys.readouterr()
    assert main(["verify", "--in", str(bad)]) == EXIT_PARAM_ERROR
    assert "UTF-8" in _one_error_line(capsys)


def test_verify_deeply_nested_json_is_malformed(tmp_path, capsys):
    # json.loads recurses once per nesting level: a provenance nesting
    # 100,000 lists printed a RecursionError traceback and exited 1, the
    # verification-failed code, from a JSON file or a CSV sidecar alike
    deep = '"provenance": {"x": ' + "[" * 100_000 + "]" * 100_000 + ","
    for name in ("deep.json", "deep.csv"):
        path = tmp_path / name
        assert main(["construct", "--method", "theorem1", "--s", "3",
                     "--u", "3", "--u1", "2", "--out", str(path)]) == EXIT_OK
        meta = sidecar_path(path) if path.suffix == ".csv" else path
        meta.write_text(meta.read_text().replace('"provenance": {', deep, 1))
        capsys.readouterr()
        assert main(["verify", "--in", str(path)]) == EXIT_PARAM_ERROR
        prefix = "sidecar " if path.suffix == ".csv" else ""
        assert _one_error_line(capsys) == (
            f"error: {prefix}not valid JSON: nested too deeply to read\n")


def test_verify_rejects_metadata_that_is_not_an_object(tmp_path, capsys):
    # a sidecar that parses to a number or null, and a JSON bool where
    # the format version goes, are malformed files, not a traceback or a
    # pass
    csv_path = _write_good_bundle(tmp_path, "meta.csv")
    for text in ("5", "null"):
        sidecar_path(csv_path).write_text(text + "\n")
        capsys.readouterr()
        assert main(["verify", "--in", str(csv_path)]) == EXIT_PARAM_ERROR
        assert "top level must be an object" in _one_error_line(capsys)
    json_path = _write_good_bundle(tmp_path, "meta.json")
    b = json.loads(json_path.read_text())
    b["format_version"] = True
    json_path.write_text(json.dumps(b))
    capsys.readouterr()
    assert main(["verify", "--in", str(json_path)]) == EXIT_PARAM_ERROR
    assert "format_version True" in _one_error_line(capsys)


def test_verify_non_utf8_csv_data_is_malformed(tmp_path, capsys):
    bad = _write_good_bundle(tmp_path, "latin.csv")
    bad.write_bytes(bad.read_bytes().replace(b"q1", b"q\xff", 1))
    capsys.readouterr()
    assert main(["verify", "--in", str(bad)]) == EXIT_PARAM_ERROR
    assert "UTF-8" in _one_error_line(capsys)


def test_catalog_markdown(capsys):
    assert main(["catalog", "--s", "3", "--u-max", "4"]) == EXIT_OK
    text = capsys.readouterr().out
    assert "## method theorem1 (s=3, u <= 4)" in text
    assert "## method theorem2 (s=3, u <= 4)" in text
    # the v = n* rows are starred
    assert " 4* " in text
    assert "OA(81, 4, 3, 2)" in text


def test_catalog_marks_an_unproven_nstar_apart(capsys):
    # (8,5) has a 9-arc under a bound of 12: "9+", where (8,4) and (8,6)
    # reach their bound of 9 and (8,3) its 10
    assert main(["catalog", "--s", "8", "--u-max", "6"]) == EXIT_OK
    marked = [line.split(" | ")[:3] for line
              in capsys.readouterr().out.splitlines()
              if line.split(" | ")[2:3] and line.split(" | ")[2][-1] in "*+"]
    assert ["| 6", "3", "10*"] in marked
    assert ["| 6", "4", "9*"] in marked
    assert ["| 6", "5", "9+"] in marked
    assert ["| 6", "6", "9*"] in marked
    assert sum(cell[-1] == "+" for _, _, cell in marked) == 2  # u = 5, 6
    # the CSV and JSON rows keep the one star flag
    assert main(["catalog", "--s", "8", "--u-max", "5",
                 "--format", "csv"]) == EXIT_OK
    assert "8,5,5,theorem2,9,1," in capsys.readouterr().out
    assert main(["catalog", "--s", "8", "--u-max", "5",
                 "--format", "json"]) == EXIT_OK
    rows = json.loads(capsys.readouterr().out)
    assert [r["star"] for r in rows if (r["u1"], r["v"]) == (5, 9)] == [True]


def test_theorem2_reaches_the_arc(tmp_path, capsys):
    # the search stopped at 12 of a bound of 14; the conic has 14 points
    out = tmp_path / "d.json"
    argv = ["construct", "--method", "theorem2", "--s", "13", "--u", "3",
            "--u1", "3", "--v", "14", "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert main(["verify", "--in", str(out)]) == EXIT_OK
    assert capsys.readouterr().out.endswith("PASS\n")
    assert read_bundle(out).d2.shape == (2197, 14)
    argv[argv.index("14")] = "15"
    assert main(argv) == EXIT_PARAM_ERROR
    assert "v=15 exceeds the bound 14" in capsys.readouterr().err


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


def test_catalog_materialize_skips_rows_over_a_cap(capsys, monkeypatch):
    # a row over a cap stopped the whole run with exit 2: no later row was
    # built and no summary printed
    monkeypatch.setattr(construct, "MAX_DESIGN_CELLS", 100)
    assert main(["catalog", "--s", "2", "--u-max", "4", "--format", "csv",
                 "--materialize"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    skipped = [line for line in lines if line.startswith("skipped ")]
    assert skipped == [
        "skipped theorem1 u=4 u1=1: 16 runs x 1 + 8 columns is 144 cells, "
        "over the cap of 100",
        "skipped theorem2 u=4 u1=1 v=1: 16 runs x 1 + 8 columns is 144 "
        "cells, over the cap of 100",
        "skipped theorem2 u=4 u1=4 v=1: 16 runs x 8 + 1 columns is 144 "
        "cells, over the cap of 100"]
    # the run goes on past a skipped row
    assert lines[lines.index(skipped[0]) + 1] == "verified theorem1 u=4 u1=2"
    assert lines[-1] == \
        "materialized 15 rows, 0 failure(s), 3 skipped over a cap"


def test_catalog_materialize_ignores_the_seed_environment(capsys,
                                                         monkeypatch):
    argv = ["catalog", "--s", "3", "--u-max", "3", "--materialize"]
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    assert main(argv) == EXIT_OK
    unset = capsys.readouterr().out
    # not even a seed that construct would refuse changes a byte
    monkeypatch.setenv(SEED_ENV_VAR, "-5")
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == unset
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "7"])
    assert exc.value.code == 2


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
                   ["--method", "anti-mirror", "--u", "23", "--u1", "2"],
                   # capped long before the (8, 4) prefix search ends
                   ["--method", "theorem2", "--s", "8", "--u", "30",
                    "--u1", "4", "--v", "1"]):
        out = tmp_path / "big.json"
        proc = subprocess.run(
            [sys.executable, "-m", "mcd_forge.cli", "construct", *params,
             "--out", str(out)],
            env=env, preexec_fn=_limit_address_space, capture_output=True,
            text=True, timeout=60)
        assert proc.returncode == EXIT_PARAM_ERROR, proc.stderr
        assert proc.stderr.startswith("error: ") and "cap" in proc.stderr
        assert not out.exists()


def test_oversize_file_exits_2_at_once_naming_its_size(tmp_path):
    # each sparse file is one byte over the cap; the whole-text reader read
    # it all before it failed, and a 1 GiB address space holds two copies
    # of the JSON text at most
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
    good = tmp_path / "good.csv"
    assert main(["construct", "--method", "theorem1", "--s", "3", "--u",
                 "3", "--u1", "2", "--out", str(good)]) == EXIT_OK
    huge_json, huge_csv = tmp_path / "huge.json", tmp_path / "huge.csv"
    shutil.copy(sidecar_path(good), sidecar_path(huge_csv))
    big_side = tmp_path / "side.csv"
    shutil.copy(good, big_side)
    for path, big in ((huge_json, huge_json), (huge_csv, huge_csv),
                      (big_side, sidecar_path(big_side))):
        big.touch()
        os.truncate(big, MAX_FILE_BYTES + 1)
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "mcd_forge.cli", "verify", "--in",
             str(path)],
            env=env, preexec_fn=_limit_address_space, capture_output=True,
            text=True, timeout=60)
        assert perf_counter() - start < 1
        assert proc.returncode == EXIT_PARAM_ERROR, proc.stderr
        assert proc.stderr == (f"error: {big.name} is {MAX_FILE_BYTES + 1} "
                               f"bytes, over the cap of {MAX_FILE_BYTES} "
                               "bytes\n")


def test_absurd_u_fails_closed_without_printing_s_to_the_u(tmp_path,
                                                          capsys):
    # 2^20000 has 6,021 digits: formatting it into the size error raised
    # ValueError, a traceback and exit 1, the verification-failure code
    out = tmp_path / "x.json"
    for params in (["--method", "theorem1", "--s", "2", "--u1", "1"],
                   ["--method", "theorem2", "--s", "2", "--u1", "2",
                    "--v", "1"],
                   ["--method", "anti-mirror", "--u1", "2"]):
        start = perf_counter()
        code = main(["construct", *params, "--u", "20000", "--out", str(out)])
        assert perf_counter() - start < 1
        assert code == EXIT_PARAM_ERROR
        assert capsys.readouterr().err == (
            f"error: 2^20000 runs is over the cap of {MAX_DESIGN_CELLS} "
            "cells\n")
        assert not out.exists()


def test_wide_admissible_d1_builds_and_verifies_in_seconds(tmp_path):
    # a D1 of 256 admissible columns has C(256, 3) triples; scanning them
    # one rank call at a time ran for minutes before the strength was
    # certified
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
    for params in (["--method", "theorem1", "--s", "2", "--u", "10",
                    "--u1", "2", "--item", "ii"],
                   ["--method", "theorem2", "--s", "2", "--u", "10",
                    "--u1", "2", "--v", "1", "--item", "ii"]):
        out = tmp_path / "wide.json"
        for command in (["construct", *params, "--out", str(out)],
                        ["verify", "--in", str(out)]):
            proc = subprocess.run(
                [sys.executable, "-m", "mcd_forge.cli", *command],
                env=env, capture_output=True, text=True, timeout=30)
            assert proc.returncode == EXIT_OK, (command, proc.stderr)
        assert proc.stdout.endswith("PASS\n")
        assert read_bundle(out).d1.shape == (1024, 256)


def test_verify_rejects_a_file_whose_u_or_u1_disagrees(tmp_path, capsys):
    # these edits of a 27-run theorem1 s=3 u=3 u1=2 file used to verify PASS
    for name in ("d.json", "d.csv"):
        out = tmp_path / name
        assert main(["construct", "--method", "theorem1", "--s", "3",
                     "--u", "3", "--u1", "2", "--out", str(out)]) == EXIT_OK
        meta_path = sidecar_path(out) if name.endswith(".csv") else out
        meta = json.loads(meta_path.read_text())
        for key, value, error in (("u", 4, "27 runs, not 3^4"),
                                  ("u", 20000, "27 runs, not 3^20000"),
                                  ("u1", 7, "u1 = 7 outside 1..u = 3")):
            meta_path.write_text(json.dumps(dict(meta, **{key: value})))
            capsys.readouterr()
            assert main(["verify", "--in", str(out)]) == EXIT_PARAM_ERROR
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", f"error: {error}\n")


def test_verify_sizes_a_strength_check_before_counting(tmp_path, capsys):
    # 1024 runs x 256 qualitative columns: strength 3 counts
    # 1024 * C(256, 3) cells, which took 15 s before it was sized
    out = tmp_path / "c.json"
    write_bundle(out, bundle_from_design(
        direct_construction(galois_field(2), 10, 2, "ii")))
    capsys.readouterr()
    for t in (3, 4):
        start = perf_counter()
        assert main(["verify", "--in", str(out), "--strength", str(t)]) \
            == EXIT_PARAM_ERROR
        assert perf_counter() - start < 1
    work = 1024 * (256 * 255 * 254 // 6)
    assert capsys.readouterr().err.splitlines()[0] == (
        f"error: oa-strength(3) check counts {work} run-subset cells, over "
        f"the cap of {verify.MAX_PAIR_WORK}")
    assert main(["verify", "--in", str(out), "--strength", "2"]) == EXIT_OK


def test_verify_sizes_check_mcd_before_counting(tmp_path, capsys,
                                                monkeypatch):
    # a file is not built by construct, so its check_mcd is sized here
    out = _write_good_bundle(tmp_path)
    b = read_bundle(out)
    work = b.d1.shape[0] * (b.m * b.k + b.m * (b.m - 1) // 2)
    monkeypatch.setattr(verify, "MAX_PAIR_WORK", work - 1)
    capsys.readouterr()
    assert main(["verify", "--in", str(out)]) == EXIT_PARAM_ERROR
    assert capsys.readouterr().err == (
        f"error: verifying 81 runs x {b.m} + {b.k} columns counts {work} "
        f"run-pair cells, over the cap of {work - 1}\n")
    monkeypatch.setattr(verify, "MAX_PAIR_WORK", work)
    assert main(["verify", "--in", str(out)]) == EXIT_OK


def test_verify_refuses_a_negative_seed(tmp_path, capsys):
    # each file used to verify PASS and exit 0
    for name in ("t2.json", "t2.csv"):
        out = tmp_path / name
        assert main(["construct", "--method", "theorem2", "--s", "3",
                     "--u", "3", "--u1", "2", "--v", "1", "--seed", "3",
                     "--out", str(out)]) == EXIT_OK
        meta = sidecar_path(out) if name.endswith(".csv") else out
        meta.write_text(json.dumps(
            dict(json.loads(meta.read_text()), seed=-3)))
        capsys.readouterr()
        assert main(["verify", "--in", str(out)]) == EXIT_PARAM_ERROR
        assert _one_error_line(capsys) == (
            'error: seed must be a non-negative integer or "identity"\n')


def test_a_closed_stdout_ends_the_run_quietly(tmp_path):
    # a reader that stops after 10 bytes of 200 KB: before, the broken
    # pipe was reported as a file error, "error: [Errno 32] Broken pipe",
    # with exit 2
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "mcd_forge.cli", "catalog", "--s", "32",
         "--u-max", "6", "--format", "json"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE == 141
    assert stderr == b""
    # an output file that cannot be written keeps its message and exit 2
    out = tmp_path / "missing" / "d.json"
    proc = subprocess.run(
        [sys.executable, "-m", "mcd_forge.cli", "construct", "--method",
         "theorem1", "--s", "2", "--u", "3", "--u1", "2", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_PARAM_ERROR
    assert proc.stderr == (f"error: [Errno 2] No such file or directory: "
                           f"'{out}'\n")
