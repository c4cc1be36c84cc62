"""End-to-end CLI behavior: construct, verify, catalog, exit codes."""

import contextlib
import io
import json
import os
import random
import resource
import runpy
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

import mcd_forge.cli as cli
import mcd_forge.construct as construct
import mcd_forge.verify as verify
from mcd_forge.bundle import (
    MAX_FILE_BYTES,
    bundle_from_design,
    read_bundle,
    sidecar_path,
    write_bundle,
)
from mcd_forge.catalog import all_rows
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
from mcd_forge.errors import TooLargeError
from mcd_forge.gf import galois_field
from golden_data import EXAMPLE1_COLLAPSED, EXAMPLE1_QUALITATIVE
from test_readme import _cli_commands


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


def test_verify_refuses_a_bad_strength_before_counting(tmp_path, capsys,
                                                      monkeypatch):
    # the battery used to count everything before refusing the strength
    out = _write_good_bundle(tmp_path)
    m = read_bundle(out).m

    def no_counting(*args):
        raise AssertionError("counted before refusing the strength")

    monkeypatch.setattr(verify, "_first_unbalanced", no_counting)
    for text, message in (("0", "strength must be at least 1"),
                          ("-1", "strength must be at least 1"),
                          (str(m + 1),
                           f"strength {m + 1} exceeds column count {m}"),
                          ("999", f"strength 999 exceeds column count {m}")):
        capsys.readouterr()
        assert main(["verify", "--in", str(out), "--strength", text,
                     "--stratify", "3x3"]) == EXIT_PARAM_ERROR
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""


def test_verify_parses_the_grid_before_reading_the_file(tmp_path, capsys,
                                                        monkeypatch):
    # a bad grid used to be found only after the whole file was read; with
    # the file missing as well, the grid is now the error reported
    missing = str(tmp_path / "missing.json")
    assert main(["verify", "--in", missing, "--stratify",
                 "2x"]) == EXIT_PARAM_ERROR
    assert _one_error_line(capsys) == (
        "error: bad grid '2x'; expected e.g. 2x2 or 3x3x3\n")
    out = _write_good_bundle(tmp_path)
    capsys.readouterr()

    def no_read(path):
        raise AssertionError("read the file before parsing the grid")

    monkeypatch.setattr(cli, "read_bundle", no_read)
    for grid in ("2x", "2xtwo", "0x2"):
        assert main(["verify", "--in", str(out), "--stratify",
                     grid]) == EXIT_PARAM_ERROR
        assert f"bad grid '{grid}'" in _one_error_line(capsys)


def test_verify_refuses_a_low_strength_before_reading_the_file(
        tmp_path, capsys, monkeypatch):
    # a strength below 1 used to be refused only after the whole file was
    # read; a strength above m still needs the file for m
    out = _write_good_bundle(tmp_path)
    m = read_bundle(out).m
    capsys.readouterr()

    def no_read(path):
        raise AssertionError("read the file before refusing the strength")

    monkeypatch.setattr(cli, "read_bundle", no_read)
    for text in ("0", "-1", "-999"):
        assert main(["verify", "--in", str(out), "--strength",
                     text]) == EXIT_PARAM_ERROR
        assert _one_error_line(capsys) == (
            "error: strength must be at least 1\n")
    monkeypatch.undo()
    assert main(["verify", "--in", str(out), "--strength",
                 str(m + 1)]) == EXIT_PARAM_ERROR
    assert _one_error_line(capsys) == (
        f"error: strength {m + 1} exceeds column count {m}\n")


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


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="int() has no digit limit before Python 3.10.7")
def test_verify_json_integer_past_the_digit_limit_is_malformed(tmp_path,
                                                              capsys):
    # json.loads raises a plain ValueError on an integer of more than
    # 4,300 digits: verify printed a traceback and exited 1, from a bundle
    # read whole, a canonical file's metadata and a CSV sidecar alike
    huge = "1" * 5000
    bundle_path = tmp_path / "huge.json"
    bundle_path.write_text('{"d1": [[' + huge + "]]}")
    canonical, csv_path = (_write_good_bundle(tmp_path, name)
                           for name in ("seed.json", "seed.csv"))
    for path, meta in ((bundle_path, None), (canonical, canonical),
                       (csv_path, sidecar_path(csv_path))):
        if meta is not None:
            text = meta.read_text()
            assert '"seed": "identity"' in text
            meta.write_text(text.replace('"seed": "identity"',
                                         f'"seed": {huge}'))
        capsys.readouterr()
        assert main(["verify", "--in", str(path)]) == EXIT_PARAM_ERROR
        prefix = "sidecar " if path.suffix == ".csv" else ""
        assert _one_error_line(capsys) == (
            f"error: {prefix}not readable JSON: an integer has more than "
            f"{sys.get_int_max_str_digits()} digits\n")


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


def test_construct_that_fails_leaves_no_file(tmp_path, capsys):
    # the CSV was written before its sidecar failed to open: exit 2, with
    # d/h.csv left behind and no sidecar beside it
    side = tmp_path / "h.meta.json"
    side.mkdir()
    out = tmp_path / "h.csv"
    capsys.readouterr()
    assert main(["construct", "--method", "theorem1", "--s", "3", "--u", "3",
                 "--u1", "2", "--out", str(out)]) == EXIT_PARAM_ERROR
    assert _one_error_line(capsys) == (
        f"error: [Errno 21] Is a directory: '{side}'\n")
    assert [p.name for p in tmp_path.iterdir()] == ["h.meta.json"]
    assert side.is_dir() and not any(side.iterdir())



def test_construct_whose_design_fails_verification_exits_3(tmp_path, capsys,
                                                          monkeypatch):
    # construction never emits an unverified design: a failing battery is
    # an internal error, reported with its lines, and nothing is written
    broken = verify.VerificationReport((
        verify.CheckResult("oa-strength(2)", (), True),
        verify.CheckResult("latin-hypercube", (3,), False,
                           "column 3 is not a permutation of 0..26 "
                           "(value 5 missing)")))
    monkeypatch.setattr(construct.MarginallyCoupledDesign,
                        "full_verification", lambda self: broken)
    capsys.readouterr()
    assert main(["construct", "--method", "theorem1", "--s", "3", "--u", "3",
                 "--u1", "2", "--out", str(tmp_path / "d.json")]) \
        == EXIT_INTERNAL
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "internal error: constructed design failed verification\n"
        "[pass] oa-strength(2)\n"
        "[FAIL] latin-hypercube (3,) -- column 3 is not a permutation of "
        "0..26 (value 5 missing)\n")
    assert list(tmp_path.iterdir()) == []


def test_construct_general_refuses_a_bad_x_index(tmp_path, capsys):
    capsys.readouterr()
    assert main(["construct", "--method", "general", "--s", "3",
                 "--z", "1,2,0", "--x", "1,2,0", "--generator", "x=0,0,1",
                 "--out", str(tmp_path / "g.json")]) == EXIT_PARAM_ERROR
    assert _one_error_line(capsys) == "error: bad x index in 'x=0,0,1'\n"
    assert list(tmp_path.iterdir()) == []

def test_files_read_as_utf8_under_an_ascii_locale(tmp_path):
    # a raw UTF-8 provenance note was decoded by the locale: under C, each
    # file exited 2 with "not UTF-8 text: 'ascii' codec can't decode byte
    # 0xc3"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src,
               LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    child = subprocess.run(
        [sys.executable, "-c", "import codecs, locale; print(codecs.lookup("
         "locale.getpreferredencoding(False)).name)"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    if child.stdout.strip() != "ascii":
        pytest.skip(f"the C locale's encoding is {child.stdout.strip()}")
    b = bundle_from_design(direct_construction(galois_field(3), 3, 2, "i"))
    b.provenance["note"] = "caf\u00e9"
    for name in ("note.json", "note.csv"):
        path = write_bundle(tmp_path / name, b)
        meta = sidecar_path(path) if path.suffix == ".csv" else path
        meta.write_bytes(meta.read_bytes().replace(b"caf\\u00e9",
                                                   "café".encode()))
        assert "café".encode() in meta.read_bytes()
        proc = subprocess.run(
            [sys.executable, "-m", "mcd_forge.cli", "verify", "--in",
             str(path)], env=env, capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (EXIT_OK, ""), name


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



def test_catalog_materialize_reports_a_failed_row(capsys, monkeypatch):
    # a row whose check fails is printed with its check lines, indented,
    # the run goes on, and the summary counts it: exit 1
    real = cli.verify_row

    def one_fails(row):
        report = real(row)
        if (row.method, row.u, row.u1) != ("theorem1", 2, 2):
            return report
        return verify.VerificationReport(report.checks[:1] + (
            verify.CheckResult("pair-balance", (0, 1), False, "tampered"),))

    monkeypatch.setattr(cli, "verify_row", one_fails)
    assert main(["catalog", "--s", "3", "--u-max", "2", "--format", "csv",
                 "--materialize"]) == EXIT_VERIFY_FAILED
    lines = capsys.readouterr().out.splitlines()
    at = lines.index("FAILED theorem1 u=2 u1=2")
    assert lines[at - 1:at + 4] == [
        "verified theorem1 u=2 u1=1",
        "FAILED theorem1 u=2 u1=2",
        "  [pass] oa-strength(2)",
        "  [FAIL] pair-balance (0, 1) -- tampered",
        "verified theorem2 u=2 u1=1 v=1"]
    assert lines[-1] == "materialized 5 rows, 1 failure(s)"

def test_catalog_materialize_skips_rows_over_a_cap(capsys, monkeypatch):
    # a row over a cap stopped the whole run with exit 2: no later row was
    # built and no summary printed
    monkeypatch.setattr(verify, "MAX_DESIGN_CELLS", 100)
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


def test_verify_holds_a_file_to_the_cell_cap_before_counting(tmp_path,
                                                             capsys,
                                                             monkeypatch):
    # a file is held to the cell cap construct keeps: a hand-made CSV of
    # 2^20 runs x (1 + 20) columns, 4.4 times the cap, was counted in full
    # at a 208 MiB peak and exited 1
    out = _write_good_bundle(tmp_path)
    b = read_bundle(out)
    cells = b.d1.shape[0] * (b.m + b.k)
    monkeypatch.setattr(verify, "MAX_DESIGN_CELLS", cells - 1)
    capsys.readouterr()
    assert main(["verify", "--in", str(out)]) == EXIT_PARAM_ERROR
    assert capsys.readouterr().err == (
        f"error: 81 runs x {b.m} + {b.k} columns is {cells} cells, over "
        f"the cap of {cells - 1}\n")
    # the cap is inclusive
    monkeypatch.setattr(verify, "MAX_DESIGN_CELLS", cells)
    assert main(["verify", "--in", str(out)]) == EXIT_OK
    # the battery itself refuses before the counting kernel runs
    monkeypatch.setattr(verify, "MAX_DESIGN_CELLS", cells - 1)
    counted = []
    monkeypatch.setattr(verify, "_first_unbalanced",
                        lambda *args: counted.append(args))
    with pytest.raises(TooLargeError, match=f"is {cells} cells, over"):
        verify.battery(*b.design_objects(), b.s)
    assert counted == []


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


def _cli_child(argv, timeout=60):
    """``python -m mcd_forge.cli argv`` in a fresh interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "mcd_forge.cli", *argv],
                          env=env, capture_output=True, timeout=timeout)


def test_verify_refuses_what_is_not_a_regular_file(tmp_path, capsys):
    # a device or a pipe has size 0, so it passed the file cap: verify of
    # /dev/zero counted its commas without end, a FIFO with no writer
    # blocked in its open, and so did a CSV whose sidecar links to
    # /dev/zero.  Each runs in a child under a timeout, so that a read
    # that never ends fails here
    good = tmp_path / "good.csv"
    assert main(["construct", "--method", "theorem1", "--s", "3", "--u",
                 "3", "--u1", "2", "--out", str(good)]) == EXIT_OK
    side = sidecar_path(good)
    side.unlink()
    side.symlink_to("/dev/zero")
    fifo = tmp_path / "fifo.json"
    os.mkfifo(fifo)
    for path, name in (("/dev/zero", "zero"), (fifo, "fifo.json"),
                       (good, side.name)):
        proc = _cli_child(["verify", "--in", str(path)], timeout=20)
        assert proc.returncode == EXIT_PARAM_ERROR, proc.stderr
        assert proc.stderr == f"error: {name} is not a regular file\n".encode()
    # a directory was opened, and refused with "[Errno 21] Is a directory"
    capsys.readouterr()
    assert main(["verify", "--in", str(tmp_path)]) == EXIT_PARAM_ERROR
    assert _one_error_line(capsys) == (
        f"error: {tmp_path.name} is not a regular file\n")


@pytest.mark.parametrize("name", ["d.json", "d.csv"])
def test_a_cli_process_writes_what_main_writes(tmp_path, name, capsys):
    # the CLI freezes its import-time heap, so shutdown no longer collects
    # it; every file must still be whole when the process has ended
    argv = ["construct", "--method", "theorem1", "--s", "3", "--u", "3",
            "--u1", "2", "--seed", "7", "--out"]
    (tmp_path / "child").mkdir()
    (tmp_path / "main").mkdir()
    proc = _cli_child([*argv, str(tmp_path / "child" / name)])
    assert (proc.returncode, proc.stderr) == (EXIT_OK, b"")
    assert main([*argv, str(tmp_path / "main" / name)]) == EXIT_OK
    capsys.readouterr()
    written = sorted(p.name for p in (tmp_path / "main").iterdir())
    assert written == sorted(p.name for p in (tmp_path / "child").iterdir())
    assert len(written) == (2 if name.endswith(".csv") else 1)
    for file in written:
        assert ((tmp_path / "child" / file).read_bytes()
                == (tmp_path / "main" / file).read_bytes()), file


def test_a_piped_catalog_arrives_whole(capsys):
    # about 200 KB, many times a pipe's buffer, flushed before the process
    # ends
    argv = ["catalog", "--s", "32", "--u-max", "6", "--format", "json"]
    proc = _cli_child(argv)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, b"")
    rows = json.loads(proc.stdout)
    assert len(proc.stdout) > 200_000
    assert len(rows) == len(all_rows(32, 6)) == 514
    assert main(argv) == EXIT_OK
    assert proc.stdout == capsys.readouterr().out.encode()


# --- the direct argv reader against argparse -------------------------------

def _reference_parser():
    """build_parser as it stood before the option table, copied: the CLI's
    help, usage and error texts and its parsed namespaces must not move."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="mcd-forge",
        description="Construct and verify marginally coupled designs: "
                    "an s-level orthogonal array for qualitative factors "
                    "paired with a non-cascading Latin hypercube for "
                    "quantitative factors.")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build, verify, and write a design")
    c.add_argument("--method", required=True,
                   choices=["theorem1", "theorem2", "anti-mirror", "general"])
    c.add_argument("--s", type=int, help="number of levels (prime power)")
    c.add_argument("--u", type=int, help="run-count exponent: n = s^u")
    c.add_argument("--u1", type=int, help="constrained coordinate count")
    c.add_argument("--v", type=int, help="groups traded (theorem2)")
    c.add_argument("--item", choices=["i", "ii"],
                   help="which side gets the qualitative columns "
                        "(theorem1/theorem2; default: i)")
    c.add_argument("--seed", help="integer or 'identity' (default: "
                   f"${SEED_ENV_VAR} or 'identity')")
    c.add_argument("--z", action="append",
                   help="qualitative generator vector, e.g. 1,2,0 "
                        "(general; repeatable)")
    c.add_argument("--x", action="append",
                   help="quantitative generator vector (general; repeatable)")
    c.add_argument("--generator", action="append", metavar="J=C1|C2|...",
                   help="explicit null-space columns for x index J "
                        "(general; repeatable)")
    c.add_argument("--out", required=True,
                   help="output path (.csv: CSV + sidecar, else JSON)")
    c.set_defaults(func=cli.cmd_construct)

    v = sub.add_parser("verify", help="re-check a written design file")
    v.add_argument("--in", dest="infile", required=True, help="bundle path")
    v.add_argument("--strength", type=int,
                   help="additionally check D1 at this strength")
    v.add_argument("--stratify", metavar="AxB[xC]",
                   help="check every matching D2 column subset on this grid")
    v.add_argument("--json", action="store_true",
                   help="machine-readable report")
    v.set_defaults(func=cli.cmd_verify)

    k = sub.add_parser("catalog", help="print the parameter tables")
    k.add_argument("--s", type=int, required=True)
    k.add_argument("--u-max", type=int, required=True)
    k.add_argument("--format", choices=["md", "csv", "json"], default="md")
    k.add_argument("--materialize", action="store_true",
                   help="construct and verify every row")
    k.set_defaults(func=cli.cmd_catalog)
    return parser


def _parse(parser, argv):
    """The namespace argparse makes of ``argv``, as a dict, or the exit
    code and the stdout and stderr text with which it stopped."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


def _workload_argvs(directory):
    """The argv of every CLI op and fixture of the benchmark's workloads."""
    workloads = runpy.run_path(str(Path(__file__).resolve().parents[1]
                                   / "perfbench" / "workloads.py"))
    argvs = []
    for workload in workloads["WORKLOADS"].values():
        seeds = workloads["draw_seeds"](workload, random.Random(1))
        argvs += [workloads["op_argv"](op, directory, seeds)
                  for op in workload.fixtures + workload.ops
                  if op.kind != "oracle"]
    return argvs


def test_every_benchmark_and_readme_argv_takes_the_direct_reader(tmp_path):
    argvs = _workload_argvs(tmp_path) + _cli_commands()
    assert len(argvs) >= 23 + 10
    reference = _reference_parser()
    for argv in argvs:
        args = cli._read_plain(argv)
        assert args is not None, argv
        assert vars(args) == _parse(reference, argv), argv


def test_option_table_uses_only_what_the_reader_reads():
    # an argparse keyword the reader does not interpret (nargs, const, a
    # custom action or type) would let the two readers disagree
    for _, _, _, options in cli.COMMANDS:
        for flag, kwargs in options:
            assert flag.startswith("--"), flag
            assert set(kwargs) <= {"dest", "type", "action", "choices",
                                   "required", "default", "help",
                                   "metavar"}, flag
            assert kwargs.get("type", str) in (int, str), flag
            assert kwargs.get("action") in (None, "store_true",
                                            "append"), flag


#: values the reader declines or must parse exactly as argparse does
ODD_VALUES = ("-5", "-", "", " 3", "3_0", "1e3", "--", "-h", "+3", "07",
              " -2", "x", "3 ", "٣")
GOOD_VALUES = {int: ("0", "1", "2", "3", "12"),
               str: ("d.json", "x.csv", "1,2,0", "0=0,0,1|1,1,0", "identity",
                     "2x2x2", "7")}
ALL_FLAGS = sorted({flag for *_, options in cli.COMMANDS
                    for flag, _ in options})


def _plain_argv(rng):
    """A command with its required options and a random sample of the
    others, each once, with a value it accepts."""
    name, _, _, options = rng.choice(cli.COMMANDS)
    required = [option for option in options if option[1].get("required")]
    rest = [option for option in options if option not in required]
    picks = required + rng.sample(rest, rng.randint(0, len(rest)))
    rng.shuffle(picks)
    argv = [name]
    for flag, kwargs in picks:
        argv.append(flag)
        if kwargs.get("action") != "store_true":
            argv.append(rng.choice(kwargs.get("choices")
                                   or GOOD_VALUES[kwargs.get("type", str)]))
    return argv


def _mutated(rng, argv):
    """``argv`` with one random change of the kinds argparse reads
    differently from the plain form, or refuses."""
    at = rng.randrange(1, len(argv) + 1)
    kind = rng.randrange(8)
    if kind == 0:  # an abbreviated option
        flags = [i for i, a in enumerate(argv) if a.startswith("--")
                 and len(a) > 3]
        if flags:
            i = rng.choice(flags)
            argv[i] = argv[i][:rng.randrange(3, len(argv[i]))]
    elif kind == 1:  # --opt=value
        pairs = [i for i in range(1, len(argv) - 1)
                 if argv[i].startswith("--")
                 and not argv[i + 1].startswith("--")]
        if pairs:
            i = rng.choice(pairs)
            argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    elif kind == 2:  # an odd value in place of any token
        argv[min(at, len(argv) - 1)] = rng.choice(ODD_VALUES)
    elif kind == 3:  # an odd token, help or another command's option
        argv.insert(at, rng.choice(ODD_VALUES + ("-h", "--help", "--",
                                                 *ALL_FLAGS)))
    elif kind == 4:  # a token dropped: a missing value or required option
        del argv[min(at, len(argv) - 1)]
    elif kind == 5:  # out-of-choice values
        argv.insert(at, rng.choice(("theorem3", "iii", "xml", "Theorem1")))
        argv.insert(at, rng.choice(("--method", "--item", "--format")))
    elif kind == 6:  # a command that is not one
        argv[0] = rng.choice(("constr", "Verify", "-h", "--help", "",
                              "catalogue", "--s"))
    else:  # an option repeated
        argv += argv[1:3]
    return argv


def test_direct_reader_agrees_with_argparse_on_a_seeded_corpus():
    rng = random.Random(20261020)
    reference, built = _reference_parser(), cli.build_parser()
    corpus = [_plain_argv(rng) for _ in range(6000)]
    for i, argv in enumerate(corpus):
        for _ in range(i % 3):
            argv = _mutated(rng, argv)
        corpus[i] = argv
    tokens = {token for argv in corpus for token in argv}
    assert set(ALL_FLAGS) | set(ODD_VALUES) | {"-h", "--help", "--"} <= tokens
    assert any("=" in t and t.startswith("--") for t in tokens)
    taken = 0
    for argv in corpus:
        args = cli._read_plain(argv)
        expected = _parse(reference, argv)
        # the table's parser is today's parser, on every argv
        assert _parse(built, argv) == expected, argv
        if args is not None:
            taken += 1
            assert vars(args) == expected, argv
    # each reader must see a good share of the corpus
    assert len(corpus) // 4 < taken < len(corpus) * 3 // 4, taken


@pytest.mark.parametrize("argv", [
    ["--help"], ["-h"], ["construct", "--help"], ["verify", "--help"],
    ["catalog", "-h"], [], ["verify"], ["verify", "--in", "x", "--bogus"],
    ["construct", "--method", "foo", "--out", "x"],
    ["catalog", "--s", "3", "--u-max", "3", "--format", "xml"],
    ["verify", "--in", "x", "--strength", "1e3"],
    ["verify", "--in"], ["verify", "--in", "x", "--s", "3"]])
def test_help_usage_and_errors_are_argparse_s_own(argv, capsys):
    code, out, err = _parse(_reference_parser(), argv)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    assert capsys.readouterr() == (out, err)
