"""Exact stdout and exit codes of construct, verify and catalog --materialize.

These pin the report lines, their order and the JSON layout byte for byte,
so a refactor of the verification battery cannot change what a user sees.
"""

import json

from mcd_forge.catalog import all_rows, verify_row
from mcd_forge.cli import EXIT_OK, EXIT_VERIFY_FAILED, main

CONSTRUCT_LINE = ("wrote {out} (32 runs, 2 qualitative + 8 quantitative "
                  "columns, method anti-mirror)\n")

CLEAN_TEXT = """\
[pass] oa-strength(2)
[pass] latin-hypercube
[pass] pair-balance
[pass] non-cascading
[pass] oa-strength(2)
[pass] grid-stratification(2x2x2) on all column subsets
PASS
"""

MOVED_TEXT = """\
[pass] oa-strength(2)
[pass] latin-hypercube
[FAIL] pair-balance (0, 0) -- (D1 column 0 = 0, collapsed D2 column 0 = 0) \
occurs 0 times, expected 1
[pass] non-cascading
[pass] oa-strength(2)
[FAIL] grid-stratification(2x2x2) (0, 1, 2) -- cell (0, 0, 0) holds 3 \
points, expected 4
FAIL
"""


def _check(name, passed=True, detail="", subject=()):
    return {"detail": detail, "name": name, "passed": passed,
            "subject": list(subject)}


CLEAN_JSON = {"checks": [
    _check("oa-strength(2)"),
    _check("latin-hypercube"),
    _check("pair-balance"),
    _check("non-cascading"),
    _check("oa-strength(2)"),
    _check("grid-stratification(2x2x2) on all column subsets"),
], "passed": True}

MOVED_JSON = {"checks": [
    _check("oa-strength(2)"),
    _check("latin-hypercube"),
    _check("pair-balance", False,
           "(D1 column 0 = 0, collapsed D2 column 0 = 0) occurs 0 times, "
           "expected 1", (0, 0)),
    _check("non-cascading"),
    _check("oa-strength(2)"),
    _check("grid-stratification(2x2x2)", False,
           "cell (0, 0, 0) holds 3 points, expected 4", (0, 1, 2)),
], "passed": False}

CATALOG_TEXT = """\
## method theorem1 (s=2, u <= 3)
| u | u1 | n_A | D1 (i) | D2 (i) | D1 (ii) | D2 (ii) |
|---|----|-----|--------|--------|---------|---------|
| 2 | 1 | 2 | OA(4, 1, 2, 1) | LHD(4, 2) | OA(4, 2, 2, 2) | LHD(4, 1) |
| 2 | 2 | 1 | OA(4, 2, 2, 2) | LHD(4, 1) | OA(4, 1, 2, 1) | LHD(4, 2) |
| 3 | 1 | 4 | OA(8, 1, 2, 1) | LHD(8, 4) | OA(8, 4, 2, 2) | LHD(8, 1) |
| 3 | 2 | 2 | OA(8, 2, 2, 2) | LHD(8, 2) | OA(8, 2, 2, 2) | LHD(8, 2) |
| 3 | 3 | 1 | OA(8, 3, 2, 3) | LHD(8, 1) | OA(8, 1, 2, 1) | LHD(8, 3) |

## method theorem2 (s=2, u <= 3)
| u | u1 | v | g | u-u1 | k | D1 (i) | D2 (i) | D1 (ii) | D2 (ii) |
|---|----|---|---|------|---|--------|--------|---------|---------|
| 2 | 1 | 1* | 1 | 1 | 2 | OA(4, 1, 2, 1) | LHD(4, 2) | OA(4, 2, 2, 2) | LHD(4, 1) |
| 2 | 2 | 1* | 2 | 0 | 1 | OA(4, 2, 2, 2) | LHD(4, 1) | OA(4, 1, 2, 1) | LHD(4, 2) |
| 3 | 1 | 1* | 1 | 2 | 4 | OA(8, 1, 2, 1) | LHD(8, 4) | OA(8, 4, 2, 3) | LHD(8, 1) |
| 3 | 2 | 1* | 2 | 1 | 2 | OA(8, 2, 2, 2) | LHD(8, 2) | OA(8, 2, 2, 2) | LHD(8, 2) |
| 3 | 3 | 1* | 4 | 0 | 1 | OA(8, 4, 2, 3) | LHD(8, 1) | OA(8, 1, 2, 1) | LHD(8, 4) |
verified theorem1 u=2 u1=1
verified theorem1 u=2 u1=2
verified theorem1 u=3 u1=1
verified theorem1 u=3 u1=2
verified theorem1 u=3 u1=3
verified theorem2 u=2 u1=1 v=1
verified theorem2 u=2 u1=2 v=1
verified theorem2 u=3 u1=1 v=1
verified theorem2 u=3 u1=2 v=1
verified theorem2 u=3 u1=3 v=1
materialized 10 rows, 0 failure(s)
"""


def _anti_mirror_pair(tmp_path, capsys):
    """The u=5, u1=2 anti-mirror design and a copy in which one D2 value
    swaps places with a value from another window (and another D1 row)."""
    clean = tmp_path / "am.json"
    assert main(["construct", "--method", "anti-mirror", "--u", "5",
                 "--u1", "2", "--out", str(clean)]) == EXIT_OK
    assert capsys.readouterr().out == CONSTRUCT_LINE.format(out=clean)
    bundle = json.loads(clean.read_text())
    d1, d2 = bundle["d1"], bundle["d2"]
    assert (d2[0][0], d2[8][0], d1[0], d1[8]) == (0, 24, [0, 0], [1, 0])
    d2[0][0], d2[8][0] = d2[8][0], d2[0][0]
    moved = tmp_path / "moved.json"
    moved.write_text(json.dumps(bundle))
    return clean, moved


def test_verify_output_pinned(tmp_path, capsys):
    clean, moved = _anti_mirror_pair(tmp_path, capsys)
    flags = ["--strength", "2", "--stratify", "2x2x2"]
    for path, code, text, payload in (
            (clean, EXIT_OK, CLEAN_TEXT, CLEAN_JSON),
            (moved, EXIT_VERIFY_FAILED, MOVED_TEXT, MOVED_JSON)):
        assert main(["verify", "--in", str(path), *flags]) == code
        assert capsys.readouterr().out == text
        assert main(["verify", "--in", str(path), *flags, "--json"]) == code
        out = capsys.readouterr().out
        assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_catalog_materialize_output_pinned(capsys):
    assert main(["catalog", "--s", "2", "--u-max", "3",
                 "--materialize"]) == EXIT_OK
    assert capsys.readouterr().out == CATALOG_TEXT


def test_verify_row_lines_pinned():
    # the advertised-parameters line is left out: its place in the listing
    # is not part of the contract
    expected = {
        (2, "theorem1", 3, 3): [
            "[pass] oa-strength(2)", "[pass] latin-hypercube",
            "[pass] pair-balance", "[pass] non-cascading",
            "[pass] oa-strength(3)",
            "[pass] oa-strength(1)", "[pass] latin-hypercube",
            "[pass] pair-balance", "[pass] non-cascading",
            "[pass] oa-strength(1)"],
        (3, "theorem2", 3, 3): [
            "[pass] oa-strength(2)", "[pass] latin-hypercube",
            "[pass] pair-balance", "[pass] non-cascading",
            "[pass] oa-strength(2)",
            "[pass] oa-strength(1)", "[pass] latin-hypercube",
            "[pass] pair-balance", "[pass] non-cascading",
            "[pass] oa-strength(1)"],
    }
    for (s, method, u, u1), lines in expected.items():
        row = next(r for r in all_rows(s, u) if r.method == method
                   and r.u == u and r.u1 == u1)
        got = [line for line in verify_row(row).lines()
               if "advertised-parameters" not in line]
        assert got == lines, (s, method, u, u1)
