"""Exact stdout and exit codes of construct, verify and catalog --materialize.

These pin the report lines, their order and the JSON layout byte for byte,
so a refactor of the verification battery cannot change what a user sees.
The sha256 of seeded ``construct`` output pins the written bytes, so a
faster level expansion or linear-array build cannot change a design, and
one sha256 over a grid of named builds pins D1, the collapsed D2, the
parameters and the provenance of each.
"""

import hashlib
import json

from mcd_forge.catalog import all_rows, verify_row
from mcd_forge.cli import EXIT_OK, EXIT_VERIFY_FAILED, main
from mcd_forge.construct import (
    anti_mirror_construction,
    direct_construction,
    subspace_construction,
)
from mcd_forge.gf import galois_field
from mcd_forge.nstar import prefix_set

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


#: ``catalog --s 9 --u-max 3``: the (9,3) cell, v* marks and 3-digit runs
CATALOG_S9_MD = """\
## method theorem1 (s=9, u <= 3)
| u | u1 | n_A | D1 (i) | D2 (i) | D1 (ii) | D2 (ii) |
|---|----|-----|--------|--------|---------|---------|
| 2 | 1 | 9 | OA(81, 1, 9, 1) | LHD(81, 9) | OA(81, 9, 9, 2) | LHD(81, 1) |
| 2 | 2 | 8 | OA(81, 2, 9, 2) | LHD(81, 8) | OA(81, 8, 9, 2) | LHD(81, 2) |
| 3 | 1 | 81 | OA(729, 1, 9, 1) | LHD(729, 81) | OA(729, 81, 9, 2) | LHD(729, 1) |
| 3 | 2 | 72 | OA(729, 2, 9, 2) | LHD(729, 72) | OA(729, 72, 9, 2) | LHD(729, 2) |
| 3 | 3 | 64 | OA(729, 3, 9, 3) | LHD(729, 64) | OA(729, 64, 9, 2) | LHD(729, 3) |

## method theorem2 (s=9, u <= 3)
| u | u1 | v | g | u-u1 | k | D1 (i) | D2 (i) | D1 (ii) | D2 (ii) |
|---|----|---|---|------|---|--------|--------|---------|---------|
| 2 | 1 | 1* | 1 | 1 | 9 | OA(81, 1, 9, 2) | LHD(81, 9) | OA(81, 9, 9, 2) | LHD(81, 1) |
| 2 | 2 | 1 | 9 | 0 | 1 | OA(81, 9, 9, 2) | LHD(81, 1) | OA(81, 1, 9, 2) | LHD(81, 9) |
| 2 | 2 | 2 | 8 | 0 | 2 | OA(81, 8, 9, 2) | LHD(81, 2) | OA(81, 2, 9, 2) | LHD(81, 8) |
| 2 | 2 | 3 | 7 | 0 | 3 | OA(81, 7, 9, 2) | LHD(81, 3) | OA(81, 3, 9, 2) | LHD(81, 7) |
| 2 | 2 | 4 | 6 | 0 | 4 | OA(81, 6, 9, 2) | LHD(81, 4) | OA(81, 4, 9, 2) | LHD(81, 6) |
| 2 | 2 | 5 | 5 | 0 | 5 | OA(81, 5, 9, 2) | LHD(81, 5) | OA(81, 5, 9, 2) | LHD(81, 5) |
| 2 | 2 | 6 | 4 | 0 | 6 | OA(81, 4, 9, 2) | LHD(81, 6) | OA(81, 6, 9, 2) | LHD(81, 4) |
| 2 | 2 | 7 | 3 | 0 | 7 | OA(81, 3, 9, 2) | LHD(81, 7) | OA(81, 7, 9, 2) | LHD(81, 3) |
| 2 | 2 | 8* | 2 | 0 | 8 | OA(81, 2, 9, 2) | LHD(81, 8) | OA(81, 8, 9, 2) | LHD(81, 2) |
| 3 | 1 | 1* | 1 | 2 | 81 | OA(729, 1, 9, 2) | LHD(729, 81) | OA(729, 81, 9, 2) | LHD(729, 1) |
| 3 | 2 | 1 | 9 | 1 | 9 | OA(729, 9, 9, 2) | LHD(729, 9) | OA(729, 9, 9, 2) | LHD(729, 9) |
| 3 | 2 | 2 | 8 | 1 | 18 | OA(729, 8, 9, 2) | LHD(729, 18) | OA(729, 18, 9, 2) | LHD(729, 8) |
| 3 | 2 | 3 | 7 | 1 | 27 | OA(729, 7, 9, 2) | LHD(729, 27) | OA(729, 27, 9, 2) | LHD(729, 7) |
| 3 | 2 | 4 | 6 | 1 | 36 | OA(729, 6, 9, 2) | LHD(729, 36) | OA(729, 36, 9, 2) | LHD(729, 6) |
| 3 | 2 | 5 | 5 | 1 | 45 | OA(729, 5, 9, 2) | LHD(729, 45) | OA(729, 45, 9, 2) | LHD(729, 5) |
| 3 | 2 | 6 | 4 | 1 | 54 | OA(729, 4, 9, 2) | LHD(729, 54) | OA(729, 54, 9, 2) | LHD(729, 4) |
| 3 | 2 | 7 | 3 | 1 | 63 | OA(729, 3, 9, 2) | LHD(729, 63) | OA(729, 63, 9, 2) | LHD(729, 3) |
| 3 | 2 | 8* | 2 | 1 | 72 | OA(729, 2, 9, 2) | LHD(729, 72) | OA(729, 72, 9, 2) | LHD(729, 2) |
| 3 | 3 | 1 | 81 | 0 | 1 | OA(729, 81, 9, 2) | LHD(729, 1) | OA(729, 1, 9, 2) | LHD(729, 81) |
| 3 | 3 | 2 | 72 | 0 | 2 | OA(729, 72, 9, 2) | LHD(729, 2) | OA(729, 2, 9, 2) | LHD(729, 72) |
| 3 | 3 | 3 | 64 | 0 | 3 | OA(729, 64, 9, 2) | LHD(729, 3) | OA(729, 3, 9, 2) | LHD(729, 64) |
| 3 | 3 | 4 | 57 | 0 | 4 | OA(729, 57, 9, 2) | LHD(729, 4) | OA(729, 4, 9, 2) | LHD(729, 57) |
| 3 | 3 | 5 | 51 | 0 | 5 | OA(729, 51, 9, 2) | LHD(729, 5) | OA(729, 5, 9, 2) | LHD(729, 51) |
| 3 | 3 | 6 | 46 | 0 | 6 | OA(729, 46, 9, 2) | LHD(729, 6) | OA(729, 6, 9, 2) | LHD(729, 46) |
| 3 | 3 | 7 | 42 | 0 | 7 | OA(729, 42, 9, 2) | LHD(729, 7) | OA(729, 7, 9, 2) | LHD(729, 42) |
| 3 | 3 | 8 | 39 | 0 | 8 | OA(729, 39, 9, 2) | LHD(729, 8) | OA(729, 8, 9, 2) | LHD(729, 39) |
| 3 | 3 | 9 | 37 | 0 | 9 | OA(729, 37, 9, 2) | LHD(729, 9) | OA(729, 9, 9, 2) | LHD(729, 37) |
| 3 | 3 | 10* | 36 | 0 | 10 | OA(729, 36, 9, 2) | LHD(729, 10) | OA(729, 10, 9, 2) | LHD(729, 36) |
"""

#: sha256 of the same table as CSV and as JSON
CATALOG_S9_DIGESTS = {
    "csv": "e160fe433be709a9af2cbbae02118ca4162005d35eb3825b4e2d88d795815a60",
    "json": "0bc3697226626dccf89c63d8af6d54c349dc9211a37b6731d8d3a684ea497730",
}


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


def test_catalog_s9_output_pinned(capsys):
    assert main(["catalog", "--s", "9", "--u-max", "3"]) == EXIT_OK
    assert capsys.readouterr().out == CATALOG_S9_MD
    for fmt, digest in CATALOG_S9_DIGESTS.items():
        assert main(["catalog", "--s", "9", "--u-max", "3",
                     "--format", fmt]) == EXIT_OK
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == digest, fmt


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


SEEDED_DIGESTS = (
    (["--method", "theorem1", "--s", "2", "--u", "10", "--u1", "2"],
     "a.json",
     "63d429b5b5c0cdbc50340eca9bf710e7505606918258c80877cd4c752387bc50"),
    (["--method", "theorem1", "--s", "4", "--u", "5", "--u1", "3",
      "--item", "ii"],
     "b.csv",
     "b573722eb208b9ccdfb1df24830bc8e1f856fbb5c361949009ac035288b611de"),
    (["--method", "anti-mirror", "--u", "8", "--u1", "2"],
     "c.json",
     "5c1b98e9e115bde0f8403f067a24f8a75fedfec5b0e4683fa9fbbdfd8858c88d"),
    (["--method", "theorem2", "--s", "9", "--u", "3", "--u1", "3",
      "--v", "4"],
     "d.json",
     "4f3fc6ba5a9ddcddbf5f0a3719b5a9c53c9da67d997caf833c2fc99a38271ffb"),
)


def test_seeded_construct_bytes_pinned(tmp_path, capsys):
    for flags, name, digest in SEEDED_DIGESTS:
        out = tmp_path / name
        assert main(["construct", *flags, "--seed", "7",
                     "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, flags


#: (s, largest u) of the grid; every u1 <= u, both items, v up to n*
NAMED_GRID = ((2, 5), (3, 4), (4, 4), (5, 3), (7, 3), (8, 3), (9, 3))
NAMED_GRID_DIGEST = (
    "0cc60220c9f4b0a05a2537fae5e62a26ef94e7c96a4c2e74f7739025e4c160c1")


def _named_builds():
    """Every named construction on ``NAMED_GRID``, then anti-mirror for
    4 <= u <= 7: 428 designs."""
    for s, u_max in NAMED_GRID:
        field = galois_field(s)
        for u in range(2, u_max + 1):
            for u1 in range(1, u + 1):
                for item in ("i", "ii"):
                    yield direct_construction(field, u, u1, item)
                    for v in range(1, prefix_set(s, u1).size + 1):
                        yield subspace_construction(field, u, u1, v, item)
    for u in range(4, 8):
        for u1 in range(2, u - 1):
            yield anti_mirror_construction(u, u1)


def test_named_builds_pinned():
    digest = hashlib.sha256()
    count = 0
    for mcd in _named_builds():
        count += 1
        digest.update(repr((mcd.params, mcd.provenance)).encode())
        for data in (mcd.d1.data, mcd.collapsed.data):
            digest.update(repr(data.shape).encode())
            digest.update(data.astype("<i8").tobytes())
    assert count == 428
    assert digest.hexdigest() == NAMED_GRID_DIGEST
