"""Catalog rows against the transcribed reference tables for s = 3."""

import dataclasses

import pytest

from mcd_forge.catalog import (
    U_MAX_CAP,
    all_rows,
    direct_rows,
    materialize,
    subspace_rows,
    verify_row,
)
from mcd_forge.cli import EXIT_OK, main
from mcd_forge.errors import BadParamsError, NotPrimePowerError
from mcd_forge.gf import GaloisField, galois_field
from mcd_forge.nstar import prefix_set
from mcd_forge.verify import CheckResult
from golden_data import DIRECT_TABLE_S3, SUBSPACE_TABLE_S3


def test_direct_rows_match_reference_table():
    rows = direct_rows(3, 5)
    assert len(rows) == len(DIRECT_TABLE_S3)
    for row, (u, u1, n_a) in zip(rows, DIRECT_TABLE_S3):
        n = 3 ** u
        assert (row.u, row.u1, row.n_a) == (u, u1, n_a)
        assert row.s == 3
        assert row.method == "theorem1"
        assert row.v is None and row.g is None and row.k is None
        assert not row.star
        assert row.free_coords == u - u1
        assert row.d1_i == (n, u1, 3, u1)
        assert row.d2_i == (n, n_a)
        assert row.d1_ii == (n, n_a, 3, 2)
        assert row.d2_ii == (n, u1)


def test_subspace_rows_match_reference_table():
    rows = subspace_rows(3, 5)
    assert len(rows) == len(SUBSPACE_TABLE_S3)
    for row, (u, u1, v, star, g, free, k) in zip(rows, SUBSPACE_TABLE_S3):
        n = 3 ** u
        assert (row.u, row.u1, row.v) == (u, u1, v)
        assert row.star == star
        assert row.g == g
        assert row.free_coords == free
        assert row.k == k
        assert row.method == "theorem2"
        assert row.n_a is None
        assert row.d1_i == (n, g, 3, 2)
        assert row.d2_i == (n, k)
        assert row.d1_ii == (n, k, 3, 2)
        assert row.d2_ii == (n, g)


def test_all_rows_concatenates():
    rows = all_rows(3, 3)
    assert rows == direct_rows(3, 3) + subspace_rows(3, 3)


def test_rows_as_dict():
    row = direct_rows(3, 2)[0]
    d = dataclasses.asdict(row)
    assert d["s"] == 3 and d["u"] == 2 and d["method"] == "theorem1"
    assert d["d1_i"] == (9, 1, 3, 1)


def test_two_level_rows_advertise_honest_strength():
    rows = subspace_rows(2, 4)
    for row in rows:
        # for s = 2 there is a single tradeable group, so v = 1 always
        assert row.v == 1 and row.star
        n, m, s, t = row.d1_i
        assert t == min(3, m)
        n, m, s, t = row.d1_ii
        assert t == min(3, m)


def test_sweep_param_validation():
    with pytest.raises(BadParamsError):
        direct_rows(3, 1)
    with pytest.raises(BadParamsError):
        subspace_rows(3, U_MAX_CAP + 1)
    with pytest.raises(NotPrimePowerError):
        all_rows(6, 3)


def test_materialize_both_items():
    row = next(r for r in subspace_rows(3, 4)
               if r.u == 4 and r.u1 == 3 and r.v == 2)
    mcd_i = materialize(row, "i")
    assert mcd_i.d1.data.shape == (81, 6)
    assert mcd_i.d2.data.shape == (81, 6)
    mcd_ii = materialize(row, "ii")
    assert mcd_ii.d1.data.shape == (81, 6)
    assert mcd_i.full_verification().passed
    assert mcd_ii.full_verification().passed


def test_verify_row_passes_for_small_sweep():
    for row in all_rows(3, 3):
        report = verify_row(row)
        assert report.passed, (row, report.failures())
        names = {c.name for c in report.checks}
        assert "advertised-parameters" in names
        assert any(name.startswith("oa-strength") for name in names)


def test_verify_row_covers_two_level_family():
    for row in all_rows(2, 4):
        assert verify_row(row).passed


def test_verify_row_fails_advertised_dimensions_that_differ():
    # the battery passes on the built designs; only the dimensions the
    # row advertises for item i are wrong
    row = next(r for r in direct_rows(3, 3) if (r.u, r.u1) == (3, 2))
    assert row.d1_i == (27, 2, 3, 2) and row.d2_i == (27, 6)
    report = verify_row(dataclasses.replace(row, d2_i=(27, 7)))
    assert report.failures() == (CheckResult(
        "advertised-parameters", ("i",), False,
        "item i: got D1 (27, 2), D2 (27, 6), advertised (27, 2, 3, 2) / "
        "(27, 7)"),)
    assert [c.passed for c in report.checks
            if c.name == "advertised-parameters"] == [False, True]


def test_materialize_refuses_an_unknown_method():
    row = dataclasses.replace(direct_rows(3, 2)[0], method="theorem3")
    for item in ("i", "ii"):
        with pytest.raises(BadParamsError,
                           match=r"^row has unknown method 'theorem3'$"):
            materialize(row, item)


def test_catalog_of_nine_builds_no_field(monkeypatch, capsys):
    # s is checked without tables, (9, 1) and (9, 2) are closed forms and
    # (9, 3) is a table cell, so printing the catalog needs no GF(9)
    def refuse(self, s):
        raise AssertionError(f"GF({s}) built")

    monkeypatch.setattr(GaloisField, "__init__", refuse)
    galois_field.cache_clear()
    prefix_set.cache_clear()
    try:
        assert main(["catalog", "--s", "9", "--u-max", "3"]) == EXIT_OK
    finally:
        galois_field.cache_clear()
        prefix_set.cache_clear()
    assert "| 3 | 3 | 10* |" in capsys.readouterr().out
