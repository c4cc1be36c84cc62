"""File formats: canonical JSON, CSV + sidecar, and malformed inputs."""

import csv
import io
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from mcd_forge.bundle import (
    _BLOCK_CELLS,
    _meta_dict,
    bundle_from_design,
    read_bundle,
    sidecar_path,
    write_bundle,
)
from mcd_forge.construct import direct_construction, subspace_construction
from mcd_forge.errors import MalformedBundleError
from mcd_forge.gf import galois_field

F3 = galois_field(3)


def _bundle(seed="identity"):
    return bundle_from_design(direct_construction(F3, 3, 2, "i", seed))


def _json_text(b, tmp_path):
    """The canonical JSON text ``write_bundle`` writes for the bundle."""
    return write_bundle(tmp_path / "text.json", b).read_text()


def test_bundle_from_design_carries_everything():
    b = _bundle()
    assert b.method == "theorem1"
    assert (b.s, b.u, b.u1, b.v, b.item) == (3, 3, 2, None, "i")
    assert b.seed == "identity"
    assert b.m == 2 and b.k == 6
    assert b.d1.shape == (27, 2) and b.d2.shape == (27, 6)
    assert b.provenance["z_vectors"] == [[1, 0, 0], [0, 1, 0]]
    assert len(b.provenance["x_vectors"]) == 6
    assert len(b.provenance["generator_columns"]) == 6


def test_design_objects_round_trip_verification():
    from mcd_forge.verify import check_mcd

    b = _bundle()
    d1, d2 = b.design_objects()
    assert check_mcd(d1, d2, b.s).passed


def test_json_round_trip_is_byte_identical(tmp_path):
    b = _bundle(seed=11)
    path = tmp_path / "design.json"
    write_bundle(path, b, "json")
    text1 = path.read_text()
    again = read_bundle(path)
    write_bundle(path, again, "json")
    assert path.read_text() == text1
    assert (again.d1 == b.d1).all()
    assert (again.d2 == b.d2).all()
    assert again.seed == 11


def test_json_text_is_sorted_and_integer(tmp_path):
    text = _json_text(_bundle(), tmp_path)
    obj = json.loads(text)
    assert list(obj) == sorted(obj)
    assert text.endswith("\n")
    # no floats anywhere in the matrices
    assert all(isinstance(x, int) for row in obj["d1"] for x in row)
    assert all(isinstance(x, int) for row in obj["d2"] for x in row)


def test_csv_round_trip(tmp_path):
    b = bundle_from_design(subspace_construction(F3, 4, 3, 2, "ii", seed=5))
    path = tmp_path / "design.csv"
    write_bundle(path, b, "csv")
    side = sidecar_path(path)
    assert side.exists()
    header = path.read_text().splitlines()[0]
    assert header == "q1,q2,q3,q4,q5,q6,x1,x2,x3,x4,x5,x6"
    again = read_bundle(path)
    assert again.method == "theorem2"
    assert (again.d1 == b.d1).all()
    assert (again.d2 == b.d2).all()
    assert again.seed == 5
    assert again.provenance == b.provenance


def test_write_bundle_rejects_unknown_format(tmp_path):
    with pytest.raises(MalformedBundleError):
        write_bundle(tmp_path / "x.bin", _bundle(), "parquet")
    # the suffix picks the format; a contradicting one writes nothing
    for name, fmt in (("x.json", "csv"), ("y.csv", "json")):
        with pytest.raises(MalformedBundleError, match="does not match"):
            write_bundle(tmp_path / name, _bundle(), fmt)
    assert not any(tmp_path.iterdir())


def test_read_bundle_missing_file(tmp_path):
    with pytest.raises(MalformedBundleError):
        read_bundle(tmp_path / "nope.json")


def _write_obj(tmp_path, obj, name="b.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


def test_read_bundle_rejects_malformed_json(tmp_path):
    base = json.loads(_json_text(_bundle(), tmp_path))

    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    with pytest.raises(MalformedBundleError, match="not valid JSON"):
        read_bundle(bad)

    with pytest.raises(MalformedBundleError, match="top level"):
        read_bundle(_write_obj(tmp_path, [1, 2, 3]))

    extra = dict(base, surprise=1)
    with pytest.raises(MalformedBundleError, match="unknown keys"):
        read_bundle(_write_obj(tmp_path, extra))

    for key in ("d1", "d2", "method", "s", "seed", "format_version"):
        broken = {k: v for k, v in base.items() if k != key}
        with pytest.raises(MalformedBundleError):
            read_bundle(_write_obj(tmp_path, broken))


def test_read_bundle_rejects_bad_matrices(tmp_path):
    base = json.loads(_json_text(_bundle(), tmp_path))

    for d1 in ([], [[0, 1], [0]], [[0, "1"]], [[0, True]], [[0.5, 1]], [[]],
               [[0, 2 ** 70]], [[-(2 ** 70), 0]]):
        obj = dict(base, d1=d1)
        with pytest.raises(MalformedBundleError):
            read_bundle(_write_obj(tmp_path, obj))

    # row-count mismatch between the two matrices
    obj = dict(base, d2=base["d2"][:-1])
    with pytest.raises(MalformedBundleError, match="rows"):
        read_bundle(_write_obj(tmp_path, obj))


def test_read_bundle_rejects_bad_metadata(tmp_path):
    base = json.loads(_json_text(_bundle(), tmp_path))
    for key, value in (("format_version", 2), ("format_version", True),
                       ("format_version", 1.0), ("s", 1), ("s", "3"),
                       ("u", 0), ("seed", 1.5), ("seed", "later"),
                       ("s", True), ("u", True), ("u1", True), ("v", True),
                       ("seed", True)):
        obj = dict(base, **{key: value})
        with pytest.raises(MalformedBundleError):
            read_bundle(_write_obj(tmp_path, obj))


def _edited_theorem2(tmp_path, edit):
    """The theorem2 (s, u, u1, v) = (3, 3, 2, 1) design as a JSON file and
    as a CSV pair, each with ``edit`` applied to its metadata."""
    b = bundle_from_design(subspace_construction(F3, 3, 2, 1, "i", seed=3))
    for path in (tmp_path / "t2.json", tmp_path / "t2.csv"):
        write_bundle(path, b)
        meta_path = sidecar_path(path) if path.suffix == ".csv" else path
        meta_path.write_text(json.dumps(
            dict(json.loads(meta_path.read_text()), **edit)))
        yield path


def test_read_bundle_refuses_a_method_construct_never_writes(tmp_path):
    # each file used to verify PASS
    for edit, message in (({"method": 42}, "^unknown method 42$"),
                          ({"method": "bogus", "item": "zz", "v": 99},
                           "^unknown method 'bogus'$"),
                          ({"method": None}, "^unknown method None$")):
        for path in _edited_theorem2(tmp_path, edit):
            with pytest.raises(MalformedBundleError, match=message):
                read_bundle(path)


def test_read_bundle_refuses_an_item_or_v_construct_never_writes(tmp_path):
    # n* is 2 for (s, u1) = (3, 2), so v = 3 is past the bound too
    for edit, message in (({"item": "zz"}, "^unknown item 'zz'$"),
                          ({"item": 1}, "^unknown item 1$"),
                          ({"v": 99}, r"^theorem2 v = 99 outside 1\.\.2$"),
                          ({"v": 3}, r"^theorem2 v = 3 outside 1\.\.2$"),
                          ({"v": 0}, r"^theorem2 v = 0 outside 1\.\.2$"),
                          ({"v": None}, "^theorem2 v = None outside")):
        for path in _edited_theorem2(tmp_path, edit):
            with pytest.raises(MalformedBundleError, match=message):
                read_bundle(path)
    for path in _edited_theorem2(tmp_path, {"v": 2, "item": "ii"}):
        assert (read_bundle(path).v, read_bundle(path).item) == (2, "ii")


def test_read_bundle_refuses_a_provenance_that_is_not_an_object(tmp_path):
    for edit in ({"provenance": [1, 2]}, {"provenance": None},
                 {"provenance": "z"}):
        for path in _edited_theorem2(tmp_path, edit):
            with pytest.raises(MalformedBundleError,
                               match="^provenance must be an object$"):
                read_bundle(path)


def test_read_csv_bundle_malformed(tmp_path):
    b = _bundle()
    path = tmp_path / "d.csv"
    write_bundle(path, b, "csv")
    good_lines = path.read_text().splitlines()

    # missing sidecar
    lonely = tmp_path / "lonely.csv"
    lonely.write_text("\n".join(good_lines) + "\n")
    with pytest.raises(MalformedBundleError, match="sidecar"):
        read_bundle(lonely)

    # broken sidecar JSON
    sidecar_path(path).write_text("{oops")
    with pytest.raises(MalformedBundleError, match="sidecar"):
        read_bundle(path)
    write_bundle(path, b, "csv")  # restore

    # header out of shape
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("\n".join(["a,b,c"] + good_lines[1:]) + "\n")
    sidecar_path(bad_header).write_text(sidecar_path(path).read_text())
    with pytest.raises(MalformedBundleError, match="header"):
        read_bundle(bad_header)

    # ragged data line
    ragged = tmp_path / "r.csv"
    ragged.write_text("\n".join(good_lines[:2] + ["0,1"]) + "\n")
    sidecar_path(ragged).write_text(sidecar_path(path).read_text())
    with pytest.raises(MalformedBundleError, match="line 3"):
        read_bundle(ragged)

    # non-integer entry
    noninteger = tmp_path / "n.csv"
    lines = good_lines[:]
    lines[1] = lines[1].replace(lines[1].split(",")[0], "zero", 1)
    noninteger.write_text("\n".join(lines) + "\n")
    sidecar_path(noninteger).write_text(sidecar_path(path).read_text())
    with pytest.raises(MalformedBundleError, match="non-integer"):
        read_bundle(noninteger)

    # entry outside int64
    huge = tmp_path / "big.csv"
    lines = good_lines[:]
    lines[1] = lines[1].rsplit(",", 1)[0] + f",{2 ** 70}"
    huge.write_text("\n".join(lines) + "\n")
    sidecar_path(huge).write_text(sidecar_path(path).read_text())
    with pytest.raises(MalformedBundleError, match="int64"):
        read_bundle(huge)

    # no data rows
    headless = tmp_path / "e.csv"
    headless.write_text(good_lines[0] + "\n")
    sidecar_path(headless).write_text(sidecar_path(path).read_text())
    with pytest.raises(MalformedBundleError, match="no data rows"):
        read_bundle(headless)

    # fully empty file
    empty = tmp_path / "z.csv"
    empty.write_text("")
    sidecar_path(empty).write_text(sidecar_path(path).read_text())
    with pytest.raises(MalformedBundleError, match="empty CSV"):
        read_bundle(empty)


def test_read_csv_bundle_rejects_unknown_sidecar_keys(tmp_path):
    # a sidecar holds the schema minus the matrices, which the CSV carries;
    # an extra key, or a matrix beside the CSV, fails as it does in JSON
    path = tmp_path / "d.csv"
    write_bundle(path, _bundle())
    meta = json.loads(sidecar_path(path).read_text())
    for extra, names in (({"surprise": 1}, "'surprise'"),
                         ({"d1": [[9]]}, "'d1'"),
                         ({"d2": [[0]], "surprise": 1}, "'d2', 'surprise'")):
        sidecar_path(path).write_text(json.dumps(dict(meta, **extra)))
        with pytest.raises(MalformedBundleError,
                           match=rf"^unknown keys \[{names}\]$"):
            read_bundle(path)
    sidecar_path(path).write_text(json.dumps(meta))
    assert read_bundle(path).method == "theorem1"


def _shaped_bundle(d1, d2):
    b = _bundle(seed=5)
    b.d1, b.d2 = np.array(d1, dtype=np.int64), np.array(d2, dtype=np.int64)
    return b


def _reference_json_text(b):
    obj = _meta_dict(b)
    obj["d1"], obj["d2"] = b.d1.tolist(), b.d2.tolist()
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def test_json_text_equals_json_dumps_on_random_shapes(tmp_path):
    rng = np.random.default_rng(3)
    lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    shapes = [((1, 1), (1, 3)), ((4, 0), (4, 2)), ((3, 2), (3, 0)),
              ((0, 2), (0, 3)), ((0, 0), (0, 0))]
    shapes += [((int(rng.integers(1, 6)), int(rng.integers(0, 5))),
                (int(rng.integers(1, 6)), int(rng.integers(0, 5))))
               for _ in range(30)]
    # metadata as construct writes it, and the other values a bundle holds
    metas = [{}, {"seed": "identity"}, {"u1": None, "v": None, "item": None},
             {"s": np.int64(3), "u": np.int32(4), "seed": 0},
             {"provenance": {}},
             {"provenance": {"z_vectors": [], "x_vectors": [[]]}}]
    for shape1, shape2 in shapes:
        d1 = rng.integers(-50, 50, size=shape1)
        d2 = rng.integers(lo, hi, size=shape2, endpoint=True)
        if d2.size:
            d2.flat[0], d2.flat[-1] = lo, hi
        for meta in metas:
            b = _shaped_bundle(d1, d2)
            for key, value in meta.items():
                setattr(b, key, value)
            assert _json_text(b, tmp_path) == _reference_json_text(b)
            if len(b.d1) == len(b.d2) and b.m + b.k:
                write_bundle(tmp_path / "d.csv", b)
                assert sidecar_path(tmp_path / "d.csv").read_text() == \
                    json.dumps(_meta_dict(b), sort_keys=True, indent=2) + "\n"


def test_csv_bytes_equal_row_by_row_writer(tmp_path):
    rng = np.random.default_rng(4)
    lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    # s^u rows, so the file reads back; 2^11 rows of 5 cells span two
    # whole blocks of rows and part of a third
    assert 2 * (_BLOCK_CELLS // 5) < 2 ** 11 < 3 * (_BLOCK_CELLS // 5)
    for s, u in ((2, 1), (3, 2), (2, 11)):
        rows = s ** u
        b = _shaped_bundle(rng.integers(-3, 3, size=(rows, 2)),
                           rng.integers(lo, hi, size=(rows, 3)))
        b.s, b.u, b.u1 = s, u, 1
        path = tmp_path / f"d{rows}.csv"
        write_bundle(path, b, "csv")
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["q1", "q2", "x1", "x2", "x3"])
        for r in range(rows):
            writer.writerow([int(x) for x in b.d1[r]]
                            + [int(x) for x in b.d2[r]])
        assert path.read_bytes() == expected.getvalue().encode()
        again = read_bundle(path)
        assert (again.d1 == b.d1).all() and (again.d2 == b.d2).all()


def test_csv_write_holds_one_block_of_rows(tmp_path):
    # 1024 x 258 cells and a 380 KB sidecar; converting the whole matrix to
    # Python lists at once, and indenting the sidecar in memory, peaked at
    # 10 MiB
    b = bundle_from_design(
        direct_construction(galois_field(2), 10, 2, "i", 7))
    tracemalloc.start()
    try:
        write_bundle(tmp_path / "d.csv", b, "csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20, peak
    again = read_bundle(tmp_path / "d.csv")
    assert (again.d1 == b.d1).all() and (again.d2 == b.d2).all()
    assert sidecar_path(tmp_path / "d.csv").read_text() \
        == json.dumps(_meta_dict(b), sort_keys=True, indent=2) + "\n"


def test_json_write_holds_one_row_at_a_time(tmp_path):
    # 1024 x 258 cells, 3.3 MB of text: building the whole text, and a
    # tolist() of each whole matrix, peaked at 10.9 MiB
    b = bundle_from_design(
        direct_construction(galois_field(2), 10, 2, "i", 7))
    tracemalloc.start()
    try:
        write_bundle(tmp_path / "d.json", b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20, peak
    assert (tmp_path / "d.json").read_text() == _reference_json_text(b)


def test_json_write_that_raises_leaves_no_file(tmp_path):
    # the matrices are streamed before the metadata, which sorts after
    # them; a value json cannot encode must not leave a partial file
    b = _bundle()
    for bad, error in (({1, 2}, TypeError), (10 ** 5000, ValueError)):
        b.provenance = {"z_vectors": bad}
        with pytest.raises(error):
            write_bundle(tmp_path / "d.json", b)
        assert not (tmp_path / "d.json").exists()


def test_read_bundle_rejects_non_integer_entries_by_type(tmp_path):
    base = json.loads(_json_text(_bundle(), tmp_path))
    for d1 in ([[0, 1], [0, True]], [[0, None]], [[0, 1.0]]):
        with pytest.raises(MalformedBundleError,
                           match="^d1 entries must be integers$"):
            read_bundle(_write_obj(tmp_path, dict(base, d1=d1)))


def test_read_bundle_checks_run_count_and_u1_against_u(tmp_path):
    # a 27-run s=3 file that claims u = 4 (81 runs), a u too large to
    # raise 3 to, or a u1 outside 1..u used to verify PASS
    b = _bundle()
    base = json.loads(_json_text(b, tmp_path))
    for key, value, message in (
            ("u", 4, "^27 runs, not 3\\^4$"),
            ("u", 2, "^27 runs, not 3\\^2$"),
            ("u", 20000, "^27 runs, not 3\\^20000$"),
            ("s", 2, "^27 runs, not 2\\^3$"),
            ("u1", 7, "^u1 = 7 outside 1..u = 3$"),
            ("u1", 0, "^u1 = 0 outside 1..u = 3$")):
        with pytest.raises(MalformedBundleError, match=message):
            read_bundle(_write_obj(tmp_path, dict(base, **{key: value})))
        path = tmp_path / "d.csv"
        write_bundle(path, b)
        meta = json.loads(sidecar_path(path).read_text())
        sidecar_path(path).write_text(json.dumps(dict(meta, **{key: value})))
        with pytest.raises(MalformedBundleError, match=message):
            read_bundle(path)
    assert read_bundle(_write_obj(tmp_path, dict(base, u1=None))).u1 is None


def test_writers_match_the_json_and_csv_modules(tmp_path):
    rng = np.random.default_rng(8)
    lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    # 1x1, n x 1 over several blocks of rows, one wide row, and shapes
    # whose blocks end mid-matrix
    shapes = [((1, 1), (1, 1)), ((5000, 1), (5000, 1)),
              ((1, 9000), (1, 2)), ((3, 2), (3, 4100)),
              ((700, 3), (700, 7)), ((64, 1), (64, 0))]
    for (r1, c1), (r2, c2) in shapes:
        d1 = rng.integers(-40, 40, size=(r1, c1))
        d2 = rng.integers(lo, hi, size=(r2, c2), endpoint=True)
        if d2.size:
            d2.flat[0], d2.flat[-1] = lo, hi
            d2[rng.random(d2.shape) < 0.3] = -7
        b = _shaped_bundle(d1, d2)
        assert _json_text(b, tmp_path) == _reference_json_text(b)
        path = tmp_path / "d.csv"
        write_bundle(path, b)
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow([f"q{i + 1}" for i in range(c1)]
                        + [f"x{j + 1}" for j in range(c2)])
        writer.writerows(np.hstack([d1, d2]).tolist())
        assert path.read_bytes() == expected.getvalue().encode()


def _csv_with_body(tmp_path, lines, name="m.csv", ending="\n"):
    """A copy of the 27-run CSV whose data lines are ``lines``."""
    good = tmp_path / "good.csv"
    write_bundle(good, _bundle())
    header = good.read_text().splitlines()[0]
    path = tmp_path / name
    path.write_bytes(ending.join([header] + lines).encode() + b"\n")
    sidecar_path(path).write_text(sidecar_path(good).read_text())
    return path


def test_read_csv_bundle_names_each_malformed_line(tmp_path):
    good = tmp_path / "good.csv"
    write_bundle(good, _bundle())
    rows = good.read_text().splitlines()[1:]
    width = rows[0].count(",") + 1

    def bad(line, field):
        fields = rows[line].split(",")
        fields[1] = field
        return rows[:line] + [",".join(fields)] + rows[line + 1:]

    cases = [
        (rows[:3] + [""] + rows[3:], f"^line 5: expected {width} fields, "
                                     "got 0$"),
        (rows + [""], f"^line 29: expected {width} fields, got 0$"),
        (bad(0, '"0"'), "^line 2: non-integer entry$"),
        (bad(4, "1_0"), "^line 6: non-integer entry$"),
        (bad(4, "2.0"), "^line 6: non-integer entry$"),
        (bad(4, "١"), "^line 6: non-integer entry$"),  # Arabic-Indic 1
        (bad(4, ""), "^line 6: non-integer entry$"),
        (bad(4, "-"), "^line 6: non-integer entry$"),
        (bad(4, "1-2"), "^line 6: non-integer entry$"),
        (bad(4, "1 2"), "^line 6: non-integer entry$"),
        (bad(4, "\t1"), "^line 6: non-integer entry$"),
        (bad(26, str(2 ** 70)), "^CSV data has an entry outside int64$"),
        (bad(26, str(-(2 ** 63) - 1)), "int64"),
        # the misshapen field is reported before a later overflow
        (bad(3, "+-1")[:20] + bad(20, str(2 ** 64))[20:],
         "^line 5: non-integer entry$"),
        ([], "^CSV has no data rows$"),  # and no numpy "no data" warning
    ]
    for lines, message in cases:
        path = _csv_with_body(tmp_path, lines)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MalformedBundleError, match=message):
                read_bundle(path)


def test_read_csv_bundle_reads_lf_crlf_and_spaced_fields(tmp_path):
    good = tmp_path / "good.csv"
    b = _bundle()
    write_bundle(good, b)
    rows = good.read_text().splitlines()[1:]
    spaced = [" " + r.replace(",", " , +", 1) + " " for r in rows]
    for lines, ending in ((rows, "\n"), (rows, "\r\n"), (spaced, "\n")):
        again = read_bundle(_csv_with_body(tmp_path, lines, ending=ending))
        assert (again.d1 == b.d1).all() and (again.d2 == b.d2).all()
