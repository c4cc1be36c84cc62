"""File formats: canonical JSON, CSV + sidecar, and malformed inputs."""

import csv
import io
import json
import os
import re
import stat
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mcd_forge import bundle, verify
from mcd_forge.bundle import (
    _BLOCK_CELLS,
    _meta_dict,
    bundle_from_design,
    read_bundle,
    sidecar_path,
    write_bundle,
)
from mcd_forge.cli import main
from mcd_forge.construct import (
    MAX_DESIGN_CELLS,
    anti_mirror_construction,
    direct_construction,
    general_construction,
    subspace_construction,
)
from mcd_forge.errors import MalformedBundleError, TooLargeError
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
    write_bundle(path, b)
    text1 = path.read_text()
    again = read_bundle(path)
    write_bundle(path, again)
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
    write_bundle(path, b)
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


def test_read_bundle_missing_file(tmp_path):
    # every error Path.exists() reads as no file keeps its refusal: a
    # missing name, a file taken as a directory and a link loop
    good = write_bundle(tmp_path / "good.csv", _bundle())
    loop = tmp_path / "loop.json"
    loop.symlink_to(loop)
    for path in (tmp_path / "nope.json", good / "d.json", loop):
        with pytest.raises(MalformedBundleError,
                           match=f"^no such file: {re.escape(str(path))}$"):
            read_bundle(path)
    side = sidecar_path(good)
    side.unlink()
    side.symlink_to(side)
    with pytest.raises(MalformedBundleError,
                       match="^missing sidecar good.meta.json$"):
        read_bundle(good)


def test_read_bundle_opens_each_file_once(tmp_path, monkeypatch):
    # a JSON file the block reader declines was opened three times (the
    # block reader, the comma count, the whole-text read) and a sidecar
    # twice; each file is now opened once and read again from its start
    canonical = write_bundle(tmp_path / "canonical.json", _bundle())
    compact = _write_obj(tmp_path, json.loads(canonical.read_text()),
                         "compact.json")
    with compact.open("rb") as fh:
        assert bundle._canonical_json(fh) is None  # declined
    csv_path = write_bundle(tmp_path / "d.csv", _bundle())
    opened, real = [], Path.open
    monkeypatch.setattr(Path, "open", lambda self, *args, **kwargs: (
        opened.append(self.name) or real(self, *args, **kwargs)))
    for path, names in ((compact, ["compact.json"]),
                        (canonical, ["canonical.json"]),
                        (csv_path, ["d.csv", "d.meta.json"])):
        opened.clear()
        again = read_bundle(path)
        assert opened == names
        assert (again.d1 == _bundle().d1).all()
        assert (again.d2 == _bundle().d2).all()


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
    write_bundle(path, b)
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
    write_bundle(path, b)  # restore

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


def _reference_json_text(b, **options):
    obj = _meta_dict(b)
    obj["d1"], obj["d2"] = b.d1.tolist(), b.d2.tolist()
    return json.dumps(obj, sort_keys=True, indent=2, **options) + "\n"


def _numpy_int(x):
    """json.dumps' ``default`` for a numpy int, which the writer writes as
    int(x) does; any other value json cannot write stays a TypeError."""
    if isinstance(x, np.integer):
        return int(x)
    raise TypeError(type(x).__name__)


def test_json_text_equals_json_dumps_on_random_shapes(tmp_path,
                                                      monkeypatch):
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
    # the text of each value comes from one str() table over the matrix's
    # range of values when that range is no wider than its cell count, else
    # from np.unique per block: both sides of that bound, and a range past
    # 10^12, as JSON (one matrix at a time) and as CSV (both together)
    real_unique, uniques = np.unique, []
    monkeypatch.setattr(np, "unique", lambda *args, **kw: uniques.append(
        args) or real_unique(*args, **kw))
    big = 10 ** 12
    for d1, d2, fallbacks in (([[0, 5], [1, 2], [3, 4]], [[-2], [0], [2]], 1),
                              ([[0, 6], [1, 2], [3, 4]], [[-1], [0], [1]], 1),
                              (rng.integers(0, 4, (40, 3)),
                               [[-big, big + 7]] * 40, 2)):
        b = _shaped_bundle(d1, d2)
        uniques.clear()
        assert _json_text(b, tmp_path) == _reference_json_text(b)
        write_bundle(tmp_path / "d.csv", b)
        assert len(uniques) == fallbacks
        expected = io.StringIO(newline="")
        csv.writer(expected).writerows(
            [[f"q{i + 1}" for i in range(b.m)]
             + [f"x{j + 1}" for j in range(b.k)]]
            + np.hstack([b.d1, b.d2]).tolist())
        assert (tmp_path / "d.csv").read_bytes() == \
            expected.getvalue().encode()


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
        write_bundle(path, b)
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
        write_bundle(tmp_path / "d.csv", b)
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


def test_failed_write_leaves_the_files_as_they_were(tmp_path):
    # a provenance json cannot encode: a good g.json was deleted, and a
    # good g.csv pair got the new CSV and lost its sidecar; a sidecar
    # target that is a directory left the new CSV behind
    good, bad = _bundle(), _bundle(seed=11)
    bad.provenance = {"z_vectors": {1, 2}}
    for name in ("g.json", "g.csv"):
        folder = tmp_path / name.replace(".", "-")
        folder.mkdir()
        path = write_bundle(folder / name, good)
        before = {p.name: p.read_bytes() for p in folder.iterdir()}
        with pytest.raises(TypeError):
            write_bundle(path, bad)
        assert {p.name: p.read_bytes() for p in folder.iterdir()} == before
    side = sidecar_path(tmp_path / "h.csv")
    side.mkdir()
    with pytest.raises(IsADirectoryError) as caught:
        write_bundle(tmp_path / "h.csv", good)
    assert str(caught.value) == f"[Errno 21] Is a directory: '{side}'"
    assert not (tmp_path / "h.csv").exists()
    assert [p.name for p in side.parent.iterdir() if p.name.startswith(
        ".")] == []


def test_write_into_a_pipe_or_a_link_writes_through_it(tmp_path):
    # a link, a device or a pipe is written to, not replaced by a file
    text = _reference_json_text(_bundle())
    pipe = tmp_path / "pipe.json"
    os.mkfifo(pipe)
    got = []
    reader = threading.Thread(target=lambda: got.append(pipe.read_text()),
                              daemon=True)
    reader.start()
    write_bundle(pipe, _bundle())
    reader.join(timeout=60)
    assert got == [text]
    assert stat.S_ISFIFO(pipe.stat().st_mode)
    link, real = tmp_path / "link.json", tmp_path / "real.json"
    real.write_text("old")
    link.symlink_to(real)
    write_bundle(link, _bundle())
    assert link.is_symlink() and real.read_text() == text


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


def _outcome(path):
    """What read_bundle makes of ``path``: every field of the bundle, with
    each matrix's dtype and shape, or the text of the error."""
    try:
        b = read_bundle(path)
    except MalformedBundleError as exc:
        return str(exc)
    return _meta_dict(b), [(x.dtype, x.shape, x.tolist()) for x in (b.d1, b.d2)]


#: README's CSV field, and the characters a line past the claim may hold
_SPEC_FIELD = re.compile(rb" *[+-]?[0-9]+ *")
_SPEC_CHARS = re.compile(rb"[ 0-9+,-]*")


def _spec_narrowed(values):
    for kind in (np.int8, np.int16, np.int32, np.int64):
        if np.iinfo(kind).min <= values.min() and values.max() <= np.iinfo(
                kind).max:
            return values.astype(kind)


def _spec_int(field):
    """int(field), past Python's limit of 4,300 digits too (Python 3.10.7
    on)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return int(field)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _spec_csv_matrices(fh, s, u):
    """D1 and D2 of the CSV open in ``fh`` as README words its format,
    one step at a time: its lines split on \\n with one \\r stripped, each
    field matched by README's regex, then int(), then range-checked.  The
    first faulty line
    is named first, and a value past int64 only after every line has
    passed.  Past the sidecar's s^u lines, the first line has its field
    count and characters checked and the rest are counted."""
    text = fh.read()
    if not text:
        raise MalformedBundleError("empty CSV")
    lines = text.split(b"\n")
    if lines[-1] == b"":  # the last line's end
        lines.pop()
    lines = [line[:-1] if line.endswith(b"\r") else line for line in lines]
    names = lines[0].split(b",")
    m = sum(name.startswith(b"q") for name in names)
    k = len(names) - m
    if not (m and k and names == [b"q%d" % i for i in range(1, m + 1)]
            + [b"x%d" % j for j in range(1, k + 1)]):
        raise MalformedBundleError("header must be q1..qm followed by x1..xk")
    runs = s ** min(u, 64)
    if len(text) >= 2 * (m + k) * runs:
        verify._require_cells(runs, m, k)
    claim = min(runs, bundle.MAX_FILE_BYTES)
    rows, wide = [], False
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(b",") if line else []
        if len(fields) != m + k:
            raise MalformedBundleError(
                f"line {lineno}: expected {m + k} fields, got {len(fields)}")
        past = lineno - 2 == claim and not wide
        if not all((_SPEC_CHARS if past else _SPEC_FIELD).fullmatch(field)
                   for field in fields):
            raise MalformedBundleError(f"line {lineno}: non-integer entry")
        if past:
            raise MalformedBundleError(f"{len(lines) - 1} runs, not {s}^{u}")
        if not wide:
            rows.append(list(map(_spec_int, fields)))
            wide = not all(INT64_MIN <= v <= INT64_MAX for v in rows[-1])
    if wide:
        raise MalformedBundleError("CSV data has an entry outside int64")
    if not rows:
        raise MalformedBundleError("CSV has no data rows")
    data = np.array(rows, dtype=np.int64)
    return _spec_narrowed(data[:, :m]), _spec_narrowed(data[:, m:])


def _reference_outcome(path):
    """_outcome with a JSON file read by one json.loads of its whole text,
    and a CSV by _spec_csv_matrices."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bundle, "_canonical_json", lambda fh: None)
        patch.setattr(bundle, "_csv_matrices", _spec_csv_matrices)
        return _outcome(path)


def _read_in_blocks(path) -> bool:
    """Whether the block reader read every matrix row of ``path``: a CSV's
    rows each parsed in a block of lines, none checked line by line."""
    if path.suffix != ".csv":
        with path.open("rb") as fh:
            return bundle._canonical_json(fh) is not None
    calls = []

    def spy(name):
        real = getattr(bundle, name)
        return lambda *args: calls.append(name) or real(*args)

    with pytest.MonkeyPatch.context() as patch:
        for name in ("_append_rows", "_check_lines"):
            patch.setattr(bundle, name, spy(name))
        _outcome(path)
    return "_append_rows" in calls and "_check_lines" not in calls


def _assert_same_reading(path, in_blocks=None):
    """read_bundle gives the bundle, or the error text, the reference
    reader gives; ``in_blocks``, when set, says whether the block reader
    took the file."""
    assert _outcome(path) == _reference_outcome(path)
    if in_blocks is not None:
        assert _read_in_blocks(path) is in_blocks


def test_block_reader_reads_every_pinned_build_as_the_checked_path(tmp_path,
                                                                   capsys):
    from test_pinned_output import SEEDED_DIGESTS, _named_builds

    for flags, name, _ in SEEDED_DIGESTS:
        twins = []
        for suffix in (".json", ".csv"):
            out = tmp_path / (name[0] + suffix)
            assert main(["construct", *flags, "--seed", "7",
                         "--out", str(out)]) == 0
            _assert_same_reading(out, in_blocks=True)
            twins.append(_outcome(out))
        assert twins[0] == twins[1]  # values and dtypes
    capsys.readouterr()
    for mcd in _named_builds():  # 428 designs, s = 2 to 9
        path = write_bundle(tmp_path / "named.json", bundle_from_design(mcd))
        _assert_same_reading(path, in_blocks=True)


def test_block_reader_reads_the_benchmark_tamper_layout(tmp_path):
    # the benchmark's tampered copies are json.dumps(obj, sort_keys=True,
    # indent=2) plus a newline: a moved D2 value, a copied D2 column and a
    # D1 level past s each still read in blocks
    b = bundle_from_design(direct_construction(galois_field(4), 4, 2, "i",
                                               5))
    obj = json.loads(_json_text(b, tmp_path))
    d1, d2 = obj["d1"], obj["d2"]
    d2[3][-1], d2[200][-1] = d2[200][-1], d2[3][-1]
    for row in d2:
        row[1] = row[0]
    d1[7][1] = 5
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")
    _assert_same_reading(path, in_blocks=True)


def _in_d2(old, new):
    """An edit of the first ``old`` after the "d2" key, which must exist."""
    def edit(text):
        head, key, rest = text.partition('"d2": [')
        assert old in rest
        return head + key + rest.replace(old, new, 1)
    return edit


def _redump(**changes):
    def edit(text):
        return json.dumps(dict(json.loads(text), **changes), sort_keys=True,
                          indent=2) + "\n"
    return edit


def _ragged(text):
    obj = json.loads(text)
    obj["d2"][4] = obj["d2"][4][:-1]
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _short_d2(text):
    obj = json.loads(text)
    obj["d2"] = obj["d2"][:-1]
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _non_ascii_provenance(text):
    obj = json.loads(text)
    obj["provenance"]["note"] = "é"
    return json.dumps(obj, sort_keys=True, indent=2,
                      ensure_ascii=False) + "\n"


INT64_MIN, INT64_MAX = -2 ** 63, 2 ** 63 - 1

#: each narrow type's extremes and the value one past each, with the type
#: a matrix of small values and that one value is read in
NARROW_EDGES = [
    (-128, np.int8), (127, np.int8), (-129, np.int16), (128, np.int16),
    (-32768, np.int16), (32767, np.int16), (-32769, np.int32),
    (32768, np.int32), (-2 ** 31, np.int32), (2 ** 31 - 1, np.int32),
    (-2 ** 31 - 1, np.int64), (2 ** 31, np.int64), (10 ** 18 - 1, np.int64),
    (1 - 10 ** 18, np.int64),
]

#: edits of a canonical JSON file: (id, edit of its text, whether the block
#: reader takes the result); each is read as the reference reader reads it
JSON_EDITS = [
    ("canonical", lambda t: t, True),
    ("negative", _in_d2("      1,\n", "      -1,\n"), True),
    ("eighteen-digits", _in_d2("      1,\n", f"      {10 ** 18 - 1},\n"),
     True),
    *((f"edge{value}", _in_d2("      1,\n", f"      {value},\n"), True)
      for value, _ in NARROW_EDGES),
    ("int64-max", _in_d2("      1,\n", f"      {INT64_MAX},\n"), False),
    ("int64-min", _in_d2("      1,\n", f"      {INT64_MIN},\n"), False),
    ("past-int64", _in_d2("      1,\n", f"      {2 ** 63},\n"), False),
    ("below-int64", _in_d2("      1,\n", f"      {INT64_MIN - 1},\n"), False),
    ("nineteen-nines", _in_d2("      1,\n", f"      {10 ** 19 - 1},\n"),
     False),
    ("twenty-digits", _in_d2("      1,\n", f"      {10 ** 19},\n"), False),
    ("indent-4", lambda t: json.dumps(json.loads(t), sort_keys=True,
                                      indent=4) + "\n", False),
    ("compact", lambda t: json.dumps(json.loads(t), sort_keys=True), False),
    ("space-before-comma", _in_d2("1,\n", "1 ,\n"), False),
    ("tab-indent", _in_d2("      1,\n", "\t1,\n"), False),
    ("leading-zero", _in_d2("      1,\n", "      01,\n"), False),
    ("double-zero", _in_d2("      0,\n", "      00,\n"), False),
    ("minus-zero", _in_d2("      0,\n", "      -0,\n"), False),
    ("lone-minus", _in_d2("      1,\n", "      -,\n"), False),
    ("double-minus", _in_d2("      1,\n", "      --1,\n"), False),
    ("inner-minus", _in_d2("      1,\n", "      1-1,\n"), False),
    ("empty-value", _in_d2("      1,\n", "      ,\n"), False),
    ("plus-sign", _in_d2("      1,\n", "      +1,\n"), False),
    ("float", _in_d2("      1,\n", "      1.0,\n"), False),
    ("exponent", _in_d2("      1,\n", "      1e0,\n"), False),
    ("nan", _in_d2("      1,\n", "      NaN,\n"), False),
    ("bool", _in_d2("      1,\n", "      true,\n"), False),
    ("string", _in_d2("      1,\n", '      "1",\n'), False),
    ("nested", _in_d2("      1,\n", "      [1],\n"), False),
    ("bom", lambda t: "﻿" + t, False),
    ("crlf", lambda t: t.replace("\n", "\r\n"), False),
    ("lone-cr", _in_d2("1,\n", "1,\r"), False),
    ("duplicate-d1", lambda t: t[:-3] + ',\n  "d1": [\n    [\n      1\n'
     "    ]\n  ]\n}\n", False),
    ("duplicate-d2", lambda t: t[:-3] + ',\n  "d2": ' + json.dumps(
        json.loads(t)["d2"], indent=2).replace("\n", "\n  ") + "\n}\n",
     False),
    ("empty-d1", _redump(d1=[]), False),
    ("empty-rows", _redump(d1=[[]] * 27), False),
    ("ragged", _ragged, False),
    ("short-d2", _short_d2, True),
    ("truncated-half", lambda t: t[:len(t) // 2], False),
    ("truncated-in-d2", lambda t: t[:t.index('"d2"') + 40], False),
    ("truncated-end", lambda t: t[:-2], False),
    ("trailing-bytes", lambda t: t + "x", False),
    ("trailing-object", lambda t: t + "{}", False),
    ("trailing-whitespace", lambda t: t + " \n\n", True),
    ("reordered-keys", lambda t: json.dumps(dict(reversed(json.loads(
        t).items())), indent=2) + "\n", False),
    ("unknown-key-first", lambda t: t.replace("{\n", '{\n  "a": 1,\n', 1),
     False),
    ("unknown-key-last", lambda t: t[:-3] + ',\n  "zz": 1\n}\n', True),
    ("key-before-format-version", lambda t: t.replace(
        ',\n  "format_version": ', ',\n  "e": 1,\n  "format_version": ', 1),
     False),
    ("bad-method", lambda t: t.replace('"theorem1"', '"theorem9"'), True),
    ("escaped-method", lambda t: t.replace('"theorem1"', '"\\u0074heorem1"'),
     True),
    ("non-ascii-provenance", _non_ascii_provenance, False),
    ("deep-provenance", lambda t: t.replace('"provenance": {',
                                            '"provenance": {"x": '
                                            + "[" * 100_000 + "]" * 100_000
                                            + ",", 1), False),
]


@pytest.mark.parametrize("edit, in_blocks",
                         [case[1:] for case in JSON_EDITS],
                         ids=[case[0] for case in JSON_EDITS])
def test_edited_json_reads_as_the_checked_path_reads_it(tmp_path, edit,
                                                        in_blocks):
    path = tmp_path / "edited.json"
    path.write_text(edit(_json_text(_bundle(seed=11), tmp_path)),
                    encoding="utf-8", newline="")
    _assert_same_reading(path, in_blocks)


def test_utf16_json_reads_as_the_checked_path_reads_it(tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(_json_text(_bundle(), tmp_path).encode("utf-16"))
    _assert_same_reading(path, in_blocks=False)


def _csv_edit(line, new):
    """An edit of the data line ``line`` (counted from 0) of a CSV text."""
    def edit(text):
        lines = text.split("\r\n")
        lines[line + 1] = new(lines[line + 1])
        return "\r\n".join(lines)
    return edit


def _first_field(new):
    return lambda row: new + row[row.index(","):]


#: edits of a CSV written by write_bundle, as JSON_EDITS
CSV_EDITS = [
    ("canonical", lambda t: t, True),
    ("lf", lambda t: t.replace("\r\n", "\n"), True),
    ("leading-zeros", _csv_edit(3, _first_field("0007")), True),
    ("negative", _csv_edit(3, _first_field("-7")), True),
    ("minus-zero", _csv_edit(3, _first_field("-0")), True),
    *((f"edge{value}", _csv_edit(3, _first_field(str(value))), True)
      for value, _ in NARROW_EDGES),
    ("int64-max", _csv_edit(3, _first_field(str(INT64_MAX))), False),
    ("past-int64", _csv_edit(3, _first_field(str(2 ** 63))), False),
    ("nineteen-nines", _csv_edit(3, _first_field(str(10 ** 19 - 1))), False),
    ("plus-sign", _csv_edit(3, _first_field("+1")), False),
    ("spaces", _csv_edit(3, _first_field(" 1 ")), True),
    ("lone-minus", _csv_edit(3, _first_field("-")), False),
    ("inner-minus", _csv_edit(3, _first_field("1-2")), False),
    ("empty-field", _csv_edit(3, _first_field("")), False),
    ("extra-field", _csv_edit(3, lambda row: row + ",1"), False),
    ("blank-line", _csv_edit(3, lambda row: ""), False),
    ("one-lf-line", lambda t: t.replace("\r\n", "\n", 2), False),
    ("lone-cr", lambda t: t.replace("\r\n", "\r"), False),
    ("no-final-newline", lambda t: t[:-2], False),
    ("header-only", lambda t: t[:t.index("\r\n") + 2], False),
    ("bad-header", lambda t: "a" + t[2:], False),
    ("short", lambda t: t[:t.rindex("\r\n", 0, -2) + 2], True),
]


@pytest.mark.parametrize("edit, in_blocks",
                         [case[1:] for case in CSV_EDITS],
                         ids=[case[0] for case in CSV_EDITS])
def test_edited_csv_reads_as_the_checked_path_reads_it(tmp_path, edit,
                                                       in_blocks):
    path = write_bundle(tmp_path / "edited.csv", _bundle(seed=11))
    path.write_bytes(edit(path.read_bytes().decode()).encode())
    _assert_same_reading(path, in_blocks)


@pytest.mark.parametrize("value, kind", NARROW_EDGES,
                         ids=[str(value) for value, _ in NARROW_EDGES])
def test_matrices_are_read_in_their_narrowest_type(tmp_path, monkeypatch,
                                                   value, kind):
    # each matrix, of a JSON file or a CSV alike, is read in the narrowest
    # signed type that holds its values, by the block reader and the
    # reference reader alike.  Read 64 bytes at a time, the value in the
    # last row widens the matrix that the earlier blocks made.  The checks
    # report on what is read as on its int64 copy
    from mcd_forge.verify import battery, check_mcd_by_slices

    monkeypatch.setattr(bundle, "_READ_BYTES", 64)
    for where in ("d1", "d2"):
        tampered = _bundle(seed=11)
        matrix = getattr(tampered, where).astype(np.int64)
        matrix[-1, -1] = value
        setattr(tampered, where, matrix)
        for name in ("t.json", "t.csv"):
            path = write_bundle(tmp_path / name, tampered)
            _assert_same_reading(path, in_blocks=True)
            again = read_bundle(path)
            kinds = (kind, np.int8) if where == "d1" else (np.int8, kind)
            assert (again.d1.dtype, again.d2.dtype) == kinds
            assert (again.d1 == tampered.d1).all()
            assert (again.d2 == tampered.d2).all()
            wide = replace(again, d1=again.d1.astype(np.int64),
                           d2=again.d2.astype(np.int64))
            for check in (battery, check_mcd_by_slices):
                assert check(*again.design_objects(), again.s) \
                    == check(*wide.design_objects(), wide.s)


def test_block_reader_holds_no_whole_file(tmp_path):
    # 1024 x 258 cells, 3.3 MB of JSON text and 1.0 MB of CSV: one
    # json.loads of the whole JSON text peaked at 11.1 MiB; the block
    # reader holds its blocks of text and the parsed metadata, under 2
    # MiB, besides the matrices it returns (int8 D1 and int16 D2 from
    # either file)
    b = bundle_from_design(
        direct_construction(galois_field(2), 10, 2, "i", 7))
    for name in ("d.json", "d.csv"):
        path = write_bundle(tmp_path / name, b)
        tracemalloc.start()
        try:
            again = read_bundle(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < again.d1.nbytes + again.d2.nbytes + (2 << 20), \
            (name, peak)
        assert (again.d1 == b.d1).all() and (again.d2 == b.d2).all()


def test_nested_int_lists_encode_as_json_dumps(tmp_path):
    # a rectangular list of plain ints, two or more deep, with no empty
    # level and every value in int64, is written as its int64 array, a
    # 3-D one as the list of its 2-D slices; anything else in a list
    # takes the item-by-item path
    b = _bundle()
    for provenance in (
            {"x": [[1, 2], [3, 4]], "y": [[[0, 1], [1, 0]], [[5, 6], [7, 8]]]},
            {"x": [(1, 2), [3, -4]], "y": [[[2 ** 70]]], "z": [7]},
            {"x": [[1, True]], "y": [[1, 1.0]], "z": [[1], [[2]]]},
            {"x": [[1], []], "y": [[1, None]], "z": [[[1, 2], [3]]]},
            {"x": [[[]]], "y": [["a"]], "z": [{"k": [1]}]},
            # 3-D, and 4-D whose slices are 3-D
            {"x": [[[1, -2, 3]] * 2] * 3, "y": [[[[4, 5]] * 2] * 2] * 2},
            # ragged at depth 2, then at depth 3
            {"x": [[[1, 2], [3, 4]], [[5, 6]]],
             "y": [[[1, 2], [3, 4]], [[5, 6], [7]]]},
            # int64's ends, and one past each
            {"x": [[INT64_MIN, INT64_MAX], [0, 1]],
             "y": [[INT64_MIN - 1, 0]], "z": [[0], [INT64_MAX + 1]]},
            # numpy ints and bools at depth 3
            {"x": [[[np.int64(1), 2]], [[3, 4]]],
             "y": [[[1, np.int16(-2)]]], "z": [[[True, 1]], [[0, 1]]]},
            {"x": [[[np.bool_(False), 1]]]},  # a TypeError, as in json
            # tuples mixed with lists, at each depth
            {"x": ([1, 2], (3, 4)), "y": [((1, 2), [3, 4]), [(5, 6), (7, 8)]]},
            # a flat int list, and lists that hold an empty list
            {"x": [1, -2, 3], "y": [[1, 2], []], "z": [[[]], [[]]],
             "w": [[], [1]]}):
        b.provenance = provenance
        try:
            expected = _reference_json_text(b, default=_numpy_int)
        except TypeError:
            with pytest.raises(TypeError):
                _json_text(b, tmp_path)
            continue
        assert _json_text(b, tmp_path) == expected


def test_narrow_matrices_write_as_their_int64_copies(tmp_path):
    # each value's text is looked up at value - min, which an int16 matrix
    # of values -20000..20000 took in int16: 40000 wrapped to -25536
    b = _bundle()
    full = np.arange(-20_000, 20_001, dtype=np.int16)[:, None]
    wide = _bundle()
    for name in ("d.json", "d.csv"):
        b.d1, b.d2 = full, full[::-1].copy()
        wide.d1, wide.d2 = b.d1.astype(np.int64), b.d2.astype(np.int64)
        texts = []
        for one in (b, wide):
            path = write_bundle(tmp_path / name, one)
            texts.append(path.read_bytes())
        assert texts[0] == texts[1]


def test_file_cap_leaves_room_for_the_largest_designs(tmp_path):
    # at the widest value text, every matrix value the most negative
    # int64, each file of these designs takes at most 36 bytes per cell:
    # 30 % under the cap's 56 per cell, so a design of MAX_DESIGN_CELLS
    # cells reads back.  Their provenance per cell is larger than at the
    # cell cap, and m + k = 9 is the narrowest row at 256 runs or more,
    # where the row brackets weigh most
    assert bundle.MAX_FILE_BYTES == 2 * 28 * MAX_DESIGN_CELLS
    for mcd in (direct_construction(galois_field(2), 8, 8, "ii"),
                direct_construction(galois_field(2), 10, 2, "i", 7),
                anti_mirror_construction(8, 2),
                subspace_construction(galois_field(3), 6, 3, 3, "ii")):
        b = bundle_from_design(mcd)
        b.d1 = np.full(b.d1.shape, INT64_MIN, dtype=np.int64)
        b.d2 = np.full(b.d2.shape, INT64_MIN, dtype=np.int64)
        cells = b.d1.size + b.d2.size
        for name in ("d.json", "d.csv"):
            path = write_bundle(tmp_path / name, b)
            sizes = [path.stat().st_size]
            if name == "d.csv":
                sizes.append(sidecar_path(path).stat().st_size)
            for size in sizes:
                assert size <= 36 * cells, (mcd.params, name, size / cells)
                assert size * MAX_DESIGN_CELLS / cells \
                    <= 0.7 * bundle.MAX_FILE_BYTES
            again = read_bundle(path)
            assert (again.d1 == b.d1).all() and (again.d2 == b.d2).all()


def test_file_cap_is_inclusive(tmp_path, monkeypatch):
    path = write_bundle(tmp_path / "d.json", _bundle())
    size = path.stat().st_size
    monkeypatch.setattr(bundle, "MAX_FILE_BYTES", size)
    assert read_bundle(path).s == 3
    monkeypatch.setattr(bundle, "MAX_FILE_BYTES", size - 1)
    with pytest.raises(MalformedBundleError, match=(
            f"^d.json is {size} bytes, over the cap of {size - 1} bytes$")):
        read_bundle(path)


def test_json_parsed_whole_is_refused_past_the_comma_cap(tmp_path,
                                                         monkeypatch,
                                                         capsys):
    # json.loads makes a Python object per value: a 27.3 MB compact file
    # of 2^20 x 11 cells, which the block reader declines, made verify
    # peak at 454 MiB and run 6.2 s.  A text to be parsed whole (a
    # declined file, a sidecar, a canonical file's metadata) is refused
    # once it holds more than 2 * MAX_DESIGN_CELLS commas.  A canonical
    # file's matrices are read in blocks, so only its metadata's commas
    # count, until they send the whole file to the checked path
    canonical = write_bundle(tmp_path / "canonical.json", _bundle())
    compact = tmp_path / "compact.json"
    compact.write_text(json.dumps(json.loads(canonical.read_text()),
                                  separators=(",", ":")))
    csv_path = write_bundle(tmp_path / "d.csv", _bundle())
    side = sidecar_path(csv_path)
    text = canonical.read_bytes()
    tail = text[text.index(b'"format_version"'):].count(b",")
    for path, counted, within in (
            (compact, compact, compact.read_bytes().count(b",")),
            (canonical, canonical, tail),
            (csv_path, side, side.read_bytes().count(b","))):
        commas = counted.read_bytes().count(b",")
        monkeypatch.setattr(bundle, "MAX_DESIGN_CELLS", (within + 1) // 2)
        assert read_bundle(path).s == 3
        monkeypatch.setattr(bundle, "MAX_DESIGN_CELLS", (within - 1) // 2)
        cap = 2 * ((within - 1) // 2)
        with pytest.raises(MalformedBundleError, match=(
                f"^{counted.name} has {commas} commas, over the cap of "
                f"{cap}$")):
            read_bundle(path)
        capsys.readouterr()
        assert main(["verify", "--in", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {counted.name} has {commas} commas, over the cap of "
            f"{cap}\n")



def test_compact_json_is_declined_after_a_bounded_piece(tmp_path,
                                                       monkeypatch):
    # compact JSON has no row end: the block reader gathered the whole
    # text, twice over, before it declined the file, and verify of a 27.3
    # MB one peaked at 81 MiB.  It now declines the file once a piece
    # passes _PIECE_BYTES, and the comma count refuses it in blocks: 6.8
    # MB of text, refused holding at most 2.3 MiB (13.0 MiB before)
    rows = 1 << 18
    path = tmp_path / "compact.json"
    path.write_text(json.dumps({
        "d1": [[0]] * rows, "d2": [[0] * 10] * rows, "format_version": 1,
        "method": "theorem1", "s": 2, "seed": "identity", "u": 18},
        separators=(",", ":")))
    monkeypatch.setattr(bundle, "MAX_DESIGN_CELLS", rows)
    tracemalloc.start()
    try:
        with pytest.raises(MalformedBundleError, match="commas, over the cap"):
            read_bundle(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * bundle._PIECE_BYTES + (1 << 20), peak


def test_a_csv_over_the_cell_cap_is_refused_before_its_data(tmp_path,
                                                            monkeypatch):
    # the sidecar's s and u and the header size the design: 27 runs x 2 +
    # 6 columns, over a cap of 100, is refused once the header is parsed
    # and before any data line is, where the whole file was read and then
    # refused by the battery
    path = tmp_path / "d.csv"
    write_bundle(path, _bundle())
    monkeypatch.setattr(verify, "MAX_DESIGN_CELLS", 100)
    parsed, real = [], bundle._int_block

    def block(text, count):
        parsed.append(text)
        return real(text, count)

    def unread(*args):
        raise AssertionError("a data line was checked")

    monkeypatch.setattr(bundle, "_int_block", block)
    monkeypatch.setattr(bundle, "_check_lines", unread)
    with pytest.raises(TooLargeError, match=(
            "^27 runs x 2 \\+ 6 columns is 216 cells, over the cap of 100$")):
        read_bundle(path)
    assert parsed == [b"1,2,1,2,3,4,5,6"]  # the header's column numbers


def test_a_csv_line_without_a_line_end_reads_as_the_checked_path(tmp_path):
    # the block reader skipped a last line of digits alone, with no line
    # end, and read the lines before it as the whole design: the line is
    # given its end, checked line by line and named as short
    rows = write_bundle(tmp_path / "good.csv", _bundle()).read_text(
        ).splitlines()[1:]
    path = _csv_with_body(tmp_path, rows + ["5"])
    path.write_bytes(path.read_bytes()[:-1])
    _assert_same_reading(path, in_blocks=False)
    with pytest.raises(MalformedBundleError,
                       match="^line 29: expected 8 fields, got 1$"):
        read_bundle(path)


@pytest.mark.parametrize("read_bytes", [bundle._READ_BYTES, 16])
def test_checked_csv_names_the_first_faulty_line(tmp_path, monkeypatch,
                                                 read_bytes):
    # a text of lines the block parse declines is checked line by line
    # before it is parsed, and a value past int64 reported only once every
    # line has passed, so the first faulty line is named whatever follows
    # it, in one text or across texts of two lines
    monkeypatch.setattr(bundle, "_READ_BYTES", read_bytes)
    rows = write_bundle(tmp_path / "good.csv", _bundle()).read_text(
        ).splitlines()[1:]
    for edits, message in (
            ({2: "1-2", 4: "1,1"}, "line 4: non-integer entry"),
            ({2: "x", 4: "1-2"}, "line 4: non-integer entry"),
            ({2: str(2 ** 63), 4: "1,1"}, "line 6: expected 8 fields, got 9"),
            ({2: str(2 ** 63), 5: "1-2"}, "line 7: non-integer entry"),
            ({2: str(2 ** 63)}, "CSV data has an entry outside int64")):
        lines = list(rows)
        for i, new in edits.items():
            lines[i] = new + lines[i][lines[i].index(","):]
        with pytest.raises(MalformedBundleError, match=f"^{message}$"):
            read_bundle(_csv_with_body(tmp_path, lines))


def test_metadata_cut_into_pieces_reads_in_blocks(tmp_path, monkeypatch):
    # the metadata after a JSON file's matrices is read whole, whatever its
    # pieces.  In this file at most 110 bytes lie between two row ends of
    # the matrices (a row more where a row end is split across two reads),
    # and 1.5 KB, most of it provenance, after the last: read 32 bytes at
    # a time, that tail is cut into pieces of 256 bytes, and the matrices
    # are not
    monkeypatch.setattr(bundle, "_READ_BYTES", 32)
    monkeypatch.setattr(bundle, "_PIECE_BYTES", 256)
    path = write_bundle(tmp_path / "d.json", _bundle(seed=11))
    _assert_same_reading(path, in_blocks=True)


def test_a_value_longer_than_a_read_is_declined_whole(tmp_path, monkeypatch):
    # the block reader gathers text until a row ends: a run of digits that
    # spans many reads stays one value, which the block parse declines as
    # past its bound, and the line check refuses.  Read in cut pieces, the
    # run would read as its last few digits, so a piece cut at
    # _PIECE_BYTES, with no row end, is carried whole into the next
    good = write_bundle(tmp_path / "good.csv", _bundle())
    rows = good.read_text().splitlines()[1:]
    long_row = "1" + "9" * 160 + "5," + rows[0].split(",", 1)[1]
    path = _csv_with_body(tmp_path, [long_row] + rows[1:])
    monkeypatch.setattr(bundle, "_READ_BYTES", 16)
    for bound in (bundle._PIECE_BYTES, 32):
        monkeypatch.setattr(bundle, "_PIECE_BYTES", bound)
        _assert_same_reading(path, in_blocks=False)
        with pytest.raises(MalformedBundleError,
                           match="^CSV data has an entry outside int64$"):
            read_bundle(path)


def _theorem2_files(tmp_path):
    """``construct --method theorem2 --s 3 --u 3 --u1 2 --v 1 --seed 3``
    written as JSON and as CSV."""
    paths = tmp_path / "t2.json", tmp_path / "t2.csv"
    for out in paths:
        assert main(["construct", "--method", "theorem2", "--s", "3",
                     "--u", "3", "--u1", "2", "--v", "1", "--seed", "3",
                     "--out", str(out)]) == 0
    return paths


def test_a_split_value_or_a_bare_cr_is_refused_as_the_checked_path(
        tmp_path, capsys):
    # a JSON value split by a space, and a CSV line with a CR inside it,
    # read as the value and the line they were: verify printed PASS
    json_path, csv_path = _theorem2_files(tmp_path)
    text = json_path.read_bytes()
    assert text.count(b"\n      11,\n") == 2
    json_path.write_bytes(text.replace(b"\n      11,\n", b"\n     1 1,\n", 1))
    text = csv_path.read_bytes()
    assert b"\r\n0,0,0,6,6,8\r\n" in text
    csv_path.write_bytes(text.replace(b"0,0,0,6,6,8\r\n",
                                      b"0,0,0,6,6,\r8\n", 1))
    capsys.readouterr()
    for path, error in (
            (json_path, "error: not valid JSON: Expecting ',' delimiter: "
                        "line 156 "),
            (csv_path, "error: line 4: non-integer entry\n")):
        _assert_same_reading(path, in_blocks=False)
        assert main(["verify", "--in", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(error), err


#: the bytes the mutants below are edited with
_MUTANT_BYTES = b"0123456789-+, \n[]{}\":\r\t.e"


def _mutant(rng, text: bytes) -> bytes:
    """``text`` with 1 to 3 edits, each a byte of _MUTANT_BYTES put in
    place of a byte or between two, or a byte deleted."""
    text = bytearray(text)
    for _ in range(rng.integers(1, 4)):
        op, byte = rng.integers(3), _MUTANT_BYTES[rng.integers(
            len(_MUTANT_BYTES))]
        at = int(rng.integers(len(text) + (op == 1)))
        if op == 0:
            text[at] = byte
        elif op == 1:
            text.insert(at, byte)
        else:
            del text[at]
    return bytes(text)


def test_block_readers_read_seeded_mutants_as_the_checked_path(tmp_path):
    # every method, JSON, CSV with either line end, and the sidecar: each
    # mutant reads, values and dtype, or is refused, in the words of the
    # reference readers (one json.loads of a whole JSON text, and
    # _spec_csv_matrices).  Six of these 800 were misread before each
    # value's text was checked where it sits
    F2 = galois_field(2)
    builds = [bundle_from_design(mcd) for mcd in (
        direct_construction(F3, 3, 2, "ii", 5),
        subspace_construction(F3, 3, 2, 1, "i", seed=3),
        anti_mirror_construction(5, 2, seed=3),
        general_construction(F2, [(1, 0, 0)], [(1, 0, 0), (1, 1, 0),
                                               (1, 0, 1)], 7))]
    rng = np.random.default_rng(20261020)
    bare = 0
    for t in range(800):
        b, kind = builds[t % len(builds)], t // len(builds) % 4
        path = write_bundle(tmp_path / ("m.json" if kind == 0 else "m.csv"), b)
        if kind == 2:
            path.write_bytes(path.read_bytes().replace(b"\r\n", b"\n"))
        target = sidecar_path(path) if kind == 3 else path
        target.write_bytes(_mutant(rng, target.read_bytes()))
        _assert_same_reading(path)
        text = path.read_bytes()
        at = text.replace(b"\r\n", b"  ").find(b"\r")
        if kind in (1, 2) and 0 <= at < len(text) - 1:
            # a CR not before a LF (nor ending the file) is no line end:
            # the line it stands in is refused, or an earlier one, or the
            # header, or, past the claim, the run count
            bare += 1
            line = text.count(b"\n", 0, at) + 1
            error = _outcome(path)
            assert isinstance(error, str), text
            named = re.match("line ([0-9]+): ", error)
            assert (int(named[1]) <= line if named else error in (
                "header must be q1..qm followed by x1..xk",
                "CSV data has an entry outside int64")
                or " runs, not " in error), (error, line)
    assert bare > 20


def test_a_csv_value_past_int_s_digit_limit_is_outside_int64(tmp_path):
    # int() refuses a value of more than 4,300 digits, leading zeros
    # included: such a value reads as outside int64, and its zeros alone
    # as what they lead
    rows = write_bundle(tmp_path / "good.csv", _bundle()).read_text(
        ).splitlines()[1:]
    for field, value in (("9" * 5000, None), ("0" * 5000 + "7", 7),
                         ("-" + "0" * 5000 + "1", -1),
                         (" +" + "0" * 5000 + "2 ", 2)):
        path = _csv_with_body(tmp_path, rows[:3] + [
            field + rows[3][rows[3].index(","):]] + rows[4:])
        _assert_same_reading(path)
        if value is None:
            with pytest.raises(MalformedBundleError,
                               match="^CSV data has an entry outside int64$"):
                read_bundle(path)
        else:
            assert read_bundle(path).d1[3, 0] == value


def test_a_csv_header_is_read_to_a_bound(tmp_path):
    # a header was read and split whole: a 100 MB line of "1,1,...,1" held
    # 512 MiB before it was refused.  The header is read to at most
    # _PIECE_BYTES, or the length of a header of as many columns as s^u
    # runs hold under MAX_DESIGN_CELLS (185,185 columns at 27 runs, 1.5
    # MB), and the read of a 32 MB line holds a few copies of that
    good = write_bundle(tmp_path / "good.csv", _bundle())
    path = tmp_path / "long.csv"
    sidecar_path(path).write_text(sidecar_path(good).read_text())
    columns = [f"q{i}" for i in range(1, 200_001)] + ["x1"]
    for text, error in (
            (b"1," * 16_000_000 + b"1\n", "^header must be q1..qm followed by "
                                        "x1..xk$"),
            (",".join(columns).encode() + b"\n1\n", "^header has more than "
             "185185 columns, the most a design of 3\\^3 runs has under the "
             "cap of 5000000 cells$")):
        path.write_bytes(text)
        tracemalloc.start()
        try:
            with pytest.raises(MalformedBundleError if text[0] == ord("1")
                               else TooLargeError, match=error):
                read_bundle(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 << 20, peak
    # a header of that many columns is read whole, and its data lines too
    path.write_bytes(",".join(columns[:185_184] + ["x1"]).encode() + b"\n1\n")
    with pytest.raises(MalformedBundleError,
                       match="^line 2: expected 185185 fields, got 1$"):
        read_bundle(path)


def test_a_csv_not_utf8_names_the_byte_from_the_file_start(tmp_path):
    path = write_bundle(tmp_path / "d.csv", _bundle())
    text = path.read_bytes()
    at = text.index(b"\r\n", 100) + 2
    path.write_bytes(text[:at] + b"\xff" + text[at + 1:])
    with pytest.raises(MalformedBundleError, match=(
            "^not UTF-8 text: 'utf-8' codec can't decode byte 0xff in "
            f"position {at}: invalid start byte$")):
        read_bundle(path)


def test_a_csv_past_its_claim_is_counted_not_parsed(tmp_path, monkeypatch):
    # a 27-run design's lines, 40 times over, with its sidecar's s = 3,
    # u = 3: every line was parsed before the run count was compared.  The
    # read now stops at the first line past 27 and counts the rest, CRLF or
    # LF, with the last line ended or not, whether its lines are parsed in
    # blocks or (with plus signs, which the block parse declines) checked
    # line by line first
    monkeypatch.setattr(bundle, "_READ_BYTES", 256)
    cells = []
    real_block, real_lines = bundle._int_block, bundle._check_lines

    def block(text, count):
        cells.append(count)
        return real_block(text, count)

    def lines(lines, lineno, width, *pattern):
        cells.append(len(lines) * width)
        return real_lines(lines, lineno, width, *pattern)

    monkeypatch.setattr(bundle, "_int_block", block)
    monkeypatch.setattr(bundle, "_check_lines", lines)
    good = write_bundle(tmp_path / "good.csv", _bundle())
    header, body = good.read_bytes().split(b"\r\n", 1)
    width = header.count(b",") + 1
    for eol, signed, ended in ((b"\r\n", False, True), (b"\n", False, False),
                               (b"\r\n", True, True), (b"\n", True, False)):
        text = header + b"\r\n" + body * 40
        text = text.replace(b"\r\n", eol)
        if signed:
            text = header + eol + text.split(eol, 1)[1].replace(b",", b",+")
        path = tmp_path / "long.csv"
        path.write_bytes(text if ended else text[:-len(eol)])
        sidecar_path(path).write_text(sidecar_path(good).read_text())
        cells.clear()
        with pytest.raises(MalformedBundleError, match="^1080 runs, not 3\\^3$"):
            read_bundle(path)
        work = sum(cells[1:])  # less the header's column numbers
        assert 27 * width <= work < 60 * width, (eol, signed, work)
    # lines checked one by one, past the claim and short of one past 2^64
    # runs
    path.write_bytes(header + b"\r\n" + body.replace(b",", b", "))
    for u in (2, 20000):
        sidecar_path(path).write_text(json.dumps(dict(json.loads(
            sidecar_path(good).read_text()), u=u)))
        with pytest.raises(MalformedBundleError, match=f"^27 runs, not 3\\^{u}$"):
            read_bundle(path)


def test_a_canonical_json_over_the_cell_cap_is_refused_in_blocks(
        tmp_path, monkeypatch):
    # 27 runs x 2 + 6 columns under a cap of 100 cells: the block reader
    # read both matrices whole before the battery refused the design; it
    # now refuses once the rows read so far pass the cap
    path = write_bundle(tmp_path / "d.json", _bundle())
    monkeypatch.setattr(verify, "MAX_DESIGN_CELLS", 100)
    monkeypatch.setattr(bundle, "_READ_BYTES", 256)
    rows = []
    real = bundle._json_block

    def block(text, unit, last):
        values = real(text, unit, last)
        rows.append(len(values))
        return values

    monkeypatch.setattr(bundle, "_json_block", block)
    with pytest.raises(TooLargeError, match=(
            "^[0-9]+ runs x 2 \\+ 6 columns is [0-9]+ cells, over the cap "
            "of 100$")):
        read_bundle(path)
    assert 27 + 12 <= sum(rows) < 27 + 27, rows
