"""Design file formats.

JSON (canonical): one object, sorted keys, two-space indent, int matrices,
no floats, streamed in blocks of rows: write -> read -> write is byte-identical.
The provenance's int vectors take the matrices' path, as int64 arrays.

CSV: header q1..qm,x1..xk, one row per run, plus a .meta.json sidecar next
to the file carrying everything except the matrices (same canonical JSON
text).  A .csv path is CSV both ways, any other path JSON.  Its fields are
ASCII integers, [+-]?[0-9]+, with optional spaces around them.

Writing: each text goes whole to a temporary file beside its target, and
the temporary files replace the targets only once all are written, so a
write that fails leaves the files that were there as they were.

Reading: a file in the layout the writers write has its matrices parsed in
blocks of rows straight from its bytes, by one helper for both formats;
the block reader declines anything else, and the checked path (json.loads
of the whole JSON text, numpy.loadtxt for CSV) reads it and words every
error.  Text is UTF-8 whatever the locale.  No file over MAX_FILE_BYTES
is opened, and no JSON text with more than 2 * MAX_DESIGN_CELLS commas
is parsed whole.
"""

from __future__ import annotations

import json
import os
import re
import warnings
from dataclasses import dataclass, fields
from itertools import chain, islice
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .designs import LatinHypercube, OrthogonalArray, _narrow_type
from .errors import MalformedBundleError
from .nstar import independent_prefix_bound
from .verify import MAX_DESIGN_CELLS, _require_cells

if TYPE_CHECKING:
    from .construct import MarginallyCoupledDesign

FORMAT_VERSION = 1

#: the methods ``construct`` writes
_METHODS = ("theorem1", "theorem2", "anti-mirror", "general")

#: matrix cells a write turns into text at a time
_BLOCK_CELLS = 1 << 12

#: file text a read takes in at a time
_READ_BYTES = 1 << 16

#: the bytes a matrix value is written with, and the bound on a value's
#: magnitude under which the block parser takes it
_VALUE_BYTES = b"-0123456789"
_FAST_BOUND = 10 ** 18

#: a CSV block's line ends, each made the comma between two values, and
#: a JSON block's, each made a space around a value
_LINES_TO_COMMAS = bytes.maketrans(b"\n", b",")
_LINES_TO_SPACES = bytes.maketrans(b"\n", b" ")

#: the longest line a matrix cell takes in canonical JSON: six spaces of
#: indent, the most negative int64, a comma and a newline
_WIDEST_CELL = len("      " + str(np.iinfo(np.int64).min) + ",\n")

#: the most bytes a JSON file, CSV file or sidecar may hold to be read:
#: the widest cell text for each cell a construction accepts, twice over,
#: which leaves room for the row brackets and the provenance
MAX_FILE_BYTES = 2 * _WIDEST_CELL * MAX_DESIGN_CELLS

#: the most text a block reader gathers while it looks for a row end.  A
#: design construct builds has pairwise non-proportional z's and x's, so
#: m + k < 2n columns, and n(m + k) <= MAX_DESIGN_CELLS cells: fewer than
#: 3,163 cells a row, at most 88.6 KB of canonical text.  A file with no
#: row end, such as compact JSON, is declined after this much
_PIECE_BYTES = 1 << 20

#: a CSV data line's characters, and (seven times slower) its whole syntax
_CSV_CHARS = re.compile(r"[ 0-9+,-]*")
_CSV_LINE = re.compile(r" *[+-]?[0-9]+ *(?:, *[+-]?[0-9]+ *)*")


@dataclass(eq=False)
class DesignBundle:
    """In-memory mirror of the file schema."""

    method: str
    s: int
    u: int
    u1: int | None
    v: int | None
    item: str | None
    seed: int | str
    d1: np.ndarray
    d2: np.ndarray
    provenance: dict
    format_version: int = FORMAT_VERSION

    @property
    def m(self) -> int:
        return self.d1.shape[1]

    @property
    def k(self) -> int:
        return self.d2.shape[1]

    def design_objects(self) -> tuple[OrthogonalArray, LatinHypercube]:
        return (OrthogonalArray(self.d1, (self.s,) * self.m),
                LatinHypercube(self.d2))


def bundle_from_design(mcd: MarginallyCoupledDesign) -> DesignBundle:
    """The bundle of a built design, sharing its D1 and D2 arrays."""
    p, prov = mcd.params, mcd.provenance
    return DesignBundle(
        method=prov.method,
        s=p.s, u=p.u, u1=p.u1, v=p.v, item=p.item, seed=p.seed,
        d1=mcd.d1.data, d2=mcd.d2.data,
        provenance={
            "z_vectors": [list(z) for z in prov.z_vectors],
            "x_vectors": [list(x) for x in prov.x_vectors],
            "generator_columns": [[list(c) for c in cols]
                                  for cols in prov.generator_columns],
        })


_SCHEMA_KEYS = {f.name for f in fields(DesignBundle)}
_MATRIX_KEYS = {f.name for f in fields(DesignBundle) if f.type == "np.ndarray"}


def _meta_dict(b: DesignBundle, matrices: bool = False) -> dict:
    """The schema's values, ints through int(); the matrices if asked."""
    return {f.name: int(x) if (x := getattr(b, f.name)) is not None
            and f.type in ("int", "int | None") else x
            for f in fields(b) if matrices or f.name not in _MATRIX_KEYS}


def _row_texts(parts, sep: str):
    """The rows of the int matrices ``parts`` side by side (a 3-D part's
    slice by slice, whole slices to a block), as text joined by ``sep``: a
    list per block of about _BLOCK_CELLS cells.  Each value's text comes
    from one table of str() over the parts' range of values when that range
    is no wider than their cell count, else from one str() per distinct
    value in each block."""
    filled = [p for p in parts if p.size]
    lo = min((int(p.min()) for p in filled), default=0)
    hi = max((int(p.max()) for p in filled), default=0)
    table = (np.array(list(map(str, range(lo, hi + 1))), dtype=object)
             if hi - lo < sum(p.size for p in parts) else None)
    step = max(1, _BLOCK_CELLS // max(1, sum(p[:1].size for p in parts)))
    for start in range(0, len(parts[0]), step):
        block = np.hstack([p[start:start + step] for p in parts])
        if table is not None:
            texts = table[np.subtract(block, lo, dtype=np.int64)]
        else:
            values, codes = np.unique(block, return_inverse=True)
            texts = np.array(list(map(str, values.tolist())),
                             dtype=object)[codes.reshape(block.shape)]
        yield list(map(sep.join, texts.reshape(-1, block.shape[-1]).tolist()))


def _int_tree(obj):
    """``obj`` as an int64 array when it is a rectangular list or tuple of
    such sequences, two or more deep, none empty, with ints in int64 at the
    bottom, as the provenance's vectors are; else ``obj``."""
    level, shape = [obj], []
    while (kinds := set(map(type, level))) <= {list, tuple} and all(level) \
            and len(sizes := set(map(len, level))) == 1:
        level, shape = list(chain.from_iterable(level)), [*shape, *sizes]
    if len(shape) < 2 or kinds != {int}:
        return obj
    try:
        return np.array(level, dtype=np.int64).reshape(shape)
    except OverflowError:  # a value past int64
        return obj


def _json_pieces(obj, level: int = 0):
    """json.dumps(obj, sort_keys=True, indent=2), piece by piece, for dicts,
    lists, tuples, ints, strings, None and int arrays, 2-D and 3-D ones (and
    the lists _int_tree turns into them) in blocks of rows."""
    if isinstance(obj, np.ndarray) and (obj.ndim != 2 or not obj.size):
        obj = obj.tolist()
    obj = _int_tree(obj)
    pad = "\n" + "  " * (level + 1)
    if not isinstance(obj, (dict, list, tuple, np.ndarray)) or not len(obj):
        yield json.dumps(int(obj) if isinstance(obj, np.integer) else obj)
    elif isinstance(obj, dict):
        yield "{"
        for i, key in enumerate(sorted(obj)):
            yield ("," if i else "") + pad + json.dumps(key) + ": "
            yield from _json_pieces(obj[key], level + 1)
        yield pad[:-2] + "}"
    elif isinstance(obj, np.ndarray) and obj.ndim < 4:
        outer = pad + "  " * (obj.ndim - 2)  # a row's brackets
        inner, per = outer + "  ", len(obj[0])
        yield "["
        for i, rows in enumerate(_row_texts((obj,), "," + inner)):
            rows = ["[" + inner + row + outer + "]" for row in rows]
            if obj.ndim == 3:  # each slice's rows
                rows = ["[" + outer + ("," + outer).join(rows[j:j + per])
                        + pad + "]" for j in range(0, len(rows), per)]
            yield ("," if i else "") + pad + ("," + pad).join(rows)
        yield pad[:-2] + "]"
    else:
        yield "["
        for i, item in enumerate(obj):
            yield ("," if i else "") + pad
            yield from _json_pieces(item, level + 1)
        yield pad[:-2] + "]"


def sidecar_path(path: Path) -> Path:
    return path.with_suffix(".meta.json")


def write_bundle(path, b: DesignBundle, fmt: str | None = None) -> Path:
    """Write the bundle as CSV + sidecar to a .csv path, else as canonical
    JSON: the suffix rule read_bundle reads by.  A ``fmt`` that names the
    other format raises before anything is written.  Each text is written
    whole to a temporary file beside its target, and only then do they
    replace the targets, the sidecar before the CSV: a write that fails
    removes its temporary files and leaves the targets as they were."""
    path = Path(path)
    is_csv = path.suffix == ".csv"
    if fmt is not None and fmt != ("csv" if is_csv else "json"):
        raise MalformedBundleError(
            f"format {fmt!r} does not match {path.name}: a .csv path is "
            "written as CSV, any other path as JSON")
    texts = {sidecar_path(path) if is_csv else path: chain(
        _json_pieces(_meta_dict(b, matrices=not is_csv)), ["\n"])}
    if is_csv:  # the csv module's default dialect: \r\n, nothing quoted
        names = [f"q{i + 1}" for i in range(b.m)] + [
            f"x{j + 1}" for j in range(b.k)]
        texts[path] = chain([",".join(names) + "\r\n"], (
            "\r\n".join(rows) + "\r\n"
            for rows in _row_texts((b.d1, b.d2), ",")))
    temps = {}
    try:
        for target, pieces in texts.items():
            temp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
            if target.is_symlink() or target.exists() and not (
                    target.is_file() or target.is_dir()):
                temp = target  # a link, a device or a pipe is written through
            with temp.open("w", encoding="utf-8", newline=""
                           if target.suffix == ".csv" else None) as fh:
                if temp is not target:
                    temps[target] = temp
                fh.writelines(pieces)
        for target, temp in temps.items():  # the sidecar first
            os.replace(temp, target)
    except BaseException as exc:
        for temp in temps.values():
            temp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename is not None:
            # the error names the target, not its temporary file
            raise OSError(exc.errno, exc.strerror, str(target)) from None
        raise
    return path


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise MalformedBundleError(msg)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _as_int_matrix(rows, what: str) -> np.ndarray:
    _require(isinstance(rows, list) and rows, f"{what} must be a nonempty list")
    _require(all(isinstance(r, list) for r in rows),
             f"{what} must be a list of rows")
    width = len(rows[0])
    _require(width > 0 and all(len(r) == width for r in rows),
             f"{what} rows must be nonempty and equal length")
    _require(all(set(map(type, r)) <= {int} for r in rows),
             f"{what} entries must be integers")
    try:
        return _narrowed(np.array(rows, dtype=np.int64))
    except OverflowError:
        raise MalformedBundleError(
            f"{what} has an entry outside int64") from None


def _bundle_from_meta(meta, d1: np.ndarray | None = None,
                      d2: np.ndarray | None = None,
                      csv: Path | None = None) -> DesignBundle:
    """The bundle a JSON file or a CSV sidecar describes.  A JSON bundle
    carries its matrices; a sidecar may not carry any, and gets them from
    its ``csv`` once every check of its own values has passed."""
    _require(isinstance(meta, dict), "top level must be an object")
    unknown = set(meta) - (_SCHEMA_KEYS if d1 is None and csv is None
                           else _SCHEMA_KEYS - _MATRIX_KEYS)
    _require(not unknown, f"unknown keys {sorted(unknown)}")
    if d1 is None and csv is None:
        _require("d1" in meta and "d2" in meta, "missing d1/d2 matrices")
        d1 = _as_int_matrix(meta["d1"], "d1")
        d2 = _as_int_matrix(meta["d2"], "d2")
    for key in ("format_version", "method", "s", "seed", "u"):
        _require(key in meta, f"missing key {key!r}")
    _require(_is_int(meta["format_version"])
             and meta["format_version"] == FORMAT_VERSION,
             f"unsupported format_version {meta['format_version']!r}")
    _require(_is_int(meta["s"]) and meta["s"] >= 2, "bad s")
    _require(_is_int(meta["u"]) and meta["u"] >= 1, "bad u")
    for key in ("u1", "v"):
        _require(meta.get(key) is None or _is_int(meta[key]), f"bad {key}")
    method, item, v = meta["method"], meta.get("item"), meta.get("v")
    _require(method in _METHODS, f"unknown method {method!r}")
    _require(item in ("i", "ii", None), f"unknown item {item!r}")
    _require(isinstance(meta.get("provenance", {}), dict),
             "provenance must be an object")
    s, u, u1, seed = meta["s"], meta["u"], meta.get("u1"), meta["seed"]
    _require(u1 is None or 1 <= u1 <= u, f"u1 = {u1} outside 1..u = {u}")
    _require(_is_int(seed) and seed >= 0 or seed == "identity",
             "seed must be a non-negative integer or \"identity\"")
    if csv is not None:
        d1, d2 = _csv_matrices(csv, s, u)
    n = d1.shape[0]
    _require(n == d2.shape[0], f"D1 has {n} rows but D2 has {d2.shape[0]}")
    # s^u >= 2^u > n from u = n.bit_length() on: never a huge power
    _require(u < n.bit_length() and s ** u == n, f"{n} runs, not {s}^{u}")
    if method == "theorem2":  # s <= n, so the bound is quick
        bound = independent_prefix_bound(s, u1) if u1 else 0
        _require(v is not None and 1 <= v <= bound,
                 f"theorem2 v = {v} outside 1..{bound}")
    return DesignBundle(
        method=method, s=s, u=u, u1=u1, v=v, item=item, seed=seed,
        d1=d1, d2=d2, provenance=meta.get("provenance", {}))


def _require_size(path: Path) -> None:
    size = path.stat().st_size
    _require(size <= MAX_FILE_BYTES, f"{path.name} is {size} bytes, over "
             f"the cap of {MAX_FILE_BYTES} bytes")


def _loads_whole(path: Path, what: str = "") -> object:
    """json.loads of the whole UTF-8 text at ``path`` (``what`` names a
    sidecar in its messages), once its commas, counted in blocks of
    _READ_BYTES, are at most 2 * MAX_DESIGN_CELLS.  json.loads makes a
    Python object per value, 14-18 bytes of RSS per byte of a compact
    file.  Each comma sits between two values; a design at the cell cap
    has MAX_DESIGN_CELLS values, and the second half of the cap leaves
    room for the row brackets and the provenance."""
    with path.open("rb") as fh:
        commas = sum(block.count(b",")
                     for block in iter(lambda: fh.read(_READ_BYTES), b""))
    cap = 2 * MAX_DESIGN_CELLS
    _require(commas <= cap,
             f"{path.name} has {commas} commas, over the cap of {cap}")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise MalformedBundleError(f"{what}not valid JSON: {exc}") from exc
    except RecursionError:  # json.loads recurses once per nesting level
        raise MalformedBundleError(
            f"{what}not valid JSON: nested too deeply to read") from None


def read_bundle(path) -> DesignBundle:
    """Read a JSON bundle, or a CSV + .meta.json sidecar pair.  A file in
    the layout write_bundle writes has its matrices parsed in blocks of
    rows straight from its bytes; any other file, and every error, goes
    through the checked path: one json.loads of a whole JSON file, or the
    line-by-line CSV reader.  A JSON text to be parsed whole, a sidecar
    included, is refused first when it holds more than 2 *
    MAX_DESIGN_CELLS commas."""
    path = Path(path)
    if not path.exists():
        raise MalformedBundleError(f"no such file: {path}")
    _require_size(path)
    try:
        if path.suffix == ".csv":
            return _read_csv_bundle(path)
        with path.open("rb") as fh:
            canonical = _canonical_json(fh)
        if canonical is not None:
            return _bundle_from_meta(*canonical)
        return _bundle_from_meta(_loads_whole(path))
    except UnicodeDecodeError as exc:
        raise MalformedBundleError(f"not UTF-8 text: {exc}") from exc


def _pieces(fh, end: bytes):
    """The rest of the open binary file ``fh`` in pieces of about
    _READ_BYTES, each ending just after an ``end``, or cut where it has
    passed _PIECE_BYTES without one; the last piece ends where the file
    does, and may be empty.  A block reader declines a cut piece."""
    parts, size = [], 0
    while more := fh.read(_READ_BYTES):
        cut = more.rfind(end) + len(end)
        if cut < len(end):
            if size <= _PIECE_BYTES:
                parts.append(more)
                size += len(more)
                continue
            cut = len(more)
        piece, parts = b"".join([*parts, more[:cut]]), [more[cut:]]
        size = len(parts[0])
        del more  # one copy of the text while the piece is read
        yield piece
    yield b"".join(parts)


def _narrowed(values: np.ndarray) -> np.ndarray:
    """A copy of the nonempty int array ``values`` in the narrowest signed
    type that holds its entries."""
    return values.astype(_narrow_type(max(int(values.max()),
                                          -1 - int(values.min()))))


def _append_rows(matrix: np.ndarray | None,
                 block: np.ndarray) -> np.ndarray:
    """``matrix`` with the rows of the nonempty int array ``block`` after
    its own, in the narrowest signed type that holds both: the first block,
    narrowed, becomes the matrix, which then grows in place, and a block
    that does not fit the matrix's type widens the matrix first.  realloc
    of a large block mostly moves no bytes, so the rows read so far are
    held once, where a concatenation holds them twice."""
    block = _narrowed(block)
    if matrix is None:
        return block
    if block.dtype.itemsize > matrix.dtype.itemsize:
        matrix = matrix.astype(block.dtype)
    start = len(matrix)
    matrix.resize((start + len(block), matrix.shape[1]), refcheck=False)
    matrix[start:] = block
    return matrix


def _int_block(text: bytes, count: int) -> np.ndarray | None:
    """The ``count`` integers of ``text``, which must be values
    -?[0-9]+ joined by commas, each below 10^18 in magnitude, with spaces
    around a value but none in it; None for any other text.  numpy's text
    parser reads a lone "-" as 0, skips spaces after a sign and clamps a
    value past int64, so the signs are checked first and the magnitude
    bound, which every clamp reaches, after."""
    if b"-" in text and (
            text.count(b"-") != text.count(b",-") + text.count(b" -")
            + text.startswith(b"-") or b"- " in text or b"-," in text
            or text.endswith(b"-")):
        return None
    try:  # numpy < 2 warns on a short read where numpy 2 raises
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            values = np.fromstring(text, dtype=np.int64, sep=",")
    except (ValueError, DeprecationWarning):
        return None
    if values.size != count or not (
            -_FAST_BOUND < values.min() and values.max() < _FAST_BOUND):
        return None
    return values


def _text_bytes(values: np.ndarray) -> int:
    """sum(len(str(v)) for v in values), for values below 10^18 in
    magnitude: one count per digit of the widest value."""
    size = np.abs(values)
    total = values.size + int(np.count_nonzero(values < 0))
    power, top = 10, int(size.max())
    while power <= top:
        total += int(np.count_nonzero(size >= power))
        power *= 10
    return total


def _json_block(rows: bytes, unit: bytes, last: bool) -> np.ndarray | None:
    """The rows of ``rows``, the canonical text of whole matrix rows, each
    followed by a comma unless it is the matrix's ``last``, where ``unit``
    is one row's text with its values left out and its comma kept; None
    for any other text, a value written as json.dumps would not (a leading
    zero, -0) included.  A value line is six spaces, a value, then a comma
    or a line end: only the brackets are deleted before the parse, and
    line ends become spaces, so that a value byte anywhere else (in an
    indent, after a bracket or a comma) stands apart from its value, and
    a value split by a space stays split, which the parser refuses."""
    skeleton = rows.translate(None, _VALUE_BYTES)
    count, extra = divmod(len(skeleton) + last, len(unit))
    if extra or not count or skeleton != (unit * count)[:len(skeleton)]:
        return None
    value_bytes = len(rows) - len(skeleton)
    del skeleton
    text = rows.translate(_LINES_TO_SPACES, b"[]")
    if not last:
        text = text[:-1]
    values = _int_block(text, count * unit.count(b","))
    if values is None or _text_bytes(values) != value_bytes:
        return None
    values.shape = (count, -1)
    return values


def _json_matrix(pieces, buf: bytes, at: int, opening: bytes, before: int):
    """The matrix whose canonical text, from ``opening`` to its closing
    bracket, starts at ``buf[at]`` and goes on in ``pieces``, then the
    piece it ends in and the place of the comma after it; None for any
    other text.  Refused by the size gate once its rows read so far, times
    its width and the ``before`` columns of D1 when it is D2, pass the
    cell cap."""
    if not buf.startswith(opening, at):
        return None
    at += len(opening)
    width = buf.count(b",", at, buf.find(b"\n    ]", at)) + 1
    unit = b"\n    [\n      " + b",\n      " * (width - 1) + b"\n    ],"
    matrix = None
    while True:
        quote = buf.find(b'"', at)  # a matrix has none: the next key's
        if quote < 0:  # the matrix goes on in the next piece
            block = (_json_block(buf[at:], unit, False)
                     if buf.endswith(b"\n    ],") else None)
        elif buf.endswith(b"\n  ],\n  ", at, quote):
            block = _json_block(buf[at:quote - 8], unit, True)
        else:
            return None
        if block is None:
            return None
        matrix = _append_rows(matrix, block)
        # D1's rows, or D2's beside D1's columns, through the one size gate
        _require_cells(len(matrix), before or width, before and width)
        if quote >= 0:
            return matrix, buf, quote - 4
        buf, at = next(pieces), 0


def _canonical_json(fh):
    """(metadata, d1, d2) of a JSON file whose text starts with d1 and d2
    in canonical layout, each read in blocks of rows, followed by metadata
    that json.loads alone reads; None for any other file."""
    pieces = _pieces(fh, b"\n    ],")
    buf, at, matrices = next(pieces), 0, []
    for opening in (b'{\n  "d1": [', b',\n  "d2": ['):
        read = _json_matrix(pieces, buf, at, opening,
                            sum(x.shape[1] for x in matrices))
        if read is None:
            return None
        matrix, buf, at = read
        matrices.append(matrix)
    if not buf.startswith(b',\n  "format_version": ', at):
        return None
    tail = b"".join([b"{", buf[at + 1:], *pieces])
    del buf, read
    if tail.count(b",") > 2 * MAX_DESIGN_CELLS:  # the checked path refuses it
        return None
    if not tail.isascii():  # json.loads of bytes lets encoded surrogates
        # through; the whole-file path words them as not UTF-8
        return None
    try:
        meta = json.loads(tail)
    except (ValueError, RecursionError):
        return None
    if "d1" in meta or "d2" in meta:  # a later key replaces a matrix
        return None
    return meta, *matrices


def _csv_lines(fh, width: int, pattern: re.Pattern = _CSV_CHARS):
    """The data lines of an open CSV after its header, each checked for
    ``width`` fields that match ``pattern`` on the way to the parser."""
    lineno = 1
    for lineno, line in enumerate(fh, start=2):
        text = line.rstrip("\n")
        got = text.count(",") + 1 if text else 0
        _require(got == width,
                 f"line {lineno}: expected {width} fields, got {got}")
        _require(pattern.fullmatch(text) is not None,
                 f"line {lineno}: non-integer entry")
        yield line
    _require(lineno > 1, "CSV has no data rows")


def _read_csv_bundle(path: Path) -> DesignBundle:
    side = sidecar_path(path)
    _require(side.exists(), f"missing sidecar {side.name}")
    _require_size(side)
    return _bundle_from_meta(_loads_whole(side, "sidecar "), csv=path)


def _csv_header(fh) -> tuple[int, int]:
    """(m, k) of the header q1..qm,x1..xk an open text CSV starts with."""
    header = fh.readline()
    _require(bool(header), "empty CSV")
    header = header.rstrip("\n").split(",")
    m = sum(1 for h in header if h.startswith("q"))
    k = sum(1 for h in header if h.startswith("x"))
    _require(m > 0 and k > 0 and header == [f"q{i + 1}" for i in range(m)]
             + [f"x{j + 1}" for j in range(k)],
             "header must be q1..qm followed by x1..xk")
    return m, k


def _csv_matrices(path: Path, s: int, u: int):
    """D1 and D2 of the CSV at ``path``, whose sidecar gives s and u: a
    design of s^u runs and the header's columns over MAX_DESIGN_CELLS is
    refused before any data line is parsed.  A data line of m + k fields
    takes at least 2(m + k) bytes, so a file too short for s^u of them,
    which s^u past 2^64 always is, is read, and its rows name the
    mismatch; past s^u data lines, its lines are counted, not parsed."""
    with path.open(encoding="utf-8") as fh:
        m, k = _csv_header(fh)
    runs = s ** min(u, 64)
    if path.stat().st_size >= 2 * (m + k) * runs:
        _require_cells(runs, m, k)
    runs = min(runs, MAX_FILE_BYTES)  # no readable file has more lines
    data, m = _canonical_csv(path, runs) or _checked_csv(path, runs,
                                                         f"{s}^{u}")
    return data[:, :m], data[:, m:]


def _past_claim(path: Path, claim: str) -> None:
    """Refuse the CSV at ``path``, whose data lines pass its sidecar's s^u,
    ``claim``, with the message read_bundle gives a file of too few runs:
    its lines are counted in text of _READ_BYTES at a time, as the line
    reader splits them, and not parsed."""
    with path.open(encoding="utf-8") as fh:
        lines, end = 0, ""
        for text in iter(lambda: fh.read(_READ_BYTES), ""):
            lines, end = lines + text.count("\n"), text[-1]
    runs = lines - 1 + (end != "\n")  # less the header, plus an unended line
    raise MalformedBundleError(f"{runs} runs, not {claim}")


def _canonical_csv(path: Path, runs: int | None = None):
    """(data, m) of a CSV with header q1..qm,x1..xk and data fields
    -?[0-9]+, every line ended as the header is (\\r\\n or \\n), read in
    blocks of lines; None for any other file, and for one of more than
    ``runs`` data lines, when given, once a block passes them."""
    with path.open("rb") as fh:
        header = fh.readline()
        eol = header[-2:] if header.endswith(b"\r\n") else b"\n"
        names = header[:-len(eol)].split(b",")
        m = sum(name.startswith(b"q") for name in names)
        if not 0 < m < len(names) or header != b",".join(
                [b"q%d" % i for i in range(1, m + 1)]
                + [b"x%d" % j for j in range(1, len(names) - m + 1)]) + eol:
            return None
        line, data = b"," * (len(names) - 1) + eol, None
        for piece in _pieces(fh, b"\n"):
            if not piece:  # the file ends with a line end
                break
            skeleton = piece.translate(None, _VALUE_BYTES)
            count, extra = divmod(len(skeleton), len(line))
            # a piece without a line end, cut or at the end of the file,
            # has no line in its skeleton; a CR may stand only before a LF
            if extra or not count or skeleton != line * count or (
                    eol == b"\r\n" and piece.count(eol) != count):
                return None
            values = _int_block(piece[:-len(eol)].translate(
                _LINES_TO_COMMAS, b"\r"), count * len(names))
            if values is None:
                return None
            values.shape = (count, -1)
            data = _append_rows(data, values)
            if runs is not None and len(data) > runs:
                return None
    return None if data is None else (data, m)


def _checked_csv(path: Path, runs: int, claim: str) -> tuple[np.ndarray, int]:
    """(data, m) of a CSV through numpy.loadtxt, in chunks of lines of
    about _READ_BYTES cells, each line checked on the way and each chunk
    narrowed as it is appended; raises on the first fault, a checked line
    past ``runs`` data lines included, whose run count is refused as not
    ``claim``."""
    with path.open(encoding="utf-8") as fh:
        m, k = _csv_header(fh)
        start = fh.tell()
        try:  # numpy < 2 parses an int64 overflow as a float, with a warning
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                # each chunk is pulled line by line as loadtxt parses it,
                # so that the first faulty line is the one named
                lines, data = _csv_lines(fh, m + k), None
                claimed = islice(lines, runs)
                while (line := next(claimed, None)) is not None:
                    data = _append_rows(data, np.loadtxt(chain(
                        [line], islice(claimed, _READ_BYTES // (m + k))),
                        dtype=np.int64, delimiter=",", ndmin=2))
                if next(lines, None) is not None:
                    _past_claim(path, claim)
        except (MalformedBundleError, UnicodeDecodeError):
            raise
        except (ValueError, DeprecationWarning):
            fh.seek(start)  # a misshapen field, like "1-2", fails this pass
            all(_csv_lines(fh, m + k, _CSV_LINE))
            raise MalformedBundleError(
                "CSV data has an entry outside int64") from None
    return data, m
