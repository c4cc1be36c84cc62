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

Reading: each file is opened once, only a regular file of at most
MAX_FILE_BYTES.  A JSON file in the canonical layout, and each CSV text of
whole lines in the writer's layout, is parsed in blocks straight from its
bytes by one helper; any other JSON file is read by one json.loads, which
words every error, once it has at most 2 * MAX_DESIGN_CELLS commas, and
any other CSV text is checked line by line first.  A line ends at a LF,
less one CR before it.  Text is UTF-8 whatever the locale.
"""

from __future__ import annotations

import json
import os
import re
import stat
import sys
import warnings
from dataclasses import dataclass, fields
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO

import numpy as np

from .designs import LatinHypercube, OrthogonalArray, _narrow_type
from .errors import MalformedBundleError, TooLargeError
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
_CSV_CHARS = re.compile(rb"[ 0-9+,-]*")
_CSV_LINE = re.compile(rb" *[+-]?[0-9]+ *(?:, *[+-]?[0-9]+ *)*")


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


def write_bundle(path, b: DesignBundle) -> Path:
    """Write the bundle as CSV + sidecar to a .csv path, else as canonical
    JSON: the suffix rule read_bundle reads by.  Each text is written
    whole to a temporary file beside its target, and only then do they
    replace the targets, the sidecar before the CSV: a write that fails
    removes its temporary files and leaves the targets as they were."""
    path = Path(path)
    is_csv = path.suffix == ".csv"
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
        return _append_rows(None, np.array(rows, dtype=np.int64))
    except OverflowError:
        raise MalformedBundleError(
            f"{what} has an entry outside int64") from None


def _bundle_from_meta(meta, d1: np.ndarray | None = None,
                      d2: np.ndarray | None = None,
                      csv: BinaryIO | None = None) -> DesignBundle:
    """The bundle a JSON file or a CSV sidecar describes.  A JSON bundle
    carries its matrices; a sidecar may not carry any, and gets them from
    the open ``csv`` once every check of its own values has passed."""
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


def _opened(path: Path, absent: str) -> BinaryIO:
    """``path`` open for binary reads once it is a regular file of at most
    MAX_FILE_BYTES, else refused before any open (opening a FIFO waits for
    a writer); ``absent`` words the refusal when Path.exists() is False."""
    try:
        info = path.stat()
    except (OSError, ValueError):
        _require(path.exists(), absent)  # the errors it reads as no file
        raise
    _require(stat.S_ISREG(info.st_mode), f"{path.name} is not a regular file")
    _require(info.st_size <= MAX_FILE_BYTES, f"{path.name} is {info.st_size} "
             f"bytes, over the cap of {MAX_FILE_BYTES} bytes")
    return path.open("rb")


def _loads_whole(fh: BinaryIO, what: str = "") -> object:
    """json.loads of the whole UTF-8 text of the open binary file ``fh``,
    newlines read as text mode reads them (``what`` names a sidecar in its
    messages), once its commas, counted in blocks of _READ_BYTES, are at
    most 2 * MAX_DESIGN_CELLS (see README "Limits")."""
    fh.seek(0)
    commas = sum(block.count(b",")
                 for block in iter(lambda: fh.read(_READ_BYTES), b""))
    cap = 2 * MAX_DESIGN_CELLS
    _require(commas <= cap, f"{Path(fh.name).name} has {commas} commas, "
             f"over the cap of {cap}")
    fh.seek(0)
    text = fh.read().decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedBundleError(f"{what}not valid JSON: {exc}") from exc
    except ValueError:  # int() refuses a value past its digit limit
        raise MalformedBundleError(
            f"{what}not readable JSON: an integer has more than "
            f"{sys.get_int_max_str_digits()} digits") from None
    except RecursionError:  # json.loads recurses once per nesting level
        raise MalformedBundleError(
            f"{what}not valid JSON: nested too deeply to read") from None


def read_bundle(path) -> DesignBundle:
    """Read a JSON bundle, or a CSV + .meta.json sidecar pair, each file
    opened once, by _opened: a JSON file by _canonical_json, or when that
    declines it by _loads_whole, as a sidecar is; a CSV by _csv_matrices."""
    path = Path(path)
    try:
        with _opened(path, f"no such file: {path}") as fh:
            if path.suffix == ".csv":
                side = sidecar_path(path)
                with _opened(side, f"missing sidecar {side.name}") as sf:
                    meta = _loads_whole(sf, "sidecar ")
                return _bundle_from_meta(meta, csv=fh)
            return _bundle_from_meta(*(_canonical_json(fh)
                                       or [_loads_whole(fh)]))
    except UnicodeDecodeError as exc:
        raise MalformedBundleError(f"not UTF-8 text: {exc}") from exc


def _pieces(fh, end: bytes):
    """The rest of the open binary file ``fh`` in pieces of about
    _READ_BYTES, each ending just after an ``end``, or cut where it has
    passed _PIECE_BYTES without one; the last piece ends where the file
    does, and may be empty."""
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


def _append_rows(matrix: np.ndarray | None, block: np.ndarray,
                 start: int | None = None, reserve: int = 0) -> np.ndarray:
    """``matrix`` with the nonempty int array ``block`` written from row
    ``start`` (after its rows by default), in the narrowest signed type
    that holds both: the first block makes it, with room for ``reserve``
    rows, and one past its end grows it in place, mostly by a realloc."""
    kind = _narrow_type(max(int(block.max()), -1 - int(block.min())))
    if start is None:
        start = 0 if matrix is None else len(matrix)
    end = start + len(block)
    if matrix is None:
        matrix = np.empty((max(end, reserve), block.shape[1]), kind)
    elif kind.itemsize > matrix.dtype.itemsize:
        matrix = matrix.astype(kind)
    if end > len(matrix):
        matrix.resize((end, matrix.shape[1]), refcheck=False)
    matrix[start:end] = block
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
    # the checked path refuses too many commas, and words as not UTF-8 the
    # encoded surrogates that json.loads of bytes lets through
    if tail.count(b",") > 2 * MAX_DESIGN_CELLS or not tail.isascii():
        return None
    try:
        meta = json.loads(tail)
    except (ValueError, RecursionError):
        return None
    if "d1" in meta or "d2" in meta:  # a later key replaces a matrix
        return None
    return meta, *matrices


def _line_texts(fh, bound: int):
    """The open binary file ``fh`` as texts of whole lines from _pieces,
    a line cut across pieces carried into the next and a last line given
    its end; a first line unended past ``bound`` bytes ends the texts."""
    carry = []
    for piece in _pieces(fh, b"\n"):
        cut = piece.rfind(b"\n") + 1
        if cut:  # a text of one piece is that piece, not a copy
            yield b"".join([*carry, piece[:cut]])
            carry, bound = [], MAX_FILE_BYTES  # no file is longer
        if cut < len(piece):
            carry.append(piece[cut:])
        if sum(map(len, carry)) > bound:
            yield b"".join(carry)
            return
    if any(carry):
        yield b"".join([*carry, b"\n"])


def _header_columns(names: bytes) -> tuple[int, int]:
    """(m, k) of ``names`` q1,...,qm,x1,...,xk, m + k > 0, read without a
    Python object per name; (0, 0) for any other bytes."""
    skeleton = names.translate(None, b"0123456789")
    m, k = skeleton.count(b"q"), skeleton.count(b"x")
    if m + k < 1 or skeleton != (b"q," * m + b"x," * k)[:-1]:
        return 0, 0
    values = _int_block(names.translate(None, b"qx"), m + k)
    if values is None or _text_bytes(values) != len(names) - len(skeleton) \
            or (values != np.r_[1:m + 1, 1:k + 1]).any():
        return 0, 0
    return m, k


def _check_lines(lines, lineno: int, width: int, pattern=_CSV_LINE):
    """Refuse the first of ``lines``, numbered from ``lineno``, that has
    not ``width`` fields or does not match ``pattern``."""
    for lineno, line in enumerate(lines, start=lineno):
        got = line.count(b",") + 1 if line else 0
        _require(got == width,
                 f"line {lineno}: expected {width} fields, got {got}")
        _require(pattern.fullmatch(line) is not None,
                 f"line {lineno}: non-integer entry")


def _parsed_lines(lines, width: int) -> np.ndarray | None:
    """The values of checked data ``lines``, None if one is past int64:
    past 10^18 in magnitude, by int() of at most 20 digits past the
    leading zeros (it refuses over 4,300, and 20 are past int64)."""
    text = b",".join(lines).translate(None, b" +")
    values = _int_block(text, len(lines) * width)
    try:
        return np.array([int(b"-" * v.startswith(b"-") + (
            v.lstrip(b"-0")[:20] or b"0")) for v in text.split(b",")],
            dtype=np.int64) if values is None else values
    except OverflowError:
        return None


def _csv_matrices(fh: BinaryIO, s: int, u: int):
    """D1 and D2 of the CSV open in ``fh``, whose sidecar gives s and u, each
    in its narrowest type, in one pass over texts of whole lines: one in
    the writer's layout is parsed as a block, any other checked line by
    line first.  The header is read to _PIECE_BYTES, or to the length of
    one of as many columns as s^u runs hold under MAX_DESIGN_CELLS.  See
    README "File formats"."""
    runs, claim = s ** min(u, 64), f"{s}^{u}"
    most = MAX_DESIGN_CELLS // runs  # columns
    bound = max(_PIECE_BYTES, most * (2 + len(str(most))))
    # a text that is not ASCII must decode as UTF-8, or this raises
    texts = (text for text in _line_texts(fh, bound)
             if text.isascii() or text.decode("utf-8"))
    first = next(texts, b"")
    _require(bool(first), "empty CSV")
    end = first.find(b"\n") + 1
    eol = b"\r\n" if first.endswith(b"\r\n", 0, end) else b"\n"
    over = not 0 < end <= bound  # checked to its last comma read
    m, k = _header_columns(first[:first.rfind(b",", 0, end or None)]
                           if over else first[:end - len(eol)])
    if over and m:
        raise TooLargeError(
            f"header has more than {most} columns, the most a design of "
            f"{claim} runs has under the cap of {MAX_DESIGN_CELLS} cells")
    _require(m > 0 and k > 0 and not over,
             "header must be q1..qm followed by x1..xk")
    width, unit = m + k, b"," * (m + k - 1) + eol
    reserve = runs if os.fstat(fh.fileno()).st_size >= 2 * width * runs else 0
    if reserve:  # a file long enough for s^u rows is held to the cap
        _require_cells(runs, m, k)
    rows, lineno, wide, d1, d2 = 0, 2, False, None, None
    for text in chain([first[end:]], texts):
        # a block's fields may have spaces around them; a CR stands
        # only before a LF; past a value over int64, lines are checked
        skeleton = text.translate(None, _VALUE_BYTES + b" ")
        count, values = len(skeleton) // len(unit), None
        if count and not wide and rows + count <= runs \
                and skeleton == unit * count \
                and (eol == b"\n" or text.count(eol) == count):
            body = text.translate(_LINES_TO_COMMAS, b"\r")[:-1]
            if b" " in body:  # let through beside a comma or a line end
                body = body.replace(b", ", b",").replace(b" ,", b",") \
                    .strip(b" ")
            if b" " not in body:
                values = _int_block(body, count * width)
        if values is None:
            lines = [line[:-1] if line.endswith(b"\r") else line
                     for line in text.split(b"\n")[:-1]]
            count, head = len(lines), lines if wide else lines[:runs - rows]
            _check_lines(head, lineno, width)
            if head and not wide:
                values = _parsed_lines(head, width)
                wide = values is None
            # past the claim, one line is checked and the rest counted
            past = lines[len(head):]
            _check_lines(past if wide else past[:1], lineno + len(head),
                         width, _CSV_LINE if wide else _CSV_CHARS)
            if past and not wide:
                total = rows + count + sum(t.count(b"\n") for t in texts)
                raise MalformedBundleError(f"{total} runs, not {claim}")
        lineno += count
        if values is not None:
            values.shape = (-1, width)
            d1 = _append_rows(d1, values[:, :m], rows, reserve)
            d2 = _append_rows(d2, values[:, m:], rows, reserve)
            rows += len(values)
    _require(not wide, "CSV data has an entry outside int64")
    _require(rows > 0, "CSV has no data rows")
    return d1[:rows], d2[:rows]
