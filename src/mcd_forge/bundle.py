"""Design file formats.

JSON (canonical): one object, sorted keys, two-space indent, int matrices,
no floats, streamed in blocks of rows: write -> read -> write is byte-identical.

CSV: header q1..qm,x1..xk, one row per run, plus a .meta.json sidecar next
to the file carrying everything except the matrices (same canonical JSON
text).  A .csv path is CSV both ways, any other path JSON.  Its fields are
ASCII integers, [+-]?[0-9]+, with optional spaces around them.
"""

from __future__ import annotations

import json
import re
import warnings
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .construct import MarginallyCoupledDesign, independent_prefix_bound
from .designs import LatinHypercube, OrthogonalArray
from .errors import MalformedBundleError

FORMAT_VERSION = 1

#: the methods ``construct`` writes
_METHODS = ("theorem1", "theorem2", "anti-mirror", "general")

#: matrix cells a write turns into text at a time
_BLOCK_CELLS = 1 << 12

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
    p, prov = mcd.params, mcd.provenance
    return DesignBundle(
        method=prov.method,
        s=p.s, u=p.u, u1=p.u1, v=p.v, item=p.item, seed=p.seed,
        d1=mcd.d1.data.copy(), d2=mcd.d2.data.copy(),
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
    """The rows of the int matrices ``parts`` side by side, as text joined
    by ``sep``: a list per block of about _BLOCK_CELLS cells, made with one
    str() per distinct value in the block."""
    step = max(1, _BLOCK_CELLS // max(1, sum(p.shape[1] for p in parts)))
    for lo in range(0, len(parts[0]), step):
        block = np.hstack([p[lo:lo + step] for p in parts])
        values, codes = np.unique(block, return_inverse=True)
        texts = np.array(list(map(str, values.tolist())), dtype=object)
        yield list(map(sep.join, texts[codes.reshape(block.shape)].tolist()))


def _json_pieces(obj, level: int = 0):
    """json.dumps(obj, sort_keys=True, indent=2), piece by piece, for dicts,
    lists, tuples, 2-D int arrays (blocks of rows), ints, strings, None."""
    if isinstance(obj, np.ndarray) and (obj.ndim != 2 or not obj.size):
        obj = obj.tolist()
    pad = "\n" + "  " * (level + 1)
    if not isinstance(obj, (dict, list, tuple, np.ndarray)) or not len(obj):
        yield json.dumps(int(obj) if isinstance(obj, np.integer) else obj)
    elif isinstance(obj, dict):
        yield "{"
        for i, key in enumerate(sorted(obj)):
            yield ("," if i else "") + pad + json.dumps(key) + ": "
            yield from _json_pieces(obj[key], level + 1)
        yield pad[:-2] + "}"
    elif set(map(type, obj)) <= {int}:  # a list of ints is one join
        yield "[" + pad + ("," + pad).join(map(str, obj)) + pad[:-2] + "]"
    elif isinstance(obj, np.ndarray):
        inner = pad + "  "
        yield "["
        for i, rows in enumerate(_row_texts((obj,), "," + inner)):
            yield ("," if i else "") + pad + ("," + pad).join(
                "[" + inner + row + pad + "]" for row in rows)
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
    other format raises before anything is written."""
    path = Path(path)
    is_csv = path.suffix == ".csv"
    if fmt is not None and fmt != ("csv" if is_csv else "json"):
        raise MalformedBundleError(
            f"format {fmt!r} does not match {path.name}: a .csv path is "
            "written as CSV, any other path as JSON")
    if is_csv:  # the csv module's default dialect: \r\n, nothing quoted
        with path.open("w", newline="") as fh:
            fh.write(",".join([f"q{i + 1}" for i in range(b.m)]
                              + [f"x{j + 1}" for j in range(b.k)]) + "\r\n")
            for rows in _row_texts((b.d1, b.d2), ","):
                fh.write("\r\n".join(rows) + "\r\n")
    json_path = sidecar_path(path) if is_csv else path
    try:  # the text is streamed; a value json cannot encode leaves no file
        with json_path.open("w") as fh:
            fh.writelines(_json_pieces(_meta_dict(b, matrices=not is_csv)))
            fh.write("\n")
    except (TypeError, ValueError):
        json_path.unlink()
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
        return np.array(rows, dtype=np.int64)
    except OverflowError:
        raise MalformedBundleError(
            f"{what} has an entry outside int64") from None


def _bundle_from_meta(meta, d1: np.ndarray | None = None,
                      d2: np.ndarray | None = None) -> DesignBundle:
    """The bundle a JSON file or a CSV sidecar describes.  A JSON bundle
    carries its matrices; a sidecar gets them from its CSV and may not
    carry any."""
    _require(isinstance(meta, dict), "top level must be an object")
    unknown = set(meta) - (_SCHEMA_KEYS if d1 is None
                           else _SCHEMA_KEYS - _MATRIX_KEYS)
    _require(not unknown, f"unknown keys {sorted(unknown)}")
    if d1 is None:
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


def read_bundle(path) -> DesignBundle:
    """Read a JSON bundle, or a CSV + .meta.json sidecar pair."""
    path = Path(path)
    if not path.exists():
        raise MalformedBundleError(f"no such file: {path}")
    try:
        if path.suffix == ".csv":
            return _read_csv_bundle(path)
        obj = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise MalformedBundleError(f"not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise MalformedBundleError(f"not UTF-8 text: {exc}") from exc
    return _bundle_from_meta(obj)


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
    try:
        meta = json.loads(side.read_text())
    except json.JSONDecodeError as exc:
        raise MalformedBundleError(f"sidecar not valid JSON: {exc}") from exc
    with path.open() as fh:
        header, start = fh.readline(), fh.tell()
        _require(bool(header), "empty CSV")
        header = header.rstrip("\n").split(",")
        m = sum(1 for h in header if h.startswith("q"))
        k = sum(1 for h in header if h.startswith("x"))
        _require(m > 0 and k > 0 and header == [f"q{i + 1}" for i in range(m)]
                 + [f"x{j + 1}" for j in range(k)],
                 "header must be q1..qm followed by x1..xk")
        try:  # numpy < 2 parses an int64 overflow as a float, with a warning
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                data = np.loadtxt(_csv_lines(fh, m + k), dtype=np.int64,
                                  delimiter=",", ndmin=2)
        except (MalformedBundleError, UnicodeDecodeError):
            raise
        except (ValueError, DeprecationWarning):
            fh.seek(start)  # a misshapen field, like "1-2", fails this pass
            all(_csv_lines(fh, m + k, _CSV_LINE))
            raise MalformedBundleError(
                "CSV data has an entry outside int64") from None
    return _bundle_from_meta(meta, data[:, :m], data[:, m:])
