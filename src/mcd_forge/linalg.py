"""Vectors, bases, and linear arrays over GF(s).

A vector is a sequence of element indices and the field travels
alongside as an explicit argument.  Each entry point takes a vector set
as any sequence of int sequences or a (count, u) int array and checks it
once, through ``_field_rows``; the vectors it returns are plain tuples.
Inside, and through the constructions, a vector set stays one (count, u)
int64 array and all arithmetic is gathers from the field's add, mul, neg
and inv tables, for prime and extension fields alike.

Every enumeration downstream runs the s^u coefficient vectors lambda_r
in base-s order: entry i of lambda_r is floor(r / s^(u-1-i)) mod s, so
the first coordinate is the most significant digit and the last varies
fastest.  ``enumerate_span(basis)`` runs the coefficients of the basis
in that order.

``generate_linear_array`` turns u-dimensional generator columns into the
s^u-run array whose row r is lambda_r^T G.  It grows the array one
coordinate at a time, each step expanding every row into s rows with one
add-table gather, which gives the base-s row order for prime and
extension fields alike.  Rows grow in uint8 (uint16 for s > 16), as a
flat add-table index is below s^2 <= 1024, and come back as int8, the
type a bundle file's D1 is read in.  Any m generator columns that are
t-wise linearly independent make the result an orthogonal array of
strength t; ``verify.check_oa_strength`` counts it.

Every rank question goes to ``_kept_rows``, one Gaussian elimination over
a stack of matrices in lockstep.  The check rejects a vector of another
length or with an entry that is not an integer in 0..s-1 (numpy would
read -1 as s - 1, and 1.7 or True as 1) with ``BadParamsError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Iterable, Sequence

import numpy as np

from .errors import BadParamsError, TooLargeError, ZeroVectorError
from .gf import GaloisField

Vector = tuple[int, ...]

#: hard cap on any enumeration: its vectors, and a vector family's entries
ENUMERATION_CAP = 10_000_000

#: the entry types a vector given as a sequence may hold; bools are not ints
_INTEGER_TYPES = frozenset(
    {int, *(np.dtype(c).type for c in np.typecodes["AllInteger"])})


def _enumeration_size(s: int, u: int) -> int:
    """s^u, or TooLargeError naming s, u and the cap when it exceeds the
    enumeration cap, computed only up to s^64, past the cap for s >= 2."""
    n = s ** min(u, 64)
    if n > ENUMERATION_CAP:
        value = f" = {n}" if u <= 64 else ""
        raise TooLargeError(
            f"{s}^{u}{value} exceeds the enumeration cap of {ENUMERATION_CAP}")
    return n


def _require_entries(count: int, width: int) -> None:
    """TooLargeError past the cap on ``count`` vectors of ``width`` entries."""
    if count * width > ENUMERATION_CAP:
        raise TooLargeError(f"{count} vectors of {width} entries exceed the "
                            f"enumeration cap of {ENUMERATION_CAP} entries")


def _field_rows(field: GaloisField, vectors: Iterable[Sequence[int]],
                label: str = "vector") -> np.ndarray:
    """The vectors as one (count, u) int64 array, or BadParamsError naming
    the first that is not u elements of GF(s), u the length of the first."""
    if not isinstance(vectors, np.ndarray):
        vectors = list(vectors)
    if not len(vectors):
        return np.zeros((0, 0), dtype=np.int64)
    try:
        rows = np.asarray(vectors)
    except (TypeError, ValueError):  # ragged
        rows = np.zeros(0)
    if rows.ndim != 2:
        u = np.shape(vectors[0])
        i = next((i for i, v in enumerate(vectors) if np.shape(v) != u), 0)
        raise BadParamsError(f"{label} {i} is not a flat sequence of "
                             f"integers as long as {label} 0")
    # numpy reads (True, 0) as ints, so a list is typed entry by entry
    odd = ([rows.dtype.kind not in "iu"] if rows is vectors else
           [not {*map(type, v)} <= _INTEGER_TYPES for v in vectors])
    if rows.size and any(odd):
        raise BadParamsError(
            f"{label} {odd.index(True)} has entries that are not integers")
    bad = ((rows < 0) | (rows >= field.s)).any(axis=1)  # before the cast
    if bad.any():
        raise BadParamsError(
            f"{label} {bad.argmax()} has entries outside GF({field.s})")
    return rows.astype(np.int64)


def _leading_one(field: GaloisField, rows: np.ndarray) -> np.ndarray:
    """Rows of a (count, u) array scaled to a leading 1; zero rows stay 0."""
    lead = rows[np.arange(len(rows)), (rows != 0).argmax(axis=1)]
    return field.mul_table[field.inv_table[lead][:, None], rows]


def _dots(field: GaloisField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^T b over GF(s) along the last axis of two broadcastable arrays."""
    add, mul = field.add_table, field.mul_table
    return reduce(lambda acc, i: add[acc, mul[a[..., i], b[..., i]]],
                  range(a.shape[-1]), 0)


def dot(field: GaloisField, x: Sequence[int], y: Sequence[int]) -> int:
    """x^T y over GF(s)."""
    rows = _field_rows(field, [x, y])
    return int(_dots(field, rows[0], rows[1]))


def normalize_direction(field: GaloisField, x: Sequence[int]) -> Vector:
    """Scale x so its first nonzero entry is 1 (the canonical representative
    of the direction {c*x : c != 0}).  Zero vector is rejected."""
    row = _field_rows(field, [x])
    if not row.any():
        raise ZeroVectorError("cannot normalize the zero vector")
    return tuple(_leading_one(field, row)[0].tolist())


def is_proportional(field: GaloisField, x: Sequence[int], y: Sequence[int]) -> bool:
    """True iff y = c*x for some nonzero scalar c (zero ~ zero only)."""
    rows = _leading_one(field, _field_rows(field, [x, y]))
    return bool((rows[0] == rows[1]).all())


def _kept_rows(field: GaloisField, stack: np.ndarray) -> np.ndarray:
    """For each matrix of an (N, r, u) stack, which rows are independent
    of the rows kept before them.

    Gaussian elimination on all N matrices in lockstep, one pivot per
    pass: each matrix keeps its first nonzero row, scaled to a leading 1,
    and clears that column from every row, itself included.  A row still
    nonzero is outside the span of the kept rows, all earlier than it.
    """
    add, mul, neg = field.add_table, field.mul_table, field.neg_table
    count, r, u = stack.shape
    kept = np.zeros((count, r), dtype=bool)
    at = np.arange(count)
    for _ in range(u):
        nonzero = stack.any(axis=2)
        if not nonzero.any():
            break
        first = nonzero.argmax(axis=1)
        kept[at, first] |= nonzero[at, first]
        row = stack[at, first]
        col = (row != 0).argmax(axis=1)
        pivot = mul[field.inv_table[row[at, col]][:, None], row]
        factor = neg[stack[at, :, col]]
        stack = add[stack, mul[factor[:, :, None], pivot[:, None, :]]]
    return kept


def rank(field: GaloisField, vectors: Iterable[Sequence[int]]) -> int:
    """Rank of the given vectors over GF(s): the rows one elimination over
    their (count, u) array keeps."""
    return int(_kept_rows(field, _field_rows(field, vectors)[None]).sum())


@dataclass(frozen=True)
class SubspaceBasis:
    """An ordered, linearly independent set of vectors in GF(s)^ambient_dim."""

    field: GaloisField
    ambient_dim: int
    vectors: tuple[Vector, ...]

    @property
    def dim(self) -> int:
        return len(self.vectors)


def _null_space_bases(field: GaloisField, xs: np.ndarray) -> np.ndarray:
    """The canonical bases of O(x) for the nonzero rows x of a (k, u)
    array, as one (k, u-1, u) array: with p the first nonzero coordinate
    of x scaled to 1, each j != p in order gives 1 at j and -x_j at p."""
    if not xs.any(axis=1).all():
        raise ZeroVectorError("cannot normalize the zero vector")
    xn = _leading_one(field, xs)
    k, u = xn.shape
    p = (xn != 0).argmax(axis=1)
    rows = np.broadcast_to(np.eye(u, dtype=np.int64), (k, u, u)).copy()
    rows[np.arange(k)[:, None], np.arange(u), p[:, None]] = field.neg_table[xn]
    return rows[np.arange(u) != p[:, None]].reshape(k, u - 1, u)


def _completed_bases(field: GaloisField, xs: np.ndarray,
                     forced: np.ndarray) -> np.ndarray:
    """For the rows x of a (k, u) array, the (k, f, u) independent vectors
    ``forced`` inside each O(x), completed to u-1 by the canonical basis
    vectors that keep them independent, in order: one (k, u-1, u) array."""
    k, u = xs.shape
    stack = np.concatenate([forced, _null_space_bases(field, xs)], axis=1)
    kept = _kept_rows(field, stack)
    if not kept[:, :forced.shape[1]].all():
        raise ValueError("forced columns are not linearly independent")
    return stack[kept].reshape(k, u - 1, u)


def orthogonal_complement_basis(field: GaloisField, x: Sequence[int]) -> SubspaceBasis:
    """Canonical basis of O(x) = {y : y^T x = 0}, a (u-1)-dimensional
    subspace for nonzero x, in the order of ``_null_space_bases``."""
    row = _field_rows(field, [x])
    vectors = _null_space_bases(field, row)[0].tolist()
    return SubspaceBasis(field, row.shape[1], tuple(map(tuple, vectors)))


def enumerate_span(basis: SubspaceBasis) -> list[Vector]:
    """All s^dim vectors of the span, coefficients in base-s order: the
    linear array generated by the transposed basis.  Sized before it is
    built: s^dim vectors of ambient_dim entries at most."""
    if basis.dim == 0:
        return [(0,) * basis.ambient_dim]
    _require_entries(_enumeration_size(basis.field.s, basis.dim),
                     basis.ambient_dim)
    columns = list(zip(*basis.vectors))
    return [tuple(row) for row in
            generate_linear_array(basis.field, columns).tolist()]


@lru_cache(maxsize=None)
def _narrow_tables(field: GaloisField) -> tuple[np.ndarray, np.ndarray]:
    """The flat add table and the mul table of a field in uint8, or in
    uint16 past s = 16, where a flat index a * s + b exceeds 255."""
    dtype = np.uint8 if field.s <= 16 else np.uint16
    return field.add_table.astype(dtype).ravel(), field.mul_table.astype(dtype)


def generate_linear_array(field: GaloisField, columns: Sequence[Vector]) -> np.ndarray:
    """The (s^u, m) array whose row r is lambda_r^T G, where G has the given
    generator columns and entry i of lambda_r is floor(r / s^(u-1-i)) mod s.

    The array grows one coordinate at a time from a single zero row:
    step i replaces each row r by the s rows r + c * g_i, c = 0..s-1, so
    after step i the rows are the s^(i+1) prefixes in base-s order.  The
    s * u * m scaled generator entries c * g_i are looked up once, and
    each step makes one gather from the flat add table, at index
    r * s + c * g_i, in the narrowest unsigned dtype that holds s * s.
    The array is returned as int8, which holds every element of GF(s).
    """
    gen = _field_rows(field, columns, "generator column").T  # u x m
    if not gen.shape[1]:
        raise BadParamsError("need at least one generator column")
    u, m = gen.shape
    if u < 1:
        raise BadParamsError("dimension must be at least 1")
    s = field.s
    _enumeration_size(s, u)
    add, mul = _narrow_tables(field)
    scaled = mul[np.arange(s)[:, None, None], gen[None, :, :]]  # s x u x m
    out = np.zeros((1, m), dtype=add.dtype)
    step = add.dtype.type(s)
    for i in range(u):
        out = add.take((out * step)[:, None, :]
                       + scaled[:, i][None]).reshape(-1, m)
    return out.astype(np.int8)
