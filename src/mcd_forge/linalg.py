"""Vectors, bases, and linear arrays over GF(s).

At the API, vectors are plain tuples of element indices and the field
travels alongside as an explicit argument.  Inside, a vector set is one
(count, u) int64 array and all arithmetic is gathers from the field's
add, mul, neg and inv tables, for prime and extension fields alike.

The two enumeration orders used everywhere downstream:

* ``enumerate_tuples(field, u)`` lists all s^u coefficient vectors in
  base-s order -- the vector at position r has entry i equal to
  floor(r / s^(u-1-i)) mod s, i.e. the first coordinate is the most
  significant digit and the last varies fastest.
* ``enumerate_span(basis)`` runs the coefficient vectors of the basis in
  the same base-s order.

``generate_linear_array`` turns u-dimensional generator columns into the
s^u-run array whose row r is lambda_r^T G, with lambda_r drawn from
``enumerate_tuples``.  It grows the array one coordinate at a time, each
step expanding every row into s rows with one add-table gather, which
gives the base-s row order for prime and extension fields alike.  Any m
generator columns that are t-wise linearly independent make the result an
orthogonal array of strength t; ``verify.check_oa_strength`` counts it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from .errors import TooLargeError, ZeroVectorError
from .gf import GaloisField

Vector = tuple[int, ...]

#: hard cap on any enumeration (number of vectors)
ENUMERATION_CAP = 10_000_000


def unit_vector(u: int, position: int) -> Vector:
    """The u-dimensional unit vector with a 1 at ``position`` (0-based)."""
    if not 0 <= position < u:
        raise ValueError(f"position {position} outside 0..{u - 1}")
    return tuple(1 if i == position else 0 for i in range(u))


def _enumeration_size(s: int, u: int) -> int:
    """s^u, or TooLargeError naming s, u and the cap when it exceeds the
    enumeration cap."""
    n = s ** u
    if n > ENUMERATION_CAP:
        raise TooLargeError(
            f"{s}^{u} = {n} exceeds the enumeration cap of {ENUMERATION_CAP}")
    return n


def enumerate_tuples(field: GaloisField, u: int) -> list[Vector]:
    """All s^u vectors of GF(s)^u in base-s order (first coordinate most
    significant, last coordinate fastest)."""
    if u < 1:
        raise ValueError("dimension must be at least 1")
    _enumeration_size(field.s, u)
    return list(product(range(field.s), repeat=u))


def _leading_one(field: GaloisField, rows: np.ndarray) -> np.ndarray:
    """Rows of a (count, u) array scaled to a leading 1; zero rows stay 0."""
    lead = rows[np.arange(len(rows)), (rows != 0).argmax(axis=1)]
    return field.mul_table[field.inv_table[lead][:, None], rows]


def dot(field: GaloisField, x: Sequence[int], y: Sequence[int]) -> int:
    """x^T y over GF(s)."""
    if len(x) != len(y):
        raise ValueError("dot of vectors with different lengths")
    terms = field.mul_table[list(x), list(y)].tolist()
    return reduce(lambda a, b: int(field.add_table[a, b]), terms, 0)


def normalize_direction(field: GaloisField, x: Sequence[int]) -> Vector:
    """Scale x so its first nonzero entry is 1 (the canonical representative
    of the direction {c*x : c != 0}).  Zero vector is rejected."""
    row = np.asarray(x, dtype=np.int64)[None]
    if not row.any():
        raise ZeroVectorError("cannot normalize the zero vector")
    return tuple(_leading_one(field, row)[0].tolist())


def is_proportional(field: GaloisField, x: Sequence[int], y: Sequence[int]) -> bool:
    """True iff y = c*x for some nonzero scalar c (zero ~ zero only)."""
    rows = _leading_one(field, np.array([x, y], dtype=np.int64))
    return bool((rows[0] == rows[1]).all())


def _pivot_rows(field: GaloisField, rows: np.ndarray) -> np.ndarray:
    """A basis of the row space of a (count, u) array, in echelon form:
    Gaussian elimination where each pivot row clears its column from every
    row, itself included, in one step, and is kept."""
    add, mul = field.add_table, field.mul_table
    pivots = []
    for c in range(rows.shape[1]):
        nonzero = np.flatnonzero(rows[:, c])
        if nonzero.size:
            pivots.append(pivot := rows[nonzero[0]])
            factor = mul[field.neg_table[rows[:, c]],
                         field.inv_table[pivot[c]]]
            rows = add[rows, mul[factor[:, None], pivot]]
    return np.array(pivots, dtype=np.int64).reshape(len(pivots), rows.shape[1])


def rank(field: GaloisField, vectors: Iterable[Sequence[int]]) -> int:
    """Rank of the given vectors over GF(s): the number of pivots of one
    elimination over their (count, u) array."""
    rows = np.array([tuple(v) for v in vectors], dtype=np.int64)
    return len(_pivot_rows(field, rows)) if rows.ndim == 2 else 0


@dataclass(frozen=True)
class SubspaceBasis:
    """An ordered, linearly independent set of vectors in GF(s)^ambient_dim."""

    field: GaloisField
    ambient_dim: int
    vectors: tuple[Vector, ...]

    @property
    def dim(self) -> int:
        return len(self.vectors)


def orthogonal_complement_basis(field: GaloisField, x: Sequence[int]) -> SubspaceBasis:
    """Canonical basis of O(x) = {y : y^T x = 0}, a (u-1)-dimensional
    subspace for nonzero x.

    The basis comes from the reduced echelon form of the single-row system:
    with p the pivot (first nonzero coordinate of x, scaled to 1), each
    non-pivot coordinate j contributes the vector with 1 at j and -x_j at p.
    Vectors are ordered by j ascending, so the result is deterministic.
    """
    xn = normalize_direction(field, x)  # raises ZeroVectorError on 0
    u, p = len(xn), next(i for i, v in enumerate(xn) if v)
    minus = field.neg_table[list(xn)].tolist()
    vectors = tuple(tuple(minus[j] if i == p else int(i == j)
                          for i in range(u)) for j in range(u) if j != p)
    return SubspaceBasis(field, u, vectors)


def enumerate_span(basis: SubspaceBasis) -> list[Vector]:
    """All s^dim vectors of the span, coefficients in base-s order: the
    linear array generated by the transposed basis."""
    if basis.dim == 0:
        return [(0,) * basis.ambient_dim]
    columns = list(zip(*basis.vectors))
    return [tuple(row) for row in
            generate_linear_array(basis.field, columns).tolist()]


def extend_to_basis(field: GaloisField, x: Sequence[int],
                    forced: Sequence[Vector]) -> tuple[Vector, ...]:
    """Complete ``forced`` (independent vectors inside O(x)) to a full
    (u-1)-column basis of O(x), greedily appending canonical basis vectors
    that preserve independence.  Deterministic."""
    target = len(x) - 1
    cols = list(forced)
    if rank(field, cols) != len(cols):
        raise ValueError("forced columns are not linearly independent")
    for b in orthogonal_complement_basis(field, x).vectors:
        if len(cols) == target:
            break
        if rank(field, cols + [b]) > len(cols):
            cols.append(b)
    assert len(cols) == target, "could not complete basis"
    return tuple(cols)


def generate_linear_array(field: GaloisField, columns: Sequence[Vector]) -> np.ndarray:
    """The (s^u, m) array whose row r is lambda_r^T G, where G has the given
    generator columns and lambda_r runs over ``enumerate_tuples(field, u)``.

    The array grows one coordinate at a time from a single zero row:
    step i replaces each row r by the s rows r + c * g_i, c = 0..s-1, so
    after step i the rows are the s^(i+1) prefixes in base-s order.  The
    s * u * m scaled generator entries c * g_i are looked up once, and
    each step makes one add-table gather.
    """
    if not columns:
        raise ValueError("need at least one generator column")
    u = len(columns[0])
    if any(len(c) != u for c in columns):
        raise ValueError("generator columns must share one dimension")
    if u < 1:
        raise ValueError("dimension must be at least 1")
    s = field.s
    _enumeration_size(s, u)
    gen = np.array(columns, dtype=np.int64).T  # u x m
    m = gen.shape[1]
    add, mul = field.add_table, field.mul_table
    scaled = mul[np.arange(s)[:, None, None], gen[None, :, :]]  # s x u x m
    out = np.zeros((1, m), dtype=np.int64)
    for i in range(u):
        out = add[out[:, None, :], scaled[:, i][None]].reshape(-1, m)
    return out
