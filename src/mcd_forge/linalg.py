"""Vectors, bases, and linear arrays over GF(s).

Vectors are plain tuples of element indices (hashable, cheap to compare);
the field travels alongside as an explicit argument.  Dense run matrices
are numpy int64 arrays.

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
orthogonal array of strength t; see ``linear_strength``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
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
    """s^u, or TooLargeError when it exceeds the enumeration cap."""
    n = s ** u
    if n > ENUMERATION_CAP:
        raise TooLargeError(f"s^u = {n} exceeds the enumeration cap")
    return n


def enumerate_tuples(field: GaloisField, u: int) -> list[Vector]:
    """All s^u vectors of GF(s)^u in base-s order (first coordinate most
    significant, last coordinate fastest)."""
    if u < 1:
        raise ValueError("dimension must be at least 1")
    _enumeration_size(field.s, u)
    return list(product(range(field.s), repeat=u))


def dot(field: GaloisField, x: Sequence[int], y: Sequence[int]) -> int:
    """x^T y over GF(s)."""
    if len(x) != len(y):
        raise ValueError("dot of vectors with different lengths")
    acc = 0
    for a, b in zip(x, y):
        acc = field.add(acc, field.mul(a, b))
    return acc


def is_zero(x: Sequence[int]) -> bool:
    return all(v == 0 for v in x)


def normalize_direction(field: GaloisField, x: Sequence[int]) -> Vector:
    """Scale x so its first nonzero entry is 1 (the canonical representative
    of the direction {c*x : c != 0}).  Zero vector is rejected."""
    for v in x:
        if v != 0:
            c = field.inv(v)
            return tuple(field.mul(c, e) for e in x)
    raise ZeroVectorError("cannot normalize the zero vector")


def is_proportional(field: GaloisField, x: Sequence[int], y: Sequence[int]) -> bool:
    """True iff y = c*x for some nonzero scalar c (zero ~ zero only)."""
    xz, yz = is_zero(x), is_zero(y)
    if xz or yz:
        return xz and yz
    return normalize_direction(field, x) == normalize_direction(field, y)


def rank(field: GaloisField, vectors: Iterable[Sequence[int]]) -> int:
    """Rank of the given vectors over GF(s) (Gaussian elimination)."""
    rows = [list(v) for v in vectors]
    if not rows:
        return 0
    width = len(rows[0])
    r = 0
    for c in range(width):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(inv, v) for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [field.sub(a, field.mul(f, b))
                           for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r


def linear_strength(field: GaloisField, columns: Sequence[Vector]) -> int:
    """Largest t such that every t of the generator columns are linearly
    independent.  This equals the strength of the linear orthogonal array
    the columns generate.  Zero if some column is the zero vector.

    Early-exits on the first dependent subset, so in practice the cost is
    dominated by the t=2 pass (a set-of-normalized-directions check).
    """
    m = len(columns)
    u = len(columns[0])
    if any(is_zero(c) for c in columns):
        return 0
    cap = min(m, u)
    if cap == 1:
        return 1
    directions = {normalize_direction(field, c) for c in columns}
    if len(directions) < m:
        return 1
    t = 2
    while t < cap:
        for combo in combinations(range(m), t + 1):
            if rank(field, [columns[i] for i in combo]) <= t:
                return t
        t += 1
    return cap


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
    u = len(x)
    xn = normalize_direction(field, x)  # raises ZeroVectorError on 0
    p = next(i for i, v in enumerate(xn) if v != 0)
    basis = []
    for j in range(u):
        if j == p:
            continue
        vec = [0] * u
        vec[j] = 1
        vec[p] = field.neg(xn[j])
        basis.append(tuple(vec))
    return SubspaceBasis(field, u, tuple(basis))


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
    each step makes one add-table gather.  All arithmetic is
    table-driven, so extension fields take the same path as prime
    fields.
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
