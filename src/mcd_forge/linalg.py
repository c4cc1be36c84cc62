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
orthogonal array of strength t; see ``linear_strength``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations, islice, product
from math import comb
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import TooLargeError, ZeroVectorError
from .gf import GaloisField

Vector = tuple[int, ...]

#: hard cap on any enumeration (number of vectors)
ENUMERATION_CAP = 10_000_000

#: entries (combinations x coordinates) per chunk in ``linear_strength``
_CHUNK_CELLS = 1 << 16


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


def linear_strength(field: GaloisField, columns: Sequence[Vector]) -> int:
    """Largest t such that every t of the generator columns are linearly
    independent: the strength of the linear orthogonal array they
    generate.  Zero if some column is the zero vector.

    A level loop over t that meets in the middle.  A combination is
    sum c_i g_i over a set of columns with every c_i nonzero.  When every
    t-1 columns are independent, some t columns are dependent exactly
    when two different combinations collide: for odd t one of (t+1)/2
    columns and one of (t-1)/2, for even t two of t/2.  A dependency
    among t columns has no zero coefficient, so splitting its terms gives
    a collision; two colliding combinations differ in set or coefficients,
    so their difference is a nontrivial relation among at most t columns,
    which only t columns can carry.

    The columns are first written in the r coordinates of an echelon
    basis of their span, r the rank of all m columns: G = A B with A of
    full column rank, so B has the dependencies of G.  No r + 1 columns
    are independent, so the strength is at most r, and it is m when r = m.
    Level 1 finds a zero column, level 2 a proportional pair.  An even
    level builds the set of t/2-combinations: they are nonzero, so more
    than s^r - 1 of them collide, else the set is sized against the
    enumeration cap first.  The next odd level streams the
    (t+1)/2-combinations, leading coefficient 1 (both sides of a collision
    scale together), against it and stops at the first collision.
    """
    s = field.s
    cols = np.array(columns, dtype=np.int64)
    m = len(cols)
    cols = _pivot_rows(field, cols.T).T
    u = cols.shape[1]
    if u == m:
        return m
    scaled = field.mul_table[np.arange(s)[:, None, None], cols[None]]
    # base-s place values; Python ints once the keys (< s^u) outgrow int64
    powers = np.array([s ** i for i in range(u - 1, -1, -1)],
                      dtype=np.int64 if s ** u <= 2 ** 63 else object)

    def keys(coefs: np.ndarray) -> Iterator[np.ndarray]:
        """Keys of sum c_i g_(S_i) for every row c of ``coefs`` and every
        subset S of len(c) columns, in lexicographic chunks of subsets
        that start at 8 and double up to ``_CHUNK_CELLS`` entries."""
        subsets = combinations(range(m), coefs.shape[1])
        step, most = 8, max(1, _CHUNK_CELLS // (len(coefs) * u))
        while batch := list(islice(subsets, min(step, most))):
            sub = np.array(batch)
            acc = np.zeros((len(sub), len(coefs), u), dtype=np.int64)
            for i, c in enumerate(coefs.T):
                acc = field.add_table[acc, scaled[c, sub[:, i, None]]]
            yield (acc @ powers).ravel()
            step *= 2

    seen = np.zeros(1, dtype=np.int64)
    for t in range(1, u + 1):
        half, nonzero = t // 2, [range(1, s)] * (t // 2)
        if t % 2:
            for chunk in keys(np.array(list(product((1,), *nonzero)))):
                at = np.searchsorted(seen, chunk).clip(max=len(seen) - 1)
                if (seen[at] == chunk).any():
                    return t - 1
        elif (size := comb(m, half) * (s - 1) ** half) >= s ** u:
            return t - 1
        else:
            if size > ENUMERATION_CAP:
                raise TooLargeError(
                    f"C({m},{half})·{s - 1}^{half} = {size} combinations "
                    "exceed the enumeration cap")
            coefs = np.array(list(product(*nonzero)))
            seen = np.sort(np.concatenate(list(keys(coefs))))
            if (seen[1:] == seen[:-1]).any():
                return t - 1
    return u


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
