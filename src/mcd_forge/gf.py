"""Arithmetic in the finite field GF(s) for prime powers s <= 32.

Elements are addressed by integer index 0..s-1.  Index 0 is the additive
identity and index 1 the multiplicative identity.  For s = p^t with t > 1,
the element with index i is the residue-class polynomial whose coefficient
of x^k is the k-th base-p digit of i (constant term least significant).
The index -> element mapping is therefore a pure function of s: stable
across runs, platforms, and versions.

A field is four read-only int64 tables: ``add_table[a, b]``,
``mul_table[a, b]``, ``neg_table[a]`` and ``inv_table[a]`` (with
``inv_table[0]`` = 0, so scaling by the inverse of a lead entry maps the
zero vector to itself).  There are no per-element methods: callers do all
GF(s) arithmetic by indexing these tables with whole int64 arrays, one
gather per operation, for prime and extension fields alike.

The add and mul tables come from the base-p digits of the indices:
addition is digitwise mod p; a * x^k is a's digits shifted up k places,
each x^t replaced by minus the reduction polynomial's lower terms, and
a * b sums b's digits times those rows, mod p.  For prime s that is
integers mod s.

Extension fields use the fixed monic reduction polynomials of
``REDUCTION_POLYNOMIALS``.

Every constructed field is verified exhaustively against the field axioms
(commutativity, associativity, identities, inverses, distributivity).
At s <= 32 the full s^3 sweep is a handful of vectorized comparisons.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import NotPrimePowerError, UnsupportedOrderError

MAX_ORDER = 32

#: reduction polynomial per extension-field order, constant term first,
#: monic (trailing coefficient 1), degree t.
REDUCTION_POLYNOMIALS: dict[int, tuple[int, ...]] = {
    4: (1, 1, 1),              # x^2 + x + 1
    8: (1, 1, 0, 1),           # x^3 + x + 1
    9: (1, 0, 1),              # x^2 + 1
    16: (1, 1, 0, 0, 1),       # x^4 + x + 1
    25: (2, 0, 1),             # x^2 + 2
    27: (1, 2, 0, 1),          # x^3 + 2x + 1
    32: (1, 0, 1, 0, 0, 1),    # x^5 + x^2 + 1
}


def checked_order(s: int) -> tuple[int, int]:
    """(p, t) with s = p^t for a supported field order s, from no table:
    UnsupportedOrderError above MAX_ORDER, then NotPrimePowerError for s
    below 2 or not a prime power."""
    if s > MAX_ORDER:
        raise UnsupportedOrderError(
            f"field order {s} exceeds the supported cap {MAX_ORDER}")
    if s < 2:
        raise NotPrimePowerError(f"field order must be at least 2, got {s}")
    p = next(c for c in range(2, s + 1) if s % c == 0)  # a prime
    t = 1
    while p ** t < s:
        t += 1
    if p ** t != s:
        raise NotPrimePowerError(f"{s} is not a prime power")
    return p, t


class GaloisField:
    """GF(s) as its add, mul, neg and inv lookup tables.

    Not constructed directly in normal use -- call :func:`galois_field`,
    which validates the order and caches instances.
    """

    def __init__(self, s: int):
        p, t = checked_order(s)
        self.s, self.p, self.t = s, p, t
        self.reduction_polynomial: tuple[int, ...] = (
            REDUCTION_POLYNOMIALS[s] if t > 1 else ())

        powers = p ** np.arange(t, dtype=np.int64)
        digits = np.arange(s)[:, None] // powers % p  # s x t

        add = ((digits[:, None, :] + digits[None, :, :]) % p) @ powers
        # shifted[k] holds the digits of a * x^k for every element a
        low = np.array(self.reduction_polynomial[:t], dtype=np.int64)
        shifted = [digits]
        for _ in range(1, t):
            d = shifted[-1]
            shifted.append(
                (np.pad(d[:, :-1], ((0, 0), (1, 0))) - d[:, -1:] * low) % p)
        mul = (np.einsum("bk,kat->abt", digits, np.array(shifted)) % p) @ powers

        self.add_table = add.astype(np.int64)
        self.mul_table = mul.astype(np.int64)
        # the column of each row's 0 (1); mul's row 0 has no 1, so inv(0) = 0
        self.neg_table = np.argmax(add == 0, axis=1).astype(np.int64)
        self.inv_table = np.argmax(mul == 1, axis=1).astype(np.int64)
        for table in (self.add_table, self.mul_table,
                      self.neg_table, self.inv_table):
            table.setflags(write=False)
        self._check_axioms()

    def __repr__(self) -> str:  # pragma: no cover
        return f"GaloisField({self.s})"

    # -- exhaustive self-check --------------------------------------------

    def _check_axioms(self) -> None:
        s, A, M = self.s, self.add_table, self.mul_table
        idx = np.arange(s)
        assert (A == A.T).all() and (M == M.T).all(), "commutativity"
        assert (A[0] == idx).all(), "additive identity"
        assert (M[1] == idx).all(), "multiplicative identity"
        assert (M[0] == 0).all(), "zero absorbs"
        assert ((A == 0).sum(axis=1) == 1).all(), "additive inverses"
        assert ((M[1:] == 1).sum(axis=1) == 1).all(), "multiplicative inverses"
        # a + (b + c) == (a + b) + c and a * (b * c) == (a * b) * c
        assert (A[A[:, :, None], idx[None, None, :]]
                == A[idx[:, None, None], A[None, :, :]]).all(), "assoc (+)"
        assert (M[M[:, :, None], idx[None, None, :]]
                == M[idx[:, None, None], M[None, :, :]]).all(), "assoc (*)"
        # a * (b + c) == a*b + a*c
        assert (M[idx[:, None, None], A[None, :, :]]
                == A[M[:, :, None], M[:, None, :]]).all(), "distributivity"


@lru_cache(maxsize=None)
def galois_field(s: int) -> GaloisField:
    """Return the (cached) field of order s.

    Raises NotPrimePowerError for composite-with-two-primes or s < 2,
    UnsupportedOrderError for prime powers above 32.
    """
    return GaloisField(s)
