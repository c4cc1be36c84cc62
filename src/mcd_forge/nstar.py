"""n* where the search is slow or falls short: a label table for four
u1 = 3 cells, so that their labels never depend on the search's speed,
and arcs of PG(u1-1, s) from the normal rational curve for the rest.
``construct._cached_prefix_search`` loads it for s > 7, 3 <= u1 <= 6.

An arc is a set of prefixes with every u1 of them independent, here of
size s + 1 (s + 2 for even s and u1 = 3), in closed form.  The curve is
t -> (1, t, ..., t^(k-1)) for t in GF(s), plus (0, ..., 0, 1), with
k = u1.  Any k of its points are independent: their matrix is
Vandermonde, or Vandermonde with a unit row.  For even s and k = 3 the
conic's nucleus (0, 1, 0) joins it, a hyperoval.  A prefix needs every
coordinate nonzero, so the points go through k independent forms
f_1..f_k of degree k-1 with no root on PG(1, s): coordinate i of the
curve point at t is f_i(t), of (0, ..., 0, 1) the leading coefficient of
f_i and of the nucleus its coefficient of t.  A linear image of an arc
is an arc, and each image point scaled to a leading 1 is a prefix.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .construct import PrefixSearch, independent_prefix_bound
from .gf import GaloisField, galois_field
from .linalg import _kept_rows, _leading_one

#: the labels ``max_independent_prefixes`` gives on its slowest u1 = 3
#: cells, all at the bound, read unchanged to be free of its speed
PREFIX_TABLE = {
    (8, 3): (0, 1, 7, 8, 17, 18, 23, 25, 30, 31),
    (9, 3): (0, 1, 8, 11, 22, 23, 36, 39, 57, 62),
    (11, 3): (0, 1, 10, 11, 35, 37, 56, 64, 68, 76, 95, 97),
    (16, 3): (0, 1, 15, 16, 33, 34, 77, 88, 127, 134, 137, 148, 168, 169,
              205, 209, 217, 220),
}


def curve_points(field: GaloisField, k: int) -> np.ndarray:
    """The (s + 1, k) points of the normal rational curve, (0, ..., 0, 1)
    last, and for even s with k = 3 the nucleus (0, 1, 0) after it."""
    t = np.arange(field.s)
    powers = [np.ones_like(t)]
    for _ in range(k - 1):
        powers.append(field.mul_table[powers[-1], t])
    extra = [k - 1, 1] if field.p == 2 and k == 3 else [k - 1]
    return np.concatenate([np.stack(powers, axis=1),
                           np.eye(k, dtype=np.int64)[extra]])


def coordinate_forms(field: GaloisField, k: int) -> np.ndarray:
    """k independent root-free forms of degree k-1, one per row, constant
    coefficient first; a pure function of (s, k).

    The monic g of degree k-1 are taken with their lower coefficients in
    base-s order, constant term nonzero and most significant.  The first
    with no root in GF(s) gives its images g(lam t + a), lam = 1..s-1
    outer and a = 0..s-1 inner.  These are root-free with leading
    coefficient lam^(k-1), and each is kept when it raises the rank, in
    one stacked elimination.  If they span too little, the next
    root-free g continues.
    """
    s, add, mul = field.s, field.add_table, field.mul_table
    lam, a = np.divmod(np.arange(s, s * s), s)
    rows = np.zeros((0, k), dtype=np.int64)
    for low in product(range(1, s), *[range(s)] * (k - 2)):
        images = np.zeros((len(lam), k), dtype=np.int64)
        for c in (1, *reversed(low)):  # Horner: h <- h (lam t + a) + c
            shifted = np.pad(images[:, :-1], ((0, 0), (1, 0)))
            images = add[mul[lam[:, None], shifted], mul[a[:, None], images]]
            images[:, 0] = add[images[:, 0], c]
        # the constant terms of the first s images are g(a) for every a
        if not images[:s, 0].all():
            continue
        rows = np.concatenate([rows, images])
        rows = rows[_kept_rows(field, rows[None])[0]]
        if len(rows) == k:
            return rows
    raise AssertionError(f"no {k} independent root-free forms over GF({s})")


def arc_labels(field: GaloisField, k: int) -> tuple[int, ...]:
    """Labels of the arc's prefixes, ascending: each image point scaled
    to a leading 1, its tail read in base s-1 (digit b as b - 1)."""
    s, add, mul = field.s, field.add_table, field.mul_table
    terms = mul[curve_points(field, k)[:, None, :],
                coordinate_forms(field, k)[None]]
    image = terms[..., 0]
    for j in range(1, k):
        image = add[image, terms[..., j]]
    assert image.all(), "a coordinate form has a root on the curve"
    image = _leading_one(field, image)
    labels = (image[:, 1:] - 1) @ (s - 1) ** np.arange(k - 2, -1, -1)
    return tuple(sorted(labels.tolist()))


def prefix_set(s: int, u1: int) -> PrefixSearch:
    """The table's labels for its cells, else the arc's; "provably-maximal"
    when they reach ``independent_prefix_bound``, else "arc-lower-bound"."""
    labels = PREFIX_TABLE.get((s, u1)) or arc_labels(galois_field(s), u1)
    bound = independent_prefix_bound(s, u1)
    place = (s - 1) ** np.arange(u1 - 2, -1, -1)
    prefixes = tuple((1,) + tuple((i // place % (s - 1) + 1).tolist())
                     for i in labels)
    return PrefixSearch(s, u1, labels, prefixes, bound,
                        "provably-maximal" if len(labels) == bound
                        else "arc-lower-bound")
