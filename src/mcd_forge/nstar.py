"""n*, the most prefix groups ``subspace_construction`` can trade: the
size of the largest set of prefixes with every u1 of them independent, an
arc of PG(u1-1, s).  ``independent_prefix_bound`` bounds it, and the cached
``prefix_set`` answers every cell (s, u1) from one of four sources:

* u1 <= 2, every s: (1,), or the s - 1 prefixes (1, b), at the bound;
* s <= 7, u1 >= 3: the search ``max_independent_prefixes``;
* s > 7, s <= u1 <= MAX_BUSH_U1: u1 + 1 prefixes in closed form, at
  Bush's bound;
* s > 7, 3 <= u1 < s: on four slow u1 = 3 cells ``PREFIX_TABLE``, the
  labels that search gives; else an arc from the normal rational curve.

The arc has s + 1 points (s + 2 for even s and u1 = 3).  The curve is
t -> (1, t, ..., t^(k-1)) for t in GF(s), plus (0, ..., 0, 1), with
k = u1.  Any k of its points are independent: their matrix is
Vandermonde, or Vandermonde with a unit row.  For even s and k = 3 the
conic's nucleus (0, 1, 0) joins it, a hyperoval.  A prefix needs every
coordinate nonzero, so the points go through k independent forms
f_1..f_k of degree k-1 with no root on PG(1, s): coordinate i of the
curve point at t is f_i(t), of (0, ..., 0, 1) the leading coefficient of
f_i and of the nucleus its coefficient of t.  A linear image of an arc
is an arc, and each image point scaled to a leading 1 is a prefix.

The u1 <= 2 closed form and the table build no GF(s): s is checked by
``gf.checked_order`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations, islice, product

import numpy as np

from .designs import BLOCK_CELLS
from .errors import BadParamsError, TooLargeError
from .gf import GaloisField, checked_order, galois_field
from .linalg import (
    Vector,
    _enumeration_size,
    _kept_rows,
    _leading_one,
    generate_linear_array,
)


def independent_prefix_bound(s: int, u1: int) -> int:
    """Upper bound on the number of prefixes with every u1 of them
    linearly independent.  These prefixes are points of an arc in
    PG(u1-1, s), so the bounds on arcs apply:

    * u1 = 1 or s = 2: 1; u1 = 2: s - 1.  Both exact.
    * s <= u1: u1 + 1 (Bush 1952).
    * u1 = 3: s + 1 for odd s, s + 2 for even s (Bose 1947; Segre 1955).
    * s + 1, the MDS bound, for u1 < s when s is prime (S. Ball, JEMS 14,
      2012); when u1 = 4 and s > 4 (Segre 1955 for odd s, L. R. A. Casse
      1979 for even s); when s = p^h and u1 <= 2p - 2 (S. Ball and
      J. De Beule, Des. Codes Cryptogr. 65, 2012).
    * (8, 6): 9.  An n-arc in PG(k-1, s) gives one in PG(n-k-1, s), the
      dual MDS code, so a 10-arc in PG(5, 8) would give a 10-arc in
      PG(3, 8), past the u1 = 4 bound of 9.
    * otherwise s + u1 - 2 for odd s and s + u1 - 1 for even s.
    """
    if u1 < 1:
        raise BadParamsError(f"u1 must be at least 1, got {u1}")
    if u1 == 1 or s == 2:
        return 1
    if u1 == 2:
        return s - 1
    if s <= u1:
        return u1 + 1
    p = next(c for c in range(2, s + 1) if s % c == 0)
    if p == s or u1 == 4 or u1 <= 2 * p - 2 or (s, u1) == (8, 6):
        return s + 1
    if s % 2 == 1:
        return s + u1 - 2
    return s + u1 - 1


@dataclass(frozen=True)
class PrefixSearch:
    """A set of prefixes with every min(size, u1) of them independent.

    ``labels`` index the partition prefixes (base-s order over the
    nonzero tail digits), ascending.  ``certified`` is
    "provably-maximal" when the size equals ``bound`` or the search
    exhausted the whole candidate space; "maximal-within-search" when
    the search ran out of budget; "arc-lower-bound" for an arc below
    the bound, so that n* is at least its size.
    """

    s: int
    u1: int
    labels: tuple[int, ...]
    prefixes: tuple[Vector, ...]
    bound: int
    certified: str

    @property
    def size(self) -> int:
        return len(self.labels)


def _label(s: int, tail) -> int:
    """A prefix's label: the digits of its tail, b read as b - 1, in base
    s - 1, as a Python int, which past 64 bits numpy's are not."""
    return reduce(lambda label, b: label * (s - 1) + b - 1, tail, 0)


def _prefix(s: int, u1: int, label: int) -> Vector:
    """The prefix of ``label``: a leading 1, then the label's u1 - 1
    base-(s-1) digits, digit b as b + 1."""
    tail = []
    for _ in range(u1 - 1):
        label, b = divmod(label, s - 1)
        tail.append(b + 1)
    return (1, *reversed(tail))


def _decoded(s: int, u1: int, labels, short: str) -> PrefixSearch:
    """The prefixes of ``labels``; "provably-maximal" when they reach
    ``independent_prefix_bound``, else ``short``."""
    bound = independent_prefix_bound(s, u1)
    labels = tuple(labels)
    return PrefixSearch(s, u1, labels,
                        tuple(_prefix(s, u1, label) for label in labels),
                        bound, "provably-maximal" if len(labels) == bound
                        else short)


_SEARCH_NODE_BUDGET = 1 << 20


def max_independent_prefixes(field: GaloisField, u1: int) -> PrefixSearch:
    """Deterministic branch-and-bound for a maximum set of prefixes with
    every min(size, u1)-subset linearly independent.

    Candidates are scanned in label order, so the returned label set is
    the first maximum found and is stable across runs.  The search prunes
    with the closed-form bound and stops as soon as the bound is attained.

    A candidate may join exactly when it lies in the span of no set of at
    most u1-1 selected prefixes.  Such sets are independent, so this is
    the rank test: with fewer than u1 selected the whole selection is one,
    beyond that each (u1-1)-subset plus the candidate needs rank u1.
    Each depth gets its ``blocked`` mask as a value: c joining copies it
    and adds the span of c with each set of min(len(sel), u1-2) selected
    prefixes, which holds the spans of all smaller sets, stacked in one
    ``generate_linear_array`` call per block of ``BLOCK_CELLS`` cells.
    """
    s = field.s
    if u1 < 1:
        raise BadParamsError(f"u1 must be at least 1, got {u1}")
    _enumeration_size(s - 1, u1 - 1)
    cands = np.array([(1,) + tail for tail in
                      product(range(1, s), repeat=u1 - 1)])
    place = (s - 1) ** np.arange(u1 - 2, -1, -1)
    bound = independent_prefix_bound(s, u1)
    best: list[int] = []
    nodes = 0
    exhausted = True

    def joined(blocked: np.ndarray, sel: list[int], c: int) -> np.ndarray:
        blocked = blocked.copy()
        size = min(len(sel), max(u1 - 2, 0))
        subsets = combinations(sel, size)
        width = max(1, BLOCK_CELLS // (s ** (size + 1) * u1))
        while block := [(*sub, c) for sub in islice(subsets, width)]:
            columns = cands[np.array(block)].transpose(0, 2, 1)
            span = generate_linear_array(
                field, columns.reshape(-1, size + 1)).reshape(-1, u1)
            # each candidate in a span: leading 1, tail in base s-1
            lead, *tail = span.T
            inside = reduce(np.logical_and, tail, lead == 1)
            blocked[(span[inside, 1:] - 1) @ place] = True
        return blocked

    def dfs(start: int, sel: list[int], blocked: np.ndarray) -> bool:
        nonlocal best, nodes, exhausted
        if len(sel) > len(best):
            best = sel
            if len(best) >= bound:
                return True
        for c in range(start, len(cands)):
            nodes += 1
            if nodes > _SEARCH_NODE_BUDGET:
                exhausted = False
                return True
            if len(sel) + (len(cands) - c) <= len(best):
                break
            if not blocked[c] and dfs(c + 1, sel + [c],
                                      joined(blocked, sel, c)):
                return True
        return False

    dfs(0, [], np.zeros(len(cands), dtype=bool))
    return _decoded(s, u1, best, "provably-maximal" if exhausted
                    else "maximal-within-search")


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


def _products(field: GaloisField, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The product of each row of ``f`` with each row of ``g``, f's rows
    outer, as polynomials over GF(s), constant coefficient first."""
    add, mul = field.add_table, field.mul_table
    width = f.shape[1]
    out = np.zeros((len(f), len(g), width + g.shape[1] - 1), dtype=np.int64)
    for j in range(g.shape[1]):
        out[:, :, j:j + width] = add[out[:, :, j:j + width],
                                     mul[f[:, None], g[None, :, j, None]]]
    return out.reshape(-1, out.shape[-1])


def coordinate_forms(field: GaloisField, k: int) -> np.ndarray:
    """k independent root-free forms of degree k-1, one per row, constant
    coefficient first; a pure function of (s, k).

    For k <= 6 the monic g of degree k-1 are taken with their lower
    coefficients in base-s order, constant term nonzero and most
    significant.  The first with no root in GF(s) gives its images
    g(lam t + a), lam = 1..s-1 outer and a = 0..s-1 inner.  These are
    root-free with leading coefficient lam^(k-1), and each is kept when it
    raises the rank, in one stacked elimination.  If they span too little,
    the next root-free g continues.

    Past k = 6 that scan can go on for seconds on an extension field,
    whose images of one g span too little: 9.3 s at (16, 12).  There the
    forms are the products of the forms for k - 2 with those for k = 3,
    each kept when it raises the rank.  A product of root-free forms is
    root-free, with a nonzero leading coefficient, and the products span:
    forms spanning the degrees <= m times forms spanning the degrees <= 2
    span the degrees <= m + 2.
    """
    if k > 6:
        rows = _products(field, coordinate_forms(field, k - 2),
                         coordinate_forms(field, 3))
        return rows[_kept_rows(field, rows[None])[0]]
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
    add, mul = field.add_table, field.mul_table
    terms = mul[curve_points(field, k)[:, None, :],
                coordinate_forms(field, k)[None]]
    image = terms[..., 0]
    for j in range(1, k):
        image = add[image, terms[..., j]]
    assert image.all(), "a coordinate form has a root on the curve"
    image = _leading_one(field, image)
    return tuple(sorted(_label(field.s, row[1:]) for row in image.tolist()))


def _bush_labels(field: GaloisField, u1: int) -> tuple[int, ...]:
    """Labels of u1 + 1 prefixes with every u1 of them independent, the
    bound for u1 >= s (Bush 1952), ascending.

    They are the all-ones vector j and the u1 vectors j + (a - 1) e_i, for
    a fixed a not in {0, 1, 1 - u1}, each scaled to a leading 1.  The u1
    vectors without j form J + (a - 1) I, whose determinant is
    (a - 1)^(u1 - 1) (a - 1 + u1), nonzero.  j with all of them but the
    i-th has rank u1 too: their differences from j give e_l for l != i,
    and j's i-th coordinate is 1.  No coordinate is 0, as a != 0.  1 - u1
    lies in the prime field, whose element c < p has index c, so it is
    the element (1 - u1) mod p, and a is 2, or 3 where that is 2.
    """
    a = 3 if (1 - u1) % field.p == 2 else 2
    b = int(field.inv_table[a])  # (a, 1, ..., 1) scaled is (1, b, ..., b)
    tails = [[1] * (u1 - 1), [b] * (u1 - 1)] + [
        [a if j == i else 1 for j in range(u1 - 1)] for i in range(u1 - 1)]
    return tuple(sorted(_label(field.s, tail) for tail in tails))


#: the largest u1 ``_bush_labels`` answers: its u1 + 1 labels of u1 - 1
#: base-(s-1) digits, as Python ints, cost about u1^3 digit operations,
#: 1.6 ms at (9, 64) and 0.37 s at (9, 1000).  Twice the u1 = 32 the
#: catalog's orders are timed to; no construction passes u1 = 22 under
#: the run cap
MAX_BUSH_U1 = 64


@lru_cache(maxsize=None)
def prefix_set(s: int, u1: int) -> PrefixSearch:
    """The n* prefix set that constructions and the catalog use.  s is
    checked first, by ``checked_order``, and the cell picks the source:
    u1 <= 2 (each prefix is its own direction, so every one joins), the
    search for s <= 7, ``_bush_labels`` for s <= u1 <= MAX_BUSH_U1
    (TooLargeError past it), and else the table's labels for its cells
    and the arc's for the rest, "arc-lower-bound" below the bound."""
    checked_order(s)
    if u1 <= 2:
        return _decoded(s, u1, range(s - 1) if u1 == 2 else (0,),
                        "provably-maximal")
    if s <= 7:
        return max_independent_prefixes(galois_field(s), u1)
    if u1 >= s:
        if u1 > MAX_BUSH_U1:
            raise TooLargeError(f"n* for s={s}, u1={u1}: u1 is over the cap "
                                f"of {MAX_BUSH_U1}")
        return _decoded(s, u1, _bush_labels(galois_field(s), u1),
                        "provably-maximal")
    labels = PREFIX_TABLE.get((s, u1)) or arc_labels(galois_field(s), u1)
    return _decoded(s, u1, labels, "arc-lower-bound")
