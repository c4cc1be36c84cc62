"""The n* prefix sets constructions use: the arc of the normal rational
curve, checked by its certificate and exhaustively, and the choice of
source per cell."""

import hashlib
from itertools import combinations
from math import comb

import numpy as np
import pytest

from mcd_forge.gf import galois_field
from mcd_forge.linalg import _kept_rows, rank
from mcd_forge.nstar import (
    PREFIX_TABLE,
    arc_labels,
    coordinate_forms,
    curve_points,
    independent_prefix_bound,
    max_independent_prefixes,
    prefix_set,
)

SUPPORTED = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32)

#: every cell the arc serves: s > 7, 3 <= u1 <= 6, outside the table
ARC_CELLS = [(s, u1) for s in SUPPORTED if s > 7 for u1 in range(3, 7)
             if (s, u1) not in PREFIX_TABLE]

#: the cells below the bound; their n* is open
OPEN_CELLS = {(8, 5), (9, 5), (9, 6), (16, 5), (16, 6), (27, 5), (27, 6),
              (32, 5), (32, 6)}

#: the most u1-subsets the exhaustive check eliminates on one cell, and
#: how many it holds at a time
EXHAUSTIVE_SUBSETS = 200_000
_BLOCK = 1 << 14


def _evaluate(field, coeffs, t):
    """A form, constant coefficient first, at t by scalar Horner."""
    value = 0
    for c in reversed(coeffs):
        value = int(field.add_table[field.mul_table[value, t], c])
    return value


@pytest.mark.parametrize("s, u1", ARC_CELLS)
def test_arc_certificate(s, u1):
    # the forms have full rank and no root on PG(1, s), and every prefix
    # is their image of a curve point scaled to a leading 1
    f = galois_field(s)
    forms = coordinate_forms(f, u1).tolist()
    assert rank(f, forms) == u1
    hyperoval = s % 2 == 0 and u1 == 3
    for form in forms:
        assert form[-1] != 0                  # at infinity
        assert all(_evaluate(f, form, t) for t in range(s))
        if hyperoval:
            assert form[1] != 0               # at the nucleus
    points = []
    for t in range(s):
        point = [1]
        for _ in range(u1 - 1):
            point.append(int(f.mul_table[point[-1], t]))
        points.append(point)
    points.append([0] * (u1 - 1) + [1])
    if hyperoval:
        points.append([0, 1, 0])
    assert curve_points(f, u1).tolist() == points
    labels = set()
    for p in points:
        image = [0] * u1
        for i, form in enumerate(forms):
            for j in range(u1):
                image[i] = int(f.add_table[image[i],
                                           f.mul_table[form[j], p[j]]])
        scale = int(f.inv_table[image[0]])
        image = [int(f.mul_table[scale, x]) for x in image]
        assert image[0] == 1 and all(image)
        labels.add(sum((x - 1) * (s - 1) ** (u1 - 2 - i)
                       for i, x in enumerate(image[1:])))
    assert arc_labels(f, u1) == tuple(sorted(labels))
    assert len(labels) == s + 1 + hyperoval
    search = prefix_set(s, u1)
    assert search.labels == tuple(sorted(labels))
    assert search.bound == independent_prefix_bound(s, u1)
    assert search.certified == ("arc-lower-bound" if (s, u1) in OPEN_CELLS
                                else "provably-maximal")
    assert (search.size < search.bound) == ((s, u1) in OPEN_CELLS)
    for label, prefix in zip(search.labels, search.prefixes):
        tail = [(label // (s - 1) ** i) % (s - 1) + 1
                for i in range(u1 - 2, -1, -1)]
        assert prefix == (1, *tail)


@pytest.mark.parametrize("s, u1", sorted(
    cell for cell in ARC_CELLS + sorted(PREFIX_TABLE)
    if comb(prefix_set(*cell).size, cell[1])
    <= EXHAUSTIVE_SUBSETS))
def test_every_u1_subset_is_independent(s, u1):
    f = galois_field(s)
    prefixes = np.array(prefix_set(s, u1).prefixes)
    subsets = np.array(list(combinations(range(len(prefixes)), u1)))
    for lo in range(0, len(subsets), _BLOCK):
        assert _kept_rows(f, prefixes[subsets[lo:lo + _BLOCK]]).all()


def test_arc_labels_are_a_pure_function_of_the_cell():
    # pinned: a change here changes written theorem2 designs
    assert arc_labels(galois_field(13), 3) == (
        0, 11, 19, 38, 41, 48, 58, 80, 86, 88, 112, 116, 139, 143)
    assert arc_labels(galois_field(8), 5) == (
        5, 73, 154, 567, 793, 1210, 1711, 2015, 2308)


def test_each_cell_takes_its_source(monkeypatch):
    # the search serves s <= 7, u1 <= 2 and u1 > 6; the table its four
    # cells, which it never searches; the arc every other cell
    calls = []
    real = max_independent_prefixes
    monkeypatch.setattr("mcd_forge.nstar.max_independent_prefixes",
                        lambda f, u1: calls.append((f.s, u1)) or real(f, u1))
    prefix_set.cache_clear()
    try:
        for s in (2, 3, 4, 5, 7, 8, 9, 16, 32):
            for u1 in range(1, 7):
                prefix_set(s, u1)
        assert calls == [(s, u1) for s in (2, 3, 4, 5, 7, 8, 9, 16, 32)
                         for u1 in range(1, 7)
                         if s <= 7 or u1 <= 2]
        calls.clear()
        assert prefix_set(4, 7).size == 8
        assert calls == [(4, 7)]
    finally:
        prefix_set.cache_clear()


def test_cells_proven_by_the_search_keep_their_labels():
    # the labels and status of every cell the search alone certified,
    # digested as the search gave them: s <= 7 with u1 <= 6, u1 <= 2 for
    # every s, and the four table cells
    cells = sorted({(s, u1) for s in SUPPORTED for u1 in range(1, 7)
                    if s <= 7 or u1 <= 2} | set(PREFIX_TABLE))
    text = "".join(f"{s},{u1}:{search.labels};{search.certified}\n"
                   for s, u1 in cells
                   for search in [prefix_set(s, u1)])
    assert len(cells) == 60
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "a71221ac8e52e922d33e74e7f89ba855b6473b353016cee4e974c3fd35c6094e")
