"""The n* prefix sets constructions use: the arc of the normal rational
curve, checked by its certificate and exhaustively, Bush's vectors, the
u1 <= 2 closed form, and the choice of source per cell."""

import hashlib
from itertools import combinations
from math import comb
from time import perf_counter

import numpy as np
import pytest

from mcd_forge import nstar
from mcd_forge.errors import TooLargeError
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

#: the cells the arc serves, s > 7 and 3 <= u1 < s outside the table:
#: every one to u1 = 8, and past it, where the forms are products, u1 =
#: s - 1, (16, 12) and (32, 20)
ARC_CELLS = [(s, u1) for s in SUPPORTED if s > 7 for u1 in range(3, s)
             if (u1 <= 8 or u1 == s - 1 or (s, u1) in ((16, 12), (32, 20)))
             and (s, u1) not in PREFIX_TABLE]

#: the cells below the bound; their n* is open.  Past u1 = 6 that is every
#: extension field's arc but GF(25)'s to u1 = 8 = 2p - 2
OPEN_CELLS = {(8, 5), (9, 5), (9, 6), (16, 5), (16, 6), (27, 5), (27, 6),
              (32, 5), (32, 6)} | {
    (s, u1) for s, u1 in ARC_CELLS if u1 > 6 and s in (8, 9, 16, 25, 27, 32)
    and (s, u1) not in ((25, 7), (25, 8))}

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
    # the search serves s <= 7 with u1 >= 3, the table its four cells, the
    # Bush vectors s > 7 with u1 >= s and the arc every other s > 7 cell;
    # u1 <= 2 takes none of them
    calls = {"search": [], "arc": [], "bush": []}
    for name, key in (("max_independent_prefixes", "search"),
                      ("arc_labels", "arc"), ("_bush_labels", "bush")):
        real = getattr(nstar, name)
        monkeypatch.setattr(nstar, name, lambda f, u1, real=real, key=key:
                            calls[key].append((f.s, u1)) or real(f, u1))
    cells = [(s, u1) for s in (2, 3, 4, 5, 7, 8, 9, 11, 16, 32)
             for u1 in range(1, 14)
             if s > 7 or u1 <= 6 or (s, u1) in ((3, 7), (4, 7))]
    prefix_set.cache_clear()
    try:
        for s, u1 in cells:
            prefix_set(s, u1)
        assert calls == {
            "search": [(s, u1) for s, u1 in cells if s <= 7 and u1 >= 3],
            "arc": [(s, u1) for s, u1 in cells if s > 7 and 3 <= u1 < s
                    and (s, u1) not in PREFIX_TABLE],
            "bush": [(s, u1) for s, u1 in cells if u1 >= s > 7]}
        assert prefix_set(4, 7).size == 8
    finally:
        prefix_set.cache_clear()


@pytest.mark.parametrize("s", SUPPORTED)
def test_two_or_fewer_columns_match_the_search(s):
    # every prefix is its own direction, so the search takes them all
    for u1 in (1, 2):
        search = max_independent_prefixes(galois_field(s), u1)
        closed = prefix_set(s, u1)
        assert (closed.labels, closed.prefixes, closed.bound,
                closed.certified) == (search.labels, search.prefixes,
                                      search.bound, search.certified)


@pytest.mark.parametrize("s, u1", [(8, 8), (8, 9), (9, 11), (9, 12),
                                   (11, 11), (16, 16), (27, 28), (32, 32)])
def test_bush_vectors_reach_the_bound(s, u1):
    # u1 + 1 prefixes, every u1 of them independent; (9, 11) has
    # 1 - u1 = 2 in GF(9), so a = 3 there
    f = galois_field(s)
    search = prefix_set(s, u1)
    assert search.size == search.bound == u1 + 1
    assert search.certified == "provably-maximal"
    prefixes = np.array(search.prefixes)
    assert prefixes.all() and (prefixes[:, 0] == 1).all()
    subsets = np.array(list(combinations(range(u1 + 1), u1)))
    assert _kept_rows(f, prefixes[subsets]).all()


def test_cells_past_six_columns_are_answered_in_closed_form():
    # the search gave (11, 7) 10 prefixes "maximal-within-search" after
    # 18 s, and refused (8, 9) after 4.4 s
    prefix_set.cache_clear()
    for cell, size in (((11, 7), 12), ((8, 9), 10)):
        start = perf_counter()
        search = prefix_set(*cell)
        assert perf_counter() - start < 1
        assert (search.size, search.certified) == (size, "provably-maximal")


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


def test_bush_cells_past_the_u1_cap_are_refused_at_once():
    # Bush's u1 + 1 labels cost about u1^3 digit operations: (9, 2000)
    # took 2.0 s, with no cap
    start = perf_counter()
    with pytest.raises(TooLargeError, match=(
            f"^n\\* for s=9, u1=2000: u1 is over the cap of "
            f"{nstar.MAX_BUSH_U1}$")):
        prefix_set(9, 2000)
    assert perf_counter() - start < 0.1
    at_cap = prefix_set(9, nstar.MAX_BUSH_U1)
    assert at_cap.size == nstar.MAX_BUSH_U1 + 1
    assert at_cap.certified == "provably-maximal"
    assert nstar.MAX_BUSH_U1 >= 32
