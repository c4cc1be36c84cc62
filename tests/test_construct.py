"""Construction machinery: vector families, prefix search, constructions."""

import tracemalloc
from itertools import combinations, product
from math import comb
from time import perf_counter

import numpy as np
import pytest

from mcd_forge import construct
from mcd_forge.bundle import bundle_from_design, read_bundle, write_bundle
from mcd_forge.construct import (
    MAX_DESIGN_CELLS,
    ConstructionParams,
    PrefixSearch,
    admissible_set,
    anti_mirror_construction,
    common_nonorthogonal,
    direct_construction,
    expected_intersection_size,
    general_construction,
    independent_prefix_bound,
    max_independent_prefixes,
    nonorthogonal_combos,
    orthogonal_witness,
    partition_admissible,
    stratified_generator_choice,
    subspace_construction,
    unit_combinations,
)
from mcd_forge.errors import (
    BadParamsError,
    NotApplicableError,
    OrthogonalityViolationError,
    ProportionalVectorsError,
    TooLargeError,
    TooManyColumnsError,
    VOutOfRangeError,
    ZeroVectorError,
)
from mcd_forge.designs import method_of_replacement
from mcd_forge.gf import galois_field
from mcd_forge.linalg import (
    dot,
    generate_linear_array,
    normalize_direction,
    orthogonal_complement_basis,
    rank,
)
from mcd_forge.nstar import PREFIX_TABLE, prefix_set
from mcd_forge.verify import (
    MAX_PAIR_WORK,
    check_grid_stratification,
    check_oa_strength,
)
from golden_data import (
    DIRECT_TABLE_S3,
    EXAMPLE1_COLLAPSED,
    EXAMPLE1_QUALITATIVE,
    INTERSECTION_SIZES_S3_U13,
    MAX_PREFIX_LABELS_S3,
    MAX_PREFIX_SIZES_S3,
    NONORTHOGONAL_SETS,
    PARTITION_GROUPS,
    PARTITION_PREFIXES,
    SUBSPACE_S3_U4_U13_PARAMS,
    SUBSPACE_V3_GENERATORS,
)

F3 = galois_field(3)


# ---------------------------------------------------------------------------
# vector families
# ---------------------------------------------------------------------------


def test_unit_combinations():
    vecs = unit_combinations(F3, 4, 2)
    assert len(vecs) == 9
    assert vecs[0] == (0, 0, 0, 0)
    assert (1, 2, 0, 0) in vecs
    assert all(v[2:] == (0, 0) for v in vecs)


def test_admissible_set_size_formula():
    for s in (2, 3, 4, 5):
        f = galois_field(s)
        for u in range(2, 6):
            for u1 in range(1, u + 1):
                aset = admissible_set(f, u, u1)
                assert aset.size == (s - 1) ** (u1 - 1) * s ** (u - u1)
                for v in aset.vectors:
                    assert v[0] == 1
                    assert all(v[i] != 0 for i in range(1, u1))


def test_admissible_set_golden():
    aset = admissible_set(F3, 4, 3)
    flat = tuple(v for group in PARTITION_GROUPS for v in group)
    assert aset.vectors == flat


def test_admissible_set_param_validation():
    with pytest.raises(BadParamsError):
        admissible_set(F3, 3, 0)
    with pytest.raises(BadParamsError):
        admissible_set(F3, 3, 4)
    with pytest.raises(BadParamsError):
        admissible_set(F3, 0, 0)


def test_partition_golden():
    part = partition_admissible(admissible_set(F3, 4, 3))
    assert part.prefixes == PARTITION_PREFIXES
    assert part.groups == PARTITION_GROUPS
    assert part.group_count == 4


def test_partition_blocks_are_consecutive_and_even():
    for s, u, u1 in [(2, 4, 2), (3, 5, 2), (4, 3, 2), (5, 3, 3)]:
        f = galois_field(s)
        aset = admissible_set(f, u, u1)
        part = partition_admissible(aset)
        assert part.group_count == (s - 1) ** (u1 - 1)
        block = s ** (u - u1)
        assert all(len(g) == block for g in part.groups)
        # groups laid end to end reproduce A in order
        assert tuple(v for g in part.groups for v in g) == aset.vectors


def test_nonorthogonal_combos_golden():
    part = partition_admissible(admissible_set(F3, 4, 3))
    for i in range(4):
        ebar = nonorthogonal_combos(part, i)
        assert ebar.prefix_indices == (i,)
        assert ebar.size == 18
        assert frozenset(ebar.vectors) == NONORTHOGONAL_SETS[i]
    with pytest.raises(BadParamsError):
        nonorthogonal_combos(part, 4)


def test_nonorthogonal_combos_size_formula():
    for s, u, u1 in [(2, 4, 2), (3, 4, 2), (4, 3, 2), (5, 3, 2)]:
        f = galois_field(s)
        part = partition_admissible(admissible_set(f, u, u1))
        for i in range(part.group_count):
            assert nonorthogonal_combos(part, i).size == \
                (s - 1) * s ** (u1 - 1)


def test_common_nonorthogonal_golden_sizes():
    part = partition_admissible(admissible_set(F3, 4, 3))
    labels = MAX_PREFIX_LABELS_S3[3]
    for v in range(1, 5):
        inter = common_nonorthogonal(part, labels[:v])
        assert inter.prefixes_independent
        assert inter.size == INTERSECTION_SIZES_S3_U13[v - 1]
        assert inter.size == expected_intersection_size(3, 3, v)
        assert len(inter.normalized) * 2 == inter.size
        # members really do clash with every chosen prefix
        for z in inter.vectors:
            for i in labels[:v]:
                b = part.prefixes[i] + (0,)
                assert dot(F3, z, b) != 0


@pytest.mark.parametrize("s", [2, 3, 4, 5, 7, 8, 9])
def test_common_nonorthogonal_matches_per_vector_definition(s):
    field = galois_field(s)
    for u1 in (1, 2, 3):
        u = u1 + 1
        part = partition_admissible(admissible_set(field, u, u1))
        combos = unit_combinations(field, u, u1)
        clashes = np.array([[dot(field, z, b + (0,) * (u - u1)) != 0
                             for z in combos] for b in part.prefixes])
        leading = {z: normalize_direction(field, z) == z
                   for z in combos if any(z)}
        count = part.group_count
        subsets = [sub for size in (1, 2)
                   for sub in combinations(range(count), size)]
        # every triple at s = 8 or 9 would take about 20 s, so from s = 7
        # on the triples run over every fourth prefix
        subsets += combinations(range(0, count, 1 if s <= 5 else 4), 3)
        for sub in subsets:
            members = tuple(combos[j] for j in
                            np.flatnonzero(clashes[list(sub)].all(axis=0)))
            inter = common_nonorthogonal(part, sub)
            assert inter.vectors == members, (u1, sub)
            assert inter.normalized == tuple(z for z in members
                                             if leading[z]), (u1, sub)


def test_common_nonorthogonal_dependent_prefixes():
    # at u1 = 4 the first four label prefixes are linearly dependent,
    # so no closed-form prediction applies
    part = partition_admissible(admissible_set(F3, 5, 4))
    inter = common_nonorthogonal(part, (0, 1, 2, 3))
    assert not inter.prefixes_independent
    assert inter.size == len(inter.vectors)


def test_common_nonorthogonal_param_validation():
    part = partition_admissible(admissible_set(F3, 4, 3))
    with pytest.raises(BadParamsError):
        common_nonorthogonal(part, ())
    with pytest.raises(BadParamsError):
        common_nonorthogonal(part, (0, 0))
    with pytest.raises(BadParamsError):
        common_nonorthogonal(part, (0, 9))
    # 1.7 and True were read as label 1
    for labels in ((0, 1.7), (True,), (0, False), (1.0,), ("1",), (0, None)):
        with pytest.raises(BadParamsError, match=(
                r"^prefix index .* is not an integer in 0\.\.3$")):
            common_nonorthogonal(part, labels)
    # numpy int labels are labels, recorded as ints
    got = common_nonorthogonal(part, np.array([0, 2]))
    assert got.prefix_indices == (0, 2)
    assert type(got.prefix_indices[0]) is int
    assert got.vectors == common_nonorthogonal(part, (0, 2)).vectors


def test_expected_intersection_size():
    assert expected_intersection_size(3, 3, 1) == 18
    assert expected_intersection_size(3, 3, 2) == 12
    assert expected_intersection_size(3, 3, 3) == 8
    assert expected_intersection_size(3, 3, 4) == 6
    assert expected_intersection_size(3, 4, 5) == 10
    assert expected_intersection_size(3, 5, 6) == 22
    with pytest.raises(VOutOfRangeError):
        expected_intersection_size(3, 3, 0)


def _two_branch_intersection_size(s, u1, v):
    # the closed form as first written: O(v) terms past u1
    if v <= u1:
        return (s - 1) ** v * s ** (u1 - v)
    head = sum((-1) ** i * comb(v, i) * s ** (u1 - i) for i in range(u1 + 1))
    tail = sum((-1) ** i * comb(v, i) for i in range(u1 + 1, v + 1))
    return head + tail


def test_expected_intersection_size_in_min_v_u1_terms():
    for s in (2, 3, 4, 5, 7, 8, 9, 16, 32):
        for u1 in range(1, 9):
            for v in range(1, 60):
                assert expected_intersection_size(s, u1, v) \
                    == _two_branch_intersection_size(s, u1, v)
    # the two-branch form summed 10^12 terms here
    start = perf_counter()
    v = 10 ** 12
    assert expected_intersection_size(3, 3, v) == 26 - 8 * v + v * (v - 1)
    assert perf_counter() - start < 0.1


# ---------------------------------------------------------------------------
# prefix capacity and the maximum-search
# ---------------------------------------------------------------------------


def test_independent_prefix_bound():
    assert independent_prefix_bound(3, 1) == 1
    assert independent_prefix_bound(2, 4) == 1
    assert independent_prefix_bound(5, 2) == 4
    assert independent_prefix_bound(3, 3) == 4
    assert independent_prefix_bound(3, 4) == 5
    assert independent_prefix_bound(3, 5) == 6
    assert independent_prefix_bound(5, 3) == 6   # odd order: s + u1 - 2
    assert independent_prefix_bound(4, 3) == 6   # even order: s + u1 - 1
    # prime s, u1 <= s: the MDS bound s + 1 (Ball 2012)
    assert independent_prefix_bound(5, 4) == 6
    assert independent_prefix_bound(7, 4) == 8
    assert independent_prefix_bound(5, 5) == 6
    with pytest.raises(BadParamsError):
        independent_prefix_bound(3, 0)


def test_independent_prefix_bound_from_arc_theorems():
    # u1 = 4 with s > 4: s + 1 (Segre for odd s, Casse for even s)
    for s in (8, 9, 16, 25, 27, 32):
        assert independent_prefix_bound(s, 4) == s + 1
    # s = p^h with u1 <= 2p - 2: s + 1 (Ball and De Beule)
    assert independent_prefix_bound(25, 5) == 26
    assert independent_prefix_bound(25, 6) == 26
    # duality with the u1 = 4 bound
    assert independent_prefix_bound(8, 6) == 9
    # no theorem reaches these: s + u1 - 2 for odd s, s + u1 - 1 for even
    for s, u1, bound in ((8, 5, 12), (9, 5, 12), (9, 6, 13), (16, 5, 20),
                         (16, 6, 21), (27, 5, 30), (27, 6, 31), (32, 5, 36),
                         (32, 6, 37)):
        assert independent_prefix_bound(s, u1) == bound
    # u1 = 3 and the small orders keep theirs
    assert independent_prefix_bound(8, 3) == 10
    assert independent_prefix_bound(27, 3) == 28
    assert independent_prefix_bound(4, 4) == 5
    assert independent_prefix_bound(4, 3) == 6


def test_max_independent_prefixes_golden():
    for u1, labels in MAX_PREFIX_LABELS_S3.items():
        search = max_independent_prefixes(F3, u1)
        assert search.labels == labels
        assert search.size == MAX_PREFIX_SIZES_S3[u1]
        assert search.certified == "provably-maximal"
        # re-verify the defining property straight from rank
        k = min(search.size, u1)
        for sub in combinations(search.prefixes, k):
            assert rank(F3, sub) == k


def test_max_independent_prefixes_prime_cells_certified_by_mds_bound():
    for s, size in ((5, 6), (7, 8)):
        field = galois_field(s)
        search = max_independent_prefixes(field, 4)
        assert search.size == size
        assert search.certified == "provably-maximal"
        for sub in combinations(search.prefixes, 4):
            assert rank(field, sub) == 4


#: (labels, bound, certified) per (s, u1), as the rank-test search gave them
PINNED_PREFIX_SEARCHES = {
    (7, 3): ((0, 1, 6, 8, 19, 21, 26, 27), 8, "provably-maximal"),
    (8, 3): ((0, 1, 7, 8, 17, 18, 23, 25, 30, 31), 10, "provably-maximal"),
    (9, 3): ((0, 1, 8, 11, 22, 23, 36, 39, 57, 62), 10, "provably-maximal"),
    (5, 4): ((0, 1, 4, 16, 22, 31), 6, "provably-maximal"),
    (7, 4): ((0, 1, 6, 36, 43, 51, 95, 189), 8, "provably-maximal"),
    (4, 5): ((0, 1, 3, 9, 27, 40), 6, "provably-maximal"),
    (5, 5): ((0, 1, 4, 16, 64, 85), 6, "provably-maximal"),
    (7, 5): ((0, 1, 6, 36, 216, 259, 317, 502), 8, "provably-maximal"),
    (11, 3): ((0, 1, 10, 11, 35, 37, 56, 64, 68, 76, 95, 97), 12,
              "provably-maximal"),
    (16, 3): ((0, 1, 15, 16, 33, 34, 77, 88, 127, 134, 137, 148, 168, 169,
               205, 209, 217, 220), 18, "provably-maximal"),
    # the first 9-set, as before the bound of 9; then the 2^20-node budget
    # ran out at "maximal-within-search"
    (8, 4): ((0, 1, 7, 49, 58, 67, 130, 186, 314), 9, "provably-maximal"),
    # u1 past 6, which constructions reach through the search alone
    (3, 7): ((0, 1, 2, 4, 8, 16, 32, 63), 8, "provably-maximal"),
    (3, 8): ((0, 1, 2, 4, 8, 16, 32, 65, 126), 9, "provably-maximal"),
    (3, 9): ((0, 1, 2, 4, 8, 16, 32, 64, 128, 255), 10, "provably-maximal"),
}


@pytest.mark.parametrize("s, u1", sorted(PINNED_PREFIX_SEARCHES))
def test_max_independent_prefixes_pinned(s, u1):
    search = max_independent_prefixes(galois_field(s), u1)
    assert (search.labels, search.bound, search.certified) \
        == PINNED_PREFIX_SEARCHES[s, u1]


@pytest.mark.parametrize("s, u1", sorted(PREFIX_TABLE))
def test_prefix_table_holds_what_the_search_gives(s, u1):
    # the search's side is test_max_independent_prefixes_pinned
    search = prefix_set(s, u1)
    assert PREFIX_TABLE[s, u1] == search.labels
    assert (search.labels, search.bound, search.certified) \
        == PINNED_PREFIX_SEARCHES[s, u1]
    cands = [(1,) + tail for tail in
             product(range(1, s), repeat=u1 - 1)]
    assert search.prefixes == tuple(cands[i] for i in search.labels)


def test_max_independent_prefixes_blocks_its_spans():
    # a join at (3, 9) spans up to C(9, 7) = 36 subsets of 3^8 rows each;
    # one unblocked stack held them all at once
    tracemalloc.start()
    try:
        max_independent_prefixes(galois_field(3), 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20, peak


def test_max_independent_prefixes_caps_candidates(monkeypatch):
    # the candidate list is sized before it is built: (32, 6) would list
    # 31^5 tuples, and the message names that count, not s^u
    with pytest.raises(TooLargeError, match=(
            r"^31\^5 = 28629151 exceeds the enumeration cap of 10000000$")):
        max_independent_prefixes(galois_field(32), 6)
    monkeypatch.setattr("mcd_forge.linalg.ENUMERATION_CAP", 80)
    with pytest.raises(TooLargeError,
                       match=r"^3\^4 = 81 exceeds the enumeration cap of 80$"):
        max_independent_prefixes(galois_field(4), 5)  # 81 candidates
    assert max_independent_prefixes(galois_field(4), 4).size == 5


def test_max_independent_prefixes_degenerate():
    f2 = galois_field(2)
    search = max_independent_prefixes(f2, 3)
    assert search.size == 1
    assert search.labels == (0,)
    assert search.certified == "provably-maximal"
    single = max_independent_prefixes(F3, 1)
    assert single.size == 1
    with pytest.raises(BadParamsError):
        max_independent_prefixes(F3, 0)


# ---------------------------------------------------------------------------
# pairing witness
# ---------------------------------------------------------------------------


def test_orthogonal_witness_exhaustive():
    # every E member with two or more nonzero coefficients admits an
    # admissible direction orthogonal to it
    aset = frozenset(admissible_set(F3, 4, 3).vectors)
    for z in unit_combinations(F3, 4, 3):
        nonzero = sum(1 for c in z if c != 0)
        if nonzero < 2:
            continue
        w = orthogonal_witness(F3, 4, 3, z)
        assert dot(F3, z, w) == 0
        assert normalize_direction(F3, w) in aset


def test_orthogonal_witness_larger_fields():
    for s in (4, 5, 9):
        f = galois_field(s)
        aset = frozenset(admissible_set(f, 3, 3).vectors)
        for z in unit_combinations(f, 3, 3):
            if sum(1 for c in z if c != 0) < 2:
                continue
            w = orthogonal_witness(f, 3, 3, z)
            assert dot(f, z, w) == 0
            assert normalize_direction(f, w) in aset


def test_orthogonal_witness_not_applicable():
    with pytest.raises(NotApplicableError):
        orthogonal_witness(F3, 4, 3, (1, 0, 0, 0))    # one nonzero entry
    with pytest.raises(NotApplicableError):
        orthogonal_witness(F3, 4, 3, (1, 1, 0, 1))    # outside span(e1..e3)
    with pytest.raises(NotApplicableError):
        orthogonal_witness(galois_field(2), 4, 3, (1, 1, 0, 0))
    with pytest.raises(BadParamsError):
        orthogonal_witness(F3, 4, 3, (1, 1, 0))       # wrong length


def test_orthogonal_witness_checks_z_at_entry():
    # 5 used to raise a bare IndexError from the inverse table; -1 was
    # read as s - 1 and, under python -O, gave the witness (1, 1, 1)
    for z in ((1, 5, 0), (1, -1, 0)):
        with pytest.raises(BadParamsError,
                           match=r"^z vector 0 has entries outside GF\(3\)$"):
            orthogonal_witness(F3, 3, 2, z)


# ---------------------------------------------------------------------------
# general construction
# ---------------------------------------------------------------------------


def test_general_construction_worked_example():
    mcd = general_construction(
        F3, [(1, 2, 0)], [(1, 2, 0)],
        generator_overrides={0: ((0, 0, 1), (1, 1, 0))})
    assert tuple(int(v) for v in mcd.d1.data[:, 0]) == EXAMPLE1_QUALITATIVE
    assert tuple(int(v) for v in mcd.collapsed.data[:, 0]) == EXAMPLE1_COLLAPSED
    # identity seed expands in row order
    assert sorted(mcd.d2.data[:, 0]) == list(range(27))
    assert mcd.full_verification().passed
    assert mcd.provenance.method == "general"
    assert mcd.provenance.z_vectors == ((1, 2, 0),)
    assert mcd.provenance.x_vectors == ((1, 2, 0),)
    assert mcd.provenance.generator_columns == (((0, 0, 1), (1, 1, 0)),)


def test_general_construction_canonical_generators():
    mcd = general_construction(F3, [(1, 2, 0)], [(1, 2, 0)])
    assert mcd.provenance.generator_columns == (((1, 1, 0), (0, 0, 1)),)
    assert mcd.full_verification().passed


def test_general_construction_certifies_strength():
    e = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    mcd = general_construction(F3, e, [(1, 1, 1)])
    assert check_oa_strength(mcd.d1, 3).passed


def test_general_construction_rejects_orthogonal_pairs():
    with pytest.raises(OrthogonalityViolationError) as err:
        general_construction(F3, [(1, 1, 0)], [(1, 2, 0)])
    assert "(0, 0)" in str(err.value)


#: a, b, 2b, 2a over GF(3)
ABBA_X = [(1, 0, 0), (0, 1, 0), (0, 2, 0), (2, 0, 0)]


def test_general_construction_input_validation():
    with pytest.raises(BadParamsError):
        general_construction(F3, [], [(1, 2, 0)])
    with pytest.raises(BadParamsError, match="share one dimension"):
        general_construction(F3, [(1, 2, 0)], [(1, 2)])
    with pytest.raises(BadParamsError, match=(
            "^x vector 1 is not a flat sequence of integers as long as "
            "x vector 0$")):
        general_construction(F3, [(1, 2, 0)], [(1, 2, 0), (1, 2)])
    with pytest.raises(BadParamsError, match=r"^generator\[0\] vector 1 is "
                                             "not a flat sequence"):
        general_construction(F3, [(1, 2, 0)], [(1, 2, 0)],
                             generator_overrides={0: ((0, 0, 1), (1, 1))})
    with pytest.raises(BadParamsError):
        general_construction(F3, [(1,)], [(1,)])
    with pytest.raises(ZeroVectorError):
        general_construction(F3, [(0, 0, 0)], [(1, 2, 0)])
    with pytest.raises(ProportionalVectorsError):
        general_construction(F3, [(1, 2, 0), (2, 1, 0)], [(1, 1, 1)])
    # x = a, b, 2b, 2a: the first pair in index order is (0, 3)
    with pytest.raises(ProportionalVectorsError, match="x vectors 0 and 3"):
        general_construction(F3, [(1, 1, 0)], ABBA_X)
    with pytest.raises(BadParamsError):
        general_construction(F3, [(1, 2, 0)], [(1, 2, 0)],
                             generator_overrides={3: ((0, 0, 1), (1, 1, 0))})
    with pytest.raises(BadParamsError):
        general_construction(F3, [(1, 2, 0)], [(1, 2, 0)],
                             generator_overrides={0: ((0, 0, 1),)})
    with pytest.raises(BadParamsError):
        # (1, 0, 0) is not orthogonal to (1, 2, 0)
        general_construction(F3, [(1, 2, 0)], [(1, 2, 0)],
                             generator_overrides={0: ((0, 0, 1), (1, 0, 0))})
    with pytest.raises(BadParamsError):
        general_construction(F3, [(1, 2, 0)], [(1, 2, 0)],
                             generator_overrides={0: ((1, 1, 0), (2, 2, 0))})
    with pytest.raises(BadParamsError):
        general_construction(F3, [(1, 3, 0)], [(1, 2, 0)])
    # numpy would read these as (1, 2, 0): floats, bools and strings
    with pytest.raises(BadParamsError, match=(
            "^z vector 0 has entries that are not integers$")):
        general_construction(F3, [(1.0, 2.0, 0.0)], [(1, 2.5, 0)])
    with pytest.raises(BadParamsError, match="^x vector 0 has entries that"):
        general_construction(F3, [(1, 2, 0)], [(1, 2.5, 0)])
    with pytest.raises(BadParamsError, match="^z vector 1 has entries that"):
        general_construction(F3, [(1, 0, 0), (True, 1, 0)], [(1, 1, 1)])
    with pytest.raises(BadParamsError, match="^x vector 0 has entries that"):
        general_construction(F3, [(1, 2, 0)], np.array([(1, 2, 0)], float))
    with pytest.raises(BadParamsError,
                       match=r"^generator\[0\] vector 0 has entries that"):
        general_construction(F3, [(1, 2, 0)], [(1, 2, 0)],
                             generator_overrides={0: (("0", 0, 1), (1, 1, 0))})


def test_general_construction_takes_int_arrays():
    # z, x and overrides as int arrays of any int dtype build the same
    # design as tuples, and the provenance holds plain-int tuples
    zs, xs = [(1, 0, 0), (0, 1, 1)], [(1, 1, 0), (1, 0, 1), (1, 2, 2)]
    gens = {1: ((0, 1, 0), (1, 0, 2))}
    want = general_construction(F3, zs, xs, 5, generator_overrides=gens)
    for dtype in (np.int64, np.uint8, np.int32):
        got = general_construction(
            F3, np.array(zs, dtype=dtype), np.array(xs, dtype=dtype), 5,
            generator_overrides={1: np.array(gens[1], dtype=dtype)})
        for a, b in ((got.d1, want.d1), (got.d2, want.d2),
                     (got.collapsed, want.collapsed)):
            assert (a.data == b.data).all()
        assert got.provenance == want.provenance
        prov = got.provenance
        for vec in (*prov.z_vectors, *prov.x_vectors,
                    *(c for cols in prov.generator_columns for c in cols)):
            assert type(vec) is tuple
            assert all(type(c) is int for c in vec)


def test_override_errors_name_the_first_x_in_index_order():
    # with several bad overrides the one for the lowest x index is named,
    # whatever its kind and whatever order the dict lists them in
    xs = [(1, 0, 1), (1, 1, 1)]
    malformed = ((0, 1, 0),)
    not_orthogonal = ((0, 1, 0), (1, 0, 0))
    dependent = ((0, 1, 0), (0, 2, 0))
    out_of_field = ((0, 1, 0), (5, 0, 0))
    for overrides, message in [
            ({1: malformed, 0: not_orthogonal},
             r"^override column \(1, 0, 0\) is not orthogonal to x 0$"),
            ({1: dependent, 0: not_orthogonal}, "not orthogonal to x 0$"),
            ({0: dependent, 1: malformed},
             "^override columns for x 0 are linearly dependent$"),
            ({1: dependent, 0: out_of_field},
             r"^generator\[0\] vector 1 has entries outside GF\(3\)$"),
            ({0: malformed, 1: not_orthogonal},
             "^override for x 0 must be 2 columns of length 3$")]:
        with pytest.raises(BadParamsError, match=message):
            general_construction(F3, [(1, 0, 0)], xs,
                                 generator_overrides=overrides)


def test_override_keys_must_be_x_indices():
    # True and 1.0 passed the range check and failed with IndexError;
    # "0" failed with TypeError.  numpy int keys are x indices.
    xs = [(1, 0, 1), (1, 1, 1)]
    gens = ((0, 1, 0), (1, 0, 2))
    for key in (True, False, 1.0, 0.0, "0", None, (0,), -1, 2):
        with pytest.raises(BadParamsError, match=(
                "^generator override for unknown x index")):
            general_construction(F3, [(1, 0, 0)], xs,
                                 generator_overrides={key: gens})
    want = general_construction(F3, [(1, 0, 0)], xs,
                                generator_overrides={0: gens})
    got = general_construction(F3, [(1, 0, 0)], xs,
                               generator_overrides={np.int64(0): gens})
    assert got.provenance == want.provenance
    assert got.provenance.generator_columns[0] == gens


def test_general_construction_has_no_method_or_params_knob():
    # the method tag and the params are the construction's own; a caller
    # could set them to a file read_bundle refuses, or to a seed that did
    # not expand D2
    with pytest.raises(TypeError):
        general_construction(F3, [(1, 2, 0)], [(1, 2, 0)], method="general")
    with pytest.raises(TypeError):
        general_construction(F3, [(1, 2, 0)], [(1, 2, 0)], 5,
                             params=ConstructionParams(s=3, u=3, seed=7))


def _repeating_overrides(field, xs, shared):
    """For each x orthogonal to the column ``shared``, a basis of O(x)
    opening with it, completed by x's canonical columns in order."""
    overrides = {}
    for j, x in enumerate(xs):
        if dot(field, shared, x):
            continue
        basis = [shared]
        for c in orthogonal_complement_basis(field, x).vectors:
            if (len(basis) < len(x) - 1
                    and rank(field, [*basis, c]) == len(basis) + 1):
                basis.append(c)
        overrides[j] = tuple(basis)
    return overrides


def _matches_per_x_reference(field, mcd, overrides=None):
    """Collapsed D2 column j is the method of replacement over the linear
    array of x_j's own generator matrix, built alone, and the provenance
    lists those matrices, one tuple per distinct generator column."""
    gens = [(overrides or {}).get(j)
            or orthogonal_complement_basis(field, x).vectors
            for j, x in enumerate(mcd.provenance.x_vectors)]
    columns = mcd.provenance.generator_columns
    assert columns == tuple(tuple(map(tuple, g)) for g in gens)
    for j, g in enumerate(gens):
        want = method_of_replacement(generate_linear_array(field, g), field.s)
        assert np.array_equal(mcd.collapsed.data[:, j], want), j
    flat = [c for g in columns for c in g]
    assert len({id(c) for c in flat}) == len(set(flat))
    assert mcd.full_verification().passed


def test_d2_from_distinct_columns_matches_the_per_x_reference():
    # the assembler builds each distinct generator column's linear array
    # once; the named grid of the pinned-output test holds no override, no
    # u = 2 design and no field past GF(9)
    xs = admissible_set(F3, 4, 2).vectors
    overrides = _repeating_overrides(F3, xs, (0, 1, 1, 1))
    assert len(overrides) == 6
    _matches_per_x_reference(
        F3, general_construction(F3, [(1, 0, 0, 0)], xs, 5, overrides),
        overrides)
    f5, f7 = galois_field(5), galois_field(7)
    scaled = {0: ((0, 2),), 3: ((4, 2),)}
    _matches_per_x_reference(
        f5, general_construction(f5, [(1, 0)], [(1, t) for t in range(5)],
                                 generator_overrides=scaled), scaled)
    for item in ("i", "ii"):
        _matches_per_x_reference(f7, direct_construction(f7, 2, 1, item, 3))
    # a + b = 0 in characteristic 2 exactly when a = b: the tails (a, a)
    # share the override column (0, 1, 1), and every other x takes the
    # leads stratified_generator_choice picks
    for s, tails in ((16, [(1, 0), (2, 3), (5, 5), (15, 7), (9, 9)]),
                     (32, [(0, 1), (3, 3), (17, 4), (30, 30)])):
        f = galois_field(s)
        xs = [(1, *tail) for tail in tails]
        overrides = {**dict(enumerate(stratified_generator_choice(f, xs))),
                     **_repeating_overrides(f, xs, (0, 1, 1))}
        _matches_per_x_reference(
            f, general_construction(f, [(1, 0, 0)], xs, 1, overrides),
            overrides)


# ---------------------------------------------------------------------------
# named constructions
# ---------------------------------------------------------------------------


def test_named_constructions_assemble_without_the_checked_entrance(
        monkeypatch):
    # each named build hands its own arrays to the assembler: the entrance
    # that checks outside vectors is never called, and counting passes
    def refuse(*args, **kwargs):
        raise AssertionError("named build went through the checked entrance")

    monkeypatch.setattr(construct, "general_construction", refuse)
    f4 = galois_field(4)
    for mcd in (direct_construction(F3, 3, 2, "i"),
                direct_construction(F3, 3, 2, "ii"),
                direct_construction(f4, 3, 2, "i", seed=3),
                subspace_construction(F3, 4, 3, 3, "i"),
                subspace_construction(F3, 4, 3, 2, "ii", seed=7),
                anti_mirror_construction(5, 2),
                anti_mirror_construction(6, 3, seed=7)):
        assert mcd.full_verification().passed


def test_direct_construction_small():
    mcd = direct_construction(F3, 3, 2, "i")
    assert mcd.d1.m == 2
    assert mcd.d2.k == 6
    assert mcd.d1.n == 27
    assert mcd.params.item == "i"
    assert mcd.provenance.method == "theorem1"
    assert mcd.full_verification().passed

    swapped = direct_construction(F3, 3, 2, "ii")
    assert swapped.d1.m == 6
    assert swapped.d2.k == 2
    assert swapped.full_verification().passed
    assert check_oa_strength(swapped.d1, 2).passed

    with pytest.raises(BadParamsError):
        direct_construction(F3, 3, 2, "iii")


def test_direct_construction_column_counts_match_table():
    for u, u1, n_a in DIRECT_TABLE_S3:
        mcd = direct_construction(F3, u, u1, "i")
        assert mcd.d1.m == u1
        assert mcd.d2.k == n_a
        assert mcd.d1.n == 3 ** u
        assert check_oa_strength(mcd.d1, min(u1, u)).passed


def test_direct_construction_verifies_up_to_u4():
    for u, u1, n_a in DIRECT_TABLE_S3:
        if u > 4:
            continue
        for item in ("i", "ii"):
            mcd = direct_construction(F3, u, u1, item)
            assert mcd.full_verification().passed, (u, u1, item)


def test_subspace_construction_golden_params():
    for v, (pair_i, pair_ii) in SUBSPACE_S3_U4_U13_PARAMS.items():
        for item, (oa_params, lhd_params) in (("i", pair_i), ("ii", pair_ii)):
            n, m, s, t = oa_params
            _, k = lhd_params
            mcd = subspace_construction(F3, 4, 3, v, item)
            assert mcd.d1.n == n and mcd.d1.m == m
            assert mcd.d2.k == k
            assert check_oa_strength(mcd.d1, t).passed
            assert mcd.full_verification().passed
            assert mcd.provenance.method == "theorem2"


def test_subspace_construction_v3_generators():
    mcd = subspace_construction(F3, 4, 3, 3, "i")
    assert mcd.provenance.z_vectors == SUBSPACE_V3_GENERATORS


def test_subspace_construction_v_range():
    with pytest.raises(VOutOfRangeError):
        subspace_construction(F3, 4, 3, 0)
    with pytest.raises(VOutOfRangeError):
        subspace_construction(F3, 4, 3, 5)   # search size for u1=3 is 4
    # refused before the closed form, which sums O(v) big-integer terms
    with pytest.raises(VOutOfRangeError):
        subspace_construction(F3, 4, 3, 10 ** 9)


def test_constructions_refuse_u_below_two():
    for build in (lambda: direct_construction(F3, 1, 1),
                  lambda: subspace_construction(F3, 1, 1, 1)):
        with pytest.raises(BadParamsError,
                           match=r"^construction needs u >= 2$"):
            build()


def test_subspace_construction_refuses_v_past_the_prefix_set(monkeypatch):
    # a prefix set below the bound: v between its size and the bound passes
    # the bound check and is refused against the set itself
    full = prefix_set(3, 2)
    assert full.size == independent_prefix_bound(3, 2) == 2
    short = PrefixSearch(3, 2, full.labels[:1], full.prefixes[:1],
                         full.bound, "maximal-within-search")
    monkeypatch.setattr(construct, "prefix_set", lambda s, u1: short)
    with pytest.raises(VOutOfRangeError,
                       match=r"^v=2 outside 1\.\.1 for s=3, u1=2$"):
        subspace_construction(F3, 3, 2, 2)
    assert subspace_construction(F3, 3, 2, 1).full_verification().passed


def test_constructions_build_d1_in_the_type_a_json_file_gives_it(tmp_path):
    for mcd in (direct_construction(F3, 3, 2),
                subspace_construction(F3, 4, 3, 3),
                anti_mirror_construction(4, 2)):
        assert mcd.d1.data.dtype == np.int8
        b = bundle_from_design(mcd)
        path = write_bundle(tmp_path / "d.json", b)
        assert b.d1.dtype == read_bundle(path).d1.dtype


def test_anti_mirror_construction():
    mcd = anti_mirror_construction(4, 2)
    assert mcd.params.s == 2
    assert mcd.d1.n == 16
    assert mcd.d1.m == 2
    assert mcd.d2.k == 4
    assert mcd.provenance.method == "anti-mirror"
    assert mcd.full_verification().passed
    # forced generator leads: (1, 1, tail complement)
    for x, cols in zip(mcd.provenance.x_vectors,
                       mcd.provenance.generator_columns):
        eta = cols[0]
        assert eta[:2] == (1, 1)
        assert eta[2:] == tuple(1 - b for b in x[2:])
    # the promised octant guarantee on every triple of quantitative columns
    for dims in combinations(range(mcd.d2.k), 3):
        assert check_grid_stratification(mcd.d2, dims, (2, 2, 2)).passed


def test_anti_mirror_larger_case():
    mcd = anti_mirror_construction(5, 2)
    assert mcd.d1.n == 32
    assert mcd.d2.k == 8
    assert mcd.full_verification().passed
    for dims in combinations(range(mcd.d2.k), 3):
        assert check_grid_stratification(mcd.d2, dims, (2, 2, 2)).passed


def test_size_caps_reject_before_building():
    f2 = galois_field(2)
    # 8192 runs x (1 + 4096) columns: over the cell cap
    with pytest.raises(TooLargeError, match="cells"):
        direct_construction(f2, 13, 1)
    # 4096 runs x 1024 qualitative columns: only 4.2M cells, but the
    # strength-2 check alone counts 523,776 D1 column pairs
    with pytest.raises(TooLargeError, match="run-pair"):
        direct_construction(f2, 12, 2, "ii")
    with pytest.raises(TooLargeError):
        subspace_construction(f2, 23, 1, 1)
    with pytest.raises(TooLargeError):
        anti_mirror_construction(23, 2)
    with pytest.raises(TooLargeError):
        general_construction(f2, [(1,) * 23], [(1,) + (0,) * 22])
    # the largest theorem1 s=2 u=12 design still fits both caps
    assert 4096 * (2 + 1024) <= MAX_DESIGN_CELLS
    assert 4096 * (2 * 1024 + 1) <= MAX_PAIR_WORK
    construct._check_size(2, 12, 2, 1024)


def test_size_precheck_closed_forms_match_built_designs(monkeypatch):
    # the one size check of a named build, made on closed forms before
    # anything is enumerated, sees the (s, u, m, k) of the built design
    seen = []
    monkeypatch.setattr(construct, "_check_size",
                        lambda *args: seen.append(args))
    builds = [(anti_mirror_construction, (u, u1))
              for u in (4, 5, 6) for u1 in range(2, u - 1)]
    for s in (2, 3, 4, 5):
        f = galois_field(s)
        for u in (2, 3, 4):
            for u1 in range(1, u + 1):
                for item in ("i", "ii"):
                    builds.append((direct_construction, (f, u, u1, item)))
                    nstar = max_independent_prefixes(f, u1).size
                    builds.extend((subspace_construction, (f, u, u1, v, item))
                                  for v in range(1, nstar + 1))
    for build, args in builds:
        seen.clear()
        mcd = build(*args)
        assert seen == [(mcd.params.s, mcd.params.u,
                         mcd.d1.m, mcd.d2.k)], args


def test_anti_mirror_param_validation():
    with pytest.raises(BadParamsError):
        anti_mirror_construction(4, 1)
    with pytest.raises(BadParamsError):
        anti_mirror_construction(4, 3)


def test_stratified_generator_choice():
    xs = [(1, 0, 0), (1, 1, 1), (1, 2, 1), (1, 0, 2)]
    gens = stratified_generator_choice(F3, xs)
    assert len(gens) == 4
    leads = [g[0] for g in gens]
    # leads are normalized and pairwise distinct directions
    assert len(set(leads)) == 4
    for lead in leads:
        assert normalize_direction(F3, lead) == lead
    for x, cols in zip(xs, gens):
        assert len(cols) == 2
        assert rank(F3, cols) == 2
        for c in cols:
            assert dot(F3, c, x) == 0


def test_stratified_generator_choice_grid_guarantee():
    xs = [(1, 0, 0), (1, 1, 1), (1, 2, 1), (1, 0, 2)]
    gens = stratified_generator_choice(F3, xs)
    mcd = general_construction(
        F3, [(1, 0, 0)], xs,
        generator_overrides=dict(enumerate(gens)))
    assert mcd.full_verification().passed
    for pair in combinations(range(mcd.d2.k), 2):
        assert check_grid_stratification(mcd.d2, pair, (3, 3)).passed


def test_stratified_generator_choice_capacity():
    f2 = galois_field(2)
    xs = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)]
    with pytest.raises(TooManyColumnsError):
        stratified_generator_choice(f2, xs)
    assert len(stratified_generator_choice(f2, xs[:3])) == 3


#: stratified_generator_choice on the first capacity-many members of A
#: (u1 = 1) for (s, u) = (2, 4), (3, 3), (3, 4), the inputs of acceptance
#: criterion 9, as the tuple-based chooser gave them
STRATIFIED_PIN = {
    (2, 4): [
        ((0, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0)),
        ((1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0)),
        ((1, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1)),
        ((0, 0, 1, 1), (0, 1, 0, 0), (1, 0, 1, 0)),
        ((0, 0, 1, 0), (1, 1, 0, 0), (0, 0, 0, 1)),
        ((1, 0, 1, 1), (1, 1, 0, 0), (0, 0, 1, 0)),
        ((1, 1, 0, 0), (1, 0, 1, 0), (0, 0, 0, 1))],
    (3, 3): [
        ((0, 0, 1), (0, 1, 0)), ((1, 0, 2), (0, 1, 0)),
        ((1, 0, 1), (0, 1, 0)), ((1, 2, 0), (0, 0, 1))],
    (3, 4): [
        ((0, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0)),
        ((1, 0, 0, 2), (0, 1, 0, 0), (0, 0, 1, 0)),
        ((1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0)),
        ((1, 0, 2, 0), (0, 1, 0, 0), (0, 0, 0, 1)),
        ((1, 0, 1, 1), (0, 1, 0, 0), (2, 0, 1, 0)),
        ((0, 0, 1, 1), (0, 1, 0, 0), (2, 0, 1, 0)),
        ((1, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1)),
        ((1, 0, 2, 1), (0, 1, 0, 0), (1, 0, 1, 0)),
        ((0, 0, 1, 2), (0, 1, 0, 0), (1, 0, 1, 0)),
        ((0, 0, 1, 0), (2, 1, 0, 0), (0, 0, 0, 1)),
        ((1, 0, 1, 2), (2, 1, 0, 0), (0, 0, 1, 0)),
        ((0, 1, 0, 1), (2, 1, 0, 0), (0, 0, 1, 0)),
        ((1, 0, 2, 2), (2, 1, 0, 0), (2, 0, 1, 0))],
}


def test_stratified_generator_choice_pinned():
    for (s, u), want in STRATIFIED_PIN.items():
        f = galois_field(s)
        xs = admissible_set(f, u, 1).vectors[:len(want)]
        assert stratified_generator_choice(f, xs) == want
        assert stratified_generator_choice(f, np.array(xs)) == want


def test_stratified_generator_choice_validation():
    with pytest.raises(BadParamsError):
        stratified_generator_choice(F3, [])
    with pytest.raises(ZeroVectorError):
        stratified_generator_choice(F3, [(0, 0, 0)])
    with pytest.raises(ProportionalVectorsError):
        stratified_generator_choice(F3, [(1, 1, 0), (2, 2, 0)])
    with pytest.raises(ProportionalVectorsError, match="x vectors 0 and 3"):
        stratified_generator_choice(F3, ABBA_X)
    with pytest.raises(BadParamsError):
        stratified_generator_choice(F3, [(1, 0, 0), (1, 0)])
    with pytest.raises(BadParamsError):
        stratified_generator_choice(F3, [(1,)])


# ---------------------------------------------------------------------------
# seeding
# ---------------------------------------------------------------------------


def test_seeded_construction_reproducible():
    a = direct_construction(F3, 3, 2, "i", seed=99)
    b = direct_construction(F3, 3, 2, "i", seed=99)
    assert (a.d2.data == b.d2.data).all()
    c = direct_construction(F3, 3, 2, "i", seed=100)
    assert (a.d2.data != c.d2.data).any()
    # seeds permute within windows only: the collapsed design is fixed
    assert (a.collapsed.data == c.collapsed.data).all()
    assert a.full_verification().passed
    assert c.full_verification().passed
