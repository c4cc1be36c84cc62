"""Acceptance gate: one test per claimed property, brute-force verified.

Every criterion prints exactly one [PASS]/[FAIL] line (visible without -s)
and then asserts, so `pytest tests/test_acceptance.py` doubles as a
human-readable conformance report.  All comparisons are exact integer
equalities.
"""

from functools import lru_cache
from itertools import combinations, product

import numpy as np

from mcd_forge.bundle import bundle_from_design, read_bundle, write_bundle
from mcd_forge.catalog import all_rows, direct_rows, materialize, subspace_rows, verify_row
from mcd_forge.construct import (
    admissible_set,
    anti_mirror_construction,
    common_nonorthogonal,
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
from mcd_forge.designs import (
    CollapsedDesign,
    LatinHypercube,
    OrthogonalArray,
    collapse_levels,
    expand_levels,
)
from mcd_forge.errors import TooManyColumnsError
from mcd_forge.gf import galois_field
from mcd_forge.linalg import (
    dot,
    enumerate_span,
    normalize_direction,
    orthogonal_complement_basis,
    rank,
)
from mcd_forge.verify import (
    check_grid_stratification,
    check_mcd,
    check_mcd_by_slices,
    check_noncascading,
    check_oa_strength,
)
from golden_data import (
    DIRECT_TABLE_S3,
    EXAMPLE1_COLLAPSED,
    EXAMPLE1_NULL_SPACE,
    EXAMPLE1_QUALITATIVE,
    INTERSECTION_SIZES_S3_U13,
    MAX_PREFIX_LABELS_S3,
    MAX_PREFIX_SIZES_S3,
    NONORTHOGONAL_SETS,
    PARTITION_GROUPS,
    PARTITION_PREFIXES,
    SUBSPACE_S3_U4_U13_PARAMS,
    SUBSPACE_TABLE_S3,
    SUBSPACE_V3_GENERATORS,
)

F3 = galois_field(3)


def _checked(capsys, number, name, body):
    try:
        ok = bool(body())
        note = ""
    except Exception as exc:
        ok = False
        note = f" -- {type(exc).__name__}: {exc}"
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] acceptance {number:02d}: {name}{note}")
    assert ok, f"acceptance criterion {number} ({name}) failed{note}"


@lru_cache(maxsize=1)
def _constructed_designs():
    """Every construction path the package offers, at desk scale: both
    pairings of every catalog row with up to 81 runs, the anti-mirror
    family, the worked example, and a couple of seeded variants."""
    designs = [
        general_construction(F3, [(1, 2, 0)], [(1, 2, 0)],
                             generator_overrides={0: ((0, 0, 1), (1, 1, 0))}),
        subspace_construction(F3, 4, 3, 3, "i"),
        subspace_construction(F3, 4, 3, 2, "ii", seed=7),
        anti_mirror_construction(4, 2),
        anti_mirror_construction(5, 2, seed=7),
        anti_mirror_construction(5, 3),
    ]
    for s, u_max in ((2, 4), (3, 4)):
        for row in all_rows(s, u_max):
            for item in ("i", "ii"):
                designs.append(materialize(row, item))
    return tuple(designs)


def test_criterion_01_worked_example(capsys):
    def body():
        mcd = general_construction(
            F3, [(1, 2, 0)], [(1, 2, 0)],
            generator_overrides={0: ((0, 0, 1), (1, 1, 0))})
        qual = tuple(int(v) for v in mcd.d1.data[:, 0])
        coll = tuple(int(v) for v in mcd.collapsed.data[:, 0])
        basis = orthogonal_complement_basis(F3, (1, 2, 0))
        return (qual == EXAMPLE1_QUALITATIVE
                and coll == EXAMPLE1_COLLAPSED
                and set(enumerate_span(basis)) == EXAMPLE1_NULL_SPACE)

    _checked(capsys, 1, "27-run worked example reproduced entry-for-entry",
             body)


def test_criterion_02_admissible_count_formula(capsys):
    def body():
        for s in (2, 3, 4, 5):
            f = galois_field(s)
            for u in range(1, 6):
                for u1 in range(1, u + 1):
                    if admissible_set(f, u, u1).size != \
                            (s - 1) ** (u1 - 1) * s ** (u - u1):
                        return False
        return True

    _checked(capsys, 2, "admissible-set size matches the closed form "
             "for s in {2,3,4,5}, u <= 5", body)


def test_criterion_03_intersection_size_formula(capsys):
    def body():
        # printed sizes for u1 = 3, consecutive label choices
        part = partition_admissible(admissible_set(F3, 4, 3))
        labels3 = MAX_PREFIX_LABELS_S3[3]
        for v in range(1, 5):
            inter = common_nonorthogonal(part, labels3[:v])
            if inter.size != INTERSECTION_SIZES_S3_U13[v - 1]:
                return False
        # every nonempty subset of every maximum prefix set
        for u1, labels in MAX_PREFIX_LABELS_S3.items():
            part = partition_admissible(admissible_set(F3, u1, u1))
            for v in range(1, len(labels) + 1):
                for sub in combinations(labels, v):
                    inter = common_nonorthogonal(part, sub)
                    if not inter.prefixes_independent:
                        return False
                    if inter.size != expected_intersection_size(3, u1, v):
                        return False
        return True

    _checked(capsys, 3, "enumerated intersection sizes match the "
             "closed form on every prefix subset", body)


def test_criterion_04_partition_tables(capsys):
    def body():
        part = partition_admissible(admissible_set(F3, 4, 3))
        if part.prefixes != PARTITION_PREFIXES:
            return False
        if part.groups != PARTITION_GROUPS:
            return False
        return all(
            frozenset(nonorthogonal_combos(part, i).vectors)
            == NONORTHOGONAL_SETS[i]
            for i in range(4))

    _checked(capsys, 4, "admissible partition and per-prefix clash sets "
             "match the reference tables", body)


def test_criterion_05_subspace_family_parameters(capsys):
    def body():
        mcd = subspace_construction(F3, 4, 3, 3, "i")
        if mcd.provenance.z_vectors != SUBSPACE_V3_GENERATORS:
            return False
        if mcd.d1.data.shape != (81, 4) or mcd.d2.data.shape != (81, 9):
            return False
        for v, pairs in SUBSPACE_S3_U4_U13_PARAMS.items():
            for item, ((n, m, s, t), (_, k)) in zip(("i", "ii"), pairs):
                built = subspace_construction(F3, 4, 3, v, item)
                if built.d1.data.shape != (n, m):
                    return False
                if built.d2.data.shape != (n, k):
                    return False
                if not check_oa_strength(built.d1, min(t, m)).passed:
                    return False
        return True

    _checked(capsys, 5, "subspace family reproduces the published "
             "generators and all eight parameter cells", body)


def test_criterion_06_catalog_fidelity(capsys):
    def body():
        rows1 = direct_rows(3, 5)
        rows2 = subspace_rows(3, 5)
        if len(rows1) != len(DIRECT_TABLE_S3):
            return False
        if len(rows2) != len(SUBSPACE_TABLE_S3):
            return False
        for row, (u, u1, n_a) in zip(rows1, DIRECT_TABLE_S3):
            n = 3 ** u
            if (row.u, row.u1, row.n_a) != (u, u1, n_a):
                return False
            if row.d1_i != (n, u1, 3, u1) or row.d2_i != (n, n_a):
                return False
            if row.d1_ii != (n, n_a, 3, 2) or row.d2_ii != (n, u1):
                return False
        for row, (u, u1, v, star, g, free, k) in zip(rows2, SUBSPACE_TABLE_S3):
            n = 3 ** u
            if (row.u, row.u1, row.v, row.star) != (u, u1, v, star):
                return False
            if (row.g, row.free_coords, row.k) != (g, free, k):
                return False
            if row.d1_i != (n, g, 3, 2) or row.d2_i != (n, k):
                return False
            if row.d1_ii != (n, k, 3, 2) or row.d2_ii != (n, g):
                return False
        return all(verify_row(r).passed for r in rows1 + rows2)

    _checked(capsys, 6, "catalog matches the reference tables "
             "field-for-field and every row verifies", body)


def test_criterion_07_prefix_search_maximum(capsys):
    def body():
        for u1, labels in MAX_PREFIX_LABELS_S3.items():
            search = max_independent_prefixes(F3, u1)
            if search.size != MAX_PREFIX_SIZES_S3[u1]:
                return False
            if search.labels != labels:
                return False
            if search.size > independent_prefix_bound(3, u1):
                return False
            # both the found set and the published set re-verified by rank
            cands = [(1,) + tail
                     for tail in product(range(1, 3), repeat=u1 - 1)]
            kk = min(search.size, u1)
            for vecs in (search.prefixes,
                         tuple(cands[i] for i in labels)):
                if any(rank(F3, sub) != kk
                       for sub in combinations(vecs, kk)):
                    return False
        return True

    _checked(capsys, 7, "maximum independent-prefix search returns the "
             "known sizes and valid label sets within the bound", body)


def test_criterion_08_octant_stratification(capsys):
    def body():
        weights = np.array([4, 2, 1], dtype=np.int64)
        for u, u1 in ((5, 2), (5, 3), (6, 2), (6, 3), (6, 4)):
            mcd = anti_mirror_construction(u, u1)
            tilde = mcd.collapsed.data
            n = tilde.shape[0]
            nlev = n // 2
            for dims in combinations(range(tilde.shape[1]), 3):
                if not check_grid_stratification(mcd.d2, dims,
                                                 (2, 2, 2)).passed:
                    return False
                # independent route: count octants on the collapsed design
                cells = tilde[:, dims] * 2 // nlev
                counts = np.bincount(cells @ weights, minlength=8)
                if (counts != n // 8).any():
                    return False
        return True

    _checked(capsys, 8, "anti-mirror designs stratify every quantitative "
             "triple on the 2x2x2 grid", body)


def test_criterion_09_pairwise_grid_stratification(capsys):
    def body():
        for s, u in ((2, 4), (3, 3), (3, 4)):
            f = galois_field(s)
            cap = (s ** (u - 1) - 1) // (s - 1)
            avecs = admissible_set(f, u, 1).vectors
            xs = list(avecs[:cap])
            gens = stratified_generator_choice(f, xs)
            mcd = general_construction(
                f, [(1,) + (0,) * (u - 1)], xs,
                generator_overrides=dict(enumerate(gens)))
            if not mcd.full_verification().passed:
                return False
            for pair in combinations(range(mcd.d2.k), 2):
                if not check_grid_stratification(mcd.d2, pair,
                                                 (s, s)).passed:
                    return False
            try:
                stratified_generator_choice(f, list(avecs[:cap + 1]))
                return False
            except TooManyColumnsError:
                pass
        return True

    _checked(capsys, 9, "capacity-many quantitative columns stratify "
             "pairwise on the s x s grid; one more is rejected", body)


def test_criterion_10_full_intersection_closed_form(capsys):
    def body():
        for s in (2, 3, 5):
            f = galois_field(s)
            for u1 in range(1, 5):
                part = partition_admissible(admissible_set(f, u1, u1))
                inter = common_nonorthogonal(part, range(part.group_count))
                if s == 2:
                    closed = {z for z in unit_combinations(f, u1, u1)
                              if sum(1 for c in z if c) % 2 == 1}
                else:
                    closed = set()
                    for i in range(u1):
                        for a in range(1, s):
                            vec = [0] * u1
                            vec[i] = a
                            closed.add(tuple(vec))
                if set(inter.vectors) != closed:
                    return False
        return True

    _checked(capsys, 10, "intersection over all prefixes equals the "
             "closed form (odd-weight sums for s=2, scaled units beyond)",
             body)


def test_criterion_11_pairing_witness_exhaustive(capsys):
    def body():
        for s in (3, 5):
            f = galois_field(s)
            for u1 in range(1, 5):
                aset = frozenset(admissible_set(f, u1, u1).vectors)
                for z in unit_combinations(f, u1, u1):
                    if sum(1 for c in z if c) < 2:
                        continue
                    w = orthogonal_witness(f, u1, u1, z)
                    if dot(f, z, w) != 0:
                        return False
                    if normalize_direction(f, w) not in aset:
                        return False
        return True

    _checked(capsys, 11, "every multi-coefficient combination admits an "
             "admissible orthogonal witness -- exhaustive for s in {3,5}",
             body)


def test_criterion_12_oracle_agreement(capsys):
    def body():
        rng = np.random.default_rng(20250612)
        for i in range(1000):
            s, n = ((2, 8), (3, 9), (3, 27))[i % 3]
            m = int(rng.integers(1, 4))
            k = int(rng.integers(1, 3))
            d1 = OrthogonalArray(rng.integers(0, s, size=(n, m)), (s,) * m)
            d2 = LatinHypercube(np.stack(
                [rng.permutation(n) for _ in range(k)], axis=1))
            if check_mcd(d1, d2, s).passed \
                    != check_mcd_by_slices(d1, d2, s).passed:
                return False
        for mcd in _constructed_designs():
            s = mcd.params.s
            if not check_mcd(mcd.d1, mcd.d2, s).passed:
                return False
            if not check_mcd_by_slices(mcd.d1, mcd.d2, s).passed:
                return False
        return True

    _checked(capsys, 12, "pair-balance and window-counting coupling "
             "oracles agree on 1000 random and all constructed designs",
             body)


def test_criterion_13_non_cascading(capsys):
    def body():
        for mcd in _constructed_designs():
            if not check_noncascading(mcd.collapsed).passed:
                return False
        # the 243-run rows, checked on their collapsed forms only
        for row in all_rows(3, 5):
            if row.u != 5:
                continue
            for item in ("i", "ii"):
                built = materialize(row, item)
                if not check_noncascading(built.collapsed).passed:
                    return False
        return True

    _checked(capsys, 13, "every constructed quantitative design is "
             "non-cascading after level collapse", body)


def test_criterion_14_round_trip_determinism(capsys, tmp_path):
    def body():
        mcd = subspace_construction(F3, 4, 3, 2, "i", seed=31)
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        write_bundle(p1, bundle_from_design(mcd))
        rb = read_bundle(p1)
        d1, d2 = rb.design_objects()
        if not check_mcd(d1, d2, rb.s).passed:
            return False
        if not check_noncascading(collapse_levels(d2, rb.s)).passed:
            return False
        again = subspace_construction(F3, 4, 3, 2, "i", seed=31)
        write_bundle(p2, bundle_from_design(again))
        if p1.read_bytes() != p2.read_bytes():
            return False
        rng = np.random.default_rng(606)
        for i in range(500):
            s = (2, 3, 5)[i % 3]
            nlev = int(rng.integers(2, 7))
            k = int(rng.integers(1, 4))
            data = np.stack(
                [rng.permutation(np.repeat(np.arange(nlev), s))
                 for _ in range(k)], axis=1)
            cd = CollapsedDesign(s, data)
            seed = int(rng.integers(0, 2 ** 31)) if i % 4 else "identity"
            expanded = expand_levels(cd, s, seed)
            if (collapse_levels(expanded, s).data != data).any():
                return False
        return True

    _checked(capsys, 14, "files round-trip byte-identically under equal "
             "seeds; collapse inverts expansion on 500 random designs",
             body)
