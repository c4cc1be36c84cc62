"""Vector enumeration, rank, and linear-array generation over GF(s)."""

from itertools import combinations
from time import perf_counter

import numpy as np
import pytest

from mcd_forge.construct import (
    admissible_set,
    common_nonorthogonal,
    general_construction,
    max_independent_prefixes,
    partition_admissible,
    unit_combinations,
)
from mcd_forge.errors import BadParamsError, TooLargeError, ZeroVectorError
from mcd_forge.gf import galois_field
from mcd_forge.linalg import (
    ENUMERATION_CAP,
    _completed_bases,
    _kept_rows,
    SubspaceBasis,
    dot,
    enumerate_span,
    enumerate_tuples,
    generate_linear_array,
    is_proportional,
    normalize_direction,
    orthogonal_complement_basis,
    rank,
)
from golden_data import EXAMPLE1_NULL_SPACE, EXAMPLE1_QUALITATIVE


def test_enumerate_tuples_binary_order():
    f2 = galois_field(2)
    assert enumerate_tuples(f2, 3) == [
        (0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1),
        (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1),
    ]


def test_enumerate_tuples_ternary_order():
    f3 = galois_field(3)
    assert enumerate_tuples(f3, 2) == [
        (0, 0), (0, 1), (0, 2),
        (1, 0), (1, 1), (1, 2),
        (2, 0), (2, 1), (2, 2),
    ]


def test_enumerate_tuples_digit_formula():
    # vector at position r spells r in base s, first coordinate most
    # significant
    for s, u in [(2, 5), (3, 4), (4, 3), (5, 3)]:
        f = galois_field(s)
        vecs = enumerate_tuples(f, u)
        assert len(vecs) == s ** u
        assert len(set(vecs)) == s ** u
        for r in (0, 1, s, s ** u - 1, s ** (u - 1)):
            expected = tuple((r // s ** (u - 1 - i)) % s for i in range(u))
            assert vecs[r] == expected


def test_enumerate_tuples_rejects_bad_dimension():
    f3 = galois_field(3)
    with pytest.raises(ValueError):
        enumerate_tuples(f3, 0)


def test_enumeration_cap():
    # 32**5 = 33_554_432 > cap, 32**4 is fine
    f32 = galois_field(32)
    assert 32 ** 5 > ENUMERATION_CAP
    with pytest.raises(TooLargeError):
        enumerate_tuples(f32, 5)
    assert len(enumerate_tuples(f32, 4)) == 32 ** 4


def test_enumeration_cap_never_computes_a_huge_power():
    # 2^20000 has 6,021 digits: formatting it into the message raised a
    # bare ValueError, and 2^(10^8) took most of a second to compute
    f2 = galois_field(2)
    message = r"^2\^20000 exceeds the enumeration cap of 10000000$"
    for call in (lambda: enumerate_tuples(f2, 20000),
                 lambda: admissible_set(f2, 20000, 1),
                 lambda: unit_combinations(f2, 20000, 20000)):
        with pytest.raises(TooLargeError, match=message):
            call()
    with pytest.raises(TooLargeError, match=r"^2\^19999 exceeds"):
        max_independent_prefixes(galois_field(3), 20000)
    start = perf_counter()
    with pytest.raises(TooLargeError, match=r"^2\^100000000 exceeds"):
        admissible_set(f2, 10 ** 8, 1)
    assert perf_counter() - start < 0.1
    # up to u = 64 the message keeps the value
    with pytest.raises(TooLargeError, match=(
            r"^2\^64 = 18446744073709551616 exceeds the enumeration cap")):
        enumerate_tuples(f2, 64)


def test_dot():
    f3 = galois_field(3)
    assert dot(f3, (1, 2, 0), (1, 1, 0)) == 0
    assert dot(f3, (1, 2, 0), (0, 0, 1)) == 0
    assert dot(f3, (1, 2, 0), (1, 0, 0)) == 1
    assert dot(f3, (2, 2), (2, 2)) == 2
    with pytest.raises(ValueError):
        dot(f3, (1, 2), (1, 2, 0))


def test_dot_characteristic_two():
    # in GF(4) every element cancels itself, so x.x sums squares
    f4 = galois_field(4)
    assert dot(f4, (1, 1), (1, 1)) == 0
    assert dot(f4, (2, 2), (2, 2)) == 0
    # x^2 over GF(4): 2*2 = 3, 3*3 = 2
    assert dot(f4, (2, 0), (2, 0)) == 3
    assert dot(f4, (3, 0), (3, 0)) == 2


def test_normalize_direction():
    f3 = galois_field(3)
    assert normalize_direction(f3, (1, 2, 0)) == (1, 2, 0)
    assert normalize_direction(f3, (2, 1, 0)) == (1, 2, 0)
    assert normalize_direction(f3, (0, 2, 1)) == (0, 1, 2)
    with pytest.raises(ZeroVectorError):
        normalize_direction(f3, (0, 0, 0))


def test_normalize_direction_extension_field():
    f4 = galois_field(4)
    # inv(2) = 3 in GF(4), and 3*3 = 2
    assert normalize_direction(f4, (2, 3)) == (1, 2)
    # every nonzero scaling lands on the same representative
    for c in range(1, f4.s):
        scaled = tuple(int(f4.mul_table[c, e]) for e in (1, 3, 0, 2))
        assert normalize_direction(f4, scaled) == (1, 3, 0, 2)


def test_is_proportional():
    f3 = galois_field(3)
    assert is_proportional(f3, (1, 2, 0), (2, 1, 0))
    assert not is_proportional(f3, (1, 2, 0), (1, 1, 0))
    assert is_proportional(f3, (0, 0), (0, 0))
    assert not is_proportional(f3, (0, 0), (0, 1))
    assert not is_proportional(f3, (0, 1), (0, 0))


def test_rank_golden_cases():
    f3 = galois_field(3)
    assert rank(f3, []) == 0
    assert rank(f3, [(0, 0, 0)]) == 0
    assert rank(f3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]) == 3
    assert rank(f3, [(1, 2, 0), (2, 1, 0)]) == 1
    assert rank(f3, [(1, 1, 0), (0, 0, 1), (1, 1, 1)]) == 2
    # more vectors than dimensions
    assert rank(f3, enumerate_tuples(f3, 2)) == 2


def test_rank_is_invariant_under_row_operations():
    rng = np.random.default_rng(20240311)
    for s in (2, 3, 4, 5, 9):
        f = galois_field(s)
        for _ in range(20):
            m = rng.integers(1, 5)
            u = rng.integers(1, 5)
            rows = [tuple(int(v) for v in rng.integers(0, s, u))
                    for _ in range(m)]
            r = rank(f, rows)
            assert 0 <= r <= min(m, u)
            # appending a linear combination of existing rows never
            # raises the rank
            coeffs = rng.integers(0, s, m)
            combo = [0] * u
            for c, row in zip(coeffs, rows):
                combo = [int(f.add_table[a, f.mul_table[c, b]])
                         for a, b in zip(combo, row)]
            assert rank(f, rows + [tuple(combo)]) == r
            # permuting the rows changes nothing
            perm = rng.permutation(m)
            assert rank(f, [rows[i] for i in perm]) == r


def _array_strength(arr: np.ndarray, s: int) -> int:
    """Brute-force strength of an array by counting level combinations."""
    n, m = arr.shape
    best = 0
    for t in range(1, m + 1):
        if s ** t > n:
            break
        balanced = True
        for combo in combinations(range(m), t):
            _, counts = np.unique(arr[:, combo], axis=0, return_counts=True)
            if len(counts) != s ** t or (counts != n // s ** t).any():
                balanced = False
                break
        if not balanced:
            break
        best = t
    return best


def test_prefixes_independent_matches_counting_oracle():
    # every min(v, u1) of the prefixes are independent exactly when the
    # array they generate has strength min(v, u1), which counting shows
    # without a rank call
    rng = np.random.default_rng(1111)
    seen = set()
    for s, u1 in [(3, 3), (3, 4), (4, 3), (5, 3), (5, 4), (7, 3)]:
        f = galois_field(s)
        part = partition_admissible(admissible_set(f, u1, u1))
        count = part.group_count
        best = max_independent_prefixes(f, u1).labels
        # the maximum set, then one label more where one is left:
        # independent, then not
        subsets = [best] + [best + (i,) for i in range(count)
                            if i not in best][:1]
        for _ in range(12):
            v = int(rng.integers(1, min(count, u1 + 3) + 1))
            subsets.append(tuple(int(i) for i in
                                 rng.choice(count, v, replace=False)))
        for sub in subsets:
            prefixes = [part.prefixes[i] for i in sub]
            strength = _array_strength(generate_linear_array(f, prefixes), s)
            independent = common_nonorthogonal(part, sub).prefixes_independent
            assert independent == (strength == min(len(sub), u1)), (s, sub)
            seen.add((len(sub) > u1, independent))
    assert seen == {(False, False), (False, True), (True, False),
                    (True, True)}


def test_orthogonal_complement_basis_golden():
    f3 = galois_field(3)
    basis = orthogonal_complement_basis(f3, (1, 2, 0))
    assert basis.vectors == ((1, 1, 0), (0, 0, 1))
    assert basis.dim == 2
    assert basis.ambient_dim == 3


def test_orthogonal_complement_spans_example_null_space():
    f3 = galois_field(3)
    basis = orthogonal_complement_basis(f3, (1, 2, 0))
    assert set(enumerate_span(basis)) == EXAMPLE1_NULL_SPACE


def test_orthogonal_complement_basis_properties():
    rng = np.random.default_rng(555)
    for s in (2, 3, 4, 5, 8, 9):
        f = galois_field(s)
        for _ in range(15):
            u = int(rng.integers(2, 6))
            x = tuple(int(v) for v in rng.integers(0, s, u))
            if not any(x):
                continue
            basis = orthogonal_complement_basis(f, x)
            assert basis.dim == u - 1
            assert rank(f, basis.vectors) == u - 1
            for b in basis.vectors:
                assert dot(f, b, x) == 0
            # scaling x leaves the canonical basis unchanged
            c = int(rng.integers(1, s))
            scaled = tuple(int(f.mul_table[c, e]) for e in x)
            assert orthogonal_complement_basis(f, scaled).vectors == basis.vectors


def test_orthogonal_complement_rejects_zero():
    f3 = galois_field(3)
    with pytest.raises(ZeroVectorError):
        orthogonal_complement_basis(f3, (0, 0, 0))


def test_enumerate_span_order_and_degenerate_dim():
    f3 = galois_field(3)
    basis = SubspaceBasis(f3, 3, ((0, 0, 1), (1, 1, 0)))
    span = enumerate_span(basis)
    assert len(span) == 9
    assert span[0] == (0, 0, 0)
    # coefficients run in base-s order over the basis as given
    assert span[1] == (1, 1, 0)
    assert span[3] == (0, 0, 1)
    assert span[4] == (1, 1, 1)
    empty = SubspaceBasis(f3, 3, ())
    assert enumerate_span(empty) == [(0, 0, 0)]


def _completed(field, x, forced):
    """``_completed_bases`` for one x, as a tuple of column tuples."""
    xs = np.array([x], dtype=np.int64)
    stack = np.array(forced, dtype=np.int64).reshape(1, -1, len(x))
    return tuple(map(tuple, _completed_bases(field, xs, stack)[0].tolist()))


def test_completed_bases():
    f3 = galois_field(3)
    # forcing the worked example's first generator first
    cols = _completed(f3, (1, 2, 0), ((0, 0, 1),))
    assert cols == ((0, 0, 1), (1, 1, 0))
    assert rank(f3, cols) == 2
    # nothing forced: the canonical basis comes back
    assert _completed(f3, (1, 2, 0), ()) == ((1, 1, 0), (0, 0, 1))
    with pytest.raises(ValueError, match="not linearly independent"):
        _completed(f3, (1, 2, 0), ((1, 1, 0), (2, 2, 0)))
    # several x's in one call, each completed on its own
    xs = np.array([(1, 2, 0), (0, 1, 1)])
    forced = np.array([[(0, 0, 1)], [(1, 0, 0)]])
    assert _completed_bases(f3, xs, forced).tolist() == [
        [[0, 0, 1], [1, 1, 0]], [[1, 0, 0], [0, 2, 1]]]


def test_completed_bases_keeps_forced_columns_first():
    rng = np.random.default_rng(2718)
    for s in (2, 3, 4):
        f = galois_field(s)
        for _ in range(10):
            u = int(rng.integers(3, 6))
            x = tuple(int(v) for v in rng.integers(0, s, u))
            if not any(x):
                continue
            full = orthogonal_complement_basis(f, x).vectors
            keep = int(rng.integers(1, u - 1))
            forced = tuple(full[i] for i in rng.permutation(u - 1)[:keep])
            cols = _completed(f, x, forced)
            assert cols[:keep] == forced
            assert len(cols) == u - 1
            assert rank(f, cols) == u - 1
            for c in cols:
                assert dot(f, c, x) == 0


def test_generate_linear_array_worked_example_column():
    f3 = galois_field(3)
    arr = generate_linear_array(f3, [(1, 2, 0)])
    assert arr.shape == (27, 1)
    assert tuple(int(v) for v in arr[:, 0]) == EXAMPLE1_QUALITATIVE


def _linear_array_by_grid(f, columns):
    """Reference build: the full (s^u, u) coefficient grid by the digit
    formula, then one multiply and one add gather per coordinate."""
    s, u = f.s, len(columns[0])
    r = np.arange(s ** u)
    lam = np.stack([(r // s ** (u - 1 - i)) % s for i in range(u)], axis=1)
    gen = np.array(columns, dtype=np.int64).T
    out = np.zeros((s ** u, gen.shape[1]), dtype=np.int64)
    for i in range(u):
        out = f.add_table[out, f.mul_table[lam[:, i][:, None],
                                           gen[i][None, :]]]
    return out


def test_generate_linear_array_rows_are_dot_products():
    f4 = galois_field(4)
    cols = [(1, 0), (0, 1), (1, 1), (1, 2), (1, 3)]
    arr = generate_linear_array(f4, cols)
    assert arr.shape == (16, 5)
    lams = enumerate_tuples(f4, 2)
    for r in (0, 1, 5, 15):
        for j, c in enumerate(cols):
            assert arr[r, j] == dot(f4, lams[r], c)
    # five pairwise-independent columns: a strength-2 array
    assert _array_strength(arr, 4) == 2
    # the coordinate-at-a-time build equals the grid-and-gather reference
    # for every supported field and every u with s^u <= 4096
    rng = np.random.default_rng(4096)
    for s in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29,
              31, 32):
        f = galois_field(s)
        u = 1
        while s ** u <= 4096:
            cols = [tuple(int(v) for v in rng.integers(0, s, u))
                    for _ in range(3)]
            got = generate_linear_array(f, cols)
            assert got.dtype == np.int64
            assert (got == _linear_array_by_grid(f, cols)).all(), (s, u)
            u += 1


def test_generate_linear_array_balanced_columns():
    rng = np.random.default_rng(1401)
    for s in (2, 3, 5, 8):
        f = galois_field(s)
        u = 3
        for _ in range(5):
            col = tuple(int(v) for v in rng.integers(0, s, u))
            if not any(col):
                continue
            arr = generate_linear_array(f, [col])
            counts = np.bincount(arr[:, 0], minlength=s)
            assert (counts == s ** (u - 1)).all()


def test_generate_linear_array_input_validation():
    f3 = galois_field(3)
    with pytest.raises(ValueError):
        generate_linear_array(f3, [])
    with pytest.raises(ValueError):
        generate_linear_array(f3, [(1, 0, 0), (1, 0)])
    with pytest.raises(ValueError):
        generate_linear_array(f3, [()])
    # over the enumeration cap: raised before anything is built
    assert 2 ** 24 > ENUMERATION_CAP and 32 ** 5 > ENUMERATION_CAP
    with pytest.raises(TooLargeError):
        generate_linear_array(galois_field(2), [(1,) * 24])
    with pytest.raises(TooLargeError):
        generate_linear_array(galois_field(32), [(1, 0, 0, 0, 0)])


def _reference_rank(f, vectors):
    """The scalar Gaussian elimination ``rank`` replaced: one table lookup
    per entry, row by row."""
    add, mul, neg, inv = (t.tolist() for t in (
        f.add_table, f.mul_table, f.neg_table, f.inv_table))
    rows = [list(v) for v in vectors]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [mul[inv[rows[r][c]]][v] for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                g = rows[i][c]
                rows[i] = [add[a][neg[mul[g][b]]]
                           for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r


def test_rank_matches_scalar_elimination():
    rng = np.random.default_rng(31337)
    for s in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32):
        f = galois_field(s)
        for _ in range(25):
            count, u = (int(v) for v in rng.integers(1, 7, 2))
            rows = rng.integers(0, s, (count, u))
            # zero entries and repeated rows make low ranks likely
            rows[rng.random((count, u)) < 0.3] = 0
            if count > 1 and rng.random() < 0.3:
                rows[-1] = f.mul_table[int(rng.integers(0, s)), rows[0]]
            vectors = [tuple(int(v) for v in row) for row in rows]
            assert rank(f, vectors) == _reference_rank(f, vectors), vectors


def _kept_by_span(f, matrix, limit):
    """Reference for ``_kept_rows`` on one matrix: a row is kept iff fewer
    than ``limit`` rows are kept so far and it lies outside the span of
    the rows kept before it, enumerated through ``generate_linear_array``."""
    u = matrix.shape[1]
    kept, flags = [], []
    for row in map(tuple, matrix.tolist()):
        span = ({(0,) * u} if not kept else set(map(tuple, (
            generate_linear_array(f, list(zip(*kept))).tolist()))))
        flags.append(len(kept) < limit and row not in span)
        if flags[-1]:
            kept.append(row)
    return flags


@pytest.mark.parametrize("s", [2, 3, 4, 5, 8, 9])
def test_kept_rows_matches_span_enumeration(s):
    f = galois_field(s)
    rng = np.random.default_rng(700 + s)
    for count, r, u in [(3, 0, 3), (0, 4, 3), (12, 1, 1), (12, 4, 3),
                        (12, 6, 4), (8, 5, 2)]:
        stack = rng.integers(0, s, (count, r, u))
        stack[rng.random((count, r, u)) < 0.3] = 0
        if r >= 3:
            stack[::3, 1] = 0                          # a zero row
            stack[1::3, 1] = stack[1::3, 0]            # a repeated row
            # a dependent row: c * row 0 + row 1
            c = rng.integers(0, s, len(stack[2::3]))[:, None]
            stack[2::3, 2] = f.add_table[f.mul_table[c, stack[2::3, 0]],
                                         stack[2::3, 1]]
        for limit in (None, 1, 2):
            got = _kept_rows(f, stack, limit)
            assert got.shape == (count, r)
            for matrix, flags in zip(stack, got):
                want = _kept_by_span(f, matrix, u if limit is None else limit)
                assert flags.tolist() == want, (matrix.tolist(), limit)
                # the rank is the number of rows kept without a limit
                if limit is None:
                    assert rank(f, matrix.tolist()) == sum(want)


def test_entry_points_reject_invalid_vectors():
    f3 = galois_field(3)
    # a negative entry used to wrap through numpy's negative indexing:
    # -1 was read as 2
    with pytest.raises(BadParamsError,
                       match=r"^vector 0 has entries outside GF\(3\)"):
        rank(f3, [(-1, 0), (2, 0)])
    with pytest.raises(BadParamsError, match=r"^generator column 0 has"):
        generate_linear_array(f3, [(-1, 0)])
    with pytest.raises(BadParamsError, match=r"^vector 0 has"):
        orthogonal_complement_basis(f3, (-1, 1, 0))
    # an entry >= s, where numpy raised a bare IndexError
    with pytest.raises(BadParamsError, match=r"^vector 1 has"):
        rank(f3, [(0, 1), (3, 0)])
    with pytest.raises(BadParamsError, match=r"^generator column 2 has"):
        generate_linear_array(f3, [(1, 0), (0, 1), (0, 5)])
    with pytest.raises(BadParamsError, match=r"^vector 1 has"):
        dot(f3, (1, 1), (1, 3))
    with pytest.raises(BadParamsError):
        normalize_direction(f3, (0, -2))
    # ragged rows, where numpy raised its "inhomogeneous shape" ValueError
    with pytest.raises(BadParamsError, match=r"^vector 2 is not a flat"):
        rank(f3, [(0, 1), (1, 0), (1, 1, 0)])
    with pytest.raises(BadParamsError, match=r"^generator column 1 is not"):
        generate_linear_array(f3, [(1, 0, 0), (1, 0)])
    with pytest.raises(BadParamsError, match=r"^vector 1 is not"):
        dot(f3, (1, 0), (1, 0, 0))
    # non-integer entries, where numpy read 1.7 as 1, True as 1 and "1" as 1
    with pytest.raises(BadParamsError,
                       match="^vector 0 has entries that are not integers$"):
        rank(f3, [(1.7, 0), (0, 2.9)])
    with pytest.raises(BadParamsError, match="^vector 0 has entries that"):
        rank(f3, [("1", 0)])
    with pytest.raises(BadParamsError, match="^vector 0 has entries that"):
        rank(f3, [(True, 0)])
    with pytest.raises(BadParamsError, match="^vector 1 has entries that"):
        dot(f3, (1, 0), (np.True_, 1))
    with pytest.raises(BadParamsError, match="^generator column 0 has entries"):
        generate_linear_array(f3, np.array([(1, 0), (0, 1)], dtype=float))
    with pytest.raises(BadParamsError, match="^vector 0 has entries that"):
        orthogonal_complement_basis(f3, (1, None, 0))
    # an int past int64, where the cast raised a bare OverflowError
    for big in (2 ** 70, -2 ** 70):
        with pytest.raises(BadParamsError,
                           match=r"^vector 1 has entries outside GF\(3\)$"):
            rank(f3, [(1, 0), (0, big)])
        with pytest.raises(BadParamsError, match=(
                r"^z vector 0 has entries outside GF\(3\)$")):
            general_construction(f3, [(1, 0, big)], [(1, 1, 1)])
