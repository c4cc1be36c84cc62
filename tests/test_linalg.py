"""Vector enumeration, rank, and linear-array generation over GF(s)."""

from itertools import combinations

import numpy as np
import pytest

from mcd_forge.errors import TooLargeError, ZeroVectorError
from mcd_forge.gf import galois_field
from mcd_forge.linalg import (
    ENUMERATION_CAP,
    SubspaceBasis,
    dot,
    enumerate_span,
    enumerate_tuples,
    extend_to_basis,
    generate_linear_array,
    is_proportional,
    is_zero,
    linear_strength,
    normalize_direction,
    orthogonal_complement_basis,
    rank,
    unit_vector,
)
from golden_data import EXAMPLE1_NULL_SPACE, EXAMPLE1_QUALITATIVE


def test_unit_vector():
    assert unit_vector(4, 0) == (1, 0, 0, 0)
    assert unit_vector(4, 3) == (0, 0, 0, 1)
    with pytest.raises(ValueError):
        unit_vector(3, 3)
    with pytest.raises(ValueError):
        unit_vector(3, -1)


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


def test_is_zero():
    assert is_zero((0, 0, 0))
    assert is_zero(())
    assert not is_zero((0, 1, 0))


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
    for c in f4.nonzero():
        scaled = tuple(f4.mul(c, e) for e in (1, 3, 0, 2))
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
                combo = [f.add(a, f.mul(int(c), b))
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


def test_linear_strength_golden_cases():
    f3 = galois_field(3)
    e1, e2, e3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    assert linear_strength(f3, [e1, (0, 0, 0)]) == 0
    assert linear_strength(f3, [e1]) == 1
    assert linear_strength(f3, [e1, (2, 0, 0)]) == 1
    assert linear_strength(f3, [e1, e2, e3, (1, 1, 1)]) == 3
    assert linear_strength(f3, [e1, e2, e3, (1, 1, 0)]) == 2
    # the four distinct directions of GF(3)^2 give the classical
    # 9-run, 4-column, strength-2 array
    assert linear_strength(f3, [(1, 0), (0, 1), (1, 1), (1, 2)]) == 2


def test_linear_strength_matches_counting_oracle():
    # rank-based answer must agree with brute-force equireplication
    # counts on the generated array
    rng = np.random.default_rng(987123)
    for s, u, m in [(2, 3, 4), (3, 3, 4), (4, 2, 4), (5, 2, 3)]:
        f = galois_field(s)
        for _ in range(10):
            cols = [tuple(int(v) for v in rng.integers(0, s, u))
                    for _ in range(m)]
            t_rank = linear_strength(f, cols)
            arr = generate_linear_array(f, cols)
            assert _array_strength(arr, s) == t_rank


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
            if is_zero(x):
                continue
            basis = orthogonal_complement_basis(f, x)
            assert basis.dim == u - 1
            assert rank(f, basis.vectors) == u - 1
            for b in basis.vectors:
                assert dot(f, b, x) == 0
            # scaling x leaves the canonical basis unchanged
            c = int(rng.integers(1, s))
            scaled = tuple(f.mul(c, e) for e in x)
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


def test_extend_to_basis():
    f3 = galois_field(3)
    # forcing the worked example's first generator first
    cols = extend_to_basis(f3, (1, 2, 0), ((0, 0, 1),))
    assert cols == ((0, 0, 1), (1, 1, 0))
    assert rank(f3, cols) == 2
    # nothing forced: the canonical basis comes back
    assert extend_to_basis(f3, (1, 2, 0), ()) == ((1, 1, 0), (0, 0, 1))
    with pytest.raises(ValueError):
        extend_to_basis(f3, (1, 2, 0), ((1, 1, 0), (2, 2, 0)))


def test_extend_to_basis_keeps_forced_columns_first():
    rng = np.random.default_rng(2718)
    for s in (2, 3, 4):
        f = galois_field(s)
        for _ in range(10):
            u = int(rng.integers(3, 6))
            x = tuple(int(v) for v in rng.integers(0, s, u))
            if is_zero(x):
                continue
            full = orthogonal_complement_basis(f, x).vectors
            keep = int(rng.integers(1, u - 1))
            forced = tuple(full[i] for i in rng.permutation(u - 1)[:keep])
            cols = extend_to_basis(f, x, forced)
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
            if is_zero(col):
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
