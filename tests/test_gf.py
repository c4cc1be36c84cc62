"""Field arithmetic tests.

The GF(4) and GF(9) tables in golden_data were multiplied out by hand;
everything else is checked against the field axioms or small identities.
"""

import numpy as np
import pytest

from mcd_forge.errors import NotPrimePowerError, UnsupportedOrderError
from mcd_forge.gf import (
    MAX_ORDER,
    REDUCTION_POLYNOMIALS,
    GaloisField,
    galois_field,
)

from golden_data import GF4_ADD, GF4_MUL, GF9_MUL

SUPPORTED_ORDERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32]


@pytest.mark.parametrize("s", SUPPORTED_ORDERS)
def test_axioms_exhaustive(s):
    field = galois_field(s)
    field._check_axioms()


@pytest.mark.parametrize("s", [5, 7, 11, 31])
def test_prime_fields_are_integers_mod_p(s):
    field = galois_field(s)
    grid = np.arange(s)
    assert (field.add_table == (grid[:, None] + grid[None, :]) % s).all()
    assert (field.mul_table == (grid[:, None] * grid[None, :]) % s).all()


def test_gf4_tables_match_hand_computation():
    field = galois_field(4)
    assert field.add_table.tolist() == [list(r) for r in GF4_ADD]
    assert field.mul_table.tolist() == [list(r) for r in GF4_MUL]


def test_gf9_table_matches_hand_computation():
    field = galois_field(9)
    assert field.mul_table.tolist() == [list(r) for r in GF9_MUL]


def _schoolbook_product(a: int, b: int, p: int,
                        reduction: tuple[int, ...]) -> int:
    """a * b as base-p digit polynomials, long-divided by the monic
    reduction polynomial, read back as an index."""
    t = len(reduction) - 1
    da = [a // p ** k % p for k in range(t)]
    db = [b // p ** k % p for k in range(t)]
    prod = [0] * (2 * t - 1)
    for i, ai in enumerate(da):
        for j, bj in enumerate(db):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    for k in range(len(prod) - 1, t - 1, -1):
        c, prod[k] = prod[k], 0
        for j in range(t):
            prod[k - t + j] = (prod[k - t + j] - c * reduction[j]) % p
    return sum(c * p ** k for k, c in enumerate(prod[:t]))


@pytest.mark.parametrize("s", sorted(REDUCTION_POLYNOMIALS))
def test_extension_mul_table_matches_schoolbook_product(s):
    field = galois_field(s)
    expected = [[_schoolbook_product(a, b, field.p, REDUCTION_POLYNOMIALS[s])
                 for b in range(s)] for a in range(s)]
    assert field.mul_table.tolist() == expected


def test_extension_field_spot_values():
    # each reduction polynomial pins down one power of the generator x
    mul27 = galois_field(27).mul_table
    assert galois_field(8).mul_table[2, 4] == 3     # x * x^2 = x + 1
    assert galois_field(8).mul_table[4, 4] == 6     # x^4 = x^2 + x
    assert galois_field(16).mul_table[4, 4] == 3    # x^4 = x + 1
    assert galois_field(25).mul_table[5, 5] == 3    # x^2 = -2 = 3
    assert mul27[3, mul27[3, 3]] == 5               # x^3 = 2 + x
    assert galois_field(32).mul_table[4, 8] == 5    # x^5 = 1 + x^2


@pytest.mark.parametrize("s", SUPPORTED_ORDERS)
def test_inverses(s):
    field = galois_field(s)
    for a in range(1, s):
        assert field.mul_table[a, field.inv_table[a]] == 1


def test_characteristic_two_self_cancels():
    for s in (2, 4, 8, 16, 32):
        field = galois_field(s)
        assert all(field.add_table[a, a] == 0 for a in range(s))


def test_sub_and_neg():
    field = galois_field(9)
    add, neg = field.add_table, field.neg_table
    for a in range(9):
        assert add[a, neg[a]] == 0
        for b in range(9):
            assert add[add[a, neg[b]], b] == a


@pytest.mark.parametrize("s", [6, 10, 12, 15, 18, 20, 21, 22, 24, 26, 28, 30])
def test_non_prime_powers_rejected(s):
    with pytest.raises(NotPrimePowerError):
        galois_field(s)


@pytest.mark.parametrize("s", [37, 49, 64])
def test_orders_above_cap_rejected(s):
    assert s > MAX_ORDER
    with pytest.raises(UnsupportedOrderError):
        galois_field(s)


@pytest.mark.parametrize("s", [-3, 0, 1])
def test_degenerate_orders_rejected(s):
    with pytest.raises(NotPrimePowerError):
        galois_field(s)


def test_field_cache_returns_same_object():
    assert galois_field(27) is galois_field(27)


def test_tables_are_read_only():
    field = galois_field(3)
    with pytest.raises(ValueError):
        field.add_table[0, 0] = 1


def test_direct_construction_matches_cache():
    a = GaloisField(8)
    b = galois_field(8)
    assert (a.mul_table == b.mul_table).all()
    assert (a.add_table == b.add_table).all()
