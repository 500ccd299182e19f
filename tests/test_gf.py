"""Field construction, arithmetic tables and residue machinery."""

import time
from itertools import product

import pytest

from moss.gf import (
    GF,
    DegreeTooSmall,
    Field,
    FieldMismatch,
    NoSquareRoot,
    NotOddPrime,
    OrderTooLarge,
    factor_prime_power,
    is_prime,
)
from oracles import (
    ODD_PRIME_POWERS_49,
    get_field,
    is_irreducible_by_products,
    lsf,
    poly_mod_lsf,
    poly_mul_lsf,
    squares_by_squaring,
)


def test_prime_helpers():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert factor_prime_power(27) == (3, 3)
    assert factor_prime_power(49) == (7, 2)
    assert factor_prime_power(5) == (5, 1)
    with pytest.raises(ValueError):
        factor_prime_power(12)
    with pytest.raises(ValueError):
        factor_prime_power(1)


def test_new_field_basic():
    f3 = GF(3)
    assert (f3.p, f3.k, f3.q) == (3, 1, 3)
    assert f3.modulus == (1, 0)
    f9 = Field(3, 2)
    assert f9.q == 9
    assert f9.modulus == (1, 0, 1)


def test_new_field_errors():
    with pytest.raises(NotOddPrime):
        Field(2, 3)
    with pytest.raises(NotOddPrime):
        Field(9, 1)
    with pytest.raises(NotOddPrime):
        GF(12)
    with pytest.raises(NotOddPrime):
        GF(4)
    with pytest.raises(DegreeTooSmall):
        Field(3, 0)
    with pytest.raises(DegreeTooSmall):
        Field(3, True)
    with pytest.raises(OrderTooLarge):
        Field(3, 5)
    with pytest.raises(OrderTooLarge):
        GF(13, max_order=11)


@pytest.mark.parametrize("build", [
    lambda: GF(10**14 + 31),
    lambda: GF(1000000000000000003),
    lambda: Field(10**14 + 31),
    lambda: Field(3, 10**7),
])
def test_order_cap_is_checked_before_work_that_grows(build):
    start = time.perf_counter()
    with pytest.raises(OrderTooLarge):
        build()
    assert time.perf_counter() - start < 0.5


def test_explicit_modulus():
    # x^2 + x + 2 is irreducible over Z_3: no root among 0, 1, 2.
    f = Field(3, 2, modulus=(1, 1, 2))
    assert f.q == 9
    with pytest.raises(ValueError):
        Field(3, 2, modulus=(1, 0, 2))  # x^2 + 2 has root 1
    with pytest.raises(ValueError):
        Field(3, 2, modulus=(2, 0, 1))  # not monic
    with pytest.raises(ValueError):
        Field(3, 2, modulus=(1, 0, 0, 1))  # wrong degree
    with pytest.raises(ValueError):
        Field(3, 2, modulus=(1, 0, 5))  # coefficient out of range


@pytest.mark.parametrize("p,k", [(3, 2), (3, 3), (5, 2), (7, 2), (3, 4)])
def test_modulus_is_lex_smallest_irreducible(p, k):
    field = Field(p, k, max_order=128)
    seen_self = False
    for tail in product(range(p), repeat=k):
        candidate = (1,) + tail
        if candidate == field.modulus:
            seen_self = True
            assert is_irreducible_by_products(p, candidate)
            break
        assert not is_irreducible_by_products(p, candidate), (
            f"{candidate} is irreducible and lexicographically before {field.modulus}")
    assert seen_self


def test_arith_spec_values():
    f3 = GF(3)
    assert (f3(2) * f3(2)).index == 1
    assert f3(2).inverse().index == 2
    f9 = GF(9)
    x = f9.element((1, 0))
    assert x.index == 3
    assert (x * x).index == 2  # x^2 = -1 under modulus x^2 + 1
    with pytest.raises(ZeroDivisionError):
        f9.zero.inverse()


@pytest.mark.parametrize("q", [9, 25, 27, 49])
def test_mul_table_matches_polynomial_oracle(q):
    field = get_field(q)
    p, modulus = field.p, lsf(field.modulus)
    coeffs = [lsf(e.coeffs) for e in field.elements()]
    weights = [p**i for i in range(field.k)]

    def idx(c_lsf):
        return sum(c * w for c, w in zip(c_lsf, weights))

    for i in range(q):
        for j in range(q):
            r = poly_mod_lsf(p, poly_mul_lsf(p, coeffs[i], coeffs[j]), modulus)
            assert field.mul_table[i][j] == idx(r)


@pytest.mark.parametrize("q", ODD_PRIME_POWERS_49)
def test_field_axioms_pairwise(q):
    field = get_field(q)
    add, mul, neg, inv = field.add_table, field.mul_table, field.neg_table, field.inv_table
    for a in range(q):
        assert add[a][0] == a
        assert mul[a][1] == a
        assert add[a][neg[a]] == 0
        if a:
            assert mul[a][inv[a]] == 1
        for b in range(q):
            assert add[a][b] == add[b][a]
            assert mul[a][b] == mul[b][a]
    assert inv[0] is None


@pytest.mark.parametrize("q", ODD_PRIME_POWERS_49)
def test_field_axioms_triples(q):
    field = get_field(q)
    add, mul = field.add_table, field.mul_table
    rng = range(q)
    for a in rng:
        add_a, mul_a = add[a], mul[a]
        for b in rng:
            ab, ab_m = add_a[b], mul_a[b]
            add_ab, mul_ab = add[ab], mul[ab_m]
            mul_b = mul[b]
            for c in rng:
                assert add_ab[c] == add_a[add[b][c]]
                assert mul_ab[c] == mul_a[mul_b[c]]
                assert mul[add_a[b]][c] == add[mul_a[c]][mul_b[c]]


@pytest.mark.parametrize("q", ODD_PRIME_POWERS_49)
def test_square_census(q):
    field = get_field(q)
    by_squaring = squares_by_squaring(field)
    by_criterion = {e.index for e in field.elements() if field.is_square(e)}
    assert by_criterion == by_squaring
    assert len(by_squaring) == (q + 1) // 2


def test_square_spec_values():
    f3 = GF(3)
    assert not f3.is_square(f3(2))
    assert f3.is_square(f3.zero)
    assert f3.is_square(f3.one)
    f13 = GF(13)
    assert {e.index for e in f13.elements() if f13.is_square(e)} == {0, 1, 3, 4, 9, 10, 12}


def test_sqrt_spec_values():
    f7 = GF(7)
    assert f7.sqrt(f7(2)).index == 3  # 3^2 = 4^2 = 2 mod 7; 3 has the smaller index
    f3 = GF(3)
    assert f3.sqrt(f3.zero) == f3.zero
    with pytest.raises(NoSquareRoot):
        f3.sqrt(f3(2))


@pytest.mark.parametrize("q", ODD_PRIME_POWERS_49)
def test_sqrt_properties(q):
    field = get_field(q)
    failures = 0
    for a in field.elements():
        if field.is_square(a):
            root = field.sqrt(a)
            assert root * root == a
            if a:
                other = -root
                assert other * other == a
                assert root.index < other.index
        else:
            failures += 1
            with pytest.raises(NoSquareRoot):
                field.sqrt(a)
    assert failures == (q - 1) // 2


def test_index_bijection_spec_values():
    f3 = GF(3)
    assert f3(2).coeffs == (2,)
    assert f3.element((2,)).index == 2
    f9 = GF(9)
    assert f9.element((1, 0)).index == 3
    assert f9.from_index(8).coeffs == (2, 2)
    with pytest.raises(IndexError):
        f9.from_index(9)
    with pytest.raises(IndexError):
        f9.from_index(-1)
    with pytest.raises(ValueError):
        f9.element((1, 0, 0))
    with pytest.raises(ValueError):
        f9.element((3, 0))


@pytest.mark.parametrize("q", ODD_PRIME_POWERS_49)
def test_index_bijection_roundtrip(q):
    field = get_field(q)
    elements = field.elements()
    assert len(elements) == q
    assert len({e.index for e in elements}) == q
    for e in elements:
        assert field.from_index(field.element_index(e)) == e
        assert field.element(e.coeffs) == e
    # index order is lexicographic order on coefficient tuples
    assert [e.coeffs for e in elements] == sorted(e.coeffs for e in elements)


def test_const_embedding():
    f3 = GF(3)
    assert f3.const(4) == f3.one
    assert f3.const(-1).index == 2
    f9 = GF(9)
    assert f9.const(4).coeffs == (0, 1)
    assert f9.const(0) == f9.zero


def test_powers_and_division():
    f7 = GF(7)
    three = f7(3)
    assert three**0 == f7.one
    assert three**6 == f7.one
    assert three**-1 == three.inverse()
    assert (three / three) == f7.one
    with pytest.raises(ZeroDivisionError):
        three / f7.zero


def test_field_equality_and_mismatch():
    assert GF(3) == GF(3)
    assert GF(3) != GF(5)
    assert Field(3, 2) != Field(3, 2, modulus=(1, 1, 2))
    a = GF(3)(1)
    b = GF(3)(2)  # separate but equal field instance
    assert (a + b).index == 0
    with pytest.raises(FieldMismatch):
        GF(3)(1) + GF(5)(1)
    with pytest.raises(FieldMismatch):
        GF(3)(GF(5)(1))


def test_element_repr_and_bool():
    f9 = GF(9)
    assert repr(f9(3)) == "GF(9)(3)"
    assert not f9.zero
    assert f9.one
