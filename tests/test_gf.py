"""Field construction, arithmetic tables and residue machinery."""

import time
from itertools import combinations, islice, product

import pytest

from moss.family import build_family, derive_lambda
from moss.gf import (
    DEFAULT_MAX_ORDER,
    GF,
    DegreeTooSmall,
    Field,
    FieldElement,
    FieldMismatch,
    NoSquareRoot,
    NotOddPrime,
    OrderTooLarge,
    factor_prime_power,
)
from moss.planes import Mat2, Plane
import moss.gf
import moss.sudoku
from moss.sudoku import SudokuGrid, build_from_canonical, coset_kernel
from oracles import (
    ODD_PRIME_POWERS_49,
    ODD_PRIME_POWERS_127,
    PolyElement,
    canonicalize,
    column_plane,
    count_alphas,
    elements_of,
    get_field,
    grid_from_cosets,
    is_irreducible_by_products,
    mat_inverse,
    mat_mul,
    meets_trivially,
    poly_elements,
    rank,
    squares_by_squaring,
)


def test_prime_helpers():
    """Field(p) accepts exactly the odd primes: every other p in [-2, 129),
    1, 2 and the prime powers 4, 9, 25, 27 and 121 included, raises
    NotOddPrime with one message, and 129, above the cap, OrderTooLarge."""
    odd_primes = {n for n in range(3, 130) if all(n % d for d in range(2, n))}
    assert len(odd_primes) == 30 and odd_primes.isdisjoint({1, 2, 4, 9, 25, 27, 121})
    for p in range(-2, 130):
        if p in odd_primes:
            field = Field(p)
            assert (field.p, field.k, field.q) == (p, 1, p)
        elif p > DEFAULT_MAX_ORDER:
            with pytest.raises(OrderTooLarge):
                Field(p)
        else:
            with pytest.raises(NotOddPrime) as exc_info:
                Field(p)
            assert str(exc_info.value) == f"characteristic must be an odd prime, got {p}"
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
    for p in (1, 0, -3):
        with pytest.raises(NotOddPrime, match=rf"^characteristic must be an odd prime, got {p}$"):
            Field(p)
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
        GF(131)


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


@pytest.mark.parametrize("build,error", [
    (lambda: Field(3, 2, modulus=(1, 0, 1.9)), ValueError),
    (lambda: Field(3, 2, modulus=(1, 0, "1")), ValueError),
    (lambda: Field(3, 2, modulus=(True, 0, 1)), ValueError),
    (lambda: Field(3.0, 2), NotOddPrime),
    (lambda: Field("3", 1), NotOddPrime),
    (lambda: GF(9.0), NotOddPrime),
    (lambda: GF("9"), NotOddPrime),
    (lambda: GF(None), NotOddPrime),
], ids=["float-modulus", "str-modulus", "bool-modulus", "float-p", "str-p",
        "float-q", "str-q", "none-q"])
def test_field_rejects_non_int_input(build, error):
    """Neither p, q nor a modulus entry is coerced: a float, a string, None
    or a bool is a ValueError, never a TypeError or a silent GF(9)."""
    with pytest.raises(error):
        build()


@pytest.mark.parametrize("p,k", [(3, 2), (3, 3), (5, 2), (7, 2), (3, 4)])
def test_modulus_is_lex_smallest_irreducible(p, k):
    field = Field(p, k)
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
    two = PolyElement.of(f3, 2)
    assert (two * two).index == f3.mul_table[2][2] == 1
    assert two.inverse().index == f3.inv_table[2] == 2
    f9 = GF(9)
    x = PolyElement.of(f9, 3)
    assert x.coeffs == (0, 1)  # the polynomial x, least significant coefficient first
    assert (x * x).index == f9.mul_table[3][3] == 2  # x^2 = -1 under modulus x^2 + 1
    assert f9.inv_table[0] is None
    with pytest.raises(ZeroDivisionError):
        PolyElement.of(f9, 0).inverse()


def irreducible_moduli(p, k):
    """Monic irreducibles of degree k over Z_p in lexicographic order, by the oracle."""
    return (m for m in ((1,) + tail for tail in product(range(p), repeat=k))
            if is_irreducible_by_products(p, m))


# (q, n): the n-th monic irreducible of degree k in lexicographic order as the
# modulus, None (n = 0) for the default.  q = 9, 25 and 27 take all of their
# 3, 10 and 8 moduli, the larger extensions two non-default ones each.
MODULUS_CASES = [pytest.param(q, None, id=str(q)) for q in ODD_PRIME_POWERS_127] + [
    pytest.param(q, n, id=f"{q}-modulus{n}")
    for q, count in ((9, 3), (25, 10), (27, 8), (49, 3), (81, 3), (121, 3), (125, 3))
    for n in range(1, count)]


@pytest.mark.parametrize("q, n", MODULUS_CASES)
def test_mul_table_matches_polynomial_oracle(q, n):
    """All five tables agree with polynomial arithmetic, entry by entry.

    The default moduli of GF(9), GF(25), GF(49), GF(121) and GF(125) are not
    primitive (x has order 4, 8, 4, 4 and 62), so their mul and inv tables
    rest on a generator that the field had to search for.
    """
    p, k = factor_prime_power(q)
    modulus = None if n is None else next(islice(irreducible_moduli(p, k), n, None))
    field = Field(p, k, modulus)
    elements = poly_elements(field)
    roots = {}
    for i, x in enumerate(elements):
        assert field.neg_table[i] == (-x).index
        assert field.inv_table[i] == (x.inverse().index if x else None)
        roots.setdefault((x * x).index, i)
        add, mul = field.add_table[i], field.mul_table[i]
        for j, y in enumerate(elements):
            assert add[j] == (x + y).index
            assert mul[j] == (x * y).index
    assert field.root_table == roots
    assert field.root_table.keys() == squares_by_squaring(field)


@pytest.mark.parametrize("q", ODD_PRIME_POWERS_127)
def test_field_takes_at_most_4q_polynomial_products(q, monkeypatch):
    """The tables come from the powers of one generator, not from all q^2
    products: the search for it costs at most 2.95q products up to q = 127."""
    calls = []
    poly_mul = moss.gf._poly_mul

    def counted(*args):
        calls.append(args)
        return poly_mul(*args)

    monkeypatch.setattr(moss.gf, "_poly_mul", counted)
    Field(*factor_prime_power(q))
    assert len(calls) <= 4 * q


class _Untouchable:
    """Stands in for a field table: any read fails."""

    def _fail(self, *args):
        raise AssertionError("a field table was read")

    __getitem__ = __iter__ = __len__ = __contains__ = _fail


def test_oracles_never_read_the_field_tables():
    """rank, grid_from_cosets, squares_by_squaring, canonicalize, the 2x2
    product and inverse, meets_trivially and count_alphas give the same
    results after the field's tables are replaced by objects that fail on
    any read."""
    field = Field(3, 2)  # its own instance, so cached fields keep their tables
    matrices = build_family(field).matrices[:3] + [Mat2(field, 1, 3, 3, 4)]
    planes = [Plane.from_generator(m) for m in matrices[:3]]
    planes.append(column_plane(field))

    def results():
        return (
            [rank([*elements_of(g), *elements_of(h)]) for g, h in combinations(planes, 2)],
            [grid_from_cosets(g).rows for g in planes],
            squares_by_squaring(field),
            [canonicalize(g).indices() for g in planes],
            [mat_mul(m, mat_inverse(n)).indices() for m, n in product(matrices, repeat=2)],
            [meets_trivially(m, n) for m, n in combinations(matrices, 2)],
            count_alphas(field),
        )

    expected = results()
    for name in ("add_table", "mul_table", "neg_table", "inv_table", "_coeffs"):
        setattr(field, name, _Untouchable())
    with pytest.raises(AssertionError, match="table was read"):
        build_from_canonical(Mat2(field, 0, 1, 1, 1))  # the library does read them
    assert results() == expected


def test_coset_kernels_never_read_the_field_tables():
    """coset_kernel adds cells from q alone: grids built before their
    field's tables are replaced by objects that fail on any read give the
    same kernels after, with the digit-sum table rebuilt."""
    field = Field(3, 2)  # its own instance, so cached fields keep their tables
    grids = [build_from_canonical(m) for m in build_family(field).matrices[:4]]
    expected = [coset_kernel(SudokuGrid(9, grid.rows)) for grid in grids]
    assert None not in expected
    for name in ("add_table", "mul_table", "neg_table", "inv_table", "_coeffs"):
        setattr(field, name, _Untouchable())
    moss.sudoku._digit_sums.cache_clear()
    assert [coset_kernel(grid) for grid in grids] == expected


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


@pytest.mark.parametrize("q", ODD_PRIME_POWERS_127)
def test_square_census(q):
    field = get_field(q)
    by_squaring = squares_by_squaring(field)
    by_criterion = {a for a in range(q) if field.is_square(a)}
    assert by_criterion == by_squaring
    assert len(by_squaring) == (q + 1) // 2


def test_square_spec_values():
    f3 = GF(3)
    assert not f3.is_square(2)
    assert f3.is_square(0)
    assert f3.is_square(1)
    f13 = GF(13)
    assert {a for a in range(13) if f13.is_square(a)} == {0, 1, 3, 4, 9, 10, 12}


def test_sqrt_spec_values():
    f7 = GF(7)
    assert f7.sqrt(2) == 3  # 3^2 = 4^2 = 2 mod 7; 3 has the smaller index
    f3 = GF(3)
    assert f3.sqrt(0) == 0
    with pytest.raises(NoSquareRoot):
        f3.sqrt(2)


@pytest.mark.parametrize("bad", [-1, 7, True])
def test_residue_methods_reject_non_indices(bad):
    """An int outside [0, 7) is named by its range, True by its type."""
    f7 = GF(7)
    message = (f"element index must lie in [0, 7), got {bad}" if type(bad) is int
               else "element index True is a bool, not an int")
    for method in (f7.is_square, f7.sqrt):
        with pytest.raises(IndexError) as exc_info:
            method(bad)
        assert str(exc_info.value) == message


@pytest.mark.parametrize("q", ODD_PRIME_POWERS_127)
def test_sqrt_properties(q):
    field = get_field(q)
    elements = poly_elements(field)
    failures = 0
    for a in range(q):
        if field.is_square(a):
            root = elements[field.sqrt(a)]
            assert (root * root).index == a
            if a:
                other = -root
                assert (other * other).index == a
                assert root.index < other.index
        else:
            failures += 1
            with pytest.raises(NoSquareRoot):
                field.sqrt(a)
    assert failures == (q - 1) // 2


def test_index_bijection_spec_values():
    f3 = GF(3)
    assert f3._coeffs[2] == PolyElement.of(f3, 2).coeffs == (2,)
    f9 = GF(9)
    assert f9._coeffs[3] == (1, 0)
    assert PolyElement.of(f9, 3).coeffs == (0, 1)  # least significant first
    assert f9._coeffs[8] == (2, 2)
    for bad in (9, -1, True, 1.0):
        with pytest.raises(IndexError):
            Mat2.from_indices(f9, ((0, bad), (1, 1)))


@pytest.mark.parametrize("q", ODD_PRIME_POWERS_49)
def test_index_bijection_roundtrip(q):
    field = get_field(q)
    coeffs = field._coeffs
    assert len(coeffs) == len(set(coeffs)) == q
    for i, e in enumerate(poly_elements(field)):
        assert e.index == i
        assert coeffs[i] == tuple(reversed(e.coeffs))
    # index order is lexicographic order on coefficient tuples
    assert list(coeffs) == sorted(coeffs)


def test_const_embedding():
    """n times 1 has index n mod p; derive_lambda relies on it for 4."""
    for field in (GF(3), GF(9), GF(25)):
        p, one = field.p, PolyElement.of(field, 1)
        total = PolyElement.of(field, 0)
        for n in range(1, 2 * p + 2):
            total = total + one
            assert total.index == n % p
            assert total.coeffs == (n % p,) + (0,) * (field.k - 1)
    f9 = GF(9)
    assert f9._coeffs[4 % 3] == (0, 1)


def test_powers_and_division():
    f7 = GF(7)
    three, one = PolyElement.of(f7, 3), PolyElement.of(f7, 1)
    assert three**0 == one
    assert three**6 == one
    mul = f7.mul_table
    square = mul[3][3]
    assert (three**2).index == square == 2
    assert mul[mul[square][square]][square] == 1  # 3^6 = 3^2 * 3^2 * 3^2
    assert three * three.inverse() == one
    assert three.inverse().index == f7.inv_table[3] == 5
    with pytest.raises(ZeroDivisionError):
        PolyElement.of(f7, 0).inverse()


def test_field_equality_and_mismatch():
    assert GF(3) == GF(3)
    assert GF(3) != GF(5)
    assert Field(3, 2) != Field(3, 2, modulus=(1, 1, 2))
    a, b = FieldElement(GF(3), 1), FieldElement(GF(3), 1)  # separate but equal fields
    assert a == b
    assert hash(a) == hash(b)
    assert a != FieldElement(GF(3), 2)
    assert a != FieldElement(GF(5), 1)
    assert PolyElement.of(Field(3, 2), 3) != PolyElement.of(Field(3, 2, modulus=(1, 1, 2)), 3)
    with pytest.raises(FieldMismatch):
        meets_trivially(Mat2(GF(3), 0, 1, 1, 1), Mat2(GF(5), 0, 1, 1, 1))
    with pytest.raises(FieldMismatch):
        derive_lambda(GF(3), FieldElement(GF(5), 1))


def test_element_repr_and_bool():
    f9 = GF(9)
    record = FieldElement(f9, 3)
    assert repr(record) == "GF(9)(3)"
    assert FieldElement(f9, 0).index == 0
    with pytest.raises(TypeError):
        record + record  # the record has no arithmetic
    with pytest.raises(AttributeError):
        record.index = 4  # nor can it change
    assert not PolyElement.of(f9, 0)
    assert PolyElement.of(f9, 3)
