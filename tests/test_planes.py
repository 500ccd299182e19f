"""Canonicalization, generator validity and the orthogonality criterion.

Canonicalization, the 2x2 arithmetic and meets_trivially are the plane
specification in oracles.py; they are checked here against the rank oracle
and the library's generator predicate.
"""

from itertools import combinations, product

import pytest

from moss.family import build_family, verify_family
from moss.gf import GF, FieldElement, FieldMismatch
from moss.planes import Mat2, Plane, is_valid_generator, parse_mat2
from moss.serialize import SquareDocument
from moss.sudoku import build_from_canonical
from oracles import (
    GOLDEN_C_Q3,
    GOLDEN_PLANE_Q3,
    NotCanonicalizable,
    all_planes,
    all_valid_generators,
    canonicalize,
    column_plane,
    count_planes_formula,
    elements_of,
    format_mat2,
    get_field,
    is_sudoku_generator,
    mat_det,
    mat_inverse,
    mat_mul,
    mat_sub,
    meets_trivially,
    planes_intersect_trivially,
    poly_elements,
    rank,
    row_plane,
    subsquare_plane,
)


def mat(field, rows):
    return Mat2.from_indices(field, rows)


def golden_plane(field):
    return Plane.from_indices(field, *GOLDEN_PLANE_Q3)


def test_det_spec_values():
    f3 = GF(3)
    assert mat_det(mat(f3, ((0, 2), (2, 1)))) == 2
    assert mat_det(mat(f3, ((1, 0), (0, 1)))) == 1
    assert mat_det(mat(f3, ((1, 2), (2, 1)))) == 0


def test_mat2_algebra():
    f3 = GF(3)
    m = mat(f3, ((0, 2), (2, 1)))
    ident = mat(f3, ((1, 0), (0, 1)))
    assert mat_mul(m, mat_inverse(m)) == ident
    assert mat_sub(m, m) == mat(f3, ((0, 0), (0, 0)))
    with pytest.raises(ZeroDivisionError):
        mat_inverse(mat(f3, ((1, 2), (2, 1))))
    with pytest.raises(IndexError):
        Mat2.from_indices(f3, ((1, 1), (1, 3)))  # 3 is not an element index of GF(3)


def test_plane_constructor_validates():
    f3 = GF(3)
    with pytest.raises(ValueError):
        Plane.from_indices(f3, (1, 0, 0, 2), (2, 0, 0, 1))  # v2 = 2*v1
    with pytest.raises(ValueError):
        Plane.from_indices(f3, (0, 0, 0, 0), (0, 1, 0, 0))
    with pytest.raises(ValueError):
        Plane(f3, (1, 0, 0), (0, 1, 0))
    with pytest.raises(IndexError):
        Plane.from_indices(f3, (1, 0, 0, 0), (0, 1, 0, 3))  # 3 is not an element index of GF(3)


def test_plane_independence_matches_rank_oracle():
    """Plane accepts a basis by its 2x2 minors exactly when its rank is 2."""
    f3 = GF(3)
    elems = poly_elements(f3)
    vectors = list(product(range(3), repeat=4))
    for v1, v2 in product(vectors, repeat=2):
        if rank([[elems[i] for i in v1], [elems[i] for i in v2]]) == 2:
            Plane(f3, v1, v2)
        else:
            with pytest.raises(ValueError):
                Plane(f3, v1, v2)


def test_special_plane_literals():
    f3 = GF(3)
    assert column_plane(f3).basis() == ((1, 0, 0, 0), (0, 1, 0, 0))
    assert row_plane(f3).basis() == ((0, 0, 1, 0), (0, 0, 0, 1))
    assert subsquare_plane(f3).basis() == ((0, 1, 0, 0), (0, 0, 0, 1))


def test_rank_basics():
    z, o, t = poly_elements(GF(3))
    assert rank([]) == 0
    assert rank([(z, z, z, z)]) == 0
    assert rank([(o, z, z, z), (z, o, z, z)]) == 2
    assert rank([(o, o, z, z), (t, t, z, z)]) == 1
    ident4 = [tuple(o if i == j else z for j in range(4)) for i in range(4)]
    assert rank(ident4) == 4


def test_canonicalize_golden_plane():
    f3 = GF(3)
    plane = golden_plane(f3)
    c = canonicalize(plane)
    assert c.indices() == GOLDEN_C_Q3
    # column span of [I; C] equals the original plane: stacked rank stays 2
    rebuilt = Plane.from_generator(c)
    assert rank([*elements_of(plane), *elements_of(rebuilt)]) == 2


def test_canonicalize_edge_cases():
    f3 = GF(3)
    zero_mat = mat(f3, ((0, 0), (0, 0)))
    assert canonicalize(column_plane(f3)) == zero_mat
    with pytest.raises(NotCanonicalizable):
        canonicalize(row_plane(f3))


def test_is_valid_generator_spec_values():
    f3 = GF(3)
    assert is_valid_generator(mat(f3, ((0, 2), (2, 1))))
    assert not is_valid_generator(mat(f3, ((1, 0), (0, 1))))  # lower triangular
    assert not is_valid_generator(mat(f3, ((1, 2), (2, 1))))  # singular


def test_valid_generator_count_q3():
    f3 = GF(3)
    valid = all_valid_generators(f3)
    # |GL(2,3)| minus the invertible lower-triangular matrices
    gl = (3**2 - 1) * (3**2 - 3)
    lower = (3 - 1) * (3 - 1) * 3
    assert len(valid) == gl - lower == 36
    assert all(is_valid_generator(m) for m in valid)


def test_meets_trivially_spec_values():
    f3 = GF(3)
    c1 = mat(f3, ((0, 1), (1, 1)))
    c2 = mat(f3, ((0, 2), (2, 1)))
    assert meets_trivially(c1, c2)
    assert not meets_trivially(c1, c1)
    assert not meets_trivially(mat(f3, ((0, 1), (1, 0))), mat(f3, ((1, 2), (2, 1))))
    with pytest.raises(FieldMismatch):
        meets_trivially(c1, mat(GF(5), ((0, 1), (1, 1))))


def test_meets_trivially_agrees_with_rank_oracle():
    f3 = GF(3)
    valid = all_valid_generators(f3)
    planes = [Plane.from_generator(m) for m in valid]
    pairs = 0
    for i, j in combinations(range(len(valid)), 2):
        fast = meets_trivially(valid[i], valid[j])
        assert fast == meets_trivially(valid[j], valid[i])
        assert fast == planes_intersect_trivially(planes[i], planes[j])
        pairs += 1
    assert pairs == 630


def test_sudoku_generator_criterion():
    f3 = GF(3)
    assert is_sudoku_generator(golden_plane(f3))
    assert not is_sudoku_generator(subsquare_plane(f3))
    assert not is_sudoku_generator(column_plane(f3))
    assert not is_sudoku_generator(row_plane(f3))


def test_all_planes_census_q3():
    f3 = GF(3)
    planes = list(all_planes(f3))
    assert len(planes) == count_planes_formula(3) == 130
    passing = [g for g in planes if is_sudoku_generator(g)]
    assert len(passing) == 36


@pytest.mark.parametrize("q", [3, 5, 7])
def test_generator_criterion_matches_canonical_form(q):
    """A plane passes iff it canonicalizes to a valid C, and conversely."""
    field = get_field(q)
    passing = 0
    for plane in all_planes(field):
        if is_sudoku_generator(plane):
            passing += 1
            c = canonicalize(plane)
            assert is_valid_generator(c)
        else:
            try:
                c = canonicalize(plane)
            except NotCanonicalizable:
                continue
            assert not is_valid_generator(c)
    valid = all_valid_generators(field)
    assert passing == len(valid)
    for c in valid:
        assert is_sudoku_generator(Plane.from_generator(c))


def test_canonicalize_inverts_from_generator():
    f9 = GF(9)
    c = mat(f9, ((0, 3), (5, 7)))
    assert canonicalize(Plane.from_generator(c)) == c


def test_matrix_literals():
    f3 = GF(3)
    m = parse_mat2(f3, "0,2;2,1")
    assert m.indices() == ((0, 2), (2, 1))
    assert format_mat2(m) == "0,2;2,1"
    assert parse_mat2(f3, " 1 , 2 ; 0 , 1 ").indices() == ((1, 2), (0, 1))
    for bad in ("0,2;2", "0;2;1", "0,2,1;2,1,0", "a,b;c,d", "0,9;2,1", ""):
        with pytest.raises(ValueError):
            parse_mat2(f3, bad)


def test_matrix_paths_build_no_field_elements(spy):
    """Matrix, family and document paths compute on element indices alone."""
    f9 = GF(9)
    fam = build_family(f9)
    c = fam.matrices[0]
    text = SquareDocument.from_matrix(c).to_json()

    built = spy(FieldElement.__init__)
    build_from_canonical(c)
    is_valid_generator(c)
    Plane.from_generator(c)
    assert verify_family(fam, "fast").ok
    assert SquareDocument.from_json(text).to_json() == text
    assert built == []
    for q in (9, 25):
        built.clear()
        build_family(GF(q))
        assert len(built) <= 4 * q  # O(q) for the residue search, none per member
