"""Residue search, the family template, and family verification."""

import math
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import moss.family
import moss.sudoku
from moss.family import (
    Family,
    alpha_census,
    build_family,
    derive_lambda,
    find_alpha,
    verify_family,
)
from moss.gf import GF, FieldElement, FieldMismatch
from moss.planes import Mat2, is_valid_generator
from moss.sudoku import build_from_canonical
from oracles import (
    ODD_PRIME_POWERS_49,
    PolyElement,
    all_valid_generators,
    count_alphas,
    get_field,
    mat_det,
    mat_sub,
    meets_trivially,
    orthogonal_by_pair_census,
    poly_elements,
    squares_by_squaring,
)


def test_find_alpha_spec_values():
    assert find_alpha(get_field(3)).index == 1
    assert find_alpha(get_field(7)).index == 2
    assert find_alpha(get_field(13)).index == 1


def test_alpha_census_spec_values():
    assert count_alphas(get_field(3)) == 1
    assert count_alphas(get_field(7)) == 2
    assert [a.index for a in alpha_census(get_field(7))] == [2, 4]
    assert count_alphas(get_field(13)) == 3 == (13 - 1) // 4
    assert [a.index for a in alpha_census(get_field(13))] == [1, 4, 10]


@pytest.mark.parametrize("q", ODD_PRIME_POWERS_49)
def test_alpha_against_squaring_oracle(q):
    field = get_field(q)
    squares = squares_by_squaring(field)
    one = PolyElement.of(field, 1)
    expected = [e.index for e in poly_elements(field)
                if e.index in squares and (e + one).index not in squares]
    assert [a.index for a in alpha_census(field)] == expected
    assert find_alpha(field).index == expected[0]
    assert count_alphas(field) == len(expected) == len(alpha_census(field))


@pytest.mark.parametrize("q", ODD_PRIME_POWERS_49)
def test_alpha_count_tracks_quarter(q):
    count = count_alphas(get_field(q))
    assert math.floor((q - 1) / 4) - 2 <= count <= math.ceil((q - 1) / 4) + 2


def test_derive_lambda_spec_values():
    f3 = get_field(3)
    assert derive_lambda(f3, FieldElement(f3, 1)) == FieldElement(f3, 1)
    f7 = get_field(7)
    assert derive_lambda(f7, FieldElement(f7, 2)).index == 1  # 4*2 = 1 mod 7, roots {1, 6}
    f13 = get_field(13)
    assert derive_lambda(f13, FieldElement(f13, 1)).index == 2


@pytest.mark.parametrize("q", ODD_PRIME_POWERS_49)
def test_derive_lambda_properties(q):
    field = get_field(q)
    alpha = find_alpha(field)
    lam = derive_lambda(field, alpha)
    assert lam.index != 0
    root, one = PolyElement.of(field, lam.index), PolyElement.of(field, 1)
    assert root * root == (one + one + one + one) * PolyElement.of(field, alpha.index)


def test_derive_lambda_rejects_bad_alpha():
    f3 = get_field(3)
    with pytest.raises(ValueError):
        derive_lambda(f3, FieldElement(f3, 0))
    with pytest.raises(ValueError):
        derive_lambda(f3, FieldElement(f3, 2))  # 2 is a non-square mod 3
    with pytest.raises(FieldMismatch):
        derive_lambda(f3, find_alpha(get_field(5)))


def test_build_family_q3_frozen():
    fam = build_family(get_field(3))
    assert fam.alpha.index == 1
    assert fam.lam.index == 1
    assert [m.indices() for m in fam.matrices] == [
        ((0, 1), (1, 1)),
        ((0, 2), (2, 2)),
        ((1, 1), (1, 2)),
        ((1, 2), (2, 0)),
        ((2, 1), (1, 0)),
        ((2, 2), (2, 1)),
    ]


@pytest.mark.parametrize("q", [3, 5, 9, 13])
def test_build_family_structure(q):
    field = get_field(q)
    fam = build_family(field)
    assert fam.size == len(fam.matrices) == q * (q - 1)
    assert len({m.indices() for m in fam.matrices}) == fam.size
    el = poly_elements(field)
    lam = el[fam.lam.index]
    seen = []
    for m in fam.matrices:
        assert m.b == m.c, "off-diagonal entries must both equal w"
        assert m.b, "w must be nonzero"
        assert el[m.d] == lam * el[m.b] + el[m.a]
        assert is_valid_generator(m)
        seen.append((m.a, m.b))
    # v runs in the outer loop, w in the inner one, both lexicographically
    assert seen == [(v, w) for v in range(q) for w in range(1, q)]


def test_golden_generator_uses_the_other_root():
    """[[0,2],[2,1]] fits the template with the larger root of lambda^2 = 4*alpha."""
    f3 = get_field(3)
    fam = build_family(f3)
    golden = Mat2.from_indices(f3, ((0, 2), (2, 1)))
    assert golden not in fam.matrices
    el = poly_elements(f3)
    other_root = -el[fam.lam.index]
    v, w = 0, 2
    assert Mat2(f3, v, w, w, (other_root * el[w] + el[v]).index) == golden


def test_verify_family_bruteforce_q3():
    report = verify_family(build_family(get_field(3)), "bruteforce")
    assert report.ok
    assert report.size == 6
    assert report.pairs == 15


def test_verify_family_fast_q13():
    report = verify_family(build_family(get_field(13)), "fast")
    assert report.ok
    assert repr(report) == "FamilyReport(mode='fast', size=156, pairs=12090, ok)"
    assert report.size == 156
    assert report.pairs == 12090


def test_verify_family_flags_duplicates():
    field = get_field(3)
    fam = build_family(field)
    spiked = Family(field, fam.alpha, fam.lam, fam.matrices + [fam.matrices[0]])
    report = verify_family(spiked, "fast")
    assert not report.ok
    assert ("not_orthogonal", (0, 6)) in report.violations
    bruteforce = verify_family(spiked, "bruteforce")
    assert ("not_orthogonal", (0, 6)) in bruteforce.violations
    assert ("not_orthogonal_bruteforce", (0, 6)) in bruteforce.violations


def test_verify_family_flags_invalid_members():
    field = get_field(3)
    fam = build_family(field)
    matrices = list(fam.matrices)
    matrices[2] = Mat2.from_indices(field, ((1, 0), (0, 1)))  # lower triangular
    report = verify_family(Family(field, fam.alpha, fam.lam, matrices), "fast")
    assert ("invalid_generator", (2,)) in report.violations


def test_bruteforce_violations_with_copies_and_an_invalid_member():
    """Bruteforce mode reports the invalid member once and skips it in the census."""
    field = get_field(5)
    fam = build_family(field)
    matrices = fam.matrices[:8] + fam.matrices[:2] + [Mat2(field, 1, 0, 0, 1)]
    report = verify_family(Family(field, fam.alpha, fam.lam, matrices), "bruteforce")
    assert report.violations == [
        ("invalid_generator", (10,)),
        ("not_orthogonal", (0, 8)),
        ("not_orthogonal", (1, 9)),
        ("not_orthogonal_bruteforce", (0, 8)),
        ("not_orthogonal_bruteforce", (1, 9)),
    ]
    assert repr(report) == "FamilyReport(mode='bruteforce', size=11, pairs=55, 5 violations)"


def _rebind(monkeypatch, name, replacement):
    """Bind replacement to name wherever moss.sudoku or moss.family holds
    moss.sudoku's function of that name; returns that function."""
    original = getattr(moss.sudoku, name)
    for module in (moss.sudoku, moss.family):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, replacement)
    return original


def _count_builds(monkeypatch):
    """Count build_from_canonical calls made by verify_family."""
    calls = []

    def counted(c):
        calls.append(c)
        return original(c)

    original = _rebind(monkeypatch, "build_from_canonical", counted)
    return calls


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_bruteforce_mode_runs_no_census_on_a_clean_family(q, monkeypatch):
    """Every member's grid has a coset kernel, so bruteforce mode builds each
    grid once, decides every pair by kernels and never calls the census."""
    def census(a, b):
        raise AssertionError("the cell census was called")

    _rebind(monkeypatch, "verify_orthogonal_bruteforce", census)
    builds = _count_builds(monkeypatch)
    report = verify_family(build_family(get_field(q)), "bruteforce")
    assert report.ok and report.size == q * (q - 1)
    assert len(builds) == q * (q - 1)


def _rank1_spike(fam, i):
    """Member i with 1 added to its entry d: it differs from member i by the
    singular nonzero [[0, 0], [0, 1]], and is itself a valid generator."""
    m = fam.matrices[i]
    spike = Mat2(fam.field, m.a, m.b, m.c, fam.field.add_table[m.d][1])
    assert is_valid_generator(spike)
    return spike


# Corrupted families: copies of members, rank-1 spikes and invalid members
# (the identity is lower triangular), built from the family of each q.
CORRUPTED = {
    "copy": (3, lambda fam, m: m + [m[0]]),
    "invalid-and-copy": (3, lambda fam, m: m[:2] + [Mat2(fam.field, 1, 0, 0, 1)] + m[3:] + [m[4]]),
    "copies-and-invalid": (5, lambda fam, m: m[:8] + m[:2] + [Mat2(fam.field, 1, 0, 0, 1)]),
    "rank1": (5, lambda fam, m: m[:10] + [_rank1_spike(fam, 3)]),
    "rank1-q9": (9, lambda fam, m: m[:12] + [_rank1_spike(fam, 5)] + m[12:16]),
    "copy-and-rank1-q9": (9, lambda fam, m: m[:6] + [m[4], _rank1_spike(fam, 1)] + m[6:12]),
}


@pytest.mark.parametrize("name", CORRUPTED)
def test_bruteforce_pairs_match_the_pair_census_oracle(name, monkeypatch):
    """The not_orthogonal_bruteforce pairs are those that the oracle's cell
    census rejects among the valid members, and stay so when every other
    member's kernel is withheld and the pairs with a kernelless side go to
    the census through verify_family."""
    q, corrupt = CORRUPTED[name]
    fam = build_family(get_field(q))
    family = Family(fam.field, fam.alpha, fam.lam, corrupt(fam, fam.matrices))
    grids = [(i, build_from_canonical(m)) for i, m in enumerate(family) if is_valid_generator(m)]
    expected = [(i, j) for (i, a), (j, b) in combinations(grids, 2)
                if not orthogonal_by_pair_census(a, b)]
    report = verify_family(family, "bruteforce")
    assert expected
    assert [pair for kind, pair in report.violations if kind == "not_orthogonal_bruteforce"] \
        == expected

    kernels, census_calls = [], []

    def every_other(grid):
        kernels.append(original_kernel(grid))
        return kernels[-1] if len(kernels) % 2 else None

    def census(a, b):
        census_calls.append((a, b))
        return original_census(a, b)

    original_kernel = _rebind(monkeypatch, "coset_kernel", every_other)
    original_census = _rebind(monkeypatch, "verify_orthogonal_bruteforce", census)
    withheld = verify_family(family, "bruteforce")
    assert withheld.violations == report.violations
    # all pairs but those of the (n + 1) // 2 members that kept a kernel
    n, kept = len(grids), (len(grids) + 1) // 2
    assert len(kernels) == n and len(census_calls) == n * (n - 1) // 2 - kept * (kept - 1) // 2


def test_verify_family_guards():
    fam = build_family(get_field(11))
    with pytest.raises(ValueError):
        verify_family(fam, "bruteforce")  # default cap is q <= 9
    with pytest.raises(ValueError):
        verify_family(fam, "thorough")


def test_verify_family_fast_q121():
    report = verify_family(build_family(get_field(121)), "fast")
    assert report.ok
    assert report.size == 14520
    assert report.pairs == 105_407_940


def test_mode_and_cap_are_checked_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("verification work started before the argument checks")

    monkeypatch.setattr(moss.family, "_orthogonality_violations", no_work)
    monkeypatch.setattr(moss.family, "is_valid_generator", no_work)
    fam = build_family(get_field(11))
    with pytest.raises(ValueError, match="capped"):
        verify_family(fam, "bruteforce")
    with pytest.raises(ValueError, match="unknown mode"):
        verify_family(fam, "thorough")


@pytest.mark.parametrize("family_q, member_q", [(7, 5), (5, 7)])
@pytest.mark.parametrize("mode", ["fast", "bruteforce"])
def test_members_of_another_field_are_rejected_before_any_work(monkeypatch, family_q, member_q,
                                                               mode):
    """Members that do not lie in family.field raise FieldMismatch naming the
    first one.  Unchecked, the GF(5) members under GF(7) read as 14
    violations and the GF(7) members under GF(5) raised IndexError."""
    def no_work(*args):
        raise AssertionError("verification work started before the field check")

    fam, stray = build_family(get_field(family_q)), build_family(get_field(member_q)).matrices
    monkeypatch.setattr(moss.family, "_orthogonality_violations", no_work)
    monkeypatch.setattr(moss.family, "is_valid_generator", no_work)
    for matrices, first in ((stray, 0), (fam.matrices[:3] + stray, 3)):
        with pytest.raises(FieldMismatch, match=rf"^member {first} lies in GF\({member_q}\), "
                                                rf"not in the family's GF\({family_q}\)$"):
            verify_family(Family(fam.field, fam.alpha, fam.lam, matrices), mode)


def test_members_of_an_equal_field_instance_are_accepted():
    fam = build_family(get_field(5))
    twin = build_family(GF(5))  # a separate but equal Field
    assert twin.field is not fam.field
    assert verify_family(Family(fam.field, fam.alpha, fam.lam, twin.matrices), "fast").ok


@pytest.mark.parametrize("q, examples", [(3, 60), (5, 60), (7, 40), (9, 40), (25, 20)])
def test_direction_scan_matches_pairwise_oracle(q, examples):
    """The fast violations are exactly the pairs meets_trivially rejects.

    Random matrices rarely collide, so duplicates and members that differ
    from another by a rank-1 matrix (a singular nonzero difference) are
    injected, and the list is shuffled so they land on either side.
    """
    field = get_field(q)
    alpha = find_alpha(field)
    lam = derive_lambda(field, alpha)
    el = poly_elements(field)
    element = st.integers(0, q - 1)
    entries = st.tuples(element, element, element, element)

    @settings(max_examples=examples, deadline=None)
    @given(st.lists(entries, min_size=1, max_size=30), st.data())
    def check(rows, data):
        matrices = [Mat2.from_indices(field, ((a, b), (c, d))) for a, b, c, d in rows]
        member = st.integers(0, len(matrices) - 1)
        for i in data.draw(st.lists(member, max_size=4), label="duplicates"):
            matrices.append(matrices[i])
        for i, uv in data.draw(st.lists(st.tuples(member, entries), max_size=4), label="rank-1"):
            u1, u2, v1, v2 = (el[x] for x in uv)
            m = matrices[i]
            a, b, c, d = (el[x] for x in (m.a, m.b, m.c, m.d))
            matrices.append(Mat2.from_indices(field, (
                ((a + u1 * v1).index, (b + u1 * v2).index),
                ((c + u2 * v1).index, (d + u2 * v2).index),
            )))
        matrices = data.draw(st.permutations(matrices), label="order")
        n = len(matrices)
        report = verify_family(Family(field, alpha, lam, matrices), "fast")
        expected = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if not meets_trivially(matrices[i], matrices[j])
        ]
        assert [pair for kind, pair in report.violations if kind == "not_orthogonal"] == expected
        assert report.pairs == n * (n - 1) // 2

    check()


def test_fast_scan_agrees_with_meets_trivially_q3():
    field = get_field(3)
    fam = build_family(field)
    spiked = Family(field, fam.alpha, fam.lam, fam.matrices + [fam.matrices[3]])
    report = verify_family(spiked, "fast")
    expected = {
        (i, j)
        for i in range(spiked.size)
        for j in range(i + 1, spiked.size)
        if not meets_trivially(spiked.matrices[i], spiked.matrices[j])
    }
    assert {v for kind, v in report.violations if kind == "not_orthogonal"} == expected


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13])
def test_difference_case_split(q):
    """Differences of distinct members are template matrices or nonzero diagonals."""
    field = get_field(q)
    fam = build_family(field)
    el = poly_elements(field)
    lam = el[fam.lam.index]
    mats = fam.matrices
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            d = mat_sub(mats[i], mats[j])
            if d.b:
                assert d.b == d.c
                # same template shape, so invertible
                assert el[d.d] == lam * el[d.b] + el[d.a]
            else:
                assert d.c == 0
                assert d.a == d.d
                assert d.a  # nonzero diagonal
            assert mat_det(d)


def test_family_is_maximal_at_q3():
    field = get_field(3)
    members = build_family(field).matrices
    extensions = [
        c for c in all_valid_generators(field)
        if all(meets_trivially(c, m) for m in members)
    ]
    assert extensions == []


def test_family_repr_mentions_parameters():
    fam = build_family(get_field(3))
    assert "alpha=1" in repr(fam)
    assert "size=6" in repr(fam)
    assert len(fam) == 6
    assert list(fam)[0].indices() == ((0, 1), (1, 1))
