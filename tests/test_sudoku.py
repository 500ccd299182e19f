"""Grid construction, the three exactly-once checks, and rendering."""

import copy
import json
import os
import random
import subprocess
import sys
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import moss.sudoku
from moss.family import build_family
from moss.gf import GF, DegreeTooSmall, Field, NotOddPrime
from moss.planes import Mat2, Plane, is_valid_generator
from moss.serialize import SchemaViolation, SquareDocument
from moss.sudoku import (
    MalformedGrid,
    NotAGenerator,
    OrderMismatch,
    SudokuGrid,
    build_from_canonical,
    coset_kernel,
    render_grid,
    verify_orthogonal_bruteforce,
    verify_sudoku,
)
from oracles import (
    GOLDEN_GRID_Q3,
    GOLDEN_PLANE_Q3,
    ODD_PRIME_POWERS_49,
    all_planes,
    all_valid_generators,
    build_from_plane,
    canonicalize,
    column_plane,
    get_field,
    grid_from_cosets,
    is_sudoku_generator,
    mat_det,
    mat_mul,
    mat_sub,
    orthogonal_by_pair_census,
    poly_elements,
    reference_document_json,
    render_rows_per_cell,
    row_plane,
    subsquare_plane,
    sudoku_flags_per_cell,
    symbol_at,
)


def golden_plane():
    return Plane.from_indices(get_field(3), *GOLDEN_PLANE_Q3)


def mat(field, rows):
    from moss.planes import Mat2
    return Mat2.from_indices(field, rows)


def test_golden_grid_from_plane():
    grid = build_from_plane(golden_plane())
    assert grid.rows == GOLDEN_GRID_Q3
    # address (0,1,2,2): row 1, column 8
    assert symbol_at(grid, 0, 1, 2, 2) == 1
    # address (2,0,2,0): its coset representative in the top-left subsquare
    # is (0,2,0,1), hence symbol 3*2 + 1
    assert symbol_at(grid, 2, 0, 2, 0) == 7


def test_golden_grid_from_canonical():
    f3 = get_field(3)
    grid = build_from_canonical(mat(f3, ((0, 2), (2, 1))))
    assert grid.rows == GOLDEN_GRID_Q3


def test_build_rejects_non_generators():
    f3 = get_field(3)
    with pytest.raises(NotAGenerator):
        build_from_canonical(mat(f3, ((1, 0), (0, 1))))
    with pytest.raises(NotAGenerator):
        build_from_canonical(mat(f3, ((1, 2), (2, 1))))
    with pytest.raises(NotAGenerator):
        build_from_plane(column_plane(f3))


def test_plane_and_canonical_builds_agree():
    f3 = get_field(3)
    for plane in all_planes(f3):
        if is_sudoku_generator(plane):
            grid = build_from_plane(plane)
            assert grid == build_from_canonical(canonicalize(plane))
            assert grid.rows == relabel_by_top_left(grid_from_cosets(plane))
        else:
            with pytest.raises(NotAGenerator):
                build_from_plane(plane)


def relabel_by_top_left(grid):
    """Rename each symbol class q*a + b after its cell in row a, column b."""
    q = grid.q
    name = {grid.rows[a][b]: q * a + b for a in range(q) for b in range(q)}
    return [[name[s] for s in row] for row in grid.rows]


@pytest.mark.parametrize("q, examples", [(3, 40), (5, 40), (7, 25), (9, 25), (25, 5)])
def test_builder_matches_coset_oracle(q, examples):
    field = get_field(q)
    element = st.integers(0, q - 1)
    valid = st.builds(
        lambda a, b, c, d: mat(field, ((a, b), (c, d))),
        element, st.integers(1, q - 1), element, element,
    ).filter(lambda m: bool(mat_det(m)))

    @settings(max_examples=examples, deadline=None)
    @given(valid)
    def check(c):
        oracle = grid_from_cosets(Plane.from_generator(c))
        assert build_from_canonical(c).rows == relabel_by_top_left(oracle)

    check()


def test_every_valid_generator_builds_a_sudoku_square_q3():
    for c in all_valid_generators(get_field(3)):
        assert verify_sudoku(build_from_canonical(c)).ok


@pytest.mark.parametrize("q", [5, 7])
def test_sampled_generators_build_sudoku_squares(q):
    field = get_field(q)
    rng = random.Random(q)
    for c in rng.sample(all_valid_generators(field), 100):
        assert verify_sudoku(build_from_canonical(c)).ok


def test_verify_flags_golden():
    report = verify_sudoku(build_from_plane(golden_plane()))
    assert (report.latin_rows, report.latin_cols, report.subsquares) == (True, True, True)
    assert report.ok


def test_verify_flags_after_swap_within_block():
    rows = copy.deepcopy(GOLDEN_GRID_Q3)
    rows[0][0], rows[0][1] = rows[0][1], rows[0][0]
    report = verify_sudoku(SudokuGrid(3, rows))
    assert report.latin_rows  # a swap inside one row keeps the row a permutation
    assert not report.latin_cols
    assert report.subsquares  # both cells sit in the same subsquare
    assert not report.ok


def test_verify_flags_after_swap_across_blocks():
    rows = copy.deepcopy(GOLDEN_GRID_Q3)
    rows[0][0], rows[0][3] = rows[0][3], rows[0][0]
    report = verify_sudoku(SudokuGrid(3, rows))
    assert report.latin_rows
    assert not report.latin_cols
    assert not report.subsquares
    assert not report.ok
    # moss verify prints this repr in the FAIL line of such a grid.
    assert repr(report) == "SudokuReport(latin_rows=True, latin_cols=False, subsquares=False)"


def test_verify_flags_constant_columns():
    rows = [list(range(9)) for _ in range(9)]
    report = verify_sudoku(SudokuGrid(3, rows))
    assert report.latin_rows
    assert not report.latin_cols
    assert not report.subsquares


def symbol_text(s, n):
    """The MalformedGrid text for the first bad symbol s of an order-n grid:
    a value that is not an exact int is named by its type, an int by its range."""
    if type(s) is int:
        return f"symbol {s!r} out of range [0, {n})"
    return f"symbol {s!r} is a {type(s).__name__}, not an int"


def test_verify_malformed():
    with pytest.raises(MalformedGrid):
        verify_sudoku(SudokuGrid(3, [list(range(9))] * 8))
    with pytest.raises(MalformedGrid):
        verify_sudoku(SudokuGrid(3, [list(range(8)) + [9]] + [list(range(9))] * 8))
    bad = [list(range(9)) for _ in range(9)]
    bad[4][4] = 81
    with pytest.raises(MalformedGrid):
        verify_sudoku(SudokuGrid(3, bad))
    bad[4][4] = True
    with pytest.raises(MalformedGrid):
        verify_sudoku(SudokuGrid(3, bad))
    # too few or too many rows, a short row, rows, or a row, with no length,
    # and rows that are sets or dicts (no Sequence) are the wrong shape, not
    # a TypeError, an AttributeError or a verdict read off their iteration order
    for rows in ([list(range(9))] * 8, [list(range(9))] * 10,
                 [list(range(8))] + [list(range(9))] * 8, [0] * 9, None, [None] * 9,
                 [set(row) for row in GOLDEN_GRID_Q3],
                 [{s: s for s in row} for row in GOLDEN_GRID_Q3]):
        for check in (verify_sudoku, coset_kernel,
                      lambda g: verify_orthogonal_bruteforce(g, g),
                      lambda g: verify_orthogonal_bruteforce(g, SudokuGrid(3, GOLDEN_GRID_Q3))):
            with pytest.raises(MalformedGrid, match=r"^grid must be 9x9$"):
                check(SudokuGrid(3, rows))
    tuples = SudokuGrid(3, tuple(map(tuple, GOLDEN_GRID_Q3)))
    assert verify_sudoku(tuples).ok and coset_kernel(tuples) is not None
    assert not verify_orthogonal_bruteforce(tuples, tuples)


ROW_WRAPPERS = {"list": list, "tuple": tuple, "bytes": bytes,
                "str": lambda row: "".join(map(str, row)), "dict": lambda row: {s: s for s in row},
                "set": set, "generator": lambda row: (s for s in row)}
OUTER_WRAPPERS = {"list": list, "tuple": tuple, "generator": lambda rows: (r for r in rows),
                  "dict": lambda rows: dict(enumerate(rows))}


@pytest.mark.parametrize("outer", OUTER_WRAPPERS)
@pytest.mark.parametrize("row", ROW_WRAPPERS)
def test_checks_share_one_shape_rule(row, outer):
    """coset_kernel, verify_sudoku and the census, a first or b first, judge
    a grid's shape by one rule: the golden q = 3 grid in lists, tuples or
    bytes (Sequences of ints) is read by all four; digit strings are the
    right shape and all four name the first symbol's type; rows that are
    dicts, sets or generators, and outer containers that are generators or
    dicts, are the wrong shape to all four."""
    def grid():
        return SudokuGrid(3, OUTER_WRAPPERS[outer](ROW_WRAPPERS[row](r) for r in GOLDEN_GRID_Q3))

    partner = SudokuGrid(3, GOLDEN_GRID_Q3)
    outcomes = [_outcome(coset_kernel, grid()), _outcome(verify_sudoku, grid()),
                _outcome(verify_orthogonal_bruteforce, grid(), partner),
                _outcome(verify_orthogonal_bruteforce, partner, grid())]
    if outer in ("generator", "dict") or row in ("dict", "set", "generator"):
        assert outcomes == [("malformed", "grid must be 9x9")] * 4
    elif row == "str":
        assert outcomes == [("malformed", "symbol '0' is a str, not an int")] * 4
    else:
        assert [kind for kind, _ in outcomes] == ["ok"] * 4
        assert outcomes[0][1] == coset_kernel(partner) and outcomes[1][1].ok
        assert not outcomes[2][1] and not outcomes[3][1]


@pytest.mark.parametrize("cell", [81, -1, True, 1.0])
@pytest.mark.parametrize("later", [None, -5])
def test_a_bad_symbol_in_the_last_row_is_named(cell, later):
    """At q = 9, a bad cell in row 80, and with it a later bad cell in that
    row: verify_sudoku, coset_kernel and the census name the first, the
    census a's before b's, though b's bad cell is in row 0."""
    good = build_from_canonical(build_family(get_field(9)).matrices[0]).rows
    rows = [row[:] for row in good]
    rows[80][20] = cell
    if later is not None:
        rows[80][60] = later
    bad_b = [row[:] for row in good]
    bad_b[0][0] = 100
    grid, clean = SudokuGrid(9, rows), SudokuGrid(9, good)
    for check in (verify_sudoku, coset_kernel,
                  lambda g: verify_orthogonal_bruteforce(g, clean),
                  lambda g: verify_orthogonal_bruteforce(clean, g),
                  lambda g: verify_orthogonal_bruteforce(g, SudokuGrid(9, bad_b))):
        with pytest.raises(MalformedGrid) as exc_info:
            check(grid)
        assert str(exc_info.value) == symbol_text(cell, 81)


def test_checks_build_only_the_caches_they_read():
    """verify_sudoku, coset_kernel (on a and on b) and the census leave only
    q and rows on every grid, so cells changed after a passing check, in a
    row other than 0, are caught on the next call, the first grid read
    first: a's 1 becomes True, 1.0 (both equal to 1) or 100, b's 1 becomes
    -1.  Changed back, the grids pass again."""
    a, b = (build_from_canonical(mat(get_field(3), c)) for c in (((0, 2), (2, 1)), ((0, 1), (1, 1))))
    for check, first in [(lambda: verify_sudoku(a).ok, a),
                         (lambda: coset_kernel(a) is not None, a),
                         (lambda: coset_kernel(b) is not None, b),
                         (lambda: verify_orthogonal_bruteforce(a, b), a),
                         (lambda: verify_orthogonal_bruteforce(b, a), b)]:
        assert check()
        assert vars(a) == {"q": 3, "rows": a.rows} and vars(b) == {"q": 3, "rows": b.rows}
        for bad in (True, 1.0, 100):
            cols = [grid.rows[4].index(1) for grid in (a, b)]
            a.rows[4][cols[0]], b.rows[4][cols[1]] = bad, -1
            with pytest.raises(MalformedGrid) as exc_info:
                check()
            assert str(exc_info.value) == symbol_text(bad if first is a else -1, 9)
            a.rows[4][cols[0]] = b.rows[4][cols[1]] = 1
            assert check()


def test_non_orthogonal_pairs_reads_row_maps_of_one_order():
    """non_orthogonal_pairs takes row maps alone and returns the sorted
    failing pairs: (0, 5) for the 6 squares of q = 3 with a copy of square
    0 in place of square 5, and nothing for the empty list.  Row maps of
    different lengths raise OrderMismatch: zip would have cut a GF(5) map
    to its first 9 rows and read the pair as orthogonal."""
    members = build_family(get_field(3)).matrices
    members[5] = members[0]
    kernels = [coset_kernel(build_from_canonical(m)) for m in members]
    assert moss.sudoku.non_orthogonal_pairs(kernels) == [(0, 5)]
    assert moss.sudoku.non_orthogonal_pairs([]) == []
    other = coset_kernel(build_from_canonical(build_family(get_field(5)).matrices[0]))
    for mixed, message in [([kernels[0], other], r"^order 9 vs 25$"),
                           ([other, kernels[1], kernels[2]], r"^order 25 vs 9$")]:
        with pytest.raises(OrderMismatch, match=message):
            moss.sudoku.non_orthogonal_pairs(mixed)


def test_census_checks_each_grid_once(monkeypatch):
    """verify_orthogonal_bruteforce range-checks each grid once, a before
    b, and grids of different orders raise OrderMismatch before either is
    checked."""
    a, b = (build_from_canonical(m) for m in build_family(get_field(3)).matrices[:2])
    checked = []
    original = moss.sudoku._check_rows

    def counting_check(rows, n):
        checked.append(rows)
        original(rows, n)

    monkeypatch.setattr(moss.sudoku, "_check_rows", counting_check)
    assert verify_orthogonal_bruteforce(a, b) and not verify_orthogonal_bruteforce(b, b)
    assert list(map(id, checked)) == [id(a.rows), id(b.rows), id(b.rows), id(b.rows)]
    checked.clear()
    other = build_from_canonical(build_family(get_field(5)).matrices[0])
    with pytest.raises(OrderMismatch, match=r"^order 9 vs 25$"):
        verify_orthogonal_bruteforce(a, other)
    assert checked == []


@pytest.mark.parametrize("q", [-3, 0, 3.0, True, "3"])
def test_grid_rejects_a_bad_q_on_construction(q):
    """q is checked when the grid is made, so no check reads a grid of
    q = -3 (whose range(0, 9, -3) of boxes is empty) as a sudoku square."""
    latin = [[(r + c) % 9 for c in range(9)] for r in range(9)]  # boxes repeat symbols
    assert not verify_sudoku(SudokuGrid(3, latin)).subsquares
    with pytest.raises(MalformedGrid, match="q must be"):
        SudokuGrid(q, latin)


def test_orthogonality_bruteforce():
    f3 = get_field(3)
    golden = build_from_plane(golden_plane())
    assert not verify_orthogonal_bruteforce(golden, golden)
    other = build_from_canonical(mat(f3, ((0, 1), (1, 1))))
    assert verify_orthogonal_bruteforce(other, golden)
    a = build_from_canonical(mat(f3, ((0, 1), (1, 1))))
    b = build_from_canonical(mat(f3, ((1, 2), (2, 2))))  # difference [[2,2],[2,2]] is singular
    assert not verify_orthogonal_bruteforce(a, b)
    with pytest.raises(OrderMismatch):
        verify_orthogonal_bruteforce(golden, build_from_canonical(mat(get_field(5), ((0, 1), (1, 1)))))


def test_orthogonality_rejects_symbols_out_of_range():
    f3 = get_field(3)
    golden = build_from_plane(golden_plane())
    partner = build_from_canonical(mat(f3, ((0, 1), (1, 1))))
    assert verify_orthogonal_bruteforce(partner, golden)
    # the tuple census alone calls a relabelled copy orthogonal
    shifted = SudokuGrid(3, [[s + 100 for s in row] for row in GOLDEN_GRID_Q3])
    assert orthogonal_by_pair_census(partner, shifted)
    cases = [(shifted, "symbol 100 out of range [0, 9)")]
    for bad, message in ((-1, "symbol -1 out of range [0, 9)"), (9, "symbol 9 out of range [0, 9)"),
                         (True, "symbol True is a bool, not an int")):
        rows = copy.deepcopy(GOLDEN_GRID_Q3)
        rows[5][7] = bad
        cases.append((SudokuGrid(3, rows), message))
    for grid, message in cases:
        for pair in ((partner, grid), (grid, partner)):
            with pytest.raises(MalformedGrid) as exc_info:
                verify_orthogonal_bruteforce(*pair)
            assert str(exc_info.value) == message
    with pytest.raises(MalformedGrid, match="grid must be 9x9"):
        verify_orthogonal_bruteforce(partner, SudokuGrid(3, GOLDEN_GRID_Q3[:8]))


def test_changed_rows_are_checked_on_every_call():
    """A check keeps nothing on a grid, so rows changed after the grid passed
    every check are checked anew: a symbol 100 is a MalformedGrid in each
    check and in both census orders, in the same grid and in a new one, and
    changed back the grid passes again."""
    f3 = get_field(3)
    grid = build_from_plane(golden_plane())
    partner = build_from_canonical(mat(f3, ((0, 1), (1, 1))))
    checks = [lambda g: verify_sudoku(g).ok, lambda g: coset_kernel(g) is not None,
              lambda g: verify_orthogonal_bruteforce(partner, g),
              lambda g: verify_orthogonal_bruteforce(g, partner)]
    assert all(check(grid) for check in checks)
    symbol, grid.rows[0][0] = grid.rows[0][0], 100
    for changed in (grid, SudokuGrid(3, copy.deepcopy(grid.rows))):
        for check in checks:
            with pytest.raises(MalformedGrid) as exc_info:
                check(changed)
            assert str(exc_info.value) == "symbol 100 out of range [0, 9)"
    grid.rows[0][0] = symbol
    assert all(check(grid) for check in checks)


@lru_cache(maxsize=None)
def family_rows(q):
    return tuple(build_from_canonical(m).rows for m in build_family(get_field(q)))


def _grid(q, rows):
    return SudokuGrid(q, [list(row) for row in rows])


@st.composite
def grid_pairs(draw, q):
    """Two grids, each a family member as it is, with one cell rewritten or
    with two cells swapped, a grid whose rows are independent random
    permutations of range(n), or a grid of random symbols."""
    n = q * q
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    members = family_rows(q)
    pair = []
    for _ in range(2):
        kind = draw(st.sampled_from(("member", "one-cell", "two-cell", "row-shuffled", "random")))
        if kind == "random":
            rng = random.Random(draw(st.integers(0, 2**32 - 1)))
            pair.append(SudokuGrid(q, [[rng.randrange(n) for _ in range(n)] for _ in range(n)]))
            continue
        if kind == "row-shuffled":
            rng = random.Random(draw(st.integers(0, 2**32 - 1)))
            pair.append(SudokuGrid(q, [rng.sample(range(n), n) for _ in range(n)]))
            continue
        grid = _grid(q, draw(st.sampled_from(members)))
        if kind == "one-cell":
            (r, c), s = draw(cell), draw(st.integers(0, n - 1))
            grid.rows[r][c] = s
        elif kind == "two-cell":
            (r1, c1), (r2, c2) = draw(cell), draw(cell)
            grid.rows[r1][c1], grid.rows[r2][c2] = grid.rows[r2][c2], grid.rows[r1][c1]
        pair.append(grid)
    return pair


@pytest.mark.parametrize("q, examples", [(3, 200), (5, 100), (7, 80), (9, 60)])
def test_census_matches_pair_oracle(q, examples):
    members = [_grid(q, rows) for rows in family_rows(q)[:6]]
    for i, a in enumerate(members):
        for b in members[i:]:
            assert verify_orthogonal_bruteforce(a, b) is (a is not b)
            assert orthogonal_by_pair_census(a, b) is (a is not b)

    @settings(max_examples=examples, deadline=None)
    @given(grid_pairs(q))
    def check(pair):
        a, b = pair
        assert verify_orthogonal_bruteforce(a, b) == orthogonal_by_pair_census(a, b)
        assert verify_orthogonal_bruteforce(b, a) == orthogonal_by_pair_census(b, a)

    check()


def test_census_paths_at_the_byte_boundary():
    # The census keys cells by n*s + t at every order: n = 256, the largest
    # whose symbols fit in a byte, and n = 289 (q = 17) give the same
    # verdicts as the oracle, on latin rows and on constant rows alike.
    n = 256
    cols = SudokuGrid(16, [list(range(n)) for _ in range(n)])
    rows = SudokuGrid(16, [[r] * n for r in range(n)])
    bent = SudokuGrid(16, [[r] * n for r in range(n)])
    bent.rows[7][200] = 8
    for a, b, expected in ((cols, rows, True), (cols, bent, False), (cols, cols, False)):
        assert verify_orthogonal_bruteforce(a, b) is expected
        assert orthogonal_by_pair_census(a, b) is expected
    assert verify_orthogonal_bruteforce(rows, cols) and not verify_orthogonal_bruteforce(bent, cols)

    matrices = build_family(get_field(17)).matrices
    a, b = build_from_canonical(matrices[0]), build_from_canonical(matrices[1])
    changed = _grid(17, a.rows)
    changed.rows[100][3] = (changed.rows[100][3] + 1) % 289
    for x, y, expected in ((a, b, True), (a, a, False), (changed, b, False), (b, changed, False)):
        assert verify_orthogonal_bruteforce(x, y) is expected
        assert orthogonal_by_pair_census(x, y) is expected


@lru_cache(maxsize=None)
def family_matrices(q):
    return build_family(get_field(q)).matrices


@lru_cache(maxsize=None)
def index_sums(q):
    """Sums of element indices by polynomial addition: no library table."""
    elems = poly_elements(get_field(q))
    return [[(x + y).index for y in elems] for x in elems]


def cell_sum(q, x, y):
    """Cells (R, C) added coordinate by coordinate, R = q*x1 + x2 and
    C = q*x3 + x4."""
    add = index_sums(q)
    return tuple(q * add[u // q][v // q] + add[u % q][v % q] for u, v in zip(x, y))


def coord_sum(q, u, v):
    """Row (or column) coordinates u = q*x1 + x2 added digit by digit."""
    return cell_sum(q, (u,), (v,))[0]


def shifted_rows(q, row0, kappa):
    """The grid whose row R is row0 shifted by kappa(R): row0[C] sits in
    column C + kappa(R)."""
    rows = [[None] * (q * q) for _ in kappa]
    for row, u in zip(rows, kappa):
        for col, s in enumerate(row0):
            row[coord_sum(q, col, u)] = s
    return rows


def is_additive(q, kappa):
    """Whether kappa(R + S) = kappa(R) + kappa(S) for all R and S."""
    n = q * q
    return all(kappa[coord_sum(q, r, s)] == coord_sum(q, kappa[r], kappa[s])
               for r in range(n) for s in range(n))


def kappa_broken_at(q, g):
    """A bijective kappa on [0, q^2), kappa(0) = 0, that is additive on the
    generators before number g of p^i, q*p^i (i < k), the order in which
    coset_kernel checks them, but not on generator number g, gen.  It is the
    identity except on the coset 2*gen + H of the span H of the earlier
    generators, which it translates by the first generator, inside H.  For
    g = 0, H = {0}: it swaps 2*gen and the second generator instead."""
    field = get_field(q)
    places = [field.p ** i for i in range(field.k)]
    gens = places + [q * w for w in places]
    kappa = list(range(q * q))
    twice = coord_sum(q, gens[g], gens[g])
    if g == 0:
        kappa[twice], kappa[gens[1]] = gens[1], twice
        return kappa
    span = {0}
    for h in gens[:g]:
        for _ in range(field.p - 1):
            span |= {coord_sum(q, x, h) for x in span}
    for h in span:
        r = coord_sum(q, twice, h)
        kappa[r] = coord_sum(q, r, gens[0])
    return kappa


def span_of(q, vectors):
    """The cells that sums of multiples of the vectors reach from (0, 0)."""
    span = {(0, 0)}
    for v in vectors:
        layer, grown = span, set(span)
        for _ in range(get_field(q).p - 1):
            layer = {cell_sum(q, x, v) for x in layer}
            grown |= layer
        span = grown
    return span


def split_coset(rows, q, skip):
    """rows with two symbol classes swapped on one coset each of L, the
    span of all but cell number skip of a basis of K (the cells of the
    (0, 0) symbol), picked greedily in row order: the cells in rows p^i and
    q*p^i (i < k), by which coset_kernel translates the grid.

    L has index p in K, so the grid stays invariant under L but not under
    K; K itself, one cell per row, and the n distinct symbols of row 0 stay
    as they were.
    """
    s0 = rows[0][0]
    basis, span = [], {(0, 0)}
    for cell in ((r, row.index(s0)) for r, row in enumerate(rows)):
        if cell not in span:
            basis.append(cell)
            span = span_of(q, basis)
    subgroup = span_of(q, basis[:skip] + basis[skip + 1:])
    out = [list(row) for row in rows]
    (first, s1), (second, s2) = ((0, 1), rows[0][1]), ((0, 2), rows[0][2])
    for x in subgroup:
        for origin, symbol in ((first, s2), (second, s1)):
            r, c = cell_sum(q, origin, x)
            out[r][c] = symbol
    return out


@st.composite
def kernel_pairs(draw, q):
    """Two grids and, for each, whether coset_kernel must find a kernel
    (True), must return None (False) or may do either (None).

    Family members, a member and its twin, a member C against
    C - (a rank-1 matrix) and a member with its symbols relabelled by a
    permutation of range(n) are coset partitions; a member with one cell
    rewritten, with two symbol classes merged, or with two classes swapped
    on one coset of an index-p subgroup of its kernel is not; a grid of
    independently shuffled rows almost surely is not.
    """
    n, field = q * q, get_field(q)
    matrices = family_matrices(q)
    c = matrices[draw(st.integers(0, len(matrices) - 1))]
    partner = matrices[draw(st.integers(0, len(matrices) - 1))]
    kind = draw(st.sampled_from(
        ("member", "twin", "rank-1", "relabelled", "one-cell", "merged", "split",
         "row-shuffled")))
    expect = kind in ("member", "twin", "rank-1", "relabelled")
    if kind == "twin":
        partner = c
    elif kind == "rank-1":
        nonzero = st.tuples(st.integers(0, q - 1), st.integers(0, q - 1)).filter(any)
        (u1, u2), (v1, v2) = draw(nonzero), draw(nonzero)
        partner = mat_sub(c, mat_mul(Mat2(field, u1, 0, u2, 0), Mat2(field, v1, v2, 0, 0)))
        assume(is_valid_generator(partner))
    rows = build_from_canonical(c).rows
    if kind == "relabelled":
        label = draw(st.permutations(range(n)))
        rows = [[label[s] for s in row] for row in rows]
    elif kind == "one-cell":
        r, col = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[r][col] = draw(st.integers(0, n - 1).filter(lambda s: s != rows[r][col]))
    elif kind == "merged":
        s1, s2 = rows[0][1], rows[0][2]
        rows = [[s2 if s == s1 else s for s in row] for row in rows]
    elif kind == "split":
        rows = split_coset(rows, q, draw(st.integers(0, 2 * field.k - 1)))
    elif kind == "row-shuffled":
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        rows, expect = [rng.sample(range(n), n) for _ in range(n)], None
    pair = [(SudokuGrid(q, rows), expect), (build_from_canonical(partner), True)]
    if draw(st.booleans()):
        pair.reverse()
    return pair


@pytest.mark.parametrize("q, examples", [(3, 150), (5, 80), (7, 50), (9, 40), (25, 6), (27, 6)])
def test_coset_kernels_decide_orthogonality_exactly(q, examples):
    """non_orthogonal_pairs on the row maps (kernels that meet only at 0
    iff the maps differ in every row R != 0) where both grids have one,
    else the package's census, agrees with the pair oracle on every pair.  A row map kappa is the
    kernel {R*n + kappa(R)}: the cells of the (0, 0) symbol.  At
    q = 9, 25 and 27 (k > 1) digit-wise addition differs from index
    addition."""
    n = q * q

    @settings(max_examples=examples, deadline=None)
    @given(kernel_pairs(q))
    def check(pair):
        kernels = []
        for grid, expect in pair:
            kernel = coset_kernel(grid)
            if expect is not None:
                assert (kernel is not None) is expect
            if kernel is not None:
                s0 = grid.rows[0][0]
                assert kernel[0] == 0 and len(kernel) == n
                assert {r * n + kernel[r] for r in range(1, n)} == {
                    r * n + c for r, row in enumerate(grid.rows)
                    for c, s in enumerate(row) if s == s0} - {0}
            kernels.append(kernel)
        (a, _), (b, _) = pair
        ka, kb = kernels
        if ka is not None and kb is not None:
            verdict = not moss.sudoku.non_orthogonal_pairs(kernels)
        else:
            verdict = verify_orthogonal_bruteforce(a, b)
        assert verdict == orthogonal_by_pair_census(a, b)

    check()


def test_coset_kernel_basis_stays_within_2k_cells(monkeypatch):
    """coset_kernel builds one shift map per generator p^i, q*p^i of the row
    coordinates, in that order, and no per-q table: exactly 2k on a family
    member, also on the first call after the digit sums are dropped.  A
    random grid builds none when its kappa fails the column or box test,
    else 1, as it fails at the first generator; the 20 seeds give both.  A
    grid whose rows are row 0 shifted by a kernel's kappa after a kappa
    that is additive on the generators before number g only passes both
    tests and is rejected at g, after g + 1 maps."""
    maps = []
    shift = moss.sudoku._shift
    monkeypatch.setattr(moss.sudoku, "_shift", lambda *args: maps.append(args) or shift(*args))
    for q, k in ((3, 1), (9, 2)):
        n = q * q
        rows = build_from_canonical(family_matrices(q)[q - 1]).rows
        moss.sudoku._digit_sums.cache_clear()
        maps.clear()
        kappa = coset_kernel(SudokuGrid(q, rows))
        assert kappa is not None
        assert len(maps) == 2 * k
        counts = set()
        for seed in range(20):
            rng = random.Random(seed)
            shuffled = [rng.sample(range(n), n) for _ in range(n)]
            column = [row.index(shuffled[0][0]) for row in shuffled]
            maps.clear()
            assert coset_kernel(SudokuGrid(q, shuffled)) is None
            assert len(maps) == (0 not in column[1:] and min(column[1:q]) >= q)
            counts.add(len(maps))
        assert counts == {0, 1}
        for g in range(2 * k):
            broken = [kappa[x] for x in kappa_broken_at(q, g)]
            assert 0 not in broken[1:] and min(broken[1:q]) >= q
            maps.clear()
            assert coset_kernel(SudokuGrid(q, shifted_rows(q, rows[0], broken))) is None
            assert len(maps) == g + 1


def descends(p, s, r):
    """Whether the parent steps S -> S - p^j, j the lowest nonzero base-p
    digit of S, lead from row s to row r."""
    while s > r:
        g = 1
        while s // g % p == 0:
            g *= p
        s -= g
    return s == r


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_coset_kernel_checks_every_row(q):
    """Every row R != 0 is checked against its parent row: family member 1
    with two cells of row R swapped, or with row R replaced by row 0
    shifted by some u != kappa(R), has no kernel, for each R.  So has the
    member with symbols rows[0][1] and rows[0][2] swapped in row R and in
    every row below it in the parent tree, which only R's own check can
    see: kappa stays, and each row below R still matches its shifted
    parent."""
    n, p = q * q, get_field(q).p
    rows = build_from_canonical(family_matrices(q)[1]).rows
    kappa = coset_kernel(SudokuGrid(q, rows))
    assert kappa is not None
    swap = {rows[0][1]: rows[0][2], rows[0][2]: rows[0][1]}
    for r in range(1, n):
        swapped = rows[r][:]
        swapped[0], swapped[1] = swapped[1], swapped[0]
        moved = shifted_rows(q, rows[0], [(kappa[r] + r) % n])[0]
        variants = [rows[:r] + [row] + rows[r + 1:] for row in (swapped, moved)]
        variants.append([[swap.get(symbol, symbol) for symbol in row] if descends(p, s, r) else row
                         for s, row in enumerate(rows)])
        for variant in variants:
            grid = SudokuGrid(q, variant)
            assert coset_kernel(grid) is None, r


@pytest.mark.parametrize("q", ODD_PRIME_POWERS_49)
def test_coset_kernel_certifies_member_1_of_every_family(q):
    """Member 1 of each of the 18 families with q <= 49 has a row map of n
    entries: k = 2 at q = 9, 25 and 49, and k = 3 at q = 27."""
    kappa = coset_kernel(build_from_canonical(family_matrices(q)[1]))
    assert kappa is not None and len(kappa) == q * q


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs Linux VmHWM")
def test_coset_kernel_holds_no_per_q_table():
    """A fresh process's peak memory rises by less than 1 MB over the first
    coset_kernel of a GF(25) grid: the kernel builds its 2k shift maps per
    grid, not a table of n getters per q (about 3 MB at q = 25)."""
    code = (
        "from moss import GF, build_family\n"
        "from moss.sudoku import build_from_canonical, coset_kernel\n"
        "def peak_kb():\n"
        "    with open('/proc/self/status') as status:\n"
        "        return next(int(line.split()[1]) for line in status if line.startswith('VmHWM:'))\n"
        "grid = build_from_canonical(build_family(GF(25)).matrices[1])\n"
        "before = peak_kb()\n"
        "assert coset_kernel(grid) is not None\n"
        "print(peak_kb() - before)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(moss.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert int(run.stdout) < 1024


def test_coset_kernel_of_the_golden_grid_and_of_order_36():
    # The rows of range(n), cyclically shifted, are a coset partition of
    # Z_n^2 but not of (Z_p^k)^4 for n = 36: there is no such p.
    rows = [[(r + c) % 36 for c in range(36)] for r in range(36)]
    assert coset_kernel(SudokuGrid(6, rows)) is None
    kappa = coset_kernel(SudokuGrid(3, GOLDEN_GRID_Q3))
    assert kappa == (0, 7, 5, 2, 6, 4, 1, 8, 3)
    assert {r * 9 + kappa[r] for r in range(1, 9)} == frozenset(
        r * 9 + c for r, row in enumerate(GOLDEN_GRID_Q3) for c, s in enumerate(row) if s == 0) - {0}


def kappa_keeping_boxes(q):
    """A bijective kappa, kappa(0) = 0, that is not additive but whose
    row-shifted grid is a sudoku square: kappa(q*r1 + r2) = q*r2' + r1,
    with r2' = r2 except in large row 1, where mini rows 1 and 2 swap.
    Each box's rows take q distinct high digits, so each box is latin."""
    swap = {1: 2, 2: 1}
    return [q * (swap.get(r2, r2) if r1 == 1 else r2) + r1 for r1 in range(q) for r2 in range(q)]


@pytest.mark.parametrize("q", [3, 5, 9])
def test_a_row_shifted_grid_needs_an_additive_kappa(q):
    """Row 0 shifted by a bijective kappa that is not additive passes the
    row-shift test, and is latin in rows and columns, but it is no coset
    partition: coset_kernel gives None, also for the grid
    of kappa_keeping_boxes, which verify_sudoku and the per-cell flags
    pass.  Each kappa_broken_at breaks additivity at another generator; a
    random one breaks it anywhere."""
    n = q * q
    row0 = build_from_canonical(family_matrices(q)[0]).rows[0]
    rng = random.Random(q)
    kappas = [kappa_broken_at(q, g) for g in range(2 * get_field(q).k)]
    kappas += [[0] + rng.sample(range(1, n), n - 1), kappa_keeping_boxes(q)]
    for kappa in kappas:
        assert sorted(kappa) == list(range(n)) and kappa[0] == 0
        assert not is_additive(q, kappa)
        grid = SudokuGrid(q, shifted_rows(q, row0, kappa))
        assert coset_kernel(grid) is None
        report = verify_sudoku(grid)
        assert report.latin_rows and report.latin_cols
        assert (report.latin_rows, report.latin_cols, report.subsquares) == sudoku_flags_per_cell(grid)
    assert report.ok
    assert is_additive(q, coset_kernel(build_from_canonical(family_matrices(q)[0])))


def test_coset_kernel_range_checks_the_rows_past_row_0():
    """coset_kernel compares row 0's range alone; the row-shift test puts
    every other row in row 0's symbols, but True and 1.0 equal 1, so the
    exact int type set over all cells must catch them.  Every failure goes
    through _check_rows: True, -1 or 1.0 in row 40 raises its message in
    coset_kernel, and so does a 100 in row 50 of a grid
    whose row 3 is not a shift of row 0, though the kernel fails at row 3
    first."""
    rows = build_from_canonical(family_matrices(9)[0]).rows
    cases = []
    for bad, message in ((True, "symbol True is a bool, not an int"),
                         (-1, "symbol -1 out of range [0, 81)"),
                         (1.0, "symbol 1.0 is a float, not an int")):
        changed = [list(row) for row in rows]
        changed[40][changed[40].index(1)] = bad
        cases.append((changed, message))
    changed = [list(row) for row in rows]
    changed[3][0], changed[3][1] = changed[3][1], changed[3][0]
    changed[50][7] = 100
    cases.append((changed, "symbol 100 out of range [0, 81)"))
    for changed, message in cases:
        with pytest.raises(MalformedGrid) as exc_info:
            coset_kernel(SudokuGrid(9, changed))
        assert str(exc_info.value) == message
    changed[50][7] = rows[50][7]
    assert coset_kernel(SudokuGrid(9, changed)) is None


def _assert_kernel_verdict(grid):
    """coset_kernel's verdict, whether it finds a kernel, agrees with
    verify_sudoku and with the per-cell flags.  Returns the verdict."""
    verdict = coset_kernel(grid) is not None
    assert verdict == verify_sudoku(grid).ok == all(sudoku_flags_per_cell(grid))
    return verdict


@st.composite
def coset_grids(draw, q):
    """(grid, verdict): the coset labeling (grid_from_cosets) of the span of
    [I; C] for a valid, rank-1, zero or lower-triangular C or of a random
    plane, or a family member's grid with its symbols relabelled.  The
    verdict is whether coset_kernel must find a kernel (True), must not
    (False), or may do either (None): the span of [I; C] gives a sudoku
    square iff C is a valid generator."""
    field, n = get_field(q), q * q
    element, nonzero = st.integers(0, q - 1), st.integers(1, q - 1)
    kind = draw(st.sampled_from(("valid", "rank-1", "zero", "lower", "random", "relabelled")))
    if kind == "relabelled":
        label = draw(st.permutations(range(n)))
        rows = build_from_canonical(draw(st.sampled_from(family_matrices(q)))).rows
        return SudokuGrid(q, [[label[s] for s in row] for row in rows]), True
    if kind == "random":
        v1, v2 = (draw(st.lists(element, min_size=4, max_size=4)) for _ in range(2))
        try:
            plane = Plane.from_indices(field, v1, v2)
        except ValueError:  # dependent vectors
            assume(False)
        return grid_from_cosets(plane), None
    if kind == "valid":
        c = draw(st.sampled_from(family_matrices(q)))
    elif kind == "rank-1":  # singular; b = u1 * v2 may or may not be 0
        u1, u2, v1, v2 = (draw(element) for _ in range(4))
        assume(any((u1, u2)) and any((v1, v2)))
        c = mat_mul(Mat2(field, u1, 0, u2, 0), Mat2(field, v1, v2, 0, 0))
    elif kind == "zero":
        c = Mat2(field, 0, 0, 0, 0)
    else:  # b = 0, nonsingular
        c = Mat2(field, draw(nonzero), 0, draw(element), draw(nonzero))
    return grid_from_cosets(Plane.from_generator(c)), is_valid_generator(c)


@pytest.mark.parametrize("q, examples", [(3, 60), (5, 40), (9, 25), (25, 2), (27, 2)])
def test_kernel_verdict_matches_the_sudoku_checks(q, examples):
    """On every grid, coset_kernel's verdict (a kernel that meets column 0
    and box 0 only at 0) agrees with verify_sudoku and with the per-cell
    flags.  Fixed planes come first: the span of [I; C] for a singular C
    with b != 0 meets only the column plane, and for an invertible
    lower-triangular C only the subsquare plane, so each of the two kernel
    tests has a grid that only it rejects; the column plane's kernel is
    column 0, which fails both."""
    field = get_field(q)
    fixed = [(Mat2(field, 1, 1, 1, 1), (True, False, True)),
             (Mat2(field, 1, 0, 0, 1), (True, True, False)),
             (family_matrices(q)[0], (True, True, True))]
    for c, flags in fixed:
        grid = grid_from_cosets(Plane.from_generator(c))
        assert sudoku_flags_per_cell(grid) == flags
        assert _assert_kernel_verdict(grid) is all(flags)
    assert _assert_kernel_verdict(grid_from_cosets(column_plane(field))) is False

    @settings(max_examples=examples, deadline=None, derandomize=True)
    @given(coset_grids(q))
    def check(case):
        grid, verdict = case
        found = _assert_kernel_verdict(grid)
        if verdict is not None:
            assert found is verdict

    check()


@pytest.mark.parametrize("q, planes, latin", [(3, 130, 81), (5, 806, 625)])
def test_kernel_report_on_every_plane(q, planes, latin, monkeypatch):
    """coset_kernel reads a grid's whole sudoku report off its kernel: on
    the coset labeling of every plane of F^4 it finds a kernel exactly when
    verify_sudoku, barred from coset_kernel, passes the grid, on 36 grids
    at q = 3 and 400 at q = 5.  The grids latin in rows, whose planes meet
    the row plane only at 0, take all four column and subsquare outcomes,
    so each kernel test rejects some."""
    original = moss.sudoku.verify_sudoku

    def barred(grid):
        raise AssertionError("coset_kernel ran verify_sudoku")

    monkeypatch.setattr(moss.sudoku, "verify_sudoku", barred)
    grids = [grid_from_cosets(plane) for plane in all_planes(get_field(q))]
    outcomes = Counter()
    for grid in grids:
        report = original(grid)
        assert (coset_kernel(grid) is not None) is report.ok
        if report.latin_rows:
            outcomes[report.latin_cols, report.subsquares] += 1
    assert len(grids) == planes and sum(outcomes.values()) == latin
    assert outcomes[True, True] == {3: 36, 5: 400}[q]
    assert set(outcomes) == {(True, True), (True, False), (False, True), (False, False)}


class Symbol(int):
    """An int subclass: rejected, as a bool is, by every integer check, all of
    which take type(x) is int."""


def _outcome(check, *grids):
    try:
        return "ok", check(*grids)
    except MalformedGrid as exc:
        return "malformed", str(exc)


@pytest.mark.parametrize("q", [3, 5])
def test_checks_match_per_cell_oracle_on_malformed_rows(q):
    n = q * q
    bad_symbol = st.sampled_from((True, False, -1, n, n + 7)) | st.builds(
        Symbol, st.integers(-1, n))
    bad_cells = st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), bad_symbol), max_size=3)

    @settings(max_examples=100, deadline=None)
    @given(grid_pairs(q), bad_cells, bad_cells)
    def check(pair, bad_a, bad_b):
        for grid, bad in zip(pair, (bad_a, bad_b)):
            for r, c, s in bad:
                grid.rows[r][c] = s
        a, b = pair
        expected = _outcome(sudoku_flags_per_cell, a)
        report = _outcome(verify_sudoku, a)
        if report[0] == "ok":
            report = "ok", (report[1].latin_rows, report[1].latin_cols, report[1].subsquares)
        assert report == expected
        # the census applies the same range check, to a and then to b
        census = _outcome(verify_orthogonal_bruteforce, a, b)
        if expected[0] == "ok":
            expected = _outcome(sudoku_flags_per_cell, b)
        if expected[0] == "ok":
            expected = "ok", orthogonal_by_pair_census(a, b)
        assert census == expected

    check()


@pytest.mark.parametrize("q", [3, 5, 9])
def test_int_subclass_symbols_are_one_malformed_grid_to_every_check(q):
    """Members 0 and 1 of the family, relabelled with Symbol values, raise
    one MalformedGrid, word for word, from coset_kernel, verify_sudoku and
    the census, whichever side of the census the relabelled grid is on."""
    members = [build_from_canonical(c) for c in list(build_family(get_field(q)))[:2]]
    for i, member in enumerate(members):
        grid = SudokuGrid(q, [[Symbol(s) for s in row] for row in member.rows])
        other = members[1 - i]
        outcomes = [_outcome(coset_kernel, grid), _outcome(verify_sudoku, grid),
                    _outcome(verify_orthogonal_bruteforce, grid, other),
                    _outcome(verify_orthogonal_bruteforce, other, grid)]
        expected = ("malformed", f"symbol {member.rows[0][0]} is a Symbol, not an int")
        assert outcomes == [expected] * 4


def _document_with_q(value):
    data = json.loads(SquareDocument.from_matrix(mat(get_field(3), ((0, 1), (1, 1)))).to_json())
    data["q"] = value
    return SquareDocument._validate(data)


def _grid_with_cell(value):
    grid = build_from_canonical(mat(get_field(3), ((0, 1), (1, 1))))
    grid.rows[4][4] = value
    return verify_sudoku(grid)


@pytest.mark.parametrize("kind", ["bool", "subclass"])
@pytest.mark.parametrize("entry, plain, error, message", [
    (GF, 9, NotOddPrime, "{} is not an odd prime power"),
    (Field, 3, NotOddPrime, "characteristic must be an odd prime, got {}"),
    (lambda k: Field(3, k), 2, DegreeTooSmall, "extension degree must be >= 1, got {}"),
    (lambda m: Field(3, 2, modulus=(m, 0, 1)), 1, ValueError,
     "modulus coefficients must be ints, got ({}, 0, 1)"),
    (lambda i: Mat2.from_indices(get_field(3), ((0, i), (1, 1))), 1, IndexError,
     "element index {} is a {kind}, not an int"),
    (lambda i: get_field(3).is_square(i), 1, IndexError,
     "element index {} is a {kind}, not an int"),
    (lambda q: SudokuGrid(q, []), 3, MalformedGrid, "q must be a positive int, got {}"),
    (_grid_with_cell, 0, MalformedGrid, "symbol {} is a {kind}, not an int"),
    (_document_with_q, 3, SchemaViolation, "q: expected an integer, got {}"),
], ids=["GF", "Field-p", "Field-k", "Field-modulus", "Mat2.from_indices", "Field.is_square",
        "SudokuGrid", "verify_sudoku-cell", "SquareDocument-header"])
def test_integer_entry_points_take_exact_ints(entry, plain, error, message, kind):
    """Every integer entry point takes type(x) is int: True and a Symbol
    are rejected, and the plain int passes.  An element index or a grid
    symbol is named by its type ("True is a bool, not an int"); the other
    entry points give the message any bad value gets."""
    entry(plain)
    value = True if kind == "bool" else Symbol(plain)
    with pytest.raises(error) as exc_info:
        entry(value)
    expected = message.format(repr(value), kind=type(value).__name__)
    assert type(exc_info.value) is error and str(exc_info.value) == expected


def test_orthogonality_census_without_generator_precondition():
    # [[1,2],[2,1]] is singular over GF(3), so it generates no sudoku square,
    # but coset-labeled grids can still be superimposed: the census finds
    # repeats because the two planes share a nonzero vector.
    f3 = get_field(3)
    a = grid_from_cosets(Plane.from_generator(mat(f3, ((0, 1), (1, 0)))))
    b = grid_from_cosets(Plane.from_generator(mat(f3, ((1, 2), (2, 1)))))
    assert not verify_orthogonal_bruteforce(a, b)


def test_coset_labeling_relabels_the_same_square():
    plane = golden_plane()
    labeled = grid_from_cosets(plane)
    assert verify_sudoku(labeled).ok
    # same symbol classes as the canonical build, up to renaming
    canonical = build_from_plane(plane)
    classes = lambda g: {
        frozenset((r, c) for r in range(9) for c in range(9) if g.rows[r][c] == s)
        for s in range(9)
    }
    assert classes(labeled) == classes(canonical)


def test_coset_labeling_exposes_bad_planes():
    f3 = get_field(3)
    by_flags = lambda plane: tuple(
        getattr(verify_sudoku(grid_from_cosets(plane)), name)
        for name in ("latin_rows", "latin_cols", "subsquares")
    )
    # cosets of the column plane are columns: rows stay latin, nothing else
    assert by_flags(column_plane(f3)) == (True, False, False)
    assert by_flags(row_plane(f3)) == (False, True, False)
    assert by_flags(subsquare_plane(f3)) == (False, False, False)


def test_render_text_golden():
    c = canonicalize(golden_plane())
    text = render_grid(c)
    lines = text.split("\n")
    assert lines[0] == "0 1 2 | 4 5 3 | 8 6 7"
    assert lines[3] == "------+-------+------"
    assert len(lines) == 11  # 9 rows + 2 rules
    assert render_grid(c, "csv").split("\n")[0] == "0,1,2,4,5,3,8,6,7"
    with pytest.raises(ValueError):
        render_grid(c, "latex")


def test_render_pads_wide_symbols():
    field = get_field(5)
    c = mat(field, ((0, 1), (1, 1)))
    lines = render_grid(c).split("\n")
    assert len(lines) == 25 + 4
    widths = {len(line) for line in lines}
    assert len(widths) == 1  # rules and rows align
    assert all(len(row.split(" | ")) == 5 for row in lines if "|" in row)


def _assert_renders_like_reference(c):
    rows = build_from_canonical(c).rows
    for style in ("text", "csv"):
        assert render_grid(c, style) == render_rows_per_cell(rows, style)
    reference = reference_document_json(c)
    assert render_grid(c, "json") == reference[reference.index('"grid":') + 7:-2]


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13])
def test_render_matches_per_cell_reference_on_every_family_member(q):
    for c in build_family(get_field(q)):
        _assert_renders_like_reference(c)


@pytest.mark.parametrize("q", [25, 27, 37])  # symbols 3 and 4 digits wide
def test_render_matches_per_cell_reference_on_random_generators(q):
    field = get_field(q)
    members = {m.indices() for m in build_family(field)}
    element = st.integers(0, q - 1)
    valid = st.builds(
        lambda a, b, c, d: mat(field, ((a, b), (c, d))),
        element, st.integers(1, q - 1), element, element,
    ).filter(lambda m: bool(mat_det(m)) and m.indices() not in members)

    @settings(max_examples=3, deadline=None)
    @given(valid)
    def check(c):
        _assert_renders_like_reference(c)

    check()


def test_render_rejects_bad_style_and_bad_generators():
    field = get_field(5)
    with pytest.raises(ValueError, match="unknown style"):
        render_grid(mat(field, ((0, 1), (1, 1))), "grid")
    for rows in (((1, 2), (2, 4)), ((0, 0), (0, 0)), ((1, 0), (3, 1))):  # singular, zero, b = 0
        for style in ("text", "csv", "json"):
            with pytest.raises(NotAGenerator):
                render_grid(mat(field, rows), style)
