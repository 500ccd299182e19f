"""Independent oracles and frozen expected values shared by the test suite.

Everything here deliberately avoids the library's own code paths: the
polynomial helpers work least-significant-coefficient-first (the library
works most-significant-first), irreducibility is decided by enumerating
factor products instead of trial division, residue sets come from
exhaustive squaring instead of exponentiation, coset grids walk each
plane's span instead of using the builder's closed form, and the grid
checks count (a, b) symbol tuples and walk cells one at a time instead of
the library's integer keys and C-level row passes.

Field arithmetic here is PolyElement's: polynomial products reduced by
poly_mod_lsf, with each index mapped to its coefficients by this module's
own base-p enumeration.  It reads only p, k and the modulus of a field,
never the add/sub/mul/neg/inv tables or the coefficient table that the
library computes on, so a wrong table entry cannot fool both sides.  rank,
elements_of, grid_from_cosets and squares_by_squaring compute with it.

The rank and enumeration code lives here too, because only tests use it:
rank and index_rank (Gaussian elimination on index tables built once per
field from PolyElement sums and products), planes_intersect_trivially and
is_sudoku_generator (rank tests against the column, row and subsquare
reference planes), all_planes (every 2-dimensional subspace of F^4) and
all_valid_generators (every valid canonical generator).

The plane specification of the construction lives here as well, since no
command runs it: canonicalize (the C = B A^-1 of a plane, raising
NotCanonicalizable when A is singular), meets_trivially (whether
det(C1 - C2) is nonzero), the 2x2 arithmetic mat_sub, mat_mul, mat_det and
mat_inverse they use, build_from_plane (the library grid of a plane's
C), symbol_at (a cell by its address in F^4), format_mat2 (the literal
that parse_mat2 reads) and count_alphas (the alpha census by exhaustive
squaring and polynomial + 1).
The matrix arithmetic runs on _poly_tables too, so meets_trivially shares
no table with verify_family's direction scan, and count_alphas ==
len(alpha_census) checks the library's root-table search.

reference_document_json is the document text by the encoder: json.dumps of
the whole payload, with the grid from build_from_canonical (itself checked
against grid_from_cosets), so SquareDocument.to_json's block-string
rendering is compared with text that no block table produced.
render_rows_per_cell is the grid renderer cell by cell (each symbol through
str or an f-string, the subsquare layout from row and column indices), the
reference for render_grid's block strings.
"""

import json
from functools import lru_cache
from itertools import combinations, product
from math import isqrt

from moss.gf import GF, FieldMismatch
from moss.planes import Mat2, Plane, is_valid_generator
from moss.sudoku import MalformedGrid, NotAGenerator, SudokuGrid, build_from_canonical

ODD_PRIME_POWERS_49 = (3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37, 41, 43, 47, 49)
# Every order the field cap admits.
ODD_PRIME_POWERS_127 = ODD_PRIME_POWERS_49 + (
    53, 59, 61, 67, 71, 73, 79, 81, 83, 89, 97, 101, 103, 107, 109, 113, 121, 125, 127)

# The q = 3 golden grid: 9 rows of 9 symbols, subsquares of side 3.
GOLDEN_GRID_Q3 = [
    [0, 1, 2, 4, 5, 3, 8, 6, 7],
    [3, 4, 5, 7, 8, 6, 2, 0, 1],
    [6, 7, 8, 1, 2, 0, 5, 3, 4],
    [1, 2, 0, 5, 3, 4, 6, 7, 8],
    [4, 5, 3, 8, 6, 7, 0, 1, 2],
    [7, 8, 6, 2, 0, 1, 3, 4, 5],
    [2, 0, 1, 3, 4, 5, 7, 8, 6],
    [5, 3, 4, 6, 7, 8, 1, 2, 0],
    [8, 6, 7, 0, 1, 2, 4, 5, 3],
]
GOLDEN_PLANE_Q3 = ((1, 0, 0, 2), (0, 2, 1, 2))
GOLDEN_C_Q3 = ((0, 2), (2, 1))


@lru_cache(maxsize=None)
def get_field(q):
    return GF(q)


# -- polynomial oracle, least significant coefficient first -------------------

def lsf(msf_coeffs):
    """Library order (most significant first) to oracle order."""
    return list(reversed(msf_coeffs))


def poly_mul_lsf(p, f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def poly_mod_lsf(p, f, m):
    """Remainder of f modulo monic m, by repeated leading-term cancellation."""
    r = [c % p for c in f]
    while len(r) > 1 and r[-1] == 0:
        r.pop()
    while len(r) >= len(m):
        shift = len(r) - len(m)
        lead = r[-1]
        for i, c in enumerate(m):
            r[shift + i] = (r[shift + i] - lead * c) % p
        while len(r) > 1 and r[-1] == 0:
            r.pop()
    return r


def monic_polys_lsf(p, degree):
    for low in product(range(p), repeat=degree):
        yield list(low) + [1]


def is_irreducible_by_products(p, msf_coeffs):
    """Reducible iff it literally equals a product of two smaller monic polys."""
    target = lsf(msf_coeffs)
    degree = len(target) - 1
    for d1 in range(1, degree // 2 + 1):
        for g in monic_polys_lsf(p, d1):
            for h in monic_polys_lsf(p, degree - d1):
                if poly_mul_lsf(p, g, h) == target:
                    return False
    return degree >= 1


class PolyElement:
    """An element of GF(p^k) as its k coefficients, least significant first.

    + - * and inverse() are polynomial arithmetic modulo the field's modulus;
    the index is the base-p value of the coefficients, as in the library.
    """

    __slots__ = ("p", "modulus", "coeffs")

    def __init__(self, p, modulus, coeffs):
        k = len(modulus) - 1
        self.p, self.modulus = p, modulus
        self.coeffs = tuple(coeffs) + (0,) * (k - len(coeffs))

    @classmethod
    def of(cls, field, index):
        p, k = field.p, field.k
        return cls(p, tuple(lsf(field.modulus)), [index // p**i % p for i in range(k)])

    @property
    def index(self):
        return sum(c * self.p**i for i, c in enumerate(self.coeffs))

    def _like(self, coeffs):
        return PolyElement(self.p, self.modulus, coeffs)

    def __add__(self, other):
        return self._like([(a + b) % self.p for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return self._like([-a % self.p for a in self.coeffs])

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        p = self.p
        full = poly_mul_lsf(p, self.coeffs, other.coeffs)
        return self._like(poly_mod_lsf(p, full, self.modulus))

    def __pow__(self, exponent):
        result, base = self._like([1]), self
        while exponent:
            if exponent & 1:
                result = result * base
            base, exponent = base * base, exponent >> 1
        return result

    def inverse(self):
        """x^(q-2), since x^(q-1) = 1 for every nonzero x."""
        if not self:
            raise ZeroDivisionError("inverse of zero")
        return self ** (self.p ** (len(self.modulus) - 1) - 2)

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, PolyElement)
                and (self.p, self.modulus, self.coeffs) == (other.p, other.modulus, other.coeffs))

    def __repr__(self):
        return f"PolyElement({self.index}, mod {self.p})"


def poly_elements(field):
    """All q elements as PolyElements, in index order."""
    return [PolyElement.of(field, i) for i in range(field.q)]


def squares_by_squaring(field):
    """Index set of squares found by exhaustively squaring every element."""
    return {(e * e).index for e in poly_elements(field)}


def count_planes_formula(q):
    """Number of 2-dimensional subspaces of a 4-dimensional space over GF(q)."""
    return (q**4 - 1) * (q**4 - q) // ((q**2 - 1) * (q**2 - q))


# -- coset oracle ---------------------------------------------------------------

def grid_from_cosets(plane):
    """Label the cosets of any plane with symbols in first-encounter order.

    No generator precondition: the result passes verify_sudoku exactly when
    the plane generates a sudoku square.
    """
    field = plane.field
    q, n, elems = field.q, field.q * field.q, poly_elements(field)
    plus = [[(x + y).index for y in elems] for x in elems]  # by polynomial addition
    v1, v2 = elements_of(plane)
    span = {tuple((u * x + w * y).index for x, y in zip(v1, v2))
            for u in elems for w in elems}
    rows = [[None] * n for _ in range(n)]
    symbol = 0
    for r in range(n):
        for col in range(n):
            if rows[r][col] is None:
                x1, x2, x3, x4 = r // q, r % q, col // q, col % q
                for o1, o2, o3, o4 in span:
                    rows[q * plus[x1][o1] + plus[x2][o2]][q * plus[x3][o3] + plus[x4][o4]] = symbol
                symbol += 1
    return SudokuGrid(q, rows)


# -- grid check oracles -----------------------------------------------------------

def orthogonal_by_pair_census(a, b):
    """True iff superimposing the grids shows n^2 distinct (a, b) symbol tuples.

    No range check: symbols are compared as they are.
    """
    def cells(grid):
        return [s for row in grid.rows for s in row]
    return len(set(zip(cells(a), cells(b)))) == a.order * a.order


def sudoku_flags_per_cell(grid):
    """(latin_rows, latin_cols, subsquares), checked one cell at a time.

    Raises MalformedGrid on wrong dimensions or on the first symbol, row by
    row, that is not an int (bools excluded) in [0, n).
    """
    q, n, rows = grid.q, grid.order, grid.rows
    if len(rows) != n or any(len(row) != n for row in rows):
        raise MalformedGrid(f"grid must be {n}x{n}")
    for row in rows:
        for s in row:
            if not isinstance(s, int) or isinstance(s, bool) or not 0 <= s < n:
                raise MalformedGrid(f"symbol {s!r} out of range [0, {n})")
    full = set(range(n))
    return (
        all({rows[r][col] for col in range(n)} == full for r in range(n)),
        all({rows[r][col] for r in range(n)} == full for col in range(n)),
        all({rows[r][col] for r in range(br, br + q) for col in range(bc, bc + q)} == full
            for br in range(0, n, q) for bc in range(0, n, q)),
    )


# -- rank oracle and exhaustive enumeration -------------------------------------

def elements_of(plane):
    """The plane's basis vectors as PolyElement tuples."""
    return tuple(tuple(PolyElement.of(plane.field, i) for i in v) for v in plane.basis())


@lru_cache(maxsize=None)
def _poly_tables(p, modulus):
    """add, mul, neg and inv tables on indices, from PolyElement sums and products."""
    k = len(modulus) - 1
    elems = [PolyElement(p, modulus, [i // p**j % p for j in range(k)]) for i in range(p**k)]
    add = [[(x + y).index for y in elems] for x in elems]
    mul = [[(x * y).index for y in elems] for x in elems]
    neg = [row.index(0) for row in add]
    inv = [None] + [row.index(1) for row in mul[1:]]
    return add, mul, neg, inv


def rank(vectors):
    """Rank of PolyElement vectors, by Gaussian elimination with first-nonzero pivoting."""
    if not vectors:
        return 0
    first = vectors[0][0]
    return index_rank(first.p, first.modulus, [[x.index for x in v] for v in vectors])


def index_rank(p, modulus, rows):
    """Rank of vectors of element indices, modulus least significant first.

    The elimination runs through the tables that _poly_tables builds once
    per field by polynomial arithmetic.
    """
    add, mul, neg, inv = _poly_tables(p, modulus)
    rows = [list(v) for v in rows]
    ncols = len(rows[0])
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        scale = mul[inv[rows[r][col]]]
        rows[r] = [scale[x] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = mul[neg[rows[i][col]]]
                rows[i] = [add[x][f[y]] for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r


def column_plane(field):
    """The plane whose cosets are the columns of the grid: <1000, 0100>."""
    return Plane.from_indices(field, (1, 0, 0, 0), (0, 1, 0, 0))


def row_plane(field):
    """The plane whose cosets are the rows of the grid: <0010, 0001>."""
    return Plane.from_indices(field, (0, 0, 1, 0), (0, 0, 0, 1))


def subsquare_plane(field):
    """The plane whose cosets are the subsquares of the grid: <0100, 0001>."""
    return Plane.from_indices(field, (0, 1, 0, 0), (0, 0, 0, 1))


def planes_intersect_trivially(g, h):
    if g.field != h.field:
        raise FieldMismatch(f"{g.field} vs {h.field}")
    p, modulus = g.field.p, tuple(lsf(g.field.modulus))
    return index_rank(p, modulus, [*g.basis(), *h.basis()]) == 4


def is_sudoku_generator(plane):
    """True iff the plane's cosets hit every row, column and subsquare once.

    Checked directly on basis vectors, independent of canonicalization: the
    plane must intersect each of the three reference planes only at 0.
    """
    field = plane.field
    return all(
        planes_intersect_trivially(plane, ref)
        for ref in (column_plane(field), row_plane(field), subsquare_plane(field))
    )


def all_planes(field):
    """All 2-dimensional subspaces of F^4, one canonical basis each.

    Enumerates reduced row echelon bases by pivot-column pattern, so the
    order is deterministic and no subspace appears twice.
    """
    for c1, c2 in combinations(range(4), 2):
        free1 = [j for j in range(c1 + 1, 4) if j != c2]
        free2 = [j for j in range(c2 + 1, 4)]
        for values in product(range(field.q), repeat=len(free1) + len(free2)):
            row1, row2 = [0] * 4, [0] * 4
            row1[c1] = 1
            row2[c2] = 1
            for pos, v in zip(free1, values):
                row1[pos] = v
            for pos, v in zip(free2, values[len(free1):]):
                row2[pos] = v
            yield Plane(field, row1, row2)


def all_valid_generators(field):
    """Every valid canonical generator over the field, in index order."""
    out = []
    for a, b, c, d in product(range(field.q), repeat=4):
        m = Mat2(field, a, b, c, d)
        if is_valid_generator(m):
            out.append(m)
    return out


# -- plane specification: canonical generators and the orthogonality test -----

class NotCanonicalizable(ValueError):
    """The plane has no basis of the form [I; C]."""


def _field_tables(field):
    """_poly_tables for a library field, from its p and modulus alone."""
    return _poly_tables(field.p, tuple(lsf(field.modulus)))


def mat_sub(m1, m2):
    add, _, neg, _ = _field_tables(m1.field)
    (a, b), (c, d) = m1.indices()
    (e, f), (g, h) = m2.indices()
    return Mat2(m1.field, add[a][neg[e]], add[b][neg[f]], add[c][neg[g]], add[d][neg[h]])


def mat_mul(m1, m2):
    add, mul, _, _ = _field_tables(m1.field)
    (a, b), (c, d) = m1.indices()
    (e, f), (g, h) = m2.indices()
    dot = lambda x, y, z, w: add[mul[x][z]][mul[y][w]]
    return Mat2(m1.field, dot(a, b, e, g), dot(a, b, f, h), dot(c, d, e, g), dot(c, d, f, h))


def mat_det(m):
    add, mul, neg, _ = _field_tables(m.field)
    (a, b), (c, d) = m.indices()
    return add[mul[a][d]][neg[mul[b][c]]]


def mat_inverse(m):
    """The adjugate over the determinant; ZeroDivisionError when singular."""
    _, mul, neg, inv = _field_tables(m.field)
    scale = inv[mat_det(m)]
    if scale is None:
        raise ZeroDivisionError("singular matrix")
    (a, b), (c, d) = m.indices()
    return Mat2(m.field, mul[d][scale], mul[neg[b]][scale], mul[neg[c]][scale], mul[a][scale])


def canonicalize(plane):
    """Canonical generator C with plane = column span of [I; C].

    Writing the basis vectors as columns, A is the top 2x2 block and B the
    bottom one; C = B A^-1.  Raises NotCanonicalizable when A is singular
    (the plane meets the row plane nontrivially).
    """
    field, v1, v2 = plane.field, plane.v1, plane.v2
    top = Mat2(field, v1[0], v2[0], v1[1], v2[1])
    if not mat_det(top):
        raise NotCanonicalizable("top block of the stacked basis is singular")
    return mat_mul(Mat2(field, v1[2], v2[2], v1[3], v2[3]), mat_inverse(top))


def meets_trivially(c1, c2):
    """True iff the planes [I; C1] and [I; C2] meet only at the origin,
    that is iff det(C1 - C2) != 0: the squares are orthogonal."""
    if c1.field != c2.field:
        raise FieldMismatch(f"{c1.field} vs {c2.field}")
    return mat_det(mat_sub(c1, c2)) != 0


def format_mat2(m):
    """The row-major literal "a,b;c,d" that parse_mat2 reads."""
    return f"{m.a},{m.b};{m.c},{m.d}"


def build_from_plane(plane):
    """The library grid of the plane's canonical generator.

    A plane generates a sudoku square exactly when it is canonicalizable
    (it meets the row plane trivially) and its C is a valid generator;
    raises NotAGenerator otherwise.
    """
    try:
        return build_from_canonical(canonicalize(plane))
    except (NotCanonicalizable, NotAGenerator):
        raise NotAGenerator(f"{plane!r} does not generate a sudoku square") from None


def symbol_at(grid, x1, x2, x3, x4):
    """Symbol housed at the address (x1, x2, x3, x4) of element indices."""
    q = grid.q
    return grid.rows[q * x1 + x2][q * x3 + x4]


def count_alphas(field):
    """Squares whose successor is a non-square, by exhaustive squaring and
    polynomial + 1; roughly (q - 1)/4 of them."""
    squares, one = squares_by_squaring(field), PolyElement.of(field, 1)
    return sum(e.index in squares and (e + one).index not in squares
               for e in poly_elements(field))


def reference_document_json(c):
    """The canonical document of generator c, every value through json.dumps."""
    field = c.field
    payload = {"q": field.q, "p": field.p, "k": field.k, "modulus": list(field.modulus),
               "c": [[c.a, c.b], [c.c, c.d]], "grid": build_from_canonical(c).rows}
    return json.dumps(payload, separators=(",", ":")) + "\n"


def render_rows_per_cell(rows, style="text"):
    """Grid rows as text (blocks separated by | and rules) or csv (one row
    per line), one symbol at a time."""
    n = len(rows)
    q = isqrt(n)
    if style == "csv":
        return "\n".join(",".join(str(s) for s in row) for row in rows)
    width = len(str(n - 1))
    block_width = q * width + q - 1
    rule = "-+-".join("-" * block_width for _ in range(q))
    lines = []
    for r, row in enumerate(rows):
        if r and r % q == 0:
            lines.append(rule)
        blocks = [
            " ".join(f"{s:>{width}}" for s in row[bc:bc + q])
            for bc in range(0, n, q)
        ]
        lines.append(" | ".join(blocks))
    return "\n".join(lines)
