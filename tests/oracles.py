"""Independent oracles and frozen expected values shared by the test suite.

Everything here deliberately avoids the library's own code paths: the
polynomial helpers work least-significant-coefficient-first (the library
works most-significant-first), irreducibility is decided by enumerating
factor products instead of trial division, residue sets come from
exhaustive squaring instead of exponentiation, and coset grids walk each
plane's span instead of using the builder's closed form.
"""

from functools import lru_cache
from itertools import product

from moss.gf import GF
from moss.sudoku import SudokuGrid

ODD_PRIME_POWERS_49 = (3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37, 41, 43, 47, 49)

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


def squares_by_squaring(field):
    """Index set of squares found by exhaustively squaring every element."""
    return {(e * e).index for e in field.elements()}


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
    q, n, add, elems = field.q, field.q * field.q, field.add_table, field.elements()
    span = {tuple((u * x + w * y).index for x, y in zip(plane.v1, plane.v2))
            for u in elems for w in elems}
    rows = [[None] * n for _ in range(n)]
    symbol = 0
    for r in range(n):
        for col in range(n):
            if rows[r][col] is None:
                x1, x2, x3, x4 = r // q, r % q, col // q, col % q
                for o1, o2, o3, o4 in span:
                    rows[q * add[x1][o1] + add[x2][o2]][q * add[x3][o3] + add[x4][o4]] = symbol
                symbol += 1
    return SudokuGrid(q, rows)
