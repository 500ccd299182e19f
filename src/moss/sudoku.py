"""Order-q^2 sudoku grids built from canonical generators [I; C].

Every cell of the grid has an address (x1, x2, x3, x4) in F^4: x1 is the
large row (the row of subsquares), x2 the mini row within it, x3 the large
column and x4 the mini column, all counted from zero in increasing
lexicographic order, top to bottom and left to right.  The rendered cell of
an address is therefore row q*index(x1) + index(x2) and column
q*index(x3) + index(x4).

A generating plane g assigns one symbol per coset of g.  Symbols are fixed
by the coset's unique representative (0, a, 0, b) inside the top-left
subsquare: the coset gets symbol q*index(a) + index(b).  Any other choice
of symbols is a relabeling of the same square.

build_from_canonical computes that label in closed form for g = [I; C];
build_from_plane canonicalizes first.  The brute-force coset labeling that
checks them is in tests/oracles.py.

The checks read the grid itself and share nothing with the builder.
verify_sudoku compares each row, column (a zip of the rows) and subsquare
(chained row slices) with the full symbol set.  verify_orthogonal_bruteforce
superimposes two grids on integer keys: a cell holding s in A and t in B
gets the key n*s + t, which is one-to-one on symbol pairs in [0, n), so
the grids are orthogonal iff their n^2 keys are distinct.  Both checks
first check that every symbol is in [0, n), once per grid, and the census
caches each grid's n*s values; a grid's rows must therefore not change
after its first check.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import add, itemgetter

from .planes import Mat2, NotCanonicalizable, Plane, canonicalize, is_valid_generator


class NotAGenerator(ValueError):
    """The plane or matrix does not generate a sudoku square."""


class MalformedGrid(ValueError):
    """Grid dimensions or symbols are out of contract."""


class OrderMismatch(ValueError):
    """The two grids have different orders."""


class SudokuGrid:
    """A q^2 x q^2 array of symbols 0..q^2-1 with q x q subsquare structure.

    The first check of a grid (verify_sudoku or an orthogonality census)
    range-checks its rows once, and its first census caches its keys, so its
    rows must not change after that: a changed grid is checked as a new
    SudokuGrid over the changed rows.
    """

    __slots__ = ("q", "rows", "generator", "_checked", "_keys")

    def __init__(self, q: int, rows: list[list[int]], generator: Mat2 | None = None):
        self.q = q
        self.rows = rows
        self.generator = generator
        self._checked = False
        self._keys: tuple[int, ...] | None = None

    @property
    def order(self) -> int:
        return self.q * self.q

    def _checked_rows(self) -> list[list[int]]:
        """The rows, after the range check that only the first call runs.

        Raises MalformedGrid on wrong dimensions or a symbol that is not an
        int in [0, n).
        """
        if not self._checked:
            _check_rows(self.rows, self.order)
            self._checked = True
        return self.rows

    def _scaled_keys(self) -> tuple[int, ...]:
        """n*s for every symbol s, row by row, cached after the first call.

        Raises MalformedGrid, as _checked_rows does.  The rows are read only
        on the first call.
        """
        if self._keys is None:
            rows, n = self._checked_rows(), self.order
            scale = [n * s for s in range(n)]
            self._keys = tuple(map(scale.__getitem__, chain.from_iterable(rows)))
        return self._keys

    def symbol_at(self, x1: int, x2: int, x3: int, x4: int) -> int:
        """Symbol housed at the address (x1, x2, x3, x4) of element indices."""
        q = self.q
        return self.rows[q * x1 + x2][q * x3 + x4]

    def __eq__(self, other):
        return isinstance(other, SudokuGrid) and self.q == other.q and self.rows == other.rows

    def __repr__(self):
        return f"SudokuGrid(order={self.order}, generator={self.generator!r})"


@dataclass(slots=True)
class SudokuReport:
    """Outcome of the three exactly-once checks on a grid."""

    latin_rows: bool
    latin_cols: bool
    subsquares: bool

    @property
    def ok(self) -> bool:
        return self.latin_rows and self.latin_cols and self.subsquares


def build_from_canonical(c: Mat2) -> SudokuGrid:
    """Sudoku grid generated by the column span of [I; C], C = [[a, b], [c, d]].

    Cell (x1, x2, x3, x4) gets symbol q*(x2 - t) + (x4 - c*x1 - d*t) with
    t = (x3 - a*x1)/b.  Row (x1, x2) is therefore row (x1, 0) pushed through
    the permutation q*alpha + beta -> q*(x2 + alpha) + beta, which depends on
    x2 alone.  Raises NotAGenerator when C is singular or lower triangular.
    """
    if not is_valid_generator(c):
        raise NotAGenerator(f"{c!r} is singular or lower triangular")
    field = c.field
    q = field.q
    add, sub, mul, neg = field.add_table, field.sub_table, field.mul_table, field.neg_table
    a, b, cc, d = c.a, c.b, c.c, c.d
    inv_b = field.inv_table[b]
    # perms[x2 - 1] sends symbol q*alpha + beta to q*(x2 + alpha) + beta.
    perms = [[q * add[x2][alpha] + beta for alpha in range(q) for beta in range(q)]
             for x2 in range(1, q)]
    rows = []
    for x1 in range(q):
        ax1, cx1 = mul[a][x1], mul[cc][x1]
        base = []
        for x3 in range(q):
            t = mul[sub[x3][ax1]][inv_b]
            hi, shift = q * neg[t], add[cx1][mul[d][t]]
            base.extend(hi + sub[x4][shift] for x4 in range(q))
        rows.append(base)
        pick = itemgetter(*base)
        rows.extend(list(pick(perm)) for perm in perms)
    return SudokuGrid(q, rows, generator=c)


def build_from_plane(plane: Plane) -> SudokuGrid:
    """Sudoku grid generated by a plane: the grid of its canonical generator.

    A plane generates a sudoku square exactly when it is canonicalizable
    (it meets the row plane trivially) and its canonical C is valid (det C
    != 0 for the column plane, b != 0 for the subsquare plane).  Raises
    NotAGenerator otherwise.
    """
    try:
        return build_from_canonical(canonicalize(plane))
    except (NotCanonicalizable, NotAGenerator):
        raise NotAGenerator(f"{plane!r} does not generate a sudoku square") from None


def verify_sudoku(grid: SudokuGrid) -> SudokuReport:
    """Exactly-once checks for rows, columns and aligned subsquares.

    Raises MalformedGrid on wrong dimensions or out-of-range symbols.
    """
    q, n = grid.q, grid.order
    rows = grid._checked_rows()
    full = set(range(n))
    latin_rows = all(set(row) == full for row in rows)
    latin_cols = all(set(col) == full for col in zip(*rows))
    subsquares = all(
        set(chain.from_iterable(row[bc:bc + q] for row in rows[br:br + q])) == full
        for br in range(0, n, q)
        for bc in range(0, n, q)
    )
    return SudokuReport(latin_rows, latin_cols, subsquares)


def _check_rows(rows: list[list[int]], n: int) -> None:
    """Raise MalformedGrid unless rows is n x n with int symbols in [0, n).

    A row of plain ints in range passes on C-level passes (type set, min,
    max); any other row is walked cell by cell to name its first bad symbol.
    """
    if len(rows) != n or any(len(row) != n for row in rows):
        raise MalformedGrid(f"grid must be {n}x{n}")
    ints = {int}
    for row in rows:
        if set(map(type, row)) == ints and min(row) >= 0 and max(row) < n:
            continue
        for s in row:
            if not isinstance(s, int) or isinstance(s, bool) or not 0 <= s < n:
                raise MalformedGrid(f"symbol {s!r} out of range [0, {n})")


def verify_orthogonal_bruteforce(a: SudokuGrid, b: SudokuGrid) -> bool:
    """True iff superimposing the grids yields every ordered symbol pair once.

    Counts the distinct keys n*s + t over the cells, s from a and t from b.
    Raises OrderMismatch for grids of different orders and MalformedGrid,
    as verify_sudoku does, for a grid of the wrong shape or with a symbol
    that is not an int in [0, n).
    """
    if a.order != b.order:
        raise OrderMismatch(f"order {a.order} vs {b.order}")
    keys = a._scaled_keys()
    n = a.order
    return len(set(map(add, keys, chain.from_iterable(b._checked_rows())))) == n * n


def render_grid(grid: SudokuGrid, style: str = "text") -> str:
    """Render as text (blocks separated by | and rules) or csv (one row per line)."""
    q, n = grid.q, grid.order
    if style == "csv":
        return "\n".join(",".join(str(s) for s in row) for row in grid.rows)
    if style != "text":
        raise ValueError(f"unknown style {style!r}")
    width = len(str(n - 1))
    block_width = q * width + q - 1
    rule = "-+-".join("-" * block_width for _ in range(q))
    lines = []
    for r, row in enumerate(grid.rows):
        if r and r % q == 0:
            lines.append(rule)
        blocks = [
            " ".join(f"{s:>{width}}" for s in row[bc:bc + q])
            for bc in range(0, n, q)
        ]
        lines.append(" | ".join(blocks))
    return "\n".join(lines)
