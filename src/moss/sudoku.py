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

build_from_canonical computes that label in closed form for g = [I; C],
by blocks: the q symbols of a row inside one subsquare are one of q^2
fixed blocks (block_symbols, built once per field), and block_plan says
which, so a grid, or its text in any format (render_grid), takes q^3 block
lookups.  The oracles that check both, a brute-force coset labeling of any
plane and a per-cell renderer, are in tests/oracles.py, next to the
canonicalization that takes a plane to its C.

The checks read the grid itself and share nothing with the builder.
verify_sudoku compares each row, column (a zip of the rows) and subsquare
(chained row slices) with the full symbol set.  verify_orthogonal_bruteforce
superimposes two grids, all n^2 cells of them: a cell holding s in A and t
in B gets the integer key n*s + t, which is one-to-one on symbol pairs in
[0, n), so the grids are orthogonal iff the n^2 keys are distinct.  Each
check range-checks the rows it reads, every time it reads them.

coset_kernel reads a grid as the paper builds it: the cosets of a subgroup
K of (Z_p^k)^4, q = p^k, one symbol per coset, with the coordinates of
cell (R, C) added digit-wise in base p, as GF(q) adds element indices.
Two such grids are orthogonal iff their kernels meet only at 0, so a pair
costs one set disjointness test instead of n^2 cells.  Rows, columns and
subsquares are the cosets of row 0, column 0 and box 0, so K also gives
the grid's whole sudoku report.  certify_grid and non_orthogonal_pairs, the
certifier of moss verify and of verify_family's bruteforce mode, use
kernels where grids have them and the checks above where they do not.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache
from itertools import chain
from operator import add, eq, itemgetter

from .gf import Field, factor_prime_power
from .planes import Mat2, is_valid_generator


class NotAGenerator(ValueError):
    """The matrix does not generate a sudoku square."""


class MalformedGrid(ValueError):
    """Grid dimensions or symbols are out of contract."""


class OrderMismatch(ValueError):
    """The two grids have different orders."""


@dataclass
class SudokuGrid:
    """A q^2 x q^2 array of symbols 0..q^2-1 with q x q subsquare structure.

    Construction raises MalformedGrid unless q is a positive int; the rows
    are plain data, range-checked by each check that reads them.  Grids
    compare by q and rows and are unhashable.
    """

    q: int
    rows: list[list[int]] = dataclass_field(repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.q, int) or isinstance(self.q, bool) or self.q < 1:
            raise MalformedGrid(f"q must be a positive int, got {self.q!r}")

    @property
    def order(self) -> int:
        return self.q * self.q


@dataclass(slots=True)
class SudokuReport:
    """Outcome of the three exactly-once checks on a grid."""

    latin_rows: bool
    latin_cols: bool
    subsquares: bool

    @property
    def ok(self) -> bool:
        return self.latin_rows and self.latin_cols and self.subsquares


def block_plan(c: Mat2) -> Iterator[list[int]]:
    """The grid of [I; C], C = [[a, b], [c, d]], as block keys, row by row.

    Cell (x1, x2, x3, x4) gets symbol q*(x2 + h) + (x4 - shift) with
    t = (x3 - a*x1)/b, h = -t and shift = c*x1 + d*t.  So the q symbols of
    row (x1, x2) in large column x3 are entry q*(x2 + h) + shift of
    block_symbols(field), and each large row x1 needs only its q pairs
    (h, shift).  Yields the q keys of each of the q^2 rows, top to bottom.
    Raises NotAGenerator, before the first row, when C is singular or lower
    triangular.
    """
    if not is_valid_generator(c):
        raise NotAGenerator(f"{c!r} is singular or lower triangular")
    field = c.field
    q = field.q
    add, sub, mul, neg = field.add_table, field.sub_table, field.mul_table, field.neg_table
    a, cc, d = c.a, c.c, c.d
    inv_b = field.inv_table[c.b]
    pairs = []
    for x1 in range(q):
        ax1, cx1 = mul[a][x1], mul[cc][x1]
        ts = [mul[sub[x3][ax1]][inv_b] for x3 in range(q)]
        pairs.append([(neg[t], add[cx1][mul[d][t]]) for t in ts])
    return ([q * add_x2[h] + shift for h, shift in row] for row in pairs for add_x2 in add)


@lru_cache(maxsize=16)
def block_symbols(field: Field) -> tuple[tuple[int, ...], ...]:
    """The q^2 blocks of a field's grids: entry q*u + shift holds the symbols
    q*u + (x4 - shift), x4 = 0..q-1.  Built on first use, once per field."""
    q, sub = field.q, field.sub_table
    return tuple(tuple(q * u + sub[x4][shift] for x4 in range(q))
                 for u in range(q) for shift in range(q))


def build_from_canonical(c: Mat2) -> SudokuGrid:
    """Sudoku grid generated by the column span of [I; C].

    Each row joins the blocks that block_plan names for it.  Raises
    NotAGenerator when C is singular or lower triangular.
    """
    plan = block_plan(c)
    blocks = block_symbols(c.field)
    rows = []
    for keys in plan:
        row = []
        for key in keys:
            row += blocks[key]
        rows.append(row[:])  # exact size: growing left spare room in row
    return SudokuGrid(c.field.q, rows)


def verify_sudoku(grid: SudokuGrid) -> SudokuReport:
    """Exactly-once checks for rows, columns and aligned subsquares.

    Raises MalformedGrid on wrong dimensions or out-of-range symbols.
    """
    q, n, rows = grid.q, grid.order, grid.rows
    _check_rows(rows, n)
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

    Rows, or a row, without a length are the wrong shape.  A row of plain
    ints in range passes on C-level passes (type set, min, max); any other
    row is walked cell by cell to name its first bad symbol.
    """
    try:
        shaped = len(rows) == n and all(len(row) == n for row in rows)
    except TypeError:
        shaped = False
    if not shaped:
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

    Reads all n^2 cells and counts the distinct keys n*s + t, s from a and t
    from b.  Raises OrderMismatch for grids of different orders and
    MalformedGrid, as verify_sudoku does, for a grid of the wrong shape or
    with a symbol that is not an int in [0, n); a is checked before b.
    """
    if a.order != b.order:
        raise OrderMismatch(f"order {a.order} vs {b.order}")
    rows_a, rows_b, n = a.rows, b.rows, a.order
    _check_rows(rows_a, n)
    _check_rows(rows_b, n)
    scale = [n * s for s in range(n)]
    keys = map(scale.__getitem__, chain.from_iterable(rows_a))
    return len(set(map(add, keys, chain.from_iterable(rows_b)))) == n * n


@lru_cache(maxsize=16)
def _digit_sums(q: int) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The place values p^i (i < k) and the table of digit-wise base-p sums
    on [0, q), q = p^k: the additive group of GF(q) on element indices,
    computed from q alone.  Raises ValueError when q is not a prime power."""
    p, k = factor_prime_power(q)
    places = tuple(p ** i for i in range(k))
    return places, tuple(tuple(sum((u // w + v // w) % p * w for w in places) for v in range(q))
                         for u in range(q))


def _shift(sums: tuple[tuple[int, ...], ...], q: int, by: int) -> list[int]:
    """The map i -> i + by on [0, q^2), adding i = q*hi + lo digit by digit."""
    high, low = sums[by // q], sums[by % q]
    return [q * h + l for h in high for l in low]


def coset_kernel(grid: SudokuGrid) -> frozenset[int] | None:
    """The nonzero cells R*n + C of the subgroup K whose cosets are the
    grid's symbol classes, or None if the grid is not such a partition.

    K is the set of cells holding the symbol of cell (0, 0), one per row.
    The grid must be invariant under translation by its cells in rows p^i
    and q*p^i (i < k), one row and one column permutation each, compared
    on row tuples with itemgetter.  These 2k rows span the row coordinates
    digit-wise, so the translations generate a subgroup H with a cell in
    every row; invariance puts H inside K, and K has one cell per row, so
    H = K.  Then every symbol class is a union of cosets of K, and since
    row 0 meets K only at (0, 0), its n distinct symbols put one coset in
    each class.  Raises MalformedGrid as verify_sudoku does, on every call.
    """
    q, n, rows = grid.q, grid.order, grid.rows
    _check_rows(rows, n)
    try:
        places, sums = _digit_sums(q)
    except ValueError:
        return None
    s0 = rows[0][0]
    if len(set(rows[0])) != n or any(row.count(s0) != 1 for row in rows):
        return None
    cells = [r * n + row.index(s0) for r, row in enumerate(rows)]
    tables = tuple(map(tuple, rows))
    for r in places + tuple(q * w for w in places):
        rmap, cmap = _shift(sums, q, r), _shift(sums, q, cells[r] % n)
        image = itemgetter(*cmap)
        if not all(map(eq, map(image, map(tables.__getitem__, rmap)), tables)):
            return None
    return frozenset(cells[1:])


def certify_grid(grid: SudokuGrid) -> tuple[SudokuReport, frozenset[int] | None]:
    """The grid's sudoku report and coset kernel (None if it has none).  The
    cosets of K are latin in rows, as K meets row 0 only at 0, and in columns
    and subsquares iff K meets column 0 and box 0 (R, C < q) only at 0;
    verify_sudoku decides any other grid.  Raises MalformedGrid likewise."""
    kernel = coset_kernel(grid)
    if kernel is None:
        return verify_sudoku(grid), None
    q, n = grid.q, grid.order
    low = [divmod(cell, n) for cell in kernel if cell % n < q]  # (R, C) with C < q
    return SudokuReport(True, all(c for _, c in low), all(r >= q for r, _ in low)), kernel


def non_orthogonal_pairs(kernels: Sequence[frozenset[int] | None],
                         grid_of: Callable[[int], SudokuGrid]) -> Iterator[tuple[int, int]]:
    """The pairs i < j, in order, of squares that are not orthogonal: by the
    disjointness of their kernels (certify_grid's), else by the census on
    grid_of(i), built once per i when first needed, and grid_of(j)."""
    for i, kernel_i in enumerate(kernels):
        grid_i = None
        for j, kernel_j in enumerate(kernels[i + 1:], i + 1):
            if kernel_i is not None and kernel_j is not None:
                orthogonal = kernel_i.isdisjoint(kernel_j)
            else:
                grid_i = grid_i or grid_of(i)
                orthogonal = verify_orthogonal_bruteforce(grid_i, grid_of(j))
            if not orthogonal:
                yield i, j


@lru_cache(maxsize=16)
def _block_texts(field: Field, padded: bool) -> tuple[str, ...]:
    """block_symbols(field) as one string per block: space-joined and right-
    aligned to the widest symbol if padded (text), else comma-joined."""
    width, sep = (len(str(field.q * field.q - 1)), " ") if padded else (0, ",")
    return tuple(sep.join(f"{s:>{width}}" for s in block) for block in block_symbols(field))


def render_grid(c: Mat2, style: str = "text") -> str:
    """The grid of [I; C] as text (blocks split by " | ", large rows by -+-
    rules), csv (a line per row) or json (the array, as json.dumps writes it
    without spaces): each row joins the block strings block_plan names.
    Raises ValueError for an unknown style, NotAGenerator for an invalid C."""
    if style not in ("text", "csv", "json"):
        raise ValueError(f"unknown style {style!r}")
    padded = style == "text"
    text = _block_texts(c.field, padded).__getitem__
    rows = [(" | " if padded else ",").join(map(text, keys)) for keys in block_plan(c)]
    if not padded:
        return f"[[{'],['.join(rows)}]]" if style == "json" else "\n".join(rows)
    q = c.field.q
    rule = "-+-".join(["-" * len(text(0))] * q)  # every block string has one width
    return f"\n{rule}\n".join("\n".join(rows[r:r + q]) for r in range(0, q * q, q))
