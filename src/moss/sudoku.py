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
superimposes two grids, all n^2 cells of them.  The first check of a
grid range-checks its rows, and its first census builds, for n <= 256,
its rows as bytes and whether every row is a permutation of range(n), so
a grid's rows must not change after its first check.  When every row of
A is a permutation, row r of the pair is the map f_r: s -> B(r, A_r^-1(s)),
which bytes.maketrans(A_r, B_r) tabulates; the values f_r(s) over all rows
r are the B symbols of the n cells where A = s, so the grids are orthogonal
iff for no s do two of them agree.  Otherwise (n > 256, or a row of A
repeats a symbol) a cell holding s in A and t in B gets the integer key
n*s + t, which is one-to-one on symbol pairs in [0, n), and the grids are
orthogonal iff the n^2 keys are distinct.

coset_kernel reads a grid as the paper builds it: the cosets of a subgroup
K of (Z_p^k)^4, q = p^k, one symbol per coset, with the coordinates of
cell (R, C) added digit-wise in base p, as GF(q) adds element indices.
Two such grids are orthogonal iff their kernels meet only at 0, so a pair
costs one set disjointness test instead of n^2 cells; a grid without a
kernel is left to verify_orthogonal_bruteforce.  kernel_is_sudoku reads
off K whether the grid is a sudoku square.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property, lru_cache
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

    Construction raises MalformedGrid unless q is a positive int.  The
    range check, byte rows and latin flag are cached properties that the
    first check reading each builds, so a grid's rows must not change after
    its first check.  Grids compare by q and rows and are unhashable.
    """

    q: int
    rows: list[list[int]] = dataclass_field(repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.q, int) or isinstance(self.q, bool) or self.q < 1:
            raise MalformedGrid(f"q must be a positive int, got {self.q!r}")

    @property
    def order(self) -> int:
        return self.q * self.q

    @cached_property
    def _checked_rows(self) -> list[list[int]]:
        """The rows, after the range check: MalformedGrid on wrong
        dimensions or a symbol that is not an int in [0, n)."""
        _check_rows(self.rows, self.order)
        return self.rows

    @cached_property
    def _row_bytes(self) -> tuple[bytes, ...] | None:
        """The checked rows as bytes, or None for n > 256."""
        return tuple(map(bytes, self._checked_rows)) if self.order <= 256 else None

    @cached_property
    def _latin_rows(self) -> bool:
        """Whether every row is a permutation of range(n); False for n > 256."""
        if self._row_bytes is None:
            return False
        ident = bytes(range(self.order))
        return all(_distinct(row, ident) for row in self._row_bytes)


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
    q, n = grid.q, grid.order
    rows = grid._checked_rows
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


def _distinct(symbols: bytes, ident: bytes) -> bool:
    """True iff the n bytes of symbols, each below n = len(ident), differ.

    maketrans maps each symbol to the last position holding it, so the
    translation reads back ident exactly when no symbol repeats.
    """
    return symbols.translate(bytes.maketrans(symbols, ident)) == ident


def verify_orthogonal_bruteforce(a: SudokuGrid, b: SudokuGrid) -> bool:
    """True iff superimposing the grids yields every ordered symbol pair once.

    Reads all n^2 cells: on byte tables of the row maps s -> B(r, A_r^-1(s))
    when n <= 256 and every row of A is a permutation, else by counting the
    distinct keys n*s + t, s from a and t from b.  Raises OrderMismatch for
    grids of different orders and MalformedGrid, as verify_sudoku does, for
    a grid of the wrong shape or with a symbol that is not an int in
    [0, n); a is checked before b.
    """
    if a.order != b.order:
        raise OrderMismatch(f"order {a.order} vs {b.order}")
    rows_a, rows_b, n = a._checked_rows, b._checked_rows, a.order
    if not a._latin_rows:
        scale = [n * s for s in range(n)]
        keys = map(scale.__getitem__, chain.from_iterable(rows_a))
        return len(set(map(add, keys, chain.from_iterable(rows_b)))) == n * n
    # maps joins the 256-byte tables of f_0, f_1, ..., so maps[s::256] is
    # f_r(s) for every r: the B symbols of the n cells where A = s.
    maps = b"".join(map(bytes.maketrans, a._row_bytes, b._row_bytes))
    ident = bytes(range(n))
    return all(_distinct(maps[s::256], ident) for s in range(n))


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
    each class.  Raises MalformedGrid as verify_sudoku does.
    """
    q, n = grid.q, grid.order
    rows = grid._checked_rows
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


def kernel_is_sudoku(kernel: frozenset[int], q: int) -> bool:
    """Whether the cosets of K (coset_kernel's cells) are a sudoku square: iff
    K meets column 0 and box 0 (R, C < q) only at 0, as it meets row 0."""
    n = q * q
    return not any(cell % n == 0 or (cell < q * n and cell % n < q) for cell in kernel)


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
