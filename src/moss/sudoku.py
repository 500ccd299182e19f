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
fixed blocks.  block_plan gives one itemgetter per large row, which picks
each of its rows' q blocks out of one of q strips of blocks per field
(_strips, as ints or as text, built once per field and form), so a grid,
or its text in any format (render_grid), takes one pick per row.  The
oracles that check both, a brute-force coset labeling of any plane and a
per-cell renderer, are in tests/oracles.py, next to the canonicalization
that takes a plane to its C.

The checks read the grid itself and share nothing with the builder.
verify_sudoku compares each row, column (a zip of the rows) and subsquare
(chained row slices) with the full symbol set.  verify_orthogonal_bruteforce
superimposes two grids, all n^2 cells of them: a cell holding s in A and t
in B gets the integer key n*s + t, which is one-to-one on symbol pairs in
[0, n), so the grids are orthogonal iff the n^2 keys are distinct.  Each
check, coset_kernel too, range-checks the rows it reads, every time it
reads them.

coset_kernel is the one grid certifier, of moss verify and of
verify_family's bruteforce mode: it reads a grid as the paper builds it,
the cosets of a subgroup K of (Z_p^k)^4, and returns K's row map kappa for
a sudoku square of that kind and None for any other grid.
non_orthogonal_pairs decides the pairs of N such squares by one scan of
their N row maps instead of n^2 cells a pair.  Each proof is at its
function.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Sequence
from functools import lru_cache
from itertools import chain, combinations, islice
from operator import add, itemgetter, methodcaller

from .gf import Field, _Record, factor_prime_power
from .planes import Mat2, is_valid_generator


class NotAGenerator(ValueError):
    """The matrix does not generate a sudoku square."""


class MalformedGrid(ValueError):
    """Grid dimensions or symbols are out of contract."""


class OrderMismatch(ValueError):
    """The two grids have different orders."""


class SudokuGrid(_Record):
    """A q^2 x q^2 array of symbols 0..q^2-1 with q x q subsquare structure.

    Construction raises MalformedGrid unless q is a positive int; the rows
    are plain data, range-checked by each check that reads them.  Grids
    compare by q and rows and are unhashable.
    """

    _fields = ("q", "rows")
    __hash__ = None

    def __init__(self, q: int, rows: list[list[int]]):
        if not isinstance(q, int) or isinstance(q, bool) or q < 1:
            raise MalformedGrid(f"q must be a positive int, got {q!r}")
        self.q, self.rows = q, rows

    def __repr__(self):
        return f"SudokuGrid(q={self.q!r})"

    @property
    def order(self) -> int:
        return self.q * self.q


class SudokuReport(_Record):
    """Outcome of the three exactly-once checks on a grid; reports compare
    by their flags and are unhashable."""

    __slots__ = _fields = ("latin_rows", "latin_cols", "subsquares")
    __hash__ = None

    def __init__(self, latin_rows: bool, latin_cols: bool, subsquares: bool):
        self.latin_rows, self.latin_cols, self.subsquares = latin_rows, latin_cols, subsquares

    @property
    def ok(self) -> bool:
        return self.latin_rows and self.latin_cols and self.subsquares


def block_plan(c: Mat2) -> list[itemgetter]:
    """The grid of [I; C], C = [[a, b], [c, d]], as one picker per large row.

    Cell (x1, x2, x3, x4) gets symbol q*(x2 + h) + (x4 - shift) with
    t = (x3 - a*x1)/b, h = -t and shift = c*x1 + d*t.  So the q symbols of
    row (x1, x2) in large column x3 are entry q*h + shift of strip x2 (see
    _strips), and large row x1 needs only its q keys q*h + shift: its
    picker is the itemgetter of those keys, and picker(strip x2) gives the
    q blocks of row (x1, x2).  Raises NotAGenerator when C is singular or
    lower triangular.
    """
    if not is_valid_generator(c):
        raise NotAGenerator(f"{c!r} is singular or lower triangular")
    field = c.field
    q = field.q
    add, mul, neg = field.add_table, field.mul_table, field.neg_table
    a, cc, d = c.a, c.c, c.d
    inv_b = field.inv_table[c.b]
    pickers = []
    for x1 in range(q):
        cx1 = mul[cc][x1]
        ts = [mul[s][inv_b] for s in add[neg[mul[a][x1]]]]  # s = x3 - a*x1
        pickers.append(itemgetter(*[q * neg[t] + add[cx1][mul[d][t]] for t in ts]))
    return pickers


@lru_cache(maxsize=16)
def _strips(field: Field, form: str) -> tuple[tuple, ...]:
    """The q strips of a field's grid blocks.  The q^2 blocks are the rows
    of a subsquare: block q*u + shift holds the symbols q*u + (x4 - shift),
    x4 = 0..q-1.  Strip x2 holds, at key q*h + shift, block q*(x2 + h) +
    shift, as a tuple of ints ("ints"), space-joined and right-aligned to
    the widest symbol ("text") or comma-joined ("csv").  Built on first use,
    once per field and form."""
    q, add, neg = field.q, field.add_table, field.neg_table
    blocks = [tuple(q * u + s for s in add[neg[shift]])
              for u in range(q) for shift in range(q)]
    if form != "ints":
        width, sep = (len(str(q * q - 1)), " ") if form == "text" else (0, ",")
        blocks = [sep.join(f"{s:>{width}}" for s in block) for block in blocks]
    return tuple(tuple(blocks[q * add[x2][h] + shift] for h in range(q) for shift in range(q))
                 for x2 in range(q))


def build_from_canonical(c: Mat2) -> SudokuGrid:
    """Sudoku grid generated by the column span of [I; C].

    Each row extends by the blocks that its large row's picker (block_plan)
    takes from its strip.  Raises NotAGenerator when C is singular or lower
    triangular.
    """
    plan = block_plan(c)
    strips = _strips(c.field, "ints")
    rows = []
    for pick in plan:
        for strip in strips:
            row = []
            any(map(row.extend, pick(strip)))  # extend returns None, so any takes every block
            rows.append(row[:])  # exact size: extending left spare room in row
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

    Rows without a length, or a row that is no Sequence, are the wrong
    shape; otherwise the first bad symbol, row by row, is named.
    """
    try:
        shaped = len(rows) == n and all(isinstance(row, Sequence) and len(row) == n for row in rows)
    except TypeError:
        shaped = False
    if not shaped:
        raise MalformedGrid(f"grid must be {n}x{n}")
    for row in rows:
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
    n = a.order
    if n != b.order:
        raise OrderMismatch(f"order {n} vs {b.order}")
    _check_rows(a.rows, n)
    _check_rows(b.rows, n)
    scale = [n * s for s in range(n)]
    keys = map(scale.__getitem__, chain.from_iterable(a.rows))
    return len(set(map(add, keys, chain.from_iterable(b.rows)))) == n * n


@lru_cache(maxsize=16)
def _digit_sums(q: int) -> tuple[int, int, tuple[tuple[int, ...], ...]]:
    """p and k of q = p^k, and the table of digit-wise base-p sums on
    [0, q): the additive group of GF(q) on element indices, computed from q
    alone.  Raises ValueError when q is not a prime power."""
    p, k = factor_prime_power(q)
    places = tuple(p ** i for i in range(k))
    return p, k, tuple(tuple(sum((u // w + v // w) % p * w for w in places) for v in range(q))
                       for u in range(q))


def _shift(sums: tuple[tuple[int, ...], ...], q: int, by: int) -> list[int]:
    """The map i -> i + by on [0, q^2), adding i = q*hi + lo digit by digit."""
    high, low = sums[by // q], sums[by % q]
    return [q * h + l for h in high for l in low]


def coset_kernel(grid: SudokuGrid) -> tuple[int, ...] | None:
    """The row map kappa of the subgroup K whose cosets are the grid's
    symbol classes, or None if the grid is no such partition or no sudoku
    square.

    K = {(R, kappa(R))} has one cell in each row: kappa(R) is the column of
    row R that holds the symbol of cell (0, 0), and kappa(0) = 0.  With +
    and - digit-wise in base p, q = p^k, the grid is the coset partition of
    K iff (1) row 0 holds n distinct symbols and (2) every row R != 0 is
    its parent row R - g shifted by kappa(g), grid[R][C] =
    grid[R - g][C - kappa(g)], where g = p^j for the lowest nonzero base-p
    digit j of R is one of the 2k generators p^i, q*p^i.  Proof: by
    induction on R, (2) makes row R row 0 shifted by kappa(R) =
    kappa(R - g) + kappa(g), so kappa, built digit by digit from its
    generator values, is additive, and cells (R, C) and (R', C') share a
    symbol iff C - kappa(R) = C' - kappa(R'), iff (R' - R, C' - C) lies in
    K.  Conversely the coset partition of an additive K passes (2).  Each
    row costs one index, one itemgetter call and one tuple compare.

    The cosets of such a K are latin in rows, as K has one cell per row, in
    columns iff kappa(R) != 0 for every R != 0 (K meets column 0 only at
    0), and in subsquares iff kappa(R) >= q for 0 < R < q (K meets box 0
    only at 0).  These two tests run on kappa before (2), so a grid that
    fails them costs no shift map.

    The range check is folded in: an exact int type set over all cells and
    row 0 in [0, n) put every row that passes (2) in range.  Any grid that
    fails goes through _check_rows, so it raises MalformedGrid as
    verify_sudoku does, on every call, before None is returned.
    """
    q, n, rows = grid.q, grid.order, grid.rows
    kappa = _row_map(q, n, rows)
    if kappa is None:
        _check_rows(rows, n)
    return kappa


def _row_map(q: int, n: int, rows: list[list[int]]) -> tuple[int, ...] | None:
    """coset_kernel's kappa, or None for a grid that fails its shape (a row
    that is not a Sequence included), type, row-0 range, column and box
    tests or parent-row condition (or whose q is not a prime power)."""
    try:
        if len(rows) != n or set(map(len, rows)) != {n}:
            return None
    except TypeError:
        return None
    row0 = rows[0]
    if (not all(issubclass(kind, Sequence) for kind in set(map(type, rows)))
            or set(map(type, chain.from_iterable(rows))) != {int} or min(row0) < 0
            or max(row0) >= n or len(set(row0)) != n):
        return None
    try:
        p, k, sums = _digit_sums(q)
        kappa = tuple(map(methodcaller("index", row0[0]), rows))
    except ValueError:  # q is not a prime power, or a row lacks the symbol
        return None
    if 0 in kappa[1:] or min(kappa[1:q]) < q:  # K meets column 0 or box 0
        return None
    for g in [p ** i for i in range(2 * k)]:  # p^i, then q*p^i = p^(k+i)
        shifted = itemgetter(*_shift(sums, q, kappa[g]))
        if not all(shifted(rows[r]) == tuple(rows[r - g]) for r in range(g, n, g) if r // g % p):
            return None
    return kappa


def non_orthogonal_pairs(kernels: Sequence[tuple[int, ...]]) -> list[tuple[int, int]]:
    """The pairs i < j, sorted, of squares that are not orthogonal, from
    their row maps (coset_kernel's).  Two squares are not orthogonal iff
    their kernels share a cell (R, C) with R != 0, that is iff kappa_i(R)
    == kappa_j(R): one scan of the rows R != 0 groups the squares by
    kappa_i(R).  Raises OrderMismatch for row maps of different lengths."""
    for kappa in kernels:
        if len(kappa) != len(kernels[0]):
            raise OrderMismatch(f"order {len(kernels[0])} vs {len(kappa)}")
    bad = set()
    for column in islice(zip(*kernels), 1, None):
        if len(set(column)) < len(column):
            groups = defaultdict(list)
            for i, column_of_i in enumerate(column):
                groups[column_of_i].append(i)
            bad.update(pair for group in groups.values() for pair in combinations(group, 2))
    return sorted(bad)


def render_grid(c: Mat2, style: str = "text") -> str:
    """The grid of [I; C] as text (blocks split by " | ", large rows by -+-
    rules), csv (a line per row) or json (the array, as json.dumps writes it
    without spaces): each row joins the block strings that its large row's
    picker (block_plan) takes from its strip.  Raises ValueError for an
    unknown style, NotAGenerator for an invalid C."""
    if style not in ("text", "csv", "json"):
        raise ValueError(f"unknown style {style!r}")
    padded = style == "text"
    plan = block_plan(c)
    strips = _strips(c.field, "text" if padded else "csv")
    join = (" | " if padded else ",").join
    rows = [join(pick(strip)) for pick in plan for strip in strips]
    if not padded:
        return f"[[{'],['.join(rows)}]]" if style == "json" else "\n".join(rows)
    q = c.field.q
    rule = "-+-".join(["-" * len(strips[0][0])] * q)  # every block string has one width
    return f"\n{rule}\n".join("\n".join(rows[r:r + q]) for r in range(0, q * q, q))
