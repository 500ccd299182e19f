"""2x2 matrices over GF(q) and 2-dimensional subspaces of GF(q)^4.

Matrix entries and basis coordinates are element indices (ints), and all
arithmetic is done on the field's add/sub/mul/neg/inv tables.

A plane (2-dimensional subspace) whose column-stacked basis has an
invertible top 2x2 block A can be rewritten as the column span of [I; C]
with C = B A^-1, where B is the bottom block.  Such a C is the canonical
generator of the plane.  A plane generates a sudoku square exactly when C
is invertible with a nonzero upper-right entry, equivalently when the
plane meets each of three fixed reference planes (columns, rows,
subsquares) only at the origin.  Two canonical generators give orthogonal
squares exactly when their difference is invertible.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from .gf import Field, FieldMismatch, _index


class NotCanonicalizable(ValueError):
    """The plane has no basis of the form [I; C]."""


class Mat2:
    """2x2 matrix over a field, row-major entries a, b, c, d as element indices.

    The constructor trusts its indices; from_indices checks them.
    """

    __slots__ = ("field", "a", "b", "c", "d")

    def __init__(self, field: Field, a: int, b: int, c: int, d: int):
        self.field = field
        self.a, self.b, self.c, self.d = a, b, c, d

    @classmethod
    def from_indices(cls, field: Field, rows: Sequence[Sequence[int]]) -> "Mat2":
        (a, b), (c, d) = rows
        return cls(field, *(_index(field, i) for i in (a, b, c, d)))

    def indices(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return (self.a, self.b), (self.c, self.d)

    def det(self) -> int:
        mul = self.field.mul_table
        return self.field.sub_table[mul[self.a][self.d]][mul[self.b][self.c]]

    def __sub__(self, other: "Mat2") -> "Mat2":
        sub = self.field.sub_table
        return Mat2(self.field, sub[self.a][other.a], sub[self.b][other.b],
                    sub[self.c][other.c], sub[self.d][other.d])

    def __mul__(self, other: "Mat2") -> "Mat2":
        add, mul = self.field.add_table, self.field.mul_table
        a, b, c, d = self.a, self.b, self.c, self.d
        return Mat2(
            self.field,
            add[mul[a][other.a]][mul[b][other.c]],
            add[mul[a][other.b]][mul[b][other.d]],
            add[mul[c][other.a]][mul[d][other.c]],
            add[mul[c][other.b]][mul[d][other.d]],
        )

    def inverse(self) -> "Mat2":
        field = self.field
        inv = field.inv_table[self.det()]
        if inv is None:
            raise ZeroDivisionError("singular matrix")
        mul, neg = field.mul_table, field.neg_table
        return Mat2(field, mul[self.d][inv], mul[neg[self.b]][inv],
                    mul[neg[self.c]][inv], mul[self.a][inv])

    def __eq__(self, other):
        return (
            isinstance(other, Mat2)
            and (self.field, self.a, self.b, self.c, self.d)
            == (other.field, other.a, other.b, other.c, other.d)
        )

    def __hash__(self):
        return hash((self.field, self.a, self.b, self.c, self.d))

    def __repr__(self):
        return f"Mat2({self.field!r}, [[{self.a},{self.b}],[{self.c},{self.d}]])"


Vector4 = tuple[int, int, int, int]


class Plane:
    """2-dimensional subspace of F^4, given by two independent basis vectors.

    Coordinates are element indices; the constructor trusts them and
    from_indices checks them.
    """

    __slots__ = ("field", "v1", "v2")

    def __init__(self, field: Field, v1: Sequence[int], v2: Sequence[int]):
        v1, v2 = tuple(v1), tuple(v2)
        if len(v1) != 4 or len(v2) != 4:
            raise ValueError("basis vectors must have 4 coordinates")
        # Independent iff some 2x2 minor of the stacked basis is nonzero.
        mul = field.mul_table
        if all(mul[v1[i]][v2[j]] == mul[v1[j]][v2[i]] for i, j in combinations(range(4), 2)):
            raise ValueError("basis vectors are linearly dependent")
        self.field = field
        self.v1: Vector4 = v1
        self.v2: Vector4 = v2

    @classmethod
    def from_indices(cls, field: Field, v1: Sequence[int], v2: Sequence[int]) -> "Plane":
        return cls(field, [_index(field, i) for i in v1], [_index(field, i) for i in v2])

    @classmethod
    def from_generator(cls, c: Mat2) -> "Plane":
        """Column span of [I; C]."""
        return cls(c.field, (1, 0, c.a, c.c), (0, 1, c.b, c.d))

    def basis(self) -> tuple[Vector4, Vector4]:
        return self.v1, self.v2

    def __repr__(self):
        fmt = lambda v: "".join(str(x) for x in v)
        return f"Plane({self.field!r}, <{fmt(self.v1)},{fmt(self.v2)}>)"


def canonicalize(plane: Plane) -> Mat2:
    """Canonical generator C with plane = column span of [I; C].

    Writing the basis vectors as columns, A is the top 2x2 block and B the
    bottom one; C = B A^-1.  Raises NotCanonicalizable when A is singular
    (the plane meets the row plane nontrivially).
    """
    field, v1, v2 = plane.field, plane.v1, plane.v2
    top = Mat2(field, v1[0], v2[0], v1[1], v2[1])
    if not top.det():
        raise NotCanonicalizable("top block of the stacked basis is singular")
    return Mat2(field, v1[2], v2[2], v1[3], v2[3]) * top.inverse()


def is_valid_generator(c: Mat2) -> bool:
    """True iff [I; C] spans a sudoku-generating plane: det(C) != 0 and b != 0."""
    mul = c.field.mul_table
    return c.b != 0 and mul[c.a][c.d] != mul[c.b][c.c]


def meets_trivially(c1: Mat2, c2: Mat2) -> bool:
    """True iff the planes [I; C1] and [I; C2] intersect only at the origin.

    Equivalent to det(C1 - C2) != 0; this is the fast orthogonality criterion
    for the squares the two generators produce.
    """
    if c1.field != c2.field:
        raise FieldMismatch(f"{c1.field} vs {c2.field}")
    return (c1 - c2).det() != 0


def parse_mat2(field: Field, text: str) -> Mat2:
    """Parse the row-major literal "a,b;c,d" of field-element indices."""
    rows = text.split(";")
    if len(rows) != 2:
        raise ValueError(f"expected two ';'-separated rows in {text!r}")
    entries = []
    for row in rows:
        cells = row.split(",")
        if len(cells) != 2:
            raise ValueError(f"expected two ','-separated entries in {row!r}")
        for cell in cells:
            try:
                entries.append(_index(field, int(cell.strip())))
            except (ValueError, IndexError) as exc:
                raise ValueError(f"bad matrix entry {cell.strip()!r}: {exc}") from None
    return Mat2(field, *entries)


def format_mat2(m: Mat2) -> str:
    return f"{m.a},{m.b};{m.c},{m.d}"
