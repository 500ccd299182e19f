"""2x2 generator matrices over GF(q) and 2-dimensional subspaces of GF(q)^4.

Matrix entries and basis coordinates are element indices (ints), checked
by from_indices and parse_mat2 and trusted by the plain constructors.

The column span of [I; C] generates a sudoku square exactly when C is
invertible with a nonzero upper-right entry (is_valid_generator), and two
generators give orthogonal squares exactly when C1 - C2 is invertible,
which family.verify_family decides for a whole list at once.  The plane
view behind both criteria (canonicalizing a plane to its C, the three
reference planes, det(C1 - C2)) is the specification in tests/oracles.py.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import combinations

from .gf import Field, _index, _Record


class Mat2(_Record):
    """2x2 matrix over a field, row-major entries a, b, c, d as element indices.

    The constructor trusts its indices; from_indices checks them.  Matrices
    compare and hash by field and entries.
    """

    __slots__ = _fields = ("field", "a", "b", "c", "d")

    def __init__(self, field: Field, a: int, b: int, c: int, d: int):
        self.field, self.a, self.b, self.c, self.d = field, a, b, c, d

    @classmethod
    def from_indices(cls, field: Field, rows: Sequence[Sequence[int]]) -> "Mat2":
        (a, b), (c, d) = rows
        return cls(field, *(_index(field, i) for i in (a, b, c, d)))

    def indices(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return (self.a, self.b), (self.c, self.d)

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


def is_valid_generator(c: Mat2) -> bool:
    """True iff [I; C] spans a sudoku-generating plane: det(C) != 0 and b != 0."""
    mul = c.field.mul_table
    return c.b != 0 and mul[c.a][c.d] != mul[c.b][c.c]


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

