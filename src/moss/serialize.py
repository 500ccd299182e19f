"""Canonical JSON documents for generated squares.

A square document records the field (q, p, k, modulus), the generator
matrix c as a 2x2 array of element indices, and the full grid.  Keys are
emitted in that fixed order and all values are integers, so serialization
is byte-stable and documents round-trip exactly.  A SquareDocument holds
only its generator matrix: the field parameters and c are read from it,
and the grid is a function of c, which to_json renders with render_grid
(json.dumps writes only the header) and to_grid builds.  Deserialization
accepts canonical text by comparing it with its validated header's
to_json(), without parsing a cell; any other spelling is parsed whole (a key
may appear once) and revalidated, c before the grid, whose every cell must
match the grid from c.  Either way the parsed document holds only its matrix.
Emitting a document builds no second field; parsed fields are cached by
(p, k, modulus), so loading documents constructs each field at most once.
"""

from __future__ import annotations

import json
from functools import lru_cache

from .gf import Field, NotOddPrime, OrderTooLarge, _frozen, _Record
from .planes import Mat2, is_valid_generator
from .sudoku import NotAGenerator, SudokuGrid, build_from_canonical, render_grid

KEY_ORDER = ("q", "p", "k", "modulus", "c", "grid")


@lru_cache(maxsize=16)
def _field(p: int, k: int, modulus: tuple[int, ...]) -> Field:
    """The field of a document; a raised error is not cached."""
    return Field(p, k, modulus=modulus)


class SchemaViolation(ValueError):
    """A document field is missing, malformed or inconsistent."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _require_int(value, path: str) -> int:
    if isinstance(value, _Repeated):
        raise SchemaViolation(path, f"duplicate key {value.key!r}")
    if type(value) is not int:
        raise SchemaViolation(path, f"expected an integer, got {value!r}")
    return value


def _require_int_matrix(value, path: str, nrows: int, ncols: int,
                        upper: int) -> list[list[int]]:
    if not isinstance(value, list) or len(value) != nrows:
        raise SchemaViolation(path, f"expected {nrows} rows")
    for r, row in enumerate(value):
        if not isinstance(row, list) or len(row) != ncols:
            raise SchemaViolation(f"{path}[{r}]", f"expected {ncols} entries")
        for c, cell in enumerate(row):
            v = _require_int(cell, f"{path}[{r}][{c}]")
            if not 0 <= v < upper:
                raise SchemaViolation(f"{path}[{r}][{c}]", f"value {v} out of range [0, {upper})")
    return value


class SquareDocument(_Record):
    """One generated square: its generator matrix c, over its field.

    q is read from the matrix's field, and to_json reads the rest of the
    header from the matrix and its field.  The grid is not stored:
    to_grid() builds it from c and to_json renders it from c, so a
    document cannot hold a grid that disagrees with its c.  The constructor
    trusts its matrix; from_matrix and from_json check it.  Documents are
    read-only, and compare and hash by their matrix.
    """

    _fields = ("matrix",)
    __setattr__ = __delattr__ = _frozen

    def __init__(self, matrix: Mat2):
        object.__setattr__(self, "matrix", matrix)

    @property
    def q(self) -> int:
        return self.matrix.field.q

    @classmethod
    def from_matrix(cls, c: Mat2) -> "SquareDocument":
        """The document of c; raises NotAGenerator for an invalid c."""
        if not is_valid_generator(c):
            raise NotAGenerator(f"{c!r} is singular or lower triangular")
        return cls(c)

    def to_grid(self) -> SudokuGrid:
        """The grid of c, built anew on each call."""
        return build_from_canonical(self.matrix)

    def to_json(self) -> str:
        """The canonical text: json.dumps writes the header (the keys of
        KEY_ORDER before the grid, read from the matrix and its field), and
        render_grid(c, "json") the grid, so no cell goes through the json
        encoder."""
        m, f = self.matrix, self.matrix.field
        header = json.dumps(dict(zip(KEY_ORDER, (f.q, f.p, f.k, f.modulus, m.indices()))),
                            separators=(",", ":"))
        return f'{header[:-1]},"grid":{render_grid(m, "json")}}}\n'

    @classmethod
    def from_json(cls, text: str) -> "SquareDocument":
        """Parse and fully validate a document: canonical text by comparison
        with to_json(), any other text by parsing it whole.

        Raises json.JSONDecodeError for text that is not JSON at all, and
        SchemaViolation (with the offending field path) for anything that
        parses but breaks the schema, including a repeated key, an integer
        literal too long to convert or nesting deeper than the parser goes.
        """
        head, sep, _ = text.partition(',"grid":')
        try:
            header = json.loads(head + "}") if sep else {}  # text ending in } is an object
            if tuple(header) == KEY_ORDER[:-1]:
                doc = cls(_header_matrix(header))
                # a cell takes a character: the q^4 floor spares a short grid's render
                if len(text) >= doc.q ** 4 and doc.to_json() == text:
                    return doc
        except (ValueError, RecursionError):
            pass  # the full path decides, and names, what is wrong
        try:
            data = json.loads(text, parse_float=_reject_float, object_pairs_hook=_unique_keys)
        except (json.JSONDecodeError, SchemaViolation):
            raise
        except (ValueError, RecursionError) as exc:  # int()'s digit limit, deep nesting
            raise SchemaViolation("$", str(exc)) from None
        return cls._validate(data)

    @classmethod
    def _validate(cls, data) -> "SquareDocument":
        """The document of parsed data.  Raises the first SchemaViolation of:
        the keys (a repeated one first), the header, c, the grid's shape and
        types, its cells.  An object nested where an integer belongs that
        repeats a key is named at its own path, as a duplicate key."""
        if not isinstance(data, dict):
            raise SchemaViolation("$", "expected a JSON object")
        if isinstance(data, _Repeated):
            raise SchemaViolation(data.key, "duplicate key")
        for key in KEY_ORDER:
            if key not in data:
                raise SchemaViolation(key, "missing")
        for key in data:
            if key not in KEY_ORDER:
                raise SchemaViolation(key, "unexpected key")
        matrix = _header_matrix(data)
        if not is_valid_generator(matrix):
            raise SchemaViolation("c", "not a valid generator (singular or lower triangular)")
        # read before the O(q^4) build, so a short grid costs only its size
        n = matrix.field.q ** 2
        grid_rows = _require_int_matrix(data["grid"], "grid", n, n, n)
        if build_from_canonical(matrix).rows != grid_rows:
            raise SchemaViolation("grid", "grid disagrees with the square rebuilt from c")
        return cls(matrix)


def _header_matrix(data: dict) -> Mat2:
    """The matrix of a document's q, p, k, modulus and c, or SchemaViolation."""
    q = _require_int(data["q"], "q")
    p = _require_int(data["p"], "p")
    k = _require_int(data["k"], "k")
    # p ** k has more than k * (bit_length(p) - 1) bits, so the power is
    # taken only when it is about as small as q.
    if k < 1 or p < 2 or k * (p.bit_length() - 1) >= q.bit_length() or p ** k != q:
        raise SchemaViolation("q", f"q = {q} is not p^k = {p}^{k}")

    modulus = data["modulus"]
    if not isinstance(modulus, list):
        raise SchemaViolation("modulus", "expected a list")
    modulus = tuple(_require_int(m, f"modulus[{i}]") for i, m in enumerate(modulus))
    try:
        field = _field(p, k, modulus)
    except NotOddPrime as exc:
        raise SchemaViolation("p", str(exc)) from None
    except OrderTooLarge as exc:
        raise SchemaViolation("q", str(exc)) from None
    except ValueError as exc:
        raise SchemaViolation("modulus", str(exc)) from None
    return Mat2.from_indices(field, _require_int_matrix(data["c"], "c", 2, 2, q))


def _reject_float(text: str):
    raise SchemaViolation("$", f"float {text} not allowed, integers only")


class _Repeated(dict):
    """A parsed object that repeats a key: its last values, and the first
    repeated key, which _validate reports where the object sits."""

    __slots__ = ("key",)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A parsed object's dict, or a _Repeated one if it repeats a key."""
    data = dict(pairs)
    if len(data) == len(pairs):
        return data
    seen = set()
    repeated = _Repeated(data)
    repeated.key = next(key for key, _ in pairs if key in seen or seen.add(key))
    return repeated
