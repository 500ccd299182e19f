"""The package's surface: the README's example, the names the benchmark
reads, the plane specification that lives in oracles.py instead, the one
grid certifier, the semantics of the eight record classes, the one
error base, ValueError, and source that compiles without a warning."""

import contextlib
import copy
import functools
import importlib
import inspect
import io
import pickle
import re
import warnings
from pathlib import Path

import pytest

import moss
import moss.gf
from moss.gf import GF, Field, FieldElement
from moss.family import Family, FamilyReport, build_family, derive_lambda, find_alpha
from moss.planes import Mat2
from moss.serialize import SquareDocument
from moss.sudoku import (
    MalformedGrid,
    SudokuGrid,
    SudokuReport,
    build_from_canonical,
    coset_kernel,
    verify_orthogonal_bruteforce,
    verify_sudoku,
)

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_example_runs():
    """The README's python block runs, and each print shows what its
    trailing comment says."""
    readme = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    expected = [line.split("#", 1)[1].strip() for line in block.splitlines()
                if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert expected and out.getvalue().splitlines() == expected


def test_benchmark_contract_with_the_package(monkeypatch, capsys):
    """bench/spans.py can trace every function it names, and bench/child.py's
    setup run prints alpha and lambda through FieldElement.index.  The
    package namespace reads each name from its module, so moss.GF is the
    traced wrapper while the tracer is installed and the original after."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    child, spans = importlib.import_module("child"), importlib.import_module("spans")
    tracer = spans.Tracer("t", "0")
    try:
        tracer.install()
        assert moss.GF is moss.gf.GF is not GF
        assert child.main(["setup", "9"]) == 0
    finally:
        tracer.uninstall()
    assert moss.GF is moss.gf.GF is GF
    assert capsys.readouterr().out == "alpha 3 lambda 5\n"
    assert {"gf.GF", "family.find_alpha"} <= {span[0] for span in tracer.spans}
    field = GF(9)
    alpha = find_alpha(field)
    assert alpha.index == 3
    assert derive_lambda(field, alpha).index == 5


# Test-only names that moved from the package to oracles.py.
MOVED = ("NotCanonicalizable", "canonicalize", "meets_trivially", "format_mat2",
         "build_from_plane", "count_alphas")


def test_plane_specification_is_not_in_the_package():
    for name in ("moss", "moss.planes", "moss.sudoku", "moss.family"):
        module = importlib.import_module(name)
        assert [attr for attr in MOVED if hasattr(module, attr)] == [], name
    assert [attr for attr in ("__mul__", "__sub__", "inverse", "det") if hasattr(Mat2, attr)] == []
    assert not hasattr(SudokuGrid, "symbol_at")
    assert not hasattr(FieldElement, "coeffs")
    assert not hasattr(GF(9), "sub_table")


def test_coset_kernel_is_the_one_grid_certifier():
    """certify_grid, which wrapped coset_kernel's row map in a sudoku
    report, is gone: no moss module defines or imports it."""
    for name in ("moss", "moss.gf", "moss.planes", "moss.sudoku", "moss.family",
                 "moss.serialize", "moss.cli"):
        assert not hasattr(importlib.import_module(name), "certify_grid"), name


def test_square_document_is_its_generator_matrix():
    assert not [name for name in ("to_matrix", "to_field", "grid")
                if hasattr(SquareDocument, name)]
    c = build_family(GF(9)).matrices[0]
    doc = SquareDocument.from_matrix(c)
    assert doc.matrix is c
    parsed = SquareDocument.from_json(doc.to_json())
    assert parsed == doc and hash(parsed) == hash(doc)
    with pytest.raises(AttributeError):
        doc.c = ((0, 1), (1, 1))


def test_mat2_and_family_records():
    family = build_family(GF(9))
    assert repr(family) == "Family(GF(9), alpha=3, lambda=5, size=72)"
    assert repr(family.matrices[5]) == "Mat2(GF(9), [[0,6],[6,4]])"
    m = family.matrices[5]
    twin = Mat2(GF(9), *(x for row in m.indices() for x in row))  # an equal, new field
    assert twin.field is not m.field
    assert twin is not m and twin == m and hash(twin) == hash(m)
    assert m != m.indices() and m.indices() != m
    assert m != family.matrices[6]
    again = build_family(GF(9))
    assert again != family and again.matrices == family.matrices
    assert len({family, again}) == 2


def test_sudoku_grid_record():
    """A grid is a (q, rows) record: it compares by its order and rows and is
    unhashable.  Its checks cache nothing on it: after each check it holds
    only q and rows, and a cell changed after a passing check is caught on
    the next call."""
    c = build_family(GF(9)).matrices[5]
    built = build_from_canonical(c)
    plain = SudokuGrid(9, [list(row) for row in built.rows])
    assert vars(SudokuGrid(9, built.rows)) == {"q": 9, "rows": built.rows}
    assert not any(isinstance(v, functools.cached_property) for v in vars(SudokuGrid).values())
    assert repr(plain) == "SudokuGrid(q=9)"
    assert plain == built and built == plain
    for check, grids in [(verify_sudoku, [built]), (coset_kernel, [built]), (coset_kernel, [plain]),
                         (verify_orthogonal_bruteforce, [built, plain]),
                         (verify_orthogonal_bruteforce, [plain, built])]:
        check(*grids)
        assert all(vars(grid) == {"q": 9, "rows": grid.rows} for grid in (built, plain))
        for grid in grids:
            symbol, grid.rows[4][7] = grid.rows[4][7], 81
            with pytest.raises(MalformedGrid, match=r"^symbol 81 out of range \[0, 81\)$"):
                check(*grids)
            grid.rows[4][7] = symbol
    assert plain == built and built == plain
    changed = [list(row) for row in built.rows]
    changed[4][7] = (changed[4][7] + 1) % 81
    assert SudokuGrid(9, changed) != built
    assert SudokuGrid(3, built.rows) != built
    with pytest.raises(TypeError):
        hash(built)


def _records():
    """One instance of each record class, with the tuple of its fields."""
    field = GF(9)
    m = Mat2(field, 0, 6, 6, 4)
    alpha, lam = FieldElement(field, 3), FieldElement(field, 5)
    rows = build_from_canonical(m).rows
    return [
        (alpha, (field, 3)),
        (field, (3, 2, field.modulus)),
        (m, (field, 0, 6, 6, 4)),
        (Family(field, alpha, lam, [m]), (field, alpha, lam, [m])),
        (FamilyReport("fast", 1, 0, []), ("fast", 1, 0, [])),
        (SquareDocument(m), (m,)),
        (SudokuGrid(9, rows), (9, rows)),
        (SudokuReport(True, False, True), (True, False, True)),
    ]


def test_record_reprs():
    assert [repr(record) for record, _ in _records()] == [
        "GF(9)(3)",
        "GF(9)",
        "Mat2(GF(9), [[0,6],[6,4]])",
        "Family(GF(9), alpha=3, lambda=5, size=1)",
        "FamilyReport(mode='fast', size=1, pairs=0, ok)",
        "SquareDocument(matrix=Mat2(GF(9), [[0,6],[6,4]]))",
        "SudokuGrid(q=9)",
        "SudokuReport(latin_rows=True, latin_cols=False, subsquares=True)",
    ]
    assert repr(SudokuReport(latin_rows=False, latin_cols=True, subsquares=False)) == (
        "SudokuReport(latin_rows=False, latin_cols=True, subsquares=False)")


def test_frozen_records_reject_assignment():
    """FieldElement and SquareDocument are read-only; the other records keep
    slots, except the two whose instance dict a test reads."""
    element, doc = FieldElement(GF(9), 3), SquareDocument(Mat2(GF(9), 0, 6, 6, 4))
    for record, name, value in [(element, "index", 4), (element, "field", GF(3)),
                                (doc, "matrix", Mat2(GF(9), 0, 1, 1, 0))]:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        assert getattr(record, name) is before
    slotted = [record for record, _ in _records() if not hasattr(record, "__dict__")]
    assert [type(record).__name__ for record in slotted] == [
        "FieldElement", "Mat2", "Family", "FamilyReport", "SudokuReport"]


def test_record_equality_and_hashing():
    """Records compare by class and fields, except Family, which compares by
    identity; the field-wise records that are not frozen are unhashable, and
    no record equals the tuple of its fields."""
    records, again = _records(), _records()
    for (record, fields), (twin, _) in zip(records, again):
        assert record != fields and fields != record, record
        if isinstance(record, Family):
            assert twin != record and len({record, twin}) == 2
        else:
            assert twin is not record and twin == record, record
    for record, _ in records:
        if isinstance(record, (FamilyReport, SudokuGrid, SudokuReport)):
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == hash(record)
    for (record, _), (twin, _) in zip(records, again):
        if isinstance(record, (FieldElement, Field, Mat2, SquareDocument)):
            assert hash(twin) == hash(record), record
    for record, _ in records:
        for copied in (copy.copy(record), copy.deepcopy(record),
                       pickle.loads(pickle.dumps(record))):
            assert type(copied) is type(record) and copied is not record
            assert isinstance(record, Family) or copied == record, record
    assert FamilyReport("fast", 1, 0, []) != FamilyReport("bruteforce", 1, 0, [])
    assert SudokuReport(True, True, True) != SudokuReport(True, True, False)
    assert FieldElement(GF(9), 3) != FieldElement(GF(9), 4) != FieldElement(GF(3), 4)


def test_every_moss_error_is_a_value_error():
    """The modules define exactly these nine exception classes, each a
    subclass of ValueError, as the README promises, and a modulus that is no
    sequence is a ValueError too."""
    errors = [cls for name in ("gf", "planes", "sudoku", "family", "serialize", "cli")
              for _, cls in inspect.getmembers(importlib.import_module(f"moss.{name}"),
                                               inspect.isclass)
              if issubclass(cls, BaseException) and cls.__module__ == f"moss.{name}"]
    assert sorted(cls.__name__ for cls in errors) == [
        "DegreeTooSmall", "FieldMismatch", "MalformedGrid", "NoSquareRoot", "NotAGenerator",
        "NotOddPrime", "OrderMismatch", "OrderTooLarge", "SchemaViolation"]
    assert all(issubclass(cls, ValueError) for cls in errors), errors
    for modulus in (5, 3.5):
        with pytest.raises(ValueError, match="modulus"):
            Field(3, 2, modulus=modulus)
    with pytest.raises(ValueError):
        GF(7).sqrt(3)


def test_every_module_compiles_without_a_warning():
    """Each src/moss module compiles from its source with every warning an
    error, so a SyntaxWarning such as an invalid escape fails here on every
    Python, whether or not the module's bytecode is cached."""
    sources = sorted((ROOT / "src" / "moss").glob("*.py"))
    assert len(sources) == 8
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for path in sources:
            compile(path.read_text(encoding="utf-8"), str(path), "exec")
