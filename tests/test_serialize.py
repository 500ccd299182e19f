"""Canonical JSON documents: round trips and schema enforcement."""

import json
import time
from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import moss.serialize
from moss.family import build_family
from moss.planes import Mat2
from moss.serialize import KEY_ORDER, SchemaViolation, SquareDocument, _reject_float
from moss.sudoku import NotAGenerator, build_from_canonical, verify_sudoku
from oracles import GOLDEN_C_Q3, GOLDEN_GRID_Q3, get_field, mat_det, reference_document_json


def golden_document():
    return SquareDocument.from_matrix(Mat2.from_indices(get_field(3), GOLDEN_C_Q3))


def test_golden_document_contents():
    doc = golden_document()
    field = doc.matrix.field
    assert (doc.q, field.p, field.k) == (3, 3, 1)
    assert field.modulus == (1, 0)
    assert doc.matrix.indices() == GOLDEN_C_Q3
    assert doc.to_grid().rows == GOLDEN_GRID_Q3


def test_round_trip_identity():
    doc = golden_document()
    text = doc.to_json()
    assert SquareDocument.from_json(text) == doc
    assert SquareDocument.from_json(text).to_json() == text
    assert text.endswith("\n")


def test_key_order_is_fixed():
    text = golden_document().to_json()
    pairs = json.loads(text, object_pairs_hook=list)
    assert tuple(key for key, _ in pairs) == KEY_ORDER


def test_documents_are_integer_only():
    text = golden_document().to_json()
    assert "." not in text
    assert "e" not in text.replace('"modulus"', "").replace('"', "")


@pytest.mark.parametrize("q", [9, 25])
def test_round_trip_extension_fields(q):
    field = get_field(q)
    doc = SquareDocument.from_matrix(Mat2.from_indices(field, ((0, 1), (1, 1))))
    assert doc.matrix.field.modulus == field.modulus
    text = doc.to_json()
    parsed = SquareDocument.from_json(text)
    assert parsed == doc
    assert parsed.to_json() == text


def test_reconstruction_helpers():
    doc = golden_document()
    field = doc.matrix.field
    assert field == get_field(3)
    matrix = doc.matrix
    assert matrix.field is field
    assert matrix.indices() == GOLDEN_C_Q3
    grid = doc.to_grid()
    assert grid.rows == GOLDEN_GRID_Q3
    assert verify_sudoku(grid).ok
    assert build_from_canonical(matrix).rows == grid.rows


def _mutate(key, value):
    data = json.loads(golden_document().to_json())
    data[key] = value
    return json.dumps(data)


OTHER_C_Q3 = ((1, 2), (2, 0))


def corrupt_cases():
    base = json.loads(golden_document().to_json())

    swapped = [row[:] for row in base["grid"]]
    swapped[0][0], swapped[0][1] = swapped[0][1], swapped[0][0]

    # a second c, of another square, whose grid the document carries
    other = json.loads(SquareDocument.from_matrix(Mat2.from_indices(get_field(3), OTHER_C_Q3)).to_json())
    duplicate_c = json.dumps(dict(base, grid=other["grid"])).replace(
        '"grid"', '"c": %s, "grid"' % json.dumps(other["c"]))

    missing = {k: v for k, v in base.items() if k != "p"}
    extra = dict(base, comment="hello")
    cases = {
        "symbol-out-of-range": (_mutate("grid", [[81] + base["grid"][0][1:]] + base["grid"][1:]), "grid"),
        "grid-disagrees-with-c": (json.dumps(dict(base, grid=swapped)), "grid"),
        "grid-wrong-shape": (_mutate("grid", base["grid"][:-1]), "grid"),
        "grid-row-wrong-length": (_mutate("grid", [base["grid"][0][:-1]] + base["grid"][1:]), "grid[0]"),
        "duplicate-c": (duplicate_c, "c"),
        "missing-key": (json.dumps(missing), "p"),
        "unexpected-key": (json.dumps(extra), "comment"),
        "q-not-p-to-k": (_mutate("q", 5), "q"),
        # k < 1 is a q violation before any field is built, so no "k" path exists
        "k-zero": (_mutate("k", 0), "q"),
        "k-negative": (_mutate("k", -1), "q"),
        "even-characteristic": (json.dumps(dict(base, q=8, p=2, k=3, modulus=[1, 0, 1, 1])), "p"),
        "modulus-not-monic": (_mutate("modulus", [2, 0]), "modulus"),
        "modulus-reducible": (json.dumps(dict(base, q=9, p=3, k=2, modulus=[1, 0, 2])), "modulus"),
        "modulus-not-a-list": (_mutate("modulus", 10), "modulus"),
        "c-out-of-range": (_mutate("c", [[0, 3], [2, 1]]), "c[0][1]"),
        "c-lower-triangular": (_mutate("c", [[1, 0], [0, 1]]), "c"),
        "c-singular": (_mutate("c", [[1, 2], [2, 1]]), "c"),
        "bool-symbol": (_mutate("q", True), "q"),
        "float-value": (_mutate("k", 1.0), "$"),
        "top-level-array": ("[1,2,3]", "$"),
        "integer-beyond-digit-limit": (_mutate("q", 0).replace('"q": 0', '"q": ' + "9" * 5000), "$"),
    }
    return cases


@pytest.mark.parametrize("name", sorted(corrupt_cases()))
def test_schema_violations(name):
    text, path = corrupt_cases()[name]
    for _ in range(2):  # fields are cached, a failed construction is not
        with pytest.raises(SchemaViolation) as exc_info:
            SquareDocument.from_json(text)
        assert exc_info.value.path.startswith(path)


def test_a_repeated_key_is_a_violation_not_its_last_value():
    """json.loads keeps the last of two equal keys, and read that way the
    duplicate-c text is a valid document of another square."""
    text = corrupt_cases()["duplicate-c"][0]
    assert text.count('"c":') == 2
    assert SquareDocument._validate(json.loads(text)).matrix.indices() == OTHER_C_Q3 != GOLDEN_C_Q3
    with pytest.raises(SchemaViolation, match=r"^c: duplicate key$"):
        SquareDocument.from_json(text)


@pytest.mark.parametrize("where", [("grid", 40, 17), ("c", 1, 0), ("modulus", 0), ("q",)])
def test_a_repeated_key_below_the_top_is_named_at_its_path(where):
    """An object that repeats a key, where an integer belongs, is reported
    at its own path, as a duplicate key, whichever value a later key has."""
    data = json.loads(SquareDocument.from_matrix(
        Mat2.from_indices(get_field(9), ((0, 1), (1, 1)))).to_json())
    *outer, last = where
    container = data
    for step in outer:
        container = container[step]
    container[last] = "@"
    path = where[0] + "".join(f"[{i}]" for i in where[1:])
    for repeated in ('{"x": 1, "x": 2}', '{"y": {}, "x": 0, "x": 0}'):
        with pytest.raises(SchemaViolation) as exc_info:
            SquareDocument.from_json(json.dumps(data).replace('"@"', repeated))
        assert str(exc_info.value) == f"{path}: duplicate key 'x'"


@pytest.mark.parametrize("name, k", [("k-zero", 0), ("k-negative", -1)])
def test_degree_below_one_is_a_q_violation(name, k):
    with pytest.raises(SchemaViolation) as exc_info:
        SquareDocument.from_json(corrupt_cases()[name][0])
    assert str(exc_info.value) == f"q: q = 3 is not p^k = 3^{k}"


@pytest.mark.parametrize("cell, message", [
    (True, "expected an integer, got True"),
    (-1, "value -1 out of range [0, 81)"),
    (81, "value 81 out of range [0, 81)"),
    ("7", "expected an integer, got '7'"),
])
@pytest.mark.parametrize("later", [None, -5])
def test_schema_violation_deep_in_the_grid(cell, message, later):
    data = json.loads(SquareDocument.from_matrix(
        Mat2.from_indices(get_field(9), ((0, 1), (1, 1)))).to_json())
    data["grid"][40][17] = cell
    if later is not None:  # a later bad cell in the same row is not the one named
        data["grid"][40][60] = later
    with pytest.raises(SchemaViolation) as exc_info:
        SquareDocument.from_json(json.dumps(data))
    assert exc_info.value.path == "grid[40][17]"
    assert str(exc_info.value) == f"grid[40][17]: {message}"


@pytest.mark.parametrize("cell, message", [
    (81, "value 81 out of range [0, 81)"),
    (-1, "value -1 out of range [0, 81)"),
    (True, "expected an integer, got True"),
    ({"x": 1}, "expected an integer, got {'x': 1}"),
])
def test_schema_violation_in_the_last_row(cell, message):
    """A respelled document (json.dumps spacing) takes the full path, which
    names a bad cell of row 80 at its own path."""
    data = json.loads(SquareDocument.from_matrix(
        Mat2.from_indices(get_field(9), ((0, 1), (1, 1)))).to_json())
    data["grid"][80][63] = cell
    with pytest.raises(SchemaViolation) as exc_info:
        SquareDocument.from_json(json.dumps(data))
    assert str(exc_info.value) == f"grid[80][63]: {message}"


@pytest.mark.parametrize("bad_row, short_row, expected", [
    (3, 5, "grid[3][8]: value -1 out of range [0, 81)"),
    (5, 3, "grid[3]: expected 81 entries"),
])
def test_the_earlier_of_a_bad_cell_and_a_short_row_is_named(bad_row, short_row, expected):
    data = json.loads(SquareDocument.from_matrix(
        Mat2.from_indices(get_field(9), ((0, 1), (1, 1)))).to_json())
    data["grid"][bad_row][8] = -1
    del data["grid"][short_row][-1]
    with pytest.raises(SchemaViolation) as exc_info:
        SquareDocument.from_json(json.dumps(data))
    assert str(exc_info.value) == expected


def test_generator_is_tested_once_per_document(monkeypatch):
    import moss
    from moss import planes
    calls = []
    original = planes.is_valid_generator

    def counted(m):
        calls.append(m)
        return original(m)

    for module in (moss, *(getattr(moss, name) for name in ("planes", "sudoku", "serialize", "family"))):
        if getattr(module, "is_valid_generator", None) is original:
            monkeypatch.setattr(module, "is_valid_generator", counted)
    texts = [SquareDocument.from_matrix(Mat2.from_indices(get_field(5), c)).to_json()
             for c in (((0, 1), (1, 1)), ((1, 2), (2, 3)), ((4, 1), (1, 0)))]
    calls.clear()
    for text in texts:
        SquareDocument.from_json(text)
    assert len(calls) == len(texts)

    # a singular c is still named as c, ahead of a grid of the wrong shape
    data = json.loads(golden_document().to_json())
    data["c"], data["grid"] = [[1, 2], [2, 1]], [[0]]
    with pytest.raises(SchemaViolation) as exc_info:
        SquareDocument.from_json(json.dumps(data))
    assert exc_info.value.path == "c"
    assert str(exc_info.value) == "c: not a valid generator (singular or lower triangular)"


@pytest.mark.parametrize("fields", [
    {"p": 3, "k": 10_000_000},  # p ** k would have millions of digits
    {"q": 10**14 + 31, "p": 10**14 + 31, "k": 1},  # primality by trial division
])
def test_oversized_fields_are_rejected_cheaply(fields):
    data = dict(json.loads(golden_document().to_json()), **fields)
    start = time.perf_counter()
    with pytest.raises(SchemaViolation) as exc_info:
        SquareDocument.from_json(json.dumps(data))
    assert exc_info.value.path == "q"
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("c, grid, path, message", [
    ([[0, 1], [1, 1]], [], "grid", "grid: expected 16129 rows"),
    ([[0, 1], [1, 1]], [[0]] * 16129, "grid[0]", "grid[0]: expected 16129 entries"),
    ([[1, 2], [2, 4]], [], "c", "c: not a valid generator (singular or lower triangular)"),
])
def test_short_grid_is_rejected_before_the_build(c, grid, path, message):
    # q = 127 is within the order cap; rebuilding its 16129 x 16129 grid
    # from c would take minutes, so a short grid must fail before that.
    field = get_field(127)
    data = {"q": 127, "p": 127, "k": 1, "modulus": list(field.modulus), "c": c, "grid": grid}
    start = time.perf_counter()
    with pytest.raises(SchemaViolation) as exc_info:
        SquareDocument.from_json(json.dumps(data))
    assert (exc_info.value.path, str(exc_info.value)) == (path, message)
    assert time.perf_counter() - start < 0.5


def test_unparseable_text_is_not_a_schema_violation():
    with pytest.raises(json.JSONDecodeError):
        SquareDocument.from_json("{not json")


def test_from_matrix_rejects_non_generators():
    f3 = get_field(3)
    for c in (((1, 0), (0, 1)), ((1, 2), (2, 1)), ((0, 0), (0, 0))):  # lower triangular, singular, zero
        with pytest.raises(NotAGenerator):
            SquareDocument.from_matrix(Mat2.from_indices(f3, c))


def _assert_text_matches_reference(c):
    text = SquareDocument.from_matrix(c).to_json()
    assert text == reference_document_json(c)
    assert SquareDocument.from_json(text).to_json() == text


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13])
def test_to_json_matches_encoder_on_every_family_member(q):
    for c in build_family(get_field(q)):
        _assert_text_matches_reference(c)


@pytest.mark.parametrize("q, examples", [(3, 30), (5, 30), (7, 20), (9, 20), (25, 5), (27, 5)])
def test_to_json_matches_encoder_on_random_generators(q, examples):
    field = get_field(q)
    members = {m.indices() for m in build_family(field)}
    element = st.integers(0, q - 1)
    valid = st.builds(
        lambda a, b, c, d: Mat2(field, a, b, c, d),
        element, st.integers(1, q - 1), element, element,
    ).filter(lambda m: bool(mat_det(m)) and m.indices() not in members)

    @settings(max_examples=examples, deadline=None)
    @given(valid)
    def check(c):
        _assert_text_matches_reference(c)

    check()


def test_grid_is_derived_from_c():
    doc = golden_document()
    with pytest.raises(AttributeError):
        doc.c = ((0, 1), (1, 1))
    with pytest.raises(TypeError):
        SquareDocument(doc.matrix, grid=GOLDEN_GRID_Q3)
    # each call builds a fresh grid, so changing one cannot reach the next
    doc.to_grid().rows[0][0] = 8
    assert doc.to_grid().rows == GOLDEN_GRID_Q3
    assert doc.to_grid() is not doc.to_grid()


def _count_builds(monkeypatch):
    calls = []
    original = moss.serialize.build_from_canonical

    def counted(c):
        calls.append(c)
        return original(c)

    monkeypatch.setattr(moss.serialize, "build_from_canonical", counted)
    return calls


def test_full_path_keeps_only_the_matrix(monkeypatch):
    """Non-canonical text (json.dumps spacing) takes the full path, which
    builds the grid once to validate it and keeps only the matrix, so each
    to_grid() builds a fresh grid."""
    calls = _count_builds(monkeypatch)
    doc = SquareDocument.from_json(json.dumps(json.loads(golden_document().to_json())))
    assert len(calls) == 1
    assert vars(doc) == {"matrix": doc.matrix}
    fast = SquareDocument.from_json(golden_document().to_json())
    assert vars(fast) == {"matrix": fast.matrix}
    assert len(calls) == 1
    first = doc.to_grid()
    assert len(calls) == 2
    second = doc.to_grid()
    assert len(calls) == 3
    assert first is not second
    assert first.rows == second.rows == GOLDEN_GRID_Q3


def test_canonical_text_builds_no_grid(monkeypatch):
    """Canonical text is accepted by comparison with to_json(), so from_json
    builds no grid and each to_grid() builds one."""
    calls = _count_builds(monkeypatch)
    doc = SquareDocument.from_json(golden_document().to_json())
    assert doc == golden_document()
    assert calls == []
    first = doc.to_grid()
    assert len(calls) == 1
    second = doc.to_grid()
    assert len(calls) == 2
    assert first is not second
    assert first.rows == second.rows == GOLDEN_GRID_Q3


def test_canonical_header_with_a_short_grid_renders_nothing(monkeypatch):
    """A canonical q = 127 header before a short grid fails the length guard,
    so the fast path never renders the 16129 x 16129 grid to compare."""
    def render(c, style="text"):
        raise AssertionError("a grid was rendered")

    monkeypatch.setattr(moss.serialize, "render_grid", render)
    data = {"q": 127, "p": 127, "k": 1, "modulus": list(get_field(127).modulus),
            "c": [[0, 1], [1, 1]], "grid": []}
    with pytest.raises(SchemaViolation) as exc_info:
        SquareDocument.from_json(json.dumps(data, separators=(",", ":")) + "\n")
    assert str(exc_info.value) == "grid: expected 16129 rows"


@lru_cache(maxsize=None)
def _family_texts(q):
    return tuple(SquareDocument.from_matrix(m).to_json() for m in build_family(get_field(q)))


CANONICAL_Q3 = _family_texts(3)[0]
JSON_CHARS = st.sampled_from('0123456789,:[]{}" \n\r\tx-.e')


@st.composite
def respelled_documents(draw):
    """(q, text): the canonical text of a family member or a random generator
    at q = 3, 5 or 9, or a mutant of it: a byte flipped, deleted or inserted
    (often in the header or at the end), the last byte dropped or one
    appended, CRLF line endings, json.dumps with its default separators,
    compact ones or an indent, with or without the final newline, or the
    keys reordered."""
    q = draw(st.sampled_from((3, 5, 9)))
    if draw(st.booleans()):
        text = draw(st.sampled_from(_family_texts(q)))
    else:
        field, element = get_field(q), st.integers(0, q - 1)
        c = draw(st.builds(lambda a, b, c, d: Mat2(field, a, b, c, d),
                           element, st.integers(1, q - 1), element, element)
                 .filter(lambda m: bool(mat_det(m))))
        text = SquareDocument.from_matrix(c).to_json()
    kind = draw(st.sampled_from(("canonical", "flip", "delete", "insert", "drop-last",
                                 "extra-last", "crlf", "dumps", "reorder")))
    at = draw(st.one_of(st.integers(0, len(text) - 1), st.integers(0, text.index('"grid"') + 8),
                        st.integers(len(text) - 3, len(text) - 1)))
    char = draw(JSON_CHARS | st.characters())
    data = json.loads(text)
    if kind == "flip":
        text = text[:at] + char + text[at + 1:]
    elif kind == "delete":
        text = text[:at] + text[at + 1:]
    elif kind == "insert":
        text = text[:at] + char + text[at:]
    elif kind == "drop-last":
        text = text[:-1]
    elif kind == "extra-last":
        text += char
    elif kind == "crlf":
        text = text.replace("\n", "\r\n")
    elif kind == "dumps":
        indent = draw(st.sampled_from((None, 0, 1, 2)))
        separators = draw(st.sampled_from((None, (",", ":"))))
        text = json.dumps(data, indent=indent, separators=separators)
        text += draw(st.sampled_from(("", "\n")))
    elif kind == "reorder":
        keys = draw(st.permutations(KEY_ORDER))
        text = json.dumps({key: data[key] for key in keys}, separators=(",", ":")) + "\n"
    return q, text


def _outcome(parse, text):
    try:
        return "document", parse(text).matrix
    except SchemaViolation as exc:
        return "violation", exc.path, str(exc)
    except Exception as exc:
        return "error", type(exc)


def _full_path(text):
    return SquareDocument._validate(json.loads(text, parse_float=_reject_float))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(case=respelled_documents())
@example(case=(3, CANONICAL_Q3))
@example(case=(3, CANONICAL_Q3[:-1] + "x"))
@example(case=(3, CANONICAL_Q3[:-1]))
@example(case=(3, CANONICAL_Q3 + "\n"))
@example(case=(3, CANONICAL_Q3 + "x"))
@example(case=(3, CANONICAL_Q3.replace("\n", "\r\n")))
def test_canonical_fast_path_matches_the_full_path(case):
    """from_json gives what parsing and validating the whole text gives: an
    equal matrix, the same violation (path and message) or the same error
    type.  It renders a grid to compare only for text that has a ',"grid":'
    part and at least q^4 characters, the floor of one per cell."""
    q, text = case
    renders = []
    render_grid = moss.serialize.render_grid

    def counted(c, style="text"):
        renders.append(c)
        return render_grid(c, style)

    with mock.patch.object(moss.serialize, "render_grid", counted):
        fast = _outcome(SquareDocument.from_json, text)
    assert fast == _outcome(_full_path, text)
    if renders:
        assert ',"grid":' in text and len(text) >= q ** 4
