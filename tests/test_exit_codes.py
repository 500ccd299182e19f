"""The exit-code contract on mutated documents: whatever the bytes of a file,
main returns 0, 1 or 2 for verify and 0 or 2 for render, and no exception
escapes it."""

import json
import re
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache
from io import StringIO
from pathlib import Path
from tempfile import TemporaryDirectory

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moss.cli import main
from moss.family import build_family
from moss.serialize import KEY_ORDER, SquareDocument
from oracles import all_valid_generators, get_field, reference_document_json

DOCS = tuple(SquareDocument.from_matrix(build_family(get_field(q)).matrices[i]).to_json()
             for q, i in ((3, 0), (3, 4), (5, 7)))
DEEP = 200_000
DEEP_TEXT = b"[" * DEEP + b"]" * DEEP


def _nest_cell(text: bytes, depth: int, nth: int = 0) -> bytes:
    """text with the nth grid cell wrapped in depth pairs of brackets."""
    start = text.index(b'"grid":')
    cell = list(re.finditer(rb"\d+", text[start:]))[nth]
    i, j = start + cell.start(), start + cell.end()
    return text[:i] + b"[" * depth + text[i:j] + b"]" * depth + text[j:]


DEEP_CELL_TEXT = _nest_cell(DOCS[0].encode(), 1_000)


@st.composite
def mutated_documents(draw):
    """(original text, mutated bytes) for one of DOCS: a mutant, a valid
    respelling (indent, spaces, reordered keys, no final newline) that
    verify must accept, or the canonical document of another valid
    generator over the same field, which verify must accept too."""
    original = draw(st.sampled_from(DOCS))
    text = original.encode()
    kind = draw(st.sampled_from(("flip", "truncate", "insert", "duplicate-key", "reorder",
                                 "respell", "whitespace", "nest-cell", "nest-all", "long-int",
                                 "other-square")))
    if kind == "flip":
        i = draw(st.integers(0, len(text) - 1))
        text = text[:i] + bytes([draw(st.integers(0, 255))]) + text[i + 1:]
    elif kind == "truncate":
        text = text[:draw(st.integers(0, len(text) - 1))]
    elif kind == "insert":
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.binary(min_size=1, max_size=8)) + text[i:]
    elif kind == "duplicate-key":
        key = draw(st.sampled_from(KEY_ORDER))
        value = draw(st.one_of(st.just(json.loads(original)[key]), st.integers(-1, 30),
                               st.booleans()))
        pair = b'"%s":%s' % (key.encode(), json.dumps(value).encode())
        text = (b"{" + pair + b"," + text[1:] if draw(st.booleans())
                else text[:-2] + b"," + pair + b"}\n")
    elif kind == "reorder":
        data = json.loads(original)
        keys = draw(st.permutations(list(data)))
        text = json.dumps({key: data[key] for key in keys}).encode()
    elif kind == "respell":  # valid, not canonical: from_json takes the full path
        data = json.loads(original)
        keys = draw(st.permutations(list(data)))
        indent = draw(st.sampled_from((None, 0, 2)))
        separators = draw(st.sampled_from((None, (",", ":"), (" , ", " : "))))
        text = json.dumps({key: data[key] for key in keys}, indent=indent,
                          separators=separators).encode()
        text += draw(st.sampled_from((b"", b"\n", b" \r\n")))
    elif kind == "whitespace":
        i = draw(st.sampled_from([m.end() for m in re.finditer(rb"[{\[,:]", text)]))
        text = text[:i] + draw(st.text(" \t\n\r", min_size=1, max_size=4)).encode() + text[i:]
    elif kind == "nest-cell":  # every grid has at least 81 cells
        text = _nest_cell(text, draw(st.integers(10, DEEP)), draw(st.integers(0, 80)))
    elif kind == "nest-all":
        depth = draw(st.integers(10, DEEP))
        text = b"[" * depth + text + b"]" * depth
    elif kind == "other-square":
        data = json.loads(original)
        c = draw(st.sampled_from([c for c in _generators(data["q"])
                                  if [[c.a, c.b], [c.c, c.d]] != data["c"]]))
        text = reference_document_json(c).encode()
    else:
        m = draw(st.sampled_from(list(re.finditer(rb"\d+", text))))
        text = text[:m.start()] + b"9" * 5_000 + text[m.end():]
    return original, text


def _same(a, b) -> bool:
    """Equal JSON values with the same type at every position (True != 1)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[key], b[key]) for key in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


def _unique_keys(pairs):
    if len({key for key, _ in pairs}) < len(pairs):
        raise ValueError("duplicate key")
    return dict(pairs)


@lru_cache(maxsize=None)
def _generators(q):
    return all_valid_generators(get_field(q))


def _names_a_document(text: bytes, original: str) -> bool:
    """Whether text parses, with no key twice in an object, to the JSON value
    of reference_document_json(c) for a valid generator c over the
    original's field, its own c.  Every monic x + a is irreducible, and on a
    prime field (k = 1) it changes no element's index, so the modulus
    [1, a] may name any a in [0, p)."""
    try:
        data = json.loads(text.decode("utf-8"), object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError):
        return False
    expected = json.loads(original)
    assert expected["k"] == 1
    own = [c for c in _generators(expected["q"])
           if isinstance(data, dict) and _same(data.get("c"), [[c.a, c.b], [c.c, c.d]])]
    return any(_same(data, dict(json.loads(reference_document_json(c)), modulus=[1, a]))
               for c in own for a in range(expected["p"]))


def _run(argv):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, max_examples=120, deadline=None)
@given(case=mutated_documents())
@example(case=(DOCS[0], DEEP_TEXT))
@example(case=(DOCS[0], DEEP_CELL_TEXT))
@example(case=(DOCS[1], DOCS[1].encode()))
@example(case=(DOCS[0], DOCS[1].encode()))
@example(case=(DOCS[1], DOCS[1].encode()[:-1]))
@example(case=(DOCS[2], json.dumps(json.loads(DOCS[2]), indent=2).encode()))
def test_mutated_documents_keep_the_exit_code_contract(case):
    original, text = case
    with TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "square.json")
        Path(path).write_bytes(text)
        code, out, err = _run(["verify", "--files", path])
        assert code in (0, 1, 2)
        assert (code == 0) == _names_a_document(text, original)
        if code == 1:
            assert out.startswith(f"FAIL {path}: ") and not err
        if code == 2:
            assert err.startswith("error: ")
        rendered, out, err = _run(["render", "--file", path])
        assert rendered in (0, 2)
        assert (rendered == 0) == (code == 0)
        if rendered == 2:
            assert err.startswith("error: ") and not out


@pytest.mark.parametrize("text", [DEEP_TEXT, DEEP_CELL_TEXT], ids=["200000-deep", "cell-1000-deep"])
def test_deep_nesting_is_a_schema_violation(text, tmp_path):
    """json.loads raises RecursionError on such text; from_json reports it as
    a violation at "$", so verify prints a FAIL line and render an error."""
    path = tmp_path / "deep.json"
    path.write_bytes(text)
    code, out, err = _run(["verify", "--files", str(path)])
    assert (code, err) == (1, "")
    assert out.startswith(f"FAIL {path}: $: ")
    assert out.endswith("0 squares ok, 0 pairs checked, 1 failures\n")
    code, out, err = _run(["render", "--file", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: $: ")
