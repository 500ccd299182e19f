"""The package's surface: the README's example, the names the benchmark
reads, and the plane specification that lives in oracles.py instead."""

import contextlib
import importlib
import io
import re
from pathlib import Path

from moss.gf import GF, FieldElement
from moss.family import derive_lambda, find_alpha
from moss.planes import Mat2
from moss.sudoku import SudokuGrid

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
    setup run prints alpha and lambda through FieldElement.index."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    child, spans = importlib.import_module("child"), importlib.import_module("spans")
    tracer = spans.Tracer("t", "0")
    try:
        tracer.install()
        assert child.main(["setup", "9"]) == 0
    finally:
        tracer.uninstall()
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
