"""What a moss process imports, and the lazy package namespace that keeps it
small: `import moss` loads no module, and each public name loads its own
module on first use, read there on every access."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import moss

ROOT = Path(__file__).resolve().parents[1]

# The names that moss/__init__.py imported eagerly, by module.
EXPORTS = {
    "gf": ["DEFAULT_MAX_ORDER", "Field", "FieldElement", "FieldMismatch", "GF",
           "NoSquareRoot", "NotOddPrime", "OrderTooLarge"],
    "planes": ["Mat2", "Plane", "is_valid_generator", "parse_mat2"],
    "sudoku": ["MalformedGrid", "NotAGenerator", "OrderMismatch", "SudokuGrid", "SudokuReport",
               "build_from_canonical", "coset_kernel", "render_grid",
               "verify_orthogonal_bruteforce", "verify_sudoku"],
    "family": ["Family", "FamilyReport", "alpha_census", "build_family", "derive_lambda",
               "find_alpha", "verify_family"],
    "serialize": ["SchemaViolation", "SquareDocument"],
}


def _loaded(code: str) -> set[str]:
    """The modules in sys.modules after code runs in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint(*sys.modules)"],
        capture_output=True, text=True, env=env, check=True)
    return set(run.stdout.split())


def test_cli_imports_no_dataclasses_or_inspect():
    loaded = _loaded("import moss.cli")
    assert "moss.cli" in loaded
    assert not {"dataclasses", "inspect"} & loaded


def test_fast_library_path_imports_no_grid_or_json_module():
    """A fast verify_family needs gf, planes and family alone; bruteforce
    mode loads sudoku on its first call."""
    fast = ("from moss import GF, build_family, verify_family\n"
            "assert verify_family(build_family(GF(9)), 'fast').ok\n")
    loaded = _loaded(fast)
    assert {"moss.gf", "moss.planes", "moss.family"} <= loaded
    assert not {"moss.sudoku", "moss.serialize", "json", "dataclasses", "inspect"} & loaded
    brute = fast + ("import sys\nassert 'moss.sudoku' not in sys.modules\n"
                    "assert verify_family(build_family(GF(9)), 'bruteforce').ok\n")
    loaded = _loaded(brute)
    assert "moss.sudoku" in loaded
    assert not {"moss.serialize", "json"} & loaded


def test_every_public_name_is_its_module_binding():
    names = [name for names in EXPORTS.values() for name in names]
    assert sorted(moss.__all__) == sorted(names)
    assert set(names) <= set(dir(moss))
    for module, exported in EXPORTS.items():
        home = importlib.import_module(f"moss.{module}")
        for name in exported:
            assert getattr(moss, name) is getattr(home, name), name
    star = {}
    exec("from moss import *", star)
    assert set(star) - {"__builtins__"} == set(names)
    assert moss.__version__ == "0.1.0"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        moss.nope


def test_a_submodule_is_an_attribute_before_it_is_imported():
    loaded = _loaded("import moss\nassert moss.sudoku.coset_kernel is moss.coset_kernel")
    assert "moss.sudoku" in loaded and "moss.serialize" not in loaded
