"""moss: complete families of mutually orthogonal sudoku squares.

For every odd prime power q the library constructs q(q-1) pairwise
orthogonal sudoku squares of order q^2 (the maximum possible) by
representing each square as a 2x2 matrix over GF(q), and checks every
claim with independent brute-force verifiers at small scale.

The namespace is lazy (PEP 562): `import moss` imports no submodule, and
each public name imports the module that defines it on the name's first
read, so a process pays only for the modules it uses.  moss.X is read from
its module on every access, never stored here, so it is always the
module's current binding.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "gf": ("DEFAULT_MAX_ORDER", "Field", "FieldElement", "FieldMismatch", "GF",
           "NoSquareRoot", "NotOddPrime", "OrderTooLarge"),
    "planes": ("Mat2", "Plane", "is_valid_generator", "parse_mat2"),
    "sudoku": ("MalformedGrid", "NotAGenerator", "OrderMismatch", "SudokuGrid", "SudokuReport",
               "build_from_canonical", "coset_kernel", "render_grid",
               "verify_orthogonal_bruteforce", "verify_sudoku"),
    "family": ("Family", "FamilyReport", "alpha_census", "build_family", "derive_lambda",
               "find_alpha", "verify_family"),
    "serialize": ("SchemaViolation", "SquareDocument"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _MODULE_OF:
        # with a fromlist, __import__ returns the submodule itself
        return getattr(__import__(f"{__name__}.{_MODULE_OF[name]}", fromlist=[name]), name)
    if name in _EXPORTS:  # a submodule not yet imported
        return __import__(f"{__name__}.{name}", fromlist=["_"])
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
