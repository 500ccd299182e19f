"""moss: complete families of mutually orthogonal sudoku squares.

For every odd prime power q the library constructs q(q-1) pairwise
orthogonal sudoku squares of order q^2 (the maximum possible) by
representing each square as a 2x2 matrix over GF(q), and checks every
claim with independent brute-force verifiers at small scale.
"""

from .gf import (
    DEFAULT_MAX_ORDER,
    Field,
    FieldElement,
    FieldMismatch,
    GF,
    NoSquareRoot,
    NotOddPrime,
    OrderTooLarge,
)
from .planes import (
    Mat2,
    Plane,
    is_valid_generator,
    parse_mat2,
)
from .sudoku import (
    MalformedGrid,
    NotAGenerator,
    OrderMismatch,
    SudokuGrid,
    SudokuReport,
    build_from_canonical,
    coset_kernel,
    render_grid,
    verify_orthogonal_bruteforce,
    verify_sudoku,
)
from .family import (
    Family,
    FamilyReport,
    alpha_census,
    build_family,
    derive_lambda,
    find_alpha,
    verify_family,
)
from .serialize import SchemaViolation, SquareDocument

__version__ = "0.1.0"
