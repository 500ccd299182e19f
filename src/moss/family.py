"""Complete orthogonal families of sudoku generator matrices.

For odd q there is always a quadratic residue alpha whose successor
alpha + 1 is a non-residue.  Fixing lambda with lambda^2 = 4*alpha, the
q(q-1) matrices

    [[v, w],
     [w, lambda*w + v]]      for v in F, w in F*

are pairwise "difference-invertible": subtracting two distinct members
yields either another matrix of the same shape (w1 != w2) or a nonzero
diagonal matrix (w1 == w2), both invertible.  Each member is itself
invertible and non-lower-triangular, so the family generates q(q-1)
mutually orthogonal sudoku squares of order q^2, the maximum possible.
The residue search and build_family compute on the field's tables with
element indices; the search returns alpha and lambda as FieldElement
records, and the members are matrices of indices.  alpha_census lists
every qualifying alpha, roughly (q - 1)/4 of them; tests/oracles.py counts
them again by exhaustive squaring.

verify_family certifies any list of matrices without visiting its
n(n-1)/2 pairs, by one scan of the members' images in q + 1 directions,
which the paper's lambda certificate (_scan_directions) cuts to (0, 1)
when the list has the family's shape.  Bruteforce mode also checks the
grids with the one grid certifier of moss verify, sudoku.coset_kernel,
which shares nothing with the scan.  Each proof is at its function.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations

from .gf import Field, FieldElement, FieldMismatch, _Record
from .planes import Mat2, is_valid_generator

DEFAULT_BRUTEFORCE_CAP = 27


def alpha_census(field: Field) -> list[FieldElement]:
    """All elements that are squares while their successor is not, in index order."""
    add, is_square = field.add_table, field.is_square
    return [FieldElement(field, a) for a in range(field.q)
            if is_square(a) and not is_square(add[a][1])]


def find_alpha(field: Field) -> FieldElement:
    """Smallest-index square whose successor is a non-square.

    One exists for every odd q = p^k: the squares, 0 included, number
    (q + 1)/2, which p does not divide, so they are no union of cosets
    a + GF(p), and some square a has a non-square a + 1.
    """
    return alpha_census(field)[0]


def derive_lambda(field: Field, alpha: FieldElement) -> FieldElement:
    """The smaller-index root of lambda^2 = 4*alpha; nonzero for nonzero alpha."""
    if alpha.field != field:
        raise FieldMismatch(f"{alpha.field} vs {field}")
    a = alpha.index
    if not a or not field.is_square(a):
        raise ValueError("alpha must be a nonzero square")
    four = 4 % field.p  # the index of 4 = 1 + 1 + 1 + 1
    return FieldElement(field, field.sqrt(field.mul_table[four][a]))


class Family:
    """An ordered family of generator matrices [[v, w], [w, lambda*w + v]].

    Families compare by identity.
    """

    __slots__ = ("field", "alpha", "lam", "matrices")

    def __init__(self, field: Field, alpha: FieldElement, lam: FieldElement,
                 matrices: list[Mat2]):
        self.field, self.alpha, self.lam, self.matrices = field, alpha, lam, matrices

    @property
    def size(self) -> int:
        return len(self.matrices)

    def __iter__(self):
        return iter(self.matrices)

    def __repr__(self):
        return (f"Family({self.field!r}, alpha={self.alpha.index}, "
                f"lambda={self.lam.index}, size={self.size})")


def build_family(field: Field) -> Family:
    """The full family of q(q-1) generator matrices, deterministically ordered.

    v runs over the field and, inside, w over the nonzero elements, both in
    lexicographic order.
    """
    alpha = find_alpha(field)
    lam = derive_lambda(field, alpha)
    q, add, lam_times = field.q, field.add_table, field.mul_table[lam.index]
    matrices = [
        Mat2(field, v, w, w, add[lam_times[w]][v])
        for v in range(q)
        for w in range(1, q)
    ]
    return Family(field, alpha, lam, matrices)


class FamilyReport(_Record):
    """Verification outcome: empty violations means the family checks out.

    Reports compare by their fields and are unhashable.
    """

    __slots__ = _fields = ("mode", "size", "pairs", "violations")
    __hash__ = None

    def __init__(self, mode: str, size: int, pairs: int,
                 violations: list[tuple[str, tuple[int, ...]]]):
        self.mode, self.size, self.pairs, self.violations = mode, size, pairs, violations

    @property
    def ok(self) -> bool:
        return not self.violations

    def __repr__(self):
        state = "ok" if self.ok else f"{len(self.violations)} violations"
        return f"FamilyReport(mode={self.mode!r}, size={self.size}, pairs={self.pairs}, {state})"


def _scan_directions(field: Field, matrices: list[Mat2]) -> list[tuple[int, int]]:
    """The directions x whose images C x the pair scan compares.

    All q + 1 directions (0, 1) and (1, s), unless the paper's certificate
    holds.  It reads lambda = (d - a)/b off the first member with b != 0,
    never off Family.lam.  If lambda^2 + 4 is a non-square and every member
    is [[a, b], [b, lambda*b + a]], each difference has that shape too, with
    determinant da^2 + lambda*da*db - db^2, a form of discriminant
    lambda^2 + 4, which vanishes only at 0: only equal members collide, and
    the image (b, lambda*b + a) of (0, 1) alone fixes (a, b).
    """
    add, mul, sub = field.add_table, field.mul_table, field.sub_table
    first = next((m for m in matrices if m.b), None)
    if first is not None:
        lam = mul[sub[first.d][first.a]][field.inv_table[first.b]]
        lam_times = mul[lam]
        if (not field.is_square(add[lam_times[lam]][4 % field.p])
                and all(m.c == m.b and m.d == add[lam_times[m.b]][m.a] for m in matrices)):
            return [(0, 1)]
    return [(0, 1)] + [(1, s) for s in range(field.q)]


def _orthogonality_violations(field: Field, matrices: list[Mat2]) -> list[tuple[int, int]]:
    """Pairs i < j with C_i - C_j singular, sorted, found direction by direction.

    C_i - C_j is singular iff C_i x = C_j x for some nonzero x, which scales
    to one of the directions (0, 1), (1, s) of GF(q)^2: the pairs are those
    whose images C x (keyed q * first + second) coincide in a direction of
    _scan_directions, in O(n) lookups per direction, not O(n^2) determinants.
    A nonzero singular difference has a one-dimensional kernel, so its pair
    collides in one direction only; identical matrices in all, hence the set.
    """
    q, add, mul = field.q, field.add_table, field.mul_table
    bad = set()
    for x1, x2 in _scan_directions(field, matrices):
        m1, m2 = mul[x1], mul[x2]
        keys = [q * add[m1[m.a]][m2[m.b]] + add[m1[m.c]][m2[m.d]] for m in matrices]
        if len(set(keys)) < len(keys):
            groups = defaultdict(list)
            for i, key in enumerate(keys):
                groups[key].append(i)
            bad.update(pair for members in groups.values() for pair in combinations(members, 2))
    return sorted(bad)


def verify_family(family: Family, mode: str = "fast") -> FamilyReport:
    """Check every member and every unordered pair of the family.

    Fast mode runs the determinant criteria only: each member must be a
    valid generator, and the pairs with det(C_i - C_j) = 0 are found without
    visiting pairs, by one scan of the members' images C x: in the one
    direction (0, 1), in O(n), when the lambda certificate holds (the
    members are [[a, b], [b, lambda*b + a]] for one lambda with
    lambda^2 + 4 a non-square, read off the list, as every build_family
    output is), else in all q + 1 directions, in O((q + 1) n).
    Bruteforce mode also certifies each valid member's grid with the grid
    certifier of moss verify, sudoku.coset_kernel, which gives a sudoku
    square's row map or None (not_sudoku), and every pair of the certified
    ones by their row maps (sudoku.non_orthogonal_pairs); it is capped at q <=
    DEFAULT_BRUTEFORCE_CAP, as each grid has q^4 cells.  The mode, the cap
    and the members' fields (FieldMismatch unless each equals family.field)
    are checked before any work is done.
    """
    if mode not in ("fast", "bruteforce"):
        raise ValueError(f"unknown mode {mode!r}")
    field = family.field
    if mode == "bruteforce" and field.q > DEFAULT_BRUTEFORCE_CAP:
        raise ValueError(f"bruteforce verification capped at q <= {DEFAULT_BRUTEFORCE_CAP}, "
                         f"got q = {field.q}")
    matrices = family.matrices
    for i, m in enumerate(matrices):
        if m.field is not field and m.field != field:
            raise FieldMismatch(f"member {i} lies in {m.field!r}, not in the family's {field!r}")
    n = len(matrices)
    violations: list[tuple[str, tuple[int, ...]]] = []

    valid = []
    for i, m in enumerate(matrices):
        if is_valid_generator(m):
            valid.append((i, m))
        else:
            violations.append(("invalid_generator", (i,)))
    violations.extend(
        ("not_orthogonal", pair)
        for pair in _orthogonality_violations(field, matrices)
    )

    if mode == "bruteforce":
        # imported on first use, so that fast mode never loads the grid module
        from .sudoku import build_from_canonical, coset_kernel, non_orthogonal_pairs

        certified = []
        for i, m in valid:
            kernel = coset_kernel(build_from_canonical(m))
            if kernel is None:
                violations.append(("not_sudoku", (i,)))
            else:
                certified.append((i, kernel))
        violations.extend(("not_orthogonal_bruteforce", (certified[a][0], certified[b][0]))
                          for a, b in non_orthogonal_pairs([kernel for _, kernel in certified]))

    violations.sort()
    return FamilyReport(mode, n, n * (n - 1) // 2, violations)
