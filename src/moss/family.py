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
n(n-1)/2 pairs.  It runs the paper's own argument first: the members
vI + wJ, J = [[0, 1], [1, lambda]], lie in the plane V = span(I, J), and
det(vI + wJ) = v^2 + lambda*v*w - w^2 has the non-square discriminant
lambda^2 + 4 = 4(alpha + 1), so C1 - C2, in V, is singular iff C1 = C2.
The lambda certificate reads lambda off the list itself, never off
Family.lam, and tests the discriminant and every member's shape.  Any
other list goes to the direction scan: C1 - C2 is singular iff
C1 x = C2 x for some nonzero x, and x can be scaled to one of the q + 1
directions (0, 1) and (1, s) of GF(q)^2.  So each direction maps every
matrix to its image C x, and two matrices whose images coincide form a
violating pair: O((q + 1) n) table lookups instead of O(n^2)
determinants.  Bruteforce mode checks the grids themselves, with the one
grid certifier of moss verify, sudoku.coset_kernel, which shares nothing
with this.
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

    Existence is guaranteed for every odd prime power order.
    """
    census = alpha_census(field)
    if not census:
        raise AssertionError(f"{field} has no square with non-square successor")
    return census[0]


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

    def __len__(self):
        return len(self.matrices)

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


def _equal_key_pairs(keys: list[int]) -> list[tuple[int, int]]:
    """The pairs i < j with keys[i] == keys[j], grouped by key."""
    if len(set(keys)) == len(keys):
        return []
    groups = defaultdict(list)
    for i, key in enumerate(keys):
        groups[key].append(i)
    return [pair for members in groups.values() for pair in combinations(members, 2)]


def _orthogonality_violations(field: Field, matrices: list[Mat2]) -> list[tuple[int, int]]:
    """Pairs i < j with C_i - C_j singular, sorted.

    The paper's certificate reads lambda = (d - a)/b off the first member
    with b != 0.  If lambda^2 + 4 is a non-square and every member is
    [[a, b], [b, lambda*b + a]], each difference has that shape too, with
    determinant da^2 + lambda*da*db - db^2, which vanishes only at 0: the
    pairs are those of equal (a, b).  Any other list goes to the direction
    scan.
    """
    q, add, mul, sub = field.q, field.add_table, field.mul_table, field.sub_table
    first = next((m for m in matrices if m.b), None)
    if first is not None:
        lam = mul[sub[first.d][first.a]][field.inv_table[first.b]]
        lam_times = mul[lam]
        if (not field.is_square(add[lam_times[lam]][4 % field.p])
                and all(m.c == m.b and m.d == add[lam_times[m.b]][m.a] for m in matrices)):
            return sorted(_equal_key_pairs([q * m.a + m.b for m in matrices]))
    return _direction_scan(field, matrices)


def _direction_scan(field: Field, matrices: list[Mat2]) -> list[tuple[int, int]]:
    """Pairs i < j with C_i - C_j singular, found direction by direction.

    Images C x are keyed q * first + second.  A nonzero singular difference
    has a one-dimensional kernel, so its pair collides in one direction only;
    identical matrices collide in all of them, hence the set.
    """
    q = field.q
    add, mul = field.add_table, field.mul_table
    bad = set()
    for x1, x2 in [(0, 1)] + [(1, s) for s in range(q)]:
        m1, m2 = mul[x1], mul[x2]
        bad.update(_equal_key_pairs(
            [q * add[m1[m.a]][m2[m.b]] + add[m1[m.c]][m2[m.d]] for m in matrices]))
    return sorted(bad)


def verify_family(family: Family, mode: str = "fast") -> FamilyReport:
    """Check every member and every unordered pair of the family.

    Fast mode runs the determinant criteria only: each member must be a
    valid generator, and the pairs with det(C_i - C_j) = 0 are found without
    visiting pairs: by the lambda certificate in O(n) when the members are
    [[a, b], [b, lambda*b + a]] for one lambda with lambda^2 + 4 a
    non-square, read off the list (as every build_family output is), else
    by the direction scan in O((q + 1) n).
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
