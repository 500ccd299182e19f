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
n(n-1)/2 pairs.  C1 - C2 is singular iff C1 x = C2 x for some nonzero x,
and x can be scaled to one of the q + 1 directions (0, 1) and (1, s) of
GF(q)^2.  So each direction maps every matrix to its image C x, and two
matrices whose images coincide form a violating pair: O((q + 1) n) table
lookups instead of O(n^2) determinants.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations

from .gf import Field, FieldElement, FieldMismatch
from .planes import Mat2, is_valid_generator
from .sudoku import build_from_canonical, verify_orthogonal_bruteforce, verify_sudoku

DEFAULT_BRUTEFORCE_CAP = 9


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


@dataclass(slots=True, eq=False)
class Family:
    """An ordered family of generator matrices [[v, w], [w, lambda*w + v]]."""

    field: Field
    alpha: FieldElement
    lam: FieldElement
    matrices: list[Mat2]

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


@dataclass(slots=True)
class FamilyReport:
    """Verification outcome: empty violations means the family checks out."""

    mode: str
    size: int
    pairs: int
    violations: list[tuple[str, tuple[int, ...]]]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __repr__(self):
        state = "ok" if self.ok else f"{len(self.violations)} violations"
        return f"FamilyReport(mode={self.mode!r}, size={self.size}, pairs={self.pairs}, {state})"


def _orthogonality_violations(field: Field, matrices: list[Mat2]) -> list[tuple[int, int]]:
    """Pairs i < j with C_i - C_j singular, found direction by direction.

    Images C x are keyed q * first + second.  A nonzero singular difference
    has a one-dimensional kernel, so its pair collides in one direction only;
    identical matrices collide in all of them, hence the set.
    """
    q, n = field.q, len(matrices)
    add, mul = field.add_table, field.mul_table
    bad = set()
    for x1, x2 in [(0, 1)] + [(1, s) for s in range(q)]:
        m1, m2 = mul[x1], mul[x2]
        keys = [q * add[m1[m.a]][m2[m.b]] + add[m1[m.c]][m2[m.d]] for m in matrices]
        if len(set(keys)) == n:
            continue
        groups = defaultdict(list)
        for i, key in enumerate(keys):
            groups[key].append(i)
        for members in groups.values():
            bad.update(combinations(members, 2))
    return sorted(bad)


def verify_family(family: Family, mode: str = "fast") -> FamilyReport:
    """Check every member and every unordered pair of the family.

    Fast mode runs the determinant criteria only: each member must be a
    valid generator, and the pairs with det(C_i - C_j) = 0 are found by the
    direction scan in O((q + 1) n), not pair by pair.  Bruteforce mode also
    builds the grids of the valid members, verifies each sudoku property by
    inspection and each pair by full superimposition census; it is capped at
    q <= DEFAULT_BRUTEFORCE_CAP because its cost grows as q^4 per pair.  The mode,
    the cap and the members' fields (FieldMismatch unless each equals
    family.field) are checked before any work is done.
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
        grids = [(i, build_from_canonical(m)) for i, m in valid]
        violations.extend(("not_sudoku", (i,)) for i, grid in grids if not verify_sudoku(grid).ok)
        violations.extend(
            ("not_orthogonal_bruteforce", (i, j))
            for (i, a), (j, b) in combinations(grids, 2)
            if not verify_orthogonal_bruteforce(a, b)
        )

    violations.sort()
    return FamilyReport(mode, n, n * (n - 1) // 2, violations)
