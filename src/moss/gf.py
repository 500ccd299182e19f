"""Finite fields GF(p^k) of odd characteristic.

Elements are length-k coefficient vectors over Z_p, most significant
coefficient first, and the package handles them as plain int indices: the
index of an element is the base-p value of its coefficient tuple.
Enumerating elements by index therefore walks them in increasing
lexicographic order with 0 < 1 < ... < p-1, and the integer n embedded as
n times 1 has index n mod p.

A field is constructed from (p, k) and reduces modulo the lexicographically
smallest monic irreducible polynomial of degree k, so two fields built from
the same parameters are always identical.  The add, sub, mul, neg and inv
tables, and the root table from each square (0 included) to its square
root of smallest index, are precomputed at construction (the order cap
keeps them small), so element arithmetic is a pair of list lookups and
squareness or a square root one dict lookup.  The coefficient vector of
index i is _coeffs[i].  FieldElement is only the read-only
(field, index) record that the residue search returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

DEFAULT_MAX_ORDER = 128


class NotOddPrime(ValueError):
    """The requested characteristic is 2 or not prime."""


class DegreeTooSmall(ValueError):
    """The requested extension degree is below 1."""


class OrderTooLarge(ValueError):
    """The requested field order exceeds the cap DEFAULT_MAX_ORDER."""


class NoSquareRoot(ArithmeticError, ValueError):
    """The element is not a square in its field."""


class FieldMismatch(ValueError):
    """Operands belong to different fields."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def factor_prime_power(q: int) -> tuple[int, int]:
    """Split q into (p, k) with p prime and p**k == q.

    Raises ValueError when q is not a prime power.
    """
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    p = 2
    while p * p <= q and q % p != 0:
        p += 1
    if q % p != 0:
        p = q
    n, k = q, 0
    while n % p == 0:
        n //= p
        k += 1
    if n != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, k


# Polynomials over Z_p as coefficient tuples, most significant first.

def _poly_mul(p: int, f: Sequence[int], g: Sequence[int]) -> list[int]:
    out = [0] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        if fi:
            for j, gj in enumerate(g):
                out[i + j] = (out[i + j] + fi * gj) % p
    return out


def _poly_mod(p: int, f: Sequence[int], modulus: Sequence[int]) -> list[int]:
    """Remainder of f modulo a monic polynomial, as a full-width tail."""
    k = len(modulus) - 1
    work = list(f)
    for i in range(len(work) - k):
        c = work[i]
        if c:
            for j, mj in enumerate(modulus):
                work[i + j] = (work[i + j] - c * mj) % p
    return work[-k:] if k else []


def _monic_polys(p: int, degree: int) -> Iterable[tuple[int, ...]]:
    for tail in product(range(p), repeat=degree):
        yield (1,) + tail


def _is_irreducible(p: int, poly: Sequence[int]) -> bool:
    degree = len(poly) - 1
    if degree < 1:
        return False
    for d in range(1, degree // 2 + 1):
        for divisor in _monic_polys(p, d):
            if not any(_poly_mod(p, poly, divisor)):
                return False
    return True


def _smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    for poly in _monic_polys(p, k):
        if _is_irreducible(p, poly):
            return poly
    raise AssertionError(f"no monic irreducible of degree {k} over Z_{p}")


def _index(field: Field, i: int) -> int:
    """i itself, after checking that it is an element index of the field."""
    if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i < field.q:
        raise IndexError(f"element index must lie in [0, {field.q}), got {i!r}")
    return i


@dataclass(frozen=True, slots=True)
class FieldElement:
    """A read-only (field, index) record, returned by the residue search.

    It has no arithmetic: compute on the field's tables with its index.
    """

    field: Field
    index: int

    def __repr__(self):
        return f"{self.field!r}({self.index})"


@dataclass(init=False, repr=False, unsafe_hash=True)
class Field:
    """GF(p^k) for an odd prime p, with precomputed arithmetic tables.

    Two fields are equal, and hash alike, when p, k and modulus agree; the
    tables are functions of those three.
    """

    p: int
    k: int
    modulus: tuple[int, ...]

    def __init__(self, p: int, k: int = 1, modulus: Sequence[int] | None = None):
        # The cap is checked before any work that grows with p or k: p is
        # tested for primality only below the cap, and p ** k is taken only
        # for k below the cap's bit length (p >= 3, so p ** k > 2 ** k).
        if not isinstance(p, int) or isinstance(p, bool):
            raise NotOddPrime(f"characteristic must be an odd prime, got {p!r}")
        if p > DEFAULT_MAX_ORDER:
            raise OrderTooLarge(f"characteristic {p} exceeds cap {DEFAULT_MAX_ORDER}")
        if not is_prime(p) or p == 2:
            raise NotOddPrime(f"characteristic must be an odd prime, got {p}")
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise DegreeTooSmall(f"extension degree must be >= 1, got {k}")
        if k >= DEFAULT_MAX_ORDER.bit_length() or p ** k > DEFAULT_MAX_ORDER:
            raise OrderTooLarge(f"order {p}^{k} exceeds cap {DEFAULT_MAX_ORDER}")
        q = p ** k
        self.p = p
        self.k = k
        self.q = q
        if modulus is None:
            self.modulus = _smallest_irreducible(p, k)
        else:
            try:
                self.modulus = tuple(modulus)
            except TypeError:
                raise ValueError(f"modulus must be a sequence of ints, got {modulus!r}") from None
            self._check_modulus()
        self._coeffs = tuple(product(range(p), repeat=k))
        self._build_tables()

    def _check_modulus(self):
        m = self.modulus
        if not all(isinstance(c, int) and not isinstance(c, bool) for c in m):
            raise ValueError(f"modulus coefficients must be ints, got {m!r}")
        if len(m) != self.k + 1:
            raise ValueError(f"modulus must have degree {self.k}")
        if m[0] != 1:
            raise ValueError("modulus must be monic")
        if any(c < 0 or c >= self.p for c in m):
            raise ValueError(f"modulus coefficients must lie in [0, {self.p})")
        if not _is_irreducible(self.p, m):
            raise ValueError(f"modulus {m} is reducible over Z_{self.p}")

    def _build_tables(self):
        p, k, q = self.p, self.k, self.q
        coeffs = self._coeffs
        weights = [p ** (k - 1 - i) for i in range(k)]

        def idx(cs):
            return sum(c * w for c, w in zip(cs, weights))

        self.add_table = [
            [idx([(a + b) % p for a, b in zip(ca, cb)]) for cb in coeffs]
            for ca in coeffs
        ]
        self.mul_table = [
            [idx(_poly_mod(p, _poly_mul(p, ca, cb), self.modulus)) for cb in coeffs]
            for ca in coeffs
        ]
        self.neg_table = [idx([(-c) % p for c in cs]) for cs in coeffs]
        self.sub_table = [
            [row[j] for j in self.neg_table] for row in self.add_table
        ]
        self.inv_table: list[int | None] = [None] * q
        for i in range(1, q):
            if self.inv_table[i] is None:
                row = self.mul_table[i]
                j = row.index(1)
                self.inv_table[i] = j
                self.inv_table[j] = i
        # Roots are written largest first, so each square keeps its smallest.
        self.root_table = {self.mul_table[i][i]: i for i in reversed(range(q))}

    # -- quadratic residues ----------------------------------------------------

    def is_square(self, a: int) -> bool:
        """True iff element a has a square root; zero counts as a square.

        Raises IndexError unless a is an element index in [0, q).
        """
        return _index(self, a) in self.root_table

    def sqrt(self, a: int) -> int:
        """Square root of a of smallest index, read from the root table.

        Raises IndexError unless a is an element index in [0, q), and
        NoSquareRoot when a is a non-residue.
        """
        try:
            return self.root_table[_index(self, a)]
        except KeyError:
            raise NoSquareRoot(f"element {a} of {self!r} is not a square") from None

    def __repr__(self):
        return f"GF({self.q})"


def GF(q: int) -> Field:
    """Field of order q, with q an odd prime power.

    An order above the cap is rejected before q is factored, since trial
    division costs O(sqrt(q)).
    """
    if q > DEFAULT_MAX_ORDER:
        raise OrderTooLarge(f"order {q} exceeds cap {DEFAULT_MAX_ORDER}")
    try:
        p, k = factor_prime_power(q)
    except ValueError:
        raise NotOddPrime(f"{q} is not an odd prime power") from None
    return Field(p, k)
