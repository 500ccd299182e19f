"""Finite fields GF(p^k) of odd characteristic.

Elements are length-k coefficient vectors over Z_p, most significant
coefficient first, so the integer index of an element is simply the base-p
value of its coefficient tuple.  Enumerating elements by index therefore
walks them in increasing lexicographic order with 0 < 1 < ... < p-1.

A field is constructed from (p, k) and reduces modulo the lexicographically
smallest monic irreducible polynomial of degree k, so two fields built from
the same parameters are always identical.  Addition and multiplication
tables are precomputed at construction (the order cap keeps them small),
which makes element arithmetic a pair of list lookups.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Sequence

DEFAULT_MAX_ORDER = 128


class NotOddPrime(ValueError):
    """The requested characteristic is 2 or not prime."""


class DegreeTooSmall(ValueError):
    """The requested extension degree is below 1."""


class OrderTooLarge(ValueError):
    """The requested field order exceeds the configured cap."""


class NoSquareRoot(ArithmeticError):
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


class FieldElement:
    """An element of a Field, identified by its lexicographic index."""

    __slots__ = ("field", "index")

    def __init__(self, field: "Field", index: int):
        self.field = field
        self.index = index

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.field._coeffs[self.index]

    def _idx_of(self, other) -> int:
        if not isinstance(other, FieldElement):
            raise TypeError(f"expected a field element, got {other!r}")
        if other.field != self.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")
        return other.index

    def __add__(self, other):
        return FieldElement(self.field, self.field.add_table[self.index][self._idx_of(other)])

    def __sub__(self, other):
        j = self.field.neg_table[self._idx_of(other)]
        return FieldElement(self.field, self.field.add_table[self.index][j])

    def __neg__(self):
        return FieldElement(self.field, self.field.neg_table[self.index])

    def __mul__(self, other):
        return FieldElement(self.field, self.field.mul_table[self.index][self._idx_of(other)])

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return FieldElement(self.field, self.field._pow_idx(self.index, exponent))

    def __truediv__(self, other):
        return self * FieldElement(self.field, self._idx_of(other)).inverse()

    def inverse(self) -> "FieldElement":
        inv = self.field.inv_table[self.index]
        if inv is None:
            raise ZeroDivisionError("inverse of zero")
        return FieldElement(self.field, inv)

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and self.index == other.index
            and self.field == other.field
        )

    def __hash__(self):
        return hash((self.index, self.field))

    def __bool__(self):
        return self.index != 0

    def __int__(self):
        return self.index

    def __repr__(self):
        return f"{self.field!r}({self.index})"


class Field:
    """GF(p^k) for an odd prime p, with precomputed arithmetic tables."""

    def __init__(self, p: int, k: int = 1, modulus: Sequence[int] | None = None,
                 max_order: int = DEFAULT_MAX_ORDER):
        # The cap is checked before any work that grows with p or k: p is
        # tested for primality only below the cap, and p ** k is taken only
        # for k below the cap's bit length (p >= 3, so p ** k > 2 ** k).
        if p > max_order:
            raise OrderTooLarge(f"characteristic {p} exceeds cap {max_order}")
        if not is_prime(p) or p == 2:
            raise NotOddPrime(f"characteristic must be an odd prime, got {p}")
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise DegreeTooSmall(f"extension degree must be >= 1, got {k}")
        if k >= max_order.bit_length() or p ** k > max_order:
            raise OrderTooLarge(f"order {p}^{k} exceeds cap {max_order}")
        q = p ** k
        self.p = p
        self.k = k
        self.q = q
        if modulus is None:
            self.modulus = _smallest_irreducible(p, k)
        else:
            self.modulus = tuple(int(c) for c in modulus)
            self._check_modulus()
        self._coeffs = tuple(product(range(p), repeat=k))
        self._build_tables()

    def _check_modulus(self):
        m = self.modulus
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

    def _pow_idx(self, base: int, exponent: int) -> int:
        result, acc = 1, base
        e = exponent
        while e:
            if e & 1:
                result = self.mul_table[result][acc]
            acc = self.mul_table[acc][acc]
            e >>= 1
        return result

    # -- element construction -------------------------------------------------

    def from_index(self, index: int) -> FieldElement:
        if not isinstance(index, int) or isinstance(index, bool) or not 0 <= index < self.q:
            raise IndexError(f"element index must lie in [0, {self.q}), got {index!r}")
        return FieldElement(self, index)

    def element(self, coeffs: Sequence[int]) -> FieldElement:
        cs = tuple(int(c) for c in coeffs)
        if len(cs) != self.k or any(c < 0 or c >= self.p for c in cs):
            raise ValueError(f"need {self.k} coefficients in [0, {self.p}), got {coeffs!r}")
        weights = [self.p ** (self.k - 1 - i) for i in range(self.k)]
        return FieldElement(self, sum(c * w for c, w in zip(cs, weights)))

    def const(self, n: int) -> FieldElement:
        """The integer n embedded as a constant, i.e. n times the identity."""
        return FieldElement(self, n % self.p)

    def __call__(self, value) -> FieldElement:
        if isinstance(value, FieldElement):
            if value.field != self:
                raise FieldMismatch(f"{self} vs {value.field}")
            return value
        if isinstance(value, int):
            return self.from_index(value)
        return self.element(value)

    def elements(self) -> tuple[FieldElement, ...]:
        """All q elements in increasing lexicographic (= index) order."""
        return tuple(FieldElement(self, i) for i in range(self.q))

    @property
    def zero(self) -> FieldElement:
        return FieldElement(self, 0)

    @property
    def one(self) -> FieldElement:
        return FieldElement(self, 1)

    # -- quadratic residues ----------------------------------------------------

    def is_square(self, a: FieldElement) -> bool:
        """True iff a has a square root; zero counts as a square."""
        a = self(a)
        if a.index == 0:
            return True
        return self._pow_idx(a.index, (self.q - 1) // 2) == 1

    def sqrt(self, a: FieldElement) -> FieldElement:
        """Square root of smallest index, by exhaustive search.

        Raises NoSquareRoot when a is a non-residue.
        """
        a = self(a)
        for i in range(self.q):
            if self.mul_table[i][i] == a.index:
                return FieldElement(self, i)
        raise NoSquareRoot(f"{a!r} is not a square")

    def element_index(self, a: FieldElement) -> int:
        return self(a).index

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and self.p == other.p
            and self.k == other.k
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        return f"GF({self.q})"


def GF(q: int, max_order: int = DEFAULT_MAX_ORDER) -> Field:
    """Field of order q, with q an odd prime power.

    An order above the cap is rejected before q is factored, since trial
    division costs O(sqrt(q)).
    """
    if q > max_order:
        raise OrderTooLarge(f"order {q} exceeds cap {max_order}")
    try:
        p, k = factor_prime_power(q)
    except ValueError:
        raise NotOddPrime(f"{q} is not an odd prime power") from None
    return Field(p, k, max_order=max_order)
