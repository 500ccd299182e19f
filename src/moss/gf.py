"""Finite fields GF(p^k) of odd characteristic.

Elements are length-k coefficient vectors over Z_p, most significant
coefficient first, and the package handles them as plain int indices: the
index of an element is the base-p value of its coefficient tuple.
Enumerating elements by index therefore walks them in increasing
lexicographic order with 0 < 1 < ... < p-1, and the integer n embedded as
n times 1 has index n mod p.

A field is constructed from (p, k) and reduces modulo the lexicographically
smallest monic irreducible polynomial of degree k, so two fields built from
the same parameters are always identical.  The add, mul, neg and inv
tables, and the root table from each square (0 included) to its square
root of smallest index, are precomputed at construction (the order cap
keeps them small), so element arithmetic is a pair of list lookups and
squareness or a square root one dict lookup.  Addition is digit-wise mod p;
products and inverses come from the powers of the first element of order
q - 1, so a field costs O(q) polynomial products, not q^2.  The coefficient
vector of index i is _coeffs[i].  FieldElement is only the read-only
(field, index) record that the residue search returns.  Every integer the
package validates, here and in the grids and documents, must be an exact
int (type(x) is int), so a bool or another int subclass is rejected.

_Record is the base of the package's record classes, in place of
dataclasses, whose import pulls in inspect, ast and dis at every start-up.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import product
from operator import itemgetter, mul

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
    return work[-k:]


def _monic_polys(p: int, degree: int) -> Iterable[tuple[int, ...]]:
    for tail in product(range(p), repeat=degree):
        yield (1,) + tail


def _is_irreducible(p: int, poly: Sequence[int]) -> bool:
    degree = len(poly) - 1
    for d in range(1, degree // 2 + 1):
        for divisor in _monic_polys(p, d):
            if not any(_poly_mod(p, poly, divisor)):
                return False
    return True


def _smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    """The lexicographically first monic irreducible of degree k over Z_p; one exists
    for every k >= 1, as Gauss's count (1/k) sum_{d|k} mu(d) p^(k/d) of them is positive."""
    return next(poly for poly in _monic_polys(p, k) if _is_irreducible(p, poly))


def _index(field: Field, i: int) -> int:
    """i itself, after checking that it is an element index of the field."""
    if type(i) is not int:
        raise IndexError(f"element index {i!r} is a {type(i).__name__}, not an int")
    if not 0 <= i < field.q:
        raise IndexError(f"element index must lie in [0, {field.q}), got {i!r}")
    return i


class _Record:
    """A record equals a record of its own class with equal _fields, hashes
    by them unless its class sets __hash__ = None, and shows them by name."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


def _frozen(record, name, value=None):
    """__setattr__ and __delattr__ of a read-only record."""
    raise AttributeError(f"{type(record).__name__} is read-only: cannot change {name!r}")


class FieldElement(_Record):
    """A read-only (field, index) record, returned by the residue search.

    It has no arithmetic: compute on the field's tables with its index.
    """

    __slots__ = _fields = ("field", "index")
    __setattr__ = __delattr__ = _frozen

    def __init__(self, field: Field, index: int):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "index", index)

    def __reduce__(self):  # copy and pickle through __init__, as assignment raises
        return FieldElement, (self.field, self.index)

    def __repr__(self):
        return f"{self.field!r}({self.index})"


class Field(_Record):
    """GF(p^k) for an odd prime p, with precomputed arithmetic tables.

    Two fields are equal, and hash alike, when p, k and modulus agree; the
    tables are functions of those three.
    """

    _fields = ("p", "k", "modulus")

    def __init__(self, p: int, k: int = 1, modulus: Sequence[int] | None = None):
        # The cap is checked before any work that grows with p or k: p is
        # tested for primality only below the cap, and p ** k is taken only
        # for k below the cap's bit length (p >= 3, so p ** k > 2 ** k).
        if type(p) is int and p > DEFAULT_MAX_ORDER:
            raise OrderTooLarge(f"characteristic {p} exceeds cap {DEFAULT_MAX_ORDER}")
        try:  # factor_prime_power raises for a p that is no prime power
            if type(p) is not int or p < 3 or factor_prime_power(p) != (p, 1):
                raise ValueError(p)
        except ValueError:
            raise NotOddPrime(f"characteristic must be an odd prime, got {p!r}") from None
        if type(k) is not int or k < 1:
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
        if not all(type(c) is int for c in m):
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
        p, k, q, coeffs = self.p, self.k, self.q, self._coeffs
        # Addition is digit-wise mod p: row x = p*hi + lo of GF(p^j) pairs row
        # hi of GF(p^(j-1)) with row lo of Z_p.
        add = add_p = [[(a + b) % p for b in range(p)] for a in range(p)]
        for _ in range(k - 1):
            add = [[p * h + l for h in add[x // p] for l in add_p[x % p]]
                   for x in range(p * len(add))]
        # The powers of the first element g of order q - 1 give exp and log,
        # and a * b = exp[log a + log b], read a row at a time at C speed.
        # g is searched for: x is not always primitive (order 4 in GF(9)).
        weights = [p ** (k - 1 - i) for i in range(k)]
        for g in range(2, q):
            exp, c = [1], coeffs[g]
            while (i := sum(map(mul, weights, c))) != 1:
                exp.append(i)
                c = _poly_mod(p, _poly_mul(p, c, coeffs[g]), self.modulus)
            if len(exp) == q - 1:
                break
        log = [0] * q
        for e, a in enumerate(exp):
            log[a] = e
        twice, by_log = exp * 2, itemgetter(*log[1:])
        self.add_table = add
        self.mul_table = [[0] * q] + [[0, *by_log(twice[log[a]:log[a] + q - 1])]
                                      for a in range(1, q)]
        self.neg_table = self.mul_table[p - 1]  # -a = (p - 1) * a
        self.inv_table: list[int | None] = [None] + [exp[-log[a] % (q - 1)] for a in range(1, q)]
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
    if type(q) is not int:
        raise NotOddPrime(f"{q!r} is not an odd prime power")
    if q > DEFAULT_MAX_ORDER:
        raise OrderTooLarge(f"order {q} exceeds cap {DEFAULT_MAX_ORDER}")
    try:
        p, k = factor_prime_power(q)
    except ValueError:
        raise NotOddPrime(f"{q} is not an odd prime power") from None
    return Field(p, k)
