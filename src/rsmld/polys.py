"""Univariate polynomials over a finite field.

Coefficients are stored low-to-high as canonical ints (``coeffs[i]`` is the
coefficient of x^i) with no trailing zeros; the zero polynomial has an empty
coefficient list and degree -1.  Arithmetic stays on plain ints internally.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from .fields import Field

__all__ = [
    "Polynomial",
    "lagrange_interpolate",
    "vanishing_poly",
    "base_q_digits",
    "monic_polys",
    "bounded_monic_divisors",
]


class Polynomial:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Iterable[int] = ()):
        q = field.q   # an int already in 0..q-1 is canonical as it stands
        cs = [c if type(c) is int and 0 <= c < q else field.canon(c)
              for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.field = field
        self.coeffs = cs

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, field: Field) -> "Polynomial":
        return cls(field, ())

    @classmethod
    def one(cls, field: Field) -> "Polynomial":
        return cls(field, (1,))

    @classmethod
    def x(cls, field: Field) -> "Polynomial":
        return cls(field, (0, 1))

    @classmethod
    def constant(cls, field: Field, c: int) -> "Polynomial":
        return cls(field, (c,))

    @classmethod
    def monomial(cls, field: Field, c: int, e: int) -> "Polynomial":
        return cls(field, [0] * e + [c])

    # -- basic queries -------------------------------------------------------

    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __iter__(self) -> Iterator[int]:
        return iter(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "Polynomial") -> None:
        if self.field != other.field:
            raise ValueError("polynomials over different fields")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        f = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = f.add(out[i], c)
        return Polynomial(f, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        f = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        out = [f.sub(self[i], other[i]) for i in range(n)]
        return Polynomial(f, out)

    def __neg__(self) -> "Polynomial":
        f = self.field
        return Polynomial(f, [f.neg(c) for c in self.coeffs])

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        f = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Polynomial(f, ())
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):   # out += ca * x^i * b
            if ca:
                out[i:i + len(b)] = f.axpy(f.neg(ca), out[i:i + len(b)], b)
        return Polynomial(f, out)

    def scale(self, c: int) -> "Polynomial":
        f = self.field
        c = f.canon(c)
        if c == 0:
            return Polynomial(f, ())
        mul = f.mul
        return Polynomial(f, [mul(c, a) for a in self.coeffs])

    def times_x_minus(self, a: int) -> "Polynomial":
        """Multiply by the linear factor (x - a)."""
        f = self.field
        if not self.coeffs:
            return self
        a = f.canon(a)
        out = [0] + self.coeffs   # x * self, less a * self
        if a:
            out[:-1] = f.axpy(a, out[:-1], self.coeffs)
        return Polynomial(f, out)

    def __divmod__(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        self._check(other)
        f = self.field
        if not other.coeffs:
            raise ZeroDivisionError("polynomial division by zero")
        num = list(self.coeffs)
        den = other.coeffs
        dd = len(den) - 1
        if len(num) - 1 < dd:
            return Polynomial(f, ()), Polynomial(f, num)
        inv_lead = f.inv(den[-1])
        quot = [0] * (len(num) - dd)
        for i in range(len(num) - 1, dd - 1, -1):
            if num[i]:
                quot[i - dd] = c = f.mul(num[i], inv_lead)
                num[i - dd:i + 1] = f.axpy(c, num[i - dd:i + 1], den)
        return Polynomial(f, quot), Polynomial(f, num[:dd])

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[1]

    def divides(self, other: "Polynomial") -> bool:
        """True when ``self`` divides ``other`` exactly (self must be nonzero)."""
        return (other % self).is_zero()

    def monic(self) -> "Polynomial":
        if not self.coeffs:
            raise ValueError("cannot normalize the zero polynomial")
        if self.coeffs[-1] == 1:
            return self
        return self.scale(self.field.inv(self.coeffs[-1]))

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """Monic greatest common divisor (zero polynomial if both are zero)."""
        self._check(other)
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def coprime(self, other: "Polynomial") -> bool:
        """True when gcd(self, other) = 1."""
        return self.gcd(other).degree() == 0

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, x: int) -> int:
        f = self.field
        x = f.canon(x)
        acc = 0
        add, mul = f.add, f.mul
        for c in reversed(self.coeffs):
            acc = add(mul(acc, x), c)
        return acc

    # -- identity ----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.field, tuple(self.coeffs)))

    def __repr__(self) -> str:
        return f"Polynomial({self.field.label()!r}, {self.coeffs})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[e]
            if c == 0:
                continue
            if e == 0:
                parts.append(str(c))
            else:
                xe = "x" if e == 1 else f"x^{e}"
                parts.append(xe if c == 1 else f"{c}{xe}")
        return " + ".join(parts)


def vanishing_poly(field: Field, xs: Sequence[int]) -> Polynomial:
    """The monic polynomial with the given points as roots: prod (x - x_i).

    One array step per point, on the coefficients held high to low (c[e]
    multiplies x^(j - e) after j steps): c <- c*(x - x_j) is
    c[e] <- c[e] - x_j*c[e - 1], where c[j + 1] is still 0.
    """
    arr = field.arrays()
    xs = [field.canon(x) for x in xs]
    c = arr.array([1] + [0] * len(xs))
    for j, x in enumerate(xs):
        c[1:j + 2] = arr.sub(c[1:j + 2], arr.mul(x, c[:j + 1]))
    return Polynomial(field, c[::-1].tolist())


def lagrange_interpolate(field: Field, xs: Sequence[int], ys: Sequence[int]) -> Polynomial:
    """The unique polynomial of degree < len(xs) through the points (xs, ys).

    Computed in Newton form via divided differences; the xs must be distinct.
    """
    if len(xs) != len(ys):
        raise ValueError("xs and ys differ in length")
    n = len(xs)
    if n == 0:
        return Polynomial.zero(field)
    xs = [field.canon(x) for x in xs]
    if len(set(xs)) != n:
        raise ValueError("interpolation points must be distinct")
    coef = [field.canon(y) for y in ys]
    sub, div = field.sub, field.div
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = div(sub(coef[i], coef[i - 1]), sub(xs[i], xs[i - j]))
    poly = Polynomial.constant(field, coef[n - 1])
    for i in range(n - 2, -1, -1):
        poly = poly.times_x_minus(xs[i]) + Polynomial.constant(field, coef[i])
    return poly


def base_q_digits(value: int, q: int, count: int) -> list[int]:
    """The lowest `count` base-q digits of value, least significant first."""
    digits = []
    for _ in range(count):
        value, digit = divmod(value, q)
        digits.append(digit)
    return digits


def monic_polys(field: Field, deg: int) -> Iterator[Polynomial]:
    """All monic polynomials of exact degree deg (deg >= 0), lower
    coefficient tuples counted little-endian."""
    q = field.q
    for packed in range(q ** deg):
        yield Polynomial(field, base_q_digits(packed, q, deg) + [1])


DIVISOR_CANDIDATE_LIMIT = 500_000

# Candidate rows per `FieldArrays.monic_remainders` call, so that its
# temporaries stay small however many candidates a degree has.
DIVISOR_CHUNK = 1 << 12


def bounded_monic_divisors(f: Polynomial, dmax: int) -> list[Polynomial]:
    """All monic divisors of f with degree <= dmax (including the constant 1),
    by degree and then by their lower coefficients counted little-endian.

    For each degree d the remainders of f modulo all q^d monic candidates
    are taken at once, DIVISOR_CHUNK candidates per array step, one step
    per coefficient of f (at d = 1 that is f at every field point); the
    candidates with a zero remainder divide f.  Past
    DIVISOR_CANDIDATE_LIMIT candidates it raises ValueError, dividing none.
    """
    if f.is_zero():
        raise ValueError("divisors of the zero polynomial are not enumerable")
    field = f.field
    q = field.q
    dmax = min(dmax, f.degree())
    total = sum(q**d for d in range(1, dmax + 1))
    if total > DIVISOR_CANDIDATE_LIMIT:
        raise ValueError(
            f"divisor enumeration too large ({total} candidates, "
            f"limit {DIVISOR_CANDIDATE_LIMIT})")
    arr = field.arrays()
    out = [Polynomial.one(field)]
    for d in range(1, dmax + 1):
        place = arr.array([q**i for i in range(d)])
        for lo in range(0, q**d, DIVISOR_CHUNK):
            packed = np.arange(lo, min(lo + DIVISOR_CHUNK, q**d))
            g = arr.array(packed[:, None] // place % q)
            rem = arr.monic_remainders(f.coeffs, g)
            out += [Polynomial(field, row + [1])
                    for row in g[~rem.any(axis=1)].tolist()]
    return out
