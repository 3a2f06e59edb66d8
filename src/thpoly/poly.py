"""Dense univariate polynomials over a prime field.

Coefficients are stored low-to-high with no trailing zeros; the zero
polynomial has an empty coefficient array and degree -inf, which keeps
divisibility logic free of special cases.
"""

from __future__ import annotations

import math

import numpy as np

from .counting import MultCounter
from .errors import (BothZeroError, DivisionByZeroError, DuplicatePointError,
                     EmptySequenceError, FieldMismatchError,
                     LengthMismatchError)
from .field import PrimeField

NEG_INF = -math.inf


def _trim(field: PrimeField, coeffs: np.ndarray) -> np.ndarray:
    n = len(coeffs)
    while n > 0 and coeffs[n - 1] == 0:
        n -= 1
    return coeffs[:n]


class Poly:
    """Normalized coefficient sequence; immutable by convention."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: PrimeField, coeffs):
        self.field = field
        self.coeffs = _trim(field, field.asvec(coeffs))

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, field: PrimeField) -> "Poly":
        return cls(field, [])

    @classmethod
    def one(cls, field: PrimeField) -> "Poly":
        return cls(field, [1])

    @classmethod
    def x_power(cls, field: PrimeField, k: int) -> "Poly":
        return cls(field, [0] * k + [1])

    # -- basic queries -------------------------------------------------------

    @property
    def degree(self):
        """Degree as an int, or -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if len(self.coeffs) else NEG_INF

    def is_zero(self) -> bool:
        return len(self.coeffs) == 0

    def leading(self) -> int:
        if self.is_zero():
            raise DivisionByZeroError("zero polynomial has no leading coefficient")
        return int(self.coeffs[-1])

    def coeff(self, i: int) -> int:
        return int(self.coeffs[i]) if 0 <= i < len(self.coeffs) else 0

    def to_list(self) -> list[int]:
        return [int(c) for c in self.coeffs]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Poly) and other.field == self.field
                and len(other.coeffs) == len(self.coeffs)
                and bool(np.all(other.coeffs == self.coeffs)))

    def __hash__(self) -> int:
        return hash((self.field.p, tuple(self.to_list())))

    def __repr__(self) -> str:
        return f"Poly({self.to_list()} mod {self.field.p})"

    def _check_field(self, other: "Poly") -> None:
        if self.field != other.field:
            raise FieldMismatchError("polynomials over different fields")

    # -- ring operations -----------------------------------------------------

    def add(self, other: "Poly") -> "Poly":
        self._check_field(other)
        n = max(len(self.coeffs), len(other.coeffs))
        out = self.field.zeros(n)
        out[:len(self.coeffs)] = self.coeffs
        out[:len(other.coeffs)] = (out[:len(other.coeffs)] + other.coeffs) % self.field.p
        return Poly(self.field, out)

    def sub(self, other: "Poly") -> "Poly":
        return self.add(other.scale(self.field.p - 1))

    def scale(self, c: int, counter: MultCounter | None = None) -> "Poly":
        c = int(c) % self.field.p
        if c == 0:
            return Poly.zero(self.field)
        return Poly(self.field, self.field.vmul(self.coeffs, c, counter))

    def mul(self, other: "Poly", counter: MultCounter | None = None) -> "Poly":
        self._check_field(other)
        return Poly(self.field, self.field.conv(self.coeffs, other.coeffs, counter))

    def divrem(self, other: "Poly", counter: MultCounter | None = None):
        """Quotient and remainder with deg r < deg other."""
        self._check_field(other)
        if other.is_zero():
            raise DivisionByZeroError("division by the zero polynomial")
        la, lb = len(self.coeffs), len(other.coeffs)
        if la < lb:
            return Poly.zero(self.field), self
        p = self.field.p
        inv_lc = self.field.inv(other.leading(), counter)
        r = self.coeffs.copy()
        q = self.field.zeros(la - lb + 1)
        b = other.coeffs
        for i in range(la - lb, -1, -1):
            f = int(r[i + lb - 1]) * inv_lc % p
            if counter is not None:
                counter.add(1)
            if f:
                q[i] = f
                r[i:i + lb] = self.field.submul(r[i:i + lb], f, b, counter)
        return Poly(self.field, q), Poly(self.field, r)

    def monic(self, counter: MultCounter | None = None) -> "Poly":
        if self.is_zero():
            return self
        lc = self.leading()
        if lc == 1:
            return self
        return self.scale(self.field.inv(lc, counter), counter)

    def __add__(self, other):
        return self.add(other)

    def __sub__(self, other):
        return self.sub(other)

    def __mul__(self, other):
        return self.mul(other)

    def __neg__(self):
        return self.scale(self.field.p - 1)

    # -- evaluation / interpolation ------------------------------------------

    def eval_at(self, x: int, counter: MultCounter | None = None) -> int:
        return int(self.eval_many([x], counter)[0])

    def eval_many(self, points, counter: MultCounter | None = None) -> np.ndarray:
        """Horner evaluation at each point."""
        pts = self.field.asvec(points)
        if self.is_zero():
            return self.field.zeros(len(pts))
        acc = self.field.zeros(len(pts)) + self.coeffs[-1]
        for c in self.coeffs[-2::-1]:
            acc = (self.field.vmul(acc, pts, counter) + c) % self.field.p
        return acc


def poly_gcd(a: Poly, b: Poly, counter: MultCounter | None = None) -> Poly:
    """Monic greatest common divisor."""
    a._check_field(b)
    if a.is_zero() and b.is_zero():
        raise BothZeroError("gcd(0, 0) is undefined")
    while not b.is_zero():
        a, b = b, a.divrem(b, counter)[1]
    return a.monic(counter)


def poly_lcm(a: Poly, b: Poly, counter: MultCounter | None = None) -> Poly:
    if a.is_zero() or b.is_zero():
        return Poly.zero(a.field)
    g = poly_gcd(a, b, counter)
    q, _ = a.mul(b, counter).divrem(g, counter)
    return q.monic(counter)


def interpolate(field: PrimeField, points, values,
                counter: MultCounter | None = None) -> Poly:
    """Unique polynomial of degree < len(points) through all pairs.

    Newton's divided differences; requires pairwise distinct points.  Each
    level of the table is one array update with one inversion per distinct
    denominator (a single one at consecutive points), and the Newton form
    is expanded in place in one array.  Charges follow the scalar schedule:
    level l pays a batch inversion of its k - l denominators plus one
    product per difference, each expansion step one product per
    coefficient it updates.
    """
    x, dd = field.asvec(points), field.asvec(values)
    if len(x) != len(dd):
        raise LengthMismatchError(f"{len(x)} points but {len(dd)} values")
    if len(set(x.tolist())) != len(x):
        raise DuplicatePointError("interpolation points must be distinct")
    k = len(x)
    p = field.p
    for level in range(1, k):
        inv = field.inverses((x[level:] - x[:-level]) % p, counter)
        dd[level:] = field.vmul(dd[level:] - dd[level - 1:-1], inv)
        if counter is not None:
            counter.add(k - level)
    # Horner expansion of the Newton form, P <- P * (x - x_i) + dd[i] for
    # i = k-2 .. 0, with P held low-to-high in dd[i:]
    for i in range(k - 2, -1, -1):
        dd[i:k - 1] = field.submul(dd[i:k - 1], x[i], dd[i + 1:], counter)
    return Poly(field, dd)


def berlekamp_massey(field: PrimeField, sequence,
                     counter: MultCounter | None = None) -> Poly:
    """Monic minimal-degree annihilator of a linearly generated sequence.

    Returns f = x**d + sum c_t x**t such that sum_t f_t s_{i+t} = 0 for
    every offset 0 <= i <= len(s)-1-d.  The result is certified minimal
    when the sequence is generated with degree <= len(s)//2.
    """
    s = field.asvec(sequence)
    L = len(s)
    if L == 0:
        raise EmptySequenceError("berlekamp_massey needs at least one term")
    p = field.p
    C = field.zeros(L + 1)
    B = field.zeros(L + 1)
    C[0] = 1
    B[0] = 1
    lc = 0      # current linear complexity
    m = 1       # steps since the last length change
    b = 1       # discrepancy at the last length change
    for n in range(L):
        window = s[n - lc:n + 1][::-1]
        d = field.dot(C[:lc + 1], window, counter)
        if d == 0:
            m += 1
            continue
        f = d * field.inv(b, counter) % p
        if 2 * lc <= n:
            T = C.copy()
            C[m:] = field.submul(C[m:], f, B[:L + 1 - m], counter)
            lc = n + 1 - lc
            B = T
            b = d
            m = 1
        else:
            C[m:] = field.submul(C[m:], f, B[:L + 1 - m], counter)
            m += 1
    # the annihilator is the reversal of the connection polynomial at
    # length lc; its leading coefficient is C[0] = 1, so it is monic
    return Poly(field, C[:lc + 1][::-1])
