"""Dense univariate polynomials over exact scalars, plus resultants,
discriminants, and reduced rational functions.

Coefficients are Fractions or MQElems (any mix).  The zero polynomial has
degree -infinity so that degree identities hold without special cases.
Products use the schoolbook loop, skipping zero coefficients: every
product the package forms has an operand of at most 32 coefficients, below
which subquadratic methods do not pay on exact scalars.
Polynomials over F_p live in `modp`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple, Union

from .scalars import MQElem, Scalar, as_rational, scalar_inv

NEG_INFINITY = -math.inf


def _coerce(c) -> Scalar:
    if isinstance(c, MQElem):
        return c
    return Fraction(c)


class PoleError(ArithmeticError):
    """Evaluation of a rational function at one of its poles."""


class Poly:
    """Immutable dense polynomial; coefficients constant-first."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Iterable[Union[Scalar, int]] = ()):
        c = [_coerce(x) for x in coeffs]
        while c and not c[-1]:
            c.pop()
        self._c = tuple(c)

    @classmethod
    def constant(cls, value) -> "Poly":
        return cls((value,))

    @classmethod
    def x(cls) -> "Poly":
        return cls((0, 1))

    @classmethod
    def from_roots(cls, roots: Sequence[Scalar], lead: Union[Scalar, int] = 1) -> "Poly":
        out = cls((lead,))
        for r in roots:
            out = out * cls((-r, 1))
        return out

    @property
    def coeffs(self) -> Tuple[Scalar, ...]:
        return self._c

    @property
    def degree(self) -> Union[int, float]:
        return len(self._c) - 1 if self._c else NEG_INFINITY

    @property
    def lead(self) -> Scalar:
        if not self._c:
            raise ValueError("zero polynomial has no leading coefficient")
        return self._c[-1]

    def is_zero(self) -> bool:
        return not self._c

    def coefficient(self, k: int) -> Scalar:
        return self._c[k] if 0 <= k < len(self._c) else Fraction(0)

    def __call__(self, x) -> Scalar:
        acc: Scalar = Fraction(0)
        for c in reversed(self._c):
            acc = acc * x + c
        return acc

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self._c == other._c
        if isinstance(other, (int, Fraction, MQElem)):
            return self == Poly((other,))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._c)

    def __bool__(self) -> bool:
        return bool(self._c)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self._c))

    def __add__(self, other) -> "Poly":
        other = self._as_poly(other)
        if other is None:
            return NotImplemented
        a, b = self._c, other._c
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        other = self._as_poly(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    @staticmethod
    def _as_poly(other) -> Union["Poly", None]:
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction, MQElem)):
            return Poly((other,))
        return None

    def __mul__(self, other) -> "Poly":
        other = self._as_poly(other)
        if other is None:
            return NotImplemented
        a, b = self._c, other._c
        if not a or not b:
            return Poly()
        if len(a) == 1:
            s = a[0]
            return Poly(tuple(s * c for c in b))
        if len(b) == 1:
            s = b[0]
            return Poly(tuple(c * s for c in a))
        return Poly(_mul_seq(a, b))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: "Poly") -> Tuple["Poly", "Poly"]:
        if not isinstance(other, Poly):
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self._c)
        dq = len(self._c) - len(other._c)
        if dq < 0:
            return Poly(), self
        inv_lead = scalar_inv(other.lead)
        quot: List[Scalar] = [Fraction(0)] * (dq + 1)
        d = other._c
        for k in range(dq, -1, -1):
            c = rem[k + len(d) - 1] * inv_lead
            quot[k] = c
            if c:
                for i, dc in enumerate(d):
                    rem[k + i] = rem[k + i] - c * dc
        return Poly(quot), Poly(rem[: len(d) - 1])

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero():
            raise ValueError("cannot normalize the zero polynomial")
        inv = scalar_inv(self.lead)
        return Poly(tuple(c * inv for c in self._c))

    def derivative(self) -> "Poly":
        return Poly(tuple(i * c for i, c in enumerate(self._c) if i))

    def shift(self, k: int) -> "Poly":
        """Multiply by x**k."""
        if self.is_zero():
            return self
        return Poly((Fraction(0),) * k + self._c)

    def __repr__(self) -> str:
        if not self._c:
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self._c):
            if not c:
                continue
            if i == 0:
                terms.append(f"{c}")
            elif i == 1:
                terms.append(f"({c})*x")
            else:
                terms.append(f"({c})*x^{i}")
        return "Poly(" + " + ".join(terms) + ")"


def _mul_seq(a: Sequence[Scalar], b: Sequence[Scalar]) -> List[Scalar]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            if bj:
                out[i + j] = out[i + j] + ai * bj
    return out


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd over the scalar field; gcd(0, 0) is an error."""
    if f.is_zero() and g.is_zero():
        raise ValueError("gcd of two zero polynomials")
    a, b = f, g
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def resultant(f: Poly, g: Poly) -> Scalar:
    """Resultant of f and g via the Euclidean recursion.

    Res(f, g) = lc(g)**(deg f - deg r) * (-1)**(deg f * deg g) * Res(g, r)
    with r = f mod g; constants and zero handled by the usual conventions.
    """
    if f.is_zero() or g.is_zero():
        # Res with the zero polynomial vanishes unless the other side is a
        # nonzero constant, in which case the empty product is 1.
        other = g if f.is_zero() else f
        return Fraction(1) if other.degree == 0 else Fraction(0)
    m, n = f.degree, g.degree
    if n == 0:
        return g.lead**m
    if m == 0:
        return f.lead**n
    r = f % g
    sign = -1 if (m * n) % 2 else 1
    k = r.degree if not r.is_zero() else NEG_INFINITY
    if r.is_zero():
        return Fraction(0)
    lc_pow = g.lead ** (m - k)
    return sign * lc_pow * resultant(g, r)


def poly_disc(f: Poly) -> Scalar:
    """Discriminant of f (degree >= 1):
    (-1)**(m(m-1)/2) * Res(f, f') / lc(f)."""
    m = f.degree
    if not isinstance(m, int) or m < 1:
        raise ValueError("discriminant needs degree >= 1")
    sign = -1 if (m * (m - 1) // 2) % 2 else 1
    return sign * resultant(f, f.derivative()) * scalar_inv(f.lead)


def clear_denominators(f: Poly) -> Tuple[List[int], Fraction]:
    """Write a rational-coefficient poly as content * primitive-integer-poly.

    Returns (integer coefficient list with gcd 1 and positive lead, content)
    so that f = content * P.  Requires all coefficients rational.
    """
    if f.is_zero():
        raise ValueError("zero polynomial has no primitive part")
    coeffs = [as_rational(c) for c in f.coeffs]
    lcm = 1
    for c in coeffs:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in coeffs]
    g = 0
    for v in ints:
        g = math.gcd(g, v)
    if ints[-1] < 0:
        g = -g
    ints = [v // g for v in ints]
    return ints, Fraction(g, lcm)


class RatFunc:
    """Reduced quotient of two polynomials in one variable.

    Normal form: gcd(num, den) = 1 and den monic, so equality is structural.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if not num.is_zero():
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num // g
                den = den // g
        inv = scalar_inv(den.lead)
        self.num = num * inv
        self.den = den * inv

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def value_at(self, x) -> Scalar:
        d = self.den(x)
        if not d:
            if not self.num(x):
                raise PoleError(f"indeterminate value at {x}")
            raise PoleError(f"pole at {x}")
        return self.num(x) * scalar_inv(d)

    def is_pole(self, x) -> bool:
        return (not self.den(x)) and bool(self.num(x))

    def value_at_infinity(self) -> Scalar:
        """Limit along the hyperelliptic coordinate x; raises PoleError when
        the numerator degree dominates."""
        dn, dd = self.num.degree, self.den.degree
        if dn > dd:
            raise PoleError("pole at infinity")
        if dn < dd:
            return Fraction(0)
        return self.num.lead * scalar_inv(self.den.lead)

    def __repr__(self) -> str:
        return f"RatFunc({self.num!r}, {self.den!r})"
