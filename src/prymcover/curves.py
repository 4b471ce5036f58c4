"""Split hyperelliptic models y^2 = lead * prod (x - root_i) and the exact
prime bookkeeping attached to them.

A model is "split" because we store the roots, not the expanded
coefficients; every structural question (bad primes, reductions, twists)
reads off the root data directly.  Points are affine rational pairs plus a
single marker for the place at infinity of an odd-degree model.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import mul
from typing import FrozenSet, Iterable, Set, Tuple, Union

from .polys import Poly, RatFunc, clear_denominators, resultant
from .scalars import (
    MQElem,
    Rat,
    Scalar,
    as_rational,
    factorize,
    prime_set,
    rational_prime_support,
)


@dataclass(frozen=True)
class CurvePoint:
    """A point on a split model: affine coordinates or the infinity marker."""

    x: Rat = Fraction(0)
    y: Rat = Fraction(0)
    at_infinity: bool = False

    @classmethod
    def affine(cls, x, y) -> "CurvePoint":
        return cls(Fraction(x), Fraction(y), False)

    @classmethod
    def infinity(cls) -> "CurvePoint":
        return cls(Fraction(0), Fraction(0), True)

    def __repr__(self) -> str:
        return "CurvePoint(inf)" if self.at_infinity else f"CurvePoint({self.x}, {self.y})"


@dataclass(frozen=True)
class HyperCurve:
    """y^2 = lead * prod (x - root_i), roots distinct.

    `twist_unknown` marks models whose correct quadratic twist has not been
    pinned down (the Prym-side curves); consumers that need the honest twist
    must try both.
    """

    roots: Tuple[Scalar, ...]
    lead: Scalar = Fraction(1)
    twist_unknown: bool = False

    @property
    def degree(self) -> int:
        return len(self.roots)

    @property
    def genus(self) -> int:
        return (self.degree + 1) // 2 - 1

    @property
    def is_odd_model(self) -> bool:
        return self.degree % 2 == 1

    def poly(self) -> Poly:
        return Poly.from_roots(self.roots, self.lead)

    def is_rational(self) -> bool:
        try:
            [as_rational(r) for r in self.roots]
            as_rational(self.lead)
        except ValueError:
            return False
        return True

    def rational_roots(self) -> Tuple[Fraction, ...]:
        return tuple(as_rational(r) for r in self.roots)


def make_curve(
    roots: Iterable[Union[Scalar, int]],
    lead: Union[Scalar, int] = 1,
    twist_unknown: bool = False,
) -> HyperCurve:
    """Validated constructor: distinct roots, nonzero lead, genus >= 1."""
    rs = tuple(r if isinstance(r, MQElem) else Fraction(r) for r in roots)
    if len(rs) < 3:
        raise ValueError("need at least 3 roots (genus >= 1)")
    for i, a in enumerate(rs):
        for b in rs[i + 1 :]:
            if a == b:
                raise ValueError("repeated root: the model is singular")
    ld = lead if isinstance(lead, MQElem) else Fraction(lead)
    if not ld:
        raise ValueError("leading coefficient must be nonzero")
    return HyperCurve(rs, ld, twist_unknown)


def is_on_curve(curve: HyperCurve, point: CurvePoint) -> bool:
    """y^2 = lead * prod (x - root_i), evaluated from the stored roots."""
    if point.at_infinity:
        return True
    x = Fraction(point.x)
    value = reduce(mul, (x - r for r in curve.roots), curve.lead)
    return Fraction(point.y) ** 2 == value


def hyperelliptic_involution(curve: HyperCurve, point: CurvePoint) -> CurvePoint:
    """(x, y) -> (x, -y); infinity is fixed on an odd-degree model."""
    if point.at_infinity:
        return point
    return CurvePoint(point.x, -point.y, False)


def bad_primes(curve: HyperCurve) -> FrozenSet[int]:
    """Primes where the split model degenerates, always including 2.

    A prime is bad when a root leaves the p-integers, the leading
    coefficient is not a p-unit, or two roots collide mod p.
    """
    if not curve.is_rational():
        raise ValueError("bad primes need a model with rational data")
    roots = curve.rational_roots()
    bad: Set[int] = {2}
    bad |= rational_prime_support(as_rational(curve.lead))
    for r in roots:
        bad |= set(factorize(r.denominator))
    for i, a in enumerate(roots):
        for b in roots[i + 1 :]:
            bad |= set(factorize((a - b).numerator))
    return frozenset(bad)


def compute_t(
    curve: HyperCurve,
    func: RatFunc,
    s_primes: Iterable[int] = (),
) -> Tuple[int, ...]:
    """Finite primes of the support set for S-integrality of `func` on the
    curve: the input S, the curve's bad primes, primes where the function
    degenerates to 0 or infinity, and primes where its zero and pole loci
    collide.  The archimedean place always belongs to the support set and is
    left implicit.  Returns the sorted tuple of finite primes."""
    t = set(prime_set(s_primes)) | bad_primes(curve)
    num_int, num_content = clear_denominators(func.num)
    den_int, den_content = clear_denominators(func.den)
    scale = num_content / den_content
    t |= rational_prime_support(scale)
    res = resultant(Poly(num_int), Poly(den_int))
    res_int = as_rational(res)
    if res_int == 0:
        raise ValueError("zero and pole loci share a component")
    t |= set(factorize(res_int.numerator))
    return tuple(sorted(t))
