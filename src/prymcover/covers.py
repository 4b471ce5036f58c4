"""Unramified double covers of an odd-degree split model from a pair of
non-Weierstrass points, and the equations of the resulting tower.

Given y^2 = f(x) of genus g with affine points P, Q (distinct x, nonzero y),
each choice of square roots

    beta_i^2 = (x_Q - root_i) / (x_P - root_i),   prod beta_i = y_Q / y_P,

determines a double cover of the curve, a polynomial pair (h, F) with

    h^2 - f = (x - x_P)(x - x_Q) F^2,   deg h = g + 1,

and a Prym-side hyperelliptic model y^2 = c*(x - 1)*prod(x - beta_i) whose
correct twist c is not determined by this construction.  There are exactly
2**(2g) tuples; sign choices run lexicographically (+ before -) over the
first 2g roots and the last sign is forced by the product constraint.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import mul
from typing import List, Tuple, Union

from .curves import CurvePoint, HyperCurve, is_on_curve, make_curve
from .errors import InternalCheckError
from .polys import Poly
from .scalars import Rat, Scalar, as_rational, scalar_inv, sqrt_adjoin


@dataclass(frozen=True)
class BetaTuple:
    """A consistent choice of the square roots beta_i for a pair (P, Q)."""

    curve: HyperCurve
    p: CurvePoint
    q: CurvePoint
    betas: Tuple[Scalar, ...]

    def validate(self) -> None:
        if len(self.betas) != self.curve.degree:
            raise ValueError("one beta per curve root required")
        x_p, y_p = Fraction(self.p.x), Fraction(self.p.y)
        x_q, y_q = Fraction(self.q.x), Fraction(self.q.y)
        for b, root in zip(self.betas, self.curve.roots):
            if b * b != (x_q - root) * scalar_inv(x_p - root):
                raise ValueError("beta fails its defining square relation")
        if _product(self.betas) != y_q / y_p:
            raise ValueError("beta product does not match y_Q / y_P")


def _product(values) -> Scalar:
    return reduce(mul, values, Fraction(1))


def _validate_pair(curve: HyperCurve, p: CurvePoint, q: CurvePoint) -> None:
    if not curve.is_rational():
        raise ValueError("cover construction needs a rational model")
    if not curve.is_odd_model:
        raise ValueError("cover construction needs an odd-degree model")
    for pt in (p, q):
        if pt.at_infinity:
            raise ValueError("P and Q must be affine")
        if not is_on_curve(curve, pt):
            raise ValueError(f"P and Q must lie on the curve; {pt!r} does not")
        if pt.y == 0:
            raise ValueError("P and Q must avoid the branch locus (Weierstrass points)")
    if p.x == q.x:
        raise ValueError("P and Q share an x-coordinate")


def _base_betas(curve: HyperCurve, p: CurvePoint, q: CurvePoint) -> List[Scalar]:
    """The base square roots for a checked pair, the last one signed so that
    the product is y_Q / y_P.

    The product of the base roots is formed once: it fixes the last sign for
    the all-plus choice, and flipping free signs flips it by their parity.
    """
    _validate_pair(curve, p, q)
    x_p, x_q = Fraction(p.x), Fraction(q.x)
    y_ratio = Fraction(q.y) / Fraction(p.y)
    base = [
        sqrt_adjoin((x_q - as_rational(r)) / (x_p - as_rational(r)))
        for r in curve.roots
    ]
    full = _product(base)
    if -full == y_ratio:
        base[-1] = -base[-1]
    elif full != y_ratio:
        raise InternalCheckError("no sign of the last beta fits the product")
    return base


def all_plus_beta_tuple(curve: HyperCurve, p: CurvePoint, q: CurvePoint) -> BetaTuple:
    """The first tuple of `beta_tuples`: every free sign +, built alone."""
    return BetaTuple(curve, p, q, tuple(_base_betas(curve, p, q)))


def beta_tuples(curve: HyperCurve, p: CurvePoint, q: CurvePoint) -> List[BetaTuple]:
    """All 2**(2g) beta tuples for (curve, P, Q), in lexicographic sign order."""
    base = _base_betas(curve, p, q)
    last = base.pop()
    out: List[BetaTuple] = []
    for signs in itertools.product((1, -1), repeat=len(base)):
        betas = [s * b for s, b in zip(signs, base)]
        betas.append(last if _product(signs) == 1 else -last)
        out.append(BetaTuple(curve, p, q, tuple(betas)))
    return out


def prym_curve_equation(t: BetaTuple) -> HyperCurve:
    """Even-degree model y^2 = c*(x - 1)*prod(x - beta_i), twist c unknown."""
    roots: Tuple[Scalar, ...] = (Fraction(1),) + tuple(t.betas)
    try:
        return make_curve(roots, lead=Fraction(1), twist_unknown=True)
    except ValueError as exc:
        raise ValueError(f"degenerate cover model: {exc}") from exc


@dataclass(frozen=True)
class CoverCertificate:
    """The polynomial pair (h, F) certifying a double cover.

    Invariants (checked at construction):
        h^2 - f = (x - x_P)(x - x_Q) * F^2,  deg h = g + 1,
        h(x_P) = -y_P,  h(x_Q) = -y_Q.
    """

    beta: BetaTuple
    h: Poly
    big_f: Poly


def reconstruct_h_f(t: BetaTuple) -> CoverCertificate:
    """Recover (h, F) from a beta tuple.

    The generating polynomial G(u) = lc * (u - 1) * prod(u - beta_i') with
    beta_i' = (-1)**(g+1) * beta_i splits into even and odd parts; weighting
    their coefficients by mixed powers of (x - x_Q) and (x - x_P) yields h
    and F.  Both normalizations of the leading coefficient must agree, and
    all defining identities are verified exactly before returning.
    """
    curve = t.curve
    g = curve.genus
    x_p, y_p = Fraction(t.p.x), Fraction(t.p.y)
    x_q, y_q = Fraction(t.q.x), Fraction(t.q.y)
    sign = 1 if g % 2 else -1
    adj = tuple(sign * b for b in t.betas)
    lc = -sign * y_p
    # Second route to the same constant: G(0) must equal -y_Q.
    c0 = -y_q * scalar_inv(_product(adj))
    if c0 != lc:
        raise InternalCheckError("leading-coefficient normalizations disagree")
    gen = Poly.from_roots((Fraction(1),) + adj, lc)
    even = gen.coeffs[0::2]
    odd = gen.coeffs[1::2]
    lin_q = Poly((-x_q, 1))
    lin_p = Poly((-x_p, 1))
    scale = Fraction(1) / (x_q - x_p) ** (g + 1)
    h = Poly()
    for j, ej in enumerate(even):
        h = h + ej * lin_q**j * lin_p ** (g + 1 - j)
    h = h * scale
    big_f = Poly()
    for j, oj in enumerate(odd):
        big_f = big_f + oj * lin_q**j * lin_p ** (g - j)
    big_f = big_f * scale
    if h.degree != g + 1:
        raise InternalCheckError("h has the wrong degree")
    if h(x_p) != -y_p or h(x_q) != -y_q:
        raise InternalCheckError("h misses its interpolation values")
    if h * h - curve.poly() != lin_p * lin_q * big_f * big_f:
        raise InternalCheckError("cover identity h^2 - f = (x-xP)(x-xQ)F^2 failed")
    return CoverCertificate(t, h, big_f)


@dataclass(frozen=True)
class TowerEquations:
    """Equations of the tower attached to one cover certificate.

    base:        y^2 = f(x)                       (genus g)
    cover:       y^2 = f(x), z^2 = y + h(x)       (genus 2g)
    cover_minus: y^2 = f(x), z^2 = h(x)^2 - f(x)  (the conjugate branch)
    c1:          z^2 = (x - x_P)(x - x_Q) F(x)^2  (singular plane shadow)
    prym:        y^2 = c*(u - 1)*prod(u - beta_i) (twist c unknown)
    """

    base_poly: Poly
    h: Poly
    big_f: Poly
    branch_poly: Poly
    c1_poly: Poly
    prym: HyperCurve
    genus_base: int
    genus_cover: int
    genus_prym: int


def tower_equations(cert: CoverCertificate) -> TowerEquations:
    curve = cert.beta.curve
    g = curve.genus
    f = curve.poly()
    x_p = Fraction(cert.beta.p.x)
    x_q = Fraction(cert.beta.q.x)
    branch = cert.h * cert.h - f
    c1 = Poly.from_roots((x_p, x_q)) * cert.big_f * cert.big_f
    if branch != c1:
        raise InternalCheckError("branch polynomial disagrees with its split form")
    prym = prym_curve_equation(cert.beta)
    if prym.genus != g:
        raise InternalCheckError("Prym model has the wrong genus")
    return TowerEquations(
        base_poly=f,
        h=cert.h,
        big_f=cert.big_f,
        branch_poly=branch,
        c1_poly=c1,
        prym=prym,
        genus_base=g,
        genus_cover=2 * g,
        genus_prym=g,
    )


def cross_ratio(a: Scalar, b: Scalar, c: Scalar, d: Scalar) -> Scalar:
    """(a - c)(b - d) / ((b - c)(a - d)) for four distinct scalars."""
    vals = (a, b, c, d)
    for i, u in enumerate(vals):
        for v in vals[i + 1 :]:
            if u == v:
                raise ValueError("cross-ratio needs four distinct values")
    return (a - c) * (b - d) * scalar_inv((b - c) * (a - d))


def curve_through_betas(
    betas,
    x_p: Union[Rat, int, None] = None,
    x_q: Union[Rat, int] = 0,
) -> Tuple[HyperCurve, CurvePoint, CurvePoint]:
    """Build the split model and point pair realizing prescribed rational betas.

    Solves beta_i^2 = (x_Q - root_i)/(x_P - root_i) for the roots, then picks
    the positive branch of y_P; fails when f(x_P) is not a rational square.
    When x_p is omitted it is chosen as x_q + prod(1 - beta_i^2), which makes
    f(x_P) a square automatically.  Useful for manufacturing test instances
    with prescribed local behavior.
    """
    bs = [Fraction(b) for b in betas]
    for b in bs:
        if b * b == 1 or b == 0:
            raise ValueError(f"beta {b} degenerates the construction")
    x_q = Fraction(x_q)
    if x_p is None:
        x_p = x_q + _product([1 - b * b for b in bs])
    x_p = Fraction(x_p)
    if x_p == x_q:
        raise ValueError("x_P and x_Q must differ")
    roots = [(x_q - b * b * x_p) / (1 - b * b) for b in bs]
    curve = make_curve(roots)
    y_p2 = curve.poly()(x_p)
    y_p = sqrt_adjoin(y_p2)
    if not isinstance(y_p, Fraction):
        raise ValueError("f(x_P) is not a rational square for these betas")
    y_q = y_p * _product(bs)
    p = CurvePoint.affine(x_p, y_p)
    q = CurvePoint.affine(x_q, as_rational(y_q))
    t = BetaTuple(curve, p, q, tuple(bs))
    t.validate()
    return curve, p, q
