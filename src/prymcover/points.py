"""S-integral point enumeration and the cross-ratio recovery algorithm.

brute_force_points is the bounded-height oracle; recover_points matches a
candidate list of even-degree cover models against the curve by equating
cross-ratios of cover roots with cross-ratios of the square-root functions
z_i = sqrt(x - alpha_i), eliminating the sign ambiguity with a 16-conjugate
norm product.  The norm is taken once over the integers, with the square
roots scaled by a common denominator D and the target a/b kept as a
variable: each x-coefficient is a form of degree 16 in (a, b), so the result
is an integer matrix with 17 columns.  Every column vanishes to order 12 at
x = x_Q, and that factor is divided out exactly, which leaves 5 rows.  A
recovery call builds the matrix once and evaluates it at each distinct
cross-ratio target, enumerated on integer pairs; cr_elimination_poly
evaluates it at one target, multiplies the factor back and divides
D^32 b^16 out.  The rational roots of each evaluated quartic come from
`modp.int_rational_roots` on its integer coefficients (`modp.rational_roots`,
its `Poly` entry, is re-exported here); each root x is lifted to the curve
once.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .curves import CurvePoint, HyperCurve, hyperelliptic_involution, is_on_curve
from .errors import InternalCheckError
from .modp import int_rational_roots, rational_roots
from .polys import PoleError, Poly, RatFunc, exact_quotient, mul_coeffs, scaled
from .scalars import Rat, as_rational, prime_set, strip_primes


@dataclass(frozen=True)
class IntegralitySpec:
    """Which points count: f(P) must be an S-integer, |x| of height <= H."""

    func: RatFunc
    s_primes: Tuple[int, ...]
    height_bound: int = 100

    def __post_init__(self):
        if self.func.num.degree <= 0 and self.func.den.degree <= 0:
            raise ValueError("integrality needs a nonconstant function")
        if self.height_bound < 1:
            raise ValueError("height bound must be at least 1")
        object.__setattr__(self, "s_primes", prime_set(self.s_primes))


@dataclass(frozen=True)
class CandidateSet:
    """Even-degree split models standing in for a Shafarevich set."""

    genus: int
    curves: Tuple[HyperCurve, ...]

    def __post_init__(self):
        for c in self.curves:
            if c.genus != self.genus:
                raise ValueError("candidate genus mismatch")
            if not c.is_rational():
                raise ValueError("candidate models must have rational roots")


def _sqrt_exact(r: Fraction) -> Optional[Fraction]:
    if r < 0:
        return None
    a, b = math.isqrt(r.numerator), math.isqrt(r.denominator)
    if a * a == r.numerator and b * b == r.denominator:
        return Fraction(a, b)
    return None


def _is_s_integral(spec: IntegralitySpec, pt: CurvePoint) -> bool:
    """Whether spec.func takes an S-integral value at pt (False at a pole)."""
    try:
        if pt.at_infinity:
            val = as_rational(spec.func.value_at_infinity())
        else:
            val = as_rational(spec.func.value_at(Fraction(pt.x)))
    except PoleError:
        return False
    return strip_primes(val.denominator, spec.s_primes) == 1


def _points_above(f: Poly, x: Fraction) -> List[CurvePoint]:
    """The rational points (x, -y), (x, y) on y^2 = f(x); one when y = 0."""
    y = _sqrt_exact(as_rational(f(x)))
    if y is None:
        return []
    if y == 0:
        return [CurvePoint.affine(x, Fraction(0))]
    return [CurvePoint.affine(x, -y), CurvePoint.affine(x, y)]


def _point_sort_key(p: CurvePoint):
    if p.at_infinity:
        return (1, Fraction(0), Fraction(0))
    return (0, Fraction(p.x), Fraction(p.y))


def brute_force_points(curve: HyperCurve, spec: IntegralitySpec) -> List[CurvePoint]:
    """Every affine rational point (a/b, y) with |a|, b <= H and f(P) an
    S-integer, solved exactly; sorted by x then y.  The search tries each
    reduced a/b, about (12/pi^2) H^2 = 1.2 H^2 values of x."""
    if not curve.is_rational():
        raise ValueError("brute force needs a rational split model")
    f = curve.poly()
    h = spec.height_bound
    out: List[CurvePoint] = []
    for b in range(1, h + 1):
        for a in range(-h, h + 1):
            if math.gcd(a, b) != 1:
                continue
            pts = _points_above(f, Fraction(a, b))
            if pts and _is_s_integral(spec, pts[0]):
                out.extend(pts)
    return sorted(out, key=_point_sort_key)


# The elimination works in the algebra generated over Z[x, a] by the eight
# square roots c_i = sqrt(D (x_Q - alpha_i)) and z_i = sqrt(D x - D alpha_i),
# D the common denominator of x_Q and the alpha_i, with a target a/b kept as
# a variable.  Elements map a bitmask of live generators (bits 0..3 the c_i,
# 4..7 the z_i) to a polynomial in x and a, packed into one int list with
# x^j a^k at _STRIDE * j + k.  Every term of an element has the same degree
# in (a, b), so b stays implicit; that degree never exceeds 16, so the
# product of two packed lists is their packed product.
_Elem = Dict[int, List[int]]
_STRIDE = 17


def _elem_mul(e1: _Elem, e2: _Elem, squares: Sequence[List[int]]) -> _Elem:
    out: _Elem = {}
    for k1, v1 in e1.items():
        for k2, v2 in e2.items():
            v = mul_coeffs(v1, v2)
            common = k1 & k2
            for atom, sq in enumerate(squares):
                if common >> atom & 1:
                    v = mul_coeffs(v, sq)
            key = k1 ^ k2
            acc = out.get(key)
            if acc is not None:
                v = [c + e for c, e in itertools.zip_longest(acc, v, fillvalue=0)]
            out[key] = v
    return {k: v for k, v in out.items() if any(v)}


def _norm_matrix(squares: Sequence[List[int]]) -> List[List[int]]:
    """The norm of b lhs - a rhs over the sixteen sign choices of the z_i,
    as the matrix M with M[j][k] the coefficient of x^j a^k b^(16-k)."""
    # b (c1 z3 - c3 z1)(c2 z4 - c4 z2) - a (c2 z3 - c3 z2)(c1 z4 - c4 z1),
    # each factor c_i z_j - c_j z_i, with the roots numbered from 0; b lhs
    # fills the a^0 slot of each seed term and -a rhs the a^1 slot
    seeds = ((0, 1, (0, 2), (1, 3)), (1, -1, (1, 2), (0, 3)))
    elem: _Elem = {}
    for power, sign, (i, j), (k, l) in seeds:
        for s1, c1, z1 in ((sign, i, j), (-sign, j, i)):
            for s2, c2, z2 in ((s1, k, l), (-s1, l, k)):
                key = 1 << c1 | 1 << (4 + z1) | 1 << c2 | 1 << (4 + z2)
                elem.setdefault(key, [0, 0])[power] += s2
    for bit in (16, 32, 64, 128):
        conj = {k: [-c for c in v] if k & bit else v for k, v in elem.items()}
        elem = _elem_mul(elem, conj, squares)
    if any(elem.keys() - {0}):
        raise InternalCheckError("norm product left unresolved square roots")
    packed = elem.get(0, [])
    packed += [0] * (-len(packed) % _STRIDE)
    return [packed[j : j + _STRIDE] for j in range(0, len(packed), _STRIDE)]


# Every column of M vanishes at x = x_Q to this order at least.
_BASE_ORDER = 12


def _base_factor(x_q: Fraction) -> List[int]:
    """(u x - v)^12 for x_Q = v/u in lowest terms, as an int list."""
    factor = [1]
    for _ in range(_BASE_ORDER):
        factor = mul_coeffs(factor, [-x_q.numerator, x_q.denominator])
    return factor


def _elimination_matrix(
    curve: HyperCurve, q_pt: CurvePoint, idx: Sequence[int]
) -> Tuple[List[List[int]], int]:
    """The norm matrix over the indexed roots with (u x - v)^12 divided out
    of every column, x_Q = v/u in lowest terms, and the scale D.

    At x = x_Q each z_i is +c_i or -c_i, and c_i z_j - c_j z_i vanishes when
    z_i and z_j take the same sign.  So ten of the sixteen conjugates vanish
    there, and the two whose signs all agree vanish to order two: the norm
    has order at least 12 at x_Q, which the exact division checks.  The
    factor u x - v is primitive, so the quotient stays over Z."""
    roots = curve.rational_roots()
    x_q = Fraction(q_pt.x)
    d, (dx_q, *alphas) = scaled([x_q] + [roots[i] for i in idx])
    squares = [[dx_q - a] for a in alphas] + [
        [-a] + [0] * (_STRIDE - 1) + [d] for a in alphas
    ]
    rows = exact_quotient(_norm_matrix(squares), _base_factor(x_q))
    if rows is None:
        raise InternalCheckError(
            "elimination matrix does not vanish at x = x_Q to order %d"
            % _BASE_ORDER
        )
    return rows, d


def _at_target(rows: Sequence[Sequence[int]], target: Fraction) -> List[int]:
    """The matrix at a target a/b: sum_k M[j][k] a^k b^(16-k) for each x^j."""
    a, b = target.numerator, target.denominator
    powers = [a**k * b ** (_STRIDE - 1 - k) for k in range(_STRIDE)]
    ints = [sum(map(operator.mul, row, powers)) for row in rows]
    if not any(ints):
        raise InternalCheckError("cross-ratio elimination collapsed to zero")
    return ints


def cr_elimination_poly(
    curve: HyperCurve,
    q_pt: CurvePoint,
    idx: Sequence[int],
    target: Rat,
) -> Poly:
    """Polynomial in x_P whose rational roots cover every solution of
    CR(beta_1, beta_2, beta_3, beta_4) = target over the four indexed roots.

    The cross-ratio identity is cleared of all sixteen square-root sign
    choices by norm-taking over each z_i, which provably lands back in Q[x].
    Each of the sixteen factors is linear in the target, so every
    coefficient of the result is a form of degree 16 in (a, b) for a
    target a/b; the norm is taken once with the target as a variable.

    The norm runs on integers.  Scaling every square by D scales each
    degree-4 term by D^2, and a target a/b enters as b lhs - a rhs, so the
    integer norm is D^32 b^16 times this one; that is divided out at the end.
    """
    target = as_rational(target)
    if target in (0, 1):
        raise ValueError("degenerate cross-ratio target")
    if len(idx) != 4 or len(set(idx)) != 4:
        raise ValueError("need four distinct root indices")
    if q_pt.at_infinity:
        raise ValueError("base point must be affine")
    if not all(0 <= i < len(curve.rational_roots()) for i in idx):
        raise ValueError("root index out of range")
    rows, d = _elimination_matrix(curve, q_pt, idx)
    ints = mul_coeffs(_at_target(rows, target), _base_factor(Fraction(q_pt.x)))
    scale = d**32 * target.denominator**16
    return Poly(Fraction(c, scale) for c in ints)


def _first_rational_pole(
    curve: HyperCurve, func: RatFunc, f: Optional[Poly] = None
) -> CurvePoint:
    """The least rational affine point of the curve at a pole of func; f is
    curve.poly(), built here when the caller has not built it."""
    if f is None:
        f = curve.poly()
    candidates: List[CurvePoint] = []
    if func.den.degree >= 1:
        for x0 in rational_roots(func.den):
            if func.is_pole(x0):
                candidates.extend(_points_above(f, x0))
    if not candidates:
        raise ValueError(
            "no rational affine pole available: enlarge base field required"
        )
    return min(candidates, key=_point_sort_key)


def exceptional_points(
    curve: HyperCurve, q_pt: CurvePoint
) -> List[CurvePoint]:
    """Weierstrass points, the point at infinity, the base pole and its
    involution image; the recovery's cross-ratio argument cannot see these."""
    out = [CurvePoint.affine(a, Fraction(0)) for a in curve.rational_roots()]
    if curve.degree % 2 == 1:
        out.append(CurvePoint.infinity())
    out.append(q_pt)
    out.append(hyperelliptic_involution(curve, q_pt))
    return out


def _distinct_targets(candidates: CandidateSet) -> Dict[Fraction, str]:
    """Each distinct cross-ratio of four candidate roots in first-seen order,
    named by the first permutation reaching it.  The roots are scaled to
    integers, which fixes every cross-ratio, and each is keyed on its reduced
    pair n/m, n = (a - c)(b - d) and m = (b - c)(a - d); distinct roots make
    it neither 0 nor 1.  A permutation is skipped when a double
    transposition of it, which fixes its cross-ratio too, came earlier."""
    targets: Dict[Fraction, str] = {}
    keys = set()
    for ci, cand in enumerate(candidates.curves):
        _, ints = scaled(cand.rational_roots())
        seen = set()
        for combo in itertools.permutations(range(len(ints)), 4):
            if combo in seen:
                continue
            i, j, k, l = combo
            seen.update(((j, i, l, k), (k, l, i, j), (l, k, j, i)))
            a, b, c, d = ints[i], ints[j], ints[k], ints[l]
            n, m = (a - c) * (b - d), (b - c) * (a - d)
            g = math.gcd(n, m) if m > 0 else -math.gcd(n, m)
            key = (n // g, m // g)
            if key not in keys:
                keys.add(key)
                target = Fraction(*key)
                targets[target] = "candidate %d, roots (%d,%d,%d,%d), cr %s" % (
                    ci,
                    *combo,
                    target,
                )
    return targets


def recover_points_detailed(
    curve: HyperCurve,
    spec: IntegralitySpec,
    candidates: CandidateSet,
) -> List[Tuple[CurvePoint, str]]:
    """recover_points plus a provenance string per point."""
    if not curve.is_rational():
        raise ValueError("recovery needs a rational split model")
    if curve.genus < 2:
        raise ValueError("recovery needs genus at least 2")
    if candidates.genus != curve.genus:
        raise ValueError("candidate genus does not match the curve")
    f = curve.poly()
    q_pt = _first_rational_pole(curve, spec.func, f)
    targets = _distinct_targets(candidates)
    found: Dict[Tuple, Tuple[CurvePoint, str]] = {}
    lifted = set()
    rows = _elimination_matrix(curve, q_pt, (0, 1, 2, 3))[0] if targets else []
    for target, via in targets.items():
        for x_p in int_rational_roots(_at_target(rows, target)):
            if x_p in lifted:
                continue
            lifted.add(x_p)
            pts = _points_above(f, x_p)
            if pts and _is_s_integral(spec, pts[0]):
                found.update((_point_sort_key(pt), (pt, via)) for pt in pts)
    for pt in exceptional_points(curve, q_pt):
        if is_on_curve(curve, pt) and _is_s_integral(spec, pt):
            found.setdefault(_point_sort_key(pt), (pt, "exceptional set"))
    return [found[k] for k in sorted(found)]


def recover_points(
    curve: HyperCurve,
    spec: IntegralitySpec,
    candidates: CandidateSet,
) -> List[CurvePoint]:
    """All S-integral points reachable from the candidate cover models,
    plus the exceptional-set survivors; deduplicated and sorted."""
    return [pt for pt, _ in recover_points_detailed(curve, spec, candidates)]
