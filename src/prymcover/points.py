"""S-integral point enumeration and the cross-ratio recovery algorithm.

brute_force_points is the bounded-height oracle; recover_points matches a
candidate list of even-degree cover models against the curve by equating
cross-ratios of cover roots with cross-ratios of the square-root functions
z_i = sqrt(x - alpha_i), eliminating the sign ambiguity with a 16-conjugate
norm product.  The rational roots of each elimination polynomial come from
`modp.rational_roots`, re-exported here.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .covers import cross_ratio
from .curves import CurvePoint, HyperCurve, hyperelliptic_involution, is_on_curve
from .errors import InternalCheckError
from .modp import rational_roots
from .polys import PoleError, Poly, RatFunc
from .scalars import Rat, as_rational, is_prime


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
        ps = []
        for p in self.s_primes:
            p = int(p)
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            ps.append(p)
        object.__setattr__(self, "s_primes", tuple(sorted(set(ps))))


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


def _value_is_s_integral(spec: IntegralitySpec, x: Fraction) -> bool:
    if spec.func.is_pole(x):
        return False
    val = as_rational(spec.func.value_at(x))
    den = val.denominator
    for p in spec.s_primes:
        while den % p == 0:
            den //= p
    return den == 1


def _infinity_is_s_integral(spec: IntegralitySpec) -> bool:
    try:
        val = as_rational(spec.func.value_at_infinity())
    except PoleError:
        return False
    den = val.denominator
    for p in spec.s_primes:
        while den % p == 0:
            den //= p
    return den == 1


def _point_sort_key(p: CurvePoint):
    if p.at_infinity:
        return (1, Fraction(0), Fraction(0))
    return (0, Fraction(p.x), Fraction(p.y))


def brute_force_points(curve: HyperCurve, spec: IntegralitySpec) -> List[CurvePoint]:
    """Every affine rational point (a/b, y) with |a|, b <= H and f(P) an
    S-integer, solved exactly; sorted by x then y."""
    if not curve.is_rational():
        raise ValueError("brute force needs a rational split model")
    f = curve.poly()
    h = spec.height_bound
    out: List[CurvePoint] = []
    for b in range(1, h + 1):
        for a in range(-h, h + 1):
            if math.gcd(a, b) != 1:
                continue
            x = Fraction(a, b)
            y = _sqrt_exact(as_rational(f(x)))
            if y is None or not _value_is_s_integral(spec, x):
                continue
            if y == 0:
                out.append(CurvePoint.affine(x, Fraction(0)))
            else:
                out.append(CurvePoint.affine(x, -y))
                out.append(CurvePoint.affine(x, y))
    return sorted(out, key=_point_sort_key)


# The elimination works in the algebra generated over Q[x] by the eight
# square roots c_i = sqrt(x_Q - alpha_i) (constants) and z_i =
# sqrt(x - alpha_i) (functions of x).  Elements are maps from the subset of
# live generators to Poly coefficients; atoms 0..3 are the c_i, 4..7 the z_i.
_Elem = Dict[FrozenSet[int], Poly]


def _elem_mul(e1: _Elem, e2: _Elem, squares: Sequence[Poly]) -> _Elem:
    out: _Elem = {}
    for k1, v1 in e1.items():
        for k2, v2 in e2.items():
            v = v1 * v2
            for atom in k1 & k2:
                v = v * squares[atom]
            key = k1 ^ k2
            acc = out.get(key)
            v = v if acc is None else acc + v
            if v.is_zero():
                out.pop(key, None)
            else:
                out[key] = v
    return out


def _elem_flip(e: _Elem, atom: int) -> _Elem:
    return {k: (-v if atom in k else v) for k, v in e.items()}


def _elem_sub(e1: _Elem, e2: _Elem) -> _Elem:
    out = dict(e1)
    for k, v in e2.items():
        diff = out.get(k, Poly()) - v
        if diff.is_zero():
            out.pop(k, None)
        else:
            out[k] = diff
    return out


def _pair_term(c_atom: int, z_atom: int, c_atom2: int, z_atom2: int) -> _Elem:
    """c_a z_b - c_a2 z_b2 as an algebra element."""
    one = Poly([Fraction(1)])
    return {
        frozenset({c_atom, 4 + z_atom}): one,
        frozenset({c_atom2, 4 + z_atom2}): -one,
    }


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
    """
    target = as_rational(target)
    if target in (0, 1):
        raise ValueError("degenerate cross-ratio target")
    if len(idx) != 4 or len(set(idx)) != 4:
        raise ValueError("need four distinct root indices")
    if q_pt.at_infinity:
        raise ValueError("base point must be affine")
    roots = curve.rational_roots()
    if not all(0 <= i < len(roots) for i in idx):
        raise ValueError("root index out of range")
    x_q = Fraction(q_pt.x)
    alphas = [roots[i] for i in idx]
    squares = [Poly.constant(x_q - a) for a in alphas] + [
        Poly([-a, Fraction(1)]) for a in alphas
    ]
    # (c1 z3 - c3 z1)(c2 z4 - c4 z2) - t (c2 z3 - c3 z2)(c1 z4 - c4 z1)
    lhs = _elem_mul(_pair_term(0, 2, 2, 0), _pair_term(1, 3, 3, 1), squares)
    rhs = _elem_mul(_pair_term(1, 2, 2, 1), _pair_term(0, 3, 3, 0), squares)
    rhs = {k: v * Poly.constant(target) for k, v in rhs.items()}
    elem = _elem_sub(lhs, rhs)
    for z_atom in (4, 5, 6, 7):
        elem = _elem_mul(elem, _elem_flip(elem, z_atom), squares)
    stray = [k for k in elem if k]
    if stray:
        raise InternalCheckError("norm product left unresolved square roots")
    poly = elem.get(frozenset(), Poly())
    if poly.is_zero():
        raise InternalCheckError("cross-ratio elimination collapsed to zero")
    return poly


def _first_rational_pole(curve: HyperCurve, func: RatFunc) -> CurvePoint:
    f = curve.poly()
    candidates: List[CurvePoint] = []
    if func.den.degree >= 1:
        for x0 in rational_roots(func.den):
            if not func.is_pole(x0):
                continue
            y = _sqrt_exact(as_rational(f(x0)))
            if y is None:
                continue
            if y == 0:
                candidates.append(CurvePoint.affine(x0, Fraction(0)))
            else:
                candidates.append(CurvePoint.affine(x0, -y))
                candidates.append(CurvePoint.affine(x0, y))
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
    q_pt = _first_rational_pole(curve, spec.func)
    f = curve.poly()
    found: Dict[Tuple, Tuple[CurvePoint, str]] = {}

    def offer(pt: CurvePoint, via: str) -> None:
        if pt.at_infinity:
            ok = _infinity_is_s_integral(spec)
        else:
            ok = is_on_curve(curve, pt) and _value_is_s_integral(
                spec, Fraction(pt.x)
            )
        if ok:
            found.setdefault(_point_sort_key(pt), (pt, via))

    elim_cache: Dict[Fraction, List[Fraction]] = {}
    idx = (0, 1, 2, 3)
    for ci, cand in enumerate(candidates.curves):
        gammas = cand.rational_roots()
        for combo in itertools.permutations(range(len(gammas)), 4):
            target = cross_ratio(*(gammas[i] for i in combo))
            target = as_rational(target)
            if target in (0, 1):
                continue
            if target not in elim_cache:
                poly = cr_elimination_poly(curve, q_pt, idx, target)
                elim_cache[target] = rational_roots(poly)
            for x_p in elim_cache[target]:
                y = _sqrt_exact(as_rational(f(x_p)))
                if y is None:
                    continue
                via = "candidate %d, roots (%d,%d,%d,%d), cr %s" % (
                    ci,
                    *combo,
                    target,
                )
                offer(CurvePoint.affine(x_p, y), via)
                if y != 0:
                    offer(CurvePoint.affine(x_p, -y), via)
    for pt in exceptional_points(curve, q_pt):
        offer(pt, "exceptional set")
    return [found[k] for k in sorted(found)]


def recover_points(
    curve: HyperCurve,
    spec: IntegralitySpec,
    candidates: CandidateSet,
) -> List[CurvePoint]:
    """All S-integral points reachable from the candidate cover models,
    plus the exceptional-set survivors; deduplicated and sorted."""
    return [pt for pt, _ in recover_points_detailed(curve, spec, candidates)]
