"""S-integral point enumeration and the cross-ratio recovery algorithm.

brute_force_points is the bounded-height oracle; recover_points matches a
candidate list of even-degree cover models against the curve by equating
cross-ratios of cover roots with cross-ratios of the square-root functions
z_i = sqrt(x - alpha_i), eliminating the sign ambiguity with a 16-conjugate
norm product.  That norm has degree at most 16 in the target, so a recovery
call eliminates at 17 integer nodes, interpolates in the target, checks the
result at an 18th node, and then evaluates each distinct cross-ratio target
with integer arithmetic.  The rational roots of each evaluated polynomial come
from `modp.rational_roots`, re-exported here; each root x is lifted to the
curve once.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .covers import cross_ratio
from .curves import CurvePoint, HyperCurve, hyperelliptic_involution, is_on_curve
from .errors import InternalCheckError
from .modp import rational_roots
from .polys import PoleError, Poly, RatFunc
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
    Each of the sixteen factors is linear in the target, so every
    coefficient of the result is a polynomial of degree <= 16 in it.
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


# cr_elimination_poly is Norm(A - t B) over sixteen sign choices, each factor
# linear in t, so each x-coefficient is a polynomial of degree <= 16 in t.
# Seventeen nodes determine it; an eighteenth checks the interpolation.
_T_NODES = tuple(range(2, 19))
_T_CHECK = Fraction(-7, 3)


def _elimination_in_t(curve: HyperCurve, q_pt: CurvePoint) -> List[Tuple[int, ...]]:
    """The elimination over roots (0, 1, 2, 3) as an integer matrix in t.

    The nodes are consecutive integers, so the k-th Newton divided
    difference is the k-th forward difference over k!.  With L the common
    denominator of the node polynomials, cols[j][k] = L * 16! * D_k[j] is
    an integer.  The matrix is checked exactly against cr_elimination_poly
    at _T_CHECK.
    """
    idx = (0, 1, 2, 3)
    rows = [cr_elimination_poly(curve, q_pt, idx, t).coeffs for t in _T_NODES]
    width = max(len(r) for r in rows)
    lcd = math.lcm(*(c.denominator for r in rows for c in r))
    ints = [[int(c * lcd) for c in r] + [0] * (width - len(r)) for r in rows]
    top = len(_T_NODES) - 1
    diffs = []
    for k in range(top + 1):
        weight = math.factorial(top) // math.factorial(k)
        diffs.append([c * weight for c in ints[0]])
        ints = [[u - v for u, v in zip(r1, r0)] for r0, r1 in zip(ints, ints[1:])]
    cols = list(zip(*diffs))
    scale = lcd * math.factorial(top) * _T_CHECK.denominator**top
    direct = cr_elimination_poly(curve, q_pt, idx, _T_CHECK)
    if Poly(_eval_in_t(cols, _T_CHECK)) != direct * scale:
        raise InternalCheckError("interpolated elimination fails at the check node")
    return cols


def _eval_in_t(cols: Sequence[Sequence[int]], target: Fraction) -> List[int]:
    """L * 16! * b^16 * cr_elimination_poly(a/b), coefficient by coefficient,
    for a target a/b: sum_k cols[j][k] b^(16-k) prod_{i<k} (a - t_i b)."""
    a, b = target.numerator, target.denominator
    weights = []
    prod = 1
    for k, t in enumerate(_T_NODES):
        weights.append(prod * b ** (len(_T_NODES) - 1 - k))
        prod *= a - t * b
    return [sum(map(operator.mul, col, weights)) for col in cols]


def _first_rational_pole(curve: HyperCurve, func: RatFunc) -> CurvePoint:
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
    targets: Dict[Fraction, str] = {}
    for ci, cand in enumerate(candidates.curves):
        gammas = cand.rational_roots()
        for combo in itertools.permutations(range(len(gammas)), 4):
            target = as_rational(cross_ratio(*(gammas[i] for i in combo)))
            if target not in (0, 1) and target not in targets:
                targets[target] = "candidate %d, roots (%d,%d,%d,%d), cr %s" % (
                    ci,
                    *combo,
                    target,
                )
    found: Dict[Tuple, Tuple[CurvePoint, str]] = {}
    lifted = set()
    cols = _elimination_in_t(curve, q_pt) if targets else []
    for target, via in targets.items():
        poly = Poly(_eval_in_t(cols, target))
        if poly.is_zero():
            raise InternalCheckError("cross-ratio elimination collapsed to zero")
        for x_p in rational_roots(poly):
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
