"""Point counts over finite fields, numerators of zeta functions, and the
Jacobian product identity linking a curve, its double cover, and the
Prym-side model.

Counts use the quadratic-character form sum_x (1 + chi(f(x))) plus the
standard contribution at infinity.  The double cover z^2 = y + h(x) of an
odd-degree model y^2 = f is counted fiberwise over the base, but the naive
character sum is wrong at the even-order zeros of y + h: those sit exactly
at the roots x0 of F (where (y+h)(h-y) = (x-x_P)(x-x_Q)F^2 forces a double
zero), the affine cover model is singular there, and the smooth model has
1 + chi((x0-x_P)(x0-x_Q)*2h(x0)) points above each.  Above the base's place
at infinity the even pole of y + h contributes 1 + chi(lc(h)*lc(f)^(g+1)).

Every sum runs in the field's discrete-log representation: f, h and F are
evaluated by Horner on logs (a product adds logs, a sum is a Zech lookup),
chi is the parity of a log and a square root halves it.  All of f, h, F,
x_P and x_Q lie in F_p, so each summand is constant on the Frobenius orbits
{x^(p^j)}; the sums visit x = 0 and one representative per orbit, weighted
by the orbit's size.  The tests check every count against a definitional
enumeration on tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import modp
from .covers import CoverCertificate
from .curves import HyperCurve
from .errors import InternalCheckError
from .finitefield import (
    ZERO_LOG,
    FiniteField,
    check_field_order,
    get_field,
    least_nonresidue,
)
from .polys import poly_disc
from .scalars import as_rational, is_prime, rat_ord_p


@dataclass(frozen=True)
class FFCurve:
    """y^2 = lead * prod (x - root_i) over F_p, roots distinct mod p."""

    p: int
    roots: Tuple[int, ...]
    lead: int = 1

    def __post_init__(self):
        p = self.p
        if p < 3 or not is_prime(p):
            raise ValueError(f"need an odd prime characteristic, got {p}")
        roots = tuple(r % p for r in self.roots)
        lead = self.lead % p
        if lead == 0:
            raise ValueError("leading coefficient vanishes mod p")
        if len(set(roots)) != len(roots):
            raise ValueError("roots collide mod p")
        object.__setattr__(self, "roots", roots)
        object.__setattr__(self, "lead", lead)

    @property
    def degree(self) -> int:
        return len(self.roots)

    @property
    def genus(self) -> int:
        return (self.degree + 1) // 2 - 1

    def coeffs(self) -> Tuple[int, ...]:
        """Dense coefficients of lead * prod (x - root_i) mod p."""
        out = [self.lead]
        for r in self.roots:
            out = modp.mul(out, [-r, 1], self.p)
        return tuple(out)


def reduce_curve(curve: HyperCurve, p: int) -> FFCurve:
    """Reduction mod an odd prime; fails when a root escapes, two roots
    collide, or the leading coefficient loses a factor of p."""
    if not is_prime(p) or p == 2:
        raise ValueError(f"reduction needs an odd prime, got {p}")
    if not curve.is_rational():
        raise ValueError("reduction needs a rational model")
    lead = as_rational(curve.lead)
    if rat_ord_p(lead, p) != 0:
        raise ValueError(f"leading coefficient is not a unit at {p}")
    roots = []
    for r in curve.rational_roots():
        if r.denominator % p == 0:
            raise ValueError(f"root {r} escapes to infinity mod {p}")
        roots.append(modp.rat_mod(r, p))
    if len(set(roots)) != len(roots):
        raise ValueError(f"roots collide mod {p}")
    return FFCurve(p, tuple(roots), modp.rat_mod(lead, p))


def _chi(lg: int) -> int:
    """Quadratic character of the element with log lg.  q - 1 is even, so
    the parity of a log that is not yet reduced mod q - 1 is still right."""
    return 0 if lg < 0 else 1 - 2 * (lg & 1)


def _check_fp(p: int, values: Sequence[int]) -> None:
    """Orbit weighting is only valid for data fixed by Frobenius."""
    if not all(isinstance(v, int) and 0 <= v < p for v in values):
        raise InternalCheckError("orbit-weighted counts need F_p data")


def _orbit_logs(field: FiniteField, coeffs: Sequence[int]) -> List[int]:
    """Logs of a polynomial with F_p coefficients (constant first) at g^r for
    every Frobenius orbit representative r, by Horner on logs."""
    _check_fp(field.p, coeffs)
    tabs = field.logs()
    log, zech = tabs.log, tabs.zech
    n = field.order - 1
    lcs = [log[c] for c in reversed(coeffs)]
    lead, rest = lcs[0], lcs[1:]
    out = []
    for lx in field.frobenius_orbits()[0]:
        acc = lead
        for lc in rest:
            if acc < 0:
                acc = lc
            elif lc >= 0:
                z = zech[(acc + lx - lc) % n]
                acc = ZERO_LOG if z < 0 else (lc + z) % n
            else:
                acc = (acc + lx) % n
        out.append(acc)
    return out


def count_points(ffc: FFCurve, deg: int = 1) -> int:
    """Number of points of the smooth model over F_{p^deg}: the affine
    character sum plus one point above infinity for an odd-degree model, or
    1 + chi(lead) points for an even-degree model."""
    field = get_field(ffc.p, deg)
    coeffs = ffc.coeffs()
    lfs = _orbit_logs(field, coeffs)
    log = field.logs().log
    total = field.order + _chi(log[coeffs[0]])
    for size, lf in zip(field.frobenius_orbits()[1], lfs):
        total += size * _chi(lf)
    if ffc.degree % 2 == 1:
        total += 1
    else:
        total += 1 + _chi(log[ffc.lead])
    return total


@dataclass(frozen=True)
class ReducedCover:
    """Mod-p branch data of the double cover z^2 = y + h(x) of an odd model
    y^2 = f(x): the reduced base, the coefficients of h (degree g+1) and of
    the cofactor F from h^2 - f = (x - x_p)(x - x_q) F^2, and the reduced
    x-coordinates of the two marked points."""

    base: FFCurve
    h: Tuple[int, ...]
    big_f: Tuple[int, ...]
    x_p: int
    x_q: int


def reduce_cover(cert: CoverCertificate, p: int) -> ReducedCover:
    """Reduce a cover certificate mod an odd prime, checking every condition
    the smooth-model point count needs; raises ValueError with the obstruction
    when p is unusable."""
    t = cert.beta
    try:
        base = reduce_curve(t.curve, p)
    except ValueError as exc:
        raise ValueError(f"base model: {exc}") from None
    if base.degree % 2 == 0:
        raise ValueError("double-cover counts need an odd-degree base model")
    x_p, x_q = Fraction(t.p.x), Fraction(t.q.x)
    for v in (x_p, x_q):
        if rat_ord_p(v, p) < 0:
            raise ValueError("a marked point is not p-integral")
    if rat_ord_p(x_p - x_q, p) != 0:
        raise ValueError("marked points collide mod p")
    for name, poly in (("h", cert.h), ("F", cert.big_f)):
        for c in poly.coeffs:
            if as_rational(c).denominator % p == 0:
                raise ValueError(f"{name} has a p in a denominator")
    h_mod = modp.poly_mod(cert.h, p)
    if len(h_mod) != base.genus + 2:
        raise ValueError("h must have degree genus+1")
    if h_mod[-1] == 0:
        raise ValueError("leading coefficient of h vanishes mod p")
    big_f_mod = modp.poly_mod(cert.big_f, p)
    if len(big_f_mod) != base.genus + 1:
        raise ValueError("F must have degree equal to the genus")
    if big_f_mod[-1] == 0:
        raise InternalCheckError("F lost degree mod p despite a unit lc(h)")
    if len(big_f_mod) >= 3:
        disc = as_rational(poly_disc(cert.big_f))
        if disc == 0:
            raise ValueError("branch polynomial F has a repeated factor")
        if rat_ord_p(disc, p) != 0:
            raise ValueError("branch locus degenerates mod p")
    xp_i = modp.rat_mod(x_p, p)
    xq_i = modp.rat_mod(x_q, p)
    # The exact identity h^2 - f = (x - x_p)(x - x_q) F^2 must survive
    # reduction; everything above is p-integral, so this is a plumbing check.
    lhs = modp.sub(modp.mul(h_mod, h_mod, p), base.coeffs(), p)
    rhs = modp.mul(modp.mul([-xp_i, 1], [-xq_i, 1], p), modp.mul(big_f_mod, big_f_mod, p), p)
    if lhs != rhs:
        raise InternalCheckError("cover identity failed to reduce mod p")
    return ReducedCover(base, h_mod, big_f_mod, xp_i, xq_i)


def count_double_cover(cover: ReducedCover, deg: int = 1) -> int:
    """Number of points over F_{p^deg} of the smooth model of the double
    cover z^2 = y + h(x) of an odd-degree base y^2 = f(x).

    Affine base points (x, y) with y + h(x) nonzero contribute
    1 + chi(y + h(x)).  Where y + h vanishes, the valuation decides: at the
    marked points (odd valuation) the cover is ramified and contributes 1,
    while above a root x0 of F the zero has order two, the naive plane model
    is singular there, and the smooth model has
    1 + chi((x0 - x_p)(x0 - x_q) * 2 h(x0)) points.  Above the base's point
    at infinity the even pole of y + h gives 1 + chi(lc(h) * lc(f)^(g+1)).
    """
    base = cover.base
    p = base.p
    _check_fp(p, (cover.x_p, cover.x_q))
    field = get_field(p, deg)
    tabs = field.logs()
    log, zech = tabs.log, tabs.zech
    n = field.order - 1
    half = n // 2
    lneg_xp, lneg_xq = log[-cover.x_p % p], log[-cover.x_q % p]
    l2 = log[2 % p]

    def fiber(lx: int, lf: int, lh: int, lg: int) -> int:
        """Points above x = g^lx (x = 0 for lx = ZERO_LOG) given the logs of
        f(x), h(x) and F(x)."""
        if lf < 0:
            # y = 0; h(x) = 0 here would force f(x) = h(x)^2 = 0 too, and
            # either way the fiber has 1 + chi(h(x)) points.
            return 1 + _chi(lh)
        if lf & 1:
            return 0
        pts = 0
        for ly in (lf >> 1, (lf >> 1) + half):
            if lh < 0:
                pts += 1 + _chi(ly)
            else:
                z = zech[(ly - lh) % n]
                if z >= 0:
                    pts += 1 + _chi(lh + z)
                elif lg < 0:
                    # y + h(x) = 0 above a root of F: the singular point
                    w = (
                        _chi(tabs.add(lx, lneg_xp))
                        * _chi(tabs.add(lx, lneg_xq))
                        * _chi(l2)
                        * _chi(lh)
                    )
                    pts += 1 + w
                else:
                    pts += 1
        return pts

    coeffs = (base.coeffs(), cover.h, cover.big_f)
    logs = [_orbit_logs(field, c) for c in coeffs]
    total = fiber(ZERO_LOG, *(log[c[0]] for c in coeffs))
    reps, sizes = field.frobenius_orbits()
    for lx, size, lf, lh, lg in zip(reps, sizes, *logs):
        total += size * fiber(lx, lf, lh, lg)
    lam = cover.h[-1] * pow(base.lead, base.genus + 1, p) % p
    total += 1 + _chi(log[lam])
    return total


@dataclass(frozen=True)
class LPoly:
    """Numerator of a zeta function: integer coefficients, constant 1."""

    coeffs: Tuple[int, ...]
    q: int
    genus: int

    def order(self) -> int:
        """Value at 1: the number of rational points of the Jacobian."""
        return sum(self.coeffs)

    def __call__(self, t: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc


def l_polynomial(q: int, counts: Sequence[int], genus: int) -> LPoly:
    """Zeta numerator of a genus-`genus` curve over F_q from the point counts
    over F_{q^i}, i = 1..genus.

    Power sums of the reciprocal roots come from s_i = q^i + 1 - N_i; Newton
    identities give the first half of the coefficients and the functional
    equation a_{2g-j} = q^(g-j) a_j fills the rest.  Verifies the Weil bound
    on every count, integrality of all coefficients, and positivity of the
    value at 1.
    """
    g = genus
    if g < 1:
        raise ValueError("genus must be at least 1")
    if len(counts) < g:
        raise ValueError(f"need point counts over F_q^i for i = 1..{g}")
    s = []
    for i in range(1, g + 1):
        n_i = counts[i - 1]
        if (n_i - q**i - 1) ** 2 > 4 * g * g * q**i:
            raise ValueError(
                f"count {n_i} over F_q^{i} violates the Weil bound for genus {g}"
            )
        s.append(q**i + 1 - n_i)
    e: List[Fraction] = [Fraction(1)]
    for k in range(1, g + 1):
        acc = Fraction(0)
        for m in range(1, k + 1):
            acc += (-1) ** (m - 1) * e[k - m] * s[m - 1]
        e.append(acc / k)
    a: List[int] = [0] * (2 * g + 1)
    for j in range(g + 1):
        aj = (-1) ** j * e[j]
        if aj.denominator != 1:
            raise InternalCheckError("zeta numerator coefficient is not integral")
        a[j] = int(aj)
    for j in range(g):
        a[2 * g - j] = q ** (g - j) * a[j]
    lp = LPoly(tuple(a), q, g)
    order = lp.order()
    if order <= 0:
        raise InternalCheckError("Jacobian order must be positive")
    if g == 1 and order != counts[0]:
        raise InternalCheckError("genus-1 order must equal the point count")
    if g == 2:
        # Independent closed form for the value at 1.
        n1, n2 = counts[0], counts[1]
        if 2 * order != n1 * n1 + n2 - 2 * q:
            raise InternalCheckError("genus-2 order cross-check failed")
    return lp


def jacobian_order(ffc: FFCurve) -> int:
    """Jacobian order of a reduced curve via counts over F_{p^i}, i <= genus."""
    counts = [count_points(ffc, i) for i in range(1, ffc.genus + 1)]
    return l_polynomial(ffc.p, counts, ffc.genus).order()


@dataclass(frozen=True)
class PrymCheckReport:
    """Outcome of the Jacobian product identity test at one good prime.

    The Prym-side model is only defined up to quadratic twist, so orders for
    both the trivial twist ("1") and the least nonresidue twist are computed;
    `matched_twists` lists those c with
        #J(cover) = #J(base) * #J(prym twisted by c).
    """

    prime: int
    counts_base: Tuple[int, ...]
    counts_cover: Tuple[int, ...]
    counts_prym: Dict[str, Tuple[int, ...]]
    order_base: int
    order_cover: int
    orders_prym: Dict[str, int]
    matched_twists: Tuple[str, ...]
    nonresidue: int


def _prym_roots(cert: CoverCertificate) -> Tuple[Fraction, ...]:
    return (Fraction(1),) + tuple(as_rational(b) for b in cert.beta.betas)


def _reduce_for_check(cert: CoverCertificate, p: int) -> Tuple[Optional[ReducedCover], str]:
    """The reduced cover and "" when p is usable, else None and the
    obstruction."""
    try:
        cover = reduce_cover(cert, p)
    except ValueError as exc:
        return None, str(exc)
    try:
        reduce_curve(HyperCurve(_prym_roots(cert), Fraction(1)), p)
    except ValueError as exc:
        return None, f"prym model: {exc}"
    return cover, ""


def prym_check_obstruction(cert: CoverCertificate, p: int) -> str:
    """Why the product identity cannot be tested at p; empty string if good."""
    return _reduce_for_check(cert, p)[1]


def prym_product_check(cert: CoverCertificate, p: int) -> PrymCheckReport:
    """Test #J(cover) = #J(base) * #J(prym twist) over F_p at a good prime.

    Counts the base curve over F_{p^i} (i <= g), the double cover over
    F_{p^i} (i <= 2g), and both quadratic twists of the Prym-side model,
    then compares Jacobian orders.  Raises ValueError when p is unusable,
    with the obstruction in the message, and when F_{p^(2g)} is larger than
    MAX_FIELD_ORDER, before any field is built.
    """
    if p == 2 or not is_prime(p):
        raise ValueError(f"need an odd prime, got {p}")
    t = cert.beta
    g = t.curve.genus
    check_field_order(p, 2 * g)
    for b in t.betas:
        try:
            as_rational(b)
        except ValueError:
            raise ValueError("product check needs a rational beta tuple") from None
    cover, reason = _reduce_for_check(cert, p)
    if reason:
        raise ValueError(f"prime {p} unusable: {reason}")
    base_ff = cover.base
    counts_base = tuple(count_points(base_ff, i) for i in range(1, g + 1))
    counts_cover = tuple(count_double_cover(cover, i) for i in range(1, 2 * g + 1))
    order_base = l_polynomial(p, counts_base, g).order()
    order_cover = l_polynomial(p, counts_cover, 2 * g).order()
    nr = least_nonresidue(p)
    prym_roots = _prym_roots(cert)
    counts_prym: Dict[str, Tuple[int, ...]] = {}
    orders_prym: Dict[str, int] = {}
    for label, lead in (("1", 1), (str(nr), nr)):
        ff = reduce_curve(HyperCurve(prym_roots, Fraction(lead)), p)
        cs = tuple(count_points(ff, i) for i in range(1, g + 1))
        counts_prym[label] = cs
        orders_prym[label] = l_polynomial(p, cs, g).order()
    matched = tuple(
        label
        for label in ("1", str(nr))
        if order_cover == order_base * orders_prym[label]
    )
    return PrymCheckReport(
        prime=p,
        counts_base=counts_base,
        counts_cover=counts_cover,
        counts_prym=counts_prym,
        order_base=order_base,
        order_cover=order_cover,
        orders_prym=orders_prym,
        matched_twists=matched,
        nonresidue=nr,
    )
