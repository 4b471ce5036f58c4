"""Point counts over finite fields, numerators of zeta functions, and the
Jacobian product identity linking a curve, its double cover, and the
Prym-side model.

A split model y^2 = lead * prod (x - r_i), roots in F_p, gets its zeta
numerator from Legendre symbols over F_p alone (`split_l_polynomial`): the
numerator is the L-function of the quadratic character of F_p[x] attached
to f, whose coefficients are character sums over monic polynomials (E.
Artin 1924; M. Rosen, Number Theory in Function Fields, GTM 210, ch. 17).
The base curve and both Prym twists are split, so only the double cover is
counted over extension fields.

`count_points` is the definitional route, kept as the oracle: the
character sum sum_x (1 + chi(f(x))) over F_{p^k} plus the standard
contribution at infinity.  The double cover z^2 = y + h(x) of an
odd-degree model y^2 = f is counted fiberwise over the base from the norm
identity (h + y)(h - y) = d F^2, d = (x - x_P)(x - x_Q): the base points
(x, +-y0), y0 != 0, carry 2 + chi(u)(1 + chi(d)) cover points, u a nonzero
one of h(x) +- y0.  That covers the ramified points (d = 0) and the smooth
model above the double zeros of y + h at the roots of F, so F is never
evaluated.  Above the base's place at infinity the even pole of y + h
contributes 1 + chi(lc(h)*lc(f)^(g+1)).

Every sum over F_{p^k} runs in the field's discrete-log representation: f
and h are evaluated by Horner on logs (a product adds logs, a sum is a Zech
lookup), chi is the parity of a log and a square root halves it.  All of f,
h, x_P and x_Q lie in F_p, so each summand is constant on the Frobenius
orbits {x^(p^j)}; the sums visit one representative per orbit, weighted by
the orbit's size.  The cover count reads chi(f(x)) and chi(d) for every x
at once from rotations of the field's packed Zech parities and evaluates f
and h only where both are +1.  The tests check every count against a
definitional enumeration with the field's own `add`, `mul` and `chi` that
evaluates F.

The product identity needs no field past F_{p^g}.  Jac(cover) is isogenous
to Jac(base) x Prym (Mumford, "Prym varieties I", 1974), so
L_cover = L_base * L_prym, and the g-dimensional factor L_prym is fixed by
its first g power sums s_k(cover) - s_k(base) and its functional equation
(Kani and Rosen, Math. Ann. 284, 1989).  The cover's counts over
F_{p^(g+1)}..F_{p^(2g)} are read back from that product.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, product
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

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
from .polys import mul_coeffs, poly_disc
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


def _horner_logs(field: FiniteField, coeffs: Sequence[int], lxs: Iterable[int]) -> Iterator[int]:
    """Logs of a polynomial with F_p coefficients (constant first) at g^lx for
    each lx in lxs, by Horner on logs."""
    _check_fp(field.p, coeffs)
    tabs = field.logs()
    log, zech = tabs.log, tabs.zech
    n = field.order - 1
    lcs = [log[c] for c in reversed(coeffs)]
    lead, rest = lcs[0], lcs[1:]
    for lx in lxs:
        acc = lead
        for lc in rest:
            if acc < 0:
                acc = lc
            elif lc >= 0:
                z = zech[(acc + lx - lc) % n]
                acc = ZERO_LOG if z < 0 else (lc + z) % n
            else:
                acc = (acc + lx) % n
        yield acc


def count_points(ffc: FFCurve, deg: int = 1) -> int:
    """Number of points of the smooth model over F_{p^deg}: the affine
    character sum plus one point above infinity for an odd-degree model, or
    1 + chi(lead) points for an even-degree model.  This walks the field
    tables and is the oracle for `split_l_polynomial`."""
    field = get_field(ffc.p, deg)
    coeffs = ffc.coeffs()
    reps, sizes = field.frobenius_orbits()
    log = field.logs().log
    total = field.order + _chi(log[coeffs[0]])
    for size, lf in zip(sizes, _horner_logs(field, coeffs, reps)):
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
    # F is p-integral with a unit lead, so p divides disc(F) exactly when F
    # mod p has a repeated factor; the rational discriminant only picks the
    # message.
    if len(big_f_mod) >= 3 and not modp.is_squarefree(big_f_mod, p):
        if as_rational(poly_disc(cert.big_f)) == 0:
            raise ValueError("branch polynomial F has a repeated factor")
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

    With d = (x - x_p)(x - x_q), the fiber above x has 1 + chi(h(x)) points
    where f(x) = 0, none where chi(f(x)) = -1, and 2 + chi(u)(1 + chi(d))
    where f(x) = y0^2 != 0, u a nonzero one of h(x) +- y0.  By the norm
    identity (h + y0)(h - y0) = d F(x)^2 that is 1 + chi(h +- y0) summed
    where both are nonzero, 1 for the ramified point where d = 0, and the
    smooth model's 1 + chi(2h d) points above a double zero of y + h at a
    root of F.  Above the base's point at infinity the even pole of y + h
    gives 1 + chi(lc(h) * lc(f)^(g+1)).

    f = lead * prod (x - r_i) and d split over F_p, so chi(f(x)) and chi(d)
    at every x = g^i come from rotations of the field's `zech_parity`, one
    bit per x.  The x where both are +1 count 2 + 2 chi(u), and f and h are
    evaluated only at their Frobenius orbit representatives; the x where
    chi(f) = +1 and chi(d) = -1 count 2 each, from one popcount.  The x in
    F_p where a factor vanishes (0, the roots of f, x_p and x_q) go through
    the fiber rule one by one.
    """
    base = cover.base
    p = base.p
    _check_fp(p, (cover.x_p, cover.x_q) + cover.h)
    field = get_field(p, deg)
    tabs = field.logs()
    log, add = tabs.log, tabs.add
    n = field.order - 1
    half = n // 2
    f = base.coeffs()

    def chi_u(lf: int, lh: int) -> int:
        """chi(u) for u a nonzero one of h(x) +- y0, where f(x) = y0^2 != 0."""
        ly = lf >> 1
        lu = add(lh, ly)
        if lu < 0:  # h + y0 = 0, so u = h - y0
            lu = add(lh, ly + half)
        return _chi(lu)

    lneg_xp, lneg_xq = log[-cover.x_p % p], log[-cover.x_q % p]

    def fiber(x: int) -> int:
        """Points above x in F_p, from the logs of f(x) and h(x)."""
        lf, lh = (log[sum(c * x**i for i, c in enumerate(poly)) % p] for poly in (f, cover.h))
        if lf < 0:
            # y = 0; h(x) = 0 here would force f(x) = h(x)^2 = 0 too, and
            # either way the fiber has 1 + chi(h(x)) points.
            return 1 + _chi(lh)
        if lf & 1:
            return 0
        lx = log[x]
        return 2 + chi_u(lf, lh) * (1 + _chi(add(lx, lneg_xp)) * _chi(add(lx, lneg_xq)))

    full = (1 << n) - 1
    parity = field.zech_parity()

    def nonsquares(c: int) -> int:
        """Bit i set where g^i + c is a nonsquare, for c in F_p."""
        if c == 0:
            return full // 3 << 1  # the odd logs
        lc = log[c]
        rot = (parity << lc | parity >> (n - lc)) & full
        return rot ^ full if lc & 1 else rot

    special = {0, cover.x_p, cover.x_q, *base.roots}
    total = sum(fiber(x) for x in special)
    rest = full
    for x in special - {0}:
        rest ^= 1 << log[x]
    f_nonsq = full if log[base.lead] & 1 else 0
    for r in base.roots:
        f_nonsq ^= nonsquares(-r % p)
    d_nonsq = nonsquares(-cover.x_p % p) ^ nonsquares(-cover.x_q % p)
    f_sq = rest & ~f_nonsq
    total += 2 * f_sq.bit_count()
    both = f_sq & ~d_nonsq
    # One byte per log, 1 where both characters are +1; pick the orbit
    # representatives there.
    flags = bin(both)[:1:-1].encode().translate(bytes.maketrans(b"01", b"\0\1"))
    reps, sizes = field.frobenius_orbits()
    picked = bytes(map(flags.ljust(n, b"\0").__getitem__, reps))
    xs = array("i", compress(reps, picked))
    u_sum = 0
    for size, lf, lh in zip(
        compress(sizes, picked), _horner_logs(field, f, xs), _horner_logs(field, cover.h, xs)
    ):
        u_sum += size * chi_u(lf, lh)
    total += 2 * u_sum
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

    def counts(self, n: int) -> Tuple[int, ...]:
        """Point counts over F_{q^k}, k = 1..n, that this numerator predicts:
        the inverse of `l_polynomial`.  Newton's identities run backwards give
        the power sums s_k = -k a_k - sum_{j<k} a_j s_{k-j} of the reciprocal
        roots (a_k = 0 past the degree), and N_k = q^k + 1 - s_k."""
        a = self.coeffs
        s: List[int] = []
        for k in range(1, n + 1):
            acc = -k * a[k] if k < len(a) else 0
            for j in range(1, min(k, len(a))):
                acc -= a[j] * s[k - j - 1]
            s.append(acc)
        return tuple(self.q**k + 1 - sk for k, sk in enumerate(s, 1))


def l_polynomial(q: int, counts: Sequence[int], genus: int) -> LPoly:
    """Zeta numerator of a genus-`genus` curve over F_q from the point counts
    over F_{q^i}, i = 1..genus.

    Power sums of the reciprocal roots come from s_i = q^i + 1 - N_i; Newton
    identities, in integers, give the first half of the coefficients and
    the functional equation a_{2g-j} = q^(g-j) a_j fills the rest.  Verifies
    the Weil bound on every count, integrality of all coefficients, and
    positivity of the value at 1.
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
    # Newton's identities in integers: k a_k = -sum_{m=1..k} s_m a_{k-m}.
    a: List[int] = [1] + [0] * (2 * g)
    for k in range(1, g + 1):
        a[k], rem = divmod(-sum(s[m - 1] * a[k - m] for m in range(1, k + 1)), k)
        if rem:
            raise InternalCheckError("zeta numerator coefficient is not integral")
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


def split_l_polynomial(ffc: FFCurve) -> LPoly:
    """Zeta numerator of a split model y^2 = lead * prod_{i<=n} (x - r_i) over
    F_p from Legendre symbols over F_p alone; no field is built.

    The numerator is L(u, chi_f) = sum over monic m of chi(Res(m, f)) u^deg m
    for odd n, and (1 - chi(lead) u) times it for even n.  For split f,
        chi(Res(m, f)) = chi(lead)^d chi(-1)^(d n) prod_i chi(m(r_i)),
    d = deg m.  Write m = m0 + b with b its constant term.  With m0 fixed and
    b running over F_p, chi(m(r_i)) = chi(m0(r_i) + b) is the Legendre mask
    of F_p shifted by m0(r_i): the product over i vanishes off the AND of the
    nonzero masks and is -1 on the XOR of the nonsquare masks, so the sum
    over b costs two popcounts.  Coefficients u^1..u^g come from these sums,
    the rest from the functional equation, and the counts the numerator
    predicts must give it back through `l_polynomial`, which checks the Weil
    bound and integrality.  Work grows like p^g, so the size guard of
    F_{p^g} applies.
    """
    p, n, g = ffc.p, ffc.degree, ffc.genus
    if g < 1:
        raise ValueError("genus must be at least 1")
    check_field_order(p, g)
    # Bit b of `nonsq` is set where b is a nonsquare mod p.  Doubled, the
    # mask of b -> chi(s + b) is one shift by s.
    digits = bytearray(b"1") * p
    digits[0] = ord("0")
    for b in range(1, (p + 1) // 2):
        digits[b * b % p] = ord("0")
    nonsq = int(digits[::-1], 2)
    doubled = nonsq | nonsq << p
    full = (1 << p) - 1
    powers = [[pow(r, j, p) for j in range(g + 1)] for r in ffc.roots]

    def char_sum(d: int) -> int:
        """The sum of prod_i chi(m(r_i)) over monic m of degree d."""
        total = 0
        for upper in product(range(p), repeat=max(d - 2, 0)):  # m_2 .. m_(d-1)
            tops = [(rp[d] + sum(m * rj for m, rj in zip(upper, rp[2:]))) % p for rp in powers]
            for m1 in range(p if d > 1 else 1):
                # s = m0(r); chi(s + b) = -1 at bit b of doubled >> s
                signs = zeros = 0
                for top, r in zip(tops, ffc.roots):
                    s = (top + m1 * r) % p
                    signs ^= doubled >> s
                    zeros |= 1 << (-s % p)
                nonzero = full ^ zeros
                total += nonzero.bit_count() - 2 * (signs & nonzero).bit_count()
        return total

    eps = -1 if nonsq >> ffc.lead & 1 else 1
    chi_minus_one = -1 if nonsq >> (p - 1) & 1 else 1
    a = [1] + [0] * (2 * g)
    for d in range(1, g + 1):
        a[d] = eps**d * chi_minus_one ** (d * n) * char_sum(d)
        if n % 2 == 0:
            a[d] += eps * a[d - 1]  # divide by 1 - eps u
    for j in range(g):
        a[2 * g - j] = p ** (g - j) * a[j]
    lp = LPoly(tuple(a), p, g)
    try:
        round_trip = l_polynomial(p, lp.counts(g), g)
    except ValueError as exc:
        raise InternalCheckError(f"split-model numerator: {exc}") from None
    if round_trip != lp:
        raise InternalCheckError("split-model numerator does not survive its counts")
    return lp


def jacobian_order(ffc: FFCurve) -> int:
    """Jacobian order of a reduced curve, from its split-model numerator."""
    return split_l_polynomial(ffc).order()


@dataclass(frozen=True)
class PrymCheckReport:
    """Outcome of the Jacobian product identity test at one good prime.

    The Prym-side model is only defined up to quadratic twist, so orders for
    both the trivial twist ("1") and the least nonresidue twist are computed;
    `matched_twists` lists those c with
        #J(cover) = #J(base) * #J(prym twisted by c).
    `counts_cover[:g]` are counted; `counts_cover[g:]` are derived from
    L_base * L_prym, the cover's numerator by the isogeny
    Jac(cover) ~ Jac(base) x Prym.
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


def _reduce_for_check(
    cert: CoverCertificate, p: int
) -> Tuple[Optional[ReducedCover], Optional[FFCurve], str]:
    """The reduced cover, the reduced Prym model with lead 1 and "" when p is
    usable, else None, None and the obstruction."""
    try:
        cover = reduce_cover(cert, p)
    except ValueError as exc:
        return None, None, str(exc)
    try:
        prym = reduce_curve(HyperCurve(_prym_roots(cert), Fraction(1)), p)
    except ValueError as exc:
        return None, None, f"prym model: {exc}"
    return cover, prym, ""


def prym_check_obstruction(cert: CoverCertificate, p: int) -> str:
    """Why the product identity cannot be tested at p; empty string if good."""
    return _reduce_for_check(cert, p)[2]


def prym_product_check(cert: CoverCertificate, p: int) -> PrymCheckReport:
    """Test #J(cover) = #J(base) * #J(prym twist) over F_p at a good prime.

    The base curve and both quadratic twists of the Prym-side model are
    split, so their numerators come from `split_l_polynomial`; the double
    cover is counted over F_{p^i}, i <= g.  By the isogeny
    Jac(cover) ~ Jac(base) x Prym (Mumford 1974) the pseudo-counts
    p^i + 1 - N_i(base) + N_i(cover) give L_prym, and the cover's counts for
    g < i <= 2g are derived from L_base * L_prym.  A Weil-bound or
    integrality failure of either, or a derived count that differs from a
    counted one, raises InternalCheckError.  Raises
    ValueError when p is unusable, with the obstruction in the message, and
    when F_{p^g} is larger than MAX_FIELD_ORDER, before any field is built.
    """
    if p == 2 or not is_prime(p):
        raise ValueError(f"need an odd prime, got {p}")
    t = cert.beta
    g = t.curve.genus
    check_field_order(p, g)
    for b in t.betas:
        try:
            as_rational(b)
        except ValueError:
            raise ValueError("product check needs a rational beta tuple") from None
    cover, prym, reason = _reduce_for_check(cert, p)
    if reason:
        raise ValueError(f"prime {p} unusable: {reason}")
    lp_base = split_l_polynomial(cover.base)
    counts_base = lp_base.counts(g)
    counted = tuple(count_double_cover(cover, i) for i in range(1, g + 1))
    pseudo = [p**i + 1 - nb + nc for i, (nb, nc) in enumerate(zip(counts_base, counted), 1)]
    try:
        product = tuple(mul_coeffs(lp_base.coeffs, l_polynomial(p, pseudo, g).coeffs))
        counts_cover = LPoly(product, p, 2 * g).counts(2 * g)
        lp_cover = l_polynomial(p, counts_cover, 2 * g)
    except ValueError as exc:
        raise InternalCheckError(f"derived cover numerator: {exc}") from None
    if counts_cover[:g] != counted or lp_cover.coeffs != product:
        raise InternalCheckError("L_base * L_prym does not reproduce the cover counts")
    order_base = lp_base.order()
    order_cover = lp_cover.order()
    nr = least_nonresidue(p)
    counts_prym: Dict[str, Tuple[int, ...]] = {}
    orders_prym: Dict[str, int] = {}
    for label, lead in (("1", 1), (str(nr), nr)):
        lp = split_l_polynomial(FFCurve(p, prym.roots, lead))
        counts_prym[label] = lp.counts(g)
        orders_prym[label] = lp.order()
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
