"""Binary forms over the rationals: discriminants, GL2 substitutions,
S-unit tests, per-prime valuation certificates, and the pipeline that
attaches a certified form to an integral point of an odd-degree
hyperelliptic model.

A form is kept factored as lambda * prod (delta_i X - gamma_i Z); the
discriminant convention is disc = lambda^(2r-2) * prod_{i<j} (cross_ij)^2
with cross_ij = gamma_i delta_j - gamma_j delta_i.  The convention only
matters up to S-units (2 is always in S here), and valuations of disc are
what the certificates constrain.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple, Union

from . import modp
from .curves import CurvePoint, HyperCurve, is_on_curve
from .errors import InternalCheckError
from .polys import Poly
from .scalars import Rat, as_rational, is_prime, rat_ord_p, rational_prime_support


@dataclass(frozen=True)
class GL2Matrix:
    """Invertible 2x2 matrix (a b; c d) acting by X -> aX+bZ, Z -> cX+dZ."""

    a: Rat
    b: Rat
    c: Rat
    d: Rat

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.det() == 0:
            raise ValueError("matrix is singular")

    def det(self) -> Fraction:
        return self.a * self.d - self.b * self.c


@dataclass(frozen=True)
class BinaryForm:
    """lambda * prod (delta_i X - gamma_i Z), factors as (delta, gamma)."""

    factors: Tuple[Tuple[Rat, Rat], ...]
    lam: Rat = Fraction(1)

    def __post_init__(self):
        fixed = []
        for d, gm in self.factors:
            d, gm = Fraction(d), Fraction(gm)
            if d == 0 and gm == 0:
                raise ValueError("zero factor in binary form")
            fixed.append((d, gm))
        object.__setattr__(self, "factors", tuple(fixed))
        lam = Fraction(self.lam)
        if lam == 0:
            raise ValueError("zero multiplier in binary form")
        object.__setattr__(self, "lam", lam)

    @property
    def degree(self) -> int:
        return len(self.factors)

    def coeffs(self) -> Tuple[Fraction, ...]:
        """Dense coefficients of X^i Z^(r-i), i = 0..r."""
        out = [self.lam]
        for d, gm in self.factors:
            nxt = [Fraction(0)] * (len(out) + 1)
            for i, c in enumerate(out):
                nxt[i] -= c * gm
                nxt[i + 1] += c * d
            out = nxt
        return tuple(out)

    def dehomogenized(self) -> Poly:
        """F(x, 1) as a polynomial; degree drops by one per factor with
        delta = 0 (a projective root at infinity)."""
        return Poly(self.coeffs())

    def affine_roots(self) -> List[Fraction]:
        """Roots of F(x, 1), with multiplicity, in factor order."""
        return [gm / d for d, gm in self.factors if d != 0]

    @classmethod
    def from_dense(cls, coeffs: Sequence[Rat]) -> "BinaryForm":
        """Factor a dense form into linear factors over the rationals;
        raises ValueError when the form is not split."""
        dense = [Fraction(c) for c in coeffs]
        if len(dense) < 2 or all(c == 0 for c in dense):
            raise ValueError("need a nonzero form of degree at least 1")
        r = len(dense) - 1
        top = r
        while dense[top] == 0:
            top -= 1
        inf_count = r - top
        poly = dense[: top + 1]
        low = 0
        while poly[low] == 0:
            low += 1
        factors: List[Tuple[Fraction, Fraction]] = []
        factors.extend([(Fraction(0), Fraction(-1))] * inf_count)
        factors.extend([(Fraction(1), Fraction(0))] * low)
        work = Poly(poly[low:])
        lam = work.lead
        for root in modp.rational_roots(work):
            lin = Poly([-root.numerator, root.denominator])
            mult = 0
            while True:
                quot, rem = divmod(work, lin)
                if not rem.is_zero():
                    break
                work, mult = quot, mult + 1
            if not mult:
                raise InternalCheckError("exact root division left a remainder")
            factors.extend([(Fraction(root.denominator), Fraction(root.numerator))] * mult)
            lam /= root.denominator**mult
        if len(factors) != r:
            raise ValueError("form is not split over the base field")
        form = cls(tuple(factors), lam)
        if form.coeffs() != tuple(dense):
            raise InternalCheckError("factored form does not re-expand to input")
        return form


def bf_disc(form: BinaryForm) -> Fraction:
    """Discriminant under the fixed convention
    lambda^(2r-2) * prod_{i<j} (gamma_i delta_j - gamma_j delta_i)^2."""
    r = form.degree
    out = Fraction(form.lam) ** (2 * r - 2)
    for (di, gi), (dj, gj) in itertools.combinations(form.factors, 2):
        out *= (gi * dj - gj * di) ** 2
    return out


def bf_transform(form: BinaryForm, u: GL2Matrix) -> BinaryForm:
    """Substituted form F(aX+bZ, cX+dZ); disc scales by det(U)^(r(r-1))."""
    new = [(u.a * d - u.c * gm, u.d * gm - u.b * d) for d, gm in form.factors]
    return BinaryForm(tuple(new), form.lam)


def _shift(form: BinaryForm, a: Rat) -> BinaryForm:
    """X -> X + aZ; unimodular, so disc is unchanged and affine roots
    translate by -a."""
    return bf_transform(form, GL2Matrix(1, Fraction(a), 0, 1))


def _strip(n: int, primes: Iterable[int]) -> int:
    n = abs(n)
    for p in primes:
        while n % p == 0:
            n //= p
    return n


def disc_is_s_unit(form: BinaryForm, s_primes: Iterable[int]) -> bool:
    """Whether disc(F) is a unit outside S (and the archimedean place)."""
    disc = bf_disc(form)
    if disc == 0:
        return False
    ps = list(s_primes)
    return _strip(disc.numerator, ps) == 1 and _strip(disc.denominator, ps) == 1


@dataclass(frozen=True)
class PrimeEntry:
    """One certified prime: ord_p disc = 2*m*n*(n-1) witnessed by exactly n
    dehomogenized roots of valuation 2m (indices into the factor list)."""

    prime: int
    m: int
    n: int
    root_indices: Tuple[int, ...]


@dataclass(frozen=True)
class FormCertificate:
    form: BinaryForm
    s_primes: Tuple[int, ...]
    entries: Tuple[PrimeEntry, ...]


def _s_integral(x: Fraction, ps: Sequence[int]) -> bool:
    return _strip(x.denominator, ps) == 1


def certify_form(
    form: BinaryForm, s_primes: Iterable[int]
) -> Union[FormCertificate, str]:
    """Check the per-prime valuation pattern of disc(F) outside S.

    Returns a FormCertificate on success and a rejection reason (a string)
    otherwise.  For each prime p outside S dividing disc(F) there must be a
    positive m and an odd n with 3 <= n <= 2*floor((r+1)/2) - 3 such that
    ord_p disc = 2mn(n-1) and F(x,1) has exactly n rational roots of
    valuation 2m.
    """
    ps = sorted(set(int(p) for p in s_primes))
    for p in ps:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
    for d, gm in form.factors:
        if not (_s_integral(d, ps) and _s_integral(gm, ps)):
            return "form has a coefficient that is not S-integral"
    if not _s_integral(Fraction(form.lam), ps):
        return "form has a multiplier that is not S-integral"
    disc = bf_disc(form)
    if disc == 0:
        return "discriminant vanishes (repeated factor)"
    if _strip(disc.denominator, ps) != 1:
        return "discriminant has a denominator outside S"
    residual = _strip(disc.numerator, ps)
    if residual == 1:
        return FormCertificate(form, tuple(ps), ())
    from .scalars import FactorizationError, factorize

    try:
        support = factorize(residual)
    except FactorizationError:
        return "could not factor the discriminant within the certification bound"
    r = form.degree
    n_max = 2 * ((r + 1) // 2) - 3
    roots = [(idx, gm / d) for idx, (d, gm) in enumerate(form.factors) if d != 0]
    entries = []
    for p in sorted(support):
        e = support[p]
        found = None
        for n in range(3, n_max + 1, 2):
            if e % (2 * n * (n - 1)) != 0:
                continue
            m = e // (2 * n * (n - 1))
            hits = tuple(
                idx for idx, root in roots if root != 0 and rat_ord_p(root, p) == 2 * m
            )
            if len(hits) == n:
                found = PrimeEntry(p, m, n, hits)
                break
        if found is None:
            return (
                f"prime {p}: discriminant valuation {e} does not match the "
                "required root pattern"
            )
        entries.append(found)
    return FormCertificate(form, tuple(ps), tuple(entries))


def _prime_support(x: Fraction) -> Dict[int, int]:
    """Signed prime valuations of a nonzero rational."""
    out: Dict[int, int] = {}
    for p in rational_prime_support(x):
        out[p] = rat_ord_p(x, p)
    return out


def _modinv(a: int, m: int) -> int:
    return pow(a % m, -1, m)


def _crt(pairs: Sequence[Tuple[int, int]]) -> int:
    """Least nonnegative x with x = r mod m for all (r, m), moduli coprime."""
    x, mod = 0, 1
    for r, m in pairs:
        t = ((r - x) * _modinv(mod, m)) % m
        x += mod * t
        mod *= m
    return x % mod


def integral_point_to_form(
    curve: HyperCurve,
    p_pt: CurvePoint,
    q_pt: CurvePoint,
    s_primes: Iterable[int],
) -> FormCertificate:
    """Run the three-case pipeline taking an integral point of an odd-degree
    model to a binary form whose discriminant valuations are certified.

    The working prime set S is enlarged first (2, denominators of the roots,
    primes of x_Q - alpha_i, primes of the root discriminant, and every
    prime where x_P - x_Q and y_P - y_Q both have positive valuation); the
    enlarged set is reported in the certificate.  Per prime outside the
    enlarged S: valuation 0 of x_P - x_Q needs no work, negative valuation
    is repaired by the c-rescaling, positive valuation by the unimodular
    substitution, the theta-rescaling, a shift making the special root
    valuations exactly 2m, and the 2m-rescaling of Z when every affine root
    is special.
    """
    if not curve.is_rational():
        raise ValueError("pipeline needs a rational split model")
    if curve.degree % 2 == 0:
        raise ValueError("pipeline needs an odd-degree model")
    if p_pt.at_infinity or q_pt.at_infinity:
        raise ValueError("marked points must be affine")
    if not (is_on_curve(curve, p_pt) and is_on_curve(curve, q_pt)):
        raise ValueError("marked points must lie on the curve")
    x_p, y_p = Fraction(p_pt.x), Fraction(p_pt.y)
    x_q, y_q = Fraction(q_pt.x), Fraction(q_pt.y)
    if y_p == 0 or y_q == 0:
        raise ValueError("marked points must avoid the hyperelliptic branch locus")
    if x_p == x_q:
        raise ValueError("marked points share an x-coordinate")

    from .covers import beta_tuples

    first = beta_tuples(curve, p_pt, q_pt)[0]
    try:
        betas = [as_rational(b) for b in first.betas]
    except ValueError:
        raise ValueError("requires a rational beta-tuple") from None

    roots = curve.rational_roots()
    g = curve.genus

    s_work = set()
    for p in s_primes:
        p = int(p)
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        s_work.add(p)
    s_work.add(2)
    lead = as_rational(curve.lead)
    s_work.update(rational_prime_support(lead))
    for a in roots:
        s_work.update(rational_prime_support(Fraction(a.denominator)))
        s_work.update(rational_prime_support(x_q - a))
    for a, b in itertools.combinations(roots, 2):
        s_work.update(rational_prime_support(a - b))
    r1 = x_p - x_q
    r2 = y_p - y_q
    if r2 == 0:
        meq_cands = abs(r1.numerator)
    else:
        meq_cands = math.gcd(r1.numerator, r2.numerator)
    if meq_cands > 1:
        for p in rational_prime_support(Fraction(meq_cands)):
            if rat_ord_p(r1, p) > 0 and (r2 == 0 or rat_ord_p(r2, p) > 0):
                s_work.add(p)
    s_list = sorted(s_work)

    gammas = [b.numerator for b in betas]
    deltas = [b.denominator for b in betas]
    base = BinaryForm(
        ((Fraction(1), Fraction(1)),)
        + tuple((Fraction(d), Fraction(gm)) for d, gm in zip(deltas, gammas))
    )

    support_r1 = {p: v for p, v in _prime_support(r1).items() if p not in s_work}
    neg_primes = sorted(p for p, v in support_r1.items() if v < 0)
    pos_primes = sorted(p for p, v in support_r1.items() if v > 0)

    c = 1
    for p in neg_primes:
        v = rat_ord_p(x_p, p)
        if v != support_r1[p] or v % 2 != 0:
            raise InternalCheckError("pole valuation of x_P must be even")
        c *= p ** (-v // 2)
    if c == 1:
        form_g = base
    else:
        scaled = []
        for d, gm in zip(deltas, gammas):
            q = Fraction(gm, c)
            for p in neg_primes:
                if rat_ord_p(Fraction(gm), p) != rat_ord_p(Fraction(c), p):
                    raise InternalCheckError(
                        "beta numerator valuation does not match the rescaling"
                    )
            scaled.append((Fraction(d), q))
        form_g = BinaryForm(((Fraction(c), Fraction(1)),) + tuple(scaled))

    disc_g = bf_disc(form_g)
    for p in neg_primes:
        if rat_ord_p(disc_g, p) != 0:
            raise InternalCheckError("rescaled form keeps a pole prime in disc")

    if not pos_primes:
        cert = certify_form(form_g, s_list)
        if not isinstance(cert, FormCertificate):
            raise InternalCheckError(f"pipeline output rejected: {cert}")
        if cert.entries:
            raise InternalCheckError("no positive-valuation primes, yet entries exist")
        return cert

    m_by_p = {p: support_r1[p] for p in pos_primes}
    eps: Dict[int, List[int]] = {}
    n_by_p: Dict[int, int] = {}
    for p in pos_primes:
        if rat_ord_p(y_p + y_q, p) <= 0:
            raise InternalCheckError("expected y_P = -y_Q at a positive prime")
        marks = []
        for gm, d in zip(gammas, deltas):
            if rat_ord_p(Fraction(d - gm), p) > 0:
                marks.append(1)
            elif rat_ord_p(Fraction(d + gm), p) > 0:
                marks.append(0)
            else:
                raise InternalCheckError("beta is not +-1 at a positive prime")
        eps[p] = marks
        n_p = marks.count(0)
        if n_p % 2 == 0:
            raise InternalCheckError("count of beta = -1 must be odd")
        n_by_p[p] = n_p
        expected = m_by_p[p] * (
            n_p * (n_p - 1) + (2 * g + 2 - n_p) * (2 * g + 1 - n_p)
        )
        if rat_ord_p(disc_g, p) != expected:
            raise InternalCheckError("pre-normalization disc valuation mismatch")

    big_m = 1
    for p in pos_primes:
        big_m *= p ** m_by_p[p]
    b = (-_modinv(2 * c, big_m)) % big_m
    if (2 * b * c) % big_m != big_m - 1:
        raise InternalCheckError("congruence 2bc = -1 failed")
    u_mat = GL2Matrix(1, b, c, 1 + b * c)
    h0 = bf_transform(form_g, u_mat)
    if h0.factors[0] != (Fraction(0), Fraction(1)):
        raise InternalCheckError("unimodular substitution lost the Z factor")

    thetas = []
    for i in range(2 * g + 1):
        th = 1
        th_c = 1
        for p in pos_primes:
            if eps[p][i] == 1:
                th *= p ** m_by_p[p]
            else:
                th_c *= p ** m_by_p[p]
        thetas.append((th, th_c))
    scaled_factors = [h0.factors[0]]
    for i, (d, gm) in enumerate(h0.factors[1:]):
        th, th_c = thetas[i]
        scaled_factors.append((d / th, gm * th_c))
    form_h = BinaryForm(tuple(scaled_factors), h0.lam)

    shift_parts = []
    for p in pos_primes:
        m = m_by_p[p]
        found = None
        for a_try in range(p ** (2 * m + 1)):
            ok = True
            for i, (d, gm) in enumerate(form_h.factors[1:]):
                root = gm / d
                want = 2 * m if eps[p][i] == 0 else 0
                if rat_ord_p(root - a_try, p) != want:
                    ok = False
                    break
            if ok:
                found = a_try
                break
        if found is None:
            raise InternalCheckError(f"no admissible shift at {p}")
        shift_parts.append((found, p ** (2 * m + 1)))
    a_shift = _crt(shift_parts)
    form_h = _shift(form_h, a_shift)

    disc_h = bf_disc(form_h)
    for p in pos_primes:
        m, n = m_by_p[p], n_by_p[p]
        if rat_ord_p(disc_h, p) != 2 * m * n * (n - 1):
            raise InternalCheckError("post-normalization disc valuation mismatch")

    for p in pos_primes:
        if n_by_p[p] != 2 * g + 1:
            continue
        m = m_by_p[p]
        rescued = [form_h.factors[0]]
        for d, gm in form_h.factors[1:]:
            q = gm / p ** (2 * m)
            if rat_ord_p(q, p) != 0:
                raise InternalCheckError("rescue rescaling expects valuation 2m")
            rescued.append((d, q))
        form_h = BinaryForm(tuple(rescued), form_h.lam)
        if rat_ord_p(bf_disc(form_h), p) != 0:
            raise InternalCheckError("rescue did not clear the prime from disc")

    cert = certify_form(form_h, s_list)
    if not isinstance(cert, FormCertificate):
        raise InternalCheckError(f"pipeline output rejected: {cert}")
    expected_entries = {
        (p, m_by_p[p], n_by_p[p])
        for p in pos_primes
        if 3 <= n_by_p[p] <= 2 * g - 1
    }
    got_entries = {(e.prime, e.m, e.n) for e in cert.entries}
    if expected_entries != got_entries:
        raise InternalCheckError("certificate entries do not match the case analysis")
    return cert


@dataclass(frozen=True)
class ResidueCurve:
    """y^2 = (poly with the given dense coefficients) over F_p."""

    p: int
    coeffs: Tuple[int, ...]

    @property
    def genus(self) -> int:
        d = len(self.coeffs) - 1
        return (d + 1) // 2 - 1


@dataclass(frozen=True)
class ReductionReport:
    prime: int
    kind: str  # "good-irreducible" or "split-product"
    components: Tuple[ResidueCurve, ...]


def reduction_classify(cert: FormCertificate, p: int) -> ReductionReport:
    """Classify the reduction at an odd prime outside S of the hyperelliptic
    curve attached to a certified even-degree form.

    With ord_p disc = 0 the curve itself reduces well.  Otherwise the
    certificate's (m, n) entry exhibits f = h(x) * prod (x - u_i p^(2m))
    and the special fiber carries the two residue curves y^2 = x*h(x) and
    y^2 = h(0) * prod (x - u_i), whose genera sum to g.
    """
    if p == 2 or not is_prime(p):
        raise ValueError(f"need an odd prime, got {p}")
    if p in cert.s_primes:
        raise ValueError(f"{p} lies in S")
    form = cert.form
    if form.degree % 2 != 0:
        raise ValueError("classifier needs an even-degree form")
    g = form.degree // 2 - 1
    entry = next((e for e in cert.entries if e.prime == p), None)
    if entry is None:
        if rat_ord_p(bf_disc(form), p) != 0:
            raise InternalCheckError("certificate is silent about a disc prime")
        return ReductionReport(p, "good-irreducible", ())
    m, n = entry.m, entry.n
    special = set(entry.root_indices)
    scale = Fraction(form.lam)
    cofactor = Poly([Fraction(1)])
    residues = []
    for idx, (d, gm) in enumerate(form.factors):
        if idx in special:
            root = gm / d
            u = root / p ** (2 * m)
            if rat_ord_p(u, p) != 0:
                raise InternalCheckError("special root valuation is not 2m")
            scale *= d
            residues.append(modp.rat_mod(u, p))
        elif d == 0:
            scale *= -gm
        else:
            cofactor = cofactor * Poly([-gm, d])
    if len(set(residues)) != n:
        raise InternalCheckError("special root residues collide")
    h = cofactor * Poly([scale])
    try:
        h_mod = modp.poly_mod(h, p)
    except ValueError:
        raise InternalCheckError("certificate form is not p-integral") from None
    if h_mod[-1] == 0:
        raise InternalCheckError("cofactor loses degree mod p")
    if h_mod[0] == 0:
        raise InternalCheckError("cofactor vanishes at zero mod p")
    if not modp.is_squarefree(h_mod, p):
        raise InternalCheckError("cofactor has repeated residue roots")
    c1 = ResidueCurve(p, (0,) + tuple(h_mod))
    c2_coeffs = [h_mod[0]]
    for u in residues:
        c2_coeffs = modp.mul(c2_coeffs, [-u, 1], p)
    c2 = ResidueCurve(p, tuple(c2_coeffs))
    if not modp.is_squarefree(c1.coeffs, p):
        raise InternalCheckError("first residue curve is singular")
    if not modp.is_squarefree(c2.coeffs, p):
        raise InternalCheckError("second residue curve is singular")
    if c1.genus + c2.genus != g:
        raise InternalCheckError("residue genera do not sum to g")
    return ReductionReport(p, "split-product", (c1, c2))
