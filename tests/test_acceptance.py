"""End-to-end acceptance checks for the package.

Every numbered check prints exactly one PASS/FAIL line (visible under
``pytest -s``) and enforces a wall-clock budget.  Two reference instances
appear throughout:

  E1  genus 1, roots (-1/3, 9/8, 25/24), P = (1, 1/12), Q = (0, 5/8)
  G2  genus 2, roots (-1/3, 9/8, 25/24, 4/3, 49/48), P = (1, 1/144),
      Q = (0, 35/48)

Criterion 3 needs a caveat.  On E1 the Jacobian product identity singles
out exactly one quadratic twist in every cell at the primes 13, 17 and 29.
On G2 at p = 17, ten of the sixteen cells have a Prym model whose Frobenius
trace vanishes, and a vanishing trace makes the two twists share one
L-polynomial, so no point count over any extension of F_17 can separate
them.  Which cells degenerate depends on the prime: every cell has exactly
one matching twist at some prime <= 37, but no usable prime <= 229
separates all sixteen at once.  The main test therefore pins the exact
degeneracy pattern at p = 17: uniqueness wherever the twist orders differ,
both twists matching wherever they agree, and precisely ten degenerate
cells.  test_criterion_3_each_cell_separates_below_38 pins each cell's
least separating prime, and test_criterion_3_strict_twist_uniqueness keeps
the literal one-twist-per-cell claim at p = 17 visible as a strict expected
failure.
"""

import hashlib
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest

import prymcover
from prymcover.binforms import (
    BinaryForm,
    FormCertificate,
    bf_disc,
    certify_form,
    integral_point_to_form,
    reduction_classify,
)
from prymcover.cli import main
from prymcover.covers import (
    beta_tuples,
    curve_through_betas,
    prym_curve_equation,
    reconstruct_h_f,
)
from prymcover.curves import CurvePoint, is_on_curve, make_curve
from prymcover.jsonio import (
    candidate_set_to_json,
    curve_to_json,
    dumps,
    form_certificate_to_json,
)
from prymcover.points import (
    CandidateSet,
    IntegralitySpec,
    brute_force_points,
    cr_elimination_poly,
    exceptional_points,
    recover_points,
    recover_points_detailed,
)
from prymcover.polys import Poly, RatFunc
from prymcover.scalars import is_prime, rat_ord_p, rational_prime_support
from prymcover.zeta import (
    count_double_cover,
    l_polynomial,
    prym_check_obstruction,
    prym_product_check,
    reduce_cover,
)

E1 = make_curve([F(-1, 3), F(9, 8), F(25, 24)])
E1_P = CurvePoint.affine(F(1), F(1, 12))
E1_Q = CurvePoint.affine(F(0), F(5, 8))

G2 = make_curve([F(-1, 3), F(9, 8), F(25, 24), F(4, 3), F(49, 48)])
G2_P = CurvePoint.affine(F(1), F(1, 144))
G2_Q = CurvePoint.affine(F(0), F(35, 48))

E1_GOOD_PRIMES = (13, 17, 29)
G2_PRIME = 17
G2_DEGENERATE_CELLS = 10

CASE_III_G2_BETAS = (F(6), F(3, 4), F(4, 3), F(9, 2), F(8))
CASE_III_G3_BETAS = (F(10), F(21), F(32), F(12), F(23), F(34), F(45))


def _report(num, ok, detail):
    print()
    print("[criterion %d] %s: %s" % (num, "PASS" if ok else "FAIL", detail))


def _displaced(betas, scale):
    """Instance through the given betas with x_P - x_Q = scale * prod(1 - b^2)."""
    prod = F(1)
    for b in betas:
        prod *= 1 - b * b
    return curve_through_betas(list(betas), x_p=scale * prod)


def test_criterion_1_cover_enumeration():
    t0 = time.perf_counter()
    e1 = beta_tuples(E1, E1_P, E1_Q)
    g2 = beta_tuples(G2, G2_P, G2_Q)
    elapsed = time.perf_counter() - t0
    ok = len(e1) == 4 and len(g2) == 16 and elapsed < 1.0
    _report(
        1,
        ok,
        "enumerated %d genus-1 and %d genus-2 beta tuples in %.2fs (budget 1s)"
        % (len(e1), len(g2), elapsed),
    )
    assert len(e1) == 4
    assert len(g2) == 16
    assert elapsed < 1.0


def test_criterion_2_cover_round_trip():
    t0 = time.perf_counter()
    failures = []
    checked = 0
    for curve, p_pt, q_pt in ((E1, E1_P, E1_Q), (G2, G2_P, G2_Q)):
        f = curve.poly()
        cross = Poly.from_roots([F(p_pt.x), F(q_pt.x)])
        for k, tup in enumerate(beta_tuples(curve, p_pt, q_pt)):
            cert = reconstruct_h_f(tup)
            diff = cert.h * cert.h - f - cross * cert.big_f * cert.big_f
            if not diff.is_zero():
                failures.append("genus %d tuple %d: square identity" % (curve.genus, k))
            if cert.h.degree != curve.genus + 1:
                failures.append("genus %d tuple %d: deg h" % (curve.genus, k))
            if cert.h(F(p_pt.x)) != -F(p_pt.y) or cert.h(F(q_pt.x)) != -F(q_pt.y):
                failures.append("genus %d tuple %d: values at P, Q" % (curve.genus, k))
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked == 20 and not failures and elapsed < 5.0
    _report(
        2,
        ok,
        "%d covers satisfy h^2 - f = (x - x_P)(x - x_Q) F^2 with the pinned"
        " boundary values in %.2fs (budget 5s)" % (checked, elapsed),
    )
    assert checked == 20
    assert not failures, failures
    assert elapsed < 5.0


@pytest.fixture(scope="module")
def g2_twist_reports():
    reports = []
    cell_times = []
    for tup in beta_tuples(G2, G2_P, G2_Q):
        cert = reconstruct_h_f(tup)
        t0 = time.perf_counter()
        reports.append(prym_product_check(cert, G2_PRIME))
        cell_times.append(time.perf_counter() - t0)
    return reports, cell_times


def test_criterion_3_twist_identity(g2_twist_reports):
    failures = []

    e1_slowest = 0.0
    e1_cells = 0
    for k, tup in enumerate(beta_tuples(E1, E1_P, E1_Q)):
        cert = reconstruct_h_f(tup)
        for p in E1_GOOD_PRIMES:
            t0 = time.perf_counter()
            rep = prym_product_check(cert, p)
            e1_slowest = max(e1_slowest, time.perf_counter() - t0)
            e1_cells += 1
            if len(rep.matched_twists) != 1:
                failures.append(
                    "genus-1 tuple %d at p=%d matched %r" % (k, p, rep.matched_twists)
                )

    reports, cell_times = g2_twist_reports
    degenerate = 0
    for k, rep in enumerate(reports):
        orders_equal = rep.orders_prym["1"] == rep.orders_prym[str(rep.nonresidue)]
        if not rep.matched_twists:
            failures.append("genus-2 tuple %d: no twist matched" % k)
        if orders_equal:
            degenerate += 1
            if len(rep.matched_twists) != 2:
                failures.append(
                    "genus-2 tuple %d: equal twist orders yet matched %r"
                    % (k, rep.matched_twists)
                )
        elif len(rep.matched_twists) != 1:
            failures.append(
                "genus-2 tuple %d: distinct twist orders yet matched %r"
                % (k, rep.matched_twists)
            )
    if degenerate != G2_DEGENERATE_CELLS:
        failures.append("expected %d degenerate cells, saw %d" % (G2_DEGENERATE_CELLS, degenerate))
    g2_slowest = max(cell_times)

    ok = (
        not failures
        and e1_cells == 12
        and e1_slowest < 1.0
        and g2_slowest < 120.0
    )
    _report(
        3,
        ok,
        "identity matched exactly one twist in all 12 genus-1 cells at p in"
        " {13, 17, 29} (slowest %.2fs, budget 1s) and in %d of 16 genus-2 cells"
        " at p=17; the other %d cells have equal twist orders, forcing both"
        " twists to match (slowest cell %.2fs, budget 120s)"
        % (e1_slowest, 16 - degenerate, degenerate, g2_slowest),
    )
    assert not failures, failures
    assert e1_cells == 12
    assert e1_slowest < 1.0
    assert g2_slowest < 120.0


def _lpoly_product(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _full_identity_twists(rep, genus):
    """Twists c with L_cover(T) = L_base(T) * L_prym,c(T) coefficient by
    coefficient, from the counts in the report."""
    p = rep.prime
    base = l_polynomial(p, rep.counts_base, genus).coeffs
    cover = l_polynomial(p, rep.counts_cover, 2 * genus).coeffs
    return tuple(
        label
        for label, counts in sorted(rep.counts_prym.items())
        if _lpoly_product(base, l_polynomial(p, counts, genus).coeffs) == cover
    )


def test_criterion_3_full_l_polynomial_identity(g2_twist_reports):
    # Equal Jacobian orders compare only the values at T = 1; the whole
    # numerators must factor too, and in exactly the order-matched twists.
    reports, _ = g2_twist_reports
    cells = [(1, prym_product_check(reconstruct_h_f(t), p))
             for t in beta_tuples(E1, E1_P, E1_Q) for p in E1_GOOD_PRIMES]
    cells += [(2, rep) for rep in reports]
    failures = []
    for g, rep in cells:
        full = _full_identity_twists(rep, g)
        if full != tuple(sorted(rep.matched_twists)):
            failures.append(
                "genus %d at p=%d: orders match %r, L-polynomials %r"
                % (g, rep.prime, rep.matched_twists, full)
            )
    assert len(cells) == 28
    assert not failures, failures


def test_criterion_3_derived_cover_counts_match_counted(g2_twist_reports):
    # The report derives the cover's counts above degree g from
    # L_base * L_prym; count them over every F_{p^k}, k <= 2g, instead.
    reports, _ = g2_twist_reports
    cells = [(1, reconstruct_h_f(t), p)
             for t in beta_tuples(E1, E1_P, E1_Q) for p in E1_GOOD_PRIMES]
    cells += [(2, reconstruct_h_f(t), G2_PRIME) for t in beta_tuples(G2, G2_P, G2_Q)]
    g2_reports = iter(reports)
    failures = []
    for g, cert, p in cells:
        rep = prym_product_check(cert, p) if g == 1 else next(g2_reports)
        cover = reduce_cover(cert, p)
        counted = tuple(count_double_cover(cover, k) for k in range(1, 2 * g + 1))
        if rep.counts_cover != counted:
            failures.append("genus %d at p=%d: derived %r, counted %r"
                            % (g, p, rep.counts_cover, counted))
    assert len(cells) == 28
    assert not failures, failures


@pytest.mark.xfail(
    strict=True,
    reason="at p = 17 ten genus-2 cells have a trace-zero Prym model, so both"
    " quadratic twists share one L-polynomial and no count over an extension"
    " of F_17 can separate them; no usable prime <= 229 separates all sixteen",
)
def test_criterion_3_strict_twist_uniqueness(g2_twist_reports):
    reports, _ = g2_twist_reports
    assert all(len(rep.matched_twists) == 1 for rep in reports)


# The least prime at which exactly one quadratic twist of each G2 cell's
# Prym model satisfies the product identity.
G2_LEAST_SEPARATING_PRIME = {
    1: 17, 2: 17, 3: 17, 4: 17, 8: 17, 12: 17,
    5: 19, 11: 19, 14: 19,
    6: 29, 7: 29, 9: 29, 15: 29,
    0: 37, 10: 37, 13: 37,
}


def test_criterion_3_each_cell_separates_below_38():
    # The cells whose twists share an L-polynomial at p = 17 do not do so at
    # every prime: each cell matches both twists at every smaller prime it
    # can use and exactly one at its least separating prime.
    tuples = beta_tuples(G2, G2_P, G2_Q)
    assert sorted(G2_LEAST_SEPARATING_PRIME) == list(range(len(tuples)))
    failures = []
    for k, least in sorted(G2_LEAST_SEPARATING_PRIME.items()):
        cert = reconstruct_h_f(tuples[k])
        for p in range(3, least + 1, 2):
            if not is_prime(p) or (p < least and prym_check_obstruction(cert, p)):
                continue
            matched = prym_product_check(cert, p).matched_twists
            if len(matched) != (1 if p == least else 2):
                failures.append("cell %d at p=%d matched %r" % (k, p, matched))
    assert not failures, failures


def test_criterion_4_special_prime_valuations():
    t0 = time.perf_counter()
    # Three betas sit at -1 and four at +1 modulo 11, with squares pairwise
    # distinct modulo 121, so 11 is the lone special prime with m = 1, n = 3.
    curve, p_pt, q_pt = _displaced(CASE_III_G3_BETAS, F(1, 11**6))
    g = curve.genus
    first = beta_tuples(curve, p_pt, q_pt)[0]
    intermediate = BinaryForm(
        ((F(1), F(1)),) + tuple((F(1), F(b)) for b in first.betas)
    )
    cert = integral_point_to_form(curve, p_pt, q_pt, ())
    elapsed = time.perf_counter() - t0

    failures = []
    if g != 3:
        failures.append("genus %d" % g)
    if len(cert.entries) != 1:
        failures.append("entries %r" % (cert.entries,))
    entry = cert.entries[0]
    m, n = entry.m, entry.n
    if (entry.prime, m, n) != (11, 1, 3):
        failures.append("entry (%d, %d, %d)" % (entry.prime, m, n))
    if n % 2 != 1 or not 3 <= n <= 2 * g - 1:
        failures.append("n = %d out of range" % n)
    oeq = m * (n * (n - 1) + (2 * g + 2 - n) * (2 * g + 1 - n))
    deq = 2 * m * n * (n - 1)
    got_oeq = rat_ord_p(bf_disc(intermediate), entry.prime)
    got_deq = rat_ord_p(bf_disc(cert.form), entry.prime)
    if got_oeq != oeq:
        failures.append("intermediate valuation %d != %d" % (got_oeq, oeq))
    if got_deq != deq:
        failures.append("final valuation %d != %d" % (got_deq, deq))

    ok = not failures and elapsed < 10.0
    _report(
        4,
        ok,
        "genus-3 instance at p=11 (m=1, n=3): intermediate discriminant"
        " valuation %d = m(n(n-1) + (2g+2-n)(2g+1-n)), final valuation %d"
        " = 2mn(n-1), in %.2fs (budget 10s)" % (got_oeq, got_deq, elapsed),
    )
    assert not failures, failures
    assert elapsed < 10.0


GRID_TRIPLES = (
    (2, 3, 4),
    (2, 3, 5),
    (2, 5, 7),
    (3, 4, 5),
    (2, 3, 7),
    (3, 5, 7),
    (2, 4, 7),
    (2, 5, 9),
    (4, 5, 6),
    (2, 7, 9),
)


# sha256 prefixes of the certificate bytes for the deep special prime below,
# recorded from the exhaustive search over residues mod 11^(2m+1)
DEEP_SHIFT_DIGESTS = {1: "3c685019f613afa4", 2: "14de1115a0fc9f81", 3: "6d19e4729691d393"}


@pytest.mark.parametrize("m", [2, 3, 4])
def test_deep_special_prime_shift(m):
    # three betas at -1 and four at +1 modulo 11^m: 11 is special with depth
    # m, so the shift lives modulo 11^(2m+1) and is constructed, not searched
    q = 11**m
    betas = [F(-1 + q * k) for k in (1, 2, 3)] + [F(1 + q * k) for k in (1, 2, 3, 4)]
    curve, p_pt, q_pt = _displaced(betas, F(1, 11 ** (6 * m)))
    t0 = time.perf_counter()
    cert = integral_point_to_form(curve, p_pt, q_pt, ())
    elapsed = time.perf_counter() - t0
    assert [(e.prime, e.m, e.n) for e in cert.entries] == [(11, m, 3)]
    digest = hashlib.sha256(dumps(form_certificate_to_json(cert)).encode()).hexdigest()
    if m in DEEP_SHIFT_DIGESTS:
        assert digest[:16] == DEEP_SHIFT_DIGESTS[m]
    assert elapsed < 1.0


def _certified_instances():
    """Deterministic (curve, P, Q) triples spanning all three pipeline cases."""
    out = []
    for trip in GRID_TRIPLES:
        for scale in (F(1), F(1, 49)):
            out.append(_displaced(tuple(F(b) for b in trip), scale))
    # displacement with a pole at 7, repaired by the c-rescaling
    out.append(_displaced((F(7), F(14), F(21)), F(1, 49)))
    # positive displacement valuation at 5 repaired without an entry,
    # first with one beta at -1 mod 5, then with all three there
    out.append(_displaced((F(4), F(6), F(11)), F(1, 25)))
    out.append(_displaced((F(4), F(9), F(14)), F(1, 25)))
    # genuine special primes at genus 2 and 3
    out.append(_displaced(CASE_III_G2_BETAS, F(1, 49**2)))
    out.append(_displaced(CASE_III_G3_BETAS, F(1, 11**6)))
    return out


def test_criterion_5_pipeline_closure():
    t0 = time.perf_counter()
    instances = _certified_instances()
    failures = []
    for k, (curve, p_pt, q_pt) in enumerate(instances):
        cert = integral_point_to_form(curve, p_pt, q_pt, ())
        again = certify_form(cert.form, cert.s_primes)
        if not isinstance(again, FormCertificate):
            failures.append("instance %d rejected: %s" % (k, again))
        elif again.entries != cert.entries:
            failures.append("instance %d entries changed on re-check" % k)
    elapsed = time.perf_counter() - t0
    ok = len(instances) >= 20 and not failures and elapsed < 60.0
    _report(
        5,
        ok,
        "%d generated instances certify and re-pass membership with identical"
        " entries in %.2fs (budget 60s)" % (len(instances), elapsed),
    )
    assert len(instances) >= 20
    assert not failures, failures
    assert elapsed < 60.0


def _explicit_s_union(curve, p_pt, q_pt):
    """The enlarged S written out prime source by prime source: 2, the lead,
    root denominators, x_Q - alpha_i, pairwise root differences, and the
    primes where x_P - x_Q and y_P - y_Q both vanish."""
    roots = curve.rational_roots()
    x_q = F(q_pt.x)
    r1, r2 = F(p_pt.x) - x_q, F(p_pt.y) - F(q_pt.y)
    parts = [F(2), F(curve.lead)]
    parts += [F(a.denominator) for a in roots] + [x_q - a for a in roots]
    parts += [a - b for i, a in enumerate(roots) for b in roots[i + 1 :]]
    s = {p for x in parts for p in rational_prime_support(x)}
    meq = abs(r1.numerator) if r2 == 0 else math.gcd(r1.numerator, r2.numerator)
    if meq > 1:
        s |= {
            p
            for p in rational_prime_support(F(meq))
            if rat_ord_p(r1, p) > 0 and (r2 == 0 or rat_ord_p(r2, p) > 0)
        }
    return tuple(sorted(s))


def test_enlarged_s_is_the_explicit_union():
    rng = random.Random(20261018)
    instances = [(E1, E1_P, E1_Q)] + _certified_instances()
    sampled = 0
    while sampled < 12:
        genus = rng.randint(1, 3)
        betas = {F(rng.randint(2, 40), rng.randint(1, 6)) for _ in range(2 * genus + 1)}
        if len(betas) < 2 * genus + 1:
            continue
        try:
            instances.append(curve_through_betas(sorted(betas)))
        except ValueError:
            continue
        sampled += 1
    for curve, p_pt, q_pt in instances:
        cert = integral_point_to_form(curve, p_pt, q_pt, ())
        assert cert.s_primes == _explicit_s_union(curve, p_pt, q_pt)


def _fp_squarefree(coeffs, p):
    a = [int(c) % p for c in coeffs]
    while a and a[-1] == 0:
        a.pop()
    if len(a) < 2:
        return bool(a)
    b = [(k * c) % p for k, c in enumerate(a)][1:]
    while b and b[-1] == 0:
        b.pop()
    while b:
        inv = pow(b[-1], p - 2, p)
        b = [(c * inv) % p for c in b]
        r = a[:]
        while len(r) >= len(b) and any(r):
            while r and r[-1] % p == 0:
                r.pop()
            if len(r) < len(b):
                break
            lead = r[-1]
            shift = len(r) - len(b)
            for i, c in enumerate(b):
                r[shift + i] = (r[shift + i] - lead * c) % p
        while r and r[-1] == 0:
            r.pop()
        a, b = b, r
    return len(a) == 1


def test_criterion_6_residue_curves():
    t0 = time.perf_counter()
    failures = []
    for betas, scale in (
        (CASE_III_G2_BETAS, F(1, 49**2)),
        (CASE_III_G3_BETAS, F(1, 11**6)),
    ):
        curve, p_pt, q_pt = _displaced(betas, scale)
        cert = integral_point_to_form(curve, p_pt, q_pt, ())
        if not cert.entries:
            failures.append("genus %d: no special prime" % curve.genus)
            continue
        for entry in cert.entries:
            rep = reduction_classify(cert, entry.prime)
            if not rep.components:
                failures.append("genus %d at p=%d: no components" % (curve.genus, entry.prime))
                continue
            for comp in rep.components:
                if not _fp_squarefree(comp.coeffs, entry.prime):
                    failures.append(
                        "genus %d at p=%d: singular residue curve"
                        % (curve.genus, entry.prime)
                    )
            total = sum(c.genus for c in rep.components)
            if total != curve.genus:
                failures.append(
                    "genus %d at p=%d: component genera sum to %d"
                    % (curve.genus, entry.prime, total)
                )
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 5.0
    _report(
        6,
        ok,
        "residue curves at the special primes are nonsingular and their genera"
        " sum to the base genus in %.2fs (budget 5s)" % elapsed,
    )
    assert not failures, failures
    assert elapsed < 5.0


def test_criterion_7_recovery_superset():
    t0 = time.perf_counter()
    func = RatFunc(Poly.constant(F(1)), Poly.x())
    spec = IntegralitySpec(func, (), 100)
    pole = CurvePoint.affine(F(0), F(35, 48))
    tuples = beta_tuples(G2, G2_P, pole)
    cands = CandidateSet(2, tuple(prym_curve_equation(t) for t in tuples))
    recovered = recover_points(G2, spec, cands)
    brute = brute_force_points(G2, spec)
    elapsed = time.perf_counter() - t0

    failures = []
    rec_keys = {(p.x, p.y) for p in recovered if not p.at_infinity}
    exc_keys = {
        (p.x, p.y) for p in exceptional_points(G2, pole) if not p.at_infinity
    }
    for pt in brute:
        if (pt.x, pt.y) in exc_keys:
            continue
        if (pt.x, pt.y) not in rec_keys:
            failures.append("missed (%s, %s)" % (pt.x, pt.y))
    for pt in recovered:
        if pt.at_infinity:
            if F(func.value_at_infinity()).denominator != 1:
                failures.append("non-integral value at infinity")
            continue
        if not is_on_curve(G2, pt):
            failures.append("off-curve (%s, %s)" % (pt.x, pt.y))
        elif func.is_pole(F(pt.x)) or F(func.value_at(F(pt.x))).denominator != 1:
            failures.append("non-integral (%s, %s)" % (pt.x, pt.y))

    ok = not failures and len(brute) > 0 and elapsed < 60.0
    _report(
        7,
        ok,
        "recovery from all 16 candidate models returned %d points covering all"
        " %d height-100 search hits outside the exceptional set, every one"
        " integral and on the curve, in %.2fs (budget 60s)"
        % (len(recovered), len(brute), elapsed),
    )
    assert not failures, failures
    assert brute
    assert elapsed < 60.0


G3_BETAS = (2, 3, 5, 7, F(1, 2), F(1, 3), F(2, 5))


def test_genus_three_recovery_from_all_models():
    # the 64 Prym models of a genus-3 instance, f = 1/x, S = {2, 3, 5, 7}:
    # 1629 distinct cross-ratio targets, of which only 5/3 lifts to P
    curve, p_pt, q_pt = curve_through_betas(list(G3_BETAS))
    spec = IntegralitySpec(RatFunc(Poly.constant(F(1)), Poly.x()), (2, 3, 5, 7), 100)
    tuples = beta_tuples(curve, p_pt, q_pt)
    cands = CandidateSet(3, tuple(prym_curve_equation(t) for t in tuples))
    t0 = time.perf_counter()
    detail = recover_points_detailed(curve, spec, cands)
    elapsed = time.perf_counter() - t0
    via = "candidate 0, roots (0,1,2,4), cr 5/3"
    y = F(57992959122997248, 15625)
    exc = "exceptional set"
    assert detail == [
        (CurvePoint.affine(F(-129024, 25), 0), exc),
        (CurvePoint.affine(F(-73728, 25), 0), exc),
        (CurvePoint.affine(F(-48384, 25), 0), exc),
        (CurvePoint.affine(F(387072, 25), -y), via),
        (CurvePoint.affine(F(387072, 25), y), via),
        (CurvePoint.affine(F(395136, 25), 0), exc),
        (CurvePoint.affine(16128, 0), exc),
        (CurvePoint.affine(F(435456, 25), 0), exc),
        (CurvePoint.affine(F(516096, 25), 0), exc),
        (CurvePoint.infinity(), exc),
    ]
    assert p_pt == CurvePoint.affine(F(387072, 25), y)
    assert elapsed < 2.5


def test_genus_three_product_identity_at_19():
    # 19 is the least prime where all 64 covers of the G3_BETAS instance
    # reduce well.  The check builds no field past F_{19^3}; every cell must
    # match a twist, by order and by the whole L-polynomial identity.
    curve, p_pt, q_pt = curve_through_betas(list(G3_BETAS))
    tuples = beta_tuples(curve, p_pt, q_pt)
    failures = []
    for k, tup in enumerate(tuples):
        rep = prym_product_check(reconstruct_h_f(tup), 19)
        full = _full_identity_twists(rep, 3)
        if not rep.matched_twists or full != tuple(sorted(rep.matched_twists)):
            failures.append("tuple %d: orders match %r, L-polynomials %r"
                            % (k, rep.matched_twists, full))
    assert len(tuples) == 64
    assert not failures, failures


def test_criterion_8_elimination_nonzero():
    t0 = time.perf_counter()
    rng = random.Random(20260815)
    failures = []
    for k in range(50):
        roots = rng.sample(range(-40, 41), 5)
        curve = make_curve([F(r) for r in roots])
        x_q = F(max(roots) + rng.randint(1, 9))
        q_pt = CurvePoint.affine(x_q, F(1))
        target = F(rng.randint(2, 99), rng.randint(1, 9))
        if target == 1:
            target = F(7, 2)
        poly = cr_elimination_poly(curve, q_pt, (0, 1, 2, 3), target)
        if poly.is_zero():
            failures.append("instance %d collapsed: roots %r" % (k, roots))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    _report(
        8,
        ok,
        "50 random elimination polynomials are nonzero in %.2fs (budget 30s)"
        % elapsed,
    )
    assert not failures, failures
    assert elapsed < 30.0


def _criterion_9_commands(tmp_path):
    """Input files for every subcommand, plus a certificate written by an
    in-process `certify`; returns (name, argv) pairs."""
    e1_file = tmp_path / "e1.json"
    e1_file.write_text(dumps(curve_to_json(E1)))
    g2_file = tmp_path / "g2.json"
    g2_file.write_text(dumps(curve_to_json(G2)))
    five = make_curve([F(0), F(1), F(2), F(3), F(4)])
    five_file = tmp_path / "five.json"
    five_file.write_text(dumps(curve_to_json(five)))

    curve3, p3, q3 = _displaced(CASE_III_G2_BETAS, F(1, 49**2))
    case3_file = tmp_path / "case3.json"
    case3_file.write_text(dumps(curve_to_json(curve3)))

    cands = CandidateSet(
        2, (prym_curve_equation(beta_tuples(G2, G2_P, G2_Q)[0]),)
    )
    cands_file = tmp_path / "cands.json"
    cands_file.write_text(dumps(candidate_set_to_json(cands)))

    cert_file = tmp_path / "cert.json"
    rc = main(
        [
            "certify",
            str(case3_file),
            "--p=%s,%s" % (p3.x, p3.y),
            "--q=%s,%s" % (q3.x, q3.y),
            "--out",
            str(cert_file),
        ]
    )
    assert rc == 0

    commands = [
        ("covers", ["covers", str(g2_file), "--p=1,1/144", "--q=0,35/48"]),
        (
            "prym-check",
            ["prym-check", str(e1_file), "--p=1,1/12", "--q=0,5/8", "--primes", "13"],
        ),
        (
            "certify",
            [
                "certify",
                str(case3_file),
                "--p=%s,%s" % (p3.x, p3.y),
                "--q=%s,%s" % (q3.x, q3.y),
            ],
        ),
        ("check-bprime", ["check-bprime", str(cert_file)]),
        (
            "classify-reduction",
            ["classify-reduction", str(cert_file), "--prime", "7"],
        ),
        (
            "points",
            ["points", str(five_file), "--num", "0,1", "--den", "1", "--height-bound", "50"],
        ),
        (
            "recover",
            [
                "recover",
                str(g2_file),
                str(cands_file),
                "--num",
                "1",
                "--den",
                "0,1",
                "--height-bound",
                "100",
            ],
        ),
        ("compute-t", ["compute-t", str(g2_file), "--num", "1", "--den", "0,1"]),
    ]
    return commands


def test_criterion_9_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    commands = _criterion_9_commands(tmp_path)
    failures = []
    for name, argv in commands:
        outputs = []
        for run in (1, 2):
            out = tmp_path / ("%s_%d.json" % (name, run))
            rc = main(argv + ["--out", str(out)])
            if rc != 0:
                failures.append("%s exited %d" % (name, rc))
                break
            outputs.append(out.read_bytes())
        if len(outputs) == 2 and outputs[0] != outputs[1]:
            failures.append("%s outputs differ between runs" % name)
    elapsed = time.perf_counter() - t0
    ok = not failures
    _report(
        9,
        ok,
        "all %d CLI subcommands produced byte-identical reports across repeated"
        " runs in %.2fs" % (len(commands), elapsed),
    )
    assert not failures, failures


def test_criterion_9_in_process_matches_fresh_process(tmp_path):
    # cli.main keeps one argparse parser per process; successive calls across
    # subcommands must still write what a fresh process writes.
    commands = _criterion_9_commands(tmp_path)
    src = os.path.dirname(os.path.dirname(os.path.abspath(prymcover.__file__)))
    path = filter(None, (src, os.environ.get("PYTHONPATH")))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    failures = []
    for name, argv in commands:
        here, fresh = tmp_path / (name + "_here.json"), tmp_path / (name + "_fresh.json")
        assert main(argv + ["--out", str(here)]) == 0, name
        proc = subprocess.run(
            [sys.executable, "-m", "prymcover.cli"] + argv + ["--out", str(fresh)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, (name, proc.stderr)
        if here.read_bytes() != fresh.read_bytes():
            failures.append(name)
    assert not failures, failures
