from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from prymcover.covers import beta_tuples, curve_through_betas, reconstruct_h_f
from prymcover.curves import CurvePoint, make_curve
from prymcover.errors import InternalCheckError
from prymcover.finitefield import _FIELD_CACHE, get_field
from prymcover.zeta import (
    FFCurve,
    count_double_cover,
    count_points,
    jacobian_order,
    l_polynomial,
    prym_check_obstruction,
    prym_product_check,
    ReducedCover,
    reduce_cover,
    reduce_curve,
)

E1 = make_curve([F(-1, 3), F(9, 8), F(25, 24)])
E1_P = CurvePoint.affine(1, F(1, 12))
E1_Q = CurvePoint.affine(0, F(5, 8))
G2 = make_curve([F(-1, 3), F(9, 8), F(25, 24), F(4, 3), F(49, 48)])
G2_P = CurvePoint.affine(1, F(1, 144))
G2_Q = CurvePoint.affine(0, F(35, 48))


def brute_count(ffc: FFCurve, deg: int) -> int:
    """Independent point count: the (x, y) pairs with y^2 = f(x), from the
    multiplicity of each square over every y."""
    field = get_field(ffc.p, deg)
    coeffs = ffc.coeffs()
    squares = Counter(field.mul(y, y) for y in field.element_list())
    total = 0
    for x in field.element_list():
        fx = 0
        for c in reversed(coeffs):
            fx = field.add(field.mul(fx, x), field.embed(c))
        total += squares[fx]
    if ffc.degree % 2 == 1:
        total += 1
    else:
        total += 1 + field.chi_table()[field.embed(ffc.lead)]
    return total


def _horner(field, coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = field.add(field.mul(acc, x), field.embed(c))
    return acc


def reference_count_points(ffc: FFCurve, deg: int) -> int:
    """count_points by definition: 1 + chi(f(x)) over every x, with the
    definitional arithmetic and the power-map character."""
    field = get_field(ffc.p, deg)
    total = sum(1 + field.chi(_horner(field, ffc.coeffs(), x)) for x in field.element_list())
    if ffc.degree % 2 == 1:
        return total + 1
    return total + 1 + field.chi(field.embed(ffc.lead))


def reference_count_double_cover(cover, deg: int) -> int:
    """count_double_cover by definition, over every x with the definitional
    arithmetic: each y with y^2 = f(x) is found by enumeration and counts
    1 + chi(y + h(x)) where y + h(x) != 0.  Where y + h vanishes, F is
    evaluated: above a root of F the smooth model has
    1 + chi((x - x_P)(x - x_Q) * 2h(x)) points, elsewhere the ramified point
    counts 1.  This is independent of the norm identity the code uses."""
    base, field = cover.base, get_field(cover.base.p, deg)
    squares = [(y, field.mul(y, y)) for y in field.element_list()]
    xp, xq, two = field.embed(cover.x_p), field.embed(cover.x_q), field.embed(2)
    total = 0
    for x in field.element_list():
        fx = _horner(field, base.coeffs(), x)
        hx = _horner(field, cover.h, x)
        gx = _horner(field, cover.big_f, x)
        for y in [y for y, s in squares if s == fx]:
            u = field.add(y, hx)
            if u != 0:
                total += 1 + field.chi(u)
            elif gx == 0:
                d1 = field.add(x, field.neg(xp))
                d2 = field.add(x, field.neg(xq))
                total += 1 + field.chi(field.mul(field.mul(d1, d2), field.mul(two, hx)))
            else:
                total += 1
    lam = cover.h[-1] * pow(base.lead, base.genus + 1, base.p)
    return total + 1 + field.chi(field.embed(lam))


class TestReduce:
    def test_good(self):
        ffc = reduce_curve(E1, 13)
        assert ffc.p == 13
        assert sorted(ffc.roots) == [4, 6, 7]
        assert ffc.lead == 1

    def test_collision(self):
        with pytest.raises(ValueError):
            reduce_curve(E1, 7)

    def test_escape(self):
        with pytest.raises(ValueError):
            reduce_curve(E1, 3)

    def test_lead_loss(self):
        c = make_curve([0, 1, 2], lead=5)
        with pytest.raises(ValueError):
            reduce_curve(c, 5)

    def test_even_prime(self):
        with pytest.raises(ValueError):
            reduce_curve(E1, 2)

    def test_poly_mod_p(self):
        from prymcover.modp import poly_mod
        from prymcover.polys import Poly

        assert poly_mod(Poly([F(1, 2), F(3)]), 5) == (3, 3)
        with pytest.raises(ValueError):
            poly_mod(Poly([F(1, 5)]), 5)


class TestCountPoints:
    def test_known_elliptic(self):
        # y^2 = x^3 - x over F_5 has 7 affine points plus infinity.
        ffc = FFCurve(5, (0, 1, 4))
        assert count_points(ffc) == 8

    def test_matches_brute_force(self):
        cases = [
            (FFCurve(5, (0, 1, 4)), 1),
            (FFCurve(5, (0, 1, 4)), 2),
            (FFCurve(7, (0, 1, 6), 3), 1),
            (FFCurve(13, (4, 6, 7)), 2),
            (FFCurve(7, (0, 1, 2, 3, 5)), 1),
            (FFCurve(5, (0, 1, 2, 4), 3), 1),
            (FFCurve(3, (0, 1, 2)), 3),
        ]
        for ffc, deg in cases:
            assert count_points(ffc, deg) == brute_count(ffc, deg), (ffc, deg)

    def test_weil_interval(self):
        ffc = FFCurve(13, (4, 6, 7))
        for deg in (1, 2):
            n = count_points(ffc, deg)
            q = 13**deg
            assert (n - q - 1) ** 2 <= 4 * q


def _poly_remainder(num, den):
    """Remainder of exact division of integer coefficient lists (constant
    first), computed over the rationals."""
    num = [F(c) for c in num]
    den = [F(c) for c in den]
    while len(num) >= len(den):
        q = num[-1] / den[-1]
        for i in range(len(den)):
            num[len(num) - len(den) + i] -= q * den[i]
        assert num[-1] == 0
        num.pop()
    return num


class TestDoubleCover:
    def _cover(self, idx, p=13):
        t = beta_tuples(E1, E1_P, E1_Q)[idx]
        return reduce_cover(reconstruct_h_f(t), p)

    def test_regression_first_tuple(self):
        # Derivation for the first tuple mod 13, independent of the code
        # path: the naive plane enumeration finds 13, 211, 2197 affine
        # points over F_13, F_169, F_2197.  The plane model is singular at
        # the double zero of y + h above the root x0 = 2 of F, where the
        # smooth model has 1 + chi((x0-xP)(x0-xQ)*2h(x0)) = 1 + chi(6)
        # points; 6 is a nonsquare mod 13 and a square in every even-degree
        # extension, so the corrections are -1, +1, -1.  Infinity adds 2 at
        # every degree since lc(h) = 10 is a square mod 13.
        cover = self._cover(0)
        assert count_double_cover(cover, 1) == 14
        assert count_double_cover(cover, 2) == 214
        assert count_double_cover(cover, 3) == 2198

    def test_base_numerator_divides_cover_numerator(self):
        # Pulling divisor classes back along the cover map embeds the base
        # Jacobian into the cover Jacobian up to isogeny, so the base zeta
        # numerator divides the cover's.  This fails loudly for miscounts:
        # dropping the normalization at the singular plane points leaves a
        # remainder for half the tuples.
        for idx in range(4):
            cover = self._cover(idx)
            lp_base = l_polynomial(13, [count_points(cover.base, 1)], 1)
            counts = [count_double_cover(cover, i) for i in (1, 2)]
            lp_cover = l_polynomial(13, counts, 2)
            rem = _poly_remainder(list(lp_cover.coeffs), list(lp_base.coeffs))
            assert all(c == 0 for c in rem), (idx, rem)

    def test_even_base_rejected(self):
        from prymcover.covers import BetaTuple, CoverCertificate
        from prymcover.polys import Poly

        curve = make_curve([0, 1, 2, 3])
        t = BetaTuple(
            curve,
            CurvePoint.affine(5, F(1)),
            CurvePoint.affine(4, F(1)),
            (F(1), F(1), F(1), F(1)),
        )
        cert = CoverCertificate(t, Poly([F(1)]), Poly([F(1)]))
        with pytest.raises(ValueError, match="odd-degree"):
            reduce_cover(cert, 7)

    def test_wrong_h_degree_rejected(self):
        from prymcover.covers import BetaTuple, CoverCertificate
        from prymcover.polys import Poly

        curve = make_curve([0, 1, 2])
        t = BetaTuple(
            curve,
            CurvePoint.affine(5, F(1)),
            CurvePoint.affine(4, F(1)),
            (F(1), F(1), F(1)),
        )
        cert = CoverCertificate(t, Poly([F(1)]), Poly([F(1)]))
        with pytest.raises(ValueError, match="degree"):
            reduce_cover(cert, 7)


class TestAgainstDefinition:
    """The log-table and Frobenius-orbit counts against the definitional
    references above, over fields of at most 343 elements."""

    def _covers(self, curve, p_pt, q_pt, p):
        return [reduce_cover(reconstruct_h_f(t), p) for t in beta_tuples(curve, p_pt, q_pt)]

    def _check(self, covers, degrees):
        for k, cover in enumerate(covers):
            for deg in degrees:
                assert count_double_cover(cover, deg) == reference_count_double_cover(
                    cover, deg
                ), (cover.base.p, k, deg)
                assert count_points(cover.base, deg) == reference_count_points(
                    cover.base, deg
                ), (cover.base.p, k, deg)

    def test_e1_covers(self):
        for p in (13, 17):
            self._check(self._covers(E1, E1_P, E1_Q, p), (1, 2))

    def test_g2_covers(self):
        self._check(self._covers(G2, G2_P, G2_Q, 17), (1, 2))

    def test_orbits_of_size_three(self):
        from prymcover.covers import curve_through_betas

        curve, p_pt, q_pt = curve_through_betas((F(2), F(3), F(7)))
        self._check(self._covers(curve, p_pt, q_pt, 7), (1, 2, 3))

    def test_prym_models_and_even_degree(self):
        for ffc, deg in (
            (FFCurve(17, (0, 1, 3, 7, 12, 16), 3), 2),
            (FFCurve(3, (0, 1, 2)), 5),
            (FFCurve(5, (0, 1, 2, 4), 2), 3),
        ):
            assert count_points(ffc, deg) == reference_count_points(ffc, deg), (ffc, deg)

    def test_non_fp_data_rejected(self):
        cover = self._covers(E1, E1_P, E1_Q, 13)[0]
        bad = ReducedCover(cover.base, cover.h, cover.big_f, 13, cover.x_q)
        with pytest.raises(InternalCheckError):
            count_double_cover(bad, 1)


SMALL_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23)
# Betas that curve_through_betas accepts: nonzero, not +-1, squares distinct.
BETAS = st.integers(1, 2).flatmap(
    lambda g: st.lists(
        st.fractions(min_value=-9, max_value=9, max_denominator=4).filter(
            lambda b: b * b not in (0, 1)
        ),
        min_size=2 * g + 1,
        max_size=2 * g + 1,
        unique_by=lambda b: b * b,
    )
)


@settings(max_examples=30, deadline=None)
@given(
    betas=BETAS,
    cell=st.integers(0, 15),
    start=st.sampled_from(SMALL_PRIMES),
    deg=st.sampled_from((1, 2)),
)
# F = 8 + 11x + x^2 mod 13 has discriminant 11, a nonresidue: the double
# zeros of y + h lie off F_13 and show up over F_169.
@example(betas=[F(2), F(3), F(1, 2), F(5), F(1, 3)], cell=0, start=13, deg=1)
@example(betas=[F(2), F(3), F(1, 2), F(5), F(1, 3)], cell=0, start=13, deg=2)
def test_count_double_cover_matches_reference_on_random_covers(betas, cell, start, deg):
    """Genus-1 and genus-2 covers from curve_through_betas, at the first prime
    from `start` on (wrapping round) where the cover reduces."""
    curve, p_pt, q_pt = curve_through_betas(betas)
    tuples = beta_tuples(curve, p_pt, q_pt)
    cert = reconstruct_h_f(tuples[cell % len(tuples)])
    covers = {}
    for p in SMALL_PRIMES:
        try:
            covers[p] = reduce_cover(cert, p)
        except ValueError:
            pass
    assume(covers)
    p = next((q for q in covers if q >= start), min(covers))
    assert count_double_cover(covers[p], deg) == reference_count_double_cover(
        covers[p], deg
    ), (betas, cell, p, deg)


class TestLPolynomial:
    def test_genus1_example(self):
        lp = l_polynomial(5, [8], 1)
        assert lp.coeffs == (1, 2, 5)
        assert lp.order() == 8

    def test_functional_equation(self):
        ffc = FFCurve(7, (0, 1, 2, 3, 5))
        counts = [count_points(ffc, i) for i in (1, 2)]
        lp = l_polynomial(7, counts, 2)
        a = lp.coeffs
        assert a[0] == 1
        assert a[4] == 49 * a[0]
        assert a[3] == 7 * a[1]

    def test_predicts_higher_counts(self):
        # The numerator built from N_1, ..., N_g determines N_k for k > g
        # (for genus 1, also past the degree of the numerator); compare
        # with brute-force counts.
        ffc = FFCurve(7, (0, 1, 2, 3, 5))
        lp = l_polynomial(7, [count_points(ffc, i) for i in (1, 2)], 2)
        assert lp.counts(4)[2:] == (brute_count(ffc, 3), brute_count(ffc, 4))
        ell = FFCurve(11, (0, 1, 5))
        lp = l_polynomial(11, [count_points(ell, 1)], 1)
        assert lp.counts(3) == tuple(brute_count(ell, k) for k in (1, 2, 3))

    def test_weil_violation(self):
        with pytest.raises(ValueError):
            l_polynomial(5, [100], 1)

    def test_counts_round_trip(self):
        # LPoly.counts inverts l_polynomial on genus 1, 2 and 3 models.
        for ffc in (FFCurve(11, (0, 1, 5)), FFCurve(7, (0, 1, 2, 3, 5)),
                    FFCurve(13, (1, 2, 4, 7, 9, 11, 12))):
            g = ffc.genus
            lp = l_polynomial(ffc.p, [count_points(ffc, i) for i in range(1, g + 1)], g)
            assert l_polynomial(ffc.p, lp.counts(g), g) == lp

    def test_jacobian_order_positive(self):
        for roots in [(0, 1, 4), (0, 2, 3), (1, 2, 4)]:
            assert jacobian_order(FFCurve(5, roots)) > 0


class TestPrymProductCheck:
    def test_e1_at_13(self):
        t = beta_tuples(E1, E1_P, E1_Q)[0]
        cert = reconstruct_h_f(t)
        report = prym_product_check(cert, 13)
        assert report.order_cover == report.order_base * min(
            report.orders_prym[m] for m in report.matched_twists
        ) or len(report.matched_twists) >= 1
        assert report.matched_twists
        for label in report.matched_twists:
            assert report.order_cover == report.order_base * report.orders_prym[label]

    def test_e1_all_tuples_at_13(self):
        for t in beta_tuples(E1, E1_P, E1_Q):
            report = prym_product_check(reconstruct_h_f(t), 13)
            assert report.matched_twists, t.betas

    def test_bad_prime_rejected(self):
        t = beta_tuples(E1, E1_P, E1_Q)[0]
        cert = reconstruct_h_f(t)
        for p in (3, 5, 7, 11):
            with pytest.raises(ValueError):
                prym_product_check(cert, p)

    def test_obstruction_reasons(self):
        t = beta_tuples(E1, E1_P, E1_Q)[0]
        cert = reconstruct_h_f(t)
        assert prym_check_obstruction(cert, 13) == ""
        assert "base model" in prym_check_obstruction(cert, 7)

    def test_point_collision_detected(self):
        # A genus-2 instance built so that x_P - x_Q = 385/64: the curve
        # itself reduces well mod 7 but the marked points collide there.
        from prymcover.covers import BetaTuple, curve_through_betas

        betas = (F(6), F(3, 4), F(4, 3), F(9, 2), F(8))
        curve, p_pt, q_pt = curve_through_betas(betas, F(385, 64), 0)
        reduce_curve(curve, 7)
        t = BetaTuple(curve, p_pt, q_pt, betas)
        t.validate()
        cert = reconstruct_h_f(t)
        assert prym_check_obstruction(cert, 7) == "marked points collide mod p"

    def test_field_size_guard_uses_the_estimate(self):
        # G2 at p = 1031 would count over F_{1031^2}: 1031 is the least prime
        # whose square passes 2^20.  The check refuses it before any field
        # exists.
        cert = reconstruct_h_f(beta_tuples(G2, G2_P, G2_Q)[0])
        with pytest.raises(ValueError, match=r"F_1031\^2 has 1062961 elements"):
            prym_product_check(cert, 1031)
        assert not [key for key in _FIELD_CACHE if key[0] == 1031]

    def test_g2_at_101_builds_no_field_past_degree_2(self):
        # The cover's counts over F_{101^3} and F_{101^4} are derived, so
        # only F_101 and F_{101^2} are built.
        for t in beta_tuples(G2, G2_P, G2_Q):
            assert prym_product_check(reconstruct_h_f(t), 101).matched_twists, t.betas
        assert not [key for key in _FIELD_CACHE if key[0] == 101 and key[1] > 2]

    def test_fields_of_one_prime_stay_cached(self):
        # Building a field of a new characteristic drops the fields cached
        # before, so memory is bounded by one prime's tables.
        cert = reconstruct_h_f(beta_tuples(G2, G2_P, G2_Q)[0])
        for p in (17, 19):
            prym_product_check(cert, p)
        assert sorted(_FIELD_CACHE) == [(19, 1), (19, 2)]

    def test_inconsistent_cover_counts_raise(self, monkeypatch):
        # Cover counts that no isogeny factor explains: L_prym fails the
        # Weil bound, and that is an internal failure, not a bad prime.
        import prymcover.zeta as zeta

        counted = zeta.count_double_cover
        monkeypatch.setattr(
            zeta, "count_double_cover", lambda cover, deg: counted(cover, deg) + 1000
        )
        cert = reconstruct_h_f(beta_tuples(E1, E1_P, E1_Q)[0])
        with pytest.raises(InternalCheckError, match="Weil bound"):
            prym_product_check(cert, 13)
