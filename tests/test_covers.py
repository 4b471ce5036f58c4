import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from prymcover.covers import (
    all_plus_beta_tuple,
    BetaTuple,
    beta_tuples,
    cross_ratio,
    curve_through_betas,
    prym_curve_equation,
    reconstruct_h_f,
    tower_equations,
)
from prymcover.curves import CurvePoint, make_curve
from prymcover.polys import Poly
from prymcover.scalars import MQElem, sqrt_adjoin

E1 = make_curve([F(-1, 3), F(9, 8), F(25, 24)])
E1_P = CurvePoint.affine(1, F(1, 12))
E1_Q = CurvePoint.affine(0, F(5, 8))

G2 = make_curve([F(-1, 3), F(9, 8), F(25, 24), F(4, 3), F(49, 48)])
G2_P = CurvePoint.affine(1, F(1, 144))
G2_Q = CurvePoint.affine(0, F(35, 48))


class TestBetaTuples:
    def test_count_genus1(self):
        assert len(beta_tuples(E1, E1_P, E1_Q)) == 4

    def test_count_genus2(self):
        assert len(beta_tuples(G2, G2_P, G2_Q)) == 16

    def test_e1_values(self):
        tuples = {t.betas for t in beta_tuples(E1, E1_P, E1_Q)}
        assert tuples == {
            (F(1, 2), F(3), F(5)),
            (F(1, 2), F(-3), F(-5)),
            (F(-1, 2), F(3), F(-5)),
            (F(-1, 2), F(-3), F(5)),
        }

    def test_lex_order(self):
        firsts = [t.betas[:2] for t in beta_tuples(E1, E1_P, E1_Q)]
        assert firsts == [
            (F(1, 2), F(3)),
            (F(1, 2), F(-3)),
            (F(-1, 2), F(3)),
            (F(-1, 2), F(-3)),
        ]

    def test_product_constraint(self):
        for t in beta_tuples(G2, G2_P, G2_Q):
            prod = F(1)
            for b in t.betas:
                prod *= b
            assert prod == F(G2_Q.y) / F(G2_P.y) == 105

    def test_all_validate(self):
        for t in beta_tuples(E1, E1_P, E1_Q):
            t.validate()


def _per_tuple_betas(curve, p, q):
    """Reference rule: each tuple multiplies out its own product and takes
    the sign of the last beta that makes it y_Q / y_P."""
    y_ratio = F(q.y) / F(p.y)
    base = [sqrt_adjoin((F(q.x) - r) / (F(p.x) - r)) for r in curve.roots]
    out = []
    for signs in itertools.product((1, -1), repeat=len(base) - 1):
        betas = [s * b for s, b in zip(signs, base)]
        with_plus = base[-1]
        for b in betas:
            with_plus = with_plus * b
        assert with_plus in (y_ratio, -y_ratio)
        betas.append(base[-1] if with_plus == y_ratio else -base[-1])
        out.append(tuple(betas))
    return out


IRRATIONAL = make_curve([-4, -2, 1])
IRRATIONAL_P = CurvePoint.affine(-3, 2)
IRRATIONAL_Q = CurvePoint.affine(4, 12)


@pytest.mark.parametrize(
    "curve, p, q",
    [(E1, E1_P, E1_Q), (G2, G2_P, G2_Q), (IRRATIONAL, IRRATIONAL_P, IRRATIONAL_Q)],
    ids=["E1", "G2", "irrational"],
)
def test_single_product_matches_per_tuple_rule(curve, p, q):
    got = [t.betas for t in beta_tuples(curve, p, q)]
    assert got == _per_tuple_betas(curve, p, q)


@pytest.mark.parametrize(
    "curve, p, q",
    [(E1, E1_P, E1_Q), (G2, G2_P, G2_Q), (IRRATIONAL, IRRATIONAL_P, IRRATIONAL_Q)],
    ids=["E1", "G2", "irrational"],
)
def test_all_plus_tuple_is_the_first_tuple(curve, p, q):
    assert all_plus_beta_tuple(curve, p, q) == beta_tuples(curve, p, q)[0]


def test_all_plus_tuple_checks_the_pair():
    with pytest.raises(ValueError, match="share an x-coordinate"):
        all_plus_beta_tuple(E1, E1_P, CurvePoint.affine(1, F(-1, 12)))


def test_irrational_instance_has_mq_betas():
    tuples = beta_tuples(IRRATIONAL, IRRATIONAL_P, IRRATIONAL_Q)
    assert all(isinstance(b, MQElem) for t in tuples for b in t.betas)
    for t in tuples:
        t.validate()


class TestErrors:
    def test_equal_x(self):
        q = CurvePoint.affine(1, F(-1, 12))
        with pytest.raises(ValueError):
            beta_tuples(E1, E1_P, q)

    def test_weierstrass(self):
        w = CurvePoint.affine(F(-1, 3), 0)
        with pytest.raises(ValueError):
            beta_tuples(E1, w, E1_Q)

    def test_off_curve(self):
        with pytest.raises(ValueError):
            beta_tuples(E1, CurvePoint.affine(2, 2), E1_Q)

    def test_even_model_rejected(self):
        c = make_curve([0, 1, 2, 3])
        with pytest.raises(ValueError):
            beta_tuples(c, CurvePoint.affine(-1, F(1)), CurvePoint.affine(5, F(1)))

    def test_infinity_rejected(self):
        with pytest.raises(ValueError):
            beta_tuples(E1, CurvePoint.infinity(), E1_Q)


class TestReconstruct:
    def test_e1_hand_values(self):
        t = BetaTuple(E1, E1_P, E1_Q, (F(1, 2), F(3), F(5)))
        t.validate()
        cert = reconstruct_h_f(t)
        assert cert.h == Poly([F(-5, 8), F(85, 24), -3])
        assert cert.big_f == Poly([F(-53, 24), 3])

    def test_e1_all_tuples(self):
        f = E1.poly()
        pair = Poly.from_roots([F(1), F(0)])
        for t in beta_tuples(E1, E1_P, E1_Q):
            cert = reconstruct_h_f(t)
            assert cert.h.degree == 2
            assert cert.h * cert.h - f == pair * cert.big_f * cert.big_f
            assert cert.h(F(1)) == -E1_P.y
            assert cert.h(F(0)) == -E1_Q.y

    def test_g2_all_tuples(self):
        f = G2.poly()
        pair = Poly.from_roots([F(1), F(0)])
        for t in beta_tuples(G2, G2_P, G2_Q):
            cert = reconstruct_h_f(t)
            assert cert.h.degree == 3
            assert cert.h * cert.h - f == pair * cert.big_f * cert.big_f

    def test_leading_coefficients_match(self):
        for t in beta_tuples(E1, E1_P, E1_Q) + beta_tuples(G2, G2_P, G2_Q):
            cert = reconstruct_h_f(t)
            assert cert.h.lead == cert.big_f.lead or cert.h.lead == -cert.big_f.lead

    def test_irrational_tuple(self):
        # y^2 = 6x(x-1)(x+1) has rational points (2, 6) and (3, 12) whose
        # beta ratios are not squares, so the tuples live in a genuine
        # multi-quadratic extension.
        c = make_curve([0, 1, -1], lead=6)
        p = CurvePoint.affine(2, 6)
        q = CurvePoint.affine(3, 12)
        tuples = beta_tuples(c, p, q)
        assert len(tuples) == 4
        saw_mq = False
        f = c.poly()
        pair = Poly.from_roots([F(2), F(3)])
        for t in tuples:
            saw_mq = saw_mq or any(isinstance(b, MQElem) for b in t.betas)
            cert = reconstruct_h_f(t)
            assert cert.h * cert.h - f == pair * cert.big_f * cert.big_f
        assert saw_mq


class TestPrymAndTower:
    def test_prym_model(self):
        t = BetaTuple(E1, E1_P, E1_Q, (F(1, 2), F(3), F(5)))
        x = prym_curve_equation(t)
        assert x.roots == (F(1), F(1, 2), F(3), F(5))
        assert x.twist_unknown
        assert x.genus == 1

    def test_degenerate_prym_rejected(self):
        # A beta equal to another beta collapses the model.
        t = BetaTuple(E1, E1_P, E1_Q, (F(1, 2), F(3), F(5)))
        bad = BetaTuple(E1, E1_P, E1_Q, (F(3), F(3), F(5)))
        with pytest.raises(ValueError):
            prym_curve_equation(bad)
        del t

    def test_tower(self):
        t = beta_tuples(G2, G2_P, G2_Q)[0]
        cert = reconstruct_h_f(t)
        tow = tower_equations(cert)
        assert tow.genus_base == 2
        assert tow.genus_cover == 4
        assert tow.genus_prym == 2
        assert tow.branch_poly == tow.c1_poly
        assert tow.prym.degree == 6


class TestCrossRatio:
    def test_values(self):
        assert cross_ratio(F(1), F(1, 2), F(3), F(5)) == F(9, 10)
        assert cross_ratio(F(0), F(1), F(2), F(3)) == F(4, 3)

    def test_distinctness(self):
        with pytest.raises(ValueError):
            cross_ratio(F(1), F(1), F(2), F(3))

    def test_mq_scalars(self):
        s = sqrt_adjoin(2)
        v = cross_ratio(s, -s, F(0), F(1))
        assert v * ((-s) - 0) * (s - 1) == (s - 0) * ((-s) - 1)

    @given(
        st.fractions(min_value=-20, max_value=20, max_denominator=9),
        st.fractions(min_value=-20, max_value=20, max_denominator=9),
        st.fractions(min_value=-20, max_value=20, max_denominator=9),
        st.fractions(min_value=-20, max_value=20, max_denominator=9),
    )
    def test_invariance_under_moebius(self, a, b, c, d):
        vals = [a, b, c, d]
        if len(set(vals)) < 4:
            return
        base = cross_ratio(a, b, c, d)
        # translation and scaling leave the cross-ratio fixed
        assert cross_ratio(a + 7, b + 7, c + 7, d + 7) == base
        assert cross_ratio(3 * a, 3 * b, 3 * c, 3 * d) == base
        # inversion too, when no value is zero
        if 0 not in vals:
            inv = [1 / v for v in vals]
            assert cross_ratio(*inv) == base


class TestCurveThroughBetas:
    def test_reproduces_e1(self):
        curve, p, q = curve_through_betas([F(1, 2), 3, 5], 1, 0)
        assert curve.roots == E1.roots
        assert (p, q) == (E1_P, E1_Q)

    def test_reproduces_g2(self):
        curve, p, q = curve_through_betas([F(1, 2), 3, 5, 2, 7], 1, 0)
        assert curve.roots == G2.roots
        assert (p, q) == (G2_P, G2_Q)

    def test_rejects_unit_beta(self):
        with pytest.raises(ValueError):
            curve_through_betas([1, 2, 3], 1, 0)

    def test_auto_xp_always_square(self):
        curve, p, q = curve_through_betas([F(5), F(2, 3), F(9, 2)])
        assert q.x == 0
        assert p.y > 0

    @settings(max_examples=25, deadline=None)
    @given(st.permutations([F(5), F(2, 3), F(3, 2), F(7), F(9, 2), F(-4)]))
    def test_roundtrip_through_enumeration(self, betas):
        betas = list(betas[:3])
        if len({b * b for b in betas}) < 3:
            return
        curve, p, q = curve_through_betas(betas)
        found = {t.betas for t in beta_tuples(curve, p, q)}
        assert tuple(betas) in found
