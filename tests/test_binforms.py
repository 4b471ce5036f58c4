from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from prymcover.binforms import (
    BinaryForm,
    FormCertificate,
    GL2Matrix,
    PrimeEntry,
    bf_disc,
    bf_transform,
    certify_form,
    disc_is_s_unit,
    integral_point_to_form,
    reduction_classify,
)
from prymcover.covers import curve_through_betas
from prymcover.curves import CurvePoint, make_curve
from prymcover.errors import InternalCheckError
from prymcover.scalars import rat_ord_p

E1 = make_curve([F(-1, 3), F(9, 8), F(25, 24)])
E1_P = CurvePoint.affine(1, F(1, 12))
E1_Q = CurvePoint.affine(0, F(5, 8))


def _instance(betas, scale=None):
    """Curve and marked points through the given rational betas, with the
    displacement x_P - x_Q shrunk by scale**2 when a scale is given."""
    prod = F(1)
    for b in betas:
        prod *= 1 - F(b) * F(b)
    x_p = None if scale is None else F(scale) ** 2 * prod
    return curve_through_betas([F(b) for b in betas], x_p=x_p, x_q=0)


class TestBinaryForm:
    def test_zero_factor_rejected(self):
        with pytest.raises(ValueError, match="zero factor"):
            BinaryForm(((F(0), F(0)),))

    def test_zero_multiplier_rejected(self):
        with pytest.raises(ValueError, match="multiplier"):
            BinaryForm(((F(1), F(1)),), F(0))

    def test_coeffs_order(self):
        # 2*(X - Z)(X + 3Z) = 2*(X^2 + 2XZ - 3Z^2), constant-in-X first
        form = BinaryForm(((F(1), F(1)), (F(1), F(-3))), F(2))
        assert form.coeffs() == (F(-6), F(4), F(2))

    def test_affine_roots_skip_infinity(self):
        form = BinaryForm(((F(0), F(1)), (F(2), F(3))))
        assert form.affine_roots() == [F(3, 2)]

    def test_singular_matrix_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            GL2Matrix(2, 4, 1, 2)


class TestFromDense:
    def test_simple_split(self):
        form = BinaryForm.from_dense([F(-6), F(4), F(2)])
        assert form.coeffs() == (F(-6), F(4), F(2))
        assert sorted(form.affine_roots()) == [F(-3), F(1)]

    def test_roots_at_zero_and_infinity(self):
        # X^2 Z^2 has the double root 0 and a double root at infinity
        form = BinaryForm.from_dense([F(0), F(0), F(1), F(0), F(0)])
        assert form.degree == 4
        assert form.coeffs() == (F(0), F(0), F(1), F(0), F(0))

    def test_not_split_rejected(self):
        with pytest.raises(ValueError, match="not split"):
            BinaryForm.from_dense([F(1), F(0), F(1)])

    def test_rational_roots(self):
        # 6x^2 - 5x + 1 = (2x - 1)(3x - 1)
        form = BinaryForm.from_dense([F(1), F(-5), F(6)])
        assert sorted(form.affine_roots()) == [F(1, 3), F(1, 2)]

    def test_root_with_large_prime_factors(self):
        # (x - 1)(x - P): divisor enumeration would have to factor P
        big = 1000003 * 1000033
        form = BinaryForm.from_dense([F(big), F(-(big + 1)), F(1)])
        assert form.affine_roots() == [F(1), F(big)]
        assert form.coeffs() == (F(big), F(-(big + 1)), F(1))


class TestDisc:
    def test_product_of_two_lines(self):
        assert bf_disc(BinaryForm(((F(1), F(1)), (F(1), F(-1))))) == 4

    def test_x_times_z(self):
        assert bf_disc(BinaryForm(((F(1), F(0)), (F(0), F(-1))))) == 1

    def test_cubic(self):
        form = BinaryForm(((F(1), F(0)), (F(1), F(1)), (F(1), F(-1))))
        assert bf_disc(form) == 4

    def test_repeated_factor_vanishes(self):
        assert bf_disc(BinaryForm(((F(1), F(2)), (F(1), F(2))))) == 0

    def test_multiplier_scaling(self):
        base = BinaryForm(((F(1), F(1)), (F(1), F(-1)), (F(1), F(2))))
        scaled = BinaryForm(base.factors, F(3))
        assert bf_disc(scaled) == F(3) ** 4 * bf_disc(base)


_small_factor = st.tuples(
    st.integers(min_value=-9, max_value=9), st.integers(min_value=-9, max_value=9)
).filter(lambda t: t != (0, 0))


class TestTransform:
    @given(
        factors=st.lists(_small_factor, min_size=2, max_size=5),
        mat=st.tuples(
            st.integers(min_value=-5, max_value=5),
            st.integers(min_value=-5, max_value=5),
            st.integers(min_value=-5, max_value=5),
            st.integers(min_value=-5, max_value=5),
        ),
        lam=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=200)
    def test_disc_multiplicativity(self, factors, mat, lam):
        a, b, c, d = mat
        assume(a * d - b * c != 0)
        form = BinaryForm(tuple((F(x), F(y)) for x, y in factors), F(lam))
        u = GL2Matrix(a, b, c, d)
        r = form.degree
        assert bf_disc(bf_transform(form, u)) == u.det() ** (r * (r - 1)) * bf_disc(
            form
        )

    def test_transform_keeps_multiplier(self):
        form = BinaryForm(((F(2), F(3)),), F(5))
        out = bf_transform(form, GL2Matrix(1, 1, 0, 1))
        assert out.lam == 5
        assert out.factors == ((F(2), F(1)),)


class TestCrossRatioIdentity:
    @given(
        x_p=st.fractions(max_denominator=6),
        x_q=st.fractions(max_denominator=6),
        a_i=st.fractions(max_denominator=6),
        a_j=st.fractions(max_denominator=6),
    )
    def test_beta_square_difference(self, x_p, x_q, a_i, a_j):
        """The difference of two squared betas factors through the marked
        displacement, which is what makes case-i primes harmless."""
        assume(len({x_p, a_i, a_j}) == 3 and x_q not in (a_i, a_j))
        bi2 = (x_q - a_i) / (x_p - a_i)
        bj2 = (x_q - a_j) / (x_p - a_j)
        rhs = (x_p - x_q) * (a_j - a_i) / ((x_p - a_i) * (x_p - a_j))
        assert bi2 - bj2 == rhs


class TestSUnit:
    def test_unit(self):
        form = BinaryForm(((F(1), F(1)), (F(1), F(-1))))
        assert disc_is_s_unit(form, [2])

    def test_not_unit(self):
        form = BinaryForm(((F(1), F(1)), (F(1), F(-1))))
        assert not disc_is_s_unit(form, [3])

    def test_zero_disc(self):
        form = BinaryForm(((F(1), F(2)), (F(1), F(2))))
        assert not disc_is_s_unit(form, [2, 3, 5])


class TestCertify:
    def test_s_unit_disc_passes_with_no_entries(self):
        form = BinaryForm(((F(1), F(1)), (F(2), F(1)), (F(1), F(3)), (F(1), F(5))))
        cert = certify_form(form, [2, 3, 5])
        assert isinstance(cert, FormCertificate)
        assert cert.entries == ()

    def test_quartic_with_stray_prime_rejected(self):
        # disc picks up 7 but degree 4 leaves no room for a valid pattern
        form = BinaryForm(((F(1), F(1)), (F(1), F(8)), (F(1), F(2)), (F(1), F(3))))
        out = certify_form(form, [2, 3, 5])
        assert isinstance(out, str)
        assert "7" in out

    def test_wrong_valuation_shape_rejected(self):
        # ord_5 disc = 2 cannot equal 2mn(n-1) for odd n >= 3
        form = BinaryForm(
            (
                (F(1), F(1)),
                (F(1), F(6)),
                (F(1), F(2)),
                (F(1), F(3)),
                (F(1), F(4)),
                (F(1), F(7)),
            )
        )
        out = certify_form(form, [2, 3, 7, 11])
        assert isinstance(out, str)
        assert "5" in out

    def test_non_integral_coefficient_rejected(self):
        form = BinaryForm(((F(1), F(1, 7)), (F(1), F(1))))
        out = certify_form(form, [2, 3])
        assert isinstance(out, str)
        assert "integral" in out

    def test_composite_s_prime_rejected(self):
        form = BinaryForm(((F(1), F(1)), (F(1), F(-1))))
        with pytest.raises(ValueError, match="not prime"):
            certify_form(form, [4])

    def test_degree_six_valid_pattern(self):
        # roots 25, 50, 75 have ord_5 = 2; cofactor roots are 5-adic units
        form = BinaryForm(
            (
                (F(0), F(1)),
                (F(1), F(25)),
                (F(1), F(50)),
                (F(1), F(75)),
                (F(1), F(1)),
                (F(1), F(2)),
            )
        )
        e = rat_ord_p(bf_disc(form), 5)
        assert e == 12
        cert = certify_form(form, [2, 3, 7, 23, 37, 73])
        assert isinstance(cert, FormCertificate)
        assert [(x.prime, x.m, x.n) for x in cert.entries] == [(5, 1, 3)]
        assert cert.entries[0].root_indices == (1, 2, 3)


class TestPipelineBase:
    def test_e1_form(self):
        cert = integral_point_to_form(E1, E1_P, E1_Q, [2, 3, 5])
        assert cert.s_primes == (2, 3, 5, 7, 11)
        assert cert.entries == ()
        assert cert.form.factors == (
            (F(1), F(1)),
            (F(2), F(1)),
            (F(1), F(3)),
            (F(1), F(5)),
        )
        assert disc_is_s_unit(cert.form, cert.s_primes)

    def test_e1_does_not_need_input_primes(self):
        cert = integral_point_to_form(E1, E1_P, E1_Q, [])
        assert cert.s_primes == (2, 3, 5, 7, 11)


class TestPipelineNegative:
    """x_P - x_Q acquires a prime in its denominator: the c-rescaling."""

    def test_denominator_prime_cleared(self):
        curve, p_pt, q_pt = _instance((7, 14, 21), scale=F(1, 7))
        assert rat_ord_p(F(p_pt.x) - F(q_pt.x), 7) == -2
        cert = integral_point_to_form(curve, p_pt, q_pt, [])
        assert cert.s_primes == (2, 3, 5, 11, 13)
        assert 7 not in cert.s_primes
        assert cert.entries == ()
        assert cert.form.factors == (
            (F(7), F(1)),
            (F(1), F(1)),
            (F(1), F(2)),
            (F(1), F(3)),
        )
        assert rat_ord_p(bf_disc(cert.form), 7) == 0
        assert disc_is_s_unit(cert.form, cert.s_primes)


class TestPipelinePositive:
    """x_P = x_Q mod p: the unimodular substitution and the rescalings."""

    def _cert(self):
        curve, p_pt, q_pt = _instance(
            (6, F(3, 4), F(4, 3), F(9, 2), 8), scale=F(1, 49)
        )
        assert rat_ord_p(F(p_pt.x) - F(q_pt.x), 7) == 1
        return integral_point_to_form(curve, p_pt, q_pt, [])

    def test_entry_shape(self):
        cert = self._cert()
        assert 7 not in cert.s_primes
        assert [(e.prime, e.m, e.n) for e in cert.entries] == [(7, 1, 3)]
        assert rat_ord_p(bf_disc(cert.form), 7) == 2 * 1 * 3 * (3 - 1)

    def test_special_root_valuations(self):
        cert = self._cert()
        entry = cert.entries[0]
        for idx in entry.root_indices:
            d, gm = cert.form.factors[idx]
            assert rat_ord_p(gm / d, 7) == 2
        others = set(range(len(cert.form.factors))) - set(entry.root_indices)
        for idx in others:
            d, gm = cert.form.factors[idx]
            if d != 0:
                assert rat_ord_p(gm / d, 7) == 0

    def test_outside_entry_primes_disc_is_s_unit(self):
        cert = self._cert()
        disc = bf_disc(cert.form)
        stripped = abs(disc.numerator)
        for p in cert.s_primes + (7,):
            while stripped % p == 0:
                stripped //= p
        assert stripped == 1 and disc.denominator == 1


class TestPipelineRescue:
    """Every beta lands in -1 mod p: the final Z-rescaling clears p."""

    def test_prime_eliminated(self):
        curve, p_pt, q_pt = _instance((4, F(2, 3), F(3, 2)), scale=F(1, 5))
        assert rat_ord_p(F(p_pt.x) - F(q_pt.x), 5) == 1
        cert = integral_point_to_form(curve, p_pt, q_pt, [])
        assert 5 not in cert.s_primes
        assert cert.entries == ()
        assert rat_ord_p(bf_disc(cert.form), 5) == 0
        assert disc_is_s_unit(cert.form, cert.s_primes)


class TestPipelineErrors:
    def test_irrational_betas(self):
        curve = make_curve([0, -3, -8])
        p_pt = CurvePoint.affine(12, 60)
        q_pt = CurvePoint.affine(1, 6)
        with pytest.raises(ValueError, match="rational beta-tuple"):
            integral_point_to_form(curve, p_pt, q_pt, [])

    def test_even_degree_rejected(self):
        curve = make_curve([0, -3, -8, 1])
        with pytest.raises(ValueError, match="odd-degree"):
            integral_point_to_form(
                curve, CurvePoint.affine(3, 18), CurvePoint.affine(-4, 12), []
            )

    def test_branch_point_rejected(self):
        curve = make_curve([0, -3, -8])
        with pytest.raises(ValueError, match="branch"):
            integral_point_to_form(
                curve, CurvePoint.affine(0, 0), CurvePoint.affine(1, 6), []
            )

    def test_off_curve_rejected(self):
        with pytest.raises(ValueError, match="lie on the curve"):
            integral_point_to_form(
                E1, CurvePoint.affine(1, 1), E1_Q, []
            )

    def test_infinity_rejected(self):
        with pytest.raises(ValueError, match="affine"):
            integral_point_to_form(E1, CurvePoint.infinity(), E1_Q, [])

    def test_shared_x_rejected(self):
        curve = make_curve([0, -3, -8])
        with pytest.raises(ValueError, match="share an x-coordinate"):
            integral_point_to_form(
                curve, CurvePoint.affine(12, 60), CurvePoint.affine(12, -60), []
            )


class TestPipelineClosure:
    @given(
        b1=st.integers(min_value=2, max_value=9),
        b2=st.integers(min_value=2, max_value=9),
        b3=st.integers(min_value=2, max_value=9),
    )
    @settings(max_examples=25, deadline=None)
    def test_generated_instances_certify(self, b1, b2, b3):
        assume(len({b1, b2, b3}) == 3)
        try:
            curve, p_pt, q_pt = _instance((b1, b2, b3))
        except ValueError:
            assume(False)
        cert = integral_point_to_form(curve, p_pt, q_pt, [])
        assert isinstance(cert, FormCertificate)
        recheck = certify_form(cert.form, cert.s_primes)
        assert isinstance(recheck, FormCertificate)
        assert recheck.entries == cert.entries


class TestReductionClassify:
    def _cert(self):
        curve, p_pt, q_pt = _instance(
            (6, F(3, 4), F(4, 3), F(9, 2), 8), scale=F(1, 49)
        )
        return integral_point_to_form(curve, p_pt, q_pt, [])

    def test_split_product(self):
        rep = reduction_classify(self._cert(), 7)
        assert rep.kind == "split-product"
        assert len(rep.components) == 2
        genera = sorted(c.genus for c in rep.components)
        assert genera == [1, 1]
        assert sum(genera) == 2

    def test_split_component_equations(self):
        rep = reduction_classify(self._cert(), 7)
        first, second = rep.components
        # y^2 = x * (reduced cofactor), so constant term 0 and a unit at x=1
        assert first.coeffs[0] == 0
        assert len(first.coeffs) == 4
        # y^2 = cofactor(0) * prod (x - u_i) picks up the three unit roots
        assert len(second.coeffs) == 4
        assert second.coeffs[-1] != 0

    def test_good_prime(self):
        rep = reduction_classify(self._cert(), 13)
        assert rep.kind == "good-irreducible"
        assert rep.components == ()

    def test_prime_in_s_rejected(self):
        with pytest.raises(ValueError, match="lies in S"):
            reduction_classify(self._cert(), 3)

    def test_even_prime_rejected(self):
        cert = self._cert()
        with pytest.raises(ValueError, match="odd prime"):
            reduction_classify(cert, 4)

    def test_odd_degree_form_rejected(self):
        form = BinaryForm(((F(1), F(1)), (F(1), F(2)), (F(1), F(3))))
        cert = certify_form(form, [2])
        assert isinstance(cert, FormCertificate)
        with pytest.raises(ValueError, match="even-degree"):
            reduction_classify(cert, 5)

    def test_inconsistent_certificate_detected(self):
        # a forged entry pointing at unit roots must be caught
        form = BinaryForm(((F(1), F(1)), (F(2), F(1)), (F(1), F(3)), (F(1), F(5))))
        forged = FormCertificate(
            form, (2, 3), (PrimeEntry(5, 1, 3, (0, 2, 3)),)
        )
        with pytest.raises(InternalCheckError):
            reduction_classify(forged, 5)
