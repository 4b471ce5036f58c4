from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from prymcover.polys import (
    NEG_INFINITY,
    PoleError,
    Poly,
    RatFunc,
    clear_denominators,
    exact_quotient,
    mul_coeffs,
    poly_disc,
    poly_gcd,
    primitive,
    resultant,
    scaled,
)
from prymcover.scalars import sqrt_adjoin


def P(*coeffs):
    return Poly(coeffs)


class TestPolyBasics:
    def test_degree(self):
        assert Poly().degree == NEG_INFINITY
        assert P(3).degree == 0
        assert P(0, 0, 1).degree == 2
        assert P(1, 0, 0, 0).degree == 0

    def test_eval_horner(self):
        f = P(1, -2, 1)
        assert f(F(3)) == 4
        assert f(F(1)) == 0

    def test_from_roots(self):
        f = Poly.from_roots([F(1), F(-1)])
        assert f == P(-1, 0, 1)
        g = Poly.from_roots([F(1, 2)], lead=2)
        assert g == P(-1, 2)

    def test_arith(self):
        f, g = P(1, 1), P(-1, 1)
        assert f * g == P(-1, 0, 1)
        assert f + g == P(0, 2)
        assert f - f == Poly()
        assert (f * g)(F(2)) == 3

    def test_pow(self):
        assert P(1, 1) ** 3 == P(1, 3, 3, 1)
        assert P(2) ** 0 == P(1)

    def test_divmod(self):
        f = P(-1, 0, 0, 1)
        q, r = divmod(f, P(-1, 1))
        assert q == P(1, 1, 1) and r == Poly()
        q, r = divmod(P(1, 0, 1), P(0, 1))
        assert q == P(0, 1) and r == P(1)

    def test_gcd(self):
        f = Poly.from_roots([F(1), F(2)])
        g = Poly.from_roots([F(2), F(3)], lead=5)
        assert poly_gcd(f, g) == Poly.from_roots([F(2)])

    def test_derivative(self):
        assert P(1, 2, 3).derivative() == P(2, 6)
        assert P(7).derivative() == Poly()

    def test_irrational_coeffs(self):
        s = sqrt_adjoin(2)
        f = Poly((0, s))
        assert (f * f) == P(0, 0, 2)
        assert f(s) == 2

    def test_monic(self):
        assert P(2, 4).monic() == P(F(1, 2), 1)
        s = sqrt_adjoin(2)
        assert Poly((0, s)).monic() == P(0, 1)


class TestLongOperands:
    @given(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=33, max_size=40),
        st.lists(st.integers(min_value=-9, max_value=9), min_size=33, max_size=40),
    )
    def test_matches_schoolbook(self, a, b):
        fa, fb = Poly(a), Poly(b)
        via_mul = fa * fb
        acc = Poly()
        for i, c in enumerate(a):
            acc = acc + (fb * c).shift(i)
        assert via_mul == acc


def _fraction_schoolbook(a, b):
    """The product with Fraction(0) accumulators and every term formed."""
    if not a or not b:
        return []
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + ai * bj
    return out


_S2, _S3 = sqrt_adjoin(2), sqrt_adjoin(3)
_MIXED = st.sampled_from(
    [F(0), F(1), F(-3, 2), _S2, -_S2, _S2 * _S3, 1 + _S3, F(1, 2) * _S2]
)


def _times(rows, b):
    """A polynomial over Z^w (one integer vector per coefficient) times b."""
    out = [[0] * len(rows[0]) for _ in range(len(rows) + len(b) - 1)]
    for i, row in enumerate(rows):
        for j, c in enumerate(b):
            out[i + j] = [o + c * r for o, r in zip(out[i + j], row)]
    return out


# (3x - 1)^2 times three 17-wide rows: the shape of the elimination matrix
_B = [1, -6, 9]
_Q = [[(5 * i + 3 * k) % 11 - 5 for k in range(17)] for i in range(3)]


def _perturbed(row, col, by):
    rows = _times(_Q, _B)
    rows[row][col] += by
    return rows


class TestIntegerKernel:
    @given(st.lists(_MIXED, max_size=5), st.lists(_MIXED, max_size=5))
    def test_mixed_products_match_fraction_schoolbook(self, a, b):
        got = Poly(a) * Poly(b)
        assert got == Poly(_fraction_schoolbook(a, b))
        assert all(isinstance(c, (F, type(_S2))) for c in got.coeffs)

    def test_empty_operand(self):
        assert not any(mul_coeffs([], [1, 2, 3]))
        assert not any(mul_coeffs([F(1), _S2], []))
        assert Poly() * P(1, 2) == Poly()

    def test_exact_division_of_wide_rows(self):
        assert exact_quotient(_times(_Q, _B), _B) == _Q

    def test_one_column_rows(self):
        # the shape int_rational_roots uses: (x - 2)^2 (x + 3) / (x - 2)
        rows = exact_quotient([[12], [-8], [-1], [1]], [-2, 1])
        assert rows == [[-6], [1], [1]]

    @pytest.mark.parametrize(
        "row, col, by",
        [
            (0, 5, 1),  # remainder only in a row below deg b
            (1, 0, -2),  # remainder only in the rows below deg b
            (4, 7, 1),  # top row: the lead 9 does not divide one coordinate
            (3, 16, 9),  # divisible by the lead, but a remainder is left
        ],
    )
    def test_inexact_division_returns_none(self, row, col, by):
        assert exact_quotient(_perturbed(row, col, by), _B) is None

    def test_divisor_longer_than_dividend(self):
        assert exact_quotient([[3, 0]], [1, 2]) is None
        assert exact_quotient([[0, 0]], [1, 2]) == []

    @pytest.mark.parametrize(
        "ints, expected",
        [
            ([4, 6], (2, [2, 3])),
            ([2, -4], (-2, [-1, 2])),
            ([0, 6, -9], (-3, [0, -2, 3])),
            ([-5], (-5, [1])),
            ([-7, 0], (7, [-1, 0])),
        ],
    )
    def test_primitive_signs_like_the_last_coefficient(self, ints, expected):
        assert primitive(ints) == expected

    def test_scaled(self):
        assert scaled([F(1, 2), F(-2, 3), F(5)]) == (6, [3, -4, 30])
        assert scaled([F(4), F(-1)]) == (1, [4, -1])


class TestResultant:
    def test_linear_pair(self):
        assert resultant(P(-1, 1), P(1, 1)) == 2

    def test_quadratic(self):
        assert resultant(P(-1, 0, 1), P(-3, 1)) == 8

    def test_common_root(self):
        f = Poly.from_roots([F(2), F(5)])
        g = Poly.from_roots([F(2), F(7)])
        assert resultant(f, g) == 0

    def test_constants(self):
        assert resultant(P(3), P(0, 0, 1)) == 9
        assert resultant(P(0, 0, 1), P(3)) == 9

    @given(
        st.lists(st.integers(min_value=-5, max_value=5), min_size=2, max_size=4),
        st.lists(st.integers(min_value=-5, max_value=5), min_size=2, max_size=4),
    )
    def test_product_of_root_differences(self, a, b):
        # Res(f, g) = lc(f)^deg g * prod g(root of f) when f splits; check
        # the equivalent swap form Res(f,g) = (-1)^(mn) Res(g,f).
        f, g = Poly(a), Poly(b)
        if f.is_zero() or g.is_zero():
            return
        m, n = max(f.degree, 0), max(g.degree, 0)
        lhs = resultant(f, g)
        rhs = resultant(g, f) * (-1) ** (m * n)
        assert lhs == rhs

    def test_res_versus_eval_product(self):
        # deg-2 f with known roots: Res(f, g) = lc(f)^deg(g) g(r1) g(r2)
        f = Poly.from_roots([F(2), F(-3)], lead=5)
        g = P(1, 1, 1)
        assert resultant(f, g) == 25 * g(F(2)) * g(F(-3))


class TestDisc:
    def test_known_values(self):
        assert poly_disc(P(-1, 0, 1)) == 4
        assert poly_disc(P(0, -1, 0, 1)) == 4
        assert poly_disc(P(0, 0, 1)) == 0

    def test_depressed_cubic(self):
        # disc(x^3 + px + q) = -4p^3 - 27q^2
        p, q = F(-2), F(3)
        assert poly_disc(P(q, p, 0, 1)) == -4 * p**3 - 27 * q**2

    def test_quadratic_formula(self):
        # disc(ax^2 + bx + c) = b^2 - 4ac, independent of a
        a, b, c = F(3), F(5), F(-7)
        assert poly_disc(P(c, b, a)) == b * b - 4 * a * c

    def test_scaling(self):
        f = Poly.from_roots([F(1), F(2), F(4)])
        # disc of monic split poly = prod (ri - rj)^2
        assert poly_disc(f) == (1 * 3 * 2) ** 2 / 1

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            poly_disc(P(3))


class TestClearDenominators:
    def test_basic(self):
        ints, content = clear_denominators(P(F(1, 2), F(3, 4)))
        assert ints == [2, 3]
        assert content == F(1, 4)

    def test_negative_lead(self):
        ints, content = clear_denominators(P(2, -4))
        assert ints == [-1, 2]
        assert content == -2


class TestRatFunc:
    def test_reduction(self):
        f = RatFunc(Poly.from_roots([F(1), F(2)]), Poly.from_roots([F(2), F(3)]))
        assert f.num == P(-1, 1)
        assert f.den == P(-3, 1)

    def test_monic_denominator(self):
        f = RatFunc(P(1), P(0, 2))
        assert f.den == P(0, 1)
        assert f.num == P(F(1, 2))

    def test_values(self):
        f = RatFunc(P(1), P(0, 1))
        assert f.value_at(F(4)) == F(1, 4)
        with pytest.raises(PoleError):
            f.value_at(F(0))
        assert f.is_pole(F(0))
        assert f.value_at_infinity() == 0

    def test_value_at_infinity(self):
        assert RatFunc(P(0, 2), P(5, 1)).value_at_infinity() == 2
        with pytest.raises(PoleError):
            RatFunc(P(0, 0, 1), P(1, 1)).value_at_infinity()

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RatFunc(P(1), Poly())
